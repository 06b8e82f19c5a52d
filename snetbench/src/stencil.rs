//! `stencil-tiles`: a tile pipeline whose boxes are SAC with-loops
//! over 256×256 `f64` tiles (65 536 elements, above sacarray's
//! `PAR_THRESHOLD`), so every with-loop runs on sacarray's own pool:
//!
//! ```text
//! stencil .. threshold .. (hotScore || coldScore)
//! ```
//!
//! `stencil` smooths a tile with a five-point stencil; `threshold`
//! masks the cells above zero and sends the tile on as `{mask, <hot>}`
//! when most cells are hot, else as `{tile, <cold>}`; the type-routed
//! `||` hands each form to its reducer. The with-loops do almost all
//! the work while coordination handles a few records per millisecond,
//! so a with-loop or pool change shows here and a coordination change
//! should not.

use crate::batch::Spec;
use crate::trace::bind;
use crate::{trace, Cfg, PROBE};
use sacarray::{Array, Eval, Generator, Pool, WithLoop};
use snet_runtime::plan::Bindings;
use snet_runtime::Emitter;
use snet_types::{Record, Value};

/// Tile side; a tile has `SIDE * SIDE` cells.
const SIDE: usize = 256;
/// Distinct tiles per corpus; batches cycle through them.
const TILES: usize = 32;

const SRC: &str = "
box stencil (tile) -> (tile);
box threshold (tile) -> (mask, <hot>) | (tile, <cold>);
box hotScore (mask, <hot>) -> (score, <hot>);
box coldScore (tile, <cold>) -> (score, <cold>);
net main = stencil .. threshold .. (hotScore || coldScore);
";

fn full() -> Generator {
    Generator::full(&[SIDE, SIDE].into())
}

/// Five-point smoothing of the interior; the border is copied.
fn smooth(t: &Array<f64>, eval: Eval) -> Array<f64> {
    let d = t.data();
    let n = SIDE;
    trace::withloop("sacarray.genarray", n * n, || {
        WithLoop::new()
            .gen(full(), move |iv| {
                let (i, j) = (iv[0], iv[1]);
                let c = d[i * n + j];
                if i == 0 || j == 0 || i == n - 1 || j == n - 1 {
                    c
                } else {
                    (4.0 * c
                        + d[(i - 1) * n + j]
                        + d[(i + 1) * n + j]
                        + d[i * n + j - 1]
                        + d[i * n + j + 1])
                        / 8.0
                }
            })
            .genarray_on(Pool::global(), eval, [n, n], 0.0)
            .expect("stencil with-loop")
    })
}

/// 1 where the cell is above zero, else 0.
fn mask(t: &Array<f64>, eval: Eval) -> Array<i64> {
    let d = t.data();
    trace::withloop("sacarray.genarray", SIDE * SIDE, || {
        WithLoop::new()
            .gen(full(), move |iv| i64::from(d[iv[0] * SIDE + iv[1]] > 0.0))
            .genarray_on(Pool::global(), eval, [SIDE, SIDE], 0)
            .expect("threshold with-loop")
    })
}

/// Sum of `cell(i, j)` over the tile, as a with-loop fold.
fn fold_sum(eval: Eval, cell: impl Fn(usize, usize) -> i64 + Send + Sync) -> i64 {
    trace::withloop("sacarray.fold", SIDE * SIDE, || {
        WithLoop::new()
            .gen(full(), move |iv| cell(iv[0], iv[1]))
            .fold_on(Pool::global(), eval, 0, |a, b| a + b)
    })
}

fn hot_score(m: &Array<i64>, eval: Eval) -> i64 {
    let d = m.data();
    fold_sum(eval, move |i, j| {
        d[i * SIDE + j] * ((i * 31 + j * 17) % 97) as i64
    })
}

fn cold_score(t: &Array<f64>, eval: Eval) -> i64 {
    let d = t.data();
    fold_sum(eval, move |i, j| (d[i * SIDE + j] * 4096.0).floor() as i64)
}

/// What a tile must come out as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Expected {
    hot: bool,
    /// Cells above zero after smoothing.
    count: i64,
    score: i64,
}

/// The whole pipeline on one tile, evaluated with `eval`.
fn expected(t: &Array<f64>, eval: Eval) -> Expected {
    let s = smooth(t, eval);
    let m = mask(&s, eval);
    let count = fold_sum(eval, |i, j| m.data()[i * SIDE + j]);
    let hot = 2 * count > (SIDE * SIDE) as i64;
    let score = if hot {
        hot_score(&m, eval)
    } else {
        cold_score(&s, eval)
    };
    Expected { hot, count, score }
}

/// SplitMix64: a small seeded generator for tile contents.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// One tile: a per-tile level (so about half the tiles come out hot)
/// plus a smooth wave and cell noise.
fn tile(rng: &mut Rng) -> Array<f64> {
    let level = 0.3 * rng.unit();
    let phase = 3.0 * rng.unit();
    let data = (0..SIDE * SIDE)
        .map(|p| {
            let (i, j) = ((p / SIDE) as f64, (p % SIDE) as f64);
            level + 0.2 * (0.05 * i + 0.03 * j + phase).sin() + 0.5 * rng.unit()
        })
        .collect();
    Array::new([SIDE, SIDE], data).expect("tile shape")
}

fn field<'r, T>(rec: &'r Record, name: &str, get: fn(&Value) -> Option<&Array<T>>) -> &'r Array<T> {
    rec.field(name)
        .and_then(get)
        .unwrap_or_else(|| panic!("record lacks array field {name}"))
}

fn bindings(traced: bool) -> Bindings {
    let b = bind(
        Bindings::new(),
        "stencil",
        |rec: &Record, em: &mut Emitter| {
            let t = field(rec, "tile", Value::as_double_array);
            em.emit(
                Record::build()
                    .field("tile", smooth(t, Eval::Auto))
                    .finish(),
            );
        },
        traced,
    );
    let b = bind(
        b,
        "threshold",
        |rec: &Record, em: &mut Emitter| {
            let t = field(rec, "tile", Value::as_double_array);
            let m = mask(t, Eval::Auto);
            let md = m.data();
            let count = fold_sum(Eval::Auto, |i, j| md[i * SIDE + j]);
            let out = if 2 * count > (SIDE * SIDE) as i64 {
                Record::build().field("mask", m.clone()).tag("hot", count)
            } else {
                Record::build().field("tile", t.clone()).tag("cold", count)
            };
            em.emit(out.finish());
        },
        traced,
    );
    let b = bind(
        b,
        "hotScore",
        |rec: &Record, em: &mut Emitter| {
            let m = field(rec, "mask", Value::as_int_array);
            let hot = rec.tag("hot").expect("routed by <hot>");
            let score = hot_score(m, Eval::Auto);
            em.emit(
                Record::build()
                    .field("score", score)
                    .tag("hot", hot)
                    .finish(),
            );
        },
        traced,
    );
    bind(
        b,
        "coldScore",
        |rec: &Record, em: &mut Emitter| {
            let t = field(rec, "tile", Value::as_double_array);
            let cold = rec.tag("cold").expect("routed by <cold>");
            let score = cold_score(t, Eval::Auto);
            em.emit(
                Record::build()
                    .field("score", score)
                    .tag("cold", cold)
                    .finish(),
            );
        },
        traced,
    )
}

fn check(expect: &[Expected], probe: u64, rec: &Record) -> Result<(), String> {
    let want = expect[probe as usize % expect.len()];
    if rec.tag(PROBE) != Some(probe as i64) {
        return Err(format!("probe {:?} where {probe} was due", rec.tag(PROBE)));
    }
    let route = if want.hot { "hot" } else { "cold" };
    if rec.tag(route) != Some(want.count) {
        return Err(format!(
            "routed <hot> {:?} <cold> {:?}, expected <{route}> = {}",
            rec.tag("hot"),
            rec.tag("cold"),
            want.count
        ));
    }
    let score = rec.field("score").and_then(Value::as_int);
    if score != Some(want.score) {
        return Err(format!(
            "score {score:?}, sequential reference {}",
            want.score
        ));
    }
    Ok(())
}

pub fn spec(cfg: &Cfg) -> Spec {
    let mut rng = Rng(cfg.seed);
    let tiles: Vec<Array<f64>> = (0..TILES).map(|_| tile(&mut rng)).collect();
    let expect: Vec<Expected> = tiles
        .iter()
        .map(|t| expected(t, Eval::Sequential))
        .collect();
    Spec {
        src: SRC.to_string(),
        plain: bindings(false),
        traced: bindings(true),
        batch: cfg.tile_batch,
        make: Box::new(move |probe| {
            Record::build()
                .field("tile", tiles[probe as usize % tiles.len()].clone())
                .tag(PROBE, probe as i64)
                .finish()
        }),
        check: Box::new(move |probe, rec| check(&expect, probe, rec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_sequential_evaluation_agree_and_both_routes_occur() {
        let mut rng = Rng(7);
        let tiles: Vec<Array<f64>> = (0..8).map(|_| tile(&mut rng)).collect();
        let mut hot = 0;
        for t in &tiles {
            let seq = expected(t, Eval::Sequential);
            assert_eq!(seq, expected(t, Eval::Auto));
            hot += usize::from(seq.hot);
        }
        assert!(
            hot > 0 && hot < tiles.len(),
            "{hot} of {} tiles hot",
            tiles.len()
        );
    }
}
