//! `fig2-batch`: a seeded corpus of 9×9 puzzles streamed, cycled,
//! through the paper's Fig. 2 network
//! (`computeOpts .. [{} -> {<k>=1}] .. (solveOneLevelK !! <k>) ** {<done>}`).
//!
//! The paper's data-parallel coordination network at full queues:
//! split replicas, star stages, merges and backpressure do the work,
//! across records on every core; no serve layer is involved.

use crate::batch::Spec;
use crate::trace::bind;
use crate::{Cfg, PROBE};
use snet_runtime::plan::Bindings;
use snet_types::Record;
use sudoku::board::Board;
use sudoku::boxes::{board_of, compute_opts_box, puzzle_record, solve_one_level_box, LevelStyle};
use sudoku::gen::{generate, GenConfig};
use sudoku::networks::{BOX_DECLS, FIG2};
use sudoku::sac_solver::{solve_puzzle, Policy};

/// Distinct puzzles per corpus; batches cycle through them. Search
/// work per puzzle varies several-fold, so the corpus must be large
/// for its total work, and the throughput, to vary little from seed
/// to seed (about 4 % for 256 puzzles at 30 clues).
const CORPUS: usize = 256;
/// Clues left in each puzzle (more when uniqueness stops the digging
/// earlier).
const CLUES: usize = 30;

/// A puzzle and its reference solution.
pub struct Case {
    pub puzzle: Board,
    pub solution: Board,
}

/// `count` uniquely solvable puzzles of box size `n` with the given
/// clue targets, generated from `seed` on up to `nproc` threads, each
/// with its solution from the sequential reference solver.
pub fn corpus(n: usize, count: usize, clues: fn(usize) -> usize, seed: u64) -> Vec<Case> {
    let case = |i: usize| {
        let puzzle = generate(GenConfig {
            n,
            target_clues: clues(i),
            unique: true,
            seed: seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64 * 7919),
        });
        let (solution, _) = solve_puzzle(&puzzle, Policy::MinTrues);
        assert!(solution.is_solved(), "generated puzzle {i} has no solution");
        Case { puzzle, solution }
    };
    let threads = crate::sys::nproc().min(count).max(1);
    let mut slots: Vec<Option<Case>> = (0..count).map(|_| None).collect();
    std::thread::scope(|s| {
        let case = &case;
        let parts: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..count)
                        .step_by(threads)
                        .map(|i| (i, case(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for part in parts {
            for (i, c) in part.join().expect("puzzle generator panicked") {
                slots[i] = Some(c);
            }
        }
    });
    slots
        .into_iter()
        .map(|c| c.expect("every index generated"))
        .collect()
}

/// Checks that `rec` is request `probe`'s solved board.
pub fn check_solution(cases: &[Case], n: usize, probe: u64, rec: &Record) -> Result<(), String> {
    let case = &cases[probe as usize % cases.len()];
    if rec.tag(PROBE) != Some(probe as i64) {
        return Err(format!("probe {:?} where {probe} was due", rec.tag(PROBE)));
    }
    if rec.tag("done").is_none() {
        return Err("output lacks <done>".into());
    }
    if board_of(rec, n) != case.solution {
        return Err("board differs from the reference solution".into());
    }
    Ok(())
}

fn bindings(traced: bool) -> Bindings {
    let b = bind(Bindings::new(), "computeOpts", compute_opts_box(3), traced);
    bind(
        b,
        "solveOneLevelK",
        solve_one_level_box(3, LevelStyle::WithK),
        traced,
    )
}

pub fn spec(cfg: &Cfg) -> Spec {
    let cases = std::sync::Arc::new(corpus(3, CORPUS, |_| CLUES, cfg.seed));
    let make_cases = std::sync::Arc::clone(&cases);
    Spec {
        src: format!("{BOX_DECLS}net main = {FIG2};"),
        plain: bindings(false),
        traced: bindings(true),
        batch: cfg.fig2_batch,
        make: Box::new(move |probe| {
            let mut rec = puzzle_record(&make_cases[probe as usize % make_cases.len()].puzzle);
            rec.set_tag(PROBE, probe as i64);
            rec
        }),
        check: Box::new(move |probe, rec| check_solution(&cases, 3, probe, rec)),
    }
}
