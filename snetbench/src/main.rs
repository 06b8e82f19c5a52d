//! `snetbench` — the S-Net/SAC runtime benchmark.
//!
//! ```text
//! snetbench --workload <sudoku-serve|fig2-batch|stencil-tiles>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --serve-rate <req/s> --ladder <r1,r2,..> --p99-limit-ms <ms>
//!           --callers <n> --fig2-batch <n> --tile-batch <n>
//! ```
//!
//! Builds the workload's inputs from the seed, runs it for about
//! `--seconds`, checks every output, and prints as its last line one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. Exits nonzero when any
//! output is wrong or missing. See README.md for the metrics, the
//! layers they belong to and why each workload exists.

mod batch;
mod fig2;
mod layers;
mod serve;
mod setup;
mod stats;
mod stencil;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Caller-side correlation tag: every input carries its request index
/// here, flow inheritance carries it to the output, and box spans use
/// it to find their request.
pub const PROBE: &str = "probe";

pub const WORKLOADS: [&str; 3] = ["sudoku-serve", "fig2-batch", "stencil-tiles"];

/// Box closures the traced run wraps, by the name the nets bind them.
pub const BOXES: [&str; 7] = [
    "computeOpts",
    "solveOneLevel",
    "solveOneLevelK",
    "stencil",
    "threshold",
    "hotScore",
    "coldScore",
];

/// The run's settings. The load constants come from the command line
/// so that `BENCHMARK.json`'s command fixes them for every run.
#[derive(Clone, Debug)]
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `sudoku-serve`'s nominal offered rate, req/s; the ladder's
    /// lowest rung.
    pub serve_rate: f64,
    pub ladder: Vec<f64>,
    pub p99_limit_ms: f64,
    /// Load-generator threads, at most `nproc`.
    pub callers: usize,
    pub fig2_batch: usize,
    pub tile_batch: usize,
}

fn parse_args(args: &[String]) -> Result<Cfg, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    fn num<T: std::str::FromStr>(k: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("--{k}: cannot parse {v:?}"))
    }
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let ladder: Vec<f64> = get("ladder")?
        .split(',')
        .map(|r| num("ladder", r))
        .collect::<Result<_, _>>()?;
    let cfg = Cfg {
        workload,
        seed: num("seed", get("seed")?)?,
        seconds: num("seconds", get("seconds")?)?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        serve_rate: num("serve-rate", get("serve-rate")?)?,
        ladder,
        p99_limit_ms: num("p99-limit-ms", get("p99-limit-ms")?)?,
        callers: num::<usize>("callers", get("callers")?)?.clamp(1, sys::nproc()),
        fig2_batch: num("fig2-batch", get("fig2-batch")?)?,
        tile_batch: num("tile-batch", get("tile-batch")?)?,
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if cfg.ladder.windows(2).any(|w| w[0] >= w[1]) || cfg.ladder.first() != Some(&cfg.serve_rate) {
        return Err("--ladder must rise strictly and start at --serve-rate".into());
    }
    if kv.len() != 10 {
        return Err(format!("unknown arguments among {:?}", kv.keys()));
    }
    Ok(cfg)
}

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "ops/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("max_rps", "req/s"),
];

/// The per-layer metrics, printed by every traced run; a workload that
/// does not cross a layer reports 0 for it.
fn per_layer_metrics(ladder: &[f64]) -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for n in [
        "snet-lang.parse_s",
        "snet-lang.typecheck_s",
        "plan.compile_s",
        "instantiate.spawn_s",
        "serve.start_s",
    ] {
        add(n.into(), "s");
    }
    add("instantiate.components".into(), "count");
    add("serve.call_us_p50".into(), "us");
    add("serve.call_us_p99".into(), "us");
    add("serve.in_net_ms_p50".into(), "ms");
    add("serve.in_net_ms_p99".into(), "ms");
    for r in ladder {
        add(format!("serve.p50_ms.r{r}"), "ms");
        add(format!("serve.p99_ms.r{r}"), "ms");
        add(format!("serve.sustained_rps.r{r}"), "req/s");
    }
    add("net.send_s".into(), "s");
    add("net.send_us_p99".into(), "us");
    add("net.finish_s".into(), "s");
    add("stream.credit_stalls".into(), "count");
    add("stream.depth_high_water".into(), "count");
    add("sched.cpu_util".into(), "fraction");
    add("sched.ctx_switches_per_op".into(), "count/op");
    add("sched.threads_peak".into(), "count");
    for b in BOXES {
        add(format!("boxfn.{b}.calls"), "count");
        add(format!("boxfn.{b}.busy_s"), "s");
        add(format!("boxfn.{b}.us_p50"), "us");
    }
    add("boxfn.busy_share".into(), "fraction");
    add("snet-runtime.coord_cpu_us_per_op".into(), "us/op");
    for n in [
        "star.stages",
        "split.branches",
        "parallel.routed_left",
        "parallel.routed_right",
        "runtime.records_in",
        "runtime.interner_paths",
    ] {
        add(n.into(), "count");
    }
    add("sacarray.withloop_calls".into(), "count");
    add("sacarray.par_calls".into(), "count");
    add("sacarray.withloop_busy_s".into(), "s");
    add("sacarray.melems_per_s".into(), "Melem/s");
    add("loadgen.late_ms_p99".into(), "ms");
    add("loadgen.cpu_s".into(), "s");
    add("proc.cpu_ms_per_op".into(), "ms/op");
    add("proc.rss_mb_end".into(), "MB");
    add("trace.overhead_frac".into(), "fraction");
    add("trace.cpu_balance".into(), "fraction");
    m
}

/// Named metric values of one run; only declared names may be set.
pub struct Metrics {
    values: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    fn new(declared: impl IntoIterator<Item = (String, &'static str)>) -> Metrics {
        Metrics {
            values: declared.into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    pub fn end_to_end() -> Metrics {
        Metrics::new(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)))
    }

    pub fn per_layer(ladder: &[f64]) -> Metrics {
        Metrics::new(per_layer_metrics(ladder))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        slot.2 = value;
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, unit, v)) in self.values.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// What a workload run produced: its output checks, its metrics and,
/// for a traced run, its spans.
pub struct Report {
    pub checks: Checks,
    pub metrics: Metrics,
    pub trace: Option<trace::Trace>,
}

/// Tally of output checks, keeping the first few messages.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    /// Inputs failed, refused, missing or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    /// Share of attempted inputs answered correctly.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 10 {
                self.failures.push(f);
            }
        }
    }
}

/// The commit being measured, when the working directory is a git
/// checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map_or_else(
            |_| {
                let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .unwrap_or("unknown")
                    .to_string()
            },
            |c| c.trim().to_string(),
        ),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The run record printed before the results: what was measured, on
/// what, under which settings.
fn run_record(cfg: &Cfg) -> String {
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SNET_") || k.starts_with("SACARRAY_"))
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let executor = match std::env::var("SNET_EXECUTOR") {
        Ok(v) if v == "pool" => "pool",
        _ => "threads",
    };
    format!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"callers\": {}, \"executor\": \"{executor}\", \"env\": {{{}}}, \
         \"commit\": \"{}\", \"serve_rate\": {}, \"ladder\": {:?}, \"p99_limit_ms\": {}, \
         \"fig2_batch\": {}, \"tile_batch\": {}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        sys::nproc(),
        cfg.callers,
        env.join(", "),
        commit(),
        cfg.serve_rate,
        cfg.ladder,
        cfg.p99_limit_ms,
        cfg.fig2_batch,
        cfg.tile_batch,
    )
}

/// Directory, relative to the working directory, for span files and
/// per-layer tables.
const OUT_DIR: &str = ".snetbench-out";

/// Writes the traced run's spans and per-layer table; returns the
/// table for the log.
fn write_trace(cfg: &Cfg, t: &trace::Trace) -> std::io::Result<String> {
    use std::io::Write;
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!("{OUT_DIR}/{}-seed{}", cfg.workload, cfg.seed);
    let mut spans = std::io::BufWriter::new(std::fs::File::create(format!("{stem}.spans.jsonl"))?);
    for s in &t.spans {
        writeln!(
            spans,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    spans.flush()?;
    let mut table = format!(
        "# per-layer self time from {} spans ({} dropped over the cap)\nlayer\tspans\ttotal_s\tself_s\n",
        t.spans.len(),
        t.dropped
    );
    for row in trace::layer_table(&t.spans) {
        let _ = writeln!(
            table,
            "{}\t{}\t{:.6}\t{:.6}",
            row.name,
            row.spans,
            row.total_ns as f64 / 1e9,
            row.self_ns as f64 / 1e9
        );
    }
    std::fs::write(format!("{stem}.layers.tsv"), &table)?;
    Ok(table)
}

/// Ends the process if the run hangs (a lost output would otherwise
/// block its drain forever): no result line, nonzero exit.
fn start_watchdog(cfg: &Cfg) {
    let limit = Duration::from_secs_f64((cfg.seconds * 4.0 + 60.0).min(170.0));
    std::thread::Builder::new()
        .name("snetbench-watchdog".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!("snetbench: run exceeded {limit:?}; an output was lost or the net hung");
            std::process::exit(3);
        })
        .expect("spawn watchdog");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("snetbench: {e}");
            std::process::exit(2);
        }
    };
    start_watchdog(&cfg);
    println!("{}", run_record(&cfg));
    let report = match cfg.workload.as_str() {
        "sudoku-serve" => serve::run(&cfg),
        "fig2-batch" => batch::run(&cfg, &fig2::spec(&cfg)),
        "stencil-tiles" => batch::run(&cfg, &stencil::spec(&cfg)),
        _ => unreachable!("workload checked by parse_args"),
    };
    if let Some(t) = &report.trace {
        match write_trace(&cfg, t) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("snetbench: cannot write the trace files: {e}");
                std::process::exit(1);
            }
        }
    }
    for (name, unit, v) in &report.metrics.values {
        println!("metric {name} = {v} {unit}");
    }
    let checks = &report.checks;
    for f in &checks.failures {
        eprintln!("snetbench: FAILED {f}");
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted,
        checks.failed,
        report.metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const LOAD: &str = "--serve-rate 3000 --ladder 3000,4000 --p99-limit-ms 2 --callers 2 \
                        --fig2-batch 8 --tile-batch 4";

    #[test]
    fn args_parse_and_reject() {
        let ok = parse_args(&args(&format!(
            "--workload fig2-batch --seed 5 --seconds 2 --trace 1 {LOAD}"
        )))
        .unwrap();
        assert_eq!(ok.seed, 5);
        assert!(ok.trace);
        assert_eq!(ok.ladder, vec![3000.0, 4000.0]);
        assert!(ok.callers <= sys::nproc());
        for bad in [
            format!("--workload nope --seed 5 --seconds 2 --trace 0 {LOAD}"),
            format!("--workload fig2-batch --seed 5 --seconds 2 --trace 2 {LOAD}"),
            format!("--workload fig2-batch --seconds 2 --trace 0 {LOAD}"),
            format!("--workload fig2-batch --seed 5 --seconds 2 --trace 0 --extra 1 {LOAD}"),
            format!("--workload fig2-batch --seed 5 --seconds 2 --trace 0 {LOAD}")
                .replace("3000,4000", "4000,3000"),
        ] {
            assert!(parse_args(&args(&bad)).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(
                per_layer_metrics(&[3000.0, 4500.0])
                    .into_iter()
                    .map(|(n, _)| n),
            )
            .collect();
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for n in &all {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
