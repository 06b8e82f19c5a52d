//! The batch runner shared by `fig2-batch` and `stencil-tiles`: one
//! sender thread streams a batch of inputs into a fresh net while the
//! main thread drains and checks every output, batch after batch until
//! the run's time is spent.
//!
//! A fresh net per batch makes every batch the same work, so the
//! runtime's work counters repeat exactly for a given seed, and the
//! per-batch throughputs give a median that one slow batch cannot
//! move.

use crate::layers::{self, Cost, Counts};
use crate::setup::{self, SetupStats};
use crate::stats::{median, quantile, quantile_of};
use crate::{sys, trace, Cfg, Checks, Metrics, Report, PROBE};
use snet_runtime::plan::Bindings;
use snet_runtime::Net;
use snet_types::Record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One batch workload: its net, its inputs and the output check.
pub struct Spec {
    /// The program; its `net main` is the workload's net.
    pub src: String,
    /// Box bindings as the program ships them.
    pub plain: Bindings,
    /// The same closures wrapped for the traced run.
    pub traced: Bindings,
    /// Inputs per batch.
    pub batch: usize,
    /// The input for request `probe`, carrying `<probe>`.
    pub make: Box<dyn Fn(u64) -> Record + Sync>,
    /// Checks the single output of request `probe`.
    pub check: Box<Check>,
}

/// An output check: `Err` says what is wrong with request `probe`'s
/// output.
pub type Check = dyn Fn(u64, &Record) -> Result<(), String> + Sync;

/// What a run of batches measured.
#[derive(Default)]
struct Phase {
    checks: Checks,
    /// Per batch: completed inputs per second, latency quantiles (ms)
    /// from the send call to the output's arrival at the drain.
    tput: Vec<f64>,
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    send_ns: Vec<u64>,
    finish: Duration,
    /// Work counts of the first batch; every batch does the same work.
    counts: Counts,
    /// Summed over batches.
    credit_stalls: u64,
    /// Highest over batches.
    depth_high_water: u64,
    cost: Cost,
}

fn run_batch(spec: &Spec, traced: bool, base: u64, ph: &mut Phase) {
    let bindings = if traced { &spec.traced } else { &spec.plain };
    let (net, _) = setup::build_net(&spec.src, bindings);
    let metrics = Arc::clone(net.metrics());
    let b = spec.batch;
    let sent_at: Vec<AtomicU64> = (0..b).map(|_| AtomicU64::new(0)).collect();
    let rejected = AtomicU64::new(0);
    let mut checks = Checks {
        attempted: b as u64,
        ..Checks::default()
    };
    let mut seen = vec![false; b];
    let mut lat_ns = Vec::with_capacity(b);
    let start = Instant::now();
    let mut last = start;
    let (send_ns, send_fails, sender_cpu, drain_cpu) = std::thread::scope(|s| {
        let (net, sent_at, rejected) = (&net, &sent_at, &rejected);
        let sender = s.spawn(move || {
            let cpu0 = sys::thread_cpu_ns();
            let mut send_ns = Vec::with_capacity(b);
            let mut fails = Vec::new();
            for (j, at) in sent_at.iter().enumerate() {
                let probe = base + j as u64;
                let rec = (spec.make)(probe);
                at.store(trace::ns_of(Instant::now()), Ordering::Release);
                let req = probe as i64;
                let (r, took) = trace::span("net.send", trace::request_span_id(req), req, || {
                    net.send(rec)
                });
                send_ns.push(took.as_nanos() as u64);
                if let Err(e) = r {
                    rejected.fetch_add(1, Ordering::AcqRel);
                    fails.push(format!("input {probe} refused: {e}"));
                }
            }
            (send_ns, fails, sys::thread_cpu_ns() - cpu0)
        });
        let cpu0 = sys::thread_cpu_ns();
        let mut got = 0usize;
        while got + (rejected.load(Ordering::Acquire) as usize) < b {
            let Some(rec) = net.recv() else { break };
            let now = Instant::now();
            last = now;
            got += 1;
            if got.is_multiple_of(256) {
                ph.cost.threads_peak = ph.cost.threads_peak.max(sys::threads());
            }
            let probe = rec.tag(PROBE).map(|p| p as u64);
            let j = match probe {
                Some(p) if p >= base && p < base + b as u64 => (p - base) as usize,
                _ => {
                    checks.fail(format!("output with no probe of this batch: {probe:?}"));
                    continue;
                }
            };
            if std::mem::replace(&mut seen[j], true) {
                checks.fail(format!("input {} answered twice", base + j as u64));
                continue;
            }
            if let Err(e) = (spec.check)(base + j as u64, &rec) {
                checks.fail(format!("input {}: {e}", base + j as u64));
            }
            let sent = sent_at[j].load(Ordering::Acquire);
            let arrived = trace::ns_of(now);
            lat_ns.push(arrived.saturating_sub(sent));
            if traced {
                trace::record_request("item", (base + j as u64) as i64, sent, arrived);
            }
        }
        let drain_cpu = sys::thread_cpu_ns() - cpu0;
        let (send_ns, fails, sender_cpu) = sender.join().expect("sender thread panicked");
        (send_ns, fails, sender_cpu, drain_cpu)
    });
    for f in send_fails {
        checks.fail(f);
    }
    let (extra, finish) = trace::span("net.finish", 0, -1, || net.finish());
    for rec in &extra {
        checks.fail(format!(
            "extra output after the batch drained: probe {:?}",
            rec.tag(PROBE)
        ));
    }
    let refused = rejected.load(Ordering::Acquire) as usize;
    let missing = seen.iter().filter(|s| !**s).count().saturating_sub(refused);
    for _ in 0..missing {
        checks.fail(format!(
            "an input of batch {base}.. never produced its output"
        ));
    }
    let ok = lat_ns.len();
    lat_ns.sort_unstable();
    ph.tput
        .push(ok as f64 / (last - start).as_secs_f64().max(1e-9));
    ph.p50_ms.push(quantile(&lat_ns, 0.50) as f64 / 1e6);
    ph.p90_ms.push(quantile(&lat_ns, 0.90) as f64 / 1e6);
    ph.send_ns.extend(send_ns);
    ph.finish += finish;
    let counts = Counts::of(&metrics);
    if ph.tput.len() == 1 {
        ph.counts = counts;
    }
    ph.credit_stalls += counts.credit_stalls;
    ph.depth_high_water = ph.depth_high_water.max(counts.depth_high_water);
    ph.cost.harness_cpu += Duration::from_nanos(sender_cpu + drain_cpu);
    ph.cost.ops += ok as u64;
    ph.checks.absorb(checks);
}

/// Runs whole batches until `budget` is spent (at least one). Probes
/// continue from `next_probe` so request ids stay unique in a trace.
fn run_phase(spec: &Spec, budget: Duration, traced: bool, next_probe: &mut u64) -> Phase {
    let mut ph = Phase::default();
    let u0 = sys::process();
    let pool0 = sys::named_threads_cpu(sys::SAC_POOL_THREAD);
    let t0 = Instant::now();
    while ph.tput.is_empty() || t0.elapsed() < budget {
        run_batch(spec, traced, *next_probe, &mut ph);
        *next_probe += spec.batch as u64;
    }
    ph.cost.wall = t0.elapsed();
    ph.cost.proc = sys::process().since(u0);
    ph.cost.pool_cpu = sys::named_threads_cpu(sys::SAC_POOL_THREAD).saturating_sub(pool0);
    ph
}

fn measure_setup(spec: &Spec) -> SetupStats {
    setup::measure(
        || setup::build_net(&spec.src, &spec.plain),
        |net: Net| {
            net.finish();
        },
    )
}

pub fn run(cfg: &Cfg, spec: &Spec) -> Report {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut next_probe = 0;
    if !cfg.trace {
        let setup = measure_setup(spec);
        let ph = run_phase(spec, budget, false, &mut next_probe);
        let mut m = Metrics::end_to_end();
        let tput = median(&ph.tput);
        let (lo, hi) = ph
            .tput
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        println!(
            "{} batches of {}: throughput min {lo:.1}, median {tput:.1}, max {hi:.1} /s",
            ph.tput.len(),
            spec.batch
        );
        m.set("setup_s", setup.total_s);
        m.set("ok_frac", ph.checks.ok_frac());
        m.set("peak_rss_mb", sys::peak_rss_mb());
        m.set("throughput_per_s", tput);
        m.set("p50_ms", median(&ph.p50_ms));
        m.set("p90_ms", median(&ph.p90_ms));
        // A closed batch has no offered rate: the highest rate it
        // sustains is its throughput.
        m.set("max_rps", tput);
        return Report {
            checks: ph.checks,
            metrics: m,
            trace: None,
        };
    }
    // Traced run: half untraced (the overhead baseline), half traced.
    let plain = run_phase(spec, budget / 2, false, &mut next_probe);
    trace::start();
    let setup = measure_setup(spec);
    let traced = run_phase(spec, budget / 2, true, &mut next_probe);
    let t = trace::stop();
    let mut m = Metrics::per_layer(&cfg.ladder);
    layers::set_setup(&mut m, &setup);
    m.set(
        "net.send_s",
        traced.send_ns.iter().sum::<u64>() as f64 / 1e9,
    );
    m.set(
        "net.send_us_p99",
        quantile_of(&traced.send_ns, 0.99) as f64 / 1e3,
    );
    m.set("net.finish_s", traced.finish.as_secs_f64());
    m.set("stream.credit_stalls", traced.credit_stalls as f64);
    m.set("stream.depth_high_water", traced.depth_high_water as f64);
    layers::set_counts(&mut m, &traced.counts);
    layers::set_cost(&mut m, &traced.cost, &t);
    m.set(
        "trace.overhead_frac",
        median(&plain.tput) / median(&traced.tput) - 1.0,
    );
    let mut checks = plain.checks;
    checks.absorb(traced.checks);
    Report {
        checks,
        metrics: m,
        trace: Some(t),
    }
}
