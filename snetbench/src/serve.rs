//! `sudoku-serve`: an open loop into `serve::Service` wrapping the
//! paper's Fig. 1 net (`computeOpts .. solveOneLevel ** {<done>}`).
//!
//! Requests are uniquely solvable 4×4 puzzles with varied clue counts,
//! so star depth varies per request. Box work per record is a few
//! microseconds: serve ingress and demux, edges, scheduler wake-ups
//! and star dispatch dominate. This is the only latency workload.
//!
//! Load is open: request `i` is due at `start + i / rate` whatever the
//! service does, spread over at most `nproc` caller threads, and its
//! latency runs from its due time (so a stalled generator charges the
//! wait to the requests it delayed) to the demux's completion stamp.

use crate::fig2::{check_solution, corpus, Case};
use crate::layers::{self, Cost, Counts};
use crate::setup::{self, SetupStats};
use crate::stats::{max_rps, median, quantile, quantile_of, Rung};
use crate::trace::bind;
use crate::{sys, trace, Cfg, Checks, Metrics, Report, PROBE};
use snet_runtime::plan::Bindings;
use snet_runtime::{CallHandle, Service};
use std::time::{Duration, Instant};
use sudoku::boxes::{compute_opts_box, puzzle_record, solve_one_level_box, LevelStyle};
use sudoku::networks::{BOX_DECLS, FIG1};

/// Distinct puzzles per corpus; requests cycle through them.
const CORPUS: usize = 256;
/// Requests due in the first part of each phase warm the service up
/// and are checked but not timed.
const WARMUP: Duration = Duration::from_millis(250);
/// Length of the windows whose latency quantiles a phase's p50, p90
/// and p99 take the median of. On a small shared VM the host
/// stalls a vCPU for 2–15 ms about once a second; a quantile over the
/// whole phase would measure those stalls, while the median over
/// short windows measures the service and ignores windows a stall
/// hit, as long as fewer than half are. At the nominal rate a window
/// holds about 750 requests, so its p99 has 7 samples beyond it.
const WINDOW: Duration = Duration::from_millis(250);
/// How long a caller waits for a response past its due time before
/// counting it lost. Bounds the harness, not a latency target.
const HARVEST: Duration = Duration::from_secs(30);
/// Share of the run the nominal phase takes in an untraced run; the
/// rest goes to the ladder's higher rungs.
const NOMINAL_SHARE: f64 = 0.5;

fn bindings(traced: bool) -> Bindings {
    let b = bind(Bindings::new(), "computeOpts", compute_opts_box(2), traced);
    bind(
        b,
        "solveOneLevel",
        solve_one_level_box(2, LevelStyle::Plain),
        traced,
    )
}

/// What one open-loop phase at a fixed rate measured.
#[derive(Default)]
struct Phase {
    checks: Checks,
    /// Latency (due → completion) per window after warm-up, ns.
    windows: Vec<Vec<u64>>,
    /// Time in `Service::call`, ns.
    call_ns: Vec<u64>,
    /// Completion minus `issued_at`, ns.
    in_net_ns: Vec<u64>,
    /// How late each call started against its due time, ns.
    late_ns: Vec<u64>,
    /// Completions per second over the timed part.
    sustained: f64,
    counts: Counts,
    cost: Cost,
}

impl Phase {
    /// Median over windows of each window's latency quantile `q`, ms.
    fn window_median(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let mut w = w.clone();
                w.sort_unstable();
                quantile(&w, q) as f64 / 1e6
            })
            .collect();
        median(&per)
    }

    fn rung(&self, rate: f64) -> Rung {
        Rung {
            rate,
            p50_ms: self.window_median(0.50),
            p99_ms: self.window_median(0.99),
            sustained_rps: self.sustained,
            failed: self.checks.failed,
        }
    }
}

/// What every phase of one run shares.
struct Load {
    /// The program; its `net main` is Fig. 1.
    src: String,
    cases: Vec<Case>,
    callers: usize,
}

impl Load {
    /// Drives a fresh service at `rate` for `dur`.
    fn phase(&self, bindings: &Bindings, rate: f64, dur: Duration, next_probe: &mut u64) -> Phase {
        let (cases, callers) = (&self.cases, self.callers);
        let (svc, _) = setup::build_service(&self.src, bindings);
        let total = (rate * dur.as_secs_f64()).round().max(1.0) as u64;
        let base = *next_probe;
        *next_probe += total;
        let interval = 1.0 / rate;
        let nwin = ((dur.saturating_sub(WARMUP)).as_secs_f64() / WINDOW.as_secs_f64())
            .floor()
            .max(1.0) as usize;
        let u0 = sys::process();
        let pool0 = sys::named_threads_cpu(sys::SAC_POOL_THREAD);
        // A short runway so the first request is not already late.
        let start = Instant::now() + Duration::from_millis(20);
        let per_caller: Vec<(Phase, Option<Instant>)> = std::thread::scope(|s| {
            let svc = &svc;
            let handles: Vec<_> = (0..callers)
                .map(|k| {
                    s.spawn(move || {
                        sys::precise_sleep();
                        let cpu0 = sys::thread_cpu_ns();
                        let mut ph = Phase {
                            windows: vec![Vec::new(); nwin],
                            ..Phase::default()
                        };
                        let mut sent: Vec<(u64, Instant, CallHandle)> = Vec::new();
                        let mut i = k as u64;
                        while i < total {
                            let due = start + Duration::from_secs_f64(i as f64 * interval);
                            sleep_until(due);
                            let probe = base + i;
                            let mut rec =
                                puzzle_record(&cases[probe as usize % cases.len()].puzzle);
                            rec.set_tag(PROBE, probe as i64);
                            let t0 = Instant::now();
                            ph.late_ns
                                .push(t0.saturating_duration_since(due).as_nanos() as u64);
                            let req = probe as i64;
                            let (r, took) =
                                trace::span("serve.call", trace::request_span_id(req), req, || {
                                    svc.call(rec)
                                });
                            ph.call_ns.push(took.as_nanos() as u64);
                            match r {
                                Ok(h) => sent.push((i, due, h)),
                                Err(e) => ph.checks.fail(format!("request {probe} refused: {e}")),
                            }
                            ph.checks.attempted += 1;
                            if i % 512 == k as u64 {
                                ph.cost.threads_peak = ph.cost.threads_peak.max(sys::threads());
                            }
                            i += callers as u64;
                        }
                        // Harvest lazily: completion times come from the
                        // demux's stamp, not from this thread's wake-up.
                        let mut last_done: Option<Instant> = None;
                        for (i, due, h) in sent {
                            let probe = base + i;
                            let issued = h.issued_at();
                            match h.wait_deadline(due + HARVEST) {
                                Ok(resp) => {
                                    let check = match resp.records.as_slice() {
                                        [rec] => check_solution(cases, 2, probe, rec),
                                        recs => Err(format!("{} outputs, expected 1", recs.len())),
                                    };
                                    if let Err(e) = check {
                                        ph.checks.fail(format!("request {probe}: {e}"));
                                        continue;
                                    }
                                    let done = resp.completed_at;
                                    ph.cost.ops += 1;
                                    if trace::is_on() {
                                        trace::record_request(
                                            "request",
                                            probe as i64,
                                            trace::ns_of(due),
                                            trace::ns_of(done),
                                        );
                                    }
                                    let since_start = due.saturating_duration_since(start);
                                    if since_start < WARMUP {
                                        continue;
                                    }
                                    let w = ((since_start - WARMUP).as_secs_f64()
                                        / WINDOW.as_secs_f64())
                                        as usize;
                                    ph.windows[w.min(nwin - 1)]
                                    .push(done.saturating_duration_since(due).as_nanos() as u64);
                                    ph.in_net_ns
                                        .push(done.saturating_duration_since(issued).as_nanos()
                                            as u64);
                                    last_done = Some(last_done.map_or(done, |l| l.max(done)));
                                }
                                Err(e) => ph.checks.fail(format!("request {probe}: {e}")),
                            }
                        }
                        ph.cost.harness_cpu = Duration::from_nanos(sys::thread_cpu_ns() - cpu0);
                        (ph, last_done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        let mut ph = Phase {
            windows: vec![Vec::new(); nwin],
            ..Phase::default()
        };
        let mut last_done: Option<Instant> = None;
        for (c, l) in per_caller {
            ph.checks.absorb(c.checks);
            for (w, lat) in ph.windows.iter_mut().zip(c.windows) {
                w.extend(lat);
            }
            ph.call_ns.extend(c.call_ns);
            ph.in_net_ns.extend(c.in_net_ns);
            ph.late_ns.extend(c.late_ns);
            ph.cost.ops += c.cost.ops;
            ph.cost.harness_cpu += c.cost.harness_cpu;
            ph.cost.threads_peak = ph.cost.threads_peak.max(c.cost.threads_peak);
            last_done = match (last_done, l) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        if let Some(last) = last_done {
            let timed = last.saturating_duration_since(start + WARMUP).as_secs_f64();
            let completed: usize = ph.windows.iter().map(Vec::len).sum();
            ph.sustained = completed as f64 / timed.max(1e-9);
        }
        ph.cost.wall = start.elapsed();
        ph.cost.proc = sys::process().since(u0);
        ph.cost.pool_cpu = sys::named_threads_cpu(sys::SAC_POOL_THREAD).saturating_sub(pool0);
        ph.counts = Counts::of(svc.metrics());
        svc.shutdown();
        ph
    }

    /// Runs the ladder's rungs above the nominal one, in rising order,
    /// stopping at the first that fails (no higher rate can count).
    fn climb(
        &self,
        cfg: &Cfg,
        bindings: &Bindings,
        budget: Duration,
        nominal: Rung,
        next_probe: &mut u64,
    ) -> (Vec<Rung>, Checks) {
        let mut rungs = vec![nominal];
        let mut checks = Checks::default();
        let higher = &cfg.ladder[1..];
        if higher.is_empty() || !nominal.passes(cfg.p99_limit_ms) {
            return (rungs, checks);
        }
        let each = budget / higher.len() as u32;
        for &rate in higher {
            let ph = self.phase(bindings, rate, each, next_probe);
            let rung = ph.rung(rate);
            println!(
                "rung {rate} req/s: p50 {:.3} ms, p99 {:.3} ms, sustained {:.1} req/s, {} failed",
                rung.p50_ms, rung.p99_ms, rung.sustained_rps, rung.failed
            );
            checks.absorb(ph.checks);
            rungs.push(rung);
            if !rung.passes(cfg.p99_limit_ms) {
                break;
            }
        }
        (rungs, checks)
    }

    fn measure_setup(&self, bindings: &Bindings) -> SetupStats {
        setup::measure(
            || setup::build_service(&self.src, bindings),
            Service::shutdown,
        )
    }
}

/// How long before a due time a caller stops sleeping and spins. On a
/// VM, waking a halted vCPU from a timer costs tens of microseconds
/// and much more when the host is busy; spinning the last stretch
/// keeps that wake-up out of the measured latency. Measured on 2
/// vCPUs at 3000 req/s, alternating runs: p50 0.070 ms spinning
/// against 0.116 ms sleeping to the due time, with no wider spread.
const SPIN: Duration = Duration::from_micros(100);

/// Sleeps, then spins the last [`SPIN`], until `t`. Callers cut their
/// timer slack first (see [`sys::precise_sleep`]), so the sleep ends
/// close to when asked.
fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN + SPIN / 2 {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

pub fn run(cfg: &Cfg) -> Report {
    let load = Load {
        src: format!("{BOX_DECLS}net main = {FIG1};"),
        cases: corpus(2, CORPUS, |i| 4 + i % 5, cfg.seed),
        callers: cfg.callers,
    };
    let plain = bindings(false);
    let secs = Duration::from_secs_f64(cfg.seconds);
    let mut next_probe = 0;
    let mut checks = Checks::default();
    if !cfg.trace {
        let setup = load.measure_setup(&plain);
        let nominal_dur = secs.mul_f64(NOMINAL_SHARE);
        let ph = load.phase(&plain, cfg.serve_rate, nominal_dur, &mut next_probe);
        // Peak memory up to here: setup and the nominal load. The
        // ladder's top rung overloads the service on purpose, and the
        // backlog it queues would set the peak otherwise.
        let peak_rss_mb = sys::peak_rss_mb();
        let (rungs, ladder_checks) = load.climb(
            cfg,
            &plain,
            secs - nominal_dur,
            ph.rung(cfg.serve_rate),
            &mut next_probe,
        );
        let mut m = Metrics::end_to_end();
        m.set("setup_s", setup.total_s);
        m.set("peak_rss_mb", peak_rss_mb);
        m.set("throughput_per_s", ph.sustained);
        m.set("p50_ms", ph.window_median(0.50));
        m.set("p90_ms", ph.window_median(0.90));
        m.set("max_rps", max_rps(&rungs, cfg.p99_limit_ms));
        checks.absorb(ph.checks);
        checks.absorb(ladder_checks);
        m.set("ok_frac", checks.ok_frac());
        return Report {
            checks,
            metrics: m,
            trace: None,
        };
    }
    // Traced run: the nominal phase and the ladder untraced, then the
    // nominal phase again with spans on.
    let third = secs / 3;
    let plain_ph = load.phase(&plain, cfg.serve_rate, third, &mut next_probe);
    let (rungs, ladder_checks) = load.climb(
        cfg,
        &plain,
        third,
        plain_ph.rung(cfg.serve_rate),
        &mut next_probe,
    );
    let traced = bindings(true);
    trace::start();
    let setup = load.measure_setup(&traced);
    let ph = load.phase(&traced, cfg.serve_rate, third, &mut next_probe);
    let t = trace::stop();

    let mut m = Metrics::per_layer(&cfg.ladder);
    layers::set_setup(&mut m, &setup);
    let us = |v: &[u64], q: f64| quantile_of(v, q) as f64 / 1e3;
    let ms = |v: &[u64], q: f64| quantile_of(v, q) as f64 / 1e6;
    m.set("serve.call_us_p50", us(&ph.call_ns, 0.50));
    m.set("serve.call_us_p99", us(&ph.call_ns, 0.99));
    m.set("serve.in_net_ms_p50", ms(&ph.in_net_ns, 0.50));
    m.set("serve.in_net_ms_p99", ms(&ph.in_net_ns, 0.99));
    for r in &rungs {
        m.set(&format!("serve.p50_ms.r{}", r.rate), r.p50_ms);
        m.set(&format!("serve.p99_ms.r{}", r.rate), r.p99_ms);
        m.set(&format!("serve.sustained_rps.r{}", r.rate), r.sustained_rps);
    }
    m.set("stream.credit_stalls", ph.counts.credit_stalls as f64);
    m.set("stream.depth_high_water", ph.counts.depth_high_water as f64);
    layers::set_counts(&mut m, &ph.counts);
    layers::set_cost(&mut m, &ph.cost, &t);
    m.set("loadgen.late_ms_p99", ms(&ph.late_ns, 0.99));
    m.set(
        "trace.overhead_frac",
        ph.window_median(0.50) / plain_ph.window_median(0.50) - 1.0,
    );
    checks.absorb(plain_ph.checks);
    checks.absorb(ladder_checks);
    checks.absorb(ph.checks);
    Report {
        checks,
        metrics: m,
        trace: Some(t),
    }
}
