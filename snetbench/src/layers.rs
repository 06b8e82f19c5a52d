//! Per-layer metrics every workload fills the same way: setup layers,
//! the counts the runtime keeps in `Net::metrics()`, and the CPU split
//! between box closures, the load generator and coordination.

use crate::setup::SetupStats;
use crate::trace::Trace;
use crate::{sys, Metrics, BOXES};
use snet_runtime::metrics::keys;
use std::time::Duration;

pub fn set_setup(m: &mut Metrics, s: &SetupStats) {
    m.set("snet-lang.parse_s", s.parse_s);
    m.set("snet-lang.typecheck_s", s.typecheck_s);
    m.set("plan.compile_s", s.compile_s);
    m.set("instantiate.spawn_s", s.spawn_s);
    m.set("serve.start_s", s.start_s);
    m.set("instantiate.components", s.components as f64);
}

/// Work counters of one net, read from its metrics registry. For the
/// same inputs they repeat exactly: a change that moves them changed
/// the work done, not its speed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub stages: u64,
    pub branches: u64,
    pub routed_left: u64,
    pub routed_right: u64,
    pub records_in: u64,
    pub interner_paths: u64,
    pub credit_stalls: u64,
    pub depth_high_water: u64,
}

impl Counts {
    pub fn of(m: &snet_runtime::Metrics) -> Counts {
        Counts {
            stages: m.sum_matching(&format!("/{}", keys::STAGES)),
            branches: m.sum_matching(&format!("/{}", keys::BRANCHES)),
            routed_left: m.sum_matching("/routed_left"),
            routed_right: m.sum_matching("/routed_right"),
            records_in: m.sum_matching(&format!("/{}", keys::RECORDS_IN)),
            interner_paths: m.get(keys::INTERNER_PATHS),
            credit_stalls: m.get(keys::CREDIT_STALLS_GLOBAL),
            depth_high_water: m.get(keys::STREAM_DEPTH_GLOBAL),
        }
    }
}

pub fn set_counts(m: &mut Metrics, c: &Counts) {
    m.set("star.stages", c.stages as f64);
    m.set("split.branches", c.branches as f64);
    m.set("parallel.routed_left", c.routed_left as f64);
    m.set("parallel.routed_right", c.routed_right as f64);
    m.set("runtime.records_in", c.records_in as f64);
    m.set("runtime.interner_paths", c.interner_paths as f64);
}

/// Resources one traced phase used.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Process CPU time and context switches over the phase.
    pub proc: sys::Usage,
    pub wall: Duration,
    /// CPU time of the benchmark's own generator and drain threads.
    pub harness_cpu: Duration,
    /// CPU time of sacarray's pool workers: with-loop chunks the boxes
    /// handed off, so it counts as box busy time.
    pub pool_cpu: Duration,
    /// Inputs completed.
    pub ops: u64,
    pub threads_peak: u64,
}

/// Largest share by which box busy time plus generator CPU may exceed
/// process CPU before the traced run's CPU split is reported as not
/// adding up. They are measured separately (per-call thread CPU
/// clocks, per-thread usage, whole-process usage at clock-tick
/// resolution for the pool workers), so they agree only within
/// measurement error.
const CPU_BALANCE_TOLERANCE: f64 = 0.05;

/// Fills the scheduler, box, coordination, SAC and process metrics.
pub fn set_cost(m: &mut Metrics, c: &Cost, t: &Trace) {
    let ops = c.ops.max(1) as f64;
    let proc_cpu = c.proc.cpu.as_secs_f64();
    m.set(
        "sched.cpu_util",
        proc_cpu / (c.wall.as_secs_f64() * sys::nproc() as f64),
    );
    m.set(
        "sched.ctx_switches_per_op",
        c.proc.ctx_switches as f64 / ops,
    );
    m.set("sched.threads_peak", c.threads_peak as f64);
    let mut busy_ns = 0;
    for name in BOXES {
        if let Some(b) = t.boxes.get(name) {
            busy_ns += b.busy_ns;
            m.set(&format!("boxfn.{name}.calls"), b.calls as f64);
            m.set(&format!("boxfn.{name}.busy_s"), b.busy_ns as f64 / 1e9);
            m.set(
                &format!("boxfn.{name}.us_p50"),
                b.hist.quantile(0.5) as f64 / 1e3,
            );
        }
    }
    let busy = busy_ns as f64 / 1e9 + c.pool_cpu.as_secs_f64();
    let harness = c.harness_cpu.as_secs_f64();
    m.set("boxfn.busy_share", busy / proc_cpu.max(1e-9));
    m.set(
        "snet-runtime.coord_cpu_us_per_op",
        (proc_cpu - busy - harness) * 1e6 / ops,
    );
    m.set("sacarray.withloop_calls", t.sac.calls as f64);
    m.set("sacarray.par_calls", t.sac.par_calls as f64);
    let sac_busy = t.sac.busy_ns as f64 / 1e9;
    m.set("sacarray.withloop_busy_s", sac_busy);
    m.set(
        "sacarray.melems_per_s",
        if sac_busy > 0.0 {
            t.sac.elems as f64 / 1e6 / sac_busy
        } else {
            0.0
        },
    );
    m.set("loadgen.cpu_s", harness);
    m.set("proc.cpu_ms_per_op", proc_cpu * 1e3 / ops);
    m.set("proc.rss_mb_end", sys::rss_mb());
    let balance = (busy + harness) / proc_cpu.max(1e-9);
    m.set("trace.cpu_balance", balance);
    if balance > 1.0 + CPU_BALANCE_TOLERANCE {
        eprintln!(
            "snetbench: CPU split does not add up: box busy {busy:.3} s + generator {harness:.3} s \
             > process CPU {proc_cpu:.3} s by more than {:.0} %",
            CPU_BALANCE_TOLERANCE * 100.0
        );
    }
}
