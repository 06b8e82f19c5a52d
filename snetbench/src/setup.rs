//! Building a workload's net from source text, one layer call at a
//! time, exactly as `NetBuilder::build` does it with no option set:
//! parse (`snet-lang`), type inference (`Program::env`), plan
//! compilation with the default fusion pass, and instantiation on the
//! default executor with the process-default run configuration.

use crate::stats::median;
use crate::trace;
use snet_lang::parse_program;
use snet_runtime::plan::{compile_cfg, fuse_default, Bindings};
use snet_runtime::sched::default_executor;
use snet_runtime::{Net, RunCfg, Service};
use std::time::Duration;

/// Time spent in each setup layer by one build.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub parse: Duration,
    pub typecheck: Duration,
    pub compile: Duration,
    pub spawn: Duration,
    /// `Service::start`; zero for a plain net.
    pub start: Duration,
    /// Components spawned when the net was instantiated.
    pub components: usize,
}

/// Builds the program's `net main` and spawns it.
pub fn build_net(src: &str, bindings: &Bindings) -> (Net, SetupTimes) {
    let (program, parse) = trace::span("snet-lang.parse", 0, -1, || parse_program(src));
    let program = program.expect("benchmark net parses");
    let (env, typecheck) = trace::span("snet-lang.typecheck", 0, -1, || program.env());
    let env = env.expect("benchmark net type-checks");
    let body = &program
        .net("main")
        .expect("benchmark declares net main")
        .body;
    let (plan, compile) = trace::span("plan.compile", 0, -1, || {
        compile_cfg(body, &env, bindings, fuse_default())
    });
    let plan = plan.expect("benchmark net compiles");
    let (net, spawn) = trace::span("instantiate.spawn", 0, -1, || {
        Net::spawn_cfg(plan, Vec::new(), default_executor(), RunCfg::from_env())
    });
    let components = net.threads_spawned();
    let layers = SetupTimes {
        parse,
        typecheck,
        compile,
        spawn,
        start: Duration::ZERO,
        components,
    };
    (net, layers)
}

/// [`build_net`] plus `Service::start`.
pub fn build_service(src: &str, bindings: &Bindings) -> (Service, SetupTimes) {
    let (net, mut layers) = build_net(src, bindings);
    let (svc, start) = trace::span("serve.start", 0, -1, || Service::start(net));
    layers.start = start;
    (svc, layers)
}

/// Medians over repeated warm builds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupStats {
    /// Source text to a ready net (or service), seconds.
    pub total_s: f64,
    pub parse_s: f64,
    pub typecheck_s: f64,
    pub compile_s: f64,
    pub spawn_s: f64,
    pub start_s: f64,
    pub components: usize,
}

/// Warm builds per run; their median is `setup_s`.
const BUILDS: usize = 101;

/// Builds `BUILDS` times after one cold build, tearing each down
/// outside the timed window, and returns the medians.
pub fn measure<T>(build: impl Fn() -> (T, SetupTimes), teardown: impl Fn(T)) -> SetupStats {
    let (cold, _) = build();
    teardown(cold);
    let mut total = Vec::with_capacity(BUILDS);
    let mut layers = Vec::with_capacity(BUILDS);
    for _ in 0..BUILDS {
        let (built, took) = trace::span("setup", 0, -1, &build);
        let (value, l) = built;
        total.push(took.as_secs_f64());
        layers.push(l);
        teardown(value);
    }
    let med = |f: fn(&SetupTimes) -> Duration| {
        median(
            &layers
                .iter()
                .map(|l| f(l).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    SetupStats {
        total_s: median(&total),
        parse_s: med(|l| l.parse),
        typecheck_s: med(|l| l.typecheck),
        compile_s: med(|l| l.compile),
        spawn_s: med(|l| l.spawn),
        start_s: med(|l| l.start),
        components: layers[0].components,
    }
}
