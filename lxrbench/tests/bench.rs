//! Tests of the benchmark itself: percentile extraction, failure
//! accounting on a heap too small to finish and for a worker that dies
//! mid-run, and input replay.

use lxr_runtime::Mutator;
use lxrbench::runner::{self, open_loop_failures, RunParams, ThreadCtx, Workload, WARMUP};
use lxrbench::serve::{self, Serve};
use lxrbench::stats::{percentile, samples_beyond, tail_percentile};
use lxrbench::{input_digest, run, Options, WORKLOADS};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None, "the median has only 9 samples beyond it");
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(250_000), Some(99.99));
    for n in [21, 100, 1_000, 12_345, 250_000] {
        let p = tail_percentile(n).unwrap();
        assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
    }
}

#[test]
fn percentile_uses_nearest_rank() {
    let sorted: Vec<u64> = (1..=1_000).collect();
    assert_eq!(percentile(&sorted, 50.0), 500);
    assert_eq!(percentile(&sorted, 99.0), 990);
    assert_eq!(percentile(&sorted, 99.9), 999);
    assert_eq!(samples_beyond(1_000, 99.0), 10);
}

#[test]
fn input_digest_replays_per_seed_and_changes_across_seeds() {
    for &w in WORKLOADS {
        let a = input_digest(w, 7, 1.0).unwrap();
        assert_eq!(a, input_digest(w, 7, 1.0).unwrap(), "{w}: the same seed must replay the same inputs");
        assert_ne!(a, input_digest(w, 8, 1.0).unwrap(), "{w}: another seed must change the inputs");
    }
    assert_eq!(input_digest("nope", 1, 1.0), None);
}

#[test]
fn a_heap_too_small_to_finish_reports_failures_and_every_metric() {
    let opts = Options {
        workload: "serve".into(),
        seed: 3,
        seconds: 1.0,
        trace: false,
        collector: "lxr".into(),
        heap_mb: Some(14.0),
        spans_path: None,
    };
    let outcome = run(&opts).expect("serve is a workload");
    assert!(outcome.attempted >= outcome.failed);
    assert!(outcome.failed > 0, "a 14 MiB heap cannot hold serve's live set: {outcome:?}");
    let completed = outcome.metric("completed_frac").unwrap();
    assert!(completed < 1.0, "completed_frac {completed} must show the failures");
    for name in ["setup_s", "p50_ms", "p99_ms", "ops_per_s", "cpu_us_per_op", "peak_rss_mb", "completed_frac"]
    {
        assert!(outcome.metric(name).is_some(), "{name} missing from {}", outcome.json());
    }
    let json = outcome.json();
    assert!(json.starts_with("{\"correct\": ") && json.contains("\"failed\": "), "{json}");
}

#[test]
fn a_dead_open_loop_thread_fails_its_share_of_the_rest_of_the_schedule() {
    let warmup = WARMUP.as_nanos() as u64;
    // 1 000 arrivals, one per millisecond of a 1 s measured phase.
    let arrivals: Vec<u64> = (0..1_000u64).map(|i| warmup + i * 1_000_000).collect();
    let half = [Duration::from_millis(500)];
    assert_eq!(open_loop_failures(&arrivals, 1_000, &[], 2), (1_000, 0));
    assert_eq!(open_loop_failures(&arrivals, 990, &[], 2), (1_000, 10));
    // The survivor served everything; the dead thread still owes half of
    // the 500 arrivals after its death.
    assert_eq!(open_loop_failures(&arrivals, 1_000, &half, 2), (1_000, 250));
    // More went unserved than the dead thread owed.
    assert_eq!(open_loop_failures(&arrivals, 600, &half, 2), (1_000, 400));
    // Both died during set-up.
    assert_eq!(open_loop_failures(&arrivals, 0, &[Duration::ZERO; 2], 2), (1_000, 1_000));
}

/// `serve`, except that request thread 1 stops serving and dies half way
/// through the measured phase, as if it had run out of memory.
struct ServeLosingAThread;

const DEATH: Duration = Duration::from_millis(500);

impl Workload for ServeLosingAThread {
    type Inputs = serve::Inputs;
    type Thread = serve::Table;

    fn spec(&self) -> runner::Spec {
        Serve.spec()
    }
    fn generate(&self, seed: u64, seconds: f64) -> serve::Inputs {
        Serve.generate(seed, seconds)
    }
    fn digest(&self, inputs: &serve::Inputs) -> u64 {
        Serve.digest(inputs)
    }
    fn schedule<'a>(&self, inputs: &'a serve::Inputs) -> Option<&'a [u64]> {
        Serve.schedule(inputs)
    }
    fn build(&self, m: &mut Mutator, inputs: &serve::Inputs, thread: usize) -> serve::Table {
        Serve.build(m, inputs, thread)
    }
    fn run(
        &self,
        m: &mut Mutator,
        ctx: &mut ThreadCtx<'_>,
        table: &mut serve::Table,
        inputs: &serve::Inputs,
    ) {
        if ctx.thread == 1 {
            m.idle_until(ctx.origin + DEATH);
            panic!("simulated out-of-memory panic in request thread 1");
        }
        Serve.run(m, ctx, table, inputs)
    }
    fn check(&self, m: &mut Mutator, table: &serve::Table) -> Result<(), String> {
        Serve.check(m, table)
    }
}

#[test]
fn a_serve_thread_dying_mid_run_fails_its_share_of_the_remaining_requests() {
    let w = Arc::new(ServeLosingAThread);
    let seconds = 1.0;
    let inputs = Arc::new(w.generate(5, WARMUP.as_secs_f64() + seconds));
    let params = RunParams { collector: "lxr".into(), heap_mb: None, seconds, trace: false, setup_reps: 1 };
    let m = runner::run(&w, &inputs, &params);
    assert!(m.correct, "the surviving thread's checks and the verifier pass: {:?}", m.problems);
    // The runner notes the death once the panic has unwound (printing a
    // backtrace may take a while), so allow it a quarter second.
    let after_death = WARMUP + DEATH + Duration::from_millis(250);
    let owed =
        inputs.arrivals_ns.iter().filter(|&&at| at >= after_death.as_nanos() as u64).count() as u64 / 2;
    assert!(m.failed >= owed, "failed {} < owed {owed}", m.failed);
    let completed = m.end_to_end().iter().find(|e| e.0 == "completed_frac").unwrap().2;
    // The benchmark's bound on `completed_frac` is 0.01; losing a thread
    // for half the run must show far beyond it.
    assert!(completed < 0.9, "completed_frac {completed} hides the dead thread");
}
