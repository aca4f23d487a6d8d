//! A layered benchmark for the `lxr` collector.
//!
//! Three seeded workloads (`serve`, `nursery`, `mature`) drive the runtime
//! only through its public API: `Runtime`, `Mutator` and `StatsSnapshot`
//! from `lxr-runtime`, and `lxr_baselines::plan_registry`.  An untraced run
//! prints the end-to-end metrics; a traced run wraps the benchmark's own
//! calls into the runtime in spans and prints the per-layer metrics.  See
//! `README.md` beside this crate for the workloads and the metric map.

pub mod host;
pub mod mature;
pub mod nursery;
pub mod rng;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod trace;

use runner::{Measured, Metric, RunParams, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Set-up repetitions of an untraced run (`setup_s` is their median).
pub const SETUP_REPS: usize = 7;

/// An untraced run that lost more CPU time to other tenants of the host
/// than this share of the CPU time it used itself is noisy: it is measured
/// once more, and the measurement that lost less is reported.  (A pause
/// waits for its slowest worker, so stolen CPU stretches pauses and the
/// latency tail far beyond its own share: on `serve`, runs with a steal
/// ratio above 0.01 had a 14% higher median p99 than those below.)  A failed measurement is never
/// measured again.
pub const STEAL_LIMIT: f64 = 0.02;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["serve", "nursery", "mature"];

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Collector name.
    pub collector: String,
    /// Heap size override in MiB.
    pub heap_mb: Option<f64>,
    /// Where a traced run writes its spans.
    pub spans_path: Option<PathBuf>,
}

/// What a run printed and decided.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Run description: configuration, inputs digest, host, revision.
    pub info: Vec<String>,
    /// Human-readable detail (self-time table, check failures).
    pub detail: String,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// The input digest of `workload` at `seed` (`None` for an unknown name).
pub fn input_digest(workload: &str, seed: u64, seconds: f64) -> Option<u64> {
    fn digest<W: Workload>(w: W, seed: u64, seconds: f64) -> u64 {
        w.digest(&w.generate(seed, runner::WARMUP.as_secs_f64() + seconds))
    }
    match workload {
        "serve" => Some(digest(serve::Serve, seed, seconds)),
        "nursery" => Some(digest(nursery::Nursery, seed, seconds)),
        "mature" => Some(digest(mature::Mature, seed, seconds)),
        _ => None,
    }
}

/// Runs the benchmark as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "serve" => Ok(run_workload(serve::Serve, opts)),
        "nursery" => Ok(run_workload(nursery::Nursery, opts)),
        "mature" => Ok(run_workload(mature::Mature, opts)),
        other => Err(format!("unknown workload `{other}` (expected one of {})", WORKLOADS.join(", "))),
    }
}

fn run_workload<W: Workload>(w: W, opts: &Options) -> Outcome {
    let spec = w.spec();
    let w = Arc::new(w);
    let inputs = Arc::new(w.generate(opts.seed, runner::WARMUP.as_secs_f64() + opts.seconds));
    let digest = w.digest(&inputs);
    let params = RunParams {
        collector: opts.collector.clone(),
        heap_mb: opts.heap_mb,
        seconds: opts.seconds,
        trace: false,
        setup_reps: if opts.trace { 1 } else { SETUP_REPS },
    };
    let (host, host_fp) = host::host_fingerprint();
    let mut info = vec![
        format!(
            "workload={} seed={} seconds={} warmup_s={} trace={} inputs_digest={digest:#018x}",
            spec.name,
            opts.seed,
            opts.seconds,
            runner::WARMUP.as_secs_f64(),
            opts.trace as u8
        ),
        format!(
            "collector={} heap_mb={:.1} heap_factor={} min_heap_mb={} threads={} gc_workers={} crew={} \
             pause_gate={}",
            opts.collector,
            params.heap_bytes(&spec) as f64 / (1 << 20) as f64,
            if opts.heap_mb.is_some() { "override".to_string() } else { runner::HEAP_FACTOR.to_string() },
            spec.min_heap_mb,
            spec.threads,
            runner::GC_WORKERS,
            runner::CREW,
            spec.pause_gate
        ),
        format!("host_fingerprint={host_fp:#018x} {host}"),
        format!("git_revision={}", host::git_revision().unwrap_or_else(|| "none".into())),
    ];
    let mut detail = String::new();

    let mut untraced = runner::run_bounded(&w, &inputs, &params);
    if !opts.trace && untraced.correct && untraced.steal_ratio() > STEAL_LIMIT {
        describe(&mut info, &mut detail, "noisy", &untraced);
        let again = runner::run_bounded(&w, &inputs, &params);
        if !again.correct || again.steal_ratio() < untraced.steal_ratio() {
            untraced = again;
        }
    }
    describe(&mut info, &mut detail, "untraced", &untraced);
    if !opts.trace {
        return Outcome {
            correct: untraced.correct,
            attempted: untraced.attempted,
            failed: untraced.failed,
            metrics: untraced.end_to_end(),
            info,
            detail,
        };
    }
    // After a failed run nothing more is measured (a hung runtime keeps
    // burning CPU); its own counters stand in for the traced run's.
    if !untraced.correct {
        let mut metrics = untraced.per_layer();
        metrics.push(("trace.overhead_frac", "ratio", 0.0));
        return Outcome {
            correct: false,
            attempted: untraced.attempted,
            failed: untraced.failed,
            metrics,
            info,
            detail,
        };
    }

    let traced = runner::run_bounded(&w, &inputs, &RunParams { trace: true, ..params });
    describe(&mut info, &mut detail, "traced", &traced);
    let _ = write!(
        detail,
        "self time per layer (traced run; spans of every {}. operation):\n{}",
        spec.span_every,
        trace::self_time_table(&traced.spans, &traced.pause_intervals)
    );
    if let Some(path) = &opts.spans_path {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(path, trace::spans_tsv(&traced.spans, &traced.pause_intervals)));
        match written {
            Ok(()) => info.push(format!("spans={}", path.display())),
            Err(e) => info.push(format!("spans_not_written=\"{e}\"")),
        }
    }
    // Tracing overhead on the workload's headline metric: serve's p99
    // latency (lower is better), the closed loops' throughput.
    let headline =
        |m: &Measured, name: &str| m.end_to_end().iter().find(|e| e.0 == name).map_or(0.0, |e| e.2);
    let overhead = if w.schedule(&inputs).is_some() {
        headline(&traced, "p99_ms") / headline(&untraced, "p99_ms") - 1.0
    } else {
        1.0 - headline(&traced, "ops_per_s") / headline(&untraced, "ops_per_s")
    };
    let mut metrics = traced.per_layer();
    metrics.push(("trace.overhead_frac", "ratio", overhead));
    Outcome {
        correct: untraced.correct && traced.correct,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        info,
        detail,
    }
}

fn describe(info: &mut Vec<String>, detail: &mut String, label: &str, m: &Measured) {
    let n = m.latency.count();
    let tail = stats::tail_percentile(n);
    let window_p99: Vec<String> =
        m.windows.iter().map(|h| format!("{:.4}", h.percentile(99.0) / 1e6)).collect();
    info.push(format!(
        "{label}: samples={n} attempted={} failed={} wall_s={:.3} cpu_s={:.2} steal_s={:.2} \
         steal_ratio={:.3} ops_per_s={:.1} pauses={} window_p99_ms={} run_p99_ms={:.4} run_p{}_ms={:.4}",
        m.attempted,
        m.failed,
        m.wall.as_secs_f64(),
        m.cpu_s,
        m.steal_s,
        m.steal_ratio(),
        m.ops_per_s(),
        m.pauses.len(),
        window_p99.join(","),
        m.latency_ms(99.0),
        tail.unwrap_or(0.0),
        tail.map_or(0.0, |p| m.latency_ms(p)),
    ));
    for p in &m.problems {
        let _ = writeln!(detail, "{label} check failed: {p}");
    }
    let mut longest: Vec<_> = m.pauses.iter().collect();
    longest.sort_by_key(|p| std::cmp::Reverse(p.duration));
    for p in longest.iter().take(3) {
        let _ = writeln!(
            detail,
            "{label} long pause: {:.3} ms ({}, {}, satb={}) at {:.1} ms",
            p.duration.as_secs_f64() * 1e3,
            p.kind,
            p.reason,
            p.started_satb,
            p.start_ms
        );
    }
}
