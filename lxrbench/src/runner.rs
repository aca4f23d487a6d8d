//! The workload runner: builds the runtime and the pre-run live set, runs
//! the measured phase on the workload's threads, checks the outputs, and
//! turns what it saw into metrics.
//!
//! Every thread follows the same stages: build its share of the live set
//! (set-up), wait for the start, run the measured phase, cross-check its
//! model of the live graph against a heap walk, and wait while the main
//! thread forces a collection and runs the heap verifier.  A thread that
//! panics (the runtime's out-of-memory panic) is caught where it happened:
//! its mutator is dropped, its completed operations are kept, and its
//! remaining operations are counted as failed.
//!
//! The end-to-end figures cover the whole measured phase.  The host's
//! steal time (CPU its hypervisor gave to other tenants) is reported beside
//! them to flag a noisy run; it never selects parts of a run.

use crate::host;
use crate::stats::{median, median_percentile, percentile, Histogram};
use crate::trace::{self, BatchTotals, Layer, Recorder, Span};
use lxr_baselines::plan_registry;
use lxr_runtime::{
    GcReason, GcStats, Mutator, PauseRecord, Runtime, RuntimeOptions, StatsSnapshot, WorkCounter,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The fixed load and configuration of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Mutator (request or transaction) threads.
    pub threads: usize,
    /// The smallest heap, in MiB, in which the `g1` baseline completes the
    /// workload (the paper's definition of minimum heap).
    pub min_heap_mb: usize,
    /// Whether threads bracket requests for the runtime's pause gate.
    pub pause_gate: bool,
    /// Traced runs store the spans of every this-many-th operation.
    pub span_every: u64,
}

/// Heap size as a multiple of the workload's minimum heap, as in the paper.
pub const HEAP_FACTOR: f64 = 2.0;
/// Parallel stop-the-world GC workers (the host has two CPUs; the runtime
/// default of one per CPU up to eight, plus a crew, oversubscribes it).
pub const GC_WORKERS: usize = 2;
/// Concurrent collector crew size.
pub const CREW: usize = 1;
/// Unmeasured running time before the measured phase, so that the heap
/// reaches its steady state and the runtime's predictors warm up.
pub const WARMUP: Duration = Duration::from_secs(2);
/// The measured phase is cut into windows of this length by when each
/// operation was due, and a latency percentile is reported as its median
/// over the windows: a burst of host noise that stretches the pauses of
/// one window moves the result much less than it moves the whole run's
/// percentile.
pub const WINDOW: Duration = Duration::from_secs(5);

/// Latency windows of a measured phase lasting `seconds` (the last may be
/// shorter).
pub fn window_count(seconds: f64) -> usize {
    (seconds / WINDOW.as_secs_f64()).ceil().max(1.0) as usize
}

/// One workload: its inputs, its live set, its measured loop and its
/// output check.
pub trait Workload: Send + Sync + 'static {
    /// Inputs generated from the seed before the measured phase.
    type Inputs: Send + Sync + 'static;
    /// One thread's state: root slots and the scalar model of its share of
    /// the live graph.
    type Thread: Send + 'static;

    /// The load and configuration.
    fn spec(&self) -> Spec;
    /// Generates every input of a run lasting `seconds` (warm-up included)
    /// from `seed`.
    fn generate(&self, seed: u64, seconds: f64) -> Self::Inputs;
    /// Fingerprint of the inputs.
    fn digest(&self, inputs: &Self::Inputs) -> u64;
    /// An open loop's arrival offsets from the start, in nanoseconds
    /// (closed loops: `None`).
    fn schedule<'a>(&self, inputs: &'a Self::Inputs) -> Option<&'a [u64]>;
    /// Builds thread `thread`'s share of the pre-run live set.
    fn build(&self, m: &mut Mutator, inputs: &Self::Inputs, thread: usize) -> Self::Thread;
    /// The measured phase of one thread.
    fn run(&self, m: &mut Mutator, ctx: &mut ThreadCtx<'_>, state: &mut Self::Thread, inputs: &Self::Inputs);
    /// Walks the thread's share of the heap and compares it with the model.
    fn check(&self, m: &mut Mutator, state: &Self::Thread) -> Result<(), String>;
}

/// How one run is configured beyond the workload's own spec.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Collector name for `plan_registry`.
    pub collector: String,
    /// Heap size override in MiB (calibration and tests); `None` uses
    /// [`HEAP_FACTOR`] times the minimum heap.
    pub heap_mb: Option<f64>,
    /// Length of the measured phase (after [`WARMUP`]).
    pub seconds: f64,
    /// Whether spans are recorded.
    pub trace: bool,
    /// How many times set-up runs; the last one is measured.
    pub setup_reps: usize,
}

impl RunParams {
    /// The heap size in bytes for `spec`.
    pub fn heap_bytes(&self, spec: &Spec) -> usize {
        let mb = self.heap_mb.unwrap_or(spec.min_heap_mb as f64 * HEAP_FACTOR);
        (mb * (1 << 20) as f64) as usize
    }
}

/// One completed operation: intended start, dispatch and end, in
/// nanoseconds since the measured phase began (after the warm-up).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the operation was due (open loop: its scheduled arrival).
    pub due_ns: u64,
    /// When a thread began serving it.
    pub dispatch_ns: u64,
    /// When it completed.
    pub end_ns: u64,
}

impl Sample {
    /// Latency from the intended start.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }
}

/// What a workload thread sees of the runner during the measured phase.
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    /// The runtime under test.
    pub rt: &'a Runtime,
    /// The span recorder (inert in untraced runs).
    pub rec: Recorder,
    /// This thread's index.
    pub thread: usize,
    /// The start of the run: the open loop's schedule counts from here.
    pub start: Instant,
    /// The end of the warm-up: operations due earlier are not measured.
    pub origin: Instant,
    /// The end of the measured phase, where closed loops stop.
    pub deadline: Instant,
    /// The open loop's shared next-request counter.
    pub next: &'a AtomicUsize,
    /// Latency from the intended start of every measured operation, one
    /// histogram per [`WINDOW`].
    latency: Vec<Histogram>,
    /// Every measured operation, kept only in traced runs (the per-layer
    /// metrics split latencies into queueing and service).
    samples: Vec<Sample>,
}

impl ThreadCtx<'_> {
    /// A run-unique id for this thread's `seq`-th transaction.
    pub fn txn_id(&self, seq: u64) -> u64 {
        (self.thread as u64) << 40 | seq
    }

    /// Records one completed operation (unless it was due during the
    /// warm-up).
    #[inline]
    pub fn complete(&mut self, id: u64, due: Instant, dispatch: Instant, end: Instant) {
        if due < self.origin {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let sample = Sample { due_ns: ns(due), dispatch_ns: ns(dispatch), end_ns: ns(end) };
        let window = ((sample.due_ns / WINDOW.as_nanos() as u64) as usize).min(self.latency.len() - 1);
        self.latency[window].record(sample.latency_ns());
        if self.rec.on() {
            self.samples.push(sample);
            self.rec.record(Layer::Request, id, dispatch, end);
        }
    }
}

/// Stage barrier between the main thread and the workload threads.  Unlike
/// `std::sync::Barrier` it tolerates threads that died: they arrive at
/// every remaining stage on their way out.
#[derive(Debug, Default)]
struct Stages {
    state: Mutex<StageState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct StageState {
    arrived: [usize; 3],
    start: Option<Option<Instant>>,
    released: bool,
}

const READY: usize = 0;
const DONE: usize = 1;
const CHECKED: usize = 2;

impl Stages {
    fn lock(&self) -> std::sync::MutexGuard<'_, StageState> {
        self.state.lock().expect("stage lock poisoned by a panicking thread")
    }

    fn arrive(&self, stage: usize) {
        self.lock().arrived[stage] += 1;
        self.cv.notify_all();
    }

    fn wait_arrived(&self, stage: usize, n: usize) {
        let mut s = self.lock();
        while s.arrived[stage] < n {
            s = self.cv.wait(s).expect("stage lock poisoned");
        }
    }

    /// Starts the measured phase at `at`, or cancels it with `None`.
    fn start(&self, at: Option<Instant>) {
        self.lock().start = Some(at);
        self.cv.notify_all();
    }

    fn wait_start(&self) -> Option<Instant> {
        let mut s = self.lock();
        loop {
            if let Some(at) = s.start {
                return at;
            }
            s = self.cv.wait(s).expect("stage lock poisoned");
        }
    }

    fn release(&self) {
        self.lock().released = true;
        self.cv.notify_all();
    }

    fn wait_release(&self) {
        let mut s = self.lock();
        while !s.released {
            s = self.cv.wait(s).expect("stage lock poisoned");
        }
    }
}

/// What one thread reports back.
#[derive(Debug)]
struct ThreadOut {
    latency: Option<Vec<Histogram>>,
    samples: Vec<Sample>,
    rec: Option<Recorder>,
    /// When the thread died, measured from the end of the warm-up
    /// (`Some(0)` if it died earlier).
    died_at: Option<Duration>,
    check: Result<(), String>,
}

fn worker<W: Workload>(
    w: Arc<W>,
    inputs: Arc<W::Inputs>,
    rt: Runtime,
    stages: Arc<Stages>,
    next: Arc<AtomicUsize>,
    thread: usize,
    params: RunParams,
) -> ThreadOut {
    let mut out = ThreadOut { latency: None, samples: Vec::new(), rec: None, died_at: None, check: Ok(()) };
    let mut m = Some(rt.bind_mutator());
    let mut state =
        catch_unwind(AssertUnwindSafe(|| w.build(m.as_mut().expect("bound above"), &inputs, thread))).ok();
    if state.is_none() {
        m = None;
        out.died_at = Some(Duration::ZERO);
    }
    stages.arrive(READY);
    let start = match m.as_mut() {
        Some(mutator) => mutator.blocked(|| stages.wait_start()),
        None => stages.wait_start(),
    };
    let Some(start) = start else {
        // A discarded set-up repetition.
        stages.arrive(DONE);
        stages.arrive(CHECKED);
        return out;
    };

    let origin = start + WARMUP;
    let deadline = origin + Duration::from_secs_f64(params.seconds);
    let mut ctx = ThreadCtx {
        rt: &rt,
        rec: Recorder::new(params.trace.then(|| rt.clone()), origin, w.spec().span_every),
        thread,
        start,
        origin,
        deadline,
        next: &next,
        latency: (0..window_count(params.seconds)).map(|_| Histogram::new()).collect(),
        samples: Vec::new(),
    };
    if let (Some(mutator), Some(st)) = (m.as_mut(), state.as_mut()) {
        if catch_unwind(AssertUnwindSafe(|| w.run(mutator, &mut ctx, st, &inputs))).is_err() {
            m = None;
            state = None;
            out.died_at = Some(origin.elapsed());
        }
    }
    stages.arrive(DONE);

    if let (Some(mutator), Some(st)) = (m.as_mut(), state.as_ref()) {
        out.check = catch_unwind(AssertUnwindSafe(|| w.check(mutator, st)))
            .unwrap_or_else(|_| Err(format!("thread {thread}: the heap walk panicked")));
    }
    let wait = || {
        stages.arrive(CHECKED);
        stages.wait_release();
    };
    match m.as_mut() {
        Some(mutator) => mutator.blocked(wait),
        None => wait(),
    }
    drop(state);
    drop(m);
    out.latency = Some(ctx.latency);
    out.samples = ctx.samples;
    out.rec = Some(ctx.rec);
    out
}

/// Everything one measured run produced.
#[derive(Debug)]
pub struct Measured {
    /// Set-up time of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every completed operation.
    pub latency: Histogram,
    /// The same latencies, one histogram per [`WINDOW`].
    pub windows: Vec<Histogram>,
    /// Completed operations, ascending by latency (traced runs only).
    pub samples: Vec<Sample>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Output-check failures.
    pub problems: Vec<String>,
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// Process CPU time over the measured phase, seconds.
    pub cpu_s: f64,
    /// Host CPU time stolen by other tenants over the measured phase,
    /// seconds.
    pub steal_s: f64,
    /// Peak resident memory of the measured phase, MiB.
    pub peak_rss_mb: f64,
    /// Statistics at the start and end of the measured phase.
    pub stats: (StatsSnapshot, StatsSnapshot),
    /// Pauses that began inside the measured phase.
    pub pauses: Vec<PauseRecord>,
    /// The pauses as merged intervals, nanoseconds since the warm-up ended.
    pub pause_intervals: Vec<(u64, u64)>,
    /// All spans (traced runs).
    pub spans: Vec<Span>,
    /// Merged clean allocation batches.
    pub alloc: BatchTotals,
    /// Merged clean `write_ref` batches.
    pub write_ref: BatchTotals,
    /// Fewest free blocks any thread saw between operations.
    pub free_blocks_min: usize,
    /// Mutator threads.
    pub threads: usize,
}

/// How long a run may take beyond its warm-up and measured phase (set-up,
/// the open loop's backlog, the output checks) before it counts as hung.
pub const RUN_SLACK: Duration = Duration::from_secs(30);

/// Runs [`run`] on a helper thread and waits at most `WARMUP + seconds +
/// RUN_SLACK` for it.  A run the runtime never lets finish (a collector
/// thread died, a pause never ended) fails all of its operations; its
/// threads are left behind and end with the process.
pub fn run_bounded<W: Workload>(w: &Arc<W>, inputs: &Arc<W::Inputs>, params: &RunParams) -> Measured {
    let limit = WARMUP + Duration::from_secs_f64(params.seconds) + RUN_SLACK;
    let (tx, rx) = std::sync::mpsc::channel();
    let (w2, inputs2, params2) = (w.clone(), inputs.clone(), params.clone());
    std::thread::spawn(move || {
        let _ = tx.send(run(&w2, &inputs2, &params2));
    });
    rx.recv_timeout(limit).unwrap_or_else(|e| {
        let warmup_ns = WARMUP.as_nanos() as u64;
        let attempted =
            w.schedule(inputs).map_or(1, |a| a.iter().filter(|&&at| at >= warmup_ns).count() as u64);
        let why = match e {
            std::sync::mpsc::RecvTimeoutError::Timeout => format!("the run did not finish within {limit:?}"),
            std::sync::mpsc::RecvTimeoutError::Disconnected => "the runner panicked".to_string(),
        };
        Measured::failed(attempted, why, params.seconds)
    })
}

/// Runs set-up `params.setup_reps` times and measures the last.
pub fn run<W: Workload>(w: &Arc<W>, inputs: &Arc<W::Inputs>, params: &RunParams) -> Measured {
    let spec = w.spec();
    let options = RuntimeOptions::default()
        .with_heap_size(params.heap_bytes(&spec))
        .with_gc_workers(GC_WORKERS)
        .with_concurrent_workers(CREW)
        .with_pause_gate(spec.pause_gate);
    let mut setup_s = Vec::new();
    for rep in 0..params.setup_reps.max(1) {
        let t0 = Instant::now();
        let rt = Runtime::with_factory(options.clone(), plan_registry(&params.collector));
        let stages = Arc::new(Stages::default());
        let next = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..spec.threads)
            .map(|t| {
                let (w, inputs, rt, stages, next, params) =
                    (w.clone(), inputs.clone(), rt.clone(), stages.clone(), next.clone(), params.clone());
                std::thread::Builder::new()
                    .name(format!("{}-{t}", spec.name))
                    .spawn(move || worker(w, inputs, rt, stages, next, t, params))
                    .expect("spawn a workload thread")
            })
            .collect();
        stages.wait_arrived(READY, spec.threads);
        // Settle the live set (promote it out of the nursery) so the first
        // measured pauses do not pay for set-up's allocation.
        rt.request_gc_and_wait();
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < params.setup_reps {
            stages.start(None);
            for h in handles {
                let _ = h.join();
            }
            rt.shutdown();
            continue;
        }
        return measure(w, inputs, rt, stages, handles, setup_s);
    }
    unreachable!("the last set-up repetition is always measured")
}

fn measure<W: Workload>(
    w: &Arc<W>,
    inputs: &Arc<W::Inputs>,
    rt: Runtime,
    stages: Arc<Stages>,
    handles: Vec<std::thread::JoinHandle<ThreadOut>>,
    setup_s: Vec<f64>,
) -> Measured {
    let threads = handles.len();
    let start = Instant::now();
    stages.start(Some(start));
    // The threads measure from `origin`, the end of the warm-up.
    let origin = start + WARMUP;
    std::thread::sleep(origin.saturating_duration_since(Instant::now()));
    let before = rt.stats().snapshot();
    let origin_ms = rt.elapsed_ms() - origin.elapsed().as_secs_f64() * 1e3;
    let (cpu0, steal0) = (host::cpu_seconds(), host::steal_seconds());
    // Set-up, the inputs and the warm-up are behind us: the peak from here
    // on is the measured phase's.
    host::reset_peak_rss();
    stages.wait_arrived(DONE, threads);
    // Read before the output checks and the merging of per-thread results.
    let peak_rss_mb = host::peak_rss_mb();
    let wall = origin.elapsed();
    let cpu_s = host::cpu_seconds() - cpu0;
    let steal_s = host::steal_seconds() - steal0;
    let end_ms = rt.elapsed_ms();
    let after = rt.stats().snapshot();

    stages.wait_arrived(CHECKED, threads);
    rt.request_gc_and_wait();
    // The verifier needs a quiescent heap: every mutator is blocked, so
    // once the crew has drained its lazy work nothing changes the heap.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while rt.plan().has_concurrent_work() && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = rt.verify_now();
    stages.release();
    let outs: Vec<Option<ThreadOut>> = handles.into_iter().map(|h| h.join().ok()).collect();
    rt.shutdown();

    let mut problems = Vec::new();
    if !report.ok() {
        problems.push(format!("heap verifier failed after the measured phase:\n{report}"));
    }
    let mut windows: Vec<Histogram> = Vec::new();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    let (mut alloc, mut write_ref) = (BatchTotals::default(), BatchTotals::default());
    let mut free_blocks_min = usize::MAX;
    // When each thread that died (or could not be joined) stopped, measured
    // from the end of the warm-up: its remaining operations fail.
    let mut deaths = Vec::new();
    for (t, out) in outs.into_iter().enumerate() {
        let Some(out) = out else {
            deaths.push(Duration::ZERO);
            problems.push(format!("thread {t} panicked outside the measured loop"));
            continue;
        };
        if let Err(e) = out.check {
            problems.push(e);
        }
        deaths.extend(out.died_at.map(|at| at.min(wall)));
        for (i, h) in out.latency.iter().flatten().enumerate() {
            if i == windows.len() {
                windows.push(Histogram::new());
            }
            windows[i].merge(h);
        }
        samples.extend(out.samples);
        if let Some(rec) = out.rec {
            spans.extend(rec.spans);
            alloc.merge(&rec.alloc);
            write_ref.merge(&rec.write_ref);
            free_blocks_min = free_blocks_min.min(rec.free_blocks_min);
        }
    }
    let mut latency = Histogram::new();
    windows.iter().for_each(|h| latency.merge(h));
    let completed = latency.count();
    let (attempted, failed) = match w.schedule(inputs) {
        Some(arrivals) => open_loop_failures(arrivals, completed, &deaths, threads),
        None => closed_loop_failures(completed, wall, &deaths, threads),
    };
    let correct = problems.is_empty();
    let failed = if correct { failed } else { attempted };
    samples.sort_unstable_by_key(Sample::latency_ns);

    let pauses: Vec<PauseRecord> =
        after.pauses.iter().filter(|p| p.start_ms >= origin_ms && p.start_ms <= end_ms).cloned().collect();
    let pause_intervals = trace::merge_intervals(
        pauses
            .iter()
            .map(|p| {
                let s = ((p.start_ms - origin_ms) * 1e6) as u64;
                (s, s + p.duration.as_nanos() as u64)
            })
            .collect(),
    );
    Measured {
        setup_s,
        latency,
        windows,
        samples,
        attempted: attempted.max(1),
        failed,
        correct,
        problems,
        wall,
        cpu_s,
        steal_s,
        peak_rss_mb,
        stats: (before, after),
        pauses,
        pause_intervals,
        spans,
        alloc,
        write_ref,
        free_blocks_min: if free_blocks_min == usize::MAX { 0 } else { free_blocks_min },
        threads,
    }
}

/// Attempted and failed operations of an open loop, given the arrival
/// offsets of its schedule (nanoseconds from the start, warm-up included),
/// the operations completed in the measured phase, and when each thread
/// that died stopped (from the end of the warm-up).
///
/// Every thread owes an equal share of the schedule.  A thread that dies
/// fails its share of the arrivals after its death even when the others
/// take them from the shared queue, so a survivor is credited with at most
/// the living threads' share.
pub fn open_loop_failures(
    arrivals: &[u64],
    completed: u64,
    deaths: &[Duration],
    threads: usize,
) -> (u64, u64) {
    let warmup_ns = WARMUP.as_nanos() as u64;
    let measured = &arrivals[arrivals.partition_point(|&at| at < warmup_ns)..];
    let scheduled = measured.len() as u64;
    let owed: f64 = deaths
        .iter()
        .map(|d| {
            let after = measured.len() - measured.partition_point(|&at| at < warmup_ns + d.as_nanos() as u64);
            after as f64 / threads.max(1) as f64
        })
        .sum();
    let unserved = scheduled.saturating_sub(completed);
    (scheduled, unserved.max(owed.ceil() as u64).min(scheduled))
}

/// Attempted and failed operations of a closed loop that ran for `wall`:
/// a thread that died would have kept going at the run's per-thread
/// completion rate, and fails at least one operation.
pub fn closed_loop_failures(
    completed: u64,
    wall: Duration,
    deaths: &[Duration],
    threads: usize,
) -> (u64, u64) {
    let alive: f64 =
        threads as f64 * wall.as_secs_f64() - deaths.iter().map(|d| (wall - *d).as_secs_f64()).sum::<f64>();
    let rate = if alive <= 0.0 { 0.0 } else { completed as f64 / alive };
    let failed: u64 = deaths.iter().map(|d| ((rate * (wall - *d).as_secs_f64()).round() as u64).max(1)).sum();
    (completed + failed, failed)
}

/// A metric's name, unit and value.
pub type Metric = (&'static str, &'static str, f64);

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Measured {
    /// A run that produced nothing: every operation failed.
    fn failed(attempted: u64, why: String, seconds: f64) -> Measured {
        let empty = GcStats::new().snapshot();
        Measured {
            setup_s: Vec::new(),
            latency: Histogram::new(),
            windows: Vec::new(),
            samples: Vec::new(),
            attempted: attempted.max(1),
            failed: attempted.max(1),
            correct: false,
            problems: vec![why],
            wall: Duration::from_secs_f64(seconds),
            cpu_s: 0.0,
            steal_s: 0.0,
            peak_rss_mb: 0.0,
            stats: (empty.clone(), empty),
            pauses: Vec::new(),
            pause_intervals: Vec::new(),
            spans: Vec::new(),
            alloc: BatchTotals::default(),
            write_ref: BatchTotals::default(),
            free_blocks_min: 0,
            threads: 0,
        }
    }

    /// The latency percentile `pct` of the whole run in milliseconds.
    pub fn latency_ms(&self, pct: f64) -> f64 {
        self.latency.percentile(pct) / 1e6
    }

    /// The median over the [`WINDOW`]s of their latency percentile `pct`,
    /// in milliseconds.
    pub fn window_latency_ms(&self, pct: f64) -> f64 {
        median_percentile(&self.windows, pct) / 1e6
    }

    /// Completed operations per second of the measured phase.
    pub fn ops_per_s(&self) -> f64 {
        self.latency.count() as f64 / self.wall.as_secs_f64()
    }

    /// CPU time the host lost to other tenants during the measured phase,
    /// relative to the CPU time this process used.  Steal builds up only
    /// while a CPU has work, so relating it to the process's own use keeps
    /// a run that needs more CPU from counting as noisier.
    pub fn steal_ratio(&self) -> f64 {
        self.steal_s / self.cpu_s.max(1e-3)
    }

    /// The end-to-end metrics.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ops = self.latency.count() as f64;
        vec![
            ("setup_s", "s", median(&self.setup_s)),
            ("p50_ms", "ms", self.window_latency_ms(50.0)),
            ("p99_ms", "ms", self.window_latency_ms(99.0)),
            ("ops_per_s", "1/s", self.ops_per_s()),
            ("cpu_us_per_op", "us", self.cpu_s * 1e6 / ops.max(1.0)),
            ("peak_rss_mb", "MiB", self.peak_rss_mb),
            ("completed_frac", "ratio", 1.0 - self.failed as f64 / self.attempted as f64),
        ]
    }

    fn counter(&self, c: WorkCounter) -> f64 {
        (self.stats.1.counter(c) - self.stats.0.counter(c)) as f64
    }

    /// The per-layer metrics (meaningful for traced runs).
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut durations: Vec<u64> = self.pauses.iter().map(|p| p.duration.as_nanos() as u64).collect();
        durations.sort_unstable();
        let mut ttsp: Vec<u64> = self.pauses.iter().map(|p| p.time_to_stop.as_nanos() as u64).collect();
        ttsp.sort_unstable();
        let n_pauses = self.pauses.len().max(1) as f64;
        let share = |pred: &dyn Fn(&PauseRecord) -> bool| {
            self.pauses.iter().filter(|p| pred(p)).count() as f64 / n_pauses
        };
        let stall = self.stats.1.alloc_stall_time.saturating_sub(self.stats.0.alloc_stall_time);
        let busy = self.stats.1.concurrent_gc_time.saturating_sub(self.stats.0.concurrent_gc_time);
        let pops = self.counter(WorkCounter::SchedPops);

        let mut queue: Vec<u64> = self.samples.iter().map(|s| s.dispatch_ns - s.due_ns).collect();
        queue.sort_unstable();
        let mut service: Vec<u64> = self.samples.iter().map(|s| s.end_ns - s.dispatch_ns).collect();
        service.sort_unstable();
        let latencies: Vec<u64> = self.samples.iter().map(Sample::latency_ns).collect();
        let p99 = percentile(&latencies, 99.0);
        let tail: Vec<&Sample> = self.samples.iter().filter(|s| s.latency_ns() >= p99).collect();
        let tail_in_pause =
            tail.iter().filter(|s| trace::overlaps(&self.pause_intervals, s.due_ns, s.end_ns)).count() as f64
                / tail.len().max(1) as f64;

        vec![
            ("runtime.mutator.alloc_ns", "ns", self.alloc.per_item_ns()),
            ("barrier.write_ref_ns", "ns", self.write_ref.per_item_ns()),
            (
                "runtime.mutator.stall_frac",
                "ratio",
                stall.as_secs_f64() / (self.threads as f64 * self.wall.as_secs_f64()),
            ),
            ("runtime.rendezvous.ttsp_ms_p99", "ms", ms(percentile(&ttsp, 99.0))),
            ("core.pause.count", "count", self.pauses.len() as f64),
            ("core.pause.ms_p50", "ms", ms(percentile(&durations, 50.0))),
            ("core.pause.ms_p99", "ms", ms(percentile(&durations, 99.0))),
            ("core.pause.ms_max", "ms", ms(durations.last().copied().unwrap_or(0))),
            ("core.pause.stw_s", "s", durations.iter().sum::<u64>() as f64 / 1e9),
            ("core.pause.exhausted_frac", "ratio", share(&|p| p.reason == GcReason::Exhausted)),
            ("rc.increments", "count", self.counter(WorkCounter::IncrementsApplied)),
            ("rc.decrements", "count", self.counter(WorkCounter::DecrementsApplied)),
            ("rc.deaths", "count", self.counter(WorkCounter::RcDeaths)),
            ("core.evac.words_copied", "count", self.counter(WorkCounter::WordsCopied)),
            (
                "runtime.workers.steals_per_pop",
                "ratio",
                if pops == 0.0 { 0.0 } else { self.counter(WorkCounter::SchedSteals) / pops },
            ),
            ("runtime.workers.parks", "count", self.counter(WorkCounter::SchedParks)),
            ("core.concurrent.busy_s", "s", busy.as_secs_f64()),
            ("core.concurrent.lazy_incomplete_frac", "ratio", share(&|p| p.lazy_incomplete)),
            (
                "core.satb.traces",
                "count",
                self.counter(WorkCounter::FullTraces) + self.counter(WorkCounter::StickyTraces),
            ),
            ("core.satb.deaths", "count", self.counter(WorkCounter::SatbDeaths)),
            ("runtime.pausegate.deferred", "count", self.counter(WorkCounter::GateDeferredTriggers)),
            ("runtime.pausegate.boundary_pauses", "count", self.counter(WorkCounter::GateBoundaryPauses)),
            ("runtime.pausegate.kicks", "count", self.counter(WorkCounter::GateKicks)),
            ("heap.blocks_recycled", "count", self.counter(WorkCounter::BlocksRecycled)),
            ("heap.young_blocks_freed", "count", self.counter(WorkCounter::YoungBlocksFreed)),
            ("heap.mature_blocks_freed", "count", self.counter(WorkCounter::MatureBlocksFreed)),
            ("heap.free_blocks_min", "count", self.free_blocks_min as f64),
            ("driver.queue_wait_ms_p99", "ms", ms(percentile(&queue, 99.0))),
            ("driver.service_ms_p50", "ms", ms(percentile(&service, 50.0))),
            ("driver.tail_in_pause_frac", "ratio", tail_in_pause),
        ]
    }
}
