//! Spans recorded at the benchmark's own calls into the runtime.
//!
//! A traced run wraps the batches of calls a request or transaction issues
//! (one `Instant::now` costs tens of nanoseconds, as much as an
//! allocation, so single calls are not timed where a batch exists) in a
//! [`Span`] whose parent is the request or transaction that issued them.
//! Spans stay in memory until the run ends; then they are written out with
//! the run's pause intervals and summarised as a self-time table per layer.

use lxr_runtime::Runtime;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span's calls enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// One request or transaction of the load generator (the parent).
    Request,
    /// `Mutator::begin_request`.
    BeginRequest,
    /// `Mutator::end_request`.
    EndRequest,
    /// `Mutator::idle_until` (an open-loop arrival gap; parented to the
    /// request it waits for, outside that request's span).
    IdleUntil,
    /// A batch of `Mutator::alloc` calls with their payload stores.
    Alloc,
    /// A batch of `Mutator::write_ref` calls.
    WriteRef,
}

impl Layer {
    /// The layer's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "driver.request",
            Layer::BeginRequest => "runtime.pausegate.begin_request",
            Layer::EndRequest => "runtime.pausegate.end_request",
            Layer::IdleUntil => "runtime.pausegate.idle_until",
            Layer::Alloc => "runtime.mutator.alloc",
            Layer::WriteRef => "barrier.write_ref",
        }
    }

    const ALL: [Layer; 6] = [
        Layer::Request,
        Layer::BeginRequest,
        Layer::EndRequest,
        Layer::IdleUntil,
        Layer::Alloc,
        Layer::WriteRef,
    ];
}

/// One timed batch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, in nanoseconds since the measured phase began.
    pub start_ns: u64,
    /// Id of the request or transaction that issued the batch (unique per
    /// run: closed loops put the thread index above bit 40).
    pub parent: u64,
    /// Duration in nanoseconds (saturating at about four seconds).
    pub dur_ns: u32,
    /// Calls in the batch.
    pub items: u16,
    /// The layer entered.
    pub layer: Layer,
}

impl Span {
    fn new(layer: Layer, parent: u64, start_ns: u64, end_ns: u64, items: u32) -> Span {
        let dur_ns = (end_ns - start_ns).min(u32::MAX as u64) as u32;
        Span { start_ns, parent, dur_ns, items: items.min(u16::MAX as u32) as u16, layer }
    }

    /// End, in nanoseconds since the measured phase began.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns as u64
    }
}

/// Bits of a span parent id that number the transaction within its thread.
const SEQ_MASK: u64 = (1 << 40) - 1;

/// Time and calls over the batches that no pause completed during.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchTotals {
    /// Summed batch time.
    pub ns: u64,
    /// Summed calls.
    pub items: u64,
}

impl BatchTotals {
    /// Mean nanoseconds per call.
    pub fn per_item_ns(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }

    /// Adds another thread's totals.
    pub fn merge(&mut self, other: &BatchTotals) {
        self.ns += other.ns;
        self.items += other.items;
    }
}

/// A started span: when it began and how many pauses had completed then.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    at: Instant,
    pauses: usize,
}

/// One worker thread's span store. Disabled recorders do nothing, so the
/// untraced run pays one branch per batch.  Every batch counts towards the
/// per-call totals, but only the spans of every `keep_every`-th request or
/// transaction are stored, which bounds the memory a traced run holds.
#[derive(Debug)]
pub struct Recorder {
    /// The runtime whose pauses batches are checked against; `None` when
    /// recording is off.
    rt: Option<Runtime>,
    origin: Instant,
    keep_every: u64,
    /// The spans, in completion order.
    pub spans: Vec<Span>,
    /// Allocation batches that no pause completed during.
    pub alloc: BatchTotals,
    /// `write_ref` batches that no pause completed during.
    pub write_ref: BatchTotals,
    /// The fewest free blocks seen between operations.
    pub free_blocks_min: usize,
}

impl Recorder {
    /// A recorder timing against `origin` (the start of the measured
    /// phase, before which it ignores batches); records nothing unless given
    /// the runtime.
    pub fn new(rt: Option<Runtime>, origin: Instant, keep_every: u64) -> Recorder {
        Recorder {
            rt,
            origin,
            keep_every: keep_every.max(1),
            spans: Vec::new(),
            alloc: BatchTotals::default(),
            write_ref: BatchTotals::default(),
            free_blocks_min: usize::MAX,
        }
    }

    /// Whether this recorder records.
    #[inline]
    pub fn on(&self) -> bool {
        self.rt.is_some()
    }

    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder::new(None, Instant::now(), 1)
    }

    /// Opens a span.
    #[inline]
    pub fn open(&self) -> Option<Open> {
        // Count pauses before reading the clock so the lock stays outside
        // the span.
        self.rt.as_ref().map(|rt| {
            let pauses = rt.stats().pause_count();
            Open { at: Instant::now(), pauses }
        })
    }

    /// Closes a span opened by [`open`](Self::open) and records it.
    #[inline]
    pub fn close(&mut self, open: Option<Open>, layer: Layer, parent: u64, items: u32) {
        let (Some(open), Some(rt)) = (open, self.rt.as_ref()) else { return };
        let end = Instant::now();
        if open.at >= self.origin
            && matches!(layer, Layer::Alloc | Layer::WriteRef)
            && rt.stats().pause_count() == open.pauses
        {
            let totals = if layer == Layer::Alloc { &mut self.alloc } else { &mut self.write_ref };
            totals.ns += end.saturating_duration_since(open.at).as_nanos() as u64;
            totals.items += items as u64;
        }
        self.push(layer, parent, open.at, end, items);
    }

    fn push(&mut self, layer: Layer, parent: u64, start: Instant, end: Instant, items: u32) {
        if start >= self.origin && (parent & SEQ_MASK).is_multiple_of(self.keep_every) {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span::new(layer, parent, ns(start), ns(end), items));
        }
    }

    /// Records a whole span whose start was taken by the caller anyway
    /// (requests and transactions time themselves in every run).
    #[inline]
    pub fn record(&mut self, layer: Layer, parent: u64, start: Instant, end: Instant) {
        if self.on() {
            self.push(layer, parent, start, end, 1);
        }
    }

    /// Samples the free-block count between operations.
    #[inline]
    pub fn sample_free_blocks(&mut self) {
        if let Some(rt) = &self.rt {
            self.free_blocks_min = self.free_blocks_min.min(rt.blocks().free_block_count());
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the sorted, disjoint
/// `intervals`.
fn overlap_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let first = intervals.partition_point(|&(_, e)| e <= start);
    intervals[first..].iter().take_while(|&&(s, _)| s < end).map(|&(s, e)| e.min(end) - s.max(start)).sum()
}

/// Sorts and merges pause intervals into disjoint ones.
pub fn merge_intervals(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Whether `[start, end)` overlaps any of the merged `pauses`.
pub fn overlaps(pauses: &[(u64, u64)], start: u64, end: u64) -> bool {
    overlap_ns(pauses, start, end) > 0
}

/// The self-time table: per layer, spans, total time, self time (total
/// minus the child spans it contains) and time overlapping a pause.
pub fn self_time_table(spans: &[Span], pauses: &[(u64, u64)]) -> String {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| !matches!(s.layer, Layer::Request | Layer::IdleUntil)) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns as u64;
    }
    let mut rows: HashMap<Layer, (u64, u64, u64, u64)> = HashMap::new();
    for s in spans {
        let total = s.dur_ns as u64;
        let own = if s.layer == Layer::Request {
            total.saturating_sub(child_ns.get(&s.parent).copied().unwrap_or(0))
        } else {
            total
        };
        let row = rows.entry(s.layer).or_default();
        row.0 += 1;
        row.1 += total;
        row.2 += own;
        row.3 += overlap_ns(pauses, s.start_ns, s.end_ns());
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!(
        "{:<34} {:>10} {:>12} {:>12} {:>12}\n",
        "layer", "spans", "total_ms", "self_ms", "in_pause_ms"
    );
    for layer in Layer::ALL {
        if let Some(&(n, total, own, paused)) = rows.get(&layer) {
            let _ = writeln!(
                out,
                "{:<34} {:>10} {:>12.3} {:>12.3} {:>12.3}",
                layer.name(),
                n,
                ms(total),
                ms(own),
                ms(paused)
            );
        }
    }
    let pause_ns: u64 = pauses.iter().map(|(s, e)| e - s).sum();
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>12.3} {:>12.3} {:>12}",
        "core.pause",
        pauses.len(),
        ms(pause_ns),
        ms(pause_ns),
        "-"
    );
    out
}

/// The spans and pauses as tab-separated lines
/// (`layer parent start_ns end_ns items`).
pub fn spans_tsv(spans: &[Span], pauses: &[(u64, u64)]) -> String {
    let mut out = String::from("layer\tparent\tstart_ns\tend_ns\titems\n");
    for s in spans {
        let _ =
            writeln!(out, "{}\t{}\t{}\t{}\t{}", s.layer.name(), s.parent, s.start_ns, s.end_ns(), s.items);
    }
    for &(s, e) in pauses {
        let _ = writeln!(out, "core.pause\t0\t{s}\t{e}\t1");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_overlap_counts_covered_time_once() {
        let p = merge_intervals(vec![(50, 60), (10, 20), (15, 30)]);
        assert_eq!(p, vec![(10, 30), (50, 60)]);
        assert_eq!(overlap_ns(&p, 0, 100), 30);
        assert_eq!(overlap_ns(&p, 25, 55), 10);
        assert!(!overlaps(&p, 30, 50));
    }

    #[test]
    fn request_self_time_excludes_children() {
        let spans = [
            Span::new(Layer::Alloc, 1, 1_000_000, 4_000_000, 4),
            Span::new(Layer::Request, 1, 0, 10_000_000, 1),
        ];
        let table = self_time_table(&spans, &[(2_000_000, 3_000_000)]);
        let row = table.lines().find(|l| l.starts_with("driver.request")).unwrap();
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(&cols[2..], ["10.000", "7.000", "1.000"], "{table}");
    }
}
