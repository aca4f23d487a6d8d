//! `nursery`: a closed loop of allocation bursts.
//!
//! Each transaction allocates a few bursts of small objects that die at
//! once.  The last object of every burst (about 1% of all objects) points
//! at one of the thread's static objects and is stored in the thread's
//! survivor ring, where it lives until the ring comes round again.  The
//! allocation fast path and young reclamation do almost all the work.
//!
//! `BENCHMARK.json` leaves this workload out while a collector defect fails
//! about one run in five (reachable objects with a zero reference count, or
//! collector threads panicking on a stale decrement); `README.md` has the
//! details.

use crate::rng::{Digest, Rng};
use crate::runner::{Spec, ThreadCtx, Workload};
use crate::trace::Layer;
use lxr_object::ObjectReference;
use lxr_runtime::{Mutator, RootSlot};
use std::time::Instant;

/// Bursts per transaction.
pub const BURSTS: usize = 4;
/// Objects per burst lie in `BURST_MIN..=BURST_MAX` (mean 96: about 1% of
/// objects survive into the ring).
const BURST_MIN: u64 = 64;
const BURST_MAX: u64 = 128;
/// Data words per burst object lie in `1..=MAX_PAYLOAD`.
const MAX_PAYLOAD: u64 = 6;
/// Survivor-ring slots per thread.
const RING: usize = 2048;
/// Static objects per thread, built during set-up and never changed.
const STATICS: usize = 16_384;
/// Data words per static object.
const STATIC_PAYLOAD: u16 = 6;
/// Length of the cyclic per-thread streams (powers of two).
const BURST_STREAM: usize = 1 << 14;
const SIZE_STREAM: usize = 1 << 20;

/// The workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Nursery;

/// One burst of the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Objects in the burst.
    pub count: u8,
    /// The static object the survivor points at.
    pub target: u16,
}

/// Per-thread operation streams, consumed cyclically.
#[derive(Debug)]
pub struct Inputs {
    /// Bursts, per thread.
    pub bursts: Vec<Vec<Burst>>,
    /// Payload sizes of successive burst objects, per thread.
    pub sizes: Vec<Vec<u8>>,
}

/// One thread's roots and model.
#[derive(Debug)]
pub struct State {
    statics: RootSlot,
    ring: RootSlot,
    stamp_base: u64,
    /// Per ring slot: the survivor's stamp (0 = empty) and its static target.
    ring_model: Vec<(u64, u16)>,
    next_slot: usize,
    burst: usize,
    size: usize,
    seq: u64,
}

impl State {
    fn static_stamp(&self, index: usize) -> u64 {
        self.stamp_base | index as u64
    }
}

impl Workload for Nursery {
    type Inputs = Inputs;
    type Thread = State;

    fn spec(&self) -> Spec {
        Spec { name: "nursery", threads: 2, min_heap_mb: 5, pause_gate: false, span_every: 4 }
    }

    fn generate(&self, seed: u64, _seconds: f64) -> Inputs {
        let threads = self.spec().threads as u64;
        let bursts = (0..threads)
            .map(|t| {
                let mut rng = Rng::new(seed, 200 + t);
                (0..BURST_STREAM)
                    .map(|_| Burst {
                        count: (BURST_MIN + rng.below(BURST_MAX - BURST_MIN + 1)) as u8,
                        target: rng.below(STATICS as u64) as u16,
                    })
                    .collect()
            })
            .collect();
        let sizes = (0..threads)
            .map(|t| {
                let mut rng = Rng::new(seed, 300 + t);
                (0..SIZE_STREAM).map(|_| 1 + rng.below(MAX_PAYLOAD) as u8).collect()
            })
            .collect();
        Inputs { bursts, sizes }
    }

    fn digest(&self, inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        for b in inputs.bursts.iter().flatten() {
            d.word((b.count as u64) << 16 | b.target as u64);
        }
        inputs.sizes.iter().for_each(|s| d.bytes(s));
        d.value()
    }

    fn schedule<'a>(&self, _inputs: &'a Inputs) -> Option<&'a [u64]> {
        None
    }

    fn build(&self, m: &mut Mutator, _inputs: &Inputs, thread: usize) -> State {
        let table = m.alloc(STATICS as u16, 0, 20);
        let statics = m.push_root(table);
        let ring = m.alloc(RING as u16, 0, 21);
        let ring = m.push_root(ring);
        let state = State {
            statics,
            ring,
            stamp_base: (thread as u64 + 1) << 48,
            ring_model: vec![(0, 0); RING],
            next_slot: 0,
            burst: 0,
            size: 0,
            seq: 0,
        };
        for i in 0..STATICS {
            let obj = m.alloc(0, STATIC_PAYLOAD, 22);
            m.write_data(obj, 0, state.static_stamp(i));
            let table = m.root(statics);
            m.write_ref(table, i, obj);
        }
        state
    }

    fn run(&self, m: &mut Mutator, ctx: &mut ThreadCtx<'_>, st: &mut State, inputs: &Inputs) {
        let (bursts, sizes) = (&inputs.bursts[ctx.thread], &inputs.sizes[ctx.thread]);
        loop {
            let t0 = Instant::now();
            if t0 >= ctx.deadline {
                break;
            }
            let id = ctx.txn_id(st.seq);
            for b in 0..BURSTS as u64 {
                let burst = bursts[st.burst % BURST_STREAM];
                st.burst += 1;
                let o = ctx.rec.open();
                let mut keep = ObjectReference::NULL;
                for k in 0..burst.count as u64 {
                    let payload = sizes[st.size % SIZE_STREAM] as u16;
                    st.size += 1;
                    keep = m.alloc(1, payload, 1);
                    m.write_data(keep, 0, (id << 10 | b << 8 | k) + 1);
                }
                ctx.rec.close(o, Layer::Alloc, id, burst.count as u32);
                let stamp = (id << 10 | b << 8 | (burst.count as u64 - 1)) + 1;

                let table = m.root(st.statics);
                let target = m.read_ref(table, burst.target as usize);
                let ring = m.root(st.ring);
                let o = ctx.rec.open();
                m.write_ref(keep, 0, target);
                m.write_ref(ring, st.next_slot, keep);
                ctx.rec.close(o, Layer::WriteRef, id, 2);
                st.ring_model[st.next_slot] = (stamp, burst.target);
                st.next_slot = (st.next_slot + 1) % RING;
            }
            st.seq += 1;
            ctx.rec.sample_free_blocks();
            ctx.complete(id, t0, t0, Instant::now());
        }
    }

    fn check(&self, m: &mut Mutator, st: &State) -> Result<(), String> {
        let table = m.root(st.statics);
        for i in 0..STATICS {
            let obj = m.read_ref(table, i);
            if obj.is_null() || m.read_data(obj, 0) != st.static_stamp(i) {
                return Err(format!("nursery: static object {i} is missing or overwritten"));
            }
        }
        let ring = m.root(st.ring);
        for (slot, &(stamp, target)) in st.ring_model.iter().enumerate() {
            let obj = m.read_ref(ring, slot);
            let ok = if stamp == 0 {
                obj.is_null()
            } else {
                !obj.is_null() && m.read_data(obj, 0) == stamp && {
                    let t = m.read_ref(obj, 0);
                    !t.is_null() && m.read_data(t, 0) == st.static_stamp(target as usize)
                }
            };
            if !ok {
                return Err(format!("nursery: survivor ring slot {slot} disagrees with the model"));
            }
        }
        Ok(())
    }
}
