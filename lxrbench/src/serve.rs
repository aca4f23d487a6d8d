//! `serve`: an open-loop session frontend.
//!
//! Requests arrive on a seeded Poisson schedule at a fixed rate, whatever
//! the collector does, and each request's latency runs from its scheduled
//! arrival, so a pause charges its queueing delay to every request behind
//! it.  Two request threads take requests from one shared queue.  Each
//! request looks up (or creates) a session in its thread's two-level
//! session table, allocates a burst of short-lived request/response
//! objects, caches the last one in the session, burns a little compute and
//! sometimes expires the session.  Threads bracket requests with
//! `begin_request`/`end_request` and spend arrival gaps in `idle_until`,
//! with the pause gate on.

use crate::rng::{Digest, Rng};
use crate::runner::{Spec, ThreadCtx, Workload};
use crate::trace::Layer;
use lxr_object::ObjectReference;
use lxr_runtime::{Mutator, RootSlot};
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE: f64 = 25_000.0;
/// Sessions per request thread.
pub const SESSIONS: usize = 8_000;
/// Share of sessions created, with every cache slot filled, during set-up:
/// the steady state, where a touch finds its session live unless the
/// previous touch expired it.
const PREFILL: f64 = 1.0 - EXPIRY;
/// Slots per leaf table (two levels: a `u16` reference count caps one
/// object's fan-out).
const LEAF: usize = 512;
/// Cached-response slots per session.
const SLOTS: usize = 4;
/// Short-lived objects per request; the last is the cached response.
pub const BURST: usize = 24;
/// Data words per request/response object.
const PAYLOAD: u16 = 12;
/// Hash-mix iterations per request (service time that is not allocation).
const COMPUTE: usize = 200;
/// Probability that a request expires its session.
const EXPIRY: f64 = 0.02;
/// How long after the last scheduled arrival the backlog may drain before
/// the rest of it counts as failed.
const GRACE: Duration = Duration::from_secs(5);

/// The workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serve;

/// One request of the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Session index within the serving thread's table.
    pub session: u32,
    /// Cache slot the response goes to.
    pub slot: u8,
    /// Whether the request expires its session.
    pub expire: bool,
}

/// The arrival schedule and the request stream.
#[derive(Debug)]
pub struct Inputs {
    /// Arrival offsets from the start, nanoseconds, ascending.
    pub arrivals_ns: Vec<u64>,
    /// One entry per arrival.
    pub requests: Vec<Request>,
    /// Sessions each thread creates during set-up.
    pub prefill: Vec<Vec<u32>>,
}

#[derive(Debug, Clone, Copy)]
struct SessionModel {
    stamp: u64,
    touches: u64,
    cache: [u64; SLOTS],
}

/// One thread's session table and its model.
#[derive(Debug)]
pub struct Table {
    root: RootSlot,
    model: Vec<Option<SessionModel>>,
}

impl Table {
    fn leaf(&self, m: &mut Mutator, index: usize) -> (ObjectReference, usize) {
        let root = m.root(self.root);
        (m.read_ref(root, index / LEAF), index % LEAF)
    }

    fn create(&mut self, m: &mut Mutator, index: usize, stamp: u64) {
        let session = m.alloc(SLOTS as u16, 2, 9);
        m.write_data(session, 0, stamp);
        let (leaf, slot) = self.leaf(m, index);
        m.write_ref(leaf, slot, session);
        self.model[index] = Some(SessionModel { stamp, touches: 0, cache: [0; SLOTS] });
    }
}

impl Workload for Serve {
    type Inputs = Inputs;
    type Thread = Table;

    fn spec(&self) -> Spec {
        Spec { name: "serve", threads: 2, min_heap_mb: 41, pause_gate: true, span_every: 1 }
    }

    fn generate(&self, seed: u64, seconds: f64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let horizon = (seconds * 1e9) as u64;
        let (mut arrivals_ns, mut requests) = (Vec::new(), Vec::new());
        let mut t = 0.0f64;
        loop {
            t += -rng.unit().ln() / RATE * 1e9;
            if t as u64 >= horizon {
                break;
            }
            arrivals_ns.push(t as u64);
            requests.push(Request {
                session: rng.below(SESSIONS as u64) as u32,
                slot: rng.below(SLOTS as u64) as u8,
                expire: rng.chance(EXPIRY),
            });
        }
        let prefill = (0..self.spec().threads)
            .map(|t| {
                let mut rng = Rng::new(seed, 100 + t as u64);
                (0..SESSIONS as u32).filter(|_| rng.chance(PREFILL)).collect()
            })
            .collect();
        Inputs { arrivals_ns, requests, prefill }
    }

    fn digest(&self, inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        for (&at, r) in inputs.arrivals_ns.iter().zip(&inputs.requests) {
            d.word(at);
            d.word((r.session as u64) << 16 | (r.slot as u64) << 1 | r.expire as u64);
        }
        for p in &inputs.prefill {
            p.iter().for_each(|&s| d.word(s as u64));
        }
        d.value()
    }

    fn schedule<'a>(&self, inputs: &'a Inputs) -> Option<&'a [u64]> {
        Some(&inputs.arrivals_ns)
    }

    fn build(&self, m: &mut Mutator, inputs: &Inputs, thread: usize) -> Table {
        let leaves = SESSIONS.div_ceil(LEAF);
        let root = m.alloc(leaves as u16, 0, 7);
        let root = m.push_root(root);
        for l in 0..leaves {
            let leaf = m.alloc(LEAF as u16, 0, 8);
            let root_obj = m.root(root);
            m.write_ref(root_obj, l, leaf);
        }
        let mut table = Table { root, model: vec![None; SESSIONS] };
        for &s in &inputs.prefill[thread] {
            let index = s as usize;
            let stamp = 1 << 62 | (s as u64) << 8;
            table.create(m, index, stamp);
            for slot in 0..SLOTS {
                let response = m.alloc(1, PAYLOAD, 3);
                m.write_data(response, 0, stamp | slot as u64);
                let (leaf, leaf_slot) = table.leaf(m, index);
                let session = m.read_ref(leaf, leaf_slot);
                m.write_ref(session, slot, response);
                table.model[index].as_mut().expect("created above").cache[slot] = stamp | slot as u64;
            }
        }
        table
    }

    fn run(&self, m: &mut Mutator, ctx: &mut ThreadCtx<'_>, table: &mut Table, inputs: &Inputs) {
        let give_up =
            ctx.start + Duration::from_nanos(inputs.arrivals_ns.last().copied().unwrap_or(0)) + GRACE;
        loop {
            let i = ctx.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= inputs.requests.len() {
                break;
            }
            let id = i as u64;
            let due = ctx.start + Duration::from_nanos(inputs.arrivals_ns[i]);
            if Instant::now() < due {
                let o = ctx.rec.open();
                m.idle_until(due);
                ctx.rec.close(o, Layer::IdleUntil, id, 1);
            }
            let dispatch = Instant::now();
            if dispatch > give_up {
                break;
            }
            let o = ctx.rec.open();
            m.begin_request();
            ctx.rec.close(o, Layer::BeginRequest, id, 1);

            let r = inputs.requests[i];
            let index = r.session as usize;
            let (leaf, slot) = table.leaf(m, index);
            if m.read_ref(leaf, slot).is_null() {
                table.create(m, index, id + 1);
            }
            // The burst: every object but the last dies at once; no
            // allocation follows the last, so it is still valid below.
            let o = ctx.rec.open();
            let mut response = ObjectReference::NULL;
            for k in 0..BURST as u64 {
                response = m.alloc(1, PAYLOAD, 3);
                m.write_data(response, 0, id << 8 | k);
            }
            ctx.rec.close(o, Layer::Alloc, id, BURST as u32);
            let value = id << 8 | (BURST as u64 - 1);

            let o = ctx.rec.open();
            let (leaf, slot) = table.leaf(m, index);
            let session = m.read_ref(leaf, slot);
            m.write_ref(session, r.slot as usize, response);
            ctx.rec.close(o, Layer::WriteRef, id, 1);
            let touches = m.read_data(session, 1);
            m.write_data(session, 1, touches + 1);
            let model = table.model[index].as_mut().expect("session created above");
            model.touches += 1;
            model.cache[r.slot as usize] = value;

            let mut acc = id;
            for _ in 0..COMPUTE {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            std::hint::black_box(acc);
            if r.expire {
                m.write_ref(leaf, slot, ObjectReference::NULL);
                table.model[index] = None;
            }

            let o = ctx.rec.open();
            m.end_request();
            ctx.rec.close(o, Layer::EndRequest, id, 1);
            ctx.rec.sample_free_blocks();
            ctx.complete(id, due, dispatch, Instant::now());
        }
    }

    fn check(&self, m: &mut Mutator, table: &Table) -> Result<(), String> {
        let (mut walked, mut modelled) = (Digest::default(), Digest::default());
        let mut first_mismatch = None;
        for (index, model) in table.model.iter().enumerate() {
            let (leaf, slot) = table.leaf(m, index);
            let session = m.read_ref(leaf, slot);
            let mut seen = Digest::default();
            if !session.is_null() {
                seen.word(index as u64);
                seen.word(m.read_data(session, 0));
                seen.word(m.read_data(session, 1));
                for s in 0..SLOTS {
                    let r = m.read_ref(session, s);
                    seen.word(if r.is_null() { 0 } else { m.read_data(r, 0) });
                }
            }
            let mut want = Digest::default();
            if let Some(model) = model {
                want.word(index as u64);
                want.word(model.stamp);
                want.word(model.touches);
                model.cache.iter().for_each(|&v| want.word(v));
            }
            if seen.value() != want.value() && first_mismatch.is_none() {
                first_mismatch = Some(index);
            }
            walked.word(seen.value());
            modelled.word(want.value());
        }
        match first_mismatch {
            None => Ok(()),
            Some(index) => Err(format!(
                "serve: session table walk disagrees with the model (first at session {index}; \
                 checksums {:#x} vs {:#x})",
                walked.value(),
                modelled.value()
            )),
        }
    }
}
