//! `mature`: a closed loop of mature-graph churn.
//!
//! Each thread owns a large graph of hub objects in clusters of sixteen.
//! A hub's first sixteen reference fields point at hubs of its own cluster;
//! its last eight hold "posts" that point back at it.  Transactions rewire
//! hub-to-hub edges (the write barrier on mature objects), attach posts,
//! and now and then retire a whole cluster by replacing it with a fresh
//! one: the old cluster and its posts keep each other's reference counts
//! up, so only the backup trace can reclaim them.

use crate::rng::{Digest, Rng};
use crate::runner::{Spec, ThreadCtx, Workload};
use crate::trace::{Layer, Recorder};
use lxr_object::ObjectReference;
use lxr_runtime::{Mutator, RootSlot};
use std::time::Instant;

/// Hubs per cluster.
const HUBS: usize = 16;
/// Hub-to-hub reference fields per hub.
const EDGES: usize = 16;
/// Post fields per hub.
const POSTS: usize = 8;
/// Data words per hub.
const HUB_PAYLOAD: u16 = 4;
/// Data words per post.
const POST_PAYLOAD: u16 = 6;
/// Clusters per thread.
pub const CLUSTERS: usize = 1024;
/// Edge rewires per transaction.
pub const REWIRES: usize = 1024;
/// Posts attached per transaction.
const POSTS_PER_TXN: usize = 32;
/// Length of the cyclic per-thread transaction stream.
const TXN_STREAM: usize = 1 << 9;

/// The workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mature;

/// Per-thread streams, consumed cyclically.
#[derive(Debug)]
pub struct Inputs {
    /// Initial sibling wiring, `HUBS * EDGES` per cluster, per thread.
    pub wiring: Vec<Vec<u8>>,
    /// `REWIRES` packed rewires (`cluster << 12 | hub << 8 | field << 4 |
    /// target`) per transaction, per thread.
    pub rewires: Vec<Vec<u32>>,
    /// `POSTS_PER_TXN` (hub, field) pairs per transaction, per thread.
    pub posts: Vec<Vec<(u16, u8)>>,
    /// The cluster each retiring transaction replaces, per thread.
    pub retire: Vec<Vec<u16>>,
}

/// One thread's roots and model.
#[derive(Debug)]
pub struct State {
    table: RootSlot,
    thread: u64,
    generation: Vec<u32>,
    edges: Vec<[u8; EDGES]>,
    posts: Vec<[u64; POSTS]>,
    seq: u64,
}

impl State {
    fn stamp(&self, hub: usize) -> u64 {
        let (cluster, j) = (hub / HUBS, hub % HUBS);
        (self.thread << 56 | (cluster as u64) << 36 | (self.generation[cluster] as u64) << 4 | j as u64) + 1
    }

    /// Allocates a fresh generation of `cluster` and wires it as `wiring`
    /// says.  The previous generation becomes cyclic garbage.
    fn build_cluster(&mut self, m: &mut Mutator, rec: &mut Recorder, id: u64, cluster: usize, wiring: &[u8]) {
        let o = rec.open();
        self.generation[cluster] += 1;
        for j in 0..HUBS {
            let hub = cluster * HUBS + j;
            let obj = m.alloc((EDGES + POSTS) as u16, HUB_PAYLOAD, 30);
            m.write_data(obj, 0, self.stamp(hub));
            let table = m.root(self.table);
            m.write_ref(table, hub, obj);
            self.posts[hub] = [0; POSTS];
        }
        rec.close(o, Layer::Alloc, id, HUBS as u32);
        let table = m.root(self.table);
        let hubs: [ObjectReference; HUBS] = std::array::from_fn(|j| m.read_ref(table, cluster * HUBS + j));
        let o = rec.open();
        for (j, &obj) in hubs.iter().enumerate() {
            for s in 0..EDGES {
                m.write_ref(obj, s, hubs[wiring[j * EDGES + s] as usize]);
            }
        }
        rec.close(o, Layer::WriteRef, id, (HUBS * EDGES) as u32);
        for j in 0..HUBS {
            self.edges[cluster * HUBS + j].copy_from_slice(&wiring[j * EDGES..(j + 1) * EDGES]);
        }
    }
}

fn wiring(rng: &mut Rng) -> Vec<u8> {
    (0..HUBS * EDGES).map(|_| rng.below(HUBS as u64) as u8).collect()
}

impl Workload for Mature {
    type Inputs = Inputs;
    type Thread = State;

    fn spec(&self) -> Spec {
        Spec { name: "mature", threads: 2, min_heap_mb: 19, pause_gate: false, span_every: 2 }
    }

    fn generate(&self, seed: u64, _seconds: f64) -> Inputs {
        let threads = self.spec().threads as u64;
        let mut inputs = Inputs { wiring: vec![], rewires: vec![], posts: vec![], retire: vec![] };
        for t in 0..threads {
            let mut rng = Rng::new(seed, 400 + t);
            inputs.wiring.push((0..CLUSTERS).flat_map(|_| wiring(&mut rng)).collect());
            inputs.rewires.push(
                (0..TXN_STREAM * REWIRES)
                    .map(|_| {
                        let cluster = rng.below(CLUSTERS as u64) as u32;
                        let hub = rng.below(HUBS as u64) as u32;
                        let field = rng.below(EDGES as u64) as u32;
                        let target = rng.below(HUBS as u64) as u32;
                        cluster << 12 | hub << 8 | field << 4 | target
                    })
                    .collect(),
            );
            inputs.posts.push(
                (0..TXN_STREAM * POSTS_PER_TXN)
                    .map(|_| (rng.below((CLUSTERS * HUBS) as u64) as u16, rng.below(POSTS as u64) as u8))
                    .collect(),
            );
            inputs.retire.push((0..TXN_STREAM).map(|_| rng.below(CLUSTERS as u64) as u16).collect());
        }
        inputs
    }

    fn digest(&self, inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        inputs.wiring.iter().for_each(|w| d.bytes(w));
        inputs.rewires.iter().flatten().for_each(|&r| d.word(r as u64));
        inputs.posts.iter().flatten().for_each(|&(h, f)| d.word((h as u64) << 8 | f as u64));
        inputs.retire.iter().flatten().for_each(|&c| d.word(c as u64));
        d.value()
    }

    fn schedule<'a>(&self, _inputs: &'a Inputs) -> Option<&'a [u64]> {
        None
    }

    fn build(&self, m: &mut Mutator, inputs: &Inputs, thread: usize) -> State {
        let table = m.alloc((CLUSTERS * HUBS) as u16, 0, 31);
        let mut st = State {
            table: m.push_root(table),
            thread: thread as u64,
            generation: vec![0; CLUSTERS],
            edges: vec![[0; EDGES]; CLUSTERS * HUBS],
            posts: vec![[0; POSTS]; CLUSTERS * HUBS],
            seq: 0,
        };
        let wiring = &inputs.wiring[thread];
        for c in 0..CLUSTERS {
            st.build_cluster(
                m,
                &mut Recorder::off(),
                0,
                c,
                &wiring[c * HUBS * EDGES..(c + 1) * HUBS * EDGES],
            );
        }
        st
    }

    fn run(&self, m: &mut Mutator, ctx: &mut ThreadCtx<'_>, st: &mut State, inputs: &Inputs) {
        let t = ctx.thread;
        let mut pairs = [(ObjectReference::NULL, 0usize, ObjectReference::NULL); REWIRES];
        loop {
            let t0 = Instant::now();
            if t0 >= ctx.deadline {
                break;
            }
            let id = ctx.txn_id(st.seq);
            let txn = st.seq as usize % TXN_STREAM;

            let table = m.root(st.table);
            for (r, pair) in pairs.iter_mut().enumerate() {
                let packed = inputs.rewires[t][txn * REWIRES + r] as usize;
                let (cluster, hub, field, target) =
                    (packed >> 12, packed >> 8 & 15, packed >> 4 & 15, packed & 15);
                let from = cluster * HUBS + hub;
                *pair = (m.read_ref(table, from), field, m.read_ref(table, cluster * HUBS + target));
                st.edges[from][field] = target as u8;
            }
            let o = ctx.rec.open();
            for &(from, field, to) in &pairs {
                m.write_ref(from, field, to);
            }
            ctx.rec.close(o, Layer::WriteRef, id, REWIRES as u32);

            let o = ctx.rec.open();
            for p in 0..POSTS_PER_TXN {
                let (hub, field) = inputs.posts[t][txn * POSTS_PER_TXN + p];
                let stamp = (id << 5 | p as u64) + 1;
                let post = m.alloc(1, POST_PAYLOAD, 32);
                m.write_data(post, 0, stamp);
                let table = m.root(st.table);
                let hub_obj = m.read_ref(table, hub as usize);
                m.write_ref(post, 0, hub_obj);
                m.write_ref(hub_obj, EDGES + field as usize, post);
                st.posts[hub as usize][field as usize] = stamp;
            }
            ctx.rec.close(o, Layer::Alloc, id, POSTS_PER_TXN as u32);

            // Retire one cluster; its fresh generation reuses the
            // cluster's initial wiring.
            let cluster = inputs.retire[t][txn] as usize;
            let w = &inputs.wiring[t][cluster * HUBS * EDGES..(cluster + 1) * HUBS * EDGES];
            st.build_cluster(m, &mut ctx.rec, id, cluster, w);
            st.seq += 1;
            ctx.rec.sample_free_blocks();
            ctx.complete(id, t0, t0, Instant::now());
        }
    }

    fn check(&self, m: &mut Mutator, st: &State) -> Result<(), String> {
        let table = m.root(st.table);
        for hub in 0..CLUSTERS * HUBS {
            let cluster = hub / HUBS;
            let obj = m.read_ref(table, hub);
            if obj.is_null() || m.read_data(obj, 0) != st.stamp(hub) {
                return Err(format!("mature: hub {hub} is missing or has the wrong stamp"));
            }
            for (field, &target) in st.edges[hub].iter().enumerate() {
                let to = m.read_ref(obj, field);
                if to.is_null() || m.read_data(to, 0) != st.stamp(cluster * HUBS + target as usize) {
                    return Err(format!("mature: edge {field} of hub {hub} disagrees with the model"));
                }
            }
            for (field, &stamp) in st.posts[hub].iter().enumerate() {
                let post = m.read_ref(obj, EDGES + field);
                let ok = if stamp == 0 {
                    post.is_null()
                } else {
                    !post.is_null() && m.read_data(post, 0) == stamp && m.read_ref(post, 0) == obj
                };
                if !ok {
                    return Err(format!("mature: post {field} of hub {hub} disagrees with the model"));
                }
            }
        }
        Ok(())
    }
}
