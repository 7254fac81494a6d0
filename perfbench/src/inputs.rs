//! Workload inputs, generated from the seed alone.
//!
//! The program under test only ever sees what these functions return;
//! the same `(seed, size)` always yields the same inputs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use wmatch_bench::families::{marketplace_bipartite, DynamicFamily, Family};
use wmatch_dynamic::UpdateOp;
use wmatch_graph::{Edge, Graph};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-static", "serve-marketplace", "churn-dense"];

/// Input sizes. `full()` is what the benchmark runs; `smoke()` is a
/// seconds-long miniature with the same structure, for the tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Vertices of every static bipartite gnp graph the drivers solve.
    pub static_n: usize,
    /// Static graphs the streaming and MPC drivers solve; the offline
    /// driver solves the first [`Size::static_offline_graphs`].
    pub static_graphs: usize,
    /// Static graphs the offline driver solves.
    pub static_offline_graphs: usize,
    /// serve-marketplace and churn-dense: static graphs the streaming and
    /// MPC drivers solve (the first ones of the set), leaving the replay
    /// jobs more of the measuring window.
    pub side_graphs: usize,
    /// serve-marketplace and churn-dense: static graphs the offline driver
    /// solves.
    pub side_offline_graphs: usize,
    /// paper-static: graphs (the first ones of the set) replayed through
    /// the dynamic engines.
    pub paper_load_graphs: usize,
    /// paper-static: insert-all/delete-all cycles of each replayed graph.
    pub paper_cycles: usize,
    /// serve-marketplace: users.
    pub serve_n: usize,
    /// serve-marketplace: updates per replay.
    pub serve_ops: usize,
    /// serve-marketplace: updates the stale engine replays (a prefix).
    pub serve_stale_ops: usize,
    /// churn-dense: independent heavy-churn instances.
    pub churn_instances: usize,
    /// churn-dense: vertices per instance.
    pub churn_n: usize,
    /// churn-dense: updates per instance replayed by the eager and lazy
    /// engines.
    pub churn_ops: usize,
    /// churn-dense: updates per instance replayed by the stale engine.
    pub churn_stale_ops: usize,
    /// churn-dense: updates per instance replayed by the random-walk
    /// engine.
    pub churn_walk_ops: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Size {
            static_n: 500,
            static_graphs: 96,
            static_offline_graphs: 16,
            side_graphs: 48,
            side_offline_graphs: 8,
            paper_load_graphs: 24,
            paper_cycles: 1,
            serve_n: 20_000,
            serve_ops: 300_000,
            serve_stale_ops: 50_000,
            churn_instances: 32,
            churn_n: 256,
            churn_ops: 250,
            churn_stale_ops: 500,
            churn_walk_ops: 2_000,
        }
    }

    /// Miniature sizes for the benchmark's own tests.
    pub fn smoke() -> Self {
        Size {
            static_n: 40,
            static_graphs: 2,
            static_offline_graphs: 1,
            side_graphs: 1,
            side_offline_graphs: 1,
            paper_load_graphs: 2,
            paper_cycles: 2,
            serve_n: 2_000,
            serve_ops: 4_000,
            serve_stale_ops: 1_000,
            churn_instances: 2,
            churn_n: 32,
            churn_ops: 100,
            churn_stale_ops: 100,
            churn_walk_ops: 200,
        }
    }
}

/// paper-static: a set of bipartite gnp graphs on the same vertex set
/// (uniform weights in [1, 1000]), plus the set as one update stream for
/// the dynamic engines.
#[derive(Debug, Clone)]
pub struct PaperInputs {
    /// The static instances.
    pub graphs: Vec<Graph>,
    /// For each of the first `paper_load_graphs` graphs in turn,
    /// `cycles` × (insert every edge, delete every edge); then the last
    /// of them inserted once more, so the engines end on exactly that
    /// graph. Each pass has its own seeded order.
    pub load_ops: Vec<UpdateOp>,
}

/// serve-marketplace inputs.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Users (vertices).
    pub n: usize,
    /// The hotspot-skewed sliding-window stream (listings × buyers).
    pub ops: Vec<UpdateOp>,
    /// Side labels of the bipartition (`false` = listing).
    pub side: Vec<bool>,
}

/// One churn-dense instance: an initial general (non-bipartite) graph
/// and its heavy-churn stream; every engine replays a prefix of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnInstance {
    /// The initial graph.
    pub initial: Graph,
    /// The update stream.
    pub ops: Vec<UpdateOp>,
}

fn seeded_order(edges: &[Edge], rng: &mut StdRng) -> Vec<Edge> {
    let mut v = edges.to_vec();
    v.shuffle(rng);
    v
}

/// Generates the paper-static inputs.
pub fn paper_static(seed: u64, size: &Size) -> PaperInputs {
    let graphs = static_graphs(seed, size.static_n, size.static_graphs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a7c_10ad);
    let mut load_ops = Vec::new();
    let insert_all = |g: &Graph, ops: &mut Vec<UpdateOp>, rng: &mut StdRng| {
        for e in seeded_order(g.edges(), rng) {
            ops.push(UpdateOp::insert(e.u, e.v, e.weight));
        }
    };
    let loaded = &graphs[..size.paper_load_graphs.min(graphs.len())];
    for g in loaded {
        for _ in 0..size.paper_cycles {
            insert_all(g, &mut load_ops, &mut rng);
            for e in seeded_order(g.edges(), &mut rng) {
                load_ops.push(UpdateOp::delete(e.u, e.v));
            }
        }
    }
    if let Some(last) = loaded.last() {
        insert_all(last, &mut load_ops, &mut rng);
    }
    PaperInputs { graphs, load_ops }
}

/// The first `count` static graphs every workload solves with the
/// paper's drivers: bipartite gnp graphs on `n` vertices
/// (`Family::BipartiteUniform`: m ≈ 2n, uniform weights in [1, 1000]),
/// each from its own sub-seed.
pub fn static_graphs(seed: u64, n: usize, count: usize) -> Vec<Graph> {
    (0..count)
        .map(|i| Family::BipartiteUniform.build(n, seed.wrapping_mul(128).wrapping_add(i as u64)))
        .collect()
}

/// Generates the serve-marketplace inputs.
pub fn serve_marketplace(seed: u64, size: &Size) -> ServeInputs {
    let (w, side) = marketplace_bipartite(size.serve_n, size.serve_ops, seed);
    ServeInputs {
        n: w.n,
        ops: w.ops,
        side,
    }
}

/// Generates the churn-dense inputs: independent instances, each with a
/// stream long enough for the longest engine prefix. The live edge count
/// of one heavy-churn stream drifts like a random walk, so one long
/// stream's throughput depends on where its walk went; several shorter
/// instances average that out.
pub fn churn_dense(seed: u64, size: &Size) -> Vec<ChurnInstance> {
    let longest = size
        .churn_ops
        .max(size.churn_stale_ops)
        .max(size.churn_walk_ops);
    (0..size.churn_instances)
        .map(|i| {
            let w = DynamicFamily::HeavyChurn.build(
                size.churn_n,
                longest,
                seed.wrapping_mul(64).wrapping_add(i as u64),
            );
            ChurnInstance {
                initial: w.initial,
                ops: w.ops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let s = Size::smoke();
        let (a, b) = (paper_static(7, &s), paper_static(7, &s));
        assert_eq!(a.graphs, b.graphs);
        assert_eq!(a.load_ops, b.load_ops);
        assert_ne!(paper_static(8, &s).graphs, a.graphs, "seed must matter");

        let (a, b) = (serve_marketplace(7, &s), serve_marketplace(7, &s));
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.side, b.side);
        assert_ne!(serve_marketplace(8, &s).ops, a.ops, "seed must matter");

        let (a, b) = (churn_dense(7, &s), churn_dense(7, &s));
        assert_eq!(a, b);
        assert_ne!(churn_dense(8, &s), a, "seed must matter");
    }

    #[test]
    fn inputs_have_the_promised_shape() {
        let s = Size::smoke();
        let p = paper_static(3, &s);
        assert_eq!(p.graphs.len(), s.static_graphs);
        assert!(p.graphs.iter().all(|g| g.bipartition().is_some()));
        let loaded = &p.graphs[..s.paper_load_graphs];
        let edges: usize = loaded.iter().map(Graph::edge_count).sum();
        let last = loaded.last().unwrap().edge_count();
        assert_eq!(p.load_ops.len(), 2 * s.paper_cycles * edges + last);
        let sv = serve_marketplace(3, &s);
        assert_eq!(sv.ops.len(), s.serve_ops);
        assert!(sv.side.iter().filter(|&&r| r).count() == s.serve_n / 2);
        let c = churn_dense(3, &s);
        assert_eq!(c.len(), s.churn_instances);
        assert!(c.iter().all(|i| i.ops.len() >= s.churn_walk_ops));
        assert!(
            c.iter().all(|i| i.initial.bipartition().is_none()),
            "churn graphs are general"
        );
    }
}
