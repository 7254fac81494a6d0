//! The three workloads: their untimed correctness gates, their timed
//! end-to-end jobs, and their traced per-layer runs.
//!
//! Every workload reports every end-to-end metric. Each has a home job
//! (the paper's drivers, the serve path, the four churn engines) and
//! also runs the jobs behind the remaining metrics, as listed in
//! `README.md`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use wmatch_api::SolveRequest;
use wmatch_dynamic::{
    DynamicConfig, DynamicError, DynamicMatcher, LazyMatcher, RandomWalkConfig, RandomWalkMatcher,
    StaleMatcher, UpdateEngine, UpdateOp,
};
use wmatch_graph::{Graph, Matching, WorkerPool};

use crate::drivers::{self, static_solves, DRIVERS};
use crate::engines::{
    certify_bipartite, check_final, replay_engine, replay_serve, round_robin, serve_setup,
    Committed, Job, Timed,
};
use crate::host::peak_rss_mb;
use crate::inputs::{self, ChurnInstance, Size};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Gate, Metrics, PER_LAYER};

/// Seconds of set-up repetitions `setup_s` is the median of (at least
/// [`SETUP_MIN_REPEATS`] repetitions).
const SETUP_SECONDS: f64 = 0.3;
/// Fewest set-up repetitions.
const SETUP_MIN_REPEATS: usize = 5;
/// Fewest timed rounds of a workload's replay jobs (after the gate's
/// warm-up replay).
const MIN_ROUNDS: usize = 2;
/// Updates per timed commit on serve-marketplace.
const SERVE_BATCH: usize = 128;
/// Updates per timed commit when paper-static's graphs are replayed.
const LOAD_BATCH: usize = 8;
/// Updates per timed commit on churn-dense.
const CHURN_BATCH: usize = 1;
/// churn-dense: updates between rebuild epochs of the eager engine.
const REBUILD_EVERY: usize = 250;
/// churn-dense: updates between certification checkpoints.
const CHECKPOINT_EVERY: usize = 125;
/// Repeats of one checkpoint's exact solve (its fastest is kept).
const CERTIFY_REPEATS: usize = 3;
/// Repeats of one LEKM certification call (its fastest is kept).
const CERTIFY_CALLS: usize = 15;
/// serve-marketplace: live-graph snapshots certified along the stream.
const LIVE_SNAPSHOTS: usize = 8;

/// A finished run: the gate, the metrics, and (traced runs) the spans.
#[derive(Debug)]
pub struct Run {
    /// Correctness gate and operation counts.
    pub gate: Gate,
    /// Metric values by name.
    pub metrics: Metrics,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

/// Runs `workload` with the given seed, measuring window (seconds) and
/// sizes.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: &Size,
) -> Result<Run, String> {
    if !inputs::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            inputs::WORKLOADS.join(", ")
        ));
    }
    let nproc = crate::host::nproc();
    // the measuring window: fixed-size jobs run first, then the replay
    // jobs repeat until it closes
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut gate = Gate::default();
    let mut m = Metrics::new();
    let mut tracer = None;
    if trace {
        for &(name, _, _) in PER_LAYER {
            m.insert(name, 0.0);
        }
        let t = match workload {
            "paper-static" => paper_static_traced(seed, size, nproc, &mut gate, &mut m),
            "serve-marketplace" => serve_marketplace_traced(seed, size, nproc, &mut gate, &mut m),
            _ => churn_dense_traced(seed, size, nproc, &mut gate, &mut m),
        };
        m.insert("ops_failed", gate.failed as f64);
        tracer = Some(t);
    } else {
        match workload {
            "paper-static" => paper_static(seed, deadline, size, nproc, &mut gate, &mut m),
            "serve-marketplace" => {
                serve_marketplace(seed, deadline, size, nproc, &mut gate, &mut m)
            }
            _ => churn_dense(seed, deadline, size, nproc, &mut gate, &mut m),
        }
        m.insert("peak_rss_mb", peak_rss_mb());
    }
    Ok(Run {
        gate,
        metrics: m,
        tracer,
    })
}

/// Median wall seconds of repeated calls of `setup` (for about
/// [`SETUP_SECONDS`], at least [`SETUP_MIN_REPEATS`] calls); whatever it
/// builds is dropped outside the timed interval.
fn setup_seconds<T>(mut setup: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < SETUP_MIN_REPEATS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        let built = setup();
        secs.push(t.elapsed().as_secs_f64());
        drop(built);
        if secs.len() >= 10_000 {
            break;
        }
    }
    median(&secs)
}

/// Fastest seconds of `repeats` calls of `f`.
fn fastest_call_seconds<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..repeats)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn lazy_config(seed: u64) -> DynamicConfig {
    DynamicConfig::default().with_seed(seed)
}

fn walk_config(seed: u64) -> RandomWalkConfig {
    RandomWalkConfig::default().with_seed(seed)
}

fn work_budget() -> usize {
    SolveRequest::new().work_budget
}

fn staleness_bound() -> usize {
    SolveRequest::new().staleness_bound
}

/// Certifies a final state; arguments are the gate, the live graph, the
/// matching and the engine's declared floor. Returns the ratio.
type Certify<'a> = dyn Fn(&mut Gate, &Graph, &Matching, f64) -> f64 + 'a;

/// The serve path on one stream at `threads = nproc` and `threads = 1`:
/// gate replays (final state certified, the two thread counts
/// bit-identical), then the two timed jobs. Also returns the worst ratio
/// and [`LIVE_SNAPSHOTS`] evenly spaced snapshots of the live graph.
fn serve_jobs<'a>(
    n: usize,
    ops: &'a [UpdateOp],
    seed: u64,
    nproc: usize,
    batch: usize,
    gate: &mut Gate,
    certify: &Certify<'_>,
) -> ([Job<'a>; 2], f64, Vec<Graph>) {
    let mut worst = 1.0f64;
    let mut committed = Vec::new();
    let every = (ops.len().div_ceil(batch) / LIVE_SNAPSHOTS).max(1);
    let mut snapshots = Vec::with_capacity(LIVE_SNAPSHOTS + 1);
    for threads in [nproc, 1] {
        let (mut eng, mut drv) = serve_setup(n, seed, threads, nproc);
        let mut batches = 0usize;
        replay_serve(&mut eng, &mut drv, ops, batch, gate, &mut |_, eng| {
            batches += 1;
            if threads == nproc && batches.is_multiple_of(every) {
                snapshots.push(eng.graph().snapshot());
            }
        });
        let live = eng.graph().snapshot();
        worst = worst.min(certify(
            gate,
            &live,
            eng.matching(),
            eng.config().certified_floor(),
        ));
        if threads == 1 {
            gate.check(eng.inline_commits() > 0, || {
                "serve threads=1: inline path unused".into()
            });
        }
        committed.push(Committed::of(eng.matching(), eng.counters()));
    }
    gate.check(committed[0] == committed[1], || {
        format!("serve: threads={nproc} and threads=1 committed different states")
    });
    let jobs = [(nproc, "serve"), (1, "serve threads=1")].map(|(threads, what)| Job {
        what,
        ops: ops.len(),
        expect: Some(committed[0].clone()),
        run: Box::new(move |gate: &mut Gate| {
            let (mut eng, mut drv) = serve_setup(n, seed, threads, nproc);
            let times = replay_serve(&mut eng, &mut drv, ops, batch, gate, &mut |_, _| {});
            (times, Committed::of(eng.matching(), eng.counters()))
        }),
    });
    (jobs, worst, snapshots)
}

/// One engine on one stream from an empty graph: a gate replay whose
/// final state is certified, then the timed job that must reproduce it.
fn engine_job<'a, E: UpdateEngine + 'a>(
    what: &'static str,
    make: impl Fn() -> E + 'a,
    ops: &'a [UpdateOp],
    batch: usize,
    gate: &mut Gate,
    certify: &Certify<'_>,
) -> (Job<'a>, f64) {
    let mut eng = make();
    replay_engine(&mut eng, ops, batch, gate, |_, _, _| {});
    let ratio = certify(
        gate,
        &eng.graph().snapshot(),
        eng.matching(),
        eng.declared_floor(),
    );
    let job = Job {
        what,
        ops: ops.len(),
        expect: Some(Committed::of(eng.matching(), eng.counters())),
        run: Box::new(move |gate: &mut Gate| {
            let mut eng = make();
            let times = replay_engine(&mut eng, ops, batch, gate, |_, _, _| {});
            (times, Committed::of(eng.matching(), eng.counters()))
        }),
    };
    (job, ratio)
}

/// Writes the metrics of the five timed jobs every workload schedules,
/// in order: the update path at `nproc` and its single-thread twin (the
/// serve path, or the eager engine on churn-dense), then the random-walk,
/// lazy and stale competitors.
fn report_five(m: &mut Metrics, timed: &[Timed]) {
    if let [par, seq, walk, lazy, stale] = timed {
        m.insert("updates_per_sec", par.updates_per_sec());
        m.insert("updates_per_sec_1t", seq.updates_per_sec());
        m.insert("commit_p99_us", par.commit_p99_us());
        m.insert("recourse_per_op", par.recourse_per_op());
        m.insert("randomwalk.updates_per_sec", walk.updates_per_sec());
        m.insert("lazy.updates_per_sec", lazy.updates_per_sec());
        m.insert("stale.updates_per_sec", stale.updates_per_sec());
    }
}

// ---------------------------------------------------------------------
// paper-static
// ---------------------------------------------------------------------

/// paper-static: the paper's three drivers on a set of bipartite gnp
/// graphs (home job), their LEKM certification, and the graphs replayed
/// as insert/delete cycles through the serve path and the competitors.
fn paper_static(
    seed: u64,
    deadline: Instant,
    size: &Size,
    nproc: usize,
    gate: &mut Gate,
    m: &mut Metrics,
) {
    let input = inputs::paper_static(seed, size);
    let graphs = &input.graphs;
    let n = size.static_n;
    let sides: Vec<Vec<bool>> = graphs.iter().filter_map(Graph::bipartition).collect();
    if !gate.check(sides.len() == graphs.len(), || {
        "paper-static graph is not bipartite".into()
    }) {
        return;
    }
    m.insert(
        "setup_s",
        setup_seconds(|| {
            let instances: Vec<Vec<_>> = graphs
                .iter()
                .map(|g| DRIVERS.iter().map(|d| drivers::instance(d, g)).collect())
                .collect();
            let pool = WorkerPool::new(nproc);
            let serve = serve_setup(n, seed, nproc, nproc);
            let walk = RandomWalkMatcher::new(n, walk_config(seed));
            let lazy = LazyMatcher::new(n, lazy_config(seed), work_budget());
            let stale = StaleMatcher::new(n, lazy_config(seed), staleness_bound());
            (instances, pool, serve, walk, lazy, stale)
        }),
    );

    let solves = static_solves(graphs, size.static_offline_graphs, seed, nproc, gate);
    solves.report(m);

    // the exact oracle on every instance (one call is ~0.1 ms, so each
    // instance's figure is the fastest of repeated calls)
    let mut certify_s = Vec::with_capacity(graphs.len());
    for (g, side) in graphs.iter().zip(&sides) {
        if let Some(cert) = gate.ok("oracle", wmatch_oracle::certify_max_weight(g, side)) {
            let verified = cert.verify(g, side);
            gate.check(verified.is_ok(), || {
                format!("oracle certificate: {verified:?}")
            });
        }
        certify_s.push(fastest_call_seconds(CERTIFY_CALLS, || {
            wmatch_oracle::certify_max_weight(g, side)
        }));
    }
    m.insert(
        "certify_s",
        certify_s.iter().sum::<f64>() / certify_s.len().max(1) as f64,
    );

    let ops = &input.load_ops;
    let loaded = size.paper_load_graphs.clamp(1, graphs.len());
    let (last, last_side) = (&graphs[loaded - 1], &sides[loaded - 1]);
    let certify = |gate: &mut Gate, live: &Graph, matching: &Matching, floor: f64| {
        gate.check(live.edge_count() == last.edge_count(), || {
            "load replay: final graph differs".into()
        });
        certify_bipartite(gate, "load replay", live, last_side, matching, floor)
    };
    let ([par, seq], r0, _) = serve_jobs(n, ops, seed, nproc, LOAD_BATCH, gate, &certify);
    let (walk, r1) = engine_job(
        "randomwalk",
        move || RandomWalkMatcher::new(n, walk_config(seed)),
        ops,
        LOAD_BATCH,
        gate,
        &certify,
    );
    let (lazy, r2) = engine_job(
        "lazy",
        move || LazyMatcher::new(n, lazy_config(seed), work_budget()),
        ops,
        LOAD_BATCH,
        gate,
        &certify,
    );
    let (stale, r3) = engine_job(
        "stale",
        move || StaleMatcher::new(n, lazy_config(seed), staleness_bound()),
        ops,
        LOAD_BATCH,
        gate,
        &certify,
    );
    let timed = round_robin(
        vec![par, seq, walk, lazy, stale],
        deadline,
        MIN_ROUNDS,
        gate,
    );
    report_five(m, &timed);
    m.insert(
        "ratio",
        [solves.worst_ratio, r0, r1, r2, r3]
            .into_iter()
            .fold(1.0, f64::min),
    );
}

fn paper_static_traced(
    seed: u64,
    size: &Size,
    nproc: usize,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Tracer {
    let input = inputs::paper_static(seed, size);
    let (untraced, traced, tracer) = drivers::traced_static(&input.graphs[0], seed, nproc, gate, m);
    m.insert("trace.span_coverage", tracer.root_coverage());
    m.insert(
        "trace.overhead",
        traced / untraced.max(f64::MIN_POSITIVE) - 1.0,
    );
    tracer
}

// ---------------------------------------------------------------------
// serve-marketplace
// ---------------------------------------------------------------------

/// serve-marketplace: the sharded serve path at `nproc` and 1 thread
/// (home job), the competitors on the same stream, the final graph's
/// LEKM certification, and the drivers on the first half of
/// paper-static's graph set.
fn serve_marketplace(
    seed: u64,
    deadline: Instant,
    size: &Size,
    nproc: usize,
    gate: &mut Gate,
    m: &mut Metrics,
) {
    let input = inputs::serve_marketplace(seed, size);
    let (n, ops, side) = (input.n, input.ops.as_slice(), input.side.as_slice());
    let graphs = inputs::static_graphs(seed, size.static_n, size.side_graphs);
    m.insert(
        "setup_s",
        setup_seconds(|| {
            let serve = serve_setup(n, seed, nproc, nproc);
            let walk = RandomWalkMatcher::new(n, walk_config(seed));
            let lazy = LazyMatcher::new(n, lazy_config(seed), work_budget());
            let stale = StaleMatcher::new(n, lazy_config(seed), staleness_bound());
            (serve, walk, lazy, stale)
        }),
    );

    let solves = static_solves(&graphs, size.side_offline_graphs, seed, nproc, gate);
    solves.report(m);

    let certify = |gate: &mut Gate, live: &Graph, matching: &Matching, floor: f64| {
        certify_bipartite(gate, "marketplace", live, side, matching, floor)
    };
    let ([par, seq], r0, snapshots) = serve_jobs(n, ops, seed, nproc, SERVE_BATCH, gate, &certify);
    // certification latency along the stream: the live graph's structure
    // (and the oracle's cost) drifts with the stream, so one graph is not
    // a steady unit
    let certify_s: Vec<f64> = snapshots
        .iter()
        .map(|live| {
            if let Some(cert) = gate.ok("oracle", wmatch_oracle::certify_max_weight(live, side)) {
                let verified = cert.verify(live, side);
                gate.check(verified.is_ok(), || {
                    format!("oracle certificate: {verified:?}")
                });
            }
            fastest_call_seconds(CERTIFY_CALLS, || {
                wmatch_oracle::certify_max_weight(live, side)
            })
        })
        .collect();
    m.insert(
        "certify_s",
        certify_s.iter().sum::<f64>() / certify_s.len().max(1) as f64,
    );
    drop(snapshots);

    let stale_ops = &ops[..size.serve_stale_ops.min(ops.len())];
    let (walk, r1) = engine_job(
        "randomwalk",
        move || RandomWalkMatcher::new(n, walk_config(seed)),
        ops,
        SERVE_BATCH,
        gate,
        &certify,
    );
    let (lazy, r2) = engine_job(
        "lazy",
        move || LazyMatcher::new(n, lazy_config(seed), work_budget()),
        ops,
        SERVE_BATCH,
        gate,
        &certify,
    );
    let (stale, r3) = engine_job(
        "stale",
        move || StaleMatcher::new(n, lazy_config(seed), staleness_bound()),
        stale_ops,
        SERVE_BATCH,
        gate,
        &certify,
    );
    let timed = round_robin(
        vec![par, seq, walk, lazy, stale],
        deadline,
        MIN_ROUNDS,
        gate,
    );
    report_five(m, &timed);
    m.insert(
        "ratio",
        [solves.worst_ratio, r0, r1, r2, r3]
            .into_iter()
            .fold(1.0, f64::min),
    );
}

fn serve_marketplace_traced(
    seed: u64,
    size: &Size,
    nproc: usize,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Tracer {
    let input = inputs::serve_marketplace(seed, size);
    let (n, ops, side) = (input.n, &input.ops, &input.side);

    // an untimed warm-up replay (the first replay is the slowest), then
    // the untraced reference replay
    let mut untraced = 0.0;
    let mut want = Committed::default();
    for _ in 0..2 {
        let (mut eng, mut drv) = serve_setup(n, seed, nproc, nproc);
        let t = Instant::now();
        replay_serve(&mut eng, &mut drv, ops, SERVE_BATCH, gate, &mut |_, _| {});
        untraced = t.elapsed().as_secs_f64();
        want = Committed::of(eng.matching(), eng.counters());
    }

    let mut tracer = Tracer::new();
    let (mut eng, mut drv) = serve_setup(n, seed, nproc, nproc);
    let mut snapshots_seen = eng.wal_stats().map_or(0, |w| w.snapshots);
    let mut snapshot_batch_s = Vec::new();
    let mut batch_spans = Vec::with_capacity(ops.len() / SERVE_BATCH + 1);
    let t = Instant::now();
    tracer.enter("dynamic.serve_replay");
    let mut at = Instant::now();
    replay_serve(
        &mut eng,
        &mut drv,
        ops,
        SERVE_BATCH,
        gate,
        &mut |dt, eng| {
            let end = Instant::now();
            batch_spans.push((at, end));
            at = end;
            let snaps = eng.wal_stats().map_or(0, |w| w.snapshots);
            if snaps > snapshots_seen {
                snapshot_batch_s.push(dt);
                snapshots_seen = snaps;
            }
        },
    );
    for &(a, b) in &batch_spans {
        tracer.record("dynamic.serve_batch", a, b);
    }
    tracer.exit();
    let traced = t.elapsed().as_secs_f64();
    let committed = Committed::of(eng.matching(), eng.counters());
    gate.check(committed == want, || "serve traced replay diverged".into());

    let batches = batch_spans.len().max(1) as f64;
    let counters = eng.counters();
    let (replayed, fallbacks) = (eng.replayed(), eng.fallbacks());
    m.insert(
        "spec.replay_rate",
        replayed as f64 / (replayed + fallbacks).max(1) as f64,
    );
    m.insert(
        "spec.groups_per_batch",
        eng.overlap_groups() as f64 / batches,
    );
    m.insert("spec.inline_commits", eng.inline_commits() as f64);
    m.insert("pool.steals", eng.steals() as f64);
    m.insert(
        "engine.augmentations_per_op",
        counters.augmentations_applied as f64 / counters.updates_applied.max(1) as f64,
    );
    m.insert("engine.scratch_high_water", eng.scratch_high_water() as f64);
    let stats = drv.stats();
    m.insert("serve.retries", stats.retries as f64);
    m.insert("serve.degraded_batches", stats.degraded_batches as f64);
    m.insert(
        "wal.snapshots",
        eng.wal_stats().map_or(0, |w| w.snapshots) as f64,
    );
    m.insert(
        "wal.snapshot_batch_us",
        snapshot_batch_s.iter().sum::<f64>() / snapshot_batch_s.len().max(1) as f64 * 1e6,
    );

    // crash and recover from the WAL: the recovered state must be the
    // committed one
    eng.simulate_crash();
    let report = tracer.span("wal.recover", || eng.recover());
    gate.check(report.is_some(), || "WAL recovery unavailable".into());
    gate.check(
        Committed::of(eng.matching(), eng.counters()) == committed,
        || "WAL recovery did not restore the committed state".into(),
    );
    m.insert("wal.recover_s", tracer.total("wal.recover"));

    let live = eng.graph().snapshot();
    let cert = tracer.span("oracle.certify", || {
        wmatch_oracle::certify_max_weight(&live, side)
    });
    if let Some(cert) = gate.ok("oracle", cert) {
        let verified = cert.verify(&live, side);
        gate.check(verified.is_ok(), || {
            format!("oracle certificate: {verified:?}")
        });
        check_final(
            gate,
            "serve traced",
            &live,
            eng.matching(),
            cert.optimum,
            0.5,
        );
        m.insert("oracle.certify_s", tracer.total("oracle.certify"));
        m.insert("oracle.phases", cert.stats.phases as f64);
        m.insert("oracle.relaxations", cert.stats.relaxations as f64);
    }
    m.insert("trace.span_coverage", tracer.root_coverage());
    m.insert(
        "trace.overhead",
        traced / untraced.max(f64::MIN_POSITIVE) - 1.0,
    );
    tracer
}

// ---------------------------------------------------------------------
// churn-dense
// ---------------------------------------------------------------------

fn eager_config(seed: u64, threads: usize) -> DynamicConfig {
    DynamicConfig::default()
        .with_seed(seed)
        .with_threads(threads)
        .with_rebuild_threshold(REBUILD_EVERY)
}

/// Builds a churn engine on an instance's initial graph.
type Make<'a, E> = dyn Fn(&Graph) -> Result<E, DynamicError> + 'a;

/// Exact optima of the churn instances' checkpoint graphs (blossom; the
/// graphs are general). The live graph after a prefix does not depend on
/// the engine, so each checkpoint is solved once and shared.
#[derive(Default)]
struct Checkpoints {
    optimum: HashMap<(usize, usize), i128>,
    certify_s: Vec<f64>,
}

impl Checkpoints {
    /// Certifies `eng` at checkpoint `key` = (instance, op index),
    /// flushing deferred repairs first, as the deferring engines' floors
    /// require.
    fn check<E: UpdateEngine>(
        &mut self,
        gate: &mut Gate,
        what: &str,
        eng: &mut E,
        key: (usize, usize),
    ) -> f64 {
        eng.flush();
        let g = eng.graph().snapshot();
        let optimum = *self.optimum.entry(key).or_insert_with(|| {
            let mut best = f64::INFINITY;
            let mut opt = 0;
            for _ in 0..CERTIFY_REPEATS {
                let t = Instant::now();
                opt = wmatch_graph::exact::max_weight_matching(&g).weight();
                best = best.min(t.elapsed().as_secs_f64());
            }
            self.certify_s.push(best);
            opt
        });
        let floor = eng.declared_floor();
        check_final(
            gate,
            &format!("{what} instance {} op {}", key.0, key.1),
            &g,
            eng.matching(),
            optimum,
            floor,
        )
    }
}

/// Replays every instance's first `prefix` updates, each on a fresh
/// engine; `at_batch` also sees the instance index. Returns the batch
/// times, the committed states and the engines.
fn replay_instances<E: UpdateEngine>(
    make: &Make<'_, E>,
    instances: &[ChurnInstance],
    prefix: usize,
    gate: &mut Gate,
    mut at_batch: impl FnMut(&mut E, usize, usize, &mut Gate),
) -> (Vec<f64>, Committed, Vec<E>) {
    let mut times = Vec::new();
    let mut committed = Committed::default();
    let mut engines = Vec::with_capacity(instances.len());
    for (k, inst) in instances.iter().enumerate() {
        let Some(mut eng) = gate.ok("initial load", make(&inst.initial)) else {
            continue;
        };
        let ops = &inst.ops[..prefix.min(inst.ops.len())];
        times.extend(replay_engine(
            &mut eng,
            ops,
            CHURN_BATCH,
            gate,
            |eng, i, gate| at_batch(eng, k, i, gate),
        ));
        committed.push(eng.matching(), eng.counters());
        engines.push(eng);
    }
    (times, committed, engines)
}

/// A churn engine's gate replay with checkpoints every
/// [`CHECKPOINT_EVERY`] updates of every instance, then its timed job.
/// Deferring engines flush at checkpoints, which changes their
/// trajectory, so their timed replays are compared with each other
/// rather than with the gate.
fn churn_job<'a, E: UpdateEngine + 'a>(
    what: &'static str,
    make: Box<Make<'a, E>>,
    instances: &'a [ChurnInstance],
    prefix: usize,
    expect_gate_state: bool,
    cps: &mut Checkpoints,
    gate: &mut Gate,
) -> (Job<'a>, f64) {
    let per = (CHECKPOINT_EVERY / CHURN_BATCH).max(1);
    let mut worst = 1.0f64;
    let (_, state, mut engines) =
        replay_instances(&*make, instances, prefix, gate, |eng, k, i, gate| {
            if (i + 1) % per == 0 {
                worst = worst.min(cps.check(gate, what, eng, (k, (i + 1) * CHURN_BATCH)));
            }
        });
    for (k, eng) in engines.iter_mut().enumerate() {
        worst = worst.min(cps.check(gate, what, eng, (k, prefix)));
    }
    let job = Job {
        what,
        ops: prefix * instances.len(),
        expect: expect_gate_state.then_some(state),
        run: Box::new(move |gate: &mut Gate| {
            let (times, committed, _) =
                replay_instances(&*make, instances, prefix, gate, |_, _, _, _| {});
            (times, committed)
        }),
    };
    (job, worst)
}

/// churn-dense: eager (rebuild epochs on, at `nproc` and 1 thread),
/// random-walk, lazy and stale engines on independent heavy-churn
/// general graphs with blossom checkpoints (home job), and the drivers
/// on the first half of paper-static's graph set.
fn churn_dense(
    seed: u64,
    deadline: Instant,
    size: &Size,
    nproc: usize,
    gate: &mut Gate,
    m: &mut Metrics,
) {
    let instances = inputs::churn_dense(seed, size);
    let eager =
        move |t: usize| move |g: &Graph| DynamicMatcher::from_graph(g, eager_config(seed, t));
    let walk = move |g: &Graph| RandomWalkMatcher::from_graph(g, walk_config(seed));
    let lazy = move |g: &Graph| LazyMatcher::from_graph(g, lazy_config(seed), work_budget());
    let stale = move |g: &Graph| StaleMatcher::from_graph(g, lazy_config(seed), staleness_bound());
    m.insert(
        "setup_s",
        setup_seconds(|| {
            instances
                .iter()
                .map(|i| {
                    let g = &i.initial;
                    (
                        eager(nproc)(g).is_ok(),
                        walk(g).is_ok(),
                        lazy(g).is_ok(),
                        stale(g).is_ok(),
                    )
                })
                .collect::<Vec<_>>()
        }),
    );

    let solves = static_solves(
        &inputs::static_graphs(seed, size.static_n, size.side_graphs),
        size.side_offline_graphs,
        seed,
        nproc,
        gate,
    );
    solves.report(m);

    let mut cps = Checkpoints::default();
    let (eager_ops, stale_ops, walk_ops) =
        (size.churn_ops, size.churn_stale_ops, size.churn_walk_ops);
    let (par, w0) = churn_job(
        "eager",
        Box::new(eager(nproc)),
        &instances,
        eager_ops,
        true,
        &mut cps,
        gate,
    );
    let (seq, w1) = churn_job(
        "eager threads=1",
        Box::new(eager(1)),
        &instances,
        eager_ops,
        true,
        &mut cps,
        gate,
    );
    gate.check(par.expect == seq.expect, || {
        format!("eager: threads={nproc} and threads=1 committed different states")
    });
    let (walk, w2) = churn_job(
        "randomwalk",
        Box::new(walk),
        &instances,
        walk_ops,
        true,
        &mut cps,
        gate,
    );
    let (lazy, w3) = churn_job(
        "lazy",
        Box::new(lazy),
        &instances,
        eager_ops,
        false,
        &mut cps,
        gate,
    );
    let (stale, w4) = churn_job(
        "stale",
        Box::new(stale),
        &instances,
        stale_ops,
        false,
        &mut cps,
        gate,
    );
    m.insert("certify_s", median(&cps.certify_s));
    let timed = round_robin(
        vec![par, seq, walk, lazy, stale],
        deadline,
        MIN_ROUNDS,
        gate,
    );
    report_five(m, &timed);
    m.insert(
        "ratio",
        [w0, w1, w2, w3, w4, solves.worst_ratio]
            .into_iter()
            .fold(1.0, f64::min),
    );
}

fn churn_dense_traced(
    seed: u64,
    size: &Size,
    nproc: usize,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Tracer {
    let instances = inputs::churn_dense(seed, size);
    let eager = move |g: &Graph| DynamicMatcher::from_graph(g, eager_config(seed, nproc));
    let prefix = size.churn_ops;

    // an untimed warm-up replay (the first replay is the slowest), then
    // the untraced reference replay
    replay_instances(&eager, &instances, prefix, gate, |_, _, _, _| {});
    let t = Instant::now();
    let (_, want, _) = replay_instances(&eager, &instances, prefix, gate, |_, _, _, _| {});
    let untraced = t.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let per = (CHECKPOINT_EVERY / CHURN_BATCH).max(1);
    let mut rebuilds_seen = 0u64;
    let mut rebuild_s = 0.0;
    let mut batch_spans = Vec::new();
    let mut checkpoints: Vec<Graph> = Vec::new();
    let t = Instant::now();
    tracer.enter("dynamic.eager_replay");
    let mut at = Instant::now();
    let (_, committed, engines) =
        replay_instances(&eager, &instances, prefix, gate, |eng, _, i, _| {
            let end = Instant::now();
            batch_spans.push((at, end));
            if i == 0 {
                rebuilds_seen = 0;
            }
            let rebuilds = eng.counters().rebuilds;
            if rebuilds > rebuilds_seen {
                rebuild_s += (end - at).as_secs_f64();
                rebuilds_seen = rebuilds;
            }
            if (i + 1) % per == 0 {
                checkpoints.push(eng.graph().snapshot());
            }
            at = Instant::now();
        });
    for &(a, b) in &batch_spans {
        tracer.record("dynamic.batch", a, b);
    }
    tracer.exit();
    let traced = t.elapsed().as_secs_f64();
    gate.check(committed == want, || "eager traced replay diverged".into());
    let (mut updates, mut augmentations, mut rebuilds, mut high_water, mut steals) =
        (0, 0, 0, 0, 0);
    for e in &engines {
        let c = e.counters();
        updates += c.updates_applied;
        augmentations += c.augmentations_applied;
        rebuilds += c.rebuilds;
        high_water = high_water.max(e.scratch_high_water());
        steals += e.steals();
    }
    m.insert("core.rebuilds", rebuilds as f64);
    m.insert("core.rebuild_s", rebuild_s);
    m.insert(
        "engine.augmentations_per_op",
        augmentations as f64 / updates.max(1) as f64,
    );
    m.insert("engine.scratch_high_water", high_water as f64);
    m.insert("pool.steals", steals as f64);

    // the general-graph exact oracle at the checkpoints
    for g in &checkpoints {
        tracer.span("oracle.certify", || {
            wmatch_graph::exact::max_weight_matching(g)
        });
    }
    m.insert(
        "oracle.certify_s",
        median(&tracer.durations("oracle.certify")),
    );

    let walk = move |g: &Graph| RandomWalkMatcher::from_graph(g, walk_config(seed));
    let (_, _, walkers) = tracer.span("dynamic.randomwalk_replay", || {
        replay_instances(
            &walk,
            &instances,
            size.churn_walk_ops,
            gate,
            |_, _, _, _| {},
        )
    });
    let (hits, taken) = walkers
        .iter()
        .fold((0, 0), |(h, t), w| (h + w.walk_hits(), t + w.walks_taken()));
    m.insert("randomwalk.hit_rate", hits as f64 / taken.max(1) as f64);
    let lazy = move |g: &Graph| LazyMatcher::from_graph(g, lazy_config(seed), work_budget());
    let (_, _, lazies) = tracer.span("dynamic.lazy_replay", || {
        replay_instances(&lazy, &instances, prefix, gate, |_, _, _, _| {})
    });
    m.insert(
        "lazy.exhausted_updates",
        lazies
            .iter()
            .map(LazyMatcher::exhausted_updates)
            .sum::<u64>() as f64,
    );
    let stale = move |g: &Graph| StaleMatcher::from_graph(g, lazy_config(seed), staleness_bound());
    let (_, _, stales) = tracer.span("dynamic.stale_replay", || {
        replay_instances(
            &stale,
            &instances,
            size.churn_stale_ops,
            gate,
            |_, _, _, _| {},
        )
    });
    m.insert(
        "stale.flushes",
        stales.iter().map(StaleMatcher::flushes).sum::<u64>() as f64,
    );
    m.insert("trace.span_coverage", tracer.root_coverage());
    m.insert(
        "trace.overhead",
        traced / untraced.max(f64::MIN_POSITIVE) - 1.0,
    );
    tracer
}
