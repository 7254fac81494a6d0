//! Replays of update streams through the dynamic engines, timed the way
//! the benchmark's noise findings require: every job is replayed several
//! times on a fresh engine, each replay's final state must equal the
//! first's, and throughput comes from each fixed op segment's fastest
//! time across replays (latency percentiles from each batch's fastest).

use std::time::Instant;

use wmatch_dynamic::{
    DynamicConfig, DynamicCounters, RetryPolicy, ServeDriver, ShardedMatcher, UpdateEngine,
    UpdateOp, WalConfig,
};
use wmatch_graph::{Edge, Graph, Matching};

use crate::stats::{elementwise_min, percentile, segment_sums};
use crate::Gate;

/// Op segments per replay that throughput is computed over.
pub const SEGMENTS: usize = 64;

/// Rounds after which a schedule stops regardless of its deadline.
pub const MAX_ROUNDS: usize = 16;

/// The committed state of one replay: each engine's matching edges and
/// lifetime counters, in replay order — what every replay of the same
/// job must reproduce exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Committed(pub Vec<(Vec<Edge>, DynamicCounters)>);

impl Committed {
    /// Appends one engine's final state.
    pub fn push(&mut self, matching: &Matching, counters: DynamicCounters) {
        self.0.push((matching.to_edges(), counters));
    }

    /// The state of a single engine.
    pub fn of(matching: &Matching, counters: DynamicCounters) -> Self {
        let mut c = Committed::default();
        c.push(matching, counters);
        c
    }

    /// Net matching changes per update over every engine of the replay.
    pub fn recourse_per_op(&self) -> f64 {
        let recourse: u64 = self.0.iter().map(|(_, c)| c.recourse_total).sum();
        let updates: u64 = self.0.iter().map(|(_, c)| c.updates_applied).sum();
        recourse as f64 / updates.max(1) as f64
    }
}

/// One replay: per-batch commit seconds (final flushes included) and the
/// committed state it ended in.
pub type Replay = (Vec<f64>, Committed);

/// A timed job's result.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Updates per replay.
    pub ops: usize,
    /// Fastest time of every segment across replays (seconds).
    pub segment_min: Vec<f64>,
    /// Fastest time of every batch across replays (seconds).
    pub batch_min: Vec<f64>,
    /// The committed state every replay reproduced.
    pub committed: Committed,
}

impl Timed {
    /// Throughput: updates over the sum of the segments' fastest times.
    pub fn updates_per_sec(&self) -> f64 {
        self.ops as f64 / self.segment_min.iter().sum::<f64>().max(f64::MIN_POSITIVE)
    }

    /// 99th-percentile per-batch commit latency in microseconds.
    pub fn commit_p99_us(&self) -> f64 {
        percentile(&self.batch_min, 0.99) * 1e6
    }

    /// Net matching changes per update.
    pub fn recourse_per_op(&self) -> f64 {
        self.committed.recourse_per_op()
    }
}

/// A timed replay job: replays `ops` updates on fresh engines per call.
pub struct Job<'a> {
    /// Name for failure messages.
    pub what: &'static str,
    /// Updates per replay.
    pub ops: usize,
    /// The state the gate replay committed, when the timed replays must
    /// reproduce it (deferring engines flushed at the gate's checkpoints,
    /// so theirs are only compared with each other).
    pub expect: Option<Committed>,
    /// One replay.
    pub run: Box<dyn FnMut(&mut Gate) -> Replay + 'a>,
}

/// Runs `jobs` round-robin — one replay of each job per round — for at
/// least `min_rounds` rounds and as many more as end by `deadline`, so that
/// every job's replays are spread over the rest of the measuring window and
/// each segment's fastest time is taken from the quietest moment. Every
/// replay must commit the same state.
pub fn round_robin(
    mut jobs: Vec<Job<'_>>,
    deadline: Instant,
    min_rounds: usize,
    gate: &mut Gate,
) -> Vec<Timed> {
    let mut runs: Vec<Vec<Vec<f64>>> = vec![Vec::new(); jobs.len()];
    let mut segments: Vec<Vec<Vec<f64>>> = vec![Vec::new(); jobs.len()];
    let mut first: Vec<Option<Committed>> = vec![None; jobs.len()];
    let mut rounds = 0usize;
    loop {
        let round_start = Instant::now();
        for (j, job) in jobs.iter_mut().enumerate() {
            let (batches, committed) = (job.run)(gate);
            let want = job.expect.as_ref().or(first[j].as_ref());
            match want {
                Some(want) => {
                    gate.check(*want == committed, || {
                        format!("{}: replay {rounds} committed a different state", job.what)
                    });
                }
                None => first[j] = Some(committed),
            }
            segments[j].push(segment_sums(&batches, SEGMENTS));
            runs[j].push(batches);
        }
        rounds += 1;
        let next = Instant::now() + round_start.elapsed();
        if rounds >= MAX_ROUNDS || (rounds >= min_rounds.max(1) && next > deadline) {
            break;
        }
    }
    jobs.into_iter()
        .enumerate()
        .map(|(j, job)| Timed {
            ops: job.ops,
            segment_min: elementwise_min(&segments[j]),
            batch_min: elementwise_min(&runs[j]),
            committed: job.expect.or(first[j].take()).unwrap_or_default(),
        })
        .collect()
}

/// Replays `ops` through an [`UpdateEngine`] in timed batches of `batch`
/// updates, then flushes (timed as the last batch). `at_batch` runs
/// untimed after every batch — the checkpoint hook of the gate replay.
/// Every update counts as one attempted operation.
pub fn replay_engine<E: UpdateEngine>(
    eng: &mut E,
    ops: &[UpdateOp],
    batch: usize,
    gate: &mut Gate,
    mut at_batch: impl FnMut(&mut E, usize, &mut Gate),
) -> Vec<f64> {
    let mut times = Vec::with_capacity(ops.len() / batch + 2);
    let mut errors = 0usize;
    for (i, chunk) in ops.chunks(batch).enumerate() {
        let t = Instant::now();
        for &op in chunk {
            errors += usize::from(eng.apply(op).is_err());
        }
        times.push(t.elapsed().as_secs_f64());
        at_batch(eng, i, gate);
    }
    let t = Instant::now();
    eng.flush();
    times.push(t.elapsed().as_secs_f64());
    gate.count(ops.len() as u64);
    gate.check(errors == 0, || format!("{errors} updates rejected"));
    times
}

/// Checks a final matching against the live graph and an exact optimum:
/// valid, and at or above `floor`. Returns the ratio.
pub fn check_final(
    gate: &mut Gate,
    what: &str,
    g: &Graph,
    matching: &Matching,
    optimum: i128,
    floor: f64,
) -> f64 {
    let valid = matching.validate(Some(g));
    gate.check(valid.is_ok(), || {
        format!("{what}: invalid matching: {valid:?}")
    });
    let ratio = if optimum == 0 {
        1.0
    } else {
        matching.weight() as f64 / optimum as f64
    };
    gate.check(ratio >= floor, || {
        format!("{what}: ratio {ratio} below floor {floor}")
    });
    ratio
}

/// Certifies a bipartite live graph with the LEKM oracle (certificate
/// verified) and checks `matching` against it. Returns the ratio.
pub fn certify_bipartite(
    gate: &mut Gate,
    what: &str,
    g: &Graph,
    side: &[bool],
    matching: &Matching,
    floor: f64,
) -> f64 {
    let Some(cert) = gate.ok(what, wmatch_oracle::certify_max_weight(g, side)) else {
        return 0.0;
    };
    let verified = cert.verify(g, side);
    gate.check(verified.is_ok(), || {
        format!("{what}: certificate rejected: {verified:?}")
    });
    check_final(gate, what, g, matching, cert.optimum, floor)
}

/// The serve path's engine configuration at `threads`.
pub fn serve_config(seed: u64, threads: usize) -> DynamicConfig {
    DynamicConfig::default()
        .with_seed(seed)
        .with_threads(threads)
}

/// Builds the serve path: a [`ShardedMatcher`] with `shards` shards and
/// the in-memory WAL on, behind a [`ServeDriver`].
pub fn serve_setup(
    n: usize,
    seed: u64,
    threads: usize,
    shards: usize,
) -> (ShardedMatcher, ServeDriver) {
    let mut eng = ShardedMatcher::new(n, serve_config(seed, threads), shards);
    eng.enable_wal(WalConfig::new());
    (eng, ServeDriver::new(RetryPolicy::default()))
}

/// Per-batch observation hook of a serve replay: batch seconds and the
/// engine after the batch.
pub type ServeHook<'a> = dyn FnMut(f64, &ShardedMatcher) + 'a;

/// Serves `ops` in batches of `batch` through the driver, timing every
/// batch's commit and the final `finish`.
pub fn replay_serve(
    eng: &mut ShardedMatcher,
    drv: &mut ServeDriver,
    ops: &[UpdateOp],
    batch: usize,
    gate: &mut Gate,
    hook: &mut ServeHook<'_>,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(ops.len() / batch + 2);
    let mut applied = 0usize;
    for chunk in ops.chunks(batch) {
        let t = Instant::now();
        let s = drv.serve(eng, chunk);
        let dt = t.elapsed().as_secs_f64();
        applied += s.applied;
        times.push(dt);
        hook(dt, eng);
    }
    let t = Instant::now();
    drv.finish(eng);
    times.push(t.elapsed().as_secs_f64());
    let skipped_ops = drv.stats().skipped_ops;
    gate.count(ops.len() as u64);
    gate.check(applied == ops.len() && skipped_ops == 0, || {
        format!(
            "serve: {applied} of {} updates applied, {skipped_ops} skipped",
            ops.len()
        )
    });
    times
}
