//! The paper's three drivers through the `wmatch-api` facade — the
//! static-solve job every workload runs on its own static graph — and
//! the traced replica of the offline driver that exposes the core sweep,
//! the exact box and the worker pool from outside.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wmatch_api::{solve, solver, Instance, SolveReport, SolveRequest};
use wmatch_core::layered::Parametrization;
use wmatch_core::main_alg::{
    improve_matching_offline_pooled, max_weight_matching_mpc, max_weight_matching_offline_stats,
    max_weight_matching_streaming, MainAlgConfig,
};
use wmatch_core::single_class::single_class_augmentations;
use wmatch_graph::exact::hopcroft_karp::max_bipartite_cardinality_matching_from;
use wmatch_graph::{Edge, Graph, Matching, Scratch, WorkerPool};
use wmatch_mpc::{MpcConfig, MpcMcmConfig};
use wmatch_stream::{EdgeStream, McmConfig, VecStream};

use crate::trace::Tracer;
use crate::{Gate, Metrics};

/// The facade solvers of the paper's reduction, in report order.
pub const DRIVERS: [&str; 3] = ["main-alg-offline", "main-alg-streaming", "main-alg-mpc"];

/// Algorithm 3 rounds every solve runs. Convergence-based stopping ends
/// after a seed-dependent number of rounds (9–13 offline at n = 300); a
/// fixed budget makes every instance run the same number of rounds, so
/// the pass and round counts compare across seeds. At n = 500 a two-round
/// solve costs 35% (streaming, MPC) to 63% (offline) of a three-round one,
/// so about twice as many graphs fit in a run, and the mean over many
/// graphs is what makes the figures steady.
const ROUND_BUDGET: usize = 2;

/// Simulated MPC machines.
const MPC_MACHINES: usize = 8;

/// Words of memory per simulated machine: O(n), sublinear in m for the
/// denser graphs and never below what one machine's share of edges needs.
fn mpc_memory_words(g: &Graph) -> usize {
    (8 * g.vertex_count()).max(3 * g.edge_count().div_ceil(MPC_MACHINES) + 64)
}

/// The facade instance a driver solves.
pub fn instance(driver: &str, g: &Graph) -> Instance {
    match driver {
        "main-alg-offline" => Instance::offline(g.clone()),
        "main-alg-streaming" => Instance::adversarial(g.clone()),
        "main-alg-mpc" => Instance::mpc(g.clone(), MPC_MACHINES, mpc_memory_words(g)),
        other => unreachable!("unknown driver {other}"),
    }
}

/// The request every driver solve uses: default ε, a fixed round budget,
/// certification on.
fn request(seed: u64, threads: usize) -> SolveRequest {
    SolveRequest::new()
        .with_seed(seed)
        .with_threads(threads)
        .with_round_budget(ROUND_BUDGET)
        .with_certify(true)
}

/// The core configuration the facade maps [`request`] onto (standard
/// effort), for calling the drivers directly.
fn core_config(seed: u64, threads: usize) -> MainAlgConfig {
    MainAlgConfig::practical(SolveRequest::new().eps, seed)
        .with_max_rounds(ROUND_BUDGET)
        .with_threads(threads)
}

/// Checks one certified report: valid matching, verified certificate,
/// ratio at or above the solver's declared floor. Returns the ratio.
fn check_report(gate: &mut Gate, what: &str, g: &Graph, r: &SolveReport) -> Option<f64> {
    let valid = r.matching.validate(Some(g));
    if !gate.check(valid.is_ok(), || {
        format!("{what}: invalid matching: {valid:?}")
    }) {
        return None;
    }
    let Some(cert) = r.certificate.as_ref() else {
        gate.check(false, || format!("{what}: no certificate"));
        return None;
    };
    let verified = cert.verify(g, &r.matching);
    if !gate.check(verified.is_ok(), || {
        format!("{what}: certificate rejected: {verified:?}")
    }) {
        return None;
    }
    let floor = solver(r.solver)
        .map(|s| s.capabilities().approx_floor)
        .unwrap_or(1.0);
    gate.check(cert.ratio >= floor, || {
        format!("{what}: ratio {} below declared floor {floor}", cert.ratio)
    });
    Some(cert.ratio)
}

/// The pass/round counters a driver's report must reproduce at every
/// thread count.
fn counters(r: &SolveReport) -> (usize, usize, usize, Option<String>) {
    let seq = r
        .telemetry
        .extra("passes_sequential")
        .or(r.telemetry.extra("rounds_sequential"))
        .map(str::to_string);
    (
        r.telemetry.rounds,
        r.telemetry.passes,
        r.telemetry.peak_stored_edges,
        seq,
    )
}

/// What the static-solve job measured.
#[derive(Debug, Clone, Default)]
pub struct StaticSolves {
    /// Per-instance certified facade solve time per driver (seconds):
    /// each instance's fastest across sweeps, averaged over instances.
    pub solve_s: [f64; 3],
    /// Stream passes of the streaming driver (model accounting), averaged
    /// over instances.
    pub stream_passes: f64,
    /// MPC rounds of the MPC driver (model accounting), averaged over
    /// instances.
    pub mpc_rounds: f64,
    /// Worst certified ratio over every solve.
    pub worst_ratio: f64,
}

impl StaticSolves {
    /// Writes the job's end-to-end metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.insert("offline.solve_s", self.solve_s[0]);
        m.insert("stream.solve_s", self.solve_s[1]);
        m.insert("mpc.solve_s", self.solve_s[2]);
        m.insert("stream.passes", self.stream_passes);
        m.insert("mpc.rounds", self.mpc_rounds);
    }
}

/// The solver seed of instance `i` of a workload seeded with `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// The static-solve job on an instance set; the offline driver solves
/// only the first `offline_graphs` graphs, the streaming and MPC drivers
/// all of them. First the correctness gate on the first instance: each
/// driver at `threads = nproc` and `threads = 1`, certified, bit-identical
/// matchings and counters (the `nproc` solves double as the untimed
/// warm-up). Then one timed sweep: every driver solves its instances at
/// `threads = nproc`, each solve certified and checked.
///
/// One solve's cost varies with the graph and the solver's random
/// bipartitions (a coefficient of variation of 0.15–0.5 at n = 500), so a
/// single instance cannot give a steady figure: the job reports the mean
/// over the set. The offline driver varies least and costs most, so it
/// gets the fewest instances.
pub fn static_solves(
    graphs: &[Graph],
    offline_graphs: usize,
    seed: u64,
    nproc: usize,
    gate: &mut Gate,
) -> StaticSolves {
    let mut out = StaticSolves {
        worst_ratio: 1.0,
        ..StaticSolves::default()
    };
    let Some(first) = graphs.first() else {
        gate.check(false, || "static solves: empty instance set".into());
        return out;
    };
    for d in DRIVERS {
        let inst = instance(d, first);
        let par = gate.ok(d, solve(d, &inst, &request(instance_seed(seed, 0), nproc)));
        let seq = gate.ok(d, solve(d, &inst, &request(instance_seed(seed, 0), 1)));
        let (Some(par), Some(seq)) = (par, seq) else {
            continue;
        };
        for (r, t) in [(&par, nproc), (&seq, 1)] {
            if let Some(ratio) = check_report(gate, &format!("{d} threads={t}"), first, r) {
                out.worst_ratio = out.worst_ratio.min(ratio);
            }
        }
        gate.check(par.matching.to_edges() == seq.matching.to_edges(), || {
            format!("{d}: threads={nproc} and threads=1 committed different matchings")
        });
        gate.check(counters(&par) == counters(&seq), || {
            format!(
                "{d}: threads={nproc} and threads=1 counters differ: {:?} vs {:?}",
                counters(&par),
                counters(&seq)
            )
        });
    }

    let counts = [
        offline_graphs.clamp(1, graphs.len()),
        graphs.len(),
        graphs.len(),
    ];
    let instances: Vec<Vec<Instance>> = graphs
        .iter()
        .map(|g| DRIVERS.iter().map(|d| instance(d, g)).collect())
        .collect();
    let mut secs = [0.0f64; 3];
    let (mut passes, mut mpc_rounds) = (0usize, 0usize);
    for (i, (g, insts)) in graphs.iter().zip(&instances).enumerate() {
        for (di, (d, inst)) in DRIVERS.iter().zip(insts).enumerate() {
            if i >= counts[di] {
                continue;
            }
            let t = Instant::now();
            let r = solve(d, inst, &request(instance_seed(seed, i), nproc));
            secs[di] += t.elapsed().as_secs_f64();
            let Some(r) = gate.ok(d, r) else { continue };
            if let Some(ratio) = check_report(gate, &format!("{d} instance {i}"), g, &r) {
                out.worst_ratio = out.worst_ratio.min(ratio);
            }
            match di {
                1 => passes += r.telemetry.passes,
                2 => mpc_rounds += r.telemetry.rounds,
                _ => {}
            }
        }
    }
    for di in 0..DRIVERS.len() {
        out.solve_s[di] = secs[di] / counts[di] as f64;
    }
    out.stream_passes = passes as f64 / graphs.len() as f64;
    out.mpc_rounds = mpc_rounds as f64 / graphs.len() as f64;
    out
}

/// An [`EdgeStream`] that times every pass it delivers (the pass time
/// includes the driver's per-edge work in the sink).
struct TimedStream {
    inner: VecStream,
    passes: Vec<(Instant, Instant)>,
}

impl EdgeStream for TimedStream {
    fn stream_pass(&mut self, sink: &mut dyn FnMut(Edge)) {
        let t = Instant::now();
        self.inner.stream_pass(sink);
        self.passes.push((t, Instant::now()));
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn vertex_count(&self) -> usize {
        self.inner.vertex_count()
    }

    fn passes(&self) -> usize {
        self.inner.passes()
    }
}

/// The traced static job: the paper's drivers called directly, with the
/// offline driver re-run as a replica on a pool the benchmark owns (a
/// span per Algorithm 3 round, and a probe sweep of the round's first
/// bipartition through a timed Hopcroft–Karp box), the streaming driver
/// on a pass-timing stream, the MPC driver under a span, and one exact
/// certification, all on the first instance of the set. Fills the core,
/// pool, stream, mpc, oracle and api per-layer metrics, and returns the
/// untraced and traced walls of the three drivers (for the
/// tracing-overhead figure) and the spans.
pub fn traced_static(
    g: &Graph,
    seed: u64,
    nproc: usize,
    gate: &mut Gate,
    m: &mut Metrics,
) -> (f64, f64, Tracer) {
    let n = g.vertex_count();
    let seed = instance_seed(seed, 0);
    let cfg = core_config(seed, nproc);

    // untraced reference walls: the facade solves, certification excluded
    let mut untraced = 0.0;
    let mut facade_offline = None;
    for d in DRIVERS {
        let t = Instant::now();
        let r = gate.ok(d, solve(d, &instance(d, g), &request(seed, nproc)));
        let wall = t.elapsed().as_secs_f64();
        untraced += wall - r.as_ref().map_or(0.0, certify_seconds);
        if d == DRIVERS[0] {
            facade_offline = r;
        }
    }

    // wmatch-api: the facade's offline solve minus its certification,
    // against the direct driver call; the fastest of three each, since
    // the difference is small next to one solve's run-to-run noise
    let mut tracer = Tracer::new();
    let offline = instance(DRIVERS[0], g);
    let (mut facade_s, mut direct_s) = (f64::INFINITY, f64::INFINITY);
    let mut direct = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = tracer.span("api.solve", || {
            solve(DRIVERS[0], &offline, &request(seed, nproc))
        });
        let wall = t.elapsed().as_secs_f64();
        if let Some(r) = gate.ok(DRIVERS[0], r) {
            facade_s = facade_s.min(wall - certify_seconds(&r));
        }
        let t = Instant::now();
        let out = tracer.span("core.offline_driver", || {
            max_weight_matching_offline_stats(g, Matching::new(n), &cfg)
        });
        direct_s = direct_s.min(t.elapsed().as_secs_f64());
        direct = Some(out);
    }
    let direct = direct.expect("three direct calls");
    m.insert("api.overhead_s", facade_s - direct_s);
    if let Some(r) = &facade_offline {
        gate.check(r.matching.to_edges() == direct.matching.to_edges(), || {
            "main-alg-offline: facade and direct driver disagree".into()
        });
    }

    // wmatch-core + pool: the offline driver's round loop on our pool
    let mut traced = 0.0;
    let replica_start = Instant::now();
    tracer.enter("core.offline_replica");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scratch = Scratch::new();
    let mut probe_scratch = Scratch::new();
    let mut pool = WorkerPool::new(cfg.threads);
    let mut matching = Matching::new(n);
    let grid = cfg.grid(g.max_weight());
    let tau_cfg = cfg.tau_config();
    let (mut rounds, mut stall, mut pairs, mut applied) = (0usize, 0usize, 0usize, 0usize);
    let (mut box_calls, mut box_s, mut sweep_s, mut improve_s) = (0usize, 0.0, 0.0, 0.0);
    for _ in 0..cfg.max_rounds {
        tracer.enter("core.round");
        if g.edge_count() > 0 {
            // probe: the round's first bipartition, one class at a time,
            // through a box closure that times every Hopcroft–Karp call
            let param = Parametrization::random(n, &mut rng.clone());
            tracer.enter("core.class_sweep");
            for &w_class in &grid {
                let mut calls: Vec<(Instant, Instant)> = Vec::new();
                tracer.enter("core.class");
                let mut hk = |lg: &Graph, side: &[bool], init: Matching| {
                    let t = Instant::now();
                    let out = max_bipartite_cardinality_matching_from(lg, side, init);
                    calls.push((t, Instant::now()));
                    out
                };
                single_class_augmentations(
                    g.edges(),
                    &matching,
                    w_class,
                    &param,
                    &tau_cfg,
                    &mut hk,
                    &mut probe_scratch,
                );
                for &(a, b) in &calls {
                    tracer.record("graph.hk_box", a, b);
                    box_s += (b - a).as_secs_f64();
                }
                sweep_s += tracer.exit();
                box_calls += calls.len();
            }
            tracer.exit();
        }
        tracer.enter("core.improve_round");
        let stats = improve_matching_offline_pooled(
            g,
            &mut matching,
            &cfg,
            &mut rng,
            &mut scratch,
            &mut pool,
        );
        improve_s += tracer.exit();
        tracer.exit();
        rounds += 1;
        pairs += stats.pairs_tried;
        applied += stats.applied;
        if stats.gain == 0 {
            stall += 1;
            if stall >= cfg.stall_rounds {
                break;
            }
        } else {
            stall = 0;
        }
    }
    tracer.exit();
    traced += replica_start.elapsed().as_secs_f64();
    gate.check(matching.to_edges() == direct.matching.to_edges(), || {
        "offline replica diverged from the offline driver".into()
    });
    m.insert("core.rounds", rounds as f64);
    m.insert("core.round_s", improve_s / rounds.max(1) as f64);
    m.insert("core.pairs_tried", pairs as f64);
    m.insert(
        "core.applied_per_pair",
        applied as f64 / pairs.max(1) as f64,
    );
    m.insert("core.box_calls", box_calls as f64);
    m.insert("core.box_share", box_s / sweep_s.max(f64::MIN_POSITIVE));
    let busy: Vec<f64> = pool.busy_ns().iter().map(|&b| b as f64 * 1e-9).collect();
    report_pool(m, &busy, improve_s, pool.steals(), nproc);

    // wmatch-stream: the streaming driver on a pass-timing stream
    let t = Instant::now();
    let mut ts = TimedStream {
        inner: VecStream::adversarial(g.edges().to_vec()).with_vertex_count(n),
        passes: Vec::new(),
    };
    let mcm = McmConfig::for_delta(cfg.eps).with_max_passes(SolveRequest::new().pass_budget);
    tracer.enter("stream.solve");
    let res = max_weight_matching_streaming(&mut ts, &cfg, &mcm);
    for &(a, b) in &ts.passes {
        tracer.record("stream.pass", a, b);
    }
    tracer.exit();
    traced += t.elapsed().as_secs_f64();
    let pass_s: Vec<f64> = ts
        .passes
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .collect();
    m.insert(
        "stream.pass_s",
        pass_s.iter().sum::<f64>() / pass_s.len().max(1) as f64,
    );
    m.insert("stream.passes_sequential", res.passes_sequential as f64);
    m.insert("stream.peak_edges", res.peak_memory_edges as f64);
    let valid = res.matching.validate(Some(g));
    gate.check(valid.is_ok(), || format!("streaming driver: {valid:?}"));

    // wmatch-mpc: the MPC driver under one span
    let t = Instant::now();
    let mpc_cfg = MpcConfig::new(MPC_MACHINES, mpc_memory_words(g));
    let mpc_mcm =
        MpcMcmConfig::for_delta(cfg.eps, seed).with_max_iterations(SolveRequest::new().pass_budget);
    let res = tracer.span("mpc.solve", || {
        max_weight_matching_mpc(g, &cfg, mpc_cfg, &mpc_mcm)
    });
    let mpc_s = t.elapsed().as_secs_f64();
    traced += mpc_s;
    if let Some(res) = gate.ok("mpc driver", res) {
        m.insert("mpc.round_s", mpc_s / res.rounds_sequential.max(1) as f64);
        m.insert("mpc.rounds_sequential", res.rounds_sequential as f64);
        m.insert("mpc.peak_machine_words", res.peak_machine_words as f64);
    }

    // wmatch-oracle: one exact certification of the instance
    if let Some(side) = g.bipartition() {
        let cert = tracer.span("oracle.certify", || {
            wmatch_oracle::certify_max_weight(g, &side)
        });
        if let Some(cert) = gate.ok("oracle", cert) {
            let verified = cert.verify(g, &side);
            gate.check(verified.is_ok(), || {
                format!("oracle certificate: {verified:?}")
            });
            m.insert("oracle.certify_s", tracer.total("oracle.certify"));
            m.insert("oracle.phases", cert.stats.phases as f64);
            m.insert("oracle.relaxations", cert.stats.relaxations as f64);
        }
    }
    (untraced, traced, tracer)
}

/// The certification time a facade report recorded (`certify_ns`).
fn certify_seconds(r: &SolveReport) -> f64 {
    r.telemetry
        .extra("certify_ns")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.0)
        * 1e-9
}

/// Writes the pool metrics from per-worker busy seconds over `wall`
/// seconds of pool jobs.
fn report_pool(m: &mut Metrics, busy: &[f64], wall: f64, steals: u64, nproc: usize) {
    let total: f64 = busy.iter().sum();
    let mean = total / busy.len().max(1) as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    let speedup = total / wall.max(f64::MIN_POSITIVE);
    m.insert("pool.busy_s.w0", busy.first().copied().unwrap_or(0.0));
    m.insert("pool.busy_s.w1", busy.get(1).copied().unwrap_or(0.0));
    m.insert("pool.imbalance", if mean > 0.0 { max / mean } else { 0.0 });
    m.insert("pool.speedup", speedup);
    // Σbusy/wall above the hardware thread count cannot be real
    // parallelism: flag it as a harness error
    let over = speedup > nproc as f64 * 1.05;
    if over {
        eprintln!("perfbench: harness error: pool.speedup {speedup:.2} exceeds nproc {nproc}");
    }
    m.insert("pool.speedup_over_nproc", f64::from(u8::from(over)));
    m.insert("pool.steals", steals as f64);
}
