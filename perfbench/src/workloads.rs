//! The three benchmark workloads, owned here rather than borrowed from
//! `bench::perf`, so an edit there cannot silently change what the
//! benchmark measures.
//!
//! Each workload has a set-up step (build and validate its spec, timed
//! as `setup_s`), a timed run (`run_s`) and an [`Outcome`]: the named
//! correctness checks, the simulated end-to-end metrics and a digest of
//! the full report, so two runs of one seed can be compared exactly.

use crate::metric::{fnv1a, Metric, Metrics};
use hades_chaos::{standard_spec, Campaign, ChaosFuzzer, FuzzConfig};
use hades_cluster::{
    ClosedLoop, ClusterEvent, ClusterReport, ClusterRun, ClusterSpec, GroupLoad, ScenarioPlan,
    ServiceSpec, TraceReplay,
};
use hades_dispatch::CostModel;
use hades_fabric::{
    mix64, Arrival, FabricDirector, FabricRun, FabricSpec, LoadClass, PopulationWorkload,
    ShardRouter,
};
use hades_sched::Policy;
use hades_services::ReplicaStyle;
use hades_sim::NodeId;
use hades_telemetry::monitor::{violations_to_jsonl, Violation};
use hades_time::{Duration, Time};
use std::cell::Cell;
use std::rc::Rc;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cluster96Failover,
    Fabric1m,
    ChaosCampaign,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cluster96_failover" => Some(Workload::Cluster96Failover),
            "fabric_1m" => Some(Workload::Fabric1m),
            "chaos_campaign" => Some(Workload::ChaosCampaign),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cluster96Failover => "cluster96_failover",
            Workload::Fabric1m => "fabric_1m",
            Workload::ChaosCampaign => "chaos_campaign",
        }
    }
}

/// Horizon of the cluster96 and fabric runs: long enough that the
/// per-event cost growth of a long run dominates the 30 ms start-up.
pub const HORIZON: Duration = Duration::from_millis(100);

/// Early horizon of the growth probe (`dispatch.growth`).
pub const EARLY_HORIZON: Duration = Duration::from_millis(30);

/// Programs per chaos campaign.
const CAMPAIGN_PROGRAMS: usize = 30;

/// Seed of the chaos campaign: fixed. How many counterexamples a
/// campaign finds, and how long each takes to shrink, swings with the
/// seed (a 30-program campaign took 1.4 s to 2.5 s over target seeds
/// 1–5 on a 2-vCPU 2.1 GHz Xeon), far beyond the spread the benchmark
/// allows between seeds. The benchmark seed draws the probe programs
/// instead.
const CAMPAIGN_SEED: u64 = 7;

/// Seed-drawn programs run once each after the campaign.
const PROBE_PROGRAMS: usize = 30;

// ---------------------------------------------------------------------------
// cluster96_failover

const CLUSTER_NODES: u32 = 96;

/// 96 nodes under EDF with measured costs, two periodic services per
/// node, and a semi-active group on nodes 0–2 serving a closed-loop
/// client (one outstanding request, 1 ms think time, 4 ms timeout).
/// The group leaders crash mid-request at 10.25 ms and 15.45 ms, and
/// node 0 rejoins at 20 ms.
pub fn cluster96_spec(seed: u64, horizon: Duration) -> ClusterSpec {
    let start = Time::ZERO + ms(2);
    let mut spec = ClusterSpec::new(CLUSTER_NODES)
        .policy(Policy::Edf)
        .costs(CostModel::measured_default())
        .horizon(horizon)
        .seed(seed)
        .scenario(
            ScenarioPlan::new()
                .crash(NodeId(0), Time::ZERO + us(10_250))
                .crash(NodeId(1), Time::ZERO + us(15_450))
                .restart(NodeId(0), Time::ZERO + ms(20)),
        )
        .service(
            ServiceSpec::replicated(
                "store",
                ReplicaStyle::SemiActive,
                vec![0, 1, 2],
                GroupLoad::default(),
            )
            .workload(Box::new(
                ClosedLoop::new(us(500), ms(1), start).with_timeout(ms(4)),
            )),
        );
    for node in 0..CLUSTER_NODES {
        spec = spec
            .service(ServiceSpec::periodic("control", node, us(200), ms(2)))
            .service(ServiceSpec::periodic("logging", node, us(500), ms(10)));
    }
    spec
}

// ---------------------------------------------------------------------------
// fabric_1m

const FABRIC_NODES: u32 = 24;
const FABRIC_SHARDS: u32 = 64;
/// Replicas per placement and the per-shard admission floor:
/// `FabricSpec`'s defaults, restated because
/// [`fabric_cluster_spec`] assembles the same deployment by hand.
const FABRIC_REPLICAS: u32 = 3;
const FABRIC_MIN_GAP: Duration = Duration::from_micros(250);
/// The node that crashes at 10 ms (a follower of placement 1).
const FABRIC_CRASHED_NODE: u32 = 4;

/// 10⁶ clients in three open-loop classes: Poisson browse, bursty
/// checkout and ramping api.
fn fabric_classes() -> Vec<LoadClass> {
    vec![
        LoadClass::new("browse", 700_000, Duration::from_secs(15)),
        LoadClass::new("checkout", 200_000, Duration::from_secs(8)).arrival(Arrival::Bursty {
            on: ms(4),
            off: ms(6),
        }),
        LoadClass::new("api", 100_000, Duration::from_secs(2))
            .arrival(Arrival::Ramp { from_permille: 300 }),
    ]
}

fn fabric_plan() -> ScenarioPlan {
    ScenarioPlan::new().crash(NodeId(FABRIC_CRASHED_NODE), Time::ZERO + ms(10))
}

/// The fabric as the library builds it: 64 shards (128 replica groups)
/// on 24 nodes, node 4 crashing at 10 ms.
pub fn fabric_spec(seed: u64, horizon: Duration) -> FabricSpec {
    fabric_classes()
        .into_iter()
        .fold(
            FabricSpec::new(FABRIC_NODES, FABRIC_SHARDS),
            FabricSpec::class,
        )
        .horizon(horizon)
        .seed(seed)
        .scenario(fabric_plan())
}

/// The same deployment as [`fabric_spec`], assembled from public parts
/// into a plain [`ClusterSpec`]: per-shard request schedules
/// materialized from the population classes and routed through the
/// shard ring, a primary and a standby group per shard, and the
/// rebalancing [`FabricDirector`]. `FabricSpec` keeps its cluster spec
/// internal, so this is how the benchmark validates the fabric as its
/// set-up step and attaches the profiler and watchdog to its traced run.
/// Its report must equal `FabricSpec::run`'s — a correctness check.
pub fn fabric_cluster_spec(seed: u64, horizon: Duration) -> ClusterSpec {
    let router = fabric_spec(seed, horizon).router();
    let schedules = fabric_schedules(&router, seed, horizon);
    let placements: Vec<Vec<u32>> = (0..FABRIC_NODES / FABRIC_REPLICAS)
        .map(|p| (p * FABRIC_REPLICAS..(p + 1) * FABRIC_REPLICAS).collect())
        .collect();
    let load = GroupLoad {
        request_wcet: us(10),
        order_wcet: us(2),
        attempts: 1,
        ..GroupLoad::default()
    };
    let mut spec = ClusterSpec::new(FABRIC_NODES)
        .seed(seed)
        .horizon(horizon)
        .scenario(fabric_plan())
        .driver(Box::new(FabricDirector::new(&router, placements.clone())));
    for (s, times) in (0..FABRIC_SHARDS).zip(schedules) {
        let trace = TraceReplay::new(times);
        let home = placements[router.home(s) as usize].clone();
        let standby = placements[router.standby(s) as usize].clone();
        spec = spec
            .service(
                ServiceSpec::replicated(format!("shard-{s}"), ReplicaStyle::SemiActive, home, load)
                    .workload(Box::new(trace.clone())),
            )
            .service(
                ServiceSpec::replicated(
                    format!("shard-{s}~alt"),
                    ReplicaStyle::SemiActive,
                    standby,
                    load,
                )
                .workload(Box::new(trace))
                .standby(),
            );
    }
    spec
}

/// Per-shard request instants: every class's aggregate stream routed to
/// its shard, sorted, and spaced by the admission floor.
fn fabric_schedules(router: &ShardRouter, seed: u64, horizon: Duration) -> Vec<Vec<Time>> {
    let mut per_shard: Vec<Vec<Time>> = vec![Vec::new(); FABRIC_SHARDS as usize];
    for (ci, class) in fabric_classes().into_iter().enumerate() {
        let stream = PopulationWorkload::new(class, mix64(seed ^ (ci as u64 + 1)));
        for (at, key) in stream.events(horizon) {
            per_shard[router.shard_of(key) as usize].push(at);
        }
    }
    let end = Time::ZERO + horizon;
    for times in &mut per_shard {
        times.sort_unstable();
        let mut next_free = Time::ZERO;
        times.retain_mut(|at| {
            *at = (*at).max(next_free);
            next_free = *at + FABRIC_MIN_GAP;
            *at < end
        });
    }
    per_shard
}

// ---------------------------------------------------------------------------
// chaos_campaign

/// One chaos_campaign run: the fixed-seed campaign, then
/// [`PROBE_PROGRAMS`] programs drawn from the benchmark seed, each run
/// once under the watchdog.
pub struct ChaosRun {
    /// The campaign's fuzzer (its factory re-runs minimized programs).
    pub fuzzer: ChaosFuzzer,
    pub campaign: Campaign,
    /// Spec-factory calls the campaign made: one per program run,
    /// shrink re-runs included.
    pub campaign_calls: u64,
    /// The violations each probe program raised.
    pub probes: Vec<Vec<Violation>>,
}

/// A fuzzer over the standard chaos target (`FuzzConfig::default()`:
/// 4 nodes, 100 ms) whose spec factory counts its calls and lets the
/// caller decorate each spec (the traced run attaches telemetry).
fn chaos_fuzzer(
    seed: u64,
    calls: Rc<Cell<u64>>,
    decorate: impl Fn(ClusterSpec) -> ClusterSpec + 'static,
) -> ChaosFuzzer {
    let cfg = FuzzConfig::default();
    let (nodes, horizon, spec_seed) = (cfg.nodes, cfg.horizon, cfg.spec_seed);
    ChaosFuzzer::new(
        cfg,
        seed,
        Box::new(move || {
            calls.set(calls.get() + 1);
            decorate(standard_spec(nodes, horizon, spec_seed))
        }),
    )
}

/// Runs the chaos_campaign workload; `decorate` is applied to every spec
/// the fuzzers build.
pub fn run_chaos(
    seed: u64,
    decorate: impl Fn(ClusterSpec) -> ClusterSpec + Clone + 'static,
) -> ChaosRun {
    let calls = Rc::new(Cell::new(0));
    let mut fuzzer = chaos_fuzzer(CAMPAIGN_SEED, calls.clone(), decorate.clone());
    let campaign = fuzzer.campaign(CAMPAIGN_PROGRAMS);
    let campaign_calls = calls.get();
    let mut probe = chaos_fuzzer(seed, Rc::new(Cell::new(0)), decorate);
    let probes = (0..PROBE_PROGRAMS)
        .map(|_| {
            let program = probe.generate();
            probe.violations_of(&program)
        })
        .collect();
    ChaosRun {
        fuzzer,
        campaign,
        campaign_calls,
        probes,
    }
}

// ---------------------------------------------------------------------------
// Set-up

/// One set-up of `workload`: build and validate its spec(s). Returns a
/// value derived from the work so it cannot be optimized away.
pub fn setup_once(workload: Workload, seed: u64) -> usize {
    match workload {
        Workload::Cluster96Failover => {
            let spec = cluster96_spec(seed, HORIZON);
            spec.validate().expect("cluster96 spec is valid");
            spec.services().len()
        }
        Workload::Fabric1m => {
            let spec = fabric_cluster_spec(seed, HORIZON);
            spec.validate().expect("fabric spec is valid");
            spec.services().len()
        }
        Workload::ChaosCampaign => {
            // Both fuzzers, their programs and one target spec each.
            let cfg = FuzzConfig::default();
            let mut fuzzers = [CAMPAIGN_SEED, seed].map(|s| ChaosFuzzer::standard(cfg.clone(), s));
            let programs = CAMPAIGN_PROGRAMS + PROBE_PROGRAMS;
            (0..programs)
                .map(|i| {
                    let spec = standard_spec(cfg.nodes, cfg.horizon, cfg.spec_seed);
                    spec.validate().expect("chaos target spec is valid");
                    fuzzers[i % 2].generate().ops.len()
                })
                .sum()
        }
    }
}

// ---------------------------------------------------------------------------
// Outcomes: correctness checks, simulated metrics, report digest

/// What one run produced, in deterministic form.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Named correctness checks, in a fixed order.
    pub checks: Vec<(String, bool)>,
    /// Simulated end-to-end metrics: deterministic functions of the
    /// seed, bit-identical across runs of one seed.
    pub sim: Metrics,
    /// [`run_digest`] of a cluster run, or FNV-1a of the campaign's
    /// violations and minimized programs.
    pub digest: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

/// The cluster-wide paper bounds every cluster workload must meet.
fn cluster_checks(out: &mut Outcome, r: &ClusterReport) {
    out.check("views_agree", r.views_agree);
    out.check("detection_within_bound", r.detection_within_bound());
    out.check("no_false_suspicions", r.no_false_suspicions());
    out.check("rejoin_within_bound", r.rejoin_within_bound());
    out.check("all_app_deadlines_met", r.all_app_deadlines_met());
    for g in &r.groups {
        let id = g.group;
        out.check(format!("group{id}.order_agreement"), g.order_agreement);
        out.check(format!("group{id}.order_consistent"), g.order_consistent);
        out.check(
            format!("group{id}.vote_mismatches_zero"),
            g.vote_mismatches == 0,
        );
    }
}

/// Nearest-rank percentile of ascending `samples` (1-based rank
/// `ceil(p · n)`), with the number of samples beyond it.
fn nearest_rank(samples: &[u64], permille: u64) -> (u64, u64) {
    let n = samples.len() as u64;
    let rank = (permille * n).div_ceil(1000).max(1);
    (samples[rank as usize - 1], n - rank)
}

/// Response-latency metrics: the median and the highest of p99.9 / p99
/// / p95 / p90 / p75 / p50 with at least ten samples beyond it.
fn response_metrics(sim: &mut Metrics, samples: &[u64]) {
    let (p50, tail, tail_permille) = if samples.is_empty() {
        (0, 0, 0)
    } else {
        let p50 = nearest_rank(samples, 500).0;
        let (tail, permille) = [999, 990, 950, 900, 750, 500]
            .into_iter()
            .map(|p| (nearest_rank(samples, p), p))
            .find(|((_, beyond), _)| *beyond >= 10)
            .map_or((p50, 500), |((v, _), p)| (v, p));
        (p50, tail, permille)
    };
    sim.push(Metric::new("resp_p50_us", p50 as f64 / 1e3, "sim_us"));
    sim.push(Metric::new("resp_tail_us", tail as f64 / 1e3, "sim_us"));
    sim.push(Metric::new(
        "resp_tail_pct",
        tail_permille as f64 / 10.0,
        "%",
    ));
    sim.push(Metric::new("resp_samples", samples.len() as f64, "count"));
}

fn sim_ms(d: Option<Duration>) -> f64 {
    d.map_or(0.0, |d| d.as_nanos() as f64 / 1e6)
}

/// Simulated metrics shared by both cluster workloads. `failed` counts
/// requests abandoned, dropped or answered beyond `Δ + δmax`; `due`
/// counts the requests that resolved (answered, abandoned or dropped)
/// by the horizon — a request still unresolved at the horizon was
/// submitted within the last output bound (plus, for the closed loop,
/// its timeout) and is not yet due.
fn cluster_sim(out: &mut Outcome, r: &ClusterReport, failed: u64, due: u64) {
    let mut samples: Vec<u64> = r
        .groups
        .iter()
        .flat_map(|g| g.response_ns.iter().copied())
        .collect();
    samples.sort_unstable();
    response_metrics(&mut out.sim, &samples);
    let frac = failed as f64 / due.max(1) as f64;
    out.sim.push(Metric::new("fail_frac", frac, "ratio"));
    out.sim
        .push(Metric::new("fail_count", failed as f64, "count"));
    out.sim.push(Metric::new("due_count", due as f64, "count"));
    let dups: u64 = r.groups.iter().map(|g| g.duplicate_outputs).sum();
    out.sim
        .push(Metric::new("dup_outputs", dups as f64, "count"));
    let failover = sim_ms(r.worst_failover_latency());
    out.sim.push(Metric::new("failover_ms", failover, "sim_ms"));
    let detect = sim_ms(r.worst_detection_latency());
    out.sim.push(Metric::new("detect_ms", detect, "sim_ms"));
    let rejoin = sim_ms(r.worst_rejoin_latency());
    out.sim.push(Metric::new("rejoin_ms", rejoin, "sim_ms"));
    let misses: u64 = r
        .node_reports
        .iter()
        .map(|n| n.app_misses + n.middleware_misses)
        .sum();
    out.sim
        .push(Metric::new("deadline_misses", misses as f64, "count"));
}

/// Digest of a cluster run's report and shard moves: everything the
/// cluster and fabric reports are folded from. The watchdog's violation
/// events are left out, since only the traced run raises them.
pub fn run_digest(run: &ClusterRun) -> u64 {
    let moves: Vec<&ClusterEvent> = run
        .events()
        .iter()
        .filter(|e| matches!(e, ClusterEvent::ShardMoved { .. }))
        .collect();
    fnv1a(format!("{:?}{moves:?}", run.report()).as_bytes())
}

pub fn cluster96_outcome(run: &ClusterRun) -> Outcome {
    let r = run.report();
    let mut out = Outcome::default();
    cluster_checks(&mut out, r);
    let g = &r.groups[0];
    // One request may still be in flight at the horizon.
    out.check(
        "outputs_plus_abandoned_cover_submitted",
        g.outputs + g.abandoned + 1 >= g.submitted,
    );
    cluster_sim(
        &mut out,
        r,
        g.abandoned + g.delayed_outputs,
        g.outputs + g.abandoned,
    );
    out.digest = run_digest(run);
    out
}

pub fn fabric_outcome(run: &FabricRun) -> Outcome {
    let r = run.cluster.report();
    let f = &run.report;
    let mut out = Outcome::default();
    cluster_checks(&mut out, r);
    // The director moves exactly the shards homed on the crashed
    // node's placement.
    let router = fabric_spec(r.seed, HORIZON).router();
    let crashed_placement = FABRIC_CRASHED_NODE / FABRIC_REPLICAS;
    let expected: Vec<u32> = (0..FABRIC_SHARDS)
        .filter(|s| router.home(*s) == crashed_placement)
        .collect();
    let mut moved: Vec<u32> = f.moves.iter().map(|m| m.shard).collect();
    moved.sort_unstable();
    out.check("move_set_is_crashed_placement", moved == expected);
    let t = &f.totals;
    let abandoned: u64 = r.groups.iter().map(|g| g.abandoned).sum();
    cluster_sim(
        &mut out,
        r,
        abandoned + t.dropped + t.delayed,
        t.on_time + t.delayed + t.dropped + abandoned,
    );
    out.sim.extend([
        Metric::new("fabric.requests_routed", t.routed as f64, "count"),
        Metric::new("fabric.requests_moved", t.moved as f64, "count"),
        Metric::new("fabric.requests_dropped", t.dropped as f64, "count"),
    ]);
    out.digest = run_digest(&run.cluster);
    out
}

/// Every minimized counterexample must still reproduce its violation.
pub fn chaos_outcome(run: &ChaosRun) -> Outcome {
    let mut out = Outcome::default();
    let campaign = &run.campaign;
    for (i, cx) in campaign.counterexamples.iter().enumerate() {
        out.check(
            format!("cx{i}.minimized_reproduces"),
            run.fuzzer.reproduces(&cx.minimized, &cx.key),
        );
    }
    let cxs = campaign.counterexamples.len();
    let programs = campaign.programs_run as u64;
    // Wasted work: program runs spent shrinking, per counterexample.
    let reruns = run.campaign_calls.saturating_sub(programs) as f64 / cxs.max(1) as f64;
    let violations: usize = campaign
        .counterexamples
        .iter()
        .map(|c| c.violations.len())
        .sum();
    let probes_violating = run.probes.iter().filter(|v| !v.is_empty()).count();
    out.sim.extend([
        Metric::new("chaos.programs_run", programs as f64, "count"),
        Metric::new("chaos.factory_calls", run.campaign_calls as f64, "count"),
        Metric::new("chaos.reruns_per_cx", reruns, "ratio"),
        Metric::new("chaos.counterexamples", cxs as f64, "count"),
        Metric::new("chaos.violations", violations as f64, "count"),
        Metric::new(
            "chaos.duplicates_skipped",
            campaign.duplicates_skipped as f64,
            "count",
        ),
        Metric::new("chaos.probes_violating", probes_violating as f64, "count"),
    ]);
    let mut text = campaign.violations_jsonl();
    for cx in &campaign.counterexamples {
        text.push_str(&cx.minimized.to_json());
        text.push('\n');
    }
    for violations in &run.probes {
        text.push_str(&violations_to_jsonl(violations));
    }
    out.digest = fnv1a(text.as_bytes());
    out
}
