//! The traced run and the per-layer metrics.
//!
//! Everything here is measured from outside the program: spans recorded
//! by this file around calls into each crate's public API, the
//! program's own telemetry counters, and the profiler's per-kind
//! handler wall clock. The layers are the crates.

use crate::metric::{checks_json, median, number, quote, Metric, Metrics};
use crate::reference;
use crate::workloads::{self, Workload, EARLY_HORIZON, HORIZON};
use hades_chaos::{standard_spec, ChaosFuzzer, FuzzConfig};
use hades_cluster::{ClusterRun, ClusterSpec};
use hades_dispatch::CostModel;
use hades_fabric::{mix64, HashRing, ShardRouter};
use hades_sched::analysis::rta::RtaTask;
use hades_sched::{edf_feasible, rta_feasible, EdfAnalysisConfig};
use hades_sim::{
    Engine, FaultPlan, KernelModel, LinkConfig, Network, NodeId, Scheduler, SimRng, Simulation,
};
use hades_task::{SpuriTask, TaskId};
use hades_telemetry::{MetricsSnapshot, Profiler, Registry, Watchdog};
use hades_time::{Duration, Time};
use std::hint::black_box;
use std::time::Instant;

/// One per-layer metric: its unit, the layer (crate) it measures, the
/// end-to-end metric it should move, and the workloads where it should
/// move most and least.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub layer: &'static str,
    pub moves: &'static str,
    pub most_least: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    moves: &'static str,
    most_least: &'static str,
) -> Row {
    Row {
        name,
        unit,
        layer,
        moves,
        most_least,
    }
}

const C96: &str = "cluster96_failover / chaos_campaign";
const SIM_OUT: &str = "simulated output";

/// Every per-layer metric, in output order. A metric a workload lacks
/// (a fabric counter on a cluster run, a response time on the chaos
/// campaign) reads 0 there.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    row("sim.events", "count", "hades-sim engine", "run_s", C96),
    row("sim.queue_peak", "count", "hades-sim engine", "run_s", C96),
    row("sim.ns_per_event", "ns", "hades-sim engine", "run_s", C96),
    row("sim.engine_ns_2k", "ns", "hades-sim engine", "run_s", C96),
    row("sim.engine_ns_2k_cancel", "ns", "hades-sim engine", "run_s", C96),
    row("sim.engine_ns_45k", "ns", "hades-sim engine", "run_s", C96),
    row("sim.engine_ns_45k_cancel", "ns", "hades-sim engine", "run_s", C96),
    row("sim.unattributed_ms", "ms", "hades-sim engine", "run_s", C96),
    row("sim.net_msgs", "count", "hades-sim net", "run_s", "cluster96_failover / fabric_1m"),
    row("sim.net_hb_permille", "permille", "hades-sim net", "run_s", "cluster96_failover / fabric_1m"),
    row("sim.net_transit_ns", "ns", "hades-sim net", "run_s", "cluster96_failover / fabric_1m"),
    row("sim.net_transit_gray_ns", "ns", "hades-sim net", "run_s", "chaos_campaign / fabric_1m"),
    row("mux.message_events", "count", "hades-sim mux", "run_s", C96),
    row("mux.timer_events", "count", "hades-sim mux", "run_s", C96),
    row("mux.notify_events", "count", "hades-sim mux", "run_s", C96),
    row("mux.wall_actor_ms", "ms", "hades-sim mux", "run_s", C96),
    row("dispatch.ctx_switches", "count", "hades-dispatch", "run_s", C96),
    row("dispatch.wall_work_done_ms", "ms", "hades-dispatch", "run_s", C96),
    row("dispatch.wall_activate_ms", "ms", "hades-dispatch", "run_s", C96),
    row("dispatch.growth", "ratio", "hades-dispatch", "run_s, peak_rss_mb", C96),
    row("sched.feasibility_us", "us", "hades-sched", "run_s", "chaos_campaign / fabric_1m"),
    row("cluster.validate_us", "us", "hades-cluster", "setup_s", "cluster96_failover / fabric_1m"),
    row("services.heartbeats", "count", "hades-services", "run_s, failover_ms, rejoin_ms", "cluster96_failover / chaos_campaign"),
    row("services.msgs_per_request", "ratio", "hades-services", "run_s", "fabric_1m / chaos_campaign"),
    row("services.vc_messages", "count", "hades-services", "run_s, failover_ms", "cluster96_failover / chaos_campaign"),
    row("services.recovery_bytes", "bytes", "hades-services", "rejoin_ms", "cluster96_failover / chaos_campaign"),
    row("services.join_retries", "count", "hades-services", "rejoin_ms", "cluster96_failover / chaos_campaign"),
    row("fabric.route_ns", "ns", "hades-fabric", "setup_s", "fabric_1m / others"),
    row("fabric.ring_build_us", "us", "hades-fabric", "setup_s", "fabric_1m / others"),
    row("fabric.requests_routed", "count", "hades-fabric", "run_s", "fabric_1m / others"),
    row("fabric.requests_moved", "count", "hades-fabric", "fail_frac", "fabric_1m / others"),
    row("fabric.requests_dropped", "count", "hades-fabric", "fail_frac", "fabric_1m / others"),
    row("chaos.programs_run", "count", "hades-chaos", "run_s", "chaos_campaign / others"),
    row("chaos.factory_calls", "count", "hades-chaos", "run_s", "chaos_campaign / others"),
    row("chaos.reruns_per_cx", "ratio", "hades-chaos", "run_s", "chaos_campaign / others"),
    row("chaos.counterexamples", "count", "hades-chaos", "run_s", "chaos_campaign / others"),
    row("chaos.program_ms_p50", "ms", "hades-chaos", "run_s", "chaos_campaign / others"),
    row("chaos.program_ms_p90", "ms", "hades-chaos", "run_s", "chaos_campaign / others"),
    row("chaos.generate_us", "us", "hades-chaos", "setup_s", "chaos_campaign / others"),
    row("host.factor", "ratio", "host (reference pass / nominal)", "all host times", "-"),
    row("telemetry.traced_run_s", "s", "hades-telemetry", "none (tracing cost)", "-"),
    row("telemetry.overhead_pct", "%", "hades-telemetry", "none (tracing cost)", "-"),
    row("telemetry.spans_dropped", "count", "hades-telemetry", "none (tracing cost)", "-"),
    row("watch.violations", "count", "hades-telemetry", "none (observation)", "-"),
    row("resp_p50_us", "sim_us", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("resp_tail_us", "sim_us", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("resp_tail_pct", "%", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("resp_samples", "count", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("fail_frac", "ratio", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("fail_count", "count", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("due_count", "count", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("dup_outputs", "count", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("failover_ms", "sim_ms", "end-to-end, simulated", SIM_OUT, "cluster96_failover"),
    row("detect_ms", "sim_ms", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
    row("rejoin_ms", "sim_ms", "end-to-end, simulated", SIM_OUT, "cluster96_failover"),
    row("deadline_misses", "count", "end-to-end, simulated", SIM_OUT, "cluster workloads"),
];

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer, recorded by the benchmark.
struct Span {
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; returns its value and wall seconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// `[{"name","layer","parent","start_ns","dur_ns","self_ns"}, ...]`:
    /// self time is the span's duration minus its children's.
    fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&child_ns)
            .map(|(s, child)| {
                let dur = s.end_ns - s.start_ns;
                format!(
                    "{{\"name\":{},\"layer\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{dur},\
                     \"self_ns\":{}}}",
                    quote(s.name),
                    quote(s.layer),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    dur.saturating_sub(*child),
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

// ---------------------------------------------------------------------------
// The traced run

/// Counters and handler wall clock read from one observed run.
struct Observed {
    metrics: MetricsSnapshot,
    /// Profiler per-kind handler wall, `(kind, ns)`.
    walls: Vec<(String, u64)>,
    violations: usize,
}

impl Observed {
    fn counter(&self, name: &str) -> f64 {
        self.metrics.counter(name).unwrap_or(0) as f64
    }

    fn wall_ms(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let ns: u64 = self
            .walls
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / 1e6
    }
}

/// A cluster spec with every observation hook attached.
fn observe(spec: ClusterSpec, registry: &Registry, profiler: &Profiler) -> ClusterSpec {
    spec.telemetry(registry.clone())
        .profile(profiler.clone())
        .monitors(Watchdog::standard())
}

fn observed_cluster(run: &ClusterRun, registry: &Registry, profiler: &Profiler) -> Observed {
    Observed {
        metrics: registry.snapshot(),
        walls: profiler.wall_totals(),
        violations: run.violations().len(),
    }
}

/// Engine events of an untraced-equivalent run (a registry only counts).
fn events_of(spec: ClusterSpec) -> f64 {
    let registry = Registry::enabled();
    let _ = spec.telemetry(registry.clone()).run().expect("valid spec");
    registry.snapshot().counter("engine.events").unwrap_or(0) as f64
}

/// Host ns/event over the late part of the horizon divided by the early
/// part, from an early-horizon and a full-horizon run.
fn growth(early_s: f64, early_events: f64, full_s: f64, full_events: f64) -> f64 {
    let early = early_s / early_events.max(1.0);
    let late = (full_s - early_s) / (full_events - early_events).max(1.0);
    late / early
}

/// Median wall seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

pub fn traced(workload: Workload, seed: u64) -> String {
    let ref_before = reference::seconds();
    let mut spans = Spans::new();
    let mut layers: Metrics = Vec::new();
    let mut checks: Vec<(String, bool)> = Vec::new();

    let ((untraced_s, outcome), _) = spans.time("untraced_run", workload.name(), |_| {
        crate::untraced_run(workload, seed)
    });
    checks.extend(outcome.checks.iter().cloned());

    let registry = Registry::enabled();
    let profiler = Profiler::enabled();
    let (observed, traced_s, same) = match workload {
        Workload::Cluster96Failover => {
            let spec = observe(
                workloads::cluster96_spec(seed, HORIZON),
                &registry,
                &profiler,
            );
            let (run, traced_s) = spans.time("traced_run", "hades-cluster", |_| {
                spec.run().expect("cluster96 spec is valid")
            });
            let traced = workloads::cluster96_outcome(&run);
            let same = traced.digest == outcome.digest && traced.sim == outcome.sim;
            (observed_cluster(&run, &registry, &profiler), traced_s, same)
        }
        Workload::Fabric1m => {
            // The hand-assembled twin of the timed `FabricSpec` run: the
            // only way to attach the profiler and the watchdog.
            let spec = observe(
                workloads::fabric_cluster_spec(seed, HORIZON),
                &registry,
                &profiler,
            );
            let (run, traced_s) = spans.time("traced_run", "hades-fabric", |_| {
                spec.run().expect("fabric cluster spec is valid")
            });
            let same = workloads::run_digest(&run) == outcome.digest;
            (observed_cluster(&run, &registry, &profiler), traced_s, same)
        }
        Workload::ChaosCampaign => {
            let (reg, prof) = (registry.clone(), profiler.clone());
            let decorate = move |s: ClusterSpec| s.telemetry(reg.clone()).profile(prof.clone());
            let (run, traced_s) = spans.time("traced_run", "hades-chaos", |_| {
                workloads::run_chaos(seed, decorate)
            });
            let observed = Observed {
                metrics: registry.snapshot(),
                walls: profiler.wall_totals(),
                violations: run
                    .campaign
                    .counterexamples
                    .iter()
                    .map(|c| c.violations.len())
                    .chain(run.probes.iter().map(Vec::len))
                    .sum(),
            };
            let traced = workloads::chaos_outcome(&run);
            let same = traced.digest == outcome.digest && traced.sim == outcome.sim;
            (observed, traced_s, same)
        }
    };
    checks.push(("traced_run_matches_untraced".to_string(), same));

    let events = observed.counter("engine.events");
    let handler_ms = observed.wall_ms(|_| true);
    let msgs = observed.counter("net.msgs.total");
    let submitted = observed.counter("group.requests_submitted");
    layers.extend([
        Metric::new("sim.events", events, "count"),
        Metric::new(
            "sim.queue_peak",
            observed
                .metrics
                .gauge("engine.queue_depth_peak")
                .unwrap_or(0) as f64,
            "count",
        ),
        Metric::new("sim.ns_per_event", untraced_s * 1e9 / events.max(1.0), "ns"),
        Metric::new("sim.unattributed_ms", traced_s * 1e3 - handler_ms, "ms"),
        Metric::new("sim.net_msgs", msgs, "count"),
        Metric::new(
            "sim.net_hb_permille",
            observed.counter("net.msgs.agent.hb") * 1000.0 / msgs.max(1.0),
            "permille",
        ),
        Metric::new(
            "mux.message_events",
            observed.counter("actors.message_events"),
            "count",
        ),
        Metric::new(
            "mux.timer_events",
            observed.counter("actors.timer_events"),
            "count",
        ),
        Metric::new(
            "mux.notify_events",
            observed.counter("actors.notify_events"),
            "count",
        ),
        Metric::new(
            "mux.wall_actor_ms",
            observed.wall_ms(|k| k.starts_with("actor.")),
            "ms",
        ),
        Metric::new(
            "dispatch.ctx_switches",
            observed.counter("dispatch.ctx_switches"),
            "count",
        ),
        Metric::new(
            "dispatch.wall_work_done_ms",
            observed.wall_ms(|k| k == "work_done"),
            "ms",
        ),
        Metric::new(
            "dispatch.wall_activate_ms",
            observed.wall_ms(|k| k == "activate"),
            "ms",
        ),
        Metric::new(
            "services.heartbeats",
            observed.counter("agents.heartbeats_sent"),
            "count",
        ),
        Metric::new(
            "services.msgs_per_request",
            observed.counter("group.messages") / submitted.max(1.0),
            "ratio",
        ),
        Metric::new(
            "services.vc_messages",
            observed.counter("agents.vc_messages"),
            "count",
        ),
        Metric::new(
            "services.recovery_bytes",
            observed.counter("recovery.bytes_transferred"),
            "bytes",
        ),
        Metric::new(
            "services.join_retries",
            observed.counter("agents.join_retries"),
            "count",
        ),
        Metric::new("telemetry.traced_run_s", traced_s, "s"),
        Metric::new(
            "telemetry.overhead_pct",
            (traced_s - untraced_s) * 100.0 / untraced_s,
            "%",
        ),
        Metric::new(
            "telemetry.spans_dropped",
            observed.counter("telemetry.spans_dropped"),
            "count",
        ),
        Metric::new("watch.violations", observed.violations as f64, "count"),
    ]);

    let ((), _) = spans.time("growth_probe", "hades-dispatch", |_| {
        layers.push(Metric::new(
            "dispatch.growth",
            growth_probe(workload, seed, untraced_s, events),
            "ratio",
        ));
    });
    spans.time("microbenchmarks", "all", |spans| {
        microbenchmarks(spans, &mut layers, workload, seed)
    });
    layers.extend(outcome.sim.iter().cloned());
    let ref_s = (ref_before + reference::seconds()) / 2.0;
    layers.push(Metric::new(
        "host.factor",
        ref_s / reference::NOMINAL_PASS_S,
        "ratio",
    ));

    let correct = checks.iter().all(|(_, ok)| *ok);
    let rows: Vec<String> = ROWS
        .iter()
        .map(|r| {
            let value = layers
                .iter()
                .find(|m| m.name == r.name)
                .map_or(0.0, |m| m.value);
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"layer\":{},\"moves\":{},\"most_least\":{}}}",
                quote(r.name),
                number(value),
                quote(r.unit),
                quote(r.layer),
                quote(r.moves),
                quote(r.most_least),
            )
        })
        .collect();
    format!(
        "{{\"mode\":\"traced\",\"workload\":{},\"seed\":{seed},\"correct\":{correct},\
         \"checks\":{},\"layers\":{{{}}},\"spans\":{}}}",
        quote(workload.name()),
        checks_json(&checks),
        rows.join(","),
        spans.to_json(),
    )
}

/// `dispatch.growth`: the full run's late-horizon ns/event over an
/// early-horizon run's ns/event. The chaos campaign's runs are short
/// and many, so its probe uses the fault-free chaos target instead.
fn growth_probe(workload: Workload, seed: u64, full_s: f64, full_events: f64) -> f64 {
    match workload {
        Workload::Cluster96Failover => {
            let spec = || workloads::cluster96_spec(seed, EARLY_HORIZON);
            let early_s = median_secs(3, || {
                black_box(spec().run().expect("valid spec"));
            });
            growth(early_s, events_of(spec()), full_s, full_events)
        }
        Workload::Fabric1m => {
            let early_s = median_secs(3, || {
                black_box(
                    workloads::fabric_spec(seed, EARLY_HORIZON)
                        .run()
                        .expect("valid"),
                );
            });
            let registry = Registry::enabled();
            let _ = workloads::fabric_spec(seed, EARLY_HORIZON)
                .telemetry(registry.clone())
                .run()
                .expect("valid spec");
            let early_events = registry.snapshot().counter("engine.events").unwrap_or(0) as f64;
            growth(early_s, early_events, full_s, full_events)
        }
        Workload::ChaosCampaign => {
            let cfg = FuzzConfig::default();
            let spec = |h| standard_spec(cfg.nodes, h, seed);
            let time = |h| {
                median_secs(9, || {
                    black_box(spec(h).run().expect("valid spec"));
                })
            };
            let (early_s, late_s) = (time(EARLY_HORIZON), time(cfg.horizon));
            growth(
                early_s,
                events_of(spec(EARLY_HORIZON)),
                late_s,
                events_of(spec(cfg.horizon)),
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Layer microbenchmarks (public entry points only)

/// Samples per microbenchmark; each reports its median.
const SAMPLES: usize = 5;

/// A hold-model simulation: every delivered event reposts itself a
/// uniform random delay later, so the queue stays at its initial depth.
/// With `cancel_every = 4`, one delivery in four also posts and cancels
/// an extra event.
struct Hold {
    rng: SimRng,
    mean_ns: u64,
    cancel_every: u64,
    handled: u64,
}

impl Hold {
    fn delay(&mut self) -> Duration {
        Duration::from_nanos(1 + self.rng.below(2 * self.mean_ns))
    }
}

impl Simulation for Hold {
    type Event = u32;

    fn handle(&mut self, now: Time, event: u32, sched: &mut Scheduler<u32>) {
        self.handled += 1;
        let at = now + self.delay();
        sched.post(at, event);
        if self.cancel_every != 0 && self.handled.is_multiple_of(self.cancel_every) {
            let at = now + self.delay();
            let id = sched.post(at, event);
            sched.cancel(id);
        }
    }
}

/// Host ns per delivered event of `Engine::run` at `depth` pending.
fn engine_ns(depth: u64, cancel_every: u64, events: u64, seed: u64) -> f64 {
    let mean_ns = 10_000;
    let mut sim = Hold {
        rng: SimRng::seed_from(seed),
        mean_ns,
        cancel_every,
        handled: 0,
    };
    let mut engine = Engine::new();
    for i in 0..depth {
        let at = Time::ZERO + sim.delay();
        engine.post(at, i as u32);
    }
    let until = Time::ZERO + Duration::from_nanos(events * mean_ns / depth);
    let t = Instant::now();
    let delivered = engine.run(&mut sim, until);
    t.elapsed().as_nanos() as f64 / delivered.max(1) as f64
}

/// Host ns per `Network::transit` over 96 nodes, optionally under a
/// gray fault plan (degraded and one-way-cut links).
fn transit_ns(gray: bool, calls: u64, seed: u64) -> f64 {
    let nodes = 96;
    let link = LinkConfig::reliable(Duration::from_micros(10), Duration::from_micros(50));
    let mut net = Network::homogeneous(nodes, link, SimRng::seed_from(seed));
    let end = Time::ZERO + Duration::from_secs(1);
    if gray {
        let mut plan = FaultPlan::new();
        for i in 0..8 {
            plan = plan
                .degrade_link(
                    NodeId(i),
                    NodeId(i + 1),
                    Time::ZERO,
                    end,
                    Duration::from_micros(200),
                    300,
                )
                .cut_link(NodeId(i + 8), NodeId(i + 9), Time::ZERO, end);
        }
        net = net.with_fault_plan(plan);
    }
    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let pairs: Vec<(NodeId, NodeId)> = (0..4096)
        .map(|_| {
            let from = rng.below(nodes as u64) as u32;
            let to = (from + 1 + rng.below(nodes as u64 - 1) as u32) % nodes;
            (NodeId(from), NodeId(to))
        })
        .collect();
    let t = Instant::now();
    for i in 0..calls {
        let (from, to) = pairs[(i % 4096) as usize];
        let now = Time::ZERO + Duration::from_nanos(i * 16);
        black_box(net.transit(from, to, now));
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// The feasibility analyses' input: one node's periodic load in the
/// workload, as `(wcet, period)` pairs with implicit deadlines. A
/// fabric node hosts about 16 replica-group members, each admitted as
/// a 10 µs request cost at the 250 µs shard floor.
fn node_tasks(workload: Workload) -> Vec<(Duration, Duration)> {
    let (us, ms) = (Duration::from_micros, Duration::from_millis);
    match workload {
        Workload::Cluster96Failover => vec![(us(200), ms(2)), (us(500), ms(10))],
        Workload::Fabric1m => vec![(us(10), us(250)); 16],
        Workload::ChaosCampaign => vec![(us(200), ms(2))],
    }
}

/// Host µs per `edf_feasible` + `rta_feasible` pair on one node's set.
fn feasibility_us(workload: Workload, calls: u32) -> f64 {
    let tasks = node_tasks(workload);
    let spuri: Vec<SpuriTask> = tasks
        .iter()
        .enumerate()
        .map(|(i, &(c, p))| SpuriTask::independent(TaskId(i as u32), format!("t{i}"), c, p, p))
        .collect();
    let rta: Vec<RtaTask> = tasks
        .iter()
        .map(|&(c, p)| RtaTask {
            c,
            period: p,
            deadline: p,
            blocking: Duration::ZERO,
        })
        .collect();
    let costs = CostModel::measured_default();
    let kernel = KernelModel::none();
    let cfg = EdfAnalysisConfig::with_platform(costs, kernel.clone());
    let t = Instant::now();
    for _ in 0..calls {
        black_box(edf_feasible(black_box(&spuri), &cfg));
        black_box(rta_feasible(black_box(&rta), &costs, &kernel));
    }
    t.elapsed().as_nanos() as f64 / 1e3 / f64::from(calls)
}

/// Host µs per `ClusterSpec::validate` of the workload's own spec.
fn validate_us(workload: Workload, seed: u64, calls: u32) -> f64 {
    let spec = match workload {
        Workload::Cluster96Failover => workloads::cluster96_spec(seed, HORIZON),
        Workload::Fabric1m => workloads::fabric_cluster_spec(seed, HORIZON),
        Workload::ChaosCampaign => {
            let cfg = FuzzConfig::default();
            standard_spec(cfg.nodes, cfg.horizon, cfg.spec_seed)
        }
    };
    let t = Instant::now();
    for _ in 0..calls {
        black_box(spec.validate()).expect("valid spec");
    }
    t.elapsed().as_nanos() as f64 / 1e3 / f64::from(calls)
}

/// Host ns per `ShardRouter::shard_of` + `home` over 10⁶ keys.
fn route_ns(router: &ShardRouter) -> f64 {
    let keys = 1_000_000u64;
    let t = Instant::now();
    let mut acc = 0u32;
    for k in 0..keys {
        let shard = router.shard_of(mix64(black_box(k)));
        acc ^= router.home(shard);
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / keys as f64
}

/// Host µs per `HashRing::new` for the fabric's 8 placements.
fn ring_build_us(calls: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        black_box(HashRing::new(black_box(8), 16));
    }
    t.elapsed().as_nanos() as f64 / 1e3 / f64::from(calls)
}

/// Host µs per `ChaosFuzzer::generate`.
fn generate_us(seed: u64, calls: u32) -> f64 {
    let mut fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), seed);
    let t = Instant::now();
    for _ in 0..calls {
        black_box(fuzzer.generate());
    }
    t.elapsed().as_nanos() as f64 / 1e3 / f64::from(calls)
}

/// Host ms of `ChaosFuzzer::violations_of` per generated program:
/// (p50, p90) over `programs` programs.
fn program_ms(seed: u64, programs: usize) -> (f64, f64) {
    let mut fuzzer = ChaosFuzzer::standard(FuzzConfig::default(), seed);
    let mut samples: Vec<f64> = (0..programs)
        .map(|_| {
            let program = fuzzer.generate();
            let t = Instant::now();
            black_box(fuzzer.violations_of(&program));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let at = |permille: usize| samples[(permille * programs).div_ceil(1000).max(1) - 1];
    (at(500), at(900))
}

fn microbenchmarks(spans: &mut Spans, out: &mut Metrics, workload: Workload, seed: u64) {
    let mut sampled = |spans: &mut Spans,
                       name: &'static str,
                       layer: &'static str,
                       unit: &'static str,
                       f: &mut dyn FnMut() -> f64| {
        let (value, _) = spans.time(name, layer, |_| {
            let mut samples: Vec<f64> = (0..SAMPLES).map(|_| f()).collect();
            median(&mut samples)
        });
        out.push(Metric::new(name, value, unit));
    };
    let engine = "hades-sim engine";
    sampled(spans, "sim.engine_ns_2k", engine, "ns", &mut || {
        engine_ns(2_000, 0, 150_000, seed)
    });
    sampled(spans, "sim.engine_ns_2k_cancel", engine, "ns", &mut || {
        engine_ns(2_000, 4, 150_000, seed)
    });
    sampled(spans, "sim.engine_ns_45k", engine, "ns", &mut || {
        engine_ns(45_000, 0, 150_000, seed)
    });
    sampled(spans, "sim.engine_ns_45k_cancel", engine, "ns", &mut || {
        engine_ns(45_000, 4, 150_000, seed)
    });
    let net = "hades-sim net";
    sampled(spans, "sim.net_transit_ns", net, "ns", &mut || {
        transit_ns(false, 500_000, seed)
    });
    sampled(spans, "sim.net_transit_gray_ns", net, "ns", &mut || {
        transit_ns(true, 500_000, seed)
    });
    sampled(
        spans,
        "sched.feasibility_us",
        "hades-sched",
        "us",
        &mut || feasibility_us(workload, 2_000),
    );
    sampled(
        spans,
        "cluster.validate_us",
        "hades-cluster",
        "us",
        &mut || validate_us(workload, seed, 20),
    );
    let router = workloads::fabric_spec(seed, HORIZON).router();
    sampled(spans, "fabric.route_ns", "hades-fabric", "ns", &mut || {
        route_ns(&router)
    });
    sampled(
        spans,
        "fabric.ring_build_us",
        "hades-fabric",
        "us",
        &mut || ring_build_us(2_000),
    );
    sampled(spans, "chaos.generate_us", "hades-chaos", "us", &mut || {
        generate_us(seed, 2_000)
    });
    let ((p50, p90), _) = spans.time("chaos.program_ms", "hades-chaos", |_| program_ms(seed, 20));
    out.push(Metric::new("chaos.program_ms_p50", p50, "ms"));
    out.push(Metric::new("chaos.program_ms_p90", p90, "ms"));
}
