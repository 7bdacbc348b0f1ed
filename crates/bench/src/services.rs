//! E8–E10: service experiments — clock sync precision, broadcast latency,
//! replication style comparison.

use hades_cluster::{ClusterSpec, GroupLoad, ScenarioPlan, ServiceSpec};
use hades_services::{BroadcastSim, ClockSyncConfig, ClockSyncRun, ReplicaStyle};
use hades_sim::{LinkConfig, Network, NodeId, SimRng};
use hades_time::{Duration, Time};
use std::fmt::Write;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// E8: clock-sync precision vs drift, with and without a Byzantine clock.
pub fn clocksync_precision() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E8 / [LL88] — clock synchronization precision");
    let _ = writeln!(out, "=============================================");
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "drift", "initial", "final", "final(byz)", "bound", "ok"
    );
    for drift_ppm in [10u64, 50, 100, 500] {
        let base = ClockSyncConfig {
            drift_ppb: (drift_ppm * 1000) as i64,
            rounds: 24,
            ..ClockSyncConfig::default_quad()
        };
        let clean = ClockSyncRun::new(base.clone()).execute();
        let byz = ClockSyncRun::new(ClockSyncConfig {
            byzantine: vec![3],
            ..base
        })
        .execute();
        let ok = clean.converged() && byz.converged();
        let _ = writeln!(
            out,
            "{:>7}ppm {:>12} {:>12} {:>12} {:>12} {:>6}",
            drift_ppm,
            clean.initial_skew.to_string(),
            clean.final_skew().to_string(),
            byz.final_skew().to_string(),
            clean.analytic_bound.to_string(),
            if ok { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "\nexpected shape: final skew stays within the analytic bound\n\
         γ = 4ε + 4ρP even with f = 1 Byzantine clock among n = 4."
    );
    out
}

/// E9: reliable-broadcast latency and success vs omission rate.
pub fn broadcast_latency() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E9 — time-bounded reliable broadcast (diffusion)");
    let _ = writeln!(out, "================================================");
    let _ = writeln!(
        out,
        "{:>9} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "loss", "attempts", "complete", "worst lat", "bound", "messages"
    );
    for (loss, attempts) in [(0u32, 1u32), (100, 3), (200, 4), (400, 6)] {
        let mut complete = 0u32;
        let mut worst = Duration::ZERO;
        let mut msgs = 0u64;
        let runs = 50u64;
        let mut bound = Duration::ZERO;
        for seed in 0..runs {
            let link = LinkConfig::reliable(us(5), us(20)).with_omissions(loss);
            let net = Network::homogeneous(5, link, SimRng::seed_from(seed));
            let outc = BroadcastSim::new(net, 1)
                .with_attempts(attempts)
                .broadcast(NodeId(0), Time::ZERO);
            bound = outc.bound;
            msgs += outc.messages;
            if let Some(lat) = outc.max_latency(Time::ZERO) {
                complete += 1;
                worst = worst.max(lat);
            }
        }
        let _ = writeln!(
            out,
            "{:>8}% {:>9} {:>9}% {:>12} {:>12} {:>10.1}",
            loss / 10,
            attempts,
            complete * 100 / runs as u32,
            worst.to_string(),
            bound.to_string(),
            msgs as f64 / runs as f64
        );
    }
    let _ = writeln!(
        out,
        "\nexpected shape: with a retry budget matched to the loss rate the\n\
         broadcast completes everywhere within its (f+1)-hop bound; message\n\
         cost grows with the retry budget."
    );
    out
}

/// The E10 deployment: three nodes hosting one replicated service per
/// style on the same members `[0, 1, 2]`, with node `crashed` failing
/// while a request is in flight. Node 0 is the leader, primary and
/// gateway of every group.
fn replication_spec(crashed: u32) -> ClusterSpec {
    let styles = [
        ReplicaStyle::Active,
        ReplicaStyle::SemiActive,
        ReplicaStyle::Passive {
            checkpoint_every: 4,
        },
    ];
    // 50 µs after the 10 ms submission, so that request is in flight.
    let crash = Time::ZERO + ms(10) + us(50);
    let mut spec = ClusterSpec::new(3)
        .link(LinkConfig::reliable(us(5), us(20)))
        .seed(1)
        // 30 requests: one per millisecond from 1 ms.
        .horizon(ms(31))
        .scenario(ScenarioPlan::new().crash(NodeId(crashed), crash));
    for style in styles {
        spec = spec.service(ServiceSpec::replicated(
            style.name(),
            style,
            vec![0, 1, 2],
            GroupLoad::default(),
        ));
    }
    spec
}

/// E10: failover latency and overhead across replication styles.
pub fn replication_comparison() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E10 / [Pol96] — replication style comparison");
    let _ = writeln!(out, "============================================");
    let run = replication_spec(0).run().expect("valid spec");
    let report = run.report();
    let crash = report.node_reports[0].crashed_at.expect("node 0 crashes");
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9}",
        "style", "submitted", "outputs", "delayed", "worst_lat", "failover", "messages", "replayed"
    );
    for g in &report.groups {
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9}",
            g.style_name,
            g.submitted,
            g.outputs,
            g.delayed_outputs,
            g.worst_latency
                .map_or_else(|| "-".into(), |d| d.to_string()),
            g.handoffs
                .first()
                .map_or_else(|| "-".into(), |h| (h.at - crash).to_string()),
            g.messages,
            g.replayed,
        );
    }
    let _ = writeln!(
        out,
        "\nexpected shape: active masks the crash (no delayed output) at the\n\
         highest message cost; semi-active delays the in-flight request by\n\
         one detection + agreement window; passive pays the same window plus\n\
         a replay of the requests since its last checkpoint, with the lowest\n\
         healthy-path traffic."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_comparison_shape() {
        let report = replication_spec(0).run().expect("valid spec").into_report();
        let [active, semi, passive] = &report.groups[..] else {
            panic!("one group per style");
        };
        let names: Vec<_> = report.groups.iter().map(|g| g.style_name).collect();
        assert_eq!(names, ["active", "semi-active", "passive"]);
        for g in &report.groups {
            assert!(g.order_agreement, "{} order agreement", g.style_name);
            assert_eq!(
                g.outputs, g.submitted,
                "{} served every request",
                g.style_name
            );
        }
        assert_eq!(active.delayed_outputs, 0, "active masks the crash");
        assert!(
            semi.delayed_outputs > 0,
            "semi-active waits for the takeover"
        );
        assert!(passive.replayed > 0, "passive replays past its checkpoint");
        assert_eq!(semi.replayed, 0);
        assert!(passive.worst_latency >= semi.worst_latency);
        // Redundant execution costs traffic: votes, then orders, then
        // checkpoints only.
        assert!(passive.messages < semi.messages && semi.messages < active.messages);
    }

    #[test]
    fn follower_crash_costs_no_failover() {
        let report = replication_spec(2).run().expect("valid spec").into_report();
        for g in &report.groups {
            assert!(g.handoffs.is_empty(), "{} kept its leader", g.style_name);
            assert_eq!(g.delayed_outputs, 0, "{}", g.style_name);
            assert_eq!(g.replayed, 0, "{}", g.style_name);
            assert_eq!(g.outputs, g.submitted, "{}", g.style_name);
        }
    }
}
