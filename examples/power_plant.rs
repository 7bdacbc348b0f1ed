//! Power-plant protection system: the robustness services in concert.
//!
//! A reactor protection system is the paper's canonical safety-critical
//! domain (failure probability 10⁻⁹/h class). This example wires the HADES
//! generic services together the way such a system would:
//!
//! 1. **Clock synchronization** (Lundelius–Lynch) keeps the four protection
//!    channels within a known precision, despite one Byzantine clock;
//! 2. the **node agents** of a 4-channel cluster run heartbeat crash
//!    detection and must all catch a crash within its analytic bound;
//! 3. the trip decision is reached by **flooding consensus** among the
//!    surviving channels;
//! 4. the decision is disseminated by **reliable broadcast**;
//! 5. the new operating mode is recorded in crash-atomic **stable
//!    storage**;
//! 6. computations depending on the crashed channel are reaped through
//!    **dependency tracking**.
//!
//! Run with: `cargo run --example power_plant`

use hades::prelude::*;
use hades_services::{
    BroadcastSim, ClockSyncConfig, ClockSyncRun, ConsensusConfig, DependencyTracker,
    FloodConsensus, StableStore,
};

fn main() {
    let us = Duration::from_micros;
    let ms = Duration::from_millis;
    let link = LinkConfig::reliable(us(10), us(40));
    let crash_time = Time::ZERO + ms(8);
    let plan = FaultPlan::new().crash_at(NodeId(3), crash_time);

    println!("power plant protection system — HADES services demo");
    println!("====================================================");

    // 1. Clock synchronization with one Byzantine clock among four.
    let sync = ClockSyncRun::new(ClockSyncConfig {
        byzantine: vec![2],
        rounds: 20,
        link,
        ..ClockSyncConfig::default_quad()
    })
    .execute();
    println!(
        "\n[clock sync]  initial skew {}  final skew {}  bound {}",
        sync.initial_skew,
        sync.final_skew(),
        sync.analytic_bound
    );
    assert!(
        sync.converged(),
        "correct clocks converge despite Byzantine"
    );

    // 2. Crash detection of channel 3 by the node agents of a 4-channel
    //    cluster: every surviving channel must suspect it within the
    //    analytic bound, and none may suspect a correct channel.
    let spec = ClusterSpec::new(4)
        .link(link)
        .seed(11)
        .horizon(ms(30))
        .scenario(ScenarioPlan::new().crash(NodeId(3), crash_time));
    let bound = spec.detection_bound();
    let report = spec.run().expect("valid spec").into_report();
    assert!(
        report.no_false_suspicions() && report.detection_within_bound(),
        "no false alarms, detection within bound"
    );
    let detection = report
        .detections
        .iter()
        .filter(|d| d.suspect == 3)
        .max_by_key(|d| d.suspected_at)
        .expect("channel 3 detected");
    println!(
        "[detector]    channel 3 suspected by every survivor after {} (bound {bound})",
        detection.latency.expect("channel 3 really crashed")
    );

    // 3. Consensus on the trip decision among surviving channels
    //    (1 = trip, 0 = stay): any channel voting trip must win — encode
    //    trip as the *minimum* by inverting: 0 = trip.
    let net = Network::homogeneous(4, link, SimRng::seed_from(13)).with_fault_plan(plan.clone());
    let consensus = FloodConsensus::new(ConsensusConfig {
        f: 1,
        proposals: vec![1, 0, 1, 1], // channel 1 demands a trip
        start: detection.suspected_at,
    })
    .execute(net);
    assert!(consensus.agreement_holds());
    let trip = consensus.decided_value() == Some(0);
    println!(
        "[consensus]   {} channels decided in {} messages: trip = {trip}",
        consensus.decisions.len(),
        consensus.messages
    );
    assert!(trip, "the trip demand must prevail");

    // 4. Reliable broadcast of the trip command.
    let net = Network::homogeneous(4, link, SimRng::seed_from(17)).with_fault_plan(plan.clone());
    let bcast = BroadcastSim::new(net, 1).broadcast(NodeId(1), consensus.decided_at);
    assert!(bcast.agreement_holds());
    let lat = bcast
        .max_latency(consensus.decided_at)
        .expect("all correct delivered");
    println!(
        "[broadcast]   trip command at every correct channel within {lat} (bound {})",
        bcast.bound
    );

    // 5. Mode change recorded atomically; a crash mid-update must not
    //    corrupt the stored mode.
    let mut store = StableStore::new();
    store.write(b"mode", b"normal".to_vec());
    store.stage(b"mode", b"tripped".to_vec());
    store.crash(); // power blip before commit: old mode survives
    assert_eq!(store.read(b"mode").unwrap(), b"normal");
    store.stage(b"mode", b"tripped".to_vec());
    store.commit(b"mode");
    assert_eq!(store.read(b"mode").unwrap(), b"tripped");
    println!("[storage]     mode transition crash-atomic: normal → tripped");

    // 6. Orphan elimination: computations fed by channel 3's last scan
    //    are invalidated transitively.
    let mut deps = DependencyTracker::new();
    deps.add_dependency((3, 0), (10, 0)); // voter consumed channel 3 scan
    deps.add_dependency((10, 0), (20, 0)); // display consumed voter output
    deps.add_dependency((2, 0), (10, 1)); // unrelated chain survives
    let orphans = deps.invalidate((3, 0));
    println!(
        "[dependency]  channel 3 failure orphaned {} downstream computations",
        orphans.len()
    );
    assert_eq!(orphans, vec![(10, 0), (20, 0)]);

    println!("\nprotection chain complete: detect → agree → trip → persist ✓");
}
