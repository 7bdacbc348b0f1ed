//! The host-speed reference: fixed work written against `std` alone,
//! timed next to every workload run so the end-to-end times can be
//! reported at a fixed host speed.
//!
//! The benchmark shares its host's cores with other tenants, and the
//! host's speed drifts in phases that last minutes: on a 2-vCPU 2.1 GHz
//! Xeon, the same run read 1.3 s in one phase and 2.0 s in another, with
//! set-up times moving by the same factor. A run's median cannot average
//! out a phase longer than the run. Dividing by a reference measured in
//! the same process, just before and just after the workload, does. No
//! file outside the benchmark can change this code, so a change to the
//! program moves the workload's time and leaves the reference's alone.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference pass is taken to last: a normalized time reads
/// as seconds on a host where a pass takes exactly this long.
pub const NOMINAL_PASS_S: f64 = 0.012;

/// Passes per reference measurement; the median is kept.
const PASSES: usize = 7;

/// One pass: the mix of work the workloads consist of — string keys in
/// hash maps, an ordered map and a sort, then an event-queue hold loop:
/// a binary heap and a hash map of 32k pending entries, each delivery
/// replaced by a later one.
fn pass(salt: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ salt;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut names: HashMap<String, Vec<u64>> = HashMap::new();
    let mut order: BTreeMap<u64, u32> = BTreeMap::new();
    for i in 0..4_000u32 {
        let v = next();
        names.entry(format!("svc-{}", v % 512)).or_default().push(v);
        order.insert(v % 65_536, i);
    }
    let mut keys: Vec<&String> = names.keys().collect();
    keys.sort();
    let mut acc = keys.len() as u64 + order.len() as u64;

    let mut queue = BinaryHeap::new();
    let mut pending: HashMap<u64, u64> = HashMap::new();
    for id in 0..32_000u64 {
        let at = next() % 100_000;
        queue.push(Reverse((at, id)));
        pending.insert(id, at);
    }
    for id in 32_000..52_000u64 {
        let Some(Reverse((at, done))) = queue.pop() else {
            break;
        };
        acc ^= pending.remove(&done).unwrap_or(0);
        let later = at + 1 + next() % 100_000;
        queue.push(Reverse((later, id)));
        pending.insert(id, later);
    }
    acc
}

/// Median wall seconds of one reference pass.
pub fn seconds() -> f64 {
    let mut samples: Vec<f64> = (0..PASSES as u64)
        .map(|salt| {
            let t = Instant::now();
            black_box(pass(black_box(salt)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::metric::median(&mut samples)
}
