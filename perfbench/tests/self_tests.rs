//! Negative self-tests: every output check must reject a deliberately
//! corrupted output, and accept the uncorrupted one.

use std::collections::BTreeMap;
use std::time::Duration;

use wimesh::sim::traffic::VoipCodec;
use wimesh::sim::{FlowStats, SimTime};
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_perfbench::checks;
use wimesh_perfbench::cli::Args;
use wimesh_perfbench::workloads;
use wimesh_perfbench::workloads::journal;
use wimesh_tdma::{Schedule, SlotRange};
use wimesh_topology::{generators, NodeId};

fn mesh(n: usize) -> MeshQos {
    MeshQos::builder(generators::chain(n)).build().unwrap()
}

fn call(id: u32, src: u32) -> FlowSpec {
    FlowSpec::voip(id, NodeId(src), NodeId(0), VoipCodec::G711)
}

#[test]
fn overlapping_slots_on_conflicting_links_are_caught() {
    let mesh = mesh(4);
    let mut session = mesh.session(OrderPolicy::HopOrder);
    assert!(session.admit(&call(0, 3)).unwrap().is_admitted());
    let good = session.snapshot().clone();
    checks::schedule_is_sound(&mesh, &good).unwrap();

    // Links 3→2 and 2→1 share router 2: give both the same slots.
    let links: Vec<_> = good.admitted[0].path.links().to_vec();
    let mut ranges: BTreeMap<_, _> = good.schedule.iter().collect();
    let len = ranges[&links[0]].len.max(ranges[&links[1]].len);
    ranges.insert(links[0], SlotRange::new(0, len));
    ranges.insert(links[1], SlotRange::new(0, len));
    let mut bad = good.clone();
    bad.schedule = Schedule::from_ranges(good.schedule.frame(), ranges).unwrap();
    assert!(checks::no_shared_router_overlap(mesh.topology(), &bad.schedule).is_err());
    assert!(checks::schedule_is_sound(&mesh, &bad).is_err());
}

#[test]
fn a_region_below_the_node_load_bound_is_caught() {
    let mesh = mesh(3);
    let mut session = mesh.session(OrderPolicy::ExactMilp);
    assert!(session.admit(&call(0, 2)).unwrap().is_admitted());
    let good = session.snapshot().clone();
    // Both hops of 2→1→0 meet at router 1, so the bound is their sum.
    let demands = mesh.demands_for(&good.admitted);
    let sum: u32 = demands.iter().map(|(_, d)| d).sum();
    assert_eq!(checks::node_load_bound(mesh.topology(), &demands), sum);
    checks::region_respects_bound(&mesh, &good).unwrap();

    let mut bad = good.clone();
    bad.guaranteed_slots = sum - 1;
    assert!(checks::region_respects_bound(&mesh, &bad).is_err());
}

#[test]
fn a_recovered_state_missing_a_flow_is_caught() {
    let mesh = mesh(5);
    let mut session = mesh.session(OrderPolicy::HopOrder);
    for (id, src) in [(0, 4), (1, 3), (2, 2)] {
        assert!(session.admit(&call(id, src)).unwrap().is_admitted());
    }
    let live = session.export_state();
    checks::same_state(&live, &live).unwrap();

    // The same warm pairs in another order are the same state.
    let mut reordered = live.clone();
    reordered.warm_pairs.reverse();
    assert_ne!(reordered, live, "derived equality is order-sensitive");
    checks::same_state(&live, &reordered).unwrap();

    let mut missing = live.clone();
    missing.flows.remove(1);
    assert!(checks::same_state(&live, &missing).is_err());
}

#[test]
fn a_simulated_delay_above_its_bound_is_caught() {
    let mesh = mesh(4);
    let mut session = mesh.session(OrderPolicy::HopOrder);
    let flow = session
        .admit(&call(0, 3))
        .unwrap()
        .admitted()
        .unwrap()
        .clone();
    let interval = VoipCodec::G711.interval();
    let record = |delay: Duration, sent: u64, delivered: u64, dropped: u64| {
        let mut s = FlowStats::for_voip();
        for _ in 0..sent {
            s.record_sent();
        }
        for _ in 0..delivered {
            s.record_delivered(SimTime::from_nanos(1), delay, 200);
        }
        for _ in 0..dropped {
            s.record_dropped();
        }
        s
    };
    let bound = flow.worst_case_delay;
    checks::tdma_flow_ok(&flow, &record(bound, 10, 9, 0), interval).unwrap();
    let late = record(bound + Duration::from_micros(1), 10, 9, 0);
    assert!(checks::tdma_flow_ok(&flow, &late, interval).is_err());
    let dropped = record(bound / 2, 10, 8, 1);
    assert!(checks::tdma_flow_ok(&flow, &dropped, interval).is_err());
    let vanished = record(bound / 2, 1000, 10, 0);
    assert!(checks::tdma_flow_ok(&flow, &vanished, interval).is_err());
    let invented = record(bound / 2, 5, 9, 0);
    assert!(checks::tdma_flow_ok(&flow, &invented, interval).is_err());
}

#[test]
fn every_workload_runs_briefly_and_checks_out() {
    for name in workloads::NAMES {
        for trace in [false, true] {
            let args = Args {
                workload: name.to_string(),
                seed: 3,
                seconds: 1,
                trace,
            };
            let report = workloads::run_named(&args).unwrap();
            assert!(report.correct, "{name} trace={trace}");
            // Only the journal workload's fixed near-full release may
            // fail, at most once per round.
            let may_fail = if name == "journal_recovery" {
                report.attempted / (journal::NEAR_FULL.len() * 2 + journal::ROUND) as u64
            } else {
                0
            };
            assert!(report.failed <= may_fail, "{name}: {report:?}");
            assert!(report.attempted > 0, "{name}");
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite()),
                "{name}: {:?}",
                report.metrics
            );
        }
    }
    let unknown = Args {
        workload: String::from("no_such_workload"),
        seed: 1,
        seconds: 1,
        trace: false,
    };
    assert!(workloads::run_named(&unknown).is_err());
}
