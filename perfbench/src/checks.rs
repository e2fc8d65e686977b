//! Output checks, computed here rather than taken from the code under
//! test. Every check returns `Err` with a description on the first
//! violation; the benchmark's own tests feed each one a deliberately
//! corrupted output.

use std::collections::BTreeSet;
use std::time::Duration;

use wimesh::sim::FlowStats;
use wimesh::{AdmissionOutcome, AdmittedFlow, MeshQos, SessionState};
use wimesh_check::{CertParams, Certificate, FlowRequirement};
use wimesh_conflict::ConflictGraph;
use wimesh_tdma::{Demands, Schedule};
use wimesh_topology::MeshTopology;

/// Two scheduled links that share a router must not share a minislot:
/// one radio cannot send and receive, or serve two links, at once. This
/// holds under every interference model, so it is checked from the
/// topology alone.
pub fn no_shared_router_overlap(topo: &MeshTopology, schedule: &Schedule) -> Result<(), String> {
    let ranges: Vec<_> = schedule.iter().collect();
    for (i, &(a, ra)) in ranges.iter().enumerate() {
        for &(b, rb) in &ranges[i + 1..] {
            let (la, lb) = match (topo.link(a), topo.link(b)) {
                (Some(la), Some(lb)) => (la, lb),
                _ => {
                    return Err(format!(
                        "schedule names a link outside the topology: {a:?}/{b:?}"
                    ))
                }
            };
            let shared = la.tx == lb.tx || la.tx == lb.rx || la.rx == lb.tx || la.rx == lb.rx;
            if shared && ra.overlaps(&rb) {
                return Err(format!(
                    "links {a:?} and {b:?} share a router and overlap: {ra:?} vs {rb:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The node-load lower bound on the guaranteed region: every link at
/// one router conflicts with every other link at that router, so the
/// demands at the busiest router must be laid out one after another.
pub fn node_load_bound(topo: &MeshTopology, demands: &Demands) -> u32 {
    let mut load = vec![0u32; topo.node_count()];
    for (link, slots) in demands.iter() {
        if let Some(l) = topo.link(link) {
            load[l.tx.index()] += slots;
            load[l.rx.index()] += slots;
        }
    }
    load.into_iter().max().unwrap_or(0)
}

/// The region must be at least the node-load lower bound of the
/// admitted flows' demands.
pub fn region_respects_bound(mesh: &MeshQos, outcome: &AdmissionOutcome) -> Result<(), String> {
    let demands = mesh.demands_for(&outcome.admitted);
    let bound = node_load_bound(mesh.topology(), &demands);
    if outcome.guaranteed_slots < bound {
        return Err(format!(
            "guaranteed region {} is below the node-load lower bound {bound}",
            outcome.guaranteed_slots
        ));
    }
    Ok(())
}

/// Full schedule check: the shared-router test above, the region bound,
/// and the independent certifier (conflicts under the configured
/// interference model, demand coverage, per-flow delay bounds, guard).
pub fn schedule_is_sound(mesh: &MeshQos, outcome: &AdmissionOutcome) -> Result<(), String> {
    no_shared_router_overlap(mesh.topology(), &outcome.schedule)?;
    region_respects_bound(mesh, outcome)?;
    let demands = mesh.demands_for(&outcome.admitted);
    let graph = ConflictGraph::build_for_links(
        mesh.topology(),
        demands.links().collect(),
        mesh.interference(),
    );
    let flows: Vec<FlowRequirement> = outcome
        .admitted
        .iter()
        .map(|f| FlowRequirement {
            id: u64::from(f.spec.id.0),
            links: f.path.links().to_vec(),
            deadline: f.spec.deadline,
        })
        .collect();
    let params = CertParams::from_emulation(mesh.model());
    Certificate::check(&outcome.schedule, &graph, &demands, &flows, &params)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The admitted flow ids, ascending.
pub fn admitted_ids(admitted: &[AdmittedFlow]) -> BTreeSet<u32> {
    admitted.iter().map(|f| f.spec.id.0).collect()
}

/// The admitted set must equal the benchmark's own bookkeeping.
pub fn admitted_set_is(expected: &BTreeSet<u32>, admitted: &[AdmittedFlow]) -> Result<(), String> {
    let actual = admitted_ids(admitted);
    if &actual != expected {
        return Err(format!(
            "admitted set {actual:?} differs from the expected {expected:?}"
        ));
    }
    Ok(())
}

/// Canonical state comparison: flows, slot ranges, region and policy
/// exactly; the warm transmission order as a *set* of link pairs, since
/// a restored session may list the same pairs in another order.
pub fn same_state(live: &SessionState, other: &SessionState) -> Result<(), String> {
    if live.policy != other.policy {
        return Err(format!("policy {:?} vs {:?}", live.policy, other.policy));
    }
    if live.flows != other.flows {
        let ids = |s: &SessionState| s.flows.iter().map(|f| f.spec.id.0).collect::<Vec<_>>();
        return Err(format!(
            "flows differ: live {:?} vs other {:?}",
            ids(live),
            ids(other)
        ));
    }
    if live.ranges != other.ranges {
        return Err(String::from("slot ranges differ"));
    }
    if live.guaranteed_slots != other.guaranteed_slots {
        return Err(format!(
            "region {} vs {}",
            live.guaranteed_slots, other.guaranteed_slots
        ));
    }
    let pairs = |s: &SessionState| s.warm_pairs.iter().copied().collect::<BTreeSet<_>>();
    if pairs(live) != pairs(other) {
        return Err(String::from("warm order pairs differ as sets"));
    }
    Ok(())
}

/// Data-plane check of one admitted flow's TDMA statistics: no drops,
/// every delay within the admitted worst case, and packet conservation
/// — `sent = delivered + dropped + queued`, where the packets still
/// queued at the end can be no more than the source emits within one
/// worst-case delay (`packet_interval` apart) plus one.
pub fn tdma_flow_ok(
    flow: &AdmittedFlow,
    stats: &FlowStats,
    packet_interval: Duration,
) -> Result<(), String> {
    let id = flow.spec.id;
    if stats.max_delay() > flow.worst_case_delay {
        return Err(format!(
            "flow {id:?}: delay {:?} exceeds its bound {:?}",
            stats.max_delay(),
            flow.worst_case_delay
        ));
    }
    if stats.dropped() != 0 {
        return Err(format!("flow {id:?}: {} TDMA drops", stats.dropped()));
    }
    let accounted = stats.delivered() + stats.dropped();
    if accounted > stats.sent() {
        return Err(format!(
            "flow {id:?}: {accounted} packets accounted for but {} sent",
            stats.sent()
        ));
    }
    let queued = stats.sent() - accounted;
    let max_queued = flow.worst_case_delay.as_nanos() / packet_interval.as_nanos().max(1) + 2;
    if u128::from(queued) > max_queued {
        return Err(format!(
            "flow {id:?}: {queued} packets unaccounted for (at most {max_queued} can be queued)"
        ));
    }
    Ok(())
}
