//! `exact_arrivals`: many small, independent VoIP call sets admitted
//! call by call under `OrderPolicy::ExactMilp`, each set rebalanced
//! once. The MILP feasibility search does nearly all of the work.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wimesh::sim::traffic::VoipCodec;
use wimesh::{AdmissionOutcome, FlowSpec, GreedyKey, MeshQos, OrderPolicy};
use wimesh_conflict::ConflictGraph;
use wimesh_topology::routing::{shortest_path, GatewayRouting};
use wimesh_topology::{generators, MeshTopology, NodeId};

use super::{stream_seed, Tally, Workload};
use crate::checks;

/// The strata a round visits, in order: a topology and how many calls
/// one of its sets holds. A round holds one set for every choice of
/// that many distinct routers. The cost of exact admission has a heavy
/// tail: on grid 4×4 the set of the two far corner routers takes
/// 0.5–0.7 s against a median of 4 ms, and on grid 4×3 the three far
/// routers up to 0.5 s. Uniform draws met such sets a different number
/// of times in every run, and that number set the run's figures;
/// listing every choice meets each once per round. Call counts stay
/// small so that no set outlasts a run (grid 4×4 with 10 calls took
/// 159 s for one admission). Grid 3×3 is left out: half of its
/// decisions are warm-order hits, and with it the median decision sat
/// closer to the gap between the two modes of decision time (see
/// `decision_p50_ms` in the README).
fn strata() -> Vec<(MeshTopology, usize)> {
    vec![
        (generators::chain(7), 3),
        (generators::grid(4, 3), 3),
        (generators::grid(4, 4), 2),
    ]
}

/// One round's call sets on a mesh of `nodes` nodes: a set for every
/// choice of `k` distinct routers, the sets in seeded order, each set's
/// calls in seeded order, every call toward gateway node 0 with a
/// seeded codec (G.711 or G.729 with equal odds).
fn call_sets(rng: &mut StdRng, nodes: usize, k: usize) -> Vec<Vec<FlowSpec>> {
    let mut sets = router_subsets(nodes as u32, k);
    sets.shuffle(rng);
    sets.into_iter()
        .map(|mut routers| {
            routers.shuffle(rng);
            routers
                .into_iter()
                .zip(0..)
                .map(|(r, id)| {
                    let codec = if rng.gen_bool(0.5) {
                        VoipCodec::G711
                    } else {
                        VoipCodec::G729
                    };
                    FlowSpec::voip(id, NodeId(r), NodeId(0), codec)
                })
                .collect()
        })
        .collect()
}

/// Every set of `k` distinct routers among `1..nodes`, in
/// lexicographic order.
fn router_subsets(nodes: u32, k: usize) -> Vec<Vec<u32>> {
    fn extend(from: u32, nodes: u32, k: usize, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for r in from..nodes {
            cur.push(r);
            extend(r + 1, nodes, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    extend(1, nodes, k, &mut Vec::with_capacity(k), &mut out);
    out
}

/// The workload.
#[derive(Debug, Default)]
pub struct ExactArrivals;

/// One mesh per stratum, with the stratum's calls per set.
#[derive(Debug)]
pub struct Meshes {
    meshes: Vec<(usize, MeshQos)>,
}

impl Workload for ExactArrivals {
    type Ready = Meshes;
    const SETUP_BATCH: usize = 100;
    const SETUP_BATCHES_PER_ROUND: usize = 16;

    fn setup(&self, _seed: u64) -> Result<Meshes, String> {
        let mut meshes = Vec::new();
        for (topo, k) in strata() {
            GatewayRouting::new(&topo, NodeId(0)).map_err(|e| e.to_string())?;
            let mesh = MeshQos::builder(topo).build().map_err(|e| e.to_string())?;
            meshes.push((k, mesh));
        }
        Ok(Meshes { meshes })
    }

    fn run(
        &self,
        ready: &mut Meshes,
        seed: u64,
        deadline: Instant,
        tally: &mut Tally,
        probe: bool,
    ) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0xE1AC7));
        let mut compared = 0u64;
        // A round takes seconds. The next one starts only while at
        // least half a round of the budget is left, so that a run ends
        // within half a round of its budget rather than up to a whole
        // round past it.
        let mut last = Duration::ZERO;
        while Instant::now() + last / 2 < deadline {
            let start = Instant::now();
            tally.begin_round();
            for (k, mesh) in &ready.meshes {
                for calls in call_sets(&mut rng, mesh.topology().node_count(), *k) {
                    compared += admit_set(mesh, &calls, tally, probe)?;
                }
            }
            tally.end_round(0.0);
            last = start.elapsed();
        }
        if compared == 0 && tally.failed == 0 {
            return Err(String::from("no set could be compared against a heuristic"));
        }
        Ok(())
    }
}

/// Admits `calls` one by one into a fresh exact session, rebalances,
/// and checks the result. Returns how many heuristic comparisons were
/// made (0–2).
fn admit_set(
    mesh: &MeshQos,
    calls: &[FlowSpec],
    tally: &mut Tally,
    probe: bool,
) -> Result<u64, String> {
    let mut session = mesh.session(OrderPolicy::ExactMilp);
    for call in calls {
        let verdict = tally.decide(|| session.admit(call));
        if let Err(e) = verdict {
            tally.failed += 1;
            eprintln!("exact admit failed: {e}");
        }
        let out = session.snapshot();
        tally.after(out.guaranteed_slots, out.admitted.len());
    }
    tally.pause();
    let before_ids = checks::admitted_ids(&session.snapshot().admitted);
    let before_slots = session.snapshot().guaranteed_slots;
    checks::region_respects_bound(mesh, session.snapshot())?;
    tally.resume();

    let verdict = tally.decide(|| session.rebalance().map(|_| ()));
    let out = session.snapshot();
    tally.after(out.guaranteed_slots, out.admitted.len());
    if let Err(e) = verdict {
        tally.failed += 1;
        eprintln!("exact rebalance failed: {e}");
        return Ok(0);
    }
    tally.pause();
    let compared = check_set(mesh, calls, out, &before_ids, before_slots, tally, probe);
    tally.resume();
    compared
}

/// The checks of one rebalanced set (and, with `probe`, the conflict
/// and routing probes). Returns how many heuristic comparisons were
/// made.
fn check_set(
    mesh: &MeshQos,
    calls: &[FlowSpec],
    out: &AdmissionOutcome,
    before_ids: &BTreeSet<u32>,
    before_slots: u32,
    tally: &mut Tally,
    probe: bool,
) -> Result<u64, String> {
    checks::schedule_is_sound(mesh, out)?;
    checks::admitted_set_is(before_ids, &out.admitted)?;
    if out.guaranteed_slots > before_slots {
        return Err(format!(
            "rebalance enlarged the region from {before_slots} to {}",
            out.guaranteed_slots
        ));
    }

    // The exact region is minimal: no heuristic that admits the same
    // set, in the same order, may use fewer slots.
    let admitted: Vec<FlowSpec> = out.admitted.iter().map(|f| f.spec.clone()).collect();
    let mut compared = 0;
    for policy in [
        OrderPolicy::GreedySequential {
            key: GreedyKey::CliqueLoad,
        },
        OrderPolicy::LpRounding,
    ] {
        let mut h = mesh.session(policy);
        let mut all = true;
        for spec in &admitted {
            all &= h.admit(spec).map_err(|e| e.to_string())?.is_admitted();
        }
        if all {
            compared += 1;
            if out.guaranteed_slots > h.snapshot().guaranteed_slots {
                return Err(format!(
                    "exact region {} exceeds the {policy:?} region {}",
                    out.guaranteed_slots,
                    h.snapshot().guaranteed_slots
                ));
            }
        }
    }

    if probe {
        let demands = mesh.demands_for(&out.admitted);
        let t = Instant::now();
        let graph = ConflictGraph::build_for_links(
            mesh.topology(),
            demands.links().collect(),
            mesh.interference(),
        );
        tally.probe("conflict.build_us", t.elapsed().as_secs_f64() * 1e6);
        drop(graph);
        for call in calls {
            let t = Instant::now();
            let path = shortest_path(mesh.topology(), call.src, call.dst);
            tally.probe("topology.routes_s", t.elapsed().as_secs_f64());
            path.map_err(|e| e.to_string())?;
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_lists_every_router_set_once() {
        for (nodes, k, count) in [(7, 3, 20), (12, 3, 165), (16, 2, 105)] {
            let mut rng = StdRng::seed_from_u64(5);
            let sets = call_sets(&mut rng, nodes, k);
            let routers: BTreeSet<Vec<u32>> = sets
                .iter()
                .map(|set| {
                    let mut r: Vec<u32> = set.iter().map(|c| c.src.0).collect();
                    r.sort_unstable();
                    r.dedup();
                    r
                })
                .collect();
            assert_eq!(sets.len(), count);
            assert_eq!(routers.len(), count, "a router set repeats");
            assert!(routers.iter().all(|r| r.len() == k && r[0] >= 1));
        }
    }
}
