//! `lp_churn`: long-lived sessions under `OrderPolicy::LpRounding` on
//! grid 5×5. Seeded admit/release churn draws from a pool larger
//! than the admitted set, so the link set keeps changing. Every
//! decision is one cold LP relaxation plus the repair of the rounded
//! order; branch & bound is never used.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::sim::traffic::VoipCodec;
use wimesh::sim::FlowId;
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_conflict::ConflictGraph;
use wimesh_topology::routing::{shortest_path, GatewayRouting};
use wimesh_topology::{generators, NodeId};

use super::{stream_seed, Churn, Step, Tally, Workload};
use crate::checks;

/// Calls in the pool the churn draws from: one G.711 and one G.729
/// call from every router but the gateway. The pool is the same for
/// every seed; the seed drives the churn, so the link set a decision
/// faces varies within a run, not between runs.
pub const POOL: usize = 48;
/// The churn keeps the admitted count at this many calls.
pub const TARGET: usize = 24;
/// Decisions per round (the unit `round_s` times).
pub const ROUND: usize = 40;
/// Rounds one session lives for. The make-up of the admitted set drifts
/// slowly (one call changes per decision), and one session's history
/// settles into cheaper or dearer stretches; a fresh session every 200
/// decisions lets one run average over a score of independent histories
/// instead of following one.
pub const SESSION_ROUNDS: usize = 5;

/// The call pool: calls `2r - 2` (G.711) and `2r - 1` (G.729) start at
/// router `r`, all toward gateway node 0.
pub fn pool(nodes: usize) -> Vec<FlowSpec> {
    (1..nodes as u32)
        .flat_map(|r| {
            [
                FlowSpec::voip(2 * r - 2, NodeId(r), NodeId(0), VoipCodec::G711),
                FlowSpec::voip(2 * r - 1, NodeId(r), NodeId(0), VoipCodec::G729),
            ]
        })
        .collect()
}

/// The workload.
#[derive(Debug, Default)]
pub struct LpChurn;

impl Workload for LpChurn {
    type Ready = MeshQos;
    const SETUP_BATCH: usize = 400;

    fn setup(&self, _seed: u64) -> Result<MeshQos, String> {
        let topo = generators::grid(5, 5);
        GatewayRouting::new(&topo, NodeId(0)).map_err(|e| e.to_string())?;
        MeshQos::builder(topo).build().map_err(|e| e.to_string())
    }

    fn run(
        &self,
        mesh: &mut MeshQos,
        seed: u64,
        deadline: Instant,
        tally: &mut Tally,
        probe: bool,
    ) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0x1FC4));
        let pool = pool(mesh.topology().node_count());
        if probe {
            for call in &pool {
                let t = Instant::now();
                let path = shortest_path(mesh.topology(), call.src, call.dst);
                tally.probe("topology.routes_s", t.elapsed().as_secs_f64());
                path.map_err(|e| e.to_string())?;
            }
        }
        let mut session = mesh.session(OrderPolicy::LpRounding);
        let mut churn = Churn::new(pool.len(), TARGET);
        let mut rounds = 0;
        while Instant::now() < deadline {
            if rounds > 0 && rounds % SESSION_ROUNDS == 0 {
                session = mesh.session(OrderPolicy::LpRounding);
                churn = Churn::new(pool.len(), TARGET);
            }
            rounds += 1;
            tally.begin_round();
            for step in 0..ROUND {
                match churn.next(&mut rng) {
                    Step::Admit(id) => {
                        let verdict = tally.decide(|| session.admit(&pool[id as usize]));
                        match verdict {
                            Ok(v) if v.is_admitted() => churn.admitted(id),
                            Ok(_) => {}
                            Err(e) => {
                                tally.failed += 1;
                                eprintln!("lp admit failed: {e}");
                            }
                        }
                    }
                    Step::Release(id) => {
                        let verdict = tally.decide(|| session.release(FlowId(id)));
                        match verdict {
                            Ok(true) => churn.released(id),
                            Ok(false) => {
                                return Err(format!("release of admitted call {id} found nothing"))
                            }
                            Err(e) => {
                                tally.failed += 1;
                                eprintln!("lp release failed: {e}");
                            }
                        }
                    }
                }
                let out = session.snapshot();
                tally.after(out.guaranteed_slots, out.admitted.len());
                tally.pause();
                checks::admitted_set_is(churn.active(), &out.admitted)?;
                checks::schedule_is_sound(mesh, out)?;
                if probe && step % 8 == 0 {
                    let demands = mesh.demands_for(&out.admitted);
                    let t = Instant::now();
                    let graph = ConflictGraph::build_for_links(
                        mesh.topology(),
                        demands.links().collect(),
                        mesh.interference(),
                    );
                    tally.probe("conflict.build_us", t.elapsed().as_secs_f64() * 1e6);
                    drop(graph);
                }
                tally.resume();
            }
            tally.end_round(0.0);
        }
        Ok(())
    }
}
