//! `dataplane_sim`: admit a VoIP call set under `OrderPolicy::HopOrder`
//! on grid 4×4, then run the packet-level simulations over the
//! emulated TDMA MAC (`MeshQos::simulate_tdma`) and over native 802.11
//! DCF (`MeshQos::simulate_dcf`) with a seeded RNG, then release the
//! calls. The only workload that reaches `sim`, `emu` and `phy80211`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wimesh::phy80211::dcf::DcfConfig;
use wimesh::sim::traffic::{TrafficSource, VoipCodec, VoipSource};
use wimesh::{FlowSpec, MeshQos, OrderPolicy};
use wimesh_conflict::ConflictGraph;
use wimesh_topology::routing::{shortest_path, GatewayRouting};
use wimesh_topology::{generators, NodeId};

use super::{stream_seed, Tally, Workload};
use crate::checks;

/// Calls per set: one G.711 and one G.729 call from each of this many
/// distinct routers.
pub const ROUTERS: usize = 4;
/// Simulated time over the emulated TDMA MAC per set.
pub const TDMA_SIM: Duration = Duration::from_secs(600);
/// Simulated time over 802.11 DCF per set.
pub const DCF_SIM: Duration = Duration::from_secs(4);
/// Per-link queue capacity of the TDMA simulation, packets.
pub const QUEUE: usize = 64;

fn codec_of(spec: &FlowSpec) -> VoipCodec {
    if spec.rate_bps > 50_000.0 {
        VoipCodec::G711
    } else {
        VoipCodec::G729
    }
}

fn source(spec: &FlowSpec) -> Box<dyn TrafficSource> {
    Box::new(VoipSource::new(codec_of(spec)))
}

/// The workload.
#[derive(Debug, Default)]
pub struct DataplaneSim;

impl Workload for DataplaneSim {
    type Ready = MeshQos;
    const SETUP_BATCH: usize = 400;

    fn setup(&self, _seed: u64) -> Result<MeshQos, String> {
        let topo = generators::grid(4, 4);
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
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0xDA7A));
        let nodes = mesh.topology().node_count() as u32;
        while Instant::now() < deadline {
            // Distinct routers, each sending one call of either codec.
            let mut routers: Vec<u32> = (1..nodes).collect();
            let mut calls = Vec::with_capacity(2 * ROUTERS);
            for k in 0..ROUTERS {
                let r = routers.swap_remove(rng.gen_range(0..routers.len()));
                let id = 2 * k as u32;
                calls.push(FlowSpec::voip(id, NodeId(r), NodeId(0), VoipCodec::G711));
                calls.push(FlowSpec::voip(
                    id + 1,
                    NodeId(r),
                    NodeId(0),
                    VoipCodec::G729,
                ));
            }

            tally.begin_round();
            let mut session = mesh.session(OrderPolicy::HopOrder);
            for call in &calls {
                let verdict = tally.decide(|| session.admit(call));
                match verdict {
                    Ok(v) if v.is_admitted() => {}
                    Ok(v) => {
                        return Err(format!("call {:?} rejected: {:?}", call.id, v.rejected()))
                    }
                    Err(e) => {
                        tally.failed += 1;
                        eprintln!("dataplane admit failed: {e}");
                    }
                }
                let out = session.snapshot();
                tally.after(out.guaranteed_slots, out.admitted.len());
            }
            let outcome = session.snapshot().clone();

            let sim_seed = rng.gen::<u64>();
            let t = Instant::now();
            let tdma = mesh
                .simulate_tdma(
                    &outcome,
                    source,
                    TDMA_SIM,
                    QUEUE,
                    &mut StdRng::seed_from_u64(sim_seed),
                )
                .map_err(|e| e.to_string());
            let tdma_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let dcf = mesh.simulate_dcf(
                &calls,
                source,
                DcfConfig::default(),
                DCF_SIM,
                &mut StdRng::seed_from_u64(sim_seed ^ 1),
            );
            let dcf_s = t.elapsed().as_secs_f64();

            for call in &calls {
                let verdict = tally.decide(|| session.release(call.id));
                match verdict {
                    Ok(true) => {}
                    Ok(false) => {
                        return Err(format!(
                            "release of admitted call {:?} found nothing",
                            call.id
                        ))
                    }
                    Err(e) => {
                        tally.failed += 1;
                        eprintln!("dataplane release failed: {e}");
                    }
                }
                let out = session.snapshot();
                tally.after(out.guaranteed_slots, out.admitted.len());
            }
            tally.end_round(tdma_s + dcf_s);
            tally.pause();

            checks::schedule_is_sound(mesh, &outcome)?;
            let tdma = tdma?;
            if tdma.len() != outcome.admitted.len() {
                return Err(format!(
                    "{} TDMA flow statistics for {} admitted flows",
                    tdma.len(),
                    outcome.admitted.len()
                ));
            }
            for (flow, stats) in outcome.admitted.iter().zip(&tdma) {
                checks::tdma_flow_ok(flow, stats, codec_of(&flow.spec).interval())?;
            }
            if dcf.len() != calls.len() {
                return Err(format!(
                    "{} DCF statistics for {} calls",
                    dcf.len(),
                    calls.len()
                ));
            }
            for (spec, stats) in &dcf {
                if stats.delivered() + stats.dropped() > stats.sent() {
                    return Err(format!(
                        "DCF flow {:?} delivered more than it sent",
                        spec.id
                    ));
                }
            }

            if probe {
                tally.probe("emu.tdma.run_s", tdma_s);
                tally.probe("phy80211.dcf_s", dcf_s);
                tally.probe("sim.simulated_s", (TDMA_SIM + DCF_SIM).as_secs_f64());
                let demands = mesh.demands_for(&outcome.admitted);
                let t = Instant::now();
                let graph = ConflictGraph::build_for_links(
                    mesh.topology(),
                    demands.links().collect(),
                    mesh.interference(),
                );
                tally.probe("conflict.build_us", t.elapsed().as_secs_f64() * 1e6);
                drop(graph);
                for call in &calls {
                    let t = Instant::now();
                    let path = shortest_path(mesh.topology(), call.src, call.dst);
                    tally.probe("topology.routes_s", t.elapsed().as_secs_f64());
                    path.map_err(|e| e.to_string())?;
                }
            }
            tally.resume();
        }
        Ok(())
    }
}
