//! `journal_recovery`: the write-ahead journal of `wimesh-svc` under
//! admit/release requests, then a kill and a recovery. A
//! `JournaledSession` under `GreedySequential { key: CliqueLoad }` on
//! grid 6×6 journals every request, with a snapshot every 16 mutations.
//! Each round first fills the frame with a fixed call set and empties
//! it again, then runs seeded admit/release churn. It ends by dropping
//! the session (a kill: no final state is written), writing its journal
//! to a file and calling `recover_file`.
//!
//! Two parts of the service path are left out, because on a 2-vCPU
//! virtual machine they set the figures instead of the code does:
//! - the `AdmissionGateway` queue handoff: with one client, the same
//!   inputs gave 12.5 k to 19 k requests per second from run to run,
//!   pinned to one CPU or not;
//! - a `write` system call per journal record: with the journal in a
//!   file, requests per second still spread by 15 % between runs, so
//!   records go to memory and the file is written once, at the kill.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wimesh::sim::FlowId;
use wimesh::{FlowSpec, GreedyKey, MeshQos, OrderPolicy};
use wimesh_check::{CertParams, Certificate, FlowRequirement};
use wimesh_conflict::ConflictGraph;
use wimesh_svc::{
    parse_journal, recover, recover_file, JournalRecord, JournalWriter, JournaledSession,
};
use wimesh_topology::routing::{shortest_path, GatewayRouting};
use wimesh_topology::{generators, NodeId};

use super::lp::pool;
use super::{stream_seed, Churn, Step, Tally, Workload};
use crate::checks;
use crate::journal_io::{CountingWriter, IoTally, SharedBuf};

/// The admission policy the journaled session runs.
pub const POLICY: OrderPolicy = OrderPolicy::GreedySequential {
    key: GreedyKey::CliqueLoad,
};
/// Seeded churn requests per round (one journal, one recovery).
pub const ROUND: usize = 1000;
/// The seeded churn keeps the admitted count at this many calls. Near a
/// full frame a greedy re-solve after a release can need one slot more
/// than the frame has, and the release fails; where that happens
/// depends on the churn, so a seeded churn there would fail a different
/// number of requests on every seed. The fixed [`NEAR_FULL`] start of
/// each round covers that regime instead.
pub const TARGET: usize = 16;
/// Mutations between journal snapshots.
pub const SNAPSHOT_EVERY: u64 = 16;
/// Pool calls admitted, in this order, at the start of every round:
/// the region climbs to 31 of the 32 slots. The same for every seed.
pub const NEAR_FULL: [u32; 24] = [
    10, 28, 17, 54, 30, 20, 8, 19, 59, 44, 57, 64, 66, 6, 52, 68, 18, 40, 12, 38, 23, 3, 41, 15,
];
/// Released first from the [`NEAR_FULL`] set; the rest follow in
/// admission order. Today this one release fails ("order needs 33
/// slots but frame has 32"), so every round counts one failed request.
pub const NEAR_FULL_RELEASE: u32 = 64;

/// A journaled session writing to memory, with its I/O counters.
#[derive(Debug)]
pub struct Started {
    buf: SharedBuf,
    session: JournaledSession,
    io: Arc<IoTally>,
}

impl Started {
    fn new(mesh: &MeshQos) -> Self {
        let io = Arc::new(IoTally::default());
        let buf = SharedBuf::default();
        let writer =
            JournalWriter::from_writer(Box::new(CountingWriter::new(buf.clone(), io.clone())));
        Started {
            buf,
            session: JournaledSession::new(mesh.session(POLICY), writer, SNAPSHOT_EVERY),
            io,
        }
    }
}

/// The mesh and the journaled session of the next round.
#[derive(Debug)]
pub struct Ready {
    mesh: MeshQos,
    next: Started,
}

/// The workload.
#[derive(Debug, Default)]
pub struct JournalRecovery;

impl Workload for JournalRecovery {
    type Ready = Ready;
    const SETUP_BATCH: usize = 100;

    fn setup(&self, _seed: u64) -> Result<Ready, String> {
        let topo = generators::grid(6, 6);
        GatewayRouting::new(&topo, NodeId(0)).map_err(|e| e.to_string())?;
        let mesh = MeshQos::builder(topo).build().map_err(|e| e.to_string())?;
        let next = Started::new(&mesh);
        Ok(Ready { mesh, next })
    }

    fn run(
        &self,
        ready: &mut Ready,
        seed: u64,
        deadline: Instant,
        tally: &mut Tally,
        probe: bool,
    ) -> Result<(), String> {
        // Journals are persisted inside the working directory, one
        // directory per process.
        let dir = PathBuf::from(".bench_tmp").join(format!("journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let verdict = rounds(
            ready,
            &dir.join("journal.jsonl"),
            seed,
            deadline,
            tally,
            probe,
        );
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Leave the parent only if no other run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
        verdict
    }
}

/// Runs one journaled request, times it and keeps the bookkeeping.
/// Returns whether the request succeeded.
fn request(
    session: &mut JournaledSession,
    calls: &[FlowSpec],
    step: Step,
    churn: &mut Churn,
    tally: &mut Tally,
) -> Result<bool, String> {
    let ok = match step {
        Step::Admit(id) => {
            let spec = std::slice::from_ref(&calls[id as usize]);
            match tally.decide(|| session.admit_flows(spec)) {
                Ok(v) => {
                    if v.iter().all(|a| a.is_admitted()) {
                        churn.admitted(id);
                    }
                    true
                }
                Err(e) => {
                    eprintln!("journaled admit of call {id} failed: {e}");
                    false
                }
            }
        }
        Step::Release(id) => match tally.decide(|| session.release_flow(FlowId(id))) {
            Ok(true) => {
                churn.released(id);
                true
            }
            Ok(false) => return Err(format!("release of admitted call {id} found nothing")),
            Err(e) => {
                eprintln!("journaled release of call {id} failed: {e}");
                false
            }
        },
    };
    if !ok {
        tally.failed += 1;
    }
    let out = session.session().snapshot();
    tally.after(out.guaranteed_slots, out.admitted.len());
    tally.pause();
    let checked = checks::admitted_set_is(churn.active(), &out.admitted);
    tally.resume();
    checked.map(|()| ok)
}

/// The fixed start of a round, then the seeded churn. Returns every
/// request with whether it succeeded, and the bookkeeping.
fn requests(
    session: &mut JournaledSession,
    calls: &[FlowSpec],
    rng: &mut StdRng,
    tally: &mut Tally,
) -> Result<(Vec<(Step, bool)>, Churn), String> {
    let mut churn = Churn::new(calls.len(), TARGET);
    let mut fixed: Vec<Step> = NEAR_FULL.iter().map(|&id| Step::Admit(id)).collect();
    fixed.push(Step::Release(NEAR_FULL_RELEASE));
    let mut steps = Vec::with_capacity(fixed.len() + NEAR_FULL.len() + ROUND);
    for step in fixed {
        steps.push((step, request(session, calls, step, &mut churn, tally)?));
    }
    for id in NEAR_FULL {
        if churn.active().contains(&id) {
            let step = Step::Release(id);
            steps.push((step, request(session, calls, step, &mut churn, tally)?));
        }
    }
    for _ in 0..ROUND {
        let step = churn.next(rng);
        steps.push((step, request(session, calls, step, &mut churn, tally)?));
    }
    Ok((steps, churn))
}

fn rounds(
    ready: &mut Ready,
    path: &Path,
    seed: u64,
    deadline: Instant,
    tally: &mut Tally,
    probe: bool,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 0x6A7E));
    let calls = pool(ready.mesh.topology().node_count());
    if probe {
        for call in &calls {
            let t = Instant::now();
            let path = shortest_path(ready.mesh.topology(), call.src, call.dst);
            tally.probe("topology.routes_s", t.elapsed().as_secs_f64());
            path.map_err(|e| e.to_string())?;
        }
    }
    while Instant::now() < deadline {
        tally.begin_round();
        let (steps, churn) = requests(&mut ready.next.session, &calls, &mut rng, tally)?;

        // Kill (no final state is written), then recover from the
        // journal alone. Recovery replays through the session, which
        // would count as request work in the per-layer figures; its
        // parts are probed apart. The session for the next round is
        // opened here, as round work.
        tally.pause();
        let live = ready.next.session.session().export_state();
        let t = Instant::now();
        let Started { buf, session, io } =
            std::mem::replace(&mut ready.next, Started::new(&ready.mesh));
        let open_s = t.elapsed().as_secs_f64();
        drop(session);
        let t = Instant::now();
        std::fs::write(path, buf.take()).map_err(|e| format!("{}: {e}", path.display()))?;
        let recovered = recover_file(&ready.mesh, POLICY, path);
        let recover_s = t.elapsed().as_secs_f64();
        tally.end_round(open_s + recover_s);
        let recovered = recovered.map_err(|e| format!("recovery failed: {e}"))?;

        let snapshot = recovered.session.snapshot();
        checks::schedule_is_sound(&ready.mesh, snapshot)?;
        checks::admitted_set_is(churn.active(), &snapshot.admitted)?;
        checks::same_state(&live, &recovered.session.export_state())
            .map_err(|e| format!("recovered state differs from the live one: {e}"))?;

        // The same requests through a plain session reach the same
        // state, and fail where the journaled ones failed.
        let mut plain = ready.mesh.session(POLICY);
        for &(step, ok) in &steps {
            let replayed = match step {
                Step::Admit(id) => plain.admit(&calls[id as usize]).map(|_| ()),
                Step::Release(id) => plain.release(FlowId(id)).map(|_| ()),
            };
            if replayed.is_ok() != ok {
                return Err(format!(
                    "a plain session replaying {step:?} gave {replayed:?}, the journaled one {}",
                    if ok { "succeeded" } else { "failed" }
                ));
            }
        }
        checks::same_state(&live, &plain.export_state())
            .map_err(|e| format!("a plain session replaying the requests differs: {e}"))?;

        let journal_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        if probe {
            tally.probe("svc.requests", steps.len() as f64);
            probe_recovery(ready, path, &io, tally, recover_s, journal_bytes)?;
        }
        std::fs::remove_file(path).map_err(|e| e.to_string())?;
        tally.resume();
    }
    Ok(())
}

/// Recovery timed in parts (file read, parse, replay, certification),
/// plus the journal's own I/O counters.
fn probe_recovery(
    ready: &Ready,
    path: &Path,
    io: &IoTally,
    tally: &mut Tally,
    recover_s: f64,
    journal_bytes: u64,
) -> Result<(), String> {
    tally.probe("svc.journal.writes", io.writes() as f64);
    tally.probe("svc.journal.bytes", io.bytes() as f64);
    tally.probe("svc.journal_mb", journal_bytes as f64 / 1e6);
    tally.probe("svc.recover_s", recover_s);

    let t = Instant::now();
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let log = parse_journal(&text).map_err(|e| e.to_string())?;
    let parse_s = t.elapsed().as_secs_f64();
    let snapshots = log
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Snapshot(_)))
        .count();
    let t = Instant::now();
    let recovered = recover(&ready.mesh, POLICY, &text).map_err(|e| e.to_string())?;
    let recover_text_s = t.elapsed().as_secs_f64();

    let session = &recovered.session;
    let outcome = session.snapshot();
    let demands = ready.mesh.demands_for(&outcome.admitted);
    let t = Instant::now();
    let graph = ConflictGraph::build_for_links(
        ready.mesh.topology(),
        demands.links().collect(),
        ready.mesh.interference(),
    );
    tally.probe("conflict.build_us", t.elapsed().as_secs_f64() * 1e6);
    let flows: Vec<FlowRequirement> = outcome
        .admitted
        .iter()
        .map(|f| FlowRequirement {
            id: u64::from(f.spec.id.0),
            links: f.path.links().to_vec(),
            deadline: f.spec.deadline,
        })
        .collect();
    let params = CertParams::from_emulation(ready.mesh.model());
    let t = Instant::now();
    Certificate::check_recovery(
        &outcome.schedule,
        &graph,
        &demands,
        &flows,
        &params,
        outcome.guaranteed_slots,
    )
    .map_err(|e| e.to_string())?;
    let check_s = t.elapsed().as_secs_f64();

    tally.probe("svc.snapshots", snapshots as f64);
    tally.probe("svc.recover.read_s", read_s);
    tally.probe("svc.recover.parse_s", parse_s);
    // `recover` parses, replays and certifies; the replay is the rest.
    tally.probe(
        "svc.recover.replay_s",
        (recover_text_s - parse_s - check_s).max(0.0),
    );
    tally.probe("check.recovery_s", check_s);
    Ok(())
}
