//! The four workloads and the runner they share.
//!
//! A workload builds its inputs from the seed, then runs whole rounds
//! of the same operations until the wall-clock budget is spent. Every
//! decision (admit, release, rebalance; for the journal, the journaled
//! reply) is timed on its own; checks run between decisions, outside
//! the timing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::cli::Args;
use crate::collect::{Collector, Trace};
use crate::report::{Metric, RunReport};
use crate::stats::{median, peak_rss_mb, LatencyHist};

pub mod dataplane;
pub mod exact;
pub mod journal;
pub mod lp;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "exact_arrivals",
    "lp_churn",
    "journal_recovery",
    "dataplane_sim",
];

/// Times one batch of a workload's set-ups from the seed; returns the
/// time per set-up.
type SetupBatch = fn(u64) -> Result<f64, String>;

/// What one measured phase recorded.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Wall time of every decision, seconds.
    pub decision_s: LatencyHist,
    /// Summed decision time, seconds.
    pub busy_s: f64,
    /// Sum over decisions of the guaranteed region right after it.
    pub slots_sum: f64,
    /// Sum over decisions of the admitted flow count right after it.
    pub flows_sum: f64,
    /// Time of every whole round, seconds: its decisions plus the
    /// program work between them (checks excluded).
    pub round_s: Vec<f64>,
    /// Decision time in the open round.
    round_open_s: f64,
    /// The trace collector of a traced phase.
    collector: Option<Arc<Collector>>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Per-layer probes: name → (sum, samples).
    pub probes: BTreeMap<&'static str, (f64, u64)>,
    /// Set when the phase measures `setup_s`: after every round, this
    /// many batches of set-ups from this seed are timed.
    setup_batch: Option<(SetupBatch, u64, usize)>,
    /// Time per set-up of every timed batch, seconds.
    pub setup_s: Vec<f64>,
    /// The first set-up that failed between rounds.
    setup_error: Option<String>,
}

impl Tally {
    /// Runs and times one decision. The caller reports the state it
    /// left with [`Tally::after`].
    pub fn decide<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        self.decision_s.record(s);
        self.busy_s += s;
        self.round_open_s += s;
        self.attempted += 1;
        out
    }

    /// Records the region and admitted count right after a decision.
    pub fn after(&mut self, guaranteed_slots: u32, flows: usize) {
        self.slots_sum += f64::from(guaranteed_slots);
        self.flows_sum += flows as f64;
    }

    /// Stops the traced phase's recording (no-op when untraced); checks
    /// run between [`Tally::pause`] and [`Tally::resume`].
    pub fn pause(&self) {
        if let Some(c) = &self.collector {
            c.pause();
        }
    }

    /// Resumes recording after [`Tally::pause`].
    pub fn resume(&self) {
        if let Some(c) = &self.collector {
            c.resume();
        }
    }

    /// Opens a round: the decisions recorded from here on belong to it.
    pub fn begin_round(&mut self) {
        self.round_open_s = 0.0;
    }

    /// Closes the open round. `other_s` is the program work in the
    /// round that is not a decision (journal creation and recovery,
    /// simulations). When the phase measures `setup_s`, the set-up
    /// batches are timed here, so that the set-up figure samples the
    /// whole run, as the decision figures do.
    pub fn end_round(&mut self, other_s: f64) {
        self.round_s.push(self.round_open_s + other_s);
        self.round_open_s = 0.0;
        if let Some((batch, seed, count)) = self.setup_batch {
            for _ in 0..count {
                match batch(seed) {
                    Ok(s) => self.setup_s.push(s),
                    Err(e) => {
                        self.setup_error.get_or_insert(e);
                    }
                }
            }
        }
    }

    /// Adds one sample to a per-layer probe.
    pub fn probe(&mut self, name: &'static str, value: f64) {
        let e = self.probes.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    /// A probe's sum (0 when never sampled).
    pub fn probe_sum(&self, name: &str) -> f64 {
        self.probes.get(name).map_or(0.0, |p| p.0)
    }

    /// A probe's mean (0 when never sampled).
    pub fn probe_mean(&self, name: &str) -> f64 {
        self.probes
            .get(name)
            .map_or(0.0, |&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
    }

    /// Decisions per second of decision time, over the whole phase:
    /// every long search counts with its full time.
    pub fn decisions_per_s(&self) -> f64 {
        self.decision_s.len() as f64 / self.busy_s
    }

    fn per_decision(&self, total: f64) -> f64 {
        total / self.decision_s.len().max(1) as f64
    }

    fn decision_ms(&self, q: f64) -> f64 {
        self.decision_s.quantile(q).map_or(f64::NAN, |s| s * 1e3)
    }
}

/// One workload: a seeded set-up and seeded rounds.
pub trait Workload {
    /// What the set-up builds and the rounds use.
    type Ready;

    /// Set-ups per timed batch for `setup_s`. One set-up takes
    /// microseconds; a batch should take about a millisecond, so that
    /// the clock's resolution and a single interrupt do not decide it.
    const SETUP_BATCH: usize;

    /// Set-up batches timed after every round. A workload with long
    /// rounds times several, so that the median of a run still draws
    /// on dozens of batches.
    const SETUP_BATCHES_PER_ROUND: usize = 1;

    /// Builds everything needed before the first timed decision.
    ///
    /// # Errors
    ///
    /// A description of what could not be built.
    fn setup(&self, seed: u64) -> Result<Self::Ready, String>;

    /// Runs whole rounds until `deadline`, recording into `tally`.
    /// With `probe` set it also samples the per-layer probes.
    ///
    /// # Errors
    ///
    /// A description of the first failed output check.
    fn run(
        &self,
        ready: &mut Self::Ready,
        seed: u64,
        deadline: Instant,
        tally: &mut Tally,
        probe: bool,
    ) -> Result<(), String>;
}

/// Measures the set-up, runs the workload and assembles the report.
///
/// # Errors
///
/// Set-up failures; failed output checks are reported in the result
/// (`correct: false`), not as errors.
pub fn execute<W: Workload + Default>(w: &W, args: &Args) -> Result<RunReport, String> {
    let budget = Duration::from_secs(args.seconds);
    if !args.trace {
        // One untimed batch first: it brings the allocator's free lists
        // to their working size.
        setup_batch::<W>(args.seed)?;
        let mut tally = Tally {
            setup_batch: Some((setup_batch::<W>, args.seed, W::SETUP_BATCHES_PER_ROUND)),
            ..Tally::default()
        };
        let verdict = phase(w, args.seed, budget, &mut tally, false);
        if let Some(e) = tally.setup_error.take() {
            return Err(e);
        }
        return Ok(report(verdict, &tally, e2e_metrics(&tally)));
    }

    // Traced run: the first half untraced, the second half traced, both
    // from the same seed, so the overhead ratio compares like with like.
    let mut plain = Tally::default();
    let mut verdict = phase(w, args.seed, budget / 2, &mut plain, false);
    let collector = Collector::install();
    let mut traced = Tally {
        collector: Some(collector.clone()),
        ..Tally::default()
    };
    if verdict.is_ok() {
        verdict = phase(w, args.seed, budget / 2, &mut traced, true);
    }
    let trace = collector.finish();
    let overhead = plain.decisions_per_s() / traced.decisions_per_s();
    let both = Tally {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        ..Tally::default()
    };
    Ok(report(
        verdict,
        &both,
        layer_metrics(&traced, &trace, overhead),
    ))
}

/// Times [`Workload::SETUP_BATCH`] set-ups in a row and returns the
/// time per set-up. What the batch built is dropped after the timing.
fn setup_batch<W: Workload + Default>(seed: u64) -> Result<f64, String> {
    let w = W::default();
    let mut built = Vec::with_capacity(W::SETUP_BATCH);
    let t = Instant::now();
    for _ in 0..W::SETUP_BATCH {
        built.push(w.setup(seed)?);
    }
    let s = t.elapsed().as_secs_f64();
    drop(built);
    Ok(s / W::SETUP_BATCH as f64)
}

fn phase<W: Workload>(
    w: &W,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    probe: bool,
) -> Result<(), String> {
    let mut ready = w.setup(seed)?;
    let deadline = Instant::now() + budget;
    w.run(&mut ready, seed, deadline, tally, probe)
}

fn report(verdict: Result<(), String>, tally: &Tally, metrics: Vec<Metric>) -> RunReport {
    if let Err(e) = &verdict {
        eprintln!("check failed: {e}");
    }
    RunReport {
        correct: verdict.is_ok() && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// The end-to-end metrics every workload reports. `setup_s` is the
/// median over the set-up batches timed between rounds.
pub fn e2e_metrics(t: &Tally) -> Vec<Metric> {
    let n = t.decision_s.len().max(1) as f64;
    vec![
        Metric::new("setup_s", "s", median(&t.setup_s).unwrap_or(f64::NAN)),
        Metric::new("decisions_per_s", "1/s", t.decisions_per_s()),
        Metric::new("decision_p50_ms", "ms", t.decision_ms(0.5)),
        Metric::new("decision_p90_ms", "ms", t.decision_ms(0.9)),
        Metric::new("round_s", "s", median(&t.round_s).unwrap_or(f64::NAN)),
        Metric::new("guaranteed_slots", "slots", t.slots_sum / n),
        Metric::new("flows_admitted", "flows", t.flows_sum / n),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
    ]
}

/// The per-layer metrics every workload reports (0 for a layer the
/// workload does not reach). Work counters and layer times are per
/// decision, so runs that manage more decisions stay comparable.
pub fn layer_metrics(t: &Tally, trace: &Trace, trace_overhead: f64) -> Vec<Metric> {
    let per = |v: f64| t.per_decision(v);
    let counter = |name: &str| per(trace.counter(name) as f64);
    let busy = t.busy_s;
    let share = |s: f64| (100.0 * s / busy).max(0.0);
    let lp_solves = trace.span("milp.simplex.solve").count as f64;
    let pivots = trace.counter("milp.simplex.pivots") as f64;
    let milp_s = trace.self_s("milp.");
    let core_s = trace.self_s("session.") + trace.self_s("admission.");
    let tdma_s = trace.self_s("tdma.");
    // Journaled requests: their time minus the solver time spent
    // inside `session.*` entry points.
    let svc_s = if t.probe_sum("svc.requests") > 0.0 {
        (busy - trace.outer_s("session.")).max(0.0)
    } else {
        0.0
    };
    let sim_wall = t.probe_sum("emu.tdma.run_s") + t.probe_sum("phy80211.dcf_s");
    let sim_span = t.probe_sum("sim.simulated_s");
    vec![
        Metric::new(
            "milp.bnb.nodes",
            "count/op",
            counter("milp.bnb.nodes_explored"),
        ),
        Metric::new("milp.lp.solves", "count/op", per(lp_solves)),
        Metric::new("milp.lp.pivots", "count/op", per(pivots)),
        Metric::new(
            "milp.lp.pivots_per_solve",
            "count",
            if lp_solves > 0.0 {
                pivots / lp_solves
            } else {
                0.0
            },
        ),
        Metric::new(
            "milp.lp.self_s",
            "s/op",
            per(trace.span("milp.simplex.solve").self_ns as f64 * 1e-9),
        ),
        Metric::new(
            "milp.bnb.self_s",
            "s/op",
            per(trace.span("milp.bnb.solve").self_ns as f64 * 1e-9),
        ),
        Metric::new(
            "milp.warm.attempts",
            "count/op",
            counter("milp.simplex.warm.attempts"),
        ),
        Metric::new(
            "milp.warm.fallbacks",
            "count/op",
            counter("milp.simplex.warm.fallbacks"),
        ),
        Metric::new("milp.share", "%", share(milp_s)),
        Metric::new(
            "core.oracle.calls",
            "count/op",
            counter("session.oracle.calls"),
        ),
        Metric::new(
            "core.oracle.saved",
            "count/op",
            counter("session.oracle.saved"),
        ),
        Metric::new("core.session.self_s", "s/op", per(core_s)),
        Metric::new(
            "core.graph.incremental",
            "count/op",
            counter("session.graph.incremental"),
        ),
        Metric::new("core.share", "%", share(core_s)),
        Metric::new(
            "tdma.bf.rounds",
            "count/op",
            counter("tdma.bf.relaxation_rounds"),
        ),
        Metric::new(
            "tdma.order.validated",
            "count/op",
            counter("tdma.order.validated"),
        ),
        Metric::new(
            "tdma.order.misses",
            "count/op",
            counter("tdma.order.validation_miss"),
        ),
        Metric::new("tdma.schedule.self_s", "s/op", per(tdma_s)),
        Metric::new(
            "tdma.approx.repair_rounds",
            "count/op",
            counter("tdma.approx.repair_rounds"),
        ),
        Metric::new("tdma.share", "%", share(tdma_s)),
        Metric::new("conflict.build_us", "us", t.probe_mean("conflict.build_us")),
        Metric::new(
            "svc.journal.writes",
            "count/op",
            per(t.probe_sum("svc.journal.writes")),
        ),
        Metric::new(
            "svc.journal.bytes",
            "B/op",
            per(t.probe_sum("svc.journal.bytes")),
        ),
        Metric::new("svc.request.overhead_s", "s/op", per(svc_s)),
        Metric::new(
            "svc.snapshots",
            "count/op",
            per(t.probe_sum("svc.snapshots")),
        ),
        Metric::new("svc.share", "%", share(svc_s)),
        Metric::new("svc.journal_mb", "MB", t.probe_mean("svc.journal_mb")),
        Metric::new("svc.recover_s", "s", t.probe_mean("svc.recover_s")),
        Metric::new(
            "svc.recover.read_s",
            "s",
            t.probe_mean("svc.recover.read_s"),
        ),
        Metric::new(
            "svc.recover.parse_s",
            "s",
            t.probe_mean("svc.recover.parse_s"),
        ),
        Metric::new(
            "svc.recover.replay_s",
            "s",
            t.probe_mean("svc.recover.replay_s"),
        ),
        Metric::new("check.recovery_s", "s", t.probe_mean("check.recovery_s")),
        Metric::new(
            "sim.events",
            "count/sim_s",
            if sim_span > 0.0 {
                trace.counter("sim.events.processed") as f64 / sim_span
            } else {
                0.0
            },
        ),
        Metric::new(
            "sim.queue.depth_max",
            "count",
            trace.gauge("sim.events.depth_high_water"),
        ),
        Metric::new(
            "sim.speed",
            "sim_s/s",
            if sim_wall > 0.0 {
                sim_span / sim_wall
            } else {
                0.0
            },
        ),
        Metric::new("emu.tdma.run_s", "s", t.probe_mean("emu.tdma.run_s")),
        Metric::new("phy80211.dcf_s", "s", t.probe_mean("phy80211.dcf_s")),
        Metric::new("topology.routes_s", "s", t.probe_mean("topology.routes_s")),
        Metric::new("decision_p99_ms", "ms", t.decision_ms(0.99)),
        Metric::new("obs.trace_overhead", "ratio", trace_overhead),
    ]
}

/// Seeded admit/release churn over a call pool: admit a random idle
/// call while fewer than `target` are admitted, otherwise release a
/// random admitted one. The admitted set hovers at the target while its
/// make-up keeps changing. The caller reports what each step did.
#[derive(Debug, Clone)]
pub struct Churn {
    pool: u32,
    target: usize,
    active: BTreeSet<u32>,
}

/// One churn step: the pool index to admit or release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Admit this idle call.
    Admit(u32),
    /// Release this admitted call.
    Release(u32),
}

impl Churn {
    /// Churn over calls `0..pool` around `target` admitted calls.
    pub fn new(pool: usize, target: usize) -> Self {
        Churn {
            pool: pool as u32,
            target,
            active: BTreeSet::new(),
        }
    }

    /// The next step, drawn from `rng`.
    pub fn next(&self, rng: &mut StdRng) -> Step {
        if self.active.len() < self.target {
            let idle: Vec<u32> = (0..self.pool)
                .filter(|i| !self.active.contains(i))
                .collect();
            Step::Admit(idle[rng.gen_range(0..idle.len())])
        } else {
            let held: Vec<u32> = self.active.iter().copied().collect();
            Step::Release(held[rng.gen_range(0..held.len())])
        }
    }

    /// Records that call `id` was admitted.
    pub fn admitted(&mut self, id: u32) {
        self.active.insert(id);
    }

    /// Records that call `id` was released.
    pub fn released(&mut self, id: u32) {
        self.active.remove(&id);
    }

    /// The calls the bookkeeping holds as admitted.
    pub fn active(&self) -> &BTreeSet<u32> {
        &self.active
    }
}

/// Runs the workload `args` names.
///
/// # Errors
///
/// An unknown workload name, or a set-up failure.
pub fn run_named(args: &Args) -> Result<RunReport, String> {
    match args.workload.as_str() {
        "exact_arrivals" => execute(&exact::ExactArrivals, args),
        "lp_churn" => execute(&lp::LpChurn, args),
        "journal_recovery" => execute(&journal::JournalRecovery, args),
        "dataplane_sim" => execute(&dataplane::DataplaneSim, args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Mixes the command-line seed with a per-workload salt so the workloads
/// draw unrelated streams from one seed.
pub fn stream_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
}
