//! The trace collector: a `wimesh-obs` sink owned by the benchmark.
//!
//! It aggregates the spans the crates already emit — count, total time
//! and self time per span name — and keeps the final counter and gauge
//! snapshot. Span durations are summed from [`SpanEvent::dur_ns`]
//! directly, because the registry's duration histograms clip at 40 ms.
//!
//! Self time is total time minus the time of the spans closed directly
//! inside it on the same thread: spans close children-first, so a
//! per-thread accumulator indexed by nesting depth attributes every
//! child to its parent when the parent closes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use wimesh_obs::metrics::MetricsSnapshot;
use wimesh_obs::sink::Sink;
use wimesh_obs::span::SpanEvent;

/// Aggregate of every closed span with one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Summed wall time not covered by child spans, nanoseconds.
    pub self_ns: u64,
    /// Summed wall time of the spans opened at nesting depth 0.
    pub outer_ns: u64,
}

/// What one traced phase recorded.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Trace {
    /// Span aggregates by name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge high-water marks by name.
    pub gauge_max: BTreeMap<String, f64>,
}

impl Trace {
    /// A counter's final value (0 when it never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's high-water mark (0 when never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauge_max.get(name).copied().unwrap_or(0.0)
    }

    /// One span name's aggregate (all zero when it never closed).
    pub fn span(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of every span whose name starts with `prefix`,
    /// in seconds.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.self_ns as f64 * 1e-9)
            .sum()
    }

    /// Summed time of the depth-0 spans whose name starts with
    /// `prefix`, in seconds: the wall time spent inside that layer's
    /// entry points, children included.
    pub fn outer_s(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, t)| t.outer_ns as f64 * 1e-9)
            .sum()
    }
}

/// The sink. Install with [`Collector::install`], read with
/// [`Collector::finish`].
#[derive(Debug, Default)]
pub struct Collector {
    spans: Mutex<BTreeMap<&'static str, SpanTotals>>,
    snapshot: Mutex<Option<MetricsSnapshot>>,
}

thread_local! {
    /// Time of already-closed child spans, indexed by the depth of the
    /// parent that will claim it.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Collector {
    /// Clears the registry and installs a fresh collector as the
    /// process-global sink.
    pub fn install() -> Arc<Collector> {
        wimesh_obs::reset();
        CHILD_NS.with(|c| c.borrow_mut().clear());
        let collector = Arc::new(Collector::default());
        wimesh_obs::install(collector.clone());
        collector
    }

    /// Stops recording — spans, counters and gauges alike — until
    /// [`Collector::resume`], so that work done between decisions (the
    /// benchmark's own checks, which call into the crates too) stays out
    /// of the per-layer figures.
    pub fn pause(&self) {
        wimesh_obs::finish();
    }

    /// Resumes recording after [`Collector::pause`].
    pub fn resume(self: &Arc<Self>) {
        wimesh_obs::install(self.clone());
    }

    /// Uninstalls the sink (which delivers the final metrics snapshot)
    /// and returns everything recorded.
    pub fn finish(&self) -> Trace {
        wimesh_obs::finish();
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let snapshot = self
            .snapshot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_default();
        wimesh_obs::reset();
        Trace {
            spans,
            counters: snapshot.counters.into_iter().collect(),
            gauge_max: snapshot
                .gauges
                .into_iter()
                .map(|(n, g)| (n, g.max))
                .collect(),
        }
    }

    fn record(&self, event: &SpanEvent) {
        let depth = event.depth as usize;
        let children = CHILD_NS.with(|c| {
            let mut c = c.borrow_mut();
            if c.len() < depth + 2 {
                c.resize(depth + 2, 0);
            }
            let children = std::mem::take(&mut c[depth + 1]);
            c[depth] += event.dur_ns;
            children
        });
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let t = spans.entry(event.name).or_default();
        t.count += 1;
        t.total_ns += event.dur_ns;
        t.self_ns += event.dur_ns.saturating_sub(children);
        if depth == 0 {
            t.outer_ns += event.dur_ns;
        }
    }
}

impl Sink for Collector {
    fn on_span(&self, event: &SpanEvent) {
        self.record(event);
    }

    fn on_metrics(&self, snapshot: &MetricsSnapshot) {
        *self.snapshot.lock().unwrap_or_else(PoisonError::into_inner) = Some(snapshot.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, dur_ns: u64, depth: u32) -> SpanEvent {
        SpanEvent {
            name,
            start_us: 0,
            dur_ns,
            depth,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let c = Collector::default();
        // outer(100) { mid(60) { leaf(25) } leaf(10) }, closed
        // children-first as the span guards drop.
        c.record(&event("leaf", 25, 2));
        c.record(&event("mid", 60, 1));
        c.record(&event("leaf", 10, 1));
        c.record(&event("outer", 100, 0));
        let spans = c.spans.lock().unwrap();
        assert_eq!(spans["outer"].self_ns, 30);
        assert_eq!(spans["mid"].self_ns, 35);
        assert_eq!(spans["leaf"].self_ns, 35);
        assert_eq!(spans["leaf"].count, 2);
        assert_eq!(spans["outer"].total_ns, 100);
        assert_eq!(spans["outer"].outer_ns, 100);
        assert_eq!(spans["leaf"].outer_ns, 0);
        let self_sum: u64 = spans.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the outermost span");
    }
}
