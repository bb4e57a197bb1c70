//! Reading the daemon from outside: `stats` deltas and the `trace` ring.

use std::collections::{HashMap, HashSet};

use hap_service::{Client, Outcome, RequestTrace, SpanKind, StatsSnapshot, Verb};

use crate::report::{Report, Sample};

/// Counter deltas over a window (`after - before`).
pub fn stats_delta(report: &mut Report, before: &StatsSnapshot, after: &StatsSnapshot) {
    let d = |f: fn(&StatsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let hits = d(|s| s.hits);
    let misses = d(|s| s.misses);
    report.metric("cache.hits", "count", hits);
    report.metric("cache.misses", "count", misses);
    report.metric("cache.coalesced", "count", d(|s| s.coalesced));
    report.metric("cache.synthesized", "count", d(|s| s.synthesized));
    report.metric("cache.evictions", "count", d(|s| s.evictions));
    report.metric("cache.admission_rejected", "count", d(|s| s.admission_rejected));
    report.metric("cache.replanned", "count", d(|s| s.replanned));
    report.metric("cache.hit_ratio", "ratio", hits / (hits + misses).max(1.0));
    report.metric("cache.persist_errors", "count", d(|s| s.persist_errors));
    report.metric("dispatch.shed", "count", d(|s| s.shed));
}

/// Completed plan/replan traces collected from the daemon's ring,
/// deduplicated by trace id.
#[derive(Default)]
pub struct TraceSampler {
    seen: HashMap<u64, RequestTrace>,
    /// Traces that completed before the window (warm-up), never kept.
    before: HashSet<u64>,
}

impl TraceSampler {
    /// Pulls the most recent `n` traces.
    pub fn sample(&mut self, client: &mut Client, n: usize) -> Result<(), String> {
        let traces = client.traces(n, 0).map_err(|e| format!("trace verb failed: {e}"))?;
        for t in traces {
            if matches!(t.verb, Verb::Plan | Verb::Replan) && !self.before.contains(&t.trace_id) {
                self.seen.entry(t.trace_id).or_insert(t);
            }
        }
        Ok(())
    }

    /// Marks every trace seen so far, and every trace in the ring now, as
    /// before the window.
    pub fn start_window(&mut self, client: &mut Client, n: usize) -> Result<(), String> {
        self.sample(client, n)?;
        self.before.extend(self.seen.drain().map(|(id, _)| id));
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Per-trace duration (us) of one span kind over traces whose outcome
    /// passes `keep`.
    pub fn span_us(&self, kind: SpanKind, keep: impl Fn(Outcome) -> bool) -> Sample {
        let mut s = Sample::new();
        for t in self.seen.values().filter(|t| keep(t.outcome)) {
            let ns: u64 =
                t.spans.iter().filter(|sp| sp.kind == kind).map(|sp| sp.duration_nanos()).sum();
            if t.spans.iter().any(|sp| sp.kind == kind) {
                s.push(ns as f64 / 1e3);
            }
        }
        s
    }
}
