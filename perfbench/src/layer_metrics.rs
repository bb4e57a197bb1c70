//! Per-layer metric groups shared by the workloads.

use hap::SynthProfile;

use crate::layers::RoundTimes;
use crate::report::Report;

/// Cold-path layer times from one replayed round per request.
pub fn cold_path(report: &mut Report, parallelize_s: f64, rt: &RoundTimes) {
    report.metric("core.parallelize_s", "s", parallelize_s);
    report.metric("core.astar_share", "ratio", rt.astar_s / rt.total_s());
    report.metric("synthesis.theory_s", "s", rt.theory_s);
    report.metric("synthesis.astar_s", "s", rt.astar_s);
    report.metric(
        "synthesis.expansions_per_s",
        "1/s",
        rt.synth.expansions as f64 / rt.astar_s.max(1e-9),
    );
    report.metric("baselines.portfolio_s", "s", rt.portfolio_s);
    report.metric("balancer.lp_s", "s", rt.lp_s);
    report.metric("balancer.estimate_s", "s", rt.estimate_s);
    report.metric("simulator.memory_s", "s", rt.memory_s);
    report.metric("collectives.profile_s", "s", rt.profile_s);
}

/// Exact search counters (`SynthProfile`, merged over rounds and plans).
pub fn synth_counts(report: &mut Report, p: &SynthProfile) {
    let counts = [
        ("synthesis.expansions", p.expansions),
        ("synthesis.waves", p.waves),
        ("synthesis.candidates", p.candidates),
        ("synthesis.committed", p.committed),
        ("synthesis.dominance_pruned", p.dominance_pruned),
        ("synthesis.incumbent_pruned", p.incumbent_pruned),
        ("synthesis.frontier_peak", p.frontier_peak),
        ("synthesis.warm_seeded", p.warm_seeded),
    ];
    for (name, v) in counts {
        report.metric(name, "count", v as f64);
    }
    report.metric(
        "synthesis.commit_ratio",
        "ratio",
        p.committed as f64 / (p.candidates as f64).max(1.0),
    );
}

/// Request counts of one harness phase (`setup`, `warmup` or `timed`).
pub fn phase(report: &mut Report, phase: &str, sent: u64, ok: u64) {
    report.metric(&format!("bench.{phase}.requests_sent"), "count", sent as f64);
    report.metric(&format!("bench.{phase}.requests_ok"), "count", ok as f64);
    report.metric(&format!("bench.{phase}.requests_failed"), "count", (sent - ok) as f64);
}

/// Fills every per-layer metric this workload does not exercise with 0
/// and lists them in the record.
pub fn fill_unexercised(report: &mut Report) {
    let mut missing = Vec::new();
    for &(name, unit) in crate::LAYER_METRICS {
        if report.metrics.iter().all(|m| m.name != name) {
            report.metric(name, unit, 0.0);
            missing.push(name);
        }
    }
    if !missing.is_empty() {
        println!("# not exercised by this workload (reported as 0): {}", missing.join(" "));
    }
}
