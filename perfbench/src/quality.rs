//! Plan quality: simulated iteration time of a plan against the four
//! baselines on the same cluster (the paper's Sec. 7 metric).

use hap::prelude::*;
use hap_baselines::{build_baseline, Baseline};
use hap_bench::{net_for, sim_options};
use hap_collectives::profile_collectives;
use hap_simulator::{memory_footprint, simulate_time};
use hap_synthesis::ShardingRatios;

use hap_service::PlanReply;

use crate::report::{geomean, Report};
use crate::requests::Req;
use crate::trace::Tracer;

/// One ledger row: a system's cost-model estimate, simulated time (both
/// seconds) and whether it fits in device memory.
struct Scored {
    system: &'static str,
    estimate: f64,
    sim: f64,
    fits: bool,
}

impl Scored {
    fn err_pct(&self) -> f64 {
        (self.estimate - self.sim).abs() / self.sim * 100.0
    }
}

/// Scores HAP's plan and every baseline for one request. Row 0 is HAP.
fn score(
    graph: &Graph,
    cluster: &ClusterSpec,
    program: &DistProgram,
    ratios: &ShardingRatios,
    estimate: f64,
    tracer: &mut Tracer,
    req: u64,
) -> Vec<Scored> {
    let devices = cluster.virtual_devices(Granularity::PerGpu);
    let net = net_for(cluster);
    let profile = profile_collectives(&net, devices.len());
    let mut rows = Vec::new();
    let sim = tracer.span("simulator.simulate", req, || {
        simulate_time(graph, program, &devices, &net, ratios, &sim_options())
    });
    rows.push(Scored {
        system: "HAP",
        estimate,
        sim: sim.iteration_time,
        fits: memory_footprint(graph, program, &devices, ratios).fits(),
    });
    for bl in Baseline::all() {
        let Ok(bp) = build_baseline(bl, graph, cluster, Granularity::PerGpu) else {
            continue;
        };
        let estimate =
            hap_balancer::estimate_time(graph, &bp.program, &devices, &profile, &bp.ratios);
        let sim = tracer.span("simulator.simulate", req, || {
            simulate_time(graph, &bp.program, &devices, &net, &bp.ratios, &sim_options())
        });
        let fits = memory_footprint(graph, &bp.program, &devices, &bp.ratios).fits();
        rows.push(Scored { system: bl.name(), estimate, sim: sim.iteration_time, fits });
    }
    rows
}

/// Accumulates the ledger and the three plan-quality metrics.
#[derive(Default)]
pub struct Ledger {
    hap_sim_ms: Vec<f64>,
    speedups: Vec<f64>,
    max_err_pct: f64,
    simulate_s: f64,
}

impl Ledger {
    pub fn header() {
        println!("# quality ledger (est/sim in ms; err = |est-sim|/sim)");
        println!(
            "#   {:<22} {:<10} {:>10} {:>10} {:>5} {:>8}",
            "request", "system", "est", "sim", "fits", "err%"
        );
    }

    /// Scores one plan, prints its rows and folds it into the metrics.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        name: &str,
        graph: &Graph,
        cluster: &ClusterSpec,
        program: &DistProgram,
        ratios: &ShardingRatios,
        estimate: f64,
        tracer: &mut Tracer,
        req: u64,
        report: &mut Report,
    ) {
        let t = std::time::Instant::now();
        let rows = score(graph, cluster, program, ratios, estimate, tracer, req);
        self.simulate_s += t.elapsed().as_secs_f64();
        for r in &rows {
            println!(
                "#   {:<22} {:<10} {:>10.4} {:>10.4} {:>5} {:>8.2}",
                name,
                r.system,
                r.estimate * 1e3,
                r.sim * 1e3,
                r.fits,
                r.err_pct()
            );
        }
        let hap = &rows[0];
        report.check(hap.fits, || format!("{name}: HAP plan does not fit in memory"));
        self.hap_sim_ms.push(hap.sim * 1e3);
        self.max_err_pct = self.max_err_pct.max(hap.err_pct());
        let best = rows[1..].iter().filter(|r| r.fits).map(|r| r.sim).fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            self.speedups.push(best / hap.sim);
            println!("#   {name:<22} speedup vs best fitting baseline: {:.4}x", best / hap.sim);
        }
    }

    pub fn report(&self, report: &mut Report) {
        report.metric("sim_iter_ms_geomean", "sim_ms", geomean(&self.hap_sim_ms));
        report.metric("speedup_vs_best_baseline_geomean", "ratio", geomean(&self.speedups));
        report.metric("est_error_max_pct", "%", self.max_err_pct);
        report.metric("simulator.simulate_s", "s", self.simulate_s);
    }
}

/// The quality ledger and metrics of the plans a daemon served for `hot`.
pub fn score_served(hot: &[Req], replies: &[PlanReply], tracer: &mut Tracer, report: &mut Report) {
    let mut ledger = Ledger::default();
    Ledger::header();
    for (i, (r, p)) in hot.iter().zip(replies).enumerate() {
        let req = 3000 + i as u64;
        ledger.add(
            &r.name,
            &r.graph,
            &r.cluster,
            &p.program,
            &p.ratios,
            p.estimated_time,
            tracer,
            req,
            report,
        );
    }
    ledger.report(report);
}
