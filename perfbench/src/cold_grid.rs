//! `cold_grid`: closed loop, one caller, in-process cold planning of the
//! paper's four models on two heterogeneous clusters, every plan scored
//! against the four baselines on the simulator.
//!
//! Why: synthesis, the LP and memory checks do all the work and the
//! service does none. Plan quality is the paper's own metric (Sec. 7),
//! and A*-engine changes must show their gain here.

use std::collections::HashMap;
use std::time::Instant;

use hap::prelude::*;
use hap::{Plan, SynthProfile};
use hap_bench::figures::harness_model;
use hap_bench::harness_options;
use hap_graph::{Role, Tensor};
use hap_models::{Benchmark, MlpConfig};

use crate::layers::{replay_round, RoundTimes};
use crate::quality::Ledger;
use crate::report::{Report, Sample};
use crate::requests::{plan_bits, ReplyBits};
use crate::trace::Tracer;
use crate::{report_setup, seeded_shuffle, Args};

/// The A* wall-clock budget: far above any run's length, so the search
/// always ends structurally (stall cutoff, expansion cap or exhaustion)
/// and plans never depend on timing. Asserted per plan.
const NEVER_FIRES_S: f64 = 1.0e6;

/// Synthesis worker threads (plans are identical for every value). One:
/// on a 2-core host the wave-parallel search is no faster with two (about
/// 12-13 s per pass either way), and with two every wave waits for the
/// slower core, so a busy neighbour on either core slows the cell.
const THREADS: usize = 1;

struct Cell {
    name: String,
    graph: Graph,
    cluster: ClusterSpec,
}

pub fn options() -> HapOptions {
    let mut opts = harness_options(Granularity::PerGpu);
    opts.synth.time_budget_secs = NEVER_FIRES_S;
    opts.synth.threads = THREADS;
    opts
}

fn build_cells() -> Vec<Cell> {
    let clusters =
        [("het8", ClusterSpec::paper_heterogeneous(1)), ("fig17", ClusterSpec::fig17_cluster())];
    let mut cells = Vec::new();
    for b in Benchmark::all() {
        for (cname, cluster) in &clusters {
            cells.push(Cell {
                name: format!("{}/{cname}", b.name()),
                graph: harness_model(b, cluster.total_gpus()),
                cluster: cluster.clone(),
            });
        }
    }
    cells
}

/// Functional-equivalence check: a tiny model's plan, executed on real
/// tensors, must match the single-device program.
fn verify_tiny(report: &mut Report) {
    let graph = hap_models::mlp(&MlpConfig { batch: 64, input: 16, hidden: vec![32], classes: 8 });
    let cluster = ClusterSpec::fig17_cluster();
    let plan = match hap::parallelize(&graph, &cluster, &options()) {
        Ok(p) => p,
        Err(e) => return report.check(false, || format!("tiny plan failed: {e}")),
    };
    let mut feeds = HashMap::new();
    for n in plan.graph.nodes() {
        let dims = n.shape.dims().to_vec();
        match n.role {
            Role::Input | Role::Param => {
                feeds.insert(n.id, Tensor::randn(dims, n.id as u64));
            }
            Role::Label => {
                let t = Tensor::randn(dims, n.id as u64)
                    .map(|v| ((v + 0.5) * 8.0).floor().clamp(0.0, 7.0));
                feeds.insert(n.id, t);
            }
            _ => {}
        }
    }
    match plan.verify(&feeds) {
        Ok(r) => report.check(r.max_error < 1e-3, || {
            format!("tiny plan is not equivalent: max error {}", r.max_error)
        }),
        Err(e) => report.check(false, || format!("tiny plan failed to execute: {e}")),
    }
}

/// One set-up: inputs built and the functional check passed. Returns the
/// cells and the set-up's wall seconds.
fn set_up(report: &mut Report) -> (Vec<Cell>, f64) {
    let t = Instant::now();
    let cells = build_cells();
    verify_tiny(report);
    (cells, t.elapsed().as_secs_f64())
}

/// Plans one cell and checks the plan; returns wall seconds.
fn plan_cell(
    cell: &Cell,
    opts: &HapOptions,
    tracer: &mut Tracer,
    req: u64,
    report: &mut Report,
) -> Option<(f64, Plan, SynthProfile)> {
    report.attempted += 1;
    let t = Instant::now();
    let out = tracer.span("core.parallelize", req, || {
        hap::parallelize_with_warm_profiled(&cell.graph, &cell.cluster, opts, None)
    });
    let dt = t.elapsed().as_secs_f64();
    let (plan, prof) = match out {
        Ok(x) => x,
        Err(e) => {
            report.failed += 1;
            report.check(false, || format!("{}: planning failed: {e}", cell.name));
            return None;
        }
    };
    report.check(plan.program.is_complete(&plan.graph), || {
        format!("{}: plan is incomplete", cell.name)
    });
    for row in &plan.ratios {
        let sum: f64 = row.iter().sum();
        report
            .check((sum - 1.0).abs() < 1e-9, || format!("{}: ratio row sums to {sum}", cell.name));
    }
    // Structural termination: the whole optimization (every round's
    // search) finished inside the budget, so no deadline fired.
    report.check(dt < opts.synth.time_budget_secs, || {
        format!("{}: {dt:.1}s reached the A* wall-clock budget", cell.name)
    });
    Some((dt, plan, prof))
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let opts = options();
    let (cells, setup_s) = set_up(report);
    // The set-up is repeated after every plan, so its samples span the
    // whole run: the host's speed changes between phases of seconds to
    // minutes, and the fastest repeat (`setup_s`) needs one fast phase.
    let mut setups = vec![setup_s];

    // Timed window: whole passes over the grid in a seeded order, while a
    // further pass is expected to end nearer the target than stopping. The
    // repeated set-ups do not count towards the window.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut times = Sample::new();
    let mut busy = 0.0;
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut first: Vec<Option<(Plan, SynthProfile)>> = cells.iter().map(|_| None).collect();
    let mut bits: Vec<Option<ReplyBits>> = vec![None; cells.len()];
    let start = Instant::now();
    let mut pass = 0u64;
    let mut untraced = Tracer::new(false);
    loop {
        seeded_shuffle(&mut order, args.seed ^ pass);
        let pass_start = Instant::now();
        for &i in &order {
            let req = pass * 100 + i as u64;
            let Some((dt, plan, prof)) = plan_cell(&cells[i], &opts, &mut untraced, req, report)
            else {
                continue;
            };
            times.push(dt * 1e3);
            busy += dt;
            per_cell[i].push(dt * 1e3);
            let b = plan_bits(&plan);
            match &bits[i] {
                None => bits[i] = Some(b),
                Some(prev) => report.check(*prev == b, || {
                    format!("{}: plan bits differ between passes", cells[i].name)
                }),
            }
            if first[i].is_none() {
                first[i] = Some((plan, prof));
            }
            setups.push(set_up(report).1);
        }
        pass += 1;
        let elapsed = start.elapsed().as_secs_f64() - setups[1..].iter().sum::<f64>();
        let pass_s = pass_start.elapsed().as_secs_f64();
        if elapsed + pass_s / 2.0 >= args.seconds {
            break;
        }
    }
    for (cell, ms) in cells.iter().zip(&per_cell) {
        let ms: Vec<String> = ms.iter().map(|t| format!("{t:.1}")).collect();
        println!("# cell {:<16} passes ms: {}", cell.name, ms.join(" "));
    }
    let timed_sent = report.attempted;
    let n_setups = setups.len() as u64;
    report_setup(report, setups);
    // Whole-window figures: a slow phase of the host can cover a whole run,
    // and the median over every plan moves less with it than each cell's
    // fastest pass does.
    report.metric_with("plans_per_s", "1/s", times.len() as f64 / busy, &times);
    report.metric_with("latency_p50_ms", "ms", times.median(), &times);
    println!("# cold_grid: {pass} passes, {} plans, {busy:.3}s planning", times.len());

    // Traced window: one more pass with spans, then one replayed round per
    // cell through the layers' public functions.
    if tracer.enabled() {
        let t = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            if let Some((_, plan, _)) = plan_cell(cell, &opts, tracer, 1000 + i as u64, report) {
                report.check(bits[i] == Some(plan_bits(&plan)), || {
                    format!("{}: traced plan differs", cell.name)
                });
            }
        }
        let parallelize_s = t.elapsed().as_secs_f64();
        let mut rt = RoundTimes::default();
        for (i, cell) in cells.iter().enumerate() {
            if let Err(e) =
                replay_round(&cell.graph, &cell.cluster, &opts, tracer, 2000 + i as u64, &mut rt)
            {
                report.check(false, || format!("{}: {e}", cell.name));
            }
        }
        // The untraced window's mean planning time per pass.
        let untraced_s = busy / pass as f64;
        crate::layer_metrics::cold_path(report, parallelize_s, &rt);
        let mut synth = SynthProfile::default();
        for (_, prof) in first.iter().flatten() {
            synth.merge(prof);
        }
        crate::layer_metrics::synth_counts(report, &synth);
        crate::layer_metrics::phase(report, "setup", n_setups, n_setups);
        crate::layer_metrics::phase(report, "timed", timed_sent, times.len() as u64);
        let failed = timed_sent - times.len() as u64;
        report.metric("failed_frac", "ratio", failed as f64 / timed_sent.max(1) as f64);
        report.metric("bench.trace_overhead_pct", "%", (parallelize_s / untraced_s - 1.0) * 100.0);
    }

    // Plan quality, scored outside the timed window.
    let mut ledger = Ledger::default();
    Ledger::header();
    for (i, cell) in cells.iter().enumerate() {
        let Some((plan, _)) = &first[i] else { continue };
        let (g, c, p) = (&plan.graph, &cell.cluster, &plan.program);
        ledger.add(
            &cell.name,
            g,
            c,
            p,
            &plan.ratios,
            plan.estimated_time,
            tracer,
            3000 + i as u64,
            report,
        );
    }
    println!("# plan digest: {:016x}", digest(&bits));
    ledger.report(report);
    report.metric("peak_rss_mb", "MB", crate::host::peak_rss_mb(None).unwrap_or(f64::NAN));
}

/// FNV-1a over every cell's plan bits: equal digests across runs mean
/// bit-identical plans.
fn digest(bits: &[Option<ReplyBits>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for b in bits.iter().flatten() {
        eat(b.program_fp);
        eat(b.time_bits);
        b.ratio_bits.iter().flatten().for_each(|&r| eat(r));
    }
    h
}
