//! The HAP benchmark: one workload per run, end-to-end metrics by default,
//! per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench --workload cold_grid|hit_storm --seed N --seconds S
//!           --trace 0|1 [--serve-bin PATH] [--out DIR]
//! ```
//!
//! `perfbench/run.py` builds this binary and the `hap-serve` daemon and
//! forwards its arguments here. The last line of standard output is one
//! JSON object `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`;
//! every earlier line is the human-readable run record (prefixed `#`).
//! The exit code is 0 only when every output check passed.

mod cold_grid;
mod daemon;
mod hit_storm;
mod host;
mod layer_metrics;
mod layers;
mod openloop;
mod quality;
mod report;
mod requests;
mod service_probe;
mod tenant_mix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use report::{Report, Sample};
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run.
pub const E2E_METRICS: &[&str] = &[
    "setup_s",
    "plans_per_s",
    "latency_p50_ms",
    "peak_rss_mb",
    "sim_iter_ms_geomean",
    "speedup_vs_best_baseline_geomean",
    "est_error_max_pct",
];

/// Per-layer metrics and their units, printed by every traced run.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.parallelize_s", "s"),
    ("core.astar_share", "ratio"),
    ("synthesis.theory_s", "s"),
    ("synthesis.astar_s", "s"),
    ("synthesis.expansions_per_s", "1/s"),
    ("synthesis.expansions", "count"),
    ("synthesis.waves", "count"),
    ("synthesis.candidates", "count"),
    ("synthesis.committed", "count"),
    ("synthesis.dominance_pruned", "count"),
    ("synthesis.incumbent_pruned", "count"),
    ("synthesis.frontier_peak", "count"),
    ("synthesis.warm_seeded", "count"),
    ("synthesis.commit_ratio", "ratio"),
    ("baselines.portfolio_s", "s"),
    ("balancer.lp_s", "s"),
    ("balancer.estimate_s", "s"),
    ("simulator.memory_s", "s"),
    ("collectives.profile_s", "s"),
    ("simulator.simulate_s", "s"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("service.handle_line_us", "us"),
    ("codec.parse_us", "us"),
    ("codec.fingerprint_us", "us"),
    ("codec.plan_render_us", "us"),
    ("codec.request_bytes", "B"),
    ("codec.response_bytes", "B"),
    ("codec.graph_decode_us", "us"),
    ("service.decode_us", "us"),
    ("service.cache_lookup_us", "us"),
    ("service.encode_us", "us"),
    ("net.frame_us", "us"),
    ("net.flush_us", "us"),
    ("net.unattributed_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.coalesced", "count"),
    ("cache.synthesized", "count"),
    ("cache.evictions", "count"),
    ("cache.admission_rejected", "count"),
    ("cache.replanned", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.log_bytes", "B"),
    ("cache.persist_errors", "count"),
    ("dispatch.queue_wait_ms_p50", "ms"),
    ("dispatch.queue_wait_ms_p90", "ms"),
    ("dispatch.synthesis_ms_p50", "ms"),
    ("dispatch.shed", "count"),
    ("dispatch.worker_busy_frac", "ratio"),
    ("latency_p99_ms", "ms"),
    ("hit_latency_p99_ms", "ms"),
    ("miss_latency_p50_ms", "ms"),
    ("miss_latency_p90_ms", "ms"),
    ("failed_frac", "ratio"),
    ("bench.gen_lateness_p99_ms", "ms"),
    ("bench.setup.requests_sent", "count"),
    ("bench.setup.requests_ok", "count"),
    ("bench.setup.requests_failed", "count"),
    ("bench.warmup.requests_sent", "count"),
    ("bench.warmup.requests_ok", "count"),
    ("bench.warmup.requests_failed", "count"),
    ("bench.timed.requests_sent", "count"),
    ("bench.timed.requests_ok", "count"),
    ("bench.timed.requests_failed", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.calib_matmul64_us", "us"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `hap-serve` binary (service workloads).
    pub serve_bin: Option<PathBuf>,
    /// Where traced runs write spans and service workloads keep their
    /// temporary cache files.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        out: PathBuf::from(".perfbench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("bad seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            "--out" => args.out = PathBuf::from(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Reports `setup_s` as the fastest of a run's set-ups: interference from
/// other work on the host only ever adds time to a fixed amount of set-up
/// work.
pub fn report_setup(report: &mut Report, setups: Vec<f64>) {
    let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric_with("setup_s", "s", fastest, &Sample::from_vec(setups));
}

/// Fisher-Yates shuffle driven by `seed`.
pub fn seeded_shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold_grid|hit_storm --seed N \
                 --seconds S --trace 0|1 [--serve-bin PATH] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let run: fn(&Args, &mut Report, &mut Tracer) = match args.workload.as_str() {
        "cold_grid" => cold_grid::run,
        "hit_storm" => hit_storm::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);

    let nproc = host::nproc();
    let calib = host::calibrate_matmul64();
    println!(
        "# host: nproc={nproc} calib tensor/matmul_64 median={:.2}us (reference ~30us)",
        calib.median()
    );
    println!(
        "# run: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace
    );

    run(&args, &mut report, &mut tracer);
    println!(
        "# host after the run: calib tensor/matmul_64 median={:.2}us",
        host::calibrate_matmul64().median()
    );

    let names: Vec<&str> = if args.trace {
        report.metric("host.nproc", "count", nproc as f64);
        report.metric_with("host.calib_matmul64_us", "us", calib.median(), &calib);
        layer_metrics::fill_unexercised(&mut report);
        let path = args.out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => report.check(false, || format!("cannot write spans: {e}")),
        }
        tracer.print_summary();
        LAYER_METRICS.iter().map(|(n, _)| *n).collect()
    } else {
        E2E_METRICS.to_vec()
    };
    report.print_record();
    println!("{}", report.result_line(&names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
