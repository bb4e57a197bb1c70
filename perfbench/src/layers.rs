//! Cold-path layers measured from outside: one optimizer round replayed
//! through the layers' public functions, in the order `parallelize` calls
//! them.

use hap::HapOptions;
use hap_balancer::{estimate_time, optimize_ratios};
use hap_baselines::{propagate, GradSync, WalkOptions};
use hap_cluster::ClusterSpec;
use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
use hap_graph::Graph;
use hap_simulator::memory_footprint;
use hap_synthesis::{synthesize_with_theory_profiled, SynthProfile, Theory, TheoryOptions};

use crate::trace::Tracer;

/// Seconds spent in each layer over the replayed rounds.
#[derive(Clone, Debug, Default)]
pub struct RoundTimes {
    pub profile_s: f64,
    pub theory_s: f64,
    pub portfolio_s: f64,
    pub astar_s: f64,
    pub estimate_s: f64,
    pub lp_s: f64,
    pub memory_s: f64,
    /// Counters of the replayed A* searches.
    pub synth: SynthProfile,
}

impl RoundTimes {
    /// Wall time of the replayed rounds.
    pub fn total_s(&self) -> f64 {
        self.profile_s
            + self.theory_s
            + self.portfolio_s
            + self.astar_s
            + self.estimate_s
            + self.lp_s
            + self.memory_s
    }
}

/// The portfolio strategies `parallelize` evaluates each round.
fn portfolio_walks(cluster: &ClusterSpec, opts: &HapOptions) -> Vec<WalkOptions> {
    let slowest = cluster
        .virtual_devices(opts.granularity)
        .iter()
        .map(|d| d.flops)
        .fold(f64::INFINITY, f64::min);
    vec![
        WalkOptions::default(),
        WalkOptions { grad_sync: GradSync::ReduceScatter, ..WalkOptions::default() },
        WalkOptions {
            grad_sync: GradSync::ReduceScatter,
            expert_parallel: Some("expert_w".into()),
            ..WalkOptions::default()
        },
        WalkOptions {
            sfb_flop_cost: Some(cluster.inter_bandwidth / slowest),
            ..WalkOptions::default()
        },
    ]
}

/// Times `f` into `acc` (seconds) inside a span named `name`.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    request: u64,
    acc: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let t = std::time::Instant::now();
    let out = tracer.span(name, request, f);
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Replays round 0 of the alternating optimization for one request:
/// collective profiling, theory build, the baseline portfolio, the A*
/// search, re-costing, the ratio LP and the memory checks.
pub fn replay_round(
    graph: &Graph,
    cluster: &ClusterSpec,
    opts: &HapOptions,
    tracer: &mut Tracer,
    request: u64,
    times: &mut RoundTimes,
) -> Result<(), String> {
    let devices = cluster.virtual_devices(opts.granularity);
    let net = GroundTruthNet::new(NetworkParams {
        latency: cluster.inter_latency,
        bandwidth: cluster.inter_bandwidth,
        ..NetworkParams::paper_cloud()
    });
    let round = tracer.begin("core.round", request);
    let profile = timed(tracer, "collectives.profile", request, &mut times.profile_s, || {
        profile_collectives(&net, devices.len())
    });
    let segments = graph.segment_count().max(1);
    let ratios = vec![cluster.proportional_ratios(opts.granularity); segments];
    let theory = timed(tracer, "synthesis.theory", request, &mut times.theory_s, || {
        Theory::build_with(
            graph,
            TheoryOptions { grouped_broadcast: opts.synth.grouped_broadcast, sfb: opts.synth.sfb },
        )
    });
    let walks = portfolio_walks(cluster, opts);
    let portfolio: Vec<_> =
        timed(tracer, "baselines.portfolio", request, &mut times.portfolio_s, || {
            walks.iter().filter_map(|w| propagate(graph, w).ok()).collect()
        });
    let (q, prof) = timed(tracer, "synthesis.astar", request, &mut times.astar_s, || {
        synthesize_with_theory_profiled(
            graph,
            &theory,
            &devices,
            &profile,
            &ratios,
            &opts.synth,
            None,
        )
    })
    .map_err(|e| format!("replayed synthesis failed: {e}"))?;
    times.synth.merge(&prof);
    let mut best = timed(tracer, "balancer.estimate", request, &mut times.estimate_s, || {
        let mut best = (estimate_time(graph, &q, &devices, &profile, &ratios), q.clone());
        for cand in &portfolio {
            let c = estimate_time(graph, cand, &devices, &profile, &ratios);
            if c < best.0 {
                best = (c, cand.clone());
            }
        }
        best
    });
    let next = timed(tracer, "balancer.lp", request, &mut times.lp_s, || {
        optimize_ratios(graph, &best.1, &devices, &profile)
    })
    .map_err(|e| format!("replayed ratio LP failed: {e}"))?;
    let even = vec![cluster.even_ratios(opts.granularity); segments];
    for cand in [next, even] {
        best.0 = timed(tracer, "balancer.estimate", request, &mut times.estimate_s, || {
            estimate_time(graph, &best.1, &devices, &profile, &cand)
        });
        timed(tracer, "simulator.memory", request, &mut times.memory_s, || {
            memory_footprint(graph, &best.1, &devices, &cand).fits()
        });
    }
    tracer.end(round);
    Ok(())
}
