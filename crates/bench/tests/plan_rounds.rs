//! `Plan::rounds` (served as `"rounds"`) is the 1-based index of the
//! alternating-optimization round whose plan was chosen, not the number of
//! rounds that ran. The synthesis profile's `searches` counter is the
//! number of rounds run (one synthesis per round), so a request whose best
//! plan came from an early round shows `searches > rounds`.

use hap::prelude::*;
use hap_bench::figures::harness_model;
use hap_bench::harness_options;
use hap_models::Benchmark;

#[test]
fn rounds_is_the_chosen_round_not_the_rounds_run() {
    // The harness request for BERT-Base on the Fig. 17 cluster, with an A*
    // budget that never fires so the search terminates structurally.
    let cluster = ClusterSpec::fig17_cluster();
    let graph = harness_model(Benchmark::BertBase, cluster.total_gpus());
    let mut opts = harness_options(Granularity::PerGpu);
    opts.synth.time_budget_secs = 1e6;
    let (plan, profile) = hap::parallelize_with_warm_profiled(&graph, &cluster, &opts, None)
        .expect("BERT-Base plans on fig17_cluster");
    assert_eq!(profile.searches, 3, "one synthesis per round, max_rounds = 3");
    assert_eq!(plan.rounds, 1, "the first round's plan is the one chosen");
    assert!(profile.searches > plan.rounds as u64);
}
