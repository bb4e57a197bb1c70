//! Plan pins across code versions.
//!
//! `synthesis_determinism.rs` pins plans across thread counts and warm
//! starts within one build. This file pins them across builds: for every
//! benchmark model (tiny scale) on both heterogeneous clusters, the
//! `hap::parallelize` plan's program fingerprint, estimated-time bits and
//! sharding-ratio bits must equal the constants below, and so must the
//! program `hap_synthesis::synthesize` returns under the round-0
//! (compute-proportional) ratios. The second pair matters because at tiny
//! scale a portfolio program often wins the alternating loop, which would
//! hide a changed synthesized program from the plan. The constants were
//! recorded with the quadratic greedy seed and the whole-theory expand scan
//! that the linear seed and the per-node triple walk replaced, so an engine
//! speed-up that changes any plan fails here.
//!
//! The same cells are pinned again greedy-only (a zero A\* time budget, so
//! every round returns the greedy incumbent or the warm program), so a
//! change to the greedy seed cannot hide behind the A\* refinement; a
//! harness-scale BERT-Base pins the seed where it takes ~600 steps.
//!
//! Both configurations terminate structurally: one worker thread, a fixed
//! expansion cap, and either a wall-clock budget that never fires or one
//! that fires before the first wave.

use hap::prelude::*;
use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
use hap_models::Benchmark;
use hap_synthesis::fingerprint::{fnv1a, FNV_OFFSET};
use hap_synthesis::synthesize;

/// `(model, cluster, plan program fingerprint, plan estimated-time bits,
/// plan ratio hash, synthesized program fingerprint, synthesized
/// estimated-time bits)`.
type Pin = (&'static str, &'static str, u64, u64, u64, u64, u64);

#[rustfmt::skip]
const ASTAR_PINS: [Pin; 8] = [
    ("VGG19", "paper_heterogeneous(1)", 0xe2b9dcf07181f109, 0x3f9885f3815c58ea, 0x91ee4ed36a969ba5, 0xe2b9dcf07181f109, 0x3f9889c0a1420170),
    ("ViT", "paper_heterogeneous(1)", 0x18972719238b09, 0x3f9e26826e2966e8, 0xe5cea67ba2e69d25, 0x18972719238b09, 0x3f9e26f362cbef4b),
    ("BERT-Base", "paper_heterogeneous(1)", 0xe63290b8f0e3dc39, 0x3f9e26d0bdb64658, 0xe5cea67ba2e69d25, 0xe63290b8f0e3dc39, 0x3f9e276ca063e744),
    ("BERT-MoE", "paper_heterogeneous(1)", 0xdbbfbd7f2df18dbd, 0x3f9c58b7bb783363, 0xe5cea67ba2e69d25, 0xa146238ec46166bd, 0x3f9c5a044c621e81),
    ("VGG19", "fig17_cluster", 0x1eede8ef64931009, 0x3f863d3f97e17807, 0xe1ca3f76156a6965, 0x1eede8ef64931009, 0x3f864286a214cdaa),
    ("ViT", "fig17_cluster", 0xf31ef4d4bcc59f09, 0x3f8b50d86c525aed, 0xd798a0f62efe1425, 0xf31ef4d4bcc59f09, 0x3f8b51755d6c3035),
    ("BERT-Base", "fig17_cluster", 0x2be68d5931195f19, 0x3f8b515f42805a2d, 0xd798a0f62efe1425, 0x2be68d5931195f19, 0x3f8b5237a38cb458),
    ("BERT-MoE", "fig17_cluster", 0xbaa06b1d1d8a50fd, 0x3f89c3538c2512dd, 0xd798a0f62efe1425, 0xbaa06b1d1d8a50fd, 0x3f89c4942da1fd77),
];

/// The greedy-only pins equal the A\* ones: the two tables were recorded
/// separately and matched cell for cell, because within the 1,500-expansion
/// cap the A\* never improves the greedy incumbent on these tiny models
/// (round 0 made 0 improvements in every cell). The greedy pins still run
/// under their own configuration, so a changed seed fails here even where
/// the A\* would repair it.
const GREEDY_PINS: [Pin; 8] = ASTAR_PINS;

fn options(time_budget_secs: f64) -> HapOptions {
    HapOptions {
        synth: SynthConfig {
            threads: 1,
            time_budget_secs,
            max_expansions: 1_500,
            ..SynthConfig::default()
        },
        ..HapOptions::default()
    }
}

/// FNV-1a over every ratio's bit pattern, row by row.
fn ratio_hash(ratios: &[Vec<f64>]) -> u64 {
    ratios.iter().flatten().fold(FNV_OFFSET, |h, r| fnv1a(h, r.to_bits()))
}

/// Plans every `(cluster, model)` cell under `opts` and compares it with
/// `pins`; on any mismatch, panics with the whole measured table so the
/// diff (and, after a deliberate plan change, the new table) is visible.
fn check(pins: &[Pin; 8], opts: &HapOptions) {
    let clusters = [
        ("paper_heterogeneous(1)", ClusterSpec::paper_heterogeneous(1)),
        ("fig17_cluster", { ClusterSpec::fig17_cluster() }),
    ];
    let mut measured: Vec<Pin> = Vec::new();
    for (cluster_name, cluster) in &clusters {
        let devices = cluster.virtual_devices(opts.granularity);
        let net = GroundTruthNet::new(NetworkParams {
            latency: cluster.inter_latency,
            bandwidth: cluster.inter_bandwidth,
            ..NetworkParams::paper_cloud()
        });
        let comm = profile_collectives(&net, devices.len());
        for b in Benchmark::all() {
            let graph = b.build_tiny(devices.len());
            let plan = hap::parallelize(&graph, cluster, opts)
                .unwrap_or_else(|e| panic!("{} on {cluster_name} fails: {e}", b.name()));
            let ratios =
                vec![cluster.proportional_ratios(opts.granularity); graph.segment_count().max(1)];
            let program = synthesize(&graph, &devices, &comm, &ratios, &opts.synth)
                .unwrap_or_else(|e| panic!("{} on {cluster_name} fails: {e}", b.name()));
            measured.push((
                b.name(),
                cluster_name,
                plan.program.fingerprint(),
                plan.estimated_time.to_bits(),
                ratio_hash(&plan.ratios),
                program.fingerprint(),
                program.estimated_time.to_bits(),
            ));
        }
    }
    let table: String = measured
        .iter()
        .map(|(m, c, fp, est, ratios, sfp, sest)| {
            format!(
                "    (\"{m}\", \"{c}\", {fp:#x}, {est:#x}, {ratios:#x}, {sfp:#x}, {sest:#x}),\n"
            )
        })
        .collect();
    for (pin, got) in pins.iter().zip(&measured) {
        assert_eq!(pin, got, "plan pin differs; measured table:\n{table}");
    }
}

#[test]
fn astar_plans_match_their_pins() {
    check(&ASTAR_PINS, &options(1e6));
}

#[test]
fn greedy_only_plans_match_their_pins() {
    check(&GREEDY_PINS, &options(0.0));
}

/// The greedy seed at harness scale: BERT-Base at 4 layers and the
/// 8-GPU weak-scaling batch on `paper_heterogeneous(1)` — the shape of the
/// `synthesis/greedy_seed_bert_base` micro-bench, where the theory has
/// ~3k triples and the seed takes hundreds of descent steps.
#[test]
fn greedy_seed_matches_its_pin_at_harness_scale() {
    let cluster = ClusterSpec::paper_heterogeneous(1);
    let devices = cluster.virtual_devices(Granularity::PerGpu);
    let graph = hap_models::bert_base(&hap_models::BertConfig {
        batch: Benchmark::BertBase.per_device_batch() * devices.len(),
        layers: 4,
        ..hap_models::BertConfig::paper()
    });
    let comm =
        profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
    let ratios =
        vec![cluster.proportional_ratios(Granularity::PerGpu); graph.segment_count().max(1)];
    let program = synthesize(&graph, &devices, &comm, &ratios, &options(0.0).synth)
        .expect("the greedy seed completes");
    assert_eq!(
        (program.fingerprint(), program.estimated_time.to_bits()),
        (0x5456e5ca0c8f4436, 0x3fe4eb07c05851bd)
    );
}
