//! Round-trip property tests for the wire codec: encode→decode identity
//! over random graphs, cluster specs, options, and synthesized programs,
//! plus fingerprint stability across re-encoding.

use hap::HapOptions;
use hap_cluster::{ClusterDelta, ClusterSpec, DeviceType, Granularity, Machine};
use hap_codec::{
    parse, parse_persist_line, persist_line, request_fingerprint, value_fingerprint, CachedPlan,
    Decode, Encode, WireError,
};
use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
use hap_graph::{Graph, GraphBuilder, Op, Role, UnaryKind};
use hap_models::{mlp, transformer_layer, MlpConfig, TransformerConfig};
use hap_synthesis::{synthesize, DistProgram, SynthConfig};
use proptest::prelude::*;

/// Builds a random-but-valid training graph from a case seed: a chain of
/// assorted ops (the shape-compatible subset), randomized segment labels,
/// optionally run through autodiff so grad/update ops appear too.
fn random_graph(width: usize, depth: usize, seed: usize) -> Graph {
    let mut g = GraphBuilder::new();
    let batch = 2 + (seed % 3) * 2;
    let mut cur = g.placeholder("x", vec![batch, width]);
    let mut mix = seed;
    for layer in 0..depth {
        mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        match mix % 5 {
            0 => {
                let w = g.parameter(&format!("w{layer}"), vec![width, width]);
                cur = g.matmul(cur, w);
            }
            1 => cur = g.relu(cur),
            2 => cur = g.add(cur, cur),
            3 => cur = g.softmax(cur),
            _ => cur = g.layer_norm(cur),
        }
    }
    let loss = g.sum_all(cur);
    let mut graph =
        if seed.is_multiple_of(2) { g.build_training(loss).unwrap() } else { g.build_forward() };
    // Scatter random segment labels — `seg` must survive the round trip.
    for id in 0..graph.len() {
        let s = (id.wrapping_mul(2654435761) ^ seed) % 3;
        graph.set_segment(id, s);
    }
    graph
}

/// Structural graph equality (node-by-node fields; `Graph` has no
/// `PartialEq` because op rules make it meaningless in general).
fn assert_graphs_equal(a: &Graph, b: &Graph) {
    assert_eq!(a.len(), b.len());
    for (na, nb) in a.nodes().iter().zip(b.nodes().iter()) {
        assert_eq!(na.id, nb.id);
        assert_eq!(na.op, nb.op);
        assert_eq!(na.inputs, nb.inputs);
        assert_eq!(na.shape.dims(), nb.shape.dims());
        assert_eq!(na.name, nb.name);
        assert_eq!(na.role, nb.role);
        assert_eq!(na.segment, nb.segment);
    }
}

fn random_cluster(machine_picks: &[usize], bw_scale: f64, lat_scale: f64) -> ClusterSpec {
    let machines = machine_picks
        .iter()
        .map(|&pick| {
            let device = match pick % 4 {
                0 => DeviceType::p100(),
                1 => DeviceType::v100(),
                2 => DeviceType::a100(),
                _ => DeviceType::t4(),
            };
            let gpus = 1 + pick % 3;
            if pick % 2 == 0 {
                Machine::nvlink(device, gpus)
            } else {
                Machine::pcie(device, gpus)
            }
        })
        .collect();
    ClusterSpec::new(machines, 1e9 * (0.5 + bw_scale), 1e-5 * (0.5 + lat_scale))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn graph_round_trip(width in 2usize..6, depth in 1usize..8, seed in 0usize..1_000_000) {
        let graph = random_graph(width, depth, seed);
        let text = graph.encode().render();
        let back = Graph::decode(&parse(&text).unwrap()).unwrap();
        assert_graphs_equal(&graph, &back);
        // Canonical: decode→encode reproduces the bytes, so the content
        // fingerprint is stable across any number of re-encodings.
        prop_assert_eq!(back.encode().render(), text);
        prop_assert_eq!(value_fingerprint(&back.encode()), value_fingerprint(&graph.encode()));
    }

    #[test]
    fn cluster_round_trip(
        picks in prop::collection::vec(0usize..12, 1..5),
        bw in 0f64..4.0,
        lat in 0f64..4.0,
    ) {
        let cluster = random_cluster(&picks, bw, lat);
        let text = cluster.encode().render();
        let back = ClusterSpec::decode(&parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &cluster);
        prop_assert_eq!(back.encode().render(), text);
    }

    #[test]
    fn cluster_delta_round_trip(
        gpu_losses in prop::collection::vec((0usize..8, 1usize..4), 0..3),
        removals in prop::collection::vec(0usize..8, 0..3),
        add_picks in prop::collection::vec(0usize..12, 0..3),
        net in 0usize..4,
    ) {
        let delta = ClusterDelta {
            remove_gpus: gpu_losses,
            remove_machines: removals,
            add_machines: random_cluster(&add_picks, 1.0, 1.0).machines,
            inter_bandwidth: if net % 2 == 0 { None } else { Some(7.5e9) },
            inter_latency: if net / 2 == 0 { None } else { Some(35e-6) },
        };
        let text = delta.encode().render();
        let back = ClusterDelta::decode(&parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &delta);
        prop_assert_eq!(back.encode().render(), text);
    }

    #[test]
    fn options_round_trip(
        rounds in 1usize..8,
        expansions in 0usize..100_000,
        threads in 0usize..16,
        budget in 0f64..10.0,
        flags in 0usize..32,
    ) {
        let opts = HapOptions {
            granularity: if flags % 2 == 0 { Granularity::PerGpu } else { Granularity::PerMachine },
            max_rounds: rounds,
            synth: SynthConfig {
                max_expansions: expansions,
                beam_width: if flags % 3 == 0 { None } else { Some(expansions + 1) },
                time_budget_secs: budget,
                stall_expansions: expansions / 2,
                grouped_broadcast: flags % 5 != 0,
                sfb: flags % 7 != 0,
                threads,
            },
            auto_segments: if flags % 4 == 0 { None } else { Some(flags % 4) },
            balance: flags % 11 != 0,
            warm_start: flags % 13 != 0,
        };
        let text = opts.encode().render();
        let back = HapOptions::decode(&parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back.encode().render(), text);
        prop_assert_eq!(back.max_rounds, opts.max_rounds);
        prop_assert_eq!(back.synth.beam_width, opts.synth.beam_width);
        prop_assert_eq!(back.synth.time_budget_secs.to_bits(), opts.synth.time_budget_secs.to_bits());
    }

    #[test]
    fn ratios_round_trip(rows in prop::collection::vec(prop::collection::vec(0f64..1.0, 1..6), 1..4)) {
        let text = rows.encode().render();
        let back = Vec::<Vec<f64>>::decode(&parse(&text).unwrap()).unwrap();
        // Bit-exact float round trip, not approximate equality.
        prop_assert_eq!(back.len(), rows.len());
        for (ra, rb) in rows.iter().zip(back.iter()) {
            for (a, b) in ra.iter().zip(rb.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        prop_assert_eq!(back.encode().render(), text);
    }

    #[test]
    fn synthesized_program_round_trip(width in 2usize..5, depth in 1usize..5, seed in 0usize..1_000) {
        let graph = random_graph(width, depth, seed);
        let cluster = ClusterSpec::fig17_cluster();
        let devices = cluster.virtual_devices(Granularity::PerGpu);
        let profile =
            profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
        let ratios = vec![
            cluster.proportional_ratios(Granularity::PerGpu);
            graph.segment_count().max(1)
        ];
        // Greedy-only budget: the property under test is the codec, not
        // the search.
        let cfg = SynthConfig { time_budget_secs: 0.0, ..SynthConfig::default() };
        let q = synthesize(&graph, &devices, &profile, &ratios, &cfg).unwrap();
        let text = q.encode().render();
        let back = DistProgram::decode(&parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back.instrs, &q.instrs);
        prop_assert_eq!(back.estimated_time.to_bits(), q.estimated_time.to_bits());
        prop_assert_eq!(back.fingerprint(), q.fingerprint());
        prop_assert_eq!(back.encode().render(), text);
    }
}

/// A cached-plan record over a really-synthesized program (greedy budget:
/// the property under test is the record codec, not the search).
fn sample_cached_plan(seed: usize, synthesis_nanos: u64, ttl_nanos: Option<u64>) -> CachedPlan {
    let graph = random_graph(3, 3, seed);
    let cluster = ClusterSpec::fig17_cluster();
    let devices = cluster.virtual_devices(Granularity::PerGpu);
    let profile =
        profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
    let ratios =
        vec![cluster.proportional_ratios(Granularity::PerGpu); graph.segment_count().max(1)];
    let cfg = SynthConfig { time_budget_secs: 0.0, ..SynthConfig::default() };
    let q = synthesize(&graph, &devices, &profile, &ratios, &cfg).unwrap();
    let mut plan = CachedPlan {
        estimated_time: q.estimated_time,
        program: q,
        ratios,
        rounds: 1 + seed % 3,
        graph_fp: value_fingerprint(&graph.encode()),
        opts_fp: 7,
        features: [4.0, 2.7e13, 1.3e9, 5e-5],
        synthesis_nanos,
        size_bytes: 0,
        ttl_nanos,
        payload: Default::default(),
    };
    plan.size_bytes = plan.measure_size();
    plan
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The versioned persistence record round-trips every field bit-for-bit,
    /// including the new cost metadata, and re-encoding is canonical.
    #[test]
    fn versioned_cache_record_round_trip(
        seed in 0usize..1_000,
        fp in 0u64..u64::MAX,
        nanos in 0u64..10_000_000_000,
        ttl_pick in 0u64..100_000,
    ) {
        let ttl = if ttl_pick % 3 == 0 { None } else { Some(ttl_pick) };
        let plan = sample_cached_plan(seed, nanos, ttl);
        let line = persist_line(fp, &plan);
        prop_assert!(line.starts_with("{\"v\":3,\"sum\":\"0x"), "{line}");
        let (fp2, back) = parse_persist_line(&line).unwrap();
        prop_assert_eq!(fp2, fp);
        prop_assert_eq!(&back.program.instrs, &plan.program.instrs);
        prop_assert_eq!(back.program.fingerprint(), plan.program.fingerprint());
        prop_assert_eq!(back.estimated_time.to_bits(), plan.estimated_time.to_bits());
        prop_assert_eq!(back.rounds, plan.rounds);
        prop_assert_eq!(back.graph_fp, plan.graph_fp);
        prop_assert_eq!(back.synthesis_nanos, plan.synthesis_nanos);
        prop_assert_eq!(back.size_bytes, plan.size_bytes);
        prop_assert_eq!(back.ttl_nanos, plan.ttl_nanos);
        prop_assert_eq!(back.density().to_bits(), plan.density().to_bits());
        // Canonical: decode→encode reproduces the exact line.
        prop_assert_eq!(persist_line(fp2, &back), line);
    }
}

#[test]
fn busy_frame_round_trips_and_legacy_frames_decode() {
    // A busy frame carries the retry hint through encode→render→parse→decode.
    let busy = WireError::busy(125, 7);
    assert!(busy.is_busy());
    let text = busy.encode().render();
    assert!(text.contains("\"retry_after_ms\":125"), "{text}");
    let back = WireError::decode(&parse(&text).unwrap()).unwrap();
    assert_eq!(back, busy);
    assert_eq!(back.retry_after_ms, Some(125));
    assert!(back.to_string().contains("retry after 125 ms"));

    // Non-busy frames render without the field — byte-compatible with the
    // PR-4 encoding — and legacy frames (no field at all) decode to None.
    let plain = WireError::new("synth", "no feasible placement");
    let plain_text = plain.encode().render();
    assert!(!plain_text.contains("retry_after_ms"), "{plain_text}");
    let back = WireError::decode(&parse(&plain_text).unwrap()).unwrap();
    assert_eq!(back.retry_after_ms, None);
    assert!(!back.is_busy());

    // Tamper: a non-integer hint must fail to decode, not be guessed at.
    let bad = "{\"kind\":\"busy\",\"message\":\"m\",\"retry_after_ms\":\"soon\"}";
    assert!(WireError::decode(&parse(bad).unwrap()).is_err());
    let negative = "{\"kind\":\"busy\",\"message\":\"m\",\"retry_after_ms\":-3}";
    assert!(WireError::decode(&parse(negative).unwrap()).is_err());
    // An explicit null is the absent hint.
    let null = "{\"kind\":\"busy\",\"message\":\"m\",\"retry_after_ms\":null}";
    assert_eq!(WireError::decode(&parse(null).unwrap()).unwrap().retry_after_ms, None);
}

#[test]
fn cache_record_tampering_is_rejected() {
    let plan = sample_cached_plan(3, 42, Some(9));
    let line = persist_line(0xABCD, &plan);
    // Unknown future version: refuse, do not guess.
    let future = line.replacen("{\"v\":3,", "{\"v\":4,", 1);
    assert!(parse_persist_line(&future).is_err());
    // Corrupt metadata types.
    let bad_nanos = line.replace(
        &format!("\"synthesis_nanos\":{}", plan.synthesis_nanos),
        "\"synthesis_nanos\":\"fast\"",
    );
    assert_ne!(bad_nanos, line);
    assert!(parse_persist_line(&bad_nanos).is_err());
    // Truncated feature vector fails the arity check.
    let bad_features = line.replace("\"features\":[4,", "\"features\":[");
    assert_ne!(bad_features, line);
    assert!(parse_persist_line(&bad_features).is_err());
    // Not JSON at all.
    assert!(parse_persist_line("not a record").is_err());
}

#[test]
fn checksum_catches_well_typed_corruption() {
    // The whole point of the v3 checksum: a flipped digit that still
    // parses as valid, well-typed JSON — a v2 reader would silently load
    // the wrong record — must be rejected.
    let plan = sample_cached_plan(5, 1_000, None);
    let line = persist_line(0x5EED, &plan);
    let tampered = line.replacen(&format!("\"rounds\":{}", plan.rounds), "\"rounds\":99", 1);
    assert_ne!(tampered, line, "tamper target must exist in the line");
    let err = parse_persist_line(&tampered).unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
    // A v3 line must carry its checksum; stripping it is corruption, not
    // a downgrade.
    let sum_start = line.find("\"sum\"").unwrap();
    let sum_end = sum_start + line[sum_start..].find(',').unwrap() + 1;
    let stripped = format!("{}{}", &line[..sum_start], &line[sum_end..]);
    assert!(parse_persist_line(&stripped).is_err());
    // A flipped version digit cannot dodge verification: a v2 (or
    // unversioned) tag alongside a checksum is itself corruption.
    let downgraded = line.replacen("{\"v\":3,", "{\"v\":2,", 1);
    assert!(parse_persist_line(&downgraded).is_err());
    // A v2 line (versioned, checksum-less by design) still loads.
    let v2 = stripped.replacen("{\"v\":3,", "{\"v\":2,", 1);
    let (fp, back) = parse_persist_line(&v2).unwrap();
    assert_eq!(fp, 0x5EED);
    assert_eq!(back.program.fingerprint(), plan.program.fingerprint());
}

#[test]
fn pr4_era_persistence_fixture_still_decodes() {
    // A persistence line written by the PR-4 daemon, committed verbatim:
    // no "v" tag, no cost metadata. It must load with conservative
    // defaults and migrate to the current format on re-encode.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pr4_cache.jsonl");
    let content = std::fs::read_to_string(fixture).unwrap();
    let line = content.lines().next().unwrap();
    assert!(!line.contains("\"v\":"), "fixture must stay PR-4-era");
    let (fp, plan) = parse_persist_line(line).unwrap();
    assert_eq!(fp, 0x7859a2822513699f);
    assert_eq!(plan.graph_fp, 0xc036815a0bff1e6b);
    assert!(!plan.program.instrs.is_empty(), "fixture carries a real plan");
    assert_eq!(plan.synthesis_nanos, 0, "legacy cost defaults to zero");
    assert_eq!(plan.size_bytes, 0);
    assert_eq!(plan.ttl_nanos, None);
    assert_eq!(plan.density(), 0.0, "legacy entries are first in line for eviction");
    // Migration: re-encoding writes the current versioned format, which
    // round-trips canonically.
    let migrated = persist_line(fp, &plan);
    assert!(migrated.starts_with("{\"v\":3,\"sum\":"));
    let (fp2, again) = parse_persist_line(&migrated).unwrap();
    assert_eq!(fp2, fp);
    assert_eq!(again.program.fingerprint(), plan.program.fingerprint());
    assert_eq!(persist_line(fp2, &again), migrated);
}

#[test]
fn request_fingerprints_separate_graph_cluster_options() {
    let graph_a = mlp(&MlpConfig { batch: 64, input: 16, hidden: vec![32], classes: 8 });
    let graph_b = transformer_layer(&TransformerConfig::fig2(64));
    let cluster_a = ClusterSpec::fig17_cluster();
    let cluster_b = ClusterSpec::fig2_cluster();
    let opts_a = HapOptions::default();
    let opts_b = HapOptions { max_rounds: 7, ..HapOptions::default() };

    let base = request_fingerprint(&graph_a, &cluster_a, &opts_a);
    // Deterministic across recomputation.
    assert_eq!(base, request_fingerprint(&graph_a, &cluster_a, &opts_a));
    // Sensitive to every component of the triple.
    assert_ne!(base, request_fingerprint(&graph_b, &cluster_a, &opts_a));
    assert_ne!(base, request_fingerprint(&graph_a, &cluster_b, &opts_a));
    assert_ne!(base, request_fingerprint(&graph_a, &cluster_a, &opts_b));
    // Stable across a wire round trip of the inputs.
    let graph_rt = Graph::decode(&parse(&graph_a.encode().render()).unwrap()).unwrap();
    let cluster_rt = ClusterSpec::decode(&parse(&cluster_a.encode().render()).unwrap()).unwrap();
    let opts_rt = HapOptions::decode(&parse(&opts_a.encode().render()).unwrap()).unwrap();
    assert_eq!(base, request_fingerprint(&graph_rt, &cluster_rt, &opts_rt));
}

#[test]
fn nonfinite_cluster_fields_survive() {
    // A per-GPU virtual device legitimately reports infinite intra-machine
    // bandwidth; the dialect's Infinity token carries it.
    let mut cluster = ClusterSpec::fig17_cluster();
    cluster.machines[0].intra_bandwidth = f64::INFINITY;
    let text = cluster.encode().render();
    assert!(text.contains("Infinity"));
    let back = ClusterSpec::decode(&parse(&text).unwrap()).unwrap();
    assert_eq!(back, cluster);
}

#[test]
fn tampered_graph_shape_is_rejected() {
    let graph = mlp(&MlpConfig { batch: 8, input: 4, hidden: vec![4], classes: 2 });
    let text = graph.encode().render();
    // Corrupt one inferred shape: decode must fail the checksum, not
    // build an inconsistent graph.
    let node = graph.nodes().iter().find(|n| !n.op.is_leaf()).unwrap();
    let honest = format!("\"name\":\"{}\"", node.name);
    assert!(text.contains(&honest));
    let dims = node.shape.dims();
    let bad_dims: Vec<usize> = dims.iter().map(|&d| d + 1).collect();
    let tampered = text.replace(
        &format!("\"shape\":{},\"name\":\"{}\"", dims.to_vec().encode().render(), node.name),
        &format!("\"shape\":{},\"name\":\"{}\"", bad_dims.encode().render(), node.name),
    );
    assert_ne!(tampered, text);
    assert!(Graph::decode(&parse(&tampered).unwrap()).is_err());
}

#[test]
fn unknown_device_names_are_interned() {
    let mut cluster = ClusterSpec::fig17_cluster();
    let text = cluster.encode().render().replace("A100", "H900");
    let back = ClusterSpec::decode(&parse(&text).unwrap()).unwrap();
    assert_eq!(back.machines[0].device.name, "H900");
    // A second decode reuses the interned name (same pointer).
    let again = ClusterSpec::decode(&parse(&text).unwrap()).unwrap();
    assert!(std::ptr::eq(back.machines[0].device.name, again.machines[0].device.name));
    cluster.machines[0].device.name = back.machines[0].device.name;
    assert_eq!(back.machines[0].device, cluster.machines[0].device);
}

#[test]
fn all_op_variants_round_trip() {
    use Op::*;
    let ops = vec![
        Placeholder,
        Label,
        Parameter,
        Ones,
        MatMul2 { ta: true, tb: false },
        Linear,
        LinearGradX,
        LinearGradW,
        Bmm { ta: false, tb: true },
        Add,
        BiasAdd,
        ReduceLeading,
        Scale { factor: 0.25 },
        Unary { kind: UnaryKind::Gelu },
        UnaryGrad { kind: UnaryKind::Tanh },
        Softmax,
        SoftmaxGrad,
        LayerNorm,
        LayerNormGrad,
        Attention { heads: 8 },
        AttentionGrad { heads: 8, which: 2 },
        Conv2d { stride: 2, pad: 1 },
        Conv2dGradX { stride: 2, pad: 1 },
        Conv2dGradW { stride: 1, pad: 0 },
        MaxPool2 { k: 2 },
        MaxPoolGrad { k: 2 },
        Flatten,
        Unflatten { dims: vec![3, 4, 5] },
        Embedding,
        EmbeddingGrad { vocab: 1000 },
        CrossEntropy,
        CrossEntropyGrad,
        SumAll,
        Dispatch { experts: 4, capacity: 8 },
        DispatchGrad,
        Combine,
        CombineGrad { experts: 4, capacity: 8 },
        UpdateParam { lr: 0.001 },
    ];
    for op in ops {
        let text = op.encode().render();
        let back = Op::decode(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, op, "{text}");
        assert_eq!(back.encode().render(), text);
    }
    // A role survives too (all variants).
    for role in [
        Role::Input,
        Role::Label,
        Role::Param,
        Role::Const,
        Role::Activation,
        Role::Grad,
        Role::Updated,
        Role::Loss,
    ] {
        let back = Role::decode(&parse(&role.encode().render()).unwrap()).unwrap();
        assert_eq!(back, role);
    }
}
