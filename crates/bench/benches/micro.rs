//! Criterion micro-benchmarks for HAP's building blocks.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hap_balancer::{estimate_time, optimize_ratios, round_shards};
use hap_bench::figures::harness_model;
use hap_cluster::{ClusterSpec, Granularity};
use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
use hap_lp::{Problem, Relation};
use hap_models::{bert_base, transformer_layer, Benchmark, BertConfig, TransformerConfig};
use hap_synthesis::{synthesize, synthesize_with_theory, HotPathBench, SynthConfig, Theory};
use hap_tensor::Tensor;

fn bench_tensor(c: &mut Criterion) {
    let a = Tensor::randn(vec![64, 64], 1);
    let b = Tensor::randn(vec![64, 64], 2);
    c.bench_function("tensor/matmul_64", |bench| {
        bench.iter(|| black_box(&a).matmul(black_box(&b)).unwrap())
    });
    let t = Tensor::randn(vec![1024, 64], 3);
    c.bench_function("tensor/split_concat_1024x64", |bench| {
        bench.iter(|| {
            let parts = black_box(&t).split_sizes(0, &[300, 500, 224]).unwrap();
            Tensor::concat(&parts, 0).unwrap()
        })
    });
}

fn bench_lp(c: &mut Criterion) {
    c.bench_function("lp/balancer_shaped_8dev_6stage", |bench| {
        bench.iter(|| {
            let m = 8;
            let stages = 6;
            let n = m + 1 + stages;
            let mut obj = vec![0.0; n];
            obj[m] = 3.0;
            for i in 0..stages {
                obj[m + 1 + i] = 1.0;
            }
            let mut p = Problem::minimize(obj);
            let mut simplex = vec![0.0; n];
            simplex[..m].fill(1.0);
            p.constrain(simplex, Relation::Eq, 1.0);
            for j in 0..m {
                let mut row = vec![0.0; n];
                row[j] = 1.0;
                row[m] = -1.0;
                p.constrain(row, Relation::Le, 0.0);
            }
            for i in 0..stages {
                for j in 0..m {
                    let mut row = vec![0.0; n];
                    row[j] = 1.0 + (i + j) as f64 * 0.1;
                    row[m + 1 + i] = -1.0;
                    p.constrain(row, Relation::Le, 0.0);
                }
            }
            black_box(p.solve().unwrap())
        })
    });
    c.bench_function("lp/round_shards_64dev", |bench| {
        let ratios: Vec<f64> = (0..64).map(|i| 1.0 + (i % 7) as f64).collect();
        let total: f64 = ratios.iter().sum();
        let ratios: Vec<f64> = ratios.iter().map(|r| r / total).collect();
        bench.iter(|| black_box(round_shards(2048, black_box(&ratios))))
    });
}

fn bench_synthesis(c: &mut Criterion) {
    let graph = transformer_layer(&TransformerConfig {
        batch: 512,
        seq: 128,
        hidden: 256,
        heads: 8,
        ffn: 1024,
    });
    let cluster = ClusterSpec::paper_heterogeneous(1);
    let devices = cluster.virtual_devices(Granularity::PerMachine);
    let net = GroundTruthNet::new(NetworkParams::paper_cloud());
    let profile = profile_collectives(&net, devices.len());
    let ratios = vec![cluster.proportional_ratios(Granularity::PerMachine); graph.segment_count()];

    c.bench_function("synthesis/theory_build_transformer", |bench| {
        bench.iter(|| black_box(Theory::build(black_box(&graph))))
    });
    let cfg = SynthConfig { time_budget_secs: 0.0, ..SynthConfig::default() };
    c.bench_function("synthesis/greedy_program_transformer", |bench| {
        bench.iter(|| black_box(synthesize(&graph, &devices, &profile, &ratios, &cfg).unwrap()))
    });
    let q = synthesize(&graph, &devices, &profile, &ratios, &cfg).unwrap();
    c.bench_function("balancer/lp_ratios_transformer", |bench| {
        bench.iter(|| black_box(optimize_ratios(&graph, &q, &devices, &profile).unwrap()))
    });
    c.bench_function("balancer/estimate_transformer", |bench| {
        bench.iter(|| black_box(estimate_time(&graph, &q, &devices, &profile, &ratios)))
    });
}

fn bench_greedy_seed(c: &mut Criterion) {
    // The greedy descent that seeds every A* search, on its own: a zero
    // time budget returns the greedy incumbent without expanding a state.
    // Harness BERT-Base on the 8-GPU cluster has ~3k triples and the
    // descent takes ~600 steps, so a per-step scan of the whole theory
    // (or a whole-theory lookahead per filler) shows up here at once.
    let cluster = ClusterSpec::paper_heterogeneous(1);
    let graph = harness_model(Benchmark::BertBase, 8);
    let devices = cluster.virtual_devices(Granularity::PerGpu);
    let net = GroundTruthNet::new(NetworkParams::paper_cloud());
    let profile = profile_collectives(&net, devices.len());
    let ratios =
        vec![cluster.proportional_ratios(Granularity::PerGpu); graph.segment_count().max(1)];
    let cfg = SynthConfig { time_budget_secs: 0.0, ..SynthConfig::default() };
    c.bench_function("synthesis/greedy_seed_bert_base", |bench| {
        bench.iter(|| black_box(synthesize(&graph, &devices, &profile, &ratios, &cfg).unwrap()))
    });
}

fn bench_parallel_synthesis(c: &mut Criterion) {
    // The wave-parallel A* at 1 vs 4 worker threads on the BERT tiny config.
    // The expansion budget is fixed and the stall cutoff disabled, so every
    // thread count performs the identical (deterministic) search — the two
    // series differ only in wall-clock time, which is exactly the speedup
    // the parallel frontier is supposed to buy on multi-core hosts.
    let graph = bert_base(&BertConfig::tiny());
    let cluster = ClusterSpec::paper_heterogeneous(1);
    let devices = cluster.virtual_devices(Granularity::PerMachine);
    let net = GroundTruthNet::new(NetworkParams::paper_cloud());
    let profile = profile_collectives(&net, devices.len());
    let ratios = vec![cluster.proportional_ratios(Granularity::PerMachine); graph.segment_count()];
    let theory = Theory::build(&graph);
    for threads in [1usize, 4] {
        let cfg = SynthConfig {
            threads,
            time_budget_secs: 600.0,
            max_expansions: 4_096,
            stall_expansions: usize::MAX,
            ..SynthConfig::default()
        };
        c.bench_function(&format!("synthesis/parallel_bert_tiny_t{threads}"), |bench| {
            bench.iter(|| {
                black_box(
                    synthesize_with_theory(&graph, &theory, &devices, &profile, &ratios, &cfg)
                        .unwrap(),
                )
            })
        });
    }
}

fn bench_expand_hot_path(c: &mut Criterion) {
    // The isolated A* inner loop — cost lookup + candidate generation over
    // a frozen workload of reachable states, no frontier, no dominance map,
    // no thread pool — through the production cost tables and through the
    // direct (pre-table, allocating) CostModel path. The ratio of the two
    // medians is the table speedup; `bench_check` gates the tables variant
    // against a checked-in reference. Both runs produce bit-identical
    // checksums (asserted here and in the synthesis crate's property tests).
    let graph = bert_base(&BertConfig::tiny());
    // A 16-GPU heterogeneous cluster (the paper's larger settings): cost
    // rows are 16 wide, so the per-expansion arithmetic carries the weight
    // it does in production-scale searches.
    let cluster = ClusterSpec::paper_heterogeneous(4);
    let devices = cluster.virtual_devices(Granularity::PerGpu);
    let net = GroundTruthNet::new(NetworkParams::paper_cloud());
    let profile = profile_collectives(&net, devices.len());
    let ratios = vec![cluster.proportional_ratios(Granularity::PerGpu); graph.segment_count()];
    let workload = HotPathBench::new(graph, devices, profile, ratios, 256);
    let apps = workload.applications() as f64;
    assert_eq!(workload.run(true).1, workload.run(false).1, "table vs direct cost drift");
    assert_eq!(workload.run(true).1, workload.run_arena().1, "arena vs allocating apply drift");
    c.bench_function_with_units("synthesis/expand_hot_path", apps, |bench| {
        bench.iter(|| black_box(workload.run(true)))
    });
    c.bench_function_with_units("synthesis/expand_hot_path_direct", apps, |bench| {
        bench.iter(|| black_box(workload.run(false)))
    });
    // The same inner loop through the recycling arena `expand` uses in
    // production. A `ratio` line in bench_gates.ref holds it to within 10%
    // of the allocating variant — state recycling must never cost.
    c.bench_function_with_units("synthesis/expand_hot_path_arena", apps, |bench| {
        bench.iter(|| black_box(workload.run_arena()))
    });
}

fn bench_plan_service(c: &mut Criterion) {
    // The plan service's two extremes on the same BERT-tiny request line:
    //
    // * `service/plan_bert_tiny_cold` — a fresh daemon pays full synthesis
    //   (plus service bring-up, which is noise next to the search);
    // * `service/cache_hit_bert_tiny` — the same request answered from the
    //   content-addressed cache: parse the frame, fingerprint the canonical
    //   bytes, look up, render the response. No graph decode, no synthesis.
    //
    // The ratio of the two medians is the cache's speedup; `bench_check`
    // prints it and gates the hit path against a checked-in reference. The
    // acceptance bar for this subsystem is a >= 100x ratio.
    use hap_codec::{Encode, Value};
    use hap_service::{PlanService, ServiceConfig};

    let graph = bert_base(&BertConfig::tiny());
    let cluster = ClusterSpec::fig17_cluster();
    let opts = hap::HapOptions::default();
    let line = Value::obj(vec![
        ("op", Value::Str("plan".into())),
        ("id", Value::int(1)),
        ("graph", graph.encode()),
        ("cluster", cluster.encode()),
        ("options", opts.encode()),
    ])
    .render();

    c.bench_function("service/plan_bert_tiny_cold", |bench| {
        bench.iter(|| {
            let service = PlanService::new(ServiceConfig::default()).unwrap();
            let (response, _) = service.handle_line(black_box(&line));
            assert!(response.contains("\"source\":\"synthesized\""));
            response
        })
    });

    let service = PlanService::new(ServiceConfig::default()).unwrap();
    let (warmup, _) = service.handle_line(&line);
    assert!(warmup.contains("\"source\":\"synthesized\""));
    c.bench_function("service/cache_hit_bert_tiny", |bench| {
        bench.iter(|| {
            let (response, _) = service.handle_line(black_box(&line));
            debug_assert!(response.contains("\"source\":\"cache\""));
            response
        })
    });

    // The identical hit path on a daemon with telemetry disabled: the
    // paired `ratio` gate in bench_gates.ref holds request tracing and
    // histogram recording to <= 5% of the hit cost — a few clock reads
    // and relaxed atomics, nothing more.
    let quiet =
        PlanService::new(ServiceConfig { telemetry: false, ..ServiceConfig::default() }).unwrap();
    let (warmup, _) = quiet.handle_line(&line);
    assert!(warmup.contains("\"source\":\"synthesized\""));
    c.bench_function("service/cache_hit_bert_tiny_no_telemetry", |bench| {
        bench.iter(|| {
            let (response, _) = quiet.handle_line(black_box(&line));
            debug_assert!(response.contains("\"source\":\"cache\""));
            response
        })
    });
}

fn bench_replan(c: &mut Criterion) {
    // Elastic replanning after a device loss vs paying cold synthesis on
    // the shrunken cluster:
    //
    // * `service/replan_bert_tiny` — a warmed daemon answers the `replan`
    //   verb in elastic steady state: membership flaps re-resolve the
    //   same delta, so each frame pays the full replan path — parse,
    //   prior-triple lookup, delta application, fingerprint rebase onto
    //   the post-delta cluster, plan fetch, instruction-level diff,
    //   response render — with the post-delta plan already content-
    //   addressed in the cache. Only a delta's *first* occurrence pays
    //   (warm-seeded) synthesis, and that cost is the cold baseline's.
    // * `service/replan_bert_tiny_cold_delta` — a fresh daemon plans the
    //   identical post-delta cluster from scratch.
    //
    // The ratio of the two medians is what elasticity buys over
    // re-planning from zero; `bench_check` gates it at 0.10 — the
    // subsystem's acceptance bar is a >= 10x speedup.
    use hap_cluster::ClusterDelta;
    use hap_codec::{render_fingerprint, request_fingerprint, Encode, Value};
    use hap_service::{PlanService, ServiceConfig};

    let graph = bert_base(&BertConfig::tiny());
    let cluster = ClusterSpec::fig17_cluster();
    let opts = hap::HapOptions::default();
    let plan_line = |cluster: &ClusterSpec| {
        Value::obj(vec![
            ("op", Value::Str("plan".into())),
            ("id", Value::int(1)),
            ("graph", graph.encode()),
            ("cluster", cluster.encode()),
            ("options", opts.encode()),
        ])
        .render()
    };
    let delta = ClusterDelta::device_loss(1, 1);
    let replan_line = Value::obj(vec![
        ("op", Value::Str("replan".into())),
        ("id", Value::int(2)),
        ("prior", Value::Str(render_fingerprint(request_fingerprint(&graph, &cluster, &opts)))),
        ("delta", delta.encode()),
    ])
    .render();

    // Warm the daemon with the prior plan, then pay the delta's first
    // occurrence (warm-seeded synthesis) outside the timed loop.
    let service = PlanService::new(ServiceConfig::default()).unwrap();
    let (warmup, _) = service.handle_line(&plan_line(&cluster));
    assert!(warmup.contains("\"source\":\"synthesized\""));
    let (first, _) = service.handle_line(&replan_line);
    assert!(first.contains("\"source\":\"synthesized\"") && first.contains("\"replan\":"));

    c.bench_function("service/replan_bert_tiny", |bench| {
        bench.iter(|| {
            let (response, _) = service.handle_line(black_box(&replan_line));
            debug_assert!(response.contains("\"source\":\"cache\""));
            debug_assert!(response.contains("\"replan\":"));
            response
        })
    });

    let lost = delta.apply(&cluster).unwrap();
    let cold_line = plan_line(&lost);
    c.bench_function("service/replan_bert_tiny_cold_delta", |bench| {
        bench.iter(|| {
            let service = PlanService::new(ServiceConfig::default()).unwrap();
            let (response, _) = service.handle_line(black_box(&cold_line));
            assert!(response.contains("\"source\":\"synthesized\""));
            response
        })
    });
}

fn bench_cache_admission(c: &mut Criterion) {
    // The admission policy's overhead against the plain-LRU baseline it
    // replaced, measured on the cache's own churn loop: a full cache
    // serving a burst of hits plus a trickle of new-entry offers (the
    // admission gate's actual decision point). Identical workloads, only
    // `CachePolicy::admission` differs; `bench_check` gates the ratio at
    // 1.10 — the cost-aware policy must stay within 10% of plain LRU.
    use hap_service::{CachePolicy, CachedPlan, PlanCache};
    use hap_synthesis::DistProgram;
    use std::sync::Arc;

    const CAPACITY: usize = 1024;
    const HITS_PER_ITER: usize = 512;
    const OFFERS_PER_ITER: usize = 16;
    let plan = |fp: u64| {
        Arc::new(CachedPlan {
            program: DistProgram::default(),
            ratios: vec![vec![0.25; 4]],
            estimated_time: 1.0,
            rounds: 1,
            graph_fp: fp,
            opts_fp: 1,
            features: [4.0, 1e13, 1e9, 1e-5],
            synthesis_nanos: 50_000_000,
            size_bytes: 2_000,
            ttl_nanos: None,
            payload: Default::default(),
        })
    };
    for admission in [true, false] {
        let cache = PlanCache::with_policy(CAPACITY, CachePolicy { admission, default_ttl: None });
        for fp in 0..CAPACITY as u64 {
            cache.insert(fp, plan(fp));
        }
        let mut next_fp = CAPACITY as u64;
        let name = if admission {
            "service/cache_admission_churn"
        } else {
            "service/cache_plain_lru_churn"
        };
        c.bench_function_with_units(name, (HITS_PER_ITER + OFFERS_PER_ITER) as f64, |bench| {
            bench.iter(|| {
                let mut served = 0usize;
                for i in 0..HITS_PER_ITER {
                    let fp = (i * 97) as u64 % CAPACITY as u64;
                    served += usize::from(black_box(cache.get(black_box(fp))).is_some());
                }
                for _ in 0..OFFERS_PER_ITER {
                    // Equal-density offers: the gate runs its comparison
                    // and admits, exercising the full decision path.
                    let verdict = cache.insert(next_fp, plan(next_fp));
                    black_box(&verdict);
                    next_fp += 1;
                }
                served
            })
        });
    }
}

criterion_group!(
    benches,
    bench_tensor,
    bench_lp,
    bench_synthesis,
    bench_greedy_seed,
    bench_parallel_synthesis,
    bench_expand_hot_path,
    bench_plan_service,
    bench_replan,
    bench_cache_admission
);
criterion_main!(benches);
