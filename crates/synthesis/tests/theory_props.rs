//! Property-based tests for the rewrite theory (paper Sec. 4.2).
//!
//! Over randomly shaped training graphs, every Hoare triple the theory
//! produces must (a) be canonical and preserve property-set
//! canonicalization when applied, and (b) price every enabled instruction
//! at a finite, non-negative cost under any valid sharding-ratio row.
//! Over random reachable states of those graphs, (c) the per-node span
//! walk must enumerate exactly the applicable triples, and the indexed
//! filler lookahead must agree with a full scan of the theory.

use hap_cluster::{ClusterSpec, Granularity};
use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
use hap_graph::Graph;
use hap_models::{mlp, MlpConfig};
use hap_synthesis::{CostModel, DistInstr, PropSet, Theory, TheoryOptions, Triple};
use proptest::prelude::*;

/// A random small training graph (MLP with random widths and depth).
fn random_graph(batch: usize, input: usize, hidden: Vec<usize>, classes: usize) -> Graph {
    mlp(&MlpConfig { batch, input, hidden, classes })
}

/// True when a property slice is sorted and free of duplicates.
fn canonical(props: &[(usize, hap_graph::Placement)]) -> bool {
    props.windows(2).all(|w| w[0] < w[1])
}

/// Fires `triple` on `props`: the communicated markers of its
/// collectives, then its postcondition.
fn fire(props: &PropSet, triple: &Triple) -> PropSet {
    let mut next = props.clone();
    for instr in &triple.instrs {
        if let DistInstr::Collective { node, .. } = instr {
            next.mark_communicated(*node);
        }
    }
    for &p in &triple.post {
        next.insert(p);
    }
    next
}

/// The full-scan lookahead oracle: some compute triple of a live node that
/// `props` has not produced can fire its precondition under `props`.
fn enables_progress_full_scan(props: &PropSet, theory: &Theory) -> bool {
    theory.triples.iter().any(|t| {
        theory.live[t.output]
            && !props.has_node(t.output)
            && t.comm_node.is_none_or(|e| !props.is_communicated(e))
            && props.contains_all(&t.pre)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Along a random walk of reachable states, the span walks yield
    /// exactly the filtered full enumeration in theory order, a stopped
    /// walk yields a prefix of it, and wherever no progress triple applies
    /// (where the greedy seed runs its filler pass) the indexed lookahead
    /// equals the full-scan oracle for every applicable filler.
    #[test]
    fn span_walk_and_filler_lookahead_match_full_scans(
        batch in 2usize..32,
        input in 2usize..16,
        hidden in prop::collection::vec(2usize..24, 1..4),
        classes in 2usize..8,
        grouped in 0u8..2,
        sfb in 0u8..2,
        picks in prop::collection::vec(0usize..1 << 16, 1..160),
        cut in 0usize..64,
    ) {
        let graph = random_graph(batch, input, hidden, classes);
        let theory = Theory::build_with(
            &graph,
            TheoryOptions { grouped_broadcast: grouped == 1, sfb: sfb == 1 },
        );
        let mut props = PropSet::new();
        for pick in picks {
            let full: Vec<usize> = theory
                .triples
                .iter()
                .enumerate()
                .filter(|(_, t)| t.applicable(&props))
                .map(|(k, _)| k)
                .collect();
            let walked: Vec<usize> = theory.applicable(&props).map(|(k, _)| k).collect();
            prop_assert_eq!(&walked, &full);

            let progress: Vec<usize> = full
                .iter()
                .copied()
                .filter(|&k| {
                    let out = theory.triples[k].output;
                    theory.live[out] && !props.has_node(out)
                })
                .collect();
            let walked: Vec<usize> = theory.progress(&props).map(|(k, _)| k).collect();
            prop_assert_eq!(&walked, &progress);

            let polls = std::cell::Cell::new(0usize);
            let stop = || {
                polls.set(polls.get() + 1);
                polls.get() > cut
            };
            let stopped: Vec<usize> =
                theory.applicable(&props).until(3, &stop).map(|(k, _)| k).collect();
            prop_assert!(full.starts_with(&stopped));

            if progress.is_empty() {
                for &k in &full {
                    let filler = &theory.triples[k];
                    let succ = fire(&props, filler);
                    prop_assert_eq!(
                        theory.enables_progress(&props, filler, &succ),
                        enables_progress_full_scan(&succ, &theory),
                        "filler {} disagrees", k
                    );
                }
            }
            if full.is_empty() {
                break;
            }
            props = fire(&props, &theory.triples[full[pick % full.len()]]);
        }
    }

    /// Triples are canonical, and firing one on a state that satisfies its
    /// precondition leaves the property set canonical.
    #[test]
    fn triples_preserve_propset_canonicalization(
        batch in 2usize..32,
        input in 2usize..16,
        hidden in prop::collection::vec(2usize..24, 1..3),
        classes in 2usize..8,
        grouped in 0u8..2,
        sfb in 0u8..2,
    ) {
        let graph = random_graph(batch, input, hidden, classes);
        let theory = Theory::build_with(
            &graph,
            TheoryOptions { grouped_broadcast: grouped == 1, sfb: sfb == 1 },
        );
        prop_assert!(!theory.is_empty());
        for triple in &theory.triples {
            prop_assert!(canonical(&triple.pre), "pre not canonical: {:?}", triple.pre);
            prop_assert!(canonical(&triple.post), "post not canonical: {:?}", triple.post);
            // Build the smallest state satisfying the precondition, fire the
            // triple, and check the resulting property set stays canonical
            // (sorted, deduplicated) — the invariant dominance hashing
            // relies on.
            let mut props = PropSet::new();
            for &p in &triple.pre {
                props.insert(p);
            }
            for &p in &triple.post {
                props.insert(p);
            }
            prop_assert!(canonical(props.props()));
            prop_assert!(triple.post.iter().all(|p| props.contains(p)));
            prop_assert!(props.len() <= triple.pre.len() + triple.post.len());
        }
    }

    /// Every instruction of every enabled triple has a finite, non-negative
    /// cost under arbitrary (positive, normalized) sharding ratios.
    #[test]
    fn enabled_instructions_never_cost_negative(
        batch in 2usize..32,
        input in 2usize..16,
        hidden in prop::collection::vec(2usize..24, 1..3),
        classes in 2usize..8,
        raw in prop::collection::vec(0.05f64..1.0, 4),
    ) {
        let graph = random_graph(batch, input, hidden, classes);
        let theory = Theory::build(&graph);
        let cluster = ClusterSpec::fig17_cluster();
        let devices = cluster.virtual_devices(Granularity::PerGpu);
        let profile = profile_collectives(
            &GroundTruthNet::new(NetworkParams::paper_cloud()),
            devices.len(),
        );
        let total: f64 = raw.iter().sum();
        let row: Vec<f64> = raw.iter().map(|r| r / total).collect();
        let ratios = vec![row; graph.segment_count().max(1)];
        let cm = CostModel::new(&graph, &devices, &profile, &ratios);
        for triple in &theory.triples {
            for instr in &triple.instrs {
                match instr {
                    DistInstr::Leaf { .. } => {} // materialization is free
                    DistInstr::Compute { node, rule } => {
                        for (d, s) in cm.compute_seconds(*node, rule).iter().enumerate() {
                            prop_assert!(
                                s.is_finite() && *s >= 0.0,
                                "compute cost of node {node} on device {d} is {s}"
                            );
                        }
                    }
                    DistInstr::Collective { node, kind } => {
                        let s = cm.collective_seconds(*node, kind);
                        prop_assert!(
                            s.is_finite() && s >= 0.0,
                            "collective {kind} on node {node} costs {s}"
                        );
                    }
                }
            }
        }
    }
}
