//! Background theory construction (paper Sec. 4.2).
//!
//! The theory `T` is a set of Hoare triples `{pre} instr {post}` obtained by
//! matching per-op placement rules against the single-device graph, plus the
//! collective triples of Fig. 9 and the grouped-Broadcast rule of Sec. 4.4.
//!
//! Two of the paper's search-time optimizations (Sec. 4.5) are realized at
//! theory-construction time:
//!
//! * **Fusion of empty-precondition triples**: leaf instructions
//!   (`Placeholder-Shard`, `Parameter-Shard`, ...) never exist standalone;
//!   they are inlined into each consuming compute triple, so they always
//!   appear directly before their first consumer.
//! * **Single communication per tensor**: leaves get no communication
//!   triples at all (they can be materialized in any placement directly),
//!   and each comm triple carries its reference node so the search can
//!   enforce the at-most-once rule via `Communicated` markers.
//!
//! The theory lays each node's triples out contiguously — its compute
//! triples, then its communication triples — and records those ranges, so
//! the search's one applicable-triples walk ([`Theory::applicable`]) skips
//! whole ranges that cannot fire instead of testing every triple.

use std::collections::HashMap;

use hap_graph::{Graph, NodeId, Placement, Role};

use crate::instr::{CollectiveInstr, DistInstr};
use crate::property::{Prop, PropSet};

/// A Hoare triple of the background theory.
#[derive(Clone, Debug)]
pub struct Triple {
    /// Properties required before the instructions can run.
    pub pre: Vec<Prop>,
    /// Instructions appended when the triple fires (leaf materializations
    /// fused in front of their consumer).
    pub instrs: Vec<DistInstr>,
    /// Properties established afterwards.
    pub post: Vec<Prop>,
    /// `Some(e)` when this triple communicates reference tensor `e`
    /// (enforces the at-most-one-communication rule).
    pub comm_node: Option<NodeId>,
    /// The graph node this triple primarily produces (the compute output,
    /// or the communicated tensor).
    pub output: NodeId,
}

impl Triple {
    /// True when the triple can fire on `props`: its communication (if any)
    /// has not already happened, its precondition holds, and it establishes
    /// at least one new property.
    pub fn applicable(&self, props: &PropSet) -> bool {
        if let Some(e) = self.comm_node {
            if props.is_communicated(e) {
                return false;
            }
        }
        props.contains_all(&self.pre) && !self.post.iter().all(|p| props.contains(p))
    }
}

/// The contiguous triples of one non-leaf node: compute triples in
/// `start..comm`, communication triples in `comm..end`.
#[derive(Clone, Copy, Debug)]
struct NodeSpan {
    node: NodeId,
    start: usize,
    comm: usize,
    end: usize,
}

/// The background theory for one graph.
#[derive(Debug)]
pub struct Theory {
    /// All triples.
    pub triples: Vec<Triple>,
    /// Index: property -> compute-triple indices with it in `pre`.
    pre_index: HashMap<Prop, Vec<usize>>,
    /// Per-node triple ranges, in node (and so triple) order.
    spans: Vec<NodeSpan>,
    /// Consumers of each node.
    pub consumers: Vec<Vec<NodeId>>,
    /// Required-output nodes (loss + updated parameters).
    pub required: Vec<NodeId>,
    /// Live nodes: those from which a required output is reachable. Dead
    /// nodes (e.g. input gradients nothing consumes) are excluded from the
    /// admissible remaining-work bound and never count as search progress.
    pub live: Vec<bool>,
}

// The wave-parallel search borrows the theory immutably from every worker
// thread; this guard fails to compile if interior mutability (Rc, RefCell,
// Cell, ...) ever sneaks into it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Theory>()
};

/// Options controlling which optional rules enter the theory (used by the
/// Fig. 15 ablation).
#[derive(Clone, Copy, Debug)]
pub struct TheoryOptions {
    /// Include the grouped-Broadcast implementation of All-Gather.
    pub grouped_broadcast: bool,
    /// Include fully-replicated compute rules for gradient nodes (the rules
    /// that enable sufficient factor broadcasting, Sec. 2.5.2/4.4).
    pub sfb: bool,
}

impl Default for TheoryOptions {
    fn default() -> Self {
        TheoryOptions { grouped_broadcast: true, sfb: true }
    }
}

impl Theory {
    /// Builds the background theory for `graph` with default options.
    pub fn build(graph: &Graph) -> Self {
        Theory::build_with(graph, TheoryOptions::default())
    }

    /// Builds the background theory with explicit options.
    pub fn build_with(graph: &Graph, opts: TheoryOptions) -> Self {
        let mut triples = Vec::new();
        let mut spans = Vec::new();
        let consumers = graph.consumers();

        // Demanded placements per tensor: the placements that appear for it
        // in some consumer rule's precondition. Because each reference
        // tensor may be communicated at most once (Sec. 4.5, optimization
        // 2), a collective's output placement must directly satisfy a
        // consumer rule — so communication triples targeting undemanded
        // placements can be dropped without losing any complete program.
        let mut demanded: Vec<Vec<Placement>> = vec![Vec::new(); graph.len()];
        for node in graph.nodes() {
            if node.op.is_leaf() {
                continue;
            }
            for rule in graph.placement_rules(node.id) {
                for (&input, &placement) in node.inputs.iter().zip(rule.inputs.iter()) {
                    if !demanded[input].contains(&placement) {
                        demanded[input].push(placement);
                    }
                }
            }
        }

        for node in graph.nodes() {
            if node.op.is_leaf() {
                continue;
            }
            let start = triples.len();
            // Compute triples, one per applicable rule, with leaf inputs fused.
            'rules: for rule in graph.placement_rules(node.id) {
                if !opts.sfb
                    && node.role == Role::Grad
                    && rule.inputs.iter().all(|p| p.is_replicated())
                    && rule.output.is_replicated()
                    && node.inputs.iter().any(|&i| !graph.node(i).op.is_leaf())
                {
                    continue;
                }
                let mut pre: Vec<Prop> = Vec::new();
                let mut post: Vec<Prop> = Vec::new();
                let mut instrs: Vec<DistInstr> = Vec::new();
                for (&input, &placement) in node.inputs.iter().zip(rule.inputs.iter()) {
                    if graph.node(input).op.is_leaf() {
                        match placement {
                            Placement::PartialSum => continue 'rules, // unsatisfiable
                            p => {
                                let instr = DistInstr::Leaf { node: input, placement: p };
                                if !instrs.contains(&instr) {
                                    instrs.push(instr);
                                }
                                post.push((input, p));
                            }
                        }
                    } else {
                        pre.push((input, placement));
                    }
                }
                pre.sort_unstable();
                pre.dedup();
                post.push((node.id, rule.output));
                post.sort_unstable();
                post.dedup();
                instrs.push(DistInstr::Compute { node: node.id, rule: rule.clone() });
                triples.push(Triple { pre, instrs, post, comm_node: None, output: node.id });
            }

            // Communication triples (never for leaves: optimization 2),
            // restricted to placements some consumer actually demands.
            let comm_start = triples.len();
            let dims = node.shape.dims();
            let shardable: Vec<usize> = (0..dims.len()).filter(|&d| dims[d] >= 2).collect();
            let want = &demanded[node.id];
            let wants = |p: Placement| want.contains(&p);
            let mut comm = |kind: CollectiveInstr| {
                let pre = vec![(node.id, kind.input_placement())];
                let post = vec![(node.id, kind.output_placement())];
                triples.push(Triple {
                    pre,
                    instrs: vec![DistInstr::Collective { node: node.id, kind }],
                    post,
                    comm_node: Some(node.id),
                    output: node.id,
                });
            };
            if wants(Placement::Replicated) {
                comm(CollectiveInstr::AllReduce);
            }
            for &d in &shardable {
                if wants(Placement::Shard(d)) {
                    comm(CollectiveInstr::ReduceScatter { dim: d });
                    for &d2 in &shardable {
                        if d2 != d {
                            comm(CollectiveInstr::AllToAll { from: d2, to: d });
                        }
                    }
                }
                if wants(Placement::Replicated) {
                    comm(CollectiveInstr::AllGather { dim: d, grouped: false });
                    if opts.grouped_broadcast {
                        comm(CollectiveInstr::AllGather { dim: d, grouped: true });
                    }
                }
            }
            spans.push(NodeSpan { node: node.id, start, comm: comm_start, end: triples.len() });
        }

        let mut pre_index: HashMap<Prop, Vec<usize>> = HashMap::new();
        for (i, t) in triples.iter().enumerate() {
            if t.comm_node.is_none() {
                for &p in &t.pre {
                    pre_index.entry(p).or_default().push(i);
                }
            }
        }

        let required = graph.required_outputs();
        let mut live = vec![false; graph.len()];
        for &r in &required {
            live[r] = true;
        }
        for id in (0..graph.len()).rev() {
            if live[id] {
                for &input in &graph.node(id).inputs {
                    live[input] = true;
                }
            }
        }

        Theory { triples, pre_index, spans, consumers, required, live }
    }

    /// Compute triples that need property `p` in their precondition.
    pub fn consumers_of_prop(&self, p: &Prop) -> &[usize] {
        self.pre_index.get(p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every triple that can fire on `props` ([`Triple::applicable`]), with
    /// its index, in theory order.
    pub fn applicable<'a>(&'a self, props: &'a PropSet) -> Applicable<'a> {
        Applicable::new(self, props, false)
    }

    /// The triples that can fire on `props` *and* produce a live node that
    /// `props` has not produced yet (the greedy seed's progress moves), with
    /// their indices, in theory order. Only compute triples qualify: a
    /// communication triple's precondition is a placement of its own node,
    /// so that node is already produced.
    pub fn progress<'a>(&'a self, props: &'a PropSet) -> Applicable<'a> {
        Applicable::new(self, props, true)
    }

    /// The greedy seed's filler lookahead: true when firing `filler` on
    /// `cur`, which yields `succ`, makes a compute triple of some live node
    /// that `succ` has not produced applicable.
    ///
    /// Exact only when no such triple is applicable on `cur` (the seed asks
    /// only then): a triple enabled by the filler must then need one of the
    /// filler's new properties, so only those properties' consumers
    /// ([`Theory::consumers_of_prop`]) are checked, not the whole theory.
    pub fn enables_progress(&self, cur: &PropSet, filler: &Triple, succ: &PropSet) -> bool {
        filler.post.iter().filter(|p| !cur.contains(p)).flat_map(|p| self.consumers_of_prop(p)).any(
            |&i| {
                let t = &self.triples[i];
                self.live[t.output] && !succ.has_node(t.output) && succ.contains_all(&t.pre)
            },
        )
    }

    /// Number of triples (reported by the Fig. 19 overhead experiment).
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the theory is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// A walk over the triples that can fire on a property set, in theory
/// order — the one applicable-triples walk that the A\* expansion, the
/// greedy seed and the hot-path workload builder share.
///
/// It tests triple by triple with [`Triple::applicable`], but skips whole
/// node ranges that cannot fire: a node's communication triples when the
/// node is unproduced (their precondition is a placement of it) or already
/// communicated (at most one communication per tensor). The progress walk
/// ([`Theory::progress`]) opens only the compute range of live, unproduced
/// nodes.
pub struct Applicable<'a> {
    theory: &'a Theory,
    props: &'a PropSet,
    progress_only: bool,
    /// `(every, stop)`: see [`Applicable::until`].
    stop: Option<(usize, &'a dyn Fn() -> bool)>,
    /// Next span to open.
    span: usize,
    /// Next triple to examine and the end of the open range.
    next: usize,
    end: usize,
    /// Triples tested so far.
    examined: usize,
}

impl<'a> Applicable<'a> {
    fn new(theory: &'a Theory, props: &'a PropSet, progress_only: bool) -> Self {
        Applicable {
            theory,
            props,
            progress_only,
            stop: None,
            span: 0,
            next: 0,
            end: 0,
            examined: 0,
        }
    }

    /// Ends the walk early once `stop` returns true; `stop` is polled
    /// before the first and then every `every`-th tested triple, so a
    /// caller's deadline is observed however few triples can fire.
    pub fn until(mut self, every: usize, stop: &'a dyn Fn() -> bool) -> Self {
        self.stop = Some((every, stop));
        self
    }

    /// The range of `span` that can hold a firable triple under `props`.
    fn open(&self, span: &NodeSpan) -> (usize, usize) {
        let produced = self.props.has_node(span.node);
        if self.progress_only {
            if produced || !self.theory.live[span.node] {
                (span.start, span.start)
            } else {
                (span.start, span.comm)
            }
        } else if produced && !self.props.is_communicated(span.node) {
            (span.start, span.end)
        } else {
            (span.start, span.comm)
        }
    }
}

impl<'a> Iterator for Applicable<'a> {
    type Item = (usize, &'a Triple);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            while self.next < self.end {
                if let Some((every, stop)) = self.stop {
                    if self.examined.is_multiple_of(every) && stop() {
                        self.span = self.theory.spans.len();
                        self.next = self.end;
                        return None;
                    }
                }
                let k = self.next;
                self.next += 1;
                self.examined += 1;
                let triple = &self.theory.triples[k];
                if triple.applicable(self.props) {
                    return Some((k, triple));
                }
            }
            let span = *self.theory.spans.get(self.span)?;
            self.span += 1;
            (self.next, self.end) = self.open(&span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_graph::GraphBuilder;

    fn fig11_graph() -> Graph {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("e1", vec![8, 4]);
        let w = g.parameter("e2", vec![4, 2]);
        let y = g.matmul(x, w);
        let _l = g.sum_all(y);
        g.build_forward()
    }

    #[test]
    fn leaf_instructions_are_fused() {
        let t = Theory::build(&fig11_graph());
        // No triple should have an empty instruction list, and matmul triples
        // must carry their leaf materializations inline.
        let matmul_triples: Vec<&Triple> = t
            .triples
            .iter()
            .filter(|tr| tr.instrs.iter().any(|i| matches!(i, DistInstr::Compute { node: 2, .. })))
            .collect();
        assert!(!matmul_triples.is_empty());
        for tr in &matmul_triples {
            assert!(tr.pre.is_empty(), "both inputs are leaves; pre must be empty");
            assert!(tr.instrs.len() >= 2, "leaf instrs must be fused in");
        }
    }

    #[test]
    fn no_communication_triples_for_leaves() {
        let t = Theory::build(&fig11_graph());
        for tr in &t.triples {
            if let Some(e) = tr.comm_node {
                assert!(e >= 2, "leaves must not be communicated, got node {e}");
            }
        }
    }

    #[test]
    fn grouped_broadcast_toggle() {
        let g = fig11_graph();
        let with = Theory::build_with(&g, TheoryOptions::default());
        let without = Theory::build_with(&g, TheoryOptions { grouped_broadcast: false, sfb: true });
        let count = |t: &Theory| {
            t.triples
                .iter()
                .filter(|tr| {
                    tr.instrs.iter().any(|i| {
                        matches!(
                            i,
                            DistInstr::Collective {
                                kind: CollectiveInstr::AllGather { grouped: true, .. },
                                ..
                            }
                        )
                    })
                })
                .count()
        };
        assert!(count(&with) > 0);
        assert_eq!(count(&without), 0);
    }

    #[test]
    fn undemanded_tensors_get_no_communication_triples() {
        // The loss has no consumers, so no placement of it is demanded and
        // no communication triple is generated (with at most one collective
        // per tensor, a collective no consumer rule can use is dead code).
        let g = fig11_graph();
        let t = Theory::build(&g);
        let loss = g.loss().unwrap();
        let loss_comms: Vec<&Triple> =
            t.triples.iter().filter(|tr| tr.comm_node == Some(loss)).collect();
        assert!(loss_comms.is_empty());
        // The matmul output feeds `sum`, which demands every placement that
        // its rules mention, so it does get communication triples.
        let y_comms = t.triples.iter().filter(|tr| tr.comm_node == Some(2)).count();
        assert!(y_comms > 0);
    }

    #[test]
    fn required_outputs_cover_loss_and_updates() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8, 4]);
        let w = g.parameter("w", vec![4, 2]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let t = Theory::build(&graph);
        assert_eq!(t.required.len(), 2); // loss + update_w
    }

    #[test]
    fn spans_partition_the_triples_by_node() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8, 4]);
        let w = g.parameter("w", vec![4, 2]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let t = Theory::build(&g.build_training(l).unwrap());
        let mut next = 0;
        for span in &t.spans {
            assert_eq!(span.start, next, "spans are contiguous and in order");
            assert!(span.start <= span.comm && span.comm <= span.end);
            for tr in &t.triples[span.start..span.comm] {
                assert_eq!((tr.output, tr.comm_node), (span.node, None));
            }
            for tr in &t.triples[span.comm..span.end] {
                assert_eq!((tr.output, tr.comm_node), (span.node, Some(span.node)));
            }
            next = span.end;
        }
        assert_eq!(next, t.triples.len(), "every triple lies in a span");
    }

    #[test]
    fn pre_index_finds_consumers() {
        let g = fig11_graph();
        let t = Theory::build(&g);
        // The matmul output (node 2) sharded on dim 0 is consumed by sum.
        let hits = t.consumers_of_prop(&(2, Placement::Shard(0)));
        assert!(!hits.is_empty());
        for &i in hits {
            assert_eq!(t.triples[i].output, 3);
        }
    }
}
