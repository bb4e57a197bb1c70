//! Wave-parallel A\*-based distributed program search (paper Sec. 4.3,
//! Fig. 10).
//!
//! States are canonical property sets; the score of a partial program is
//! `cost + ecost`, where `cost` is the time of all closed stages plus the
//! running stage's per-device computation, and `ecost` is the admissible
//! remaining-work bound assuming infinite bandwidth and perfect balance.
//! Dominance pruning keeps, per property set, only the cheapest program
//! (the hash-map realization of Fig. 10 lines 9–14), realized as a sharded
//! map so expansion workers can consult it concurrently.
//!
//! # Parallel waves, deterministic results
//!
//! The search proceeds in *waves*: each wave pops the best
//! [`WAVE_WIDTH`] states from a sharded frontier, expands them across a
//! scoped thread pool ([`mini_rayon`] scatter/gather), then merges the
//! candidate successors **sequentially in a stable order** — sorted by
//! `(score, cost, program fingerprint)` — before committing any of them to
//! the dominance map, the incumbent, or the frontier. During a wave the
//! dominance map and the incumbent are frozen, so workers only perform
//! deterministic reads; all writes happen in the deterministic merge. The
//! result is bit-for-bit identical for every `threads` value whenever the
//! search terminates structurally (optimality bound, expansion budget, or
//! stall cutoff). Only the wall-clock budget ([`SynthConfig::time_budget_secs`])
//! is inherently timing-dependent: when it fires, the incumbent of the last
//! completed wave — itself a deterministic function of the wave count — is
//! returned.
//!
//! # The zero-allocation hot path
//!
//! The expansion inner loop (one iteration per `(state, triple)` pair) is
//! O(1)-lookup and allocation-free until a successor survives the bounds:
//! costs come from dense precomputed [`CostTables`], previews run through a
//! per-worker scratch buffer with fused add+max passes, and states carry
//! hash-consed [`InternedProps`] whose content hash is maintained
//! incrementally — so dominance probes hash a `u32` id, not a whole set.
//! [`HotPathBench`] freezes this loop into a micro-benchmarkable workload
//! (`synthesis/expand_hot_path`), with a `Direct` cost oracle preserving
//! the pre-table behavior for comparison.
//!
//! Both the expansion and the greedy seed walk only the triples that can
//! matter, through the one per-node walk [`Theory::applicable`]: a node's
//! communication triples are skipped as a range while the node is
//! unproduced or already communicated. A greedy step first looks only at
//! compute triples of live, unproduced nodes ([`Theory::progress`]), and
//! its filler lookahead reads the consumers of the filler's new
//! properties, not the whole theory, so each step is linear in the triples
//! it can use.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use hap_cluster::VirtualDevice;
use hap_collectives::CommProfile;
use hap_graph::{Graph, NodeId, Rule};
use mini_rayon::ThreadPool;

use crate::cost::{CostModel, CostTables, ShardingRatios};
use crate::instr::{CollectiveInstr, DistInstr, DistProgram, ProgChain};
use crate::property::{InternedProps, PropInterner, PropSet};
use crate::theory::{Theory, TheoryOptions, Triple};

/// Synthesis options.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Maximum number of A\* expansions before giving up.
    pub max_expansions: usize,
    /// Optional beam width: when set, the open list is pruned to the best
    /// `N` states whenever it doubles past `N` (trades optimality for time).
    pub beam_width: Option<usize>,
    /// Wall-clock budget in seconds for the A\* refinement; when it runs
    /// out the best complete program found so far (at least the greedy
    /// incumbent) is returned. Workers observe the deadline cooperatively
    /// through a shared atomic flag, so a `0.0` budget returns the greedy
    /// incumbent without expanding a single state.
    pub time_budget_secs: f64,
    /// Stop refining after this many expansions without improving the
    /// incumbent (diminishing-returns cutoff).
    pub stall_expansions: usize,
    /// Include grouped-Broadcast rules (ablation toggle "C", Fig. 15).
    pub grouped_broadcast: bool,
    /// Include the SFB-enabling replicated gradient rules (Sec. 4.4).
    pub sfb: bool,
    /// Worker threads for the wave-parallel expansion; `0` (the default)
    /// uses all available cores, `1` runs fully sequentially with no thread
    /// spawns. The synthesized program is bit-for-bit identical for every
    /// value — the knob only trades wall-clock time.
    pub threads: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            max_expansions: 2_000_000,
            beam_width: Some(20_000),
            time_budget_secs: 5.0,
            stall_expansions: 5_000,
            grouped_broadcast: true,
            sfb: true,
            threads: 0,
        }
    }
}

/// Synthesis failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The search space was exhausted without a complete program.
    NoProgram,
    /// The expansion budget ran out before completion.
    ExpansionLimit(usize),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::NoProgram => write!(f, "no semantically equivalent program exists"),
            SynthError::ExpansionLimit(n) => {
                write!(f, "expansion limit of {n} reached without a complete program")
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// States expanded per wave. Fixed — never derived from the thread count —
/// so the pop order, and with it every downstream decision, is identical
/// whether the wave is expanded by 1 worker or 64.
const WAVE_WIDTH: usize = 64;

/// Shards of the frontier (keeps per-heap sifts short).
const FRONTIER_SHARDS: usize = 16;

/// Shards of the dominance map (power of two; masks the state hash).
const DOMINANCE_SHARDS: usize = 64;

/// Workers re-check the shared deadline flag every this many triples.
const DEADLINE_STRIDE: usize = 256;

/// Recycled state boxes a worker takes per `expand` call (one lock
/// round-trip per call, not per successor).
const RECYCLE_BATCH: usize = 16;

/// Boxes the recycling pool retains between waves. Beyond this the
/// surplus is freed: a single candidate-heavy wave must not pin its peak
/// footprint for the rest of the search.
const RECYCLE_CAP: usize = 4096;

/// A bump-style recycling arena for wave states. Every wave discards far
/// more `State` boxes than it commits — spent wave states, bound-rejected
/// candidates, dominated successors — and the next wave immediately
/// re-allocates boxes of the same shape. The pool closes that loop:
/// discarded boxes (with their `stage` buffers) come back through
/// [`apply_into`], so the steady-state expansion loop stops hitting the
/// allocator for short-lived successors. Purely a storage cache — recycled
/// slots are fully overwritten, so search results stay bit-identical.
// `Vec<Box<State>>` is the point, not an accident (clippy::vec_box): the
// boxes are the recycled resource — they move into `Candidate`/`Entry`
// (both hold `Box<State>`) without re-allocating, which unboxed storage
// would forfeit.
#[allow(clippy::vec_box)]
struct StatePool {
    pool: Mutex<Vec<Box<State>>>,
}

#[allow(clippy::vec_box)]
impl StatePool {
    fn new() -> StatePool {
        StatePool { pool: Mutex::new(Vec::new()) }
    }

    /// Moves up to [`RECYCLE_BATCH`] recycled boxes into `local`.
    fn take(&self, local: &mut Vec<Box<State>>) {
        let mut pool = self.pool.lock().unwrap();
        let keep = pool.len().saturating_sub(RECYCLE_BATCH);
        local.extend(pool.drain(keep..));
    }

    /// Returns `local`'s boxes to the pool, freeing any beyond
    /// [`RECYCLE_CAP`].
    fn give(&self, local: &mut Vec<Box<State>>) {
        if local.is_empty() {
            return;
        }
        let mut pool = self.pool.lock().unwrap();
        pool.append(local);
        pool.truncate(RECYCLE_CAP);
    }
}

struct State {
    /// Hash-consed property set: cloning a state copies the id and bumps a
    /// refcount; the owned set is cloned only at genuine mutation points
    /// (inside [`apply`], which then re-interns the successor).
    props: InternedProps,
    /// Time of closed stages plus nothing of the running stage.
    closed: f64,
    /// Per-device computation accumulated in the running stage.
    stage: Vec<f64>,
    /// Single-device flops of not-yet-produced compute nodes.
    remaining_flops: f64,
    /// Required outputs not yet produced.
    remaining_required: usize,
    program: ProgChain,
}

impl State {
    fn cost(&self) -> f64 {
        self.closed + self.stage.iter().cloned().fold(0.0, f64::max)
    }
}

/// A frontier entry: a live state plus its cached admissible score.
struct Entry {
    score: f64,
    /// Commit sequence number: unique, assigned in deterministic merge
    /// order, and used both as the heap tie-break (newer first — the
    /// depth-first bias that reaches complete programs quickly) and as the
    /// frontier shard selector.
    seq: u64,
    state: Box<State>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum, so "greater" must mean "expand
        // first": smaller score wins, ties go to the newer state.
        other.score.total_cmp(&self.score).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The open list, sharded into independent binary heaps. Pops scan the
/// shard heads for the global best — O(shards) per pop, with each push and
/// sift staying local to one small heap. All mutation happens between
/// waves on the coordinating thread, so no locking is needed; the sharding
/// keeps the door open for concurrent in-wave pushes later.
struct ShardedFrontier {
    shards: Vec<BinaryHeap<Entry>>,
}

impl ShardedFrontier {
    fn new(shards: usize) -> Self {
        ShardedFrontier { shards: (0..shards).map(|_| BinaryHeap::new()).collect() }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(BinaryHeap::len).sum()
    }

    fn push(&mut self, entry: Entry) {
        let shard = (entry.seq % self.shards.len() as u64) as usize;
        self.shards[shard].push(entry);
    }

    /// Pops the globally best entry (smallest score, newest on ties).
    fn pop_best(&mut self) -> Option<Entry> {
        let best = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, heap)| heap.peek().map(|e| (i, e)))
            .max_by(|(_, a), (_, b)| a.cmp(b))?
            .0;
        self.shards[best].pop()
    }

    fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
    }

    /// Keeps only the best `beam` entries (deterministic: the entry order
    /// `(score, seq)` is a total order).
    fn prune_to(&mut self, beam: usize) {
        let mut all: Vec<Entry> = Vec::with_capacity(self.len());
        for shard in &mut self.shards {
            all.extend(std::mem::take(shard).into_vec());
        }
        all.sort_unstable_by(|a, b| b.cmp(a)); // best first
        all.truncate(beam);
        for entry in all {
            self.push(entry);
        }
    }
}

/// Per-property-set best-cost map (Fig. 10 lines 9–14). Keys are interner
/// ids — a `u32` copy instead of a heap-allocated set clone per entry, and
/// a 4-byte hash per probe instead of re-hashing the whole set. Shards are
/// still picked by the memoized *content* hash, so the shard population
/// (irrelevant to results, but kept reproducible anyway) is identical run
/// to run even though id values are assigned in thread-timing order.
/// During a wave, expansion workers take uncontended read locks; every
/// write happens in the sequential merge between waves, so lookups are
/// deterministic.
struct DominanceMap {
    shards: Vec<RwLock<HashMap<u32, f64>>>,
}

impl DominanceMap {
    fn new(shards: usize) -> Self {
        debug_assert!(shards.is_power_of_two());
        DominanceMap { shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn shard(&self, key: &InternedProps) -> &RwLock<HashMap<u32, f64>> {
        &self.shards[(key.stable_hash() as usize) & (self.shards.len() - 1)]
    }

    /// The best known cost of `key`, if any (read lock).
    fn bound(&self, key: &InternedProps) -> Option<f64> {
        self.shard(key).read().expect("dominance shard poisoned").get(&key.id()).copied()
    }

    /// Records `cost` for `key` unless an existing entry already dominates
    /// it; returns whether the entry was inserted (write lock).
    fn try_commit(&self, key: &InternedProps, cost: f64) -> bool {
        let mut map = self.shard(key).write().expect("dominance shard poisoned");
        match map.get(&key.id()) {
            Some(&c) if c <= cost + EPS => false,
            _ => {
                map.insert(key.id(), cost);
                true
            }
        }
    }
}

/// The search's cost oracle.
///
/// Production synthesis always runs on [`CostTables`] — O(1) slice reads,
/// no allocation, no division. The `Direct` variant routes the identical
/// control flow through the original allocating [`CostModel`] calls; it
/// exists for the `synthesis/expand_hot_path` micro-bench and the
/// equivalence tests, which assert both variants produce bit-identical
/// costs on the same workload.
pub(crate) enum CostSource<'a> {
    /// Precomputed dense tables (the production hot path).
    Tables(&'a CostTables),
    /// Direct per-call evaluation (the pre-table baseline).
    Direct(&'a CostModel<'a>),
}

impl CostSource<'_> {
    /// Adds the per-device seconds of computing `node` under `rule` to
    /// `stage`.
    #[inline]
    fn add_compute(&self, stage: &mut [f64], node: NodeId, rule: &Rule) {
        match self {
            CostSource::Tables(t) => {
                for (s, d) in stage.iter_mut().zip(t.compute_row_for(node, rule)) {
                    *s += d;
                }
            }
            CostSource::Direct(cm) => {
                // The pre-table behavior: a fresh Vec per evaluation.
                let per_dev = cm.compute_seconds(node, rule);
                for (s, d) in stage.iter_mut().zip(per_dev.iter()) {
                    *s += d;
                }
            }
        }
    }

    /// Fused `stage += compute; max(stage)` in one pass (the preview inner
    /// loop). The running maximum folds in element order from `0.0`,
    /// exactly like a separate `fold(0.0, f64::max)` pass would.
    #[inline]
    fn add_compute_max(&self, stage: &mut [f64], node: NodeId, rule: &Rule) -> f64 {
        let mut max = 0.0f64;
        match self {
            CostSource::Tables(t) => {
                for (s, d) in stage.iter_mut().zip(t.compute_row_for(node, rule)) {
                    *s += d;
                    max = max.max(*s);
                }
            }
            CostSource::Direct(cm) => {
                let per_dev = cm.compute_seconds(node, rule);
                for (s, d) in stage.iter_mut().zip(per_dev.iter()) {
                    *s += d;
                    max = max.max(*s);
                }
            }
        }
        max
    }

    /// Fused `stage = base + compute; max(stage)` in one pass (the first
    /// compute of a preview, replacing a copy + add + fold triple pass).
    #[inline]
    fn set_compute_max(&self, stage: &mut [f64], base: &[f64], node: NodeId, rule: &Rule) -> f64 {
        let mut max = 0.0f64;
        match self {
            CostSource::Tables(t) => {
                let row = t.compute_row_for(node, rule);
                for ((s, &b), d) in stage.iter_mut().zip(base.iter()).zip(row) {
                    *s = b + d;
                    max = max.max(*s);
                }
            }
            CostSource::Direct(cm) => {
                let per_dev = cm.compute_seconds(node, rule);
                for ((s, &b), d) in stage.iter_mut().zip(base.iter()).zip(per_dev.iter()) {
                    *s = b + d;
                    max = max.max(*s);
                }
            }
        }
        max
    }

    #[inline]
    fn collective_secs(&self, node: NodeId, kind: &CollectiveInstr) -> f64 {
        match self {
            CostSource::Tables(t) => t.collective_secs(node, kind),
            CostSource::Direct(cm) => cm.collective_seconds(node, kind),
        }
    }

    #[inline]
    fn best_case_seconds(&self, flops: f64) -> f64 {
        match self {
            CostSource::Tables(t) => t.best_case_seconds(flops),
            CostSource::Direct(cm) => cm.best_case_seconds(flops),
        }
    }

    #[inline]
    fn node_flops(&self, node: NodeId) -> f64 {
        match self {
            CostSource::Tables(t) => t.node_flops(node),
            CostSource::Direct(cm) => cm.node_flops(node),
        }
    }
}

/// Per-synthesis search counters, collected by the wave coordinator.
///
/// Every counter is maintained in the *sequential* phases of the search —
/// the greedy seed, the wave pop loop and the commit loop — never inside
/// the parallel `expand` calls, so profiling adds no atomics to the scatter
/// path and the numbers are bit-identical across thread counts (wave
/// composition and merge order are already thread-count independent).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SynthProfile {
    /// Waves popped from the frontier.
    pub waves: u64,
    /// States expanded (the budget the search spends).
    pub expansions: u64,
    /// Successors produced by expansion, before commit filtering.
    pub candidates: u64,
    /// Candidates that survived every bound and entered the frontier.
    pub committed: u64,
    /// Times a complete program improved the incumbent.
    pub improvements: u64,
    /// Popped entries skipped because a cheaper path to the same property
    /// set had already been committed (lazy-deletion hits).
    pub dominance_stale: u64,
    /// Candidates rejected by the dominance map at commit time.
    pub dominance_pruned: u64,
    /// Candidates rejected because their score could not beat the
    /// incumbent (branch-and-bound prunes).
    pub incumbent_pruned: u64,
    /// Largest frontier observed at a wave boundary.
    pub frontier_peak: u64,
    /// State boxes retired into the recycling arena.
    pub recycled: u64,
    /// 1 if a warm-start program was accepted as the initial incumbent
    /// (summed across rounds when profiles are merged).
    pub warm_seeded: u64,
    /// Synthesis calls folded into this profile: 1 per search (summed
    /// across rounds when profiles are merged).
    pub searches: u64,
    /// Steps of the greedy descent that seeds the incumbent.
    pub seed_steps: u64,
    /// Greedy steps with no applicable progress triple, which needed the
    /// filler pass.
    pub seed_filler_passes: u64,
}

impl SynthProfile {
    /// Folds another synthesis run (e.g. a later round of the alternating
    /// optimization) into this profile.
    pub fn merge(&mut self, other: &SynthProfile) {
        self.waves += other.waves;
        self.expansions += other.expansions;
        self.candidates += other.candidates;
        self.committed += other.committed;
        self.improvements += other.improvements;
        self.dominance_stale += other.dominance_stale;
        self.dominance_pruned += other.dominance_pruned;
        self.incumbent_pruned += other.incumbent_pruned;
        self.frontier_peak = self.frontier_peak.max(other.frontier_peak);
        self.recycled += other.recycled;
        self.warm_seeded += other.warm_seeded;
        self.searches += other.searches;
        self.seed_steps += other.seed_steps;
        self.seed_filler_passes += other.seed_filler_passes;
    }

    /// The counters as `(name, value)` pairs, in a stable order — the
    /// shape upper layers use for wire encoding and trace annotations.
    pub fn entries(&self) -> [(&'static str, u64); 14] {
        [
            ("waves", self.waves),
            ("expansions", self.expansions),
            ("candidates", self.candidates),
            ("committed", self.committed),
            ("improvements", self.improvements),
            ("dominance_stale", self.dominance_stale),
            ("dominance_pruned", self.dominance_pruned),
            ("incumbent_pruned", self.incumbent_pruned),
            ("frontier_peak", self.frontier_peak),
            ("recycled", self.recycled),
            ("warm_seeded", self.warm_seeded),
            ("searches", self.searches),
            ("seed_steps", self.seed_steps),
            ("seed_filler_passes", self.seed_filler_passes),
        ]
    }
}

/// The best complete program found so far.
struct Incumbent {
    cost: f64,
    program: ProgChain,
}

/// A successor produced by a wave expansion, not yet committed.
struct Candidate {
    score: f64,
    cost: f64,
    /// Stable program fingerprint — the cross-thread-count tie-break.
    fingerprint: u64,
    state: Box<State>,
}

const EPS: f64 = 1e-12;

/// Synthesizes the optimal distributed program for `graph` under sharding
/// ratios `ratios` on the given devices.
pub fn synthesize(
    graph: &Graph,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
) -> Result<DistProgram, SynthError> {
    let theory = Theory::build_with(
        graph,
        TheoryOptions { grouped_broadcast: config.grouped_broadcast, sfb: config.sfb },
    );
    synthesize_with_theory(graph, &theory, devices, profile, ratios, config)
}

/// Synthesizes against a pre-built theory (lets callers reuse the theory
/// across iterations of the alternating optimization).
pub fn synthesize_with_theory(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
) -> Result<DistProgram, SynthError> {
    synthesize_with_theory_warm(graph, theory, devices, profile, ratios, config, None)
}

/// [`synthesize_with_theory`] with an optional warm-start program.
///
/// The alternating Q/B loop re-synthesizes under freshly balanced ratios
/// every round; `warm_start` lets round *s* seed the A\* incumbent with
/// round *s−1*'s program, re-costed under the new ratio matrix via the same
/// table arithmetic the search uses. A warm incumbent is an upper bound
/// that prunes every state whose admissible score cannot beat it, which
/// typically cuts later rounds to a fraction of round 0's expansions. The
/// warm program only replaces the greedy seed when it is strictly cheaper,
/// and any strictly better program found by the search replaces it in turn.
///
/// Results are preserved up to exact cost ties: a warm incumbent only
/// suppresses programs that cannot beat it by more than [`EPS`], so warm
/// and cold runs can diverge only when the warm program ties the cold
/// optimum within that epsilon (in which case the warm run returns the
/// warm program itself — an equal-cost plan). The determinism suite pins
/// bit-for-bit equality on every benchmark model.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_with_theory_warm(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
    warm_start: Option<&DistProgram>,
) -> Result<DistProgram, SynthError> {
    let mut prof = SynthProfile::default();
    synthesize_core(graph, theory, devices, profile, ratios, config, warm_start, &mut prof)
}

/// [`synthesize_with_theory_warm`] that also returns the search's
/// [`SynthProfile`]. Profiling is collected unconditionally (it is a
/// handful of coordinator-side counter bumps); this variant merely keeps
/// the counters instead of dropping them, so profiled and unprofiled
/// calls run the identical search.
#[allow(clippy::too_many_arguments)]
pub fn synthesize_with_theory_profiled(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
    warm_start: Option<&DistProgram>,
) -> Result<(DistProgram, SynthProfile), SynthError> {
    let mut prof = SynthProfile::default();
    let program =
        synthesize_core(graph, theory, devices, profile, ratios, config, warm_start, &mut prof)?;
    Ok((program, prof))
}

#[allow(clippy::too_many_arguments)]
fn synthesize_core(
    graph: &Graph,
    theory: &Theory,
    devices: &[VirtualDevice],
    profile: &CommProfile,
    ratios: &ShardingRatios,
    config: &SynthConfig,
    warm_start: Option<&DistProgram>,
    prof: &mut SynthProfile,
) -> Result<DistProgram, SynthError> {
    let cm = CostModel::new(graph, devices, profile, ratios);
    let tables = CostTables::build(&cm);
    let costs = CostSource::Tables(&tables);
    let interner = PropInterner::new();
    let m = cm.num_devices();
    let pool = ThreadPool::new(config.threads);

    let total_remaining: f64 = graph
        .nodes()
        .iter()
        .filter(|n| !n.op.is_leaf() && theory.live[n.id])
        .map(|n| graph.node_flops(n.id))
        .sum();
    let required_count = theory.required.len();

    let initial = State {
        props: interner.intern(PropSet::new()),
        closed: 0.0,
        stage: vec![0.0; m],
        remaining_flops: total_remaining,
        remaining_required: required_count,
        program: ProgChain::new(),
    };

    // Seed the incumbent with a greedy descent: every later state whose
    // score cannot beat it is pruned, which bounds the exploration
    // (branch-and-bound on top of A*).
    let greedy_t0 = Instant::now();
    prof.searches += 1;
    let mut incumbent: Option<Incumbent> =
        greedy_seed(&initial, theory, &costs, &interner, graph, prof)
            .map(|(cost, program)| Incumbent { cost, program });
    if std::env::var_os("HAP_SYNTH_DEBUG").is_some() {
        eprintln!(
            "greedy: {:?}, incumbent = {:?}",
            greedy_t0.elapsed(),
            incumbent.as_ref().map(|i| i.cost)
        );
    }

    // Warm start: a previous round's program, re-costed under the current
    // ratios with the exact arithmetic `apply` uses, becomes the incumbent
    // when it strictly beats the greedy seed.
    if let Some(warm) = warm_start {
        let warm_cost = replay_cost(warm, &costs, m);
        if incumbent.as_ref().is_none_or(|inc| warm_cost < inc.cost - EPS) {
            incumbent = Some(Incumbent { cost: warm_cost, program: ProgChain::from_program(warm) });
            prof.warm_seeded = 1;
        }
    }

    let dominance = DominanceMap::new(DOMINANCE_SHARDS);
    dominance.try_commit(&initial.props, 0.0);

    let mut frontier = ShardedFrontier::new(FRONTIER_SHARDS);
    frontier.push(Entry {
        score: costs.best_case_seconds(total_remaining),
        seq: 0,
        state: Box::new(initial),
    });
    let mut seq = 1u64;

    // The cooperative deadline: the coordinator checks it between waves and
    // workers poll the flag (and the clock, every DEADLINE_STRIDE triples)
    // inside a wave, so even a single oversized wave cannot spin past the
    // budget. A zero budget trips before the first wave is popped.
    let deadline = Instant::now() + Duration::from_secs_f64(config.time_budget_secs.max(0.0));
    let out_of_time = AtomicBool::new(false);

    let mut expansions = 0usize;
    let mut last_improvement = 0usize;

    // Recycling arena: each wave's discarded state boxes feed the next
    // wave's allocations. Shared across workers (batched, so the lock is
    // touched twice per expand call, not per successor).
    let recycle = StatePool::new();

    loop {
        if out_of_time.load(AtomicOrdering::Relaxed) || Instant::now() >= deadline {
            // Budget exhausted: fall back to the incumbent (paper-style
            // "seconds of overhead" guarantee).
            return budget_fallback(incumbent, expansions);
        }
        if incumbent.is_some()
            && expansions.saturating_sub(last_improvement) > config.stall_expansions
        {
            break; // diminishing returns: keep the incumbent
        }
        let budget_left = config.max_expansions.saturating_sub(expansions);
        if budget_left == 0 {
            if std::env::var_os("HAP_SYNTH_DEBUG").is_some() {
                eprintln!(
                    "astar: expansion budget {} exhausted over {} threads, frontier {}",
                    config.max_expansions,
                    pool.threads(),
                    frontier.len()
                );
            }
            return incumbent
                .map(|inc| inc.program.to_program(inc.cost))
                .ok_or(SynthError::ExpansionLimit(config.max_expansions));
        }

        // Pop the wave: the globally best states, skipping entries that a
        // cheaper path to the same property set has made stale.
        let mut wave: Vec<Box<State>> = Vec::with_capacity(WAVE_WIDTH.min(budget_left));
        while wave.len() < WAVE_WIDTH.min(budget_left) {
            let Some(entry) = frontier.pop_best() else { break };
            if let Some(inc) = &incumbent {
                if entry.score >= inc.cost - EPS {
                    // A* optimality: this is the frontier's minimum score,
                    // so no open state can beat the incumbent.
                    frontier.clear();
                    break;
                }
            }
            match dominance.bound(&entry.state.props) {
                Some(c) if c < entry.state.cost() - EPS => {
                    prof.dominance_stale += 1;
                    continue; // stale
                }
                _ => {}
            }
            wave.push(entry.state);
        }
        if wave.is_empty() {
            break; // frontier exhausted or optimality proven
        }
        expansions += wave.len();
        prof.waves += 1;
        prof.expansions += wave.len() as u64;

        // Scatter: expand every wave state in parallel. The dominance map
        // and incumbent are frozen for the duration, so workers only do
        // deterministic reads.
        let incumbent_cost = incumbent.as_ref().map(|i| i.cost);
        let expanded: Vec<Vec<Candidate>> = pool.scatter_map(&wave, |_, state| {
            expand(
                state,
                theory,
                &costs,
                &interner,
                graph,
                incumbent_cost,
                &dominance,
                &recycle,
                &out_of_time,
                deadline,
            )
        });
        if out_of_time.load(AtomicOrdering::Relaxed) {
            // The wave was abandoned mid-expansion; its partial candidates
            // are discarded so the result is the last wave's incumbent.
            return budget_fallback(incumbent, expansions);
        }
        // The wave is spent: its boxes seed the next wave's successors.
        prof.recycled += wave.len() as u64;
        recycle.give(&mut wave);

        // Gather: merge the wave's candidates in a stable, thread-count
        // independent order before any of them takes effect.
        let mut candidates: Vec<Candidate> = expanded.into_iter().flatten().collect();
        prof.candidates += candidates.len() as u64;
        candidates.sort_by(|a, b| {
            a.score
                .total_cmp(&b.score)
                .then_with(|| a.cost.total_cmp(&b.cost))
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });

        // Commit sequentially in merge order. Rejected candidates retire
        // their boxes to the arena in one batch at the end.
        let mut retired: Vec<Box<State>> = Vec::new();
        for cand in candidates {
            if let Some(inc) = &incumbent {
                if cand.score >= inc.cost - EPS {
                    prof.incumbent_pruned += 1;
                    retired.push(cand.state); // cannot beat the incumbent
                    continue;
                }
            }
            if cand.state.remaining_required == 0 {
                // Complete and strictly better (score == cost passed the
                // bound above). Equal-cost ties resolve to the candidate
                // with the smaller fingerprint: it commits first in merge
                // order and the bound then filters the rest.
                let mut state = cand.state;
                let program = std::mem::replace(&mut state.program, ProgChain::new());
                incumbent = Some(Incumbent { cost: cand.cost, program });
                retired.push(state);
                last_improvement = expansions;
                prof.improvements += 1;
                continue;
            }
            if !dominance.try_commit(&cand.state.props, cand.cost) {
                prof.dominance_pruned += 1;
                retired.push(cand.state);
                continue;
            }
            frontier.push(Entry { score: cand.score, seq, state: cand.state });
            seq += 1;
            prof.committed += 1;
        }
        prof.recycled += retired.len() as u64;
        recycle.give(&mut retired);

        if let Some(beam) = config.beam_width {
            if frontier.len() > beam * 2 {
                frontier.prune_to(beam);
            }
        }
        prof.frontier_peak = prof.frontier_peak.max(frontier.len() as u64);
    }

    if std::env::var_os("HAP_SYNTH_DEBUG").is_some() {
        eprintln!(
            "astar: {expansions} expansions over {} threads, frontier {} at exit",
            pool.threads(),
            frontier.len()
        );
    }
    match incumbent {
        Some(inc) => Ok(inc.program.to_program(inc.cost)),
        None => Err(SynthError::NoProgram),
    }
}

/// The time-budget exit: the incumbent if one exists, else an error.
fn budget_fallback(
    incumbent: Option<Incumbent>,
    expansions: usize,
) -> Result<DistProgram, SynthError> {
    incumbent
        .map(|inc| inc.program.to_program(inc.cost))
        .ok_or(SynthError::ExpansionLimit(expansions))
}

/// Expands one state by the triples that can fire on it
/// ([`Theory::applicable`]), returning its surviving successors. Runs on
/// worker threads: reads the frozen dominance map and incumbent bound,
/// writes nothing (the interner is append-only and content-addressed), and
/// polls the shared deadline flag. The whole triple walk is allocation-free
/// — cost lookups are table reads, previews reuse one scratch buffer —
/// until a successor actually survives the bounds.
#[allow(clippy::too_many_arguments)]
fn expand(
    cur: &State,
    theory: &Theory,
    costs: &CostSource,
    interner: &PropInterner,
    graph: &Graph,
    incumbent_cost: Option<f64>,
    dominance: &DominanceMap,
    recycle: &StatePool,
    out_of_time: &AtomicBool,
    deadline: Instant,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut scratch = vec![0.0; cur.stage.len()];
    // Local freelist of recycled boxes: successors are built into these
    // when available, and bound-rejected successors go straight back on.
    let mut local: Vec<Box<State>> = Vec::new();
    recycle.take(&mut local);
    let cur_stage_max = cur.stage.iter().cloned().fold(0.0, f64::max);
    // The deadline poll: ends the walk once the shared flag is up or the
    // clock has passed the deadline (raising the flag for the other workers).
    let stop = || {
        if out_of_time.load(AtomicOrdering::Relaxed) {
            return true;
        }
        let late = Instant::now() >= deadline;
        if late {
            out_of_time.store(true, AtomicOrdering::Relaxed);
        }
        late
    };
    for (_, triple) in theory.applicable(&cur.props).until(DEADLINE_STRIDE, &stop) {
        if let Some(bound) = incumbent_cost {
            let (pcost, premaining) =
                preview(cur, cur_stage_max, triple, costs, theory, &mut scratch);
            if pcost + costs.best_case_seconds(premaining) >= bound - EPS {
                continue; // cannot beat the incumbent: skip without allocating
            }
        }
        let succ = match local.pop() {
            Some(mut slot) => {
                apply_into(cur, triple, costs, interner, theory, graph, &mut slot);
                slot
            }
            None => Box::new(apply(cur, triple, costs, interner, theory, graph)),
        };
        let cost = succ.cost();
        if let Some(bound) = incumbent_cost {
            if cost >= bound - EPS {
                local.push(succ);
                continue;
            }
        }
        if succ.remaining_required == 0 {
            let fingerprint = succ.program.fingerprint();
            out.push(Candidate { score: cost, cost, fingerprint, state: succ });
            continue;
        }
        if let Some(c) = dominance.bound(&succ.props) {
            if c <= cost + EPS {
                local.push(succ); // dominated by a previous wave
                continue;
            }
        }
        let score = cost + costs.best_case_seconds(succ.remaining_flops);
        if let Some(bound) = incumbent_cost {
            if score >= bound - EPS {
                local.push(succ); // admissible score cannot beat the incumbent
                continue;
            }
        }
        let fingerprint = succ.program.fingerprint();
        out.push(Candidate { score, cost, fingerprint, state: succ });
    }
    recycle.give(&mut local);
    out
}

/// Greedy descent to an initial complete program: from the empty state,
/// repeatedly apply the successor with the best score. Returns `None` when
/// the descent stalls (the A\* then runs unseeded).
///
/// Each step is linear in the triples it can use. Progress first: the
/// cheapest applicable compute triple of a live, unproduced node
/// ([`Theory::progress`]; ties go to the earlier triple). Only when none
/// applies does the filler pass walk every applicable triple (collectives
/// and alternative placements) for the cheapest one that leads to a new
/// property set and unblocks such a compute triple, a lookahead that reads
/// only the consumers of the filler's new properties
/// ([`Theory::enables_progress`]). Candidates are scored with the cheap
/// preview; only the winner's state is constructed.
fn greedy_seed(
    initial: &State,
    theory: &Theory,
    costs: &CostSource,
    interner: &PropInterner,
    graph: &Graph,
    prof: &mut SynthProfile,
) -> Option<(f64, ProgChain)> {
    let mut cur = clone_state(initial);
    // Been-here check: stable-hash buckets with exact compare inside, so
    // wide graphs don't pay the old linear scan over every seen set.
    let mut seen_keys: HashMap<u64, Vec<PropSet>> = HashMap::new();
    let mut scratch = vec![0.0; initial.stage.len()];
    let debug = std::env::var_os("HAP_SYNTH_DEBUG").is_some();
    let mut trace: Vec<String> = Vec::new();
    for _ in 0..graph.len().saturating_mul(8).max(64) {
        if cur.remaining_required == 0 {
            return Some((cur.cost(), cur.program));
        }
        let cur_stage_max = cur.stage.iter().cloned().fold(0.0, f64::max);
        let mut score_of = |triple: &Triple| {
            let (pcost, premaining) =
                preview(&cur, cur_stage_max, triple, costs, theory, &mut scratch);
            pcost + costs.best_case_seconds(premaining)
        };
        let mut best: Option<(f64, &Triple)> = None;
        for (_, triple) in theory.progress(&cur.props) {
            let score = score_of(triple);
            if best.is_none_or(|(bs, _)| score < bs) {
                best = Some((score, triple));
            }
        }
        if best.is_none() {
            prof.seed_filler_passes += 1;
            for (_, triple) in theory.applicable(&cur.props) {
                let score = score_of(triple);
                if best.is_none_or(|(bs, _)| score < bs) {
                    // Only the successor's property set matters here, so
                    // the full state (stage costs, program chain,
                    // interning) is never constructed.
                    let succ_props = apply_props(&cur.props, triple);
                    let unseen = !seen_keys
                        .get(&succ_props.stable_hash())
                        .is_some_and(|bucket| bucket.contains(&succ_props));
                    if unseen && theory.enables_progress(&cur.props, triple, &succ_props) {
                        best = Some((score, triple));
                    }
                }
            }
        }
        let next = match best {
            Some((_, triple)) => apply(&cur, triple, costs, interner, theory, graph),
            None => {
                if debug {
                    eprintln!(
                        "greedy stalled: {} required outputs missing; props = {:?}",
                        cur.remaining_required,
                        cur.props.props()
                    );
                }
                return None;
            }
        };
        prof.seed_steps += 1;
        if debug {
            if let Some(instr) = next.program.last() {
                trace.push(format!("{instr:?}"));
            }
        }
        seen_keys.entry(next.props.stable_hash()).or_default().push(PropSet::clone(&next.props));
        cur = next;
    }
    if debug {
        eprintln!(
            "greedy ran out of steps: {} required missing, {} props",
            cur.remaining_required,
            cur.props.len()
        );
        eprintln!(
            "missing required: {:?}",
            theory.required.iter().filter(|&&r| !cur.props.has_node(r)).collect::<Vec<_>>()
        );
        for (i, line) in trace.iter().enumerate() {
            eprintln!("  step {i}: {line}");
        }
    }
    None
}

/// Applies the property-set effect of a triple to `props` — communicated
/// markers of its collectives, then its postcondition — invoking
/// `on_new_node` for every graph node that first becomes produced. The one
/// source of truth for set effects: [`apply`] layers cost, program, and
/// remaining-work bookkeeping on top, [`apply_props`] uses it bare.
fn apply_props_into(props: &mut PropSet, triple: &Triple, mut on_new_node: impl FnMut(NodeId)) {
    for instr in &triple.instrs {
        if let DistInstr::Collective { node, .. } = instr {
            props.mark_communicated(*node);
        }
    }
    for &p in &triple.post {
        let newly_produced = !props.has_node(p.0);
        if props.insert(p) && newly_produced {
            on_new_node(p.0);
        }
    }
}

/// Applies only the property-set effect of a triple — the greedy one-step
/// lookahead needs the successor's identity, not its cost or program.
fn apply_props(cur: &PropSet, triple: &Triple) -> PropSet {
    let mut props = cur.clone();
    apply_props_into(&mut props, triple, |_| {});
    props
}

fn clone_state(s: &State) -> State {
    State {
        props: s.props.clone(),
        closed: s.closed,
        stage: s.stage.clone(),
        remaining_flops: s.remaining_flops,
        remaining_required: s.remaining_required,
        program: s.program.clone(),
    }
}

/// Cheaply previews the cost and remaining-work bound of applying a triple,
/// without constructing the successor state or allocating: `scratch` (one
/// per expanding worker, reused across the whole triple scan) holds the
/// in-progress stage vector whenever the triple touches it, and
/// `cur_stage_max` is the precomputed makespan of the state's running stage
/// (invariant across the scan, so callers hoist it out of the loop).
fn preview(
    cur: &State,
    cur_stage_max: f64,
    triple: &Triple,
    costs: &CostSource,
    theory: &Theory,
    scratch: &mut [f64],
) -> (f64, f64) {
    let mut closed = cur.closed;
    let mut stage_max = cur_stage_max;
    // True once `scratch` holds the running stage (after the first compute
    // or collective of this triple); until then the state's own stage is
    // authoritative and nothing is copied.
    let mut scratch_live = false;
    for instr in &triple.instrs {
        match instr {
            DistInstr::Leaf { .. } => {}
            DistInstr::Compute { node, rule } => {
                stage_max = if scratch_live {
                    costs.add_compute_max(scratch, *node, rule)
                } else {
                    scratch_live = true;
                    costs.set_compute_max(scratch, &cur.stage, *node, rule)
                };
            }
            DistInstr::Collective { node, kind } => {
                closed += stage_max + costs.collective_secs(*node, kind);
                scratch.fill(0.0);
                scratch_live = true;
                stage_max = 0.0;
            }
        }
    }
    let mut remaining = cur.remaining_flops;
    for &(n, _) in &triple.post {
        if !cur.props.has_node(n) && theory.live[n] {
            remaining = (remaining - costs.node_flops(n)).max(0.0);
        }
    }
    (closed + stage_max, remaining)
}

/// Applies a triple to a state, producing the successor. This is the one
/// genuine mutation point of a state's property set: callers only reach it
/// for triples that change the set, so the copy-on-write clone of the
/// interned set (and the re-intern of the result) happens exactly here.
fn apply(
    cur: &State,
    triple: &Triple,
    costs: &CostSource,
    interner: &PropInterner,
    theory: &Theory,
    graph: &Graph,
) -> State {
    let mut out = State {
        props: cur.props.clone(),
        closed: 0.0,
        stage: Vec::with_capacity(cur.stage.len()),
        remaining_flops: 0.0,
        remaining_required: 0,
        program: ProgChain::new(),
    };
    apply_into(cur, triple, costs, interner, theory, graph, &mut out);
    out
}

/// [`apply`] into a recycled slot: identical arithmetic operation for
/// operation, but the successor overwrites `slot`, reusing its `stage`
/// buffer's capacity instead of allocating a fresh one. This is the
/// [`StatePool`] fast path; `slot`'s prior contents are irrelevant.
#[allow(clippy::too_many_arguments)]
fn apply_into(
    cur: &State,
    triple: &Triple,
    costs: &CostSource,
    interner: &PropInterner,
    theory: &Theory,
    graph: &Graph,
    slot: &mut State,
) {
    let mut props = PropSet::clone(&cur.props);
    let mut closed = cur.closed;
    let stage = &mut slot.stage;
    stage.clear();
    stage.extend_from_slice(&cur.stage);
    let mut remaining_flops = cur.remaining_flops;
    let mut remaining_required = cur.remaining_required;
    let mut program = cur.program.clone();

    for instr in &triple.instrs {
        match instr {
            DistInstr::Leaf { node, placement } => {
                // Re-materializing an already-available leaf is skipped.
                // Postconditions (including this leaf's property) are
                // applied after the loop, so `props` still reflects the
                // predecessor here.
                if props.contains(&(*node, *placement)) {
                    continue;
                }
                program = program.push(instr.clone());
            }
            DistInstr::Compute { node, rule } => {
                costs.add_compute(stage, *node, rule);
                program = program.push(instr.clone());
            }
            DistInstr::Collective { node, kind } => {
                // A collective closes the running stage (paper Fig. 6).
                closed += stage.iter().cloned().fold(0.0, f64::max);
                stage.iter_mut().for_each(|s| *s = 0.0);
                closed += costs.collective_secs(*node, kind);
                program = program.push(instr.clone());
            }
        }
    }

    apply_props_into(&mut props, triple, |node| {
        if !graph.node(node).op.is_leaf() && theory.live[node] {
            remaining_flops = (remaining_flops - costs.node_flops(node)).max(0.0);
        }
        if theory.required.contains(&node) {
            remaining_required = remaining_required.saturating_sub(1);
        }
    });

    slot.props = interner.intern(props);
    slot.closed = closed;
    slot.remaining_flops = remaining_flops;
    slot.remaining_required = remaining_required;
    slot.program = program;
}

/// Re-costs an existing program, mirroring [`apply`]'s stage arithmetic
/// operation for operation so a warm-start incumbent's cost is bit-identical
/// to the cost the search would assign the same program.
fn replay_cost(program: &DistProgram, costs: &CostSource, m: usize) -> f64 {
    let mut closed = 0.0;
    let mut stage = vec![0.0; m];
    for instr in &program.instrs {
        match instr {
            DistInstr::Leaf { .. } => {}
            DistInstr::Compute { node, rule } => costs.add_compute(&mut stage, *node, rule),
            DistInstr::Collective { node, kind } => {
                closed += stage.iter().cloned().fold(0.0, f64::max);
                stage.iter_mut().for_each(|s| *s = 0.0);
                closed += costs.collective_secs(*node, kind);
            }
        }
    }
    closed + stage.iter().cloned().fold(0.0, f64::max)
}

/// A frozen expand-hot-path workload: reachable search states with
/// precomputed applicable-triple lists, isolated from the frontier, the
/// dominance map, and the thread pool.
///
/// [`HotPathBench::run`] replays exactly the cost-lookup + candidate-
/// generation inner loop of [`expand`] over the workload — preview each
/// `(state, triple)` pair, apply the ones whose admissible score clears the
/// stored bound — through either cost oracle. States are fully constructed
/// (and interned) up front, like the wave states `expand` receives, so the
/// timed region contains only the inner loop. The
/// `synthesis/expand_hot_path` micro-bench times the two variants; the
/// equivalence tests assert their checksums (cost and score bits, successor
/// fingerprints) are identical.
pub struct HotPathBench {
    graph: Graph,
    devices: Vec<VirtualDevice>,
    profile: CommProfile,
    ratios: ShardingRatios,
    theory: Theory,
    /// Built once here, not per run: production builds tables once per
    /// `synthesize_with_theory` call and amortizes them over the whole
    /// search, so the timed region must not re-pay the build.
    tables: CostTables,
    /// Shared across runs; content-addressed, so repeat runs hit.
    interner: PropInterner,
    /// `(state, hoisted stage max, applicable triple indices)`.
    states: Vec<(State, f64, Vec<usize>)>,
    /// 2nd-percentile preview score of the workload: applications below it
    /// construct the successor, the rest are preview-pruned — mirroring a
    /// late-search wave under a tight incumbent, where almost every triple
    /// dies at preview time (pure cost lookup) and only the promising few
    /// materialize states.
    bound: f64,
    applications: usize,
}

impl HotPathBench {
    /// Collects up to `max_states` reachable states by breadth-first
    /// expansion from the empty state (deterministic: FIFO order, no
    /// pruning other than property-set dedup).
    pub fn new(
        graph: Graph,
        devices: Vec<VirtualDevice>,
        profile: CommProfile,
        ratios: ShardingRatios,
        max_states: usize,
    ) -> Self {
        let theory = Theory::build(&graph);
        let interner = PropInterner::new();
        let tables = CostTables::build(&CostModel::new(&graph, &devices, &profile, &ratios));
        let mut states: Vec<(State, f64, Vec<usize>)> = Vec::with_capacity(max_states);
        let mut scores: Vec<f64> = Vec::new();
        {
            let costs = CostSource::Tables(&tables);
            let m = devices.len();
            let total_remaining: f64 = graph
                .nodes()
                .iter()
                .filter(|n| !n.op.is_leaf() && theory.live[n.id])
                .map(|n| graph.node_flops(n.id))
                .sum();
            let initial = State {
                props: interner.intern(PropSet::new()),
                closed: 0.0,
                stage: vec![0.0; m],
                remaining_flops: total_remaining,
                remaining_required: theory.required.len(),
                program: ProgChain::new(),
            };
            let mut scratch = vec![0.0; m];
            let mut seen: HashSet<u32> = HashSet::new();
            seen.insert(initial.props.id());
            let mut queue: VecDeque<State> = VecDeque::new();
            queue.push_back(initial);
            while let Some(state) = queue.pop_front() {
                if states.len() >= max_states {
                    break;
                }
                let matched: Vec<usize> = theory.applicable(&state.props).map(|(k, _)| k).collect();
                let stage_max = state.stage.iter().cloned().fold(0.0, f64::max);
                for &k in &matched {
                    let triple = &theory.triples[k];
                    let (pcost, premaining) =
                        preview(&state, stage_max, triple, &costs, &theory, &mut scratch);
                    scores.push(pcost + costs.best_case_seconds(premaining));
                    let succ = apply(&state, triple, &costs, &interner, &theory, &graph);
                    if seen.insert(succ.props.id()) && queue.len() + states.len() < max_states {
                        queue.push_back(succ);
                    }
                }
                states.push((state, stage_max, matched));
            }
        }
        scores.sort_unstable_by(f64::total_cmp);
        let bound = scores.get(scores.len() / 50).copied().unwrap_or(f64::INFINITY);
        let applications = states.iter().map(|(_, _, matched)| matched.len()).sum();
        HotPathBench {
            graph,
            devices,
            profile,
            ratios,
            theory,
            tables,
            interner,
            states,
            bound,
            applications,
        }
    }

    /// Number of `(state, triple)` applications one [`HotPathBench::run`]
    /// performs (the throughput unit of the micro-bench).
    pub fn applications(&self) -> usize {
        self.applications
    }

    /// Replays the workload through the table (`use_tables`) or direct cost
    /// oracle, returning `(applications, checksum)`. The checksum folds
    /// every preview score, surviving successor cost, and successor program
    /// fingerprint, so two runs agree iff their costs are bit-identical.
    pub fn run(&self, use_tables: bool) -> (usize, u64) {
        // The CostModel is rebuilt for both variants (cheap: one flops
        // vec); the tables come prebuilt, mirroring production's
        // once-per-search amortization.
        let cm = CostModel::new(&self.graph, &self.devices, &self.profile, &self.ratios);
        let costs =
            if use_tables { CostSource::Tables(&self.tables) } else { CostSource::Direct(&cm) };
        let mut scratch = vec![0.0; self.devices.len()];
        let mut applications = 0usize;
        let mut checksum = 0u64;
        for (state, stage_max, matched) in &self.states {
            for &k in matched {
                let triple = &self.theory.triples[k];
                let (pcost, premaining) =
                    preview(state, *stage_max, triple, &costs, &self.theory, &mut scratch);
                let score = pcost + costs.best_case_seconds(premaining);
                applications += 1;
                checksum = checksum.rotate_left(1) ^ score.to_bits();
                if score < self.bound {
                    let succ =
                        apply(state, triple, &costs, &self.interner, &self.theory, &self.graph);
                    checksum = checksum.rotate_left(1)
                        ^ succ.cost().to_bits()
                        ^ succ.program.fingerprint();
                }
            }
        }
        (applications, checksum)
    }

    /// [`HotPathBench::run`] through the table oracle, but with the
    /// production recycling arena: every surviving successor is built by
    /// [`apply_into`] into a box drawn from a local freelist and returned
    /// to it, exactly the steady state `expand` reaches against a
    /// [`StatePool`]. The checksum must match [`HotPathBench::run`] bit
    /// for bit (asserted by the micro-bench and the equivalence test);
    /// the `synthesis/expand_hot_path_arena` series gates the recycled
    /// path's throughput against the allocating one.
    pub fn run_arena(&self) -> (usize, u64) {
        // Same per-run setup as `run`, so the gated ratio compares only
        // the inner loop.
        let _cm = CostModel::new(&self.graph, &self.devices, &self.profile, &self.ratios);
        let costs = CostSource::Tables(&self.tables);
        let mut scratch = vec![0.0; self.devices.len()];
        let mut freelist: Vec<Box<State>> = Vec::new();
        let mut applications = 0usize;
        let mut checksum = 0u64;
        for (state, stage_max, matched) in &self.states {
            for &k in matched {
                let triple = &self.theory.triples[k];
                let (pcost, premaining) =
                    preview(state, *stage_max, triple, &costs, &self.theory, &mut scratch);
                let score = pcost + costs.best_case_seconds(premaining);
                applications += 1;
                checksum = checksum.rotate_left(1) ^ score.to_bits();
                if score < self.bound {
                    let succ = match freelist.pop() {
                        Some(mut slot) => {
                            apply_into(
                                state,
                                triple,
                                &costs,
                                &self.interner,
                                &self.theory,
                                &self.graph,
                                &mut slot,
                            );
                            slot
                        }
                        None => Box::new(apply(
                            state,
                            triple,
                            &costs,
                            &self.interner,
                            &self.theory,
                            &self.graph,
                        )),
                    };
                    checksum = checksum.rotate_left(1)
                        ^ succ.cost().to_bits()
                        ^ succ.program.fingerprint();
                    freelist.push(succ);
                }
            }
        }
        (applications, checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_cluster::{ClusterSpec, Granularity};
    use hap_collectives::{profile_collectives, GroundTruthNet, NetworkParams};
    use hap_graph::{GraphBuilder, Placement, Role};

    fn cluster_setup(m: usize) -> (Vec<VirtualDevice>, CommProfile, ShardingRatios) {
        let cluster = match m {
            4 => ClusterSpec::fig17_cluster(),
            _ => ClusterSpec::paper_heterogeneous(1),
        };
        let devices = cluster.virtual_devices(Granularity::PerGpu);
        let profile =
            profile_collectives(&GroundTruthNet::new(NetworkParams::paper_cloud()), devices.len());
        let ratios = vec![cluster.proportional_ratios(Granularity::PerGpu)];
        (devices, profile, ratios)
    }

    #[test]
    fn fig11_example_synthesizes_data_parallelism() {
        // loss = sum(x . w): the classic result is x sharded on batch, w
        // replicated, no communication at all (loss stays partial).
        let mut g = GraphBuilder::new();
        let x = g.placeholder("e1", vec![4096, 1024]);
        let w = g.parameter("e2", vec![1024, 512]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_forward();
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        assert!(q.is_complete(&graph));
        assert_eq!(q.collective_count(), 0, "program: {}", q.listing(&graph));
        // x must be shard-materialized on its batch dimension.
        assert!(q.instrs.iter().any(|i| matches!(
            i,
            DistInstr::Leaf { node, placement: Placement::Shard(0) } if *node == x
        )));
        let _ = (y, l);
    }

    #[test]
    fn training_iteration_synchronizes_gradients() {
        // With a big batch and a small model, replicating the forward pass is
        // far too expensive, so the optimal program shards the batch — and
        // then the weight gradient must be aggregated: expect at least one
        // collective (all-reduce or reduce-scatter).
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![262144, 256]);
        let w = g.parameter("w", vec![256, 256]);
        let labels = g.label("y", vec![262144]);
        let h = g.matmul(x, w);
        let loss = g.cross_entropy(h, labels);
        let _ = x;
        let graph = g.build_training(loss).unwrap();
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        assert!(q.is_complete(&graph), "program:\n{}", q.listing(&graph));
        assert!(
            q.collective_count() >= 1,
            "gradient sync requires communication:\n{}",
            q.listing(&graph)
        );
        // Every required output is produced.
        for o in graph.required_outputs() {
            assert!(q
                .instrs
                .iter()
                .any(|i| matches!(i, DistInstr::Compute { node, .. } if *node == o)));
        }
    }

    #[test]
    fn tiny_batch_prefers_sfb() {
        // Fig. 5: with a small global batch, gathering the sufficient factors
        // (activations + output grads) is cheaper than all-reducing the
        // f x h gradient. Make f, h huge and b tiny.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8, 4096]);
        let w = g.parameter("w", vec![4096, 4096]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        // The gradient of w must NOT be all-reduced; instead the factors are
        // gathered and the gradient computed replicated.
        let grad_w_node = graph
            .nodes()
            .iter()
            .find(|n| {
                n.role == Role::Grad && matches!(n.op, hap_graph::Op::MatMul2 { ta: true, .. })
            })
            .map(|n| n.id)
            .expect("weight gradient node");
        let allreduced_grad = q.instrs.iter().any(|i| {
            matches!(i, DistInstr::Collective { node, kind: crate::CollectiveInstr::AllReduce } if *node == grad_w_node)
        });
        assert!(
            !allreduced_grad,
            "SFB should avoid all-reducing the huge gradient:\n{}",
            q.listing(&graph)
        );
        let _ = (x, w, y, l);
    }

    #[test]
    fn disabling_sfb_changes_the_plan() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8, 4096]);
        let w = g.parameter("w", vec![4096, 4096]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let (devices, profile, ratios) = cluster_setup(4);
        let with =
            synthesize(&graph, &devices, &profile, &ratios, &SynthConfig::default()).unwrap();
        let without = synthesize(
            &graph,
            &devices,
            &profile,
            &ratios,
            &SynthConfig { sfb: false, ..SynthConfig::default() },
        )
        .unwrap();
        assert!(with.estimated_time <= without.estimated_time + 1e-12);
    }

    #[test]
    fn zero_budget_still_returns_the_greedy_incumbent() {
        // With a zero expansion budget the A* cannot refine, but the greedy
        // descent still seeds a complete (if suboptimal) program.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![64, 8]);
        let w = g.parameter("w", vec![8, 8]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_forward();
        let _ = (x, w, y, l);
        let (devices, profile, ratios) = cluster_setup(4);
        let q = synthesize(
            &graph,
            &devices,
            &profile,
            &ratios,
            &SynthConfig { max_expansions: 0, ..SynthConfig::default() },
        )
        .expect("greedy incumbent");
        assert!(q.is_complete(&graph));
    }

    #[test]
    fn zero_time_budget_returns_the_greedy_incumbent_without_spinning() {
        // Regression: the cooperative deadline flag must trip before the
        // first wave, so a 0-second budget degrades to the greedy program
        // instead of panicking or expanding states. Exercised at several
        // thread counts since the flag is shared across workers.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![4096, 64]);
        let w = g.parameter("w", vec![64, 64]);
        let y = g.matmul(x, w);
        let l = g.sum_all(y);
        let graph = g.build_training(l).unwrap();
        let _ = (x, w, y, l);
        let (devices, profile, ratios) = cluster_setup(4);
        for threads in [1usize, 2, 8] {
            let t0 = Instant::now();
            let q = synthesize(
                &graph,
                &devices,
                &profile,
                &ratios,
                &SynthConfig { time_budget_secs: 0.0, threads, ..SynthConfig::default() },
            )
            .expect("greedy incumbent under zero budget");
            assert!(q.is_complete(&graph));
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "zero budget must not spin (threads={threads})"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_program() {
        // The full benchmark-suite determinism check lives in
        // tests/synthesis_determinism.rs; this is the fast unit-level gate.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", vec![8192, 128]);
        let w1 = g.parameter("w1", vec![128, 256]);
        let w2 = g.parameter("w2", vec![256, 64]);
        let labels = g.label("y", vec![8192]);
        let h = g.matmul(x, w1);
        let h = g.relu(h);
        let h = g.matmul(h, w2);
        let loss = g.cross_entropy(h, labels);
        let graph = g.build_training(loss).unwrap();
        let _ = (x, w1, w2, labels);
        let (devices, profile, ratios) = cluster_setup(4);
        let cfg = |threads: usize| SynthConfig {
            threads,
            time_budget_secs: 60.0,
            max_expansions: 1_500,
            ..SynthConfig::default()
        };
        let theory = Theory::build(&graph);
        let run = |threads: usize| {
            synthesize_with_theory_profiled(
                &graph,
                &theory,
                &devices,
                &profile,
                &ratios,
                &cfg(threads),
                None,
            )
            .unwrap()
        };
        let (reference, reference_profile) = run(1);
        assert_eq!(reference_profile.searches, 1);
        assert!(reference_profile.seed_steps > 0);
        assert!(reference_profile.seed_filler_passes <= reference_profile.seed_steps);
        for threads in [2usize, 8] {
            let (q, prof) = run(threads);
            assert_eq!(q.fingerprint(), reference.fingerprint(), "threads={threads}");
            assert_eq!(
                q.estimated_time.to_bits(),
                reference.estimated_time.to_bits(),
                "threads={threads}"
            );
            // Every counter, the greedy seed's included, is maintained in
            // the sequential phases of the search.
            assert_eq!(prof, reference_profile, "threads={threads}");
        }
    }
}
