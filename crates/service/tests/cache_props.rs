//! Property tests for the plan cache's cost-aware admission policy and
//! TTL expiry, under a manually-advanced clock so every timing decision
//! is exact and deterministic.
//!
//! Invariants (the ISSUE-5 acceptance set):
//!
//! 1. capacity is never exceeded;
//! 2. an admitted entry's saved-seconds-per-byte density is at least that
//!    of every entry it evicted (and a rejected candidate's is below its
//!    would-be victim's);
//! 3. expired entries are never served;
//! 4. with all costs and sizes equal (and no TTLs), the cache behaves
//!    *exactly* like the PR-4 sharded LRU, checked against a reference
//!    model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hap_service::{Admission, CachePolicy, CachedPlan, PlanCache};
use hap_synthesis::DistProgram;
use proptest::prelude::*;

const SHARDS: usize = 16;

fn plan(synthesis_nanos: u64, size_bytes: u64, ttl_nanos: Option<u64>) -> Arc<CachedPlan> {
    Arc::new(CachedPlan {
        program: DistProgram::default(),
        ratios: vec![vec![1.0]],
        estimated_time: 1.0,
        rounds: 1,
        graph_fp: 1,
        opts_fp: 1,
        features: [1.0; 4],
        synthesis_nanos,
        size_bytes,
        ttl_nanos,
        payload: Default::default(),
    })
}

/// One scripted cache operation, decoded from a random tuple.
#[derive(Debug)]
enum Op {
    /// Offer `fp` with the given cost metadata.
    Insert { fp: u64, nanos: u64, size: u64, ttl: Option<u64> },
    /// Look `fp` up.
    Get { fp: u64 },
    /// Advance the manual clock.
    Advance { nanos: u64 },
}

/// Decodes `(kind, fp, nanos, size, ttl)` tuples into operations. `fp`
/// stays in a small universe so shards genuinely contend.
fn decode_ops(raw: &[(usize, u64, u64, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, fp, nanos, size, ttl)| match kind % 4 {
            0 | 1 => Op::Insert {
                fp: fp % 96,
                nanos: nanos % 1_000_000,
                size: size % 10_000 + 1,
                ttl: if ttl % 3 == 0 { Some(ttl % 5_000 + 1) } else { None },
            },
            2 => Op::Get { fp: fp % 96 },
            _ => Op::Advance { nanos: nanos % 2_000 },
        })
        .collect()
}

/// What the test knows about the latest offered plan per fingerprint.
#[derive(Clone, Copy)]
struct Meta {
    density: f64,
    /// Manual-clock deadline, if the entry carried a TTL when (last)
    /// admitted or replaced.
    expires_at: Option<u64>,
    /// Whether the last offer was actually stored (admitted/replaced).
    stored: bool,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Invariants 1–3 over fully random cost/size/TTL traffic.
    #[test]
    fn admission_and_ttl_invariants(
        raw in prop::collection::vec(
            (0usize..4, 0u64..10_000, 0u64..1_000_000_000, 0u64..1_000_000, 0u64..100_000),
            1..250,
        ),
    ) {
        const CAPACITY: usize = 32; // multiple of SHARDS: per-shard budget 2
        let clock = Arc::new(AtomicU64::new(0));
        let cache =
            PlanCache::with_manual_clock(CAPACITY, CachePolicy::default(), clock.clone());
        let mut known: HashMap<u64, Meta> = HashMap::new();
        let mut now = 0u64;

        for op in decode_ops(&raw) {
            match op {
                Op::Advance { nanos } => {
                    now += nanos;
                    clock.store(now, Ordering::SeqCst);
                }
                Op::Insert { fp, nanos, size, ttl } => {
                    let p = plan(nanos, size, ttl);
                    let density = p.density();
                    let verdict = cache.insert(fp, p);
                    match &verdict {
                        Admission::Admitted { evicted } => {
                            for victim in evicted {
                                // Invariant 2: nothing denser was displaced.
                                let v = known[victim];
                                prop_assert!(
                                    density >= v.density,
                                    "admitted density {density} below evicted {}",
                                    v.density
                                );
                            }
                            for victim in evicted {
                                known.get_mut(victim).unwrap().stored = false;
                            }
                        }
                        Admission::Rejected { victim_fp } => {
                            let v = known[victim_fp];
                            prop_assert!(
                                density < v.density,
                                "rejected density {density} not below victim {}",
                                v.density
                            );
                        }
                        Admission::Replaced => {}
                    }
                    let stored = !matches!(verdict, Admission::Rejected { .. });
                    known.insert(
                        fp,
                        Meta {
                            density,
                            expires_at: ttl.map(|t| now + t.max(1)),
                            stored,
                        },
                    );
                    // Invariant 1: capacity never exceeded.
                    prop_assert!(cache.len() <= CAPACITY, "len {} > {CAPACITY}", cache.len());
                }
                Op::Get { fp } => {
                    let got = cache.get(fp);
                    match known.get(&fp) {
                        // Invariant 3: expired entries are never served.
                        Some(meta) if meta.expires_at.is_some_and(|d| now >= d) => {
                            prop_assert!(
                                got.is_none(),
                                "expired entry {fp} served at {now} (deadline {:?})",
                                meta.expires_at
                            );
                        }
                        // Anything served must be the latest stored offer.
                        _ => {
                            if let Some(p) = got {
                                let meta = known[&fp];
                                prop_assert!(meta.stored, "served a rejected candidate {fp}");
                                prop_assert!(
                                    (p.density() - meta.density).abs() < 1e-12,
                                    "stale entry served for {fp}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Invariant 4: equal costs and sizes (no TTL) degrade to exactly the
    /// PR-4 sharded LRU, verified against a reference model.
    #[test]
    fn equal_costs_recover_plain_lru_exactly(
        raw in prop::collection::vec((0usize..3, 0u64..10_000), 1..300),
    ) {
        const CAPACITY: usize = 32;
        let per_shard = CAPACITY / SHARDS;
        let cache = PlanCache::new(CAPACITY);
        // Reference model: per-shard maps of fp -> last-used tick, evicting
        // min (last_used, fp) — the documented PR-4 policy. The model's
        // tick mirrors the cache's: one per get/insert call.
        let mut model: Vec<HashMap<u64, u64>> = vec![HashMap::new(); SHARDS];
        for (tick, &(kind, fp)) in raw.iter().enumerate() {
            let tick = tick as u64;
            let fp = fp % 96;
            let shard = (fp as usize) & (SHARDS - 1);
            match kind % 3 {
                0 | 1 => {
                    let verdict = cache.insert(fp, plan(1_000, 100, None));
                    prop_assert!(
                        !matches!(verdict, Admission::Rejected { .. }),
                        "equal-density candidates must always admit"
                    );
                    let m = &mut model[shard];
                    if m.insert(fp, tick).is_none() && m.len() > per_shard {
                        let victim =
                            *m.iter().min_by_key(|(k, t)| (**t, **k)).map(|(k, _)| k).unwrap();
                        m.remove(&victim);
                        match &verdict {
                            Admission::Admitted { evicted } => {
                                prop_assert_eq!(evicted.clone(), vec![victim]);
                            }
                            other => prop_assert!(false, "expected eviction, got {:?}", other),
                        }
                    }
                }
                2 => {
                    let got = cache.get(fp).is_some();
                    let expected = model[shard].contains_key(&fp);
                    prop_assert_eq!(got, expected, "LRU membership diverged on fp {}", fp);
                    if expected {
                        model[shard].insert(fp, tick);
                    }
                }
                _ => unreachable!(),
            }
        }
        // Final membership agrees entry for entry.
        let total: usize = model.iter().map(|m| m.len()).sum();
        prop_assert_eq!(cache.len(), total);
        for m in &model {
            for fp in m.keys() {
                prop_assert!(cache.get(*fp).is_some(), "model has {} but cache lost it", fp);
            }
        }
    }
}
