//! The versioned on-disk record format of the plan service's cache.
//!
//! One cache entry persists as one JSON line. PR 4 wrote unversioned
//! `{"fp":...,"plan":{...}}` lines; PR 5 added a `"v":2` tag and per-entry
//! cost metadata (admission density, TTL). The current v3 format prepends
//! a per-line checksum so disk corruption is *detected* instead of
//! silently decoded:
//!
//! ```text
//! {"v":3,"sum":"0x...","fp":"0x...","plan":{...,"synthesis_nanos":N,"size_bytes":N,"ttl_nanos":N|null}}
//! ```
//!
//! `sum` is the FNV-1a digest of the canonical bytes of the record body —
//! the object `{"fp":...,"plan":{...}}` rendered without the `v`/`sum`
//! fields. Because the codec's `render → parse → render` is the identity
//! on canonical text, a reader can re-render the parsed body and compare
//! digests: any bit flip that survives JSON parsing (a changed digit, a
//! swapped field) still changes the canonical body bytes and is rejected.
//! Without the checksum, a flipped digit in `"rounds":1` would load as a
//! perfectly well-typed — and wrong — record.
//!
//! Decoding is backward compatible: a `"v":2` line (no checksum) and a
//! line without `"v"` at all (PR-4, no cost metadata either) both load;
//! legacy records carry zeroed cost metadata and no TTL — served normally,
//! but first in line for eviction, which is the conservative choice for
//! entries whose synthesis cost was never measured. Compaction always
//! rewrites the current version, so old formats migrate on the next boot.
//! Unknown future versions are rejected rather than guessed at.

use std::sync::{Arc, OnceLock};

use hap_synthesis::{DistProgram, ShardingRatios};

use crate::json::{CodecError, Value};
use crate::wire::{parse_fingerprint, render_fingerprint, value_fingerprint, Decode, Encode};

/// The persistence-format version this build writes.
pub const PERSIST_VERSION: u64 = 3;

/// The newest *previous* version this build still reads (checksum-less
/// PR-5 records). The PR-4 unversioned format also loads.
pub const PERSIST_VERSION_COMPAT: u64 = 2;

/// One cached plan: everything a response needs, the request-side metadata
/// (`graph_fp`, `opts_fp`, cluster features) the nearest-neighbor warm
/// start matches on, and the cost metadata (`synthesis_nanos`,
/// `size_bytes`, `ttl_nanos`) the admission policy prices. Deliberately
/// *excludes* the graph and the device list — the client sent the graph,
/// so echoing it back would double every response.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The synthesized program (carries its estimated time).
    pub program: DistProgram,
    /// Per-segment sharding ratios.
    pub ratios: ShardingRatios,
    /// Cost-model estimate of the per-iteration time, bit-preserved.
    pub estimated_time: f64,
    /// The 1-based index of the alternating-optimization round whose plan
    /// the original synthesis chose (`hap::Plan::rounds`), not the number
    /// of rounds that ran.
    pub rounds: usize,
    /// Fingerprint of the request's canonical graph encoding.
    pub graph_fp: u64,
    /// Fingerprint of the request's canonical options encoding.
    pub opts_fp: u64,
    /// Coarse cluster descriptors for the neighbor metric.
    pub features: [f64; 4],
    /// Wall-clock nanoseconds the original synthesis took — the seconds a
    /// cache hit saves. Zero on legacy records (never measured).
    pub synthesis_nanos: u64,
    /// Canonical encoded size of the plan payload (program + ratios) in
    /// bytes — the denominator of the admission density. Zero on legacy
    /// records.
    pub size_bytes: u64,
    /// Per-entry time-to-live in nanoseconds; `None` = never expires.
    pub ttl_nanos: Option<u64>,
    /// The rendered response payload ([`CachedPlan::payload`]): derived
    /// from the fields above, never persisted. Build with
    /// `PlanPayload::default()`; it fills on first use.
    pub payload: PlanPayload,
}

/// Memo of a plan's rendered response payload, filled once on first use;
/// clones taken after that share the rendered bytes.
#[derive(Clone, Debug, Default)]
pub struct PlanPayload(OnceLock<Arc<str>>);

impl CachedPlan {
    /// The canonical byte size of this plan's payload (program + ratios),
    /// the denominator of the admission density. Callers set
    /// [`CachedPlan::size_bytes`] from this once, at construction — the
    /// field itself is excluded from the measurement so the value is
    /// well-defined.
    pub fn measure_size(&self) -> u64 {
        (self.program.encode().render().len() + self.ratios.encode().render().len()) as u64
    }

    /// The canonical rendering of the response frame's `"plan"` object,
    /// `{"rounds":..,"estimated_time":..,"ratios":..,"program":..}`.
    /// Rendered on first call and kept: the payload never changes for a
    /// given plan, so every response serving it splices these bytes in
    /// instead of re-encoding the program. The fields it covers must not
    /// change after the first call.
    pub fn payload(&self) -> &str {
        self.payload.0.get_or_init(|| {
            Value::obj(vec![
                ("rounds", self.rounds.encode()),
                ("estimated_time", Value::Num(self.estimated_time)),
                ("ratios", self.ratios.encode()),
                ("program", self.program.encode()),
            ])
            .render()
            .into()
        })
    }

    /// Estimated synthesis-seconds saved per cached byte: the admission
    /// policy's value metric. Legacy entries (unmeasured cost) score zero;
    /// a zero-size payload cannot occur (every program encodes to
    /// something) but is clamped defensively.
    pub fn density(&self) -> f64 {
        self.synthesis_nanos as f64 / 1e9 / (self.size_bytes.max(1) as f64)
    }
}

impl Encode for CachedPlan {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("graph_fp", Value::Str(render_fingerprint(self.graph_fp))),
            ("opts_fp", Value::Str(render_fingerprint(self.opts_fp))),
            ("features", self.features.to_vec().encode()),
            ("rounds", self.rounds.encode()),
            ("estimated_time", Value::Num(self.estimated_time)),
            ("synthesis_nanos", Value::int(self.synthesis_nanos)),
            ("size_bytes", Value::int(self.size_bytes)),
            (
                "ttl_nanos",
                match self.ttl_nanos {
                    None => Value::Null,
                    Some(n) => Value::int(n),
                },
            ),
            ("ratios", self.ratios.encode()),
            ("program", self.program.encode()),
        ])
    }
}

impl Decode for CachedPlan {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let features = Vec::<f64>::decode(v.field("features")?)?;
        let features: [f64; 4] = features
            .try_into()
            .map_err(|_| CodecError::Decode("expected 4 cluster features".into()))?;
        // Legacy (PR-4) plan bodies predate the cost metadata: missing
        // fields decode to the conservative zero-cost defaults.
        let synthesis_nanos = match v.get("synthesis_nanos") {
            None => 0,
            Some(n) => n.as_u64()?,
        };
        let size_bytes = match v.get("size_bytes") {
            None => 0,
            Some(n) => n.as_u64()?,
        };
        let ttl_nanos = match v.get("ttl_nanos") {
            None | Some(Value::Null) => None,
            Some(n) => Some(n.as_u64()?),
        };
        let plan = CachedPlan {
            program: DistProgram::decode(v.field("program")?)?,
            ratios: ShardingRatios::decode(v.field("ratios")?)?,
            estimated_time: v.field("estimated_time")?.as_f64()?,
            rounds: v.field("rounds")?.as_usize()?,
            graph_fp: parse_fingerprint(v.field("graph_fp")?.as_str()?)?,
            opts_fp: parse_fingerprint(v.field("opts_fp")?.as_str()?)?,
            features,
            synthesis_nanos,
            size_bytes,
            ttl_nanos,
            payload: PlanPayload::default(),
        };
        // Decoded plans are about to be served (a loaded log, a
        // replicated entry): render the payload now, not on the first hit.
        plan.payload();
        Ok(plan)
    }
}

/// The record body (`{"fp":...,"plan":{...}}`, optionally followed by a
/// `"req"` field) the v3 checksum covers.
fn record_body(fp: u64, plan: &CachedPlan, req: Option<&Value>) -> Value {
    let mut fields = vec![("fp", Value::Str(render_fingerprint(fp))), ("plan", plan.encode())];
    if let Some(req) = req {
        fields.push(("req", req.clone()));
    }
    Value::obj(fields)
}

/// Renders one persisted cache line in the current (versioned, checksummed)
/// format.
pub fn persist_line(fp: u64, plan: &CachedPlan) -> String {
    persist_line_with_req(fp, plan, None)
}

/// Renders one persisted cache line, optionally embedding the request that
/// produced the plan as a `"req"` field (the
/// `{"graph":...,"cluster":...,"options":...}` triple). The field extends
/// the v3 format compatibly in both directions: the checksum covers
/// whichever fields are present, older v3 readers ignore the extra key, and
/// lines without it still parse here. The replan index is rebuilt from it
/// at boot, so `replan` keeps answering across daemon restarts.
pub fn persist_line_with_req(fp: u64, plan: &CachedPlan, req: Option<&Value>) -> String {
    let body = record_body(fp, plan, req);
    let sum = value_fingerprint(&body);
    // Splicing after the body's opening brace reproduces exactly the
    // canonical rendering of the full object (the body keeps its
    // byte-for-byte form, which is what the checksum covers).
    let rendered = body.render();
    format!("{{\"v\":{PERSIST_VERSION},\"sum\":\"{}\",{}", render_fingerprint(sum), &rendered[1..])
}

/// Verifies a v3 line's `sum` field against the canonical re-rendering of
/// its body (every field except `v` and `sum`).
fn verify_checksum(v: &Value) -> Result<(), CodecError> {
    let declared = parse_fingerprint(v.field("sum")?.as_str()?)?;
    let Value::Obj(fields) = v else {
        return Err(CodecError::Decode("cache record is not an object".into()));
    };
    let body = Value::Obj(
        fields.iter().filter(|(k, _)| k != "v" && k != "sum").cloned().collect::<Vec<_>>(),
    );
    let actual = value_fingerprint(&body);
    if actual != declared {
        return Err(CodecError::Decode(format!(
            "cache-record checksum mismatch: line declares {}, body hashes to {} — the record is \
             corrupt",
            render_fingerprint(declared),
            render_fingerprint(actual)
        )));
    }
    Ok(())
}

/// Decodes one persisted cache line, accepting the current checksummed
/// format plus the two older ones (`"v":2` and the unversioned PR-4
/// format, neither checksummed). A v3 line whose checksum does not match
/// its body is rejected as corrupt. Unknown future versions are an error.
pub fn parse_persist_line(line: &str) -> Result<(u64, CachedPlan), CodecError> {
    let (fp, plan, _) = parse_persist_line_full(line)?;
    Ok((fp, plan))
}

/// Like [`parse_persist_line`] but also surfaces the record's optional
/// `"req"` field — the request triple that produced the plan, when the
/// writer embedded one. Lines from writers that never stored it (and all
/// legacy formats) return `None`.
pub fn parse_persist_line_full(line: &str) -> Result<(u64, CachedPlan, Option<Value>), CodecError> {
    let v = crate::json::parse(line)?;
    // Only v3 writers emit a checksum. A record that carries one but does
    // not identify as v3 — say a v3 line whose version byte was flipped to
    // "2", or whose "v" key itself was corrupted — must not be waved
    // through a checksum-less legacy path; the tag is as corruptible as
    // any other byte.
    let has_sum = v.get("sum").is_some();
    let downgraded = |version: &str| {
        Err(CodecError::Decode(format!(
            "cache record claims the {version} format but carries a v{PERSIST_VERSION} checksum \
             — corrupt version tag"
        )))
    };
    match v.get("v") {
        // Legacy PR-4 record: no version tag, no cost metadata.
        None if has_sum => return downgraded("unversioned"),
        None => {}
        Some(tag) => match tag.as_u64()? {
            PERSIST_VERSION => verify_checksum(&v)?,
            // PR-5 record: versioned, no checksum.
            PERSIST_VERSION_COMPAT if has_sum => return downgraded("v2"),
            PERSIST_VERSION_COMPAT => {}
            version => {
                return Err(CodecError::Decode(format!(
                    "unsupported cache-record version {version} (this build reads \
                     {PERSIST_VERSION}, {PERSIST_VERSION_COMPAT}, and the legacy unversioned \
                     format)"
                )));
            }
        },
    }
    let fp = parse_fingerprint(v.field("fp")?.as_str()?)?;
    let plan = CachedPlan::decode(v.field("plan")?)?;
    let req = v.get("req").cloned();
    Ok((fp, plan, req))
}
