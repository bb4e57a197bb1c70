//! The benchmark's own request generators and wire frames.
//!
//! Every request is a pure function of its family, index and the run's
//! seed, so a seed reproduces the exact inputs the daemon receives.

use hap::prelude::*;
use hap_cluster::ClusterDelta;
use hap_codec::{render_fingerprint, request_fingerprint, Encode, Value};
use hap_models::{mlp, transformer_layer, Benchmark, MlpConfig, TransformerConfig};
use hap_service::PlanReply;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A planning request and its pre-rendered wire frame.
pub struct Req {
    pub name: String,
    pub graph: Graph,
    pub cluster: ClusterSpec,
    pub options: HapOptions,
    /// The frame up to the `id` value, and everything after it.
    prefix: String,
    suffix: String,
}

impl Req {
    pub fn new(name: String, graph: Graph, cluster: ClusterSpec, options: HapOptions) -> Req {
        // Field order matches `hap_service::Client`: op, id, graph,
        // cluster, options.
        let prefix = "{\"op\":\"plan\",\"id\":".to_string();
        let tail = Value::obj(vec![
            ("graph", graph.encode()),
            ("cluster", cluster.encode()),
            ("options", options.encode()),
        ])
        .render();
        let suffix = format!(",{}", &tail[1..]);
        Req { name, graph, cluster, options, prefix, suffix }
    }

    /// The request line (with its trailing newline) under wire id `id`.
    pub fn frame(&self, id: u64) -> String {
        format!("{}{id}{}\n", self.prefix, self.suffix)
    }

    pub fn fingerprint(&self) -> u64 {
        request_fingerprint(&self.graph, &self.cluster, &self.options)
    }
}

/// A `replan` request line: `prior` loses the devices in `delta`.
pub fn replan_frame(id: u64, prior: u64, delta: &ClusterDelta) -> String {
    let v = Value::obj(vec![
        ("op", Value::Str("replan".into())),
        ("id", Value::int(id)),
        ("prior", Value::Str(render_fingerprint(prior))),
        ("delta", delta.encode()),
    ]);
    format!("{}\n", v.render())
}

/// Search options with a fixed expansion budget: the stall cutoff and the
/// wall-clock deadline are out of reach, so the search does the same work
/// on every run and host.
pub fn budgeted(max_expansions: usize) -> HapOptions {
    HapOptions {
        synth: SynthConfig {
            max_expansions,
            stall_expansions: 1 << 30,
            time_budget_secs: 600.0,
            ..SynthConfig::default()
        },
        ..HapOptions::default()
    }
}

/// Expansion budget of the hot set.
const HOT_EXPANSIONS: usize = 192;
/// Expansion budget of fresh misses.
const FRESH_EXPANSIONS: usize = 96;

fn hot_clusters() -> [(&'static str, ClusterSpec); 2] {
    [("fig17", ClusterSpec::fig17_cluster()), ("het8", ClusterSpec::paper_heterogeneous(1))]
}

/// The hot set: tiny variants of the paper's four models on the two
/// heterogeneous clusters (8 requests, frames ~9-11 KB).
pub fn hot_set() -> Vec<Req> {
    let mut out = Vec::new();
    for (cname, cluster) in hot_clusters() {
        for b in Benchmark::all() {
            out.push(Req::new(
                format!("hot/{}/{cname}", b.name()),
                b.build_tiny(cluster.total_gpus()),
                cluster.clone(),
                budgeted(HOT_EXPANSIONS),
            ));
        }
    }
    out
}

/// A device-loss delta valid for hot request `i`'s cluster: one GPU off a
/// fig17 machine, or one whole single-GPU machine off the 8-GPU cluster.
pub fn hot_delta(hot: &Req, variant: usize) -> ClusterDelta {
    if hot.cluster.machines.iter().all(|m| m.gpus >= 2) {
        ClusterDelta::device_loss(variant % hot.cluster.machines.len(), 1)
    } else {
        ClusterDelta {
            remove_machines: vec![variant % hot.cluster.machines.len()],
            ..ClusterDelta::default()
        }
    }
}

/// Fresh miss `i`: a small MLP or Transformer layer searched with a fixed
/// expansion budget (tens of ms). The index is folded into a shape, so no
/// two fresh requests of a run are equal.
pub fn fresh(seed: u64, i: usize) -> Req {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((i as u64) << 20) ^ 0x5eed_f00d);
    let cluster = ClusterSpec::fig17_cluster();
    let graph = if i.is_multiple_of(2) {
        mlp(&MlpConfig {
            batch: 64 + i,
            input: 16 + 8 * rng.random_range(0..8usize),
            hidden: vec![32 + 16 * rng.random_range(0..4usize), 48],
            classes: 10,
        })
    } else {
        transformer_layer(&TransformerConfig {
            batch: 2 + rng.random_range(0..4usize),
            seq: 4 + i,
            hidden: 16,
            heads: 8,
            ffn: 32 + 16 * rng.random_range(0..3usize),
        })
    };
    Req::new(format!("fresh/{i}"), graph, cluster, budgeted(FRESH_EXPANSIONS))
}

/// One-off `i`: a deep element-wise forward chain planned greedily (zero
/// time budget). A few ms to synthesize, bulky to cache, never repeated.
pub fn one_off(seed: u64, i: usize) -> Req {
    let mut g = GraphBuilder::new();
    let width = 8 + (seed as usize + i) % 5;
    let mut cur = g.placeholder("x", vec![64 + i, width]);
    for layer in 0..48 + (i % 7) * 4 {
        cur = match layer % 3 {
            0 => g.relu(cur),
            1 => g.layer_norm(cur),
            _ => g.add(cur, cur),
        };
    }
    let _loss = g.sum_all(cur);
    let options = HapOptions {
        synth: SynthConfig { time_budget_secs: 0.0, ..SynthConfig::default() },
        ..HapOptions::default()
    };
    Req::new(format!("one-off/{i}"), g.build_forward(), ClusterSpec::fig17_cluster(), options)
}

/// Bit identity of a plan reply (program fingerprint, estimate bits,
/// ratio bits).
pub use hap_service::testing::ReplyBits;

/// Decodes one plan/replan response line and checks it against the
/// request it answers: `ok`, the expected id, a well-formed plan.
pub fn check_reply(line: &str, expected_id: u64) -> Result<(String, u64, ReplyBits), String> {
    let v = hap_codec::parse(line.trim_end()).map_err(|e| format!("unparseable reply: {e}"))?;
    let ok = v.field("ok").and_then(|x| x.as_bool()).map_err(|e| e.to_string())?;
    if !ok {
        let kind =
            v.get("error").and_then(|e| e.get("kind")).and_then(|k| k.as_str().ok()).unwrap_or("?");
        return Err(format!("error reply ({kind})"));
    }
    let id = v.field("id").and_then(|x| x.as_u64()).map_err(|e| e.to_string())?;
    if id != expected_id {
        return Err(format!("reply id {id}, expected {expected_id}"));
    }
    let reply = decode_plan(&v)?;
    Ok((reply.source.clone(), reply.fingerprint, ReplyBits::of(&reply)))
}

/// The error kind of a failed reply line, if it is one.
pub fn error_kind(line: &str) -> Option<String> {
    let v = hap_codec::parse(line.trim_end()).ok()?;
    if v.field("ok").and_then(|x| x.as_bool()).ok()? {
        return None;
    }
    Some(v.get("error")?.get("kind")?.as_str().ok()?.to_string())
}

/// Decodes the plan fields of a response the way `hap_service::Client`
/// does.
pub fn decode_plan(v: &Value) -> Result<PlanReply, String> {
    use hap_codec::Decode;
    let e = |e: hap_codec::CodecError| e.to_string();
    let fingerprint =
        hap_codec::parse_fingerprint(v.field("fingerprint").and_then(|x| x.as_str()).map_err(e)?)
            .map_err(e)?;
    let source = v.field("source").and_then(|x| x.as_str()).map_err(e)?.to_string();
    let plan = v.field("plan").map_err(e)?;
    Ok(PlanReply {
        fingerprint,
        source,
        program: hap_synthesis::DistProgram::decode(plan.field("program").map_err(e)?)
            .map_err(e)?,
        ratios: hap_synthesis::ShardingRatios::decode(plan.field("ratios").map_err(e)?)
            .map_err(e)?,
        estimated_time: plan.field("estimated_time").and_then(|x| x.as_f64()).map_err(e)?,
        rounds: plan.field("rounds").and_then(|x| x.as_usize()).map_err(e)?,
    })
}

/// Bit identity of an in-process plan, comparable with [`ReplyBits`].
pub fn plan_bits(plan: &hap::Plan) -> ReplyBits {
    ReplyBits {
        program_fp: plan.program.fingerprint(),
        time_bits: plan.estimated_time.to_bits(),
        ratio_bits: plan.ratios.iter().map(|r| r.iter().map(|b| b.to_bits()).collect()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_match_the_shipped_client_encoding() {
        let r = &hot_set()[0];
        let frame = r.frame(7);
        let v = hap_codec::parse(frame.trim_end()).unwrap();
        assert_eq!(v.field("id").unwrap().as_u64().unwrap(), 7);
        let fp = hap_codec::request_fingerprint_values(
            v.field("graph").unwrap(),
            v.field("cluster").unwrap(),
            v.field("options").unwrap(),
        );
        assert_eq!(fp, r.fingerprint());
    }

    #[test]
    fn generators_are_seeded_and_distinct() {
        assert_eq!(fresh(3, 5).frame(1), fresh(3, 5).frame(1));
        assert_ne!(fresh(3, 5).fingerprint(), fresh(4, 5).fingerprint());
        let fps: std::collections::HashSet<u64> = (0..64)
            .map(|i| fresh(9, i).fingerprint())
            .chain((0..64).map(|i| one_off(9, i).fingerprint()))
            .collect();
        assert_eq!(fps.len(), 128);
        for h in hot_set() {
            for v in 0..2 {
                assert!(hot_delta(&h, v).apply(&h.cluster).is_ok(), "{}", h.name);
            }
        }
    }

    #[test]
    fn a_corrupted_reply_fails_the_check() {
        let service = hap_service::PlanService::new(hap_service::ServiceConfig::default()).unwrap();
        let req = fresh(1, 0);
        let (line, _) = service.handle_line(req.frame(42).trim_end());
        service.stop();
        let (source, _, bits) = check_reply(&line, 42).unwrap();
        assert_eq!(source, "synthesized");
        // Wrong id, truncation, a flipped digit in the plan, an error frame.
        assert!(check_reply(&line, 43).is_err());
        assert!(check_reply(&line[..line.len() / 2], 42).is_err());
        let pos = line.find("\"estimated_time\":").unwrap() + 18;
        let mut bytes = line.clone().into_bytes();
        bytes[pos] = if bytes[pos] == b'1' { b'2' } else { b'1' };
        let flipped = String::from_utf8(bytes).unwrap();
        match check_reply(&flipped, 42) {
            Err(_) => {}
            Ok((_, _, b)) => assert_ne!(b, bits, "a flipped estimate must change the bits"),
        }
        assert!(check_reply(
            "{\"id\":42,\"ok\":false,\"error\":{\"kind\":\"busy\",\"message\":\"x\"}}",
            42
        )
        .is_err());
        assert_eq!(
            error_kind("{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"busy\",\"message\":\"x\"}}")
                .as_deref(),
            Some("busy")
        );
    }
}
