//! Canonical wire encodings for HAP's domain types, plus the content
//! fingerprints derived from them.
//!
//! Every [`Encode`] impl fixes its field order, so the rendered text of an
//! encoded value is a *canonical* byte string: encoding the same value
//! twice — or decoding and re-encoding it — produces identical bytes.
//! Content fingerprints ([`value_fingerprint`], [`request_fingerprint`])
//! are FNV-1a digests of those bytes, using the exact hash primitive the
//! synthesizer's program fingerprints use
//! ([`hap_synthesis::fingerprint`]), so one stable-hash discipline covers
//! the whole system.
//!
//! Decoding *validates*: graphs are rebuilt through
//! [`hap_graph::Graph::add`], which re-runs shape inference, and the
//! decoded shape must match the encoded one — a corrupted or hand-forged
//! graph fails to decode instead of producing an inconsistent IR.

use std::sync::Mutex;

use hap::{HapError, HapOptions};
use hap_cluster::{ClusterDelta, ClusterSpec, DeltaError, DeviceType, Granularity, Machine};
use hap_graph::{Graph, Op, Placement, Role, Rule, UnaryKind};
use hap_synthesis::fingerprint::{fnv1a_bytes, FNV_OFFSET};
use hap_synthesis::{CollectiveInstr, DistInstr, DistProgram, SynthConfig, SynthError};

use crate::json::{CodecError, Value};

/// Types that encode themselves into a canonical [`Value`].
pub trait Encode {
    /// The canonical document for this value.
    fn encode(&self) -> Value;
}

/// Types that decode from a [`Value`].
pub trait Decode: Sized {
    /// Rebuilds the value, validating shape as it goes.
    fn decode(v: &Value) -> Result<Self, CodecError>;
}

/// A [`std::fmt::Write`] sink that FNV-1a-hashes the bytes written to it
/// instead of keeping them: fingerprints digest a value's canonical
/// rendering without building the text.
struct FnvSink(u64);

impl std::fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a_bytes(self.0, s.as_bytes());
        Ok(())
    }
}

impl FnvSink {
    fn value(&mut self, v: &Value) {
        v.render_into(self).expect("hashing cannot fail");
    }
}

/// FNV-1a digest of a value's canonical rendering.
pub fn value_fingerprint(v: &Value) -> u64 {
    let mut h = FnvSink(FNV_OFFSET);
    h.value(v);
    h.0
}

/// The content-addressed cache key of a planning request: a digest of the
/// canonical encodings of `(graph, cluster, options)`.
///
/// Synthesized plans are pure functions of this triple (the synthesizer's
/// determinism guarantees), so two requests with equal fingerprints are
/// entitled to the same plan — the plan service's cache correctness rests
/// on exactly this. (The one caveat is inherited from warm starting, the
/// library's included: a warm-seeded search may return its seed when the
/// seed ties the cold optimum within the search epsilon, so equal-cost
/// ties are the only place histories can differ.)
pub fn request_fingerprint(graph: &Graph, cluster: &ClusterSpec, opts: &HapOptions) -> u64 {
    request_fingerprint_values(&graph.encode(), &cluster.encode(), &opts.encode())
}

///[`request_fingerprint`] over already-encoded values (the service computes
/// fingerprints straight from parsed request frames, without rebuilding the
/// domain objects on the cache-hit path). The digest covers the three
/// canonical renderings joined by `|`, hashed as they are written.
pub fn request_fingerprint_values(graph: &Value, cluster: &Value, opts: &Value) -> u64 {
    let mut h = FnvSink(FNV_OFFSET);
    for (i, v) in [graph, cluster, opts].into_iter().enumerate() {
        if i > 0 {
            h.0 = fnv1a_bytes(h.0, b"|");
        }
        h.value(v);
    }
    h.0
}

/// Renders a fingerprint in the wire's `0x`-prefixed hex form (`u64` does
/// not survive a JSON number, which is an `f64`).
pub fn render_fingerprint(fp: u64) -> String {
    format!("0x{fp:016x}")
}

/// Parses a `0x`-prefixed hex fingerprint.
pub fn parse_fingerprint(s: &str) -> Result<u64, CodecError> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| CodecError::Decode(format!("fingerprint `{s}` missing 0x prefix")))?;
    u64::from_str_radix(hex, 16).map_err(|_| CodecError::Decode(format!("bad fingerprint `{s}`")))
}

// ---------------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------------

impl Encode for f64 {
    fn encode(&self) -> Value {
        Value::Num(*self)
    }
}

impl Decode for f64 {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        v.as_f64()
    }
}

impl Encode for usize {
    fn encode(&self) -> Value {
        Value::int(*self as u64)
    }
}

impl Decode for usize {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        v.as_usize()
    }
}

impl Encode for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Decode for bool {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        v.as_bool()
    }
}

impl Encode for String {
    fn encode(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Decode for String {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        Ok(v.as_str()?.to_string())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self) -> Value {
        Value::Arr(self.iter().map(Encode::encode).collect())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        v.as_arr()?.iter().map(T::decode).collect()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self) -> Value {
        match self {
            None => Value::Null,
            Some(inner) => inner.encode(),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::decode(other)?)),
        }
    }
}

// ---------------------------------------------------------------------------
// Placements, rules, roles
// ---------------------------------------------------------------------------

impl Encode for Placement {
    fn encode(&self) -> Value {
        match self {
            Placement::Replicated => Value::Str("R".into()),
            Placement::PartialSum => Value::Str("P".into()),
            Placement::Shard(d) => Value::Arr(vec![Value::Str("S".into()), Value::int(*d as u64)]),
        }
    }
}

impl Decode for Placement {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        match v {
            Value::Str(s) if s == "R" => Ok(Placement::Replicated),
            Value::Str(s) if s == "P" => Ok(Placement::PartialSum),
            Value::Arr(items) if items.len() == 2 && items[0].as_str().ok() == Some("S") => {
                Ok(Placement::Shard(items[1].as_usize()?))
            }
            other => Err(CodecError::Decode(format!("bad placement {}", other.render()))),
        }
    }
}

impl Encode for Rule {
    fn encode(&self) -> Value {
        Value::Arr(vec![self.inputs.encode(), self.output.encode()])
    }
}

impl Decode for Rule {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let items = v.as_arr()?;
        if items.len() != 2 {
            return Err(CodecError::Decode("rule needs [inputs, output]".into()));
        }
        Ok(Rule::new(Vec::<Placement>::decode(&items[0])?, Placement::decode(&items[1])?))
    }
}

impl Encode for Role {
    fn encode(&self) -> Value {
        Value::Str(
            match self {
                Role::Input => "input",
                Role::Label => "label",
                Role::Param => "param",
                Role::Const => "const",
                Role::Activation => "act",
                Role::Grad => "grad",
                Role::Updated => "updated",
                Role::Loss => "loss",
            }
            .into(),
        )
    }
}

impl Decode for Role {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        match v.as_str()? {
            "input" => Ok(Role::Input),
            "label" => Ok(Role::Label),
            "param" => Ok(Role::Param),
            "const" => Ok(Role::Const),
            "act" => Ok(Role::Activation),
            "grad" => Ok(Role::Grad),
            "updated" => Ok(Role::Updated),
            "loss" => Ok(Role::Loss),
            other => Err(CodecError::Decode(format!("unknown role `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

impl Encode for UnaryKind {
    fn encode(&self) -> Value {
        Value::Str(self.name().into())
    }
}

impl Decode for UnaryKind {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        match v.as_str()? {
            "relu" => Ok(UnaryKind::Relu),
            "gelu" => Ok(UnaryKind::Gelu),
            "sigmoid" => Ok(UnaryKind::Sigmoid),
            "tanh" => Ok(UnaryKind::Tanh),
            other => Err(CodecError::Decode(format!("unknown unary kind `{other}`"))),
        }
    }
}

/// Tag + fields array — compact and order-deterministic.
fn op_tagged(tag: &str, fields: Vec<Value>) -> Value {
    let mut items = vec![Value::Str(tag.into())];
    items.extend(fields);
    Value::Arr(items)
}

impl Encode for Op {
    fn encode(&self) -> Value {
        match self {
            Op::Placeholder => op_tagged("ph", vec![]),
            Op::Label => op_tagged("lb", vec![]),
            Op::Parameter => op_tagged("pm", vec![]),
            Op::Ones => op_tagged("ones", vec![]),
            Op::MatMul2 { ta, tb } => op_tagged("mm", vec![ta.encode(), tb.encode()]),
            Op::Linear => op_tagged("lin", vec![]),
            Op::LinearGradX => op_tagged("lin_gx", vec![]),
            Op::LinearGradW => op_tagged("lin_gw", vec![]),
            Op::Bmm { ta, tb } => op_tagged("bmm", vec![ta.encode(), tb.encode()]),
            Op::Add => op_tagged("add", vec![]),
            Op::BiasAdd => op_tagged("bias", vec![]),
            Op::ReduceLeading => op_tagged("red_lead", vec![]),
            Op::Scale { factor } => op_tagged("scale", vec![Value::Num(f64::from(*factor))]),
            Op::Unary { kind } => op_tagged("un", vec![kind.encode()]),
            Op::UnaryGrad { kind } => op_tagged("un_g", vec![kind.encode()]),
            Op::Softmax => op_tagged("sm", vec![]),
            Op::SoftmaxGrad => op_tagged("sm_g", vec![]),
            Op::LayerNorm => op_tagged("ln", vec![]),
            Op::LayerNormGrad => op_tagged("ln_g", vec![]),
            Op::Attention { heads } => op_tagged("attn", vec![heads.encode()]),
            Op::AttentionGrad { heads, which } => {
                op_tagged("attn_g", vec![heads.encode(), which.encode()])
            }
            Op::Conv2d { stride, pad } => op_tagged("conv", vec![stride.encode(), pad.encode()]),
            Op::Conv2dGradX { stride, pad } => {
                op_tagged("conv_gx", vec![stride.encode(), pad.encode()])
            }
            Op::Conv2dGradW { stride, pad } => {
                op_tagged("conv_gw", vec![stride.encode(), pad.encode()])
            }
            Op::MaxPool2 { k } => op_tagged("pool", vec![k.encode()]),
            Op::MaxPoolGrad { k } => op_tagged("pool_g", vec![k.encode()]),
            Op::Flatten => op_tagged("flat", vec![]),
            Op::Unflatten { dims } => op_tagged("unflat", vec![dims.encode()]),
            Op::Embedding => op_tagged("emb", vec![]),
            Op::EmbeddingGrad { vocab } => op_tagged("emb_g", vec![vocab.encode()]),
            Op::CrossEntropy => op_tagged("ce", vec![]),
            Op::CrossEntropyGrad => op_tagged("ce_g", vec![]),
            Op::SumAll => op_tagged("sum", vec![]),
            Op::Dispatch { experts, capacity } => {
                op_tagged("disp", vec![experts.encode(), capacity.encode()])
            }
            Op::DispatchGrad => op_tagged("disp_g", vec![]),
            Op::Combine => op_tagged("comb", vec![]),
            Op::CombineGrad { experts, capacity } => {
                op_tagged("comb_g", vec![experts.encode(), capacity.encode()])
            }
            Op::UpdateParam { lr } => op_tagged("upd", vec![Value::Num(f64::from(*lr))]),
        }
    }
}

impl Decode for Op {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let items = v.as_arr()?;
        let tag = items.first().ok_or_else(|| CodecError::Decode("empty op".into()))?.as_str()?;
        let arity_err = || CodecError::Decode(format!("wrong field count for op `{tag}`"));
        let field = |i: usize| items.get(i).ok_or_else(arity_err);
        let expect = |n: usize| if items.len() == n + 1 { Ok(()) } else { Err(arity_err()) };
        let f32_field = |i: usize| -> Result<f32, CodecError> {
            let wide = field(i)?.as_f64()?;
            let narrow = wide as f32;
            // f32 values encode exactly as f64; anything else was not
            // produced by this codec.
            if f64::from(narrow).to_bits() != wide.to_bits() {
                return Err(CodecError::Decode(format!("`{tag}` factor {wide} is not an f32")));
            }
            Ok(narrow)
        };
        let op = match tag {
            "ph" => Op::Placeholder,
            "lb" => Op::Label,
            "pm" => Op::Parameter,
            "ones" => Op::Ones,
            "mm" => {
                expect(2)?;
                Op::MatMul2 { ta: field(1)?.as_bool()?, tb: field(2)?.as_bool()? }
            }
            "lin" => Op::Linear,
            "lin_gx" => Op::LinearGradX,
            "lin_gw" => Op::LinearGradW,
            "bmm" => {
                expect(2)?;
                Op::Bmm { ta: field(1)?.as_bool()?, tb: field(2)?.as_bool()? }
            }
            "add" => Op::Add,
            "bias" => Op::BiasAdd,
            "red_lead" => Op::ReduceLeading,
            "scale" => {
                expect(1)?;
                Op::Scale { factor: f32_field(1)? }
            }
            "un" => {
                expect(1)?;
                Op::Unary { kind: UnaryKind::decode(field(1)?)? }
            }
            "un_g" => {
                expect(1)?;
                Op::UnaryGrad { kind: UnaryKind::decode(field(1)?)? }
            }
            "sm" => Op::Softmax,
            "sm_g" => Op::SoftmaxGrad,
            "ln" => Op::LayerNorm,
            "ln_g" => Op::LayerNormGrad,
            "attn" => {
                expect(1)?;
                Op::Attention { heads: field(1)?.as_usize()? }
            }
            "attn_g" => {
                expect(2)?;
                Op::AttentionGrad { heads: field(1)?.as_usize()?, which: field(2)?.as_usize()? }
            }
            "conv" => {
                expect(2)?;
                Op::Conv2d { stride: field(1)?.as_usize()?, pad: field(2)?.as_usize()? }
            }
            "conv_gx" => {
                expect(2)?;
                Op::Conv2dGradX { stride: field(1)?.as_usize()?, pad: field(2)?.as_usize()? }
            }
            "conv_gw" => {
                expect(2)?;
                Op::Conv2dGradW { stride: field(1)?.as_usize()?, pad: field(2)?.as_usize()? }
            }
            "pool" => {
                expect(1)?;
                Op::MaxPool2 { k: field(1)?.as_usize()? }
            }
            "pool_g" => {
                expect(1)?;
                Op::MaxPoolGrad { k: field(1)?.as_usize()? }
            }
            "flat" => Op::Flatten,
            "unflat" => {
                expect(1)?;
                Op::Unflatten { dims: Vec::<usize>::decode(field(1)?)? }
            }
            "emb" => Op::Embedding,
            "emb_g" => {
                expect(1)?;
                Op::EmbeddingGrad { vocab: field(1)?.as_usize()? }
            }
            "ce" => Op::CrossEntropy,
            "ce_g" => Op::CrossEntropyGrad,
            "sum" => Op::SumAll,
            "disp" => {
                expect(2)?;
                Op::Dispatch { experts: field(1)?.as_usize()?, capacity: field(2)?.as_usize()? }
            }
            "disp_g" => Op::DispatchGrad,
            "comb" => Op::Combine,
            "comb_g" => {
                expect(2)?;
                Op::CombineGrad { experts: field(1)?.as_usize()?, capacity: field(2)?.as_usize()? }
            }
            "upd" => {
                expect(1)?;
                Op::UpdateParam { lr: f32_field(1)? }
            }
            other => return Err(CodecError::Decode(format!("unknown op tag `{other}`"))),
        };
        // Field-free ops must really be field-free.
        if matches!(
            tag,
            "ph" | "lb"
                | "pm"
                | "ones"
                | "lin"
                | "lin_gx"
                | "lin_gw"
                | "add"
                | "bias"
                | "red_lead"
                | "sm"
                | "sm_g"
                | "ln"
                | "ln_g"
                | "flat"
                | "emb"
                | "ce"
                | "ce_g"
                | "sum"
                | "disp_g"
                | "comb"
        ) {
            expect(0)?;
        }
        Ok(op)
    }
}

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

impl Encode for Graph {
    fn encode(&self) -> Value {
        let nodes: Vec<Value> = self
            .nodes()
            .iter()
            .map(|n| {
                Value::obj(vec![
                    ("op", n.op.encode()),
                    ("in", n.inputs.encode()),
                    ("shape", n.shape.dims().to_vec().encode()),
                    ("name", n.name.encode()),
                    ("role", n.role.encode()),
                    ("seg", n.segment.encode()),
                ])
            })
            .collect();
        Value::obj(vec![("nodes", Value::Arr(nodes))])
    }
}

impl Decode for Graph {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let nodes = v.field("nodes")?.as_arr()?;
        let mut graph = Graph::new();
        for (i, node) in nodes.iter().enumerate() {
            let op = Op::decode(node.field("op")?)?;
            let inputs = Vec::<usize>::decode(node.field("in")?)?;
            let dims = Vec::<usize>::decode(node.field("shape")?)?;
            let name = String::decode(node.field("name")?)?;
            let role = Role::decode(node.field("role")?)?;
            let segment = node.field("seg")?.as_usize()?;
            let id = if op.is_leaf() {
                if !inputs.is_empty() {
                    return Err(CodecError::Decode(format!("leaf node {i} has inputs")));
                }
                graph.add_leaf(op, dims, name, role)
            } else {
                let id = graph
                    .add(op, inputs, name, role)
                    .map_err(|e| CodecError::Decode(format!("node {i}: {e}")))?;
                // Shape inference re-ran during `add`; the encoded shape is
                // a checksum of the sender's graph.
                if graph.node(id).shape.dims() != dims.as_slice() {
                    return Err(CodecError::Decode(format!(
                        "node {i}: inferred shape {:?} != encoded shape {dims:?}",
                        graph.node(id).shape.dims()
                    )));
                }
                id
            };
            if id != i {
                return Err(CodecError::Decode(format!("node {i} decoded with id {id}")));
            }
            graph.set_segment(id, segment);
        }
        Ok(graph)
    }
}

// ---------------------------------------------------------------------------
// Clusters
// ---------------------------------------------------------------------------

/// Distinct non-canonical device names the interner will ever hold.
///
/// The table leaks its entries (that is what makes them `'static`), and
/// the decoder runs on untrusted socket input, so an unbounded table would
/// hand remote clients a memory leak one unique name at a time. Real
/// deployments see a handful of device models; past the cap, decode fails.
const MAX_INTERNED_DEVICE_NAMES: usize = 64;

/// Interns device-type names decoded from the wire.
///
/// `DeviceType::name` is a `&'static str`; the known models map back to
/// their canonical constants, and genuinely novel names (a client
/// describing hardware this build has no constructor for) are leaked once
/// and reused for every later decode, up to
/// [`MAX_INTERNED_DEVICE_NAMES`] distinct names.
fn intern_device_name(name: &str) -> Result<&'static str, CodecError> {
    match name {
        "P100" => return Ok(DeviceType::p100().name),
        "V100" => return Ok(DeviceType::v100().name),
        "A100" => return Ok(DeviceType::a100().name),
        "T4" => return Ok(DeviceType::t4().name),
        _ => {}
    }
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = INTERNED.lock().expect("device-name interner poisoned");
    if let Some(found) = table.iter().find(|s| **s == name) {
        return Ok(found);
    }
    if table.len() >= MAX_INTERNED_DEVICE_NAMES {
        return Err(CodecError::Decode(format!(
            "too many distinct device names (limit {MAX_INTERNED_DEVICE_NAMES}); \
             cannot intern `{name}`"
        )));
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.push(leaked);
    Ok(leaked)
}

impl Encode for DeviceType {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("name", Value::Str(self.name.into())),
            ("peak_flops", Value::Num(self.peak_flops)),
            ("memory_bytes", Value::int(self.memory_bytes)),
            ("utilization", Value::Num(self.utilization)),
        ])
    }
}

impl Decode for DeviceType {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        Ok(DeviceType {
            name: intern_device_name(v.field("name")?.as_str()?)?,
            peak_flops: v.field("peak_flops")?.as_f64()?,
            memory_bytes: v.field("memory_bytes")?.as_u64()?,
            utilization: v.field("utilization")?.as_f64()?,
        })
    }
}

impl Encode for Machine {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("device", self.device.encode()),
            ("gpus", self.gpus.encode()),
            ("intra_bandwidth", Value::Num(self.intra_bandwidth)),
            ("intra_latency", Value::Num(self.intra_latency)),
        ])
    }
}

impl Decode for Machine {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        Ok(Machine {
            device: DeviceType::decode(v.field("device")?)?,
            gpus: v.field("gpus")?.as_usize()?,
            intra_bandwidth: v.field("intra_bandwidth")?.as_f64()?,
            intra_latency: v.field("intra_latency")?.as_f64()?,
        })
    }
}

impl Encode for ClusterSpec {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("machines", self.machines.encode()),
            ("inter_bandwidth", Value::Num(self.inter_bandwidth)),
            ("inter_latency", Value::Num(self.inter_latency)),
        ])
    }
}

impl Decode for ClusterSpec {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        Ok(ClusterSpec {
            machines: Vec::<Machine>::decode(v.field("machines")?)?,
            inter_bandwidth: v.field("inter_bandwidth")?.as_f64()?,
            inter_latency: v.field("inter_latency")?.as_f64()?,
        })
    }
}

impl Encode for ClusterDelta {
    fn encode(&self) -> Value {
        Value::obj(vec![
            (
                "remove_gpus",
                Value::Arr(
                    self.remove_gpus
                        .iter()
                        .map(|&(m, g)| Value::Arr(vec![m.encode(), g.encode()]))
                        .collect(),
                ),
            ),
            ("remove_machines", self.remove_machines.encode()),
            ("add_machines", self.add_machines.encode()),
            ("inter_bandwidth", self.inter_bandwidth.encode()),
            ("inter_latency", self.inter_latency.encode()),
        ])
    }
}

impl Decode for ClusterDelta {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let remove_gpus = v
            .field("remove_gpus")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let items = pair.as_arr()?;
                if items.len() != 2 {
                    return Err(CodecError::Decode(
                        "remove_gpus entry needs [machine, gpus]".into(),
                    ));
                }
                Ok((items[0].as_usize()?, items[1].as_usize()?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ClusterDelta {
            remove_gpus,
            remove_machines: Vec::<usize>::decode(v.field("remove_machines")?)?,
            add_machines: Vec::<Machine>::decode(v.field("add_machines")?)?,
            inter_bandwidth: Option::<f64>::decode(v.field("inter_bandwidth")?)?,
            inter_latency: Option::<f64>::decode(v.field("inter_latency")?)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

impl Encode for Granularity {
    fn encode(&self) -> Value {
        Value::Str(
            match self {
                Granularity::PerGpu => "per_gpu",
                Granularity::PerMachine => "per_machine",
            }
            .into(),
        )
    }
}

impl Decode for Granularity {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        match v.as_str()? {
            "per_gpu" => Ok(Granularity::PerGpu),
            "per_machine" => Ok(Granularity::PerMachine),
            other => Err(CodecError::Decode(format!("unknown granularity `{other}`"))),
        }
    }
}

impl Encode for SynthConfig {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("max_expansions", self.max_expansions.encode()),
            ("beam_width", self.beam_width.encode()),
            ("time_budget_secs", Value::Num(self.time_budget_secs)),
            ("stall_expansions", self.stall_expansions.encode()),
            ("grouped_broadcast", self.grouped_broadcast.encode()),
            ("sfb", self.sfb.encode()),
            ("threads", self.threads.encode()),
        ])
    }
}

impl Decode for SynthConfig {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        Ok(SynthConfig {
            max_expansions: v.field("max_expansions")?.as_usize()?,
            beam_width: Option::<usize>::decode(v.field("beam_width")?)?,
            time_budget_secs: v.field("time_budget_secs")?.as_f64()?,
            stall_expansions: v.field("stall_expansions")?.as_usize()?,
            grouped_broadcast: v.field("grouped_broadcast")?.as_bool()?,
            sfb: v.field("sfb")?.as_bool()?,
            threads: v.field("threads")?.as_usize()?,
        })
    }
}

impl Encode for HapOptions {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("granularity", self.granularity.encode()),
            ("max_rounds", self.max_rounds.encode()),
            ("synth", self.synth.encode()),
            ("auto_segments", self.auto_segments.encode()),
            ("balance", self.balance.encode()),
            ("warm_start", self.warm_start.encode()),
        ])
    }
}

impl Decode for HapOptions {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        Ok(HapOptions {
            granularity: Granularity::decode(v.field("granularity")?)?,
            max_rounds: v.field("max_rounds")?.as_usize()?,
            synth: SynthConfig::decode(v.field("synth")?)?,
            auto_segments: Option::<usize>::decode(v.field("auto_segments")?)?,
            balance: v.field("balance")?.as_bool()?,
            warm_start: v.field("warm_start")?.as_bool()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

impl Encode for CollectiveInstr {
    fn encode(&self) -> Value {
        match self {
            CollectiveInstr::AllReduce => op_tagged("ar", vec![]),
            CollectiveInstr::AllGather { dim, grouped } => {
                op_tagged("ag", vec![dim.encode(), grouped.encode()])
            }
            CollectiveInstr::ReduceScatter { dim } => op_tagged("rs", vec![dim.encode()]),
            CollectiveInstr::AllToAll { from, to } => {
                op_tagged("a2a", vec![from.encode(), to.encode()])
            }
        }
    }
}

impl Decode for CollectiveInstr {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let items = v.as_arr()?;
        let tag =
            items.first().ok_or_else(|| CodecError::Decode("empty collective".into()))?.as_str()?;
        match (tag, items.len()) {
            ("ar", 1) => Ok(CollectiveInstr::AllReduce),
            ("ag", 3) => Ok(CollectiveInstr::AllGather {
                dim: items[1].as_usize()?,
                grouped: items[2].as_bool()?,
            }),
            ("rs", 2) => Ok(CollectiveInstr::ReduceScatter { dim: items[1].as_usize()? }),
            ("a2a", 3) => Ok(CollectiveInstr::AllToAll {
                from: items[1].as_usize()?,
                to: items[2].as_usize()?,
            }),
            _ => Err(CodecError::Decode(format!("bad collective {}", v.render()))),
        }
    }
}

impl Encode for DistInstr {
    fn encode(&self) -> Value {
        match self {
            DistInstr::Leaf { node, placement } => {
                op_tagged("leaf", vec![node.encode(), placement.encode()])
            }
            DistInstr::Compute { node, rule } => {
                op_tagged("comp", vec![node.encode(), rule.encode()])
            }
            DistInstr::Collective { node, kind } => {
                op_tagged("coll", vec![node.encode(), kind.encode()])
            }
        }
    }
}

impl Decode for DistInstr {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let items = v.as_arr()?;
        if items.len() != 3 {
            return Err(CodecError::Decode("instruction needs [tag, node, payload]".into()));
        }
        let node = items[1].as_usize()?;
        match items[0].as_str()? {
            "leaf" => Ok(DistInstr::Leaf { node, placement: Placement::decode(&items[2])? }),
            "comp" => Ok(DistInstr::Compute { node, rule: Rule::decode(&items[2])? }),
            "coll" => Ok(DistInstr::Collective { node, kind: CollectiveInstr::decode(&items[2])? }),
            other => Err(CodecError::Decode(format!("unknown instruction tag `{other}`"))),
        }
    }
}

impl Encode for DistProgram {
    fn encode(&self) -> Value {
        Value::obj(vec![
            ("instrs", self.instrs.encode()),
            ("estimated_time", Value::Num(self.estimated_time)),
        ])
    }
}

impl Decode for DistProgram {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        Ok(DistProgram {
            instrs: Vec::<DistInstr>::decode(v.field("instrs")?)?,
            estimated_time: v.field("estimated_time")?.as_f64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Error frames
// ---------------------------------------------------------------------------

/// A transportable error: the wire form every public error enum flattens
/// into. `kind` is a stable machine-readable tag; `message` is the source
/// error's `Display` output.
#[derive(Clone, Debug, PartialEq)]
pub struct WireError {
    /// Stable error-category tag (`synth`, `balance`, `exec`, `codec`,
    /// `busy`, ...).
    pub kind: String,
    /// Human-readable description (the source error's `Display`).
    pub message: String,
    /// Overload hint: how long the client should wait before retrying.
    /// Only `busy` frames carry it; absent on every other kind (and on
    /// frames produced by pre-`busy` daemons, which decode fine).
    pub retry_after_ms: Option<u64>,
    /// Redirect target: the address of the daemon that owns the request's
    /// fingerprint on the cluster ring. Only `not_owner` frames carry it.
    pub owner: Option<String>,
    /// The responding daemon's current ring-membership epoch. Only
    /// `not_owner` frames carry it; a client holding a smaller epoch should
    /// refresh its ring table before retrying.
    pub ring_epoch: Option<u64>,
}

/// The stable kind tag of an overload (load-shedding) frame.
pub const BUSY_KIND: &str = "busy";

/// The stable kind tag of a cluster-routing redirect: the responding daemon
/// does not own the request's fingerprint range and the client's ring table
/// is stale. The frame names the current `owner` address and the daemon's
/// `ring_epoch`; clients refresh their ring table and resend to the owner.
/// The request was never executed, so an identical retry at the owner is
/// safe.
pub const NOT_OWNER_KIND: &str = "not_owner";

impl WireError {
    /// Builds a frame from any kind tag and message.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        WireError {
            kind: kind.into(),
            message: message.into(),
            retry_after_ms: None,
            owner: None,
            ring_epoch: None,
        }
    }

    /// Builds an overload frame: the daemon's synthesis queue is full and
    /// the client should retry after roughly `retry_after_ms`.
    pub fn busy(retry_after_ms: u64, queue_depth: usize) -> Self {
        WireError {
            kind: BUSY_KIND.into(),
            message: format!("synthesis queue full ({queue_depth} jobs queued); retry later"),
            retry_after_ms: Some(retry_after_ms),
            owner: None,
            ring_epoch: None,
        }
    }

    /// Builds a cluster-routing redirect: the request's fingerprint belongs
    /// to `owner` under the responding daemon's ring at `ring_epoch`.
    pub fn not_owner(owner: impl Into<String>, ring_epoch: u64) -> Self {
        let owner = owner.into();
        WireError {
            kind: NOT_OWNER_KIND.into(),
            message: format!("fingerprint is owned by {owner} at ring epoch {ring_epoch}"),
            retry_after_ms: None,
            owner: Some(owner),
            ring_epoch: Some(ring_epoch),
        }
    }

    /// True when this frame sheds load (the request was never executed and
    /// an identical retry can succeed).
    pub fn is_busy(&self) -> bool {
        self.kind == BUSY_KIND
    }

    /// True when this frame redirects to the fingerprint's ring owner.
    pub fn is_not_owner(&self) -> bool {
        self.kind == NOT_OWNER_KIND
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms} ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

impl From<&HapError> for WireError {
    fn from(e: &HapError) -> Self {
        let kind = match e {
            HapError::Synth(_) => "synth",
            HapError::Balance(_) => "balance",
        };
        WireError::new(kind, e.to_string())
    }
}

impl From<&SynthError> for WireError {
    fn from(e: &SynthError) -> Self {
        WireError::new("synth", e.to_string())
    }
}

impl From<&hap::simulator::ExecError> for WireError {
    fn from(e: &hap::simulator::ExecError) -> Self {
        WireError::new("exec", e.to_string())
    }
}

/// The stable kind tag of a daemon-side failure: the synthesis job
/// panicked (or otherwise died) after the request was accepted. The
/// request did not complete and produced no cached entry; the daemon
/// itself survives and keeps serving. A retry *may* succeed (the panic
/// could be input-dependent), so clients do not retry automatically.
pub const INTERNAL_KIND: &str = "internal";

/// The stable kind tag of a rejected cluster delta (the prior cluster
/// exists but the delta cannot be applied to it).
pub const DELTA_KIND: &str = "delta";

/// The stable kind tag of a replan whose prior fingerprint the daemon does
/// not hold (never planned, expired, or lost across a restart). Clients
/// should fall back to a cold `plan` request.
pub const UNKNOWN_FINGERPRINT_KIND: &str = "unknown_fingerprint";

impl From<&DeltaError> for WireError {
    fn from(e: &DeltaError) -> Self {
        WireError::new(DELTA_KIND, e.to_string())
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        let kind = match e {
            CodecError::Parse { .. } => "parse",
            CodecError::Decode(_) => "decode",
        };
        WireError::new(kind, e.to_string())
    }
}

impl Encode for WireError {
    fn encode(&self) -> Value {
        let mut fields = vec![("kind", self.kind.encode()), ("message", self.message.encode())];
        // The hint is only rendered when present, so non-busy frames keep
        // their PR-4 canonical bytes and old clients parse new daemons.
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms", Value::int(ms)));
        }
        // Same rule for the redirect fields: only `not_owner` frames carry
        // them, so every pre-cluster frame keeps its canonical bytes.
        if let Some(owner) = &self.owner {
            fields.push(("owner", owner.encode()));
        }
        if let Some(epoch) = self.ring_epoch {
            fields.push(("ring_epoch", Value::int(epoch)));
        }
        Value::obj(fields)
    }
}

impl Decode for WireError {
    fn decode(v: &Value) -> Result<Self, CodecError> {
        let retry_after_ms = match v.get("retry_after_ms") {
            None | Some(Value::Null) => None,
            Some(ms) => Some(ms.as_u64()?),
        };
        let owner = match v.get("owner") {
            None | Some(Value::Null) => None,
            Some(addr) => Some(String::decode(addr)?),
        };
        let ring_epoch = match v.get("ring_epoch") {
            None | Some(Value::Null) => None,
            Some(epoch) => Some(epoch.as_u64()?),
        };
        Ok(WireError {
            kind: String::decode(v.field("kind")?)?,
            message: String::decode(v.field("message")?)?,
            retry_after_ms,
            owner,
            ring_epoch,
        })
    }
}
