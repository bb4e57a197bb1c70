//! Std-only wire format for HAP: hand-rolled JSON, canonical encodings,
//! and content-addressed fingerprints.
//!
//! The plan service (see `crates/service`) treats the planner as a
//! long-lived daemon that many training jobs query, which needs three
//! things a pure in-process library does not:
//!
//! 1. **A wire format** — [`Encode`]/[`Decode`] impls for the request and
//!    response types ([`hap_graph::Graph`], [`hap_cluster::ClusterSpec`],
//!    [`hap::HapOptions`], `ShardingRatios`,
//!    [`hap_synthesis::DistProgram`]) over a minimal JSON document model
//!    ([`Value`]). Hand-rolled in the spirit of the `third_party/` shims:
//!    the build environment has no crates.io, so no serde.
//! 2. **Canonical bytes** — every encoding fixes its field order and
//!    number formatting, so encoding a value twice (or decoding and
//!    re-encoding it) yields identical text. See [`json`] for the exact
//!    guarantees.
//! 3. **Content fingerprints** — [`request_fingerprint`] digests the
//!    canonical bytes of `(graph, cluster, options)` with the same FNV-1a
//!    primitive the synthesizer uses for program fingerprints
//!    ([`hap_synthesis::fingerprint`]). Synthesized plans are pure
//!    functions of that triple, so the fingerprint is a sound
//!    content-addressed cache key.
//!
//! Decoding validates: graphs are rebuilt node by node through shape
//! inference and the inferred shapes are checked against the encoded ones,
//! so a forged or corrupted frame fails to decode rather than producing an
//! inconsistent IR.
//!
//! # Examples
//!
//! ```
//! use hap_codec::{parse, Decode, Encode};
//! use hap_graph::GraphBuilder;
//!
//! let mut g = GraphBuilder::new();
//! let x = g.placeholder("x", vec![8, 4]);
//! let w = g.parameter("w", vec![4, 2]);
//! let y = g.matmul(x, w);
//! let _loss = g.sum_all(y);
//! let graph = g.build_forward();
//!
//! let text = graph.encode().render();
//! let back = hap_graph::Graph::decode(&parse(&text).unwrap()).unwrap();
//! assert_eq!(back.len(), graph.len());
//! // Canonical: re-encoding the decoded graph reproduces the exact bytes.
//! assert_eq!(back.encode().render(), text);
//! ```

mod diff;
mod json;
mod record;
mod ring;
mod stream;
mod wire;

pub use diff::PlanDiff;
pub use json::{parse, CodecError, Value};
pub use record::{
    parse_persist_line, parse_persist_line_full, persist_line, persist_line_with_req, CachedPlan,
    PlanPayload, PERSIST_VERSION, PERSIST_VERSION_COMPAT,
};
pub use ring::RingInfo;
pub use stream::{
    encode_stream, is_stream_frame, stream_digest, StreamDecoder, StreamEvent, STREAM_CHUNK_BYTES,
};
pub use wire::{
    parse_fingerprint, render_fingerprint, request_fingerprint, request_fingerprint_values,
    value_fingerprint, Decode, Encode, WireError, BUSY_KIND, DELTA_KIND, INTERNAL_KIND,
    NOT_OWNER_KIND, UNKNOWN_FINGERPRINT_KIND,
};
