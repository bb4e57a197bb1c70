//! Transport regression tests over real loopback sockets: a cache hit
//! costs a round trip plus the daemon's work, never a delayed-ACK
//! timeout, and the daemon's `frame` span covers only wire time.

use std::time::{Duration, Instant};

use hap::HapOptions;
use hap_cluster::ClusterSpec;
use hap_codec::Encode;
use hap_models::{bert_base, BertConfig};
use hap_service::{Client, Server, ServiceConfig, SpanKind, Verb};
use hap_synthesis::SynthConfig;

/// Half of Linux's 40 ms minimum delayed-ACK timeout: a hit that waited
/// for a delayed ACK cannot come in under it, on any host.
const STALL_FREE_MS: f64 = 20.0;

#[test]
fn cache_hits_are_not_stalled_by_delayed_acks() {
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let graph = bert_base(&BertConfig::tiny());
    let cluster = ClusterSpec::fig17_cluster();
    // A greedy search: the plan's quality is beside the point here.
    let options = HapOptions {
        synth: SynthConfig { time_budget_secs: 0.0, ..SynthConfig::default() },
        ..HapOptions::default()
    };
    let request_bytes = graph.encode().render().len()
        + cluster.encode().render().len()
        + options.encode().render().len();
    assert!(request_bytes > 8 * 1024, "a multi-segment request frame ({request_bytes} B)");

    let cold = client.plan(&graph, &cluster, &options).unwrap();
    assert_eq!(cold.source, "synthesized");
    let mut hits_ms: Vec<f64> = (0..30)
        .map(|_| {
            let start = Instant::now();
            let hit = client.plan(&graph, &cluster, &options).unwrap();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(hit.source, "cache");
            assert_eq!(hit.program.fingerprint(), cold.program.fingerprint());
            ms
        })
        .collect();
    hits_ms.sort_by(f64::total_cmp);
    let median = hits_ms[hits_ms.len() / 2];
    assert!(
        median < STALL_FREE_MS,
        "median hit round trip {median:.2} ms (all: {hits_ms:.2?}) — a delayed-ACK stall"
    );
}

#[test]
fn idle_time_between_requests_is_not_counted_in_frame() {
    const IDLE: Duration = Duration::from_millis(300);
    let server = Server::start(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // Idle before the first request and between the next two: none of it
    // is wire time.
    for _ in 0..3 {
        std::thread::sleep(IDLE);
        client.stats().unwrap();
    }
    let traces = client.traces(16, 0).unwrap();
    let frames: Vec<Duration> = traces
        .iter()
        .filter(|t| t.verb == Verb::Stats)
        .flat_map(|t| t.spans.iter().filter(|s| s.kind == SpanKind::Frame))
        .map(|s| Duration::from_nanos(s.duration_nanos()))
        .collect();
    assert_eq!(frames.len(), 3, "one frame span per stats request: {traces:?}");
    for frame in frames {
        assert!(frame < IDLE / 3, "frame span {frame:?} counts idle time");
    }
}
