//! `hit_storm`: a `hap-serve` child on loopback (default config), warmed
//! with a hot set of 8 requests; then 2 closed-loop `hap_service::Client`
//! connections request seeded Zipf draws from the hot set, like training
//! job launchers that each wait for their plan.
//!
//! Why: the codec, cache lookup, event loop and client library do all the
//! work and synthesis does none (`synthesized` is checked to stay 0 in the
//! timed window). It drives the shipped client, so transport stalls show.
//!
//! The traced run adds the tenant mix (`tenant_mix.rs`) against a second
//! daemon, for the layers a closed loop of hits never reaches.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use hap_codec::{parse, request_fingerprint_values, Encode, Value};
use hap_service::{Client, Outcome, PlanReply, PlanService, ServiceConfig, SpanKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::daemon::{serve_bin, Daemon};
use crate::layer_metrics::phase;
use crate::report::{Report, Sample};
use crate::requests::{decode_plan, hot_set, ReplyBits, Req};
use crate::service_probe::TraceSampler;
use crate::trace::Tracer;
use crate::{report_setup, seeded_shuffle, Args};

/// Concurrent closed-loop connections.
const CONNECTIONS: usize = 2;
/// Daemon set-ups per run (about 1.3 s each); `setup_s` is the fastest.
/// Half run before the timed window and half after it, so the samples span
/// the run: the host's speed changes between phases of seconds to minutes.
const SETUP_REPEATS: usize = 10;
/// Zipf exponent of the hot-set draws.
const ZIPF_S: f64 = 1.1;

/// Seeded Zipf draws over `n` items whose popularity order is itself a
/// seeded permutation.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
    rng: ChaCha8Rng,
}

impl Zipf {
    pub fn new(n: usize, seed: u64, stream: u64) -> Zipf {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights.iter().map(|w| {
            acc += w / total;
            acc
        });
        let mut perm: Vec<usize> = (0..n).collect();
        seeded_shuffle(&mut perm, seed);
        Zipf {
            cdf: cdf.collect(),
            perm,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (stream << 32) ^ 0x21f),
        }
    }

    pub fn draw(&mut self) -> usize {
        let u: f64 = self.rng.random();
        let k = self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1);
        self.perm[k]
    }
}

/// One closed-loop window's results.
#[derive(Default)]
struct Window {
    latency_ms: Sample,
    ok: u64,
    failed: u64,
    elapsed_s: f64,
    problems: Vec<String>,
    /// `(request id, start, end)` of every request, for traced windows.
    spans: Vec<(u64, Instant, Instant)>,
}

/// Runs 2 closed-loop clients against `addr` for `seconds`, checking every
/// reply against its warm-up reply.
fn closed_loop(
    addr: SocketAddr,
    hot: &[Req],
    warm: &[ReplyBits],
    seed: u64,
    seconds: f64,
) -> Window {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            w.problems.push(format!("connect {addr}: {e}"));
                            return w;
                        }
                    };
                    let mut zipf = Zipf::new(hot.len(), seed, c as u64);
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let i = zipf.draw();
                        let r = &hot[i];
                        let t = Instant::now();
                        let reply = client.plan(&r.graph, &r.cluster, &r.options);
                        let end = Instant::now();
                        n += 1;
                        w.spans.push(((c as u64) << 32 | n, t, end));
                        match reply {
                            Ok(reply) => {
                                w.ok += 1;
                                w.latency_ms.push((end - t).as_secs_f64() * 1e3);
                                if reply.source != "cache" {
                                    w.problems.push(format!("{}: source {}", r.name, reply.source));
                                }
                                if ReplyBits::of(&reply) != warm[i] {
                                    w.problems
                                        .push(format!("{}: reply differs from warm-up", r.name));
                                }
                            }
                            Err(e) => {
                                w.failed += 1;
                                w.latency_ms.push_failed();
                                // A shed request is a failure, not a wrong
                                // answer; any other error fails the run.
                                if e.kind != "busy" {
                                    w.problems.push(format!("{}: {} error: {e}", r.name, e.kind));
                                }
                                if e.kind == "io" {
                                    break;
                                }
                            }
                        }
                        w.elapsed_s = (end - start).as_secs_f64();
                    }
                    w
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut all = Window::default();
    for w in results {
        all.latency_ms.extend(&w.latency_ms);
        all.ok += w.ok;
        all.failed += w.failed;
        all.elapsed_s = all.elapsed_s.max(w.elapsed_s);
        all.problems.extend(w.problems);
        all.spans.extend(w.spans);
    }
    all
}

/// Counts a window's requests and turns each of its problems into a failed
/// check.
fn judge(report: &mut Report, w: &Window) {
    report.attempted += w.ok + w.failed;
    report.failed += w.failed;
    for p in w.problems.iter().take(5) {
        report.check(false, || p.clone());
    }
    if w.problems.len() > 5 {
        report.check(false, || format!("{} more bad replies", w.problems.len() - 5));
    }
}

/// One set-up: a daemon started and warmed with the hot set, its warm-up
/// replies checked against the previous set-up's. Returns the daemon and
/// records the set-up's wall seconds.
fn set_up(
    bin: &Path,
    hot: &[Req],
    warm_replies: &mut Vec<PlanReply>,
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> Daemon {
    let t = Instant::now();
    let d = Daemon::start(bin, &[]).expect("hap-serve starts");
    let replies = d.warm(hot).expect("hot set warms");
    setups.push(t.elapsed().as_secs_f64());
    for (r, reply) in hot.iter().zip(&replies) {
        report.check(reply.source == "synthesized", || {
            format!("{}: warm-up source {}", r.name, reply.source)
        });
    }
    if !warm_replies.is_empty() {
        let same =
            warm_replies.iter().zip(&replies).all(|(a, b)| ReplyBits::of(a) == ReplyBits::of(b));
        report.check(same, || "warm-up plans differ between daemon restarts".into());
    }
    *warm_replies = replies;
    d
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let bin = serve_bin(args);
    let hot = hot_set();
    let mut setups = Vec::new();
    let mut warm_replies: Vec<PlanReply> = Vec::new();
    for _ in 1..SETUP_REPEATS / 2 {
        set_up(bin, &hot, &mut warm_replies, &mut setups, report).stop();
    }
    let daemon = set_up(bin, &hot, &mut warm_replies, &mut setups, report);
    let warm_bits: Vec<ReplyBits> = warm_replies.iter().map(ReplyBits::of).collect();
    for (i, r) in hot.iter().enumerate() {
        report.check(warm_replies[i].fingerprint == r.fingerprint(), || {
            format!("{}: reply fingerprint is not the request's", r.name)
        });
    }

    let mut ctl = daemon.connect().expect("control connection");
    let before = ctl.stats().expect("stats");
    let w = closed_loop(daemon.addr, &hot, &warm_bits, args.seed, args.seconds);
    let after = ctl.stats().expect("stats");
    judge(report, &w);
    report.check(after.synthesized == before.synthesized, || {
        format!("{} syntheses in the timed window", after.synthesized - before.synthesized)
    });
    report.metric_with("plans_per_s", "1/s", w.ok as f64 / w.elapsed_s, &w.latency_ms);
    report.quantile_metric("latency_p50_ms", &w.latency_ms, 0.5);
    println!(
        "# hit_storm: {} replies ({} failed) in {:.3}s over {CONNECTIONS} connections",
        w.ok + w.failed,
        w.failed,
        w.elapsed_s
    );

    println!(
        "# hit_storm daemon stats over the window: {} hits, {} misses",
        after.hits - before.hits,
        after.misses - before.misses
    );
    if tracer.enabled() {
        report.metric("failed_frac", "ratio", w.failed as f64 / (w.ok + w.failed).max(1) as f64);
        let n = hot.len() as u64;
        phase(report, "setup", n * (SETUP_REPEATS as u64 - 1), n * (SETUP_REPEATS as u64 - 1));
        phase(report, "warmup", n, n);
        phase(report, "timed", w.ok + w.failed, w.ok);
        traced(args, report, tracer, &daemon, &mut ctl, &hot, &warm_bits, &w);
    }
    report.metric(
        "peak_rss_mb",
        "MB",
        crate::host::peak_rss_mb(Some(daemon.pid())).unwrap_or(f64::NAN),
    );
    drop(ctl);
    daemon.stop();
    while setups.len() < SETUP_REPEATS {
        set_up(bin, &hot, &mut warm_replies, &mut setups, report).stop();
    }
    report_setup(report, setups);
    if tracer.enabled() {
        crate::tenant_mix::layers(args, report, tracer);
    }

    crate::quality::score_served(&hot, &warm_replies, tracer, report);
}

/// The traced window and the in-process hit-path layers.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    report: &mut Report,
    tracer: &mut Tracer,
    daemon: &Daemon,
    ctl: &mut Client,
    hot: &[Req],
    warm_bits: &[ReplyBits],
    untraced: &Window,
) {
    // Same clients and mix, with a span per request and the daemon's own
    // span timelines sampled from its trace ring afterwards.
    let w = closed_loop(daemon.addr, hot, warm_bits, args.seed ^ 0x7ace, args.seconds / 2.0);
    judge(report, &w);
    // Every timed reply is a hit, so the two tails share one sample: both
    // windows pooled, about 3x the 1000 samples a p99 needs at the
    // 44 ms round trip and a 45 s window.
    let mut pooled = untraced.latency_ms.clone();
    pooled.extend(&w.latency_ms);
    report.quantile_metric("latency_p99_ms", &pooled, 0.99);
    report.quantile_metric("hit_latency_p99_ms", &pooled, 0.99);
    for &(id, start, end) in &w.spans {
        tracer.record("client.plan", id, start, end);
    }
    let mut sampler = TraceSampler::default();
    // The daemon's default ring holds the last 256 traces, all from this
    // window.
    if let Err(e) = sampler.sample(ctl, 256) {
        report.check(false, || e);
    }
    let hit = |o: Outcome| o == Outcome::Hit;
    // Means, not medians, add up: the unattributed part is the mean round
    // trip minus the mean of every span the daemon attributes.
    let mut attributed = 0.0;
    for (name, kind) in [
        ("net.frame_us", SpanKind::Frame),
        ("service.decode_us", SpanKind::Decode),
        ("service.cache_lookup_us", SpanKind::CacheLookup),
        ("service.encode_us", SpanKind::Encode),
        ("net.flush_us", SpanKind::Flush),
    ] {
        let s = sampler.span_us(kind, hit);
        attributed += s.mean();
        let p50 = if s.is_empty() { 0.0 } else { s.median() };
        report.metric_with(name, "us", p50, &s);
    }
    report.metric("net.unattributed_us", "us", w.latency_ms.mean() * 1e3 - attributed);
    println!(
        "# daemon traces sampled: {} (hit traces feed the net./service. spans)",
        sampler.len()
    );
    report.metric(
        "bench.trace_overhead_pct",
        "%",
        (w.latency_ms.median() / untraced.latency_ms.median() - 1.0) * 100.0,
    );
    inprocess_hit_path(args.seed, report, tracer, hot);
}

/// The hit path's layers timed in-process on the same frames: a warmed
/// `PlanService`, the codec, and the client's encode/decode work.
fn inprocess_hit_path(seed: u64, report: &mut Report, tracer: &mut Tracer, hot: &[Req]) {
    const CALLS: usize = 400;
    let service = PlanService::new(ServiceConfig::default()).expect("in-process service");
    for (i, r) in hot.iter().enumerate() {
        let _ = service.handle_line(r.frame(i as u64 + 1).trim_end());
    }
    let mut zipf = Zipf::new(hot.len(), seed, 99);
    let mut s = [(); 8].map(|_| Sample::new());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for n in 0..CALLS {
        let r = &hot[zipf.draw()];
        let req = n as u64 + 100;
        let frame = r.frame(req);
        let line = frame.trim_end();
        let t = Instant::now();
        let (reply, _) = tracer.span("service.handle_line", req, || service.handle_line(line));
        s[0].push(us(t));
        let t = Instant::now();
        let v = tracer.span("codec.parse", req, || parse(line)).expect("request parses");
        s[1].push(us(t));
        let (g, c, o) =
            (v.field("graph").unwrap(), v.field("cluster").unwrap(), v.field("options").unwrap());
        let t = Instant::now();
        tracer.span("codec.fingerprint", req, || request_fingerprint_values(g, c, o));
        s[2].push(us(t));
        let rv = parse(&reply).expect("reply parses");
        let t = Instant::now();
        let rendered = tracer.span("codec.plan_render", req, || rv.render());
        s[3].push(us(t));
        report.check(rendered == reply, || {
            format!("{}: reply does not re-render byte-identically", r.name)
        });
        let t = Instant::now();
        tracer.span("client.encode", req, || {
            Value::obj(vec![
                ("op", Value::Str("plan".into())),
                ("id", Value::int(req)),
                ("graph", r.graph.encode()),
                ("cluster", r.cluster.encode()),
                ("options", r.options.encode()),
            ])
            .render()
        });
        s[4].push(us(t));
        let t = Instant::now();
        let decoded = tracer
            .span("client.decode", req, || decode_plan(&parse(&reply).expect("reply parses")));
        s[5].push(us(t));
        report.check(decoded.is_ok_and(|p| p.source == "cache"), || {
            format!("{}: in-process reply is not a hit", r.name)
        });
        s[6].push(line.len() as f64);
        s[7].push(reply.len() as f64);
    }
    service.stop();
    let names = [
        ("service.handle_line_us", "us"),
        ("codec.parse_us", "us"),
        ("codec.fingerprint_us", "us"),
        ("codec.plan_render_us", "us"),
        ("client.encode_us", "us"),
        ("client.decode_us", "us"),
        ("codec.request_bytes", "B"),
        ("codec.response_bytes", "B"),
    ];
    for ((name, unit), sample) in names.iter().zip(&s) {
        report.metric_with(name, unit, sample.median(), sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// Runs a short closed loop against a fake daemon that answers every
    /// request with `answer(request id)`; returns the judged report and the
    /// window's (ok, failed) counts.
    fn against(
        hot: &[Req],
        warm: &[ReplyBits],
        answer: &(dyn Fn(u64) -> String + Sync),
    ) -> (bool, u64, u64) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let w = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::scope(|conns| {
                    for _ in 0..CONNECTIONS {
                        let (stream, _) = listener.accept().unwrap();
                        conns.spawn(move || {
                            let mut out = stream.try_clone().unwrap();
                            for line in BufReader::new(stream).lines() {
                                let line = line.unwrap();
                                let id =
                                    parse(&line).unwrap().field("id").unwrap().as_u64().unwrap();
                                out.write_all(format!("{}\n", answer(id)).as_bytes()).unwrap();
                            }
                        });
                    }
                });
            });
            closed_loop(addr, hot, warm, 3, 0.3)
        });
        let mut report = Report::default();
        judge(&mut report, &w);
        (report.correct(), w.ok, w.failed)
    }

    #[test]
    fn a_bad_reply_fails_the_window() {
        let hot = &hot_set()[..1];
        let service = PlanService::new(ServiceConfig::default()).unwrap();
        let _ = service.handle_line(hot[0].frame(1).trim_end());
        let (line, _) = service.handle_line(hot[0].frame(1).trim_end());
        service.stop();
        let warm = [ReplyBits::of(&decode_plan(&parse(&line).unwrap()).unwrap())];
        let with_id = |l: &str, id: u64| l.replacen("\"id\":1,", &format!("\"id\":{id},"), 1);
        assert!(line.contains("\"id\":1,") && line.contains("\"source\":\"cache\""));

        let (correct, ok, failed) = against(hot, &warm, &|id| with_id(&line, id));
        assert!(correct && ok > 0 && failed == 0);
        // One digit of the estimate changed: well-formed, but not the plan.
        let at = line.find("\"estimated_time\":").unwrap();
        let end = at + line[at..].find([',', '}']).unwrap() - 1;
        let mut bytes = line.clone().into_bytes();
        bytes[end] = if bytes[end] == b'1' { b'2' } else { b'1' };
        let corrupted = String::from_utf8(bytes).unwrap();
        assert!(!against(hot, &warm, &|id| with_id(&corrupted, id)).0);
        // Answering another request id, unparseable, or an internal error.
        assert!(!against(hot, &warm, &|id| with_id(&line, id + 1)).0);
        assert!(!against(hot, &warm, &|id| with_id(&line[..line.len() - 7], id)).0);
        let error = |kind: &str, id: u64| {
            format!(
                "{{\"id\":{id},\"ok\":false,\"error\":{{\"kind\":\"{kind}\",\"message\":\"x\"}}}}"
            )
        };
        assert!(!against(hot, &warm, &|id| error("internal", id)).0);
        // A synthesized reply is not a hit.
        let synthesized = line.replacen("\"source\":\"cache\"", "\"source\":\"synthesized\"", 1);
        assert!(!against(hot, &warm, &|id| with_id(&synthesized, id)).0);
        // A shed request is a failure, not a wrong answer.
        let (correct, ok, failed) = against(hot, &warm, &|id| error("busy", id));
        assert!(correct && ok == 0 && failed > 0);
    }
}
