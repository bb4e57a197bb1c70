//! The tenant mix: an open loop at a fixed, seeded Poisson rate against a
//! `hap-serve` child with a persistence log (default fsync policy) and a
//! cache smaller than the run's distinct requests. The mix: repeats of a
//! pre-warmed hot set; fresh misses (small MLP/Transformer searches with
//! a fixed expansion budget, plus greedy deep-chain one-offs); duplicate
//! bursts of one fresh request on both connections; and `replan`
//! device-loss deltas on hot priors.
//!
//! Hits share the CPU with syntheses, log appends, evictions and admission
//! decisions, and queueing only shows under open arrivals. The mix runs in
//! hit_storm's traced run and feeds per-layer metrics only: its latency
//! follows the host's speed with queueing on top, too unsteady on a shared
//! host for an end-to-end bound.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hap_codec::{parse, Decode};
use hap_service::{Outcome, SpanKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::daemon::{serve_bin, Daemon};
use crate::hit_storm::Zipf;
use crate::layer_metrics::{cold_path, synth_counts};
use crate::layers::{replay_round, RoundTimes};
use crate::openloop::{drive, Exchange, Send};
use crate::report::{Report, Sample};
use crate::requests::{
    check_reply, fresh, hot_delta, hot_set, one_off, plan_bits, replan_frame, ReplyBits, Req,
};
use crate::service_probe::{stats_delta, TraceSampler};
use crate::trace::Tracer;
use crate::Args;

/// Offered load, requests per second over both connections, sized so the
/// synthesis workers are about half busy, below shedding. On a shared
/// 2-core VM, 60/s gave 0.24 syntheses per arrival at a mean of 31 ms each:
/// 0.22 of the workers' time (`dispatch.worker_busy_frac`). Scaled to half,
/// 60 x 0.5 / 0.22 = 135/s, which measured 0.41-0.68 busy over four runs
/// with none shed (the spread follows the host's speed; 120/s gave
/// 0.43-0.45).
const RATE: f64 = 135.0;
/// Synthesis workers of the mix's daemon: `nproc` of the reference host,
/// pinned so the operating point does not follow the host's core count.
const WORKERS: usize = 2;
/// Longest window of arrivals, whatever the run's length: a traced
/// hit_storm run (its two closed-loop windows plus the mix) stays well
/// inside the time one run may take, and the operating point stays the one
/// measured above (about 770 distinct requests).
const MAX_WINDOW_S: f64 = 25.0;
/// Daemon cache capacity: below the distinct requests of a run.
const CACHE_CAPACITY: usize = 64;
/// The daemon's trace ring, and the traces pulled per once-a-second
/// sample: several seconds of arrivals, so no trace is missed.
const TRACE_RING: usize = 1024;
/// Share of arrivals per kind, sums to 1:
/// - hot repeat: most launches re-request a known job, and the hits'
///   latency under load is what the mix exists to show;
/// - fresh miss: the synthesis load that sets the workers' utilization;
/// - one-off: cheap to plan but bulky, so it drives log appends, admission
///   rejections and evictions rather than worker time;
/// - duplicate burst: two tenants launching the same new job at once, the
///   only arrivals that exercise single-flight coalescing;
/// - replan: device losses on running jobs, the elastic path.
const MIX: [f64; 5] = [0.70, 0.10, 0.08, 0.04, 0.08];
/// Served plans re-synthesized in-process after the window, per kind.
const VERIFY_SAMPLE: usize = 3;
/// How long after the last due time replies may still arrive.
const DRAIN: Duration = Duration::from_secs(20);

/// What a scheduled request is, for checking and classifying its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Hot(usize),
    Fresh(usize),
    OneOff(usize),
    /// Duplicate burst of fresh request `i` (one send per connection).
    Dup(usize),
    /// Replan of hot prior `h` under delta variant `v`.
    Replan(usize, usize),
}

struct Schedule {
    /// Per connection: `(kind, wire id)` and the send list.
    kinds: [Vec<(Kind, u64)>; 2],
    sends: [Vec<Send>; 2],
    fresh: Vec<Req>,
    one_offs: Vec<Req>,
    /// Per replan `(prior, variant)`: the plan request for the post-delta
    /// cluster, which a tenant sends when the daemon no longer knows the
    /// prior (`unknown_fingerprint`).
    replanned: HashMap<(usize, usize), Req>,
}

/// Wire ids of fallback requests: past any scheduled id.
const FALLBACK_ID: u64 = 1 << 40;

impl Schedule {
    /// The wire id the final reply of exchange `k` on `conn` carries.
    fn reply_id(&self, conn: usize, k: usize, x: &Exchange) -> u64 {
        if x.fell_back {
            FALLBACK_ID + k as u64
        } else {
            self.kinds[conn][k].1
        }
    }

    /// The client-side fallback: a replan whose prior the daemon forgot is
    /// re-sent as a plain plan request for the post-delta cluster.
    fn fallback(&self, conn: usize, k: usize, reply: &str) -> Option<String> {
        let Kind::Replan(h, v) = self.kinds[conn][k].0 else { return None };
        if crate::requests::error_kind(reply).as_deref() != Some("unknown_fingerprint") {
            return None;
        }
        Some(self.replanned[&(h, v)].frame(FALLBACK_ID + k as u64))
    }
}

/// Builds the seeded arrival schedule: exactly `RATE * seconds` arrivals
/// with exponential gaps rescaled to span the window.
fn schedule(seed: u64, seconds: f64, hot: &[Req]) -> Schedule {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x007e_4a47);
    let n = (RATE * seconds).round().max(1.0) as usize;
    let mut t = 0.0;
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            t += -(1.0 - rng.random::<f64>()).ln();
            t
        })
        .collect();
    let scale = seconds / t;
    times.iter_mut().for_each(|x| *x *= scale);
    let mut zipf = Zipf::new(hot.len(), seed, 7);
    let mut s = Schedule {
        kinds: [Vec::new(), Vec::new()],
        sends: [Vec::new(), Vec::new()],
        fresh: Vec::new(),
        one_offs: Vec::new(),
        replanned: HashMap::new(),
    };
    let mut ids = [0u64; 2];
    let mut push =
        |s: &mut Schedule, conn: usize, due: f64, kind: Kind, frame: &dyn Fn(u64) -> String| {
            ids[conn] += 1;
            let id = ids[conn];
            s.kinds[conn].push((kind, id));
            s.sends[conn].push(Send { due: Duration::from_secs_f64(due), frame: frame(id) });
        };
    // Exact per-kind counts in a seeded order, so every seed offers the
    // same load.
    let mut picks: Vec<usize> = Vec::with_capacity(n);
    for kind in 0..MIX.len() {
        let upto = (MIX[..=kind].iter().sum::<f64>() * n as f64).round() as usize;
        picks.resize(upto.max(picks.len()), kind);
    }
    picks.resize(n, 0);
    crate::seeded_shuffle(&mut picks, seed ^ 0x9a);
    for (due, pick) in times.into_iter().zip(picks) {
        let conn = rng.random_range(0..2usize);
        match pick {
            0 => {
                let h = zipf.draw();
                push(&mut s, conn, due, Kind::Hot(h), &|id| hot[h].frame(id));
            }
            1 | 3 => {
                let i = s.fresh.len();
                let req = fresh(seed, i);
                if pick == 3 {
                    for c in 0..2 {
                        push(&mut s, c, due, Kind::Dup(i), &|id| req.frame(id));
                    }
                } else {
                    push(&mut s, conn, due, Kind::Fresh(i), &|id| req.frame(id));
                }
                s.fresh.push(req);
            }
            2 => {
                let i = s.one_offs.len();
                let req = one_off(seed, i);
                push(&mut s, conn, due, Kind::OneOff(i), &|id| req.frame(id));
                s.one_offs.push(req);
            }
            _ => {
                let h = rng.random_range(0..hot.len());
                let v = rng.random_range(0..2usize);
                let (prior, delta) = (hot[h].fingerprint(), hot_delta(&hot[h], v));
                push(&mut s, conn, due, Kind::Replan(h, v), &|id| replan_frame(id, prior, &delta));
                s.replanned.entry((h, v)).or_insert_with(|| {
                    let r = &hot[h];
                    let post = delta.apply(&r.cluster).expect("valid delta");
                    Req::new(format!("{}-{v}", r.name), r.graph.clone(), post, r.options.clone())
                });
            }
        }
    }
    s
}

/// A scratch directory inside the checkout for the daemon's cache file.
fn scratch_dir(args: &Args) -> PathBuf {
    let dir = args.out.join(format!("tenant_mix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn start_daemon(bin: &std::path::Path, dir: &std::path::Path) -> Daemon {
    let flags = [
        "--cache-file".to_string(),
        dir.join("plans.jsonl").display().to_string(),
        "--cache-capacity".to_string(),
        CACHE_CAPACITY.to_string(),
        "--workers".to_string(),
        WORKERS.to_string(),
        "--trace-ring-capacity".to_string(),
        TRACE_RING.to_string(),
    ];
    Daemon::start(bin, &flags).expect("hap-serve starts")
}

/// Replies of one window, classified.
#[derive(Default)]
struct Served {
    all_ms: Sample,
    hit_ms: Sample,
    miss_ms: Sample,
    lateness_ms: Sample,
    ok: u64,
    failed: u64,
    last_arrival_s: f64,
    /// Replans re-sent as plain plan requests.
    fallbacks: u64,
    /// Bits served per request, for consistency and verification.
    bits: HashMap<Kind, ReplyBits>,
}

fn classify(
    report: &mut Report,
    sched: &Schedule,
    exchanges: &[Vec<Exchange>; 2],
    warm_bits: &[ReplyBits],
) -> Served {
    let mut s = Served::default();
    #[allow(clippy::needless_range_loop)] // `conn` indexes three parallel arrays
    for conn in 0..2 {
        for (k, ((kind, _), x)) in sched.kinds[conn].iter().zip(&exchanges[conn]).enumerate() {
            let id = sched.reply_id(conn, k, x);
            s.fallbacks += x.fell_back as u64;
            s.lateness_ms.push(x.lateness().as_secs_f64() * 1e3);
            let Some(lat) = x.latency() else {
                s.failed += 1;
                s.all_ms.push_failed();
                report.check(false, || format!("{kind:?}: no reply"));
                continue;
            };
            s.last_arrival_s = s.last_arrival_s.max(x.arrived.unwrap_or_default().as_secs_f64());
            let (source, bits) = match check_reply(&x.reply, id) {
                Ok((source, _, bits)) => (source, bits),
                Err(e) => {
                    s.failed += 1;
                    s.all_ms.push_failed();
                    // A shed request is a failure, not a wrong answer; any
                    // other bad reply fails the run.
                    if crate::requests::error_kind(&x.reply).as_deref() != Some("busy") {
                        report.check(false, || format!("{kind:?}: {e}"));
                    }
                    continue;
                }
            };
            s.ok += 1;
            let ms = lat.as_secs_f64() * 1e3;
            s.all_ms.push(ms);
            match source.as_str() {
                "cache" => s.hit_ms.push(ms),
                _ => s.miss_ms.push(ms),
            }
            if let Kind::Hot(h) = kind {
                report.check(bits == warm_bits[*h], || {
                    format!("hot {h}: reply differs from warm-up")
                });
            }
            let key = match kind {
                Kind::Dup(i) => Kind::Fresh(*i),
                k => *k,
            };
            if let Some(prev) = s.bits.get(&key) {
                report.check(*prev == bits, || format!("{kind:?}: replies disagree"));
            } else {
                s.bits.insert(key, bits);
            }
        }
    }
    s
}

/// Runs one open-loop window over both connections.
fn window(
    daemon: &Daemon,
    sched: &Schedule,
    sampler: &mut TraceSampler,
    report: &mut Report,
) -> (Instant, [Vec<Exchange>; 2]) {
    let start = Instant::now();
    let addr = daemon.addr;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                s.spawn(move || {
                    let fallback = move |k: usize, reply: &str| sched.fallback(c, k, reply);
                    drive(addr, &sched.sends[c], start, DRAIN, &fallback)
                })
            })
            .collect();
        // The daemon's trace ring is sampled once a second over a third
        // connection.
        let mut ctl = daemon.connect().expect("control connection");
        while handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(1000));
            if let Err(e) = sampler.sample(&mut ctl, TRACE_RING) {
                report.check(false, || e);
            }
        }
        let mut out = handles.into_iter().map(|h| {
            h.join().expect("generator thread").unwrap_or_else(|e| panic!("open loop failed: {e}"))
        });
        (start, [out.next().unwrap(), out.next().unwrap()])
    })
}

/// Re-synthesizes a seeded sample of served plans and replans in-process
/// and requires bit-identical results.
fn verify_sample(report: &mut Report, seed: u64, sched: &Schedule, served: &Served) {
    let mut keys: Vec<Kind> =
        served.bits.keys().copied().filter(|k| !matches!(k, Kind::Hot(_))).collect();
    keys.sort_by_key(|k| format!("{k:?}"));
    crate::seeded_shuffle(&mut keys, seed ^ 0x5a);
    let mut taken = HashMap::new();
    let mut checked = 0;
    for key in keys {
        let family = std::mem::discriminant(&key);
        let n = taken.entry(family).or_insert(0);
        if *n >= VERIFY_SAMPLE {
            continue;
        }
        *n += 1;
        let (graph, cluster, opts) = match key {
            Kind::Fresh(i) => {
                let r = &sched.fresh[i];
                (&r.graph, r.cluster.clone(), &r.options)
            }
            Kind::OneOff(i) => {
                let r = &sched.one_offs[i];
                (&r.graph, r.cluster.clone(), &r.options)
            }
            Kind::Replan(h, v) => {
                let r = &sched.replanned[&(h, v)];
                (&r.graph, r.cluster.clone(), &r.options)
            }
            Kind::Hot(_) | Kind::Dup(_) => continue,
        };
        match hap::parallelize(graph, &cluster, opts) {
            Ok(plan) => report.check(plan_bits(&plan) == served.bits[&key], || {
                format!("{key:?}: served plan differs from in-process cold synthesis")
            }),
            Err(e) => report.check(false, || format!("{key:?}: in-process synthesis failed: {e}")),
        }
        checked += 1;
    }
    println!("# tenant_mix: {checked} served plans re-synthesized in-process, bit-identical");
}

/// Runs the mix for `args.seconds` (at most `MAX_WINDOW_S`) against its
/// own daemon (persistence log, small cache) and reports the layers
/// hit_storm's closed loop does not reach: cache decisions, the synthesis
/// queue, the log, miss latency and the open-loop generator's lateness.
/// The daemon's trace ring is sampled once a second; afterwards a seeded
/// sample of served plans is checked against in-process cold synthesis and
/// the miss path's layers are timed in-process on the first fresh requests.
pub fn layers(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let hot = hot_set();
    let dir = scratch_dir(args);
    let daemon = start_daemon(serve_bin(args), &dir);
    let warm_bits: Vec<ReplyBits> =
        daemon.warm(&hot).expect("hot set warms").iter().map(ReplyBits::of).collect();
    let seconds = args.seconds.min(MAX_WINDOW_S);
    let sched = schedule(args.seed, seconds, &hot);

    let log = dir.join("plans.jsonl");
    let log_size = || std::fs::metadata(&log).map_or(0, |m| m.len());
    let mut ctl = daemon.connect().expect("control connection");
    let before = ctl.stats().expect("stats");
    let log_before = log_size();
    let mut sampler = TraceSampler::default();
    if let Err(e) = sampler.start_window(&mut ctl, TRACE_RING) {
        report.check(false, || e);
    }
    let (start, exchanges) = window(&daemon, &sched, &mut sampler, report);
    let after = ctl.stats().expect("stats");
    let log_growth = log_size() - log_before;
    drop(ctl);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);

    for (conn, xs) in exchanges.iter().enumerate() {
        for (x, (_, id)) in xs.iter().zip(&sched.kinds[conn]) {
            if let Some(arrived) = x.arrived {
                tracer.record(
                    "openloop.request",
                    (conn as u64) << 32 | id,
                    start + x.due,
                    start + arrived,
                );
            }
        }
    }
    let served = classify(report, &sched, &exchanges, &warm_bits);
    report.attempted += served.ok + served.failed;
    report.failed += served.failed;
    println!(
        "# tenant mix: {} requests ({} hits, {} misses, {} failed, {} replans re-sent as plans \
         after unknown_fingerprint) over {:.3}s at {RATE}/s offered; all p50 {:.3} ms, \
         hit p50 {:.3} ms",
        served.ok + served.failed,
        served.hit_ms.len(),
        served.miss_ms.len(),
        served.failed,
        served.fallbacks,
        served.last_arrival_s,
        served.all_ms.median(),
        served.hit_ms.median(),
    );
    verify_sample(report, args.seed, &sched, &served);

    stats_delta(report, &before, &after);
    report.metric("cache.log_bytes", "B", log_growth as f64);
    report.quantile_metric("miss_latency_p50_ms", &served.miss_ms, 0.5);
    report.quantile_metric("miss_latency_p90_ms", &served.miss_ms, 0.9);
    report.quantile_metric("bench.gen_lateness_p99_ms", &served.lateness_ms, 0.99);
    // Jobs that went through the synthesis queue: plain misses and
    // replans the cache could not answer.
    let queued = |o: Outcome| matches!(o, Outcome::Miss | Outcome::Replan);
    for (name, kind, q) in [
        ("dispatch.queue_wait_ms_p50", SpanKind::QueueWait, 0.5),
        ("dispatch.queue_wait_ms_p90", SpanKind::QueueWait, 0.9),
        ("dispatch.synthesis_ms_p50", SpanKind::Synthesis, 0.5),
    ] {
        report.quantile_metric(name, &sampler.span_us(kind, queued).scaled(1e-3), q);
    }
    // Worker utilization: synthesis time over the workers' time in the
    // window (arrivals plus the drain of the last replies).
    let synthesis = sampler.span_us(SpanKind::Synthesis, queued);
    let busy = synthesis.mean() * synthesis.len() as f64 / 1e6;
    let window_s = served.last_arrival_s.max(seconds);
    report.metric("dispatch.worker_busy_frac", "ratio", busy / (window_s * WORKERS as f64));
    println!(
        "# daemon traces sampled: {} for {} requests (queued traces feed dispatch.*); \
         {} syntheses, {busy:.3}s of synthesis on {WORKERS} workers over {window_s:.3}s, \
         {} shed",
        sampler.len(),
        served.ok + served.failed,
        synthesis.len(),
        after.shed - before.shed,
    );

    // Miss-path layers in-process on the first fresh requests: graph
    // decoding from the wire, the whole optimization, and one replayed
    // optimizer round each.
    let mut decode_us = Sample::new();
    let mut rt = RoundTimes::default();
    let mut parallelize_s = 0.0;
    for (i, r) in sched.fresh.iter().take(8).enumerate() {
        let frame = r.frame(1);
        let v = parse(frame.trim_end()).expect("frame parses");
        let g = v.field("graph").expect("graph field");
        let t = Instant::now();
        let decoded = tracer.span("codec.graph_decode", i as u64, || hap_graph::Graph::decode(g));
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.check(decoded.is_ok(), || format!("{}: graph does not decode", r.name));
        let t = Instant::now();
        let plan = tracer.span("core.parallelize", i as u64, || {
            hap::parallelize(&r.graph, &r.cluster, &r.options)
        });
        parallelize_s += t.elapsed().as_secs_f64();
        report.check(plan.is_ok(), || format!("{}: in-process synthesis failed", r.name));
        if let Err(e) = replay_round(&r.graph, &r.cluster, &r.options, tracer, i as u64, &mut rt) {
            report.check(false, || format!("{}: {e}", r.name));
        }
    }
    report.metric_with("codec.graph_decode_us", "us", decode_us.median(), &decode_us);
    cold_path(report, parallelize_s, &rt);
    synth_counts(report, &rt.synth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_service::{PlanService, ServiceConfig};

    fn exchange(reply: &str) -> Exchange {
        Exchange {
            due: Duration::ZERO,
            sent: Duration::ZERO,
            arrived: Some(Duration::from_millis(1)),
            reply: reply.to_string(),
            fell_back: false,
        }
    }

    #[test]
    fn a_corrupted_reply_fails_the_run() {
        let req = fresh(1, 0);
        let service = PlanService::new(ServiceConfig::default()).unwrap();
        let (line, _) = service.handle_line(req.frame(1).trim_end());
        service.stop();
        let warm = vec![check_reply(&line, 1).unwrap().2];
        let sched = Schedule {
            kinds: [vec![(Kind::Hot(0), 1)], Vec::new()],
            sends: [Vec::new(), Vec::new()],
            fresh: Vec::new(),
            one_offs: Vec::new(),
            replanned: HashMap::new(),
        };
        let judge = |reply: &str| {
            let mut report = Report::default();
            let served = classify(&mut report, &sched, &[vec![exchange(reply)], Vec::new()], &warm);
            (report.correct(), served.ok, served.failed)
        };
        assert_eq!(judge(&line), (true, 1, 0));
        // One digit of the estimate changed: well-formed, but not the plan.
        let at = line.find("\"estimated_time\":").unwrap();
        let end = at + line[at..].find([',', '}']).unwrap() - 1;
        let mut bytes = line.clone().into_bytes();
        bytes[end] = if bytes[end] == b'1' { b'2' } else { b'1' };
        assert!(!judge(&String::from_utf8(bytes).unwrap()).0);
        // Truncated, and answering another request id.
        assert!(!judge(&line[..line.len() - 7]).0);
        assert!(!judge(&line.replacen("\"id\":1", "\"id\":2", 1)).0);
        // A shed request is a failure, not a wrong answer.
        let busy =
            "{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"busy\",\"message\":\"queue full\"}}";
        assert_eq!(judge(busy), (true, 0, 1));
    }

    #[test]
    fn schedules_are_seeded_and_span_the_window() {
        let hot = hot_set();
        let a = schedule(5, 2.0, &hot);
        let b = schedule(5, 2.0, &hot);
        let c = schedule(6, 2.0, &hot);
        let frames =
            |s: &Schedule| s.sends.iter().flatten().map(|x| x.frame.clone()).collect::<Vec<_>>();
        assert_eq!(frames(&a), frames(&b));
        assert_ne!(frames(&a), frames(&c));
        let arrivals: usize =
            a.kinds.iter().flatten().filter(|(k, _)| !matches!(k, Kind::Dup(_))).count()
                + a.kinds.iter().flatten().filter(|(k, _)| matches!(k, Kind::Dup(_))).count() / 2;
        assert_eq!(arrivals, (RATE * 2.0) as usize);
        let last = a.sends.iter().flatten().map(|s| s.due).max().unwrap();
        assert!((last.as_secs_f64() - 2.0).abs() < 1e-6);
    }
}
