//! The daemon's request brain, independent of any transport: feed it a
//! request line, get response bytes. There is exactly one request path,
//! [`PlanService::submit`]: the TCP event loop calls it with a delivery
//! into its completion queue, and [`PlanService::handle_line`] — the entry
//! point of the benches and in-process tests — submits with a one-slot
//! channel and blocks on it. Ring routing, counters, spans and response
//! bytes are therefore the same in process and on the wire.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hap_cluster::ClusterDelta;
use hap_codec::{
    encode_stream, parse, parse_fingerprint, render_fingerprint, request_fingerprint_values,
    Decode, Encode, PlanDiff, RingInfo, Value, WireError, UNKNOWN_FINGERPRINT_KIND,
};
use mini_rayon::ThreadPool;

use hap_synthesis::SynthProfile;
use hap_telemetry::{Outcome, SpanKind, TraceBuilder, Verb};

use crate::cache::{load_cache_with_requests, CachePolicy, CachedPlan, PersistLog, PlanCache};
use crate::config::{ServiceConfig, MAX_TTL_MS};
use crate::dispatch::{self, Attach, PlanResult, QueueState, Shared, Slot};
use crate::peer::ClusterState;
use crate::replan::{self, ReplanIndex, RequestTriple};
use crate::stats::{Counters, NetGauges, StatsSnapshot};
use crate::sync::lock_recover;
use crate::telemetry::{
    encode_profile, encode_trace, outcome_for_error, outcome_for_source, PendingTrace,
    ProfileIndex, Telemetry,
};

/// The transport callback behind a [`Deliver`].
type SendFn = Box<dyn FnOnce(String, Option<PendingTrace>) + Send>;

/// A transport's hand-off for a response that resolves after
/// [`PlanService::submit`] returned [`Submission::Pending`]: it receives
/// the response frames plus the request's trace (sealed by the transport
/// once the bytes flush). Runs on the resolving thread; must be quick
/// (enqueue + wake).
///
/// Once a request leaves `submit` on a continuation (a dispatch subscriber
/// or a peer job) its delivery is *owed*: dropped without running — a
/// peer pool stopped with the job still queued — it answers anyway, with
/// a typed `shutdown` error frame, so no transport waits forever.
pub(crate) struct Deliver {
    send: Option<SendFn>,
    /// The id of the request owed an answer, once it is owed.
    owed: Option<u64>,
}

impl Deliver {
    pub(crate) fn new(send: impl FnOnce(String, Option<PendingTrace>) + Send + 'static) -> Deliver {
        Deliver { send: Some(Box::new(send)), owed: None }
    }

    /// Marks the answer to request `id` as owed through this delivery.
    fn owe(mut self, id: u64) -> Deliver {
        self.owed = Some(id);
        self
    }

    /// Hands a complete response to whoever waits for it: back to
    /// `submit`'s caller as [`Submission::Ready`] while nothing is owed
    /// yet, through the delivery once it is.
    fn answer(mut self, bytes: String, trace: Option<PendingTrace>) -> Submission {
        match (self.owed, self.send.take()) {
            (Some(_), Some(send)) => {
                send(bytes, trace);
                Submission::Pending
            }
            _ => Submission::Ready { bytes, shutdown: false, trace },
        }
    }
}

impl Drop for Deliver {
    fn drop(&mut self) {
        if let (Some(id), Some(send)) = (self.owed, self.send.take()) {
            send(frame_line(&error_frame(id, &dispatch::shutting_down())), None);
        }
    }
}

/// How a plan response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Answered from the cache.
    Cache,
    /// This request ran the synthesis.
    Synthesized,
    /// Joined another request's in-flight synthesis.
    Coalesced,
}

impl PlanSource {
    fn as_str(self) -> &'static str {
        match self {
            PlanSource::Cache => "cache",
            PlanSource::Synthesized => "synthesized",
            PlanSource::Coalesced => "coalesced",
        }
    }
}

/// What [`PlanService::submit`] did with a request line.
pub(crate) enum Submission {
    /// The response is complete: one or more newline-terminated frames,
    /// plus the request's trace for the transport to seal at flush time.
    Ready { bytes: String, shutdown: bool, trace: Option<PendingTrace> },
    /// The response is owed: the [`Deliver`] receives the frames (and the
    /// trace) from a synthesis subscriber or a peer job — on another
    /// thread, or already inline when the slot had resolved.
    Pending,
}

/// Packages a trace builder with its outcome for the transport to seal.
fn seal(tb: Option<TraceBuilder>, outcome: Outcome) -> Option<PendingTrace> {
    tb.map(|builder| PendingTrace { builder, outcome })
}

/// A complete single-frame response that does not shut the daemon down.
fn ready(bytes: String, tb: Option<TraceBuilder>, outcome: Outcome) -> Submission {
    Submission::Ready { bytes, shutdown: false, trace: seal(tb, outcome) }
}

/// Runs `f` under a `kind` span.
fn span<T>(tb: &mut Option<TraceBuilder>, kind: SpanKind, f: impl FnOnce() -> T) -> T {
    if let Some(tb) = tb.as_mut() {
        tb.begin(kind);
    }
    let out = f();
    if let Some(tb) = tb.as_mut() {
        tb.end();
    }
    out
}

/// Runs `f` under an `encode` span.
fn encode_span<T>(tb: &mut Option<TraceBuilder>, f: impl FnOnce() -> T) -> T {
    span(tb, SpanKind::Encode, f)
}

/// Fetches the recorded synthesis profile for `fp` when anyone wants it:
/// as the response's `"profile"` field (`want`) and/or folded into the
/// trace as annotations (`synthesized` — the profile describes work this
/// very request waited on). Requests that want neither never touch the
/// profile lock; in particular, telemetry-off cache hits stay lock-free.
fn profile_for(
    shared: &Shared,
    fp: u64,
    want: bool,
    synthesized: bool,
    tb: &mut Option<TraceBuilder>,
) -> Option<Arc<SynthProfile>> {
    if !(want || (synthesized && tb.is_some())) {
        return None;
    }
    let profile = lock_recover(&shared.profiles).get(fp)?;
    if synthesized {
        if let Some(tb) = tb.as_mut() {
            for (key, value) in profile.entries() {
                tb.annotate(key, value);
            }
        }
    }
    want.then_some(profile)
}

/// Folds the dispatch slot's timing marks into the trace: the queue wait
/// and (when a worker actually ran) the synthesis itself. A request that
/// resolved without a worker — shed, shutdown race, cache race — gets its
/// whole slot residency as queue wait.
fn attach_slot_spans(tb: &mut Option<TraceBuilder>, slot: &Slot) {
    let Some(tb) = tb.as_mut() else { return };
    let (queued, started, resolved) = dispatch::slot_marks(slot);
    if started > 0 {
        tb.span(SpanKind::QueueWait, queued, started);
        tb.span(SpanKind::Synthesis, started, resolved);
    } else if resolved > 0 {
        tb.span(SpanKind::QueueWait, queued, resolved);
    }
}

/// Everything a plan-bearing response needs besides the plan itself.
struct Answer {
    id: u64,
    fp: u64,
    flags: PlanFlags,
    /// A replan's prior fingerprint and plan: the synthesis's warm seed
    /// and the base of the response's `replan` diff.
    prior: Option<(u64, Arc<CachedPlan>)>,
}

impl Answer {
    /// Chunk size of the response stream, when the request streams.
    fn stream_chunk(&self, shared: &Shared) -> Option<usize> {
        self.flags.stream.then_some(shared.config.stream_chunk_bytes)
    }

    /// Renders a resolved plan — or its error — as response frames, with
    /// the trace outcome. `synthesized`: this request waited on the
    /// synthesis, whose profile then folds into its trace.
    fn render(
        &self,
        shared: &Shared,
        source: PlanSource,
        result: &PlanResult,
        synthesized: bool,
        tb: &mut Option<TraceBuilder>,
    ) -> (String, Outcome) {
        let plan = match result {
            Ok(plan) => plan,
            Err(err) => {
                let bytes = encode_span(tb, || error_line(shared, self.id, err));
                return (bytes, outcome_for_error(err));
            }
        };
        if self.prior.is_some() {
            shared.counters.replanned.fetch_add(1, Ordering::Relaxed);
        }
        let profile = profile_for(shared, self.fp, self.flags.profile, synthesized, tb);
        let diff = self.prior.as_ref().map(|(prior_fp, prior)| replan_diff(*prior_fp, prior, plan));
        let outcome =
            if self.prior.is_some() { Outcome::Replan } else { outcome_for_source(source) };
        let stream_chunk = self.stream_chunk(shared);
        let bytes = encode_span(tb, || {
            plan_frames(
                self.id,
                self.fp,
                source,
                plan,
                diff.as_ref(),
                profile.as_deref(),
                stream_chunk,
            )
        });
        (bytes, outcome)
    }
}

/// The one miss tail — a `plan` or `replan` miss answered locally, and
/// every proxy fallback: attach to the single-flight dispatch, answer at
/// once when that resolved without queueing (cache race, shed, shutdown),
/// else subscribe a renderer that answers when the synthesis resolves.
fn answer_miss(
    shared: &Arc<Shared>,
    answer: Answer,
    triple: &Arc<RequestTriple>,
    mut tb: Option<TraceBuilder>,
    deliver: Deliver,
) -> Submission {
    let warm = answer.prior.as_ref().map(|(_, plan)| plan.clone());
    let (source, slot) =
        match dispatch::attach(shared, answer.fp, triple, answer.flags.ttl_ms, warm) {
            Attach::Resolved(source, result) => {
                let (bytes, outcome) = answer.render(shared, source, &result, false, &mut tb);
                return deliver.answer(bytes, seal(tb, outcome));
            }
            Attach::Pending(source, slot) => (source, slot),
        };
    // Each request renders with its own id, source and flags when the
    // shared synthesis resolves.
    let deliver = deliver.owe(answer.id);
    let shared = shared.clone();
    let sub_slot = slot.clone();
    dispatch::subscribe(
        &slot,
        Box::new(move |result: &PlanResult| {
            let mut tb = tb;
            attach_slot_spans(&mut tb, &sub_slot);
            let (bytes, outcome) = answer.render(&shared, source, result, true, &mut tb);
            deliver.answer(bytes, seal(tb, outcome));
        }),
    );
    Submission::Pending
}

/// The multi-tenant planning service: content-addressed cache,
/// single-flight synthesis, fixed worker pool.
pub struct PlanService {
    shared: Arc<Shared>,
    gauges: Arc<NetGauges>,
    worker_width: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl PlanService {
    /// Builds the service: loads (and compacts) the persistence log when
    /// configured, then starts the synthesis workers. Pool width follows
    /// mini-rayon's parallelism accounting (`workers` threads, `0` = all
    /// cores); each worker pulls one job at a time, so a slow synthesis
    /// never stalls queued work behind a batch barrier, and each job's
    /// wave-parallel A\* fans out over the vendored mini-rayon pool in
    /// turn (`options.synth.threads`).
    ///
    /// A log that fails to *decode* (interior corruption) refuses to boot
    /// — silently dropping persisted state would hide data loss (the
    /// torn-tail case a crash leaves behind is recovered, not fatal; see
    /// [`load_cache`]). A log that decodes but cannot be *rewritten or
    /// reopened* (disk full, permissions) starts the service in degraded
    /// memory-only persistence instead of failing: the daemon is the
    /// availability-critical piece, the log is not.
    pub fn new(config: ServiceConfig) -> Result<Self, WireError> {
        let policy = CachePolicy {
            admission: config.cache_admission,
            default_ttl: config.default_ttl_ms.map(std::time::Duration::from_millis),
        };
        let cache = PlanCache::with_policy(config.cache_capacity, policy);
        // The replan index remembers as many request triples as the cache
        // holds plans: a fingerprint whose plan is still cached should
        // normally still be replannable. The profile index follows the
        // same sizing — a cached plan's synthesis profile should still be
        // reportable.
        let replans = Arc::new(Mutex::new(ReplanIndex::new(config.cache_capacity)));
        let mut persist = None;
        if let Some(path) = &config.cache_path {
            // Rebuild the replan index alongside the cache: each record's
            // embedded request triple is trusted only if it fingerprints
            // back to the record's own key (a mismatched triple would make
            // a later replan rebase the wrong request).
            load_cache_with_requests(&cache, path, &mut |fp, req| {
                let Some(triple) = RequestTriple::decode_req(&req) else { return };
                if request_fingerprint_values(&triple.graph, &triple.cluster, &triple.options) == fp
                {
                    lock_recover(&replans).record(fp, Arc::new(triple));
                }
            })
            .map_err(WireError::from)?;
            persist = Some(PersistLog::start_with_index(
                &cache,
                path.clone(),
                config.fsync,
                replans.clone(),
            ));
        }
        let profiles = Mutex::new(ProfileIndex::new(config.cache_capacity));
        let telemetry = Arc::new(Telemetry::new(&config));
        let shared = Arc::new(Shared {
            config,
            cache,
            replans,
            cluster: ClusterState::new(),
            inflight: Mutex::new(HashMap::new()),
            queue: (
                Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
                Condvar::new(),
            ),
            counters: Counters::default(),
            persist,
            telemetry,
            profiles,
        });
        let width = ThreadPool::new(shared.config.workers).threads().max(1);
        let workers = (0..width)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || dispatch::worker_loop(&shared))
            })
            .collect();
        Ok(PlanService {
            shared,
            gauges: Arc::new(NetGauges::default()),
            worker_width: width,
            workers: Mutex::new(workers),
        })
    }

    /// The service's configuration.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Synthesis worker threads running.
    pub fn worker_count(&self) -> usize {
        self.worker_width
    }

    /// The event-loop gauges (shared with the transport that updates
    /// them; zeros for a transportless in-process service).
    pub(crate) fn net_gauges(&self) -> Arc<NetGauges> {
        self.gauges.clone()
    }

    /// Handles one request line; returns the response line (no trailing
    /// newline) and whether the request asked the daemon to shut down.
    ///
    /// A thin wrapper over [`PlanService::submit`], the one request path,
    /// so ring routing, counters, spans and response bytes are exactly
    /// what a socket client gets: the request is submitted with a delivery
    /// into a one-slot channel, and a miss blocks the calling thread on
    /// that channel until its response is rendered. The response is never
    /// streamed — this entry point *is* the canonical unstreamed encoding —
    /// and the request's trace is sealed here (there is no later flush to
    /// wait for).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let (tx, rx) = mpsc::sync_channel(1);
        let deliver = Deliver::new(move |bytes, trace| {
            let _ = tx.send((bytes, trace));
        });
        let tb = self.shared.telemetry.builder();
        let (mut bytes, shutdown, trace) = match self.submit(line, tb, deliver, false) {
            Submission::Ready { bytes, shutdown, trace } => (bytes, shutdown, trace),
            Submission::Pending => {
                let (bytes, trace) = rx.recv().expect("an owed delivery always answers");
                (bytes, false, trace)
            }
        };
        if let Some(trace) = trace {
            self.shared.telemetry.finish_pending(trace);
        }
        // One unstreamed frame: drop its newline.
        bytes.pop();
        (bytes, shutdown)
    }

    /// Remembers the request triple behind a fingerprint so a later
    /// `replan` can rebuild it. When already recorded, only touches the
    /// entry (one bit, O(1)) so a hot prior outlives one-off requests.
    fn record_request(&self, fp: u64, triple: &Arc<RequestTriple>) {
        let mut index = lock_recover(&self.shared.replans);
        if !index.touch(fp) {
            index.record(fp, triple.clone());
        }
    }

    /// The cache probe of every plan-bearing request, counted as a hit or
    /// a miss, under a `cache_lookup` span.
    fn lookup(&self, fp: u64, tb: &mut Option<TraceBuilder>) -> Option<Arc<CachedPlan>> {
        span(tb, SpanKind::CacheLookup, || {
            let plan = self.shared.cache.get(fp);
            let counter = if plan.is_some() {
                &self.shared.counters.hits
            } else {
                &self.shared.counters.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
            plan
        })
    }

    /// The planning core for in-process callers that want the plan itself
    /// rather than response bytes: the cache lookup, single-flight
    /// dispatch and subscription a `plan` request runs, without ring
    /// routing or rendering.
    pub fn plan_values(
        &self,
        graph: &Value,
        cluster: &Value,
        options: &Value,
    ) -> (PlanSource, u64, PlanResult) {
        let triple = Arc::new(RequestTriple {
            graph: graph.clone(),
            cluster: cluster.clone(),
            options: options.clone(),
        });
        let fp = request_fingerprint_values(graph, cluster, options);
        self.record_request(fp, &triple);
        if let Some(plan) = self.lookup(fp, &mut None) {
            return (PlanSource::Cache, fp, Ok(plan));
        }
        match dispatch::attach(&self.shared, fp, &triple, None, None) {
            Attach::Resolved(source, result) => (source, fp, result),
            Attach::Pending(source, slot) => {
                let (tx, rx) = mpsc::sync_channel(1);
                dispatch::subscribe(
                    &slot,
                    Box::new(move |result: &PlanResult| {
                        let _ = tx.send(result.clone());
                    }),
                );
                (source, fp, rx.recv().expect("every queued job resolves its slot"))
            }
        }
    }

    /// The request path: never blocks the calling thread on a synthesis.
    /// Inline-answerable requests (cache hits, stats, shutdown, malformed
    /// frames, shed, redirects) return [`Submission::Ready`]; a queued or
    /// joined synthesis, or a proxy to the ring owner, returns
    /// [`Submission::Pending`] and `deliver` later receives the response.
    ///
    /// `tb` is the transport's trace builder (carrying the `accept`/`frame`
    /// spans on a socket); it travels with the request and comes back — as
    /// [`Submission::Ready::trace`] or through `deliver` — for the
    /// transport to seal once the bytes flush. `may_stream`: the transport
    /// honors a request's `"stream": true` (the event loop does,
    /// [`PlanService::handle_line`] does not).
    pub(crate) fn submit(
        &self,
        line: &str,
        mut tb: Option<TraceBuilder>,
        deliver: Deliver,
        may_stream: bool,
    ) -> Submission {
        if let Some(tb) = tb.as_mut() {
            tb.begin(SpanKind::Decode);
        }
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err((id, err)) => return self.ready_error(id, &err, tb),
        };
        let id = req.id;
        if let Some(tb) = tb.as_mut() {
            tb.set_request(id, req.op.verb());
        }
        match req.op {
            ReqOp::Plan(mut plan) => {
                plan.flags.stream &= may_stream;
                self.submit_plan(id, *plan, tb, deliver)
            }
            ReqOp::Replan(mut rp) => {
                rp.flags.stream &= may_stream;
                self.submit_replan(id, *rp, tb, deliver)
            }
            ReqOp::Frame(op) => {
                let shutdown = matches!(op, FrameOp::Shutdown);
                let bytes = encode_span(&mut tb, || frame_line(&self.frame(id, op)));
                Submission::Ready { bytes, shutdown, trace: seal(tb, Outcome::Ok) }
            }
        }
    }

    fn submit_plan(
        &self,
        id: u64,
        plan: PlanRequest,
        mut tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) -> Submission {
        let PlanRequest { triple, flags } = plan;
        let fp = request_fingerprint_values(&triple.graph, &triple.cluster, &triple.options);
        self.record_request(fp, &triple);
        let answer = Answer { id, fp, flags, prior: None };
        if let Some(cached) = self.lookup(fp, &mut tb) {
            let (bytes, outcome) =
                answer.render(&self.shared, PlanSource::Cache, &Ok(cached), false, &mut tb);
            return ready(bytes, tb, outcome);
        }
        // Cluster routing: a miss on a fingerprint another daemon owns is
        // proxied to that owner (ring-wide single-flight: only the owner
        // synthesizes).
        if let Some((owner, epoch)) = self.route(fp) {
            if flags.epoch.is_some_and(|stamp| stamp != epoch) {
                return self.redirect(id, owner, epoch, tb);
            }
            let body = vec![
                ("graph", triple.graph.clone()),
                ("cluster", triple.cluster.clone()),
                ("options", triple.options.clone()),
            ];
            let forward = forward_line("plan", id, body, flags, epoch);
            return self.proxy(owner, forward, answer, Ok(triple), tb, deliver);
        }
        answer_miss(&self.shared, answer, &triple, tb, deliver)
    }

    fn submit_replan(
        &self,
        id: u64,
        rp: ReplanRequest,
        mut tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) -> Submission {
        // Cluster routing keys on the *prior* fingerprint: its ring owner
        // holds the request triple and plan (pushed along with every
        // replication), so the rebase runs there.
        let route = self.route(rp.prior);
        if let Some((owner, epoch)) = &route {
            if rp.flags.epoch.is_some_and(|stamp| stamp != *epoch) {
                return self.redirect(id, owner.clone(), *epoch, tb);
            }
        }
        let forward = |epoch| {
            let body = vec![
                ("prior", Value::Str(render_fingerprint(rp.prior))),
                ("delta", rp.delta.encode()),
            ];
            forward_line("replan", id, body, rp.flags, epoch)
        };
        let prep = match replan::prepare(&self.shared, rp.prior, &rp.delta) {
            Ok(prep) => prep,
            Err(err) => match route {
                // A fingerprint this daemon never saw (or let expire) may
                // still live at its ring owner.
                Some((owner, epoch)) if err.kind == UNKNOWN_FINGERPRINT_KIND => {
                    // Nothing to plan here: the owner's relay or the error
                    // answers, so only the id and flags matter.
                    let answer = Answer { id, fp: rp.prior, flags: rp.flags, prior: None };
                    let unreachable = WireError::new(
                        UNKNOWN_FINGERPRINT_KIND,
                        format!(
                            "no request recorded for {} here and its ring owner is \
                             unreachable; plan it cold first",
                            render_fingerprint(rp.prior)
                        ),
                    );
                    return self.proxy(
                        owner,
                        forward(epoch),
                        answer,
                        Err(unreachable),
                        tb,
                        deliver,
                    );
                }
                _ => return self.ready_error(id, &err, tb),
            },
        };
        let answer =
            Answer { id, fp: prep.fp, flags: rp.flags, prior: Some((rp.prior, prep.prior)) };
        if let Some(cached) = self.lookup(prep.fp, &mut tb) {
            let (bytes, outcome) =
                answer.render(&self.shared, PlanSource::Cache, &Ok(cached), false, &mut tb);
            return ready(bytes, tb, outcome);
        }
        // The rebased plan is not cached here and the prior's ring owner is
        // another daemon: the synthesis belongs to the owner (ring-wide
        // single-flight). The local preparation rides along as the
        // fallback if the owner is unreachable.
        if let Some((owner, epoch)) = route {
            return self.proxy(owner, forward(epoch), answer, Ok(prep.triple), tb, deliver);
        }
        answer_miss(&self.shared, answer, &prep.triple, tb, deliver)
    }

    /// The ring owner of `fp` and the ring's epoch, when a ring is
    /// installed and the owner is another daemon.
    fn route(&self, fp: u64) -> Option<(String, u64)> {
        let (ring, self_addr) = self.shared.cluster.current()?;
        let owner = ring.primary(fp).filter(|p| *p != self_addr)?.to_string();
        Some((owner, ring.epoch()))
    }

    /// The typed `not_owner` answer to a request stamped with a different
    /// membership epoch than ours: routing disagreements bounce back to
    /// the client rather than chaining daemon-to-daemon forwards.
    fn redirect(
        &self,
        id: u64,
        owner: String,
        epoch: u64,
        mut tb: Option<TraceBuilder>,
    ) -> Submission {
        self.shared.counters.redirected.fetch_add(1, Ordering::Relaxed);
        let err = WireError::not_owner(owner, epoch);
        let bytes = encode_span(&mut tb, || frame_line(&error_frame(id, &err)));
        ready(bytes, tb, outcome_for_error(&err))
    }

    /// An error response, counted.
    fn ready_error(&self, id: u64, err: &WireError, mut tb: Option<TraceBuilder>) -> Submission {
        let bytes = encode_span(&mut tb, || error_line(&self.shared, id, err));
        ready(bytes, tb, outcome_for_error(err))
    }

    /// A counted error response for a frame that never became a request.
    pub(crate) fn render_error(&self, id: u64, err: &WireError) -> String {
        error_line(&self.shared, id, err)
    }

    /// The single response frame of a verb that neither plans nor routes.
    fn frame(&self, id: u64, op: FrameOp) -> Value {
        let ok = |key: &str, value: Value| {
            Value::obj(vec![("id", Value::int(id)), ("ok", Value::Bool(true)), (key, value)])
        };
        match op {
            FrameOp::Stats => ok("stats", self.stats().encode()),
            // The latency histograms.
            FrameOp::Metrics => ok("metrics", self.shared.telemetry.metrics_snapshot().encode()),
            // The most recent completed request traces, newest first.
            FrameOp::Trace { n, min_ms } => {
                let traces = self.shared.telemetry.recent_traces(n, min_ms);
                ok("traces", Value::Arr(traces.iter().map(|t| encode_trace(t)).collect()))
            }
            FrameOp::Ring(install) => self.ring_frame(id, install),
            FrameOp::Replicate(rep) => self.replicate_frame(id, *rep),
            FrameOp::Shutdown => ok_frame(id),
        }
    }

    /// `{"id":N,"ok":true,"ring":{...},"self":...,"installed":...}` — the
    /// daemon's current ring view, after applying an install if the
    /// request carried one. Installs are idempotent and monotonic: only a
    /// strictly newer membership epoch replaces the current ring, and the
    /// response always reports the ring the daemon actually holds.
    fn ring_frame(&self, id: u64, install: Option<Box<RingInstall>>) -> Value {
        let shared = &self.shared;
        let installed = match install {
            None => false,
            Some(ri) => shared.cluster.install(ri.info, ri.self_addr),
        };
        let (ring, self_addr) = match shared.cluster.current() {
            Some((ring, addr)) => (ring.info().clone(), addr),
            None => (
                RingInfo::empty(shared.config.ring_vnodes, shared.config.ring_replication),
                String::new(),
            ),
        };
        Value::obj(vec![
            ("id", Value::int(id)),
            ("ok", Value::Bool(true)),
            ("ring", ring.encode()),
            ("self", Value::Str(self_addr)),
            ("installed", Value::Bool(installed)),
        ])
    }

    /// Stores a peer-replicated plan: cache insert, replan-index record
    /// (when the pushed triple verifies against the fingerprint), and a
    /// persistence append — an acknowledged replica survives this
    /// daemon's restart too. Never counts as a synthesis: replication
    /// moves plans, it does not create them.
    fn replicate_frame(&self, id: u64, rep: ReplicateRequest) -> Value {
        let shared = &self.shared;
        shared.counters.replicated_in.fetch_add(1, Ordering::Relaxed);
        // Trust the pushed triple only if it fingerprints back to the
        // record's key — the same rule boot recovery applies to the log.
        let verified = rep
            .req
            .as_ref()
            .and_then(RequestTriple::decode_req)
            .filter(|t| request_fingerprint_values(&t.graph, &t.cluster, &t.options) == rep.fp);
        let req = rep.req.filter(|_| verified.is_some());
        if let Some(triple) = verified {
            lock_recover(&shared.replans).record(rep.fp, Arc::new(triple));
        }
        let plan = Arc::new(rep.plan);
        let verdict = shared.cache.insert(rep.fp, plan.clone());
        if !matches!(verdict, crate::cache::Admission::Rejected { .. }) {
            if let Some(persist) = &shared.persist {
                let _ = persist.append_with_req(&shared.cache, rep.fp, plan.as_ref(), req.as_ref());
            }
        }
        ok_frame(id)
    }

    /// Forwards a missed `plan` or `replan` to its ring owner on a peer
    /// thread. The owner's canonical response line is relayed unchanged
    /// (re-chunked locally when the client streams). An unreachable or
    /// ownership-denying owner falls back to answering here — a routing
    /// failure degrades to single-daemon behavior: the one miss tail on
    /// `local`'s triple, or `local`'s error when this daemon cannot plan
    /// the request itself.
    fn proxy(
        &self,
        owner: String,
        forward: String,
        answer: Answer,
        local: Result<Arc<RequestTriple>, WireError>,
        tb: Option<TraceBuilder>,
        deliver: Deliver,
    ) -> Submission {
        self.shared.counters.proxied.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared.clone();
        let deliver = deliver.owe(answer.id);
        self.shared.cluster.peers.spawn(Box::new(move || {
            let mut tb = tb;
            let relayed = shared
                .cluster
                .peers
                .call(&owner, &forward)
                .ok()
                .and_then(|resp| classify_proxy_reply(&resp).map(|r| (resp, r)));
            match (relayed, local) {
                (Some((resp, ProxyReply::Pass { outcome, is_plan })), _) => {
                    // Only a successful plan-bearing frame streams.
                    let stream_chunk = answer.stream_chunk(&shared).filter(|_| is_plan);
                    let bytes = encode_span(&mut tb, || line_frames(answer.id, resp, stream_chunk));
                    deliver.answer(bytes, seal(tb, outcome));
                }
                (_, Ok(triple)) => {
                    answer_miss(&shared, answer, &triple, tb, deliver);
                }
                (_, Err(err)) => {
                    let bytes = encode_span(&mut tb, || error_line(&shared, answer.id, &err));
                    deliver.answer(bytes, seal(tb, outcome_for_error(&err)));
                }
            }
        }));
        Submission::Pending
    }

    /// A consistent stats snapshot: every gauge is sampled exactly once,
    /// in one pass, so the frame's `entries`/`in_flight`/telemetry totals
    /// describe the same instant instead of racing each other between
    /// field reads.
    pub fn stats(&self) -> StatsSnapshot {
        let shared = &self.shared;
        let (entries, evictions, admission_rejected, expired) = shared.cache.stats_sample();
        let in_flight = lock_recover(&shared.inflight).len() as u64;
        let (traces_recorded, metrics_samples) = shared.telemetry.totals();
        StatsSnapshot {
            entries,
            hits: shared.counters.hits.load(Ordering::Relaxed),
            misses: shared.counters.misses.load(Ordering::Relaxed),
            coalesced: shared.counters.coalesced.load(Ordering::Relaxed),
            synthesized: shared.counters.synthesized.load(Ordering::Relaxed),
            evictions,
            warm_seeded: shared.counters.warm_seeded.load(Ordering::Relaxed),
            errors: shared.counters.errors.load(Ordering::Relaxed),
            in_flight,
            shed: shared.counters.shed.load(Ordering::Relaxed),
            admission_rejected,
            expired,
            replanned: shared.counters.replanned.load(Ordering::Relaxed),
            persist_errors: shared.persist.as_ref().map(PersistLog::errors).unwrap_or(0),
            persistence_degraded: shared.persist.as_ref().is_some_and(PersistLog::degraded) as u64,
            panics: shared.counters.panics.load(Ordering::Relaxed),
            open_connections: self.gauges.open_connections.load(Ordering::Relaxed),
            peak_connections: self.gauges.peak_connections.load(Ordering::Relaxed),
            read_buf_hwm: self.gauges.read_buf_hwm.load(Ordering::Relaxed),
            write_buf_hwm: self.gauges.write_buf_hwm.load(Ordering::Relaxed),
            idle_closed: self.gauges.idle_closed.load(Ordering::Relaxed),
            traces_recorded,
            metrics_samples,
            proxied: shared.counters.proxied.load(Ordering::Relaxed),
            redirected: shared.counters.redirected.load(Ordering::Relaxed),
            replicated_in: shared.counters.replicated_in.load(Ordering::Relaxed),
            replicated_out: shared.counters.replicated_out.load(Ordering::Relaxed),
            ring_epoch: shared.cluster.epoch(),
        }
    }

    /// The telemetry hub, for the transport's span stamping and trace
    /// sealing.
    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Drains the queue and stops the workers, then flushes any unsynced
    /// appends. Idempotent. A worker that somehow died of an un-isolated
    /// panic is logged as a failed join, never propagated — shutdown must
    /// always complete.
    pub fn stop(&self) {
        let (queue, cvar) = &self.shared.queue;
        lock_recover(queue).shutdown = true;
        cvar.notify_all();
        for handle in lock_recover(&self.workers).drain(..) {
            let _ = handle.join();
        }
        self.shared.cluster.peers.stop();
        if let Some(persist) = &self.shared.persist {
            persist.sync();
        }
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

/// The optional fields `plan` and `replan` share.
#[derive(Clone, Copy)]
struct PlanFlags {
    /// How long the synthesized plan should stay cached.
    ttl_ms: Option<u64>,
    /// `"stream": true` — chunk the response (honored by the event loop).
    stream: bool,
    /// `"profile": true` — include the synthesis profile in the response.
    profile: bool,
    /// The ring epoch the sender routed with, if it routed at all. A
    /// stamp at a different epoch than this daemon's means the sender's
    /// ring view is inconsistent with ours — answered with a `not_owner`
    /// redirect instead of a proxy, so ownership disagreements never
    /// chain daemon-to-daemon forwards.
    epoch: Option<u64>,
}

struct PlanRequest {
    triple: Arc<RequestTriple>,
    flags: PlanFlags,
}

struct ReplanRequest {
    /// Fingerprint of the previously planned request to start from. A
    /// replan routes by it — the daemon owning the prior fingerprint holds
    /// its triple and plan.
    prior: u64,
    /// How the cluster changed since that plan.
    delta: ClusterDelta,
    flags: PlanFlags,
}

/// A `ring` request carrying a membership record to install.
struct RingInstall {
    info: RingInfo,
    /// The address this daemon occupies on that ring (daemons do not
    /// guess their own externally-routable address).
    self_addr: String,
}

/// A peer's `replicate` push: store this plan under this fingerprint.
struct ReplicateRequest {
    fp: u64,
    plan: CachedPlan,
    /// The request triple behind `fp`, when the sender still had it —
    /// lets the replica answer replans against the fingerprint too.
    req: Option<Value>,
}

enum ReqOp {
    Plan(Box<PlanRequest>),
    Replan(Box<ReplanRequest>),
    /// A verb answered with one frame, without planning or routing.
    Frame(FrameOp),
}

enum FrameOp {
    Stats,
    Metrics,
    Trace {
        n: usize,
        min_ms: u64,
    },
    /// Query (`None`) or install (`Some`) the cluster membership ring.
    Ring(Option<Box<RingInstall>>),
    /// A peer replicating a freshly synthesized plan to this daemon.
    Replicate(Box<ReplicateRequest>),
    Shutdown,
}

impl ReqOp {
    /// The request's verb, for telemetry labeling.
    fn verb(&self) -> Verb {
        match self {
            ReqOp::Plan(_) => Verb::Plan,
            ReqOp::Replan(_) => Verb::Replan,
            ReqOp::Frame(FrameOp::Stats) => Verb::Stats,
            ReqOp::Frame(FrameOp::Metrics) => Verb::Metrics,
            ReqOp::Frame(FrameOp::Trace { .. }) => Verb::Trace,
            ReqOp::Frame(FrameOp::Ring(_)) => Verb::Ring,
            ReqOp::Frame(FrameOp::Replicate(_)) => Verb::Replicate,
            ReqOp::Frame(FrameOp::Shutdown) => Verb::Shutdown,
        }
    }
}

struct Request {
    id: u64,
    op: ReqOp,
}

impl Request {
    fn parse(line: &str) -> Result<Request, (u64, WireError)> {
        let v = parse(line).map_err(|e| (0, WireError::from(e)))?;
        let id = v.get("id").and_then(|x| x.as_u64().ok()).unwrap_or(0);
        let op = v
            .get("op")
            .and_then(|x| x.as_str().ok())
            .ok_or_else(|| (id, WireError::new("decode", "missing `op`")))?;
        match op {
            "plan" => {
                let fetch = |key: &str| v.field(key).cloned().map_err(|e| (id, WireError::from(e)));
                let triple = Arc::new(RequestTriple {
                    graph: fetch("graph")?,
                    cluster: fetch("cluster")?,
                    options: fetch("options")?,
                });
                let flags = parse_flags(&v, id)?;
                Ok(Request { id, op: ReqOp::Plan(Box::new(PlanRequest { triple, flags })) })
            }
            "replan" => {
                // Decode the delta at parse time: a malformed delta is a
                // protocol error, answered before any lookups run.
                let prior = v
                    .field("prior")
                    .and_then(|x| x.as_str())
                    .and_then(parse_fingerprint)
                    .map_err(|e| (id, WireError::from(e)))?;
                let delta_value = v.field("delta").map_err(|e| (id, WireError::from(e)))?;
                let delta =
                    ClusterDelta::decode(delta_value).map_err(|e| (id, WireError::from(e)))?;
                let flags = parse_flags(&v, id)?;
                Ok(Request {
                    id,
                    op: ReqOp::Replan(Box::new(ReplanRequest { prior, delta, flags })),
                })
            }
            "ring" => {
                // `{"op":"ring"}` queries; adding `"ring"` + `"self"`
                // installs that membership record on this daemon.
                let install = match v.get("ring") {
                    None | Some(Value::Null) => None,
                    Some(ring) => {
                        let info = RingInfo::decode(ring).map_err(|e| (id, WireError::from(e)))?;
                        let self_addr = v
                            .field("self")
                            .and_then(|x| x.as_str())
                            .map_err(|e| (id, WireError::from(e)))?
                            .to_string();
                        Some(Box::new(RingInstall { info, self_addr }))
                    }
                };
                Ok(Request { id, op: ReqOp::Frame(FrameOp::Ring(install)) })
            }
            "replicate" => {
                let fp = v
                    .field("fp")
                    .and_then(|x| x.as_str())
                    .and_then(parse_fingerprint)
                    .map_err(|e| (id, WireError::from(e)))?;
                let plan_value = v.field("plan").map_err(|e| (id, WireError::from(e)))?;
                let plan = CachedPlan::decode(plan_value).map_err(|e| (id, WireError::from(e)))?;
                let req = match v.get("req") {
                    None | Some(Value::Null) => None,
                    Some(req) => Some(req.clone()),
                };
                Ok(Request {
                    id,
                    op: ReqOp::Frame(FrameOp::Replicate(Box::new(ReplicateRequest {
                        fp,
                        plan,
                        req,
                    }))),
                })
            }
            "stats" => Ok(Request { id, op: ReqOp::Frame(FrameOp::Stats) }),
            "metrics" => Ok(Request { id, op: ReqOp::Frame(FrameOp::Metrics) }),
            "trace" => {
                // Both fields optional: `n` caps how many recent traces
                // come back (default 16), `min_ms` keeps only requests at
                // least that slow (default 0 = all).
                let n = match v.get("n") {
                    None | Some(Value::Null) => 16,
                    Some(x) => x.as_usize().map_err(|e| (id, WireError::from(e)))?,
                };
                let min_ms = match v.get("min_ms") {
                    None | Some(Value::Null) => 0,
                    Some(x) => x.as_u64().map_err(|e| (id, WireError::from(e)))?,
                };
                Ok(Request { id, op: ReqOp::Frame(FrameOp::Trace { n, min_ms }) })
            }
            "shutdown" => Ok(Request { id, op: ReqOp::Frame(FrameOp::Shutdown) }),
            other => Err((id, WireError::new("decode", format!("unknown op `{other}`")))),
        }
    }
}

/// The optional `ttl_ms`, `stream`, `profile`, and `epoch` request
/// fields, shared by `plan` and `replan`.
fn parse_flags(v: &Value, id: u64) -> Result<PlanFlags, (u64, WireError)> {
    // Optional cache-lifetime request: how long the synthesized plan
    // should stay valid (a tenant planning for a cluster it is about to
    // decommission bounds its own footprint).
    let ttl_ms = match v.get("ttl_ms") {
        None | Some(Value::Null) => None,
        Some(ms) => {
            let ms = ms.as_u64().map_err(|e| (id, WireError::from(e)))?;
            // Reject before any work: an unbounded TTL times 1e6 (ns)
            // would leave the codec's exact-integer range and panic the
            // persisting worker.
            if ms > MAX_TTL_MS {
                return Err((
                    id,
                    WireError::new(
                        "decode",
                        format!("ttl_ms {ms} exceeds the maximum {MAX_TTL_MS}"),
                    ),
                ));
            }
            Some(ms)
        }
    };
    let stream = match v.get("stream") {
        None | Some(Value::Null) => false,
        Some(flag) => flag.as_bool().map_err(|e| (id, WireError::from(e)))?,
    };
    let profile = match v.get("profile") {
        None | Some(Value::Null) => false,
        Some(flag) => flag.as_bool().map_err(|e| (id, WireError::from(e)))?,
    };
    // The sender's ring epoch, stamped by ring-routing clients and by
    // daemon-to-daemon proxy forwards.
    let epoch = match v.get("epoch") {
        None | Some(Value::Null) => None,
        Some(e) => Some(e.as_u64().map_err(|e| (id, WireError::from(e)))?),
    };
    Ok(PlanFlags { ttl_ms, stream, profile, epoch })
}

// ---------------------------------------------------------------------------
// Cluster proxying
// ---------------------------------------------------------------------------

/// A `plan` or `replan` forwarded to its ring owner: the request's own
/// fields, stamped with our ring epoch and never streamed — streaming is
/// client-transport framing, applied locally to the owner's canonical
/// line.
fn forward_line(
    op: &str,
    id: u64,
    body: Vec<(&str, Value)>,
    flags: PlanFlags,
    epoch: u64,
) -> String {
    let mut fields = vec![("op", Value::Str(op.into())), ("id", Value::int(id))];
    fields.extend(body);
    if let Some(ttl) = flags.ttl_ms {
        fields.push(("ttl_ms", Value::int(ttl)));
    }
    if flags.profile {
        fields.push(("profile", Value::Bool(true)));
    }
    fields.push(("epoch", Value::int(epoch)));
    Value::obj(fields).render()
}

/// What a proxied owner's response line means for the local request.
enum ProxyReply {
    /// Relay the line to the client.
    Pass {
        outcome: Outcome,
        /// A successful plan-bearing frame — the only shape that streams.
        is_plan: bool,
    },
    /// The peer denies owning the fingerprint (our ring view is stale, or
    /// its is): fall back rather than relay the denial.
    NotOwner,
}

/// Classifies the owner's response line. `None` — unparseable or not a
/// response frame — is treated like an I/O failure by callers.
fn classify_proxy_reply(resp: &str) -> Option<ProxyReply> {
    let v = parse(resp).ok()?;
    let ok = v.get("ok")?.as_bool().ok()?;
    if !ok {
        let err = WireError::decode(v.get("error")?).ok()?;
        if err.is_not_owner() {
            return Some(ProxyReply::NotOwner);
        }
        return Some(ProxyReply::Pass { outcome: outcome_for_error(&err), is_plan: false });
    }
    let outcome = if v.get("replan").is_some() {
        Outcome::Replan
    } else {
        match v.get("source").and_then(|s| s.as_str().ok()) {
            Some("cache") => Outcome::Hit,
            Some("coalesced") => Outcome::Coalesced,
            _ => Outcome::Miss,
        }
    };
    Some(ProxyReply::Pass { outcome, is_plan: v.get("plan").is_some() })
}

// ---------------------------------------------------------------------------
// Frame rendering
// ---------------------------------------------------------------------------

/// `{"id":N,"ok":false,"error":{...}}`.
fn error_frame(id: u64, err: &WireError) -> Value {
    Value::obj(vec![("id", Value::int(id)), ("ok", Value::Bool(false)), ("error", err.encode())])
}

/// `{"id":N,"ok":true}`.
fn ok_frame(id: u64) -> Value {
    Value::obj(vec![("id", Value::int(id)), ("ok", Value::Bool(true))])
}

/// The replan response's diff: compares cached plans by their canonical
/// instruction encodings and by the plan-level (ratio-final) estimated
/// times — the same numbers the response frames carry.
fn replan_diff(prior_fp: u64, prior: &CachedPlan, next: &CachedPlan) -> PlanDiff {
    PlanDiff::between(
        prior_fp,
        &prior.program,
        prior.estimated_time,
        &next.program,
        next.estimated_time,
    )
}

/// The reference form of a plan response as one [`Value`]: what
/// [`plan_line`] must reproduce byte for byte.
#[cfg(test)]
fn plan_frame_with(
    id: u64,
    fp: u64,
    source: PlanSource,
    plan: &CachedPlan,
    diff: Option<&PlanDiff>,
    profile: Option<&SynthProfile>,
) -> Value {
    let mut fields = vec![
        ("id", Value::int(id)),
        ("ok", Value::Bool(true)),
        ("fingerprint", Value::Str(render_fingerprint(fp))),
        ("source", Value::Str(source.as_str().into())),
        (
            "plan",
            Value::obj(vec![
                ("rounds", plan.rounds.encode()),
                ("estimated_time", Value::Num(plan.estimated_time)),
                ("ratios", plan.ratios.encode()),
                ("program", plan.program.encode()),
            ]),
        ),
    ];
    if let Some(diff) = diff {
        fields.push(("replan", diff.encode()));
    }
    if let Some(profile) = profile {
        fields.push(("profile", encode_profile(profile)));
    }
    Value::obj(fields)
}

/// The canonical plan response line,
/// `{"id":N,"ok":true,"fingerprint":...,"source":...,"plan":{...}}`,
/// optionally extended with a `replan` diff field (the response shape of
/// the `replan` verb) and/or a `profile` field (when the request carried
/// `"profile": true` and the synthesis profile is still indexed).
///
/// The `plan` object is the plan's memoized payload
/// ([`CachedPlan::payload`]), spliced in as rendered bytes: only the
/// per-request fields around it are rendered here. Every plan response
/// (hit, synthesized, coalesced, replan, streamed or not) is built here.
fn plan_line(
    id: u64,
    fp: u64,
    source: PlanSource,
    plan: &CachedPlan,
    diff: Option<&PlanDiff>,
    profile: Option<&SynthProfile>,
) -> String {
    let payload = plan.payload();
    // Room for the fields around the payload and the transport's newline.
    let mut line = String::with_capacity(payload.len() + 96);
    let field = |line: &mut String, key: &str, value: &Value| {
        line.push_str(key);
        value.render_into(line).expect("writing to a String cannot fail");
    };
    field(&mut line, "{\"id\":", &Value::int(id));
    line.push_str(",\"ok\":true");
    field(&mut line, ",\"fingerprint\":", &Value::Str(render_fingerprint(fp)));
    field(&mut line, ",\"source\":", &Value::Str(source.as_str().into()));
    line.push_str(",\"plan\":");
    line.push_str(payload);
    if let Some(diff) = diff {
        field(&mut line, ",\"replan\":", &diff.encode());
    }
    if let Some(profile) = profile {
        field(&mut line, ",\"profile\":", &encode_profile(profile));
    }
    line.push('}');
    line
}

/// One rendered frame plus its newline.
fn frame_line(frame: &Value) -> String {
    let mut line = frame.render();
    line.push('\n');
    line
}

/// An error response frame, counted in the `errors` stat.
fn error_line(shared: &Shared, id: u64, err: &WireError) -> String {
    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    frame_line(&error_frame(id, err))
}

/// The wire frames of a successful plan response: the canonical single
/// line, or — when the request advertised `"stream": true` — its chunked
/// encoding. The stream payload *is* the canonical line, so reassembly is
/// byte-identical to the unstreamed response.
fn plan_frames(
    id: u64,
    fp: u64,
    source: PlanSource,
    plan: &CachedPlan,
    diff: Option<&PlanDiff>,
    profile: Option<&SynthProfile>,
    stream_chunk: Option<usize>,
) -> String {
    line_frames(id, plan_line(id, fp, source, plan, diff, profile), stream_chunk)
}

/// A response line on the wire: the line plus its newline, or its chunked
/// stream encoding at `stream_chunk` bytes per chunk.
fn line_frames(id: u64, mut line: String, stream_chunk: Option<usize>) -> String {
    match stream_chunk {
        None => {
            line.push('\n');
            line
        }
        Some(chunk) => {
            let mut frames = String::with_capacity(line.len() + line.len() / 8);
            for frame in encode_stream(id, &line, chunk) {
                frames.push_str(&frame);
                frames.push('\n');
            }
            frames
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_codec::{parse_persist_line, StreamDecoder, StreamEvent};
    use proptest::prelude::*;

    /// Real plans to render: the committed v2 log fixture's records.
    fn fixture_plans() -> Vec<CachedPlan> {
        include_str!("../tests/fixtures/v2_cache.jsonl")
            .lines()
            .map(|line| parse_persist_line(line).expect("fixture line parses").1)
            .collect()
    }

    /// Reassembles a streamed response into its canonical line.
    fn reassemble(id: u64, frames: &str) -> String {
        let mut decoder = StreamDecoder::new(id);
        for frame in frames.split_terminator('\n') {
            let v = parse(frame).expect("stream frame parses");
            if let StreamEvent::Done(payload) = decoder.feed(&v).expect("valid stream") {
                return payload;
            }
        }
        panic!("stream ended without a done frame");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The spliced plan response equals the reference rendering of the
        /// whole frame as one value, for every source and optional field,
        /// over both transports, and whether or not the payload was
        /// rendered before.
        #[test]
        fn spliced_plan_frames_match_the_reference_rendering(
            id in 0u64..=1 << 53,
            fp in 0u64..u64::MAX,
            which in (0usize..3, 0usize..3, 0usize..3),
            extras in (0usize..2, 0usize..2, 0usize..2),
            chunk in 1usize..4096,
            counters in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        ) {
            let plans = fixture_plans();
            let (source, plan_at, prior_at) = which;
            let (with_diff, with_profile, fresh) = extras;
            let source = [PlanSource::Cache, PlanSource::Synthesized, PlanSource::Coalesced][source];
            let plan = if fresh == 1 {
                CachedPlan { payload: Default::default(), ..plans[plan_at].clone() }
            } else {
                plans[plan_at].clone()
            };
            let diff = (with_diff == 1).then(|| replan_diff(fp ^ 1, &plans[prior_at], &plan));
            let profile = (with_profile == 1).then(|| SynthProfile {
                waves: counters.0,
                expansions: counters.1,
                committed: counters.2,
                ..SynthProfile::default()
            });
            let reference =
                plan_frame_with(id, fp, source, &plan, diff.as_ref(), profile.as_ref()).render();
            let line = plan_line(id, fp, source, &plan, diff.as_ref(), profile.as_ref());
            prop_assert_eq!(&line, &reference);

            let unstreamed =
                plan_frames(id, fp, source, &plan, diff.as_ref(), profile.as_ref(), None);
            prop_assert_eq!(unstreamed, format!("{reference}\n"));
            let streamed =
                plan_frames(id, fp, source, &plan, diff.as_ref(), profile.as_ref(), Some(chunk));
            prop_assert_eq!(reassemble(id, &streamed), reference);
        }
    }

    #[test]
    fn a_cache_reloaded_from_its_log_serves_the_same_bytes() {
        let dir = std::env::temp_dir().join(format!("hap-service-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cache.jsonl");
        let _ = std::fs::remove_file(&path);
        let config =
            || ServiceConfig { cache_path: Some(path.clone()), ..ServiceConfig::default() };
        let line = crate::testing::request_line(&crate::testing::one_off_request(3), 41);

        let first = PlanService::new(config()).unwrap();
        let (cold, _) = first.handle_line(&line);
        let (hit, _) = first.handle_line(&line);
        first.stop();
        drop(first);
        assert!(cold.contains("\"source\":\"synthesized\""), "{cold:.200}");
        assert!(hit.contains("\"source\":\"cache\""), "{hit:.200}");

        let reloaded = PlanService::new(config()).unwrap();
        let (after, _) = reloaded.handle_line(&line);
        reloaded.stop();
        assert_eq!(reloaded.stats().synthesized, 0, "served from the reloaded log");
        assert_eq!(after, hit, "a reloaded plan renders the bytes the live cache served");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
