//! The one request pipeline: [`PlanService::handle_line`] submits through
//! the path a socket request takes, so in process and on the wire a
//! request gets the same bytes, the same counters and the same ring
//! routing — and a request whose continuation is dropped at shutdown
//! still gets an answer instead of a hang.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use hap_codec::{parse, render_fingerprint, Decode, Encode, Value, WireError};
use hap_service::testing::{self, hot_request, one_off_request, replan_delta, StressCluster};
use hap_service::{PlanService, Ring, RingInfo, Server, ServiceConfig, StatsSnapshot};

/// `line` (a JSON object) with `extra` fields appended.
fn with_fields(line: &str, extra: Vec<(&str, Value)>) -> String {
    let Ok(Value::Obj(mut fields)) = parse(line) else { panic!("not a JSON object: {line}") };
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Obj(fields).render()
}

fn replan_line(id: u64, prior: u64) -> String {
    Value::obj(vec![
        ("op", Value::Str("replan".into())),
        ("id", Value::int(id)),
        ("prior", Value::Str(render_fingerprint(prior))),
        ("delta", replan_delta(0).encode()),
    ])
    .render()
}

/// Sends each line over one connection and collects the response lines,
/// newline included.
fn over_socket(addr: impl std::net::ToSocketAddrs, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            writer.write_all(format!("{line}\n").as_bytes()).expect("write request");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read response");
            response
        })
        .collect()
}

/// The counters a request sequence moves.
fn counters(s: &StatsSnapshot) -> [u64; 8] {
    [s.hits, s.misses, s.coalesced, s.synthesized, s.warm_seeded, s.errors, s.replanned, s.entries]
}

#[test]
fn handle_line_bytes_equal_socket_bytes() {
    let req = hot_request(0);
    let plan = |id| testing::request_line(&req, id);
    let lines = vec![
        plan(1),                                                     // plan miss
        plan(2),                                                     // plan hit
        with_fields(&plan(3), vec![("profile", Value::Bool(true))]), // profile hit
        replan_line(4, req.fingerprint()),                           // replan miss
        replan_line(5, req.fingerprint()),                           // replan hit
        replan_line(6, 0x0123_4567_89ab_cdef),                       // unknown prior
        r#"{"op":"plan","id":7,"graph":"#.to_string(),               // malformed JSON
        r#"{"op":"frobnicate","id":8}"#.to_string(),                 // unknown op
    ];

    let service = PlanService::new(ServiceConfig::default()).unwrap();
    let in_process: Vec<String> =
        lines.iter().map(|line| format!("{}\n", service.handle_line(line).0)).collect();
    let server = Server::start(ServiceConfig::default()).unwrap();
    let on_wire = over_socket(server.addr(), &lines);

    for (i, (local, wire)) in in_process.iter().zip(&on_wire).enumerate() {
        assert_eq!(local, wire, "frame {i} differs between handle_line and the socket");
    }
    let source = |i: usize| parse(&in_process[i]).unwrap().get("source").cloned();
    let synthesized = Some(Value::Str("synthesized".into()));
    let cache = Some(Value::Str("cache".into()));
    assert_eq!(
        [source(0), source(1), source(2)],
        [synthesized.clone(), cache.clone(), cache.clone()]
    );
    assert_eq!([source(3), source(4)], [synthesized, cache]);
    assert!(in_process[2].contains("\"profile\":{"), "{}", in_process[2]);
    assert!(in_process[3].contains("\"replan\":{"), "{}", in_process[3]);
    for (i, kind) in [(5, "unknown_fingerprint"), (6, "parse"), (7, "decode")] {
        let v = parse(&in_process[i]).unwrap();
        let err = WireError::decode(v.field("error").unwrap()).unwrap();
        assert_eq!(err.kind, kind, "frame {i}: {}", in_process[i]);
    }
    assert_eq!(counters(&service.stats()), counters(&server.service().stats()));
    service.stop();
}

#[test]
fn handle_line_redirects_a_stale_epoch_like_the_socket() {
    let cluster = StressCluster::start(2, 1, |_, _| {});
    // A request node 1 owns, sent to node 0 stamped with an older epoch.
    let req = (0..64)
        .map(one_off_request)
        .find(|r| cluster.primary_index(r.fingerprint()) == 1)
        .expect("some request is owned by node 1");
    let stale = cluster.epoch() - 1;
    let line = with_fields(&testing::request_line(&req, 9), vec![("epoch", Value::int(stale))]);

    let wire = over_socket(cluster.addr(0), std::slice::from_ref(&line)).remove(0);
    let (local, shutdown) = cluster.service(0).handle_line(&line);
    assert!(!shutdown);
    assert_eq!(format!("{local}\n"), wire);
    let v = parse(&local).unwrap();
    let err = WireError::decode(v.field("error").unwrap()).unwrap();
    assert!(err.is_not_owner(), "{local}");
    assert_eq!(err.owner.as_deref(), Some(cluster.addr(1)));
    assert_eq!(err.ring_epoch, Some(cluster.epoch()));
    assert_eq!(cluster.service(0).stats().redirected, 2);
    assert_eq!(cluster.total(|s| s.synthesized), 0, "a redirect synthesizes nothing");
}

#[test]
fn a_proxy_dropped_at_shutdown_still_answers() {
    let service = Arc::new(PlanService::new(ServiceConfig::default()).unwrap());
    // Nothing listens on port 1: the other member is unreachable.
    let (me, owner) = ("127.0.0.1:2", "127.0.0.1:1");
    let info = RingInfo {
        epoch: 1,
        vnodes: 16,
        replication: 1,
        members: vec![me.to_string(), owner.to_string()],
    };
    let ring = Ring::build(info.clone());
    let req = (0..64)
        .map(one_off_request)
        .find(|r| ring.primary(r.fingerprint()) == Some(owner))
        .expect("some request is owned by the other member");
    let install = Value::obj(vec![
        ("op", Value::Str("ring".into())),
        ("id", Value::int(1)),
        ("ring", info.encode()),
        ("self", Value::Str(me.into())),
    ]);
    let (installed, _) = service.handle_line(&install.render());
    assert!(installed.contains("\"installed\":true"), "{installed}");

    // Stopped, the peer pool drops the proxy job instead of running it.
    service.stop();
    let (tx, rx) = mpsc::channel();
    let line = testing::request_line(&req, 7);
    let caller = Arc::clone(&service);
    std::thread::spawn(move || tx.send(caller.handle_line(&line).0));
    let response = rx.recv_timeout(Duration::from_secs(10)).expect("handle_line answers promptly");

    let v = parse(&response).unwrap();
    assert_eq!(v.field("id").unwrap().as_u64().unwrap(), 7, "{response}");
    let err = WireError::decode(v.field("error").unwrap()).unwrap();
    assert_eq!(err.kind, "shutdown", "{response}");
    assert_eq!(service.stats().proxied, 1, "the request took the proxy route");
}
