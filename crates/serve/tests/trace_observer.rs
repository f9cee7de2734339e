//! Tracing is a strict observer, and the `stats` op is chaos-proof.
//!
//! 1. Check replies are **byte-identical** with tracing fully on vs
//!    fully off, per sim-chaos seed — the acceptance criterion of the
//!    tracing PR. The trace echo is a pure function of the request, so
//!    flipping every server-side tracing knob must not move a byte.
//! 2. `stats` frames survive the chaos proxy: truncated or duplicated
//!    frames never wedge a connection, and the server stays fully
//!    serviceable afterwards.
//! 3. Unknown request types (a future client's op) get a well-formed
//!    `error` reply on the same schema, and the connection remains
//!    usable — forward/backward protocol compatibility.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use lfm_obs::json::Json;
use lfm_serve::{
    ChaosProxy, Client, LevelCaps, NetFaultPlan, Server, ServerConfig, ServerHandle, StatsSnapshot,
    TraceContext, SERVE_SCHEMA,
};

const CHAOS_SEEDS: [u64; 4] = [3, 17, 42, 1984];

fn config(trace: bool, chaos: Option<u64>) -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_cap: 16,
        caps: LevelCaps {
            max_steps: 2_000,
            max_schedules: 2_000,
        },
        chaos,
        trace,
        trace_slow_ms: if trace { Some(0) } else { None },
        ..ServerConfig::default()
    }
}

/// One raw frame over its own connection; the reply line, verbatim
/// (trailing newline stripped).
fn raw_roundtrip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    reply.trim_end().to_owned()
}

/// The acceptance criterion: identical request sequences against a
/// fully-traced server and an untraced one produce byte-identical
/// replies, for every chaos seed.
#[test]
fn check_replies_byte_identical_with_tracing_on_vs_off() {
    for seed in CHAOS_SEEDS {
        let traced = Server::start(config(true, Some(seed)), Arc::new(lfm_obs::NoopSink))
            .expect("traced server starts");
        let plain = Server::start(config(false, Some(seed)), Arc::new(lfm_obs::NoopSink))
            .expect("plain server starts");
        // The same sequence, in the same order (miss, hit, traced
        // request, ping), so cache state matches step for step.
        let trace = TraceContext::mint(seed, 0);
        let requests = [
            r#"{"schema":"lfm-serve/v1","op":"check","kernel":"abba","variant":"acquire-in-order"}"#.to_owned(),
            r#"{"schema":"lfm-serve/v1","op":"check","kernel":"abba","variant":"acquire-in-order"}"#.to_owned(),
            format!(
                r#"{{"schema":"lfm-serve/v1","op":"check","kernel":"toctou_flag","variant":"buggy","trace_id":"{:016x}","span_id":"{:016x}"}}"#,
                trace.trace_id, trace.span_id
            ),
            r#"{"schema":"lfm-serve/v1","op":"ping"}"#.to_owned(),
        ];
        for (i, request) in requests.iter().enumerate() {
            let with = raw_roundtrip(traced.addr(), request);
            let without = raw_roundtrip(plain.addr(), request);
            assert_eq!(
                with, without,
                "seed {seed}, request {i}: tracing moved reply bytes"
            );
            if i == 2 {
                // The echo is there — determined by the request alone.
                assert!(
                    with.contains(&format!("{:016x}", trace.trace_id)),
                    "seed {seed}: trace echo missing: {with}"
                );
            }
        }
        // The traced server actually captured timelines; the plain one
        // captured none — yet the wire bytes above were identical.
        assert!(traced.tracer().captured() > 0, "seed {seed}");
        assert_eq!(plain.tracer().captured(), 0, "seed {seed}");
        for handle in [traced, plain] {
            handle.request_shutdown();
            assert!(handle.wait().clean, "seed {seed}: unclean drain");
        }
    }
}

fn shutdown_clean(handle: ServerHandle) {
    handle.request_shutdown();
    assert!(handle.wait().clean);
}

/// Satellite: `stats` frames through the chaos proxy. Truncation,
/// duplication, drops and stalls may cost individual attempts, but
/// they never wedge a connection or the server — a fresh direct
/// `stats` afterwards answers with consistent counters.
#[test]
fn stats_frames_survive_the_chaos_proxy() {
    for seed in [CHAOS_SEEDS[1], CHAOS_SEEDS[3]] {
        let handle =
            Server::start(config(false, None), Arc::new(lfm_obs::NoopSink)).expect("server starts");
        let proxy =
            ChaosProxy::start(NetFaultPlan::new(seed), handle.addr()).expect("proxy starts");
        let chaos_client = Client::new(proxy.addr()).with_timeout(Duration::from_secs(2));
        let mut answered = 0u32;
        for _ in 0..24 {
            // Each attempt either yields a parseable snapshot or a
            // described transport failure — never a hang (the timeout
            // above bounds every read) and never a malformed success.
            if let Ok(snapshot) = chaos_client.stats() {
                assert_eq!(snapshot.queue_cap, 16);
                answered += 1;
            }
        }
        assert!(
            answered > 0,
            "seed {seed}: chaos defeated every stats attempt"
        );
        // The server came through unwedged: direct stats and checks
        // still work, and the chaos rounds were all counted.
        let direct = Client::new(handle.addr());
        let snapshot = direct.stats().expect("direct stats");
        assert!(snapshot.requests >= u64::from(answered));
        assert!(direct.ping(), "seed {seed}: server wedged after chaos");
        proxy.stop();
        shutdown_clean(handle);
    }
}

/// Satellite: frames from the future — ops this server has never heard
/// of — get a well-formed `error` reply on the lfm-serve/v1 schema,
/// and the connection keeps serving. Old clients talking to new
/// servers rely on exactly this.
#[test]
fn unknown_request_types_get_well_formed_error_replies() {
    let handle =
        Server::start(config(false, None), Arc::new(lfm_obs::NoopSink)).expect("server starts");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send_recv = |frame: &str| -> String {
        stream.write_all(frame.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply.trim_end().to_owned()
    };
    let unknown = [
        // A future op on the current schema.
        r#"{"schema":"lfm-serve/v1","op":"frobnicate","target":"everything"}"#,
        // A missing op.
        r#"{"schema":"lfm-serve/v1"}"#,
        // A foreign schema entirely.
        r#"{"schema":"acme-rpc/v9","op":"check"}"#,
        // Not even JSON.
        "definitely not json",
    ];
    for frame in unknown {
        let reply = send_recv(frame);
        let doc = Json::parse(&reply)
            .unwrap_or_else(|e| panic!("error reply not JSON for {frame:?}: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SERVE_SCHEMA),
            "{frame:?} -> {reply}"
        );
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("error"),
            "{frame:?} -> {reply}"
        );
    }
    // Same connection, still alive: a current-schema stats request and
    // a ping both answer.
    let stats_reply = send_recv(r#"{"schema":"lfm-serve/v1","op":"stats"}"#);
    let snapshot = StatsSnapshot::parse(&stats_reply).expect("stats after errors");
    assert_eq!(snapshot.errors, unknown.len() as u64);
    let pong = send_recv(r#"{"schema":"lfm-serve/v1","op":"ping"}"#);
    assert!(pong.contains("\"status\":\"pong\""), "{pong}");
    // Close our long-lived connection before asking for a clean drain.
    drop(reader);
    drop(stream);
    shutdown_clean(handle);
}
