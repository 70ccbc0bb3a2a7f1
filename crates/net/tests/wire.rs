//! Over-the-wire integration tests: exhaustion as a graceful status,
//! RAII release of a dropped connection's names, malformed traffic,
//! pipelining (split frames, bursts beyond the in-flight cap, oversized
//! prefixes), and graceful shutdown — all against a real server on a
//! loopback ephemeral port.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use renaming_net::{
    read_frame, write_frame, Client, ClientError, NameServer, Request, Response, ServerConfig,
    ServerHandle, Status, MAX_FRAME_LEN,
};
use renaming_service::{AcquireMode, Algorithm, NameService, SeedPolicy};
use serde_json::Value;

/// Spawns a server over `algorithm` with the given capacity; combining
/// mode, metrics, and the concurrency oracle on, handlers sized for
/// the tests' connection counts. With the oracle enabled, every test
/// in this file doubles as a wire-level history check.
fn spawn_server(algorithm: Algorithm, capacity: usize) -> ServerHandle {
    let service = NameService::builder(algorithm, capacity)
        .acquire_mode(AcquireMode::Combining)
        .metrics(true)
        .oracle(true)
        .seed_policy(SeedPolicy::Fixed(7))
        .build()
        .expect("service builds");
    NameServer::bind("127.0.0.1:0", service, ServerConfig::default())
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
}

fn occupancy(stats: &Value) -> u64 {
    stats
        .get("service")
        .and_then(|s| s.get("occupancy"))
        .and_then(|o| o.as_u64())
        .expect("stats carry service.occupancy")
}

/// Polls the server's stats until `predicate` holds or the deadline
/// passes; returns the last stats seen.
fn poll_stats(client: &mut Client, predicate: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().expect("stats");
        if predicate(&stats) || Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The ISSUE's wire exhaustion scenario: a capacity-1 strong namespace
/// (LinearScan gives namespace exactly 1), a second client's acquire
/// answers `Exhausted` — gracefully, the connection stays usable — and
/// a release heals it.
#[test]
fn exhaustion_is_graceful_and_release_heals() {
    let handle = spawn_server(Algorithm::LinearScan, 1);
    let mut first = Client::connect(handle.addr()).expect("connect");
    let mut second = Client::connect(handle.addr()).expect("connect");

    let name = first.acquire().expect("the single name");
    let error = second.acquire().expect_err("namespace is full");
    assert!(error.is_exhausted(), "got {error}");
    match &error {
        ClientError::Server { status, detail } => {
            assert_eq!(*status, Status::Exhausted);
            assert!(!detail.is_empty(), "detail carries the library display");
        }
        other => panic!("expected a server status, got {other}"),
    }

    // The same connection is still good: release on the first client
    // heals the namespace for the second.
    first.release(name).expect("release");
    let healed = second.acquire().expect("heals after release");
    assert_eq!(healed, name, "strong namespace of size 1 has one name");
    second.release(healed).expect("release");
    handle.stop().expect("stop");
}

/// RAII over the wire: dropping a client connection without releasing
/// returns every name it held — occupancy provably returns to zero in
/// the `Stats` answer, and the oracle's event counters agree that the
/// forced drain released exactly the wins.
#[test]
fn dropped_connection_releases_its_names() {
    let handle = spawn_server(Algorithm::Rebatching, 16);
    let mut observer = Client::connect(handle.addr()).expect("connect");

    let mut holder = Client::connect(handle.addr()).expect("connect");
    let names = holder.acquire_many(3).expect("pipeline");
    assert!(names.iter().all(Result::is_ok), "{names:?}");
    let stats = poll_stats(&mut observer, |s| occupancy(s) == 3);
    assert_eq!(occupancy(&stats), 3);

    // Drop the holder without releasing anything.
    drop(holder);
    let stats = poll_stats(&mut observer, |s| occupancy(s) == 0);
    assert_eq!(occupancy(&stats), 0, "dropped session must drain: {stats}");

    // The session drain went through the recorded release path: the
    // oracle saw three wins and three matching releases, none live.
    let oracle = stats.get("oracle").expect("oracle section");
    assert_eq!(oracle.get("wins").and_then(Value::as_u64), Some(3));
    assert_eq!(oracle.get("released").and_then(Value::as_u64), Some(3));
    assert_eq!(oracle.get("live").and_then(Value::as_u64), Some(0));
    assert_eq!(oracle.get("record_violations").and_then(Value::as_u64), Some(0));
    handle.stop().expect("stop");
}

/// Pipelined acquires answer in request order, with per-request
/// statuses: a capacity-2 namespace answering a depth-4 pipeline gives
/// two names then two graceful `Exhausted`s.
#[test]
fn pipeline_mixes_names_and_exhaustion_in_order() {
    let handle = spawn_server(Algorithm::LinearScan, 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let outcomes = client.acquire_many(4).expect("pipeline");
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "{outcomes:?}");
    for outcome in &outcomes[2..] {
        assert!(
            matches!(outcome, Err(e) if e.is_exhausted()),
            "{outcomes:?}"
        );
    }
    handle.stop().expect("stop");
}

/// Payload-level garbage (unknown opcode, wrong version) answers
/// `Malformed` and keeps the connection usable; the `NotHeld` guard
/// rejects releasing a name this connection never acquired.
#[test]
fn malformed_requests_and_foreign_releases_are_rejected_gracefully() {
    let handle = spawn_server(Algorithm::Rebatching, 8);

    // Speak framed garbage by hand: a well-framed payload with an
    // unknown opcode...
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut raw = stream.try_clone().expect("clone");
    write_frame(&mut raw, &[1u8, 0x7f]).expect("frame");
    // ...and one with a bad version.
    write_frame(&mut raw, &[9u8, 1u8]).expect("frame");
    raw.flush().expect("flush");
    let mut reader = std::io::BufReader::new(stream);
    for _ in 0..2 {
        let payload = renaming_net::read_frame(&mut reader, renaming_net::MAX_FRAME_LEN)
            .expect("response")
            .expect("still open");
        match renaming_net::Response::decode(&payload).expect("decodes") {
            renaming_net::Response::Error { status, .. } => assert_eq!(status, Status::Malformed),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
    // The connection survived: a real acquire still works on it.
    write_frame(&mut raw, &Request::Acquire.encode()).expect("frame");
    raw.flush().expect("flush");
    let payload = renaming_net::read_frame(&mut reader, renaming_net::MAX_FRAME_LEN)
        .expect("response")
        .expect("still open");
    assert!(matches!(
        renaming_net::Response::decode(&payload).expect("decodes"),
        renaming_net::Response::Name(_)
    ));
    drop(raw);
    drop(reader);

    // A separate client cannot release names it does not hold.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let name = client.acquire().expect("acquire");
    let mut thief = Client::connect(handle.addr()).expect("connect");
    match thief.release(name).expect_err("not this connection's name") {
        ClientError::Server { status, .. } => assert_eq!(status, Status::NotHeld),
        other => panic!("expected NotHeld, got {other}"),
    }
    client.release(name).expect("rightful owner releases");
    handle.stop().expect("stop");
}

/// The `Stats` answer carries the documented shape: server counters,
/// service occupancy/capacity/workers, and — with metrics on — both
/// latency histograms with counts and interpolated quantiles.
#[test]
fn stats_shape_is_complete() {
    let handle = spawn_server(Algorithm::FastAdaptive, 8);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let name = client.acquire().expect("acquire");
    client.release(name).expect("release");
    let stats = client.stats().expect("stats");

    let server = stats.get("server").expect("server section");
    assert!(server.get("connections_live").and_then(Value::as_u64) >= Some(1));
    assert!(server.get("requests").and_then(Value::as_u64) >= Some(3));
    let service = stats.get("service").expect("service section");
    assert_eq!(service.get("capacity").and_then(Value::as_u64), Some(8));
    let workers = service.get("workers").expect("workers section");
    for key in ["created", "pooled", "retired", "resident"] {
        assert!(workers.get(key).and_then(Value::as_u64).is_some(), "{key}");
    }
    let latency = stats.get("latency").expect("latency section");
    let acquire = latency.get("acquire").expect("acquire histogram");
    assert!(acquire.get("count").and_then(Value::as_u64) >= Some(1));
    assert!(acquire.get("p99_nanos").and_then(Value::as_f64).is_some());
    let release = latency.get("release").expect("release histogram");
    assert!(release.get("count").and_then(Value::as_u64) >= Some(1));
    let oracle = stats.get("oracle").expect("oracle section");
    for key in [
        "participants",
        "starts",
        "wins",
        "releases",
        "guard_drops",
        "released",
        "fails",
        "live",
        "snapshots",
        "record_violations",
    ] {
        assert!(oracle.get(key).and_then(Value::as_u64).is_some(), "{key}");
    }
    assert!(oracle.get("wins").and_then(Value::as_u64) >= Some(1));
    handle.stop().expect("stop");
}

/// The ISSUE's wire-level oracle scenario: several concurrent clients
/// churn acquire/release over loopback against an oracle-instrumented
/// service. After the traffic drains, the `Stats` oracle summary
/// accounts for every operation and the full history verdict — read
/// out of band through [`ServerHandle::service`] — is clean and
/// drained: no overlapping holds, bounds respected, workers conserved.
#[test]
fn wire_churn_yields_a_clean_oracle_verdict() {
    let handle = spawn_server(Algorithm::Rebatching, 16);
    let clients = 4usize;
    let rounds = 40usize;
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut client = Client::connect(handle.addr()).expect("connect");
                for round in 0..rounds {
                    if round % 4 == 3 {
                        // Every fourth round pipelines a pair, so the
                        // combiner sees real batches over the wire.
                        let names = client.acquire_many(2).expect("pipeline");
                        for name in names {
                            client.release(name.expect("within capacity")).expect("release");
                        }
                    } else {
                        let name = client.acquire().expect("within capacity");
                        client.release(name).expect("release");
                    }
                }
            });
        }
    });

    let expected_wins = (clients * (rounds + rounds / 4)) as u64;
    let mut observer = Client::connect(handle.addr()).expect("connect");
    let stats = poll_stats(&mut observer, |s| occupancy(s) == 0);
    assert_eq!(occupancy(&stats), 0, "churn must drain: {stats}");
    let oracle = stats.get("oracle").expect("oracle section");
    assert_eq!(oracle.get("wins").and_then(Value::as_u64), Some(expected_wins));
    assert_eq!(oracle.get("released").and_then(Value::as_u64), Some(expected_wins));
    assert_eq!(oracle.get("live").and_then(Value::as_u64), Some(0));
    assert_eq!(oracle.get("record_violations").and_then(Value::as_u64), Some(0));

    // Out-of-band verdict: replay the full recorded history.
    let verdict = handle
        .service()
        .oracle_verdict()
        .expect("server built with the oracle");
    assert!(
        verdict.is_clean(),
        "wire churn must check out: {:?}",
        verdict.history.violations
    );
    assert!(verdict.drained(), "nothing held after the churn");
    assert!(verdict.history.complete, "history replays to completion");
    assert_eq!(verdict.history.wins, expected_wins);
    assert_eq!(verdict.history.released(), expected_wins);
    handle.stop().expect("stop");
}

/// Names held by the connection a `Stats` answer was sent on.
fn session_held(stats: &Value) -> u64 {
    stats
        .get("session")
        .and_then(|s| s.get("held"))
        .and_then(Value::as_u64)
        .expect("stats carry session.held")
}

/// Reads one response frame off a raw connection.
fn read_response(reader: &mut std::io::BufReader<TcpStream>) -> Response {
    let payload = read_frame(reader, MAX_FRAME_LEN)
        .expect("response frame")
        .expect("connection still open");
    Response::decode(&payload).expect("decodes")
}

/// Reads `count` acquire answers and then one `Stats` answer: every
/// acquire must carry a name, the names must be distinct, and the
/// `Stats` answer — the last request sent — must come last and count
/// them all in the connection's session.
fn expect_names_then_stats(reader: &mut std::io::BufReader<TcpStream>, count: usize) {
    let mut names = Vec::with_capacity(count);
    for i in 0..count {
        match read_response(reader) {
            Response::Name(name) => names.push(name),
            other => panic!("answer {i}: expected a name, got {other:?}"),
        }
    }
    let mut distinct = names.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), count, "names must be distinct: {names:?}");
    match read_response(reader) {
        Response::Stats(stats) => assert_eq!(session_held(&stats), count as u64, "{stats}"),
        other => panic!("expected the Stats answer last, got {other:?}"),
    }
}

/// One request's frame, length prefix included.
fn frame(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &request.encode()).expect("frame");
    bytes
}

/// Frames that straddle reads: a length prefix split in two writes, and
/// its payload arriving in a third write together with the next frames.
/// The server decodes whole buffered frames in place and falls back to
/// the blocking frame read for a partial one; either way every request
/// is answered, in order.
#[test]
fn frames_split_across_writes_are_answered_in_order() {
    let handle = spawn_server(Algorithm::Rebatching, 16);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut raw = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);

    let acquire = frame(&Request::Acquire);
    let (prefix, payload) = acquire.split_at(4);
    let pause = || std::thread::sleep(Duration::from_millis(50));
    // A whole frame plus half of the next prefix...
    raw.write_all(&[acquire.as_slice(), &prefix[..2]].concat()).expect("write");
    pause();
    // ...the rest of that prefix alone...
    raw.write_all(&prefix[2..]).expect("write");
    pause();
    // ...then its payload, one more whole frame and a Stats request.
    raw.write_all(&[payload, acquire.as_slice(), &frame(&Request::Stats)].concat())
        .expect("write");
    expect_names_then_stats(&mut reader, 3);

    // A prefix whose payload arrives in a later write on its own.
    raw.write_all(prefix).expect("write");
    pause();
    raw.write_all(&[payload, &frame(&Request::Stats)].concat()).expect("write");
    match read_response(&mut reader) {
        Response::Name(_) => {}
        other => panic!("expected a name, got {other:?}"),
    }
    match read_response(&mut reader) {
        Response::Stats(stats) => assert_eq!(session_held(&stats), 4, "{stats}"),
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(raw);
    drop(reader);
    handle.stop().expect("stop");
}

/// A burst larger than `max_pipeline` in one write: the server answers
/// it in capped batches, in request order, with distinct names.
#[test]
fn burst_beyond_max_pipeline_is_answered_in_order() {
    let handle = spawn_server(Algorithm::Rebatching, 64);
    assert_eq!(ServerConfig::default().max_pipeline, 32);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut raw = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);

    let mut burst = Vec::new();
    for _ in 0..40 {
        burst.extend_from_slice(&frame(&Request::Acquire));
    }
    burst.extend_from_slice(&frame(&Request::Stats));
    raw.write_all(&burst).expect("one write");
    expect_names_then_stats(&mut reader, 40);
    drop(raw);
    drop(reader);

    let mut observer = Client::connect(handle.addr()).expect("connect");
    let stats = poll_stats(&mut observer, |s| occupancy(s) == 0);
    assert_eq!(occupancy(&stats), 0, "the closed session drains: {stats}");
    handle.stop().expect("stop");
}

/// An oversized length prefix is a framing error: the server ends the
/// connection without allocating the announced payload — also when it
/// sits in the read buffer behind a whole frame — and counts it in
/// `protocol_errors`.
#[test]
fn oversized_prefix_ends_the_connection_and_counts_a_protocol_error() {
    let handle = spawn_server(Algorithm::Rebatching, 8);
    let mut observer = Client::connect(handle.addr()).expect("connect");
    let oversized = (MAX_FRAME_LEN + 1).to_le_bytes();
    let protocol_errors = |stats: &Value| {
        stats
            .get("server")
            .and_then(|s| s.get("protocol_errors"))
            .and_then(Value::as_u64)
            .expect("stats carry server.protocol_errors")
    };
    for (expected, bytes) in [
        (1, oversized.to_vec()),
        (2, [frame(&Request::Acquire).as_slice(), &oversized].concat()),
    ] {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut raw = stream.try_clone().expect("clone");
        raw.write_all(&bytes).expect("write");
        let mut reader = std::io::BufReader::new(stream);
        assert!(
            matches!(read_frame(&mut reader, MAX_FRAME_LEN), Ok(None) | Err(_)),
            "the server must close the connection"
        );
        let stats = poll_stats(&mut observer, |s| protocol_errors(s) == expected);
        assert_eq!(protocol_errors(&stats), expected, "{stats}");
        assert_eq!(occupancy(&stats), 0, "{stats}");
    }
    handle.stop().expect("stop");
}

/// A wire `Shutdown` is acknowledged, stops the accept loop, and joins
/// every handler — `join` returning proves the graceful path, and a
/// fresh connection afterwards must not be served.
#[test]
fn graceful_shutdown_over_the_wire() {
    let handle = spawn_server(Algorithm::Rebatching, 8);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("acknowledged");
    handle.join().expect("server stopped on its own");

    // The listener is gone (or at best refuses service): a new client
    // cannot complete a round trip.
    if let Ok(mut late) = Client::connect(addr) {
        assert!(late.acquire().is_err(), "no service after shutdown");
    }
}
