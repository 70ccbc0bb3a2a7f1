//! `wire-serial` and `wire-pipelined`: an in-process `NameServer` shaped
//! like `renaming-server`'s defaults, driven by the benchmark's own
//! closed-loop clients over the public frame codec; plus a bare framed
//! loopback echo, the network floor under both.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use renaming_net::{
    read_frame, write_frame, NameServer, Request, Response, ServerConfig, ServerHandle,
    MAX_FRAME_LEN,
};
use renaming_service::{AcquireMode, Algorithm, NameService, PoolKind, SeedPolicy};

use crate::check::Checker;
use crate::hist::Hist;
use crate::trace::{counting_rebatching, CoreTrace, TracedBackend};
use crate::{Measured, Tracing, THREADS};

const CAPACITY: usize = 128;
/// `wire-serial`: names a connection holds before it releases the oldest.
const SERIAL_HOLD: usize = 4;
/// `wire-pipelined`: acquires (and releases) per flush.
const PIPELINE: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Serial,
    Pipelined,
}

/// One client connection: buffered both ways, Nagle off (as the
/// server's side is).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone the socket")),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, request: &Request) {
        write_frame(&mut self.writer, &request.encode()).expect("buffer a frame");
    }

    fn flush(&mut self) {
        self.writer.flush().expect("flush to the server");
    }

    fn recv_payload(&mut self) -> Vec<u8> {
        read_frame(&mut self.reader, MAX_FRAME_LEN)
            .expect("read a frame")
            .expect("server closed the connection mid-run")
    }

    fn recv(&mut self) -> Response {
        Response::decode(&self.recv_payload()).expect("decode a response")
    }
}

pub struct Wire {
    server: ServerHandle,
    conns: Vec<Conn>,
    checker: Checker,
    pub tracing: Option<Tracing>,
}

impl Wire {
    /// Builds the service, binds and spawns the server, and connects
    /// [`THREADS`] clients.
    pub fn setup(seed: u64, traced: bool) -> Wire {
        let policy = SeedPolicy::Fixed(seed);
        let (service, tracing) = if traced {
            let (backend, tas) = counting_rebatching(CAPACITY).expect("valid parameters");
            let core = Arc::new(CoreTrace::default());
            let traced = TracedBackend::new(backend, Arc::clone(&core));
            let service = NameService::with_backend_pool(
                Arc::new(traced),
                policy,
                PoolKind::Sharded,
                None,
                AcquireMode::Combining,
            );
            (service, Some(Tracing { core, tas }))
        } else {
            let service = NameService::builder(Algorithm::Rebatching, CAPACITY)
                .acquire_mode(AcquireMode::Combining)
                .seed_policy(policy)
                .build()
                .expect("valid parameters");
            (service, None)
        };
        let checker = Checker::new(service.namespace_size());
        let config = ServerConfig::default();
        assert!(
            config.handlers >= THREADS,
            "every connection needs a handler"
        );
        let server = NameServer::bind("127.0.0.1:0", service, config)
            .and_then(NameServer::spawn)
            .expect("bind and spawn the server");
        let conns = (0..THREADS).map(|_| Conn::connect(server.addr())).collect();
        Wire {
            server,
            conns,
            checker,
            tracing,
        }
    }

    /// Runs every connection's closed loop for `duration`, then has each
    /// release what it still holds (untimed).
    pub fn measure(&mut self, shape: Shape, duration: Duration, time_codec: bool) -> Measured {
        let barrier = Barrier::new(self.conns.len() + 1);
        let checker = &self.checker;
        let per_conn: Vec<Measured> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        match shape {
                            Shape::Serial => serial(conn, checker, duration, time_codec),
                            Shape::Pipelined => pipelined(conn, checker, duration, time_codec),
                        }
                    })
                })
                .collect();
            barrier.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        Measured::merge_all(per_conn)
    }

    /// Reads the server's occupancy over the wire (must be 0 once every
    /// client has released), then closes the connections and stops the
    /// server.
    pub fn teardown(mut self) -> usize {
        let conn = &mut self.conns[0];
        conn.send(&Request::Stats);
        conn.flush();
        let occupancy = match conn.recv() {
            Response::Stats(stats) => stats
                .get("service")
                .and_then(|s| s.get("occupancy"))
                .and_then(|o| o.as_u64())
                .expect("Stats carries service.occupancy"),
            other => panic!("Stats answered {other:?}"),
        };
        drop(self.conns);
        self.server.stop().expect("stop the server");
        occupancy as usize
    }
}

/// Checks one acquire answer; returns the name if the caller now holds
/// it.
fn take_name(response: Response, checker: &Checker, m: &mut Measured) -> Option<u64> {
    match response {
        Response::Name(name) => {
            if usize::try_from(name).is_ok_and(|n| checker.issued(n)) {
                Some(name)
            } else {
                m.violations += 1;
                None
            }
        }
        _ => {
            m.errors += 1;
            None
        }
    }
}

fn check_released(response: Response, m: &mut Measured) -> bool {
    let ok = matches!(response, Response::Released);
    if !ok {
        m.errors += 1;
    }
    ok
}

/// Returns every name in `held` in one flush and checks each answer.
fn release_all(
    conn: &mut Conn,
    checker: &Checker,
    held: impl IntoIterator<Item = u64>,
    m: &mut Measured,
) {
    let mut count = 0;
    for name in held {
        checker.returning(name as usize);
        conn.send(&Request::Release { name });
        count += 1;
    }
    conn.flush();
    for _ in 0..count {
        check_released(conn.recv(), m);
    }
}

/// One request in flight: acquire until [`SERIAL_HOLD`] names are held,
/// then alternate release-oldest / acquire. With `time_codec`, the
/// client-side encode and decode time is recorded too.
fn serial(conn: &mut Conn, checker: &Checker, duration: Duration, time_codec: bool) -> Measured {
    let mut m = Measured::default();
    let mut held: VecDeque<u64> = VecDeque::with_capacity(SERIAL_HOLD);
    let start = Instant::now();
    let mut now = start;
    while now - start < duration {
        m.attempted += 1;
        let acquiring = held.len() < SERIAL_HOLD;
        let encode_start = time_codec.then(Instant::now);
        if acquiring {
            conn.send(&Request::Acquire);
        } else {
            let name = *held.front().expect("holding SERIAL_HOLD names");
            checker.returning(name as usize);
            conn.send(&Request::Release { name });
        }
        let t0 = Instant::now();
        conn.flush();
        let payload = conn.recv_payload();
        now = Instant::now();
        let response = Response::decode(&payload).expect("decode a response");
        if let Some(encode_start) = encode_start {
            m.codec_ns += nanos(t0 - encode_start) + nanos(now.elapsed());
            m.codec_frames += 1;
        }
        if acquiring {
            if let Some(name) = take_name(response, checker, &mut m) {
                m.acquire.record(now - t0);
                held.push_back(name);
            }
        } else {
            held.pop_front();
            if check_released(response, &mut m) {
                m.release.record(now - t0);
            }
        }
    }
    m.wall = now - start;
    release_all(conn, checker, held, &mut m);
    m
}

/// Each flush carries [`PIPELINE`] acquires, then releases for the
/// previous flush's names. A request's latency runs from the flush to
/// the read of its own response. With `time_codec`, the client-side
/// encode and decode time is recorded too.
fn pipelined(conn: &mut Conn, checker: &Checker, duration: Duration, time_codec: bool) -> Measured {
    let mut m = Measured::default();
    let mut previous: Vec<u64> = Vec::with_capacity(PIPELINE);
    let mut current: Vec<u64> = Vec::with_capacity(PIPELINE);
    let start = Instant::now();
    let mut now = start;
    while now - start < duration {
        let encode_start = time_codec.then(Instant::now);
        for _ in 0..PIPELINE {
            conn.send(&Request::Acquire);
        }
        for &name in &previous {
            checker.returning(name as usize);
            conn.send(&Request::Release { name });
        }
        let frames = PIPELINE + previous.len();
        m.attempted += frames as u64;
        let t0 = Instant::now();
        if let Some(encode_start) = encode_start {
            m.codec_ns += nanos(t0 - encode_start);
            m.codec_frames += frames as u64;
        }
        conn.flush();
        for i in 0..frames {
            let payload = conn.recv_payload();
            now = Instant::now();
            let response = Response::decode(&payload).expect("decode a response");
            if time_codec {
                m.codec_ns += nanos(now.elapsed());
            }
            if i < PIPELINE {
                if let Some(name) = take_name(response, checker, &mut m) {
                    m.acquire.record(now - t0);
                    current.push(name);
                }
            } else if check_released(response, &mut m) {
                m.release.record(now - t0);
            }
        }
        std::mem::swap(&mut previous, &mut current);
        current.clear();
    }
    m.wall = now - start;
    release_all(conn, checker, previous, &mut m);
    m
}

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Round-trip times of a bare framed echo over loopback: as many
/// connections as the workloads use ([`THREADS`]), one `Acquire`-sized
/// frame in flight each, through the
/// same codec and buffering as the clients above.
pub fn echo_floor(duration: Duration) -> Hist {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the echo listener");
    let addr = listener.local_addr().expect("echo listener address");
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|_| scope.spawn(|| echo_client(addr, &barrier, duration)))
            .collect();
        for _ in 0..THREADS {
            let (stream, _) = listener.accept().expect("accept an echo client");
            scope.spawn(move || echo_serve(stream));
        }
        let mut total = Hist::default();
        for client in clients {
            total.merge(&client.join().expect("echo client panicked"));
        }
        total
    })
}

fn echo_client(addr: SocketAddr, barrier: &Barrier, duration: Duration) -> Hist {
    let mut conn = Conn::connect(addr);
    let mut rtt = Hist::default();
    barrier.wait();
    let start = Instant::now();
    let mut now = start;
    while now - start < duration {
        conn.send(&Request::Acquire);
        let t0 = Instant::now();
        conn.flush();
        conn.recv_payload();
        now = Instant::now();
        rtt.record(now - t0);
    }
    rtt
}

/// Echoes frames until the client closes.
fn echo_serve(stream: TcpStream) {
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    let mut writer = BufWriter::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader, MAX_FRAME_LEN) {
        if write_frame(&mut writer, &payload).is_err() || writer.flush().is_err() {
            return;
        }
    }
}
