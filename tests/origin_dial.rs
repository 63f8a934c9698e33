//! A black-holed origin must not stall the reactor. The node redials a
//! dead origin link once per `ORIGIN_RETRY` (1 s), and a dial may take
//! up to `ORIGIN_CONNECT_TIMEOUT` (100 ms). Every get here is a cache
//! hit that never needs the origin, so none of them may wait on a dial.
//!
//! This file holds one test on purpose: it judges wall-clock latency,
//! so it runs in a process of its own, away from the other suites.

use fresca_serve::server::{self, ServerConfig};
use fresca_serve::CacheClient;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The node's `ORIGIN_CONNECT_TIMEOUT`.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// A listener that never accepts, with its accept queue full: a connect
/// to it hangs until its timeout. Returns the listener and the
/// connections that filled the queue (both must stay alive).
fn black_hole() -> (TcpListener, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = listener.local_addr().expect("addr");
    let mut held = Vec::new();
    for _ in 0..1024 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            Ok(stream) => held.push(stream),
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => return (listener, held),
            Err(e) => panic!("filling the accept queue: {e}"),
        }
    }
    panic!("1024 connects never timed out: the accept queue did not fill");
}

#[test]
fn a_black_holed_origin_never_stalls_a_get() {
    let (origin, _held) = black_hole();
    let config = ServerConfig {
        event_loops: 1,
        origin: Some(origin.local_addr().expect("addr")),
        ..ServerConfig::default()
    };
    let handle = server::spawn("127.0.0.1:0", config).expect("spawn");
    let mut client = CacheClient::connect(handle.addr()).expect("connect");
    client.put_pattern(1, 64, None).expect("put");

    // Two and a half redial periods of back-to-back unbounded gets.
    let (start, mut gets, mut slowest) = (Instant::now(), 0u64, Duration::ZERO);
    while start.elapsed() < Duration::from_millis(2500) {
        let sent = Instant::now();
        client.get(1, None).expect("get");
        slowest = slowest.max(sent.elapsed());
        gets += 1;
    }
    handle.shutdown();
    assert!(
        slowest < CONNECT_TIMEOUT / 2,
        "a get waited {slowest:?} of {gets}: the reactor dialed the origin inline"
    );
}
