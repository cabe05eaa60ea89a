//! End-to-end tracing integration: a real in-process server on a real
//! socket, sampling every request, with the trace (request spans and lock
//! events) pulled back over the `TRACE` opcode and checked for structural
//! integrity — the same path `loadgen --trace` drives.

use hemlock_async::catalog::{self, TryLockVisitor, View};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::RawTryLock;
use hemlock_harness::executor::TaskPool;
use hemlock_minikv::{AsyncKv, Db, Options};
use hemlock_net::{spawn_server_with, Client, Op, ServerOptions};
use hemlock_obs::trace;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};

/// Sampling and the rings are process-global: the tests that trace
/// serialize on this lock.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_against(combine: bool) -> Vec<trace::ExportEvent> {
    let pool = Arc::new(TaskPool::new(2));
    let kv =
        Arc::new(Db::<hemlock_core::hemlock::Hemlock>::new(Options::default())).into_async_kv();
    let server = spawn_server_with(
        &pool,
        kv,
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions { combine },
    )
    .expect("spawn server");

    let mut c = Client::connect(server.local_addr()).expect("connect");
    for round in 0..8u32 {
        let key = format!("k{round}");
        let resps = c
            .pipeline(&[Op::Put(key.as_bytes(), b"v"), Op::Get(key.as_bytes())])
            .expect("pipeline");
        assert_eq!(resps.len(), 2);
    }
    let doc = c.trace_json().expect("TRACE opcode answers");
    drop(c);
    server.shutdown();

    let events = trace::parse_chrome_json(&doc);
    let errs = trace::check_well_formed(&events);
    assert!(errs.is_empty(), "trace integrity: {errs:?}");
    events
}

#[test]
fn traced_requests_export_and_decompose_end_to_end() {
    let _serial = serial();
    trace::set_sampling(1, 0);
    trace::reset_rings();

    for combine in [true, false] {
        let events = run_against(combine);
        let decomps = trace::decompose_requests(&events);
        assert!(
            !decomps.is_empty(),
            "sampled requests decompose (combine={combine})"
        );
        for d in &decomps {
            assert!(d.total_ns > 0);
            // The components never claim more than the request's RTT plus
            // the slack the decomposition contract allows for overlap.
            let claimed = d.decode_ns + d.queue_ns + d.lock_wait_ns + d.hold_ns + d.flush_ns;
            assert!(
                claimed <= d.total_ns * 2,
                "components wildly exceed RTT: {d:?}"
            );
        }
        // The server threads recorded decode and request spans.
        let names: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains("net.request"), "have: {names:?}");
        assert!(names.contains("net.decode"), "have: {names:?}");
        trace::reset_rings();
    }
    trace::set_sampling(0, 0);
}

/// Serves a `Db` over the catalog's `async.obs.hemlock` with tracing on:
/// the observed lock records its events in the serving threads' rings,
/// and the `TRACE` document carries them as `<lock name>:<event>`
/// instants alongside the request spans.
#[test]
fn lock_events_ride_the_trace_export() {
    struct MakeDb;
    impl TryLockVisitor for MakeDb {
        type Output = Arc<dyn AsyncKv>;
        fn visit<L: RawTryLock + 'static>(self, _meta: LockMeta) -> Self::Output {
            Arc::new(Db::<L>::new(Options::default())).into_async_kv()
        }
    }
    let _serial = serial();
    trace::set_sampling(1, 0);
    trace::reset_rings();
    let entry = catalog::resolve("async.obs.hemlock", &[View::Async])
        .expect("catalog key")
        .entry;
    let kv = catalog::with_try_lock_type(entry, MakeDb).expect("async row");
    let pool = Arc::new(TaskPool::new(1));
    let server = spawn_server_with(
        &pool,
        kv,
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions { combine: true },
    )
    .expect("spawn server");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.put(b"k", b"v").expect("put");
    assert_eq!(c.get(b"k").expect("get"), Some(b"v".to_vec()));
    let doc = c.trace_json().expect("TRACE opcode answers");
    drop(c);
    server.shutdown();
    trace::set_sampling(0, 0);

    let events = trace::parse_chrome_json(&doc);
    let errs = trace::check_well_formed(&events);
    assert!(errs.is_empty(), "trace integrity: {errs:?}");
    let acquire = format!("{}:acquire", entry.meta.name);
    assert!(
        events
            .iter()
            .any(|e| e.name == acquire && e.kind == trace::SpanKind::Instant),
        "no {acquire} instant in the TRACE document"
    );
    trace::reset_rings();
}

/// The retired flight-recorder codes (`0x07` request, `0x87` response)
/// are unknown opcodes now: the server drops the connection without
/// panicking and keeps serving others.
#[test]
fn retired_recorder_opcodes_close_the_connection() {
    let pool = Arc::new(TaskPool::new(1));
    let kv =
        Arc::new(Db::<hemlock_core::hemlock::Hemlock>::new(Options::default())).into_async_kv();
    let server = spawn_server_with(
        &pool,
        kv,
        "127.0.0.1:0".parse().unwrap(),
        ServerOptions { combine: true },
    )
    .expect("spawn server");
    for code in [0x07u8, 0x87] {
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
        let mut frame = 9u32.to_be_bytes().to_vec();
        frame.extend_from_slice(&1u64.to_be_bytes());
        frame.push(code);
        raw.write_all(&frame).expect("write frame");
        let mut buf = [0u8; 64];
        match raw.read(&mut buf) {
            Ok(0) => {}
            Ok(n) => panic!("opcode {code:#04x} got a {n}-byte answer"),
            Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{code:#04x}"),
        }
    }
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.ping().expect("server still serves");
    drop(c);
    let stats = server.shutdown();
    assert_eq!(stats.connections, 3);
}
