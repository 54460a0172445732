//! Wire-level lifecycle tests for `qp-server`, driven through
//! `qp-client` and raw TCP streams via the `qp_server::testsupport`
//! fixture.
//!
//! The tests in the root module need no fault injection and run under
//! plain `cargo test`. The `chaos` module arms failpoints and only
//! compiles with `--features failpoints`; run it single-threaded
//! (`-- --test-threads=1`) because failpoint sites are process-global
//! and the plain tests here would otherwise observe armed sites.

use std::io::{Read, Write};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use qp_client::{wire, Client, DeltaSpec, ErrorCode, Json, PersonalizeCall, Response};
use qp_server::testsupport::{als_profile_dsl, fixture_db, quick_config, wait_for, TestServer};
use qp_server::{assert_server_error, ServerConfig};
use qp_storage::SnapshotStore;

/// Reads one response frame off a raw stream.
fn read_response(raw: &mut std::net::TcpStream) -> Response {
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("set timeout");
    let frame = wire::read_frame(raw, wire::DEFAULT_MAX_FRAME).expect("response frame");
    Response::from_json(&frame).expect("well-formed response")
}

/// Asserts the server closed the stream: the next read yields EOF (or a
/// reset) rather than data.
fn assert_stream_closed(raw: &mut std::net::TcpStream) {
    raw.set_read_timeout(Some(Duration::from_secs(5))).expect("set timeout");
    let mut buf = [0u8; 1];
    match raw.read(&mut buf) {
        Ok(0) => {}
        Ok(_) => panic!("expected the server to close the connection, got more data"),
        Err(e) => assert!(
            !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "expected close, got timeout: {e}"
        ),
    }
}

#[test]
fn clean_request_response_roundtrip() {
    let mut ts = TestServer::spawn();
    let mut client = ts.client();
    client.ping().expect("ping");

    let dsl = als_profile_dsl(&ts.store().snapshot());
    let reg = client.register_profile("al", &dsl).expect("register profile");
    assert!(reg.preferences > 0, "Al's profile has preferences");
    assert_eq!(reg.version, 1, "first registration is version 1");

    let answer = client
        .personalize(PersonalizeCall::new("al", "select title from MOVIE").k(4).l(1))
        .expect("personalize");
    assert_eq!(answer.columns, vec!["title".to_string()]);
    assert!(!answer.tuples.is_empty(), "personalized answer has tuples");
    assert!(
        answer.tuples.windows(2).all(|w| w[0].doi >= w[1].doi),
        "tuples arrive best-first"
    );
    assert!(answer.tuples.iter().all(|t| matches!(t.row[0], Json::Str(_))));

    let stats = client.stats().expect("stats");
    let responses = stats
        .iter()
        .find(|(name, _)| name == "server.responses")
        .and_then(|(_, v)| v.as_u64())
        .expect("server.responses counter");
    assert!(responses >= 3, "ping + register + personalize all counted: {responses}");

    ts.shutdown();
}

#[test]
fn typed_request_errors_keep_the_connection_usable() {
    let mut ts = TestServer::spawn();
    let mut client = ts.client();

    assert_server_error!(
        client.personalize(PersonalizeCall::new("nobody", "select title from MOVIE")),
        ErrorCode::UnknownUser
    );
    assert_server_error!(
        client.register_profile("al", "doi(NOPE.not_a_column = 'x') = (0.5, 0)"),
        ErrorCode::BadRequest
    );
    let dsl = als_profile_dsl(&ts.store().snapshot());
    client.register_profile("al", &dsl).expect("register after errors");
    assert_server_error!(
        client.personalize(
            PersonalizeCall::new("al", "select title from MOVIE").algorithm("quantum")
        ),
        ErrorCode::BadRequest
    );
    // A typed error never poisons the connection.
    client.ping().expect("connection still usable");
    ts.shutdown();
}

#[test]
fn malformed_frame_poisons_only_its_connection() {
    let mut ts = TestServer::spawn();
    let mut raw = ts.raw_stream();
    let garbage = b"this is not json";
    raw.write_all(&(garbage.len() as u32).to_be_bytes()).expect("header");
    raw.write_all(garbage).expect("payload");

    match read_response(&mut raw) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::BadFrame);
            assert!(!e.retryable);
        }
        other => panic!("expected bad_frame, got {other:?}"),
    }
    assert_stream_closed(&mut raw);
    assert_eq!(ts.counter("server.frames.malformed"), 1);

    // Only that connection died; the server keeps serving.
    ts.client().ping().expect("fresh connection works");
    ts.shutdown();
}

#[test]
fn oversized_frame_is_rejected_from_the_header_alone() {
    let mut ts = TestServer::spawn();
    let mut raw = ts.raw_stream();
    // Declare a 64 MiB payload and send none of it: the rejection must
    // come from the header, not from reading our (nonexistent) payload.
    raw.write_all(&(64u32 * 1024 * 1024).to_be_bytes()).expect("header");

    match read_response(&mut raw) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::FrameTooLarge),
        other => panic!("expected frame_too_large, got {other:?}"),
    }
    assert_stream_closed(&mut raw);
    assert_eq!(ts.counter("server.frames.too_large"), 1);

    ts.client().ping().expect("fresh connection works");
    ts.shutdown();
}

#[test]
fn oversized_answer_is_a_typed_error_not_an_oversized_frame() {
    // The frame limit binds writes too: a broad personalized answer that
    // encodes past max_frame must come back as a typed error the client
    // can parse, never as a frame the client is entitled to refuse.
    let mut ts = TestServer::spawn_with(ServerConfig {
        max_frame: 2048,
        ..quick_config()
    });
    let dsl = als_profile_dsl(&ts.store().snapshot());
    let mut client = ts.client();
    client.register_profile("al", &dsl).expect("register");

    let e = assert_server_error!(
        client.personalize(PersonalizeCall::new("al", "select title from MOVIE").k(4)),
        ErrorCode::AnswerTooLarge
    );
    assert!(!e.retryable, "shrinking the answer needs a different query, not a retry");
    assert_eq!(ts.counter("server.responses.too_large"), 1);

    // The connection stays usable, and a narrow answer still fits.
    client.ping().expect("connection survives the oversized answer");
    let answer = client
        .personalize(PersonalizeCall::new("al", "select M.title from MOVIE M where M.mid = 1"))
        .expect("narrow answer fits the frame limit");
    assert!(answer.tuples.len() <= 1);
    ts.shutdown();
}

#[test]
fn client_disconnect_mid_frame_leaves_the_server_up() {
    let mut ts = TestServer::spawn();
    {
        let mut raw = ts.raw_stream();
        // Promise 100 payload bytes, deliver 10, hang up.
        raw.write_all(&100u32.to_be_bytes()).expect("header");
        raw.write_all(&[b'{'; 10]).expect("partial payload");
    } // dropped: the server sees EOF inside the frame

    wait_for(Duration::from_secs(5), "torn frame to be noticed", || {
        ts.counter("server.connections.read_errors") >= 1
    });
    ts.client().ping().expect("server survived the torn frame");
    ts.shutdown();
}

#[test]
fn stalled_client_hits_the_io_deadline() {
    let mut ts = TestServer::spawn_with(ServerConfig {
        io_timeout: Duration::from_millis(150),
        ..quick_config()
    });
    let mut raw = ts.raw_stream();
    // Send a header, then stall instead of the promised payload: the
    // body read must time out under io_timeout and close the connection.
    raw.write_all(&50u32.to_be_bytes()).expect("header");
    assert_stream_closed(&mut raw);
    assert!(ts.counter("server.connections.idle_closed") >= 1);

    ts.client().ping().expect("server survived the stall");
    ts.shutdown();
}

#[test]
fn idle_connection_is_reaped() {
    let mut ts = TestServer::spawn_with(ServerConfig {
        idle_timeout: Duration::from_millis(120),
        ..quick_config()
    });
    let mut raw = ts.raw_stream();
    // Send nothing at all; the idle timeout reaps the connection.
    assert_stream_closed(&mut raw);
    wait_for(Duration::from_secs(5), "idle close to be counted", || {
        ts.counter("server.connections.idle_closed") >= 1
    });
    ts.shutdown();
}

#[test]
fn accept_queue_sheds_connections_over_the_bound() {
    let mut ts = TestServer::spawn_with(ServerConfig {
        max_connections: 1,
        ..quick_config()
    });
    let mut first = ts.client();
    first.ping().expect("first connection admitted");

    let mut second = ts.client();
    let e = assert_server_error!(second.ping(), ErrorCode::Overloaded);
    assert!(e.retryable, "connection-level shed is retryable");
    assert_eq!(ts.counter("server.connections.shed"), 1);

    // The admitted connection is unaffected, and closing it frees the slot.
    first.ping().expect("first connection still fine");
    drop(first);
    wait_for(Duration::from_secs(5), "slot to free", || ts.server().open_connections() == 0);
    ts.client().ping().expect("slot freed after disconnect");
    // The worker parked before it freed the slot, so it serves the
    // connection that took the slot; the shed one never reached a worker.
    assert_eq!(ts.counter("server.workers.spawned"), 1);
    assert_eq!(ts.counter("server.workers.reused"), 1);
    ts.shutdown();
}

#[test]
fn a_reused_worker_serves_each_connection_afresh() {
    // A worker outlives its connections; the connection's personalizer
    // must not. Were it kept, its plan cache would hand the re-registered
    // profile's query the closure of the old degree.
    let mut ts = TestServer::spawn();
    let line = |peak: f64| format!("doi(MOVIE.duration = around(120, 30)) = (e({peak}), 0)");
    let top_doi = |client: &mut Client| {
        let answer = client
            .personalize(
                PersonalizeCall::new("dana", "select title from MOVIE").k(1).algorithm("spa"),
            )
            .expect("personalize");
        answer.tuples.first().expect("a top tuple").doi
    };
    let end = |client: Client| {
        drop(client);
        wait_for(Duration::from_secs(5), "the connection to end", || {
            ts.server().open_connections() == 0
        });
    };

    let mut client = ts.client();
    client.register_profile("dana", &line(0.3)).expect("register");
    let before = top_doi(&mut client);
    assert!((before - 0.3).abs() < 1e-9, "top doi {before}");
    end(client);
    let mut client = ts.client();
    client.register_profile("dana", &line(0.9)).expect("re-register");
    end(client);

    let mut fresh = ts.client();
    let after = top_doi(&mut fresh);
    assert!((after - 0.9).abs() < 1e-9, "a fresh connection sees the new degree: {after}");
    assert_eq!(ts.counter("server.workers.spawned"), 1, "one worker served every connection");
    assert_eq!(ts.counter("server.workers.reused"), 2, "the parked worker served this one");
    ts.shutdown();
}

#[test]
fn idle_server_shuts_down_promptly_on_any_bind_address() {
    // The accept thread blocks in `accept`; shutdown must wake it, also
    // when the server listens on the unspecified address.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let mut ts = TestServer::spawn_with(ServerConfig {
            addr: addr.to_string(),
            ..quick_config()
        });
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            ts.shutdown();
            done.send(()).ok();
        });
        finished
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("a server bound to {addr} did not shut down within 2 s"));
    }
}

#[test]
fn shutdown_releases_parked_workers() {
    let store = Arc::new(SnapshotStore::new(fixture_db(300)));
    let mut ts = TestServer::spawn_on(quick_config(), Arc::clone(&store));
    for _ in 0..3 {
        ts.client().ping().expect("ping");
        wait_for(Duration::from_secs(5), "the connection to end", || {
            ts.server().open_connections() == 0
        });
    }
    assert_eq!(ts.counter("server.workers.spawned"), 1, "sequential connections share a worker");
    ts.shutdown();
    drop(ts);
    // A parked worker holds the server's state, and with it the store.
    wait_for(Duration::from_secs(5), "the server to release the store", || {
        Arc::strong_count(&store) == 1
    });
}

#[test]
fn admission_sheds_before_parsing_the_request() {
    // max_inflight 0: every frame is shed. The proof that shedding
    // happens pre-parse: a frame whose JSON would be a bad_request still
    // comes back overloaded.
    let mut ts = TestServer::spawn_with(ServerConfig {
        admission: qp_core::AdmissionConfig {
            max_inflight: 0,
            max_queue_wait: Duration::ZERO,
        },
        ..quick_config()
    });
    let mut raw = ts.raw_stream();
    let junk_op = "{\"op\":\"no_such_operation\"}";
    raw.write_all(&(junk_op.len() as u32).to_be_bytes()).expect("header");
    raw.write_all(junk_op.as_bytes()).expect("payload");
    match read_response(&mut raw) {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::Overloaded, "shed before parse, not bad_request");
            assert!(e.retryable);
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // The shed did not poison the connection: the next frame gets its
    // own (also shed) answer on the same stream.
    let mut client = ts.client();
    assert_server_error!(client.ping(), ErrorCode::Overloaded);
    assert!(ts.counter("server.shed") >= 2);
    ts.shutdown();
}

#[test]
fn publish_delta_maintains_materialized_results_across_epochs() {
    let mut ts = TestServer::spawn();
    let mut client = ts.client();
    let dsl = als_profile_dsl(&ts.store().snapshot());
    let reg = client.register_profile("al", &dsl).expect("register");

    // Warm the server's materialization registry with one PPA run.
    let call = || reg.call("select title from MOVIE").k(4).l(1).algorithm("ppa");
    client.personalize(call()).expect("warm run");

    // Publish a small write: one fresh movie plus its genre row.
    let receipt = client
        .publish_delta(
            DeltaSpec::new()
                .insert(
                    "MOVIE",
                    vec![
                        Json::num(900_000.0),
                        Json::str("Fresh Epoch"),
                        Json::num(1975.0),
                        Json::num(95.0),
                    ],
                )
                .insert("GENRE", vec![Json::num(900_000.0), Json::str("comedy")]),
        )
        .expect("publish delta");
    assert!(receipt.new_version > receipt.old_version, "delta produced a new epoch");
    assert_eq!(receipt.rows_inserted, 2);
    assert_eq!(receipt.rows_deleted, 0);
    assert!(
        receipt.patched + receipt.carried + receipt.rematerialized > 0,
        "the warm registry was maintained, not recomputed away: {receipt:?}"
    );

    // The same connection keeps personalizing against the new epoch, and
    // a value-addressed delete of the published row round-trips too.
    let after = client.personalize(call()).expect("post-publish personalize");
    assert!(!after.tuples.is_empty());
    let undo = client
        .publish_delta(DeltaSpec::new().delete(
            "MOVIE",
            vec![Json::num(900_000.0), Json::str("Fresh Epoch"), Json::num(1975.0), Json::num(95.0)],
        ))
        .expect("delete the published row");
    assert_eq!(undo.rows_deleted, 1);

    // The maintenance counters are on the wire stats surface.
    let stats = client.stats().expect("stats");
    let counter = |name: &str| {
        stats.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_u64()).unwrap_or(0)
    };
    assert_eq!(counter("maint.deltas"), 2);
    assert_eq!(counter("maint.rows_inserted"), 2);
    assert_eq!(counter("maint.rows_deleted"), 1);
    assert_eq!(counter("maint.memo.kept"), 2, "data publishes kept the selection memos");

    ts.shutdown();
}

#[test]
fn rejected_deltas_are_typed_and_change_nothing() {
    let mut ts = TestServer::spawn();
    let mut client = ts.client();
    let version_before = ts.store().snapshot().version();

    // Unknown relation.
    assert_server_error!(
        client.publish_delta(DeltaSpec::new().insert("NOPE", vec![Json::num(1.0)])),
        ErrorCode::DeltaRejected
    );
    // Arity mismatch (MOVIE has four columns).
    assert_server_error!(
        client.publish_delta(DeltaSpec::new().insert("MOVIE", vec![Json::num(1.0)])),
        ErrorCode::DeltaRejected
    );
    // Delete addressing no live tuple.
    assert_server_error!(
        client.publish_delta(DeltaSpec::new().delete(
            "MOVIE",
            vec![Json::num(987_654.0), Json::str("ghost"), Json::num(1900.0), Json::num(90.0)],
        )),
        ErrorCode::DeltaRejected
    );
    // A mixed delta with one bad slice is rejected wholesale: the valid
    // insert must not land.
    assert_server_error!(
        client.publish_delta(
            DeltaSpec::new()
                .insert(
                    "MOVIE",
                    vec![
                        Json::num(900_001.0),
                        Json::str("Half Applied"),
                        Json::num(2001.0),
                        Json::num(100.0),
                    ],
                )
                .insert("NOPE", vec![Json::num(1.0)]),
        ),
        ErrorCode::DeltaRejected
    );

    assert_eq!(
        ts.store().snapshot().version(),
        version_before,
        "rejected deltas never publish an epoch"
    );
    assert_eq!(ts.counter("server.requests.delta_rejected"), 4);
    assert_eq!(ts.counter("maint.deltas"), 0);
    // Typed rejections never poison the connection.
    client.ping().expect("connection still usable");
    ts.shutdown();
}

#[test]
fn non_finite_number_is_a_bad_frame_and_publishes_nothing() {
    let mut ts = TestServer::spawn();
    let mut client = ts.client();
    let dsl = als_profile_dsl(&ts.store().snapshot());
    let reg = client.register_profile("al", &dsl).expect("register");
    let version_before = ts.store().snapshot().version();

    // `1e400` overflows f64. Were it stored, every answer projecting
    // THEATRE.ticket would encode as `inf`, which no client can decode.
    let frame = r#"{"op":"publish_delta","changes":[{"relation":"THEATRE","inserts":[[900000,"Overflow","555-0100","downtown",1e400]]}]}"#;
    let mut raw = ts.raw_stream();
    raw.write_all(&(frame.len() as u32).to_be_bytes()).expect("header");
    raw.write_all(frame.as_bytes()).expect("payload");
    match read_response(&mut raw) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::BadFrame),
        other => panic!("expected bad_frame, got {other:?}"),
    }
    assert_stream_closed(&mut raw);
    assert_eq!(ts.store().snapshot().version(), version_before, "no epoch was published");
    assert_eq!(ts.counter("maint.deltas"), 0);

    let answer = client
        .personalize(reg.call("select name, ticket from THEATRE").k(4).l(1))
        .expect("ticket answers still decode");
    assert!(!answer.tuples.is_empty());
    assert!(answer.tuples.iter().all(|t| t.row[1].as_f64().is_some_and(f64::is_finite)));
    ts.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let mut ts = TestServer::spawn();
    let addr = ts.addr();
    let dsl = als_profile_dsl(&ts.store().snapshot());
    ts.client().register_profile("al", &dsl).expect("register");

    let workers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                // The timeout also bounds each response read; three
                // concurrent full scans on a loaded single-CPU host
                // (check.sh runs this under QP_PARALLELISM=4) can hold
                // a response well past a casual deadline, and a worker
                // that gives up early reads as a failed drain here.
                let mut client =
                    Client::connect(addr, Duration::from_secs(60)).expect("connect");
                let mut completed = 0usize;
                for _ in 0..50 {
                    match client
                        .personalize(PersonalizeCall::new("al", "select title from MOVIE").k(3))
                    {
                        Ok(answer) => {
                            assert!(!answer.columns.is_empty());
                            completed += 1;
                        }
                        // Once the drain begins, either a typed
                        // shutting_down error or a severed socket is
                        // sanctioned; anything else is a bug.
                        Err(qp_client::ClientError::Server(e)) => {
                            assert_eq!(e.code, ErrorCode::ShuttingDown, "unexpected: {e}");
                            break;
                        }
                        Err(qp_client::ClientError::Io(_))
                        | Err(qp_client::ClientError::Protocol(_)) => break,
                    }
                }
                completed
            })
        })
        .collect();

    // Gate on a *worker* personalize having completed, not merely on
    // `in_flight > 0`: a request stays on the in-flight counter until
    // its response bytes are written, so the register call above can
    // leave a stale nonzero reading after its client already returned —
    // shutting down on that signal alone can beat the workers out of
    // the accept backlog and RST all of them before any is served. Also
    // wait until every worker is connected (the registration was the
    // first connection): a fast first answer can otherwise close the
    // listener before a slow-starting worker thread connects.
    wait_for(Duration::from_secs(5), "worker traffic to be in flight", || {
        ts.counter("server.connections.accepted") >= 4
            && ts.counter("server.requests.personalize") >= 1
            && ts.server().in_flight() > 0
    });
    let report = ts.shutdown();
    assert_eq!(report.aborted, 0, "the drain window covers in-flight requests");

    let completed: usize = workers.into_iter().map(|w| w.join().expect("no panic")).sum();
    assert!(completed > 0, "no worker answer survived the drain");
}

/// Fault-injected lifecycle tests. Compiled only with `--features
/// failpoints`; run single-threaded so the process-global failpoint
/// registry cannot leak armed sites into the plain tests above.
#[cfg(feature = "failpoints")]
mod chaos {
    use super::*;
    use qp_client::ClientError;
    use qp_server::assert_connection_broken;
    use qp_storage::failpoint::{self, FailAction, FailScenario};
    use qp_storage::ChaosPlan;

    #[test]
    fn panicking_handler_is_isolated_to_its_connection() {
        let _scenario = FailScenario::setup();
        let mut ts = TestServer::spawn();
        let dsl = als_profile_dsl(&ts.store().snapshot());
        let mut client = ts.client();
        client.register_profile("al", &dsl).expect("register");

        failpoint::arm("spa.execute", FailAction::Panic("injected handler panic".into()));
        let e = assert_server_error!(
            client.personalize(
                PersonalizeCall::new("al", "select title from MOVIE").algorithm("spa")
            ),
            ErrorCode::Internal
        );
        assert!(e.message.contains("injected handler panic"));
        // The panicking connection is closed...
        assert_connection_broken!(client.ping());
        assert_eq!(ts.counter("server.panics"), 1);

        // ...but the server did not die with it.
        failpoint::clear();
        let mut fresh = ts.client();
        fresh.ping().expect("server survived the panic");
        fresh
            .personalize(PersonalizeCall::new("al", "select title from MOVIE").algorithm("spa"))
            .expect("and still serves answers");
        ts.shutdown();
    }

    #[test]
    fn panic_outside_dispatch_releases_the_connection_slot() {
        let _scenario = FailScenario::setup();
        let mut ts = TestServer::spawn_with(ServerConfig {
            max_connections: 1,
            ..quick_config()
        });
        // `net.read` runs before `dispatch`'s catch_unwind: the worker
        // itself unwinds, and its slot must go with it.
        failpoint::arm("net.read", FailAction::Panic("injected read panic".into()));
        let mut doomed = ts.client();
        assert_connection_broken!(doomed.ping());
        wait_for(Duration::from_secs(5), "the unwound slot to free", || {
            ts.server().open_connections() == 0
        });

        failpoint::clear();
        ts.client().ping().expect("the freed slot admits the next connection");
        assert_eq!(ts.counter("server.connections.shed"), 0);
        ts.shutdown();
    }

    #[test]
    fn a_failed_response_write_counts_once() {
        let _scenario = FailScenario::setup();
        let mut ts = TestServer::spawn();
        // Every response write first waits 300 ms: time for the peer to
        // reset the socket under it.
        failpoint::arm("net.write", FailAction::Delay(300));
        let mut raw = ts.raw_stream();
        raw.set_read_timeout(Some(Duration::from_secs(5))).expect("set timeout");
        let ping = qp_client::wire::Request::Ping.to_json();
        wire::write_frame(&mut raw, &ping).expect("first ping");
        // Wait for the pong without consuming it: closing a socket with
        // unread bytes resets the connection instead of closing it.
        raw.peek(&mut [0u8; 1]).expect("the pong arrives");
        wire::write_frame(&mut raw, &ping).expect("second ping");
        wait_for(Duration::from_secs(5), "the second ping to be read", || {
            ts.counter("server.frames.received") >= 2
        });
        drop(raw);

        wait_for(Duration::from_secs(5), "the connection to end", || {
            ts.server().open_connections() == 0
        });
        assert_eq!(ts.counter("server.responses"), 1, "only the pong was written");
        assert_eq!(ts.counter("server.connections.write_errors"), 1);
        ts.shutdown();
    }

    #[test]
    fn shutdown_drains_a_deliberately_slow_request() {
        let _scenario = FailScenario::setup();
        let mut ts = TestServer::spawn();
        let addr = ts.addr();
        let dsl = als_profile_dsl(&ts.store().snapshot());
        ts.client().register_profile("al", &dsl).expect("register");
        // The registration stays in flight until its response bytes are
        // written, which can trail the client's return: let it clear, so
        // the in-flight gate below sees the slow request and not it.
        wait_for(Duration::from_secs(5), "the registration to clear", || {
            ts.server().in_flight() == 0
        });

        // Every scan sleeps 300 ms: the request is guaranteed to still
        // be in flight when shutdown starts, and guaranteed to finish
        // inside the 2 s drain window.
        failpoint::arm("exec.scan", FailAction::Delay(300));
        let worker = std::thread::spawn(move || {
            let mut client = Client::connect(addr, Duration::from_secs(10)).expect("connect");
            client.personalize(PersonalizeCall::new("al", "select title from MOVIE").k(2))
        });
        wait_for(Duration::from_secs(5), "slow request to be in flight", || {
            ts.server().in_flight() > 0
        });
        let report = ts.shutdown();
        assert!(report.drained >= 1, "the in-flight request drained: {report:?}");
        assert_eq!(report.aborted, 0);
        worker.join().expect("no panic").expect("drained request completed normally");
    }

    #[test]
    fn network_chaos_soak_terminates_in_sanctioned_states() {
        let _scenario = FailScenario::setup();
        let mut ts = TestServer::spawn_with(ServerConfig {
            io_timeout: Duration::from_secs(1),
            ..quick_config()
        });
        let addr = ts.addr();
        let dsl = als_profile_dsl(&ts.store().snapshot());
        ts.client().register_profile("al", &dsl).expect("register");

        // Wire faults (read/write aborts, torn writes, delays) plus the
        // engine-level serving schedule, all from fixed seeds.
        ChaosPlan::wire_default(0xC0FFEE).arm();
        ChaosPlan::serving_default(7).arm();

        let workers: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut ok = 0usize;
                    let mut typed = 0usize;
                    let mut severed = 0usize;
                    let mut client: Option<Client> = None;
                    for i in 0..40 {
                        if client.is_none() {
                            match Client::connect(addr, Duration::from_secs(5)) {
                                Ok(c) => client = Some(c),
                                Err(_) => {
                                    severed += 1;
                                    continue;
                                }
                            }
                        }
                        let c = client.as_mut().expect("connected above");
                        let algorithm = if (t + i) % 2 == 0 { "ppa" } else { "spa" };
                        match c.personalize(
                            PersonalizeCall::new("al", "select title from MOVIE")
                                .k(3)
                                .algorithm(algorithm),
                        ) {
                            Ok(answer) => {
                                assert!(!answer.columns.is_empty());
                                ok += 1;
                            }
                            Err(ClientError::Server(e)) => {
                                // Typed errors are sanctioned; a panic
                                // leaking out of a handler is not.
                                assert_ne!(
                                    e.code,
                                    ErrorCode::Internal,
                                    "handler panicked under chaos: {e}"
                                );
                                typed += 1;
                            }
                            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
                                // Chaos severed the connection (read
                                // abort, torn write); reconnect.
                                severed += 1;
                                client = None;
                            }
                        }
                    }
                    (ok, typed, severed)
                })
            })
            .collect();

        let mut total_ok = 0;
        let mut total_severed = 0;
        for w in workers {
            let (ok, _typed, severed) = w.join().expect("no panic escaped a client thread");
            total_ok += ok;
            total_severed += severed;
        }
        assert!(total_ok > 0, "some requests completed under chaos");
        assert!(total_severed > 0, "the wire chaos actually fired");
        assert_eq!(ts.counter("server.panics"), 0, "no handler panics under error chaos");

        // Disarm and verify the server is fully healthy.
        failpoint::clear();
        let mut fresh = ts.client();
        fresh.ping().expect("server alive after the soak");
        fresh
            .personalize(PersonalizeCall::new("al", "select title from MOVIE").k(3))
            .expect("clean answers after the soak");
        ts.shutdown();
    }
}
