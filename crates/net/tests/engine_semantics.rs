//! Engine-level semantics pinned without sockets, plus client close
//! idempotence over real ones.
//!
//! The slow-consumer test drives [`EngineCore`] directly — the same
//! state machine the TCP server and the deterministic simulator share —
//! with a stalled tail subscriber behind a tiny queue, and pins the
//! *exact* drop counts, cross-checked against the `ocep_net_*` metrics
//! snapshot and its text rendering.

use ocep_core::{
    GuardConfig, MetricValue, MetricsSnapshot, MonitorConfig, MonitorSet, SubsetPolicy,
};
use ocep_net::wire::encode_body;
use ocep_net::{
    EngineCore, Frame, Mode, NetClock, OutQueue, ServeConfig, Server, SystemClock, Tail, WireError,
};
use ocep_pattern::Pattern;
use ocep_poet::{Event, EventKind, PoetServer};
use ocep_vclock::TraceId;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const PATTERN: &str = "A := [*, a, *]; pattern := A;";

fn one_trace_events(n: usize) -> Vec<Event> {
    let mut poet = PoetServer::new(1);
    for i in 0..n {
        // Distinct payloads so the §VI dedup rule suppresses nothing:
        // every event must become its own verdict.
        poet.record(TraceId::new(0), EventKind::Unary, "a", format!("p{i}"));
    }
    poet.linearization().collect()
}

fn guarded_set() -> MonitorSet {
    let mut set = MonitorSet::new(1);
    // Per-arrival reporting so every event becomes a verdict — the
    // workload a full tail queue is exercised with.
    set.add_with_config(
        "pattern",
        Pattern::parse(PATTERN).unwrap(),
        MonitorConfig {
            policy: SubsetPolicy::PerArrival,
            ..MonitorConfig::default()
        },
    );
    set.enable_guard(GuardConfig::default());
    set
}

/// The value of `family{key="val"}` in a snapshot (0 when absent).
fn labeled(s: &MetricsSnapshot, family: &str, key: &str, val: &str) -> u64 {
    s.families
        .iter()
        .filter(|f| f.name == family)
        .flat_map(|f| &f.samples)
        .filter(|smp| smp.labels.iter().any(|(k, v)| k == key && v == val))
        .map(|smp| match &smp.value {
            MetricValue::Int(v) => *v,
            MetricValue::Hist(_) => 0,
        })
        .sum()
}

/// Runs 20 single-event data frames through an engine whose only tail
/// never drains its 4-slot queue; returns the final report and the
/// tail's queue for inspection.
fn run_stalled_tail() -> (ocep_net::ServeReport, OutQueue) {
    let config = ServeConfig {
        subscriber_queue: 4,
        ..ServeConfig::default()
    };
    let clock: Arc<dyn NetClock> = Arc::new(SystemClock::new());
    let mut core = EngineCore::new(
        guarded_set(),
        config.clone(),
        Arc::clone(&clock),
        Arc::new(AtomicU64::new(0)),
    );

    let frame_bytes = |f: &Frame| 4 + encode_body(f).len() as u64;
    let tail_out = OutQueue::new(config.subscriber_queue);
    core.on_accepted(0, "sim-tail".into(), tail_out.clone());
    let hello = Frame::Hello {
        mode: Mode::Tail,
        n_traces: 0,
        name: "stalled".into(),
    };
    let b = frame_bytes(&hello);
    assert!(!core.on_frame(0, hello, clock.now_ns(), b));
    // The tail reads its handshake ack, then stalls forever.
    let handshake = tail_out.drain();
    assert!(matches!(handshake.as_slice(), [Frame::Ack { .. }]));

    let prod_out = OutQueue::new(config.subscriber_queue);
    core.on_accepted(1, "sim-producer".into(), prod_out.clone());
    let hello = Frame::Hello {
        mode: Mode::Producer,
        n_traces: 1,
        name: "producer".into(),
    };
    let b = frame_bytes(&hello);
    assert!(!core.on_frame(1, hello, clock.now_ns(), b));

    for e in one_trace_events(20) {
        let frame = Frame::Event(Box::new(e));
        let b = frame_bytes(&frame);
        assert!(!core.on_frame(1, frame, clock.now_ns(), b));
    }
    (core.finish(), tail_out)
}

#[test]
fn reject_policy_drops_newest_with_exact_counts() {
    let (report, tail_out) = run_stalled_tail();
    assert_eq!(report.verdicts.len(), 20, "every event is a verdict");
    let m = &report.metrics;
    assert_eq!(
        labeled(m, "ocep_net_slow_client_total", "action", "dropped_newest"),
        16
    );
    assert_eq!(
        labeled(m, "ocep_net_slow_client_total", "action", "dropped_oldest"),
        0
    );
    assert_eq!(
        labeled(
            m,
            "ocep_net_slow_client_total",
            "action",
            "flushed_degraded"
        ),
        0
    );
    // Only the 4 verdicts that fit were ever queued out.
    assert_eq!(labeled(m, "ocep_net_frames_total", "type", "verdict"), 4);
    let text = m.render_text();
    assert!(
        text.contains("{action=\"dropped_newest\"} 16"),
        "rendered metrics disagree:\n{text}"
    );
    // The stalled queue holds the *first* four verdicts, then the final
    // stats report `finish` broadcasts to every open connection.
    let kept = tail_out.drain();
    let binding = |f: &Frame| match f {
        Frame::Verdict(v) => v.bindings.clone(),
        other => panic!("non-verdict {other:?} in tail queue"),
    };
    assert_eq!(kept.len(), 5);
    assert!(matches!(kept.last(), Some(Frame::StatsReport(_))));
    assert_eq!(binding(&kept[0]), vec![(0, 1)]);
    assert_eq!(binding(&kept[3]), vec![(0, 4)]);
}

// ---------------------------------------------------------------------
// Close idempotence over real sockets (the double-shutdown bugfix).
// ---------------------------------------------------------------------

fn bind_server() -> Server {
    let mut sources = HashMap::new();
    sources.insert("pattern".to_string(), PATTERN.to_string());
    let config = ServeConfig {
        pattern_sources: sources,
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", guarded_set(), config).expect("bind ephemeral")
}

#[test]
fn tail_close_is_idempotent() {
    let server = bind_server();
    let addr = server.addr().to_string();
    let mut tail = Tail::connect(&addr, "t").unwrap();
    tail.close().expect("first close");
    tail.close().expect("second close is a no-op");
    tail.close().expect("so is the third");
    drop(tail); // Drop after explicit close must not panic either.
    assert!(server.handle().shutdown());
    let _ = server.join();
}

#[test]
fn tail_close_after_server_shutdown_is_clean() {
    let server = bind_server();
    let addr = server.addr().to_string();
    let mut tail = Tail::connect(&addr, "t").unwrap();
    assert!(server.handle().shutdown());
    let _ = server.join();
    // The server tore the connection down first; closing our side must
    // still be Ok, twice.
    tail.close().expect("close after server death");
    tail.close().expect("and again");
}

#[test]
fn client_shutdown_after_server_exit_is_closed_not_io() {
    let server = bind_server();
    let addr = server.addr().to_string();
    let first = ocep_net::Client::connect(&addr, 1, "c1").unwrap();
    let second = ocep_net::Client::connect(&addr, 1, "c2").unwrap();
    // First shutdown wins and takes the daemon down.
    first.shutdown().expect("graceful shutdown");
    let _ = server.join();
    // The second client's shutdown races server teardown: it may catch
    // the broadcast stats report, or find the socket gone — but it must
    // never surface a raw io error.
    match second.shutdown() {
        Ok(_) | Err(WireError::Closed) => {}
        Err(other) => panic!("double shutdown leaked a raw error: {other}"),
    }
}
