//! Logs that hold history-GC watermark records recover every verdict.
//!
//! Older versions could truncate leaf histories at the admission guard's
//! low-watermark clock and logged a `REC_WATERMARK` each time they did.
//! That truncation was not verdict-transparent: "every trace has seen x"
//! does not mean "no future event needs x". In the stream below x (`T0:1`)
//! is the only `a` that `T2`'s `b` follows, yet every trace has seen it
//! and its own `(A, T0)` cell is already covered, so truncating at keep 64
//! released it and the second verdict was never reported.
//!
//! The log is written here record by record, the way an older daemon
//! wrote it: deliveries as `[session:str][Event frame body]`, and one
//! watermark (`keep:u32 n:u32 (u32)*`, keep 64 and the full admitted
//! clock) just before `T2`'s `b`. Recovery and `ocep replay` must skip
//! the watermark and report both verdicts.

use ocep_repro::net::wire::put_event_body;
use ocep_repro::net::{Client, ServeConfig, Server};
use ocep_repro::ocep::{GuardConfig, MonitorSet};
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::{Event, EventKind, PoetServer};
use ocep_repro::vclock::TraceId;
use ocep_repro::wal::{self, Durability, REC_DELIVER, REC_WATERMARK};
use std::path::{Path, PathBuf};
use std::process::Command;

const N_TRACES: usize = 3;
const SESSION: &str = "sess";
const PATTERN: &str = "A := [*, a, *]; B := [*, b, *]; pattern := A -> B;";
const KEEP: u32 = 64;

/// What an uninterrupted run reports, in order.
const EXPECTED: [&str; 2] = ["{A=T0:1, B=T1:2}", "{A=T0:1, B=T2:2}"];

/// The counterexample, in arrival order. Its last event is `T2`'s `b`.
fn stream() -> Vec<Event> {
    let mut poet = PoetServer::new(N_TRACES);
    let (t0, t1, t2) = (TraceId::new(0), TraceId::new(1), TraceId::new(2));
    // x, then a message to T1, which records `b`: {A=T0:1, B=T1:2}.
    poet.record(t0, EventKind::Unary, "a", "");
    let s = poet.record(t0, EventKind::Send, "m", "");
    poet.record_receive(t1, s.id(), "m", "");
    poet.record(t1, EventKind::Unary, "b", "");
    // A message to T2: now every trace has seen x.
    let s = poet.record(t0, EventKind::Send, "m", "");
    poet.record_receive(t2, s.id(), "m", "");
    // KEEP more `a`s, each kept by §VI dedup because a send to T1
    // follows it, and none of them seen by T2.
    for _ in 0..KEEP {
        poet.record(t0, EventKind::Unary, "a", "");
        let s = poet.record(t0, EventKind::Send, "m", "");
        poet.record_receive(t1, s.id(), "m", "");
    }
    // T2's `b`: its only preceding `a` is x.
    poet.record(t2, EventKind::Unary, "b", "");
    poet.store().iter_arrival().cloned().collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("watermark-records-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the counterexample's log under a fresh directory: every event
/// as a deliver record, with one watermark record before the last.
fn write_log(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let (mut log, _) = wal::Wal::open(&dir, wal::WalOptions::default()).unwrap();
    let events = stream();
    let (last, before) = events.split_last().unwrap();
    let deliver = |log: &mut wal::Wal, e: &Event| {
        let mut payload = (SESSION.len() as u32).to_le_bytes().to_vec();
        payload.extend_from_slice(SESSION.as_bytes());
        put_event_body(&mut payload, e);
        log.append(REC_DELIVER, &payload).unwrap();
    };
    for e in before {
        deliver(&mut log, e);
    }
    let mut admitted = [0u32; N_TRACES];
    for e in before {
        admitted[e.trace().as_usize()] += 1;
    }
    let mut mark = KEEP.to_le_bytes().to_vec();
    mark.extend_from_slice(&(N_TRACES as u32).to_le_bytes());
    for n in admitted {
        mark.extend_from_slice(&n.to_le_bytes());
    }
    log.append(REC_WATERMARK, &mark).unwrap();
    deliver(&mut log, last);
    log.sync().unwrap();
    dir
}

/// The guarded set of one monitor, `p`, that every run below uses.
fn guarded_set() -> MonitorSet {
    let mut set = MonitorSet::new(N_TRACES);
    set.add("p", Pattern::parse(PATTERN).unwrap());
    set.enable_guard(GuardConfig::default());
    set
}

/// The stream is the counterexample: every trace has seen x before the
/// watermark, and an uninterrupted run reports both verdicts.
#[test]
fn the_stream_is_the_counterexample() {
    let events = stream();
    let (last, before) = events.split_last().unwrap();
    assert_eq!(last.id().to_string(), "T2:2");
    for t in 1..N_TRACES {
        assert!(
            before
                .iter()
                .any(|e| e.trace().as_usize() == t && e.clock().entries()[0] >= 1),
            "T{t} has not seen x"
        );
    }
    let mut set = guarded_set();
    let mut reported = Vec::new();
    for e in &events {
        reported.extend(set.observe_raw(e).into_iter().map(|(_, m)| m.to_string()));
    }
    assert_eq!(reported, EXPECTED);
}

#[test]
fn recovery_skips_the_watermark_and_reports_every_verdict() {
    let dir = write_log("serve");
    let set = guarded_set();
    let config = ServeConfig {
        wal_dir: Some(dir.clone()),
        durability: Durability::None,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", set, config).expect("bind loopback server");
    let client = Client::connect(&server.addr().to_string(), N_TRACES, SESSION).unwrap();
    assert_eq!(client.resume_from(), stream().len() as u64);
    client.shutdown().unwrap();
    let report = server.join();
    let reported: Vec<String> = report.verdicts.iter().map(|(_, m)| m.to_string()).collect();
    assert_eq!(reported, EXPECTED);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn offline_replay_skips_the_watermark_and_reports_every_verdict() {
    let dir = write_log("replay");
    let pattern_dir = scratch_dir("replay-pattern");
    let pattern = pattern_dir.join("p.pattern");
    std::fs::write(&pattern, PATTERN).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ocep"))
        .arg("replay")
        .args([&pattern, &dir])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let matches: Vec<&str> = stdout.lines().filter(|l| l.starts_with("match[")).collect();
    let expected: Vec<String> = EXPECTED.iter().map(|m| format!("match[p]: {m}")).collect();
    assert_eq!(matches, expected);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pattern_dir);
}
