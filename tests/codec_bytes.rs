//! Byte pins for every *valid* encoding of the `Event` record (tier-1).
//!
//! The malformed-frame corpora pin what the decoders reject; the
//! transparency suites compare a run against another run of the same
//! encoder and decoder, so a symmetric drift on both sides would pass
//! them. This file pins the writers themselves: over one seeded stream
//! (clock widths 8 and 50; sends, receives and unaries; repeated and
//! distinct type/text strings) it records the length and FNV-1a 64 of
//! every `Frame` variant through `encode_body` and `encode_body_delta`,
//! of `put_event_body`, of OCKP and OCKS checkpoints, of a POET dump and
//! of the four record payloads a WAL-backed `ShardGroup` logs — and
//! checks decode → re-encode identity for each.
//!
//! `PINS` was computed at commit 81ea5c6, before the record codec moved
//! into `ocep_poet::codec`, and is not to be edited: a refactor of the
//! writers passes here with every byte unchanged or not at all. The one
//! exception is the input, not a writer: the run used to log a history-GC
//! watermark before its checkpoint. That GC released nothing, but its
//! record took an LSN, and both checkpoint payloads carry LSNs. The two
//! `owal/checkpoint` rows are therefore what commit 3d08249 writes with
//! only that GC call removed.

use ocep_repro::net::shard::decode_deliver;
use ocep_repro::net::wire::{self, FaultCode, Frame, Mode, StatsReport, VerdictFrame};
use ocep_repro::net::ShardGroup;
use ocep_repro::ocep::checkpoint::{load_at, load_set_at, save_at, save_set_at, strip_metrics};
use ocep_repro::ocep::{GuardConfig, Monitor, MonitorConfig, MonitorSet, ObsLevel};
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::{dump, Event, EventKind, PoetServer};
use ocep_repro::vclock::TraceId;
use ocep_repro::wal::{
    self, Durability, REC_CHECKPOINT, REC_DELIVER, REC_REGISTER, REC_UNREGISTER,
};
use ocep_rng::Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// `(what, length, FNV-1a 64)` of every pinned encoding, in the order
/// `actual_pins` builds them.
const PINS: &[(&str, usize, u64)] = &[
    ("wire/hello-producer", 27, 0x6fbfa67cedf49f0a),
    ("wire-delta/hello-producer", 27, 0x6fbfa67cedf49f0a),
    ("wire/hello-tail", 16, 0x3dc39a20b37c5262),
    ("wire-delta/hello-tail", 16, 0x3dc39a20b37c5262),
    ("wire/event-send", 77, 0xed6f4a58aebde0c6),
    ("wire-delta/event-send", 77, 0xed6f4a58aebde0c6),
    ("put_event_body/event-send", 77, 0xed6f4a58aebde0c6),
    ("wire/event-receive", 86, 0x19e1af8cea81b70e),
    ("wire-delta/event-receive", 86, 0x19e1af8cea81b70e),
    ("put_event_body/event-receive", 86, 0x19e1af8cea81b70e),
    ("wire/event-wide", 251, 0xf48b51976a288012),
    ("wire-delta/event-wide", 251, 0xf48b51976a288012),
    ("put_event_body/event-wide", 251, 0xf48b51976a288012),
    ("wire/batch-8", 5449, 0x618f084eb9449dc3),
    ("wire-delta/batch-8", 3729, 0x5613de865c27d9d6),
    ("wire/batch-50", 21537, 0x2f3e68f99e71c0b9),
    ("wire-delta/batch-50", 10945, 0x22a894b0d2aa3436),
    ("wire/batch-empty", 9, 0x0cd92cf54dc615e5),
    ("wire-delta/batch-empty", 9, 0xa82bd7e1f29dc67d),
    ("wire/flush", 1, 0xaf63be4c8601b992),
    ("wire-delta/flush", 1, 0xaf63be4c8601b992),
    ("wire/checkpoint-req", 1, 0xaf63b94c8601b113),
    ("wire-delta/checkpoint-req", 1, 0xaf63b94c8601b113),
    ("wire/stats-req", 2, 0x08218a07b4dd0020),
    ("wire-delta/stats-req", 2, 0x08218a07b4dd0020),
    ("wire/stats-report", 47, 0x9b445a628563f2a3),
    ("wire-delta/stats-report", 47, 0x9b445a628563f2a3),
    ("wire/shutdown", 1, 0xaf63bb4c8601b479),
    ("wire-delta/shutdown", 1, 0xaf63bb4c8601b479),
    ("wire/ack", 5, 0xc004a4441fce85e6),
    ("wire-delta/ack", 5, 0xc004a4441fce85e6),
    ("wire/fault", 40, 0x7e279b2e02a80b1b),
    ("wire-delta/fault", 40, 0x7e279b2e02a80b1b),
    ("wire/verdict", 44, 0xc3bb954a8386fa37),
    ("wire-delta/verdict", 44, 0xc3bb954a8386fa37),
    ("wire/resume", 9, 0xcc2f1cf83fdcb39e),
    ("wire-delta/resume", 9, 0xcc2f1cf83fdcb39e),
    ("wire/tail-from", 9, 0x1e893034abb9d8a1),
    ("wire-delta/tail-from", 9, 0x1e893034abb9d8a1),
    ("wire/verdict-at", 52, 0xfedb35babe834afe),
    ("wire-delta/verdict-at", 52, 0xfedb35babe834afe),
    ("wire/register", 165, 0x84c3368afa76a24c),
    ("wire-delta/register", 165, 0x84c3368afa76a24c),
    ("wire/register-empty", 15, 0x31456ddd8f053e9f),
    ("wire-delta/register-empty", 15, 0x31456ddd8f053e9f),
    ("wire/unregister", 47, 0x647852e004771568),
    ("wire-delta/unregister", 47, 0x647852e004771568),
    ("wire/tail-tenant", 9, 0xb93244efd83a5691),
    ("wire-delta/tail-tenant", 9, 0xb93244efd83a5691),
    ("wire/registered", 13, 0x4f281414d442626f),
    ("wire-delta/registered", 13, 0x4f281414d442626f),
    ("ockp/full-obs-8/len", 12558, 0x0000000000000000),
    ("ockp/off-8", 4792, 0xd31790bb9fb082ef),
    ("ockp/full-obs-50/len", 22980, 0x0000000000000000),
    ("ockp/off-50", 15807, 0x2694887d51bb30b7),
    ("ocks/busy-set-full-obs/len", 1513, 0x0000000000000000),
    ("ocks/busy-set-off", 1320, 0x0968c74586fa928d),
    ("poet/8", 1622, 0x093e391aa302b6d3),
    ("poet/50", 1582, 0xa4d758fc5e30fdf0),
    ("owal/deliver×65", 5819, 0x9d591d41916664bb),
    ("owal/register×1", 53, 0xcfe4a32da21a143a),
    ("owal/unregister×1", 17, 0x84a40230cd46ef24),
    ("owal/checkpoint×1", 6318, 0x0a326352f38e44e4),
    ("owal/checkpoint-after-recovery", 6714, 0xd52c2f585ec54c17),
];

const SRC: &str = "A := [*, msg, *]; B := [*, ack, *]; pattern := A -> B;";
const LONE: &str = "C := [*, step, *]; pattern := C;";

fn fnv(bytes: &[u8]) -> u64 {
    wal::fnv1a64(wal::FNV_OFFSET, bytes)
}

/// The seeded stream: `n_events` events over `n_traces` traces. Types
/// repeat (`msg`/`ack`/`step`); texts are the repeated `x`, the empty
/// string, a text equal to its type, and one distinct string per
/// sixteenth event.
fn stream(seed: u64, n_traces: u32, n_events: usize) -> PoetServer {
    let mut rng = Rng::seed_from_u64(seed);
    let mut poet = PoetServer::new(n_traces as usize);
    let mut sends: Vec<Event> = Vec::new();
    for i in 0..n_events {
        let tr = TraceId::new(rng.gen_range(0u32..n_traces));
        let distinct = format!("t{i}");
        let text: &str = match i % 16 {
            0 => &distinct,
            1 | 2 => "",
            3 => "step",
            _ => "x",
        };
        match rng.gen_range(0u32..4) {
            0 if !sends.is_empty() => {
                let s = sends.swap_remove(rng.gen_range(0usize..sends.len()));
                if s.trace() == tr {
                    poet.record(tr, EventKind::Unary, "step", text);
                } else {
                    poet.record_receive(tr, s.id(), "ack", text);
                }
            }
            1 | 2 => sends.push(poet.record(tr, EventKind::Send, "msg", text)),
            _ => {
                poet.record(tr, EventKind::Unary, "step", text);
            }
        }
    }
    poet
}

fn events_of(poet: &PoetServer) -> Vec<Event> {
    poet.store().iter_arrival().cloned().collect()
}

fn frames() -> Vec<(&'static str, Frame)> {
    let narrow = events_of(&stream(21, 8, 96));
    let wide = events_of(&stream(22, 50, 96));
    let receive = narrow
        .iter()
        .find(|e| e.kind() == EventKind::Receive)
        .expect("the stream has receives")
        .clone();
    let verdict = VerdictFrame {
        monitor: "acme/safety".into(),
        bindings: vec![(0, 1), (7, 12), (49, 3)],
    };
    vec![
        (
            "hello-producer",
            Frame::Hello {
                mode: Mode::Producer,
                n_traces: 8,
                name: "codec-bytes".into(),
            },
        ),
        (
            "hello-tail",
            Frame::Hello {
                mode: Mode::Tail,
                n_traces: 0,
                name: String::new(),
            },
        ),
        ("event-send", Frame::Event(Box::new(narrow[0].clone()))),
        ("event-receive", Frame::Event(Box::new(receive))),
        ("event-wide", Frame::Event(Box::new(wide[40].clone()))),
        ("batch-8", Frame::EventBatch(narrow)),
        ("batch-50", Frame::EventBatch(wide)),
        ("batch-empty", Frame::EventBatch(Vec::new())),
        ("flush", Frame::Flush),
        ("checkpoint-req", Frame::CheckpointReq),
        ("stats-req", Frame::StatsReq),
        (
            "stats-report",
            Frame::StatsReport(StatsReport {
                admitted: 96,
                quarantined: 2,
                duplicates: 3,
                degraded: true,
                matches: 17,
                connections: 5,
                frames: u64::MAX - 6,
            }),
        ),
        ("shutdown", Frame::Shutdown),
        ("ack", Frame::Ack { credits: 64 }),
        (
            "fault",
            Frame::Fault {
                code: FaultCode::Ingest,
                detail: "clock width 7 on an 8-trace stream".into(),
            },
        ),
        ("verdict", Frame::Verdict(verdict.clone())),
        ("resume", Frame::Resume { durable: 9001 }),
        ("tail-from", Frame::TailFrom { from: 42 }),
        (
            "verdict-at",
            Frame::VerdictAt {
                lsn: u64::MAX - 3,
                verdict,
            },
        ),
        (
            "register",
            Frame::Register {
                tenant: "acme".into(),
                // The second pattern repeats the first one's source: one
                // table entry, two references.
                patterns: vec![
                    ("safety".into(), SRC.into()),
                    ("liveness".into(), SRC.into()),
                    ("lone".into(), LONE.into()),
                ],
            },
        ),
        (
            "register-empty",
            Frame::Register {
                tenant: "t0".into(),
                patterns: Vec::new(),
            },
        ),
        (
            "unregister",
            Frame::Unregister {
                tenant: "acme".into(),
                patterns: vec!["safety".into(), "lone".into(), "safety".into()],
            },
        ),
        (
            "tail-tenant",
            Frame::TailTenant {
                tenant: "acme".into(),
            },
        ),
        (
            "registered",
            Frame::Registered {
                tenant: "acme".into(),
                patterns: 17,
            },
        ),
    ]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("codec-bytes-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn monitor_over(events: &[Event], n_traces: usize, obs: ObsLevel) -> Monitor {
    let config = MonitorConfig {
        obs,
        ..MonitorConfig::default()
    };
    let mut m = Monitor::with_config(Pattern::parse(SRC).unwrap(), n_traces, config);
    for e in events {
        m.observe(e);
    }
    m
}

/// `decoder_mutations::busy_set()`: a guarded set of one monitor that
/// has seen its stream minus the first event, so the guard's reorder
/// buffer — the only writer of the inline-string record form — is
/// populated.
fn busy_set(obs: ObsLevel) -> (MonitorSet, HashMap<String, String>) {
    const PINGS: &str = "A := [*, ping, *]; B := [*, pong, *]; pattern := A -> B;";
    let mut poet = PoetServer::new(3);
    for i in 0..9u32 {
        let s = poet.record(TraceId::new(i % 3), EventKind::Send, "ping", "m");
        poet.record_receive(TraceId::new((i + 1) % 3), s.id(), "pong", "m");
    }
    let mut set = MonitorSet::new(3);
    let config = MonitorConfig {
        obs,
        ..MonitorConfig::default()
    };
    set.add_with_config("p", Pattern::parse(PINGS).unwrap(), config);
    set.enable_guard(GuardConfig::default());
    for e in poet.store().iter_arrival().skip(1) {
        set.observe_raw(e);
    }
    assert!(set.guard().unwrap().buffered() > 0);
    (set, HashMap::from([("p".to_owned(), PINGS.to_owned())]))
}

/// One miniature WAL-backed run: a static monitor, a mid-stream
/// registration, two batches with a log-anchored checkpoint between
/// them, an unregistration and a flush.
/// Returns the log directory.
fn shard_group_run(tag: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    let events = events_of(&stream(23, 8, 64));
    let mut set = MonitorSet::new(8);
    set.add("static", Pattern::parse(SRC).unwrap());
    set.enable_guard(GuardConfig::default());
    let sources = HashMap::from([("static".to_owned(), SRC.to_owned())]);
    let mut group = ShardGroup::new(set, 0, &sources);
    group.recover(&dir, Durability::Batch).unwrap();
    group
        .register("acme/lone", LONE, MonitorConfig::default())
        .unwrap();
    group.deliver_batch("sess", events[..40].to_vec());
    group.checkpoint();
    assert!(group.unregister("acme/lone"));
    // A swap and a duplicate: the replayed suffix crosses the guard's
    // slow path.
    let mut tail = events[40..].to_vec();
    tail.swap(0, 1);
    tail.push(events[45].clone());
    group.deliver_batch("sess", tail);
    group.flush();
    group.flush_os();
    assert_eq!(group.wal_append_errors(), 0);
    dir
}

fn pstr(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Splits `n` length-prefixed strings off `payload`, which must hold
/// exactly those.
fn strs(payload: &[u8], n: usize) -> Vec<String> {
    let mut at = 0;
    let mut out = Vec::new();
    for _ in 0..n {
        let len = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        out.push(String::from_utf8(payload[at + 4..at + 4 + len].to_vec()).unwrap());
        at += 4 + len;
    }
    assert_eq!(at, payload.len());
    out
}

/// Every pinned encoding, each checked for decode → re-encode identity
/// on the way.
fn actual_pins() -> Vec<(String, usize, u64)> {
    let mut pins: Vec<(String, usize, u64)> = Vec::new();
    let mut pin = |what: String, bytes: &[u8]| pins.push((what, bytes.len(), fnv(bytes)));

    for (name, frame) in frames() {
        let full = wire::encode_body(&frame);
        let back = wire::decode_body(&full).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, frame, "{name} full round trip");
        assert_eq!(wire::encode_body(&back), full, "{name} full re-encode");
        pin(format!("wire/{name}"), &full);

        let delta = wire::encode_body_delta(&frame);
        let back = wire::decode_body(&delta).unwrap_or_else(|e| panic!("{name} delta: {e}"));
        assert_eq!(back, frame, "{name} delta round trip");
        assert_eq!(
            wire::encode_body_delta(&back),
            delta,
            "{name} delta re-encode"
        );
        pin(format!("wire-delta/{name}"), &delta);

        if let Frame::Event(e) = &frame {
            let mut fast = Vec::new();
            wire::put_event_body(&mut fast, e);
            assert_eq!(
                fast, full,
                "{name}: put_event_body drifted from encode_body"
            );
            pin(format!("put_event_body/{name}"), &fast);
        }
    }

    // OCKP. A `Full`-obs monitor's metrics section holds wall-clock
    // histograms, so its hash is not reproducible: pin its length, the
    // re-encode identity, and the hash of the stripped bytes (equal to
    // what an obs-off monitor writes).
    for (name, seed, n_traces) in [("8", 21u64, 8u32), ("50", 22, 50)] {
        let events = events_of(&stream(seed, n_traces, 96));
        let full = save_at(
            &monitor_over(&events, n_traces as usize, ObsLevel::Full),
            SRC,
            77,
        );
        let loaded = load_at(&full).unwrap();
        assert_eq!(loaded.wal_lsn, 77);
        assert_eq!(
            save_at(&loaded.monitor, &loaded.pattern_src, loaded.wal_lsn),
            full,
            "OCKP {name} re-encode"
        );
        let off = save_at(
            &monitor_over(&events, n_traces as usize, ObsLevel::Off),
            SRC,
            77,
        );
        assert_eq!(strip_metrics(&full).unwrap(), off, "OCKP {name} stripped");
        pins.push((format!("ockp/full-obs-{name}/len"), full.len(), 0));
        pins.push((format!("ockp/off-{name}"), off.len(), fnv(&off)));
    }

    // OCKS: the guarded set's reorder buffer is written inline.
    let (set, sources) = busy_set(ObsLevel::Full);
    let full = save_set_at(&set, &sources, 5);
    let (back, embedded, lsn) = load_set_at(&full).unwrap();
    assert_eq!(lsn, 5);
    let embedded: HashMap<String, String> = embedded.into_iter().collect();
    assert_eq!(save_set_at(&back, &embedded, lsn), full, "OCKS re-encode");
    pins.push(("ocks/busy-set-full-obs/len".to_owned(), full.len(), 0));
    let (set, sources) = busy_set(ObsLevel::Off);
    let off = save_set_at(&set, &sources, 5);
    let (back, _, lsn) = load_set_at(&off).unwrap();
    assert_eq!(save_set_at(&back, &sources, lsn), off, "OCKS off re-encode");
    pins.push(("ocks/busy-set-off".to_owned(), off.len(), fnv(&off)));

    // POET dumps.
    for (name, seed, n_traces) in [("8", 21u64, 8u32), ("50", 22, 50)] {
        let bytes = dump::dump(stream(seed, n_traces, 96).store());
        let reloaded = dump::reload(&bytes).unwrap();
        assert_eq!(dump::dump(reloaded.store()), bytes, "POET {name} re-encode");
        pins.push((format!("poet/{name}"), bytes.len(), fnv(&bytes)));
    }

    // OWAL record payloads.
    let dir = shard_group_run("run");
    let records = wal::scan(&dir).unwrap().records;
    for (rtype, label, at_least) in [
        (REC_DELIVER, "deliver", 60),
        (REC_REGISTER, "register", 1),
        (REC_UNREGISTER, "unregister", 1),
        (REC_CHECKPOINT, "checkpoint", 1),
    ] {
        let payloads: Vec<&[u8]> = records
            .iter()
            .filter(|r| r.rtype == rtype)
            .map(|r| r.payload.as_slice())
            .collect();
        assert!(payloads.len() >= at_least, "{label}: {}", payloads.len());
        let mut all = Vec::new();
        for p in &payloads {
            all.extend_from_slice(&(p.len() as u32).to_le_bytes());
            all.extend_from_slice(p);
            let again = match rtype {
                REC_DELIVER => {
                    let (session, e) = decode_deliver(p).unwrap();
                    let mut out = Vec::new();
                    pstr(&mut out, &session);
                    wire::put_event_body(&mut out, &e);
                    out
                }
                REC_REGISTER => {
                    let parts = strs(p, 2);
                    assert_eq!(parts, ["acme/lone", LONE]);
                    p.to_vec()
                }
                REC_UNREGISTER => {
                    assert_eq!(strs(p, 1), ["acme/lone"]);
                    p.to_vec()
                }
                _ => p.to_vec(),
            };
            assert_eq!(again, *p, "{label} payload re-encode");
        }
        pins.push((
            format!("owal/{label}×{}", payloads.len()),
            all.len(),
            fnv(&all),
        ));
    }
    // The checkpoint payload's decoder is recovery: a group recovered
    // from a copy of the log checkpoints to the bytes the original
    // would.
    let checkpoint_after_recovery = |tag: &str| {
        let image = scratch_dir(tag);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
        }
        let mut set = MonitorSet::new(8);
        set.add("static", Pattern::parse(SRC).unwrap());
        set.enable_guard(GuardConfig::default());
        let sources = HashMap::from([("static".to_owned(), SRC.to_owned())]);
        let mut group = ShardGroup::new(set, 0, &sources);
        group.recover(&image, Durability::Batch).unwrap();
        group.checkpoint();
        group.flush_os();
        let records = wal::scan(&image).unwrap().records;
        let last = records.last().unwrap();
        assert_eq!(last.rtype, REC_CHECKPOINT);
        let _ = std::fs::remove_dir_all(&image);
        last.payload.clone()
    };
    let first = checkpoint_after_recovery("image-a");
    assert_eq!(
        first,
        checkpoint_after_recovery("image-b"),
        "recovery is deterministic"
    );
    pins.push((
        "owal/checkpoint-after-recovery".to_owned(),
        first.len(),
        fnv(&first),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    pins
}

#[test]
fn every_valid_encoding_matches_its_parent_written_pin() {
    let actual = actual_pins();
    let table: String = actual
        .iter()
        .map(|(what, len, hash)| format!("    ({what:?}, {len}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(
        actual.len(),
        PINS.len(),
        "pin count drifted; actual:\n{table}"
    );
    for ((what, len, hash), (pin_what, pin_len, pin_hash)) in actual.iter().zip(PINS) {
        assert_eq!(what, pin_what, "pin order drifted; actual:\n{table}");
        assert_eq!(
            (len, hash),
            (pin_len, pin_hash),
            "{what}: bytes drifted from the parent's; actual:\n{table}"
        );
    }
}

#[test]
fn the_stream_covers_every_record_shape() {
    for (seed, n_traces) in [(21u64, 8u32), (22, 50)] {
        let events = events_of(&stream(seed, n_traces, 96));
        for kind in [EventKind::Send, EventKind::Receive, EventKind::Unary] {
            assert!(events.iter().any(|e| e.kind() == kind), "{kind}");
        }
        assert!(events.iter().all(|e| e.clock().len() == n_traces as usize));
        assert!(events.iter().any(|e| e.ty() == e.text()));
        assert!(events.iter().any(|e| e.text().is_empty()));
        let distinct: std::collections::HashSet<&str> = events.iter().map(Event::text).collect();
        assert!(distinct.len() >= 8, "distinct texts: {}", distinct.len());
        assert!(events.iter().filter(|e| e.text() == "x").count() > 30);
    }
}
