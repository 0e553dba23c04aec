//! Malformed-frame corpus for the OCWP wire codec (tier-1).
//!
//! `tests/corpus/wire/` holds committed byte files, each a complete
//! length-prefixed frame that the decoder must reject with an
//! offset-carrying diagnostic — never a panic, never an allocation
//! bounded only by attacker-controlled counts. The corpus entries were
//! produced by seeded mutation of valid frames and shrunk by hand to
//! the minimal interesting shape; `regenerate_corpus` (ignored)
//! rebuilds them deterministically from the encoder.
//!
//! A second layer drives the corpus at a **live** loopback server:
//! every malformed frame must come back as a `Fault` reply while the
//! connection stays usable — a valid event sent after the garbage must
//! still be admitted and matched. The same bytes, sent in one write
//! and one byte per write, must draw exactly the `Fault` replies and
//! fault counters that `FrameDecoder`'s outcomes for them name.
//!
//! A third layer pins what the server writes: one scripted session over
//! two raw sockets must read back byte-identical frames, in the same
//! order, and the outbound frame counters must name exactly the frames
//! the sockets read.

use ocep_repro::net::wire::{self, Decoded, FaultCode, Frame, FrameDecoder, Mode, MAX_FRAME};
use ocep_repro::net::{Client, ServeConfig, Server, WireError};
use ocep_repro::ocep::ingest::GuardConfig;
use ocep_repro::ocep::MonitorSet;
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::{EventKind, PoetServer};
use ocep_repro::vclock::TraceId;
use ocep_rng::Rng;
use std::io::{Read, Write};
use std::path::PathBuf;

mod common;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/wire")
}

/// Wraps a frame body in the u32 length prefix (the on-wire form).
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// A deterministic single-record Event frame body to mutate.
fn sample_event_body() -> Vec<u8> {
    let mut poet = PoetServer::new(2);
    let e = poet.record(TraceId::new(0), EventKind::Unary, "door", "open");
    wire::encode_body(&Frame::Event(Box::new(e)))
}

/// The committed corpus, rebuilt from scratch. Each entry is a full
/// length-prefixed frame; names describe the injected defect.
fn build_corpus() -> Vec<(&'static str, Vec<u8>)> {
    let hello = wire::encode_body(&Frame::Hello {
        mode: Mode::Producer,
        n_traces: 2,
        name: "corpus".into(),
    });
    let event = sample_event_body();
    let mut entries: Vec<(&'static str, Vec<u8>)> = Vec::new();

    let mut bad_magic = hello.clone();
    bad_magic[1..5].copy_from_slice(b"XXXX");
    entries.push(("bad_magic.bin", framed(&bad_magic)));

    let mut bad_version = hello.clone();
    bad_version[5] = 99;
    entries.push(("bad_version.bin", framed(&bad_version)));

    entries.push(("unknown_type.bin", framed(&[0xEE])));

    let truncated = &event[..event.len() / 2];
    entries.push(("truncated_event.bin", framed(truncated)));

    let mut trailing = wire::encode_body(&Frame::Flush);
    trailing.extend_from_slice(b"\xde\xad\xbe");
    entries.push(("trailing_garbage.bin", framed(&trailing)));

    entries.push(("zero_length.bin", 0u32.to_le_bytes().to_vec()));

    entries.push((
        "oversize_length.bin",
        ((MAX_FRAME as u32) + 1).to_le_bytes().to_vec(),
    ));

    // The clock tail of the single-record body is
    // [clock_n u32][entry u32][entry u32]; claim a 4-billion-entry
    // clock to probe the allocation bound.
    let mut hostile_clock = event.clone();
    let n_at = hostile_clock.len() - 12;
    hostile_clock[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    entries.push(("hostile_clock_width.bin", framed(&hostile_clock)));

    // Hand-rolled record whose type id points past the string table.
    let mut bad_string = vec![1u8]; // T_EVENT
    bad_string.extend_from_slice(&1u32.to_le_bytes()); // one string
    bad_string.extend_from_slice(&1u32.to_le_bytes());
    bad_string.push(b'a');
    bad_string.extend_from_slice(&1u32.to_le_bytes()); // one record
    bad_string.extend_from_slice(&0u32.to_le_bytes()); // trace
    bad_string.extend_from_slice(&0u32.to_le_bytes()); // index
    bad_string.push(2); // Unary
    bad_string.extend_from_slice(&7u32.to_le_bytes()); // ty id 7: no such string
    bad_string.extend_from_slice(&0u32.to_le_bytes()); // text id
    bad_string.push(0); // no partner
    bad_string.extend_from_slice(&0u32.to_le_bytes()); // empty clock
    entries.push(("bad_string_id.bin", framed(&bad_string)));

    // String table entry that is not UTF-8.
    let mut bad_utf8 = vec![1u8];
    bad_utf8.extend_from_slice(&1u32.to_le_bytes());
    bad_utf8.extend_from_slice(&2u32.to_le_bytes());
    bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
    entries.push(("bad_utf8.bin", framed(&bad_utf8)));

    // Batch claiming a thousand records with zero record bytes.
    let mut overcount = vec![2u8]; // T_EVENT_BATCH
    overcount.extend_from_slice(&0u32.to_le_bytes()); // empty string table
    overcount.extend_from_slice(&1000u32.to_le_bytes());
    entries.push(("batch_overcount.bin", framed(&overcount)));

    // Valid record prefix with a kind byte outside {0,1,2}. The kind
    // byte of the single-record body sits right after the two u32 ids.
    let mut bad_kind = event.clone();
    let kind_at = find_record_start(&event) + 8;
    bad_kind[kind_at] = 7;
    entries.push(("bad_kind.bin", framed(&bad_kind)));

    // Partner flag outside {0,1}: 13 bytes from the record start
    // (trace + index + kind + ty + text).
    let mut bad_pflag = event.clone();
    bad_pflag[kind_at + 9] = 9;
    entries.push(("bad_partner_flag.bin", framed(&bad_pflag)));

    // --- Delta-encoded batches (T_EVENT_BATCH_D): every way the
    // sparse clock tail can lie. ---

    // Delta record with no prior full clock on its trace.
    let mut no_base = vec![1u8]; // cflag: delta
    no_base.extend_from_slice(&1u32.to_le_bytes()); // one change
    no_base.extend_from_slice(&0u32.to_le_bytes()); // column 0
    no_base.extend_from_slice(&1u32.to_le_bytes()); // value 1
    entries.push(("delta_no_base.bin", framed(&delta_batch_body(1, &no_base))));

    // Clock flag outside {0,1}.
    entries.push(("delta_bad_flag.bin", framed(&delta_batch_body(2, &[7]))));

    // Delta claiming 4 billion changed columns with no bytes behind it.
    let mut hostile = vec![1u8];
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    entries.push((
        "delta_hostile_count.bin",
        framed(&delta_batch_body(2, &hostile)),
    ));

    // Delta column past the width of the base clock.
    let mut col_oob = vec![1u8];
    col_oob.extend_from_slice(&1u32.to_le_bytes());
    col_oob.extend_from_slice(&9u32.to_le_bytes()); // column 9, width 2
    col_oob.extend_from_slice(&5u32.to_le_bytes());
    entries.push((
        "delta_column_out_of_range.bin",
        framed(&delta_batch_body(2, &col_oob)),
    ));

    // Delta columns out of ascending order.
    let mut descend = vec![1u8];
    descend.extend_from_slice(&2u32.to_le_bytes());
    descend.extend_from_slice(&1u32.to_le_bytes());
    descend.extend_from_slice(&5u32.to_le_bytes());
    descend.extend_from_slice(&0u32.to_le_bytes());
    descend.extend_from_slice(&6u32.to_le_bytes());
    entries.push((
        "delta_columns_descend.bin",
        framed(&delta_batch_body(2, &descend)),
    ));

    // Delta truncated mid-pair: promises two changes, carries one.
    let mut cut = vec![1u8];
    cut.extend_from_slice(&2u32.to_le_bytes());
    cut.extend_from_slice(&0u32.to_le_bytes());
    cut.extend_from_slice(&3u32.to_le_bytes());
    entries.push(("delta_truncated.bin", framed(&delta_batch_body(2, &cut))));

    // --- Multi-tenant registration frames (T_REGISTER / T_UNREGISTER /
    // T_TAIL_TENANT): every way the tenant header and the pattern table
    // can lie. ---

    // Tenant id carrying the namespace separator: rejected before it
    // could alias another tenant's `{tenant}/{pattern}` monitors.
    let mut bad_tenant = vec![14u8]; // T_REGISTER
    pstr(&mut bad_tenant, "bad/tenant");
    bad_tenant.extend_from_slice(&0u32.to_le_bytes()); // empty table
    bad_tenant.extend_from_slice(&0u32.to_le_bytes()); // no patterns
    entries.push(("register_bad_tenant.bin", framed(&bad_tenant)));

    // Tenant id one byte over the 64-byte shape bound.
    let mut long_tenant = vec![16u8]; // T_TAIL_TENANT
    pstr(&mut long_tenant, &"a".repeat(65));
    entries.push(("tail_tenant_overlong.bin", framed(&long_tenant)));

    // Register record whose source id points past the string table.
    let mut unknown_ref = vec![14u8]; // T_REGISTER
    pstr(&mut unknown_ref, "t0");
    unknown_ref.extend_from_slice(&1u32.to_le_bytes()); // one string
    pstr(&mut unknown_ref, "p");
    unknown_ref.extend_from_slice(&1u32.to_le_bytes()); // one pattern
    unknown_ref.extend_from_slice(&0u32.to_le_bytes()); // name id 0
    unknown_ref.extend_from_slice(&7u32.to_le_bytes()); // src id 7: no such string
    entries.push(("register_unknown_pattern_ref.bin", framed(&unknown_ref)));

    // Unregister entry naming an id beyond the table.
    let mut unknown_unreg = vec![15u8]; // T_UNREGISTER
    pstr(&mut unknown_unreg, "t0");
    unknown_unreg.extend_from_slice(&1u32.to_le_bytes()); // one string
    pstr(&mut unknown_unreg, "p");
    unknown_unreg.extend_from_slice(&1u32.to_le_bytes()); // one name
    unknown_unreg.extend_from_slice(&5u32.to_le_bytes()); // id 5: no such string
    entries.push(("unregister_unknown_pattern_ref.bin", framed(&unknown_unreg)));

    // String table truncated mid-entry: claims two strings, the first
    // promises 9 bytes and the body ends after 3.
    let mut cut_table = vec![14u8]; // T_REGISTER
    pstr(&mut cut_table, "t0");
    cut_table.extend_from_slice(&2u32.to_le_bytes()); // two strings
    cut_table.extend_from_slice(&9u32.to_le_bytes()); // 9 bytes promised...
    cut_table.extend_from_slice(b"abc"); // ...3 delivered
    entries.push(("register_truncated_table.bin", framed(&cut_table)));

    // Register claiming 4 billion patterns with no bytes behind it.
    let mut hostile_reg = vec![14u8]; // T_REGISTER
    pstr(&mut hostile_reg, "t0");
    hostile_reg.extend_from_slice(&0u32.to_le_bytes()); // empty table
    hostile_reg.extend_from_slice(&u32::MAX.to_le_bytes());
    entries.push(("register_hostile_count.bin", framed(&hostile_reg)));

    entries
}

/// Appends a length-prefixed string (the wire codec's `str` shape).
fn pstr(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Hand-rolled delta-batch body (`T_EVENT_BATCH_D` = 10). With
/// `records == 2` the first record carries a full width-2 clock `[1, 0]`
/// on trace 0 (establishing the delta base) and the second record's
/// clock tail is `last_clock_tail` verbatim; with `records == 1` the
/// single record gets `last_clock_tail` directly — no base exists.
fn delta_batch_body(records: u32, last_clock_tail: &[u8]) -> Vec<u8> {
    let mut b = vec![10u8]; // T_EVENT_BATCH_D
    b.extend_from_slice(&1u32.to_le_bytes()); // one string
    b.extend_from_slice(&1u32.to_le_bytes());
    b.push(b'a');
    b.extend_from_slice(&records.to_le_bytes());
    for i in 0..records {
        b.extend_from_slice(&0u32.to_le_bytes()); // trace
        b.extend_from_slice(&(i + 1).to_le_bytes()); // index
        b.push(2); // Unary
        b.extend_from_slice(&0u32.to_le_bytes()); // ty id
        b.extend_from_slice(&0u32.to_le_bytes()); // text id
        b.push(0); // no partner
        if i + 1 < records {
            b.push(0); // full clock [1, 0]
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&0u32.to_le_bytes());
        } else {
            b.extend_from_slice(last_clock_tail);
        }
    }
    b
}

/// Byte offset of the first record in `sample_event_body`'s encoding:
/// type byte, string count, then each length-prefixed string, then the
/// record count.
fn find_record_start(body: &[u8]) -> usize {
    let mut at = 1;
    let n = u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
    at += 4;
    for _ in 0..n {
        let len = u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len;
    }
    at + 4
}

/// Rebuilds the committed corpus. Run with
/// `cargo test --test wire_corpus -- --ignored regenerate` after a
/// wire-format change, and review the diff.
#[test]
#[ignore = "regenerates tests/corpus/wire/; run explicitly"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in build_corpus() {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

fn read_corpus() -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus/wire exists")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn committed_corpus_matches_generator() {
    // The committed bytes and the generator must agree, so a format
    // change cannot silently orphan the corpus.
    let want = build_corpus();
    let have = read_corpus();
    assert_eq!(have.len(), want.len(), "corpus file count drifted");
    for (name, bytes) in &want {
        let found = have.iter().find(|(n, _)| n == name);
        assert_eq!(
            found.map(|(_, b)| b.as_slice()),
            Some(bytes.as_slice()),
            "{name} drifted from the generator; rerun regenerate_corpus"
        );
    }
}

#[test]
fn every_corpus_frame_is_rejected_with_a_diagnostic() {
    for (name, bytes) in read_corpus() {
        let mut cursor = std::io::Cursor::new(bytes.as_slice());
        let err = match wire::read_frame(&mut cursor) {
            Ok(f) => panic!("{name} decoded cleanly to {f:?}"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(!msg.is_empty(), "{name}: empty diagnostic");
        match &err {
            WireError::Format(ocep_repro::poet::PoetError::BadHeader(_)) => {}
            // A zero-length frame has no offset to report: the prefix
            // itself is the defect.
            WireError::Format(_) => assert!(
                msg.contains("byte") || msg.contains("offset") || msg.contains("zero-length"),
                "{name}: format diagnostic lacks a byte offset: {msg}"
            ),
            WireError::Oversize(_) | WireError::Io(_) => {}
            other => panic!("{name}: unexpected error class {other:?}"),
        }
    }
}

#[test]
fn seeded_mutations_never_panic_the_decoder() {
    // Byte-level mutation fuzz: flips, truncations, and extensions of
    // every frame shape. The decoder must return Ok or Err — anything
    // that panics or hangs fails the test harness.
    let mut rng = Rng::seed_from_u64(0x0CE9_317E);
    let seeds: Vec<Vec<u8>> = vec![
        wire::encode_body(&Frame::Hello {
            mode: Mode::Tail,
            n_traces: 3,
            name: "fuzz".into(),
        }),
        sample_event_body(),
        wire::encode_body(&Frame::Flush),
        wire::encode_body(&Frame::Ack { credits: 9 }),
        wire::encode_body(&Frame::Verdict(ocep_repro::net::VerdictFrame {
            monitor: "m".into(),
            bindings: vec![(0, 1), (2, 3)],
        })),
        wire::encode_body(&Frame::Register {
            tenant: "acme".into(),
            patterns: vec![("p0".into(), "A := [*, a, *]; p0 := A;".into())],
        }),
        wire::encode_body(&Frame::Unregister {
            tenant: "acme".into(),
            patterns: vec!["p0".into()],
        }),
        wire::encode_body(&Frame::TailTenant {
            tenant: "acme".into(),
        }),
    ];
    for round in 0..2_000 {
        let body = common::mutate(&mut rng, &seeds[round % seeds.len()]);
        let _ = wire::decode_body(&body);
    }
}

#[test]
fn live_server_quarantines_garbage_and_connection_survives() {
    let pattern = Pattern::parse("A := [*, open, *]; pattern := A;").unwrap();
    let mut set = MonitorSet::new(2);
    set.add("pattern", pattern);
    set.enable_guard(GuardConfig::default());
    let server = Server::bind("127.0.0.1:0", set, ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let mut poet = PoetServer::new(2);
    let event = poet.record(TraceId::new(0), EventKind::Unary, "open", "door");

    let mut sock = std::net::TcpStream::connect(&addr).unwrap();
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    wire::write_frame(
        &mut sock,
        &Frame::Hello {
            mode: Mode::Producer,
            n_traces: 2,
            name: "garbage".into(),
        },
    )
    .unwrap();

    // Blast every corpus frame that keeps the connection open (the
    // oversize prefix is specified to hard-close, tested below).
    let mut sent = 0usize;
    for (name, bytes) in read_corpus() {
        if name == "oversize_length.bin" {
            continue;
        }
        sock.write_all(&bytes).unwrap();
        sent += 1;
    }
    // The connection must still work: a valid event after the garbage.
    wire::write_frame(&mut sock, &Frame::Event(Box::new(event))).unwrap();
    wire::write_frame(&mut sock, &Frame::Shutdown).unwrap();
    sock.flush().unwrap();

    let mut faults = 0usize;
    let mut acks = 0u64;
    loop {
        match wire::read_frame(&mut sock) {
            Ok(Frame::Fault { detail, .. }) => {
                assert!(!detail.is_empty());
                faults += 1;
            }
            Ok(Frame::Ack { credits }) => acks += u64::from(credits),
            Ok(Frame::StatsReport(_)) | Err(WireError::Closed) => break,
            Ok(other) => panic!("unexpected reply {other:?}"),
            Err(e) => panic!("reply stream failed: {e}"),
        }
    }
    assert_eq!(faults, sent, "every garbage frame earns exactly one fault");
    assert!(acks >= 1, "the post-garbage event was never credited");

    let report = server.join();
    assert_eq!(
        report.ingest.admitted, 1,
        "the valid event after the garbage must still be admitted"
    );
    assert_eq!(report.verdicts.len(), 1, "and must still produce a match");
    let text = report.metrics.to_prometheus();
    assert!(
        text.contains("ocep_net_decode_faults_total"),
        "decode faults must surface in metrics:\n{text}"
    );
}

#[test]
fn oversize_prefix_hard_closes_but_other_clients_are_unaffected() {
    let pattern = Pattern::parse("A := [*, open, *]; pattern := A;").unwrap();
    let mut set = MonitorSet::new(2);
    set.add("pattern", pattern);
    set.enable_guard(GuardConfig::default());
    let server = Server::bind("127.0.0.1:0", set, ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();

    // Connection 1: oversize length prefix → Fault then close.
    let mut bad = std::net::TcpStream::connect(&addr).unwrap();
    bad.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    bad.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes())
        .unwrap();
    match wire::read_frame(&mut bad) {
        Ok(Frame::Fault { .. }) => {}
        other => panic!("expected a fault for the oversize prefix, got {other:?}"),
    }
    // The server must close the connection afterwards.
    let mut rest = Vec::new();
    let _ = bad.read_to_end(&mut rest);
    assert!(rest.is_empty(), "no frames may follow the oversize fault");

    // Connection 2 (after the abuse): normal client still served.
    let mut poet = PoetServer::new(2);
    let event = poet.record(TraceId::new(0), EventKind::Unary, "open", "door");
    let mut client = Client::connect(&addr, 2, "good").unwrap();
    client.send_event(&event).unwrap();
    let stats = client.shutdown().unwrap();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.matches, 1);

    let report = server.join();
    assert_eq!(report.verdicts.len(), 1);
}

/// What [`wire::FrameDecoder`] decides about `stream`: the `(code,
/// detail)` of every quarantined body and of the fatal prefix, if any.
type Rejections = (Vec<(FaultCode, String)>, Vec<(FaultCode, String)>);

fn decoder_rejections(stream: &[u8]) -> Rejections {
    let mut dec = FrameDecoder::new();
    dec.push(stream);
    let (mut quarantined, mut fatal) = (Vec::new(), Vec::new());
    while let Some(d) = dec.next() {
        match d {
            Decoded::Frame { .. } => {}
            Decoded::Quarantined { code, detail } => quarantined.push((code, detail)),
            Decoded::Fatal { code, detail } => fatal.push((code, detail)),
        }
    }
    (quarantined, fatal)
}

/// Sends `stream` to a fresh loopback server over a raw socket — in
/// one write, or one byte per write — and returns the `(code, detail)`
/// of every `Fault` it answers with, in order, and its final metrics.
fn tcp_reader_faults(stream: &[u8], one_byte_writes: bool) -> (Vec<(FaultCode, String)>, String) {
    let pattern = Pattern::parse("A := [*, open, *]; pattern := A;").unwrap();
    let mut set = MonitorSet::new(2);
    set.add("pattern", pattern);
    set.enable_guard(GuardConfig::default());
    let server = Server::bind("127.0.0.1:0", set, ServeConfig::default()).unwrap();
    let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    if one_byte_writes {
        for b in stream {
            sock.write_all(std::slice::from_ref(b)).unwrap();
        }
    } else {
        sock.write_all(stream).unwrap();
    }
    sock.flush().unwrap();
    let mut faults = Vec::new();
    loop {
        match wire::read_frame(&mut sock) {
            Ok(Frame::Fault { code, detail }) => faults.push((code, detail)),
            Ok(Frame::StatsReport(_)) | Err(WireError::Closed) => break,
            Ok(_) => {}
            Err(e) => panic!("reply stream failed: {e}"),
        }
    }
    // A stream without `Shutdown` ends with the server closing the
    // connection; stop the server explicitly then.
    server.handle().shutdown();
    (faults, server.join().metrics.to_prometheus())
}

/// Fault frames the server sent, the series both pins read.
const OUT_FAULTS: &str = "ocep_net_frames_total{dir=\"out\",type=\"fault\"}";

/// The value of the sample `series` (name plus labels) in `text`.
fn sample(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn tcp_reader_faults_equal_frame_decoder_quarantines() {
    let mut poet = PoetServer::new(2);
    let event = poet.record(TraceId::new(0), EventKind::Unary, "open", "door");
    let mut stream = Vec::new();
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            mode: Mode::Producer,
            n_traces: 2,
            name: "pin".into(),
        },
    )
    .unwrap();
    for (name, bytes) in read_corpus() {
        if name != "oversize_length.bin" {
            stream.extend_from_slice(&bytes);
        }
    }
    wire::write_frame(&mut stream, &Frame::Event(Box::new(event))).unwrap();
    wire::write_frame(&mut stream, &Frame::Shutdown).unwrap();

    let (quarantined, fatal) = decoder_rejections(&stream);
    assert!(fatal.is_empty(), "{fatal:?}");
    assert!(!quarantined.is_empty());
    let n = quarantined.len() as u64;
    for one_byte_writes in [false, true] {
        let (faults, metrics) = tcp_reader_faults(&stream, one_byte_writes);
        assert_eq!(faults, quarantined, "one_byte_writes={one_byte_writes}");
        assert_eq!(
            sample(&metrics, "ocep_net_decode_faults_total{kind=\"decode\"}"),
            Some(n),
            "{metrics}"
        );
        assert_eq!(sample(&metrics, OUT_FAULTS), Some(n), "{metrics}");
    }
}

#[test]
fn tcp_reader_oversize_fault_equals_frame_decoder_fatal() {
    let mut stream = Vec::new();
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            mode: Mode::Producer,
            n_traces: 2,
            name: "pin".into(),
        },
    )
    .unwrap();
    stream.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());

    let (quarantined, fatal) = decoder_rejections(&stream);
    assert!(quarantined.is_empty(), "{quarantined:?}");
    assert_eq!(fatal.len(), 1);
    for one_byte_writes in [false, true] {
        let (faults, metrics) = tcp_reader_faults(&stream, one_byte_writes);
        assert_eq!(faults, fatal, "one_byte_writes={one_byte_writes}");
        assert_eq!(
            sample(&metrics, "ocep_net_decode_faults_total{kind=\"oversize\"}"),
            Some(1),
            "{metrics}"
        );
        assert_eq!(sample(&metrics, OUT_FAULTS), Some(1), "{metrics}");
    }
}

// ---------------------------------------------------------------------
// The outbound bytes of one served session, pinned.
// ---------------------------------------------------------------------

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every frame in `bytes`, which must hold whole frames only.
fn frames_of(bytes: &[u8]) -> Vec<Frame> {
    let mut rest = bytes;
    let mut frames = Vec::new();
    while !rest.is_empty() {
        frames.push(wire::read_frame(&mut rest).expect("the server wrote a valid frame"));
    }
    frames
}

/// What the two raw sockets of [`served_session`] read, to EOF, and
/// the server's final metrics.
struct Session {
    tail: Vec<u8>,
    producer: Vec<u8>,
    metrics: String,
}

/// Serves one scripted session over loopback: a raw tail says hello and
/// reads its ack; then a raw producer sends hello, three events, a
/// batch of three, a flush, a stats request, one corpus body that the
/// decoder quarantines, an `Ack` (illegal from a client) and shutdown.
fn served_session() -> Session {
    let pattern = Pattern::parse("A := [*, open, *]; pattern := A;").unwrap();
    let mut set = MonitorSet::new(2);
    set.add("pattern", pattern);
    set.enable_guard(GuardConfig::default());
    let server = Server::bind("127.0.0.1:0", set, ServeConfig::default()).unwrap();
    let connect = || {
        let sock = std::net::TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        sock
    };

    let mut tail_sock = connect();
    wire::write_frame(
        &mut tail_sock,
        &Frame::Hello {
            mode: Mode::Tail,
            n_traces: 0,
            name: "pin-tail".into(),
        },
    )
    .unwrap();
    let mut tail = vec![0u8; 4];
    tail_sock.read_exact(&mut tail).unwrap();
    let body_len = u32::from_le_bytes(tail[..4].try_into().unwrap()) as usize;
    tail.resize(4 + body_len, 0);
    tail_sock.read_exact(&mut tail[4..]).unwrap();
    assert!(matches!(frames_of(&tail).as_slice(), [Frame::Ack { .. }]));

    let mut poet = PoetServer::new(2);
    let mut events: Vec<_> = (0..6)
        .map(|i| {
            let t = TraceId::new(i % 2);
            poet.record(t, EventKind::Unary, "open", format!("door-{i}"))
        })
        .collect();
    let batch = events.split_off(3);
    let unknown_type = read_corpus()
        .into_iter()
        .find(|(name, _)| name == "unknown_type.bin")
        .expect("corpus holds unknown_type.bin")
        .1;
    let mut frames = vec![Frame::Hello {
        mode: Mode::Producer,
        n_traces: 2,
        name: "pin-producer".into(),
    }];
    frames.extend(events.into_iter().map(|e| Frame::Event(Box::new(e))));
    frames.extend([Frame::EventBatch(batch), Frame::Flush, Frame::StatsReq]);
    let mut stream = Vec::new();
    for f in &frames {
        wire::write_frame(&mut stream, f).unwrap();
    }
    stream.extend_from_slice(&unknown_type);
    for f in [Frame::Ack { credits: 1 }, Frame::Shutdown] {
        wire::write_frame(&mut stream, &f).unwrap();
    }

    let mut producer_sock = connect();
    producer_sock.write_all(&stream).unwrap();
    let mut producer = Vec::new();
    producer_sock.read_to_end(&mut producer).unwrap();
    tail_sock.read_to_end(&mut tail).unwrap();
    let metrics = server.join().metrics.to_prometheus();
    Session {
        tail,
        producer,
        metrics,
    }
}

/// The `ocep_net_frames_total{dir="out",...}` samples in `text`, by type.
fn out_frames_by_type(text: &str) -> std::collections::BTreeMap<String, u64> {
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("ocep_net_frames_total{dir=\"out\",type=\"")?;
            let (ty, n) = rest.split_once("\"} ")?;
            Some((ty.to_string(), n.parse().ok()?))
        })
        .collect()
}

const TAIL_TYPES: &[&str] = &["ack", "verdict", "verdict", "stats_report"];
const PRODUCER_TYPES: &[&str] = &[
    "ack",
    "ack",
    "ack",
    "ack",
    "ack",
    "ack",
    "stats_report",
    "fault",
    "fault",
    "stats_report",
];
const TAIL_DIGEST: u64 = 0x5577_bbc2_9d91_b3f8;
const PRODUCER_DIGEST: u64 = 0x57b4_cb07_9419_1734;

#[test]
fn outbound_bytes_and_frame_counts_are_pinned() {
    let s = served_session();
    let mut read_by_type = std::collections::BTreeMap::new();
    for (bytes, types, digest) in [
        (&s.tail, TAIL_TYPES, TAIL_DIGEST),
        (&s.producer, PRODUCER_TYPES, PRODUCER_DIGEST),
    ] {
        let frames = frames_of(bytes);
        let mut reencoded = Vec::new();
        for f in &frames {
            wire::write_frame(&mut reencoded, f).unwrap();
            *read_by_type
                .entry(f.type_name().to_string())
                .or_insert(0u64) += 1;
        }
        assert_eq!(
            &reencoded, bytes,
            "the server wrote what write_frame writes"
        );
        let read_types: Vec<&str> = frames.iter().map(Frame::type_name).collect();
        assert_eq!(read_types, types, "{frames:?}");
        assert_eq!(fnv1a(bytes), digest, "actual: {:#018x}", fnv1a(bytes));
    }
    assert_eq!(
        out_frames_by_type(&s.metrics),
        read_by_type,
        "{}",
        s.metrics
    );
}

/// The engine counts outbound bytes as it queues them, so the total is
/// exact once the server has stopped, final stats reports included.
#[test]
fn outbound_byte_total_equals_what_the_sockets_read() {
    let s = served_session();
    let read = (s.tail.len() + s.producer.len()) as u64;
    assert_eq!(
        sample(&s.metrics, "ocep_net_bytes_total{dir=\"out\"}"),
        Some(read),
        "{}",
        s.metrics
    );
}
