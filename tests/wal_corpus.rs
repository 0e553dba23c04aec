//! Durable-log corruption corpus (tier-1).
//!
//! Each case under `tests/corpus/wal/` is a log directory snapshot with
//! one deliberate fault — a torn tail or a structural corruption — as
//! files named `<case>__<segment>.bin`. The committed bytes are pinned
//! against a deterministic generator (same discipline as the wire
//! corpus), and every case must:
//!
//! * fail `verify` (strict scan) with a `Corrupt` error naming the
//!   exact segment and byte offset — never a panic;
//! * behave correctly under recovery (`Wal::open`, repair scan): a torn
//!   tail in the final segment is truncated and serving continues with
//!   the intact prefix, while structural faults (bad magic, a broken
//!   chain mid-log, a stale generation) stay hard errors.

use ocep_repro::wal::{
    self, Durability, ScanMode, Wal, WalError, WalOptions, HEADER_LEN, RECORD_OVERHEAD,
};
use std::path::{Path, PathBuf};

/// Payload used for every generated record: 16 bytes, so one record
/// occupies `RECORD_OVERHEAD + 16 = 37` bytes.
fn payload(i: usize) -> Vec<u8> {
    format!("deliver-{i:08}").into_bytes()
}

const REC_BYTES: u64 = RECORD_OVERHEAD + 16;

fn opts(segment_bytes: u64) -> WalOptions {
    WalOptions {
        durability: Durability::None,
        segment_bytes,
        ..WalOptions::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ocep-wal-corpus-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `records` deliver records through the real writer and returns
/// the resulting segment files as sorted `(name, bytes)` pairs.
fn written_segments(records: usize, segment_bytes: u64) -> Vec<(String, Vec<u8>)> {
    let dir = scratch_dir("gen");
    let (mut w, _) = Wal::open(&dir, opts(segment_bytes)).unwrap();
    for i in 0..records {
        w.append(wal::REC_DELIVER, &payload(i)).unwrap();
    }
    w.sync().unwrap();
    drop(w);
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    out.sort();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// What the strict scan must say about a case.
struct Expect {
    /// Segment the diagnostic must name.
    segment: &'static str,
    /// Byte offset the diagnostic must carry.
    offset: u64,
    /// True when recovery (repair mode) must also reject the directory;
    /// false when the fault is a final-segment torn tail recovery heals.
    hard: bool,
    /// Intact records recovery salvages (torn-tail cases only).
    survivors: usize,
}

const SEG0: &str = "wal-00000000000000000000.seg";
const SEG1: &str = "wal-00000000000000000001.seg";

/// Segment files of one generated log, as sorted `(name, bytes)` pairs.
type Segments = Vec<(String, Vec<u8>)>;

fn cases() -> Vec<(&'static str, Segments, Expect)> {
    let mut out = Vec::new();

    // 1. A record cut mid-payload at the end of the last segment: the
    //    classic torn tail a crash during append leaves behind.
    {
        let mut segs = written_segments(4, 1 << 20);
        let keep = HEADER_LEN + 3 * REC_BYTES + 20; // 20 of record 4's 37 bytes
        segs[0].1.truncate(keep as usize);
        out.push((
            "truncated-record",
            segs,
            Expect {
                segment: SEG0,
                offset: HEADER_LEN + 3 * REC_BYTES,
                hard: false,
                survivors: 3,
            },
        ));
    }

    // 2. One flipped bit in a stored record hash in a *non-final*
    //    segment: a broken chain mid-log is never repairable.
    {
        let mut segs = written_segments(3, 64); // 37-byte records → 1 per segment
        assert_eq!(segs.len(), 3, "rotation layout drifted");
        let hash_at = (HEADER_LEN + REC_BYTES - 8) as usize;
        segs[0].1[hash_at] ^= 0x01;
        out.push((
            "bitflip-chain",
            segs,
            Expect {
                segment: SEG0,
                offset: HEADER_LEN,
                hard: true,
                survivors: 0,
            },
        ));
    }

    // 3. Wrong magic: the file is not a log segment at all.
    {
        let mut segs = written_segments(2, 1 << 20);
        segs[0].1[0..4].copy_from_slice(b"XWAL");
        out.push((
            "bad-magic",
            segs,
            Expect {
                segment: SEG0,
                offset: 0,
                hard: true,
                survivors: 0,
            },
        ));
    }

    // 4. A zero-filled tail (preallocated blocks never written): parses
    //    as record type 0 at the first zero byte.
    {
        let mut segs = written_segments(2, 1 << 20);
        let tear_at = segs[0].1.len() as u64;
        segs[0].1.extend_from_slice(&[0u8; 64]);
        out.push((
            "zero-fill-tail",
            segs,
            Expect {
                segment: SEG0,
                offset: tear_at,
                hard: false,
                survivors: 2,
            },
        ));
    }

    // 5. A later segment stamped with an *older* generation than its
    //    predecessor: an overlapping stale writer, never trustworthy.
    {
        let mut segs = written_segments(2, 64);
        assert_eq!(segs.len(), 2, "rotation layout drifted");
        segs[1].1[8..16].copy_from_slice(&0u64.to_le_bytes());
        out.push((
            "stale-generation",
            segs,
            Expect {
                segment: SEG1,
                offset: 8,
                hard: true,
                survivors: 0,
            },
        ));
    }

    out
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/wal")
}

fn corpus_files() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (case, segs, _) in cases() {
        for (name, bytes) in segs {
            out.push((format!("{case}__{name}.bin"), bytes));
        }
    }
    out.sort();
    out
}

/// Rebuilds the committed corpus. Run with
/// `cargo test --test wal_corpus -- --ignored regenerate` after a log
/// format change, and review the diff.
#[test]
#[ignore = "regenerates tests/corpus/wal/; run explicitly"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in corpus_files() {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

#[test]
fn committed_corpus_matches_generator() {
    let want = corpus_files();
    // Subdirectories hold whole-log fixtures owned by other suites
    // (`tests/wal_layout.rs`).
    let mut have: Vec<(String, Vec<u8>)> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus/wal exists")
        .map(Result::unwrap)
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    have.sort();
    assert_eq!(
        have.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        want.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "corpus file set drifted; rerun regenerate_corpus"
    );
    for ((name, h), (_, w)) in have.iter().zip(&want) {
        assert_eq!(
            h, w,
            "{name} drifted from the generator; rerun regenerate_corpus"
        );
    }
}

/// Copies one case's committed files into a fresh directory under their
/// real segment names.
fn materialize(case: &str) -> PathBuf {
    let dir = scratch_dir(case);
    let mut copied = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus/wal exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(seg) = name
            .strip_prefix(case)
            .and_then(|r| r.strip_prefix("__"))
            .and_then(|r| r.strip_suffix(".bin"))
        {
            std::fs::copy(entry.path(), dir.join(seg)).unwrap();
            copied += 1;
        }
    }
    assert!(copied > 0, "case {case} has no committed files");
    dir
}

#[test]
fn strict_verify_rejects_every_case_at_the_right_offset() {
    for (case, _, expect) in cases() {
        let dir = materialize(case);
        let err = wal::verify(&dir).expect_err(&format!("{case} passed strict verify"));
        match &err {
            WalError::Corrupt {
                segment,
                offset,
                detail,
            } => {
                assert_eq!(segment, expect.segment, "{case}: wrong segment blamed");
                assert_eq!(*offset, expect.offset, "{case}: wrong offset ({detail})");
                assert!(!detail.is_empty(), "{case}: empty diagnostic");
            }
            other => panic!("{case}: expected Corrupt, got {other}"),
        }
        // The Display form must let an operator find the fault.
        let msg = err.to_string();
        assert!(
            msg.contains(expect.segment) && msg.contains(&expect.offset.to_string()),
            "{case}: diagnostic lacks segment/offset: {msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_repairs_torn_tails_and_rejects_structural_faults() {
    for (case, _, expect) in cases() {
        let dir = materialize(case);
        // Read-only tolerant scan first: never mutates, never panics.
        let tolerated = wal::scan_dir(&dir, ScanMode::Tolerate);
        match wal::Wal::open(&dir, opts(1 << 20)) {
            Ok((mut w, recovery)) => {
                assert!(!expect.hard, "{case}: recovery accepted a structural fault");
                assert_eq!(
                    recovery.records.len(),
                    expect.survivors,
                    "{case}: wrong salvage count"
                );
                let torn = recovery.torn.expect("torn tail reported");
                assert_eq!(torn.offset, expect.offset, "{case}: torn offset");
                let t = tolerated.expect("tolerate agrees with repair");
                assert_eq!(t.records.len(), expect.survivors);
                // The repaired log must be appendable and then clean.
                w.append(wal::REC_FLUSH, &[]).unwrap();
                w.sync().unwrap();
                drop(w);
                wal::verify(&dir).expect("repaired log passes strict verify");
            }
            Err(WalError::Corrupt { segment, .. }) => {
                assert!(expect.hard, "{case}: recovery rejected a repairable tail");
                assert_eq!(segment, expect.segment, "{case}: wrong segment blamed");
                assert!(tolerated.is_err(), "{case}: tolerate accepted a hard fault");
            }
            Err(other) => panic!("{case}: unexpected error class: {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
