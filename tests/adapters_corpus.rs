//! Adapter corpus and fixture discipline.
//!
//! Two committed artifact sets back the ingestion adapters:
//!
//! * `tests/corpus/adapters/` — hand-written malformed recordings, one
//!   per diagnostic family (truncation, cyclic references, clock-width
//!   overflow, hostile counts). `MANIFEST.txt` pins each file's format
//!   and expected error kind and line; every entry must be *rejected*
//!   with exactly that kind on exactly that line, and never panic.
//! * `examples/fixtures/` — pinned-seed recordings and their curated
//!   pattern files. Each recording must be byte-identical to its
//!   `testgen` generator at the pinned parameters (the same
//!   cross-check discipline as the wire corpus), and each pattern file
//!   to its canonical source.
//!
//! Regenerate the fixture files after changing a generator with:
//!
//! ```text
//! cargo test --test adapters_corpus -- --ignored regenerate
//! ```

use ocep_repro::adapters::testgen::{self, fixtures, Recording};
use ocep_repro::adapters::{self, AdapterErrorKind, AdapterOutput};
use ocep_repro::poet::EventKind;
use ocep_repro::simulator::workloads::{random_walk, replicated_service};
use ocep_rng::Rng;
use std::path::{Path, PathBuf};

fn repo(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo(rel))
        .unwrap_or_else(|e| panic!("cannot read {rel}: {e} (run the regenerate test?)"))
}

/// Every committed fixture, its generator, and its on-disk path.
fn fixture_recordings() -> Vec<(&'static str, &'static str, Recording)> {
    vec![
        (
            "mpi",
            "examples/fixtures/mpi_deadlock.trace",
            fixtures::mpi_deadlock(),
        ),
        (
            "otlp",
            "examples/fixtures/zookeeper_spans.jsonl",
            fixtures::zookeeper(),
        ),
        (
            "otlp",
            "examples/fixtures/saga_spans.jsonl",
            fixtures::saga(),
        ),
        (
            "session",
            "examples/fixtures/session_handoff.jsonl",
            fixtures::session_handoff(),
        ),
    ]
}

/// Every committed pattern file and its canonical source text.
fn fixture_patterns() -> Vec<(&'static str, String)> {
    vec![
        (
            "examples/fixtures/deadlock_cycle.pat",
            random_walk::cycle_pattern(fixtures::CYCLE_LEN),
        ),
        (
            "examples/fixtures/ordering_violation.pat",
            replicated_service::ordering_pattern(),
        ),
        (
            "examples/fixtures/saga_compensation.pat",
            fixtures::SAGA_PATTERN.to_owned(),
        ),
        (
            "examples/fixtures/read_your_writes.pat",
            fixtures::RYW_PATTERN.to_owned(),
        ),
    ]
}

#[test]
fn committed_fixtures_match_their_generators() {
    for (format, path, rec) in fixture_recordings() {
        assert_eq!(
            read(path),
            rec.text,
            "{path} diverged from its generator — regenerate and re-commit"
        );
        assert!(rec.truth > 0, "{path}: pinned seed must inject violations");
        let out = rec.parse(format);
        assert_eq!(out.n_traces, rec.n_traces, "{path}");
        assert!(out.events.len() as u64 == out.stats.events, "{path}");
    }
    for (path, canonical) in fixture_patterns() {
        assert_eq!(read(path), canonical, "{path} diverged from its source");
        ocep_repro::pattern::Pattern::parse(&canonical)
            .unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
    }
}

#[test]
fn corpus_recordings_are_rejected_with_the_pinned_kind() {
    let manifest = read("tests/corpus/adapters/MANIFEST.txt");
    let mut checked = 0usize;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let (format, rel, kind, at) = (
            toks.next().expect("manifest: format"),
            toks.next().expect("manifest: path"),
            toks.next().expect("manifest: expected kind"),
            toks.next().expect("manifest: expected line"),
        );
        let adapter = adapters::by_name(format)
            .unwrap_or_else(|| panic!("manifest names unknown format {format}"));
        let input = read(&format!("tests/corpus/adapters/{rel}"));
        let err = adapter
            .parse_str(&input)
            .err()
            .unwrap_or_else(|| panic!("{rel} must be rejected"));
        assert_eq!(err.kind.name(), kind, "{rel}: {err}");
        assert_eq!(err.line.to_string(), at, "{rel}: {err}");
        let shown = err.to_string();
        assert!(shown.contains("line "), "{rel}: {shown}");
        assert!(shown.contains(kind), "{rel}: {shown}");
        checked += 1;
    }
    assert!(checked >= 12, "corpus shrank to {checked} entries");
    // Every file in the corpus tree must be listed — an unlisted file
    // is a fixture nobody checks.
    for format in adapters::FORMATS {
        let dir = repo(&format!("tests/corpus/adapters/{format}"));
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let name = entry.unwrap().file_name();
            let rel = format!("{format}/{}", name.to_string_lossy());
            assert!(
                manifest.contains(&rel),
                "tests/corpus/adapters/{rel} is not in MANIFEST.txt"
            );
        }
    }
}

#[test]
fn hostile_count_families_are_cheap_to_reject() {
    // The clock-width and record-count rejections must come from the
    // *claim*, before any proportional allocation: parsing the hostile
    // header corpus entry must be effectively instant even though it
    // claims four billion ranks.
    let input = read("tests/corpus/adapters/mpi/clock_width.trace");
    let err = adapters::by_name("mpi")
        .unwrap()
        .parse_str(&input)
        .unwrap_err();
    assert_eq!(err.kind, AdapterErrorKind::Limit);
    assert!(err.to_string().contains("clock width"), "{err}");
}

/// Rewrites every generated fixture file from its generator. Run after
/// a deliberate generator change, then re-commit the results:
///
/// ```text
/// cargo test --test adapters_corpus -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes committed fixture files; run explicitly"]
fn regenerate() {
    for (_, path, rec) in fixture_recordings() {
        std::fs::write(repo(path), &rec.text).unwrap();
        eprintln!(
            "wrote {path} ({} bytes, truth {})",
            rec.text.len(),
            rec.truth
        );
    }
    for (path, canonical) in fixture_patterns() {
        std::fs::write(repo(path), &canonical).unwrap();
        eprintln!("wrote {path}");
    }
}

// ── Output pins ─────────────────────────────────────────────────────
//
// The corpus tests above pin the recording *text* and the error
// *kinds*; the transparency suite compares offline vs served on one
// parse. Nothing there pins **what a reader emits**. The digests below
// do: any change to a reader must reproduce every constant.

/// FNV-1a 64 with length-prefixed strings, so field boundaries count.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digest over every field of every event (trace, index, kind, type,
/// text, partner, clock entries), the trace names and the stats.
fn output_digest(out: &AdapterOutput) -> u64 {
    let mut h = Fnv::new();
    h.num(out.n_traces as u64);
    for name in &out.trace_names {
        h.text(name);
    }
    h.num(out.events.len() as u64);
    for e in &out.events {
        h.num(u64::from(e.trace().as_u32()));
        h.num(u64::from(e.index().get()));
        h.num(match e.kind() {
            EventKind::Send => 1,
            EventKind::Receive => 2,
            EventKind::Unary => 3,
        });
        h.text(e.ty());
        h.text(e.text());
        match e.partner() {
            Some(p) => {
                h.num(1);
                h.num(u64::from(p.trace().as_u32()));
                h.num(u64::from(p.index().get()));
            }
            None => h.num(0),
        }
        for entry in e.clock().entries() {
            h.num(u64::from(*entry));
        }
    }
    let s = out.stats;
    for v in [s.lines, s.records, s.events, s.edges, s.synthesized] {
        h.num(v);
    }
    h.0
}

#[test]
fn reader_output_digests_are_pinned() {
    let mut got = Vec::new();
    for (format, path, rec) in fixture_recordings() {
        got.push((path.to_owned(), output_digest(&rec.parse(format))));
    }
    for (name, format, rec) in [
        (
            "mpi_soak(1, 8, 20000)",
            "mpi",
            testgen::mpi_soak(1, 8, 20_000),
        ),
        (
            "zookeeper_otlp(1, 20, 30, 0.05)",
            "otlp",
            testgen::zookeeper_otlp(1, 20, 30, 0.05),
        ),
        (
            "saga_otlp(9, 400, 0.3, 0.5)",
            "otlp",
            testgen::saga_otlp(9, 400, 0.3, 0.5),
        ),
        (
            "session_ryw(4, 300, 0.2)",
            "session",
            testgen::session_ryw(4, 300, 0.2),
        ),
    ] {
        got.push((name.to_owned(), output_digest(&rec.parse(format))));
    }
    let want: [(&str, u64); 8] = [
        (
            "examples/fixtures/mpi_deadlock.trace",
            0x4c3b_699d_2ad3_b72e,
        ),
        (
            "examples/fixtures/zookeeper_spans.jsonl",
            0xaa99_361e_834a_5bec,
        ),
        ("examples/fixtures/saga_spans.jsonl", 0x8b97_3a4b_6da4_38f8),
        (
            "examples/fixtures/session_handoff.jsonl",
            0x3cfb_b155_05f4_3edc,
        ),
        ("mpi_soak(1, 8, 20000)", 0x0aeb_3a22_ccb0_d9ac),
        ("zookeeper_otlp(1, 20, 30, 0.05)", 0xca87_8894_b172_4ac9),
        ("saga_otlp(9, 400, 0.3, 0.5)", 0xee72_56ec_ff16_9808),
        ("session_ryw(4, 300, 0.2)", 0x738f_92a2_0db4_b032),
    ];
    let shown: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("(\"{name}\", {d:#018x}),"))
        .collect();
    for ((name, d), (want_name, want_d)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!(
            *d,
            want_d,
            "{name}: reader output changed; all digests now:\n{}",
            shown.join("\n")
        );
    }
}

/// Digest of a generated recording: its text, truth and trace count.
fn recording_digest(rec: &Recording) -> u64 {
    let mut h = Fnv::new();
    h.text(&rec.text);
    h.num(rec.truth as u64);
    h.num(rec.n_traces as u64);
    h.0
}

#[test]
fn generator_text_digests_are_pinned() {
    // What every generator writes, byte for byte, over a sweep that
    // crosses each decimal width a record carries: follower, rank,
    // order and task ids 9 → 10 → 11 and 99 → 100, round numbers past
    // 10 and 100, OTLP start counters and update sequence numbers past
    // 10^k, the `mpi 10` and `mpi 101` headers; plus degenerate inputs
    // (no rounds, no walk steps, probabilities 0 and 1, a cycle through
    // every rank) and the calls the benchmark makes at full size. Taken
    // before the generators stopped going through `core::fmt`; a
    // rewrite of a generator must reproduce every constant.
    let sweep: Vec<(&str, Recording)> = vec![
        ("zk(2013, 4, 12, 0.15)", fixtures::zookeeper()),
        (
            "zk(15, 20, 30, 0.05)",
            testgen::zookeeper_otlp(15, 20, 30, 0.05),
        ),
        (
            "zk(3, 11, 12, 0.3)",
            testgen::zookeeper_otlp(3, 11, 12, 0.3),
        ),
        (
            "zk(4, 100, 12, 0.5)",
            testgen::zookeeper_otlp(4, 100, 12, 0.5),
        ),
        (
            "zk(5, 2, 102, 0.0)",
            testgen::zookeeper_otlp(5, 2, 102, 0.0),
        ),
        ("zk(6, 3, 40, 1.0)", testgen::zookeeper_otlp(6, 3, 40, 1.0)),
        ("zk(7, 1, 0, 0.5)", testgen::zookeeper_otlp(7, 1, 0, 0.5)),
        (
            "zk(8, 50, 300, 0.2)",
            testgen::zookeeper_otlp(8, 50, 300, 0.2),
        ),
        (
            "zk(1, 20, 600, 0.05)",
            testgen::zookeeper_otlp(1, 20, 600, 0.05),
        ),
        ("mpi(7, 8, 40, 3, 0.15, 2)", fixtures::mpi_deadlock()),
        (
            "mpi(11, 11, 30, 3, 0.3, 2)",
            testgen::mpi_deadlock(11, 11, 30, 3, 0.3, 2),
        ),
        (
            "mpi(12, 10, 20, 10, 0.5, 1)",
            testgen::mpi_deadlock(12, 10, 20, 10, 0.5, 1),
        ),
        (
            "mpi(13, 101, 5, 7, 0.5, 1)",
            testgen::mpi_deadlock(13, 101, 5, 7, 0.5, 1),
        ),
        (
            "mpi(14, 4, 10, 2, 1.0, 0)",
            testgen::mpi_deadlock(14, 4, 10, 2, 1.0, 0),
        ),
        (
            "mpi(15, 3, 10, 3, 0.0, 3)",
            testgen::mpi_deadlock(15, 3, 10, 3, 0.0, 3),
        ),
        (
            "mpi(16, 2, 0, 2, 0.5, 2)",
            testgen::mpi_deadlock(16, 2, 0, 2, 0.5, 2),
        ),
        (
            "mpi(12, 8, 125, 3, 0.05, 2)",
            testgen::mpi_deadlock(12, 8, 125, 3, 0.05, 2),
        ),
        ("soak(2, 2, 0)", testgen::mpi_soak(2, 2, 0)),
        ("soak(1, 8, 20000)", testgen::mpi_soak(1, 8, 20_000)),
        ("soak(1, 8, 300000)", testgen::mpi_soak(1, 8, 300_000)),
        ("saga(5, 40, 0.3, 0.5)", fixtures::saga()),
        (
            "saga(21, 101, 0.3, 0.5)",
            testgen::saga_otlp(21, 101, 0.3, 0.5),
        ),
        (
            "saga(22, 300, 1.0, 0.0)",
            testgen::saga_otlp(22, 300, 1.0, 0.0),
        ),
        (
            "saga(23, 300, 1.0, 1.0)",
            testgen::saga_otlp(23, 300, 1.0, 1.0),
        ),
        (
            "saga(24, 300, 0.0, 0.5)",
            testgen::saga_otlp(24, 300, 0.0, 0.5),
        ),
        ("saga(25, 0, 0.5, 0.5)", testgen::saga_otlp(25, 0, 0.5, 0.5)),
        (
            "saga(26, 3000, 0.4, 0.5)",
            testgen::saga_otlp(26, 3000, 0.4, 0.5),
        ),
        ("session(3, 10, 0.3)", fixtures::session_handoff()),
        ("session(31, 101, 0.3)", testgen::session_ryw(31, 101, 0.3)),
        ("session(32, 50, 0.0)", testgen::session_ryw(32, 50, 0.0)),
        ("session(33, 50, 1.0)", testgen::session_ryw(33, 50, 1.0)),
        ("session(34, 0, 0.5)", testgen::session_ryw(34, 0, 0.5)),
        (
            "session(35, 1001, 0.2)",
            testgen::session_ryw(35, 1001, 0.2),
        ),
    ];
    let got: Vec<(&str, u64)> = sweep
        .iter()
        .map(|(name, rec)| (*name, recording_digest(rec)))
        .collect();
    let want: [(&str, u64); 33] = [
        ("zk(2013, 4, 12, 0.15)", 0x2874_85d3_f288_1f1f),
        ("zk(15, 20, 30, 0.05)", 0x55e2_eae6_5dd3_bcd0),
        ("zk(3, 11, 12, 0.3)", 0x6521_fa7f_d27c_cadf),
        ("zk(4, 100, 12, 0.5)", 0xe15b_5652_55b9_2592),
        ("zk(5, 2, 102, 0.0)", 0x771a_2d03_b96a_7cea),
        ("zk(6, 3, 40, 1.0)", 0x59f5_ca5b_925a_c715),
        ("zk(7, 1, 0, 0.5)", 0x4b3d_939e_08aa_9ffc),
        ("zk(8, 50, 300, 0.2)", 0xfddc_28ab_2ab3_ea60),
        ("zk(1, 20, 600, 0.05)", 0xfdce_0ebb_1d5a_f5b5),
        ("mpi(7, 8, 40, 3, 0.15, 2)", 0xd655_8dd4_72b4_034f),
        ("mpi(11, 11, 30, 3, 0.3, 2)", 0x8e19_9cb0_a63d_7eaf),
        ("mpi(12, 10, 20, 10, 0.5, 1)", 0xabec_3427_96a2_bbf9),
        ("mpi(13, 101, 5, 7, 0.5, 1)", 0x2a35_431a_8e3e_6e92),
        ("mpi(14, 4, 10, 2, 1.0, 0)", 0xb292_175d_bd21_404b),
        ("mpi(15, 3, 10, 3, 0.0, 3)", 0x00fc_8dc6_3ea5_dcb5),
        ("mpi(16, 2, 0, 2, 0.5, 2)", 0x212a_aa3d_8ec7_db4a),
        ("mpi(12, 8, 125, 3, 0.05, 2)", 0x3801_f24b_35f3_d631),
        ("soak(2, 2, 0)", 0x8dd0_ed17_5894_78c6),
        ("soak(1, 8, 20000)", 0x9c4b_4765_21c6_8a99),
        ("soak(1, 8, 300000)", 0xf22f_7631_2c6a_fe19),
        ("saga(5, 40, 0.3, 0.5)", 0x8d84_b33b_8712_910e),
        ("saga(21, 101, 0.3, 0.5)", 0x5831_f283_0db9_fcb0),
        ("saga(22, 300, 1.0, 0.0)", 0x694b_4281_fd2d_0b5b),
        ("saga(23, 300, 1.0, 1.0)", 0xd019_4c16_0df7_ecc4),
        ("saga(24, 300, 0.0, 0.5)", 0x36ba_2e58_6f68_39dc),
        ("saga(25, 0, 0.5, 0.5)", 0x8ef3_7ef5_2666_dad6),
        ("saga(26, 3000, 0.4, 0.5)", 0x6771_b3f3_8682_2375),
        ("session(3, 10, 0.3)", 0x23d1_007f_e799_b286),
        ("session(31, 101, 0.3)", 0x896e_50fd_19e8_fd2f),
        ("session(32, 50, 0.0)", 0x7bdf_9dbf_4cbf_ed8c),
        ("session(33, 50, 1.0)", 0xc466_b089_7bb2_0a6c),
        ("session(34, 0, 0.5)", 0xe7d3_d999_2b7a_ba8c),
        ("session(35, 1001, 0.2)", 0x3ffe_8c89_993b_0bcd),
    ];
    let shown: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("(\"{name}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        got.len(),
        want.len(),
        "all digests now:\n{}",
        shown.join("\n")
    );
    for ((name, d), (want_name, want_d)) in got.iter().zip(want) {
        assert_eq!(*name, want_name);
        assert_eq!(
            *d,
            want_d,
            "{name}: generated recording changed; all digests now:\n{}",
            shown.join("\n")
        );
    }
}

// ── Seeded mutation harness ─────────────────────────────────────────

/// Checks that `out` is a valid linearization with Fidge clocks: per
/// trace the indices count up from 1, every clock's own entry is the
/// event's index, no clock names an event not yet emitted, and every
/// receive follows its partner.
fn assert_valid_linearization(out: &AdapterOutput, ctx: &str) {
    assert_eq!(out.trace_names.len(), out.n_traces, "{ctx}");
    assert_eq!(out.events.len() as u64, out.stats.events, "{ctx}");
    let mut seen = vec![0u32; out.n_traces];
    for e in &out.events {
        let t = e.trace().as_usize();
        assert_eq!(
            e.index().get(),
            seen[t] + 1,
            "{ctx}: {e} out of trace order"
        );
        assert_eq!(
            e.clock().entry(e.trace()),
            e.index(),
            "{ctx}: {e} own entry"
        );
        seen[t] += 1;
        for (other, entry) in e.clock().entries().iter().enumerate() {
            assert!(
                *entry <= seen[other],
                "{ctx}: {e} depends on an unseen event"
            );
        }
        assert_eq!(
            e.partner().is_some(),
            e.kind() == EventKind::Receive,
            "{ctx}: {e} partner/kind mismatch"
        );
        if let Some(p) = e.partner() {
            assert!(
                p.index().get() <= seen[p.trace().as_usize()] && p != e.id(),
                "{ctx}: {e} precedes its partner {p}"
            );
        }
    }
}

/// Snippets injected into string bodies: escapes that decode (so the
/// owned and the borrowed string paths both run), escapes that must be
/// rejected, and raw non-ASCII.
const INJECT: &[&str] = &[
    "\\n", "\\\"", "\\\\", "\\/", "\\u0041", "\\u00e9", "\\ud800", "\\x", "\\u12", "é", "日本",
    "\u{1}",
];

fn mutate(rng: &mut Rng, base: &str) -> String {
    let mut lines: Vec<String> = base.lines().map(str::to_owned).collect();
    let pick = |rng: &mut Rng, n: usize| rng.gen_range(0usize..n);
    match rng.gen_range(0u32..8) {
        0 => {
            // Flip a few bytes anywhere.
            let mut bytes = base.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1usize..4) {
                let at = pick(rng, bytes.len());
                bytes[at] = rng.next_u32() as u8;
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => {
            let bytes = &base.as_bytes()[..pick(rng, base.len())];
            return String::from_utf8_lossy(bytes).into_owned();
        }
        2 => {
            // Splice a slice of the text over another place.
            let mut bytes = base.as_bytes().to_vec();
            let from = pick(rng, bytes.len());
            let len = rng.gen_range(1usize..40).min(bytes.len() - from);
            let piece = bytes[from..from + len].to_vec();
            let to = pick(rng, bytes.len());
            bytes.splice(to..(to + len).min(bytes.len()), piece);
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        3 => {
            let at = pick(rng, lines.len());
            lines.insert(at, lines[at].clone());
        }
        4 => {
            let at = pick(rng, lines.len());
            lines.remove(at);
        }
        5 => {
            let (a, b) = (pick(rng, lines.len()), pick(rng, lines.len()));
            lines.swap(a, b);
        }
        6 => {
            // Inject a snippet just inside a string (after an opening
            // quote), or anywhere when the line has no strings.
            let at = pick(rng, lines.len());
            let line = &mut lines[at];
            let opens: Vec<usize> = line
                .match_indices('"')
                .step_by(2)
                .map(|(i, _)| i + 1)
                .collect();
            let pos = match opens.is_empty() {
                true if line.is_empty() => 0,
                true => {
                    let mut p = pick(rng, line.len());
                    while !line.is_char_boundary(p) {
                        p -= 1;
                    }
                    p
                }
                false => opens[pick(rng, opens.len())],
            };
            line.insert_str(pos, INJECT[pick(rng, INJECT.len())]);
        }
        _ => {
            // Re-spell one ASCII letter as its \u escape: inside a
            // string this decodes back to the same text.
            let at = pick(rng, lines.len());
            let line = &mut lines[at];
            let letters: Vec<usize> = line
                .char_indices()
                .filter(|(_, c)| c.is_ascii_alphabetic())
                .map(|(i, _)| i)
                .collect();
            if let Some(&i) = letters.get(pick(rng, letters.len().max(1))) {
                let c = line.as_bytes()[i];
                line.replace_range(i..=i, &format!("\\u{:04x}", u32::from(c)));
            }
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

#[test]
fn seeded_mutations_never_panic_the_readers() {
    // 2,000 mutations of the head of every committed fixture. A reader
    // must answer each with a line-diagnosed error or a valid
    // linearization. The outcome digest (error kind and line, or the
    // output digest) pins *which* answer: a rewritten reader diagnoses
    // every malformed input on the same line as before.
    let want: [u64; 4] = [
        0x8a07_baea_7bec_74a6,
        0x88ff_f47b_e330_90c4,
        0xab4e_9bd6_5375_335a,
        0x50b0_80ad_499a_5142,
    ];
    let mut got = Vec::new();
    for (format, path, rec) in fixture_recordings() {
        let adapter = adapters::by_name(format).unwrap();
        let base: String = rec.text.lines().take(40).flat_map(|l| [l, "\n"]).collect();
        assert_valid_linearization(&adapter.parse_str(&base).expect("fixture head"), path);
        let mut rng = Rng::seed_from_u64(0x0ADA_97E5);
        let mut outcomes = Fnv::new();
        let (mut ok, mut rejected) = (0u32, 0u32);
        for round in 0..2_000 {
            let text = mutate(&mut rng, &base);
            let ctx = format!("{path} mutation {round}");
            match adapter.parse_str(&text) {
                Ok(out) => {
                    assert_valid_linearization(&out, &ctx);
                    outcomes.num(output_digest(&out));
                    ok += 1;
                }
                Err(err) => {
                    let lines = text.lines().count().max(1);
                    assert!((1..=lines).contains(&err.line), "{ctx}: {err}");
                    assert!(err.to_string().contains("line "), "{ctx}: {err}");
                    outcomes.text(err.kind.name());
                    outcomes.num(err.line as u64);
                    rejected += 1;
                }
            }
        }
        assert!(
            ok >= 100 && rejected >= 100,
            "{path}: {ok} ok, {rejected} rejected"
        );
        got.push(outcomes.0);
    }
    assert_eq!(got, want, "mutation outcomes changed: {got:#018x?}");
}

// ── MPI separator pin ───────────────────────────────────────────────
//
// The MPI reader's records are whitespace-separated tokens, where
// "whitespace" is `char::is_whitespace`, multi-byte characters
// included. The pin below re-spells the committed MPI fixture with
// every separator the reader accepts and fixes what it must read back.

/// The whitespace members of the MPI reader's test alphabet: every
/// one-byte separator and the multi-byte ones, line breaks excluded.
const MPI_SPACES: &[&str] = &[
    "\t", "\u{b}", "\u{c}", "\r", " ", "\u{85}", "\u{a0}", "\u{1680}", "\u{2003}", "\u{2028}",
    "\u{3000}",
];

/// A seeded run of one to three separators.
fn mpi_gap(rng: &mut Rng) -> String {
    (0..rng.gen_range(1usize..4))
        .map(|_| *rng.choose(MPI_SPACES).expect("non-empty"))
        .collect()
}

/// `base` with every record re-joined by seeded separator runs, blank,
/// whitespace-only and `#` comment lines mixed in, seeded CRLF line
/// endings, and a fifth token on one in eight four-token records.
/// `mark` appends a character to the tag of the `mark.1`-th tagged
/// `recv` (0-based) and returns that record's line number.
fn mpi_scrambled(base: &str, seed: u64, mark: Option<(char, usize)>) -> (String, Option<usize>) {
    let mut rng = Rng::seed_from_u64(seed);
    let (mut text, mut line, mut tagged_recvs, mut marked) = (String::new(), 0, 0, None);
    let mut fifths = 0;
    for record in base.lines() {
        // Zero to two filler lines before each record.
        for _ in 0..rng.gen_range(0usize..3) {
            match rng.gen_range(0u32..3) {
                0 => {}
                1 => text.push_str(&mpi_gap(&mut rng)),
                _ => {
                    text.push_str(&mpi_gap(&mut rng));
                    text.push_str("# filler");
                    text.push_str(&mpi_gap(&mut rng));
                    text.push_str("comment 1 send 2");
                }
            }
            text.push_str(if rng.gen_bool(0.3) { "\r\n" } else { "\n" });
            line += 1;
        }
        line += 1;
        let mut toks: Vec<String> = record.split_whitespace().map(str::to_owned).collect();
        if toks.len() == 4 && toks[1] == "recv" {
            if let Some((c, k)) = mark {
                if tagged_recvs == k {
                    toks[3].push(c);
                    marked = Some(line);
                }
            }
            tagged_recvs += 1;
        }
        if toks.len() == 4 && rng.gen_range(0u32..8) == 0 {
            toks.push("fifth".to_owned());
            fifths += 1;
        }
        if rng.gen_bool(0.5) {
            text.push_str(&mpi_gap(&mut rng));
        }
        for (i, tok) in toks.iter().enumerate() {
            if i > 0 {
                text.push_str(&mpi_gap(&mut rng));
            }
            text.push_str(tok);
        }
        if rng.gen_bool(0.5) {
            text.push_str(&mpi_gap(&mut rng));
        }
        text.push_str(if rng.gen_bool(0.3) { "\r\n" } else { "\n" });
    }
    assert!(fifths > 0, "seed {seed} gave no five-token record");
    (text, marked)
}

#[test]
fn mpi_separators_are_pinned() {
    let base = fixtures::mpi_deadlock().text;
    let adapter = adapters::by_name("mpi").unwrap();
    let plain = adapter.parse_str(&base).expect("fixture parses");
    let mut digests = Vec::new();
    for seed in [1, 2, 3] {
        let (text, _) = mpi_scrambled(&base, seed, None);
        let out = adapter
            .parse_str(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(out.events, plain.events, "seed {seed}");
        assert_eq!(out.trace_names, plain.trace_names, "seed {seed}");
        assert_eq!(out.stats.lines, text.lines().count() as u64, "seed {seed}");
        let stats = |s: adapters::AdapterStats| (s.records, s.events, s.edges, s.synthesized);
        assert_eq!(stats(out.stats), stats(plain.stats), "seed {seed}");
        digests.push(output_digest(&out));
    }
    let mut rejected = Vec::new();
    for (c, k) in [('\u{1c}', 0), ('\u{200b}', 5)] {
        let (text, marked) = mpi_scrambled(&base, 4, Some((c, k)));
        let err = adapter.parse_str(&text).unwrap_err();
        assert_eq!(Some(err.line), marked, "{c:?}: {err}");
        rejected.push((err.kind, err.line));
    }
    assert_eq!(
        digests,
        [
            0x82c0_6b78_3ad5_3984,
            0x40ae_e9ab_b5b9_6bd0,
            0x4c5b_c105_70af_dada,
        ],
        "separator digests: {digests:#018x?}"
    );
    assert_eq!(
        rejected,
        [
            (AdapterErrorKind::Unmatched, 58),
            (AdapterErrorKind::Unmatched, 68)
        ],
        "separator rejections"
    );
}
