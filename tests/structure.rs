//! The structural lints (tier-1). Each row keeps a deleted or merged
//! mechanism from coming back, by a name the mechanism would need: a
//! second codec, a library that exits or reads the environment, a
//! second matcher set, inbound or outbound path, a checkpoint alias, a
//! second copy of the constraint graph or of the match checker, a
//! second descent, the Fig 5 bounds, a hand-written counter list, a
//! retired observability mechanism, a second overflow behaviour.
//!
//! A row reads a set of files — the whole file, its non-test part (up
//! to the first `#[cfg(test)]` line), or the body of one item — and
//! forbids, counts or places a term. A term is a literal; a leading or
//! trailing `\b` asks for a word boundary there (no identifier
//! character beside the match), and a leading `^` for the match to be
//! the first non-blank text of its line. Every failing row is reported
//! with its hits and why the mechanism is gone.

use std::path::{Path, PathBuf};

/// Which part of each file a row reads.
#[derive(Clone, Copy)]
enum Part {
    Whole,
    /// Up to the first `#[cfg(test)]` line.
    NonTest,
    /// From the line that starts with this header to the next line that
    /// starts with `}`.
    Item(&'static str),
}

enum Rule {
    /// No line holds any of `terms`, except lines holding one of `allow`.
    Forbid {
        terms: &'static [&'static str],
        allow: &'static [&'static str],
    },
    /// `term` occurs at least `min` and at most `max` times in all.
    Count {
        term: &'static str,
        min: usize,
        max: usize,
    },
    /// Exactly one line holds `term`, and it is in `home`.
    Home {
        term: &'static str,
        home: &'static str,
    },
}

struct Row {
    name: &'static str,
    /// A file, `dir/*.rs` (its files), `dir/**.rs` (recursively) or
    /// `!name` (leave out files of that name); `crates/*/` at the start
    /// stands for every crate.
    files: &'static [&'static str],
    part: Part,
    rule: Rule,
    why: &'static str,
}

const fn forbid(terms: &'static [&'static str]) -> Rule {
    Rule::Forbid { terms, allow: &[] }
}

const ROWS: &[Row] = &[
    Row {
        name: "One codec",
        files: &["src/**.rs", "crates/*/src/**.rs"],
        part: Part::Whole,
        rule: Rule::Home {
            term: "EventKind::Send => 0",
            home: "crates/poet/src/codec.rs",
        },
        why: "the event record, the kind byte and the length-prefixed string are \
              written in crates/poet/src/codec.rs and nowhere else",
    },
    Row {
        name: "One codec",
        files: &["src/**.rs", "crates/*/src/**.rs"],
        part: Part::Whole,
        rule: Rule::Home {
            term: "0 => Some(EventKind::Send)",
            home: "crates/poet/src/codec.rs",
        },
        why: "the kind byte is read in crates/poet/src/codec.rs and nowhere else",
    },
    Row {
        name: "One codec",
        files: &["src/**.rs", "crates/*/src/**.rs"],
        part: Part::Whole,
        rule: Rule::Home {
            term: "fn put_str",
            home: "crates/poet/src/codec.rs",
        },
        why: "the length-prefixed string is written in crates/poet/src/codec.rs and \
              nowhere else",
    },
    Row {
        name: "One codec",
        files: &[
            "crates/net/src/wire.rs",
            "crates/net/src/shard.rs",
            "crates/ocep/src/checkpoint.rs",
            "crates/poet/src/dump.rs",
        ],
        part: Part::NonTest,
        rule: forbid(&["to_le_bytes", "from_le_bytes"]),
        why: "a format file spells the byte order itself; use ocep_poet::codec",
    },
    Row {
        name: "No env-var hooks, no library exits",
        files: &["src/**.rs", "crates/*/src/**.rs"],
        part: Part::Whole,
        rule: forbid(&["env::var"]),
        why: "test hooks are armed by the harness that wants them \
              (`ShardGroup::set_fault_hooks`), never read from the environment",
    },
    Row {
        name: "No env-var hooks, no library exits",
        files: &["crates/*/src/**.rs", "!main.rs"],
        part: Part::Whole,
        rule: forbid(&["process::exit"]),
        why: "a library never ends the process",
    },
    Row {
        name: "One matcher set",
        files: &["crates/net/src/shard.rs"],
        part: Part::NonTest,
        rule: Rule::Forbid {
            terms: &["Vec<MonitorSet>", "route_of(", "std::thread", "mpsc"],
            allow: &["pub fn route_of("],
        },
        why: "the data plane is one matcher set on the engine thread; a set per \
              partition, a routing call, a thread or a channel there brings back \
              partitions, which never paid for themselves (EXPERIMENTS.md, \
              \"Partition threads\"); route_of survives only for the benchmark",
    },
    Row {
        name: "One inbound path",
        files: &["crates/net/src/server.rs"],
        part: Part::NonTest,
        rule: forbid(&[
            "\\bread_frame\\b",
            "\\bread_frame_body\\b",
            "\\bdecode_body\\b",
        ]),
        why: "a TCP reader thread only pumps socket bytes into FrameDecoder, and \
              EngineCore::on_decoded alone decides what each wire condition does",
    },
    Row {
        name: "One inbound path",
        files: &["crates/sim/src/run.rs"],
        part: Part::NonTest,
        rule: forbid(&["Decoded::Quarantined", "Decoded::Fatal"]),
        why: "the simulator hands a rejected frame to EngineCore::on_decoded",
    },
    Row {
        name: "One outbound path",
        files: &["crates/net/src/server.rs"],
        part: Part::NonTest,
        rule: forbid(&[
            "\\bwrite_frame\\b",
            "\\bencode_body\\b",
            "\\bBufWriter\\b",
            "\\bAtomicU64\\b",
        ]),
        why: "the engine alone encodes and counts outbound frames; transports only \
              move the bytes it queued",
    },
    Row {
        name: "One outbound path",
        files: &["crates/sim/src/run.rs"],
        part: Part::NonTest,
        rule: forbid(&["\\bbytes_out\\b"]),
        why: "the simulator drains what EngineCore queued; EngineCore counts it",
    },
    Row {
        name: "One name per job",
        files: &["crates/ocep/src/checkpoint.rs"],
        part: Part::NonTest,
        rule: forbid(&[
            "\\bfn save(",
            "\\bfn load(",
            "\\bfn checkpoint(",
            "\\bfn restore(",
            "\\bfn checkpoint_set(",
            "\\bfn restore_set(",
        ]),
        why: "a monitor checkpoint is saved and loaded by save_at/load_at and a set \
              checkpoint by save_set_at/load_set_at (save_set/load_set stay only for \
              the benchmark); an alias beside them is a second name callers drift to",
    },
    Row {
        name: "One name per job",
        files: &["src/bin/ocep.rs"],
        part: Part::NonTest,
        rule: Rule::Count {
            term: "is_degraded()",
            min: 0,
            max: 1,
        },
        why: "one exit rule (exit_code) reads the guard's degraded flag, so no \
              subcommand can end a run its own way (replay once exited 0 on a \
              degraded log)",
    },
    Row {
        name: "One name per job",
        files: &["src/bin/ocep.rs"],
        part: Part::NonTest,
        rule: Rule::Count {
            term: "reload_from_file",
            min: 0,
            max: 1,
        },
        why: "one loader (load_dump) reloads a dump and words its diagnostic",
    },
    Row {
        name: "One constraint graph",
        files: &["crates/pattern/src/*.rs"],
        part: Part::NonTest,
        rule: forbid(&[
            "\\bPatternNode\\b",
            "\\bConstraint::Before\\b",
            "\\bConstraint::Concurrent\\b",
        ]),
        why: "every pairwise relation is one cell of rel; a pairwise constraint or a \
              second pattern tree beside the AST is a copy that drifts from it",
    },
    Row {
        name: "One constraint graph",
        files: &["crates/pattern/src/compile.rs"],
        part: Part::Item("pub enum Constraint"),
        rule: forbid(&["^Before\\b", "^Concurrent\\b"]),
        why: "Constraint holds only what a cell of rel cannot say",
    },
    Row {
        name: "One match checker",
        files: &["crates/baselines/src/*.rs", "crates/bench/src/*.rs"],
        part: Part::NonTest,
        rule: forbid(&["Causality::Before", "weakly_precedes", "entangled("]),
        why: "a baseline or the bench decides a relation itself; call \
              Pattern::pair_holds / deferred_hold / accepts",
    },
    Row {
        name: "One match checker",
        files: &["crates/ocep/src/**.rs"],
        part: Part::NonTest,
        rule: forbid(&["pair_holds", "deferred_hold", "accepts("]),
        why: "the engine calls the oracle's checker; the differential check needs \
              the two deciders independent",
    },
    Row {
        name: "One descent",
        files: &["crates/ocep/src/search.rs"],
        part: Part::NonTest,
        rule: Rule::Count {
            term: "self.go(pos + 1)",
            min: 1,
            max: 1,
        },
        why: "the Fig 4 search has one candidate loop and one descent; a second \
              descent is a fast path that can forget the blame and backjump past a \
              match",
    },
    Row {
        name: "One descent",
        files: &["crates/ocep/src/search.rs"],
        part: Part::NonTest,
        rule: forbid(&["try_unique_candidate"]),
        why: "search.rs keeps a second, unique-candidate descent",
    },
    Row {
        name: "No Fig 5 bounds",
        files: &["crates/ocep/src/search.rs"],
        part: Part::NonTest,
        rule: forbid(&["\\bJumpBound\\b", "\\bfig5_bound\\b", "\\bmy_bound\\b"]),
        why: "the Fig 5 jump bounds were measured and deleted: they never fired on \
              the paper's workloads or the benchmark's (EXPERIMENTS.md)",
    },
    Row {
        name: "No Fig 5 bounds",
        files: &["crates/ocep/src/*.rs"],
        part: Part::NonTest,
        rule: forbid(&["jump_bounds"]),
        why: "the bounds' counter row went with OCKP version 4",
    },
    Row {
        name: "One counter catalogue",
        files: &[
            "crates/ocep/src/checkpoint.rs",
            "crates/ocep/src/monitor.rs",
            "crates/ocep/src/obs.rs",
            "crates/sim/src/run.rs",
        ],
        part: Part::NonTest,
        rule: forbid(&[
            "\\bcandidates\\b",
            "\\bdeferred_rejections\\b",
            "\\bquarantined_clock_width\\b",
            "\\bdegraded_delivered\\b",
            "\\bbuffered_peak\\b",
        ]),
        why: "every monitor and guard counter is one row of its block's catalogue \
              (stats.rs, ingest.rs); metrics, checkpoints and the sim digest loop \
              over the rows, so naming a field here is a hand-written list",
    },
    Row {
        name: "One observability switch",
        files: &["crates/ocep/src/*.rs"],
        part: Part::NonTest,
        rule: forbid(&[
            "ObsLevel::Counters",
            "OBS_SEARCH_SAMPLE",
            "DOMAIN_TIME_SAMPLE",
            "time_domains",
            "absorb_search",
            "domain_ns",
            "DomainFig4",
            "GuardAdmit",
            "SearchStats",
        ]),
        why: "observability is off or full; the counters level, sampled search \
              introspection, the domain timer and the guard_admit stage are gone \
              (docs/OBSERVABILITY.md)",
    },
    Row {
        name: "One overflow behaviour",
        files: &["src/**.rs", "crates/*/src/**.rs"],
        part: Part::NonTest,
        rule: forbid(&[
            "\\bOverflowPolicy\\b",
            "\\bDropOldest\\b",
            "\\bFlushDegraded\\b",
            "\\boverflow_dropped\\b",
        ]),
        why: "a full reorder buffer rejects the incoming event: drop-oldest lost about \
              as many cells, and flush-degraded reported false matches before the end \
              of the stream (EXPERIMENTS.md, \"Overflow policies\")",
    },
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rs_files(dir: &Path, recursive: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if recursive {
                rs_files(&path, true, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The files a row reads, relative to the repository root, sorted.
fn files(specs: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut leave_out = Vec::new();
    for spec in specs {
        if let Some(name) = spec.strip_prefix('!') {
            leave_out.push(name);
            continue;
        }
        let bases: Vec<PathBuf> = match spec.strip_prefix("crates/*/") {
            Some(_) => std::fs::read_dir(root().join("crates"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect(),
            None => vec![root().to_path_buf()],
        };
        let rest = spec.strip_prefix("crates/*/").unwrap_or(spec);
        for base in bases {
            let mut found = Vec::new();
            if let Some(dir) = rest.strip_suffix("/**.rs") {
                rs_files(&base.join(dir), true, &mut found);
            } else if let Some(dir) = rest.strip_suffix("/*.rs") {
                rs_files(&base.join(dir), false, &mut found);
            } else {
                let path = base.join(rest);
                assert!(path.is_file(), "a row names a missing file: {spec}");
                found.push(path);
            }
            out.extend(found);
        }
    }
    out.retain(|p| {
        !leave_out
            .iter()
            .any(|n| p.file_name().is_some_and(|f| f == *n))
    });
    let mut rel: Vec<String> = out
        .iter()
        .map(|p| {
            p.strip_prefix(root())
                .unwrap()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    rel.sort();
    rel.dedup();
    rel
}

/// The numbered lines of `text` a row reads.
fn part(text: &str, part: Part) -> Vec<(usize, &str)> {
    let lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    match part {
        Part::Whole => lines.collect(),
        Part::NonTest => lines
            .take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
            .collect(),
        Part::Item(header) => lines
            .skip_while(|(_, l)| !l.starts_with(header))
            .skip(1)
            .take_while(|(_, l)| !l.starts_with('}'))
            .collect(),
    }
}

fn is_ident(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// How many times `term` (see the module docs) occurs in `line`.
fn occurrences(line: &str, term: &str) -> usize {
    let (first, term) = match term.strip_prefix('^') {
        Some(t) => (true, t),
        None => (false, term),
    };
    let (left, term) = match term.strip_prefix("\\b") {
        Some(t) => (true, t),
        None => (false, term),
    };
    let (right, term) = match term.strip_suffix("\\b") {
        Some(t) => (true, t),
        None => (false, term),
    };
    line.match_indices(term)
        .filter(|&(at, _)| {
            let before = line[..at].chars().next_back();
            let after = line[at + term.len()..].chars().next();
            (!first || line[..at].trim().is_empty())
                && (!left || !is_ident(before))
                && (!right || !is_ident(after))
        })
        .count()
}

/// What is wrong with the tree under `row`, if anything.
fn breach(row: &Row) -> Option<String> {
    let mut hits: Vec<String> = Vec::new();
    let mut count = 0;
    let terms: &[&str] = match &row.rule {
        Rule::Forbid { terms, .. } => terms,
        Rule::Count { term, .. } | Rule::Home { term, .. } => std::slice::from_ref(term),
    };
    for file in files(row.files) {
        let text = std::fs::read_to_string(root().join(&file)).unwrap();
        for (n, line) in part(&text, row.part) {
            if let Rule::Forbid { allow, .. } = row.rule {
                if allow.iter().any(|a| line.contains(a)) {
                    continue;
                }
            }
            let k: usize = terms.iter().map(|t| occurrences(line, t)).sum();
            if k > 0 {
                count += k;
                hits.push(format!("  {file}:{n}: {}", line.trim()));
            }
        }
    }
    let wrong = match row.rule {
        Rule::Forbid { .. } => !hits.is_empty(),
        Rule::Count { min, max, .. } => count < min || count > max,
        Rule::Home { home, .. } => hits.len() != 1 || !hits[0].starts_with(&format!("  {home}:")),
    };
    wrong.then(|| {
        let what = match row.rule {
            Rule::Forbid { terms, .. } => format!("names {terms:?}"),
            Rule::Count { term, min, max } => {
                format!("has {count} of {term:?}, wants {min}..={max}")
            }
            Rule::Home { term, home } => {
                format!("has {} lines of {term:?}, wants one, in {home}", hits.len())
            }
        };
        format!("{}: {what} — {}\n{}", row.name, row.why, hits.join("\n"))
    })
}

#[test]
fn every_structural_row_holds() {
    let breaches: Vec<String> = ROWS.iter().filter_map(breach).collect();
    assert!(breaches.is_empty(), "\n{}", breaches.join("\n\n"));
}

/// The matcher the rows stand on: boundaries, first-text anchors and
/// counts, on lines written for it.
#[test]
fn terms_match_as_documented() {
    assert_eq!(occurrences("let candidates = 1;", "\\bcandidates\\b"), 1);
    assert_eq!(occurrences("let n_candidates = 1;", "\\bcandidates\\b"), 0);
    assert_eq!(occurrences("s.candidates_total", "\\bcandidates\\b"), 0);
    assert_eq!(occurrences("    Before { a: u8 },", "^Before\\b"), 1);
    assert_eq!(occurrences("    /// Before the rest", "^Before\\b"), 0);
    assert_eq!(
        occurrences(
            "x.go(1); self.go(pos + 1); self.go(pos + 1)",
            "self.go(pos + 1)"
        ),
        2
    );
    assert_eq!(occurrences("pub fn save(x)", "\\bfn save("), 1);
    assert_eq!(occurrences("pub fn save_at(x)", "\\bfn save("), 0);
    let text = "a\n#[cfg(test)]\nb\n";
    assert_eq!(part(text, Part::NonTest), vec![(1, "a")]);
    let text = "pub enum E {\n    A,\n}\nB\n";
    assert_eq!(part(text, Part::Item("pub enum E")), vec![(2, "    A,")]);
}
