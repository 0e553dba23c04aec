//! One mutation harness over every binary decoder (tier-1).
//!
//! `tests/wire_corpus.rs` has fed OCWP frames through the seeded
//! overwrite/truncate/splice mutator of `common::mutate` since PR 5, and
//! `tests/adapters_corpus.rs` does the same for the text readers. This
//! file points that mutator at the four remaining formats — OCKP
//! (`checkpoint::load_at`), OCKS (`load_set_at`), OWAL segments
//! (`wal::scan`) and POET dumps (`dump::reload`) — and at pattern
//! sources (`Pattern::parse`), which tenants send in `Register` frames
//! and recovery replays from the log. A decoder may accept a mutant or
//! reject it; it may not panic or hang, and a rejection of malformed
//! bytes names the byte offset where decoding stopped.

use ocep_repro::ocep::checkpoint::{
    load_at, load_set_at, save_at, save_set, strip_metrics, CheckpointError,
};
use ocep_repro::ocep::{GuardConfig, MonitorConfig, MonitorSet, ObsLevel};
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::{dump, Event, EventKind, PoetError, PoetServer};
use ocep_repro::vclock::TraceId;
use ocep_repro::wal::{self, WalError};
use ocep_rng::Rng;
use std::collections::HashMap;
use std::path::Path;

mod common;

const ROUNDS: usize = 2_000;
const SRC: &str = "A := [*, ping, *]; B := [*, pong, *]; pattern := A -> B;";

fn corpus(rel: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(rel);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn stream() -> PoetServer {
    let mut poet = PoetServer::new(3);
    for i in 0..9u32 {
        let s = poet.record(TraceId::new(i % 3), EventKind::Send, "ping", "m");
        poet.record_receive(TraceId::new((i + 1) % 3), s.id(), "pong", "m");
    }
    poet
}

/// A guarded set of one `Full`-observability monitor that has seen
/// `stream()` minus its first event, so histories, subset, metrics
/// section and the guard's reorder buffer are all populated.
fn busy_set() -> (MonitorSet, HashMap<String, String>) {
    let mut set = MonitorSet::new(3);
    let config = MonitorConfig {
        obs: ObsLevel::Full,
        ..MonitorConfig::default()
    };
    set.add_with_config("p", Pattern::parse(SRC).unwrap(), config);
    set.enable_guard(GuardConfig::default());
    let events: Vec<Event> = stream().store().iter_arrival().cloned().collect();
    // T1 and T2 start with receives that do not need T0:1.
    for e in &events[1..] {
        set.observe_raw(e);
    }
    assert!(set.guard().unwrap().buffered() > 0);
    (set, HashMap::from([("p".to_owned(), SRC.to_owned())]))
}

/// The `OCKS` container `save_set` would write around one monitor blob
/// and no set-level guard.
fn ocks_around(n_traces: u32, blob: &[u8]) -> Vec<u8> {
    let mut out = b"OCKS".to_vec();
    out.extend_from_slice(&2u16.to_le_bytes());
    out.extend_from_slice(&n_traces.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(b'p');
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(blob);
    out.push(0);
    out.extend_from_slice(&0u64.to_le_bytes());
    out
}

/// A rejection of malformed bytes must say where: every `PoetError`
/// but a bad magic/version carries the byte offset.
fn assert_located(format: &str, round: usize, e: &PoetError) {
    let msg = e.to_string();
    assert!(
        matches!(e, PoetError::BadHeader(_)) || msg.contains("byte"),
        "{format} round {round}: no byte offset in {msg:?}"
    );
}

fn assert_checkpoint_outcome<T>(format: &str, round: usize, r: Result<T, CheckpointError>) {
    match r {
        // Accepted, or well-formed bytes describing an impossible
        // monitor (the diagnosis names the field, not an offset).
        Ok(_) | Err(CheckpointError::Invalid(_)) => {}
        Err(CheckpointError::Format(e)) => assert_located(format, round, &e),
    }
}

#[test]
fn ockp_mutations_never_panic_and_errors_are_located() {
    let (set, _) = busy_set();
    let seeds = [
        save_at(set.monitor("p").unwrap(), SRC, 0),
        corpus("ockp/parent-guarded/guarded-ahead.ockp"),
        corpus("ockp/parent-guarded/guarded-gap.ockp"),
        corpus("ockp/parent-guarded/unguarded.ockp"),
        corpus("ockp/v3/full-obs.ockp"),
        corpus("ockp/v4/unguarded.ockp"),
    ];
    for seed in &seeds {
        load_at(seed).expect("every seed loads unmutated");
    }
    let mut rng = Rng::seed_from_u64(0x0C4B_0001);
    for round in 0..ROUNDS {
        let bytes = common::mutate(&mut rng, &seeds[round % seeds.len()]);
        assert_checkpoint_outcome("OCKP", round, load_at(&bytes));
    }
}

#[test]
fn ocks_mutations_never_panic_and_errors_are_located() {
    let (set, sources) = busy_set();
    let guarded_blob = corpus("ockp/parent-guarded/guarded-ahead.ockp");
    let seeds = [
        save_set(&set, &sources),
        ocks_around(4, &corpus("ockp/parent-guarded/unguarded.ockp")),
        // A monitor that owned a guard has no place in a set: rejected
        // whole, and still never a panic under mutation.
        ocks_around(4, &guarded_blob),
    ];
    load_set_at(&seeds[0]).expect("a saved set loads");
    load_set_at(&seeds[1]).expect("the hand-built container is well-formed");
    let err = load_set_at(&seeds[2]).unwrap_err();
    assert!(
        err.to_string().contains("owned an admission guard"),
        "{err}"
    );
    let mut rng = Rng::seed_from_u64(0x0C4B_0002);
    for round in 0..ROUNDS {
        let bytes = common::mutate(&mut rng, &seeds[round % seeds.len()]);
        assert_checkpoint_outcome("OCKS", round, load_set_at(&bytes));
    }
}

/// Stripping metrics re-saves the monitor, which has no place for a
/// guard: a blob whose monitor owned one is refused, not saved without
/// its reorder buffer.
#[test]
fn strip_metrics_refuses_a_monitor_that_owned_a_guard() {
    let err = strip_metrics(&corpus("ockp/parent-guarded/guarded-ahead.ockp")).unwrap_err();
    assert!(
        matches!(&err, CheckpointError::Invalid(m) if m.contains("owned an admission guard")),
        "{err}"
    );
}

#[test]
fn poet_dump_mutations_never_panic_and_errors_are_located() {
    let seeds = [
        dump::dump(stream().store()),
        corpus("ockp/parent-guarded/stream.poet"),
    ];
    let mut rng = Rng::seed_from_u64(0x0C4B_0003);
    for round in 0..ROUNDS {
        let bytes = common::mutate(&mut rng, &seeds[round % seeds.len()]);
        if let Err(e) = dump::reload(&bytes) {
            assert_located("POET", round, &e);
        }
    }
}

#[test]
fn owal_mutations_never_panic_and_errors_are_located() {
    // Every committed segment, corrupt ones included: a log directory
    // per `<case>__` prefix, plus the parent-written crash image.
    let wal_corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/wal");
    let mut cases: std::collections::BTreeMap<String, Vec<(String, Vec<u8>)>> = Default::default();
    for entry in std::fs::read_dir(&wal_corpus).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if let Some((case, segment)) = name.split_once("__") {
            let segment = segment.trim_end_matches(".bin").to_owned();
            cases
                .entry(case.to_owned())
                .or_default()
                .push((segment, corpus(&format!("wal/{name}"))));
        }
    }
    let parent = "wal-00000000000000000000.seg";
    cases.insert(
        "parent-shards0".to_owned(),
        vec![(
            parent.to_owned(),
            corpus(&format!("wal/parent-shards0/{parent}")),
        )],
    );
    assert_eq!(cases.len(), 6, "{:?}", cases.keys());
    let cases: Vec<_> = cases.into_values().collect();

    let dir = std::env::temp_dir().join(format!("ocep-owal-mutations-{}", std::process::id()));
    let mut rng = Rng::seed_from_u64(0x0C4B_0004);
    for round in 0..ROUNDS {
        let case = &cases[round % cases.len()];
        let victim = rng.gen_range(0usize..case.len());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (segment, bytes)) in case.iter().enumerate() {
            let bytes = if i == victim {
                common::mutate(&mut rng, bytes)
            } else {
                bytes.clone()
            };
            std::fs::write(dir.join(segment), bytes).unwrap();
        }
        match wal::scan(&dir) {
            // `Corrupt` carries segment and offset as fields.
            Ok(_) | Err(WalError::Corrupt { .. }) => {}
            Err(e @ WalError::Io(..)) => panic!("round {round}: {e}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stack every thread the daemon spawns gets: a pattern source a
/// reader can parse here cannot overflow it.
const THREAD_STACK: usize = 2 << 20;

/// Mutants of every committed example pattern and of the four hostile
/// shapes in `common::hostile_patterns` (far past the pattern size
/// rule), each parsed and compiled on a daemon-sized stack. A stack overflow would
/// abort this test binary; a panic fails the join.
#[test]
fn pattern_source_mutations_never_panic_abort_or_hang() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/fixtures");
    let mut seeds: Vec<(String, usize, Vec<u8>)> = Vec::new();
    for entry in std::fs::read_dir(&fixtures).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "pat") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            seeds.push((name, ROUNDS / 4, std::fs::read(&path).unwrap()));
        }
    }
    assert_eq!(seeds.len(), 4, "examples/fixtures/*.pat");
    for (name, src) in common::hostile_patterns() {
        // Each is tens of kilobytes: fewer rounds keep the test quick.
        seeds.push((name.to_owned(), ROUNDS / 20, src.into_bytes()));
    }
    std::thread::Builder::new()
        .stack_size(THREAD_STACK)
        .spawn(move || {
            let mut rng = Rng::seed_from_u64(0x0C4B_0005);
            for (name, rounds, seed) in &seeds {
                let parsed = Pattern::parse(std::str::from_utf8(seed).unwrap());
                assert_eq!(parsed.is_ok(), name.ends_with(".pat"), "{name} unmutated");
                for _ in 0..*rounds {
                    let bytes = common::mutate(&mut rng, seed);
                    let _ = Pattern::parse(&String::from_utf8_lossy(&bytes));
                }
            }
        })
        .unwrap()
        .join()
        .expect("a pattern source mutant panicked the parser");
}
