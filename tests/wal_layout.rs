//! Durable-log layout contract (tier-1): one log directly under the
//! WAL root, the same bytes at every shard count, readable at every
//! other.
//!
//! `tests/corpus/wal/parent-shards0/` is a crash image of a log
//! directory written by `ocep serve --shards 0 --wal` at commit
//! 0d0d4e1 (the last one with separate single and sharded backends):
//! tenant `REC_REGISTER`s, two event batches, a mid-stream
//! `REC_CHECKPOINT`, a `REC_UNREGISTER`, a reordered batch with a
//! duplicate, and a `REC_FLUSH` — no final checkpoint. It also holds the
//! watermark record that version's history GC logged before the
//! checkpoint, which recovery skips. Whatever serves that directory next
//! must reprint the verdict history, admitted count, session resume
//! offset and `tail --from 0` backlog committed beside it in
//! `expected.txt`.

use ocep_repro::net::{Client, Frame, ServeConfig, Server, Tail};
use ocep_repro::ocep::{GuardConfig, MonitorSet};
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::{Event, EventKind, PoetServer};
use ocep_repro::vclock::TraceId;
use ocep_repro::wal::Durability;
use std::path::{Path, PathBuf};

const N_TRACES: usize = 3;
const SESSION: &str = "sess";
const PINGS: &str = "A := [*, ping, *]; B := [*, pong, *]; pattern := A -> B;";
const CONC: &str = "X := [*, tick, *]; Y := [*, tick, *]; pattern := X || Y;";
const LONE: &str = "C := [*, pong, *]; pattern := C;";
const LATE: &str = "L := [*, late, *]; pattern := L;";

/// 60 events on three traces: ping sends answered by pong receives on
/// the next trace round-robin, with a pair of concurrent `tick`s in the
/// second batch and a pair of `late`s in the third.
fn stream() -> Vec<Event> {
    let mut poet = PoetServer::new(N_TRACES);
    for i in 0..28u32 {
        if i == 10 || i == 22 {
            let ty = if i == 10 { "tick" } else { "late" };
            poet.record(TraceId::new(i % 3), EventKind::Unary, ty, "");
            poet.record(TraceId::new((i + 1) % 3), EventKind::Unary, ty, "");
        }
        let from = TraceId::new(i % 3);
        let to = TraceId::new((i + 1) % 3);
        let s = poet.record(from, EventKind::Send, "ping", "m");
        poet.record_receive(to, s.id(), "pong", "m");
    }
    poet.linearization().collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ocep-wal-layout-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

/// A server with the one static monitor `pings`, logging under `wal`.
fn serve(wal: &Path, shards: usize, checkpoint_dir: Option<&Path>) -> Server {
    let mut set = MonitorSet::new(N_TRACES);
    set.add("pings", Pattern::parse(PINGS).unwrap());
    set.enable_guard(GuardConfig::default());
    let mut config = ServeConfig {
        wal_dir: Some(wal.to_path_buf()),
        durability: Durability::None,
        checkpoint_every: 32,
        checkpoint_dir: checkpoint_dir.map(Path::to_path_buf),
        shards,
        ..ServeConfig::default()
    };
    config
        .pattern_sources
        .insert("pings".to_owned(), PINGS.to_owned());
    Server::bind("127.0.0.1:0", set, config).expect("bind loopback server")
}

/// The pinned producer session. Returns once every frame is processed
/// and its records are in the kernel (a stats round trip).
fn drive(addr: &str) -> Client {
    let events = stream();
    let mut c = Client::connect(addr, N_TRACES, SESSION).unwrap();
    let tenant = [
        ("conc".to_owned(), CONC.to_owned()),
        ("lone".to_owned(), LONE.to_owned()),
        ("late".to_owned(), LATE.to_owned()),
    ];
    assert_eq!(c.register("acme", &tenant).unwrap(), 3);
    c.send_batch(&events[..20]).unwrap();
    // Crosses `checkpoint_every`: a log-anchored checkpoint.
    c.send_batch(&events[20..40]).unwrap();
    assert_eq!(c.unregister("acme", &["lone".to_owned()]).unwrap(), 2);
    // A receive ahead of its send, and a duplicate: guard state in the
    // replayed suffix.
    let mut tail = events[40..].to_vec();
    tail.swap(0, 1);
    tail.push(events[45].clone());
    c.send_batch(&tail).unwrap();
    c.flush().unwrap();
    c.stats().unwrap();
    assert!(c.take_faults().is_empty());
    c
}

/// Everything a restarted server says about the log under `wal`.
fn observe_recovery(wal: &Path, shards: usize, checkpoint_dir: Option<&Path>) -> Vec<String> {
    let server = serve(wal, shards, checkpoint_dir);
    let addr = server.addr().to_string();
    let client = Client::connect(&addr, N_TRACES, SESSION).unwrap();
    let mut lines = vec![format!("resume {SESSION} {}", client.resume_from())];
    let mut tail = Tail::connect_from(&addr, "tail", Some(0)).unwrap();
    let (_, backlog) = tail.stats().unwrap();
    client.shutdown().unwrap();
    let report = server.join();
    lines.push(format!("recovered_events {}", report.recovered_events));
    lines.push(format!("admitted {}", report.ingest.admitted));
    lines.push(format!("ingest {:?}", report.ingest));
    for (monitor, m) in &report.verdicts {
        lines.push(format!("match[{monitor}]: {m}"));
    }
    for frame in backlog {
        let Frame::VerdictAt { lsn, verdict } = frame else {
            panic!("unexpected {} in the tail backlog", frame.type_name());
        };
        lines.push(format!(
            "tail match[{}]@{lsn} {:?}",
            verdict.monitor, verdict.bindings
        ));
    }
    lines
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/wal/parent-shards0")
}

/// Rewrites the fixture from whatever engine this is built against. It
/// was run once, on the parent commit named in the module docs; rerun
/// it only for a deliberate log-format change, and review the diff.
#[test]
#[ignore = "rewrites tests/corpus/wal/parent-shards0/; run explicitly"]
fn regenerate_parent_fixture() {
    let wal = scratch_dir("gen");
    let server = serve(&wal, 0, None);
    let client = drive(&server.addr().to_string());
    // Acked and in the kernel, no final checkpoint: what SIGKILL leaves.
    let fixture = fixture_dir();
    let _ = std::fs::remove_dir_all(&fixture);
    copy_dir(&wal, &fixture);
    client.shutdown().unwrap();
    let _ = server.join();
    let _ = std::fs::remove_dir_all(&wal);

    let image = scratch_dir("gen-recover");
    copy_dir(&fixture, &image);
    let lines = observe_recovery(&image, 0, None);
    std::fs::write(fixture.join("expected.txt"), lines.join("\n") + "\n").unwrap();
    let _ = std::fs::remove_dir_all(&image);
}

#[test]
fn parent_written_log_recovers_unchanged() {
    let expected = std::fs::read_to_string(fixture_dir().join("expected.txt")).unwrap();
    let expected: Vec<&str> = expected.lines().collect();
    assert!(
        expected.iter().any(|l| l.starts_with("tail match[")),
        "fixture pins no verdict backlog"
    );
    for shards in [0, 2, 4] {
        let image = scratch_dir("fixture");
        copy_dir(&fixture_dir(), &image);
        std::fs::remove_file(image.join("expected.txt")).unwrap();
        let lines = observe_recovery(&image, shards, None);
        assert_eq!(lines, expected, "--shards {shards}");
        let _ = std::fs::remove_dir_all(&image);
    }
}

/// Sorted `(path relative to dir, bytes)` of every file under `dir`.
type Files = Vec<(String, Vec<u8>)>;

fn tree_files(dir: &Path) -> Files {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type().unwrap().is_dir() {
            let below = tree_files(&entry.path());
            files.extend(below.into_iter().map(|(n, b)| (format!("{name}/{n}"), b)));
        } else {
            files.push((name, std::fs::read(entry.path()).unwrap()));
        }
    }
    files.sort();
    files
}

#[test]
fn log_bytes_do_not_depend_on_the_shard_count() {
    // The pinned session, served to a graceful shutdown at each count.
    let written: Vec<(usize, PathBuf)> = [0, 1, 2, 4]
        .into_iter()
        .map(|shards| {
            let wal = scratch_dir(&format!("n{shards}"));
            let server = serve(&wal, shards, None);
            drive(&server.addr().to_string()).shutdown().unwrap();
            let _ = server.join();
            (shards, wal)
        })
        .collect();
    let reference = tree_files(&written[0].1);
    let names: Vec<&String> = reference.iter().map(|(n, _)| n).collect();
    assert!(
        names
            .iter()
            .all(|n| n.starts_with("wal-0") && n.ends_with(".seg")),
        "segments sit directly under the root: {names:?}"
    );
    for (shards, wal) in &written[1..] {
        assert!(
            tree_files(wal) == reference,
            "--shards {shards} log differs"
        );
    }

    // A log written at 2 shards recovers identically at 4 and at 0,
    // per-monitor checkpoint files included.
    let written_at_two = &written[2].1;
    let recovered: Vec<(Vec<String>, Files)> = [2, 4, 0]
        .into_iter()
        .map(|shards| {
            let image = scratch_dir("cross");
            copy_dir(written_at_two, &image);
            let ckpts = scratch_dir("cross-ckpt");
            let lines = observe_recovery(&image, shards, Some(&ckpts));
            let files = tree_files(&ckpts);
            let _ = std::fs::remove_dir_all(&image);
            let _ = std::fs::remove_dir_all(&ckpts);
            (lines, files)
        })
        .collect();
    assert!(recovered[0].0.iter().any(|l| l.starts_with("tail match[")));
    let checkpointed: Vec<&str> = recovered[0].1.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        checkpointed,
        ["acme/conc.ockp", "acme/late.ockp", "pings.ockp"]
    );
    assert!(
        recovered[1] == recovered[0],
        "2-shard log differs at 4 shards"
    );
    assert!(
        recovered[2] == recovered[0],
        "2-shard log differs at 0 shards"
    );
    for (_, wal) in written {
        let _ = std::fs::remove_dir_all(wal);
    }
}

#[test]
fn per_shard_log_directories_are_refused() {
    let wal = scratch_dir("legacy");
    std::fs::create_dir_all(wal.join("wal-shard-0")).unwrap();
    let mut set = MonitorSet::new(N_TRACES);
    set.add("pings", Pattern::parse(PINGS).unwrap());
    let config = ServeConfig {
        wal_dir: Some(wal.clone()),
        shards: 2,
        ..ServeConfig::default()
    };
    let err = Server::bind("127.0.0.1:0", set, config).expect_err("legacy layout accepted");
    let msg = err.to_string();
    assert!(msg.contains("wal-shard-0") && !msg.contains('\n'), "{msg}");
    let _ = std::fs::remove_dir_all(&wal);
}
