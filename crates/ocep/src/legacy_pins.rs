//! Every committed checkpoint an older version wrote loads into the
//! state it loaded into when it was pinned. Each file's restored state —
//! pattern source, log anchor, configuration, the §VI leaf histories
//! with their dedup marks, the §IV-B subset, the live work counters by
//! name, the metrics registry, and the admission guard's reorder state —
//! is rendered as text and pinned by its FNV-1a hash. A decoder rewrite
//! may change how the bytes are read, never what they restore to.
//!
//! The files: the three `parent-guarded` OCKP checkpoints, the
//! CLI-written OCKS `cli-guarded.ocks`, the OCKS blob of every
//! checkpoint record in the `parent-shards0` log, and `v3/full-obs.ockp`
//! — what `ocep checkpoint pattern.ocep stream.poet full-obs.ockp
//! --events 12 --per-arrival --obs full` wrote over the `parent-guarded`
//! inputs at the last version-3 writer, the one legacy file with a
//! metrics section.

use crate::checkpoint::{load_at, load_set_at};
use crate::ingest::AdmissionGuard;
use crate::obs::{Histogram, Stage};
use crate::{CounterBlock, Monitor};
use ocep_poet::codec::Reader;
use std::fmt::Write as _;

fn corpus(rel: &str) -> Vec<u8> {
    let path = format!("{}/../../tests/corpus/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hist(out: &mut String, name: &str, h: &Histogram) {
    writeln!(
        out,
        "{name}: counts={:?} count={} sum={} max={}",
        h.bucket_counts(),
        h.count(),
        h.sum(),
        h.max()
    )
    .unwrap();
}

fn monitor_state(out: &mut String, m: &Monitor) {
    let config = m.config();
    writeln!(
        out,
        "config dedup={} policy={:?} obs={:?}",
        config.dedup, config.policy, config.obs
    )
    .unwrap();
    let h = &m.history;
    writeln!(out, "history dedup={} relevant={:?}", h.dedup, h.relevant).unwrap();
    for (l, per_trace) in h.per_leaf.iter().enumerate() {
        writeln!(out, "leaf {l} last_relevant={:?}", h.last_relevant[l]).unwrap();
        for (t, events) in per_trace.iter().enumerate() {
            let ids: Vec<String> = events.iter().map(|e| e.id().to_string()).collect();
            writeln!(out, "leaf {l} trace {t}: {}", ids.join(" ")).unwrap();
        }
    }
    writeln!(out, "stored={} suppressed={}", h.stored, h.suppressed).unwrap();
    for (l, per_trace) in m.subset.iter().enumerate() {
        for (t, cell) in per_trace.iter().enumerate() {
            let cell = cell.as_ref().map(|mm| {
                mm.events()
                    .iter()
                    .map(|e| e.id().to_string())
                    .collect::<Vec<_>>()
            });
            writeln!(out, "subset {l} {t}: {cell:?}").unwrap();
        }
    }
    let s = m.stats();
    for (name, v) in [
        ("events", s.events),
        ("stored", s.stored),
        ("searches", s.searches),
        ("matches_found", s.matches_found),
        ("matches_reported", s.matches_reported),
        ("nodes", s.nodes),
        ("candidates", s.candidates),
        ("domains", s.domains),
        ("backjumps", s.backjumps),
        ("deferred_rejections", s.deferred_rejections),
    ] {
        writeln!(out, "{name}={v}").unwrap();
    }
    let Some(obs) = m.obs_metrics() else {
        writeln!(out, "obs none").unwrap();
        return;
    };
    writeln!(out, "obs level={:?}", obs.level()).unwrap();
    for stage in Stage::ALL {
        hist(out, stage.name(), obs.stage_hist(stage));
    }
    hist(out, "arrival", obs.arrival_hist());
    for (i, h) in obs.search.domain_width.iter().enumerate() {
        hist(out, &format!("domain_width {i}"), h);
    }
    hist(out, "backjump_depth", &obs.search.backjump_depth);
    hist(out, "conflict_size", &obs.search.conflict_size);
    writeln!(
        out,
        "prune_gp_ls={} prune_intersect={}",
        obs.search.prune_gp_ls, obs.search.prune_intersect
    )
    .unwrap();
    for rec in obs.recent().records() {
        writeln!(out, "recent {rec:?}").unwrap();
    }
}

fn guard_state(out: &mut String, guard: Option<&AdmissionGuard>) {
    let Some(g) = guard else {
        writeln!(out, "guard none").unwrap();
        return;
    };
    let buffered: Vec<String> = g.buffer.iter().map(|e| e.id().to_string()).collect();
    writeln!(
        out,
        "guard {:?} admitted={:?} buffer={} ingest={:?}",
        g.config,
        g.admitted,
        buffered.join(" "),
        g.stats.values().collect::<Vec<_>>()
    )
    .unwrap();
}

fn ockp_state(bytes: &[u8]) -> String {
    let loaded = load_at(bytes).unwrap();
    let mut out = format!(
        "OCKP src={:?} wal_lsn={}\n",
        loaded.pattern_src, loaded.wal_lsn
    );
    monitor_state(&mut out, &loaded.monitor);
    guard_state(&mut out, loaded.guard.as_ref());
    out
}

fn ocks_state(bytes: &[u8]) -> String {
    let loaded = load_set_at(bytes).unwrap();
    let mut out = format!(
        "OCKS n_traces={} wal_lsn={} refused={:?}\n",
        loaded.set.n_traces(),
        loaded.wal_lsn,
        loaded.refused
    );
    for ((name, m), (src_name, src)) in loaded.set.iter().zip(&loaded.sources) {
        writeln!(out, "monitor {name} ({src_name}) src={src:?}").unwrap();
        monitor_state(&mut out, m);
    }
    guard_state(&mut out, loaded.set.guard());
    out
}

/// The OCKS blob of every checkpoint record in the `parent-shards0`
/// segment: a 32-byte segment header, then records of `len u32, type
/// u8, lsn u64, payload, hash u64`; a checkpoint's (type 3) payload
/// opens with its `u32`-length-prefixed OCKS blob.
fn shards0_checkpoints() -> Vec<Vec<u8>> {
    let seg = corpus("wal/parent-shards0/wal-00000000000000000000.seg");
    let mut r = Reader::new(&seg[32..]);
    let mut blobs = Vec::new();
    while r.remaining() > 0 {
        let len = r.u32("len").unwrap() as usize;
        let rtype = r.u8("type").unwrap();
        r.u64("lsn").unwrap();
        let payload = r.bytes(len, "payload").unwrap();
        r.u64("hash").unwrap();
        if rtype == 3 {
            let mut p = Reader::new(payload);
            let n = p.u32("ocks len").unwrap() as usize;
            blobs.push(p.bytes(n, "ocks").unwrap().to_vec());
        }
    }
    blobs
}

#[test]
fn legacy_checkpoints_load_to_their_pinned_state() {
    let mut states: Vec<(String, String)> = Vec::new();
    for name in ["unguarded", "guarded-ahead", "guarded-gap"] {
        let bytes = corpus(&format!("ockp/parent-guarded/{name}.ockp"));
        states.push((name.to_owned(), ockp_state(&bytes)));
    }
    let full_obs = corpus("ockp/v3/full-obs.ockp");
    states.push(("full-obs".to_owned(), ockp_state(&full_obs)));
    // The same file at the retired level code 1 (`counters`) restores
    // the same registry at `Full`. It was the obs-off file with its
    // trailing marker 0 then a metrics section: the level byte follows
    // the marker, which sits where the off file's marker does.
    let off_len = corpus("ockp/parent-guarded/unguarded.ockp").len();
    let mut counters_level = full_obs.clone();
    assert_eq!(counters_level[off_len - 9..off_len - 7], [1, 2]);
    counters_level[off_len - 8] = 1;
    assert_eq!(ockp_state(&counters_level), ockp_state(&full_obs));
    states.push((
        "cli-guarded".to_owned(),
        ocks_state(&corpus("ockp/parent-guarded/cli-guarded.ocks")),
    ));
    let blobs = shards0_checkpoints();
    assert_eq!(blobs.len(), 1, "parent-shards0 holds one checkpoint record");
    for (i, blob) in blobs.iter().enumerate() {
        states.push((format!("parent-shards0 #{i}"), ocks_state(blob)));
    }

    let got: Vec<(&str, u64)> = states.iter().map(|(n, s)| (n.as_str(), fnv(s))).collect();
    let want: [(&str, u64); 6] = [
        ("unguarded", 0xaf22c533d4491781),
        ("guarded-ahead", 0xbf9ba919367581e9),
        ("guarded-gap", 0x4b01be6f86ed8885),
        ("full-obs", 0x34e70cece77484e2),
        ("cli-guarded", 0x56a5fb8d90e9f4ae),
        ("parent-shards0 #0", 0xbe897635aae5687d),
    ];
    for ((name, state), (got, want)) in states.iter().zip(got.iter().zip(want)) {
        assert_eq!(*got, want, "{name} restores to:\n{state}");
    }
}
