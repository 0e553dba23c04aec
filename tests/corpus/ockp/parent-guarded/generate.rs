//! Not compiled here: the program that wrote this directory's `.poet`,
//! `.ocep` and `.ockp` files, kept as the record of how they were made.
//! It needs commit 0c944c5's library (the last with
//! `MonitorConfig::guard`): a package of its own whose `ocep-core`,
//! `ocep-pattern`, `ocep-poet` and `ocep-vclock` path dependencies
//! point into a checkout of that commit, run with this directory as its
//! argument. `expected/*.txt` then came from that commit's `ocep`
//! binary, each file's first line run from the repository root.
use ocep_core::{GuardConfig, Monitor, MonitorConfig, OverflowPolicy, SubsetPolicy};
use ocep_pattern::Pattern;
use ocep_poet::{dump, Event, EventKind, PoetServer};
use ocep_vclock::TraceId;

const PATTERN: &str = "A := [*, ping, *]; B := [*, pong, *]; pattern := A -> B;";

fn main() {
    let out = std::path::PathBuf::from(std::env::args().nth(1).expect("out dir"));
    std::fs::create_dir_all(&out).unwrap();
    // Three traces pass pings round-robin; T3 only receives (nothing
    // depends on it), so a hole on T3 blocks T3 alone.
    let mut poet = PoetServer::new(4);
    for i in 0..10u32 {
        let from = TraceId::new(i % 3);
        let to = TraceId::new((i + 1) % 3);
        let s = poet.record(from, EventKind::Send, "ping", "m");
        poet.record_receive(to, s.id(), "pong", "m");
        if i % 2 == 1 {
            let s = poet.record(from, EventKind::Send, "ping", "side");
            poet.record_receive(TraceId::new(3), s.id(), "pong", "side");
        }
    }
    let events: Vec<Event> = poet.linearization().collect();
    dump::dump_to_file(poet.store(), out.join("stream.poet")).unwrap();
    std::fs::write(out.join("pattern.ocep"), PATTERN).unwrap();
    let cut = 12;
    let on_t3 = |e: &Event| e.trace() == TraceId::new(3);
    // T3's first event, inside the prefix, and its first beyond it.
    let hole = events[..cut].iter().position(on_t3).unwrap();
    let ahead_of_cut = cut + events[cut..].iter().position(on_t3).unwrap();

    let monitor = |guard: Option<GuardConfig>| {
        Monitor::with_config(
            Pattern::parse(PATTERN).unwrap(),
            4,
            MonitorConfig {
                policy: SubsetPolicy::PerArrival,
                guard,
                ..MonitorConfig::default()
            },
        )
    };

    // Unguarded: the first `cut` dump events, in order.
    let mut plain = monitor(None);
    for e in &events[..cut] {
        plain.observe(e);
    }
    std::fs::write(out.join("unguarded.ockp"), plain.checkpoint(PATTERN)).unwrap();

    // Guarded, default buffer: the prefix minus T3's first event, plus
    // one T3 event from beyond the cut, which stays buffered across the
    // checkpoint. Resuming over dump[cut..] matches T0..T2 in order,
    // meets the buffered event again as a duplicate, and ends by
    // flushing T3 out of causal order.
    let mut ahead = monitor(Some(GuardConfig::default()));
    for (i, e) in events[..cut].iter().enumerate() {
        if i != hole {
            ahead.observe(e);
        }
    }
    ahead.observe(&events[ahead_of_cut]);
    assert_eq!(ahead.guard().unwrap().buffered(), 2);
    assert_eq!(ahead.stats().events as usize, cut);
    std::fs::write(out.join("guarded-ahead.ockp"), ahead.checkpoint(PATTERN)).unwrap();

    // Guarded, one-slot drop-oldest buffer: the same arrivals, so the
    // second buffered T3 event already evicted the first, and every
    // later one evicts its predecessor (overflow counters, fault log).
    let mut gap = monitor(Some(GuardConfig {
        capacity: 1,
        overflow: OverflowPolicy::DropOldest,
    }));
    for (i, e) in events[..cut].iter().enumerate() {
        if i != hole {
            gap.observe(e);
        }
    }
    gap.observe(&events[ahead_of_cut]);
    assert_eq!(gap.guard().unwrap().buffered(), 1);
    assert_eq!(gap.stats().ingest.overflow_dropped, 1);
    assert_eq!(gap.stats().events as usize, cut);
    std::fs::write(out.join("guarded-gap.ockp"), gap.checkpoint(PATTERN)).unwrap();
    eprintln!(
        "{} events; ahead {:?}; gap {:?}",
        events.len(),
        ahead.stats().ingest,
        gap.stats().ingest
    );
}
