//! Allocation budgets of the ingestion adapters, counted rather than
//! timed: a reader that starts allocating per token, regrowing its
//! output or keeping a table per rank pair fails here on a number that
//! repeats exactly, not on a timing that depends on the host.
//!
//! The counters are per thread (the test harness runs tests in
//! parallel), so each test sees only what its own `parse_str` asked for.

use ocep_repro::adapters::testgen::{mpi_soak, session_ryw, zookeeper_otlp};
use ocep_repro::adapters::{by_name, AdapterOutput};
use ocep_repro::poet::Event;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::LARGE;

/// What one `parse_str` call asked of the allocator.
struct Cost {
    out: AdapterOutput,
    allocs: u64,
    bytes: u64,
    large_reallocs: u64,
}

fn parse(format: &str, text: &str) -> Cost {
    let adapter = by_name(format).expect("known format");
    let (out, cost) =
        counting_alloc::counted(|| adapter.parse_str(text).expect("recording parses"));
    Cost {
        allocs: cost.allocs,
        bytes: cost.bytes,
        large_reallocs: cost.large_reallocs,
        out,
    }
}

#[test]
fn mpi_allocates_one_clock_per_event_and_sizes_its_output_once() {
    let cost = parse("mpi", &mpi_soak(1, 8, 50_000).text);
    let events = cost.out.events.len() as u64;
    assert!(events >= 50_000);
    assert!(
        std::mem::size_of::<Event>() * cost.out.events.len() >= 4 * LARGE,
        "the output vector must be large enough for a regrowth to count"
    );
    assert!(
        cost.allocs <= events + 64,
        "{} allocations for {events} events: more than one clock buffer each",
        cost.allocs
    );
    assert_eq!(cost.large_reallocs, 0, "the output vector regrew");
}

#[test]
fn otlp_and_session_stay_within_their_documented_allocations_per_event() {
    // docs/ADAPTERS.md, "Cost", on its inputs: 1.29 (otlp) and 2.0
    // (session) per event — a clock buffer each, plus an `Arc<str>`
    // per distinct string. The session input is small enough for its
    // tables, which grow by doubling, to show: 128 covers them.
    let otlp = parse("otlp", &zookeeper_otlp(1, 20, 600, 0.05).text);
    let events = otlp.out.events.len() as u64;
    assert!(
        otlp.allocs * 10 <= events * 13,
        "otlp: {} allocations for {events} events",
        otlp.allocs
    );
    let session = parse("session", &session_ryw(4, 500, 0.2).text);
    let events = session.out.events.len() as u64;
    assert!(
        session.allocs <= events * 2 + 128,
        "session: {} allocations for {events} events",
        session.allocs
    );
}

#[test]
fn many_tags_on_one_rank_pair_cost_memory_linear_in_the_input() {
    // 50k channels between one pair of ranks: every send opens one,
    // every receive looks one up. The bytes per input byte must not
    // grow with the number of channels.
    let recording = |tags: usize| {
        let mut text = String::from("mpi 2\n");
        for t in 0..tags {
            text.push_str(&format!("0 send 1 tag-{t}\n"));
        }
        for t in 0..tags {
            text.push_str(&format!("1 recv 0 tag-{t}\n"));
        }
        text
    };
    let per_input_byte = |tags: usize| {
        let text = recording(tags);
        let cost = parse("mpi", &text);
        assert_eq!(cost.out.events.len(), 2 * tags);
        assert_eq!(cost.out.stats.edges, tags as u64);
        cost.bytes as f64 / text.len() as f64
    };
    let (small, large) = (per_input_byte(5_000), per_input_byte(50_000));
    assert!(large <= 32.0, "{large:.1} bytes allocated per input byte");
    assert!(
        large <= small * 1.25,
        "bytes per input byte grew from {small:.1} at 5k tags to {large:.1} at 50k"
    );
}

#[test]
fn a_wide_header_allocates_per_rank_never_per_rank_pair() {
    let mut text = String::from("mpi 4096\n");
    for r in 0..5 {
        text.push_str(&format!(
            "{r} send {} edge\n{} recv {r} edge\n",
            4095 - r,
            4095 - r
        ));
    }
    let cost = parse("mpi", &text);
    assert_eq!(cost.out.n_traces, 4096);
    assert_eq!(cost.out.events.len(), 10);
    // Names, `T<rank>` texts and clock rows are per rank; ten events
    // carry ten 16 KiB clocks. A table with a slot per `(src, dst)`
    // pair would be 16 Mi slots.
    assert!(
        cost.bytes < 4096 * 512,
        "{} bytes allocated for a 4096-rank header and ten records",
        cost.bytes
    );
}

#[test]
fn blank_lines_reserve_a_bounded_multiple_of_their_own_size() {
    let mut text = "\n".repeat(1 << 20);
    text.push_str("mpi 1\n0 local only\n");
    let cost = parse("mpi", &text);
    assert_eq!(cost.out.events.len(), 1);
    assert_eq!(cost.out.stats.lines, (1 << 20) + 2);
    // An output slot per *line* would be a million events' worth; the
    // size hint is capped by how many records the bytes could hold.
    let slot_per_line = (text.len() * std::mem::size_of::<Event>()) as u64;
    assert!(
        cost.bytes * 4 < slot_per_line,
        "{} bytes allocated for {} input bytes",
        cost.bytes,
        text.len()
    );
    assert!(cost.bytes <= 12 * text.len() as u64);
}

#[test]
fn every_generator_writes_one_buffer_sized_before_its_first_record() {
    use ocep_repro::adapters::testgen::{mpi_deadlock, saga_otlp};
    // Allocations per call: the text, plus for `zookeeper_otlp` the
    // followers' turn order, and for `mpi_deadlock` the lines every
    // round repeats, the blocked sends and the shuffled ranks. None is
    // per record, none regrows, and the text is sized from the widest
    // unit (a round, an order, a task), so it asks for at most a quarter
    // more than it writes. The probability-1 calls make every unit the
    // widest kind, where an undersized bound would show as a regrowth.
    for (name, allocs, generate) in [
        (
            "zookeeper_otlp",
            2,
            (|| zookeeper_otlp(1, 20, 600, 0.05)) as fn() -> _,
        ),
        ("zookeeper_otlp, every round buggy", 2, || {
            zookeeper_otlp(6, 11, 100, 1.0)
        }),
        ("mpi_soak", 4, || mpi_soak(1, 8, 300_000)),
        ("mpi_deadlock", 4, || mpi_deadlock(13, 101, 40, 7, 0.5, 1)),
        ("mpi_deadlock, an episode every round", 4, || {
            mpi_deadlock(14, 4, 1000, 4, 1.0, 0)
        }),
        ("saga_otlp", 1, || saga_otlp(26, 3000, 0.4, 0.5)),
        ("saga_otlp, every order confirmed anyway", 1, || {
            saga_otlp(23, 3000, 1.0, 1.0)
        }),
        ("session_ryw", 1, || session_ryw(35, 1001, 0.2)),
    ] {
        let (rec, cost) = counting_alloc::counted(generate);
        let written = rec.text.len() as u64;
        assert_eq!(cost.allocs, allocs, "{name}: allocations");
        assert_eq!(cost.large_reallocs, 0, "{name}: the text regrew");
        assert!(
            cost.bytes >= written && cost.bytes <= written + written / 4,
            "{name}: {} bytes requested for {written} written",
            cost.bytes
        );
    }
}
