//! Seeded recording generators.
//!
//! Every committed adapter fixture in this repo is the output of one
//! of these functions at a pinned seed — the fixture tests regenerate
//! and byte-compare them (the same cross-check discipline as the wire
//! corpus), the transparency differential replays them offline vs
//! through a loopback daemon, and the soak bench scales them up to
//! millions of events. Generators return the recording *text* in the
//! adapter's input format, never events directly: everything measured
//! or asserted downstream has actually been through the parser.
//!
//! A generator writes its records, it does not format them: each is a
//! run of fixed pieces and decimal numbers appended to one `String`,
//! which is sized once, before the first record, by writing the
//! widest unit the generator can emit (a round, an order, a task) to a
//! byte `Count` and multiplying by the number of units.

use crate::AdapterOutput;
use ocep_rng::Rng;

/// A generated recording plus its ground truth.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Recording text in the target adapter's input format.
    pub text: String,
    /// Number of injected violations (the curated pattern for the
    /// scenario must report exactly/at least this many matches; see
    /// each generator's contract).
    pub truth: usize,
    /// Number of traces the adapter will synthesize.
    pub n_traces: usize,
}

impl Recording {
    /// Parses the recording back through its adapter — a convenience
    /// for tests and benches that want events, not text.
    ///
    /// # Panics
    ///
    /// Panics if the generator produced text its own adapter rejects
    /// (a generator bug by definition).
    #[must_use]
    pub fn parse(&self, format: &str) -> AdapterOutput {
        let adapter = crate::by_name(format).expect("known format");
        adapter
            .parse_str(&self.text)
            .expect("generated recording must parse")
    }
}

/// A number's decimal digits, rendered on the stack: the one way a
/// generator writes a number.
struct Decimal {
    digits: [u8; 20],
    start: usize,
}

impl Decimal {
    fn new(mut n: u64) -> Self {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        Decimal { digits, start }
    }

    fn of(n: usize) -> Self {
        Self::new(n as u64)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("decimal digits are ASCII")
    }
}

/// Where a generator's records go: the recording text itself, or a
/// `Count` of the bytes they would add.
trait Out {
    fn put(&mut self, piece: &str);

    fn puts(&mut self, pieces: &[&str]) {
        for piece in pieces {
            self.put(piece);
        }
    }

    fn num(&mut self, n: u64) {
        self.put(Decimal::new(n).as_str());
    }
}

impl Out for String {
    fn put(&mut self, piece: &str) {
        self.push_str(piece);
    }
}

/// Bytes written, not the bytes themselves: what sizes a recording.
struct Count(usize);

impl Out for Count {
    fn put(&mut self, piece: &str) {
        self.0 += piece.len();
    }
}

/// The bytes `write` puts out.
fn bytes_of(write: impl FnOnce(&mut Count)) -> usize {
    let mut count = Count(0);
    write(&mut count);
    count.0
}

/// A recording's buffer: its `header` pieces, with room for `units`
/// units of at most `unit_bytes` each after them.
fn recording_buffer(header: &[&str], units: usize, unit_bytes: usize) -> String {
    let header_bytes = bytes_of(|o| o.puts(header));
    let mut text = String::with_capacity(header_bytes + units * unit_bytes);
    text.puts(header);
    text
}

/// Advances a start-timestamp counter and returns the new stamp.
fn tick(t: &mut u64) -> u64 {
    *t += 1;
    *t
}

/// One OTLP span line. `service`, `span`, `parent` and `attr` are each
/// the concatenation of their pieces; an empty `parent` or `attr` is
/// left out of the line.
// Always inlined: each literal piece is then a copy of known length,
// which takes about a quarter off a generated span's cost.
#[inline(always)]
fn otlp_span(
    o: &mut impl Out,
    service: &[&str],
    span: &[&str],
    name: &str,
    start: u64,
    parent: &[&str],
    attr: &[&str],
) {
    o.put(r#"{"service":""#);
    o.puts(service);
    o.put(r#"","span":""#);
    o.puts(span);
    o.put(r#"","name":""#);
    o.put(name);
    o.put(r#"","start":"#);
    o.num(start);
    if !parent.is_empty() {
        o.put(r#","parent":""#);
        o.puts(parent);
        o.put("\"");
    }
    if !attr.is_empty() {
        o.put(r#","attr":""#);
        o.puts(attr);
        o.put("\"");
    }
    o.put("}\n");
}

/// ZooKeeper-962-style leader/follower ordering bug as an OTLP span
/// recording (format `otlp`; see `examples/zookeeper_ordering_bug.rs`).
///
/// One `leader` service serves `n_followers` follower services; each
/// follower performs `synchs` synchronization rounds (followers take
/// turns in seeded shuffled order). Per round the leader records
/// `synch_leader` → `make_update` → `take_snapshot` →
/// `forward_snapshot` spans stamped with the round token; with
/// probability `bug_prob` an extra `make_update` lands *between*
/// snapshot and forward — the stale-snapshot bug. The §III-D ordering
/// pattern (`replicated_service::ordering_pattern`) reports exactly
/// `truth` matches on the synthesized stream.
#[must_use]
pub fn zookeeper_otlp(seed: u64, n_followers: usize, synchs: usize, bug_prob: f64) -> Recording {
    assert!(n_followers >= 1);
    let mut rng = Rng::seed_from_u64(seed);
    let rounds = n_followers * synchs;
    // The widest round: the last follower in the last epoch, with the
    // bug, stamped and sequenced with the largest values any round can.
    let widest = bytes_of(|o| {
        let (f, epoch) = (Decimal::of(n_followers), Decimal::of(synchs));
        let mut t = (8 * rounds) as u64;
        let mut update_seq = (2 * rounds) as u64;
        let round = [f.as_str(), epoch.as_str(), epoch.as_str()];
        zookeeper_round(o, round, &mut t, &mut update_seq, true);
    });
    let mut text = recording_buffer(
        &["# ZooKeeper-962-style stale-snapshot recording (generated, pinned seed)\n"],
        rounds,
        widest,
    );
    let mut t = 0u64; // global start-timestamp counter
    let mut truth = 0usize;
    let mut update_seq = 0u64;
    let mut order: Vec<usize> = Vec::with_capacity(n_followers);
    for epoch in 0..synchs {
        order.clear();
        order.extend(1..=n_followers);
        rng.shuffle(&mut order);
        let (this, next) = (Decimal::of(epoch), Decimal::of(epoch + 1));
        for &f in &order {
            let bug = rng.gen_bool(bug_prob);
            let f = Decimal::of(f);
            let round = [f.as_str(), this.as_str(), next.as_str()];
            zookeeper_round(&mut text, round, &mut t, &mut update_seq, bug);
            truth += usize::from(bug);
        }
    }
    Recording {
        text,
        truth,
        n_traces: n_followers + 1,
    }
}

/// One follower's synchronization round, `[follower, epoch, epoch + 1]`
/// as digits: seven spans, and with the stale-snapshot `bug` an eighth
/// `make_update` between snapshot and forward.
fn zookeeper_round(
    o: &mut impl Out,
    [f, epoch, next_epoch]: [&str; 3],
    t: &mut u64,
    update_seq: &mut u64,
    bug: bool,
) {
    let follower: &[&str] = &["follower-", f];
    let leader: &[&str] = &["leader"];
    let token = ["follower-", f, "#r", next_epoch];
    let id = |suffix| ["f", f, "r", epoch, suffix];
    let mut span = |service: &[&str], suffix, name, parent: &[&str], attr: &[&str]| {
        otlp_span(o, service, &id(suffix), name, tick(t), parent, attr);
    };
    span(follower, "-syn", "synch_request", &[], &token);
    span(leader, "-lead", "synch_leader", &id("-syn"), &token);
    *update_seq += 1;
    let seq = Decimal::new(*update_seq);
    span(leader, "-upd", "make_update", &[], &["seq=", seq.as_str()]);
    span(leader, "-snap", "take_snapshot", &[], &token);
    if bug {
        // The bug: the leader is not blocked from updating between
        // snapshot and forward.
        *update_seq += 1;
        let seq = Decimal::new(*update_seq);
        span(leader, "-upd2", "make_update", &[], &["seq=", seq.as_str()]);
    }
    span(leader, "-fwd", "forward_snapshot", &[], &token);
    span(follower, "-recv", "recv_snapshot", &id("-fwd"), &token);
    span(follower, "-apply", "apply_snapshot", &[], &[]);
}

/// Parallel random-walk application with injected blocking-send
/// deadlock cycles as an MPI recording (format `mpi`; the trace-file
/// twin of `simulator::workloads::random_walk`).
///
/// Per round: `walk_steps` local events per rank, a buffered boundary
/// exchange around the ring, and with probability `deadlock_prob` a
/// cycle of `cycle_len` blocking sends that stall until a timeout
/// receive in the next round. The length-`cycle_len` concurrent-cycle
/// pattern (`random_walk::cycle_pattern`) reports at least `truth`
/// matches.
///
/// # Panics
///
/// Panics if `cycle_len` is below 2 or exceeds `n_ranks`.
#[must_use]
pub fn mpi_deadlock(
    seed: u64,
    n_ranks: usize,
    rounds: usize,
    cycle_len: usize,
    deadlock_prob: f64,
    walk_steps: usize,
) -> Recording {
    assert!(cycle_len >= 2 && cycle_len <= n_ranks);
    let mut rng = Rng::seed_from_u64(seed);
    // Every round repeats the same walk steps and ring exchange: write
    // those lines once, then copy them into each round.
    let walk_bytes = bytes_of(|o| mpi_walk(o, n_ranks, walk_steps));
    let mut steady = String::with_capacity(walk_bytes + bytes_of(|o| mpi_ring(o, n_ranks)));
    mpi_walk(&mut steady, n_ranks, walk_steps);
    mpi_ring(&mut steady, n_ranks);
    let (walk, ring) = steady.split_at(walk_bytes);
    // The widest round also resolves one episode and injects another,
    // with the widest rank on every line.
    let last = Decimal::of(n_ranks - 1);
    let r = last.as_str();
    let widest = steady.len()
        + cycle_len * bytes_of(|o| mpi_message(o, r, TIMEOUT_RECV, r))
        + cycle_len * bytes_of(|o| mpi_message(o, r, BLOCKING_SEND, r));
    let ranks = Decimal::of(n_ranks);
    let mut text = recording_buffer(
        &[
            "# random-walk ring exchange with injected blocked-send cycles (pinned seed)\n",
            "mpi ",
            ranks.as_str(),
            "\n",
        ],
        rounds,
        widest,
    );
    let mut truth = 0usize;
    // Blocked sends from the previous episode: (blocked_src, waiter).
    let mut pending: Vec<(usize, usize)> = Vec::with_capacity(cycle_len);
    let mut procs: Vec<usize> = Vec::with_capacity(n_ranks);
    for _round in 0..rounds {
        // Resolve the previous episode's blocked messages (timeout).
        for (src, dst) in pending.drain(..) {
            let (src, dst) = (Decimal::of(src), Decimal::of(dst));
            mpi_message(&mut text, dst.as_str(), TIMEOUT_RECV, src.as_str());
        }
        text.push_str(walk);
        if rng.gen_bool(deadlock_prob) {
            procs.clear();
            procs.extend(0..n_ranks);
            rng.shuffle(&mut procs);
            procs.truncate(cycle_len);
            for (i, &p) in procs.iter().enumerate() {
                let nxt = procs[(i + 1) % procs.len()];
                let (src, dst) = (Decimal::of(p), Decimal::of(nxt));
                mpi_message(&mut text, src.as_str(), BLOCKING_SEND, dst.as_str());
                pending.push((p, nxt));
            }
            truth += 1;
        }
        text.push_str(ring);
    }
    Recording {
        text,
        truth,
        n_traces: n_ranks,
    }
}

/// What follows the rank on a local step's MPI line.
const WALK_STEP: &str = " local walk_step\n";
/// The pieces around the peer on each kind of MPI message line.
const TIMEOUT_RECV: [&str; 2] = [" recv ", " blk\n"];
const BLOCKING_SEND: [&str; 2] = [" bsend ", " blk\n"];
const RING_SEND: [&str; 2] = [" send ", " w\n"];
const RING_RECV: [&str; 2] = [" recv ", " w\n"];

/// An MPI message line: the rank, its operation, the peer, the tag.
fn mpi_message(o: &mut impl Out, rank: &str, [op, tag]: [&str; 2], peer: &str) {
    o.puts(&[rank, op, peer, tag]);
}

/// Each rank's `walk_steps` local steps, rank by rank.
fn mpi_walk(o: &mut impl Out, n_ranks: usize, walk_steps: usize) {
    for p in 0..n_ranks {
        let p = Decimal::of(p);
        for _ in 0..walk_steps {
            o.puts(&[p.as_str(), WALK_STEP]);
        }
    }
}

/// The buffered exchange around the ring: every rank sends to its
/// successor, then every successor receives.
fn mpi_ring(o: &mut impl Out, n_ranks: usize) {
    for p in 0..n_ranks {
        let (src, dst) = (Decimal::of(p), Decimal::of((p + 1) % n_ranks));
        mpi_message(o, src.as_str(), RING_SEND, dst.as_str());
    }
    for p in 0..n_ranks {
        let (src, dst) = (Decimal::of(p), Decimal::of((p + 1) % n_ranks));
        mpi_message(o, dst.as_str(), RING_RECV, src.as_str());
    }
}

/// Agent-session hand-off recording with injected read-your-writes
/// breaches (format `session`).
///
/// A `main` session serves `tasks` requests; each spawns a `task-{i}`
/// worker session that reads the request's key. Correct rounds write
/// the key *before* the spawn, so the hand-off (`from` edge) carries
/// the write to the worker. With probability `breach_prob` the write
/// lands *after* the spawn — the worker's read is concurrent with the
/// write it should have seen. The curated read-your-writes pattern
/// (`Spawn -> Read && Write || Read`, keys correlated through `$k`)
/// reports exactly `truth` matches.
#[must_use]
pub fn session_ryw(seed: u64, tasks: usize, breach_prob: f64) -> Recording {
    let mut rng = Rng::seed_from_u64(seed);
    // A breach moves a line, it adds none: the widest task is the last.
    let last = Decimal::of(tasks.saturating_sub(1));
    let widest = bytes_of(|o| session_task(o, last.as_str(), false));
    let mut text = recording_buffer(
        &["# agent-session hand-off recording with stale-read breaches (pinned seed)\n"],
        tasks,
        widest,
    );
    let mut truth = 0usize;
    for i in 0..tasks {
        let breach = rng.gen_bool(breach_prob);
        session_task(&mut text, Decimal::of(i).as_str(), breach);
        truth += usize::from(breach);
    }
    Recording {
        text,
        truth,
        n_traces: tasks + 1,
    }
}

/// Task `i`'s six session lines; with a `breach` the key is written
/// after the spawn instead of before it.
fn session_task(o: &mut impl Out, i: &str, breach: bool) {
    let put = [
        r#"{"session":"main","kind":"tool_call","op":"kv_put","attr":"cart-"#,
        i,
        "\"}\n",
    ];
    o.puts(&[
        r#"{"session":"main","kind":"message","id":"m"#,
        i,
        r#"","attr":"req-"#,
        i,
        "\"}\n",
    ]);
    if !breach {
        o.puts(&put);
    }
    o.puts(&[
        r#"{"session":"main","kind":"spawn","target":"task-"#,
        i,
        r#"","id":"sp"#,
        i,
        "\"}\n",
    ]);
    if breach {
        // The breach: the session keeps writing after handing off.
        o.puts(&put);
    }
    o.puts(&[
        r#"{"session":"task-"#,
        i,
        r#"","kind":"message","from":"sp"#,
        i,
        "\"}\n",
    ]);
    o.puts(&[
        r#"{"session":"task-"#,
        i,
        r#"","kind":"tool_call","op":"kv_get","attr":"cart-"#,
        i,
        "\"}\n",
    ]);
    o.puts(&[
        r#"{"session":"task-"#,
        i,
        concat!(r#"","kind":"tool_result","op":"render_done"}"#, "\n"),
    ]);
}

/// Saga with occasionally missing compensation as an OTLP recording
/// (format `otlp`).
///
/// Each order runs the saga `order_begin` → `debit` → `ship` →
/// `order_confirmed` across three services. With probability
/// `fail_prob` the debit fails (`debit_failed`); the correct reaction
/// is `order_cancelled`, but with probability `skip_prob` the
/// confirmation path runs anyway — a `debit_failed` span causally
/// precedes `order_confirmed` for the same order. The curated
/// saga-compensation pattern (`Fail -> Confirm`, orders correlated
/// through `$o`) reports exactly `truth` matches.
#[must_use]
pub fn saga_otlp(seed: u64, orders: usize, fail_prob: f64, skip_prob: f64) -> Recording {
    let mut rng = Rng::seed_from_u64(seed);
    // The widest order: the last one, failed and confirmed anyway, with
    // the largest stamps.
    let last = Decimal::of(orders.saturating_sub(1));
    let widest = bytes_of(|o| {
        let mut t = (4 * orders) as u64;
        saga_order(o, last.as_str(), &mut t, SagaPath::Skipped);
    });
    let mut text = recording_buffer(
        &["# order-saga recording with missed compensations (pinned seed)\n"],
        orders,
        widest,
    );
    let mut t = 0u64;
    let mut truth = 0usize;
    for i in 0..orders {
        let path = if !rng.gen_bool(fail_prob) {
            SagaPath::Confirmed
        } else if rng.gen_bool(skip_prob) {
            truth += 1;
            SagaPath::Skipped
        } else {
            SagaPath::Cancelled
        };
        saga_order(&mut text, Decimal::of(i).as_str(), &mut t, path);
    }
    Recording {
        text,
        truth,
        n_traces: 3,
    }
}

/// How an order's saga ends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SagaPath {
    /// The debit succeeds and the order ships.
    Confirmed,
    /// The debit fails and is compensated.
    Cancelled,
    /// The debit fails and the order ships anyway — the violation.
    Skipped,
}

/// Order `i`'s spans along `path`.
fn saga_order(o: &mut impl Out, i: &str, t: &mut u64, path: SagaPath) {
    let order = ["order-", i];
    let mut span = |service, prefix, name, parent: &[&str]| {
        otlp_span(o, &[service], &[prefix, i], name, tick(t), parent, &order);
    };
    let debit = if path == SagaPath::Confirmed {
        "debit_ok"
    } else {
        "debit_failed"
    };
    span("orders", "o", "order_begin", &[]);
    span("payments", "p", debit, &["o", i]);
    if path == SagaPath::Cancelled {
        // Correct compensation path.
        span("orders", "c", "order_cancelled", &["p", i]);
        return;
    }
    span("shipping", "s", "ship", &["p", i]);
    span("orders", "d", "order_confirmed", &["s", i]);
}

/// Sized MPI workload for the soak bench: rounds of
/// [`mpi_deadlock`]-style traffic until at least `target_events`
/// events have been generated. `truth` counts injected deadlock
/// episodes (so the soak's monitor has real verdicts to report).
#[must_use]
pub fn mpi_soak(seed: u64, n_ranks: usize, target_events: usize) -> Recording {
    // Events per round: walk(2/rank) + ring send+recv (2/rank) +
    // occasional episode traffic. Compute the round count directly so
    // the generator is O(target) with no trial parses.
    let per_round = n_ranks * 4;
    let rounds = target_events.div_ceil(per_round.max(1)).max(1);
    mpi_deadlock(seed, n_ranks, rounds, 3.min(n_ranks), 0.002, 2)
}

/// The pinned-parameter recordings committed under `examples/fixtures/`.
///
/// One function per committed fixture file, so the regeneration test,
/// the byte-compare cross-checks, the examples, and the transparency
/// differential all agree on the exact seeds. Regenerate the files
/// with `cargo test --test adapters_corpus -- --ignored regenerate`.
pub mod fixtures {
    use super::Recording;

    /// Cycle length used by the committed MPI deadlock fixture (and
    /// its `deadlock_cycle.pat`, from `random_walk::cycle_pattern`).
    pub const CYCLE_LEN: usize = 3;

    /// `examples/fixtures/mpi_deadlock.trace`.
    #[must_use]
    pub fn mpi_deadlock() -> Recording {
        super::mpi_deadlock(7, 8, 40, CYCLE_LEN, 0.15, 2)
    }

    /// `examples/fixtures/zookeeper_spans.jsonl`.
    #[must_use]
    pub fn zookeeper() -> Recording {
        super::zookeeper_otlp(2013, 4, 12, 0.15)
    }

    /// `examples/fixtures/saga_spans.jsonl`.
    #[must_use]
    pub fn saga() -> Recording {
        super::saga_otlp(5, 40, 0.3, 0.5)
    }

    /// `examples/fixtures/session_handoff.jsonl`.
    #[must_use]
    pub fn session_handoff() -> Recording {
        super::session_ryw(3, 10, 0.3)
    }

    /// `examples/fixtures/saga_compensation.pat` — fires when a failed
    /// debit nevertheless causally precedes the order's confirmation
    /// (the compensation that should have separated them never ran).
    /// `$o` correlates the two spans to the same order.
    pub const SAGA_PATTERN: &str = "\
Fail    := [*, debit_failed, $o];\n\
Confirm := [*, order_confirmed, $o];\n\
pattern := Fail -> Confirm;\n";

    /// `examples/fixtures/read_your_writes.pat` — fires when a spawned
    /// session reads a key whose write is *concurrent* with the read:
    /// the hand-off reached the child (`Spawn -> Read`) but the write
    /// it should have carried did not (`Write || Read`). `$b` chains
    /// the spawn's target trace to the reader's process position, like
    /// the MPI cycle patterns chain send destinations; `$k` correlates
    /// the key. The `Read $r;` event variable makes both constraints
    /// talk about the *same* read occurrence (a bare class name used
    /// twice would denote two independent occurrences).
    pub const RYW_PATTERN: &str = "\
Spawn := [$a, spawn, $b];\n\
Write := [$a, kv_put, $k];\n\
Read  := [$b, kv_get, $k];\n\
Read $r;\n\
pattern := (Spawn -> $r) && (Write || $r);\n";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_parse_clean() {
        let a = zookeeper_otlp(7, 4, 6, 0.2);
        let b = zookeeper_otlp(7, 4, 6, 0.2);
        assert_eq!(a.text, b.text);
        assert_eq!(a.truth, b.truth);
        let out = a.parse("otlp");
        assert_eq!(out.n_traces, a.n_traces);

        let m = mpi_deadlock(11, 8, 30, 3, 0.2, 2);
        assert_eq!(m.text, mpi_deadlock(11, 8, 30, 3, 0.2, 2).text);
        let out = m.parse("mpi");
        assert_eq!(out.n_traces, 8);
        assert!(m.truth > 0, "seed must inject at least one episode");
        let blocks = out
            .events
            .iter()
            .filter(|e| e.ty() == "mpi_block_send")
            .count();
        assert_eq!(blocks, m.truth * 3);

        let s = session_ryw(3, 12, 0.3);
        assert_eq!(s.text, session_ryw(3, 12, 0.3).text);
        let out = s.parse("session");
        assert_eq!(out.n_traces, 13);
        assert!(s.truth > 0);

        let g = saga_otlp(5, 20, 0.4, 0.5);
        assert_eq!(g.text, saga_otlp(5, 20, 0.4, 0.5).text);
        let out = g.parse("otlp");
        assert_eq!(out.n_traces, 3);
        assert!(g.truth > 0);
    }

    #[test]
    fn decimals_match_display_at_every_width() {
        let mut n = 1u64;
        for _ in 0..20 {
            for v in [n - 1, n, n + 1, n.saturating_mul(10) - 1] {
                assert_eq!(Decimal::new(v).as_str(), v.to_string());
            }
            n = n.saturating_mul(10);
        }
        assert_eq!(Decimal::new(u64::MAX).as_str(), u64::MAX.to_string());
    }

    #[test]
    fn soak_recording_hits_its_event_target() {
        let r = mpi_soak(1, 8, 5_000);
        let out = r.parse("mpi");
        assert!(out.events.len() >= 5_000, "{} events", out.events.len());
        assert!(out.events.len() < 20_000, "not wildly oversized");
    }
}
