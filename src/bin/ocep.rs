//! `ocep` — command-line front end for the OCEP framework.
//!
//! Every subcommand, with its arguments and flags, is listed once in
//! [`USAGE`] (printed by `ocep --help` and after a usage error); the flags
//! each one accepts are declared in [`SUBCOMMANDS`].

use ocep_repro::ocep::{
    GuardConfig, IngestStats, Match, MetricsSnapshot, Monitor, MonitorConfig, MonitorSet, ObsLevel,
    OverflowPolicy, SubsetPolicy,
};
use ocep_repro::pattern::{Constraint, LeafId, PairRel, Pattern};
use ocep_repro::poet::dump;
use ocep_repro::simulator::workloads::{atomicity, message_race, random_walk, replicated_service};

/// `print!` and `println!` for the whole binary: a closed stdout (`ocep …
/// | head -1`) ends the output, not the run, so the exit code stays the
/// run's own instead of std's broken-pipe panic.
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}
macro_rules! println {
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::Write::write_fmt(&mut std::io::stdout(), args) {
        let closed = e.kind() == std::io::ErrorKind::BrokenPipe;
        assert!(closed, "failed printing to stdout: {e}");
    }
}

const USAGE: &str = "\
ocep — online causal-event-pattern matching (ICDCS 2013 reproduction)

USAGE:
    ocep validate <pattern-file>
    ocep check <pattern-file> <dump-file> [--per-arrival] [--no-dedup] [--stats]
               [--metrics FILE]
    ocep check --resume <ckpt-file> <dump-file> [--stats] [--metrics FILE]
    ocep stats <pattern-file> <dump-file> [--per-arrival] [--no-dedup]
               [--metrics FILE]
    ocep stats <ckpt-file>
    ocep stats --addr HOST:PORT
    ocep checkpoint <pattern-file> <dump-file> <out-ckpt> [--events N]
               [--per-arrival] [--no-dedup] [--obs off|full]
    ocep record-demo <deadlock|race|atomicity|ordering> <out-file> [--seed N]
    ocep info <dump-file>
    ocep show <dump-file> [--limit N]
    ocep analyze <pattern-file> <dump-file>
    ocep slice <dump-file> <out-file> <T0,T3,...>
    ocep fuzz [--seed N] [--cases N] [--smoke] [--dump-dir DIR]
              [--obs off|full] [--metrics FILE]
    ocep fuzz --faults [--seed N] [--cases N] [--smoke]
    ocep fuzz --replay <dir>
    ocep sim [--seed N] [--seeds N] [--clients N] [--tails N] [--events N]
             [--faults] [--crashes N] [--sabotage] [--dump-dir DIR]
             [--wal-sabotage]
    ocep sim --replay <dir>
    ocep serve <pattern-file> --traces N [--addr HOST:PORT] [--port-file FILE]
               [--window N] [--wal DIR] [--durability none|batch|strict]
               [--checkpoint-every N] [--per-arrival] [--no-dedup]
               [--guard-capacity N] [--overflow POLICY] [--obs off|full]
               [--metrics FILE]
    ocep send <addr> <dump-file> [--batch N] [--name S] [--shutdown]
    ocep ingest <format> <recording> [--pattern FILE]... [--batch N]
               [--per-arrival] [--no-dedup] [--guard-capacity N]
               [--overflow POLICY] [--metrics FILE]
    ocep ingest <format> <recording> --addr HOST:PORT [--batch N] [--name S]
               [--shutdown]
    ocep tail <addr> [--once] [--name S] [--from LSN] [--tenant T]
    ocep register <addr> <tenant> <pattern-file>... --traces N [--unregister]
    ocep replay <pattern-file> <wal-dir> [--traces N] [--per-arrival] [--no-dedup]
               [--guard-capacity N] [--overflow POLICY] [--metrics FILE]

EXIT CODES:
    0  success; `check` found no pattern match
    1  a pattern match (violation) was found, or fuzzing found failures
    2  ingestion degraded: the admission guard quarantined or lost events
    3  usage or runtime error (bad flags, unreadable files, corrupt input)

`--per-arrival` reports every match, not one representative subset;
`--no-dedup` stores the events the §VI dedup would suppress. `serve`,
`ingest` and `replay` read untrusted input through the causal admission
guard: duplicated and reordered events are repaired via their vector
timestamps, malformed events are quarantined into a structured fault
stream, and the reorder buffer is bounded by --guard-capacity N with an
--overflow POLICY (reject|drop-oldest|flush-degraded). A reloaded dump
is already in causal order, so `check`, `stats` and `checkpoint` run
no guard.

`checkpoint` runs a monitor over (a prefix of) a dump and serializes its
full matching state; `check --resume` restores it and continues over the
remainder of the dump, producing the same verdicts as an uninterrupted
run. The checkpoint carries the monitor configuration, so `--resume`
takes no other monitor flag. Earlier versions' checkpoints, guarded
ones included, still resume.

`--metrics FILE` writes the final metrics snapshot — Prometheus text
format, or JSON when FILE ends in .json — collected at full
observability: exact counters and search introspection, per-stage
latency histograms timed on one arrival in 16, and a recent-arrival
ring (see docs/OBSERVABILITY.md). `--obs off|full` sets the level where
it is kept: in the `checkpoint` file, in the log checkpoints of `serve
--wal`, and for the matcher path `fuzz` checks. `stats` runs a dump at full
observability and pretty-prints the snapshot; given a single
checkpoint file it prints the metrics embedded in it.

`fuzz` generates seeded random (pattern, execution) cases and checks the
online monitor against the exhaustive oracle and the naive baseline
(agreement, k*n subset bound, coverage, linearization invariance). A
failing case is shrunk and dumped as a replayable directory; `--replay`
re-runs one deterministically. `fuzz --faults` additionally perturbs
each stream with seeded duplicates, reorders, drops, and corrupt-clock
events, and checks the guarded monitor differentially against the clean
run. `--smoke` is the fixed-size CI run.

`sim` drives the whole serve stack — the real `EngineCore` behind
`ocep serve` — inside a seeded discrete-event simulator in virtual time
(docs/SIMULATION.md): N scripted clients over simulated transports,
optional wire faults (`--faults`: corruption, duplication, reorder,
partitions, slow tails whose full queues drop verdicts), and
`--crashes N` mid-stream daemon kills. A run with crashes serves through
an on-disk durable log, and each kill is SIGKILL-like (no checkpoint, no
drain): the restart recovers by replaying the log, as `serve --wal`
does. Every run is executed twice and must be bit-reproducible, and its
journal is replayed through an in-process oracle that must agree
bit-for-bit on verdicts, subsets, ingest accounting, and the checkpoint
bytes of each dying engine. `--seeds N` sweeps N consecutive seeds from
`--seed`; a failing seed is shrunk to a minimal config and dumped under
`--dump-dir` for `sim --replay`. `--sabotage` drops one journaled
delivery to prove the oracle catches divergence; `--wal-sabotage`
silently drops one log append to prove the oracle catches a recovery
that lost an event.

A pattern file holds a pattern program, e.g.:

    A := [*, enter_method, *];
    B := [*, enter_method, *];
    pattern := A || B;

A dump file is the POET trace format written by `record-demo` or by
`ocep_poet::dump::dump_to_file`.

`serve` runs the monitor as a network daemon speaking the OCWP binary
protocol (docs/WIRE.md): producers stream events with `send`, consumers
follow verdicts with `tail`, and `stats --addr` queries a live server.
The daemon exits on a client `--shutdown`, reporting with `check`-style
exit codes (1 match, 2 degraded). `--port-file` records the bound
address, which is how scripts discover an ephemeral
`--addr 127.0.0.1:0` port. A tail that falls a full queue behind loses
the newest verdicts (counted in the metrics); `tail --from LSN` re-reads
them from a `--wal` daemon.

`serve --wal DIR` makes serving crash-safe (docs/DURABILITY.md), and
the log is the only state a restarted daemon reads: every admitted
delivery is appended to a hash-chained segmented log before it reaches
the monitors, fsynced per `--durability` (none|batch|strict; default
batch = group commit). Graceful drain anchors a checkpoint in the log;
`--checkpoint-every N` (which needs `--wal`) anchors one every N
ingested events too. On restart the daemon verifies the log, truncates
a torn tail at the first bad record, replays from the newest
log-anchored checkpoint, and resumes named `send` sessions at their
durable offset so clients never re-send. `tail --from LSN` replays the
retained verdict backlog from a log offset; `replay` matches a pattern
file — even one the server never ran — over a log after the fact.

`ingest` turns an external recording into an admissible event stream
via the `crates/adapters` readers (docs/ADAPTERS.md): `otlp` reads
JSON-lines span exports, `mpi` reads point-to-point MPI traces, and
`session` reads replayable agent-session recordings. Causality is
synthesized from the recording's own structure (parent/link edges,
send/recv matching, spawn/`from` references) and every event enters
through the same admission guard as live traffic. Offline, each
`--pattern FILE` becomes a monitor named by the file's stem; with
`--addr` the events stream to a running daemon exactly like `send`
(same resume, batch, and exit-code behaviour). A malformed recording
is a line-diagnosed usage error (exit 3), never a panic.

`register` adds or removes (`--unregister`) patterns for a tenant on a
live daemon; the server monitors each as `{tenant}/{name}` beside its
own pattern, logs the change under `--wal` so a restart restores it,
and `tail --tenant T` scopes a subscription to that namespace.

A flag the subcommand does not take, one missing its value, or one the
chosen mode cannot act on (say `--per-arrival` with `--resume`, or
`--metrics` with `ingest --addr`) is a usage error (exit 3) naming the
flag.
";

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(3);
        }
    }
}

/// One subcommand and the flags it honors, as space-separated lists.
struct Sub {
    name: &'static str,
    valued: &'static str,
    switches: &'static str,
}

fn listed(flags: &str, flag: &str) -> bool {
    flags.split(' ').any(|f| f == flag)
}

const fn sub(name: &'static str, valued: &'static str, switches: &'static str) -> Sub {
    Sub {
        name,
        valued,
        switches,
    }
}

/// Every subcommand with the flags that take a value and its bare
/// switches — the one place a flag is declared. A flag listed here acts
/// in at least one of the subcommand's modes; [`Args::only`] refuses it
/// in the others.
const SUBCOMMANDS: &[Sub] = &[
    sub("validate", "", ""),
    sub(
        "check",
        "--resume --metrics",
        "--per-arrival --no-dedup --stats",
    ),
    sub("stats", "--addr --metrics", "--per-arrival --no-dedup"),
    sub("checkpoint", "--events --obs", "--per-arrival --no-dedup"),
    sub("record-demo", "--seed", ""),
    sub("info", "", ""),
    sub("show", "--limit", ""),
    sub("analyze", "", ""),
    sub("slice", "", ""),
    sub(
        "fuzz",
        "--seed --cases --dump-dir --replay --obs --metrics",
        "--smoke --faults",
    ),
    sub(
        "sim",
        "--seed --seeds --clients --tails --events --crashes --dump-dir --replay",
        "--faults --sabotage --wal-sabotage",
    ),
    sub(
        "serve",
        "--traces --addr --port-file --window --wal --durability --checkpoint-every \
         --guard-capacity --overflow --obs --metrics",
        "--per-arrival --no-dedup",
    ),
    sub("register", "--traces", "--unregister"),
    sub("send", "--batch --name", "--shutdown"),
    sub(
        "ingest",
        "--pattern --batch --addr --name --guard-capacity --overflow --metrics",
        "--shutdown --per-arrival --no-dedup",
    ),
    sub("tail", "--name --from --tenant", "--once"),
    sub(
        "replay",
        "--traces --guard-capacity --overflow --metrics",
        "--per-arrival --no-dedup",
    ),
];

/// A subcommand's command line, parsed once against its [`Sub`].
struct Args<'a> {
    pos: Vec<&'a str>,
    /// Every flag in command-line order, with its value if it takes one.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` into positionals and flags.
    ///
    /// # Errors
    ///
    /// A flag `sub` does not declare, or a valued one without a value.
    fn parse(sub: &Sub, args: &'a [String]) -> Result<Args<'a>, String> {
        let mut out = Args {
            pos: Vec::new(),
            flags: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(a) = rest.next() {
            if !a.starts_with("--") {
                out.pos.push(a);
            } else if listed(sub.switches, a) {
                out.flags.push((a, None));
            } else if listed(sub.valued, a) {
                let value = rest
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag '{a}' of 'ocep {}' needs a value", sub.name))?;
                out.flags.push((a, Some(value)));
            } else {
                return Err(format!("unknown flag '{a}' for 'ocep {}'", sub.name));
            }
        }
        Ok(out)
    }

    /// Refuses the first flag given that is not `accepted` in `mode`:
    /// the modes of a subcommand share its [`Sub`] lists, but not every
    /// flag acts in each.
    fn only(&self, mode: &str, accepted: &str) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !listed(accepted, f)) {
            Some((flag, _)) => Err(format!("'{flag}' cannot be combined with {mode}")),
            None => Ok(()),
        }
    }

    /// The `i`-th positional argument, or "missing {what}".
    fn arg(&self, i: usize, what: &str) -> Result<&'a str, String> {
        self.pos
            .get(i)
            .copied()
            .ok_or_else(|| format!("missing {what}"))
    }

    /// Every value given for `flag`, in order.
    fn vals<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .filter_map(|(_, v)| *v)
    }

    fn val(&self, flag: &str) -> Option<&'a str> {
        self.vals(flag).next()
    }

    fn has(&self, switch: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == switch)
    }

    /// `flag`'s value parsed, or "bad {flag} '{value}'".
    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.val(flag)
            .map(|s| s.parse().map_err(|_| format!("bad {flag} '{s}'")))
            .transpose()
    }
}

fn run() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = argv.split_first().ok_or("missing command")?;
    if matches!(cmd.as_str(), "--help" | "-h") {
        print!("{USAGE}");
        return Ok(0);
    }
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name == cmd)
        .ok_or_else(|| format!("unknown command '{cmd}'"))?;
    let args = &Args::parse(sub, rest)?;
    match sub.name {
        "validate" => validate(args.arg(0, "pattern file")?).map(|()| 0),
        "check" => check(args),
        "stats" => stats_cmd(args).map(|()| 0),
        "checkpoint" => checkpoint_cmd(args).map(|()| 0),
        "record-demo" => record_demo(args).map(|()| 0),
        "info" => info(args.arg(0, "dump file")?).map(|()| 0),
        "show" => show(args).map(|()| 0),
        "analyze" => analyze_cmd(args).map(|()| 0),
        "slice" => slice_cmd(args).map(|()| 0),
        "fuzz" => fuzz_cmd(args),
        "sim" => sim_cmd(args),
        "serve" => serve_cmd(args),
        "register" => register_cmd(args),
        "send" => send_cmd(args),
        "ingest" => ingest_cmd(args),
        "tail" => tail_cmd(args),
        "replay" => replay_cmd(args),
        other => unreachable!("subcommand '{other}' is declared but not dispatched"),
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read pattern file '{path}': {e}"))
}

/// A pattern file's source and the pattern it parses to.
fn read_pattern(path: &str) -> Result<(String, Pattern), String> {
    let src = read_source(path)?;
    let pattern = Pattern::parse(&src).map_err(|e| e.to_string())?;
    Ok((src, pattern))
}

/// The name a pattern file's monitor goes by: the file's stem.
fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("pattern")
        .to_owned()
}

fn validate(path: &str) -> Result<(), String> {
    let (_, p) = read_pattern(path)?;
    println!("pattern: {}", p.program().pattern);
    println!("\nevents ({}):", p.n_leaves());
    for leaf in p.leaves() {
        let term = if p.terminating_leaves().contains(&leaf.id()) {
            "  [terminating]"
        } else {
            ""
        };
        println!(
            "  {}  (class {}){}",
            leaf.display_name(),
            leaf.class_name(),
            term
        );
    }
    if !p.var_names().is_empty() {
        println!("\nattribute variables: {}", p.var_names().join(", "));
    }
    let name = |l: LeafId| p.leaves()[l.as_usize()].display_name();
    println!("\nrelations:");
    for (i, a) in p.leaves().iter().enumerate() {
        for b in &p.leaves()[i + 1..] {
            let (a, b) = (a.id(), b.id());
            match p.rel(a, b) {
                Some(PairRel::Before) => println!("  {} -> {}", name(a), name(b)),
                Some(PairRel::After) => println!("  {} -> {}", name(b), name(a)),
                Some(PairRel::Concurrent) => println!("  {} || {}", name(a), name(b)),
                None => {}
            }
        }
    }
    let names = |ls: &[LeafId]| ls.iter().map(|l| name(*l)).collect::<Vec<_>>().join(",");
    if !p.constraints().is_empty() {
        println!("\nconstraints:");
    }
    for c in p.constraints() {
        match c {
            Constraint::Partner { send, recv } => println!("  {} <> {}", name(*send), name(*recv)),
            Constraint::Lim { from, to } => println!("  {} ~> {}", name(*from), name(*to)),
            Constraint::WeakPrecede { from, to } => {
                println!("  {{{}}} -> {{{}}} (weak)", names(from), names(to));
            }
            Constraint::Entangled { left, right } => {
                println!("  {{{}}} <-> {{{}}}", names(left), names(right));
            }
        }
    }
    println!("\nok: pattern is valid");
    Ok(())
}

/// The observability level `--obs` names (off when the subcommand has
/// no `--obs`), raised to full when `--metrics` asks for an export, and
/// the export path, if any.
fn obs_flags(args: &Args) -> Result<(ObsLevel, Option<String>), String> {
    let mut obs = match args.val("--obs") {
        Some(s) => {
            ObsLevel::from_name(s).ok_or_else(|| format!("bad --obs '{s}' (expected off|full)"))?
        }
        None => ObsLevel::Off,
    };
    let metrics_path = args.val("--metrics").map(str::to_owned);
    if metrics_path.is_some() && !obs.enabled() {
        obs = ObsLevel::Full;
    }
    if obs.enabled() {
        // Process-wide vector-clock op counters ride along with any
        // enabled level (they are gated separately because they are
        // global, not per-monitor).
        ocep_repro::vclock::ops::enable(true);
    }
    Ok((obs, metrics_path))
}

/// Writes a metrics snapshot to `path`: the std-only JSON rendering when
/// the path ends in `.json`, the Prometheus text format otherwise.
fn write_metrics(path: &str, snapshot: &MetricsSnapshot) -> Result<(), String> {
    let body = if path.ends_with(".json") {
        format!("{}\n", snapshot.to_json())
    } else {
        snapshot.to_prometheus()
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write metrics to '{path}': {e}"))?;
    eprintln!("metrics written to {path}");
    Ok(())
}

/// The matching configuration `--per-arrival` and `--no-dedup` ask
/// for, collecting at `obs`.
fn monitor_config(args: &Args, obs: ObsLevel) -> MonitorConfig {
    MonitorConfig {
        dedup: !args.has("--no-dedup"),
        policy: if args.has("--per-arrival") {
            SubsetPolicy::PerArrival
        } else {
            SubsetPolicy::Representative
        },
        obs,
    }
}

/// The admission guard `--guard-capacity` and `--overflow` configure
/// for the subcommands that read untrusted input (`serve`, `ingest`,
/// `replay`).
fn guard_config(args: &Args) -> Result<GuardConfig, String> {
    let mut guard = GuardConfig::default();
    if let Some(capacity) = args.num("--guard-capacity")? {
        guard.capacity = capacity;
    }
    if let Some(policy) = args.val("--overflow") {
        guard.overflow = OverflowPolicy::from_name(policy).ok_or_else(|| {
            format!("bad --overflow '{policy}' (expected reject|drop-oldest|flush-degraded)")
        })?;
    }
    Ok(guard)
}

/// The name of the one pattern in the set `check` and `stats` run.
const PATTERN: &str = "pattern";

/// An unguarded set of one pattern: a reloaded dump is already in a
/// clean causal order.
fn single_set(pattern: Pattern, n_traces: usize, config: MonitorConfig) -> MonitorSet {
    let mut set = MonitorSet::new(n_traces);
    set.add_with_config(PATTERN, pattern, config);
    set
}

/// Restores a checkpoint file as a set, with the number of dump events
/// it had consumed. A set checkpoint (what `checkpoint` wrote under a
/// guard flag in earlier versions) is anchored at that position; a
/// monitor checkpoint counted it itself — and one written when a
/// monitor could own a guard brings the guard along, which goes in
/// front of the set.
fn load_checkpoint(path: &str) -> Result<(MonitorSet, usize), String> {
    use ocep_repro::ocep::checkpoint;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read checkpoint '{path}': {e}"))?;
    let err = |e| format!("cannot restore checkpoint '{path}': {e}");
    if bytes.starts_with(b"OCKS") {
        let loaded = checkpoint::load_set_at(&bytes).map_err(err)?;
        if let Some((name, why)) = loaded.refused.first() {
            return Err(format!(
                "cannot restore checkpoint '{path}': monitor {name}: {why}"
            ));
        }
        return Ok((loaded.set, loaded.wal_lsn as usize));
    }
    let loaded = checkpoint::load_at(&bytes).map_err(err)?;
    let position = loaded.monitor.stats().events as usize;
    let mut set = MonitorSet::new(loaded.monitor.n_traces());
    set.insert_monitor(PATTERN, loaded.monitor);
    if let Some(guard) = loaded.guard {
        set.install_guard(guard);
    }
    Ok((set, position))
}

/// The exit code of a run whose set may sit behind an admission guard
/// (`ingest`, `replay`, `serve`, and `check` resuming a guarded
/// checkpoint): 2, with a warning, when the guard quarantined or lost
/// events; else 1 when a pattern matched; else 0.
fn exit_code(ingest: &IngestStats, matched: bool) -> i32 {
    if ingest.is_degraded() {
        eprintln!(
            "warning: ingestion degraded ({} quarantined, {} overflow-rejected, \
             {} overflow-dropped, {} degraded flushes) — verdicts may be incomplete",
            ingest.quarantined(),
            ingest.overflow_rejected,
            ingest.overflow_dropped,
            ingest.degraded_flushes
        );
        return 2;
    }
    i32::from(matched)
}

/// Prints `match[monitor]: …` for each verdict; returns how many.
fn print_verdicts<'a>(verdicts: impl IntoIterator<Item = &'a (String, Match)>) -> usize {
    let mut n = 0;
    for (monitor, m) in verdicts {
        println!("match[{monitor}]: {m}");
        n += 1;
    }
    n
}

fn load_dump(path: &str) -> Result<ocep_repro::poet::PoetServer, String> {
    dump::reload_from_file(path).map_err(|e| format!("cannot reload '{path}': {e}"))
}

fn check(args: &Args) -> Result<i32, String> {
    let show_stats = args.has("--stats");
    let resume = args.val("--resume");
    if resume.is_some() {
        // The checkpoint carries the monitor's configuration.
        args.only("--resume", "--resume --stats --metrics")?;
    }
    let (obs, metrics_path) = obs_flags(args)?;

    let (mut set, server, skip) = if let Some(ckpt_path) = resume {
        let dump_path = args.arg(0, "dump file")?;
        let (mut set, skip) = load_checkpoint(ckpt_path)?;
        if metrics_path.is_some() {
            set.enable_obs();
        }
        println!(
            "resumed from {ckpt_path}: {} events already observed, {} matches found",
            skip,
            set.total_stats().matches_found
        );
        (set, load_dump(dump_path)?, skip)
    } else {
        let (_, pattern) = read_pattern(args.arg(0, "pattern file")?)?;
        let server = load_dump(args.arg(1, "dump file")?)?;
        let config = monitor_config(args, obs);
        (single_set(pattern, server.n_traces(), config), server, 0)
    };

    let mut arrivals = skip;
    let mut reported = 0usize;
    for e in server.store().iter_arrival().skip(skip) {
        arrivals += 1;
        for (_, m) in set.observe_raw(e) {
            reported += 1;
            println!("match: {m}");
        }
    }
    for (_, m) in set.flush_guard() {
        reported += 1;
        println!("match (degraded flush): {m}");
    }
    // `events` is what `check` took from the dump; the monitor counts
    // what the guard delivered to it.
    let stats = ocep_repro::ocep::MonitorStats {
        events: arrivals as u64,
        ..set.total_stats()
    };
    let ingest = set.ingest_stats();
    println!(
        "\n{} events, {} matches found, {} reported",
        stats.events, stats.matches_found, reported
    );
    if show_stats {
        if ingest == IngestStats::default() {
            println!("stats: {stats}");
        } else {
            println!("stats: {stats} {ingest}");
        }
        println!(
            "history: {} events stored, {} suppressed by dedup",
            set.iter().map(|(_, m)| m.history_size()).sum::<usize>(),
            set.iter().map(|(_, m)| m.suppressed()).sum::<usize>()
        );
    }
    if let Some(path) = &metrics_path {
        write_metrics(path, &set.metrics())?;
    }
    let code = exit_code(&ingest, stats.matches_found > 0);
    if code == 2 {
        for fault in set.take_ingest_faults() {
            eprintln!("  fault: {fault}");
        }
    }
    Ok(code)
}

/// `ocep stats` — observability front door. With a pattern and a dump,
/// runs the monitor at full collection and pretty-prints the metrics
/// snapshot; with a single checkpoint file, prints the metrics embedded
/// in it.
fn stats_cmd(args: &Args) -> Result<(), String> {
    // `stats --addr HOST:PORT` queries a live `ocep serve` daemon.
    if let Some(addr) = args.val("--addr") {
        args.only("--addr", "--addr")?;
        let mut tail = ocep_repro::net::Tail::connect(addr, "ocep-stats")
            .map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
        let (s, _) = tail
            .stats()
            .map_err(|e| format!("stats request to '{addr}' failed: {e}"))?;
        println!(
            "server {addr}:\n  admitted      {}\n  quarantined   {}\n  duplicates    {}\n  \
             matches       {}\n  connections   {}\n  data frames   {}\n  degraded      {}",
            s.admitted, s.quarantined, s.duplicates, s.matches, s.connections, s.frames, s.degraded
        );
        return Ok(());
    }
    if let [ckpt_path] = args.pos[..] {
        args.only("a checkpoint file", "")?;
        let (set, _) = load_checkpoint(ckpt_path)?;
        match set.iter().find_map(|(_, m)| m.obs_metrics()) {
            Some(m) => println!(
                "checkpoint metrics (collected at obs level {}):\n\n{}",
                m.level(),
                set.metrics().render_text()
            ),
            None => {
                println!("checkpoint holds no metrics (collected at obs level off);");
                println!("counters only:\n\n{}", set.metrics().render_text());
            }
        }
        return Ok(());
    }

    let (_, metrics_path) = obs_flags(args)?;
    ocep_repro::vclock::ops::enable(true);
    let (_, pattern) = read_pattern(args.arg(0, "pattern file (or checkpoint)")?)?;
    let server = load_dump(args.arg(1, "dump file")?)?;
    let config = monitor_config(args, ObsLevel::Full);
    let mut set = single_set(pattern, server.n_traces(), config);
    for e in server.store().iter_arrival() {
        let _ = set.observe(e);
    }
    let snapshot = set.metrics();
    print!("{}", snapshot.render_text());
    if let Some(path) = &metrics_path {
        write_metrics(path, &snapshot)?;
    }
    Ok(())
}

/// `ocep checkpoint` — run a monitor over (a prefix of) a dump and
/// serialize its full matching state for `check --resume`.
fn checkpoint_cmd(args: &Args) -> Result<(), String> {
    let (obs, _) = obs_flags(args)?;
    let pattern_path = args.arg(0, "pattern file")?;
    let dump_path = args.arg(1, "dump file")?;
    let out_path = args.arg(2, "output checkpoint file")?;
    let events_limit: Option<usize> = args.num("--events")?;

    let (src, pattern) = read_pattern(pattern_path)?;
    let server = load_dump(dump_path)?;
    let mut monitor = Monitor::with_config(pattern, server.n_traces(), monitor_config(args, obs));
    let prefix = server.store().iter_arrival();
    let observed = events_limit.map_or(prefix.len(), |n| n.min(prefix.len()));
    for e in prefix.take(observed) {
        let _ = monitor.observe(e);
    }
    let bytes = ocep_repro::ocep::save_at(&monitor, &src, 0);
    std::fs::write(out_path, &bytes).map_err(|e| format!("cannot write '{out_path}': {e}"))?;
    println!(
        "checkpointed after {observed} of {} events: {} matches found, {} history \
         events, {} bytes -> {out_path}",
        server.store().len(),
        monitor.stats().matches_found,
        monitor.history_size(),
        bytes.len()
    );
    println!("resume with: ocep check --resume {out_path} {dump_path}");
    Ok(())
}

fn record_demo(args: &Args) -> Result<(), String> {
    let which = args.arg(0, "workload name")?;
    let out = args.arg(1, "output file")?;
    let seed: u64 = args.num("--seed")?.unwrap_or(42);

    let generated = match which {
        "deadlock" => random_walk::generate(&random_walk::Params {
            seed,
            deadlock_prob: 0.05,
            ..random_walk::Params::default()
        }),
        "race" => message_race::generate(&message_race::Params {
            seed,
            ..message_race::Params::default()
        }),
        "atomicity" => atomicity::generate(&atomicity::Params {
            seed,
            bug_prob: 0.05,
            ..atomicity::Params::default()
        }),
        "ordering" => replicated_service::generate(&replicated_service::Params {
            seed,
            bug_prob: 0.05,
            ..replicated_service::Params::default()
        }),
        other => return Err(format!("unknown workload '{other}'")),
    };
    dump::dump_to_file(generated.poet.store(), out)
        .map_err(|e| format!("cannot write '{out}': {e}"))?;
    let pattern_path = format!("{out}.pattern");
    std::fs::write(&pattern_path, &generated.pattern_src)
        .map_err(|e| format!("cannot write '{pattern_path}': {e}"))?;
    println!(
        "wrote {} events over {} traces to {out}\n\
         ({} violations injected; matching pattern written to {pattern_path})",
        generated.poet.store().len(),
        generated.n_traces,
        generated.truth.len()
    );
    println!("try: ocep check {pattern_path} {out} --stats");
    Ok(())
}

/// Renders a Fig 3-style process-time diagram: one column per trace,
/// one row per event in linearization order, with `o--->` send markers
/// and `>` receive markers labelled by type.
fn show(args: &Args) -> Result<(), String> {
    let path = args.arg(0, "dump file")?;
    let limit: usize = args.num("--limit")?.unwrap_or(60);
    let server = load_dump(path)?;
    let store = server.store();
    let n = store.n_traces();
    let col = 14usize;

    let mut header = String::from("        ");
    for tr in 0..n {
        header.push_str(&format!("{:^col$}", format!("T{tr}")));
    }
    println!("{header}");
    println!("        {}", "-".repeat(col * n));

    for (row, e) in store.iter_arrival().enumerate() {
        if row >= limit {
            println!(
                "        ... ({} more events; raise with --limit)",
                store.len() - limit
            );
            break;
        }
        let mut line = format!("{:>6}  ", row + 1);
        for tr in 0..n {
            if e.trace().as_usize() == tr {
                let marker = match e.kind() {
                    ocep_repro::poet::EventKind::Send => format!("{}>", e.ty()),
                    ocep_repro::poet::EventKind::Receive => format!(">{}", e.ty()),
                    ocep_repro::poet::EventKind::Unary => e.ty().to_owned(),
                };
                let mut cell = marker;
                cell.truncate(col - 1);
                line.push_str(&format!("{cell:^col$}"));
            } else {
                line.push_str(&format!("{:^col$}", "|"));
            }
        }
        if let Some(p) = e.partner() {
            line.push_str(&format!("  (from {p})"));
        }
        println!("{line}");
    }
    Ok(())
}

/// Offline exhaustive statistics (the post-mortem companion of §II).
fn analyze_cmd(args: &Args) -> Result<(), String> {
    let (_, pattern) = read_pattern(args.arg(0, "pattern file")?)?;
    let dump_path = args.arg(1, "dump file")?;
    let server = load_dump(dump_path)?;
    let report = ocep_repro::analysis::analyze(&pattern, server.store());
    print!("{report}");
    let involved = report.involved_traces();
    if !involved.is_empty() {
        let names: Vec<String> = involved.iter().map(ToString::to_string).collect();
        println!("involved traces: {}", names.join(","));
        println!("tip: ocep slice {dump_path} <out-file> {}", names.join(","));
    }
    Ok(())
}

/// Projects a dump onto selected traces (post-mortem §II workflow).
fn slice_cmd(args: &Args) -> Result<(), String> {
    let dump_path = args.arg(0, "dump file")?;
    let out_path = args.arg(1, "output file")?;
    let spec = args.arg(2, "trace list (e.g. T0,T3)")?;
    let keep: Vec<ocep_repro::vclock::TraceId> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad trace name '{s}' (expected T<n>)"))
        })
        .collect::<Result<_, _>>()?;
    let server = load_dump(dump_path)?;
    for &t in &keep {
        if t.as_usize() >= server.n_traces() {
            return Err(format!("trace {t} is outside the dump"));
        }
    }
    let sliced = ocep_repro::analysis::slice(server.store(), &keep);
    dump::dump_to_file(sliced.store(), out_path)
        .map_err(|e| format!("cannot write '{out_path}': {e}"))?;
    println!(
        "sliced {} of {} events onto {} traces -> {out_path}",
        sliced.store().len(),
        server.store().len(),
        sliced.n_traces()
    );
    Ok(())
}

/// Differential conformance fuzzing (`ocep fuzz`).
fn fuzz_cmd(args: &Args) -> Result<i32, String> {
    use ocep_repro::conformance as conf;

    if let Some(dir) = args.val("--replay") {
        args.only("--replay", "--replay")?;
        let outcome = conf::replay_dump(std::path::Path::new(dir))
            .map_err(|e| format!("cannot replay '{dir}': {e}"))?;
        match &outcome.result {
            Err(m) => println!("replay: mismatch reproduced: {m}"),
            Ok(o) => println!(
                "replay: all invariants hold (truth={}, reported={}, detected={})",
                o.truth, o.reported, o.detected
            ),
        }
        if let Some(expected) = outcome.expected {
            println!("dump recorded invariant: {expected}");
        }
        if outcome.reproduced() {
            println!("verdict: REPRODUCED");
            return Ok(0);
        }
        println!("verdict: NOT reproduced");
        return Ok(1);
    }

    let seed: u64 = args.num("--seed")?.unwrap_or(0);
    let smoke = args.has("--smoke");
    if smoke && args.has("--cases") {
        return Err("'--cases' cannot be combined with --smoke, the fixed-size run".into());
    }

    if args.has("--faults") {
        args.only("--faults", "--faults --seed --cases --smoke")?;
        let cases: usize = if smoke {
            400
        } else {
            args.num("--cases")?.unwrap_or(200)
        };
        let cfg = conf::FaultFuzzConfig {
            seed,
            cases,
            max_failures: 5,
        };
        println!("fault-injection fuzzing: seed={seed} cases={cases}");
        let report = conf::run_fault_fuzz(&cfg, |i, result| {
            if let Err(m) = result {
                eprintln!("case {i}: MISMATCH {m}");
            } else if (i + 1) % 100 == 0 {
                eprintln!("  ... {} cases checked", i + 1);
            }
        });
        println!(
            "done: {} cases ({} degraded), {} with a match; injected {} duplicates, \
             {} reorders, {} drops, {} corrupt events; {} failures",
            report.cases_run,
            report.degraded_cases,
            report.detected,
            report.injected.duplicates,
            report.injected.reorders,
            report.injected.drops,
            report.injected.corrupt,
            report.failures.len()
        );
        for f in &report.failures {
            println!(
                "failure at case {} (case seed {:#x}, plan {}): {}",
                f.case_index, f.case_seed, f.plan, f.mismatch
            );
        }
        if report.failures.is_empty() {
            println!("guarded ingestion is transparent; all accounting exact");
            return Ok(0);
        }
        return Ok(1);
    }

    let cases: usize = if smoke {
        2000
    } else {
        args.num("--cases")?.unwrap_or(500)
    };
    let dump_dir = args
        .val("--dump-dir")
        .map(std::path::PathBuf::from)
        .or_else(|| Some(std::path::PathBuf::from("fuzz-failures")));
    let (obs, metrics_path) = obs_flags(args)?;

    let cfg = conf::FuzzConfig {
        seed,
        cases,
        dump_dir,
        max_failures: 5,
        obs,
    };
    println!("fuzzing: seed={seed} cases={cases}");
    let mut checked = 0usize;
    let report = conf::run_fuzz(&cfg, |i, result| {
        checked += 1;
        if let Err(m) = result {
            eprintln!("case {i}: MISMATCH {m}");
        } else if (i + 1) % 100 == 0 {
            eprintln!("  ... {} cases checked", i + 1);
        }
    });
    println!(
        "done: {} cases, {} with a match ({} oracle assignments total), {} failures",
        report.cases_run,
        report.detected,
        report.truth_total,
        report.failures.len()
    );
    for f in &report.failures {
        println!(
            "failure at case {} (case seed {:#x}): {}",
            f.case_index, f.case_seed, f.mismatch
        );
        println!(
            "  shrunk to {} traces / {} events, pattern:\n    {}",
            f.shrunk.n_traces,
            f.shrunk.actions.len(),
            f.shrunk.pattern_src.replace('\n', "\n    ")
        );
        match &f.dump {
            Some(dir) => println!(
                "  dump: {} (re-run: ocep fuzz --replay {})",
                dir.display(),
                dir.display()
            ),
            None => println!("  dump: <not written>"),
        }
    }
    if let (Some(path), Some(metrics)) = (&metrics_path, &report.metrics) {
        write_metrics(path, metrics)?;
    }
    if report.failures.is_empty() {
        println!("all invariants hold");
        Ok(0)
    } else {
        Ok(1)
    }
}

fn sim_cmd(args: &Args) -> Result<i32, String> {
    use ocep_repro::sim;

    if let Some(dir) = args.val("--replay") {
        args.only("--replay", "--replay")?;
        let replay = sim::replay_dump(std::path::Path::new(dir))
            .map_err(|e| format!("cannot replay '{dir}': {e}"))?;
        println!(
            "replay: seed={:#x} clients={} tails={} events={} crashes={} faults={:?}",
            replay.config.seed,
            replay.config.clients,
            replay.config.tails,
            replay.config.events,
            replay.config.crashes,
            replay.config.faults,
        );
        match &replay.outcome.mismatch {
            Some(m) => println!("replay: mismatch reproduced: {m}"),
            None => println!("replay: run agreed with its oracle"),
        }
        if replay.reproduced {
            println!("verdict: REPRODUCED");
            return Ok(0);
        }
        println!("verdict: NOT reproduced");
        return Ok(1);
    }

    let base_seed: u64 = args.num("--seed")?.unwrap_or(0);
    let seeds: usize = args.num("--seeds")?.unwrap_or(1).max(1);
    let faults = if args.has("--faults") {
        sim::FaultToggles::all()
    } else {
        sim::FaultToggles::default()
    };
    let template = sim::SimConfig {
        seed: base_seed,
        clients: args.num("--clients")?.unwrap_or(4),
        tails: args.num("--tails")?.unwrap_or(2),
        events: args.num("--events")?.unwrap_or(96),
        faults,
        crashes: args.num("--crashes")?.unwrap_or(0),
        sabotage: args.has("--sabotage"),
        wal_sabotage: args.has("--wal-sabotage"),
    };
    let dump_dir = args.val("--dump-dir").map(std::path::PathBuf::from);

    println!(
        "simulating: seeds {base_seed}..{} clients={} tails={} events={} crashes={} faults={}",
        base_seed + seeds as u64,
        template.clients,
        template.tails,
        template.events,
        template.crashes,
        if template.faults.any() { "on" } else { "off" },
    );
    let mut failures = 0usize;
    for i in 0..seeds as u64 {
        let config = sim::SimConfig {
            seed: base_seed + i,
            ..template.clone()
        };
        let out = sim::run_sim(&config);
        let again = sim::run_sim(&config);
        if out.digest != again.digest {
            return Err(format!(
                "seed {:#x}: NOT bit-reproducible ({:#018x} vs {:#018x}) — \
                 the simulator itself is broken",
                config.seed, out.digest, again.digest
            ));
        }
        match &out.mismatch {
            None => println!(
                "seed {:#x}: ok digest={:#018x} steps={} verdicts={} crashes={} \
                 injected[corrupt={} dup={} reorder={} partition={} reconnect={} stall={}]",
                config.seed,
                out.digest,
                out.steps,
                out.fingerprint.verdicts.len(),
                out.crashes,
                out.injected.corrupted,
                out.injected.duplicated,
                out.injected.reordered,
                out.injected.partitions,
                out.injected.reconnects,
                out.injected.stalls,
            ),
            Some(m) => {
                failures += 1;
                println!("seed {:#x}: MISMATCH {m}", config.seed);
                let shrunk = sim::shrink_config(&config);
                println!(
                    "  shrunk to clients={} tails={} events={} crashes={} faults={:?}",
                    shrunk.clients, shrunk.tails, shrunk.events, shrunk.crashes, shrunk.faults
                );
                if let Some(dir) = &dump_dir {
                    let failure = sim::SimFailure {
                        config: shrunk,
                        mismatch: m.clone(),
                    };
                    let dump = sim::write_dump(dir, &failure)
                        .map_err(|e| format!("cannot write dump under '{}': {e}", dir.display()))?;
                    println!(
                        "  dump: {} (re-run: ocep sim --replay {})",
                        dump.display(),
                        dump.display()
                    );
                }
            }
        }
    }
    if failures == 0 {
        println!("all {seeds} seed(s) bit-reproducible and oracle-exact");
        Ok(0)
    } else {
        println!("{failures}/{seeds} seed(s) diverged from the oracle");
        Ok(1)
    }
}

fn info(path: &str) -> Result<(), String> {
    let server = load_dump(path)?;
    let store = server.store();
    println!("dump: {path}");
    println!("traces: {}", store.n_traces());
    println!("events: {}", store.len());
    let mut by_type: std::collections::BTreeMap<String, usize> = Default::default();
    for e in store.iter_arrival() {
        *by_type.entry(e.ty().to_owned()).or_default() += 1;
    }
    println!("event types:");
    for (ty, count) in by_type {
        println!("  {ty:<24} {count}");
    }
    Ok(())
}

// ------------------------------------------------------------ networking

/// `ocep serve` — run the monitor set as an OCWP daemon. Blocks until a
/// producer sends `Shutdown`, then reports with `check`-style exit
/// codes.
fn serve_cmd(args: &Args) -> Result<i32, String> {
    use ocep_repro::net::{ServeConfig, Server};

    if args.val("--wal").is_none() {
        for (flag, what) in [
            ("--checkpoint-every", "anchors checkpoints in the log"),
            ("--durability", "sets when the log is synced"),
            ("--obs", "sets the level the log's checkpoints store"),
        ] {
            if args.has(flag) {
                return Err(format!("{flag} {what} and needs --wal DIR"));
            }
        }
    }
    let pattern_path = args.arg(0, "pattern file")?;
    let (src, pattern) = read_pattern(pattern_path)?;
    let n_traces: usize = args
        .num("--traces")?
        .ok_or("serve needs --traces N (the trace count producers must announce)")?;
    let name = file_stem(pattern_path);

    let (obs, metrics_path) = obs_flags(args)?;
    let mut set = MonitorSet::new(n_traces);
    set.add_with_config(&name, pattern, monitor_config(args, obs));
    set.enable_guard(guard_config(args)?);

    let mut sconfig = ServeConfig::default();
    if let Some(window) = args.num("--window")? {
        sconfig.window = window;
    }
    sconfig.pattern_sources.insert(name.clone(), src);
    sconfig.wal_dir = args.val("--wal").map(Into::into);
    if let Some(mode) = args.val("--durability") {
        sconfig.durability = ocep_repro::wal::Durability::from_name(mode)
            .ok_or_else(|| format!("bad --durability '{mode}' (expected none|batch|strict)"))?;
    }
    sconfig.checkpoint_every = args.num("--checkpoint-every")?.unwrap_or(0);

    let addr = args.val("--addr").unwrap_or("127.0.0.1:7070");
    let server =
        Server::bind(addr, set, sconfig).map_err(|e| format!("cannot serve on '{addr}': {e}"))?;
    let actual = server.addr().to_string();
    for (refused, why) in server.refused() {
        eprintln!("warning: the log registers '{refused}', which no longer parses: {why}");
    }
    eprintln!("serving '{name}' ({n_traces} traces) on {actual}");
    if let Some(port_file) = args.val("--port-file") {
        std::fs::write(port_file, format!("{actual}\n"))
            .map_err(|e| format!("cannot write port file '{port_file}': {e}"))?;
    }

    let report = server.join();
    if report.recovered_events > 0 {
        eprintln!(
            "recovered {} durable events from the log (last lsn {})",
            report.recovered_events, report.wal_last_lsn
        );
    }
    print_verdicts(&report.verdicts);
    println!(
        "\n{} events admitted, {} matches reported, {} connections, {} frames",
        report.ingest.admitted,
        report.verdicts.len(),
        report.stats.connections,
        report.stats.frames,
    );
    if let Some(path) = &metrics_path {
        write_metrics(path, &report.metrics)?;
    }
    Ok(exit_code(&report.ingest, !report.verdicts.is_empty()))
}

/// `ocep register` — add or remove (`--unregister`) tenant patterns on
/// a running daemon. Pattern names are the files' stems; the server
/// monitors each as `{tenant}/{name}`.
fn register_cmd(args: &Args) -> Result<i32, String> {
    use ocep_repro::net::Client;

    let addr = args.arg(0, "server address")?;
    let tenant = args.arg(1, "tenant")?;
    args.arg(2, "pattern file(s)")?;
    let files = &args.pos[2..];
    let n_traces: usize = args
        .num("--traces")?
        .ok_or("register needs --traces N (the trace count the server monitors)")?;
    let mut client = Client::connect(addr, n_traces, &format!("{tenant}-register"))
        .map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    let live = if args.has("--unregister") {
        let names: Vec<String> = files.iter().map(|f| file_stem(f)).collect();
        client
            .unregister(tenant, &names)
            .map_err(|e| format!("unregister failed: {e}"))?
    } else {
        let mut patterns = Vec::new();
        for f in files {
            patterns.push((file_stem(f), read_source(f)?));
        }
        client
            .register(tenant, &patterns)
            .map_err(|e| format!("register failed: {e}"))?
    };
    let faults = client.take_faults();
    for (code, detail) in &faults {
        eprintln!("rejected [{code}]: {detail}");
    }
    println!("tenant {tenant}: {live} live pattern(s)");
    Ok(if faults.is_empty() { 0 } else { 3 })
}

/// Streams `all_events` to the daemon at `addr` as producer session
/// `name` — what `send` and `ingest --addr` do once they hold events —
/// and mirrors `check` exit codes using the server's report.
fn stream_to_daemon(
    args: &Args,
    addr: &str,
    n_traces: usize,
    all_events: &[ocep_repro::poet::Event],
    default_name: &str,
    default_batch: usize,
) -> Result<i32, String> {
    use ocep_repro::net::Client;

    let batch: usize = args.num("--batch")?.unwrap_or(default_batch);
    let name = args.val("--name").unwrap_or(default_name);
    let mut client = Client::connect(addr, n_traces, name)
        .map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    // A durable-log server tells a named session how much of its stream
    // already survived a crash; re-sending that prefix would be wasted
    // wire bytes (the guard would dedup it all anyway).
    let skip = usize::try_from(client.resume_from())
        .unwrap_or(usize::MAX)
        .min(all_events.len());
    if skip > 0 {
        eprintln!("session '{name}' resumed: {skip} events already durable at {addr}, skipping");
    }
    let events = &all_events[skip..];
    let stream = |client: &mut Client| -> Result<(), ocep_repro::net::WireError> {
        if batch <= 1 {
            for e in events {
                client.send_event(e)?;
            }
        } else {
            for chunk in events.chunks(batch) {
                client.send_batch(chunk)?;
            }
        }
        client.flush()
    };
    stream(&mut client).map_err(|e| format!("stream to '{addr}' failed: {e}"))?;

    let shutdown = args.has("--shutdown");
    let stats = if shutdown {
        client
            .shutdown()
            .map_err(|e| format!("shutdown handshake failed: {e}"))?
    } else {
        let s = client
            .stats()
            .map_err(|e| format!("stats request failed: {e}"))?;
        for (code, detail) in client.take_faults() {
            eprintln!("fault[{code}]: {detail}");
        }
        s
    };
    println!(
        "sent {} events to {addr}; server: {} admitted, {} quarantined, {} duplicates, \
         {} matches{}",
        events.len(),
        stats.admitted,
        stats.quarantined,
        stats.duplicates,
        stats.matches,
        if shutdown { " (server shut down)" } else { "" },
    );
    if stats.degraded {
        eprintln!("warning: server ingestion degraded — verdicts may be incomplete");
        return Ok(2);
    }
    Ok(if stats.matches > 0 { 1 } else { 0 })
}

/// `ocep send` — stream a recorded dump to a running daemon as an OCWP
/// producer.
fn send_cmd(args: &Args) -> Result<i32, String> {
    let addr = args.arg(0, "server address")?;
    let server = load_dump(args.arg(1, "dump file")?)?;
    let events: Vec<_> = server.store().iter_arrival().cloned().collect();
    stream_to_daemon(args, addr, server.n_traces(), &events, "ocep-send", 64)
}

/// `ocep ingest` — turn an external recording into an admissible event
/// stream via `crates/adapters`, then either match `--pattern` files
/// over it offline (one monitor per file, named by its stem) or stream
/// it to a running daemon with `--addr`, exactly like `send`.
fn ingest_cmd(args: &Args) -> Result<i32, String> {
    use ocep_repro::adapters;

    let addr = args.val("--addr");
    if addr.is_some() {
        // The daemon runs its own monitors and guard.
        args.only("--addr", "--addr --batch --name --shutdown")?;
    } else {
        args.only(
            "offline matching (no --addr)",
            "--pattern --batch --per-arrival --no-dedup --guard-capacity --overflow --metrics",
        )?;
    }
    let format = args.arg(0, "recording format")?;
    let file = args.arg(1, "recording file")?;
    let adapter = adapters::by_name(format).ok_or_else(|| {
        format!(
            "unknown recording format '{format}' (expected {})",
            adapters::FORMATS.join("|")
        )
    })?;
    let input = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read recording '{file}': {e}"))?;
    let out = adapter
        .parse_str(&input)
        .map_err(|e| format!("{file}: {e}"))?;
    let a = out.stats;
    eprintln!(
        "ingested {file} ({format}): {} records -> {} events across {} traces \
         ({} message edges, {} synthesized)",
        a.records, a.events, out.n_traces, a.edges, a.synthesized,
    );
    if let Some(addr) = addr {
        return stream_to_daemon(args, addr, out.n_traces, &out.events, "ocep-ingest", 256);
    }
    let batch: usize = args.num("--batch")?.unwrap_or(256);

    // Offline: one monitor per --pattern file. With none, `ingest` is a
    // pure validation pass — parse, synthesize clocks, admit, report.
    let patterns: Vec<&str> = args.vals("--pattern").collect();
    let (obs, metrics_path) = obs_flags(args)?;
    let mut set = MonitorSet::new(out.n_traces);
    for p in &patterns {
        set.add_with_config(file_stem(p), read_pattern(p)?.1, monitor_config(args, obs));
    }
    set.enable_guard(guard_config(args)?);

    let mut reported = 0usize;
    for chunk in out.events.chunks(batch.max(1)) {
        reported += print_verdicts(&set.observe_raw_batch(chunk));
    }
    reported += print_verdicts(&set.flush_guard());
    let istats = set.ingest_stats();
    println!(
        "\n{} events admitted, {reported} matches, {} monitor(s)",
        istats.admitted,
        patterns.len(),
    );
    if let Some(path) = &metrics_path {
        write_metrics(path, &set.metrics())?;
    }
    Ok(exit_code(&istats, reported > 0))
}

/// `ocep tail` — subscribe to a daemon's verdict stream. `--once` exits
/// after the first match; otherwise runs until the server shuts down.
fn tail_cmd(args: &Args) -> Result<i32, String> {
    use ocep_repro::net::{Frame, Tail, WireError};

    let addr = args.arg(0, "server address")?;
    let once = args.has("--once");
    let name = args.val("--name").unwrap_or("ocep-tail");
    let from: Option<u64> = args.num("--from")?;

    let mut tail = match args.val("--tenant") {
        Some(tenant) => Tail::connect_tenant(addr, name, tenant, from),
        None => Tail::connect_from(addr, name, from),
    }
    .map_err(|e| format!("cannot connect to '{addr}': {e}"))?;
    // Readiness marker: scripts (and our own tests) wait for this line
    // before streaming events, so no verdict can race the subscription.
    eprintln!("subscribed to {addr}");
    let mut seen = 0usize;
    loop {
        let (v, at) = match tail.next() {
            Ok(Frame::Verdict(v)) => (v, String::new()),
            // Backlog replayed from the durable log: same line shape as a
            // live verdict, annotated with its log position.
            Ok(Frame::VerdictAt { lsn, verdict }) => (verdict, format!("@{lsn}")),
            Ok(Frame::Fault { code, detail }) => {
                eprintln!("fault[{code}]: {detail}");
                continue;
            }
            Ok(Frame::StatsReport(s)) => {
                eprintln!(
                    "server shut down: {} admitted, {} matches",
                    s.admitted, s.matches
                );
                break;
            }
            Ok(_) => continue,
            Err(WireError::Closed) => break,
            // The read timeout just means no verdict arrived yet; keep
            // following the stream.
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("tail stream from '{addr}' failed: {e}")),
        };
        let cells: Vec<String> = v
            .bindings
            .iter()
            .map(|(t, i)| format!("T{t}@{i}"))
            .collect();
        println!("match[{}]{at}: {}", v.monitor, cells.join(" "));
        seen += 1;
        if once {
            break;
        }
    }
    Ok(if seen > 0 { 1 } else { 0 })
}

/// `ocep replay` — run a pattern over a durable event log after the
/// fact. The pattern need not be the one the server was running when
/// the log was written: the log records raw admitted deliveries, so any
/// pattern can be compiled against history. Reads the log read-only
/// (tolerating a torn tail, which is reported on stderr) and feeds
/// every delivery through the same admission-guard path as `serve`.
fn replay_cmd(args: &Args) -> Result<i32, String> {
    use ocep_repro::net::shard::decode_deliver;
    use ocep_repro::wal;

    let (obs, metrics_path) = obs_flags(args)?;
    let pattern_path = args.arg(0, "pattern file")?;
    let dir = args.arg(1, "log directory")?;
    let (_, pattern) = read_pattern(pattern_path)?;
    let name = file_stem(pattern_path);

    let recovery = wal::scan(std::path::Path::new(dir))
        .map_err(|e| format!("cannot read log '{dir}': {e}"))?;
    if let Some(torn) = &recovery.torn {
        eprintln!("warning: {torn} — replaying the intact prefix only");
    }

    // The log stores raw events, so the trace count can be read off the
    // first delivery's clock; `--traces` overrides (e.g. for an empty log).
    let mut n_traces: Option<usize> = args.num("--traces")?;
    if n_traces.is_none() {
        for rec in &recovery.records {
            if rec.rtype == wal::REC_DELIVER {
                let (_, e) = decode_deliver(&rec.payload)
                    .map_err(|e| format!("log record {} undecodable: {e}", rec.lsn))?;
                n_traces = Some(e.clock().len());
                break;
            }
        }
    }
    let n_traces = n_traces.ok_or("log holds no deliveries; pass --traces N")?;

    let mut set = MonitorSet::new(n_traces);
    set.add_with_config(&name, pattern, monitor_config(args, obs));
    set.enable_guard(guard_config(args)?);

    let mut reported = 0usize;
    let mut delivered = 0u64;
    for rec in &recovery.records {
        let verdicts = match rec.rtype {
            wal::REC_DELIVER => {
                let (_, e) = decode_deliver(&rec.payload)
                    .map_err(|e| format!("log record {} undecodable: {e}", rec.lsn))?;
                delivered += 1;
                set.observe_raw(&e)
            }
            wal::REC_FLUSH => set.flush_guard(),
            // Checkpoints anchor *serve* restarts; a from-scratch replay
            // recomputes everything, so they carry no new information.
            // Nor do the watermark records older versions wrote.
            _ => Vec::new(),
        };
        reported += print_verdicts(&verdicts);
    }
    reported += print_verdicts(&set.flush_guard());
    let stats = set.ingest_stats();
    println!(
        "\nreplayed {} deliveries ({} records, {} segments) from '{dir}': \
         {} admitted, {reported} matches",
        delivered,
        recovery.records.len(),
        recovery.segments,
        stats.admitted,
    );
    if let Some(path) = &metrics_path {
        write_metrics(path, &set.metrics())?;
    }
    Ok(exit_code(&stats, reported > 0))
}

#[cfg(test)]
mod tests {
    use super::{listed, SUBCOMMANDS, USAGE};

    /// `USAGE` and `SUBCOMMANDS` agree: every flag a subcommand declares
    /// appears in one of its synopsis lines, and every flag those lines
    /// name is declared.
    #[test]
    fn usage_names_exactly_the_declared_flags() {
        let synopsis = USAGE.split("EXIT CODES:").next().unwrap();
        for sub in SUBCOMMANDS {
            let mut lines = String::new();
            let mut mine = false;
            for line in synopsis.lines().map(str::trim_start) {
                if let Some(rest) = line.strip_prefix("ocep ") {
                    mine = rest.split(' ').next() == Some(sub.name);
                }
                if mine {
                    lines.push_str(line);
                    lines.push(' ');
                }
            }
            let named: Vec<&str> = lines
                .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
                .filter(|w| w.starts_with("--"))
                .collect();
            for flag in sub.valued.split(' ').chain(sub.switches.split(' ')) {
                assert!(
                    flag.is_empty() || named.contains(&flag),
                    "USAGE of '{}' omits {flag}",
                    sub.name
                );
            }
            for flag in named {
                assert!(
                    listed(sub.valued, flag) || listed(sub.switches, flag),
                    "USAGE of '{}' names {flag}, which it does not declare",
                    sub.name
                );
            }
        }
    }
}
