//! MPI trace reader feeding the `crates/poet` MPI vocabulary.
//!
//! # Format
//!
//! Line-oriented text; whitespace-separated tokens, blank lines and
//! `#` comments skipped. The first record must be the header:
//!
//! ```text
//! mpi <nranks>
//! <rank> send  <dst> [tag]     # buffered point-to-point send
//! <rank> bsend <dst> [tag]     # blocking send (mpi_block_send)
//! <rank> recv  <src> [tag]     # receive: matches the earliest
//!                              # unmatched send src→rank with `tag`
//! <rank> local <type> [text]   # purely local application event
//! ```
//!
//! Ranks are `0..nranks`; each rank is one trace. `tag` defaults to
//! the empty tag. Send/receive matching is FIFO per `(src, dst, tag)`
//! channel — exactly MPI's non-overtaking guarantee for same-tag
//! point-to-point traffic.
//!
//! # Causality synthesis
//!
//! One pass over the file feeds the emit core: per-rank program order
//! is file order, and every matched `recv` joins the clock of its send
//! — the same edges `crates/poet`'s `MpiPlugin` records for live
//! instrumented runs. Event types are the plugin vocabulary
//! (`mpi_send`, `mpi_block_send`, `mpi_recv`), and a send's *text*
//! carries the destination trace (`"T3"`), so the curated deadlock
//! patterns chain blocked sends through attribute variables unchanged.
//!
//! A `recv` whose channel has no pending send is *unmatched* — in a
//! replayable recording the send must already have been logged — and
//! is rejected with its line. Sends left unmatched at end of input
//! are legal (that is what a blocked-send deadlock looks like).
//!
//! The header's rank count is bounded by [`MAX_TRACES`] *before* any
//! clock storage is allocated: a hostile `mpi 4000000000` is a
//! clock-width overflow diagnostic, not a 16 GB allocation.

use crate::emit::{Emitter, Interner, Sym};
use crate::error::{limit, syn, too_many_records};
use crate::{record_hint, MAX_RECORDS, MAX_TRACES};
use crate::{Adapter, AdapterError, AdapterErrorKind, AdapterOutput, AdapterStats};
use ocep_vclock::TraceId;
use std::collections::{BTreeMap, VecDeque};

/// The MPI trace adapter (format name `mpi`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MpiAdapter;

/// The shortest record there is, line break included: `0 recv 0`.
const MIN_RECORD_BYTES: usize = 9;

/// What a byte is to the scanner: part of a token, a one-byte
/// whitespace character, the line break, or the lead byte of a
/// multi-byte character (whitespace or not — only those cost a decode).
const TOKEN: u8 = 0;
const SPACE: u8 = 1;
const LEAD: u8 = 2;
const BREAK: u8 = 3;

static CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut b = 0;
    while b < 256 {
        if b == b'\n' as usize {
            class[b] = BREAK;
        } else if matches!(b as u8, b'\t'..=b'\r' | b' ') {
            class[b] = SPACE;
        } else if b >= 0xC2 {
            class[b] = LEAD;
        }
        b += 1;
    }
    class
};

/// Byte length of the whitespace character at the lead byte `s[i]`, 0
/// when that character is not whitespace.
fn wide_space(s: &str, i: usize) -> usize {
    let c = s[i..].chars().next();
    c.filter(|c| c.is_whitespace()).map_or(0, char::len_utf8)
}

/// The records of a recording, found in one pass over its bytes: every
/// line that holds a token and is not a `#` comment, as its 1-based
/// line number and its first four tokens (`""` past the last). The
/// tokens are exactly `str::split_whitespace`'s. `lines` counts every
/// line passed over.
struct Scanner<'a> {
    input: &'a str,
    at: usize,
    lines: usize,
}

impl<'a> Iterator for Scanner<'a> {
    type Item = (usize, [&'a str; 4]);

    fn next(&mut self) -> Option<Self::Item> {
        let (s, bytes) = (self.input, self.input.as_bytes());
        let mut i = self.at;
        while i < bytes.len() {
            self.lines += 1;
            let (mut toks, mut count) = ([""; 4], 0);
            // Each byte is classified once. `width` is 0 for a token
            // byte (a multi-byte character that is not whitespace too),
            // the byte length of a whitespace character (a `\r` before
            // the break too), and `usize::MAX` at the line break or the
            // end of the input. Whitespace and the break end the token
            // that starts at `start`.
            let mut start = i;
            loop {
                let width = match bytes.get(i).map_or(BREAK, |&b| CLASS[b as usize]) {
                    TOKEN => 0,
                    SPACE => 1,
                    LEAD => wide_space(s, i),
                    _ => usize::MAX,
                };
                if width == 0 {
                    i += 1;
                    continue;
                }
                if start < i {
                    if let Some(tok) = toks.get_mut(count) {
                        *tok = &s[start..i];
                    }
                    count += 1;
                }
                if width == usize::MAX {
                    break;
                }
                i += width;
                start = i;
            }
            // `i` is at the line break or the end of the input.
            i += 1;
            if count > 0 && !toks[0].starts_with('#') {
                self.at = i;
                return Some((self.lines, toks));
            }
        }
        self.at = i;
        None
    }
}

/// `tok` as a rank below `n`. Plain decimal digits are read in place;
/// any other spelling (`+3`, an overflow, a non-number) or a rank out
/// of range goes through `str::parse` and its diagnostics.
fn parse_rank(tok: &str, n: usize, line: usize, what: &str) -> Result<u32, AdapterError> {
    let digits = tok.as_bytes();
    if digits.len() <= 9 && digits.iter().all(u8::is_ascii_digit) {
        let rank = digits
            .iter()
            .fold(0, |rank, &d| rank * 10 + usize::from(d - b'0'));
        if rank < n {
            return Ok(rank as u32);
        }
    }
    let rank: u64 = tok
        .parse()
        .map_err(|_| syn(line, format!("{what} `{tok}` is not a rank number")))?;
    if (rank as usize) < n {
        Ok(rank as u32)
    } else {
        Err(syn(
            line,
            format!("{what} {rank} out of range for {n} rank(s)"),
        ))
    }
}

/// The rank count claimed by the header record.
fn parse_header(line: usize, toks: [&str; 4]) -> Result<usize, AdapterError> {
    let [first, count, extra, _] = toks;
    if first != "mpi" {
        return Err(syn(line, "first record must be the header `mpi <nranks>`"));
    }
    if count.is_empty() || !extra.is_empty() {
        return Err(syn(line, "header is `mpi <nranks>`"));
    }
    let claimed: u64 = count
        .parse()
        .map_err(|_| syn(line, format!("rank count `{count}` is not a number")))?;
    if claimed == 0 {
        return Err(syn(line, "rank count must be at least 1"));
    }
    if claimed as usize > MAX_TRACES {
        return Err(limit(
            line,
            format!(
                "header claims {claimed} ranks — the clock width is capped at \
                 {MAX_TRACES} traces"
            ),
        ));
    }
    Ok(claimed as usize)
}

impl Adapter for MpiAdapter {
    fn format(&self) -> &'static str {
        "mpi"
    }

    fn parse_str(&self, input: &str) -> Result<AdapterOutput, AdapterError> {
        let mut stats = AdapterStats::default();
        let mut records = Scanner {
            input,
            at: 0,
            lines: 0,
        };
        let Some((line, toks)) = records.next() else {
            return Err(syn(
                records.lines.max(1),
                "empty recording: missing `mpi <nranks>` header",
            ));
        };
        let n = parse_header(line, toks)?;
        stats.records += 1;

        let rank_names = (0..n).map(|r| format!("rank-{r}")).collect();
        // Strings: a destination text per rank, four fixed ones, tags.
        let strings = Interner::with_capacity(n + 8);
        let mut em = Emitter::new(rank_names, strings, record_hint(input, MIN_RECORD_BYTES));
        let [send_ty, block_send_ty, recv_ty, no_tag] =
            ["mpi_send", "mpi_block_send", "mpi_recv", ""].map(|s| em.strings.intern(s));
        // A send's text names its destination trace: `"T{dst}"`.
        let dst_text: Vec<Sym> = (0..n as u32)
            .map(|dst| em.strings.intern(&TraceId::new(dst).to_string()))
            .collect();
        // FIFO of unmatched sends (output positions) per `(src, dst,
        // tag)` channel. All three are dense ids this reader assigned,
        // so the key is ordered, not hashed: a lookup is logarithmic
        // in the channels the recording opens, whatever tags it chose,
        // and rank pairs that never talk cost nothing.
        let mut channels: BTreeMap<(u32, u32, Sym), VecDeque<usize>> = BTreeMap::new();

        for (line, [rank, op, arg, tag]) in records.by_ref() {
            if rank == "mpi" {
                return Err(syn(line, "duplicate `mpi` header"));
            }
            if stats.records as usize >= MAX_RECORDS {
                return Err(too_many_records(line));
            }
            if arg.is_empty() {
                return Err(syn(
                    line,
                    "record is `<rank> send|bsend|recv|local <arg> [tag|text]`",
                ));
            }
            let rank = parse_rank(rank, n, line, "rank")?;
            let tag_sym = match tag {
                "" => no_tag,
                tag => em.strings.intern(tag),
            };
            match op {
                "send" | "bsend" => {
                    let dst = parse_rank(arg, n, line, "destination")?;
                    let ty = if op == "bsend" {
                        block_send_ty
                    } else {
                        send_ty
                    };
                    let at = em.local(rank, true, ty, dst_text[dst as usize]);
                    let channel = channels.entry((rank, dst, tag_sym));
                    channel.or_default().push_back(at);
                }
                "recv" => {
                    let src = parse_rank(arg, n, line, "source")?;
                    let channel = channels.get_mut(&(src, rank, tag_sym));
                    let Some(send) = channel.and_then(VecDeque::pop_front) else {
                        return Err(AdapterError::new(
                            AdapterErrorKind::Unmatched,
                            line,
                            format!(
                                "recv on rank {rank} from rank {src} tag `{tag}` has no \
                                 pending send — a replayable recording logs the send first"
                            ),
                        ));
                    };
                    em.receive(rank, send, recv_ty, tag_sym);
                    stats.edges += 1;
                }
                "local" => {
                    let ty = em.strings.intern(arg);
                    em.local(rank, false, ty, tag_sym);
                }
                op => {
                    return Err(syn(
                        line,
                        format!("unknown operation `{op}` (send|bsend|recv|local)"),
                    ));
                }
            }
            stats.records += 1;
        }
        stats.lines = records.lines as u64;

        Ok(em.finish(stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adapter;

    fn parse(input: &str) -> Result<AdapterOutput, AdapterError> {
        MpiAdapter.parse_str(input)
    }

    #[test]
    fn send_recv_pairs_become_message_edges() {
        let out = parse(
            "# two ranks, one message\n\
             mpi 2\n\
             0 local compute\n\
             0 send 1 t9\n\
             1 recv 0 t9\n\
             1 local apply\n",
        )
        .unwrap();
        assert_eq!(out.n_traces, 2);
        assert_eq!(out.trace_names, vec!["rank-0", "rank-1"]);
        assert_eq!(out.events.len(), 4);
        assert_eq!(out.stats.edges, 1);
        let send = out.events.iter().find(|e| e.ty() == "mpi_send").unwrap();
        assert_eq!(send.text(), "T1");
        let recv = out.events.iter().find(|e| e.ty() == "mpi_recv").unwrap();
        assert_eq!(recv.partner(), Some(send.id()));
        let apply = out.events.iter().find(|e| e.ty() == "apply").unwrap();
        assert!(send.stamp().happens_before(apply.stamp()));
        let compute = out.events.iter().find(|e| e.ty() == "compute").unwrap();
        assert!(compute.stamp().happens_before(apply.stamp()));
    }

    #[test]
    fn matching_is_fifo_per_tag_channel() {
        let out = parse(
            "mpi 2\n\
             0 send 1 a\n\
             0 send 1 b\n\
             0 send 1 a\n\
             1 recv 0 b\n\
             1 recv 0 a\n\
             1 recv 0 a\n",
        )
        .unwrap();
        let sends: Vec<_> = out.events.iter().filter(|e| e.ty() == "mpi_send").collect();
        let recvs: Vec<_> = out.events.iter().filter(|e| e.ty() == "mpi_recv").collect();
        // recv(b) pairs the middle send; recv(a) pairs the first, then third.
        assert_eq!(recvs[0].partner(), Some(sends[1].id()));
        assert_eq!(recvs[1].partner(), Some(sends[0].id()));
        assert_eq!(recvs[2].partner(), Some(sends[2].id()));
    }

    #[test]
    fn blocked_sends_stay_unmatched() {
        let out = parse(
            "mpi 3\n\
             0 bsend 1\n\
             1 bsend 2\n\
             2 bsend 0\n",
        )
        .unwrap();
        assert_eq!(out.stats.edges, 0);
        assert!(out.events.iter().all(|e| e.ty() == "mpi_block_send"));
        // All pairwise concurrent: that is the deadlock signature.
        for a in &out.events {
            for b in &out.events {
                if a.id() != b.id() {
                    assert!(a.stamp().concurrent_with(b.stamp()));
                }
            }
        }
    }

    #[test]
    fn unmatched_recv_is_line_diagnosed() {
        let err = parse("mpi 2\n1 recv 0\n").unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::Unmatched);
        assert_eq!(err.line, 2);

        // Tag mismatch is also unmatched: tags scope channels.
        let err = parse("mpi 2\n0 send 1 x\n1 recv 0 y\n").unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::Unmatched);
        assert_eq!(err.line, 3);
    }

    #[test]
    fn hostile_rank_count_is_a_limit_error_not_an_allocation() {
        let err = parse("mpi 4000000000\n").unwrap_err();
        assert_eq!(err.kind, AdapterErrorKind::Limit);
        assert!(err.to_string().contains("clock width"), "{err}");
    }

    #[test]
    fn ranks_take_any_decimal_spelling_below_the_header_count() {
        let plain = parse("mpi 2\n0 send 1 w\n1 recv 0 w\n").unwrap();
        let spelled = parse("mpi 2\n+0 send 01 w\n0001 recv +0 w\n").unwrap();
        assert_eq!(spelled.events, plain.events);
        for (bad, want) in [
            ("mpi 2\n2 send 1\n", "rank 2 out of range for 2 rank(s)"),
            ("mpi 2\n0 send 2\n", "destination 2 out of range"),
            ("mpi 2\n0 send 1\n1 recv 2\n", "source 2 out of range"),
            (
                "mpi 2\n0 send 1000000000\n",
                "destination 1000000000 out of range",
            ),
            (
                "mpi 2\n0 send 99999999999999999999\n",
                "is not a rank number",
            ),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains(want), "{bad:?}: {err}");
        }
    }

    /// An alphabet of everything the scanner classifies: token bytes,
    /// every one-byte whitespace, control characters that are *not*
    /// whitespace, line breaks, `#`, and multi-byte characters with and
    /// without the whitespace property.
    const ALPHABET: &[char] = &[
        'a', '7', '#', ' ', '\t', '\n', '\r', '\u{b}', '\u{c}', '\u{1c}', '\u{1f}', '\u{85}',
        '\u{a0}', '\u{1680}', '\u{2003}', '\u{2028}', '\u{3000}', 'é', '\u{200b}', '語', '🦀',
    ];

    fn scrambled(rng: &mut ocep_rng::Rng, len: usize) -> String {
        let pick = |rng: &mut ocep_rng::Rng| *rng.choose(ALPHABET).expect("non-empty alphabet");
        (0..len).map(|_| pick(rng)).collect()
    }

    /// On one line, the scanner's tokens are `split_whitespace`'s: read
    /// from the line's start and from the start of each of its tokens,
    /// it keeps the next four, or skips the record when the first of
    /// them is a `#` comment.
    #[test]
    fn tokens_are_exactly_split_whitespace() {
        let mut rng = ocep_rng::Rng::seed_from_u64(16);
        for case in 0..2_000 {
            let line = scrambled(&mut rng, case % 24).replace('\n', " ");
            let std: Vec<&str> = line.split_whitespace().collect();
            let starts = std
                .iter()
                .map(|tok| tok.as_ptr() as usize - line.as_ptr() as usize);
            for (k, from) in std::iter::once(0).chain(starts).enumerate() {
                let from_k = &std[k.saturating_sub(1)..];
                let mut want = [""; 4];
                for (tok, std) in want.iter_mut().zip(from_k) {
                    *tok = std;
                }
                let want = match from_k.first() {
                    Some(first) if !first.starts_with('#') => vec![(1, want)],
                    _ => vec![],
                };
                let rest = &line[from..];
                let scanner = Scanner {
                    input: rest,
                    at: 0,
                    lines: 0,
                };
                let ours: Vec<(usize, [&str; 4])> = scanner.collect();
                assert_eq!(ours, want, "{rest:?}");
            }
        }
    }

    /// The scanner's records are `record_lines` split by
    /// `split_whitespace` and cut to four tokens, and it counts the
    /// same lines.
    #[test]
    fn records_are_exactly_the_trimmed_uncommented_lines() {
        let mut rng = ocep_rng::Rng::seed_from_u64(17);
        for case in 0..2_000 {
            let input = scrambled(&mut rng, case % 48);
            let mut records = Scanner {
                input: &input,
                at: 0,
                lines: 0,
            };
            let ours: Vec<(usize, [&str; 4])> = records.by_ref().collect();
            let mut seen = 0;
            let reference: Vec<(usize, [&str; 4])> = crate::record_lines(&input, &mut seen)
                .map(|(line, text)| {
                    let mut toks = [""; 4];
                    for (tok, std) in toks.iter_mut().zip(text.split_whitespace()) {
                        *tok = std;
                    }
                    (line, toks)
                })
                .collect();
            assert_eq!(ours, reference, "{input:?}");
            assert_eq!(records.lines as u64, seen, "{input:?}");
        }
    }

    #[test]
    fn malformed_records_never_panic() {
        for bad in [
            "0 send 1\n",        // missing header
            "mpi\n",             // truncated header
            "mpi zero\n",        // non-numeric
            "mpi 0\n",           // zero ranks
            "mpi 2\nmpi 2\n",    // duplicate header
            "mpi 2\n7 send 1\n", // rank out of range
            "mpi 2\n0 send 9\n", // destination out of range
            "mpi 2\n0 warp 1\n", // unknown op
            "mpi 2\n0 send\n",   // truncated record
            "",                  // empty input
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.line >= 1, "{bad:?}");
        }
    }
}
