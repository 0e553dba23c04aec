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
use crate::{record_lines, Adapter, AdapterError, AdapterErrorKind, AdapterOutput, AdapterStats};
use crate::{MAX_RECORDS, MAX_TRACES};
use ocep_vclock::TraceId;
use std::collections::{HashMap, VecDeque};

/// The MPI trace adapter (format name `mpi`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MpiAdapter;

fn parse_rank(tok: &str, n: usize, line: usize, what: &str) -> Result<u32, AdapterError> {
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

/// The rank count claimed by the header record `text`.
fn parse_header(text: &str, line: usize) -> Result<usize, AdapterError> {
    let mut toks = text.split_whitespace();
    if toks.next() != Some("mpi") {
        return Err(syn(line, "first record must be the header `mpi <nranks>`"));
    }
    let (Some(count), None) = (toks.next(), toks.next()) else {
        return Err(syn(line, "header is `mpi <nranks>`"));
    };
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
        let mut records = record_lines(input, &mut stats.lines);
        let Some((line, header)) = records.next() else {
            return Err(syn(
                input.lines().count().max(1),
                "empty recording: missing `mpi <nranks>` header",
            ));
        };
        let n = parse_header(header, line)?;
        stats.records += 1;

        let rank_names = (0..n).map(|r| format!("rank-{r}")).collect();
        let mut em = Emitter::new(rank_names, Interner::default(), 0);
        let [send_ty, block_send_ty, recv_ty] =
            ["mpi_send", "mpi_block_send", "mpi_recv"].map(|ty| em.strings.intern(ty));
        // A send's text names its destination trace: `"T{dst}"`.
        let dst_text: Vec<Sym> = (0..n as u32)
            .map(|dst| em.strings.intern(&TraceId::new(dst).to_string()))
            .collect();
        // FIFO of unmatched sends (output positions) per
        // `(src, dst, tag)` channel.
        let mut channels: HashMap<(u32, u32, Sym), VecDeque<usize>> = HashMap::new();

        for (line, text) in records {
            let mut toks = text.split_whitespace();
            let head = (toks.next(), toks.next(), toks.next());
            if head.0 == Some("mpi") {
                return Err(syn(line, "duplicate `mpi` header"));
            }
            if stats.records as usize >= MAX_RECORDS {
                return Err(too_many_records(line));
            }
            let (Some(rank), Some(op), Some(arg)) = head else {
                return Err(syn(
                    line,
                    "record is `<rank> send|bsend|recv|local <arg> [tag|text]`",
                ));
            };
            let rank = parse_rank(rank, n, line, "rank")?;
            let tag = toks.next().unwrap_or("");
            match op {
                "send" | "bsend" => {
                    let dst = parse_rank(arg, n, line, "destination")?;
                    let ty = if op == "bsend" {
                        block_send_ty
                    } else {
                        send_ty
                    };
                    let at = em.local(rank, true, ty, dst_text[dst as usize]);
                    let tag = em.strings.intern(tag);
                    channels.entry((rank, dst, tag)).or_default().push_back(at);
                }
                "recv" => {
                    let src = parse_rank(arg, n, line, "source")?;
                    let tag_sym = em.strings.intern(tag);
                    let send = channels
                        .get_mut(&(src, rank, tag_sym))
                        .and_then(VecDeque::pop_front);
                    let Some(send) = send else {
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
                    let (ty, text) = (em.strings.intern(arg), em.strings.intern(tag));
                    em.local(rank, false, ty, text);
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
