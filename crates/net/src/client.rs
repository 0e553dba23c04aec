//! Client-side handles: a credit-tracking producer [`Client`] and a
//! verdict-subscribing [`Tail`].

use crate::wire::{
    read_frame, write_frame, write_frame_delta, FaultCode, Frame, Mode, StatsReport, WireError,
};
use ocep_poet::Event;
use std::io::{BufReader, BufWriter, Write as IoWrite};
use std::net::TcpStream;
use std::time::Duration;

/// Read timeout applied to every client socket so a dead server fails a
/// call instead of hanging it forever.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// True for the I/O error kinds a peer disappearing produces; these are
/// folded into [`WireError::Closed`] so callers see one "server is
/// gone" signal instead of a platform-dependent zoo of io errors.
fn is_disconnect(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
    matches!(
        kind,
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected
            | ErrorKind::UnexpectedEof
    )
}

/// Maps disconnect-flavoured io errors to [`WireError::Closed`].
fn closed_on_disconnect(e: WireError) -> WireError {
    match e {
        WireError::Io(io) if is_disconnect(io.kind()) => WireError::Closed,
        other => other,
    }
}

fn connect(
    addr: &str,
    hello: &Frame,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), WireError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, hello)?;
    writer.flush()?;
    Ok((reader, writer))
}

/// A producer connection: streams events to an `ocep serve` daemon,
/// honouring the server's Ack-credit window.
///
/// Single-threaded by design — sends block when the credit window is
/// exhausted, which is exactly the backpressure the server asked for.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    credits: u32,
    faults: Vec<(FaultCode, String)>,
    resume_from: u64,
}

impl Client {
    /// Connects, handshakes as a producer for an `n_traces`-trace
    /// computation, and waits for the server's initial credit grant.
    ///
    /// # Errors
    ///
    /// Transport failures, a rejected handshake (`Fault` reply), or a
    /// protocol-confused server.
    pub fn connect(addr: &str, n_traces: usize, name: &str) -> Result<Client, WireError> {
        let (reader, writer) = connect(
            addr,
            &Frame::Hello {
                mode: Mode::Producer,
                n_traces: n_traces as u32,
                name: name.to_owned(),
            },
        )?;
        let mut client = Client {
            reader,
            writer,
            credits: 0,
            faults: Vec::new(),
            resume_from: 0,
        };
        client.wait_for_credit()?;
        Ok(client)
    }

    /// How many events of this named session the server already holds
    /// durably (from a `Resume` frame during the handshake; 0 when the
    /// server runs without a durable log). A resuming sender must skip
    /// exactly this prefix of its stream instead of re-sending it.
    #[must_use]
    pub fn resume_from(&self) -> u64 {
        self.resume_from
    }

    /// Processes inbound frames until at least one credit is available.
    fn wait_for_credit(&mut self) -> Result<(), WireError> {
        while self.credits == 0 {
            match read_frame(&mut self.reader)? {
                Frame::Ack { credits } => self.credits += credits,
                Frame::Resume { durable } => self.resume_from = durable,
                Frame::Fault { code, detail } => {
                    // A handshake rejection is fatal; later faults are
                    // informational (quarantines) and are collected.
                    if code == FaultCode::Protocol {
                        return Err(WireError::Protocol(detail));
                    }
                    self.faults.push((code, detail));
                }
                Frame::StatsReport(_) => {
                    // Unsolicited final report: the server is shutting
                    // down and will grant no further credit.
                    return Err(WireError::Closed);
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected {} while waiting for credit",
                        other.type_name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Drains any frames the server pushed without blocking the socket
    /// wait — called opportunistically after sends.
    fn send_data(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.wait_for_credit()?;
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        self.credits -= 1;
        Ok(())
    }

    /// Streams one event.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn send_event(&mut self, event: &Event) -> Result<(), WireError> {
        self.send_data(&Frame::Event(Box::new(event.clone())))
    }

    /// Streams a batch of events as one frame (one credit, one string
    /// table — the throughput path). Clocks travel delta-encoded
    /// (`EventBatchD`): each record diffs against the previous clock on
    /// its trace within the frame, with full clocks as the per-record
    /// fallback, cutting wire bytes from O(n_traces) to O(changes) per
    /// event. The server reconstructs full clocks, so verdicts are
    /// bit-identical to [`Client::send_event`] delivery.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn send_batch(&mut self, events: &[Event]) -> Result<(), WireError> {
        self.wait_for_credit()?;
        write_frame_delta(&mut self.writer, &Frame::EventBatch(events.to_vec()))?;
        self.writer.flush()?;
        self.credits -= 1;
        Ok(())
    }

    /// Asks the server to deliver everything its guard still buffers
    /// (the degraded flush).
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.send_data(&Frame::Flush)
    }

    /// Sends a control frame and waits for the server's `StatsReport`
    /// reply, folding any interleaved acks/faults into local state.
    fn round_trip(&mut self, frame: &Frame) -> Result<StatsReport, WireError> {
        write_frame(&mut self.writer, frame).map_err(closed_on_disconnect)?;
        self.writer
            .flush()
            .map_err(|e| closed_on_disconnect(WireError::Io(e)))?;
        loop {
            match read_frame(&mut self.reader).map_err(closed_on_disconnect)? {
                Frame::Ack { credits } => self.credits += credits,
                Frame::Fault { code, detail } => self.faults.push((code, detail)),
                Frame::StatsReport(r) => return Ok(r),
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected {} while waiting for stats",
                        other.type_name()
                    )));
                }
            }
        }
    }

    /// Requests current serving statistics.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn stats(&mut self) -> Result<StatsReport, WireError> {
        self.round_trip(&Frame::StatsReq)
    }

    /// Asks the server to anchor a checkpoint in its durable log now
    /// (a no-op without one); returns the statistics at checkpoint time.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn checkpoint(&mut self) -> Result<StatsReport, WireError> {
        self.round_trip(&Frame::CheckpointReq)
    }

    /// Requests a graceful shutdown: the server drains its guard,
    /// anchors a log checkpoint, replies with a final report, and
    /// closes.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures. A server that is already gone
    /// (its socket closed or reset underneath us) yields
    /// [`WireError::Closed`], never a raw io error — so shutting down
    /// twice, or after the daemon exited, is a clean condition callers
    /// can match on.
    pub fn shutdown(mut self) -> Result<StatsReport, WireError> {
        self.round_trip(&Frame::Shutdown)
    }

    /// Sends a tenant-scoped frame and waits for the server's
    /// `Registered` acknowledgement, folding interleaved acks/faults
    /// into local state. Per-pattern rejections (duplicate name,
    /// unparsable source) arrive as faults — check
    /// [`Client::take_faults`] after the call.
    fn registration_round_trip(&mut self, frame: &Frame) -> Result<u32, WireError> {
        write_frame(&mut self.writer, frame).map_err(closed_on_disconnect)?;
        self.writer
            .flush()
            .map_err(|e| closed_on_disconnect(WireError::Io(e)))?;
        loop {
            match read_frame(&mut self.reader).map_err(closed_on_disconnect)? {
                Frame::Ack { credits } => self.credits += credits,
                Frame::Fault { code, detail } => self.faults.push((code, detail)),
                Frame::Registered { patterns, .. } => return Ok(patterns),
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected {} while waiting for registration ack",
                        other.type_name()
                    )));
                }
            }
        }
    }

    /// Registers `(name, pattern_source)` pairs for `tenant`; the
    /// server monitors each as `{tenant}/{name}`. Returns the tenant's
    /// live pattern count after the operation. Individual rejections
    /// (duplicate or unparsable patterns) surface as faults in
    /// [`Client::take_faults`], not as an `Err`.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn register(
        &mut self,
        tenant: &str,
        patterns: &[(String, String)],
    ) -> Result<u32, WireError> {
        self.registration_round_trip(&Frame::Register {
            tenant: tenant.to_owned(),
            patterns: patterns.to_vec(),
        })
    }

    /// Unregisters previously registered pattern names for `tenant`.
    /// Returns the tenant's remaining live pattern count; unknown names
    /// surface as faults in [`Client::take_faults`].
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn unregister(&mut self, tenant: &str, patterns: &[String]) -> Result<u32, WireError> {
        self.registration_round_trip(&Frame::Unregister {
            tenant: tenant.to_owned(),
            patterns: patterns.to_vec(),
        })
    }

    /// Faults the server has pushed to this connection (ingest
    /// quarantines, decode rejections), drained.
    pub fn take_faults(&mut self) -> Vec<(FaultCode, String)> {
        std::mem::take(&mut self.faults)
    }
}

/// A verdict subscription: connects in tail mode and yields the frames
/// the server streams (verdicts, faults, the final stats report).
#[derive(Debug)]
pub struct Tail {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    closed: bool,
}

impl Tail {
    /// Connects and handshakes as a tail subscriber.
    ///
    /// # Errors
    ///
    /// Transport failures or a rejected handshake.
    pub fn connect(addr: &str, name: &str) -> Result<Tail, WireError> {
        Tail::connect_from(addr, name, None)
    }

    /// Like [`Tail::connect`], but additionally requests the retained
    /// verdict backlog at log sequence numbers `>= from` (durable-log
    /// servers only): the backlog arrives as [`Frame::VerdictAt`]
    /// frames before the live stream continues with plain verdicts.
    ///
    /// # Errors
    ///
    /// Transport failures or a rejected handshake.
    pub fn connect_from(addr: &str, name: &str, from: Option<u64>) -> Result<Tail, WireError> {
        Tail::connect_scoped(addr, name, from, None)
    }

    /// Like [`Tail::connect_from`], but scoped to one tenant's verdicts
    /// (`{tenant}/...` monitors only). The scope applies to both the
    /// backlog and the live stream.
    ///
    /// # Errors
    ///
    /// Transport failures or a rejected handshake.
    pub fn connect_tenant(
        addr: &str,
        name: &str,
        tenant: &str,
        from: Option<u64>,
    ) -> Result<Tail, WireError> {
        Tail::connect_scoped(addr, name, from, Some(tenant))
    }

    fn connect_scoped(
        addr: &str,
        name: &str,
        from: Option<u64>,
        tenant: Option<&str>,
    ) -> Result<Tail, WireError> {
        let (mut reader, mut writer) = connect(
            addr,
            &Frame::Hello {
                mode: Mode::Tail,
                n_traces: 0,
                name: name.to_owned(),
            },
        )?;
        // Scope before requesting the backlog so the filter applies to
        // the `VerdictAt` replay too.
        if let Some(tenant) = tenant {
            write_frame(
                &mut writer,
                &Frame::TailTenant {
                    tenant: tenant.to_owned(),
                },
            )?;
            writer.flush()?;
        }
        if let Some(from) = from {
            write_frame(&mut writer, &Frame::TailFrom { from })?;
            writer.flush()?;
        }
        // The server completes the handshake with a credit grant.
        match read_frame(&mut reader)? {
            Frame::Ack { .. } => {}
            Frame::Fault { code: _, detail } => return Err(WireError::Protocol(detail)),
            other => {
                return Err(WireError::Protocol(format!(
                    "unexpected {} in tail handshake",
                    other.type_name()
                )));
            }
        }
        // A tenant scope is acknowledged with `Registered`; consume it
        // here so the verdict stream starts clean.
        if tenant.is_some() {
            match read_frame(&mut reader)? {
                Frame::Registered { .. } => {}
                Frame::Fault { code: _, detail } => return Err(WireError::Protocol(detail)),
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected {} in tenant-tail handshake",
                        other.type_name()
                    )));
                }
            }
        }
        Ok(Tail {
            reader,
            writer,
            closed: false,
        })
    }

    /// Closes the subscription's socket. Idempotent: closing twice —
    /// or closing after the server already tore the connection down —
    /// is `Ok(())`, never an io error. Also run by `Drop`, so an
    /// explicit call is only needed to observe a genuine failure.
    ///
    /// # Errors
    ///
    /// Io errors other than the peer already being gone.
    pub fn close(&mut self) -> Result<(), WireError> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        match self.writer.get_ref().shutdown(std::net::Shutdown::Both) {
            Ok(()) => Ok(()),
            Err(e) if is_disconnect(e.kind()) => Ok(()),
            Err(e) => Err(WireError::Io(e)),
        }
    }

    /// Blocks for the next streamed frame. [`WireError::Closed`] when
    /// the server is gone.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed stream.
    // Not an `Iterator`: iteration never ends cleanly (a live tail has
    // no `None`), and the `Result` item would make `for` loops worse
    // than the explicit loop-and-match every caller writes anyway.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Frame, WireError> {
        read_frame(&mut self.reader)
    }

    /// Requests serving statistics over the tail connection; verdicts
    /// that arrive before the report are returned alongside it.
    ///
    /// # Errors
    ///
    /// Transport or protocol failures.
    pub fn stats(&mut self) -> Result<(StatsReport, Vec<Frame>), WireError> {
        write_frame(&mut self.writer, &Frame::StatsReq)?;
        self.writer.flush()?;
        let mut before = Vec::new();
        loop {
            match self.next()? {
                Frame::StatsReport(r) => return Ok((r, before)),
                f => before.push(f),
            }
        }
    }
}

impl Drop for Tail {
    fn drop(&mut self) {
        let _ = self.close();
    }
}
