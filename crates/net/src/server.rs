//! The serving loop: multi-client TCP ingestion in front of a
//! [`MonitorSet`].
//!
//! One **engine thread** owns an [`EngineCore`] (and through it the
//! monitors) and processes every decoded frame in arrival order, so
//! a single producer connection sees exactly the verdicts of in-process
//! delivery (the network-transparency property the conformance suite
//! pins). Each accepted connection gets a **reader thread** (socket
//! bytes → the connection's [`FrameDecoder`] → engine queue) and a
//! **writer thread** (the bytes the engine queued → socket, everything
//! queued in one write per wake-up); the engine never blocks on a slow
//! peer.
//!
//! Backpressure is two-layered: inbound, the engine queue is bounded, so
//! readers — and through TCP, producers — stall when the engine falls
//! behind, while Ack credits give producers an explicit in-flight
//! window; outbound, each subscriber has a bounded verdict queue that
//! drops the newest verdict when full.
//!
//! All protocol semantics live in [`crate::engine`]; this module is
//! only the TCP harness — sockets, threads, and the real clock — and it
//! moves bytes in both directions without reading or writing a frame.
//! What each inbound wire condition does is decided by
//! [`EngineCore::on_decoded`] from the decoder's outcome, and every
//! outbound frame is encoded and counted by the engine before its bytes
//! reach an [`OutQueue`]. The deterministic simulator (`ocep-sim`)
//! pushes its in-memory transports through the same decoder into the
//! same entry point and drains the same queues from a virtual-time
//! scheduler, so it runs this server's inbound and outbound paths.

use crate::engine::{EngineCore, NetClock, OutQueue, SystemClock};
use crate::wire::{Decoded, FrameDecoder};
use ocep_core::MonitorSet;
use std::io::{ErrorKind, Read as IoRead, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::engine::{MatchCoords, ServeConfig, ServeReport};

/// How many queued frames the engine accepts before inbound readers
/// (and, through TCP, their producers) stall.
const ENGINE_QUEUE: usize = 1024;

/// Bytes a reader thread takes from its socket per read.
const READ_CHUNK: usize = 64 << 10;

/// How long [`Server::join`] waits for the connection writers to flush
/// what the engine queued last (the final `StatsReport`). A writer only
/// outlives its closed queue while a peer is not reading; that peer
/// forfeits its last frames rather than holding shutdown up.
const WRITER_DRAIN: Duration = Duration::from_secs(2);

/// The writer thread of every connection still open, with its queue.
type Writers = Vec<(OutQueue, JoinHandle<()>)>;

enum EngineMsg {
    Accepted {
        conn: u64,
        peer: String,
        out: OutQueue,
    },
    Decoded {
        conn: u64,
        decoded: Decoded,
        received_ns: u64,
    },
    Closed {
        conn: u64,
    },
    /// Local shutdown request from a [`ServerHandle`].
    Stop,
}

/// A handle for requesting shutdown from another thread (used by tests
/// and signal handling); cloneable and cheap.
#[derive(Clone)]
pub struct ServerHandle {
    tx: mpsc::SyncSender<EngineMsg>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the serving loop to drain, anchor a log checkpoint, and
    /// stop. Idempotent; returns false if the loop already exited.
    pub fn shutdown(&self) -> bool {
        self.tx.send(EngineMsg::Stop).is_ok()
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

/// A running OCWP server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    engine: JoinHandle<ServeReport>,
    acceptor: JoinHandle<Writers>,
    handle: ServerHandle,
    refused: Vec<(String, String)>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `set`. The set should already have its admission guard
    /// enabled via [`MonitorSet::enable_guard`]: the engine runs every
    /// decoded event through it once, in front of the monitors.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure. When a durable log is configured
    /// (`wal_dir`), recovery runs here — before any frame is accepted —
    /// and a corrupt log surfaces as `InvalidData` with the segment and
    /// byte offset of the first bad record.
    pub fn bind(addr: &str, set: MonitorSet, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (tx, rx) = mpsc::sync_channel::<EngineMsg>(ENGINE_QUEUE);
        let stop = Arc::new(AtomicBool::new(false));
        let clock: Arc<dyn NetClock> = Arc::new(SystemClock::new());

        let mut core = EngineCore::new(set, config, Arc::clone(&clock));
        core.recover_wal()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let refused = core.group().refused().to_vec();

        let acceptor = {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || accept_loop(&listener, &tx, &stop, &clock))
        };

        let engine = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || engine_loop(core, &rx, &stop, local))
        };

        let handle = ServerHandle { tx, addr: local };
        Ok(Server {
            addr: local,
            engine,
            acceptor,
            handle,
            refused,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable shutdown handle.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Registrations the durable log holds that recovery left out, as
    /// `(name, parse error)`: sources an older version accepted that
    /// the pattern size rule now refuses.
    #[must_use]
    pub fn refused(&self) -> &[(String, String)] {
        &self.refused
    }

    /// Waits for the serving loop to finish (a `Shutdown` frame or
    /// [`ServerHandle::shutdown`]) and returns its report.
    ///
    /// Every frame the engine queued — each connection's final
    /// `StatsReport` included — is on its socket when this returns, so
    /// the caller may exit the process without cutting a peer's
    /// shutdown handshake short. (The wait is bounded: a peer that has
    /// stopped reading forfeits its last frames after two seconds.)
    ///
    /// # Panics
    ///
    /// Panics if the engine, the acceptor or a writer thread panicked.
    #[must_use]
    pub fn join(self) -> ServeReport {
        let report = self.engine.join().expect("engine thread panicked");
        let writers = self.acceptor.join().expect("acceptor thread panicked");
        let deadline = Instant::now() + WRITER_DRAIN;
        for (out, writer) in writers {
            // The engine closed the queues of the connections it knew;
            // one accepted as it stopped is closed here.
            out.close();
            while !writer.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if writer.is_finished() {
                writer.join().expect("writer thread panicked");
            }
        }
        report
    }
}

/// Dispatches queued transport messages into the core until shutdown,
/// then tears the transport down (stop flag + self-connect to unblock
/// the acceptor) and returns the final report.
fn engine_loop(
    mut core: EngineCore,
    rx: &mpsc::Receiver<EngineMsg>,
    stop: &AtomicBool,
    local: SocketAddr,
) -> ServeReport {
    let finish = |core: &mut EngineCore| {
        let report = core.finish();
        // Unblock the acceptor, which is parked in accept().
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(local);
        report
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            EngineMsg::Accepted { conn, peer, out } => core.on_accepted(conn, peer, out),
            EngineMsg::Decoded {
                conn,
                decoded,
                received_ns,
            } => {
                if core.on_decoded(conn, decoded, received_ns) {
                    return finish(&mut core);
                }
            }
            EngineMsg::Closed { conn } => core.on_closed(conn),
            EngineMsg::Stop => return finish(&mut core),
        }
    }
    // All senders gone (acceptor died): shut down what we have.
    finish(&mut core)
}

fn accept_loop(
    listener: &TcpListener,
    tx: &mpsc::SyncSender<EngineMsg>,
    stop: &Arc<AtomicBool>,
    clock: &Arc<dyn NetClock>,
) -> Writers {
    let mut next_id: u64 = 0;
    let mut writers = Writers::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn = next_id;
        next_id += 1;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".into());
        let _ = stream.set_nodelay(true);
        let out = OutQueue::new();
        if tx
            .send(EngineMsg::Accepted {
                conn,
                peer: peer.clone(),
                out: out.clone(),
            })
            .is_err()
        {
            break; // engine gone
        }
        writers.retain(|(_, writer)| !writer.is_finished());
        if let Some(writer) = spawn_writer(conn, &stream, &out) {
            writers.push((out.clone(), writer));
        }
        spawn_reader(conn, stream, tx.clone(), Arc::clone(clock));
    }
    writers
}

/// Moves the connection's queued bytes to its socket: one write per
/// wake-up, of everything the engine queued since the last one.
fn spawn_writer(conn: u64, stream: &TcpStream, out: &OutQueue) -> Option<JoinHandle<()>> {
    let Ok(mut stream) = stream.try_clone() else {
        out.close();
        return None;
    };
    let out = out.clone();
    let writer = std::thread::Builder::new()
        .name(format!("ocwp-writer-{conn}"))
        .spawn(move || {
            let mut buf = Vec::new();
            while out.take(&mut buf) {
                if stream.write_all(&buf).is_err() {
                    break;
                }
            }
            out.close();
            // Unblock the connection's reader (it shares the socket).
            let _ = stream.shutdown(std::net::Shutdown::Both);
        })
        .expect("spawn writer");
    Some(writer)
}

/// Pumps the socket's bytes through the connection's [`FrameDecoder`]
/// and hands every outcome to the engine, stamped with the time it is
/// handed on. Stops at EOF, at an I/O error, or once the decoder is
/// poisoned (the engine has then faulted and closed the connection).
fn spawn_reader(
    conn: u64,
    mut stream: TcpStream,
    tx: mpsc::SyncSender<EngineMsg>,
    clock: Arc<dyn NetClock>,
) {
    std::thread::Builder::new()
        .name(format!("ocwp-reader-{conn}"))
        .spawn(move || {
            let mut decoder = FrameDecoder::new();
            let mut chunk = vec![0u8; READ_CHUNK];
            'read: while !decoder.is_poisoned() {
                let n = match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                decoder.push(&chunk[..n]);
                while let Some(decoded) = decoder.next() {
                    let received_ns = clock.now_ns();
                    let msg = EngineMsg::Decoded {
                        conn,
                        decoded,
                        received_ns,
                    };
                    if tx.send(msg).is_err() {
                        break 'read;
                    }
                }
            }
            let _ = tx.send(EngineMsg::Closed { conn });
        })
        .expect("spawn reader");
}
