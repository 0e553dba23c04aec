//! Target-environment plugins.
//!
//! POET is target-system independent: per-environment *plugins* decide
//! which application actions become events and how entities map to traces
//! (§V-A). The paper evaluates two environments — MPI and μC++ (where the
//! μC++ plugin "already adds semaphores as separate traces", §V-C3). The
//! types here give each environment a typed event vocabulary over a
//! [`PoetServer`], so simulators and instrumented applications record
//! consistently named events that patterns can refer to.

use crate::{Event, EventKind, PoetServer};
use ocep_vclock::TraceId;

/// Event-type names shared by the plugins. Patterns match on these.
pub mod types {
    /// MPI blocking point-to-point send that has begun (and may block).
    pub const MPI_BLOCK_SEND: &str = "mpi_block_send";
    /// MPI send completion (the message left the buffer).
    pub const MPI_SEND: &str = "mpi_send";
    /// MPI receive completion.
    pub const MPI_RECV: &str = "mpi_recv";
    /// Semaphore acquire request (thread → semaphore message).
    pub const SEM_P: &str = "sem_p";
    /// Semaphore grant (semaphore → thread message).
    pub const SEM_GRANT: &str = "sem_grant";
    /// Semaphore release (thread → semaphore message).
    pub const SEM_V: &str = "sem_v";
    /// Entry into a protected method.
    pub const ENTER_METHOD: &str = "enter_method";
    /// Exit from a protected method.
    pub const EXIT_METHOD: &str = "exit_method";
}

/// MPI-environment plugin: each rank is a trace; blocking point-to-point
/// operations become send/receive event pairs.
///
/// # Example
///
/// ```
/// use ocep_poet::plugin::MpiPlugin;
/// use ocep_poet::PoetServer;
/// use ocep_vclock::TraceId;
///
/// let mut poet = PoetServer::new(2);
/// let mut mpi = MpiPlugin::new(&mut poet);
/// let send = mpi.block_send(TraceId::new(0), TraceId::new(1));
/// let recv = mpi.recv(TraceId::new(1), &send);
/// assert_eq!(recv.partner(), Some(send.id()));
/// ```
#[derive(Debug)]
pub struct MpiPlugin<'a> {
    server: &'a mut PoetServer,
}

impl<'a> MpiPlugin<'a> {
    /// Wraps a server with the MPI vocabulary.
    pub fn new(server: &'a mut PoetServer) -> Self {
        MpiPlugin { server }
    }

    /// Records the start of a blocking `MPI_Send` from `src` to `dst`.
    /// The text attribute carries the destination rank, so a pattern can
    /// chain blocked sends into a cycle with attribute variables.
    pub fn block_send(&mut self, src: TraceId, dst: TraceId) -> Event {
        self.server
            .record(src, EventKind::Send, types::MPI_BLOCK_SEND, dst.to_string())
    }

    /// Records a buffered (non-blocking-complete) send from `src` to `dst`.
    pub fn send(&mut self, src: TraceId, dst: TraceId) -> Event {
        self.server
            .record(src, EventKind::Send, types::MPI_SEND, dst.to_string())
    }

    /// Records the receive of `message` at rank `dst`. The text attribute
    /// carries the source rank.
    pub fn recv(&mut self, dst: TraceId, message: &Event) -> Event {
        self.server.record_receive(
            dst,
            message.id(),
            types::MPI_RECV,
            message.trace().to_string(),
        )
    }

    /// Records a purely local computation step.
    pub fn local(&mut self, rank: TraceId, what: &str) -> Event {
        self.server.record(rank, EventKind::Unary, what, "")
    }
}

/// μC++-environment plugin: threads *and semaphores* are traces, so
/// synchronization order is visible in the partial order and an atomicity
/// violation can be expressed as a causal pattern (§V-C3).
///
/// # Example
///
/// ```
/// use ocep_poet::plugin::UcxxPlugin;
/// use ocep_poet::PoetServer;
/// use ocep_vclock::TraceId;
///
/// let mut poet = PoetServer::new(3); // threads 0,1; semaphore 2
/// let mut ucxx = UcxxPlugin::new(&mut poet);
/// let thread = TraceId::new(0);
/// let sem = TraceId::new(2);
/// ucxx.acquire(thread, sem);
/// ucxx.enter_method(thread, "update");
/// ucxx.exit_method(thread, "update");
/// ucxx.release(thread, sem);
/// ```
#[derive(Debug)]
pub struct UcxxPlugin<'a> {
    server: &'a mut PoetServer,
}

impl<'a> UcxxPlugin<'a> {
    /// Wraps a server with the μC++ vocabulary.
    pub fn new(server: &'a mut PoetServer) -> Self {
        UcxxPlugin { server }
    }

    /// Records a full semaphore acquisition: the thread's `P` request, its
    /// arrival at the semaphore trace, the grant, and its arrival back at
    /// the thread. Returns the grant-receive event on the thread.
    pub fn acquire(&mut self, thread: TraceId, sem: TraceId) -> Event {
        let p = self
            .server
            .record(thread, EventKind::Send, types::SEM_P, sem.to_string());
        self.server
            .record_receive(sem, p.id(), types::SEM_P, thread.to_string());
        let grant = self
            .server
            .record(sem, EventKind::Send, types::SEM_GRANT, thread.to_string());
        self.server
            .record_receive(thread, grant.id(), types::SEM_GRANT, sem.to_string())
    }

    /// Records a semaphore release: the thread's `V` and its arrival at
    /// the semaphore trace. Returns the `V`-receive on the semaphore.
    pub fn release(&mut self, thread: TraceId, sem: TraceId) -> Event {
        let v = self
            .server
            .record(thread, EventKind::Send, types::SEM_V, sem.to_string());
        self.server
            .record_receive(sem, v.id(), types::SEM_V, thread.to_string())
    }

    /// Records entry into the protected method named `method`.
    pub fn enter_method(&mut self, thread: TraceId, method: &str) -> Event {
        self.server
            .record(thread, EventKind::Unary, types::ENTER_METHOD, method)
    }

    /// Records exit from the protected method named `method`.
    pub fn exit_method(&mut self, thread: TraceId, method: &str) -> Event {
        self.server
            .record(thread, EventKind::Unary, types::EXIT_METHOD, method)
    }

    /// Records a local step on a thread.
    pub fn local(&mut self, thread: TraceId, what: &str) -> Event {
        self.server.record(thread, EventKind::Unary, what, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TraceId {
        TraceId::new(i)
    }

    #[test]
    fn blocked_sends_with_no_receive_are_concurrent() {
        let mut poet = PoetServer::new(2);
        let mut mpi = MpiPlugin::new(&mut poet);
        let s0 = mpi.block_send(t(0), t(1));
        let s1 = mpi.block_send(t(1), t(0));
        assert!(s0.stamp().concurrent_with(s1.stamp()));
        assert_eq!(s0.text(), "T1");
        assert_eq!(s1.text(), "T0");
    }

    #[test]
    fn semaphore_serializes_method_entries() {
        let mut poet = PoetServer::new(3);
        let mut ucxx = UcxxPlugin::new(&mut poet);
        let sem = t(2);
        ucxx.acquire(t(0), sem);
        let e0 = ucxx.enter_method(t(0), "m");
        ucxx.exit_method(t(0), "m");
        ucxx.release(t(0), sem);
        ucxx.acquire(t(1), sem);
        let e1 = ucxx.enter_method(t(1), "m");
        // The second entry is causally after the first: the grant to
        // thread 1 follows thread 0's release on the semaphore trace.
        assert!(e0.stamp().happens_before(e1.stamp()));
    }

    #[test]
    fn skipped_acquire_makes_entries_concurrent() {
        let mut poet = PoetServer::new(3);
        let mut ucxx = UcxxPlugin::new(&mut poet);
        let sem = t(2);
        ucxx.acquire(t(0), sem);
        let e0 = ucxx.enter_method(t(0), "m");
        // Thread 1 skips the acquire (the injected 1% bug of §V-C3).
        let e1 = ucxx.enter_method(t(1), "m");
        assert!(e0.stamp().concurrent_with(e1.stamp()));
    }

    #[test]
    fn recv_text_names_source_rank() {
        let mut poet = PoetServer::new(2);
        let mut mpi = MpiPlugin::new(&mut poet);
        let s = mpi.send(t(0), t(1));
        let r = mpi.recv(t(1), &s);
        assert_eq!(r.text(), "T0");
        assert_eq!(r.partner(), Some(s.id()));
    }
}
