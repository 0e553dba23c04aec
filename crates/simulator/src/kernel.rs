//! The actor-based simulation kernel.
//!
//! Processes (and passive entities such as semaphores) are [`Actor`]s,
//! one per POET trace. The kernel starts every actor, then repeatedly
//! delivers a *randomly chosen* in-flight message — the seeded
//! interleaving stands in for network nondeterminism, which is what makes
//! message races and concurrent bug windows appear, exactly as in a real
//! distributed execution.

use ocep_poet::{Event, EventKind, PoetServer};
use ocep_rng::Rng;
use ocep_vclock::{EventId, TraceId};
use std::collections::HashSet;
use std::rc::Rc;

/// A message in flight between two actors.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender trace.
    pub from: TraceId,
    /// Destination trace.
    pub to: TraceId,
    /// Application-level message type (also the receive event's type).
    /// Shared: a run has a handful of message types, not one per message.
    pub ty: Rc<str>,
    /// Application payload (also the receive event's text, if non-empty).
    pub payload: Rc<str>,
    /// The POET event recorded for the send.
    pub send_event: EventId,
}

/// What a kernel hands every [`Ctx`] besides the actor's own trace.
#[derive(Debug)]
struct World {
    poet: PoetServer,
    /// Messages sent by the callback in progress.
    outbox: Vec<Message>,
    rng: Rng,
    /// Every trace's name, built once: the text of a send to it.
    names: Vec<String>,
    /// One allocation per distinct message type or payload of the run.
    strings: HashSet<Rc<str>>,
}

impl World {
    fn shared(&mut self, s: &str) -> Rc<str> {
        match self.strings.get(s) {
            Some(shared) => Rc::clone(shared),
            None => {
                let shared: Rc<str> = Rc::from(s);
                self.strings.insert(Rc::clone(&shared));
                shared
            }
        }
    }
}

/// The API an actor uses to act on the world. Every operation records the
/// corresponding POET event and returns its identifier.
#[derive(Debug)]
pub struct Ctx<'a> {
    world: &'a mut World,
    me: TraceId,
}

impl Ctx<'_> {
    /// The trace this actor runs on.
    #[must_use]
    pub fn me(&self) -> TraceId {
        self.me
    }

    /// Records a purely local event.
    pub fn local(&mut self, ty: &str, text: &str) -> EventId {
        self.world
            .poet
            .record_id(self.me, EventKind::Unary, ty, text)
    }

    /// Sends a message: records the send event and enqueues delivery.
    /// The send event's text is the destination trace name, so cycle
    /// patterns can chain destinations with attribute variables. The
    /// receive event will use the same type.
    pub fn send(&mut self, to: TraceId, ty: &str, payload: &str) -> EventId {
        self.send_typed(to, ty, ty, payload)
    }

    /// Like [`Ctx::send`] but with a distinct event type for the receive
    /// endpoint (e.g. `mpi_send` / `mpi_recv`), so patterns can address
    /// the two ends separately.
    pub fn send_typed(
        &mut self,
        to: TraceId,
        send_ty: &str,
        recv_ty: &str,
        payload: &str,
    ) -> EventId {
        // The send is the one `blocked_send` records; this one is delivered.
        let send_event = self.blocked_send(to, send_ty);
        self.enqueue(to, recv_ty, payload, send_event)
    }

    /// Like [`Ctx::send_typed`] but with an explicit text attribute for
    /// the send event (instead of the destination trace name) — used when
    /// a pattern needs to correlate the two endpoints through a token.
    pub fn send_with_text(
        &mut self,
        to: TraceId,
        send_ty: &str,
        recv_ty: &str,
        payload: &str,
        send_text: &str,
    ) -> EventId {
        let send_event = self
            .world
            .poet
            .record_id(self.me, EventKind::Send, send_ty, send_text);
        self.enqueue(to, recv_ty, payload, send_event)
    }

    fn enqueue(
        &mut self,
        to: TraceId,
        recv_ty: &str,
        payload: &str,
        send_event: EventId,
    ) -> EventId {
        let message = Message {
            from: self.me,
            to,
            ty: self.world.shared(recv_ty),
            payload: self.world.shared(payload),
            send_event,
        };
        self.world.outbox.push(message);
        send_event
    }

    /// Records a blocking send that never completes (the §V-C1 deadlock
    /// ingredient): the send event exists, but no receive ever joins it,
    /// so blocked sends on different traces stay concurrent.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not one of the kernel's traces.
    pub fn blocked_send(&mut self, to: TraceId, ty: &str) -> EventId {
        let World { poet, names, .. } = &mut *self.world;
        poet.record_id(self.me, EventKind::Send, ty, &names[to.as_usize()])
    }

    /// A seeded random draw in `[0, 1)`, for probability-injected bugs.
    pub fn chance(&mut self, p: f64) -> bool {
        self.world.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// A seeded random integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0, "pick from an empty range");
        self.world.rng.gen_range(0..n)
    }
}

/// A simulated process, thread, or passive entity. One actor per trace.
pub trait Actor {
    /// Called once before any delivery.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);
    /// Called for each delivered message (after the kernel records the
    /// receive event).
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, recv_event: &Event);
}

/// The deterministic simulation kernel.
///
/// # Example
///
/// ```
/// use ocep_simulator::{Actor, Ctx, Message, SimKernel};
/// use ocep_poet::Event;
/// use ocep_vclock::TraceId;
///
/// struct Ping;
/// impl Actor for Ping {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         if ctx.me() == TraceId::new(0) {
///             ctx.send(TraceId::new(1), "ping", "");
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
///         if &*msg.ty == "ping" {
///             ctx.send(msg.from, "pong", "");
///         }
///     }
/// }
///
/// let mut kernel = SimKernel::new(2, 42);
/// kernel.add_actor(Ping);
/// kernel.add_actor(Ping);
/// let poet = kernel.run(100);
/// assert_eq!(poet.store().len(), 4); // ping send+recv, pong send+recv
/// ```
pub struct SimKernel {
    world: World,
    actors: Vec<Box<dyn Actor>>,
    in_flight: Vec<Message>,
}

impl std::fmt::Debug for SimKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimKernel")
            .field("n_traces", &self.world.poet.n_traces())
            .field("actors", &self.actors.len())
            .field("in_flight", &self.in_flight.len())
            .finish()
    }
}

impl SimKernel {
    /// Creates a kernel for `n_traces` traces with a deterministic seed.
    #[must_use]
    pub fn new(n_traces: usize, seed: u64) -> Self {
        SimKernel {
            world: World {
                poet: PoetServer::new(n_traces),
                outbox: Vec::new(),
                rng: Rng::seed_from_u64(seed),
                names: (0..n_traces as u32)
                    .map(|t| TraceId::new(t).to_string())
                    .collect(),
                strings: HashSet::new(),
            },
            actors: Vec::new(),
            in_flight: Vec::new(),
        }
    }

    /// Registers the next actor; actor `i` runs on trace `i`.
    pub fn add_actor(&mut self, actor: impl Actor + 'static) {
        assert!(
            self.actors.len() < self.world.poet.n_traces(),
            "more actors than traces"
        );
        self.actors.push(Box::new(actor));
    }

    /// Runs the simulation: starts every actor, then delivers randomly
    /// chosen in-flight messages until quiescence or until more than
    /// `max_events` events have been recorded. Returns the populated
    /// tracer.
    ///
    /// # Panics
    ///
    /// Panics if fewer actors than traces were registered.
    #[must_use]
    pub fn run(mut self, max_events: usize) -> PoetServer {
        assert_eq!(
            self.actors.len(),
            self.world.poet.n_traces(),
            "every trace needs an actor"
        );
        for (i, actor) in self.actors.iter_mut().enumerate() {
            actor.on_start(&mut Ctx {
                world: &mut self.world,
                me: TraceId::new(i as u32),
            });
        }
        self.in_flight.append(&mut self.world.outbox);

        while !self.in_flight.is_empty() && self.world.poet.store().len() < max_events {
            let pick = self.world.rng.gen_range(0..self.in_flight.len());
            let msg = self.in_flight.swap_remove(pick);
            // The actor is handed its own copy of the receive: it may
            // record more events while it still holds this one.
            let recv =
                self.world
                    .poet
                    .record_receive(msg.to, msg.send_event, &*msg.ty, &*msg.payload);
            let mut ctx = Ctx {
                world: &mut self.world,
                me: msg.to,
            };
            self.actors[msg.to.as_usize()].on_message(&mut ctx, &msg, &recv);
            self.in_flight.append(&mut self.world.outbox);
        }
        self.world.poet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        peers: Vec<TraceId>,
        remaining: u32,
    }

    impl Actor for Counter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for &p in &self.peers {
                ctx.send(p, "hello", "");
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _recv: &Event) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(msg.from, "reply", "");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let build = |seed| {
            let mut k = SimKernel::new(3, seed);
            for i in 0..3u32 {
                k.add_actor(Counter {
                    peers: (0..3).filter(|&j| j != i).map(TraceId::new).collect(),
                    remaining: 3,
                });
            }
            let poet = k.run(10_000);
            poet.store()
                .iter_arrival()
                .map(|e| (e.id(), e.ty().to_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(1), build(1));
        assert_ne!(
            build(1),
            build(2),
            "different seeds should interleave differently"
        );
    }

    #[test]
    fn run_stops_at_event_budget() {
        struct Flood;
        impl Actor for Flood {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(TraceId::new(1), "x", "");
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: &Message, _r: &Event) {
                ctx.send(msg.from, "x", "");
            }
        }
        let mut k = SimKernel::new(2, 0);
        k.add_actor(Flood);
        k.add_actor(Flood);
        let poet = k.run(500);
        assert!(poet.store().len() >= 500);
        assert!(poet.store().len() < 510);
    }

    #[test]
    #[should_panic(expected = "every trace needs an actor")]
    fn run_requires_all_actors() {
        let k = SimKernel::new(2, 0);
        let _ = k.run(10);
    }

    #[test]
    fn ctx_randomness_is_seed_deterministic() {
        struct Probe {
            draws: std::rc::Rc<std::cell::RefCell<Vec<usize>>>,
        }
        impl Actor for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..10 {
                    let v = ctx.pick(100);
                    let c = usize::from(ctx.chance(0.5));
                    self.draws.borrow_mut().push(v * 2 + c);
                }
                ctx.local("done", "");
            }
            fn on_message(&mut self, _c: &mut Ctx<'_>, _m: &Message, _r: &Event) {}
        }
        let run = |seed| {
            let draws = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let mut k = SimKernel::new(1, seed);
            k.add_actor(Probe {
                draws: std::rc::Rc::clone(&draws),
            });
            let _ = k.run(100);
            std::rc::Rc::try_unwrap(draws).unwrap().into_inner()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn blocked_send_has_no_receive_and_stays_concurrent() {
        struct Blocker;
        impl Actor for Blocker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let other = TraceId::new(1 - ctx.me().as_u32());
                ctx.blocked_send(other, "mpi_block_send");
            }
            fn on_message(&mut self, _c: &mut Ctx<'_>, _m: &Message, _r: &Event) {}
        }
        let mut k = SimKernel::new(2, 0);
        k.add_actor(Blocker);
        k.add_actor(Blocker);
        let poet = k.run(100);
        // Exactly the two sends, no receives, mutually concurrent.
        assert_eq!(poet.store().len(), 2);
        let evs: Vec<_> = poet.store().iter_arrival().collect();
        assert!(evs[0].stamp().concurrent_with(evs[1].stamp()));
    }

    #[test]
    #[should_panic(expected = "more actors than traces")]
    fn too_many_actors_rejected() {
        struct Noop;
        impl Actor for Noop {
            fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _m: &Message, _r: &Event) {}
        }
        let mut k = SimKernel::new(1, 0);
        k.add_actor(Noop);
        k.add_actor(Noop);
    }
}
