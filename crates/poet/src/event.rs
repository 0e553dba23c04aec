//! The traced-event model.

use ocep_vclock::{EventId, EventIndex, StampedEvent, TraceId, VectorClock};
use std::sync::Arc;

/// The communication role of an event.
///
/// How an event is causally related to events on *other* traces is only
/// affected by messages (§VI of the paper), so the tracer distinguishes
/// message endpoints from purely local activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A message-send endpoint.
    Send,
    /// A message-receive endpoint (carries a [`Event::partner`]).
    Receive,
    /// A unary (purely local) event.
    Unary,
}

impl EventKind {
    /// True for message endpoints ([`EventKind::Send`] or
    /// [`EventKind::Receive`]). These are the events that change a trace's
    /// causal relationship with other traces; the O(1) history dedup of
    /// §VI keys on them.
    #[must_use]
    pub fn is_communication(self) -> bool {
        matches!(self, EventKind::Send | EventKind::Receive)
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EventKind::Send => "send",
            EventKind::Receive => "receive",
            EventKind::Unary => "unary",
        };
        f.write_str(s)
    }
}

/// One instrumented event collected by the tracer.
///
/// Carries everything a pattern can refer to: the trace it occurred on and
/// its position (via the [`StampedEvent`]), the event *type* and free-form
/// *text* attribute of the `[process, type, text]` class tuples of §III-A,
/// the communication [`EventKind`], and (for receives) the identifier of
/// the partner send.
///
/// `Event::clone` is O(1) regardless of the trace count: the type and
/// text strings *and* the vector-timestamp buffer are `Arc`-shared, so
/// the matcher can copy candidate events freely on its hot path without
/// touching the allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    stamp: StampedEvent,
    kind: EventKind,
    ty: Arc<str>,
    text: Arc<str>,
    partner: Option<EventId>,
}

impl Event {
    /// Assembles an event. Library users normally obtain events from
    /// [`crate::PoetServer`] instead.
    #[must_use]
    pub fn new(
        stamp: StampedEvent,
        kind: EventKind,
        ty: impl Into<Arc<str>>,
        text: impl Into<Arc<str>>,
        partner: Option<EventId>,
    ) -> Self {
        Event {
            stamp,
            kind,
            ty: ty.into(),
            text: text.into(),
            partner,
        }
    }

    /// The event's global identifier.
    #[must_use]
    pub fn id(&self) -> EventId {
        self.stamp.id()
    }

    /// The trace the event occurred on.
    #[must_use]
    pub fn trace(&self) -> TraceId {
        self.stamp.trace()
    }

    /// The event's 1-based position on its trace.
    #[must_use]
    pub fn index(&self) -> EventIndex {
        self.stamp.index()
    }

    /// The event's position and vector timestamp.
    #[must_use]
    pub fn stamp(&self) -> &StampedEvent {
        &self.stamp
    }

    /// The event's vector timestamp.
    #[must_use]
    pub fn clock(&self) -> &VectorClock {
        self.stamp.clock()
    }

    /// The communication role.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// The event type — the second attribute of a `[process, type, text]`
    /// class tuple.
    #[must_use]
    pub fn ty(&self) -> &str {
        &self.ty
    }

    /// The free-form text attribute — the third attribute of a class tuple.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// For a receive, the identifier of the matching send.
    #[must_use]
    pub fn partner(&self) -> Option<EventId> {
        self.partner
    }

    /// Interns this event's clock through `pool` (keyed by trace), so
    /// value-equal clocks — duplicate deliveries, resends after a
    /// reconnect — share one pointer-equal buffer. Value-wise a no-op.
    /// Only the repository benchmark still calls this; the serving
    /// engine does not intern (see [`ocep_vclock::ClockPool`]).
    pub fn intern_clock(&mut self, pool: &mut ocep_vclock::ClockPool) {
        self.stamp.intern_clock(pool);
    }

    /// Shared handle to the type string (used by stores to avoid copies).
    #[must_use]
    pub fn ty_arc(&self) -> Arc<str> {
        Arc::clone(&self.ty)
    }

    /// Shared handle to the text string.
    #[must_use]
    pub fn text_arc(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}({:?})", self.stamp.id(), self.ty, self.kind)?;
        if !self.text.is_empty() {
            write!(f, " '{}'", self.text)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_vclock::ClockAssigner;

    #[test]
    fn kind_communication_classification() {
        assert!(EventKind::Send.is_communication());
        assert!(EventKind::Receive.is_communication());
        assert!(!EventKind::Unary.is_communication());
    }

    #[test]
    fn event_exposes_attributes() {
        let mut asn = ClockAssigner::new(1);
        let s = asn.local(TraceId::new(0));
        let e = Event::new(s, EventKind::Unary, "green", "north", None);
        assert_eq!(e.ty(), "green");
        assert_eq!(e.text(), "north");
        assert_eq!(e.partner(), None);
        assert_eq!(e.trace(), TraceId::new(0));
        assert_eq!(e.index().get(), 1);
    }

    #[test]
    fn clone_is_o1_and_shares_the_clock_buffer() {
        // The matcher clones an Event per candidate tried; with many
        // traces that must never copy the `n_traces`-sized timestamp.
        let mut asn = ClockAssigner::new(64);
        let s = asn.local(TraceId::new(7));
        let e = Event::new(s, EventKind::Unary, "green", "north", None);
        let c = e.clone();
        assert!(
            e.clock().shares_buffer(c.clock()),
            "Event::clone must share the vector-clock buffer, not copy it"
        );
        // And so do further copies made from the clone.
        let cc = c.clone();
        assert!(e.clock().shares_buffer(cc.clock()));
    }

    #[test]
    fn display_is_informative() {
        let mut asn = ClockAssigner::new(1);
        let s = asn.local(TraceId::new(0));
        let e = Event::new(s, EventKind::Send, "req", "x", None);
        let shown = e.to_string();
        assert!(shown.contains("req"));
        assert!(shown.contains("T0:1"));
    }
}
