//! Identifier newtypes for traces and events.

/// Identifies one *trace* in a monitored computation.
///
/// A trace is any relevant entity with sequential behaviour (§III-A of the
/// paper): a process, a thread, or a passive entity such as a semaphore or
/// a communication channel. Traces are numbered densely from zero.
///
/// ```
/// use ocep_vclock::TraceId;
/// let t = TraceId::new(3);
/// assert_eq!(t.as_usize(), 3);
/// assert_eq!(t.to_string(), "T3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(u32);

impl TraceId {
    /// Creates a trace identifier from its dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        TraceId(index)
    }

    /// The dense index of this trace, usable as an array offset.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The raw numeric value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for TraceId {
    fn from(value: u32) -> Self {
        TraceId(value)
    }
}

impl From<TraceId> for u32 {
    fn from(value: TraceId) -> Self {
        value.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Parses a trace's display name, and only that spelling: `T`, then
/// decimal digits with no sign and no leading zero (`T0`, `T7`, `T12`).
///
/// ```
/// use ocep_vclock::TraceId;
/// assert_eq!("T12".parse::<TraceId>(), Ok(TraceId::new(12)));
/// for bad in ["T", "T+1", "T01", "t1", "T1 ", "T99999999999"] {
///     assert!(bad.parse::<TraceId>().is_err(), "{bad}");
/// }
/// ```
impl std::str::FromStr for TraceId {
    type Err = ParseTraceIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.strip_prefix('T').ok_or(ParseTraceIdError)?;
        // `u32::from_str` alone would also take a `+` sign and leading zeros.
        if digits.is_empty()
            || !digits.bytes().all(|b| b.is_ascii_digit())
            || (digits.len() > 1 && digits.starts_with('0'))
        {
            return Err(ParseTraceIdError);
        }
        digits.parse().map(TraceId).map_err(|_| ParseTraceIdError)
    }
}

/// A string that is not a trace's display name (see [`TraceId`]'s
/// `FromStr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseTraceIdError;

impl std::fmt::Display for ParseTraceIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("not a trace name (T followed by a decimal index)")
    }
}

impl std::error::Error for ParseTraceIdError {}

/// The 1-based position of an event on its trace.
///
/// Events on a single trace are totally ordered; the index is the event's
/// rank in that order. Index `0` is reserved to mean "before the first
/// event" in interval arithmetic, so real events start at `1`. Under the
/// Fidge clock convention, an event's own clock entry equals its index.
///
/// ```
/// use ocep_vclock::EventIndex;
/// let i = EventIndex::new(5);
/// assert_eq!(i.get(), 5);
/// assert_eq!(i.prev(), Some(EventIndex::new(4)));
/// assert_eq!(EventIndex::new(1).prev(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventIndex(u32);

impl EventIndex {
    /// Creates an event index. Real events use indices `>= 1`.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        EventIndex(index)
    }

    /// The sentinel index denoting "before any event on the trace".
    pub const ZERO: EventIndex = EventIndex(0);

    /// The raw 1-based index.
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The index of the previous event on the same trace, if any.
    #[must_use]
    pub fn prev(self) -> Option<EventIndex> {
        if self.0 > 1 {
            Some(EventIndex(self.0 - 1))
        } else {
            None
        }
    }

    /// The index of the next event on the same trace.
    #[must_use]
    pub const fn next(self) -> EventIndex {
        EventIndex(self.0 + 1)
    }
}

impl From<u32> for EventIndex {
    fn from(value: u32) -> Self {
        EventIndex(value)
    }
}

impl From<EventIndex> for u32 {
    fn from(value: EventIndex) -> Self {
        value.0
    }
}

impl std::fmt::Display for EventIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Globally identifies an event as a (trace, index) pair.
///
/// The pair identifies an event uniquely in the whole computation and is
/// the tiebreak used to distinguish equality from concurrency after the
/// vector-clock comparison (§III-A: "two more integer comparisons between
/// process numbers and event numbers").
///
/// ```
/// use ocep_vclock::{EventId, EventIndex, TraceId};
/// let e = EventId::new(TraceId::new(1), EventIndex::new(7));
/// assert_eq!(e.to_string(), "T1:7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId {
    trace: TraceId,
    index: EventIndex,
}

impl EventId {
    /// Creates an event identifier.
    #[must_use]
    pub const fn new(trace: TraceId, index: EventIndex) -> Self {
        EventId { trace, index }
    }

    /// The trace the event occurred on.
    #[must_use]
    pub const fn trace(self) -> TraceId {
        self.trace
    }

    /// The event's 1-based position on its trace.
    #[must_use]
    pub const fn index(self) -> EventIndex {
        self.index
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.trace, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips_through_u32() {
        let t = TraceId::new(42);
        assert_eq!(TraceId::from(u32::from(t)), t);
        assert_eq!(t.as_usize(), 42);
    }

    #[test]
    fn event_index_prev_next() {
        let i = EventIndex::new(2);
        assert_eq!(i.next().get(), 3);
        assert_eq!(i.prev().unwrap().get(), 1);
        assert_eq!(EventIndex::ZERO.get(), 0);
        assert_eq!(EventIndex::new(1).prev(), None);
    }

    #[test]
    fn event_id_orders_by_trace_then_index() {
        let a = EventId::new(TraceId::new(0), EventIndex::new(9));
        let b = EventId::new(TraceId::new(1), EventIndex::new(1));
        assert!(a < b);
        let c = EventId::new(TraceId::new(1), EventIndex::new(2));
        assert!(b < c);
    }
}
