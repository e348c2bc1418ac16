//! Streams and events: the asynchronous half of the host API.
//!
//! A [`Stream`] is the CUDA-stream / OpenCL-command-queue analogue: work
//! enqueued on one stream executes in enqueue order, work on different
//! streams may overlap wherever it occupies different device engines
//! (H2D DMA, D2H DMA, compute — see
//! [`gpucmp_sim::timing::TimelineResource`]). Every enqueue returns an
//! [`Event`] that identifies the op's completion on the virtual timeline;
//! events order work across streams ([`crate::Gpu::stream_wait_event`])
//! and gate host-side synchronisation
//! ([`crate::Gpu::event_synchronize`]).
//!
//! ## Execution model
//!
//! Side effects are **eager**, timing is **lazy**. An enqueued transfer
//! copies its bytes and an enqueued launch runs the simulator immediately
//! (so data flow follows enqueue order, which within a stream *is*
//! execution order), but no virtual time passes at enqueue. The op is
//! placed on the device timeline at the next synchronisation point, where
//! the deterministic scheduler in `gpucmp_sim::timing` computes overlap
//! per engine. The host clock never goes backwards: synchronisation only
//! ever advances it to the completion time it waited for.
//!
//! The classic synchronous API (`h2d`, `d2h`, `launch`) is sugar over
//! [`Stream::DEFAULT`]: enqueue one op, then synchronise on its event —
//! which reproduces the fully serial timeline exactly.

use std::fmt;

use crate::gpu::SessionEvent;
use gpucmp_sim::timing::TimelineOp;

/// Handle to a stream of a session.
///
/// Stream `0` is the *default stream* every synchronous call uses;
/// additional streams come from [`crate::Gpu::create_stream`]. Handles are
/// invalidated by [`crate::Session::reset`] (like every other handle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stream(pub(crate) u32);

impl Stream {
    /// The implicit default stream backing the synchronous API.
    pub const DEFAULT: Stream = Stream(0);

    /// Numeric stream id (0 = default stream).
    pub fn id(self) -> u32 {
        self.0
    }

    /// Whether this is the default stream.
    pub fn is_default(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_default() {
            f.write_str("default stream")
        } else {
            write!(f, "stream {}", self.0)
        }
    }
}

/// Completion marker of one enqueued op, identified by
/// `(stream, per-stream sequence number)` — the same key the timeline
/// scheduler uses, so an event names a unique point on the virtual
/// timeline regardless of host-side enqueue interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    stream: u32,
    seq: u64,
}

impl Event {
    pub(crate) fn new(stream: u32, seq: u64) -> Self {
        Event { stream, seq }
    }

    /// Id of the stream the recorded op belongs to.
    pub fn stream_id(self) -> u32 {
        self.stream
    }

    /// Per-stream sequence number of the recorded op.
    pub fn seq(self) -> u64 {
        self.seq
    }

    pub(crate) fn key(self) -> (u32, u64) {
        (self.stream, self.seq)
    }
}

/// What [`crate::Session::reset`] found and discarded: enqueued stream
/// work that had not yet been committed to the timeline is *cancelled*,
/// not silently dropped, and reported here.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResetReport {
    /// Enqueued-but-uncommitted ops cancelled by the reset.
    pub cancelled_ops: usize,
    /// The same ops grouped `(stream id, op count)`, ascending by stream.
    pub cancelled_by_stream: Vec<(u32, usize)>,
    /// Completed d2h payloads that were never taken by the host.
    pub dropped_readbacks: usize,
    /// Loaded kernels whose pre-decoded code the reset dropped.
    pub evicted_kernels: usize,
    /// The sticky fault that poisoned the context, if the reset cleared one.
    pub fault: Option<String>,
}

impl ResetReport {
    /// Whether the reset discarded any in-flight work or data.
    pub fn lost_work(&self) -> bool {
        self.cancelled_ops > 0 || self.dropped_readbacks > 0
    }
}

impl fmt::Display for ResetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reset: {} pending op(s) cancelled, {} readback(s) dropped",
            self.cancelled_ops, self.dropped_readbacks
        )?;
        if let Some(fault) = &self.fault {
            write!(f, " (context was lost to: {fault})")?;
        }
        Ok(())
    }
}

/// Host-side state of one stream.
#[derive(Clone, Debug, Default)]
pub(crate) struct StreamState {
    /// Next per-stream sequence number to hand out.
    pub next_seq: u64,
    /// Events recorded by `stream_wait_event` that the *next* enqueued op
    /// must wait on (subsequent ops inherit the ordering transitively
    /// through in-stream program order).
    pub pending_deps: Vec<(u32, u64)>,
    /// Description of the device fault raised by a launch on this stream,
    /// if any (the per-stream face of the sticky context poison).
    pub error: Option<String>,
}

/// One enqueued-but-uncommitted op.
#[derive(Clone, Debug)]
pub(crate) struct PendingOp {
    pub op: TimelineOp,
    /// The trace records the op emits once the scheduler has placed it
    /// (see `SessionEvent::place`); empty when tracing was off at enqueue.
    pub events: Vec<SessionEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_display_and_default() {
        assert!(Stream::DEFAULT.is_default());
        assert_eq!(Stream::DEFAULT.to_string(), "default stream");
        assert_eq!(Stream(3).to_string(), "stream 3");
        assert_eq!(Stream(3).id(), 3);
    }

    #[test]
    fn event_identifies_its_op() {
        let e = Event::new(2, 7);
        assert_eq!(e.stream_id(), 2);
        assert_eq!(e.seq(), 7);
        assert_eq!(e.key(), (2, 7));
    }

    #[test]
    fn reset_report_formats_losses() {
        let r = ResetReport {
            cancelled_ops: 3,
            cancelled_by_stream: vec![(0, 1), (2, 2)],
            dropped_readbacks: 1,
            evicted_kernels: 2,
            fault: Some("kernel `k`: out-of-bounds".into()),
        };
        assert!(r.lost_work());
        let msg = r.to_string();
        assert!(msg.contains("3 pending op(s)"));
        assert!(msg.contains("out-of-bounds"));
        assert!(!ResetReport::default().lost_work());
    }
}
