//! The ring-buffer flight recorder and its shared handle.

use crate::event::{Resolve, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Flight-recorder tunables.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Ring capacity: the recorder keeps the most recent this-many events,
    /// dropping the oldest (drops are counted, never silent).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 8192 }
    }
}

/// One recorded event: the simulated-cycle timestamp at emission and the
/// typed payload, 32 bytes.
///
/// An event's sequence number — its emission order, 0-based and monotone
/// over the whole run — is not stored: the ring holds a contiguous run of
/// the emitted events, so the `i`-th retained one is `first + i`, where a
/// [`TraceLog`] or a copied tail carries its `first`. Gaps at the front
/// still reveal dropped history.
#[derive(Clone, Debug, PartialEq)]
pub struct Recorded {
    /// Simulated cycles at emission (never wall-clock time).
    pub cycle: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl Recorded {
    /// Renders the event, emitted as number `seq`, as one line of the
    /// recovery ledger's dump, `#seq @cycle kind key=value …`.
    pub fn dump_line(&self, seq: u64, resolve: Resolve) -> String {
        format!("#{seq} @{} {}", self.cycle, self.event.render(resolve))
    }
}

/// The fixed-capacity ring buffer behind a [`TraceSink`].
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    config: TraceConfig,
    ring: VecDeque<Recorded>,
    emitted: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Creates an empty recorder. The ring grows on demand up to the
    /// configured capacity: most runs emit far fewer events than that.
    fn new(config: TraceConfig) -> Self {
        FlightRecorder { config, ring: VecDeque::new(), emitted: 0, dropped: 0 }
    }

    /// Records `event` at simulated cycle `cycle`, evicting the oldest
    /// entry when the ring is full.
    fn emit(&mut self, cycle: u64, event: TraceEvent) {
        self.emitted += 1;
        if self.config.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() >= self.config.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(Recorded { cycle, event });
    }

    /// Snapshots the retained events and counters into an owned log.
    fn log(&self) -> TraceLog {
        TraceLog {
            events: self.ring.iter().cloned().collect(),
            emitted: self.emitted,
            dropped: self.dropped,
        }
    }

    /// Consumes the recorder into an owned log: the ring's storage moves
    /// into [`TraceLog::events`] (shrunk to fit) instead of being copied.
    fn into_log(self) -> TraceLog {
        let mut events = Vec::from(self.ring);
        events.shrink_to_fit();
        TraceLog { events, emitted: self.emitted, dropped: self.dropped }
    }
}

/// A cheaply-cloneable handle to one flight-recorder ring, shared by every
/// emitting layer (VM, listeners, driver) of a single-threaded AOS run.
///
/// Emitting through the sink charges **no simulated cycles** and touches no
/// wall clock, so a traced run is metrically identical to an untraced one.
#[derive(Clone, Debug)]
pub struct TraceSink {
    recorder: Rc<RefCell<FlightRecorder>>,
}

impl TraceSink {
    /// Creates a sink over a fresh recorder.
    pub fn new(config: TraceConfig) -> Self {
        TraceSink { recorder: Rc::new(RefCell::new(FlightRecorder::new(config))) }
    }

    /// Records `event` at simulated cycle `cycle`.
    pub fn emit(&self, cycle: u64, event: TraceEvent) {
        self.recorder.borrow_mut().emit(cycle, event);
    }

    /// Snapshots the current log.
    pub fn log(&self) -> TraceLog {
        self.recorder.borrow().log()
    }

    /// Consumes the sink into the final log. When this is the last handle
    /// the ring moves into the log; otherwise it is snapshotted.
    pub fn into_log(self) -> TraceLog {
        match Rc::try_unwrap(self.recorder) {
            Ok(recorder) => recorder.into_inner().into_log(),
            Err(shared) => shared.borrow().log(),
        }
    }

    /// Replaces `out` with the last `n` retained events, oldest first, and
    /// returns the sequence number of the first — the raw tail the AOS
    /// keeps in its recovery ledger and renders (with
    /// [`Recorded::dump_line`]) only when the ledger is read.
    pub fn copy_tail(&self, n: usize, out: &mut Vec<Recorded>) -> u64 {
        let recorder = self.recorder.borrow();
        let ring = &recorder.ring;
        let skip = ring.len().saturating_sub(n);
        out.clear();
        out.extend(ring.iter().skip(skip).cloned());
        recorder.emitted - (ring.len() - skip) as u64
    }
}

/// An owned snapshot of the flight recorder: the retained events plus
/// lifetime counters. Produced by [`TraceSink::log`]; consumed by the
/// export sinks in `crate::sinks`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// Retained events, oldest first.
    pub events: Vec<Recorded>,
    /// Events emitted over the run (including dropped ones).
    pub emitted: u64,
    /// Events evicted from the ring (emitted − retained).
    pub dropped: u64,
}

impl TraceLog {
    /// The sequence number of the oldest retained event: `events[i]` was
    /// emitted as number `first_seq() + i`.
    pub fn first_seq(&self) -> u64 {
        self.emitted - self.events.len() as u64
    }

    /// The retained events with their sequence numbers, oldest first.
    pub fn numbered(&self) -> impl Iterator<Item = (u64, &Recorded)> {
        (self.first_seq()..).zip(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aoci_ir::MethodId;

    fn tick(n: u64) -> TraceEvent {
        TraceEvent::SampleTick {
            tick: n,
            method: MethodId::from_index(0),
            in_prologue: false,
            dropped: false,
        }
    }

    #[test]
    fn a_ring_slot_is_32_bytes() {
        // A traced run keeps thousands of these until its report is read, and
        // a sweep holds many runs' logs at once: they are nearly all of a
        // traced report's footprint. A variant that would make the event
        // wider than 24 bytes boxes its payload, or it grows every slot.
        // The slot holds no sequence number: it is derived from position.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 24);
        assert_eq!(std::mem::size_of::<Recorded>(), 32);
    }

    #[test]
    fn recorded_stays_within_sixty_four_bytes() {
        // A run holds thousands of these, and a sweep holds many runs' logs
        // at once — they are nearly all of a traced report's footprint. No
        // event variant may own more than one heap string, and reasons are
        // one-byte enums rendered through their `&'static str` labels.
        assert!(std::mem::size_of::<Recorded>() <= 64, "{}", std::mem::size_of::<Recorded>());
    }

    /// The sequence numbers a log and a copied tail derive are the ones the
    /// events were emitted under, across a ring that wrapped.
    #[test]
    fn derived_seqs_survive_wraparound() {
        let sink = TraceSink::new(TraceConfig { capacity: 3 });
        for n in 0..5 {
            sink.emit(n * 10, tick(n));
        }
        // `tick(n)` is event #n, emitted at cycle 10·n.
        let seq_of = |r: &Recorded| match r.event {
            TraceEvent::SampleTick { tick, .. } => tick,
            _ => unreachable!("only ticks were emitted"),
        };
        let log = sink.log();
        assert_eq!(log.first_seq(), 2);
        for (seq, r) in log.numbered() {
            assert_eq!((seq, r.cycle), (seq_of(r), seq_of(r) * 10));
        }
        assert_eq!(log.numbered().map(|(seq, _)| seq).collect::<Vec<_>>(), [2, 3, 4]);
        let mut tail = Vec::new();
        for n in [0, 2, 3, 9] {
            let first = sink.copy_tail(n, &mut tail);
            let seqs: Vec<u64> = (first..).zip(&tail).map(|(seq, _)| seq).collect();
            assert_eq!(seqs, tail.iter().map(seq_of).collect::<Vec<_>>(), "tail of {n}");
            assert_eq!(first + tail.len() as u64, 5);
        }
    }

    #[test]
    fn into_log_moves_the_ring_and_shrinks_it() {
        let sink = TraceSink::new(TraceConfig { capacity: 3 });
        for n in 0..5 {
            sink.emit(n, tick(n));
        }
        let snapshot = sink.log();
        let shared = sink.clone();
        assert_eq!(shared.into_log(), snapshot, "a shared handle falls back to a snapshot");
        let log = sink.into_log();
        assert_eq!(log, snapshot, "the last handle moves the same events out");
        assert_eq!(log.events.capacity(), 3);
        assert_eq!((log.emitted, log.dropped, log.first_seq()), (5, 2, 2));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = FlightRecorder::new(TraceConfig { capacity: 3 });
        for n in 0..5 {
            r.emit(n * 10, tick(n));
        }
        let log = r.log();
        assert_eq!(log.emitted, 5);
        assert_eq!(log.dropped, 2);
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.first_seq(), 2, "oldest retained event is #2");
        assert_eq!(log.events[2].cycle, 40);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut r = FlightRecorder::new(TraceConfig { capacity: 0 });
        r.emit(1, tick(0));
        let log = r.log();
        assert_eq!((log.emitted, log.dropped), (1, 1));
        assert!(log.events.is_empty());
    }

    #[test]
    fn sink_clones_share_one_ring() {
        let a = TraceSink::new(TraceConfig::default());
        let b = a.clone();
        a.emit(5, tick(0));
        b.emit(6, tick(1));
        let log = a.log();
        assert_eq!(log.emitted, 2);
        assert_eq!(log.events[0].cycle, 5);
        assert_eq!(log.events[1].cycle, 6);
    }

    #[test]
    fn copy_tail_takes_the_last_events() {
        let sink = TraceSink::new(TraceConfig { capacity: 10 });
        for n in 0..4 {
            sink.emit(n, tick(n));
        }
        let resolve = |m: MethodId| format!("m{}", m.index());
        let mut tail = vec![Recorded { cycle: 9, event: tick(9) }];
        let first = sink.copy_tail(2, &mut tail);
        let dump: Vec<String> =
            (first..).zip(&tail).map(|(seq, r)| r.dump_line(seq, &resolve)).collect();
        assert_eq!(dump.len(), 2, "the previous tail is replaced");
        assert!(dump[0].starts_with("#2 @2 sample-tick"), "{}", dump[0]);
        assert!(dump[1].starts_with("#3 @3 sample-tick"), "{}", dump[1]);
    }
}
