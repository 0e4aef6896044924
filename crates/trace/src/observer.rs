//! The instrumentation-facing side of the telemetry layer.
//!
//! Instrumented code (simulator, runner, governor) records raw
//! [`TraceEvent`]s into an [`EventBuffer`]. The buffer locks internally,
//! so the simulator can record while the runner holds `&mut System`.
//!
//! The [`StreamFinalizer`] sits between raw events and [`Sink`]s: once the
//! runner has merged per-item buffers into the canonical order, the
//! finalizer assigns sequence numbers and the modelled campaign clock.
//!
//! [`Sink`]: crate::sink::Sink

use crate::event::{TraceEvent, TraceRecord};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An ordered in-memory buffer of raw events — the per-work-item staging
/// area that makes sharded tracing deterministic: each sweep's events are
/// buffered here, and the runner merges whole buffers in canonical item
/// order regardless of which worker finished first.
#[derive(Debug, Default)]
pub struct EventBuffer {
    events: Mutex<Vec<TraceEvent>>,
}

impl EventBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        EventBuffer::default()
    }

    /// Appends one event.
    pub fn record(&self, event: TraceEvent) {
        self.events().push(event);
    }

    /// Removes and returns everything buffered so far, in emission order.
    #[must_use]
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events())
    }

    /// Locks the buffer, recovering it if a recording thread panicked: a
    /// push either happened or did not, so the events are consistent.
    fn events(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Assigns sequence numbers and the modelled campaign clock to a stream of
/// raw events arriving in canonical order.
///
/// The clock is the running sum of modelled run durations (golden runs and
/// characterization runs); an executed event is stamped with the clock
/// *after* its own duration, so `t_model_s` is monotonically non-decreasing
/// over the stream and never involves wall-clock time.
#[derive(Debug, Clone, Default)]
pub struct StreamFinalizer {
    seq: u64,
    clock_s: f64,
}

impl StreamFinalizer {
    /// A finalizer at sequence 0, modelled time 0.
    #[must_use]
    pub fn new() -> Self {
        StreamFinalizer::default()
    }

    /// Stamps one event.
    pub fn seal(&mut self, event: TraceEvent) -> TraceRecord {
        self.clock_s += event.modelled_duration_s();
        let record = TraceRecord {
            seq: self.seq,
            t_model_s: self.clock_s,
            event,
        };
        self.seq += 1;
        record
    }
}

/// Re-seals several finalized record streams into one canonical stream.
///
/// Concatenating sealed streams byte-for-byte is never valid: each input
/// starts its own sequence at 0 and its own modelled clock at 0, so the
/// result would violate the dense-sequence and monotonic-time contracts
/// [`validate_records`](crate::validate::validate_records) enforces.
/// Instead the merge strips every record back to its raw event and stamps
/// the whole concatenation through **one** fresh [`StreamFinalizer`] — a
/// pure function of the inputs and their order, so merging N per-chip
/// fleet streams in canonical chip order yields bytes identical to N
/// sequential campaigns sealed through a single finalizer.
#[must_use]
pub fn merge_streams<'a, I>(streams: I) -> Vec<TraceRecord>
where
    I: IntoIterator<Item = &'a [TraceRecord]>,
{
    let mut finalizer = StreamFinalizer::new();
    let mut merged = Vec::new();
    for stream in streams {
        for record in stream {
            merged.push(finalizer.seal(record.event.clone()));
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(runtime_s: f64) -> TraceEvent {
        TraceEvent::RunCompleted {
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            mv: 890,
            iteration: 0,
            effects: "NO".into(),
            severity: 0.0,
            runtime_s,
            energy_j: 1e-2,
            corrected_errors: 0,
            uncorrected_errors: 0,
        }
    }

    #[test]
    fn buffer_preserves_emission_order() {
        let buf = EventBuffer::new();
        buf.record(TraceEvent::WatchdogPowerCycle { recovery: 2 });
        buf.record(run(0.5));
        let events = buf.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name(), "WatchdogPowerCycle");
        assert_eq!(events[1].name(), "RunCompleted");
        assert!(buf.drain().is_empty());
    }

    #[test]
    fn buffer_survives_a_panicking_recorder() {
        let buf = EventBuffer::new();
        buf.record(run(0.5));
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _events = buf.events.lock();
                panic!("a worker dies mid-record");
            });
            assert!(holder.join().is_err());
        });
        assert!(buf.events.is_poisoned());

        buf.record(TraceEvent::WatchdogPowerCycle { recovery: 1 });
        assert_eq!(buf.drain().len(), 2);
        assert!(buf.drain().is_empty());
    }

    #[test]
    fn finalizer_advances_the_modelled_clock() {
        let mut fin = StreamFinalizer::new();
        let a = fin.seal(TraceEvent::WatchdogPowerCycle { recovery: 1 });
        let b = fin.seal(run(0.25));
        let c = fin.seal(TraceEvent::WatchdogPowerCycle { recovery: 2 });
        assert_eq!((a.seq, b.seq, c.seq), (0, 1, 2));
        assert!(a.t_model_s.abs() < 1e-12);
        assert!((b.t_model_s - 0.25).abs() < 1e-12);
        assert!((c.t_model_s - 0.25).abs() < 1e-12);
        assert_eq!(fin.seq, 3);
    }

    #[test]
    fn merge_reseals_sequence_and_clock_across_streams() {
        let mut fin = StreamFinalizer::new();
        let first: Vec<TraceRecord> = vec![fin.seal(run(0.25)), fin.seal(run(0.5))];
        let mut fin = StreamFinalizer::new();
        let second: Vec<TraceRecord> = vec![fin.seal(run(1.0))];

        // Both inputs restart seq/clock at zero; the merge must not.
        let merged = merge_streams([first.as_slice(), second.as_slice()]);
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!((merged[2].t_model_s - 1.75).abs() < 1e-12);

        // Merging is exactly "seal the concatenated events once": a single
        // finalizer over the same events produces identical records.
        let mut fin = StreamFinalizer::new();
        let direct: Vec<TraceRecord> = [&first[..], &second[..]]
            .concat()
            .into_iter()
            .map(|r| fin.seal(r.event))
            .collect();
        assert_eq!(merged, direct);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_streams(std::iter::empty::<&[TraceRecord]>()).is_empty());
    }
}
