//! Flight recorder: a bounded ring buffer of recent structured events.
//!
//! Post-mortem debugging of the explorer works from *partial evidence*:
//! when a run panics, trips its wall deadline, or exits degraded, the
//! final report says what happened but not what led up to it. The
//! [`FlightRecorder`] is the black box — it retains the last N events
//! (choice points, progress ticks, budget transitions, fault
//! injections) and dumps them as an `lfm-obs/v1` JSONL tail on any
//! non-clean exit.
//!
//! The ring is lock-free-enough for the hot path: writers claim a slot
//! with one relaxed `fetch_add` on the head counter and then lock only
//! *their* slot, so concurrent emitters (ParExplorer workers via the
//! coordinator, serve's connection handlers, CLI scopes) contend only
//! when they wrap onto the same slot. Claiming and writing are two
//! steps, so a writer delayed between them can reach its slot after a
//! newer writer that wrapped onto it; under the slot lock a write
//! therefore lands only when the slot holds an older event.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::sink::{Event, OwnedEvent, Sink};

/// Schema identifier stamped on flight-recorder dumps.
pub const FLIGHT_SCHEMA: &str = "lfm-obs/v1";

/// Default number of events retained.
pub const DEFAULT_CAPACITY: usize = 256;

/// A bounded ring buffer of the most recent [`OwnedEvent`]s.
///
/// Implements [`Sink`], so it can be teed alongside the user's sink
/// (see [`TeeSink`](crate::TeeSink)) and observe everything the run
/// emits without changing what the run does.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Total events ever recorded (the next sequence number).
    head: AtomicU64,
    slots: Vec<Mutex<Option<(u64, OwnedEvent)>>>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder retaining the last [`DEFAULT_CAPACITY`] events.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder retaining the last `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Maximum number of events retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events observed over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events that fell off the ring (observed minus retained).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// The retained events, oldest first, each with its sequence number.
    pub fn tail(&self) -> Vec<(u64, OwnedEvent)> {
        let mut out: Vec<(u64, OwnedEvent)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("flight slot poisoned").clone())
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out
    }

    /// Writes the dump: one `lfm-obs/v1` header object, then the
    /// retained events as JSONL, oldest first, each prefixed with its
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn dump_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let tail = self.tail();
        writeln!(
            w,
            "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"kind\":\"flight-recorder\",\
             \"capacity\":{},\"recorded\":{},\"dropped\":{},\"retained\":{}}}",
            self.capacity(),
            self.recorded(),
            self.dropped(),
            tail.len(),
        )?;
        for (seq, event) in tail {
            let body = event.to_json();
            // Splice the sequence number in as the first key of the
            // event object: {"seq":N,"scope":...}.
            writeln!(w, "{{\"seq\":{seq},{}", &body[1..])?;
        }
        Ok(())
    }

    /// Writes the dump to a file at `path` (truncating).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn dump_to_path(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        self.dump_jsonl(&mut file)
    }
}

impl Sink for FlightRecorder {
    fn emit(&self, event: &Event<'_>) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        let owned = OwnedEvent {
            scope: event.scope.to_owned(),
            name: event.name.to_owned(),
            fields: event
                .fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.to_owned_value()))
                .collect(),
        };
        let mut slot = self.slots[idx].lock().expect("flight slot poisoned");
        if slot.as_ref().is_none_or(|(held, _)| *held < seq) {
            *slot = Some((seq, owned));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::sink::Value;

    fn emit(rec: &FlightRecorder, n: u64) {
        rec.emit(&Event {
            scope: "test",
            name: "tick",
            fields: &[("n", Value::U64(n))],
        });
    }

    #[test]
    fn retains_last_n_in_order() {
        let rec = FlightRecorder::with_capacity(4);
        for n in 0..10 {
            emit(&rec, n);
        }
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let tail = rec.tail();
        assert_eq!(tail.len(), 4);
        let ns: Vec<u64> = tail
            .iter()
            .map(|(_, e)| e.field("n").and_then(|v| v.as_u64()).unwrap())
            .collect();
        assert_eq!(ns, vec![6, 7, 8, 9]);
        // Sequence numbers are strictly increasing.
        let seqs: Vec<u64> = tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_fill_keeps_everything() {
        let rec = FlightRecorder::with_capacity(8);
        for n in 0..3 {
            emit(&rec, n);
        }
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.tail().len(), 3);
    }

    #[test]
    fn dump_is_parseable_jsonl_with_header() {
        let rec = FlightRecorder::with_capacity(2);
        for n in 0..5 {
            emit(&rec, n);
        }
        let mut buf = Vec::new();
        rec.dump_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Header + at most `capacity` events.
        assert_eq!(lines.len(), 3);
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(
            header.get("kind").and_then(Json::as_str),
            Some("flight-recorder")
        );
        assert_eq!(header.get("recorded").and_then(Json::as_u64), Some(5));
        assert_eq!(header.get("dropped").and_then(Json::as_u64), Some(3));
        assert_eq!(header.get("retained").and_then(Json::as_u64), Some(2));
        for (i, line) in lines[1..].iter().enumerate() {
            let e = Json::parse(line).unwrap();
            assert_eq!(e.get("seq").and_then(Json::as_u64), Some(3 + i as u64));
            assert_eq!(e.get("scope").and_then(Json::as_str), Some("test"));
            assert_eq!(e.get("event").and_then(Json::as_str), Some("tick"));
        }
    }

    #[test]
    fn empty_recorder_dumps_header_only() {
        let rec = FlightRecorder::new();
        assert_eq!(rec.capacity(), DEFAULT_CAPACITY);
        let mut buf = Vec::new();
        rec.dump_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
    }

    /// An emitter claims its seq, then builds its owned copy of the
    /// event before it writes the slot. Here the first emitter's big
    /// payload keeps it building while a second emitter claims the next
    /// seq for the same slot and writes a small event. The late, older
    /// write must not replace the newer one.
    #[test]
    fn a_late_older_write_never_replaces_a_newer_event() {
        let names: Vec<String> = (0..512).map(|i| format!("field_{i}")).collect();
        let fields: Vec<(&str, Value<'_>)> = names
            .iter()
            .map(|n| (n.as_str(), Value::Str("a payload long enough to copy")))
            .collect();
        let slow = Event {
            scope: "test",
            name: "slow",
            fields: &fields,
        };
        let rounds = 50;
        let mut stale = 0;
        for _ in 0..rounds {
            let rec = FlightRecorder::with_capacity(1);
            std::thread::scope(|s| {
                s.spawn(|| rec.emit(&slow));
                s.spawn(|| {
                    while rec.recorded() == 0 {
                        std::hint::spin_loop();
                    }
                    emit(&rec, 1);
                });
            });
            let tail = rec.tail();
            assert_eq!(tail.len(), 1);
            if tail[0].0 != 1 {
                stale += 1;
            }
        }
        assert_eq!(stale, 0, "{stale} of {rounds} rounds kept the older event");
    }

    #[test]
    fn concurrent_emitters_stay_bounded() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for n in 0..100 {
                        emit(&rec, t * 1_000 + n);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 400);
        let tail = rec.tail();
        assert_eq!(tail.len(), 16);
        // Every retained event is from the final wrap window.
        for (seq, _) in &tail {
            assert!(*seq >= 400 - 16);
        }
    }
}
