//! A bounded slow-op journal.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default slow-op threshold: 10 ms. On a local or loopback data path
/// anything slower is an outlier worth keeping.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// Slow ops retained with full context.
const SLOW_CAP: usize = 64;

/// One structured trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the journal was created (monotonic clock).
    pub t_us: u64,
    /// Operation kind (`"read"`, `"write"`, `"batch"`, …).
    pub kind: String,
    /// Device / shard index the op targeted (0 for single-store paths).
    pub shard: u32,
    /// Bytes moved by the op.
    pub bytes: u64,
    /// Wall-clock duration of the op in microseconds.
    pub duration_us: u64,
    /// Whether the op succeeded.
    pub ok: bool,
}

/// A bounded ring retaining ops that reached the slow threshold. The
/// threshold check comes first: a fast op costs one atomic load, and
/// only slow ops allocate and take the ring's lock. A full ring drops
/// its oldest entry.
pub struct Journal {
    start: Instant,
    threshold_us: AtomicU64,
    slow: Mutex<VecDeque<TraceEvent>>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// An empty journal with the default slow threshold.
    pub fn new() -> Self {
        Journal {
            start: Instant::now(),
            threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_CAP)),
        }
    }

    /// Sets the slow-op threshold (microseconds). 0 captures everything,
    /// `u64::MAX` disables capture.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current slow-op threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Records one completed op if it reached the slow threshold.
    pub fn record(&self, kind: &str, shard: u32, bytes: u64, duration: Duration, ok: bool) {
        let duration_us = duration.as_micros() as u64;
        if duration_us < self.slow_threshold_us() {
            return;
        }
        let kind = kind.to_string();
        // Stamp under the lock, so ring order is timestamp order even
        // when writers race.
        let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        let event = TraceEvent {
            t_us: self.start.elapsed().as_micros() as u64,
            kind,
            shard,
            bytes,
            duration_us,
            ok,
        };
        if slow.len() == SLOW_CAP {
            slow.pop_front();
        }
        slow.push_back(event);
    }

    /// The retained slow ops, oldest first.
    pub fn slow_ops(&self) -> Vec<TraceEvent> {
        self.slow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_ring_wraps_and_keeps_the_newest() {
        let j = Journal::new();
        j.set_slow_threshold_us(0);
        for i in 0..(SLOW_CAP + 10) as u64 {
            j.record("read", 0, i, Duration::from_micros(1), true);
        }
        let slow = j.slow_ops();
        assert_eq!(slow.len(), SLOW_CAP);
        assert_eq!(slow.last().unwrap().bytes, (SLOW_CAP + 10) as u64 - 1);
        assert_eq!(slow[0].bytes, 10);
    }

    #[test]
    fn slow_ops_respect_the_threshold() {
        let j = Journal::new();
        j.set_slow_threshold_us(1000);
        j.record("read", 0, 64, Duration::from_micros(10), true);
        j.record("write", 2, 128, Duration::from_micros(5000), false);
        let slow = j.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].kind, "write");
        assert_eq!(slow[0].shard, 2);
        assert_eq!(slow[0].bytes, 128);
        assert!(!slow[0].ok);
        assert!(slow[0].duration_us >= 1000);
    }

    #[test]
    fn threshold_zero_captures_everything() {
        let j = Journal::new();
        j.set_slow_threshold_us(0);
        j.record("flush", 0, 0, Duration::ZERO, true);
        assert_eq!(j.slow_ops().len(), 1);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let j = Journal::new();
        j.set_slow_threshold_us(0);
        j.record("a", 0, 0, Duration::ZERO, true);
        j.record("b", 0, 0, Duration::ZERO, true);
        let r = j.slow_ops();
        assert!(r[0].t_us <= r[1].t_us);
    }
}
