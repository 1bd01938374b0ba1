//! The benchmark's own aggregating telemetry sink.
//!
//! A traced fleet run hands this sink to the engine through
//! `TelemetrySpec::Sink`. It folds every `EpochEvent` into fixed-size
//! totals and histograms — no per-event storage — so a million events
//! cost the same memory as ten, and the traced run's time and RSS stay
//! close to the untraced run's.

use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use greenhetero::core::telemetry::{EpochEvent, SpanRecord, TelemetrySink};

use crate::stats::LogHistogram;
use crate::watchdog::Progress;

/// Exact sums over every epoch event a sink saw (nanoseconds for the
/// phase fields).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Epoch events recorded (one per rack-epoch).
    pub events: u64,
    /// Σ predictor time.
    pub predict_ns: u128,
    /// Σ source-selection time.
    pub sources_ns: u128,
    /// Σ PAR-solve time.
    pub solve_ns: u128,
    /// Σ enforcement (measure + dispatch) time.
    pub enforce_ns: u128,
    /// Σ epoch wall time.
    pub wall_ns: u128,
    /// Σ per-event `max(0, wall − phases)`: the engine's unattributed
    /// remainder (substrate, plant step, bookkeeping, emission).
    pub other_ns: u128,
    /// Events whose phases summed past their own wall (overlapping
    /// timers); these make the split fail to close.
    pub overlapping: u64,
    /// Σ solver local-cache hits.
    pub cache_hits: u64,
    /// Σ solver local-cache misses (cold solves that consulted it).
    pub cache_misses: u64,
    /// Σ solves answered by the warm path.
    pub warm_starts: u64,
}

impl PhaseTotals {
    /// Folds one event in.
    pub fn add(&mut self, event: &EpochEvent) {
        let [predict, sources, solve, enforce, wall] = [
            event.predict,
            event.sources,
            event.solve,
            event.enforce,
            event.epoch_wall,
        ]
        .map(|d| d.as_nanos());
        let phases = predict + sources + solve + enforce;
        self.events += 1;
        self.predict_ns += predict;
        self.sources_ns += sources;
        self.solve_ns += solve;
        self.enforce_ns += enforce;
        self.wall_ns += wall;
        if phases > wall {
            self.overlapping += 1;
        } else {
            self.other_ns += wall - phases;
        }
        self.cache_hits += u64::from(event.cache_hits);
        self.cache_misses += u64::from(event.cache_misses);
        self.warm_starts += u64::from(event.warm_starts);
    }

    /// Mean of a summed field over the events, in nanoseconds.
    #[must_use]
    pub fn mean_ns(&self, sum: u128) -> f64 {
        sum as f64 / self.events.max(1) as f64
    }
}

/// Everything an [`AggSink`] aggregated, copied out.
#[derive(Debug, Clone, Default)]
pub struct AggSnapshot {
    /// Phase sums and solver counts.
    pub totals: PhaseTotals,
    /// Per-event epoch wall, nanoseconds.
    pub epoch_wall: LogHistogram,
    /// Fleet epoch time, nanoseconds: the gap between the starts of
    /// consecutive flush bursts (the engine flushes epoch *e*'s events
    /// together once every rack has stepped it).
    pub fleet_epoch: LogHistogram,
    /// The slowest fleet epoch seen: (epoch, nanoseconds).
    pub slowest_epoch: Option<(u64, u64)>,
}

#[derive(Debug, Default)]
struct Agg {
    snap: AggSnapshot,
    burst_epoch: Option<u64>,
    burst_start: Option<Instant>,
}

/// A fixed-size, aggregate-only telemetry sink.
#[derive(Debug)]
pub struct AggSink {
    agg: Mutex<Agg>,
    progress: Progress,
}

impl AggSink {
    /// A sink that also publishes the last flushed epoch to `progress`
    /// (the watchdog reads it when an operation stalls).
    #[must_use]
    pub fn new(progress: Progress) -> Self {
        AggSink {
            agg: Mutex::new(Agg::default()),
            progress,
        }
    }

    /// A copy of the aggregates so far.
    #[must_use]
    pub fn snapshot(&self) -> AggSnapshot {
        self.agg
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snap
            .clone()
    }
}

impl TelemetrySink for AggSink {
    /// Spans duplicate the event's phase Durations; they are dropped.
    fn record_span(&self, _span: &SpanRecord) {}

    fn record_epoch(&self, event: &EpochEvent) {
        let now = Instant::now();
        let epoch = event.epoch.raw();
        let mut agg = self.agg.lock().unwrap_or_else(PoisonError::into_inner);
        if agg.burst_epoch != Some(epoch) {
            if let Some(start) = agg.burst_start {
                let gap = u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
                agg.snap.fleet_epoch.record(gap);
                if agg
                    .snap
                    .slowest_epoch
                    .is_none_or(|(_, slowest)| gap > slowest)
                {
                    agg.snap.slowest_epoch = Some((epoch, gap));
                }
            }
            agg.burst_epoch = Some(epoch);
            agg.burst_start = Some(now);
            self.progress
                .store(i64::try_from(epoch).unwrap_or(i64::MAX), Ordering::Release);
        }
        agg.snap.totals.add(event);
        let wall = u64::try_from(event.epoch_wall.as_nanos()).unwrap_or(u64::MAX);
        agg.snap.epoch_wall.record(wall);
    }
}
