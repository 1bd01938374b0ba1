//! The run ledger: a point-in-time summary of every registered metric,
//! attached to run reports so a finished simulation carries its own
//! telemetry totals.

/// A counter's final value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Final count.
    pub value: u64,
}

/// A gauge's last reading.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Last recorded reading.
    pub value: f64,
}

/// A histogram's summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`0.0` when empty).
    pub min: f64,
    /// Largest observation (`0.0` when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// Every metric the run recorded, sorted by name.
///
/// An empty ledger (the default) means telemetry never registered an
/// instrument — the state of a run built without a telemetry handle.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunLedger {
    /// Final counter values.
    pub counters: Vec<CounterSnapshot>,
    /// Last gauge readings.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RunLedger {
    /// `true` when no instrument was ever registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The final value of the counter called `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The last reading of the gauge called `name`, if registered.
    #[must_use]
    // greenhetero-lint: allow(GH002) gauges carry heterogeneous quantities; units live in the metric name
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The summary of the histogram called `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Folds `other` into this ledger, metric by metric.
    ///
    /// Counters with the same name sum; gauges keep the *last merged*
    /// reading (last-write-wins, deterministic in merge order — so a
    /// fleet-merged gauge holds the last-merged rack's reading, not a
    /// fleet-wide aggregate; fleet-wide quantities come from
    /// `FleetEpochRecord`, see the gauge notes in
    /// [`names`](crate::telemetry::names));
    /// histograms sum `count` and `sum`, widen `min`/`max`, and
    /// approximate the merged quantiles as the count-weighted average of
    /// the parts — exact for counts and sums, an estimate for `p50`/`p99`
    /// (good enough for fleet summaries; per-rack ledgers stay exact).
    ///
    /// Merging the same sequence of ledgers in the same order always
    /// yields bit-identical results: every fold is a fixed-order float
    /// reduction.
    pub fn merge(&mut self, other: &RunLedger) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|mine| mine.name == c.name) {
                Some(mine) => mine.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for g in &other.gauges {
            match self.gauges.iter_mut().find(|mine| mine.name == g.name) {
                Some(mine) => mine.value = g.value,
                None => self.gauges.push(g.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|mine| mine.name == h.name) {
                Some(mine) => {
                    if h.count == 0 {
                        continue;
                    }
                    if mine.count == 0 {
                        *mine = h.clone();
                        continue;
                    }
                    let (a, b) = (mine.count as f64, h.count as f64);
                    mine.p50 = (mine.p50 * a + h.p50 * b) / (a + b);
                    mine.p99 = (mine.p99 * a + h.p99 * b) / (a + b);
                    mine.count += h.count;
                    mine.sum += h.sum;
                    mine.min = mine.min.min(h.min);
                    mine.max = mine.max.max(h.max);
                }
                None => self.histograms.push(h.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ledger_is_empty() {
        let ledger = RunLedger::default();
        assert!(ledger.is_empty());
        assert_eq!(ledger.counter("x"), None);
        assert_eq!(ledger.gauge("x"), None);
        assert!(ledger.histogram("x").is_none());
    }

    #[test]
    fn lookups_find_by_name() {
        let ledger = RunLedger {
            counters: vec![CounterSnapshot {
                name: "a_total".into(),
                value: 3,
            }],
            gauges: vec![GaugeSnapshot {
                name: "g".into(),
                value: 1.5,
            }],
            histograms: vec![HistogramSnapshot {
                name: "h_seconds".into(),
                count: 2,
                sum: 3.0,
                min: 1.0,
                max: 2.0,
                p50: 1.0,
                p99: 2.0,
            }],
        };
        assert!(!ledger.is_empty());
        assert_eq!(ledger.counter("a_total"), Some(3));
        assert_eq!(ledger.gauge("g").map(f64::to_bits), Some(1.5f64.to_bits()));
        assert_eq!(ledger.histogram("h_seconds").map(|h| h.count), Some(2));
    }

    fn part(counter: u64, gauge: f64, count: u64, sum: f64) -> RunLedger {
        RunLedger {
            counters: vec![CounterSnapshot {
                name: "a_total".into(),
                value: counter,
            }],
            gauges: vec![GaugeSnapshot {
                name: "g".into(),
                value: gauge,
            }],
            histograms: vec![HistogramSnapshot {
                name: "h_seconds".into(),
                count,
                sum,
                min: sum / count as f64,
                max: sum / count as f64,
                p50: sum / count as f64,
                p99: sum / count as f64,
            }],
        }
    }

    #[test]
    fn merge_sums_counters_and_histograms_and_keeps_last_gauge() {
        let mut merged = RunLedger::default();
        merged.merge(&part(3, 1.0, 2, 4.0));
        merged.merge(&part(4, 2.5, 2, 8.0));
        assert_eq!(merged.counter("a_total"), Some(7));
        assert_eq!(merged.gauge("g").map(f64::to_bits), Some(2.5f64.to_bits()));
        let h = merged.histogram("h_seconds").expect("merged histogram");
        assert_eq!(h.count, 4);
        assert_eq!(h.sum.to_bits(), 12.0f64.to_bits());
        assert_eq!(h.min.to_bits(), 2.0f64.to_bits());
        assert_eq!(h.max.to_bits(), 4.0f64.to_bits());
        assert_eq!(h.p50.to_bits(), 3.0f64.to_bits());
    }

    #[test]
    fn merging_an_empty_ledger_is_identity() {
        // x ⊕ ∅ = x: an empty right-hand side changes nothing, including
        // the float bits of every gauge and quantile.
        let mut merged = part(3, 1.25, 4, 10.0);
        let before = merged.clone();
        merged.merge(&RunLedger::default());
        assert_eq!(merged, before);

        // ∅ ⊕ x = x (modulo the by-name sort merge always applies, which
        // is a no-op for these single-instrument parts).
        let mut from_empty = RunLedger::default();
        from_empty.merge(&before);
        assert_eq!(from_empty, before);
    }

    #[test]
    fn merging_a_zero_count_histogram_preserves_the_receiver() {
        // A registered-but-never-observed histogram must not drag the
        // merged quantiles toward 0 or overwrite min/max.
        let mut merged = part(1, 0.5, 4, 8.0);
        let zero = RunLedger {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![HistogramSnapshot {
                name: "h_seconds".into(),
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p99: 0.0,
            }],
        };
        merged.merge(&zero);
        let h = merged.histogram("h_seconds").expect("histogram kept");
        assert_eq!(h.count, 4);
        assert_eq!(h.p50.to_bits(), 2.0f64.to_bits());
        assert_eq!(h.min.to_bits(), 2.0f64.to_bits());

        // And the mirror case: an empty receiver adopts the incoming
        // summary wholesale.
        let mut empty_first = zero;
        empty_first.merge(&part(1, 0.5, 4, 8.0));
        let h = empty_first.histogram("h_seconds").expect("histogram");
        assert_eq!(h.count, 4);
        assert_eq!(h.p50.to_bits(), 2.0f64.to_bits());
    }

    #[test]
    fn single_rack_merge_is_the_rack() {
        // A one-rack "fleet" ledger is exactly that rack's ledger: the
        // degenerate fleet reduction must be bit-transparent.
        let rack = part(9, 0.75, 3, 6.0);
        let mut fleet = RunLedger::default();
        fleet.merge(&rack);
        assert_eq!(fleet, rack);
    }

    #[test]
    fn three_way_merge_is_associative_with_count_weighted_quantiles() {
        // Values and counts chosen so every count-weighted division is
        // exact in binary floating point: both association orders must
        // then agree to the bit, quantiles included.
        let hist = |count: u64, p: f64| RunLedger {
            counters: vec![CounterSnapshot {
                name: "a_total".into(),
                value: count,
            }],
            gauges: Vec::new(),
            histograms: vec![HistogramSnapshot {
                name: "h_seconds".into(),
                count,
                sum: p * count as f64,
                min: p,
                max: p,
                p50: p,
                p99: p,
            }],
        };
        // Exactness check: left fold sees (1·2+3·2)/4 = 2 then
        // (2·4+3·4)/8 = 2.5; right fold sees (3·2+3·4)/6 = 3 then
        // (1·2+3·6)/8 = 2.5 — every quotient is a dyadic rational.
        let (a, b, c) = (hist(2, 1.0), hist(2, 3.0), hist(4, 3.0));

        // (a ⊕ b) ⊕ c
        let mut left = RunLedger::default();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);

        // a ⊕ (b ⊕ c)
        let mut bc = RunLedger::default();
        bc.merge(&b);
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right, "fold order must not change the merge");
        let h = left.histogram("h_seconds").expect("merged histogram");
        assert_eq!(h.count, 8);
        assert_eq!(h.sum.to_bits(), 20.0f64.to_bits());
        // Count-weighted quantile: (1·2 + 3·2 + 3·4) / 8 = 2.5.
        assert_eq!(h.p50.to_bits(), 2.5f64.to_bits());
        assert_eq!(h.p99.to_bits(), 2.5f64.to_bits());
        assert_eq!(h.min.to_bits(), 1.0f64.to_bits());
        assert_eq!(h.max.to_bits(), 3.0f64.to_bits());
        assert_eq!(left.counter("a_total"), Some(8));
    }

    #[test]
    fn merge_in_fixed_order_is_bit_identical() {
        let parts: Vec<RunLedger> = (0..8)
            .map(|i| part(i, i as f64 * 0.1, i + 1, i as f64 * 0.7 + 1.0))
            .collect();
        let fold = |ps: &[RunLedger]| {
            let mut out = RunLedger::default();
            for p in ps {
                out.merge(p);
            }
            out
        };
        assert_eq!(fold(&parts), fold(&parts));
    }
}
