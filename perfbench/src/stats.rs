//! Sample statistics: nearest-rank percentiles over recorded samples,
//! and a fixed-size log-linear histogram for streams too long to keep.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `q` of all samples are at or below it.
/// `None` for an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A growable set of samples (one unit, chosen by the caller).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Moves every sample of `other` into this set.
    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`), `None` when empty.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        nearest_rank(&self.values, q)
    }

    /// The median (nearest rank), `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(0.5)
    }
}

/// Sub-buckets per power of two: bucket width is at most 1/32 of its
/// lower edge, so a reported percentile is within ~3% of the sample.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets covering every `u64` value.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A fixed-size log-linear histogram of `u64` values (nanoseconds, in
/// the sinks). Memory and per-record cost are constant however many
/// values it sees, so aggregating a million events neither grows the
/// heap nor distorts the run it measures.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
    sum: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            sum: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (value >> shift) - SUB;
        ((u64::from(shift) + 1) * SUB + sub) as usize
    }

    /// The largest value that falls in bucket `index`.
    fn upper(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            return index;
        }
        let shift = index / SUB - 1;
        let sub = index % SUB;
        ((SUB + sub) << shift) + ((1u64 << shift) - 1)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
    }

    /// Values recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Nearest-rank percentile, reported as the upper edge of the bucket
    /// holding that rank; `None` when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Self::upper(index));
            }
        }
        None
    }
}
