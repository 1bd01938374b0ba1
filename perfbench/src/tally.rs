//! Failure counting: every attempted operation is either good or failed.

/// Why an attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The program returned an error or refused the request.
    Rejected(String),
    /// The operation did not finish within its deadline.
    TimedOut(String),
    /// The operation finished but its output was wrong.
    Wrong(String),
}

/// Attempted and failed operation counts, plus the first few failure
/// reasons for the run metadata.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<Failure>,
}

/// Failure reasons kept for the metadata line; the counts stay exact.
const KEPT_REASONS: usize = 8;

impl Tally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one attempt and its outcome; returns `true` when it
    /// succeeded.
    pub fn record(&mut self, outcome: Result<(), Failure>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(failure) => {
                self.failed += 1;
                if self.reasons.len() < KEPT_REASONS {
                    self.reasons.push(failure);
                }
                false
            }
        }
    }

    /// Records an attempt whose output is checked by comparison:
    /// `Wrong(what)` when `got != want`.
    pub fn check<T: PartialEq>(&mut self, got: &T, want: &T, what: &str) -> bool {
        let outcome = if got == want {
            Ok(())
        } else {
            Err(Failure::Wrong(what.to_string()))
        };
        self.record(outcome)
    }

    /// Operations attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first failure reasons recorded.
    #[must_use]
    pub fn reasons(&self) -> &[Failure] {
        &self.reasons
    }

    /// A run is correct when it attempted something and nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}
