//! The solver fast path: epoch-to-epoch warm starts and an allocation
//! cache (DESIGN.md §11).
//!
//! Consecutive scheduling epochs differ only slightly — solar ramps a few
//! percent per 15-minute epoch and the fitted curves change only on the
//! rare accepted refit — so most of the classic
//! [`solve_with_engine`](crate::solver::solve_with_engine) work (a full
//! 4-level grid lattice cross-checking the exact engine every epoch) is
//! redundant. [`SolverFastPath`] removes it in three layers:
//!
//! 1. **Reuse** — a problem bit-identical to the previous epoch's returns
//!    the previous allocation outright;
//! 2. **Warm start** — when the group layout and every model fingerprint
//!    are unchanged and the budget moved less than a configured relative
//!    delta, the exact KKT engine answers alone and the grid cross-check
//!    is skipped (a sampled periodic cross-check plus the controller's
//!    `audit_allocation` keep exactness regressions observable); if the
//!    exact engine cannot run, a short grid refinement seeded at the
//!    previous allocation replaces the full lattice;
//! 3. **Cache** — cold solves are remembered in a small LRU keyed by
//!    (exact budget bits, group digest); a hit revalidates the stored
//!    problem bit-for-bit against the live one and falls back to a cold
//!    solve on any mismatch, so a hit is always bit-identical to the
//!    solve it replaced.
//!
//! A fourth, *cross-controller* layer can be attached on top:
//! [`SharedSolveCache`] is a sharded, thread-safe store keyed the same way
//! (model fingerprints via the group digest, exact budget bits) with the
//! same full-equality revalidation on hit. Racks in a fleet that face
//! bit-identical problems — common once noise is low and models converge —
//! pay one cold solve and N bit-identical reuses per epoch (DESIGN.md §14):
//! misses are single-flight, so a controller that looks up a problem
//! another controller is solving right now waits for that answer instead
//! of solving it again.
//! The shared layer only ever *stands in for* an engine call the local
//! layers had already committed to: it never changes which path is taken,
//! and a shared hit is remembered locally exactly as the solve it replaced
//! would have been. Entries are tagged with the engine path that produced
//! them (warm exact vs. cold max-of-engines) so a hit always returns the
//! same bits that path would have computed; warm *grid* answers are seeded
//! by the previous allocation — history-dependent — and are never shared.
//!
//! Every decision above is a pure function of the *problem sequence* —
//! never of cache occupancy — which is why seeded runs are bit-identical
//! with either cache on or off (`crates/sim/tests/fastpath.rs` and
//! `crates/sim/tests/fleet.rs` prove it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::error::CoreError;
use crate::solver::grid::{solve_grid_seeded, solve_grid_with};
use crate::solver::problem::{Allocation, AllocationProblem};
use crate::solver::scratch::SolverScratch;
use crate::solver::{solve_exact_with, solve_with_engine_scratch, SolveEngine};
use crate::types::Ratio;

/// Tunables of the solver fast path, carried by
/// [`ControllerConfig::solver`](crate::config::ControllerConfig::solver).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastPathConfig {
    /// Allocation-cache capacity in entries; 0 disables the cache.
    pub cache_capacity: usize,
    /// Enables the warm-start layers (reuse + exact-first refinement).
    pub warm_start: bool,
    /// Largest relative budget change, epoch over epoch, that still
    /// qualifies for a warm start.
    pub warm_budget_delta: Ratio,
    /// Run the observe-only grid cross-check every this many solves;
    /// 0 disables sampling.
    pub cross_check_period: u64,
}

impl Default for FastPathConfig {
    fn default() -> Self {
        FastPathConfig {
            cache_capacity: 64,
            warm_start: true,
            warm_budget_delta: Ratio::saturating(0.05),
            cross_check_period: 64,
        }
    }
}

/// Monotone counters the fast path accumulates; the controller drains
/// them into telemetry once per epoch via
/// [`take_stats`](SolverFastPath::take_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Cache lookups that returned a revalidated stored allocation.
    pub cache_hits: u64,
    /// Cold solves that consulted the cache and missed.
    pub cache_misses: u64,
    /// Entries displaced by LRU eviction.
    pub cache_evictions: u64,
    /// Solves answered by the warm path (reuse or exact-first).
    pub warm_starts: u64,
    /// Sampled observe-only grid cross-checks run.
    pub cross_checks: u64,
    /// Cross-checks where the grid beat the returned exact answer — a
    /// nonzero rate flags an exactness regression.
    pub cross_check_grid_wins: u64,
}

impl FastPathStats {
    fn minus(self, earlier: FastPathStats) -> FastPathStats {
        FastPathStats {
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            warm_starts: self.warm_starts - earlier.warm_starts,
            cross_checks: self.cross_checks - earlier.cross_checks,
            cross_check_grid_wins: self.cross_check_grid_wins - earlier.cross_check_grid_wins,
        }
    }
}

/// The previous solve, kept for reuse and warm seeding.
#[derive(Debug, Clone)]
struct LastSolve {
    problem: AllocationProblem,
    allocation: Allocation,
    engine: SolveEngine,
}

/// What both caches narrow a lookup by before full-equality
/// revalidation: the exact budget bits and the group-layout digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProblemKey {
    budget_bits: u64,
    digest: u64,
}

impl ProblemKey {
    fn of(problem: &AllocationProblem) -> Self {
        ProblemKey {
            budget_bits: problem.budget().value().to_bits(),
            digest: problem_digest(problem),
        }
    }
}

/// One cached cold solve. `problem` is kept whole: the key narrows the
/// lookup, equality on the full problem is what authorizes reuse.
#[derive(Debug, Clone)]
struct CacheEntry {
    key: ProblemKey,
    problem: AllocationProblem,
    allocation: Allocation,
    engine: SolveEngine,
    stamp: u64,
}

/// Default capacity (entries) of a fleet- or daemon-wide
/// [`SharedSolveCache`].
pub const DEFAULT_SHARED_SOLVE_CAPACITY: usize = 1024;

/// Shard count of a [`SharedSolveCache`]; lookups lock only the shard
/// selected by the group digest, so racks working on different layouts
/// never contend.
const SHARED_SHARDS: usize = 16;

/// Which engine path produced (and may reuse) a shared entry. Warm exact
/// answers and cold max-of-engines answers for the same problem can differ
/// bitwise, so a hit is only ever served to the path that stored it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SolveKind {
    /// Produced by `solve_exact_with` on the warm path.
    WarmExact,
    /// Produced by `solve_with_engine_scratch` on the cold path.
    Cold,
}

/// One shared solve. Like the local cache, the full problem is kept:
/// the key narrows the lookup, bit-for-bit equality authorizes reuse.
#[derive(Debug)]
struct SharedEntry {
    kind: SolveKind,
    key: ProblemKey,
    problem: AllocationProblem,
    allocation: Allocation,
    engine: SolveEngine,
    stamp: u64,
}

/// A miss some controller is solving right now. Identical lookups wait
/// for it to be released instead of solving the same problem again.
#[derive(Debug)]
struct InFlight {
    ticket: u64,
    kind: SolveKind,
    key: ProblemKey,
    problem: AllocationProblem,
}

/// What one shard guards: its entries and its in-flight misses.
#[derive(Debug, Default)]
struct ShardState {
    entries: Vec<SharedEntry>,
    in_flight: Vec<InFlight>,
}

/// One lock domain of a [`SharedSolveCache`]; `released` is signalled
/// whenever an in-flight miss on this shard is published or abandoned.
#[derive(Debug, Default)]
struct Shard {
    state: Mutex<ShardState>,
    released: Condvar,
}

/// The outcome of a shared-cache lookup.
#[derive(Debug)]
enum SharedLookup {
    /// A revalidated stored answer.
    Hit((Allocation, SolveEngine)),
    /// No usable entry: the caller now owns the in-flight claim.
    Miss(SolveClaim),
}

/// The right to solve one missed problem. Every identical lookup waits
/// until the claim is released: by [`publish`](Self::publish), or by drop
/// on every other exit (solver error, an answer that must not be shared,
/// unwinding). A controller holds at most one claim and makes no other
/// lookup while holding it, so waits cannot form a cycle.
#[derive(Debug)]
struct SolveClaim {
    cache: Arc<SharedSolveCache>,
    shard: usize,
    ticket: Option<u64>,
}

impl SolveClaim {
    /// Stores the solved answer and releases the claim.
    fn publish(mut self, allocation: &Allocation, engine: SolveEngine) {
        self.release(Some((allocation, engine)));
    }

    fn release(&mut self, answer: Option<(&Allocation, SolveEngine)>) {
        let Some(ticket) = self.ticket.take() else {
            return;
        };
        let shard = &self.cache.shards[self.shard];
        let mut state = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = state.in_flight.iter().position(|f| f.ticket == ticket) {
            let claimed = state.in_flight.swap_remove(pos);
            if let Some((allocation, engine)) = answer {
                self.cache.store(&mut state, claimed, allocation, engine);
            }
        }
        drop(state);
        shard.released.notify_all();
    }
}

impl Drop for SolveClaim {
    fn drop(&mut self) {
        self.release(None);
    }
}

/// Snapshot of a [`SharedSolveCache`]'s lifetime counters.
///
/// These are *scheduling-dependent provenance*: which rack pays the one
/// cold solve (and which ones reuse it) depends on thread interleaving, so
/// these counters must never feed per-rack ledgers, JSONL events, or any
/// byte-compared artifact — they belong next to fields like
/// `FleetReport::workers`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedSolveStats {
    /// Lookups that returned a revalidated stored allocation.
    pub hits: u64,
    /// Lookups that found no entry under the key.
    pub misses: u64,
    /// Lookups that found the key but failed full-equality revalidation
    /// (a group-digest collision).
    pub revalidation_misses: u64,
    /// Solves published into the cache.
    pub insertions: u64,
    /// Entries displaced by per-shard LRU eviction.
    pub evictions: u64,
}

impl SharedSolveStats {
    /// Fraction of lookups answered from the cache; 0 when no lookups
    /// have happened. For a homogeneous N-rack fleet this approaches
    /// (N − 1)/N: one rack pays each cold solve, the rest reuse it.
    #[must_use]
    // greenhetero-lint: allow(GH002) dimensionless counter ratio for bench snapshots, not a physical quantity
    pub fn reuse_rate(&self) -> f64 {
        let lookups = self.hits + self.misses + self.revalidation_misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// A thread-safe solve cache shared across controllers — the fleet-wide
/// batched-solve substrate. Keyed exactly like the local LRU (exact
/// budget bits + group digest over configs, counts, and model
/// fingerprints) plus the engine-path tag, and revalidated by full problem
/// equality on every hit, so a hit is bit-identical to the engine call it
/// replaces. Misses are single-flight: while one controller solves a
/// problem, identical lookups wait for its answer.
///
/// Attaching or resizing this cache never changes any controller's output:
/// it only substitutes bit-identical answers for redundant engine calls.
/// Its counters are scheduling-dependent (see [`SharedSolveStats`]) and
/// are surfaced only as run provenance and daemon metrics.
#[derive(Debug)]
pub struct SharedSolveCache {
    shards: Vec<Shard>,
    shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    revalidation_misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl SharedSolveCache {
    /// A cache holding roughly `capacity` entries (rounded up to fill the
    /// fixed shard count; a capacity below 1 is clamped to 1 per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(SHARED_SHARDS).max(1);
        SharedSolveCache {
            shards: (0..SHARED_SHARDS).map(|_| Shard::default()).collect(),
            shard_capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            revalidation_misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry capacity across shards.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Entries currently held across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.state
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// `true` when no shard holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counter snapshot (relaxed loads; exact once quiescent).
    #[must_use]
    pub fn stats(&self) -> SharedSolveStats {
        SharedSolveStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            revalidation_misses: self.revalidation_misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn next_stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the stored answer for `problem` under `kind` if one exists
    /// and survives full-equality + feasibility revalidation. Otherwise
    /// waits while an identical problem is in flight, and on a miss
    /// registers the caller's claim to solve it.
    fn lookup(self: &Arc<Self>, kind: SolveKind, problem: &AllocationProblem) -> SharedLookup {
        let key = ProblemKey::of(problem);
        let index = (key.digest as usize) % self.shards.len();
        let shard = &self.shards[index];
        let mut state = shard.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let mut collided = false;
            for e in state.entries.iter_mut() {
                if e.kind == kind && e.key == key {
                    if e.problem == *problem && e.problem.is_feasible(&e.allocation.per_server) {
                        e.stamp = self.next_stamp();
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return SharedLookup::Hit((e.allocation.clone(), e.engine));
                    }
                    collided = true;
                }
            }
            let solving = state
                .in_flight
                .iter()
                .any(|f| f.kind == kind && f.key == key && f.problem == *problem);
            if !solving {
                if collided {
                    self.revalidation_misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                // Stamps are unique, so they double as claim tickets.
                let ticket = self.next_stamp();
                state.in_flight.push(InFlight {
                    ticket,
                    kind,
                    key,
                    problem: problem.clone(),
                });
                return SharedLookup::Miss(SolveClaim {
                    cache: Arc::clone(self),
                    shard: index,
                    ticket: Some(ticket),
                });
            }
            state = shard
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stores a claimed problem's answer in its shard, evicting the
    /// stalest entry at capacity. The claim guarantees no other
    /// controller published the same problem meanwhile.
    fn store(
        &self,
        state: &mut ShardState,
        claimed: InFlight,
        allocation: &Allocation,
        engine: SolveEngine,
    ) {
        let InFlight {
            kind, key, problem, ..
        } = claimed;
        if state.entries.len() >= self.shard_capacity {
            if let Some(victim) = state
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
            {
                state.entries.swap_remove(victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let stamp = self.next_stamp();
        state.entries.push(SharedEntry {
            kind,
            key,
            problem,
            allocation: allocation.clone(),
            engine,
            stamp,
        });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }
}

/// The stateful solver front-end the controller holds across epochs.
#[derive(Debug)]
pub struct SolverFastPath {
    config: FastPathConfig,
    scratch: SolverScratch,
    cache: Vec<CacheEntry>,
    last: Option<LastSolve>,
    shared: Option<Arc<SharedSolveCache>>,
    stats: FastPathStats,
    taken: FastPathStats,
    clock: u64,
    solves: u64,
}

/// How the next solve will be answered; computed up front so the borrow
/// of `last` ends before the engines need the scratch space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    Warm,
    Cold,
}

impl Default for SolverFastPath {
    fn default() -> Self {
        SolverFastPath::new(FastPathConfig::default())
    }
}

impl SolverFastPath {
    /// A fast path with empty cache and no previous epoch.
    #[must_use]
    pub fn new(config: FastPathConfig) -> Self {
        SolverFastPath {
            config,
            scratch: SolverScratch::new(),
            cache: Vec::with_capacity(config.cache_capacity),
            last: None,
            shared: None,
            stats: FastPathStats::default(),
            taken: FastPathStats::default(),
            clock: 0,
            solves: 0,
        }
    }

    /// Attaches (or detaches, with `None`) a cross-controller
    /// [`SharedSolveCache`]. Purely an acceleration: every answer returned
    /// through the shared layer is bit-identical to the engine call it
    /// replaces, and the local cache and counters evolve exactly as if the
    /// shared layer were absent.
    pub fn set_shared_cache(&mut self, shared: Option<Arc<SharedSolveCache>>) {
        self.shared = shared;
    }

    /// The attached cross-controller cache, if any.
    #[must_use]
    pub fn shared_cache(&self) -> Option<&Arc<SharedSolveCache>> {
        self.shared.as_ref()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> FastPathConfig {
        self.config
    }

    /// Lifetime counters (never reset).
    #[must_use]
    pub fn stats(&self) -> FastPathStats {
        self.stats
    }

    /// Counters accumulated since the previous `take_stats` call — the
    /// per-epoch deltas the controller exports.
    pub fn take_stats(&mut self) -> FastPathStats {
        let delta = self.stats.minus(self.taken);
        self.taken = self.stats;
        delta
    }

    /// Drops the cache and the previous-epoch seed (counters survive).
    /// The controller calls this when the policy or rack layout changes
    /// wholesale; normal model drift invalidates naturally via
    /// fingerprints.
    pub fn invalidate(&mut self) {
        self.cache.clear();
        self.last = None;
    }

    /// Solves `problem` through the fast path. The returned allocation is
    /// always bit-identical to what a pure function of the problem
    /// sequence would produce: warm decisions depend only on the previous
    /// problem, and cache hits are revalidated bit-for-bit before reuse.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::solver::solve`].
    pub fn solve(
        &mut self,
        problem: &AllocationProblem,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        self.solves += 1;
        let plan = match &self.last {
            Some(last) if self.config.warm_start => {
                if last.problem == *problem {
                    // Nothing moved: the previous answer is this epoch's
                    // answer, bit for bit.
                    self.stats.warm_starts += 1;
                    return Ok((last.allocation.clone(), last.engine));
                } else if warm_eligible(&last.problem, problem, self.config.warm_budget_delta) {
                    Plan::Warm
                } else {
                    Plan::Cold
                }
            }
            _ => Plan::Cold,
        };

        let (allocation, engine) = match plan {
            Plan::Warm => {
                self.stats.warm_starts += 1;
                let answer = self.warm_solve(problem)?;
                self.maybe_cross_check(problem, &answer.0, answer.1);
                answer
            }
            Plan::Cold => self.cold_solve(problem)?,
        };

        self.last = Some(LastSolve {
            problem: problem.clone(),
            allocation: allocation.clone(),
            engine,
        });
        Ok((allocation, engine))
    }

    /// The warm path: the exact engine alone, or a grid refinement seeded
    /// at the previous allocation when the exact engine cannot run.
    fn warm_solve(
        &mut self,
        problem: &AllocationProblem,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        // A shared warm-exact hit stands in for `solve_exact_with` below:
        // same bits, and only possible for problems where the exact
        // engine succeeds (it stored the entry).
        let claim = match self.shared_lookup(SolveKind::WarmExact, problem) {
            Some(SharedLookup::Hit(hit)) => return Ok(hit),
            Some(SharedLookup::Miss(claim)) => Some(claim),
            None => None,
        };
        match solve_exact_with(problem, &mut self.scratch) {
            Ok(exact) => {
                if let Some(claim) = claim {
                    claim.publish(&exact, SolveEngine::Exact);
                }
                Ok((exact, SolveEngine::Exact))
            }
            Err(CoreError::InvalidConfig { .. }) => {
                // Too many groups for the exact engine: refine the grid
                // locally around the previous allocation. Seeded answers
                // depend on *this rack's* history, so they are never
                // published; releasing the claim first lets waiters on
                // the same problem find that out for themselves.
                drop(claim);
                let seeded = match &self.last {
                    Some(last) => {
                        solve_grid_seeded(problem, &last.allocation.per_server, &mut self.scratch)
                    }
                    None => solve_grid_with(problem, &mut self.scratch),
                };
                Ok((seeded, SolveEngine::Grid))
            }
            Err(other) => Err(other),
        }
    }

    /// The cold path: consult the cache, else run the classic
    /// exact-plus-grid solve and remember the answer.
    fn cold_solve(
        &mut self,
        problem: &AllocationProblem,
    ) -> Result<(Allocation, SolveEngine), CoreError> {
        let caching = self.config.cache_capacity > 0;
        let key = ProblemKey::of(problem);
        if caching {
            let found = self.cache.iter_mut().find(|e| {
                e.key == key
                // Revalidation: the stored problem must equal the
                // incoming one; a digest collision is a miss.
                && e.problem == *problem
                && e.problem.is_feasible(&e.allocation.per_server)
            });
            if let Some(entry) = found {
                self.stats.cache_hits += 1;
                self.clock += 1;
                entry.stamp = self.clock;
                return Ok((entry.allocation.clone(), entry.engine));
            }
            self.stats.cache_misses += 1;
        }

        // Cross-controller layer: a shared hit stands in for the engine
        // call below and is remembered locally exactly as that solve would
        // have been, so the local LRU state, counters, and every future
        // decision evolve bit-identically with the shared cache attached,
        // detached, or resized.
        let claim = match self.shared_lookup(SolveKind::Cold, problem) {
            Some(SharedLookup::Hit(hit)) => {
                if caching {
                    self.remember(key, problem, &hit.0, hit.1);
                }
                return Ok(hit);
            }
            Some(SharedLookup::Miss(claim)) => Some(claim),
            None => None,
        };

        let (allocation, engine) = solve_with_engine_scratch(problem, &mut self.scratch)?;
        if let Some(claim) = claim {
            claim.publish(&allocation, engine);
        }
        if caching {
            self.remember(key, problem, &allocation, engine);
        }
        Ok((allocation, engine))
    }

    /// Stores a cold answer in the local LRU, evicting the stalest entry
    /// at capacity. Shared-cache hits go through the same door as real
    /// engine solves — local state must not see the difference.
    fn remember(
        &mut self,
        key: ProblemKey,
        problem: &AllocationProblem,
        allocation: &Allocation,
        engine: SolveEngine,
    ) {
        if self.cache.len() >= self.config.cache_capacity {
            // Evict the least-recently used entry (smallest stamp).
            if let Some(victim) = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
            {
                self.cache.swap_remove(victim);
                self.stats.cache_evictions += 1;
            }
        }
        self.clock += 1;
        self.cache.push(CacheEntry {
            key,
            problem: problem.clone(),
            allocation: allocation.clone(),
            engine,
            stamp: self.clock,
        });
    }

    /// Shared-cache lookup; `None` when no shared cache is attached.
    fn shared_lookup(&self, kind: SolveKind, problem: &AllocationProblem) -> Option<SharedLookup> {
        Some(self.shared.as_ref()?.lookup(kind, problem))
    }

    /// The sampled, observe-only cross-check: every Nth solve that skipped
    /// the grid engine, run it anyway and count whether it would have won.
    /// The returned allocation is never altered — this exists purely so an
    /// exactness regression shows up in telemetry instead of silently
    /// shipping worse allocations.
    fn maybe_cross_check(
        &mut self,
        problem: &AllocationProblem,
        returned: &Allocation,
        engine: SolveEngine,
    ) {
        let period = self.config.cross_check_period;
        if engine != SolveEngine::Exact || period == 0 || !self.solves.is_multiple_of(period) {
            return;
        }
        self.stats.cross_checks += 1;
        let grid = solve_grid_with(problem, &mut self.scratch);
        if grid.projected.value() > returned.projected.value() + 1e-9 {
            self.stats.cross_check_grid_wins += 1;
        }
    }
}

/// `true` when `cur` is close enough to `prev` to trust the warm path:
/// identical group layout (config, count) with bit-identical model
/// fingerprints, and a relative budget move within `max_delta`.
fn warm_eligible(prev: &AllocationProblem, cur: &AllocationProblem, max_delta: Ratio) -> bool {
    if prev.groups().len() != cur.groups().len() {
        return false;
    }
    let layout_same = prev.groups().iter().zip(cur.groups()).all(|(a, b)| {
        a.config == b.config && a.count == b.count && a.model.fingerprint() == b.model.fingerprint()
    });
    if !layout_same {
        return false;
    }
    let pb = prev.budget().value();
    let cb = cur.budget().value();
    (cb - pb).abs() <= max_delta.value() * pb.abs().max(1e-9)
}

/// FNV-1a digest of the group layout: length, then per group (config,
/// count, model fingerprint). Budget is deliberately excluded — the
/// key carries its exact bits.
fn problem_digest(problem: &AllocationProblem) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(problem.groups().len() as u64);
    for g in problem.groups() {
        mix(u64::from(g.config.raw()));
        mix(u64::from(g.count));
        mix(g.model.fingerprint());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{PerfModel, Quadratic};
    use crate::solver::{solve_with_engine, ServerGroup};
    use crate::types::{ConfigId, PowerRange, Watts};

    fn group(id: u32, count: u32, idle: f64, peak: f64, m: f64, n: f64) -> ServerGroup {
        ServerGroup::new(
            ConfigId::new(id),
            count,
            PerfModel::new(
                Quadratic { l: 0.0, m, n },
                PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap(),
            ),
        )
        .unwrap()
    }

    fn problem(budget: f64) -> AllocationProblem {
        let a = group(0, 2, 88.0, 147.0, 60.0, -0.12);
        let b = group(1, 3, 47.0, 81.0, 50.0, -0.18);
        AllocationProblem::new(vec![a, b], Watts::new(budget)).unwrap()
    }

    #[test]
    fn identical_problem_is_reused_bit_for_bit() {
        let mut fast = SolverFastPath::default();
        let p = problem(500.0);
        let (first, e1) = fast.solve(&p).unwrap();
        let (second, e2) = fast.solve(&p).unwrap();
        assert_eq!(first, second);
        assert_eq!(e1, e2);
        assert_eq!(fast.stats().warm_starts, 1);
        // The classic cold answer matches too.
        let (cold, _) = solve_with_engine(&p).unwrap();
        assert_eq!(first, cold);
    }

    #[test]
    fn small_budget_moves_take_the_warm_path() {
        let mut fast = SolverFastPath::default();
        fast.solve(&problem(500.0)).unwrap();
        let p = problem(510.0); // 2 % move: within the 5 % gate
        let (warm, engine) = fast.solve(&p).unwrap();
        assert_eq!(fast.stats().warm_starts, 1);
        assert_eq!(engine, SolveEngine::Exact);
        // Concave fits: the warm exact answer matches the cold answer.
        let (cold, _) = solve_with_engine(&p).unwrap();
        assert!(
            warm.projected.value() >= cold.projected.value() - 1e-9,
            "warm {} vs cold {}",
            warm.projected.value(),
            cold.projected.value()
        );
    }

    #[test]
    fn large_budget_moves_and_model_drift_go_cold() {
        let mut fast = SolverFastPath::default();
        fast.solve(&problem(500.0)).unwrap();
        fast.solve(&problem(800.0)).unwrap(); // 60 % move
        assert_eq!(fast.stats().warm_starts, 0);
        assert_eq!(fast.stats().cache_misses, 2);

        // Refit one model: fingerprint changes, warm gate closes.
        let drifted = AllocationProblem::new(
            vec![
                group(0, 2, 88.0, 147.0, 60.5, -0.12),
                group(1, 3, 47.0, 81.0, 50.0, -0.18),
            ],
            Watts::new(800.0),
        )
        .unwrap();
        fast.solve(&drifted).unwrap();
        assert_eq!(fast.stats().warm_starts, 0);
    }

    #[test]
    fn cache_hits_return_the_stored_cold_answer() {
        let mut fast = SolverFastPath::default();
        let a = problem(500.0);
        let b = problem(800.0); // far enough to defeat the warm gate
        let (first_a, _) = fast.solve(&a).unwrap();
        fast.solve(&b).unwrap();
        let (again_a, _) = fast.solve(&a).unwrap();
        assert_eq!(first_a, again_a);
        assert_eq!(fast.stats().cache_hits, 1);
        assert_eq!(fast.stats().cache_misses, 2);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let mut fast = SolverFastPath::new(FastPathConfig {
            cache_capacity: 2,
            warm_start: false,
            ..FastPathConfig::default()
        });
        fast.solve(&problem(100.0)).unwrap();
        fast.solve(&problem(300.0)).unwrap();
        fast.solve(&problem(100.0)).unwrap(); // refresh 100's stamp
        fast.solve(&problem(600.0)).unwrap(); // evicts 300
        assert_eq!(fast.stats().cache_evictions, 1);
        fast.solve(&problem(100.0)).unwrap(); // still cached
        assert_eq!(fast.stats().cache_hits, 2);
        fast.solve(&problem(300.0)).unwrap(); // was evicted → miss
        assert_eq!(fast.stats().cache_hits, 2);
    }

    #[test]
    fn disabled_cache_produces_identical_answers() {
        let budgets = [500.0, 505.0, 800.0, 500.0, 505.0, 200.0, 800.0];
        let mut on = SolverFastPath::default();
        let mut off = SolverFastPath::new(FastPathConfig {
            cache_capacity: 0,
            ..FastPathConfig::default()
        });
        for &b in &budgets {
            let p = problem(b);
            let (with_cache, e1) = on.solve(&p).unwrap();
            let (without, e2) = off.solve(&p).unwrap();
            assert_eq!(with_cache, without, "budget {b}");
            assert_eq!(e1, e2, "budget {b}");
        }
        assert!(
            on.stats().cache_hits > 0,
            "sequence never exercised the cache"
        );
        assert_eq!(off.stats().cache_hits, 0);
        assert_eq!(off.stats().cache_misses + off.stats().cache_hits, 0);
    }

    #[test]
    fn cross_check_samples_without_altering_answers() {
        let mut fast = SolverFastPath::new(FastPathConfig {
            cross_check_period: 2,
            ..FastPathConfig::default()
        });
        // Alternate two nearby budgets so every solve after the first is
        // warm (and exact), making every even solve a cross-check sample.
        for i in 0..10 {
            let b = if i % 2 == 0 { 500.0 } else { 505.0 };
            fast.solve(&problem(b)).unwrap();
        }
        assert!(fast.stats().cross_checks >= 4);
        // Concave case study: exact never loses to the grid.
        assert_eq!(fast.stats().cross_check_grid_wins, 0);
    }

    #[test]
    fn take_stats_returns_per_interval_deltas() {
        let mut fast = SolverFastPath::default();
        fast.solve(&problem(500.0)).unwrap();
        let d1 = fast.take_stats();
        assert_eq!(d1.cache_misses, 1);
        fast.solve(&problem(500.0)).unwrap();
        let d2 = fast.take_stats();
        assert_eq!(d2.cache_misses, 0);
        assert_eq!(d2.warm_starts, 1);
        assert_eq!(fast.stats().cache_misses, 1);
    }

    #[test]
    fn invalidate_clears_state_but_keeps_counters() {
        let mut fast = SolverFastPath::default();
        fast.solve(&problem(500.0)).unwrap();
        fast.invalidate();
        fast.solve(&problem(500.0)).unwrap();
        // Same problem twice, but the reuse seed was dropped → both cold.
        assert_eq!(fast.stats().warm_starts, 0);
        assert_eq!(fast.stats().cache_misses, 2);
    }

    #[test]
    fn many_group_problems_fall_back_to_seeded_grid_when_warm() {
        let groups: Vec<ServerGroup> = (0..(MAX_EXACT_GROUPS_PLUS_ONE as u32))
            .map(|i| group(i, 1, 20.0, 60.0, 10.0 + f64::from(i), -0.02))
            .collect();
        let mk = |budget: f64| AllocationProblem::new(groups.clone(), Watts::new(budget)).unwrap();
        let mut fast = SolverFastPath::default();
        fast.solve(&mk(300.0)).unwrap();
        let (warm, engine) = fast.solve(&mk(306.0)).unwrap();
        assert_eq!(engine, SolveEngine::Grid);
        assert_eq!(fast.stats().warm_starts, 1);
        let p = mk(306.0);
        assert!(p.is_feasible(&warm.per_server));
        let (cold, _) = solve_with_engine(&p).unwrap();
        assert!(
            warm.projected.value() >= cold.projected.value() * (1.0 - 1e-3) - 1e-6,
            "warm {} vs cold {}",
            warm.projected.value(),
            cold.projected.value()
        );
    }

    const MAX_EXACT_GROUPS_PLUS_ONE: usize = crate::solver::MAX_EXACT_GROUPS + 1;

    /// Runs the same problem sequence through two fast paths and asserts
    /// every answer and every *local* counter is bit-identical.
    fn assert_sequence_identical(budgets: &[f64], a: &mut SolverFastPath, b: &mut SolverFastPath) {
        for &budget in budgets {
            let p = problem(budget);
            let (alloc_a, engine_a) = a.solve(&p).unwrap();
            let (alloc_b, engine_b) = b.solve(&p).unwrap();
            assert_eq!(alloc_a, alloc_b, "budget {budget}");
            assert_eq!(engine_a, engine_b, "budget {budget}");
        }
        assert_eq!(a.stats(), b.stats(), "local counters diverged");
    }

    #[test]
    fn shared_cache_never_changes_answers_or_local_counters() {
        let budgets = [500.0, 505.0, 800.0, 500.0, 505.0, 200.0, 800.0, 201.0];
        let shared = Arc::new(SharedSolveCache::new(64));
        let mut with_shared = SolverFastPath::default();
        with_shared.set_shared_cache(Some(Arc::clone(&shared)));
        let mut without = SolverFastPath::default();
        assert_sequence_identical(&budgets, &mut with_shared, &mut without);
        assert!(
            shared.stats().insertions > 0,
            "shared cache never populated"
        );
    }

    #[test]
    fn second_controller_reuses_the_first_ones_solves() {
        let budgets = [500.0, 505.0, 800.0, 200.0];
        let shared = Arc::new(SharedSolveCache::new(64));
        let mut first = SolverFastPath::default();
        first.set_shared_cache(Some(Arc::clone(&shared)));
        let mut second = SolverFastPath::default();
        second.set_shared_cache(Some(Arc::clone(&shared)));
        let mut reference = SolverFastPath::default();

        for &b in &budgets {
            first.solve(&problem(b)).unwrap();
        }
        let after_first = shared.stats();
        // The second controller walks the same sequence: every engine call
        // it would have made is answered from the shared cache, and its
        // answers still match a cache-less reference bit for bit.
        assert_sequence_identical(&budgets, &mut second, &mut reference);
        let after_second = shared.stats();
        assert_eq!(
            after_second.insertions, after_first.insertions,
            "second controller should not have inserted anything new"
        );
        assert!(
            after_second.hits > after_first.hits,
            "second controller never hit the shared cache"
        );
    }

    /// Publishes `p`'s cold answer through a claim, as a controller would.
    fn publish_cold(shared: &Arc<SharedSolveCache>, p: &AllocationProblem) -> Allocation {
        let (allocation, engine) = solve_with_engine(p).unwrap();
        match shared.lookup(SolveKind::Cold, p) {
            SharedLookup::Miss(claim) => claim.publish(&allocation, engine),
            SharedLookup::Hit(_) => panic!("expected a miss before publishing"),
        }
        allocation
    }

    #[test]
    fn shared_cache_revalidates_and_evicts() {
        let shared = Arc::new(SharedSolveCache::new(1)); // 1 entry per shard
        let p1 = problem(500.0);
        let p2 = problem(800.0);
        let a1 = publish_cold(&shared, &p1);
        assert_eq!(shared.len(), 1);

        // Forge a digest collision: p1's entry filed under p2's key (the
        // digest is layout-only, so both land in the same shard). Full
        // equality turns the key match into a revalidation miss.
        let shard = &shared.shards[(ProblemKey::of(&p1).digest as usize) % SHARED_SHARDS];
        shard.state.lock().unwrap().entries[0].key = ProblemKey::of(&p2);
        assert!(matches!(
            shared.lookup(SolveKind::Cold, &p2),
            SharedLookup::Miss(_)
        ));
        shard.state.lock().unwrap().entries[0].key = ProblemKey::of(&p1);
        // Path tag mismatch → plain miss, not a revalidation miss.
        assert!(matches!(
            shared.lookup(SolveKind::WarmExact, &p1),
            SharedLookup::Miss(_)
        ));
        let stats = shared.stats();
        assert_eq!(stats.revalidation_misses, 1);
        assert_eq!(stats.misses, 2);

        // True hit returns the stored bits.
        match shared.lookup(SolveKind::Cold, &p1) {
            SharedLookup::Hit((hit, _)) => assert_eq!(hit, a1),
            SharedLookup::Miss(_) => panic!("expected a revalidated hit"),
        }

        // A second publish into the same (full) shard evicts the first.
        publish_cold(&shared, &p2);
        assert_eq!(shared.stats().evictions, 1);
        assert!(matches!(
            shared.lookup(SolveKind::Cold, &p1),
            SharedLookup::Miss(_)
        ));
    }

    #[test]
    fn abandoned_claims_release_the_problem() {
        let shared = Arc::new(SharedSolveCache::new(64));
        let p = problem(500.0);
        // A claim dropped without publishing (solver error, unwinding)
        // must not leave the next lookup waiting forever.
        drop(shared.lookup(SolveKind::Cold, &p));
        assert!(matches!(
            shared.lookup(SolveKind::Cold, &p),
            SharedLookup::Miss(_)
        ));
        assert_eq!(shared.stats().misses, 2);
        assert!(shared.is_empty());
    }

    #[test]
    fn concurrent_identical_misses_are_single_flight() {
        // Each round, two controllers released by a barrier solve the
        // same fresh problem: exactly one pays the cold solve and the
        // other reuses it, whichever thread wins the race. Twelve groups
        // keep the exact engine busy long enough for the lookups to
        // overlap.
        let groups: Vec<ServerGroup> = (0..12)
            .map(|i| group(i, 1, 20.0, 60.0, 10.0 + f64::from(i), -0.02))
            .collect();
        let shared = Arc::new(SharedSolveCache::new(1024));
        let rounds = 4u32;
        let start = std::sync::Barrier::new(2);
        let run = || -> Vec<(Allocation, SolveEngine)> {
            (0..rounds)
                .map(|round| {
                    let mut fast = SolverFastPath::default();
                    fast.set_shared_cache(Some(Arc::clone(&shared)));
                    let budget = Watts::new(400.0 + f64::from(round));
                    let p = AllocationProblem::new(groups.clone(), budget).unwrap();
                    start.wait();
                    fast.solve(&p).unwrap()
                })
                .collect()
        };
        let (first, second) = std::thread::scope(|scope| {
            let other = scope.spawn(run);
            let mine = run();
            (mine, other.join().unwrap())
        });
        assert_eq!(first, second);
        let stats = shared.stats();
        let rounds = u64::from(rounds);
        assert_eq!(
            (stats.misses, stats.insertions, stats.hits),
            (rounds, rounds, rounds),
            "one solve and one reuse per round: {stats:?}"
        );
    }

    #[test]
    fn shared_reuse_rate_reflects_hits() {
        let mut stats = SharedSolveStats::default();
        assert!(stats.reuse_rate().abs() < f64::EPSILON);
        stats.hits = 9;
        stats.misses = 1;
        assert!((stats.reuse_rate() - 0.9).abs() < 1e-12);
    }
}
