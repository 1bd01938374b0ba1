//! Fleet-scale simulation: thousands of racks stepping in lock-step
//! epochs on a shared, zero-copy substrate.
//!
//! The paper's controller manages one rack; its motivation (Fig. 1) is a
//! datacenter. A [`FleetSpec`] scales the single-rack engine out to N
//! racks under one renewable feed:
//!
//! * **Shared substrate, zero copies.** One [`Rack`] (the immutable
//!   platform/workload table and ground-truth server models), one solar
//!   [`PowerTrace`] (synthesized once from the base scenario, scaled
//!   per-rack by a deterministic factor), and — when pretraining is on —
//!   one [`PerfDatabase`] of profiling curves, all behind `Arc`s. Each
//!   controller reads the curve store through a
//!   [`CowDatabase`](greenhetero_core::database::CowDatabase): its own
//!   refits copy single entries into a private overlay, so memory stays
//!   flat in N until a rack actually diverges.
//! * **Owned per-rack state.** Battery, grid feed, meter/perf RNGs,
//!   solver scratch and cache are constructed per rack from a seed mixed
//!   from the base seed and the rack id — never from worker identity —
//!   so a fleet run is bit-identical at any worker count, including 1.
//! * **Batched solves.** One fleet-wide
//!   [`SharedSolveCache`] dedups the per-epoch PAR solve across racks:
//!   controllers facing bit-identical problems (same model fingerprints,
//!   same budget bits, full-equality revalidation on hit) pay one cold
//!   solve and reuse the answer. Attaching, detaching, or resizing the
//!   cache never changes a single output bit (DESIGN.md §14).
//! * **Fork-join lock-step epochs.** Each epoch, every rack lane is
//!   stepped once on the scoped fork-join loop
//!   ([`crate::sched::run_epoch_batches`]): workers claim lanes one at a
//!   time, and the epoch ends when all of them are joined. The caller
//!   then folds every lane's epoch record into the fleet accumulators
//!   **in ascending rack order** (never completion order) and flushes
//!   the shared event sink through the finished epoch, so every float
//!   sum is a fixed-order reduction and the fleet CSV/JSONL is
//!   byte-identical at any worker count. Records are folded at the end
//!   of their epoch and dropped: resident state is O(racks), not
//!   O(racks × epochs), which is what lets 100k-rack fleets fit a
//!   per-rack RSS budget (BENCH_fleet.json gates it).
//!
//! [`FleetSpec::run_sequential`] is the plain one-rack-after-another
//! reference implementation the lock-step engine is tested against.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use greenhetero_core::database::PerfDatabase;
use greenhetero_core::error::CoreError;
use greenhetero_core::metrics::EpuAccumulator;
use greenhetero_core::solver::{SharedSolveCache, SharedSolveStats, DEFAULT_SHARED_SOLVE_CAPACITY};
use greenhetero_core::telemetry::{EpochEvent, RunLedger, Telemetry, TelemetrySink};
use greenhetero_core::types::{EpochId, Ratio, SimTime, Throughput, WattHours, Watts};
use greenhetero_power::solar::synthesize_shared;
use greenhetero_power::trace::PowerTrace;
use greenhetero_server::rack::Rack;

use crate::engine::Simulation;
use crate::report::{EpochRecord, RunReport};
use crate::runner::worker_count;
use crate::scenario::{Scenario, TelemetrySpec};
use crate::sched::run_epoch_batches;

/// A fleet experiment: N racks of the base scenario under one solar
/// plant, stepped in lock-step epochs.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The per-rack scenario template. Its seed, solar trace, rack
    /// composition, faults, and telemetry spec apply fleet-wide; each
    /// rack derives its own RNG seeds from `base.seed` and its rack id.
    pub base: Scenario,
    /// Number of racks to simulate.
    pub racks: u32,
    /// Worker threads stepping the fleet; `0` means
    /// [`worker_count`] (machine parallelism, `GH_SIM_THREADS` aware).
    pub workers: usize,
    /// Half-width of the deterministic per-rack solar scale band: rack
    /// scale factors are drawn from `[1 - spread, 1 + spread)` by a hash
    /// of (base seed, rack id). `0.0` pins every rack to exactly `1.0`,
    /// which multiplies bit-transparently.
    pub solar_scale_spread: f64,
    /// Pretrain one shared, noise-free profiling database and hand it to
    /// every controller as a copy-on-write base, instead of every rack
    /// running its own training epoch.
    pub pretrain: bool,
    /// Capacity (entries) of the fleet-wide [`SharedSolveCache`] that
    /// dedups identical PAR solves across racks; `0` disables it. Purely
    /// an acceleration: every report, CSV row, ledger entry, and event is
    /// bit-identical at any capacity, including `0`.
    pub shared_solve_capacity: usize,
}

impl FleetSpec {
    /// A fleet of `racks` copies of `base` with auto worker count, no
    /// solar spread, and shared pretraining on.
    #[must_use]
    pub fn new(base: Scenario, racks: u32) -> Self {
        FleetSpec {
            base,
            racks,
            workers: 0,
            solar_scale_spread: 0.0,
            pretrain: true,
            shared_solve_capacity: DEFAULT_SHARED_SOLVE_CAPACITY,
        }
    }

    /// Validates the fleet parameters and the base scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a rack-less fleet or a
    /// solar spread outside `[0, 1)`, and propagates base scenario
    /// validation failures.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.racks == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "fleet needs at least one rack".into(),
            });
        }
        if !(self.solar_scale_spread.is_finite() && (0.0..1.0).contains(&self.solar_scale_spread)) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "solar scale spread must be in [0, 1), got {}",
                    self.solar_scale_spread
                ),
            });
        }
        self.base.validate()
    }

    /// Runs the fleet in lock-step on the fork-join epoch loop.
    ///
    /// Each epoch, up to `workers` threads claim and step rack lanes;
    /// the calling thread then folds the finished epoch into streaming
    /// fleet accumulators in ascending rack order and drops the
    /// per-epoch records, so resident state stays O(racks).
    ///
    /// # Errors
    ///
    /// Propagates validation and simulation failures; when several racks
    /// fail in the same epoch, the lowest rack id's error wins
    /// (deterministically, whatever the worker count).
    pub fn run(&self) -> Result<FleetReport, CoreError> {
        self.validate()?;
        let substrate = self.substrate()?;
        let workers = self.resolved_workers();
        let sims = self.build_sims(&substrate)?;
        let sink = substrate.shared_sink.as_deref();
        let stream = run_lock_step_sched(sims, workers, sink)?;
        if let Some(sink) = sink {
            sink.flush_all();
        }
        Ok(self.assemble(stream, workers, substrate.solve_stats()))
    }

    /// Runs each rack to completion, one after another, with no worker
    /// pool and no lock-step — the plain reference the parallel engine
    /// must match byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates validation and simulation failures.
    pub fn run_sequential(&self) -> Result<FleetReport, CoreError> {
        self.validate()?;
        let substrate = self.substrate()?;
        let reports = self
            .build_sims(&substrate)?
            .into_iter()
            .map(Simulation::run)
            .collect::<Result<Vec<_>, _>>()?;
        // Sequential racks buffer their whole event stream; one flush
        // reorders it into the same (epoch, rack) sequence the lock-step
        // loops produce.
        if let Some(sink) = &substrate.shared_sink {
            sink.flush_all();
        }
        Ok(self.reduce(reports, 1, substrate.solve_stats()))
    }

    /// The worker count this spec resolves to (before clamping to the
    /// rack count).
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            worker_count()
        } else {
            self.workers
        }
    }

    /// Builds the shared read-mostly substrate: one rack table, one
    /// solar trace, one optional pretrained curve store, one sink.
    fn substrate(&self) -> Result<Substrate, CoreError> {
        let rack = Arc::new(self.base.build_rack()?);
        // Shared synthesis; hit/miss counts are deliberately not
        // recorded into any ledger (solo path included) — the memo is
        // process-global state, and ledgers must depend only on the
        // spec. `solar::cache_stats` holds the process totals.
        let (solar, _cache_hit) = synthesize_shared(&self.base.solar_config()?)?;
        let profile_base = if self.pretrain {
            Some(Arc::new(pretrain_database(&rack, &self.base)?))
        } else {
            None
        };
        // Racks emit into this one sink concurrently; it buffers epoch
        // events and the run loops flush them in (epoch, rack id) order at
        // epoch boundaries, so the fleet event log's line order is a pure
        // function of the spec — identical at any worker count.
        let shared_sink: Option<Arc<SharedSink>> = match &self.base.telemetry {
            TelemetrySpec::Off => None,
            spec => Some(Arc::new(SharedSink::new(spec.build()?))),
        };
        let solve_cache = (self.shared_solve_capacity > 0)
            .then(|| Arc::new(SharedSolveCache::new(self.shared_solve_capacity)));
        Ok(Substrate {
            rack,
            solar,
            profile_base,
            shared_sink,
            solve_cache,
        })
    }

    /// Builds the per-rack simulations in rack order: owned state seeded
    /// from (base seed, rack id), shared substrate behind `Arc`s, and a
    /// per-rack telemetry registry in front of the one shared sink.
    fn build_sims(&self, substrate: &Substrate) -> Result<Vec<Simulation>, CoreError> {
        (0..self.racks)
            .map(|rack_id| {
                let mut scenario = self.base.clone();
                scenario.seed = mix_seed(self.base.seed, rack_id);
                scenario.telemetry = TelemetrySpec::Off;
                let telemetry = match &substrate.shared_sink {
                    Some(sink) => Telemetry::with_sink(Arc::clone(sink) as Arc<dyn TelemetrySink>),
                    None => Telemetry::disabled(),
                };
                let mut sim = Simulation::with_substrate(
                    scenario,
                    Arc::clone(&substrate.rack),
                    Arc::clone(&substrate.solar),
                    rack_solar_scale(self.solar_scale_spread, self.base.seed, rack_id),
                    rack_id,
                    telemetry,
                    substrate.profile_base.clone(),
                )?;
                if let Some(cache) = &substrate.solve_cache {
                    sim.set_shared_solve_cache(Arc::clone(cache));
                }
                Ok(sim)
            })
            .collect()
    }

    /// Assembles the fleet report from the streaming lock-step loop's
    /// output: columns already folded epoch-major in rack order, plus
    /// per-rack results harvested in rack order. Mirrors [`reduce`] —
    /// the record-vector reduction `run_sequential` still uses as the
    /// byte-identity oracle — add for add, in the same order.
    ///
    /// [`reduce`]: Self::reduce
    fn assemble(
        &self,
        stream: FleetStream,
        workers: usize,
        shared_solve: SharedSolveStats,
    ) -> FleetReport {
        let racks = stream.lanes.len();
        let epochs = stream.columns.into_fleet_records(&stream.template, racks);

        let mut ledger = RunLedger::default();
        for lane in &stream.lanes {
            ledger.merge(&lane.report.ledger);
        }

        let mut mean_epu = 0.0;
        let rack_summaries: Vec<RackSummary> = stream
            .lanes
            .iter()
            .enumerate()
            .map(|(rack_id, lane)| {
                mean_epu += lane.report.epu().value();
                RackSummary {
                    rack_id: rack_id as u32,
                    seed: mix_seed(self.base.seed, rack_id as u32),
                    solar_scale: rack_solar_scale(
                        self.solar_scale_spread,
                        self.base.seed,
                        rack_id as u32,
                    ),
                    mean_throughput: lane.mean_throughput(),
                    epu: lane.report.epu(),
                    grid_cost: lane.report.grid_cost,
                    battery_cycles: lane.report.battery_cycles,
                    unserved_energy_wh: lane.unserved_energy.value(),
                    degraded_epochs: lane.degraded_epochs,
                }
            })
            .collect();
        mean_epu /= racks.max(1) as f64;

        FleetReport {
            racks: self.racks,
            workers,
            epochs,
            rack_summaries,
            mean_epu: Ratio::saturating(mean_epu),
            ledger,
            shared_solve,
        }
    }

    /// Deterministic reduction: folds per-rack reports into the fleet
    /// report in rack order, whatever order the workers finished in.
    /// This record-vector form is retained as the sequential oracle's
    /// reduction ([`Self::run_sequential`]); the scheduler path streams
    /// the same fold via [`Self::assemble`].
    ///
    /// The per-epoch aggregation is a structure-of-arrays pass: one
    /// column per aggregate field, each rack's record stream scanned
    /// contiguously (rack-major). For any fixed (epoch, field) the
    /// additions still land in ascending rack order, so every float sum
    /// is the same fixed-order reduction as a record-at-a-time fold —
    /// bit-identical results, but the hot loop walks one rack's
    /// contiguous records instead of striding across N report vectors
    /// per epoch.
    fn reduce(
        &self,
        reports: Vec<RunReport>,
        workers: usize,
        shared_solve: SharedSolveStats,
    ) -> FleetReport {
        let epochs_per_rack = reports.first().map_or(0, |r| r.epochs.len());
        let mut columns = FleetColumns::zeroed(epochs_per_rack);
        for report in &reports {
            columns.fold_rack(&report.epochs);
        }
        let epochs = columns.into_records(&reports[0].epochs, reports.len());

        let mut ledger = RunLedger::default();
        for report in &reports {
            ledger.merge(&report.ledger);
        }

        let mut mean_epu = 0.0;
        let rack_summaries: Vec<RackSummary> = reports
            .iter()
            .enumerate()
            .map(|(rack_id, report)| {
                mean_epu += report.epu().value();
                RackSummary {
                    rack_id: rack_id as u32,
                    seed: mix_seed(self.base.seed, rack_id as u32),
                    solar_scale: rack_solar_scale(
                        self.solar_scale_spread,
                        self.base.seed,
                        rack_id as u32,
                    ),
                    mean_throughput: report.mean_throughput(),
                    epu: report.epu(),
                    grid_cost: report.grid_cost,
                    battery_cycles: report.battery_cycles,
                    unserved_energy_wh: report.unserved_energy.value(),
                    degraded_epochs: report.degraded_epochs,
                }
            })
            .collect();
        mean_epu /= reports.len().max(1) as f64;

        FleetReport {
            racks: self.racks,
            workers,
            epochs,
            rack_summaries,
            mean_epu: Ratio::saturating(mean_epu),
            ledger,
            shared_solve,
        }
    }
}

/// The shared read-mostly substrate every rack steps on.
struct Substrate {
    rack: Arc<Rack>,
    solar: Arc<PowerTrace>,
    profile_base: Option<Arc<PerfDatabase>>,
    shared_sink: Option<Arc<SharedSink>>,
    solve_cache: Option<Arc<SharedSolveCache>>,
}

impl Substrate {
    /// Counter snapshot of the fleet-wide solve cache (zeros when the
    /// cache is disabled) — scheduling-dependent provenance, like
    /// [`FleetReport::workers`].
    fn solve_stats(&self) -> SharedSolveStats {
        self.solve_cache
            .as_ref()
            .map_or_else(SharedSolveStats::default, |c| c.stats())
    }
}

/// One epoch of the whole fleet in columns, one `Vec` per aggregate
/// field — the SoA accumulator behind [`FleetSpec::reduce`]. SoC sums
/// live in unclamped `f64`s (a [`Ratio`] would saturate at 1.0 as soon
/// as two racks fold in); only the final mean becomes a `Ratio` again.
#[derive(Debug)]
struct FleetColumns {
    training_racks: Vec<u32>,
    degraded_racks: Vec<u32>,
    budget: Vec<Watts>,
    demand: Vec<Watts>,
    solar: Vec<Watts>,
    load: Vec<Watts>,
    battery_discharge: Vec<Watts>,
    battery_charge: Vec<Watts>,
    grid_load: Vec<Watts>,
    grid_charge: Vec<Watts>,
    unserved: Vec<Watts>,
    throughput: Vec<Throughput>,
    shed_servers: Vec<u32>,
    offline_servers: Vec<u32>,
    soc_sum: Vec<f64>,
}

impl FleetColumns {
    fn zeroed(epochs: usize) -> Self {
        FleetColumns {
            training_racks: vec![0; epochs],
            degraded_racks: vec![0; epochs],
            budget: vec![Watts::ZERO; epochs],
            demand: vec![Watts::ZERO; epochs],
            solar: vec![Watts::ZERO; epochs],
            load: vec![Watts::ZERO; epochs],
            battery_discharge: vec![Watts::ZERO; epochs],
            battery_charge: vec![Watts::ZERO; epochs],
            grid_load: vec![Watts::ZERO; epochs],
            grid_charge: vec![Watts::ZERO; epochs],
            unserved: vec![Watts::ZERO; epochs],
            throughput: vec![Throughput::ZERO; epochs],
            shed_servers: vec![0; epochs],
            offline_servers: vec![0; epochs],
            soc_sum: vec![0.0; epochs],
        }
    }

    /// Folds one rack's record for epoch slot `e` into the columns.
    ///
    /// Bit-identity invariant: for any fixed (epoch, field) cell the
    /// additions must land in ascending rack order. Both callers honour
    /// it — [`fold_rack`](Self::fold_rack) visits racks in ascending
    /// order rack-major, and the lock-step loop folds lanes in ascending
    /// rack order epoch-major — so the two fold schedules produce the
    /// same fixed-order f64 reduction per cell, bit for bit.
    fn fold_record(&mut self, e: usize, rec: &EpochRecord) {
        self.training_racks[e] += u32::from(rec.training);
        self.degraded_racks[e] += u32::from(rec.degraded);
        self.budget[e] += rec.budget;
        self.demand[e] += rec.demand;
        self.solar[e] += rec.solar;
        self.load[e] += rec.load;
        self.battery_discharge[e] += rec.battery_discharge;
        self.battery_charge[e] += rec.battery_charge;
        self.grid_load[e] += rec.grid_load;
        self.grid_charge[e] += rec.grid_charge;
        self.unserved[e] += rec.unserved;
        self.throughput[e] += rec.throughput;
        self.shed_servers[e] += rec.shed_servers;
        self.offline_servers[e] += rec.offline_servers;
        self.soc_sum[e] += rec.soc.value();
    }

    /// Folds one rack's full record stream into the columns. Callers
    /// fold racks in ascending rack order: that keeps every per-epoch
    /// float sum a fixed-order reduction.
    fn fold_rack(&mut self, epochs: &[EpochRecord]) {
        for (e, rec) in epochs.iter().enumerate() {
            self.fold_record(e, rec);
        }
    }

    /// Assembles the columns back into per-epoch records. `template`
    /// supplies the per-slot epoch id and time (lock-step: identical for
    /// every rack); `racks` divides the SoC sums into means.
    fn into_records(self, template: &[EpochRecord], racks: usize) -> Vec<FleetEpochRecord> {
        let pairs: Vec<(EpochId, SimTime)> = template.iter().map(|t| (t.epoch, t.time)).collect();
        self.into_fleet_records(&pairs, racks)
    }

    /// [`into_records`](Self::into_records) over a bare (epoch id, time)
    /// template — the form the streaming fold captures, since it never
    /// retains whole [`EpochRecord`]s.
    fn into_fleet_records(
        self,
        template: &[(EpochId, SimTime)],
        racks: usize,
    ) -> Vec<FleetEpochRecord> {
        template
            .iter()
            .enumerate()
            .map(|(e, &(epoch, time))| FleetEpochRecord {
                epoch,
                time,
                training_racks: self.training_racks[e],
                degraded_racks: self.degraded_racks[e],
                budget: self.budget[e],
                demand: self.demand[e],
                solar: self.solar[e],
                load: self.load[e],
                battery_discharge: self.battery_discharge[e],
                battery_charge: self.battery_charge[e],
                grid_load: self.grid_load[e],
                grid_charge: self.grid_charge[e],
                unserved: self.unserved[e],
                throughput: self.throughput[e],
                shed_servers: self.shed_servers[e],
                offline_servers: self.offline_servers[e],
                mean_soc: Ratio::saturating(self.soc_sum[e] / racks as f64),
            })
            .collect()
    }
}

/// Shared fleet event sink: every rack's events funnel into one JSONL
/// stream (or caller sink) while registries stay per-rack.
///
/// Epoch events are buffered keyed by (epoch, rack id) and forwarded in
/// key order when the run loops call [`flush_through`] at epoch
/// boundaries (all of epoch *e*'s events exist before any worker passes
/// the barrier into *e + 1*), so the emitted line order is a pure
/// function of the spec at any worker count. Lock-step runs hold at most
/// one epoch of events; the sequential reference buffers the whole run
/// and flushes once. Spans carry no rack id and are forwarded
/// immediately (the JSONL sink drops them; ledgers don't depend on
/// order).
///
/// [`flush_through`]: SharedSink::flush_through
struct SharedSink {
    inner: Telemetry,
    pending: Mutex<BTreeMap<(u64, u32), EpochEvent>>,
}

impl SharedSink {
    fn new(inner: Telemetry) -> Self {
        SharedSink {
            inner,
            pending: Mutex::new(BTreeMap::new()),
        }
    }

    /// Forwards every buffered event with `event.epoch <= epoch`, in
    /// (epoch, rack id) order. Sound to call once all racks have stepped
    /// through `epoch`.
    fn flush_through(&self, epoch: u64) {
        let ready: Vec<EpochEvent> = {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            let rest = pending.split_off(&(epoch + 1, 0));
            std::mem::replace(&mut *pending, rest)
                .into_values()
                .collect()
        };
        let sink = self.inner.sink();
        for event in &ready {
            sink.record_epoch(event);
        }
    }

    /// Forwards everything still buffered, in (epoch, rack id) order.
    fn flush_all(&self) {
        let ready: Vec<EpochEvent> = {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *pending).into_values().collect()
        };
        let sink = self.inner.sink();
        for event in &ready {
            sink.record_epoch(event);
        }
    }
}

impl Drop for SharedSink {
    fn drop(&mut self) {
        // Backstop for aborted runs: whatever ordered prefix is buffered
        // still reaches the sink.
        self.flush_all();
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

impl TelemetrySink for SharedSink {
    fn enabled(&self) -> bool {
        self.inner.sink_enabled()
    }

    fn record_span(&self, span: &greenhetero_core::telemetry::SpanRecord) {
        self.inner.sink().record_span(span);
    }

    fn record_epoch(&self, event: &EpochEvent) {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((event.epoch.raw(), event.rack_id), event.clone());
    }
}

/// SplitMix64-style seed mixer: spreads (base seed, rack id) over the
/// whole u64 space so neighbouring racks get uncorrelated RNG streams.
/// Depends only on its inputs — never on worker identity.
fn mix_seed(base: u64, rack_id: u32) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(rack_id).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rack's multiplier on the shared solar feed: exactly `1.0` when
/// `spread == 0`, otherwise a deterministic draw from
/// `[1 - spread, 1 + spread)` hashed from (base seed, rack id).
fn rack_solar_scale(spread: f64, base_seed: u64, rack_id: u32) -> f64 {
    if spread == 0.0 {
        return 1.0;
    }
    let hash = mix_seed(base_seed ^ 0x534F_4C41_5243_414C, rack_id);
    // 53 high bits → a uniform double in [0, 1).
    let unit = (hash >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + spread * (2.0 * unit - 1.0)
}

/// Builds the shared noise-free profiling database: one training sweep
/// per distinct (configuration, workload) pair in the rack, exactly the
/// sweep the engine's training epoch would run, minus meter noise.
///
/// Public so the serve daemon can pretrain once and share the result
/// across sessions through a `CowDatabase`, the same way the fleet loop
/// does.
///
/// # Errors
///
/// Propagates training-insertion failures from the profile database.
pub fn pretrain_database(rack: &Rack, base: &Scenario) -> Result<PerfDatabase, CoreError> {
    let mut db = PerfDatabase::new();
    let samples_per_training = base.controller.samples_per_training() as usize;
    let intensity = base.intensity.at(SimTime::ZERO);
    for (group_idx, group) in rack.groups().iter().enumerate() {
        let (config, workload) = (group.platform.id(), group.workload.id());
        if db.contains(config, workload) {
            continue;
        }
        let envelope = group.server().truth().envelope();
        let sweep = rack.training_sweep(group_idx, samples_per_training, intensity);
        let samples: Vec<_> = sweep
            .iter()
            .enumerate()
            .map(|(i, s)| {
                greenhetero_core::database::ProfileSample::new(
                    s.power,
                    s.throughput,
                    SimTime::ZERO + base.controller.sample_period * i as u64,
                )
            })
            .collect();
        db.insert_training(config, workload, envelope, &samples)?;
    }
    Ok(db)
}

/// One rack riding through the lock-step epoch loop: its simulation,
/// its streaming per-rack accumulators (mirroring the formulas
/// `RunReport` computes from full record vectors, in the same epoch
/// order, so the results are bit-identical), the record awaiting the
/// end-of-epoch fold, and its error slot.
struct RackLane {
    rack_id: u32,
    sim: Simulation,
    epu: EpuAccumulator,
    steady_sum: f64,
    steady_count: u64,
    unserved_energy: WattHours,
    degraded_epochs: u64,
    pending: Option<EpochRecord>,
    error: Option<CoreError>,
}

/// One rack's end-of-run harvest from the streaming loop.
struct RackResult {
    report: RunReport,
    steady_sum: f64,
    steady_count: u64,
    unserved_energy: WattHours,
    degraded_epochs: u64,
}

impl RackResult {
    /// Streaming mirror of [`RunReport::mean_throughput`]: the same
    /// epoch-order left-fold sum over non-training epochs, divided by
    /// their count — bit-identical to the record-vector form.
    fn mean_throughput(&self) -> Throughput {
        if self.steady_count == 0 {
            return Throughput::ZERO;
        }
        Throughput::new(self.steady_sum / self.steady_count as f64)
    }
}

/// Everything the streaming lock-step loop hands back for assembly.
struct FleetStream {
    columns: FleetColumns,
    template: Vec<(EpochId, SimTime)>,
    lanes: Vec<RackResult>,
}

/// Lock-step on the fork-join epoch loop: every rack lane is stepped
/// once per epoch by whichever worker claims it, then the caller folds
/// the finished epoch's records into the fleet columns in ascending rack
/// order, flushes the shared sink through that epoch, and drops the
/// records — streaming the whole reduction so resident state is
/// O(racks), not O(racks × epochs).
///
/// A failing rack records its error and raises the abort: the run ends
/// once the current epoch's steps are done, the failed epoch is neither
/// folded nor flushed (the `SharedSink` drop backstop still emits the
/// ordered prefix of earlier epochs), and the first error in rack order
/// is returned — independent of worker count.
fn run_lock_step_sched(
    sims: Vec<Simulation>,
    workers: usize,
    sink: Option<&SharedSink>,
) -> Result<FleetStream, CoreError> {
    let epochs_total = sims.first().map_or(0, Simulation::epochs_total);
    let Some(epoch_len) = sims.first().map(|s| s.scenario().controller.epoch_len) else {
        return Ok(FleetStream {
            columns: FleetColumns::zeroed(0),
            template: Vec::new(),
            lanes: Vec::new(),
        });
    };

    let lanes: Vec<RackLane> = sims
        .into_iter()
        .enumerate()
        .map(|(idx, sim)| RackLane {
            rack_id: idx as u32,
            sim,
            epu: EpuAccumulator::new(),
            steady_sum: 0.0,
            steady_count: 0,
            unserved_energy: WattHours::ZERO,
            degraded_epochs: 0,
            pending: None,
            error: None,
        })
        .collect();

    let fold_state = RefCell::new((
        FleetColumns::zeroed(epochs_total as usize),
        Vec::with_capacity(epochs_total as usize),
    ));

    let step = |lane: &mut RackLane, _epoch: u64| -> bool {
        match lane.sim.step_epoch_record(&mut lane.epu) {
            Ok(rec) => {
                // Per-rack streaming sums: same ops, same epoch order
                // as `Simulation::finish` over full records.
                if !rec.training {
                    lane.steady_sum += rec.throughput.value();
                    lane.steady_count += 1;
                }
                lane.unserved_energy += rec.unserved * epoch_len;
                lane.degraded_epochs += u64::from(rec.degraded);
                lane.pending = Some(rec);
                true
            }
            Err(e) => {
                lane.error = Some(e);
                false
            }
        }
    };
    // Runs on the calling thread, lanes in ascending rack order.
    let fold = |epoch: u64, lane: &mut RackLane| {
        if let Some(rec) = lane.pending.take() {
            let (columns, template) = &mut *fold_state.borrow_mut();
            if lane.rack_id == 0 {
                template.push((rec.epoch, rec.time));
            }
            columns.fold_record(epoch as usize, &rec);
        }
    };
    let epoch_done = |epoch: u64| {
        if let Some(sink) = sink {
            sink.flush_through(epoch);
        }
    };

    let mut done = run_epoch_batches(workers, epochs_total, lanes, &step, &fold, &epoch_done);
    // First error in rack order wins, independent of worker count.
    for lane in &mut done {
        if let Some(e) = lane.error.take() {
            return Err(e);
        }
    }
    let (columns, template) = fold_state.into_inner();
    let lanes = done
        .into_iter()
        .map(|lane| RackResult {
            // Record-derived report fields were computed streaming; the
            // empty-record finish harvests the rest (grid totals,
            // battery cycles, ledger, EPU) from the simulation state.
            report: lane.sim.finish(Vec::new(), lane.epu),
            steady_sum: lane.steady_sum,
            steady_count: lane.steady_count,
            unserved_energy: lane.unserved_energy,
            degraded_epochs: lane.degraded_epochs,
        })
        .collect();
    Ok(FleetStream {
        columns,
        template,
        lanes,
    })
}

/// One epoch of the whole fleet: per-rack records summed in rack order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEpochRecord {
    /// The epoch index (shared by every rack — lock-step).
    pub epoch: EpochId,
    /// Start time of the epoch.
    pub time: SimTime,
    /// Racks that ran a training epoch.
    pub training_racks: u32,
    /// Racks that ran degraded.
    pub degraded_racks: u32,
    /// Fleet-wide power budget (sum over racks).
    pub budget: Watts,
    /// Fleet-wide unconstrained demand.
    pub demand: Watts,
    /// Fleet-wide solar generation.
    pub solar: Watts,
    /// Fleet-wide measured server draw.
    pub load: Watts,
    /// Fleet-wide battery discharge into load.
    pub battery_discharge: Watts,
    /// Fleet-wide battery charging power.
    pub battery_charge: Watts,
    /// Fleet-wide grid power serving load.
    pub grid_load: Watts,
    /// Fleet-wide grid power charging batteries.
    pub grid_charge: Watts,
    /// Fleet-wide planned power the sources could not deliver.
    pub unserved: Watts,
    /// Fleet-wide measured throughput.
    pub throughput: Throughput,
    /// Servers shed fleet-wide.
    pub shed_servers: u32,
    /// Servers offline fleet-wide.
    pub offline_servers: u32,
    /// Mean battery state of charge across racks.
    pub mean_soc: Ratio,
}

/// One rack's end-of-run summary within a fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct RackSummary {
    /// The rack's fleet index.
    pub rack_id: u32,
    /// The seed its owned state (meters, RNGs) derived from.
    pub seed: u64,
    /// Its multiplier on the shared solar feed.
    pub solar_scale: f64,
    /// Mean steady-state throughput.
    pub mean_throughput: Throughput,
    /// Effective power utilization (Eq. 1).
    pub epu: Ratio,
    /// Grid bill under the tariff.
    pub grid_cost: f64,
    /// Battery cycles consumed.
    pub battery_cycles: f64,
    /// Total undelivered planned energy, in watt-hours.
    pub unserved_energy_wh: f64,
    /// Epochs the rack ran degraded.
    pub degraded_epochs: u64,
}

/// The deterministic reduction of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Racks simulated.
    pub racks: u32,
    /// Workers the lock-step loop ran on (1 for the sequential
    /// reference) — reported for provenance; never affects the numbers.
    pub workers: usize,
    /// Fleet-wide per-epoch aggregates, summed in rack order.
    pub epochs: Vec<FleetEpochRecord>,
    /// Per-rack summaries, in rack order.
    pub rack_summaries: Vec<RackSummary>,
    /// Mean per-rack effective power utilization.
    pub mean_epu: Ratio,
    /// Per-rack ledgers merged in rack order: counters summed,
    /// histograms combined (quantiles count-weighted).
    pub ledger: RunLedger,
    /// Fleet-wide [`SharedSolveCache`] counter totals (zeros when the
    /// cache is disabled). Like `workers`, this is provenance: *which*
    /// rack pays a cold solve is scheduling-dependent, so these totals
    /// may differ across worker counts and are excluded from the
    /// byte-compared artifacts (CSV, ledger, events).
    pub shared_solve: SharedSolveStats,
}

impl FleetReport {
    /// Total rack-epochs stepped.
    #[must_use]
    pub fn rack_epochs(&self) -> u64 {
        u64::from(self.racks) * self.epochs.len() as u64
    }

    /// Fleet mean throughput over steady epochs (training epochs carry
    /// partial fleets, so they are excluded like single-rack reports do).
    #[must_use]
    pub fn mean_throughput(&self) -> Throughput {
        let steady: Vec<&FleetEpochRecord> = self
            .epochs
            .iter()
            .filter(|e| e.training_racks == 0)
            .collect();
        if steady.is_empty() {
            return Throughput::ZERO;
        }
        let sum: f64 = steady.iter().map(|e| e.throughput.value()).sum();
        Throughput::new(sum / steady.len() as f64)
    }

    /// Writes the fleet epoch series as CSV, full float precision (the
    /// shortest round-trip representation), so byte equality of two CSVs
    /// is bit equality of two runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_csv<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(
            writer,
            "epoch,seconds,training_racks,degraded_racks,budget_w,demand_w,solar_w,load_w,\
             battery_discharge_w,battery_charge_w,grid_load_w,grid_charge_w,unserved_w,\
             throughput,shed,offline,mean_soc"
        )?;
        for e in &self.epochs {
            writeln!(
                writer,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                e.epoch.raw(),
                e.time.as_secs(),
                e.training_racks,
                e.degraded_racks,
                e.budget.value(),
                e.demand.value(),
                e.solar.value(),
                e.load.value(),
                e.battery_discharge.value(),
                e.battery_charge.value(),
                e.grid_load.value(),
                e.grid_charge.value(),
                e.unserved.value(),
                e.throughput.value(),
                e.shed_servers,
                e.offline_servers,
                e.mean_soc.value(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenhetero_core::policies::PolicyKind;

    fn tiny_fleet(racks: u32) -> FleetSpec {
        FleetSpec::new(
            Scenario {
                servers_per_type: 1,
                days: 1,
                ..Scenario::paper_runtime(PolicyKind::GreenHetero)
            },
            racks,
        )
    }

    #[test]
    fn seed_mixing_is_rack_unique_and_stable() {
        let a = mix_seed(42, 0);
        assert_eq!(a, mix_seed(42, 0));
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|r| mix_seed(42, r)).collect();
        assert_eq!(seeds.len(), 1000, "rack seeds must not collide");
        assert_ne!(mix_seed(42, 1), mix_seed(43, 1));
    }

    #[test]
    fn zero_spread_scale_is_exactly_one() {
        for rack in 0..32 {
            assert!(rack_solar_scale(0.0, 42, rack).to_bits() == 1.0f64.to_bits());
        }
    }

    #[test]
    fn spread_scales_stay_in_band_and_vary() {
        let scales: Vec<f64> = (0..64).map(|r| rack_solar_scale(0.2, 42, r)).collect();
        for s in &scales {
            assert!((0.8..1.2).contains(s), "scale {s} out of band");
        }
        let distinct: std::collections::HashSet<u64> = scales.iter().map(|s| s.to_bits()).collect();
        assert!(distinct.len() > 32, "scales should vary across racks");
    }

    #[test]
    fn validation_rejects_bad_fleets() {
        assert!(tiny_fleet(0).validate().is_err());
        let mut f = tiny_fleet(2);
        f.solar_scale_spread = 1.5;
        assert!(f.validate().is_err());
        let mut f = tiny_fleet(2);
        f.base.days = 0;
        assert!(f.validate().is_err());
        assert!(tiny_fleet(2).validate().is_ok());
    }

    #[test]
    fn pretrained_fleet_skips_training_epochs() {
        let report = tiny_fleet(2).run().unwrap();
        assert_eq!(report.epochs.len(), 96);
        assert_eq!(
            report.epochs[0].training_racks, 0,
            "shared pretraining must preempt per-rack training"
        );
    }

    #[test]
    fn unpretrained_fleet_trains_every_rack() {
        let mut spec = tiny_fleet(2);
        spec.pretrain = false;
        let report = spec.run().unwrap();
        assert_eq!(report.epochs[0].training_racks, 2);
    }

    #[test]
    fn fleet_sums_scale_with_rack_count() {
        let one = tiny_fleet(1).run().unwrap();
        let three = tiny_fleet(3).run().unwrap();
        assert_eq!(three.racks, 3);
        assert_eq!(three.rack_summaries.len(), 3);
        assert_eq!(three.rack_epochs(), 3 * 96);
        // Three racks of the same template draw roughly (not exactly —
        // seeds differ) three times the power of one.
        let ratio = three.epochs[40].load.value() / one.epochs[40].load.value();
        assert!((2.5..3.5).contains(&ratio), "load ratio {ratio}");
    }

    #[test]
    fn fleet_mean_soc_is_a_true_mean_not_a_saturated_sum() {
        let one = tiny_fleet(1).run().unwrap();
        let three = tiny_fleet(3).run().unwrap();
        // Batteries start full: at epoch 0 every rack sits near the same
        // SoC, so the 3-rack mean must match the 1-rack mean — a clamped
        // sum-of-SoCs divided by 3 would report ~0.33 instead.
        let (a, b) = (
            one.epochs[0].mean_soc.value(),
            three.epochs[0].mean_soc.value(),
        );
        assert!((a - b).abs() < 0.05, "epoch-0 mean SoC {b} vs 1-rack {a}");
        // A clamped accumulator caps the reported mean at 1/racks.
        assert!(
            three.epochs.iter().any(|e| e.mean_soc.value() > 0.34),
            "3-rack mean SoC never left the saturated-sum band"
        );
    }

    #[test]
    fn rack_summaries_are_seed_distinct() {
        let report = tiny_fleet(3).run().unwrap();
        let seeds: std::collections::HashSet<u64> =
            report.rack_summaries.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 3);
        for summary in &report.rack_summaries {
            assert!(summary.mean_throughput.value() > 0.0);
            assert!(summary.epu.value() > 0.0);
        }
    }

    #[test]
    fn csv_is_one_row_per_epoch() {
        let report = tiny_fleet(2).run().unwrap();
        let mut buf = Vec::new();
        report.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 97);
        assert!(text.starts_with("epoch,seconds,training_racks,"));
    }
}
