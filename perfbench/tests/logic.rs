//! Tests of the benchmark's own logic: percentiles, failure counting,
//! the stall watchdog, the fleet split's closing check, and the output.

use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use greenhetero::core::policies::PolicyKind;
use greenhetero::sim::fleet::FleetSpec;
use greenhetero::sim::scenario::{Scenario, TelemetrySpec};
use greenhetero_perfbench::report::{digest, json_string, result_line, Metrics};
use greenhetero_perfbench::sink::{AggSink, PhaseTotals};
use greenhetero_perfbench::split::{FleetSplit, SPLIT_TOLERANCE};
use greenhetero_perfbench::stats::{nearest_rank, LogHistogram, Samples};
use greenhetero_perfbench::tally::{Failure, Tally};
use greenhetero_perfbench::watchdog::{self, StallReport, Watchdog};

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_q() {
    let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&sorted, 0.5), Some(5.0));
    assert_eq!(nearest_rank(&sorted, 0.9), Some(9.0));
    assert_eq!(nearest_rank(&sorted, 0.91), Some(10.0));
    assert_eq!(nearest_rank(&sorted, 0.99), Some(10.0));
    assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&sorted, 1.0), Some(10.0));
    assert_eq!(nearest_rank(&[7.0], 0.5), Some(7.0));
    assert_eq!(nearest_rank(&[], 0.5), None);
}

#[test]
fn samples_sort_lazily_after_every_push() {
    let mut s = Samples::new();
    for v in [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0] {
        s.push(v);
    }
    assert_eq!(s.median(), Some(5.0));
    assert_eq!(s.percentile(0.9), Some(9.0));
    s.push(0.0);
    assert_eq!(s.percentile(0.0), Some(0.0));
    let mut more = Samples::new();
    more.push(-1.0);
    s.extend(more);
    assert_eq!((s.len(), s.percentile(0.0)), (12, Some(-1.0)));
    assert_eq!(Samples::new().median(), None);
}

#[test]
fn log_histogram_percentiles_stay_within_one_bucket() {
    let mut h = LogHistogram::new();
    for v in 1..=1000u64 {
        h.record(v * 1000);
    }
    assert_eq!(h.count(), 1000);
    assert_eq!(h.mean(), Some(500_500.0));
    for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0), (1.0, 1_000_000.0)] {
        let got = h.percentile(q).map(|v| v as f64).unwrap_or(f64::NAN);
        assert!(
            got >= exact && got <= exact * (1.0 + 1.0 / 32.0),
            "p{q}: {got} vs {exact}"
        );
    }
    let mut small = LogHistogram::new();
    small.record(3);
    small.record(31);
    assert_eq!(small.percentile(0.5), Some(3));
    assert_eq!(small.percentile(1.0), Some(31));
    small.record(u64::MAX);
    assert_eq!(small.percentile(1.0), Some(u64::MAX));
    assert_eq!(LogHistogram::new().percentile(0.5), None);
}

#[test]
fn tally_counts_every_attempt_and_every_failure() {
    let mut t = Tally::new();
    assert!(!t.correct(), "nothing attempted is not a correct run");
    assert!(t.record(Ok(())));
    assert!(!t.record(Err(Failure::Rejected("refused".into()))));
    assert!(t.check(&1, &1, "same"));
    assert!(!t.check(&"a", &"b", "decision line"));
    assert_eq!((t.attempted(), t.failed()), (4, 2));
    assert!(!t.correct());
    assert_eq!(t.reasons()[1], Failure::Wrong("decision line".into()));

    let mut many = Tally::new();
    for i in 0..100 {
        many.record(Err(Failure::Rejected(i.to_string())));
    }
    assert_eq!(
        many.failed(),
        100,
        "counts stay exact past the kept reasons"
    );
    assert!(many.reasons().len() < 100);
}

#[test]
fn watchdog_fires_on_a_blocking_operation_and_counts_it_failed() {
    let tally = Arc::new(Mutex::new(Tally::new()));
    let (tx, rx) = mpsc::channel::<StallReport>();
    let progress = watchdog::progress();
    progress.store(41, Ordering::Release);
    let wd = {
        let tally = Arc::clone(&tally);
        let tx = Mutex::new(tx);
        Watchdog::start("fleet_paper", Arc::clone(&progress), move |report| {
            tally
                .lock()
                .expect("tally lock")
                .record(Err(Failure::TimedOut(report.operation.clone())));
            let _ = tx.lock().expect("sender lock").send(report);
        })
    };
    let deadline = Duration::from_millis(50);
    let started = Instant::now();
    // The injected operation blocks until something arrives on the
    // channel only the watchdog's stall handler feeds.
    let report = wd
        .guard("blocked_op", deadline, || {
            rx.recv_timeout(Duration::from_secs(10))
        })
        .expect("the watchdog must fire long before the 10 s fallback");
    assert!(started.elapsed() >= deadline);
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(report.operation, "blocked_op");
    assert_eq!(report.workload, "fleet_paper");
    assert_eq!(report.last_flushed_epoch, Some(41));
    assert!(report.elapsed >= deadline);
    let line = report.to_json_line(1, 1);
    assert!(
        line.starts_with("{\"stall\": {\"workload\": \"fleet_paper\""),
        "{line}"
    );
    assert!(line.contains("\"last_flushed_epoch\": 41"), "{line}");
    let tally = tally.lock().expect("tally lock");
    assert_eq!((tally.attempted(), tally.failed()), (1, 1));
    assert_eq!(tally.reasons()[0], Failure::TimedOut("blocked_op".into()));
}

#[test]
fn watchdog_stays_quiet_for_operations_that_finish_in_time() {
    let fired = Arc::new(Mutex::new(0u32));
    let wd = {
        let fired = Arc::clone(&fired);
        Watchdog::start("serve_tick", watchdog::progress(), move |_| {
            *fired.lock().expect("lock") += 1;
        })
    };
    for i in 0..20 {
        assert_eq!(
            wd.guard("quick", Duration::from_millis(200), || i * 2),
            i * 2
        );
    }
    // Past every deadline: a disarmed watchdog never fires late.
    std::thread::sleep(Duration::from_millis(300));
    drop(wd);
    assert_eq!(*fired.lock().expect("lock"), 0);
}

/// One millisecond in nanoseconds.
const MS: u128 = 1_000_000;

fn totals(events: u64, wall_ns: u128, phases_ns: [u128; 4], other_ns: u128) -> PhaseTotals {
    PhaseTotals {
        events,
        predict_ns: phases_ns[0],
        sources_ns: phases_ns[1],
        solve_ns: phases_ns[2],
        enforce_ns: phases_ns[3],
        wall_ns,
        other_ns,
        ..PhaseTotals::default()
    }
}

#[test]
fn split_closes_when_the_parts_account_for_the_capacity() {
    // 2 workers × 1 s = 2e9 ns capacity; 1.6e9 ns inside epoch steps.
    let t = totals(
        100,
        1_600 * MS,
        [100 * MS, 100 * MS, 600 * MS, 200 * MS],
        600 * MS,
    );
    let split = FleetSplit::new(&t, 2, Duration::from_secs(1), 100);
    assert!((split.overhead - 0.2).abs() < 1e-12);
    assert!((split.solve - 0.3).abs() < 1e-12);
    assert!(split.residual.abs() < 1e-12);
    assert!(split.closes());
}

#[test]
fn split_reports_a_residual_instead_of_hiding_it() {
    // Overlapping phase timers: phases sum past the epoch wall, so the
    // parts exceed the capacity by 10 %.
    let overlap = totals(
        100,
        1_600 * MS,
        [100 * MS, 100 * MS, 800 * MS, 200 * MS],
        600 * MS,
    );
    let split = FleetSplit::new(&overlap, 2, Duration::from_secs(1), 100);
    assert!((split.residual - 0.1).abs() < 1e-9);
    assert!(split.residual > SPLIT_TOLERANCE);
    assert!(!split.closes());

    // A lost rack-epoch: the sums close but not every event was seen.
    let fine = totals(
        99,
        1_600 * MS,
        [100 * MS, 100 * MS, 600 * MS, 200 * MS],
        600 * MS,
    );
    assert!(!FleetSplit::new(&fine, 2, Duration::from_secs(1), 100).closes());

    // Epoch walls past the capacity: the overhead would be negative
    // (wrong worker count or a broken clock).
    let over = totals(100, 2_500 * MS, [0, 0, 2_500 * MS, 0], 0);
    let split = FleetSplit::new(&over, 2, Duration::from_secs(1), 100);
    assert!(split.overhead < 0.0);
    assert!(!split.closes());
}

#[test]
fn aggregating_sink_closes_the_split_of_a_real_fleet_run() {
    let progress = watchdog::progress();
    let sink = Arc::new(AggSink::new(Arc::clone(&progress)));
    let mut base = Scenario::paper_runtime(PolicyKind::GreenHetero);
    base.telemetry = TelemetrySpec::Sink(Arc::clone(&sink) as _);
    let mut spec = FleetSpec::new(base, 6);
    spec.workers = 2;
    let started = Instant::now();
    let report = spec.run().expect("fleet run");
    let wall = started.elapsed();
    let snap = sink.snapshot();
    assert_eq!(snap.totals.events, report.rack_epochs());
    assert_eq!(snap.epoch_wall.count(), report.rack_epochs());
    assert_eq!(snap.fleet_epoch.count(), report.epochs.len() as u64 - 1);
    assert_eq!(
        progress.load(Ordering::Acquire),
        report.epochs.len() as i64 - 1,
        "the sink publishes the last flushed epoch"
    );
    let split = FleetSplit::new(&snap.totals, report.workers, wall, report.rack_epochs());
    assert!(split.closes(), "{split:?}");
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut t = Tally::new();
    t.record(Ok(()));
    let mut m = Metrics::new();
    m.put("setup_s", 0.5, "s");
    m.put("rack_epochs_per_s", 28_479.553_557, "1/s");
    assert_eq!(
        result_line(&t, &m),
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"rack_epochs_per_s\": {\"value\": 28479.553557, \"unit\": \"1/s\"}}}"
    );
    m.put("sim_epu", f64::NAN, "ratio");
    assert_eq!(m.non_finite(), ["sim_epu"]);
    assert!(result_line(&t, &m).starts_with("{\"correct\": false"));
}

#[test]
fn digest_and_json_strings_are_stable() {
    assert_eq!(digest(b""), "cbf29ce484222325");
    assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    assert_ne!(digest(b"epoch,1"), digest(b"epoch,2"));
    assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}
