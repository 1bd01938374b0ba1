//! End-to-end telemetry tests: JSONL export schema, determinism under
//! telemetry, and ledger/replay agreement.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

use greenhetero_core::controller::DegradeLevel;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::{names, replay_totals, CollectingSink, EventLine, JsonlSink};
use greenhetero_sim::engine::run_scenario;
use greenhetero_sim::scenario::{Scenario, TelemetrySpec};

/// An in-memory `Write` target shareable between the sink and the test.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn tiny(policy: PolicyKind) -> Scenario {
    Scenario {
        servers_per_type: 1,
        days: 1,
        ..Scenario::paper_runtime(policy)
    }
}

#[test]
fn jsonl_run_emits_one_line_per_epoch() {
    let buf = SharedBuf::default();
    let mut scenario = tiny(PolicyKind::GreenHetero);
    scenario.telemetry = TelemetrySpec::Sink(Arc::new(JsonlSink::from_writer(buf.clone())));
    let report = run_scenario(scenario).expect("simulation runs");

    let output = buf.contents();
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(
        lines.len(),
        report.epochs.len(),
        "one JSON line per simulated epoch"
    );

    const REQUIRED: &[&str] = &[
        "epoch",
        "rack_id",
        "time_s",
        "training",
        "case",
        "degrade",
        "engine",
        "predict_us",
        "sources_us",
        "solve_us",
        "enforce_us",
        "epoch_us",
        "budget_w",
        "demand_w",
        "solar_w",
        "load_w",
        "renewable_w",
        "battery_w",
        "grid_w",
        "charge_w",
        "curtailed_w",
        "unserved_w",
        "soc",
        "intensity",
        "throughput",
        "shed",
        "offline",
        "rejected_feedback",
        "quarantines",
        "cache_hits",
        "cache_misses",
        "cache_evicts",
        "warm_starts",
    ];
    for (i, line) in lines.iter().enumerate() {
        let event = EventLine::parse(line)
            .unwrap_or_else(|| panic!("line {i} is not a flat JSON object: {line}"));
        for key in REQUIRED {
            assert!(
                event.get(key).is_some(),
                "line {i} is missing key {key}: {line}"
            );
        }
    }

    // Epoch ids count up from zero; the last line's flows mirror the
    // final epoch record.
    let first = EventLine::parse(lines[0]).expect("parses");
    assert_eq!(first.num("epoch"), Some(0.0));
    assert_eq!(first.flag("training"), Some(true));
    let last = EventLine::parse(lines[lines.len() - 1]).expect("parses");
    let last_record = report.epochs.last().expect("non-empty run");
    assert_eq!(last.num("soc"), Some(last_record.soc.value()));
    assert_eq!(last.num("throughput"), Some(last_record.throughput.value()));
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let off = run_scenario(tiny(PolicyKind::GreenHetero)).expect("telemetry-off run");

    let mut with_sink = tiny(PolicyKind::GreenHetero);
    with_sink.telemetry = TelemetrySpec::Sink(Arc::new(CollectingSink::new()));
    let on = run_scenario(with_sink).expect("telemetry-on run");

    assert_eq!(
        off.epochs, on.epochs,
        "equal seeds must produce identical epoch streams with telemetry on or off"
    );
    assert_eq!(off.grid_cost.to_bits(), on.grid_cost.to_bits());
    assert_eq!(off.battery_cycles.to_bits(), on.battery_cycles.to_bits());
}

#[test]
fn jsonl_replay_matches_ledger_counters() {
    let buf = SharedBuf::default();
    let mut scenario = tiny(PolicyKind::GreenHetero);
    scenario.telemetry = TelemetrySpec::Sink(Arc::new(JsonlSink::from_writer(buf.clone())));
    let report = run_scenario(scenario).expect("simulation runs");

    let output = buf.contents();
    let totals = replay_totals(output.lines());
    let counter = |name: &str| report.ledger.counter(name).unwrap_or(0);

    assert_eq!(totals.events as usize, report.epochs.len());
    assert_eq!(totals.training_epochs, counter(names::TRAINING_RUNS));
    assert_eq!(totals.rejected_feedback, counter(names::FEEDBACK_REJECTED));
    assert_eq!(totals.quarantines, counter(names::PROFILE_QUARANTINED));
    assert_eq!(totals.engine_exact, counter(names::SOLVER_EXACT_WINS));
    assert_eq!(totals.engine_grid, counter(names::SOLVER_GRID_WINS));
    assert_eq!(
        totals.degrade_to_nominal,
        counter(names::DEGRADE_TO_NOMINAL)
    );
    assert_eq!(
        totals.degrade_to_fallback,
        counter(names::DEGRADE_TO_FALLBACK)
    );
    assert_eq!(
        totals.degrade_to_load_shed,
        counter(names::DEGRADE_TO_LOAD_SHED)
    );
    assert_eq!(
        totals.degrade_to_safe_idle,
        counter(names::DEGRADE_TO_SAFE_IDLE)
    );
    assert_eq!(totals.cache_hits, counter(names::SOLVER_CACHE_HIT));
    assert_eq!(totals.cache_misses, counter(names::SOLVER_CACHE_MISS));
    assert_eq!(totals.cache_evicts, counter(names::SOLVER_CACHE_EVICT));
    assert_eq!(totals.warm_starts, counter(names::SOLVER_WARM_START));
    // A solver policy resolves at least one epoch through an engine, and
    // every solve goes through the fast path (GreenHetero's per-epoch
    // refits keep it cold, so engagement shows up as cache misses).
    assert!(totals.engine_exact + totals.engine_grid > 0);
    assert!(totals.warm_starts + totals.cache_hits + totals.cache_misses > 0);
}

#[test]
fn every_policy_labels_its_nominal_epochs() {
    for policy in PolicyKind::ALL {
        let sink = Arc::new(CollectingSink::new());
        let mut scenario = tiny(policy);
        scenario.telemetry = TelemetrySpec::Sink(sink.clone());
        run_scenario(scenario).expect("simulation runs");

        let epochs = sink.epochs();
        assert!(
            epochs.iter().all(|e| e.engine != "solver"),
            "{policy}: an epoch is labelled solver"
        );
        let nominal: Vec<&str> = epochs
            .iter()
            .filter(|e| !e.training && e.degrade == DegradeLevel::Nominal)
            .map(|e| e.engine)
            .collect();
        assert!(!nominal.is_empty(), "{policy}: no nominal epoch");
        let allowed: &[&str] = match policy {
            PolicyKind::Uniform => &["uniform"],
            PolicyKind::Manual => &["manual"],
            PolicyKind::GreenHeteroP => &["greedy"],
            PolicyKind::GreenHeteroA | PolicyKind::GreenHetero => &["exact", "grid"],
        };
        for engine in nominal {
            assert!(
                allowed.contains(&engine),
                "{policy}: nominal epoch labelled {engine}"
            );
        }
    }
}

#[test]
fn collecting_sink_sees_controller_and_engine_spans() {
    let sink = Arc::new(CollectingSink::new());
    let mut scenario = tiny(PolicyKind::GreenHetero);
    scenario.telemetry = TelemetrySpec::Sink(sink.clone());
    let report = run_scenario(scenario).expect("simulation runs");

    let epochs = sink.epochs();
    assert_eq!(epochs.len(), report.epochs.len());

    let spans = sink.spans();
    let span_names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for expected in [
        "controller.predict",
        "controller.select_sources",
        "controller.solve",
        "sim.enforce",
    ] {
        assert!(
            span_names.contains(expected),
            "missing span {expected}; saw {span_names:?}"
        );
    }
}

#[test]
fn replay_accepts_logs_written_before_rack_id_existed() {
    // A line captured from a run predating the fleet engine: 32 keys,
    // no `rack_id`. The parser is schema-agnostic and the replayer sums
    // by name, so old archives must keep replaying unchanged.
    let vintage = r#"{"epoch":3,"time_s":2700,"training":false,"case":"B","degrade":"nominal","engine":"exact","predict_us":12,"sources_us":3,"solve_us":140,"enforce_us":9,"epoch_us":170,"budget_w":812.50,"demand_w":900.00,"solar_w":640.00,"load_w":810.10,"renewable_w":640.00,"battery_w":170.10,"grid_w":0.00,"charge_w":0.00,"curtailed_w":0.00,"unserved_w":0.00,"soc":0.7100,"intensity":0.90,"throughput":410.25,"shed":0,"offline":0,"rejected_feedback":1,"quarantines":0,"cache_hits":2,"cache_misses":1,"cache_evicts":0,"warm_starts":3}"#;
    let event = EventLine::parse(vintage).expect("pre-fleet line still parses");
    assert_eq!(event.fields().len(), 32);
    assert_eq!(event.get("rack_id"), None, "fixture must predate rack_id");
    assert_eq!(event.num("epoch"), Some(3.0));
    assert_eq!(event.text("case"), Some("B"));

    let training = r#"{"epoch":0,"time_s":0,"training":true,"case":"A","degrade":"nominal","engine":"none","predict_us":0,"sources_us":0,"solve_us":0,"enforce_us":4,"epoch_us":11,"budget_w":900.00,"demand_w":900.00,"solar_w":700.00,"load_w":450.00,"renewable_w":450.00,"battery_w":0.00,"grid_w":0.00,"charge_w":250.00,"curtailed_w":0.00,"unserved_w":0.00,"soc":0.5200,"intensity":0.90,"throughput":228.00,"shed":0,"offline":0,"rejected_feedback":0,"quarantines":0,"cache_hits":0,"cache_misses":0,"cache_evicts":0,"warm_starts":0}"#;
    let totals = greenhetero_core::telemetry::replay_totals([training, vintage]);
    assert_eq!(totals.events, 2);
    assert_eq!(totals.training_epochs, 1);
    assert_eq!(totals.rejected_feedback, 1);
    assert_eq!(totals.engine_exact, 1);
    assert_eq!(totals.cache_hits, 2);
    assert_eq!(totals.warm_starts, 3);
}

#[test]
fn current_jsonl_lines_carry_rack_id() {
    let buf = SharedBuf::default();
    let mut scenario = tiny(PolicyKind::GreenHetero);
    scenario.telemetry = TelemetrySpec::Sink(Arc::new(JsonlSink::from_writer(buf.clone())));
    run_scenario(scenario).expect("simulation runs");

    let output = buf.contents();
    for line in output.lines() {
        let event = EventLine::parse(line).expect("parses");
        assert_eq!(
            event.num("rack_id"),
            Some(0.0),
            "single-rack runs stamp rack 0"
        );
    }
}
