//! Session specs: the wire-submitted description of one rack session,
//! its mapping onto a [`Scenario`], and the canonical decision-line
//! formatter.
//!
//! A spec is deliberately flat (every field a scalar) so it parses with
//! the same [`EventLine`] reader the telemetry JSONL uses. The spec is
//! also the unit of crash recovery: a panicked session is rebuilt from
//! its spec and replayed to its cursor, which reproduces the lost state
//! bit-for-bit because stepping is deterministic.

use greenhetero_core::config::ControllerConfig;
use greenhetero_core::error::CoreError;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::{EventLine, JsonObject};
use greenhetero_sim::report::EpochRecord;
use greenhetero_sim::scenario::Scenario;

/// Everything needed to run (and re-run) one rack session.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Unique session name (the daemon's map key).
    pub name: String,
    /// Allocation policy under test.
    pub policy: PolicyKind,
    /// Servers per platform type.
    pub servers_per_type: u32,
    /// Days the session's scenario spans.
    pub days: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// Run the chaos-day fault schedule instead of the fault-free paper
    /// runtime.
    pub chaos: bool,
    /// Manual pacing: the session steps one epoch per `tick` command
    /// (ticks are its heartbeat) instead of free-running.
    pub manual: bool,
    /// Auto pacing: sleep this long between epochs (`0` free-runs).
    pub pace_ms: u64,
    /// Share the daemon's pretrained profile database through a
    /// copy-on-write overlay. Off by default so the batch-run oracle
    /// holds bit-for-bit.
    pub pretrain: bool,
    /// Fault injection: panic (once each) just before stepping these
    /// epoch cursors — exercised by the supervision tests.
    pub panic_epochs: Vec<u64>,
    /// Fault injection: at this cursor, stall without heartbeating.
    pub stall_epoch: Option<u64>,
    /// How long the injected stall sleeps, in milliseconds.
    pub stall_ms: u64,
    /// Serve knobs (restart budget, backoff, heartbeat timeout) ride on
    /// the scenario's controller config so they travel with the spec.
    pub controller: ControllerConfig,
}

impl SessionSpec {
    /// A spec with the paper-runtime defaults: free-running
    /// GreenHetero, 2 servers per type, 1 day, fault-free.
    #[must_use]
    pub fn named(name: &str) -> Self {
        SessionSpec {
            name: name.to_string(),
            policy: PolicyKind::GreenHetero,
            servers_per_type: 2,
            days: 1,
            seed: 42,
            chaos: false,
            manual: false,
            pace_ms: 0,
            pretrain: false,
            panic_epochs: Vec::new(),
            stall_epoch: None,
            stall_ms: 0,
            controller: ControllerConfig::default(),
        }
    }

    /// Parses a spec from a flat-JSON `submit` request line.
    ///
    /// # Errors
    ///
    /// A human-readable reason when a required field is missing or a
    /// value is out of range.
    pub fn from_line(line: &EventLine) -> Result<Self, String> {
        let name = line
            .text("session")
            .ok_or("submit needs a \"session\" name")?;
        if name.is_empty() || name.len() > 128 {
            return Err("session name must be 1..=128 characters".into());
        }
        let mut spec = SessionSpec::named(name);
        if let Some(policy) = line.text("policy") {
            spec.policy = parse_policy(policy)?;
        }
        if let Some(v) = parse_u64(line, "servers_per_type")? {
            spec.servers_per_type =
                u32::try_from(v).map_err(|_| "servers_per_type out of range".to_string())?;
        }
        if let Some(v) = parse_u64(line, "days")? {
            spec.days = v;
        }
        if let Some(v) = parse_u64(line, "seed")? {
            spec.seed = v;
        }
        spec.chaos = line.flag("chaos").unwrap_or(false);
        spec.manual = line.flag("manual").unwrap_or(false);
        spec.pretrain = line.flag("pretrain").unwrap_or(false);
        if let Some(v) = parse_u64(line, "pace_ms")? {
            spec.pace_ms = v;
        }
        if let Some(list) = line.text("panic_epochs") {
            spec.panic_epochs = parse_epoch_list(list)?;
        }
        spec.stall_epoch = parse_u64(line, "stall_epoch")?;
        if let Some(v) = parse_u64(line, "stall_ms")? {
            spec.stall_ms = v;
        }
        if let Some(v) = parse_u64(line, "restart_budget")? {
            spec.controller.serve_restart_budget =
                u32::try_from(v).map_err(|_| "restart_budget out of range".to_string())?;
        }
        if let Some(v) = parse_u64(line, "backoff_base_ms")? {
            spec.controller.serve_backoff_base_ms = v;
        }
        if let Some(v) = parse_u64(line, "backoff_cap_ms")? {
            spec.controller.serve_backoff_cap_ms = v;
            spec.controller.serve_backoff_cap_ms = spec
                .controller
                .serve_backoff_cap_ms
                .max(spec.controller.serve_backoff_base_ms);
        }
        if let Some(v) = parse_u64(line, "heartbeat_timeout_ms")? {
            spec.controller.serve_heartbeat_timeout_ms = v;
        }
        Ok(spec)
    }

    /// Renders the spec as a `submit` request line.
    #[must_use]
    pub fn to_submit_line(&self) -> String {
        let mut o = JsonObject::new();
        o.str("cmd", "submit")
            .str("session", &self.name)
            .str("policy", self.policy.name())
            .u64("servers_per_type", u64::from(self.servers_per_type))
            .u64("days", self.days)
            .u64("seed", self.seed)
            .bool("chaos", self.chaos)
            .bool("manual", self.manual)
            .bool("pretrain", self.pretrain)
            .u64("pace_ms", self.pace_ms)
            .u64("stall_ms", self.stall_ms)
            .u64(
                "restart_budget",
                u64::from(self.controller.serve_restart_budget),
            )
            .u64("backoff_base_ms", self.controller.serve_backoff_base_ms)
            .u64("backoff_cap_ms", self.controller.serve_backoff_cap_ms)
            .u64(
                "heartbeat_timeout_ms",
                self.controller.serve_heartbeat_timeout_ms,
            );
        if let Some(stall) = self.stall_epoch {
            o.u64("stall_epoch", stall);
        }
        if !self.panic_epochs.is_empty() {
            let list = self
                .panic_epochs
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            o.str("panic_epochs", &list);
        }
        o.finish()
    }

    /// The scenario this spec describes: the paper (or chaos) runtime
    /// with the spec's size, seed, policy, and serve knobs applied.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation failures.
    pub fn scenario(&self) -> Result<Scenario, CoreError> {
        let base = if self.chaos {
            Scenario::chaos_runtime(self.policy)
        } else {
            Scenario::paper_runtime(self.policy)
        };
        let scenario = Scenario {
            servers_per_type: self.servers_per_type,
            days: self.days,
            seed: self.seed,
            controller: self.controller.clone(),
            ..base
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Epochs the session will span.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation failures.
    pub fn epochs_total(&self) -> Result<u64, CoreError> {
        let scenario = self.scenario()?;
        Ok((scenario.days * 86_400) / scenario.controller.epoch_len.as_secs())
    }

    /// The substrate cache key: specs with equal keys share one rack
    /// model (and, when pretrained, one profile database). The fault
    /// schedule does not shape the rack, so chaos and paper runtimes of
    /// the same size share.
    #[must_use]
    pub fn substrate_key(&self) -> String {
        format!("comb1:specjbb:{}", self.servers_per_type)
    }
}

/// Maps a wire policy name to a [`PolicyKind`].
fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::ALL
        .iter()
        .copied()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known = PolicyKind::ALL
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(", ");
            format!("unknown policy {name:?}; expected one of: {known}")
        })
}

/// Reads an optional non-negative integer field, rejecting fractions,
/// negatives, and values past 2⁵³ (not exactly representable).
fn parse_u64(line: &EventLine, key: &str) -> Result<Option<u64>, String> {
    let Some(raw) = line.num(key) else {
        return Ok(None);
    };
    let max_exact = 9_007_199_254_740_992.0; // 2^53
    if !(raw.is_finite() && raw >= 0.0 && raw.fract() == 0.0 && raw <= max_exact) {
        return Err(format!("field {key:?} must be a non-negative integer"));
    }
    Ok(Some(raw as u64))
}

/// Parses a comma-separated epoch list (`"3,7,11"`), deduplicated and
/// sorted.
fn parse_epoch_list(list: &str) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    for part in list.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let epoch = part
            .parse::<u64>()
            .map_err(|_| format!("panic_epochs entry {part:?} is not an epoch index"))?;
        out.push(epoch);
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Renders one epoch record as the session's canonical decision line:
/// flat JSON with full-precision float `Display` (shortest round-trip),
/// so byte equality of two streams is bit equality of the decisions.
/// The batch-run oracle in the fault-isolation suite renders
/// [`greenhetero_sim::engine::Simulation`] output through this same
/// function.
#[must_use]
pub fn decision_line(record: &EpochRecord) -> String {
    let mut o = JsonObject::new();
    o.u64("epoch", record.epoch.raw())
        .u64("time_s", record.time.as_secs())
        .bool("training", record.training)
        .str("case", &format!("{:?}", record.case))
        .f64("budget_w", record.budget.value())
        .f64("demand_w", record.demand.value())
        .f64("solar_w", record.solar.value())
        .f64("load_w", record.load.value())
        .f64("battery_discharge_w", record.battery_discharge.value())
        .f64("battery_charge_w", record.battery_charge.value())
        .f64("grid_load_w", record.grid_load.value())
        .f64("grid_charge_w", record.grid_charge.value())
        .f64("soc", record.soc.value())
        .f64("intensity", record.intensity.value())
        .f64("throughput", record.throughput.value());
    match record.par {
        Some(par) => o.f64("par", par.value()),
        None => o.null("par"),
    };
    o.f64("unserved_w", record.unserved.value())
        .u64("shed_servers", u64::from(record.shed_servers))
        .u64("offline_servers", u64::from(record.offline_servers))
        .bool("degraded", record.degraded);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_line_round_trips() {
        let mut spec = SessionSpec::named("rack-7");
        spec.policy = PolicyKind::Uniform;
        spec.servers_per_type = 3;
        spec.days = 2;
        spec.seed = 99;
        spec.chaos = true;
        spec.manual = true;
        spec.pace_ms = 5;
        spec.panic_epochs = vec![3, 7];
        spec.stall_epoch = Some(11);
        spec.stall_ms = 250;
        spec.controller.serve_restart_budget = 9;
        spec.controller.serve_backoff_base_ms = 2;
        spec.controller.serve_backoff_cap_ms = 16;
        spec.controller.serve_heartbeat_timeout_ms = 300;

        let line = EventLine::parse(&spec.to_submit_line()).expect("valid JSON");
        let parsed = SessionSpec::from_line(&line).expect("valid spec");
        assert_eq!(parsed.name, "rack-7");
        assert_eq!(parsed.policy, PolicyKind::Uniform);
        assert_eq!(parsed.servers_per_type, 3);
        assert_eq!(parsed.days, 2);
        assert_eq!(parsed.seed, 99);
        assert!(parsed.chaos && parsed.manual);
        assert_eq!(parsed.pace_ms, 5);
        assert_eq!(parsed.panic_epochs, vec![3, 7]);
        assert_eq!(parsed.stall_epoch, Some(11));
        assert_eq!(parsed.stall_ms, 250);
        assert_eq!(parsed.controller.serve_restart_budget, 9);
        assert_eq!(parsed.controller.serve_backoff_base_ms, 2);
        assert_eq!(parsed.controller.serve_backoff_cap_ms, 16);
        assert_eq!(parsed.controller.serve_heartbeat_timeout_ms, 300);
    }

    #[test]
    fn missing_name_and_bad_values_are_rejected() {
        let no_name = EventLine::parse(r#"{"cmd":"submit"}"#).expect("JSON");
        assert!(SessionSpec::from_line(&no_name).is_err());

        let bad_policy =
            EventLine::parse(r#"{"cmd":"submit","session":"x","policy":"Greedy"}"#).expect("JSON");
        let err = SessionSpec::from_line(&bad_policy).expect_err("unknown policy");
        assert!(err.contains("Greedy") && err.contains("Uniform"), "{err}");

        let negative =
            EventLine::parse(r#"{"cmd":"submit","session":"x","days":-1}"#).expect("JSON");
        assert!(SessionSpec::from_line(&negative).is_err());

        let fractional =
            EventLine::parse(r#"{"cmd":"submit","session":"x","seed":1.5}"#).expect("JSON");
        assert!(SessionSpec::from_line(&fractional).is_err());
    }

    #[test]
    fn policy_names_parse_case_insensitively() {
        assert_eq!(parse_policy("greenhetero-p"), Ok(PolicyKind::GreenHeteroP));
        assert_eq!(parse_policy("Uniform"), Ok(PolicyKind::Uniform));
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn epoch_lists_sort_and_dedup() {
        assert_eq!(parse_epoch_list("7, 3,7,, 11").unwrap(), vec![3, 7, 11]);
        assert!(parse_epoch_list("3,x").is_err());
        assert_eq!(parse_epoch_list("").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn default_spec_builds_a_valid_scenario() {
        let spec = SessionSpec::named("s");
        let scenario = spec.scenario().expect("valid");
        assert_eq!(scenario.servers_per_type, 2);
        assert_eq!(scenario.days, 1);
        assert!(matches!(
            scenario.telemetry,
            greenhetero_sim::scenario::TelemetrySpec::Off
        ));
        assert_eq!(spec.epochs_total().expect("valid"), 96);
    }

    #[test]
    fn chaos_and_paper_specs_share_a_substrate_key() {
        let mut chaos = SessionSpec::named("a");
        chaos.chaos = true;
        assert_eq!(
            chaos.substrate_key(),
            SessionSpec::named("b").substrate_key()
        );
    }

    #[test]
    fn decision_lines_are_flat_json_with_stable_keys() {
        let report = greenhetero_sim::engine::run_scenario(
            SessionSpec::named("s").scenario().expect("valid"),
        )
        .expect("runs");
        let line = decision_line(&report.epochs[0]);
        let parsed = EventLine::parse(&line).expect("decision lines parse as flat JSON");
        assert_eq!(parsed.num("epoch"), Some(0.0));
        assert_eq!(parsed.flag("training"), Some(true));
        assert!(parsed.text("case").is_some());
        // Full-precision round trip: re-rendering the parsed float gives
        // the same bytes.
        let soc = parsed.num("soc").expect("soc present");
        assert!(line.contains(&format!("\"soc\":{soc}")));
    }
}
