//! `greenhetero-lint`: workspace-aware domain lints for the GreenHetero
//! codebase.
//!
//! The general-purpose toolchain (rustc, clippy) cannot know that `Watts`
//! times `SimDuration` must be `WattHours`, or that every `CoreError`
//! variant needs a live construction site. This crate encodes those
//! project-specific rules as a standalone static-analysis pass:
//!
//! | rule  | meaning |
//! |-------|---------|
//! | GH000 | `greenhetero-lint: allow(...)` directive without a reason |
//! | GH001 | no `unwrap`/`expect`/`panic!`/`unreachable!` in library code |
//! | GH002 | no bare `f64`/`f32` in pub APIs of the dimensional crates |
//! | GH003 | cross-newtype arithmetic must be in the sanctioned table |
//! | GH004 | every `*Error` variant constructed outside its definition |
//! | GH005 | doc comments on all pub items of the library crates |
//! | GH006 | no per-solve heap allocation in the solver hot-loop modules |
//! | GH007 | no `HashMap`/`HashSet` iteration in reduction/telemetry paths |
//! | GH008 | no accumulation (`+=`/`fold`/`sum`) through clamping newtypes |
//! | GH009 | metric-name literals ↔ `telemetry::names` catalog coherence |
//! | GH010 | no ambient nondeterminism outside `Timing`-tagged modules |
//! | GH011 | no unbounded channels in backpressure-scoped modules |
//! | GH012 | no direct thread spawning outside the scheduler allowlist |
//!
//! The analysis runs in two phases. Phase 1 scans every file into a
//! [`model::FileModel`] and builds the cross-file [`graph::SymbolGraph`]
//! (struct fields and their types, catalog constants and their uses,
//! metric-name literals, pub items). Phase 2 runs the per-file rules
//! (GH001–GH003, GH005, GH006, GH011, GH012), the cross-file rules (GH004,
//! GH009), and the graph-resolved determinism rules (GH007, GH008,
//! GH010) — the last group scoped by the [`DETERMINISM_DOMAINS`] table
//! below.
//!
//! The front end is a hand-rolled lexer plus token-level structural
//! model — the offline build environment has no `syn`/`proc-macro2`, and
//! the rules here only need comment/string-aware token streams with
//! brace matching, not full parse trees.
//!
//! Violations can be suppressed per-site with a justified escape hatch on
//! the same or preceding line: `// greenhetero-lint: allow(GH001) <reason>`.
//! Every justified directive is tallied in the [`diag::Report`]
//! suppression census so escape hatches stay visible in CI artifacts.

pub mod diag;
pub mod dimensions;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod rules;

use std::fs;
use std::io;
use std::path::Path;

use diag::{Diagnostic, Report, SuppressionRecord, SuppressionSite};
use graph::SymbolGraph;
use model::FileModel;

/// Every rule code with a one-line description, in code order — the
/// source of truth for `--list-rules` and `--rule` validation.
pub const RULES: &[(&str, &str)] = &[
    ("GH000", "allow directive without a reason"),
    (
        "GH001",
        "no unwrap/expect/panic!/unreachable! in library code",
    ),
    ("GH002", "no bare f64/f32 in pub APIs of dimensional crates"),
    ("GH003", "cross-newtype arithmetic must be sanctioned"),
    ("GH004", "every *Error variant constructed somewhere"),
    ("GH005", "doc comments on all pub items of library crates"),
    ("GH006", "no per-solve heap allocation in solver hot loops"),
    (
        "GH007",
        "no HashMap/HashSet iteration in reduction/telemetry paths",
    ),
    (
        "GH008",
        "no accumulation (+=/fold/sum) through clamping newtypes",
    ),
    (
        "GH009",
        "metric-name literals coherent with the telemetry::names catalog",
    ),
    (
        "GH010",
        "no ambient nondeterminism outside Timing-tagged modules",
    ),
    (
        "GH011",
        "no unbounded channels in backpressure-scoped modules",
    ),
    (
        "GH012",
        "no direct thread spawning outside the scheduler allowlist",
    ),
];

/// A determinism domain a module can be tagged with.
///
/// Tags drive rule scoping: GH007 runs inside `Reduction`/`Telemetry`
/// files, and GH010 exempts `Timing` files (where reading the wall clock
/// is the point — phase-duration histograms measure it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Folds per-rack/per-epoch data into run results (CSV, ledgers,
    /// fleet summaries) — iteration order is observable in outputs.
    Reduction,
    /// Registers or exports metrics — name sets and merge order are
    /// observable in ledgers and Prometheus dumps.
    Telemetry,
    /// Measures wall time as telemetry — the one sanctioned consumer of
    /// ambient clocks.
    Timing,
}

/// The declarative path → domain-tag table.
///
/// An entry matches any file whose workspace-relative path starts with
/// its prefix (so `…/database/` tags the whole module tree); a file
/// accumulates the tags of every matching entry. Documented in DESIGN.md
/// §8 alongside the rules that consume each tag.
pub const DETERMINISM_DOMAINS: &[(&str, &[Domain])] = &[
    ("crates/core/src/database/", &[Domain::Reduction]),
    ("crates/core/src/metrics.rs", &[Domain::Reduction]),
    ("crates/core/src/telemetry/", &[Domain::Telemetry]),
    ("crates/core/src/controller.rs", &[Domain::Timing]),
    ("crates/power/src/gauges.rs", &[Domain::Telemetry]),
    ("crates/sim/src/fleet.rs", &[Domain::Reduction]),
    (
        "crates/sim/src/report.rs",
        &[Domain::Reduction, Domain::Telemetry],
    ),
    (
        "crates/sim/src/engine.rs",
        &[Domain::Reduction, Domain::Timing],
    ),
    (
        "crates/sim/src/runner.rs",
        &[Domain::Reduction, Domain::Timing],
    ),
    // The work-stealing pool's parking machinery (condvar timeouts,
    // park deadlines) is wall-clock by nature, like the serve daemon's
    // heartbeats below — timing there is infrastructure, never an input
    // to any decision stream.
    ("crates/sim/src/sched.rs", &[Domain::Timing]),
    // The serve daemon measures wall time on purpose: heartbeats,
    // backoff, and drain deadlines are real-time contracts, not
    // simulated quantities.
    ("crates/serve/src/", &[Domain::Timing]),
];

/// The union of domain tags matching `path` in [`DETERMINISM_DOMAINS`].
#[must_use]
pub fn domains_for(path: &str) -> Vec<Domain> {
    let mut tags = Vec::new();
    for (prefix, domains) in DETERMINISM_DOMAINS {
        if path.starts_with(prefix) {
            for d in *domains {
                if !tags.contains(d) {
                    tags.push(*d);
                }
            }
        }
    }
    tags
}

/// Directory names never descended into when scanning a workspace.
///
/// `fixtures` holds deliberate rule violations for the lint's own tests;
/// `vendor` holds the offline stand-ins for external crates, which are
/// outside the domain rules' jurisdiction.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor", "fixtures", "node_modules"];

/// `true` for files inside a library crate's `src/` tree.
fn is_lib_src(path: &str) -> bool {
    ["core", "power", "serve", "server", "sim"]
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// `true` for modules under the backpressure contract (GH011): the serve
/// daemon and the sim fan-out paths, where every inter-thread queue must
/// be bounded so overload surfaces as an explicit rejection.
#[must_use]
pub fn is_bounded_channel_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path == "crates/sim/src/runner.rs"
        || path == "crates/sim/src/fleet.rs"
}

/// `true` for the files allowed to create OS threads directly (GH012):
/// the scheduler (the serve pool and the scoped fork-join loop) and the
/// serve layer's fixed supervision threads (accept loop, spawner,
/// watchdog). All other library code must go through `sched`, so the
/// process thread count stays a structural invariant instead of a
/// function of load.
#[must_use]
pub fn is_thread_spawn_site(path: &str) -> bool {
    [
        "crates/sim/src/sched.rs",
        "crates/serve/src/supervisor.rs",
        "crates/serve/src/daemon.rs",
    ]
    .contains(&path)
}

/// `true` for files inside the dimensional crates (`core`, `power`).
fn is_dimensional_src(path: &str) -> bool {
    ["core", "power"]
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// `true` for any crate source file (operator impls can live anywhere).
fn is_crate_src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// `true` for the solver's hot-loop modules, where per-solve heap
/// allocation is banned (GH006). `scratch.rs` is deliberately out of
/// scope: it is the one solver module allowed to allocate, so the
/// engines can borrow its buffers instead of building their own.
fn is_solver_hot_loop(path: &str) -> bool {
    path == "crates/core/src/solver/grid.rs" || path == "crates/core/src/solver/exact.rs"
}

/// Reads every `.rs` file under `root` (skipping [`SKIP_DIRS`]), returning
/// `(workspace-relative path, contents)` pairs in a stable order.
///
/// # Errors
///
/// Propagates I/O failures from directory traversal or file reads.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Recursive directory walk backing [`collect_workspace_files`].
fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Runs every rule over the given `(path, source)` set and returns the
/// sorted diagnostics.
#[must_use]
pub fn analyze_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    analyze_files_report(files, None).diagnostics
}

/// The two-phase analysis: builds every [`FileModel`] and the
/// [`SymbolGraph`] (phase 1), runs every rule against them (phase 2),
/// and returns the full [`Report`] — diagnostics, suppression census,
/// and telemetry drift inventory.
///
/// When `rule_filter` names a rule code (e.g. `"GH008"`), only that
/// rule's diagnostics are reported; the census and drift inventory are
/// always complete.
#[must_use]
pub fn analyze_files_report(files: &[(String, String)], rule_filter: Option<&str>) -> Report {
    let models: Vec<FileModel> = files
        .iter()
        .map(|(path, src)| FileModel::build(path, src))
        .collect();
    let graph = SymbolGraph::build(&models);
    let mut diags = Vec::new();
    for model in &models {
        // GH000: a directive that cannot suppress anything is a bug in
        // the annotation, wherever it appears.
        for a in &model.allows {
            if !a.has_reason {
                diags.push(Diagnostic::new(
                    "GH000",
                    &model.path,
                    a.line,
                    format!(
                        "allow({}) directive has no reason; write `greenhetero-lint: allow({}) <why this site is safe>`",
                        a.rules.join(", "),
                        a.rules.join(", ")
                    ),
                ));
            }
        }
        let domains = domains_for(&model.path);
        if is_lib_src(&model.path) {
            rules::gh001::check(model, &mut diags);
            rules::gh005::check(model, &mut diags);
            rules::gh008::check(model, &graph, &mut diags);
            if !domains.contains(&Domain::Timing) {
                rules::gh010::check(model, &mut diags);
            }
        }
        if is_dimensional_src(&model.path) {
            rules::gh002::check(model, &mut diags);
        }
        if is_crate_src(&model.path) {
            rules::gh003::check(model, &mut diags);
        }
        if is_solver_hot_loop(&model.path) {
            rules::gh006::check(model, &mut diags);
        }
        if is_bounded_channel_scope(&model.path) {
            rules::gh011::check(model, &mut diags);
        }
        if is_crate_src(&model.path) && !is_thread_spawn_site(&model.path) {
            rules::gh012::check(model, &mut diags);
        }
        if domains.contains(&Domain::Reduction) || domains.contains(&Domain::Telemetry) {
            rules::gh007::check(model, &graph, &mut diags);
        }
    }
    rules::gh004::check(&models, is_lib_src, &mut diags);
    rules::gh009::check(&models, &graph, is_lib_src, &mut diags);
    if let Some(rule) = rule_filter {
        diags.retain(|d| d.rule == rule);
    }
    diag::sort(&mut diags);
    Report {
        diagnostics: diags,
        suppressions: suppression_census(&models),
        drift: drift_report(&models, &graph),
    }
}

/// Tallies every justified `allow(...)` directive per rule code.
fn suppression_census(models: &[FileModel]) -> Vec<SuppressionRecord> {
    let mut by_rule: std::collections::BTreeMap<String, Vec<SuppressionSite>> =
        std::collections::BTreeMap::new();
    for model in models {
        for a in &model.allows {
            if !a.has_reason {
                continue; // a GH000 diagnostic, not a working suppression
            }
            for rule in &a.rules {
                // Doc comments and examples inside the lint crate spell out
                // the directive syntax with placeholder codes; only tally
                // directives naming a real rule.
                if !RULES.iter().any(|(code, _)| code == rule) {
                    continue;
                }
                by_rule
                    .entry(rule.clone())
                    .or_default()
                    .push(SuppressionSite {
                        file: model.path.clone(),
                        line: a.line,
                    });
            }
        }
    }
    by_rule
        .into_iter()
        .map(|(rule, mut sites)| {
            sites.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
            SuppressionRecord {
                count: sites.len(),
                rule,
                sites,
            }
        })
        .collect()
}

/// Builds the GH009 drift inventory, suppressed entries included.
fn drift_report(models: &[FileModel], graph: &SymbolGraph) -> diag::DriftReport {
    let allowed = |path: &str, line: u32| {
        models
            .iter()
            .find(|m| m.path == path)
            .is_some_and(|m| m.is_allowed(rules::gh009::RULE, line))
    };
    let unused_catalog = graph
        .catalog
        .iter()
        .filter(|c| graph.catalog_uses.get(&c.const_name).copied().unwrap_or(0) == 0)
        .map(|c| diag::UnusedCatalogEntry {
            const_name: c.const_name.clone(),
            metric: c.metric.clone(),
            file: c.file.clone(),
            line: c.line,
            suppressed: allowed(&c.file, c.line),
        })
        .collect();
    let unregistered_literals = graph
        .metric_literals
        .iter()
        .filter(|l| !graph.catalog_values.contains(&l.metric))
        .map(|l| diag::UnregisteredLiteral {
            metric: l.metric.clone(),
            method: l.method.clone(),
            file: l.file.clone(),
            line: l.line,
            suppressed: allowed(&l.file, l.line),
        })
        .collect();
    diag::DriftReport {
        catalog_size: graph.catalog.len(),
        unused_catalog,
        unregistered_literals,
    }
}

/// Scans the workspace rooted at `root` and returns sorted diagnostics.
///
/// # Errors
///
/// Propagates I/O failures from the file walk.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(analyze_files(&collect_workspace_files(root)?))
}

/// Scans the workspace rooted at `root` and returns the full [`Report`],
/// optionally restricted to one rule's diagnostics.
///
/// # Errors
///
/// Propagates I/O failures from the file walk.
pub fn analyze_workspace_report(root: &Path, rule_filter: Option<&str>) -> io::Result<Report> {
    Ok(analyze_files_report(
        &collect_workspace_files(root)?,
        rule_filter,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> (String, String) {
        (path.to_string(), src.to_string())
    }

    #[test]
    fn rules_are_scoped_to_their_crates() {
        // An unwrap in sim's src is GH001; the same code in an
        // integration-test tree is out of scope.
        let diags = analyze_files(&[
            file(
                "crates/sim/src/lib.rs",
                "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
            ),
            file(
                "tests/e2e.rs",
                "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
            ),
        ]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "GH001");
        assert_eq!(diags[0].file, "crates/sim/src/lib.rs");
    }

    #[test]
    fn gh002_only_applies_to_dimensional_crates() {
        let src = "/// Doc.\npub fn ratio(x: f64) -> f64 { x }\n";
        let diags = analyze_files(&[
            file("crates/server/src/lib.rs", src),
            file("crates/power/src/lib.rs", src),
        ]);
        let rules: Vec<(&str, &str)> = diags.iter().map(|d| (d.file.as_str(), d.rule)).collect();
        assert!(rules.contains(&("crates/power/src/lib.rs", "GH002")));
        assert!(!rules.contains(&("crates/server/src/lib.rs", "GH002")));
    }

    #[test]
    fn gh006_only_applies_to_hot_loop_modules() {
        // The same allocation is flagged in an engine module, exempt in
        // the scratch arena and everywhere else.
        let src = "fn f(n: usize) -> Vec<f64> { vec![0.0; n] }\n";
        let diags = analyze_files(&[
            file("crates/core/src/solver/grid.rs", src),
            file("crates/core/src/solver/exact.rs", src),
            file("crates/core/src/solver/scratch.rs", src),
            file("crates/core/src/controller.rs", src),
        ]);
        let hits: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "GH006")
            .map(|d| d.file.as_str())
            .collect();
        assert_eq!(
            hits,
            vec![
                "crates/core/src/solver/exact.rs",
                "crates/core/src/solver/grid.rs"
            ]
        );
    }

    #[test]
    fn gh012_exempts_the_scheduler_allowlist() {
        // The same spawn is flagged in session, runner and fleet code
        // but sanctioned in the scheduler and the supervisor/daemon
        // threads.
        let src = "fn f() { std::thread::spawn(|| ()); }\n";
        let diags = analyze_files(&[
            file("crates/serve/src/session.rs", src),
            file("crates/sim/src/sched.rs", src),
            file("crates/sim/src/runner.rs", src),
            file("crates/sim/src/fleet.rs", src),
            file("crates/serve/src/supervisor.rs", src),
            file("crates/serve/src/daemon.rs", src),
        ]);
        let hits: Vec<&str> = diags
            .iter()
            .filter(|d| d.rule == "GH012")
            .map(|d| d.file.as_str())
            .collect();
        assert_eq!(
            hits,
            vec![
                "crates/serve/src/session.rs",
                "crates/sim/src/fleet.rs",
                "crates/sim/src/runner.rs",
            ]
        );
    }

    #[test]
    fn reasonless_allow_is_gh000() {
        let diags = analyze_files(&[file(
            "crates/core/src/x.rs",
            "// greenhetero-lint: allow(GH001)\n/// Doc.\npub fn f() {}\n",
        )]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "GH000");
    }

    #[test]
    fn diagnostics_come_out_sorted() {
        let diags = analyze_files(&[
            file("crates/core/src/b.rs", "fn f(v: Option<u32>) -> u32 { v.unwrap() }\nfn g(v: Option<u32>) -> u32 { v.unwrap() }\n"),
            file("crates/core/src/a.rs", "fn f(v: Option<u32>) -> u32 { v.unwrap() }\n"),
        ]);
        let keys: Vec<(&str, u32)> = diags.iter().map(|d| (d.file.as_str(), d.line)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(diags.len(), 3);
    }
}
