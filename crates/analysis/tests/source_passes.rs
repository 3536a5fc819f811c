//! Fixture-driven suites for the token-level source passes: one
//! known-positive and one known-negative fixture per diagnostic code
//! (AD0200–AD0203), staged into throwaway workspace layouts.
//!
//! The fixtures live as real `.rs` files under `tests/fixtures/` so they
//! stay readable and greppable; each test copies one into the crate
//! layout the pass under test scans.

use aero_analysis::{
    lint_atomic_orderings, lint_lock_order, lint_nondeterminism, lint_source_all,
    lint_worker_panics, DiagCode, Report,
};
use std::fs;
use std::path::PathBuf;

/// Stages `content` as `crates/<crate_name>/src/<file_name>` under a
/// unique temp root and returns the root.
fn stage(label: &str, crate_name: &str, file_name: &str, content: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("aero_source_passes_{label}"));
    let _ = fs::remove_dir_all(&root);
    let dir = root.join("crates").join(crate_name).join("src");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(file_name), content).unwrap();
    root
}

fn lines_of(report: &Report, code: DiagCode) -> Vec<String> {
    report.diagnostics().iter().filter(|d| d.code == code).map(|d| d.site.clone()).collect()
}

#[test]
fn ad0200_flags_opposite_lock_orders() {
    let root = stage("lock_pos", "serve", "runtime.rs", include_str!("fixtures/lock_cycle_pos.rs"));
    let report = lint_lock_order(&root);
    assert!(report.has_code(DiagCode::LockOrderCycle), "{}", report.render());
    let msg = &report.diagnostics()[0].message;
    assert!(msg.contains("`cache`") && msg.contains("`stats`"), "{msg}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0200_accepts_a_consistent_order() {
    let root = stage("lock_neg", "serve", "runtime.rs", include_str!("fixtures/lock_order_neg.rs"));
    let report = lint_lock_order(&root);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.diagnostics().len(), 0, "{}", report.render());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0200_propagates_through_calls_and_guard_helpers() {
    let root =
        stage("lock_call", "serve", "queue.rs", include_str!("fixtures/lock_cycle_call_pos.rs"));
    let report = lint_lock_order(&root);
    assert!(report.has_code(DiagCode::LockOrderCycle), "{}", report.render());
    let msg = &report.diagnostics()[0].message;
    assert!(msg.contains("`queue`") && msg.contains("`stats`"), "{msg}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0201_flags_unannotated_relaxed_rmw_and_publish() {
    let root =
        stage("atomic_pos", "obs", "metrics.rs", include_str!("fixtures/atomic_relaxed_pos.rs"));
    let report = lint_atomic_orderings(&root);
    let sites = lines_of(&report, DiagCode::AtomicOrderingAudit);
    assert_eq!(sites.len(), 2, "{}", report.render());
    assert!(sites[0].contains("metrics.rs:5"), "RMW site: {sites:?}");
    assert!(sites[1].contains("metrics.rs:10"), "publish site: {sites:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0201_accepts_annotations_and_plain_accesses() {
    let root =
        stage("atomic_neg", "obs", "metrics.rs", include_str!("fixtures/atomic_relaxed_neg.rs"));
    let report = lint_atomic_orderings(&root);
    assert_eq!(report.diagnostics().len(), 0, "{}", report.render());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0202_flags_clocks_hash_order_and_adhoc_spawns() {
    let root = stage("nondet_pos", "tensor", "kernels.rs", include_str!("fixtures/nondet_pos.rs"));
    let report = lint_nondeterminism(&root);
    let rendered = report.render();
    assert!(rendered.contains("Instant::now"), "{rendered}");
    assert!(rendered.contains("SystemTime"), "{rendered}");
    assert!(rendered.contains("HashMap"), "{rendered}");
    assert!(rendered.contains("ad-hoc thread spawn"), "{rendered}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0202_accepts_annotations_ordered_containers_and_par_kernels() {
    let root = stage("nondet_neg", "tensor", "ops.rs", include_str!("fixtures/nondet_neg.rs"));
    // The sanctioned thread layer may spawn freely.
    let par = root.join("crates/tensor/src/par_kernels.rs");
    fs::write(&par, "fn shard() { std::thread::spawn(|| {}); }\n").unwrap();
    // Outside the determinism-critical crates the pass does not apply.
    let serve = root.join("crates/serve/src/telemetry.rs");
    fs::create_dir_all(serve.parent().unwrap()).unwrap();
    fs::write(&serve, "fn now() -> Instant { std::time::Instant::now() }\n").unwrap();
    let report = lint_nondeterminism(&root);
    assert_eq!(report.diagnostics().len(), 0, "{}", report.render());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0203_flags_unprotected_panic_sites_in_spawned_closures() {
    let root =
        stage("worker_pos", "serve", "runtime.rs", include_str!("fixtures/worker_panic_pos.rs"));
    let report = lint_worker_panics(&root);
    let sites = lines_of(&report, DiagCode::PanicInWorker);
    // unwrap in the closure, indexing and expect in the same-file callee.
    assert_eq!(sites.len(), 3, "{}", report.render());
    let rendered = report.render();
    assert!(rendered.contains("runtime.rs:8"), "closure unwrap: {rendered}");
    assert!(rendered.contains("runtime.rs:15"), "callee indexing: {rendered}");
    assert!(rendered.contains("runtime.rs:16"), "callee expect: {rendered}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0203_accepts_catch_unwind_and_non_worker_code() {
    let root =
        stage("worker_neg", "serve", "runtime.rs", include_str!("fixtures/worker_panic_neg.rs"));
    let report = lint_worker_panics(&root);
    assert_eq!(report.diagnostics().len(), 0, "{}", report.render());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn ad0203_only_applies_to_the_serve_crate() {
    let root =
        stage("worker_scope", "scene", "gen.rs", include_str!("fixtures/worker_panic_pos.rs"));
    let report = lint_worker_panics(&root);
    assert_eq!(report.diagnostics().len(), 0, "{}", report.render());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn lint_source_all_merges_every_pass() {
    // One workspace with a finding for each new code, checked end to end
    // through the merged entry point.
    let root = stage("merged", "serve", "runtime.rs", include_str!("fixtures/lock_cycle_pos.rs"));
    let obs = root.join("crates/obs/src/metrics.rs");
    fs::create_dir_all(obs.parent().unwrap()).unwrap();
    fs::write(&obs, include_str!("fixtures/atomic_relaxed_pos.rs")).unwrap();
    let tensor = root.join("crates/tensor/src/kernels.rs");
    fs::create_dir_all(tensor.parent().unwrap()).unwrap();
    fs::write(&tensor, include_str!("fixtures/nondet_pos.rs")).unwrap();
    let worker = root.join("crates/serve/src/worker.rs");
    fs::write(&worker, include_str!("fixtures/worker_panic_pos.rs")).unwrap();

    let report = lint_source_all(&root);
    for code in [
        DiagCode::LockOrderCycle,
        DiagCode::AtomicOrderingAudit,
        DiagCode::NondeterministicPath,
        DiagCode::PanicInWorker,
    ] {
        assert!(report.has_code(code), "missing {}:\n{}", code.code(), report.render());
    }

    // One more finding (a fresh relaxed RMW) in a new file shows up as
    // exactly one more diagnostic, at that file.
    fs::write(
        root.join("crates/obs/src/extra.rs"),
        "fn bump2(c: &AtomicU64) { c.fetch_add(2, Ordering::Relaxed); }\n",
    )
    .unwrap();
    let rerun = lint_source_all(&root);
    assert_eq!(rerun.diagnostics().len(), report.diagnostics().len() + 1, "{}", rerun.render());
    assert!(rerun.diagnostics().iter().any(|d| d.site.contains("extra.rs")), "{}", rerun.render());
    let _ = fs::remove_dir_all(&root);
}
