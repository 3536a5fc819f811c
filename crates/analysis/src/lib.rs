//! Diagnostics and token-level source analysis for the AeroDiffusion
//! reproduction.
//!
//! Findings carry stable `ADxxxx` codes (see [`DiagCode`]) and render in a
//! rustc-like format via [`Report::render`]. Two kinds of analysis report
//! through them:
//!
//! 1. **Model geometry** (`AD0001`, `AD0005`). A model is validated by
//!    running it: `aerodiffusion::lint` runs the real pipeline once on a
//!    tiny input and records a panic or a wrong output shape here. This
//!    crate holds no description of any model.
//! 2. **Source passes** ([`lint_source_all`]): token-level scans of the
//!    workspace tree for kernel calls that can panic on serving paths,
//!    hard-wired compute backends, lock-order cycles, unaudited relaxed
//!    atomics, nondeterminism in determinism-critical crates, and panics
//!    in worker closures (`AD0111`, `AD0112`, `AD02xx`). A finding is
//!    accepted only by an inline `// lint: …-ok(reason)` annotation at
//!    its site.
//!
//! # Example
//!
//! ```
//! use aero_analysis::{DiagCode, Report};
//!
//! let mut report = Report::new();
//! assert!(report.is_clean());
//! report.push(DiagCode::ShapeMismatch, "pipeline.encode_task", "panicked: reshape");
//! assert!(!report.is_clean());
//! assert!(report.render().contains("error[AD0001]"));
//! ```

mod diag;
mod lockorder;
mod source_lint;
pub mod token;

pub use diag::{DiagCode, Diagnostic, Report, Severity};
pub use lockorder::lint_lock_order;
pub use source_lint::{
    lint_atomic_orderings, lint_backend_callsites, lint_nondeterminism, lint_panicking_callsites,
    lint_source_all, lint_worker_panics,
};
