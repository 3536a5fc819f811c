//! Diagnostic codes, severities, and rustc-style rendering.
//!
//! Every problem the analyzer can detect has a stable `AD`-prefixed code so
//! that CI scripts and docs can refer to it unambiguously. Codes in the
//! `AD00xx` range come from the static shape pass; codes in the `AD01xx`
//! range come from the autograd-graph linter and the kernel-callsite
//! scans; codes in the `AD02xx` range come from the token-level
//! concurrency and determinism analyses.

use std::fmt;

/// Stable identifier for one class of problem the analyzer detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// `AD0001`: two tensor shapes that must agree (matmul inner dims,
    /// conv channels, declared vs. inferred dimensions) do not.
    ShapeMismatch,
    /// `AD0002`: elementwise operands cannot be broadcast together.
    BroadcastConflict,
    /// `AD0003`: a reshape changes the (symbolic) element count.
    ReshapeMismatch,
    /// `AD0004`: a dimension must divide another (attention heads,
    /// pooling windows, token splits) but does not.
    DivisibilityViolation,
    /// `AD0005`: a configuration value is unusable before any shape
    /// algebra runs (zero channels, zero image size, ...).
    InvalidConfig,
    /// `AD0101`: a declared trainable parameter is unreachable from the
    /// loss — `backward()` will never populate its gradient.
    DetachedParameter,
    /// `AD0102`: gradient flow is explicitly severed (a `detach` node or
    /// a root that does not require gradients).
    DetachedSubgraph,
    /// `AD0103`: `ln` applied to values at or below zero / without a
    /// safe clamp margin.
    UnclampedLn,
    /// `AD0104`: NaN-prone arithmetic — division by a near-zero
    /// denominator or `sqrt` of non-positive input.
    NanProneOp,
    /// `AD0105`: a multiplication by an all-zero constant makes an
    /// entire differentiable branch dead.
    DeadBranch,
    /// `AD0111`: long-lived serving code (`aero-serve`, the core
    /// pipeline crate) calls a panicking tensor kernel directly instead
    /// of its `try_*` variant. A shape mismatch there must surface as a
    /// typed reply, not take a worker down.
    PanickingKernelCall,
    /// `AD0112`: code outside the tensor crate names a concrete compute
    /// backend (`ReferenceBackend`, `BlockedBackend`) or calls a
    /// per-slab backend kernel (`matmul_slab`, …) directly instead of
    /// going through the dispatched ops. Backend choice is a process
    /// policy (`BackendKind` + `set_global_backend`/`with_backend`);
    /// hard-wiring an implementation bypasses both the policy and the
    /// sharding layer.
    BackendBypass,
    /// `AD0200`: two lock acquisitions form a cycle in the workspace's
    /// lock-order graph — function A holds lock X while taking Y, and
    /// some path (possibly through calls) holds Y while taking X. Two
    /// threads interleaving those paths deadlock.
    LockOrderCycle,
    /// `AD0201`: `Ordering::Relaxed` used in a read-modify-write or a
    /// multi-field publish pattern without a `// lint: relaxed-ok(..)`
    /// justification. Relaxed RMW is fine for pure counters but silently
    /// wrong the moment a reader correlates two fields.
    AtomicOrderingAudit,
    /// `AD0202`: a nondeterminism source (`HashMap`/`HashSet` iteration
    /// order, wall clocks, ad-hoc `thread::spawn`) inside a
    /// determinism-critical crate (`tensor`, `diffusion`, `core`) whose
    /// outputs must be bitwise reproducible. Threading must route
    /// through `par_kernels`; randomness through the seeded RNG.
    NondeterministicPath,
    /// `AD0203`: `unwrap`/`expect`/slice indexing inside a closure handed
    /// to `spawn` without the `catch_unwind` recovery layer between the
    /// panic site and the thread boundary. A panic there kills a worker
    /// instead of producing a typed error reply.
    PanicInWorker,
}

impl DiagCode {
    /// The stable `ADxxxx` code string.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::ShapeMismatch => "AD0001",
            DiagCode::BroadcastConflict => "AD0002",
            DiagCode::ReshapeMismatch => "AD0003",
            DiagCode::DivisibilityViolation => "AD0004",
            DiagCode::InvalidConfig => "AD0005",
            DiagCode::DetachedParameter => "AD0101",
            DiagCode::DetachedSubgraph => "AD0102",
            DiagCode::UnclampedLn => "AD0103",
            DiagCode::NanProneOp => "AD0104",
            DiagCode::DeadBranch => "AD0105",
            DiagCode::PanickingKernelCall => "AD0111",
            DiagCode::BackendBypass => "AD0112",
            DiagCode::LockOrderCycle => "AD0200",
            DiagCode::AtomicOrderingAudit => "AD0201",
            DiagCode::NondeterministicPath => "AD0202",
            DiagCode::PanicInWorker => "AD0203",
        }
    }

    /// One-line human title of the code.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            DiagCode::ShapeMismatch => "shape mismatch",
            DiagCode::BroadcastConflict => "broadcast conflict",
            DiagCode::ReshapeMismatch => "reshape changes element count",
            DiagCode::DivisibilityViolation => "divisibility violation",
            DiagCode::InvalidConfig => "invalid configuration",
            DiagCode::DetachedParameter => "parameter never receives gradients",
            DiagCode::DetachedSubgraph => "gradient flow severed",
            DiagCode::UnclampedLn => "ln of unclamped input",
            DiagCode::NanProneOp => "NaN-prone arithmetic",
            DiagCode::DeadBranch => "dead differentiable branch",
            DiagCode::PanickingKernelCall => "panicking tensor kernel called on a serving path",
            DiagCode::BackendBypass => {
                "concrete compute backend hard-wired outside the tensor crate"
            }
            DiagCode::LockOrderCycle => "lock acquisition order forms a cycle",
            DiagCode::AtomicOrderingAudit => "unaudited relaxed atomic ordering",
            DiagCode::NondeterministicPath => {
                "nondeterminism source in a determinism-critical crate"
            }
            DiagCode::PanicInWorker => "panic site inside an unprotected worker closure",
        }
    }

    /// Default severity: structural problems are errors, value-dependent
    /// numerical hazards are warnings.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::ShapeMismatch
            | DiagCode::BroadcastConflict
            | DiagCode::ReshapeMismatch
            | DiagCode::DivisibilityViolation
            | DiagCode::InvalidConfig
            | DiagCode::DetachedParameter
            | DiagCode::PanickingKernelCall
            | DiagCode::BackendBypass
            | DiagCode::LockOrderCycle
            | DiagCode::PanicInWorker => Severity::Error,
            DiagCode::DetachedSubgraph
            | DiagCode::UnclampedLn
            | DiagCode::NanProneOp
            | DiagCode::DeadBranch
            | DiagCode::AtomicOrderingAudit
            | DiagCode::NondeterministicPath => Severity::Warning,
        }
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly intentional; lint still passes.
    Warning,
    /// The model cannot run (or cannot train) as configured.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: a code, a severity, the component path it occurred at,
/// and a human message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable code classifying the finding.
    pub code: DiagCode,
    /// Error or warning.
    pub severity: Severity,
    /// Dotted component path, e.g. `unet.res_up.conv1`.
    pub site: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.code.code(), self.message)?;
        write!(f, "  --> {}", self.site)
    }
}

/// An ordered collection of diagnostics from one analysis run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Report::default()
    }

    /// Appends a diagnostic with the code's default severity.
    pub fn push(&mut self, code: DiagCode, site: impl Into<String>, message: impl Into<String>) {
        self.diags.push(Diagnostic {
            code,
            severity: code.default_severity(),
            site: site.into(),
            message: message.into(),
        });
    }

    /// Appends a diagnostic with an explicit severity.
    pub fn push_with_severity(
        &mut self,
        code: DiagCode,
        severity: Severity,
        site: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.diags.push(Diagnostic { code, severity, site: site.into(), message: message.into() });
    }

    /// Absorbs another report's diagnostics.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All diagnostics, in discovery order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of error-severity diagnostics.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// `true` when no error-severity diagnostics are present (warnings
    /// do not fail a lint run).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` when some diagnostic carries `code`.
    #[must_use]
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Renders the whole report in a rustc-like format, ending with a
    /// one-line summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push_str("\n\n");
        }
        let (e, w) = (self.error_count(), self.warning_count());
        if e == 0 && w == 0 {
            out.push_str("lint: no problems found\n");
        } else {
            out.push_str(&format!("lint: {e} error(s), {w} warning(s)\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            DiagCode::ShapeMismatch,
            DiagCode::BroadcastConflict,
            DiagCode::ReshapeMismatch,
            DiagCode::DivisibilityViolation,
            DiagCode::InvalidConfig,
            DiagCode::DetachedParameter,
            DiagCode::DetachedSubgraph,
            DiagCode::UnclampedLn,
            DiagCode::NanProneOp,
            DiagCode::DeadBranch,
            DiagCode::PanickingKernelCall,
            DiagCode::BackendBypass,
            DiagCode::LockOrderCycle,
            DiagCode::AtomicOrderingAudit,
            DiagCode::NondeterministicPath,
            DiagCode::PanicInWorker,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "duplicate AD codes");
        assert!(codes.iter().all(|c| c.starts_with("AD")));
    }

    #[test]
    fn report_renders_rustc_style() {
        let mut r = Report::new();
        r.push(DiagCode::ShapeMismatch, "unet.conv_in", "input has 3 channels, weight expects 4");
        r.push(DiagCode::UnclampedLn, "node#7(ln)", "ln input minimum is 0");
        let text = r.render();
        assert!(text.contains("error[AD0001]"));
        assert!(text.contains("warning[AD0103]"));
        assert!(text.contains("--> unet.conv_in"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
    }
}
