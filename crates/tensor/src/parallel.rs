//! Thread-count selection and the ambient parallel policy for the
//! deterministic kernel layer ([`crate::par_kernels`]).
//!
//! Every dense kernel in this crate asks [`active_threads`] how wide to
//! fan out. The answer is resolved from three layers, most specific
//! first:
//!
//! 1. a **thread-local override** installed by [`with_threads`] or
//!    [`adopt_thread_policy`] (serving workers adopt their share of the
//!    policy carried by the pipeline snapshot they serve),
//! 2. a **process-global default** set once by [`set_global_threads`]
//!    (the CLI's `--threads` flag),
//! 3. the **environment default**: `AERO_THREADS` if set and valid,
//!    otherwise [`suggested_threads`] capped at [`MAX_KERNEL_THREADS`].
//!
//! Because the kernels are bit-identical at every thread count (see
//! `DESIGN.md` §10), this policy only ever changes wall-clock time —
//! never a single output bit — so it is safe to resolve it ambiently
//! instead of threading a handle through every call site.

use crate::backend::BackendKind;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default cap on kernel worker threads; oversubscribing tiny matmuls
/// past this point only adds spawn overhead.
pub const MAX_KERNEL_THREADS: usize = 8;

/// Hard ceiling accepted from any configuration source.
const THREADS_CEILING: usize = 64;

/// The parallel execution policy for a pipeline: how many worker
/// threads the tensor kernels may fan out over, and which
/// [`BackendKind`] computes each shard.
///
/// Carried by `PipelineSnapshot` so training, sampling, and every
/// serving worker run under one policy. Purely a performance knob —
/// kernel outputs are bit-identical at any thread count and under
/// either backend, which is also why the backend choice is **never
/// persisted**: checkpoints and model artifacts store no backend, so a
/// run checkpointed under one backend resumes bit-identically under the
/// other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
    backend: BackendKind,
}

impl ParallelConfig {
    /// A policy with exactly `threads` workers (clamped to `1..=64`) and
    /// the ambient backend ([`crate::backend::active_backend`]).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.clamp(1, THREADS_CEILING),
            backend: crate::backend::active_backend(),
        }
    }

    /// The single-threaded policy (ambient backend).
    #[must_use]
    pub fn serial() -> Self {
        ParallelConfig::with_threads(1)
    }

    /// The policy resolved from the environment: `AERO_THREADS` if set
    /// to a positive integer, otherwise [`suggested_threads`] capped at
    /// [`MAX_KERNEL_THREADS`]; backend from `AERO_BACKEND` (via the
    /// ambient resolution chain).
    #[must_use]
    pub fn from_env() -> Self {
        ParallelConfig::with_threads(env_default_threads())
    }

    /// The configured worker-thread count (always at least 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured compute backend.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// This policy with the backend replaced by `backend`.
    #[must_use]
    pub fn with_backend(self, backend: BackendKind) -> Self {
        ParallelConfig { backend, ..self }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::from_env()
    }
}

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn env_default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("AERO_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .map_or_else(|| suggested_threads(MAX_KERNEL_THREADS), |n| n.min(THREADS_CEILING))
    })
}

/// The thread count kernels on the current thread should fan out over.
///
/// Resolution order: thread-local override, then the process-global
/// default, then the environment default (`AERO_THREADS`, read once).
#[must_use]
pub fn active_threads() -> usize {
    let local = LOCAL_THREADS.with(Cell::get);
    if local != 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global != 0 {
        return global;
    }
    env_default_threads()
}

/// Sets the process-global kernel thread count (clamped to `1..=64`).
/// Thread-local overrides installed by [`with_threads`] or
/// [`adopt_thread_policy`] still win on their threads.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads.clamp(1, THREADS_CEILING), Ordering::Relaxed);
}

/// Installs `config` as the current thread's kernel policy — thread
/// count *and* compute backend — for the rest of the thread's lifetime.
/// Serving workers call this whenever they take the served model, with
/// their share of the snapshot's policy.
pub fn adopt_thread_policy(config: ParallelConfig) {
    LOCAL_THREADS.with(|c| c.set(config.threads()));
    crate::backend::adopt_backend(config.backend());
}

/// Runs `f` with the current thread's kernel policy temporarily set to
/// `threads` (clamped to `1..=64`), restoring the previous policy on
/// exit — including on panic, so tests can assert unwinding behaviour
/// without poisoning later tests on the same thread.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(|c| {
        let p = c.get();
        c.set(threads.clamp(1, THREADS_CEILING));
        p
    });
    let _restore = Restore(prev);
    f()
}

/// Suggested worker-thread count: the machine's available parallelism,
/// clamped to `cap`. Always at least 1 (`available_parallelism` returns a
/// `NonZero`, and the 4-thread fallback plus the clamp keep the result
/// positive), so callers can divide by it directly.
///
/// # Panics
///
/// Panics if `cap == 0` — a zero-width pool is always a caller bug.
#[must_use]
pub fn suggested_threads(cap: usize) -> usize {
    assert!(cap > 0, "thread cap must be positive");
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(4).min(cap)
}

thread_local! {
    static ASSUMED_CORES: Cell<usize> = const { Cell::new(0) };
}

/// The machine's physical parallelism, cached once. The kernel
/// dispatcher clamps fan-out to this: spawning more compute-bound
/// threads than cores only adds context-switch overhead (the exact
/// regression BENCH_kernels.json exposed on a one-core host).
fn machine_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(4)
    })
}

/// The core count the dispatcher plans against: a scoped
/// [`with_assumed_cores`] override if one is installed, otherwise the
/// real machine parallelism.
#[must_use]
pub fn effective_cores() -> usize {
    let assumed = ASSUMED_CORES.with(Cell::get);
    if assumed != 0 {
        assumed
    } else {
        machine_cores()
    }
}

/// Runs `f` pretending the machine has `cores` cores (clamped to at
/// least 1), restoring the real value on exit — including on panic.
///
/// Test/bench hook: it lets the equivalence suite and CI exercise the
/// parallel dispatch paths on small hosts where the physical-core clamp
/// would otherwise keep every kernel serial. Production code never
/// invents an assumption — oversubscribing real cores is exactly what
/// the clamp exists to prevent. It only carries one thread's
/// [`effective_cores`] to threads it starts (the serve runtime's
/// workers), which without a test scope is the machine's own count.
pub fn with_assumed_cores<R>(cores: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            ASSUMED_CORES.with(|c| c.set(self.0));
        }
    }
    let prev = ASSUMED_CORES.with(|c| {
        let p = c.get();
        c.set(cores.max(1));
        p
    });
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_positive_and_capped() {
        for cap in [1, 2, 8, 64] {
            let n = suggested_threads(cap);
            assert!(n >= 1 && n <= cap, "cap {cap} gave {n}");
        }
    }

    #[test]
    fn cap_one_serializes() {
        assert_eq!(suggested_threads(1), 1);
    }

    #[test]
    #[should_panic(expected = "thread cap must be positive")]
    fn zero_cap_panics() {
        let _ = suggested_threads(0);
    }

    #[test]
    fn config_clamps_to_at_least_one() {
        assert_eq!(ParallelConfig::with_threads(0).threads(), 1);
        assert_eq!(ParallelConfig::with_threads(4).threads(), 4);
        assert_eq!(ParallelConfig::with_threads(10_000).threads(), 64);
        assert_eq!(ParallelConfig::serial().threads(), 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = active_threads();
        let inner = with_threads(3, || {
            assert_eq!(active_threads(), 3);
            with_threads(5, active_threads)
        });
        assert_eq!(inner, 5);
        assert_eq!(active_threads(), outer, "override must be scoped");
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let outer = active_threads();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active_threads(), outer);
    }

    #[test]
    fn adopt_policy_pins_a_worker_thread() {
        let got = std::thread::spawn(|| {
            adopt_thread_policy(ParallelConfig::with_threads(6));
            active_threads()
        })
        .join()
        .expect("worker");
        assert_eq!(got, 6);
    }

    #[test]
    fn adopt_policy_pins_backend_too() {
        let got = std::thread::spawn(|| {
            adopt_thread_policy(
                ParallelConfig::with_threads(2).with_backend(BackendKind::Reference),
            );
            crate::backend::active_backend()
        })
        .join()
        .expect("worker");
        assert_eq!(got, BackendKind::Reference);
    }

    #[test]
    fn config_carries_ambient_backend_and_override() {
        let cfg = crate::backend::with_backend(BackendKind::Reference, || {
            ParallelConfig::with_threads(3)
        });
        assert_eq!(cfg.backend(), BackendKind::Reference);
        assert_eq!(cfg.with_backend(BackendKind::Blocked).backend(), BackendKind::Blocked);
        assert_eq!(cfg.with_backend(BackendKind::Blocked).threads(), 3);
    }

    #[test]
    fn assumed_cores_scopes_and_restores() {
        let real = effective_cores();
        assert!(real >= 1);
        let inner = with_assumed_cores(5, || {
            assert_eq!(effective_cores(), 5);
            with_assumed_cores(0, effective_cores)
        });
        assert_eq!(inner, 1, "zero clamps to one core");
        assert_eq!(effective_cores(), real, "override must be scoped");
    }

    #[test]
    fn active_threads_is_positive() {
        assert!(active_threads() >= 1);
    }
}
