//! Hierarchical wall-clock spans with monotonic timing.
//!
//! Tracing is opt-in per thread: [`collect`] installs a thread-local
//! collector for the duration of a closure and returns the finished
//! [`Trace`]. Outside a `collect` scope, [`enter`] (and the [`span!`]
//! macro wrapping it) costs one thread-local read and a branch and
//! allocates nothing, so instrumentation can stay in hot paths
//! permanently.
//!
//! Spans nest lexically via RAII: the [`SpanGuard`] returned by
//! [`enter`] closes the span when dropped, attaching it to whichever
//! span was open on the same thread at entry time. Inclusive time is
//! the guard's lifetime; exclusive (self) time is inclusive minus the
//! children's inclusive times.

use std::cell::RefCell;
use std::time::Instant;

/// One finished span: a name, its nested children, and monotonic
/// inclusive timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Static span name, e.g. `"unet.denoise_step"`.
    pub name: &'static str,
    /// Wall-clock nanoseconds between enter and drop.
    pub inclusive_nanos: u128,
    /// Spans opened (and closed) while this one was the innermost.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Inclusive time minus the children's inclusive times (saturating:
    /// clock granularity can make children appear marginally longer, and
    /// children that ran in parallel sum to more than their parent).
    #[must_use]
    pub fn exclusive_nanos(&self) -> u128 {
        self.inclusive_nanos.saturating_sub(children_inclusive(self))
    }

    /// Total spans in this subtree, including self.
    #[must_use]
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }
}

/// A finished collection scope: the forest of root spans closed while
/// the collector was installed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Top-level spans, in completion order.
    pub roots: Vec<SpanNode>,
}

impl Trace {
    /// True when no spans were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total spans across all roots.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.roots.iter().map(SpanNode::span_count).sum()
    }

    /// Renders the trace as an indented tree, aggregating same-name
    /// siblings into one line with a `×N` multiplier (a 30-step sampler
    /// loop prints one `unet.denoise_step ×30` line, not thirty).
    ///
    /// ```text
    /// sampler.ddim                 12.40ms  (self 0.52ms)
    ///   unet.denoise_step ×30      11.88ms  (self 11.88ms)
    /// ```
    ///
    /// A span whose children ran on several threads at once (the two
    /// passes of a guided DDIM step) has children summing to more than
    /// its own wall time; its line then also shows that sum as `busy`.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        render_level(&self.roots, 0, &mut out);
        out
    }

    /// One NDJSON-ready JSON object per aggregated span path:
    /// `{"span":"a/b","count":2,"inclusive_us":…,"exclusive_us":…}`.
    /// Span names are static identifiers, so no string escaping is
    /// needed.
    #[must_use]
    pub fn render_ndjson_objects(&self) -> Vec<String> {
        let mut lines = Vec::new();
        flatten_ndjson(&self.roots, "", &mut lines);
        lines
    }
}

/// Aggregate view of same-name siblings at one tree level.
struct Aggregate<'a> {
    name: &'static str,
    count: usize,
    inclusive: u128,
    exclusive: u128,
    /// Sum of the children's inclusive times (the busy time when they
    /// ran in parallel).
    children_inclusive: u128,
    children: Vec<&'a SpanNode>,
}

fn aggregate_level(nodes: &[SpanNode]) -> Vec<Aggregate<'_>> {
    let mut out: Vec<Aggregate<'_>> = Vec::new();
    for node in nodes {
        if let Some(agg) = out.iter_mut().find(|a| a.name == node.name) {
            agg.count += 1;
            agg.inclusive += node.inclusive_nanos;
            agg.exclusive += node.exclusive_nanos();
            agg.children_inclusive += children_inclusive(node);
            agg.children.extend(&node.children);
        } else {
            out.push(Aggregate {
                name: node.name,
                count: 1,
                inclusive: node.inclusive_nanos,
                exclusive: node.exclusive_nanos(),
                children_inclusive: children_inclusive(node),
                children: node.children.iter().collect(),
            });
        }
    }
    out
}

fn children_inclusive(node: &SpanNode) -> u128 {
    node.children.iter().map(|c| c.inclusive_nanos).sum()
}

fn fmt_ms(nanos: u128) -> String {
    format!("{:.2}ms", nanos as f64 / 1e6)
}

fn render_level(nodes: &[SpanNode], depth: usize, out: &mut String) {
    for agg in aggregate_level(nodes) {
        let label = if agg.count > 1 {
            format!("{} ×{}", agg.name, agg.count)
        } else {
            agg.name.to_string()
        };
        let indent = "  ".repeat(depth);
        let busy = if agg.children_inclusive > agg.inclusive {
            format!("  busy {}", fmt_ms(agg.children_inclusive))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{indent}{label:<width$}  {:>10}  (self {}){busy}\n",
            fmt_ms(agg.inclusive),
            fmt_ms(agg.exclusive),
            width = 36usize.saturating_sub(indent.len()),
        ));
        let children: Vec<SpanNode> = agg.children.iter().map(|&c| c.clone()).collect();
        render_level(&children, depth + 1, out);
    }
}

fn flatten_ndjson(nodes: &[SpanNode], prefix: &str, lines: &mut Vec<String>) {
    for agg in aggregate_level(nodes) {
        let path =
            if prefix.is_empty() { agg.name.to_string() } else { format!("{prefix}/{}", agg.name) };
        lines.push(format!(
            "{{\"span\":\"{path}\",\"count\":{},\"inclusive_us\":{},\"exclusive_us\":{}}}",
            agg.count,
            agg.inclusive / 1_000,
            agg.exclusive / 1_000,
        ));
        let children: Vec<SpanNode> = agg.children.iter().map(|&c| c.clone()).collect();
        flatten_ndjson(&children, &path, lines);
    }
}

/// An in-flight span on one thread's stack.
struct Frame {
    name: &'static str,
    start: Instant,
    children: Vec<SpanNode>,
}

/// Per-thread collector state: the stack of open frames plus finished
/// roots.
#[derive(Default)]
struct Collector {
    stack: Vec<Frame>,
    roots: Vec<SpanNode>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Runs `f` with span collection enabled on this thread, returning its
/// result plus the trace of every span closed inside.
///
/// Nested `collect` calls shadow the outer collector for their scope
/// (the inner trace owns its spans; the outer collector resumes after).
/// Panic-safe: the previous collector state is restored even if `f`
/// unwinds, via the drop guard.
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    struct Restore {
        previous: Option<Collector>,
        done: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if !self.done {
                COLLECTOR.with(|c| *c.borrow_mut() = self.previous.take());
            }
        }
    }

    let previous = COLLECTOR.with(|c| c.borrow_mut().replace(Collector::default()));
    let mut restore = Restore { previous, done: false };
    let value = f();
    let collector = COLLECTOR.with(|c| c.borrow_mut().take()).unwrap_or_default();
    COLLECTOR.with(|c| *c.borrow_mut() = restore.previous.take());
    restore.done = true;
    // Frames still open here belong to guards that outlived the closure
    // (a leak on the caller's part); drop them rather than fabricate
    // end times.
    (value, Trace { roots: collector.roots })
}

/// True when a collector is installed on this thread (i.e. spans are
/// currently being recorded).
#[must_use]
pub fn is_collecting() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Attaches finished spans, typically collected on another thread, as
/// children of the innermost span open on this thread (or as roots when
/// none is open). A no-op when this thread is not collecting.
pub fn attach(nodes: Vec<SpanNode>) {
    COLLECTOR.with(|c| {
        if let Some(collector) = c.borrow_mut().as_mut() {
            match collector.stack.last_mut() {
                Some(parent) => parent.children.extend(nodes),
                None => collector.roots.extend(nodes),
            }
        }
    });
}

/// Opens a span named `name` if this thread is collecting; a no-op
/// guard otherwise. Prefer the [`span!`](crate::span!) macro, which
/// names the guard for you.
pub fn enter(name: &'static str) -> SpanGuard {
    let active = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        if let Some(collector) = slot.as_mut() {
            collector.stack.push(Frame { name, start: Instant::now(), children: Vec::new() });
            true
        } else {
            false
        }
    });
    SpanGuard { active }
}

/// RAII guard closing a span on drop. Returned by [`enter`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        COLLECTOR.with(|c| {
            let mut slot = c.borrow_mut();
            let Some(collector) = slot.as_mut() else {
                return; // collect() scope already ended; nothing to attach to
            };
            let Some(frame) = collector.stack.pop() else {
                return;
            };
            let node = SpanNode {
                name: frame.name,
                inclusive_nanos: frame.start.elapsed().as_nanos(),
                children: frame.children,
            };
            match collector.stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => collector.roots.push(node),
            }
        });
    }
}

/// Opens a scoped span: `let _span = span!("pipeline.decode_latent");`
/// The guard closes the span at the end of the enclosing scope. Costs a
/// thread-local read and a branch when tracing is off.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_collector_records_nothing() {
        assert!(!is_collecting());
        let guard = enter("orphan");
        drop(guard);
        let ((), trace) = collect(|| {});
        assert!(trace.is_empty());
    }

    #[test]
    fn nesting_builds_a_tree() {
        let (value, trace) = collect(|| {
            let _outer = enter("outer");
            {
                let _inner = enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _inner = enter("inner");
            }
            42
        });
        assert_eq!(value, 42);
        assert_eq!(trace.roots.len(), 1);
        let outer = &trace.roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.children.len(), 2);
        assert!(outer.children.iter().all(|c| c.name == "inner"));
        assert_eq!(trace.span_count(), 3);
    }

    #[test]
    fn exclusive_time_subtracts_children() {
        let (_, trace) = collect(|| {
            let _outer = enter("outer");
            let _inner = enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let outer = &trace.roots[0];
        let child = &outer.children[0];
        assert!(outer.inclusive_nanos >= child.inclusive_nanos);
        assert_eq!(outer.exclusive_nanos(), outer.inclusive_nanos - child.inclusive_nanos);
        // The inner span holds the sleep; outer self-time is the small remainder.
        assert!(child.inclusive_nanos >= 2_000_000);
        assert!(outer.exclusive_nanos() < child.inclusive_nanos);
    }

    #[test]
    fn siblings_aggregate_in_render() {
        let (_, trace) = collect(|| {
            let _root = enter("sampler.ddim");
            for _ in 0..3 {
                let _step = enter("unet.denoise_step");
            }
        });
        let tree = trace.render_tree();
        assert!(tree.contains("unet.denoise_step ×3"), "{tree}");
        assert!(tree.contains("sampler.ddim"), "{tree}");
        let lines = trace.render_ndjson_objects();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"span\":\"sampler.ddim/unet.denoise_step\""), "{}", lines[1]);
        assert!(lines[1].contains("\"count\":3"), "{}", lines[1]);
    }

    #[test]
    fn nested_collect_shadows_outer() {
        let (_, outer_trace) = collect(|| {
            let _a = enter("outer_span");
            drop(_a);
            let ((), inner_trace) = collect(|| {
                let _b = enter("inner_span");
            });
            assert_eq!(inner_trace.roots.len(), 1);
            assert_eq!(inner_trace.roots[0].name, "inner_span");
            let _c = enter("outer_span_2");
        });
        let names: Vec<_> = outer_trace.roots.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["outer_span", "outer_span_2"]);
    }

    #[test]
    fn attached_spans_nest_under_the_open_span_and_report_busy_time() {
        // A span collected elsewhere (another thread's pass), attached
        // under this thread's open step: it becomes the step's child, and
        // since it outlasts the step, the step's line shows the sum.
        let remote = SpanNode { name: "uncond", inclusive_nanos: 5_000_000_000, children: vec![] };
        let (_, trace) = collect(|| {
            let _step = enter("step");
            {
                let _cond = enter("cond");
            }
            attach(vec![remote.clone()]);
        });
        let step = &trace.roots[0];
        let names: Vec<_> = step.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["cond", "uncond"]);
        assert_eq!(step.children[1], remote);
        assert_eq!(step.exclusive_nanos(), 0, "parallel children saturate self time");
        let tree = trace.render_tree();
        let step_line = tree.lines().next().expect("step line");
        assert!(step_line.contains("busy 5000."), "{tree}");
        assert!(!tree.lines().nth(1).expect("cond line").contains("busy"), "{tree}");
        // Outside a collect scope attaching is a no-op.
        attach(vec![remote]);
        assert!(!is_collecting());
    }

    #[test]
    fn collect_is_panic_safe() {
        let caught = std::panic::catch_unwind(|| {
            let (_, _) = collect(|| {
                let _s = enter("doomed");
                panic!("boom");
            });
        });
        assert!(caught.is_err());
        // Collector state was restored: a fresh collect works normally.
        assert!(!is_collecting());
        let (_, trace) = collect(|| {
            let _s = enter("after");
        });
        assert_eq!(trace.roots.len(), 1);
    }
}
