//! Token-level source lints over the workspace tree.
//!
//! Every pass here matches against the [`crate::token`] stream, so
//! patterns mentioned inside comments, string literals, or raw strings
//! can never produce findings — the failure mode of the line-regex scan
//! this module replaced. Five passes share one file walk:
//!
//! - **Compute-backend bypasses** ([`AD0112`]). Kernel dispatch routes
//!   through the active `ComputeBackend`; code outside the tensor
//!   crate must never name a concrete backend (`ReferenceBackend`,
//!   `BlockedBackend`) or call a per-slab backend kernel
//!   (`matmul_slab`, …) directly — that hard-wires an implementation
//!   past both the backend policy and the sharding layer. Selecting a
//!   policy via `BackendKind` / `set_global_backend` / `with_backend`
//!   is sanctioned and never flagged.
//! - **Panicking kernels on serving paths** ([`AD0111`]). Every
//!   shape-checked tensor op has a `try_*` variant returning
//!   `TensorError`; long-lived serving code (`aero-serve` and the core
//!   pipeline crate) must use those so a malformed request surfaces as
//!   a typed reply instead of killing a worker thread.
//! - **Atomic ordering audit** ([`AD0201`]). `Ordering::Relaxed` in a
//!   read-modify-write call, or relaxed stores publishing several
//!   fields from one function, must carry a
//!   `// lint: relaxed-ok(<reason>)` annotation.
//! - **Nondeterministic paths** ([`AD0202`]). Wall clocks, ad-hoc
//!   `thread::spawn`, and hash-ordered containers inside the
//!   determinism-critical crates (`tensor`, `diffusion`, `core`) break
//!   the bitwise-reproducibility contract unless annotated
//!   `// lint: nondet-ok(<reason>)`; sanctioned threading lives in
//!   `par_kernels.rs`.
//! - **Panics in worker closures** ([`AD0203`]). `unwrap`/`expect`/
//!   slice indexing reachable from a closure handed to `spawn` in the
//!   serve crate, outside the `catch_unwind` recovery layer, kills a
//!   worker thread instead of producing a typed reply.
//!
//! The lock-order cycle pass ([`AD0200`]) builds on the same walker but
//! lives in [`crate::lockorder`]; [`lint_source_all`] runs all six.
//!
//! [`AD0111`]: crate::DiagCode::PanickingKernelCall
//! [`AD0112`]: crate::DiagCode::BackendBypass
//! [`AD0200`]: crate::DiagCode::LockOrderCycle
//! [`AD0201`]: crate::DiagCode::AtomicOrderingAudit
//! [`AD0202`]: crate::DiagCode::NondeterministicPath
//! [`AD0203`]: crate::DiagCode::PanicInWorker

use crate::diag::{DiagCode, Report};
use crate::token::{self, FnItem, Token, TokenKind};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Identifiers that hard-wire a concrete compute backend: the backend
/// types themselves, plus the per-slab kernels of the `ComputeBackend`
/// trait. Only the tensor crate's dispatch layer may touch these —
/// everything else must reach compute through the dispatched ops, which
/// consult the active backend policy.
const BACKEND_INTERNALS: [&str; 5] =
    ["ReferenceBackend", "BlockedBackend", "matmul_slab", "q8_matmul_slab", "softmax_slab"];

/// Path components that exempt a file from every source pass:
/// test/bench trees (which exercise forbidden patterns by design),
/// vendored shims, and build output.
const EXEMPT_COMPONENTS: [&str; 4] = ["tests", "benches", "shims", "target"];

/// The crates whose `src/` trees count as long-lived serving paths: a
/// shape panic there takes a worker thread (or the whole server) down
/// instead of failing one request.
const SERVING_CRATES: [&str; 2] = ["serve", "core"];

/// The crates whose outputs must be bitwise reproducible; anything
/// order- or clock-dependent inside them is an `AD0202` finding.
const DETERMINISM_CRATES: [&str; 3] = ["tensor", "diffusion", "core"];

/// Atomic read-modify-write methods: relaxed ordering on these needs a
/// written justification.
const RMW_METHODS: [&str; 11] = [
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "swap",
];

fn is_exempt(path: &Path) -> bool {
    path.components()
        .any(|c| c.as_os_str().to_str().is_some_and(|name| EXEMPT_COMPONENTS.contains(&name)))
}

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if is_exempt(&path) {
            continue;
        }
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// One tokenized workspace source file, truncated at its first
/// `#[cfg(test)]` marker (in-file unit tests exercise forbidden
/// patterns deliberately).
pub(crate) struct SourceFile {
    /// Path shown in diagnostics, relative to the lint root.
    pub shown: String,
    /// Name of the crate the file belongs to (`crates/<name>/…`), or
    /// the top-level package name for root `src/` files.
    pub crate_name: String,
    /// The file's text.
    pub src: String,
    /// Token stream up to the test boundary.
    pub tokens: Vec<Token>,
    /// `fn` items found in the (truncated) stream.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    pub(crate) fn load(path: &Path, root: &Path) -> Option<SourceFile> {
        let src = fs::read_to_string(path).ok()?;
        let shown = path.strip_prefix(root).unwrap_or(path).display().to_string();
        let rel = path.strip_prefix(root).unwrap_or(path);
        let mut comps = rel.components().filter_map(|c| c.as_os_str().to_str());
        let crate_name = match comps.next() {
            Some("crates") => comps.next().unwrap_or("?").to_string(),
            _ => "suite".to_string(),
        };
        let mut tokens = token::tokenize(&src);
        tokens.truncate(token::test_boundary(&src, &tokens));
        let fns = token::functions(&src, &tokens);
        Some(SourceFile { shown, crate_name, src, tokens, fns })
    }

    /// The base name of the file (`runtime.rs`).
    pub(crate) fn file_name(&self) -> &str {
        self.shown.rsplit('/').next().unwrap_or(&self.shown)
    }

    /// Diagnostic site string for a line of this file.
    pub(crate) fn site(&self, line: u32) -> String {
        format!("{}:{line}", self.shown)
    }

    /// Text of token `i`.
    pub(crate) fn text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.src)
    }

    /// Lines carrying a `lint: <key>(reason)` annotation; a finding on
    /// line `L` is suppressed when `L` or `L - 1` is annotated.
    pub(crate) fn allowlist(&self, key: &str) -> BTreeSet<u32> {
        token::annotation_lines(&self.src, &self.tokens, key)
    }
}

fn allowlisted(lines: &BTreeSet<u32>, line: u32) -> bool {
    lines.contains(&line) || (line > 1 && lines.contains(&(line - 1)))
}

/// Loads every non-exempt `.rs` file under `crates/*/src` and the
/// top-level `src/`, tokenized and test-truncated. Missing directories
/// are silently ignored, so every pass is a no-op away from a checkout.
pub(crate) fn load_workspace(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut members: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        members.sort();
        for member in members {
            if !is_exempt(&member) {
                rust_files_under(&member.join("src"), &mut files);
            }
        }
    }
    rust_files_under(&root.join("src"), &mut files);
    files.iter().filter_map(|p| SourceFile::load(p, root)).collect()
}

/// Code-token indices of `file`.
fn code(file: &SourceFile) -> Vec<usize> {
    token::code_indices(&file.tokens)
}

/// Scans the workspace rooted at `root` for code outside the tensor
/// crate that names a concrete compute backend or calls a per-slab
/// backend kernel directly, reporting each as `AD0112`.
///
/// Backend *policy* selection — `BackendKind`, `set_global_backend`,
/// `with_backend`, the CLI `--backend` flag — is the sanctioned surface
/// and never matches; only the implementation-level names in
/// [`BACKEND_INTERNALS`] do. The tensor crate (which owns the dispatch
/// layer), `tests/`/`benches/` trees, `shims/`, and `target/` are
/// exempt.
#[must_use]
pub fn lint_backend_callsites(root: &Path) -> Report {
    let mut report = Report::new();
    for file in &load_workspace(root) {
        if file.crate_name == "tensor" {
            continue;
        }
        for t in &file.tokens {
            if t.kind == TokenKind::Ident && BACKEND_INTERNALS.contains(&t.text(&file.src)) {
                let name = t.text(&file.src);
                report.push(
                    DiagCode::BackendBypass,
                    file.site(t.line),
                    format!(
                        "`{name}` hard-wires a concrete compute backend; go through the \
                         dispatched tensor ops and select policy via `BackendKind` instead"
                    ),
                );
            }
        }
    }
    report
}

/// Panicking tensor ops that have a `try_*` twin; the scan looks for
/// `.name(` as adjacent code tokens, so `try_matmul` never matches.
const PANICKING_KERNELS: [&str; 10] = [
    "matmul",
    "bmm",
    "conv2d",
    "im2col",
    "col2im",
    "conv_transpose2d",
    "avg_pool2d",
    "max_pool2d",
    "upsample_nearest2x",
    "softmax_last_axis",
];

/// Scans the long-lived serving crates (`crates/serve`, `crates/core`)
/// for direct calls of panicking tensor kernels that have `try_*`
/// variants, reporting each as `AD0111`.
#[must_use]
pub fn lint_panicking_callsites(root: &Path) -> Report {
    let mut report = Report::new();
    for file in &load_workspace(root) {
        if !SERVING_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let code = code(file);
        for w in code.windows(3) {
            let [a, b, c] = [w[0], w[1], w[2]];
            if file.text(a) == "."
                && file.tokens[b].kind == TokenKind::Ident
                && PANICKING_KERNELS.contains(&file.text(b))
                && file.text(c) == "("
            {
                let name = file.text(b).to_string();
                report.push(
                    DiagCode::PanickingKernelCall,
                    file.site(file.tokens[b].line),
                    format!(
                        "`{name}` panics on shape mismatch; serving paths must call \
                         `try_{name}` and turn the error into a typed reply"
                    ),
                );
            }
        }
    }
    report
}

/// Audits relaxed atomic orderings workspace-wide (`AD0201`).
///
/// Two patterns are flagged unless the line (or the line above it)
/// carries `// lint: relaxed-ok(<reason>)`:
///
/// 1. a read-modify-write method (`fetch_add`, `swap`,
///    `compare_exchange`, …) called with `Ordering::Relaxed` anywhere in
///    the same statement;
/// 2. one function issuing relaxed `.store(..)` calls to two or more
///    distinct fields — a cross-field publish that readers may observe
///    out of order.
#[must_use]
pub fn lint_atomic_orderings(root: &Path) -> Report {
    let mut report = Report::new();
    for file in &load_workspace(root) {
        let ok_lines = file.allowlist("relaxed-ok");
        let code = code(file);
        // Statement spans around each `Ordering::Relaxed` occurrence.
        for (ci, &ti) in code.iter().enumerate() {
            if file.text(ti) != "Relaxed"
                || ci < 3
                || file.text(code[ci - 1]) != ":"
                || file.text(code[ci - 2]) != ":"
                || file.text(code[ci - 3]) != "Ordering"
            {
                continue;
            }
            let is_stmt_edge = |i: usize| matches!(file.text(code[i]), ";" | "{" | "}");
            let start = (0..ci).rev().find(|&i| is_stmt_edge(i)).map_or(0, |i| i + 1);
            let end = (ci..code.len()).find(|&i| is_stmt_edge(i)).unwrap_or(code.len());
            for w in start..end.saturating_sub(1) {
                let (a, b) = (code[w], code[w + 1]);
                if file.text(a) == "."
                    && file.tokens[b].kind == TokenKind::Ident
                    && RMW_METHODS.contains(&file.text(b))
                {
                    let line = file.tokens[b].line;
                    if !allowlisted(&ok_lines, line) {
                        let method = file.text(b).to_string();
                        report.push(
                            DiagCode::AtomicOrderingAudit,
                            file.site(line),
                            format!(
                                "`{method}` with `Ordering::Relaxed` is a read-modify-write; \
                                 justify it with `// lint: relaxed-ok(<reason>)` or strengthen \
                                 the ordering"
                            ),
                        );
                    }
                    break;
                }
            }
        }
        // Cross-field publish: ≥2 distinct relaxed-store receivers per fn.
        for f in &file.fns {
            if f.body.0 >= f.body.1 {
                continue;
            }
            let body: Vec<usize> =
                code.iter().copied().filter(|&ti| ti >= f.body.0 && ti < f.body.1).collect();
            let mut receivers: Vec<(String, u32)> = Vec::new();
            for w in 0..body.len().saturating_sub(2) {
                let (dot, store, paren) = (body[w], body[w + 1], body[w + 2]);
                if file.text(dot) != "." || file.text(store) != "store" || file.text(paren) != "(" {
                    continue;
                }
                // Receiver: the ident (or tuple-field number) before the dot.
                let recv = (w > 0).then(|| file.text(body[w - 1]).to_string());
                let Some(recv) = recv else { continue };
                // Only stores that are themselves relaxed count: look for
                // `Relaxed` before the matching `)`.
                let mut depth = 0i32;
                let mut relaxed = false;
                for &ti in &body[w + 2..] {
                    match file.text(ti) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "Relaxed" => relaxed = true,
                        _ => {}
                    }
                }
                let line = file.tokens[store].line;
                if relaxed && !allowlisted(&ok_lines, line) {
                    receivers.push((recv, line));
                }
            }
            let distinct: BTreeSet<&str> = receivers.iter().map(|(r, _)| r.as_str()).collect();
            if distinct.len() >= 2 {
                let (_, line) = receivers[1];
                let fields: Vec<&str> = distinct.iter().copied().collect();
                report.push(
                    DiagCode::AtomicOrderingAudit,
                    file.site(line),
                    format!(
                        "`{}` publishes {} fields ({}) with relaxed stores; readers may observe \
                         them out of order — use Release/Acquire or annotate each store with \
                         `// lint: relaxed-ok(<reason>)`",
                        f.name,
                        distinct.len(),
                        fields.join(", "),
                    ),
                );
            }
        }
    }
    report
}

/// Flags nondeterminism sources inside the determinism-critical crates
/// (`AD0202`): wall clocks (`SystemTime`, `Instant::now`), ad-hoc
/// thread spawns, and hash-ordered containers (`HashMap`/`HashSet`).
///
/// `par_kernels.rs` is the sanctioned threading layer and is exempt;
/// individual sites are allowlisted with `// lint: nondet-ok(<reason>)`.
#[must_use]
pub fn lint_nondeterminism(root: &Path) -> Report {
    let mut report = Report::new();
    for file in &load_workspace(root) {
        if !DETERMINISM_CRATES.contains(&file.crate_name.as_str())
            || file.file_name() == "par_kernels.rs"
        {
            continue;
        }
        let ok_lines = file.allowlist("nondet-ok");
        let code = code(file);
        let flag = |line: u32, msg: String, report: &mut Report| {
            if !allowlisted(&ok_lines, line) {
                report.push(DiagCode::NondeterministicPath, file.site(line), msg);
            }
        };
        for (ci, &ti) in code.iter().enumerate() {
            if file.tokens[ti].kind != TokenKind::Ident {
                continue;
            }
            let next = |k: usize| code.get(ci + k).map(|&j| file.text(j));
            let line = file.tokens[ti].line;
            match file.text(ti) {
                "SystemTime" => flag(
                    line,
                    "`SystemTime` is a wall clock; determinism-critical code must not read it \
                     (annotate `// lint: nondet-ok(<reason>)` if it never feeds tensors)"
                        .to_string(),
                    &mut report,
                ),
                "Instant" if next(1) == Some(":") && next(3) == Some("now") => flag(
                    line,
                    "`Instant::now` is a wall clock; determinism-critical code must not branch \
                     on it (annotate `// lint: nondet-ok(<reason>)` if timing only feeds \
                     metrics)"
                        .to_string(),
                    &mut report,
                ),
                "spawn"
                    if next(1) == Some("(")
                        && ci >= 2
                        && (file.text(code[ci - 1]) == "."
                            || (file.text(code[ci - 1]) == ":"
                                && file.text(code[ci - 2]) == ":")) =>
                {
                    flag(
                        line,
                        "ad-hoc thread spawn in a determinism-critical crate; route parallelism \
                         through `par_kernels` so sharding stays deterministic"
                            .to_string(),
                        &mut report,
                    );
                }
                name @ ("HashMap" | "HashSet") => flag(
                    line,
                    format!(
                        "`{name}` iteration order is nondeterministic; use a BTree container or \
                         sort before output (annotate `// lint: nondet-ok(<reason>)` if order \
                         never escapes)"
                    ),
                    &mut report,
                ),
                _ => {}
            }
        }
    }
    report
}

/// Flags panic sites inside worker closures in the serve crate
/// (`AD0203`): `.unwrap()`, `.expect(..)`, and slice indexing reachable
/// from a closure passed to `spawn(..)` without `catch_unwind` between
/// the site and the thread boundary.
///
/// Reachability follows free-function calls *within the same file* as
/// the spawn — the recovery boundary for a worker must live near the
/// worker, so cross-file propagation is deliberately out of scope (a
/// documented soundness limit, see DESIGN.md §12).
#[must_use]
pub fn lint_worker_panics(root: &Path) -> Report {
    let mut report = Report::new();
    for file in &load_workspace(root) {
        if file.crate_name != "serve" {
            continue;
        }
        scan_worker_panics(file, &mut report);
    }
    report
}

fn scan_worker_panics(file: &SourceFile, report: &mut Report) {
    let code = code(file);
    // Paren-matched argument ranges of every `catch_unwind(` call: panic
    // sites inside are recovered, and calls inside are not traversed.
    let mut protected: Vec<(usize, usize)> = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        if file.text(ti) == "catch_unwind" && code.get(ci + 1).is_some_and(|&j| file.text(j) == "(")
        {
            if let Some(close) = match_paren(file, &code, ci + 1) {
                protected.push((code[ci + 1], code[close]));
            }
        }
    }
    let shielded = |ti: usize| protected.iter().any(|&(s, e)| ti > s && ti < e);

    // Token ranges of every closure passed to a `spawn(` call.
    let mut roots: Vec<(usize, usize)> = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        if file.text(ti) != "spawn"
            || file.tokens[ti].kind != TokenKind::Ident
            || code.get(ci + 1).is_none_or(|&j| file.text(j) != "(")
        {
            continue;
        }
        let Some(close) = match_paren(file, &code, ci + 1) else { continue };
        // Find the closure head (`move ||` / `|args|`) inside the args.
        let mut k = ci + 2;
        while k < close {
            if file.text(code[k]) == "move" || file.text(code[k]) == "|" {
                let head = if file.text(code[k]) == "move" { k + 1 } else { k };
                if file.text(code[head]) == "|" {
                    // Skip to the closing pipe (`||` is two tokens).
                    let mut p = head + 1;
                    while p < close && file.text(code[p]) != "|" {
                        p += 1;
                    }
                    roots.push((code[p + 1], code[close]));
                    break;
                }
            }
            k += 1;
        }
    }

    // Free functions defined in this file, for same-file traversal.
    let local: Vec<&FnItem> = file.fns.iter().filter(|f| f.body.0 < f.body.1).collect();
    let mut visited: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<(usize, usize, String)> =
        roots.iter().map(|&(s, e)| (s, e, "a spawned closure".to_string())).collect();
    let mut sites: BTreeSet<(u32, String)> = BTreeSet::new();

    while let Some((start, end, origin)) = queue.pop() {
        let span: Vec<usize> =
            code.iter().copied().filter(|&ti| ti >= start && ti < end && !shielded(ti)).collect();
        for (w, &ti) in span.iter().enumerate() {
            let text = file.text(ti);
            // `.unwrap(` / `.expect(`
            if (text == "unwrap" || text == "expect")
                && w > 0
                && file.text(span[w - 1]) == "."
                && span.get(w + 1).is_some_and(|&j| file.text(j) == "(")
            {
                sites.insert((
                    file.tokens[ti].line,
                    format!(
                        "`.{text}(..)` in {origin} can kill the worker thread; recover through \
                         `catch_unwind` or return a typed error"
                    ),
                ));
            }
            // Indexing: ident immediately followed by `[`.
            if file.tokens[ti].kind == TokenKind::Ident
                && span.get(w + 1).is_some_and(|&j| {
                    file.text(j) == "[" && file.tokens[j].start == file.tokens[ti].end
                })
            {
                sites.insert((
                    file.tokens[ti].line,
                    format!(
                        "slice indexing of `{text}` in {origin} can panic; use `.get(..)` or \
                         recover through `catch_unwind`"
                    ),
                ));
            }
            // Same-file free-function call: traverse.
            if file.tokens[ti].kind == TokenKind::Ident
                && span.get(w + 1).is_some_and(|&j| file.text(j) == "(")
                && (w == 0 || file.text(span[w - 1]) != ".")
            {
                if let Some(callee) = local.iter().find(|f| f.name == text) {
                    if visited.insert(text.to_string()) {
                        queue.push((
                            callee.body.0,
                            callee.body.1,
                            format!("`{text}` (reached from a spawned closure)"),
                        ));
                    }
                }
            }
        }
    }
    for (line, msg) in sites {
        report.push(DiagCode::PanicInWorker, file.site(line), msg);
    }
}

/// Index (into `code`) of the `)` matching the `(` at `code[open]`.
pub(crate) fn match_paren(file: &SourceFile, code: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, &ti) in code.iter().enumerate().skip(open) {
        match file.text(ti) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Runs every source-level pass — AD0111, AD0112, AD0200 (lock order),
/// AD0201, AD0202, AD0203 — over the workspace rooted at `root` and
/// merges the findings into one report.
#[must_use]
pub fn lint_source_all(root: &Path) -> Report {
    let mut report = Report::new();
    report.merge(lint_backend_callsites(root));
    report.merge(lint_panicking_callsites(root));
    report.merge(crate::lockorder::lint_lock_order(root));
    report.merge(lint_atomic_orderings(root));
    report.merge(lint_nondeterminism(root));
    report.merge(lint_worker_panics(root));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(path: &Path, content: &str) {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, content).unwrap();
    }

    #[test]
    fn string_literals_no_longer_trip_the_kernel_scan() {
        // The regression the tokenizer port fixes: a forbidden name inside
        // a string or raw string used to be flagged by the line scan.
        let root = std::env::temp_dir().join("aero_source_lint_strings");
        let _ = fs::remove_dir_all(&root);
        write(
            &root.join("crates/vision/src/names.rs"),
            "const ORACLE: &str = \"ReferenceBackend\";\n\
             const DOC: &str = r#\"call ReferenceBackend for the oracle\"#;\n\
             fn describe(x: &Tensor) { let _ = x; /* ReferenceBackend */ }\n",
        );
        let report = lint_backend_callsites(&root);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.diagnostics().len(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flags_concrete_backend_use_outside_the_tensor_crate() {
        let root = std::env::temp_dir().join("aero_backend_lint_fixture");
        let _ = fs::remove_dir_all(&root);
        write(
            &root.join("crates/nn/src/linear.rs"),
            "fn f(a: &[f32], b: &[f32], out: &mut [f32]) {\n    \
             BlockedBackend.matmul_slab(a, b, 4, 4, out)\n}\n",
        );
        write(
            &root.join("crates/tensor/src/backend.rs"),
            "pub struct ReferenceBackend;\npub struct BlockedBackend;\n",
        );
        // Policy selection is the sanctioned surface: never flagged.
        write(
            &root.join("crates/serve/src/runtime.rs"),
            "fn g() {\n    aero_tensor::backend::set_global_backend(BackendKind::Blocked);\n}\n\
             // BlockedBackend may appear in comments\n\
             const DOC: &str = \"ReferenceBackend is the oracle\";\n",
        );
        write(
            &root.join("crates/nn/tests/equiv.rs"),
            "fn oracle() { ReferenceBackend.softmax_slab(&mut [], 0); }\n",
        );
        let report = lint_backend_callsites(&root);
        assert_eq!(report.error_count(), 2, "{}", report.render());
        assert!(report.has_code(DiagCode::BackendBypass));
        for d in report.diagnostics() {
            assert!(d.site.contains("linear.rs:2"), "unexpected site {}", d.site);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_is_clean() {
        let report = lint_backend_callsites(Path::new("/nonexistent/aero_source_lint_nowhere"));
        assert!(report.is_clean());
        assert_eq!(report.diagnostics().len(), 0);
        let report = lint_panicking_callsites(Path::new("/nonexistent/aero_source_lint_nowhere"));
        assert!(report.is_clean());
        let report = lint_source_all(Path::new("/nonexistent/aero_source_lint_nowhere"));
        assert!(report.is_clean());
    }

    #[test]
    fn flags_panicking_kernels_in_serving_crates_only() {
        let root = std::env::temp_dir().join("aero_panicking_lint_fixture");
        let _ = fs::remove_dir_all(&root);
        write(
            &root.join("crates/serve/src/worker.rs"),
            "fn f(a: &Tensor, b: &Tensor) -> Tensor {\n    a.matmul(b)\n}\n",
        );
        write(
            &root.join("crates/core/src/pipeline.rs"),
            "fn g(x: &Tensor) -> Result<Tensor> {\n    x.try_softmax_last_axis()\n}\n\
             // a comment may mention .bmm( freely\n\
             const HELP: &str = \"call .conv2d( with a square kernel\";\n\
             #[cfg(test)]\nmod tests {\n    fn t(x: &Tensor) { x.bmm(x); }\n}\n",
        );
        // Model crates keep the panicking convention; only serving
        // crates are in scope.
        write(
            &root.join("crates/nn/src/layers.rs"),
            "fn h(a: &Tensor, b: &Tensor) -> Tensor { a.matmul(b) }\n",
        );
        let report = lint_panicking_callsites(&root);
        assert_eq!(report.error_count(), 1, "{}", report.render());
        assert!(report.has_code(DiagCode::PanickingKernelCall));
        let site = &report.diagnostics()[0].site;
        assert!(site.contains("worker.rs:2"), "unexpected site {site}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn this_workspace_routes_through_backend_dispatch() {
        // AD0112 on the real tree: no caller outside the tensor crate
        // hard-wires a concrete compute backend.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_backend_callsites(&root);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn this_workspace_serves_through_fallible_kernels() {
        // Serving crates must reach shape-checked tensor ops through
        // their `try_*` forms only (AD0111).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_panicking_callsites(&root);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn this_workspace_has_no_unprotected_worker_panics() {
        // AD0203 on the real tree must be clean: every panic site in a
        // worker closure is either fixed or behind catch_unwind.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_worker_panics(&root);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn this_workspace_determinism_crates_are_annotated() {
        // AD0202 on the real tree: the only accepted nondeterminism
        // sources carry `nondet-ok` annotations.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_nondeterminism(&root);
        assert_eq!(report.diagnostics().len(), 0, "{}", report.render());
    }
}
