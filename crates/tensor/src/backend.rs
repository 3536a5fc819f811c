//! Pluggable compute backends for the dense kernel hot path.
//!
//! [`crate::par_kernels`] owns *sharding* (how output rows are split over
//! threads); this module owns *how each shard is computed*. A
//! [`ComputeBackend`] receives a contiguous slab of output rows plus the
//! operands and fills it in. Two implementations ship:
//!
//! * **`Reference`** — the original straight-line row kernels, quarantined
//!   as the oracle the equivalence suite compares against.
//! * **`Blocked`** — register-tiled, cache-blocked microkernels: a packed
//!   [`MR`]×[`NR`] matmul tile with [`KC`]-deep k-panels, a direct
//!   im2col-free conv2d for stride-1 1×1/3×3 kernels, and a blocked
//!   q8×f32 matmul riding the same tiles.
//!
//! # Determinism argument
//!
//! Every kernel in this crate promises the *bit-identical* result of the
//! serial "ikj" reference loop: each output element `out[i][j]` is the
//! sum `Σ_p a[i][p] * b[p][j]` accumulated with `p` strictly ascending,
//! one `mul` + one `add` per term. The blocked backend preserves exactly
//! that per-element sequence:
//!
//! * Tiling over `i` and `j` only regroups *independent* output elements;
//!   it never touches the order of terms within one element.
//! * Within a tile, the microkernel loops `p` ascending and keeps one
//!   scalar accumulator lane per element, so each lane performs the same
//!   `acc += a*b` chain the reference does. Rust never contracts
//!   `mul`+`add` into a fused FMA, so autovectorization cannot change a
//!   single rounding.
//! * Blocking over `k` processes [`KC`]-deep panels in ascending order and
//!   spills/reloads the `f32` accumulator through the output buffer
//!   between panels — an exact value round-trip.
//! * The direct convolution visits `(cin, ky, kx)` in exactly the im2col
//!   row order and contributes an explicit `w * 0.0` term for every
//!   padded tap, so even non-finite weights propagate identically to the
//!   im2col-then-matmul reference.
//!
//! # Selection
//!
//! The active backend resolves like the thread policy in
//! [`crate::parallel`]: thread-local override ([`with_backend`], or
//! [`crate::parallel::adopt_thread_policy`] on serving workers), then
//! the process-global default ([`set_global_backend`], the CLI's
//! `--backend` flag), then the `AERO_BACKEND` environment variable, and
//! finally [`BackendKind::Blocked`]. Because both backends are bitwise
//! equal, the choice is a pure performance knob and — deliberately — is
//! **never persisted** in checkpoints or model artifacts.

use crate::par_kernels::{self, ConvGeom};
use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Rows per matmul register tile (accumulator height).
pub const MR: usize = 4;
/// Columns per matmul register tile (accumulator width; two 16-lane
/// vectors on AVX-512, four 8-lane vectors on AVX2 — wide enough that
/// the `MR × NR` accumulator block keeps eight independent add chains
/// in flight).
pub const NR: usize = 32;
/// Depth of one k-panel: the `NR`-wide B tile for one panel is
/// `KC * NR` floats (32 KiB) and stays L1/L2-resident while every row
/// block streams past it.
pub const KC: usize = 256;
/// Output-channel block of the direct convolution microkernel.
const CO_B: usize = 4;
/// Output-column tile width of the direct convolution microkernel; with
/// [`CO_B`] rows the accumulator block matches the matmul microkernel's
/// register budget.
const OW_T: usize = 32;

/// Which compute backend the dense kernels run on. Purely a performance
/// knob: both backends are bit-identical on every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The original straight-line row kernels — the equivalence oracle.
    Reference,
    /// Register-tiled, cache-blocked microkernels (the default).
    Blocked,
}

impl BackendKind {
    /// Every selectable backend, in oracle-first order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Blocked];

    /// Stable lower-case name (`"reference"` / `"blocked"`), accepted
    /// back by [`FromStr`](std::str::FromStr) and the CLI `--backend`
    /// flag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Blocked => "blocked",
        }
    }

    fn encode(self) -> u8 {
        match self {
            BackendKind::Reference => 1,
            BackendKind::Blocked => 2,
        }
    }

    fn decode(v: u8) -> Option<BackendKind> {
        match v {
            1 => Some(BackendKind::Reference),
            2 => Some(BackendKind::Blocked),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" => Ok(BackendKind::Reference),
            "blocked" => Ok(BackendKind::Blocked),
            other => Err(format!("unknown backend '{other}' (expected 'reference' or 'blocked')")),
        }
    }
}

/// Per-shard compute strategy for the dense kernels.
///
/// The sharding layer hands every implementation the same contiguous
/// output slabs, so a backend only decides *how* a slab is filled — and
/// every implementation must produce the bit-identical result of the
/// serial ikj reference (see the module docs for why the blocked tiles
/// satisfy this).
///
/// Callers never hold a backend directly: dispatch goes through
/// [`crate::par_kernels`], which resolves the ambient choice per kernel
/// call. `aero-analysis` flags concrete backend references outside this
/// crate (diagnostic `AD0112`).
pub trait ComputeBackend: Sync {
    /// Which [`BackendKind`] this implementation is.
    fn kind(&self) -> BackendKind;

    /// Fills `out` (a slab of `out.len() / n` rows) with
    /// `a[rows, k] @ b[k, n]`, accumulating each element over ascending
    /// `p`. `a` holds exactly the slab's rows; `out` arrives zeroed.
    fn matmul_slab(&self, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]);

    /// Q8 variant of [`ComputeBackend::matmul_slab`]: the left rows are
    /// q8 blocks (`bpr` blocks per row, see [`crate::quant`]),
    /// dequantized on the fly as `scale * f32::from(q)` inside the same
    /// ascending-`p` order.
    #[allow(clippy::too_many_arguments)]
    fn q8_matmul_slab(
        &self,
        scales: &[f32],
        quants: &[i8],
        bpr: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    );

    /// Numerically stable softmax over each `n`-length row of `rows`,
    /// fused into one sweep per pass (max fold, exp+sum, normalize) with
    /// the reference's exact reduction order.
    fn softmax_slab(&self, rows: &mut [f32], n: usize);

    /// Full (bias-free) convolution `[n, cin, h, w] ⊛ [cout, cin, kh, kw]
    /// -> [n, cout, oh, ow]`, sharding internally via
    /// [`crate::par_kernels`]. The default is the im2col-then-matmul
    /// strategy; backends may override with a direct path as long as the
    /// per-element term order matches im2col exactly.
    fn conv2d(&self, src: &[f32], weight: &[f32], g: ConvGeom, cout: usize) -> Vec<f32> {
        conv2d_im2col(src, weight, g, cout)
    }
}

/// The shared im2col-then-matmul convolution strategy: gather patches,
/// then one batched matmul against the reshaped weight. The inner matmul
/// re-dispatches through [`crate::par_kernels`], which resolves back to
/// the ambient backend (always the caller, since backends are only
/// reached through dispatch).
fn conv2d_im2col(src: &[f32], weight: &[f32], g: ConvGeom, cout: usize) -> Vec<f32> {
    let cols = par_kernels::im2col(src, g);
    par_kernels::batched_matmul_shared_lhs(weight, &cols, g.n, cout, g.c * g.kh * g.kw, g.oh * g.ow)
}

// ---------------------------------------------------------------------------
// Reference backend: the quarantined serial row kernels.
// ---------------------------------------------------------------------------

/// The oracle backend: per-row straight-line loops, one output row at a
/// time, exactly as the pre-backend kernels computed them.
struct ReferenceBackend;

impl ComputeBackend for ReferenceBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Reference
    }

    fn matmul_slab(&self, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            par_kernels::matmul_row_kernel(&a[i * k..(i + 1) * k], b, out_row);
        }
    }

    fn q8_matmul_slab(
        &self,
        scales: &[f32],
        quants: &[i8],
        bpr: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let qb = crate::quant::Q8_BLOCK;
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            crate::quant::q8_row_kernel(
                &scales[i * bpr..(i + 1) * bpr],
                &quants[i * bpr * qb..(i + 1) * bpr * qb],
                k,
                b,
                out_row,
            );
        }
    }

    fn softmax_slab(&self, rows: &mut [f32], n: usize) {
        for row in rows.chunks_mut(n) {
            softmax_row_kernel(row);
        }
    }
}

/// One fused softmax sweep over a row: sequential max fold, exp+sum
/// pass, then an in-place division by the sum. Both backends share this
/// exact kernel — the reduction order (left-to-right `f32::max` fold,
/// left-to-right sum, per-element division rather than a reciprocal
/// multiply) is part of the bitwise contract and must not be reordered.
#[inline]
pub(crate) fn softmax_row_kernel(row: &mut [f32]) {
    let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - mx).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

// ---------------------------------------------------------------------------
// Blocked backend: packed register tiles and a direct convolution.
// ---------------------------------------------------------------------------

/// Register-tiled cache-blocked backend. See the module docs for the
/// tiling scheme and the determinism argument.
struct BlockedBackend;

impl ComputeBackend for BlockedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Blocked
    }

    fn matmul_slab(&self, a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
        blocked_matmul_slab(
            |i, panel, kk, kc| pack_a_panel(a, i, k, kk, kc, panel),
            a,
            b,
            k,
            n,
            out,
        );
    }

    fn q8_matmul_slab(
        &self,
        scales: &[f32],
        quants: &[i8],
        bpr: usize,
        k: usize,
        b: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let qb = crate::quant::Q8_BLOCK;
        let rows = out.len() / n;
        if n < NR || rows < MR {
            // Tiles cannot fill; the per-row oracle loop is already optimal.
            ReferenceBackend.q8_matmul_slab(scales, quants, bpr, k, b, n, out);
            return;
        }
        // Dequantize the A panel while packing: the packed value is the
        // exact `scale * f32::from(q)` the row kernel would form, so the
        // per-element multiply/add sequence is unchanged.
        let pack = |i: usize, panel: &mut [f32], kk: usize, kc: usize| {
            for r in 0..MR {
                let row = i + r;
                let s = &scales[row * bpr..(row + 1) * bpr];
                let q = &quants[row * bpr * qb..(row + 1) * bpr * qb];
                for p in 0..kc {
                    let col = kk + p;
                    panel[p * MR + r] = s[col / qb] * f32::from(q[col]);
                }
            }
        };
        let row_tail = |row: usize, out_row: &mut [f32]| {
            crate::quant::q8_row_kernel(
                &scales[row * bpr..(row + 1) * bpr],
                &quants[row * bpr * qb..(row + 1) * bpr * qb],
                k,
                b,
                out_row,
            );
        };
        blocked_tiles(pack, row_tail, b, k, n, out);
    }

    fn softmax_slab(&self, rows: &mut [f32], n: usize) {
        for row in rows.chunks_mut(n) {
            softmax_row_kernel(row);
        }
    }

    fn conv2d(&self, src: &[f32], weight: &[f32], g: ConvGeom, cout: usize) -> Vec<f32> {
        let direct = g.stride == 1 && g.kh == g.kw && (g.kh == 1 || g.kh == 3);
        if !direct {
            return conv2d_im2col(src, weight, g, cout);
        }
        let plane = g.oh * g.ow;
        let mut out = vec![0.0f32; g.n * cout * plane];
        if cout == 0 {
            return out;
        }
        par_kernels::run_slabs(&mut out, plane, 2 * g.c * g.kh * g.kw, |plane0, slab| {
            // Per-slab staging of the current batch's zero-padded input
            // planes: every tap of the microkernel then reads a
            // contiguous row, and the explicit zeros keep the padded
            // taps' `w * 0.0` terms (see `stage_padded_planes`).
            let mut padded = vec![0.0f32; g.c * (g.h + 2 * g.pad) * (g.w + 2 * g.pad)];
            let mut staged = usize::MAX;
            par_kernels::for_batch_chunks(plane0, slab, plane, cout, |batch, co0, ncos, chunk| {
                if staged != batch {
                    stage_padded_planes(src, g, batch, &mut padded);
                    staged = batch;
                }
                let mut co = 0;
                while co < ncos {
                    let cb = (ncos - co).min(CO_B);
                    direct_conv_block(
                        &padded,
                        weight,
                        g,
                        co0 + co,
                        cb,
                        &mut chunk[co * plane..(co + cb) * plane],
                    );
                    co += cb;
                }
            });
        });
        out
    }
}

/// Dense packer: `panel[p * MR + r] = a[(i + r) * k + kk + p]`.
#[inline]
fn pack_a_panel(a: &[f32], i: usize, k: usize, kk: usize, kc: usize, panel: &mut [f32]) {
    for r in 0..MR {
        let a_row = &a[(i + r) * k + kk..][..kc];
        for (p, &v) in a_row.iter().enumerate() {
            panel[p * MR + r] = v;
        }
    }
}

/// Dense blocked slab: full-width rows fall back to the reference row
/// kernel when tiles cannot fill.
fn blocked_matmul_slab(
    pack: impl Fn(usize, &mut [f32], usize, usize),
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let rows = out.len() / n;
    if n < NR || rows < MR {
        ReferenceBackend.matmul_slab(a, b, k, n, out);
        return;
    }
    let row_tail = |row: usize, out_row: &mut [f32]| {
        par_kernels::matmul_row_kernel(&a[row * k..(row + 1) * k], b, out_row);
    };
    blocked_tiles(pack, row_tail, b, k, n, out);
}

/// The shared tiling driver: walks `KC`-deep k-panels outermost, packing
/// *every* `MR`-row A block for the panel up front, then sweeps `NR`-wide
/// column tiles with the row blocks innermost — so each `KC`×`NR` B tile
/// is loaded once per panel and stays cache-resident while all packed
/// rows stream past it. Tail rows run `row_tail` (the reference row loop)
/// and tail columns run the scalar column loop — both visit `p` in the
/// identical ascending order, so every element of `out` sees the
/// reference accumulation sequence regardless of which path produced it.
fn blocked_tiles(
    pack: impl Fn(usize, &mut [f32], usize, usize),
    row_tail: impl Fn(usize, &mut [f32]),
    b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let rows = out.len() / n;
    let full_rows = rows - rows % MR;
    let full_cols = n - n % NR;
    let mut apack = vec![0.0f32; full_rows * KC.min(k)];
    let mut bpack = vec![0.0f32; KC.min(k) * NR];
    let mut kk = 0;
    while kk < k {
        let kc = (k - kk).min(KC);
        for ib in 0..full_rows / MR {
            pack(ib * MR, &mut apack[ib * kc * MR..][..kc * MR], kk, kc);
        }
        let b_panel = &b[kk * n..(kk + kc) * n];
        let first = kk == 0;
        let mut j = 0;
        while j < full_cols {
            // Pack the NR-wide B tile contiguous once per panel; every
            // row block then streams it with sequential loads.
            for p in 0..kc {
                bpack[p * NR..][..NR].copy_from_slice(&b_panel[p * n + j..][..NR]);
            }
            let mut i = 0;
            while i < full_rows {
                let panel = &apack[(i / MR) * kc * MR..][..kc * MR];
                micro_tile(panel, &bpack[..kc * NR], n, j, first, &mut out[i * n..]);
                i += MR;
            }
            j += NR;
        }
        if full_cols < n {
            // Column tail: scalar sweep over the leftover columns of
            // every packed row block, p ascending.
            let mut i = 0;
            while i < full_rows {
                let panel = &apack[(i / MR) * kc * MR..][..kc * MR];
                for r in 0..MR {
                    let out_row = &mut out[(i + r) * n..][..n];
                    for p in 0..kc {
                        let av = panel[p * MR + r];
                        let b_row = &b_panel[p * n..][..n];
                        for c in full_cols..n {
                            out_row[c] += av * b_row[c];
                        }
                    }
                }
                i += MR;
            }
        }
        kk += kc;
    }
    for row in full_rows..rows {
        row_tail(row, &mut out[row * n..(row + 1) * n]);
    }
    // k == 0 never enters the panel loop, leaving the zeroed slab — the
    // empty sum, exactly as the reference row kernel computes it.
}

/// The `MR`×`NR` register microkernel for one k-panel. Accumulators live
/// in a fixed-size stack tile (so the compiler keeps them in vector
/// registers) and both operands arrive packed contiguous; panels after
/// the first reload the partial sums from `out` — an exact `f32`
/// round-trip that preserves the accumulation chain.
#[inline]
fn micro_tile(panel: &[f32], bpack: &[f32], n: usize, j: usize, first: bool, out_rows: &mut [f32]) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, lane) in acc.iter_mut().enumerate() {
            lane.copy_from_slice(&out_rows[r * n + j..][..NR]);
        }
    }
    for (b_vec, a_vec) in bpack.chunks_exact(NR).zip(panel.chunks_exact(MR)) {
        let mut b_reg = [0.0f32; NR];
        b_reg.copy_from_slice(b_vec);
        for (r, lane) in acc.iter_mut().enumerate() {
            let av = a_vec[r];
            for (o, &bv) in lane.iter_mut().zip(&b_reg) {
                *o += av * bv;
            }
        }
    }
    for (r, lane) in acc.iter().enumerate() {
        out_rows[r * n + j..][..NR].copy_from_slice(lane);
    }
}

/// Stages one batch's input channels into zero-padded planes
/// (`[c, h + 2*pad, w + 2*pad]`), so every tap of the direct microkernel
/// reads a contiguous row slice with no bounds logic. The explicit zeros
/// are load-bearing for bitwise equality: a padded tap must contribute
/// the same `w * 0.0` term the im2col reference materialises, so
/// non-finite weights poison the border identically.
fn stage_padded_planes(src: &[f32], g: ConvGeom, batch: usize, padded: &mut [f32]) {
    let (ph, pw) = (g.h + 2 * g.pad, g.w + 2 * g.pad);
    padded.fill(0.0);
    for cin in 0..g.c {
        for y in 0..g.h {
            let row = &src[((batch * g.c + cin) * g.h + y) * g.w..][..g.w];
            padded[(cin * ph + y + g.pad) * pw + g.pad..][..g.w].copy_from_slice(row);
        }
    }
}

/// Direct (im2col-free) convolution of one `co0..co0+cb` output-channel
/// block over one staged batch. Packs the block's weights tap-major
/// (one contiguous `CO_B`-vector per tap, mirroring the matmul A panel),
/// then sweeps width-specialised register tiles across each output row —
/// the const tile widths are what let the compiler fully unroll the
/// accumulator lanes. Every tile visits `(cin, ky, kx)` in exactly the
/// im2col row order.
fn direct_conv_block(
    padded: &[f32],
    weight: &[f32],
    g: ConvGeom,
    co0: usize,
    cb: usize,
    out_block: &mut [f32],
) {
    let taps = g.c * g.kh * g.kw;
    let mut wpack = vec![0.0f32; taps * CO_B];
    for r in 0..cb {
        for (t, &w) in weight[(co0 + r) * taps..][..taps].iter().enumerate() {
            wpack[t * CO_B + r] = w;
        }
    }
    for oy in 0..g.oh {
        let mut ox0 = 0;
        while ox0 < g.ow {
            let left = g.ow - ox0;
            if left >= OW_T {
                conv_tile::<OW_T>(padded, &wpack, g, cb, oy, ox0, out_block);
                ox0 += OW_T;
            } else if left >= 16 {
                conv_tile::<16>(padded, &wpack, g, cb, oy, ox0, out_block);
                ox0 += 16;
            } else if left >= 8 {
                conv_tile::<8>(padded, &wpack, g, cb, oy, ox0, out_block);
                ox0 += 8;
            } else if left >= 4 {
                conv_tile::<4>(padded, &wpack, g, cb, oy, ox0, out_block);
                ox0 += 4;
            } else {
                conv_tile::<1>(padded, &wpack, g, cb, oy, ox0, out_block);
                ox0 += 1;
            }
        }
    }
}

/// One `TW`-wide × `cb`-channel register tile of the direct convolution:
/// for each tap, one contiguous `TW`-float load from the padded plane and
/// one packed `CO_B`-float weight load feed the `CO_B × TW` accumulator
/// block. `TW` is a const so the lane loops fully unroll.
#[inline]
fn conv_tile<const TW: usize>(
    padded: &[f32],
    wpack: &[f32],
    g: ConvGeom,
    cb: usize,
    oy: usize,
    ox0: usize,
    out_block: &mut [f32],
) {
    let plane = g.oh * g.ow;
    let (ph, pw) = (g.h + 2 * g.pad, g.w + 2 * g.pad);
    let mut acc = [[0.0f32; TW]; CO_B];
    let mut wv = wpack.chunks_exact(CO_B);
    for cin in 0..g.c {
        for ky in 0..g.kh {
            let row = &padded[(cin * ph + oy + ky) * pw + ox0..];
            for kx in 0..g.kw {
                let xrow = &row[kx..][..TW];
                let w = wv.next().expect("one packed weight vector per tap");
                for (r, lane) in acc.iter_mut().enumerate().take(cb) {
                    let wr = w[r];
                    for (o, &x) in lane.iter_mut().zip(xrow) {
                        *o += wr * x;
                    }
                }
            }
        }
    }
    for (r, lane) in acc.iter().enumerate().take(cb) {
        out_block[r * plane + oy * g.ow + ox0..][..TW].copy_from_slice(lane);
    }
}

// ---------------------------------------------------------------------------
// Ambient selection (mirrors crate::parallel's thread policy).
// ---------------------------------------------------------------------------

static REFERENCE: ReferenceBackend = ReferenceBackend;
static BLOCKED: BlockedBackend = BlockedBackend;

static GLOBAL_BACKEND: AtomicU8 = AtomicU8::new(0);

thread_local! {
    static LOCAL_BACKEND: Cell<u8> = const { Cell::new(0) };
}

fn env_default_backend() -> BackendKind {
    static DEFAULT: OnceLock<BackendKind> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("AERO_BACKEND")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(BackendKind::Blocked)
    })
}

/// The backend kernels on the current thread dispatch to.
///
/// Resolution order: thread-local override ([`with_backend`] /
/// [`crate::parallel::adopt_thread_policy`]), then the process-global
/// default ([`set_global_backend`]), then `AERO_BACKEND` (read once),
/// then [`BackendKind::Blocked`].
#[must_use]
pub fn active_backend() -> BackendKind {
    let local = LOCAL_BACKEND.with(Cell::get);
    if let Some(kind) = BackendKind::decode(local) {
        return kind;
    }
    let global = GLOBAL_BACKEND.load(Ordering::Relaxed);
    if let Some(kind) = BackendKind::decode(global) {
        return kind;
    }
    env_default_backend()
}

/// Sets the process-global backend (the CLI's `--backend` flag).
/// Thread-local overrides still win on their threads.
pub fn set_global_backend(kind: BackendKind) {
    GLOBAL_BACKEND.store(kind.encode(), Ordering::Relaxed);
}

/// Installs `kind` as the current thread's backend for the rest of the
/// thread's lifetime (the serving-worker path; see
/// [`crate::parallel::adopt_thread_policy`]).
pub(crate) fn adopt_backend(kind: BackendKind) {
    LOCAL_BACKEND.with(|c| c.set(kind.encode()));
}

/// Runs `f` with the current thread's backend temporarily set to `kind`,
/// restoring the previous choice on exit — including on panic.
pub fn with_backend<R>(kind: BackendKind, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_BACKEND.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_BACKEND.with(|c| {
        let p = c.get();
        c.set(kind.encode());
        p
    });
    let _restore = Restore(prev);
    f()
}

/// The trait object for the currently active backend. Dispatch-layer
/// internal: kernels resolve this per call, so a scoped [`with_backend`]
/// or an adopted snapshot policy takes effect immediately.
pub(crate) fn active() -> &'static dyn ComputeBackend {
    match active_backend() {
        BackendKind::Reference => &REFERENCE,
        BackendKind::Blocked => &BLOCKED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn ref_matmul(a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * n];
        ReferenceBackend.matmul_slab(a, b, k, n, &mut out);
        out
    }

    #[test]
    fn kind_round_trips_through_str() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.as_str().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!("REF".parse::<BackendKind>().unwrap(), BackendKind::Reference);
        assert!("simd".parse::<BackendKind>().is_err());
    }

    #[test]
    fn with_backend_scopes_and_restores() {
        let outer = active_backend();
        let inner = with_backend(BackendKind::Reference, || {
            assert_eq!(active_backend(), BackendKind::Reference);
            with_backend(BackendKind::Blocked, active_backend)
        });
        assert_eq!(inner, BackendKind::Blocked);
        assert_eq!(active_backend(), outer);
    }

    #[test]
    fn with_backend_restores_after_panic() {
        let outer = active_backend();
        let caught = std::panic::catch_unwind(|| {
            with_backend(BackendKind::Reference, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active_backend(), outer);
    }

    #[test]
    fn blocked_slab_matches_reference_at_tile_boundaries() {
        // Dims straddling MR/NR/KC: ±1 of each tile edge plus degenerate
        // single row/col and k = 0.
        let dims = [1usize, 3, 4, 5, 31, 32, 33];
        let ks = [0usize, 1, 7, KC - 1, KC, KC + 1];
        for &rows in &dims {
            for &n in &dims {
                for &k in &ks {
                    let a: Vec<f32> =
                        (0..rows * k).map(|v| (v as f32).mul_add(0.37, -3.0).sin()).collect();
                    let b: Vec<f32> =
                        (0..k * n).map(|v| (v as f32).mul_add(0.23, 1.0).cos()).collect();
                    let want = ref_matmul(&a, &b, rows, k, n);
                    let mut got = vec![0.0f32; rows * n];
                    BlockedBackend.matmul_slab(&a, &b, k, n, &mut got);
                    assert_eq!(bits(&got), bits(&want), "rows={rows} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn blocked_softmax_matches_reference() {
        let mut a: Vec<f32> = (0..96).map(|v| ((v * 37) % 17) as f32 - 8.0).collect();
        let mut b = a.clone();
        ReferenceBackend.softmax_slab(&mut a, 12);
        BlockedBackend.softmax_slab(&mut b, 12);
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn direct_conv_handles_nonfinite_weights_at_padding() {
        // An infinite weight must poison padded border outputs in both
        // backends identically: im2col materialises the padding zeros
        // and multiplies them by the weight (`Inf * 0.0 = NaN`), so the
        // direct path has to form the same explicit zero terms instead
        // of skipping out-of-bounds taps. Interior outputs see only
        // `Inf * positive` terms and stay `+Inf` — which is what makes
        // this an actual probe of the padding terms.
        let g = ConvGeom { n: 1, c: 1, h: 5, w: 5, kh: 3, kw: 3, stride: 1, pad: 1, oh: 5, ow: 5 };
        let src: Vec<f32> = (0..25).map(|v| v as f32 * 0.5 + 1.0).collect();
        let mut weight = vec![1.0f32; 9];
        weight[0] = f32::INFINITY;
        // The im2col path's inner matmul re-dispatches through the
        // ambient backend, so pin it to the oracle for the reference run.
        let want =
            with_backend(BackendKind::Reference, || ReferenceBackend.conv2d(&src, &weight, g, 1));
        let got = BlockedBackend.conv2d(&src, &weight, g, 1);
        assert!(want[0].is_nan(), "padded corner must see Inf * 0.0");
        assert!(want[12].is_infinite(), "interior must stay infinite, not NaN");
        assert_eq!(bits(&got), bits(&want));
    }
}
