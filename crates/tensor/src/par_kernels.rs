//! Deterministic sharded CPU kernels for the tensor hot path.
//!
//! Every kernel here is parallelised the same way: the **output** buffer
//! is split into disjoint, contiguous units (matmul rows, im2col blocks,
//! image planes), contiguous ranges of units are handed to scoped std
//! threads, and each range is produced by a [`crate::backend`]
//! implementation whose per-element accumulation order is the *identical*
//! serial reference sequence. No thread ever writes or accumulates into
//! another thread's unit, so the per-element floating-point accumulation
//! order is fixed by construction and the parallel result is
//! **bit-identical** to the serial one at any thread count *and* under
//! either backend — the property `crates/tensor/tests/par_equivalence.rs`
//! proves exhaustively and `DESIGN.md` §10/§15 document.
//!
//! This module owns *sharding and dispatch*; the per-slab compute
//! strategy lives behind the [`crate::backend::ComputeBackend`] trait
//! (the `Reference` oracle row kernels vs. the register-tiled `Blocked`
//! microkernels).
//!
//! The fan-out width comes from the ambient policy in
//! [`crate::parallel`] (`active_threads`), clamped by [`planned_threads`]:
//! a work-size floor, the machine's physical core count, and a per-thread
//! work budget, so small kernels never pay thread-spawn overhead and no
//! kernel oversubscribes the cores it actually has. The floors come from
//! a 1- vs 2-thread sweep (`DESIGN.md` §10): a kernel fans out only at
//! sizes where two threads beat one. Because sharding
//! cannot change numerics, the plan is a pure performance heuristic and
//! needs no determinism carve-out.

use crate::parallel::{active_threads, effective_cores};
use std::ops::Range;

/// Records one kernel invocation plus the number of output elements it
/// produced under `tensor.<kernel>.calls` / `tensor.<kernel>.elements`.
/// `aero_obs::counter!` caches the handle per call site, so the cost is
/// two relaxed atomic adds. Observation never feeds back into
/// computation — see the determinism note in `aero_obs`'s crate docs.
macro_rules! record_kernel {
    ($calls:literal, $elements:literal, $n:expr) => {
        aero_obs::counter!($calls).inc();
        aero_obs::counter!($elements).add($n as u64);
    };
}

/// Minimum estimated scalar-op count before a kernel fans out. Below it,
/// spawning and joining the shard threads costs more than the split
/// saves. Derived from the 1- vs 2-thread sweep in `bench_kernels`
/// (`DESIGN.md` §10) on a 2-vCPU host. At 4 Mi ops a 128³ matmul and an
/// attention-sized bmm still ran slower on two threads (medians 0.80×
/// and 0.88× over four runs); between 8 and 16 Mi the result flipped
/// from run to run (a strided 9 Mi conv lost in the median of seven);
/// every swept matmul, bmm, conv2d and softmax at 16 Mi or more won in
/// the median of seven (1.35–1.78×). The blocked matmul does the most
/// work per microsecond, so it needs the most ops before half its serial
/// time pays for a fan-out; the floor is set by it.
const PAR_WORK_THRESHOLD: usize = 16 * 1024 * 1024;

/// Once a kernel fans out, each spawned thread should own at least this
/// many estimated scalar ops — otherwise the spawn cost outweighs the
/// shard it amortises over. Not re-derived with the floor: a sweep on two
/// cores cannot tell how wide a kernel should go. At the current floor it
/// allows more threads than the 64-thread ceiling, so only the ambient
/// thread count and the physical cores clamp the width.
const PAR_WORK_PER_THREAD: usize = 128 * 1024;

/// Elementwise ops are far cheaper per element than matmul rows, so they
/// gate on element count instead. In the same sweep the elementwise
/// `add`, the cheapest op per element, lost at 256 Ki elements (0.66×)
/// and at 1 Mi (median 0.88×, single runs 0.34–1.28×), and won at 4 Mi
/// in every run (1.24–1.53×). Every costlier map or zip wins from a
/// smaller size, so the cheapest op sets the floor.
const ELEM_PAR_THRESHOLD: usize = 4 * 1024 * 1024;

/// Splits `units` work units into at most `shards` contiguous,
/// near-even ranges covering `0..units` in order. The first
/// `units % shards` ranges get one extra unit. Returns fewer ranges
/// when there are fewer units than shards; never returns an empty
/// range.
#[must_use]
pub fn shard_ranges(units: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, units.max(1));
    if units == 0 {
        return Vec::new();
    }
    let base = units / shards;
    let extra = units % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// The thread count the dispatcher would fan out over for `work`
/// estimated scalar ops: 1 below [`PAR_WORK_THRESHOLD`], otherwise the
/// ambient [`active_threads`] clamped to the machine's physical cores
/// (oversubscribing a compute-bound kernel never wins) and to one thread
/// per [`PAR_WORK_PER_THREAD`] ops.
///
/// Public as introspection for the dispatcher regression tests and
/// benchmarks; kernels call it internally.
#[must_use]
pub fn planned_threads(work: usize) -> usize {
    if work < PAR_WORK_THRESHOLD {
        return 1;
    }
    let budget = (work / PAR_WORK_PER_THREAD).max(1);
    active_threads().min(effective_cores()).min(budget).max(1)
}

/// The thread count an elementwise map or zip over `len` elements fans
/// out over: 1 below [`ELEM_PAR_THRESHOLD`], otherwise the ambient
/// [`active_threads`] clamped to the machine's physical cores. Public
/// for the same reason as [`planned_threads`].
#[must_use]
pub fn planned_elementwise_threads(len: usize) -> usize {
    if len < ELEM_PAR_THRESHOLD {
        return 1;
    }
    active_threads().min(effective_cores()).min(len)
}

/// Runs `kernel(unit_index, unit_out)` over every `unit_len`-sized chunk
/// of `out`, fanning contiguous unit ranges out over scoped threads when
/// the estimated work (`out.len() * flops_per_elem`) is large enough.
///
/// Each unit is written by exactly one thread with the same inner loop
/// the single-threaded path runs, so scheduling cannot affect a single
/// output bit.
pub(crate) fn run_units<F>(out: &mut [f32], unit_len: usize, flops_per_elem: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() || unit_len == 0 {
        return;
    }
    debug_assert_eq!(out.len() % unit_len, 0, "output must be whole units");
    let units = out.len() / unit_len;
    let threads = planned_threads(out.len().saturating_mul(flops_per_elem.max(1))).min(units);
    if threads <= 1 {
        aero_obs::counter!("tensor.dispatch.serial").inc();
        for (u, unit_out) in out.chunks_mut(unit_len).enumerate() {
            kernel(u, unit_out);
        }
        return;
    }
    aero_obs::counter!("tensor.dispatch.parallel").inc();
    std::thread::scope(|s| {
        let kernel = &kernel;
        let mut rest = out;
        for range in shard_ranges(units, threads) {
            let (chunk, tail) = rest.split_at_mut(range.len() * unit_len);
            rest = tail;
            let start = range.start;
            s.spawn(move || {
                for (off, unit_out) in chunk.chunks_mut(unit_len).enumerate() {
                    kernel(start + off, unit_out);
                }
            });
        }
    });
}

/// Runs `kernel(first_unit, slab)` over contiguous ranges of
/// `unit_len`-sized units of `out` — one call per shard (or a single
/// call covering everything on the serial path), in contrast to
/// [`run_units`]'s per-unit calls. This is the granularity the blocked
/// backend needs: a slab of whole output rows it can tile and pack
/// across.
///
/// Shards are disjoint and contiguous and the per-slab kernels preserve
/// the serial per-element accumulation order, so scheduling cannot
/// affect a single output bit.
pub(crate) fn run_slabs<F>(out: &mut [f32], unit_len: usize, flops_per_elem: usize, kernel: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() || unit_len == 0 {
        return;
    }
    debug_assert_eq!(out.len() % unit_len, 0, "output must be whole units");
    let units = out.len() / unit_len;
    let threads = planned_threads(out.len().saturating_mul(flops_per_elem.max(1))).min(units);
    if threads <= 1 {
        aero_obs::counter!("tensor.dispatch.serial").inc();
        kernel(0, out);
        return;
    }
    aero_obs::counter!("tensor.dispatch.parallel").inc();
    std::thread::scope(|s| {
        let kernel = &kernel;
        let mut rest = out;
        for range in shard_ranges(units, threads) {
            let (chunk, tail) = rest.split_at_mut(range.len() * unit_len);
            rest = tail;
            let start = range.start;
            s.spawn(move || kernel(start, chunk));
        }
    });
}

/// Splits a slab that may straddle batch boundaries into per-batch row
/// chunks: `f(batch, first_row_in_batch, rows, chunk)` for each maximal
/// run of rows belonging to one batch. `row0` is the slab's first global
/// row, `n` the row length, and `rows_per_batch` the batch height.
pub(crate) fn for_batch_chunks(
    row0: usize,
    slab: &mut [f32],
    n: usize,
    rows_per_batch: usize,
    mut f: impl FnMut(usize, usize, usize, &mut [f32]),
) {
    let mut row = row0;
    let mut rest = slab;
    while !rest.is_empty() {
        let batch = row / rows_per_batch;
        let r = row % rows_per_batch;
        let take = (rows_per_batch - r).min(rest.len() / n);
        let (chunk, tail) = rest.split_at_mut(take * n);
        f(batch, r, take, chunk);
        rest = tail;
        row += take;
    }
}

/// Fills `out` by running `fill(start_index, chunk)` over contiguous
/// chunks, one per thread. Used for elementwise map/zip where the unit
/// is a single element and per-unit dispatch would be pure overhead.
pub(crate) fn fill_chunked<F>(out: &mut [f32], fill: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    let threads = planned_elementwise_threads(out.len());
    if threads <= 1 {
        aero_obs::counter!("tensor.dispatch.serial").inc();
        fill(0, out);
        return;
    }
    aero_obs::counter!("tensor.dispatch.parallel").inc();
    std::thread::scope(|s| {
        let fill = &fill;
        let mut rest = out;
        for range in shard_ranges(rest.len(), threads) {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let start = range.start;
            s.spawn(move || fill(start, chunk));
        }
    });
}

/// Accumulates `out_row += a_row @ b` for one output row, streaming
/// through the rows of `b` in ascending `p` (the "ikj" order). This one
/// loop defines the accumulation order for *every* matmul-family kernel
/// — serial reference, parallel matmul, bmm, and the batched conv
/// matmuls all bottom out here, which is what makes them mutually
/// bit-identical.
#[inline]
pub(crate) fn matmul_row_kernel(a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let n = out_row.len();
    for (p, &av) in a_row.iter().enumerate() {
        let b_row = &b[p * n..(p + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += av * bv;
        }
    }
}

/// `[m, k] @ [k, n]` sharded over output rows, each slab computed by the
/// ambient [`crate::backend`].
pub(crate) fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    record_kernel!("tensor.matmul.calls", "tensor.matmul.elements", m * n);
    let mut out = vec![0.0f32; m * n];
    let be = crate::backend::active();
    run_slabs(&mut out, n, 2 * k, |row0, slab| {
        let rows = slab.len() / n;
        be.matmul_slab(&a[row0 * k..(row0 + rows) * k], b, k, n, slab);
    });
    out
}

/// Batched `[nb, m, k] @ [nb, k, n]` sharded over all `nb * m` output
/// rows, so small batches of large matrices and large batches of small
/// matrices both spread evenly.
pub(crate) fn bmm(a: &[f32], b: &[f32], nb: usize, m: usize, k: usize, n: usize) -> Vec<f32> {
    record_kernel!("tensor.bmm.calls", "tensor.bmm.elements", nb * m * n);
    let mut out = vec![0.0f32; nb * m * n];
    if m == 0 {
        return out;
    }
    let be = crate::backend::active();
    run_slabs(&mut out, n, 2 * k, |row0, slab| {
        for_batch_chunks(row0, slab, n, m, |batch, i, rows, chunk| {
            be.matmul_slab(
                &a[(batch * m + i) * k..][..rows * k],
                &b[batch * k * n..][..k * n],
                k,
                n,
                chunk,
            );
        });
    });
    out
}

/// `out[b] = a @ rhs[b]` with one shared left matrix `a: [rows, k]` and
/// `nb` right blocks `rhs[b]: [k, n]`, sharded over all `nb * rows`
/// output rows. This is the conv2d inner product: `a` is the reshaped
/// weight and `rhs` the im2col matrix.
pub(crate) fn batched_matmul_shared_lhs(
    a: &[f32],
    rhs: &[f32],
    nb: usize,
    rows: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    record_kernel!("tensor.conv_matmul.calls", "tensor.conv_matmul.elements", nb * rows * n);
    let mut out = vec![0.0f32; nb * rows * n];
    if rows == 0 {
        return out;
    }
    let be = crate::backend::active();
    run_slabs(&mut out, n, 2 * k, |row0, slab| {
        for_batch_chunks(row0, slab, n, rows, |batch, r, nrows, chunk| {
            be.matmul_slab(&a[r * k..][..nrows * k], &rhs[batch * k * n..][..k * n], k, n, chunk);
        });
    });
    out
}

/// Full 2-D convolution (bias applied by the caller), strategy chosen by
/// the ambient [`crate::backend`]: im2col-then-matmul on the reference
/// path, a direct tiled kernel for stride-1 1×1/3×3 on the blocked path.
pub(crate) fn conv2d(src: &[f32], weight: &[f32], g: ConvGeom, cout: usize) -> Vec<f32> {
    crate::backend::active().conv2d(src, weight, g, cout)
}

/// Numerically stable softmax over each `n`-length row of `data`,
/// sharded over rows and computed by the ambient [`crate::backend`].
pub(crate) fn softmax(data: &mut [f32], n: usize) {
    let be = crate::backend::active();
    run_slabs(data, n, 16, |_, slab| be.softmax_slab(slab, n));
}

/// Geometry of a conv2d/col2im problem, grouped so the kernels below
/// stay within sane argument counts. Public because it appears in the
/// [`crate::backend::ComputeBackend`] convolution signature; constructed
/// only by this crate's ops layer.
#[derive(Debug, Clone, Copy)]
pub struct ConvGeom {
    /// Batch size.
    pub n: usize,
    /// Channels of the *image-layout* side ([`col2im`]'s output, [`im2col`]'s input).
    pub c: usize,
    /// Image height.
    pub h: usize,
    /// Image width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Output-grid height (`conv_out_dim(h, kh, stride, pad)`).
    pub oh: usize,
    /// Output-grid width.
    pub ow: usize,
}

/// Gathers sliding patches into the `[n, c*kh*kw, oh*ow]` im2col layout,
/// sharded over `(batch, channel)` blocks — each block is a contiguous
/// `kh*kw*oh*ow` slice of the output, written by exactly one thread.
/// Pure gather (no accumulation), so sharding is trivially exact.
pub(crate) fn im2col(src: &[f32], g: ConvGeom) -> Vec<f32> {
    let col_stride = g.oh * g.ow;
    let unit = g.kh * g.kw * col_stride;
    record_kernel!("tensor.im2col.calls", "tensor.im2col.elements", g.n * g.c * unit);
    let mut out = vec![0.0f32; g.n * g.c * unit];
    run_units(&mut out, unit, 2, |bc, block| {
        im2col_block(src, g, bc / g.c, bc % g.c, block);
    });
    out
}

fn im2col_block(src: &[f32], g: ConvGeom, b: usize, ch: usize, block: &mut [f32]) {
    let col_stride = g.oh * g.ow;
    for ky in 0..g.kh {
        for kx in 0..g.kw {
            let row = (ky * g.kw + kx) * col_stride;
            for oy in 0..g.oh {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                if iy < 0 || iy >= g.h as isize {
                    continue;
                }
                for ox in 0..g.ow {
                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                    if ix < 0 || ix >= g.w as isize {
                        continue;
                    }
                    block[row + oy * g.ow + ox] =
                        src[((b * g.c + ch) * g.h + iy as usize) * g.w + ix as usize];
                }
            }
        }
    }
}

/// Scatter-adds an im2col matrix back to `[n, c, h, w]` image layout
/// (the adjoint of [`im2col`]), sharded over `(batch, channel)` output
/// planes. Every plane sums only its own channel's patch rows, visited
/// in the same `ky, kx, oy, ox` order as the serial loop, so each
/// output element sees the identical accumulation sequence regardless
/// of thread count.
pub(crate) fn col2im(src: &[f32], g: ConvGeom) -> Vec<f32> {
    let plane = g.h * g.w;
    record_kernel!("tensor.col2im.calls", "tensor.col2im.elements", g.n * g.c * plane);
    let mut out = vec![0.0f32; g.n * g.c * plane];
    run_units(&mut out, plane, 2 * g.kh * g.kw, |bc, out_plane| {
        col2im_plane(src, g, bc / g.c, bc % g.c, out_plane);
    });
    out
}

fn col2im_plane(src: &[f32], g: ConvGeom, b: usize, ch: usize, out_plane: &mut [f32]) {
    let col_stride = g.oh * g.ow;
    for ky in 0..g.kh {
        for kx in 0..g.kw {
            let row =
                ((ch * g.kh + ky) * g.kw + kx) * col_stride + b * g.c * g.kh * g.kw * col_stride;
            for oy in 0..g.oh {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                if iy < 0 || iy >= g.h as isize {
                    continue;
                }
                for ox in 0..g.ow {
                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                    if ix < 0 || ix >= g.w as isize {
                        continue;
                    }
                    out_plane[iy as usize * g.w + ix as usize] += src[row + oy * g.ow + ox];
                }
            }
        }
    }
}

/// Adds one bias value per channel plane of an `[n, cout, oh, ow]`
/// buffer, sharded over `(batch, channel)` planes.
pub(crate) fn add_channel_bias(data: &mut [f32], bias: &[f32], plane: usize) {
    let cout = bias.len();
    if cout == 0 {
        return;
    }
    run_units(data, plane, 1, |bc, chunk| {
        let bv = bias[bc % cout];
        for v in chunk {
            *v += bv;
        }
    });
}

/// Elementwise map into a fresh buffer, chunk-parallel above the
/// elementwise threshold.
pub(crate) fn map_into<F>(src: &[f32], f: F) -> Vec<f32>
where
    F: Fn(f32) -> f32 + Sync,
{
    record_kernel!("tensor.elementwise.calls", "tensor.elementwise.elements", src.len());
    let mut out = vec![0.0f32; src.len()];
    fill_chunked(&mut out, |start, chunk| {
        let len = chunk.len();
        for (o, &v) in chunk.iter_mut().zip(&src[start..start + len]) {
            *o = f(v);
        }
    });
    out
}

/// Elementwise in-place map, chunk-parallel above the elementwise
/// threshold.
pub(crate) fn map_inplace<F>(data: &mut [f32], f: F)
where
    F: Fn(f32) -> f32 + Sync,
{
    record_kernel!("tensor.elementwise.calls", "tensor.elementwise.elements", data.len());
    fill_chunked(data, |_, chunk| {
        for v in chunk {
            *v = f(*v);
        }
    });
}

/// Elementwise binary op over two same-length buffers, chunk-parallel
/// above the elementwise threshold.
pub(crate) fn zip_same<F>(a: &[f32], b: &[f32], f: F) -> Vec<f32>
where
    F: Fn(f32, f32) -> f32 + Sync,
{
    debug_assert_eq!(a.len(), b.len());
    record_kernel!("tensor.elementwise.calls", "tensor.elementwise.elements", a.len());
    let mut out = vec![0.0f32; a.len()];
    fill_chunked(&mut out, |start, chunk| {
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = f(a[start + i], b[start + i]);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{with_assumed_cores, with_threads};

    #[test]
    fn planned_threads_respects_threshold_cores_and_budget() {
        with_threads(8, || {
            with_assumed_cores(8, || {
                assert_eq!(planned_threads(PAR_WORK_THRESHOLD - 1), 1, "below the fan-out floor");
                assert_eq!(
                    planned_threads(PAR_WORK_THRESHOLD),
                    (PAR_WORK_THRESHOLD / PAR_WORK_PER_THREAD).min(8),
                    "past the floor, the per-thread budget or the ambient threads cap the width"
                );
                assert_eq!(planned_threads((8 * PAR_WORK_PER_THREAD).max(PAR_WORK_THRESHOLD)), 8);
                assert_eq!(planned_threads(usize::MAX), 8, "ambient threads cap");
            });
            with_assumed_cores(3, || {
                assert_eq!(planned_threads(usize::MAX), 3, "physical cores cap");
            });
        });
    }

    #[test]
    fn bench_conv_shape_stays_serial_on_single_core() {
        // Regression for BENCH_kernels.json: the [2,16,32,32] ⊛
        // [32,16,3,3] conv matmul used to fan out even on a one-core
        // machine, losing ~1.4× to serial. The physical-core clamp must
        // keep it serial there while still fanning out on real cores.
        let work = 2 * 32 * (32 * 32) * 2 * (16 * 3 * 3);
        with_threads(4, || {
            with_assumed_cores(1, || assert_eq!(planned_threads(work), 1));
            with_assumed_cores(4, || assert_eq!(planned_threads(work), 4));
        });
    }

    #[test]
    fn paper_unet_conv_stays_serial_while_large_matmul_fans_out() {
        // Regression for the 2-vCPU sweep (DESIGN.md §10, medians of
        // four runs). The paper UNet's largest b1 conv (32→16 3×3 on
        // 8×8, 576 Ki ops) is the size of the sweep's 16→16 n=2 conv,
        // which took 47 µs serial and 90 µs on two threads; a 512²
        // matmul took 5.7 ms serial and 3.4 ms on two. An elementwise
        // add over 1 Mi elements lost in the median, so it stays serial.
        let unet_conv_b1 = 16 * (8 * 8) * 2 * (32 * 3 * 3);
        let matmul_512 = 512 * 512 * 2 * 512;
        with_threads(2, || {
            with_assumed_cores(2, || {
                assert_eq!(planned_threads(unet_conv_b1), 1);
                assert_eq!(planned_threads(matmul_512), 2);
                assert_eq!(planned_elementwise_threads(1024 * 1024), 1);
                assert_eq!(planned_elementwise_threads(ELEM_PAR_THRESHOLD), 2);
            });
        });
    }

    #[test]
    fn run_slabs_covers_each_unit_exactly_once() {
        let mut out = vec![0.0f32; 12];
        run_slabs(&mut out, 3, usize::MAX, |first, slab| {
            for (off, unit) in slab.chunks_mut(3).enumerate() {
                for v in unit.iter_mut() {
                    *v += (first + off + 1) as f32;
                }
            }
        });
        assert_eq!(out, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn for_batch_chunks_splits_at_batch_boundaries() {
        // 3 batches of 2 rows (n = 1): a slab starting mid-batch at row
        // 1 and covering rows 1..=4 must split as [1], [2, 3], [4].
        let mut slab = vec![0.0f32; 4];
        let mut seen = Vec::new();
        for_batch_chunks(1, &mut slab, 1, 2, |batch, first, rows, chunk| {
            seen.push((batch, first, rows, chunk.len()));
        });
        assert_eq!(seen, vec![(0, 1, 1, 1), (1, 0, 2, 2), (2, 0, 1, 1)]);
    }

    #[test]
    fn shard_ranges_cover_exactly_in_order() {
        for units in [0usize, 1, 2, 7, 8, 9, 100] {
            for shards in [1usize, 2, 3, 8] {
                let ranges = shard_ranges(units, shards);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "ranges must be contiguous");
                    assert!(!r.is_empty(), "no empty shards");
                    next = r.end;
                }
                assert_eq!(next, units, "ranges must cover all units");
                assert!(ranges.len() <= shards);
            }
        }
    }

    #[test]
    fn shard_ranges_near_even() {
        let ranges = shard_ranges(10, 4);
        let lens: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }

    #[test]
    fn run_units_visits_every_unit_once() {
        let mut out = vec![0.0f32; 12];
        run_units(&mut out, 3, usize::MAX, |u, unit| {
            for v in unit.iter_mut() {
                *v += (u + 1) as f32;
            }
        });
        assert_eq!(out, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn run_units_handles_empty_and_degenerate() {
        let mut empty: Vec<f32> = Vec::new();
        run_units(&mut empty, 4, 1, |_, _| panic!("no units to visit"));
        let mut out = vec![0.0f32; 4];
        run_units(&mut out, 0, 1, |_, _| panic!("zero-length units are skipped"));
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn matmul_small_known_values() {
        // [[1,2,3],[4,5,6]] @ [[7,8],[9,10],[11,12]]
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        for t in 1..=4 {
            let out = with_threads(t, || matmul(&a, &b, 2, 3, 2));
            assert_eq!(out, vec![58.0, 64.0, 139.0, 154.0], "threads={t}");
        }
    }

    #[test]
    fn kernels_report_to_global_registry() {
        let snap = |name: &str| aero_obs::global().snapshot().counter(name).unwrap_or(0);
        let (calls, elems, serial) = (
            snap("tensor.matmul.calls"),
            snap("tensor.matmul.elements"),
            snap("tensor.dispatch.serial"),
        );
        let out = matmul(&[1.0, 2.0], &[3.0, 4.0], 1, 2, 1);
        assert_eq!(out, vec![11.0]);
        // Counters are process-global and other tests run concurrently,
        // so assert monotone growth, not exact deltas.
        assert!(snap("tensor.matmul.calls") > calls);
        assert!(snap("tensor.matmul.elements") > elems);
        assert!(snap("tensor.dispatch.serial") > serial);
    }

    #[test]
    fn fill_chunked_covers_with_correct_offsets() {
        let mut out = vec![0.0f32; 1000];
        fill_chunked(&mut out, |start, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (start + i) as f32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }
}
