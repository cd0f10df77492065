//! Cache-blocked, register-tiled matrix-product kernels.
//!
//! All three public products on [`crate::Matrix`] (`NN`, `TᴺN`, `NTᵀ`) lower
//! to one row-major GEMM core, [`gemm_nn`], which dispatches by size: large
//! products go through the packed-panel GEBP core in [`crate::packed`]
//! (cache-blocked, runtime-tuned — see that module), small ones stay on the
//! direct kernel in this module. The direct core tiles the output into
//! [`MR`]`×`[`NR`] register blocks: each block's accumulators live in vector
//! registers across the entire reduction (the row and lane loops have
//! constant trip counts, so the compiler fully unrolls them and promotes the
//! accumulator array out of memory), and every loaded `B` vector is reused
//! by all [`MR`] rows of the block. Against the naive triple loop this
//! removes the per-step output reload/store and cuts `B` traffic by `MR`×.
//!
//! Every tile runs at full size. A narrow `B` edge (`n % NR` columns — all
//! of `B` for a ≤15-class classifier) is copied into a zero-padded panel in
//! grow-only per-thread scratch, and a remainder slab (`m % MR` rows)
//! repeats its last row; the padding lanes and rows are computed and never
//! stored.
//!
//! Determinism: every output element accumulates its `k` terms in strictly
//! ascending order, and output rows are partitioned disjointly across
//! threads, so results are byte-identical run to run and for any thread
//! count. On FMA targets each product is rounded once (fused
//! multiply-add), so results differ from the two-rounding naive reference
//! only at the last-ulp level — and are slightly *more* accurate.
//!
//! Threading: on multi-core hosts, products above [`PARALLEL_FLOP_THRESHOLD`]
//! multiply-adds split the output rows across the persistent worker pool
//! ([`crate::pool`]) — parked threads woken per job instead of a fresh
//! spawn per product. Each chunk owns a disjoint `&mut` slice of the output
//! buffer, handed off through a once-claimable slot, and chunk boundaries
//! depend only on the requested worker count, so results are byte-identical
//! at any pool size.

use std::cell::RefCell;
use std::sync::Mutex;

/// Rows per register block. Tuned empirically on the AVX-512 host this
/// repo is benchmarked on: 8×16 accumulators occupy sixteen 256-bit
/// registers (one 512-bit register per row), leaving headroom for the `B`
/// vectors and broadcasts; larger blocks spill and run slower.
const MR: usize = 8;

/// Columns per register block.
const NR: usize = 16;

/// Minimum multiply-add count before the row-parallel path is worth the
/// dispatch overhead. Historically set against the ~10 µs/thread cost of a
/// fresh `thread::scope` spawn; the pooled wake is far cheaper, but the
/// threshold also guards the cache-sharing cost of splitting a product that
/// one core's private caches could serve, so it stays. Shared with the
/// batch entry in `packed.rs`, which gates its per-item fan-out on the
/// batch's *total* multiply-adds.
pub(crate) const PARALLEL_FLOP_THRESHOLD: usize = 1 << 22;

/// One multiply-accumulate step.
///
/// On targets with hardware FMA (guaranteed by the workspace's
/// `-C target-cpu=native` in `.cargo/config.toml` on x86-64) this fuses into
/// a single instruction with one rounding, which both doubles arithmetic
/// throughput and improves accuracy. The `cfg!` folds at compile time, so
/// non-FMA targets keep the plain multiply-add instead of calling the slow
/// `fmaf` soft-float routine.
#[inline(always)]
fn mac(acc: f32, s: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        s.mul_add(b, acc)
    } else {
        acc + s * b
    }
}

thread_local! {
    /// Grow-only scratch for the zero-padded edge panel of the thread
    /// dispatching a direct product (see [`BPanels`]); pool workers read it
    /// shared.
    static EDGE_PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// `out[i][j] += Σ_k a[i][k] · b[k][j]` for row-major `a` (`m×k`), `b`
/// (`k×n`) and zero-initialised `out` (`m×n`).
///
/// Dispatch: products at or above [`crate::packed::PACKED_FLOP_THRESHOLD`]
/// multiply-adds route through the packed-panel GEBP core
/// ([`crate::packed`]), which repacks both operands into cache-blocked
/// panels; smaller products keep the direct kernel below, whose dispatch
/// cost is one branch. Both paths accumulate every output element in
/// strictly ascending `k` order, so the choice never changes a single bit
/// of the result.
///
/// # Panics
///
/// Debug-asserts the buffer lengths; callers (the `Matrix` products) validate
/// shapes before dispatching.
pub(crate) fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let flops = m.saturating_mul(k).saturating_mul(n);
    if flops >= crate::packed::PACKED_FLOP_THRESHOLD {
        crate::packed::gemm_packed(m, k, n, a, b, out, max_threads(m, k, n));
        return;
    }
    gemm_nn_direct(m, k, n, a, b, out);
}

/// The row-major `B` operand of a direct product as a sequence of `NR`-wide
/// column blocks. Full-width blocks are read in place (stride `n`); the
/// narrow edge block (`n % NR` columns, which is all of `B` when `n < NR`)
/// is copied into a zero-padded `k × NR` panel, so the micro-kernel always
/// runs full width. Padded lanes are computed and never stored.
struct BPanels<'a> {
    b: &'a [f32],
    n: usize,
    edge: &'a [f32],
}

impl<'a> BPanels<'a> {
    /// Packs the edge panel (if `n % NR != 0`) into `scratch`.
    fn pack(k: usize, n: usize, b: &'a [f32], scratch: &'a mut Vec<f32>) -> Self {
        let j0 = n - n % NR;
        let width = n - j0;
        let len = if width == 0 { 0 } else { k * NR };
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        let edge = &mut scratch[..len];
        edge.fill(0.0);
        for (dst, src) in edge.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            dst[..width].copy_from_slice(&src[j0..]);
        }
        BPanels { b, n, edge }
    }

    /// Block `jb` as `(slice, stride, column)`: lane `l` of reduction step
    /// `kk` is `slice[kk * stride + column + l]`.
    #[inline]
    fn block(&self, jb: usize) -> (&[f32], usize, usize) {
        if jb < self.n / NR {
            (self.b, self.n, jb * NR)
        } else {
            (self.edge, NR, 0)
        }
    }
}

/// The direct (non-packing) kernel: register blocking only, `B` streamed
/// from the row-major operand. Public within the crate so the packed core's
/// bit-identity tests can pin packed ≡ direct explicitly.
pub(crate) fn gemm_nn_direct(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    EDGE_PANEL.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let panels = BPanels::pack(k, n, b, &mut scratch);
        let threads = max_threads(m, k, n);
        if threads <= 1 {
            gemm_rows(k, a, &panels, 0, out);
            return;
        }
        // Split output rows into contiguous per-worker chunks (multiples of
        // the register block so only the last chunk carries remainder rows)
        // and dispatch them on the persistent pool. Each chunk's disjoint
        // output slice sits in a once-claimable slot; the slot index is the
        // chunk's row range divided by the (identical) pool chunk length.
        let chunk_rows = crate::pool::aligned_chunk_len(m, threads, MR);
        let slots: Vec<Mutex<Option<&mut [f32]>>> = out
            .chunks_mut(chunk_rows * n)
            .map(|chunk| Mutex::new(Some(chunk)))
            .collect();
        crate::pool::run_aligned_chunks(m, threads, MR, |rows| {
            let out_chunk = slots[rows.start / chunk_rows]
                .lock()
                .expect("row chunk slot lock")
                .take()
                .expect("each row chunk is claimed exactly once");
            gemm_rows(k, a, &panels, rows.start, out_chunk);
        });
    });
}

/// Decides the worker count for a product of the given shape.
fn max_threads(m: usize, k: usize, n: usize) -> usize {
    if crate::parallel::is_single_threaded() {
        // A caller (e.g. a parallel round executor) already owns the cores.
        return 1;
    }
    let flops = m.saturating_mul(k).saturating_mul(n);
    if flops < PARALLEL_FLOP_THRESHOLD {
        return 1;
    }
    crate::pool::hardware_threads().min(m.div_ceil(MR))
}

/// Sequential direct GEMM over output rows `row0..row0 + out.len() / n` of
/// the row-major `A`, in `MR`-row slabs. The last slab of a `rows % MR`
/// remainder repeats its last row in the missing slots: those rows are
/// computed and never stored, so every row, like every column, goes through
/// the full-size micro-kernel.
fn gemm_rows(k: usize, a: &[f32], panels: &BPanels<'_>, row0: usize, out: &mut [f32]) {
    let n = panels.n;
    for (slab, out_slab) in out.chunks_mut(MR * n).enumerate() {
        let valid = out_slab.len() / n;
        let i0 = row0 + slab * MR;
        let a_rows: [&[f32]; MR] = std::array::from_fn(|r| {
            let i = i0 + r.min(valid - 1);
            &a[i * k..(i + 1) * k]
        });
        for jb in 0..n.div_ceil(NR) {
            let (b, stride, col) = panels.block(jb);
            let j0 = jb * NR;
            let width = NR.min(n - j0);
            if valid == MR && width == NR {
                micro_kernel(k, &a_rows, b, stride, col, &mut out_slab[j0..], n);
            } else {
                // A partial tile goes through a stack tile, so the kernel
                // only ever indexes its accumulators with constants and
                // they stay in registers.
                let mut tile = [0.0f32; MR * NR];
                micro_kernel(k, &a_rows, b, stride, col, &mut tile, NR);
                for (r, tile_row) in tile.chunks_exact(NR).take(valid).enumerate() {
                    out_slab[r * n + j0..r * n + j0 + width].copy_from_slice(&tile_row[..width]);
                }
            }
        }
    }
}

/// The register micro-kernel: the `MR × NR` tile of rows `a_rows` against
/// the `B` block whose lanes at reduction step `kk` are
/// `b[kk * stride + col ..][..NR]`, accumulated over the full reduction and
/// stored to `dst` (row stride `dst_stride`). All loops over rows and lanes
/// have constant bounds, so the accumulators are promoted to vector
/// registers; each `k` step costs the `B` vector loads and `MR` broadcast
/// multiply-adds, every loaded `B` vector reused by all `MR` rows.
#[inline(always)]
fn micro_kernel(
    k: usize,
    a_rows: &[&[f32]; MR],
    b: &[f32],
    stride: usize,
    col: usize,
    dst: &mut [f32],
    dst_stride: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let bv: &[f32; NR] = b[kk * stride + col..kk * stride + col + NR]
            .try_into()
            .expect("slice length is NR by construction");
        for r in 0..MR {
            let s = a_rows[r][kk];
            for l in 0..NR {
                acc[r][l] = mac(acc[r][l], s, bv[l]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        dst[r * dst_stride..r * dst_stride + NR].copy_from_slice(acc_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference triple loop, ascending `k` per element.
    fn gemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let s = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += s * b[kk * n + j];
                }
            }
        }
        out
    }

    fn pattern(len: usize, seed: u32) -> Vec<f32> {
        // Low-entropy but non-trivial deterministic values.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((x >> 16) as f32 / 65536.0) - 0.5
            })
            .collect()
    }

    /// FMA builds round each product once instead of twice, so the tiled
    /// result can drift from the two-rounding naive reference by a few ulps
    /// per reduction step; the addition sequence itself is identical.
    fn assert_close(actual: &[f32], expected: &[f32], context: &str) {
        assert_eq!(actual.len(), expected.len(), "{context}");
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (a - e).abs() <= 1e-5,
                "{context}: element {i} differs: {a} vs {e}"
            );
        }
    }

    #[test]
    fn tiled_matches_naive_reference_on_awkward_shapes() {
        // Shapes straddling every remainder case of the register blocking.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 2),
            (3, 5, 7),
            (4, 4, 4),
            (5, 6, 9),
            (7, 13, 3),
            (8, 8, 8),
            (9, 17, 11),
            (8, 8, 32),
            (8, 8, 33),
            (16, 1, 16),
            (1, 16, 33),
            (17, 9, 37),
            (40, 40, 40),
        ] {
            let a = pattern(m * k, 1);
            let b = pattern(k * n, 2);
            let mut out = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            let expected = gemm_naive(m, k, n, &a, &b);
            assert_close(&out, &expected, &format!("shape ({m},{k},{n})"));
        }
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut out = vec![];
        gemm_nn(0, 3, 3, &[], &pattern(9, 0), &mut out);
        let mut out2 = vec![0.0; 9];
        gemm_nn(3, 0, 3, &[], &[], &mut out2);
        assert!(out2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn large_product_crosses_the_parallel_threshold_and_matches() {
        // 192³ > 2²² multiply-adds, so this exercises the threaded path on
        // multi-core hosts (and the sequential path on single-core ones —
        // both must produce the same ascending-k result).
        let (m, k, n) = (192, 192, 192);
        let a = pattern(m * k, 3);
        let b = pattern(k * n, 4);
        let mut out = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut out);
        assert_close(&out, &gemm_naive(m, k, n, &a, &b), "192^3");
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        // Determinism: the kernel must give byte-identical results run to
        // run, for any thread count — rows are partitioned, never reduced
        // across threads.
        let (m, k, n) = (64, 96, 80);
        let a = pattern(m * k, 5);
        let b = pattern(k * n, 6);
        let mut first = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut first);
        for _ in 0..3 {
            let mut again = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut again);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn thread_count_respects_shape_and_threshold() {
        assert_eq!(max_threads(8, 8, 8), 1, "tiny products stay sequential");
        let big = max_threads(4096, 4096, 4096);
        assert!(big >= 1);
        assert!(big <= 4096 / MR);
    }
}
