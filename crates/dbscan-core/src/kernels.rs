//! Squared-distance block kernels shared by the hot query loops, with
//! runtime-dispatched SIMD implementations.
//!
//! RangeCount (MarkCore), ClusterBorder and the BCP connectivity query all
//! reduce to "scan a contiguous run of points and compare squared distances
//! against ε²". The three entry points — [`count_within_capped`],
//! [`any_within`], [`find_within_flat`] — dispatch once-per-process-detected
//! to one of:
//!
//! * **AVX2 + FMA** (`x86_64`, `simd` feature): 4-lane `f64` vectors with
//!   dimension-specialized deinterleaves for D = 2 and D = 3 and a generic
//!   strided reduction (4×4 register transposes, four dimensions at a time)
//!   for D ∈ 4..=8,
//! * **NEON** (`aarch64`, `simd` feature): the same structure over 2-lane
//!   `f64` vectors,
//! * **scalar** — the portable 64-wide blocked kernels in [`scalar`]
//!   (branch-free accumulation inside a block, early-exit checks only at
//!   block boundaries, so the inner loop compiles to straight-line
//!   auto-vectorizable code). This is the only path when the `simd` cargo
//!   feature is disabled, when the CPU lacks the required features, when
//!   D ∉ 2..=8, or when `DBSCAN_FORCE_SCALAR=1` is set in the environment
//!   (read once, at the first kernel call of the process).
//!
//! # Tie-handling contract
//!
//! The DBSCAN definition is **inclusive**: `d(p, q) ≤ ε`. Every kernel —
//! scalar and SIMD alike — therefore compares with `<=` on the *squared*
//! distance (`dist_sq(p, q) <= eps_sq`), and the SIMD paths use the ordered
//! comparison (`_CMP_LE_OQ` / `vcleq_f64`), which matches scalar `<=` on
//! NaN (false). To keep ties decided *identically* on every path, the SIMD
//! reductions reproduce the scalar rounding exactly: per-coordinate
//! differences are squared with a round-to-nearest multiply and accumulated
//! in coordinate order with plain adds — deliberately **not** fused
//! multiply-adds, whose single rounding could flip a `d² == ε²` tie relative
//! to the scalar kernel. A point at exactly ε of the query is counted by
//! every backend, and the `simd_matches_scalar` property test holds the
//! backends to bit-identical decisions.

use geom::Point;
use std::sync::atomic::{AtomicU8, Ordering};

/// Block width of the scans. Chosen so a block of 2D/3D `f64` coordinates
/// fits comfortably in L1 while giving long branch-free runs; the cap /
/// early-exit checks of the kernels happen only at these boundaries, on
/// every backend.
pub const BLOCK: usize = 64;

/// The distance-kernel implementation selected for this process.
///
/// This doubles as the **dispatch probe**: [`active_backend`] returns the
/// value every kernel entry point routes on, so tests can assert that
/// `DBSCAN_FORCE_SCALAR=1` (or a scalar-only build) actually reaches
/// [`Backend::Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable blocked kernels; no `unsafe`, no CPU feature requirements.
    Scalar,
    /// 4-lane `f64` AVX2 kernels (`x86_64` with AVX2 and FMA detected).
    Avx2Fma,
    /// 2-lane `f64` NEON kernels (`aarch64`; NEON is baseline there).
    Neon,
}

impl Backend {
    /// Stable machine-readable name, reported by the `dbscan_backend_info`
    /// metric and `dbscan-serve`'s `/healthz`.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2Fma => "avx2+fma",
            Backend::Neon => "neon",
        }
    }
}

const BACKEND_UNINIT: u8 = 0;
const BACKEND_SCALAR: u8 = 1;
const BACKEND_AVX2: u8 = 2;
const BACKEND_NEON: u8 = 3;

/// Cached dispatch decision; `BACKEND_UNINIT` until the first kernel call.
static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNINIT);

#[cold]
fn init_backend() -> u8 {
    let code = detect_backend();
    BACKEND.store(code, Ordering::Relaxed);
    let label = match code {
        BACKEND_AVX2 => Backend::Avx2Fma,
        BACKEND_NEON => Backend::Neon,
        _ => Backend::Scalar,
    }
    .label();
    obs::set_info("dbscan_backend_info", label);
    code
}

/// One-time backend selection: the `DBSCAN_FORCE_SCALAR=1` escape hatch
/// wins, then CPU feature detection picks the widest compiled-in path.
fn detect_backend() -> u8 {
    if std::env::var_os("DBSCAN_FORCE_SCALAR").is_some_and(|v| v == "1") {
        return BACKEND_SCALAR;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if avx2::available() {
            return BACKEND_AVX2;
        }
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    {
        return BACKEND_NEON;
    }
    #[allow(unreachable_code)]
    BACKEND_SCALAR
}

#[inline]
fn backend_code() -> u8 {
    let code = BACKEND.load(Ordering::Relaxed);
    if code == BACKEND_UNINIT {
        init_backend()
    } else {
        code
    }
}

/// Registry counter of [`BLOCK`]-wide kernel block scans
/// (`dbscan_kernel_blocks_total`). The entry points are far too hot for a
/// shared atomic per call, so each thread batches block counts in a local
/// cell and flushes every [`FLUSH_BLOCKS`]; the registry value is therefore
/// *approximate* (it can lag each live thread by up to `FLUSH_BLOCKS − 1`
/// blocks).
static KERNEL_BLOCKS: obs::LazyCounter = obs::LazyCounter::new("dbscan_kernel_blocks_total");

const FLUSH_BLOCKS: u64 = 1 << 12;

thread_local! {
    static PENDING_BLOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one kernel invocation scanning `n` points: `ceil(n / BLOCK)` blocks,
/// minimum 1 (an empty scan is still an invocation).
#[inline]
fn count_blocks(n: usize) {
    if !obs::counters_enabled() {
        return;
    }
    let blocks = (n as u64).div_ceil(BLOCK as u64).max(1);
    PENDING_BLOCKS.with(|p| {
        let v = p.get() + blocks;
        if v >= FLUSH_BLOCKS {
            KERNEL_BLOCKS.add(v);
            p.set(0);
        } else {
            p.set(v);
        }
    });
}

/// The backend every kernel entry point routes to in this process (the
/// test-visible dispatch probe). Selected once: the first call decides,
/// and the decision never changes for the lifetime of the process.
pub fn active_backend() -> Backend {
    match backend_code() {
        BACKEND_AVX2 => Backend::Avx2Fma,
        BACKEND_NEON => Backend::Neon,
        _ => Backend::Scalar,
    }
}

/// Whether the SIMD paths serve dimension `D` (specialized D = 2/3 lanes,
/// generic strided reduction up to 8); outside this range every backend
/// falls through to [`scalar`].
#[cfg(all(feature = "simd", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[inline]
const fn simd_dim(d: usize) -> bool {
    d >= 2 && d <= 8
}

/// Number of points of `pts` within squared distance `eps_sq` of `p`,
/// stopping at `cap` (counting further cannot change any caller's decision;
/// the cap is applied at [`BLOCK`] boundaries, identically on every
/// backend).
#[inline]
pub fn count_within_capped<const D: usize>(
    p: &Point<D>,
    pts: &[Point<D>],
    eps_sq: f64,
    cap: usize,
) -> usize {
    count_blocks(pts.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_dim(D) && backend_code() == BACKEND_AVX2 {
        return avx2::count_within_capped(p, pts, eps_sq, cap);
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_dim(D) && backend_code() == BACKEND_NEON {
        return neon::count_within_capped(p, pts, eps_sq, cap);
    }
    scalar::count_within_capped(p, pts, eps_sq, cap)
}

/// Whether any point of `pts` lies within squared distance `eps_sq` of `p`.
#[inline]
pub fn any_within<const D: usize>(p: &Point<D>, pts: &[Point<D>], eps_sq: f64) -> bool {
    count_blocks(pts.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_dim(D) && backend_code() == BACKEND_AVX2 {
        return avx2::any_within(p, pts, eps_sq);
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_dim(D) && backend_code() == BACKEND_NEON {
        return neon::any_within(p, pts, eps_sq);
    }
    scalar::any_within(p, pts, eps_sq)
}

/// Position of the first point of the flat coordinate run `pts` (length a
/// multiple of `D`) within squared distance `eps_sq` of `p`, or `None`.
/// Every backend returns the exact first index in run order.
#[inline]
pub fn find_within_flat<const D: usize>(p: &[f64; D], pts: &[f64], eps_sq: f64) -> Option<usize> {
    debug_assert_eq!(pts.len() % D, 0);
    count_blocks(pts.len() / D);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_dim(D) && backend_code() == BACKEND_AVX2 {
        return avx2::find_within_flat(p, pts, eps_sq);
    }
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
    if simd_dim(D) && backend_code() == BACKEND_NEON {
        return neon::find_within_flat(p, pts, eps_sq);
    }
    scalar::find_within_flat(p, pts, eps_sq)
}

pub mod scalar {
    //! The portable blocked kernels — branch-free accumulation inside a
    //! 64-wide block, early-exit checks only at block boundaries. Kept
    //! verbatim as the fallback of every dispatch path (and as the baseline
    //! the SIMD-equivalence property test compares against), and forcible
    //! at runtime with `DBSCAN_FORCE_SCALAR=1`.

    use super::BLOCK;
    use geom::Point;

    /// Scalar [`count_within_capped`](super::count_within_capped).
    #[inline]
    pub fn count_within_capped<const D: usize>(
        p: &Point<D>,
        pts: &[Point<D>],
        eps_sq: f64,
        cap: usize,
    ) -> usize {
        let mut count = 0usize;
        for block in pts.chunks(BLOCK) {
            let mut hits = 0usize;
            for q in block {
                hits += (p.dist_sq(q) <= eps_sq) as usize;
            }
            count += hits;
            if count >= cap {
                return cap;
            }
        }
        count
    }

    /// Scalar [`any_within`](super::any_within).
    #[inline]
    pub fn any_within<const D: usize>(p: &Point<D>, pts: &[Point<D>], eps_sq: f64) -> bool {
        for block in pts.chunks(BLOCK) {
            let mut any = false;
            for q in block {
                any |= p.dist_sq(q) <= eps_sq;
            }
            if any {
                return true;
            }
        }
        false
    }

    /// Scalar [`find_within_flat`](super::find_within_flat). The block pass
    /// only answers "any hit?" branch-free; the index is recovered by a
    /// short rescan of the one block that hit.
    #[inline]
    pub fn find_within_flat<const D: usize>(
        p: &[f64; D],
        pts: &[f64],
        eps_sq: f64,
    ) -> Option<usize> {
        debug_assert_eq!(pts.len() % D, 0);
        for (bi, block) in pts.chunks(BLOCK * D).enumerate() {
            let mut any = false;
            for q in block.chunks_exact(D) {
                any |= dist_sq_flat::<D>(p, q) <= eps_sq;
            }
            if any {
                for (j, q) in block.chunks_exact(D).enumerate() {
                    if dist_sq_flat::<D>(p, q) <= eps_sq {
                        return Some(bi * BLOCK + j);
                    }
                }
            }
        }
        None
    }

    /// Squared distance between a fixed point and one `D`-chunk of a flat
    /// coordinate array.
    #[inline(always)]
    pub(super) fn dist_sq_flat<const D: usize>(p: &[f64; D], q: &[f64]) -> f64 {
        let q: &[f64; D] = q.try_into().expect("chunk of width D");
        let mut acc = 0.0;
        for k in 0..D {
            let d = p[k] - q[k];
            acc += d * d;
        }
        acc
    }
}

/// AVX2 kernels: 4 points per iteration in 4-lane `f64` vectors.
///
/// Distances are accumulated with separate multiply and add (not FMA) in
/// coordinate order, so each lane reproduces the scalar kernel's rounding
/// bit-for-bit — see the module-level tie-handling contract.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
pub(crate) mod avx2 {
    use super::{scalar, BLOCK};
    use core::arch::x86_64::*;
    use geom::{coord_run, Point};

    /// Runtime gate of this module: the dispatcher only routes here when
    /// this returned `true` once.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    pub(super) fn count_within_capped<const D: usize>(
        p: &Point<D>,
        pts: &[Point<D>],
        eps_sq: f64,
        cap: usize,
    ) -> usize {
        // SAFETY: the dispatcher routes here only after `available()`.
        unsafe { count_impl::<D>(&p.coords, coord_run(pts), eps_sq, cap) }
    }

    pub(super) fn any_within<const D: usize>(p: &Point<D>, pts: &[Point<D>], eps_sq: f64) -> bool {
        // SAFETY: as above.
        unsafe { any_impl::<D>(&p.coords, coord_run(pts), eps_sq) }
    }

    pub(super) fn find_within_flat<const D: usize>(
        p: &[f64; D],
        pts: &[f64],
        eps_sq: f64,
    ) -> Option<usize> {
        // SAFETY: as above.
        unsafe { find_impl::<D>(p, pts, eps_sq) }
    }

    /// Squared distances of the four points `flat[i..i+4]` (point units) to
    /// `p`, one per lane. **Lane order is unspecified** (the D = 2 path
    /// leaves the horizontal-add's (p0, p2, p1, p3) permutation in place):
    /// every consumer below is order-insensitive — counts accumulate
    /// lane-wise and hit *positions* are recovered by a scalar block rescan,
    /// exactly like the scalar kernel does.
    ///
    /// Per-lane arithmetic reproduces the scalar rounding bit-for-bit:
    /// round-to-nearest multiply, then accumulation in coordinate order
    /// (see the module docs on why no FMA).
    ///
    /// # Safety
    /// Requires AVX2, `D ∈ 2..=8`, and `(i + 4) * D <= flat.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dist4<const D: usize>(p: &[f64; D], flat: &[f64], i: usize) -> __m256d {
        let base = flat.as_ptr().add(i * D);
        let pp = p.as_ptr();
        if D == 2 {
            // Two points per vector: (x0, y0, x1, y1) — differences square
            // into adjacent x²/y² pairs, which one horizontal add folds
            // into per-point squared distances (in (p0, p2, p1, p3) order,
            // which the order-insensitive consumers never observe).
            let pv = _mm256_setr_pd(*pp, *pp.add(1), *pp, *pp.add(1));
            let d0 = _mm256_sub_pd(_mm256_loadu_pd(base), pv);
            let d1 = _mm256_sub_pd(_mm256_loadu_pd(base.add(4)), pv);
            let t0 = _mm256_mul_pd(d0, d0);
            let t1 = _mm256_mul_pd(d1, d1);
            _mm256_hadd_pd(t0, t1)
        } else if D == 3 {
            // Twelve coordinates in three vectors, deinterleaved into
            // per-axis lanes with blends + one cross-lane permute each:
            //   v0 = (x0 y0 z0 x1)   v1 = (y1 z1 x2 y2)   v2 = (z2 x3 y3 z3)
            let v0 = _mm256_loadu_pd(base);
            let v1 = _mm256_loadu_pd(base.add(4));
            let v2 = _mm256_loadu_pd(base.add(8));
            // xs = (v0[0], v0[3], v1[2], v2[1])
            let bx = _mm256_blend_pd::<0b0100>(v0, v1);
            let bx = _mm256_blend_pd::<0b0010>(bx, v2);
            let xs = _mm256_permute4x64_pd::<{ (3 << 2) | (2 << 4) | (1 << 6) }>(bx);
            // ys = (v0[1], v1[0], v1[3], v2[2])
            let by = _mm256_blend_pd::<0b1001>(v0, v1);
            let by = _mm256_blend_pd::<0b0100>(by, v2);
            let ys = _mm256_permute4x64_pd::<{ 1 | (3 << 4) | (2 << 6) }>(by);
            // zs = (v0[2], v1[1], v2[0], v2[3])
            let bz = _mm256_blend_pd::<0b0010>(v0, v1);
            let bz = _mm256_blend_pd::<0b1001>(bz, v2);
            let zs = _mm256_permute4x64_pd::<{ 2 | (1 << 2) | (3 << 6) }>(bz);
            let dx = _mm256_sub_pd(xs, _mm256_set1_pd(*pp));
            let dy = _mm256_sub_pd(ys, _mm256_set1_pd(*pp.add(1)));
            let dz = _mm256_sub_pd(zs, _mm256_set1_pd(*pp.add(2)));
            let acc = _mm256_mul_pd(dx, dx);
            let acc = _mm256_add_pd(acc, _mm256_mul_pd(dy, dy));
            _mm256_add_pd(acc, _mm256_mul_pd(dz, dz))
        } else {
            // Generic strided reduction (D ∈ 4..=8): lane l holds point
            // i + l. Coordinates come four dimensions at a time through a
            // 4×4 register transpose (4 loads + 8 shuffles yields four
            // dimension-vectors — far cheaper than per-dimension scattered
            // gathers); the D mod 4 leftover dimensions use one scattered
            // gather each. Accumulation stays in ascending-k order.
            let mut acc = _mm256_setzero_pd();
            let mut k = 0usize;
            while k + 4 <= D {
                // Rows: coordinates k..k+4 of points i..i+4 (stride D).
                let r0 = _mm256_loadu_pd(base.add(k));
                let r1 = _mm256_loadu_pd(base.add(D + k));
                let r2 = _mm256_loadu_pd(base.add(2 * D + k));
                let r3 = _mm256_loadu_pd(base.add(3 * D + k));
                let t0 = _mm256_unpacklo_pd(r0, r1);
                let t1 = _mm256_unpackhi_pd(r0, r1);
                let t2 = _mm256_unpacklo_pd(r2, r3);
                let t3 = _mm256_unpackhi_pd(r2, r3);
                let c = [
                    _mm256_permute2f128_pd::<0x20>(t0, t2),
                    _mm256_permute2f128_pd::<0x20>(t1, t3),
                    _mm256_permute2f128_pd::<0x31>(t0, t2),
                    _mm256_permute2f128_pd::<0x31>(t1, t3),
                ];
                for (dk, ck) in c.into_iter().enumerate() {
                    let d = _mm256_sub_pd(ck, _mm256_set1_pd(*pp.add(k + dk)));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
                }
                k += 4;
            }
            while k < D {
                let qk = _mm256_setr_pd(
                    *base.add(k),
                    *base.add(D + k),
                    *base.add(2 * D + k),
                    *base.add(3 * D + k),
                );
                let d = _mm256_sub_pd(qk, _mm256_set1_pd(*pp.add(k)));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
                k += 1;
            }
            acc
        }
    }

    /// Sum of the four `i64` lanes (the per-lane hit counters).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let s = _mm_add_epi64(lo, hi);
        (_mm_extract_epi64::<0>(s) + _mm_extract_epi64::<1>(s)) as u64
    }

    #[target_feature(enable = "avx2")]
    unsafe fn count_impl<const D: usize>(
        p: &[f64; D],
        flat: &[f64],
        eps_sq: f64,
        cap: usize,
    ) -> usize {
        let n = flat.len() / D;
        let eps_v = _mm256_set1_pd(eps_sq);
        let mut count = 0usize;
        let mut start = 0usize;
        while start < n {
            // The cap is checked at the same BLOCK boundaries as the scalar
            // kernel, so the two backends return identical capped counts.
            // Inside a block everything is branch-free: each `<=` mask lane
            // is all-ones (−1 as i64), so integer-subtracting the mask
            // accumulates per-lane hit counters without leaving registers.
            let end = (start + BLOCK).min(n);
            let mut hits_v = _mm256_setzero_si256();
            let mut j = start;
            while j + 4 <= end {
                let le = _mm256_cmp_pd::<_CMP_LE_OQ>(dist4::<D>(p, flat, j), eps_v);
                hits_v = _mm256_sub_epi64(hits_v, _mm256_castpd_si256(le));
                j += 4;
            }
            let mut block_count = hsum_epi64(hits_v) as usize;
            while j < end {
                let q = &flat[j * D..(j + 1) * D];
                block_count += (scalar::dist_sq_flat::<D>(p, q) <= eps_sq) as usize;
                j += 1;
            }
            count += block_count;
            if count >= cap {
                return cap;
            }
            start = end;
        }
        count
    }

    /// Branch-free block scan: OR of all `<=` masks of `flat[start..end)`
    /// (partial tail lanes handled scalar), non-zero ⇔ some point within.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_any<const D: usize>(
        p: &[f64; D],
        flat: &[f64],
        start: usize,
        end: usize,
        eps_v: __m256d,
        eps_sq: f64,
    ) -> bool {
        let mut any_v = _mm256_setzero_pd();
        let mut j = start;
        while j + 4 <= end {
            let le = _mm256_cmp_pd::<_CMP_LE_OQ>(dist4::<D>(p, flat, j), eps_v);
            any_v = _mm256_or_pd(any_v, le);
            j += 4;
        }
        let mut any = _mm256_movemask_pd(any_v) != 0;
        while j < end {
            any |= scalar::dist_sq_flat::<D>(p, &flat[j * D..(j + 1) * D]) <= eps_sq;
            j += 1;
        }
        any
    }

    #[target_feature(enable = "avx2")]
    unsafe fn any_impl<const D: usize>(p: &[f64; D], flat: &[f64], eps_sq: f64) -> bool {
        let n = flat.len() / D;
        let eps_v = _mm256_set1_pd(eps_sq);
        let mut start = 0usize;
        while start < n {
            let end = (start + BLOCK).min(n);
            if block_any::<D>(p, flat, start, end, eps_v, eps_sq) {
                return true;
            }
            start = end;
        }
        false
    }

    #[target_feature(enable = "avx2")]
    unsafe fn find_impl<const D: usize>(p: &[f64; D], flat: &[f64], eps_sq: f64) -> Option<usize> {
        let n = flat.len() / D;
        let eps_v = _mm256_set1_pd(eps_sq);
        let mut start = 0usize;
        while start < n {
            // Same structure as the scalar kernel: a branch-free "any hit?"
            // block pass, then a scalar rescan of the one block that hit to
            // recover the exact first index (which also sidesteps dist4's
            // unspecified lane order).
            let end = (start + BLOCK).min(n);
            if block_any::<D>(p, flat, start, end, eps_v, eps_sq) {
                for j in start..end {
                    if scalar::dist_sq_flat::<D>(p, &flat[j * D..(j + 1) * D]) <= eps_sq {
                        return Some(j);
                    }
                }
                // A hit mask with no scalar hit is impossible: both passes
                // compare the identical rounded d² against ε².
                unreachable!("block reported a hit but the rescan found none");
            }
            start = end;
        }
        None
    }
}

/// NEON kernels: 2 points per iteration in 2-lane `f64` vectors, same
/// structure (and the same no-FMA rounding contract) as the AVX2 path.
/// NEON is baseline on `aarch64`, so there is no runtime CPU probe — only
/// the `DBSCAN_FORCE_SCALAR` hatch and the `simd` feature gate apply.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
#[allow(unsafe_code)]
pub(crate) mod neon {
    use super::{scalar, BLOCK};
    use core::arch::aarch64::*;
    use geom::{coord_run, Point};

    pub(super) fn count_within_capped<const D: usize>(
        p: &Point<D>,
        pts: &[Point<D>],
        eps_sq: f64,
        cap: usize,
    ) -> usize {
        // SAFETY: NEON is baseline on aarch64.
        unsafe { count_impl::<D>(&p.coords, coord_run(pts), eps_sq, cap) }
    }

    pub(super) fn any_within<const D: usize>(p: &Point<D>, pts: &[Point<D>], eps_sq: f64) -> bool {
        // SAFETY: as above.
        unsafe { any_impl::<D>(&p.coords, coord_run(pts), eps_sq) }
    }

    pub(super) fn find_within_flat<const D: usize>(
        p: &[f64; D],
        pts: &[f64],
        eps_sq: f64,
    ) -> Option<usize> {
        // SAFETY: as above.
        unsafe { find_impl::<D>(p, pts, eps_sq) }
    }

    /// Squared distances of points `flat[i]` and `flat[i + 1]` to `p`, one
    /// per lane.
    ///
    /// # Safety
    /// Requires `D ∈ 2..=8` and `(i + 2) * D <= flat.len()`.
    #[inline]
    unsafe fn dist2<const D: usize>(p: &[f64; D], flat: &[f64], i: usize) -> float64x2_t {
        let base = flat.as_ptr().add(i * D);
        let pp = p.as_ptr();
        if D == 2 {
            // One point per vector; a pairwise add folds x²+y² per lane.
            let pv = vld1q_f64(pp);
            let d0 = vsubq_f64(vld1q_f64(base), pv);
            let d1 = vsubq_f64(vld1q_f64(base.add(2)), pv);
            vpaddq_f64(vmulq_f64(d0, d0), vmulq_f64(d1, d1))
        } else {
            // Strided reduction: lane l holds point i + l. With 2 lanes this
            // is already the natural D = 3 form, so no extra specialization.
            let mut acc = vdupq_n_f64(0.0);
            for k in 0..D {
                let q = vcombine_f64(vld1_f64(base.add(k)), vld1_f64(base.add(D + k)));
                let d = vsubq_f64(q, vdupq_n_f64(*pp.add(k)));
                acc = vaddq_f64(acc, vmulq_f64(d, d));
            }
            acc
        }
    }

    /// Per-lane `<=` mask: bit 0 / bit 1 set ⇔ point `i` / `i + 1` within.
    #[inline]
    unsafe fn le_mask2<const D: usize>(
        p: &[f64; D],
        flat: &[f64],
        i: usize,
        eps_v: float64x2_t,
    ) -> u32 {
        let m = vcleq_f64(dist2::<D>(p, flat, i), eps_v);
        ((vgetq_lane_u64::<0>(m) & 1) | (vgetq_lane_u64::<1>(m) & 2)) as u32
    }

    unsafe fn count_impl<const D: usize>(
        p: &[f64; D],
        flat: &[f64],
        eps_sq: f64,
        cap: usize,
    ) -> usize {
        let n = flat.len() / D;
        let eps_v = vdupq_n_f64(eps_sq);
        let mut count = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + BLOCK).min(n);
            let mut hits = 0u32;
            let mut j = start;
            while j + 2 <= end {
                hits += le_mask2::<D>(p, flat, j, eps_v).count_ones();
                j += 2;
            }
            let mut block_count = hits as usize;
            while j < end {
                let q = &flat[j * D..(j + 1) * D];
                block_count += (scalar::dist_sq_flat::<D>(p, q) <= eps_sq) as usize;
                j += 1;
            }
            count += block_count;
            if count >= cap {
                return cap;
            }
            start = end;
        }
        count
    }

    unsafe fn any_impl<const D: usize>(p: &[f64; D], flat: &[f64], eps_sq: f64) -> bool {
        let n = flat.len() / D;
        let eps_v = vdupq_n_f64(eps_sq);
        let mut j = 0usize;
        while j + 2 <= n {
            if le_mask2::<D>(p, flat, j, eps_v) != 0 {
                return true;
            }
            j += 2;
        }
        while j < n {
            if scalar::dist_sq_flat::<D>(p, &flat[j * D..(j + 1) * D]) <= eps_sq {
                return true;
            }
            j += 1;
        }
        false
    }

    unsafe fn find_impl<const D: usize>(p: &[f64; D], flat: &[f64], eps_sq: f64) -> Option<usize> {
        let n = flat.len() / D;
        let eps_v = vdupq_n_f64(eps_sq);
        let mut j = 0usize;
        while j + 2 <= n {
            let mask = le_mask2::<D>(p, flat, j, eps_v);
            if mask != 0 {
                return Some(j + mask.trailing_zeros() as usize);
            }
            j += 2;
        }
        while j < n {
            if scalar::dist_sq_flat::<D>(p, &flat[j * D..(j + 1) * D]) <= eps_sq {
                return Some(j);
            }
            j += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_matches_naive_and_respects_cap() {
        let pts: Vec<Point<2>> = (0..200)
            .map(|i| Point::new([i as f64 * 0.1, 0.0]))
            .collect();
        let p = Point::new([0.0, 0.0]);
        let naive = pts.iter().filter(|q| p.dist_sq(q) <= 4.0).count();
        assert_eq!(count_within_capped(&p, &pts, 4.0, usize::MAX), naive);
        assert_eq!(count_within_capped(&p, &pts, 4.0, 5), 5);
        assert_eq!(count_within_capped(&p, &[], 4.0, 5), 0);
    }

    #[test]
    fn any_within_matches_naive() {
        let pts: Vec<Point<2>> = (0..100)
            .map(|i| Point::new([10.0 + i as f64, 3.0]))
            .collect();
        let p = Point::new([0.0, 0.0]);
        assert!(!any_within(&p, &pts, 9.0));
        assert!(any_within(&p, &pts, 150.0));
        assert!(!any_within(&p, &[], 1e18));
    }

    #[test]
    fn find_flat_locates_first_hit_across_blocks() {
        // 150 far points, one near point at position 130 (third block spans
        // 128..150), another near one at 140 — the first must win.
        let mut flat = Vec::new();
        for i in 0..150 {
            let x = if i == 130 || i == 140 {
                0.5
            } else {
                100.0 + i as f64
            };
            flat.extend_from_slice(&[x, 0.0]);
        }
        assert_eq!(find_within_flat::<2>(&[0.0, 0.0], &flat, 1.0), Some(130));
        assert_eq!(find_within_flat::<2>(&[0.0, 0.0], &[], 1.0), None);
    }

    #[test]
    fn exact_tie_distances_count_inclusively_on_every_backend() {
        // d² = ε² exactly: coordinates and ε chosen exactly representable.
        // The dispatched kernels and the scalar reference must agree on the
        // tie (the DBSCAN `≤` is inclusive).
        for d_mult in [1.0f64, 0.25, 2.0] {
            let eps_sq = d_mult * d_mult;
            let pts: Vec<Point<2>> = vec![
                Point::new([d_mult, 0.0]),          // exactly at ε
                Point::new([0.0, d_mult]),          // exactly at ε
                Point::new([d_mult, d_mult]),       // beyond (√2 ε)
                Point::new([d_mult * 0.5, 0.0]),    // inside
                Point::new([d_mult * 1.0625, 0.0]), // just beyond
            ];
            let p = Point::new([0.0, 0.0]);
            assert_eq!(
                count_within_capped(&p, &pts, eps_sq, usize::MAX),
                scalar::count_within_capped(&p, &pts, eps_sq, usize::MAX),
            );
            assert_eq!(count_within_capped(&p, &pts, eps_sq, usize::MAX), 3);
            assert!(any_within(&p, &pts, eps_sq));
            let flat = geom::flat_from_points(&pts);
            assert_eq!(
                find_within_flat::<2>(&p.coords, &flat, eps_sq),
                scalar::find_within_flat::<2>(&p.coords, &flat, eps_sq),
            );
            assert_eq!(find_within_flat::<2>(&p.coords, &flat, eps_sq), Some(0));
        }
    }

    #[test]
    fn backend_is_consistent_with_build_configuration() {
        let b = active_backend();
        // The probe is stable across calls…
        assert_eq!(b, active_backend());
        // …and a scalar-only build can never report a SIMD backend.
        if !cfg!(feature = "simd") {
            assert_eq!(b, Backend::Scalar);
        }
        assert!(!b.label().is_empty());
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn avx2_lane_order_is_point_order() {
        // Points at strictly increasing distance; `find` must return the
        // true first hit for every prefix threshold, which pins down the
        // D = 2 hadd lane permutation and the D = 3 deinterleave.
        if active_backend() != Backend::Avx2Fma {
            return; // machine without AVX2: nothing to pin down
        }
        let pts2: Vec<Point<2>> = (0..16).map(|i| Point::new([1.0 + i as f64, 0.0])).collect();
        let flat2 = geom::flat_from_points(&pts2);
        for first in 0..16usize {
            let eps = (first + 1) as f64;
            assert_eq!(
                find_within_flat::<2>(&[0.0, 0.0], &flat2, eps * eps),
                Some(0),
                "first hit under eps {eps} (all prefixes hit, index 0 wins)"
            );
            // Exactly one point within ε of a shifted query catches lane swaps.
            let q = [1.0 + first as f64, 0.25];
            assert_eq!(
                find_within_flat::<2>(&q, &flat2, 0.25 * 0.25),
                Some(first),
                "2D lane order at index {first}"
            );
        }
        let pts3: Vec<Point<3>> = (0..16)
            .map(|i| Point::new([1.0 + i as f64, 0.5, -0.5]))
            .collect();
        let flat3 = geom::flat_from_points(&pts3);
        for first in 0..16usize {
            let q = [1.0 + first as f64, 0.5, -0.25];
            assert_eq!(
                find_within_flat::<3>(&q, &flat3, 0.25 * 0.25),
                Some(first),
                "3D lane order at index {first}"
            );
        }
    }
}
