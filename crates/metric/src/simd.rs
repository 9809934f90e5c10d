//! Explicit SIMD distance kernels behind runtime feature detection.
//!
//! The batched scalar kernels (`crate::kernels`) are *latency*-bound
//! at high dimension: each point's squared distance is one serial
//! `sum += d*d` dependency chain, so a modern core spends ~4 cycles per
//! coordinate waiting on the add. This module breaks that chain by
//! vectorizing **across points, not across coordinates**: each SIMD
//! lane accumulates one point's sum in exactly the scalar association
//! order (`((0 + t_0) + t_1) + …`), eight points per block (two 4-wide
//! AVX2 vectors, four 2-wide NEON vectors — the independent
//! accumulators also give the out-of-order core parallel chains).
//!
//! ## Why the results are bitwise-identical to the scalar loops
//!
//! * Lane-wise `sub`/`mul`/`add` are IEEE-754 correctly-rounded double
//!   operations — a lane performs the *same* operation sequence as the
//!   scalar loop for that point, so it produces the same bits.
//! * No FMA is ever used (`mul` then `add`, never fused), matching
//!   Rust's scalar semantics, which never contract implicitly.
//! * Square roots, threshold tests, and argmax folds run in the scalar
//!   epilogue on the extracted lane values, via the same helpers
//!   (`sq_beats_threshold`, `consider_max`) the scalar kernels use.
//! * Vectorizing across *coordinates* instead would reassociate the
//!   per-point sum and break the [`crate::Metric`] bitwise-identity
//!   contract — which is why the auto-vectorizer never delivered this
//!   speedup on its own.
//!
//! The equivalence is proptest-pinned in `tests/simd_equivalence.rs`
//! over every layout and a sweep of dimensions.
//!
//! ## Dispatch
//!
//! [`enabled`] decides at runtime: hardware support (`avx2` on x86_64,
//! `neon` on aarch64, cached) gated by the `DIVMAX_SIMD` env knob —
//! strict-parsed (`off` / `auto` / `on`) through
//! [`diversity_obs::env::choice`]; garbage values are rejected loudly
//! and fall back to `auto`. `off` forces the scalar kernels (the CI
//! forced-scalar leg runs the whole metric suite this way); `on`
//! additionally warns when the hardware can't deliver. Each batch call
//! that takes a SIMD path counts `kernel.simd_dispatch`.
//!
//! The crate's [`crate::Euclidean`] impls dispatch here automatically
//! for dimensions above the monomorphized small-dim kernels (`d > 4`);
//! the `try_*` entry points are public so the equivalence tests and the
//! `ablation_dims` bench can pin both paths regardless of the knob.
//!
//! ## Safety audit
//!
//! Every `unsafe` block in this module carries a `// SAFETY:` comment;
//! the crate denies `unsafe_op_in_unsafe_fn`, so none is implicit. The
//! soundness of the unchecked loads rests on `Batch::check_shape`,
//! which every public driver calls first — for [`Batch::Ptrs`] that
//! includes verifying *every* row's length, so a ragged batch panics
//! instead of reading out of bounds.

use crate::kernels::{consider_max, sq_beats_threshold};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Points per SIMD block on every supported architecture.
const W: usize = 8;

// ---------------------------------------------------------------------
// The DIVMAX_SIMD knob
// ---------------------------------------------------------------------

/// The three positions of the `DIVMAX_SIMD` knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// Force the scalar kernels even when SIMD hardware is available.
    Off,
    /// Use SIMD iff the hardware supports it (the default).
    Auto,
    /// Like `Auto`, but warn (once) if the hardware can't deliver —
    /// for deployments that *expect* the fast path.
    On,
}

/// Knob spellings, aligned with [`MODES`].
const MODE_NAMES: &[&str] = &["off", "auto", "on"];
const MODES: [SimdMode; 3] = [SimdMode::Off, SimdMode::Auto, SimdMode::On];
/// Index of the default (`auto`) in [`MODES`].
const MODE_DEFAULT: usize = 1;

impl SimdMode {
    /// Strictly parses a `DIVMAX_SIMD` value: exactly `off`, `auto`, or
    /// `on` (whitespace-trimmed, case-sensitive); anything else is an
    /// error describing the rejection.
    pub fn parse(raw: &str) -> Result<Self, String> {
        diversity_obs::env::parse_choice(raw, MODE_NAMES).map(|i| MODES[i])
    }
}

fn env_mode() -> SimdMode {
    static MODE: OnceLock<SimdMode> = OnceLock::new();
    *MODE.get_or_init(|| MODES[diversity_obs::env::choice("DIVMAX_SIMD", MODE_NAMES, MODE_DEFAULT)])
}

/// Process-local override of the env knob: `0` = none, else
/// `1 + index into MODES`.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Overrides the `DIVMAX_SIMD` knob for this process (`None` restores
/// it). For benches and tests that must compare both paths in one
/// process — the env knob itself is read once and cached.
pub fn force_mode(mode: Option<SimdMode>) {
    FORCED.store(mode.map_or(0, |m| 1 + m as u8), Ordering::SeqCst);
}

/// The effective dispatch mode: a [`force_mode`] override if set, else
/// the strict-parsed `DIVMAX_SIMD` env knob (default `auto`).
pub fn mode() -> SimdMode {
    match FORCED.load(Ordering::SeqCst) {
        0 => env_mode(),
        f => MODES[(f - 1) as usize],
    }
}

/// Whether this host's hardware supports the SIMD kernels (AVX2 on
/// x86_64, NEON on aarch64). Cached after the first call.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(target_arch = "aarch64")]
    {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| std::arch::is_aarch64_feature_detected!("neon"))
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Whether the crate's metrics should dispatch to the SIMD kernels:
/// [`available`] gated by [`mode`].
pub fn enabled() -> bool {
    match mode() {
        SimdMode::Off => false,
        SimdMode::Auto => available(),
        SimdMode::On => {
            if !available() {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "[metric] DIVMAX_SIMD=on but no SIMD support detected; \
                         falling back to scalar kernels"
                    );
                });
            }
            available()
        }
    }
}

/// The kernel family [`enabled`] dispatch resolves to: `"avx2"`,
/// `"neon"`, or `"scalar"`.
pub fn dispatch_label() -> &'static str {
    if !enabled() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        "avx2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "scalar"
    }
}

// ---------------------------------------------------------------------
// Batch layouts
// ---------------------------------------------------------------------

/// The memory layouts the SIMD kernels can stream, describing where
/// point `i`'s coordinate `j` lives.
#[derive(Clone, Copy, Debug)]
pub enum Batch<'a> {
    /// Row-major contiguous rows (a [`crate::DenseStore`] run):
    /// `flat[i * dim + j]`.
    Flat {
        /// The coordinate buffer, exactly `len · dim` values.
        flat: &'a [f64],
        /// The ambient dimension.
        dim: usize,
    },
    /// Independent per-point coordinate slices (e.g. [`crate::VecPoint`]s):
    /// `rows[i][j]`. Lanes gather through four row pointers per vector.
    Ptrs {
        /// One coordinate slice per point, all of length `dim`.
        rows: &'a [&'a [f64]],
        /// The ambient dimension.
        dim: usize,
    },
}

impl Batch<'_> {
    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        match *self {
            Batch::Flat { flat, dim } => flat.len() / dim,
            Batch::Ptrs { rows, .. } => rows.len(),
        }
    }

    /// `true` when the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the batch shape against the query dimension. This is
    /// the soundness gate for the kernels' unchecked loads, so it is
    /// exhaustive: for [`Batch::Ptrs`] every row's length is checked (a
    /// ragged batch must panic here, not read out of bounds).
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    fn check_shape(&self, dim: usize) {
        assert!(dim > 0, "dimension must be positive");
        match *self {
            Batch::Flat { flat, dim: d } => {
                assert_eq!(d, dim, "batch/query dimension mismatch");
                assert_eq!(flat.len() % d, 0, "flat buffer not a multiple of dim");
            }
            Batch::Ptrs { rows, dim: d } => {
                assert_eq!(d, dim, "batch/query dimension mismatch");
                for (i, r) in rows.iter().enumerate() {
                    assert_eq!(r.len(), d, "row {i} has wrong dimension");
                }
            }
        }
    }

    /// Scalar squared distance of point `i` to `center`, in the exact
    /// scalar association order — the tail path of every driver.
    #[inline(always)]
    fn dsq_scalar(&self, center: &[f64], i: usize) -> f64 {
        match *self {
            Batch::Flat { flat, dim } => crate::kernels::l2_sq(center, &flat[i * dim..][..dim]),
            Batch::Ptrs { rows, .. } => crate::kernels::l2_sq(center, rows[i]),
        }
    }
}

// ---------------------------------------------------------------------
// Drivers (safe; shared across architectures)
// ---------------------------------------------------------------------

/// Squared distances of points `i..i+8`, one lane per point.
///
/// # Safety
/// The caller must guarantee that [`available`] returned `true`, that
/// `i + 8 <= batch.len()`, and that `batch.check_shape(center.len())`
/// passed (the kernels load without bounds checks on that basis).
#[inline]
unsafe fn dsq_block(batch: &Batch<'_>, center: &[f64], i: usize, out: &mut [f64; W]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: contract forwarded verbatim; `available()` on x86_64
    // means AVX2 was detected.
    unsafe {
        x86::dsq8_avx2(batch, center, i, out)
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: contract forwarded verbatim; `available()` on aarch64
    // means NEON was detected.
    unsafe {
        arm::dsq8_neon(batch, center, i, out)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (batch, center, i, out);
        unreachable!("no SIMD backend on this architecture");
    }
}

/// SIMD Euclidean distance sweep: writes `‖center − qᵢ‖₂` into
/// `out[i]`. Returns `false` (without touching `out`) when no SIMD
/// backend is available on this host; bitwise-identical to the scalar
/// kernel otherwise.
///
/// # Panics
/// Panics if the batch shape is inconsistent with `center` or
/// `out.len() != batch.len()`.
pub fn try_many(batch: &Batch<'_>, center: &[f64], out: &mut [f64]) -> bool {
    if !available() {
        return false;
    }
    let n = batch.len();
    batch.check_shape(center.len());
    assert_eq!(out.len(), n, "output length mismatch");
    let mut dsq = [0.0f64; W];
    let mut i = 0;
    while i + W <= n {
        // SAFETY: availability checked above; `i + W <= n`; shape
        // validated by `check_shape`.
        unsafe { dsq_block(batch, center, i, &mut dsq) };
        for w in 0..W {
            // Scalar sqrt per lane: correctly rounded, so identical to
            // both the scalar kernel and a vector sqrt — and it keeps
            // the unsafe surface down to the gather primitives.
            out[i + w] = dsq[w].sqrt();
        }
        i += W;
    }
    for (ii, o) in out.iter_mut().enumerate().skip(i) {
        *o = batch.dsq_scalar(center, ii).sqrt();
    }
    if diversity_obs::enabled() {
        diversity_obs::count("kernel.distances", n as u64);
        diversity_obs::count("kernel.simd_dispatch", 1);
    }
    true
}

/// SIMD GMM relaxation with root elision and fused argmax — the SIMD
/// counterpart of `kernels::euclidean_relax`, bitwise-identical to it
/// (squared distances per lane in scalar order; thresholds, roots, and
/// the argmax fold run in the scalar epilogue). Returns `None` when no
/// SIMD backend is available (inputs untouched), `Some(best)`
/// otherwise.
///
/// # Panics
/// Panics if the batch shape is inconsistent with `center` or the
/// `dists` / `assignment` lengths differ from `batch.len()`.
#[allow(clippy::type_complexity)]
pub fn try_relax(
    batch: &Batch<'_>,
    center: &[f64],
    dists: &mut [f64],
    assignment: &mut [usize],
    cj: usize,
) -> Option<Option<(usize, f64)>> {
    if !available() {
        return None;
    }
    let n = batch.len();
    batch.check_shape(center.len());
    assert_eq!(dists.len(), n, "dists length mismatch");
    assert_eq!(assignment.len(), n, "assignment length mismatch");
    let mut best: Option<(usize, f64)> = None;
    let mut elided = 0u64;
    let mut dsq = [0.0f64; W];
    let mut i = 0;
    while i + W <= n {
        // SAFETY: availability checked above; `i + W <= n`; shape
        // validated by `check_shape`.
        unsafe { dsq_block(batch, center, i, &mut dsq) };
        for w in 0..W {
            if !sq_beats_threshold(dsq[w], dists[i + w]) {
                let d = dsq[w].sqrt();
                if d < dists[i + w] {
                    dists[i + w] = d;
                    assignment[i + w] = cj;
                }
            } else {
                elided += 1;
            }
            consider_max(&mut best, i + w, dists[i + w]);
        }
        i += W;
    }
    for ii in i..n {
        let d_sq = batch.dsq_scalar(center, ii);
        if !sq_beats_threshold(d_sq, dists[ii]) {
            let d = d_sq.sqrt();
            if d < dists[ii] {
                dists[ii] = d;
                assignment[ii] = cj;
            }
        } else {
            elided += 1;
        }
        consider_max(&mut best, ii, dists[ii]);
    }
    if diversity_obs::enabled() {
        diversity_obs::count("kernel.distances", n as u64);
        diversity_obs::count("kernel.relax_fused_rounds", 1);
        diversity_obs::count("kernel.roots_elided", elided);
        diversity_obs::count("kernel.simd_dispatch", 1);
    }
    Some(best)
}

/// SIMD early-exit coverage check: `Some(true)` iff some point of the
/// batch is within `threshold` of `center`, deciding every comparison
/// exactly as the scalar kernel does (squared compare against the
/// `next_up` guard, root only on candidates). `None` when no SIMD
/// backend is available.
///
/// # Panics
/// Panics if the batch shape is inconsistent with `center`.
pub fn try_within(batch: &Batch<'_>, center: &[f64], threshold: f64) -> Option<bool> {
    if !available() {
        return None;
    }
    let n = batch.len();
    batch.check_shape(center.len());
    if diversity_obs::enabled() {
        diversity_obs::count("kernel.simd_dispatch", 1);
    }
    // Same guard as `kernels::euclidean_within`: the scalar test is
    // non-strict (`d <= threshold`), so elide on the *next*
    // representable incumbent's square.
    let guard = threshold.next_up();
    let thr_sq = guard * guard;
    let mut dsq = [0.0f64; W];
    let mut i = 0;
    while i + W <= n {
        // SAFETY: availability checked above; `i + W <= n`; shape
        // validated by `check_shape`.
        unsafe { dsq_block(batch, center, i, &mut dsq) };
        for &d_sq in &dsq {
            if d_sq <= thr_sq && d_sq.sqrt() <= threshold {
                return Some(true);
            }
        }
        i += W;
    }
    for ii in i..n {
        let d_sq = batch.dsq_scalar(center, ii);
        if d_sq <= thr_sq && d_sq.sqrt() <= threshold {
            return Some(true);
        }
    }
    Some(false)
}

// ---------------------------------------------------------------------
// AVX2 (x86_64)
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Batch, W};
    use std::arch::x86_64::*;

    /// 4×4 register transpose: four row vectors `[r_w[j..j+4]]` become
    /// four dimension vectors `[r_0[j+t], r_1[j+t], r_2[j+t], r_3[j+t]]`
    /// for `t = 0..4`. Pure lane shuffling — no arithmetic, so it
    /// cannot perturb the bitwise contract.
    #[inline(always)]
    fn transpose4(
        r0: __m256d,
        r1: __m256d,
        r2: __m256d,
        r3: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        // SAFETY: shuffle intrinsics are safe under the avx2 target
        // feature of every caller in this module.
        unsafe {
            let t01_lo = _mm256_unpacklo_pd(r0, r1); // [a0 b0 a2 b2]
            let t01_hi = _mm256_unpackhi_pd(r0, r1); // [a1 b1 a3 b3]
            let t23_lo = _mm256_unpacklo_pd(r2, r3); // [c0 d0 c2 d2]
            let t23_hi = _mm256_unpackhi_pd(r2, r3); // [c1 d1 c3 d3]
            (
                _mm256_permute2f128_pd(t01_lo, t23_lo, 0x20), // [a0 b0 c0 d0]
                _mm256_permute2f128_pd(t01_hi, t23_hi, 0x20), // [a1 b1 c1 d1]
                _mm256_permute2f128_pd(t01_lo, t23_lo, 0x31), // [a2 b2 c2 d2]
                _mm256_permute2f128_pd(t01_hi, t23_hi, 0x31), // [a3 b3 c3 d3]
            )
        }
    }

    /// Squared distances of points `i..i+8` to `center`: two 4-wide
    /// accumulator chains, each lane in scalar association order, no
    /// FMA (`vmulpd` + `vaddpd`, exactly the scalar rounding).
    ///
    /// Row-major batches (`Flat` / `Ptrs`) take 4-dimension strides:
    /// one contiguous 4-wide load per row, a register transpose into
    /// dimension vectors, then the accumulators consume dimensions
    /// `j, j+1, j+2, j+3` in order — the same per-lane accumulation
    /// order as the scalar kernel, at a quarter of the shuffle traffic
    /// of per-dimension scalar gathers. The `dim % 4` tail keeps the
    /// per-dimension gather.
    ///
    /// # Safety
    /// AVX2 must be available; `i + 8 <= batch.len()`; the batch shape
    /// must have passed `Batch::check_shape(center.len())` (all
    /// unchecked loads below are in bounds on that basis).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dsq8_avx2(
        batch: &Batch<'_>,
        center: &[f64],
        i: usize,
        out: &mut [f64; W],
    ) {
        let dim = center.len();
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        match *batch {
            Batch::Flat { flat, .. } => {
                let base = i * dim;
                // SAFETY: rows `i..i+8` exist (caller contract), so
                // every index `base + w·dim + j` with `w < 8`, `j < dim`
                // is within `flat`; 4-wide loads additionally require
                // `j + 4 <= dim`, which the loop bound guarantees.
                unsafe {
                    let p = flat.as_ptr().add(base);
                    let row = |w: usize, j: usize| _mm256_loadu_pd(p.add(w * dim + j));
                    let mut j = 0;
                    while j + 4 <= dim {
                        let (c0, c1, c2, c3) =
                            transpose4(row(0, j), row(1, j), row(2, j), row(3, j));
                        let (e0, e1, e2, e3) =
                            transpose4(row(4, j), row(5, j), row(6, j), row(7, j));
                        for (t, (c, e)) in [(c0, e0), (c1, e1), (c2, e2), (c3, e3)]
                            .into_iter()
                            .enumerate()
                        {
                            let cv = _mm256_set1_pd(*center.get_unchecked(j + t));
                            let d_lo = _mm256_sub_pd(cv, c);
                            let d_hi = _mm256_sub_pd(cv, e);
                            lo = _mm256_add_pd(lo, _mm256_mul_pd(d_lo, d_lo));
                            hi = _mm256_add_pd(hi, _mm256_mul_pd(d_hi, d_hi));
                        }
                        j += 4;
                    }
                    while j < dim {
                        let cv = _mm256_set1_pd(*center.get_unchecked(j));
                        let at = |w: usize| *flat.get_unchecked(base + w * dim + j);
                        let q_lo = _mm256_set_pd(at(3), at(2), at(1), at(0));
                        let q_hi = _mm256_set_pd(at(7), at(6), at(5), at(4));
                        let d_lo = _mm256_sub_pd(cv, q_lo);
                        let d_hi = _mm256_sub_pd(cv, q_hi);
                        lo = _mm256_add_pd(lo, _mm256_mul_pd(d_lo, d_lo));
                        hi = _mm256_add_pd(hi, _mm256_mul_pd(d_hi, d_hi));
                        j += 1;
                    }
                }
            }
            Batch::Ptrs { rows, .. } => {
                // SAFETY: `i + 8 <= rows.len()` (caller contract), and
                // `check_shape` verified every row has length `dim`, so
                // both the 4-wide loads (`j + 4 <= dim`) and the scalar
                // tail reads are in bounds.
                unsafe {
                    let r = rows.get_unchecked(i..i + 8);
                    let row = |w: usize, j: usize| _mm256_loadu_pd(r[w].as_ptr().add(j));
                    let mut j = 0;
                    while j + 4 <= dim {
                        let (c0, c1, c2, c3) =
                            transpose4(row(0, j), row(1, j), row(2, j), row(3, j));
                        let (e0, e1, e2, e3) =
                            transpose4(row(4, j), row(5, j), row(6, j), row(7, j));
                        for (t, (c, e)) in [(c0, e0), (c1, e1), (c2, e2), (c3, e3)]
                            .into_iter()
                            .enumerate()
                        {
                            let cv = _mm256_set1_pd(*center.get_unchecked(j + t));
                            let d_lo = _mm256_sub_pd(cv, c);
                            let d_hi = _mm256_sub_pd(cv, e);
                            lo = _mm256_add_pd(lo, _mm256_mul_pd(d_lo, d_lo));
                            hi = _mm256_add_pd(hi, _mm256_mul_pd(d_hi, d_hi));
                        }
                        j += 4;
                    }
                    while j < dim {
                        let cv = _mm256_set1_pd(*center.get_unchecked(j));
                        let at = |w: usize| *r[w].get_unchecked(j);
                        let q_lo = _mm256_set_pd(at(3), at(2), at(1), at(0));
                        let q_hi = _mm256_set_pd(at(7), at(6), at(5), at(4));
                        let d_lo = _mm256_sub_pd(cv, q_lo);
                        let d_hi = _mm256_sub_pd(cv, q_hi);
                        lo = _mm256_add_pd(lo, _mm256_mul_pd(d_lo, d_lo));
                        hi = _mm256_add_pd(hi, _mm256_mul_pd(d_hi, d_hi));
                        j += 1;
                    }
                }
            }
        }
        // SAFETY: `out` is 8 f64s; two non-overlapping unaligned
        // 4-wide stores.
        unsafe {
            _mm256_storeu_pd(out.as_mut_ptr(), lo);
            _mm256_storeu_pd(out.as_mut_ptr().add(4), hi);
        }
    }
}

// ---------------------------------------------------------------------
// NEON (aarch64)
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{Batch, W};
    use std::arch::aarch64::*;

    /// Squared distances of points `i..i+8` to `center`: four 2-wide
    /// accumulator chains, each lane in scalar association order, no
    /// FMA (`fmul` + `fadd`, exactly the scalar rounding).
    ///
    /// # Safety
    /// NEON must be available; `i + 8 <= batch.len()`; the batch shape
    /// must have passed `Batch::check_shape(center.len())`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dsq8_neon(
        batch: &Batch<'_>,
        center: &[f64],
        i: usize,
        out: &mut [f64; W],
    ) {
        let dim = center.len();
        let mut acc = [vdupq_n_f64(0.0); 4];
        match *batch {
            Batch::Flat { flat, .. } => {
                let base = i * dim;
                for (j, &c) in center.iter().enumerate() {
                    let cv = vdupq_n_f64(c);
                    for (v, a) in acc.iter_mut().enumerate() {
                        // SAFETY: rows `i..i+8` exist (caller
                        // contract); indices `base + w·dim + j` with
                        // `w < 8` are within `flat`.
                        let q = unsafe {
                            vcombine_f64(
                                vdup_n_f64(*flat.get_unchecked(base + 2 * v * dim + j)),
                                vdup_n_f64(*flat.get_unchecked(base + (2 * v + 1) * dim + j)),
                            )
                        };
                        let d = vsubq_f64(cv, q);
                        *a = vaddq_f64(*a, vmulq_f64(d, d));
                    }
                }
            }
            Batch::Ptrs { rows, .. } => {
                // SAFETY: `i + 8 <= rows.len()` (caller contract).
                let r = unsafe { rows.get_unchecked(i..i + 8) };
                for (j, &c) in center.iter().enumerate() {
                    let cv = vdupq_n_f64(c);
                    for (v, a) in acc.iter_mut().enumerate() {
                        // SAFETY: `check_shape` verified every row has
                        // length `dim > j`.
                        let q = unsafe {
                            vcombine_f64(
                                vdup_n_f64(*r[2 * v].get_unchecked(j)),
                                vdup_n_f64(*r[2 * v + 1].get_unchecked(j)),
                            )
                        };
                        let d = vsubq_f64(cv, q);
                        *a = vaddq_f64(*a, vmulq_f64(d, d));
                    }
                }
            }
        }
        for (v, a) in acc.iter().enumerate() {
            // SAFETY: `out` is 8 f64s; four non-overlapping pair
            // stores.
            unsafe { vst1q_f64(out.as_mut_ptr().add(2 * v), *a) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_strictly_per_value() {
        assert_eq!(SimdMode::parse("off"), Ok(SimdMode::Off));
        assert_eq!(SimdMode::parse("auto"), Ok(SimdMode::Auto));
        assert_eq!(SimdMode::parse(" on "), Ok(SimdMode::On));
        // Per-value rejections: strict knobs never guess.
        for bad in [
            "", "  ", "OFF", "On", "AUTO", "0", "1", "true", "fast", "on,off",
        ] {
            assert!(SimdMode::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn force_mode_overrides_and_restores() {
        force_mode(Some(SimdMode::Off));
        assert_eq!(mode(), SimdMode::Off);
        assert!(!enabled(), "off must force the scalar path");
        assert_eq!(dispatch_label(), "scalar");
        force_mode(Some(SimdMode::Auto));
        assert_eq!(mode(), SimdMode::Auto);
        assert_eq!(enabled(), available());
        force_mode(None);
        let _ = mode(); // back to the cached env knob, whatever it is
    }

    #[test]
    fn batch_len_accounts_for_layout() {
        let flat = vec![0.0; 12];
        assert_eq!(
            Batch::Flat {
                flat: &flat,
                dim: 3
            }
            .len(),
            4
        );
        let r0 = [0.0; 3];
        let rows: Vec<&[f64]> = vec![&r0, &r0];
        assert_eq!(
            Batch::Ptrs {
                rows: &rows,
                dim: 3
            }
            .len(),
            2
        );
        assert!(Batch::Flat { flat: &[], dim: 3 }.is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn ragged_ptr_batch_is_rejected_before_any_load() {
        if !available() {
            panic!("row 0 has wrong dimension"); // keep the expectation on non-SIMD hosts
        }
        let r0 = [0.0; 5];
        let r1 = [0.0; 4]; // ragged!
        let rows: Vec<&[f64]> = vec![&r0, &r1, &r0, &r0, &r0, &r0, &r0, &r0];
        let center = [0.0; 5];
        let mut out = vec![0.0; 8];
        let _ = try_many(
            &Batch::Ptrs {
                rows: &rows,
                dim: 5,
            },
            &center,
            &mut out,
        );
    }
}
