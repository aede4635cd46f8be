//! Brute-force Hamming-distance matching.
//!
//! Software reference of the paper's BRIEF Matcher (§3.2): for each
//! descriptor of the current frame, compute the Hamming distance to every
//! map descriptor and keep the minimum. Optional filters (distance cap,
//! Lowe ratio, cross-check) are provided for the software pipeline; the
//! hardware unit implements only the plain minimum search, as described in
//! the paper.
//!
//! The production kernels ([`match_brute_force`], [`match_with_ratio`])
//! are cache-tiled over the `[u64; 4]` descriptor words — train tiles
//! stay L1-resident while a block of query rows streams over them — and
//! split the query rows across a persistent [`WorkerPool`] on multicore
//! hosts (the process-global pool for the plain entry points, an
//! explicit pool for [`match_brute_force_in`] / [`match_with_ratio_in`]).
//!
//! # Kernel dispatch ladder
//!
//! The Hamming inner loop dispatches at runtime down the ladder
//! **avx512 → avx2 → popcnt → scalar** ([`MatchKernel`]):
//!
//! * [`MatchKernel::Avx512`] — two descriptors per ZMM register,
//!   per-word `vpopcntq`, distances folded eight at a time and the
//!   running `(distance, index)` minimum kept per lane with `vpminuq`;
//! * [`MatchKernel::Avx2`] — whole 256-bit descriptors in one YMM
//!   register, popcounted with the Mula nibble-LUT `pshufb` algorithm
//!   (`vpsadbw` horizontal add), hybridised with the scalar popcount
//!   port: each inner step feeds eight trains to the SIMD pipe and
//!   eight to independent scalar `popcnt` chains, which the
//!   out-of-order core executes concurrently;
//! * [`MatchKernel::Popcnt`] — four `u64` xor + `popcnt` pairs;
//! * [`MatchKernel::Scalar`] — the same loop without any target-feature
//!   enablement (LLVM's SWAR popcount on baseline x86-64).
//!
//! The `ESLAM_MATCH_KERNEL` environment variable ([`MATCH_KERNEL_ENV`])
//! forces a rung for CI's per-kernel test matrix; see [`active_kernel`].
//! It is the one override the library reads itself: the rung sits below
//! every API, so no configuration struct carries it.
//! The straightforward scalar loops are retained as
//! [`match_brute_force_reference`] / [`match_with_ratio_reference`]; all
//! kernels are bit-identical to them (proven by unit and property tests).

use crate::descriptor::Descriptor;
use crate::pool::WorkerPool;
use std::sync::OnceLock;

/// Train descriptors per tile: 128 × 32 B = 4 KiB, comfortably
/// L1-resident together with a query block.
const TRAIN_TILE: usize = 128;
/// Query rows per block inside one tile pass.
const QUERY_BLOCK: usize = 8;
/// Minimum query rows per additional thread — below this the spawn
/// overhead outweighs the parallelism.
const MIN_ROWS_PER_THREAD: usize = 64;

/// Environment variable forcing the matcher kernel: `auto` (default),
/// `scalar`, `popcnt`, `avx2`, or `avx512`. CI runs the test suite once
/// per value so every rung of the dispatch ladder is exercised on every
/// PR.
pub const MATCH_KERNEL_ENV: &str = "ESLAM_MATCH_KERNEL";

/// One rung of the Hamming-kernel dispatch ladder (fastest first:
/// `Avx512` → `Avx2` → `Popcnt` → `Scalar`). All rungs are
/// bit-identical; they differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchKernel {
    /// Portable scalar loop (no target-feature enablement).
    Scalar,
    /// x86-64 `popcnt`-enabled loop (runtime-detected).
    Popcnt,
    /// x86-64 AVX2 Mula nibble-LUT `pshufb` popcount over whole 256-bit
    /// descriptors in one YMM register, hybridised with the scalar
    /// popcount port (runtime-detected; also requires `popcnt`).
    Avx2,
    /// x86-64 AVX-512 `vpopcntq` over pairs of descriptors per ZMM
    /// register (runtime-detected: `avx512f` + `avx512vpopcntdq`, plus
    /// `popcnt` for tile remainders).
    Avx512,
}

impl MatchKernel {
    /// Every rung, slowest first.
    pub const ALL: [MatchKernel; 4] = [
        MatchKernel::Scalar,
        MatchKernel::Popcnt,
        MatchKernel::Avx2,
        MatchKernel::Avx512,
    ];

    /// Whether the running CPU can execute this kernel.
    pub fn is_supported(self) -> bool {
        match self {
            MatchKernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            MatchKernel::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            MatchKernel::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(target_arch = "x86_64")]
            MatchKernel::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The fastest kernel the running CPU supports.
    pub fn detect() -> MatchKernel {
        if MatchKernel::Avx512.is_supported() {
            MatchKernel::Avx512
        } else if MatchKernel::Avx2.is_supported() {
            MatchKernel::Avx2
        } else if MatchKernel::Popcnt.is_supported() {
            MatchKernel::Popcnt
        } else {
            MatchKernel::Scalar
        }
    }

    /// The kernel's lowercase name (the `ESLAM_MATCH_KERNEL` value).
    pub fn name(self) -> &'static str {
        match self {
            MatchKernel::Scalar => "scalar",
            MatchKernel::Popcnt => "popcnt",
            MatchKernel::Avx2 => "avx2",
            MatchKernel::Avx512 => "avx512",
        }
    }

    /// Parses a kernel name (`"scalar"`, `"popcnt"`, `"avx2"`,
    /// `"avx512"`).
    pub fn from_name(name: &str) -> Option<MatchKernel> {
        match name {
            "scalar" => Some(MatchKernel::Scalar),
            "popcnt" => Some(MatchKernel::Popcnt),
            "avx2" => Some(MatchKernel::Avx2),
            "avx512" => Some(MatchKernel::Avx512),
            _ => None,
        }
    }
}

/// Parses a raw [`MATCH_KERNEL_ENV`] value (`None` when unset) under the
/// [`crate::envopt::forced`] contract: the one parser of the kernel
/// override, shared by [`active_kernel`] and `eslam_core::Overrides`.
///
/// # Panics
/// Panics when `raw` names no kernel and is not `auto` or empty.
pub fn forced_kernel(raw: Option<&str>) -> Option<MatchKernel> {
    crate::envopt::forced(
        MATCH_KERNEL_ENV,
        raw,
        "auto, scalar, popcnt, avx2 or avx512",
        MatchKernel::from_name,
    )
}

/// The kernel the production entry points dispatch to, resolved once:
/// the fastest supported rung, unless [`MATCH_KERNEL_ENV`] forces one.
/// A forced kernel the CPU cannot run falls back to [`MatchKernel::detect`]
/// (with a warning through the telemetry event ring) so a `avx2`-forced
/// suite still runs on an AVX2-less machine; an unrecognised value
/// panics, so CI matrix typos fail loudly instead of silently testing
/// the auto-detected rung.
pub fn active_kernel() -> MatchKernel {
    static ACTIVE: OnceLock<MatchKernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let forced = forced_kernel(std::env::var(MATCH_KERNEL_ENV).ok().as_deref());
        match forced {
            None => MatchKernel::detect(),
            Some(kernel) if kernel.is_supported() => kernel,
            Some(kernel) => {
                eslam_telemetry::events::warn(format!(
                    "{MATCH_KERNEL_ENV}={} is not supported by this CPU; \
                     falling back to {}",
                    kernel.name(),
                    MatchKernel::detect().name(),
                ));
                MatchKernel::detect()
            }
        }
    })
}

/// A correspondence between a query descriptor and a train descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescriptorMatch {
    /// Index into the query set (current frame).
    pub query: usize,
    /// Index into the train set (map points).
    pub train: usize,
    /// Hamming distance between the two descriptors.
    pub distance: u32,
}

/// For each query descriptor, finds the nearest train descriptor
/// (minimum Hamming distance; ties keep the lowest train index, matching
/// the sequential hardware comparator). Matches with distance above
/// `max_distance` are dropped.
///
/// Returns matches ordered by query index. Empty train sets yield no
/// matches.
///
/// # Examples
///
/// ```
/// use eslam_features::{Descriptor, matcher::match_brute_force};
/// let q = [Descriptor::from_words([0b1011, 0, 0, 0])];
/// let t = [
///     Descriptor::from_words([0b0011, 0, 0, 0]), // distance 1
///     Descriptor::from_words([0b1111, 0, 0, 0]), // distance 1 (tie — first wins)
///     Descriptor::ZERO,                            // distance 3
/// ];
/// let m = match_brute_force(&q, &t, u32::MAX);
/// assert_eq!(m[0].train, 0);
/// assert_eq!(m[0].distance, 1);
/// ```
pub fn match_brute_force(
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    match_brute_force_in(WorkerPool::global(), query, train, max_distance)
}

/// [`match_brute_force`] running its parallel rows on an explicit
/// [`WorkerPool`] (e.g. the pool owned by the SLAM system) instead of
/// the process-global one. Results are identical for any pool size.
pub fn match_brute_force_in(
    pool: &WorkerPool,
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    // (distance, train index) per query; train is non-empty, so every
    // query has a nearest neighbour.
    let mut best = vec![(u32::MAX, 0u32); query.len()];
    run_rows(pool, query, &mut best, |rows, out| {
        nearest_rows(rows, train, out)
    });
    collect_nearest(&best, max_distance)
}

/// [`match_brute_force`] forced onto one dispatch rung, single-threaded.
///
/// This is the hook the per-kernel property tests and the
/// `matcher_kernels` benches use to pin a rung regardless of
/// [`MATCH_KERNEL_ENV`]; an unsupported `kernel` falls back to
/// [`MatchKernel::Scalar`]. Production callers want [`match_brute_force`].
pub fn match_brute_force_with_kernel(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    let mut best = vec![(u32::MAX, 0u32); query.len()];
    nearest_rows_with(kernel, query, train, &mut best);
    collect_nearest(&best, max_distance)
}

/// Folds per-row `(distance, train)` minima into the match list.
fn collect_nearest(best: &[(u32, u32)], max_distance: u32) -> Vec<DescriptorMatch> {
    best.iter()
        .enumerate()
        .filter(|(_, &(d, _))| d <= max_distance)
        .map(|(qi, &(d, ti))| DescriptorMatch {
            query: qi,
            train: ti as usize,
            distance: d,
        })
        .collect()
}

/// Scalar reference of [`match_brute_force`] (one query at a time, no
/// tiling/threading); the bit-exact oracle for the production kernel.
pub fn match_brute_force_reference(
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    let mut out = Vec::with_capacity(query.len());
    for (qi, q) in query.iter().enumerate() {
        let mut best: Option<(usize, u32)> = None;
        for (ti, t) in train.iter().enumerate() {
            let d = q.hamming(t);
            match best {
                Some((_, bd)) if d >= bd => {}
                _ => best = Some((ti, d)),
            }
        }
        if let Some((ti, d)) = best {
            if d <= max_distance {
                out.push(DescriptorMatch {
                    query: qi,
                    train: ti,
                    distance: d,
                });
            }
        }
    }
    out
}

/// Splits `out` (one slot per query row) across the worker pool and runs
/// `kernel` on each piece. Row order inside a piece is preserved and
/// pieces are disjoint, so the result is independent of the split.
fn run_rows<T: Send>(
    pool: &WorkerPool,
    query: &[Descriptor],
    out: &mut [T],
    kernel: impl Fn(&[Descriptor], &mut [T]) + Sync,
) {
    let threads = pool.threads().min(query.len() / MIN_ROWS_PER_THREAD).max(1);
    if threads == 1 {
        kernel(query, out);
        return;
    }
    let chunk = query.len().div_ceil(threads);
    let kernel = &kernel;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = query
        .chunks(chunk)
        .zip(out.chunks_mut(chunk))
        .map(|(q_chunk, o_chunk)| {
            Box::new(move || kernel(q_chunk, o_chunk)) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scope_run(tasks);
}

/// Cache-tiled nearest-neighbour search: `out[i]` becomes the minimum
/// `(distance, train index)` for `query[i]`, ties keeping the lowest
/// train index (train scanned in ascending order).
///
/// Inside a tile, query rows are register-blocked in pairs: each train
/// descriptor's four words are loaded once and xor-popcounted against
/// both queries, halving the load traffic and doubling the independent
/// instruction streams.
#[inline(always)]
fn nearest_rows_inner(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32)]) {
    for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
        let base = (tile_idx * TRAIN_TILE) as u32;
        for (q_block, o_block) in query.chunks(QUERY_BLOCK).zip(out.chunks_mut(QUERY_BLOCK)) {
            let even = q_block.len() & !1;
            let (q_even, q_rem) = q_block.split_at(even);
            let (o_even, o_rem) = o_block.split_at_mut(even);
            for (qs, os) in q_even.chunks_exact(2).zip(o_even.chunks_exact_mut(2)) {
                let (q0, q1) = (&qs[0], &qs[1]);
                let (mut b0, mut b1) = (os[0], os[1]);
                for (j, t) in tile.iter().enumerate() {
                    let d0 = q0.hamming(t);
                    let d1 = q1.hamming(t);
                    if d0 < b0.0 {
                        b0 = (d0, base + j as u32);
                    }
                    if d1 < b1.0 {
                        b1 = (d1, base + j as u32);
                    }
                }
                os[0] = b0;
                os[1] = b1;
            }
            // Odd trailing query row of the block.
            for (q, o) in q_rem.iter().zip(o_rem.iter_mut()) {
                let mut best = *o;
                for (j, t) in tile.iter().enumerate() {
                    let d = q.hamming(t);
                    if d < best.0 {
                        best = (d, base + j as u32);
                    }
                }
                *o = best;
            }
        }
    }
}

/// Like [`nearest_rows_inner`], additionally tracking the second-best
/// distance for the Lowe ratio test, with the reference's update rule.
#[inline(always)]
fn nearest2_rows_inner(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32, u32)]) {
    for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
        let base = (tile_idx * TRAIN_TILE) as u32;
        for (q_block, o_block) in query.chunks(QUERY_BLOCK).zip(out.chunks_mut(QUERY_BLOCK)) {
            for (q, o) in q_block.iter().zip(o_block.iter_mut()) {
                let (mut best_d, mut best_i, mut second) = *o;
                for (j, t) in tile.iter().enumerate() {
                    let d = q.hamming(t);
                    if d < best_d {
                        second = best_d;
                        best_d = d;
                        best_i = base + j as u32;
                    } else {
                        second = second.min(d);
                    }
                }
                *o = (best_d, best_i, second);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn nearest_rows_popcnt(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32)]) {
    nearest_rows_inner(query, train, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn nearest2_rows_popcnt(
    query: &[Descriptor],
    train: &[Descriptor],
    out: &mut [(u32, u32, u32)],
) {
    nearest2_rows_inner(query, train, out)
}

/// Scalar `popcnt` the auto-vectorizer cannot rewrite. Inside a wide
/// `#[target_feature]` function LLVM's cost model turns
/// `u64::count_ones` loops into vector (pshufb) popcounts — exactly the
/// ports the SIMD kernels already saturate, defeating any hybrid
/// overlap. The asm pins this helper to the scalar popcount port.
///
/// Callers must guarantee `popcnt` support (every SIMD rung's dispatch
/// gate includes it).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn popcnt64(x: u64) -> u64 {
    let r: u64;
    // SAFETY: no memory access, no flags the surrounding code relies on;
    // `popcnt` availability is guaranteed by the dispatch gates.
    unsafe {
        std::arch::asm!(
            "popcnt {r}, {x}",
            r = out(reg) r,
            x = in(reg) x,
            options(pure, nomem, nostack),
        );
    }
    r
}

/// Hamming distance on the scalar popcount port (see [`popcnt64`]).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn hamming_scalar(a: &Descriptor, b: &Descriptor) -> u32 {
    let (a, b) = (&a.words, &b.words);
    (popcnt64(a[0] ^ b[0]) + popcnt64(a[1] ^ b[1]) + popcnt64(a[2] ^ b[2]) + popcnt64(a[3] ^ b[3]))
        as u32
}

/// The top rung: AVX-512 `vpopcntq`. A ZMM register holds **two**
/// descriptors, so one load + xor + `vpopcntq` covers two pairs; a
/// shuffle tree folds four ZMMs' per-word counts into eight distances
/// at once, and a native unsigned 64-bit min (`vpminuq`, absent from
/// AVX2) keeps the running `(distance << 32) | index` key minimum per
/// lane — ≈3 µops per pair against the popcnt rung's port-1-bound 4.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{hamming_scalar, Descriptor, TRAIN_TILE};
    use std::arch::x86_64::*;

    /// Trains per inner step: four ZMMs of two descriptors each.
    const GROUP: usize = 8;

    /// Lane sentinel: no candidate yet (real keys < 2⁴¹).
    const KEY_SENTINEL: u64 = u64::MAX;

    /// Train offset, within a group, of each lane of [`distances_x8`]'s
    /// output (ZMM `i` holds trains `2i` and `2i+1`; the fold interleaves
    /// them as below).
    const LANE_TRAIN_OFFSETS: [u64; 8] = [0, 2, 4, 6, 1, 3, 5, 7];

    /// Eight distances of one (duplicated) query against eight train
    /// descriptors, in [`LANE_TRAIN_OFFSETS`] lane order.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq")]
    unsafe fn distances_x8(q2: __m512i, octet: &[Descriptor]) -> __m512i {
        // SAFETY (caller): avx512f + avx512vpopcntdq available; `octet`
        // holds ≥ 8 descriptors (64 contiguous bytes per pair of them).
        let t0 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().cast()),
        ));
        let t1 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().add(2).cast()),
        ));
        let t2 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().add(4).cast()),
        ));
        let t3 = _mm512_popcnt_epi64(_mm512_xor_si512(
            q2,
            _mm512_loadu_si512(octet.as_ptr().add(6).cast()),
        ));
        // Fold the eight per-word counts of each ZMM down to per-128-bit
        // partials, pairing sources so all eight distances materialise in
        // two permutes + three adds.
        let w01 = _mm512_add_epi64(_mm512_unpacklo_epi64(t0, t1), _mm512_unpackhi_epi64(t0, t1));
        let w23 = _mm512_add_epi64(_mm512_unpacklo_epi64(t2, t3), _mm512_unpackhi_epi64(t2, t3));
        // w01 lanes: [P00a P10a P00b P10b P01a P11a P01b P11b] where
        // Pij{a,b} = half-descriptor partials of ZMM i, descriptor j.
        let first = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        let second = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
        let a = _mm512_permutex2var_epi64(w01, first, w23);
        let b = _mm512_permutex2var_epi64(w01, second, w23);
        _mm512_add_epi64(a, b)
    }

    /// Packed `(distance << 32) | global_train_index` keys for a group.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq")]
    unsafe fn keys_x8(q2: __m512i, octet: &[Descriptor], idx: __m512i) -> __m512i {
        _mm512_add_epi64(_mm512_slli_epi64::<32>(distances_x8(q2, octet)), idx)
    }

    /// AVX-512 twin of `nearest_rows_inner`: identical tiling, identical
    /// ascending-index tie rule (packed keys order by distance then
    /// index; `vpminuq` keeps the per-lane minimum; the scalar fold and
    /// the carried best preserve first-occurrence semantics).
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq", enable = "popcnt")]
    pub(super) unsafe fn nearest_rows(
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut [(u32, u32)],
    ) {
        let step = _mm512_set1_epi64(GROUP as i64);
        let offsets = _mm512_loadu_si512(LANE_TRAIN_OFFSETS.as_ptr().cast());
        for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
            let base = (tile_idx * TRAIN_TILE) as u32;
            let groups = tile.len() / GROUP;
            let rem = &tile[groups * GROUP..];
            for (q, o) in query.iter().zip(out.iter_mut()) {
                let q2 = _mm512_broadcast_i64x4(_mm256_loadu_si256(q.words.as_ptr().cast()));
                let mut idx = _mm512_add_epi64(_mm512_set1_epi64(base as i64), offsets);
                let mut best = _mm512_set1_epi64(KEY_SENTINEL as i64);
                for group in tile.chunks_exact(GROUP) {
                    best = _mm512_min_epu64(best, keys_x8(q2, group, idx));
                    idx = _mm512_add_epi64(idx, step);
                }
                let mut keys = [KEY_SENTINEL; 8];
                _mm512_storeu_si512(keys.as_mut_ptr().cast(), best);
                // Carried best first: its index is the lowest seen, so it
                // wins distance ties under the unsigned key order.
                let carried = ((o.0 as u64) << 32) | o.1 as u64;
                let key = keys.iter().fold(carried, |acc, &k| acc.min(k));
                let (mut best_d, mut best_i) = ((key >> 32) as u32, key as u32);
                for (k, t) in rem.iter().enumerate() {
                    let d = hamming_scalar(q, t);
                    if d < best_d {
                        best_d = d;
                        best_i = base + (groups * GROUP + k) as u32;
                    }
                }
                *o = (best_d, best_i);
            }
        }
    }

    /// AVX-512 twin of `nearest2_rows_inner`: per-lane top-2 keys via a
    /// `vpminuq`/`vpmaxuq` sorting network, merged exactly like the AVX2
    /// rung (multiset top-2 with first-occurrence index).
    #[target_feature(enable = "avx512f", enable = "avx512vpopcntdq", enable = "popcnt")]
    pub(super) unsafe fn nearest2_rows(
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut [(u32, u32, u32)],
    ) {
        let step = _mm512_set1_epi64(GROUP as i64);
        let offsets = _mm512_loadu_si512(LANE_TRAIN_OFFSETS.as_ptr().cast());
        for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
            let base = (tile_idx * TRAIN_TILE) as u32;
            let groups = tile.len() / GROUP;
            let rem = &tile[groups * GROUP..];
            for (q, o) in query.iter().zip(out.iter_mut()) {
                let q2 = _mm512_broadcast_i64x4(_mm256_loadu_si256(q.words.as_ptr().cast()));
                let mut idx = _mm512_add_epi64(_mm512_set1_epi64(base as i64), offsets);
                let mut best = _mm512_set1_epi64(KEY_SENTINEL as i64);
                let mut second = _mm512_set1_epi64(KEY_SENTINEL as i64);
                for group in tile.chunks_exact(GROUP) {
                    let key = keys_x8(q2, group, idx);
                    let loser = _mm512_max_epu64(best, key);
                    best = _mm512_min_epu64(best, key);
                    second = _mm512_min_epu64(second, loser);
                    idx = _mm512_add_epi64(idx, step);
                }
                let mut bests = [KEY_SENTINEL; 8];
                let mut seconds = [KEY_SENTINEL; 8];
                _mm512_storeu_si512(bests.as_mut_ptr().cast(), best);
                _mm512_storeu_si512(seconds.as_mut_ptr().cast(), second);
                let mut state = *o;
                for k in 0..8 {
                    if bests[k] != KEY_SENTINEL {
                        super::avx2::merge_top2(
                            &mut state,
                            (bests[k] >> 32) as u32,
                            bests[k] as u32,
                        );
                    }
                    if seconds[k] != KEY_SENTINEL {
                        state.2 = state.2.min((seconds[k] >> 32) as u32);
                    }
                }
                for (k, t) in rem.iter().enumerate() {
                    super::avx2::merge_top2(
                        &mut state,
                        hamming_scalar(q, t),
                        base + (groups * GROUP + k) as u32,
                    );
                }
                *o = state;
            }
        }
    }
}

/// The wide-SIMD rung: Hamming distance over whole 256-bit descriptors
/// in one YMM register, popcounted with the Mula nibble-LUT `pshufb`
/// algorithm. The software analogue of the paper's fully parallel
/// Distance Computing array (§3.2): four train descriptors per step,
/// horizontal sums folded with `vpsadbw` + 64-bit lane shuffles so the
/// reduction cost amortises across the batch.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Descriptor, TRAIN_TILE};
    use std::arch::x86_64::*;

    /// Loads a descriptor's 32 bytes into one YMM register.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(d: &Descriptor) -> __m256i {
        // SAFETY (caller): AVX2 available. `Descriptor` is 32 contiguous
        // bytes of `[u64; 4]`; `loadu` has no alignment requirement.
        _mm256_loadu_si256(d.words.as_ptr().cast())
    }

    /// Byte-wise popcounts of `a ^ b`: each output byte is the number of
    /// set bits of the corresponding xor byte (0..=8), via two 16-entry
    /// nibble lookups (Mula's `pshufb` popcount).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xor_byte_counts(a: __m256i, b: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let x = _mm256_xor_si256(a, b);
        let lo = _mm256_and_si256(x, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(x), low_mask);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    /// Hamming distances of one query against four train descriptors,
    /// returned in the four 64-bit lanes in ascending train order.
    /// `vpsadbw` reduces each pair's byte counts to four 64-bit partial
    /// sums; the cross-pair shuffle tree folds all four pairs' partials
    /// in parallel, so the horizontal-add cost amortises across the
    /// batch and the distances never leave vector registers.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn distances_x4(q: __m256i, t: &[Descriptor]) -> __m256i {
        let zero = _mm256_setzero_si256();
        let s0 = _mm256_sad_epu8(xor_byte_counts(q, load(&t[0])), zero);
        let s1 = _mm256_sad_epu8(xor_byte_counts(q, load(&t[1])), zero);
        let s2 = _mm256_sad_epu8(xor_byte_counts(q, load(&t[2])), zero);
        let s3 = _mm256_sad_epu8(xor_byte_counts(q, load(&t[3])), zero);
        // [a, b, c, d] lanes per s_i; fold to [a+b (i=0), a+b (i=1), c+d (i=0), c+d (i=1)] …
        let s01 = _mm256_add_epi64(_mm256_unpacklo_epi64(s0, s1), _mm256_unpackhi_epi64(s0, s1));
        let s23 = _mm256_add_epi64(_mm256_unpacklo_epi64(s2, s3), _mm256_unpackhi_epi64(s2, s3));
        // … then pair the low-lane and high-lane halves across all four.
        _mm256_add_epi64(
            _mm256_permute2x128_si256::<0x20>(s01, s23),
            _mm256_permute2x128_si256::<0x31>(s01, s23),
        )
    }

    /// Hamming distance of a single pair (tile-remainder rows).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn distance_x1(q: __m256i, t: &Descriptor) -> u32 {
        let s = _mm256_sad_epu8(xor_byte_counts(q, load(t)), _mm256_setzero_si256());
        let folded = _mm_add_epi64(_mm256_castsi256_si128(s), _mm256_extracti128_si256::<1>(s));
        let folded = _mm_add_epi64(folded, _mm_unpackhi_epi64(folded, folded));
        _mm_cvtsi128_si64(folded) as u32
    }

    use super::hamming_scalar;

    /// Trains per inner step of the hybrid kernel: the first eight go
    /// through the SIMD Mula pipeline, the last eight through the scalar
    /// `popcnt` pipeline. The halves have no data dependence, so the
    /// out-of-order core executes them *simultaneously* — scalar
    /// `popcnt` issues only on port 1, which the vector half barely
    /// touches, and either pipeline alone leaves the other idle
    /// (measured on a Sapphire-Rapids-class Xeon: either alone ≈4
    /// cycles/pair, the hybrid ≈2).
    const GROUP: usize = 16;

    /// Lane sentinel: no candidate yet. Real 32-bit keys are at most
    /// `(256 << 7) | 127`, far below the sentinel, and every lane
    /// reduction uses *unsigned* min/max, so the sentinel always loses.
    const KEY32_SENTINEL: u32 = u32::MAX;

    /// In-tile packed keys are `(distance << 7) | tile_local_index`;
    /// the local index must fit the 7 low bits.
    const _TILE_FITS_KEY32: () = assert!(TRAIN_TILE <= 128);

    /// Lane order produced by [`keys32_x8`]: u32 lane `l` holds quad-A
    /// train `l/2` (even `l`) or quad-B train `l/2` (odd `l`).
    const LANE_LOCAL_OFFSETS: [i32; 8] = [0, 4, 1, 5, 2, 6, 3, 7];

    /// 32-bit packed keys `(distance << 7) | tile_local_index` of one
    /// query against eight train descriptors (two quads), in the
    /// [`LANE_LOCAL_OFFSETS`] lane order. `idx` must hold the eight
    /// local indices in the same order. Minimising the *key* minimises
    /// the distance with ties broken toward the lowest train index (the
    /// hardware comparator's rule) in a single unsigned min.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn keys32_x8(q: __m256i, octet: &[Descriptor], idx: __m256i) -> __m256i {
        let da = distances_x4(q, &octet[..4]);
        let db = distances_x4(q, &octet[4..8]);
        // Interleave the two quads' u64-lane distances into u32 lanes.
        let packed = _mm256_or_si256(da, _mm256_slli_epi64::<32>(db));
        _mm256_add_epi32(_mm256_slli_epi32::<7>(packed), idx)
    }

    /// Splits an in-tile 32-bit key into `(distance, global index)`.
    #[inline]
    fn unpack_key32(key: u32, base: u32) -> (u32, u32) {
        (key >> 7, base + (key & 0x7f))
    }

    /// Merges one `(distance, index)` candidate into a
    /// `(best, best_index, second)` triple. Lane bests arrive in
    /// arbitrary index order, so ties on distance break toward the lower
    /// index (the sequential scan's first occurrence); the displaced
    /// equal-distance best is the duplicate that the reference parks in
    /// `second`.
    #[inline]
    pub(super) fn merge_top2(state: &mut (u32, u32, u32), d: u32, i: u32) {
        let (best_d, best_i, second) = *state;
        if d < best_d || (d == best_d && i < best_i) {
            *state = (d, i, best_d);
        } else {
            state.2 = second.min(d);
        }
    }

    /// AVX2 twin of `nearest_rows_inner`: identical tiling, identical
    /// ascending-index tie rule — the packed-key minimum per lane keeps
    /// the first occurrence of each lane's minimal distance, the scalar
    /// half's strict `<` keeps first occurrence within its subsets, and
    /// the final merge breaks distance ties toward the lower index, so
    /// results are bit-identical to the sequential scan.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub(super) unsafe fn nearest_rows(
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut [(u32, u32)],
    ) {
        let step = _mm256_set1_epi32(GROUP as i32);
        let lane0 = _mm256_loadu_si256(LANE_LOCAL_OFFSETS.as_ptr().cast());
        for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
            let base = (tile_idx * TRAIN_TILE) as u32;
            let groups = tile.len() / GROUP;
            let rem = &tile[groups * GROUP..];
            for (q, o) in query.iter().zip(out.iter_mut()) {
                let qv = load(q);
                let mut idx = lane0;
                let mut best32 = _mm256_set1_epi32(KEY32_SENTINEL as i32);
                // Scalar half: two independent running bests (even/odd
                // members of the half's index subset) so the compare
                // chains don't serialise; merged index-tie-correctly
                // below.
                let (mut sa_d, mut sa_i) = (u32::MAX, 0u32);
                let (mut sb_d, mut sb_i) = (u32::MAX, 0u32);
                for (g, group) in tile.chunks_exact(GROUP).enumerate() {
                    best32 = _mm256_min_epu32(best32, keys32_x8(qv, &group[..8], idx));
                    idx = _mm256_add_epi32(idx, step);
                    let j = base + (g * GROUP + 8) as u32;
                    for k in (0..8).step_by(2) {
                        let da = hamming_scalar(q, &group[8 + k]);
                        let db = hamming_scalar(q, &group[9 + k]);
                        if da < sa_d {
                            sa_d = da;
                            sa_i = j + k as u32;
                        }
                        if db < sb_d {
                            sb_d = db;
                            sb_i = j + k as u32 + 1;
                        }
                    }
                }
                // Merge: carried best (always the lowest index seen so
                // far, hence winning ties) → lane minima → scalar half
                // → remainder. Packed keys make every min tie-correct.
                let mut keys = [KEY32_SENTINEL; 8];
                _mm256_storeu_si256(keys.as_mut_ptr().cast(), best32);
                let lane_key = keys.iter().fold(KEY32_SENTINEL, |acc, &k| acc.min(k));
                let carried = ((o.0 as u64) << 32) | o.1 as u64;
                let mut key = carried
                    .min(((sa_d as u64) << 32) | sa_i as u64)
                    .min(((sb_d as u64) << 32) | sb_i as u64);
                if lane_key != KEY32_SENTINEL {
                    let (d, i) = unpack_key32(lane_key, base);
                    key = key.min(((d as u64) << 32) | i as u64);
                }
                let (mut best_d, mut best_i) = ((key >> 32) as u32, key as u32);
                for (k, t) in rem.iter().enumerate() {
                    let d = distance_x1(qv, t);
                    if d < best_d {
                        best_d = d;
                        best_i = base + (groups * GROUP + k) as u32;
                    }
                }
                *o = (best_d, best_i);
            }
        }
    }

    /// AVX2 twin of `nearest2_rows_inner`. Each lane tracks its two
    /// smallest keys with an unsigned min/max sorting network; because
    /// keys are distinct (unique index bits) and key order refines
    /// distance order, merging the per-lane top-2 multisets with the
    /// scalar half's top-2 and the carried `(best, second)` yields
    /// exactly the two smallest distances of the whole scan — including
    /// the duplicated-minimum case, where the reference's `second`
    /// equals `best` — and the first-occurrence best index.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub(super) unsafe fn nearest2_rows(
        query: &[Descriptor],
        train: &[Descriptor],
        out: &mut [(u32, u32, u32)],
    ) {
        let step = _mm256_set1_epi32(GROUP as i32);
        let lane0 = _mm256_loadu_si256(LANE_LOCAL_OFFSETS.as_ptr().cast());
        for (tile_idx, tile) in train.chunks(TRAIN_TILE).enumerate() {
            let base = (tile_idx * TRAIN_TILE) as u32;
            let groups = tile.len() / GROUP;
            let rem = &tile[groups * GROUP..];
            for (q, o) in query.iter().zip(out.iter_mut()) {
                let qv = load(q);
                let mut idx = lane0;
                let mut best32 = _mm256_set1_epi32(KEY32_SENTINEL as i32);
                let mut second32 = _mm256_set1_epi32(KEY32_SENTINEL as i32);
                // Scalar half: two independent running top-2s, merged
                // exactly below.
                let mut sa = (u32::MAX, 0u32, u32::MAX);
                let mut sb = (u32::MAX, 0u32, u32::MAX);
                for (g, group) in tile.chunks_exact(GROUP).enumerate() {
                    let key = keys32_x8(qv, &group[..8], idx);
                    // Sorting network: the loser of (best, key) is the
                    // lane's candidate for second-smallest.
                    let loser = _mm256_max_epu32(best32, key);
                    best32 = _mm256_min_epu32(best32, key);
                    second32 = _mm256_min_epu32(second32, loser);
                    idx = _mm256_add_epi32(idx, step);
                    let j = base + (g * GROUP + 8) as u32;
                    for k in (0..8).step_by(2) {
                        let da = hamming_scalar(q, &group[8 + k]);
                        let db = hamming_scalar(q, &group[9 + k]);
                        if da < sa.0 {
                            sa = (da, j + k as u32, sa.0);
                        } else {
                            sa.2 = sa.2.min(da);
                        }
                        if db < sb.0 {
                            sb = (db, j + k as u32 + 1, sb.0);
                        } else {
                            sb.2 = sb.2.min(db);
                        }
                    }
                }
                let mut bests = [KEY32_SENTINEL; 8];
                let mut seconds = [KEY32_SENTINEL; 8];
                _mm256_storeu_si256(bests.as_mut_ptr().cast(), best32);
                _mm256_storeu_si256(seconds.as_mut_ptr().cast(), second32);

                // Scalar merge of the carried state, the lane top-2s and
                // the scalar half's top-2s.
                let mut state = *o;
                for k in 0..8 {
                    if bests[k] != KEY32_SENTINEL {
                        let (d, i) = unpack_key32(bests[k], base);
                        merge_top2(&mut state, d, i);
                    }
                    if seconds[k] != KEY32_SENTINEL {
                        state.2 = state.2.min(seconds[k] >> 7);
                    }
                }
                for s in [sa, sb] {
                    if s.0 != u32::MAX {
                        merge_top2(&mut state, s.0, s.1);
                    }
                    if s.2 != u32::MAX {
                        state.2 = state.2.min(s.2);
                    }
                }
                for (k, t) in rem.iter().enumerate() {
                    merge_top2(
                        &mut state,
                        distance_x1(qv, t),
                        base + (groups * GROUP + k) as u32,
                    );
                }
                *o = state;
            }
        }
    }
}

/// Runs the nearest-neighbour row kernel for an explicit dispatch rung.
/// An unsupported `kernel` falls back to the scalar rung.
fn nearest_rows_with(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    out: &mut [(u32, u32)],
) {
    #[cfg(target_arch = "x86_64")]
    match kernel {
        MatchKernel::Avx512 if kernel.is_supported() => {
            // SAFETY: avx512f + avx512vpopcntdq + popcnt just checked.
            return unsafe { avx512::nearest_rows(query, train, out) };
        }
        MatchKernel::Avx2 if kernel.is_supported() => {
            // SAFETY: avx2 + popcnt support just checked.
            return unsafe { avx2::nearest_rows(query, train, out) };
        }
        MatchKernel::Popcnt if kernel.is_supported() => {
            // SAFETY: popcnt support just checked.
            return unsafe { nearest_rows_popcnt(query, train, out) };
        }
        _ => {}
    }
    nearest_rows_inner(query, train, out)
}

/// Runs the two-nearest row kernel for an explicit dispatch rung.
/// An unsupported `kernel` falls back to the scalar rung.
fn nearest2_rows_with(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    out: &mut [(u32, u32, u32)],
) {
    #[cfg(target_arch = "x86_64")]
    match kernel {
        MatchKernel::Avx512 if kernel.is_supported() => {
            // SAFETY: avx512f + avx512vpopcntdq + popcnt just checked.
            return unsafe { avx512::nearest2_rows(query, train, out) };
        }
        MatchKernel::Avx2 if kernel.is_supported() => {
            // SAFETY: avx2 + popcnt support just checked.
            return unsafe { avx2::nearest2_rows(query, train, out) };
        }
        MatchKernel::Popcnt if kernel.is_supported() => {
            // SAFETY: popcnt support just checked.
            return unsafe { nearest2_rows_popcnt(query, train, out) };
        }
        _ => {}
    }
    nearest2_rows_inner(query, train, out)
}

fn nearest_rows(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32)]) {
    nearest_rows_with(active_kernel(), query, train, out)
}

fn nearest2_rows(query: &[Descriptor], train: &[Descriptor], out: &mut [(u32, u32, u32)]) {
    nearest2_rows_with(active_kernel(), query, train, out)
}

/// Nearest-neighbour matching with Lowe's ratio test: a match survives iff
/// `best < ratio × second_best`. `ratio` ∈ (0, 1]; smaller is stricter.
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub fn match_with_ratio(
    query: &[Descriptor],
    train: &[Descriptor],
    ratio: f64,
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    match_with_ratio_in(WorkerPool::global(), query, train, ratio, max_distance)
}

/// [`match_with_ratio`] running its parallel rows on an explicit
/// [`WorkerPool`]. Results are identical for any pool size.
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub fn match_with_ratio_in(
    pool: &WorkerPool,
    query: &[Descriptor],
    train: &[Descriptor],
    ratio: f64,
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    let mut best = vec![(u32::MAX, 0u32, u32::MAX); query.len()];
    run_rows(pool, query, &mut best, |rows, out| {
        nearest2_rows(rows, train, out)
    });
    collect_ratio(&best, ratio, max_distance)
}

/// [`match_with_ratio`] forced onto one dispatch rung, single-threaded
/// (see [`match_brute_force_with_kernel`]).
///
/// # Panics
/// Panics if `ratio` is not within `(0, 1]`.
pub fn match_with_ratio_with_kernel(
    kernel: MatchKernel,
    query: &[Descriptor],
    train: &[Descriptor],
    ratio: f64,
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    let mut best = vec![(u32::MAX, 0u32, u32::MAX); query.len()];
    nearest2_rows_with(kernel, query, train, &mut best);
    collect_ratio(&best, ratio, max_distance)
}

/// Folds per-row `(best, train, second)` triples into the match list,
/// applying the distance cap and the Lowe ratio gate.
fn collect_ratio(best: &[(u32, u32, u32)], ratio: f64, max_distance: u32) -> Vec<DescriptorMatch> {
    best.iter()
        .enumerate()
        .filter(|(_, &(d, _, second))| {
            d <= max_distance && (second == u32::MAX || (d as f64) < ratio * second as f64)
        })
        .map(|(qi, &(d, ti, _))| DescriptorMatch {
            query: qi,
            train: ti as usize,
            distance: d,
        })
        .collect()
}

/// Scalar reference of [`match_with_ratio`]; the bit-exact oracle for
/// the production kernel.
pub fn match_with_ratio_reference(
    query: &[Descriptor],
    train: &[Descriptor],
    ratio: f64,
    max_distance: u32,
) -> Vec<DescriptorMatch> {
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
    let mut out = Vec::new();
    for (qi, q) in query.iter().enumerate() {
        let mut best: Option<(usize, u32)> = None;
        let mut second: u32 = u32::MAX;
        for (ti, t) in train.iter().enumerate() {
            let d = q.hamming(t);
            match best {
                None => best = Some((ti, d)),
                Some((_, bd)) if d < bd => {
                    second = bd;
                    best = Some((ti, d));
                }
                Some(_) => second = second.min(d),
            }
        }
        if let Some((ti, d)) = best {
            let passes_ratio = second == u32::MAX || (d as f64) < ratio * second as f64;
            if d <= max_distance && passes_ratio {
                out.push(DescriptorMatch {
                    query: qi,
                    train: ti,
                    distance: d,
                });
            }
        }
    }
    out
}

/// Mutual-consistency filter: keeps a forward match `(q → t)` only when
/// the backward matching also pairs `t → q`.
pub fn cross_check(
    forward: &[DescriptorMatch],
    backward: &[DescriptorMatch],
) -> Vec<DescriptorMatch> {
    forward
        .iter()
        .filter(|f| {
            backward
                .iter()
                .any(|b| b.query == f.train && b.train == f.query)
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(bits: &[usize]) -> Descriptor {
        let mut d = Descriptor::ZERO;
        for &b in bits {
            d.set_bit(b, true);
        }
        d
    }

    #[test]
    fn exact_match_has_zero_distance() {
        let q = [desc(&[1, 5, 9])];
        let t = [desc(&[0]), desc(&[1, 5, 9]), desc(&[2])];
        let m = match_brute_force(&q, &t, u32::MAX);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].train, 1);
        assert_eq!(m[0].distance, 0);
    }

    #[test]
    fn empty_train_set_gives_no_matches() {
        let q = [desc(&[1])];
        assert!(match_brute_force(&q, &[], u32::MAX).is_empty());
    }

    #[test]
    fn empty_query_set_gives_no_matches() {
        let t = [desc(&[1])];
        assert!(match_brute_force(&[], &t, u32::MAX).is_empty());
    }

    #[test]
    fn max_distance_filters() {
        let q = [desc(&[0, 1, 2, 3])];
        let t = [Descriptor::ZERO]; // distance 4
        assert!(match_brute_force(&q, &t, 3).is_empty());
        assert_eq!(match_brute_force(&q, &t, 4).len(), 1);
    }

    #[test]
    fn tie_keeps_lowest_train_index() {
        let q = [desc(&[10])];
        let t = [desc(&[11]), desc(&[12])]; // both at distance 2
        let m = match_brute_force(&q, &t, u32::MAX);
        assert_eq!(m[0].train, 0);
    }

    #[test]
    fn matches_ordered_by_query() {
        let q = [desc(&[0]), desc(&[64]), desc(&[128])];
        let t = [desc(&[0]), desc(&[64]), desc(&[128])];
        let m = match_brute_force(&q, &t, u32::MAX);
        let idx: Vec<_> = m.iter().map(|x| x.query).collect();
        assert_eq!(idx, [0, 1, 2]);
        for x in &m {
            assert_eq!(x.query, x.train);
        }
    }

    #[test]
    fn ratio_test_rejects_ambiguous() {
        // Query equidistant from two train descriptors → ambiguous.
        let q = [desc(&[0])];
        let t = [desc(&[1]), desc(&[2])]; // both distance 2
        let strict = match_with_ratio(&q, &t, 0.8, u32::MAX);
        assert!(strict.is_empty());
        // A clearly better best passes.
        let t2 = [desc(&[0]), desc(&[1, 2, 3, 4, 5])];
        let ok = match_with_ratio(&q, &t2, 0.8, u32::MAX);
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].train, 0);
    }

    #[test]
    fn ratio_test_single_candidate_passes() {
        let q = [desc(&[0])];
        let t = [desc(&[0, 1])];
        let m = match_with_ratio(&q, &t, 0.5, u32::MAX);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn bad_ratio_panics() {
        match_with_ratio(&[], &[], 1.5, 0);
    }

    #[test]
    fn cross_check_keeps_mutual_only() {
        let fwd = vec![
            DescriptorMatch {
                query: 0,
                train: 5,
                distance: 1,
            },
            DescriptorMatch {
                query: 1,
                train: 6,
                distance: 2,
            },
        ];
        let bwd = vec![
            DescriptorMatch {
                query: 5,
                train: 0,
                distance: 1,
            }, // mutual with fwd[0]
            DescriptorMatch {
                query: 6,
                train: 9,
                distance: 2,
            }, // not mutual
        ];
        let kept = cross_check(&fwd, &bwd);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].query, 0);
    }

    fn pseudo_random_descriptors(n: usize, salt: u64) -> Vec<Descriptor> {
        (0..n)
            .map(|i| {
                let s = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) ^ salt;
                Descriptor::from_words([s, s.rotate_left(17), s.rotate_left(31), s.rotate_left(47)])
            })
            .collect()
    }

    #[test]
    fn tiled_matcher_matches_reference_across_shapes() {
        // Sweep sizes around the tile/block boundaries and duplicate-heavy
        // sets (forcing tie-breaks) against the scalar reference.
        for (nq, nt) in [
            (1usize, 1usize),
            (3, 7),
            (8, 128),
            (9, 129),
            (64, 300),
            (200, 1000),
        ] {
            let query = pseudo_random_descriptors(nq, 0xAA);
            let mut train = pseudo_random_descriptors(nt, 0xBB);
            // Inject duplicates so ties exercise the lowest-index rule.
            if nt > 4 {
                let d = train[2];
                train[nt - 1] = d;
                train[nt / 2] = d;
            }
            for max_d in [u32::MAX, 128, 40] {
                assert_eq!(
                    match_brute_force(&query, &train, max_d),
                    match_brute_force_reference(&query, &train, max_d),
                    "brute force {nq}x{nt} max {max_d}"
                );
                assert_eq!(
                    match_with_ratio(&query, &train, 0.8, max_d),
                    match_with_ratio_reference(&query, &train, 0.8, max_d),
                    "ratio {nq}x{nt} max {max_d}"
                );
            }
        }
    }

    #[test]
    fn brute_force_finds_global_minimum() {
        // Pseudo-random descriptor sets; verify against naive argmin.
        let mk = |seed: u64| {
            let mut words = [0u64; 4];
            for (i, w) in words.iter_mut().enumerate() {
                *w = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64 * 1442695040888963407);
            }
            Descriptor::from_words(words)
        };
        let query: Vec<Descriptor> = (0..20).map(|i| mk(i * 7 + 1)).collect();
        let train: Vec<Descriptor> = (0..50).map(|i| mk(i * 13 + 3)).collect();
        let matches = match_brute_force(&query, &train, u32::MAX);
        assert_eq!(matches.len(), query.len());
        for m in &matches {
            let naive = train
                .iter()
                .map(|t| query[m.query].hamming(t))
                .min()
                .unwrap();
            assert_eq!(m.distance, naive);
        }
    }
}
