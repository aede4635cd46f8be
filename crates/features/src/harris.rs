//! Harris corner response.
//!
//! The paper's FAST Detection module "computes Harris corner score for
//! each keypoint" (§3.1); the score drives both non-maximum suppression
//! and the top-1024 Heap filtering. As in the original ORB, the response
//! is evaluated on a small block around the keypoint with Sobel
//! derivatives.

use eslam_image::GrayImage;

/// Harris detector constant `k` in `det(M) − k·trace(M)²`.
pub const HARRIS_K: f64 = 0.04;

/// Half-size of the 7×7 scoring block (matches the 7×7 patch the paper's
/// FAST Detection module consumes).
pub const BLOCK_HALF: i64 = 3;

/// Computes the Harris corner response at `(x, y)`.
///
/// Derivatives use the 3×3 Sobel operator; the structure tensor is
/// accumulated over the 7×7 block centred on the pixel with border
/// replication. Normalization matches OpenCV's ORB convention of scaling
/// by `1 / (4 · block_area)²` on the raw Sobel sums — only relative order
/// matters for NMS/heap filtering, but a stable scale keeps scores
/// readable.
pub fn harris_score(img: &GrayImage, x: u32, y: u32) -> f64 {
    // The Sobel taps of the 7×7 block reach ±4 pixels; inside that
    // margin the hot path indexes rows directly instead of clamping
    // every sample. Identical arithmetic in identical order, so the two
    // paths are bit-exact (proven by `interior_fast_path_is_bit_exact`).
    let (cx, cy) = (x as i64, y as i64);
    let reach = BLOCK_HALF + 1;
    let interior = cx >= reach
        && cy >= reach
        && cx + reach < img.width() as i64
        && cy + reach < img.height() as i64;

    let mut sum_xx = 0.0f64;
    let mut sum_yy = 0.0f64;
    let mut sum_xy = 0.0f64;
    if interior {
        let w = img.width() as usize;
        let data = img.as_raw();
        let base = cy as usize * w + cx as usize;
        for dy in -BLOCK_HALF..=BLOCK_HALF {
            for dx in -BLOCK_HALF..=BLOCK_HALF {
                let centre = (base as i64 + dy * w as i64 + dx) as usize;
                let g =
                    |ox: i64, oy: i64| data[(centre as i64 + oy * w as i64 + ox) as usize] as f64;
                let ix =
                    (g(1, -1) + 2.0 * g(1, 0) + g(1, 1)) - (g(-1, -1) + 2.0 * g(-1, 0) + g(-1, 1));
                let iy =
                    (g(-1, 1) + 2.0 * g(0, 1) + g(1, 1)) - (g(-1, -1) + 2.0 * g(0, -1) + g(1, -1));
                sum_xx += ix * ix;
                sum_yy += iy * iy;
                sum_xy += ix * iy;
            }
        }
    } else {
        for dy in -BLOCK_HALF..=BLOCK_HALF {
            for dx in -BLOCK_HALF..=BLOCK_HALF {
                let px = cx + dx;
                let py = cy + dy;
                let ix = sobel_x(img, px, py);
                let iy = sobel_y(img, px, py);
                sum_xx += ix * ix;
                sum_yy += iy * iy;
                sum_xy += ix * iy;
            }
        }
    }
    response(sum_xx, sum_yy, sum_xy)
}

/// The normalization and `det − k·trace²` tail shared by
/// [`harris_score`] and the row-shared kernel: both hand it the same
/// exact integer sums, so both produce the same bits.
#[inline]
fn response(sum_xx: f64, sum_yy: f64, sum_xy: f64) -> f64 {
    let norm = 1.0 / ((4 * (2 * BLOCK_HALF + 1).pow(2)) as f64);
    let (a, b, c) = (
        sum_xx * norm * norm,
        sum_xy * norm * norm,
        sum_yy * norm * norm,
    );
    let det = a * c - b * b;
    let trace = a + c;
    det - HARRIS_K * trace * trace
}

/// Largest `|Ix|` (or `|Iy|`) the 3×3 Sobel operator produces on 8-bit
/// pixels: `(1 + 2 + 1) · 255`, reached on a saturated 0/255 edge.
pub const SOBEL_MAX: i32 = 4 * 255;

/// Rows of the row-shared kernel's Sobel ring: the 7-row block window
/// plus the outgoing row the sliding column sums subtract.
pub const SOBEL_RING_ROWS: u32 = 8;

/// Per-column accumulators of the row-shared kernel (`Ix²`, `Iy²`,
/// `IxIy`), each one `i32` per column.
pub const HARRIS_COLUMN_SUMS: u32 = 3;

/// Side of the scoring block.
const BLOCK: usize = 2 * BLOCK_HALF as usize + 1;

// Range bounds of the integer kernel: a Sobel response fits `i16`, and a
// whole 7×7 block sum of squares fits `i32` (49 · 1020² = 50 979 600 <
// 2³¹), so every partial sum — per column, per window, in any order — is
// an exact integer, and exactly representable in `f64`.
const _: () = assert!(SOBEL_MAX <= i16::MAX as i32);
const _: () =
    assert!((BLOCK * BLOCK) as i64 * (SOBEL_MAX as i64 * SOBEL_MAX as i64) <= i32::MAX as i64);

/// Row-shared integer Harris scorer: the line-buffer form of
/// [`harris_score`] the streaming front-end drives row by row.
///
/// Each raw row's Sobel `Ix`/`Iy` is computed once, as `i16`, into a
/// [`SOBEL_RING_ROWS`]-row ring, and per-column `i32` sums of `Ix²`,
/// `Iy²` and `IxIy` over the 7-row window slide down one row per scored
/// row (add the incoming row, subtract the outgoing one). A detection
/// then costs three 7-wide horizontal sums. Rows are produced lazily:
/// detection-free spans compute nothing, and a jump in the scan rebuilds
/// the column sums from the ring.
///
/// Rows with few detections sum each 7×7 block straight off the ring
/// instead, whenever `n · 49` ring reads cost less than touching every
/// column (2 rows per column to slide, 7 to rebuild). Both forms add the
/// same integers, and Harris sums below 2³¹ are exact in `f64` in any
/// order, so the scores are bit-identical to [`harris_score`] — which
/// still scores detections within [`BLOCK_HALF`]` + 1` pixels of the
/// border, where the Sobel taps clamp.
#[derive(Debug, Default)]
pub(crate) struct RowHarris {
    /// Sobel rows of the last [`SOBEL_RING_ROWS`] raw rows computed.
    ring: SobelRing,
    /// Column sums of `Ix²` over the 7 rows around `sums_row`.
    sxx: Vec<i32>,
    /// Column sums of `Iy²`.
    syy: Vec<i32>,
    /// Column sums of `IxIy`.
    sxy: Vec<i32>,
    /// Next raw row the Sobel chain computes.
    sobel_next: usize,
    /// Centre row the column sums currently cover.
    sums_row: Option<usize>,
}

/// The `i16` Sobel line buffers: raw row `r` at slot
/// `r % SOBEL_RING_ROWS`.
#[derive(Debug, Default)]
struct SobelRing {
    ix: Vec<i16>,
    iy: Vec<i16>,
    /// Level width the rows are laid out for.
    w: usize,
}

impl SobelRing {
    /// The Sobel `(Ix, Iy)` rows of raw row `r`.
    #[inline]
    fn row(&self, r: usize) -> (&[i16], &[i16]) {
        let slot = (r % SOBEL_RING_ROWS as usize) * self.w;
        (&self.ix[slot..slot + self.w], &self.iy[slot..slot + self.w])
    }
}

impl RowHarris {
    /// Lays the buffers out for a level of `width` columns and forgets
    /// every row of the previous stream. Rows must then be scored in
    /// ascending order.
    pub(crate) fn reset(&mut self, width: u32) {
        let w = width as usize;
        let ring = SOBEL_RING_ROWS as usize * w;
        self.ring.w = w;
        self.ring.ix.resize(ring, 0);
        self.ring.iy.resize(ring, 0);
        self.sxx.resize(w, 0);
        self.syy.resize(w, 0);
        self.sxy.resize(w, 0);
        self.sobel_next = 0;
        self.sums_row = None;
    }

    /// Bytes held by the Sobel ring and the column sums.
    pub(crate) fn working_bytes(&self) -> usize {
        2 * (self.ring.ix.len() + self.ring.iy.len())
            + 4 * (self.sxx.len() + self.syy.len() + self.sxy.len())
    }

    /// Scores one row's detections (all on the same row, ascending x;
    /// rows ascending across calls since the last [`Self::reset`]),
    /// appending one [`ScoredPoint`](crate::nms::ScoredPoint) per
    /// detection in order — bit-identical to calling [`harris_score`]
    /// per point.
    pub(crate) fn score_row(
        &mut self,
        img: &GrayImage,
        detections: &[crate::fast::FastDetection],
        out: &mut Vec<crate::nms::ScoredPoint>,
    ) {
        let Some(first) = detections.first() else {
            return;
        };
        debug_assert_eq!(self.ring.w, img.width() as usize, "reset for another width");
        let (w, h) = (self.ring.w, img.height() as usize);
        let y = first.y as usize;
        let reach = BLOCK_HALF as usize + 1;
        let interior = |x: u32| {
            let x = x as usize;
            y >= reach && y + reach < h && x >= reach && x + reach < w
        };
        let n = detections.iter().filter(|d| interior(d.x)).count();
        let mut columns = false;
        if n > 0 {
            let half = BLOCK_HALF as usize;
            self.ensure_sobel(img, y - half, y + half);
            let slide = self.sums_row == Some(y - 1);
            let rows_per_column = if slide { 2 } else { BLOCK };
            if n * BLOCK * BLOCK >= w * rows_per_column {
                self.update_sums(y, slide);
                columns = true;
            }
        }
        for d in detections {
            let score = if !interior(d.x) {
                harris_score(img, d.x, d.y)
            } else {
                let (xx, yy, xy) = if columns {
                    self.window_sums(d.x as usize)
                } else {
                    self.block_sums(d.x as usize, y)
                };
                response(xx as f64, yy as f64, xy as f64)
            };
            out.push(crate::nms::ScoredPoint {
                x: d.x,
                y: d.y,
                score,
            });
        }
    }

    /// Advances the lazy Sobel chain until raw rows `lo ..= hi` are in
    /// the ring, jumping ahead over rows nobody reads.
    fn ensure_sobel(&mut self, img: &GrayImage, lo: usize, hi: usize) {
        debug_assert!(
            lo + SOBEL_RING_ROWS as usize > self.sobel_next,
            "rows scored out of order"
        );
        debug_assert!(lo >= 1 && hi + 1 < img.height() as usize);
        self.sobel_next = self.sobel_next.max(lo);
        let w = self.ring.w;
        let data = img.as_raw();
        while self.sobel_next <= hi {
            let r = self.sobel_next;
            let slot = (r % SOBEL_RING_ROWS as usize) * w;
            sobel_row(
                &data[(r - 1) * w..(r + 2) * w],
                w,
                &mut self.ring.ix[slot..slot + w],
                &mut self.ring.iy[slot..slot + w],
            );
            self.sobel_next += 1;
        }
    }

    /// Brings the column sums to the window centred on row `y`: slides
    /// them one row down from `y − 1`, or rebuilds them from the ring.
    fn update_sums(&mut self, y: usize, slide: bool) {
        let half = BLOCK_HALF as usize;
        if slide {
            let (nx, ny) = self.ring.row(y + half);
            let (ox, oy) = self.ring.row(y - half - 1);
            let sums = self.sxx.iter_mut().zip(&mut self.syy).zip(&mut self.sxy);
            for ((((sxx, syy), sxy), (&nx, &ny)), (&ox, &oy)) in
                sums.zip(nx.iter().zip(ny)).zip(ox.iter().zip(oy))
            {
                let (nx, ny, ox, oy) = (nx as i32, ny as i32, ox as i32, oy as i32);
                *sxx += nx * nx - ox * ox;
                *syy += ny * ny - oy * oy;
                *sxy += nx * ny - ox * oy;
            }
        } else {
            self.sxx.fill(0);
            self.syy.fill(0);
            self.sxy.fill(0);
            for r in y - half..=y + half {
                let (ix, iy) = self.ring.row(r);
                let sums = self.sxx.iter_mut().zip(&mut self.syy).zip(&mut self.sxy);
                for (((sxx, syy), sxy), (&gx, &gy)) in sums.zip(ix.iter().zip(iy)) {
                    let (gx, gy) = (gx as i32, gy as i32);
                    *sxx += gx * gx;
                    *syy += gy * gy;
                    *sxy += gx * gy;
                }
            }
        }
        self.sums_row = Some(y);
    }

    /// The block sums at column `x` off the column sums.
    #[inline]
    fn window_sums(&self, x: usize) -> (i32, i32, i32) {
        let cols = x - BLOCK_HALF as usize..=x + BLOCK_HALF as usize;
        (
            self.sxx[cols.clone()].iter().sum(),
            self.syy[cols.clone()].iter().sum(),
            self.sxy[cols].iter().sum(),
        )
    }

    /// The block sums at `(x, y)` summed straight off the Sobel ring.
    #[inline]
    fn block_sums(&self, x: usize, y: usize) -> (i32, i32, i32) {
        let half = BLOCK_HALF as usize;
        let (mut xx, mut yy, mut xy) = (0, 0, 0);
        for r in y - half..=y + half {
            let (ix, iy) = self.ring.row(r);
            for (&gx, &gy) in ix[x - half..=x + half].iter().zip(&iy[x - half..=x + half]) {
                let (gx, gy) = (gx as i32, gy as i32);
                xx += gx * gx;
                yy += gy * gy;
                xy += gx * gy;
            }
        }
        (xx, yy, xy)
    }
}

/// Sobel `Ix`/`Iy` of the middle row of `rows` (three consecutive raw
/// rows of width `w`) into `ix`/`iy`, columns `1 .. w − 1`; the border
/// columns, whose taps would clamp, are left as they are.
fn sobel_row(rows: &[u8], w: usize, ix: &mut [i16], iy: &mut [i16]) {
    debug_assert!(w >= 3);
    let n = w - 2;
    // Each row's taps at columns c − 1, c, c + 1 for output column c.
    let taps = |row: usize| {
        let r = &rows[row * w..(row + 1) * w];
        (&r[..n], &r[1..n + 1], &r[2..])
    };
    let (a0, a1, a2) = taps(0);
    let (m0, _, m2) = taps(1);
    let (b0, b1, b2) = taps(2);
    let (ix, iy) = (&mut ix[1..=n], &mut iy[1..=n]);
    for i in 0..n {
        let p = |row: &[u8]| row[i] as i16;
        let left = p(a0) + 2 * p(m0) + p(b0);
        let right = p(a2) + 2 * p(m2) + p(b2);
        let top = p(a0) + 2 * p(a1) + p(a2);
        let bottom = p(b0) + 2 * p(b1) + p(b2);
        ix[i] = right - left;
        iy[i] = bottom - top;
    }
}

#[inline]
fn sobel_x(img: &GrayImage, x: i64, y: i64) -> f64 {
    let g = |dx: i64, dy: i64| img.get_clamped(x + dx, y + dy) as f64;
    (g(1, -1) + 2.0 * g(1, 0) + g(1, 1)) - (g(-1, -1) + 2.0 * g(-1, 0) + g(-1, 1))
}

#[inline]
fn sobel_y(img: &GrayImage, x: i64, y: i64) -> f64 {
    let g = |dx: i64, dy: i64| img.get_clamped(x + dx, y + dy) as f64;
    (g(-1, 1) + 2.0 * g(0, 1) + g(1, 1)) - (g(-1, -1) + 2.0 * g(0, -1) + g(1, -1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corner_image() -> GrayImage {
        // Bright quadrant: a strong L-corner at (16, 16).
        GrayImage::from_fn(32, 32, |x, y| if x >= 16 && y >= 16 { 220 } else { 30 })
    }

    #[test]
    fn flat_region_scores_zero() {
        let img = GrayImage::from_fn(16, 16, |_, _| 128);
        assert_eq!(harris_score(&img, 8, 8), 0.0);
    }

    #[test]
    fn corner_scores_higher_than_edge() {
        let img = corner_image();
        let corner = harris_score(&img, 16, 16);
        let edge = harris_score(&img, 24, 16); // on the horizontal edge
        let flat = harris_score(&img, 24, 24); // inside the bright region
        assert!(corner > edge, "corner {corner} vs edge {edge}");
        assert!(corner > flat, "corner {corner} vs flat {flat}");
        assert!(corner > 0.0);
    }

    #[test]
    fn edge_scores_negative_or_small() {
        // A pure edge has rank-1 structure tensor: det ≈ 0, so the
        // response ≈ −k·trace² < 0.
        let img = GrayImage::from_fn(32, 32, |x, _| if x < 16 { 0 } else { 255 });
        let edge = harris_score(&img, 16, 16);
        assert!(edge < 0.0, "edge response {edge}");
    }

    #[test]
    fn response_is_contrast_monotone() {
        let weak = GrayImage::from_fn(32, 32, |x, y| if x >= 16 && y >= 16 { 80 } else { 30 });
        let strong = corner_image();
        assert!(harris_score(&strong, 16, 16) > harris_score(&weak, 16, 16));
    }

    #[test]
    fn response_symmetric_under_inversion() {
        // Inverting intensity flips gradients but not the tensor products.
        let img = corner_image();
        let inverted = GrayImage::from_fn(32, 32, |x, y| 255 - img.get(x, y));
        let a = harris_score(&img, 16, 16);
        let b = harris_score(&inverted, 16, 16);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn border_evaluation_does_not_panic() {
        let img = corner_image();
        let _ = harris_score(&img, 0, 0);
        let _ = harris_score(&img, 31, 31);
    }

    /// Clamped-path evaluation of the score (the pre-fast-path formula),
    /// used to prove the interior fast path bit-exact.
    fn harris_score_clamped(img: &GrayImage, x: u32, y: u32) -> f64 {
        let mut sum_xx = 0.0f64;
        let mut sum_yy = 0.0f64;
        let mut sum_xy = 0.0f64;
        let (cx, cy) = (x as i64, y as i64);
        for dy in -BLOCK_HALF..=BLOCK_HALF {
            for dx in -BLOCK_HALF..=BLOCK_HALF {
                let ix = sobel_x(img, cx + dx, cy + dy);
                let iy = sobel_y(img, cx + dx, cy + dy);
                sum_xx += ix * ix;
                sum_yy += iy * iy;
                sum_xy += ix * iy;
            }
        }
        let norm = 1.0 / ((4 * (2 * BLOCK_HALF + 1).pow(2)) as f64);
        let (a, b, c) = (
            sum_xx * norm * norm,
            sum_xy * norm * norm,
            sum_yy * norm * norm,
        );
        a * c - b * b - HARRIS_K * (a + c) * (a + c)
    }

    #[test]
    fn interior_fast_path_is_bit_exact() {
        let img = GrayImage::from_fn(48, 40, |x, y| {
            ((x as u64 * 2654435761 + y as u64 * 40503) >> 6) as u8
        });
        for y in 0..40 {
            for x in 0..48 {
                let fast = harris_score(&img, x, y);
                let reference = harris_score_clamped(&img, x, y);
                assert!(
                    fast == reference,
                    "({x},{y}): fast {fast} vs reference {reference}"
                );
            }
        }
    }

    /// Scores `rows` of `img` through one [`RowHarris`] stream, each row
    /// with the detections `pick(x, y)` selects among its FAST-eligible
    /// pixels (`3 ≤ x, y < dim − 3`), and asserts every score equals
    /// [`harris_score`] bit for bit.
    fn assert_row_shared_exact(
        img: &GrayImage,
        rows: impl Iterator<Item = u32>,
        mut pick: impl FnMut(u32, u32) -> bool,
    ) -> usize {
        let (w, h) = (img.width(), img.height());
        let mut kernel = RowHarris::default();
        kernel.reset(w);
        let mut out = Vec::new();
        let mut scored = 0;
        for y in rows.filter(|&y| y >= 3 && y + 3 < h) {
            let detections: Vec<crate::fast::FastDetection> = (3..w.saturating_sub(3))
                .filter(|&x| pick(x, y))
                .map(|x| crate::fast::FastDetection { x, y })
                .collect();
            out.clear();
            kernel.score_row(img, &detections, &mut out);
            assert_eq!(out.len(), detections.len());
            for (p, d) in out.iter().zip(&detections) {
                let reference = harris_score(img, d.x, d.y);
                assert_eq!((p.x, p.y), (d.x, d.y));
                assert!(
                    p.score.to_bits() == reference.to_bits(),
                    "{w}x{h} ({}, {}): row-shared {} vs harris_score {reference}",
                    d.x,
                    d.y,
                    p.score
                );
            }
            scored += detections.len();
        }
        scored
    }

    fn noise_image(w: u32, h: u32, seed: u64) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let v = (x as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (y as u64 + 7).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            ((v ^ seed.wrapping_mul(0x1656_67B1_9E37_79F9)) >> 29) as u8
        })
    }

    #[test]
    fn row_shared_kernel_matches_harris_score_at_every_fast_pixel() {
        // Every FAST-eligible pixel of every row: the dense, sliding
        // form. Sizes run down to 7×7 (one eligible pixel, all border)
        // and through widths where x ± 4 touches both borders.
        for (w, h) in [
            (7u32, 7u32),
            (8, 8),
            (9, 9),
            (10, 11),
            (11, 9),
            (12, 40),
            (33, 17),
            (64, 48),
        ] {
            for seed in 0..3 {
                let img = noise_image(w, h, seed);
                let scored = assert_row_shared_exact(&img, 0..h, |_, _| true);
                assert_eq!(scored, (w as usize - 6) * (h as usize - 6));
            }
        }
    }

    #[test]
    fn row_shared_kernel_is_exact_on_saturated_edges() {
        // A 0/255 checkerboard of 4-pixel cells: next to every cell edge
        // the Sobel response hits the range bound |Ix| = |Iy| = 1020
        // that sizes the i16 ring and the i32 sums.
        let img = GrayImage::from_fn(
            48,
            40,
            |x, y| if (x / 4 + y / 4) % 2 == 0 { 0 } else { 255 },
        );
        assert_eq!(sobel_x(&img, 4, 2).abs(), SOBEL_MAX as f64);
        assert_eq!(sobel_y(&img, 2, 4).abs(), SOBEL_MAX as f64);
        assert_row_shared_exact(&img, 0..40, |_, _| true);
        assert_row_shared_exact(&img, 0..40, |x, y| x == 4 + (y * 5) % 40);
    }

    #[test]
    fn sparse_rows_and_scan_jumps_are_exact() {
        // Few detections per row take the per-point ring sums; skipped
        // rows force the column sums to rebuild; mixing both on one
        // stream must never leave stale sums behind.
        for (w, h, seed) in [(64u32, 48u32, 1u64), (97, 61, 2), (9, 30, 3)] {
            let img = noise_image(w, h, seed);
            // One detection per row (49 ring reads < 2 columns' worth
            // on every width past 24), then a few per row.
            assert_row_shared_exact(&img, 0..h, |x, y| x == 3 + (y * 7) % (w - 6));
            assert_row_shared_exact(&img, 0..h, |x, y| (x + 3 * y) % 13 == 0);
            // Dense rows separated by gaps of 1..=9 skipped rows.
            let rows: Vec<u32> = (0..h).filter(|y| (y * y + 3 * y) % 10 < 4).collect();
            assert_row_shared_exact(&img, rows.into_iter(), |_, _| true);
            // Alternating dense and sparse rows.
            assert_row_shared_exact(&img, 0..h, |x, y| y % 2 == 0 || x % 17 == 5);
        }
    }
}
