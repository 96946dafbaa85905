//! A merging t-digest quantile sketch (Dunning & Ertl).
//!
//! Centroids are kept sorted by mean; incoming samples buffer and are
//! periodically sorted, merged linearly with the centroids, and folded in
//! by a single pass bounded by the k₁ scale function
//! `k(q) = δ·(asin(2q−1)/π + 1/2)`, which keeps centroids small
//! near the tails (accurate extreme quantiles — exactly where latency
//! distributions matter) and large in the middle. Memory is O(δ)
//! regardless of how many samples stream through.
//!
//! Every operation is a pure function of the current state, so a digest
//! built from the same sequence of pushes has identical bits on every
//! thread/shard — the property the campaign-level determinism rests on.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::error::{StatsError, StatsResult};
use crate::{f64_from_hex, f64_to_hex};

use super::{parse_u64, MergeableSummary};

/// One weighted cluster of nearby samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// Mergeable streaming quantile sketch; see the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TDigest {
    delta: u32,
    centroids: Vec<Centroid>,
    buffer: Vec<f64>,
    n: u64,
    non_finite: u64,
    min: f64,
    max: f64,
}

/// Buffered samples per compression pass, as a multiple of δ. Larger
/// buffers amortize the O(m log m) merge over more pushes.
const BUFFER_FACTOR: usize = 8;

/// The compression parameters δ a digest accepts.
const DELTA_RANGE: std::ops::RangeInclusive<u32> = 10..=10_000;

/// Parses a record's δ field, rejecting values outside [`DELTA_RANGE`]
/// (including ones that do not fit a `u32`) as `InvalidParameter`.
pub(crate) fn parse_delta(s: &str) -> StatsResult<u32> {
    let delta = parse_u64(s)?;
    u32::try_from(delta)
        .ok()
        .filter(|d| DELTA_RANGE.contains(d))
        .ok_or(StatsError::InvalidParameter {
            name: "delta",
            value: delta as f64,
        })
}

fn k_scale(q: f64, delta: f64) -> f64 {
    delta * ((2.0 * q - 1.0).clamp(-1.0, 1.0).asin() / std::f64::consts::PI + 0.5)
}

/// Half-width of the q-window inside which [`q_window`] defers to the
/// exact `k_scale` comparison.
///
/// Both sides of that comparison carry rounding error: `k_scale` and the
/// `sin` inversion are each accurate to a few ulp of δ in k (`asin`/`sin`
/// within an ulp or two, plus a few roundings around them, including the
/// one in `2q − 1`). The k₁ slope dk/dq is at least 2δ/π (the minimum is
/// at q = ½; it grows toward the tails), so a k-error of c·δ·2⁻⁵² moves
/// the crossing point by at most (π/2)·c·2⁻⁵² in q — below 10⁻¹⁴ for any
/// plausible c, five orders of magnitude inside this margin. A q further
/// than the margin from `q_lim` therefore gets the same answer from the
/// exact comparison, which only the q inside the window still pay for.
const Q_MARGIN: f64 = 1e-9;

/// The k₁ bound `k_scale(q) ≤ k_limit`, inverted once into q-space:
/// `q_lim = (sin(π(k_limit/δ − ½)) + 1)/2`. Returns `(merge_below,
/// emit_above)` = `q_lim ∓ Q_MARGIN`: every q below the first satisfies
/// the bound and every q above the second violates it, so only a q inside
/// the window needs the exact comparison. Since `k_scale ≤ δ`, a
/// `k_limit > δ` admits every q; a NaN limit yields a NaN window, which
/// sends every q to the exact comparison.
fn q_window(k_limit: f64, delta: f64) -> (f64, f64) {
    if k_limit > delta {
        return (f64::INFINITY, f64::INFINITY);
    }
    let q_lim = ((std::f64::consts::PI * (k_limit / delta - 0.5)).sin() + 1.0) / 2.0;
    (q_lim - Q_MARGIN, q_lim + Q_MARGIN)
}

/// Maps `x` to a `u64` whose unsigned order is `f64::total_cmp` order, so
/// the buffer sorts as integers (cheaper per comparison than
/// `total_cmp`). Equal keys are equal bits, so an unstable sort is
/// deterministic.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`total_order_key`].
fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Ascending `(mean, weight)` in IEEE total order. Two centroids compare
/// equal only when both fields have identical bits, so tied centroids are
/// interchangeable and every sort under this order yields the same bits
/// (and `-0.0` sorts before `0.0` whatever order they arrived in).
fn centroid_order(a: &Centroid, b: &Centroid) -> Ordering {
    a.mean
        .total_cmp(&b.mean)
        .then(a.weight.total_cmp(&b.weight))
}

/// Appends the merge of two runs ascending under [`centroid_order`] to
/// `out`, taking from `a` on ties.
fn merge_runs<T: Copy>(
    out: &mut Vec<Centroid>,
    a: &[Centroid],
    b: &[T],
    centroid: impl Fn(T) -> Centroid,
) {
    let mut rest = b.iter().map(|&y| centroid(y)).peekable();
    for x in a {
        while let Some(y) = rest.next_if(|y| centroid_order(y, x).is_lt()) {
            out.push(y);
        }
        out.push(*x);
    }
    out.extend(rest);
}

/// `f64::min` that breaks the `-0.0`/`0.0` tie toward `-0.0`, so the
/// tracked extremum does not depend on which zero arrived first.
fn total_min(a: f64, b: f64) -> f64 {
    if a == b {
        f64::from_bits(a.to_bits() | b.to_bits())
    } else {
        a.min(b)
    }
}

/// `f64::max` that breaks the `-0.0`/`0.0` tie toward `0.0`.
fn total_max(a: f64, b: f64) -> f64 {
    if a == b {
        f64::from_bits(a.to_bits() & b.to_bits())
    } else {
        a.max(b)
    }
}

impl TDigest {
    /// Creates an empty digest with compression parameter `delta`
    /// (10 ≤ δ ≤ 10 000; ~100–500 is typical, larger is more accurate).
    pub fn new(delta: u32) -> StatsResult<Self> {
        if !DELTA_RANGE.contains(&delta) {
            return Err(StatsError::InvalidParameter {
                name: "delta",
                value: delta as f64,
            });
        }
        Ok(Self::with_checked_delta(delta))
    }

    /// An empty digest for a δ already range-checked by [`TDigest::new`]
    /// or [`parse_delta`] (as [`super::StreamingSummary`] does when it is
    /// configured or decoded), so promotion cannot fail mid-stream.
    pub(crate) fn with_checked_delta(delta: u32) -> Self {
        debug_assert!(DELTA_RANGE.contains(&delta));
        Self {
            delta,
            centroids: Vec::new(),
            buffer: Vec::new(),
            n: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The compression parameter δ.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// Exact smallest finite observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Exact largest finite observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Number of centroids currently held (after an internal flush the
    /// count is bounded by ~2δ).
    pub fn centroid_count(&self) -> usize {
        self.centroids.len()
    }

    /// Estimated resident bytes: centroid list + buffer.
    pub fn resident_bytes(&self) -> usize {
        self.centroids.capacity() * std::mem::size_of::<Centroid>()
            + self.buffer.capacity() * 8
            + std::mem::size_of::<Self>()
    }

    fn buffer_capacity(&self) -> usize {
        BUFFER_FACTOR * self.delta as usize
    }

    /// Folds the buffer (and any extra centroids) into the centroid list
    /// with one bounded merge pass.
    ///
    /// Only the unsorted inputs are sorted: the centroid list is already
    /// ascending except where tied means end up with weights out of order
    /// (or a decoded record lists them unsorted), so a run-detecting
    /// stable sort restores `(mean, weight)` order in linear time, and the
    /// three runs then merge linearly. The pass compares cumulative q
    /// against the k₁ bound inverted once per emitted centroid
    /// ([`q_window`]) instead of evaluating `asin` per element.
    fn compress_with(&mut self, mut extra: Vec<Centroid>) {
        self.centroids.sort_by(centroid_order);
        let mut samples: Vec<u64> = self.buffer.drain(..).map(total_order_key).collect();
        samples.sort_unstable();
        extra.sort_unstable_by(centroid_order);
        let mut pending = Vec::with_capacity(self.centroids.len() + samples.len());
        merge_runs(&mut pending, &self.centroids, &samples, |key| Centroid {
            mean: from_total_order_key(key),
            weight: 1.0,
        });
        if !extra.is_empty() {
            let mut with_extra = Vec::with_capacity(pending.len() + extra.len());
            merge_runs(&mut with_extra, &pending, &extra, |c| c);
            pending = with_extra;
        }
        let total: f64 = pending.iter().map(|c| c.weight).sum();
        let delta = self.delta as f64;
        let mut iter = pending.into_iter();
        let Some(mut cur) = iter.next() else {
            return;
        };
        let mut out: Vec<Centroid> = Vec::with_capacity(2 * self.delta as usize);
        let mut w_done = 0.0;
        let mut k_limit = k_scale(0.0, delta) + 1.0;
        let (mut merge_below, mut emit_above) = q_window(k_limit, delta);
        for c in iter {
            let q = (w_done + cur.weight + c.weight) / total;
            if q < merge_below || (q <= emit_above && k_scale(q, delta) <= k_limit) {
                // Weighted incremental mean keeps the update stable.
                cur.mean += c.weight / (cur.weight + c.weight) * (c.mean - cur.mean);
                cur.weight += c.weight;
            } else {
                w_done += cur.weight;
                k_limit = k_scale(w_done / total, delta) + 1.0;
                (merge_below, emit_above) = q_window(k_limit, delta);
                out.push(cur);
                cur = c;
            }
        }
        out.push(cur);
        self.centroids = out;
    }

    /// Merges a batch of already-ascending finite values. Used when an
    /// exact partial folds into a digest-mode partial.
    pub(crate) fn merge_sorted_values(&mut self, values: &[f64]) {
        for &x in values {
            self.push(x);
        }
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`), interpolated between centroid
    /// means, anchored at the exact min/max.
    pub fn quantile(&self, p: f64) -> StatsResult<f64> {
        self.quantiles([p]).map(|[q]| q)
    }

    /// Several quantiles from one flush: bit-identical to calling
    /// [`TDigest::quantile`] once per entry (errors included), but the
    /// buffer is folded into a temporary only once. `self` is never
    /// flushed in place, which would move the compression phase and hence
    /// the bits of every later result.
    pub(crate) fn quantiles<const N: usize>(&self, ps: [f64; N]) -> StatsResult<[f64; N]> {
        for p in ps {
            if !(0.0..=1.0).contains(&p) {
                return Err(StatsError::InvalidProbability {
                    name: "p",
                    value: p,
                });
            }
            if self.n == 0 {
                return Err(StatsError::EmptySample);
            }
        }
        if !self.buffer.is_empty() {
            let mut flushed = self.clone();
            flushed.compress_with(Vec::new());
            return Ok(ps.map(|p| flushed.flushed_quantile(p)));
        }
        Ok(ps.map(|p| self.flushed_quantile(p)))
    }

    /// [`TDigest::quantile`] on a digest whose buffer is empty.
    fn flushed_quantile(&self, p: f64) -> f64 {
        let total: f64 = self.centroids.iter().map(|c| c.weight).sum();
        let index = p * total;
        // Centroid i covers [cum, cum + w); its mean sits at the midpoint.
        let mut cum = 0.0;
        let mut prev_mid = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let mid = cum + c.weight / 2.0;
            if index <= mid {
                let span = mid - prev_mid;
                let t = if span > 0.0 {
                    (index - prev_mid) / span
                } else {
                    1.0
                };
                return prev_mean + t * (c.mean - prev_mean);
            }
            prev_mid = mid;
            prev_mean = c.mean;
            cum += c.weight;
        }
        let span = total - prev_mid;
        let t = if span > 0.0 {
            (index - prev_mid) / span
        } else {
            1.0
        };
        prev_mean + t * (self.max - prev_mean)
    }

    /// Median estimate.
    pub fn median(&self) -> StatsResult<f64> {
        self.quantile(0.5)
    }
}

impl MergeableSummary for TDigest {
    fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.n += 1;
        self.min = total_min(self.min, x);
        self.max = total_max(self.max, x);
        self.buffer.push(x);
        if self.buffer.len() >= self.buffer_capacity() {
            self.compress_with(Vec::new());
        }
    }

    fn merge_from(&mut self, other: &Self) -> StatsResult<()> {
        if self.delta != other.delta {
            return Err(StatsError::MismatchedSketch("digest delta differs"));
        }
        self.n += other.n;
        self.non_finite += other.non_finite;
        self.min = total_min(self.min, other.min);
        self.max = total_max(self.max, other.max);
        let mut extra = other.centroids.clone();
        extra.extend(other.buffer.iter().map(|&x| Centroid {
            mean: x,
            weight: 1.0,
        }));
        self.compress_with(extra);
        Ok(())
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    fn to_record(&self) -> String {
        // Canonical form: flush the buffer first so the record is a pure
        // function of the absorbed multiset, not of push/flush phase.
        if !self.buffer.is_empty() {
            let mut flushed = self.clone();
            flushed.compress_with(Vec::new());
            return flushed.to_record();
        }
        let centroids: Vec<String> = self
            .centroids
            .iter()
            .map(|c| format!("{}:{}", f64_to_hex(c.mean), f64_to_hex(c.weight)))
            .collect();
        format!(
            "td1;{};{};{};{};{};{}",
            self.delta,
            self.n,
            self.non_finite,
            f64_to_hex(self.min),
            f64_to_hex(self.max),
            centroids.join(",")
        )
    }

    fn from_record(record: &str) -> StatsResult<Self> {
        let parts: Vec<&str> = record.split(';').collect();
        if parts.len() != 7 || parts[0] != "td1" {
            return Err(StatsError::MalformedSketch("expected 7-part td1 record"));
        }
        let mut digest = TDigest::new(parse_delta(parts[1])?)?;
        digest.n = parse_u64(parts[2])?;
        digest.non_finite = parse_u64(parts[3])?;
        digest.min = f64_from_hex(parts[4])?;
        digest.max = f64_from_hex(parts[5])?;
        if !parts[6].is_empty() {
            for c in parts[6].split(',') {
                let (mean, weight) = c
                    .split_once(':')
                    .ok_or(StatsError::MalformedSketch("centroid missing ':'"))?;
                let (mean, weight) = (f64_from_hex(mean)?, f64_from_hex(weight)?);
                // Compression sorts centroids and needs finite means and
                // positive finite weights.
                if !mean.is_finite() {
                    return Err(StatsError::MalformedSketch("non-finite centroid mean"));
                }
                if !(weight.is_finite() && weight > 0.0) {
                    return Err(StatsError::MalformedSketch(
                        "centroid weight not positive and finite",
                    ));
                }
                digest.centroids.push(Centroid { mean, weight });
            }
        }
        Ok(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The compression pass before the linear merge, verbatim: re-sort
    /// every centroid plus the buffer, `asin` per element. The oracle the
    /// differential tests hold the production pass to, bit for bit.
    impl TDigest {
        fn oracle_compress_with(&mut self, extra: Vec<Centroid>) {
            let mut pending: Vec<Centroid> =
                Vec::with_capacity(self.centroids.len() + self.buffer.len() + extra.len());
            pending.append(&mut self.centroids);
            pending.extend(self.buffer.drain(..).map(|x| Centroid {
                mean: x,
                weight: 1.0,
            }));
            pending.extend(extra);
            if pending.is_empty() {
                return;
            }
            // Total order on (mean, weight): all values are finite, and equal
            // (mean, weight) pairs are interchangeable, so the sorted sequence
            // is a pure function of the multiset.
            pending.sort_by(|a, b| {
                (a.mean, a.weight)
                    .partial_cmp(&(b.mean, b.weight))
                    .expect("centroids are finite")
            });
            let total: f64 = pending.iter().map(|c| c.weight).sum();
            let delta = self.delta as f64;
            let mut out: Vec<Centroid> = Vec::with_capacity(2 * self.delta as usize);
            let mut iter = pending.into_iter();
            let mut cur = iter.next().expect("pending non-empty");
            let mut w_done = 0.0;
            let mut k_limit = k_scale(0.0, delta) + 1.0;
            for c in iter {
                let q = (w_done + cur.weight + c.weight) / total;
                if k_scale(q, delta) <= k_limit {
                    // Weighted incremental mean keeps the update stable.
                    cur.mean += c.weight / (cur.weight + c.weight) * (c.mean - cur.mean);
                    cur.weight += c.weight;
                } else {
                    w_done += cur.weight;
                    k_limit = k_scale(w_done / total, delta) + 1.0;
                    out.push(cur);
                    cur = c;
                }
            }
            out.push(cur);
            self.centroids = out;
        }

        fn oracle_push(&mut self, x: f64) {
            if !x.is_finite() {
                self.non_finite += 1;
                return;
            }
            self.n += 1;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
            self.buffer.push(x);
            if self.buffer.len() >= self.buffer_capacity() {
                self.oracle_compress_with(Vec::new());
            }
        }

        fn oracle_merge_from(&mut self, other: &Self) {
            self.n += other.n;
            self.non_finite += other.non_finite;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            let mut extra = other.centroids.clone();
            extra.extend(other.buffer.iter().map(|&x| Centroid {
                mean: x,
                weight: 1.0,
            }));
            self.oracle_compress_with(extra);
        }

        fn oracle_quantile(&self, p: f64) -> f64 {
            let mut flushed = self.clone();
            if !flushed.buffer.is_empty() {
                flushed.oracle_compress_with(Vec::new());
            }
            flushed.flushed_quantile(p)
        }
    }

    const DIFFERENTIAL_DELTAS: [u32; 6] = [10, 37, 100, 200, 500, 1000];
    const DIFFERENTIAL_PS: [f64; 7] = [0.0, 0.001, 0.01, 0.5, 0.9, 0.99, 1.0];

    /// Deterministic uniform draws in [0, 1) (splitmix64).
    fn uniforms(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / 2f64.powi(64)
        }
    }

    /// The adversarial streams: uniform, 7-value heavy ties, `exp(±350)`
    /// dynamic range and a negative heavy tail.
    fn differential_streams(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
        let mut u = uniforms(seed);
        let mut draw = |f: fn(f64) -> f64| (0..n).map(|_| f(u())).collect::<Vec<f64>>();
        vec![
            ("uniform", draw(|u| 1000.0 * u)),
            ("seven ties", draw(|u| (7.0 * u).floor() + 1.0)),
            ("exp(±350)", draw(|u| (700.0 * u - 350.0).exp())),
            ("negative tail", draw(|u| -(1.0 - u).powf(-1.5))),
        ]
    }

    /// Every bit of a digest's state, its resident size included.
    fn state_bits(d: &TDigest) -> Vec<u64> {
        let mut bits = vec![
            d.n,
            d.non_finite,
            d.min.to_bits(),
            d.max.to_bits(),
            d.resident_bytes() as u64,
            d.centroids.len() as u64,
        ];
        bits.extend(
            d.centroids
                .iter()
                .flat_map(|c| [c.mean, c.weight].map(f64::to_bits)),
        );
        bits.extend(d.buffer.iter().map(|x| x.to_bits()));
        bits
    }

    fn assert_quantiles_match(new: &TDigest, oracle: &TDigest, what: &str) {
        for p in DIFFERENTIAL_PS {
            assert_eq!(
                new.quantile(p).unwrap().to_bits(),
                oracle.oracle_quantile(p).to_bits(),
                "{what}: p={p}"
            );
        }
    }

    #[test]
    fn linear_merge_pass_is_bit_identical_to_the_oracle() {
        for delta in DIFFERENTIAL_DELTAS {
            let cap = BUFFER_FACTOR * delta as usize;
            let n = 5 * cap + cap / 3;
            for (name, xs) in differential_streams(n, u64::from(delta)) {
                let what = format!("{name}, delta={delta}");
                let mut new = TDigest::new(delta).unwrap();
                let mut oracle = new.clone();
                for (i, &x) in xs.iter().enumerate() {
                    new.push(x);
                    oracle.oracle_push(x);
                    if new.buffer.is_empty() {
                        assert_eq!(state_bits(&new), state_bits(&oracle), "{what}: push {i}");
                    }
                    if i % (cap / 3 + 1) == cap / 5 {
                        assert_quantiles_match(&new, &oracle, &format!("{what}: push {i}"));
                    }
                }
                assert_eq!(state_bits(&new), state_bits(&oracle), "{what}");
                assert_quantiles_match(&new, &oracle, &what);
                assert!(new.centroids.len() > 1, "{what}: stream never compressed");
            }
        }
    }

    #[test]
    fn merge_from_is_bit_identical_to_the_oracle() {
        for delta in DIFFERENTIAL_DELTAS {
            let cap = BUFFER_FACTOR * delta as usize;
            for (name, xs) in differential_streams(3 * cap, 7 + u64::from(delta)) {
                // Parts of different sizes: some flushed, some holding only
                // a partial buffer, so `extra` mixes centroids and samples.
                let mut parts: Vec<TDigest> = Vec::new();
                for chunk in xs.chunks(cap + cap / 2 + 1) {
                    let (head, tail) = chunk.split_at(chunk.len() / 3);
                    for sub in [head, tail] {
                        let mut d = TDigest::new(delta).unwrap();
                        sub.iter().for_each(|&x| d.push(x));
                        parts.push(d);
                    }
                }
                let mut new = parts[0].clone();
                let mut oracle = parts[0].clone();
                for (i, part) in parts.iter().enumerate().skip(1) {
                    let what = format!("{name}, delta={delta}: merge {i}");
                    new.merge_from(part).unwrap();
                    oracle.oracle_merge_from(part);
                    assert_eq!(state_bits(&new), state_bits(&oracle), "{what}");
                    assert_quantiles_match(&new, &oracle, &what);
                }
            }
        }
    }

    #[test]
    fn decoded_unsorted_centroids_compress_like_the_oracle() {
        // A record may list centroids in any order; compression must still
        // see them in `(mean, weight)` order, as the oracle's full sort does.
        let mut d = TDigest::new(37).unwrap();
        let mut u = uniforms(3);
        for _ in 0..2_000 {
            d.push((7.0 * u()).floor());
        }
        let record = d.to_record();
        let (head, centroids) = record.rsplit_once(';').unwrap();
        let reversed: Vec<&str> = centroids.split(',').rev().collect();
        let mut new = TDigest::from_record(&format!("{head};{}", reversed.join(","))).unwrap();
        let mut oracle = new.clone();
        assert_quantiles_match(&new, &oracle, "decoded");
        for _ in 0..1_000 {
            let x = (7.0 * u()).floor();
            new.push(x);
            oracle.oracle_push(x);
        }
        assert_eq!(state_bits(&new), state_bits(&oracle));
        assert_quantiles_match(&new, &oracle, "decoded, then pushed");
    }

    #[test]
    fn signed_zero_order_does_not_leak_into_records() {
        let tail = (1..5000).map(f64::from);
        let pushed = |zeros: [f64; 2]| {
            let mut d = TDigest::new(200).unwrap();
            zeros
                .into_iter()
                .chain(tail.clone())
                .for_each(|x| d.push(x));
            d
        };
        let (neg_first, pos_first) = (pushed([-0.0, 0.0]), pushed([0.0, -0.0]));
        assert_eq!(neg_first.to_record(), pos_first.to_record());
        assert_eq!(neg_first.min().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(neg_first.max(), Some(4999.0));

        let one = |x: f64| {
            let mut d = TDigest::new(200).unwrap();
            d.push(x);
            d
        };
        let merged = |first: f64, second: f64| {
            let mut d = pushed([first, 1.0]);
            d.merge_from(&one(second)).unwrap();
            d.to_record()
        };
        assert_eq!(merged(-0.0, 0.0), merged(0.0, -0.0));
        let zeros = |first: f64, second: f64| {
            let mut d = TDigest::new(200).unwrap();
            d.push(first);
            d.push(second);
            let mut base = pushed([2.0, 3.0]);
            base.merge_from(&d).unwrap();
            base.to_record()
        };
        assert_eq!(zeros(-0.0, 0.0), zeros(0.0, -0.0));
    }

    #[test]
    fn multi_quantile_read_matches_single_reads() {
        let mut d = TDigest::new(100).unwrap();
        assert!(matches!(d.quantiles([0.5]), Err(StatsError::EmptySample)));
        assert!(matches!(
            d.quantiles([1.5, 0.5]),
            Err(StatsError::InvalidProbability { .. })
        ));
        for x in heavy_tailed(3_000) {
            d.push(x);
        }
        assert!(!d.buffer.is_empty());
        let ps = [0.0, 0.25, 0.5, 0.975, 1.0];
        let many = d.quantiles(ps).unwrap();
        for (p, q) in ps.into_iter().zip(many) {
            assert_eq!(q.to_bits(), d.quantile(p).unwrap().to_bits(), "p={p}");
        }
        assert!(matches!(
            d.quantiles([0.5, -0.1]),
            Err(StatsError::InvalidProbability { .. })
        ));
    }

    fn rank_of(sorted: &[f64], x: f64) -> f64 {
        let below = sorted.partition_point(|&v| v <= x);
        below as f64 / sorted.len() as f64
    }

    fn heavy_tailed(n: usize) -> Vec<f64> {
        // Deterministic Pareto-like tail via inverse transform on a
        // low-discrepancy sequence.
        (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                let u = (u * 0.618_033_988_749_894_8).fract().max(1e-9);
                (1.0 / (1.0 - u)).powf(1.16)
            })
            .collect()
    }

    #[test]
    fn quantiles_track_exact_ranks() {
        let xs = heavy_tailed(50_000);
        let mut d = TDigest::new(200).unwrap();
        for &x in &xs {
            d.push(x);
        }
        let sorted = crate::sorted_copy(&xs);
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let est = d.quantile(p).unwrap();
            let err = (rank_of(&sorted, est) - p).abs();
            assert!(err <= 0.01, "p={p}: rank error {err}");
        }
        assert_eq!(d.quantile(0.0).unwrap(), sorted[0]);
        assert_eq!(d.quantile(1.0).unwrap(), *sorted.last().unwrap());
        assert!(d.centroid_count() <= 2 * 200);
    }

    #[test]
    fn merge_matches_single_digest_accuracy() {
        let xs = heavy_tailed(40_000);
        let mut whole = TDigest::new(100).unwrap();
        let mut parts: Vec<TDigest> = (0..8).map(|_| TDigest::new(100).unwrap()).collect();
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            parts[i % 8].push(x);
        }
        let mut merged = TDigest::new(100).unwrap();
        for p in &parts {
            merged.merge_from(p).unwrap();
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        let sorted = crate::sorted_copy(&xs);
        for p in [0.05, 0.5, 0.95, 0.99] {
            let err = (rank_of(&sorted, merged.quantile(p).unwrap()) - p).abs();
            assert!(err <= 0.02, "p={p}: merged rank error {err}");
        }
    }

    #[test]
    fn push_sequence_is_deterministic() {
        let xs = heavy_tailed(10_000);
        let build = || {
            let mut d = TDigest::new(150).unwrap();
            for &x in &xs {
                d.push(x);
            }
            d
        };
        assert_eq!(build().to_record(), build().to_record());
    }

    #[test]
    fn record_round_trips_bit_exactly() {
        let mut d = TDigest::new(50).unwrap();
        for &x in &[3.5, -0.0, 1e-300, 7.25, f64::NAN, 2.0] {
            d.push(x);
        }
        let record = d.to_record();
        let back = TDigest::from_record(&record).unwrap();
        assert_eq!(back.to_record(), record);
        assert_eq!(back.non_finite_count(), 1);
        assert_eq!(back.count(), 5);
        // Signed zero must survive (bit pattern, not value, equality).
        assert!(record.contains(&crate::f64_to_hex(-0.0)));
        // Empty digest round-trips too.
        let empty = TDigest::new(50).unwrap();
        let back = TDigest::from_record(&empty.to_record()).unwrap();
        assert_eq!(back, empty);
        assert!(back.quantile(0.5).is_err());
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(TDigest::new(5).is_err());
        assert!(TDigest::new(20_000).is_err());
        let a = TDigest::new(100).unwrap();
        let mut b = TDigest::new(200).unwrap();
        assert!(matches!(
            b.merge_from(&a),
            Err(StatsError::MismatchedSketch(_))
        ));
        assert!(matches!(
            a.quantile(1.5),
            Err(StatsError::InvalidProbability { .. })
        ));
        assert!(TDigest::from_record("td1;100;0").is_err());
        assert!(TDigest::from_record("nope").is_err());
    }

    #[test]
    fn out_of_range_record_delta_is_rejected_not_truncated() {
        let valid = TDigest::new(200).unwrap().to_record();
        let tail = valid.strip_prefix("td1;200").unwrap();
        // 4294967496 = 2^32 + 200: an `as u32` cast would decode δ=200.
        for delta in ["4294967496", "18446744073709551615", "5", "10001", "0"] {
            let record = format!("td1;{delta}{tail}");
            assert!(
                matches!(
                    TDigest::from_record(&record),
                    Err(StatsError::InvalidParameter { name: "delta", .. })
                ),
                "{record}"
            );
        }
        assert!(matches!(
            TDigest::from_record(&format!("td1;-1{tail}")),
            Err(StatsError::MalformedSketch(_))
        ));
    }

    #[test]
    fn bad_centroids_are_rejected_instead_of_panicking_later() {
        let mut d = TDigest::new(10).unwrap();
        for x in [1.0, 2.0, 3.0] {
            d.push(x);
        }
        let good = d.to_record();
        let (head, centroids) = good.rsplit_once(';').unwrap();
        let one = centroids.split(',').next().unwrap();
        let (mean, weight) = one.split_once(':').unwrap();
        let hex = crate::f64_to_hex;
        let cases = [
            (hex(f64::NAN), weight.to_owned(), "NaN mean"),
            (hex(f64::INFINITY), weight.to_owned(), "+inf mean"),
            (hex(f64::NEG_INFINITY), weight.to_owned(), "-inf mean"),
            (mean.to_owned(), hex(f64::NAN), "NaN weight"),
            (mean.to_owned(), hex(f64::INFINITY), "inf weight"),
            (mean.to_owned(), hex(0.0), "zero weight"),
            (mean.to_owned(), hex(-0.0), "negative zero weight"),
            (mean.to_owned(), hex(-1.0), "negative weight"),
        ];
        for (mean, weight, what) in cases {
            let record = format!("{head};{mean}:{weight},{centroids}");
            assert!(
                matches!(
                    TDigest::from_record(&record),
                    Err(StatsError::MalformedSketch(_))
                ),
                "{what}: {record}"
            );
        }
        // The unmodified record still decodes and accepts pushes.
        let mut back = TDigest::from_record(&good).unwrap();
        for x in 0..200 {
            back.push(f64::from(x));
        }
        assert!(back.median().is_ok());
    }

    #[test]
    fn non_finite_only_digest_stays_empty() {
        let mut d = TDigest::new(100).unwrap();
        d.push(f64::NAN);
        d.push(f64::INFINITY);
        assert_eq!(d.count(), 0);
        assert_eq!(d.non_finite_count(), 2);
        assert_eq!(d.min(), None);
        assert!(d.quantile(0.5).is_err());
        // NaN-bearing (all-quarantined) digest still round-trips.
        let back = TDigest::from_record(&d.to_record()).unwrap();
        assert_eq!(back.to_record(), d.to_record());
    }
}
