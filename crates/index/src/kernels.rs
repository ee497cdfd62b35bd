//! Shared word-level intersection kernels.
//!
//! Every dense coverage probe — the oracle's multi-vector AND — bottoms
//! out in the loops here. They are written as explicit 4×`u64`-lane unrolled loops with
//! a scalar tail: four independent accumulators per iteration give the
//! backend four in-flight dependency chains, which is what lets a scalar
//! core keep its popcount/AND units saturated (and what an auto-vectorizer
//! needs to emit 256-bit SIMD). The crate stays `#![forbid(unsafe_code)]`,
//! so `u64::count_ones` is the popcount primitive — it compiles to the
//! hardware `popcnt` instruction whenever the target enables the feature
//! (x86-64-v2 and newer, all aarch64); [`kernel_features`] reports what the
//! running host actually has so `stats` can surface it.

/// Words processed per unrolled iteration.
const LANES: usize = 4;

/// Bits per storage word.
pub(crate) const WORD_BITS: usize = 64;

/// `dst[i] &= src[i]` over the common prefix, 4 words per iteration.
pub(crate) fn and_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut i = 0;
    while i + LANES <= n {
        dst[i] &= src[i];
        dst[i + 1] &= src[i + 1];
        dst[i + 2] &= src[i + 2];
        dst[i + 3] &= src[i + 3];
        i += LANES;
    }
    while i < n {
        dst[i] &= src[i];
        i += 1;
    }
}

/// Population count of a word slice with four independent accumulators.
pub(crate) fn popcount_words(words: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let mut chunks = words.chunks_exact(LANES);
    for chunk in &mut chunks {
        acc[0] += u64::from(chunk[0].count_ones());
        acc[1] += u64::from(chunk[1].count_ones());
        acc[2] += u64::from(chunk[2].count_ones());
        acc[3] += u64::from(chunk[3].count_ones());
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for &w in chunks.remainder() {
        total += u64::from(w.count_ones());
    }
    total
}

/// Σ popcount(`words[t] & other[index[t]]`): a sparse word list ANDed
/// with a dense word slice and counted in one fused pass, without writing
/// the intersection anywhere, 4 words per iteration.
///
/// # Panics
///
/// Panics when `index` and `words` differ in length or an index is out of
/// range of `other`.
pub(crate) fn and_popcount_gather(index: &[u32], words: &[u64], other: &[u64]) -> u64 {
    assert_eq!(index.len(), words.len(), "sparse word list length mismatch");
    let mut acc = [0u64; LANES];
    let mut idx = index.chunks_exact(LANES);
    let mut w = words.chunks_exact(LANES);
    for (i, w) in (&mut idx).zip(&mut w) {
        acc[0] += u64::from((w[0] & other[i[0] as usize]).count_ones());
        acc[1] += u64::from((w[1] & other[i[1] as usize]).count_ones());
        acc[2] += u64::from((w[2] & other[i[2] as usize]).count_ones());
        acc[3] += u64::from((w[3] & other[i[3] as usize]).count_ones());
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for (&i, &w) in idx.remainder().iter().zip(w.remainder()) {
        total += u64::from((w & other[i as usize]).count_ones());
    }
    total
}

/// Σ `weights[base + bit]` over set bits of `word`.
#[inline]
fn weighted_bits(mut word: u64, weights: &[u64], base: usize) -> u64 {
    let mut total = 0u64;
    while word != 0 {
        let bit = word.trailing_zeros() as usize;
        total += weights[base + bit];
        word &= word - 1;
    }
    total
}

/// Σ `weights[wi*64 + bit]` over set bits of `words` (the Appendix A dot
/// product with the multiplicity vector). Bits whose weight index would be
/// out of range must be zero — the bit-vector tail invariant.
pub(crate) fn weighted_sum_words(words: &[u64], weights: &[u64]) -> u64 {
    let mut acc = [0u64; LANES];
    let mut wi = 0;
    let n = words.len();
    while wi + LANES <= n {
        acc[0] += weighted_bits(words[wi], weights, wi * WORD_BITS);
        acc[1] += weighted_bits(words[wi + 1], weights, (wi + 1) * WORD_BITS);
        acc[2] += weighted_bits(words[wi + 2], weights, (wi + 2) * WORD_BITS);
        acc[3] += weighted_bits(words[wi + 3], weights, (wi + 3) * WORD_BITS);
        wi += LANES;
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    while wi < n {
        total += weighted_bits(words[wi], weights, wi * WORD_BITS);
        wi += 1;
    }
    total
}

/// AND of `slices` at word group `wi..wi+4` (all slices at least `wi+4`
/// words long; `first` provides the seed lanes).
#[inline]
fn and_lanes(first: &[u64], rest: &[&[u64]], wi: usize) -> [u64; LANES] {
    let mut lanes = [first[wi], first[wi + 1], first[wi + 2], first[wi + 3]];
    for s in rest {
        lanes[0] &= s[wi];
        lanes[1] &= s[wi + 1];
        lanes[2] &= s[wi + 2];
        lanes[3] &= s[wi + 3];
    }
    lanes
}

/// Weighted popcount of the intersection of several equally-long word
/// slices without materializing it. An empty `slices` denotes the universe.
pub(crate) fn intersect_weighted_sum(slices: &[&[u64]], weights: &[u64]) -> u64 {
    let Some((first, rest)) = slices.split_first() else {
        return weights.iter().sum();
    };
    let n = first.len();
    let mut acc = [0u64; LANES];
    let mut wi = 0;
    while wi + LANES <= n {
        let lanes = and_lanes(first, rest, wi);
        acc[0] += weighted_bits(lanes[0], weights, wi * WORD_BITS);
        acc[1] += weighted_bits(lanes[1], weights, (wi + 1) * WORD_BITS);
        acc[2] += weighted_bits(lanes[2], weights, (wi + 2) * WORD_BITS);
        acc[3] += weighted_bits(lanes[3], weights, (wi + 3) * WORD_BITS);
        wi += LANES;
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    while wi < n {
        let mut word = first[wi];
        for s in rest {
            word &= s[wi];
        }
        total += weighted_bits(word, weights, wi * WORD_BITS);
        wi += 1;
    }
    total
}

/// Capped variant of [`intersect_weighted_sum`]: exact below `cap`, returns
/// the first running total reaching `cap` otherwise. Unrolling would defeat
/// the per-bit early exit, so this stays a scalar word loop on purpose.
pub(crate) fn intersect_weighted_capped(slices: &[&[u64]], weights: &[u64], cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let Some((first, rest)) = slices.split_first() else {
        let mut total = 0u64;
        for &w in weights {
            total = total.saturating_add(w);
            if total >= cap {
                return total;
            }
        }
        return total;
    };
    let mut total = 0u64;
    for wi in 0..first.len() {
        let mut word = first[wi];
        for s in rest {
            if word == 0 {
                break;
            }
            word &= s[wi];
        }
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            total = total.saturating_add(weights[wi * WORD_BITS + bit]);
            if total >= cap {
                return total;
            }
            word &= word - 1;
        }
    }
    total
}

/// [`intersect_weighted_capped`] for exactly two slices, `a & b`, without
/// the slice-of-slices indirection: the probe that extends a cached match
/// vector by one column.
pub(crate) fn and_weighted_capped(a: &[u64], b: &[u64], weights: &[u64], cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let mut total = 0u64;
    for (wi, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut word = x & y;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            total = total.saturating_add(weights[wi * WORD_BITS + bit]);
            if total >= cap {
                return total;
            }
            word &= word - 1;
        }
    }
    total
}

/// A short description of the intersection-kernel code paths available on
/// the running host (surfaced through the `stats` op). The kernels are
/// branch-free safe Rust, so this is diagnostic only: `u64::count_ones`
/// lowers to hardware popcount whenever the compile target enables it.
pub fn kernel_features() -> &'static str {
    #[cfg(all(target_arch = "x86_64", target_feature = "popcnt"))]
    {
        "x86_64+popcnt (compile-time)"
    }
    #[cfg(all(target_arch = "x86_64", not(target_feature = "popcnt")))]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            "x86_64 (popcnt available at runtime; rebuild with -C target-cpu=native to use it)"
        } else {
            "x86_64 (software popcount)"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        "aarch64+cnt"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_weighted(slices: &[&[u64]], weights: &[u64]) -> u64 {
        let Some((first, rest)) = slices.split_first() else {
            return weights.iter().sum();
        };
        let mut total = 0;
        for wi in 0..first.len() {
            let mut word = first[wi];
            for s in rest {
                word &= s[wi];
            }
            for bit in 0..64 {
                if word >> bit & 1 == 1 {
                    total += weights[wi * 64 + bit];
                }
            }
        }
        total
    }

    fn words(seed: u64, n: usize) -> Vec<u64> {
        // Splitmix64: deterministic pseudo-random words, no RNG dependency.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn unrolled_kernels_match_the_reference_across_tail_lengths() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 11, 16, 17] {
            let a = words(1, n);
            let b = words(2, n);
            let c = words(3, n);
            let weights: Vec<u64> = (0..n * 64).map(|i| (i % 7 + 1) as u64).collect();
            for slices in [
                vec![a.as_slice()],
                vec![a.as_slice(), b.as_slice()],
                vec![a.as_slice(), b.as_slice(), c.as_slice()],
            ] {
                let expected = reference_weighted(&slices, &weights);
                assert_eq!(intersect_weighted_sum(&slices, &weights), expected, "n={n}");
                assert_eq!(
                    intersect_weighted_capped(&slices, &weights, u64::MAX),
                    expected
                );
                if let [x, y] = slices[..] {
                    for cap in [0, 1, 5, 40, u64::MAX] {
                        assert_eq!(
                            and_weighted_capped(x, y, &weights, cap),
                            intersect_weighted_capped(&slices, &weights, cap),
                            "n={n} cap={cap}"
                        );
                    }
                }
                let capped = intersect_weighted_capped(&slices, &weights, 5);
                if expected >= 5 {
                    assert!(capped >= 5);
                } else {
                    assert_eq!(capped, expected);
                }
            }
        }
    }

    #[test]
    fn popcount_and_and_into_cover_the_scalar_tail() {
        for n in [0usize, 1, 4, 5, 9, 1024] {
            let a = words(7, n);
            let b = words(8, n);
            let expected: u64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| u64::from((x & y).count_ones()))
                .sum();
            let mut dst = a.clone();
            and_into(&mut dst, &b);
            assert_eq!(popcount_words(&dst), expected, "n={n}");
        }
    }

    #[test]
    fn and_popcount_gather_matches_and_then_popcount() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 17, 1114] {
            let a = words(11, n);
            let b = words(12, n);
            let mut dst = a.clone();
            and_into(&mut dst, &b);
            let expected = popcount_words(&dst);
            // Every word, then every other word: the gather sees exactly
            // the listed words of `a`.
            let all: Vec<u32> = (0..n as u32).collect();
            assert_eq!(and_popcount_gather(&all, &a, &b), expected, "n={n}");
            let odd: Vec<u32> = (1..n as u32).step_by(2).collect();
            let picked: Vec<u64> = odd.iter().map(|&i| a[i as usize]).collect();
            let expected_odd: u64 = odd
                .iter()
                .map(|&i| u64::from(dst[i as usize].count_ones()))
                .sum();
            assert_eq!(
                and_popcount_gather(&odd, &picked, &b),
                expected_odd,
                "n={n}"
            );
        }
    }

    #[test]
    fn weighted_sum_words_matches_single_slice_intersection() {
        let a = words(9, 17);
        let weights: Vec<u64> = (0..17 * 64).map(|i| (i % 5) as u64).collect();
        assert_eq!(
            weighted_sum_words(&a, &weights),
            intersect_weighted_sum(&[&a], &weights)
        );
    }

    #[test]
    fn kernel_features_reports_something() {
        assert!(!kernel_features().is_empty());
    }
}
