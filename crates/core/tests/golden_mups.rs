//! Golden MUP sets: the exact sorted output of DeepDiver on fixed generated
//! inputs. They were recorded before the walk lost its ancestor check and
//! gained the flat stack, the incremental dense descent and the newest-first
//! dominance scan, and pin that none of those changed a single MUP.
//!
//! Large sets are pinned by their size, the FNV-1a hash of their sorted
//! rendering (one MUP per line) and their first entries; small ones are
//! spelled out in full.
//!
//! Every set is found through three oracles: the dense bit-vectors alone
//! (`CoverageOracle::from_dataset`), the oracle a serving engine builds
//! (`<CoverageOracle as CoverageBackend>::build`), which answers from its
//! coverage lattice whenever the schema fits, and the one `find_mups`
//! builds (`CoverageOracle::for_threshold`), which answers the walk from its
//! covered map. The d = 13 set, recorded before the covered map existed,
//! has a schema whose map is built through the prefix split.

use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::pattern::Pattern;
use coverage_core::Threshold;
use coverage_data::generators::{airbnb_like, bluenile_like, diagonal_dataset};
use coverage_data::Dataset;
use coverage_index::{CoverageBackend, CoverageOracle};

/// The MUPs `alg` finds on `dataset`, the same through all three oracles.
fn mups(alg: &DeepDiver, dataset: &Dataset, tau: u64) -> Vec<String> {
    let render = |mups: Vec<Pattern>| mups.iter().map(Pattern::to_string).collect::<Vec<_>>();
    let walk = |oracle: &CoverageOracle| {
        let mut found = alg.find_mups_with_oracle(oracle, tau).unwrap();
        found.sort();
        render(found)
    };
    let dense = walk(&CoverageOracle::from_dataset(dataset));
    let engine_oracle = <CoverageOracle as CoverageBackend>::build(dataset, 1);
    assert_eq!(
        walk(&engine_oracle),
        dense,
        "the engine's lattice finds other MUPs"
    );
    let mapped = render(alg.find_mups(dataset, Threshold::Count(tau)).unwrap());
    assert_eq!(mapped, dense, "the covered map finds other MUPs");
    dense
}

/// 64-bit FNV-1a over the rendering, each MUP followed by a newline.
fn fnv1a(mups: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in mups.iter().flat_map(|m| m.bytes().chain([b'\n'])) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn assert_golden(got: &[String], len: usize, hash: u64, head: &[&str]) {
    assert_eq!(got.len(), len, "MUP count");
    assert_eq!(&got[..head.len()], head, "first MUPs");
    assert_eq!(fnv1a(got), hash, "hash of the sorted MUP set");
}

#[test]
fn airbnb_tau_20() {
    let ds = airbnb_like(20_000, 10, 2019).unwrap();
    assert_golden(
        &mups(&DeepDiver::default(), &ds, 20),
        1009,
        0xbed7_da3a_4c00_4be7,
        &[
            "0000110X01",
            "00001X100X",
            "0000X11X0X",
            "0000XX1XX0",
            "0001XXXXXX",
            "000X000X1X",
            "000X001XXX",
            "000X00XXX0",
        ],
    );
}

#[test]
fn airbnb_d13_tau_20() {
    // 3^13 nodes: the covered map counts them through 27 prefix nodes.
    let ds = airbnb_like(20_000, 13, 2019).unwrap();
    assert_golden(
        &mups(&DeepDiver::default(), &ds, 20),
        14_893,
        0x30d0_7aa6_735f_4727,
        &[
            "0000011XXXXXX",
            "00000X1X0XXXX",
            "00000X1XXXX01",
            "0000100X1X1XX",
            "0000100X1XX01",
            "0000100XX100X",
            "0000100XX11X1",
            "0000101XXXXXX",
        ],
    );
}

#[test]
fn airbnb_tau_20_up_to_level_3() {
    let ds = airbnb_like(20_000, 10, 2019).unwrap();
    assert_eq!(
        mups(&DeepDiver::with_max_level(3), &ds, 20),
        ["0XX10XXXXX", "0XX1XXX1XX", "0XXXXX01XX", "0XXXXXX1X0"]
    );
}

#[test]
fn bluenile_tau_5() {
    let ds = bluenile_like(5_000, 2019).unwrap();
    assert_golden(
        &mups(&DeepDiver::default(), &ds, 5),
        15_430,
        0xabcb_b089_0d3c_b3b9,
        &[
            "0000100", "00001X1", "00001X2", "00001X3", "000020X", "00002X1", "0000X11", "0000X21",
        ],
    );
}

#[test]
fn theorem1_diagonal() {
    // Theorem 1: n items over n binary attributes at τ = n/2 + 1. The MUPs
    // are the n single-1 patterns and the C(n, n/2) patterns fixing exactly
    // n/2 attributes to 0.
    let n = 8;
    let ds = diagonal_dataset(n).unwrap();
    let mut expected: Vec<String> = (0..n)
        .map(|i| (0..n).map(|j| if j == i { '1' } else { 'X' }).collect())
        .collect();
    for mask in 0u32..1 << n {
        if mask.count_ones() as usize == n / 2 {
            expected.push(
                (0..n)
                    .map(|j| if mask >> j & 1 == 1 { '0' } else { 'X' })
                    .collect(),
            );
        }
    }
    expected.sort();
    let got = mups(&DeepDiver::default(), &ds, (n / 2 + 1) as u64);
    assert_eq!(got, expected);
    assert_eq!(fnv1a(&got), 0x1e32_6281_684a_0d65);
}
