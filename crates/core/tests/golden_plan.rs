//! Golden plans: the exact combinations the greedy hitting set selects on
//! fixed generated inputs. They were recorded before the solver's
//! compaction and fused scoring went in, and pin that the rewrite walks the
//! same search tree with the same tie-breaks. The d = 13 plan, pinned by
//! its length, first picks and FNV-1a hash, was recorded before the solver
//! gained its count phase, and its dense targets switch to that phase. Its
//! copy counts, pinned by length and hash, were recorded while every
//! deficit was still one dense probe per target.

use coverage_core::enhance::{CoverageEnhancer, GreedyHittingSet};
use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::validation::{ValidationOracle, ValidationRule};
use coverage_core::Threshold;
use coverage_data::generators::{airbnb_like, bluenile_like};
use coverage_data::Dataset;
use coverage_index::CoverageOracle;

/// τ for every case: 1 % of the 5,000 generated rows.
const TAU: u64 = 50;

/// Plans level `lambda` on `dataset` and returns the target count and the
/// combinations as digit strings.
fn plan(dataset: &Dataset, lambda: usize, validation: ValidationOracle) -> (usize, Vec<String>) {
    plan_at(dataset, TAU, lambda, validation)
}

/// [`plan`] at threshold `tau`.
fn plan_at(
    dataset: &Dataset,
    tau: u64,
    lambda: usize,
    validation: ValidationOracle,
) -> (usize, Vec<String>) {
    let (plan, _) = plan_with_copies(dataset, tau, lambda, validation);
    plan
}

/// [`plan_at`], plus the plan's copy counts from a dense oracle, as
/// decimal strings.
fn plan_with_copies(
    dataset: &Dataset,
    tau: u64,
    lambda: usize,
    validation: ValidationOracle,
) -> ((usize, Vec<String>), Vec<String>) {
    let mups = DeepDiver::default()
        .find_mups(dataset, Threshold::Count(tau))
        .unwrap();
    let cards = dataset.schema().cardinalities();
    let plan = CoverageEnhancer::with_validation(validation)
        .plan_for_level(&GreedyHittingSet, &mups, &cards, lambda)
        .unwrap();
    let copies = plan
        .required_copies(&CoverageOracle::from_dataset(dataset), tau)
        .iter()
        .map(u64::to_string)
        .collect();
    let combos = plan
        .combinations
        .iter()
        .map(|c| c.iter().map(|&v| char::from(b'0' + v)).collect())
        .collect();
    ((plan.input_size(), combos), copies)
}

fn assert_plan(got: (usize, Vec<String>), targets: usize, expected: &[&str]) {
    assert_eq!(got.0, targets, "target count");
    assert_eq!(got.1, expected);
}

#[test]
fn airbnb_level_3() {
    let ds = airbnb_like(5_000, 10, 2019).unwrap();
    assert_plan(
        plan(&ds, 3, ValidationOracle::accept_all()),
        103,
        &[
            "0001001100",
            "0111010110",
            "0011100101",
            "0011111010",
            "0100000101",
            "0100001001",
        ],
    );
}

#[test]
fn airbnb_level_4() {
    let ds = airbnb_like(5_000, 10, 2019).unwrap();
    assert_plan(
        plan(&ds, 4, ValidationOracle::accept_all()),
        1023,
        &[
            "0001010110",
            "0011001100",
            "0101101110",
            "0101010101",
            "0010011110",
            "0110110100",
            "0001001011",
            "0001100101",
            "0111011010",
            "1011000110",
            "0001111000",
            "0110000111",
            "0100001100",
            "0010111111",
            "1001010100",
            "0011100010",
            "1000100100",
            "0100011001",
            "1001001101",
            "0011100101",
            "0000100111",
        ],
    );
}

#[test]
fn airbnb_level_4_with_rules() {
    let ds = airbnb_like(5_000, 10, 2019).unwrap();
    let rules = ValidationOracle::new(vec![
        ValidationRule::forbid_pair((0, 1), (1, 1)),
        ValidationRule::forbid_values(9, vec![0]),
    ]);
    assert_plan(
        plan(&ds, 4, rules),
        722,
        &[
            "0001001101",
            "0011010111",
            "0101110101",
            "0101011011",
            "0110000101",
            "0011101111",
            "0010011101",
            "1001000111",
            "0100101111",
            "0011111001",
            "0000110111",
            "1011100101",
            "0111000011",
            "1001011101",
            "0100010111",
            "0001001001",
            "0111001101",
            "0001101001",
            "0010001011",
            "1000000101",
            "0110010001",
            "1000010101",
        ],
    );
}

#[test]
fn bluenile_level_2() {
    let ds = bluenile_like(5_000, 2019).unwrap();
    assert_plan(
        plan(&ds, 2, ValidationOracle::accept_all()),
        195,
        &[
            "8357224", "9366224", "7347103", "7256202", "6364003", "5345004", "8267012", "3353003",
            "9137001", "4334004", "5226003", "9225003", "7133004", "6042004", "8043003", "3062004",
            "6055002", "8024001", "4046003", "5052002", "9044002", "6036001", "7065001", "3027004",
            "2054004", "8035004", "4063004", "3034004", "5017004", "9011004", "2065004", "5033004",
            "6021004", "7021004", "8011004", "1066004", "3045004", "4055004", "9052004", "5064004",
            "2006004", "6003004", "7002004", "8002004", "1007004", "2007004", "3006004", "4007004",
            "6007004", "7004004", "8006004", "9003004",
        ],
    );
}

#[test]
fn bluenile_level_2_with_rules() {
    let ds = bluenile_like(5_000, 2019).unwrap();
    let rules = ValidationOracle::new(vec![
        ValidationRule::forbid_pair((0, 3), (2, 6)),
        ValidationRule::forbid_values(6, vec![4]),
    ]);
    assert_plan(
        plan(&ds, 2, rules),
        180,
        &[
            "8357223", "9366223", "7343103", "5267102", "7256202", "6334003", "3345003", "7127001",
            "8233012", "9242002", "4353003", "5324003", "6062002", "8044001", "9035001", "6055001",
            "3026003", "4064003", "5036003", "8065003", "9054003", "3037003", "6046003", "4047003",
            "5052003", "9017003", "2063003", "7025003", "2054003", "7031003", "8011003", "3052003",
            "6021003", "1066003", "4035003", "5043003", "7062003", "8022003", "9021003", "2005003",
            "2006003", "3003003", "6003003", "1007003", "2007003", "3004003", "4006003", "5005003",
            "6007003", "7004003", "8006003", "9003003",
        ],
    );
}

/// 64-bit FNV-1a over the lines, each followed by a newline.
fn fnv1a(lines: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in lines.iter().flat_map(|c| c.bytes().chain([b'\n'])) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn airbnb_d13_level_6_dense_targets() {
    // The Fig 17 regime at a fifth of the rows: the targets fill most of
    // level 6, so the solver finishes on per-combination hit counts.
    let ds = airbnb_like(20_000, 13, 2019).unwrap();
    let ((targets, combos), copies) = plan_with_copies(&ds, 200, 6, ValidationOracle::accept_all());
    assert_eq!(targets, 71_096, "target count");
    assert_eq!(combos.len(), 185, "combination count");
    assert_eq!(
        &combos[..4],
        [
            "0001011100110",
            "0010101110010",
            "0011010110011",
            "0101001010010"
        ]
    );
    assert_eq!(fnv1a(&combos), 0xef09_92d0_1c3b_b24b, "hash of the plan");
    assert_eq!(copies.len(), 185, "copy count");
    assert_eq!(fnv1a(&copies), 0xb709_6364_5a8a_40fc, "hash of the copies");
}
