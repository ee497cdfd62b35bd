//! Helpers shared by the index equivalence tests.

use coverage_index::X;

/// Every pattern over `cards`, `X` included.
pub fn all_patterns(cards: &[u8]) -> Vec<Vec<u8>> {
    let mut patterns = vec![Vec::new()];
    for &c in cards {
        patterns = patterns
            .into_iter()
            .flat_map(|p| {
                (0..c).chain([X]).map(move |v| {
                    let mut p = p.clone();
                    p.push(v);
                    p
                })
            })
            .collect();
    }
    patterns
}
