//! The inverted index over target patterns shared by the greedy solver and
//! plan assembly (§IV-B, Fig 9).

use coverage_index::BitVec;

use crate::pattern::Pattern;

/// Per-(attribute, value) bit-vectors over a list of target patterns: bit
/// `j` of `vector(i, v)` is set iff target `j` carries `X` or `v` on
/// attribute `i`, i.e. iff a combination with value `v` there can still hit
/// it. A value outside an attribute's domain marks nothing, so a target
/// carrying one is never hit.
pub(crate) struct PatternIndex {
    vectors: Vec<BitVec>,
    offsets: Vec<usize>,
    cardinalities: Vec<u8>,
    len: usize,
}

impl PatternIndex {
    /// Indexes `patterns`, in iteration order, over `cardinalities`.
    pub(crate) fn build<'a>(
        patterns: impl ExactSizeIterator<Item = &'a Pattern>,
        cardinalities: &[u8],
    ) -> Self {
        let len = patterns.len();
        let mut offsets = Vec::with_capacity(cardinalities.len() + 1);
        let mut acc = 0;
        for &c in cardinalities {
            offsets.push(acc);
            acc += c as usize;
        }
        offsets.push(acc);
        let mut vectors = vec![BitVec::zeros(len); acc];
        for (j, p) in patterns.enumerate() {
            for (i, &c) in cardinalities.iter().enumerate() {
                match p.get(i) {
                    // Fig 9: value v on attribute i is compatible with
                    // patterns carrying X or v there.
                    Some(v) if v < c => vectors[offsets[i] + v as usize].set(j, true),
                    Some(_) => {}
                    None => {
                        for v in 0..c {
                            vectors[offsets[i] + v as usize].set(j, true);
                        }
                    }
                }
            }
        }
        Self {
            vectors,
            offsets,
            cardinalities: cardinalities.to_vec(),
            len,
        }
    }

    /// Number of indexed targets (the width of every vector).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of attributes.
    pub(crate) fn arity(&self) -> usize {
        self.cardinalities.len()
    }

    /// Domain size of `attribute`.
    pub(crate) fn cardinality(&self, attribute: usize) -> u8 {
        self.cardinalities[attribute]
    }

    /// The targets compatible with `value` on `attribute`.
    pub(crate) fn vector(&self, attribute: usize, value: u8) -> &BitVec {
        assert!(
            value < self.cardinalities[attribute],
            "value {value} outside attribute {attribute}'s domain"
        );
        &self.vectors[self.offsets[attribute] + value as usize]
    }

    /// The targets `combo` matches: the AND of its columns.
    pub(crate) fn hits(&self, combo: &[u8]) -> BitVec {
        assert_eq!(combo.len(), self.arity(), "combination arity");
        let mut hits = BitVec::ones(self.len);
        for (i, &v) in combo.iter().enumerate() {
            hits.and_assign(self.vector(i, v));
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example 2's level-2 targets P1..P6 over cardinalities [2,3,3,2,2].
    fn p1_to_p6() -> Vec<Pattern> {
        ["XX01X", "1X20X", "XXXX1", "02XXX", "XX11X", "111XX"]
            .iter()
            .map(|s| Pattern::parse(s).unwrap())
            .collect()
    }

    #[test]
    fn inverted_index_matches_figure9() {
        // Fig 9 rows: A1=0 → 101110, A1=1 → 111011, A2=0 → 111010,
        // A2=1 → 111011, A2=2 → 111110 (over P1..P6).
        let targets = p1_to_p6();
        let index = PatternIndex::build(targets.iter(), &[2, 3, 3, 2, 2]);
        let row = |attr: usize, v: u8| -> Vec<u8> {
            (0..6)
                .map(|j| u8::from(index.vector(attr, v).get(j)))
                .collect()
        };
        assert_eq!(row(0, 0), vec![1, 0, 1, 1, 1, 0]);
        assert_eq!(row(0, 1), vec![1, 1, 1, 0, 1, 1]);
        assert_eq!(row(1, 0), vec![1, 1, 1, 0, 1, 0]);
        assert_eq!(row(1, 1), vec![1, 1, 1, 0, 1, 1]);
        assert_eq!(row(1, 2), vec![1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn hits_equal_pattern_matches() {
        let targets = p1_to_p6();
        let index = PatternIndex::build(targets.iter(), &[2, 3, 3, 2, 2]);
        for combo in [[0, 2, 0, 1, 1], [1, 2, 1, 1, 0], [1, 1, 1, 0, 0]] {
            let expected: Vec<usize> = (0..6).filter(|&j| targets[j].matches(&combo)).collect();
            assert_eq!(index.hits(&combo).iter_ones().collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn out_of_domain_values_mark_nothing() {
        let targets = [Pattern::from_codes(vec![0, 0])];
        let index = PatternIndex::build(targets.iter(), &[2, 0]);
        assert_eq!(index.len(), 1);
        assert!(index.vector(0, 0).get(0));
        assert_eq!(index.arity(), 2);
        assert_eq!(index.cardinality(1), 0);
    }
}
