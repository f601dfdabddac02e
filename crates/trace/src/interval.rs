//! An augmented interval tree used to reconstruct parent-child relations
//! between spans from disjoint profilers (§III-A: "XSP's profile analysis
//! builds an interval tree and populates it with intervals corresponding to
//! the spans' start/end timestamps").
//!
//! The tree is built once per trace from the full set of span intervals and
//! then queried for *containment*: given a child interval, find the candidate
//! parents whose intervals include it. The implementation is an implicit
//! balanced BST over intervals sorted by start point, augmented with the
//! maximum end point of each subtree — `O(n log n)` construction,
//! `O(log n + k)` containment queries.

/// A closed interval `[start, end]` with an opaque payload (usually an index
/// into a span table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive start.
    pub start: u64,
    /// Inclusive end. Invariant: `end >= start`.
    pub end: u64,
    /// Caller-defined payload (e.g. span index).
    pub key: usize,
}

impl Interval {
    /// Creates an interval; panics if `end < start`.
    pub fn new(start: u64, end: u64, key: usize) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Self { start, end, key }
    }

    /// Whether this interval fully contains `[lo, hi]`.
    #[inline]
    pub fn contains_range(&self, lo: u64, hi: u64) -> bool {
        self.start <= lo && hi <= self.end
    }
}

#[derive(Debug, Clone)]
struct Node {
    iv: Interval,
    /// Maximum `end` in the subtree rooted here.
    max_end: u64,
    left: Option<usize>,
    right: Option<usize>,
}

/// Static interval tree over a set of intervals.
///
/// ```
/// use xsp_trace::interval::{Interval, IntervalTree};
/// let tree = IntervalTree::build(vec![
///     Interval::new(0, 100, 0),   // a layer
///     Interval::new(10, 40, 1),   // a kernel inside it
///     Interval::new(60, 90, 2),   // another kernel
/// ]);
/// let mut parents = Vec::new();
/// tree.containing_into(10, 40, &mut parents);
/// assert_eq!(parents, vec![0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntervalTree {
    nodes: Vec<Node>,
    root: Option<usize>,
}

impl IntervalTree {
    /// Builds a balanced tree from the given intervals.
    pub fn build(mut intervals: Vec<Interval>) -> Self {
        intervals.sort_unstable_by(|a, b| a.start.cmp(&b.start).then(a.end.cmp(&b.end)));
        let mut tree = IntervalTree {
            nodes: Vec::with_capacity(intervals.len()),
            root: None,
        };
        tree.root = tree.build_range(&intervals, 0, intervals.len());
        tree
    }

    fn build_range(&mut self, sorted: &[Interval], lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let mid = lo + (hi - lo) / 2;
        let idx = self.nodes.len();
        self.nodes.push(Node {
            iv: sorted[mid],
            max_end: sorted[mid].end,
            left: None,
            right: None,
        });
        let left = self.build_range(sorted, lo, mid);
        let right = self.build_range(sorted, mid + 1, hi);
        let mut max_end = self.nodes[idx].iv.end;
        if let Some(l) = left {
            max_end = max_end.max(self.nodes[l].max_end);
        }
        if let Some(r) = right {
            max_end = max_end.max(self.nodes[r].max_end);
        }
        let node = &mut self.nodes[idx];
        node.left = left;
        node.right = right;
        node.max_end = max_end;
        Some(idx)
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Appends the key of every interval that fully contains the range
    /// `[lo, hi]` to `out`, in ascending `(start, end)` order — the query
    /// parent reconstruction makes: candidate parents of a span are exactly
    /// the intervals containing the span's interval. The caller owns `out`,
    /// so a probe allocates nothing once the buffer has grown.
    pub fn containing_into(&self, lo: u64, hi: u64, out: &mut Vec<usize>) {
        self.visit_containing(self.root, lo, hi, out);
    }

    fn visit_containing(&self, node: Option<usize>, lo: u64, hi: u64, out: &mut Vec<usize>) {
        let Some(idx) = node else { return };
        let n = &self.nodes[idx];
        // An interval containing [lo, hi] must have end >= hi; prune subtrees
        // whose max_end can't reach.
        if n.max_end < hi {
            return;
        }
        // Visit left subtree: starts there are <= this node's start.
        self.visit_containing(n.left, lo, hi, out);
        if n.iv.contains_range(lo, hi) {
            out.push(n.iv.key);
        }
        // Right subtree only holds intervals starting at >= this start; if
        // this node already starts after `lo`, so does everything right of it.
        if n.iv.start <= lo {
            self.visit_containing(n.right, lo, hi, out);
        }
    }

    /// Depth of the tree (0 for empty); balanced construction guarantees
    /// `O(log n)`.
    pub fn depth(&self) -> usize {
        fn go(tree: &IntervalTree, node: Option<usize>) -> usize {
            match node {
                None => 0,
                Some(i) => 1 + go(tree, tree.nodes[i].left).max(go(tree, tree.nodes[i].right)),
            }
        }
        go(self, self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_keys(tree: &IntervalTree, lo: u64, hi: u64) -> Vec<usize> {
        let mut v = Vec::new();
        tree.containing_into(lo, hi, &mut v);
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree() {
        let t = IntervalTree::build(vec![]);
        assert!(t.is_empty());
        assert!(sorted_keys(&t, 5, 5).is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn containing_finds_all_ancestors() {
        let t = IntervalTree::build(vec![
            Interval::new(0, 1000, 0),  // model
            Interval::new(10, 500, 1),  // layer 1
            Interval::new(510, 900, 2), // layer 2
            Interval::new(20, 100, 3),  // kernel in layer 1
        ]);
        // Keys are appended in ascending start order, which breaks ties
        // between candidate parents.
        let mut out = vec![7];
        t.containing_into(20, 100, &mut out);
        assert_eq!(out, vec![7, 0, 1, 3]);
        assert_eq!(sorted_keys(&t, 510, 900), vec![0, 2]);
        assert_eq!(sorted_keys(&t, 5, 5), vec![0]);
    }

    #[test]
    fn stab_is_containing_point() {
        // A zero-length span probes with `lo == hi`: every closed interval
        // holding that point contains it, boundaries included.
        let t = IntervalTree::build(vec![
            Interval::new(0, 100, 0),
            Interval::new(50, 60, 1),
            Interval::new(55, 58, 2),
            Interval::new(58, 70, 3),
        ]);
        assert_eq!(sorted_keys(&t, 56, 56), vec![0, 1, 2]);
        assert_eq!(sorted_keys(&t, 58, 58), vec![0, 1, 2, 3]);
        assert_eq!(sorted_keys(&t, 61, 61), vec![0, 3]);
    }

    #[test]
    fn depth_is_logarithmic() {
        let intervals: Vec<Interval> = (0..1024u64)
            .map(|i| Interval::new(i, i + 1, i as usize))
            .collect();
        let t = IntervalTree::build(intervals);
        assert_eq!(t.len(), 1024);
        assert!(
            t.depth() <= 11,
            "depth {} too deep for 1024 nodes",
            t.depth()
        );
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn inverted_interval_panics() {
        Interval::new(10, 5, 0);
    }

    #[test]
    fn duplicate_intervals_are_all_reported() {
        let t = IntervalTree::build(vec![
            Interval::new(5, 10, 0),
            Interval::new(5, 10, 1),
            Interval::new(5, 10, 2),
        ]);
        assert_eq!(sorted_keys(&t, 6, 7), vec![0, 1, 2]);
    }

    // Exhaustive cross-check against a naive scan on a fixed pseudo-random set.
    #[test]
    fn matches_naive_oracle() {
        // simple LCG so the test needs no external randomness
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 1000
        };
        let intervals: Vec<Interval> = (0..300)
            .map(|k| {
                let a = next();
                let b = next();
                Interval::new(a.min(b), a.max(b), k)
            })
            .collect();
        let tree = IntervalTree::build(intervals.clone());
        for probe in 0..40 {
            let lo = probe * 25;
            let hi = lo + probe * 3;
            let mut naive: Vec<usize> = intervals
                .iter()
                .filter(|iv| iv.contains_range(lo, hi))
                .map(|iv| iv.key)
                .collect();
            naive.sort_unstable();
            assert_eq!(sorted_keys(&tree, lo, hi), naive);
        }
    }
}
