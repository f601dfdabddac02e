//! Span hierarchy: the "holistic and hierarchical view of model execution"
//! (§I) materialized as a tree for step-through navigation.

use crate::correlate::CorrelatedTrace;
use crate::span::Span;

/// A parent/child tree over the spans of a correlated trace.
///
/// The tree is an index-based *view*: it borrows the trace's span table —
/// no span is cloned — and reuses its root set and adjacency, reordered
/// chronologically for presentation. Spans are addressed by the span
/// itself, whose trace id and span id locate it in its own run, so a tree
/// over runs that repeat span ids never mixes them.
#[derive(Debug, Clone)]
pub struct SpanTree<'a> {
    trace: &'a CorrelatedTrace,
    /// Child indices of each span, chronological (by start timestamp).
    children: Vec<Vec<usize>>,
    /// Root indices, chronological.
    roots: Vec<usize>,
}

impl<'a> SpanTree<'a> {
    /// Builds the tree view over a correlated trace.
    pub fn build(trace: &'a CorrelatedTrace) -> Self {
        let spans = trace.spans();
        let chronological = |idxs: &[usize]| {
            let mut v = idxs.to_vec();
            v.sort_by_key(|&i| spans[i].start_ns);
            v
        };
        Self {
            trace,
            children: (0..spans.len())
                .map(|i| chronological(trace.child_indices(i)))
                .collect(),
            roots: chronological(trace.root_indices()),
        }
    }

    fn span(&self, idx: usize) -> &'a Span {
        &self.trace.spans()[idx]
    }

    /// The index of `span` in the trace, looked up in its own run.
    fn index(&self, span: &Span) -> Option<usize> {
        self.trace.position(span.trace_id, span.id)
    }

    /// The root spans (no parent), chronological.
    pub fn roots(&self) -> Vec<&'a Span> {
        self.roots.iter().map(|&i| self.span(i)).collect()
    }

    /// Children of `span`, chronological.
    pub fn children(&self, span: &Span) -> Vec<&'a Span> {
        let kids = self.index(span).map_or(&[][..], |i| &self.children[i]);
        kids.iter().map(|&k| self.span(k)).collect()
    }

    /// All descendants of `span` (pre-order).
    pub fn descendants(&self, span: &Span) -> Vec<&'a Span> {
        let kids = self.index(span).map_or(&[][..], |i| &self.children[i]);
        self.preorder(kids).map(|(k, _)| self.span(k)).collect()
    }

    /// Depth of the subtree rooted at `span` (1 = leaf).
    pub fn depth(&self, span: &Span) -> usize {
        self.index(span).map_or(1, |i| {
            self.preorder(&[i])
                .map(|(_, depth)| depth + 1)
                .max()
                .unwrap_or(1)
        })
    }

    /// Renders an indented textual view of the hierarchy — the "smooth
    /// hierarchical step-through" presentation.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (idx, depth) in self.preorder(&self.roots) {
            let s = self.span(idx);
            let _ = writeln!(
                out,
                "{}{} [{}] {:.3} ms",
                "  ".repeat(depth),
                s.name,
                s.level,
                s.duration_ms()
            );
        }
        out
    }

    /// The subtrees under `tops` in pre-order, as `(index, depth below the
    /// top)`, walked on an explicit stack so a deep chain cannot overflow
    /// the call stack.
    fn preorder<'t>(&'t self, tops: &[usize]) -> impl Iterator<Item = (usize, usize)> + 't {
        let mut pending: Vec<(usize, usize)> = tops.iter().rev().map(|&i| (i, 0)).collect();
        std::iter::from_fn(move || {
            let (idx, depth) = pending.pop()?;
            pending.extend(self.children[idx].iter().rev().map(|&k| (k, depth + 1)));
            Some((idx, depth))
        })
    }

    /// Total number of spans.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::reconstruct_parents;
    use crate::server::Trace;
    use crate::span::{SpanBuilder, StackLevel, TraceId};

    fn make_trace() -> CorrelatedTrace {
        let model = SpanBuilder::new("predict", StackLevel::Model, TraceId(1))
            .start(0)
            .finish(1000);
        let mid = model.id;
        let layer1 = SpanBuilder::new("conv", StackLevel::Layer, TraceId(1))
            .start(10)
            .parent(mid)
            .finish(400);
        let layer2 = SpanBuilder::new("relu", StackLevel::Layer, TraceId(1))
            .start(500)
            .parent(mid)
            .finish(700);
        let k1 = SpanBuilder::new("k1", StackLevel::Kernel, TraceId(1))
            .start(20)
            .finish(100);
        let k2 = SpanBuilder::new("k2", StackLevel::Kernel, TraceId(1))
            .start(120)
            .finish(300);
        reconstruct_parents(&Trace::from_spans(vec![model, layer1, layer2, k1, k2]))
    }

    #[test]
    fn builds_three_level_tree() {
        let trace = make_trace();
        let tree = SpanTree::build(&trace);
        assert_eq!(tree.len(), 5);
        let roots = tree.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "predict");
        let layers = tree.children(roots[0]);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].name, "conv");
        let kernels = tree.children(layers[0]);
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].name, "k1");
        assert_eq!(tree.depth(roots[0]), 3);
    }

    #[test]
    fn descendants_are_preorder() {
        let trace = make_trace();
        let tree = SpanTree::build(&trace);
        let root = tree.roots()[0];
        let names: Vec<&str> = tree
            .descendants(root)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["conv", "k1", "k2", "relu"]);
    }

    #[test]
    fn render_is_indented() {
        let trace = make_trace();
        let tree = SpanTree::build(&trace);
        let text = tree.render();
        assert!(text.contains("predict [model]"));
        assert!(text.contains("  conv [layer]"));
        assert!(text.contains("    k1 [kernel]"));
    }

    #[test]
    fn runs_that_repeat_span_ids_stay_apart() {
        let one = make_trace();
        let two = one.iter_spans().map(|s| Span {
            trace_id: TraceId(2),
            ..s.clone()
        });
        let spans = one.spans().iter().cloned().chain(two).collect();
        let both = CorrelatedTrace::new(spans, Default::default());
        let tree = SpanTree::build(&both);
        let roots = tree.roots();
        assert_eq!(roots.len(), 2);
        for root in roots {
            let family = tree.descendants(root);
            assert_eq!(family.len(), 4, "each root reaches its own run only");
            assert!(family.iter().all(|s| s.trace_id == root.trace_id));
        }
        assert_eq!(tree.render().lines().count(), 10);
    }

    #[test]
    fn children_are_chronological() {
        let trace = make_trace();
        let tree = SpanTree::build(&trace);
        let root = tree.roots()[0];
        let starts: Vec<u64> = tree.children(root).iter().map(|s| s.start_ns).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
