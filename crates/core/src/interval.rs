//! An interval tree: the entry store of `TransactionalIntervalMap`.
//!
//! A treap keyed by lower endpoint, augmented with the subtree's maximum
//! upper endpoint, giving `O(log n + hits)` stabbing and intersection
//! queries instead of `O(n)` scans. (Paper §3.2 names an interval tree as
//! the alternative store for range locks; range locks stay in the paper's
//! flat scanned list.)
//!
//! Endpoints are `std::ops::Bound`; the two wrapper types implement the two
//! different orders bounds need (a lower `Unbounded` sorts first, an upper
//! `Unbounded` sorts last; on equal keys an inclusive lower starts before an
//! exclusive one, an exclusive upper ends before an inclusive one).

use std::cmp::Ordering;
use std::ops::Bound;

/// A lower endpoint with interval-start ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerEnd<K>(pub Bound<K>);

impl<K: Ord> Ord for LowerEnd<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        use Bound::*;
        match (&self.0, &other.0) {
            (Unbounded, Unbounded) => Ordering::Equal,
            (Unbounded, _) => Ordering::Less,
            (_, Unbounded) => Ordering::Greater,
            (Included(a), Included(b)) | (Excluded(a), Excluded(b)) => a.cmp(b),
            (Included(a), Excluded(b)) => a.cmp(b).then(Ordering::Less),
            (Excluded(a), Included(b)) => a.cmp(b).then(Ordering::Greater),
        }
    }
}

impl<K: Ord> PartialOrd for LowerEnd<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An upper endpoint with interval-end ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpperEnd<K>(pub Bound<K>);

impl<K: Ord> Ord for UpperEnd<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        use Bound::*;
        match (&self.0, &other.0) {
            (Unbounded, Unbounded) => Ordering::Equal,
            (Unbounded, _) => Ordering::Greater,
            (_, Unbounded) => Ordering::Less,
            (Included(a), Included(b)) | (Excluded(a), Excluded(b)) => a.cmp(b),
            (Included(a), Excluded(b)) => a.cmp(b).then(Ordering::Greater),
            (Excluded(a), Included(b)) => a.cmp(b).then(Ordering::Less),
        }
    }
}

impl<K: Ord> PartialOrd for UpperEnd<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn lower_admits<K: Ord>(lower: &Bound<K>, point: &K) -> bool {
    match lower {
        Bound::Unbounded => true,
        Bound::Included(l) => point >= l,
        Bound::Excluded(l) => point > l,
    }
}

fn upper_admits<K: Ord>(upper: &Bound<K>, point: &K) -> bool {
    match upper {
        Bound::Unbounded => true,
        Bound::Included(u) => point <= u,
        Bound::Excluded(u) => point < u,
    }
}

/// Whether a lower bound starts at or before an upper bound ends —
/// i.e. the interval `[lo, hi]` they delimit is nonempty. Conservative for
/// `(Excluded, Excluded)` pairs on non-dense key types (see
/// `bounds_overlap` in `locks.rs`).
fn lower_below_upper<K: Ord>(lo: &Bound<K>, hi: &Bound<K>) -> bool {
    match (lo, hi) {
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => true,
        (Bound::Included(a), Bound::Included(b)) => a <= b,
        (Bound::Included(a), Bound::Excluded(b))
        | (Bound::Excluded(a), Bound::Included(b))
        | (Bound::Excluded(a), Bound::Excluded(b)) => a < b,
    }
}

#[derive(Clone)]
struct Node<K, T> {
    id: u64,
    lower: Bound<K>,
    upper: Bound<K>,
    payload: T,
    /// Max upper endpoint in this subtree (the classic augmentation).
    max_upper: Bound<K>,
    priority: u64,
    left: Option<Box<Node<K, T>>>,
    right: Option<Box<Node<K, T>>>,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<K: Clone + Ord, T> Node<K, T> {
    fn new(id: u64, lower: Bound<K>, upper: Bound<K>, payload: T) -> Box<Self> {
        Box::new(Node {
            id,
            max_upper: upper.clone(),
            lower,
            upper,
            payload,
            priority: splitmix(id),
            left: None,
            right: None,
        })
    }

    fn refresh_max(&mut self) {
        let mut m = self.upper.clone();
        for child in [&self.left, &self.right].into_iter().flatten() {
            if UpperEnd(child.max_upper.clone()) > UpperEnd(m.clone()) {
                m = child.max_upper.clone();
            }
        }
        self.max_upper = m;
    }
}

/// An interval tree (augmented treap) mapping intervals to payloads.
#[derive(Clone)]
pub struct IntervalTree<K, T> {
    root: Option<Box<Node<K, T>>>,
    len: usize,
    next_id: u64,
}

impl<K: Clone + Ord, T> Default for IntervalTree<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Clone + Ord, T> IntervalTree<K, T> {
    /// Create an empty tree.
    pub fn new() -> Self {
        IntervalTree {
            root: None,
            len: 0,
            next_id: 0,
        }
    }

    /// Number of stored intervals.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an interval; returns its stable id.
    pub fn insert(&mut self, lower: Bound<K>, upper: Bound<K>, payload: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let node = Node::new(id, lower, upper, payload);
        let root = self.root.take();
        self.root = Some(Self::insert_node(root, node));
        self.len += 1;
        id
    }

    fn insert_node(tree: Option<Box<Node<K, T>>>, node: Box<Node<K, T>>) -> Box<Node<K, T>> {
        let Some(mut t) = tree else { return node };
        if node.priority > t.priority {
            // Node becomes the new subtree root: split t around node's key.
            let (l, r) = Self::split(Some(t), &node.key_owned());
            let mut n = node;
            n.left = l;
            n.right = r;
            n.refresh_max();
            return n;
        }
        if node.key_owned() < t.key_owned() {
            let l = t.left.take();
            t.left = Some(Self::insert_node(l, node));
        } else {
            let r = t.right.take();
            t.right = Some(Self::insert_node(r, node));
        }
        t.refresh_max();
        t
    }

    /// Split by key: left < key <= right.
    #[allow(clippy::type_complexity)]
    fn split(
        tree: Option<Box<Node<K, T>>>,
        key: &(LowerEnd<K>, u64),
    ) -> (Option<Box<Node<K, T>>>, Option<Box<Node<K, T>>>) {
        let Some(mut t) = tree else {
            return (None, None);
        };
        if t.key_owned() < *key {
            let (l, r) = Self::split(t.right.take(), key);
            t.right = l;
            t.refresh_max();
            (Some(t), r)
        } else {
            let (l, r) = Self::split(t.left.take(), key);
            t.left = r;
            t.refresh_max();
            (l, Some(t))
        }
    }

    fn merge(a: Option<Box<Node<K, T>>>, b: Option<Box<Node<K, T>>>) -> Option<Box<Node<K, T>>> {
        match (a, b) {
            (None, b) => b,
            (a, None) => a,
            (Some(mut a), Some(mut b)) => {
                if a.priority > b.priority {
                    let r = a.right.take();
                    a.right = Self::merge(r, Some(b));
                    a.refresh_max();
                    Some(a)
                } else {
                    let l = b.left.take();
                    b.left = Self::merge(Some(a), l);
                    b.refresh_max();
                    Some(b)
                }
            }
        }
    }

    /// Remove an interval by id (and its lower bound, which callers know).
    /// Returns the payload if found.
    pub fn remove(&mut self, lower: &Bound<K>, id: u64) -> Option<T> {
        let root = self.root.take();
        let (root, removed) = Self::remove_node(root, lower, id);
        self.root = root;
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    #[allow(clippy::type_complexity)]
    fn remove_node(
        tree: Option<Box<Node<K, T>>>,
        lower: &Bound<K>,
        id: u64,
    ) -> (Option<Box<Node<K, T>>>, Option<T>) {
        let Some(mut t) = tree else {
            return (None, None);
        };
        let target = (LowerEnd(lower.clone()), id);
        match t.key_owned().cmp(&target) {
            Ordering::Equal => {
                let merged = Self::merge(t.left.take(), t.right.take());
                (merged, Some(t.payload))
            }
            Ordering::Greater => {
                let l = t.left.take();
                let (l, removed) = Self::remove_node(l, lower, id);
                t.left = l;
                t.refresh_max();
                (Some(t), removed)
            }
            Ordering::Less => {
                let r = t.right.take();
                let (r, removed) = Self::remove_node(r, lower, id);
                t.right = r;
                t.refresh_max();
                (Some(t), removed)
            }
        }
    }

    /// Visit every interval containing `point` (a stabbing query).
    pub fn stab<'a>(&'a self, point: &K, visit: &mut impl FnMut(u64, &'a T)) {
        Self::stab_node(&self.root, point, visit);
    }

    fn stab_node<'a>(
        node: &'a Option<Box<Node<K, T>>>,
        point: &K,
        visit: &mut impl FnMut(u64, &'a T),
    ) {
        let Some(n) = node else { return };
        // Prune: nothing in this subtree ends at or after `point`.
        if !upper_admits(&n.max_upper, point) {
            return;
        }
        Self::stab_node(&n.left, point, visit);
        if lower_admits(&n.lower, point) {
            if upper_admits(&n.upper, point) {
                visit(n.id, &n.payload);
            }
            // Right subtree starts at or after our lower: may still admit.
            Self::stab_node(&n.right, point, visit);
        }
        // If our lower is beyond the point, every right descendant's lower
        // is too: pruned by not recursing.
    }

    /// Visit every interval that *intersects* `[lower, upper]` (an
    /// interval-vs-interval query; the interval-map class dooms range
    /// lockers with this when a committing writer publishes a whole span).
    pub fn intersecting<'a>(
        &'a self,
        lower: &Bound<K>,
        upper: &Bound<K>,
        visit: &mut impl FnMut(u64, &'a T),
    ) {
        Self::intersecting_node(&self.root, lower, upper, visit);
    }

    fn intersecting_node<'a>(
        node: &'a Option<Box<Node<K, T>>>,
        lower: &Bound<K>,
        upper: &Bound<K>,
        visit: &mut impl FnMut(u64, &'a T),
    ) {
        let Some(n) = node else { return };
        // Prune: nothing in this subtree ends at or after the query start.
        if !lower_below_upper(lower, &n.max_upper) {
            return;
        }
        Self::intersecting_node(&n.left, lower, upper, visit);
        if lower_below_upper(&n.lower, upper) {
            if lower_below_upper(lower, &n.upper) {
                visit(n.id, &n.payload);
            }
            // Right subtree starts at or after our lower: may still begin
            // before the query end.
            Self::intersecting_node(&n.right, lower, upper, visit);
        }
        // If our lower is beyond the query end, every right descendant's
        // lower is too: pruned by not recursing.
    }

    /// Remove every interval whose payload matches `pred`; returns the
    /// removed `(lower, upper, payload)` triples.
    pub fn remove_by(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<(Bound<K>, Bound<K>, T)> {
        fn collect<K: Clone + Ord, T>(
            node: &Option<Box<Node<K, T>>>,
            pred: &mut impl FnMut(&T) -> bool,
            out: &mut Vec<(Bound<K>, Bound<K>, u64)>,
        ) {
            if let Some(n) = node {
                collect(&n.left, pred, out);
                if pred(&n.payload) {
                    out.push((n.lower.clone(), n.upper.clone(), n.id));
                }
                collect(&n.right, pred, out);
            }
        }
        let mut hits = Vec::new();
        collect(&self.root, &mut pred, &mut hits);
        let mut out = Vec::with_capacity(hits.len());
        for (lower, upper, id) in hits {
            if let Some(payload) = self.remove(&lower, id) {
                out.push((lower, upper, payload));
            }
        }
        out
    }

    /// All `(id, lower, upper)` triples, in lower-bound order (testing).
    pub fn entries(&self) -> Vec<(u64, Bound<K>, Bound<K>)> {
        fn walk<K: Clone + Ord, T>(
            node: &Option<Box<Node<K, T>>>,
            out: &mut Vec<(u64, Bound<K>, Bound<K>)>,
        ) {
            if let Some(n) = node {
                walk(&n.left, out);
                out.push((n.id, n.lower.clone(), n.upper.clone()));
                walk(&n.right, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

impl<K: Clone + Ord, T> Node<K, T> {
    fn key_owned(&self) -> (LowerEnd<K>, u64) {
        (LowerEnd(self.lower.clone()), self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Bound::*;

    fn ids_at(tree: &IntervalTree<i32, ()>, p: i32) -> Vec<u64> {
        let mut v = Vec::new();
        tree.stab(&p, &mut |id, _| v.push(id));
        v.sort_unstable();
        v
    }

    #[test]
    fn stab_finds_covering_intervals() {
        let mut t = IntervalTree::new();
        let a = t.insert(Included(0), Included(10), ());
        let b = t.insert(Included(5), Included(15), ());
        let c = t.insert(Excluded(10), Unbounded, ());
        assert_eq!(ids_at(&t, 3), vec![a]);
        assert_eq!(ids_at(&t, 7), vec![a, b]);
        assert_eq!(ids_at(&t, 10), vec![a, b]);
        assert_eq!(ids_at(&t, 11), vec![b, c]);
        assert_eq!(ids_at(&t, 100), vec![c]);
        assert_eq!(ids_at(&t, -1), Vec::<u64>::new());
    }

    #[test]
    fn unbounded_lower_matches_everything_below() {
        let mut t = IntervalTree::new();
        let a = t.insert(Unbounded, Excluded(0), ());
        assert_eq!(ids_at(&t, -100), vec![a]);
        assert_eq!(ids_at(&t, 0), Vec::<u64>::new());
    }

    #[test]
    fn remove_by_id() {
        let mut t = IntervalTree::new();
        let a = t.insert(Included(0), Included(5), "a");
        let b = t.insert(Included(3), Included(8), "b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(&Included(0), a), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(ids_at_str(&t, 4), vec![b]);
    }

    fn ids_at_str(tree: &IntervalTree<i32, &str>, p: i32) -> Vec<u64> {
        let mut v = Vec::new();
        tree.stab(&p, &mut |id, _| v.push(id));
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_flat_scan_on_random_intervals() {
        // Deterministic pseudo-random intervals; compare stab vs linear scan.
        let mut x = 0xDEADBEEFu64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut tree: IntervalTree<i64, usize> = IntervalTree::new();
        let mut flat: Vec<(u64, Bound<i64>, Bound<i64>)> = Vec::new();
        for i in 0..300 {
            let lo = (rng() % 1000) as i64;
            let len = (rng() % 50) as i64;
            let lower = match rng() % 3 {
                0 => Unbounded,
                1 => Included(lo),
                _ => Excluded(lo),
            };
            let upper = match rng() % 3 {
                0 => Unbounded,
                1 => Included(lo + len),
                _ => Excluded(lo + len),
            };
            let id = tree.insert(lower, upper, i);
            flat.push((id, lower, upper));
        }
        // Random removals.
        for _ in 0..80 {
            let idx = (rng() % flat.len() as u64) as usize;
            let (id, lower, _) = flat.remove(idx);
            assert!(tree.remove(&lower, id).is_some());
        }
        for _ in 0..200 {
            let p = (rng() % 1100) as i64 - 50;
            let mut got = Vec::new();
            tree.stab(&p, &mut |id, _| got.push(id));
            got.sort_unstable();
            let mut want: Vec<u64> = flat
                .iter()
                .filter(|(_, lo, hi)| lower_admits(lo, &p) && upper_admits(hi, &p))
                .map(|(id, _, _)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "stab mismatch at point {p}");
        }
    }

    #[test]
    fn intersecting_finds_overlapping_intervals() {
        let mut t = IntervalTree::new();
        let a = t.insert(Included(0), Excluded(10), ());
        let b = t.insert(Included(5), Excluded(15), ());
        let c = t.insert(Included(20), Unbounded, ());
        let hits = |lo: Bound<i32>, hi: Bound<i32>| {
            let mut v = Vec::new();
            t.intersecting(&lo, &hi, &mut |id, _| v.push(id));
            v.sort_unstable();
            v
        };
        assert_eq!(hits(Included(2), Excluded(4)), vec![a]);
        // A query range strictly inside an interval must hit it — the case
        // a point-stab of the endpoints would miss.
        assert_eq!(hits(Included(6), Excluded(9)), vec![a, b]);
        assert_eq!(hits(Included(12), Included(25)), vec![b, c]);
        assert_eq!(hits(Included(15), Excluded(20)), Vec::<u64>::new());
        assert_eq!(hits(Unbounded, Unbounded), vec![a, b, c]);
    }

    #[test]
    fn intersecting_matches_flat_scan_on_random_intervals() {
        let mut x = 0xC0FFEEu64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut tree: IntervalTree<i64, usize> = IntervalTree::new();
        let mut flat: Vec<(u64, Bound<i64>, Bound<i64>)> = Vec::new();
        for i in 0..200 {
            let lo = (rng() % 1000) as i64;
            let len = (rng() % 60) as i64;
            let id = tree.insert(Included(lo), Excluded(lo + len + 1), i);
            flat.push((id, Included(lo), Excluded(lo + len + 1)));
        }
        for _ in 0..200 {
            let qlo = (rng() % 1100) as i64 - 50;
            let qlen = (rng() % 80) as i64;
            let (ql, qh) = (Included(qlo), Excluded(qlo + qlen + 1));
            let mut got = Vec::new();
            tree.intersecting(&ql, &qh, &mut |id, _| got.push(id));
            got.sort_unstable();
            let mut want: Vec<u64> = flat
                .iter()
                .filter(|(_, lo, hi)| lower_below_upper(lo, &qh) && lower_below_upper(&ql, hi))
                .map(|(id, _, _)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(
                got,
                want,
                "intersecting mismatch at [{qlo}, {})",
                qlo + qlen + 1
            );
        }
    }

    #[test]
    fn remove_by_returns_spans_and_payloads() {
        let mut t: IntervalTree<i32, u32> = IntervalTree::new();
        for i in 0..6 {
            t.insert(Included(i), Excluded(i + 10), i as u32);
        }
        let removed = t.remove_by(|p| p % 2 == 1);
        assert_eq!(removed.len(), 3);
        assert_eq!(t.len(), 3);
        for (lo, hi, p) in &removed {
            assert!(p % 2 == 1);
            assert_eq!(*lo, Included(*p as i32));
            assert_eq!(*hi, Excluded(*p as i32 + 10));
        }
        assert!(t.remove_by(|p| *p > 100).is_empty());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clone_is_independent() {
        let mut t: IntervalTree<i32, u32> = IntervalTree::new();
        t.insert(Included(0), Excluded(10), 1);
        t.insert(Included(5), Excluded(15), 2);
        let snapshot = t.clone();
        t.remove_by(|_| true);
        assert_eq!(t.len(), 0);
        assert_eq!(snapshot.len(), 2);
        let mut v = Vec::new();
        snapshot.intersecting(&Included(6), &Excluded(7), &mut |_, p| v.push(*p));
        v.sort_unstable();
        assert_eq!(v, vec![1, 2]);
    }
}
