//! A transactional red–black tree modeled on `java.util.TreeMap`.
//!
//! Every node field (color, links, key, value) is a transactional var of
//! its own, so insertions and deletions drag their whole search path *plus
//! all rebalancing writes* (rotations, recolorings up to the root) into the
//! enclosing transaction's footprint. This is precisely the behaviour the
//! paper observes for "Atomos TreeMap" in Figure 2: long transactions
//! conflict on internal operations that are semantically irrelevant.
//!
//! The six vars of a node are [`stm::TCell`]s inline in the node, so a node
//! is one allocation (112 bytes for `<u64, u64>`), and each access names
//! the node's `Arc` as the cell's owner. Each cell keeps its own id, version
//! and commit lock: the footprint is the same as with one `TVar` per field.
//! The header (root and size) stays one [`stm::TVar`].
//!
//! The algorithm is a direct port of OpenJDK's `TreeMap` (CLRS with parent
//! pointers and null-treated-as-black, no sentinel), including the
//! successor-swap deletion. Parent links are `Weak` to avoid `Arc` cycles.

use std::cmp::Ordering as Ord_;
use std::ops::Bound;
use std::sync::{Arc, Weak};
use stm::{CellOwner, TCell, TVar, Txn};

/// Node color.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Color {
    /// Red node.
    Red,
    /// Black node (absent children are black).
    Black,
}

struct NodeInner<K, V> {
    key: TCell<K>,
    value: TCell<V>,
    color: TCell<Color>,
    left: TCell<Link<K, V>>,
    right: TCell<Link<K, V>>,
    parent: TCell<ParentLink<K, V>>,
}

// SAFETY: the six cells are plain fields and `NodeInner` has no other
// state, so none of them can move or drop while an `Arc` shares the node.
unsafe impl<K, V> CellOwner for NodeInner<K, V>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
}

type NodeRef<K, V> = Arc<NodeInner<K, V>>;
type Link<K, V> = Option<NodeRef<K, V>>;
type ParentLink<K, V> = Option<Weak<NodeInner<K, V>>>;

/// The object-header line: root pointer + size, one conflict unit.
///
/// `java.util.TreeMap` keeps `root`, `size` and `modCount` in adjacent
/// fields; with the paper's cache-line-granularity HTM conflict detection,
/// every lookup (reading `root`) conflicts with every committing
/// insert/remove (writing `size`/`modCount`). Modeling the header as one
/// `TVar` reproduces that artifact — on top of the rotation/recoloring
/// conflicts the per-field node cells already provide.
struct TreeHeader<K, V> {
    root: Link<K, V>,
    size: usize,
}

impl<K, V> Clone for TreeHeader<K, V> {
    fn clone(&self) -> Self {
        TreeHeader {
            root: self.root.clone(),
            size: self.size,
        }
    }
}

/// A transactional sorted map (red–black tree).
pub struct TxTreeMap<K, V> {
    header: TVar<TreeHeader<K, V>>,
}

impl<K, V> Clone for TxTreeMap<K, V> {
    fn clone(&self) -> Self {
        TxTreeMap {
            header: self.header.clone(),
        }
    }
}

fn new_node<K, V>(key: K, value: V) -> NodeRef<K, V>
where
    K: Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    Arc::new(NodeInner {
        key: TCell::new(key),
        value: TCell::new(value),
        color: TCell::new(Color::Black),
        left: TCell::new(None),
        right: TCell::new(None),
        parent: TCell::new(None),
    })
}

impl<K, V> TxTreeMap<K, V>
where
    K: Clone + Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create an empty tree.
    pub fn new() -> Self {
        TxTreeMap {
            header: TVar::new(TreeHeader {
                root: None,
                size: 0,
            }),
        }
    }

    fn root_of(&self, tx: &mut Txn) -> Link<K, V> {
        self.header.read(tx).root
    }

    fn set_root(&self, tx: &mut Txn, root: Link<K, V>) {
        let size = self.header.read(tx).size;
        self.header.write(tx, TreeHeader { root, size });
    }

    fn bump_size(&self, tx: &mut Txn, delta: isize) {
        let h = self.header.read(tx);
        self.header.write(
            tx,
            TreeHeader {
                root: h.root,
                size: (h.size as isize + delta) as usize,
            },
        );
    }

    /// Number of entries (shared transactional header, as in Java).
    pub fn len(&self, tx: &mut Txn) -> usize {
        self.header.read(tx).size
    }

    /// Whether the tree is empty (derived from `size`).
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.len(tx) == 0
    }

    // ------------------------------------------------------------------
    // Helpers (null-as-black conventions from TreeMap)
    // ------------------------------------------------------------------

    fn color_of(tx: &mut Txn, n: &Link<K, V>) -> Color {
        match n {
            None => Color::Black,
            Some(n) => n.color.read(tx, n),
        }
    }

    fn set_color(tx: &mut Txn, n: &Link<K, V>, c: Color) {
        if let Some(n) = n {
            n.color.write(tx, n, c);
        }
    }

    fn parent_of(tx: &mut Txn, n: &Link<K, V>) -> Link<K, V> {
        n.as_ref()
            .and_then(|n| n.parent.read(tx, n))
            .and_then(|w| w.upgrade())
    }

    fn left_of(tx: &mut Txn, n: &Link<K, V>) -> Link<K, V> {
        n.as_ref().and_then(|n| n.left.read(tx, n))
    }

    fn right_of(tx: &mut Txn, n: &Link<K, V>) -> Link<K, V> {
        n.as_ref().and_then(|n| n.right.read(tx, n))
    }

    fn same(a: &Link<K, V>, b: &Link<K, V>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn set_parent(tx: &mut Txn, child: &Link<K, V>, parent: &Link<K, V>) {
        if let Some(c) = child {
            c.parent.write(tx, c, parent.as_ref().map(Arc::downgrade));
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    fn get_node(&self, tx: &mut Txn, key: &K) -> Link<K, V> {
        let mut p = self.root_of(tx);
        while let Some(n) = p {
            let nk = n.key.read(tx, &n);
            match key.cmp(&nk) {
                Ord_::Less => p = n.left.read(tx, &n),
                Ord_::Greater => p = n.right.read(tx, &n),
                Ord_::Equal => return Some(n),
            }
        }
        None
    }

    /// Look up a key.
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.get_node(tx, key).map(|n| n.value.read(tx, &n))
    }

    /// Whether a key is present.
    pub fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        self.get_node(tx, key).is_some()
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Insert or replace; returns the previous value.
    pub fn insert(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        let root = self.root_of(tx);
        let Some(mut t) = root else {
            let n = new_node(key, value);
            self.header.write(
                tx,
                TreeHeader {
                    root: Some(n),
                    size: 1,
                },
            );
            return None;
        };
        loop {
            let tk = t.key.read(tx, &t);
            match key.cmp(&tk) {
                Ord_::Equal => {
                    let old = t.value.read(tx, &t);
                    t.value.write(tx, &t, value);
                    return Some(old);
                }
                Ord_::Less => match t.left.read(tx, &t) {
                    Some(l) => t = l,
                    None => {
                        let n = new_node(key, value);
                        n.color.write(tx, &n, Color::Red);
                        n.parent.write(tx, &n, Some(Arc::downgrade(&t)));
                        t.left.write(tx, &t, Some(n.clone()));
                        self.fix_after_insertion(tx, n);
                        self.bump_size(tx, 1);
                        return None;
                    }
                },
                Ord_::Greater => match t.right.read(tx, &t) {
                    Some(r) => t = r,
                    None => {
                        let n = new_node(key, value);
                        n.color.write(tx, &n, Color::Red);
                        n.parent.write(tx, &n, Some(Arc::downgrade(&t)));
                        t.right.write(tx, &t, Some(n.clone()));
                        self.fix_after_insertion(tx, n);
                        self.bump_size(tx, 1);
                        return None;
                    }
                },
            }
        }
    }

    fn rotate_left(&self, tx: &mut Txn, p: &Link<K, V>) {
        let Some(p_node) = p else { return };
        let r = p_node
            .right
            .read(tx, p_node)
            .expect("rotate_left without right child");
        let r_left = r.left.read(tx, &r);
        p_node.right.write(tx, p_node, r_left.clone());
        Self::set_parent(tx, &r_left, p);
        let gp = Self::parent_of(tx, p);
        Self::set_parent(tx, &Some(r.clone()), &gp);
        match &gp {
            None => self.set_root(tx, Some(r.clone())),
            Some(g) => {
                let gl = g.left.read(tx, g);
                if Self::same(&gl, p) {
                    g.left.write(tx, g, Some(r.clone()));
                } else {
                    g.right.write(tx, g, Some(r.clone()));
                }
            }
        }
        r.left.write(tx, &r, p.clone());
        Self::set_parent(tx, p, &Some(r));
    }

    fn rotate_right(&self, tx: &mut Txn, p: &Link<K, V>) {
        let Some(p_node) = p else { return };
        let l = p_node
            .left
            .read(tx, p_node)
            .expect("rotate_right without left child");
        let l_right = l.right.read(tx, &l);
        p_node.left.write(tx, p_node, l_right.clone());
        Self::set_parent(tx, &l_right, p);
        let gp = Self::parent_of(tx, p);
        Self::set_parent(tx, &Some(l.clone()), &gp);
        match &gp {
            None => self.set_root(tx, Some(l.clone())),
            Some(g) => {
                let gr = g.right.read(tx, g);
                if Self::same(&gr, p) {
                    g.right.write(tx, g, Some(l.clone()));
                } else {
                    g.left.write(tx, g, Some(l.clone()));
                }
            }
        }
        l.right.write(tx, &l, p.clone());
        Self::set_parent(tx, p, &Some(l));
    }

    fn fix_after_insertion(&self, tx: &mut Txn, node: NodeRef<K, V>) {
        let mut x: Link<K, V> = Some(node);
        loop {
            let root = self.root_of(tx);
            if x.is_none() || Self::same(&x, &root) {
                break;
            }
            let xp = Self::parent_of(tx, &x);
            if Self::color_of(tx, &xp) != Color::Red {
                break;
            }
            let xpp = Self::parent_of(tx, &xp);
            let xpp_left = Self::left_of(tx, &xpp);
            if Self::same(&xp, &xpp_left) {
                let y = Self::right_of(tx, &xpp); // uncle
                if Self::color_of(tx, &y) == Color::Red {
                    Self::set_color(tx, &xp, Color::Black);
                    Self::set_color(tx, &y, Color::Black);
                    Self::set_color(tx, &xpp, Color::Red);
                    x = xpp;
                } else {
                    if Self::same(&x, &Self::right_of(tx, &xp)) {
                        x = xp;
                        self.rotate_left(tx, &x);
                    }
                    let xp2 = Self::parent_of(tx, &x);
                    let xpp2 = Self::parent_of(tx, &xp2);
                    Self::set_color(tx, &xp2, Color::Black);
                    Self::set_color(tx, &xpp2, Color::Red);
                    self.rotate_right(tx, &xpp2);
                }
            } else {
                let y = Self::left_of(tx, &xpp); // uncle
                if Self::color_of(tx, &y) == Color::Red {
                    Self::set_color(tx, &xp, Color::Black);
                    Self::set_color(tx, &y, Color::Black);
                    Self::set_color(tx, &xpp, Color::Red);
                    x = xpp;
                } else {
                    if Self::same(&x, &Self::left_of(tx, &xp)) {
                        x = xp;
                        self.rotate_right(tx, &x);
                    }
                    let xp2 = Self::parent_of(tx, &x);
                    let xpp2 = Self::parent_of(tx, &xp2);
                    Self::set_color(tx, &xp2, Color::Black);
                    Self::set_color(tx, &xpp2, Color::Red);
                    self.rotate_left(tx, &xpp2);
                }
            }
        }
        let root = self.root_of(tx);
        Self::set_color(tx, &root, Color::Black);
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Remove a key; returns the previous value.
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        let node = self.get_node(tx, key)?;
        let old = node.value.read(tx, &node);
        self.delete_entry(tx, node);
        Some(old)
    }

    fn successor_node(tx: &mut Txn, t: &NodeRef<K, V>) -> Link<K, V> {
        if let Some(r) = t.right.read(tx, t) {
            let mut p = r;
            while let Some(l) = p.left.read(tx, &p) {
                p = l;
            }
            return Some(p);
        }
        let mut ch: Link<K, V> = Some(t.clone());
        let mut p = Self::parent_of(tx, &ch);
        while let Some(pn) = &p {
            let pr = pn.right.read(tx, pn);
            if !Self::same(&pr, &ch) {
                break;
            }
            ch = p.clone();
            p = Self::parent_of(tx, &ch);
        }
        p
    }

    fn delete_entry(&self, tx: &mut Txn, mut p: NodeRef<K, V>) {
        self.bump_size(tx, -1);

        // Interior node: copy successor's entry here, delete successor.
        if p.left.read(tx, &p).is_some() && p.right.read(tx, &p).is_some() {
            let s = Self::successor_node(tx, &p).expect("interior node has a successor");
            let sk = s.key.read(tx, &s);
            let sv = s.value.read(tx, &s);
            p.key.write(tx, &p, sk);
            p.value.write(tx, &p, sv);
            p = s;
        }

        let p_link: Link<K, V> = Some(p.clone());
        let left = p.left.read(tx, &p);
        let replacement = if left.is_some() {
            left
        } else {
            p.right.read(tx, &p)
        };

        if let Some(repl) = replacement {
            // Splice out p.
            let pp = Self::parent_of(tx, &p_link);
            repl.parent
                .write(tx, &repl, pp.as_ref().map(Arc::downgrade));
            match &pp {
                None => self.set_root(tx, Some(repl.clone())),
                Some(ppn) => {
                    let ppl = ppn.left.read(tx, ppn);
                    if Self::same(&ppl, &p_link) {
                        ppn.left.write(tx, ppn, Some(repl.clone()));
                    } else {
                        ppn.right.write(tx, ppn, Some(repl.clone()));
                    }
                }
            }
            p.left.write(tx, &p, None);
            p.right.write(tx, &p, None);
            p.parent.write(tx, &p, None);
            if p.color.read(tx, &p) == Color::Black {
                self.fix_after_deletion(tx, Some(repl));
            }
        } else if Self::parent_of(tx, &p_link).is_none() {
            self.set_root(tx, None);
        } else {
            // No children: use p itself as the phantom replacement.
            if p.color.read(tx, &p) == Color::Black {
                self.fix_after_deletion(tx, p_link.clone());
            }
            let pp = Self::parent_of(tx, &p_link);
            if let Some(ppn) = &pp {
                let ppl = ppn.left.read(tx, ppn);
                if Self::same(&ppl, &p_link) {
                    ppn.left.write(tx, ppn, None);
                } else {
                    let ppr = ppn.right.read(tx, ppn);
                    if Self::same(&ppr, &p_link) {
                        ppn.right.write(tx, ppn, None);
                    }
                }
                p.parent.write(tx, &p, None);
            }
        }
    }

    fn fix_after_deletion(&self, tx: &mut Txn, mut x: Link<K, V>) {
        loop {
            let root = self.root_of(tx);
            if Self::same(&x, &root) || Self::color_of(tx, &x) != Color::Black {
                break;
            }
            let xp = Self::parent_of(tx, &x);
            let xp_left = Self::left_of(tx, &xp);
            if Self::same(&x, &xp_left) {
                let mut sib = Self::right_of(tx, &xp);
                if Self::color_of(tx, &sib) == Color::Red {
                    Self::set_color(tx, &sib, Color::Black);
                    Self::set_color(tx, &xp, Color::Red);
                    self.rotate_left(tx, &xp);
                    let xp2 = Self::parent_of(tx, &x);
                    sib = Self::right_of(tx, &xp2);
                }
                let sl = Self::left_of(tx, &sib);
                let sr = Self::right_of(tx, &sib);
                if Self::color_of(tx, &sl) == Color::Black
                    && Self::color_of(tx, &sr) == Color::Black
                {
                    Self::set_color(tx, &sib, Color::Red);
                    x = Self::parent_of(tx, &x);
                } else {
                    let mut sib = sib;
                    let sr = Self::right_of(tx, &sib);
                    if Self::color_of(tx, &sr) == Color::Black {
                        let sl = Self::left_of(tx, &sib);
                        Self::set_color(tx, &sl, Color::Black);
                        Self::set_color(tx, &sib, Color::Red);
                        self.rotate_right(tx, &sib);
                        let xp2 = Self::parent_of(tx, &x);
                        sib = Self::right_of(tx, &xp2);
                    }
                    let xp2 = Self::parent_of(tx, &x);
                    let pc = Self::color_of(tx, &xp2);
                    Self::set_color(tx, &sib, pc);
                    Self::set_color(tx, &xp2, Color::Black);
                    let sr2 = Self::right_of(tx, &sib);
                    Self::set_color(tx, &sr2, Color::Black);
                    self.rotate_left(tx, &xp2);
                    x = self.root_of(tx);
                }
            } else {
                // Symmetric.
                let mut sib = Self::left_of(tx, &xp);
                if Self::color_of(tx, &sib) == Color::Red {
                    Self::set_color(tx, &sib, Color::Black);
                    Self::set_color(tx, &xp, Color::Red);
                    self.rotate_right(tx, &xp);
                    let xp2 = Self::parent_of(tx, &x);
                    sib = Self::left_of(tx, &xp2);
                }
                let sl = Self::left_of(tx, &sib);
                let sr = Self::right_of(tx, &sib);
                if Self::color_of(tx, &sr) == Color::Black
                    && Self::color_of(tx, &sl) == Color::Black
                {
                    Self::set_color(tx, &sib, Color::Red);
                    x = Self::parent_of(tx, &x);
                } else {
                    let mut sib = sib;
                    let sl = Self::left_of(tx, &sib);
                    if Self::color_of(tx, &sl) == Color::Black {
                        let sr = Self::right_of(tx, &sib);
                        Self::set_color(tx, &sr, Color::Black);
                        Self::set_color(tx, &sib, Color::Red);
                        self.rotate_left(tx, &sib);
                        let xp2 = Self::parent_of(tx, &x);
                        sib = Self::left_of(tx, &xp2);
                    }
                    let xp2 = Self::parent_of(tx, &x);
                    let pc = Self::color_of(tx, &xp2);
                    Self::set_color(tx, &sib, pc);
                    Self::set_color(tx, &xp2, Color::Black);
                    let sl2 = Self::left_of(tx, &sib);
                    Self::set_color(tx, &sl2, Color::Black);
                    self.rotate_right(tx, &xp2);
                    x = self.root_of(tx);
                }
            }
        }
        Self::set_color(tx, &x, Color::Black);
    }

    // ------------------------------------------------------------------
    // Ordered access
    // ------------------------------------------------------------------

    /// Smallest key, if any.
    pub fn first_key(&self, tx: &mut Txn) -> Option<K> {
        self.first_entry(tx).map(|(k, _)| k)
    }

    /// Largest key, if any.
    pub fn last_key(&self, tx: &mut Txn) -> Option<K> {
        self.last_entry(tx).map(|(k, _)| k)
    }

    /// Smallest entry, if any.
    pub fn first_entry(&self, tx: &mut Txn) -> Option<(K, V)> {
        let mut p = self.root_of(tx)?;
        while let Some(l) = p.left.read(tx, &p) {
            p = l;
        }
        Some((p.key.read(tx, &p), p.value.read(tx, &p)))
    }

    /// Largest entry, if any.
    pub fn last_entry(&self, tx: &mut Txn) -> Option<(K, V)> {
        let mut p = self.root_of(tx)?;
        while let Some(r) = p.right.read(tx, &p) {
            p = r;
        }
        Some((p.key.read(tx, &p), p.value.read(tx, &p)))
    }

    /// Smallest entry with key strictly greater than `key` — the stepwise
    /// traversal primitive used by `TransactionalSortedMap`'s merged
    /// iterators (each step is an independent O(log n) descent, so steps can
    /// run in separate open-nested transactions).
    pub fn next_entry_after(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
        let mut best: Link<K, V> = None;
        let mut p = self.root_of(tx);
        while let Some(n) = p {
            let nk = n.key.read(tx, &n);
            if nk > *key {
                best = Some(n.clone());
                p = n.left.read(tx, &n);
            } else {
                p = n.right.read(tx, &n);
            }
        }
        best.map(|n| (n.key.read(tx, &n), n.value.read(tx, &n)))
    }

    /// Largest entry with key strictly less than `key`.
    pub fn prev_entry_before(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
        let mut best: Link<K, V> = None;
        let mut p = self.root_of(tx);
        while let Some(n) = p {
            let nk = n.key.read(tx, &n);
            if nk < *key {
                best = Some(n.clone());
                p = n.right.read(tx, &n);
            } else {
                p = n.left.read(tx, &n);
            }
        }
        best.map(|n| (n.key.read(tx, &n), n.value.read(tx, &n)))
    }

    /// Largest entry with key `<= key` (floor).
    pub fn floor_entry(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
        let mut best: Link<K, V> = None;
        let mut p = self.root_of(tx);
        while let Some(n) = p {
            let nk = n.key.read(tx, &n);
            if nk <= *key {
                best = Some(n.clone());
                p = n.right.read(tx, &n);
            } else {
                p = n.left.read(tx, &n);
            }
        }
        best.map(|n| (n.key.read(tx, &n), n.value.read(tx, &n)))
    }

    /// Smallest entry with key `>= key` (ceiling).
    pub fn ceiling_entry(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
        let mut best: Link<K, V> = None;
        let mut p = self.root_of(tx);
        while let Some(n) = p {
            let nk = n.key.read(tx, &n);
            if nk >= *key {
                best = Some(n.clone());
                p = n.left.read(tx, &n);
            } else {
                p = n.right.read(tx, &n);
            }
        }
        best.map(|n| (n.key.read(tx, &n), n.value.read(tx, &n)))
    }

    /// All entries in key order.
    pub fn entries(&self, tx: &mut Txn) -> Vec<(K, V)> {
        self.range_entries(tx, Bound::Unbounded, Bound::Unbounded)
    }

    /// All keys in order. Reads what [`entries`](Self::entries) reads: the
    /// walk from one key to the next reads each node's value too.
    pub fn keys(&self, tx: &mut Txn) -> Vec<K> {
        self.entries(tx).into_iter().map(|(k, _)| k).collect()
    }

    /// Entries within the given key bounds, in order.
    pub fn range_entries(&self, tx: &mut Txn, lower: Bound<&K>, upper: Bound<&K>) -> Vec<(K, V)> {
        let mut out = Vec::new();
        let mut cur = match lower {
            Bound::Unbounded => self.first_entry(tx),
            Bound::Included(k) => self.ceiling_entry(tx, k),
            Bound::Excluded(k) => self.next_entry_after(tx, k),
        };
        while let Some((k, v)) = cur {
            let in_range = match upper {
                Bound::Unbounded => true,
                Bound::Included(u) => k <= *u,
                Bound::Excluded(u) => k < *u,
            };
            if !in_range {
                break;
            }
            cur = self.next_entry_after(tx, &k);
            out.push((k, v));
        }
        out
    }

    /// Remove all entries.
    pub fn clear(&self, tx: &mut Txn) {
        self.header.write(
            tx,
            TreeHeader {
                root: None,
                size: 0,
            },
        );
    }

    /// Id of the header variable (the root+size conflict unit), for
    /// read/write-set introspection in tests and benches.
    pub fn header_var_id(&self) -> stm::VarId {
        self.header.id()
    }

    /// Label the header variable for conflict attribution.
    pub fn set_header_label(&self, label: impl Into<String>) {
        self.header.set_label(label);
    }

    // ------------------------------------------------------------------
    // Invariant checking (test support)
    // ------------------------------------------------------------------

    /// Verify the red–black and BST invariants; returns a description of the
    /// first violation. Exposed for the property-test suite.
    #[doc(hidden)]
    pub fn check_invariants(&self, tx: &mut Txn) -> Result<(), String> {
        let root = self.root_of(tx);
        if Self::color_of(tx, &root) == Color::Red {
            return Err("root is red".into());
        }
        let mut count = 0usize;
        let _black_height = self.check_node(tx, &root, None, None, &mut count)?;
        let sz = self.header.read(tx).size;
        if count != sz {
            return Err(format!("size field {sz} != actual node count {count}"));
        }
        Ok(())
    }

    fn check_node(
        &self,
        tx: &mut Txn,
        n: &Link<K, V>,
        lo: Option<&K>,
        hi: Option<&K>,
        count: &mut usize,
    ) -> Result<usize, String> {
        let Some(node) = n else { return Ok(1) };
        *count += 1;
        let k = node.key.read(tx, node);
        if let Some(lo) = lo {
            if k <= *lo {
                return Err("BST order violated (left bound)".into());
            }
        }
        if let Some(hi) = hi {
            if k >= *hi {
                return Err("BST order violated (right bound)".into());
            }
        }
        let color = node.color.read(tx, node);
        let left = node.left.read(tx, node);
        let right = node.right.read(tx, node);
        if color == Color::Red
            && (Self::color_of(tx, &left) == Color::Red || Self::color_of(tx, &right) == Color::Red)
        {
            return Err(format!("red-red violation at key position {count}"));
        }
        for c in [&left, &right].into_iter().flatten() {
            let cp = Self::parent_of(tx, &Some(c.clone()));
            if !Self::same(&cp, &Some(node.clone())) {
                return Err("parent link inconsistent".into());
            }
        }
        let lh = self.check_node(tx, &left, lo, Some(&k), count)?;
        let rh = self.check_node(tx, &right, Some(&k), hi, count)?;
        if lh != rh {
            return Err(format!("black height mismatch: {lh} vs {rh}"));
        }
        Ok(lh + if color == Color::Black { 1 } else { 0 })
    }
}

impl<K, V> Default for TxTreeMap<K, V>
where
    K: Clone + Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::atomic;

    #[test]
    fn insert_get_remove_roundtrip() {
        let t: TxTreeMap<i32, i32> = TxTreeMap::new();
        atomic(|tx| {
            assert_eq!(t.insert(tx, 5, 50), None);
            assert_eq!(t.insert(tx, 3, 30), None);
            assert_eq!(t.insert(tx, 8, 80), None);
            assert_eq!(t.insert(tx, 5, 55), Some(50));
            assert_eq!(t.get(tx, &3), Some(30));
            assert_eq!(t.len(tx), 3);
            assert_eq!(t.remove(tx, &3), Some(30));
            assert_eq!(t.get(tx, &3), None);
            assert_eq!(t.len(tx), 2);
            t.check_invariants(tx).unwrap();
        });
    }

    #[test]
    fn ordered_iteration() {
        let t: TxTreeMap<i32, i32> = TxTreeMap::new();
        atomic(|tx| {
            for k in [7, 1, 9, 4, 2, 8, 3, 6, 5] {
                t.insert(tx, k, k * 10);
            }
        });
        let e = atomic(|tx| t.entries(tx));
        let keys: Vec<i32> = e.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn first_last_ceiling() {
        let t: TxTreeMap<i32, i32> = TxTreeMap::new();
        atomic(|tx| {
            for k in [10, 20, 30] {
                t.insert(tx, k, k);
            }
            assert_eq!(t.first_key(tx), Some(10));
            assert_eq!(t.last_key(tx), Some(30));
            assert_eq!(t.ceiling_entry(tx, &15), Some((20, 20)));
            assert_eq!(t.ceiling_entry(tx, &20), Some((20, 20)));
            assert_eq!(t.next_entry_after(tx, &20), Some((30, 30)));
            assert_eq!(t.next_entry_after(tx, &30), None);
        });
    }

    #[test]
    fn range_bounds() {
        let t: TxTreeMap<i32, i32> = TxTreeMap::new();
        atomic(|tx| {
            for k in 0..10 {
                t.insert(tx, k, k);
            }
        });
        let r = atomic(|tx| t.range_entries(tx, Bound::Included(&3), Bound::Excluded(&7)));
        let keys: Vec<i32> = r.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
    }

    #[test]
    fn invariants_hold_through_mixed_ops() {
        let t: TxTreeMap<u32, u32> = TxTreeMap::new();
        // Deterministic pseudo-random mix.
        let mut x = 0x12345678u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..500 {
            let k = (step() % 64) as u32;
            let op = step() % 3;
            atomic(|tx| {
                match op {
                    0 | 1 => {
                        t.insert(tx, k, k);
                    }
                    _ => {
                        t.remove(tx, &k);
                    }
                }
                t.check_invariants(tx).unwrap();
            });
            match op {
                0 | 1 => {
                    model.insert(k, k);
                }
                _ => {
                    model.remove(&k);
                }
            }
        }
        let e = atomic(|tx| t.entries(tx));
        let expect: Vec<(u32, u32)> = model.into_iter().collect();
        assert_eq!(e, expect);
    }

    #[test]
    fn a_nodes_six_cells_have_six_ids() {
        let n = new_node(1u64, 2u64);
        let ids: std::collections::HashSet<stm::VarId> = [
            n.key.id(),
            n.value.id(),
            n.color.id(),
            n.left.id(),
            n.right.id(),
            n.parent.id(),
        ]
        .into();
        assert_eq!(ids.len(), 6, "two fields of one node share an id");
        let node = Arc::as_ptr(&n) as stm::VarId;
        let end = node + std::mem::size_of::<NodeInner<u64, u64>>() as stm::VarId;
        assert!(
            ids.iter().all(|&id| (node..end).contains(&id)),
            "a cell's id is its address inside the node"
        );
    }

    #[test]
    fn clear_resets() {
        let t: TxTreeMap<i32, i32> = TxTreeMap::new();
        atomic(|tx| {
            for k in 0..10 {
                t.insert(tx, k, k);
            }
            t.clear(tx);
            assert!(t.is_empty(tx));
            assert_eq!(t.first_key(tx), None);
        });
    }
}
