//! # dvfs-ostree
//!
//! An order-statistic **B+tree with range aggregates** — the realization
//! of the "1D range tree" of Section IV-A of the ICPP 2014 paper. It
//! stores task cycle counts sorted **descending**, so the 1-based rank of
//! an element equals its *backward position* `k^B` in the optimal
//! execution order (Theorem 3: tasks execute in non-decreasing cycle
//! order, so the largest task is last and has backward position 1).
//! Equal cycle counts keep insertion order: a new element lands behind
//! every stored element with at least as many cycles.
//!
//! **Shape.** Leaves hold up to 64 cycle counts with their element ids,
//! in rank order, and link to their neighbouring leaves. Inner nodes hold
//! up to 32 children and, per child, its first key and three associative
//! aggregates (Equations 28–30, merged with Equations 33–34):
//!
//! * `size` — number of elements;
//! * `xi`   — `ξ = Σ L_k`, the sum of cycles;
//! * `delta`— `Δ = Σ (k − a + 1)·L_k`, the position-weighted sum with
//!   positions counted from the child's own start.
//!
//! A full node splits; a node falling below half full takes an item from
//! a sibling or merges with it. Every node but the root stays at least
//! half full, so the height is `O(log N)` in the current `N` — three
//! levels at `N = 10⁵` — and a descent is a few linear scans over
//! contiguous arrays instead of a chain of pointer chases.
//!
//! `prev`/`next` are a scan of at most one leaf plus a sibling hop, which
//! is what lets the dynamic cost ledger in `dvfs-core` walk
//! dominating-range boundaries in constant time per step and reach the
//! paper's `O(|P̂| + log N)` insert/delete bound.
//!
//! **One pass per operation.** A mutation reports the [`Position`] it
//! acted at — how many elements order before the element and their `ξ` —
//! from the root-to-leaf path it walks anyway
//! ([`CycleTree::insert_with_position`],
//! [`CycleTree::remove_with_position`]), and [`CycleTree::locate`]
//! answers the same question for a key that is *not* inserted, read-only.
//! The ledger derives every range sum it needs from that one answer, so
//! neither it nor the Least Marginal Cost probe walks the tree twice.
//!
//! Handles are generational indices into an element slab: using a handle
//! after its element was removed panics with a clear message instead of
//! silently reading a recycled slot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;
/// Most elements a leaf holds; a non-root leaf holds at least half.
const LEAF_CAP: usize = 64;
/// Most children an inner node holds; a non-root one holds at least half.
const INNER_CAP: usize = 32;
/// Inner levels above the leaves: with every non-root node half full,
/// eight levels index more than `2³²` elements.
const MAX_HEIGHT: usize = 8;

/// A generational handle to an element in a [`CycleTree`].
///
/// Ordered by `(idx, gen)` so handles can key deterministic-iteration
/// containers (`BTreeMap`) in replay-critical code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle {
    idx: u32,
    gen: u32,
}

impl Handle {
    /// The element's slab index: dense, below the most elements the
    /// tree has ever held at once, and reused once the element is
    /// removed — so a caller can keep per-element data in a `Vec`
    /// indexed by it instead of a map keyed by the handle.
    #[must_use]
    pub fn slot(self) -> usize {
        self.idx as usize
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}.{}", self.idx, self.gen)
    }
}

/// Where an element sits — or, for [`CycleTree::locate`], would sit — in
/// rank order: the elements ordered before it, as a count and as a sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Position {
    /// Number of elements ordered before this one.
    pub before: usize,
    /// Their `ξ`: `prefix_xi(before)`.
    pub xi_before: u128,
}

impl Position {
    /// The 1-based rank (backward position `k^B`): `before + 1`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.before + 1
    }
}

/// One slot of the element slab.
#[derive(Debug, Clone)]
struct Element {
    /// The leaf holding the element.
    leaf: u32,
    /// Generation for handle validation; odd = live, even = free.
    gen: u32,
    cycles: u64,
}

/// Up to `LEAF_CAP` elements in rank order.
#[derive(Debug, Clone)]
struct Leaf {
    keys: [u64; LEAF_CAP],
    ids: [u32; LEAF_CAP],
    len: u32,
    parent: u32,
    /// Neighbouring leaves in rank order.
    prev: u32,
    next: u32,
}

/// Up to `INNER_CAP` children in rank order, each with its first key and
/// its aggregates, one array per field so a scan reads contiguous memory.
#[derive(Debug, Clone)]
struct Inner {
    first: [u64; INNER_CAP],
    size: [u32; INNER_CAP],
    child: [u32; INNER_CAP],
    xi: [u128; INNER_CAP],
    /// Child Δ, positions counted from the child's own start.
    delta: [u128; INNER_CAP],
    len: u32,
    parent: u32,
}

/// A child of an inner node with its first key and aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    first: u64,
    size: u32,
    child: u32,
    xi: u128,
    delta: u128,
}

/// An inner node a descent passed: the child it took, and the position of
/// that child's first element.
#[derive(Clone, Copy, Default)]
struct Step {
    node: u32,
    slot: usize,
    at: Position,
}

impl Leaf {
    fn new() -> Self {
        Leaf {
            keys: [0; LEAF_CAP],
            ids: [0; LEAF_CAP],
            len: 0,
            parent: NIL,
            prev: NIL,
            next: NIL,
        }
    }

    fn insert(&mut self, j: usize, key: u64, id: u32) {
        let n = self.len as usize;
        self.keys.copy_within(j..n, j + 1);
        self.ids.copy_within(j..n, j + 1);
        self.keys[j] = key;
        self.ids[j] = id;
        self.len += 1;
    }

    fn remove(&mut self, j: usize) {
        let n = self.len as usize;
        self.keys.copy_within(j + 1..n, j);
        self.ids.copy_within(j + 1..n, j);
        self.len -= 1;
    }

    fn slot_of(&self, id: u32) -> usize {
        self.ids[..self.len as usize]
            .iter()
            .position(|&x| x == id)
            .expect("an element is in the leaf it names")
    }
}

impl Inner {
    fn new() -> Self {
        Inner {
            first: [0; INNER_CAP],
            size: [0; INNER_CAP],
            child: [0; INNER_CAP],
            xi: [0; INNER_CAP],
            delta: [0; INNER_CAP],
            len: 0,
            parent: NIL,
        }
    }

    fn set(&mut self, i: usize, e: Entry) {
        self.first[i] = e.first;
        self.size[i] = e.size;
        self.child[i] = e.child;
        self.xi[i] = e.xi;
        self.delta[i] = e.delta;
    }

    fn insert(&mut self, i: usize, e: Entry) {
        let n = self.len as usize;
        self.first.copy_within(i..n, i + 1);
        self.size.copy_within(i..n, i + 1);
        self.child.copy_within(i..n, i + 1);
        self.xi.copy_within(i..n, i + 1);
        self.delta.copy_within(i..n, i + 1);
        self.set(i, e);
        self.len += 1;
    }

    fn remove(&mut self, i: usize) {
        let n = self.len as usize;
        self.first.copy_within(i + 1..n, i);
        self.size.copy_within(i + 1..n, i);
        self.child.copy_within(i + 1..n, i);
        self.xi.copy_within(i + 1..n, i);
        self.delta.copy_within(i + 1..n, i);
        self.len -= 1;
    }

    fn slot_of(&self, child: u32) -> usize {
        self.child[..self.len as usize]
            .iter()
            .position(|&c| c == child)
            .expect("a node is a child of its parent")
    }

    /// Elements and their `ξ` in the children before `i`.
    fn ahead_of(&self, i: usize) -> (usize, u128) {
        let size = self.size[..i].iter().map(|&s| s as usize).sum();
        (size, self.xi[..i].iter().sum())
    }
}

/// Move `count` items between the tail of `l` (holding `ln`) and the head
/// of `r` (holding `rn`): from `r` to `l` when `leftward`, else from `l`
/// to `r`.
fn shift<T: Copy>(l: &mut [T], r: &mut [T], ln: usize, rn: usize, count: usize, leftward: bool) {
    if leftward {
        l[ln..ln + count].copy_from_slice(&r[..count]);
        r.copy_within(count..rn, 0);
    } else {
        r.copy_within(..rn, count);
        r[..count].copy_from_slice(&l[ln - count..ln]);
    }
}

/// A slot of `arena` holding `node`: the last freed one, or a new one.
fn alloc<T>(arena: &mut Vec<T>, free: &mut Vec<u32>, node: T) -> u32 {
    if let Some(i) = free.pop() {
        arena[i as usize] = node;
        i
    } else {
        arena.push(node);
        (arena.len() - 1) as u32
    }
}

/// Two distinct slots of one arena, both mutable.
fn pair<T>(v: &mut [T], a: u32, b: u32) -> (&mut T, &mut T) {
    let (a, b) = (a as usize, b as usize);
    if a < b {
        let (x, y) = v.split_at_mut(b);
        (&mut x[a], &mut y[0])
    } else {
        let (x, y) = v.split_at_mut(a);
        (&mut y[0], &mut x[b])
    }
}

/// `ξ` and `Δ` of a run of keys.
fn sums(keys: &[u64]) -> (u128, u128) {
    // Δ = Σ_k k·L_k is the sum of the suffix sums.
    keys.iter().rev().fold((0, 0), |(xi, delta), &k| {
        let xi = xi + k as u128;
        (xi, delta + xi)
    })
}

/// Order-statistic B+tree over cycle counts, sorted descending, with ξ/Δ
/// aggregates per child and linked leaves. See the crate docs.
///
/// ```
/// use dvfs_ostree::CycleTree;
///
/// let mut t = CycleTree::new();
/// let h = t.insert(500);
/// t.insert(2000);
/// t.insert(1000);
/// // Descending order: rank 1 is the largest element.
/// assert_eq!(t.rank(h), 3);
/// // ξ([1,2]) = 2000 + 1000; Δ([1,2]) = 1·2000 + 2·1000.
/// assert_eq!(t.xi_range(1, 2), 3000);
/// assert_eq!(t.delta_range(1, 2), 4000);
/// ```
#[derive(Debug, Clone)]
pub struct CycleTree {
    elems: Vec<Element>,
    free: Vec<u32>,
    leaves: Vec<Leaf>,
    free_leaves: Vec<u32>,
    inners: Vec<Inner>,
    free_inners: Vec<u32>,
    /// A leaf when `height == 0`; `NIL` until the first insert.
    root: u32,
    /// Inner levels above the leaves.
    height: usize,
    len: usize,
    xi: u128,
}

impl Default for CycleTree {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleTree {
    /// An empty tree. Allocates nothing until the first insert.
    #[must_use]
    pub fn new() -> Self {
        CycleTree {
            elems: Vec::new(),
            free: Vec::new(),
            leaves: Vec::new(),
            free_leaves: Vec::new(),
            inners: Vec::new(),
            free_inners: Vec::new(),
            root: NIL,
            height: 0,
            len: 0,
            xi: 0,
        }
    }

    /// An alias of [`new`](Self::new): the tree's shape depends only on
    /// its contents, so the seed shapes nothing.
    ///
    /// # Panics
    /// Panics when `seed == 0`.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        assert_ne!(seed, 0, "seed must be non-zero");
        Self::new()
    }

    /// Number of stored elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cycle count stored under `h`.
    ///
    /// # Panics
    /// Panics when `h` is stale (its element was removed).
    #[must_use]
    pub fn cycles(&self, h: Handle) -> u64 {
        self.check(h);
        self.elems[h.idx as usize].cycles
    }

    #[inline]
    fn check(&self, h: Handle) {
        let e = self
            .elems
            .get(h.idx as usize)
            .unwrap_or_else(|| panic!("handle {h} out of range"));
        assert!(
            e.gen == h.gen && h.gen % 2 == 1,
            "stale handle {h}: element was removed"
        );
    }

    fn handle(&self, id: u32) -> Handle {
        Handle {
            idx: id,
            gen: self.elems[id as usize].gen,
        }
    }

    fn alloc_elem(&mut self, cycles: u64) -> u32 {
        if let Some(id) = self.free.pop() {
            let e = &mut self.elems[id as usize];
            e.gen += 1; // even -> odd
            e.cycles = cycles;
            id
        } else {
            self.elems.push(Element {
                leaf: NIL,
                gen: 1,
                cycles,
            });
            (self.elems.len() - 1) as u32
        }
    }

    /// Items (elements or children) in `node` at `level` (0: a leaf).
    fn fill(&self, node: u32, level: usize) -> usize {
        if level == 0 {
            self.leaves[node as usize].len as usize
        } else {
            self.inners[node as usize].len as usize
        }
    }

    fn parent_of(&self, node: u32, level: usize) -> u32 {
        if level == 0 {
            self.leaves[node as usize].parent
        } else {
            self.inners[node as usize].parent
        }
    }

    fn set_parent(&mut self, node: u32, level: usize, parent: u32) {
        if level == 0 {
            self.leaves[node as usize].parent = parent;
        } else {
            self.inners[node as usize].parent = parent;
        }
    }

    /// The entry a parent keeps for `node` at `level`, computed from the
    /// node itself (Equations 33–34 across its items).
    fn entry_of(&self, node: u32, level: usize) -> Entry {
        if level == 0 {
            let l = &self.leaves[node as usize];
            let (xi, delta) = sums(&l.keys[..l.len as usize]);
            return Entry {
                first: l.keys[0],
                size: l.len,
                child: node,
                xi,
                delta,
            };
        }
        let n = &self.inners[node as usize];
        let mut e = Entry {
            first: n.first[0],
            size: 0,
            child: node,
            xi: 0,
            delta: 0,
        };
        for i in 0..n.len as usize {
            e.delta += n.delta[i] + e.size as u128 * n.xi[i];
            e.size += n.size[i];
            e.xi += n.xi[i];
        }
        e
    }

    /// Recompute `parent`'s entry `i` from its child at `level`.
    fn refresh(&mut self, parent: u32, i: usize, level: usize) {
        let e = self.entry_of(self.inners[parent as usize].child[i], level);
        self.inners[parent as usize].set(i, e);
    }

    /// Move `count` items between siblings `left` and `right` at `level`
    /// (see [`shift`]), and point what moved at its new node.
    fn move_items(&mut self, level: usize, left: u32, right: u32, count: usize, leftward: bool) {
        let (ln, rn);
        if level == 0 {
            let (l, r) = pair(&mut self.leaves, left, right);
            (ln, rn) = (l.len as usize, r.len as usize);
            shift(&mut l.keys, &mut r.keys, ln, rn, count, leftward);
            shift(&mut l.ids, &mut r.ids, ln, rn, count, leftward);
        } else {
            let (l, r) = pair(&mut self.inners, left, right);
            (ln, rn) = (l.len as usize, r.len as usize);
            shift(&mut l.first, &mut r.first, ln, rn, count, leftward);
            shift(&mut l.size, &mut r.size, ln, rn, count, leftward);
            shift(&mut l.child, &mut r.child, ln, rn, count, leftward);
            shift(&mut l.xi, &mut r.xi, ln, rn, count, leftward);
            shift(&mut l.delta, &mut r.delta, ln, rn, count, leftward);
        }
        let (to, moved, ln, rn) = if leftward {
            (left, ln..ln + count, ln + count, rn - count)
        } else {
            (right, 0..count, ln - count, rn + count)
        };
        if level == 0 {
            self.leaves[left as usize].len = ln as u32;
            self.leaves[right as usize].len = rn as u32;
            for j in moved {
                let id = self.leaves[to as usize].ids[j];
                self.elems[id as usize].leaf = to;
            }
        } else {
            self.inners[left as usize].len = ln as u32;
            self.inners[right as usize].len = rn as u32;
            for i in moved {
                let child = self.inners[to as usize].child[i];
                self.set_parent(child, level - 1, to);
            }
        }
    }

    /// Walk from the root to the leaf where a new element with `cycles`
    /// lands — behind every element with at least as many cycles — and
    /// report each inner node passed, top down, to `step`. Returns the
    /// leaf, the slot in it and the position. The tree must have a root.
    #[inline]
    fn descend(&self, cycles: u64, mut step: impl FnMut(Step)) -> (u32, usize, Position) {
        let mut at = Position::default();
        let mut node = self.root;
        for _ in 0..self.height {
            let n = &self.inners[node as usize];
            // The last child whose first key is at least `cycles`: the one
            // holding the end of an equal-cycles run however many leaves
            // it spans (the first child when there is none).
            let i = n.first[1..n.len as usize]
                .iter()
                .take_while(|&&f| f >= cycles)
                .count();
            let (size, xi) = n.ahead_of(i);
            at.before += size;
            at.xi_before += xi;
            step(Step { node, slot: i, at });
            node = n.child[i];
        }
        let l = &self.leaves[node as usize];
        let keys = &l.keys[..l.len as usize];
        let j = keys.iter().take_while(|&&k| k >= cycles).count();
        at.before += j;
        at.xi_before += keys[..j].iter().map(|&k| k as u128).sum::<u128>();
        (node, j, at)
    }

    /// Insert a cycle count; returns its handle. `O(log N)`.
    pub fn insert(&mut self, cycles: u64) -> Handle {
        self.insert_with_position(cycles).0
    }

    /// [`insert`](Self::insert), also reporting where the element landed
    /// (equal cycle counts order before it). One root-to-leaf pass: the
    /// rank and prefix `ξ` come from the walk that finds the slot.
    pub fn insert_with_position(&mut self, cycles: u64) -> (Handle, Position) {
        if self.root == NIL {
            // A tree that stays one leaf (a shallow queue) holds one leaf,
            // not the four a first `push` would reserve.
            self.leaves.reserve_exact(1);
            self.root = alloc(&mut self.leaves, &mut self.free_leaves, Leaf::new());
        }
        let mut path = [Step::default(); MAX_HEIGHT];
        let mut depth = 0;
        let (leaf, j, at) = self.descend(cycles, |s| {
            path[depth] = s;
            depth += 1;
        });
        let c = cycles as u128;
        for s in &path[..depth] {
            let n = &mut self.inners[s.node as usize];
            let i = s.slot;
            let ahead = at.before - s.at.before;
            // The child's elements behind the new one each move back a place.
            n.delta[i] += (ahead as u128 + 1) * c + n.xi[i] - (at.xi_before - s.at.xi_before);
            n.xi[i] += c;
            n.size[i] += 1;
            if ahead == 0 {
                n.first[i] = cycles;
            }
        }
        self.len += 1;
        self.xi += c;
        let id = self.alloc_elem(cycles);
        self.leaf_insert(&path[..depth], leaf, j, cycles, id);
        (self.handle(id), at)
    }

    /// Put element `id` at slot `j` of `leaf`, which `path` leads to,
    /// splitting the leaf when it is full.
    fn leaf_insert(&mut self, path: &[Step], leaf: u32, j: usize, key: u64, id: u32) {
        let half = LEAF_CAP / 2;
        let (to, j, right) = if (self.leaves[leaf as usize].len as usize) < LEAF_CAP {
            (leaf, j, NIL)
        } else {
            let right = alloc(&mut self.leaves, &mut self.free_leaves, Leaf::new());
            self.move_items(0, leaf, right, half, false);
            let next = self.leaves[leaf as usize].next;
            self.leaves[leaf as usize].next = right;
            self.leaves[right as usize].prev = leaf;
            self.leaves[right as usize].next = next;
            if next != NIL {
                self.leaves[next as usize].prev = right;
            }
            if j <= half {
                (leaf, j, right)
            } else {
                (right, j - half, right)
            }
        };
        self.leaves[to as usize].insert(j, key, id);
        self.elems[id as usize].leaf = to;
        if right != NIL {
            self.grow(path, right);
        }
    }

    /// `new` was split off as the right sibling of the node `path` leads
    /// to: give it an entry beside that node, splitting the parent in turn
    /// when it is full, and growing a new root when the root split.
    fn grow(&mut self, path: &[Step], new: u32) {
        let level = self.height - path.len();
        let Some((last, rest)) = path.split_last() else {
            let old = self.root;
            let root = alloc(&mut self.inners, &mut self.free_inners, Inner::new());
            self.inners[root as usize].len = 2;
            self.inners[root as usize].child[..2].copy_from_slice(&[old, new]);
            for (i, child) in [old, new].into_iter().enumerate() {
                self.set_parent(child, level, root);
                self.refresh(root, i, level);
            }
            self.root = root;
            self.height += 1;
            return;
        };
        let (parent, slot) = (last.node, last.slot);
        self.refresh(parent, slot, level);
        let entry = self.entry_of(new, level);
        let half = INNER_CAP / 2;
        let (to, i, right) = if (self.inners[parent as usize].len as usize) < INNER_CAP {
            (parent, slot + 1, NIL)
        } else {
            let right = alloc(&mut self.inners, &mut self.free_inners, Inner::new());
            self.move_items(level + 1, parent, right, half, false);
            if slot < half {
                (parent, slot + 1, right)
            } else {
                (right, slot + 1 - half, right)
            }
        };
        self.inners[to as usize].insert(i, entry);
        self.set_parent(new, level, to);
        if right != NIL {
            self.grow(rest, right);
        }
    }

    /// Where a new element with `cycles` would land, without inserting it:
    /// behind every stored element with at least as many cycles. Read-only,
    /// one root-to-leaf pass, `O(log N)`.
    #[must_use]
    pub fn locate(&self, cycles: u64) -> Position {
        if self.root == NIL {
            return Position::default();
        }
        self.descend(cycles, |_| {}).2
    }

    /// Remove the element under `h`; returns its cycle count. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    pub fn remove(&mut self, h: Handle) -> u64 {
        self.remove_with_position(h).0
    }

    /// [`remove`](Self::remove), also reporting where the element sat:
    /// its rank and prefix `ξ` come from the one leaf-to-root pass that
    /// updates the aggregates above it.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    pub fn remove_with_position(&mut self, h: Handle) -> (u64, Position) {
        self.check(h);
        let Element { leaf, cycles, .. } = self.elems[h.idx as usize];
        let l = &mut self.leaves[leaf as usize];
        let j = l.slot_of(h.idx);
        let mut at = Position {
            before: j,
            xi_before: l.keys[..j].iter().map(|&k| k as u128).sum(),
        };
        l.remove(j);
        let c = cycles as u128;
        // Up the path: `at` is the element's position inside `node`.
        let mut path = [(NIL, 0); MAX_HEIGHT];
        let mut node = leaf;
        for (level, step) in path[..self.height].iter_mut().enumerate() {
            let parent = self.parent_of(node, level);
            let first = if level == 0 {
                self.leaves[node as usize].keys[0]
            } else {
                self.inners[node as usize].first[0]
            };
            let p = &mut self.inners[parent as usize];
            let i = p.slot_of(node);
            // The child's elements behind the removed one move up a place.
            p.delta[i] -= (at.before as u128 + 1) * c + (p.xi[i] - at.xi_before - c);
            p.xi[i] -= c;
            p.size[i] -= 1;
            p.first[i] = first;
            let (size, xi) = p.ahead_of(i);
            at.before += size;
            at.xi_before += xi;
            *step = (parent, i);
            node = parent;
        }
        self.len -= 1;
        self.xi -= c;
        let mut node = leaf;
        for (level, &(parent, i)) in path[..self.height].iter().enumerate() {
            let half = if level == 0 { LEAF_CAP } else { INNER_CAP } / 2;
            if self.fill(node, level) >= half || !self.rebalance(parent, i, level) {
                break;
            }
            node = parent;
        }
        if self.height > 0 && self.inners[self.root as usize].len == 1 {
            let old = self.root;
            self.root = self.inners[old as usize].child[0];
            self.height -= 1;
            self.set_parent(self.root, self.height, NIL);
            self.free_inners.push(old);
        }
        self.elems[h.idx as usize].gen += 1; // odd -> even: dead
        self.free.push(h.idx);
        (cycles, at)
    }

    /// Child `i` of `parent`, at `level`, fell below half full: take one
    /// item from a sibling that can spare it, or merge the two. Returns
    /// whether they merged, which costs `parent` a child.
    fn rebalance(&mut self, parent: u32, i: usize, level: usize) -> bool {
        let li = i.saturating_sub(1);
        let p = &self.inners[parent as usize];
        let (left, right) = (p.child[li], p.child[li + 1]);
        let (ln, rn) = (self.fill(left, level), self.fill(right, level));
        let cap = if level == 0 { LEAF_CAP } else { INNER_CAP };
        if ln + rn > cap {
            self.move_items(level, left, right, 1, ln < rn);
            self.refresh(parent, li, level);
            self.refresh(parent, li + 1, level);
            return false;
        }
        self.move_items(level, left, right, rn, true);
        if level == 0 {
            let next = self.leaves[right as usize].next;
            self.leaves[left as usize].next = next;
            if next != NIL {
                self.leaves[next as usize].prev = left;
            }
            self.free_leaves.push(right);
        } else {
            self.free_inners.push(right);
        }
        self.inners[parent as usize].remove(li + 1);
        self.refresh(parent, li, level);
        true
    }

    /// 1-based rank of `h` in descending cycle order (its backward
    /// position `k^B`). `O(log N)`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    #[must_use]
    pub fn rank(&self, h: Handle) -> usize {
        self.check(h);
        let mut node = self.elems[h.idx as usize].leaf;
        let mut before = self.leaves[node as usize].slot_of(h.idx);
        for level in 0..self.height {
            let parent = self.parent_of(node, level);
            let p = &self.inners[parent as usize];
            before += p.ahead_of(p.slot_of(node)).0;
            node = parent;
        }
        before + 1
    }

    /// Handle of the element at 1-based `rank`. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `rank` is out of `[1, len]`.
    #[must_use]
    pub fn select(&self, rank: usize) -> Handle {
        assert!(rank >= 1 && rank <= self.len, "rank {rank} out of range");
        let mut k = rank - 1;
        let mut node = self.root;
        for _ in 0..self.height {
            let n = &self.inners[node as usize];
            let mut i = 0;
            while k >= n.size[i] as usize {
                k -= n.size[i] as usize;
                i += 1;
            }
            node = n.child[i];
        }
        self.handle(self.leaves[node as usize].ids[k])
    }

    /// Handle of rank 1 (largest cycles), or `None` when empty.
    #[must_use]
    pub fn first(&self) -> Option<Handle> {
        if self.is_empty() {
            None
        } else {
            Some(self.select(1))
        }
    }

    /// Handle of rank `len` (smallest cycles), or `None` when empty.
    #[must_use]
    pub fn last(&self) -> Option<Handle> {
        if self.is_empty() {
            None
        } else {
            Some(self.select(self.len()))
        }
    }

    /// Successor in rank order (next-smaller element): a scan of `h`'s
    /// leaf, then a hop to the next leaf. `O(1)` in `N`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    #[must_use]
    pub fn next(&self, h: Handle) -> Option<Handle> {
        self.check(h);
        let l = &self.leaves[self.elems[h.idx as usize].leaf as usize];
        let j = l.slot_of(h.idx) + 1;
        if j < l.len as usize {
            Some(self.handle(l.ids[j]))
        } else {
            (l.next != NIL).then(|| self.handle(self.leaves[l.next as usize].ids[0]))
        }
    }

    /// Predecessor in rank order (next-larger element): a scan of `h`'s
    /// leaf, then a hop to the previous leaf. `O(1)` in `N`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    #[must_use]
    pub fn prev(&self, h: Handle) -> Option<Handle> {
        self.check(h);
        let l = &self.leaves[self.elems[h.idx as usize].leaf as usize];
        match l.slot_of(h.idx) {
            0 => (l.prev != NIL).then(|| {
                let p = &self.leaves[l.prev as usize];
                self.handle(p.ids[p.len as usize - 1])
            }),
            j => Some(self.handle(l.ids[j - 1])),
        }
    }

    /// Prefix sum `Σ_{r<=k} L_r` over the first `k` ranks. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `k > len`.
    #[must_use]
    pub fn prefix_xi(&self, k: usize) -> u128 {
        assert!(k <= self.len, "prefix length {k} out of range");
        let mut rest = k;
        let mut acc = 0u128;
        let mut node = self.root;
        for _ in 0..self.height {
            let n = &self.inners[node as usize];
            let mut i = 0;
            while rest > 0 && rest >= n.size[i] as usize {
                acc += n.xi[i];
                rest -= n.size[i] as usize;
                i += 1;
            }
            if rest == 0 {
                return acc;
            }
            node = n.child[i];
        }
        if rest == 0 {
            return acc;
        }
        let keys = &self.leaves[node as usize].keys[..rest];
        acc + keys.iter().map(|&k| k as u128).sum::<u128>()
    }

    /// Prefix weighted sum `γ(k) = Σ_{r<=k} r·L_r` over the first `k`
    /// ranks, with absolute ranks. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `k > len`.
    #[must_use]
    pub fn prefix_gamma(&self, k: usize) -> u128 {
        assert!(k <= self.len, "prefix length {k} out of range");
        let mut rest = k;
        let mut offset = 0u128; // ranks consumed before this node
        let mut acc = 0u128;
        let mut node = self.root;
        for _ in 0..self.height {
            let n = &self.inners[node as usize];
            let mut i = 0;
            while rest > 0 && rest >= n.size[i] as usize {
                // Whole child: positions offset+1 .. offset+size.
                acc += n.delta[i] + offset * n.xi[i];
                offset += n.size[i] as u128;
                rest -= n.size[i] as usize;
                i += 1;
            }
            if rest == 0 {
                return acc;
            }
            node = n.child[i];
        }
        if rest == 0 {
            return acc;
        }
        let keys = &self.leaves[node as usize].keys[..rest];
        let (xi, delta) = sums(keys);
        acc + delta + offset * xi
    }

    /// `ξ([a, b]) = Σ_{k=a}^{b} L_k` over ranks (Equation 28). Empty when
    /// `a > b`. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `a == 0` or `b > len`.
    #[must_use]
    pub fn xi_range(&self, a: usize, b: usize) -> u128 {
        if a > b {
            return 0;
        }
        assert!(a >= 1, "ranks are 1-based");
        self.prefix_xi(b) - self.prefix_xi(a - 1)
    }

    /// `Δ([a, b]) = Σ_{k=a}^{b} (k−a+1)·L_k` (Equation 29). Empty when
    /// `a > b`. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `a == 0` or `b > len`.
    #[must_use]
    pub fn delta_range(&self, a: usize, b: usize) -> u128 {
        if a > b {
            return 0;
        }
        assert!(a >= 1, "ranks are 1-based");
        let gamma = self.prefix_gamma(b) - self.prefix_gamma(a - 1);
        gamma - (a as u128 - 1) * self.xi_range(a, b)
    }

    /// `γ([a, b]) = Σ_{k=a}^{b} k·L_k = Δ([a,b]) + (a−1)·ξ([a,b])`
    /// (Equation 30). `O(log N)`.
    ///
    /// # Panics
    /// Panics when `b > len`.
    #[must_use]
    pub fn gamma_range(&self, a: usize, b: usize) -> u128 {
        if a > b {
            return 0;
        }
        self.prefix_gamma(b) - self.prefix_gamma(a - 1)
    }

    /// Iterate `(handle, cycles)` in rank order along the leaf links.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, u64)> + '_ {
        let mut leaf = self.root;
        for _ in 0..self.height {
            leaf = self.inners[leaf as usize].child[0];
        }
        std::iter::successors((leaf != NIL).then_some(leaf), |&l| {
            let next = self.leaves[l as usize].next;
            (next != NIL).then_some(next)
        })
        .flat_map(move |l| {
            let l = &self.leaves[l as usize];
            let n = l.len as usize;
            l.ids[..n]
                .iter()
                .zip(&l.keys[..n])
                .map(move |(&id, &k)| (self.handle(id), k))
        })
    }
}

#[cfg(test)]
mod tests;
