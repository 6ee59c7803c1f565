//! # dvfs-ostree
//!
//! An arena-allocated, order-statistic **treap with range aggregates** — the
//! realization of the "1D range tree" of Section IV-A of the ICPP 2014
//! paper. It stores task cycle counts sorted **descending**, so the 1-based
//! rank of an element equals its *backward position* `k^B` in the optimal
//! execution order (Theorem 3: tasks execute in non-decreasing cycle
//! order, so the largest task is last and has backward position 1).
//!
//! Every subtree maintains three associative aggregates (Equations 28–30,
//! merged with Equations 33–34):
//!
//! * `size` — number of elements;
//! * `xi`   — `ξ = Σ L_k`, the sum of cycles;
//! * `delta`— `Δ = Σ (k − a + 1)·L_k`, the position-weighted sum with
//!   positions counted from the subtree's own start.
//!
//! On top of the tree the crate maintains **doubly-linked threading**
//! (`prev`/`next` handles), which is what lets the dynamic cost ledger in
//! `dvfs-core` walk dominating-range boundaries in O(1) per step and reach
//! the paper's `O(|P̂| + log N)` insert/delete bound.
//!
//! **One descent per operation.** A mutation reports the [`Position`] it
//! acted at — how many elements order before the element and their `ξ` —
//! from the walk it makes anyway ([`CycleTree::insert_with_position`],
//! [`CycleTree::remove_with_position`]; an insert also learns its
//! threading neighbours on the way down), and [`CycleTree::locate`] answers
//! the same question for a key that is *not* inserted, read-only. The
//! ledger derives every range sum it needs from that one answer, so
//! neither it nor the Least Marginal Cost probe walks the tree twice.
//!
//! Handles are generational indices: using a handle after its element was
//! removed panics with a clear message instead of silently reading a
//! recycled slot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// Sentinel for "no node".
const NIL: u32 = u32::MAX;

/// A generational handle to an element in a [`CycleTree`].
///
/// Ordered by `(idx, gen)` so handles can key deterministic-iteration
/// containers (`BTreeMap`) in replay-critical code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle {
    idx: u32,
    gen: u32,
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

    /// Step past `node` and everything under its left child.
    #[inline]
    fn pass(&mut self, tree: &CycleTree, node: u32) {
        let n = &tree.nodes[node as usize];
        self.before += tree.size_of(n.left) as usize + 1;
        self.xi_before += tree.xi_of(n.left) + n.cycles as u128;
    }
}

/// What an insert's descent learns besides the new root: the position the
/// element took and its in-order neighbours (the last node the walk went
/// right from, the last it went left from).
struct Landing {
    at: Position,
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone)]
struct Node {
    /// Cycle count (primary key, descending).
    cycles: u64,
    /// Tie-break sequence number (ascending): equal cycle counts keep
    /// insertion order, making ranks deterministic.
    seq: u64,
    /// Treap heap priority.
    prio: u64,
    left: u32,
    right: u32,
    /// Linked-list threading in rank order.
    prev: u32,
    next: u32,
    /// Subtree size.
    size: u32,
    /// Subtree ξ = Σ cycles.
    xi: u128,
    /// Subtree Δ = Σ (local position)·cycles.
    delta: u128,
    /// Generation for handle validation; odd = live, even = free.
    gen: u32,
}

/// Order-statistic treap over cycle counts, sorted descending, with ξ/Δ
/// aggregates and linked-list threading. See the crate docs.
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
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    next_seq: u64,
    rng: u64,
}

impl Default for CycleTree {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleTree {
    /// An empty tree with a fixed deterministic priority seed.
    #[must_use]
    pub fn new() -> Self {
        Self::with_seed(0x9E37_79B9_7F4A_7C15)
    }

    /// An empty tree with an explicit priority seed (non-zero).
    ///
    /// # Panics
    /// Panics when `seed == 0` (xorshift's absorbing state).
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        assert_ne!(seed, 0, "xorshift seed must be non-zero");
        CycleTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            next_seq: 0,
            rng: seed,
        }
    }

    /// Number of stored elements.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].size as usize
        }
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Total ξ over all elements (`Σ L_k`).
    #[must_use]
    pub fn total_xi(&self) -> u128 {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].xi
        }
    }

    /// The cycle count stored under `h`.
    ///
    /// # Panics
    /// Panics when `h` is stale (its element was removed).
    #[must_use]
    pub fn cycles(&self, h: Handle) -> u64 {
        self.check(h);
        self.nodes[h.idx as usize].cycles
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    #[inline]
    fn check(&self, h: Handle) {
        let n = self
            .nodes
            .get(h.idx as usize)
            .unwrap_or_else(|| panic!("handle {h} out of range"));
        assert!(
            n.gen == h.gen && h.gen % 2 == 1,
            "stale handle {h}: element was removed"
        );
    }

    /// `a` orders strictly before `b` (descending cycles, ascending seq).
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        (na.cycles, nb.seq) > (nb.cycles, na.seq)
    }

    #[inline]
    fn size_of(&self, n: u32) -> u32 {
        if n == NIL {
            0
        } else {
            self.nodes[n as usize].size
        }
    }

    #[inline]
    fn xi_of(&self, n: u32) -> u128 {
        if n == NIL {
            0
        } else {
            self.nodes[n as usize].xi
        }
    }

    #[inline]
    fn delta_of(&self, n: u32) -> u128 {
        if n == NIL {
            0
        } else {
            self.nodes[n as usize].delta
        }
    }

    /// Recompute aggregates of `n` from its children (Equations 33–34).
    fn pull(&mut self, n: u32) {
        let (l, r, c) = {
            let nd = &self.nodes[n as usize];
            (nd.left, nd.right, nd.cycles)
        };
        let szl = self.size_of(l) as u128;
        let size = self.size_of(l) + 1 + self.size_of(r);
        let xi = self.xi_of(l) + c as u128 + self.xi_of(r);
        // Node position within its subtree is szl + 1; the right subtree
        // is offset by szl + 1 positions.
        let delta =
            self.delta_of(l) + (szl + 1) * c as u128 + self.delta_of(r) + (szl + 1) * self.xi_of(r);
        let nd = &mut self.nodes[n as usize];
        nd.size = size;
        nd.xi = xi;
        nd.delta = delta;
    }

    fn alloc(&mut self, cycles: u64) -> u32 {
        let prio = self.xorshift();
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(idx) = self.free.pop() {
            let gen = self.nodes[idx as usize].gen + 1; // even -> odd
            self.nodes[idx as usize] = Node {
                cycles,
                seq,
                prio,
                left: NIL,
                right: NIL,
                prev: NIL,
                next: NIL,
                size: 1,
                xi: cycles as u128,
                delta: cycles as u128,
                gen,
            };
            idx
        } else {
            self.nodes.push(Node {
                cycles,
                seq,
                prio,
                left: NIL,
                right: NIL,
                prev: NIL,
                next: NIL,
                size: 1,
                xi: cycles as u128,
                delta: cycles as u128,
                gen: 1,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Insert a cycle count; returns its handle. `O(log N)`.
    pub fn insert(&mut self, cycles: u64) -> Handle {
        self.insert_with_position(cycles).0
    }

    /// [`insert`](Self::insert), also reporting where the element landed
    /// (equal cycle counts order before it). One descent: rank, prefix `ξ`
    /// and threading neighbours all come from the insertion walk.
    pub fn insert_with_position(&mut self, cycles: u64) -> (Handle, Position) {
        let new = self.alloc(cycles);
        let mut landing = Landing {
            at: Position::default(),
            prev: NIL,
            next: NIL,
        };
        self.root = self.insert_rec(self.root, new, &mut landing);
        let Landing { at, prev, next } = landing;
        self.nodes[new as usize].prev = prev;
        self.nodes[new as usize].next = next;
        if prev != NIL {
            self.nodes[prev as usize].next = new;
        }
        if next != NIL {
            self.nodes[next as usize].prev = new;
        }
        let h = Handle {
            idx: new,
            gen: self.nodes[new as usize].gen,
        };
        (h, at)
    }

    fn insert_rec(&mut self, node: u32, new: u32, landing: &mut Landing) -> u32 {
        if node == NIL {
            return new;
        }
        if self.before(new, node) {
            landing.next = node;
            let l = self.insert_rec(self.nodes[node as usize].left, new, landing);
            self.nodes[node as usize].left = l;
            if self.nodes[l as usize].prio > self.nodes[node as usize].prio {
                let top = self.rotate_right(node);
                self.pull(top);
                return top;
            }
        } else {
            landing.prev = node;
            landing.at.pass(self, node);
            let r = self.insert_rec(self.nodes[node as usize].right, new, landing);
            self.nodes[node as usize].right = r;
            if self.nodes[r as usize].prio > self.nodes[node as usize].prio {
                let top = self.rotate_left(node);
                self.pull(top);
                return top;
            }
        }
        self.pull(node);
        node
    }

    /// Where a new element with `cycles` would land, without inserting it:
    /// behind every stored element with at least as many cycles (a new
    /// element carries the largest tie-break sequence number). Read-only,
    /// one descent, `O(log N)`.
    #[must_use]
    pub fn locate(&self, cycles: u64) -> Position {
        let mut at = Position::default();
        let mut node = self.root;
        while node != NIL {
            let n = &self.nodes[node as usize];
            if n.cycles >= cycles {
                at.pass(self, node);
                node = n.right;
            } else {
                node = n.left;
            }
        }
        at
    }

    /// Right rotation: left child becomes the subtree root.
    fn rotate_right(&mut self, n: u32) -> u32 {
        let l = self.nodes[n as usize].left;
        self.nodes[n as usize].left = self.nodes[l as usize].right;
        self.nodes[l as usize].right = n;
        self.pull(n);
        l
    }

    /// Left rotation: right child becomes the subtree root.
    fn rotate_left(&mut self, n: u32) -> u32 {
        let r = self.nodes[n as usize].right;
        self.nodes[n as usize].right = self.nodes[r as usize].left;
        self.nodes[r as usize].left = n;
        self.pull(n);
        r
    }

    /// Remove the element under `h`; returns its cycle count. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    pub fn remove(&mut self, h: Handle) -> u64 {
        self.remove_with_position(h).0
    }

    /// [`remove`](Self::remove), also reporting where the element sat:
    /// its rank and prefix `ξ` come from the walk that finds it.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    pub fn remove_with_position(&mut self, h: Handle) -> (u64, Position) {
        self.check(h);
        let target = h.idx;
        let mut at = Position::default();
        self.root = self.remove_rec(self.root, target, &mut at);
        // Unsplice from threading.
        let (prev, next) = {
            let n = &self.nodes[target as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        let cycles = self.nodes[target as usize].cycles;
        self.nodes[target as usize].gen += 1; // odd -> even: dead
        self.free.push(target);
        (cycles, at)
    }

    fn remove_rec(&mut self, node: u32, target: u32, at: &mut Position) -> u32 {
        assert_ne!(node, NIL, "target must exist in the tree");
        if node == target {
            let (l, r) = {
                let n = &self.nodes[node as usize];
                (n.left, n.right)
            };
            at.before += self.size_of(l) as usize;
            at.xi_before += self.xi_of(l);
            return self.merge(l, r);
        }
        if self.before(target, node) {
            let l = self.remove_rec(self.nodes[node as usize].left, target, at);
            self.nodes[node as usize].left = l;
        } else {
            at.pass(self, node);
            let r = self.remove_rec(self.nodes[node as usize].right, target, at);
            self.nodes[node as usize].right = r;
        }
        self.pull(node);
        node
    }

    /// Join two subtrees, every element of `l` ordering before every
    /// element of `r`: the higher-priority root stays on top (the shape
    /// rotating a doomed parent down to a leaf would leave).
    fn merge(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL {
            return r;
        }
        if r == NIL {
            return l;
        }
        if self.nodes[l as usize].prio > self.nodes[r as usize].prio {
            let m = self.merge(self.nodes[l as usize].right, r);
            self.nodes[l as usize].right = m;
            self.pull(l);
            l
        } else {
            let m = self.merge(l, self.nodes[r as usize].left);
            self.nodes[r as usize].left = m;
            self.pull(r);
            r
        }
    }

    /// 1-based rank of `h` in descending cycle order (its backward
    /// position `k^B`). `O(log N)`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    #[must_use]
    pub fn rank(&self, h: Handle) -> usize {
        self.check(h);
        let target = h.idx;
        let mut node = self.root;
        let mut acc = 0usize;
        loop {
            assert_ne!(node, NIL, "live handle must be reachable from root");
            if node == target {
                return acc + self.size_of(self.nodes[node as usize].left) as usize + 1;
            }
            if self.before(target, node) {
                node = self.nodes[node as usize].left;
            } else {
                acc += self.size_of(self.nodes[node as usize].left) as usize + 1;
                node = self.nodes[node as usize].right;
            }
        }
    }

    fn select_idx(&self, rank: usize) -> u32 {
        assert!(rank >= 1 && rank <= self.len(), "rank {rank} out of range");
        let mut node = self.root;
        let mut k = rank;
        loop {
            let szl = self.size_of(self.nodes[node as usize].left) as usize;
            if k <= szl {
                node = self.nodes[node as usize].left;
            } else if k == szl + 1 {
                return node;
            } else {
                k -= szl + 1;
                node = self.nodes[node as usize].right;
            }
        }
    }

    /// Handle of the element at 1-based `rank`. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `rank` is out of `[1, len]`.
    #[must_use]
    pub fn select(&self, rank: usize) -> Handle {
        let idx = self.select_idx(rank);
        Handle {
            idx,
            gen: self.nodes[idx as usize].gen,
        }
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

    /// Successor in rank order (next-smaller element) via threading. `O(1)`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    #[must_use]
    pub fn next(&self, h: Handle) -> Option<Handle> {
        self.check(h);
        let n = self.nodes[h.idx as usize].next;
        (n != NIL).then(|| Handle {
            idx: n,
            gen: self.nodes[n as usize].gen,
        })
    }

    /// Predecessor in rank order (next-larger element) via threading. `O(1)`.
    ///
    /// # Panics
    /// Panics when `h` is stale.
    #[must_use]
    pub fn prev(&self, h: Handle) -> Option<Handle> {
        self.check(h);
        let p = self.nodes[h.idx as usize].prev;
        (p != NIL).then(|| Handle {
            idx: p,
            gen: self.nodes[p as usize].gen,
        })
    }

    /// Prefix sum `Σ_{r<=k} L_r` over the first `k` ranks. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `k > len`.
    #[must_use]
    pub fn prefix_xi(&self, k: usize) -> u128 {
        if k == 0 {
            return 0;
        }
        assert!(k <= self.len(), "prefix length {k} out of range");
        let mut node = self.root;
        let mut remaining = k;
        let mut acc = 0u128;
        loop {
            let left = self.nodes[node as usize].left;
            let szl = self.size_of(left) as usize;
            if remaining <= szl {
                node = left;
            } else {
                acc += self.xi_of(left) + self.nodes[node as usize].cycles as u128;
                remaining -= szl + 1;
                if remaining == 0 {
                    return acc;
                }
                node = self.nodes[node as usize].right;
            }
        }
    }

    /// Prefix weighted sum `γ(k) = Σ_{r<=k} r·L_r` over the first `k`
    /// ranks, with absolute ranks. `O(log N)`.
    ///
    /// # Panics
    /// Panics when `k > len`.
    #[must_use]
    pub fn prefix_gamma(&self, k: usize) -> u128 {
        if k == 0 {
            return 0;
        }
        assert!(k <= self.len(), "prefix length {k} out of range");
        let mut node = self.root;
        let mut remaining = k;
        let mut offset = 0u128; // ranks consumed before this subtree
        let mut acc = 0u128;
        loop {
            let left = self.nodes[node as usize].left;
            let szl = self.size_of(left) as usize;
            if remaining <= szl {
                node = left;
            } else {
                // Whole left subtree: positions offset+1 .. offset+szl.
                acc += self.delta_of(left) + offset * self.xi_of(left);
                let my_pos = offset + szl as u128 + 1;
                acc += my_pos * self.nodes[node as usize].cycles as u128;
                remaining -= szl + 1;
                if remaining == 0 {
                    return acc;
                }
                offset = my_pos;
                node = self.nodes[node as usize].right;
            }
        }
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

    /// Iterate `(handle, cycles)` in rank order via the threading.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, u64)> + '_ {
        let mut cur = self.first();
        std::iter::from_fn(move || {
            let h = cur?;
            cur = self.next(h);
            Some((h, self.cycles(h)))
        })
    }

    /// Exhaustively verify every structural invariant (BST order, heap
    /// priorities, aggregate sums, threading). Intended for tests; `O(N)`.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn assert_invariants(&self) {
        fn walk(t: &CycleTree, n: u32, out: &mut Vec<u32>) -> (u32, u128, u128) {
            if n == NIL {
                return (0, 0, 0);
            }
            let node = &t.nodes[n as usize];
            if node.left != NIL {
                assert!(
                    t.before(node.left, n),
                    "BST order violated at left child of {n}"
                );
                assert!(
                    t.nodes[node.left as usize].prio <= node.prio,
                    "heap priority violated at {n}"
                );
            }
            if node.right != NIL {
                assert!(
                    t.before(n, node.right),
                    "BST order violated at right child of {n}"
                );
                assert!(
                    t.nodes[node.right as usize].prio <= node.prio,
                    "heap priority violated at {n}"
                );
            }
            let (ls, lx, _ld) = walk(t, node.left, out);
            out.push(n);
            let my_pos = ls as u128 + 1;
            let (rs, rx, rd) = walk(t, node.right, out);
            let size = ls + 1 + rs;
            let xi = lx + node.cycles as u128 + rx;
            let delta = t.delta_of(node.left) + my_pos * node.cycles as u128 + rd + my_pos * rx;
            assert_eq!(node.size, size, "size aggregate wrong at {n}");
            assert_eq!(node.xi, xi, "xi aggregate wrong at {n}");
            assert_eq!(node.delta, delta, "delta aggregate wrong at {n}");
            (size, xi, delta)
        }
        let mut order = Vec::new();
        walk(self, self.root, &mut order);
        // Threading must visit exactly the in-order sequence.
        let mut cur = if order.is_empty() { NIL } else { order[0] };
        for (i, &n) in order.iter().enumerate() {
            assert_eq!(cur, n, "threading diverges from in-order at rank {}", i + 1);
            let expected_prev = if i == 0 { NIL } else { order[i - 1] };
            assert_eq!(self.nodes[n as usize].prev, expected_prev, "prev wrong");
            cur = self.nodes[n as usize].next;
        }
        assert_eq!(cur, NIL, "threading longer than tree");
    }
}

#[cfg(test)]
mod tests;
