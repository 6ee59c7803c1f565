use super::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

impl Inner {
    fn entry(&self, i: usize) -> Entry {
        Entry {
            first: self.first[i],
            size: self.size[i],
            child: self.child[i],
            xi: self.xi[i],
            delta: self.delta[i],
        }
    }
}

/// The tree's structural checks, which only tests run.
impl CycleTree {
    /// Exhaustively verify every structural invariant: keys descending
    /// across leaves; each child's first key, size, `ξ` and `Δ`; parent,
    /// sibling and element→leaf links; every non-root node at least half
    /// full. `O(N)`.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub(super) fn assert_invariants(&self) {
        let mut leaves = Vec::new();
        if self.root == NIL {
            assert_eq!(self.len, 0, "elements without a root");
        } else {
            assert_eq!(self.parent_of(self.root, self.height), NIL, "root parent");
            let e = self.check_node(self.root, self.height, true, &mut leaves);
            assert_eq!(e.size as usize, self.len, "len");
            assert_eq!(e.xi, self.xi, "total xi");
        }
        for (k, &l) in leaves.iter().enumerate() {
            let leaf = &self.leaves[l as usize];
            let prev = if k == 0 { NIL } else { leaves[k - 1] };
            assert_eq!(leaf.prev, prev, "prev link of leaf {l}");
            assert_eq!(
                leaf.next,
                *leaves.get(k + 1).unwrap_or(&NIL),
                "next link of leaf {l}"
            );
        }
        let keys: Vec<u64> = self.iter().map(|(_, c)| c).collect();
        assert_eq!(keys.len(), self.len, "leaf chain length");
        assert!(keys.windows(2).all(|w| w[0] >= w[1]), "keys not descending");
        let live = self.elems.iter().filter(|e| e.gen % 2 == 1).count();
        assert_eq!(live, self.len, "live elements in the slab");
    }

    /// Check the subtree under `node` at `level` and return its entry;
    /// leaves are appended to `leaves` in rank order.
    fn check_node(&self, node: u32, level: usize, root: bool, leaves: &mut Vec<u32>) -> Entry {
        let n = self.fill(node, level);
        if level == 0 {
            assert!(
                root || n >= LEAF_CAP / 2,
                "leaf {node} below half full: {n}"
            );
            let l = &self.leaves[node as usize];
            for (&id, &k) in l.ids[..n].iter().zip(&l.keys[..n]) {
                let e = &self.elems[id as usize];
                assert!(e.gen % 2 == 1, "dead element {id} in leaf {node}");
                assert_eq!(e.leaf, node, "element {id} names the wrong leaf");
                assert_eq!(e.cycles, k, "element {id} key");
            }
            leaves.push(node);
        } else {
            let min = if root { 2 } else { INNER_CAP / 2 };
            assert!(n >= min, "inner node {node} below half full: {n}");
            let p = &self.inners[node as usize];
            for i in 0..n {
                let child = p.child[i];
                assert_eq!(
                    self.parent_of(child, level - 1),
                    node,
                    "parent link of {child}"
                );
                let e = self.check_node(child, level - 1, false, leaves);
                assert_eq!(p.entry(i), e, "entry {i} of inner node {node}");
            }
        }
        self.entry_of(node, level)
    }

    /// Total ξ over all elements (`Σ L_k`).
    fn total_xi(&self) -> u128 {
        self.xi
    }
}

/// Naive reference model: a Vec kept sorted descending (stable by
/// insertion order for ties), searched by binary search.
#[derive(Default)]
struct NaiveModel {
    // (cycles, seq)
    items: Vec<(u64, u64)>,
    // cycles by seq
    cycles_of: Vec<u64>,
}

impl NaiveModel {
    /// Index of `(cycles, seq)`: how many items order strictly before it.
    fn slot(&self, cycles: u64, seq: u64) -> usize {
        self.items.partition_point(|&(c, s)| (c, seq) > (cycles, s))
    }

    fn insert(&mut self, cycles: u64) -> u64 {
        let seq = self.cycles_of.len() as u64;
        self.cycles_of.push(cycles);
        let pos = self.slot(cycles, seq);
        self.items.insert(pos, (cycles, seq));
        seq
    }

    fn remove_seq(&mut self, seq: u64) -> u64 {
        let pos = self.rank_of_seq(seq) - 1;
        self.items.remove(pos).0
    }

    fn rank_of_seq(&self, seq: u64) -> usize {
        let pos = self.slot(self.cycles_of[seq as usize], seq);
        assert_eq!(self.items[pos].1, seq, "seq {seq} is live");
        pos + 1
    }

    fn xi_range(&self, a: usize, b: usize) -> u128 {
        if a > b {
            return 0;
        }
        self.items[a - 1..b].iter().map(|&(c, _)| c as u128).sum()
    }

    fn delta_range(&self, a: usize, b: usize) -> u128 {
        if a > b {
            return 0;
        }
        self.items[a - 1..b]
            .iter()
            .enumerate()
            .map(|(i, &(c, _))| (i as u128 + 1) * c as u128)
            .sum()
    }
}

/// Insert through the one-descent path and hold what it reports — and
/// what `locate` predicted for the same key — to the independent reads.
fn checked_insert(tree: &mut CycleTree, cycles: u64) -> Handle {
    let predicted = tree.locate(cycles);
    let (h, at) = tree.insert_with_position(cycles);
    assert_eq!(at, predicted, "locate must predict the landing position");
    assert_eq!(at.rank(), tree.rank(h));
    assert_eq!(at.xi_before, tree.prefix_xi(at.before));
    h
}

/// Remove through the one-descent path; the position it reports is the
/// rank and prefix the element had just before.
fn checked_remove(tree: &mut CycleTree, h: Handle) -> u64 {
    let before = tree.rank(h) - 1;
    let expected = Position {
        before,
        xi_before: tree.prefix_xi(before),
    };
    let (cycles, at) = tree.remove_with_position(h);
    assert_eq!(at, expected);
    cycles
}

/// The tree and the model side by side, with every live element's seq
/// and handle; each operation is checked position for position.
#[derive(Default)]
struct Pair {
    tree: CycleTree,
    model: NaiveModel,
    live: Vec<(u64, Handle)>,
    handle_of: Vec<Handle>,
}

impl Pair {
    fn insert(&mut self, cycles: u64) -> Handle {
        let h = checked_insert(&mut self.tree, cycles);
        let seq = self.model.insert(cycles);
        let rank = self.model.rank_of_seq(seq);
        assert_eq!(self.tree.rank(h), rank, "rank of a new {cycles}");
        self.handle_of.push(h);
        self.live.push((seq, h));
        let neighbour = |r: usize| self.model.items.get(r.wrapping_sub(1));
        let handle = |&(_, s): &(u64, u64)| self.handle_of[s as usize];
        assert_eq!(self.tree.prev(h), neighbour(rank - 1).map(handle), "prev");
        assert_eq!(self.tree.next(h), neighbour(rank + 1).map(handle), "next");
        h
    }

    fn remove_at(&mut self, i: usize) {
        let (seq, h) = self.live.swap_remove(i);
        assert_eq!(self.tree.rank(h), self.model.rank_of_seq(seq));
        assert_eq!(
            checked_remove(&mut self.tree, h),
            self.model.remove_seq(seq)
        );
    }

    /// Invariants, a spread of live ranks, and a few random ranges.
    fn check(&self, rng: &mut ChaCha8Rng) {
        self.tree.assert_invariants();
        assert_eq!(self.tree.len(), self.model.items.len());
        for &(seq, h) in self.live.iter().step_by(1 + self.live.len() / 2_000) {
            assert_eq!(self.tree.rank(h), self.model.rank_of_seq(seq));
        }
        let n = self.tree.len();
        for _ in 0..8.min(n) {
            let a = rng.gen_range(1..=n);
            let b = rng.gen_range(a..=n.min(a + 5_000));
            assert_eq!(self.tree.xi_range(a, b), self.model.xi_range(a, b));
            assert_eq!(self.tree.delta_range(a, b), self.model.delta_range(a, b));
        }
    }
}

#[test]
fn empty_tree_basics() {
    let t = CycleTree::new();
    assert!(t.is_empty());
    assert_eq!(t.len(), 0);
    assert_eq!(t.total_xi(), 0);
    assert_eq!(t.first(), None);
    assert_eq!(t.last(), None);
    assert_eq!(t.prefix_xi(0), 0);
    assert_eq!(t.locate(7), Position::default());
    t.assert_invariants();
}

#[test]
fn handle_slots_are_dense_and_reused() {
    let mut t = CycleTree::new();
    let hs: Vec<Handle> = (1..=100).map(|c| t.insert(c * 7 % 31)).collect();
    let mut slots: Vec<usize> = hs.iter().map(|h| h.slot()).collect();
    slots.sort_unstable();
    assert_eq!(slots, (0..100).collect::<Vec<_>>());
    // A removed element's slot goes to the next insert; the slab does
    // not grow past the most elements held at once.
    let freed = hs[40].slot();
    t.remove(hs[40]);
    let h = t.insert(5);
    assert_eq!(h.slot(), freed);
    assert_ne!(h, hs[40], "the generation tells the two apart");
    assert_eq!(t.insert(6).slot(), 100);
}

#[test]
fn single_element() {
    let mut t = CycleTree::new();
    let h = t.insert(42);
    assert_eq!(t.len(), 1);
    assert_eq!(t.cycles(h), 42);
    assert_eq!(t.rank(h), 1);
    assert_eq!(t.select(1), h);
    assert_eq!(t.first(), Some(h));
    assert_eq!(t.last(), Some(h));
    assert_eq!(t.next(h), None);
    assert_eq!(t.prev(h), None);
    assert_eq!(t.xi_range(1, 1), 42);
    assert_eq!(t.delta_range(1, 1), 42);
    t.assert_invariants();
    assert_eq!(t.remove(h), 42);
    assert!(t.is_empty());
    t.assert_invariants();
}

#[test]
fn descending_rank_order() {
    let mut t = CycleTree::new();
    let h10 = t.insert(10);
    let h30 = t.insert(30);
    let h20 = t.insert(20);
    assert_eq!(t.rank(h30), 1);
    assert_eq!(t.rank(h20), 2);
    assert_eq!(t.rank(h10), 3);
    let order: Vec<u64> = t.iter().map(|(_, c)| c).collect();
    assert_eq!(order, vec![30, 20, 10]);
    t.assert_invariants();
}

#[test]
fn ties_keep_insertion_order() {
    let mut t = CycleTree::new();
    let a = t.insert(7);
    let b = t.insert(7);
    let c = t.insert(7);
    assert_eq!(t.rank(a), 1);
    assert_eq!(t.rank(b), 2);
    assert_eq!(t.rank(c), 3);
    t.assert_invariants();
    // A fourth 7 would land behind all three; an 8 ahead of them.
    assert_eq!(
        t.locate(7),
        Position {
            before: 3,
            xi_before: 21
        }
    );
    assert_eq!(t.locate(8), Position::default());
    // Removing the middle preserves the outer ranks.
    t.remove(b);
    assert_eq!(t.rank(a), 1);
    assert_eq!(t.rank(c), 2);
    t.assert_invariants();
}

#[test]
#[should_panic(expected = "stale handle")]
fn stale_handle_panics() {
    let mut t = CycleTree::new();
    let h = t.insert(5);
    t.remove(h);
    let _ = t.cycles(h);
}

#[test]
#[should_panic(expected = "stale handle")]
fn recycled_slot_detected() {
    let mut t = CycleTree::new();
    let h = t.insert(5);
    t.remove(h);
    let _h2 = t.insert(6); // reuses the arena slot
    let _ = t.cycles(h); // old handle must still be rejected
}

#[test]
fn xi_and_delta_match_equations() {
    // Known layout: cycles [50, 40, 30, 20, 10] at ranks 1..5.
    let mut t = CycleTree::new();
    for c in [10u64, 30, 50, 20, 40] {
        t.insert(c);
    }
    assert_eq!(t.xi_range(1, 5), 150);
    assert_eq!(t.xi_range(2, 4), 90);
    // Δ([2,4]) = 1*40 + 2*30 + 3*20 = 160.
    assert_eq!(t.delta_range(2, 4), 160);
    // γ([2,4]) = Δ + (a-1)ξ = 160 + 1*90 = 250 (Equation 30).
    assert_eq!(t.gamma_range(2, 4), 250);
    // γ([1,5]) = 1*50+2*40+3*30+4*20+5*10 = 350.
    assert_eq!(t.gamma_range(1, 5), 350);
    assert_eq!(t.delta_range(3, 2), 0);
}

#[test]
fn threading_walks_full_order() {
    let mut t = CycleTree::new();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..200 {
        t.insert(rng.gen_range(1..1000));
    }
    let via_iter: Vec<u64> = t.iter().map(|(_, c)| c).collect();
    let via_select: Vec<u64> = (1..=t.len()).map(|r| t.cycles(t.select(r))).collect();
    assert_eq!(via_iter, via_select);
    assert!(via_iter.windows(2).all(|w| w[0] >= w[1]));
    // Walk backwards too.
    let mut cur = t.last();
    let mut back = Vec::new();
    while let Some(h) = cur {
        back.push(t.cycles(h));
        cur = t.prev(h);
    }
    back.reverse();
    assert_eq!(back, via_iter);
}

#[test]
fn randomized_against_naive_model() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut pair = Pair::default();
    for step in 0..3000 {
        if pair.live.is_empty() || rng.gen_bool(0.6) {
            pair.insert(rng.gen_range(1..10_000u64));
        } else {
            let i = rng.gen_range(0..pair.live.len());
            pair.remove_at(i);
        }
        if step % 250 == 0 {
            pair.check(&mut rng);
        }
    }
    pair.check(&mut rng);
}

#[test]
fn large_values_do_not_overflow() {
    // n tasks of near-u64-max cycles: ξ and Δ must stay exact in u128.
    let mut t = CycleTree::new();
    let big = u64::MAX - 1;
    for _ in 0..1000 {
        t.insert(big);
    }
    let expect_xi = 1000u128 * big as u128;
    assert_eq!(t.total_xi(), expect_xi);
    let expect_delta: u128 = (1..=1000u128).map(|k| k * big as u128).sum();
    assert_eq!(t.delta_range(1, 1000), expect_delta);
}

#[test]
fn deterministic_across_identical_runs() {
    let build = || {
        let mut t = CycleTree::new();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let hs: Vec<Handle> = (0..100).map(|_| t.insert(rng.gen_range(1..50))).collect();
        let ranks: Vec<usize> = hs.iter().map(|&h| t.rank(h)).collect();
        ranks
    };
    assert_eq!(build(), build());
}

#[test]
fn grows_past_height_two_and_drains_in_random_order() {
    // 64 × 32 × 32 = 65 536 elements fill two inner levels: 70 000
    // need a third, and draining them back to empty has to merge.
    let mut rng = ChaCha8Rng::seed_from_u64(35);
    let mut pair = Pair::default();
    for step in 0..70_000 {
        pair.insert(rng.gen_range(1..1_000_000));
        if step % 5_000 == 0 {
            pair.check(&mut rng);
        }
    }
    assert_eq!(pair.tree.height, 3);
    pair.check(&mut rng);
    let mut step = 0;
    while !pair.live.is_empty() {
        let i = rng.gen_range(0..pair.live.len());
        pair.remove_at(i);
        step += 1;
        if step % 5_000 == 0 {
            pair.check(&mut rng);
        }
    }
    assert_eq!(pair.tree.height, 0);
    pair.check(&mut rng);
}

#[test]
fn equal_cycles_runs_longer_than_a_leaf_are_passed_whole() {
    let mut rng = ChaCha8Rng::seed_from_u64(777);
    let mut pair = Pair::default();
    // 300 × 777 between larger and smaller neighbours, interleaved so
    // the run is cut across several leaves and inner entries.
    for i in 0..300 {
        pair.insert(777);
        pair.insert(if i % 2 == 0 { 778 + i } else { 776 - i % 700 });
    }
    let run: Vec<Handle> = pair
        .tree
        .iter()
        .filter(|&(_, c)| c == 777)
        .map(|(h, _)| h)
        .collect();
    let leaves: std::collections::BTreeSet<u32> = run
        .iter()
        .map(|h| pair.tree.elems[h.idx as usize].leaf)
        .collect();
    assert!(leaves.len() >= 5, "the run spans {} leaves", leaves.len());
    let run_end = pair.tree.rank(*run.last().unwrap());
    assert_eq!(
        pair.tree.locate(777),
        Position {
            before: run_end,
            xi_before: pair.tree.prefix_xi(run_end),
        }
    );
    // Each newcomer lands behind the whole run; removals from inside
    // it report where they sat.
    for k in 1..=50 {
        let h = pair.insert(777);
        assert_eq!(pair.tree.rank(h), run_end + k);
    }
    for _ in 0..200 {
        let i = rng.gen_range(0..pair.live.len());
        pair.remove_at(i);
        pair.insert(777);
    }
    pair.check(&mut rng);
}

#[test]
fn a_fresh_tree_allocates_nothing() {
    for t in [CycleTree::new(), CycleTree::with_seed(7)] {
        assert_eq!(
            t.elems.capacity() + t.free.capacity() + t.leaves.capacity(),
            0
        );
        assert_eq!(
            t.free_leaves.capacity() + t.inners.capacity() + t.free_inners.capacity(),
            0
        );
    }
}

#[test]
#[should_panic(expected = "seed must be non-zero")]
fn a_zero_seed_panics() {
    let _ = CycleTree::with_seed(0);
}

/// 10⁶ seeded inserts and removes against the model, in waves that grow
/// the tree to 10⁵ elements and shrink it again, with most keys folded
/// onto seven values so equal-cycles runs span many leaves.
#[test]
#[ignore = "10^6 operations: run in release with `-- --ignored`"]
fn a_million_mixed_operations_match_the_model() {
    let mut rng = ChaCha8Rng::seed_from_u64(2014);
    let mut pair = Pair::default();
    let mut growing = true;
    for step in 0..1_000_000 {
        let n = pair.live.len();
        if n >= 100_000 {
            growing = false;
        } else if n == 0 {
            growing = true;
        }
        if n == 0 || rng.gen_bool(if growing { 0.8 } else { 0.2 }) {
            let v = rng.gen_range(1..1_000_000_000u64);
            pair.insert(if v % 3 == 0 { v } else { v % 7 + 1 });
        } else {
            let i = rng.gen_range(0..n);
            pair.remove_at(i);
        }
        if step % 50_000 == 0 {
            pair.check(&mut rng);
        }
    }
    pair.check(&mut rng);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_tree_matches_model(ops in prop::collection::vec((0u8..2, 1u64..1_000_000), 1..200)) {
        let mut tree = CycleTree::new();
        let mut model = NaiveModel::default();
        let mut handles: Vec<(u64, Handle)> = Vec::new();
        for (op, val) in ops {
            if op == 0 || handles.is_empty() {
                // Fold most keys onto a few values: long equal-cycles runs.
                let c = if val % 3 == 0 { val } else { val % 5 + 1 };
                let h = checked_insert(&mut tree, c);
                let seq = model.insert(c);
                handles.push((seq, h));
            } else {
                let i = (val as usize) % handles.len();
                let (seq, h) = handles.swap_remove(i);
                prop_assert_eq!(checked_remove(&mut tree, h), model.remove_seq(seq));
            }
        }
        tree.assert_invariants();
        prop_assert_eq!(tree.len(), model.items.len());
        let expected: Vec<u64> = model.items.iter().map(|&(c, _)| c).collect();
        let actual: Vec<u64> = tree.iter().map(|(_, c)| c).collect();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn prop_range_queries_match_model(
        cycles in prop::collection::vec(1u64..1_000_000, 1..100),
        splits in prop::collection::vec((0usize..100, 0usize..100), 1..20),
    ) {
        let mut tree = CycleTree::new();
        let mut model = NaiveModel::default();
        for c in &cycles {
            tree.insert(*c);
            model.insert(*c);
        }
        let n = tree.len();
        for (ra, rb) in splits {
            let a = ra % n + 1;
            let b = rb % n + 1;
            prop_assert_eq!(tree.xi_range(a, b), model.xi_range(a, b));
            prop_assert_eq!(tree.delta_range(a, b), model.delta_range(a, b));
            prop_assert_eq!(
                tree.gamma_range(a, b),
                tree.delta_range(a, b) + (a as u128).saturating_sub(1) * tree.xi_range(a, b)
            );
        }
    }

    #[test]
    fn prop_rank_select_inverse(cycles in prop::collection::vec(1u64..1000, 1..80)) {
        let mut tree = CycleTree::new();
        for c in cycles {
            tree.insert(c);
        }
        for r in 1..=tree.len() {
            prop_assert_eq!(tree.rank(tree.select(r)), r);
        }
    }
}
