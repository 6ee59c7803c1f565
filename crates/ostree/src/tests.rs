use super::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Naive reference model: a Vec kept sorted descending (stable by
/// insertion order for ties).
#[derive(Default)]
struct NaiveModel {
    // (cycles, seq)
    items: Vec<(u64, u64)>,
    next_seq: u64,
}

impl NaiveModel {
    fn insert(&mut self, cycles: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self
            .items
            .iter()
            .position(|&(c, s)| (c, seq) < (cycles, s))
            .unwrap_or(self.items.len());
        self.items.insert(pos, (cycles, seq));
        seq
    }

    fn remove_seq(&mut self, seq: u64) -> u64 {
        let pos = self.items.iter().position(|&(_, s)| s == seq).unwrap();
        self.items.remove(pos).0
    }

    fn rank_of_seq(&self, seq: u64) -> usize {
        self.items.iter().position(|&(_, s)| s == seq).unwrap() + 1
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
    let mut tree = CycleTree::new();
    let mut model = NaiveModel::default();
    // seq -> handle
    let mut handles: Vec<(u64, Handle)> = Vec::new();

    for step in 0..3000 {
        if handles.is_empty() || rng.gen_bool(0.6) {
            let c = rng.gen_range(1..10_000u64);
            let h = checked_insert(&mut tree, c);
            let seq = model.insert(c);
            handles.push((seq, h));
        } else {
            let i = rng.gen_range(0..handles.len());
            let (seq, h) = handles.swap_remove(i);
            assert_eq!(checked_remove(&mut tree, h), model.remove_seq(seq));
        }
        assert_eq!(tree.len(), model.items.len());
        if step % 250 == 0 {
            tree.assert_invariants();
            for &(seq, h) in &handles {
                assert_eq!(tree.rank(h), model.rank_of_seq(seq));
            }
            let n = tree.len();
            if n > 0 {
                let a = rng.gen_range(1..=n);
                let b = rng.gen_range(a..=n);
                assert_eq!(tree.xi_range(a, b), model.xi_range(a, b));
                assert_eq!(tree.delta_range(a, b), model.delta_range(a, b));
            }
        }
    }
    tree.assert_invariants();
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
