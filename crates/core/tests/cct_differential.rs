//! Differential test: the arena-backed [`txsampler::Cct`] and the old
//! HashMap-per-node reference implementation (`support::HashCct`) must be
//! observationally identical on randomized key sequences — same node
//! counts, same path resolution, same metrics after merge, same preorder
//! node set. Node *ids* may differ
//! between the two (both assign in creation order, which the random driver
//! makes identical here, but the comparison deliberately goes through
//! canonical path strings rather than raw ids).

mod support;

use support::HashCct;
use txsampler::cct::{Cct, NodeKey, ROOT};
use txsim_pmu::{FuncId, Ip};

/// SplitMix64 (same generator the workspace uses elsewhere for
/// deterministic, dependency-free randomness).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Draw a key from a deliberately small pool so paths collide often —
/// collisions are where arena-vs-hashmap divergence would show up.
fn random_key(rng: &mut SplitMix64) -> NodeKey {
    let func = FuncId(rng.below(8) as u32);
    let line = rng.below(6) as u32;
    let speculative = rng.below(4) == 0;
    if rng.below(3) == 0 {
        NodeKey::Stmt {
            ip: Ip::new(func, line),
            speculative,
        }
    } else {
        NodeKey::Frame {
            func,
            callsite: Ip::new(FuncId(rng.below(8) as u32), line),
            speculative,
        }
    }
}

fn random_path(rng: &mut SplitMix64) -> Vec<NodeKey> {
    let depth = 1 + rng.below(7) as usize;
    (0..depth).map(|_| random_key(rng)).collect()
}

/// Canonical form of a tree: one sorted line per node, "path-of-keys =>
/// metrics". Ids never appear, so the comparison is layout-independent.
fn canon_arena(cct: &Cct) -> Vec<String> {
    let mut lines: Vec<String> = cct
        .preorder()
        .into_iter()
        .map(|id| format!("{:?} => {:?}", cct.path_to(id), cct.metrics(id)))
        .collect();
    lines.sort();
    lines
}

fn canon_ref(cct: &HashCct) -> Vec<String> {
    let mut lines: Vec<String> = cct
        .preorder()
        .into_iter()
        .map(|id| format!("{:?} => {:?}", cct.path_to(id), cct.metrics(id)))
        .collect();
    lines.sort();
    lines
}

fn assert_equivalent(arena: &Cct, reference: &HashCct, seed: u64) {
    assert_eq!(arena.len(), reference.len(), "node count, seed {seed}");
    assert_eq!(
        arena.totals(),
        reference.totals(),
        "metric totals, seed {seed}"
    );
    assert_eq!(
        canon_arena(arena),
        canon_ref(reference),
        "canonical node set, seed {seed}"
    );
    let pre_a = arena.preorder();
    let pre_r = reference.preorder();
    assert_eq!(pre_a.len(), pre_r.len(), "preorder length, seed {seed}");
    assert_eq!(pre_a[0], ROOT);
}

#[test]
fn randomized_path_sequences_build_identical_trees() {
    for seed in 0..20u64 {
        let mut rng = SplitMix64(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
        let mut arena = Cct::new();
        let mut reference = HashCct::new();
        for round in 0..400 {
            let path = random_path(&mut rng);
            let a = arena.path(path.iter().copied());
            let r = reference.path(path.iter().copied());
            // Both must resolve the same root-to-node key path.
            assert_eq!(
                arena.path_to(a),
                reference.path_to(r),
                "path resolution diverged, seed {seed} round {round}"
            );
            // Attribute a metric so merges have payload to disagree on.
            arena.metrics_mut(a).w += 1 + round % 3;
            reference.metrics_mut(r).w += 1 + round % 3;
            if round % 5 == 0 {
                arena.metrics_mut(a).abort_weight += round;
                reference.metrics_mut(r).abort_weight += round;
            }
        }
        assert_equivalent(&arena, &reference, seed);
    }
}

#[test]
fn randomized_merges_agree() {
    for seed in 100..110u64 {
        let mut rng = SplitMix64(seed);
        // Build two tree pairs from independent sequences, then merge the
        // second pair into the first and compare.
        let mut arena = Cct::new();
        let mut reference = HashCct::new();
        let mut arena_b = Cct::new();
        let mut reference_b = HashCct::new();
        for _ in 0..200 {
            let path = random_path(&mut rng);
            let a = arena.path(path.iter().copied());
            arena.metrics_mut(a).w += 1;
            let r = reference.path(path.iter().copied());
            reference.metrics_mut(r).w += 1;

            let path = random_path(&mut rng);
            let a = arena_b.path(path.iter().copied());
            arena_b.metrics_mut(a).t += 2;
            let r = reference_b.path(path.iter().copied());
            reference_b.metrics_mut(r).t += 2;
        }
        arena.merge(&arena_b);
        reference.merge(&reference_b);
        assert_equivalent(&arena, &reference, seed);

        // Merging into an empty tree clones; both agree on that too.
        let mut arena_clone = Cct::new();
        arena_clone.merge(&arena);
        let mut reference_clone = HashCct::new();
        reference_clone.merge(&reference);
        assert_equivalent(&arena_clone, &reference_clone, seed);
    }
}

#[test]
fn child_lookup_agrees_under_repeats() {
    // Hammer a small key pool with many repeated child() calls: the arena's
    // open-addressed index must behave exactly like the HashMap (idempotent
    // lookups, no phantom nodes) through several index growths.
    let mut rng = SplitMix64(42);
    let mut arena = Cct::new();
    let mut reference = HashCct::new();
    let mut frontier_a = vec![ROOT];
    let mut frontier_r = vec![ROOT];
    for _ in 0..5000 {
        let pick = rng.below(frontier_a.len() as u64) as usize;
        let key = random_key(&mut rng);
        let a = arena.child(frontier_a[pick], key);
        let r = reference.child(frontier_r[pick], key);
        assert_eq!(arena.path_to(a), reference.path_to(r));
        frontier_a.push(a);
        frontier_r.push(r);
        arena.metrics_mut(a).w += 1;
        reference.metrics_mut(r).w += 1;
    }
    assert_eq!(arena.len(), reference.len());
    // A root-to-node key path is a node's identity: canonical lines must be
    // pairwise distinct in both trees and identical across them.
    let canon = canon_arena(&arena);
    let mut deduped = canon.clone();
    deduped.dedup();
    assert_eq!(deduped.len(), arena.len(), "duplicate paths in the arena");
    assert_eq!(canon, canon_ref(&reference));
}
