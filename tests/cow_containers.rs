//! Snapshot isolation of the two persistent containers, checked against
//! plain `Vec` / `HashMap` models: under any interleaving of *clone* and
//! *mutate one side*, no write to one copy is ever visible through
//! another. Every held `(container, model)` pair is re-checked in full
//! after every step, so a chunk or stripe wrongly shared after a write
//! fails at the step that corrupted it.

use matchrules_runtime::{CowMap, CowVec, CHUNK_LEN};
use proptest::collection;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;

/// One step of a run: `target` picks which held copy acts (modulo the
/// copies held), `op` what it does, `a`/`b` its operands.
type Step = (u8, u8, u32, u32);

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    collection::vec((0u8..8, 0u8..8, 0u32..1_000_000, 0u32..1_000_000), 1..max)
}

fn assert_vec_agrees(copy: &CowVec<u32>, model: &[u32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(copy.len(), model.len());
    prop_assert_eq!(copy.is_empty(), model.is_empty());
    prop_assert!(copy.iter().eq(model.iter()), "iteration diverged from the model");
    for (i, &want) in model.iter().enumerate() {
        prop_assert_eq!(copy[i], want);
        prop_assert_eq!(copy.get(i), Some(&want));
    }
    prop_assert_eq!(copy.get(model.len()), None);
    Ok(())
}

fn assert_map_agrees(
    copy: &CowMap<u32, Vec<u32>>,
    model: &HashMap<u32, Vec<u32>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(copy.len(), model.len());
    prop_assert_eq!(copy.is_empty(), model.is_empty());
    prop_assert_eq!(copy.iter().count(), model.len());
    prop_assert_eq!(copy.values().count(), model.len());
    for (key, want) in model {
        prop_assert_eq!(copy.get(key), Some(want));
        prop_assert!(copy.contains_key(key));
    }
    for (key, got) in copy.iter() {
        prop_assert_eq!(model.get(key), Some(got));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `CowVec` against `Vec`: pushes across several chunk seals,
    /// in-place writes into sealed chunks and the tail, clones taken at
    /// arbitrary points and then written to themselves.
    #[test]
    fn cow_vec_clones_never_see_each_others_writes(
        prefill in 0usize..(3 * CHUNK_LEN),
        steps in steps(160),
    ) {
        let seed: Vec<u32> = (0..prefill as u32).collect();
        let mut held: Vec<(CowVec<u32>, Vec<u32>)> =
            vec![(seed.iter().copied().collect(), seed)];
        for (target, op, a, b) in steps {
            let at = target as usize % held.len();
            match op {
                // Clone: the copy joins the held set (bounded).
                0 if held.len() < 6 => {
                    let copy = held[at].clone();
                    held.push(copy);
                }
                // In-place write, when there is an element to write.
                1 | 2 if !held[at].1.is_empty() => {
                    let (copy, model) = &mut held[at];
                    let i = a as usize % model.len();
                    *copy.get_mut(i) = b;
                    model[i] = b;
                }
                // A burst of pushes, long enough to seal chunks.
                3 => {
                    let (copy, model) = &mut held[at];
                    for k in 0..(a % 300) {
                        copy.push(b.wrapping_add(k));
                        model.push(b.wrapping_add(k));
                    }
                }
                _ => {
                    let (copy, model) = &mut held[at];
                    copy.push(b);
                    model.push(b);
                }
            }
            for (copy, model) in &held {
                assert_vec_agrees(copy, model)?;
            }
        }
    }

    /// `CowMap` against `HashMap`: every mutator (including the
    /// miss paths of `get_mut` / `remove`, which must not copy or
    /// miscount), clones taken at arbitrary points and then written to.
    #[test]
    fn cow_map_clones_never_see_each_others_writes(
        prefill in 0u32..600,
        steps in steps(200),
    ) {
        let mut first: (CowMap<u32, Vec<u32>>, HashMap<u32, Vec<u32>>) = Default::default();
        for key in 0..prefill {
            first.0.insert(key * 7, vec![key]);
            first.1.insert(key * 7, vec![key]);
        }
        let mut held = vec![first];
        for (target, op, a, b) in steps {
            let at = target as usize % held.len();
            // A small key space, so steps revisit keys and stripes.
            let key = a % 900;
            match op {
                0 if held.len() < 6 => {
                    let copy = held[at].clone();
                    held.push(copy);
                }
                1 => {
                    let (copy, model) = &mut held[at];
                    prop_assert_eq!(copy.insert(key, vec![b]), model.insert(key, vec![b]));
                }
                2 | 3 => {
                    let (copy, model) = &mut held[at];
                    copy.or_default(key).push(b);
                    model.entry(key).or_default().push(b);
                }
                4 => {
                    let (copy, model) = &mut held[at];
                    prop_assert_eq!(copy.remove(&key), model.remove(&key));
                }
                _ => {
                    let (copy, model) = &mut held[at];
                    let (got, want) = (copy.get_mut(&key), model.get_mut(&key));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        got.push(b);
                        want.push(b);
                    }
                }
            }
            for (copy, model) in &held {
                assert_map_agrees(copy, model)?;
            }
        }
        // Consuming a copy yields exactly its own entries, whether its
        // stripes were still shared (copied out) or not (moved out).
        for (copy, model) in held {
            let entries: HashMap<u32, Vec<u32>> = copy.into_entries().collect();
            prop_assert_eq!(entries, model);
        }
    }
}
