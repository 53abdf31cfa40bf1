//! Cross-structure agreement: the skip hash and every baseline, driven with
//! the same deterministic operation sequence, must end up with identical
//! contents and answer identical range queries.  This is the integration-level
//! check that the benchmark comparisons in Figures 5 and 6 are comparing maps
//! that implement the same abstract data type.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skiphash_bench::{BenchMap, MapKind};

fn drive(map: &Arc<dyn BenchMap>, seed: u64, operations: usize) -> Vec<(u64, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..operations {
        let key = rng.gen_range(0..2_000u64);
        match rng.gen_range(0..3) {
            0 => {
                map.insert(key, key * 3);
            }
            1 => {
                map.remove(key);
            }
            _ => {
                map.get(key);
            }
        }
    }
    let mut buffer = Vec::new();
    let everything = (
        std::ops::Bound::Included(0),
        std::ops::Bound::Included(u64::MAX - 1),
    );
    match map.range(everything, &mut buffer) {
        Some(_) => buffer,
        None => Vec::new(),
    }
}

#[test]
fn all_maps_agree_after_identical_histories() {
    const SEED: u64 = 0xD15EA5E;
    const OPERATIONS: usize = 4_000;

    // The skip hash (two-path) is the reference.
    let reference_map = MapKind::SkipHashTwoPath.build(2_000);
    let reference = drive(&reference_map, SEED, OPERATIONS);
    assert!(!reference.is_empty());

    for kind in MapKind::all() {
        let map = kind.build(2_000);
        let contents = drive(&map, SEED, OPERATIONS);
        // Population must match for every map; full contents must match for
        // the range-capable ones (the STM-only maps cannot be snapshotted).
        assert_eq!(
            map.population(),
            reference_map.population(),
            "population mismatch for {kind}"
        );
        if map.supports_range() {
            assert_eq!(contents, reference, "contents mismatch for {kind}");
        }
    }
}

#[test]
fn range_results_agree_between_skiphash_policies_and_baselines() {
    const SEED: u64 = 77;
    let kinds = MapKind::range_capable();
    let maps: Vec<Arc<dyn BenchMap>> = kinds.iter().map(|k| k.build(4_000)).collect();

    // Apply the same mixed history everywhere.
    let mut rng = SmallRng::seed_from_u64(SEED);
    for _ in 0..3_000 {
        let key = rng.gen_range(0..4_000u64);
        let insert = rng.gen::<bool>();
        for map in &maps {
            if insert {
                map.insert(key, key + 1);
            } else {
                map.remove(key);
            }
        }
    }

    // Same range queries, same answers.
    let mut query_rng = SmallRng::seed_from_u64(SEED + 1);
    for _ in 0..50 {
        let low = query_rng.gen_range(0..4_000u64);
        let high = low + query_rng.gen_range(0..512u64);
        let mut expected: Option<Vec<(u64, u64)>> = None;
        for (kind, map) in kinds.iter().zip(&maps) {
            let mut buffer = Vec::new();
            let bounds = (
                std::ops::Bound::Included(low),
                std::ops::Bound::Included(high),
            );
            map.range(bounds, &mut buffer).expect("range-capable");
            match &expected {
                None => expected = Some(buffer),
                Some(reference) => {
                    assert_eq!(
                        &buffer, reference,
                        "range [{low},{high}] differs for {kind}"
                    )
                }
            }
        }
    }
}
