//! `SortedMap` against `BTreeMap`: the same inserts, in shuffled order,
//! give the same iteration order, the same `insert` and `get` answers,
//! the same JSON bytes and `Debug` text, and a duplicate-key JSON object
//! reads back the same way.
//!
//! Stored records switched from `BTreeMap` parameter maps to `SortedMap`
//! without changing a byte of their JSON; this test holds the two to
//! that.

use crowdtune_db::{Scalar, SortedMap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Apply `inserts` to both maps, checking every `insert` return value
/// and the two maps' agreement afterwards.
fn insert_both<V: Clone + PartialEq + Debug + serde::Serialize>(
    inserts: &[(String, V)],
) -> (SortedMap<V>, BTreeMap<String, V>) {
    let mut sorted = SortedMap::new();
    let mut tree = BTreeMap::new();
    for (k, v) in inserts {
        assert_eq!(
            sorted.insert(k.clone(), v.clone()),
            tree.insert(k.clone(), v.clone()),
            "insert of {k:?} replaced a different value"
        );
    }
    assert_agree(&sorted, &tree);
    (sorted, tree)
}

fn assert_agree<V: PartialEq + Debug + serde::Serialize>(
    sorted: &SortedMap<V>,
    tree: &BTreeMap<String, V>,
) {
    assert_eq!(sorted.len(), tree.len());
    assert_eq!(sorted.is_empty(), tree.is_empty());
    assert!(sorted.iter().eq(tree.iter()), "iteration order");
    let mut looped = Vec::new();
    for (k, v) in sorted {
        looped.push((k, v));
    }
    assert!(looped.into_iter().eq(tree), "&-IntoIterator order");
    for k in tree.keys() {
        assert_eq!(sorted.get(k), tree.get(k), "get({k:?})");
    }
    for absent in ["", "~", "m0", "zz"] {
        assert_eq!(sorted.get(absent), tree.get(absent), "get({absent:?})");
    }
    assert_eq!(
        serde_json::to_string(sorted).unwrap(),
        serde_json::to_string(tree).unwrap(),
        "JSON bytes"
    );
    assert_eq!(format!("{sorted:?}"), format!("{tree:?}"), "Debug text");
    assert_eq!(format!("{sorted:#?}"), format!("{tree:#?}"), "pretty Debug");
}

/// `n` inserts over a small key set, so some keys repeat: the later
/// insert replaces the earlier value.
fn inserts<V>(rng: &mut StdRng, n: usize, value: impl Fn(&mut StdRng) -> V) -> Vec<(String, V)> {
    let keys = [
        "m",
        "n",
        "mb",
        "nb",
        "p",
        "lg2npernode",
        "a",
        "runtime",
        "Z",
        "é",
    ];
    let mut out: Vec<(String, V)> = (0..n)
        .map(|_| (keys[rng.gen_range(0..keys.len())].to_string(), value(rng)))
        .collect();
    out.shuffle(rng);
    out
}

fn scalar(rng: &mut StdRng) -> Scalar {
    match rng.gen_range(0..3) {
        0 => Scalar::Int(rng.gen_range(-1000..1000)),
        1 => Scalar::Real(rng.gen_range(-1.0..1.0)),
        _ => Scalar::Str(format!("s{}", rng.gen_range(0..5))),
    }
}

#[test]
fn shuffled_inserts_agree_with_btreemap() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in 0..=16 {
        for _ in 0..8 {
            let (sorted, tree) = insert_both(&inserts(&mut rng, n, scalar));
            // Equality and clones follow the entries.
            assert_eq!(sorted.clone(), sorted);
            let (other, other_tree) = insert_both(&inserts(&mut rng, n, scalar));
            assert_eq!(sorted == other, tree == other_tree);
            insert_both(&inserts(&mut rng, n, |r| r.gen_range(0.0..10.0)));
        }
    }
    assert_agree(&SortedMap::<Scalar>::default(), &BTreeMap::new());
}

#[test]
fn same_entries_in_any_insert_order_are_equal() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut entries: Vec<(String, Scalar)> =
        (0..9).map(|i| (format!("k{i}"), Scalar::Int(i))).collect();
    let (first, _) = insert_both(&entries);
    for _ in 0..16 {
        entries.shuffle(&mut rng);
        let (again, _) = insert_both(&entries);
        assert_eq!(again, first);
    }
}

#[test]
fn json_round_trip_matches_btreemap_including_duplicate_keys() {
    let inputs = [
        r#"{}"#,
        r#"{"n": 2, "m": 1}"#,
        r#"{"mb": 4, "b": "x", "mb": 8, "a": 0.5, "mb": 16}"#,
        r#"{"z": 1, "z": 2.5, "a": "first", "a": "last"}"#,
    ];
    for json in inputs {
        let sorted: SortedMap<Scalar> = serde_json::from_str(json).unwrap();
        let tree: BTreeMap<String, Scalar> = serde_json::from_str(json).unwrap();
        assert_agree(&sorted, &tree);
        let back: SortedMap<Scalar> =
            serde_json::from_str(&serde_json::to_string(&sorted).unwrap()).unwrap();
        assert_eq!(back, sorted, "{json}");
    }
    let outputs: SortedMap<f64> =
        serde_json::from_str(r#"{"runtime": 3, "runtime": 3.65}"#).unwrap();
    assert_eq!(outputs.get("runtime"), Some(&3.65));
    assert_eq!(outputs.len(), 1);
    for bad in ["[]", "1", r#"{"m": [1]}"#] {
        let sorted = serde_json::from_str::<SortedMap<f64>>(bad).map_err(|e| e.to_string());
        let tree = serde_json::from_str::<BTreeMap<String, f64>>(bad).map_err(|e| e.to_string());
        assert_eq!(sorted.unwrap_err(), tree.unwrap_err(), "{bad}");
    }
}
