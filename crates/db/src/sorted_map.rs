//! A small string-keyed map stored as one vector sorted by key.
//!
//! A stored record holds three of these (task parameters, tuning
//! parameters, outputs) with one to a few entries each. A `BTreeMap`
//! would give each of them a B-tree leaf sized for eleven entries; this
//! map gives each exactly as many slots as it has entries, so a record
//! is smaller to keep and cheaper to clone. Lookups scan the vector in
//! key order, as a B-tree node does; iteration is in key order, as a
//! `BTreeMap`'s is, and the map serializes to the same JSON object.

use serde::{DeError, Deserialize, Serialize, Value};

/// A `String`-keyed map kept as a key-sorted vector with no spare
/// capacity. Iteration, equality, `Debug` text and JSON are those of a
/// `BTreeMap<String, V>` holding the same entries.
#[derive(Clone, PartialEq)]
pub struct SortedMap<V> {
    entries: Vec<(String, V)>,
}

/// Empty, for any `V` (a derived `Default` would require `V: Default`,
/// which `Scalar` is not).
impl<V> Default for SortedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over a [`SortedMap`]'s entries in key order.
pub type Iter<'a, V> =
    std::iter::Map<std::slice::Iter<'a, (String, V)>, fn(&'a (String, V)) -> (&'a String, &'a V)>;

impl<V> SortedMap<V> {
    /// An empty map (allocates nothing).
    pub fn new() -> Self {
        SortedMap {
            entries: Vec::new(),
        }
    }

    /// Where `key` is (`Ok`) or would go (`Err`). A linear scan in key
    /// order, as a B-tree node searches its keys: a record's maps hold a
    /// handful of entries, and a binary search over two of them made a
    /// crowd query about 10% slower.
    fn position(&self, key: &str) -> Result<usize, usize> {
        for (i, (k, _)) in self.entries.iter().enumerate() {
            match k.as_str().cmp(key) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return Ok(i),
                std::cmp::Ordering::Greater => return Err(i),
            }
        }
        Err(self.entries.len())
    }

    /// Insert `value` under `key` and return the value it replaced, as
    /// `BTreeMap::insert` does (a replaced entry keeps its key). A new
    /// key grows the vector by exactly one slot.
    pub fn insert(&mut self, key: String, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.reserve_exact(1);
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in ascending key order.
    pub fn iter<'a>(&'a self) -> Iter<'a, V> {
        let refs: fn(&'a (String, V)) -> (&'a String, &'a V) = |(k, v)| (k, v);
        self.entries.iter().map(refs)
    }
}

impl<'a, V> IntoIterator for &'a SortedMap<V> {
    type Item = (&'a String, &'a V);
    type IntoIter = Iter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for SortedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: Serialize> Serialize for SortedMap<V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

/// Keys are sorted on the way in and a repeated key keeps its last
/// value, as collecting into a `BTreeMap` would; the vector is built
/// directly, with no tree in between.
impl<V: Deserialize> Deserialize for SortedMap<V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let Value::Object(fields) = value else {
            return Err(DeError::new(format!(
                "expected object, found {}",
                serde::kind_name(value)
            )));
        };
        let mut entries = Vec::with_capacity(fields.len());
        for (k, v) in fields {
            entries.push((k.clone(), V::from_value(v)?));
        }
        // A stable sort keeps duplicates in input order; each run then
        // collapses into its first slot holding its last value.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        // A no-op unless duplicates were dropped.
        entries.shrink_to_fit();
        Ok(SortedMap { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_reads_leave_no_spare_slot() {
        let mut m = SortedMap::new();
        assert_eq!(m.entries.capacity(), 0);
        for (i, k) in ["p", "mb", "nb", "lg2npernode", "mb"]
            .into_iter()
            .enumerate()
        {
            m.insert(k.to_string(), i as f64);
            assert_eq!(m.entries.capacity(), m.len(), "after inserting {k}");
        }
        let json = r#"{"b": 1.0, "a": 2.0, "b": 3.0, "c": 4.0}"#;
        let read: SortedMap<f64> = serde_json::from_str(json).unwrap();
        assert_eq!(read.entries.capacity(), read.len());
        assert_eq!(
            read.entries,
            [("a".into(), 2.0), ("b".into(), 3.0), ("c".into(), 4.0)]
        );
    }
}
