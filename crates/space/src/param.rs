//! Tuning/task parameter definitions and values.
//!
//! The paper's meta description declares three kinds of parameters
//! (`"type":"integer"`, `"type":"real"`, and categorical lists), each with
//! bounds. Integer bounds follow the paper's half-open convention
//! `[lower_bound, upper_bound)` — e.g. PDGEQRF's `mb` is "Integer [1,16)".

use serde::{Deserialize, Serialize};

/// The domain of a single parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "lowercase")]
pub enum Domain {
    /// Integer in the half-open range `[lo, hi)`.
    Integer {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// Real number in the half-open range `[lo, hi)`.
    Real {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// One of a fixed list of category labels.
    Categorical {
        /// The category labels, in index order.
        categories: Vec<String>,
    },
}

impl Domain {
    /// Number of distinct values for finite domains (`None` for `Real`).
    pub fn cardinality(&self) -> Option<usize> {
        match self {
            Domain::Integer { lo, hi } => Some((hi - lo).max(0) as usize),
            Domain::Real { .. } => None,
            Domain::Categorical { categories } => Some(categories.len()),
        }
    }

    /// True when `value` lies inside the domain.
    pub fn contains(&self, value: &Value) -> bool {
        match (self, value) {
            (Domain::Integer { lo, hi }, Value::Int(v)) => v >= lo && v < hi,
            (Domain::Real { lo, hi }, Value::Real(v)) => v.is_finite() && *v >= *lo && *v < *hi,
            (Domain::Categorical { categories }, Value::Cat(idx)) => *idx < categories.len(),
            _ => false,
        }
    }
}

/// A named parameter: a tuning knob or a task descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name as it appears in the meta description and database.
    pub name: String,
    /// Value domain.
    pub domain: Domain,
}

impl Param {
    /// Integer parameter over `[lo, hi)`.
    pub fn integer(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        assert!(lo < hi, "integer domain must be non-empty: [{lo},{hi})");
        Param {
            name: name.into(),
            domain: Domain::Integer { lo, hi },
        }
    }

    /// Real parameter over `[lo, hi)`.
    pub fn real(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "real domain must be non-empty: [{lo},{hi})");
        Param {
            name: name.into(),
            domain: Domain::Real { lo, hi },
        }
    }

    /// Categorical parameter with the given labels.
    pub fn categorical<S: Into<String>>(
        name: impl Into<String>,
        categories: impl IntoIterator<Item = S>,
    ) -> Self {
        let categories: Vec<String> = categories.into_iter().map(Into::into).collect();
        assert!(
            !categories.is_empty(),
            "categorical domain must be non-empty"
        );
        Param {
            name: name.into(),
            domain: Domain::Categorical { categories },
        }
    }
}

/// A concrete parameter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Real value.
    Real(f64),
    /// Categorical value, stored as the index into the parameter's
    /// category list (serialized as a bare integer; the owning [`Param`]
    /// provides the label).
    Cat(usize),
}

impl Value {
    /// The value as `f64` (categoricals convert via their index).
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Real(v) => *v,
            Value::Cat(v) => *v as f64,
        }
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_domain_contains() {
        let d = Domain::Integer { lo: 1, hi: 16 };
        assert!(d.contains(&Value::Int(1)));
        assert!(d.contains(&Value::Int(15)));
        assert!(!d.contains(&Value::Int(16)));
        assert!(!d.contains(&Value::Int(0)));
        assert!(!d.contains(&Value::Real(3.0)), "type mismatch rejected");
        assert_eq!(d.cardinality(), Some(15));
    }

    #[test]
    fn real_domain_contains() {
        let d = Domain::Real { lo: 0.0, hi: 1.0 };
        assert!(d.contains(&Value::Real(0.0)));
        assert!(d.contains(&Value::Real(0.999)));
        assert!(!d.contains(&Value::Real(1.0)));
        assert!(!d.contains(&Value::Real(f64::NAN)));
        assert_eq!(d.cardinality(), None);
    }

    #[test]
    fn categorical_domain() {
        let p = Param::categorical("COLPERM", ["NATURAL", "MMD_AT_PLUS_A", "METIS"]);
        assert!(p.domain.contains(&Value::Cat(2)));
        assert!(!p.domain.contains(&Value::Cat(3)));
        assert_eq!(p.domain.cardinality(), Some(3));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_integer_domain_panics() {
        let _ = Param::integer("x", 5, 5);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_f64(), 3.0);
        assert_eq!(Value::Real(2.5).as_f64(), 2.5);
        assert_eq!(Value::Cat(1).as_f64(), 1.0);
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Real(1.0).as_int(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Param::integer("mb", 1, 16);
        let json = serde_json::to_string(&p).unwrap();
        let back: Param = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
