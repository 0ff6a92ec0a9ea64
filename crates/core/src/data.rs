//! Datasets: converting between database records, space points, and the
//! unit-cube matrices the GP stack consumes.

use crowdtune_db::{FunctionEvaluation, Scalar};
use crowdtune_space::{Domain, Point, Space, Value};
use std::borrow::Borrow;

/// A task's training data in unit-cube coordinates.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Unit-cube inputs.
    pub x: Vec<Vec<f64>>,
    /// Objective values (minimization).
    pub y: Vec<f64>,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Best (minimum) objective value seen.
    pub fn best(&self) -> Option<f64> {
        self.y.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(a) => Some(a.min(v)),
        })
    }

    /// Append a sample.
    pub fn push(&mut self, x: Vec<f64>, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }

    /// Deterministically subsample down to `max` points (evenly strided,
    /// seed-free so cached models stay comparable across iterations).
    /// Used to cap LCM training cost on large crowd datasets.
    pub fn subsample(&self, max: usize) -> Dataset {
        if self.len() <= max || max == 0 {
            return self.clone();
        }
        let stride = self.len() as f64 / max as f64;
        let mut out = Dataset::default();
        for k in 0..max {
            let i = (k as f64 * stride) as usize;
            out.push(self.x[i].clone(), self.y[i]);
        }
        out
    }
}

/// Errors converting database records to datasets.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A record was missing a tuning parameter the space requires.
    MissingParam(String),
    /// A record's parameter value did not fit the space's domain.
    BadValue(String),
    /// The requested output name was absent.
    MissingOutput(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::MissingParam(p) => write!(f, "record missing tuning parameter '{p}'"),
            DataError::BadValue(p) => write!(f, "record value for '{p}' outside the space"),
            DataError::MissingOutput(o) => write!(f, "record missing output '{o}'"),
        }
    }
}

impl std::error::Error for DataError {}

/// Convert a database scalar to a space value for a given parameter
/// domain. Categorical labels match case-insensitively against the
/// domain's category list.
pub fn scalar_to_value(s: &Scalar, domain: &Domain) -> Option<Value> {
    match (domain, s) {
        (Domain::Integer { .. }, Scalar::Int(v)) => Some(Value::Int(*v)),
        (Domain::Integer { .. }, Scalar::Real(v)) if v.fract() == 0.0 => {
            Some(Value::Int(*v as i64))
        }
        (Domain::Real { .. }, Scalar::Real(v)) => Some(Value::Real(*v)),
        (Domain::Real { .. }, Scalar::Int(v)) => Some(Value::Real(*v as f64)),
        (Domain::Categorical { categories }, Scalar::Str(label)) => categories
            .iter()
            .position(|c| c.eq_ignore_ascii_case(label))
            .map(Value::Cat),
        (Domain::Categorical { categories }, Scalar::Int(v)) => {
            let idx = *v as usize;
            (idx < categories.len()).then_some(Value::Cat(idx))
        }
        _ => None,
    }
}

/// Convert a space value back to a database scalar (categoricals become
/// their label so stored records are human-readable).
pub fn value_to_scalar(v: &Value, domain: &Domain) -> Scalar {
    match (v, domain) {
        (Value::Int(i), _) => Scalar::Int(*i),
        (Value::Real(r), _) => Scalar::Real(*r),
        (Value::Cat(idx), Domain::Categorical { categories }) => Scalar::Str(
            categories
                .get(*idx)
                .cloned()
                .unwrap_or_else(|| idx.to_string()),
        ),
        (Value::Cat(idx), _) => Scalar::Int(*idx as i64),
    }
}

/// Extract the tuning-parameter point of a record against a space.
fn record_to_point(rec: &FunctionEvaluation, space: &Space) -> Result<Point, DataError> {
    let mut point = Vec::with_capacity(space.dim());
    for p in space.params() {
        let s = rec
            .tuning_parameters
            .get(&p.name)
            .ok_or_else(|| DataError::MissingParam(p.name.clone()))?;
        let v = scalar_to_value(s, &p.domain)
            .filter(|v| p.domain.contains(v))
            .ok_or_else(|| DataError::BadValue(p.name.clone()))?;
        point.push(v);
    }
    Ok(point)
}

/// Build a unit-cube dataset from successful records. Records that fail
/// conversion (missing parameters, out-of-domain values — e.g. data
/// uploaded against a different space revision) are skipped, matching the
/// tolerant ingestion the crowd setting needs; the skip count is
/// returned. The records may be owned or shared (`Arc`), as a query
/// returns them.
pub fn records_to_dataset<R: Borrow<FunctionEvaluation>>(
    records: &[R],
    space: &Space,
    output: &str,
) -> (Dataset, usize) {
    let mut ds = Dataset::default();
    let mut skipped = 0;
    for rec in records {
        let rec = rec.borrow();
        let Some(y) = rec.result.output(output) else {
            skipped += 1;
            continue;
        };
        match record_to_point(rec, space) {
            Ok(point) => {
                let unit = space.to_unit(&point).expect("validated point");
                ds.push(unit, y);
            }
            Err(_) => skipped += 1,
        }
    }
    (ds, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_db::EvalOutcome;
    use crowdtune_space::Param;

    fn space() -> Space {
        Space::new(vec![
            Param::integer("mb", 1, 16),
            Param::real("x", 0.0, 1.0),
            Param::categorical("perm", ["NATURAL", "METIS"]),
        ])
        .unwrap()
    }

    fn record(mb: i64, x: f64, perm: &str, runtime: f64) -> FunctionEvaluation {
        FunctionEvaluation::new("P", "alice")
            .param("mb", mb)
            .param("x", x)
            .param("perm", perm)
            .outcome(EvalOutcome::single("runtime", runtime))
    }

    #[test]
    fn record_conversion_roundtrip() {
        let s = space();
        let rec = record(4, 0.5, "metis", 1.0);
        let point = record_to_point(&rec, &s).unwrap();
        assert_eq!(point, vec![Value::Int(4), Value::Real(0.5), Value::Cat(1)]);
    }

    #[test]
    fn records_to_dataset_skips_bad_rows() {
        let s = space();
        let recs = vec![
            record(4, 0.5, "METIS", 1.0),
            record(99, 0.5, "METIS", 2.0),       // mb out of domain
            record(4, 0.5, "UNKNOWN_PERM", 3.0), // bad label
            record(4, 0.5, "NATURAL", 4.0),
            record(4, 0.5, "NATURAL", 0.0).outcome(EvalOutcome::Failed {
                reason: "OOM".into(),
            }), // failed
        ];
        let (ds, skipped) = records_to_dataset(&recs, &s, "runtime");
        assert_eq!(ds.len(), 2);
        assert_eq!(skipped, 3);
        assert_eq!(ds.best(), Some(1.0));
    }

    #[test]
    fn missing_output_name_skips() {
        let s = space();
        let recs = vec![record(4, 0.5, "METIS", 1.0)];
        let (ds, skipped) = records_to_dataset(&recs, &s, "memory");
        assert!(ds.is_empty());
        assert_eq!(skipped, 1);
    }

    #[test]
    fn scalar_value_conversions() {
        let int_dom = Domain::Integer { lo: 0, hi: 10 };
        let cat_dom = Domain::Categorical {
            categories: vec!["a".into(), "b".into()],
        };
        assert_eq!(
            scalar_to_value(&Scalar::Real(3.0), &int_dom),
            Some(Value::Int(3))
        );
        assert_eq!(scalar_to_value(&Scalar::Real(3.5), &int_dom), None);
        assert_eq!(
            scalar_to_value(&Scalar::Str("B".into()), &cat_dom),
            Some(Value::Cat(1))
        );
        assert_eq!(
            scalar_to_value(&Scalar::Int(1), &cat_dom),
            Some(Value::Cat(1))
        );
        assert_eq!(scalar_to_value(&Scalar::Int(5), &cat_dom), None);
        assert_eq!(
            value_to_scalar(&Value::Cat(1), &cat_dom),
            Scalar::Str("b".into())
        );
    }

    #[test]
    fn subsample_preserves_spread() {
        let mut ds = Dataset::default();
        for i in 0..100 {
            ds.push(vec![i as f64 / 100.0], i as f64);
        }
        let sub = ds.subsample(10);
        assert_eq!(sub.len(), 10);
        assert_eq!(sub.y[0], 0.0);
        assert!(sub.y[9] >= 80.0, "tail represented: {:?}", sub.y);
        // No-op when already small.
        assert_eq!(ds.subsample(200).len(), 100);
    }
}
