//! The crowd-data utility functions of paper §IV-B:
//! `QueryFunctionEvaluations`, `QuerySurrogateModel`,
//! `QueryPredictOutput`, and `QuerySensitivityAnalysis`.
//!
//! Each takes a [`CrowdSession`] (an API key plus problem description
//! bound to the shared database), so a user never touches the repository
//! by hand — the paper's core usability claim.

use crate::data::records_to_dataset;
use crate::meta::{CrowdSession, MetaError};
use crate::tuner::dims_of;
use crowdtune_gp::{Gp, GpConfig, KernelKind, NoiseModel};
use crowdtune_linalg::{ridge, Matrix};
use crowdtune_sensitivity::{analyze_space, AnalysisConfig, NamedSobolResult};
use crowdtune_space::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which modeling technique `QuerySurrogateModel` should use — the
/// paper's "the user can choose a specific surrogate modeling technique
/// among several modeling options".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateKind {
    /// Gaussian process with a Matérn 5/2 kernel (the default).
    #[default]
    GpMatern52,
    /// Gaussian process with a squared-exponential kernel.
    GpRbf,
    /// Ridge-regularized linear model over unit-cube coordinates (fast,
    /// crude — useful as a sanity baseline; its "std" is the training
    /// residual RMS, constant over the space).
    LinearRidge,
}

enum Model {
    Gp(Box<Gp>),
    Linear {
        weights: Vec<f64>,
        intercept: f64,
        resid_std: f64,
    },
}

/// A queried surrogate model: a black-box predictor over the tuning
/// space, fitted to the crowd data the session's meta description
/// selects.
pub struct SurrogateModelHandle {
    model: Model,
    space: crowdtune_space::Space,
    /// How many crowd samples backed the fit.
    pub n_samples: usize,
    /// How many queried records were skipped (failures, schema drift).
    pub n_skipped: usize,
}

impl SurrogateModelHandle {
    /// Predict mean and standard deviation at a tuning-space point.
    pub fn predict(&self, point: &Point) -> Result<(f64, f64), MetaError> {
        let unit = self
            .space
            .to_unit(point)
            .map_err(|e| MetaError::BadField(e.to_string()))?;
        Ok(self.predict_unit(&unit))
    }

    /// Predict at a unit-cube point (for samplers and analyses).
    pub fn predict_unit(&self, unit: &[f64]) -> (f64, f64) {
        match &self.model {
            Model::Gp(gp) => {
                let p = gp.predict(unit);
                (p.mean, p.std)
            }
            Model::Linear {
                weights,
                intercept,
                resid_std,
            } => {
                let mean = intercept + crowdtune_linalg::dot(weights, unit);
                (mean, *resid_std)
            }
        }
    }

    /// The mean of [`SurrogateModelHandle::predict_unit`], bitwise,
    /// without computing a GP's posterior variance.
    fn mean_unit(&self, unit: &[f64]) -> f64 {
        match &self.model {
            Model::Gp(gp) => gp.predict_mean(unit),
            Model::Linear {
                weights, intercept, ..
            } => intercept + crowdtune_linalg::dot(weights, unit),
        }
    }
}

/// `QuerySurrogateModel`: fit a surrogate to the session's crowd data
/// and return it as a black-box model (default: Matérn 5/2 GP).
pub fn query_surrogate_model(
    session: &CrowdSession<'_>,
    seed: u64,
) -> Result<SurrogateModelHandle, MetaError> {
    query_surrogate_model_with(session, SurrogateKind::default(), seed)
}

/// [`query_surrogate_model`] with an explicit modeling technique.
pub fn query_surrogate_model_with(
    session: &CrowdSession<'_>,
    kind: SurrogateKind,
    seed: u64,
) -> Result<SurrogateModelHandle, MetaError> {
    let records = session.query_function_evaluations()?;
    let (ds, skipped) = records_to_dataset(
        &records,
        &session.tuning_space,
        session.meta.objective_name(),
    );
    if ds.is_empty() {
        return Err(MetaError::BadField(
            "no usable crowd samples matched the meta description".into(),
        ));
    }
    let model = match kind {
        SurrogateKind::GpMatern52 | SurrogateKind::GpRbf => {
            let mut config = GpConfig::new(dims_of(&session.tuning_space));
            config.kernel = match kind {
                SurrogateKind::GpRbf => KernelKind::SquaredExponential,
                _ => KernelKind::Matern52,
            };
            config.noise = NoiseModel::Estimated(1e-2);
            config.restarts = 1;
            let mut rng = StdRng::seed_from_u64(seed);
            Model::Gp(Box::new(
                Gp::fit(&ds.x, &ds.y, &config, &mut rng)
                    .map_err(|e| MetaError::BadField(e.to_string()))?,
            ))
        }
        SurrogateKind::LinearRidge => {
            // Design matrix with a bias column.
            let d = session.tuning_space.dim();
            let n = ds.len();
            let mut a = Matrix::zeros(n, d + 1);
            for (i, row) in ds.x.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    a[(i, j)] = v;
                }
                a[(i, d)] = 1.0;
            }
            let coef = ridge(&a, &ds.y, 1e-6);
            let (weights, intercept) = (coef[..d].to_vec(), coef[d]);
            let mut sq = 0.0;
            for (row, &y) in ds.x.iter().zip(&ds.y) {
                let pred = intercept + crowdtune_linalg::dot(&weights, row);
                sq += (pred - y) * (pred - y);
            }
            Model::Linear {
                weights,
                intercept,
                resid_std: (sq / n as f64).sqrt(),
            }
        }
    };
    Ok(SurrogateModelHandle {
        model,
        space: session.tuning_space.clone(),
        n_samples: ds.len(),
        n_skipped: skipped,
    })
}

/// `QueryPredictOutput`: predicted objective for one configuration.
pub fn query_predict_output(
    session: &CrowdSession<'_>,
    point: &Point,
    seed: u64,
) -> Result<f64, MetaError> {
    let model = query_surrogate_model(session, seed)?;
    Ok(model.predict(point)?.0)
}

/// `QuerySensitivityAnalysis`: fit a surrogate to the crowd data and run
/// a Sobol analysis of its posterior mean over the tuning space —
/// producing the paper's Table IV / Table V rows.
pub fn query_sensitivity_analysis(
    session: &CrowdSession<'_>,
    config: &AnalysisConfig,
    seed: u64,
) -> Result<NamedSobolResult, MetaError> {
    let model = query_surrogate_model(session, seed)?;
    // Snap Saltelli sample coordinates to discrete cell centers: the
    // surrogate's categorical kernel distinguishes cells by exact unit
    // coordinate, so analyzing at raw continuous coordinates would make
    // every categorical dimension look inert.
    let space = session.tuning_space.clone();
    Ok(analyze_space(&session.tuning_space, config, move |x| {
        let mut u = x.to_vec();
        space.snap_unit(&mut u);
        model.mean_unit(&u)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdtune_db::{EvalOutcome, FunctionEvaluation, HistoryDb, MachineConfig};
    use crowdtune_space::Value;
    use rand::Rng;

    const META: &str = r#"{
        "api_key": "KEY",
        "tuning_problem_name": "sens",
        "problem_space": {
            "input_space": [],
            "parameter_space": [
                {"name": "a", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0},
                {"name": "b", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
            ],
            "output_space": [{"name": "runtime", "type": "real"}]
        },
        "sync_crowd_repo": "no"
    }"#;

    fn seeded(n: usize) -> (HistoryDb, String) {
        let db = HistoryDb::new();
        let mut rng = StdRng::seed_from_u64(1);
        let key = db
            .register_user("alice", "a@x.org", true, &mut rng)
            .unwrap();
        // Objective: runtime = 5 a + 0.2 b — parameter 'a' dominates.
        for _ in 0..n {
            let a: f64 = rng.gen();
            let b: f64 = rng.gen();
            let eval = FunctionEvaluation::new("sens", "alice")
                .param("a", a)
                .param("b", b)
                .outcome(EvalOutcome::single("runtime", 5.0 * a + 0.2 * b))
                .on_machine(MachineConfig::new("cori", "haswell", 1, 32));
            db.submit(&key, eval).unwrap();
        }
        (db, key)
    }

    #[test]
    fn surrogate_model_fits_crowd_data() {
        let (db, key) = seeded(60);
        let session = CrowdSession::open(&db, &META.replace("KEY", &key)).unwrap();
        let model = query_surrogate_model(&session, 0).unwrap();
        assert_eq!(model.n_samples, 60);
        let (mean_low, _) = model
            .predict(&vec![Value::Real(0.1), Value::Real(0.1)])
            .unwrap();
        let (mean_high, _) = model
            .predict(&vec![Value::Real(0.9), Value::Real(0.1)])
            .unwrap();
        assert!(mean_high > mean_low + 2.0, "{mean_low} vs {mean_high}");
    }

    #[test]
    fn predict_output_close_to_truth() {
        let (db, key) = seeded(80);
        let session = CrowdSession::open(&db, &META.replace("KEY", &key)).unwrap();
        let y =
            query_predict_output(&session, &vec![Value::Real(0.5), Value::Real(0.5)], 0).unwrap();
        assert!((y - 2.6).abs() < 0.5, "predicted {y}");
    }

    #[test]
    fn sensitivity_identifies_dominant_parameter() {
        let (db, key) = seeded(80);
        let session = CrowdSession::open(&db, &META.replace("KEY", &key)).unwrap();
        let res = query_sensitivity_analysis(
            &session,
            &AnalysisConfig {
                n_samples: 512,
                seed: 0,
            },
            0,
        )
        .unwrap();
        let a = res.for_param("a").unwrap();
        let b = res.for_param("b").unwrap();
        assert!(a.st > 0.5, "a.st = {}", a.st);
        assert!(b.st < 0.2, "b.st = {}", b.st);
        assert_eq!(res.influential_names(0.3), vec!["a"]);
    }

    #[test]
    fn linear_ridge_surrogate_fits_linear_data() {
        let (db, key) = seeded(60);
        let session = CrowdSession::open(&db, &META.replace("KEY", &key)).unwrap();
        let model = query_surrogate_model_with(&session, SurrogateKind::LinearRidge, 0).unwrap();
        // Truth is exactly linear: 5a + 0.2b.
        let (m_low, s_low) = model
            .predict(&vec![Value::Real(0.1), Value::Real(0.5)])
            .unwrap();
        let (m_high, _) = model
            .predict(&vec![Value::Real(0.9), Value::Real(0.5)])
            .unwrap();
        assert!(
            (m_low - (5.0 * 0.1 + 0.2 * 0.5)).abs() < 0.05,
            "low {m_low}"
        );
        assert!(
            (m_high - (5.0 * 0.9 + 0.2 * 0.5)).abs() < 0.05,
            "high {m_high}"
        );
        assert!(s_low < 0.05, "residual std {s_low} on exactly-linear data");
    }

    #[test]
    fn rbf_and_matern_both_fit() {
        let (db, key) = seeded(40);
        let session = CrowdSession::open(&db, &META.replace("KEY", &key)).unwrap();
        for kind in [SurrogateKind::GpMatern52, SurrogateKind::GpRbf] {
            let model = query_surrogate_model_with(&session, kind, 0).unwrap();
            let (m, s) = model
                .predict(&vec![Value::Real(0.5), Value::Real(0.5)])
                .unwrap();
            assert!((m - 2.6).abs() < 0.5, "{kind:?}: {m}");
            assert!(s.is_finite() && s >= 0.0);
        }
    }

    #[test]
    fn empty_crowd_data_is_an_error() {
        let db = HistoryDb::new();
        let mut rng = StdRng::seed_from_u64(1);
        let key = db
            .register_user("alice", "a@x.org", true, &mut rng)
            .unwrap();
        let session = CrowdSession::open(&db, &META.replace("KEY", &key)).unwrap();
        assert!(query_surrogate_model(&session, 0).is_err());
    }
}
