//! The result of one benchmark run: metrics, correctness checks and the
//! attempted/failed tally, printed as text lines and one JSON object.

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// `(description, passed)` for every output-correctness check.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted: db calls plus crowd sessions.
    pub attempted: u64,
    /// Failed or rejected db calls plus failed sessions (simulated
    /// application failures such as out-of-memory runs are results, not
    /// errors).
    pub failed: u64,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values are not JSON numbers; `correct()` is
                // false then.
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metric("setup_s", 0.25, "s");
        r.metric("ops_per_s", 12.0, "1/s");
        r.check("ok", true);
        assert_eq!(
            r.json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "ops_per_s": {"value": 12.0, "unit": "1/s"}}}"#
        );
        r.check("bad", false);
        assert!(r.json().starts_with(r#"{"correct": false"#));
    }
}
