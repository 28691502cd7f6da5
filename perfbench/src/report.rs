//! The result line: one JSON object, last on standard output.

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run found.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every op delivered every payload byte for byte.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed: a mismatch, a transport error or a stuck op.
    pub failed: u64,
    /// Metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub context: Vec<String>,
}

impl Report {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = (self.metrics.iter())
            .map(|m| {
                // JSON has no NaN or infinity; a metric that cannot be
                // computed reads 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
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
    fn renders_the_result_object() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("a", 1.5, "ms"), Metric::new("b", f64::NAN, "s")],
            context: Vec::new(),
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
