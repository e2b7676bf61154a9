//! Named metrics with units, printed as a table and as the final JSON
//! result line.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`throughput_ips`, `engine.run_ms`, ...).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The metrics as an aligned `name value unit` table.
pub fn table(metrics: &[Metric]) -> String {
    metrics.iter().map(|m| format!("  {:<34} {:>16.6} {}\n", m.name, m.value, m.unit)).collect()
}

/// The single-line result object: `correct`, `attempted`, `failed`, and
/// every metric with its unit.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(10, 0, &[metric("p50_ms", 1.25, "ms"), metric("x", f64::NAN, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"x\":{\"value\":0.0,\"unit\":\"s\"}}}"
        );
        assert!(result_json(3, 1, &[]).starts_with("{\"correct\":false"));
    }
}
