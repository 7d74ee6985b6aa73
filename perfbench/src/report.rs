//! Collects one run's metrics and answer tallies and prints them: one
//! human-readable line per metric, then the JSON result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations whose answers were checked or that were refused.
    pub attempted: u64,
    /// Refused, timed-out, unavailable, lost, shed or wrong operations.
    pub failed: u64,
    /// The subset of `failed` whose answer was wrong.
    pub wrong: u64,
    /// First few wrong answers, for the log.
    pub wrong_notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.value = value;
            m.unit = unit;
        } else {
            self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            });
        }
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Books `n` operations that got a correct answer.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Books `n` operations that were refused, timed out or lost.
    pub fn refused(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Books one operation whose answer was wrong.
    pub fn wrong(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        if self.wrong_notes.len() < 8 {
            self.wrong_notes.push(what());
        }
    }

    /// Books `ops` checked operations of which `wrong` got a wrong
    /// answer, the first of them described by `notes`.
    pub fn book(&mut self, ops: u64, wrong: u64, notes: &[String]) {
        self.ok(ops - wrong);
        for i in 0..wrong as usize {
            let note = notes.get(i).cloned().unwrap_or_default();
            self.wrong(|| note);
        }
    }

    /// Books one checked answer.
    pub fn check(&mut self, good: bool, what: impl FnOnce() -> String) {
        if good {
            self.ok(1);
        } else {
            self.wrong(what);
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints every metric as `metric <workload> <name> <value> <unit>`.
    pub fn print_lines(&self, workload: &str) {
        for m in &self.metrics {
            println!("metric {workload} {} {} {}", m.name, m.value, m.unit);
        }
        for note in &self.wrong_notes {
            println!("wrong {workload} {note}");
        }
    }

    /// The result line: the metrics named in `contract`, which must all
    /// have been measured.
    pub fn json_line(&self, contract: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in contract.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("contract metric {name} was not measured"));
            assert_eq!(m.unit, *unit, "unit of {name}");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// The p50 and p99 of consecutive windows of latency samples, taken as
/// the samples arrive so only one window is ever held in memory. A short
/// last window counts only when it is the only one.
#[derive(Debug)]
pub struct Windows {
    per_window: usize,
    buf: Vec<u64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
}

impl Windows {
    pub fn new(per_window: usize) -> Self {
        let per_window = per_window.max(1);
        Windows {
            per_window,
            buf: Vec::with_capacity(per_window),
            p50: Vec::new(),
            p99: Vec::new(),
            samples: 0,
        }
    }

    pub fn push(&mut self, sample: u64) {
        self.buf.push(sample);
        self.samples += 1;
        if self.buf.len() == self.per_window {
            self.close();
        }
    }

    fn close(&mut self) {
        self.buf.sort_unstable();
        self.p50.push(quantile(&self.buf, 0.50));
        self.p99.push(quantile(&self.buf, 0.99));
        self.buf.clear();
    }

    /// The quiet end of the window p50s and p99s, and the sample count.
    pub fn finish(mut self) -> (f64, f64, u64) {
        if self.p50.is_empty() && !self.buf.is_empty() {
            self.close();
        }
        (
            quiet_latency(&self.p50),
            quiet_latency(&self.p99),
            self.samples,
        )
    }
}

/// Interference from other tenants of a shared host only ever slows a
/// slice of work down, and it comes and goes within milliseconds, so
/// timings report the quiet end of many short slices: this fractile of
/// the slice throughputs, and one minus it of the window latencies.
pub const QUIET: f64 = 0.95;

/// The quiet end of slice throughputs.
pub fn quiet_rate(rates: &[f64]) -> f64 {
    fractile(rates, QUIET)
}

/// The quiet end of window latencies.
pub fn quiet_latency(latencies: &[f64]) -> f64 {
    fractile(latencies, 1.0 - QUIET)
}

/// Nearest-rank fractile `f` of unsorted values (0 when empty).
pub fn fractile(values: &[f64], f: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (f * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_median() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // 21 windows of 1..=100 and one hiccup window: the quiet end
        // does not see the hiccup; a short last window is dropped.
        let mut w = Windows::new(100);
        for i in 0..2_250u64 {
            w.push(if (1_000..1_100).contains(&i) {
                1_000_000
            } else {
                i % 100 + 1
            });
        }
        assert_eq!(w.finish(), (50.0, 99.0, 2_250));
        let mut w = Windows::new(100);
        (1..=50).for_each(|i| w.push(i));
        assert_eq!(w.finish(), (25.0, 50.0, 50));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!((quiet_rate(&v), quiet_latency(&v)), (10.0, 1.0));
    }

    #[test]
    fn json_line_lists_the_contract_in_order() {
        let mut r = Report::default();
        r.set("b", 2.5, "s");
        r.set("a", 1.0, "ms");
        r.ok(3);
        r.wrong(|| "x".into());
        let line = r.json_line(&[("a", "ms"), ("b", "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
    }
}
