//! Shared JSON emission for the `BENCH_*.json` artifacts.
//!
//! The workspace builds offline (no serde), so every bench artifact is
//! hand-rolled JSON. PRs 4–6 grew three private copies of the same
//! emitter in [`crate::throughput`], [`crate::kernel_bench`] and
//! [`crate::tiered_bench`]; this module is the single replacement all
//! of them — and the `cobtree-serve` load harness — build on.
//!
//! The output shape is deliberately rigid, because CI greps the
//! artifacts with line-oriented `sed` gates:
//!
//! * the top-level object puts **one field per line** (`"key": value`),
//! * nested objects render inline on their field's line,
//! * arrays put one inline element per line,
//! * every float is finite (non-finite collapses to `0.0`) and rendered
//!   with three decimals,
//! * field order is insertion order — stable across runs.
//!
//! ```
//! use cobtree_analysis::json::JsonObject;
//!
//! let report = JsonObject::new()
//!     .with("bench", "demo")
//!     .with("schema_version", 1u64)
//!     .with("config", JsonObject::new().with("keys", 8u64))
//!     .with("ratio", 1.5f64);
//! let text = report.render();
//! assert!(text.contains("\"ratio\": 1.500"));
//! cobtree_analysis::json::assert_jsonish(&text);
//! ```

use std::path::Path;

/// Clamps non-finite floats to `0.0` so artifacts never contain `NaN`
/// or `inf` tokens (which are not JSON).
#[must_use]
pub fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Renders a float the way every artifact does: finite, three decimals.
#[must_use]
pub fn json_f(v: f64) -> String {
    format!("{:.3}", finite(v))
}

/// Nearest-rank percentile over an ascending sample; `0.0` when empty.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Operations per second from an op count and a wall-clock span, finite.
#[must_use]
pub fn ops_per_sec(ops: usize, wall_ns: u64) -> f64 {
    finite(ops as f64 / (wall_ns as f64 / 1e9))
}

/// `a / b` clamped to `0.0` when the quotient is not finite.
#[must_use]
pub fn safe_div(a: f64, b: f64) -> f64 {
    finite(a / b)
}

/// One JSON value. Construct via the `From` impls (`u64`, `f64`,
/// `bool`, strings, [`JsonObject`], `Vec<impl Into<JsonValue>>`).
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered without decorations.
    UInt(u64),
    /// A float, rendered with [`json_f`].
    Num(f64),
    /// A string, rendered quoted and escaped.
    Str(String),
    /// An array; in pretty rendering, one inline element per line.
    Arr(Vec<JsonValue>),
    /// A nested object; in pretty rendering, inline on one line.
    Obj(JsonObject),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(u64::from(v))
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<JsonObject> for JsonValue {
    fn from(v: JsonObject) -> Self {
        JsonValue::Obj(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Arr(v.into_iter().map(Into::into).collect())
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl JsonValue {
    fn render_inline(&self, out: &mut String) {
        match self {
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => out.push_str(&v.to_string()),
            JsonValue::Num(v) => out.push_str(&json_f(*v)),
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_inline(out);
                }
                out.push(']');
            }
            JsonValue::Obj(obj) => obj.render_inline(out),
        }
    }
}

/// An insertion-ordered JSON object builder.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a field (no duplicate-key checking; don't).
    pub fn field(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Builder-style [`JsonObject::field`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.field(key, value);
        self
    }

    fn render_inline(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_into(k, out);
            out.push_str("\": ");
            v.render_inline(out);
        }
        out.push('}');
    }

    /// Renders the artifact: a multi-line top-level object (one field
    /// per line, nested objects inline, arrays one element per line),
    /// terminated by a newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str("  \"");
            escape_into(k, &mut out);
            out.push_str("\": ");
            match v {
                JsonValue::Arr(items) => {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        out.push_str("    ");
                        item.render_inline(&mut out);
                        out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                v => v.render_inline(&mut out),
            }
            out.push_str(if i + 1 < self.fields.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Writes [`JsonObject::render`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    /// Any `std::io::Error` from directory creation or the write.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.render())
    }
}

/// Minimal structural JSON check shared by the artifact tests:
/// balanced delimiters outside strings, no `NaN`/`inf` tokens.
///
/// # Panics
/// Panics when `s` is not structurally JSON-ish.
pub fn assert_jsonish(s: &str) {
    let mut depth: i64 = 0;
    let mut in_str = false;
    let mut prev = ' ';
    for c in s.chars() {
        if in_str {
            if c == '"' && prev != '\\' {
                in_str = false;
            }
        } else {
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced close in {s}");
        }
        prev = c;
    }
    assert_eq!(depth, 0, "unbalanced JSON: {s}");
    assert!(!s.contains("NaN") && !s.contains("inf"), "non-finite: {s}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobtree_core::io::ScratchDir;

    #[test]
    fn pretty_layout_keeps_fields_on_one_line() {
        let obj = JsonObject::new()
            .with("bench", "demo")
            .with("schema_version", 1u64)
            .with(
                "config",
                JsonObject::new().with("keys", 10u64).with("zipf_s", 1.1f64),
            )
            .with(
                "points",
                vec![
                    JsonObject::new().with("mix", "uniform").with("ops", 5u64),
                    JsonObject::new().with("mix", "zipf").with("ops", 6u64),
                ],
            )
            .with("ratio", 2.0f64)
            .with("ok", true);
        let text = obj.render();
        assert_jsonish(&text);
        // Every sed-gated shape: `"field": value` on a single line.
        assert!(text.contains("\"schema_version\": 1,\n"));
        assert!(text.contains("\"config\": {\"keys\": 10, \"zipf_s\": 1.100},\n"));
        assert!(text.contains("    {\"mix\": \"uniform\", \"ops\": 5},\n"));
        assert!(text.contains("    {\"mix\": \"zipf\", \"ops\": 6}\n"));
        assert!(text.contains("\"ratio\": 2.000,\n"));
        assert!(text.ends_with("\"ok\": true\n}\n"));
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        JsonValue::from("a\"b\\c\nd").render_inline(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn floats_are_always_finite() {
        assert_eq!(json_f(f64::NAN), "0.000");
        assert_eq!(json_f(f64::INFINITY), "0.000");
        assert_eq!(json_f(1.25), "1.250");
        assert_eq!(safe_div(1.0, 0.0), 0.0);
        assert_eq!(ops_per_sec(100, 0), 0.0);
        assert!(ops_per_sec(1_000, 1_000_000) > 0.0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!(percentile(&v, 0.5) >= 50.0 && percentile(&v, 0.5) <= 51.0);
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = ScratchDir::new("json-writer");
        let path = dir.path().join("nested").join("out.json");
        JsonObject::new()
            .with("x", 1u64)
            .write(&path)
            .expect("write");
        let back = std::fs::read_to_string(&path).expect("read");
        assert_eq!(back, "{\n  \"x\": 1\n}\n");
    }
}
