//! A minimal JSON writer for the driver's result lines and trace files.

use std::fmt::Write;

/// Escapes a string for a JSON string literal (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A number as JSON: non-finite values (which JSON cannot carry) become
/// `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON array of numbers.
pub fn num_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(","))
}

/// Builds one JSON object field by field.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a field whose value is already rendered JSON.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{}\":{value}", escape(key));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", escape(value));
        self.raw(key, &rendered)
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, &num(value))
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Joins rendered JSON values into an array.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}
