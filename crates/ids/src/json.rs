//! A tiny dependency-free JSON emitter for machine-readable reports
//! (`stacl-obs` metrics snapshots).
//!
//! One pretty-printed dialect: objects put every field on its own line at
//! two-space indentation; arrays render inline. Keys are escaped minimally
//! (quote, backslash, control characters) — callers only emit
//! identifier-like keys, but the escaping keeps the output well-formed
//! even if a caller passes something unusual.

use std::fmt::Write as _;

/// Escape a string for embedding inside JSON double quotes.
fn escape_into(out: &mut String, s: &str) {
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
}

/// A streaming pretty-printed JSON writer.
///
/// ```
/// use stacl_ids::json::JsonWriter;
/// let mut w = JsonWriter::object();
/// w.field_bool("telemetry_enabled", true);
/// w.open_object("totals");
/// w.field_u64("decisions", 42);
/// w.close();
/// w.array_u64("buckets", [1, 2, 3]);
/// let text = w.finish();
/// assert!(text.starts_with("{\n  \"telemetry_enabled\": true,"));
/// assert!(text.ends_with("}\n"));
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Whether each currently-open object already holds an entry (drives
    /// comma placement).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// Start a root object.
    pub fn object() -> Self {
        JsonWriter {
            out: String::from("{"),
            stack: vec![false],
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Newline + indent + quoted key + `: `, with the comma for the
    /// previous sibling if any.
    fn key(&mut self, key: &str) {
        if let Some(top) = self.stack.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
        self.out.push('\n');
        self.indent();
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\": ");
    }

    /// An unsigned-integer field.
    pub fn field_u64(&mut self, key: &str, v: u64) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    /// A boolean field.
    pub fn field_bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Open a nested object under `key`; close with [`JsonWriter::close`].
    pub fn open_object(&mut self, key: &str) {
        self.key(key);
        self.out.push('{');
        self.stack.push(false);
    }

    /// Close the innermost nested object.
    pub fn close(&mut self) {
        assert!(self.stack.len() > 1, "close() called on the root object");
        self.stack.pop();
        self.out.push('\n');
        self.indent();
        self.out.push('}');
    }

    /// An inline array of unsigned integers.
    pub fn array_u64(&mut self, key: &str, items: impl IntoIterator<Item = u64>) {
        self.key(key);
        self.out.push('[');
        for (i, v) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            let _ = write!(self.out, "{v}");
        }
        self.out.push(']');
    }

    /// Close every open container and return the document (with a
    /// trailing newline, matching the historical emitters).
    pub fn finish(mut self) -> String {
        while self.stack.len() > 1 {
            self.close();
        }
        self.out.push_str("\n}\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_objects_and_arrays() {
        let mut w = JsonWriter::object();
        w.field_bool("on", true);
        w.open_object("counters");
        w.field_u64("a", 1);
        w.field_u64("b", 2);
        w.close();
        w.open_object("hist");
        w.field_u64("samples", 3);
        w.array_u64("log2_buckets", [1, 2]);
        w.close();
        let text = w.finish();
        let expect = "{\n  \"on\": true,\n  \"counters\": {\n    \"a\": 1,\n    \
                      \"b\": 2\n  },\n  \"hist\": {\n    \"samples\": 3,\n    \
                      \"log2_buckets\": [1, 2]\n  }\n}\n";
        assert_eq!(text, expect);
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::object();
        w.field_u64("a\"b\\c\nd", 1);
        let text = w.finish();
        assert!(text.contains("\"a\\\"b\\\\c\\nd\": 1"), "{text}");
    }

    #[test]
    fn unclosed_containers_are_closed_by_finish() {
        let mut w = JsonWriter::object();
        w.open_object("a");
        w.field_u64("x", 1);
        let text = w.finish();
        assert_eq!(text, "{\n  \"a\": {\n    \"x\": 1\n  }\n}\n");
    }
}
