//! Minimal JSON encoding helpers for the sinks and the serve front end
//! (no external deps).

use std::fmt::Write as _;

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// `s` escaped for embedding between the quotes of a JSON string literal.
/// The workspace's one JSON string escaper: the telemetry sinks and the
/// serve front end's response builders both go through it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

fn push_escaped(out: &mut String, s: &str) {
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

/// Appends `v` as a JSON number (non-finite values become `null`).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `vs` as a JSON array of numbers.
pub fn push_f64_slice(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, *v);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_formats() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        s.clear();
        push_f64(&mut s, 0.5);
        assert_eq!(s, "0.5");
        s.clear();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        s.clear();
        push_f64_slice(&mut s, &[1.0, f64::INFINITY]);
        assert_eq!(s, "[1,null]");
    }
}
