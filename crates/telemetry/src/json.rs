//! A small ordered JSON value: the one emitter behind run manifests and
//! bench records. The offline build has no serde, and these documents are
//! small enough that building a value and rendering it is less code than a
//! template per document.

use std::fmt::Write;

/// A JSON document. Object keys keep their insertion order, so a rendered
/// record reads in the order its writer listed the fields.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Any Rust integer (counters, sizes, seeds) — rendered exactly.
    Int(i128),
    /// A float: finite values print as their shortest round-trip form, and
    /// NaN/±inf as the strings `"NaN"`/`"inf"`/`"-inf"`, so a document
    /// stays parseable even when the value it records has gone bad.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything convertible to [`Json`].
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Multi-line rendering: two-space indent, one field or element per
    /// line, `"key": value`. No trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// One-line rendering with `", "` and `": "` separators — one history
    /// line per document. No trailing newline.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent` is the current nesting depth when pretty, `None` when
    /// compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::Int(i) => write!(out, "{i}").unwrap(),
            Json::Num(v) if v.is_finite() => write!(out, "{v}").unwrap(),
            Json::Num(v) => write!(out, "\"{v}\"").unwrap(),
            Json::Str(s) => write!(out, "\"{}\"", escape_json(s)).unwrap(),
            Json::Arr(items) => {
                write_seq(out, indent, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Json::Obj(fields) => {
                write_seq(out, indent, ('{', '}'), fields.iter().map(|(k, v)| (Some(k), v)));
            }
        }
    }
}

fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: impl Iterator<Item = (Option<&'a String>, &'a Json)>,
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    out.push(open);
    let mut any = false;
    for (key, value) in items {
        if any {
            out.push(',');
        }
        match indent {
            Some(depth) => newline(out, depth + 1),
            None if any => out.push(' '),
            None => {}
        }
        if let Some(key) = key {
            write!(out, "\"{}\": ", escape_json(key)).unwrap();
        }
        value.write(out, indent.map(|d| d + 1));
        any = true;
    }
    if let (true, Some(depth)) = (any, indent) {
        newline(out, depth);
    }
    out.push(close);
}

/// Escape a string for inclusion inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
from_int!(u64, usize);

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("name", "a\"b".into()),
            ("n", 3u64.into()),
            ("x", 1.5.into()),
            ("bad", f64::NAN.into()),
            ("none", None::<u64>.into()),
            ("list", Json::arr([1.0, f64::NEG_INFINITY])),
            ("empty", Json::arr(Vec::<u64>::new())),
            ("nested", Json::obj([("ok", Json::Bool(true))])),
        ])
    }

    #[test]
    fn compact_is_one_line_with_spaced_separators() {
        assert_eq!(
            sample().compact(),
            concat!(
                r#"{"name": "a\"b", "n": 3, "x": 1.5, "bad": "NaN", "none": null, "#,
                r#""list": [1, "-inf"], "empty": [], "nested": {"ok": true}}"#
            )
        );
    }

    #[test]
    fn pretty_indents_two_spaces_per_level() {
        let want = "{\n  \"n\": 3,\n  \"list\": [\n    1,\n    \"inf\"\n  ],\n  \"nested\": {\n    \"ok\": false\n  },\n  \"empty\": {}\n}";
        let j = Json::obj([
            ("n", 3u64.into()),
            ("list", Json::arr([1.0, f64::INFINITY])),
            ("nested", Json::obj([("ok", Json::Bool(false))])),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        assert_eq!(j.pretty(), want);
    }

    #[test]
    fn integers_render_exactly() {
        assert_eq!(Json::from(u64::MAX).compact(), "18446744073709551615");
        assert_eq!(Json::Int(-7).compact(), "-7");
    }

    #[test]
    fn escape_json_handles_control_chars() {
        assert_eq!(escape_json("a\"b"), r#"a\"b"#);
        assert_eq!(escape_json("a\\b"), r#"a\\b"#);
        assert_eq!(escape_json("a\nb"), r#"a\nb"#);
        assert_eq!(escape_json("a\u{0001}b"), "a\\u0001b");
    }
}
