//! The one reader and the one writer for the flat JSON lines this
//! workspace writes by hand — the matrix journal and the `BENCH_*.json`
//! trajectory files. The reader finds a field by key in one object line
//! and reads a string, a number or a `[["name", number], …]` pair array.
//! Whitespace after `:` and `,` is allowed and field order is free. It is
//! not a general JSON parser: objects are flat and a string ends at the
//! next `"`, so the writer ([`ObjectWriter`], [`quote`]) refuses a string
//! value holding `"` or `\`.

use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// The text after `"key":`, leading whitespace skipped.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pattern = format!("\"{key}\":");
    let start = line
        .find(&pattern)
        .ok_or_else(|| format!("missing field `{key}`"))?;
    Ok(line[start + pattern.len()..].trim_start())
}

/// Reads the string field `"key": "VALUE"`.
pub fn extract_str<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    field(line, key)?
        .strip_prefix('"')
        .and_then(|rest| rest.split_once('"'))
        .map(|(value, _)| value)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

/// Reads the numeric field `"key": NUMBER` as a `T`, parsed from its text
/// so an integer keeps every bit.
pub fn extract_num<T: FromStr>(line: &str, key: &str) -> Result<T, String> {
    let rest = field(line, key)?;
    let text = rest[..rest.find([',', '}', ']']).unwrap_or(rest.len())].trim();
    text.parse()
        .map_err(|_| format!("field `{key}`: bad number `{text}`"))
}

/// Reads the pair array `"key": [["name", NUMBER], …]`.
pub fn extract_pairs(line: &str, key: &str) -> Result<Vec<(String, f64)>, String> {
    let bad = || format!("field `{key}` is not a [[\"name\", number], …] array");
    let mut rest = field(line, key)?.strip_prefix('[').ok_or_else(bad)?;
    let mut pairs = Vec::new();
    loop {
        rest = rest.trim_start();
        let Some(pair) = rest.strip_prefix('[') else {
            break;
        };
        let (name, tail) = pair
            .trim_start()
            .strip_prefix('"')
            .and_then(|pair| pair.split_once('"'))
            .ok_or_else(bad)?;
        let (value, tail) = tail
            .trim_start()
            .strip_prefix(',')
            .and_then(|tail| tail.split_once(']'))
            .ok_or_else(bad)?;
        pairs.push((name.to_owned(), value.trim().parse().map_err(|_| bad())?));
        rest = tail.trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    rest.starts_with(']').then_some(pairs).ok_or_else(bad)
}

/// `value` as a JSON string, refused if it holds `"` or `\` (the reader
/// reads no escapes).
pub fn quote(value: &str) -> Result<String, String> {
    match value.contains(['"', '\\']) {
        true => Err(format!("a JSON string cannot hold `\"` or `\\`: {value}")),
        false => Ok(format!("\"{value}\"")),
    }
}

/// Writes one flat JSON object line, fields in call order: compact, or
/// `spaced` with a space after each `,` and `:`. A string [`quote`]
/// refuses fails [`Self::finish`].
#[derive(Debug, Default)]
pub struct ObjectWriter {
    fields: String,
    separators: [&'static str; 2],
    refused: Option<String>,
}

impl ObjectWriter {
    /// An empty object.
    pub fn new(spaced: bool) -> Self {
        let separators = if spaced { [", ", ": "] } else { [",", ":"] };
        ObjectWriter {
            separators,
            ..Self::default()
        }
    }

    /// `"key":value`, the value written as it displays (a number).
    pub fn num(mut self, key: &str, value: impl Display) -> Self {
        let [comma, colon] = self.separators;
        let comma = if self.fields.is_empty() { "" } else { comma };
        let _ = write!(self.fields, "{comma}\"{key}\"{colon}{value}");
        self
    }

    /// `"key":"value"`.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let value = self.quote(value);
        self.num(key, value)
    }

    /// `"key":[["name",value],…]`. A value keeps its shortest round-trip
    /// form, with a `.0` when integral so that it reads as a float.
    pub fn pairs(mut self, key: &str, pairs: &[(String, f64)]) -> Self {
        let comma = self.separators[0];
        let mut array = Vec::with_capacity(pairs.len());
        for (name, v) in pairs {
            let integral = v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15;
            let v = if integral {
                format!("{v:.1}")
            } else {
                v.to_string()
            };
            array.push(format!("[{}{comma}{v}]", self.quote(name)));
        }
        self.num(key, format_args!("[{}]", array.join(comma)))
    }

    fn quote(&mut self, value: &str) -> String {
        quote(value).unwrap_or_else(|refused| {
            self.refused.get_or_insert(refused);
            String::new()
        })
    }

    /// The object's line (no newline), or the first string refused.
    pub fn finish(self) -> Result<String, String> {
        self.refused
            .map_or_else(|| Ok(format!("{{{}}}", self.fields)), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"cell":"a=b;c=d@1","rep":3,"seed":18446744073709551615, "x": -2.5e-3,"metrics":[["events",500.0],["p99",0.30000000000000004]]}"#;

    #[test]
    fn reads_strings_numbers_and_pairs() {
        assert_eq!(extract_str(LINE, "cell"), Ok("a=b;c=d@1"));
        assert_eq!(extract_num(LINE, "rep"), Ok(3u32));
        assert_eq!(
            extract_num(LINE, "seed"),
            Ok(u64::MAX),
            "integers keep every bit"
        );
        assert_eq!(extract_num(LINE, "x"), Ok(-2.5e-3));
        assert_eq!(
            extract_pairs(LINE, "metrics"),
            Ok(vec![("events".into(), 500.0), ("p99".into(), 0.1 + 0.2)])
        );
    }

    #[test]
    fn tolerates_whitespace_and_empty_arrays() {
        let line =
            r#"{ "name": "parse/owned", "rounds": 9, "m": [ [ "a" , 1 ] , ["b",2] ], "e": [] }"#;
        assert_eq!(extract_str(line, "name"), Ok("parse/owned"));
        assert_eq!(extract_num(line, "rounds"), Ok(9u32));
        let pairs = vec![("a".into(), 1.0), ("b".into(), 2.0)];
        assert_eq!(extract_pairs(line, "m"), Ok(pairs));
        assert_eq!(extract_pairs(line, "e"), Ok(vec![]));
    }

    #[test]
    fn the_writer_writes_what_the_reader_reads() {
        let line = ObjectWriter::new(false)
            .str("cell", "a=b;c=d@1")
            .num("seed", u64::MAX)
            .pairs(
                "metrics",
                &[("events".into(), 500.0), ("p99".into(), 0.1 + 0.2)],
            )
            .finish()
            .unwrap();
        let expected = r#"{"cell":"a=b;c=d@1","seed":18446744073709551615,"metrics":[["events",500.0],["p99",0.30000000000000004]]}"#;
        assert_eq!(line, expected);
        assert_eq!(extract_num(&line, "seed"), Ok(u64::MAX));
        assert_eq!(
            extract_pairs(&line, "metrics"),
            Ok(vec![("events".into(), 500.0), ("p99".into(), 0.1 + 0.2)])
        );
        let spaced = ObjectWriter::new(true)
            .str("name", "parse/owned")
            .num("rounds", 9)
            .pairs("e", &[("a".into(), 1e15)])
            .finish();
        let expected = r#"{"name": "parse/owned", "rounds": 9, "e": [["a", 1000000000000000]]}"#;
        assert_eq!(spaced.as_deref(), Ok(expected));
        for bad in ["say \"hi\"", "C:\\dir"] {
            let refused = ObjectWriter::new(false).str("a", bad).num("b", 1).finish();
            assert!(refused.unwrap_err().contains(bad), "{bad}");
            let refused = ObjectWriter::new(false)
                .pairs("m", &[(bad.into(), 1.0)])
                .finish();
            assert!(refused.is_err(), "{bad}");
        }
    }

    #[test]
    fn names_what_is_missing_or_malformed() {
        assert!(extract_str(LINE, "nope").unwrap_err().contains("nope"));
        assert!(
            extract_str(LINE, "rep").is_err(),
            "a number is not a string"
        );
        assert!(extract_num::<u32>(LINE, "cell").is_err());
        assert!(extract_num::<u32>(LINE, "seed").is_err(), "out of range");
        for bad in [
            r#"{"m":[["a",1]"#,
            r#"{"m":[["a" 1]]}"#,
            r#"{"m":[["a",x]]}"#,
            r#"{"m":5}"#,
        ] {
            assert!(extract_pairs(bad, "m").is_err(), "{bad}");
        }
    }
}
