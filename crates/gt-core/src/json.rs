//! The one reader for the flat JSON lines this workspace writes by hand —
//! the matrix journal and the `BENCH_*.json` trajectory files. It finds a
//! field by key in one object line and reads a string, a number or a
//! `[["name", number], …]` pair array. Whitespace after `:` and `,` is
//! allowed and field order is free. It is not a general JSON parser:
//! string values never contain `"` (their writers guarantee it) and
//! objects are flat.

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
