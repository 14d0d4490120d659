//! The one tokenizer for every textual spec: rate patterns, loop models,
//! fault pipelines, chaos and netem schedules, matrix lines and `gt-run`'s
//! flags. Four shapes cover them all:
//!
//! * a **list** ([`list`]) of items split at one separator (`,` `;` `|`);
//! * a **pair** ([`key_value`]), `key=value`, split at the first `=`;
//! * a **positional** form ([`Positional`]), `kind:arg:…`, its arguments
//!   read in order;
//! * a **clause** ([`parse_clauses`]), `kind@trigger,key=value,…`, its
//!   parameters read by name.
//!
//! One whitespace rule holds for all four: whitespace around a separator
//! is ignored, and so is an empty list item. A list with no item is an
//! error. A positional argument is never skipped, since its position is
//! its name. This module reads the shape only: what a kind, a trigger or
//! a value means is the caller's own table. Every error is a [`SpecError`]
//! naming the whole spec and the part of it that did not read.

use std::fmt;
use std::str::FromStr;

/// A spec that did not read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The whole spec, as written.
    pub spec: String,
    /// The part of it that did not read (the whole spec when no narrower
    /// part is to blame).
    pub part: String,
    /// Why it did not read.
    pub reason: String,
}

impl SpecError {
    /// An error in `part` of `spec`.
    pub fn new(spec: &str, part: &str, reason: impl Into<String>) -> Self {
        SpecError {
            spec: spec.to_owned(),
            part: part.to_owned(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.spec)?;
        if !self.part.is_empty() && self.part != self.spec {
            write!(f, " at `{}`", self.part)?;
        }
        write!(f, ": {}", self.reason)
    }
}

impl std::error::Error for SpecError {}

impl From<SpecError> for String {
    fn from(error: SpecError) -> Self {
        error.to_string()
    }
}

/// The items of `text` split at `sep`, trimmed, empty ones skipped.
fn items(text: &str, sep: char) -> impl Iterator<Item = &str> {
    text.split(sep)
        .map(str::trim)
        .filter(|item| !item.is_empty())
}

/// Reads every item of `text` (all or part of `spec`) with `read`; a list
/// with no item is an error.
pub fn list<'a, T>(
    spec: &str,
    text: &'a str,
    sep: char,
    read: impl FnMut(&'a str) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    let out = items(text, sep).map(read).collect::<Result<Vec<T>, _>>()?;
    if out.is_empty() {
        return Err(SpecError::new(spec, text, "is empty"));
    }
    Ok(out)
}

/// Splits `text` (all or part of `spec`) at its first `=` into a trimmed
/// key and value; a missing `=` or an empty key is an error.
pub fn key_value<'a>(spec: &str, text: &'a str) -> Result<(&'a str, &'a str), SpecError> {
    match text.split_once('=') {
        Some((key, value)) if !key.trim().is_empty() => Ok((key.trim(), value.trim())),
        _ => Err(SpecError::new(spec, text, "expected key=value")),
    }
}

/// Parses the trimmed `text` (all or part of `spec`) as a `T`, called
/// `name` in the error.
pub fn value<T: FromStr>(spec: &str, text: &str, name: &str) -> Result<T, SpecError> {
    let text = text.trim();
    text.parse()
        .map_err(|_| SpecError::new(spec, text, format!("bad {name}")))
}

/// A `kind:arg:…` item: the kind, then its arguments in order.
pub struct Positional<'a> {
    spec: &'a str,
    text: &'a str,
    /// The kind, before the first `:`.
    pub kind: &'a str,
    args: std::str::Split<'a, char>,
}

impl<'a> Positional<'a> {
    /// Splits `text`, an item of `spec` or all of it.
    pub fn new(spec: &'a str, text: &'a str) -> Self {
        let mut args = text.split(':');
        let kind = args.next().unwrap_or_default().trim();
        Positional {
            spec,
            text,
            kind,
            args,
        }
    }

    /// Reads the next argument as a `T`, called `name` in the error.
    pub fn arg<T: FromStr>(&mut self, name: &str) -> Result<T, SpecError> {
        match self.args.next() {
            Some(arg) => value(self.spec, arg, name),
            None => Err(self.error(format!("missing {name}"))),
        }
    }

    /// An error naming this item.
    pub fn error(&self, reason: impl Into<String>) -> SpecError {
        SpecError::new(self.spec, self.text, reason)
    }

    /// Rejects an argument no [`Self::arg`] read.
    pub fn finish(mut self) -> Result<(), SpecError> {
        match self.args.next() {
            Some(_) => Err(self.error("has trailing arguments")),
            None => Ok(()),
        }
    }
}

/// One `kind@trigger,key=value,…` clause, split but not interpreted; a key
/// may appear once.
pub struct Clause<'a> {
    spec: &'a str,
    text: &'a str,
    /// The fault kind, before `@`.
    pub kind: &'a str,
    /// The raw trigger text, after `@`.
    pub trigger: &'a str,
    /// `key=value` parameters not yet taken, in spec order.
    params: Vec<(&'a str, &'a str)>,
}

impl<'a> Clause<'a> {
    fn split(spec: &'a str, text: &'a str) -> Result<Self, SpecError> {
        let (head, rest) = text.split_once(',').unwrap_or((text, ""));
        let (kind, trigger) = head
            .split_once('@')
            .ok_or_else(|| SpecError::new(spec, text, "expected kind@trigger"))?;
        let mut params: Vec<(&str, &str)> = Vec::new();
        for part in items(rest, ',') {
            let (key, value) = key_value(spec, part)?;
            if params.iter().any(|(k, _)| *k == key) {
                return Err(SpecError::new(spec, part, "duplicate parameter"));
            }
            params.push((key, value));
        }
        Ok(Clause {
            spec,
            text,
            kind: kind.trim(),
            trigger: trigger.trim(),
            params,
        })
    }

    /// An error naming this clause.
    pub fn error(&self, reason: impl Into<String>) -> SpecError {
        SpecError::new(self.spec, self.text, reason)
    }

    /// Removes `key` and reads its value with `parse`; `None` when absent.
    pub fn take_with<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, SpecError> {
        let Some(at) = self.params.iter().position(|(k, _)| *k == key) else {
            return Ok(None);
        };
        let (_, value) = self.params.remove(at);
        parse(value)
            .map(Some)
            .ok_or_else(|| SpecError::new(self.spec, value, format!("bad {key}")))
    }

    /// Like [`Self::take_with`], but the clause's kind needs `key`.
    pub fn require_with<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, SpecError> {
        self.take_with(key, parse)?
            .ok_or_else(|| self.error(format!("{} needs {key}=", self.kind)))
    }

    /// Removes `key` and parses its value as a `T`; `None` when absent.
    pub fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, SpecError> {
        self.take_with(key, |value| value.parse().ok())
    }

    /// Like [`Self::take`], but the clause's kind needs `key`.
    pub fn require<T: FromStr>(&mut self, key: &str) -> Result<T, SpecError> {
        self.require_with(key, |value| value.parse().ok())
    }

    /// Rejects any parameter no getter took.
    fn finish(self) -> Result<(), SpecError> {
        match self.params.first() {
            Some((key, _)) => Err(SpecError::new(
                self.spec,
                key,
                format!("{} has no parameter {key}", self.kind),
            )),
            None => Ok(()),
        }
    }
}

/// Splits `spec` into `;`-separated clauses and reads each with `read`,
/// which takes the parameters its kind knows; any parameter it leaves is
/// an error, and so is a spec without a clause.
pub fn parse_clauses<T>(
    spec: &str,
    mut read: impl FnMut(&mut Clause<'_>) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    list(spec, spec, ';', |text| {
        let mut clause = Clause::split(spec, text)?;
        let out = read(&mut clause)?;
        clause.finish()?;
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every clause as `kind|trigger|key=value,…`, nothing taken.
    fn shape(spec: &str) -> Result<Vec<String>, SpecError> {
        parse_clauses(spec, |clause| {
            let params: Vec<String> = std::mem::take(&mut clause.params)
                .iter()
                .map(|(key, value)| format!("{key}={value}"))
                .collect();
            Ok(format!(
                "{}|{}|{}",
                clause.kind,
                clause.trigger,
                params.join(",")
            ))
        })
    }

    #[test]
    fn splits_kind_trigger_and_parameters() {
        assert_eq!(
            shape("crash@marker:a@b,worker=1,x=y=z; stall@5").unwrap(),
            ["crash|marker:a@b|worker=1,x=y=z", "stall|5|"]
        );
    }

    #[test]
    fn whitespace_and_empty_parts_are_ignored() {
        assert_eq!(
            shape(" stall @ 5 , ms = 1 ,, ; ;").unwrap(),
            shape("stall@5,ms=1").unwrap()
        );
    }

    #[test]
    fn rejects_what_no_layer_could_read() {
        for bad in [
            "",
            " ; ",
            "stall",
            ",stall@5",
            "stall@5,ms",
            "stall@5,=1",
            "stall@5,ms=1,ms=2",
        ] {
            assert!(shape(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn getters_take_require_and_finish() {
        let spec = "stall@5,ms=7,x=no,extra=1";
        let mut clause = Clause::split(spec, spec).unwrap();
        assert_eq!(clause.take::<u64>("absent"), Ok(None));
        assert_eq!(clause.require::<u64>("ms"), Ok(7));
        assert!(clause.require::<u64>("ms").is_err(), "taken twice");
        assert!(clause.take::<u64>("x").is_err(), "not a number");
        assert_eq!(clause.take_with("extra", |v| Some(v.len())), Ok(Some(1)));
        assert!(clause.finish().is_ok());
        let leftover = Clause::split("stall@5,ms=7", "stall@5,ms=7").unwrap();
        assert!(leftover.finish().is_err());
    }

    #[test]
    fn positional_arguments_are_read_in_order_and_trimmed() {
        let mut item = Positional::new("flash : 5 :4", "flash : 5 :4");
        assert_eq!(item.kind, "flash");
        assert_eq!(item.arg::<u32>("AT"), Ok(5));
        assert_eq!(item.arg::<u32>("FACTOR"), Ok(4));
        assert!(item.arg::<u32>("HOLD").is_err(), "missing");
        let mut extra = Positional::new("partial:5:6", "partial:5:6");
        assert_eq!(extra.arg::<u32>("W"), Ok(5));
        assert!(extra.finish().is_err(), "trailing");
        let mut empty = Positional::new("diurnal::1", "diurnal::1");
        assert!(
            empty.arg::<f64>("PERIOD").is_err(),
            "an empty argument is not skipped"
        );
    }

    #[test]
    fn lists_skip_empty_items_but_not_an_empty_list() {
        let read = |item: &str| Ok(item.to_owned());
        assert_eq!(list("a, ,b,", "a, ,b,", ',', read).unwrap(), ["a", "b"]);
        assert!(list(" , ", " , ", ',', read).is_err());
        assert_eq!(key_value("k", " a = b=c "), Ok(("a", "b=c")));
        assert!(key_value("=4", "=4").is_err(), "an empty key");
        assert!(key_value("k", "k").is_err(), "no `=`");
    }

    #[test]
    fn errors_name_the_whole_spec_and_the_part() {
        let error = value::<u32>("drop:x,dup:1", "x", "P").unwrap_err();
        assert_eq!(error.to_string(), "`drop:x,dup:1` at `x`: bad P");
        let whole = SpecError::new("partial:0", "partial:0", "window must be positive");
        assert_eq!(whole.to_string(), "`partial:0`: window must be positive");
        let clause = shape("stall@5,ms=1,ms=2").unwrap_err();
        assert_eq!(
            (clause.spec.as_str(), clause.part.as_str()),
            ("stall@5,ms=1,ms=2", "ms=2")
        );
        for (spec, part) in [("stall@5,ms = x", "x"), ("stall@5,ms=1, frob = 2", "frob")] {
            let error = parse_clauses(spec, |clause| clause.require::<u64>("ms")).unwrap_err();
            assert_eq!((error.spec.as_str(), error.part.as_str()), (spec, part));
        }
    }
}
