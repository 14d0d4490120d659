//! The fault-clause grammar every runtime fault layer shares.
//!
//! A spec is a `;`-separated list of clauses, each
//! `kind@trigger[,key=value…]`. Whitespace around `;`, `@`, `,` and `=` is
//! ignored, and so are empty clauses and empty `,,` parts; a key may appear
//! once per clause. This module reads the shape only: what a kind, a
//! trigger or a value means is the layer's own table — chaos reads the
//! trigger as a sequence number or `marker:NAME`, netem as `Nms|Ns|N`.

use std::str::FromStr;

/// One clause, split into its parts but not interpreted.
pub struct Clause<'a> {
    /// The whole clause, for error messages.
    pub text: &'a str,
    /// The fault kind, before `@`.
    pub kind: &'a str,
    /// The raw trigger text, after `@`.
    pub trigger: &'a str,
    /// `key=value` parameters not yet taken, in spec order.
    params: Vec<(&'a str, &'a str)>,
}

impl<'a> Clause<'a> {
    fn split(text: &'a str) -> Result<Self, String> {
        let mut parts = text.split(',').map(str::trim);
        let head = parts.next().unwrap_or_default();
        let (kind, trigger) = head
            .split_once('@')
            .ok_or_else(|| format!("clause `{text}`: expected kind@trigger"))?;
        let mut params: Vec<(&str, &str)> = Vec::new();
        for part in parts.filter(|part| !part.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("clause `{text}`: expected key=value, got `{part}`"))?;
            let key = key.trim();
            if params.iter().any(|(k, _)| *k == key) {
                return Err(format!("clause `{text}`: duplicate parameter `{key}`"));
            }
            params.push((key, value.trim()));
        }
        Ok(Clause {
            text,
            kind: kind.trim(),
            trigger: trigger.trim(),
            params,
        })
    }

    /// Removes `key` and reads its value with `parse`; `None` when absent.
    pub fn take_with<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(at) = self.params.iter().position(|(k, _)| *k == key) else {
            return Ok(None);
        };
        let (_, value) = self.params.remove(at);
        parse(value)
            .map(Some)
            .ok_or_else(|| format!("clause `{}`: bad {key}={value}", self.text))
    }

    /// Like [`Self::take_with`], but the clause's kind needs `key`.
    pub fn require_with<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        self.take_with(key, parse)?
            .ok_or_else(|| format!("clause `{}`: {} needs {key}=", self.text, self.kind))
    }

    /// Removes `key` and parses its value as a `T`; `None` when absent.
    pub fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.take_with(key, |value| value.parse().ok())
    }

    /// Like [`Self::take`], but the clause's kind needs `key`.
    pub fn require<T: FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.require_with(key, |value| value.parse().ok())
    }

    /// Rejects any parameter no getter took.
    fn finish(self) -> Result<(), String> {
        match self.params.first() {
            Some((key, _)) => Err(format!("clause `{}`: unknown parameter `{key}`", self.text)),
            None => Ok(()),
        }
    }
}

/// Splits `spec` into clauses and reads each with `read`, which takes the
/// parameters its kind knows; any parameter it leaves is an error, and so
/// is a spec without a clause.
pub fn parse_clauses<T>(
    spec: &str,
    mut read: impl FnMut(&mut Clause<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for text in spec
        .split(';')
        .map(str::trim)
        .filter(|text| !text.is_empty())
    {
        let mut clause = Clause::split(text)?;
        out.push(read(&mut clause)?);
        clause.finish()?;
    }
    if out.is_empty() {
        return Err(format!("fault spec `{spec}` has no clauses"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every clause as `kind|trigger|key=value,…`, nothing taken.
    fn shape(spec: &str) -> Result<Vec<String>, String> {
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
            "stall@5,ms=1,ms=2",
        ] {
            assert!(shape(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn getters_take_require_and_finish() {
        let mut clause = Clause::split("stall@5,ms=7,x=no,extra=1").unwrap();
        assert_eq!(clause.take::<u64>("absent"), Ok(None));
        assert_eq!(clause.require::<u64>("ms"), Ok(7));
        assert!(clause.require::<u64>("ms").is_err(), "taken twice");
        assert!(clause.take::<u64>("x").is_err(), "not a number");
        assert_eq!(clause.take_with("extra", |v| Some(v.len())), Ok(Some(1)));
        assert!(clause.finish().is_ok());
        let leftover = Clause::split("stall@5,ms=7").unwrap();
        assert!(leftover.finish().is_err());
    }
}
