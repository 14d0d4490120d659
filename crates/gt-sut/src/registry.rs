//! The string-keyed platform registry and its option bag.

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use crate::sut::SystemUnderTest;

/// String-keyed start-up options for a platform, with typed getters.
///
/// Options travel as strings so they can come straight from CLI flags
/// (`--opt shards=4`) or spec files; the typed getters parse on demand and
/// report malformed values as [`io::ErrorKind::InvalidInput`].
#[derive(Debug, Clone, Default)]
pub struct SutOptions {
    params: BTreeMap<String, String>,
}

/// The options as `key=value` pairs in key order, joined by `,`.
impl fmt::Display for SutOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (key, value)) in self.params.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}{key}={value}")?;
        }
        Ok(())
    }
}

impl SutOptions {
    /// An empty option bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets one option (builder style). Values are stored stringified.
    #[must_use]
    pub fn set(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.insert(key.into(), value.to_string());
        self
    }

    /// Inserts one option in place (for loops over parsed CLI pairs).
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.params.insert(key.into(), value.into());
    }

    /// The raw string value, if set.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// Whether any option is set.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, ty: &str) -> io::Result<Option<T>> {
        match self.params.get(key) {
            None => Ok(None),
            Some(raw) => raw.trim().parse().map(Some).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("option `{key}`: expected {ty}, got `{raw}`"),
                )
            }),
        }
    }

    /// The value parsed as `usize`, if set.
    pub fn get_usize(&self, key: &str) -> io::Result<Option<usize>> {
        self.parsed(key, "an unsigned integer")
    }

    /// The value parsed as `u64`, if set.
    pub fn get_u64(&self, key: &str) -> io::Result<Option<u64>> {
        self.parsed(key, "an unsigned integer")
    }

    /// The value parsed as `f64`, if set.
    pub fn get_f64(&self, key: &str) -> io::Result<Option<f64>> {
        self.parsed(key, "a number")
    }

    /// The value parsed as a microsecond count into a [`std::time::Duration`].
    pub fn get_duration_micros(&self, key: &str) -> io::Result<Option<std::time::Duration>> {
        Ok(self.get_u64(key)?.map(std::time::Duration::from_micros))
    }

    /// The `shards` option, validated: a positive integer no larger than
    /// [`MAX_SHARDS`]. Unlike the generic string getters (which accept any
    /// value silently until a platform happens to parse it), this getter
    /// rejects nonsense up front with a typed [`ShardsError`], so a typo
    /// like `shards=0` or `shards=lots` fails the run at start-up instead
    /// of silently running serial.
    pub fn get_shards(&self) -> Result<Option<usize>, ShardsError> {
        let Some(raw) = self.params.get("shards") else {
            return Ok(None);
        };
        let shards: usize = raw
            .trim()
            .parse()
            .map_err(|_| ShardsError::NotANumber(raw.clone()))?;
        if shards == 0 {
            return Err(ShardsError::Zero);
        }
        if shards > MAX_SHARDS {
            return Err(ShardsError::TooLarge(shards));
        }
        Ok(Some(shards))
    }
}

/// Upper bound accepted by [`SutOptions::get_shards`]. Far above anything
/// a single-host run can use productively; values beyond it are treated
/// as configuration mistakes, not requests.
pub const MAX_SHARDS: usize = 1024;

/// Why a `shards=` option was rejected by [`SutOptions::get_shards`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardsError {
    /// The value is not an unsigned integer.
    NotANumber(String),
    /// `shards=0`: at least one shard is required.
    Zero,
    /// The value exceeds [`MAX_SHARDS`].
    TooLarge(usize),
}

impl fmt::Display for ShardsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardsError::NotANumber(raw) => {
                write!(
                    f,
                    "option `shards`: expected an unsigned integer, got `{raw}`"
                )
            }
            ShardsError::Zero => write!(f, "option `shards`: at least one shard is required"),
            ShardsError::TooLarge(got) => write!(
                f,
                "option `shards`: {got} exceeds the maximum of {MAX_SHARDS}"
            ),
        }
    }
}

impl std::error::Error for ShardsError {}

impl From<ShardsError> for io::Error {
    fn from(e: ShardsError) -> Self {
        io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// A platform builder: spawns the platform from an option bag.
pub(crate) type SutBuilder =
    Box<dyn Fn(&SutOptions) -> io::Result<Box<dyn SystemUnderTest>> + Send + Sync>;

/// A string-keyed registry of platform builders.
///
/// Experiments select platforms by name; the bench and workload binaries
/// register the in-tree platforms and start them through here instead of
/// hard-wiring connectors.
#[derive(Default)]
pub struct SutRegistry {
    builders: BTreeMap<String, SutBuilder>,
}

impl SutRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a builder under `name`, replacing any previous one.
    pub fn register<F>(&mut self, name: impl Into<String>, builder: F)
    where
        F: Fn(&SutOptions) -> io::Result<Box<dyn SystemUnderTest>> + Send + Sync + 'static,
    {
        self.builders.insert(name.into(), Box::new(builder));
    }

    /// The registered platform names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.builders.keys().map(String::as_str).collect()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.builders.contains_key(name)
    }

    /// Spawns the named platform.
    pub fn start(
        &self,
        name: &str,
        options: &SutOptions,
    ) -> Result<Box<dyn SystemUnderTest>, SutError> {
        let builder = self.builders.get(name).ok_or_else(|| SutError::Unknown {
            name: name.to_owned(),
            available: self.names().iter().map(|s| s.to_string()).collect(),
        })?;
        builder(options).map_err(SutError::Start)
    }
}

impl fmt::Debug for SutRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SutRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Why a platform could not be spawned.
#[derive(Debug)]
pub enum SutError {
    /// No builder is registered under the requested name.
    Unknown {
        /// The requested name.
        name: String,
        /// What the registry does know.
        available: Vec<String>,
    },
    /// The builder ran but failed to start the platform.
    Start(io::Error),
}

impl fmt::Display for SutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SutError::Unknown { name, available } => {
                write!(
                    f,
                    "unknown system under test `{name}` (available: {})",
                    available.join(", ")
                )
            }
            SutError::Start(e) => write!(f, "system under test failed to start: {e}"),
        }
    }
}

impl std::error::Error for SutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SutError::Start(e) => Some(e),
            SutError::Unknown { .. } => None,
        }
    }
}

impl From<io::Error> for SutError {
    fn from(e: io::Error) -> Self {
        SutError::Start(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::EvaluationLevel;
    use crate::sut::SutReport;
    use gt_replayer::{CollectSink, EventSink};
    use std::any::Any;

    struct NullSut;

    impl SystemUnderTest for NullSut {
        fn name(&self) -> &str {
            "null"
        }

        fn level(&self) -> EvaluationLevel {
            EvaluationLevel::Level0
        }

        fn connector(&mut self) -> io::Result<Box<dyn EventSink + Send>> {
            Ok(Box::new(CollectSink::new()))
        }

        fn shutdown(self: Box<Self>) -> SutReport {
            SutReport::new("null")
        }

        fn as_any(&mut self) -> &mut dyn Any {
            self
        }

        fn into_any(self: Box<Self>) -> Box<dyn Any> {
            self
        }
    }

    fn registry() -> SutRegistry {
        let mut registry = SutRegistry::new();
        registry.register("null", |_options| {
            Ok(Box::new(NullSut) as Box<dyn SystemUnderTest>)
        });
        registry
    }

    #[test]
    fn start_known_and_unknown() {
        let registry = registry();
        assert!(registry.contains("null"));
        assert_eq!(registry.names(), ["null"]);
        let sut = registry.start("null", &SutOptions::new()).unwrap();
        assert_eq!(sut.name(), "null");
        assert_eq!(sut.level(), EvaluationLevel::Level0);
        match registry.start("missing", &SutOptions::new()) {
            Err(SutError::Unknown { name, available }) => {
                assert_eq!(name, "missing");
                assert_eq!(available, ["null"]);
            }
            Err(other) => panic!("expected Unknown, got {other}"),
            Ok(_) => panic!("expected Unknown, got a running SUT"),
        }
    }

    #[test]
    fn options_parse_typed_values() {
        let options = SutOptions::new()
            .set("shards", 4)
            .set("epsilon", 0.05)
            .set("cost_us", 150);
        assert_eq!(options.get_usize("shards").unwrap(), Some(4));
        assert_eq!(options.get_f64("epsilon").unwrap(), Some(0.05));
        assert_eq!(
            options.get_duration_micros("cost_us").unwrap(),
            Some(std::time::Duration::from_micros(150))
        );
        assert_eq!(options.get_usize("absent").unwrap(), None);
        assert_eq!(options.get("shards"), Some("4"));
    }

    #[test]
    fn malformed_option_is_invalid_input() {
        let options = SutOptions::new().set("shards", "many");
        let err = options.get_usize("shards").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("shards"));
    }

    #[test]
    fn shards_getter_accepts_valid_counts() {
        assert_eq!(SutOptions::new().get_shards().unwrap(), None);
        assert_eq!(
            SutOptions::new().set("shards", 1).get_shards().unwrap(),
            Some(1)
        );
        assert_eq!(
            SutOptions::new().set("shards", " 8 ").get_shards().unwrap(),
            Some(8)
        );
        assert_eq!(
            SutOptions::new()
                .set("shards", MAX_SHARDS)
                .get_shards()
                .unwrap(),
            Some(MAX_SHARDS)
        );
    }

    #[test]
    fn shards_getter_rejects_zero() {
        let err = SutOptions::new().set("shards", 0).get_shards().unwrap_err();
        assert_eq!(err, ShardsError::Zero);
        assert!(err.to_string().contains("at least one shard"));
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn shards_getter_rejects_non_numeric() {
        for raw in ["many", "-4", "3.5", ""] {
            let err = SutOptions::new()
                .set("shards", raw)
                .get_shards()
                .unwrap_err();
            assert_eq!(err, ShardsError::NotANumber(raw.to_owned()), "raw `{raw}`");
            assert!(err.to_string().contains("shards"), "raw `{raw}`");
        }
    }

    #[test]
    fn shards_getter_rejects_absurd_counts() {
        let err = SutOptions::new()
            .set("shards", MAX_SHARDS + 1)
            .get_shards()
            .unwrap_err();
        assert_eq!(err, ShardsError::TooLarge(MAX_SHARDS + 1));
        assert!(err.to_string().contains("1024"));
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn start_error_passes_through() {
        let mut registry = SutRegistry::new();
        registry.register("broken", |_options| Err(io::Error::other("boom")));
        match registry.start("broken", &SutOptions::new()) {
            Err(SutError::Start(e)) => assert_eq!(e.to_string(), "boom"),
            Err(other) => panic!("expected Start, got {other}"),
            Ok(_) => panic!("expected Start, got a running SUT"),
        }
    }
}
