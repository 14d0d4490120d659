//! Evaluation levels (paper §4).

/// How much internal access the analyst has to the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EvaluationLevel {
    /// Black box: stream in, results out, external process observation
    /// only ("agnostic profiling tools").
    Level0,
    /// The system exposes a native metrics interface (here: a
    /// [`gt_metrics::MetricsHub`]) that loggers can read at runtime.
    Level1,
    /// Full source access: measurement logic is injected into the system
    /// (per-component counters, intermediate result dumps).
    Level2,
}

impl EvaluationLevel {
    /// Whether this level grants at least the access of `other`.
    pub fn includes(self, other: EvaluationLevel) -> bool {
        self >= other
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            EvaluationLevel::Level0 => "level 0 (black box)",
            EvaluationLevel::Level1 => "level 1 (native metrics)",
            EvaluationLevel::Level2 => "level 2 (instrumented source)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_reflects_access() {
        assert!(EvaluationLevel::Level2.includes(EvaluationLevel::Level0));
        assert!(EvaluationLevel::Level1.includes(EvaluationLevel::Level1));
        assert!(!EvaluationLevel::Level0.includes(EvaluationLevel::Level1));
    }

    #[test]
    fn labels() {
        assert!(EvaluationLevel::Level0.label().contains("black box"));
        assert!(EvaluationLevel::Level2.label().contains("instrumented"));
    }
}
