//! Experimental-design enumeration (§2.3): "the analyst chooses a number
//! of setups. This can range from variations of a single parameter, to
//! full factorial designs where all levels of all factors are
//! considered."
//!
//! [`FactorSpace`] enumerates configurations; each configuration is a set
//! of `(factor, level)` assignments — a scenario-matrix cell, or one run of
//! `gt-run`'s flags.

use std::fmt;

use gt_core::spec::{self, SpecError};

/// A named factor with its levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factor {
    /// Factor name (e.g. `target_rate`).
    pub name: String,
    /// The levels to evaluate, as display strings.
    pub levels: Vec<String>,
}

impl Factor {
    /// Builds a factor from displayable levels.
    pub fn new<T: fmt::Display>(name: &str, levels: impl IntoIterator<Item = T>) -> Self {
        Factor {
            name: name.to_owned(),
            levels: levels.into_iter().map(|l| l.to_string()).collect(),
        }
    }
}

/// One concrete configuration: an assignment of a level to every factor.
pub type Assignment = Vec<(String, String)>;

/// A factor space supporting the two designs the paper names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactorSpace {
    factors: Vec<Factor>,
}

impl FactorSpace {
    /// An empty space (a single, empty configuration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a factor (builder style).
    #[must_use]
    pub fn factor<T: fmt::Display>(
        mut self,
        name: &str,
        levels: impl IntoIterator<Item = T>,
    ) -> Self {
        self.factors.push(Factor::new(name, levels));
        self
    }

    /// The factors.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Full factorial design: the cartesian product of all levels.
    pub fn full_factorial(&self) -> Vec<Assignment> {
        let mut out: Vec<Assignment> = vec![Vec::new()];
        for factor in &self.factors {
            assert!(
                !factor.levels.is_empty(),
                "factor `{}` has no levels",
                factor.name
            );
            let mut next = Vec::with_capacity(out.len() * factor.levels.len());
            for assignment in &out {
                for level in &factor.levels {
                    let mut extended = assignment.clone();
                    extended.push((factor.name.clone(), level.clone()));
                    next.push(extended);
                }
            }
            out = next;
        }
        out
    }

    /// One-factor-at-a-time design: every factor varied over its levels
    /// while all others stay at their first (baseline) level. The
    /// baseline configuration appears exactly once, first.
    pub fn one_factor_at_a_time(&self) -> Vec<Assignment> {
        let baseline: Assignment = self
            .factors
            .iter()
            .map(|f| {
                assert!(!f.levels.is_empty(), "factor `{}` has no levels", f.name);
                (f.name.clone(), f.levels[0].clone())
            })
            .collect();
        let mut out = vec![baseline.clone()];
        for (i, factor) in self.factors.iter().enumerate() {
            for level in factor.levels.iter().skip(1) {
                let mut assignment = baseline.clone();
                assignment[i].1 = level.clone();
                out.push(assignment);
            }
        }
        out
    }

    /// Reads a grid `A1,A2,..xB1,B2,..` (`gt-run --scale`) as two factors:
    /// `row` over the levels before the `x`, `column` over those after
    /// it, each a `,`-separated `gt_core::spec` list.
    pub fn grid(text: &str, row: &str, column: &str) -> Result<Self, SpecError> {
        let (rows, columns) = text
            .split_once('x')
            .ok_or_else(|| SpecError::new(text, text, "expected A1,A2,..xB1,B2,.."))?;
        let levels = |part| spec::list(text, part, ',', |level| Ok(level.to_owned()));
        Ok(FactorSpace::new()
            .factor(row, levels(rows)?)
            .factor(column, levels(columns)?))
    }

    /// Number of configurations in the full factorial design.
    pub fn full_factorial_size(&self) -> usize {
        self.factors.iter().map(|f| f.levels.len()).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> FactorSpace {
        FactorSpace::new()
            .factor("rate", [100, 1_000, 10_000])
            .factor("batch", [1, 10])
    }

    #[test]
    fn full_factorial_enumerates_product() {
        let configs = space().full_factorial();
        assert_eq!(configs.len(), 6);
        assert_eq!(space().full_factorial_size(), 6);
        // First config pairs the first levels.
        assert_eq!(
            configs[0],
            vec![
                ("rate".to_owned(), "100".to_owned()),
                ("batch".to_owned(), "1".to_owned()),
            ]
        );
        // All configurations are distinct.
        let mut sorted = configs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn ofat_varies_one_factor_per_config() {
        let configs = space().one_factor_at_a_time();
        // Baseline + 2 extra rates + 1 extra batch.
        assert_eq!(configs.len(), 4);
        let baseline = &configs[0];
        for config in &configs[1..] {
            let differing = config
                .iter()
                .zip(baseline)
                .filter(|(a, b)| a.1 != b.1)
                .count();
            assert_eq!(differing, 1, "{config:?}");
        }
    }

    #[test]
    fn empty_space_is_a_single_empty_config() {
        let space = FactorSpace::new();
        assert_eq!(space.full_factorial(), vec![Vec::new()]);
        assert_eq!(space.one_factor_at_a_time(), vec![Vec::new()]);
        assert_eq!(space.full_factorial_size(), 1);
    }

    #[test]
    fn a_grid_is_two_factors_in_row_major_order() {
        let grid = FactorSpace::grid(" 1, 8 x 10000,,40000", "clients", "rate").unwrap();
        let cells: Vec<String> = grid
            .full_factorial()
            .iter()
            .map(|cell| format!("{}@{}", cell[0].1, cell[1].1))
            .collect();
        assert_eq!(cells, ["1@10000", "1@40000", "8@10000", "8@40000"]);
        for bad in ["", "100", "x", "1x", "x100", " ,x1"] {
            assert!(
                FactorSpace::grid(bad, "a", "b").is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "has no levels")]
    fn empty_levels_rejected() {
        FactorSpace::new().factor::<u32>("x", []).full_factorial();
    }
}
