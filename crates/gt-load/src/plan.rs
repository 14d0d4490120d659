//! [`LoadPlan`]: the connections × rate × model × class mix of a run.

use std::fmt;

use gt_netem::NetemPlan;
use gt_replayer::pattern::RatePattern;

use crate::model::LoopModel;

/// One class of identical clients (e.g. "bulk" open-loop writers plus a
/// "probe" closed-loop class measuring service time).
#[derive(Debug, Clone)]
pub struct ClientClass {
    /// Class label, reported per class by the analysis.
    pub name: String,
    /// Concurrent connections of this class.
    pub connections: usize,
    /// Offered rate per connection, graph events per second.
    pub rate_per_connection: f64,
    /// Arrival/ack coupling model of this class.
    pub model: LoopModel,
}

impl ClientClass {
    /// A class offering `total_rate` spread evenly over `connections`.
    pub fn new(
        name: impl Into<String>,
        connections: usize,
        total_rate: f64,
        model: LoopModel,
    ) -> Self {
        assert!(connections > 0, "class needs at least one connection");
        assert!(
            total_rate.is_finite() && total_rate > 0.0,
            "class rate must be positive"
        );
        ClientClass {
            name: name.into(),
            connections,
            rate_per_connection: total_rate / connections as f64,
            model,
        }
    }
}

/// The traffic mix of a load run: one or more client classes plus the
/// seed that fixes both the stream partitioning and every client's
/// arrival schedule.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The client classes; at least one.
    pub classes: Vec<ClientClass>,
    /// Seed for partitioning and arrival schedules.
    pub seed: u64,
    /// Rate-variability shape (§4.4) every open-loop client's arrival
    /// intensity follows; [`RatePattern::Uniform`] is constant intensity.
    pub pattern: RatePattern,
    /// Optional network-fault plan: when set, every client dials the SUT
    /// through a [`gt_netem::NetemProxy`] running this schedule.
    pub netem: Option<NetemPlan>,
}

impl LoadPlan {
    /// A single-class plan: `connections` clients of one `model` jointly
    /// offering `total_rate`.
    pub fn single(connections: usize, total_rate: f64, model: LoopModel, seed: u64) -> Self {
        LoadPlan {
            classes: vec![ClientClass::new("main", connections, total_rate, model)],
            seed,
            pattern: RatePattern::Uniform,
            netem: None,
        }
    }

    /// Shapes every client's arrival intensity by a rate pattern
    /// (builder style).
    #[must_use]
    pub fn with_pattern(mut self, pattern: RatePattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Routes every client through a deterministic network-fault proxy
    /// (builder style).
    #[must_use]
    pub fn with_netem(mut self, netem: NetemPlan) -> Self {
        self.netem = Some(netem);
        self
    }

    /// Connections across all classes — the substream count.
    pub(crate) fn total_connections(&self) -> usize {
        self.classes.iter().map(|c| c.connections).sum()
    }

    /// The class labels, in declaration order.
    pub fn class_names(&self) -> Vec<&str> {
        self.classes.iter().map(|c| c.name.as_str()).collect()
    }
}

impl fmt::Display for LoadPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{}: {}x{:.0} e/s {}",
                    c.name, c.connections, c.rate_per_connection, c.model
                )
            })
            .collect();
        write!(f, "[{}] seed {}", classes.join("; "), self.seed)?;
        if self.pattern != RatePattern::Uniform {
            write!(f, " pattern {}", self.pattern)?;
        }
        if let Some(netem) = &self.netem {
            write!(f, " netem[{}]", netem.schedule.describe())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_plan_splits_rate_evenly() {
        let plan = LoadPlan::single(8, 40_000.0, LoopModel::Open, 1);
        assert_eq!(plan.total_connections(), 8);
        assert_eq!(plan.classes[0].rate_per_connection, 5_000.0);
    }

    #[test]
    fn class_mix_accumulates() {
        let mut plan = LoadPlan::single(4, 20_000.0, LoopModel::Open, 1);
        plan.classes
            .push(ClientClass::new("probe", 2, 100.0, LoopModel::Closed));
        assert_eq!(plan.total_connections(), 6);
        assert_eq!(plan.class_names(), vec!["main", "probe"]);
        assert_eq!(plan.classes[1].rate_per_connection, 50.0);
    }

    #[test]
    fn plan_describes_itself() {
        let plan = LoadPlan::single(2, 1000.0, LoopModel::PartialOpen { window: 64 }, 9);
        let text = plan.to_string();
        assert!(text.contains("2x500"), "{text}");
        assert!(text.contains("partial:64"), "{text}");
        assert!(text.contains("seed 9"), "{text}");
    }

    #[test]
    #[should_panic(expected = "at least one connection")]
    fn zero_connections_rejected() {
        let _ = ClientClass::new("x", 0, 100.0, LoopModel::Open);
    }
}
