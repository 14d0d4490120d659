//! Client models: how a load client couples its arrivals to SUT progress.

use std::fmt;
use std::str::FromStr;

use gt_core::spec::{Positional, SpecError};

/// How a client couples event arrivals to SUT progress.
///
/// The distinction decides what a latency number means when the SUT
/// falls behind (the coordinated-omission problem): an open-loop client
/// keeps offering load on schedule and charges the SUT for queueing
/// delay, a closed-loop client silently stops offering and reports only
/// service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopModel {
    /// Arrivals follow the seeded schedule regardless of SUT
    /// progress; events that fell due but are not yet written are the
    /// counted backlog.
    Open,
    /// The next event is sent only after the previous write completed
    /// (send-after-ack); the schedule supplies think time between sends.
    Closed,
    /// Open-loop arrivals, but event `i` arrives no earlier than the
    /// completion of event `i − window`: at most `window` events are
    /// outstanding, at the cost of schedule slip under sustained overload.
    PartialOpen {
        /// Maximum arrived-but-unwritten events before arrivals slip.
        window: usize,
    },
}

impl fmt::Display for LoopModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopModel::Open => f.write_str("open"),
            LoopModel::Closed => f.write_str("closed"),
            LoopModel::PartialOpen { window } => write!(f, "partial:{window}"),
        }
    }
}

impl FromStr for LoopModel {
    type Err = SpecError;

    /// Parses `open`, `closed`, or `partial:<window>`, a positional
    /// `gt_core::spec` form.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = Positional::new(s, s);
        let model = match spec.kind {
            "open" => LoopModel::Open,
            "closed" => LoopModel::Closed,
            "partial" => match spec.arg("WINDOW")? {
                0 => return Err(spec.error("partial-open window must be positive")),
                window => LoopModel::PartialOpen { window },
            },
            _ => {
                return Err(
                    spec.error("unknown loop model (expected open, closed, or partial:<window>)")
                )
            }
        };
        spec.finish()?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_models() {
        assert_eq!("open".parse::<LoopModel>().unwrap(), LoopModel::Open);
        assert_eq!("closed".parse::<LoopModel>().unwrap(), LoopModel::Closed);
        assert_eq!(
            "partial:128".parse::<LoopModel>().unwrap(),
            LoopModel::PartialOpen { window: 128 }
        );
    }

    #[test]
    fn rejects_malformed_models() {
        assert!("halfopen".parse::<LoopModel>().is_err());
        assert!("partial:0".parse::<LoopModel>().is_err());
        assert!("partial:x".parse::<LoopModel>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for model in [
            LoopModel::Open,
            LoopModel::Closed,
            LoopModel::PartialOpen { window: 7 },
        ] {
            assert_eq!(model.to_string().parse::<LoopModel>().unwrap(), model);
        }
    }
}
