//! The `compare` subcommand: two result files, every end-to-end metric
//! on every workload, each against its own bound.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::stats::{quartile_spread, verdict, worsening, Verdict};

/// `(median, per-pass values)` of one metric in one result entry.
fn metric(result: &Json, name: &str) -> Option<(f64, Vec<f64>)> {
    let entry = result.get("metrics")?.get(name)?;
    let passes = entry
        .get("passes")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some((entry.get("value")?.as_f64()?, passes))
}

fn end_to_end_results(file: &Json) -> Vec<(&str, &Json)> {
    file.get("results")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("phase").and_then(Json::as_str) == Some("end_to_end"))
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r)))
        .collect()
}

/// Renders the comparison of `base` against `new`; the flag says whether
/// any metric regressed beyond its bound.
pub fn compare(base: &Json, new: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    for side in [base, new] {
        let manifest = side.get("manifest").map(Json::encode).unwrap_or_default();
        let _ = writeln!(out, "manifest: {manifest}");
    }
    let _ = writeln!(
        out,
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse", "spread", "bound"
    );
    let new_results = end_to_end_results(new);
    for (workload, base_result) in end_to_end_results(base) {
        let Some((_, new_result)) = new_results.iter().find(|(name, _)| *name == workload) else {
            let _ = writeln!(out, "{workload:<20} only in the base file");
            continue;
        };
        for def in END_TO_END {
            let (Some((a, a_passes)), Some((b, b_passes))) =
                (metric(base_result, def.name), metric(new_result, def.name))
            else {
                let _ = writeln!(out, "{workload:<20} {:<18} missing on one side", def.name);
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = worsening(def.better, a, b);
            let spread = quartile_spread(&a_passes).max(quartile_spread(&b_passes));
            let label = match verdict(worse, spread, bound) {
                Verdict::Within => "within bound",
                Verdict::Unresolved => "unresolved (spread wider than the bound)",
                Verdict::Regression => {
                    regressed = true;
                    "REGRESSION"
                }
            };
            let _ = writeln!(
                out,
                "{workload:<20} {:<18} {a:>14.4} {b:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {label}",
                def.name,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(events_per_s: &[f64]) -> Json {
        let metrics = Json::obj(END_TO_END.iter().map(|def| {
            let passes = if def.name == "events_per_s" {
                events_per_s.to_vec()
            } else {
                vec![1.0, 1.0, 1.0]
            };
            let fields = [
                ("unit", Json::str(def.unit)),
                ("value", Json::Num(crate::stats::median(&passes))),
                ("passes", Json::nums(&passes)),
            ];
            (def.name, Json::obj(fields))
        }));
        Json::obj([(
            "results",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str("w")),
                ("phase", Json::str("end_to_end")),
                ("metrics", metrics),
            ])]),
        )])
    }

    #[test]
    fn flags_a_regression_beyond_the_bound_only() {
        let bound = END_TO_END[0].bound.unwrap();
        let around = |centre: f64| file(&[centre, centre + 1.0, centre - 1.0]);
        let base = around(100.0);
        let (text, regressed) = compare(&base, &around(100.0 * (1.0 - bound / 2.0)));
        assert!(!regressed, "{text}");
        let (text, regressed) = compare(&base, &around(100.0 * (1.0 - bound * 1.5)));
        assert!(regressed, "{text}");
        assert!(text.contains("REGRESSION"));
        // Faster is never a regression.
        assert!(!compare(&base, &around(150.0)).1);
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_regressed() {
        let base = file(&[100.0, 101.0, 99.0]);
        let (text, regressed) = compare(&base, &file(&[60.0, 85.0, 110.0]));
        assert!(!regressed);
        assert!(text.contains("unresolved"), "{text}");
    }
}
