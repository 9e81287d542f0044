//! Serialization of an [`EvalReport`]: one record value (every per-seed
//! value, CI, random floor, paired test and non-finite finding, published
//! as `BENCH_eval.json` by `eval_gate`) and `RESULTS.md` (the paper-style
//! comparison tables with CI bars).

use crate::matrix::{Cell, EvalReport, Metric};
use crate::sweep::{ci_value, pm};
use pfrl_core::telemetry::Json;

impl EvalReport {
    /// The full report as a record body. The scale and root seed are the
    /// record header's (`scale`, `seed`).
    pub fn to_value(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::obj([
                ("algorithm", c.algorithm.name().into()),
                ("family", c.family.name().into()),
                ("metric", c.metric.name().into()),
                ("values", Json::arr(c.values.iter().copied())),
                ("ci", ci_value(&c.ci)),
            ])
        });
        let random = self.random.iter().map(|r| {
            Json::obj([
                ("family", r.family.name().into()),
                ("reward", Json::arr(r.reward.iter().copied())),
                ("reward_mean", r.reward_mean().into()),
                ("response", Json::arr(r.response.iter().copied())),
                ("response_mean", r.response_mean().into()),
                ("load_balance", Json::arr(r.load_balance.iter().copied())),
            ])
        });
        let tests = self.comparisons.iter().map(|t| {
            Json::obj([
                ("family", t.family.name().into()),
                ("metric", t.metric.name().into()),
                ("a", "PFRL-DM".into()),
                ("b", t.baseline.name().into()),
                ("mean_diff", t.mean_diff.into()),
                ("p_raw", t.p_raw.into()),
                ("p_holm", t.p_holm.into()),
                ("n_used", t.n_used.into()),
            ])
        });
        Json::obj([
            ("n_seeds", self.n_seeds.into()),
            ("confidence", self.confidence.into()),
            ("resamples", self.resamples.into()),
            ("cells", Json::arr(cells)),
            ("random_dispatch", Json::arr(random)),
            ("paired_tests", Json::arr(tests)),
            ("nan_findings", Json::arr(self.nan_findings.iter().cloned())),
        ])
    }

    /// One table cell as `mean ± halfwidth`.
    fn md_cell(c: Option<&Cell>) -> String {
        c.map_or_else(|| "—".to_string(), |cell| pm(&cell.ci))
    }

    /// The paper-style comparison tables as markdown.
    pub fn to_markdown(&self) -> String {
        let pct = (self.confidence * 100.0).round() as u32;
        let mut out = String::with_capacity(4096);
        out.push_str("# Multi-seed evaluation results\n\n");
        out.push_str(&format!(
            "Scale `{}`, {} seeds per cell, {}% bootstrap CIs ({} resamples), root seed `{:#x}`.\n\n",
            self.scale, self.n_seeds, pct, self.resamples, self.root_seed
        ));
        out.push_str(
            "Each cell is `mean ± half-width` of the metric over independent \
             replications; all algorithms share task pools and test sets at \
             each replication index (paired design).\n",
        );

        for metric in Metric::ALL {
            let direction = if metric.lower_is_better() { "lower" } else { "higher" };
            out.push_str(&format!("\n## {} ({} is better)\n\n", metric.name(), direction));
            out.push_str("| algorithm |");
            for f in self.families() {
                out.push_str(&format!(" {f} |"));
            }
            out.push('\n');
            out.push_str("|---|");
            for _ in self.families() {
                out.push_str("---|");
            }
            out.push('\n');
            for alg in self.algorithms() {
                out.push_str(&format!("| {} |", alg.name()));
                for f in self.families() {
                    out.push_str(&format!(" {} |", Self::md_cell(self.cell(alg, f, metric))));
                }
                out.push('\n');
            }
            if matches!(metric, Metric::MeanResponse | Metric::TestReward) {
                out.push_str("| Random dispatch |");
                for f in self.families() {
                    match self.random_for(f) {
                        Some(r) if metric == Metric::MeanResponse => {
                            out.push_str(&format!(" {:.2} |", r.response_mean()));
                        }
                        Some(r) => out.push_str(&format!(" {:.2} |", r.reward_mean())),
                        None => out.push_str(" — |"),
                    }
                }
                out.push('\n');
            }
        }

        if !self.comparisons.is_empty() {
            out.push_str("\n## Paired Wilcoxon tests (PFRL-DM vs baseline)\n\n");
            out.push_str(
                "Two-sided signed-rank p-values, Holm-corrected across all \
                 tests below. `mean_diff` is PFRL-DM − baseline.\n\n",
            );
            out.push_str("| family | metric | baseline | mean_diff | p (raw) | p (Holm) |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for t in &self.comparisons {
                out.push_str(&format!(
                    "| {} | {} | {} | {:+.3} | {:.4} | {:.4} |\n",
                    t.family.name(),
                    t.metric.name(),
                    t.baseline.name(),
                    t.mean_diff,
                    t.p_raw,
                    t.p_holm
                ));
            }
        }

        if !self.nan_findings.is_empty() {
            out.push_str("\n## Non-finite findings\n\n");
            for f in &self.nan_findings {
                out.push_str(&format!("- {f}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::WorkloadFamily;
    use crate::matrix::{PairedComparison, RandomBaseline};
    use crate::sweep::read;
    use pfrl_core::experiment::Algorithm;
    use pfrl_core::stats::bootstrap_mean_ci;

    fn synthetic_report() -> EvalReport {
        let mk_cell = |alg, metric, base: f64| {
            let values = vec![base, base + 1.0, base + 2.0];
            let ci = Some(bootstrap_mean_ci(&values, 200, 0.95, 1));
            Cell { algorithm: alg, family: WorkloadFamily::Heterogeneous, metric, values, ci }
        };
        EvalReport {
            scale: "unit".into(),
            root_seed: 7,
            n_seeds: 3,
            confidence: 0.95,
            resamples: 200,
            cells: vec![
                mk_cell(Algorithm::PfrlDm, Metric::FinalReward, 10.0),
                mk_cell(Algorithm::PfrlDm, Metric::MeanResponse, 20.0),
                mk_cell(Algorithm::PfrlDm, Metric::LoadBalance, 0.1),
                mk_cell(Algorithm::FedAvg, Metric::FinalReward, 8.0),
                mk_cell(Algorithm::FedAvg, Metric::MeanResponse, 25.0),
                mk_cell(Algorithm::FedAvg, Metric::LoadBalance, 0.2),
            ],
            random: vec![RandomBaseline {
                family: WorkloadFamily::Heterogeneous,
                reward: vec![40.0, 41.0, 42.0],
                response: vec![30.0, 31.0, 32.0],
                load_balance: vec![0.3, 0.3, 0.3],
            }],
            comparisons: vec![PairedComparison {
                family: WorkloadFamily::Heterogeneous,
                metric: Metric::FinalReward,
                baseline: Algorithm::FedAvg,
                mean_diff: 2.0,
                p_raw: 0.25,
                p_holm: 0.25,
                n_used: 3,
            }],
            nan_findings: vec![],
        }
    }

    #[test]
    fn json_contains_every_cell_and_balanced_braces() {
        let r = synthetic_report();
        let v = r.to_value();
        let cells = read::items(read::get(&v, "cells"));
        assert_eq!(cells.len(), 6);
        for (c, want) in cells.iter().zip(&r.cells) {
            assert_eq!(read::get(c, "algorithm"), &Json::from(want.algorithm.name()));
            assert_eq!(read::get(c, "metric"), &Json::from(want.metric.name()));
            read::assert_f64s(read::get(c, "values"), &want.values);
            read::assert_ci(read::get(c, "ci"), &want.ci);
        }
        let floor = &read::items(read::get(&v, "random_dispatch"))[0];
        read::assert_f64s(read::get(floor, "reward"), &r.random[0].reward);
        read::assert_f64s(read::get(floor, "response"), &r.random[0].response);
        read::assert_f64s(read::get(floor, "load_balance"), &r.random[0].load_balance);
        let test = &read::items(read::get(&v, "paired_tests"))[0];
        assert_eq!(read::num(read::get(test, "p_holm")).to_bits(), 0.25f64.to_bits());
        assert_eq!(read::get(test, "b"), &Json::from("FedAvg"));
        let text = read::published("eval_gate", v);
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn non_finite_values_stay_json_parseable() {
        let mut r = synthetic_report();
        r.cells[0].values[0] = f64::NAN;
        r.cells[0].ci = None;
        r.nan_findings.push("PFRL-DM/\"het\": non-finite".into());
        let v = r.to_value();
        let cell = &read::items(read::get(&v, "cells"))[0];
        assert!(read::num(&read::items(read::get(cell, "values"))[0]).is_nan());
        assert_eq!(read::get(cell, "ci"), &Json::Null);
        let text = read::published("eval_gate", v);
        assert!(text.contains(r#""values": ["NaN", 11, 12]"#), "NaN must serialize as a string");
        assert!(text.contains(r#""ci": null"#));
        assert!(text.contains(r#""nan_findings": ["PFRL-DM/\"het\": non-finite"]"#), "{text}");
    }

    #[test]
    fn markdown_has_one_table_per_metric_plus_tests() {
        let md = synthetic_report().to_markdown();
        for m in Metric::ALL {
            assert!(md.contains(&format!("## {}", m.name())), "{m}");
        }
        assert!(md.contains("Random dispatch"));
        assert!(md.contains("Paired Wilcoxon"));
        assert!(md.contains("PFRL-DM"));
        assert!(md.contains("±"));
    }
}
