//! Serialization of an [`EvalReport`]: `RESULTS.json` (machine-readable,
//! consumed by the docs pipeline) and `RESULTS.md` (the paper-style
//! comparison tables with CI bars), through the [`crate::sweep`] emitters.

use crate::matrix::{Cell, EvalReport, Metric};
use crate::sweep::json::{ci, f64s, jf, strs};
use crate::sweep::{pm, write_pair};
use std::io;
use std::path::{Path, PathBuf};

impl EvalReport {
    /// The full report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"scale\": {:?},\n", self.scale));
        out.push_str(&format!("  \"root_seed\": {},\n", self.root_seed));
        out.push_str(&format!("  \"n_seeds\": {},\n", self.n_seeds));
        out.push_str(&format!("  \"confidence\": {},\n", self.confidence));
        out.push_str(&format!("  \"resamples\": {},\n", self.resamples));

        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"algorithm\": {:?}, \"family\": {:?}, \"metric\": {:?}, \"values\": {}, \"ci\": {}}}{}\n",
                c.algorithm.name(),
                c.family.name(),
                c.metric.name(),
                f64s(&c.values, ","),
                ci(&c.ci),
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"random_dispatch\": [\n");
        for (i, r) in self.random.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"family\": {:?}, \"reward\": {}, \"reward_mean\": {}, \"response\": {}, \"response_mean\": {}, \"load_balance\": {}}}{}\n",
                r.family.name(),
                f64s(&r.reward, ","),
                jf(r.reward_mean()),
                f64s(&r.response, ","),
                jf(r.response_mean()),
                f64s(&r.load_balance, ","),
                if i + 1 < self.random.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");

        out.push_str("  \"paired_tests\": [\n");
        for (i, t) in self.comparisons.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"family\": {:?}, \"metric\": {:?}, \"a\": \"PFRL-DM\", \"b\": {:?}, \"mean_diff\": {}, \"p_raw\": {}, \"p_holm\": {}, \"n_used\": {}}}{}\n",
                t.family.name(),
                t.metric.name(),
                t.baseline.name(),
                jf(t.mean_diff),
                jf(t.p_raw),
                jf(t.p_holm),
                t.n_used,
                if i + 1 < self.comparisons.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");

        out.push_str(&format!("  \"nan_findings\": {}\n", strs(&self.nan_findings)));
        out.push_str("}\n");
        out
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

    /// Writes `RESULTS.json` and `RESULTS.md` under `dir`, returning both
    /// paths.
    pub fn write_to(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        write_pair(dir, "RESULTS", &self.to_json(), &self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::WorkloadFamily;
    use crate::matrix::{PairedComparison, RandomBaseline};
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
        let j = synthetic_report().to_json();
        assert_eq!(j.matches("\"algorithm\"").count(), 6);
        assert!(j.contains("\"paired_tests\""));
        assert!(j.contains("\"random_dispatch\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn non_finite_values_stay_json_parseable() {
        let mut r = synthetic_report();
        r.cells[0].values[0] = f64::NAN;
        r.cells[0].ci = None;
        let j = r.to_json();
        assert!(j.contains("\"NaN\""), "NaN must serialize as a string");
        assert!(j.contains("\"ci\": null"));
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

    #[test]
    fn write_to_emits_both_files() {
        let dir = std::env::temp_dir().join(format!("pfrl-eval-report-{}", std::process::id()));
        let (json, md) = synthetic_report().write_to(&dir).expect("write");
        assert!(json.exists());
        assert!(md.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
