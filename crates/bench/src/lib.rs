//! Shared infrastructure for the experiment binaries (one per paper
//! figure/table) and the Criterion microbenches.
//!
//! Every binary honours the `PFRL_SCALE` environment variable:
//!
//! * `quick` (default) — small task samples / episode counts so the whole
//!   suite regenerates in minutes on a laptop;
//! * `paper` — the paper's own scales (3500 tasks per client, 300/500
//!   episodes); expect hours of CPU time.
//!
//! Outputs go to stdout as CSV and are also written under `results/`.

use pfrl_core::fed::FedConfig;
use pfrl_core::telemetry::{Json, RunManifest};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Tasks sampled per client dataset (paper: 3500).
    pub samples: usize,
    /// Exploratory-study episodes (paper: 300, Sec. 3).
    pub episodes_exploratory: usize,
    /// Evaluation episodes (paper: 500, Sec. 5).
    pub episodes_eval: usize,
    /// Exploratory communication frequency (paper: 15).
    pub comm_exploratory: usize,
    /// Evaluation communication frequency (paper: 25).
    pub comm_eval: usize,
    /// Tasks per training episode window (`None` = full pool, as the
    /// paper's episodes replay the whole training split).
    pub tasks_per_episode: Option<usize>,
    /// Whether this is the paper-scale run.
    pub is_paper: bool,
}

impl Scale {
    /// Quick laptop scale.
    pub fn quick() -> Self {
        Self {
            samples: 700,
            episodes_exploratory: 120,
            episodes_eval: 160,
            comm_exploratory: 15,
            comm_eval: 20,
            tasks_per_episode: Some(50),
            is_paper: false,
        }
    }

    /// The paper's scale.
    pub fn paper() -> Self {
        Self {
            samples: 3500,
            episodes_exploratory: 300,
            episodes_eval: 500,
            comm_exploratory: 15,
            comm_eval: 25,
            tasks_per_episode: Some(150),
            is_paper: true,
        }
    }

    /// Reads `PFRL_SCALE` (`quick` default, `paper` for full runs).
    pub fn from_env() -> Self {
        match std::env::var("PFRL_SCALE").as_deref() {
            Ok("paper") => Self::paper(),
            _ => Self::quick(),
        }
    }

    /// The Sec. 3 exploratory federation schedule at this scale.
    pub fn fed_exploratory(&self, n_clients: usize, seed: u64) -> FedConfig {
        FedConfig {
            episodes: self.episodes_exploratory,
            comm_every: self.comm_exploratory,
            participation_k: (n_clients / 2).max(1),
            tasks_per_episode: self.tasks_per_episode,
            seed,
            parallel: true,
        }
    }

    /// The Sec. 5 evaluation federation schedule at this scale.
    pub fn fed_eval(&self, n_clients: usize, seed: u64) -> FedConfig {
        FedConfig {
            episodes: self.episodes_eval,
            comm_every: self.comm_eval,
            participation_k: (n_clients / 2).max(1),
            tasks_per_episode: self.tasks_per_episode,
            seed,
            parallel: true,
        }
    }
}

/// Process-global provenance for the current experiment binary, folded into
/// the [`RunManifest`] written next to every result CSV.
#[derive(Default)]
struct RunContext {
    experiment: String,
    seed: Option<u64>,
}

static RUN_CONTEXT: Mutex<RunContext> =
    Mutex::new(RunContext { experiment: String::new(), seed: None });

/// Records the master seed the current binary derives its randomness from
/// (shows up in every manifest written afterwards).
pub fn set_run_seed(seed: u64) {
    RUN_CONTEXT.lock().unwrap().seed = Some(seed);
}

fn manifest_for(csv_name: &str) -> RunManifest {
    let ctx = RUN_CONTEXT.lock().unwrap();
    let mut m =
        RunManifest::new(if ctx.experiment.is_empty() { csv_name } else { &ctx.experiment });
    if let Some(seed) = ctx.seed {
        m = m.with_seed(seed);
    }
    m.with_config_of(&csv_name)
}

/// Short hash of the checked-out commit, or `"unknown"` outside a git repo.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `results/<sweep>`'s scale suffix and a record's: `"_paper"`/`"-paper"`
/// for a paper-scale manifest, empty otherwise, so a nightly paper run
/// never overwrites the committed quick record.
fn paper_suffix(manifest: &RunManifest, sep: char) -> String {
    if manifest.scale == "paper" {
        format!("{sep}paper")
    } else {
        String::new()
    }
}

/// Publishes a probe's bench record. `out` names the quick-scale record;
/// a paper-scale manifest writes `<stem>_paper.json` instead. The record
/// ([`RunManifest::record`]: the manifest's fields plus [`git_commit`], then
/// the fields of `body`) is pretty-written there, and the same object,
/// compacted to one line, is appended to the append-only
/// `<stem>.history.jsonl` beside it, so every history line is a whole
/// record. Returns the record's path.
///
/// A failed record write is an error (the probe exits nonzero); a failed
/// history append is only a warning.
pub fn publish_record(out: &str, manifest: &RunManifest, body: Json) -> io::Result<PathBuf> {
    let out = Path::new(out);
    let stem = out.file_stem().and_then(|s| s.to_str()).expect("a record file name");
    let out = out.with_file_name(format!("{stem}{}.json", paper_suffix(manifest, '_')));
    let record = manifest.record(&git_commit(), body);
    std::fs::write(&out, record.pretty() + "\n")
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", out.display())))?;
    eprintln!("# wrote {}", out.display());

    use std::io::Write;
    let history = out.with_extension("history.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| f.write_all((record.compact() + "\n").as_bytes()));
    match appended {
        Ok(()) => eprintln!("# appended to {}", history.display()),
        Err(e) => eprintln!("# warning: could not append to {}: {e}", history.display()),
    }
    Ok(out)
}

/// Publishes one eval sweep and exits with its gate's verdict: the record
/// through [`publish_record`], the markdown `tables` to `md_path` (its
/// directory suffixed `-paper` at paper scale) and to stderr for the CI
/// log, then `# <gate> PASS` — or `# <gate> FAIL` and every violation, with
/// exit status 1.
pub fn publish_sweep(
    out: &str,
    manifest: &RunManifest,
    body: Json,
    md_path: &str,
    tables: &str,
    gate: &str,
    violations: &[String],
) -> ! {
    let (dir, file) = md_path.rsplit_once('/').expect("a markdown path under a directory");
    let dir = format!("{dir}{}", paper_suffix(manifest, '-'));
    let md_path = Path::new(&dir).join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&md_path, tables)) {
        Ok(()) => eprintln!("# wrote {}", md_path.display()),
        Err(e) => eprintln!("# warning: could not write {}: {e}", md_path.display()),
    }
    if let Err(e) = publish_record(out, manifest, body) {
        eprintln!("# error: could not write the record: {e}");
        std::process::exit(1);
    }
    eprint!("{tables}");
    if violations.is_empty() {
        eprintln!("\n# {gate} PASS: all invariants hold");
        std::process::exit(0);
    }
    eprintln!("\n# {gate} FAIL: {} violation(s)", violations.len());
    for v in violations {
        eprintln!("#   - {v}");
    }
    std::process::exit(1);
}

/// Prints a banner naming the experiment and scale, and returns the scale.
pub fn start(experiment: &str, paper_ref: &str) -> Scale {
    let scale = Scale::from_env();
    RUN_CONTEXT.lock().unwrap().experiment = experiment.to_string();
    eprintln!(
        "# {experiment} ({paper_ref}) — scale: {} (set PFRL_SCALE=paper for full scale)",
        if scale.is_paper { "paper" } else { "quick" }
    );
    scale
}

/// The one place `results/` CSVs are written: creates the directory, writes
/// the rows, drops a [`RunManifest`] next to the CSV, and wraps IO errors
/// with the offending path.
pub fn write_results_csv(name: &str, rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let path = Path::new("results").join(format!("{name}.csv"));
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", parent.display())))?;
    }
    pfrl_core::csv::write_file(&path, rows).map_err(with_path)?;
    manifest_for(name).write_next_to(&path)?;
    Ok(path)
}

/// Writes rows both to stdout and `results/<name>.csv` (plus its manifest).
pub fn emit(name: &str, rows: &[Vec<String>]) {
    pfrl_core::csv::print(rows);
    match write_results_csv(name, rows) {
        Err(e) => eprintln!("# warning: could not write results/{name}.csv: {e}"),
        Ok(path) => eprintln!("# wrote {}", path.display()),
    }
}

/// Output of the Sec. 5.3 generalization experiment, shared by the
/// Figs. 16–19 binary and the Table 4 Wilcoxon binary.
pub struct GeneralizationData {
    /// Client display names.
    pub client_names: Vec<String>,
    /// `per_alg[a]` is algorithm `a`'s [`pfrl_core::experiment::GeneralizationResults`].
    pub per_alg:
        Vec<(pfrl_core::experiment::Algorithm, pfrl_core::experiment::GeneralizationResults)>,
}

/// Cache file shared by `fig16_19_generalization` and `table4_wilcoxon`
/// so the (expensive) 4-algorithm training phase runs once.
const GEN_CACHE: &str = "results/generalization_cache.csv";

/// Writes the generalization data to the cache.
fn write_gen_cache(data: &GeneralizationData) {
    let mut rows = vec![vec![
        "algorithm".to_string(),
        "client".to_string(),
        "response".to_string(),
        "makespan".to_string(),
        "utilization".to_string(),
        "load_balance".to_string(),
    ]];
    for (alg, g) in &data.per_alg {
        for (i, c) in data.client_names.iter().enumerate() {
            rows.push(vec![
                alg.to_string(),
                c.clone(),
                format!("{}", g.response[i]),
                format!("{}", g.makespan[i]),
                format!("{}", g.utilization[i]),
                format!("{}", g.load_balance[i]),
            ]);
        }
    }
    if let Err(e) = write_results_csv("generalization_cache", &rows) {
        eprintln!("# warning: could not write generalization cache: {e}");
    }
}

/// Loads the cache if present and well-formed.
fn read_gen_cache() -> Option<GeneralizationData> {
    use pfrl_core::experiment::{Algorithm, GeneralizationResults};
    let text = std::fs::read_to_string(GEN_CACHE).ok()?;
    let mut per_alg: Vec<(Algorithm, GeneralizationResults)> =
        Algorithm::ALL.iter().map(|&a| (a, GeneralizationResults::default())).collect();
    let mut client_names = Vec::new();
    for line in text.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return None;
        }
        let alg_slot = per_alg.iter_mut().find(|(a, _)| a.name() == fields[0])?;
        if alg_slot.0 == Algorithm::PfrlDm {
            client_names.push(fields[1].to_string());
        }
        alg_slot.1.response.push(fields[2].parse().ok()?);
        alg_slot.1.makespan.push(fields[3].parse().ok()?);
        alg_slot.1.utilization.push(fields[4].parse().ok()?);
        alg_slot.1.load_balance.push(fields[5].parse().ok()?);
    }
    if client_names.is_empty()
        || per_alg.iter().any(|(_, g)| g.response.len() != client_names.len())
    {
        return None;
    }
    Some(GeneralizationData { client_names, per_alg })
}

/// Trains all four algorithms on the Table 3 clients (60/40 split), then
/// evaluates every client on its hybrid (20% own / 80% foreign) test set.
/// Results are cached under `results/` so the Figs. 16–19 and Table 4
/// binaries share one training run; delete the cache file to recompute.
pub fn run_generalization(scale: &Scale, seed: u64) -> GeneralizationData {
    if let Some(cached) = read_gen_cache() {
        eprintln!("# using cached generalization results from {GEN_CACHE}");
        return cached;
    }
    let data = run_generalization_uncached(scale, seed);
    write_gen_cache(&data);
    data
}

fn run_generalization_uncached(scale: &Scale, seed: u64) -> GeneralizationData {
    use pfrl_core::experiment::{evaluate_generalization, run_federation, Algorithm};
    use pfrl_core::presets::{table3_clients, TABLE3_DIMS};
    use pfrl_core::rl::PpoConfig;
    use pfrl_core::sim::EnvConfig;
    use pfrl_core::workloads::train_test_split;

    // 60/40 split each client's pool into train and held-out test tasks.
    let mut setups = table3_clients(scale.samples, 3);
    let mut test_sets = Vec::new();
    for (i, s) in setups.iter_mut().enumerate() {
        let split = train_test_split(&s.train_tasks, 0.6, seed.wrapping_add(i as u64));
        s.train_tasks = split.train;
        test_sets.push(split.test);
    }

    let fed_cfg = scale.fed_eval(10, seed);
    let mut per_alg = Vec::new();
    let mut client_names = Vec::new();
    for alg in Algorithm::ALL {
        let t0 = std::time::Instant::now();
        let (_, mut trained) = run_federation(
            alg,
            setups.clone(),
            TABLE3_DIMS,
            EnvConfig::default(),
            PpoConfig::default(),
            fed_cfg,
        );
        let g = evaluate_generalization(&mut trained, &test_sets, 0.2, seed ^ 0xBEEF);
        if client_names.is_empty() {
            client_names = trained.client_names();
        }
        eprintln!(
            "# {alg}: mean response {:.1}, mean util {:.3} ({:.1}s)",
            g.response.iter().sum::<f64>() / g.response.len() as f64,
            g.utilization.iter().sum::<f64>() / g.utilization.len() as f64,
            t0.elapsed().as_secs_f64()
        );
        per_alg.push((alg, g));
    }
    GeneralizationData { client_names, per_alg }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_default() {
        // Do not mutate the environment (tests run in parallel); just
        // check both constructors' invariants.
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.samples < p.samples);
        assert!(q.episodes_eval < p.episodes_eval);
        assert_eq!(p.samples, 3500);
        assert_eq!(p.episodes_eval, 500);
        assert_eq!(p.comm_eval, 25);
    }

    #[test]
    fn generalization_cache_roundtrips() {
        use pfrl_core::experiment::{Algorithm, GeneralizationResults};
        // Build a synthetic dataset, write the cache, read it back.
        let mk = |base: f64| GeneralizationResults {
            response: vec![base, base + 1.0],
            makespan: vec![base * 2.0, base * 2.0 + 1.0],
            utilization: vec![0.5, 0.6],
            load_balance: vec![0.1, 0.2],
        };
        let data = GeneralizationData {
            client_names: vec!["c0".into(), "c1".into()],
            per_alg: Algorithm::ALL
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, mk(i as f64 + 1.0)))
                .collect(),
        };
        // Preserve any real cache produced by earlier experiment runs.
        let original = std::fs::read(GEN_CACHE).ok();
        write_gen_cache(&data);
        let read = read_gen_cache().expect("cache readable");
        assert_eq!(read.client_names, data.client_names);
        for ((a1, g1), (a2, g2)) in read.per_alg.iter().zip(&data.per_alg) {
            assert_eq!(a1.name(), a2.name());
            assert_eq!(g1.response, g2.response);
            assert_eq!(g1.load_balance, g2.load_balance);
        }
        match original {
            Some(bytes) => std::fs::write(GEN_CACHE, bytes).expect("restore cache"),
            None => {
                let _ = std::fs::remove_file(GEN_CACHE);
            }
        }
    }

    #[test]
    fn publish_record_heads_the_body_and_appends_the_same_record() {
        let dir = std::env::temp_dir().join(format!("pfrl-publish-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_unit.json");
        let out = out.to_str().unwrap();
        let manifest = RunManifest::new("unit").with_seed(5);
        for n in [1u64, 2] {
            publish_record(out, &manifest, Json::obj([("n", n.into())])).unwrap();
        }
        let record = std::fs::read_to_string(out).unwrap();
        let header = [
            "run",
            "algorithm",
            "seed",
            "scale",
            "threads",
            "config_hash",
            "created_unix_s",
            "git_commit",
            "n",
        ];
        let keys: Vec<&str> =
            record.lines().filter_map(|l| l.strip_prefix("  \"")?.split('"').next()).collect();
        assert_eq!(keys, header);
        assert!(record.ends_with("  \"n\": 2\n}\n"), "{record}");

        // One whole record per line: the same fields, in the same order.
        let history = std::fs::read_to_string(dir.join("BENCH_unit.history.jsonl")).unwrap();
        let lines: Vec<&str> = history.lines().collect();
        assert_eq!(lines.len(), 2);
        let flat: String = record.lines().map(str::trim).collect::<Vec<_>>().join(" ");
        assert_eq!(flat.replacen("{ ", "{", 1).replacen(" }", "}", 1), lines[1]);
        assert!(lines[0].ends_with(r#""n": 1}"#), "{}", lines[0]);

        // A record that cannot be written is an error, and leaves no line.
        let missing = dir.join("no/such/dir/BENCH_unit.json");
        assert!(publish_record(
            missing.to_str().unwrap(),
            &manifest,
            Json::obj([("n", 3u64.into())])
        )
        .is_err());
        assert_eq!(std::fs::read_to_string(dir.join("BENCH_unit.history.jsonl")).unwrap(), history);

        // A paper-scale record never overwrites the quick one.
        let paper = RunManifest { scale: "paper".into(), ..manifest };
        let written = publish_record(out, &paper, Json::obj([("n", 4u64.into())])).unwrap();
        assert_eq!(written, dir.join("BENCH_unit_paper.json"));
        assert!(std::fs::read_to_string(&written).unwrap().contains("\"scale\": \"paper\""));
        let paper_history = dir.join("BENCH_unit_paper.history.jsonl");
        assert_eq!(std::fs::read_to_string(paper_history).unwrap().lines().count(), 1);
        assert_eq!(std::fs::read_to_string(out).unwrap(), record);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fed_configs_use_paper_k() {
        let s = Scale::quick();
        let f = s.fed_eval(10, 0);
        assert_eq!(f.participation_k, 5); // K = N/2
        assert_eq!(f.comm_every, s.comm_eval);
        f.validate(10);
        let f = s.fed_exploratory(4, 0);
        assert_eq!(f.participation_k, 2);
        f.validate(4);
    }
}
