//! Run manifests: the who/how of an experiment, written next to its results.

use crate::json::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit hash; used to fingerprint configuration values.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The scale a run records for a `PFRL_SCALE` value: `"paper"` only for
/// `paper`, else `"quick"`. Every scale-aware config falls back to quick on
/// any other value, so a misspelt scale never reaches a header.
fn scale_label(pfrl_scale: Option<&str>) -> &'static str {
    match pfrl_scale {
        Some("paper") => "paper",
        _ => "quick",
    }
}

/// Provenance record for one experiment run.
///
/// Written as `<result-stem>.manifest.json` alongside every result CSV so a
/// number in `results/` can always be traced back to the seed, scale,
/// machine parallelism, algorithm, and configuration that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Run identifier — conventionally the experiment/figure name.
    pub run: String,
    /// Algorithm under test (`pfrl_dm` / `fedavg` / `mfpo` / `ppo`), if one.
    pub algorithm: Option<String>,
    /// Master seed the run derives all randomness from.
    pub seed: u64,
    /// `paper` when `PFRL_SCALE=paper` at run time, else `quick`.
    pub scale: String,
    /// `std::thread::available_parallelism()` on the machine that ran it.
    pub threads: usize,
    /// FNV-1a hash folded over the `Debug` rendering of every config value
    /// registered via [`RunManifest::with_config_of`]; 0 when none.
    pub config_hash: u64,
    /// Unix timestamp (seconds) when the manifest was created.
    pub created_unix_s: u64,
}

impl RunManifest {
    pub fn new(run: &str) -> Self {
        RunManifest {
            run: run.to_string(),
            algorithm: None,
            seed: 0,
            scale: scale_label(std::env::var("PFRL_SCALE").ok().as_deref()).to_string(),
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            config_hash: 0,
            created_unix_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_algorithm(mut self, algorithm: &str) -> Self {
        self.algorithm = Some(algorithm.to_string());
        self
    }

    /// Fold `cfg`'s `Debug` rendering into the config hash. Call once per
    /// relevant config struct (env, PPO, federation, ...); order matters,
    /// which is fine because call sites are static.
    pub fn with_config_of(mut self, cfg: &impl std::fmt::Debug) -> Self {
        let rendered = format!("{cfg:?}");
        self.config_hash = fnv1a(rendered.as_bytes()) ^ self.config_hash.rotate_left(17);
        self
    }

    /// The manifest as a JSON object, its fields in the order every
    /// manifest file and bench record header lists them.
    pub fn to_value(&self) -> Json {
        Json::obj([
            ("run", self.run.as_str().into()),
            ("algorithm", self.algorithm.as_deref().into()),
            ("seed", self.seed.into()),
            ("scale", self.scale.as_str().into()),
            ("threads", self.threads.into()),
            ("config_hash", format!("{:016x}", self.config_hash).into()),
            ("created_unix_s", self.created_unix_s.into()),
        ])
    }

    pub fn to_json(&self) -> String {
        self.to_value().pretty() + "\n"
    }

    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)
                    .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", parent.display())))?;
            }
        }
        fs::write(path, self.to_json())
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// Write `<stem>.manifest.json` next to `result_path` and return the
    /// manifest's path.
    pub fn write_next_to(&self, result_path: impl AsRef<Path>) -> io::Result<PathBuf> {
        let result_path = result_path.as_ref();
        let stem = result_path.file_stem().and_then(|s| s.to_str()).unwrap_or("run");
        let manifest_path = result_path.with_file_name(format!("{stem}.manifest.json"));
        self.write_to(&manifest_path)?;
        Ok(manifest_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_contains_every_field() {
        let m = RunManifest::new("fig08_training_curves")
            .with_seed(42)
            .with_algorithm("pfrl_dm")
            .with_config_of(&("episodes", 200))
            .with_config_of(&("gamma", 0.99));
        let j = m.to_json();
        for needle in [
            "\"run\": \"fig08_training_curves\"",
            "\"algorithm\": \"pfrl_dm\"",
            "\"seed\": 42",
            "\"scale\": \"",
            "\"threads\": ",
            "\"config_hash\": \"",
            "\"created_unix_s\": ",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }

    /// The manifest file format is fixed: these are the bytes the
    /// hand-written template produced before manifests rendered through
    /// [`Json`].
    #[test]
    fn manifest_json_bytes_are_pinned() {
        let m = RunManifest {
            run: "fig\"08".to_string(),
            algorithm: Some("pfrl_dm".to_string()),
            seed: 42,
            scale: "quick".to_string(),
            threads: 2,
            config_hash: 0x00ab_cdef_0123_4567,
            created_unix_s: 1_700_000_000,
        };
        assert_eq!(
            m.to_json(),
            concat!(
                "{\n",
                "  \"run\": \"fig\\\"08\",\n",
                "  \"algorithm\": \"pfrl_dm\",\n",
                "  \"seed\": 42,\n",
                "  \"scale\": \"quick\",\n",
                "  \"threads\": 2,\n",
                "  \"config_hash\": \"00abcdef01234567\",\n",
                "  \"created_unix_s\": 1700000000\n",
                "}\n"
            )
        );
        let none = RunManifest { algorithm: None, ..m };
        assert!(none.to_json().contains("\n  \"algorithm\": null,\n"));
    }

    #[test]
    fn scale_label_is_paper_only_for_paper() {
        assert_eq!(scale_label(Some("paper")), "paper");
        for other in [None, Some("quick"), Some("papr"), Some("PAPER"), Some("")] {
            assert_eq!(scale_label(other), "quick", "{other:?}");
        }
    }

    #[test]
    fn config_hash_depends_on_config() {
        let base = RunManifest::new("x");
        let a = base.clone().with_config_of(&1u32);
        let b = base.clone().with_config_of(&2u32);
        assert_ne!(a.config_hash, b.config_hash);
        assert_eq!(base.config_hash, 0);
    }

    #[test]
    fn write_next_to_places_manifest_beside_result() {
        let dir = std::env::temp_dir().join(format!("pfrl-manifest-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("table3_eval.csv");
        let m = RunManifest::new("table3_eval").with_seed(7);
        let written = m.write_next_to(&csv).unwrap();
        assert_eq!(written, dir.join("table3_eval.manifest.json"));
        let text = fs::read_to_string(&written).unwrap();
        assert!(text.contains("\"seed\": 7"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_errors_carry_path_context() {
        let m = RunManifest::new("x");
        let bogus = Path::new("/proc/definitely/not/writable/m.json");
        let err = m.write_to(bogus).unwrap_err();
        assert!(err.to_string().contains("/proc/definitely"), "error lacks path context: {err}");
    }
}
