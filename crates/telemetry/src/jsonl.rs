//! Buffered JSONL event sink: one JSON object per line, streamed to
//! `results/telemetry/<run>.jsonl`.
//!
//! Event schema (all events carry `ns`, nanoseconds since the sink was
//! created, from a monotonic clock):
//!
//! ```json
//! {"ns":1234,"kind":"counter","name":"fed/bytes_up","delta":51200}
//! {"ns":1234,"kind":"gauge","name":"sim/decisions_per_sec","value":8123.4}
//! {"ns":1234,"kind":"observe","name":"rl/episode_reward","value":-17.25}
//! {"ns":1234,"kind":"span","path":"fed/round/local_train","dur_ns":48211}
//! ```
//!
//! Non-finite floats serialize as `null` to keep every line valid JSON.

use crate::json::escape_json;
use crate::recorder::Recorder;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    origin: Instant,
    path: PathBuf,
}

impl JsonlSink {
    /// Create `<dir>/<run>.jsonl` (plus parent directories). Truncates any
    /// previous file for the same run name.
    pub fn create(dir: impl AsRef<Path>, run: &str) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| annotate(e, dir))?;
        let path = dir.join(format!("{run}.jsonl"));
        let file = File::create(&path).map_err(|e| annotate(e, &path))?;
        Ok(JsonlSink { writer: Mutex::new(BufWriter::new(file)), origin: Instant::now(), path })
    }

    /// The conventional location: `results/telemetry/<run>.jsonl` relative
    /// to the current working directory.
    pub fn for_run(run: &str) -> io::Result<Self> {
        Self::create("results/telemetry", run)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_line(&self, line: &str) {
        let mut w = self.writer.lock().expect("jsonl writer poisoned");
        // Telemetry must never take down a training run; drop events on IO
        // errors (e.g. disk full) instead of panicking.
        let _ = writeln!(w, "{line}");
    }

    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

fn annotate(e: io::Error, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// JSON float: finite values as-is, otherwise `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{v:?}` keeps a decimal point or exponent, so the token is
        // unambiguously a float for readers.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl Recorder for JsonlSink {
    fn counter_add(&self, name: &str, delta: u64) {
        self.write_line(&format!(
            r#"{{"ns":{},"kind":"counter","name":"{}","delta":{}}}"#,
            self.ns(),
            escape_json(name),
            delta
        ));
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.write_line(&format!(
            r#"{{"ns":{},"kind":"gauge","name":"{}","value":{}}}"#,
            self.ns(),
            escape_json(name),
            json_f64(value)
        ));
    }

    fn observe(&self, name: &str, value: f64) {
        self.write_line(&format!(
            r#"{{"ns":{},"kind":"observe","name":"{}","value":{}}}"#,
            self.ns(),
            escape_json(name),
            json_f64(value)
        ));
    }

    fn span_ns(&self, path: &str, nanos: u64) {
        self.write_line(&format!(
            r#"{{"ns":{},"kind":"span","path":"{}","dur_ns":{}}}"#,
            self.ns(),
            escape_json(path),
            nanos
        ));
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl writer poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("pfrl-telemetry-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn events_stream_as_one_json_object_per_line() {
        let dir = tmp_dir("jsonl");
        let sink = Arc::new(JsonlSink::create(&dir, "run1").unwrap());
        let path = sink.path().to_path_buf();
        let t = Telemetry::new(sink);
        t.counter("fed/bytes_up", 512);
        t.gauge("g", 1.5);
        t.gauge("g_bad", f64::NAN);
        t.observe(r#"odd"name\with_escapes"#, 2.0);
        t.span_ns("fed/round/local_train", 777);
        t.flush();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(
            lines[0].ends_with(r#""kind":"counter","name":"fed/bytes_up","delta":512}"#),
            "unexpected counter line: {}",
            lines[0]
        );
        assert!(lines[2].contains(r#""value":null"#), "{}", lines[2]);
        assert!(lines[3].contains(r#"odd\"name\\with_escapes"#), "{}", lines[3]);
        assert!(lines[4].contains(r#""dur_ns":777"#), "{}", lines[4]);
        // Every line is balanced-brace minimal JSON starting/ending cleanly.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
            assert!(l.contains(r#""ns":"#), "{l}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_f64_forms() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
