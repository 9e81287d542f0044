//! `pfrl-telemetry` — zero-overhead metrics, spans, and run manifests for
//! the PFRL-DM stack.
//!
//! The crate is built around one trait, [`Recorder`], with four channels:
//!
//! * **counters** — monotonically increasing `u64` totals (decisions made,
//!   bytes on the wire, rounds completed);
//! * **gauges** — last-write-wins `f64` readings (decisions/sec, buffer α);
//! * **observations** — `f64` samples folded into a fixed-bucket log-scale
//!   [`LogHistogram`] (episode reward, critic loss, queue depth) with
//!   p50/p95/p99 quantiles;
//! * **spans** — hierarchical wall-clock timings on monotonic timers
//!   ([`SpanGuard`]), keyed by `/`-separated paths such as
//!   `fed/round/local_train`.
//!
//! Instrumented code holds a [`Telemetry`] handle. The default handle
//! ([`Telemetry::noop`]) stores no recorder at all, so every call is a
//! single branch on an `Option` discriminant — nothing is formatted, timed,
//! allocated, or locked (verified by `crates/bench/benches/telemetry_overhead.rs`).
//!
//! Determinism contract: wall-clock quantities flow **only** through gauges,
//! spans, and histograms whose name contains `wall` (e.g. `fed/agg_wall_us`),
//! all of which are excluded from the fingerprint. Remaining counters and
//! observations carry values that are themselves deterministic, and both
//! aggregate commutatively (sums and bucket counts),
//! so recorded counter/histogram state is bit-for-bit identical whether
//! clients train sequentially or under rayon (`FedConfig::parallel`) — the
//! same reproducibility guarantee `pfrl-fed` makes for model parameters.
//! [`MetricsSnapshot::deterministic_fingerprint`] captures exactly the
//! order-independent subset.
//!
//! Sinks: [`InMemoryRecorder`] aggregates in process (snapshot via
//! [`InMemoryRecorder::snapshot`]), [`JsonlSink`] streams raw events to
//! `results/telemetry/<run>.jsonl` through a buffered writer, and
//! [`FanoutRecorder`] tees to both. [`RunManifest`] records the who/how of a
//! run (seed, `PFRL_SCALE`, thread count, algorithm, config hash) next to
//! every result CSV, and heads every bench record. [`Json`] is the ordered
//! JSON value both are rendered through.

mod histogram;
mod json;
mod jsonl;
mod manifest;
mod recorder;
mod span;

pub use histogram::LogHistogram;
pub use json::Json;
pub use jsonl::JsonlSink;
pub use manifest::{fnv1a, RunManifest};
pub use recorder::{
    FanoutRecorder, InMemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder, SpanStats, Telemetry,
};
pub use span::SpanGuard;
