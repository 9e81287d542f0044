//! The replication seed axis of multi-seed evaluation.
//!
//! Single-seed curves are one sample from a noisy distribution — nothing a
//! regression gate can lean on. The evaluation sweeps (`pfrl-eval`) train
//! `R` independent replications per arm, each with a seed derived through
//! its own labeled [`SeedStream`] branch; [`replication_seed`] is that
//! derivation.
//!
//! # Seed policy
//!
//! Replication `r` of root seed `s` runs with
//! `SeedStream::new(s).child("replication").index(r)`. The label matters:
//! the federation machinery derives its own streams from the *run* seed via
//! `child("episodes")` / `child("agent")` / `child("server")` /
//! `child("participation")`, the workload presets use plain
//! `derive_seed(seed, client_index)`, and fault plans hash
//! `child("round").index(...)` — a replication seed produced by a bare
//! `derive_seed(root, r)` could collide with the per-client workload
//! stream of the same root (identical `(root, index)` pairs). Routing
//! replications through their own labeled child makes the replication
//! axis disjoint from every existing stream by construction;
//! `replication_seed` is the one place that derivation lives.

use pfrl_stats::SeedStream;

/// The run seed of replication `rep` under `root` (see the module docs for
/// why this is a labeled stream rather than `derive_seed(root, rep)`).
pub fn replication_seed(root: u64, rep: usize) -> u64 {
    SeedStream::new(root).child("replication").index(rep as u64).seed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_seeds_are_distinct_and_labeled() {
        let root = 42;
        let mut seen = std::collections::HashSet::new();
        for rep in 0..64 {
            let s = replication_seed(root, rep);
            assert!(seen.insert(s), "replication seed collision at rep {rep}");
            // Disjoint from the bare derive_seed stream the workload
            // presets consume (the collision the harness must avoid).
            for client in 0..16u64 {
                assert_ne!(s, pfrl_stats::derive_seed(root, client), "rep {rep}");
            }
        }
    }
}
