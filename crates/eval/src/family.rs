//! Workload families: the columns of the evaluation matrix.
//!
//! A family fixes *which* dataset each of the four clients draws from; the
//! fleets are the paper's Table 2 machines in every family, so the only
//! thing varying across families is workload heterogeneity — exactly the
//! axis the paper studies (Sec. 3).

use crate::sweep::{sample_compressed, ARRIVAL_COMPRESSION};
use pfrl_core::fed::ClientSetup;
use pfrl_core::sim::{EnvDims, VmSpec};
use pfrl_core::stats::SeedStream;
use pfrl_core::workloads::workflow::{Workflow as DagWorkflow, WorkflowModel};
use pfrl_core::workloads::{train_test_split, DatasetId, TaskSpec};

/// The Table 2 fleets, as `(vCPUs, mem GiB, count)` tuples.
const FLEETS: [&[(u32, f32, usize)]; 4] = [
    &[(16, 128.0, 4), (32, 256.0, 1)],
    &[(32, 256.0, 3)],
    &[(16, 128.0, 2), (32, 256.0, 2)],
    &[(16, 128.0, 3), (32, 256.0, 2)],
];

/// A named assignment of datasets to the four Table 2 clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// The paper's Table 2 split: four mutually heterogeneous traces.
    Heterogeneous,
    /// All clients draw from the same trace (Google) — the iso-distribution
    /// control the heterogeneity claims are measured against.
    Iso,
    /// The heterogeneous datasets rendered as DAG *workflows*: each client
    /// trains on fork–join workflow pools (scheduled on
    /// [`pfrl_core::sim::DagCloudEnv`]) generated over its dataset's task
    /// distribution. Opt-in: not part of the default matrix (see
    /// [`WorkloadFamily::in_default_matrix`]).
    Workflow,
}

/// One replication's worth of a family: client setups (training pools
/// already split off) plus the held-out per-client test sets.
#[derive(Debug, Clone)]
pub struct FamilyReplication {
    /// Client environments and training pools, ready for `run_federation`.
    pub setups: Vec<ClientSetup>,
    /// Held-out test tasks, one set per client (the 40% side of the split).
    pub test_sets: Vec<Vec<TaskSpec>>,
    /// Environment dimensioning shared by all clients.
    pub dims: EnvDims,
    /// Per-client DAG workflow training pools — `Some` only for the
    /// [`WorkloadFamily::Workflow`] family (flat families train on
    /// `setups[k].train_tasks` directly).
    pub workflows: Option<Vec<Vec<DagWorkflow>>>,
}

impl WorkloadFamily {
    /// Every family, in matrix column order. This is the single source of
    /// truth for the family list: anything iterating families (matrix,
    /// gate, reports) derives from here, so a new variant cannot be
    /// silently skipped — the `match`es below stop compiling instead.
    pub const ALL: [WorkloadFamily; 3] =
        [WorkloadFamily::Heterogeneous, WorkloadFamily::Iso, WorkloadFamily::Workflow];

    /// Whether the family belongs in the default evaluation matrix. The
    /// workflow family is opt-in (it measures DAG scheduling, a different
    /// environment than the paper's flat Table 2 study).
    pub fn in_default_matrix(self) -> bool {
        match self {
            WorkloadFamily::Heterogeneous | WorkloadFamily::Iso => true,
            WorkloadFamily::Workflow => false,
        }
    }

    /// The families of the default matrix, derived from [`Self::ALL`].
    pub fn default_families() -> Vec<WorkloadFamily> {
        Self::ALL.into_iter().filter(|f| f.in_default_matrix()).collect()
    }

    /// Stable lowercase identifier (used in seeds, JSON, and markdown).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadFamily::Heterogeneous => "heterogeneous",
            WorkloadFamily::Iso => "iso",
            WorkloadFamily::Workflow => "workflow",
        }
    }

    /// The dataset each client samples from.
    pub fn datasets(self) -> [DatasetId; 4] {
        match self {
            // The workflow family keeps the heterogeneous dataset split —
            // the varying axis is the task structure (DAGs), not the trace.
            WorkloadFamily::Heterogeneous | WorkloadFamily::Workflow => {
                [DatasetId::Google, DatasetId::Alibaba2017, DatasetId::HpcHf, DatasetId::Kvm2019]
            }
            WorkloadFamily::Iso => [DatasetId::Google; 4],
        }
    }

    /// Shared environment dims (Table 2's).
    pub fn dims(self) -> EnvDims {
        EnvDims { max_vms: 5, max_vcpus: 32, max_mem_gb: 256.0, queue_slots: 5 }
    }

    /// Builds one replication: `samples` tasks per client from the family's
    /// datasets, arrivals compressed by [`ARRIVAL_COMPRESSION`] (divided —
    /// same marginal task distributions, that many times the arrival
    /// rate), then
    /// a 60/40 train/test split. Everything is a pure function of `seed`
    /// (so the same seed reproduces identical pools across algorithms —
    /// the pairing invariant).
    ///
    /// Compression matters for the regression gate: at the traces' native
    /// arrival rates the Table 2 fleets are underloaded, every feasible
    /// placement is near-immediate, and uniform-random dispatch is close to
    /// optimal — no scheduler can measurably beat it. Densifying arrivals
    /// creates queueing, which is the regime where placement decisions
    /// (and therefore learning regressions) are visible at all.
    pub fn replication(self, samples: usize, seed: u64) -> FamilyReplication {
        let stream = SeedStream::new(seed);
        let mut setups = Vec::with_capacity(4);
        let mut test_sets = Vec::with_capacity(4);
        for (k, (dataset, fleet)) in self.datasets().iter().zip(FLEETS).enumerate() {
            let pool_seed = stream.child("family-pool").index(k as u64).seed();
            let pool = sample_compressed(*dataset, samples, pool_seed);
            let split =
                train_test_split(&pool, 0.6, stream.child("family-split").index(k as u64).seed());
            let vms: Vec<VmSpec> = fleet
                .iter()
                .flat_map(|&(cpu, mem, count)| std::iter::repeat_n(VmSpec::new(cpu, mem), count))
                .collect();
            setups.push(ClientSetup {
                name: format!("Client{}-{}", k + 1, dataset.name()),
                vms,
                train_tasks: split.train,
            });
            test_sets.push(split.test);
        }
        let workflows = if self == WorkloadFamily::Workflow {
            // One fork–join workflow pool per client over its dataset's
            // task distribution; submissions densified like the flat
            // arrivals so DAG scheduling sees queueing too.
            let n_wf = (samples / 10).max(4);
            let pools = self
                .datasets()
                .iter()
                .enumerate()
                .map(|(k, dataset)| {
                    let mut model = WorkflowModel::scientific(dataset.model());
                    model.mean_interarrival /= ARRIVAL_COMPRESSION as f64;
                    model.sample(n_wf, stream.child("family-wf").index(k as u64).seed())
                })
                .collect();
            Some(pools)
        } else {
            None
        };
        FamilyReplication { setups, test_sets, dims: self.dims(), workflows }
    }
}

impl std::fmt::Display for WorkloadFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_family_has_four_distinct_datasets() {
        let ds = WorkloadFamily::Heterogeneous.datasets();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ds[i], ds[j]);
            }
        }
        assert!(WorkloadFamily::Iso.datasets().iter().all(|&d| d == DatasetId::Google));
    }

    #[test]
    fn replication_is_a_pure_function_of_seed() {
        let a = WorkloadFamily::Heterogeneous.replication(60, 7);
        let b = WorkloadFamily::Heterogeneous.replication(60, 7);
        let c = WorkloadFamily::Heterogeneous.replication(60, 8);
        for k in 0..4 {
            assert_eq!(a.setups[k].train_tasks, b.setups[k].train_tasks);
            assert_eq!(a.test_sets[k], b.test_sets[k]);
        }
        assert_ne!(a.setups[0].train_tasks, c.setups[0].train_tasks);
        // Each client's pool is its dataset's raw sample with arrivals
        // divided by the sweep-wide compression, then split 60/40.
        let stream = SeedStream::new(7);
        for (k, dataset) in WorkloadFamily::Heterogeneous.datasets().iter().enumerate() {
            let mut pool =
                dataset.model().sample(60, stream.child("family-pool").index(k as u64).seed());
            for t in &mut pool {
                t.arrival /= ARRIVAL_COMPRESSION;
            }
            let split =
                train_test_split(&pool, 0.6, stream.child("family-split").index(k as u64).seed());
            assert_eq!((&a.setups[k].train_tasks, &a.test_sets[k]), (&split.train, &split.test));
        }
    }

    #[test]
    fn split_sizes_and_fleets_match_table2() {
        let r = WorkloadFamily::Iso.replication(100, 3);
        assert_eq!(r.setups.len(), 4);
        assert_eq!(r.test_sets.len(), 4);
        let expected_vms = [5, 3, 4, 5];
        for (k, s) in r.setups.iter().enumerate() {
            assert_eq!(s.vms.len(), expected_vms[k], "{}", s.name);
            assert_eq!(s.train_tasks.len(), 60);
            assert_eq!(r.test_sets[k].len(), 40);
            assert!(s.vms.len() <= r.dims.max_vms);
            for v in &s.vms {
                assert!(v.vcpus <= r.dims.max_vcpus);
                assert!(v.mem_gb <= r.dims.max_mem_gb);
            }
        }
    }

    #[test]
    fn workflow_family_builds_valid_pools() {
        let r = WorkloadFamily::Workflow.replication(80, 5);
        let pools = r.workflows.as_ref().expect("workflow family carries pools");
        assert_eq!(pools.len(), 4);
        for pool in pools {
            assert_eq!(pool.len(), 8);
            assert!(pool.iter().all(|w| w.is_valid()));
        }
        // Deterministic in the seed; flat families carry no pools.
        assert_eq!(r.workflows, WorkloadFamily::Workflow.replication(80, 5).workflows);
        assert!(WorkloadFamily::Heterogeneous.replication(40, 5).workflows.is_none());
    }

    #[test]
    fn default_families_derive_from_all() {
        let d = WorkloadFamily::default_families();
        assert_eq!(d, vec![WorkloadFamily::Heterogeneous, WorkloadFamily::Iso]);
        assert!(d.len() < WorkloadFamily::ALL.len(), "workflow family is opt-in");
    }

    /// The family's native tasks must be schedulable on its fleets — a
    /// family whose tasks mostly cannot fit any VM measures truncation
    /// noise, not scheduling quality.
    #[test]
    fn family_workloads_mostly_admissible() {
        for family in WorkloadFamily::ALL {
            let r = family.replication(200, 11);
            for s in &r.setups {
                let fits =
                    |t: &TaskSpec| s.vms.iter().any(|v| t.vcpus <= v.vcpus && t.mem_gb <= v.mem_gb);
                let frac = s.train_tasks.iter().filter(|t| fits(t)).count() as f64
                    / s.train_tasks.len() as f64;
                assert!(frac > 0.95, "{family}/{}: only {frac:.2} admissible", s.name);
            }
        }
    }
}
