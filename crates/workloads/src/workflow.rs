//! Workflow (DAG) workloads — the paper's stated future work ("workflow
//! datasets with dependencies", Sec. 6).
//!
//! A workflow is a layered DAG of tasks: every task may depend on tasks of
//! earlier layers and becomes schedulable only when all of its dependencies
//! complete. The generator produces fork–join-shaped scientific workflows
//! (à la Montage/Epigenomics) on top of any base [`WorkloadModel`]'s
//! resource/duration distributions.

use crate::model::WorkloadModel;
use crate::task::TaskSpec;
use pfrl_stats::seeding::derive_seed;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// One task of a workflow, with intra-workflow dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct DagTask {
    /// The task body. `spec.arrival` is the *workflow submission time*;
    /// actual readiness is determined by dependency completion.
    pub spec: TaskSpec,
    /// Ids (within the same workflow) of tasks that must complete first.
    /// Always references smaller ids, so the graph is acyclic by
    /// construction.
    pub deps: Vec<u64>,
}

/// A submitted workflow: a DAG of tasks sharing one submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    /// Tasks in topological order (ids are `0..n` within the workflow).
    pub tasks: Vec<DagTask>,
    /// Submission step.
    pub submit: u64,
}

impl Workflow {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workflow has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The one-task workflow `task` forms, submitted at its arrival — how a
    /// flat task set runs as a workflow episode.
    pub fn singleton(task: TaskSpec) -> Self {
        Workflow {
            tasks: vec![DagTask { spec: TaskSpec { id: 0, ..task }, deps: Vec::new() }],
            submit: task.arrival,
        }
    }

    /// Validates the DAG invariants: topological ids and dep references.
    pub fn is_valid(&self) -> bool {
        self.tasks.iter().enumerate().all(|(i, t)| {
            t.spec.id == i as u64
                && t.spec.is_valid()
                && t.deps.iter().all(|&d| d < i as u64)
                && t.spec.arrival == self.submit
        })
    }

    /// The critical-path execution time (ignoring resource contention):
    /// a lower bound on the workflow makespan.
    pub fn critical_path(&self) -> u64 {
        let mut finish = vec![0u64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t.deps.iter().map(|&d| finish[d as usize]).max().unwrap_or(0);
            finish[i] = ready + t.spec.duration;
        }
        finish.into_iter().max().unwrap_or(0)
    }

    /// Total work (sum of task durations).
    pub fn total_work(&self) -> u64 {
        self.tasks.iter().map(|t| t.spec.duration).sum()
    }
}

/// Generator of layered fork–join workflows over a base workload model.
#[derive(Debug, Clone)]
pub struct WorkflowModel {
    /// Source of per-task resource demands and durations.
    pub base: WorkloadModel,
    /// Range of DAG depth (number of layers), inclusive.
    pub layers: (usize, usize),
    /// Range of layer width, inclusive.
    pub width: (usize, usize),
    /// Maximum dependencies per task on the previous layer.
    pub max_fan_in: usize,
    /// Mean gap between workflow submissions, in steps.
    pub mean_interarrival: f64,
}

impl WorkflowModel {
    /// A scientific-workflow-shaped default over the given base model.
    pub fn scientific(base: WorkloadModel) -> Self {
        Self { base, layers: (3, 6), width: (1, 5), max_fan_in: 3, mean_interarrival: 30.0 }
    }

    /// Samples `n` workflows with increasing submission times.
    ///
    /// # Panics
    /// On degenerate ranges.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Workflow> {
        assert!(self.layers.0 >= 1 && self.layers.0 <= self.layers.1, "bad layer range");
        assert!(self.width.0 >= 1 && self.width.0 <= self.width.1, "bad width range");
        assert!(self.max_fan_in >= 1, "need fan-in >= 1");
        assert!(self.mean_interarrival > 0.0, "need positive interarrival");

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut submit = 0u64;
        let mut out = Vec::with_capacity(n);
        for w in 0..n {
            // Task bodies come from the base model (its own arrivals are
            // discarded; the workflow submission time takes over).
            let n_layers = rng.gen_range(self.layers.0..=self.layers.1);
            let widths: Vec<usize> =
                (0..n_layers).map(|_| rng.gen_range(self.width.0..=self.width.1)).collect();
            let total: usize = widths.iter().sum();
            let bodies = self.base.sample(total, derive_seed(seed, w as u64));

            let mut tasks = Vec::with_capacity(total);
            let mut prev_layer: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            for &width in &widths {
                let mut this_layer = Vec::with_capacity(width);
                for _ in 0..width {
                    let body = bodies[next_id as usize];
                    let deps = if prev_layer.is_empty() {
                        Vec::new()
                    } else {
                        let k = rng.gen_range(1..=self.max_fan_in.min(prev_layer.len()));
                        let mut choices = prev_layer.clone();
                        let mut deps = Vec::with_capacity(k);
                        for _ in 0..k {
                            let pick = rng.gen_range(0..choices.len());
                            deps.push(choices.swap_remove(pick));
                        }
                        deps.sort_unstable();
                        deps
                    };
                    tasks.push(DagTask {
                        spec: TaskSpec { id: next_id, arrival: submit, ..body },
                        deps,
                    });
                    this_layer.push(next_id);
                    next_id += 1;
                }
                prev_layer = this_layer;
            }
            let wf = Workflow { tasks, submit };
            debug_assert!(wf.is_valid());
            out.push(wf);

            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            submit += (-u.ln() * self.mean_interarrival).ceil() as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetId;

    fn model() -> WorkflowModel {
        WorkflowModel::scientific(DatasetId::Google.model())
    }

    #[test]
    fn generated_workflows_are_valid_dags() {
        for wf in model().sample(20, 1) {
            assert!(wf.is_valid());
            assert!(wf.len() >= 3); // at least layers.0 × width.0
                                    // Layer 0 tasks have no deps; some later task has deps.
            assert!(wf.tasks[0].deps.is_empty());
            assert!(wf.tasks.iter().any(|t| !t.deps.is_empty()));
        }
    }

    #[test]
    fn submissions_increase() {
        let wfs = model().sample(10, 2);
        assert!(wfs.windows(2).all(|w| w[0].submit < w[1].submit));
        assert_eq!(wfs[0].submit, 0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(model().sample(5, 3), model().sample(5, 3));
        assert_ne!(model().sample(5, 3), model().sample(5, 4));
    }

    #[test]
    fn critical_path_bounds() {
        for wf in model().sample(10, 5) {
            let cp = wf.critical_path();
            let max_dur = wf.tasks.iter().map(|t| t.spec.duration).max().unwrap();
            assert!(cp >= max_dur, "critical path shorter than longest task");
            assert!(cp <= wf.total_work(), "critical path exceeds total work");
        }
    }

    #[test]
    fn deps_limited_to_previous_layer_and_fan_in() {
        let m = WorkflowModel { max_fan_in: 2, ..model() };
        for wf in m.sample(10, 6) {
            for t in &wf.tasks {
                assert!(t.deps.len() <= 2);
                // deps strictly precede the task (topological ids).
                assert!(t.deps.iter().all(|&d| d < t.spec.id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad layer range")]
    fn degenerate_layers_rejected() {
        let m = WorkflowModel { layers: (4, 2), ..model() };
        let _ = m.sample(1, 0);
    }
}
