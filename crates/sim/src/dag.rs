//! Workflow (DAG) workloads for [`crate::CloudEnv`] — the extension the
//! paper lists as future work (Sec. 6).
//!
//! [`crate::CloudEnv::reset_workflows`] starts an episode over a workflow
//! set. The observation layout, action space and reward function are those
//! of a flat episode (so trained agents and the federation machinery work
//! unchanged), but a task only enters the waiting queue once *all its
//! dependencies have completed*. Response time is measured from the moment
//! a task became ready (the schedulable analogue of arrival), and
//! per-workflow makespans are tracked in addition to the episode metrics.

use crate::cluster::Cluster;
use crate::env::admissible;
use crate::events::{Event, EventCalendar, EventKind, TimeDriven};
use crate::vm::{RunningTask, VmSpec};
use pfrl_workloads::workflow::Workflow;
use pfrl_workloads::TaskSpec;
use std::collections::VecDeque;

/// Global (flattened) task index.
type Gid = usize;

/// The dependency state of a workflow episode: what decides when its
/// flattened tasks become ready.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workflows {
    /// Workflow index of each task.
    workflow_of: Vec<usize>,
    /// Unfinished dependency count per task.
    remaining_deps: Vec<usize>,
    /// Reverse edges: tasks unlocked by each task's completion.
    dependents: Vec<Vec<Gid>>,
    /// Dep-free tasks, sorted by submission time (released like arrivals).
    roots: Vec<Gid>,
    next_root: usize,
    /// Completion step per task (`None` while pending/running).
    finished_at: Vec<Option<u64>>,
    n_workflows: usize,
    /// Reusable buffer for tasks released by [`Cluster::advance_to`]
    /// (stepped reference engine only).
    finished_scratch: Vec<RunningTask>,
}

impl Workflows {
    /// Flattens `workflows` into `tasks` with global ids and applies
    /// admission control transitively; returns the number of rejected
    /// tasks (a task that fits no VM, and every descendant of one).
    ///
    /// # Panics
    /// If a workflow violates the DAG invariants.
    pub(crate) fn load(
        &mut self,
        workflows: &[Workflow],
        vm_specs: &[VmSpec],
        tasks: &mut Vec<TaskSpec>,
    ) -> usize {
        tasks.clear();
        self.workflow_of.clear();
        self.remaining_deps.clear();
        self.dependents.clear();
        self.roots.clear();
        self.next_root = 0;
        self.finished_at.clear();
        self.n_workflows = workflows.len();
        let mut rejected = 0;
        for (w, wf) in workflows.iter().enumerate() {
            assert!(wf.is_valid(), "workflow {w} violates DAG invariants");
            let base = tasks.len();
            let mut dropped = vec![false; wf.len()];
            for (local, t) in wf.tasks.iter().enumerate() {
                let gid = base + local;
                let parent_dropped = t.deps.iter().any(|&d| dropped[d as usize]);
                tasks.push(TaskSpec { id: gid as u64, ..t.spec });
                self.workflow_of.push(w);
                self.remaining_deps.push(t.deps.len());
                self.dependents.push(Vec::new());
                self.finished_at.push(None);
                for &d in &t.deps {
                    self.dependents[base + d as usize].push(gid);
                }
                if !admissible(vm_specs, &t.spec) || parent_dropped {
                    dropped[local] = true;
                    rejected += 1;
                    self.finished_at[gid] = Some(0); // never schedulable
                } else if t.deps.is_empty() {
                    self.roots.push(gid);
                }
            }
        }
        self.roots.sort_by_key(|&g| tasks[g].arrival);
        rejected
    }

    /// The first root to release, if any.
    pub(crate) fn first_root(&self) -> Option<Gid> {
        self.roots.first().copied()
    }

    /// Makespan of each workflow (submission → last task completion);
    /// `None` for workflows with unfinished tasks.
    pub(crate) fn makespans(&self, tasks: &[TaskSpec]) -> Vec<Option<u64>> {
        let mut spans = vec![Some(0u64); self.n_workflows];
        for (gid, t) in tasks.iter().enumerate() {
            let w = self.workflow_of[gid];
            // Rejected tasks are marked finished_at = Some(0): they do not
            // extend the span but do not invalidate it either.
            match (self.finished_at[gid], spans[w]) {
                (Some(f), Some(s)) => spans[w] = Some(s.max(f.saturating_sub(t.arrival))),
                _ => spans[w] = None,
            }
        }
        spans
    }

    /// The clock-driven view over this state and the episode's shared
    /// cluster, tasks and ready queue.
    pub(crate) fn timeline<'a>(
        &'a mut self,
        cluster: &'a mut Cluster,
        tasks: &'a [TaskSpec],
        queue: &'a mut VecDeque<TaskSpec>,
    ) -> DagTimeline<'a> {
        DagTimeline { cluster, tasks, queue, dag: self }
    }
}

/// Disjoint-field view of a workflow episode's time-dependent state: what
/// the [`crate::SimClock`] drives.
pub(crate) struct DagTimeline<'a> {
    cluster: &'a mut Cluster,
    tasks: &'a [TaskSpec],
    queue: &'a mut VecDeque<TaskSpec>,
    dag: &'a mut Workflows,
}

impl DagTimeline<'_> {
    /// Puts task `gid` into the ready queue with readiness step `ready`.
    fn enqueue_ready(&mut self, gid: Gid, ready: u64) {
        self.queue.push_back(TaskSpec { arrival: ready, ..self.tasks[gid] });
    }

    /// Applies one completion: mark finished, unlock dependents (both
    /// engines share this exact transition).
    fn complete(&mut self, rt: &RunningTask) {
        let gid = rt.task_id as usize;
        self.dag.finished_at[gid] = Some(rt.end());
        for i in 0..self.dag.dependents[gid].len() {
            let dep = self.dag.dependents[gid][i];
            if self.dag.finished_at[dep].is_some() {
                continue; // rejected descendant
            }
            self.dag.remaining_deps[dep] -= 1;
            if self.dag.remaining_deps[dep] == 0 {
                // Ready now (submission time already passed: parents ran).
                self.enqueue_ready(dep, rt.end().max(self.tasks[dep].arrival));
            }
        }
    }

    /// Releases root `gid` at its submission time, scheduling the next
    /// pending root (lazy chain, mirroring flat arrivals).
    fn release_root(&mut self, gid: Gid, calendar: &mut EventCalendar) {
        debug_assert_eq!(gid, self.dag.roots[self.dag.next_root], "roots release in order");
        self.dag.next_root += 1;
        if let Some(&next) = self.dag.roots.get(self.dag.next_root) {
            calendar.schedule(self.tasks[next].arrival, EventKind::Release { gid: next as u32 });
        }
        self.enqueue_ready(gid, self.tasks[gid].arrival);
    }
}

impl TimeDriven for DagTimeline<'_> {
    fn on_event(&mut self, ev: Event, calendar: &mut EventCalendar) {
        match ev.kind {
            EventKind::Completion { vm, task_id } => {
                let rt = self.cluster.vm_mut(vm as usize).finish(task_id, ev.time);
                self.complete(&rt);
            }
            EventKind::Release { gid } => self.release_root(gid as usize, calendar),
            EventKind::Arrival { .. } => {
                unreachable!("workflow episodes schedule no Arrival events")
            }
        }
    }

    fn scan_to(&mut self, now: u64) -> u64 {
        let mut finished = std::mem::take(&mut self.dag.finished_scratch);
        finished.clear();
        self.cluster.advance_to(now, &mut finished);
        let mut n = finished.len() as u64;
        for rt in &finished {
            self.complete(rt);
        }
        self.dag.finished_scratch = finished;
        while let Some(&gid) = self.dag.roots.get(self.dag.next_root) {
            if self.tasks[gid].arrival > now {
                break;
            }
            self.dag.next_root += 1;
            self.enqueue_ready(gid, self.tasks[gid].arrival);
            n += 1;
        }
        n
    }

    fn next_event_scan(&self) -> Option<u64> {
        let completion = self.cluster.next_completion();
        let root = self.dag.roots.get(self.dag.next_root).map(|&g| self.tasks[g].arrival);
        match (completion, root) {
            (Some(c), Some(r)) => Some(c.min(r)),
            (c, r) => c.or(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Action, CloudEnv, EnvConfig, EnvDims, VmSpec};
    use pfrl_workloads::workflow::{DagTask, Workflow};
    use pfrl_workloads::TaskSpec;

    fn dims() -> EnvDims {
        EnvDims::new(2, 8, 64.0, 4)
    }

    fn env() -> CloudEnv {
        CloudEnv::new(
            dims(),
            vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            EnvConfig::default(),
        )
    }

    fn task(id: u64, vcpus: u32, dur: u64, deps: &[u64]) -> DagTask {
        DagTask {
            spec: TaskSpec { id, arrival: 0, vcpus, mem_gb: 1.0, duration: dur },
            deps: deps.to_vec(),
        }
    }

    /// A diamond: 0 → {1, 2} → 3.
    fn diamond() -> Workflow {
        Workflow {
            tasks: vec![
                task(0, 1, 10, &[]),
                task(1, 1, 5, &[0]),
                task(2, 1, 8, &[0]),
                task(3, 1, 3, &[1, 2]),
            ],
            submit: 0,
        }
    }

    #[test]
    fn only_roots_ready_initially() {
        let mut e = env();
        e.reset_workflows(vec![diamond()]);
        assert_eq!(e.queue_len(), 1);
        assert_eq!(e.head_task().unwrap().id, 0);
    }

    #[test]
    fn dependents_release_only_after_completion() {
        let mut e = env();
        e.reset_workflows(vec![diamond()]);
        e.step(Action::Vm(0)); // place task 0 at t=0, ends t=10
        assert_eq!(e.queue_len(), 0);
        // Nothing ready: wait fast-forwards to the completion at t=10.
        e.step(Action::Wait);
        assert_eq!(e.now(), 10);
        assert_eq!(e.queue_len(), 2); // tasks 1 and 2 ready
                                      // Their readiness time is the unlock time.
        assert_eq!(e.head_task().unwrap().arrival, 10);
    }

    #[test]
    fn full_diamond_executes_in_dependency_order() {
        let mut e = env();
        e.reset_workflows(vec![diamond()]);
        let mut guard = 0;
        while !e.is_done() && guard < 1000 {
            let a = e.first_fit_action().unwrap_or(Action::Wait);
            e.step(a);
            guard += 1;
        }
        assert!(e.is_done() && !e.is_truncated());
        assert_eq!(e.records().len(), 4);
        // Task 3 starts only after both 1 and 2 finish (t = 10 + max(5,8)).
        let rec3 = e.records().iter().find(|r| r.task_id == 3).unwrap();
        assert_eq!(rec3.start, 18);
        // Workflow makespan = 10 + 8 + 3 = 21 = critical path (no contention).
        assert_eq!(e.workflow_makespans(), vec![Some(21)]);
        assert_eq!(diamond().critical_path(), 21);
    }

    #[test]
    fn parallel_siblings_run_concurrently() {
        let mut e = env();
        e.reset_workflows(vec![diamond()]);
        e.step(Action::Vm(0));
        e.step(Action::Wait); // to t=10
        e.step(Action::Vm(0)); // task 1 on VM 0
        e.step(Action::Vm(1)); // task 2 on VM 1 — same step, both at t=10
        let starts: Vec<u64> = e
            .records()
            .iter()
            .filter(|r| r.task_id == 1 || r.task_id == 2)
            .map(|r| r.start)
            .collect();
        assert_eq!(starts, vec![10, 10]);
    }

    #[test]
    fn late_submission_delays_roots() {
        let mut wf = diamond();
        wf.submit = 50;
        for t in &mut wf.tasks {
            t.spec.arrival = 50;
        }
        let mut e = env();
        e.reset_workflows(vec![wf]);
        // Reset fast-forwards to the first submission.
        assert_eq!(e.now(), 50);
        assert_eq!(e.queue_len(), 1);
    }

    #[test]
    fn inadmissible_task_drops_descendants() {
        let wf = Workflow {
            tasks: vec![
                task(0, 1, 5, &[]),
                // Too big for any VM (max 8 vCPUs):
                task(1, 32, 5, &[0]),
                task(2, 1, 5, &[1]), // descendant of the dropped task
                task(3, 1, 5, &[0]), // unaffected branch
            ],
            submit: 0,
        };
        let mut e = env();
        e.reset_workflows(vec![wf]);
        assert_eq!(e.rejected(), 2);
        let mut guard = 0;
        while !e.is_done() && guard < 1000 {
            let a = e.first_fit_action().unwrap_or(Action::Wait);
            e.step(a);
            guard += 1;
        }
        assert!(e.is_done() && !e.is_truncated());
        assert_eq!(e.records().len(), 2); // tasks 0 and 3 only
    }

    #[test]
    fn two_workflows_interleave() {
        let mut wf2 = diamond();
        wf2.submit = 5;
        for t in &mut wf2.tasks {
            t.spec.arrival = 5;
        }
        let mut e = env();
        e.reset_workflows(vec![diamond(), wf2]);
        let mut guard = 0;
        while !e.is_done() && guard < 2000 {
            let a = e.first_fit_action().unwrap_or(Action::Wait);
            e.step(a);
            guard += 1;
        }
        assert_eq!(e.records().len(), 8);
        let spans = e.workflow_makespans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.is_some()));
        // Each workflow's span is at least its critical path.
        for s in spans.into_iter().flatten() {
            assert!(s >= 21);
        }
    }

    #[test]
    fn rewards_and_metrics_consistent() {
        let mut e = env();
        e.reset_workflows(vec![diamond()]);
        let mut total = 0.0f64;
        let mut guard = 0;
        while !e.is_done() && guard < 1000 {
            let a = e.first_fit_action().unwrap_or(Action::Wait);
            total += e.step(a).reward as f64;
            guard += 1;
        }
        let m = e.metrics();
        assert!((m.total_reward - total).abs() < 1e-9);
        assert_eq!(m.tasks_placed, 4);
        assert!(m.avg_response >= 3.0);
    }

    #[test]
    fn observation_shape_matches_dims() {
        let mut e = env();
        e.reset_workflows(vec![diamond()]);
        assert_eq!(e.observe().len(), dims().state_dim());
    }
}
