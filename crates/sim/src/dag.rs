//! Dependency-aware scheduling environment for workflow (DAG) workloads —
//! the extension the paper lists as future work (Sec. 6).
//!
//! [`DagCloudEnv`] keeps the flat environment's observation layout, action
//! space, and reward function (so trained agents and the federation
//! machinery work unchanged), but tasks only enter the waiting queue when
//! *all their dependencies have completed*. Response time is measured from
//! the moment a task became ready (the schedulable analogue of arrival),
//! and per-workflow makespans are tracked in addition to the episode
//! metrics.

use crate::cluster::Cluster;
use crate::config::{EnvConfig, EnvDims};
use crate::env::{Action, StepOutcome};
use crate::events::{Event, EventCalendar, EventKind, SimClock, TimeDriven, TimeEngine};
use crate::metrics::{compute_metrics, EpisodeMetrics, TaskRecord};
use crate::vm::{RunningTask, VmSpec};
use crate::SchedulingEnv;
use pfrl_telemetry::Telemetry;
use pfrl_workloads::workflow::Workflow;
use pfrl_workloads::TaskSpec;
use std::collections::VecDeque;
use std::time::Instant;

/// Global (flattened) task index.
type Gid = usize;

/// The workflow scheduling environment.
#[derive(Debug, Clone)]
pub struct DagCloudEnv {
    dims: EnvDims,
    cfg: EnvConfig,
    vm_specs: Vec<VmSpec>,
    cluster: Cluster,
    /// Flattened task bodies; `TaskSpec::id` is the global index.
    tasks: Vec<TaskSpec>,
    /// Workflow index of each task.
    workflow_of: Vec<usize>,
    /// Unfinished dependency count per task.
    remaining_deps: Vec<usize>,
    /// Reverse edges: tasks unlocked by each task's completion.
    dependents: Vec<Vec<Gid>>,
    /// Ready tasks, FIFO by readiness time. `arrival` is rewritten to the
    /// readiness step so response/reward accounting matches the flat env.
    queue: VecDeque<TaskSpec>,
    /// Dep-free tasks whose workflow has not been submitted yet, sorted by
    /// submission time (drained like arrivals).
    future_roots: Vec<Gid>,
    next_root: usize,
    /// The single time authority (event calendar or stepped reference).
    clock: SimClock,
    /// Logical events (completions + root releases) applied this episode —
    /// identical across engines by construction.
    events: u64,
    records: Vec<TaskRecord>,
    /// Completion step per task (None while pending/running).
    finished_at: Vec<Option<u64>>,
    /// Tasks dropped by admission control (incl. descendants of dropped
    /// tasks, which can never become ready).
    rejected: usize,
    outstanding: usize,
    decisions: usize,
    total_reward: f64,
    done: bool,
    truncated: bool,
    n_workflows: usize,
    /// Reusable buffer for tasks released by [`Cluster::advance_to`]
    /// (stepped reference engine only).
    finished_scratch: Vec<RunningTask>,
    telemetry: Telemetry,
    /// Wall-clock start of the running episode; `None` while telemetry is
    /// disabled so the hot path never reads the clock.
    episode_started: Option<Instant>,
}

impl DagCloudEnv {
    /// Builds the environment (same dimension rules as [`crate::CloudEnv`]).
    pub fn new(dims: EnvDims, vms: Vec<VmSpec>, cfg: EnvConfig) -> Self {
        cfg.validate();
        assert!(!vms.is_empty(), "DagCloudEnv needs at least one VM");
        assert!(vms.len() <= dims.max_vms, "cluster exceeds dims.max_vms");
        for v in &vms {
            assert!(
                v.vcpus <= dims.max_vcpus && v.mem_gb <= dims.max_mem_gb,
                "VM exceeds dims maxima"
            );
        }
        let cluster = Cluster::new(&vms);
        Self {
            dims,
            cfg,
            vm_specs: vms,
            cluster,
            tasks: Vec::new(),
            workflow_of: Vec::new(),
            remaining_deps: Vec::new(),
            dependents: Vec::new(),
            queue: VecDeque::new(),
            future_roots: Vec::new(),
            next_root: 0,
            clock: SimClock::default(),
            events: 0,
            records: Vec::new(),
            finished_at: Vec::new(),
            rejected: 0,
            outstanding: 0,
            decisions: 0,
            total_reward: 0.0,
            done: true,
            truncated: false,
            finished_scratch: Vec::new(),
            n_workflows: 0,
            telemetry: Telemetry::noop(),
            episode_started: None,
        }
    }

    /// Routes this environment's metrics to `telemetry` (same schema as the
    /// flat [`crate::CloudEnv`]). Defaults to a noop handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Selects the time engine (event calendar by default; see
    /// [`crate::CloudEnv::set_time_engine`]).
    ///
    /// # Panics
    /// If called mid-episode.
    pub fn set_time_engine(&mut self, engine: TimeEngine) {
        assert!(self.done, "switch time engines only between episodes");
        self.clock.set_engine(engine);
    }

    /// The active time engine.
    pub fn time_engine(&self) -> TimeEngine {
        self.clock.engine()
    }

    /// Logical events (completions + root releases) applied this episode.
    /// Both engines report identical counts.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Starts an episode over a batch of workflows.
    pub fn reset(&mut self, workflows: Vec<Workflow>) {
        self.cluster.reset();
        self.tasks.clear();
        self.workflow_of.clear();
        self.remaining_deps.clear();
        self.dependents.clear();
        self.queue.clear();
        self.future_roots.clear();
        self.next_root = 0;
        self.clock.reset();
        self.events = 0;
        self.records.clear();
        self.finished_at.clear();
        self.rejected = 0;
        self.decisions = 0;
        self.total_reward = 0.0;
        self.truncated = false;
        self.n_workflows = workflows.len();

        // Flatten with global ids; apply admission control transitively.
        for (w, wf) in workflows.iter().enumerate() {
            assert!(wf.is_valid(), "workflow {w} violates DAG invariants");
            let base = self.tasks.len();
            let mut dropped = vec![false; wf.len()];
            for (local, t) in wf.tasks.iter().enumerate() {
                let gid = base + local;
                let admissible = self
                    .vm_specs
                    .iter()
                    .any(|s| t.spec.vcpus <= s.vcpus && t.spec.mem_gb <= s.mem_gb);
                let parent_dropped = t.deps.iter().any(|&d| dropped[d as usize]);
                let mut spec = t.spec;
                spec.id = gid as u64;
                self.tasks.push(spec);
                self.workflow_of.push(w);
                self.remaining_deps.push(t.deps.len());
                self.dependents.push(Vec::new());
                self.finished_at.push(None);
                for &d in &t.deps {
                    self.dependents[base + d as usize].push(gid);
                }
                if !admissible || parent_dropped {
                    dropped[local] = true;
                    self.rejected += 1;
                    self.finished_at[gid] = Some(0); // never schedulable
                } else if t.deps.is_empty() {
                    self.future_roots.push(gid);
                }
            }
        }
        // Roots release at their workflow submission times, scheduled
        // lazily like the flat env's arrivals: the calendar holds at most
        // (1 pending root + running completions) events.
        self.future_roots.sort_by_key(|&g| self.tasks[g].arrival);
        if let Some(&gid) = self.future_roots.first() {
            self.clock.schedule(self.tasks[gid].arrival, EventKind::Release { gid: gid as u32 });
        }
        self.outstanding = self.tasks.len() - self.rejected;
        self.done = self.outstanding == 0;
        if !self.done {
            self.advance(Advance::Due); // release t = 0 roots
            if self.queue.is_empty() {
                self.advance(Advance::Auto);
            }
        }
        self.episode_started = self.telemetry.is_enabled().then(Instant::now);
    }

    /// Number of workflows in the episode.
    pub fn n_workflows(&self) -> usize {
        self.n_workflows
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Ready-queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Tasks rejected by (transitive) admission control.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Whether the episode hit the decision cap.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// The live cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// Specs of the VMs the environment was built with.
    pub fn vm_specs(&self) -> &[VmSpec] {
        &self.vm_specs
    }

    /// Head of the ready queue.
    pub fn head_task(&self) -> Option<&TaskSpec> {
        self.queue.front()
    }

    /// First feasible VM for the head task (baseline drivers).
    pub fn first_fit_action(&self) -> Option<Action> {
        let head = self.queue.front()?;
        self.cluster.vms().iter().position(|v| v.can_fit(head)).map(Action::Vm)
    }

    /// Placement records so far.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Makespan of each workflow (submission → last task completion);
    /// `None` for workflows with unfinished tasks.
    pub fn workflow_makespans(&self) -> Vec<Option<u64>> {
        let mut spans = vec![Some(0u64); self.n_workflows];
        for (gid, t) in self.tasks.iter().enumerate() {
            let w = self.workflow_of[gid];
            // Rejected tasks are marked finished_at = Some(0): they do not
            // extend the span but do not invalidate it either.
            match (self.finished_at[gid], spans[w]) {
                (Some(f), Some(s)) => {
                    let end = f.saturating_sub(t.arrival);
                    spans[w] = Some(s.max(end));
                }
                _ => spans[w] = None,
            }
        }
        spans
    }

    // ---- internals ----

    /// Moves the clock per `mode` through the [`SimClock`] time authority,
    /// accounting the events applied and the size of the horizon jump.
    fn advance(&mut self, mode: Advance) {
        let from = self.clock.now();
        let fast_forward = self.cfg.fast_forward;
        let DagCloudEnv {
            clock,
            cluster,
            tasks,
            queue,
            future_roots,
            next_root,
            remaining_deps,
            dependents,
            finished_at,
            finished_scratch,
            ..
        } = self;
        let mut timeline = DagTimeline {
            cluster,
            tasks,
            queue,
            future_roots,
            next_root,
            remaining_deps,
            dependents,
            finished_at,
            finished_scratch,
        };
        let n = match mode {
            Advance::One => clock.advance_one(&mut timeline),
            Advance::Auto => clock.advance_auto(fast_forward, &mut timeline),
            Advance::Due => clock.drain_due(&mut timeline),
            Advance::Next => {
                clock.advance_next(&mut timeline).expect("running tasks imply a pending completion")
            }
        };
        self.events += n;
        let jump = self.clock.now() - from;
        if jump > 0 {
            self.telemetry.observe("sim/event_horizon_jump", jump as f64);
        }
    }

    /// Per-episode telemetry, emitted once when an episode finishes (same
    /// schema as the flat env: deterministic quantities in
    /// counters/histograms, wall-clock quantities in gauges/spans).
    fn record_episode_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.counter("sim/decisions", self.decisions as u64);
        self.telemetry.counter("sim/episodes", 1);
        self.telemetry.counter("sim/events", self.events);
        self.telemetry.observe("sim/episode_decisions", self.decisions as f64);
        if let Some(started) = self.episode_started.take() {
            let elapsed = started.elapsed();
            let ns = elapsed.as_nanos() as u64;
            self.telemetry.span_ns("sim/episode", ns);
            if self.decisions > 0 && ns > 0 {
                self.telemetry.gauge("sim/ns_per_decision", ns as f64 / self.decisions as f64);
                self.telemetry
                    .gauge("sim/decisions_per_sec", self.decisions as f64 / elapsed.as_secs_f64());
            }
        }
    }
}

/// Clock-movement modes of the DAG environment.
enum Advance {
    /// Exactly one step.
    One,
    /// To the next event when fast-forwarding, else one step.
    Auto,
    /// Apply events due at the current time without advancing (reset).
    Due,
    /// Jump to the next pending event (end-of-episode completion drain).
    Next,
}

/// Disjoint-field view of the DAG environment's time-dependent state: what
/// the [`SimClock`] drives.
struct DagTimeline<'a> {
    cluster: &'a mut Cluster,
    tasks: &'a [TaskSpec],
    queue: &'a mut VecDeque<TaskSpec>,
    future_roots: &'a [Gid],
    next_root: &'a mut usize,
    remaining_deps: &'a mut [usize],
    dependents: &'a [Vec<Gid>],
    finished_at: &'a mut [Option<u64>],
    finished_scratch: &'a mut Vec<RunningTask>,
}

impl DagTimeline<'_> {
    /// Puts task `gid` into the ready queue with readiness step `ready`.
    fn enqueue_ready(&mut self, gid: Gid, ready: u64) {
        let mut spec = self.tasks[gid];
        spec.arrival = ready;
        self.queue.push_back(spec);
    }

    /// Applies one completion: mark finished, unlock dependents (both
    /// engines share this exact transition).
    fn complete(&mut self, rt: &RunningTask) {
        let gid = rt.task_id as usize;
        self.finished_at[gid] = Some(rt.end());
        for i in 0..self.dependents[gid].len() {
            let dep = self.dependents[gid][i];
            if self.finished_at[dep].is_some() {
                continue; // rejected descendant
            }
            self.remaining_deps[dep] -= 1;
            if self.remaining_deps[dep] == 0 {
                // Ready now (submission time already passed: parents ran).
                self.enqueue_ready(dep, rt.end().max(self.tasks[dep].arrival));
            }
        }
    }

    /// Releases task `gid` at its submission time, scheduling the next
    /// pending root (lazy chain, mirroring flat arrivals).
    fn release_root(&mut self, gid: Gid, calendar: &mut EventCalendar) {
        debug_assert_eq!(gid, self.future_roots[*self.next_root], "roots release in order");
        *self.next_root += 1;
        if let Some(&next) = self.future_roots.get(*self.next_root) {
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
            EventKind::Arrival { .. } => unreachable!("DAG env schedules no Arrival events"),
        }
    }

    fn scan_to(&mut self, now: u64) -> u64 {
        self.finished_scratch.clear();
        self.cluster.advance_to(now, self.finished_scratch);
        let mut n = self.finished_scratch.len() as u64;
        for i in 0..self.finished_scratch.len() {
            let rt = self.finished_scratch[i];
            self.complete(&rt);
        }
        while *self.next_root < self.future_roots.len() {
            let gid = self.future_roots[*self.next_root];
            if self.tasks[gid].arrival > now {
                break;
            }
            *self.next_root += 1;
            self.enqueue_ready(gid, self.tasks[gid].arrival);
            n += 1;
        }
        n
    }

    fn next_event_scan(&self) -> Option<u64> {
        let completion = self.cluster.next_completion();
        let root = self.future_roots.get(*self.next_root).map(|&g| self.tasks[g].arrival);
        match (completion, root) {
            (Some(c), Some(r)) => Some(c.min(r)),
            (c, r) => c.or(r),
        }
    }
}

impl SchedulingEnv for DagCloudEnv {
    fn dims(&self) -> &EnvDims {
        &self.dims
    }

    fn observe_into(&self, out: &mut Vec<f32>) {
        out.resize(self.dims.state_dim(), 0.0);
        crate::state::encode_state_into(
            &self.dims,
            &self.cluster,
            self.queue.iter().take(self.dims.queue_slots),
            self.clock.now(),
            out,
        );
    }

    fn step(&mut self, action: Action) -> StepOutcome {
        assert!(!self.done, "step on finished episode");
        self.decisions += 1;
        let mut placed = false;

        let reward = match action {
            Action::Vm(i) if i >= self.cluster.len() => {
                self.advance(Advance::One);
                crate::reward::void_slot_penalty()
            }
            Action::Vm(i) => match self.queue.front().copied() {
                None => {
                    self.advance(Advance::Auto);
                    0.0
                }
                Some(head) => {
                    if self.cluster.vms()[i].can_fit(&head) {
                        placed = true;
                        let now = self.clock.now();
                        let lb_before = self.cluster.load_balance(&self.cfg.resource_weights);
                        self.cluster.vm_mut(i).place(&head, now);
                        self.clock.schedule(
                            now + head.duration,
                            EventKind::Completion { vm: i as u32, task_id: head.id },
                        );
                        let lb_after = self.cluster.load_balance(&self.cfg.resource_weights);
                        self.queue.pop_front();
                        self.outstanding -= 1;
                        self.records.push(TaskRecord {
                            task_id: head.id,
                            vm: i,
                            vcpus: head.vcpus,
                            mem_gb: head.mem_gb,
                            arrival: head.arrival,
                            start: now,
                            duration: head.duration,
                        });
                        crate::reward::placement_reward(
                            &self.cfg,
                            lb_before,
                            lb_after,
                            now - head.arrival,
                            head.duration,
                        )
                    } else {
                        let r = crate::reward::denial_penalty(&self.cfg, &self.cluster.vms()[i]);
                        self.advance(Advance::One);
                        r
                    }
                }
            },
            Action::Wait => {
                let lazy = self.queue.front().is_some_and(|head| self.cluster.any_feasible(head));
                if lazy {
                    self.advance(Advance::One);
                    self.cfg.lazy_wait_penalty
                } else {
                    self.advance(Advance::Auto);
                    0.0
                }
            }
        };

        self.total_reward += reward as f64;
        if self.outstanding == 0 {
            // Fast-forward so all completions are registered (for
            // workflow makespans), then finish.
            while self.cluster.running_count() > 0 {
                self.advance(Advance::Next);
            }
            self.done = true;
        }
        if self.decisions >= self.cfg.max_decisions && !self.done {
            self.done = true;
            self.truncated = true;
        }
        self.telemetry.observe("sim/queue_depth", self.queue.len() as f64);
        if self.done {
            self.record_episode_telemetry();
        }
        StepOutcome { reward, done: self.done, placed }
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn metrics(&self) -> EpisodeMetrics {
        // Unplaced = everything never recorded: still queued/blocked tasks
        // plus admission-rejected ones (matching the flat env's accounting).
        let unplaced = self.tasks.len() - self.records.len();
        compute_metrics(
            &self.records,
            &self.vm_specs,
            &self.cfg.resource_weights,
            unplaced,
            self.total_reward,
        )
    }

    fn action_mask_into(&self, out: &mut Vec<bool>) {
        out.clear();
        out.resize(self.dims.action_dim(), false);
        out[self.dims.max_vms] = true;
        if let Some(head) = self.queue.front() {
            for (i, vm) in self.cluster.vms().iter().enumerate() {
                if vm.can_fit(head) {
                    out[i] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfrl_workloads::workflow::DagTask;

    fn dims() -> EnvDims {
        EnvDims::new(2, 8, 64.0, 4)
    }

    fn env() -> DagCloudEnv {
        DagCloudEnv::new(
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
        e.reset(vec![diamond()]);
        assert_eq!(e.queue_len(), 1);
        assert_eq!(e.head_task().unwrap().id, 0);
    }

    #[test]
    fn dependents_release_only_after_completion() {
        let mut e = env();
        e.reset(vec![diamond()]);
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
        e.reset(vec![diamond()]);
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
        e.reset(vec![diamond()]);
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
        e.reset(vec![wf]);
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
        e.reset(vec![wf]);
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
        e.reset(vec![diamond(), wf2]);
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
        e.reset(vec![diamond()]);
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
        e.reset(vec![diamond()]);
        assert_eq!(e.observe().len(), dims().state_dim());
    }
}
