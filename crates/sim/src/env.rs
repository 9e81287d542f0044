//! The RL environment: episode loop, action semantics, and reward function
//! (Sec. 4.2, Eqs. 2 and 6–9), over either workload an episode can carry —
//! a flat arrival trace ([`CloudEnv::reset`]) or a DAG workflow set
//! ([`CloudEnv::reset_workflows`], see [`crate::dag`]).

use crate::cluster::Cluster;
use crate::config::{EnvConfig, EnvDims};
use crate::dag::Workflows;
use crate::events::{Event, EventCalendar, EventKind, SimClock, TimeDriven, TimeEngine};
use crate::metrics::{compute_metrics, EpisodeMetrics, TaskRecord};
use crate::state;
use crate::vm::VmSpec;
use pfrl_telemetry::Telemetry;
use pfrl_workloads::workflow::Workflow;
use pfrl_workloads::TaskSpec;
use std::collections::VecDeque;
use std::time::Instant;

/// A scheduling action: assign the head-of-queue task to VM `i`, or wait
/// one step (the `-1` of Eq. (2)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Place the head task on the VM with this index.
    Vm(usize),
    /// Do nothing this step.
    Wait,
}

impl Action {
    /// Decodes a policy-head index: `0..max_vms` are VM choices, `max_vms`
    /// is wait.
    ///
    /// # Panics
    /// If `index > max_vms`.
    pub fn from_index(index: usize, max_vms: usize) -> Self {
        assert!(index <= max_vms, "action index {index} out of range");
        if index == max_vms {
            Action::Wait
        } else {
            Action::Vm(index)
        }
    }

    /// Encodes back to the policy-head index.
    pub fn to_index(self, max_vms: usize) -> usize {
        match self {
            Action::Vm(i) => i,
            Action::Wait => max_vms,
        }
    }
}

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Scalar reward.
    pub reward: f32,
    /// Whether the episode finished with this step.
    pub done: bool,
    /// True iff this step successfully placed a task.
    pub placed: bool,
}

/// What decides when an episode's tasks become ready — the only part of
/// the MDP that differs between the two workloads.
#[derive(Debug, Clone)]
enum Workload {
    /// A flat arrival trace (the paper's setting): `tasks` is
    /// arrival-sorted and a task is ready at its arrival.
    Trace {
        /// Index of the next task to arrive.
        next_arrival: usize,
    },
    /// A DAG workflow set: a task is ready once all its dependencies have
    /// completed.
    Workflows(Workflows),
}

/// The cloud task-scheduling environment of one client.
#[derive(Debug, Clone)]
pub struct CloudEnv {
    dims: EnvDims,
    cfg: EnvConfig,
    vm_specs: Vec<VmSpec>,
    /// The state columns this fleet can fill ([`state::live_columns`]).
    live_columns: Vec<usize>,
    cluster: Cluster,
    /// Episode tasks: the arrival-sorted trace, or the flattened workflow
    /// bodies (`TaskSpec::id` is then the global index).
    tasks: Vec<TaskSpec>,
    workload: Workload,
    /// Ready tasks, FIFO. A workflow task's `arrival` is rewritten to its
    /// readiness step, so response/reward accounting is the same for both
    /// workloads.
    queue: VecDeque<TaskSpec>,
    /// The single time authority (event calendar or stepped reference).
    clock: SimClock,
    /// Logical events (arrivals or root releases + completions) applied
    /// this episode — identical across engines by construction.
    events: u64,
    records: Vec<TaskRecord>,
    /// Tasks rejected at admission because they exceed every VM's total
    /// capacity (can occur with hybrid foreign workloads, Sec. 5.3); in a
    /// workflow episode also their descendants, which can never be ready.
    rejected: usize,
    decisions: usize,
    total_reward: f64,
    done: bool,
    truncated: bool,
    telemetry: Telemetry,
    /// Wall-clock start of the running episode; `None` while telemetry is
    /// disabled so the hot path never reads the clock.
    episode_started: Option<Instant>,
}

impl CloudEnv {
    /// Builds an environment over `vms` with federation-wide `dims`.
    ///
    /// # Panics
    /// If the cluster exceeds the dims (more VMs than `max_vms`, or a VM
    /// larger than the normalization maxima), or config is invalid.
    pub fn new(dims: EnvDims, vms: Vec<VmSpec>, cfg: EnvConfig) -> Self {
        cfg.validate();
        assert!(!vms.is_empty(), "CloudEnv needs at least one VM");
        assert!(
            vms.len() <= dims.max_vms,
            "cluster has {} VMs but dims allow {}",
            vms.len(),
            dims.max_vms
        );
        for (i, v) in vms.iter().enumerate() {
            assert!(
                v.vcpus <= dims.max_vcpus && v.mem_gb <= dims.max_mem_gb,
                "VM {i} ({}, {}) exceeds dims maxima",
                v.vcpus,
                v.mem_gb
            );
        }
        let cluster = Cluster::new(&vms);
        Self {
            live_columns: state::live_columns(&dims, &vms),
            dims,
            cfg,
            vm_specs: vms,
            cluster,
            tasks: Vec::new(),
            workload: Workload::Trace { next_arrival: 0 },
            queue: VecDeque::new(),
            clock: SimClock::default(),
            events: 0,
            records: Vec::new(),
            rejected: 0,
            decisions: 0,
            total_reward: 0.0,
            done: true,
            truncated: false,
            telemetry: Telemetry::noop(),
            episode_started: None,
        }
    }

    /// Routes this environment's metrics (decisions/sec, queue depth,
    /// per-episode step timing) to `telemetry`. Defaults to a noop handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Selects the time engine (event calendar by default; the stepped
    /// scan engine is the bit-identical reference used by the equivalence
    /// suite and the perf baseline).
    ///
    /// # Panics
    /// If called mid-episode — switching then would desynchronize the
    /// calendar from the cluster state.
    pub fn set_time_engine(&mut self, engine: TimeEngine) {
        assert!(self.done, "switch time engines only between episodes");
        self.clock.set_engine(engine);
    }

    /// The active time engine.
    pub fn time_engine(&self) -> TimeEngine {
        self.clock.engine()
    }

    /// Logical events (arrivals or root releases, incl. admission
    /// rejections, + completions) applied this episode. Both engines report
    /// identical counts.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Starts a new episode over the flat trace `tasks` (will be
    /// arrival-sorted).
    pub fn reset(&mut self, mut tasks: Vec<TaskSpec>) {
        tasks.sort_by_key(|t| t.arrival);
        self.clear_episode();
        self.tasks = tasks;
        self.workload = Workload::Trace { next_arrival: 0 };
        // Arrivals are scheduled lazily, one pending event at a time: the
        // calendar holds at most (1 arrival + running completions) events.
        if let Some(first) = self.tasks.first() {
            self.clock.schedule(first.arrival, EventKind::Arrival { index: 0 });
        }
        self.start_episode();
    }

    /// Starts a new episode over a batch of DAG workflows: tasks enter the
    /// queue only once all their dependencies have completed, and a task
    /// that fits no VM is rejected together with its descendants.
    ///
    /// # Panics
    /// If a workflow violates the DAG invariants ([`Workflow::is_valid`]).
    pub fn reset_workflows(&mut self, workflows: Vec<Workflow>) {
        self.clear_episode();
        let mut dag =
            match std::mem::replace(&mut self.workload, Workload::Trace { next_arrival: 0 }) {
                Workload::Workflows(dag) => dag,
                Workload::Trace { .. } => Workflows::default(),
            };
        self.rejected = dag.load(&workflows, &self.vm_specs, &mut self.tasks);
        // Roots release at their workflow submission times, scheduled
        // lazily like arrivals: the calendar holds at most (1 pending root
        // + running completions) events.
        if let Some(gid) = dag.first_root() {
            self.clock.schedule(self.tasks[gid].arrival, EventKind::Release { gid: gid as u32 });
        }
        self.workload = Workload::Workflows(dag);
        self.start_episode();
    }

    /// Clears the per-episode state both resets share.
    fn clear_episode(&mut self) {
        self.cluster.reset();
        self.queue.clear();
        self.clock.reset();
        self.events = 0;
        self.records.clear();
        self.rejected = 0;
        self.decisions = 0;
        self.total_reward = 0.0;
        self.truncated = false;
    }

    /// Applies the events due at t = 0 and, on an empty-queue start with
    /// pending future tasks, skips the dead time to the first one.
    fn start_episode(&mut self) {
        self.advance(Advance::Due);
        self.done = self.all_settled();
        if !self.done && self.queue.is_empty() {
            self.advance(Advance::Auto);
        }
        self.episode_started = self.telemetry.is_enabled().then(Instant::now);
    }

    /// Whether every episode task is placed or rejected — nothing is queued
    /// or still to come.
    fn all_settled(&self) -> bool {
        self.records.len() + self.rejected == self.tasks.len()
    }

    /// Environment dims.
    pub fn dims(&self) -> &EnvDims {
        &self.dims
    }

    /// Environment config.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }

    /// Current simulation time (steps).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The VM specs of this cluster.
    pub fn vm_specs(&self) -> &[VmSpec] {
        &self.vm_specs
    }

    /// The observation columns this fleet can set to anything but
    /// [`state::VOID`], ascending ([`state::live_columns`]; fixed at
    /// construction). Every other column reads `VOID` in every state.
    pub fn live_columns(&self) -> &[usize] {
        &self.live_columns
    }

    /// The live cluster state.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of tasks waiting (full backlog, not just visible slots).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the episode has ended.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the episode ended by hitting the decision cap.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Agent decisions taken so far this episode.
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// The current observation vector (Eq. 1 encoding).
    pub fn observe(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.observe_into(&mut out);
        out
    }

    /// [`CloudEnv::observe`] into a reusable buffer (resized to
    /// [`EnvDims::state_dim`]) — the per-decision inference path allocates
    /// nothing after warmup.
    pub fn observe_into(&self, out: &mut Vec<f32>) {
        out.resize(self.dims.state_dim(), 0.0);
        self.observe_into_slice(out);
    }

    /// [`CloudEnv::observe`] into a slice of exactly
    /// [`EnvDims::state_dim`] floats, e.g. one row of a batch's state
    /// matrix; every element is overwritten.
    pub fn observe_into_slice(&self, out: &mut [f32]) {
        state::encode_state_into(
            &self.dims,
            &self.cluster,
            self.queue.iter().take(self.dims.queue_slots),
            self.clock.now(),
            out,
        );
    }

    /// Feasibility mask over the action head: `mask[i]` for VM `i`,
    /// `mask[max_vms]` for wait (always true).
    pub fn action_mask(&self) -> Vec<bool> {
        let mut mask = Vec::new();
        self.action_mask_into(&mut mask);
        mask
    }

    /// [`CloudEnv::action_mask`] into a reusable buffer.
    pub fn action_mask_into(&self, out: &mut Vec<bool>) {
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

    /// First feasible VM for the head task, if any (used by baselines).
    pub fn first_fit_action(&self) -> Option<Action> {
        let head = self.queue.front()?;
        self.cluster.vms().iter().position(|v| v.can_fit(head)).map(Action::Vm)
    }

    /// Head of the waiting queue, if any.
    pub fn head_task(&self) -> Option<&TaskSpec> {
        self.queue.front()
    }

    /// Executes one agent decision.
    ///
    /// # Panics
    /// If called on a finished episode.
    pub fn step(&mut self, action: Action) -> StepOutcome {
        assert!(!self.done, "step on finished episode");
        self.decisions += 1;
        let mut placed = false;

        let reward = match action {
            Action::Vm(i) if i >= self.cluster.len() => {
                // Void VM slot: maximal denial penalty (util treated as 1).
                self.advance(Advance::One);
                crate::reward::void_slot_penalty()
            }
            Action::Vm(i) => match self.queue.front().copied() {
                None => {
                    // Nothing to schedule; behave like a neutral wait.
                    self.advance(Advance::Auto);
                    0.0
                }
                Some(head) => {
                    if self.cluster.vms()[i].can_fit(&head) {
                        placed = true;
                        self.place(i, head)
                    } else {
                        let r = self.denial_penalty(i);
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
        if self.all_settled() {
            if matches!(self.workload, Workload::Workflows(_)) {
                // Register every completion, so the workflow makespans are
                // final when the episode ends.
                while self.cluster.running_count() > 0 {
                    self.advance(Advance::Next);
                }
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

    /// Per-episode telemetry, emitted once when an episode finishes.
    /// Deterministic quantities go to counters/histograms; wall-clock
    /// quantities (decisions/sec, step time) go to gauges and spans only.
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

    /// Episode metrics (valid once the episode is done; callable anytime for
    /// diagnostics on the records so far).
    pub fn metrics(&self) -> EpisodeMetrics {
        // Unplaced: every task never recorded — queued, still to come, or
        // rejected at admission.
        let unplaced = self.tasks.len() - self.records.len();
        compute_metrics(
            &self.records,
            &self.vm_specs,
            &self.cfg.resource_weights,
            unplaced,
            self.total_reward,
        )
    }

    /// The raw placement records (for custom analyses).
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Number of admission-rejected tasks this episode.
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Makespan of each workflow of a workflow episode (submission → last
    /// task completion), `None` for a workflow with unfinished tasks; empty
    /// for a flat episode.
    pub fn workflow_makespans(&self) -> Vec<Option<u64>> {
        match &self.workload {
            Workload::Trace { .. } => Vec::new(),
            Workload::Workflows(dag) => dag.makespans(&self.tasks),
        }
    }

    // ---- internals -------------------------------------------------------

    /// Places the head task on VM `i` and returns the placement reward
    /// `ρ·R_res + (1-ρ)·R_load` (Eqs. 6–8). Time does not advance: the agent
    /// may schedule further queued tasks within the same step.
    fn place(&mut self, i: usize, head: TaskSpec) -> f32 {
        let now = self.clock.now();
        let lb_before = self.cluster.load_balance(&self.cfg.resource_weights);
        self.cluster.vm_mut(i).place(&head, now);
        self.clock.schedule(
            now + head.duration,
            EventKind::Completion { vm: i as u32, task_id: head.id },
        );
        let lb_after = self.cluster.load_balance(&self.cfg.resource_weights);
        self.queue.pop_front();
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
    }

    /// Denial penalty `R_p = -exp(Σ w_i·util(a, i))` (Eq. 9).
    fn denial_penalty(&self, i: usize) -> f32 {
        crate::reward::denial_penalty(&self.cfg, &self.cluster.vms()[i])
    }

    /// Moves the clock per `mode` through the [`SimClock`] time authority,
    /// accounting the events applied and the size of the horizon jump.
    fn advance(&mut self, mode: Advance) {
        let from = self.clock.now();
        let fast_forward = self.cfg.fast_forward;
        let CloudEnv { clock, cluster, tasks, vm_specs, queue, rejected, workload, .. } = self;
        let n = match workload {
            Workload::Trace { next_arrival } => {
                let mut timeline =
                    FlatTimeline { cluster, tasks, vm_specs, queue, next_arrival, rejected };
                mode.drive(clock, fast_forward, &mut timeline)
            }
            Workload::Workflows(dag) => {
                mode.drive(clock, fast_forward, &mut dag.timeline(cluster, tasks, queue))
            }
        };
        self.events += n;
        let jump = self.clock.now() - from;
        if jump > 0 {
            self.telemetry.observe("sim/event_horizon_jump", jump as f64);
        }
    }
}

/// Clock-movement modes.
enum Advance {
    /// Exactly one step (denials, void slots, lazy waits).
    One,
    /// To the next event when fast-forwarding, else one step.
    Auto,
    /// Apply events due at the current time without advancing (reset).
    Due,
    /// Jump to the next pending event (a workflow episode's end-of-episode
    /// completion drain).
    Next,
}

impl Advance {
    /// Moves `clock` over `timeline` by this mode; returns events applied.
    fn drive<H: TimeDriven>(
        self,
        clock: &mut SimClock,
        fast_forward: bool,
        timeline: &mut H,
    ) -> u64 {
        match self {
            Advance::One => clock.advance_one(timeline),
            Advance::Auto => clock.advance_auto(fast_forward, timeline),
            Advance::Due => clock.drain_due(timeline),
            Advance::Next => {
                clock.advance_next(timeline).expect("running tasks imply a pending completion")
            }
        }
    }
}

/// Whether `t` fits at least one VM at full (empty) capacity — the
/// admission-control predicate.
pub(crate) fn admissible(vm_specs: &[VmSpec], t: &TaskSpec) -> bool {
    vm_specs.iter().any(|s| t.vcpus <= s.vcpus && t.mem_gb <= s.mem_gb)
}

/// Disjoint-field view of a flat episode's time-dependent state:
/// what the [`SimClock`] drives. The event path handles one typed event per
/// call; the scan path reproduces the legacy per-advance sweeps.
struct FlatTimeline<'a> {
    cluster: &'a mut Cluster,
    tasks: &'a [TaskSpec],
    vm_specs: &'a [VmSpec],
    queue: &'a mut VecDeque<TaskSpec>,
    next_arrival: &'a mut usize,
    rejected: &'a mut usize,
}

impl FlatTimeline<'_> {
    /// Admits or rejects one arrived task (both engines share this exact
    /// transition).
    fn arrive(&mut self, t: TaskSpec) {
        if admissible(self.vm_specs, &t) {
            self.queue.push_back(t);
        } else {
            *self.rejected += 1;
        }
    }
}

impl TimeDriven for FlatTimeline<'_> {
    fn on_event(&mut self, ev: Event, calendar: &mut EventCalendar) {
        match ev.kind {
            EventKind::Completion { vm, task_id } => {
                self.cluster.vm_mut(vm as usize).finish(task_id, ev.time);
            }
            EventKind::Arrival { index } => {
                let i = index as usize;
                debug_assert_eq!(i, *self.next_arrival, "arrivals apply in trace order");
                *self.next_arrival = i + 1;
                // Lazy chain: the next arrival enters the calendar only now.
                if let Some(next) = self.tasks.get(i + 1) {
                    calendar.schedule(next.arrival, EventKind::Arrival { index: index + 1 });
                }
                self.arrive(self.tasks[i]);
            }
            EventKind::Release { .. } => unreachable!("flat env schedules no Release events"),
        }
    }

    fn scan_to(&mut self, now: u64) -> u64 {
        let before = self.cluster.running_count();
        self.cluster.release_to(now);
        let mut n = (before - self.cluster.running_count()) as u64;
        while *self.next_arrival < self.tasks.len() && self.tasks[*self.next_arrival].arrival <= now
        {
            let t = self.tasks[*self.next_arrival];
            *self.next_arrival += 1;
            n += 1;
            self.arrive(t);
        }
        n
    }

    fn next_event_scan(&self) -> Option<u64> {
        let completion = self.cluster.next_completion();
        let arrival = self.tasks.get(*self.next_arrival).map(|t| t.arrival);
        match (completion, arrival) {
            (Some(c), Some(a)) => Some(c.min(a)),
            (c, a) => c.or(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> EnvDims {
        EnvDims::new(3, 8, 64.0, 4)
    }

    fn env() -> CloudEnv {
        CloudEnv::new(
            dims(),
            vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            EnvConfig::default(),
        )
    }

    fn task(id: u64, arrival: u64, vcpus: u32, mem: f32, dur: u64) -> TaskSpec {
        TaskSpec { id, arrival, vcpus, mem_gb: mem, duration: dur }
    }

    #[test]
    fn immediate_placement_reward_is_max_response_component() {
        let mut e = env();
        e.reset(vec![task(0, 0, 2, 8.0, 10)]);
        let out = e.step(Action::Vm(0));
        assert!(out.placed);
        assert!(out.done);
        // No wait → r_res = e^1; load worsened from perfect balance →
        // r_load = load_c (small positive). Reward ≈ 0.5e + small.
        let e1 = std::f32::consts::E;
        assert!(out.reward > 0.5 * e1 && out.reward < 0.5 * e1 + 0.5, "{}", out.reward);
    }

    #[test]
    fn denied_placement_penalized_and_time_advances() {
        let mut e = env();
        e.reset(vec![task(0, 0, 8, 64.0, 10), task(1, 0, 8, 64.0, 10)]);
        let t0 = e.now();
        e.step(Action::Vm(0)); // fills VM 0 completely
        let out = e.step(Action::Vm(0)); // second task cannot fit VM 0
        assert!(!out.placed);
        // util of VM 0 is 1.0 on both resources → penalty = -e^1.
        assert!((out.reward + std::f32::consts::E).abs() < 1e-5, "{}", out.reward);
        assert_eq!(e.now(), t0 + 1);
    }

    #[test]
    fn void_vm_slot_gets_max_penalty() {
        let mut e = env(); // 2 real VMs, dims allow 3
        e.reset(vec![task(0, 0, 1, 1.0, 5)]);
        let out = e.step(Action::Vm(2));
        assert!((out.reward + std::f32::consts::E).abs() < 1e-6);
        assert!(!out.placed);
    }

    #[test]
    fn lazy_wait_penalized() {
        let mut e = env();
        e.reset(vec![task(0, 0, 1, 1.0, 5)]);
        let out = e.step(Action::Wait);
        assert_eq!(out.reward, e.config().lazy_wait_penalty);
    }

    #[test]
    fn forced_wait_neutral_and_fast_forwards() {
        let mut e = env();
        // First task fills everything for 30 steps; second arrives at 1 and
        // cannot fit anywhere until the completion at 30.
        e.reset(vec![task(0, 0, 8, 64.0, 30), task(1, 1, 8, 64.0, 5)]);
        e.step(Action::Vm(0));
        e.step(Action::Vm(1)); // denied on VM 1 (too small), advances to t=1
        assert_eq!(e.now(), 1);
        let out = e.step(Action::Wait); // head fits nowhere → jump to t=30
        assert_eq!(out.reward, 0.0);
        assert_eq!(e.now(), 30);
        let out = e.step(Action::Vm(0));
        assert!(out.placed && out.done);
        // Second task waited 29 steps.
        let rec = e.records().last().unwrap();
        assert_eq!(rec.wait(), 29);
        assert_eq!(rec.response(), 34);
    }

    #[test]
    fn episode_ends_when_all_tasks_placed() {
        let mut e = env();
        e.reset(vec![task(0, 0, 1, 1.0, 5), task(1, 0, 1, 1.0, 5)]);
        assert!(!e.is_done());
        assert!(!e.step(Action::Vm(0)).done);
        assert!(e.step(Action::Vm(1)).done);
        let m = e.metrics();
        assert_eq!(m.tasks_placed, 2);
        assert_eq!(m.tasks_unplaced, 0);
    }

    #[test]
    fn multiple_placements_same_time_step() {
        let mut e = env();
        e.reset(vec![task(0, 0, 1, 1.0, 5), task(1, 0, 1, 1.0, 5)]);
        e.step(Action::Vm(0));
        e.step(Action::Vm(0));
        // Both placed at t = 0: no time advance on success.
        assert!(e.records().iter().all(|r| r.start == 0));
    }

    #[test]
    fn admission_control_rejects_oversized() {
        let mut e = env(); // max VM is (8, 64)
        e.reset(vec![task(0, 0, 16, 8.0, 5), task(1, 0, 1, 1.0, 5)]);
        assert_eq!(e.rejected(), 1);
        assert_eq!(e.queue_len(), 1);
        e.step(Action::Vm(0));
        assert!(e.is_done());
        assert_eq!(e.metrics().tasks_unplaced, 1);
    }

    #[test]
    fn truncation_at_decision_cap() {
        let mut e = CloudEnv::new(
            dims(),
            vec![VmSpec::new(8, 64.0)],
            EnvConfig { max_decisions: 5, ..Default::default() },
        );
        e.reset(vec![task(0, 0, 1, 1.0, 5); 100]);
        let mut n = 0;
        while !e.is_done() {
            e.step(Action::Wait); // stubborn lazy agent
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(e.is_truncated());
        assert!(e.metrics().tasks_unplaced > 0);
    }

    #[test]
    fn observation_tracks_queue_and_time() {
        let mut e = env();
        e.reset(vec![task(0, 0, 4, 32.0, 10), task(1, 0, 2, 16.0, 10)]);
        let s = e.observe();
        assert_eq!(s.len(), e.dims().state_dim());
        // Queue section starts after L·d + L·U entries.
        let qs = 3 * 2 + 3 * 8;
        assert_eq!(s[qs], 0.5); // 4/8 vcpus
        assert_eq!(s[qs + 1], 0.5); // 32/64 mem
        assert_eq!(s[qs + 2], 0.25); // second task 2/8
    }

    #[test]
    fn reward_decreases_with_waiting() {
        // Same task placed immediately vs after waiting: later placement
        // must earn a smaller response component.
        let place_at = |wait_steps: u64| -> f32 {
            let mut e = env();
            e.reset(vec![task(0, 0, 1, 1.0, 10)]);
            for _ in 0..wait_steps {
                e.step(Action::Wait); // lazy waits, penalized but allowed
            }
            e.step(Action::Vm(0)).reward
        };
        assert!(place_at(0) > place_at(5));
        assert!(place_at(5) > place_at(20));
    }

    #[test]
    fn empty_trace_is_immediately_done() {
        let mut e = env();
        e.reset(vec![]);
        assert!(e.is_done());
        assert_eq!(e.metrics().tasks_placed, 0);
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn step_after_done_panics() {
        let mut e = env();
        e.reset(vec![]);
        e.step(Action::Wait);
    }

    #[test]
    fn action_mask_reflects_feasibility() {
        let mut e = env();
        e.reset(vec![task(0, 0, 8, 64.0, 5)]);
        let mask = e.action_mask();
        assert_eq!(mask, vec![true, false, false, true]); // VM 0 fits, VM 1 too small, slot 2 void, wait ok
    }

    #[test]
    fn action_index_roundtrip() {
        for idx in 0..=3 {
            let a = Action::from_index(idx, 3);
            assert_eq!(a.to_index(3), idx);
        }
        assert_eq!(Action::from_index(3, 3), Action::Wait);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_action_index_panics() {
        let _ = Action::from_index(5, 3);
    }

    #[test]
    fn delayed_arrivals_skip_dead_time_on_reset() {
        let mut e = env();
        e.reset(vec![task(0, 100, 1, 1.0, 5)]);
        // Reset fast-forwards to the first arrival.
        assert_eq!(e.now(), 100);
        assert_eq!(e.queue_len(), 1);
    }

    #[test]
    fn engines_agree_on_rewards_times_and_events() {
        let trace = vec![
            task(0, 0, 8, 64.0, 30),
            task(1, 1, 8, 64.0, 5),
            task(2, 7, 2, 8.0, 12),
            task(3, 90, 16, 256.0, 4), // admission-rejected
            task(4, 90, 1, 1.0, 2),
        ];
        let mut stepped = env();
        stepped.set_time_engine(crate::TimeEngine::Stepped);
        let mut event = env();
        assert_eq!(event.time_engine(), crate::TimeEngine::Event);
        stepped.reset(trace.clone());
        event.reset(trace);
        let mut guard = 0;
        while !stepped.is_done() && guard < 1000 {
            let a = stepped.first_fit_action().unwrap_or(Action::Wait);
            let rs = stepped.step(a);
            let re = event.step(a);
            assert_eq!(rs.reward.to_bits(), re.reward.to_bits());
            assert_eq!((rs.done, rs.placed), (re.done, re.placed));
            assert_eq!(stepped.now(), event.now());
            guard += 1;
        }
        assert!(event.is_done());
        assert_eq!(stepped.events(), event.events());
        assert!(event.events() > 0);
        assert_eq!(stepped.rejected(), event.rejected());
        let (ms, me) = (stepped.metrics(), event.metrics());
        assert_eq!(ms.total_reward.to_bits(), me.total_reward.to_bits());
        assert_eq!(ms.tasks_placed, me.tasks_placed);
    }

    #[test]
    fn event_calendar_stays_lazy() {
        let mut e = env();
        e.reset(vec![task(0, 0, 1, 1.0, 5), task(1, 3, 1, 1.0, 5), task(2, 9, 1, 1.0, 5)]);
        // One pending arrival + running completions, never the whole trace.
        e.step(Action::Vm(0));
        assert!(e.clock.pending_events() <= 2, "{}", e.clock.pending_events());
    }

    #[test]
    #[should_panic(expected = "between episodes")]
    fn engine_switch_mid_episode_panics() {
        let mut e = env();
        e.reset(vec![task(0, 0, 1, 1.0, 5)]);
        e.set_time_engine(crate::TimeEngine::Stepped);
    }
}
