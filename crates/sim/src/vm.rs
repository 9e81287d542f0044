//! Virtual machines: capacity tracking, placement, and vCPU progress.

use pfrl_workloads::TaskSpec;

/// Static capacity of a VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Total vCPUs.
    pub vcpus: u32,
    /// Total memory in GiB.
    pub mem_gb: f32,
}

impl VmSpec {
    /// Creates a spec; panics on zero capacity.
    pub fn new(vcpus: u32, mem_gb: f32) -> Self {
        assert!(vcpus >= 1 && mem_gb > 0.0, "VmSpec must have positive capacity");
        Self { vcpus, mem_gb }
    }
}

/// A task currently executing on a VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningTask {
    /// Id of the task (from its [`TaskSpec`]).
    pub task_id: u64,
    /// Occupied vCPUs.
    pub vcpus: u32,
    /// Occupied memory (GiB).
    pub mem_gb: f32,
    /// Placement time (step).
    pub start: u64,
    /// Total execution time (steps).
    pub duration: u64,
}

impl RunningTask {
    /// Completion time: the step at which resources are released.
    pub fn end(&self) -> u64 {
        self.start + self.duration
    }

    /// Fractional progress in `[0, 1]` at time `now`.
    pub fn progress(&self, now: u64) -> f32 {
        if now <= self.start {
            0.0
        } else {
            ((now - self.start) as f32 / self.duration as f32).min(1.0)
        }
    }
}

/// A VM with its currently running tasks.
#[derive(Debug, Clone)]
pub struct Vm {
    /// Static capacity.
    pub spec: VmSpec,
    running: Vec<RunningTask>,
}

impl Vm {
    /// An idle VM of the given spec.
    pub fn new(spec: VmSpec) -> Self {
        Self { spec, running: Vec::new() }
    }

    /// Currently running tasks (placement order).
    pub fn running(&self) -> &[RunningTask] {
        &self.running
    }

    /// vCPUs in use.
    pub fn used_vcpus(&self) -> u32 {
        self.running.iter().map(|t| t.vcpus).sum()
    }

    /// Memory in use (GiB).
    pub fn used_mem(&self) -> f32 {
        self.running.iter().map(|t| t.mem_gb).sum()
    }

    /// Idle vCPUs.
    pub fn free_vcpus(&self) -> u32 {
        self.spec.vcpus - self.used_vcpus()
    }

    /// Free memory (GiB).
    pub fn free_mem(&self) -> f32 {
        self.spec.mem_gb - self.used_mem()
    }

    /// Whether `task` fits right now.
    pub fn can_fit(&self, task: &TaskSpec) -> bool {
        task.vcpus <= self.free_vcpus() && task.mem_gb <= self.free_mem() + f32::EPSILON
    }

    /// Utilization of resource `i` (0 = vCPU, 1 = memory), in `[0, 1]`.
    pub fn utilization(&self, resource: usize) -> f32 {
        match resource {
            0 => self.used_vcpus() as f32 / self.spec.vcpus as f32,
            1 => (self.used_mem() / self.spec.mem_gb).min(1.0),
            other => panic!("unknown resource index {other}"),
        }
    }

    /// Load of resource `i` per the paper's Eq. (4): the *remaining*
    /// fraction of the resource, in `[0, 1]`.
    pub fn load(&self, resource: usize) -> f32 {
        1.0 - self.utilization(resource)
    }

    /// Places `task` at time `now`.
    ///
    /// # Panics
    /// If the task does not fit (callers must check [`Vm::can_fit`]).
    pub fn place(&mut self, task: &TaskSpec, now: u64) {
        assert!(self.can_fit(task), "place called on a VM that cannot fit the task");
        self.running.push(RunningTask {
            task_id: task.id,
            vcpus: task.vcpus,
            mem_gb: task.mem_gb,
            start: now,
            duration: task.duration,
        });
    }

    /// Clears all running tasks, retaining capacity (episode reset).
    pub fn reset(&mut self) {
        self.running.clear();
    }

    /// Releases every task with `end() <= now`, appending them to `done`
    /// in placement order. Buffer-reuse only: there is deliberately no
    /// allocating variant, so the step path never materializes a
    /// per-advance `Vec`.
    pub fn advance_to(&mut self, now: u64, done: &mut Vec<RunningTask>) {
        self.running.retain(|t| {
            if t.end() <= now {
                done.push(*t);
                false
            } else {
                true
            }
        });
    }

    /// Removes and returns the running task `task_id`, which must have
    /// completed by `now` (the event engine's targeted O(running) release —
    /// no full sweep). Relative order of the remaining tasks is preserved,
    /// keeping [`Vm::vcpu_progress`] slot assignment identical to a
    /// scan-based release.
    ///
    /// # Panics
    /// If no running task has this id with `end() <= now`.
    pub fn finish(&mut self, task_id: u64, now: u64) -> RunningTask {
        let i = self
            .running
            .iter()
            .position(|t| t.task_id == task_id && t.end() <= now)
            .expect("finish: task is not running or has not completed");
        self.running.remove(i)
    }

    /// Releases every task with `end() <= now` without collecting them.
    pub fn release_to(&mut self, now: u64) {
        self.running.retain(|t| t.end() > now);
    }

    /// The earliest completion time among running tasks, if any.
    pub fn next_completion(&self) -> Option<u64> {
        self.running.iter().map(RunningTask::end).min()
    }

    /// Per-vCPU completion progress at `now`: running tasks occupy slots in
    /// placement order; occupied slots report the owning task's progress,
    /// idle slots report 0 (the `O_i^k` of Eq. (1)).
    pub fn vcpu_progress(&self, now: u64) -> Vec<f32> {
        let mut slots = vec![0.0f32; self.spec.vcpus as usize];
        self.write_vcpu_progress(now, &mut slots);
        slots
    }

    /// Writes [`Vm::vcpu_progress`] into the first `min(vcpus, slots.len())`
    /// entries of `slots`, truncating to the slice; entries past the VM's
    /// vCPU count are left untouched (allocation-free form the state
    /// encoder writes straight into its padded `S^vCPU` section).
    pub(crate) fn write_vcpu_progress(&self, now: u64, slots: &mut [f32]) {
        let live = (self.spec.vcpus as usize).min(slots.len());
        let slots = &mut slots[..live];
        let mut cursor = 0usize;
        for t in &self.running {
            let end = (cursor + t.vcpus as usize).min(live);
            slots[cursor..end].fill(t.progress(now));
            cursor = end;
        }
        slots[cursor..].fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64, vcpus: u32, mem: f32, dur: u64) -> TaskSpec {
        TaskSpec { id, arrival: 0, vcpus, mem_gb: mem, duration: dur }
    }

    #[test]
    fn placement_updates_capacity() {
        let mut vm = Vm::new(VmSpec::new(8, 64.0));
        assert!(vm.can_fit(&task(0, 8, 64.0, 5)));
        vm.place(&task(0, 3, 16.0, 5), 0);
        assert_eq!(vm.free_vcpus(), 5);
        assert_eq!(vm.free_mem(), 48.0);
        assert!((vm.utilization(0) - 0.375).abs() < 1e-6);
        assert!((vm.utilization(1) - 0.25).abs() < 1e-6);
        assert!((vm.load(0) - 0.625).abs() < 1e-6);
    }

    #[test]
    fn cannot_fit_over_cpu_or_mem() {
        let mut vm = Vm::new(VmSpec::new(4, 8.0));
        vm.place(&task(0, 2, 4.0, 10), 0);
        assert!(!vm.can_fit(&task(1, 3, 1.0, 1)), "cpu-bound rejection");
        assert!(!vm.can_fit(&task(1, 1, 5.0, 1)), "mem-bound rejection");
        assert!(vm.can_fit(&task(1, 2, 4.0, 1)));
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn place_unfittable_panics() {
        let mut vm = Vm::new(VmSpec::new(2, 4.0));
        vm.place(&task(0, 4, 1.0, 1), 0);
    }

    #[test]
    fn advance_releases_completed() {
        let mut vm = Vm::new(VmSpec::new(8, 64.0));
        vm.place(&task(0, 2, 8.0, 5), 0); // ends at 5
        vm.place(&task(1, 2, 8.0, 10), 0); // ends at 10
        assert_eq!(vm.next_completion(), Some(5));
        let mut done = Vec::new();
        vm.advance_to(5, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].task_id, 0);
        assert_eq!(vm.used_vcpus(), 2);
        done.clear();
        vm.advance_to(10, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(vm.used_vcpus(), 0);
        assert_eq!(vm.next_completion(), None);
    }

    #[test]
    fn finish_removes_by_id_preserving_order() {
        let mut vm = Vm::new(VmSpec::new(8, 64.0));
        vm.place(&task(0, 2, 8.0, 5), 0);
        vm.place(&task(1, 2, 8.0, 5), 0);
        vm.place(&task(2, 2, 8.0, 9), 0);
        let rt = vm.finish(1, 5);
        assert_eq!(rt.task_id, 1);
        assert_eq!(rt.end(), 5);
        let ids: Vec<u64> = vm.running().iter().map(|t| t.task_id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "has not completed")]
    fn finish_before_completion_panics() {
        let mut vm = Vm::new(VmSpec::new(8, 64.0));
        vm.place(&task(0, 2, 8.0, 5), 0);
        vm.finish(0, 4);
    }

    #[test]
    fn progress_tracks_time() {
        let t = RunningTask { task_id: 0, vcpus: 1, mem_gb: 1.0, start: 10, duration: 20 };
        assert_eq!(t.progress(10), 0.0);
        assert_eq!(t.progress(20), 0.5);
        assert_eq!(t.progress(30), 1.0);
        assert_eq!(t.progress(100), 1.0);
        assert_eq!(t.progress(5), 0.0);
    }

    #[test]
    fn vcpu_progress_slot_layout() {
        let mut vm = Vm::new(VmSpec::new(4, 64.0));
        vm.place(&task(0, 2, 8.0, 10), 0);
        vm.place(&task(1, 1, 8.0, 20), 0);
        let slots = vm.vcpu_progress(5);
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0], 0.5);
        assert_eq!(slots[1], 0.5);
        assert_eq!(slots[2], 0.25);
        assert_eq!(slots[3], 0.0);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = VmSpec::new(0, 4.0);
    }
}
