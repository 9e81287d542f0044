//! Property-based tests of the simulator primitives.

use pfrl_sim::state::{encode_state_into, live_columns, VOID};
use pfrl_sim::{Cluster, EnvConfig, EnvDims, EventCalendar, EventKind, VmSpec};
use pfrl_workloads::TaskSpec;
use proptest::prelude::*;

fn arb_vm() -> impl Strategy<Value = VmSpec> {
    (1u32..64, 1u32..512).prop_map(|(c, m)| VmSpec::new(c, m as f32))
}

fn arb_task() -> impl Strategy<Value = TaskSpec> {
    (1u32..16, 1u32..128, 1u64..100).prop_map(|(c, m, d)| TaskSpec {
        id: 0,
        arrival: 0,
        vcpus: c,
        mem_gb: m as f32,
        duration: d,
    })
}

proptest! {
    /// Placement followed by completion restores exactly the idle state.
    #[test]
    fn place_release_roundtrip(vm_spec in arb_vm(), task in arb_task()) {
        prop_assume!(task.vcpus <= vm_spec.vcpus && task.mem_gb <= vm_spec.mem_gb);
        let mut cluster = Cluster::new(&[vm_spec]);
        let free_before = (cluster.vms()[0].free_vcpus(), cluster.vms()[0].free_mem());
        cluster.vm_mut(0).place(&task, 0);
        prop_assert_eq!(cluster.vms()[0].free_vcpus(), free_before.0 - task.vcpus);
        let mut done = Vec::new();
        cluster.advance_to(task.duration, &mut done);
        prop_assert_eq!(done.len(), 1);
        prop_assert_eq!(cluster.vms()[0].free_vcpus(), free_before.0);
        prop_assert!((cluster.vms()[0].free_mem() - free_before.1).abs() < 1e-4);
    }

    /// LoadBal is zero iff all per-VM loads are equal; always non-negative.
    #[test]
    fn load_balance_nonnegative(
        vms in proptest::collection::vec(arb_vm(), 1..6),
        w_cpu in 0.0f32..1.0,
    ) {
        let cluster = Cluster::new(&vms);
        let weights = [w_cpu, 1.0 - w_cpu];
        let lb = cluster.load_balance(&weights);
        // Idle cluster: every load is exactly 1.0 → perfectly balanced.
        prop_assert!(lb.abs() < 1e-6);
    }

    /// Utilization and load are complementary and bounded.
    #[test]
    fn utilization_load_complementary(vm_spec in arb_vm(), task in arb_task()) {
        prop_assume!(task.vcpus <= vm_spec.vcpus && task.mem_gb <= vm_spec.mem_gb);
        let mut cluster = Cluster::new(&[vm_spec]);
        cluster.vm_mut(0).place(&task, 0);
        for r in 0..2 {
            let u = cluster.vms()[0].utilization(r);
            let l = cluster.vms()[0].load(r);
            prop_assert!((0.0..=1.0).contains(&u));
            prop_assert!((u + l - 1.0).abs() < 1e-5);
        }
    }

    /// vCPU progress slots: occupied count equals the placed task's vCPUs,
    /// values bounded in [0, 1].
    #[test]
    fn vcpu_progress_layout(vm_spec in arb_vm(), task in arb_task(), t in 0u64..200) {
        prop_assume!(task.vcpus <= vm_spec.vcpus && task.mem_gb <= vm_spec.mem_gb);
        let mut cluster = Cluster::new(&[vm_spec]);
        cluster.vm_mut(0).place(&task, 0);
        let slots = cluster.vms()[0].vcpu_progress(t.min(task.duration - 1));
        prop_assert_eq!(slots.len(), vm_spec.vcpus as usize);
        let occupied = slots.iter().filter(|&&p| p > 0.0).count();
        prop_assert!(occupied <= task.vcpus as usize);
        prop_assert!(slots.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// EnvDims arithmetic is internally consistent.
    #[test]
    fn dims_arithmetic(l in 1usize..12, u in 1u32..128, q in 1usize..10) {
        let d = EnvDims::new(l, u, 64.0, q);
        prop_assert_eq!(d.state_dim(), l * 2 + l * u as usize + q * 2);
        prop_assert_eq!(d.action_dim(), l + 1);
    }

    /// Config validation accepts all in-range values.
    #[test]
    fn env_config_valid_range(rho in 0.0f32..=1.0, w in 0.0f32..=1.0) {
        let cfg = EnvConfig {
            rho,
            resource_weights: [w, 1.0 - w],
            ..Default::default()
        };
        cfg.validate();
    }
}

/// `(time, class, lane)` — the deterministic part of the calendar's sort
/// key (class: completions < arrivals < releases; lane: VM index for
/// completions).
fn event_key(time: u64, kind: EventKind) -> (u64, u8, u32) {
    match kind {
        EventKind::Completion { vm, .. } => (time, 0, vm),
        EventKind::Arrival { .. } => (time, 1, 0),
        EventKind::Release { .. } => (time, 2, 0),
    }
}

/// Insertion index smuggled through the event payload, to observe FIFO
/// order among exact ties from the outside.
fn payload(kind: EventKind) -> u64 {
    match kind {
        EventKind::Completion { task_id, .. } => task_id,
        EventKind::Arrival { index } => index as u64,
        EventKind::Release { gid } => gid as u64,
    }
}

/// Builds the i-th generated event: tight time/lane ranges force plenty of
/// exact timestamp ties.
fn make_event(i: usize, time: u64, class: u8, lane: u32) -> (u64, EventKind) {
    let kind = match class {
        0 => EventKind::Completion { vm: lane, task_id: i as u64 },
        1 => EventKind::Arrival { index: i as u32 },
        _ => EventKind::Release { gid: i as u32 },
    };
    (time, kind)
}

proptest! {
    /// Random schedules with timestamp ties pop in the total order
    /// `(time, class, lane, insertion)`: non-decreasing keys, and FIFO by
    /// insertion among exact key ties.
    #[test]
    fn calendar_resolves_ties_deterministically(
        raw in proptest::collection::vec((0u64..6, 0u8..3, 0u32..3), 1..40),
    ) {
        let events: Vec<(u64, EventKind)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(t, c, l))| make_event(i, t, c, l))
            .collect();
        let mut cal = EventCalendar::new();
        for &(t, k) in &events {
            cal.schedule(t, k);
        }
        let mut prev: Option<((u64, u8, u32), u64)> = None;
        let mut popped = 0usize;
        while let Some(ev) = cal.pop() {
            popped += 1;
            let key = event_key(ev.time, ev.kind);
            let ins = payload(ev.kind);
            if let Some((pkey, pins)) = prev {
                prop_assert!(pkey <= key, "keys must be non-decreasing");
                if pkey == key {
                    prop_assert!(pins < ins, "exact ties must pop FIFO by insertion");
                }
            }
            prev = Some((key, ins));
        }
        prop_assert_eq!(popped, events.len());
    }

    /// For events with pairwise-distinct `(time, class, lane)` keys, the pop
    /// sequence is independent of insertion order (here: every rotation).
    #[test]
    fn calendar_order_invariant_under_insertion_rotation(
        raw in proptest::collection::vec((0u64..12, 0u8..3, 0u32..3), 1..16),
        rot in 0usize..16,
    ) {
        let mut events: Vec<(u64, EventKind)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(t, c, l))| make_event(i, t, c, l))
            .collect();
        events.sort_by_key(|&(t, k)| event_key(t, k));
        events.dedup_by_key(|&mut (t, k)| event_key(t, k));

        let pop_all = |order: &[(u64, EventKind)]| -> Vec<(u64, u8, u32)> {
            let mut cal = EventCalendar::new();
            for &(t, k) in order {
                cal.schedule(t, k);
            }
            std::iter::from_fn(move || cal.pop()).map(|e| event_key(e.time, e.kind)).collect()
        };

        let baseline = pop_all(&events);
        let k = rot % events.len();
        let mut rotated = events.clone();
        rotated.rotate_left(k);
        prop_assert_eq!(pop_all(&rotated), baseline);
    }
}

/// Eq. (1) written one element at a time, in layout order, straight from
/// the definitions: the plain reference the slice encoder must reproduce.
fn reference_encoding(dims: &EnvDims, cluster: &Cluster, queue: &[TaskSpec], now: u64) -> Vec<f32> {
    let cpu_norm = dims.max_vcpus as f32;
    let mut s = Vec::new();
    for i in 0..dims.max_vms {
        match cluster.vms().get(i) {
            Some(vm) => {
                s.push(vm.free_vcpus() as f32 / cpu_norm);
                s.push(vm.free_mem() / dims.max_mem_gb);
            }
            None => s.extend([VOID, VOID]),
        }
    }
    for i in 0..dims.max_vms {
        for k in 0..dims.max_vcpus as usize {
            let v = match cluster.vms().get(i) {
                Some(vm) if k < vm.spec.vcpus as usize => {
                    // Running tasks own consecutive slots in placement order.
                    let mut first = 0usize;
                    let mut p = 0.0;
                    for t in vm.running() {
                        if (first..first + t.vcpus as usize).contains(&k) {
                            p = t.progress(now);
                            break;
                        }
                        first += t.vcpus as usize;
                    }
                    p
                }
                _ => VOID,
            };
            s.push(v);
        }
    }
    for j in 0..dims.queue_slots {
        match queue.get(j) {
            Some(t) => s.extend([t.vcpus as f32 / cpu_norm, t.mem_gb / dims.max_mem_gb]),
            None => s.extend([0.0, 0.0]),
        }
    }
    s
}

proptest! {
    /// The section-filling slice encoder equals the per-element reference
    /// bit for bit: fleets of up to `max_vms` VMs (absent slots included,
    /// and VMs wider than `max_vcpus`), running tasks at assorted progress,
    /// queues shorter and longer than `queue_slots`, written into a buffer
    /// prefilled with NaN. A column reads `VOID` exactly when it is outside
    /// the fleet's `live_columns`, the premise of the input-layer fold.
    #[test]
    fn slice_encoder_matches_per_element_reference(
        (max_vms, max_vcpus, queue_slots) in (1usize..=6, 1u32..=16, 1usize..=5),
        vms in proptest::collection::vec((1u32..=18, 1u32..=64), 1..=6),
        placements in proptest::collection::vec(
            (0usize..6, 1u32..=8, 1u32..=32, 1u64..=40, 0u64..=80),
            0..24,
        ),
        queue in proptest::collection::vec((1u32..=16, 1u32..=64), 0..=8),
        now in 0u64..=80,
    ) {
        let dims = EnvDims::new(max_vms, max_vcpus, 64.0, queue_slots);
        let specs: Vec<VmSpec> =
            vms.iter().take(max_vms).map(|&(c, m)| VmSpec::new(c, m as f32)).collect();
        let mut cluster = Cluster::new(&specs);
        for (id, &(vm, vcpus, mem, duration, start)) in placements.iter().enumerate() {
            let task =
                TaskSpec { id: id as u64, arrival: 0, vcpus, mem_gb: mem as f32, duration };
            let vm = vm % specs.len();
            if cluster.vms()[vm].can_fit(&task) {
                cluster.vm_mut(vm).place(&task, start.min(now));
            }
        }
        let queue: Vec<TaskSpec> = queue
            .iter()
            .enumerate()
            .map(|(id, &(c, m))| TaskSpec {
                id: id as u64,
                arrival: 0,
                vcpus: c,
                mem_gb: m as f32,
                duration: 1,
            })
            .collect();

        let want = reference_encoding(&dims, &cluster, &queue, now);
        let mut got = vec![f32::NAN; dims.state_dim()];
        encode_state_into(&dims, &cluster, &queue, now, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(want.len(), dims.state_dim());
        prop_assert_eq!(bits(&got), bits(&want));
        let live = live_columns(&dims, &specs);
        for (p, &v) in got.iter().enumerate() {
            prop_assert_eq!(v == VOID, live.binary_search(&p).is_err(), "column {}", p);
        }
    }
}
