//! The padded state encoding of Eq. (1): `S = (S^VM, S^vCPU, S^Queue)`.

use crate::cluster::Cluster;
use crate::config::EnvDims;
use crate::RESOURCE_DIMS;
use pfrl_workloads::TaskSpec;

/// Marker value for *void* slots (absent VMs / vCPUs), as in Fig. 6.
pub const VOID: f32 = -1.0;

/// Encodes the full observation into a fixed-length vector:
///
/// 1. `S^VM` — for each of `L` VM slots, the remaining capacity of each
///    resource, normalized by the federation-wide maxima; void slots are
///    [`VOID`].
/// 2. `S^vCPU` — for each VM slot, `U` per-vCPU completion-progress entries
///    in `[0, 1]` (0 = idle); vCPUs beyond a VM's actual count (or of absent
///    VMs) are [`VOID`].
/// 3. `S^Queue` — for each of `Q` queue slots, the normalized resource
///    demands of the waiting task; empty slots are zero.
pub fn encode_state(
    dims: &EnvDims,
    cluster: &Cluster,
    queue_head: &[TaskSpec],
    now: u64,
) -> Vec<f32> {
    let mut s = vec![0.0; dims.state_dim()];
    encode_state_into(dims, cluster, queue_head, now, &mut s);
    s
}

/// [`encode_state`] into `out`, which must be exactly
/// [`EnvDims::state_dim`] long; every element is overwritten, so `out` may
/// hold anything beforehand (a reused buffer, or a row of a batch's state
/// matrix). Accepts any iterator over the visible queue head so the
/// environments can feed their `VecDeque` directly.
///
/// Each section is first filled with its padding value, then the present
/// VMs and queued tasks are written by index.
///
/// # Panics
/// If `out.len() != dims.state_dim()`.
pub fn encode_state_into<'a>(
    dims: &EnvDims,
    cluster: &Cluster,
    queue_head: impl IntoIterator<Item = &'a TaskSpec>,
    now: u64,
    out: &mut [f32],
) {
    assert_eq!(out.len(), dims.state_dim(), "state buffer length");
    let cpu_norm = dims.max_vcpus as f32;
    let mem_norm = dims.max_mem_gb;
    let width = dims.max_vcpus as usize;
    let (s_vm, rest) = out.split_at_mut(dims.max_vms * RESOURCE_DIMS);
    let (s_vcpu, s_queue) = rest.split_at_mut(dims.max_vms * width);
    s_vm.fill(VOID);
    s_vcpu.fill(VOID);
    s_queue.fill(0.0);

    for ((vm, cap), progress) in cluster
        .vms()
        .iter()
        .zip(s_vm.chunks_exact_mut(RESOURCE_DIMS))
        .zip(s_vcpu.chunks_exact_mut(width))
    {
        // S^VM: remaining capacity.
        cap[0] = vm.free_vcpus() as f32 / cpu_norm;
        cap[1] = vm.free_mem() / mem_norm;
        // S^vCPU: per-vCPU progress; slots past the VM's vCPUs stay VOID.
        vm.write_vcpu_progress(now, progress);
    }

    // S^Queue: waiting-task demands.
    for (slot, t) in s_queue.chunks_exact_mut(RESOURCE_DIMS).zip(queue_head) {
        slot[0] = t.vcpus as f32 / cpu_norm;
        slot[1] = t.mem_gb / mem_norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmSpec;

    fn task(id: u64, vcpus: u32, mem: f32, dur: u64) -> TaskSpec {
        TaskSpec { id, arrival: 0, vcpus, mem_gb: mem, duration: dur }
    }

    #[test]
    fn layout_and_length() {
        let dims = EnvDims::new(3, 4, 32.0, 2);
        let cluster = Cluster::new(&[VmSpec::new(4, 32.0), VmSpec::new(2, 16.0)]);
        let queue = [task(0, 2, 8.0, 5)];
        let s = encode_state(&dims, &cluster, &queue, 0);
        assert_eq!(s.len(), dims.state_dim());
        // S^VM: vm0 idle (1.0, 1.0), vm1 idle (0.5, 0.5), slot 2 void.
        assert_eq!(&s[0..6], &[1.0, 1.0, 0.5, 0.5, VOID, VOID]);
        // S^vCPU: vm0 has 4 idle, vm1 has 2 idle + 2 void, slot 2 all void.
        assert_eq!(&s[6..10], &[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(&s[10..14], &[0.0, 0.0, VOID, VOID]);
        assert_eq!(&s[14..18], &[VOID, VOID, VOID, VOID]);
        // S^Queue: task (2/4, 8/32) then empty slot.
        assert_eq!(&s[18..22], &[0.5, 0.25, 0.0, 0.0]);
    }

    #[test]
    fn progress_appears_in_vcpu_section() {
        let dims = EnvDims::new(1, 4, 32.0, 1);
        let mut cluster = Cluster::new(&[VmSpec::new(4, 32.0)]);
        cluster.vm_mut(0).place(&task(7, 2, 8.0, 10), 0);
        let s = encode_state(&dims, &cluster, &[], 5);
        // Remaining capacity reflects the placement.
        assert_eq!(s[0], 0.5);
        assert_eq!(s[1], 0.75);
        // First two vCPUs at 50% progress.
        assert_eq!(&s[2..6], &[0.5, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn values_in_expected_ranges() {
        let dims = EnvDims::new(4, 8, 64.0, 3);
        let mut cluster =
            Cluster::new(&[VmSpec::new(8, 64.0), VmSpec::new(4, 16.0), VmSpec::new(2, 8.0)]);
        cluster.vm_mut(0).place(&task(0, 3, 10.0, 7), 2);
        let queue = [task(1, 8, 64.0, 3), task(2, 1, 0.5, 1)];
        let s = encode_state(&dims, &cluster, &queue, 4);
        for &v in &s {
            assert!(v == VOID || (0.0..=1.0).contains(&v), "out of range: {v}");
        }
    }

    #[test]
    fn queue_truncated_to_visible_slots() {
        let dims = EnvDims::new(1, 1, 1.0, 2);
        let cluster = Cluster::new(&[VmSpec::new(1, 1.0)]);
        let queue = [task(0, 1, 1.0, 1), task(1, 1, 1.0, 1), task(2, 1, 1.0, 1)];
        // Only the first `queue_slots` tasks are encoded.
        let s = encode_state(&dims, &cluster, &queue[..2.min(queue.len())], 0);
        assert_eq!(s.len(), dims.state_dim());
    }
}
