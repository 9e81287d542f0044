//! Untrusted checkpoint and policy bytes must never panic a decoder.
//!
//! Every runner's round-1 checkpoint (with a fault plan, so the fault
//! section carries retained uploads) and one exported `PFRL-POLICY`
//! snapshot are mutated three ways and decoded: truncated at every 97th
//! prefix, flipped one byte at a time at a stride, and with every
//! plausible length prefix inflated. A mutated input may decode (a flipped
//! float is still a float) or be rejected, but the decoder must return
//! instead of panicking or trying a huge allocation, and a rejected
//! restore must leave the runner untouched.

use pfrl_core::fed::{
    ClientSetup, FaultPlan, FedAvgRunner, FedConfig, FederatedRunner, IndependentRunner,
    MfpoRunner, PfrlDmRunner, PolicySnapshot,
};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_core::workloads::DatasetId;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn setups() -> Vec<ClientSetup> {
    [DatasetId::K8s, DatasetId::Google, DatasetId::Alibaba2017]
        .iter()
        .enumerate()
        .map(|(i, d)| ClientSetup {
            name: format!("client{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: d.model().sample(30, 50 + i as u64),
        })
        .collect()
}

/// Builds a fresh runner of type `$runner` on a small network.
macro_rules! fresh {
    ($runner:ty) => {
        || -> Box<dyn FederatedRunner> {
            let ppo = PpoConfig { hidden: 8, ..PpoConfig::default() };
            let fed = FedConfig {
                episodes: 4,
                comm_every: 1,
                participation_k: 2,
                tasks_per_episode: Some(6),
                seed: 99,
                parallel: false,
            };
            let plan = FaultPlan::new(17)
                .with_dropout(0.2)
                .with_straggle(0.1, 2)
                .with_corrupt(0.1)
                .with_stale(0.5, 2);
            Box::new(
                <$runner>::new(
                    setups(),
                    EnvDims::new(2, 8, 64.0, 3),
                    EnvConfig::default(),
                    ppo,
                    fed,
                )
                .with_fault_plan(plan),
            )
        }
    };
}

/// Feeds `decode` every mutation of `good`: each 97th-byte prefix (all
/// must be rejected), one flipped byte at a stride of 61, and every
/// plausible 8-byte length prefix inflated past any real allocation.
/// `decode(bytes, case)` returns whether it accepted the bytes.
fn mutate(good: &[u8], mut decode: impl FnMut(&[u8], &str) -> bool) {
    for len in (0..good.len()).step_by(97) {
        let case = format!("{len}-byte prefix");
        assert!(!decode(&good[..len], &case), "accepted a {case}");
    }

    let mut bytes = good.to_vec();
    for i in (0..good.len()).step_by(61) {
        bytes[i] ^= 0xA5;
        decode(&bytes, &format!("byte flip at {i}"));
        bytes[i] = good[i];
    }

    // Any 8-byte window holding a small value may be a length prefix.
    for i in 0..good.len().saturating_sub(8) {
        let v = u64::from_le_bytes(good[i..i + 8].try_into().unwrap());
        if !(1..=1 << 20).contains(&v) {
            continue;
        }
        for inflated in [v << 32, u64::MAX] {
            bytes[i..i + 8].copy_from_slice(&inflated.to_le_bytes());
            decode(&bytes, &format!("length {inflated} at {i}"));
        }
        bytes[i..i + 8].copy_from_slice(&good[i..i + 8]);
    }
}

/// Runs `f`, turning a panic into a test failure naming `what` and `case`.
fn no_panic(what: &str, case: &str, f: impl FnOnce() -> bool) -> bool {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("{what}: panicked on {case}"))
}

fn mutate_and_restore(build: impl Fn() -> Box<dyn FederatedRunner>) {
    let mut trained = build();
    trained.train_round();
    let good = trained.checkpoint_bytes();
    let mut r = build();
    let untouched = r.checkpoint_bytes();

    mutate(&good, |bytes, case| {
        let ok = no_panic(r.algorithm(), case, || r.restore_checkpoint(bytes).is_ok());
        if ok {
            r = build();
        } else {
            assert_eq!(
                r.checkpoint_bytes(),
                untouched,
                "{case}: a rejected restore mutated the runner"
            );
        }
        ok
    });

    assert!(r.restore_checkpoint(&good).is_ok(), "the unmutated checkpoint was rejected");
    assert_eq!(r.checkpoint_bytes(), good);
}

#[test]
fn ppo_checkpoint_mutations_never_panic() {
    mutate_and_restore(fresh!(IndependentRunner));
}

#[test]
fn fedavg_checkpoint_mutations_never_panic() {
    mutate_and_restore(fresh!(FedAvgRunner));
}

#[test]
fn mfpo_checkpoint_mutations_never_panic() {
    mutate_and_restore(fresh!(MfpoRunner));
}

#[test]
fn pfrl_dm_checkpoint_mutations_never_panic() {
    mutate_and_restore(fresh!(PfrlDmRunner));
}

#[test]
fn policy_snapshot_mutations_never_panic() {
    let mut trained = fresh!(PfrlDmRunner)();
    trained.train_round();
    let snap = trained.policy_snapshots().swap_remove(0);
    let good = snap.to_bytes();
    mutate(&good, |bytes, case| {
        no_panic("PolicySnapshot::from_bytes", case, || PolicySnapshot::from_bytes(bytes).is_ok())
    });
    assert_eq!(PolicySnapshot::from_bytes(&good).expect("the unmutated snapshot"), snap);
}
