//! End-to-end fidelity of the serving plane: for every federation
//! algorithm, a policy exported through the snapshot wire format and
//! served by `pfrl-serve` must reproduce the trainer's greedy decisions
//! bit for bit — equal episode metrics on the same task set imply the
//! identical decision sequence, since the environment is deterministic.

use pfrl_core::experiment::{run_federation, Algorithm};
use pfrl_core::fed::FedConfig;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::serve::{
    Decision, PolicyStore, ServeError, Session, ShardedDecisionService, ShardedServeConfig,
};
use pfrl_core::sim::EnvConfig;
use pfrl_core::workloads::{DatasetId, TaskSpec};

fn tiny_fed(seed: u64) -> FedConfig {
    FedConfig {
        episodes: 2,
        comm_every: 1,
        participation_k: 2,
        tasks_per_episode: Some(12),
        seed,
        parallel: false,
    }
}

/// The tentpole guarantee: train → export → serialize → load → serve
/// reproduces the in-memory agent's greedy evaluation exactly, for all
/// four algorithms and every client.
#[test]
fn served_decisions_match_trained_agents_bit_for_bit() {
    let eval_tasks = DatasetId::Google.model().sample(30, 77);
    for alg in Algorithm::ALL {
        let (_, mut trained) = run_federation(
            alg,
            table2_clients(40, 6),
            TABLE2_DIMS,
            EnvConfig::default(),
            PpoConfig::default(),
            tiny_fed(6),
        );
        let blobs: Vec<Vec<u8>> = trained.policy_snapshots().iter().map(|s| s.to_bytes()).collect();
        let store = PolicyStore::from_blobs(blobs.iter().map(Vec::as_slice))
            .unwrap_or_else(|e| panic!("{alg}: snapshots must load: {e}"));
        assert_eq!(store.len(), trained.n_clients(), "{alg}");

        for (i, name) in trained.client_names().iter().enumerate() {
            let expected = trained.evaluate_client(i, &eval_tasks);
            let snap = store.latest(name).unwrap_or_else(|| panic!("{alg}: no snapshot {name}"));
            assert_eq!(snap.algorithm, alg.name(), "{alg}/{name}");
            let mut session = Session::new(snap).expect("validated snapshot");
            let served = session.run_episode(&eval_tasks);
            assert_eq!(served, expected, "{alg}/{name}: served decisions diverge from trainer");
        }
    }
}

/// The same fidelity holds through the batched front end: submitting to a
/// one-shard service and draining its waves is just a scheduled way of
/// running the same decide path.
#[test]
fn batched_service_preserves_decision_fidelity() {
    let eval_tasks = DatasetId::K8s.model().sample(25, 41);
    let (_, mut trained) = run_federation(
        Algorithm::PfrlDm,
        table2_clients(40, 8),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        tiny_fed(8),
    );
    let expected = trained.evaluate_client(0, &eval_tasks);
    let name = trained.client_names()[0].clone();

    let store = PolicyStore::from_snapshots(trained.policy_snapshots()).unwrap();
    let svc = ShardedDecisionService::new(
        store,
        ShardedServeConfig { shards: 1, queue_capacity: 8, max_batch: 4 },
    );
    let id = svc.open_session(&name).unwrap();
    svc.begin_episode(id, &eval_tasks).unwrap();
    'serve: loop {
        for _ in 0..4 {
            match svc.submit(id) {
                Ok(()) => {}
                Err(ServeError::Overloaded { .. }) => break,
                Err(e) => panic!("unexpected serve error: {e}"),
            }
        }
        for (_, d) in svc.decide_wave(0) {
            if d.done {
                break 'serve;
            }
        }
    }
    let served = svc.metrics(id).unwrap();
    assert_eq!(served, expected, "batched serving diverged from trainer");
}

/// Opens one session per task set on a fresh sharded service and drives
/// every session to episode completion through submit → wave drains,
/// returning each session's full decision sequence in decision order.
fn drive_sharded(
    store: PolicyStore,
    shards: usize,
    client: &str,
    task_sets: &[Vec<TaskSpec>],
) -> Vec<Vec<Decision>> {
    let svc = ShardedDecisionService::new(
        store,
        ShardedServeConfig { shards, queue_capacity: 64, max_batch: 8 },
    );
    let ids: Vec<_> = task_sets
        .iter()
        .map(|tasks| {
            let id = svc.open_session(client).expect("known client");
            svc.begin_episode(id, tasks).expect("fresh session");
            id
        })
        .collect();
    let mut seqs = vec![Vec::new(); ids.len()];
    let mut done = vec![false; ids.len()];
    while done.iter().any(|d| !d) {
        for (k, &id) in ids.iter().enumerate() {
            if !done[k] {
                svc.submit(id).expect("queue has headroom");
            }
        }
        for shard in 0..svc.shards() {
            for (id, d) in svc.decide_wave(shard) {
                let k = ids.iter().position(|&x| x == id).expect("served id is known");
                seqs[k].push(d);
                if d.done {
                    done[k] = true;
                }
            }
        }
    }
    let ledger = svc.ledger();
    assert_eq!(
        ledger.admitted,
        ledger.decisions + ledger.stale + ledger.queued,
        "sharded ledger out of balance"
    );
    seqs
}

/// The sharded wave path — sessions hashed across shards, concurrent
/// same-snapshot decisions collapsed into one batched GEMM — reproduces
/// the sequential `Session::decide` sequence bit for bit, for all four
/// algorithms. Each session runs a *different* task set so the wave's
/// state matrix has distinct rows; `Decision` equality covers action,
/// reward bits, placement, and version.
#[test]
fn sharded_waves_reproduce_sequential_decisions_for_all_algorithms() {
    let task_sets: Vec<Vec<TaskSpec>> =
        (0..5).map(|i| DatasetId::K8s.model().sample(15, 100 + i)).collect();
    for alg in Algorithm::ALL {
        let (_, trained) = run_federation(
            alg,
            table2_clients(40, 11),
            TABLE2_DIMS,
            EnvConfig::default(),
            PpoConfig::default(),
            tiny_fed(11),
        );
        let snapshots = trained.policy_snapshots();
        let client = trained.client_names()[0].clone();

        // Sequential reference: one decision at a time, per-session matvec.
        let reference_store = PolicyStore::from_snapshots(snapshots.clone()).unwrap();
        let snap = reference_store.latest(&client).unwrap();
        let expected: Vec<Vec<Decision>> = task_sets
            .iter()
            .map(|tasks| {
                let mut s = Session::new(snap).expect("validated snapshot");
                s.begin_episode(tasks);
                let mut seq = Vec::new();
                loop {
                    let d = s.decide();
                    seq.push(d);
                    if d.done {
                        break;
                    }
                }
                seq
            })
            .collect();

        let store = PolicyStore::from_snapshots(snapshots).unwrap();
        let served = drive_sharded(store, 4, &client, &task_sets);
        assert_eq!(served, expected, "{alg}: wave decisions diverge from sequential");
    }
}

/// Decisions are invariant to the shard count: the same sessions over the
/// same tasks produce identical per-session decision sequences whether the
/// fleet runs 1 shard or many — sharding is pure scale-out, never a
/// numerics or ordering change.
#[test]
fn shard_count_is_decision_invariant() {
    let (_, trained) = run_federation(
        Algorithm::PfrlDm,
        table2_clients(40, 13),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        tiny_fed(13),
    );
    let snapshots = trained.policy_snapshots();
    let client = trained.client_names()[0].clone();
    let task_sets: Vec<Vec<TaskSpec>> =
        (0..6).map(|i| DatasetId::Google.model().sample(12, 300 + i)).collect();

    let single = drive_sharded(
        PolicyStore::from_snapshots(snapshots.clone()).unwrap(),
        1,
        &client,
        &task_sets,
    );
    for shards in [4usize, 7] {
        let multi = drive_sharded(
            PolicyStore::from_snapshots(snapshots.clone()).unwrap(),
            shards,
            &client,
            &task_sets,
        );
        assert_eq!(multi, single, "{shards}-shard decisions diverge from 1-shard");
    }
}

/// Version bookkeeping survives the wire: a later export of the same
/// client coexists with the earlier one and `latest` resolves it.
#[test]
fn reexported_policies_version_monotonically() {
    let (_, trained) = run_federation(
        Algorithm::FedAvg,
        table2_clients(40, 9),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        tiny_fed(9),
    );
    let early = trained.policy_snapshots();
    // A "later" export: same clients, higher training cursor.
    let mut late = trained.policy_snapshots();
    for s in &mut late {
        s.version += 100;
    }
    let all: Vec<_> = early.iter().chain(late.iter()).cloned().collect();
    let store = PolicyStore::from_snapshots(all).unwrap();
    assert_eq!(store.len(), 2 * trained.n_clients());
    for name in trained.client_names() {
        let latest = store.latest(&name).unwrap();
        assert_eq!(latest.version, early.iter().find(|s| s.client == name).unwrap().version + 100);
    }
}
