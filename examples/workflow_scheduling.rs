//! Workflow (DAG) scheduling — the paper's future-work extension.
//!
//! Scientific workflows (layered fork–join DAGs built over the Google task
//! distribution) are scheduled by a PPO agent trained directly on
//! dependency-aware workflow episodes of the one scheduling environment
//! (`CloudEnv::reset_workflows`), and compared with a first-fit driver.
//! The makespans are checked against each workflow's critical path (the
//! contention-free lower bound).
//!
//! Run with:
//! ```text
//! cargo run --release --example workflow_scheduling
//! ```

use pfrl_dm::rl::{PpoAgent, PpoConfig};
use pfrl_dm::sim::{Action, CloudEnv, EnvConfig, EnvDims, VmSpec};
use pfrl_dm::workloads::{DatasetId, WorkflowModel};

fn run_first_fit(env: &mut CloudEnv) {
    while !env.is_done() {
        let a = env.first_fit_action().unwrap_or(Action::Wait);
        env.step(a);
    }
}

fn main() {
    let dims = EnvDims::new(4, 16, 128.0, 5);
    let vms = vec![
        VmSpec::new(16, 128.0),
        VmSpec::new(16, 128.0),
        VmSpec::new(8, 64.0),
        VmSpec::new(8, 64.0),
    ];
    // Fork-join DAGs over Google-sized tasks (small, parallelizable stages).
    let model = WorkflowModel::scientific(DatasetId::Google.model());
    let workflows = model.sample(8, 42);
    let total_tasks: usize = workflows.iter().map(|w| w.len()).sum();
    let cp_sum: u64 = workflows.iter().map(|w| w.critical_path()).sum();
    println!(
        "{} workflows, {} tasks total, mean critical path {:.1} min",
        workflows.len(),
        total_tasks,
        cp_sum as f64 / workflows.len() as f64
    );

    // Train PPO on workflow episodes.
    let mut env = CloudEnv::new(dims, vms.clone(), EnvConfig::default());
    let mut agent = PpoAgent::new(dims.state_dim(), dims.action_dim(), PpoConfig::default(), 3);
    let mut first10 = 0.0;
    let mut last10 = 0.0;
    let episodes = 120;
    for ep in 0..episodes {
        env.reset_workflows(workflows.clone());
        let r = agent.train_one_episode(&mut env) as f64;
        if ep < 10 {
            first10 += r / 10.0;
        }
        if ep >= episodes - 10 {
            last10 += r / 10.0;
        }
    }
    println!("PPO on DAGs: first-10 reward {first10:.1} -> last-10 {last10:.1}");

    // Compare makespans.
    let mut ppo_env = CloudEnv::new(dims, vms.clone(), EnvConfig::default());
    ppo_env.reset_workflows(workflows.clone());
    agent.evaluate(&mut ppo_env);
    let mut ff_env = CloudEnv::new(dims, vms, EnvConfig::default());
    ff_env.reset_workflows(workflows.clone());
    run_first_fit(&mut ff_env);

    println!(
        "\n{:<10} {:>14} {:>14} {:>16}",
        "workflow", "critical path", "PPO makespan", "firstfit makespan"
    );
    for (i, wf) in workflows.iter().enumerate() {
        let cp = wf.critical_path();
        let ppo = ppo_env.workflow_makespans()[i];
        let ff = ff_env.workflow_makespans()[i];
        println!(
            "{:<10} {:>14} {:>14} {:>16}",
            i,
            cp,
            ppo.map_or("—".into(), |v| v.to_string()),
            ff.map_or("—".into(), |v| v.to_string())
        );
        if let Some(v) = ff {
            assert!(v >= cp, "makespan below the critical-path lower bound?!");
        }
    }
    let mp = ppo_env.metrics();
    let mf = ff_env.metrics();
    println!(
        "\nepisode metrics     PPO: response {:.1}, util {:.3} | first-fit: response {:.1}, util {:.3}",
        mp.avg_response, mp.avg_utilization, mf.avg_response, mf.avg_utilization
    );
}
