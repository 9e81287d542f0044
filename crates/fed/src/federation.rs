//! The one federation round driver.
//!
//! Algorithm 1 is one loop for every algorithm in the paper: local
//! episodes, uploads from a cohort, a server reduction, a broadcast.
//! [`Federation`] owns that loop once — the clients, schedule, fault and
//! quarantine state, robust-aggregation config, telemetry, upload arena,
//! round counter, the builders, the `fed/round` span tree, and the
//! checkpoint framing. A [`Strategy`] supplies only what differs: its
//! agent type, what ships, the cohort, the reduction and broadcast, and
//! its own checkpointed state.

use crate::attack::AttackPlan;
use crate::checkpoint::{read_client_fault, write_client_fault, Fingerprint, Reader, Writer};
use crate::client::{Client, FedAgent};
use crate::config::{ClientSetup, FedConfig};
use crate::curves::TrainingCurves;
use crate::error::FedError;
use crate::fault::{AcceptedUpload, FaultPlan, FaultState, Presence, QuarantinePolicy};
use crate::robust::{screen_uploads, RobustConfig, RobustScratch};
use crate::runner::{ClientView, FederatedRunner, UploadArena};
use pfrl_rl::PpoConfig;
use pfrl_sim::{EnvConfig, EnvDims};
use pfrl_stats::seeding::SeedStream;
use pfrl_telemetry::Telemetry;
use rayon::prelude::*;
use std::any::Any;
use std::io;
use std::time::Instant;

/// Wire size of flat `f32` parameter vectors, for bytes-on-wire counters.
pub(crate) fn param_bytes(params: &[Vec<f32>]) -> u64 {
    params.iter().map(|p| p.len() as u64 * 4).sum()
}

/// Runs `n` episodes on every client, in parallel when configured. Results
/// are identical to the sequential order because clients share no state.
pub(crate) fn run_all<A: FedAgent>(clients: &mut [Client<A>], n: usize, parallel: bool) {
    if parallel {
        clients.par_iter_mut().for_each(|c| c.run_episodes(n));
    } else {
        clients.iter_mut().for_each(|c| c.run_episodes(n));
    }
}

/// The parts of Algorithm 1 that differ between federation algorithms.
///
/// Implement this to add an algorithm: [`Federation`] drives it through
/// the shared round loop, fault gating, robust screens, telemetry, and
/// checkpointing, and the result is a [`FederatedRunner`] like the others.
pub trait Strategy: Clone + Send + 'static {
    /// The client agent this algorithm trains.
    type Agent: FedAgent;
    /// Paper name of the algorithm (e.g. `"PFRL-DM"`).
    const NAME: &'static str;
    /// Checkpoint fingerprint tag, distinct per strategy.
    const TAG: u8;
    /// Parameter streams per upload (`[actor, critic]` is 2, `[ψ]` is 1).
    /// Zero means nothing ships: a round only books presence, and the
    /// checkpoint carries no fault section (there is no gate state).
    const STREAMS: usize;
    /// Whether the server weighs the uploads, timed as
    /// `fed/round/attention`, before reducing them.
    const ATTENDS: bool = false;

    /// The initial broadcast, once the clients are built.
    fn init(&mut self, _cfg: &FedConfig, _clients: &mut [Client<Self::Agent>]) {}
    /// Fills `cohort` with the clients asked to upload this round.
    /// Default: everyone.
    fn select(
        &mut self,
        _cfg: &FedConfig,
        _f: &FaultState,
        p: &[Presence],
        cohort: &mut Vec<usize>,
    ) {
        cohort.extend(0..p.len());
    }
    /// Writes what ships into the `STREAMS` upload buffers.
    fn upload(agent: &Self::Agent, streams: &mut [Vec<f32>]);
    /// Adjusts the uploads of survivors returning after silent rounds
    /// (`round.missed[slot] > 0`). Default: they count like any other.
    fn reenter(&self, _round: &mut Round<'_, Self::Agent>) {}
    /// Weighs the uploads before the reduction (only if `ATTENDS`).
    fn attend(&mut self, _round: &mut Round<'_, Self::Agent>) {}
    /// Reduces the survivors' uploads into the server's models.
    fn reduce(&mut self, round: &mut Round<'_, Self::Agent>);
    /// Sends the reduced models to clients; returns the bytes sent.
    fn broadcast(&mut self, round: &mut Round<'_, Self::Agent>) -> u64;
    /// Mean critic loss across clients, observed before and after each
    /// aggregation. Default: not probed.
    fn critic_loss(&self, _clients: &mut [Client<Self::Agent>], _t: &Telemetry) -> Option<f64> {
        None
    }
    /// Records per-round history once an aggregation is done.
    fn record(&mut self, _round: &Round<'_, Self::Agent>, _losses: Option<(f64, f64)>) {}
    /// Writes construction-time settings that a restore must match; they
    /// precede the round cursor in the checkpoint.
    fn write_config(&self, _w: &mut Writer) {}
    /// Reads what [`Self::write_config`] wrote and rejects a mismatch.
    fn check_config(&self, _r: &mut Reader<'_>) -> io::Result<()> {
        Ok(())
    }
    /// Writes the strategy's resumable state.
    fn write_state(&self, w: &mut Writer);
    /// Reads what [`Self::write_state`] wrote into `self` (a copy, swapped
    /// in once the whole checkpoint decoded), checking server vectors
    /// against the upload stream lengths `lens`.
    fn read_state(&mut self, r: &mut Reader<'_>, lens: &[usize]) -> io::Result<()>;
}

/// One round's server-side view, handed to the strategy hooks.
pub struct Round<'a, A: FedAgent> {
    /// Round index.
    pub index: usize,
    /// The schedule in use.
    pub cfg: &'a FedConfig,
    /// All clients, in index order.
    pub clients: &'a mut [Client<A>],
    /// Fault and quarantine bookkeeping.
    pub fault: &'a mut FaultState,
    /// Every client's connectivity this round.
    pub presences: &'a [Presence],
    /// Clients whose uploads survived the gate and screens, by slot.
    pub survivors: &'a [usize],
    /// Silent rounds before each survivor's upload, by slot.
    pub missed: &'a [usize],
    /// Surviving uploads, `uploads[stream][slot]`.
    pub uploads: &'a mut [Vec<Vec<f32>>],
    /// The robust-aggregation config.
    pub robust: &'a RobustConfig,
    /// Scratch for robust reductions.
    pub scratch: &'a mut RobustScratch,
    /// Where metrics go.
    pub telemetry: &'a Telemetry,
}

/// Reusable per-round buffers: cleared and refilled every round so the
/// steady-state round stays off the heap. Pure scratch, never checkpointed.
#[derive(Default)]
struct Workspace {
    presences: Vec<Presence>,
    cohort: Vec<usize>,
    accepted: Vec<AcceptedUpload>,
    survivors: Vec<usize>,
    missed: Vec<usize>,
    uploads: Vec<Vec<Vec<f32>>>,
    robust: RobustScratch,
}

/// A federation of clients trained by strategy `S`.
pub struct Federation<S: Strategy> {
    /// Participating clients.
    pub clients: Vec<Client<S::Agent>>,
    pub(crate) strategy: S,
    cfg: FedConfig,
    dims: EnvDims,
    env_cfg: EnvConfig,
    ppo_cfg: PpoConfig,
    rounds_done: usize,
    pub(crate) fault: FaultState,
    robust: RobustConfig,
    pub(crate) telemetry: Telemetry,
    arena: UploadArena,
    ws: Workspace,
}

impl<S: Strategy + Default> Federation<S> {
    /// Builds the federation with the strategy's default settings.
    pub fn new(
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
    ) -> Self {
        Self::with_strategy(S::default(), setups, dims, env_cfg, ppo_cfg, fed_cfg)
    }
}

impl<S: Strategy> Federation<S> {
    /// Builds one client per setup (agents seeded per `(seed, client)`)
    /// and runs the strategy's initial broadcast.
    pub fn with_strategy(
        strategy: S,
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
    ) -> Self {
        fed_cfg.validate(setups.len());
        let n = setups.len();
        let mut fed = Self {
            clients: Vec::with_capacity(n),
            strategy,
            cfg: fed_cfg,
            dims,
            env_cfg,
            ppo_cfg,
            rounds_done: 0,
            fault: FaultState::new(FaultPlan::none(), QuarantinePolicy::default(), n),
            robust: RobustConfig::default(),
            telemetry: Telemetry::noop(),
            arena: UploadArena::new(),
            ws: Workspace::default(),
        };
        for (i, setup) in setups.into_iter().enumerate() {
            let client = fed.new_client(setup, i);
            fed.clients.push(client);
        }
        fed.strategy.init(&fed.cfg, &mut fed.clients);
        fed
    }

    /// A client with index `i`: its agent and episode streams derive from
    /// `(seed, i)`.
    pub(crate) fn new_client(&self, setup: ClientSetup, i: usize) -> Client<S::Agent> {
        let seed = SeedStream::new(self.cfg.seed).child("agent").index(i as u64).seed();
        let agent =
            S::Agent::build(self.dims.state_dim(), self.dims.action_dim(), self.ppo_cfg, seed);
        Client::new(setup, agent, self.dims, self.env_cfg, &self.cfg, i)
    }

    /// Routes runner, agent, and environment metrics to `telemetry`
    /// (per-round phase timings, bytes on the wire, critic-loss probes).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        for c in &mut self.clients {
            c.set_telemetry(telemetry.clone());
        }
        self.fault.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Installs a deterministic fault schedule (see [`crate::fault`]): the
    /// scheduled dropouts, stragglers, corruptions, and stale uploads are
    /// injected at the client→server boundary of every aggregation. Cohort
    /// *selection* is untouched — faults act on the selected cohort. For a
    /// strategy that ships nothing the schedule only surfaces in telemetry.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault.set_plan(plan);
        self
    }

    /// Overrides the update-quarantine policy (norm limit, eviction
    /// threshold, staleness decay).
    pub fn with_quarantine_policy(mut self, policy: QuarantinePolicy) -> Self {
        self.fault.set_policy(policy);
        self
    }

    /// Installs a deterministic Byzantine attack schedule (see
    /// [`crate::attack`]): coalition members' uploads are replaced with
    /// crafted poison at the quarantine gate. Composes with fault plans and
    /// churn; an inactive plan is bit-identical to none.
    pub fn with_attack_plan(mut self, plan: AttackPlan) -> Self {
        self.fault.set_attack(plan);
        self
    }

    /// Installs the Byzantine-robust aggregation config (see
    /// [`crate::robust`]): cohort-relative screens run over the gated
    /// uploads, and the configured reduction replaces the plain mean. The
    /// default is bit-identical to a federation without the layer.
    pub fn with_robust_aggregator(mut self, robust: RobustConfig) -> Self {
        robust.validate();
        self.robust = robust;
        self
    }

    /// Installs a deterministic scenario (workload drift + churn, see
    /// [`pfrl_scenario`]): drifting clients regenerate their episode traces
    /// from the plan (a churn-only plan leaves traces untouched), and the
    /// plan's churn schedule decides who is enrolled each round (leavers sit
    /// out; re-joiners flow through the strategy's re-entry).
    pub fn with_scenario(mut self, binding: &pfrl_scenario::ScenarioBinding) -> Self {
        assert_eq!(
            binding.datasets.len(),
            self.clients.len(),
            "scenario binding has {} datasets for {} clients",
            binding.datasets.len(),
            self.clients.len()
        );
        if binding.plan.has_drift() {
            for (i, c) in self.clients.iter_mut().enumerate() {
                let n = self.cfg.tasks_per_episode.unwrap_or(c.train_tasks().len());
                c.set_scenario_trace(binding.trace_for(i, n));
            }
        }
        self.fault.set_churn(binding.plan.churn().clone());
        self
    }

    /// Switches every client to DAG workflow scheduling: client `i` draws
    /// its episodes from `pools[i]` (seeded windows of `per_episode`
    /// workflows; `None` replays the full pool each episode).
    pub fn with_workflows(
        mut self,
        pools: Vec<Vec<pfrl_workloads::workflow::Workflow>>,
        per_episode: Option<usize>,
    ) -> Self {
        assert_eq!(pools.len(), self.clients.len(), "one workflow pool per client");
        for (c, pool) in self.clients.iter_mut().zip(pools) {
            c.use_workflows(pool, per_episode);
        }
        self
    }

    /// Full training run: `comm_every` local episodes, aggregate, repeat.
    /// Resume-safe: starts from `rounds_done`.
    pub fn train(&mut self) -> TrainingCurves {
        self.train_to_completion()
    }

    /// Runs `rounds` more rounds.
    pub fn train_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.train_round();
        }
    }

    /// One communication round: `comm_every` local episodes on every client
    /// (faulted clients keep training locally — only their communication
    /// fails), then an aggregation.
    pub fn train_round(&mut self) {
        let t = self.telemetry.clone();
        let round = t.span("fed/round");
        {
            let _local = round.child("local_train");
            run_all(&mut self.clients, self.cfg.comm_every, self.cfg.parallel);
        }
        self.aggregate();
    }

    /// Runs any leftover episodes past the last aggregation and returns the
    /// curves. Idempotent: each client is trained up to the episode budget.
    pub fn finish(&mut self) -> TrainingCurves {
        let done = self.clients.first().map_or(0, |c| c.episodes_done());
        if self.cfg.episodes > done {
            let _local = self.telemetry.span("fed/round/local_train");
            run_all(&mut self.clients, self.cfg.episodes - done, self.cfg.parallel);
        }
        TrainingCurves { per_client: self.clients.iter().map(|c| c.rewards.clone()).collect() }
    }

    /// One aggregation. The strategy's cohort uploads through the pooled
    /// arena; every upload passes the fault/quarantine gate and the robust
    /// screens; the strategy then reduces the survivors' uploads and
    /// broadcasts. Absent clients miss the round. When nothing survives,
    /// the server step is skipped and clients keep their parameters.
    pub fn aggregate(&mut self) {
        let round = self.rounds_done;
        let ws = &mut self.ws;
        self.fault.begin_round_into(round, &mut ws.presences);
        for (i, p) in ws.presences.iter().enumerate() {
            if !p.is_present() {
                self.fault.note_missed(i);
            }
        }
        if S::STREAMS == 0 {
            let present = ws.presences.iter().filter(|p| p.is_present()).count();
            self.fault.record_participation(present);
            return self.end_round();
        }
        ws.cohort.clear();
        self.strategy.select(&self.cfg, &self.fault, &ws.presences, &mut ws.cohort);

        let upload = self.telemetry.span("fed/round/upload");
        ws.accepted.clear();
        for &i in &ws.cohort {
            let p = ws.presences[i];
            if !p.is_present() {
                continue;
            }
            let mut streams = self.arena.acquire(S::STREAMS);
            S::upload(&self.clients[i].agent, &mut streams);
            if let Some(up) = self.fault.gate_upload(round, i, streams, p) {
                ws.accepted.push(up);
            }
        }
        drop(upload);
        // Cohort-relative robust screens (no-ops on the default config):
        // outliers are ejected before any float touches the aggregate.
        screen_uploads(
            &self.robust,
            round,
            &mut self.fault,
            &mut ws.accepted,
            &mut self.arena,
            &mut ws.robust,
        );
        self.fault.record_participation(ws.accepted.len());
        if ws.accepted.is_empty() {
            return self.end_round();
        }

        let agg_start = Instant::now();
        let k = ws.accepted.len();
        ws.uploads.resize_with(S::STREAMS, Vec::new);
        for (s, slots) in ws.uploads.iter_mut().enumerate() {
            slots.resize_with(k, Vec::new);
            for (dst, u) in slots.iter_mut().zip(&ws.accepted) {
                dst.clone_from(&u.streams[s]);
            }
        }
        ws.survivors.clear();
        ws.missed.clear();
        // The upload buffers are copied out; park them for the next round.
        for up in ws.accepted.drain(..) {
            ws.survivors.push(up.client);
            ws.missed.push(up.missed_rounds);
            self.arena.release(up.streams);
        }
        self.telemetry.counter("fed/bytes_up", ws.uploads.iter().map(|s| param_bytes(s)).sum());

        let mut r = Round {
            index: round,
            cfg: &self.cfg,
            clients: &mut self.clients,
            fault: &mut self.fault,
            presences: &ws.presences,
            survivors: &ws.survivors,
            missed: &ws.missed,
            uploads: &mut ws.uploads,
            robust: &self.robust,
            scratch: &mut ws.robust,
            telemetry: &self.telemetry,
        };
        self.strategy.reenter(&mut r);
        let before = self.strategy.critic_loss(r.clients, r.telemetry);
        if S::ATTENDS {
            let _attention = r.telemetry.span("fed/round/attention");
            self.strategy.attend(&mut r);
        }
        {
            let _aggregate = r.telemetry.span("fed/round/aggregate");
            self.strategy.reduce(&mut r);
        }
        let bytes_down = {
            let _broadcast = r.telemetry.span("fed/round/broadcast");
            self.strategy.broadcast(&mut r)
        };
        let t = r.telemetry;
        t.counter("fed/bytes_down", bytes_down);
        // Wall-clock, so excluded from the deterministic fingerprint.
        t.observe("fed/agg_wall_us", agg_start.elapsed().as_secs_f64() * 1e6);
        t.gauge("fed/arena_bytes", self.arena.pooled_bytes() as f64);
        let losses = before.zip(self.strategy.critic_loss(r.clients, t));
        if let Some((b, a)) = losses {
            t.observe("fed/critic_loss_before_agg", b);
            t.observe("fed/critic_loss_after_agg", a);
        }
        self.strategy.record(&r, losses);
        self.end_round();
    }

    fn end_round(&mut self) {
        self.telemetry.counter("fed/rounds", 1);
        self.rounds_done += 1;
    }

    /// The schedule in use.
    pub fn config(&self) -> &FedConfig {
        &self.cfg
    }

    /// Communication rounds completed so far.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Bytes of `f32` capacity pooled in the upload arena between rounds.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.pooled_bytes()
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            algo: S::TAG,
            seed: self.cfg.seed,
            episodes: self.cfg.episodes,
            comm_every: self.cfg.comm_every,
            participation_k: self.cfg.participation_k,
            n_clients: self.clients.len(),
        }
    }

    /// Serializes the full training state: the round cursor, the
    /// strategy's server state, per-client reward histories, episode
    /// cursors and agent snapshots, and the fault bookkeeping.
    /// Construction-time configuration (fault plan, scenario, strategy
    /// settings) is *not* stored — restore into a federation built the
    /// same way.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.fingerprint().write(&mut w);
        self.strategy.write_config(&mut w);
        w.usize(self.rounds_done);
        self.strategy.write_state(&mut w);
        for c in &self.clients {
            w.vec_f64(&c.rewards);
            w.usize(c.episodes_done());
            c.agent.write_state(&mut w);
        }
        if S::STREAMS > 0 {
            for f in self.fault.client_states() {
                write_client_fault(&mut w, f);
            }
        }
        w.finish()
    }

    /// Restores state captured by [`Self::checkpoint_bytes`]; training then
    /// resumes to bit-identical curves.
    ///
    /// The checkpoint decodes into copies of the strategy and the agents,
    /// each vector checked against the live federation (lengths, finite
    /// parameters); the copies replace the live state only once all of it
    /// decoded. Malformed, truncated, or mismatched bytes surface as
    /// [`FedError::Checkpoint`] and leave the federation as it was.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), FedError> {
        let decode = || -> io::Result<_> {
            let mut r = Reader::new(bytes)?;
            Fingerprint::check(&mut r, &self.fingerprint())?;
            self.strategy.check_config(&mut r)?;
            let rounds_done = r.usize()?;
            let mut streams = vec![Vec::new(); S::STREAMS];
            S::upload(&self.clients[0].agent, &mut streams);
            let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
            let mut strategy = self.strategy.clone();
            strategy.read_state(&mut r, &lens)?;
            let mut clients = Vec::with_capacity(self.clients.len());
            for c in &self.clients {
                let (rewards, episodes_done) = (r.vec_f64()?, r.usize()?);
                let mut agent = c.agent.clone();
                agent.read_state(&mut r)?;
                clients.push((rewards, episodes_done, agent));
            }
            let faults = if S::STREAMS == 0 {
                None
            } else {
                let n = self.clients.len();
                Some((0..n).map(|_| read_client_fault(&mut r, &lens)).collect::<io::Result<_>>()?)
            };
            r.finish()?;
            Ok((rounds_done, strategy, clients, faults))
        };
        let (rounds_done, strategy, clients, faults) = decode().map_err(FedError::checkpoint)?;
        self.rounds_done = rounds_done;
        self.strategy = strategy;
        for (c, (rewards, episodes_done, agent)) in self.clients.iter_mut().zip(clients) {
            c.rewards = rewards;
            c.restore_episode_cursor(episodes_done);
            c.agent = agent;
        }
        if let Some(faults) = faults {
            self.fault.restore_client_states(faults);
        }
        Ok(())
    }
}

impl<S: Strategy> FederatedRunner for Federation<S> {
    fn algorithm(&self) -> &'static str {
        S::NAME
    }
    fn config(&self) -> &FedConfig {
        &self.cfg
    }
    fn train_round(&mut self) {
        Federation::train_round(self)
    }
    fn finish(&mut self) -> TrainingCurves {
        Federation::finish(self)
    }
    fn rounds_done(&self) -> usize {
        self.rounds_done
    }
    fn checkpoint_bytes(&self) -> Vec<u8> {
        Federation::checkpoint_bytes(self)
    }
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), FedError> {
        Federation::restore_checkpoint(self, bytes)
    }
    fn clients(&self) -> Vec<&dyn ClientView> {
        self.clients.iter().map(|c| c as &dyn ClientView).collect()
    }
    fn clients_mut(&mut self) -> Vec<&mut dyn ClientView> {
        self.clients.iter_mut().map(|c| c as &mut dyn ClientView).collect()
    }
    fn arena_bytes(&self) -> u64 {
        self.arena.pooled_bytes()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}
