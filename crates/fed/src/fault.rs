//! Deterministic fault injection and the server-side update-quarantine
//! gate — the federation's robustness layer.
//!
//! Real FRL deployments face stragglers, dropouts, and corrupted uploads;
//! Algorithm 1 as written assumes every client returns a valid public
//! critic every round. This module makes the failure regime first-class
//! and *bit-reproducible*:
//!
//! * [`FaultPlan`] — a seeded, purely functional schedule of per-round,
//!   per-client [`FaultEvent`]s. `event(round, client)` derives its RNG
//!   from `(seed, round, client)` alone, so the same plan replays
//!   identically at any thread count and needs no checkpoint state.
//! * [`FaultState`] — the per-client runtime bookkeeping (straggler
//!   countdowns, consecutive-rejection counts, evictions, last-known-good
//!   uploads) shared by all federation runners, with every event emitted
//!   through `pfrl-telemetry` counters.
//! * [`validate_update`] — the quarantine gate: uploads with non-finite
//!   values or exploding norms are rejected at the server boundary, the
//!   client's last-known-good vector is substituted, and clients that fail
//!   repeatedly are evicted.
//!
//! Injection happens at the client→server boundary only: a corrupted
//! *upload* models a corrupted transmission (or a poisoned/diverged
//! client), while the client's own replica keeps training. Faulted clients
//! therefore still run local episodes — only their communication fails —
//! which keeps reward curves rectangular and the local training streams
//! independent of the fault schedule.

use crate::attack::AttackPlan;
use pfrl_nn::params::validate_params;
use pfrl_scenario::ChurnPlan;
use pfrl_stats::seeding::SeedStream;
use pfrl_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// How a corrupted upload is damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// One element becomes NaN (e.g. a diverged Adam step).
    Nan,
    /// One element becomes +∞.
    Inf,
    /// Every element is scaled by `1e6` (norm blow-up without non-finites).
    NormBlowup,
}

/// One scheduled fault for a `(round, client)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The client is offline this round: no upload, no broadcast received.
    Dropout,
    /// The client goes silent for `rounds` consecutive rounds (this one
    /// included), then reconnects with whatever it trained in the interim.
    Straggle {
        /// Number of rounds the client stays silent.
        rounds: usize,
    },
    /// The upload arrives damaged and must be caught by the quarantine
    /// gate.
    CorruptUpload(Corruption),
    /// The upload that arrives is the client's upload from `age` rounds
    /// ago (a delayed packet), not its fresh parameters.
    StaleParams {
        /// How many rounds old the delivered upload is.
        age: usize,
    },
}

/// A deterministic, seeded fault schedule.
///
/// The plan is a pure function of `(seed, round, client)`: probabilities
/// pick which event (if any) fires for each pair, and all randomness is
/// derived locally, so chaos runs replay bit-identically regardless of
/// thread count, checkpointing, or evaluation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root seed of the fault schedule (independent of the training seed).
    pub seed: u64,
    /// Per-round, per-client dropout probability.
    pub dropout: f64,
    /// Probability that a multi-round straggle starts.
    pub straggle: f64,
    /// Maximum straggle length in rounds (uniform `1..=max`).
    pub straggle_max: usize,
    /// Probability of a corrupted upload.
    pub corrupt: f64,
    /// Probability of a stale (delayed) upload.
    pub stale: f64,
    /// Maximum staleness age in rounds (uniform `1..=max`).
    pub stale_max_age: usize,
}

impl FaultPlan {
    /// The no-fault plan: every client is healthy every round, and no RNG
    /// is ever drawn, so runs are bit-identical to a runner without the
    /// fault layer.
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout: 0.0,
            straggle: 0.0,
            straggle_max: 1,
            corrupt: 0.0,
            stale: 0.0,
            stale_max_age: 1,
        }
    }

    /// A healthy plan carrying a seed, for builder-style composition.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::none() }
    }

    /// Builder: sets the per-round dropout probability.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout = p;
        self
    }

    /// Builder: sets the straggle probability and maximum length.
    pub fn with_straggle(mut self, p: f64, max_rounds: usize) -> Self {
        self.straggle = p;
        self.straggle_max = max_rounds.max(1);
        self
    }

    /// Builder: sets the corrupted-upload probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Builder: sets the stale-upload probability and maximum age.
    pub fn with_stale(mut self, p: f64, max_age: usize) -> Self {
        self.stale = p;
        self.stale_max_age = max_age.max(1);
        self
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.dropout > 0.0 || self.straggle > 0.0 || self.corrupt > 0.0 || self.stale > 0.0
    }

    /// Panics if any probability is invalid or the total exceeds 1.
    pub fn validate(&self) {
        for (name, p) in [
            ("dropout", self.dropout),
            ("straggle", self.straggle),
            ("corrupt", self.corrupt),
            ("stale", self.stale),
        ] {
            assert!((0.0..=1.0).contains(&p), "fault {name} probability {p} outside [0, 1]");
        }
        let total = self.dropout + self.straggle + self.corrupt + self.stale;
        assert!(total <= 1.0 + 1e-12, "fault probabilities sum to {total} > 1");
    }

    /// The event scheduled for `(round, client)`, if any. Pure: derives a
    /// private RNG from `(seed, round, client)` and touches nothing else.
    pub fn event(&self, round: usize, client: usize) -> Option<FaultEvent> {
        if !self.is_active() {
            return None;
        }
        let seed = SeedStream::new(self.seed)
            .child("fault")
            .index(round as u64)
            .index(client as u64)
            .seed();
        let mut rng = SmallRng::seed_from_u64(seed);
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut edge = self.dropout;
        if u < edge {
            return Some(FaultEvent::Dropout);
        }
        edge += self.straggle;
        if u < edge {
            return Some(FaultEvent::Straggle { rounds: rng.gen_range(1..=self.straggle_max) });
        }
        edge += self.corrupt;
        if u < edge {
            let kind = match rng.gen_range(0..3u32) {
                0 => Corruption::Nan,
                1 => Corruption::Inf,
                _ => Corruption::NormBlowup,
            };
            return Some(FaultEvent::CorruptUpload(kind));
        }
        edge += self.stale;
        if u < edge {
            return Some(FaultEvent::StaleParams { age: rng.gen_range(1..=self.stale_max_age) });
        }
        None
    }
}

/// Server-side policy of the update-quarantine gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// Uploads whose L2 norm exceeds this are rejected (legitimate critic
    /// parameter vectors in this codebase have norms of order 10).
    pub norm_limit: f32,
    /// Consecutive rejected uploads before the client is evicted from all
    /// future aggregations.
    pub evict_after: u32,
    /// Per-missed-round decay of a returning straggler's blend weight: a
    /// client re-entering after `s` silent rounds contributes
    /// `decay^s · upload + (1 − decay^s) · global` to the aggregation.
    pub staleness_decay: f32,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        Self { norm_limit: 1e4, evict_after: 3, staleness_decay: 0.5 }
    }
}

/// Why the quarantine gate rejected an upload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateFault {
    /// A NaN or infinity at the given flat index of the given stream.
    NonFinite {
        /// Index of the offending stream (0 for single-stream uploads).
        stream: usize,
        /// Flat index of the first non-finite element.
        index: usize,
    },
    /// A stream's L2 norm exceeded the policy limit.
    NormExploded {
        /// Index of the offending stream.
        stream: usize,
        /// The measured norm.
        norm: f32,
    },
}

/// Validates one multi-stream upload (e.g. `[actor, critic]` for FedAvg,
/// `[public_critic]` for PFRL-DM) against the quarantine policy.
pub fn validate_update(streams: &[Vec<f32>], norm_limit: f32) -> Result<(), UpdateFault> {
    for (s, v) in streams.iter().enumerate() {
        if let Err(fault) = validate_params(v) {
            let index = match fault {
                pfrl_nn::ParamFault::Nan(i) | pfrl_nn::ParamFault::Infinite(i) => i,
                // validate_params only reports non-finite faults; the band
                // variant comes from validate_params_in_band (the screens).
                pfrl_nn::ParamFault::NormOutOfBand { .. } => unreachable!(),
            };
            return Err(UpdateFault::NonFinite { stream: s, index });
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > norm_limit {
            return Err(UpdateFault::NormExploded { stream: s, norm });
        }
    }
    Ok(())
}

/// Applies a [`Corruption`] to an upload, deterministically per
/// `(plan seed, round, client)`.
fn corrupt_upload(streams: &mut [Vec<f32>], kind: Corruption, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind {
        Corruption::Nan | Corruption::Inf => {
            let stream = rng.gen_range(0..streams.len());
            if streams[stream].is_empty() {
                return;
            }
            let idx = rng.gen_range(0..streams[stream].len());
            streams[stream][idx] = if kind == Corruption::Nan { f32::NAN } else { f32::INFINITY };
        }
        Corruption::NormBlowup => {
            for s in streams.iter_mut() {
                for v in s.iter_mut() {
                    *v *= 1e6;
                }
            }
        }
    }
}

/// Why the server rejected a contribution — either the absolute
/// quarantine gate or one of the cohort-relative robust screens. `Copy`
/// so recording a rejection never allocates on the aggregation hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// The absolute quarantine gate fired (non-finite values or norm
    /// blow-up).
    Gate(UpdateFault),
    /// A stream's L2 norm fell outside the cohort-relative band
    /// `[median / band, median · band]`.
    NormBand {
        /// Index of the offending stream.
        stream: usize,
        /// The measured norm.
        norm: f32,
        /// The cohort median norm of that stream.
        median: f32,
        /// The configured band factor.
        band: f32,
    },
    /// A stream's cosine similarity to the cohort's robust reference
    /// direction fell below the screen threshold.
    CosineOutlier {
        /// Index of the offending stream.
        stream: usize,
        /// The measured cosine similarity.
        cosine: f32,
        /// The configured minimum.
        threshold: f32,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Gate(UpdateFault::NonFinite { stream, index }) => {
                write!(f, "quarantine gate: non-finite value at stream {stream} index {index}")
            }
            RejectReason::Gate(UpdateFault::NormExploded { stream, norm }) => {
                write!(f, "quarantine gate: stream {stream} norm {norm} exceeded the limit")
            }
            RejectReason::NormBand { stream, norm, median, band } => write!(
                f,
                "norm-band screen: stream {stream} norm {norm} outside [{:.4}, {:.4}] \
                 (cohort median {median}, band {band})",
                median / band,
                median * band
            ),
            RejectReason::CosineOutlier { stream, cosine, threshold } => write!(
                f,
                "cosine screen: stream {stream} similarity {cosine:.4} below threshold \
                 {threshold:.4}"
            ),
        }
    }
}

/// Why a client is not uploading this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsenceReason {
    /// A one-round dropout.
    Dropout,
    /// Mid-straggle (multi-round silence).
    Straggling,
    /// Permanently evicted by the quarantine gate.
    Evicted,
    /// Outside the federation cohort this round per the churn plan (left,
    /// or not joined yet). Unlike a dropout, this is scheduled membership,
    /// not a failure — no fault counters fire and no straggle state ticks.
    NotEnrolled,
}

/// A client's connectivity for one round, as decided by
/// [`FaultState::begin_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Connected: uploads (possibly damaged) and receives broadcasts.
    Present {
        /// Scheduled transmission corruption, if any.
        corrupt: Option<Corruption>,
        /// Scheduled upload staleness in rounds (0 = fresh).
        stale_age: usize,
    },
    /// Offline this round: no upload, no broadcast.
    Absent(AbsenceReason),
}

impl Presence {
    /// Whether the client is connected this round.
    pub fn is_present(&self) -> bool {
        matches!(self, Presence::Present { .. })
    }
}

/// Per-client runtime fault bookkeeping (checkpointed alongside the rest
/// of the federation state).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientFault {
    /// Remaining silent rounds of an in-flight straggle.
    pub straggle_left: usize,
    /// Consecutive rounds without an accepted fresh-enough contribution
    /// (drives staleness-weighted re-entry).
    pub missed_rounds: usize,
    /// Consecutive uploads rejected by the quarantine gate.
    pub rejections: u32,
    /// Whether the quarantine gate has evicted this client.
    pub evicted: bool,
    /// Last upload that passed validation (quarantine fallback).
    pub last_good: Option<Vec<Vec<f32>>>,
    /// Ring of recent accepted uploads, newest last (stale-upload
    /// simulation; kept only when the plan schedules staleness).
    pub history: VecDeque<Vec<Vec<f32>>>,
}

/// An upload that survived the gate, ready for aggregation.
#[derive(Debug, Clone)]
pub struct AcceptedUpload {
    /// The client it came from.
    pub client: usize,
    /// The parameter streams to aggregate.
    pub streams: Vec<Vec<f32>>,
    /// Rounds of silence before this contribution (0 = regular round);
    /// positive values trigger staleness-weighted re-entry.
    pub missed_rounds: usize,
    /// The client's consecutive-rejection count *before* the gate ruled on
    /// this upload. The accept path resets the live counter; if a robust
    /// screen later rejects this upload, [`FaultState::note_screened`]
    /// restores continuity from this value so that per-round screen
    /// rejections still accumulate toward eviction.
    pub prior_rejections: u32,
}

/// Shared fault-injection + quarantine state for one federation runner.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    policy: QuarantinePolicy,
    clients: Vec<ClientFault>,
    /// Cohort membership schedule (construction-time config, like `plan`:
    /// never checkpointed — a restored runner re-derives membership by pure
    /// replay).
    churn: ChurnPlan,
    /// Byzantine attack schedule (construction-time config, like `plan`:
    /// never checkpointed — membership and crafted vectors re-derive by
    /// pure replay).
    attack: AttackPlan,
    /// Cached coalition membership (`attack.is_adversary(i)` per client),
    /// so the per-upload hot path never re-derives seeds.
    adversary: Vec<bool>,
    /// The most recent gate/screen rejection, with round and client, for
    /// structured error surfacing (see [`crate::FedError::Quarantine`]).
    last_rejection: Option<(usize, usize, RejectReason)>,
    /// Enrolled-client count of the latest [`Self::begin_round`], the
    /// denominator of `fed/participation_fraction` (so scheduled churn does
    /// not masquerade as dropout).
    enrolled: usize,
    telemetry: Telemetry,
}

impl FaultState {
    /// Builds the state for `n` clients.
    pub fn new(plan: FaultPlan, policy: QuarantinePolicy, n: usize) -> Self {
        let mut state = Self {
            plan: FaultPlan::none(),
            policy: QuarantinePolicy::default(),
            clients: vec![ClientFault::default(); n],
            churn: ChurnPlan::none(),
            attack: AttackPlan::none(),
            adversary: vec![false; n],
            last_rejection: None,
            enrolled: n,
            telemetry: Telemetry::noop(),
        };
        state.set_plan(plan);
        state.set_policy(policy);
        state
    }

    /// Installs the fault schedule (construction-time config; replaces any
    /// previous plan).
    pub(crate) fn set_plan(&mut self, plan: FaultPlan) {
        plan.validate();
        self.plan = plan;
    }

    /// Installs the quarantine policy (construction-time config; replaces
    /// any previous policy).
    pub(crate) fn set_policy(&mut self, policy: QuarantinePolicy) {
        assert!(policy.norm_limit > 0.0, "norm_limit must be positive");
        assert!(policy.evict_after >= 1, "evict_after must be >= 1");
        assert!((0.0..=1.0).contains(&policy.staleness_decay), "staleness_decay outside [0, 1]");
        self.policy = policy;
    }

    /// Installs the churn plan (construction-time config; replaces any
    /// previous plan).
    pub fn set_churn(&mut self, churn: ChurnPlan) {
        self.enrolled = churn.enrolled_count(0, self.clients.len());
        self.churn = churn;
    }

    /// Installs the Byzantine attack schedule (construction-time config,
    /// like [`Self::set_churn`]; replaces any previous plan) and caches
    /// coalition membership.
    pub fn set_attack(&mut self, attack: AttackPlan) {
        attack.validate();
        self.adversary.clear();
        self.adversary.extend((0..self.clients.len()).map(|i| attack.is_adversary(i)));
        self.attack = attack;
    }

    /// The most recent gate/screen rejection as a structured error, or
    /// `None` if every upload so far was accepted. Gives callers the
    /// *reason* an upload was thrown out instead of a bare quarantine
    /// count.
    pub fn last_rejection(&self) -> Option<crate::FedError> {
        self.last_rejection.map(|(round, client, reason)| crate::FedError::Quarantine {
            round,
            client,
            reason,
        })
    }

    /// Enrolled-client count of the latest [`Self::begin_round`].
    pub fn enrolled_now(&self) -> usize {
        self.enrolled
    }

    /// Routes fault/quarantine counters to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Registers a newly joined client (healthy; coalition membership is
    /// derived from the attack plan like everyone else's).
    pub fn add_client(&mut self) {
        let i = self.clients.len();
        self.clients.push(ClientFault::default());
        self.adversary.push(self.attack.is_adversary(i));
        self.enrolled += 1;
    }

    /// Whether the gate has evicted client `i`.
    pub fn is_evicted(&self, i: usize) -> bool {
        self.clients[i].evicted
    }

    /// Per-client bookkeeping, for checkpointing and inspection.
    pub fn client_states(&self) -> &[ClientFault] {
        &self.clients
    }

    /// Restores bookkeeping captured via [`Self::client_states`].
    ///
    /// # Panics
    /// If the client count disagrees.
    pub fn restore_client_states(&mut self, states: Vec<ClientFault>) {
        assert_eq!(states.len(), self.clients.len(), "fault state: client count mismatch");
        self.clients = states;
    }

    /// Decides every client's connectivity for `round`, advancing straggler
    /// countdowns and emitting `fed/dropouts` / `fed/stragglers` counters
    /// (plus `fed/joins` / `fed/leaves` on churn transitions).
    pub fn begin_round(&mut self, round: usize) -> Vec<Presence> {
        let mut out = Vec::with_capacity(self.clients.len());
        self.begin_round_into(round, &mut out);
        out
    }

    /// [`Self::begin_round`] into a reusable buffer — what the runners'
    /// pooled aggregation paths call, allocation-free once `out`'s capacity
    /// covers the cohort.
    pub fn begin_round_into(&mut self, round: usize, out: &mut Vec<Presence>) {
        let n = self.clients.len();
        out.clear();
        let mut enrolled = 0usize;
        for i in 0..n {
            // Churn is resolved before any fault state: an unenrolled client
            // is simply not part of the cohort — its straggle countdown does
            // not tick and no failure counters fire.
            let in_cohort = self.churn.enrolled(round, i);
            let was_in_cohort = if round == 0 {
                self.churn.initially_enrolled(i)
            } else {
                self.churn.enrolled(round - 1, i)
            };
            match (was_in_cohort, in_cohort) {
                (false, true) => self.telemetry.counter("fed/joins", 1),
                (true, false) => self.telemetry.counter("fed/leaves", 1),
                _ => {}
            }
            if !in_cohort {
                out.push(Presence::Absent(AbsenceReason::NotEnrolled));
                continue;
            }
            enrolled += 1;
            let c = &mut self.clients[i];
            if c.evicted {
                out.push(Presence::Absent(AbsenceReason::Evicted));
                continue;
            }
            if c.straggle_left > 0 {
                c.straggle_left -= 1;
                out.push(Presence::Absent(AbsenceReason::Straggling));
                continue;
            }
            match self.plan.event(round, i) {
                Some(FaultEvent::Dropout) => {
                    self.telemetry.counter("fed/dropouts", 1);
                    out.push(Presence::Absent(AbsenceReason::Dropout));
                }
                Some(FaultEvent::Straggle { rounds }) => {
                    self.telemetry.counter("fed/stragglers", 1);
                    c.straggle_left = rounds - 1;
                    out.push(Presence::Absent(AbsenceReason::Straggling));
                }
                Some(FaultEvent::CorruptUpload(kind)) => {
                    out.push(Presence::Present { corrupt: Some(kind), stale_age: 0 })
                }
                Some(FaultEvent::StaleParams { age }) => {
                    out.push(Presence::Present { corrupt: None, stale_age: age })
                }
                None => out.push(Presence::Present { corrupt: None, stale_age: 0 }),
            }
        }
        self.enrolled = enrolled;
        if self.attack.is_active() {
            let coalition =
                (0..n).filter(|&i| self.adversary[i] && self.churn.enrolled(round, i)).count();
            self.telemetry.gauge("fed/attack_coalition_size", coalition as f64);
        }
    }

    /// Records that client `i` contributed nothing this round (absent, or
    /// quarantined with no fallback).
    pub fn note_missed(&mut self, i: usize) {
        self.clients[i].missed_rounds += 1;
    }

    /// Records that client `i`'s replica was refreshed by a broadcast (its
    /// next upload is not stale even though it did not contribute).
    pub fn note_refreshed(&mut self, i: usize) {
        self.clients[i].missed_rounds = 0;
    }

    /// Runs one upload through injection + the quarantine gate.
    ///
    /// `presence` must be the `Present` entry [`Self::begin_round`]
    /// returned for this client. Returns the upload to aggregate (fresh,
    /// stale-substituted, or the last-known-good fallback), or `None` when
    /// the round contributes nothing (quarantined with no fallback).
    pub fn gate_upload(
        &mut self,
        round: usize,
        client: usize,
        mut streams: Vec<Vec<f32>>,
        presence: Presence,
    ) -> Option<AcceptedUpload> {
        let (corrupt, stale_age) = match presence {
            Presence::Present { corrupt, stale_age } => (corrupt, stale_age),
            Presence::Absent(_) => panic!("gate_upload on an absent client"),
        };

        // Injection: Byzantine crafting happens first — the adversary
        // poisons what it *sends*, and network-level staleness/corruption
        // then act on the crafted upload like on any honest one. (A stale
        // delivery below substitutes a history entry that was itself
        // poisoned when first accepted, so no double application.)
        if self.attack.is_active() && self.adversary[client] {
            self.attack.poison(round, client, &mut streams);
            self.telemetry.counter("fed/attacked_uploads", 1);
        }
        // Injection: a delayed packet delivers an old upload instead.
        // `clone_from` writes over the arena-pooled buffers in place, so
        // even injected staleness costs no fresh allocation at steady state.
        if stale_age > 0 {
            let hist = &self.clients[client].history;
            if !hist.is_empty() {
                let idx = hist.len().saturating_sub(stale_age);
                streams.clone_from(&hist[idx]);
                self.telemetry.counter("fed/stale_uploads", 1);
            }
        }
        // Injection: transmission corruption.
        if let Some(kind) = corrupt {
            let seed = SeedStream::new(self.plan.seed)
                .child("corrupt")
                .index(round as u64)
                .index(client as u64)
                .seed();
            corrupt_upload(&mut streams, kind, seed);
        }

        let missed = self.clients[client].missed_rounds;
        let prior_rejections = self.clients[client].rejections;
        match validate_update(&streams, self.policy.norm_limit) {
            Ok(()) => {
                let c = &mut self.clients[client];
                c.rejections = 0;
                c.missed_rounds = 0;
                // Reuse the retained last-good capacity instead of cloning
                // a fresh copy every accepted round.
                match &mut c.last_good {
                    Some(lg) => lg.clone_from(&streams),
                    None => c.last_good = Some(streams.clone()),
                }
                if self.plan.stale > 0.0 {
                    c.history.push_back(streams.clone());
                    while c.history.len() > self.plan.stale_max_age {
                        c.history.pop_front();
                    }
                }
                Some(AcceptedUpload { client, streams, missed_rounds: missed, prior_rejections })
            }
            Err(fault) => {
                self.telemetry.counter("fed/quarantined", 1);
                self.last_rejection = Some((round, client, RejectReason::Gate(fault)));
                let c = &mut self.clients[client];
                c.rejections += 1;
                if c.rejections >= self.policy.evict_after {
                    c.evicted = true;
                    self.telemetry.counter("fed/evictions", 1);
                }
                match &c.last_good {
                    Some(lg) => {
                        self.telemetry.counter("fed/quarantine_fallbacks", 1);
                        // Substitute in place: the rejected upload's pooled
                        // buffers become the fallback contribution.
                        streams.clone_from(lg);
                        Some(AcceptedUpload {
                            client,
                            streams,
                            missed_rounds: missed,
                            prior_rejections,
                        })
                    }
                    None => {
                        c.missed_rounds += 1;
                        None
                    }
                }
            }
        }
    }

    /// Records that a cohort-relative robust screen rejected an
    /// already-gated contribution this round. Feeds the same
    /// rejection/eviction machinery as the absolute gate: the gate's
    /// accept path reset the live counters, so continuity is restored from
    /// the upload's pre-gate snapshot — consecutive per-round screen
    /// rejections accumulate toward eviction, and the structured reason is
    /// surfaced via [`Self::last_rejection`]. (The last-known-good vector
    /// was captured at the absolute gate before the screen ran — a
    /// screened client's fallback may therefore carry its rejected upload;
    /// eviction after `evict_after` consecutive rejections is the
    /// backstop.)
    pub fn note_screened(&mut self, round: usize, upload: &AcceptedUpload, reason: RejectReason) {
        let i = upload.client;
        self.telemetry.counter("fed/screened", 1);
        self.last_rejection = Some((round, i, reason));
        let c = &mut self.clients[i];
        c.rejections = upload.prior_rejections + 1;
        c.missed_rounds = upload.missed_rounds + 1;
        if c.rejections >= self.policy.evict_after {
            c.evicted = true;
            self.telemetry.counter("fed/evictions", 1);
        }
    }

    /// The staleness-weighted re-entry blend weight for a contribution that
    /// arrives after `missed_rounds` silent rounds: `decay^missed`.
    pub fn reentry_weight(&self, missed_rounds: usize) -> f32 {
        self.policy.staleness_decay.powi(missed_rounds as i32)
    }

    /// Observes the round's participation fraction and flags empty rounds.
    /// The denominator is the *currently enrolled* cohort of the latest
    /// [`Self::begin_round`], not the all-time client count — scheduled
    /// churn must not read as dropout.
    pub fn record_participation(&self, accepted: usize) {
        let n = self.enrolled.max(1);
        self.telemetry.observe("fed/participation_fraction", accepted as f64 / n as f64);
        if accepted == 0 {
            self.telemetry.counter("fed/skipped_rounds", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_plan() -> FaultPlan {
        FaultPlan::new(7)
            .with_dropout(0.2)
            .with_straggle(0.1, 3)
            .with_corrupt(0.1)
            .with_stale(0.1, 2)
    }

    #[test]
    fn none_plan_never_fires_and_is_inactive() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for round in 0..50 {
            for client in 0..8 {
                assert_eq!(p.event(round, client), None);
            }
        }
    }

    #[test]
    fn events_are_deterministic_and_seed_sensitive() {
        let a = chaos_plan();
        let b = chaos_plan();
        let c = FaultPlan { seed: 8, ..chaos_plan() };
        let events = |p: &FaultPlan| -> Vec<Option<FaultEvent>> {
            (0..40).flat_map(|r| (0..4).map(move |k| (r, k))).map(|(r, k)| p.event(r, k)).collect()
        };
        assert_eq!(events(&a), events(&b));
        assert_ne!(events(&a), events(&c));
    }

    #[test]
    fn event_rates_roughly_match_probabilities() {
        let p = FaultPlan::new(3).with_dropout(0.25);
        let total = 4000;
        let drops = (0..total).filter(|&r| p.event(r, 0) == Some(FaultEvent::Dropout)).count();
        let frac = drops as f64 / total as f64;
        assert!((frac - 0.25).abs() < 0.03, "dropout rate {frac}");
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overfull_probabilities_rejected() {
        FaultState::new(
            FaultPlan::new(0).with_dropout(0.8).with_corrupt(0.5),
            QuarantinePolicy::default(),
            2,
        );
    }

    #[test]
    fn validate_update_catches_all_corruption_kinds() {
        let ok = vec![vec![0.5f32, -0.5], vec![1.0, 2.0]];
        assert_eq!(validate_update(&ok, 100.0), Ok(()));
        let nan = vec![vec![0.5f32, f32::NAN]];
        assert_eq!(
            validate_update(&nan, 100.0),
            Err(UpdateFault::NonFinite { stream: 0, index: 1 })
        );
        let inf = vec![vec![0.5f32], vec![f32::INFINITY, 0.0]];
        assert_eq!(
            validate_update(&inf, 100.0),
            Err(UpdateFault::NonFinite { stream: 1, index: 0 })
        );
        let blown = vec![vec![2e3f32, 2e3]];
        assert!(matches!(
            validate_update(&blown, 1e3),
            Err(UpdateFault::NormExploded { stream: 0, .. })
        ));
    }

    #[test]
    fn corrupted_upload_quarantined_and_falls_back_to_last_good() {
        let mut fs = FaultState::new(FaultPlan::new(1), QuarantinePolicy::default(), 1);
        let good = vec![vec![1.0f32, 2.0]];
        let healthy = Presence::Present { corrupt: None, stale_age: 0 };
        let poisoned = Presence::Present { corrupt: Some(Corruption::Nan), stale_age: 0 };
        // A clean round records last-known-good.
        let a = fs.gate_upload(0, 0, good.clone(), healthy).unwrap();
        assert_eq!(a.streams, good);
        // A poisoned round is rejected but the last-good vector substitutes.
        let b = fs.gate_upload(1, 0, vec![vec![3.0f32, 4.0]], poisoned).unwrap();
        assert_eq!(b.streams, good);
        assert_eq!(fs.client_states()[0].rejections, 1);
    }

    #[test]
    fn first_round_corruption_with_no_fallback_contributes_nothing() {
        let mut fs = FaultState::new(FaultPlan::new(1), QuarantinePolicy::default(), 1);
        let poisoned = Presence::Present { corrupt: Some(Corruption::Inf), stale_age: 0 };
        assert!(fs.gate_upload(0, 0, vec![vec![1.0f32]], poisoned).is_none());
        assert_eq!(fs.client_states()[0].missed_rounds, 1);
    }

    #[test]
    fn repeated_rejections_evict() {
        let policy = QuarantinePolicy { evict_after: 2, ..Default::default() };
        let mut fs = FaultState::new(FaultPlan::new(1), policy, 1);
        let poisoned = Presence::Present { corrupt: Some(Corruption::NormBlowup), stale_age: 0 };
        for round in 0..2 {
            let _ = fs.gate_upload(round, 0, vec![vec![1.0f32, 1.0]], poisoned);
        }
        assert!(fs.is_evicted(0));
        let presences = fs.begin_round(2);
        assert_eq!(presences[0], Presence::Absent(AbsenceReason::Evicted));
    }

    #[test]
    fn straggle_spans_multiple_rounds_then_reconnects() {
        // Force a straggle by probing rounds until one fires.
        let plan = FaultPlan::new(11).with_straggle(0.5, 3);
        let mut fs = FaultState::new(plan, QuarantinePolicy::default(), 1);
        let mut silent = 0usize;
        let mut reconnected = false;
        for round in 0..30 {
            let p = fs.begin_round(round)[0];
            match p {
                Presence::Absent(AbsenceReason::Straggling) => {
                    silent += 1;
                    fs.note_missed(0);
                }
                Presence::Present { .. } => {
                    if silent > 0 {
                        // Re-entry carries the missed-round count.
                        let got = fs
                            .gate_upload(round, 0, vec![vec![0.1f32]], p)
                            .expect("healthy upload accepted");
                        assert_eq!(got.missed_rounds, silent);
                        reconnected = true;
                        break;
                    }
                    let _ = fs.gate_upload(round, 0, vec![vec![0.1f32]], p);
                }
                Presence::Absent(_) => fs.note_missed(0),
            }
        }
        assert!(reconnected, "no straggle observed in 30 rounds");
    }

    #[test]
    fn stale_event_delivers_an_old_upload() {
        let plan = FaultPlan::new(1).with_stale(0.5, 4);
        let mut fs = FaultState::new(plan, QuarantinePolicy::default(), 1);
        let fresh = Presence::Present { corrupt: None, stale_age: 0 };
        for round in 0..3 {
            let up = vec![vec![round as f32]];
            let a = fs.gate_upload(round, 0, up.clone(), fresh).unwrap();
            assert_eq!(a.streams, up);
        }
        // age 2 → the upload from two accepted rounds back (value 1.0).
        let stale = Presence::Present { corrupt: None, stale_age: 2 };
        let a = fs.gate_upload(3, 0, vec![vec![99.0f32]], stale).unwrap();
        assert_eq!(a.streams, vec![vec![1.0f32]]);
    }

    #[test]
    fn reentry_weight_decays_with_missed_rounds() {
        let fs = FaultState::new(FaultPlan::none(), QuarantinePolicy::default(), 1);
        assert_eq!(fs.reentry_weight(0), 1.0);
        assert_eq!(fs.reentry_weight(1), 0.5);
        assert_eq!(fs.reentry_weight(3), 0.125);
    }

    #[test]
    fn churn_drives_presence_and_enrolled_count() {
        use pfrl_scenario::{ChurnEvent, ChurnKind};
        let mut fs = FaultState::new(FaultPlan::none(), QuarantinePolicy::default(), 3);
        fs.set_churn(ChurnPlan::new(vec![
            ChurnEvent { round: 1, client: 2, kind: ChurnKind::Leave },
            ChurnEvent { round: 3, client: 2, kind: ChurnKind::Join },
        ]));
        assert_eq!(fs.enrolled_now(), 3);
        assert!(fs.begin_round(0).iter().all(Presence::is_present));
        let p1 = fs.begin_round(1);
        assert_eq!(p1[2], Presence::Absent(AbsenceReason::NotEnrolled));
        assert!(p1[0].is_present() && p1[1].is_present());
        assert_eq!(fs.enrolled_now(), 2);
        assert!(fs.begin_round(3)[2].is_present());
        assert_eq!(fs.enrolled_now(), 3);
    }

    #[test]
    fn fault_state_roundtrips_through_snapshot() {
        let mut fs = FaultState::new(chaos_plan(), QuarantinePolicy::default(), 2);
        let healthy = Presence::Present { corrupt: None, stale_age: 0 };
        let _ = fs.gate_upload(0, 0, vec![vec![1.0f32]], healthy);
        fs.note_missed(1);
        let snap = fs.client_states().to_vec();
        let mut fresh = FaultState::new(chaos_plan(), QuarantinePolicy::default(), 2);
        fresh.restore_client_states(snap.clone());
        assert_eq!(fresh.client_states(), &snap[..]);
    }
}
