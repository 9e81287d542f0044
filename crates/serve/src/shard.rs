//! Sharded, wave-batched decision serving with hot-swap version ramps.
//!
//! [`ShardedDecisionService`] is the serving front end; one shard is the
//! single-core deployment and more shards scale it across cores. The
//! design is share-nothing on the hot path:
//!
//! * **Shard ownership** — every session lives in exactly one shard, chosen
//!   at open time by hashing the session's global sequence number. The
//!   session id encodes `(generation, slot, shard)`, so routing a request
//!   touches only arithmetic plus that one shard's lock; there are no
//!   cross-shard locks anywhere on the decision path.
//! * **Per-shard admission queues** — [`submit`](ShardedDecisionService::submit)
//!   enqueues into the owning shard or rejects with explicit backpressure
//!   ([`ServeError::Overloaded`], never silent buffering).
//! * **Wave batching** — a worker draining a shard pops up to `max_batch`
//!   requests in arrival order, groups them by policy *plan* (one per
//!   distinct `(client, version)` snapshot and fleet), fills one state
//!   matrix per plan, and runs a **single batched GEMM** per plan instead
//!   of one matvec per session. A plan holds the shard's only copy of its
//!   policy's weights; a session keeps just its environment [`Mirror`].
//!   Per output element the kernel accumulates in the same order as the
//!   single-row path, so a wave-batched decision is bit-identical to
//!   [`Session::decide`](crate::Session::decide) — the equivalence suite
//!   at `tests/policy_serving.rs` asserts this for every algorithm.
//! * **Merged ledger** — each shard keeps plain `u64` counters; the
//!   [`ledger`](ShardedDecisionService::ledger) sums them into one
//!   [`ServeLedger`] whose invariant (`admitted = decisions + stale +
//!   still-queued`) the stress suite checks exactly. With telemetry on, the
//!   `serve/admitted`, `serve/rejected`, `serve/decisions` and
//!   `serve/stale` counters balance the same way.
//!
//! # Hot-swap ramp state machine
//!
//! [`publish`](ShardedDecisionService::publish) starts a *version ramp*
//! for one client:
//!
//! ```text
//!            validate fails                    non-finite shadow logits
//! publish ──────────────────► RolledBack ◄──────────────────┐
//!    │                                                      │
//!    └────► Shadow ── shadow_ok ≥ target (CAS) ──► Committed│
//!              │                                            │
//!              └────────────────────────────────────────────┘
//! ```
//!
//! While `Shadow`, the candidate decides *in shadow*: each wave that
//! serves the ramped client also runs the candidate actor over the same
//! state matrix and checks every logit is finite — the serving invariant
//! the eval gate enforces offline. The old snapshot keeps serving. Once
//! the candidate has shadowed `shadow_target` decisions the ramp commits
//! (a single atomic CAS); every shard cuts over at its next wave boundary,
//! after which no decision carries a retired version. A session opened
//! after the commit starts on it. A non-finite shadow logit (or invalid
//! candidate parameters at publish time) rolls the ramp back
//! automatically — serving traffic never sees the poisoned snapshot.
//!
//! Waves never copy a candidate that a shard was ready for.
//! [`publish`](ShardedDecisionService::publish) loads it outside every
//! shard lock: one network per shard and per fleet that the client's
//! stored snapshots mirror, folded for that fleet, each refilled from the
//! shard's spares when it has one. A shard's first wave after the publish
//! moves these into its plans' shadow slots, and its cutover swaps each
//! plan's shadow actor with its serving actor ([`Mlp::swap_weights`],
//! O(1)). Settling a ramp hands every shadow actor (after a commit, the
//! retired weights) back to the shard's spares for the next publish to
//! refill. Only a plan that never loaded the ramp copies its parameters:
//! on a shard that never held the ramp, a plan created mid-ramp, or a
//! second plan on one fleet.

use crate::session::{build_actor, Decision, Mirror};
use crate::store::PolicyStore;
use pfrl_fed::PolicySnapshot;
use pfrl_nn::Mlp;
use pfrl_sim::EpisodeMetrics;
use pfrl_telemetry::Telemetry;
use pfrl_tensor::Matrix;
use pfrl_workloads::TaskSpec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Opaque handle to an open serving session.
pub type SessionId = u64;

/// Errors surfaced by the serving front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request queue is at capacity; the caller must back off.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// No snapshot exists for the requested client (or client/version).
    UnknownPolicy(String),
    /// The session id does not name an open session.
    UnknownSession(SessionId),
    /// A hot-swap version ramp could not be started (another ramp is
    /// still shadowing, or the candidate's shape disagrees with the
    /// serving fleet). See [`ShardedDecisionService::publish`].
    RampRejected(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            ServeError::UnknownPolicy(who) => write!(f, "no policy snapshot for {who}"),
            ServeError::UnknownSession(id) => write!(f, "no open session {id}"),
            ServeError::RampRejected(why) => write!(f, "version ramp rejected: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

const SHARD_BITS: u32 = 8;
const SLOT_BITS: u32 = 28;
const SHARD_MASK: u64 = (1 << SHARD_BITS) - 1;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

fn make_id(generation: u64, slot: usize, shard: usize) -> SessionId {
    (generation << (SHARD_BITS + SLOT_BITS)) | ((slot as u64) << SHARD_BITS) | shard as u64
}

fn shard_of(id: SessionId) -> usize {
    (id & SHARD_MASK) as usize
}

fn slot_of(id: SessionId) -> usize {
    ((id >> SHARD_BITS) & SLOT_MASK) as usize
}

fn generation_of(id: SessionId) -> u64 {
    id >> (SHARD_BITS + SLOT_BITS)
}

/// SplitMix64 finalizer — maps the open-order sequence number to a shard
/// uniformly, so adversarial open orders cannot pile sessions onto one
/// shard.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sizing knobs for the sharded front end.
#[derive(Debug, Clone, Copy)]
pub struct ShardedServeConfig {
    /// Number of shards (≤ 256). One worker core per shard is the
    /// intended deployment; shards share nothing on the decision path.
    pub shards: usize,
    /// Per-shard admission queue capacity.
    pub queue_capacity: usize,
    /// Maximum decisions per wave (per shard drain call).
    pub max_batch: usize,
}

impl Default for ShardedServeConfig {
    fn default() -> Self {
        Self { shards: 4, queue_capacity: 256, max_batch: 32 }
    }
}

/// Merged serving ledger, summed over all shards. The books must balance:
/// `admitted == decisions + stale + queued` at any quiescent point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeLedger {
    /// Requests accepted into an admission queue.
    pub admitted: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Admitted requests dropped (session closed or episode done).
    pub stale: u64,
    /// Decisions actually served.
    pub decisions: u64,
    /// Requests admitted but not yet drained.
    pub queued: u64,
    /// Sessions opened over the service lifetime.
    pub opened: u64,
    /// Sessions closed over the service lifetime.
    pub closed: u64,
}

/// Ramp lifecycle states (see the module docs for the state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RampStatus {
    /// Candidate is deciding in shadow; the old snapshot serves.
    Shadow,
    /// Candidate committed; shards cut over at their next wave boundary.
    Committed,
    /// Candidate was rejected by validation or shadow evaluation.
    RolledBack,
}

const RAMP_SHADOW: u8 = 0;
const RAMP_COMMITTED: u8 = 1;
const RAMP_ROLLED_BACK: u8 = 2;

/// Shared core of one version ramp. Shards hold an `Arc` and drive the
/// state machine with CAS transitions; the publisher watches it through a
/// [`RampHandle`].
struct RampCore {
    client: String,
    version: u64,
    sizes: [usize; 3],
    params: Vec<f32>,
    /// The candidate as `publish` loaded it: `(shard, network)` pairs, one
    /// per shard and fleet, each folded for its fleet. A shard takes its
    /// own when it takes the ramp; the next publish reclaims the rest.
    prepared: Mutex<Vec<(usize, Mlp)>>,
    shadow_target: u64,
    shadow_ok: AtomicU64,
    state: AtomicU8,
}

impl RampCore {
    fn status(&self) -> RampStatus {
        match self.state.load(Ordering::Acquire) {
            RAMP_SHADOW => RampStatus::Shadow,
            RAMP_COMMITTED => RampStatus::Committed,
            _ => RampStatus::RolledBack,
        }
    }

    /// CAS `Shadow → to`; returns whether this caller won the transition.
    fn transition(&self, to: u8) -> bool {
        self.state.compare_exchange(RAMP_SHADOW, to, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }
}

/// Publisher-side view of a ramp started by
/// [`ShardedDecisionService::publish`].
pub struct RampHandle {
    core: Arc<RampCore>,
}

impl RampHandle {
    /// Current lifecycle state.
    pub fn status(&self) -> RampStatus {
        self.core.status()
    }

    /// Decisions the candidate has shadowed so far.
    pub fn shadowed(&self) -> u64 {
        self.core.shadow_ok.load(Ordering::Relaxed)
    }

    /// Version the ramp is promoting to.
    pub fn version(&self) -> u64 {
        self.core.version
    }
}

/// One policy plan: the batched actor for every session of a shard that
/// pins the same `(client, version)` snapshot and mirrors the same fleet,
/// plus that plan's wave buffers. The plan's actor is the shard's only
/// copy of those weights, its input layer folded for that fleet
/// ([`Mlp::live_inputs`]), and its version is the version every member
/// decision carries.
struct Plan {
    client: String,
    version: u64,
    sizes: [usize; 3],
    actor: Mlp,
    /// The shard's ramp candidate and its layer sizes, folded like `actor`,
    /// while the ramp shadows this plan. The cutover swaps it with `actor`;
    /// settling the ramp hands it to the shard's spares.
    shadow: Option<Spare>,
    /// Slots of this plan's members in the wave being assembled.
    rows: Vec<usize>,
    states: Matrix,
    logits: Matrix,
}

/// A network and its layer sizes, free for a publish to load a candidate
/// into.
type Spare = ([usize; 3], Mlp);

/// `core`'s candidate folded for the fleet whose live state columns are
/// `live`: a spare of its shape refilled, or a new network if `spares`
/// holds none.
fn candidate_actor(core: &RampCore, live: &[usize], spares: &mut Vec<Spare>) -> Mlp {
    match spares.iter().rposition(|(sizes, _)| *sizes == core.sizes) {
        Some(i) => {
            let (_, mut actor) = spares.swap_remove(i);
            actor.set_flat_params_folded(&core.params, live);
            actor
        }
        None => build_actor(&core.sizes, &core.params, live),
    }
}

struct Entry {
    generation: u64,
    plan: usize,
    in_wave: bool,
    mirror: Mirror,
}

#[derive(Default)]
struct Counters {
    admitted: u64,
    rejected: u64,
    stale: u64,
    decisions: u64,
    opened: u64,
    closed: u64,
}

/// One shard: slab of owned sessions, admission queue, plans, scratch.
struct Shard {
    slots: Vec<Option<Entry>>,
    /// Next generation per slot; bumped on close so stale ids miss.
    slot_generation: Vec<u64>,
    free: Vec<usize>,
    queue: VecDeque<SessionId>,
    plans: Vec<Plan>,
    /// Wave scratch: `(id, slot, plan, row-within-plan)` in arrival order.
    wave: Vec<(SessionId, usize, usize, usize)>,
    mask_tmp: Vec<bool>,
    counters: Counters,
    /// Ramp epoch this shard has synchronized with.
    seen_epoch: u64,
    ramp: Option<Arc<RampCore>>,
    ramp_logits: Matrix,
}

impl Shard {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            slot_generation: Vec::new(),
            free: Vec::new(),
            queue: VecDeque::new(),
            plans: Vec::new(),
            wave: Vec::new(),
            mask_tmp: Vec::new(),
            counters: Counters::default(),
            seen_epoch: 0,
            ramp: None,
            ramp_logits: Matrix::zeros(0, 0),
        }
    }

    fn entry_mut(&mut self, id: SessionId) -> Option<&mut Entry> {
        let generation = generation_of(id);
        self.slots.get_mut(slot_of(id))?.as_mut().filter(|e| e.generation == generation)
    }

    /// Index of the plan for `(client, version)` on the fleet whose live
    /// state columns are `live`, creating it with `params` if this shard
    /// has not seen that policy on that fleet yet. Plans are few (one per
    /// distinct live snapshot and fleet), so a linear scan beats a map.
    fn plan_index(
        &mut self,
        client: &str,
        version: u64,
        sizes: [usize; 3],
        params: &[f32],
        live: &[usize],
        spares: &Mutex<Vec<Spare>>,
    ) -> usize {
        let found = self.plans.iter().position(|p| {
            p.version == version && p.client == client && p.actor.live_inputs() == live
        });
        if let Some(i) = found {
            return i;
        }
        let mut plan = Plan {
            client: client.to_string(),
            version,
            sizes,
            actor: build_actor(&sizes, params, live),
            shadow: None,
            rows: Vec::new(),
            states: Matrix::zeros(0, 0),
            logits: Matrix::zeros(0, 0),
        };
        if let Some(core) = self.ramp.as_ref().filter(|c| plan.shadowed_by(c)) {
            let spares = &mut spares.lock().expect("spares lock poisoned");
            let actor = candidate_actor(core, plan.actor.live_inputs(), spares);
            plan.shadow = Some((core.sizes, actor));
        }
        self.plans.push(plan);
        self.plans.len() - 1
    }

    /// Reacts to the shard's ramp reaching a terminal state, the cutover
    /// point for this shard: a committed ramp swaps each shadow actor with
    /// its plan's actor, and every shadow actor goes to `spares` — after a
    /// commit holding the retired weights, after a rollback the candidate.
    fn settle_ramp(&mut self, spares: &Mutex<Vec<Spare>>) {
        let Some(core) = self.ramp.take_if(|c| c.status() != RampStatus::Shadow) else {
            return;
        };
        let committed = core.status() == RampStatus::Committed;
        let mut spares = spares.lock().expect("spares lock poisoned");
        for plan in &mut self.plans {
            // `publish` admits only candidates shaped like every stored
            // snapshot of their client, so the swapped networks share `sizes`.
            let Some((sizes, mut shadow)) = plan.shadow.take() else { continue };
            if committed {
                plan.actor.swap_weights(&mut shadow);
                plan.version = core.version;
            }
            spares.push((sizes, shadow));
        }
        drop(spares);
        if committed {
            self.apply_commit(&core);
        }
    }

    /// Applies a committed ramp to the plans that did not shadow it: every
    /// plan of the ramped client at an older version copies the candidate
    /// parameters, and with them every member session adopts it.
    /// Idempotent: a ramp this shard already applied changes nothing.
    fn apply_commit(&mut self, core: &RampCore) {
        for plan in self.plans.iter_mut().filter(|p| p.shadowed_by(core)) {
            plan.actor.set_flat_params(&core.params);
            plan.version = core.version;
        }
    }

    /// Takes `core` as shard `shard`'s ramp and gives every plan it
    /// shadows a shadow actor holding the candidate: the network `publish`
    /// prepared for this shard and the plan's fleet, or, for a second plan
    /// on one fleet, a copy (a plan created later gets one in
    /// [`Shard::plan_index`]).
    fn take_ramp(&mut self, core: Arc<RampCore>, shard: usize, spares: &Mutex<Vec<Spare>>) {
        let mut prepared = core.prepared.lock().expect("prepared lock poisoned");
        for plan in self.plans.iter_mut().filter(|p| p.shadowed_by(&core)) {
            let live = plan.actor.live_inputs();
            let ready = prepared.iter().position(|(s, a)| *s == shard && a.live_inputs() == live);
            let actor = match ready {
                Some(i) => prepared.swap_remove(i).1,
                None => {
                    candidate_actor(&core, live, &mut spares.lock().expect("spares lock poisoned"))
                }
            };
            plan.shadow = Some((core.sizes, actor));
        }
        drop(prepared);
        self.ramp = Some(core);
    }
}

impl Plan {
    /// Whether a ramp of `core` shadows this plan's sessions: they serve
    /// an older version of the ramped client.
    fn shadowed_by(&self, core: &RampCore) -> bool {
        self.client == core.client && self.version < core.version
    }
}

/// The service's view of ramps, guarded by one lock that only publishes and
/// epoch changes take.
#[derive(Default)]
struct RampBoard {
    /// The most recently published (valid) ramp.
    active: Option<Arc<RampCore>>,
    /// Latest committed ramp per client. A shard that ran no wave between
    /// a commit and the next publish never held that ramp; it applies these
    /// when it next syncs, before adopting the newer ramp.
    committed: Vec<Arc<RampCore>>,
}

impl RampBoard {
    /// The newest committed ramp for `client` above `version`, counting
    /// the active ramp once it has committed.
    fn latest_commit(&self, client: &str, version: u64) -> Option<Arc<RampCore>> {
        let active = self.active.iter().filter(|c| c.status() == RampStatus::Committed);
        active
            .chain(&self.committed)
            .filter(|c| c.client == client && c.version > version)
            .max_by_key(|c| c.version)
            .cloned()
    }

    /// Remembers `core` (already committed) as its client's latest commit.
    fn record_commit(&mut self, core: Arc<RampCore>) {
        match self.committed.iter_mut().find(|c| c.client == core.client) {
            Some(c) if c.version < core.version => *c = core,
            Some(_) => {}
            None => self.committed.push(core),
        }
    }
}

/// The sharded serving front end. `&self` everywhere: the service is
/// `Sync` and one worker thread per shard drains waves concurrently.
pub struct ShardedDecisionService {
    store: PolicyStore,
    cfg: ShardedServeConfig,
    shards: Vec<Mutex<Shard>>,
    /// Per shard, networks that settled ramps handed back; `publish` loads
    /// candidates into them. Lock order: shard, ramp board, spares.
    spares: Vec<Mutex<Vec<Spare>>>,
    next_seq: AtomicU64,
    /// Bumped on publish; shards lazily pick up the new ramp at wave start.
    ramp_epoch: AtomicU64,
    ramp: Mutex<RampBoard>,
    telemetry: Telemetry,
}

impl ShardedDecisionService {
    /// Builds a sharded service over an immutable snapshot store.
    pub fn new(store: PolicyStore, cfg: ShardedServeConfig) -> Self {
        assert!(cfg.shards >= 1 && cfg.shards <= 1 << SHARD_BITS, "1..=256 shards");
        assert!(cfg.queue_capacity >= 1, "queue_capacity must be >= 1");
        assert!(cfg.max_batch >= 1, "max_batch must be >= 1");
        Self {
            store,
            cfg,
            shards: (0..cfg.shards).map(|_| Mutex::new(Shard::new())).collect(),
            spares: (0..cfg.shards).map(|_| Mutex::default()).collect(),
            next_seq: AtomicU64::new(0),
            ramp_epoch: AtomicU64::new(0),
            ramp: Mutex::new(RampBoard::default()),
            telemetry: Telemetry::noop(),
        }
    }

    /// Routes serving metrics to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &PolicyStore {
        &self.store
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[shard].lock().expect("shard lock poisoned")
    }

    /// Locks the shard that owns `id`; an id naming no shard names no session.
    fn owner(&self, id: SessionId) -> Result<std::sync::MutexGuard<'_, Shard>, ServeError> {
        let shard = self.shards.get(shard_of(id)).ok_or(ServeError::UnknownSession(id))?;
        Ok(shard.lock().expect("shard lock poisoned"))
    }

    /// Opens a session mirroring `snap`'s environment, served by `ramp`'s
    /// parameters when given and by `snap`'s otherwise.
    fn install(&self, snap: &PolicySnapshot, ramp: Option<Arc<RampCore>>) -> SessionId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let shard_idx = (splitmix64(seq) % self.cfg.shards as u64) as usize;
        let mirror = Mirror::new(snap);
        let live = mirror.live_columns();
        let (client, version, sizes, params) = match &ramp {
            Some(c) => (&c.client, c.version, c.sizes, &c.params),
            None => (&snap.client, snap.version, snap.sizes(), &snap.actor_params),
        };
        let mut shard = self.lock(shard_idx);
        let plan = shard.plan_index(client, version, sizes, params, live, &self.spares[shard_idx]);
        let slot = match shard.free.pop() {
            Some(s) => s,
            None => {
                shard.slots.push(None);
                shard.slot_generation.push(0);
                shard.slots.len() - 1
            }
        };
        assert!((slot as u64) <= SLOT_MASK, "slot space exhausted");
        let generation = shard.slot_generation[slot];
        shard.slots[slot] = Some(Entry { generation, plan, in_wave: false, mirror });
        shard.counters.opened += 1;
        drop(shard);
        self.telemetry.counter("serve/sessions_opened", 1);
        make_id(generation, slot, shard_idx)
    }

    /// Opens a session on the latest version of `client`: its newest
    /// committed ramp if one is newer than the store's latest snapshot.
    pub fn open_session(&self, client: &str) -> Result<SessionId, ServeError> {
        let snap = self
            .store
            .latest(client)
            .ok_or_else(|| ServeError::UnknownPolicy(client.to_string()))?;
        let ramp =
            self.ramp.lock().expect("ramp lock poisoned").latest_commit(client, snap.version);
        Ok(self.install(snap, ramp))
    }

    /// Opens a session pinned to an exact `(client, version)` snapshot.
    pub fn open_session_at(&self, client: &str, version: u64) -> Result<SessionId, ServeError> {
        let snap = self
            .store
            .get(client, version)
            .ok_or_else(|| ServeError::UnknownPolicy(format!("{client}@v{version}")))?;
        Ok(self.install(snap, None))
    }

    /// Closes a session; queued requests for it become stale.
    pub fn close_session(&self, id: SessionId) -> Result<(), ServeError> {
        let mut shard = self.owner(id)?;
        let slot = slot_of(id);
        if shard.entry_mut(id).is_none() {
            return Err(ServeError::UnknownSession(id));
        }
        shard.slots[slot] = None;
        shard.slot_generation[slot] += 1;
        shard.free.push(slot);
        shard.counters.closed += 1;
        Ok(())
    }

    /// Starts a new episode over `tasks` on session `id`.
    pub fn begin_episode(&self, id: SessionId, tasks: &[TaskSpec]) -> Result<(), ServeError> {
        let mut shard = self.owner(id)?;
        let entry = shard.entry_mut(id).ok_or(ServeError::UnknownSession(id))?;
        entry.mirror.begin_episode(tasks);
        Ok(())
    }

    /// Runs `f` against the session's mirror (episode metrics, identity, …).
    pub fn with_session<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&Mirror) -> R,
    ) -> Result<R, ServeError> {
        let mut shard = self.owner(id)?;
        let entry = shard.entry_mut(id).ok_or(ServeError::UnknownSession(id))?;
        Ok(f(&entry.mirror))
    }

    /// Metrics of the session's current episode.
    pub fn metrics(&self, id: SessionId) -> Result<EpisodeMetrics, ServeError> {
        self.with_session(id, |s| s.metrics())
    }

    /// Admits one decision request into the owning shard's queue, or
    /// rejects it with explicit backpressure.
    pub fn submit(&self, id: SessionId) -> Result<(), ServeError> {
        let mut shard = self.owner(id)?;
        if shard.entry_mut(id).is_none() {
            return Err(ServeError::UnknownSession(id));
        }
        if shard.queue.len() >= self.cfg.queue_capacity {
            shard.counters.rejected += 1;
            drop(shard);
            self.telemetry.counter("serve/rejected", 1);
            return Err(ServeError::Overloaded { capacity: self.cfg.queue_capacity });
        }
        shard.queue.push_back(id);
        shard.counters.admitted += 1;
        drop(shard);
        self.telemetry.counter("serve/admitted", 1);
        Ok(())
    }

    /// Admits a batch of requests, returning how many were accepted.
    ///
    /// The owning shard is locked once per **run** of consecutive ids on
    /// the same shard — producers that keep per-shard batches (ids sort
    /// stably by their shard) pay one lock per shard per call instead of
    /// one per request. Requests that hit a full queue or name a dead
    /// session are not admitted and are counted as rejected; an id that
    /// names no shard is not admitted and no shard's ledger counts it.
    pub fn submit_many(&self, ids: &[SessionId]) -> usize {
        let mut admitted = 0usize;
        let mut i = 0;
        while i < ids.len() {
            let shard_idx = shard_of(ids[i]);
            let Some(shard) = self.shards.get(shard_idx) else {
                i += 1;
                continue;
            };
            let mut shard = shard.lock().expect("shard lock poisoned");
            while i < ids.len() && shard_of(ids[i]) == shard_idx {
                let id = ids[i];
                i += 1;
                if shard.entry_mut(id).is_none() || shard.queue.len() >= self.cfg.queue_capacity {
                    shard.counters.rejected += 1;
                    continue;
                }
                shard.queue.push_back(id);
                shard.counters.admitted += 1;
                admitted += 1;
            }
        }
        if self.telemetry.is_enabled() {
            self.telemetry.counter("serve/admitted", admitted as u64);
            if admitted < ids.len() {
                self.telemetry.counter("serve/rejected", (ids.len() - admitted) as u64);
            }
        }
        admitted
    }

    /// Admitted-but-unserved requests across all shards.
    pub fn queue_depth(&self) -> usize {
        (0..self.cfg.shards).map(|s| self.lock(s).queue.len()).sum()
    }

    /// Ledger merged over all shards.
    pub fn ledger(&self) -> ServeLedger {
        let mut out = ServeLedger::default();
        for s in 0..self.cfg.shards {
            let shard = self.lock(s);
            out.admitted += shard.counters.admitted;
            out.rejected += shard.counters.rejected;
            out.stale += shard.counters.stale;
            out.decisions += shard.counters.decisions;
            out.queued += shard.queue.len() as u64;
            out.opened += shard.counters.opened;
            out.closed += shard.counters.closed;
        }
        out
    }

    /// Drains one wave from `shard` (up to `max_batch` requests) and
    /// appends `(session, decision)` pairs in arrival order to `out`.
    ///
    /// The wave is assembled so each session decides at most once per
    /// wave (a repeated id stops collection and stays queued — its second
    /// decision must see the first one's environment transition). All
    /// member observations are gathered first, then **one batched GEMM per
    /// plan** computes every member's logits, then masks/argmax/steps run
    /// in arrival order. Steady-state the call allocates nothing: plans,
    /// queue, and scratch persist in the shard (audited by
    /// `tests/zero_alloc.rs`).
    pub fn decide_wave_into(&self, shard_idx: usize, out: &mut Vec<(SessionId, Decision)>) {
        let mut shard = self.lock(shard_idx);
        let shard = &mut *shard;
        self.sync_ramp(shard, shard_idx);

        // Collect the wave: pop → resolve → one-decision-per-session.
        shard.wave.clear();
        let mut stale = 0;
        while shard.wave.len() < self.cfg.max_batch {
            let Some(id) = shard.queue.pop_front() else { break };
            let slot = slot_of(id);
            let generation = generation_of(id);
            let live = shard
                .slots
                .get(slot)
                .is_some_and(|s| s.as_ref().is_some_and(|e| e.generation == generation));
            if !live {
                stale += 1;
                continue;
            }
            let entry = shard.slots[slot].as_mut().expect("checked live");
            if entry.mirror.is_done() {
                stale += 1;
                continue;
            }
            if entry.in_wave {
                shard.queue.push_front(id);
                break;
            }
            entry.in_wave = true;
            let plan = entry.plan;
            let row = shard.plans[plan].rows.len();
            shard.plans[plan].rows.push(slot);
            shard.wave.push((id, slot, plan, row));
        }
        shard.counters.stale += stale;
        if stale > 0 {
            self.telemetry.counter("serve/stale", stale);
        }
        if shard.wave.is_empty() {
            return;
        }

        // Observe every member into its plan's state matrix. Sessions own
        // disjoint environments, so observing all before stepping any is
        // order-equivalent to deciding them one at a time.
        for plan in shard.plans.iter_mut().filter(|p| !p.rows.is_empty()) {
            plan.states.resize(plan.rows.len(), plan.sizes[0]);
        }
        for &(_, slot, plan, row) in &shard.wave {
            let entry = shard.slots[slot].as_ref().expect("wave member present");
            entry.mirror.observe_into(shard.plans[plan].states.row_mut(row));
        }

        // One batched forward per plan; shadow-evaluate an active ramp on
        // the same states. A rollback stops shadowing through the ramp's
        // status, and the next wave settles it.
        let Shard { plans, ramp, ramp_logits, .. } = shard;
        for plan in plans.iter_mut().filter(|p| !p.rows.is_empty()) {
            plan.actor.forward_into(&plan.states, &mut plan.logits);
            let target =
                ramp.as_ref().filter(|c| c.status() == RampStatus::Shadow && plan.shadowed_by(c));
            if let Some(core) = target {
                let (_, actor) = plan.shadow.as_mut().expect("a shadowed plan loads its ramp");
                self.shadow_eval(core, actor, &plan.states, ramp_logits);
            }
        }

        // Finish in arrival order: mask → argmax → step per member.
        for w in 0..shard.wave.len() {
            let (id, slot, plan, row) = shard.wave[w];
            let plan = &mut shard.plans[plan];
            let logits = plan.logits.row_mut(row);
            let entry = shard.slots[slot].as_mut().expect("wave member present");
            let d = entry.mirror.finish(logits, &mut shard.mask_tmp, plan.version);
            entry.in_wave = false;
            out.push((id, d));
        }
        shard.counters.decisions += shard.wave.len() as u64;
        for plan in &mut shard.plans {
            plan.rows.clear();
        }
        let served = shard.wave.len() as u64;
        shard.wave.clear();
        if self.telemetry.is_enabled() {
            self.telemetry.counter("serve/decisions", served);
        }
    }

    /// Allocating convenience over
    /// [`decide_wave_into`](Self::decide_wave_into).
    pub fn decide_wave(&self, shard_idx: usize) -> Vec<(SessionId, Decision)> {
        let mut out = Vec::new();
        self.decide_wave_into(shard_idx, &mut out);
        out
    }

    /// Runs the candidate over the wave's states and drives the ramp state
    /// machine: non-finite logits roll back; enough shadowed decisions
    /// commit.
    fn shadow_eval(&self, core: &RampCore, actor: &mut Mlp, states: &Matrix, logits: &mut Matrix) {
        actor.forward_into(states, logits);
        if logits.as_slice().iter().any(|v| !v.is_finite()) {
            if core.transition(RAMP_ROLLED_BACK) {
                self.telemetry.counter("serve/ramp_rollbacks", 1);
            }
            return;
        }
        let rows = states.rows() as u64;
        let total = core.shadow_ok.fetch_add(rows, Ordering::AcqRel) + rows;
        if total >= core.shadow_target && core.transition(RAMP_COMMITTED) {
            self.telemetry.counter("serve/ramp_committed", 1);
        }
    }

    /// Picks up a newly published ramp and settles terminal ones (see
    /// [`Shard::settle_ramp`]) for shard `idx`. Every commit is applied
    /// *before* a newer publish replaces it — the one this shard held, and
    /// any it never saw because it ran no wave between that commit and the
    /// next publish — so the retired version stops serving here either way.
    /// Between publishes this is one epoch compare.
    fn sync_ramp(&self, shard: &mut Shard, idx: usize) {
        let spares = &self.spares[idx];
        let epoch = self.ramp_epoch.load(Ordering::Acquire);
        if shard.seen_epoch != epoch {
            shard.settle_ramp(spares);
            shard.seen_epoch = epoch;
            let board = self.ramp.lock().expect("ramp lock poisoned");
            for core in &board.committed {
                shard.apply_commit(core);
            }
            match board.active.clone() {
                Some(core) => shard.take_ramp(core, idx, spares),
                None => shard.ramp = None,
            }
        }
        shard.settle_ramp(spares);
    }

    /// Publishes `candidate` as a version ramp for its client: the
    /// candidate decides in shadow until it has matched `shadow_target`
    /// decisions with finite logits, then commits fleet-wide; any
    /// invariant violation rolls it back automatically.
    ///
    /// Returns the handle even when validation fails — the caller
    /// observes the rollback through it — but refuses with
    /// [`ServeError::RampRejected`] if another ramp is still shadowing,
    /// the client is unknown, or the candidate's shape disagrees with one
    /// of the client's stored snapshots.
    ///
    /// A valid candidate is loaded here, before any shard sees the ramp
    /// and without taking a shard lock: for every shard, one network per
    /// fleet that the client's stored snapshots mirror, folded for that
    /// fleet. Each is a spare of that shard refilled, so once a shard has
    /// settled a ramp the load builds no network. The waves only move
    /// these networks; see the module docs.
    pub fn publish(
        &self,
        candidate: &PolicySnapshot,
        shadow_target: u64,
    ) -> Result<RampHandle, ServeError> {
        assert!(shadow_target >= 1, "shadow_target must be >= 1");
        let stored = || self.store.iter().filter(|s| s.client == candidate.client);
        if stored().next().is_none() {
            return Err(ServeError::UnknownPolicy(candidate.client.clone()));
        }
        if let Some(other) = stored().find(|s| s.sizes() != candidate.sizes()) {
            return Err(ServeError::RampRejected(format!(
                "candidate sizes {:?} do not match sizes {:?} of stored version {}",
                candidate.sizes(),
                other.sizes(),
                other.version
            )));
        }
        let mut board = self.ramp.lock().expect("ramp lock poisoned");
        if let Some(active) = board.active.as_ref() {
            if active.status() == RampStatus::Shadow {
                return Err(ServeError::RampRejected(format!(
                    "ramp to {}@v{} still shadowing",
                    active.client, active.version
                )));
            }
        }
        let core = Arc::new(RampCore {
            client: candidate.client.clone(),
            version: candidate.version,
            sizes: candidate.sizes(),
            params: candidate.actor_params.clone(),
            prepared: Mutex::default(),
            shadow_target,
            shadow_ok: AtomicU64::new(0),
            state: AtomicU8::new(RAMP_SHADOW),
        });
        self.telemetry.counter("serve/ramp_published", 1);
        if candidate.validate().is_err() {
            // Poisoned candidate (non-finite parameters, shape lies, …):
            // never instantiated, never shadows — immediate rollback.
            core.state.store(RAMP_ROLLED_BACK, Ordering::Release);
            self.telemetry.counter("serve/ramp_rollbacks", 1);
            return Ok(RampHandle { core });
        }
        // The previous ramp is settled: what no shard took becomes spares.
        if let Some(prev) = &board.active {
            for (s, actor) in prev.prepared.lock().expect("prepared lock poisoned").drain(..) {
                self.spares[s].lock().expect("spares lock poisoned").push((prev.sizes, actor));
            }
        }
        let mut fleets: Vec<Vec<usize>> = Vec::new();
        for snap in stored() {
            let live = pfrl_sim::state::live_columns(&snap.dims, &snap.vms);
            if !fleets.contains(&live) {
                fleets.push(live);
            }
        }
        let mut prepared = Vec::with_capacity(self.spares.len() * fleets.len());
        for (s, spares) in self.spares.iter().enumerate() {
            let spares = &mut spares.lock().expect("spares lock poisoned");
            prepared.extend(fleets.iter().map(|live| (s, candidate_actor(&core, live, spares))));
        }
        *core.prepared.lock().expect("prepared lock poisoned") = prepared;
        if let Some(prev) = board.active.replace(core.clone()) {
            if prev.status() == RampStatus::Committed {
                board.record_commit(prev);
            }
        }
        drop(board);
        self.ramp_epoch.fetch_add(1, Ordering::Release);
        Ok(RampHandle { core })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{tiny_snapshot, tiny_tasks};

    fn sharded(shards: usize) -> ShardedDecisionService {
        let store =
            PolicyStore::from_snapshots(vec![tiny_snapshot("a"), tiny_snapshot("b")]).unwrap();
        ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards, queue_capacity: 64, max_batch: 8 },
        )
    }

    #[test]
    fn id_encoding_roundtrips() {
        let id = make_id(7, 1234, 31);
        assert_eq!(shard_of(id), 31);
        assert_eq!(slot_of(id), 1234);
        assert_eq!(generation_of(id), 7);
    }

    #[test]
    fn sessions_spread_and_serve_across_shards() {
        let svc = sharded(4);
        let ids: Vec<_> = (0..16).map(|_| svc.open_session("a").unwrap()).collect();
        let used: std::collections::BTreeSet<_> = ids.iter().map(|&id| shard_of(id)).collect();
        assert!(used.len() > 1, "16 sessions should span more than one shard");
        for &id in &ids {
            svc.begin_episode(id, &tiny_tasks(6)).unwrap();
            svc.submit(id).unwrap();
        }
        let mut served = 0;
        for s in 0..svc.shards() {
            let wave: Vec<_> = svc.decide_wave(s).into_iter().map(|(id, _)| id).collect();
            let arrivals: Vec<_> = ids.iter().copied().filter(|&id| shard_of(id) == s).collect();
            assert_eq!(wave, arrivals, "shard {s} must serve in arrival order");
            served += wave.len();
        }
        assert_eq!(served, 16);
        let ledger = svc.ledger();
        assert_eq!(ledger.admitted, 16);
        assert_eq!(ledger.decisions, 16);
        assert_eq!(ledger.queued, 0);
    }

    #[test]
    fn stale_and_unknown_ids_are_counted_not_served() {
        let svc = sharded(2);
        assert!(matches!(svc.open_session("nope"), Err(ServeError::UnknownPolicy(_))));
        assert!(matches!(svc.open_session_at("a", 999), Err(ServeError::UnknownPolicy(_))));
        // Shard 42 does not exist, let alone a session on it.
        assert_eq!(svc.submit(42), Err(ServeError::UnknownSession(42)));
        assert_eq!(svc.submit_many(&[42]), 0);
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(4)).unwrap();
        svc.submit(id).unwrap();
        svc.close_session(id).unwrap();
        assert_eq!(svc.submit(id), Err(ServeError::UnknownSession(id)));
        let mut out = Vec::new();
        for s in 0..svc.shards() {
            svc.decide_wave_into(s, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(svc.ledger().stale, 1);
        // The slot is recycled under a fresh generation: the old id
        // still resolves nowhere.
        let id2 = svc.open_session("a").unwrap();
        if shard_of(id2) == shard_of(id) {
            assert_ne!(id, id2);
        }
    }

    #[test]
    fn queue_overflow_rejects_explicitly() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 2, max_batch: 8 },
        );
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(10)).unwrap();
        svc.submit(id).unwrap();
        svc.submit(id).unwrap();
        assert_eq!(svc.submit(id), Err(ServeError::Overloaded { capacity: 2 }));
        assert_eq!(svc.ledger().rejected, 1);
        assert_eq!(svc.queue_depth(), 2);
        // Draining frees capacity again.
        assert_eq!(svc.decide_wave(0).len() + svc.decide_wave(0).len(), 2);
        assert_eq!(svc.queue_depth(), 0);
        svc.submit(id).unwrap();
    }

    #[test]
    fn repeated_session_decides_once_per_wave() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 64, max_batch: 2 },
        );
        let [id, b, c] = [(); 3].map(|_| svc.open_session("a").unwrap());
        for s in [id, b, c] {
            svc.begin_episode(s, &tiny_tasks(10)).unwrap();
        }
        let wave = || svc.decide_wave(0).into_iter().map(|(s, _)| s).collect::<Vec<_>>();
        // A wave never exceeds `max_batch` and serves in arrival order.
        for s in [id, b, c, id] {
            svc.submit(s).unwrap();
        }
        assert_eq!(wave(), [id, b]);
        assert_eq!(wave(), [c, id]);
        assert!(wave().is_empty());
        for _ in 0..3 {
            svc.submit(id).unwrap();
        }
        // One wave serves exactly one decision for the session; the rest
        // stay queued for later waves.
        assert_eq!(svc.decide_wave(0).len(), 1);
        assert_eq!(svc.queue_depth(), 2);
        assert_eq!(svc.decide_wave(0).len(), 1);
        assert_eq!(svc.decide_wave(0).len(), 1);
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn ramp_shadow_commit_upgrades_versions() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 64, max_batch: 8 },
        );
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(30)).unwrap();
        let mut candidate = tiny_snapshot("a");
        candidate.version += 1;
        let ramp = svc.publish(&candidate, 2).unwrap();
        assert_eq!(ramp.status(), RampStatus::Shadow);
        let old_version = tiny_snapshot("a").version;
        // Shadow phase: old version serves while the candidate evaluates.
        let mut shadow_decisions = 0;
        while ramp.status() == RampStatus::Shadow {
            svc.submit(id).unwrap();
            let out = svc.decide_wave(0);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].1.version, old_version);
            shadow_decisions += 1;
            assert!(shadow_decisions < 50, "ramp never committed");
        }
        assert_eq!(ramp.status(), RampStatus::Committed);
        assert!(ramp.shadowed() >= 2);
        // After the cutover wave boundary every decision carries the new
        // version.
        svc.submit(id).unwrap();
        let out = svc.decide_wave(0);
        assert_eq!(out[0].1.version, candidate.version);
    }

    #[test]
    fn session_opened_after_commit_serves_the_committed_version() {
        let store =
            PolicyStore::from_snapshots(vec![tiny_snapshot("a"), tiny_snapshot("b")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 64, max_batch: 8 },
        );
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(30)).unwrap();
        let mut candidate = tiny_snapshot("a");
        candidate.version += 1;
        for p in &mut candidate.actor_params {
            *p = -*p;
        }
        let ramp = svc.publish(&candidate, 1).unwrap();
        // Shadow wave commits, next wave cuts over.
        for _ in 0..2 {
            svc.submit(id).unwrap();
            svc.decide_wave(0);
        }
        assert_eq!(ramp.status(), RampStatus::Committed);
        // Opened while the commit is the active ramp, then after a newer
        // publish has moved it to the committed record.
        let tasks = tiny_tasks(12);
        for publish_next in [false, true] {
            if publish_next {
                let mut next = tiny_snapshot("b");
                next.version += 1;
                svc.publish(&next, 100).unwrap();
            }
            let fresh = svc.open_session("a").unwrap();
            svc.begin_episode(fresh, &tasks).unwrap();
            let mut reference = crate::Session::new(&candidate).unwrap();
            reference.begin_episode(&tasks);
            for _ in 0..5 {
                svc.submit(fresh).unwrap();
                let out = svc.decide_wave(0);
                assert_eq!(out[0].1.version, candidate.version, "retired version served");
                assert_eq!(out[0].1, reference.decide(), "served with retired weights");
            }
        }
    }

    /// One client's snapshots on two fleets. Each plan folds its input
    /// layer for its own fleet; a ramp shadows each plan with a candidate
    /// folded like it, a plan opened mid-ramp included; after a commit a
    /// new session joins the plan of its own fleet.
    #[test]
    fn one_client_on_two_fleets_keeps_each_plans_fold() {
        let serving = tiny_snapshot("a");
        let mut older = tiny_snapshot("a");
        older.version -= 1;
        older.vms = vec![pfrl_sim::VmSpec::new(4, 32.0)];
        let store = PolicyStore::from_snapshots(vec![older.clone(), serving.clone()]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 64, max_batch: 8 },
        );
        let tasks = tiny_tasks(30);
        // The older fleet's plan comes first, so a plan lookup by
        // `(client, version)` alone would put later sessions on its fold.
        let pinned = svc.open_session_at("a", older.version).unwrap();
        let latest = svc.open_session("a").unwrap();
        let mut candidate = serving.clone();
        candidate.version += 1;
        for p in &mut candidate.actor_params {
            *p = -*p;
        }
        // Every session's plan, and the plan's shadow actor, fold for the
        // session's own fleet.
        let folds_agree = || {
            let shard = svc.lock(0);
            for entry in shard.slots.iter().flatten() {
                let plan = &shard.plans[entry.plan];
                assert_eq!(plan.actor.live_inputs(), entry.mirror.live_columns());
                if let Some((_, shadow)) = &plan.shadow {
                    assert_eq!(shadow.live_inputs(), plan.actor.live_inputs());
                }
            }
        };
        let ramp = svc.publish(&candidate, 2).unwrap();
        for id in [pinned, latest] {
            svc.begin_episode(id, &tasks).unwrap();
            svc.submit(id).unwrap();
        }
        assert_eq!(svc.decide_wave(0).len(), 2);
        assert_eq!(ramp.status(), RampStatus::Committed);

        let check = |id: SessionId, want: &PolicySnapshot| {
            svc.begin_episode(id, &tasks).unwrap();
            let mut reference = crate::Session::new(want).unwrap();
            reference.begin_episode(&tasks);
            while !reference.is_done() {
                svc.submit(id).unwrap();
                let out = svc.decide_wave(0);
                assert_eq!(out[0].1, reference.decide(), "{} VMs", want.vms.len());
            }
        };
        let candidate_on_older = PolicySnapshot {
            version: candidate.version,
            actor_params: candidate.actor_params.clone(),
            ..older.clone()
        };
        check(pinned, &candidate_on_older);
        let fresh = svc.open_session("a").unwrap();
        folds_agree();
        check(fresh, &candidate);

        // A plan created while a ramp shadows it loads a candidate folded
        // for its own fleet.
        let mut next = candidate.clone();
        next.version += 1;
        let ramp = svc.publish(&next, 100).unwrap();
        svc.begin_episode(fresh, &tasks).unwrap();
        svc.submit(fresh).unwrap();
        svc.decide_wave(0);
        let late = svc.open_session_at("a", older.version).unwrap();
        svc.begin_episode(late, &tasks).unwrap();
        svc.submit(late).unwrap();
        svc.decide_wave(0);
        folds_agree();
        assert_eq!((ramp.status(), ramp.shadowed()), (RampStatus::Shadow, 2));
    }

    #[test]
    fn publish_right_after_commit_still_cuts_over() {
        let store =
            PolicyStore::from_snapshots(vec![tiny_snapshot("a"), tiny_snapshot("b")]).unwrap();
        let svc = ShardedDecisionService::new(
            store,
            ShardedServeConfig { shards: 1, queue_capacity: 64, max_batch: 8 },
        );
        let id = svc.open_session("a").unwrap();
        svc.begin_episode(id, &tiny_tasks(30)).unwrap();
        let mut candidate = tiny_snapshot("a");
        candidate.version += 1;
        let ramp = svc.publish(&candidate, 1).unwrap();
        // The wave that shadows the candidate commits it; the shard cuts
        // over at its next wave boundary.
        svc.submit(id).unwrap();
        svc.decide_wave(0);
        assert_eq!(ramp.status(), RampStatus::Committed);
        // A new ramp is published before that boundary.
        let mut next = tiny_snapshot("b");
        next.version += 1;
        svc.publish(&next, 100).unwrap();
        for _ in 0..3 {
            svc.submit(id).unwrap();
            let out = svc.decide_wave(0);
            assert_eq!(out[0].1.version, candidate.version, "retired version served");
        }
    }

    #[test]
    fn lagging_shard_applies_a_commit_it_never_saw() {
        let svc = sharded(2);
        // One session of client "a" on each shard.
        let mut on_shard = [None, None];
        while on_shard.iter().any(Option::is_none) {
            let id = svc.open_session("a").unwrap();
            on_shard[shard_of(id)].get_or_insert(id);
        }
        let [lead, lag] = on_shard.map(Option::unwrap);
        for id in [lead, lag] {
            svc.begin_episode(id, &tiny_tasks(30)).unwrap();
        }
        let mut candidate = tiny_snapshot("a");
        candidate.version += 1;
        for p in &mut candidate.actor_params {
            *p = -*p;
        }
        // Where the first-layer weights of the session's plan actor (or of
        // its shadow actor) live.
        let weights_of = |id: SessionId, shadow: bool| {
            let shard = svc.lock(shard_of(id));
            let plan = &shard.plans[shard.slots[slot_of(id)].as_ref().unwrap().plan];
            let actor =
                if shadow { &plan.shadow.as_ref().expect("shadow loaded").1 } else { &plan.actor };
            actor.layers()[0].w.as_slice().as_ptr()
        };
        let ramp = svc.publish(&candidate, 1).unwrap();
        // Only the leading shard runs a wave: it shadows and commits.
        svc.submit(lead).unwrap();
        svc.decide_wave(shard_of(lead));
        assert_eq!(ramp.status(), RampStatus::Committed);
        let shadowed = weights_of(lead, true);
        // A newer ramp is published before the lagging shard's next wave,
        // so that shard never holds the committed ramp itself.
        let mut next = tiny_snapshot("b");
        next.version += 1;
        svc.publish(&next, 100).unwrap();
        for id in [lag, lead] {
            svc.submit(id).unwrap();
            let out = svc.decide_wave(shard_of(id));
            assert_eq!(out[0].1.version, candidate.version, "retired version served");
        }
        // The leading shard cut over by swapping its shadow actor in; the
        // lagging one, which never loaded the ramp, copied the parameters.
        assert_eq!(weights_of(lead, false), shadowed, "the cutover copied the candidate");
        // Whole episodes after the commit, on either path, are a standalone
        // session's on the candidate.
        let tasks = tiny_tasks(30);
        for id in [lead, lag] {
            svc.begin_episode(id, &tasks).unwrap();
            let mut reference = crate::Session::new(&candidate).unwrap();
            reference.begin_episode(&tasks);
            while !reference.is_done() {
                svc.submit(id).unwrap();
                let out = svc.decide_wave(shard_of(id));
                assert_eq!(out[0].1, reference.decide(), "shard {}", shard_of(id));
            }
        }
    }

    #[test]
    fn poisoned_candidate_rolls_back_without_serving() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(store, ShardedServeConfig::default());
        let mut poisoned = tiny_snapshot("a");
        poisoned.version += 1;
        poisoned.actor_params[3] = f32::NAN;
        let ramp = svc.publish(&poisoned, 4).unwrap();
        assert_eq!(ramp.status(), RampStatus::RolledBack);
        assert_eq!(ramp.shadowed(), 0);
        // Finite weights pass validation but overflow in shadow: the ramp
        // rolls back in the wave that shadows it, and the old snapshot's
        // actor, never touched, decides that wave and every later one.
        let old = tiny_snapshot("a");
        let id = svc.open_session("a").unwrap();
        let tasks = tiny_tasks(30);
        svc.begin_episode(id, &tasks).unwrap();
        let mut overflowing = old.clone();
        overflowing.version += 2;
        overflowing.actor_params.fill(f32::MAX);
        let ramp = svc.publish(&overflowing, 4).unwrap();
        let mut reference = crate::Session::new(&old).unwrap();
        reference.begin_episode(&tasks);
        while !reference.is_done() {
            svc.submit(id).unwrap();
            let out = svc.decide_wave(shard_of(id));
            assert_eq!(ramp.status(), RampStatus::RolledBack);
            assert_eq!(out[0].1, reference.decide(), "the rolled-back candidate served");
        }
        assert_eq!(ramp.shadowed(), 0);
        let shard = svc.lock(shard_of(id));
        assert!(shard.plans.iter().all(|p| p.shadow.is_none()), "the shadow actor was kept");
        drop(shard);
        // A fresh, healthy ramp can start immediately afterwards.
        let mut healthy = tiny_snapshot("a");
        healthy.version += 3;
        assert!(svc.publish(&healthy, 1).is_ok());
    }

    #[test]
    fn concurrent_shadow_ramps_are_rejected() {
        let store = PolicyStore::from_snapshots(vec![tiny_snapshot("a")]).unwrap();
        let svc = ShardedDecisionService::new(store, ShardedServeConfig::default());
        let mut c1 = tiny_snapshot("a");
        c1.version += 1;
        svc.publish(&c1, 100).unwrap();
        let mut c2 = tiny_snapshot("a");
        c2.version += 2;
        assert!(matches!(svc.publish(&c2, 1), Err(ServeError::RampRejected(_))));
        // Unknown clients and mismatched shapes are rejected too.
        let mut other = tiny_snapshot("nobody");
        other.version += 1;
        assert!(matches!(svc.publish(&other, 1), Err(ServeError::UnknownPolicy(_))));
    }
}
