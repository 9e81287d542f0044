//! Binary round-checkpoint codec of [`crate::Federation`].
//!
//! `Federation::checkpoint_bytes()` / `restore_checkpoint()` frame every
//! strategy's state with the little-endian [`Writer`]/[`Reader`] pair here, so a killed run can
//! resume mid-schedule and finish with *bit-identical* curves. The format
//! mirrors `pfrl-nn`'s model checkpoint (magic + version prefix, strict
//! length checks, `io::Error` on any malformed input) but additionally
//! fingerprints the federation configuration: restoring into a runner built
//! with a different seed, schedule, or client count is an error, not a
//! silent divergence.

use crate::fault::ClientFault;
use pfrl_nn::{validate_params, AdamState, Mlp};
use pfrl_rl::{BufferSnapshot, DualAgentSnapshot, DualCriticAgent, PpoAgent, PpoAgentSnapshot};
use pfrl_tensor::Matrix;
use std::collections::VecDeque;
use std::io;

/// Magic + format version prefix of every federation checkpoint.
pub(crate) const MAGIC: &[u8; 13] = b"PFRL-FEDCKPT\x01";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian byte sink for checkpoint encoding.
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::with_magic(MAGIC)
    }

    /// A writer for a different container format sharing the same
    /// primitive encoding (e.g. the policy-snapshot codec).
    pub(crate) fn with_magic(magic: &[u8]) -> Self {
        Self { buf: magic.to_vec() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn vec_f32(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }

    pub fn vec_f64(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    pub fn vec_usize(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    pub fn vec_bool(&mut self, v: &[bool]) {
        self.usize(v.len());
        for &x in v {
            self.bool(x);
        }
    }

    pub fn rng_state(&mut self, s: [u64; 4]) {
        for w in s {
            self.u64(w);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Strict little-endian reader for checkpoint decoding.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Opens a checkpoint, verifying the magic/version prefix.
    pub(crate) fn new(data: &'a [u8]) -> io::Result<Self> {
        Self::with_magic(data, MAGIC)
    }

    /// Opens a container with a caller-supplied magic/version prefix.
    pub(crate) fn with_magic(data: &'a [u8], magic: &[u8]) -> io::Result<Self> {
        if data.len() < magic.len() || &data[..magic.len()] != magic {
            return Err(bad("bad magic (wrong container format or version)"));
        }
        Ok(Self { data, pos: magic.len() })
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated checkpoint"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(bad(format!("invalid bool byte {v}"))),
        }
    }

    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> io::Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad(format!("length {v} exceeds usize")))
    }

    /// A length prefix additionally bounded by the bytes remaining, so a
    /// corrupted length fails fast instead of attempting a huge allocation.
    fn len_at_most(&mut self, elem_bytes: usize) -> io::Result<usize> {
        let n = self.usize()?;
        if n.saturating_mul(elem_bytes.max(1)) > self.data.len() - self.pos {
            return Err(bad(format!("declared length {n} exceeds checkpoint size")));
        }
        Ok(n)
    }

    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn vec_f32(&mut self) -> io::Result<Vec<f32>> {
        let n = self.len_at_most(4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    pub fn vec_f64(&mut self) -> io::Result<Vec<f64>> {
        let n = self.len_at_most(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    pub fn vec_usize(&mut self) -> io::Result<Vec<usize>> {
        let n = self.len_at_most(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    pub fn vec_bool(&mut self) -> io::Result<Vec<bool>> {
        let n = self.len_at_most(1)?;
        (0..n).map(|_| self.bool()).collect()
    }

    /// An RNG cursor; the all-zero state is rejected (xoshiro never
    /// reaches it, and it cannot seed a generator).
    pub fn rng_state(&mut self) -> io::Result<[u64; 4]> {
        let s = [self.u64()?, self.u64()?, self.u64()?, self.u64()?];
        if s == [0; 4] {
            return Err(bad("all-zero RNG state"));
        }
        Ok(s)
    }

    pub fn str(&mut self) -> io::Result<String> {
        let n = self.len_at_most(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not valid UTF-8"))
    }

    /// Asserts the whole checkpoint was consumed.
    pub(crate) fn finish(self) -> io::Result<()> {
        if self.pos != self.data.len() {
            return Err(bad(format!("{} trailing bytes", self.data.len() - self.pos)));
        }
        Ok(())
    }
}

/// The construction-time facts a checkpoint must agree with before any
/// state is loaded into a runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    /// Strategy discriminant ([`crate::Strategy::TAG`]).
    pub algo: u8,
    /// Federation seed.
    pub seed: u64,
    /// Total episode budget.
    pub episodes: usize,
    /// Episodes between aggregations.
    pub comm_every: usize,
    /// Participants per round.
    pub participation_k: usize,
    /// Number of clients at checkpoint time.
    pub n_clients: usize,
}

impl Fingerprint {
    pub fn write(&self, w: &mut Writer) {
        w.u8(self.algo);
        w.u64(self.seed);
        w.usize(self.episodes);
        w.usize(self.comm_every);
        w.usize(self.participation_k);
        w.usize(self.n_clients);
    }

    /// Reads a fingerprint and verifies it matches `expected`.
    pub fn check(r: &mut Reader<'_>, expected: &Fingerprint) -> io::Result<()> {
        let got = Fingerprint {
            algo: r.u8()?,
            seed: r.u64()?,
            episodes: r.usize()?,
            comm_every: r.usize()?,
            participation_k: r.usize()?,
            n_clients: r.usize()?,
        };
        if &got != expected {
            return Err(bad(format!(
                "checkpoint is for a different federation: {got:?} vs {expected:?}"
            )));
        }
        Ok(())
    }
}

/// Rejects a decoded length that disagrees with the live federation.
fn check_len(what: &str, got: usize, want: usize) -> io::Result<()> {
    if got != want {
        return Err(bad(format!("{what}: {got} values where the federation holds {want}")));
    }
    Ok(())
}

/// Reads a parameter vector that must hold exactly `want` finite values.
pub(crate) fn read_params(r: &mut Reader<'_>, what: &str, want: usize) -> io::Result<Vec<f32>> {
    let params = r.vec_f32()?;
    check_len(what, params.len(), want)?;
    validate_params(&params).map_err(|fault| bad(format!("{what}: {fault}")))?;
    Ok(params)
}

pub(crate) fn write_adam(w: &mut Writer, s: &AdamState) {
    w.vec_f32(&s.m);
    w.vec_f32(&s.v);
    w.u64(s.t);
}

/// Reads Adam moments for a network of `n` parameters.
fn read_adam(r: &mut Reader<'_>, n: usize) -> io::Result<AdamState> {
    let s = AdamState { m: r.vec_f32()?, v: r.vec_f32()?, t: r.u64()? };
    check_len("Adam first moments", s.m.len(), n)?;
    check_len("Adam second moments", s.v.len(), n)?;
    Ok(s)
}

pub(crate) fn write_buffer(w: &mut Writer, b: &BufferSnapshot) {
    w.usize(b.state_dim);
    w.usize(b.mask_dim);
    w.vec_f32(&b.states);
    w.vec_usize(&b.actions);
    w.vec_f32(&b.rewards);
    w.vec_f32(&b.old_log_probs);
    w.vec_bool(&b.terminals);
    w.vec_bool(&b.masks);
}

/// Reads a rollout buffer filled by `actor`: its state and mask widths,
/// per-transition vectors of one length, and in-range actions.
fn read_buffer(r: &mut Reader<'_>, actor: &Mlp) -> io::Result<BufferSnapshot> {
    let b = BufferSnapshot {
        state_dim: r.usize()?,
        mask_dim: r.usize()?,
        states: r.vec_f32()?,
        actions: r.vec_usize()?,
        rewards: r.vec_f32()?,
        old_log_probs: r.vec_f32()?,
        terminals: r.vec_bool()?,
        masks: r.vec_bool()?,
    };
    let n = b.actions.len();
    check_len("buffer state width", b.state_dim, actor.in_dim())?;
    if b.mask_dim != 0 {
        check_len("buffer mask width", b.mask_dim, actor.out_dim())?;
    }
    for (what, got, want) in [
        ("buffer rewards", b.rewards.len(), n),
        ("buffer log-probs", b.old_log_probs.len(), n),
        ("buffer terminals", b.terminals.len(), n),
        ("buffer states", b.states.len(), n.saturating_mul(b.state_dim)),
        ("buffer masks", b.masks.len(), n.saturating_mul(b.mask_dim)),
    ] {
        check_len(what, got, want)?;
    }
    if b.actions.iter().any(|&a| a >= actor.out_dim()) {
        return Err(bad("buffer action out of range"));
    }
    Ok(b)
}

pub(crate) fn write_ppo_agent(w: &mut Writer, s: &PpoAgentSnapshot) {
    w.vec_f32(&s.actor);
    w.vec_f32(&s.critic);
    write_adam(w, &s.actor_opt);
    write_adam(w, &s.critic_opt);
    w.rng_state(s.rng);
    write_buffer(w, &s.buffer);
    w.usize(s.episodes_buffered);
}

/// Reads a PPO agent snapshot, checked against the live agent it will
/// restore.
pub(crate) fn read_ppo_agent(r: &mut Reader<'_>, live: &PpoAgent) -> io::Result<PpoAgentSnapshot> {
    let (actor, critic) = (live.actor.param_count(), live.critic.param_count());
    Ok(PpoAgentSnapshot {
        actor: read_params(r, "actor", actor)?,
        critic: read_params(r, "critic", critic)?,
        actor_opt: read_adam(r, actor)?,
        critic_opt: read_adam(r, critic)?,
        rng: r.rng_state()?,
        buffer: read_buffer(r, &live.actor)?,
        episodes_buffered: r.usize()?,
    })
}

pub(crate) fn write_dual_agent(w: &mut Writer, s: &DualAgentSnapshot) {
    w.vec_f32(&s.actor);
    w.vec_f32(&s.local_critic);
    w.vec_f32(&s.public_critic);
    write_adam(w, &s.actor_opt);
    write_adam(w, &s.local_opt);
    write_adam(w, &s.public_opt);
    w.f32(s.alpha);
    match s.fixed_alpha {
        Some(a) => {
            w.bool(true);
            w.f32(a);
        }
        None => w.bool(false),
    }
    w.rng_state(s.rng);
    write_buffer(w, &s.buffer);
    w.usize(s.episodes_buffered);
}

/// Reads a dual-critic agent snapshot, checked against the live agent it
/// will restore.
pub(crate) fn read_dual_agent(
    r: &mut Reader<'_>,
    live: &DualCriticAgent,
) -> io::Result<DualAgentSnapshot> {
    let n = [&live.actor, &live.local_critic, &live.public_critic].map(Mlp::param_count);
    let s = DualAgentSnapshot {
        actor: read_params(r, "actor", n[0])?,
        local_critic: read_params(r, "local critic", n[1])?,
        public_critic: read_params(r, "public critic", n[2])?,
        actor_opt: read_adam(r, n[0])?,
        local_opt: read_adam(r, n[1])?,
        public_opt: read_adam(r, n[2])?,
        alpha: r.f32()?,
        fixed_alpha: if r.bool()? { Some(r.f32()?) } else { None },
        rng: r.rng_state()?,
        buffer: read_buffer(r, &live.actor)?,
        episodes_buffered: r.usize()?,
    };
    if !s.fixed_alpha.into_iter().chain([s.alpha]).all(|a| (0.0..=1.0).contains(&a)) {
        return Err(bad("critic blend alpha outside [0, 1]"));
    }
    Ok(s)
}

fn write_streams(w: &mut Writer, streams: &[Vec<f32>]) {
    w.usize(streams.len());
    for s in streams {
        w.vec_f32(s);
    }
}

/// Reads one retained upload, which must have the federation's stream
/// lengths `lens` and finite values.
fn read_streams(r: &mut Reader<'_>, lens: &[usize]) -> io::Result<Vec<Vec<f32>>> {
    check_len("upload streams", r.usize()?, lens.len())?;
    lens.iter().map(|&want| read_params(r, "retained upload", want)).collect()
}

pub(crate) fn write_client_fault(w: &mut Writer, c: &ClientFault) {
    w.usize(c.straggle_left);
    w.usize(c.missed_rounds);
    w.u32(c.rejections);
    w.bool(c.evicted);
    match &c.last_good {
        Some(streams) => {
            w.bool(true);
            write_streams(w, streams);
        }
        None => w.bool(false),
    }
    w.usize(c.history.len());
    for streams in &c.history {
        write_streams(w, streams);
    }
}

/// Reads one client's fault bookkeeping for uploads of stream lengths
/// `lens`.
pub(crate) fn read_client_fault(r: &mut Reader<'_>, lens: &[usize]) -> io::Result<ClientFault> {
    let straggle_left = r.usize()?;
    let missed_rounds = r.usize()?;
    let rejections = r.u32()?;
    let evicted = r.bool()?;
    let last_good = if r.bool()? { Some(read_streams(r, lens)?) } else { None };
    let n = r.usize()?;
    let mut history = VecDeque::with_capacity(n.min(64));
    for _ in 0..n {
        history.push_back(read_streams(r, lens)?);
    }
    Ok(ClientFault { straggle_left, missed_rounds, rejections, evicted, last_good, history })
}

pub(crate) fn write_matrix(w: &mut Writer, m: &Matrix) {
    let (rows, cols) = m.shape();
    w.usize(rows);
    w.usize(cols);
    w.vec_f32(m.as_slice());
}

pub(crate) fn read_matrix(r: &mut Reader<'_>) -> io::Result<Matrix> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let data = r.vec_f32()?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(bad(format!("matrix {rows}x{cols} with {} elements", data.len())));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(123_456);
        w.u64(u64::MAX - 1);
        w.f32(-0.25);
        w.f64(1e300);
        w.vec_f32(&[1.0, 2.5]);
        w.vec_f64(&[-3.0]);
        w.vec_usize(&[0, 9, 4]);
        w.vec_bool(&[true, false]);
        w.rng_state([1, 2, 3, 4]);
        w.str("héllo");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -0.25);
        assert_eq!(r.f64().unwrap(), 1e300);
        assert_eq!(r.vec_f32().unwrap(), vec![1.0, 2.5]);
        assert_eq!(r.vec_f64().unwrap(), vec![-3.0]);
        assert_eq!(r.vec_usize().unwrap(), vec![0, 9, 4]);
        assert_eq!(r.vec_bool().unwrap(), vec![true, false]);
        assert_eq!(r.rng_state().unwrap(), [1, 2, 3, 4]);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_truncation_and_trailing_bytes_rejected() {
        assert!(Reader::new(b"nope").is_err());
        let mut w = Writer::new();
        w.u64(5);
        let mut bytes = w.finish();
        assert!(Reader::new(&bytes[..bytes.len() - 1]).unwrap().u64().is_err());
        bytes.push(0);
        let mut r = Reader::new(&bytes).unwrap();
        let _ = r.u64().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn oversized_declared_length_fails_fast() {
        let mut w = Writer::new();
        w.u64(u64::MAX / 8); // an absurd vec_f64 length prefix
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert!(r.vec_f64().is_err());
    }

    #[test]
    fn fingerprint_mismatch_is_invalid_data() {
        let fp = Fingerprint {
            algo: 3,
            seed: 9,
            episodes: 10,
            comm_every: 2,
            participation_k: 2,
            n_clients: 4,
        };
        let mut w = Writer::new();
        fp.write(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        Fingerprint::check(&mut r, &fp).unwrap();
        let other = Fingerprint { seed: 10, ..fp };
        let mut r = Reader::new(&bytes).unwrap();
        let err = Fingerprint::check(&mut r, &other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn client_fault_roundtrips() {
        let mut c = ClientFault {
            straggle_left: 2,
            missed_rounds: 1,
            rejections: 3,
            evicted: false,
            last_good: Some(vec![vec![1.0, -2.0], vec![0.5]]),
            history: VecDeque::new(),
        };
        c.history.push_back(vec![vec![9.0, 3.0], vec![4.0]]);
        let mut w = Writer::new();
        write_client_fault(&mut w, &c);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        assert_eq!(read_client_fault(&mut r, &[2, 1]).unwrap(), c);
        r.finish().unwrap();
    }

    #[test]
    fn matrix_roundtrips() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut w = Writer::new();
        write_matrix(&mut w, &m);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        let back = read_matrix(&mut r).unwrap();
        assert_eq!(back.shape(), (2, 3));
        assert_eq!(back.as_slice(), m.as_slice());
    }
}
