//! The frame vocabulary of the coalition protocol.
//!
//! Every payload is `[version u8][tag u8][id u64][body]`. Request tags
//! live in `0x01..=0x7F`, reply tags in `0x80..=0xFF`, so a trace is
//! readable at a glance. Steady-state frames (`Decide2`, `IssueProof`,
//! `Enroll`, `Arrive`) carry only interned `u32` ids for names: a client
//! announces names once via `Vocab` and both ends number them
//! positionally (id = index of first announcement), per connection.
//!
//! Every request carries a caller-chosen `id`, and its one reply echoes
//! it, so replies are matched by id rather than by position and may
//! overtake one another. A failure of any request is an `Err2` carrying
//! its id; a decision is answered by a `Verdict2`, a `Redirect2` (the
//! object is homed on another member) or an `Err2`. Tags of retired
//! frames (the id-less error `0x83`, the batch decide pair `0x11`/`0x91`
//! and the locate pair `0x0D`/`0x89`) are not reused, so they decode as
//! `BadTag`.
//!
//! Handoff payloads are the exception: they travel *between* daemons whose
//! interning orders differ, so [`HandoffWire`] is keyed entirely by name
//! strings.

use stacl_coalition::DecisionKind;
use stacl_naplet::prelude::ObjectHandoff;
use stacl_rbac::{GateBudget, ObjectGateExport};
use stacl_temporal::{BaseTimeScheme, TimePoint, TimelineParts};

use crate::wire::{
    put_bool, put_f64, put_opt_str, put_str, put_u32, put_u64, put_u8, Dec, WireError,
    PROTOCOL_VERSION,
};

/// An access reference in interned form: `op resource @ server`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WireAccess {
    /// Vocabulary id of the operation name.
    pub op: u32,
    /// Vocabulary id of the resource name.
    pub resource: u32,
    /// Vocabulary id of the server name.
    pub server: u32,
}

/// The body of a `Decide2`: one access to decide.
#[derive(Clone, Debug, PartialEq)]
pub struct DecideItem {
    /// Vocabulary id of the requesting object.
    pub object: u32,
    /// Decision time (seconds).
    pub time: f64,
    /// The access being attempted.
    pub access: WireAccess,
    /// The declared remaining program as a flat sequence, including the
    /// attempted access itself.
    pub remaining: Vec<WireAccess>,
}

/// A permission timeline in wire form — the name-keyed, scheme-tagged
/// mirror of [`TimelineParts`].
#[derive(Clone, Debug, PartialEq)]
pub struct WireTimeline {
    /// Remaining validity budget in seconds, if the permission has one.
    pub budget: Option<f64>,
    /// Base-time scheme: 0 = `CurrentServer`, 1 = `WholeLifetime`.
    pub scheme: u8,
    /// Arrival instants recorded by the sender.
    pub arrivals: Vec<f64>,
    /// Activation toggle history `(time, active)`.
    pub toggles: Vec<(f64, bool)>,
    /// Whether the permission was active when exported.
    pub active_now: bool,
}

/// A budget key in wire form: 0 = per-permission, 1 = validity class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireBudget {
    /// Keyed by permission name.
    Perm(String),
    /// Keyed by validity-class name.
    Class(String),
}

/// The full migration-handoff payload: everything the receiving member
/// needs to continue enforcing the object's spatio-temporal state, keyed
/// by names because interner orders differ across daemons.
#[derive(Clone, Debug, PartialEq)]
pub struct HandoffWire {
    /// The sender's proof watermark for the object (proofs issued).
    pub watermark: u64,
    /// How many of those proofs the sender had folded into its sealed
    /// compaction summary (`ProofStore::compaction_base`). Always ≤
    /// `watermark`; the decoder rejects payloads that violate the
    /// invariant, so an import never seeds cursors against a watermark
    /// the compacted prefix contradicts.
    pub compaction_base: u64,
    /// Whether the object's declared program was still clean (no denials).
    pub clean: bool,
    /// The sender's local clock view at release (its last recorded
    /// arrival instant plus its configured skew). The receiver compares
    /// this against its own skewed clock and counts a `clock.regression`
    /// when time would run backwards across the handoff.
    pub sender_clock: f64,
    /// The sender's configured clock skew in seconds.
    pub sender_skew: f64,
    /// Object arrival instants at the sender's gate.
    pub arrivals: Vec<f64>,
    /// Per-budget validity timelines.
    pub timelines: Vec<(WireBudget, WireTimeline)>,
    /// Permission names whose spatial approval was already granted.
    pub spatial_ok: Vec<String>,
    /// `(permission name, proofs consumed)` cursor positions at export.
    pub cursor_seeds: Vec<(String, u64)>,
}

/// A protocol frame. Requests flow client→daemon (or daemon→daemon for
/// the handoff pull and the state-carrying rebalance push); replies flow
/// back on the same connection. Every variant's `id` is the request id:
/// chosen by the caller on a request, echoed by the daemon on its reply.
/// Any request may instead be answered by `Err2`.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Opens a connection with the caller's name. Replied with
    /// `HelloAck`.
    Hello {
        /// Request id.
        id: u64,
        /// The caller's name (a peer daemon's server name, or a client label).
        peer: String,
    },
    /// Announce names; both ends assign ids positionally in announcement
    /// order. Replied with `Ok`.
    Vocab {
        /// Request id.
        id: u64,
        /// Names to intern, in id order.
        names: Vec<String>,
    },
    /// Enroll an object with activated roles. Replied with `Ok`.
    Enroll {
        /// Request id.
        id: u64,
        /// Vocabulary id of the object.
        object: u32,
        /// Vocabulary ids of the activated roles.
        roles: Vec<u32>,
    },
    /// Record an execution proof (replicated after a grant anywhere in
    /// the coalition). Replied with `Ok`.
    IssueProof {
        /// Request id.
        id: u64,
        /// Vocabulary id of the proving object.
        object: u32,
        /// The proven access.
        access: WireAccess,
        /// Proof timestamp (already skew-stamped by the issuer).
        time: f64,
    },
    /// The object arrived at this member. If `from` names another member,
    /// the daemon pulls a custody handoff from it before admitting the
    /// arrival, and replies when the pull lands: `Ok`, or `Err2` if the
    /// handoff failed (the object then stays in-flight and decisions
    /// fail safe). Replies to later requests may overtake it.
    Arrive {
        /// Request id.
        id: u64,
        /// Vocabulary id of the arriving object.
        object: u32,
        /// Arrival instant (seconds).
        time: f64,
        /// The previous custodian's server name, if custody must move.
        from: Option<String>,
    },
    /// Daemon→daemon: request the custody handoff for an object. Replied
    /// with `HandoffState`.
    HandoffRequest {
        /// Request id.
        id: u64,
        /// The object's name (handoffs are name-keyed).
        object: String,
    },
    /// Daemon→daemon: a membership change re-homed `object` onto the
    /// receiver; its previous custodian pushes the exported state.
    /// Replied with `Ok` once imported, or `Err2` if the receiver already
    /// holds it or the state is invalid. Verdict-neutral: no arrival.
    Rebalance {
        /// Request id.
        id: u64,
        /// The object's name.
        object: String,
        /// The custody payload, exported by the sender.
        state: HandoffWire,
    },
    /// Ask for the daemon's metrics snapshot. Replied with `MetricsJson`.
    MetricsRequest {
        /// Request id.
        id: u64,
    },
    /// Ask the daemon to stop accepting and close. Replied with `Ok`.
    Shutdown {
        /// Request id.
        id: u64,
    },
    /// Phase 1 of a coalition-wide policy rollout: ship the replacement
    /// policy and have the daemon build (but not install) the epoch.
    /// Replied with `EpochAck`.
    PolicyPrepare {
        /// Request id.
        id: u64,
        /// The epoch the rollout targets (strictly greater than the
        /// daemon's active epoch).
        epoch: u64,
        /// The replacement policy, in the `stacl_rbac::policy` text
        /// format (name-keyed: interner orders differ across daemons).
        policy: String,
        /// Validity-class definitions `(name, duration seconds, scheme)`
        /// accompanying the policy (classes are engine-level state, not
        /// part of the policy text).
        classes: Vec<(String, f64, u8)>,
    },
    /// Phase 2: flip to the epoch prepared by the matching
    /// `PolicyPrepare`. Replied with `EpochAck`; a daemon with no (or a
    /// different) prepared epoch replies `Err2` and fail-safes subsequent
    /// decisions until a rollout completes (never mixing epochs).
    PolicyActivate {
        /// Request id.
        id: u64,
        /// The epoch to flip to.
        epoch: u64,
    },
    /// Decide one access. Replied with a `Verdict2` or `Redirect2`; many
    /// `Decide2` frames can be in flight on one connection (the
    /// pipelined mode).
    Decide2 {
        /// Request id.
        id: u64,
        /// The request.
        item: DecideItem,
    },

    /// Reply to `Hello`: the daemon's server name.
    HelloAck {
        /// The request's id, echoed.
        id: u64,
        /// The daemon's coalition server name.
        server: String,
    },
    /// Generic success reply.
    Ok {
        /// The request's id, echoed.
        id: u64,
    },
    /// Reply to `HandoffRequest`.
    HandoffState {
        /// The request's id, echoed.
        id: u64,
        /// The object's name (echoed).
        object: String,
        /// The custody payload.
        state: HandoffWire,
    },
    /// Reply to `MetricsRequest`: a `MetricsSnapshot` rendered as JSON.
    MetricsJson {
        /// The request's id, echoed.
        id: u64,
        /// The JSON document.
        json: String,
    },
    /// Reply to `PolicyPrepare` / `PolicyActivate`: the epoch now
    /// prepared (respectively active) on the daemon.
    EpochAck {
        /// The request's id, echoed.
        id: u64,
        /// The acknowledged epoch.
        epoch: u64,
    },
    /// Reply to `Decide2`.
    Verdict2 {
        /// The request's id, echoed.
        id: u64,
        /// Encoded [`DecisionKind`] (see [`kind_to_u8`]).
        kind: u8,
        /// The policy epoch the deciding daemon stamped on the verdict.
        epoch: u64,
        /// Denial detail, absent on grants.
        reason: Option<String>,
    },
    /// Failure reply to any request — a malformed or rejected request
    /// must not desynchronize the others in flight.
    Err2 {
        /// The request's id, echoed.
        id: u64,
        /// Machine-readable code (see `ERR_*` constants).
        code: u8,
        /// Human-readable detail.
        msg: String,
    },
    /// Reply to a `Decide2` aimed at a member that the placement ring
    /// says is not the object's home: the caller re-aims at `home` and
    /// resolves in one extra hop instead of a broadcast.
    Redirect2 {
        /// The request's id, echoed.
        id: u64,
        /// The object's name.
        object: String,
        /// The rendezvous home member's name.
        home: String,
        /// The home's listen address, when the answering daemon knows it
        /// (`host:port`); callers with their own peer table may ignore it.
        addr: Option<String>,
    },
}

/// `Err2` code: the frame could not be decoded or referenced an unknown
/// vocabulary id.
pub const ERR_BAD_REQUEST: u8 = 1;
/// `Err2` code: a custody handoff failed (peer unknown, unreachable after
/// retries, or its payload malformed).
pub const ERR_HANDOFF: u8 = 2;
/// `Err2` code: this member is not the object's resident custodian.
pub const ERR_NOT_CUSTODIAN: u8 = 3;
/// `Err2` code: the request is not valid in the daemon's current state.
pub const ERR_STATE: u8 = 4;

const TAG_HELLO: u8 = 0x01;
const TAG_VOCAB: u8 = 0x02;
const TAG_ENROLL: u8 = 0x03;
const TAG_ISSUE_PROOF: u8 = 0x06;
const TAG_ARRIVE: u8 = 0x07;
const TAG_HANDOFF_REQUEST: u8 = 0x08;
const TAG_METRICS_REQUEST: u8 = 0x09;
const TAG_SHUTDOWN: u8 = 0x0A;
const TAG_POLICY_PREPARE: u8 = 0x0B;
const TAG_POLICY_ACTIVATE: u8 = 0x0C;
const TAG_REBALANCE: u8 = 0x0E;
const TAG_DECIDE2: u8 = 0x10;
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_OK: u8 = 0x82;
const TAG_HANDOFF_STATE: u8 = 0x86;
const TAG_METRICS_JSON: u8 = 0x87;
const TAG_EPOCH_ACK: u8 = 0x88;
const TAG_VERDICT2: u8 = 0x90;
const TAG_ERR2: u8 = 0x92;
const TAG_REDIRECT2: u8 = 0x93;

/// Byte length of the header every payload starts with:
/// `[version u8][tag u8][id u64]`.
const HEADER_LEN: usize = 10;

/// The request id in a payload's header, read without decoding the
/// body — `None` when the payload is too short to hold one. A daemon
/// answers a request it cannot decode with an `Err2` carrying this id.
pub(crate) fn header_id(payload: &[u8]) -> Option<u64> {
    let id = payload.get(2..HEADER_LEN)?;
    Some(u64::from_le_bytes(id.try_into().ok()?))
}

/// Map a [`DecisionKind`] to its stable wire value.
pub fn kind_to_u8(kind: DecisionKind) -> u8 {
    match kind {
        DecisionKind::Granted => 0,
        DecisionKind::DeniedNoPermission => 1,
        DecisionKind::DeniedSpatial => 2,
        DecisionKind::DeniedTemporal => 3,
        DecisionKind::DeniedUnknownTarget => 4,
        DecisionKind::DeniedCoordination => 5,
    }
}

/// Decode a wire verdict kind.
pub fn kind_from_u8(v: u8) -> Result<DecisionKind, WireError> {
    Ok(match v {
        0 => DecisionKind::Granted,
        1 => DecisionKind::DeniedNoPermission,
        2 => DecisionKind::DeniedSpatial,
        3 => DecisionKind::DeniedTemporal,
        4 => DecisionKind::DeniedUnknownTarget,
        5 => DecisionKind::DeniedCoordination,
        _ => return Err(WireError::BadValue("unknown verdict kind")),
    })
}

/// Map a [`BaseTimeScheme`] to its stable wire value (also used by
/// `PolicyPrepare` class definitions and the CLI's `policy push`).
pub fn scheme_to_u8(s: BaseTimeScheme) -> u8 {
    match s {
        BaseTimeScheme::CurrentServer => 0,
        BaseTimeScheme::WholeLifetime => 1,
    }
}

/// Decode a wire base-time scheme.
pub fn scheme_from_u8(v: u8) -> Result<BaseTimeScheme, WireError> {
    match v {
        0 => Ok(BaseTimeScheme::CurrentServer),
        1 => Ok(BaseTimeScheme::WholeLifetime),
        _ => Err(WireError::BadValue("unknown base-time scheme")),
    }
}

fn put_access(b: &mut Vec<u8>, a: &WireAccess) {
    put_u32(b, a.op);
    put_u32(b, a.resource);
    put_u32(b, a.server);
}

fn dec_access(d: &mut Dec<'_>) -> Result<WireAccess, WireError> {
    Ok(WireAccess {
        op: d.u32()?,
        resource: d.u32()?,
        server: d.u32()?,
    })
}

fn put_item(b: &mut Vec<u8>, it: &DecideItem) {
    put_u32(b, it.object);
    put_f64(b, it.time);
    put_access(b, &it.access);
    put_u32(b, it.remaining.len() as u32);
    for a in &it.remaining {
        put_access(b, a);
    }
}

fn dec_item(d: &mut Dec<'_>) -> Result<DecideItem, WireError> {
    let object = d.u32()?;
    let time = d.f64()?;
    let access = dec_access(d)?;
    let n = d.count()?;
    let mut remaining = Vec::new();
    for _ in 0..n {
        remaining.push(dec_access(d)?);
    }
    Ok(DecideItem {
        object,
        time,
        access,
        remaining,
    })
}

fn put_timeline(b: &mut Vec<u8>, t: &WireTimeline) {
    match t.budget {
        None => put_u8(b, 0),
        Some(v) => {
            put_u8(b, 1);
            put_f64(b, v);
        }
    }
    put_u8(b, t.scheme);
    put_u32(b, t.arrivals.len() as u32);
    for a in &t.arrivals {
        put_f64(b, *a);
    }
    put_u32(b, t.toggles.len() as u32);
    for (at, on) in &t.toggles {
        put_f64(b, *at);
        put_bool(b, *on);
    }
    put_bool(b, t.active_now);
}

fn dec_timeline(d: &mut Dec<'_>) -> Result<WireTimeline, WireError> {
    let budget = match d.u8()? {
        0 => None,
        1 => Some(d.f64()?),
        _ => return Err(WireError::BadValue("option tag must be 0 or 1")),
    };
    let scheme = d.u8()?;
    scheme_from_u8(scheme)?;
    let n = d.count()?;
    let mut arrivals = Vec::new();
    for _ in 0..n {
        arrivals.push(d.f64()?);
    }
    let n = d.count()?;
    let mut toggles = Vec::new();
    for _ in 0..n {
        let at = d.f64()?;
        let on = d.bool()?;
        toggles.push((at, on));
    }
    let active_now = d.bool()?;
    Ok(WireTimeline {
        budget,
        scheme,
        arrivals,
        toggles,
        active_now,
    })
}

fn put_budget(b: &mut Vec<u8>, k: &WireBudget) {
    match k {
        WireBudget::Perm(name) => {
            put_u8(b, 0);
            put_str(b, name);
        }
        WireBudget::Class(name) => {
            put_u8(b, 1);
            put_str(b, name);
        }
    }
}

fn dec_budget(d: &mut Dec<'_>) -> Result<WireBudget, WireError> {
    match d.u8()? {
        0 => Ok(WireBudget::Perm(d.str()?)),
        1 => Ok(WireBudget::Class(d.str()?)),
        _ => Err(WireError::BadValue("unknown budget-key tag")),
    }
}

fn put_handoff(b: &mut Vec<u8>, h: &HandoffWire) {
    put_u64(b, h.watermark);
    put_u64(b, h.compaction_base);
    put_bool(b, h.clean);
    put_f64(b, h.sender_clock);
    put_f64(b, h.sender_skew);
    put_u32(b, h.arrivals.len() as u32);
    for a in &h.arrivals {
        put_f64(b, *a);
    }
    put_u32(b, h.timelines.len() as u32);
    for (k, t) in &h.timelines {
        put_budget(b, k);
        put_timeline(b, t);
    }
    put_u32(b, h.spatial_ok.len() as u32);
    for s in &h.spatial_ok {
        put_str(b, s);
    }
    put_u32(b, h.cursor_seeds.len() as u32);
    for (name, n) in &h.cursor_seeds {
        put_str(b, name);
        put_u64(b, *n);
    }
}

fn dec_handoff(d: &mut Dec<'_>) -> Result<HandoffWire, WireError> {
    let watermark = d.u64()?;
    let compaction_base = d.u64()?;
    if compaction_base > watermark {
        return Err(WireError::BadValue("compaction base exceeds watermark"));
    }
    let clean = d.bool()?;
    let sender_clock = d.f64()?;
    let sender_skew = d.f64()?;
    let n = d.count()?;
    let mut arrivals = Vec::new();
    for _ in 0..n {
        arrivals.push(d.f64()?);
    }
    let n = d.count()?;
    let mut timelines = Vec::new();
    for _ in 0..n {
        let k = dec_budget(d)?;
        let t = dec_timeline(d)?;
        timelines.push((k, t));
    }
    let n = d.count()?;
    let mut spatial_ok = Vec::new();
    for _ in 0..n {
        spatial_ok.push(d.str()?);
    }
    let n = d.count()?;
    let mut cursor_seeds = Vec::new();
    for _ in 0..n {
        let name = d.str()?;
        let c = d.u64()?;
        cursor_seeds.push((name, c));
    }
    Ok(HandoffWire {
        watermark,
        compaction_base,
        clean,
        sender_clock,
        sender_skew,
        arrivals,
        timelines,
        spatial_ok,
        cursor_seeds,
    })
}

impl HandoffWire {
    /// Build the wire payload from a guard export.
    pub fn from_handoff(
        h: &ObjectHandoff,
        watermark: u64,
        compaction_base: u64,
        sender_clock: f64,
        sender_skew: f64,
    ) -> Self {
        let timelines = h
            .gate
            .timelines
            .iter()
            .map(|(k, parts)| {
                let key = match k {
                    GateBudget::Perm(name) => WireBudget::Perm(name.clone()),
                    GateBudget::Class(name) => WireBudget::Class(name.clone()),
                };
                let t = WireTimeline {
                    budget: parts.budget,
                    scheme: scheme_to_u8(parts.scheme),
                    arrivals: parts.arrivals.iter().map(|t| t.seconds()).collect(),
                    toggles: parts
                        .toggles
                        .iter()
                        .map(|(t, on)| (t.seconds(), *on))
                        .collect(),
                    active_now: parts.active_now,
                };
                (key, t)
            })
            .collect();
        HandoffWire {
            watermark,
            compaction_base,
            clean: h.clean,
            sender_clock,
            sender_skew,
            arrivals: h.gate.arrivals.iter().map(|t| t.seconds()).collect(),
            timelines,
            spatial_ok: h.gate.spatial_ok.clone(),
            cursor_seeds: h.gate.cursor_seeds.clone(),
        }
    }

    /// Convert back into a guard import, validating every numeric field —
    /// the payload crossed a trust boundary, so non-finite times and
    /// malformed schemes must be rejected, never asserted on.
    pub fn to_handoff(&self) -> Result<ObjectHandoff, WireError> {
        fn tp(v: f64) -> Result<TimePoint, WireError> {
            if !v.is_finite() {
                return Err(WireError::BadValue("non-finite time"));
            }
            Ok(TimePoint::new(v))
        }
        let mut timelines = Vec::with_capacity(self.timelines.len());
        for (k, t) in &self.timelines {
            let key = match k {
                WireBudget::Perm(name) => GateBudget::Perm(name.clone()),
                WireBudget::Class(name) => GateBudget::Class(name.clone()),
            };
            if let Some(b) = t.budget {
                if !b.is_finite() {
                    return Err(WireError::BadValue("non-finite budget"));
                }
            }
            let parts = TimelineParts {
                budget: t.budget,
                scheme: scheme_from_u8(t.scheme)?,
                arrivals: t
                    .arrivals
                    .iter()
                    .map(|v| tp(*v))
                    .collect::<Result<_, _>>()?,
                toggles: t
                    .toggles
                    .iter()
                    .map(|(v, on)| Ok((tp(*v)?, *on)))
                    .collect::<Result<_, WireError>>()?,
                active_now: t.active_now,
            };
            timelines.push((key, parts));
        }
        Ok(ObjectHandoff {
            clean: self.clean,
            gate: ObjectGateExport {
                arrivals: self
                    .arrivals
                    .iter()
                    .map(|v| tp(*v))
                    .collect::<Result<_, _>>()?,
                timelines,
                spatial_ok: self.spatial_ok.clone(),
                cursor_seeds: self.cursor_seeds.clone(),
            },
        })
    }
}

impl Frame {
    /// The request id: chosen by the caller on a request, echoed by the
    /// reply.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Hello { id, .. }
            | Frame::Vocab { id, .. }
            | Frame::Enroll { id, .. }
            | Frame::IssueProof { id, .. }
            | Frame::Arrive { id, .. }
            | Frame::HandoffRequest { id, .. }
            | Frame::Rebalance { id, .. }
            | Frame::MetricsRequest { id }
            | Frame::Shutdown { id }
            | Frame::PolicyPrepare { id, .. }
            | Frame::PolicyActivate { id, .. }
            | Frame::Decide2 { id, .. }
            | Frame::HelloAck { id, .. }
            | Frame::Ok { id }
            | Frame::HandoffState { id, .. }
            | Frame::MetricsJson { id, .. }
            | Frame::EpochAck { id, .. }
            | Frame::Verdict2 { id, .. }
            | Frame::Err2 { id, .. }
            | Frame::Redirect2 { id, .. } => *id,
        }
    }

    /// Encode into a versioned payload ready for [`crate::wire::put_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16);
        self.encode_into(&mut b);
        b
    }

    /// Append the versioned payload to `b` — [`Frame::encode`] without a
    /// buffer of its own, for [`crate::wire::put_frame_with`].
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        put_u8(b, PROTOCOL_VERSION);
        // The tag byte is written once the body's arm names it.
        let tag_at = b.len();
        put_u8(b, 0);
        put_u64(b, self.id());
        b[tag_at] = match self {
            Frame::Hello { peer, .. } => {
                put_str(b, peer);
                TAG_HELLO
            }
            Frame::Vocab { names, .. } => {
                put_u32(b, names.len() as u32);
                for n in names {
                    put_str(b, n);
                }
                TAG_VOCAB
            }
            Frame::Enroll { object, roles, .. } => {
                put_u32(b, *object);
                put_u32(b, roles.len() as u32);
                for r in roles {
                    put_u32(b, *r);
                }
                TAG_ENROLL
            }
            Frame::IssueProof {
                object,
                access,
                time,
                ..
            } => {
                put_u32(b, *object);
                put_access(b, access);
                put_f64(b, *time);
                TAG_ISSUE_PROOF
            }
            Frame::Arrive {
                object, time, from, ..
            } => {
                put_u32(b, *object);
                put_f64(b, *time);
                put_opt_str(b, from.as_deref());
                TAG_ARRIVE
            }
            Frame::HandoffRequest { object, .. } => {
                put_str(b, object);
                TAG_HANDOFF_REQUEST
            }
            Frame::Rebalance { object, state, .. } => {
                put_str(b, object);
                put_handoff(b, state);
                TAG_REBALANCE
            }
            Frame::MetricsRequest { .. } => TAG_METRICS_REQUEST,
            Frame::Shutdown { .. } => TAG_SHUTDOWN,
            Frame::PolicyPrepare {
                epoch,
                policy,
                classes,
                ..
            } => {
                put_u64(b, *epoch);
                put_str(b, policy);
                put_u32(b, classes.len() as u32);
                for (name, dur, scheme) in classes {
                    put_str(b, name);
                    put_f64(b, *dur);
                    put_u8(b, *scheme);
                }
                TAG_POLICY_PREPARE
            }
            Frame::PolicyActivate { epoch, .. } => {
                put_u64(b, *epoch);
                TAG_POLICY_ACTIVATE
            }
            Frame::Decide2 { item, .. } => {
                put_item(b, item);
                TAG_DECIDE2
            }
            Frame::HelloAck { server, .. } => {
                put_str(b, server);
                TAG_HELLO_ACK
            }
            Frame::Ok { .. } => TAG_OK,
            Frame::HandoffState { object, state, .. } => {
                put_str(b, object);
                put_handoff(b, state);
                TAG_HANDOFF_STATE
            }
            Frame::MetricsJson { json, .. } => {
                put_str(b, json);
                TAG_METRICS_JSON
            }
            Frame::EpochAck { epoch, .. } => {
                put_u64(b, *epoch);
                TAG_EPOCH_ACK
            }
            Frame::Verdict2 {
                kind,
                epoch,
                reason,
                ..
            } => {
                put_u8(b, *kind);
                put_u64(b, *epoch);
                put_opt_str(b, reason.as_deref());
                TAG_VERDICT2
            }
            Frame::Err2 { code, msg, .. } => {
                put_u8(b, *code);
                put_str(b, msg);
                TAG_ERR2
            }
            Frame::Redirect2 {
                object, home, addr, ..
            } => {
                put_str(b, object);
                put_str(b, home);
                put_opt_str(b, addr.as_deref());
                TAG_REDIRECT2
            }
        };
    }

    /// Decode a versioned payload. Rejects — never panics on — any
    /// malformed input, including trailing bytes after a valid body.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut d = Dec::new(payload);
        let version = d.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let tag = d.u8()?;
        let id = d.u64()?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello { id, peer: d.str()? },
            TAG_VOCAB => {
                let n = d.count()?;
                let mut names = Vec::new();
                for _ in 0..n {
                    names.push(d.str()?);
                }
                Frame::Vocab { id, names }
            }
            TAG_ENROLL => {
                let object = d.u32()?;
                let n = d.count()?;
                let mut roles = Vec::new();
                for _ in 0..n {
                    roles.push(d.u32()?);
                }
                Frame::Enroll { id, object, roles }
            }
            TAG_ISSUE_PROOF => Frame::IssueProof {
                id,
                object: d.u32()?,
                access: dec_access(&mut d)?,
                time: d.f64()?,
            },
            TAG_ARRIVE => Frame::Arrive {
                id,
                object: d.u32()?,
                time: d.f64()?,
                from: d.opt_str()?,
            },
            TAG_HANDOFF_REQUEST => Frame::HandoffRequest {
                id,
                object: d.str()?,
            },
            TAG_REBALANCE => Frame::Rebalance {
                id,
                object: d.str()?,
                state: dec_handoff(&mut d)?,
            },
            TAG_METRICS_REQUEST => Frame::MetricsRequest { id },
            TAG_SHUTDOWN => Frame::Shutdown { id },
            TAG_POLICY_PREPARE => {
                let epoch = d.u64()?;
                let policy = d.str()?;
                let n = d.count()?;
                let mut classes = Vec::new();
                for _ in 0..n {
                    let name = d.str()?;
                    let dur = d.f64()?;
                    let scheme = d.u8()?;
                    scheme_from_u8(scheme)?;
                    if !dur.is_finite() || dur < 0.0 {
                        return Err(WireError::BadValue("non-finite class duration"));
                    }
                    classes.push((name, dur, scheme));
                }
                Frame::PolicyPrepare {
                    id,
                    epoch,
                    policy,
                    classes,
                }
            }
            TAG_POLICY_ACTIVATE => Frame::PolicyActivate {
                id,
                epoch: d.u64()?,
            },
            TAG_DECIDE2 => Frame::Decide2 {
                id,
                item: dec_item(&mut d)?,
            },
            TAG_HELLO_ACK => Frame::HelloAck {
                id,
                server: d.str()?,
            },
            TAG_OK => Frame::Ok { id },
            TAG_HANDOFF_STATE => Frame::HandoffState {
                id,
                object: d.str()?,
                state: dec_handoff(&mut d)?,
            },
            TAG_METRICS_JSON => Frame::MetricsJson { id, json: d.str()? },
            TAG_EPOCH_ACK => Frame::EpochAck {
                id,
                epoch: d.u64()?,
            },
            TAG_VERDICT2 => Frame::Verdict2 {
                id,
                kind: d.u8()?,
                epoch: d.u64()?,
                reason: d.opt_str()?,
            },
            TAG_ERR2 => Frame::Err2 {
                id,
                code: d.u8()?,
                msg: d.str()?,
            },
            TAG_REDIRECT2 => Frame::Redirect2 {
                id,
                object: d.str()?,
                home: d.str()?,
                addr: d.opt_str()?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        d.finish()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let state = HandoffWire {
            watermark: 42,
            compaction_base: 17,
            clean: true,
            sender_clock: 10.5,
            sender_skew: 0.5,
            arrivals: vec![1.0, 2.0],
            timelines: vec![(
                WireBudget::Class("fast".into()),
                WireTimeline {
                    budget: Some(3.0),
                    scheme: 0,
                    arrivals: vec![1.0],
                    toggles: vec![(1.0, true), (2.0, false)],
                    active_now: false,
                },
            )],
            spatial_ok: vec!["p1".into()],
            cursor_seeds: vec![("p1".into(), 2)],
        };
        let frames = vec![
            Frame::Hello {
                id: 0,
                peer: "s1".into(),
            },
            Frame::Vocab {
                id: 1,
                names: vec!["a".into(), "b".into()],
            },
            Frame::Enroll {
                id: 2,
                object: 3,
                roles: vec![0, 7],
            },
            Frame::Decide2 {
                id: 4,
                item: DecideItem {
                    object: 1,
                    time: 2.5,
                    access: WireAccess {
                        op: 0,
                        resource: 1,
                        server: 2,
                    },
                    remaining: vec![WireAccess {
                        op: 0,
                        resource: 1,
                        server: 2,
                    }],
                },
            },
            Frame::IssueProof {
                id: 5,
                object: 9,
                access: WireAccess {
                    op: 5,
                    resource: 6,
                    server: 7,
                },
                time: -1.25,
            },
            Frame::Arrive {
                id: 6,
                object: 2,
                time: 0.0,
                from: Some("s0".into()),
            },
            Frame::HandoffRequest {
                id: 7,
                object: "obj".into(),
            },
            Frame::Rebalance {
                id: 8,
                object: "obj".into(),
                state: state.clone(),
            },
            Frame::MetricsRequest { id: 9 },
            Frame::Shutdown { id: u64::MAX },
            Frame::PolicyPrepare {
                id: 10,
                epoch: 3,
                policy: "user n0\nrole worker\n".into(),
                classes: vec![("night".into(), 4.5, 1)],
            },
            Frame::PolicyActivate { id: 11, epoch: 3 },
            Frame::HelloAck {
                id: 0,
                server: "s2".into(),
            },
            Frame::Ok { id: 1 },
            Frame::Verdict2 {
                id: 4,
                kind: 5,
                epoch: 2,
                reason: Some("custody in flight".into()),
            },
            Frame::Err2 {
                id: 6,
                code: ERR_BAD_REQUEST,
                msg: "unknown vocabulary id 9".into(),
            },
            Frame::HandoffState {
                id: 7,
                object: "o".into(),
                state,
            },
            Frame::MetricsJson {
                id: 9,
                json: "{}".into(),
            },
            Frame::EpochAck { id: 11, epoch: 9 },
            Frame::Redirect2 {
                id: 7,
                object: "o".into(),
                home: "s3".into(),
                addr: Some("127.0.0.1:9000".into()),
            },
            Frame::Redirect2 {
                id: 8,
                object: "o".into(),
                home: "s3".into(),
                addr: None,
            },
        ];
        for f in frames {
            let bytes = f.encode();
            // Every payload leads with the header, id included.
            assert_eq!(header_id(&bytes), Some(f.id()));
            let back = Frame::decode(&bytes).unwrap();
            assert_eq!(back, f);
            // Canonical: re-encoding the decoded frame reproduces the bytes.
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn bad_version_and_tag_are_rejected() {
        let header = |version: u8, tag: u8| {
            let mut b = vec![version, tag];
            b.extend_from_slice(&77u64.to_le_bytes());
            b
        };
        assert_eq!(
            Frame::decode(&header(9, TAG_OK)),
            Err(WireError::BadVersion(9))
        );
        // The retired sequential, id-less and pull-rebalance protocols'
        // version bytes are refused too.
        for old in [1, 2, 3] {
            assert_eq!(
                Frame::decode(&header(old, TAG_OK)),
                Err(WireError::BadVersion(old))
            );
        }
        // 0x7E was never assigned; the rest are the retired id-less
        // error, the batch decide/verdict pair and the locate/redirect
        // pair.
        for tag in [0x7E, 0x83, 0x11, 0x91, 0x0D, 0x89] {
            assert_eq!(
                Frame::decode(&header(PROTOCOL_VERSION, tag)),
                Err(WireError::BadTag(tag))
            );
        }
        assert_eq!(
            Frame::decode(&header(PROTOCOL_VERSION, TAG_OK)),
            Ok(Frame::Ok { id: 77 })
        );
        let mut trailing = header(PROTOCOL_VERSION, TAG_OK);
        trailing.push(0xFF);
        assert!(matches!(
            Frame::decode(&trailing),
            Err(WireError::TrailingBytes(1))
        ));
        // A header cut short of its id holds no request to answer.
        assert!(matches!(
            Frame::decode(&header(PROTOCOL_VERSION, TAG_OK)[..HEADER_LEN - 1]),
            Err(WireError::Truncated { .. })
        ));
        assert_eq!(
            header_id(&header(PROTOCOL_VERSION, TAG_OK)[..HEADER_LEN - 1]),
            None
        );
    }

    #[test]
    fn handoff_decode_rejects_base_above_watermark() {
        let good = Frame::HandoffState {
            id: 0,
            object: "o".into(),
            state: HandoffWire {
                watermark: 3,
                compaction_base: 3,
                clean: true,
                sender_clock: 0.0,
                sender_skew: 0.0,
                arrivals: vec![],
                timelines: vec![],
                spatial_ok: vec![],
                cursor_seeds: vec![],
            },
        };
        assert_eq!(Frame::decode(&good.encode()).unwrap(), good);
        let bad = Frame::HandoffState {
            id: 0,
            object: "o".into(),
            state: HandoffWire {
                compaction_base: 4,
                ..match good {
                    Frame::HandoffState { state, .. } => state,
                    _ => unreachable!(),
                }
            },
        };
        assert_eq!(
            Frame::decode(&bad.encode()),
            Err(WireError::BadValue("compaction base exceeds watermark"))
        );
    }

    #[test]
    fn handoff_conversion_rejects_non_finite_times() {
        let w = HandoffWire {
            watermark: 0,
            compaction_base: 0,
            clean: true,
            sender_clock: 0.0,
            sender_skew: 0.0,
            arrivals: vec![f64::NAN],
            timelines: vec![],
            spatial_ok: vec![],
            cursor_seeds: vec![],
        };
        assert!(w.to_handoff().is_err());
    }
}
