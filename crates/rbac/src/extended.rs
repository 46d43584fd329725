//! The coordinated access-control decision procedure — RBAC extended with
//! the paper's spatial (Eq. 3.1) and temporal (Eq. 4.1) permission states.
//!
//! For a mobile object, every permission is in one of three states:
//!
//! * **inactive** — not carried by any activated role of the subject, or
//!   never yet activated for this object;
//! * **active-but-invalid** — carried by an activated role and spatially
//!   admissible, but its validity duration is exhausted (or not started);
//! * **valid** — active and within its validity duration: only this state
//!   grants access.
//!
//! [`ExtendedRbac::decide`] runs the full gate in the order the paper's
//! prototype does (§5.2's `NapletSecurityManager`): role/permission
//! lookup → spatial constraint check against the program and the
//! execution proofs → temporal validity check → grant.
//!
//! ## The interned hot path
//!
//! Names cross this API as strings exactly once — at policy-load,
//! session-open or first contact — and are interned into dense
//! [`ObjectId`]/[`PermId`]/[`ClassId`] indices. The per-access gate then
//! works entirely on machine words: candidate permissions — each with
//! its attributes, validity class already resolved — and the object's
//! gate handle come from a generation-validated per-session view (a
//! `Vec` slot per session), spatial approvals from a `PermId` bitset and
//! validity timelines from a short per-object list. Nothing on the warm
//! path hashes.
//! In the steady state (approvals reusable, timelines warm) a granted
//! decision performs **zero heap allocations**.
//!
//! ## The concurrent decision path
//!
//! [`ExtendedRbac::decide`] takes `&self`: decisions for *distinct*
//! objects never contend. A decision borrows its session view under the
//! view map's read lock; per-object mutable state (validity timelines,
//! arrival log, spatial approvals, the clean record, incremental
//! constraint cursors and a cached proof-shard handle) lives in one
//! `ObjectGate` shard per object behind its own lock. The dense
//! permission table is read only when a view is rebuilt. Policy
//! mutations (`&mut` methods behind the guard's write lock) drop the
//! views; the [`RbacModel::generation`] stamp invalidates everything
//! derived.
//!
//! Lock order inside a decision: session-view map read → object gate →
//! proof-store shard read → constraint cache. A view rebuild (permission
//! table mutex, then the `gates` and view-map write locks) runs before
//! the view map is read-locked, never under it.
//!
//! ## The incremental fast path
//!
//! Spatial checks keep a per-(object, permission) constraint cursor:
//! the constraint automaton's state after the object's proven history.
//! Per object the cursors live in a structure-of-arrays [`CursorBank`],
//! so folding in one newly proven access advances *every* in-lockstep
//! permission's leaves in a single flat sweep. On each decision the
//! bank folds in just the proofs issued since the driven cursor last
//! advanced (watermark subscription on the [`ProofStore`]) and
//! answers the residual ∀-check from that state — `O(1)` for reactive
//! single-access programs. The from-scratch `check_residual_cached` walk
//! remains as the slow path, taken whenever a cursor is missing or
//! invalid (table version mismatch, policy generation change, unknown
//! proof symbols, watermark regression) — and rebuilds the cursor for
//! the next decision. Team-scoped permissions fold companions' histories
//! and are always checked from scratch.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use stacl_coalition::{DecisionKind, ProofStore, ShardRef, Verdict};
use stacl_ids::sync::{Mutex, RwLock};
use stacl_ids::{ClassId, IdKind, IdSet, Interner, ObjectId, PermId};
use stacl_obs::Counter;
use stacl_srac::check::{check_residual_cached, ConstraintCache, Semantics};
use stacl_srac::{Constraint, CursorBank};
use stacl_sral::ast::Name;
use stacl_sral::{Access, Program};
use stacl_temporal::{BaseTimeScheme, PermissionTimeline, TimePoint};
use stacl_trace::AccessTable;

use crate::model::{RbacError, RbacModel};
use crate::perm::{AccessPattern, HistoryScope};
use crate::session::{Session, SessionId};
use crate::sod::SodConstraint;

/// The three-state permission lifecycle of §4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PermissionState {
    /// Not active for the object.
    Inactive,
    /// Active but its validity duration is exhausted.
    ActiveButInvalid,
    /// Active and within its validity duration.
    Valid,
}

/// One access request, as presented to the permission gate.
#[derive(Debug)]
pub struct AccessRequest<'a> {
    /// The requesting mobile object (also the RBAC user of the subject).
    pub object: &'a str,
    /// The object's session (subject).
    pub session: SessionId,
    /// The access being requested.
    pub access: &'a Access,
    /// The object's declared *remaining* program (its future behaviour).
    pub program: &'a Program,
    /// The request time on the continuous time line.
    pub time: TimePoint,
    /// Allow reusing a previously-established spatial approval for this
    /// (object, permission) pair.
    ///
    /// Sound only when (a) `program` is the object's *full* remaining
    /// program derived by executing the originally-approved program, and
    /// (b) every prior decision for the object was a grant — then every
    /// future full trace was already covered by the original ∀-check
    /// (Eq. 3.1's "the permission stays active"). The caller asserts
    /// (a); the Naplet guard does so in preventive mode. The gate checks
    /// (b) itself: it keeps the object's clean record (see
    /// [`ExtendedRbac::object_clean`]) and reuses nothing once any
    /// decision for the object was denied.
    pub reuse_spatial: bool,
}

/// What a spatial check holds the object's future to: its declared
/// remaining program, or — in reactive mode — only the attempted access.
#[derive(Clone, Copy)]
enum Declared<'a> {
    Program(&'a Program),
    Access(&'a Access),
}

impl<'a> Declared<'a> {
    /// The declared future as a program (the from-scratch paths need
    /// one; only they pay for building it).
    fn program(self) -> Cow<'a, Program> {
        match self {
            Declared::Program(p) => Cow::Borrowed(p),
            Declared::Access(a) => Cow::Owned(Program::Access(a.clone())),
        }
    }
}

/// The timeline a permission draws its validity budget from: its own
/// per-object budget, or the shared budget of its validity class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BudgetKey {
    /// The permission's own budget.
    Perm(PermId),
    /// A shared class budget (aggregated validity durations).
    Class(ClassId),
}

/// A dense, id-indexed copy of one permission's decision-relevant
/// attributes. Filled from the model when the permission first becomes a
/// candidate; permission definitions are immutable in [`RbacModel`]
/// (re-definition is rejected), so entries only go stale if the whole
/// model is swapped — which the generation check detects — or a validity
/// class is (re)defined, which re-resolves the affected entries.
#[derive(Clone, Debug)]
struct PermEntry {
    name: Name,
    grants: AccessPattern,
    spatial: Option<Constraint>,
    scope: HistoryScope,
    /// The declared validity class, named in temporal denials.
    class: Option<Name>,
    /// The budget the permission draws from, with that budget's duration
    /// and scheme: its class's when the class is defined, else its own
    /// (an undefined class falls back to the permission's attributes).
    budget: BudgetKey,
    validity: Option<f64>,
    scheme: BaseTimeScheme,
}

impl PermEntry {
    /// Resolve `p`'s budget against the validity classes in force.
    fn new(
        p: &crate::perm::Permission,
        pid: PermId,
        classes: &HashMap<Name, (f64, BaseTimeScheme)>,
        class_ids: &Interner<ClassId>,
    ) -> PermEntry {
        let (budget, validity, scheme) =
            match p.class.as_ref().and_then(|c| Some((c, classes.get(c)?))) {
                Some((class, &(dur, scheme))) => {
                    (BudgetKey::Class(class_ids.intern(class)), Some(dur), scheme)
                }
                None => (BudgetKey::Perm(pid), p.validity, p.scheme),
            };
        PermEntry {
            name: p.name.clone(),
            grants: p.grants.clone(),
            spatial: p.spatial.clone(),
            scope: p.scope,
            class: p.class.clone(),
            budget,
            validity,
            scheme,
        }
    }
}

/// The cached decision view of one session, valid for one model
/// generation: its candidate permissions with their table entries, and
/// the gate shard of the session's object (a session's user is fixed,
/// and gate handles are never replaced — see
/// [`ExtendedRbac::import_gate`]). Anything that changes an entry in
/// place ([`ExtendedRbac::define_validity_class`],
/// [`ExtendedRbac::activate_epoch`]) drops every view.
#[derive(Debug)]
struct SessionView {
    generation: u64,
    /// The epoch of the permission table the entries came from.
    epoch: stacl_ids::PolicyEpoch,
    perms: Vec<(PermId, Arc<PermEntry>)>,
    gate: Arc<Mutex<ObjectGate>>,
}

/// The dense `PermId`-indexed permission table. Only session-view
/// rebuilds and epoch preparation read it; a decision reads its view's
/// copies of the entries. Entries are `Arc`s so a view shares them.
#[derive(Debug, Default)]
struct PermTable {
    /// The model generation the entries were filled against.
    generation: u64,
    /// The policy epoch the table belongs to (see
    /// [`ExtendedRbac::activate_epoch`]). Incremental rebuilds within an
    /// epoch keep the stamp; only an activation moves it.
    epoch: stacl_ids::PolicyEpoch,
    entries: Vec<Option<Arc<PermEntry>>>,
}

/// One object's validity timelines, one per budget it has drawn from.
/// An object holds a handful of budgets, so a linear scan over the
/// `Copy` keys beats hashing them.
#[derive(Debug, Default)]
struct Timelines(Vec<(BudgetKey, PermissionTimeline)>);

impl Timelines {
    fn get(&self, key: BudgetKey) -> Option<&PermissionTimeline> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, tl)| tl)
    }

    fn get_mut(&mut self, key: BudgetKey) -> Option<&mut PermissionTimeline> {
        self.0.iter_mut().find(|(k, _)| *k == key).map(|(_, tl)| tl)
    }

    fn get_or_insert_with(
        &mut self,
        key: BudgetKey,
        init: impl FnOnce() -> PermissionTimeline,
    ) -> &mut PermissionTimeline {
        let i = match self.0.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.0.push((key, init()));
                self.0.len() - 1
            }
        };
        &mut self.0[i].1
    }

    /// Add a timeline; `false` (and no change) when `key` already has one.
    fn insert(&mut self, key: BudgetKey, tl: PermissionTimeline) -> bool {
        if self.get(key).is_some() {
            return false;
        }
        self.0.push((key, tl));
        true
    }
}

/// All per-object mutable decision state, one shard per object: two
/// decisions contend only when they concern the *same* object.
#[derive(Debug)]
struct ObjectGate {
    /// True while every decision for the object was a grant — the
    /// condition under which spatial approvals may be reused (see
    /// [`AccessRequest::reuse_spatial`]).
    clean: bool,
    /// budget → validity timeline.
    timelines: Timelines,
    /// Recorded server-arrival times (replayed into new timelines so
    /// late-activated permissions see the same epochs).
    arrivals: Vec<TimePoint>,
    /// Permissions whose spatial constraint has been established for the
    /// object's declared program (see [`AccessRequest::reuse_spatial`]).
    spatial_ok: IdSet<PermId>,
    /// Incremental residual-check cursors (the fast path), keyed by
    /// `PermId` index, stored structure-of-arrays so one proof event
    /// advances every in-lockstep permission's leaves in a single
    /// flat sweep ([`CursorBank::advance_synced`]). Each cursor's
    /// model-generation stamp lives in the bank entry.
    bank: CursorBank,
    /// The object's proof shard in the store the fast path last read.
    shard: Option<ShardRef>,
}

impl Default for ObjectGate {
    fn default() -> Self {
        ObjectGate {
            clean: true,
            timelines: Timelines::default(),
            arrivals: Vec::new(),
            spatial_ok: IdSet::new(),
            bank: CursorBank::default(),
            shard: None,
        }
    }
}

/// Which budget a timeline in an [`ObjectGateExport`] draws from. Keyed
/// by *name*, not by interned id: interner orders differ across
/// coalition members, so ids are meaningless on the wire.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateBudget {
    /// The permission's own budget.
    Perm(String),
    /// A shared validity-class budget.
    Class(String),
}

impl GateBudget {
    /// The budget's name.
    pub fn name(&self) -> &str {
        match self {
            GateBudget::Perm(n) | GateBudget::Class(n) => n,
        }
    }
}

/// A by-name snapshot of one object's per-object decision state, for
/// coalition custody handoff. Carries exactly the state a future
/// decision can observe: the arrival log, the validity timelines and the
/// established spatial approvals. Cursor *seeds* (proofs consumed per
/// permission) travel as hints — the importing side rebuilds cursors
/// from its own replicated proof store, and a missing cursor only
/// declines the fast path, never changes a verdict.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectGateExport {
    /// Recorded server-arrival times, non-decreasing.
    pub arrivals: Vec<TimePoint>,
    /// Validity timelines, sorted by budget name.
    pub timelines: Vec<(GateBudget, stacl_temporal::TimelineParts)>,
    /// Names of permissions with an established spatial approval, sorted.
    pub spatial_ok: Vec<String>,
    /// Proofs consumed by each permission's spatial cursor, sorted by
    /// permission name (informational seed for [`ExtendedRbac::warm_cursor`]).
    pub cursor_seeds: Vec<(String, u64)>,
}

/// A fully-built replacement policy, produced off the hot path by
/// [`ExtendedRbac::prepare_epoch`] and installed atomically by
/// [`ExtendedRbac::activate_epoch`]. Holds everything the flip needs —
/// the model, the validity classes and the dense permission table — so
/// activation itself is a snapshot publish plus cache invalidation, with
/// no compilation or table fill on the decision path.
#[derive(Debug)]
pub struct PreparedEpoch {
    epoch: stacl_ids::PolicyEpoch,
    model: RbacModel,
    classes: HashMap<Name, (f64, BaseTimeScheme)>,
    table: PermTable,
    /// Permissions whose *spatial identity* — grant pattern, spatial
    /// constraint and history scope — is unchanged from the active
    /// policy. Their established approvals and warm cursors survive the
    /// flip: the proof they record is about the object's history and
    /// declared program checked against an identical constraint, so it
    /// is exactly the state a no-flip run would hold.
    carried: IdSet<PermId>,
}

impl PreparedEpoch {
    /// The epoch this preparation targets.
    pub fn epoch(&self) -> stacl_ids::PolicyEpoch {
        self.epoch
    }
}

/// Why an epoch transition was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EpochError {
    /// The proposed epoch does not advance the current one. Epochs are
    /// strictly increasing: a stale prepare/activate (an out-of-order or
    /// replayed rollout message) is rejected rather than rolling the
    /// policy back.
    Stale {
        /// The epoch that was proposed.
        proposed: stacl_ids::PolicyEpoch,
        /// The epoch currently active (or already prepared past).
        current: stacl_ids::PolicyEpoch,
    },
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::Stale { proposed, current } => write!(
                f,
                "stale policy epoch {proposed}: current epoch is {current} \
                 (epochs must strictly increase)"
            ),
        }
    }
}

impl std::error::Error for EpochError {}

/// The `Vec` slot of a session: ids are issued densely from 0.
fn session_slot(id: SessionId) -> Option<usize> {
    usize::try_from(id.0).ok()
}

/// RBAC with coordinated spatio-temporal enforcement.
#[derive(Debug)]
pub struct ExtendedRbac {
    /// The underlying role/permission model. Mutating it through this
    /// field is detected via [`RbacModel::generation`] and invalidates
    /// the derived id-indexed caches.
    pub model: RbacModel,
    /// Open sessions, indexed by [`SessionId`] (issued densely from 0).
    sessions: Vec<Session>,

    // ---- interned decision state (the hot path) ----
    /// Mobile-object name interner.
    objects: Interner<ObjectId>,
    /// Permission name interner.
    perms: Interner<PermId>,
    /// Validity-class name interner.
    class_ids: Interner<ClassId>,
    /// The dense permission table, filled lazily by view rebuilds.
    perm_table: Mutex<PermTable>,
    /// session index → generation-validated candidate list (in
    /// permission-name order) plus the session object's gate handle.
    session_views: RwLock<Vec<Option<SessionView>>>,
    /// `ObjectId` index → its decision-state shard (created on first
    /// decision).
    gates: RwLock<Vec<Option<Arc<Mutex<ObjectGate>>>>>,

    /// Memo of compiled constraint automata (policies are stable; only
    /// programs and histories change between gate calls).
    cache: Mutex<ConstraintCache>,
    /// Named validity classes: shared budgets that aggregate the validity
    /// durations of all member permissions (the paper's future-work item).
    classes: HashMap<Name, (f64, BaseTimeScheme)>,
    /// The active policy epoch (0 = the policy the process booted with).
    /// Plain field: mutated only through `&mut self`
    /// ([`ExtendedRbac::activate_epoch`]), which the guard reaches via
    /// its write lock — decisions (`&self`) observe a stable value.
    epoch: stacl_ids::PolicyEpoch,
}

impl Default for ExtendedRbac {
    fn default() -> Self {
        ExtendedRbac {
            model: RbacModel::default(),
            sessions: Vec::new(),
            objects: Interner::default(),
            perms: Interner::default(),
            class_ids: Interner::default(),
            perm_table: Mutex::default(),
            session_views: RwLock::new(Vec::new()),
            gates: RwLock::new(Vec::new()),
            cache: Mutex::new(ConstraintCache::new()),
            classes: HashMap::new(),
            epoch: 0,
        }
    }
}

impl ExtendedRbac {
    /// Wrap a configured model.
    pub fn new(model: RbacModel) -> Self {
        ExtendedRbac {
            model,
            ..Default::default()
        }
    }

    /// Pre-intern every access mentioned by any permission's spatial
    /// constraint, so the steady-state check path never has to grow the
    /// table mid-decision: after saturation (and once the workload's own
    /// access vocabulary is interned) the cursor fast path runs against
    /// `&AccessTable` — `compile` and [`CursorBank::check_one`]
    /// need only read access — and cursors stop being invalidated by
    /// late vocabulary growth. Call at policy-load time with each table
    /// the guard will decide against.
    pub fn saturate_alphabet(&self, table: &mut AccessTable) {
        for p in self.model.permissions() {
            if let Some(c) = &p.spatial {
                for a in c.mentioned_accesses() {
                    table.intern(a);
                }
            }
        }
    }

    /// Open a session (subject) for an authenticated user, with dynamic
    /// SoD constraints.
    pub fn open_session(
        &mut self,
        user: impl AsRef<str>,
        dsd: Vec<SodConstraint>,
    ) -> Result<SessionId, RbacError> {
        let id = SessionId(self.sessions.len() as u64);
        let s = Session::open(&self.model, id, user, dsd)?;
        self.sessions.push(s);
        Ok(id)
    }

    /// Activate a role within a session.
    pub fn activate_role(&mut self, session: SessionId, role: &str) -> Result<(), RbacError> {
        let model = &self.model;
        let s = session_slot(session)
            .and_then(|i| self.sessions.get_mut(i))
            .ok_or_else(|| RbacError::UnknownUser(format!("session {session:?}")))?;
        let res = s.activate_role(model, role);
        if res.is_ok() {
            // The session's candidate set changed.
            if let Some(view) =
                session_slot(session).and_then(|i| self.session_views.get_mut().get_mut(i))
            {
                *view = None;
            }
        }
        res
    }

    /// Access a session (read-only).
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.sessions.get(session_slot(id)?)
    }

    /// Define (or redefine) a validity class: every permission declaring
    /// `class = name` draws from one shared budget of `dur_seconds` per
    /// object under `scheme`, rather than from its own duration. This is
    /// the paper's future-work aggregation: e.g. all "editing" permissions
    /// jointly limited to the time until the 3am deadline.
    pub fn define_validity_class(
        &mut self,
        name_: impl AsRef<str>,
        dur_seconds: f64,
        scheme: BaseTimeScheme,
    ) {
        assert!(dur_seconds.is_finite() && dur_seconds >= 0.0);
        let class = stacl_sral::ast::name(name_);
        self.classes.insert(class.clone(), (dur_seconds, scheme));
        // Entries resolved before this definition drew from the old
        // duration (or, for a new class, from their own budgets). Views
        // hold their own copies of the entries, so they go too.
        let budget = BudgetKey::Class(self.class_ids.intern(&class));
        for e in self.perm_table.get_mut().entries.iter_mut().flatten() {
            if e.class.as_ref() == Some(&class) {
                *e = Arc::new(PermEntry {
                    budget,
                    validity: Some(dur_seconds),
                    scheme,
                    ..PermEntry::clone(e)
                });
            }
        }
        self.session_views.get_mut().clear();
    }

    /// Look up a validity class.
    pub fn validity_class(&self, name_: &str) -> Option<(f64, BaseTimeScheme)> {
        self.classes.get(name_).copied()
    }

    /// Record that `object` arrived at a (new) coalition server at `time`.
    /// Refills per-server validity budgets (Eq. 4.1's `t_b = t_i`
    /// scheme). Touches only the object's own gate shard — arrivals for
    /// distinct objects never contend, and never block decisions for
    /// other objects.
    pub fn note_arrival(&self, object: &str, time: TimePoint) {
        let oid = self.objects.intern(object);
        let gate = self.gate_of(oid);
        let mut gate = gate.lock();
        // Per-server clock skew can hand a newly visited server an earlier
        // timestamp than events already recorded. The arrival log must stay
        // monotone (timeline rebuilds replay it in order), so a regressed
        // arrival is counted and dropped instead of panicking downstream.
        if gate.arrivals.last().is_some_and(|&last| time < last) {
            stacl_obs::count(Counter::ClockRegression);
            return;
        }
        gate.arrivals.push(time);
        for (_, tl) in gate.timelines.0.iter_mut() {
            if tl.try_arrive_at_server(time).is_err() {
                stacl_obs::count(Counter::ClockRegression);
            }
        }
    }

    /// The decision-state shard for `object`, created on first use.
    fn gate_of(&self, oid: ObjectId) -> Arc<Mutex<ObjectGate>> {
        if let Some(g) = self.existing_gate(oid) {
            return g;
        }
        let mut gates = self.gates.write();
        let i = oid.as_usize();
        if gates.len() <= i {
            gates.resize(i + 1, None);
        }
        Arc::clone(gates[i].get_or_insert_with(Default::default))
    }

    /// The decision-state shard for `object`, if it has one.
    fn existing_gate(&self, oid: ObjectId) -> Option<Arc<Mutex<ObjectGate>>> {
        self.gates
            .read()
            .get(oid.as_usize())?
            .as_ref()
            .map(Arc::clone)
    }

    /// Rebuild the decision view of the session in `slot` — its
    /// candidates with their table entries and the object's gate handle
    /// — for the current model `generation`. Runs on the session's first
    /// decide, after a role activation and after any policy change; the
    /// warm path only reads the view.
    fn rebuild_session_view(&self, slot: usize, session: &Session, generation: u64) {
        let mut pt = self.perm_table.lock();
        // The model changed since the table was filled: drop every dense
        // entry so attributes are re-read from the current model.
        if pt.generation != generation {
            for e in pt.entries.iter_mut() {
                *e = None;
            }
            pt.generation = generation;
        }
        let names = session.available_permissions(&self.model);
        let mut perms = Vec::with_capacity(names.len());
        for n in &names {
            let pid = self.perms.intern(n);
            let idx = pid.as_usize();
            if pt.entries.len() <= idx {
                pt.entries.resize(idx + 1, None);
            }
            if pt.entries[idx].is_none() {
                if let Some(p) = self.model.permission(n) {
                    pt.entries[idx] = Some(Arc::new(PermEntry::new(
                        p,
                        pid,
                        &self.classes,
                        &self.class_ids,
                    )));
                }
            }
            if let Some(e) = &pt.entries[idx] {
                perms.push((pid, Arc::clone(e)));
            }
        }
        stacl_obs::count(Counter::SnapshotRebuild);
        let view = SessionView {
            generation,
            epoch: pt.epoch,
            perms,
            gate: self.gate_of(self.objects.intern(&session.user)),
        };
        drop(pt);
        let mut views = self.session_views.write();
        if views.len() <= slot {
            views.resize_with(slot + 1, || None);
        }
        views[slot] = Some(view);
    }

    /// The paper's permission gate. On success the caller must issue an
    /// execution proof (via the [`ProofStore`]) and record the grant.
    ///
    /// Runs entirely on interned ids and takes `&self`: decisions for
    /// distinct objects proceed concurrently, contending only on the
    /// requested object's gate shard (plus short read locks and the
    /// constraint cache on slow paths). In the steady state (cursor fast
    /// path or spatial approval reusable, timeline memo warm) a grant
    /// allocates nothing.
    ///
    /// Every verdict is stamped with the active [`stacl_ids::PolicyEpoch`].
    /// `epoch` only moves through `&mut self` (the guard's write lock), so
    /// one `decide` call — and therefore one verdict — observes exactly
    /// one epoch: the stamp and the session view's entries always agree.
    pub fn decide(
        &self,
        req: &AccessRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        self.decide_inner(req, Declared::Program(req.program), proofs, table)
            .with_epoch(self.epoch)
    }

    /// [`ExtendedRbac::decide`] in reactive mode: the object declares only
    /// the attempted access, so the spatial check is
    /// `history · req.access ⊨ C` and `req.program` is not consulted. The
    /// verdict is the one `decide` gives with
    /// `program = Program::Access(req.access.clone())`, without building
    /// that program on every decision.
    pub fn decide_reactive(
        &self,
        req: &AccessRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        self.decide_inner(req, Declared::Access(req.access), proofs, table)
            .with_epoch(self.epoch)
    }

    fn decide_inner(
        &self,
        req: &AccessRequest<'_>,
        declared: Declared<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        // 1. Subject and candidate permissions: borrow the session's view
        // under the map's read lock, rebuilding it first if it is stale.
        let Some((slot, session)) = session_slot(req.session)
            .and_then(|slot| Some((slot, self.sessions.get(slot)?)))
            .filter(|(_, s)| &*s.user == req.object)
        else {
            return DecisionKind::DeniedNoPermission.into();
        };
        let generation = self.model.generation();
        let mut views = self.session_views.read();
        let fresh = views
            .get(slot)
            .and_then(Option::as_ref)
            .is_some_and(|v| v.generation == generation);
        if !fresh {
            drop(views);
            self.rebuild_session_view(slot, session, generation);
            views = self.session_views.read();
        }
        let Some(view) = views.get(slot).and_then(Option::as_ref) else {
            return DecisionKind::DeniedNoPermission.into();
        };
        debug_assert_eq!(
            view.epoch, self.epoch,
            "decision loaded a permission table from another epoch"
        );
        let mut gate = view.gate.lock();
        let verdict = self.decide_gated(&mut gate, &view.perms, req, declared, proofs, table);
        gate.clean &= verdict.is_granted();
        verdict
    }

    /// Steps 2–3 of the gate, under the object's gate lock.
    fn decide_gated(
        &self,
        gate: &mut ObjectGate,
        perms: &[(PermId, Arc<PermEntry>)],
        req: &AccessRequest<'_>,
        declared: Declared<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        let reuse_spatial = req.reuse_spatial && gate.clean;
        // 2–3. Try each covering candidate: spatial, then temporal.
        let mut covered = false;
        let mut spatial_failure: Option<String> = None;
        let mut temporal_failure: Option<String> = None;
        for (pid, entry) in perms {
            let pid = *pid;
            if !entry.grants.covers(req.access) {
                continue;
            }
            covered = true;

            // Spatial (Eq. 3.1): the object's remaining program, prefixed
            // by its proven history, must satisfy the constraint.
            if let Some(c) = &entry.spatial {
                // Approval reuse is unsound for team scope: companions'
                // histories grow independently of this object's execution.
                let already_approved = reuse_spatial
                    && entry.scope == HistoryScope::PerObject
                    && gate.spatial_ok.contains(pid);
                if !already_approved {
                    let holds =
                        self.spatial_holds(gate, pid, entry, req.object, declared, proofs, table);
                    if !holds {
                        gate.spatial_ok.remove(pid);
                        spatial_failure = Some(c.to_string());
                        continue;
                    }
                    gate.spatial_ok.insert(pid);
                }
            }

            // Temporal (Eq. 4.1): activate on first grant, then require
            // the valid state. A permission in a validity class shares the
            // class's per-object timeline (aggregated budget); the entry
            // carries the resolved budget.
            let (bkey, validity, scheme) = (entry.budget, entry.validity, entry.scheme);
            // Destructure for disjoint field borrows: the timeline entry
            // closure replays the arrival log.
            let ObjectGate {
                timelines,
                arrivals,
                ..
            } = gate;
            let tl = timelines.get_or_insert_with(bkey, || {
                let mut tl = match validity {
                    Some(d) => PermissionTimeline::new(d, scheme),
                    None => PermissionTimeline::unlimited(scheme),
                };
                for &t in arrivals.iter() {
                    if t <= req.time {
                        tl.arrive_at_server(t);
                    }
                }
                tl
            });
            if tl.try_activate(req.time).is_err() {
                // Clock skew handed this request a timestamp earlier than an
                // event already on the timeline: deny-with-reason (counted)
                // instead of panicking inside the guard.
                stacl_obs::count(Counter::ClockRegression);
                temporal_failure = Some(format!(
                    "clock regression: request time {} precedes a recorded \
                     timeline event for permission `{}`",
                    req.time, entry.name
                ));
                continue;
            }
            if tl.is_valid_at(req.time) {
                return Verdict::granted();
            }
            // `validity` is necessarily `Some` here: unlimited timelines
            // are valid at every time point.
            temporal_failure = Some(format!(
                "permission `{}` validity duration exhausted (dur={}, scheme={}{})",
                entry.name,
                validity.map(|d| d.to_string()).unwrap_or_default(),
                scheme.name(),
                entry
                    .class
                    .as_ref()
                    .map(|c| format!(", class={c}"))
                    .unwrap_or_default()
            ));
        }

        // All candidates failed: report the most informative reason.
        if !covered {
            DecisionKind::DeniedNoPermission.into()
        } else if let Some(reason) = temporal_failure {
            Verdict::denied(DecisionKind::DeniedTemporal, reason)
        } else if let Some(constraint) = spatial_failure {
            Verdict::denied(DecisionKind::DeniedSpatial, constraint)
        } else {
            DecisionKind::DeniedNoPermission.into()
        }
    }

    /// The spatial residual check for one candidate permission, trying
    /// the incremental cursor fast path first (see the module docs and
    /// DESIGN.md §8). The fast path may only *decline* — every verdict it
    /// returns is identical to the from-scratch walk, which remains as
    /// the slow path and (re)builds the cursor for the next decision.
    #[allow(clippy::too_many_arguments)]
    fn spatial_holds(
        &self,
        gate: &mut ObjectGate,
        pid: PermId,
        entry: &PermEntry,
        object: &str,
        declared: Declared<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> bool {
        let c = entry
            .spatial
            .as_ref()
            .expect("spatial_holds called only for constrained permissions");
        // Team scope folds companions' histories, which grow behind this
        // object's back: always from scratch.
        if entry.scope == HistoryScope::Team {
            // Decline rule 5: team-scoped history is always from scratch.
            stacl_obs::count(Counter::CursorDeclineTeamScope);
            return check_residual_cached(
                &proofs.combined_history(table),
                &declared.program(),
                c,
                table,
                Semantics::ForAll,
                &mut self.cache.lock(),
            )
            .holds;
        }
        let generation = self.model.generation();
        let key = pid.index();
        // Validity (DESIGN.md §8): same policy generation (the compiled
        // constraint is current), same table id-mapping, and the proof
        // store hasn't been swapped under us (consumed beyond its
        // watermark). The *first failing rule* is the counted decline.
        let decline = match gate.bank.consumed(key) {
            None => Counter::CursorColdStart,
            Some(_) if gate.bank.generation(key) != Some(generation) => {
                Counter::CursorDeclineGeneration
            }
            Some(_) if !gate.bank.in_sync_with(key, table) => Counter::CursorDeclineTableVersion,
            Some(consumed) => {
                // One shard read yields the watermark and the proofs
                // issued since the cursor last advanced. Folding them in
                // advances every other permission's cursor in lockstep
                // in the same SoA sweep. An unknown or out-of-class
                // symbol aborts the fold (the bank is left untouched by
                // the failing step) and falls through to the slow path,
                // which rebuilds this cursor. The gate keeps the shard
                // handle, so a warm read skips the store's shard map.
                let ObjectGate { bank, shard, .. } = gate;
                let fast = proofs.read_history_via(object, shard, |h| {
                    if consumed > h.watermark() {
                        return Err(Counter::CursorDeclineWatermark);
                    }
                    let tbl: &AccessTable = table;
                    if !h.suffix(consumed).all(|a| bank.advance_synced(key, a, tbl)) {
                        return Err(Counter::CursorDeclineUnknownSymbol);
                    }
                    let residual = match declared {
                        Declared::Program(p) => bank.check_residual_program(key, p, table),
                        Declared::Access(a) => bank.check_one(key, a, table),
                    };
                    // Decline rule 3: a residual symbol outside the
                    // cursor's compiled alphabet.
                    residual.ok_or(Counter::CursorDeclineUnknownSymbol)
                });
                match fast {
                    Ok(holds) => {
                        stacl_obs::count(Counter::CursorFastPathHit);
                        return holds;
                    }
                    Err(decline) => decline,
                }
            }
        };
        stacl_obs::count(decline);
        // Slow path + cursor rebuild.
        let history = proofs.history_of(object, table);
        let holds = check_residual_cached(
            &history,
            &declared.program(),
            c,
            table,
            Semantics::ForAll,
            &mut self.cache.lock(),
        )
        .holds;
        gate.bank
            .rebuild(key, c, &history, table, &mut self.cache.lock(), generation);
        holds
    }

    /// The interned budget key a permission draws its validity from, if
    /// the relevant names were ever interned (i.e. a timeline can exist).
    fn budget_key_of(&self, perm: &str) -> Option<BudgetKey> {
        match self.model.permission(perm).and_then(|p| p.class.as_ref()) {
            Some(class) if self.classes.contains_key(class) => {
                self.class_ids.get(class).map(BudgetKey::Class)
            }
            _ => self.perms.get(perm).map(BudgetKey::Perm),
        }
    }

    /// The `(object, budget)` timeline key, if both names are known.
    fn timeline_key(&self, object: &str, perm: &str) -> Option<(ObjectId, BudgetKey)> {
        let oid = self.objects.get(object)?;
        let bkey = self.budget_key_of(perm)?;
        Some((oid, bkey))
    }

    /// The three-state classification of a permission for an object at a
    /// time (§4).
    pub fn permission_state(&self, object: &str, perm: &str, time: TimePoint) -> PermissionState {
        let Some((oid, bkey)) = self.timeline_key(object, perm) else {
            return PermissionState::Inactive;
        };
        let Some(gate) = self.existing_gate(oid) else {
            return PermissionState::Inactive;
        };
        let gate = gate.lock();
        match gate.timelines.get(bkey) {
            None => PermissionState::Inactive,
            Some(tl) => {
                if !tl.active_fn().at(time) {
                    PermissionState::Inactive
                } else if tl.is_valid_at(time) {
                    PermissionState::Valid
                } else {
                    PermissionState::ActiveButInvalid
                }
            }
        }
    }

    /// Deactivate a permission for an object (role released, session
    /// closed, or an enforcement event set `valid` to 0).
    pub fn release_permission(&self, object: &str, perm: &str, time: TimePoint) {
        if let Some((oid, bkey)) = self.timeline_key(object, perm) {
            if let Some(gate) = self.existing_gate(oid) {
                if let Some(tl) = gate.lock().timelines.get_mut(bkey) {
                    if tl.try_deactivate(time).is_err() {
                        stacl_obs::count(Counter::ClockRegression);
                    }
                }
            }
        }
    }

    /// Inspect a snapshot of a permission's timeline, if it ever became
    /// active. Returns a clone: the live timeline sits behind the
    /// object's gate lock.
    pub fn timeline(&self, object: &str, perm: &str) -> Option<PermissionTimeline> {
        let (oid, bkey) = self.timeline_key(object, perm)?;
        let gate = self.existing_gate(oid)?;
        let tl = gate.lock().timelines.get(bkey).cloned();
        tl
    }

    /// The smallest cursor `consumed` count across an object's warm
    /// cursors — the proof-history *watermark* every live cursor has
    /// already read past. Proof prefixes below this index can be
    /// compacted without changing any future fast-path answer. `None`
    /// when the object has no gate or no warm cursors (in which case the
    /// caller may compact the whole history).
    pub fn min_cursor_consumed(&self, object: &str) -> Option<usize> {
        let oid = self.objects.get(object)?;
        let gate = self.existing_gate(oid)?;
        let gate = gate.lock();
        gate.bank
            .iter_consumed()
            .map(|(_, consumed)| consumed)
            .min()
    }

    /// Whether every decision for `object` so far was a grant — the
    /// object's clean record, which gates spatial-approval reuse and
    /// travels with custody handoffs. An object with no gate is clean.
    pub fn object_clean(&self, object: &str) -> bool {
        self.objects
            .get(object)
            .and_then(|oid| self.existing_gate(oid))
            .is_none_or(|gate| gate.lock().clean)
    }

    /// Export an object's gate shard by name, for coalition custody
    /// handoff. An object with no recorded state exports an empty
    /// snapshot (the receiving member starts it fresh). Deterministic:
    /// every list is sorted by name.
    pub fn export_gate(&self, object: &str) -> ObjectGateExport {
        let Some(oid) = self.objects.get(object) else {
            return ObjectGateExport::default();
        };
        let Some(gate) = self.existing_gate(oid) else {
            return ObjectGateExport::default();
        };
        let gate = gate.lock();
        let mut timelines: Vec<(GateBudget, stacl_temporal::TimelineParts)> = gate
            .timelines
            .0
            .iter()
            .map(|(k, tl)| {
                let key = match *k {
                    BudgetKey::Perm(p) => GateBudget::Perm(self.perms.resolve(p).to_string()),
                    BudgetKey::Class(c) => GateBudget::Class(self.class_ids.resolve(c).to_string()),
                };
                (key, tl.to_parts())
            })
            .collect();
        timelines.sort_by(|a, b| a.0.cmp(&b.0));
        let mut spatial_ok: Vec<String> = gate
            .spatial_ok
            .iter()
            .map(|p| self.perms.resolve(p).to_string())
            .collect();
        spatial_ok.sort_unstable();
        let mut cursor_seeds: Vec<(String, u64)> = gate
            .bank
            .iter_consumed()
            .map(|(key, consumed)| (self.perms.resolve(PermId(key)).to_string(), consumed as u64))
            .collect();
        cursor_seeds.sort_unstable();
        ObjectGateExport {
            arrivals: gate.arrivals.clone(),
            timelines,
            spatial_ok,
            cursor_seeds,
        }
    }

    /// Install an exported gate shard for `object` with its clean record
    /// (see [`ExtendedRbac::object_clean`]), replacing any state this
    /// member previously held for it. Validates everything — the export
    /// typically arrives over a wire from another coalition member.
    /// Cursors are *not* reconstructed here (see
    /// [`ExtendedRbac::warm_cursor`]); a cold cursor only declines the
    /// fast path.
    pub fn import_gate(
        &self,
        object: &str,
        export: &ObjectGateExport,
        clean: bool,
    ) -> Result<(), String> {
        for w in export.arrivals.windows(2) {
            if w[1] < w[0] {
                return Err(format!(
                    "gate arrivals out of order: {} precedes {}",
                    w[1], w[0]
                ));
            }
        }
        let mut gate = ObjectGate {
            clean,
            arrivals: export.arrivals.clone(),
            ..ObjectGate::default()
        };
        for (key, parts) in &export.timelines {
            let tl = PermissionTimeline::from_parts(parts.clone())
                .map_err(|e| format!("timeline for budget `{}`: {e}", key.name()))?;
            let bkey = match key {
                GateBudget::Perm(n) => BudgetKey::Perm(self.perms.intern(n)),
                GateBudget::Class(n) => BudgetKey::Class(self.class_ids.intern(n)),
            };
            if !gate.timelines.insert(bkey, tl) {
                return Err(format!("duplicate timeline budget `{}`", key.name()));
            }
        }
        for p in &export.spatial_ok {
            gate.spatial_ok.insert(self.perms.intern(p));
        }
        // Replace the shard's contents in place: session views cache the
        // gate handle, so the handle itself must never change.
        *self.gate_of(self.objects.intern(object)).lock() = gate;
        Ok(())
    }

    /// Rebuild the spatial cursor for `(object, perm)` from this member's
    /// proof store, after a custody import. Returns `true` when a cursor
    /// was installed. Purely an optimisation: verdicts are identical with
    /// or without the cursor (it declines, never disagrees).
    pub fn warm_cursor(
        &self,
        object: &str,
        perm: &str,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> bool {
        let Some(pid) = self.perms.get(perm) else {
            return false;
        };
        let Some(p) = self.model.permission(perm) else {
            return false;
        };
        let Some(c) = &p.spatial else {
            return false;
        };
        if p.scope == HistoryScope::Team {
            return false; // team scope never uses cursors
        }
        let Some(oid) = self.objects.get(object) else {
            return false;
        };
        let generation = self.model.generation();
        let history = proofs.history_of(object, table);
        self.gate_of(oid).lock().bank.rebuild(
            pid.index(),
            c,
            &history,
            table,
            &mut self.cache.lock(),
            generation,
        )
    }

    /// The active policy epoch (0 until the first
    /// [`ExtendedRbac::activate_epoch`]).
    pub fn epoch(&self) -> stacl_ids::PolicyEpoch {
        self.epoch
    }

    /// Build a replacement policy off the hot path: everything expensive
    /// about a flip — permission-table fill, constraint-vocabulary
    /// interning, automaton compilation — happens here, against `&self`,
    /// while decisions keep flowing under the old epoch. The returned
    /// [`PreparedEpoch`] is installed by
    /// [`ExtendedRbac::activate_epoch`].
    ///
    /// `table` must be (one of) the access table(s) the guard decides
    /// against: the new constraint vocabulary is interned into it so
    /// warm-compiled automata stay usable after the flip.
    ///
    /// Fails with [`EpochError::Stale`] unless `epoch` strictly advances
    /// the active epoch — replayed or out-of-order rollout messages can
    /// never roll the policy back.
    pub fn prepare_epoch(
        &self,
        mut model: RbacModel,
        classes: impl IntoIterator<Item = (String, f64, BaseTimeScheme)>,
        epoch: stacl_ids::PolicyEpoch,
        table: &mut AccessTable,
    ) -> Result<PreparedEpoch, EpochError> {
        if epoch <= self.epoch {
            return Err(EpochError::Stale {
                proposed: epoch,
                current: self.epoch,
            });
        }
        // A freshly parsed model starts at generation 0 — the same stamp
        // the booted policy may still carry. Force it past the active
        // generation so nothing validated against the old model (session
        // candidate lists, spatial cursors) survives the flip.
        model.advance_generation_past(self.model.generation());
        // Intern the incoming constraint vocabulary first: automata
        // compiled below are keyed by the table version, and the decision
        // path must find them there after activation.
        for p in model.permissions() {
            if let Some(c) = &p.spatial {
                for a in c.mentioned_accesses() {
                    table.intern(a);
                }
            }
        }
        let classes: HashMap<Name, (f64, BaseTimeScheme)> = classes
            .into_iter()
            .map(|(n, dur, scheme)| {
                assert!(dur.is_finite() && dur >= 0.0);
                (stacl_sral::ast::name(n), (dur, scheme))
            })
            .collect();
        // Fill the dense permission table for *every* permission (not
        // lazily, as session rebuilds do), with budgets resolved against
        // the incoming classes: the flip must not pay a cold-start fill
        // storm. The shared interner keeps `PermId`s
        // stable across epochs. While filling, diff each entry against
        // the active table: spatially-identical permissions are marked
        // `carried` so activation can keep their warm state instead of
        // forcing every object through a from-scratch residual check.
        let current = self.perm_table.lock();
        let mut carried = IdSet::new();
        let mut entries: Vec<Option<Arc<PermEntry>>> = Vec::new();
        for p in model.permissions() {
            let pid = self.perms.intern(&p.name);
            let idx = pid.as_usize();
            if entries.len() <= idx {
                entries.resize(idx + 1, None);
            }
            if current
                .entries
                .get(idx)
                .and_then(Option::as_ref)
                .is_some_and(|old| {
                    old.grants == p.grants && old.spatial == p.spatial && old.scope == p.scope
                })
            {
                carried.insert(pid);
            }
            entries[idx] = Some(Arc::new(PermEntry::new(p, pid, &classes, &self.class_ids)));
        }
        drop(current);
        // Warm the compiled-constraint cache: entries inserted now carry
        // the *current* cache epoch, which `begin_epoch`'s two-epoch
        // grace keeps alive across the flip.
        {
            let mut cache = self.cache.lock();
            for p in model.permissions() {
                if let Some(c) = &p.spatial {
                    stacl_srac::cursor::precompile(c, table, &mut cache);
                }
            }
        }
        stacl_obs::count(Counter::EpochPrepare);
        Ok(PreparedEpoch {
            epoch,
            table: PermTable {
                generation: model.generation(),
                epoch,
                entries,
            },
            model,
            classes,
            carried,
        })
    }

    /// Flip to a prepared epoch. Cheap by construction — everything
    /// expensive happened in [`ExtendedRbac::prepare_epoch`]: this
    /// publishes the pre-built permission table, swaps the model and
    /// validity classes, drops state the new policy invalidates
    /// (session candidate lists, and spatial approvals/cursors for
    /// permissions whose constraint changed — per-object *budgets*
    /// persist: a policy change does not refund spent validity time),
    /// and ages the constraint cache.
    ///
    /// Spatial state for `carried` permissions — spatially identical in
    /// the old and new policy — survives the flip with its cursor
    /// re-stamped to the new generation. The carried approval is a proof
    /// about the object's history and declared program against an
    /// identical constraint, so keeping it is behaviourally identical to
    /// a no-flip run; dropping it would charge every warm
    /// (object, permission) pair a from-scratch residual check for
    /// nothing.
    ///
    /// Takes `&mut self`, i.e. the guard's write lock: no decision can
    /// run during the flip, so no decision ever mixes two epochs.
    pub fn activate_epoch(
        &mut self,
        prepared: PreparedEpoch,
    ) -> Result<stacl_ids::PolicyEpoch, EpochError> {
        if prepared.epoch <= self.epoch {
            return Err(EpochError::Stale {
                proposed: prepared.epoch,
                current: self.epoch,
            });
        }
        let PreparedEpoch {
            epoch,
            model,
            classes,
            table,
            carried,
        } = prepared;
        let generation = table.generation;
        self.model = model;
        self.classes = classes;
        *self.perm_table.get_mut() = table;
        self.session_views.get_mut().clear();
        // Established spatial approvals are proofs about the *old*
        // constraints; the new policy may constrain differently. Only
        // spatially-unchanged (`carried`) permissions keep theirs, with
        // cursors re-stamped so the fast path stays warm across the
        // flip.
        for gate in self.gates.get_mut().iter().flatten() {
            let mut g = gate.lock();
            g.spatial_ok.intersect_with(&carried);
            g.bank.retain_keys(|key| carried.contains(PermId(key)));
            g.bank.set_generation_all(generation);
        }
        self.cache.lock().begin_epoch(epoch);
        self.epoch = epoch;
        stacl_obs::count(Counter::EpochActivate);
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::{AccessPattern, Permission};
    use stacl_srac::parser::parse_constraint;
    use stacl_sral::builder::*;
    use stacl_temporal::BaseTimeScheme;

    fn tp(s: f64) -> TimePoint {
        TimePoint::new(s)
    }

    /// A model with one mobile object `naplet-1` holding role `worker`
    /// with the given permission (named `p-exec` by convention).
    fn model_with(perm: Permission) -> RbacModel {
        let mut m = RbacModel::new();
        m.add_user("naplet-1");
        m.add_role("worker");
        let name = perm.name.clone();
        m.add_permission(perm).unwrap();
        m.assign_permission("worker", &name).unwrap();
        m.assign_user("naplet-1", "worker").unwrap();
        m
    }

    /// A model with one mobile object `naplet-1` holding role `worker`
    /// with permission `p-exec` = `exec:rsw:*`.
    fn setup(perm: Permission) -> (ExtendedRbac, SessionId) {
        let mut x = ExtendedRbac::new(model_with(perm));
        let sid = x.open_session("naplet-1", vec![]).unwrap();
        x.activate_role(sid, "worker").unwrap();
        (x, sid)
    }

    fn exec_perm() -> Permission {
        Permission::new("p-exec", AccessPattern::parse("exec:rsw:*").unwrap())
    }

    #[test]
    fn plain_grant() {
        let (x, sid) = setup(exec_perm());
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let access = Access::new("exec", "rsw", "s1");
        let req = AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access,
            program: &access_prog(),
            time: tp(0.0),
            reuse_spatial: false,
        };
        assert!(x.decide(&req, &proofs, &mut table).is_granted());
    }

    fn access_prog() -> Program {
        access("exec", "rsw", "s1")
    }

    #[test]
    fn denied_without_role_permission() {
        let (x, sid) = setup(exec_perm());
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let access_ = Access::new("write", "db", "s1"); // not covered
        let prog = access("write", "db", "s1");
        let req = AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(0.0),
            reuse_spatial: false,
        };
        let d = x.decide(&req, &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedNoPermission);
        assert_eq!(d.reason, None);
    }

    #[test]
    fn spatial_constraint_denies_overuse_across_servers() {
        // Example 3.5 / the intro example: ≤5 coalition-wide accesses to
        // the restricted software.
        let perm = exec_perm().with_spatial(parse_constraint("count(0, 5, resource=rsw)").unwrap());
        let (x, sid) = setup(perm);
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        // 5 proofs already accumulated on s1.
        for i in 0..5 {
            proofs.issue("naplet-1", Access::new("exec", "rsw", "s1"), tp(i as f64));
        }
        let access_ = Access::new("exec", "rsw", "s2");
        let prog = access("exec", "rsw", "s2");
        let req = AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(10.0),
            reuse_spatial: false,
        };
        let d = x.decide(&req, &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedSpatial, "{d:?}");
        assert!(d.reason_str().contains("count"), "{d:?}");
    }

    #[test]
    fn spatial_constraint_allows_within_budget() {
        let perm = exec_perm().with_spatial(parse_constraint("count(0, 5, resource=rsw)").unwrap());
        let (x, sid) = setup(perm);
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        for i in 0..4 {
            proofs.issue("naplet-1", Access::new("exec", "rsw", "s1"), tp(i as f64));
        }
        let access_ = Access::new("exec", "rsw", "s2");
        let prog = access("exec", "rsw", "s2");
        let req = AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(10.0),
            reuse_spatial: false,
        };
        assert!(x.decide(&req, &proofs, &mut table).is_granted());
    }

    #[test]
    fn ordering_constraint_gates_on_program() {
        // "read manifest before exec": the declared remaining program must
        // prove the ordering (or the history must already contain it).
        let perm = Permission::new("p-exec", AccessPattern::any())
            .with_spatial(parse_constraint("[read manifest @ s1] before [exec rsw @ s1]").unwrap());
        let mut m = RbacModel::new();
        m.add_user("o");
        m.add_role("r");
        m.add_permission(perm).unwrap();
        m.assign_permission("r", "p-exec").unwrap();
        m.assign_user("o", "r").unwrap();
        let mut x = ExtendedRbac::new(m);
        let sid = x.open_session("o", vec![]).unwrap();
        x.activate_role(sid, "r").unwrap();
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();

        let access_ = Access::new("read", "manifest", "s1");
        // Good program: read then exec.
        let good = seq([
            access("read", "manifest", "s1"),
            access("exec", "rsw", "s1"),
        ]);
        let req = AccessRequest {
            object: "o",
            session: sid,
            access: &access_,
            program: &good,
            time: tp(0.0),
            reuse_spatial: false,
        };
        assert!(x.decide(&req, &proofs, &mut table).is_granted());

        // Bad program: exec then read.
        let bad = seq([
            access("exec", "rsw", "s1"),
            access("read", "manifest", "s1"),
        ]);
        let req2 = AccessRequest {
            object: "o",
            session: sid,
            access: &access_,
            program: &bad,
            time: tp(1.0),
            reuse_spatial: false,
        };
        assert_eq!(
            x.decide(&req2, &proofs, &mut table).kind,
            DecisionKind::DeniedSpatial
        );
    }

    #[test]
    fn temporal_validity_exhausts() {
        let perm = exec_perm().with_validity(5.0, BaseTimeScheme::WholeLifetime);
        let (x, sid) = setup(perm);
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        x.note_arrival("naplet-1", tp(0.0));
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        // First grant at t=0 activates the permission.
        let mk = |t: f64| AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(t),
            reuse_spatial: false,
        };
        assert!(x.decide(&mk(0.0), &proofs, &mut table).is_granted());
        assert!(x.decide(&mk(4.0), &proofs, &mut table).is_granted());
        // The permission has been active since t=0; at t=6 its 5-unit
        // validity duration is exhausted.
        let d = x.decide(&mk(6.0), &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedTemporal, "{d:?}");
        assert!(d.reason_str().contains("p-exec"), "{d:?}");
        assert_eq!(
            x.permission_state("naplet-1", "p-exec", tp(6.0)),
            PermissionState::ActiveButInvalid
        );
    }

    #[test]
    fn per_server_scheme_refills_on_migration() {
        let perm = exec_perm().with_validity(5.0, BaseTimeScheme::CurrentServer);
        let (x, sid) = setup(perm);
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        x.note_arrival("naplet-1", tp(0.0));
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        let mk = |t: f64| AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(t),
            reuse_spatial: false,
        };
        assert!(x.decide(&mk(0.0), &proofs, &mut table).is_granted());
        // Budget exhausted at t=5 … denied at t=6.
        assert!(!x.decide(&mk(6.0), &proofs, &mut table).is_granted());
        // Migration at t=7 refills the per-server budget.
        x.note_arrival("naplet-1", tp(7.0));
        assert!(x.decide(&mk(8.0), &proofs, &mut table).is_granted());
    }

    #[test]
    fn permission_state_transitions() {
        let perm = exec_perm().with_validity(2.0, BaseTimeScheme::WholeLifetime);
        let (x, sid) = setup(perm);
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        assert_eq!(
            x.permission_state("naplet-1", "p-exec", tp(0.0)),
            PermissionState::Inactive
        );
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        let req = AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(0.0),
            reuse_spatial: false,
        };
        x.decide(&req, &proofs, &mut table);
        assert_eq!(
            x.permission_state("naplet-1", "p-exec", tp(1.0)),
            PermissionState::Valid
        );
        assert_eq!(
            x.permission_state("naplet-1", "p-exec", tp(3.0)),
            PermissionState::ActiveButInvalid
        );
        x.release_permission("naplet-1", "p-exec", tp(4.0));
        assert_eq!(
            x.permission_state("naplet-1", "p-exec", tp(5.0)),
            PermissionState::Inactive
        );
    }

    #[test]
    fn wrong_session_user_denied() {
        let (mut x, sid) = setup(exec_perm());
        x.model.add_user("intruder");
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        let req = AccessRequest {
            object: "intruder", // session belongs to naplet-1
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(0.0),
            reuse_spatial: false,
        };
        assert_eq!(
            x.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedNoPermission
        );
    }

    #[test]
    fn model_mutation_invalidates_session_cache() {
        // Grow the model mid-flight through the pub field: the cached
        // candidate list must pick up the new permission.
        let (mut x, sid) = setup(exec_perm());
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let write = Access::new("write", "db", "s1");
        let wprog = access("write", "db", "s1");
        let mk = |t: f64| AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &write,
            program: &wprog,
            time: tp(t),
            reuse_spatial: false,
        };
        // Warm the cache with a denial.
        assert_eq!(
            x.decide(&mk(0.0), &proofs, &mut table).kind,
            DecisionKind::DeniedNoPermission
        );
        // Add a covering permission to the live model.
        x.model
            .add_permission(Permission::new(
                "p-write",
                AccessPattern::parse("write:db:*").unwrap(),
            ))
            .unwrap();
        x.model.assign_permission("worker", "p-write").unwrap();
        // The generation check rebuilds the candidate list: now granted.
        assert!(x.decide(&mk(1.0), &proofs, &mut table).is_granted());
    }

    #[test]
    fn team_scope_counts_companions() {
        // Two devices sharing one licence pool: the cap applies to their
        // combined execution proofs (§1's "companions").
        let perm = exec_perm()
            .with_spatial(parse_constraint("count(0, 3, resource=rsw)").unwrap())
            .with_scope(crate::perm::HistoryScope::Team);
        let mut m = RbacModel::new();
        m.add_user("dev-a");
        m.add_user("dev-b");
        m.add_role("worker");
        m.add_permission(perm).unwrap();
        m.assign_permission("worker", "p-exec").unwrap();
        m.assign_user("dev-a", "worker").unwrap();
        m.assign_user("dev-b", "worker").unwrap();
        let mut x = ExtendedRbac::new(m);
        let sid_b = x.open_session("dev-b", vec![]).unwrap();
        x.activate_role(sid_b, "worker").unwrap();

        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        // dev-a (a companion) already used the pool 3 times.
        for i in 0..3 {
            proofs.issue("dev-a", Access::new("exec", "rsw", "s1"), tp(i as f64));
        }
        // dev-b's own history is empty, but the team pool is exhausted.
        let access_ = Access::new("exec", "rsw", "s2");
        let prog = access("exec", "rsw", "s2");
        let req = AccessRequest {
            object: "dev-b",
            session: sid_b,
            access: &access_,
            program: &prog,
            time: tp(10.0),
            reuse_spatial: false,
        };
        let d = x.decide(&req, &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedSpatial, "{d:?}");
    }

    #[test]
    fn per_object_scope_ignores_companions() {
        let perm = exec_perm().with_spatial(parse_constraint("count(0, 3, resource=rsw)").unwrap());
        let mut m = RbacModel::new();
        m.add_user("dev-a");
        m.add_user("dev-b");
        m.add_role("worker");
        m.add_permission(perm).unwrap();
        m.assign_permission("worker", "p-exec").unwrap();
        m.assign_user("dev-b", "worker").unwrap();
        m.assign_user("dev-a", "worker").unwrap();
        let mut x = ExtendedRbac::new(m);
        let sid_b = x.open_session("dev-b", vec![]).unwrap();
        x.activate_role(sid_b, "worker").unwrap();
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        for i in 0..3 {
            proofs.issue("dev-a", Access::new("exec", "rsw", "s1"), tp(i as f64));
        }
        let access_ = Access::new("exec", "rsw", "s2");
        let prog = access("exec", "rsw", "s2");
        let req = AccessRequest {
            object: "dev-b",
            session: sid_b,
            access: &access_,
            program: &prog,
            time: tp(10.0),
            reuse_spatial: false,
        };
        assert!(x.decide(&req, &proofs, &mut table).is_granted());
    }

    #[test]
    fn validity_class_aggregates_budgets() {
        // Two permissions in one class: their valid-time draws from a
        // single 5-second budget per object.
        let mut m = RbacModel::new();
        m.add_user("o");
        m.add_role("r");
        m.add_permission(
            Permission::new("p-edit", AccessPattern::parse("edit:*:*").unwrap())
                .with_class("night-work"),
        )
        .unwrap();
        m.add_permission(
            Permission::new("p-review", AccessPattern::parse("review:*:*").unwrap())
                .with_class("night-work"),
        )
        .unwrap();
        m.assign_permission("r", "p-edit").unwrap();
        m.assign_permission("r", "p-review").unwrap();
        m.assign_user("o", "r").unwrap();
        let mut x = ExtendedRbac::new(m);
        x.define_validity_class("night-work", 5.0, BaseTimeScheme::WholeLifetime);
        let sid = x.open_session("o", vec![]).unwrap();
        x.activate_role(sid, "r").unwrap();
        x.note_arrival("o", tp(0.0));

        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let edit = Access::new("edit", "doc", "s1");
        let review = Access::new("review", "doc", "s1");
        let p_edit = access("edit", "doc", "s1");
        let p_review = access("review", "doc", "s1");
        // Editing at t=0 activates the SHARED class budget.
        let req = AccessRequest {
            object: "o",
            session: sid,
            access: &edit,
            program: &p_edit,
            time: tp(0.0),
            reuse_spatial: false,
        };
        assert!(x.decide(&req, &proofs, &mut table).is_granted());
        // Reviewing at t=6 is denied: the class budget (5s) is exhausted
        // even though p-review itself was never used.
        let req2 = AccessRequest {
            object: "o",
            session: sid,
            access: &review,
            program: &p_review,
            time: tp(6.0),
            reuse_spatial: false,
        };
        let d = x.decide(&req2, &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedTemporal, "{d:?}");
        assert!(d.reason_str().contains("night-work"), "{d:?}");
        // Both permissions report the same (class) state.
        assert_eq!(
            x.permission_state("o", "p-edit", tp(6.0)),
            PermissionState::ActiveButInvalid
        );
        assert_eq!(
            x.permission_state("o", "p-review", tp(6.0)),
            PermissionState::ActiveButInvalid
        );
    }

    #[test]
    fn undefined_class_falls_back_to_own_validity() {
        let mut m = RbacModel::new();
        m.add_user("o");
        m.add_role("r");
        m.add_permission(
            Permission::new("p", AccessPattern::any())
                .with_class("ghost-class")
                .with_validity(100.0, BaseTimeScheme::WholeLifetime),
        )
        .unwrap();
        m.assign_permission("r", "p").unwrap();
        m.assign_user("o", "r").unwrap();
        let mut x = ExtendedRbac::new(m);
        let sid = x.open_session("o", vec![]).unwrap();
        x.activate_role(sid, "r").unwrap();
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let req = AccessRequest {
            object: "o",
            session: sid,
            access: &a,
            program: &p,
            time: tp(0.0),
            reuse_spatial: false,
        };
        assert!(x.decide(&req, &proofs, &mut table).is_granted());
        // Defining the class later rebinds the already-resolved
        // permission to the class's 5 s budget, activated at t=6.
        x.define_validity_class("ghost-class", 5.0, BaseTimeScheme::WholeLifetime);
        let at = |t: f64| AccessRequest { time: tp(t), ..req };
        assert!(x.decide(&at(6.0), &proofs, &mut table).is_granted());
        let d = x.decide(&at(12.0), &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedTemporal, "{d:?}");
        assert!(d.reason_str().contains("dur=5"), "{d:?}");
    }

    #[test]
    fn selector_counts_ignore_unrelated_history() {
        let perm = exec_perm().with_spatial(parse_constraint("count(0, 2, resource=rsw)").unwrap());
        let (x, sid) = setup(perm);
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        // Lots of unrelated history.
        for i in 0..10 {
            proofs.issue("naplet-1", Access::new("read", "logs", "s1"), tp(i as f64));
        }
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        let req = AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(20.0),
            reuse_spatial: false,
        };
        assert!(x.decide(&req, &proofs, &mut table).is_granted());
    }

    #[test]
    fn gate_export_import_round_trip_across_interning_orders() {
        let perm = Permission::new("p-exec", AccessPattern::parse("exec:rsw:*").unwrap())
            .with_spatial(parse_constraint("count(0, 100, resource=rsw)").unwrap())
            .with_validity(2.0, BaseTimeScheme::WholeLifetime);
        let (x1, sid1) = setup(perm.clone());
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access("exec", "rsw", "s1");
        let req = |t: f64, sid: SessionId| AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(t),
            reuse_spatial: false,
        };

        x1.note_arrival("naplet-1", tp(0.0));
        assert!(x1.decide(&req(0.0, sid1), &proofs, &mut table).is_granted());
        proofs.issue("naplet-1", access_.clone(), tp(0.0));
        let export = x1.export_gate("naplet-1");
        assert!(!export.timelines.is_empty());
        assert_eq!(export.spatial_ok, vec!["p-exec".to_string()]);
        assert_eq!(export.arrivals, vec![tp(0.0)]);

        // The receiving member interns names in a different order (a decoy
        // object and its own decisions come first) — by-name keys must
        // survive the id remapping.
        let (mut x2, _) = setup(perm);
        x2.note_arrival("decoy", tp(0.0));
        let sid2 = x2.open_session("naplet-1", vec![]).unwrap();
        x2.activate_role(sid2, "worker").unwrap();
        x2.import_gate("naplet-1", &export, true).unwrap();

        // Re-export matches the import (cursors do not travel).
        let mut back = x2.export_gate("naplet-1");
        back.cursor_seeds = export.cursor_seeds.clone();
        assert_eq!(back, export);

        // Temporal continuity: the 2-second whole-lifetime budget started
        // at t=0 on the sender, so t=1 grants and t=3 is exhausted — on
        // the receiver, against its own replicated proof store.
        let proofs2 = ProofStore::new();
        proofs2.issue("naplet-1", access_.clone(), tp(0.0));
        let mut table2 = AccessTable::new();
        assert!(x2.warm_cursor("naplet-1", "p-exec", &proofs2, &mut table2));
        assert!(x2
            .decide(&req(1.0, sid2), &proofs2, &mut table2)
            .is_granted());
        let d = x2.decide(&req(3.0, sid2), &proofs2, &mut table2);
        assert_eq!(d.kind, DecisionKind::DeniedTemporal);

        // Malformed imports are rejected, not panicked on.
        let mut bad = export.clone();
        bad.arrivals = vec![tp(5.0), tp(1.0)];
        assert!(x2.import_gate("naplet-1", &bad, true).is_err());
        let mut bad = export;
        bad.timelines[0].1.active_now = !bad.timelines[0].1.active_now;
        assert!(x2.import_gate("naplet-1", &bad, true).is_err());
    }

    /// Session views cache the object's gate handle, so `import_gate`
    /// must replace the gate's contents in place: a decision right after
    /// an import sees the imported state, never the warm pre-import gate.
    #[test]
    fn import_gate_reaches_warm_sessions() {
        let perm = exec_perm().with_validity(2.0, BaseTimeScheme::WholeLifetime);
        let (x, sid) = setup(perm.clone());
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        let req = |t: f64| AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(t),
            reuse_spatial: false,
        };
        // Warm the session view (and its cached gate): the 2 s budget
        // starts at t=10.
        assert!(x.decide(&req(10.0), &proofs, &mut table).is_granted());
        assert!(x.decide(&req(11.0), &proofs, &mut table).is_granted());

        // Another member's gate whose budget started at t=0 is exhausted
        // by t=11.5.
        let (other, other_sid) = setup(perm);
        let first = AccessRequest {
            session: other_sid,
            ..req(0.0)
        };
        assert!(other.decide(&first, &proofs, &mut table).is_granted());
        x.import_gate("naplet-1", &other.export_gate("naplet-1"), true)
            .unwrap();
        let d = x.decide(&req(11.5), &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedTemporal);

        // A fresh export resets the object: the next decision starts a
        // new budget and grants.
        x.import_gate("naplet-1", &ObjectGateExport::default(), true)
            .unwrap();
        assert!(x.decide(&req(11.5), &proofs, &mut table).is_granted());
    }

    #[test]
    fn epoch_flip_swaps_policy_and_stamps_verdicts() {
        let (mut x, sid) = setup(exec_perm());
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        let req = |t: f64| AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(t),
            reuse_spatial: false,
        };

        assert_eq!(x.epoch(), 0);
        let v = x.decide(&req(0.0), &proofs, &mut table);
        assert!(v.is_granted());
        assert_eq!(v.epoch, 0);

        // Epoch 1 forbids what epoch 0 allowed: spatial budget 0.
        let tight =
            exec_perm().with_spatial(parse_constraint("count(0, 0, resource=rsw)").unwrap());
        let prepared = x
            .prepare_epoch(model_with(tight), [], 1, &mut table)
            .unwrap();
        assert_eq!(prepared.epoch(), 1);
        // Decisions under the old epoch keep flowing while prepared.
        let v = x.decide(&req(1.0), &proofs, &mut table);
        assert!(v.is_granted());
        assert_eq!(v.epoch, 0);

        assert_eq!(x.activate_epoch(prepared).unwrap(), 1);
        assert_eq!(x.epoch(), 1);
        let d = x.decide(&req(2.0), &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedSpatial);
        assert_eq!(d.epoch, 1);

        // Stale transitions (replayed rollout messages) are rejected.
        assert!(matches!(
            x.prepare_epoch(model_with(exec_perm()), [], 1, &mut table),
            Err(EpochError::Stale {
                proposed: 1,
                current: 1
            })
        ));
    }

    #[test]
    fn epoch_flip_does_not_refund_validity_budgets() {
        let perm = exec_perm().with_validity(2.0, BaseTimeScheme::WholeLifetime);
        let (mut x, sid) = setup(perm.clone());
        x.note_arrival("naplet-1", tp(0.0));
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let access_ = Access::new("exec", "rsw", "s1");
        let prog = access_prog();
        let req = |t: f64| AccessRequest {
            object: "naplet-1",
            session: sid,
            access: &access_,
            program: &prog,
            time: tp(t),
            reuse_spatial: false,
        };

        assert!(x.decide(&req(0.0), &proofs, &mut table).is_granted());

        // Flip to an *identical* policy: the 2-second whole-lifetime
        // budget started at t=0 and must stay spent.
        let prepared = x
            .prepare_epoch(model_with(perm), [], 1, &mut table)
            .unwrap();
        x.activate_epoch(prepared).unwrap();
        assert!(x.decide(&req(1.0), &proofs, &mut table).is_granted());
        let d = x.decide(&req(3.0), &proofs, &mut table);
        assert_eq!(d.kind, DecisionKind::DeniedTemporal);
        assert_eq!(d.epoch, 1);
    }
}
