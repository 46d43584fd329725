//! The security-guard interception point — the Rust counterpart of the
//! Naplet prototype's `NapletSecurityManager` (§5.2).
//!
//! Every shared-resource access an agent attempts flows through exactly
//! one [`SecurityGuard::check`] call carrying the requesting object, the
//! access, the object's *remaining program* and the current time; the
//! guard also sees the proof store (the object's cross-server history) and
//! may record state of its own.
//!
//! [`CoordinatedGuard`] keeps one record per object (its open session)
//! and exposes a `&self` decision path ([`CoordinatedGuard::decide`]), so
//! one guard can serve concurrent per-object request streams; the
//! [`SecurityGuard`] impl is a thin `&mut` adapter over it. The decision
//! core itself is `&self` too ([`ExtendedRbac::decide`]), held behind a
//! read-write lock that decisions only *read* — writers are the rare
//! policy mutations ([`CoordinatedGuard::with_rbac`]) and first-contact
//! session opens. [`CoordinatedGuard::decide_batch`] fans a batch of
//! requests across object shards on a scoped thread pool.

use stacl_coalition::{DecisionKind, Placement, ProofStore, Verdict};
use stacl_ids::hash::FnvHashMap;
use stacl_ids::sync::{Mutex, RwLock};
use stacl_rbac::{AccessRequest, ExtendedRbac, ObjectGateExport, SessionId};
use stacl_sral::ast::{name, Name};
use stacl_sral::{Access, Program};
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One interception: everything a guard may consult.
#[derive(Debug)]
pub struct GuardRequest<'a> {
    /// The requesting mobile object.
    pub object: &'a str,
    /// The access being attempted.
    pub access: &'a Access,
    /// The object's remaining program (declared future behaviour),
    /// including the access being attempted.
    pub remaining: &'a Program,
    /// Current virtual time.
    pub time: TimePoint,
}

/// The interception interface.
pub trait SecurityGuard: Send {
    /// Decide the request. Proof issuance and logging are done by the
    /// system after a grant.
    fn check(
        &mut self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict;

    /// Notification that `object` arrived at a server (migration or
    /// creation) — lets temporal schemes refill per-server budgets.
    fn note_arrival(&mut self, _object: &str, _time: TimePoint) {}
}

/// A guard that grants everything — the no-access-control baseline and
/// the default for substrate tests.
pub struct PermissiveGuard;

impl SecurityGuard for PermissiveGuard {
    fn check(
        &mut self,
        _req: &GuardRequest<'_>,
        _proofs: &ProofStore,
        _table: &mut AccessTable,
    ) -> Verdict {
        Verdict::granted()
    }
}

/// How the coordinated guard interprets the spatial constraint at each
/// interception.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EnforcementMode {
    /// **Preventive** (Eq. 3.1 verbatim): the object's *entire declared
    /// remaining program* must satisfy the constraint on every trace. An
    /// over-committing program is denied at its very first access, before
    /// any damage. The default.
    #[default]
    Preventive,
    /// **Reactive**: only the proven history plus the access being
    /// attempted are checked. Denial happens exactly at the access that
    /// would cross the line — the reading behind the paper's motivating
    /// "overused on s1 ⇒ denied on s2" example.
    Reactive,
}

/// Where an object's custody stands on one coalition member. With
/// custody enforcement enabled ([`CoordinatedGuard::set_custody_enforcement`]),
/// only the member whose custody is [`Custody::Resident`] answers
/// decisions for the object — everyone else denies fail-safe with
/// [`DecisionKind::DeniedCoordination`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Custody {
    /// This member holds the object's state and answers its decisions.
    Resident,
    /// A handoff is being pulled from the previous custodian; decisions
    /// deny fail-safe until it completes.
    InFlight,
    /// Another member is (or was last known to be) the custodian.
    Remote,
}

impl Custody {
    /// A short stable label for reasons and logs.
    pub fn label(self) -> &'static str {
        match self {
            Custody::Resident => "resident",
            Custody::InFlight => "in flight",
            Custody::Remote => "remote",
        }
    }
}

/// The transferable per-object guard state: everything a custodian must
/// hand to the next one for decisions to continue seamlessly. The gate
/// export is keyed by names (see [`ObjectGateExport`]); the clean flag
/// preserves spatial-approval reuse across the migration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectHandoff {
    /// True while every decision so far was a grant.
    pub clean: bool,
    /// The object's decision-state shard inside the core.
    pub gate: ObjectGateExport,
}

/// The coordinated guard: extended RBAC with spatio-temporal constraints
/// (the paper's model, end to end).
///
/// Each mobile object is an RBAC user; on its first access the guard
/// opens a session and activates the roles registered for the object via
/// [`CoordinatedGuard::enroll`].
///
/// All state lives behind interior locks: each object's session record
/// in the `objects` map, the decision core behind a read-write lock that
/// the decide path only ever *reads* (the core's own per-object gates
/// provide mutual exclusion where it matters, and keep the object's
/// clean record — see `ExtendedRbac`'s module docs). The real decision
/// path is the `&self`
/// [`CoordinatedGuard::decide`]; [`SecurityGuard::check`] simply
/// forwards to it.
pub struct CoordinatedGuard {
    /// The decision core. Decisions take the read lock; policy mutations
    /// ([`CoordinatedGuard::with_rbac`]) and first-contact session opens
    /// take the write lock. Lock order: `objects` first, then this —
    /// never the reverse.
    rbac: RwLock<ExtendedRbac>,
    /// object → roles to activate on first contact.
    enrollments: RwLock<FnvHashMap<Name, Vec<Name>>>,
    /// object → its session, set once on first contact (records are
    /// created lazily, only for enrolled objects). A decision borrows its
    /// record under the read lock for its whole length.
    objects: RwLock<FnvHashMap<Name, OnceLock<SessionId>>>,
    mode: EnforcementMode,
    /// Whether monotone approval reuse is enabled (on by default; turn
    /// off to measure the unoptimised Eq. 3.1 gate — see E10).
    approval_reuse: bool,
    /// object → custody state on this coalition member. Consulted only
    /// when `custody_enforced` is set; single-process guards never pay
    /// for it.
    custody: RwLock<FnvHashMap<Name, Custody>>,
    /// Whether decisions require resident custody (default off — the
    /// in-process guard is its own sole custodian).
    custody_enforced: AtomicBool,
    /// The coalition's rendezvous placement ring plus this member's own
    /// name on it. When set, custody claims are validated against the
    /// ring: only the object's home may claim residency by arrival
    /// (explicit handoff imports stay authoritative), so two members can
    /// never both claim a racing arrival.
    placement: RwLock<Option<(String, Placement)>>,
    /// Recycled batch-worker interning tables. Verdicts are
    /// table-independent, so a worker may inherit any table; reuse keeps
    /// the interned alphabet warm across [`CoordinatedGuard::decide_batch`]
    /// calls instead of re-growing it per batch.
    table_pool: Mutex<Vec<AccessTable>>,
}

impl CoordinatedGuard {
    /// Wrap a configured extended-RBAC instance (preventive mode).
    pub fn new(rbac: ExtendedRbac) -> Self {
        CoordinatedGuard {
            rbac: RwLock::new(rbac),
            enrollments: RwLock::new(FnvHashMap::default()),
            objects: RwLock::new(FnvHashMap::default()),
            mode: EnforcementMode::Preventive,
            approval_reuse: true,
            custody: RwLock::new(FnvHashMap::default()),
            custody_enforced: AtomicBool::new(false),
            placement: RwLock::new(None),
            table_pool: Mutex::new(Vec::new()),
        }
    }

    /// Select the enforcement mode.
    pub fn with_mode(mut self, mode: EnforcementMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enable/disable monotone spatial-approval reuse (default on).
    pub fn with_approval_reuse(mut self, on: bool) -> Self {
        self.approval_reuse = on;
        self
    }

    /// Register which roles an object activates when it first appears
    /// (the Naplet authentication + role-activation step of §5.1).
    pub fn enroll<S: AsRef<str>>(
        &self,
        object: impl AsRef<str>,
        roles: impl IntoIterator<Item = S>,
    ) {
        self.enrollments
            .write()
            .insert(name(object), roles.into_iter().map(name).collect());
    }

    /// Run a closure against the underlying RBAC engine (e.g. to inspect
    /// permission states after a run, or to define validity classes).
    /// Takes the core's write lock: concurrent decisions drain first and
    /// observe the mutation's effects afterwards.
    pub fn with_rbac<R>(&self, f: impl FnOnce(&mut ExtendedRbac) -> R) -> R {
        f(&mut self.rbac.write())
    }

    /// Run a closure against the RBAC engine read-only — concurrent
    /// decisions are *not* drained. This is how a coalition member builds
    /// a [`stacl_rbac::PreparedEpoch`] off the hot path: preparation
    /// reads the engine while decisions keep flowing; only the subsequent
    /// [`ExtendedRbac::activate_epoch`] (via
    /// [`CoordinatedGuard::with_rbac`]) takes the write lock, and only
    /// for the cheap flip.
    pub fn with_rbac_read<R>(&self, f: impl FnOnce(&ExtendedRbac) -> R) -> R {
        f(&self.rbac.read())
    }

    /// Whether `object` was enrolled on this guard.
    fn is_enrolled(&self, object: &str) -> bool {
        self.enrollments.read().contains_key(object)
    }

    /// Run `f` on `object`'s session record, borrowed under the `objects`
    /// read lock. The record is created on first contact — but only for
    /// enrolled objects, so strangers cannot grow the map.
    fn with_record<R>(&self, object: &str, f: impl FnOnce(&OnceLock<SessionId>) -> R) -> Option<R> {
        if let Some(record) = self.objects.read().get(object) {
            return Some(f(record));
        }
        if !self.is_enrolled(object) {
            return None;
        }
        self.objects.write().entry(name(object)).or_default();
        self.objects.read().get(object).map(f)
    }

    /// First contact: open the object's session, activate its enrolled
    /// roles and record the session. Session open mutates the core, so
    /// this takes the core's write lock, released before the decision
    /// proper.
    fn open_session(&self, record: &OnceLock<SessionId>, object: &str) -> Option<SessionId> {
        let mut rbac = self.rbac.write();
        // Re-check under the write lock: a racing first contact may have
        // opened the session while this one waited for the lock.
        if let Some(&sid) = record.get() {
            return Some(sid);
        }
        let enrollments = self.enrollments.read();
        let roles = enrollments.get(object)?;
        let sid = rbac.open_session(object, vec![]).ok()?;
        for role in roles {
            // A role the user isn't authorized for fails activation; the
            // object then simply lacks those permissions.
            let _ = rbac.activate_role(sid, role);
        }
        // Every setter holds the write lock, so this is the only set.
        let _ = record.set(sid);
        Some(sid)
    }

    /// Turn custody enforcement on or off (default off). A networked
    /// coalition member turns it on so that decisions for objects it does
    /// not custody deny fail-safe instead of answering from stale state.
    pub fn set_custody_enforcement(&self, on: bool) {
        self.custody_enforced.store(on, Ordering::Relaxed);
    }

    /// Whether decisions require resident custody.
    pub fn custody_enforced(&self) -> bool {
        self.custody_enforced.load(Ordering::Relaxed)
    }

    /// This member's custody state for `object`. Unknown objects are
    /// [`Custody::Remote`]: nobody is custodian until an arrival claims it.
    pub fn custody_of(&self, object: &str) -> Custody {
        self.custody
            .read()
            .get(object)
            .copied()
            .unwrap_or(Custody::Remote)
    }

    /// Install the coalition's placement ring and this member's name on
    /// it. From then on [`CoordinatedGuard::take_custody`] validates
    /// claims: only the object's rendezvous home may claim residency by
    /// arrival. Pass the new ring again on every membership change.
    pub fn set_placement(&self, member: impl Into<String>, ring: Placement) {
        *self.placement.write() = Some((member.into(), ring));
    }

    /// The rendezvous home for `object` under the installed ring, if any.
    pub fn placement_home(&self, object: &str) -> Option<String> {
        self.placement
            .read()
            .as_ref()
            .and_then(|(_, p)| p.home_of(object).map(str::to_string))
    }

    /// Claim custody of `object` on this member because its arrival was
    /// local. With a placement ring installed the claim is validated:
    /// a member that is not the object's rendezvous home gets an error
    /// (counted `placement.claim-rejected`) and custody stays unclaimed —
    /// the caller maps this to a fail-safe
    /// [`DecisionKind::DeniedCoordination`]. Handoff imports do not pass
    /// through here; see [`CoordinatedGuard::import_object`].
    pub fn take_custody(&self, object: &str) -> Result<(), String> {
        if let Some((member, ring)) = self.placement.read().as_ref() {
            match ring.home_of(object) {
                Some(home) if home == member => {}
                Some(home) => {
                    stacl_obs::count(stacl_obs::Counter::PlacementClaimRejected);
                    return Err(format!(
                        "object `{object}` is homed on `{home}`, not on `{member}`"
                    ));
                }
                None => {
                    stacl_obs::count(stacl_obs::Counter::PlacementClaimRejected);
                    return Err(format!(
                        "placement ring is empty; cannot home object `{object}`"
                    ));
                }
            }
        }
        self.claim_custody(object);
        Ok(())
    }

    /// Unconditionally mark `object` resident — the internal path shared
    /// by validated claims and authoritative handoff imports.
    fn claim_custody(&self, object: &str) {
        self.custody.write().insert(name(object), Custody::Resident);
    }

    /// The objects currently resident on this member — the drain list a
    /// custody rebalance walks after a membership change.
    pub fn resident_objects(&self) -> Vec<String> {
        self.custody
            .read()
            .iter()
            .filter(|(_, c)| **c == Custody::Resident)
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// Mark `object`'s custody as in flight while a handoff is pulled
    /// from its previous custodian. Decisions deny fail-safe until
    /// [`CoordinatedGuard::take_custody`] (or a successful
    /// [`CoordinatedGuard::import_object`]) resolves it.
    pub fn begin_handoff(&self, object: &str) {
        self.custody.write().insert(name(object), Custody::InFlight);
    }

    /// Export `object`'s transferable state and release custody: this
    /// member stops answering for the object the moment the export is
    /// taken (fail-safe — during the transfer *nobody* grants).
    pub fn export_object(&self, object: &str) -> ObjectHandoff {
        let (clean, gate) = {
            let rbac = self.rbac.read();
            (rbac.object_clean(object), rbac.export_gate(object))
        };
        self.custody.write().insert(name(object), Custody::Remote);
        ObjectHandoff { clean, gate }
    }

    /// Install a handoff received from the previous custodian and claim
    /// custody. Fails (leaving custody unclaimed) if the object is not
    /// enrolled here or the handoff is malformed.
    pub fn import_object(&self, object: &str, handoff: &ObjectHandoff) -> Result<(), String> {
        if !self.is_enrolled(object) {
            // A custody-only move: the previous custodian held residency
            // but no decision state (never enrolled, never decided — the
            // common case for the cold majority of a million-object
            // coalition). Park residency here; enrollment arrives with
            // policy when the object first matters.
            if handoff.clean && handoff.gate == ObjectGateExport::default() {
                self.claim_custody(object);
                return Ok(());
            }
            return Err(format!("object `{object}` is not enrolled on this member"));
        }
        self.rbac
            .read()
            .import_gate(object, &handoff.gate, handoff.clean)?;
        // An explicit import is authoritative: the previous custodian
        // already released, so residency transfers even if the ring says
        // this member is not the home (a rebalance drain will move it).
        self.claim_custody(object);
        Ok(())
    }

    /// The `&self` decision path. Decisions for one object serialize on
    /// that object's gate inside the core; the guard's maps and the core
    /// are only *read*-locked, so decisions for distinct objects run
    /// concurrently. In the steady state (session
    /// open, cursor warm or approvals reusable) a granted decision
    /// allocates nothing.
    pub fn decide(
        &self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        // Telemetry wrapper: one verdict counter per decision (so verdict
        // counters sum to total decisions) and a sampled latency histogram.
        let t0 = stacl_obs::decide_timer();
        let v = self.decide_inner(req, proofs, table);
        stacl_obs::count(v.kind.counter());
        stacl_obs::observe_decide(t0);
        v
    }

    fn decide_inner(
        &self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        // Custody gate first: a non-custodian member must not answer from
        // state that may be stale or in transit.
        if self.custody_enforced() {
            let c = self.custody_of(req.object);
            if c != Custody::Resident {
                return Verdict::denied(
                    DecisionKind::DeniedCoordination,
                    format!("object custody is {} on this member", c.label()),
                )
                .with_epoch(self.rbac.read().epoch());
            }
        }
        // Lock order: `objects` (held for the whole decision), then the
        // rbac core.
        self.with_record(req.object, |record| {
            let Some(sid) = record
                .get()
                .copied()
                .or_else(|| self.open_session(record, req.object))
            else {
                return DecisionKind::DeniedNoPermission.into();
            };
            let rbac = self.rbac.read();
            let request = AccessRequest {
                object: req.object,
                session: sid,
                access: req.access,
                program: req.remaining,
                time: req.time,
                // Spatial approvals are monotone along clean preventive
                // execution; the core checks the object's clean record
                // (see `AccessRequest::reuse_spatial`).
                reuse_spatial: self.approval_reuse && self.mode == EnforcementMode::Preventive,
            };
            match self.mode {
                EnforcementMode::Preventive => rbac.decide(&request, proofs, table),
                // In reactive mode only the attempted access itself is
                // declared.
                EnforcementMode::Reactive => rbac.decide_reactive(&request, proofs, table),
            }
        })
        .unwrap_or_else(|| DecisionKind::DeniedNoPermission.into())
    }

    /// `&self` arrival notification (see [`SecurityGuard::note_arrival`]).
    /// A read lock suffices: arrivals touch only the object's own gate
    /// shard inside the core.
    pub fn note_arrival(&self, object: &str, time: TimePoint) {
        self.rbac.read().note_arrival(object, time);
    }

    /// Decide a batch of requests in parallel, fanned across object
    /// shards on a scoped thread pool. Per-object request order is
    /// preserved (each object's requests run sequentially, in batch
    /// order, on one worker); requests for distinct objects run
    /// concurrently and the result vector lines up with `requests`.
    ///
    /// With `issue_proofs`, each grant's execution proof is issued
    /// (timestamped [`GuardRequest::time`]) before the object's next
    /// request — required for within-batch spatial correctness when the
    /// caller doesn't interleave issuance itself.
    ///
    /// Callers must only batch requests whose decisions are independent:
    /// verdicts depend on per-object state plus the proof store, so
    /// batching is sound per object — but *team-scoped* constraints read
    /// companions' proofs, and those grow in nondeterministic order
    /// within a batch. Batch team-scoped workloads one request at a time
    /// (the sim driver does exactly that).
    pub fn decide_batch(
        &self,
        requests: &[GuardRequest<'_>],
        proofs: &ProofStore,
        issue_proofs: bool,
    ) -> Vec<Verdict> {
        let t0 = stacl_obs::batch_timer();
        // Group request indices by object, preserving first-seen order
        // (and per-object order within each group).
        let mut order: Vec<&str> = Vec::new();
        let mut by_object: FnvHashMap<&str, Vec<usize>> = FnvHashMap::default();
        for (i, r) in requests.iter().enumerate() {
            by_object
                .entry(r.object)
                .or_insert_with(|| {
                    order.push(r.object);
                    Vec::new()
                })
                .push(i);
        }
        // Every name in `order` was inserted above; an (impossible) miss
        // yields an empty group rather than a mid-batch panic.
        let groups: Vec<Vec<usize>> = order
            .iter()
            .map(|o| by_object.remove(o).unwrap_or_default())
            .collect();

        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(groups.len())
            .max(1);
        let slots: Vec<Mutex<Option<Verdict>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    // Verdicts are independent of the caller's table (ids
                    // are internal to a decision), so each worker interns
                    // into its own — recycled across batches via the pool
                    // so the alphabet stays warm.
                    let mut table = self.table_pool.lock().pop().unwrap_or_default();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = groups.get(g) else { break };
                        for &i in group {
                            let r = &requests[i];
                            // A panicking decision must not take the whole
                            // batch (and its scoped-thread join) down: the
                            // decision core's locks recover from poisoning,
                            // so catch the panic, count it, and deny this
                            // one request fail-safe.
                            let v = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                self.decide(r, proofs, &mut table)
                            }))
                            .unwrap_or_else(|_| {
                                stacl_obs::count(stacl_obs::Counter::BatchPanicRecovered);
                                Verdict::denied(
                                    DecisionKind::DeniedNoPermission,
                                    "internal error: decision panicked; denied fail-safe",
                                )
                            });
                            if issue_proofs && v.is_granted() {
                                proofs.issue(r.object, r.access.clone(), r.time);
                            }
                            *slots[i].lock() = Some(v);
                        }
                    }
                    self.table_pool.lock().push(table);
                });
            }
        });
        let verdicts: Vec<Verdict> = slots
            .into_iter()
            .map(|m| {
                // Workers fill every slot; an (impossible) hole denies
                // fail-safe instead of panicking after the batch ran.
                m.into_inner().unwrap_or_else(|| {
                    Verdict::denied(
                        DecisionKind::DeniedNoPermission,
                        "internal error: no verdict recorded for batched request",
                    )
                })
            })
            .collect();
        stacl_obs::observe_batch(t0, requests.len());
        verdicts
    }
}

/// One element of a [`CoordinatedGuard::decide_batch`] batch: the
/// same request a single [`CoordinatedGuard::decide`] takes.
pub type BatchRequest<'a> = GuardRequest<'a>;

impl SecurityGuard for CoordinatedGuard {
    fn check(
        &mut self,
        req: &GuardRequest<'_>,
        proofs: &ProofStore,
        table: &mut AccessTable,
    ) -> Verdict {
        self.decide(req, proofs, table)
    }

    fn note_arrival(&mut self, object: &str, time: TimePoint) {
        CoordinatedGuard::note_arrival(self, object, time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacl_rbac::{AccessPattern, Permission, RbacModel};
    use stacl_sral::builder::access;

    fn tp(s: f64) -> TimePoint {
        TimePoint::new(s)
    }

    #[test]
    fn permissive_grants_everything() {
        let mut g = PermissiveGuard;
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let a = Access::new("anything", "at-all", "anywhere");
        let p = access("anything", "at-all", "anywhere");
        let req = GuardRequest {
            object: "o",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        assert!(g.check(&req, &proofs, &mut table).is_granted());
    }

    #[test]
    fn coordinated_guard_opens_sessions_lazily() {
        let mut m = RbacModel::new();
        m.add_user("n1");
        m.add_role("r");
        m.add_permission(Permission::new("p", AccessPattern::any()))
            .unwrap();
        m.assign_permission("r", "p").unwrap();
        m.assign_user("n1", "r").unwrap();
        let g = CoordinatedGuard::new(ExtendedRbac::new(m));
        g.enroll("n1", ["r"]);

        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        // Through the shared `&self` path — no mut binding needed.
        assert!(g.decide(&req, &proofs, &mut table).is_granted());
        // Unenrolled object: denied.
        let req2 = GuardRequest {
            object: "stranger",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        assert_eq!(
            g.decide(&req2, &proofs, &mut table).kind,
            DecisionKind::DeniedNoPermission
        );
    }

    #[test]
    fn custody_gates_decisions_and_hands_off() {
        fn guard() -> CoordinatedGuard {
            let mut m = RbacModel::new();
            m.add_user("n1");
            m.add_role("r");
            m.add_permission(Permission::new("p", AccessPattern::any()))
                .unwrap();
            m.assign_permission("r", "p").unwrap();
            m.assign_user("n1", "r").unwrap();
            let g = CoordinatedGuard::new(ExtendedRbac::new(m));
            g.enroll("n1", ["r"]);
            g
        }
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();

        // Enforcement off (default): custody is never consulted.
        let g1 = guard();
        assert!(!g1.custody_enforced());
        assert!(g1.decide(&req, &proofs, &mut table).is_granted());

        // Enforcement on: no custody yet → DeniedCoordination; after an
        // arrival claims it, decisions flow.
        let g1 = guard();
        g1.set_custody_enforcement(true);
        assert_eq!(g1.custody_of("n1"), Custody::Remote);
        assert_eq!(
            g1.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        g1.take_custody("n1").expect("no ring: claim is free");
        g1.note_arrival("n1", tp(0.0));
        assert!(g1.decide(&req, &proofs, &mut table).is_granted());

        // Handoff to a second member: the sender stops answering the
        // moment the export is taken; the importer answers after.
        let h = g1.export_object("n1");
        assert_eq!(g1.custody_of("n1"), Custody::Remote);
        assert_eq!(
            g1.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        let g2 = guard();
        g2.set_custody_enforcement(true);
        g2.begin_handoff("n1");
        assert_eq!(g2.custody_of("n1"), Custody::InFlight);
        assert_eq!(
            g2.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        g2.import_object("n1", &h).unwrap();
        assert_eq!(g2.custody_of("n1"), Custody::Resident);
        assert!(g2.decide(&req, &proofs, &mut table).is_granted());

        // Importing for a stranger fails and leaves custody unclaimed.
        let g3 = guard();
        g3.set_custody_enforcement(true);
        assert!(g3.import_object("stranger", &h).is_err());
        assert_eq!(g3.custody_of("stranger"), Custody::Remote);
    }

    /// Satellite regression: with a placement ring installed, two members
    /// racing the same arrival can no longer both claim residency — the
    /// non-home claim errors (counted) and that member keeps denying
    /// fail-safe with `DeniedCoordination`.
    #[test]
    fn placement_ring_rejects_double_custody_claims() {
        fn guard() -> CoordinatedGuard {
            let mut m = RbacModel::new();
            m.add_user("n1");
            m.add_role("r");
            m.add_permission(Permission::new("p", AccessPattern::any()))
                .unwrap();
            m.assign_permission("r", "p").unwrap();
            m.assign_user("n1", "r").unwrap();
            let g = CoordinatedGuard::new(ExtendedRbac::new(m));
            g.enroll("n1", ["r"]);
            g.set_custody_enforcement(true);
            g
        }
        stacl_obs::set_telemetry(true);
        let baseline = stacl_obs::snapshot();

        let ring = stacl_coalition::Placement::new(["m1", "m2"]);
        let home = ring.home_of("n1").unwrap().to_string();
        let other = if home == "m1" { "m2" } else { "m1" };

        let g_home = guard();
        g_home.set_placement(&home, ring.clone());
        let g_other = guard();
        g_other.set_placement(other, ring.clone());
        assert_eq!(g_other.placement_home("n1"), Some(home.clone()));

        // The race: both members see the arrival and claim custody.
        g_home.take_custody("n1").expect("home claim is valid");
        let err = g_other.take_custody("n1").expect_err("non-home claim");
        assert!(
            err.contains("homed on"),
            "claim error names the home: {err}"
        );
        assert_eq!(g_home.custody_of("n1"), Custody::Resident);
        assert_eq!(g_other.custody_of("n1"), Custody::Remote);

        // The loser keeps denying fail-safe.
        let a = Access::new("read", "x", "s");
        let p = access("read", "x", "s");
        let req = GuardRequest {
            object: "n1",
            access: &a,
            remaining: &p,
            time: tp(0.0),
        };
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        g_home.note_arrival("n1", tp(0.0));
        assert!(g_home.decide(&req, &proofs, &mut table).is_granted());
        assert_eq!(
            g_other.decide(&req, &proofs, &mut table).kind,
            DecisionKind::DeniedCoordination
        );
        let d = stacl_obs::snapshot().diff(&baseline);
        assert!(
            d.counter(stacl_obs::Counter::PlacementClaimRejected) >= 1,
            "rejected claim was counted"
        );

        // An explicit handoff import stays authoritative even off-home.
        let h = g_home.export_object("n1");
        g_other.import_object("n1", &h).expect("import off-home");
        assert_eq!(g_other.custody_of("n1"), Custody::Resident);
        assert_eq!(g_other.resident_objects(), vec!["n1".to_string()]);
    }

    /// The clean record lives in the core's object gate: a denial clears
    /// it, an all-grant history keeps it, and a handoff carries it both
    /// ways. An importer whose record is dirty reuses no approval.
    #[test]
    fn clean_record_travels_with_the_handoff() {
        use stacl_srac::parser::parse_constraint;
        use stacl_sral::builder::seq;
        fn guard() -> CoordinatedGuard {
            let mut m = RbacModel::new();
            m.add_user("n1");
            m.add_role("r");
            m.add_permission(
                Permission::new("p", AccessPattern::parse("exec:rsw:*").unwrap())
                    .with_spatial(parse_constraint("count(0, 2, resource=rsw)").unwrap()),
            )
            .unwrap();
            m.assign_permission("r", "p").unwrap();
            m.assign_user("n1", "r").unwrap();
            // Preventive mode (the default), approval reuse on.
            let g = CoordinatedGuard::new(ExtendedRbac::new(m));
            g.enroll("n1", ["r"]);
            g
        }
        let proofs = ProofStore::new();
        let mut table = AccessTable::new();
        let mut decide = |g: &CoordinatedGuard, a: &Access, remaining: &Program| {
            let req = GuardRequest {
                object: "n1",
                access: a,
                remaining,
                time: tp(0.0),
            };
            g.decide(&req, &proofs, &mut table)
        };
        let exec = Access::new("exec", "rsw", "s1");
        let once = access("exec", "rsw", "s1");
        // Three accesses against a cap of two: only a reused approval
        // grants this program.
        let thrice = seq([once.clone(), once.clone(), once.clone()]);
        let read = Access::new("read", "db", "s1");

        // All grants: the record stays clean through export and import.
        let g = guard();
        assert!(decide(&g, &exec, &once).is_granted());
        let h = g.export_object("n1");
        assert!(h.clean);
        let g2 = guard();
        g2.import_object("n1", &h).unwrap();
        assert!(g2.export_object("n1").clean);

        // One denial makes it dirty; the approval for `p` stays recorded.
        let g = guard();
        assert!(decide(&g, &exec, &once).is_granted());
        assert_eq!(
            decide(&g, &read, &access("read", "db", "s1")).kind,
            DecisionKind::DeniedNoPermission
        );
        let h = g.export_object("n1");
        assert!(!h.clean);
        assert_eq!(h.gate.spatial_ok, vec!["p".to_string()]);
        let g2 = guard();
        g2.import_object("n1", &h).unwrap();
        assert!(!g2.export_object("n1").clean, "import restores the record");
        // The dirty importer checks the program afresh instead of
        // reusing the approval ...
        assert_eq!(
            decide(&g2, &exec, &thrice).kind,
            DecisionKind::DeniedSpatial
        );
        // ... where a clean one reuses it.
        let g3 = guard();
        let clean = ObjectHandoff {
            clean: true,
            gate: h.gate.clone(),
        };
        g3.import_object("n1", &clean).unwrap();
        assert!(decide(&g3, &exec, &thrice).is_granted());
    }

    #[test]
    fn guard_is_share_ready() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<CoordinatedGuard>();
    }
}
