//! The episode driver: plays one [`Scenario`] against the real
//! [`CoordinatedGuard`] decision stack while the [`ReferenceOracle`]
//! shadows every decision, and records the first divergence.
//!
//! [`run_episode_with`] is the one event loop. A [`Transport`] picks
//! where decisions are made: one in-process guard (optionally batched),
//! or a loopback coalition of `stacl-net` daemons (`crate::net_driver`).
//! The loop itself is transport-neutral, so the episode log and audit
//! ledger byte-compare across transports for every seed.

use std::collections::{BTreeMap, BTreeSet};

use stacl_coalition::ledger::{fnv1a, Ledger};
use stacl_coalition::{CoalitionEnv, DecisionKind, ProofStore, Verdict};
use stacl_naplet::guard::{CoordinatedGuard, GuardRequest};
use stacl_rbac::policy::render_policy;
use stacl_rbac::{AccessPattern, ExtendedRbac, Permission, RbacModel};
use stacl_sral::{Access, Program};
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

use crate::oracle::{OracleBug, ReferenceOracle};
use crate::scenario::{Event, Scenario};

/// A disagreement between the guard and the reference oracle.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the offending event in [`Scenario::events`].
    pub step: usize,
    /// Event time.
    pub time: f64,
    /// Requesting object's name.
    pub object: String,
    /// The attempted access.
    pub access: Access,
    /// What the real decision stack said.
    pub guard: DecisionKind,
    /// What the reference oracle said.
    pub oracle: DecisionKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} t={} object {} access {}: guard={} oracle={}",
            self.step,
            self.time,
            self.object,
            self.access,
            self.guard.label(),
            self.oracle.label()
        )
    }
}

/// The outcome of one simulated episode.
#[derive(Clone, Debug)]
pub struct Episode {
    /// The generating seed.
    pub seed: u64,
    /// The full step-by-step episode log (byte-identical per seed).
    pub log: String,
    /// Decision counts by [`DecisionKind::label`].
    pub histogram: BTreeMap<&'static str, usize>,
    /// Number of access decisions made.
    pub decisions: usize,
    /// The first guard/oracle disagreement, if any (the episode stops
    /// there).
    pub divergence: Option<Divergence>,
}

/// Build the RBAC model for policy revision `rev` of a scenario (0 = the
/// base policy).
///
/// Attribute (CIDR/cron) permissions are lowered here, exactly as the
/// `stacl-abac` front-end lowers policy files: CIDR rules become pure
/// SRAC constraints over the scenario's server→IP map, cron windows
/// become validity budgets sampled at the revision's reference time
/// ([`Scenario::rev_time`]). Lowering problems fail safe (deny) and are
/// counted under `abac.lower-error.*`.
pub fn build_model(sc: &Scenario, rev: usize) -> RbacModel {
    let at = sc.rev_time(rev);
    let server_map: Vec<(String, Option<u32>)> = sc
        .servers
        .iter()
        .map(|srv| {
            let ip = sc
                .server_ips
                .iter()
                .find(|(n, _)| n == srv)
                .and_then(|(_, a)| stacl_abac::parse_ipv4(a).ok());
            (srv.clone(), ip)
        })
        .collect();
    let mut model = RbacModel::new();
    for o in &sc.objects {
        model.add_user(&o.name);
    }
    for role in &sc.roles {
        model.add_role(&role.name);
    }
    for p in sc.perms_at(rev) {
        let pattern = AccessPattern {
            op: p.op.as_deref().map(stacl_sral::ast::name),
            resource: p.resource.as_deref().map(stacl_sral::ast::name),
            server: p.server.as_deref().map(stacl_sral::ast::name),
        };
        let mut perm = Permission::new(&p.name, pattern);
        let spatial = match &p.attr_cidr {
            Some(a) => stacl_abac::lower_cidr_failsafe(&a.allow, &a.deny, &server_map),
            None => p.spatial.clone(),
        };
        if let Some(c) = spatial {
            perm = perm.with_spatial(c);
        }
        if p.team_scope {
            perm = perm.with_scope(stacl_rbac::HistoryScope::Team);
        }
        match &p.attr_cron {
            Some(c) => {
                let v = stacl_abac::cron_validity_failsafe(&c.expr, c.dur, at);
                perm = perm.with_validity(v, stacl_temporal::BaseTimeScheme::WholeLifetime);
            }
            None => {
                if let Some(v) = p.validity {
                    perm = perm.with_validity(v, p.scheme);
                }
            }
        }
        if let Some(class) = &p.class {
            perm = perm.with_class(class);
        }
        model.add_permission(perm).expect("unique generated names");
    }
    for (ri, role) in sc.roles.iter().enumerate() {
        for &pi in sc.role_perms_at(rev, ri) {
            model
                .assign_permission(&role.name, &sc.perms_at(rev)[pi].name)
                .expect("role and permission exist");
        }
    }
    for &(s, j) in &sc.inherits {
        model
            .add_inheritance(&sc.roles[s].name, &sc.roles[j].name)
            .expect("generated senior<junior edges are acyclic");
    }
    for o in &sc.objects {
        for &r in &o.assigned {
            model
                .assign_user(&o.name, &sc.roles[r].name)
                .expect("user and role exist");
        }
    }
    model
}

/// Build the real decision stack for a scenario. Every coalition member
/// of [`Transport::Net`] gets its own copy.
pub fn build_guard(sc: &Scenario) -> CoordinatedGuard {
    let mut rbac = ExtendedRbac::new(build_model(sc, 0));
    for c in &sc.classes {
        rbac.define_validity_class(&c.name, c.dur, c.scheme);
    }

    let guard = CoordinatedGuard::new(rbac)
        .with_mode(sc.mode)
        .with_approval_reuse(sc.approval_reuse);
    for o in &sc.objects {
        guard.enroll(
            &o.name,
            o.enrolled.iter().map(|&r| sc.roles[r].name.as_str()),
        );
    }
    guard
}

/// Where an episode's decisions are made. Every transport must produce
/// a byte-identical [`Episode`] and audit [`Ledger`] for every scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// One in-process [`CoordinatedGuard`].
    InProcess {
        /// Decide maximal runs of consecutive accesses by distinct objects
        /// as one [`CoordinatedGuard::decide_batch`]; runs of one when any
        /// permission is team-scoped (then decisions are order-dependent).
        batched: bool,
    },
    /// A coalition of `daemons` loopback `stacl-net` members, one guard
    /// shard each, custody enforcement on.
    Net {
        /// Number of members; at least one.
        daemons: usize,
        /// Route every object to its rendezvous-ring home instead of
        /// letting custody follow arrivals. With two or more members, one
        /// leaves at the one-third mark and rejoins at two thirds, each
        /// change draining the moved keys before the replay continues.
        ring: bool,
        /// Per-member proof-compaction trigger
        /// ([`stacl_net::DaemonConfig::compact_after`]); `0` disables it.
        compact_after: usize,
    },
}

/// Run one episode in process, cross-checking every decision against
/// the oracle.
pub fn run_episode(sc: &Scenario, bug: Option<OracleBug>) -> Episode {
    run_episode_with(sc, bug, &Transport::InProcess { batched: false }, None)
        .expect("the in-process transport cannot fail")
}

/// One pending access decision within a run of consecutive `Access`
/// events over pairwise-distinct objects.
pub(crate) struct PendingAccess<'a> {
    /// Index of the event in [`Scenario::events`].
    pub step: usize,
    pub obj: usize,
    pub access: &'a Access,
    pub time: f64,
    /// The object's declared remaining itinerary, this access included.
    pub remaining: &'a [Access],
    /// `false` when topology denies the access (a dead or unknown
    /// server): no backend is consulted then.
    pub reachable: bool,
}

/// How often the episode driver journals a verdict into the audit
/// ledger: every `LEDGER_SAMPLE`-th decision (1-indexed), the same on
/// every transport so ledgers byte-compare across them.
pub const LEDGER_SAMPLE: usize = 8;

/// What differs between transports. Everything else (topology, the
/// remaining-itinerary slices, the oracle, logging, sampling, the
/// divergence stop and proof timestamps) lives in [`run_episode_with`].
pub(crate) trait Backend {
    /// Called before replaying the event at index `step` (the first of
    /// a batched run).
    fn before_step(&mut self, _step: usize) -> Result<(), String> {
        Ok(())
    }
    /// Whether maximal runs of accesses over distinct objects may be
    /// decided together.
    fn batched(&self) -> bool {
        false
    }
    /// A non-dropped arrival of object `obj` at `server`.
    fn arrive(&mut self, obj: usize, server: &str, time: f64) -> Result<(), String>;
    /// Prepare and activate policy revision `rev` (epoch = revision).
    /// `policy` is the canonical rendering of `model`.
    fn flip(&mut self, rev: usize, model: RbacModel, policy: &str) -> Result<(), String>;
    /// Decide every reachable item of a run into the matching slot of
    /// `out`.
    fn decide(&mut self, run: &[PendingAccess<'_>], out: &mut [Option<Verdict>]);
    /// Record a grant's proof, stamped with the server's local clock.
    fn issue(&mut self, obj: usize, access: &Access, stamp: f64) -> Result<(), String>;
}

/// The in-process backend: one guard, one proof store.
struct Local<'a> {
    sc: &'a Scenario,
    guard: CoordinatedGuard,
    proofs: ProofStore,
    table: AccessTable,
    batched: bool,
}

impl<'a> Local<'a> {
    fn new(sc: &'a Scenario, batched: bool) -> Self {
        let guard = build_guard(sc);
        let mut table = AccessTable::new();
        // Pre-saturate the table with the policy's constraint vocabulary
        // so steady-state cursor checks never grow it mid-decision
        // (verdicts and logs are table-id independent).
        guard.with_rbac(|r| r.saturate_alphabet(&mut table));
        Local {
            sc,
            guard,
            proofs: ProofStore::new(),
            table,
            batched: batched && !sc.perms.iter().any(|p| p.team_scope),
        }
    }
}

impl Backend for Local<'_> {
    fn batched(&self) -> bool {
        self.batched
    }

    fn arrive(&mut self, obj: usize, _server: &str, time: f64) -> Result<(), String> {
        let name = &self.sc.objects[obj].name;
        self.guard.note_arrival(name, TimePoint::new(time));
        Ok(())
    }

    fn flip(&mut self, rev: usize, model: RbacModel, _policy: &str) -> Result<(), String> {
        // Build the revision off the hot path, then flip atomically.
        let classes = self
            .sc
            .classes
            .iter()
            .map(|c| (c.name.clone(), c.dur, c.scheme));
        let table = &mut self.table;
        let prepared = self
            .guard
            .with_rbac_read(|r| r.prepare_epoch(model, classes, rev as u64, table))
            .expect("scenario epochs strictly increase");
        self.guard
            .with_rbac(|r| r.activate_epoch(prepared))
            .expect("prepared epoch activates");
        Ok(())
    }

    fn decide(&mut self, run: &[PendingAccess<'_>], out: &mut [Option<Verdict>]) {
        let programs: Vec<Option<Program>> = run
            .iter()
            .map(|it| {
                it.reachable
                    .then(|| Program::seq_all(it.remaining.iter().cloned().map(Program::Access)))
            })
            .collect();
        let sc = self.sc;
        let (slots, reqs): (Vec<usize>, Vec<GuardRequest<'_>>) = (run.iter().zip(&programs))
            .enumerate()
            .filter_map(|(k, (it, program))| {
                let req = GuardRequest {
                    object: &sc.objects[it.obj].name,
                    access: it.access,
                    remaining: program.as_ref()?,
                    time: TimePoint::new(it.time),
                };
                Some((k, req))
            })
            .unzip();
        let verdicts = if self.batched {
            self.guard.decide_batch(&reqs, &self.proofs, false)
        } else {
            reqs.iter()
                .map(|r| self.guard.decide(r, &self.proofs, &mut self.table))
                .collect()
        };
        for (k, v) in slots.into_iter().zip(verdicts) {
            out[k] = Some(v);
        }
    }

    fn issue(&mut self, obj: usize, access: &Access, stamp: f64) -> Result<(), String> {
        let name = &self.sc.objects[obj].name;
        self.proofs
            .issue(name, access.clone(), TimePoint::new(stamp));
        Ok(())
    }
}

/// Run one episode over `transport`, cross-checking every decision
/// against the oracle and optionally journaling policy changes and
/// sampled verdicts into an append-only audit [`Ledger`].
///
/// The driver mirrors [`stacl_naplet::system::NapletSystem`]'s access
/// pipeline: topology resolution first (a dead or unknown server denies
/// `DeniedUnknownTarget` without consulting any guard), then the guard,
/// then, on a grant, a proof stamped with the local server clock (base
/// time plus the server's skew). Batched runs are cross-checked, logged
/// and issued in event order after the batch, so the log is the same on
/// every transport.
///
/// Returns an error only for a zero-member coalition or a transport
/// failure (spawn, connect, arrival, rollout or proof replication). A
/// member that cannot *decide* fails safe to `DeniedCoordination`,
/// which surfaces as a divergence.
pub fn run_episode_with(
    sc: &Scenario,
    bug: Option<OracleBug>,
    transport: &Transport,
    ledger: Option<&mut Ledger>,
) -> Result<Episode, String> {
    match *transport {
        Transport::InProcess { batched } => replay(sc, bug, Local::new(sc, batched), ledger),
        Transport::Net {
            daemons,
            ring,
            compact_after,
        } => {
            let backend = crate::net_driver::Coalition::spawn(sc, daemons, ring, compact_after)?;
            replay(sc, bug, backend, ledger)
        }
    }
}

/// The one event loop over [`Scenario::events`].
fn replay(
    sc: &Scenario,
    bug: Option<OracleBug>,
    mut backend: impl Backend,
    mut ledger: Option<&mut Ledger>,
) -> Result<Episode, String> {
    if let Some(l) = ledger.as_deref_mut() {
        // Epoch 0 is the boot policy; hash the canonical rendering so
        // every transport's chain agrees byte-for-byte.
        l.record_policy_change(0, fnv1a(render_policy(&build_model(sc, 0)).as_bytes()));
    }
    let mut env = CoalitionEnv::new();
    for s in &sc.servers {
        env.add_server(s);
        for res in &sc.resources {
            env.add_resource(s, res, sc.ops.iter().map(String::as_str));
        }
    }
    let mut oracle = ReferenceOracle::new(bug);

    // Each object's future accesses in schedule order; `cursor[i]` marks
    // how many it has already attempted (granted or not — a denied access
    // is skipped, exactly as `OnDeny::Skip` agents behave).
    let mut per_object: Vec<Vec<Access>> = vec![Vec::new(); sc.objects.len()];
    for e in &sc.events {
        if let Event::Access { obj, access, .. } = e {
            per_object[*obj].push(access.clone());
        }
    }
    let mut cursor = vec![0usize; sc.objects.len()];

    let mut dead: BTreeSet<String> = BTreeSet::new();
    let mut log = String::new();
    let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut decisions = 0usize;
    let mut divergence = None;

    use std::fmt::Write as _;
    // Profile scenarios announce their workload shape up front, so every
    // replay log is self-describing.
    if let Some(p) = sc.profile {
        let _ = writeln!(log, "profile {}", p.name());
    }
    let mut step = 0usize;
    'events: while step < sc.events.len() {
        backend.before_step(step)?;
        let event = &sc.events[step];
        step += 1;
        match event {
            Event::Arrival {
                obj,
                server,
                time,
                dropped,
            } => {
                let name = &sc.objects[*obj].name;
                if *dropped {
                    let _ = writeln!(log, "[{time}] arrive {name} @ {server} DROPPED");
                } else {
                    backend.arrive(*obj, server, *time)?;
                    oracle.note_arrival(*obj, *time);
                    let _ = writeln!(log, "[{time}] arrive {name} @ {server}");
                }
            }
            Event::ServerDeath { server, time } => {
                dead.insert(server.clone());
                oracle.note_death(server);
                let _ = writeln!(log, "[{time}] server-death {server}");
            }
            Event::PolicyFlip { rev, time } => {
                let model = build_model(sc, *rev);
                let policy = render_policy(&model);
                if let Some(l) = ledger.as_deref_mut() {
                    l.record_policy_change(*rev as u64, fnv1a(policy.as_bytes()));
                }
                backend.flip(*rev, model, &policy)?;
                oracle.note_flip(*rev);
                let _ = writeln!(log, "[{time}] policy-flip epoch={rev}");
            }
            Event::Access { .. } => {
                // The maximal run of consecutive Access events over
                // pairwise-distinct objects (just this event when the
                // backend does not batch). Topology is resolved here; it
                // is constant within the run (server deaths break it).
                let batched = backend.batched();
                let mut run: Vec<PendingAccess<'_>> = Vec::new();
                for (i, event) in sc.events.iter().enumerate().skip(step - 1) {
                    let Event::Access { obj, access, time } = event else {
                        break;
                    };
                    if !run.is_empty() && (!batched || run.iter().any(|p| p.obj == *obj)) {
                        break;
                    }
                    let remaining = &per_object[*obj][cursor[*obj]..];
                    cursor[*obj] += 1;
                    run.push(PendingAccess {
                        step: i,
                        obj: *obj,
                        access,
                        time: *time,
                        remaining,
                        reachable: !dead.contains(&*access.server) && env.resolve(access).is_ok(),
                    });
                }
                step += run.len() - 1;
                let mut verdicts: Vec<Option<Verdict>> = run.iter().map(|_| None).collect();
                backend.decide(&run, &mut verdicts);

                // Oracle cross-check, logging and proof issuance, in
                // event order.
                for (it, guard_v) in run.iter().zip(verdicts) {
                    let name = &sc.objects[it.obj].name;
                    let (time, access) = (it.time, it.access);
                    let oracle_v = oracle.decide(sc, it.obj, access, it.remaining, time);
                    let system_v = guard_v.unwrap_or_else(|| {
                        // Topology denial happens before any guard runs,
                        // so count the verdict here to keep the telemetry
                        // invariant (verdict counters sum to decisions).
                        stacl_obs::count(stacl_obs::Counter::VerdictDeniedUnknownTarget);
                        Verdict::denied(
                            DecisionKind::DeniedUnknownTarget,
                            format!("server {} is unreachable", access.server),
                        )
                    });

                    decisions += 1;
                    *histogram.entry(system_v.kind.label()).or_insert(0) += 1;
                    if decisions % LEDGER_SAMPLE == 1 {
                        if let Some(l) = ledger.as_deref_mut() {
                            l.record_verdict(time, name, &access.to_string(), &system_v);
                        }
                    }
                    let _ = writeln!(
                        log,
                        "[{time}] access {name} {access} -> guard={} oracle={}",
                        system_v.kind.label(),
                        oracle_v.kind.label()
                    );

                    if system_v.kind != oracle_v.kind {
                        divergence = Some(Divergence {
                            step: it.step,
                            time,
                            object: name.clone(),
                            access: access.clone(),
                            guard: system_v.kind,
                            oracle: oracle_v.kind,
                        });
                        let _ = writeln!(log, "DIVERGENCE at step {}", it.step);
                        break 'events;
                    }

                    if system_v.is_granted() {
                        // Proofs are stamped with the local server clock —
                        // skew shifts timestamps but not decisions.
                        let skew = sc
                            .servers
                            .iter()
                            .position(|s| **s == *access.server)
                            .map(|i| sc.skews[i])
                            .unwrap_or(0.0);
                        backend.issue(it.obj, access, time + skew)?;
                        oracle.note_grant(it.obj, access.clone());
                    }
                }
            }
        }
    }

    Ok(Episode {
        seed: sc.seed,
        log,
        histogram,
        decisions,
        divergence,
    })
}

/// Generate the scenario for `seed` and run it.
pub fn episode_for_seed(seed: u64, bug: Option<OracleBug>) -> Episode {
    run_episode(&Scenario::generate(seed), bug)
}
