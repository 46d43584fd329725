//! The episode driver: plays one [`Scenario`] against the real
//! [`CoordinatedGuard`] decision stack while the [`ReferenceOracle`]
//! shadows every decision, and records the first divergence.
//!
//! The driver mirrors [`stacl_naplet::system::NapletSystem`]'s access
//! pipeline: topology resolution first (a dead or unknown server denies
//! with `DeniedUnknownTarget` *without* consulting the guard), then the
//! guard gate, then — on a grant — proof issuance stamped with the local
//! server clock (base time plus the server's skew).

use std::collections::{BTreeMap, BTreeSet};

use stacl_coalition::ledger::{fnv1a, Ledger};
use stacl_coalition::{CoalitionEnv, DecisionKind, ProofStore, Verdict};
use stacl_naplet::guard::{BatchRequest, CoordinatedGuard, GuardRequest};
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
/// base policy). Public so the networked driver can render revision
/// models into policy text for `PolicyPrepare` frames.
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

/// Build the real decision stack for a scenario. Public so transports
/// other than the in-process driver (the networked coalition of
/// `stacl-net`) can replicate the policy onto every member.
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

/// Run one episode, cross-checking every decision against the oracle.
pub fn run_episode(sc: &Scenario, bug: Option<OracleBug>) -> Episode {
    run_episode_opts(sc, bug, false, None)
}

/// One pending access decision within a run of consecutive `Access`
/// events over pairwise-distinct objects.
struct PendingAccess<'a> {
    /// Index of the event in [`Scenario::events`].
    step: usize,
    obj: usize,
    access: &'a Access,
    time: f64,
    remaining: &'a [Access],
    /// The declared remaining program — `None` when topology already
    /// denied the access (the guard is never consulted then).
    program: Option<Program>,
}

/// How often the episode drivers journal a verdict into the audit
/// ledger: every `LEDGER_SAMPLE`-th decision (1-indexed), the same on
/// every transport so ledgers byte-compare across them.
pub const LEDGER_SAMPLE: usize = 8;

/// Run one episode, optionally fanning independent access decisions
/// through [`CoordinatedGuard::decide_batch`] and journaling policy
/// changes and sampled verdicts into an append-only audit [`Ledger`].
///
/// With `batched`, maximal runs of consecutive `Access` events over
/// pairwise-distinct objects are decided as one parallel batch; the
/// oracle cross-check, logging and proof issuance still happen
/// sequentially in event order afterwards, so the episode log is
/// **byte-identical** to the sequential driver's for every seed.
/// Scenarios containing any team-scoped permission degrade to batch
/// size 1 (companion histories make cross-object decisions order-
/// dependent).
///
/// The ledger is transport-independent: the networked driver
/// ([`crate::net_driver::run_episode_net`]) produces a byte-identical
/// chain for the same scenario.
pub fn run_episode_opts(
    sc: &Scenario,
    bug: Option<OracleBug>,
    batched: bool,
    mut ledger: Option<&mut Ledger>,
) -> Episode {
    let guard = build_guard(sc);
    if let Some(l) = ledger.as_deref_mut() {
        // Epoch 0 is the boot policy; hash the canonical rendering so
        // in-process and wire chains agree byte-for-byte.
        l.record_policy_change(0, fnv1a(render_policy(&build_model(sc, 0)).as_bytes()));
    }
    let mut env = CoalitionEnv::new();
    for s in &sc.servers {
        env.add_server(s);
        for res in &sc.resources {
            env.add_resource(s, res, sc.ops.iter().map(String::as_str));
        }
    }
    let proofs = ProofStore::new();
    let mut table = AccessTable::new();
    // Pre-saturate the table with the policy's constraint vocabulary so
    // steady-state cursor checks never grow it mid-decision (verdicts
    // and logs are unaffected — they are table-id independent).
    guard.with_rbac(|r| r.saturate_alphabet(&mut table));
    let mut oracle = ReferenceOracle::new(bug);
    // Batching across objects is only sound when no permission reads
    // companions' histories.
    let can_batch = batched && !sc.perms.iter().any(|p| p.team_scope);

    // Each object's future accesses in schedule order; `cursor[i]` marks
    // how many it has already attempted (granted or not — a denied access
    // is skipped, exactly as `OnDeny::Skip` agents behave).
    let per_object: Vec<Vec<Access>> = (0..sc.objects.len())
        .map(|i| {
            sc.events
                .iter()
                .filter_map(|e| match e {
                    Event::Access { obj, access, .. } if *obj == i => Some(access.clone()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let mut cursor = vec![0usize; sc.objects.len()];

    let mut dead: BTreeSet<String> = BTreeSet::new();
    let mut log = String::new();
    let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut decisions = 0usize;
    let mut divergence = None;

    use std::fmt::Write as _;
    // Profile scenarios announce their workload shape up front, so every
    // replay (and transport) log is self-describing.
    if let Some(p) = sc.profile {
        let _ = writeln!(log, "profile {}", p.name());
    }
    let mut step = 0usize;
    'events: while step < sc.events.len() {
        match &sc.events[step] {
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
                    guard.note_arrival(name, TimePoint::new(*time));
                    oracle.note_arrival(*obj, *time);
                    let _ = writeln!(log, "[{time}] arrive {name} @ {server}");
                }
                step += 1;
            }
            Event::ServerDeath { server, time } => {
                dead.insert(server.clone());
                oracle.note_death(server);
                let _ = writeln!(log, "[{time}] server-death {server}");
                step += 1;
            }
            Event::PolicyFlip { rev, time } => {
                // The in-process half of the two-phase rollout: build the
                // revision off the hot path, then flip atomically. Epoch
                // numbers are revision numbers.
                let model = build_model(sc, *rev);
                if let Some(l) = ledger.as_deref_mut() {
                    l.record_policy_change(*rev as u64, fnv1a(render_policy(&model).as_bytes()));
                }
                let classes = sc.classes.iter().map(|c| (c.name.clone(), c.dur, c.scheme));
                let prepared = guard
                    .with_rbac_read(|r| r.prepare_epoch(model, classes, *rev as u64, &mut table))
                    .expect("scenario epochs strictly increase");
                guard
                    .with_rbac(|r| r.activate_epoch(prepared))
                    .expect("prepared epoch activates");
                oracle.note_flip(*rev);
                let _ = writeln!(log, "[{time}] policy-flip epoch={rev}");
                step += 1;
            }
            Event::Access { .. } => {
                // Collect the maximal run of consecutive Access events
                // over pairwise-distinct objects (just this event when
                // not batching).
                let mut run_end = step + 1;
                if can_batch {
                    let mut seen = BTreeSet::new();
                    if let Event::Access { obj, .. } = &sc.events[step] {
                        seen.insert(*obj);
                    }
                    while run_end < sc.events.len() {
                        match &sc.events[run_end] {
                            Event::Access { obj, .. } if seen.insert(*obj) => run_end += 1,
                            _ => break,
                        }
                    }
                }

                // Materialise the run's items in event order. Topology is
                // resolved here (it is constant within the run: server
                // deaths break it).
                let mut items: Vec<PendingAccess<'_>> = Vec::with_capacity(run_end - step);
                for i in step..run_end {
                    let Event::Access { obj, access, time } = &sc.events[i] else {
                        unreachable!("run contains only Access events");
                    };
                    let remaining = &per_object[*obj][cursor[*obj]..];
                    cursor[*obj] += 1;
                    let reachable = !dead.contains(&*access.server) && env.resolve(access).is_ok();
                    let program = reachable
                        .then(|| Program::seq_all(remaining.iter().cloned().map(Program::Access)));
                    items.push(PendingAccess {
                        step: i,
                        obj: *obj,
                        access,
                        time: *time,
                        remaining,
                        program,
                    });
                }

                // The guard pass: one parallel batch over the run, or the
                // plain sequential decide. Proofs are issued below, in
                // event order, exactly as the sequential driver does.
                let mut guard_vs: Vec<Option<Verdict>> = items.iter().map(|_| None).collect();
                if can_batch {
                    let mut reqs = Vec::new();
                    let mut slots = Vec::new();
                    for (k, it) in items.iter().enumerate() {
                        if let Some(program) = &it.program {
                            reqs.push(BatchRequest {
                                object: &sc.objects[it.obj].name,
                                access: it.access,
                                remaining: program,
                                time: TimePoint::new(it.time),
                            });
                            slots.push(k);
                        }
                    }
                    for (k, v) in slots
                        .into_iter()
                        .zip(guard.decide_batch(&reqs, &proofs, false))
                    {
                        guard_vs[k] = Some(v);
                    }
                } else {
                    for (k, it) in items.iter().enumerate() {
                        if let Some(program) = &it.program {
                            let req = GuardRequest {
                                object: &sc.objects[it.obj].name,
                                access: it.access,
                                remaining: program,
                                time: TimePoint::new(it.time),
                            };
                            guard_vs[k] = Some(guard.decide(&req, &proofs, &mut table));
                        }
                    }
                }

                // Oracle cross-check, logging and proof issuance, in
                // event order.
                for (k, it) in items.iter().enumerate() {
                    let name = &sc.objects[it.obj].name;
                    let time = it.time;
                    let access = it.access;
                    let oracle_v = oracle.decide(sc, it.obj, access, it.remaining, time);
                    let system_v: Verdict = match guard_vs[k].take() {
                        Some(v) => v,
                        None => {
                            // Topology denial happens before the guard runs,
                            // so record the verdict here to keep the
                            // telemetry invariant (verdict counters sum to
                            // total decisions) exact.
                            stacl_obs::count(stacl_obs::Counter::VerdictDeniedUnknownTarget);
                            Verdict::denied(
                                DecisionKind::DeniedUnknownTarget,
                                format!("server {} is unreachable", access.server),
                            )
                        }
                    };

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
                        proofs.issue(name, access.clone(), TimePoint::new(time + skew));
                        oracle.note_grant(it.obj, access.clone());
                    }
                }
                step = run_end;
            }
        }
    }

    Episode {
        seed: sc.seed,
        log,
        histogram,
        decisions,
        divergence,
    }
}

/// Generate the scenario for `seed` and run it.
pub fn episode_for_seed(seed: u64, bug: Option<OracleBug>) -> Episode {
    run_episode(&Scenario::generate(seed), bug)
}
