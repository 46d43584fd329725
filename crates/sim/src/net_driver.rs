//! The networked episode driver: wire-level differential validation.
//!
//! [`run_episode_net`] replays a scenario's exact event stream against a
//! coalition of `stacl-net` daemons on loopback — one
//! [`stacl_naplet::guard::CoordinatedGuard`] shard per daemon, custody
//! enforcement on — and produces an [`Episode`] whose log is
//! **byte-identical** to [`crate::run_episode`]'s for every seed.
//!
//! How the distributed replay preserves identity:
//!
//! * **Policy** is replicated at build time: every daemon gets the same
//!   [`build_guard`] output (same scenario, same enrollments).
//! * **Proofs** are replicated by the driver: after every grant it
//!   broadcasts `IssueProof` to *all* members in event order, so each
//!   replica's proof store is identical (same contents, same sequence
//!   numbers) — team-scoped constraints read the same combined history
//!   everywhere.
//! * **Per-object gate state** (arrival history, temporal timelines,
//!   spatial approvals) travels with the object: a migration onto a
//!   different daemon triggers the wire handoff pull, after which the
//!   receiver's gate equals the single in-process guard's.
//! * **Topology** stays driver-side, exactly like the in-process driver:
//!   a dead or unknown server denies `DeniedUnknownTarget` before any
//!   member is consulted, and a server death never kills a daemon (a
//!   member outliving one of its servers still custodies its objects).
//!
//! Decisions route to the object's *custodian* — the daemon serving the
//! server of its last non-dropped arrival (server index modulo daemon
//! count when the coalition is smaller than the topology).

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use stacl_coalition::ledger::{fnv1a, Ledger};
use stacl_coalition::{CoalitionEnv, DecisionKind, Placement, ProofStore, Verdict};
use stacl_naplet::guard::Custody;
use stacl_net::frames::scheme_to_u8;
use stacl_net::{Client, DaemonConfig, DaemonHandle};
use stacl_rbac::policy::render_policy;
use stacl_sral::Access;

use crate::episode::{build_guard, build_model, Divergence, Episode, LEDGER_SAMPLE};
use crate::oracle::{OracleBug, ReferenceOracle};
use crate::scenario::{Event, Scenario};

/// Options for the placement-routed replay (see [`run_episode_net`]).
#[derive(Clone, Copy, Debug)]
pub struct PlacementOpts {
    /// Inject membership churn mid-episode: the last member leaves at the
    /// one-third mark and rejoins at the two-thirds mark, each change
    /// draining exactly the moved keys through the custody rebalance
    /// before the replay continues.
    pub churn: bool,
    /// Per-daemon proof-compaction trigger
    /// ([`stacl_net::DaemonConfig::compact_after`]); `0` disables
    /// compaction. Either setting must leave the verdict log
    /// byte-identical — compaction is verdict-neutral by construction.
    pub compact_after: usize,
}

/// Replay `sc` over a loopback coalition of `n_daemons` members,
/// optionally journaling policy changes and sampled verdicts into an
/// audit [`Ledger`]. Sampling (every [`LEDGER_SAMPLE`]-th decision) and
/// payloads mirror [`crate::episode::run_episode_opts`] exactly, so the
/// chain byte-compares across transports.
///
/// Without `placement`, custody follows arrivals: a migration onto a
/// different member pulls the handoff. With it, the coalition is routed
/// by the **rendezvous placement ring**: every object lives on its ring
/// home, every arrival and decision routes there directly (no handoff
/// per migration), and membership churn rebalances custody via
/// [`stacl_net::DaemonHandle::set_members`]. Either way the verdict log
/// must stay byte-identical to the in-process driver's for every seed.
///
/// Returns an error only on transport-setup or migration failures — a
/// member that cannot *decide* never errors, it fail-safes to
/// `DeniedCoordination` (and that would surface as a divergence).
pub fn run_episode_net(
    sc: &Scenario,
    bug: Option<OracleBug>,
    n_daemons: usize,
    mut ledger: Option<&mut Ledger>,
    placement: Option<PlacementOpts>,
) -> Result<Episode, String> {
    assert!(n_daemons >= 1, "a coalition needs at least one member");
    if let Some(l) = ledger.as_deref_mut() {
        l.record_policy_change(0, fnv1a(render_policy(&build_model(sc, 0)).as_bytes()));
    }
    let d_of = |server: &str| -> usize {
        sc.servers.iter().position(|s| s == server).unwrap_or(0) % n_daemons
    };

    // Spawn the members: identical policy replicas, custody enforced.
    let mut handles: Vec<DaemonHandle> = Vec::with_capacity(n_daemons);
    for i in 0..n_daemons {
        let guard = build_guard(sc);
        guard.set_custody_enforcement(true);
        let mut cfg = DaemonConfig::new(format!("d{i}"));
        cfg.skew = sc.skews.get(i).copied().unwrap_or(0.0);
        // The legacy (custody-following) replay predates compaction; keep
        // it byte-for-byte stable by disabling the trigger there.
        cfg.compact_after = placement.map_or(0, |p| p.compact_after);
        let h = stacl_net::spawn(guard, ProofStore::new(), cfg)
            .map_err(|e| format!("spawn daemon d{i}: {e}"))?;
        handles.push(h);
    }
    let peers: Vec<(String, SocketAddr)> = handles
        .iter()
        .map(|h| (h.name().to_string(), h.addr()))
        .collect();
    for h in &handles {
        for (n, a) in &peers {
            if n != h.name() {
                h.add_peer(n, *a);
            }
        }
    }

    // Placement mode: install the full-membership ring everywhere. The
    // driver mirrors it to route arrivals and decisions straight to each
    // object's home custodian.
    let mut ring: Option<Placement> = placement.map(|_| {
        let ring = Placement::new(peers.iter().map(|(n, _)| n.clone()));
        for h in &handles {
            h.set_members(&peers);
        }
        ring
    });
    let member_idx = |m: &str| -> usize {
        peers
            .iter()
            .position(|(n, _)| n == m)
            .expect("ring members come from the peer list")
    };
    // Churn schedule: the last member leaves a third of the way in and
    // rejoins at two thirds. Requires at least two members and enough
    // events for the marks to be distinct interior points.
    let churn_marks = placement.and_then(|p| {
        let (p1, p2) = (sc.events.len() / 3, sc.events.len() * 2 / 3);
        (p.churn && n_daemons >= 2 && p1 >= 1 && p2 > p1).then_some((p1, p2))
    });

    // One client per member, vocabulary pre-announced in one frame so
    // the steady-state replay is ids-only.
    let timeout = Some(Duration::from_secs(10));
    let mut clients: Vec<Client> = Vec::with_capacity(n_daemons);
    for h in &handles {
        let mut c = Client::connect(h.addr(), "sim-driver", timeout)
            .map_err(|e| format!("connect to {}: {e}", h.name()))?;
        let names = sc
            .objects
            .iter()
            .map(|o| o.name.as_str())
            .chain(sc.ops.iter().map(String::as_str))
            .chain(sc.resources.iter().map(String::as_str))
            .chain(sc.servers.iter().map(String::as_str));
        c.sync_vocab(names)
            .map_err(|e| format!("vocab sync to {}: {e}", h.name()))?;
        clients.push(c);
    }

    // Driver-side topology and oracle state — mirrors run_episode_opts.
    let mut env = CoalitionEnv::new();
    for s in &sc.servers {
        env.add_server(s);
        for res in &sc.resources {
            env.add_resource(s, res, sc.ops.iter().map(String::as_str));
        }
    }
    let mut oracle = ReferenceOracle::new(bug);
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
    // The object's current custodian member, set by its first arrival.
    let mut custodian = vec![0usize; sc.objects.len()];
    let mut has_custodian = vec![false; sc.objects.len()];

    let mut dead: BTreeSet<String> = BTreeSet::new();
    let mut log = String::new();
    let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut decisions = 0usize;
    let mut divergence = None;

    use std::fmt::Write as _;
    // Same self-describing header as the in-process driver — logs must
    // stay byte-identical across transports.
    if let Some(p) = sc.profile {
        let _ = writeln!(log, "profile {}", p.name());
    }
    'events: for (step, event) in sc.events.iter().enumerate() {
        // Membership churn (placement mode): apply the scheduled change
        // and wait for the custody rebalance to settle — every claimed
        // object resident on its (possibly new) ring home — before
        // replaying further events. The drain moves only keys whose home
        // moved, and it is verdict-neutral, so the log never notices.
        if let (Some((p1, p2)), Some(r)) = (churn_marks, ring.as_mut()) {
            let change: Option<Vec<(String, SocketAddr)>> = if step == p1 {
                // Leave: evict the member homing the first claimed key, so
                // the churn provably drains at least one custody (object
                // names hash deterministically — a fixed choice of leaver
                // could own none of the scenario's few keys).
                let leaver = has_custodian
                    .iter()
                    .position(|c| *c)
                    .map(|i| member_idx(r.home_of(&sc.objects[i].name).expect("nonempty ring")))
                    .unwrap_or(n_daemons - 1);
                Some(
                    peers
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != leaver)
                        .map(|(_, p)| p.clone())
                        .collect(),
                )
            } else if step == p2 {
                Some(peers.clone())
            } else {
                None
            };
            if let Some(members) = change {
                *r = Placement::new(members.iter().map(|(n, _)| n.clone()));
                for h in &handles {
                    h.set_members(&members);
                }
                let deadline = Instant::now() + Duration::from_secs(20);
                for (i, claimed) in has_custodian.iter().enumerate() {
                    if !*claimed {
                        continue;
                    }
                    let name = &sc.objects[i].name;
                    let home = member_idx(r.home_of(name).expect("nonempty ring"));
                    while handles[home].guard().custody_of(name) != Custody::Resident {
                        if Instant::now() > deadline {
                            return Err(format!("rebalance of {name} to d{home} never settled"));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        }
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
                    // Placement mode pins custody to the ring home: every
                    // arrival lands there (no `from` — custody never
                    // follows arrivals), so the home accumulates the full
                    // arrival history like the in-process guard. The
                    // legacy replay names the previous custodian so a
                    // cross-member move pulls the handoff; the very first
                    // arrival has none.
                    let (d, from) = match ring.as_ref() {
                        Some(r) => (member_idx(r.home_of(name).expect("nonempty ring")), None),
                        None => (
                            d_of(server),
                            has_custodian[*obj].then(|| peers[custodian[*obj]].0.clone()),
                        ),
                    };
                    clients[d]
                        .arrive(name, *time, from.as_deref())
                        .map_err(|e| format!("arrival of {name} at d{d}: {e}"))?;
                    custodian[*obj] = d;
                    has_custodian[*obj] = true;
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
                // The wire half of the two-phase rollout: ship the
                // rendered revision to every member (phase 1), then flip
                // them all (phase 2). A member that fails either phase is
                // a transport failure here — the sim models complete
                // rollouts; partial ones are covered by the stacl-net
                // chaos tests.
                let policy = render_policy(&build_model(sc, *rev));
                if let Some(l) = ledger.as_deref_mut() {
                    l.record_policy_change(*rev as u64, fnv1a(policy.as_bytes()));
                }
                let classes: Vec<(String, f64, u8)> = sc
                    .classes
                    .iter()
                    .map(|c| (c.name.clone(), c.dur, scheme_to_u8(c.scheme)))
                    .collect();
                for (i, c) in clients.iter_mut().enumerate() {
                    c.policy_prepare(*rev as u64, &policy, &classes)
                        .map_err(|e| format!("prepare epoch {rev} at d{i}: {e}"))?;
                }
                for (i, c) in clients.iter_mut().enumerate() {
                    c.policy_activate(*rev as u64)
                        .map_err(|e| format!("activate epoch {rev} at d{i}: {e}"))?;
                }
                oracle.note_flip(*rev);
                let _ = writeln!(log, "[{time}] policy-flip epoch={rev}");
            }
            Event::Access { obj, access, time } => {
                let name = &sc.objects[*obj].name;
                let remaining = &per_object[*obj][cursor[*obj]..];
                cursor[*obj] += 1;
                let reachable = !dead.contains(&*access.server) && env.resolve(access).is_ok();
                // Placement mode routes straight to the ring home — any
                // other member would answer with a redirect.
                let target = match ring.as_ref() {
                    Some(r) => member_idx(r.home_of(name).expect("nonempty ring")),
                    None => custodian[*obj],
                };
                let system_v = if reachable {
                    // An unreachable or crashed member resolves to the
                    // counted fail-safe denial.
                    clients[target].decide_failsafe(name, access, remaining, *time)
                } else {
                    stacl_obs::count(stacl_obs::Counter::VerdictDeniedUnknownTarget);
                    Verdict::denied(
                        DecisionKind::DeniedUnknownTarget,
                        format!("server {} is unreachable", access.server),
                    )
                };
                let oracle_v = oracle.decide(sc, *obj, access, remaining, *time);

                decisions += 1;
                *histogram.entry(system_v.kind.label()).or_insert(0) += 1;
                if decisions % LEDGER_SAMPLE == 1 {
                    if let Some(l) = ledger.as_deref_mut() {
                        l.record_verdict(*time, name, &access.to_string(), &system_v);
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
                        step,
                        time: *time,
                        object: name.clone(),
                        access: access.clone(),
                        guard: system_v.kind,
                        oracle: oracle_v.kind,
                    });
                    let _ = writeln!(log, "DIVERGENCE at step {step}");
                    break 'events;
                }

                if system_v.is_granted() {
                    let skew = sc
                        .servers
                        .iter()
                        .position(|s| **s == *access.server)
                        .map(|i| sc.skews[i])
                        .unwrap_or(0.0);
                    // Replicate the proof onto every member, in event
                    // order, so all proof stores stay identical.
                    for (i, c) in clients.iter_mut().enumerate() {
                        c.issue_proof(name, access, *time + skew)
                            .map_err(|e| format!("proof replication to d{i}: {e}"))?;
                    }
                    oracle.note_grant(*obj, access.clone());
                }
            }
        }
    }

    drop(clients);
    for mut h in handles {
        h.shutdown();
    }

    Ok(Episode {
        seed: sc.seed,
        log,
        histogram,
        decisions,
        divergence,
    })
}
