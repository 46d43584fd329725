//! The loopback-coalition backend of the episode driver
//! ([`crate::Transport::Net`]): one [`build_guard`] replica per
//! `stacl-net` daemon, custody enforcement on. It keeps the log
//! byte-identical to the in-process transport's because every member
//! gets the same policy (at boot, and each flip as `PolicyPrepare` then
//! `PolicyActivate`), every grant's proof is broadcast to all members in
//! event order (so team-scoped constraints read the same history
//! everywhere), and per-object gate state travels with the object
//! through the wire handoff pull. Decisions route to the object's
//! custodian: the member serving the server of its last non-dropped
//! arrival (server index modulo member count), or, with `ring`, its
//! rendezvous-ring home.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use stacl_coalition::{Placement, ProofStore, Verdict};
use stacl_naplet::guard::Custody;
use stacl_net::frames::scheme_to_u8;
use stacl_net::{Client, DaemonConfig, DaemonHandle};
use stacl_rbac::RbacModel;
use stacl_sral::Access;

use crate::episode::{build_guard, Backend, PendingAccess};
use crate::scenario::Scenario;

/// A running loopback coalition. Fields drop in order: the clients
/// disconnect before each dropped [`DaemonHandle`] shuts its daemon down.
pub(crate) struct Coalition<'a> {
    sc: &'a Scenario,
    clients: Vec<Client>,
    handles: Vec<DaemonHandle>,
    peers: Vec<(String, SocketAddr)>,
    /// The placement ring every member holds, mirrored here to route
    /// arrivals and decisions straight to each object's home.
    ring: Option<Placement>,
    /// Each object's current custodian member, set by its first arrival.
    custodian: Vec<Option<usize>>,
}

impl<'a> Coalition<'a> {
    /// Spawn `daemons` members with identical policy replicas, connect
    /// one client to each and pre-announce the scenario's vocabulary so
    /// the replay is ids-only.
    pub(crate) fn spawn(
        sc: &'a Scenario,
        daemons: usize,
        ring: bool,
        compact_after: usize,
    ) -> Result<Self, String> {
        if daemons == 0 {
            return Err("a loopback coalition needs at least one daemon".into());
        }
        let mut handles = Vec::with_capacity(daemons);
        for i in 0..daemons {
            let guard = build_guard(sc);
            guard.set_custody_enforcement(true);
            let mut cfg = DaemonConfig::new(format!("d{i}"));
            cfg.skew = sc.skews.get(i).copied().unwrap_or(0.0);
            cfg.compact_after = compact_after;
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
        let ring = ring.then(|| {
            for h in &handles {
                h.set_members(&peers);
            }
            Placement::new(peers.iter().map(|(n, _)| n.clone()))
        });
        let timeout = Some(Duration::from_secs(10));
        let mut clients = Vec::with_capacity(daemons);
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
        Ok(Coalition {
            sc,
            clients,
            handles,
            peers,
            ring,
            custodian: vec![None; sc.objects.len()],
        })
    }

    /// The member index of `object`'s ring home.
    fn home(&self, ring: &Placement, object: &str) -> usize {
        let home = ring.home_of(object).expect("nonempty ring");
        self.peers
            .iter()
            .position(|(n, _)| n == home)
            .expect("ring members come from the peer list")
    }
}

impl Backend for Coalition<'_> {
    /// Membership churn on a ring of two or more members: one leaves at
    /// the one-third mark and rejoins at two thirds. Each change waits
    /// for the custody rebalance to settle (every claimed object resident
    /// on its possibly new ring home) before replaying further events.
    /// The drain moves only keys whose home moved and is verdict-neutral,
    /// so the log never notices.
    fn before_step(&mut self, step: usize) -> Result<(), String> {
        let (p1, p2) = (self.sc.events.len() / 3, self.sc.events.len() * 2 / 3);
        let Some(ring) = self
            .ring
            .as_ref()
            .filter(|_| self.peers.len() >= 2 && p1 >= 1)
        else {
            return Ok(());
        };
        let members: Vec<(String, SocketAddr)> = if step == p1 {
            // Evict the member homing the first claimed key, so the churn
            // provably drains at least one custody (object names hash
            // deterministically: a fixed leaver could own none of the
            // scenario's few keys).
            let leaver = match self.custodian.iter().position(Option::is_some) {
                Some(i) => self.home(ring, &self.sc.objects[i].name),
                None => self.peers.len() - 1,
            };
            let mut members = self.peers.clone();
            members.remove(leaver);
            members
        } else if step == p2 {
            self.peers.clone()
        } else {
            return Ok(());
        };
        let ring = Placement::new(members.iter().map(|(n, _)| n.clone()));
        for h in &self.handles {
            h.set_members(&members);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        for (i, c) in self.custodian.iter().enumerate() {
            if c.is_none() {
                continue;
            }
            let name = &self.sc.objects[i].name;
            let home = self.home(&ring, name);
            while self.handles[home].guard().custody_of(name) != Custody::Resident {
                if Instant::now() > deadline {
                    return Err(format!("rebalance of {name} to d{home} never settled"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.ring = Some(ring);
        Ok(())
    }

    fn arrive(&mut self, obj: usize, server: &str, time: f64) -> Result<(), String> {
        let name = &self.sc.objects[obj].name;
        // With a ring every arrival lands on the home (no `from`: custody
        // never follows arrivals), so the home accumulates the full
        // arrival history like the in-process guard. Otherwise the
        // arrival names the previous custodian, so a cross-member move
        // pulls the handoff; the very first arrival has none.
        let (d, from) = match &self.ring {
            Some(ring) => (self.home(ring, name), None),
            None => {
                let server_idx = self.sc.servers.iter().position(|s| s == server);
                let from = self.custodian[obj].map(|c| self.peers[c].0.as_str());
                (server_idx.unwrap_or(0) % self.clients.len(), from)
            }
        };
        self.clients[d]
            .arrive(name, time, from)
            .map_err(|e| format!("arrival of {name} at d{d}: {e}"))?;
        self.custodian[obj] = Some(d);
        Ok(())
    }

    /// The wire two-phase rollout: ship the rendered revision to every
    /// member, then flip them all. A member failing either phase is a
    /// transport failure here; partial rollouts are covered by the
    /// `stacl-net` chaos tests.
    fn flip(&mut self, rev: usize, _model: RbacModel, policy: &str) -> Result<(), String> {
        let classes: Vec<(String, f64, u8)> = (self.sc.classes.iter())
            .map(|c| (c.name.clone(), c.dur, scheme_to_u8(c.scheme)))
            .collect();
        for (i, c) in self.clients.iter_mut().enumerate() {
            c.policy_prepare(rev as u64, policy, &classes)
                .map_err(|e| format!("prepare epoch {rev} at d{i}: {e}"))?;
        }
        for (i, c) in self.clients.iter_mut().enumerate() {
            c.policy_activate(rev as u64)
                .map_err(|e| format!("activate epoch {rev} at d{i}: {e}"))?;
        }
        Ok(())
    }

    /// One decide frame per access (runs are never batched over the
    /// wire). An unreachable or crashed member resolves to the counted
    /// fail-safe denial.
    fn decide(&mut self, run: &[PendingAccess<'_>], out: &mut [Option<Verdict>]) {
        for (it, slot) in run.iter().zip(out).filter(|(it, _)| it.reachable) {
            let name = &self.sc.objects[it.obj].name;
            let target = match &self.ring {
                Some(ring) => self.home(ring, name),
                None => self.custodian[it.obj].unwrap_or(0),
            };
            *slot =
                Some(self.clients[target].decide_failsafe(name, it.access, it.remaining, it.time));
        }
    }

    /// Replicate the proof onto every member, in event order, so all
    /// proof stores stay identical.
    fn issue(&mut self, obj: usize, access: &Access, stamp: f64) -> Result<(), String> {
        let name = &self.sc.objects[obj].name;
        for (i, c) in self.clients.iter_mut().enumerate() {
            c.issue_proof(name, access, stamp)
                .map_err(|e| format!("proof replication to d{i}: {e}"))?;
        }
        Ok(())
    }
}
