//! E18 (DESIGN.md §15, EXPERIMENTS.md E18): custody of one million
//! objects placed by the rendezvous ring across eight daemons.
//!
//! * **Claims.** Every object is claimed on its ring home through the
//!   ring-validated call the daemon's arrival path makes. Each claim
//!   must be accepted.
//! * **Steady state.** A hot set of 512 objects decides over the wire at
//!   their ring homes for 192 steps, replicating one proof per grant,
//!   with `compact_after = 64`, pipelining each member's step in one
//!   window. Every verdict must be a grant.
//! * **Churn.** The last member leaves and rejoins; only the keys it
//!   homes drain through handoff pulls, both ways. Fail-safe decides keep
//!   flowing at the current ring homes, and the drain must finish within
//!   600 s.
//! * **Proof memory.** Unsealed proofs summed over the members must stay
//!   under twice the live-cursor working set (hot set × `compact_after`).
//!
//! Ignored by default: the full shape takes minutes. Run it with
//! `cargo test --release -p stacl-bench --test e18_placement -- --include-ignored`.
//!
//! The obs counters are process-global, so this file holds a single
//! `#[test]`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use stacl::coalition::Placement;
use stacl::obs::{snapshot, Counter};
use stacl::prelude::*;
use stacl_bench::{fleet_guard, fleet_vocab};
use stacl_net::{Client, DaemonConfig, DaemonHandle};

const OBJECTS: usize = 1_000_000;
const DAEMONS: usize = 8;
const HOT: usize = 512;
const STEPS: usize = 192;
const COMPACT_AFTER: usize = 64;
const DRAIN_BOUND: Duration = Duration::from_secs(600);

#[test]
#[ignore = "1M objects x 8 daemons: run in release with --include-ignored"]
fn million_object_placement_claims_drains_and_bounds_proof_memory() {
    let vocab = fleet_vocab();

    // Identical hot-set policy replicas, custody enforced, compaction on.
    // The at_most cap compiles to one state per count, so it is sized to
    // the history each hot object accrues, with room to spare.
    let handles: Vec<DaemonHandle> = (0..DAEMONS)
        .map(|i| {
            let guard = fleet_guard(HOT, 2 * STEPS);
            guard.set_custody_enforcement(true);
            let mut cfg = DaemonConfig::new(format!("d{i}"));
            cfg.compact_after = COMPACT_AFTER;
            stacl_net::spawn(guard, ProofStore::new(), cfg).expect("bind loopback")
        })
        .collect();
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
        h.set_members(&peers);
    }
    let ring = Placement::new(peers.iter().map(|(n, _)| n.clone()));
    let home = |ring: &Placement, name: &str| -> usize {
        let m = ring.home_of(name).expect("nonempty ring");
        peers
            .iter()
            .position(|(n, _)| n == m)
            .expect("home is a peer")
    };

    // Claims: the full population at its ring homes, in process, so the
    // phase exercises placement rather than a million round trips.
    let leaver = DAEMONS - 1;
    let mut on_leaver = 0usize;
    let start = Instant::now();
    for k in 0..OBJECTS {
        let name = format!("n{k}");
        let d = home(&ring, &name);
        handles[d]
            .guard()
            .take_custody(&name)
            .expect("ring-valid claim");
        on_leaver += usize::from(d == leaver);
    }
    eprintln!(
        "e18: claimed {OBJECTS} custodies in {:.2}s, {on_leaver} on the leaver",
        start.elapsed().as_secs_f64()
    );

    // One vocabulary-synced client per member; hot names grouped by home.
    let hot_names: Vec<String> = (0..HOT).map(|k| format!("n{k}")).collect();
    let mut clients: Vec<Client> = handles
        .iter()
        .map(|h| {
            let mut c =
                Client::connect(h.addr(), "e18", Some(Duration::from_secs(10))).expect("connect");
            c.sync_vocab(
                hot_names
                    .iter()
                    .map(String::as_str)
                    .chain(["exec", "rsw", "s0", "s1", "s2", "s3"]),
            )
            .expect("vocab sync");
            c
        })
        .collect();
    let mut hot_by_home: Vec<Vec<&str>> = vec![Vec::new(); DAEMONS];
    for name in &hot_names {
        hot_by_home[home(&ring, name)].push(name);
    }

    // Steady state: one proof replicated per grant, then one pipelined
    // window of decides per time step per member.
    let remaining: Vec<Vec<Access>> = vocab.iter().map(|a| vec![a.clone()]).collect();
    let start = Instant::now();
    for k in 0..STEPS {
        let (a, rem) = (&vocab[k % vocab.len()], &remaining[k % vocab.len()]);
        for (d, names) in hot_by_home.iter().enumerate() {
            if names.is_empty() {
                continue;
            }
            for obj in names {
                clients[d].issue_proof(obj, a, k as f64).expect("proof");
            }
            let mut p = clients[d].pipeline(names.len()).expect("pipeline");
            for obj in names {
                p.submit(obj, a, rem, k as f64).expect("submit");
            }
            let done = p.finish().expect("drain the window");
            assert_eq!(done.len(), names.len(), "every decide resolves");
            for (_, v) in done {
                assert!(v.is_granted(), "placement workload must be all-grant");
            }
        }
    }
    eprintln!(
        "e18: {} decides at ring homes in {:.2}s",
        HOT * STEPS,
        start.elapsed().as_secs_f64()
    );

    // Churn: the leaver's keys drain out on leave and back on rejoin,
    // while fail-safe decides keep flowing at the current homes.
    let before = snapshot();
    let expected = (2 * on_leaver) as u64;
    let left = peers[..leaver].to_vec();
    for h in &handles {
        h.set_members(&left);
    }
    let ring_left = Placement::new(left.iter().map(|(n, _)| n.clone()));
    let mut rejoined = false;
    let t0 = Instant::now();
    for s in 0.. {
        let obj = &hot_names[s % HOT];
        let d = home(if rejoined { &ring } else { &ring_left }, obj);
        let _ = clients[d].decide_failsafe(
            obj,
            &vocab[s % vocab.len()],
            &remaining[s % vocab.len()],
            STEPS as f64,
        );
        let applied = snapshot().diff(&before).counter(Counter::NetHandoffApplied);
        if !rejoined && applied >= expected / 2 {
            for h in &handles {
                h.set_members(&peers);
            }
            rejoined = true;
        } else if rejoined && applied >= expected {
            break;
        }
        assert!(
            t0.elapsed() < DRAIN_BOUND,
            "churn drain stalled: {applied}/{expected} handoffs after {s} samples"
        );
    }
    eprintln!(
        "e18: drained {expected} handoffs in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let live_proofs: usize = handles.iter().map(|h| h.proofs().live_proof_total()).sum();
    let working_set = HOT * COMPACT_AFTER;
    eprintln!("e18: {live_proofs} live proofs, working set {working_set}");
    assert!(
        live_proofs < 2 * working_set,
        "compaction failed to bound proof memory: {live_proofs} live vs working set {working_set}"
    );
}
