//! Epoch-atomicity acceptance: an epoch flip racing `decide_batch` must
//! never yield a decision that mixes tables from two epochs. The
//! observable contract is the verdict's epoch stamp — every verdict
//! carries exactly one activated epoch, bounded by the epochs active
//! just before and just after its batch, and one object's consecutive
//! decisions never see the epoch move backwards.
//!
//! Property-test style: many trials, a live flipper thread, randomized
//! only by OS scheduling — the assertions hold for *every* interleaving,
//! so flaky scheduling can only make the test less sharp, never wrong.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use stacl_coalition::ProofStore;
use stacl_naplet::guard::{CoordinatedGuard, GuardRequest};
use stacl_rbac::policy::parse_policy;
use stacl_rbac::ExtendedRbac;
use stacl_sral::builder::access;
use stacl_sral::Access;
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

const OBJECTS: usize = 4;
const FLIPS: u64 = 12;

/// The policy for one epoch. Every epoch keeps the same users and roles
/// (sessions survive the flip) but widens the spatial cap, so each epoch
/// compiles a *different* constraint automaton — a mixed-table decision
/// would be observable, not just stamped wrong.
fn policy_for(epoch: u64) -> String {
    let mut policy = String::new();
    for i in 0..OBJECTS {
        policy.push_str(&format!("user n{i}\n"));
    }
    policy.push_str(&format!(
        "role worker\npermission p grants=exec:rsw:* \
         spatial=\"count(0, {}, resource=rsw)\"\ngrant worker p\n",
        1000 + epoch
    ));
    for i in 0..OBJECTS {
        policy.push_str(&format!("assign n{i} worker\n"));
    }
    policy
}

#[test]
fn epoch_flip_racing_decide_batch_never_mixes_epochs() {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(parse_policy(&policy_for(0)).unwrap()));
    for i in 0..OBJECTS {
        guard.enroll(format!("n{i}"), ["worker"]);
    }

    let names: Vec<String> = (0..OBJECTS).map(|i| format!("n{i}")).collect();
    let a = Access::new("exec", "rsw", "s1");
    let prog = access("exec", "rsw", "s1");
    // Each object appears TWICE per batch: its two requests run
    // sequentially on one worker, so their epochs must be ordered even
    // while the flipper runs.
    let requests: Vec<GuardRequest<'_>> = (0..2 * OBJECTS)
        .map(|k| GuardRequest {
            object: &names[k % OBJECTS],
            access: &a,
            remaining: &prog,
            time: TimePoint::new(k as f64 * 0.001),
        })
        .collect();

    let stop = AtomicBool::new(false);
    // Highest epoch known activated; stored *after* activate_epoch
    // returns, so `activated ≤ guard epoch` always holds.
    let activated = AtomicU64::new(0);

    std::thread::scope(|s| {
        let decider = s.spawn(|| {
            let proofs = ProofStore::new();
            let mut batches = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let floor = activated.load(Ordering::Acquire);
                let verdicts = guard.decide_batch(&requests, &proofs, false);
                let ceil = guard.with_rbac_read(|r| r.epoch());
                batches.push((floor, ceil, verdicts));
            }
            batches
        });

        let mut table = AccessTable::new();
        for epoch in 1..=FLIPS {
            let prepared = guard
                .with_rbac_read(|r| {
                    r.prepare_epoch(
                        parse_policy(&policy_for(epoch)).unwrap(),
                        [],
                        epoch,
                        &mut table,
                    )
                })
                .expect("strictly increasing epochs prepare");
            guard
                .with_rbac(|r| r.activate_epoch(prepared))
                .expect("prepared epoch activates");
            activated.store(epoch, Ordering::Release);
            // Let a few batches run inside each epoch.
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Release);

        let batches = decider.join().expect("decider thread must not panic");
        assert!(!batches.is_empty(), "decider never completed a batch");
        for (floor, ceil, verdicts) in &batches {
            assert_eq!(verdicts.len(), requests.len());
            for v in verdicts {
                assert!(
                    v.is_granted(),
                    "caps were sized to grant everything, got {v}"
                );
                // Mixing tables would stamp an epoch outside the window
                // of epochs activated around this batch.
                assert!(
                    (*floor..=*ceil).contains(&v.epoch),
                    "verdict epoch {} outside activation window [{floor}, {ceil}]",
                    v.epoch
                );
            }
            // One object's sequential decisions: epoch never regresses.
            for i in 0..OBJECTS {
                assert!(
                    verdicts[i].epoch <= verdicts[i + OBJECTS].epoch,
                    "object n{i} saw the epoch move backwards within one batch"
                );
            }
        }
    });

    // Quiescent state: every decision now runs under the final epoch.
    let proofs = ProofStore::new();
    let requests: Vec<GuardRequest<'_>> = (0..OBJECTS)
        .map(|k| GuardRequest {
            object: &names[k],
            access: &a,
            remaining: &prog,
            time: TimePoint::new(100.0),
        })
        .collect();
    for v in guard.decide_batch(&requests, &proofs, false) {
        assert_eq!(v.epoch, FLIPS);
    }
}
