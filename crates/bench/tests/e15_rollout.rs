//! E15 carried approval (DESIGN.md §12, EXPERIMENTS.md E15): a policy
//! rollout to a spatially identical policy keeps every warm cursor.
//! `activate_epoch` re-stamps the cursors of carried permissions to the
//! new generation instead of dropping them, so a fleet that flips its
//! policy eight times mid-run builds and declines exactly as many cursors
//! as the same fleet without flips.
//!
//! The obs counters are process-global, so this file holds a single
//! `#[test]`: another test in the same binary would decide concurrently
//! and pollute the counter diffs.

use stacl::obs::{snapshot, Counter, MetricsSnapshot};
use stacl::prelude::*;
use stacl_bench::{fleet_guard, fleet_model, fleet_vocab, run_fleet};

const OBJECTS: usize = 16;
const ACCESSES: usize = 200;
const FLIPS: usize = 8;

/// Cursor builds and every decline rule's count: what a dropped or
/// stale cursor would move.
fn cursor_rebuilds(d: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    std::iter::once(Counter::CursorColdStart)
        .chain(Counter::DECLINES)
        .map(|c| (c.label(), d.counter(c)))
        .collect()
}

#[test]
fn rollouts_to_an_identical_policy_keep_every_warm_cursor() {
    let total = OBJECTS * ACCESSES;

    let before = snapshot();
    let steady = run_fleet(&fleet_guard(OBJECTS, ACCESSES), OBJECTS, ACCESSES, |_| {});
    let no_flip = snapshot().diff(&before);
    assert!(
        steady.iter().all(|v| v.is_granted()),
        "fleet workload must be all-grant"
    );

    // Eight complete prepare→activate rollouts at fixed decision indices,
    // spread evenly over the run. Preparation interns into a table of its
    // own, as a member preparing off the hot path does.
    let guard = fleet_guard(OBJECTS, ACCESSES);
    let flip_at: Vec<usize> = (1..=FLIPS).map(|j| j * total / (FLIPS + 1)).collect();
    let mut flip_table = AccessTable::new();
    for a in &fleet_vocab() {
        flip_table.intern(a);
    }
    let mut epoch = 0u64;
    let before = snapshot();
    let flipped = run_fleet(&guard, OBJECTS, ACCESSES, |i| {
        if flip_at.contains(&i) {
            epoch += 1;
            let prepared = guard
                .with_rbac_read(|r| {
                    r.prepare_epoch(
                        fleet_model(OBJECTS, "rsw", ACCESSES + 2),
                        std::iter::empty(),
                        epoch,
                        &mut flip_table,
                    )
                })
                .expect("epochs strictly increase");
            guard
                .with_rbac(|r| r.activate_epoch(prepared))
                .expect("prepared epoch activates");
        }
    });
    let with_flips = snapshot().diff(&before);

    assert_eq!(with_flips.counter(Counter::EpochActivate), FLIPS as u64);
    assert!(
        flipped.iter().all(|v| v.is_granted()),
        "fleet workload must be all-grant under flips"
    );
    assert_eq!(flipped.last().map(|v| v.epoch), Some(FLIPS as u64));
    assert!(
        no_flip.counter(Counter::CursorFastPathHit) > 0,
        "the fleet must run warm"
    );
    assert_eq!(
        cursor_rebuilds(&with_flips),
        cursor_rebuilds(&no_flip),
        "a rollout to a spatially identical policy must carry every warm cursor"
    );
}
