//! E19 (DESIGN.md §16, EXPERIMENTS.md E19): an attribute policy lowers to
//! exactly the primitives a hand-written policy spells out, and the two
//! guards then run identical decide-path work.
//!
//! The fleet's four workload servers sit inside the allowed `10.0.0.0/8`
//! block and a fifth server `s4` sits outside it, so the CIDR rule lowers
//! to a real `count(0, 0, server=s4)` constraint (every decision runs a
//! spatial check) while the workload stays all-grant. The always-on cron
//! window clamps to the one-week budget, which the hand-written side
//! carries literally.
//!
//! The obs counters are process-global, so this file holds a single
//! `#[test]`: another test in the same binary would decide concurrently
//! and pollute the counter diffs.

use stacl::obs::{snapshot, Counter, MetricsSnapshot};
use stacl::prelude::*;
use stacl::rbac::policy::{parse_policy, render_policy};
use stacl_abac::{lower_policy, AttributePolicy, MAX_VALIDITY_SECS};
use stacl_bench::run_fleet;

const OBJECTS: usize = 16;
const ACCESSES: usize = 200;

/// The hand-written policy text and the attribute policy's lowering,
/// rendered as policy text.
fn policy_pair() -> (String, String) {
    let mut hand = String::new();
    let mut toml = String::from("[servers]\n");
    for s in 0..4 {
        toml.push_str(&format!("s{s} = \"10.0.0.{}\"\n", 4 + s));
    }
    toml.push_str("s4 = \"192.168.1.9\"\n\n[[role]]\nname = \"licensee\"\nusers = [");
    for i in 0..OBJECTS {
        hand.push_str(&format!("user n{i}\n"));
        if i > 0 {
            toml.push_str(", ");
        }
        toml.push_str(&format!("\"n{i}\""));
    }
    toml.push_str(
        "]\n\n[[rule]]\nname = \"p\"\nroles = [\"licensee\"]\nop = \"exec\"\n\
         resource = \"rsw\"\nallow = [\"10.0.0.0/8\"]\ncron = \"* * * * *\"\nduration = \"7d\"\n",
    );
    hand.push_str(&format!(
        "role licensee\npermission p grants=exec:rsw:* validity={MAX_VALIDITY_SECS} \
         scheme=whole-lifetime spatial=\"count(0, 0, server=s4)\"\ngrant licensee p\n"
    ));
    for i in 0..OBJECTS {
        hand.push_str(&format!("assign n{i} licensee\n"));
    }

    let attr = AttributePolicy::parse(&toml).expect("attribute policy parses");
    let lowered = lower_policy(&attr, 0.0).expect("attribute policy lowers");
    assert!(lowered.notes.is_empty(), "{:?}", lowered.notes);
    let p = lowered.model.permission("p").expect("lowered permission");
    assert_eq!(
        p.spatial.as_ref().expect("lowered constraint").to_string(),
        "count(0, 0, server=s4)"
    );
    assert_eq!(p.validity, Some(MAX_VALIDITY_SECS));
    (hand, render_policy(&lowered.model))
}

/// A reactive guard built from policy text, the construction path a
/// daemon takes for a pushed policy.
fn guard_from(text: &str) -> CoordinatedGuard {
    let model = parse_policy(text).expect("policy text parses");
    let guard =
        CoordinatedGuard::new(ExtendedRbac::new(model)).with_mode(EnforcementMode::Reactive);
    for i in 0..OBJECTS {
        guard.enroll(format!("n{i}"), ["licensee"]);
    }
    guard
}

/// The decide-path work counters: fast-path hits, cold starts, every
/// decline rule, compile-cache misses and every verdict kind.
fn decide_path(d: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    [
        Counter::CursorFastPathHit,
        Counter::CursorColdStart,
        Counter::CacheMiss,
    ]
    .into_iter()
    .chain(Counter::DECLINES)
    .chain(Counter::VERDICTS)
    .map(|c| (c.label(), d.counter(c)))
    .collect()
}

#[test]
fn lowered_attribute_policy_runs_the_hand_written_decide_path() {
    let (hand_text, lowered_text) = policy_pair();

    let before = snapshot();
    let hand = run_fleet(&guard_from(&hand_text), OBJECTS, ACCESSES, |_| {});
    let between = snapshot();
    let lowered = run_fleet(&guard_from(&lowered_text), OBJECTS, ACCESSES, |_| {});
    let after = snapshot();
    let (hand_work, lowered_work) = (between.diff(&before), after.diff(&between));

    assert!(
        hand.iter().all(|v| v.is_granted()),
        "fleet workload must be all-grant"
    );
    assert_eq!(hand, lowered, "lowered and hand-written verdicts differ");
    assert!(
        hand_work.counter(Counter::CursorFastPathHit) > 0,
        "the fleet must run warm"
    );
    assert_eq!(
        decide_path(&hand_work),
        decide_path(&lowered_work),
        "lowered and hand-written guards did different decide-path work"
    );
}
