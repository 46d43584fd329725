//! Frozen workload fixtures. These are copies, not imports, of the E12
//! fleet policy and the E19 attribute/hand-written policy pair from the
//! paper-experiment harness, so an edit there cannot silently change what
//! this benchmark measures.

use stacl::prelude::*;
use stacl_abac::{lower_policy, AttributePolicy, MAX_VALIDITY_SECS};

/// `n0`..`n{count-1}`.
pub fn object_names(count: usize) -> Vec<String> {
    (0..count).map(|i| format!("n{i}")).collect()
}

/// The E12 fleet policy: every named user holds `licensee`, whose single
/// permission grants `*:resource:*` under `count(0, cap, resource=…)`.
/// With `cap` above each object's access count every decision is a
/// grant that still runs a real spatial check over a `cap + 2`-state
/// counting automaton.
pub fn fleet_model<S: AsRef<str>>(users: &[S], resource: &str, cap: usize) -> RbacModel {
    let mut m = RbacModel::new();
    m.add_role("licensee");
    m.add_permission(
        Permission::new(
            "p",
            AccessPattern::parse(&format!("*:{resource}:*")).expect("fixture pattern parses"),
        )
        .with_spatial(Constraint::at_most(
            cap,
            Selector::any().with_resources([resource]),
        )),
    )
    .expect("fixture permission is new");
    m.assign_permission("licensee", "p")
        .expect("fixture role and permission exist");
    for u in users {
        m.add_user(u.as_ref());
        m.assign_user(u.as_ref(), "licensee")
            .expect("fixture user and role exist");
    }
    m
}

/// A reactive guard over [`fleet_model`] with every user enrolled.
pub fn fleet_guard<S: AsRef<str>>(users: &[S], cap: usize) -> CoordinatedGuard {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(fleet_model(users, "rsw", cap)))
        .with_mode(EnforcementMode::Reactive);
    for u in users {
        guard.enroll(u.as_ref(), ["licensee"]);
    }
    guard
}

/// The fleet access vocabulary: `exec rsw` on servers `s0`..`s3`.
pub fn fleet_vocab() -> Vec<Access> {
    (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect()
}

/// An access table with `vocab` interned up front, so cursors built on
/// first contact already cover every access the stream presents.
pub fn warm_table(vocab: &[Access]) -> AccessTable {
    let mut table = AccessTable::new();
    for a in vocab {
        table.intern(a);
    }
    table
}

/// The E19 pair as policy text: `(hand_written, lowered)`. Servers
/// `s0`..`s3` sit inside the allowed 10.0.0.0/8 block and `s4` outside
/// it, so the CIDR rule lowers to the constant-size constraint
/// `count(0, 0, server=s4)`; the always-on cron window lowers to the
/// one-week budget the hand-written side spells out. Panics if the
/// lowered permission is not exactly those primitives, so the pair can
/// never silently diverge.
pub fn attr_policy_pair(users: &[String]) -> (String, String) {
    let mut hand = String::new();
    let mut toml = String::from("[servers]\n");
    for s in 0..4 {
        toml.push_str(&format!("s{s} = \"10.0.0.{}\"\n", 4 + s));
    }
    toml.push_str("s4 = \"192.168.1.9\"\n\n[[role]]\nname = \"licensee\"\nusers = [");
    for (i, u) in users.iter().enumerate() {
        hand.push_str(&format!("user {u}\n"));
        if i > 0 {
            toml.push_str(", ");
        }
        toml.push_str(&format!("\"{u}\""));
    }
    toml.push_str(
        "]\n\n[[rule]]\nname = \"p\"\nroles = [\"licensee\"]\nop = \"exec\"\n\
         resource = \"rsw\"\nallow = [\"10.0.0.0/8\"]\ncron = \"* * * * *\"\nduration = \"7d\"\n",
    );
    hand.push_str(&format!(
        "role licensee\npermission p grants=exec:rsw:* validity={MAX_VALIDITY_SECS} \
         scheme=whole-lifetime spatial=\"count(0, 0, server=s4)\"\ngrant licensee p\n"
    ));
    for u in users {
        hand.push_str(&format!("assign {u} licensee\n"));
    }

    let attr = AttributePolicy::parse(&toml).expect("fixture attribute policy parses");
    let lowered = lower_policy(&attr, 0.0).expect("fixture attribute policy lowers");
    assert!(lowered.notes.is_empty(), "{:?}", lowered.notes);
    let p = lowered.model.permission("p").expect("lowered permission");
    assert_eq!(
        p.spatial.as_ref().expect("lowered constraint").to_string(),
        "count(0, 0, server=s4)"
    );
    assert_eq!(p.validity, Some(MAX_VALIDITY_SECS));
    (hand, stacl::rbac::policy::render_policy(&lowered.model))
}
