//! Integration tests for the `stacl` CLI subcommands, driven in-process
//! through the library surface (no subprocess spawning).

use std::fs;
use std::path::PathBuf;

use stacl_cli::commands;

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Write a temp file unique to this test run.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacl-cli-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    fs::write(&path, contents).unwrap();
    path
}

const PROGRAM: &str = "read manifest @ home ; verify libA @ s1 ; write report @ home\n";

const POLICY: &str = r#"
user  bot
role  auditor
permission p-all grants=*:*:* spatial="count(0, 10, all)"
grant auditor p-all
assign bot auditor
"#;

#[test]
fn parse_accepts_valid_program() {
    let f = temp_file("ok.sral", PROGRAM);
    assert!(commands::parse(&args(&[f.to_str().unwrap()])).is_ok());
}

#[test]
fn parse_rejects_missing_file_and_bad_syntax() {
    assert!(commands::parse(&args(&["/no/such/file.sral"])).is_err());
    let f = temp_file("bad.sral", "read read read\n");
    assert!(commands::parse(&args(&[f.to_str().unwrap()])).is_err());
    // Wrong arity.
    assert!(commands::parse(&args(&[])).is_err());
}

#[test]
fn check_verdicts_and_exit_semantics() {
    let f = temp_file("check.sral", PROGRAM);
    let path = f.to_str().unwrap();
    // Held constraint → Ok.
    assert!(commands::check(&args(&[
        path,
        "[read manifest @ home] before [write report @ home]",
    ]))
    .is_ok());
    // Violated constraint → Err (non-zero exit).
    assert!(commands::check(&args(&[path, "count(0, 1, all)"])).is_err());
    // Exists semantics flips a branch-dependent verdict.
    assert!(commands::check(&args(&[path, "count(0, 1, all)", "--semantics", "exists",])).is_err());
    // Malformed constraint text.
    assert!(commands::check(&args(&[path, "count(("])).is_err());
    // Unknown semantics value.
    assert!(commands::check(&args(&[path, "true", "--semantics", "maybe"])).is_err());
}

#[test]
fn check_with_history() {
    let f = temp_file("hist.sral", "exec rsw @ s2\n");
    let path = f.to_str().unwrap();
    // Cap 5, 5 already consumed on s1 → the s2 access violates.
    assert!(commands::check(&args(&[
        path,
        "count(0, 5, resource=rsw)",
        "--history",
        "exec rsw s1; exec rsw s1; exec rsw s1; exec rsw s1; exec rsw s1",
    ]))
    .is_err());
    // With room left it holds.
    assert!(commands::check(&args(&[
        path,
        "count(0, 5, resource=rsw)",
        "--history",
        "exec rsw s1; exec rsw s1",
    ]))
    .is_ok());
    // Malformed history entry.
    assert!(commands::check(&args(&[path, "true", "--history", "exec rsw",])).is_err());
}

#[test]
fn traces_prints_model() {
    let f = temp_file("traces.sral", PROGRAM);
    assert!(commands::traces_cmd(&args(&[f.to_str().unwrap()])).is_ok());
    assert!(commands::traces_cmd(&args(&[
        f.to_str().unwrap(),
        "--max-len",
        "3",
        "--max-count",
        "5",
    ]))
    .is_ok());
    assert!(commands::traces_cmd(&args(&[f.to_str().unwrap(), "--max-len", "three"])).is_err());
}

#[test]
fn policy_roundtrip_and_errors() {
    let f = temp_file("p.policy", POLICY);
    assert!(commands::policy(&args(&[f.to_str().unwrap()])).is_ok());
    let bad = temp_file("bad.policy", "grant nobody nothing\n");
    assert!(commands::policy(&args(&[bad.to_str().unwrap()])).is_err());
}

#[test]
fn run_executes_compliant_program() {
    let pf = temp_file("run.policy", POLICY);
    let sf = temp_file("run.sral", PROGRAM);
    assert!(commands::run(&args(&[pf.to_str().unwrap(), sf.to_str().unwrap(),])).is_ok());
    // Explicit flags.
    assert!(commands::run(&args(&[
        pf.to_str().unwrap(),
        sf.to_str().unwrap(),
        "--agent",
        "bot",
        "--home",
        "home",
        "--mode",
        "reactive",
        "--on-deny",
        "skip",
    ]))
    .is_ok());
    // Unknown agent (no roles) errors out.
    assert!(commands::run(&args(&[
        pf.to_str().unwrap(),
        sf.to_str().unwrap(),
        "--agent",
        "ghost",
    ]))
    .is_err());
    // Bad mode value.
    assert!(commands::run(&args(&[
        pf.to_str().unwrap(),
        sf.to_str().unwrap(),
        "--mode",
        "psychic",
    ]))
    .is_err());
}

/// An epoch-1 replacement for [`POLICY`]: the spatial cap drops to zero,
/// so every access that granted under the boot policy denies after a push.
const POLICY_DENY: &str = r#"
user  bot
role  auditor
permission p-none grants=*:*:* spatial="count(0, 0, all)"
grant auditor p-none
assign bot auditor
"#;

#[test]
fn sim_churn_ledger_roundtrip_and_verify() {
    let out = temp_file("chain.txt", "");
    let path = out.to_str().unwrap();
    assert!(commands::sim(&args(&[
        "run", "--seeds", "2", "--churn", "3", "--ledger", path,
    ]))
    .is_ok());
    assert!(commands::ledger(&args(&["verify", path])).is_ok());

    // Tampering with a recorded payload breaks the hash chain.
    let text = fs::read_to_string(path).unwrap();
    assert!(text.contains("|policy|epoch=1 "));
    let tampered = temp_file(
        "chain-tampered.txt",
        &text.replacen("epoch=1", "epoch=7", 1),
    );
    assert!(commands::ledger(&args(&["verify", tampered.to_str().unwrap()])).is_err());

    assert!(commands::ledger(&args(&["frobnicate"])).is_err());
    assert!(commands::ledger(&args(&["verify", "/no/such/chain.txt"])).is_err());
}

/// `--transport net` replays over loopback daemons; the run itself
/// byte-compares the wire ledger against the in-process chain before
/// writing it.
#[test]
fn sim_net_ledger_matches_in_process_and_verifies() {
    let out = temp_file("chain-net.txt", "");
    let path = out.to_str().unwrap();
    let run = [
        "run",
        "--seeds",
        "2",
        "--transport",
        "net",
        "--daemons",
        "2",
        "--ledger",
        path,
    ];
    assert_eq!(commands::sim(&args(&run)), Ok(()));
    assert_eq!(commands::ledger(&args(&["verify", path])), Ok(()));
}

/// Every flag combination maps to one transport or is refused with an
/// error (exit 1), never a panic.
#[test]
fn sim_run_flags_map_to_one_transport() {
    let run = |extra: &[&str]| {
        let mut a = vec!["run", "--seeds", "2"];
        a.extend_from_slice(extra);
        commands::sim(&args(&a))
    };
    assert_eq!(run(&["--batch", "true", "--stats", "true"]), Ok(()));
    assert!(run(&["--transport", "net", "--batch", "true"]).is_err());
    assert!(run(&["--profile", "commuter", "--churn", "1"]).is_err());
    assert!(run(&["--transport", "bogus"]).is_err());
    let zero = run(&["--transport", "net", "--daemons", "0"]).unwrap_err();
    assert!(zero.contains("at least one daemon"), "{zero}");
}

#[test]
fn policy_push_flips_a_live_member() {
    use stacl::prelude::*;
    use std::time::Duration;

    let model = stacl::rbac::policy::parse_policy(POLICY).unwrap();
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    guard.enroll("bot", ["auditor"]);
    let mut h = stacl_net::spawn(guard, ProofStore::new(), stacl_net::DaemonConfig::new("m0"))
        .expect("daemon binds on loopback");
    let addr = h.addr().to_string();
    let v1 = temp_file("push-v1.policy", POLICY_DENY);
    let v1 = v1.to_str().unwrap();

    // Bad inputs never reach the wire.
    assert!(commands::policy(&args(&["push", v1])).is_err()); // missing --addr/--epoch
    assert!(commands::policy(&args(&[
        "push",
        v1,
        "--addr",
        &addr,
        "--epoch",
        "1",
        "--classes",
        "not-a-class",
    ]))
    .is_err());

    // The full two-phase rollout, with a validity class along for the ride.
    assert!(commands::policy(&args(&[
        "push",
        v1,
        "--addr",
        &addr,
        "--epoch",
        "1",
        "--classes",
        "fast:2.5:current-server",
    ]))
    .is_ok());
    // Replaying the same epoch is stale and rejected before activation.
    assert!(commands::policy(&args(&["push", v1, "--addr", &addr, "--epoch", "1"])).is_err());

    // Decisions now carry epoch 1 and the zero-cap policy denies.
    let mut c = stacl_net::Client::connect(h.addr(), "test", Some(Duration::from_secs(5)))
        .expect("client connects");
    c.arrive("bot", 0.0, None).expect("arrival accepted");
    let a = Access::new("read", "r", "s1");
    let v = c.decide_failsafe("bot", &a, std::slice::from_ref(&a), 0.0);
    assert_eq!(v.epoch, 1, "verdict is stamped with the pushed epoch");
    assert!(!v.kind.is_granted(), "the epoch-1 zero-cap policy denies");
    drop(c);
    h.shutdown();
}

#[test]
fn audit_clean_and_tampered() {
    // Clean audit passes.
    assert!(commands::audit(&args(&["--modules", "8", "--servers", "2"])).is_ok());
    // Tampered audit reports violations (non-zero).
    assert!(commands::audit(&args(&[
        "--modules",
        "8",
        "--servers",
        "2",
        "--tamper",
        "first",
    ]))
    .is_err());
    // Unknown module name to tamper.
    assert!(commands::audit(&args(&["--tamper", "no-such-module"])).is_err());
}
