//! The CLI subcommands.

use std::fs;

use stacl::integrity::{evaluate_audit, ModuleGraph};
use stacl::prelude::*;
use stacl::rbac::policy::{parse_policy, render_policy};
use stacl::srac::check::{check_residual, Semantics};
use stacl::srac::parser::parse_constraint;
use stacl::sral::parser::parse_program;
use stacl::sral::pretty::pretty;
use stacl::sral::validate::validate;
use stacl::trace::AccessTable;

use crate::opts::Opts;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// `stacl parse <program.sral>`
pub fn parse(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &[])?;
    let [path] = opts.expect_positional(&["<program.sral>"])? else {
        unreachable!()
    };
    let src = read(path)?;
    let program = parse_program(&src).map_err(|e| e.to_string())?;
    let metrics = stacl::sral::metrics::metrics(&program);
    println!("{}", pretty(&program));
    println!(
        "size={} depth={} accesses={} alphabet={} loops={} parallel-blocks={}",
        metrics.size,
        metrics.depth,
        metrics.accesses,
        metrics.alphabet,
        metrics.whiles,
        metrics.pars
    );
    let report = validate(&program);
    for d in &report.diagnostics {
        println!("{:?}: {}", d.severity, d.message);
    }
    if report.is_ok() {
        println!("program is well-formed");
        Ok(())
    } else {
        Err("program has validation errors".into())
    }
}

/// `stacl traces <program.sral> [--max-len N] [--max-count N]`
pub fn traces_cmd(args: &[String]) -> Result<(), String> {
    use stacl::trace::abstraction::{traces, AbstractionConfig};
    use stacl::trace::enumerate::enumerate_traces;
    use stacl::trace::{dfa_to_regex, Dfa};
    let opts = Opts::parse(args, &["max-len", "max-count"])?;
    let [path] = opts.expect_positional(&["<program.sral>"])? else {
        unreachable!()
    };
    let program = parse_program(&read(path)?).map_err(|e| e.to_string())?;
    let mut table = AccessTable::new();
    let re = traces(&program, &mut table, AbstractionConfig::default());
    let dfa = Dfa::from_regex(&re);
    let canonical = dfa_to_regex(&dfa);
    println!("trace model (Definition 3.2):");
    println!("  {}", re.display(&table));
    println!(
        "canonical form (via minimal DFA, {} states):",
        dfa.num_states()
    );
    println!("  {}", canonical.display(&table));

    let max_len: usize = opts.get_parsed("max-len", 6)?;
    let max_count: usize = opts.get_parsed("max-count", 20)?;
    let sample = enumerate_traces(&dfa, max_len, max_count);
    println!("sample traces (≤{max_len} accesses, first {max_count}):");
    for t in &sample {
        println!("  {}", t.display(&table));
    }
    if sample.len() == max_count {
        println!("  …");
    }
    Ok(())
}

/// `stacl check <program.sral> <constraint> [--semantics ...] [--history ...]`
pub fn check(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["semantics", "history"])?;
    let [path, constraint_src] = opts.expect_positional(&["<program.sral>", "<constraint>"])?
    else {
        unreachable!()
    };
    let program = parse_program(&read(path)?).map_err(|e| e.to_string())?;
    let constraint = parse_constraint(constraint_src).map_err(|e| e.to_string())?;
    let semantics = match opts.get("semantics").unwrap_or("forall") {
        "forall" => Semantics::ForAll,
        "exists" => Semantics::Exists,
        other => return Err(format!("unknown semantics `{other}` (forall|exists)")),
    };

    let mut table = AccessTable::new();
    // History: semicolon-separated `op resource server` triples.
    let mut history_ids = Vec::new();
    if let Some(h) = opts.get("history") {
        for entry in h.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let parts: Vec<&str> = entry.split_whitespace().collect();
            let [op, resource, server] = parts[..] else {
                return Err(format!(
                    "history entry `{entry}` must be `op resource server`"
                ));
            };
            history_ids.push(table.intern(&Access::new(op, resource, server)));
        }
    }
    let history = Trace::from_ids(history_ids);

    let verdict = check_residual(&history, &program, &constraint, &mut table, semantics);
    println!(
        "constraint: {constraint}\nsemantics:  {:?}\nholds:      {}",
        verdict.semantics, verdict.holds
    );
    println!(
        "automata:   program {} states, constraint {} states",
        verdict.program_states, verdict.constraint_states
    );
    match (&verdict.witness, verdict.holds, semantics) {
        (Some(w), false, Semantics::ForAll) => {
            println!("violating trace: {}", w.display(&table));
        }
        (Some(w), true, Semantics::Exists) => {
            println!("satisfying trace: {}", w.display(&table));
        }
        _ => {}
    }
    if verdict.holds {
        Ok(())
    } else {
        Err("constraint does not hold".into())
    }
}

/// `stacl policy <file.policy>` — parse and normalise a policy.
/// `stacl policy push …` routes to the live two-phase coalition rollout.
pub fn policy(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("push") {
        return crate::netcmd::policy_push(&args[1..]);
    }
    let opts = Opts::parse(args, &[])?;
    let [path] = opts.expect_positional(&["<file.policy>"])? else {
        unreachable!()
    };
    let model = parse_policy(&read(path)?).map_err(|e| e.to_string())?;
    print!("{}", render_policy(&model));
    println!(
        "# {} user(s), {} role(s), {} permission(s)",
        model.all_users().count(),
        model.all_roles().count(),
        model.permissions().count()
    );
    Ok(())
}

/// `stacl run <file.policy> <program.sral> [...]`
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["agent", "roles", "home", "mode", "on-deny"])?;
    let [policy_path, program_path] =
        opts.expect_positional(&["<file.policy>", "<program.sral>"])?
    else {
        unreachable!()
    };
    let model = parse_policy(&read(policy_path)?).map_err(|e| e.to_string())?;
    let program = parse_program(&read(program_path)?).map_err(|e| e.to_string())?;

    // Agent identity: --agent or the first user of the policy.
    let agent = match opts.get("agent") {
        Some(a) => a.to_string(),
        None => model
            .all_users()
            .next()
            .ok_or("policy defines no users; pass --agent")?
            .to_string(),
    };
    // Roles: --roles or all roles assigned to the agent.
    let roles: Vec<String> = match opts.get("roles") {
        Some(r) => r.split(',').map(|s| s.trim().to_string()).collect(),
        None => model
            .roles_of(&agent)
            .iter()
            .map(|n| n.to_string())
            .collect(),
    };
    if roles.is_empty() {
        return Err(format!(
            "agent `{agent}` has no roles; assign some in the policy or pass --roles"
        ));
    }
    // Home server: --home or the first access's server.
    let home = match opts.get("home") {
        Some(h) => h.to_string(),
        None => program
            .accesses()
            .next()
            .map(|a| a.server.to_string())
            .ok_or("program performs no accesses; pass --home")?,
    };
    let mode = match opts.get("mode").unwrap_or("preventive") {
        "preventive" => EnforcementMode::Preventive,
        "reactive" => EnforcementMode::Reactive,
        other => return Err(format!("unknown mode `{other}` (preventive|reactive)")),
    };
    let on_deny = match opts.get("on-deny").unwrap_or("abort") {
        "abort" => OnDeny::Abort,
        "skip" => OnDeny::Skip,
        other => return Err(format!("unknown on-deny `{other}` (abort|skip)")),
    };

    // Topology: register every access the program mentions.
    let mut env = CoalitionEnv::new();
    for a in program.accesses() {
        env.add_resource(&a.server, &a.resource, [&a.op]);
    }
    env.add_server(&home);

    let guard = CoordinatedGuard::new(ExtendedRbac::new(model)).with_mode(mode);
    guard.enroll(&agent, roles.iter());
    let mut sys = NapletSystem::new(env, Box::new(guard));
    sys.spawn(NapletSpec::new(&agent, &home, program).with_on_deny(on_deny));
    let report = sys.run();

    println!("agent `{agent}` from `{home}` ({mode:?}, {on_deny:?})");
    println!("decisions:");
    for d in sys.log().snapshot() {
        println!(
            "  t={:<8} {:<28} {}",
            d.time.seconds(),
            d.access.to_string(),
            if d.kind.is_granted() {
                "granted".to_string()
            } else {
                match &d.reason {
                    Some(r) => format!("DENIED [{}]: {r}", d.kind.label()),
                    None => format!("DENIED [{}]", d.kind.label()),
                }
            }
        );
    }
    println!(
        "result: finished={} aborted={} faulted={} deadlocked={} \
         granted={} denied={} end-time={}",
        report.finished,
        report.aborted,
        report.faulted,
        report.deadlocked,
        sys.log().granted_count(),
        sys.log().denied_count(),
        report.end_time
    );
    for (name, status) in &report.statuses {
        if let stacl::naplet::agent::AgentStatus::Faulted(msg) = status {
            println!("  {name}: faulted — {msg}");
        }
    }
    Ok(())
}

/// `stacl audit [--modules N] [--servers K] [--seed S] [--tamper NAME|first]`
pub fn audit(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args, &["modules", "servers", "seed", "tamper"])?;
    opts.expect_positional(&[])?;
    let n: usize = opts.get_parsed("modules", 16)?;
    let servers: usize = opts.get_parsed("servers", 4)?;
    let seed: u64 = opts.get_parsed("seed", 7)?;

    let mut g = ModuleGraph::generate_layered(n, servers, 4, 3, seed);
    let manifest = g.manifest();
    if let Some(t) = opts.get("tamper") {
        let victim = if t == "first" {
            g.modules().next().map(|m| m.name.clone())
        } else {
            g.module(t).map(|m| m.name.clone())
        }
        .ok_or_else(|| format!("no module `{t}` to tamper"))?;
        g.tamper(&victim);
        println!("tampered: {victim}");
    }

    let mut env = CoalitionEnv::new();
    for m in g.modules() {
        env.add_resource(&m.server, &m.name, ["verify"]);
    }
    let mut model = RbacModel::new();
    model.add_user("auditor");
    model.add_role("aud");
    model
        .add_permission(
            Permission::new("p", AccessPattern::parse("verify:*:*").unwrap())
                .with_spatial(g.dependency_constraint()),
        )
        .map_err(|e| e.to_string())?;
    model
        .assign_permission("aud", "p")
        .map_err(|e| e.to_string())?;
    model
        .assign_user("auditor", "aud")
        .map_err(|e| e.to_string())?;
    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    guard.enroll("auditor", ["aud"]);

    let mut sys = NapletSystem::new(env, Box::new(guard));
    sys.spawn(NapletSpec::new(
        "auditor",
        g.modules()
            .next()
            .map(|m| m.server.clone())
            .unwrap_or_default(),
        g.audit_program_sequential(),
    ));
    let report = sys.run();
    let audit = evaluate_audit("auditor", sys.proofs(), &g, &manifest);

    println!(
        "audit of {n} modules on {servers} server(s): finished={} aborted={}",
        report.finished, report.aborted
    );
    println!(
        "verified={} corrupted={:?} tainted={:?} unverified={}",
        audit.verified.len(),
        audit.corrupted,
        audit.tainted,
        audit.unverified.len()
    );
    if audit.all_verified() {
        println!("integrity: OK");
        Ok(())
    } else {
        Err("integrity violations found".into())
    }
}

/// `stacl sim run|repro …` — the deterministic differential simulator.
pub fn sim(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("usage: stacl sim run|repro …".into());
    };
    match sub.as_str() {
        "run" => sim_run(rest),
        "repro" => sim_repro(rest),
        other => Err(format!(
            "unknown sim subcommand `{other}` (expected run or repro)"
        )),
    }
}

/// `stacl ledger verify <file>`
///
/// Re-derives the FNV-1a hash chain of an audit ledger (written by
/// `stacl sim run --ledger FILE`) and fails if any entry was altered,
/// dropped or reordered.
pub fn ledger(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("usage: stacl ledger verify <file>".into());
    };
    match sub.as_str() {
        "verify" => {
            let opts = Opts::parse(rest, &[])?;
            let [path] = opts.expect_positional(&["<ledger-file>"])? else {
                unreachable!()
            };
            let chain = stacl::coalition::Ledger::parse(&read(path)?)
                .map_err(|e| format!("`{path}`: {e}"))?;
            chain
                .verify()
                .map_err(|e| format!("`{path}`: chain verification FAILED: {e}"))?;
            println!("ledger OK: {} entries, hash chain intact", chain.len());
            Ok(())
        }
        other => Err(format!(
            "unknown ledger subcommand `{other}` (expected verify)"
        )),
    }
}

/// `stacl sim run [--seeds N] [--start-seed S] [--oracle-bug B]
/// [--out DIR] [--max-seconds T] [--batch true|false] [--stats true|false]
/// [--transport in-process|net] [--daemons N] [--churn F] [--ledger FILE]
/// [--profile NAME]`
///
/// Sweeps `N` seeded episodes starting at `S`, cross-checking the real
/// guard against the reference oracle. Exits non-zero if any episode
/// diverges; with `--out DIR` every diverging seed's full repro dump is
/// written to `DIR/seed-<seed>.txt`. `--max-seconds` stops the sweep
/// early (for time-boxed nightly runs). `--stats true` appends the
/// decision-path telemetry diff ([`stacl_obs::MetricsSnapshot`] JSON:
/// verdict counters, cursor hits vs. declines, cache and latency
/// histograms) to the report. The flags pick one
/// [`stacl_sim::Transport`]: `--batch true` drives episodes through the
/// parallel `decide_batch` path, `--transport net` over a loopback
/// coalition of `--daemons N` (at least one) wire-protocol daemons; the
/// logs stay byte-identical either way. `--churn F` injects `F`
/// mid-episode policy flips per scenario (live two-phase rollouts over
/// the wire under `--transport net`). `--ledger FILE` journals every
/// policy change and sampled verdict into one hash-chained audit ledger
/// across the whole sweep and writes it to `FILE` — under `--transport
/// net` the wire ledger must also byte-match the in-process chain.
/// `--profile NAME` generates scenarios from a named mobility profile
/// (commuter, fleet-convoy, flash-crowd, partition-heal, workflow) whose
/// itineraries carry CIDR/cron attribute policies; the profile name is
/// recorded in every episode log header so replays are self-describing.
/// A diverging sweep fails with the `stacl sim repro` command that
/// replays its first divergent seed under the same scenario flags.
pub fn sim_run(args: &[String]) -> Result<(), String> {
    use stacl::coalition::Ledger;
    use stacl_sim::{repro_scenario, run_episode_with, OracleBug, SweepReport, Transport};
    let opts = Opts::parse(
        args,
        &[
            "seeds",
            "start-seed",
            "oracle-bug",
            "out",
            "max-seconds",
            "batch",
            "stats",
            "transport",
            "daemons",
            "churn",
            "ledger",
            "profile",
        ],
    )?;
    let [] = opts.expect_positional(&[])? else {
        unreachable!()
    };
    let seeds: u64 = opts.get_parsed("seeds", 64)?;
    let start: u64 = opts.get_parsed("start-seed", 0)?;
    let bug = OracleBug::parse(opts.get("oracle-bug").unwrap_or("none"))?;
    let out_dir = opts.get("out").map(str::to_string);
    let max_seconds: f64 = opts.get_parsed("max-seconds", 0.0)?;
    let batch: bool = opts.get_parsed("batch", false)?;
    let stats: bool = opts.get_parsed("stats", false)?;
    let daemons: usize = opts.get_parsed("daemons", 4)?;
    let transport = match opts.get("transport").unwrap_or("in-process") {
        "in-process" => Transport::InProcess { batched: batch },
        "net" if batch => {
            return Err("--transport net replays decisions one frame at a time; \
                        it cannot be combined with --batch true"
                .into())
        }
        "net" => Transport::Net {
            daemons,
            ring: false,
            compact_after: 0,
        },
        other => return Err(format!("unknown transport `{other}` (in-process|net)")),
    };
    let net = matches!(transport, Transport::Net { .. });
    let family = ScenarioFamily::parse(&opts)?;
    let ledger_path = opts.get("ledger").map(str::to_string);
    // One chain for the whole sweep; under --transport net a second chain
    // journals the in-process reference episodes so the two can be
    // byte-compared at the end.
    let mut ledger = ledger_path.as_ref().map(|_| Ledger::new());
    let mut ref_ledger = (net && ledger.is_some()).then(Ledger::new);
    let obs_baseline = stacl_obs::snapshot();

    if let Some(dir) = &out_dir {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    }
    let started = std::time::Instant::now();
    let mut report = SweepReport::new();
    for seed in start..start.saturating_add(seeds) {
        if max_seconds > 0.0 && started.elapsed().as_secs_f64() > max_seconds {
            println!("time budget reached after {} episodes", report.episodes);
            break;
        }
        let sc = family.generate(seed);
        let ep = run_episode_with(&sc, bug, &transport, ledger.as_mut())?;
        if net {
            // Wire-level differential validation: the networked replay
            // must reproduce the in-process verdict log byte for byte.
            let in_process = Transport::InProcess { batched: false };
            let reference = run_episode_with(&sc, bug, &in_process, ref_ledger.as_mut())?;
            if ep.log != reference.log {
                if let Some(dir) = &out_dir {
                    let path = format!("{dir}/seed-{seed}-transport.txt");
                    let dump = format!(
                        "seed {seed}: net transport diverged from in-process\n\
                         --- in-process ---\n{}\n--- net ({daemons} daemons) ---\n{}",
                        reference.log, ep.log
                    );
                    fs::write(&path, dump).map_err(|e| format!("cannot write `{path}`: {e}"))?;
                }
                return Err(format!(
                    "seed {seed}: net transport log diverged from the in-process driver"
                ));
            }
        }
        if let (Some(_), Some(dir)) = (&ep.divergence, &out_dir) {
            let path = format!("{dir}/seed-{seed}.txt");
            fs::write(&path, repro_scenario(&sc, bug))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        report.absorb(seed, &ep);
    }
    if let (Some(path), Some(chain)) = (&ledger_path, &ledger) {
        if let Some(reference) = &ref_ledger {
            if chain.render() != reference.render() {
                return Err("audit ledger diverged between the net and in-process drivers".into());
            }
        }
        chain
            .verify()
            .map_err(|e| format!("ledger self-verification failed: {e}"))?;
        fs::write(path, chain.render()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!(
            "ledger: {} hash-chained entries -> {path} (check with `stacl ledger verify`)",
            chain.len()
        );
    }
    print!("{}", report.render());
    if stats {
        print!("{}", stacl_obs::snapshot().diff(&obs_baseline).to_json());
    }
    match report.divergent_seeds.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} of {} episodes diverged (replay with `stacl sim repro {first}{}{}`)",
            report.divergent_seeds.len(),
            report.episodes,
            family.flags(),
            bug.map(|b| format!(" --oracle-bug {}", b.name()))
                .unwrap_or_default(),
        )),
    }
}

/// The generator a sweep or a replay draws its scenarios from, chosen by
/// the scenario flags `sim run` and `sim repro` share: `--profile NAME`
/// (a mobility profile), `--churn F` (`F` policy flips per episode, when
/// `F > 0`), or neither (the default generator). The two cannot be
/// combined.
#[derive(Clone, Copy)]
enum ScenarioFamily {
    Default,
    Profile(stacl_sim::Profile),
    Churn(usize),
}

impl ScenarioFamily {
    fn parse(opts: &Opts) -> Result<ScenarioFamily, String> {
        let churn: usize = opts.get_parsed("churn", 0)?;
        match opts
            .get("profile")
            .map(stacl_sim::Profile::parse)
            .transpose()?
        {
            Some(_) if churn > 0 => Err("--profile generates its own fixed policy; \
                                         it cannot be combined with --churn"
                .into()),
            Some(p) => Ok(ScenarioFamily::Profile(p)),
            None if churn > 0 => Ok(ScenarioFamily::Churn(churn)),
            None => Ok(ScenarioFamily::Default),
        }
    }

    fn generate(self, seed: u64) -> stacl_sim::Scenario {
        use stacl_sim::Scenario;
        match self {
            ScenarioFamily::Default => Scenario::generate(seed),
            ScenarioFamily::Profile(p) => Scenario::generate_profile(seed, p),
            ScenarioFamily::Churn(flips) => Scenario::generate_churn(seed, flips),
        }
    }

    /// The flags that select this family, each with a leading space.
    fn flags(self) -> String {
        match self {
            ScenarioFamily::Default => String::new(),
            ScenarioFamily::Profile(p) => format!(" --profile {}", p.name()),
            ScenarioFamily::Churn(flips) => format!(" --churn {flips}"),
        }
    }
}

/// `stacl sim repro <seed> [--oracle-bug B] [--profile NAME] [--churn F]`
///
/// Prints [`sim_repro_report`]. Always exits 0 on a well-formed command:
/// this is the diagnostic half of the workflow.
pub fn sim_repro(args: &[String]) -> Result<(), String> {
    print!("{}", sim_repro_report(args)?);
    Ok(())
}

/// The report `stacl sim repro` prints: regenerates the scenario for a
/// seed with the same scenario flags as `sim run` (`--profile NAME` for
/// a mobility-profile scenario, `--churn F` for a churn sweep's), replays
/// the episode, and — if it diverges — appends the deterministically
/// shrunk witness. A diverging sweep prints this command with its own
/// flags.
pub fn sim_repro_report(args: &[String]) -> Result<String, String> {
    use stacl_sim::{repro_scenario, OracleBug};
    let opts = Opts::parse(args, &["oracle-bug", "profile", "churn"])?;
    let [seed] = opts.expect_positional(&["<seed>"])? else {
        unreachable!()
    };
    let seed: u64 = seed
        .parse()
        .map_err(|e| format!("invalid seed `{seed}`: {e}"))?;
    let bug = OracleBug::parse(opts.get("oracle-bug").unwrap_or("none"))?;
    let family = ScenarioFamily::parse(&opts)?;
    Ok(repro_scenario(&family.generate(seed), bug))
}
