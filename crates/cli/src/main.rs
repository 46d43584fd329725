//! `stacl` — the command-line interface to the coordinated
//! spatio-temporal access-control library.
//!
//! ```text
//! stacl parse  <program.sral>                      parse + validate + pretty-print
//! stacl traces <program.sral>                      print the trace model (Def. 3.2)
//! stacl check  <program.sral> <constraint> [opts]  Theorem 3.2 check
//!        --semantics forall|exists   (default forall)
//!        --history  "op r s; op r s; …"  proven accesses before the program
//! stacl policy <file.policy>                       parse + normalise a policy
//! stacl policy push <file.policy> [opts]           live two-phase coalition rollout
//!        --addr host:port,…  --epoch N
//!        --classes name:dur:scheme,…  --timeout-secs T
//!        --abac file.toml --at T   (attribute policy, lowered before push)
//! stacl ledger verify <file>                       check a hash-chained audit ledger
//! stacl run    <file.policy> <program.sral> [opts] execute in the Naplet emulator
//!        --agent NAME    (default: first policy user)
//!        --roles r1,r2   (default: the agent's assigned roles)
//!        --home SERVER   (default: first server in the program)
//!        --mode preventive|reactive
//!        --on-deny abort|skip
//! stacl audit  [opts]                              §6 integrity-audit demo
//!        --modules N --servers K --seed S --tamper NAME|first
//! stacl sim    run [opts]                          differential simulator sweep
//!        --seeds N --start-seed S --oracle-bug B --out DIR --max-seconds T
//!        --batch true|false --stats true|false (append telemetry JSON)
//!        --transport in-process|net --daemons N
//!        --churn F (policy flips per episode) --ledger FILE
//!        --profile commuter|fleet-convoy|flash-crowd|partition-heal|workflow
//! stacl sim    repro <seed> [--oracle-bug B] [--profile NAME]
//! ```
//!
//! Arguments are parsed by hand — the tool's needs are small and the
//! workspace keeps its dependency set minimal.

use std::process::ExitCode;

use stacl_cli::commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "parse" => commands::parse(rest),
        "traces" => commands::traces_cmd(rest),
        "check" => commands::check(rest),
        "policy" => commands::policy(rest),
        "run" => commands::run(rest),
        "audit" => commands::audit(rest),
        "sim" => commands::sim(rest),
        "ledger" => commands::ledger(rest),
        "serve" => stacl_cli::netcmd::serve(rest),
        "net-decide" => stacl_cli::netcmd::net_decide(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("stacl: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
stacl — coordinated spatio-temporal access control (Fu & Xu, IPPS 2005)

USAGE:
  stacl parse  <program.sral>
  stacl traces <program.sral> [--max-len N] [--max-count N]
  stacl check  <program.sral> <constraint> [--semantics forall|exists]
               [--history \"op res server; …\"]
  stacl policy <file.policy>
  stacl policy push <file.policy> --addr host:port[,host:port…] --epoch N
               [--classes name:dur:scheme,…] [--timeout-secs T]
               [--abac file.toml [--at T]]  (attribute TOML, lowered locally)
  stacl ledger verify <file>
  stacl run    <file.policy> <program.sral> [--agent NAME] [--roles r1,r2]
               [--home SERVER] [--mode preventive|reactive]
               [--on-deny abort|skip]
  stacl audit  [--modules N] [--servers K] [--seed S] [--tamper NAME|first]
  stacl sim    run [--seeds N] [--start-seed S] [--oracle-bug B] [--out DIR]
               [--max-seconds T] [--batch true|false] [--stats true|false]
               [--transport in-process|net] [--daemons N] [--churn F]
               [--ledger FILE] [--profile NAME]
  stacl sim    repro <seed> [--oracle-bug B] [--profile NAME]
  stacl serve  --policy <file.policy> --name SERVER [--listen ADDR]
               [--peers n=addr,...] [--custody open|strict] [--skew S]
               [--enroll obj=role+role,...]
  stacl net-decide --addr host:port --object NAME --access \"op res server\"
               [--remaining \"op res s; ...\"] [--time T] [--arrive true|false]
               [--from PEER] [--metrics true|false]";
