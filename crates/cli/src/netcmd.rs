//! The networked-coalition subcommands: `stacl serve` hosts one member's
//! guard daemon; `stacl net-decide` drives a decision over the wire;
//! `stacl policy push` performs a live two-phase policy rollout.

use std::fs;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use stacl::prelude::*;
use stacl::rbac::policy::parse_policy;
use stacl::temporal::BaseTimeScheme;
use stacl_net::frames::scheme_to_u8;
use stacl_net::{Client, DaemonConfig};

use crate::opts::Opts;

fn resolve_addr(s: &str) -> Result<SocketAddr, String> {
    s.to_socket_addrs()
        .map_err(|e| format!("invalid address `{s}`: {e}"))?
        .next()
        .ok_or_else(|| format!("address `{s}` resolves to nothing"))
}

/// Parse one `op resource server` triple.
fn parse_access(entry: &str) -> Result<Access, String> {
    let parts: Vec<&str> = entry.split_whitespace().collect();
    let [op, resource, server] = parts[..] else {
        return Err(format!("access `{entry}` must be `op resource server`"));
    };
    Ok(Access::new(op, resource, server))
}

/// `stacl serve --policy <file.policy> --name <server> [--listen ADDR]
/// [--peers n=addr,…] [--custody open|strict] [--skew S]
/// [--enroll obj=role1+role2,…]`
///
/// Hosts one coalition member: a guard daemon built from the policy,
/// listening for protocol frames. `--custody strict` turns on custody
/// enforcement — the member only decides for objects it currently
/// custodies, pulling the migration handoff from the peer named in each
/// arrival. Blocks until a `Shutdown` frame arrives.
pub fn serve(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "policy", "name", "listen", "peers", "custody", "skew", "enroll",
        ],
    )?;
    opts.expect_positional(&[])?;
    let policy_path = opts.get("policy").ok_or("missing --policy <file.policy>")?;
    let name = opts.get("name").ok_or("missing --name <server>")?;
    let src =
        fs::read_to_string(policy_path).map_err(|e| format!("cannot read `{policy_path}`: {e}"))?;
    let model = parse_policy(&src).map_err(|e| e.to_string())?;

    let guard = CoordinatedGuard::new(ExtendedRbac::new(model));
    if let Some(enroll) = opts.get("enroll") {
        for entry in enroll.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (obj, roles) = entry
                .split_once('=')
                .ok_or_else(|| format!("enrollment `{entry}` must be `object=role+role`"))?;
            guard.enroll(obj, roles.split('+'));
        }
    }
    match opts.get("custody").unwrap_or("open") {
        "open" => {}
        "strict" => guard.set_custody_enforcement(true),
        other => return Err(format!("unknown custody mode `{other}` (open|strict)")),
    }

    let mut cfg = DaemonConfig::new(name);
    cfg.listen = opts.get("listen").unwrap_or("127.0.0.1:0").to_string();
    cfg.skew = opts.get_parsed("skew", 0.0)?;
    let handle =
        stacl_net::spawn(guard, ProofStore::new(), cfg).map_err(|e| format!("cannot bind: {e}"))?;
    if let Some(peers) = opts.get("peers") {
        for entry in peers.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (peer, addr) = entry
                .split_once('=')
                .ok_or_else(|| format!("peer `{entry}` must be `name=host:port`"))?;
            handle.add_peer(peer, resolve_addr(addr)?);
        }
    }
    println!("member `{}` serving on {}", handle.name(), handle.addr());
    handle.wait();
    Ok(())
}

/// `stacl policy push <file.policy> --addr host:port[,host:port…]
/// --epoch N [--classes name:dur:scheme,…] [--timeout-secs T]`
/// or `stacl policy push --abac <file.toml> [--at T] --addr … --epoch N`
///
/// Live coalition-wide rollout: phase 1 ships the policy to every member
/// (`PolicyPrepare`), and only after **all** of them have staged it does
/// phase 2 flip them (`PolicyActivate`). The epoch must exceed every
/// member's current epoch. A member that misses a phase fail-safes to
/// `DeniedCoordination` on every decision until a later complete round
/// re-synchronizes it — the coalition never serves mixed epochs.
///
/// `--abac file.toml` takes an attribute policy (CIDR allow/deny sets +
/// cron schedules with durations) instead of a `.policy` file, lowers it
/// to ordinary SRAC/temporal primitives at reference time `--at T`
/// (default 0), and pushes the lowered text — the daemons never see
/// attribute syntax, so the rollout and decide paths are unchanged.
/// Per-rule lowering problems print as warnings; the affected rules
/// fail safe (deny) rather than aborting the rollout.
pub fn policy_push(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &["addr", "epoch", "classes", "timeout-secs", "abac", "at"],
    )?;
    let src = match opts.get("abac") {
        Some(toml_path) => {
            opts.expect_positional(&[])
                .map_err(|_| "--abac replaces the <file.policy> argument".to_string())?;
            let toml_src = fs::read_to_string(toml_path)
                .map_err(|e| format!("cannot read `{toml_path}`: {e}"))?;
            let attr = stacl_abac::AttributePolicy::parse(&toml_src)
                .map_err(|e| format!("attribute policy rejected: {e}"))?;
            let at: f64 = opts.get_parsed("at", 0.0)?;
            let lowered = stacl_abac::lower_policy(&attr, at)
                .map_err(|e| format!("attribute policy rejected: {e}"))?;
            for note in &lowered.notes {
                eprintln!("warning: {note} (rule fails safe)");
            }
            stacl::rbac::policy::render_policy(&lowered.model)
        }
        None => {
            let [path] = opts.expect_positional(&["<file.policy>"])? else {
                unreachable!()
            };
            fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?
        }
    };
    // Validate locally before shipping anything: a malformed policy must
    // never reach phase 1 of a live rollout.
    parse_policy(&src).map_err(|e| format!("policy rejected: {e}"))?;
    let epoch: u64 = opts
        .get("epoch")
        .ok_or("missing --epoch N (must exceed the members' current epoch)")?
        .parse()
        .map_err(|_| "invalid --epoch value".to_string())?;
    let classes = parse_classes(opts.get("classes").unwrap_or(""))?;
    let timeout_secs: u64 = opts.get_parsed("timeout-secs", 5)?;
    let timeout = Some(Duration::from_secs(timeout_secs));

    let mut members: Vec<(String, Client)> = Vec::new();
    for entry in opts
        .get("addr")
        .ok_or("missing --addr host:port[,host:port…]")?
        .split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
    {
        let client = Client::connect(resolve_addr(entry)?, "stacl-push", timeout)
            .map_err(|e| format!("connect to {entry}: {e}"))?;
        members.push((entry.to_string(), client));
    }
    if members.is_empty() {
        return Err("--addr names no members".into());
    }

    for (addr, c) in &mut members {
        c.policy_prepare(epoch, &src, &classes).map_err(|e| {
            format!("prepare epoch {epoch} at {addr}: {e} (no member was activated)")
        })?;
        println!(
            "prepared  epoch {epoch} at {addr} (member `{}`)",
            c.server_name()
        );
    }
    for (addr, c) in &mut members {
        c.policy_activate(epoch).map_err(|e| {
            format!(
                "activate epoch {epoch} at {addr}: {e} — members left behind deny with \
                 DeniedCoordination until the next complete rollout"
            )
        })?;
        println!(
            "activated epoch {epoch} at {addr} (member `{}`)",
            c.server_name()
        );
    }
    println!(
        "coalition is at epoch {epoch} ({} member(s))",
        members.len()
    );
    Ok(())
}

/// Parse `name:dur:scheme,…` validity-class declarations into the wire
/// tuple form.
fn parse_classes(spec: &str) -> Result<Vec<(String, f64, u8)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        let [name, dur, scheme] = parts[..] else {
            return Err(format!("class `{entry}` must be `name:dur:scheme`"));
        };
        let dur: f64 = dur
            .parse()
            .map_err(|_| format!("class `{entry}`: invalid duration `{dur}`"))?;
        let scheme = match scheme {
            "current-server" => scheme_to_u8(BaseTimeScheme::CurrentServer),
            "whole-lifetime" => scheme_to_u8(BaseTimeScheme::WholeLifetime),
            other => {
                return Err(format!(
                    "class `{entry}`: unknown scheme `{other}` (current-server|whole-lifetime)"
                ))
            }
        };
        out.push((name.to_string(), dur, scheme));
    }
    Ok(out)
}

/// `stacl net-decide --addr host:port --object NAME --access "op res server"
/// [--remaining "op res s; …"] [--time T] [--arrive true|false]
/// [--from PEER] [--metrics true|false] [--pipeline W]`
///
/// Connects to a member daemon and asks for one decision. With
/// `--arrive true` (the default) the object's arrival is announced first;
/// `--from` names the previous custodian so a strict-custody member pulls
/// the migration handoff. `--metrics true` also prints the member's
/// telemetry snapshot afterwards. `--pipeline W` (W ≥ 1) instead decides
/// the whole declared remaining program as one pipelined stream of
/// request-id-correlated `Decide2` frames with up to `W` decisions in flight:
/// step k asks for `remaining[k]` with the program tail from k onward.
pub fn net_decide(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(
        args,
        &[
            "addr",
            "object",
            "access",
            "remaining",
            "time",
            "arrive",
            "from",
            "metrics",
            "pipeline",
        ],
    )?;
    opts.expect_positional(&[])?;
    let addr = resolve_addr(opts.get("addr").ok_or("missing --addr host:port")?)?;
    let object = opts.get("object").ok_or("missing --object NAME")?;
    let access = parse_access(
        opts.get("access")
            .ok_or("missing --access \"op res server\"")?,
    )?;
    let time: f64 = opts.get_parsed("time", 0.0)?;
    let arrive: bool = opts.get_parsed("arrive", true)?;

    // The declared remaining program defaults to just the attempted access.
    let mut remaining: Vec<Access> = vec![access.clone()];
    if let Some(r) = opts.get("remaining") {
        remaining = r
            .split(';')
            .map(str::trim)
            .filter(|e| !e.is_empty())
            .map(parse_access)
            .collect::<Result<_, _>>()?;
    }

    let mut client = Client::connect(addr, "stacl-cli", Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    println!("connected to member `{}`", client.server_name());
    if arrive {
        client
            .arrive(object, time, opts.get("from"))
            .map_err(|e| format!("arrival rejected: {e}"))?;
    }
    let window: usize = opts.get_parsed("pipeline", 0)?;
    if window > 0 {
        // Pipelined mode: decide every step of the declared program in
        // one correlated stream, step k seeing the tail from k onward.
        let requests: Vec<(&str, &Access, &[Access], f64)> = remaining
            .iter()
            .enumerate()
            .map(|(k, a)| (object, a, &remaining[k..], time))
            .collect();
        let verdicts = client.decide_stream_failsafe(&requests, window);
        let mut denied = 0usize;
        for ((_, a, _, _), v) in requests.iter().zip(&verdicts) {
            if v.kind.is_granted() {
                println!("{a} at t={time}: granted (epoch {})", v.epoch);
            } else {
                denied += 1;
                println!(
                    "{a} at t={time}: DENIED [{}] (epoch {})",
                    v.kind.label(),
                    v.epoch
                );
            }
        }
        println!("pipelined {} decisions (window {window})", verdicts.len());
        if opts.get_parsed("metrics", false)? {
            print!("{}", client.metrics().map_err(|e| e.to_string())?);
        }
        return if denied == 0 {
            Ok(())
        } else {
            Err(format!("{denied} of {} accesses denied", verdicts.len()))
        };
    }
    let v = client.decide_failsafe(object, &access, &remaining, time);
    let epoch = v.epoch;
    match (&v.kind.is_granted(), &v.reason) {
        (true, _) => println!("{access} at t={time}: granted (epoch {epoch})"),
        (false, Some(r)) => println!(
            "{access} at t={time}: DENIED [{}] (epoch {epoch}): {r}",
            v.kind.label()
        ),
        (false, None) => println!(
            "{access} at t={time}: DENIED [{}] (epoch {epoch})",
            v.kind.label()
        ),
    }
    if opts.get_parsed("metrics", false)? {
        print!("{}", client.metrics().map_err(|e| e.to_string())?);
    }
    if v.kind.is_granted() {
        Ok(())
    } else {
        Err("access denied".into())
    }
}
