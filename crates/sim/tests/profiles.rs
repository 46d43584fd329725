//! Mobility-profile + attribute-constraint differential suite: every
//! named profile drives CIDR/cron attribute policies through the real
//! guard while the oracle re-evaluates the *attribute* semantics
//! naively (bitmask membership, per-second window expansion) —
//! independent of the abac lowering pass — so a lowering defect in
//! either constraint kind surfaces as a divergence.

mod common;

use stacl_sim::{
    repro_scenario, run_episode, shrink, OracleBug, Profile, Scenario, SweepReport, Transport,
};

/// Fast per-profile window for the tier-1 (non-ignored) tier.
const FAST_SEEDS: std::ops::Range<u64> = 0..12;
/// Full acceptance window, run by the CI `abac` job via `--ignored`.
const FULL_SEEDS: std::ops::Range<u64> = 0..64;

fn sweep(profile: Profile, seeds: std::ops::Range<u64>) -> SweepReport {
    let mut report = SweepReport::new();
    for seed in seeds {
        let sc = Scenario::generate_profile(seed, profile);
        let ep = run_episode(&sc, None);
        assert!(
            ep.divergence.is_none(),
            "{} seed {seed} diverged:\n{}\nrepro:\n{}",
            profile.name(),
            ep.log,
            repro_scenario(&Scenario::generate_profile(seed, profile), None)
        );
        report.absorb(seed, &ep);
    }
    report
}

#[test]
fn guard_and_oracle_agree_on_every_profile_fast_window() {
    for profile in Profile::ALL {
        let report = sweep(profile, FAST_SEEDS);
        assert_eq!(report.episodes, FAST_SEEDS.end as usize);
        assert!(
            report.decisions > 20,
            "{}: too few decisions\n{}",
            profile.name(),
            report.render()
        );
    }
}

/// Full acceptance sweep (seeds 0..64 × 5 profiles). Ignored by default
/// so tier-1 stays fast; the CI `abac` job runs it with `--ignored`.
#[test]
#[ignore = "full profile acceptance sweep; run with --ignored"]
fn guard_and_oracle_agree_on_every_profile_seeds_0_64() {
    for profile in Profile::ALL {
        let report = sweep(profile, FULL_SEEDS);
        assert_eq!(report.episodes, FULL_SEEDS.end as usize);
    }
}

/// The profile windows must actually exercise both new constraint
/// kinds — grants *and* denials under CIDR and cron attributes — or the
/// differential check is hollow.
#[test]
fn profile_windows_exercise_attribute_constraints() {
    let (mut cidr, mut cron, mut both) = (false, false, false);
    let mut report = SweepReport::new();
    for profile in Profile::ALL {
        for seed in FAST_SEEDS {
            let sc = Scenario::generate_profile(seed, profile);
            for p in &sc.perms {
                cidr |= p.attr_cidr.is_some();
                cron |= p.attr_cron.is_some();
                both |= p.attr_cidr.is_some() && p.attr_cron.is_some();
            }
            report.absorb(seed, &run_episode(&sc, None));
        }
    }
    assert!(cidr, "no CIDR attribute rules in the fast windows");
    assert!(cron, "no cron attribute rules in the fast windows");
    assert!(both, "no mixed CIDR+cron permission in the fast windows");
    assert!(
        report.histogram.contains_key("granted"),
        "{}",
        report.render()
    );
    assert!(
        report.histogram.contains_key("denied-spatial"),
        "{}",
        report.render()
    );
    assert!(
        report.histogram.contains_key("denied-temporal"),
        "{}",
        report.render()
    );
}

/// Replays are self-describing: the episode log's first line names the
/// profile that generated the itinerary, and `Profile::parse` round-trips
/// every name.
#[test]
fn episode_logs_are_self_describing_and_names_round_trip() {
    for profile in Profile::ALL {
        let sc = Scenario::generate_profile(0, profile);
        let ep = run_episode(&sc, None);
        let first = ep.log.lines().next().unwrap_or_default();
        assert_eq!(
            first,
            format!("profile {}", profile.name()),
            "log header missing"
        );
        assert_eq!(Profile::parse(profile.name()), Ok(profile));
    }
    assert!(Profile::parse("no-such-profile").is_err());
    // Plain `generate` scenarios stay header-free: byte-stability for
    // every pre-profile seed.
    let ep = run_episode(&Scenario::generate(0), None);
    assert!(!ep.log.starts_with("profile "), "unexpected header");
}

/// The batched parallel transport must not change a byte of any
/// profile-generated episode.
#[test]
fn batched_driver_is_byte_identical_on_profiles() {
    for profile in Profile::ALL {
        for seed in FAST_SEEDS {
            let sc = Scenario::generate_profile(seed, profile);
            common::assert_matches_in_process(&sc, Transport::InProcess { batched: true });
        }
    }
}

fn net(daemons: usize) -> Transport {
    Transport::Net {
        daemons,
        ring: false,
        compact_after: 0,
    }
}

/// Wire replay of a profile episode (2 loopback daemons) is
/// byte-identical to the in-process transport — one seed per profile in
/// the fast tier.
#[test]
fn net_replay_is_byte_identical_on_profiles_smoke() {
    for profile in Profile::ALL {
        common::assert_matches_in_process(&Scenario::generate_profile(3, profile), net(2));
    }
}

/// Full wire sweep: every profile, seeds 0..16, 4 daemons. Ignored by
/// default; the CI `abac` job runs it with `--ignored`.
#[test]
#[ignore = "full profile wire sweep; run with --ignored"]
fn net_replay_is_byte_identical_on_profiles_seeds_0_16() {
    for profile in Profile::ALL {
        for seed in 0..16u64 {
            let sc = Scenario::generate_profile(seed, profile);
            common::assert_matches_in_process(&sc, net(4));
        }
    }
}

/// Shrinking-witness self-test for a deliberately broken lowering: the
/// `cidr-widen` oracle bug widens every CIDR prefix by one bit in the
/// oracle's naive membership check, so the first scenario whose
/// widened range admits an otherwise-forbidden server diverges — and the
/// witness shrinks deterministically and replays from the seed alone.
#[test]
fn injected_cidr_lowering_bug_is_caught_shrunk_and_replayable() {
    let bug = Some(OracleBug::CidrWiden);
    let (profile, seed) = Profile::ALL
        .into_iter()
        .flat_map(|p| (0..256u64).map(move |s| (p, s)))
        .find(|&(p, s)| {
            run_episode(&Scenario::generate_profile(s, p), bug)
                .divergence
                .is_some()
        })
        .expect("cidr-widen must surface within 256 seeds of some profile");
    let sc = Scenario::generate_profile(seed, profile);

    // Caught.
    let ep = run_episode(&sc, bug);
    assert!(ep.log.contains("DIVERGENCE"));

    // Shrunk: still diverging, no larger than the original, and the
    // attribute-stripping passes keep at least one CIDR attribute (the
    // bug needs one to express).
    let (small, small_ep) = shrink(&sc, bug);
    assert!(small_ep.divergence.is_some());
    assert!(small.events.len() <= sc.events.len());
    assert!(
        small.perms.iter().any(|p| p.attr_cidr.is_some()),
        "shrinker stripped the attribute the divergence depends on:\n{small}"
    );

    // Deterministic.
    let (small2, _) = shrink(&sc, bug);
    assert_eq!(small.to_string(), small2.to_string());

    // Replayable from (seed, profile) alone.
    let dump = repro_scenario(&Scenario::generate_profile(seed, profile), bug);
    assert!(dump.contains("DIVERGENCE"));
    assert!(dump.contains("shrunk witness"));
}
