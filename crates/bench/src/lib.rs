//! Workload generators for the experiment suite (DESIGN.md E1–E9).
//!
//! All generators are seeded and deterministic so every experiment run is
//! reproducible; sizes are parameters so the benches can sweep them.

use stacl::naplet::guard::GuardRequest;
use stacl::prelude::*;
use stacl::srac::Constraint;
use stacl::sral::builder as b;
use stacl::sral::expr::{CmpOp, Cond, Expr};
use stacl::sral::Program;

pub mod criterion;

/// The deterministic generator threaded through every workload builder
/// (in-tree SplitMix64; the workspace builds hermetically, with no
/// external `rand`).
pub use stacl_ids::rng::SplitMix64 as BenchRng;

/// A deterministic access vocabulary: `ops × resources × servers`.
#[derive(Clone, Debug)]
pub struct Vocab {
    /// Operation names.
    pub ops: Vec<String>,
    /// Resource names.
    pub resources: Vec<String>,
    /// Server names.
    pub servers: Vec<String>,
}

impl Vocab {
    /// A vocabulary with the given component counts.
    pub fn new(n_ops: usize, n_resources: usize, n_servers: usize) -> Self {
        Vocab {
            ops: (0..n_ops).map(|i| format!("op{i}")).collect(),
            resources: (0..n_resources).map(|i| format!("res{i}")).collect(),
            servers: (0..n_servers).map(|i| format!("s{i}")).collect(),
        }
    }

    /// A random access from the vocabulary.
    pub fn random_access(&self, rng: &mut BenchRng) -> Access {
        Access::new(
            &self.ops[rng.gen_range(0..self.ops.len())],
            &self.resources[rng.gen_range(0..self.resources.len())],
            &self.servers[rng.gen_range(0..self.servers.len())],
        )
    }

    /// The coalition environment hosting every vocabulary access.
    pub fn environment(&self) -> CoalitionEnv {
        let mut env = CoalitionEnv::new();
        for s in &self.servers {
            for r in &self.resources {
                env.add_resource(s, r, self.ops.iter());
            }
        }
        env
    }
}

/// Generate a random SRAL program with roughly `target_size` AST nodes
/// (the `m` of Theorem 3.2). The shape mixes sequences, conditionals,
/// loops and parallel blocks in proportions typical of the paper's
/// examples.
pub fn random_program(target_size: usize, vocab: &Vocab, seed: u64) -> Program {
    let mut rng = BenchRng::seed_from_u64(seed);
    gen_program(target_size, vocab, &mut rng, 0)
}

fn gen_program(budget: usize, vocab: &Vocab, rng: &mut BenchRng, depth: usize) -> Program {
    if budget <= 1 || depth > 12 {
        return Program::Access(vocab.random_access(rng));
    }
    // Choose a construct; weights favour sequences.
    let choice = rng.gen_range(0..100);
    match choice {
        0..=54 => {
            // Sequence: split the budget.
            let left = rng.gen_range(1..budget.max(2));
            let a = gen_program(left, vocab, rng, depth + 1);
            let bprog = gen_program(
                budget.saturating_sub(left + 1).max(1),
                vocab,
                rng,
                depth + 1,
            );
            a.then(bprog)
        }
        55..=74 => {
            let half = (budget - 1) / 2;
            Program::If {
                cond: random_cond(rng),
                then_branch: Box::new(gen_program(half.max(1), vocab, rng, depth + 1)),
                else_branch: Box::new(gen_program(half.max(1), vocab, rng, depth + 1)),
            }
        }
        75..=86 => Program::While {
            cond: random_cond(rng),
            body: Box::new(gen_program(
                budget.saturating_sub(2).max(1),
                vocab,
                rng,
                depth + 1,
            )),
        },
        _ => {
            let half = (budget - 1) / 2;
            let a = gen_program(half.max(1), vocab, rng, depth + 1);
            let bprog = gen_program(half.max(1), vocab, rng, depth + 1);
            a.par(bprog)
        }
    }
}

/// Like [`random_program`] but without parallel composition — sequences,
/// conditionals and loops only.
///
/// Nested `||` makes the program DFA grow with the *shuffle width*, an
/// orthogonal (and separately measured, E8) exponential phenomenon; the
/// Theorem 3.2 scaling experiments use this generator so `m` measures
/// control-flow size as the theorem intends.
pub fn random_control_program(target_size: usize, vocab: &Vocab, seed: u64) -> Program {
    let mut rng = BenchRng::seed_from_u64(seed);
    gen_control(target_size, vocab, &mut rng, 0)
}

fn gen_control(budget: usize, vocab: &Vocab, rng: &mut BenchRng, depth: usize) -> Program {
    if budget <= 1 || depth > 12 {
        return Program::Access(vocab.random_access(rng));
    }
    match rng.gen_range(0..100) {
        0..=64 => {
            let left = rng.gen_range(1..budget.max(2));
            let a = gen_control(left, vocab, rng, depth + 1);
            let b = gen_control(
                budget.saturating_sub(left + 1).max(1),
                vocab,
                rng,
                depth + 1,
            );
            a.then(b)
        }
        65..=84 => {
            let half = (budget - 1) / 2;
            Program::If {
                cond: random_cond(rng),
                then_branch: Box::new(gen_control(half.max(1), vocab, rng, depth + 1)),
                else_branch: Box::new(gen_control(half.max(1), vocab, rng, depth + 1)),
            }
        }
        _ => Program::While {
            cond: random_cond(rng),
            body: Box::new(gen_control(
                budget.saturating_sub(2).max(1),
                vocab,
                rng,
                depth + 1,
            )),
        },
    }
}

fn random_cond(rng: &mut BenchRng) -> Cond {
    Cond::cmp(
        CmpOp::Gt,
        Expr::var(format!("x{}", rng.gen_range(0..4))),
        Expr::Int(rng.gen_range(0..10)),
    )
}

/// Generate a random SRAC constraint of roughly `target_size` nodes (the
/// `n` of Theorem 3.2) over accesses of the vocabulary.
pub fn random_constraint(target_size: usize, vocab: &Vocab, seed: u64) -> Constraint {
    let mut rng = BenchRng::seed_from_u64(seed ^ 0x5eed);
    gen_constraint(target_size, vocab, &mut rng)
}

fn gen_constraint(budget: usize, vocab: &Vocab, rng: &mut BenchRng) -> Constraint {
    if budget <= 1 {
        return match rng.gen_range(0..3) {
            0 => Constraint::Atom(vocab.random_access(rng)),
            1 => Constraint::Ordered(vocab.random_access(rng), vocab.random_access(rng)),
            _ => Constraint::at_most(
                rng.gen_range(0..6),
                Selector::any()
                    .with_resources([&vocab.resources[rng.gen_range(0..vocab.resources.len())]]),
            ),
        };
    }
    let half = (budget - 1) / 2;
    match rng.gen_range(0..3) {
        0 => gen_constraint(half.max(1), vocab, rng).and(gen_constraint(half.max(1), vocab, rng)),
        1 => gen_constraint(half.max(1), vocab, rng).or(gen_constraint(half.max(1), vocab, rng)),
        _ => gen_constraint(budget - 1, vocab, rng).not(),
    }
}

/// A *conjunctive policy* constraint — the realistic shape (the §6
/// dependency constraint, per-resource caps): `k` conjuncts mixing
/// cardinality caps and ordering requirements.
pub fn conjunctive_policy(k: usize, vocab: &Vocab, seed: u64) -> Constraint {
    let mut rng = BenchRng::seed_from_u64(seed ^ 0xca9);
    Constraint::all((0..k).map(|_| {
        match rng.gen_range(0..2) {
            0 => Constraint::at_most(
                rng.gen_range(1..8),
                Selector::any()
                    .with_resources([&vocab.resources[rng.gen_range(0..vocab.resources.len())]]),
            ),
            _ => {
                let a = vocab.random_access(&mut rng);
                let b2 = vocab.random_access(&mut rng);
                Constraint::Atom(a.clone()).implies(Constraint::Ordered(a, b2))
            }
        }
    }))
}

/// A loop-free random program (sequences and conditionals only): its
/// trace model is finite and every per-resource access count is bounded
/// by the program size.
pub fn random_branching_program(target_size: usize, vocab: &Vocab, seed: u64) -> Program {
    let mut rng = BenchRng::seed_from_u64(seed ^ 0xbf);
    gen_branching(target_size, vocab, &mut rng, 0)
}

fn gen_branching(budget: usize, vocab: &Vocab, rng: &mut BenchRng, depth: usize) -> Program {
    if budget <= 1 || depth > 12 {
        return Program::Access(vocab.random_access(rng));
    }
    if rng.gen_range(0..100) < 70 {
        let left = rng.gen_range(1..budget.max(2));
        let a = gen_branching(left, vocab, rng, depth + 1);
        let b = gen_branching(
            budget.saturating_sub(left + 1).max(1),
            vocab,
            rng,
            depth + 1,
        );
        a.then(b)
    } else {
        let half = (budget - 1) / 2;
        Program::If {
            cond: random_cond(rng),
            then_branch: Box::new(gen_branching(half.max(1), vocab, rng, depth + 1)),
            else_branch: Box::new(gen_branching(half.max(1), vocab, rng, depth + 1)),
        }
    }
}

/// A conjunction of `k` cardinality caps over the vocabulary's resources,
/// all with bound ≥ `floor` — against a loop-free program of size ≤
/// `floor` every conjunct is satisfied, so a ForAll check must visit all
/// `k` of them (no short-circuiting): the clean n-scaling workload.
pub fn satisfied_cap_policy(k: usize, vocab: &Vocab, floor: usize) -> Constraint {
    Constraint::all((0..k).map(|i| {
        Constraint::at_most(
            floor + i % 7,
            Selector::any().with_resources([&vocab.resources[i % vocab.resources.len()]]),
        )
    }))
}

/// A straight-line tour program: one `op` access on each server in order
/// (used by the agent-system sweeps, where behaviour must be compliant).
pub fn tour_program(op: &str, resource: &str, servers: &[String]) -> Program {
    b::seq(servers.iter().map(|s| b::access(op, resource, s)))
}

/// Build the standard licensee policy used by E4/E6: `cap` accesses to
/// `resource` coalition-wide.
pub fn licensee_model(user: &str, resource: &str, cap: usize) -> RbacModel {
    let mut m = RbacModel::new();
    m.add_user(user);
    m.add_role("licensee");
    m.add_permission(
        Permission::new(
            "p",
            AccessPattern::parse(&format!("*:{resource}:*")).unwrap(),
        )
        .with_spatial(Constraint::at_most(
            cap,
            Selector::any().with_resources([resource]),
        )),
    )
    .unwrap();
    m.assign_permission("licensee", "p").unwrap();
    m.assign_user(user, "licensee").unwrap();
    m
}

/// An unconstrained model granting everything on `resource`.
pub fn open_model(user: &str, resource: &str) -> RbacModel {
    let mut m = RbacModel::new();
    m.add_user(user);
    m.add_role("licensee");
    m.add_permission(Permission::new(
        "p",
        AccessPattern::parse(&format!("*:{resource}:*")).unwrap(),
    ))
    .unwrap();
    m.assign_permission("licensee", "p").unwrap();
    m.assign_user(user, "licensee").unwrap();
    m
}

/// A fleet of `objects` independent mobile objects (`n0`..`n{N-1}`), all
/// activating the same `licensee` role whose single permission carries a
/// cardinality constraint on `resource` (E12 decide-throughput workload).
///
/// `cap` must exceed the per-object access count so every decision is a
/// grant: the interesting cost is then the spatial `P ⊨ C` check itself,
/// not denial short-circuits. The counting automaton for `at_most(cap)`
/// has `cap + 2` states; the warm cursor advances one transition per
/// grant.
pub fn fleet_model(objects: usize, resource: &str, cap: usize) -> RbacModel {
    let mut m = RbacModel::new();
    m.add_role("licensee");
    m.add_permission(
        Permission::new(
            "p",
            AccessPattern::parse(&format!("*:{resource}:*")).unwrap(),
        )
        .with_spatial(Constraint::at_most(
            cap,
            Selector::any().with_resources([resource]),
        )),
    )
    .unwrap();
    m.assign_permission("licensee", "p").unwrap();
    for i in 0..objects {
        let user = format!("n{i}");
        m.add_user(&user);
        m.assign_user(&user, "licensee").unwrap();
    }
    m
}

/// A reactive guard over [`fleet_model`] with every object enrolled; the
/// cap sits just above `accesses`, so the fleet workload is all-grant.
pub fn fleet_guard(objects: usize, accesses: usize) -> CoordinatedGuard {
    let guard = CoordinatedGuard::new(ExtendedRbac::new(fleet_model(objects, "rsw", accesses + 2)))
        .with_mode(EnforcementMode::Reactive);
    for i in 0..objects {
        guard.enroll(format!("n{i}"), ["licensee"]);
    }
    guard
}

/// The fleet workload's access vocabulary: `exec rsw` on four servers, so
/// the cursor alphabet has more than one symbol.
pub fn fleet_vocab() -> Vec<Access> {
    (0..4)
        .map(|s| Access::new("exec", "rsw", format!("s{s}")))
        .collect()
}

/// Drive the fleet workload through sequential `decide` calls against
/// `guard`: `accesses` rounds, round `k` at time `k` with access
/// `k mod 4` of [`fleet_vocab`], each round visiting `n0`..`n{objects-1}`
/// in order and issuing one proof per grant. `before(i)` runs ahead of
/// the `i`-th decision. Returns every verdict in order.
pub fn run_fleet(
    guard: &CoordinatedGuard,
    objects: usize,
    accesses: usize,
    mut before: impl FnMut(usize),
) -> Vec<stacl::coalition::Verdict> {
    let proofs = ProofStore::new();
    let vocab = fleet_vocab();
    let mut table = AccessTable::new();
    for a in &vocab {
        table.intern(a);
    }
    let names: Vec<String> = (0..objects).map(|i| format!("n{i}")).collect();
    let programs: Vec<Program> = vocab.iter().map(|a| Program::Access(a.clone())).collect();
    let mut verdicts = Vec::with_capacity(objects * accesses);
    for k in 0..accesses {
        let (access, remaining) = (&vocab[k % vocab.len()], &programs[k % vocab.len()]);
        let time = TimePoint::new(k as f64);
        for object in &names {
            before(verdicts.len());
            let req = GuardRequest {
                object,
                access,
                remaining,
                time,
            };
            let v = guard.decide(&req, &proofs, &mut table);
            if v.is_granted() {
                proofs.issue(object, access.clone(), time);
            }
            verdicts.push(v);
        }
    }
    verdicts
}

/// Fit the slope of `log(y) ~ slope * log(x) + c` — the empirical scaling
/// exponent used to validate the O(m×n) claim (slope ≈ 1 in each factor).
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    assert!(points.len() >= 2);
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let lx = x.ln();
        let ly = y.max(1e-12).ln();
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_program_sizes_track_target() {
        let vocab = Vocab::new(3, 4, 4);
        for target in [8usize, 64, 256] {
            let p = random_program(target, &vocab, 1);
            let size = p.size();
            assert!(
                size >= target / 4 && size <= target * 4,
                "target {target}, got {size}"
            );
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let vocab = Vocab::new(2, 3, 3);
        assert_eq!(random_program(50, &vocab, 7), random_program(50, &vocab, 7));
        assert_eq!(
            random_constraint(10, &vocab, 7),
            random_constraint(10, &vocab, 7)
        );
        assert_ne!(random_program(50, &vocab, 7), random_program(50, &vocab, 8));
    }

    #[test]
    fn conjunctive_policy_is_a_conjunction() {
        let vocab = Vocab::new(2, 3, 3);
        let c = conjunctive_policy(8, &vocab, 3);
        fn count_top_ands(c: &Constraint) -> usize {
            match c {
                Constraint::And(a, b) => count_top_ands(a) + count_top_ands(b),
                _ => 1,
            }
        }
        assert_eq!(count_top_ands(&c), 8);
    }

    #[test]
    fn environment_hosts_all_accesses() {
        let vocab = Vocab::new(2, 2, 2);
        let env = vocab.environment();
        let mut rng = BenchRng::seed_from_u64(0);
        for _ in 0..20 {
            assert!(env.resolve(&vocab.random_access(&mut rng)).is_ok());
        }
    }

    #[test]
    fn slope_of_linear_data_is_one() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&pts) - 1.0).abs() < 1e-9);
        let quad: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&quad) - 2.0).abs() < 1e-9);
    }
}
