//! Property tests for the SRAC layer: compiled automata must agree with
//! Definition 3.6's direct evaluation on every trace; NNF must preserve
//! semantics; parsing must round-trip. Driven by the in-tree seeded
//! `stacl_ids::prop` runner.

use stacl_ids::prop::forall;
use stacl_ids::rng::SplitMix64;

use stacl_srac::check::{check_residual, check_residual_cached, ConstraintCache, Semantics};
use stacl_srac::compile::compile;
use stacl_srac::parser::parse_constraint;
use stacl_srac::trace_sat::{trace_satisfies, ProofOracle};
use stacl_srac::{Constraint, CursorBank, Selector};
use stacl_sral::Access;
use stacl_trace::{AccessId, AccessTable, Alphabet, Trace};

const OPS: [&str; 2] = ["read", "exec"];
const RESOURCES: [&str; 2] = ["db", "rsw"];
const SERVERS: [&str; 2] = ["s1", "s2"];

fn vocab_table() -> (AccessTable, Alphabet, Vec<Access>) {
    let mut table = AccessTable::new();
    let mut accs = Vec::new();
    for op in OPS {
        for r in RESOURCES {
            for s in SERVERS {
                let a = Access::new(op, r, s);
                table.intern(&a);
                accs.push(a);
            }
        }
    }
    let al = Alphabet::from_ids((0..accs.len() as u32).map(AccessId));
    (table, al, accs)
}

fn gen_access(rng: &mut SplitMix64) -> Access {
    Access::new(
        OPS[rng.gen_range(0..OPS.len())],
        RESOURCES[rng.gen_range(0..RESOURCES.len())],
        SERVERS[rng.gen_range(0..SERVERS.len())],
    )
}

fn gen_selector(rng: &mut SplitMix64) -> Selector {
    match rng.gen_range(0u32..5) {
        0 => Selector::any(),
        1 => Selector::any().with_ops([OPS[rng.gen_range(0..OPS.len())]]),
        2 => Selector::any().with_resources([RESOURCES[rng.gen_range(0..RESOURCES.len())]]),
        3 => Selector::any().with_servers([SERVERS[rng.gen_range(0..SERVERS.len())]]),
        _ => Selector::any()
            .with_ops([OPS[rng.gen_range(0..OPS.len())]])
            .with_servers([SERVERS[rng.gen_range(0..SERVERS.len())]]),
    }
}

fn gen_constraint(rng: &mut SplitMix64, depth: u32) -> Constraint {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0u32..5) {
            0 => Constraint::True,
            1 => Constraint::False,
            2 => Constraint::Atom(gen_access(rng)),
            3 => Constraint::Ordered(gen_access(rng), gen_access(rng)),
            _ => {
                let min = rng.gen_range(0usize..3);
                let max = if rng.gen_bool(0.5) {
                    Some(min + rng.gen_range(0usize..4))
                } else {
                    None
                };
                Constraint::Card {
                    min,
                    max,
                    selector: gen_selector(rng),
                }
            }
        };
    }
    match rng.gen_range(0u32..4) {
        0 => gen_constraint(rng, depth - 1).and(gen_constraint(rng, depth - 1)),
        1 => gen_constraint(rng, depth - 1).or(gen_constraint(rng, depth - 1)),
        2 => gen_constraint(rng, depth - 1).implies(gen_constraint(rng, depth - 1)),
        _ => gen_constraint(rng, depth - 1).not(),
    }
}

fn gen_trace(rng: &mut SplitMix64) -> Trace {
    let len = rng.gen_range(0usize..7);
    Trace::from_ids((0..len).map(|_| AccessId(rng.gen_range(0u32..8))))
}

/// The compiled automaton and Definition 3.6 agree on every trace.
#[test]
fn compile_agrees_with_definition_3_6() {
    forall("compile_agrees_with_definition_3_6", 0xac01, 192, |rng| {
        let c = gen_constraint(rng, 3);
        let t = gen_trace(rng);
        let (table, al, _) = vocab_table();
        let d = compile(&c, &al, &table);
        let oracle = ProofOracle::assume_all();
        assert_eq!(
            d.accepts(&t),
            trace_satisfies(&t, &c, &table, &oracle),
            "constraint {c} on trace {t}"
        );
    });
}

/// NNF preserves the trace semantics exactly.
#[test]
fn nnf_preserves_semantics() {
    forall("nnf_preserves_semantics", 0xac02, 192, |rng| {
        let c = gen_constraint(rng, 3);
        let t = gen_trace(rng);
        let (table, _, _) = vocab_table();
        let oracle = ProofOracle::assume_all();
        assert_eq!(
            trace_satisfies(&t, &c, &table, &oracle),
            trace_satisfies(&t, &c.to_nnf(), &table, &oracle)
        );
    });
}

/// NNF really is in negation normal form: Not only wraps leaves.
#[test]
fn nnf_shape() {
    forall("nnf_shape", 0xac03, 192, |rng| {
        let c = gen_constraint(rng, 4);
        fn check(c: &Constraint) -> bool {
            match c {
                Constraint::Not(inner) => matches!(
                    **inner,
                    Constraint::Atom(_) | Constraint::Ordered(_, _) | Constraint::Card { .. }
                ),
                Constraint::And(a, b) | Constraint::Or(a, b) => check(a) && check(b),
                _ => true,
            }
        }
        assert!(check(&c.to_nnf()));
    });
}

/// Display → parse round trip.
#[test]
fn display_parse_roundtrip() {
    forall("display_parse_roundtrip", 0xac04, 192, |rng| {
        let c = gen_constraint(rng, 3);
        let printed = c.to_string();
        let reparsed =
            parse_constraint(&printed).unwrap_or_else(|e| panic!("reparse of `{printed}`: {e}"));
        assert_eq!(c, reparsed);
    });
}

/// ForAll and Exists relate classically: ForAll C fails iff Exists ¬C
/// holds (on programs with at least one trace, which is every SRAL
/// program).
#[test]
fn forall_exists_duality() {
    forall("forall_exists_duality", 0xac05, 192, |rng| {
        let c = gen_constraint(rng, 2);
        let seed = rng.gen_range(0u64..50);
        // Small straight-line program from the vocabulary.
        let (_, _, accs) = vocab_table();
        let k = 1 + (seed as usize % 4);
        let prog =
            stacl_sral::Program::seq_all((0..k).map(|i| {
                stacl_sral::Program::Access(accs[(seed as usize + i) % accs.len()].clone())
            }));
        let mut t1 = AccessTable::new();
        let forall_v = check_residual(&Trace::empty(), &prog, &c, &mut t1, Semantics::ForAll);
        let mut t2 = AccessTable::new();
        let exists_neg = check_residual(
            &Trace::empty(),
            &prog,
            &c.clone().not(),
            &mut t2,
            Semantics::Exists,
        );
        assert_eq!(forall_v.holds, !exists_neg.holds, "constraint {c}");
    });
}

/// Residual checking with history h equals checking the concatenated
/// behaviour: h·P ⊨ C (for straight-line programs where the
/// concatenation is expressible).
#[test]
fn residual_equals_prefixed_program() {
    forall("residual_equals_prefixed_program", 0xac06, 192, |rng| {
        let c = gen_constraint(rng, 2);
        let h: Vec<usize> = (0..rng.gen_range(0usize..4))
            .map(|_| rng.gen_range(0usize..8))
            .collect();
        let p: Vec<usize> = (0..rng.gen_range(1usize..4))
            .map(|_| rng.gen_range(0usize..8))
            .collect();
        let (_, _, accs) = vocab_table();
        let history_accs: Vec<Access> = h.iter().map(|&i| accs[i].clone()).collect();
        let future = stacl_sral::Program::seq_all(
            p.iter()
                .map(|&i| stacl_sral::Program::Access(accs[i].clone())),
        );
        // Variant 1: history as a trace.
        let mut t1 = AccessTable::new();
        let h_trace = Trace::from_ids(history_accs.iter().map(|a| t1.intern(a)));
        let v1 = check_residual(&h_trace, &future, &c, &mut t1, Semantics::ForAll);
        // Variant 2: history folded into the program.
        let prefixed = stacl_sral::Program::seq_all(
            history_accs
                .iter()
                .map(|a| stacl_sral::Program::Access(a.clone())),
        )
        .then(future);
        let mut t2 = AccessTable::new();
        let v2 = check_residual(&Trace::empty(), &prefixed, &c, &mut t2, Semantics::ForAll);
        assert_eq!(v1.holds, v2.holds, "constraint {c}");
    });
}

/// The incremental cursor verdict equals the from-scratch
/// `check_residual_cached` on random (trace, constraint, split-point)
/// triples: the full trace is split at a random point, the prefix is
/// folded into the cursor (as proofs would be), and the residual check
/// over a random straight-line future program must agree — for both
/// the single-access `O(1)` fast path and the general product-from-state
/// path. This is the exactness the decide fast path rests on.
#[test]
fn cursor_verdict_equals_from_scratch_residual() {
    forall(
        "cursor_verdict_equals_from_scratch_residual",
        0xac08,
        192,
        |rng| {
            let c = gen_constraint(rng, 3);
            let (mut table, _, accs) = vocab_table();
            let mut cache = ConstraintCache::new();

            let full: Vec<Access> = (0..rng.gen_range(0usize..6))
                .map(|_| accs[rng.gen_range(0usize..8)].clone())
                .collect();
            let split = rng.gen_range(0usize..full.len() + 1);
            let future: Vec<Access> = (0..rng.gen_range(1usize..4))
                .map(|_| accs[rng.gen_range(0usize..8)].clone())
                .collect();
            let prog = stacl_sral::Program::seq_all(
                future
                    .iter()
                    .map(|a| stacl_sral::Program::Access(a.clone())),
            );

            // From-scratch slow path over the whole history.
            let history = Trace::from_ids(full.iter().map(|a| table.id_of(a).unwrap()));
            let slow = check_residual_cached(
                &history,
                &prog,
                &c,
                &mut table,
                Semantics::ForAll,
                &mut cache,
            );

            // Cursor: fold the prefix at build time, the suffix one
            // access at a time (as watermark subscription would).
            let prefix = Trace::from_ids(full[..split].iter().map(|a| table.id_of(a).unwrap()));
            let mut bank = CursorBank::new();
            assert!(bank.rebuild(0, &c, &prefix, &mut table, &mut cache, 0));
            assert!(bank.in_sync_with(0, &table), "vocab table is saturated");
            for a in &full[split..] {
                assert!(bank.advance_synced(0, a, &table));
            }
            assert_eq!(bank.consumed(0), Some(full.len()));
            let fast = bank
                .check_residual_program(0, &prog, &mut table)
                .expect("vocabulary fully interned");
            assert_eq!(fast, slow.holds, "constraint {c}, split {split}");

            // The single-access fast path agrees too.
            let single = stacl_sral::Program::Access(future[0].clone());
            let slow1 = check_residual_cached(
                &history,
                &single,
                &c,
                &mut table,
                Semantics::ForAll,
                &mut cache,
            );
            let fast1 = bank
                .check_one(0, &future[0], &table)
                .expect("vocabulary fully interned");
            assert_eq!(fast1, slow1.holds, "constraint {c} (single)");
        },
    );
}

/// Compressed-alphabet leaves decide exactly like full-alphabet
/// compilation: `check_residual_cached` (symbol-class-compressed,
/// hash-consed leaves + lazily explored mapped product) must agree with
/// the non-cached `check_residual` oracle (full checking alphabet,
/// materialised product) on random (history, program, constraint)
/// triples, under both semantics — and its witnesses must be genuine by
/// Definition 3.6. This is the "leaf-compressed ≡ leaf-full" pin the
/// alphabet-compression optimisation rests on.
#[test]
fn leaf_compressed_equals_leaf_full() {
    forall("leaf_compressed_equals_leaf_full", 0xac09, 192, |rng| {
        let c = gen_constraint(rng, 3);
        let (mut table, _, accs) = vocab_table();
        let mut cache = ConstraintCache::new();
        let history: Vec<Access> = (0..rng.gen_range(0usize..5))
            .map(|_| accs[rng.gen_range(0usize..8)].clone())
            .collect();
        let future: Vec<Access> = (0..rng.gen_range(1usize..4))
            .map(|_| accs[rng.gen_range(0usize..8)].clone())
            .collect();
        let prog = stacl_sral::Program::seq_all(
            future
                .iter()
                .map(|a| stacl_sral::Program::Access(a.clone())),
        );
        let h_trace = Trace::from_ids(history.iter().map(|a| table.id_of(a).unwrap()));
        for sem in [Semantics::ForAll, Semantics::Exists] {
            // Full-width oracle on its own fresh table.
            let mut full_table = AccessTable::new();
            let h_full = Trace::from_ids(history.iter().map(|a| full_table.intern(a)));
            let full = check_residual(&h_full, &prog, &c, &mut full_table, sem);
            let compressed =
                check_residual_cached(&h_trace, &prog, &c, &mut table, sem, &mut cache);
            assert_eq!(compressed.holds, full.holds, "constraint {c} ({sem:?})");
            // Witnesses must be genuine: a failing ForAll's trace
            // violates C, a holding Exists' trace satisfies it.
            let oracle = ProofOracle::assume_all();
            match sem {
                Semantics::ForAll if !compressed.holds => {
                    let w = compressed.witness.expect("failing ForAll has a witness");
                    let whole = h_trace.concat(&w);
                    assert!(
                        !trace_satisfies(&whole, &c, &table, &oracle),
                        "bogus counterexample {whole} for {c}"
                    );
                }
                Semantics::Exists if compressed.holds => {
                    let w = compressed.witness.expect("holding Exists has a witness");
                    let whole = h_trace.concat(&w);
                    assert!(
                        trace_satisfies(&whole, &c, &table, &oracle),
                        "bogus satisfying witness {whole} for {c}"
                    );
                }
                _ => {}
            }
        }
    });
}

/// The production checking pipeline (`compile.rs` automata driven through
/// `check.rs`'s residual check) agrees with `trace_sat.rs`'s naive
/// Definition 3.6 evaluation on random (trace, constraint) pairs: for a
/// straight-line future, the program has exactly one trace, so both
/// semantics must equal the direct evaluation of history·future ⊨ C.
/// This is the equivalence the `stacl-sim` differential oracle rests on.
#[test]
fn check_agrees_with_naive_trace_evaluation() {
    forall(
        "check_agrees_with_naive_trace_evaluation",
        0xac07,
        192,
        |rng| {
            let c = gen_constraint(rng, 3);
            let (_, _, accs) = vocab_table();
            let history: Vec<Access> = (0..rng.gen_range(0usize..5))
                .map(|_| accs[rng.gen_range(0usize..8)].clone())
                .collect();
            let future: Vec<Access> = (0..rng.gen_range(1usize..5))
                .map(|_| accs[rng.gen_range(0usize..8)].clone())
                .collect();

            // Naive: one flat trace through Definition 3.6, fresh table.
            let mut naive_table = AccessTable::new();
            let full = Trace::from_ids(
                history
                    .iter()
                    .chain(future.iter())
                    .map(|a| naive_table.intern(a)),
            );
            let naive = trace_satisfies(&full, &c, &naive_table, &ProofOracle::assume_all());

            // Production: residual automaton check over the declared program.
            let prog = stacl_sral::Program::seq_all(
                future
                    .iter()
                    .map(|a| stacl_sral::Program::Access(a.clone())),
            );
            let mut table = AccessTable::new();
            let h_trace = Trace::from_ids(history.iter().map(|a| table.intern(a)));
            let forall_v = check_residual(&h_trace, &prog, &c, &mut table, Semantics::ForAll);
            assert_eq!(forall_v.holds, naive, "constraint {c} (forall)");
            // A straight-line program has exactly one trace, so ∃ ≡ ∀.
            let exists_v = check_residual(&h_trace, &prog, &c, &mut table, Semantics::Exists);
            assert_eq!(exists_v.holds, naive, "constraint {c} (exists)");
        },
    );
}
