//! Property tests for the automata machinery: the DFA operations must
//! satisfy the boolean-algebra and language-theory laws the constraint
//! checker relies on. Driven by the in-tree seeded `stacl_ids::prop`
//! runner.

use std::collections::{HashMap, HashSet};

use stacl_ids::prop::forall;
use stacl_ids::rng::SplitMix64;

use stacl_trace::dfa::{advance, ProductMode};
use stacl_trace::enumerate::enumerate_traces;
use stacl_trace::symbol::{AccessId, Alphabet};
use stacl_trace::{Dfa, Regex, Trace};

fn gen_regex(rng: &mut SplitMix64, n_syms: u32, depth: u32) -> Regex {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0u32..4) {
            0 | 1 => Regex::Sym(AccessId(rng.gen_range(0..n_syms))),
            2 => Regex::Eps,
            _ => Regex::Empty,
        };
    }
    match rng.gen_range(0u32..4) {
        0 => Regex::alt(
            gen_regex(rng, n_syms, depth - 1),
            gen_regex(rng, n_syms, depth - 1),
        ),
        1 => Regex::cat(
            gen_regex(rng, n_syms, depth - 1),
            gen_regex(rng, n_syms, depth - 1),
        ),
        2 => Regex::shuffle(
            gen_regex(rng, n_syms, depth - 1),
            gen_regex(rng, n_syms, depth - 1),
        ),
        _ => Regex::star(gen_regex(rng, n_syms, depth - 1)),
    }
}

fn gen_trace(rng: &mut SplitMix64, n_syms: u32) -> Trace {
    let len = rng.gen_range(0usize..8);
    Trace::from_ids((0..len).map(|_| AccessId(rng.gen_range(0..n_syms))))
}

/// Double complement is the identity language.
#[test]
fn complement_involution() {
    forall("complement_involution", 0xd0a1, 128, |rng| {
        let re = gen_regex(rng, 3, 3);
        let t = gen_trace(rng, 3);
        let d = Dfa::from_regex(&re);
        let cc = d.complement().complement();
        assert_eq!(d.accepts(&t), cc.accepts(&t));
    });
}

/// Minimisation preserves the language.
#[test]
fn minimize_preserves_language() {
    forall("minimize_preserves_language", 0xd0a2, 128, |rng| {
        let re = gen_regex(rng, 3, 3);
        let t = gen_trace(rng, 3);
        let d = Dfa::from_regex(&re);
        let m = d.minimize();
        assert_eq!(d.accepts(&t), m.accepts(&t));
        assert!(m.num_states() <= d.num_states());
        // Minimisation is idempotent on state count.
        assert_eq!(m.minimize().num_states(), m.num_states());
    });
}

/// Product modes implement their boolean tables pointwise.
#[test]
fn product_modes_are_pointwise() {
    forall("product_modes_are_pointwise", 0xd0a3, 128, |rng| {
        let a = gen_regex(rng, 3, 3);
        let b = gen_regex(rng, 3, 3);
        let t = gen_trace(rng, 3);
        let union = a.alphabet().union(&b.alphabet());
        // Reindex over a COMMON superset alphabet covering the trace too.
        let mut full = union;
        for i in 0..3 {
            full.insert(AccessId(i));
        }
        let da = Dfa::from_regex_with(&a, full.clone());
        let db = Dfa::from_regex_with(&b, full.clone());
        let (ra, rb) = (da.accepts(&t), db.accepts(&t));
        assert_eq!(da.product(&db, ProductMode::And).accepts(&t), ra && rb);
        assert_eq!(da.product(&db, ProductMode::Or).accepts(&t), ra || rb);
        assert_eq!(da.product(&db, ProductMode::Diff).accepts(&t), ra && !rb);
        assert_eq!(da.product(&db, ProductMode::Xor).accepts(&t), ra != rb);
    });
}

/// `equivalent` is reflexive and agrees with itself under syntactic
/// rebuilds; `subset_of` is reflexive and antisymmetric up to
/// equivalence.
#[test]
fn equivalence_laws() {
    forall("equivalence_laws", 0xd0a4, 128, |rng| {
        let a = gen_regex(rng, 3, 3);
        let b = gen_regex(rng, 3, 3);
        let da = Dfa::from_regex(&a);
        let db = Dfa::from_regex(&b);
        assert!(da.equivalent(&da));
        assert!(da.subset_of(&da));
        if da.subset_of(&db) && db.subset_of(&da) {
            assert!(da.equivalent(&db));
        }
        if da.equivalent(&db) {
            assert!(da.subset_of(&db) && db.subset_of(&da));
        }
        // Witness soundness: a non-subset yields a trace in a \ b.
        if let Some(w) = da.witness_not_subset(&db) {
            assert!(da.accepts(&w));
            assert!(!db.accepts(&w));
            assert!(!da.subset_of(&db));
        } else {
            assert!(da.subset_of(&db));
        }
    });
}

/// `advance` computes the residual (Brzozowski derivative).
#[test]
fn advance_is_derivative() {
    forall("advance_is_derivative", 0xd0a5, 128, |rng| {
        let re = gen_regex(rng, 3, 3);
        let prefix = gen_trace(rng, 3);
        let rest = gen_trace(rng, 3);
        // Build over the full 3-symbol alphabet so the prefix always maps.
        let mut al = re.alphabet();
        for i in 0..3 {
            al.insert(AccessId(i));
        }
        let d = Dfa::from_regex_with(&re, al);
        let residual = advance(&d, &prefix).expect("alphabet covers prefix");
        assert_eq!(residual.accepts(&rest), d.accepts(&prefix.concat(&rest)));
    });
}

/// Shuffle is commutative and associative at the language level.
#[test]
fn shuffle_laws() {
    forall("shuffle_laws", 0xd0a6, 128, |rng| {
        let a = gen_regex(rng, 2, 2);
        let b = gen_regex(rng, 2, 2);
        let c = gen_regex(rng, 2, 2);
        let ab = Regex::shuffle(a.clone(), b.clone());
        let ba = Regex::shuffle(b.clone(), a.clone());
        assert!(Dfa::equivalent_regexes(&ab, &ba));
        let ab_c = Regex::shuffle(ab, c.clone());
        let a_bc = Regex::shuffle(a, Regex::shuffle(b, c));
        assert!(Dfa::equivalent_regexes(&ab_c, &a_bc));
    });
}

/// Union and concatenation distribute as the trace-model rules say:
/// (a ∪ b)·c ≡ a·c ∪ b·c.
#[test]
fn cat_distributes_over_alt() {
    forall("cat_distributes_over_alt", 0xd0a7, 128, |rng| {
        let a = gen_regex(rng, 2, 2);
        let b = gen_regex(rng, 2, 2);
        let c = gen_regex(rng, 2, 2);
        let lhs = Regex::cat(Regex::alt(a.clone(), b.clone()), c.clone());
        let rhs = Regex::alt(Regex::cat(a, c.clone()), Regex::cat(b, c));
        assert!(Dfa::equivalent_regexes(&lhs, &rhs));
    });
}

/// Star laws: (m*)* ≡ m*, and m* ≡ ε ∪ m·m*.
#[test]
fn star_unrolling() {
    forall("star_unrolling", 0xd0a8, 128, |rng| {
        let m = gen_regex(rng, 2, 2);
        let star = Regex::star(m.clone());
        let star_star = Regex::Star(Box::new(star.clone()));
        assert!(Dfa::equivalent_regexes(&star, &star_star));
        let unrolled = Regex::alt(Regex::Eps, Regex::cat(m, star.clone()));
        assert!(Dfa::equivalent_regexes(&star, &unrolled));
    });
}

/// State elimination inverts compilation: extracting a regex from any
/// DFA yields the same language.
#[test]
fn extraction_roundtrip() {
    forall("extraction_roundtrip", 0xd0a9, 128, |rng| {
        let re = gen_regex(rng, 3, 3);
        let d = Dfa::from_regex(&re);
        let extracted = stacl_trace::dfa_to_regex(&d);
        assert!(
            Dfa::equivalent_regexes(&re, &extracted),
            "extraction of {re} gave {extracted}"
        );
    });
}

/// Enumeration agrees with acceptance: everything enumerated is
/// accepted, and every accepted short trace is enumerated.
#[test]
fn enumeration_is_sound_and_complete() {
    forall("enumeration_is_sound_and_complete", 0xd0aa, 128, |rng| {
        let re = gen_regex(rng, 3, 3);
        let d = Dfa::from_regex(&re);
        let listed = enumerate_traces(&d, 4, 100_000);
        for t in &listed {
            assert!(d.accepts(t), "enumerated {t} not accepted");
        }
        // Completeness via counting.
        let counts = stacl_trace::enumerate::count_traces_by_length(&d, 4);
        let total: u64 = counts.iter().sum();
        assert_eq!(listed.len() as u64, total);
    });
}

/// `minimize` output is *minimal*: no two states are language-equivalent
/// — the reference Moore refinement finds as many classes as there are
/// states. Also pins that canonicalization keeps minimality and is
/// deterministic across two independent builds of the same language.
#[test]
fn minimize_output_is_minimal() {
    forall("minimize_output_is_minimal", 0xd0ab, 128, |rng| {
        let re = gen_regex(rng, 3, 3);
        let d = Dfa::from_regex(&re).minimize();
        let classes = moore_minimize(&d).num_states();
        assert_eq!(
            classes,
            d.num_states(),
            "minimize left language-equivalent states ({re})"
        );
        // Canonical forms of independently built equal languages coincide.
        let c1 = d.canonicalize();
        let c2 = Dfa::from_regex(&re).minimize().canonicalize();
        assert!(c1.same_structure(&c2), "canonical form unstable for {re}");
        assert_eq!(c1.structural_hash(), c2.structural_hash());
    });
}

/// Reference minimiser: restrict to the reachable states, refine Moore
/// style — classes start as acceptance and split by (own class,
/// successor classes) signatures until the class count stops growing —
/// and build the quotient.
fn moore_minimize(d: &Dfa) -> Dfa {
    let (n, k) = (d.num_states(), d.alphabet_len() as u32);
    let mut reach = vec![false; n];
    reach[d.start as usize] = true;
    let mut stack = vec![d.start];
    while let Some(s) = stack.pop() {
        for sym in 0..k {
            let t = d.next(s, sym);
            if !reach[t as usize] {
                reach[t as usize] = true;
                stack.push(t);
            }
        }
    }
    let states: Vec<u32> = (0..n as u32).filter(|&s| reach[s as usize]).collect();
    let mut class: Vec<u32> = d.accept.iter().map(|&a| u32::from(a)).collect();
    let mut count = usize::from(states.iter().any(|&s| d.accept[s as usize]))
        + usize::from(states.iter().any(|&s| !d.accept[s as usize]));
    loop {
        let mut sig_index: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut next_class = vec![0u32; n];
        for &s in &states {
            let succ = (0..k).map(|sym| class[d.next(s, sym) as usize]).collect();
            let fresh = sig_index.len() as u32;
            next_class[s as usize] = *sig_index.entry((class[s as usize], succ)).or_insert(fresh);
        }
        class = next_class;
        if sig_index.len() == count {
            break;
        }
        count = sig_index.len();
    }
    let mut trans = vec![0u32; count * k as usize];
    let mut accept = vec![false; count];
    for &s in &states {
        let c = class[s as usize] as usize;
        accept[c] = d.accept[s as usize];
        for sym in 0..k {
            trans[c * k as usize + sym as usize] = class[d.next(s, sym) as usize];
        }
    }
    Dfa::from_parts(d.alphabet.clone(), trans, class[d.start as usize], accept)
}

fn alphabet_of(k: u32) -> Alphabet {
    Alphabet::from_ids((0..k).map(AccessId))
}

/// A random complete DFA: random transitions from a random start (so
/// some states are often unreachable), acceptance all, none or random,
/// and sometimes a rejecting sink the other states fall into.
fn gen_dfa(rng: &mut SplitMix64, k: u32) -> Dfa {
    let n = rng.gen_range(1usize..12);
    let mut trans: Vec<u32> = (0..n * k as usize)
        .map(|_| rng.gen_range(0..n as u32))
        .collect();
    let mut accept: Vec<bool> = match rng.gen_range(0u32..4) {
        0 => vec![true; n],
        1 => vec![false; n],
        _ => (0..n).map(|_| rng.gen_bool(0.4)).collect(),
    };
    if rng.gen_bool(0.5) {
        let sink = rng.gen_range(0..n);
        accept[sink] = false;
        for sym in 0..k as usize {
            trans[sink * k as usize + sym] = sink as u32;
        }
    }
    let start = rng.gen_range(0..n as u32);
    Dfa::from_parts(alphabet_of(k), trans, start, accept)
}

/// A saturating counter chain — the compiled `count(min, max, σ)` shape
/// — with random bounds, a random selected-symbol set and a few
/// unreachable states appended after the chain.
fn gen_counting(rng: &mut SplitMix64, k: u32) -> Dfa {
    let chain = rng.gen_range(1usize..40);
    let extra = rng.gen_range(0usize..4);
    let n = chain + extra;
    let matching: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.5)).collect();
    let min = rng.gen_range(0..chain);
    let max = rng.gen_range(0..chain);
    let mut trans = vec![0u32; n * k as usize];
    for state in 0..n {
        for sym in 0..k as usize {
            trans[state * k as usize + sym] = if state >= chain {
                rng.gen_range(0..n as u32)
            } else if matching[sym] {
                (state + 1).min(chain - 1) as u32
            } else {
                state as u32
            };
        }
    }
    let accept = (0..n).map(|c| c >= min && c <= max).collect();
    Dfa::from_parts(alphabet_of(k), trans, 0, accept)
}

/// `minimize` agrees with the reference minimiser exactly: their
/// canonical forms are structurally identical, on random DFAs (with
/// unreachable states, all-accepting and all-rejecting ones) and on
/// counting chains.
#[test]
fn minimize_matches_moore_reference() {
    forall("minimize_matches_moore_reference", 0xd0ac, 512, |rng| {
        let k = rng.gen_range(1u32..4);
        let d = if rng.gen_bool(0.5) {
            gen_dfa(rng, k)
        } else {
            gen_counting(rng, k)
        };
        let fast = d.minimize().canonicalize();
        let reference = moore_minimize(&d).canonicalize();
        assert!(
            fast.same_structure(&reference),
            "minimize disagrees with Moore refinement on {d:?}"
        );
    });
}

/// Reference mapped product: the unpruned BFS over every reachable pair,
/// stopping at the first accepting one.
fn product_shortest_unpruned(
    left: &Dfa,
    left_start: u32,
    right: &Dfa,
    right_start: u32,
    mode: ProductMode,
    map: &[u32],
) -> Option<Vec<u32>> {
    let combine = |a: u32, b: u32| {
        let (a, b) = (left.is_accepting(a), right.is_accepting(b));
        match mode {
            ProductMode::And => a && b,
            ProductMode::Or => a || b,
            ProductMode::Diff => a && !b,
            ProductMode::Xor => a != b,
        }
    };
    let start = (left_start, right_start);
    if combine(start.0, start.1) {
        return Some(Vec::new());
    }
    let mut seen = HashSet::from([start]);
    let mut pairs = vec![start];
    let mut pred: Vec<(u32, u32)> = vec![(u32::MAX, 0)];
    let mut head = 0;
    while head < pairs.len() {
        let (qa, qb) = pairs[head];
        for sym in 0..left.alphabet_len() as u32 {
            let pair = (left.next(qa, sym), right.next(qb, map[sym as usize]));
            if !seen.insert(pair) {
                continue;
            }
            if combine(pair.0, pair.1) {
                let mut word = vec![sym];
                let mut at = head;
                while pred[at].0 != u32::MAX {
                    word.push(pred[at].1);
                    at = pred[at].0 as usize;
                }
                word.reverse();
                return Some(word);
            }
            pred.push((head as u32, sym));
            pairs.push(pair);
        }
        head += 1;
    }
    None
}

/// Dead-pair pruning never changes the answer: the mapped product
/// returns exactly the unpruned BFS's witness in all four modes, from
/// random start states, with left automata that have dead states
/// (random DFAs with sinks, minimised regex automata) and without.
#[test]
fn mapped_product_matches_unpruned_bfs() {
    forall("mapped_product_matches_unpruned_bfs", 0xd0ad, 512, |rng| {
        let k_left = rng.gen_range(1u32..4);
        let left = if rng.gen_bool(0.5) {
            gen_dfa(rng, k_left)
        } else {
            let mut al = alphabet_of(1);
            let re = gen_regex(rng, 3, 3);
            for id in re.alphabet().ids() {
                al.insert(id);
            }
            Dfa::from_regex_with(&re, al)
        };
        let k_right = rng.gen_range(1u32..4);
        let right = if rng.gen_bool(0.5) {
            gen_dfa(rng, k_right)
        } else {
            gen_counting(rng, k_right)
        };
        let map: Vec<u32> = (0..left.alphabet_len())
            .map(|_| rng.gen_range(0..k_right))
            .collect();
        let ls = rng.gen_range(0..left.num_states() as u32);
        let rs = rng.gen_range(0..right.num_states() as u32);
        for mode in [
            ProductMode::And,
            ProductMode::Or,
            ProductMode::Diff,
            ProductMode::Xor,
        ] {
            assert_eq!(
                left.product_shortest_mapped(ls, &right, rs, mode, &map),
                product_shortest_unpruned(&left, ls, &right, rs, mode, &map),
                "mode {mode:?} from ({ls}, {rs})"
            );
        }
    });
}
