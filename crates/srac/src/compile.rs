//! Compilation of SRAC constraints to DFAs over the access alphabet.
//!
//! Every constraint denotes a (regular) set of traces — the traces that
//! satisfy it. Atoms and ordering constraints become 2–3-state automata;
//! cardinality constraints become *counting automata* whose size is the
//! bound plus two; boolean connectives become complement and product
//! constructions. Intermediate automata are Hopcroft-minimised to keep
//! products small, which is what makes Theorem 3.2's polynomial behaviour
//! hold on realistic constraints.
//!
//! All automata produced here are built over a caller-supplied alphabet —
//! normally the union of the program's alphabet and the constraint's
//! mentioned accesses — so that products and containment tests line up.

use stacl_trace::dfa::ProductMode;
use stacl_trace::{AccessTable, Alphabet, Dfa};

use crate::ast::Constraint;

/// Compile `c` into a DFA accepting exactly the traces (over `alphabet`)
/// that satisfy `c`. Execution proofs are assumed for every access in the
/// trace — the run-time residual check accounts for real proofs by feeding
/// the *proven history* through the automaton (see [`crate::check`]).
pub fn compile(c: &Constraint, alphabet: &Alphabet, table: &AccessTable) -> Dfa {
    match c {
        Constraint::True => universal(alphabet),
        Constraint::False => empty(alphabet),
        Constraint::Atom(a) => match table.id_of(a).and_then(|id| alphabet.index_of(id)) {
            Some(sym) => contains_symbol(alphabet, sym),
            // An access outside the alphabet can never be performed.
            None => empty(alphabet),
        },
        Constraint::Ordered(a1, a2) => {
            let s1 = table.id_of(a1).and_then(|id| alphabet.index_of(id));
            let s2 = table.id_of(a2).and_then(|id| alphabet.index_of(id));
            match (s1, s2) {
                (Some(x), Some(y)) => ordered(alphabet, x, y),
                _ => empty(alphabet),
            }
        }
        Constraint::Card { min, max, selector } => {
            let matching: Vec<bool> = alphabet
                .ids()
                .map(|id| selector.matches(table.resolve(id)))
                .collect();
            counting(alphabet, &matching, *min, *max)
        }
        Constraint::And(c1, c2) => {
            let d1 = compile(c1, alphabet, table);
            let d2 = compile(c2, alphabet, table);
            d1.product(&d2, ProductMode::And).minimize()
        }
        Constraint::Or(c1, c2) => {
            let d1 = compile(c1, alphabet, table);
            let d2 = compile(c2, alphabet, table);
            d1.product(&d2, ProductMode::Or).minimize()
        }
        Constraint::Not(c1) => compile(c1, alphabet, table).complement().minimize(),
    }
}

/// One accepting state with self-loops: every trace satisfies `T`.
fn universal(alphabet: &Alphabet) -> Dfa {
    Dfa::from_parts(alphabet.clone(), vec![0; alphabet.len()], 0, vec![true])
}

/// One rejecting state with self-loops: no trace satisfies `F`.
fn empty(alphabet: &Alphabet) -> Dfa {
    Dfa::from_parts(alphabet.clone(), vec![0; alphabet.len()], 0, vec![false])
}

/// Two states: traces containing local symbol `sym` at least once.
fn contains_symbol(alphabet: &Alphabet, sym: u32) -> Dfa {
    let k = alphabet.len();
    let mut trans = vec![0u32; 2 * k];
    for s in 0..k as u32 {
        trans[s as usize] = if s == sym { 1 } else { 0 };
        trans[k + s as usize] = 1; // accepting state absorbs.
    }
    Dfa::from_parts(alphabet.clone(), trans, 0, vec![false, true])
}

/// Three states: some occurrence of `first` strictly precedes some
/// occurrence of `second` (the `a1 ⊗ a2` automaton).
fn ordered(alphabet: &Alphabet, first: u32, second: u32) -> Dfa {
    let k = alphabet.len();
    let mut trans = vec![0u32; 3 * k];
    for s in 0..k as u32 {
        // State 0: waiting for `first`.
        trans[s as usize] = if s == first { 1 } else { 0 };
        // State 1: `first` seen; waiting for a *later* `second`.
        trans[k + s as usize] = if s == second { 2 } else { 1 };
        // State 2: satisfied, absorbing.
        trans[2 * k + s as usize] = 2;
    }
    Dfa::from_parts(alphabet.clone(), trans, 0, vec![false, false, true])
}

/// The counting automaton for `#(min, max, σ)`. `matching[sym]` marks the
/// symbols σ selects. States are saturating counters, and the chain is
/// minimal as built: with `min ≤ max` and some symbol selected, every
/// counter value is reachable and a run of selected symbols tells any
/// two apart. The other shapes collapse to one state — with `min > max`
/// no count is accepted, and with nothing selected the count stays 0.
fn counting(alphabet: &Alphabet, matching: &[bool], min: usize, max: Option<usize>) -> Dfa {
    if max.is_some_and(|n| min > n) {
        return empty(alphabet);
    }
    if !matching.contains(&true) {
        return if min == 0 {
            universal(alphabet)
        } else {
            empty(alphabet)
        };
    }
    let k = alphabet.len();
    // With a finite max we must distinguish counts 0..=max and "overflow";
    // with max = ∞ we only need counts 0..=min (saturated).
    let cap = match max {
        Some(n) => n + 1,
        None => min,
    };
    let n_states = cap + 1;
    let mut trans = vec![0u32; n_states * k];
    for state in 0..n_states {
        for sym in 0..k {
            let next = if matching[sym] {
                (state + 1).min(cap)
            } else {
                state
            };
            trans[state * k + sym] = next as u32;
        }
    }
    let accept: Vec<bool> = (0..n_states)
        .map(|count| match max {
            Some(n) => count >= min && count <= n,
            None => count >= min,
        })
        .collect();
    Dfa::from_parts(alphabet.clone(), trans, 0, accept)
}

/// Build the union alphabet a program/constraint check needs: every symbol
/// of `program_alphabet` plus every access the constraint mentions
/// (interning the latter as needed).
pub fn checking_alphabet(
    program_alphabet: &Alphabet,
    c: &Constraint,
    table: &mut AccessTable,
) -> Alphabet {
    let mut al = program_alphabet.clone();
    for a in c.mentioned_accesses() {
        al.insert(table.intern(a));
    }
    al
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::Selector;
    use crate::trace_sat::{trace_satisfies, ProofOracle};
    use stacl_sral::Access;
    use stacl_trace::enumerate::enumerate_traces;
    use stacl_trace::Trace;

    /// Three accesses on two servers shared by all tests.
    fn setup() -> (AccessTable, Alphabet, Vec<Access>) {
        let mut table = AccessTable::new();
        let accs = vec![
            Access::new("read", "r1", "s1"),
            Access::new("write", "r2", "s1"),
            Access::new("exec", "rsw", "s2"),
        ];
        let ids: Vec<_> = accs.iter().map(|a| table.intern(a)).collect();
        let al = Alphabet::from_ids(ids);
        (table, al, accs)
    }

    /// The compiled automaton must agree with Definition 3.6 on every
    /// short trace — the key compilation-soundness check.
    fn agree_on_short_traces(c: &Constraint) {
        let (table, al, _) = setup();
        let d = compile(c, &al, &table);
        let oracle = ProofOracle::assume_all();
        // All traces over the 3-symbol alphabet up to length 4: 121 traces.
        let all = stacl_trace::Regex::star(stacl_trace::Regex::alt_all(
            al.ids().map(stacl_trace::Regex::Sym),
        ));
        let every = Dfa::from_regex_with(&all, al.clone());
        for t in enumerate_traces(&every, 4, 10_000) {
            let direct = trace_satisfies(&t, c, &table, &oracle);
            let auto = d.accepts(&t);
            assert_eq!(direct, auto, "constraint {c} disagrees on trace {t}");
        }
    }

    #[test]
    fn true_false_agree() {
        agree_on_short_traces(&Constraint::True);
        agree_on_short_traces(&Constraint::False);
    }

    #[test]
    fn atom_agrees() {
        let (_, _, accs) = setup();
        agree_on_short_traces(&Constraint::Atom(accs[0].clone()));
    }

    #[test]
    fn ordered_agrees() {
        let (_, _, accs) = setup();
        agree_on_short_traces(&Constraint::ordered(accs[0].clone(), accs[1].clone()));
        agree_on_short_traces(&Constraint::ordered(accs[2].clone(), accs[2].clone()));
    }

    #[test]
    fn cardinality_agrees() {
        agree_on_short_traces(&Constraint::at_most(
            2,
            Selector::any().with_resources(["rsw"]),
        ));
        agree_on_short_traces(&Constraint::at_least(
            2,
            Selector::any().with_servers(["s1"]),
        ));
        agree_on_short_traces(&Constraint::Card {
            min: 1,
            max: Some(3),
            selector: Selector::any(),
        });
    }

    #[test]
    fn boolean_combinations_agree() {
        let (_, _, accs) = setup();
        let a0 = Constraint::Atom(accs[0].clone());
        let a1 = Constraint::Atom(accs[1].clone());
        agree_on_short_traces(&a0.clone().and(a1.clone()));
        agree_on_short_traces(&a0.clone().or(a1.clone()));
        agree_on_short_traces(&a0.clone().not());
        agree_on_short_traces(&a0.clone().implies(a1.clone()));
        agree_on_short_traces(
            &Constraint::ordered(accs[0].clone(), accs[1].clone())
                .and(Constraint::at_most(1, Selector::exact(&accs[2]))),
        );
    }

    #[test]
    fn atom_outside_alphabet_is_unsatisfiable() {
        let (table, al, _) = setup();
        let c = Constraint::atom("no", "such", "access");
        let d = compile(&c, &al, &table);
        assert!(d.is_empty());
        // But its negation is universal.
        let dn = compile(&c.not(), &al, &table);
        assert!(dn.accepts(&Trace::empty()));
    }

    #[test]
    fn counting_automaton_sizes() {
        let (table, al, _) = setup();
        let card = |min, max, selector| Constraint::Card { min, max, selector };
        let nothing = Selector::any().with_resources(["no-such-resource"]);
        for (c, states) in [
            // ≤5 of anything: 6 accepting counters + the overflow sink.
            (Constraint::at_most(5, Selector::any()), 7),
            // at_least(m) with unbounded max: counters 0..=m.
            (Constraint::at_least(3, Selector::any()), 4),
            (card(1, Some(3), Selector::any().with_servers(["s1"])), 5),
            // Degenerate shapes collapse to one state.
            (card(3, Some(2), Selector::any()), 1),
            (card(0, Some(2), nothing.clone()), 1),
            (card(1, None, nothing.clone()), 1),
        ] {
            let d = compile(&c, &al, &table);
            assert_eq!(d.num_states(), states, "{c}");
            // Minimal as built: a further pass removes nothing.
            assert_eq!(d.minimize().num_states(), states, "{c}");
        }
        // min > max accepts nothing; an unmatched selector counts 0.
        assert!(compile(&card(3, Some(2), Selector::any()), &al, &table).is_empty());
        let d = compile(&card(0, Some(2), nothing.clone()), &al, &table);
        assert!(d.accepts(&Trace::empty()) && d.accepts(&Trace::from_ids(al.ids())));
        assert!(compile(&card(1, None, nothing), &al, &table).is_empty());
    }

    #[test]
    fn checking_alphabet_extends() {
        let (mut table, al, _) = setup();
        let c = Constraint::atom("verify", "mod1", "s3");
        let bigger = checking_alphabet(&al, &c, &mut table);
        assert_eq!(bigger.len(), al.len() + 1);
        let id = table.id_of(&Access::new("verify", "mod1", "s3")).unwrap();
        assert!(bigger.index_of(id).is_some());
    }
}
