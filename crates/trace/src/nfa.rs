//! Nondeterministic finite automata over dense local symbols.
//!
//! NFAs are built from [`Regex`] by Thompson's
//! construction; the shuffle operator `#` is compiled by a product of the
//! two operand NFAs in which each input symbol advances *either* component
//! (interleaving preserves the relative order inside each operand, which is
//! exactly what the product does).
//!
//! Symbols are *local* alphabet indices (`u32`), mapped to global
//! [`AccessId`](crate::symbol::AccessId)s by an
//! [`Alphabet`].

use std::collections::{HashMap, VecDeque};

use crate::regex::Regex;
use crate::symbol::Alphabet;

/// One NFA state: ε-successors plus labelled successors.
#[derive(Clone, Default, Debug)]
struct State {
    eps: Vec<u32>,
    /// `(symbol, target)` pairs, unsorted.
    trans: Vec<(u32, u32)>,
}

/// A nondeterministic finite automaton with ε-transitions.
#[derive(Clone, Debug)]
pub struct Nfa {
    states: Vec<State>,
    /// The start state.
    pub start: u32,
    /// Acceptance flags, one per state.
    pub accept: Vec<bool>,
    /// Number of symbols in the (local) alphabet.
    pub alphabet_len: usize,
}

impl Nfa {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    fn new(alphabet_len: usize) -> Self {
        Nfa {
            states: Vec::new(),
            start: 0,
            accept: Vec::new(),
            alphabet_len,
        }
    }

    fn add_state(&mut self) -> u32 {
        let id = self.states.len() as u32;
        self.states.push(State::default());
        self.accept.push(false);
        id
    }

    fn add_eps(&mut self, from: u32, to: u32) {
        self.states[from as usize].eps.push(to);
    }

    fn add_trans(&mut self, from: u32, sym: u32, to: u32) {
        self.states[from as usize].trans.push((sym, to));
    }

    /// Build an NFA recognising `re`, with symbols resolved through `al`.
    /// Symbols of `re` absent from `al` panic — callers derive `al` from
    /// the regex (or a superset union alphabet).
    pub fn from_regex(re: &Regex, al: &Alphabet) -> Nfa {
        let mut nfa = Nfa::new(al.len());
        let (s, f) = build(&mut nfa, re, al);
        nfa.start = s;
        nfa.accept[f as usize] = true;
        nfa
    }

    /// ε-closure of a set of states (sorted, deduplicated).
    pub fn eps_closure(&self, set: &[u32]) -> Vec<u32> {
        let mut seen = vec![false; self.states.len()];
        let mut stack: Vec<u32> = Vec::with_capacity(set.len());
        for &s in set {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        let mut out = stack.clone();
        while let Some(s) = stack.pop() {
            for &t in &self.states[s as usize].eps {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// States reachable from `set` on `sym` (before ε-closure).
    pub fn step(&self, set: &[u32], sym: u32) -> Vec<u32> {
        let mut out = Vec::new();
        for &s in set {
            for &(x, t) in &self.states[s as usize].trans {
                if x == sym {
                    out.push(t);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Simulate the NFA on a word of local symbols.
    pub fn accepts(&self, word: &[u32]) -> bool {
        let mut cur = self.eps_closure(&[self.start]);
        for &sym in word {
            let next = self.step(&cur, sym);
            if next.is_empty() {
                return false;
            }
            cur = self.eps_closure(&next);
        }
        cur.iter().any(|&s| self.accept[s as usize])
    }

    /// The shuffle product of two NFAs over the *same* alphabet: accepts
    /// exactly the interleavings of words of `a` with words of `b`.
    pub fn shuffle(a: &Nfa, b: &Nfa, alphabet_len: usize) -> Nfa {
        assert_eq!(a.alphabet_len, alphabet_len);
        assert_eq!(b.alphabet_len, alphabet_len);
        let mut out = Nfa::new(alphabet_len);
        // Lazily explore reachable pairs.
        let mut index: HashMap<(u32, u32), u32> = HashMap::new();
        let mut queue = VecDeque::new();
        let start_pair = (a.start, b.start);
        let start = out.add_state();
        index.insert(start_pair, start);
        queue.push_back(start_pair);
        out.start = start;

        while let Some((qa, qb)) = queue.pop_front() {
            let id = index[&(qa, qb)];
            out.accept[id as usize] = a.accept[qa as usize] && b.accept[qb as usize];

            let get = |out: &mut Nfa,
                       index: &mut HashMap<(u32, u32), u32>,
                       queue: &mut VecDeque<(u32, u32)>,
                       pair: (u32, u32)| {
                *index.entry(pair).or_insert_with(|| {
                    let s = out.add_state();
                    queue.push_back(pair);
                    s
                })
            };

            // ε-moves of either component.
            for &ta in &a.states[qa as usize].eps {
                let t = get(&mut out, &mut index, &mut queue, (ta, qb));
                out.add_eps(id, t);
            }
            for &tb in &b.states[qb as usize].eps {
                let t = get(&mut out, &mut index, &mut queue, (qa, tb));
                out.add_eps(id, t);
            }
            // Symbol moves of either component.
            for &(sym, ta) in &a.states[qa as usize].trans {
                let t = get(&mut out, &mut index, &mut queue, (ta, qb));
                out.add_trans(id, sym, t);
            }
            for &(sym, tb) in &b.states[qb as usize].trans {
                let t = get(&mut out, &mut index, &mut queue, (qa, tb));
                out.add_trans(id, sym, t);
            }
        }
        out
    }
}

/// Thompson construction: returns `(start, accept)` fragment states.
fn build(nfa: &mut Nfa, re: &Regex, al: &Alphabet) -> (u32, u32) {
    match re {
        Regex::Empty => {
            let s = nfa.add_state();
            let f = nfa.add_state();
            // No transition: f unreachable.
            (s, f)
        }
        Regex::Eps => {
            let s = nfa.add_state();
            let f = nfa.add_state();
            nfa.add_eps(s, f);
            (s, f)
        }
        Regex::Sym(a) => {
            let sym = al.index_of(*a).expect("regex symbol missing from alphabet");
            let s = nfa.add_state();
            let f = nfa.add_state();
            nfa.add_trans(s, sym, f);
            (s, f)
        }
        Regex::Alt(a, b) => {
            let (sa, fa) = build(nfa, a, al);
            let (sb, fb) = build(nfa, b, al);
            let s = nfa.add_state();
            let f = nfa.add_state();
            nfa.add_eps(s, sa);
            nfa.add_eps(s, sb);
            nfa.add_eps(fa, f);
            nfa.add_eps(fb, f);
            (s, f)
        }
        Regex::Cat(a, b) => {
            let (sa, fa) = build(nfa, a, al);
            let (sb, fb) = build(nfa, b, al);
            nfa.add_eps(fa, sb);
            (sa, fb)
        }
        Regex::Star(a) => {
            let (sa, fa) = build(nfa, a, al);
            let s = nfa.add_state();
            let f = nfa.add_state();
            nfa.add_eps(s, sa);
            nfa.add_eps(s, f);
            nfa.add_eps(fa, sa);
            nfa.add_eps(fa, f);
            (s, f)
        }
        Regex::Shuffle(a, b) => {
            // Compile both operands as standalone NFAs over the same
            // alphabet and take the shuffle product, then graft the result
            // into `nfa` with a fresh accept state.
            let na = Nfa::from_regex(a, al);
            let nb = Nfa::from_regex(b, al);
            let prod = Nfa::shuffle(&na, &nb, al.len());
            // Graft: renumber product states into `nfa`.
            let base = nfa.states.len() as u32;
            for st in &prod.states {
                let id = nfa.add_state();
                let _ = id;
                let new_id = (nfa.states.len() - 1) as u32;
                debug_assert_eq!(new_id, base + (new_id - base));
                // Copy transitions with offset below (after all states exist).
                let _ = st;
            }
            // Second pass: copy transitions now that all states exist.
            for (i, st) in prod.states.iter().enumerate() {
                let from = base + i as u32;
                for &t in &st.eps {
                    nfa.add_eps(from, base + t);
                }
                for &(sym, t) in &st.trans {
                    nfa.add_trans(from, sym, base + t);
                }
            }
            let f = nfa.add_state();
            for (i, &acc) in prod.accept.iter().enumerate() {
                if acc {
                    nfa.add_eps(base + i as u32, f);
                }
            }
            (base + prod.start, f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::AccessId;

    fn sym(i: u32) -> Regex {
        Regex::Sym(AccessId(i))
    }

    fn nfa_for(re: &Regex) -> (Nfa, Alphabet) {
        let al = re.alphabet();
        (Nfa::from_regex(re, &al), al)
    }

    /// Convert global-symbol word to local indices for `accepts`.
    fn w(al: &Alphabet, ids: &[u32]) -> Vec<u32> {
        ids.iter()
            .map(|&i| al.index_of(AccessId(i)).unwrap())
            .collect()
    }

    #[test]
    fn single_symbol() {
        let (n, al) = nfa_for(&sym(0));
        assert!(n.accepts(&w(&al, &[0])));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn empty_accepts_nothing() {
        let (n, _) = nfa_for(&Regex::Empty);
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn eps_accepts_only_empty() {
        let (n, _) = nfa_for(&Regex::Eps);
        assert!(n.accepts(&[]));
    }

    #[test]
    fn cat_and_alt() {
        let re = Regex::cat(sym(0), Regex::alt(sym(1), sym(2)));
        let (n, al) = nfa_for(&re);
        assert!(n.accepts(&w(&al, &[0, 1])));
        assert!(n.accepts(&w(&al, &[0, 2])));
        assert!(!n.accepts(&w(&al, &[0])));
        assert!(!n.accepts(&w(&al, &[1, 0])));
    }

    #[test]
    fn star_iterates() {
        let re = Regex::star(sym(0));
        let (n, al) = nfa_for(&re);
        assert!(n.accepts(&[]));
        assert!(n.accepts(&w(&al, &[0])));
        assert!(n.accepts(&w(&al, &[0, 0, 0, 0])));
    }

    #[test]
    fn shuffle_accepts_all_interleavings() {
        // (0·1) # (2) — three interleavings, nothing else.
        let re = Regex::shuffle(Regex::cat(sym(0), sym(1)), sym(2));
        let (n, al) = nfa_for(&re);
        assert!(n.accepts(&w(&al, &[2, 0, 1])));
        assert!(n.accepts(&w(&al, &[0, 2, 1])));
        assert!(n.accepts(&w(&al, &[0, 1, 2])));
        assert!(!n.accepts(&w(&al, &[1, 0, 2])));
        assert!(!n.accepts(&w(&al, &[0, 1])));
        assert!(!n.accepts(&w(&al, &[0, 1, 2, 2])));
    }

    #[test]
    fn shuffle_with_star() {
        // 0* # 1 — any number of 0s with exactly one 1 anywhere.
        let re = Regex::shuffle(Regex::star(sym(0)), sym(1));
        let (n, al) = nfa_for(&re);
        assert!(n.accepts(&w(&al, &[1])));
        assert!(n.accepts(&w(&al, &[0, 1, 0, 0])));
        assert!(!n.accepts(&w(&al, &[0, 0])));
        assert!(!n.accepts(&w(&al, &[1, 1])));
    }

    #[test]
    fn nested_shuffle() {
        // (0 # 1) # 2 — all permutations of {0,1,2}.
        let re = Regex::shuffle(Regex::shuffle(sym(0), sym(1)), sym(2));
        let (n, al) = nfa_for(&re);
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            assert!(n.accepts(&w(&al, &perm)), "{perm:?}");
        }
        assert!(!n.accepts(&w(&al, &[0, 1])));
    }

    #[test]
    fn eps_closure_is_sorted_and_deduped() {
        let re = Regex::alt(Regex::Eps, Regex::alt(Regex::Eps, Regex::Eps));
        let (n, _) = nfa_for(&re);
        let cl = n.eps_closure(&[n.start]);
        let mut sorted = cl.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cl, sorted);
    }
}
