//! Deterministic finite automata: the workhorse of symbolic trace-model
//! reasoning.
//!
//! DFAs here are *complete* (every state has a transition on every symbol;
//! a dead sink absorbs rejected prefixes), which makes complementation a
//! flag flip and products total. The module provides subset construction,
//! Hopcroft minimisation, boolean products, emptiness with shortest
//! witnesses, and language equivalence — everything Theorem 3.2's
//! satisfaction checking and Theorem 3.1's round-trip validation need.

use std::collections::VecDeque;

use crate::nfa::Nfa;
use crate::regex::Regex;
use crate::symbol::Alphabet;
use crate::trace::Trace;
use stacl_ids::hash::FnvHashMap;

/// How to combine acceptance in a product construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProductMode {
    /// Intersection: both accept.
    And,
    /// Union: either accepts.
    Or,
    /// Difference: left accepts, right does not.
    Diff,
    /// Symmetric difference: exactly one accepts.
    Xor,
}

impl ProductMode {
    fn combine(self, a: bool, b: bool) -> bool {
        match self {
            ProductMode::And => a && b,
            ProductMode::Or => a || b,
            ProductMode::Diff => a && !b,
            ProductMode::Xor => a != b,
        }
    }
}

/// A complete deterministic finite automaton over a local alphabet.
#[derive(Clone, Debug)]
pub struct Dfa {
    /// Maps local symbol indices to global [`AccessId`](crate::symbol::AccessId)s.
    pub alphabet: Alphabet,
    /// Row-major transition table: `trans[state * k + sym]`.
    trans: Vec<u32>,
    /// The start state.
    pub start: u32,
    /// Acceptance flags.
    pub accept: Vec<bool>,
}

impl Dfa {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }

    /// Number of symbols.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet.len()
    }

    /// The successor of `state` on local symbol `sym`.
    #[inline]
    pub fn next(&self, state: u32, sym: u32) -> u32 {
        self.trans[state as usize * self.alphabet.len() + sym as usize]
    }

    /// Whether `state` is accepting.
    #[inline]
    pub fn is_accepting(&self, state: u32) -> bool {
        self.accept[state as usize]
    }

    /// Build a DFA from raw parts. `trans` must be row-major with
    /// `accept.len() * alphabet.len()` in-range entries; the automaton must
    /// be complete. Panics on malformed input.
    pub fn from_parts(alphabet: Alphabet, trans: Vec<u32>, start: u32, accept: Vec<bool>) -> Dfa {
        let n = accept.len();
        let k = alphabet.len();
        assert_eq!(trans.len(), n * k, "transition table has wrong shape");
        assert!((start as usize) < n, "start state out of range");
        assert!(
            trans.iter().all(|&t| (t as usize) < n),
            "transition target out of range"
        );
        Dfa {
            alphabet,
            trans,
            start,
            accept,
        }
    }

    /// Determinise `nfa` by subset construction. `alphabet` supplies the
    /// symbol mapping (must match the NFA's `alphabet_len`).
    pub fn from_nfa(nfa: &Nfa, alphabet: Alphabet) -> Dfa {
        assert_eq!(nfa.alphabet_len, alphabet.len());
        let k = alphabet.len();
        let mut index: FnvHashMap<Vec<u32>, u32> = FnvHashMap::default();
        let mut trans: Vec<u32> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut queue: VecDeque<Vec<u32>> = VecDeque::new();

        let start_set = nfa.eps_closure(&[nfa.start]);
        index.insert(start_set.clone(), 0);
        accept.push(start_set.iter().any(|&s| nfa.accept[s as usize]));
        trans.resize(k, u32::MAX);
        queue.push_back(start_set);

        while let Some(set) = queue.pop_front() {
            let id = index[&set];
            for sym in 0..k as u32 {
                let moved = nfa.step(&set, sym);
                let closed = nfa.eps_closure(&moved);
                let next_id = match index.get(&closed) {
                    Some(&i) => i,
                    None => {
                        let i = accept.len() as u32;
                        index.insert(closed.clone(), i);
                        accept.push(closed.iter().any(|&s| nfa.accept[s as usize]));
                        trans.resize(trans.len() + k, u32::MAX);
                        queue.push_back(closed);
                        i
                    }
                };
                trans[id as usize * k + sym as usize] = next_id;
            }
        }
        debug_assert!(trans.iter().all(|&t| t != u32::MAX));
        Dfa {
            alphabet,
            trans,
            start: 0,
            accept,
        }
    }

    /// Build directly from a regex, over the regex's own alphabet.
    pub fn from_regex(re: &Regex) -> Dfa {
        let al = re.alphabet();
        Dfa::from_regex_with(re, al)
    }

    /// Build from a regex over a caller-supplied (superset) alphabet —
    /// required when two automata must share symbol indices.
    pub fn from_regex_with(re: &Regex, alphabet: Alphabet) -> Dfa {
        let nfa = Nfa::from_regex(re, &alphabet);
        Dfa::from_nfa(&nfa, alphabet).minimize()
    }

    /// Run the DFA on a word of local symbols.
    pub fn accepts_local(&self, word: &[u32]) -> bool {
        let mut s = self.start;
        for &sym in word {
            s = self.next(s, sym);
        }
        self.accept[s as usize]
    }

    /// Run the DFA on a trace of global ids. Ids outside the alphabet make
    /// the trace rejected (they can never be produced by the modelled
    /// program).
    pub fn accepts(&self, trace: &Trace) -> bool {
        let mut s = self.start;
        for &id in &trace.0 {
            match self.alphabet.index_of(id) {
                Some(sym) => s = self.next(s, sym),
                None => return false,
            }
        }
        self.accept[s as usize]
    }

    /// Complement: flip acceptance (valid because the DFA is complete).
    /// Note the complement is relative to the DFA's own alphabet.
    pub fn complement(&self) -> Dfa {
        let mut out = self.clone();
        for a in &mut out.accept {
            *a = !*a;
        }
        out
    }

    /// Rebuild this DFA over the (superset) alphabet `to`. Symbols new to
    /// this automaton lead to a dead state.
    pub fn reindex(&self, to: &Alphabet) -> Dfa {
        let k_new = to.len();
        let n = self.num_states();
        // One extra dead state at index n.
        let dead = n as u32;
        let mut trans = vec![dead; (n + 1) * k_new];
        for state in 0..n {
            for new_sym in 0..k_new as u32 {
                let id = to.id_at(new_sym);
                if let Some(old_sym) = self.alphabet.index_of(id) {
                    trans[state * k_new + new_sym as usize] = self.next(state as u32, old_sym);
                }
            }
        }
        let mut accept = self.accept.clone();
        accept.push(false);
        Dfa {
            alphabet: to.clone(),
            trans,
            start: self.start,
            accept,
        }
    }

    /// Product construction over a shared alphabet. Panics when alphabets
    /// differ — reindex both to the union first.
    pub fn product(&self, other: &Dfa, mode: ProductMode) -> Dfa {
        self.product_from(self.start, other, other.start, mode)
    }

    /// [`Dfa::product`] started from an arbitrary state pair instead of
    /// the two start states — the incremental-cursor primitive: a cursor
    /// holds the constraint automaton's state after the proven history,
    /// and `prog.product_from(prog.start, cons, cursor_state, Diff)` is
    /// then exactly the residual `L(A_P ∩ ¬A_C)` emptiness problem
    /// without re-walking the history or cloning the automaton. Only the
    /// part reachable from `(self_start, other_start)` is built.
    pub fn product_from(
        &self,
        self_start: u32,
        other: &Dfa,
        other_start: u32,
        mode: ProductMode,
    ) -> Dfa {
        assert_eq!(
            self.alphabet, other.alphabet,
            "product requires a shared alphabet; reindex first"
        );
        assert!((self_start as usize) < self.num_states());
        assert!((other_start as usize) < other.num_states());
        let k = self.alphabet.len();
        let mut index: FnvHashMap<(u32, u32), u32> = FnvHashMap::default();
        let mut trans: Vec<u32> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut queue = VecDeque::new();

        let start = (self_start, other_start);
        index.insert(start, 0);
        accept.push(mode.combine(
            self.accept[self_start as usize],
            other.accept[other_start as usize],
        ));
        trans.resize(k, u32::MAX);
        queue.push_back(start);

        while let Some((qa, qb)) = queue.pop_front() {
            let id = index[&(qa, qb)];
            for sym in 0..k as u32 {
                let pair = (self.next(qa, sym), other.next(qb, sym));
                let next_id =
                    match index.get(&pair) {
                        Some(&i) => i,
                        None => {
                            let i = accept.len() as u32;
                            index.insert(pair, i);
                            accept.push(mode.combine(
                                self.accept[pair.0 as usize],
                                other.accept[pair.1 as usize],
                            ));
                            trans.resize(trans.len() + k, u32::MAX);
                            queue.push_back(pair);
                            i
                        }
                    };
                trans[id as usize * k + sym as usize] = next_id;
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            trans,
            start: 0,
            accept,
        }
    }

    /// True when the language is empty.
    pub fn is_empty(&self) -> bool {
        self.shortest_accepted_local().is_none()
    }

    /// Shortest accepted word (local symbols), by BFS from the start state.
    pub fn shortest_accepted_local(&self) -> Option<Vec<u32>> {
        let n = self.num_states();
        let k = self.alphabet.len();
        let mut pred: Vec<Option<(u32, u32)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[self.start as usize] = true;
        queue.push_back(self.start);
        let mut hit: Option<u32> = None;
        if self.accept[self.start as usize] {
            hit = Some(self.start);
        }
        'bfs: while let Some(s) = queue.pop_front() {
            if hit.is_some() {
                break;
            }
            for sym in 0..k as u32 {
                let t = self.next(s, sym);
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    pred[t as usize] = Some((s, sym));
                    if self.accept[t as usize] {
                        hit = Some(t);
                        break 'bfs;
                    }
                    queue.push_back(t);
                }
            }
        }
        let mut state = hit?;
        let mut word = Vec::new();
        while let Some((p, sym)) = pred[state as usize] {
            word.push(sym);
            state = p;
        }
        word.reverse();
        Some(word)
    }

    /// Shortest accepted trace, rendered as global ids.
    pub fn shortest_accepted(&self) -> Option<Trace> {
        self.shortest_accepted_local()
            .map(|w| Trace::from_ids(w.into_iter().map(|sym| self.alphabet.id_at(sym))))
    }

    /// Hopcroft's partition-refinement minimisation, O(k·n·log n) on a
    /// refinable partition. Unreachable states are dropped first; the
    /// result is the minimal complete DFA, with its states in no
    /// particular order. Callers that need one numbering per language
    /// (hash-consing) follow with [`Dfa::canonicalize`].
    pub fn minimize(&self) -> Dfa {
        let k = self.alphabet.len();
        // 1. Restrict to reachable states.
        let n_all = self.num_states();
        let mut reach_map = vec![u32::MAX; n_all];
        let mut order: Vec<u32> = Vec::new();
        {
            let mut queue = VecDeque::new();
            reach_map[self.start as usize] = 0;
            order.push(self.start);
            queue.push_back(self.start);
            while let Some(s) = queue.pop_front() {
                for sym in 0..k as u32 {
                    let t = self.next(s, sym);
                    if reach_map[t as usize] == u32::MAX {
                        reach_map[t as usize] = order.len() as u32;
                        order.push(t);
                        queue.push_back(t);
                    }
                }
            }
        }
        let n = order.len();
        // Dense reachable automaton.
        let mut trans = vec![0u32; n * k];
        let mut accept = vec![false; n];
        for (new_s, &old_s) in order.iter().enumerate() {
            accept[new_s] = self.accept[old_s as usize];
            for sym in 0..k {
                trans[new_s * k + sym] = reach_map[self.next(old_s, sym as u32) as usize];
            }
        }

        if n == 0 {
            return self.clone();
        }

        // 2. Hopcroft refinement on a refinable partition (Valmari &
        // Lehtinen, STACS 2008): `elems` lists the states with every
        // block contiguous at `first[b]..end[b]`, `loc[s]` is state s's
        // position in `elems` and `block[s]` its block id. The states of
        // block b marked by the current splitter sit at `first[b]..mid[b]`.
        // Initial blocks: accepting states, then rejecting ones.
        let mut elems: Vec<u32> = Vec::with_capacity(n);
        elems.extend((0..n as u32).filter(|&s| accept[s as usize]));
        let n_acc = elems.len() as u32;
        elems.extend((0..n as u32).filter(|&s| !accept[s as usize]));
        let mut loc = vec![0u32; n];
        for (at, &s) in elems.iter().enumerate() {
            loc[s as usize] = at as u32;
        }
        let mut block = vec![0u32; n];
        let (mut first, mut end): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        for (lo, hi) in [(0, n_acc), (n_acc, n as u32)] {
            if lo < hi {
                for &s in &elems[lo as usize..hi as usize] {
                    block[s as usize] = first.len() as u32;
                }
                first.push(lo);
                end.push(hi);
            }
        }
        let mut mid = first.clone();

        // Reverse transitions in CSR layout: for bucket `i = sym * n + t`,
        // `rev[rev_off[i]..rev_off[i + 1]]` lists the states s with
        // trans(s, sym) = t. A `Vec<Vec<Vec<u32>>>` here would allocate
        // k × n vectors — ruinous for large (identity-mapped) alphabets —
        // while CSR is two flat arrays filled in two passes.
        let mut rev_off = vec![0u32; k * n + 1];
        for s in 0..n {
            for sym in 0..k {
                rev_off[sym * n + trans[s * k + sym] as usize + 1] += 1;
            }
        }
        for i in 0..k * n {
            rev_off[i + 1] += rev_off[i];
        }
        let mut rev = vec![0u32; n * k];
        {
            let mut cursor: Vec<u32> = rev_off[..k * n].to_vec();
            for s in 0..n {
                for sym in 0..k {
                    let bucket = sym * n + trans[s * k + sym] as usize;
                    rev[cursor[bucket] as usize] = s as u32;
                    cursor[bucket] += 1;
                }
            }
        }
        let rev_of = |sym: usize, t: usize| {
            let i = sym * n + t;
            &rev[rev_off[i] as usize..rev_off[i + 1] as usize]
        };

        // Worklist of (block id, symbol), seeded per Hopcroft with only
        // the *smaller* of the two initial partitions: refining against
        // min(F, Q∖F) on every symbol already distinguishes everything
        // refining against both would (the classic worklist invariant),
        // and the split step below keeps the invariant by leaving the
        // larger half under the old id — pending entries keep referring
        // to it — while enqueuing the smaller half.
        let mut worklist: VecDeque<(u32, u32)> = VecDeque::new();
        let seed = if first.len() == 2 && end[1] - first[1] < end[0] - first[0] {
            1u32
        } else {
            0u32
        };
        for sym in 0..k as u32 {
            worklist.push_back((seed, sym));
        }

        // Scratch reused across pops: the splitter's preimage X, and the
        // blocks X marked, in first-marked order.
        let mut x: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        while let Some((b_id, sym)) = worklist.pop_front() {
            // X = preimage of block b under sym, gathered before marking:
            // marking permutes `elems`, possibly inside b itself. States
            // are deterministic, so X has no duplicates.
            x.clear();
            let b = b_id as usize;
            for &t in &elems[first[b] as usize..end[b] as usize] {
                x.extend_from_slice(rev_of(sym as usize, t as usize));
            }
            // Mark X: swap each state to its block's marked prefix.
            for &s in &x {
                let y = block[s as usize] as usize;
                let (at, m) = (loc[s as usize], mid[y]);
                if m == first[y] {
                    touched.push(y as u32);
                }
                let other = elems[m as usize];
                elems.swap(at as usize, m as usize);
                loc[s as usize] = m;
                loc[other as usize] = at;
                mid[y] += 1;
            }
            // Split every touched block Y into (Y ∩ X) and (Y \ X). The
            // larger part keeps the old id (Hopcroft's trick); only the
            // smaller part is relabelled and enqueued.
            for y in touched.drain(..) {
                let y = y as usize;
                let (lo, m, hi) = (first[y], mid[y], end[y]);
                if m == hi {
                    mid[y] = lo;
                    continue; // Y ⊆ X: no split.
                }
                let new_id = first.len() as u32;
                let (new_lo, new_hi) = if m - lo <= hi - m {
                    first[y] = m;
                    (lo, m)
                } else {
                    end[y] = m;
                    (m, hi)
                };
                mid[y] = first[y];
                first.push(new_lo);
                end.push(new_hi);
                mid.push(new_lo);
                for &s in &elems[new_lo as usize..new_hi as usize] {
                    block[s as usize] = new_id;
                }
                for sym2 in 0..k as u32 {
                    worklist.push_back((new_id, sym2));
                }
            }
        }

        // 3. Build the quotient automaton.
        let m = first.len();
        let mut q_trans = vec![0u32; m * k];
        let mut q_accept = vec![false; m];
        for b_id in 0..m {
            let rep = elems[first[b_id] as usize] as usize;
            q_accept[b_id] = accept[rep];
            for sym in 0..k {
                q_trans[b_id * k + sym] = block[trans[rep * k + sym] as usize];
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            trans: q_trans,
            start: block[0], // reachable-state 0 is the original start.
            accept: q_accept,
        }
    }

    /// The raw row-major transition table (`trans[state * k + sym]`).
    /// Exposed read-only so batch cursor banks can advance many automata
    /// in a flat loop without per-step method dispatch.
    #[inline]
    pub fn transitions(&self) -> &[u32] {
        &self.trans
    }

    /// Renumber states by breadth-first discovery order from the start
    /// state, exploring symbols in index order, and drop unreachable
    /// states. A *minimal* DFA is unique up to state renaming, and BFS
    /// discovery order is itself determined by the transition structure —
    /// so two minimal automata recognise the same language over the same
    /// alphabet **iff** their canonical forms are structurally identical.
    /// That equivalence is what [`Dfa::structural_hash`] hash-consing
    /// rests on.
    pub fn canonicalize(&self) -> Dfa {
        let n = self.num_states();
        let k = self.alphabet.len();
        let mut map = vec![u32::MAX; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        map[self.start as usize] = 0;
        order.push(self.start);
        let mut head = 0;
        while head < order.len() {
            let s = order[head];
            head += 1;
            for sym in 0..k as u32 {
                let t = self.next(s, sym);
                if map[t as usize] == u32::MAX {
                    map[t as usize] = order.len() as u32;
                    order.push(t);
                }
            }
        }
        let m = order.len();
        let mut trans = vec![0u32; m * k];
        let mut accept = vec![false; m];
        for (new_s, &old_s) in order.iter().enumerate() {
            accept[new_s] = self.accept[old_s as usize];
            for sym in 0..k {
                trans[new_s * k + sym] = map[self.next(old_s, sym as u32) as usize];
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            trans,
            start: 0,
            accept,
        }
    }

    /// FNV-1a hash of the automaton's exact structure: alphabet ids,
    /// start state, acceptance flags and transition table. Equal
    /// structures hash equal; on [canonical](Dfa::canonicalize) minimal
    /// automata the hash is therefore a language fingerprint (modulo
    /// collisions, which [`Dfa::same_structure`] resolves).
    pub fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = stacl_ids::hash::FnvHasher::default();
        for id in self.alphabet.ids() {
            id.0.hash(&mut h);
        }
        self.start.hash(&mut h);
        self.accept.hash(&mut h);
        self.trans.hash(&mut h);
        h.finish()
    }

    /// Exact structural equality: same alphabet (ids in the same order),
    /// start, acceptance and transitions. On canonical minimal automata
    /// this *is* language equality over that alphabet.
    pub fn same_structure(&self, other: &Dfa) -> bool {
        self.start == other.start
            && self.accept == other.accept
            && self.trans == other.trans
            && self.alphabet == other.alphabet
    }

    /// Shortest word accepted by the *mapped* product of `self` (stepped
    /// on its own symbols, from `self_start`) and `other` (stepped on
    /// `map[sym]`, from `other_start`), combining acceptance with `mode`.
    /// Returns the word in `self`-local symbols, or `None` when the
    /// product language is empty.
    ///
    /// `map` must translate every `self` symbol to an `other` symbol —
    /// the compressed-alphabet bridge: `self` is a program automaton over
    /// the full-table alphabet, `other` a constraint automaton over its
    /// symbol-class representatives, and `map` the global-id → class
    /// table. Because every id in a class acts identically on the
    /// constraint, this explores exactly the reachable part of the
    /// product `self × reindex(other)` would — without ever materialising
    /// either the reindexed automaton or the product transition table,
    /// and stopping at the first (BFS-shortest) accepting pair.
    pub fn product_shortest_mapped(
        &self,
        self_start: u32,
        other: &Dfa,
        other_start: u32,
        mode: ProductMode,
        map: &[u32],
    ) -> Option<Vec<u32>> {
        assert_eq!(
            map.len(),
            self.alphabet.len(),
            "symbol map must cover the left alphabet"
        );
        debug_assert!(map
            .iter()
            .all(|&m| (m as usize) < other.alphabet_len().max(1)));
        assert!((self_start as usize) < self.num_states());
        assert!((other_start as usize) < other.num_states());
        let k = self.alphabet.len();
        let start = (self_start, other_start);
        if mode.combine(
            self.accept[self_start as usize],
            other.accept[other_start as usize],
        ) {
            return Some(Vec::new());
        }
        // In `And`/`Diff` mode an accepted pair needs an accepting left
        // state, so pairs whose left state is dead are never explored.
        // A dead state only leads to dead states, so the pairs that are
        // explored keep their BFS order and the witness is unchanged.
        let live = match mode {
            ProductMode::And | ProductMode::Diff => self.live_states(),
            ProductMode::Or | ProductMode::Xor => None,
        };
        let is_live = |q: u32| live.as_ref().is_none_or(|l| l[q as usize]);
        if !is_live(self_start) {
            return None;
        }
        let mut index: FnvHashMap<(u32, u32), u32> = FnvHashMap::default();
        let mut pairs: Vec<(u32, u32)> = vec![start];
        // pred[i] = (parent index, symbol taken); u32::MAX marks the root.
        let mut pred: Vec<(u32, u32)> = vec![(u32::MAX, 0)];
        index.insert(start, 0);
        let mut head = 0usize;
        while head < pairs.len() {
            let (qa, qb) = pairs[head];
            for sym in 0..k as u32 {
                let pair = (self.next(qa, sym), other.next(qb, map[sym as usize]));
                if !is_live(pair.0) || index.contains_key(&pair) {
                    continue;
                }
                index.insert(pair, pairs.len() as u32);
                if mode.combine(self.accept[pair.0 as usize], other.accept[pair.1 as usize]) {
                    let mut word = vec![sym];
                    let mut at = head as u32;
                    while pred[at as usize].0 != u32::MAX {
                        word.push(pred[at as usize].1);
                        at = pred[at as usize].0;
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

    /// Which states can still reach an accepting state, by one backward
    /// search from the accepting states; `None` when the automaton has no
    /// rejecting sink. Every dead region of a complete DFA is closed
    /// under transitions, and in a minimal one it is a single rejecting
    /// sink — so without a sink the search is skipped and nothing is marked
    /// dead, which only forgoes pruning and is always sound.
    fn live_states(&self) -> Option<Vec<bool>> {
        let n = self.num_states();
        let k = self.alphabet.len();
        let is_sink = |s: usize| {
            !self.accept[s]
                && self.trans[s * k..(s + 1) * k]
                    .iter()
                    .all(|&t| t as usize == s)
        };
        if !(0..n).any(is_sink) {
            return None;
        }
        // Predecessor lists in CSR layout, symbols dropped: count, take
        // inclusive prefix sums, then fill each bucket from its end so
        // that `pred_off[t]` finishes at the bucket's start.
        let mut pred_off = vec![0u32; n + 1];
        for &t in &self.trans {
            pred_off[t as usize] += 1;
        }
        for i in 1..=n {
            pred_off[i] += pred_off[i - 1];
        }
        let mut preds = vec![0u32; n * k];
        for (i, &t) in self.trans.iter().enumerate() {
            pred_off[t as usize] -= 1;
            preds[pred_off[t as usize] as usize] = (i / k) as u32;
        }
        let mut live = self.accept.clone();
        let mut stack: Vec<u32> = (0..n as u32).filter(|&s| live[s as usize]).collect();
        while let Some(t) = stack.pop() {
            let t = t as usize;
            for &s in &preds[pred_off[t] as usize..pred_off[t + 1] as usize] {
                if !live[s as usize] {
                    live[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        Some(live)
    }

    /// Language equivalence via symmetric-difference emptiness, after
    /// reindexing both automata over the union alphabet.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        let union = self.alphabet.union(&other.alphabet);
        let a = self.reindex(&union);
        let b = other.reindex(&union);
        a.product(&b, ProductMode::Xor).is_empty()
    }

    /// Language containment `self ⊆ other` (over the union alphabet).
    pub fn subset_of(&self, other: &Dfa) -> bool {
        let union = self.alphabet.union(&other.alphabet);
        let a = self.reindex(&union);
        let b = other.reindex(&union);
        a.product(&b, ProductMode::Diff).is_empty()
    }

    /// A trace accepted by `self` but not `other`, if any — the witness for
    /// a containment failure.
    pub fn witness_not_subset(&self, other: &Dfa) -> Option<Trace> {
        let union = self.alphabet.union(&other.alphabet);
        let a = self.reindex(&union);
        let b = other.reindex(&union);
        a.product(&b, ProductMode::Diff).shortest_accepted()
    }

    /// Convenience: are two regexes language-equal?
    pub fn equivalent_regexes(a: &Regex, b: &Regex) -> bool {
        let union = a.alphabet().union(&b.alphabet());
        let da = Dfa::from_regex_with(a, union.clone());
        let db = Dfa::from_regex_with(b, union);
        da.product(&db, ProductMode::Xor).is_empty()
    }
}

/// Build a DFA accepting exactly the given finite set of traces — useful
/// in tests and for compiling history prefixes.
pub fn dfa_of_traces(traces: &[Trace], alphabet: Alphabet) -> Dfa {
    let re = Regex::alt_all(
        traces
            .iter()
            .map(|t| Regex::cat_all(t.0.iter().map(|&id| Regex::Sym(id)))),
    );
    Dfa::from_regex_with(&re, alphabet)
}

/// The derivative DFA: `self` with its start state advanced by `prefix`.
/// Returns `None` when the prefix mentions an unknown symbol (in which case
/// the residual language is empty).
pub fn advance(dfa: &Dfa, prefix: &Trace) -> Option<Dfa> {
    let mut s = dfa.start;
    for &id in &prefix.0 {
        let sym = dfa.alphabet.index_of(id)?;
        s = dfa.next(s, sym);
    }
    let mut out = dfa.clone();
    out.start = s;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::AccessId;

    fn sym(i: u32) -> Regex {
        Regex::Sym(AccessId(i))
    }

    fn t(v: &[u32]) -> Trace {
        Trace::from_ids(v.iter().map(|&i| AccessId(i)))
    }

    #[test]
    fn subset_construction_accepts() {
        let re = Regex::cat(sym(0), Regex::star(sym(1)));
        let d = Dfa::from_regex(&re);
        assert!(d.accepts(&t(&[0])));
        assert!(d.accepts(&t(&[0, 1, 1])));
        assert!(!d.accepts(&t(&[1])));
        assert!(!d.accepts(&t(&[])));
    }

    #[test]
    fn unknown_symbols_reject() {
        let d = Dfa::from_regex(&sym(0));
        assert!(!d.accepts(&t(&[7])));
    }

    #[test]
    fn complement_flips() {
        let d = Dfa::from_regex(&sym(0));
        let c = d.complement();
        assert!(c.accepts(&t(&[])));
        assert!(!c.accepts(&t(&[0])));
        assert!(c.accepts(&t(&[0, 0])));
    }

    #[test]
    fn minimization_canonicalises() {
        // (0 ∪ 0·0*·0?) style redundancy: a* built two ways.
        let a = Regex::star(sym(0));
        let b = Regex::alt(Regex::Eps, Regex::cat(sym(0), Regex::star(sym(0))));
        let da = Dfa::from_regex(&a);
        let db = Dfa::from_regex(&b);
        assert_eq!(da.num_states(), db.num_states());
        assert!(da.equivalent(&db));
    }

    #[test]
    fn minimal_star_has_one_state() {
        // 0* over alphabet {0}: a single accepting state suffices.
        let d = Dfa::from_regex(&Regex::star(sym(0)));
        assert_eq!(d.num_states(), 1);
        assert!(d.accept[d.start as usize]);
    }

    #[test]
    fn product_modes() {
        let union = Regex::alt(sym(0), sym(1)).alphabet();
        let d0 = Dfa::from_regex_with(&sym(0), union.clone());
        let d1 = Dfa::from_regex_with(&sym(1), union.clone());
        assert!(d0.product(&d1, ProductMode::And).is_empty());
        let or = d0.product(&d1, ProductMode::Or);
        assert!(or.accepts(&t(&[0])));
        assert!(or.accepts(&t(&[1])));
        assert!(!or.accepts(&t(&[0, 1])));
        let diff = d0.product(&d1, ProductMode::Diff);
        assert!(diff.accepts(&t(&[0])));
        assert!(!diff.accepts(&t(&[1])));
    }

    #[test]
    fn product_from_advanced_state_equals_advance_then_product() {
        // Residual emptiness two ways: clone-and-advance the constraint
        // automaton (the slow path) vs. starting the product at the
        // advanced state pair (the cursor fast path).
        let union = Regex::alt(sym(0), sym(1)).alphabet();
        // Constraint: at most two 0s (as a DFA over {0,1}).
        let cons = Dfa::from_regex_with(
            &Regex::cat(
                Regex::star(sym(1)),
                Regex::alt(
                    Regex::Eps,
                    Regex::cat(
                        sym(0),
                        Regex::cat(
                            Regex::star(sym(1)),
                            Regex::alt(Regex::Eps, Regex::cat(sym(0), Regex::star(sym(1)))),
                        ),
                    ),
                ),
            ),
            union.clone(),
        );
        for history in [t(&[]), t(&[0]), t(&[0, 1, 0]), t(&[0, 0, 0])] {
            // Fast path: fold the history into a state.
            let mut state = cons.start;
            for &id in &history.0 {
                state = cons.next(state, cons.alphabet.index_of(id).unwrap());
            }
            for prog_re in [sym(0), sym(1), Regex::cat(sym(0), sym(0))] {
                let prog = Dfa::from_regex_with(&prog_re, union.clone());
                let fast = prog
                    .product_from(prog.start, &cons, state, ProductMode::Diff)
                    .is_empty();
                // Slow path: advance() clones the DFA, then ¬C product.
                let advanced = advance(&cons, &history).unwrap();
                let slow = prog
                    .product(&advanced.complement(), ProductMode::And)
                    .is_empty();
                assert_eq!(fast, slow, "history {history} prog {prog_re:?}");
            }
        }
    }

    #[test]
    fn product_delegates_to_product_from() {
        let union = Regex::alt(sym(0), sym(1)).alphabet();
        let d0 = Dfa::from_regex_with(&sym(0), union.clone());
        let d1 = Dfa::from_regex_with(&sym(1), union.clone());
        let via_product = d0.product(&d1, ProductMode::Xor);
        let via_from = d0.product_from(d0.start, &d1, d1.start, ProductMode::Xor);
        assert!(via_product.equivalent(&via_from));
    }

    #[test]
    fn equivalence_and_subset() {
        // 0·1 ⊆ 0·(1 ∪ 2)
        let small = Regex::cat(sym(0), sym(1));
        let big = Regex::cat(sym(0), Regex::alt(sym(1), sym(2)));
        let ds = Dfa::from_regex(&small);
        let db = Dfa::from_regex(&big);
        assert!(ds.subset_of(&db));
        assert!(!db.subset_of(&ds));
        assert!(!ds.equivalent(&db));
        let wit = db.witness_not_subset(&ds).unwrap();
        assert_eq!(wit, t(&[0, 2]));
    }

    #[test]
    fn equivalence_across_alphabets() {
        // Same language, one regex mentions an extra (unused) symbol path.
        let a = sym(0);
        let b = Regex::alt(sym(0), Regex::cat(sym(1), Regex::Empty));
        assert!(Dfa::equivalent_regexes(&a, &b));
    }

    #[test]
    fn empty_language_detection() {
        assert!(Dfa::from_regex(&Regex::Empty).is_empty());
        assert!(!Dfa::from_regex(&Regex::Eps).is_empty());
        assert!(Dfa::from_regex(&Regex::cat(sym(0), Regex::Empty)).is_empty());
    }

    #[test]
    fn shortest_witness_is_shortest() {
        // Language 0·0·0 ∪ 0 — shortest is <0>.
        let re = Regex::alt(Regex::cat_all([sym(0), sym(0), sym(0)]), sym(0));
        let d = Dfa::from_regex(&re);
        assert_eq!(d.shortest_accepted().unwrap(), t(&[0]));
    }

    #[test]
    fn shortest_witness_of_eps_language() {
        let d = Dfa::from_regex(&Regex::Eps);
        assert_eq!(d.shortest_accepted().unwrap(), Trace::empty());
    }

    #[test]
    fn advance_computes_residual() {
        let re = Regex::cat_all([sym(0), sym(1), sym(2)]);
        let d = Dfa::from_regex(&re);
        let r = advance(&d, &t(&[0, 1])).unwrap();
        assert!(r.accepts(&t(&[2])));
        assert!(!r.accepts(&t(&[0, 1, 2])));
        assert!(advance(&d, &t(&[99])).is_none());
    }

    #[test]
    fn dfa_of_traces_matches_set() {
        let al = Alphabet::from_ids([AccessId(0), AccessId(1)]);
        let d = dfa_of_traces(&[t(&[0, 1]), t(&[1])], al);
        assert!(d.accepts(&t(&[0, 1])));
        assert!(d.accepts(&t(&[1])));
        assert!(!d.accepts(&t(&[0])));
        assert!(!d.accepts(&t(&[])));
    }

    #[test]
    fn shuffle_regex_through_dfa() {
        // (0·1) # (0·1): contains 0011, 0101, but never starts with 1.
        let half = Regex::cat(sym(0), sym(1));
        let re = Regex::shuffle(half.clone(), half);
        let d = Dfa::from_regex(&re);
        assert!(d.accepts(&t(&[0, 0, 1, 1])));
        assert!(d.accepts(&t(&[0, 1, 0, 1])));
        assert!(!d.accepts(&t(&[1, 0, 0, 1])));
        assert!(!d.accepts(&t(&[0, 1])));
    }

    #[test]
    fn canonicalize_is_language_preserving_and_stable() {
        let re = Regex::shuffle(Regex::star(sym(0)), Regex::cat(sym(1), sym(2)));
        let d = Dfa::from_regex(&re).minimize().canonicalize();
        assert!(d.equivalent(&Dfa::from_regex(&re)));
        assert_eq!(d.start, 0);
        // Canonicalizing twice is a fixpoint.
        let d2 = d.canonicalize();
        assert!(d.same_structure(&d2));
        assert_eq!(d.structural_hash(), d2.structural_hash());
    }

    #[test]
    fn canonical_forms_of_equal_languages_coincide() {
        // Two syntactically different regexes for the same language must
        // canonicalize to bit-identical automata (the hash-consing
        // invariant).
        let a = Regex::star(sym(0));
        let b = Regex::alt(Regex::Eps, Regex::cat(sym(0), Regex::star(sym(0))));
        let union = Regex::alt(sym(0), sym(1)).alphabet();
        let da = Dfa::from_regex_with(&a, union.clone())
            .minimize()
            .canonicalize();
        let db = Dfa::from_regex_with(&b, union).minimize().canonicalize();
        assert!(da.same_structure(&db));
        assert_eq!(da.structural_hash(), db.structural_hash());
        // And a genuinely different language must differ structurally.
        let dc = Dfa::from_regex(&sym(0)).minimize().canonicalize();
        assert!(!da.same_structure(&dc));
    }

    #[test]
    fn mapped_product_equals_materialised_product() {
        // Identity map: the mapped BFS must agree with product_from +
        // shortest_accepted_local on every mode and start pair.
        let union = Regex::alt(sym(0), sym(1)).alphabet();
        let cons = Dfa::from_regex_with(&Regex::star(Regex::alt(sym(1), sym(0))), union.clone());
        let prog = Dfa::from_regex_with(&Regex::cat(sym(0), sym(1)), union.clone());
        let ident: Vec<u32> = (0..union.len() as u32).collect();
        for mode in [
            ProductMode::And,
            ProductMode::Or,
            ProductMode::Diff,
            ProductMode::Xor,
        ] {
            let fast = prog.product_shortest_mapped(prog.start, &cons, cons.start, mode, &ident);
            let slow = prog
                .product_from(prog.start, &cons, cons.start, mode)
                .shortest_accepted_local();
            assert_eq!(fast, slow, "mode {mode:?}");
        }
    }

    #[test]
    fn mapped_product_bridges_compressed_alphabets() {
        // prog over {0,1,2}; cons over a 2-symbol compressed alphabet
        // where global ids 1 and 2 share class 1. The mapped Diff
        // emptiness must equal the full-width product after reindexing.
        let full = Alphabet::from_ids([AccessId(0), AccessId(1), AccessId(2)]);
        let prog = Dfa::from_regex_with(&Regex::cat(sym(1), sym(2)), full.clone());
        // cons (compressed): "at most one symbol of class 1".
        let small = Alphabet::from_ids([AccessId(0), AccessId(1)]);
        let cons_small = Dfa::from_regex_with(
            &Regex::cat(
                Regex::star(Regex::Sym(AccessId(0))),
                Regex::alt(
                    Regex::Eps,
                    Regex::cat(
                        Regex::Sym(AccessId(1)),
                        Regex::star(Regex::Sym(AccessId(0))),
                    ),
                ),
            ),
            small,
        );
        let map = vec![0u32, 1, 1]; // ids 1 and 2 collapse to class 1.
                                    // prog performs two class-1 accesses: violates the cap.
        let witness = prog
            .product_shortest_mapped(
                prog.start,
                &cons_small,
                cons_small.start,
                ProductMode::Diff,
                &map,
            )
            .expect("two class-1 accesses violate the cap");
        assert_eq!(witness, vec![1, 2]);
        // The same language expressed full-width agrees.
        let cons_full = Dfa::from_regex_with(
            &Regex::cat(
                Regex::star(sym(0)),
                Regex::alt(
                    Regex::Eps,
                    Regex::cat(Regex::alt(sym(1), sym(2)), Regex::star(sym(0))),
                ),
            ),
            full,
        );
        let slow = prog
            .product_from(prog.start, &cons_full, cons_full.start, ProductMode::Diff)
            .shortest_accepted_local();
        assert_eq!(slow, Some(vec![1, 2]));
    }

    #[test]
    fn minimize_is_idempotent() {
        let re = Regex::shuffle(Regex::star(sym(0)), Regex::cat(sym(1), sym(2)));
        let d = Dfa::from_regex(&re); // already minimised by from_regex_with
        let d2 = d.minimize();
        assert_eq!(d.num_states(), d2.num_states());
        assert!(d.equivalent(&d2));
    }
}
