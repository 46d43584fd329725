//! Program-level constraint checking — the executable form of
//! Theorem 3.2 (mobile object execution satisfaction checking).
//!
//! Given a mobile object program `P` (SRAL) and a constraint `C` (SRAC),
//! `P ⊨ C` means `traces(P) ⊨ C` (Definition 3.7). `traces(P)` is
//! infinite whenever `P` loops, so enumeration is hopeless; instead both
//! sides become finite automata and the question becomes a product +
//! emptiness test:
//!
//! * **ForAll** (the paper's reading): every trace of `P` satisfies `C` —
//!   i.e. `L(A_P) ⊆ L(A_C)`, checked as `L(A_P ∩ ¬A_C) = ∅`;
//! * **Exists**: some trace of `P` satisfies `C` — `L(A_P ∩ A_C) ≠ ∅`.
//!
//! Failed ForAll checks return the *shortest violating trace*; successful
//! Exists checks return the shortest satisfying one.
//!
//! [`check_residual`] implements the run-time variant used by the RBAC
//! permission gate (Eq. 3.1): the proven access *history* advances the
//! constraint automaton before the program's remaining behaviour is
//! checked, so execution proofs participate exactly as Definition 3.6
//! requires.

use std::sync::Arc;

use stacl_ids::hash::{fnv_hash_one, FnvHashMap};
use stacl_sral::Program;
use stacl_trace::abstraction::{traces, AbstractionConfig};
use stacl_trace::dfa::{advance, ProductMode};
use stacl_trace::{AccessTable, Dfa, Trace};

use crate::ast::Constraint;
use crate::classes::SymbolClasses;
use crate::compile::{checking_alphabet, compile};

/// Quantification over the program's traces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Semantics {
    /// Every trace of the program must satisfy the constraint (the
    /// Definition 3.7 reading; used by the permission gate).
    ForAll,
    /// At least one trace must satisfy the constraint (useful to detect
    /// vacuously-denied permissions and for diagnostics).
    Exists,
}

/// The result of a program-vs-constraint check.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Whether `P ⊨ C` under the chosen semantics.
    pub holds: bool,
    /// The semantics checked.
    pub semantics: Semantics,
    /// For a failed ForAll check: the shortest violating trace.
    /// For a successful Exists check: the shortest satisfying trace.
    pub witness: Option<Trace>,
    /// Number of states of the program automaton (diagnostic; E1 metric).
    pub program_states: usize,
    /// Number of states of the constraint automaton (diagnostic).
    pub constraint_states: usize,
}

/// Check `P ⊨ C` (Definition 3.7 / Theorem 3.2).
pub fn check_program(
    p: &Program,
    c: &Constraint,
    table: &mut AccessTable,
    semantics: Semantics,
) -> Verdict {
    check_residual(&Trace::empty(), p, c, table, semantics)
}

/// Check `history · future ⊨ C` for all (or some) `future ∈ traces(P)`.
///
/// `history` is the trace of accesses already performed *with execution
/// proofs* — the paper's `Pr_x`. This is the form the extended-RBAC
/// permission gate calls at run time, right after authentication and role
/// activation (§3.4).
///
/// ## Why the checker decomposes conjunctions
///
/// Compiling `C1 ∧ … ∧ Ck` into one product DFA is exponential in `k`
/// (the automaton must remember which conjuncts are pending — e.g. the §6
/// dependency constraint over `k` edges needs `~2^k` states). But the
/// Definition 3.7 semantics quantifies over traces, and quantifiers
/// distribute: `∀t (C1 ∧ C2) ⟺ (∀t C1) ∧ (∀t C2)` and
/// `∃t (C1 ∨ C2) ⟺ (∃t C1) ∨ (∃t C2)`. The checker first rewrites the
/// constraint to negation normal form, then splits along the
/// distributing connective for the chosen semantics and checks each part
/// against the *same* program automaton — this is what realises
/// Theorem 3.2's `O(m × n)` bound on conjunctive policies.
pub fn check_residual(
    history: &Trace,
    p: &Program,
    c: &Constraint,
    table: &mut AccessTable,
    semantics: Semantics,
) -> Verdict {
    // Trace model of the remaining program.
    let re = traces(p, table, AbstractionConfig::default());

    // The checking alphabet must cover the program, the constraint's
    // mentioned accesses *and* the history (cardinality constraints count
    // past accesses even when the future never repeats them).
    let mut al = re.alphabet();
    for &id in &history.0 {
        al.insert(id);
    }
    let al = checking_alphabet(&al, c, table);

    let prog = Dfa::from_regex_with(&re, al.clone());
    let program_states = prog.num_states();

    let nnf = c.to_nnf();
    let (holds, witness, constraint_states) = match semantics {
        Semantics::ForAll => check_forall(&prog, &nnf, history, &al, table),
        Semantics::Exists => check_exists(&prog, &nnf, history, &al, table),
    };
    Verdict {
        holds,
        semantics,
        witness,
        program_states,
        constraint_states,
    }
}

/// One hash bucket of the cache's key layer: fully-keyed entries whose
/// `(constraint, version)` hash collided.
type KeyBucket = Vec<((Constraint, u64), CacheEntry)>;

/// A memo for compiled constraint automata.
///
/// The permission gate re-checks the *same* constraints on every access;
/// only the program automaton and the history change. Leaf automata are
/// keyed by `(constraint, table version)`: every `AccessTable` carries a
/// globally unique version stamp bumped on each *new* intern, so equal
/// versions imply identical id↔access mappings — which is exactly the
/// condition under which a compiled automaton (whose symbol indices are
/// table ids) can be shared. Alphabet *length* is not enough once one
/// cache serves several tables (e.g. `decide_batch` workers each bring
/// their own table): two tables of equal length can map the same id to
/// different accesses. Once the vocabulary saturates the version is
/// stable and every lookup hits.
///
/// Two layers of sharing keep the store small:
///
/// * entries live in FNV-1a hash buckets keyed by the *hash* of
///   `(constraint, version)`, so a lookup hashes the borrowed constraint
///   and compares in place — no key clone on the hit path;
/// * compiled automata are **hash-consed**: every leaf is minimised and
///   [canonicalized](Dfa::canonicalize) before storage, so
///   language-equal constraints (across permissions, epochs and
///   syntactic variants) resolve to one pointer-shared [`Arc<Dfa>`],
///   found by structural hash + [`Dfa::same_structure`].
#[derive(Default, Debug)]
pub struct ConstraintCache {
    /// `fnv(constraint, version)` → entries with that key hash.
    map: FnvHashMap<u64, KeyBucket>,
    /// `structural hash` → canonical automata with that hash.
    consed: FnvHashMap<u64, Vec<Arc<Dfa>>>,
    hits: u64,
    misses: u64,
    /// The policy epoch the cache currently serves (see
    /// [`ConstraintCache::begin_epoch`]). Every entry touched while this
    /// epoch is current gets stamped with it.
    epoch: u64,
}

/// One compiled cursor leaf: the canonical minimal automaton over the
/// constraint's compressed alphabet, plus the symbol-class partition
/// that bridges global ids to that alphabet.
#[derive(Clone, Debug)]
pub struct CompiledLeaf {
    /// The canonical minimal DFA over the class-representative alphabet.
    pub dfa: Arc<Dfa>,
    /// The global-id → class map the automaton must be stepped through.
    pub classes: Arc<SymbolClasses>,
}

/// One cached leaf plus the last policy epoch that touched it.
#[derive(Debug)]
struct CacheEntry {
    leaf: CompiledLeaf,
    epoch: u64,
}

impl ConstraintCache {
    /// An empty cache.
    pub fn new() -> Self {
        ConstraintCache::default()
    }

    /// Cache statistics: `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The policy epoch this cache currently serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cached entries (distinct `(constraint, version)` keys).
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Number of *distinct* automata behind those entries — always
    /// `≤ len()`; the gap is what hash-consing saved.
    pub fn distinct_automata(&self) -> usize {
        self.consed.values().map(Vec::len).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Advance the cache to a new policy epoch.
    ///
    /// Entries touched (compiled *or* hit) while the previous epoch was
    /// current survive — an epoch *prepare* warms the constraints of the
    /// incoming policy before activation calls this, so the flip causes
    /// no compile storm. Entries last touched under an older epoch are
    /// dropped: retired constraints would otherwise accumulate across a
    /// churning coalition's lifetime. No-op if `epoch` is not newer.
    pub fn begin_epoch(&mut self, epoch: u64) {
        if epoch <= self.epoch {
            return;
        }
        let floor = self.epoch;
        for bucket in self.map.values_mut() {
            bucket.retain(|(_, e)| e.epoch >= floor);
        }
        self.map.retain(|_, bucket| !bucket.is_empty());
        // Rebuild the hash-cons store from the survivors so retired
        // automata actually free their transition tables.
        self.consed.clear();
        let mut consed: FnvHashMap<u64, Vec<Arc<Dfa>>> = FnvHashMap::default();
        for (_, entry) in self.map.values().flatten() {
            let bucket = consed.entry(entry.leaf.dfa.structural_hash()).or_default();
            if !bucket.iter().any(|d| Arc::ptr_eq(d, &entry.leaf.dfa)) {
                bucket.push(Arc::clone(&entry.leaf.dfa));
            }
        }
        self.consed = consed;
        self.epoch = epoch;
    }

    /// Automata are stored behind `Arc` so cache hits are refcount bumps
    /// and long-lived cursor leaves share the cached automaton instead of
    /// cloning transition tables. Leaves are compiled over the
    /// constraint's compressed class alphabet (see [`SymbolClasses`]) and
    /// hash-consed, so equivalent constraints share one automaton.
    pub(crate) fn get_or_compile(&mut self, c: &Constraint, table: &AccessTable) -> CompiledLeaf {
        let version = table.version();
        let key_hash = fnv_hash_one(&(c, version));
        let epoch = self.epoch;
        if let Some(bucket) = self.map.get_mut(&key_hash) {
            if let Some((_, entry)) = bucket
                .iter_mut()
                .find(|((kc, kv), _)| *kv == version && kc == c)
            {
                entry.epoch = epoch;
                self.hits += 1;
                stacl_obs::count(stacl_obs::Counter::CacheHit);
                return entry.leaf.clone();
            }
        }
        self.misses += 1;
        stacl_obs::count(stacl_obs::Counter::CacheMiss);
        let classes = SymbolClasses::build(c, table);
        let compiled = compile(c, &classes.alphabet(), table)
            .minimize()
            .canonicalize();
        let dfa = self.hash_cons(compiled);
        let leaf = CompiledLeaf {
            dfa,
            classes: Arc::new(classes),
        };
        self.map.entry(key_hash).or_default().push((
            (c.clone(), version),
            CacheEntry {
                leaf: leaf.clone(),
                epoch,
            },
        ));
        leaf
    }

    /// Return the pointer-shared canonical automaton for `d`, inserting
    /// it if no structurally identical one is stored. `d` must already
    /// be minimal and canonical, which makes structural identity
    /// coincide with language identity over the same alphabet.
    fn hash_cons(&mut self, d: Dfa) -> Arc<Dfa> {
        let bucket = self.consed.entry(d.structural_hash()).or_default();
        for existing in bucket.iter() {
            if existing.same_structure(&d) {
                stacl_obs::count(stacl_obs::Counter::CacheHashConsHit);
                return Arc::clone(existing);
            }
        }
        let arc = Arc::new(d);
        bucket.push(Arc::clone(&arc));
        arc
    }
}

/// [`check_residual`] with a [`ConstraintCache`] for the leaf automata.
/// Semantics are identical; repeated gate calls with stable constraints
/// skip recompilation (see the E4/E5 overhead experiments).
pub fn check_residual_cached(
    history: &Trace,
    p: &Program,
    c: &Constraint,
    table: &mut AccessTable,
    semantics: Semantics,
    cache: &mut ConstraintCache,
) -> Verdict {
    // Intern everything first (so the leaf partitions built below cover
    // every symbol in play), then compile the program over just its own
    // trace alphabet: the mapped product bridges program-local symbols
    // to each leaf's classes, so the program automaton — unlike the
    // uncompressed leaves of old — never scales with table width.
    let re = traces(p, table, AbstractionConfig::default());
    for a in c.mentioned_accesses() {
        table.intern(a);
    }
    let al = re.alphabet();
    let prog = Dfa::from_regex_with(&re, al);
    let program_states = prog.num_states();

    let nnf = c.to_nnf();
    let (holds, witness, constraint_states) = match semantics {
        Semantics::ForAll => forall_cached(&prog, &nnf, history, table, cache),
        Semantics::Exists => exists_cached(&prog, &nnf, history, table, cache),
    };
    Verdict {
        holds,
        semantics,
        witness,
        program_states,
        constraint_states,
    }
}

/// Fold `history` through a compiled leaf's class map, yielding the state
/// the constraint automaton reaches after the proven prefix.
fn fold_history(leaf: &CompiledLeaf, history: &Trace) -> u32 {
    let mut state = leaf.dfa.start;
    for &id in &history.0 {
        let cls = leaf
            .classes
            .class_of(id)
            .expect("history symbols are in the checking alphabet");
        state = leaf.dfa.next(state, cls);
    }
    state
}

/// Turn a mapped-product witness (program-local symbols) back into a
/// trace of global access ids.
fn witness_trace(prog: &Dfa, word: Vec<u32>) -> Trace {
    Trace::from_ids(word.into_iter().map(|sym| prog.alphabet.id_at(sym)))
}

fn forall_cached(
    prog: &Dfa,
    c: &Constraint,
    history: &Trace,
    table: &AccessTable,
    cache: &mut ConstraintCache,
) -> (bool, Option<Trace>, usize) {
    if let Constraint::And(a, b) = c {
        let (ha, wa, sa) = forall_cached(prog, a, history, table, cache);
        if !ha {
            return (false, wa, sa);
        }
        let (hb, wb, sb) = forall_cached(prog, b, history, table, cache);
        return (hb, wb, sa.max(sb));
    }
    let leaf = cache.get_or_compile(c, table);
    let state = fold_history(&leaf, history);
    let states = leaf.dfa.num_states();
    let map = leaf
        .classes
        .map_alphabet(&prog.alphabet)
        .expect("program symbols are interned before leaf compilation");
    // L(A_P) ⊆ L(A_C) ⟺ the mapped Diff product accepts nothing; the
    // product is explored lazily and never materialised.
    match prog.product_shortest_mapped(prog.start, &leaf.dfa, state, ProductMode::Diff, &map) {
        None => (true, None, states),
        Some(w) => (false, Some(witness_trace(prog, w)), states),
    }
}

fn exists_cached(
    prog: &Dfa,
    c: &Constraint,
    history: &Trace,
    table: &AccessTable,
    cache: &mut ConstraintCache,
) -> (bool, Option<Trace>, usize) {
    if let Constraint::Or(a, b) = c {
        let (ha, wa, sa) = exists_cached(prog, a, history, table, cache);
        if ha {
            return (true, wa, sa);
        }
        let (hb, wb, sb) = exists_cached(prog, b, history, table, cache);
        return (hb, wb, sa.max(sb));
    }
    let leaf = cache.get_or_compile(c, table);
    let state = fold_history(&leaf, history);
    let states = leaf.dfa.num_states();
    let map = leaf
        .classes
        .map_alphabet(&prog.alphabet)
        .expect("program symbols are interned before leaf compilation");
    match prog.product_shortest_mapped(prog.start, &leaf.dfa, state, ProductMode::And, &map) {
        Some(w) => (true, Some(witness_trace(prog, w)), states),
        None => (false, None, states),
    }
}

/// ∀-semantics: distribute over `And`; leaves are checked monolithically.
/// Returns (holds, counterexample-on-failure, max leaf automaton size).
fn check_forall(
    prog: &Dfa,
    c: &Constraint,
    history: &Trace,
    al: &stacl_trace::Alphabet,
    table: &AccessTable,
) -> (bool, Option<Trace>, usize) {
    if let Constraint::And(a, b) = c {
        let (ha, wa, sa) = check_forall(prog, a, history, al, table);
        if !ha {
            return (false, wa, sa);
        }
        let (hb, wb, sb) = check_forall(prog, b, history, al, table);
        return (hb, wb, sa.max(sb));
    }
    let cons = compile(c, al, table);
    let cons = advance(&cons, history).expect("history symbols are in the checking alphabet");
    let states = cons.num_states();
    let bad = prog.product(&cons.complement(), ProductMode::And);
    match bad.shortest_accepted() {
        None => (true, None, states),
        Some(w) => (false, Some(w), states),
    }
}

/// ∃-semantics: distribute over `Or`; leaves are checked monolithically.
/// Returns (holds, satisfying-witness-on-success, max leaf size).
fn check_exists(
    prog: &Dfa,
    c: &Constraint,
    history: &Trace,
    al: &stacl_trace::Alphabet,
    table: &AccessTable,
) -> (bool, Option<Trace>, usize) {
    if let Constraint::Or(a, b) = c {
        let (ha, wa, sa) = check_exists(prog, a, history, al, table);
        if ha {
            return (true, wa, sa);
        }
        let (hb, wb, sb) = check_exists(prog, b, history, al, table);
        return (hb, wb, sa.max(sb));
    }
    let cons = compile(c, al, table);
    let cons = advance(&cons, history).expect("history symbols are in the checking alphabet");
    let states = cons.num_states();
    let good = prog.product(&cons, ProductMode::And);
    match good.shortest_accepted() {
        Some(w) => (true, Some(w), states),
        None => (false, None, states),
    }
}

/// Is `t` a possible trace of `P`? (Membership in the trace model —
/// useful to validate execution proofs against the declared program.)
pub fn trace_feasible(t: &Trace, p: &Program, table: &mut AccessTable) -> bool {
    let re = traces(p, table, AbstractionConfig::default());
    let mut al = re.alphabet();
    for &id in &t.0 {
        al.insert(id);
    }
    let d = Dfa::from_regex_with(&re, al);
    d.accepts(t)
}

/// The `check(P, C)` boolean of Eq. 3.1: ForAll semantics with an empty
/// history.
pub fn check(p: &Program, c: &Constraint, table: &mut AccessTable) -> bool {
    check_program(p, c, table, Semantics::ForAll).holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::Selector;
    use stacl_sral::builder::*;
    use stacl_sral::parser::parse_program;
    use stacl_sral::Access;

    fn tbl() -> AccessTable {
        AccessTable::new()
    }

    #[test]
    fn atom_forall_holds_when_access_on_every_path() {
        let mut t = tbl();
        let p = parse_program("read r1 @ s1 ; write r2 @ s1").unwrap();
        let c = Constraint::atom("read", "r1", "s1");
        assert!(check(&p, &c, &mut t));
    }

    #[test]
    fn atom_forall_fails_when_branch_avoids_it() {
        let mut t = tbl();
        let p = parse_program("if x > 0 then { read r1 @ s1 } else { write r2 @ s1 }").unwrap();
        let c = Constraint::atom("read", "r1", "s1");
        let v = check_program(&p, &c, &mut t, Semantics::ForAll);
        assert!(!v.holds);
        // The witness is the else-branch trace.
        let w = v.witness.unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(t.resolve(w.0[0]), &Access::new("write", "r2", "s1"));
    }

    #[test]
    fn atom_exists_detects_satisfiable_branch() {
        let mut t = tbl();
        let p = parse_program("if x > 0 then { read r1 @ s1 } else { write r2 @ s1 }").unwrap();
        let c = Constraint::atom("read", "r1", "s1");
        let v = check_program(&p, &c, &mut t, Semantics::Exists);
        assert!(v.holds);
        assert_eq!(v.witness.unwrap().len(), 1);
    }

    #[test]
    fn ordered_constraint_on_sequences() {
        let mut t = tbl();
        let good = parse_program("read cfg @ s1 ; exec app @ s2").unwrap();
        let bad = parse_program("exec app @ s2 ; read cfg @ s1").unwrap();
        let c = Constraint::ordered(
            Access::new("read", "cfg", "s1"),
            Access::new("exec", "app", "s2"),
        );
        assert!(check(&good, &c, &mut t));
        assert!(!check(&bad, &c, &mut t));
    }

    #[test]
    fn cardinality_bounds_loops() {
        let mut t = tbl();
        // Loop may run any number of times: violates "at most 2 exec".
        let p = parse_program("while x > 0 do { exec rsw @ s1 }").unwrap();
        let c = Constraint::at_most(2, Selector::any().with_resources(["rsw"]));
        let v = check_program(&p, &c, &mut t, Semantics::ForAll);
        assert!(!v.holds);
        // The shortest violation performs exactly 3 accesses.
        assert_eq!(v.witness.unwrap().len(), 3);
        // A bounded repetition passes.
        let p2 = repeat(2, access("exec", "rsw", "s1"));
        assert!(check(&p2, &c, &mut t));
    }

    #[test]
    fn infinite_trace_model_checked_symbolically() {
        let mut t = tbl();
        // traces(P) is infinite; checking still terminates and holds: the
        // loop body always reads before writing.
        let p = parse_program("while c do { read a @ s1 ; write b @ s1 }").unwrap();
        let c = Constraint::atom("write", "b", "s1").implies(Constraint::atom("read", "a", "s1"));
        assert!(check(&p, &c, &mut t));
    }

    #[test]
    fn parallel_program_interleavings_all_checked() {
        let mut t = tbl();
        // In p1 || p2 the write may happen before the read: ordering fails.
        let p = parse_program("read a @ s1 || write b @ s2").unwrap();
        let c = Constraint::ordered(
            Access::new("read", "a", "s1"),
            Access::new("write", "b", "s2"),
        );
        let v = check_program(&p, &c, &mut t, Semantics::ForAll);
        assert!(!v.holds);
        // But it can happen in the right order.
        let v2 = check_program(&p, &c, &mut t, Semantics::Exists);
        assert!(v2.holds);
    }

    #[test]
    fn residual_check_counts_history() {
        let mut t = tbl();
        let exec = Access::new("exec", "rsw", "s1");
        let id = t.intern(&exec);
        // Program wants 3 more accesses; history already has 3; limit is 5.
        let p = repeat(3, access("exec", "rsw", "s1"));
        let c = Constraint::at_most(5, Selector::any().with_resources(["rsw"]));
        let h2 = Trace::from_ids([id, id]);
        assert!(check_residual(&h2, &p, &c, &mut t, Semantics::ForAll).holds);
        let h3 = Trace::from_ids([id, id, id]);
        let v = check_residual(&h3, &p, &c, &mut t, Semantics::ForAll);
        assert!(!v.holds, "3 past + 3 future > 5");
    }

    #[test]
    fn residual_check_on_different_server_history() {
        let mut t = tbl();
        // History happened on s1; the future program runs on s2; the
        // coordinated constraint counts across both (the paper's motivating
        // "too many times on s1 ⇒ denied on s2" example).
        let s1_exec = t.intern(&Access::new("exec", "rsw", "s1"));
        let p = access("exec", "rsw", "s2");
        let c = Constraint::at_most(5, Selector::any().with_resources(["rsw"]));
        let h5 = Trace::from_ids([s1_exec; 5]);
        let v = check_residual(&h5, &p, &c, &mut t, Semantics::ForAll);
        assert!(!v.holds, "5 on s1 + 1 on s2 exceeds the coalition-wide cap");
        let h4 = Trace::from_ids([s1_exec; 4]);
        assert!(check_residual(&h4, &p, &c, &mut t, Semantics::ForAll).holds);
    }

    #[test]
    fn empty_program_satisfies_vacuous_constraints() {
        let mut t = tbl();
        let p = skip();
        assert!(check(&p, &Constraint::True, &mut t));
        assert!(check(&p, &Constraint::at_most(0, Selector::any()), &mut t));
        assert!(!check(&p, &Constraint::atom("a", "r", "s"), &mut t));
    }

    #[test]
    fn negated_atom_forbids_access() {
        let mut t = tbl();
        let c = Constraint::atom("rm", "db", "s1").not();
        let good = parse_program("read db @ s1").unwrap();
        let bad = parse_program("read db @ s1 ; rm db @ s1").unwrap();
        assert!(check(&good, &c, &mut t));
        assert!(!check(&bad, &c, &mut t));
    }

    #[test]
    fn trace_feasibility() {
        let mut t = tbl();
        let p =
            parse_program("read a @ s1 ; if x > 0 then { write b @ s1 } else { skip }").unwrap();
        let a = t.intern(&Access::new("read", "a", "s1"));
        let b = t.intern(&Access::new("write", "b", "s1"));
        assert!(trace_feasible(&Trace::from_ids([a, b]), &p, &mut t));
        assert!(trace_feasible(&Trace::from_ids([a]), &p, &mut t));
        assert!(!trace_feasible(&Trace::from_ids([b, a]), &p, &mut t));
        assert!(!trace_feasible(&Trace::from_ids([b]), &p, &mut t));
    }

    #[test]
    fn verdict_reports_automaton_sizes() {
        let mut t = tbl();
        let p = parse_program("read a @ s1 ; write b @ s1").unwrap();
        let v = check_program(&p, &Constraint::True, &mut t, Semantics::ForAll);
        assert!(v.program_states >= 3);
        assert!(v.constraint_states >= 1);
    }

    #[test]
    fn exists_fails_only_when_no_trace_works() {
        let mut t = tbl();
        let p = parse_program("read a @ s1").unwrap();
        let c = Constraint::atom("write", "zz", "s9");
        let v = check_program(&p, &c, &mut t, Semantics::Exists);
        assert!(!v.holds);
        assert!(v.witness.is_none());
    }

    /// Regression: one cache serving several tables (`decide_batch`
    /// workers each bring a fresh table) must not reuse a compiled
    /// automaton across tables that merely share a *length* — the same
    /// id can denote different accesses in each. Keying by table
    /// version makes the second query recompile and judge correctly.
    #[test]
    fn cache_is_not_confused_by_distinct_tables_of_equal_length() {
        let c = Constraint::at_most(0, Selector::any().with_resources(["db"]));
        let mut cache = ConstraintCache::new();

        // Table 1: id 0 = a db access (counted; cap 0 ⇒ violation).
        let mut t1 = tbl();
        let p_db = Program::Access(Access::new("read", "db", "s1"));
        let v1 = check_residual_cached(
            &Trace::empty(),
            &p_db,
            &c,
            &mut t1,
            Semantics::ForAll,
            &mut cache,
        );
        assert!(!v1.holds);

        // Table 2, same length, but id 0 = an unrelated access (not
        // counted; must hold). A length-keyed cache would reuse t1's
        // automaton and wrongly reject.
        let mut t2 = tbl();
        let p_other = Program::Access(Access::new("read", "rsw", "s1"));
        let v2 = check_residual_cached(
            &Trace::empty(),
            &p_other,
            &c,
            &mut t2,
            Semantics::ForAll,
            &mut cache,
        );
        assert!(v2.holds, "cache key must distinguish tables: {v2:?}");
        assert_eq!(cache.stats().1, 2, "two distinct tables ⇒ two compiles");
    }

    /// Hash-consing: language-equal constraints — even syntactically
    /// different ones — resolve to one pointer-shared automaton, because
    /// leaves are minimised and canonicalised before storage.
    #[test]
    fn hash_consing_shares_language_equal_automata() {
        let mut cache = ConstraintCache::new();
        let mut table = tbl();
        // In this vocabulary `resource=rsw` ⟺ `op=exec`, so the two
        // selectors induce the same symbol classes and the same language.
        table.intern(&Access::new("exec", "rsw", "s1"));
        table.intern(&Access::new("read", "db", "s1"));
        table.intern(&Access::new("exec", "rsw", "s2"));

        let c1 = Constraint::at_most(2, Selector::any().with_resources(["rsw"]));
        let c2 = Constraint::at_most(2, Selector::any().with_ops(["exec"]));
        let l1 = cache.get_or_compile(&c1, &table);
        let l2 = cache.get_or_compile(&c2, &table);
        assert!(
            Arc::ptr_eq(&l1.dfa, &l2.dfa),
            "language-equal constraints must share one automaton"
        );
        assert_eq!(cache.len(), 2, "two cache entries (distinct constraints)");
        assert_eq!(cache.distinct_automata(), 1, "one shared automaton");

        // Trivially-true constraints collapse onto one universal DFA too.
        let t1 = cache.get_or_compile(&Constraint::True, &table);
        let t2 = cache.get_or_compile(
            &Constraint::Card {
                min: 0,
                max: None,
                selector: Selector::any(),
            },
            &table,
        );
        assert!(Arc::ptr_eq(&t1.dfa, &t2.dfa));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.distinct_automata(), 2);
        assert_eq!(cache.stats(), (0, 4), "four misses, all fresh keys");

        // Repeat lookups hit without cloning the constraint key.
        let l1b = cache.get_or_compile(&c1, &table);
        assert!(Arc::ptr_eq(&l1.dfa, &l1b.dfa));
        assert_eq!(cache.stats(), (1, 4));
    }
}
