//! Incremental constraint cursors — the steady-state fast path of the
//! permission gate.
//!
//! [`check_residual`](crate::check::check_residual) re-walks the object's
//! *entire* proven history on every decision, so a session of `k`
//! accesses costs `O(k²)` automaton steps. A constraint cursor instead
//! remembers where the constraint automaton landed after the history
//! seen so far and is advanced by exactly the proofs issued since — one
//! DFA transition per newly proven access. The residual check
//! `history · P ⊨ C` (∀-semantics) then runs from the stored state:
//!
//! * for the reactive single-access program `P = a`, the check is a
//!   single transition + acceptance lookup per conjunct — `O(1)`, zero
//!   allocations ([`CursorBank::check_one`]);
//! * for a general program, `L(A_P) ⊆ L(A_C)`-from-state is decided as
//!   emptiness of the lazily explored
//!   [`Dfa::product_shortest_mapped`], skipping the history walk, the
//!   `advance` clone *and* the product materialisation of the slow
//!   path ([`CursorBank::check_residual_program`]).
//!
//! Leaf automata are compiled over their constraint's **compressed
//! class alphabet** (see [`crate::classes`]): a handful of symbols
//! independent of coalition vocabulary, with a dense global-id → class
//! map bridging proof events to local transitions.
//!
//! ## Exactness
//!
//! A cursor replicates `check_residual_cached` bit for bit: same NNF
//! `And`-decomposition in the same left-to-right order, leaf automata
//! from the same [`ConstraintCache`] keyed by the same table version,
//! and the mapped `Diff` product from the leaf state is the same
//! language test as the slow path's. The only thing the fast path may
//! do is *decline* (`None`), never return a different verdict.
//!
//! ## Validity
//!
//! Stored class maps cover the ids interned when the leaves were
//! compiled, so a cursor is only meaningful against a table with the
//! *identical* id ↔ access mapping. [`AccessTable::version`] stamps
//! make that checkable in `O(1)`: callers must verify
//! [`CursorBank::in_sync_with`] (and rebuild via the slow path
//! otherwise). Ids interned after the build fall outside the class-map
//! domain and make the cursor decline (`cursor.out-of-class`). Other
//! invalidation rules — proof watermark regressions, unknown symbols,
//! policy-generation changes, team-scoped histories — live with the
//! callers, see DESIGN.md §8.
//!
//! ## The SoA bank
//!
//! A gate tracks one cursor per (object, permission), and every proof
//! event must advance *all* of them. [`CursorBank`] stores the leaves
//! of all cursors in structure-of-arrays form (parallel `states` /
//! `dfas` / `maps` / `strides` vectors) so one proof event advances
//! every in-lockstep leaf in a single tight loop over flat arrays —
//! no per-permission hash lookups, no pointer chasing through
//! per-cursor `Vec`s, and a layout ready for SIMD gathers.

use std::sync::Arc;

use stacl_sral::{Access, Program};
use stacl_trace::abstraction::{traces, AbstractionConfig};
use stacl_trace::dfa::ProductMode;
use stacl_trace::{AccessTable, Dfa, Trace};

use crate::ast::Constraint;
use crate::check::{CompiledLeaf, ConstraintCache};
use crate::classes::SymbolClasses;

/// Intern every access `c` mentions and compile (or cache-hit) one leaf
/// automaton per ∀-conjunct of its NNF, over the conjunct's compressed
/// class alphabet — the same cache entries `check_residual_cached` uses,
/// so verdicts line up exactly.
fn compile_leaves(
    c: &Constraint,
    table: &mut AccessTable,
    cache: &mut ConstraintCache,
) -> Vec<CompiledLeaf> {
    for a in c.mentioned_accesses() {
        table.intern(a);
    }
    let mut leaves = Vec::new();
    collect_forall_leaves(&c.to_nnf(), table, cache, &mut leaves);
    leaves
}

/// Warm `cache` with the leaf automata a cursor for `c` would use at
/// `table`'s version, without building one (policy preparation compiles
/// ahead of the epoch flip).
pub fn precompile(c: &Constraint, table: &mut AccessTable, cache: &mut ConstraintCache) {
    compile_leaves(c, table, cache);
}

/// Decompose the NNF constraint along `And` — exactly the recursion of
/// `check.rs::forall_cached` — collecting one compiled leaf per
/// ∀-conjunct. Short-circuiting in `forall_cached` only skips *work*,
/// never changes the boolean, so evaluating every leaf here is verdict-
/// equivalent.
fn collect_forall_leaves(
    c: &Constraint,
    table: &AccessTable,
    cache: &mut ConstraintCache,
    out: &mut Vec<CompiledLeaf>,
) {
    if let Constraint::And(a, b) = c {
        collect_forall_leaves(a, table, cache, out);
        collect_forall_leaves(b, table, cache, out);
        return;
    }
    out.push(cache.get_or_compile(c, table));
}

/// Bookkeeping for one cursor stored in a [`CursorBank`]: which leaf
/// range it owns, how much history it has folded in, and its validity
/// stamps — the version and length of the table its class maps were
/// built from (ids at or beyond that length are out of class) and the
/// security-model generation.
#[derive(Clone, Debug)]
struct BankEntry {
    key: u32,
    leaf_start: usize,
    leaf_len: usize,
    consumed: usize,
    table_version: u64,
    table_len: usize,
    generation: u64,
}

/// A structure-of-arrays bank of constraint cursors, keyed by a caller
/// `u32` (the gate's permission id).
///
/// All cursors' leaves live in four parallel flat vectors; one proof
/// event advances every leaf of every *in-lockstep* cursor (same table
/// version, same consumed count as the one being driven) in a single
/// branch-light sweep over those arrays — the gate's per-proof cost is
/// `O(total leaves)` sequential loads/stores instead of a hash lookup
/// and pointer chase per permission.
#[derive(Default, Debug)]
pub struct CursorBank {
    entries: Vec<BankEntry>,
    // Parallel leaf arrays (the SoA): states is the hot column the
    // advance loop writes; dfas/maps/strides are read-only per leaf.
    states: Vec<u32>,
    dfas: Vec<Arc<Dfa>>,
    maps: Vec<Arc<SymbolClasses>>,
    strides: Vec<u32>,
}

impl CursorBank {
    /// An empty bank.
    pub fn new() -> Self {
        CursorBank::default()
    }

    /// Number of cursors stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the bank holds no cursors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn pos(&self, key: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    /// Whether a cursor is stored under `key`.
    pub fn contains(&self, key: u32) -> bool {
        self.pos(key).is_some()
    }

    /// The stored security-model generation stamp for `key`.
    pub fn generation(&self, key: u32) -> Option<u64> {
        self.pos(key).map(|p| self.entries[p].generation)
    }

    /// How many proofs the cursor under `key` has consumed.
    pub fn consumed(&self, key: u32) -> Option<usize> {
        self.pos(key).map(|p| self.entries[p].consumed)
    }

    /// Whether the cursor under `key` was built against `table`'s
    /// current id mapping: equal [`AccessTable::version`] stamps
    /// guarantee the identical id mapping its leaves were compiled over.
    pub fn in_sync_with(&self, key: u32, table: &AccessTable) -> bool {
        self.pos(key)
            .is_some_and(|p| self.entries[p].table_version == table.version())
    }

    /// Build the cursor for `c` at `history` and store it under `key`
    /// with a model-generation stamp, replacing any previous cursor for
    /// that key. Returns `false` and leaves `key` without a cursor when
    /// a history id falls outside the class-map domain (counted
    /// `cursor.out-of-class`); the slow path then answers alone.
    pub fn rebuild(
        &mut self,
        key: u32,
        c: &Constraint,
        history: &Trace,
        table: &mut AccessTable,
        cache: &mut ConstraintCache,
        generation: u64,
    ) -> bool {
        self.remove(key);
        let leaves = compile_leaves(c, table, cache);
        let table_len = table.len();
        if history.0.iter().any(|id| id.index() >= table_len) {
            stacl_obs::count(stacl_obs::Counter::CursorOutOfClass);
            return false;
        }
        let leaf_start = self.states.len();
        let leaf_len = leaves.len();
        for CompiledLeaf { dfa, classes } in leaves {
            let state = history
                .0
                .iter()
                .fold(dfa.start, |st, id| dfa.next(st, classes.map()[id.index()]));
            self.states.push(state);
            self.strides.push(dfa.alphabet_len() as u32);
            self.dfas.push(dfa);
            self.maps.push(classes);
        }
        self.entries.push(BankEntry {
            key,
            leaf_start,
            leaf_len,
            consumed: history.len(),
            table_version: table.version(),
            table_len,
            generation,
        });
        true
    }

    /// Drop the cursor under `key` (no-op when absent), compacting the
    /// leaf arrays.
    pub fn remove(&mut self, key: u32) {
        let Some(p) = self.pos(key) else { return };
        let e = self.entries.remove(p);
        let range = e.leaf_start..e.leaf_start + e.leaf_len;
        self.states.drain(range.clone());
        self.dfas.drain(range.clone());
        self.maps.drain(range.clone());
        self.strides.drain(range);
        for other in &mut self.entries {
            if other.leaf_start > e.leaf_start {
                other.leaf_start -= e.leaf_len;
            }
        }
    }

    /// Keep only cursors whose key satisfies `f` (epoch activation drops
    /// the permissions the incoming policy retired).
    pub fn retain_keys(&mut self, mut f: impl FnMut(u32) -> bool) {
        let dead: Vec<u32> = self
            .entries
            .iter()
            .filter(|e| !f(e.key))
            .map(|e| e.key)
            .collect();
        for key in dead {
            self.remove(key);
        }
    }

    /// Re-stamp every cursor with a new security-model generation
    /// (epoch activation carries cursors across the flip).
    pub fn set_generation_all(&mut self, generation: u64) {
        for e in &mut self.entries {
            e.generation = generation;
        }
    }

    /// Iterate `(key, consumed)` pairs — the gate's export format.
    pub fn iter_consumed(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.entries.iter().map(|e| (e.key, e.consumed))
    }

    /// Advance the cursor under `key` by one proven access — and, in
    /// the same pass, every other stored cursor in lockstep with it
    /// (same table version and consumed count), each leaf stepped in a
    /// flat sweep over the SoA arrays. Returns `false` (caller takes
    /// the slow path; bank state for `key` is untouched) when the
    /// access is unknown, the cursor is missing or out of sync, or the
    /// id is out of class.
    ///
    /// Batching preserves each peer's invariant — its state is always
    /// the fold of the object's first `consumed` proofs — because peers
    /// share the version stamp (identical id mapping and class-map
    /// domain) and the consumed count, so this proof is exactly the
    /// next one each of them was waiting for.
    pub fn advance_synced(&mut self, key: u32, access: &Access, table: &AccessTable) -> bool {
        let Some(p) = self.pos(key) else { return false };
        let Some(id) = table.id_of(access) else {
            return false;
        };
        let version = table.version();
        let consumed = self.entries[p].consumed;
        if self.entries[p].table_version != version {
            return false;
        }
        if id.index() >= self.entries[p].table_len {
            stacl_obs::count(stacl_obs::Counter::CursorOutOfClass);
            return false;
        }
        stacl_obs::count(stacl_obs::Counter::CursorSoaBatchAdvance);
        let sym_of = id.index();
        for e in &mut self.entries {
            if e.table_version != version || e.consumed != consumed {
                continue;
            }
            // Equal versions ⟹ equal table_len, so the bound check
            // above covers every lockstep peer too.
            for i in e.leaf_start..e.leaf_start + e.leaf_len {
                let sym = self.maps[i].map()[sym_of] as usize;
                let tr = self.dfas[i].transitions();
                self.states[i] = tr[self.states[i] as usize * self.strides[i] as usize + sym];
            }
            e.consumed += 1;
        }
        true
    }

    /// The `O(1)` reactive fast path for the cursor under `key`:
    /// `history · a ⊨ C` (∀) for the single-access program `a`, with
    /// zero allocations. A straight-line single-access program has
    /// exactly one trace, so ∀-satisfaction per conjunct is one
    /// transition + acceptance lookup. `None` to decline: `a` unknown or
    /// out of class, or the cursor missing or out of sync.
    pub fn check_one(&self, key: u32, access: &Access, table: &AccessTable) -> Option<bool> {
        let p = self.pos(key)?;
        let id = table.id_of(access)?;
        let e = &self.entries[p];
        if e.table_version != table.version() {
            return None;
        }
        if id.index() >= e.table_len {
            stacl_obs::count(stacl_obs::Counter::CursorOutOfClass);
            return None;
        }
        Some((e.leaf_start..e.leaf_start + e.leaf_len).all(|i| {
            let sym = self.maps[i].map()[id.index()];
            self.dfas[i].is_accepting(self.dfas[i].next(self.states[i], sym))
        }))
    }

    /// The general-program fast path for the cursor under `key`:
    /// `history · P ⊨ C` (∀) from the stored states. Builds the program
    /// automaton over just the program's own trace alphabet and checks
    /// emptiness of the mapped `Diff` product per leaf, without
    /// materialising it — neither side scales with table width. `None`
    /// to decline, e.g. when building the program's trace model interned
    /// accesses the cursor's class maps don't cover.
    pub fn check_residual_program(
        &self,
        key: u32,
        program: &Program,
        table: &mut AccessTable,
    ) -> Option<bool> {
        if let Program::Access(a) = program {
            return self.check_one(key, a, table);
        }
        let p = self.pos(key)?;
        let re = traces(program, table, AbstractionConfig::default());
        let e = &self.entries[p];
        if e.table_version != table.version() {
            return None;
        }
        let prog = Dfa::from_regex_with(&re, re.alphabet());
        for i in e.leaf_start..e.leaf_start + e.leaf_len {
            let map = self.maps[i].map_alphabet(&prog.alphabet)?;
            if prog
                .product_shortest_mapped(
                    prog.start,
                    &self.dfas[i],
                    self.states[i],
                    ProductMode::Diff,
                    &map,
                )
                .is_some()
            {
                return Some(false);
            }
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_residual_cached, Semantics};
    use crate::parser::parse_constraint;
    use stacl_sral::builder::{access, seq};
    use stacl_trace::AccessId;

    fn acc(op: &str, r: &str, s: &str) -> Access {
        Access::new(op, r, s)
    }

    /// A bank holding one cursor for `c` at `history`, under key 0.
    fn bank_of(
        c: &Constraint,
        history: &Trace,
        table: &mut AccessTable,
        cache: &mut ConstraintCache,
    ) -> CursorBank {
        let mut bank = CursorBank::new();
        assert!(bank.rebuild(0, c, history, table, cache, 0));
        bank
    }

    #[test]
    fn single_access_fast_path_matches_slow_path() {
        let c = parse_constraint("count(0, 2, resource=rsw)").unwrap();
        let mut table = AccessTable::new();
        let mut cache = ConstraintCache::new();
        let a = acc("exec", "rsw", "s1");
        let prog = Program::Access(a.clone());

        let mut bank = bank_of(&c, &Trace::empty(), &mut table, &mut cache);
        // The constraint mentions no concrete accesses, so `a` is
        // unknown until somebody interns it: the cursor must decline.
        assert_eq!(bank.check_one(0, &a, &table), None);

        // Drive three grants; after each, fast path ≡ slow path.
        let mut history = Vec::new();
        for step in 0..3 {
            let slow = check_residual_cached(
                &Trace::from_ids(history.iter().map(|x: &Access| table.id_of(x).unwrap())),
                &prog,
                &c,
                &mut table,
                Semantics::ForAll,
                &mut cache,
            );
            // (Re)build after the slow path interned the program access.
            if !bank.in_sync_with(0, &table) {
                let h = Trace::from_ids(history.iter().map(|x: &Access| table.id_of(x).unwrap()));
                assert!(bank.rebuild(0, &c, &h, &mut table, &mut cache, 0));
            }
            let fast = bank.check_one(0, &a, &table).expect("in sync now");
            assert_eq!(fast, slow.holds, "step {step}");
            // First two grants fit the cap, the third does not.
            assert_eq!(slow.holds, step < 2);
            history.push(a.clone());
            assert!(bank.advance_synced(0, &a, &table));
        }
    }

    #[test]
    fn general_program_fast_path_matches_slow_path() {
        let c = parse_constraint(
            "[read manifest @ s1] before [exec rsw @ s1] and count(0, 4, resource=rsw)",
        )
        .unwrap();
        let mut table = AccessTable::new();
        let mut cache = ConstraintCache::new();
        let good = seq([
            access("read", "manifest", "s1"),
            access("exec", "rsw", "s1"),
        ]);
        let bad = seq([
            access("exec", "rsw", "s1"),
            access("read", "manifest", "s1"),
        ]);

        for prog in [&good, &bad] {
            // Warm the table with the program's accesses via the slow path.
            let slow = check_residual_cached(
                &Trace::empty(),
                prog,
                &c,
                &mut table,
                Semantics::ForAll,
                &mut cache,
            );
            let bank = bank_of(&c, &Trace::empty(), &mut table, &mut cache);
            let fast = bank
                .check_residual_program(0, prog, &mut table)
                .expect("alphabet saturated");
            assert_eq!(fast, slow.holds);
        }
    }

    #[test]
    fn cursor_invalidates_on_table_divergence() {
        let c = parse_constraint("count(0, 5, op=exec)").unwrap();
        let mut table = AccessTable::new();
        let mut cache = ConstraintCache::new();
        let mut bank = bank_of(&c, &Trace::empty(), &mut table, &mut cache);
        assert!(bank.in_sync_with(0, &table));
        // A clone is in sync until it diverges.
        let mut other = table.clone();
        assert!(bank.in_sync_with(0, &other));
        let late = acc("exec", "rsw", "s9");
        other.intern(&late);
        assert!(!bank.in_sync_with(0, &other));
        // Advancing against the diverged table is refused, untouched.
        assert!(!bank.advance_synced(0, &late, &other));
        assert_eq!(bank.consumed(0), Some(0));
        // A history with an out-of-class id builds no cursor at all.
        let bad = Trace::from_ids([AccessId(999)]);
        assert!(!bank.rebuild(0, &c, &bad, &mut table, &mut cache, 0));
        assert!(!bank.contains(0));
    }

    #[test]
    fn consumed_counts_folded_history() {
        let c = parse_constraint("count(0, 9, op=exec)").unwrap();
        let mut table = AccessTable::new();
        let a = acc("exec", "rsw", "s1");
        table.intern(&a);
        let mut cache = ConstraintCache::new();
        let mut bank = bank_of(&c, &Trace::empty(), &mut table, &mut cache);
        assert_eq!(bank.consumed(0), Some(0));
        let h = Trace::from_ids([table.id_of(&a).unwrap(); 3]);
        assert!(bank.rebuild(0, &c, &h, &mut table, &mut cache, 0));
        assert_eq!(bank.consumed(0), Some(3));
    }

    /// Out-of-class accesses (interned after the cursor was built) make
    /// the cursor *decline* — never mis-verdict. Regression for the
    /// compressed-alphabet decline rule.
    #[test]
    fn compressed_cursor_declines_on_out_of_class_access() {
        let c = parse_constraint("count(0, 2, resource=rsw)").unwrap();
        let mut table = AccessTable::new();
        let mut cache = ConstraintCache::new();
        table.intern(&acc("exec", "rsw", "s1"));
        let mut bank = bank_of(&c, &Trace::empty(), &mut table, &mut cache);

        // A fresh access interned after the build: unknown to the class
        // map even though the table can resolve it.
        let late = acc("read", "late", "s9");
        table.intern(&late);
        assert!(!bank.in_sync_with(0, &table));
        assert_eq!(bank.check_one(0, &late, &table), None, "must decline");
        assert!(
            !bank.advance_synced(0, &late, &table),
            "must refuse to advance"
        );

        // The slow path still answers, and a rebuilt cursor agrees.
        let slow = check_residual_cached(
            &Trace::empty(),
            &Program::Access(late.clone()),
            &c,
            &mut table,
            Semantics::ForAll,
            &mut cache,
        );
        let rebuilt = bank_of(&c, &Trace::empty(), &mut table, &mut cache);
        assert_eq!(rebuilt.check_one(0, &late, &table), Some(slow.holds));
    }

    #[test]
    fn bank_advances_lockstep_cursors_together() {
        let c1 = parse_constraint("count(0, 2, resource=rsw)").unwrap();
        let c2 = parse_constraint("count(0, 4, op=exec)").unwrap();
        let mut table = AccessTable::new();
        let mut cache = ConstraintCache::new();
        let a = acc("exec", "rsw", "s1");
        table.intern(&a);
        let empty = Trace::empty();

        let mut bank = CursorBank::new();
        assert!(bank.rebuild(7, &c1, &empty, &mut table, &mut cache, 1));
        assert!(bank.rebuild(9, &c2, &empty, &mut table, &mut cache, 1));
        assert_eq!(bank.len(), 2);

        // Driving key 7 advances key 9 too: both are in lockstep.
        assert!(bank.advance_synced(7, &a, &table));
        assert_eq!(bank.consumed(7), Some(1));
        assert_eq!(bank.consumed(9), Some(1));

        // Independent one-cursor reference banks advanced one by one
        // agree with the shared bank's batched answers at every step.
        let mut r1 = bank_of(&c1, &empty, &mut table, &mut cache);
        let mut r2 = bank_of(&c2, &empty, &mut table, &mut cache);
        assert!(r1.advance_synced(0, &a, &table) && r2.advance_synced(0, &a, &table));
        for _ in 0..4 {
            assert_eq!(bank.check_one(7, &a, &table), r1.check_one(0, &a, &table));
            assert_eq!(bank.check_one(9, &a, &table), r2.check_one(0, &a, &table));
            assert!(bank.advance_synced(9, &a, &table));
            assert!(r1.advance_synced(0, &a, &table) && r2.advance_synced(0, &a, &table));
        }
    }

    #[test]
    fn bank_remove_compacts_leaf_ranges() {
        let c1 = parse_constraint("count(0, 2, resource=rsw) and count(0, 9, op=exec)").unwrap();
        let c2 = parse_constraint("count(0, 4, op=exec)").unwrap();
        let mut table = AccessTable::new();
        let mut cache = ConstraintCache::new();
        let a = acc("exec", "rsw", "s1");
        table.intern(&a);
        let empty = Trace::empty();

        let mut bank = CursorBank::new();
        assert!(bank.rebuild(1, &c1, &empty, &mut table, &mut cache, 0));
        assert!(bank.rebuild(2, &c2, &empty, &mut table, &mut cache, 0));
        assert!(bank.rebuild(3, &c2, &empty, &mut table, &mut cache, 0));
        bank.remove(1);
        assert!(!bank.contains(1));
        assert_eq!(bank.len(), 2);
        // Survivors still answer correctly after compaction.
        assert_eq!(bank.check_one(2, &a, &table), Some(true));
        assert_eq!(bank.check_one(3, &a, &table), Some(true));
        assert!(bank.advance_synced(2, &a, &table));
        assert_eq!(bank.consumed(3), Some(1), "lockstep peer advanced");
        // Generation re-stamp + retain.
        bank.set_generation_all(5);
        assert_eq!(bank.generation(2), Some(5));
        bank.retain_keys(|k| k == 3);
        assert_eq!(bank.len(), 1);
        assert!(bank.contains(3));
    }
}
