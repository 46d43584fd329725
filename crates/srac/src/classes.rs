//! Per-constraint symbol-class compression of the checking alphabet.
//!
//! A compiled constraint automaton's transition table is
//! `states × alphabet` wide. Compiled over the *full-table* alphabet,
//! tables would grow with the coalition's whole vocabulary, thrash
//! cache, and make every cursor advance touch a full-width row even
//! though the constraint can only ever distinguish a handful of symbols
//! (EXPERIMENTS.md E17 records the cost), so the gate compiles every
//! cursor leaf over the compressed alphabet instead.
//!
//! [`SymbolClasses`] partitions the interned vocabulary by what the
//! constraint can observe: for every mentioned access (atoms and
//! ordering operands) an equality bit, and for every cardinality
//! selector a membership bit. Two global ids with identical signatures
//! are *indistinguishable to the constraint* — the compiled automaton's
//! rows for them would be identical — so each signature class collapses
//! to one representative symbol and the leaf automaton is compiled over
//! the representatives only (typically 2–4 symbols, independent of
//! vocabulary size).
//!
//! ## Why verdicts are preserved
//!
//! Let `h` map each global id to its class representative. By
//! construction `h` is a morphism for the constraint's semantics: a
//! trace `t` satisfies `C` iff `h(t)` does, because every atom,
//! ordering and selector test gives the same answer on `id` and
//! `h(id)`. Hence the compressed automaton `A'_C` with
//! `A'_C(h(t)) = A_C(t)` is language-equivalent to the full-width
//! `A_C` *modulo `h`*, and the residual check
//! `L(A_P) ⊆ L(A_C)` becomes emptiness of the **mapped product**
//! ([`stacl_trace::Dfa::product_shortest_mapped`]) that steps the
//! program automaton on its own symbols and the constraint automaton on
//! `class_of[sym]` — pinned by the `leaf_compressed_equals_leaf_full`
//! property test. Ids interned *after* the classes were built are
//! outside the map's domain; consumers must **decline** (fall back to
//! the slow path) on them, mirroring the cursor's table-version rule.

use stacl_ids::hash::FnvHashMap;
use stacl_trace::{AccessId, AccessTable, Alphabet, Trace};

use crate::ast::Constraint;
use crate::selector::Selector;

/// The symbol-class partition of one constraint over one table snapshot:
/// a dense global-id → local-class map plus one representative global id
/// per class. Built once per `(constraint, table version)` and shared by
/// every cursor leaf compiled from that cache entry.
#[derive(Clone, Debug)]
pub struct SymbolClasses {
    /// `class_of[id] = local class symbol`, for every id interned when
    /// the classes were built (`id < class_of.len()`).
    class_of: Vec<u32>,
    /// One representative global id per class, in class order — the
    /// compressed alphabet the leaf automaton is compiled over.
    reps: Vec<AccessId>,
    /// Version stamp of the table the partition was computed from.
    table_version: u64,
}

impl SymbolClasses {
    /// The compressing partition: one class per distinct
    /// (mentioned-access equality, selector membership) signature.
    /// Every mentioned access that is interned lands in a singleton
    /// class (its own equality bit isolates it), so compiling atoms and
    /// orderings over the representatives is exact.
    pub fn build(c: &Constraint, table: &AccessTable) -> SymbolClasses {
        let mut mentioned: Vec<AccessId> = Vec::new();
        let mut selectors: Vec<&Selector> = Vec::new();
        collect_features(c, table, &mut mentioned, &mut selectors);
        mentioned.sort_unstable();
        mentioned.dedup();

        let mut sig_index: FnvHashMap<Vec<bool>, u32> = FnvHashMap::default();
        let mut class_of = Vec::with_capacity(table.len());
        let mut reps = Vec::new();
        let mut sig = Vec::with_capacity(mentioned.len() + selectors.len());
        for (id, access) in table.iter() {
            sig.clear();
            sig.extend(mentioned.iter().map(|&m| m == id));
            sig.extend(selectors.iter().map(|s| s.matches(access)));
            let cls = match sig_index.get(&sig) {
                Some(&cls) => cls,
                None => {
                    let cls = reps.len() as u32;
                    sig_index.insert(sig.clone(), cls);
                    reps.push(id);
                    cls
                }
            };
            class_of.push(cls);
        }
        SymbolClasses {
            class_of,
            reps,
            table_version: table.version(),
        }
    }

    /// The compressed alphabet (class representatives, in class order)
    /// the leaf automaton must be compiled over.
    pub fn alphabet(&self) -> Alphabet {
        Alphabet::from_ids(self.reps.iter().copied())
    }

    /// The dense global-id → class map — the `map` argument of
    /// [`stacl_trace::Dfa::product_shortest_mapped`]. Indexed by
    /// `AccessId::index`; ids at or beyond `self.domain_len()` are out
    /// of class and must decline.
    #[inline]
    pub fn map(&self) -> &[u32] {
        &self.class_of
    }

    /// The class of `id`, or `None` when `id` was interned after the
    /// partition was built (out of class: decline to the slow path).
    #[inline]
    pub fn class_of(&self, id: AccessId) -> Option<u32> {
        self.class_of.get(id.index()).copied()
    }

    /// Number of global ids covered (the table length at build time).
    pub fn domain_len(&self) -> usize {
        self.class_of.len()
    }

    /// Number of symbol classes (the compressed alphabet width).
    pub fn num_classes(&self) -> usize {
        self.reps.len()
    }

    /// Version stamp of the table the partition was computed from.
    pub fn table_version(&self) -> u64 {
        self.table_version
    }

    /// Map a trace of global ids through the partition to a trace of
    /// class representatives — `h(t)` of the module docs. `None` when
    /// any id is out of class.
    pub fn map_trace(&self, t: &Trace) -> Option<Trace> {
        let mut out = Vec::with_capacity(t.0.len());
        for &id in &t.0 {
            out.push(self.reps[self.class_of(id)? as usize]);
        }
        Some(Trace::from_ids(out))
    }

    /// Bridge a *program* automaton's (narrow) alphabet into this
    /// partition: one class per program-local symbol, in alphabet
    /// order — the `map` argument
    /// [`product_shortest_mapped`](stacl_trace::Dfa::product_shortest_mapped)
    /// wants. Program automata are compiled over just their own trace
    /// alphabet (a handful of symbols), never the full table, so the
    /// residual product stops scaling with coalition vocabulary; this
    /// map is what re-anchors those local symbols to the constraint's
    /// classes. `None` when any program symbol was interned after the
    /// partition was built (decline to the slow path).
    pub fn map_alphabet(&self, al: &Alphabet) -> Option<Vec<u32>> {
        al.ids().map(|id| self.class_of(id)).collect()
    }
}

/// Collect the constraint's observation features: interned mentioned
/// accesses (atoms, ordering operands) and cardinality selectors.
/// Un-interned mentions contribute nothing — the compiler treats them as
/// unsatisfiable atoms regardless of alphabet, so no class needs to
/// isolate them.
fn collect_features<'c>(
    c: &'c Constraint,
    table: &AccessTable,
    mentioned: &mut Vec<AccessId>,
    selectors: &mut Vec<&'c Selector>,
) {
    match c {
        Constraint::True | Constraint::False => {}
        Constraint::Atom(a) => mentioned.extend(table.id_of(a)),
        Constraint::Ordered(a, b) => {
            mentioned.extend(table.id_of(a));
            mentioned.extend(table.id_of(b));
        }
        Constraint::Card { selector, .. } => selectors.push(selector),
        Constraint::And(a, b) | Constraint::Or(a, b) => {
            collect_features(a, table, mentioned, selectors);
            collect_features(b, table, mentioned, selectors);
        }
        Constraint::Not(inner) => collect_features(inner, table, mentioned, selectors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraint;
    use stacl_sral::Access;

    fn table_with(n: usize) -> AccessTable {
        let mut t = AccessTable::new();
        for i in 0..n {
            t.intern(&Access::new(
                "exec",
                if i % 2 == 0 { "rsw" } else { "db" },
                format!("s{i}"),
            ));
        }
        t
    }

    #[test]
    fn card_constraint_compresses_to_two_classes() {
        // The class count does not grow with the table's width.
        for width in [64, 4096] {
            let table = table_with(width);
            let c = parse_constraint("count(0, 5, resource=rsw)").unwrap();
            let cls = SymbolClasses::build(&c, &table);
            assert_eq!(cls.num_classes(), 2, "rsw-matching vs everything else");
            assert_eq!(cls.domain_len(), width);
            // All rsw accesses share a class, all db accesses the other.
            let c0 = cls.class_of(AccessId(0)).unwrap();
            let c1 = cls.class_of(AccessId(1)).unwrap();
            assert_ne!(c0, c1);
            for (id, a) in table.iter() {
                let expect = if &*a.resource == "rsw" { c0 } else { c1 };
                assert_eq!(cls.class_of(id), Some(expect));
            }
        }
    }

    #[test]
    fn mentioned_accesses_are_singleton_classes() {
        let mut table = table_with(16);
        let special = Access::new("exec", "rsw", "s2");
        let sid = table.intern(&special); // pre-existing: s2 is even ⇒ rsw
        let c = Constraint::Atom(special);
        let cls = SymbolClasses::build(&c, &table);
        let special_class = cls.class_of(sid).unwrap();
        let mates = (0..table.len() as u32)
            .filter(|&i| cls.class_of(AccessId(i)) == Some(special_class))
            .count();
        assert_eq!(mates, 1, "the mentioned access must be isolated");
        assert_eq!(cls.num_classes(), 2);
    }

    #[test]
    fn out_of_domain_ids_are_none() {
        let table = table_with(4);
        let c = parse_constraint("count(0, 5, resource=rsw)").unwrap();
        let cls = SymbolClasses::build(&c, &table);
        assert_eq!(cls.class_of(AccessId(4)), None);
        assert!(cls.map_trace(&Trace::from_ids([AccessId(4)])).is_none());
    }
}
