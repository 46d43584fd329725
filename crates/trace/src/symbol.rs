//! Interning of accesses into dense `u32` symbols.
//!
//! Automata over `(op, resource, server)` triples would chase pointers and
//! hash strings on every transition. Instead, accesses are interned once
//! into an [`AccessTable`], and all traces, regexes and automata operate on
//! [`AccessId`]s — plain `u32`s that index dense transition tables.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use stacl_ids::hash::FnvHashMap;
use stacl_sral::Access;

/// Global source of table-version stamps. Every *mutation* of any
/// [`AccessTable`] draws a fresh, process-unique stamp, so two tables
/// carry the same version only when one is an unmutated clone of the
/// other (or both are empty) — i.e. equal versions imply identical
/// id ↔ access mappings.
static NEXT_TABLE_VERSION: AtomicU64 = AtomicU64::new(1);

/// A dense identifier for an interned [`Access`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AccessId(pub u32);

impl AccessId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AccessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Number of [`IdentityMemo`] slots; a power of two.
const MEMO_SLOTS: usize = 32;

/// An identity-first lookup in front of a hash index over a list of
/// distinct accesses. Warm callers pass accesses whose three names are
/// the very allocations the list stores, so comparing three pointers
/// stands in for hashing three strings.
///
/// Slot `mix(addresses of the three names)` holds `index + 1` of the
/// entry last stored under it, 0 meaning empty. A slot answers only when
/// the entry it names holds the query's own name allocations
/// ([`Access::same_names`]): two live `Arc`s at one address are one
/// allocation, so that entry equals the query, and a list of distinct
/// accesses holds it at exactly the index the hash index would return.
/// An empty, stale or colliding slot therefore costs only the fallback.
#[derive(Clone, Default, Debug)]
pub struct IdentityMemo {
    slots: [u32; MEMO_SLOTS],
}

impl IdentityMemo {
    /// The slot of `a`: a multiplicative mix of its name addresses.
    #[inline]
    fn slot(a: &Access) -> usize {
        let h = (a.op.as_ptr() as u64)
            ^ (a.resource.as_ptr() as u64).rotate_left(21)
            ^ (a.server.as_ptr() as u64).rotate_left(42);
        (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// The index of `a` in `entries`, if its slot names an entry holding
    /// `a`'s own name allocations. `entries` must hold each access at
    /// most once; `None` says nothing about whether `a` is in it.
    #[inline]
    pub fn get(&self, a: &Access, entries: &[Access]) -> Option<u32> {
        let i = self.slots[Self::slot(a)].checked_sub(1)?;
        entries.get(i as usize)?.same_names(a).then_some(i)
    }

    /// Remember that `a`, as stored, sits at `index`.
    pub fn fill(&mut self, a: &Access, index: u32) {
        if let Some(v) = index.checked_add(1) {
            self.slots[Self::slot(a)] = v;
        }
    }
}

/// A bidirectional interner between [`Access`]es and [`AccessId`]s.
///
/// The table only ever grows; ids are stable for the lifetime of the table,
/// so they can be stored in long-lived traces, proofs and automata.
#[derive(Clone, Default, Debug)]
pub struct AccessTable {
    by_access: FnvHashMap<Access, AccessId>,
    by_id: Vec<Access>,
    /// Identity-first index over `by_id`, consulted before `by_access`.
    /// A clone shares `by_id`'s name allocations, so the copy stays valid.
    memo: IdentityMemo,
    /// Lineage stamp: 0 for a fresh empty table, otherwise the globally
    /// unique value drawn by the table's most recent new interning.
    /// Cloning copies the stamp (the clone has identical contents);
    /// equal stamps therefore guarantee identical id mappings, which is
    /// what incremental cursors check before trusting stored symbol
    /// indices against a caller-supplied table.
    version: u64,
}

impl AccessTable {
    /// An empty table.
    pub fn new() -> Self {
        AccessTable::default()
    }

    /// Intern `a`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, a: &Access) -> AccessId {
        if let Some(id) = self.id_of(a) {
            return id;
        }
        let id = AccessId(
            u32::try_from(self.by_id.len()).expect("more than u32::MAX distinct accesses"),
        );
        self.by_access.insert(a.clone(), id);
        self.by_id.push(a.clone());
        self.memo.fill(a, id.0);
        self.version = NEXT_TABLE_VERSION.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// The table's lineage stamp (see the `version` field). Two tables
    /// with equal versions have identical contents; the converse does
    /// not hold (independently grown tables always differ).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Intern an access given its three components.
    pub fn intern_parts(
        &mut self,
        op: impl AsRef<str>,
        resource: impl AsRef<str>,
        server: impl AsRef<str>,
    ) -> AccessId {
        self.intern(&Access::new(op, resource, server))
    }

    /// Resolve an id back to its access. Panics on a foreign id.
    pub fn resolve(&self, id: AccessId) -> &Access {
        &self.by_id[id.index()]
    }

    /// The id of `a`, if it has been interned.
    pub fn id_of(&self, a: &Access) -> Option<AccessId> {
        match self.memo.get(a, &self.by_id) {
            Some(i) => Some(AccessId(i)),
            None => self.by_access.get(a).copied(),
        }
    }

    /// Number of interned accesses.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterate `(id, access)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AccessId, &Access)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, a)| (AccessId(i as u32), a))
    }
}

/// A *local* dense alphabet: the subset of interned accesses a particular
/// automaton ranges over, renumbered `0..len`.
///
/// Different programs/constraints mention different access subsets; using a
/// local alphabet keeps transition tables small. Automata built over
/// different alphabets are compared by first re-building them over the
/// union alphabet (see [`Alphabet::union`]).
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct Alphabet {
    ids: Vec<AccessId>,
    index: FnvHashMap<AccessId, u32>,
}

impl Alphabet {
    /// An empty alphabet.
    pub fn new() -> Self {
        Alphabet::default()
    }

    /// Build from an iterator of ids, deduplicating while preserving first
    /// occurrence order.
    pub fn from_ids(ids: impl IntoIterator<Item = AccessId>) -> Self {
        let mut al = Alphabet::new();
        for id in ids {
            al.insert(id);
        }
        al
    }

    /// Insert an id, returning its local index.
    pub fn insert(&mut self, id: AccessId) -> u32 {
        if let Some(&ix) = self.index.get(&id) {
            return ix;
        }
        let ix = self.ids.len() as u32;
        self.ids.push(id);
        self.index.insert(id, ix);
        ix
    }

    /// The local index of `id`, if present.
    pub fn index_of(&self, id: AccessId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The global id at local index `ix`.
    pub fn id_at(&self, ix: u32) -> AccessId {
        self.ids[ix as usize]
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the alphabet has no symbols.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterate over the global ids in local-index order.
    pub fn ids(&self) -> impl Iterator<Item = AccessId> + '_ {
        self.ids.iter().copied()
    }

    /// The union of two alphabets (left operand's order first).
    pub fn union(&self, other: &Alphabet) -> Alphabet {
        let mut out = self.clone();
        for id in other.ids() {
            out.insert(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = AccessTable::new();
        let a = Access::new("read", "r1", "s1");
        let id1 = t.intern(&a);
        let id2 = t.intern(&a);
        assert_eq!(id1, id2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_accesses_get_distinct_ids() {
        let mut t = AccessTable::new();
        let i1 = t.intern_parts("read", "r1", "s1");
        let i2 = t.intern_parts("read", "r1", "s2");
        let i3 = t.intern_parts("write", "r1", "s1");
        assert_ne!(i1, i2);
        assert_ne!(i1, i3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut t = AccessTable::new();
        let a = Access::new("exec", "app", "s3");
        let id = t.intern(&a);
        assert_eq!(t.resolve(id), &a);
        assert_eq!(t.id_of(&a), Some(id));
        assert_eq!(t.id_of(&Access::new("x", "y", "z")), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut t = AccessTable::new();
        let i0 = t.intern_parts("a", "r", "s");
        let i1 = t.intern_parts("b", "r", "s");
        let pairs: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(pairs, vec![i0, i1]);
    }

    #[test]
    fn version_tracks_lineage() {
        let mut t = AccessTable::new();
        assert_eq!(t.version(), 0, "fresh empty tables stamp 0");
        t.intern_parts("read", "r1", "s1");
        let v1 = t.version();
        assert_ne!(v1, 0);
        // Re-interning an existing access does not change the contents
        // and must not change the stamp.
        t.intern_parts("read", "r1", "s1");
        assert_eq!(t.version(), v1);
        // A clone shares the stamp (identical contents) …
        let mut u = t.clone();
        assert_eq!(u.version(), v1);
        // … until either side diverges, which draws process-unique
        // stamps on both.
        u.intern_parts("write", "r1", "s1");
        t.intern_parts("exec", "r1", "s1");
        assert_ne!(u.version(), v1);
        assert_ne!(t.version(), v1);
        assert_ne!(t.version(), u.version());
    }

    #[test]
    fn independently_grown_tables_never_share_versions() {
        let mut a = AccessTable::new();
        let mut b = AccessTable::new();
        a.intern_parts("read", "r", "s");
        b.intern_parts("read", "r", "s");
        // Same contents, but no clone lineage: stamps differ, so cursors
        // built against one can never be replayed against the other.
        assert_ne!(a.version(), b.version());
    }

    #[test]
    fn memo_answers_only_for_the_stored_allocations() {
        let a = Access::new("read", "r1", "s1");
        let b = Access::new("read", "r2", "s1");
        let entries = vec![a.clone(), b.clone()];
        let mut memo = IdentityMemo::default();
        assert_eq!(memo.get(&a, &entries), None, "empty slot");
        memo.fill(&a, 0);
        assert_eq!(memo.get(&a, &entries), Some(0));
        assert_eq!(memo.get(&Access::new("read", "r1", "s1"), &entries), None);
        // A slot naming an entry with other allocations (stale, or a
        // collision) or past the end of the list answers nothing.
        memo.fill(&b, 0);
        assert_eq!(memo.get(&b, &entries), None);
        memo.fill(&b, 7);
        assert_eq!(memo.get(&b, &entries), None);
        memo.fill(&b, 1);
        assert_eq!(memo.get(&b, &entries), Some(1));
    }

    #[test]
    fn alphabet_dedupes_and_orders() {
        let al = Alphabet::from_ids([AccessId(5), AccessId(3), AccessId(5)]);
        assert_eq!(al.len(), 2);
        assert_eq!(al.index_of(AccessId(5)), Some(0));
        assert_eq!(al.index_of(AccessId(3)), Some(1));
        assert_eq!(al.id_at(1), AccessId(3));
    }

    #[test]
    fn alphabet_union() {
        let a = Alphabet::from_ids([AccessId(1), AccessId(2)]);
        let b = Alphabet::from_ids([AccessId(2), AccessId(7)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(u.index_of(AccessId(7)), Some(2));
    }
}
