//! # stacl-ids — the workspace-wide identity layer
//!
//! The `trace` crate interns concrete accesses into dense `u32`
//! [`AccessId`](https://docs.rs)-style symbols so the automata work on
//! integers instead of strings. This crate extends that idea to every
//! name the decision gate touches: mobile objects, coalition servers,
//! roles, permissions and resources each get their own `u32` newtype, and
//! a thread-safe [`Interner`] maps names to ids exactly once — at
//! policy-load or enrollment time — so the per-access hot path hashes and
//! compares machine words, never heap strings.
//!
//! The crate is dependency-free and also hosts the small pieces of
//! infrastructure the rest of the workspace previously pulled from
//! external crates (which are unavailable in hermetic builds):
//!
//! * [`sync`] — `Mutex`/`RwLock` wrappers over `std::sync` with the
//!   ergonomic poison-free guard API the code was written against;
//! * [`rng`] — a tiny deterministic SplitMix64 generator for seeded
//!   workload generation;
//! * [`prop`] — a seeded property-test driver (`forall`) used by the
//!   randomized test suites;
//! * [`json`] — the shared pretty-printed JSON emitter behind metrics
//!   snapshots and bench artifacts;
//! * [`hash`] — FNV-1a, the one hasher behind every map on the decision
//!   path (seeded per process) and every cross-process hash (fixed).
//!
//! It also defines [`PolicyEpoch`], the coalition-wide version stamp of
//! an activated policy: epoch 0 is the policy a process booted with, and
//! every live rollout activates a strictly larger epoch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod json;
pub mod prop;
pub mod rng;
pub mod sync;

/// The coalition-wide version stamp of an activated policy.
///
/// Plain `u64` semantics by design: epochs are proposed by a coordinator,
/// must strictly increase at every activation, and are compared/stamped on
/// hot paths (every verdict carries the epoch it was decided under), so a
/// transparent alias keeps the stamp allocation- and ceremony-free.
pub type PolicyEpoch = u64;

use std::fmt;
use std::sync::Arc;

use crate::hash::FnvHashMap;
use crate::sync::RwLock;

/// A dense `u32`-backed identifier kind. Implemented by the typed id
/// newtypes ([`ObjectId`], [`ServerId`], [`RoleId`], [`PermId`],
/// [`ResourceId`]); each kind gets its own [`Interner`] namespace so ids
/// of different kinds cannot be confused.
pub trait IdKind: Copy + Eq + std::hash::Hash + fmt::Debug {
    /// Construct from a dense index.
    fn from_index(index: u32) -> Self;
    /// The dense index backing this id.
    fn index(self) -> u32;
    /// The index as `usize`, for direct `Vec` indexing.
    fn as_usize(self) -> usize {
        self.index() as usize
    }
}

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub struct $name(pub u32);

        impl IdKind for $name {
            fn from_index(index: u32) -> Self {
                $name(index)
            }
            fn index(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

define_id!(
    /// An interned mobile-object (agent) identity.
    ObjectId
);
define_id!(
    /// An interned coalition-server name.
    ServerId
);
define_id!(
    /// An interned RBAC role name.
    RoleId
);
define_id!(
    /// An interned permission name.
    PermId
);
define_id!(
    /// An interned shared-resource name.
    ResourceId
);
define_id!(
    /// An interned validity-class name (shared temporal budgets).
    ClassId
);

/// A set of dense typed ids, one bit per id index: membership tests and
/// updates index a word directly, with no hashing. Sized by the largest
/// id ever inserted, so it suits the small id spaces a policy assigns
/// (permissions, validity classes).
#[derive(Clone)]
pub struct IdSet<I: IdKind> {
    words: Vec<u64>,
    _kind: std::marker::PhantomData<fn() -> I>,
}

impl<I: IdKind> Default for IdSet<I> {
    fn default() -> Self {
        IdSet {
            words: Vec::new(),
            _kind: std::marker::PhantomData,
        }
    }
}

impl<I: IdKind> fmt::Debug for IdSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<I: IdKind> IdSet<I> {
    /// An empty set.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Is `id` in the set?
    #[inline]
    pub fn contains(&self, id: I) -> bool {
        let i = id.as_usize();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Add `id`.
    #[inline]
    pub fn insert(&mut self, id: I) {
        let i = id.as_usize();
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove `id` (no-op when absent).
    #[inline]
    pub fn remove(&mut self, id: I) {
        let i = id.as_usize();
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// Keep only the ids that are also in `other`.
    pub fn intersect_with(&mut self, other: &IdSet<I>) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// The members, in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| I::from_index((i * 64 + b) as u32))
        })
    }
}

/// A thread-safe string interner producing dense typed ids.
///
/// Names are interned once (write lock) and thereafter resolved by cheap
/// read-locked lookups; [`Interner::get`] and [`Interner::resolve`]
/// never allocate, so they are safe to call on the per-access hot path.
pub struct Interner<I: IdKind> {
    inner: RwLock<Inner>,
    _kind: std::marker::PhantomData<fn() -> I>,
}

struct Inner {
    names: Vec<Arc<str>>,
    index: FnvHashMap<Arc<str>, u32>,
}

impl<I: IdKind> Default for Interner<I> {
    fn default() -> Self {
        Interner {
            inner: RwLock::new(Inner {
                names: Vec::new(),
                index: FnvHashMap::default(),
            }),
            _kind: std::marker::PhantomData,
        }
    }
}

impl<I: IdKind> fmt::Debug for Interner<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("Interner")
            .field("len", &inner.names.len())
            .finish()
    }
}

impl<I: IdKind> Interner<I> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern a name, returning its id (existing or freshly assigned).
    pub fn intern(&self, name: &str) -> I {
        if let Some(id) = self.get(name) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&raw) = inner.index.get(name) {
            return I::from_index(raw);
        }
        let raw = u32::try_from(inner.names.len()).expect("interner capacity exceeded");
        let shared: Arc<str> = Arc::from(name);
        inner.names.push(Arc::clone(&shared));
        inner.index.insert(shared, raw);
        I::from_index(raw)
    }

    /// Look up an already-interned name without allocating.
    pub fn get(&self, name: &str) -> Option<I> {
        self.inner
            .read()
            .index
            .get(name)
            .copied()
            .map(I::from_index)
    }

    /// The name behind an id. Panics if the id was not produced by this
    /// interner.
    pub fn resolve(&self, id: I) -> Arc<str> {
        self.try_resolve(id).expect("id not in interner")
    }

    /// The name behind an id, if it belongs to this interner.
    pub fn try_resolve(&self, id: I) -> Option<Arc<str>> {
        self.inner.read().names.get(id.as_usize()).cloned()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all interned names in id order.
    pub fn snapshot(&self) -> Vec<Arc<str>> {
        self.inner.read().names.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let it: Interner<ObjectId> = Interner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        assert_eq!(a, ObjectId(0));
        assert_eq!(b, ObjectId(1));
        assert_eq!(it.intern("alpha"), a);
        assert_eq!(it.len(), 2);
        assert_eq!(&*it.resolve(a), "alpha");
        assert_eq!(it.get("beta"), Some(b));
        assert_eq!(it.get("gamma"), None);
    }

    #[test]
    fn id_set_tracks_membership() {
        let mut s: IdSet<PermId> = IdSet::new();
        assert!(!s.contains(PermId(3)));
        s.insert(PermId(3));
        s.insert(PermId(70));
        s.insert(PermId(3));
        assert!(s.contains(PermId(3)) && s.contains(PermId(70)));
        assert!(!s.contains(PermId(4)) && !s.contains(PermId(500)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![PermId(3), PermId(70)]);
        s.remove(PermId(3));
        s.remove(PermId(900));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![PermId(70)]);
        let mut keep: IdSet<PermId> = IdSet::new();
        keep.insert(PermId(1));
        s.insert(PermId(1));
        s.intersect_with(&keep);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![PermId(1)]);
    }

    #[test]
    fn kinds_are_distinct_types() {
        let objects: Interner<ObjectId> = Interner::new();
        let roles: Interner<RoleId> = Interner::new();
        let o = objects.intern("x");
        let r = roles.intern("x");
        assert_eq!(o.index(), r.index());
        // (o == r) would not compile: the ids are different types.
    }

    #[test]
    fn concurrent_interning_agrees() {
        let it: Arc<Interner<ServerId>> = Arc::new(Interner::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let it = Arc::clone(&it);
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| it.intern(&format!("s{}", (i + t) % 50)).index())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(it.len(), 50);
        // Every name resolves back to itself.
        for i in 0..it.len() as u32 {
            let name = it.resolve(ServerId(i));
            assert_eq!(it.get(&name), Some(ServerId(i)));
        }
    }
}
