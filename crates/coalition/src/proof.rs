//! Execution proofs — the paper's `Pr_x(·)`.
//!
//! §2: "when an access request to a shared resource is executed by a
//! coalition server, an execution proof will be issued to the mobile
//! object. It records the information of (o, op, r, s) for the access, and
//! the execution time." The proof store carries the proofs a mobile object
//! has accumulated across servers; `Pr_x(a)` is true iff a proof for `a`
//! exists.
//!
//! The store is **sharded per mobile object**: each object's proofs live
//! in their own lock-protected shard, so the dominant query —
//! [`ProofStore::history_of`] for the requesting object — touches only
//! that object's shard and never scans (or contends with) the proofs of
//! its companions. A global atomic sequence number preserves the
//! coalition-wide issue order; cross-object views
//! ([`ProofStore::combined_history`], [`ProofStore::snapshot`]) merge the
//! shards by sequence number.
//!
//! ## Compact from issue
//!
//! A shard never materialises an [`ExecutionProof`]. The object name is
//! stored once per shard, each distinct access once in a per-shard symbol
//! list (found by name identity first and by hash on a miss, so issuing
//! stays O(1) however many distinct accesses an object makes, and a warm
//! issue hashes nothing), and each proof is a `(symbol, seq, time)`
//! triple across three parallel columns. Issuing a proof therefore
//! allocates nothing once the object's vocabulary is known, and every
//! query reconstructs proofs exactly from the columns.
//!
//! ## Watermark compaction
//!
//! Shards are append-only. Once every live cursor for an object has
//! consumed past watermark `n`, the prefix `[0, n)` can be sealed
//! ([`ProofStore::compact_prefix`]): the shard's compaction base moves to
//! `n`. Sealing changes no query and no verdict; it records how much of
//! the history no cursor still needs. [`ProofStore::live_proof_count`]
//! counts the unsealed proofs (the custody-rebalance trigger and the
//! million-object bench's proof-memory figure), and
//! [`ProofStore::compaction_base`] exposes the base: custody handoffs
//! carry it so the importer can validate the exported watermark against
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stacl_ids::hash::FnvHashMap;
use stacl_ids::sync::RwLock;
use stacl_sral::ast::Name;
use stacl_sral::Access;
use stacl_temporal::TimePoint;
use stacl_trace::{AccessTable, IdentityMemo, Trace};

/// One execution proof: who did what, where, when.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecutionProof {
    /// The mobile object the proof was issued to.
    pub object: Name,
    /// The proven access (op, resource, server).
    pub access: Access,
    /// The server-local execution time.
    pub time: TimePoint,
    /// Monotone sequence number within the store (issue order).
    pub seq: u64,
}

/// One object's shard: its proofs in issue order, structure-of-arrays.
/// Distinct accesses are interned once in `symbols` (first-appearance
/// order, indexed by `memo` by identity first, then by `index`); proof
/// `i` is `(sym[i], seqs[i], times[i])`.
#[derive(Default, Debug)]
struct ShardState {
    object: Name,
    symbols: Vec<Access>,
    index: FnvHashMap<Access, u32>,
    memo: IdentityMemo,
    sym: Vec<u32>,
    seqs: Vec<u64>,
    times: Vec<f64>,
    /// The compaction base: proofs below it are sealed.
    base: usize,
}

impl ShardState {
    /// Total logical length — the shard's watermark.
    fn len(&self) -> usize {
        self.sym.len()
    }

    fn push(&mut self, access: Access, seq: u64, time: TimePoint) {
        let known = self.memo.get(&access, &self.symbols);
        let s = match known.or_else(|| self.index.get(&access).copied()) {
            Some(s) => s,
            None => {
                let s = self.symbols.len() as u32;
                self.memo.fill(&access, s);
                self.symbols.push(access.clone());
                self.index.insert(access, s);
                s
            }
        };
        self.sym.push(s);
        self.seqs.push(seq);
        self.times.push(time.seconds());
    }

    /// Reconstruct the `i`-th proof exactly as it was issued.
    fn proof(&self, i: usize) -> ExecutionProof {
        ExecutionProof {
            object: self.object.clone(),
            access: self.symbols[self.sym[i] as usize].clone(),
            time: TimePoint::new(self.times[i]),
            seq: self.seqs[i],
        }
    }

    fn proves(&self, access: &Access) -> bool {
        self.index.contains_key(access)
    }
}

/// One object's proofs, read-locked for the duration of a
/// [`ProofStore::read_history`] call.
pub struct History<'a>(Option<&'a ShardState>);

impl<'a> History<'a> {
    /// The object's append watermark (see [`ProofStore::watermark_of`]).
    pub fn watermark(&self) -> usize {
        self.0.map_or(0, ShardState::len)
    }

    /// The proven accesses from logical index `from` on, in issue order.
    pub fn suffix(&self, from: usize) -> impl Iterator<Item = &'a Access> + 'a {
        let (symbols, sym): (&'a [Access], &'a [u32]) = match self.0 {
            Some(st) => (&st.symbols, st.sym.get(from..).unwrap_or(&[])),
            None => (&[], &[]),
        };
        sym.iter().map(move |&s| &symbols[s as usize])
    }
}

type Shard = Arc<RwLock<ShardState>>;

/// A resolved handle on one object's shard, for a caller that reads the
/// same object's history on every decision: reading through it skips
/// the shard-map read lock and the name hash. It is valid only for the
/// store that resolved it (a store never replaces or removes a shard),
/// so it also remembers that store, and
/// [`ProofStore::read_history_via`] re-resolves a handle from any other.
pub struct ShardRef {
    store: Arc<Inner>,
    shard: Shard,
}

/// Opaque: printing the store behind the handle would dump every shard.
impl std::fmt::Debug for ShardRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRef").finish_non_exhaustive()
    }
}

#[derive(Default, Debug)]
struct Inner {
    /// Global issue counter: proofs across all shards are totally ordered
    /// by `seq`.
    seq: AtomicU64,
    /// object → its own proof shard.
    shards: RwLock<FnvHashMap<Name, Shard>>,
}

/// A coalition's collection of execution proofs, sharded per mobile
/// object. `Clone` shares the underlying store.
#[derive(Clone, Default, Debug)]
pub struct ProofStore {
    inner: Arc<Inner>,
}

impl ProofStore {
    /// An empty store.
    pub fn new() -> Self {
        ProofStore::default()
    }

    /// The shard for `object`, if it exists.
    fn shard(&self, object: &str) -> Option<Shard> {
        self.inner.shards.read().get(object).cloned()
    }

    /// The shard for `object`, creating it if needed.
    fn shard_or_create(&self, object: &str) -> Shard {
        let mut shards = self.inner.shards.write();
        let s = shards
            .entry(stacl_sral::ast::name(object))
            .or_insert_with_key(|k| {
                Arc::new(RwLock::new(ShardState {
                    object: k.clone(),
                    ..ShardState::default()
                }))
            });
        Arc::clone(s)
    }

    /// Issue a proof for `access` by `object` at `time`, returning its
    /// sequence number.
    pub fn issue(&self, object: impl AsRef<str>, access: Access, time: TimePoint) -> u64 {
        let object = object.as_ref();
        // The sequence number is drawn under the shard lock so that the
        // per-shard order always agrees with the global order.
        let push = |st: &mut ShardState| {
            let seq = self.inner.seq.fetch_add(1, Ordering::SeqCst);
            st.push(access, seq, time);
            seq
        };
        let shards = self.inner.shards.read();
        let seq = match shards.get(object) {
            Some(s) => push(&mut s.write()),
            None => {
                drop(shards);
                push(&mut self.shard_or_create(object).write())
            }
        };
        stacl_obs::count(stacl_obs::Counter::WatermarkAdvance);
        seq
    }

    /// `Pr_x(a)`: does a proof for this exact access exist (for any
    /// object)?
    pub fn proven(&self, access: &Access) -> bool {
        let shards = self.inner.shards.read();
        shards.values().any(|s| s.read().proves(access))
    }

    /// `Pr_x(a)` restricted to one mobile object — touches only that
    /// object's shard.
    pub fn proven_by(&self, object: &str, access: &Access) -> bool {
        self.read_history(object, |h| h.0.is_some_and(|st| st.proves(access)))
    }

    /// The history trace of one object (its proven accesses in issue
    /// order), interned through `table`. Touches only that object's shard.
    pub fn history_of(&self, object: &str, table: &mut AccessTable) -> Trace {
        self.read_history(object, |h| match h.0 {
            Some(st) => {
                // Interning the handful of distinct symbols first turns
                // the history into a plain index translation.
                let ids: Vec<_> = st.symbols.iter().map(|a| table.intern(a)).collect();
                Trace::from_ids(st.sym.iter().map(|&i| ids[i as usize]))
            }
            None => Trace::empty(),
        })
    }

    /// Number of proofs held by one object, without touching other shards.
    pub fn len_of(&self, object: &str) -> usize {
        self.read_history(object, |h| h.watermark())
    }

    /// The object's append watermark: how many proofs have been issued
    /// for it so far. Shards are strictly append-only, so the watermark
    /// is monotone — an incremental cursor that has consumed `n ≤
    /// watermark` proofs can catch up by visiting exactly the suffix
    /// `[n, watermark)` (see [`ProofStore::read_history`]); a cursor
    /// with `n > watermark` was built against a *different* store and
    /// must be invalidated. Compaction never moves the watermark.
    pub fn watermark_of(&self, object: &str) -> usize {
        self.len_of(object)
    }

    /// Run `f` on the object's proofs under one read of its shard — the
    /// subscription primitive incremental cursors use: the watermark and
    /// the suffix they have not yet folded in come from the same
    /// consistent view. An object with no proofs reads as empty. The
    /// store's locks are held while `f` runs, so `f` must not call back
    /// into this store.
    pub fn read_history<R>(&self, object: &str, f: impl FnOnce(History<'_>) -> R) -> R {
        let shards = self.inner.shards.read();
        match shards.get(object) {
            Some(s) => f(History(Some(&s.read()))),
            None => f(History(None)),
        }
    }

    /// [`ProofStore::read_history`] through a handle the caller keeps
    /// across calls. A handle resolved from another store (or none yet) is
    /// re-resolved first, so the view is always this store's: a cursor
    /// built against a swapped store still sees this store's watermark.
    /// An object without proofs has no shard yet, and so no handle.
    pub fn read_history_via<R>(
        &self,
        object: &str,
        cached: &mut Option<ShardRef>,
        f: impl FnOnce(History<'_>) -> R,
    ) -> R {
        if !cached
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(&s.store, &self.inner))
        {
            *cached = self.shard(object).map(|shard| ShardRef {
                store: Arc::clone(&self.inner),
                shard,
            });
        }
        match cached {
            Some(s) => f(History(Some(&s.shard.read()))),
            None => f(History(None)),
        }
    }

    /// Seal the object's proofs below logical index `upto`, returning how
    /// many proofs the compaction base advanced by.
    ///
    /// Safe to call with any `upto`: indices already sealed or beyond the
    /// watermark are clamped. The caller chooses `upto` — typically the
    /// minimum consumed position across the object's live cursors. Every
    /// query answers identically before and after.
    pub fn compact_prefix(&self, object: &str, upto: usize) -> usize {
        let Some(s) = self.shard(object) else {
            return 0;
        };
        let mut st = s.write();
        let n = upto.min(st.len()).saturating_sub(st.base);
        if n == 0 {
            return 0;
        }
        st.base += n;
        stacl_obs::add(stacl_obs::Counter::ProofCompaction, n as u64);
        n
    }

    /// How many of the object's proofs are sealed — the compaction base.
    /// Handoffs carry this so the importer can validate the exported
    /// watermark (`base ≤ watermark`) before accepting custody.
    pub fn compaction_base(&self, object: &str) -> usize {
        self.shard(object).map_or(0, |s| s.read().base)
    }

    /// Number of *live* (unsealed) proofs held for one object — the
    /// proof-memory figure the million-object bench reports.
    pub fn live_proof_count(&self, object: &str) -> usize {
        self.shard(object).map_or(0, |s| {
            let st = s.read();
            st.len() - st.base
        })
    }

    /// Total live proofs across all shards.
    pub fn live_proof_total(&self) -> usize {
        let shards = self.inner.shards.read();
        shards
            .values()
            .map(|s| {
                let st = s.read();
                st.len() - st.base
            })
            .sum()
    }

    /// The combined history of *all* objects in issue order — the
    /// coalition-wide view used for teamwork constraints ("the previous
    /// access actions of the device and even of its companions", §1).
    /// Merges the shards by sequence number.
    pub fn combined_history(&self, table: &mut AccessTable) -> Trace {
        Trace::from_ids(self.merged().iter().map(|p| table.intern(&p.access)))
    }

    /// Count proven accesses matching a predicate (across all shards).
    pub fn count_matching(&self, mut pred: impl FnMut(&ExecutionProof) -> bool) -> usize {
        let shards = self.inner.shards.read();
        shards
            .values()
            .map(|s| {
                let st = s.read();
                (0..st.len()).filter(|&i| pred(&st.proof(i))).count()
            })
            .sum()
    }

    /// Total number of proofs ever issued.
    pub fn len(&self) -> usize {
        self.inner.seq.load(Ordering::SeqCst) as usize
    }

    /// True when no proofs have been issued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all proofs, in issue order.
    pub fn snapshot(&self) -> Vec<ExecutionProof> {
        self.merged()
    }

    /// All proofs from all shards, reconstructed and sorted by sequence
    /// number.
    fn merged(&self) -> Vec<ExecutionProof> {
        let shards = self.inner.shards.read();
        let mut all: Vec<ExecutionProof> = Vec::new();
        for s in shards.values() {
            let st = s.read();
            all.extend((0..st.len()).map(|i| st.proof(i)));
        }
        all.sort_by_key(|p| p.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(s: f64) -> TimePoint {
        TimePoint::new(s)
    }

    #[test]
    fn issue_and_query() {
        let store = ProofStore::new();
        let a = Access::new("read", "db", "s1");
        assert!(!store.proven(&a));
        store.issue("naplet-1", a.clone(), tp(1.0));
        assert!(store.proven(&a));
        assert!(store.proven_by("naplet-1", &a));
        assert!(!store.proven_by("naplet-2", &a));
    }

    #[test]
    fn seq_numbers_are_monotone() {
        let store = ProofStore::new();
        let p0 = store.issue("o", Access::new("a", "r", "s"), tp(0.0));
        let p1 = store.issue("o", Access::new("b", "r", "s"), tp(1.0));
        assert_eq!(p0, 0);
        assert_eq!(p1, 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn watermark_and_suffix_subscription() {
        let store = ProofStore::new();
        assert_eq!(store.watermark_of("o"), 0);
        store.issue("o", Access::new("a", "r", "s1"), tp(0.0));
        store.issue("other", Access::new("z", "r", "s1"), tp(0.2));
        store.issue("o", Access::new("b", "r", "s1"), tp(0.5));
        let wm = store.watermark_of("o");
        assert_eq!(wm, 2, "other objects' proofs don't move the watermark");
        store.issue("o", Access::new("c", "r", "s2"), tp(1.0));
        // Catching up from the old watermark visits exactly the new suffix.
        let seen: Vec<Access> = store.read_history("o", |h| h.suffix(wm).cloned().collect());
        assert_eq!(seen, vec![Access::new("c", "r", "s2")]);
        // From the current watermark there is nothing to visit; unknown
        // objects are empty.
        store.read_history("o", |h| assert_eq!(h.suffix(h.watermark()).count(), 0));
        store.read_history("ghost", |h| {
            assert_eq!(h.watermark(), 0);
            assert_eq!(h.suffix(0).count(), 0);
        });
    }

    #[test]
    fn cached_shard_handle_follows_the_store() {
        let a = ProofStore::new();
        let b = ProofStore::new();
        let mut cached = None;
        assert_eq!(a.read_history_via("o", &mut cached, |h| h.watermark()), 0);
        assert!(cached.is_none(), "no shard before the first issue");
        a.issue("o", Access::new("x", "r", "s1"), tp(0.0));
        a.issue("o", Access::new("y", "r", "s1"), tp(1.0));
        assert_eq!(a.read_history_via("o", &mut cached, |h| h.watermark()), 2);
        // A clone shares the store, so the handle stays valid.
        a.issue("o", Access::new("z", "r", "s1"), tp(2.0));
        assert_eq!(
            a.clone()
                .read_history_via("o", &mut cached, |h| h.watermark()),
            3
        );
        // Another store re-resolves: its own (empty, then one-proof) view.
        assert_eq!(b.read_history_via("o", &mut cached, |h| h.watermark()), 0);
        b.issue("o", Access::new("w", "r", "s2"), tp(0.0));
        let seen: Vec<Access> =
            b.read_history_via("o", &mut cached, |h| h.suffix(0).cloned().collect());
        assert_eq!(seen, vec![Access::new("w", "r", "s2")]);
    }

    #[test]
    fn history_preserves_order_and_object_filter() {
        let store = ProofStore::new();
        store.issue("o1", Access::new("a", "r", "s1"), tp(0.0));
        store.issue("o2", Access::new("x", "r", "s1"), tp(0.5));
        store.issue("o1", Access::new("b", "r", "s2"), tp(1.0));
        let mut table = AccessTable::new();
        let h = store.history_of("o1", &mut table);
        assert_eq!(h.len(), 2);
        assert_eq!(table.resolve(h.0[0]), &Access::new("a", "r", "s1"));
        assert_eq!(table.resolve(h.0[1]), &Access::new("b", "r", "s2"));
        let all = store.combined_history(&mut table);
        assert_eq!(all.len(), 3);
        assert_eq!(store.len_of("o1"), 2);
        assert_eq!(store.len_of("o2"), 1);
        assert_eq!(store.len_of("ghost"), 0);
    }

    #[test]
    fn combined_history_merges_by_issue_order() {
        let store = ProofStore::new();
        // Interleave issues across three objects.
        for i in 0..9u32 {
            let obj = format!("o{}", i % 3);
            store.issue(&obj, Access::new(format!("op{i}"), "r", "s"), tp(i as f64));
        }
        let mut table = AccessTable::new();
        let all = store.combined_history(&mut table);
        assert_eq!(all.len(), 9);
        // Issue order preserved across shards.
        for (i, id) in all.0.iter().enumerate() {
            assert_eq!(&*table.resolve(*id).op, format!("op{i}"));
        }
        let snap = store.snapshot();
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn count_matching_by_server() {
        let store = ProofStore::new();
        store.issue("o", Access::new("exec", "rsw", "s1"), tp(0.0));
        store.issue("o", Access::new("exec", "rsw", "s1"), tp(1.0));
        store.issue("o", Access::new("exec", "rsw", "s2"), tp(2.0));
        let on_s1 = store.count_matching(|p| &*p.access.server == "s1");
        assert_eq!(on_s1, 2);
    }

    #[test]
    fn snapshot_is_stable() {
        let store = ProofStore::new();
        store.issue("o", Access::new("a", "r", "s"), tp(0.0));
        let snap = store.snapshot();
        store.issue("o", Access::new("b", "r", "s"), tp(1.0));
        assert_eq!(snap.len(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn concurrent_issues_keep_shards_consistent() {
        let store = ProofStore::new();
        std::thread::scope(|scope| {
            for obj in ["a", "b", "c", "d"] {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..50u32 {
                        store.issue(obj, Access::new(format!("op{i}"), "r", "s"), tp(i as f64));
                    }
                });
            }
        });
        assert_eq!(store.len(), 200);
        let mut table = AccessTable::new();
        for obj in ["a", "b", "c", "d"] {
            let h = store.history_of(obj, &mut table);
            assert_eq!(h.len(), 50);
            // Per-object issue order is preserved.
            for (i, id) in h.0.iter().enumerate() {
                assert_eq!(&*table.resolve(*id).op, format!("op{i}"));
            }
        }
        // The merged view is totally ordered by seq with no duplicates.
        let snap = store.snapshot();
        assert_eq!(snap.len(), 200);
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    /// Compaction is a pure representation change: every query answers
    /// identically before and after folding the prefix.
    #[test]
    fn compaction_is_lossless() {
        let store = ProofStore::new();
        for i in 0..20u32 {
            // Few distinct accesses, many proofs — the compression case.
            let a = Access::new(format!("op{}", i % 3), "r", format!("s{}", i % 2));
            store.issue("o", a, tp(i as f64));
        }
        store.issue("other", Access::new("z", "r", "s9"), tp(99.0));

        let mut t1 = AccessTable::new();
        let before_hist = store.history_of("o", &mut t1);
        let before_snap = store.snapshot();
        let before_all = store.combined_history(&mut t1);
        let wm = store.watermark_of("o");

        let folded = store.compact_prefix("o", 12);
        assert_eq!(folded, 12);
        assert_eq!(store.compaction_base("o"), 12);
        assert_eq!(store.live_proof_count("o"), 8);
        assert_eq!(
            store.watermark_of("o"),
            wm,
            "compaction keeps the watermark"
        );

        let mut t2 = AccessTable::new();
        assert_eq!(store.history_of("o", &mut t2).0, before_hist.0);
        assert_eq!(store.snapshot(), before_snap);
        assert_eq!(store.combined_history(&mut t2).0, before_all.0);
        assert!(store.proven_by("o", &Access::new("op0", "r", "s0")));
        assert!(!store.proven_by("o", &Access::new("op9", "r", "s0")));

        // A suffix from inside the sealed prefix is served exactly.
        let seen: Vec<Access> = store.read_history("o", |h| h.suffix(10).cloned().collect());
        assert_eq!(seen.len(), wm - 10);
        for (i, access) in seen.iter().enumerate() {
            assert_eq!(access, &before_snap[10 + i].access);
        }
    }

    #[test]
    fn compaction_clamps_and_is_idempotent() {
        let store = ProofStore::new();
        assert_eq!(store.compact_prefix("ghost", 10), 0, "no shard, no fold");
        for i in 0..5u32 {
            store.issue("o", Access::new("a", "r", "s"), tp(i as f64));
        }
        assert_eq!(store.compact_prefix("o", 100), 5, "clamped to watermark");
        assert_eq!(store.compact_prefix("o", 100), 0, "idempotent");
        assert_eq!(store.compact_prefix("o", 3), 0, "below base is a no-op");
        assert_eq!(store.live_proof_count("o"), 0);
        assert_eq!(store.compaction_base("o"), 5);
        // New issues land live again and fold on the next pass.
        store.issue("o", Access::new("b", "r", "s"), tp(9.0));
        assert_eq!(store.live_proof_count("o"), 1);
        assert_eq!(store.compact_prefix("o", 6), 1);
        assert_eq!(store.live_proof_total(), 0);
    }

    /// Sweep: random interleavings of issue/compact keep every view
    /// byte-identical to an uncompacted twin store.
    #[test]
    fn compaction_sweep_matches_uncompacted_twin() {
        let mut state = 0x9e37_79b9_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let compacted = ProofStore::new();
        let plain = ProofStore::new();
        for step in 0..400u32 {
            let obj = format!("o{}", rng() % 5);
            let a = Access::new(format!("op{}", rng() % 4), "r", format!("s{}", rng() % 3));
            compacted.issue(&obj, a.clone(), tp(step as f64));
            plain.issue(&obj, a, tp(step as f64));
            if rng() % 7 == 0 {
                let wm = compacted.watermark_of(&obj);
                compacted.compact_prefix(&obj, wm.saturating_sub((rng() % 4) as usize));
            }
        }
        assert_eq!(compacted.snapshot(), plain.snapshot());
        let mut t1 = AccessTable::new();
        let mut t2 = AccessTable::new();
        for i in 0..5 {
            let obj = format!("o{i}");
            assert_eq!(
                compacted.history_of(&obj, &mut t1).0,
                plain.history_of(&obj, &mut t2).0
            );
        }
        assert!(compacted.live_proof_total() < plain.live_proof_total());
    }

    /// Property: over random interleavings of `issue` and
    /// `compact_prefix` — including objects with many distinct accesses —
    /// every query equals a naive `Vec<ExecutionProof>` model, and the
    /// live count plus the compaction base is always the watermark.
    #[test]
    fn queries_match_naive_vec_model() {
        stacl_ids::prop::forall("proof-store-vs-vec-model", 0x5eed, 48, |rng| {
            let store = ProofStore::new();
            let mut model: Vec<ExecutionProof> = Vec::new();
            let objects = rng.gen_range(1..5usize);
            // Up to 300 distinct accesses per object: the O(1) symbol
            // lookup must agree with a scan however wide the vocabulary.
            let vocab = *rng.choose(&[2usize, 16, 300]);
            let mk = |v: usize| Access::new(format!("op{}", v % 7), format!("r{v}"), "s");
            // Each issue passes either this shared copy or an equal one
            // with fresh allocations, so a shard's symbol is found by
            // identity or by hash depending on which copy it stored.
            let shared: Vec<Access> = (0..vocab).map(mk).collect();
            for step in 0..rng.gen_range(1..400usize) {
                let obj = format!("o{}", rng.gen_range(0..objects));
                if rng.gen_bool(0.15) {
                    let upto = rng.gen_range(0..store.watermark_of(&obj) + 3);
                    store.compact_prefix(&obj, upto);
                } else {
                    let v = rng.gen_range(0..vocab);
                    let a = if rng.gen_bool(0.5) {
                        shared[v].clone()
                    } else {
                        mk(v)
                    };
                    let time = tp(step as f64 * 0.5);
                    let seq = store.issue(&obj, a.clone(), time);
                    model.push(ExecutionProof {
                        object: stacl_sral::ast::name(&obj),
                        access: a,
                        time,
                        seq,
                    });
                }
            }
            assert_eq!(store.snapshot(), model);
            assert_eq!(store.len(), model.len());
            // An equal access reuses its symbol: each shard stores each
            // distinct access once.
            for shard in store.inner.shards.read().values() {
                let st = shard.read();
                let distinct: std::collections::HashSet<&Access> = st.symbols.iter().collect();
                assert_eq!(distinct.len(), st.symbols.len());
            }
            let mut t1 = AccessTable::new();
            let mut t2 = AccessTable::new();
            for o in 0..objects + 1 {
                let obj = format!("o{o}");
                let mine: Vec<&ExecutionProof> =
                    model.iter().filter(|p| *p.object == obj).collect();
                let want = Trace::from_ids(mine.iter().map(|p| t2.intern(&p.access)));
                assert_eq!(store.history_of(&obj, &mut t1).0, want.0, "{obj}");
                assert_eq!(store.watermark_of(&obj), mine.len());
                assert_eq!(
                    store.live_proof_count(&obj) + store.compaction_base(&obj),
                    store.watermark_of(&obj)
                );
                let from = rng.gen_range(0..mine.len() + 2);
                store.read_history(&obj, |h| {
                    assert_eq!(h.watermark(), mine.len());
                    let got: Vec<&Access> = h.suffix(from).collect();
                    let want: Vec<&Access> = mine.iter().skip(from).map(|p| &p.access).collect();
                    assert_eq!(got, want);
                });
                for v in 0..vocab.min(20) {
                    let a = mk(v);
                    assert_eq!(
                        store.proven_by(&obj, &a),
                        mine.iter().any(|p| p.access == a)
                    );
                }
            }
        });
    }
}
