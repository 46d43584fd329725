//! FNV-1a hashing for the workspace's maps.
//!
//! Every string- or tuple-keyed map on the decision path — the access
//! interner, name interners, the guard's per-object shards, the proof
//! store, the wire client's vocabulary — and the automata construction
//! maps (state sets, state pairs, constraint hashes) key small values.
//! The std `HashMap`'s SipHash pays for its keyed mixing on every byte;
//! FNV-1a is a multiply and an xor per byte, small enough to hand-roll,
//! so the workspace stays dependency-free.
//!
//! Some of these maps *do* see keys chosen by a remote peer: a daemon
//! interns the accesses and proof keys that arrive in `Decide2` and
//! `IssueProof` frames, and names announced in `Vocab` frames. A fixed
//! FNV basis would let such a peer precompute colliding keys offline and
//! degrade one map to a linear scan. [`FnvBuildHasher`] therefore starts
//! every map hasher from a **per-process random basis**, drawn once from
//! std's `RandomState`: collisions found against one process do not
//! carry over to another. That is a cheap guard, not a keyed PRF — a
//! peer that can time a live process long enough could still learn
//! something — which is the trade taken for the decide path's speed.
//!
//! [`FnvHasher::default`] keeps the standard, fixed FNV-1a offset basis.
//! Use it (or [`fnv_hash_one`]) wherever a hash must agree across
//! processes or runs: rendezvous placement scores, the audit ledger's
//! hash chain, structural hashes of automata.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher (64-bit).
#[derive(Clone, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    /// The standard FNV-1a offset basis: the same hash in every process.
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// The per-process random basis every [`FnvBuildHasher`] starts from.
fn process_basis() -> u64 {
    static BASIS: OnceLock<u64> = OnceLock::new();
    *BASIS.get_or_init(|| RandomState::new().hash_one(FNV_OFFSET))
}

/// A [`BuildHasher`] producing [`FnvHasher`]s seeded with the process's
/// random basis (see the module docs). Every builder in one process
/// hashes alike; builders in different processes do not.
#[derive(Clone, Copy, Debug)]
pub struct FnvBuildHasher {
    basis: u64,
}

impl Default for FnvBuildHasher {
    fn default() -> Self {
        FnvBuildHasher {
            basis: process_basis(),
        }
    }
}

impl BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    #[inline]
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(self.basis)
    }
}

/// A `HashMap` keyed with seeded FNV-1a instead of SipHash.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// Hash `value` with fixed-basis FNV-1a via its `Hash` impl: the same
/// value hashes the same in every process.
pub fn fnv_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FnvHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        fn fnv(bytes: &[u8]) -> u64 {
            let mut h = FnvHasher::default();
            h.write(bytes);
            h.finish()
        }
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn map_round_trips() {
        let mut m: FnvHashMap<(u32, u32), u32> = FnvHashMap::default();
        m.insert((1, 2), 3);
        m.insert((2, 1), 4);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        assert_eq!(m.get(&(2, 1)), Some(&4));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn builders_in_one_process_agree() {
        let a = FnvBuildHasher::default();
        let map: FnvHashMap<String, u32> = FnvHashMap::default();
        let b = *map.hasher();
        for key in ["", "a", "read r0 @ s1", "naplet-17"] {
            assert_eq!(a.hash_one(key), b.hash_one(key), "{key:?}");
        }
        // The seeded basis only moves the start state: the per-byte
        // mixing is plain FNV-1a.
        let mut h = a.build_hasher();
        h.write(b"");
        assert_eq!(h.finish(), process_basis());
    }
}
