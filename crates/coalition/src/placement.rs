//! Deterministic custody placement — the rendezvous ring.
//!
//! The paper's coalition (§2) has no directory service: every server
//! enforces policy locally and objects migrate freely. Up to now custody
//! therefore lived "wherever the object last migrated", and locating an
//! object's custodian required either prior knowledge or a broadcast —
//! both of which collapse at the million-object scale. The ring fixes
//! that with **rendezvous (highest-random-weight) hashing** over the
//! member names: every member independently computes the same *home*
//! custodian for every object in O(|members|) with no coordination at
//! all, and a membership change moves exactly the keys whose maximum
//! moved — the keys homed on a departed member, or the ~1/N slice newly
//! won by a joiner. Nothing else shuffles.
//!
//! Scoring reuses the workspace's FNV-1a ([`stacl_ids::hash`]) from its
//! fixed basis, so every member scores alike: the score of
//! `(object, member)` is the hash of the object name streamed into the
//! hash of the member name. Ties (astronomically unlikely, but
//! the ring must be a total function) break toward the lexicographically
//! smaller member so every replica agrees byte-for-byte.

use std::hash::Hasher;

use stacl_ids::hash::FnvHasher;

/// A rendezvous-hash ring over coalition member names.
///
/// Construction sorts and dedups the member set, so two rings built from
/// the same members in any order are identical ([`Placement::eq`] is
/// derived structural equality and means "same placement function").
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Placement {
    members: Vec<String>,
}

impl Placement {
    /// Build a ring over `members` (order-insensitive, duplicates
    /// ignored).
    pub fn new<I, S>(members: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut members: Vec<String> = members.into_iter().map(Into::into).collect();
        members.sort();
        members.dedup();
        Placement { members }
    }

    /// The member names, sorted.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of members on the ring.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ring has no members (every lookup returns `None`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Is `member` on the ring?
    pub fn contains(&self, member: &str) -> bool {
        self.members
            .binary_search_by(|m| m.as_str().cmp(member))
            .is_ok()
    }

    /// The rendezvous score of `(object, member)`.
    fn score(object: &str, member: &str) -> u64 {
        let mut h = FnvHasher::default();
        h.write(object.as_bytes());
        // Hash the object's length as a separator so ("ab","c") and
        // ("a","bc") never collide by framing.
        h.write_u64(object.len() as u64);
        h.write(member.as_bytes());
        // FNV-1a mixes bytes multiplicatively but avalanches poorly into
        // the high bits, and rendezvous compares raw magnitudes — finish
        // with a full-avalanche permutation (splitmix64 finalizer) so
        // near-identical member names don't bias the argmax.
        let mut x = h.finish();
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    }

    /// The home custodian for `object`: the member with the highest
    /// rendezvous score. O(|members|); `None` on an empty ring.
    ///
    /// Strict `>` over the sorted member list makes ties land on the
    /// lexicographically smaller name, so the choice is a pure function
    /// of the member *set* and every replica computes the same home.
    pub fn home_of(&self, object: &str) -> Option<&str> {
        let mut best: Option<(&str, u64)> = None;
        for m in &self.members {
            let s = Placement::score(object, m);
            match best {
                Some((_, bs)) if s <= bs => {}
                _ => best = Some((m, s)),
            }
        }
        best.map(|(m, _)| m)
    }

    /// A new ring with `member` added (no-op if already present).
    pub fn with_member(&self, member: &str) -> Placement {
        let mut members = self.members.clone();
        members.push(member.to_string());
        Placement::new(members)
    }

    /// A new ring with `member` removed (no-op if absent).
    pub fn without_member(&self, member: &str) -> Placement {
        Placement::new(
            self.members
                .iter()
                .filter(|m| m.as_str() != member)
                .cloned(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Deterministic xorshift64* — the workspace is dependency-free, so
    /// property sweeps draw from a seeded generator instead of proptest.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("obj-{i}")).collect()
    }

    #[test]
    fn order_insensitive_and_deterministic() {
        let a = Placement::new(["d2", "d0", "d1", "d0"]);
        let b = Placement::new(["d0", "d1", "d2"]);
        assert_eq!(a, b);
        assert_eq!(a.members(), &["d0", "d1", "d2"]);
        assert!(a.contains("d1"));
        assert!(!a.contains("d9"));
        for k in keys(64) {
            assert_eq!(a.home_of(&k), b.home_of(&k));
            assert!(a.contains(a.home_of(&k).unwrap()));
        }
    }

    /// Homes must agree across processes and releases: members of one
    /// coalition compute them independently. Pinned to the fixed-basis
    /// FNV-1a scores; a per-process seed here would split the ring.
    #[test]
    fn homes_match_a_fixed_vector() {
        assert_eq!(Placement::score("obj-0", "d0"), 0x7c77_39bb_ee1e_adc7);
        let ring = Placement::new(["d0", "d1", "d2", "d3"]);
        let homes: Vec<&str> = (0..16)
            .map(|i| ring.home_of(&format!("obj-{i}")).unwrap())
            .collect();
        assert_eq!(
            homes,
            [
                "d3", "d1", "d3", "d1", "d2", "d3", "d3", "d3", "d0", "d2", "d1", "d1", "d0", "d0",
                "d1", "d1"
            ]
        );
    }

    #[test]
    fn empty_ring_has_no_home() {
        let p = Placement::new(Vec::<String>::new());
        assert!(p.is_empty());
        assert_eq!(p.home_of("anything"), None);
    }

    #[test]
    fn single_member_owns_everything() {
        let p = Placement::new(["only"]);
        for k in keys(32) {
            assert_eq!(p.home_of(&k), Some("only"));
        }
    }

    /// Property (satellite): on *leave*, the keys that move are exactly
    /// the keys that were homed on the removed member — everything else
    /// keeps its custodian. Swept over random member sets and key
    /// populations.
    #[test]
    fn leave_moves_exactly_the_departed_members_keys() {
        let mut rng = Rng(0x5eed_0001);
        for round in 0..32 {
            let n = 2 + rng.below(7) as usize; // 2..=8 members
            let members: Vec<String> = (0..n).map(|i| format!("m{round}-{i}")).collect();
            let ring = Placement::new(members.clone());
            let leaver = &members[rng.below(n as u64) as usize];
            let shrunk = ring.without_member(leaver);
            assert_eq!(shrunk.len(), n - 1);
            for k in keys(256) {
                let before = ring.home_of(&k).unwrap();
                let after = shrunk.home_of(&k).unwrap();
                if before == leaver {
                    assert_ne!(after, leaver, "key must leave the departed member");
                } else {
                    assert_eq!(before, after, "key {k} moved although its home stayed");
                }
            }
        }
    }

    /// Property (satellite): on *join*, the only keys that move are the
    /// ones the joiner now wins — roughly a 1/N slice — and they all move
    /// *to* the joiner.
    #[test]
    fn join_moves_only_the_joiners_slice() {
        let mut rng = Rng(0x5eed_0002);
        for round in 0..32 {
            let n = 1 + rng.below(7) as usize; // 1..=7 members
            let members: Vec<String> = (0..n).map(|i| format!("j{round}-{i}")).collect();
            let ring = Placement::new(members.clone());
            let joiner = format!("j{round}-new");
            let grown = ring.with_member(&joiner);
            assert_eq!(grown.len(), n + 1);
            let ks = keys(512);
            let mut moved = 0usize;
            for k in &ks {
                let before = ring.home_of(k).unwrap();
                let after = grown.home_of(k).unwrap();
                if before != after {
                    assert_eq!(after, joiner, "a moved key must move to the joiner");
                    moved += 1;
                }
            }
            // The joiner's expected share is 1/(n+1); allow a generous
            // band since 512 keys is a small sample.
            let expected = ks.len() / (n + 1);
            assert!(
                moved <= expected * 3 + 8,
                "join reshuffled too much: {moved} of {} keys (expected ~{expected})",
                ks.len()
            );
        }
    }

    /// The ring spreads keys roughly evenly — no member is starved or
    /// doubly loaded beyond a loose band.
    #[test]
    fn placement_is_roughly_balanced() {
        let members: Vec<String> = (0..8).map(|i| format!("d{i}")).collect();
        let ring = Placement::new(members.clone());
        let mut load: HashMap<&str, usize> = HashMap::new();
        let ks = keys(8000);
        for k in &ks {
            *load.entry(ring.home_of(k).unwrap()).or_default() += 1;
        }
        for m in &members {
            let l = load.get(m.as_str()).copied().unwrap_or(0);
            let fair = ks.len() / members.len();
            assert!(
                l > fair / 2 && l < fair * 2,
                "member {m} holds {l} of {} keys (fair share {fair})",
                ks.len()
            );
        }
    }
}
