//! Concrete traces: finite sequences of accesses.
//!
//! A trace records, in order, the shared-resource accesses a mobile object
//! performed during one execution (§3.2). Traces here hold interned
//! [`AccessId`]s; use an [`AccessTable`] to
//! render them.

use std::fmt;

use crate::symbol::{AccessId, AccessTable};

/// A finite sequence of accesses.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug)]
pub struct Trace(pub Vec<AccessId>);

impl Trace {
    /// The empty trace ε.
    pub fn empty() -> Self {
        Trace(Vec::new())
    }

    /// A single-access trace `<a>`.
    pub fn single(a: AccessId) -> Self {
        Trace(vec![a])
    }

    /// Build from an iterator of ids.
    pub fn from_ids(ids: impl IntoIterator<Item = AccessId>) -> Self {
        Trace(ids.into_iter().collect())
    }

    /// Length of the trace.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for ε.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The first access, if any (the paper's `head`).
    pub fn head(&self) -> Option<AccessId> {
        self.0.first().copied()
    }

    /// Everything after the first access (the paper's `tail`).
    pub fn tail(&self) -> Trace {
        if self.0.is_empty() {
            Trace::empty()
        } else {
            Trace(self.0[1..].to_vec())
        }
    }

    /// Concatenation `t ∘ v`.
    pub fn concat(&self, other: &Trace) -> Trace {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Trace(v)
    }

    /// True when access `a` occurs anywhere in the trace (the `a ∈ t` of
    /// Definition 3.6).
    pub fn contains(&self, a: AccessId) -> bool {
        self.0.contains(&a)
    }

    /// Number of occurrences of accesses satisfying `pred` — the basis of
    /// the `#(m, n, σ(A))` cardinality constraints.
    pub fn count_matching(&self, mut pred: impl FnMut(AccessId) -> bool) -> usize {
        self.0.iter().filter(|&&a| pred(a)).count()
    }

    /// The position of the first occurrence of `a`.
    pub fn position(&self, a: AccessId) -> Option<usize> {
        self.0.iter().position(|&x| x == a)
    }

    /// All interleavings of `self` and `other` (the `t # v` operator of
    /// §3.2). The result has `C(n+m, n)` traces — exponential in the
    /// lengths — so this is a test oracle, not a production path; symbolic
    /// work uses the shuffle product on automata instead.
    pub fn interleavings(&self, other: &Trace) -> Vec<Trace> {
        fn go(t: &[AccessId], v: &[AccessId], prefix: &mut Vec<AccessId>, out: &mut Vec<Trace>) {
            match (t.first(), v.first()) {
                (None, None) => out.push(Trace(prefix.clone())),
                (Some(&h), None) => {
                    prefix.push(h);
                    go(&t[1..], v, prefix, out);
                    prefix.pop();
                }
                (None, Some(&h)) => {
                    prefix.push(h);
                    go(t, &v[1..], prefix, out);
                    prefix.pop();
                }
                (Some(&ht), Some(&hv)) => {
                    prefix.push(ht);
                    go(&t[1..], v, prefix, out);
                    prefix.pop();
                    prefix.push(hv);
                    go(t, &v[1..], prefix, out);
                    prefix.pop();
                }
            }
        }
        let mut out = Vec::new();
        let mut prefix = Vec::with_capacity(self.len() + other.len());
        go(&self.0, &other.0, &mut prefix, &mut out);
        // Interleaving two traces that share symbols can produce duplicate
        // sequences via different merge paths; dedupe to get a set.
        out.sort();
        out.dedup();
        out
    }

    /// Render the trace using `table` to resolve accesses.
    pub fn display<'a>(&'a self, table: &'a AccessTable) -> TraceDisplay<'a> {
        TraceDisplay { trace: self, table }
    }
}

impl FromIterator<AccessId> for Trace {
    fn from_iter<T: IntoIterator<Item = AccessId>>(iter: T) -> Self {
        Trace(iter.into_iter().collect())
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ">")
    }
}

/// Helper returned by [`Trace::display`] that renders accesses in full.
pub struct TraceDisplay<'a> {
    trace: &'a Trace,
    table: &'a AccessTable,
}

impl fmt::Display for TraceDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, &a) in self.trace.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.table.resolve(a))?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacl_sral::Access;

    fn ids(v: &[u32]) -> Trace {
        Trace::from_ids(v.iter().map(|&i| AccessId(i)))
    }

    #[test]
    fn head_tail() {
        let t = ids(&[1, 2, 3]);
        assert_eq!(t.head(), Some(AccessId(1)));
        assert_eq!(t.tail(), ids(&[2, 3]));
        assert_eq!(Trace::empty().head(), None);
        assert_eq!(Trace::empty().tail(), Trace::empty());
    }

    #[test]
    fn concat() {
        assert_eq!(ids(&[1]).concat(&ids(&[2, 3])), ids(&[1, 2, 3]));
        assert_eq!(Trace::empty().concat(&ids(&[1])), ids(&[1]));
    }

    #[test]
    fn contains_and_count() {
        let t = ids(&[1, 2, 1, 3]);
        assert!(t.contains(AccessId(1)));
        assert!(!t.contains(AccessId(9)));
        assert_eq!(t.count_matching(|a| a == AccessId(1)), 2);
        assert_eq!(t.position(AccessId(3)), Some(3));
    }

    #[test]
    fn interleavings_counts() {
        // |t|=2, |v|=1 with distinct symbols -> C(3,1) = 3 interleavings.
        let t = ids(&[1, 2]);
        let v = ids(&[3]);
        let inter = t.interleavings(&v);
        assert_eq!(inter.len(), 3);
        assert!(inter.contains(&ids(&[3, 1, 2])));
        assert!(inter.contains(&ids(&[1, 3, 2])));
        assert!(inter.contains(&ids(&[1, 2, 3])));
    }

    #[test]
    fn interleavings_preserve_relative_order() {
        let t = ids(&[1, 2]);
        let v = ids(&[3, 4]);
        for w in t.interleavings(&v) {
            let p1 = w.position(AccessId(1)).unwrap();
            let p2 = w.position(AccessId(2)).unwrap();
            let p3 = w.position(AccessId(3)).unwrap();
            let p4 = w.position(AccessId(4)).unwrap();
            assert!(p1 < p2);
            assert!(p3 < p4);
        }
    }

    #[test]
    fn interleavings_with_empty() {
        let t = ids(&[1, 2]);
        assert_eq!(t.interleavings(&Trace::empty()), vec![t.clone()]);
        assert_eq!(Trace::empty().interleavings(&t), vec![t]);
    }

    #[test]
    fn interleavings_dedupe_shared_symbols() {
        // <1> # <1> has the single outcome <1,1> (reached two ways).
        let t = ids(&[1]);
        assert_eq!(t.interleavings(&t), vec![ids(&[1, 1])]);
    }

    #[test]
    fn display_with_table() {
        let mut table = AccessTable::new();
        let a = table.intern(&Access::new("read", "r", "s"));
        let t = Trace::from_ids([a]);
        assert_eq!(t.display(&table).to_string(), "<read r @ s>");
        assert_eq!(t.to_string(), "<#0>");
    }
}
