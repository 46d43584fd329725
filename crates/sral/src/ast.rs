//! Abstract syntax of SRAL programs (Definition 3.1 of the paper).
//!
//! The central types are [`Access`] — a primitive shared-resource access
//! `op r @ s` — and [`Program`], the recursive program structure. Programs
//! are ordinary owned trees; sharing is not needed because programs are
//! small relative to the automata derived from them, and owned trees keep
//! the API simple and `Send`.

use std::fmt;
use std::sync::Arc;

use crate::expr::{Cond, Expr};

/// An interned-ish name. `Arc<str>` keeps clones cheap (a pointer bump)
/// without a global interner; the trace crate performs true u32 interning
/// when it builds automata.
pub type Name = Arc<str>;

/// Make a [`Name`] from anything string-like.
pub fn name(s: impl AsRef<str>) -> Name {
    Arc::from(s.as_ref())
}

/// A primitive shared-resource access `op r @ s`: operation `op` exercised
/// on shared resource `r` at coalition server `s`.
///
/// Accesses are the alphabet of the trace model and the atoms of the SRAC
/// constraint language. Equality is structural on the three components.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Access {
    /// The operation (e.g. `read`, `write`, `execute`, `verify`).
    pub op: Name,
    /// The shared resource the operation targets.
    pub resource: Name,
    /// The coalition server hosting the resource.
    pub server: Name,
}

impl Access {
    /// Construct an access from string-like parts.
    pub fn new(op: impl AsRef<str>, resource: impl AsRef<str>, server: impl AsRef<str>) -> Self {
        Access {
            op: name(op),
            resource: name(resource),
            server: name(server),
        }
    }

    /// True when both accesses hold the very same three name
    /// allocations. Two live `Arc`s at one address are one allocation,
    /// so this implies `self == other`; the converse does not hold
    /// (equal strings built separately live at different addresses).
    #[inline]
    pub fn same_names(&self, other: &Access) -> bool {
        Arc::ptr_eq(&self.op, &other.op)
            && Arc::ptr_eq(&self.resource, &other.resource)
            && Arc::ptr_eq(&self.server, &other.server)
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} @ {}", self.op, self.resource, self.server)
    }
}

impl fmt::Debug for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Access({self})")
    }
}

/// An SRAL program (Definition 3.1, extended with `skip`, parallel
/// composition from Definition 3.2, and an `Assign` extension).
///
/// `Assign` is *not* in the paper's BNF: the paper notes that in practice
/// programs fall back on the underlying Turing-complete language for
/// non-regular behaviour. Assignment is the minimal such escape hatch and
/// is treated as a silent (non-observable) action by the trace model.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Program {
    /// The empty program: performs nothing. Identity of `;`.
    Skip,
    /// A primitive access `op r @ s`.
    Access(Access),
    /// `ch ? x` — receive a value from channel `ch` into variable `x`,
    /// blocking while the channel is empty.
    Recv {
        /// The channel read from.
        channel: Name,
        /// The variable receiving the value.
        var: Name,
    },
    /// `ch ! e` — append the value of `e` to channel `ch`, waking waiters.
    Send {
        /// The channel written to.
        channel: Name,
        /// The expression whose value is sent.
        expr: Expr,
    },
    /// `signal(xi)` — raise signal `xi`; must precede the matching `wait`.
    Signal(Name),
    /// `wait(xi)` — block until signal `xi` has been raised.
    Wait(Name),
    /// `x := e` — extension: assign the value of `e` to `x` (silent action).
    Assign {
        /// The assigned variable.
        var: Name,
        /// The assigned expression.
        expr: Expr,
    },
    /// `a1 ; a2` — sequential composition.
    Seq(Box<Program>, Box<Program>),
    /// `if c then a1 else a2` — conditional composition.
    If {
        /// The branching condition.
        cond: Cond,
        /// Taken when `cond` evaluates to true.
        then_branch: Box<Program>,
        /// Taken when `cond` evaluates to false.
        else_branch: Box<Program>,
    },
    /// `while c do a` — iterate `a` while `c` holds.
    While {
        /// The loop guard.
        cond: Cond,
        /// The loop body.
        body: Box<Program>,
    },
    /// `a1 || a2` — parallel composition; traces interleave (Def. 3.2).
    Par(Box<Program>, Box<Program>),
}

impl Program {
    /// Sequential composition, flattening `Skip` identities.
    pub fn then(self, next: Program) -> Program {
        match (self, next) {
            (Program::Skip, p) | (p, Program::Skip) => p,
            (a, b) => Program::Seq(Box::new(a), Box::new(b)),
        }
    }

    /// Parallel composition, flattening `Skip` identities.
    pub fn par(self, other: Program) -> Program {
        match (self, other) {
            (Program::Skip, p) | (p, Program::Skip) => p,
            (a, b) => Program::Par(Box::new(a), Box::new(b)),
        }
    }

    /// Sequence a list of programs, yielding `Skip` for an empty list.
    pub fn seq_all(parts: impl IntoIterator<Item = Program>) -> Program {
        parts.into_iter().fold(Program::Skip, |acc, p| acc.then(p))
    }

    /// Parallel-compose a list of programs, `Skip` for an empty list.
    pub fn par_all(parts: impl IntoIterator<Item = Program>) -> Program {
        parts.into_iter().fold(Program::Skip, |acc, p| acc.par(p))
    }

    /// Iterate over every [`Access`] mentioned anywhere in the program, in
    /// syntactic (pre-order) order. Duplicates are yielded every time they
    /// appear.
    pub fn accesses(&self) -> AccessIter<'_> {
        AccessIter { stack: vec![self] }
    }

    /// The *distinct* accesses of the program, i.e. its alphabet, in first
    /// occurrence order.
    pub fn alphabet(&self) -> Vec<&Access> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for a in self.accesses() {
            if seen.insert(a) {
                out.push(a);
            }
        }
        out
    }

    /// Number of AST nodes (the `m` of Theorem 3.2).
    pub fn size(&self) -> usize {
        let mut n = 0usize;
        let mut stack = vec![self];
        while let Some(p) = stack.pop() {
            n += 1;
            match p {
                Program::Seq(a, b) | Program::Par(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Program::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    stack.push(then_branch);
                    stack.push(else_branch);
                }
                Program::While { body, .. } => stack.push(body),
                _ => {}
            }
        }
        n
    }

    /// Maximum nesting depth of the AST.
    pub fn depth(&self) -> usize {
        match self {
            Program::Seq(a, b) | Program::Par(a, b) => 1 + a.depth().max(b.depth()),
            Program::If {
                then_branch,
                else_branch,
                ..
            } => 1 + then_branch.depth().max(else_branch.depth()),
            Program::While { body, .. } => 1 + body.depth(),
            _ => 1,
        }
    }

    /// True when the program contains no loop construct, i.e. its trace
    /// model is finite.
    pub fn is_loop_free(&self) -> bool {
        match self {
            Program::While { .. } => false,
            Program::Seq(a, b) | Program::Par(a, b) => a.is_loop_free() && b.is_loop_free(),
            Program::If {
                then_branch,
                else_branch,
                ..
            } => then_branch.is_loop_free() && else_branch.is_loop_free(),
            _ => true,
        }
    }

    /// True when the program performs no observable action at all (it is
    /// `Skip` or composed solely of `Skip`s and silent assignments).
    pub fn is_silent(&self) -> bool {
        match self {
            Program::Skip | Program::Assign { .. } => true,
            Program::Seq(a, b) | Program::Par(a, b) => a.is_silent() && b.is_silent(),
            Program::If {
                then_branch,
                else_branch,
                ..
            } => then_branch.is_silent() && else_branch.is_silent(),
            Program::While { body, .. } => body.is_silent(),
            _ => false,
        }
    }
}

/// Pre-order iterator over the accesses of a program. See
/// [`Program::accesses`].
pub struct AccessIter<'a> {
    stack: Vec<&'a Program>,
}

impl<'a> Iterator for AccessIter<'a> {
    type Item = &'a Access;

    fn next(&mut self) -> Option<&'a Access> {
        while let Some(p) = self.stack.pop() {
            match p {
                Program::Access(a) => return Some(a),
                Program::Seq(a, b) | Program::Par(a, b) => {
                    // Push right first so left is visited first.
                    self.stack.push(b);
                    self.stack.push(a);
                }
                Program::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.stack.push(else_branch);
                    self.stack.push(then_branch);
                }
                Program::While { body, .. } => self.stack.push(body),
                _ => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Cond;

    fn acc(op: &str, r: &str, s: &str) -> Program {
        Program::Access(Access::new(op, r, s))
    }

    #[test]
    fn access_display_matches_paper_syntax() {
        let a = Access::new("read", "r1", "s1");
        assert_eq!(a.to_string(), "read r1 @ s1");
    }

    #[test]
    fn same_names_is_identity_not_equality() {
        let a = Access::new("read", "r1", "s1");
        assert!(a.same_names(&a.clone()));
        let fresh = Access::new("read", "r1", "s1");
        assert_eq!(a, fresh);
        assert!(!a.same_names(&fresh));
        let mixed = Access {
            server: fresh.server.clone(),
            ..a.clone()
        };
        assert!(!a.same_names(&mixed));
    }

    #[test]
    fn then_flattens_skip() {
        let p = Program::Skip.then(acc("read", "r", "s"));
        assert_eq!(p, acc("read", "r", "s"));
        let q = acc("read", "r", "s").then(Program::Skip);
        assert_eq!(q, acc("read", "r", "s"));
    }

    #[test]
    fn par_flattens_skip() {
        let p = Program::Skip.par(acc("w", "r", "s"));
        assert_eq!(p, acc("w", "r", "s"));
    }

    #[test]
    fn seq_all_of_empty_is_skip() {
        assert_eq!(Program::seq_all([]), Program::Skip);
        assert_eq!(Program::par_all([]), Program::Skip);
    }

    #[test]
    fn accesses_in_preorder() {
        let p = acc("a", "r1", "s").then(Program::If {
            cond: Cond::True,
            then_branch: Box::new(acc("b", "r2", "s")),
            else_branch: Box::new(acc("c", "r3", "s")),
        });
        let ops: Vec<_> = p.accesses().map(|a| a.op.to_string()).collect();
        assert_eq!(ops, ["a", "b", "c"]);
    }

    #[test]
    fn alphabet_dedupes() {
        let p = acc("a", "r", "s")
            .then(acc("a", "r", "s"))
            .then(acc("b", "r", "s"));
        assert_eq!(p.alphabet().len(), 2);
    }

    #[test]
    fn size_counts_nodes() {
        let p = acc("a", "r", "s").then(acc("b", "r", "s"));
        // Seq + two accesses.
        assert_eq!(p.size(), 3);
        assert_eq!(Program::Skip.size(), 1);
    }

    #[test]
    fn depth_of_nested_loops() {
        let inner = Program::While {
            cond: Cond::True,
            body: Box::new(acc("a", "r", "s")),
        };
        let outer = Program::While {
            cond: Cond::True,
            body: Box::new(inner),
        };
        assert_eq!(outer.depth(), 3);
    }

    #[test]
    fn loop_free_detection() {
        assert!(acc("a", "r", "s").is_loop_free());
        let w = Program::While {
            cond: Cond::True,
            body: Box::new(acc("a", "r", "s")),
        };
        assert!(!w.is_loop_free());
        assert!(!acc("a", "r", "s").then(w.clone()).is_loop_free());
    }

    #[test]
    fn silence() {
        assert!(Program::Skip.is_silent());
        assert!(!acc("a", "r", "s").is_silent());
        assert!(!Program::Signal(name("x")).is_silent());
    }
}
