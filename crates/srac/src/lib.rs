//! # stacl-srac — the Shared Resource Access Constraint language (SRAC)
//!
//! SRAC (Definition 3.4 of the paper) expresses *spatial* constraints over
//! the shared-resource accesses of a mobile object:
//!
//! ```text
//! C ::= T | F | a | a1 ⊗ a2 | #(m, n, σ(A)) | C1 ∧ C2 | C1 ∨ C2 | ¬C
//! C1 → C2 ::= ¬C1 ∨ C2
//! ```
//!
//! where `a` requires an access to be performed, `a1 ⊗ a2` requires `a1`
//! strictly before `a2` (other accesses may intervene), and `#(m,n,σ(A))`
//! bounds the number of performed accesses selected by `σ`.
//!
//! The crate provides:
//!
//! * [`ast`] — the constraint AST and [`selector::Selector`]s (the σ of
//!   the paper);
//! * [`parser`] — a concrete syntax, e.g.
//!   `[read db @ s1] before [write db @ s2] and count(0, 5, resource=rsw)`;
//! * [`trace_sat`] — trace satisfaction `t ⊨ C` (Definition 3.6) against
//!   an execution-proof oracle `Pr_x`;
//! * [`compile`] — compilation of constraints to DFAs over the access
//!   alphabet (cardinality constraints become counting automata);
//! * [`check`] — the Theorem 3.2 checker: `P ⊨ C` decided symbolically on
//!   the program automaton in time proportional to the automata product,
//!   with must (∀-trace) and may (∃-trace) semantics, run-time *residual*
//!   checking against an access history, and counterexample witnesses.
//!
//! ## Example
//!
//! ```
//! use stacl_sral::parser::parse_program;
//! use stacl_srac::parser::parse_constraint;
//! use stacl_srac::check::{check_program, Semantics};
//! use stacl_trace::AccessTable;
//!
//! let mut table = AccessTable::new();
//! let program = parse_program("read rsw @ s1 ; write log @ s1").unwrap();
//! let constraint = parse_constraint("count(0, 5, resource=rsw)").unwrap();
//! let verdict = check_program(&program, &constraint, &mut table, Semantics::ForAll);
//! assert!(verdict.holds);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod classes;
pub mod compile;
pub mod cursor;
pub mod parser;
pub mod selector;
pub mod simplify;
pub mod trace_sat;

pub use ast::Constraint;
pub use check::{check_program, Semantics, Verdict};
pub use classes::SymbolClasses;
pub use cursor::CursorBank;
pub use selector::Selector;
pub use simplify::simplify;
