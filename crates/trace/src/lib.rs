//! # stacl-trace — the trace model of SRAL programs
//!
//! Section 3.2 of the paper models a mobile object program `p` by
//! `traces(p)`, the set of access sequences `p` can perform, built with
//! concatenation, union, interleaving and Kleene closure (Definition 3.2).
//! *Regular trace models* (Definition 3.3) are exactly the regular
//! languages over the access alphabet, and Theorem 3.1 shows SRAL is
//! complete for them.
//!
//! This crate makes the trace model executable:
//!
//! * [`symbol`] — interning of [`Access`](stacl_sral::Access)es into dense
//!   `u32` symbols ([`symbol::AccessTable`]) for cache-friendly automata;
//! * [`trace`] — concrete traces and their operators;
//! * [`model`] — *finite* trace models (sets of traces) used as a test
//!   oracle against the symbolic machinery;
//! * [`regex`] — symbolic regular trace models (access regexes with a
//!   shuffle operator for `||`);
//! * [`nfa`] / [`dfa`] — Thompson construction, shuffle products, subset
//!   construction, Hopcroft minimisation, boolean operations, emptiness,
//!   equivalence and shortest-witness extraction;
//! * [`abstraction`] — `traces(p)`: SRAL program → regex (Definition 3.2);
//! * [`synthesis`] — regex → SRAL program (the constructive content of
//!   Theorem 3.1);
//! * [`enumerate`] — bounded enumeration of accepted traces.
//!
//! ## Example: Theorem 3.1 round trip
//!
//! ```
//! use stacl_sral::parser::parse_program;
//! use stacl_trace::abstraction::{traces, AbstractionConfig};
//! use stacl_trace::symbol::AccessTable;
//! use stacl_trace::synthesis::synthesize;
//! use stacl_trace::dfa::Dfa;
//!
//! let mut table = AccessTable::new();
//! let p = parse_program("read r @ s1 ; while x > 0 do { write r @ s2 }").unwrap();
//! let re = traces(&p, &mut table, AbstractionConfig::default());
//!
//! // Synthesize a (different) program with the same trace model …
//! let q = synthesize(&re, &table).unwrap();
//! let re2 = traces(&q, &mut table, AbstractionConfig::default());
//!
//! // … and verify language equality on minimal DFAs.
//! assert!(Dfa::equivalent_regexes(&re, &re2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstraction;
pub mod dfa;
pub mod enumerate;
pub mod extract;
pub mod model;
pub mod nfa;
pub mod regex;
pub mod symbol;
pub mod synthesis;
pub mod trace;

pub use abstraction::{traces, AbstractionConfig};
pub use dfa::Dfa;
pub use extract::dfa_to_regex;
pub use regex::Regex;
pub use symbol::{AccessId, AccessTable, Alphabet, IdentityMemo};
pub use trace::Trace;
