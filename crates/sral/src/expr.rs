//! Arithmetic expressions and boolean conditions.
//!
//! SRAL's `if` and `while` constructs branch on boolean conditions over
//! program variables; channel sends carry the value of an arithmetic
//! expression (Definition 3.1). This module defines both syntaxes and a
//! small-step-free big-step evaluator against an [`Env`].

use std::fmt;

use crate::ast::Name;
use crate::env::Env;
use crate::error::EvalError;

/// Runtime values carried by channels and variables.
///
/// The paper's expressions are arithmetic; we also permit booleans so that
/// guard results can be communicated between cooperating mobile objects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// The integer payload, or an error if this is a boolean.
    pub fn as_int(self) -> Result<i64, EvalError> {
        match self {
            Value::Int(i) => Ok(i),
            Value::Bool(_) => Err(EvalError::TypeMismatch {
                expected: "int",
                found: "bool",
            }),
        }
    }

    /// The boolean payload, or an error if this is an integer.
    pub fn as_bool(self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(b),
            Value::Int(_) => Err(EvalError::TypeMismatch {
                expected: "bool",
                found: "int",
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division (truncating); division by zero is an error.
    Div,
    /// Remainder; remainder by zero is an error.
    Rem,
}

impl ArithOp {
    /// The surface-syntax token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Rem => "%",
        }
    }

    fn apply(self, l: i64, r: i64) -> Result<i64, EvalError> {
        match self {
            ArithOp::Add => Ok(l.wrapping_add(r)),
            ArithOp::Sub => Ok(l.wrapping_sub(r)),
            ArithOp::Mul => Ok(l.wrapping_mul(r)),
            ArithOp::Div => {
                if r == 0 {
                    Err(EvalError::DivisionByZero)
                } else {
                    Ok(l.wrapping_div(r))
                }
            }
            ArithOp::Rem => {
                if r == 0 {
                    Err(EvalError::DivisionByZero)
                } else {
                    Ok(l.wrapping_rem(r))
                }
            }
        }
    }
}

/// Comparison operators for conditions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// The surface-syntax token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Apply the comparison to two integers.
    pub fn apply(self, l: i64, r: i64) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// Arithmetic expressions.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// An integer literal.
    Int(i64),
    /// A variable reference.
    Var(Name),
    /// Unary negation.
    Neg(Box<Expr>),
    /// A binary arithmetic operation.
    Bin(ArithOp, Box<Expr>, Box<Expr>),
}

// The arithmetic shorthands deliberately mirror the `Expr::Bin` operator
// names rather than implementing `std::ops`: `Expr + Expr` reading as an
// AST constructor would be more confusing than `a.add(b)`.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(name: impl AsRef<str>) -> Expr {
        Expr::Var(crate::ast::name(name))
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(ArithOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(ArithOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// Evaluate to an integer under `env`.
    pub fn eval(&self, env: &Env) -> Result<i64, EvalError> {
        match self {
            Expr::Int(i) => Ok(*i),
            Expr::Var(v) => env
                .get(v)
                .ok_or_else(|| EvalError::UnboundVariable(v.to_string()))?
                .as_int(),
            Expr::Neg(e) => Ok(e.eval(env)?.wrapping_neg()),
            Expr::Bin(op, l, r) => op.apply(l.eval(env)?, r.eval(env)?),
        }
    }

    /// Variables referenced by this expression, appended to `out`.
    pub fn collect_vars(&self, out: &mut Vec<Name>) {
        match self {
            Expr::Int(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::Neg(e) => e.collect_vars(out),
            Expr::Bin(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }
}

impl From<i64> for Expr {
    fn from(i: i64) -> Self {
        Expr::Int(i)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(i) => write!(f, "{i}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Bin(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
        }
    }
}

/// Boolean conditions guarding `if` and `while`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A boolean-typed variable reference.
    Var(Name),
    /// An integer comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// `lhs <op> rhs` comparison shorthand.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Cond {
        Cond::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// `self && rhs`.
    pub fn and(self, rhs: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(rhs))
    }

    /// `self || rhs`.
    pub fn or(self, rhs: Cond) -> Cond {
        Cond::Or(Box::new(self), Box::new(rhs))
    }

    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Cond {
        Cond::Not(Box::new(self))
    }

    /// Evaluate under `env`. Short-circuits `And`/`Or` like the host
    /// languages the paper's constructs are modelled on.
    pub fn eval(&self, env: &Env) -> Result<bool, EvalError> {
        match self {
            Cond::True => Ok(true),
            Cond::False => Ok(false),
            Cond::Var(v) => env
                .get(v)
                .ok_or_else(|| EvalError::UnboundVariable(v.to_string()))?
                .as_bool(),
            Cond::Cmp(op, l, r) => Ok(op.apply(l.eval(env)?, r.eval(env)?)),
            Cond::And(l, r) => Ok(l.eval(env)? && r.eval(env)?),
            Cond::Or(l, r) => Ok(l.eval(env)? || r.eval(env)?),
            Cond::Not(c) => Ok(!c.eval(env)?),
        }
    }

    /// Variables referenced by this condition, appended to `out`.
    pub fn collect_vars(&self, out: &mut Vec<Name>) {
        match self {
            Cond::True | Cond::False => {}
            Cond::Var(v) => out.push(v.clone()),
            Cond::Cmp(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Cond::And(l, r) | Cond::Or(l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Cond::Not(c) => c.collect_vars(out),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::True => write!(f, "true"),
            Cond::False => write!(f, "false"),
            Cond::Var(v) => write!(f, "{v}"),
            Cond::Cmp(op, l, r) => write!(f, "{l} {} {r}", op.symbol()),
            Cond::And(l, r) => write!(f, "({l} and {r})"),
            Cond::Or(l, r) => write!(f, "({l} or {r})"),
            Cond::Not(c) => write!(f, "not ({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic() {
        let env = Env::new();
        let e = Expr::Int(2).add(Expr::Int(3)).mul(Expr::Int(4));
        assert_eq!(e.eval(&env).unwrap(), 20);
    }

    #[test]
    fn division_by_zero_is_error() {
        let env = Env::new();
        let e = Expr::Bin(ArithOp::Div, Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert!(matches!(e.eval(&env), Err(EvalError::DivisionByZero)));
        let r = Expr::Bin(ArithOp::Rem, Box::new(Expr::Int(1)), Box::new(Expr::Int(0)));
        assert!(matches!(r.eval(&env), Err(EvalError::DivisionByZero)));
    }

    #[test]
    fn unbound_variable_is_error() {
        let env = Env::new();
        assert!(matches!(
            Expr::var("x").eval(&env),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn variables_resolve() {
        let mut env = Env::new();
        env.set("x", Value::Int(7));
        assert_eq!(Expr::var("x").add(Expr::Int(1)).eval(&env).unwrap(), 8);
    }

    #[test]
    fn comparisons() {
        let env = Env::new();
        for (op, l, r, want) in [
            (CmpOp::Eq, 1, 1, true),
            (CmpOp::Ne, 1, 1, false),
            (CmpOp::Lt, 1, 2, true),
            (CmpOp::Le, 2, 2, true),
            (CmpOp::Gt, 2, 1, true),
            (CmpOp::Ge, 1, 2, false),
        ] {
            let c = Cond::cmp(op, Expr::Int(l), Expr::Int(r));
            assert_eq!(c.eval(&env).unwrap(), want, "{op:?} {l} {r}");
        }
    }

    #[test]
    fn short_circuit_and() {
        // `false and (1/0 == 0)` must not evaluate the division.
        let env = Env::new();
        let div = Cond::cmp(
            CmpOp::Eq,
            Expr::Bin(ArithOp::Div, Box::new(Expr::Int(1)), Box::new(Expr::Int(0))),
            Expr::Int(0),
        );
        assert!(!Cond::False.and(div.clone()).eval(&env).unwrap());
        assert!(Cond::True.or(div).eval(&env).unwrap());
    }

    #[test]
    fn bool_var_condition() {
        let mut env = Env::new();
        env.set("ok", Value::Bool(true));
        assert!(Cond::Var(crate::ast::name("ok")).eval(&env).unwrap());
    }

    #[test]
    fn type_mismatch_detected() {
        let mut env = Env::new();
        env.set("b", Value::Bool(true));
        assert!(matches!(
            Expr::var("b").eval(&env),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn collect_vars_walks_everything() {
        let c = Cond::cmp(
            CmpOp::Lt,
            Expr::var("x"),
            Expr::var("y").add(Expr::var("z")),
        )
        .and(Cond::Var(crate::ast::name("w")));
        let mut vars = Vec::new();
        c.collect_vars(&mut vars);
        let names: Vec<_> = vars.iter().map(|n| n.to_string()).collect();
        assert_eq!(names, ["x", "y", "z", "w"]);
    }

    #[test]
    fn wrapping_semantics() {
        let env = Env::new();
        let e = Expr::Int(i64::MAX).add(Expr::Int(1));
        assert_eq!(e.eval(&env).unwrap(), i64::MIN);
    }
}
