//! Scalar expressions over event payloads.
//!
//! A small, typed expression language used by Filter predicates, Project
//! lists, join residuals, and aggregate arguments. It covers what the BT
//! queries need — column references, literals, arithmetic with numeric
//! promotion, comparisons, boolean connectives, and a handful of math
//! builtins (`sqrt`, `abs`, `ln`, `exp`, `pow`) so that the z-score of the
//! keyword-elimination test (paper §IV-B.3) can be written as a plain
//! expression.

use crate::error::{Result, TemporalError};
use relation::{ColumnType, Row, Schema, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division for integer operands; `x/0` evaluates to Null)
    Div,
    /// `=` with numeric cross-type equality
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// logical and (null-rejecting)
    And,
    /// logical or (null-rejecting)
    Or,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// Square root (double).
    Sqrt,
    /// Absolute value (preserves numeric type).
    Abs,
    /// Natural log (double).
    Ln,
    /// e^x (double).
    Exp,
    /// pow(base, exp) (double).
    Pow,
    /// Smaller of two numerics.
    Min2,
    /// Larger of two numerics.
    Max2,
}

impl Func {
    fn name(self) -> &'static str {
        match self {
            Func::Sqrt => "sqrt",
            Func::Abs => "abs",
            Func::Ln => "ln",
            Func::Exp => "exp",
            Func::Pow => "pow",
            Func::Min2 => "min2",
            Func::Max2 => "max2",
        }
    }

    fn arity(self) -> usize {
        match self {
            Func::Sqrt | Func::Abs | Func::Ln | Func::Exp => 1,
            Func::Pow | Func::Min2 | Func::Max2 => 2,
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a named input column.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Built-in function call.
    Call {
        /// Function.
        func: Func,
        /// Arguments.
        args: Vec<Expr>,
    },
}

/// Reference column `name`.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// Literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

macro_rules! binop_method {
    ($method:ident, $op:expr) => {
        /// Combine with another expression using this operator.
        #[allow(clippy::should_implement_trait)] // fluent builder API, not std ops
        pub fn $method(self, rhs: Expr) -> Expr {
            Expr::Binary {
                op: $op,
                left: Box::new(self),
                right: Box::new(rhs),
            }
        }
    };
}

impl Expr {
    binop_method!(add, BinOp::Add);
    binop_method!(sub, BinOp::Sub);
    binop_method!(mul, BinOp::Mul);
    binop_method!(div, BinOp::Div);
    binop_method!(eq, BinOp::Eq);
    binop_method!(ne, BinOp::Ne);
    binop_method!(lt, BinOp::Lt);
    binop_method!(le, BinOp::Le);
    binop_method!(gt, BinOp::Gt);
    binop_method!(ge, BinOp::Ge);
    binop_method!(and, BinOp::And);
    binop_method!(or, BinOp::Or);

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Call a built-in function on these arguments.
    pub fn call(func: Func, args: Vec<Expr>) -> Expr {
        assert_eq!(
            args.len(),
            func.arity(),
            "{} takes {} argument(s)",
            func.name(),
            func.arity()
        );
        Expr::Call { func, args }
    }

    /// `sqrt(self)`.
    pub fn sqrt(self) -> Expr {
        Expr::call(Func::Sqrt, vec![self])
    }

    /// `abs(self)`.
    pub fn abs(self) -> Expr {
        Expr::call(Func::Abs, vec![self])
    }

    /// Names of all columns this expression reads.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column(c) => out.push(c),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) => e.collect_columns(out),
            Expr::Call { args, .. } => args.iter().for_each(|a| a.collect_columns(out)),
        }
    }

    /// Static result type of the expression against `schema`.
    /// Errors on unknown columns or ill-typed operations.
    pub fn infer_type(&self, schema: &Schema) -> Result<ColumnType> {
        match self {
            Expr::Column(name) => Ok(schema.field(name)?.ty),
            Expr::Literal(v) => Ok(match v {
                Value::Null => ColumnType::Str, // Null is polymorphic; Str is a safe carrier
                Value::Bool(_) => ColumnType::Bool,
                Value::Int(_) => ColumnType::Int,
                Value::Long(_) => ColumnType::Long,
                Value::Double(_) => ColumnType::Double,
                Value::Str(_) => ColumnType::Str,
            }),
            Expr::Binary { op, left, right } => {
                let lt = left.infer_type(schema)?;
                let rt = right.infer_type(schema)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        numeric_result(*op, lt, rt)
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if comparable(lt, rt) {
                            Ok(ColumnType::Bool)
                        } else {
                            Err(TemporalError::Plan(format!(
                                "cannot compare {lt} {} {rt}",
                                op.symbol()
                            )))
                        }
                    }
                    BinOp::And | BinOp::Or => {
                        if lt == ColumnType::Bool && rt == ColumnType::Bool {
                            Ok(ColumnType::Bool)
                        } else {
                            Err(TemporalError::Plan(format!(
                                "{} needs boolean operands, got {lt} and {rt}",
                                op.symbol()
                            )))
                        }
                    }
                }
            }
            Expr::Not(e) => {
                let t = e.infer_type(schema)?;
                if t == ColumnType::Bool {
                    Ok(ColumnType::Bool)
                } else {
                    Err(TemporalError::Plan(format!("NOT needs boolean, got {t}")))
                }
            }
            Expr::Call { func, args } => {
                for a in args {
                    let t = a.infer_type(schema)?;
                    if !is_numeric(t) {
                        return Err(TemporalError::Plan(format!(
                            "{} needs numeric arguments, got {t}",
                            func.name()
                        )));
                    }
                }
                Ok(match func {
                    Func::Abs => args[0].infer_type(schema)?,
                    Func::Min2 | Func::Max2 => {
                        promote(args[0].infer_type(schema)?, args[1].infer_type(schema)?)
                    }
                    _ => ColumnType::Double,
                })
            }
        }
    }

    /// Evaluate against one row. Null operands propagate to a Null result
    /// (and comparisons on Null yield Null, which Filter treats as false).
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<Value> {
        match self {
            Expr::Column(name) => Ok(row.get(schema.index_of(name)?).clone()),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = left.eval(schema, row)?;
                // Short-circuit booleans before evaluating the right side.
                if *op == BinOp::And {
                    return match l.as_bool() {
                        Some(false) => Ok(Value::Bool(false)),
                        Some(true) => right.eval(schema, row),
                        None => Ok(Value::Null),
                    };
                }
                if *op == BinOp::Or {
                    return match l.as_bool() {
                        Some(true) => Ok(Value::Bool(true)),
                        Some(false) => right.eval(schema, row),
                        None => Ok(Value::Null),
                    };
                }
                let r = right.eval(schema, row)?;
                if l.is_null() || r.is_null() {
                    return Ok(Value::Null);
                }
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => eval_arith(*op, &l, &r),
                    BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
                    BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => eval_cmp(*op, &l, &r),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            Expr::Not(e) => match e.eval(schema, row)? {
                Value::Null => Ok(Value::Null),
                v => v
                    .as_bool()
                    .map(|b| Value::Bool(!b))
                    .ok_or_else(|| TemporalError::Eval("NOT on non-boolean".into())),
            },
            Expr::Call { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let v = a.eval(schema, row)?;
                    if v.is_null() {
                        return Ok(Value::Null);
                    }
                    vals.push(v);
                }
                eval_func(*func, &vals)
            }
        }
    }

    /// Evaluate as a filter predicate: Null counts as false.
    pub fn eval_predicate(&self, schema: &Schema, row: &Row) -> Result<bool> {
        match self.eval(schema, row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(TemporalError::Eval(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }
}

fn is_numeric(t: ColumnType) -> bool {
    matches!(t, ColumnType::Int | ColumnType::Long | ColumnType::Double)
}

fn comparable(a: ColumnType, b: ColumnType) -> bool {
    (is_numeric(a) && is_numeric(b)) || a == b
}

fn numeric_result(op: BinOp, a: ColumnType, b: ColumnType) -> Result<ColumnType> {
    if !is_numeric(a) || !is_numeric(b) {
        return Err(TemporalError::Plan(format!(
            "arithmetic {} needs numeric operands, got {a} and {b}",
            op.symbol()
        )));
    }
    Ok(promote(a, b))
}

/// The numeric promotion of two numeric types: the wider of the two.
fn promote(a: ColumnType, b: ColumnType) -> ColumnType {
    if a == ColumnType::Double || b == ColumnType::Double {
        ColumnType::Double
    } else if a == ColumnType::Long || b == ColumnType::Long {
        ColumnType::Long
    } else {
        ColumnType::Int
    }
}

/// `v`, a number, cast to the promotion of its own type and `other`'s:
/// what `min2` and `max2` return, so their result inhabits the type
/// [`Expr::infer_type`] declares.
fn promoted(v: &Value, other: &Value) -> Result<Value> {
    Ok(match (v, other) {
        (Value::Double(_), _) | (_, Value::Double(_)) => Value::Double(to_f64(v)?),
        (Value::Long(_), _) | (_, Value::Long(_)) => Value::Long(to_i64(v)?),
        _ => v.clone(),
    })
}

pub(crate) fn eval_arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Promote to the widest operand type present.
    if matches!(l, Value::Double(_)) || matches!(r, Value::Double(_)) {
        let (a, b) = (to_f64(l)?, to_f64(r)?);
        let v = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if b == 0.0 {
                    return Ok(Value::Null);
                }
                a / b
            }
            _ => unreachable!(),
        };
        return Ok(Value::Double(v));
    }
    let (a, b) = (to_i64(l)?, to_i64(r)?);
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Ok(Value::Null);
            }
            a.wrapping_div(b)
        }
        _ => unreachable!(),
    };
    if matches!(l, Value::Long(_)) || matches!(r, Value::Long(_)) {
        Ok(Value::Long(v))
    } else {
        Ok(Value::Int(v as i32))
    }
}

pub(crate) fn eval_cmp(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use std::cmp::Ordering;
    let ord = match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        _ => {
            let (a, b) = (to_f64(l)?, to_f64(r)?);
            a.total_cmp(&b)
        }
    };
    let b = match op {
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!(),
    };
    Ok(Value::Bool(b))
}

pub(crate) fn eval_func(func: Func, vals: &[Value]) -> Result<Value> {
    let f = |i: usize| to_f64(&vals[i]);
    Ok(match func {
        Func::Sqrt => Value::Double(f(0)?.sqrt()),
        Func::Ln => Value::Double(f(0)?.ln()),
        Func::Exp => Value::Double(f(0)?.exp()),
        Func::Pow => Value::Double(f(0)?.powf(f(1)?)),
        Func::Abs => match &vals[0] {
            Value::Int(v) => Value::Int(v.wrapping_abs()),
            Value::Long(v) => Value::Long(v.wrapping_abs()),
            Value::Double(v) => Value::Double(v.abs()),
            other => return Err(TemporalError::Eval(format!("abs on non-numeric {other}"))),
        },
        Func::Min2 | Func::Max2 => {
            let first = match func {
                Func::Min2 => f(0)? <= f(1)?,
                _ => f(0)? >= f(1)?,
            };
            match first {
                true => promoted(&vals[0], &vals[1])?,
                false => promoted(&vals[1], &vals[0])?,
            }
        }
    })
}

fn to_f64(v: &Value) -> Result<f64> {
    v.as_double()
        .ok_or_else(|| TemporalError::Eval(format!("expected numeric, got {}", v.type_name())))
}

fn to_i64(v: &Value) -> Result<i64> {
    v.as_long()
        .ok_or_else(|| TemporalError::Eval(format!("expected integer, got {}", v.type_name())))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Call { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use relation::schema::{ColumnType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("Count", ColumnType::Long),
            Field::new("Ctr", ColumnType::Double),
            Field::new("UserId", ColumnType::Str),
        ])
    }

    fn sample() -> Row {
        row![1i32, 42i64, 0.25f64, "u1"]
    }

    #[test]
    fn arithmetic_promotes_types() {
        let s = schema();
        let r = sample();
        let e = col("Count").add(lit(1i32));
        assert_eq!(e.infer_type(&s).unwrap(), ColumnType::Long);
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Long(43));

        let e = col("Count").mul(col("Ctr"));
        assert_eq!(e.infer_type(&s).unwrap(), ColumnType::Double);
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Double(10.5));
    }

    #[test]
    fn comparisons_cross_numeric_types() {
        let s = schema();
        let r = sample();
        assert_eq!(
            col("StreamId").eq(lit(1i64)).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            col("Ctr").gt(lit(0i32)).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            col("UserId").eq(lit("u1")).eval(&s, &r).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let s = schema();
        let r = sample();
        assert!(col("Count").div(lit(0i64)).eval(&s, &r).unwrap().is_null());
        assert!(col("Ctr").div(lit(0.0f64)).eval(&s, &r).unwrap().is_null());
    }

    #[test]
    fn null_propagates_and_predicate_treats_null_as_false() {
        let s = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        let r = Row::new(vec![Value::Null]);
        let e = col("X").add(lit(1i64));
        assert!(e.eval(&s, &r).unwrap().is_null());
        assert!(!col("X").gt(lit(0i64)).eval_predicate(&s, &r).unwrap());
    }

    #[test]
    fn boolean_short_circuit() {
        let s = schema();
        let r = sample();
        // Right side would error (comparing string with <), but AND
        // short-circuits on the false left side.
        let e = col("StreamId").eq(lit(99)).and(col("UserId").lt(lit(1i64)));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn z_score_shape_expression() {
        // The z-test denominator: sqrt(p(1-p)/i + q(1-q)/j).
        let s = Schema::new(vec![
            Field::new("P", ColumnType::Double),
            Field::new("I", ColumnType::Long),
            Field::new("Q", ColumnType::Double),
            Field::new("J", ColumnType::Long),
        ]);
        let r = row![0.5f64, 100i64, 0.25f64, 400i64];
        let var = |p: &str, n: &str| col(p).mul(lit(1.0f64).sub(col(p))).div(col(n));
        let e = var("P", "I").add(var("Q", "J")).sqrt();
        let got = e.eval(&s, &r).unwrap().as_double().unwrap();
        let want = (0.5 * 0.5 / 100.0 + 0.25 * 0.75 / 400.0f64).sqrt();
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn type_errors_caught_statically() {
        let s = schema();
        assert!(col("UserId").add(lit(1i64)).infer_type(&s).is_err());
        assert!(col("Count").and(col("Count")).infer_type(&s).is_err());
        assert!(col("Missing").infer_type(&s).is_err());
        assert!(col("UserId").lt(lit(1i64)).infer_type(&s).is_err());
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = col("A").add(col("B")).mul(col("A"));
        assert_eq!(e.referenced_columns(), vec!["A", "B"]);
    }

    #[test]
    fn display_is_readable() {
        let e = col("StreamId").eq(lit(1)).and(col("Count").gt(lit(10i64)));
        assert_eq!(e.to_string(), "((StreamId = 1) AND (Count > 10))");
    }
}
