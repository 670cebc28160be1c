//! Compiled scalar expressions: index-resolved, allocation-free evaluation.
//!
//! [`Expr::eval`] re-resolves every column reference by *name* on every row.
//! With the schema's hash index that lookup is O(1), but it still hashes a
//! string per column per event — pure overhead inside reducer hot loops that
//! evaluate the same expression millions of times. [`CompiledExpr`] performs
//! the name→index resolution **once per operator invocation** and then
//! evaluates against `&Row` alone.
//!
//! Compilation is deliberately **infallible** and performs *no* static type
//! checking beyond index resolution. The interpreted evaluator's observable
//! behaviour includes lazily-surfaced errors (an unknown column only errors
//! if evaluation actually reaches it — `AND`/`OR` short-circuiting can skip
//! it entirely), so an eager `compile → Result` would reject expressions the
//! interpreter happily evaluates. Instead, unknown columns compile to a
//! deferred-error node that reproduces the interpreter's error at the same
//! evaluation point. Literal-only subtrees are constant-folded, but only
//! when their evaluation succeeds; failing subtrees are left intact so the
//! error still surfaces at eval time, exactly as interpreted.
//!
//! Equivalence `CompiledExpr::eval(row) ≡ Expr::eval(schema, row)` — values
//! *and* error cases — is asserted by property tests over randomized
//! schemas, rows, and expression trees (`tests/prop_compiled.rs`).

use crate::error::{Result, TemporalError};
use crate::expr::{eval_arith, eval_cmp, eval_func, BinOp, Expr, Func};
use relation::column::{Column, ColumnBatch, ColumnData, Validity};
use relation::{RelationError, Row, Schema, Value};
use simd::{F64x8, I64x8, LANES, M8};
use std::sync::Arc;

/// How a batch evaluation walks its input: which rows are live.
///
/// `sel` is the fused engine's selection vector — the (strictly
/// increasing) indices of `batch` rows still alive after upstream
/// predicates. Leaf column reads gather through it, so every interior
/// kernel runs dense over `sel.len()` slots and no intermediate batch is
/// ever compacted. `None` means all rows.
#[derive(Clone, Copy)]
struct EvalCtx<'a> {
    sel: Option<&'a [u32]>,
}

impl EvalCtx<'_> {
    /// Number of live rows (the length of every mask and value vector).
    fn rows(&self, batch: &ColumnBatch) -> usize {
        self.sel.map_or_else(|| batch.len(), <[u32]>::len)
    }

    /// Map a live-row ordinal back to its underlying batch row index.
    fn row_index(&self, i: usize) -> usize {
        self.sel.map_or(i, |s| s[i] as usize)
    }
}

/// An expression resolved against a fixed input [`Schema`], evaluable
/// against bare rows of that schema.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr {
    node: Node,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Column reference, resolved to its index.
    Col(usize),
    /// Column that does not exist in the schema: errors *when evaluated*,
    /// matching the interpreter's lazy unknown-column error.
    MissingCol(String),
    /// Literal (also the result of successful constant folding).
    Lit(Value),
    Binary {
        op: BinOp,
        left: Box<Node>,
        right: Box<Node>,
    },
    Not(Box<Node>),
    Call {
        func: Func,
        args: Vec<Node>,
    },
}

impl CompiledExpr {
    /// Resolve `expr` against `schema`. Never fails: unknown columns become
    /// deferred-error nodes so the error semantics of [`Expr::eval`]
    /// (including short-circuit skipping) are preserved exactly.
    pub fn compile(expr: &Expr, schema: &Schema) -> CompiledExpr {
        CompiledExpr {
            node: fold(compile_node(expr, schema)),
        }
    }

    /// Evaluate against one row. Identical observable behaviour to
    /// [`Expr::eval`] on the schema this was compiled against.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        self.node.eval(row)
    }

    /// Evaluate as a filter predicate: Null counts as false.
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(TemporalError::Eval(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }

    /// Evaluate as a filter predicate over the rows of `batch` named by
    /// `sel` (all rows when `None`): the returned mask has one slot per
    /// *selected* row and holds `true` exactly where
    /// [`Self::eval_predicate`] would (Null counts as false). Errors
    /// reproduce the scalar path's error for the first failing selected
    /// row verbatim.
    pub(crate) fn eval_predicate_batch_sel(
        &self,
        batch: &ColumnBatch,
        sel: Option<&[u32]>,
    ) -> Result<Vec<bool>> {
        let ctx = EvalCtx { sel };
        let n = ctx.rows(batch);
        let raw = self.node.eval_batch(batch, ctx);
        // Bulk path for the common case — a statically-boolean result with
        // no errors anywhere: take the dense vector (or broadcast the
        // constant) and mask nulls to false word-at-a-time, with no per-row
        // error branch. `Const(Null)` with an empty error mask means every
        // row is null (the `constant` invariant), i.e. all-false.
        if matches!(raw.errs, Mask::None)
            && matches!(
                raw.vals,
                BVals::Bool(_) | BVals::Const(Value::Bool(_)) | BVals::Const(Value::Null)
            )
        {
            let mut keep = match raw.vals {
                BVals::Bool(d) => d,
                BVals::Const(Value::Bool(b)) => vec![b; n],
                _ => vec![false; n],
            };
            match &raw.nulls {
                Mask::None => {}
                Mask::All => keep.iter_mut().for_each(|k| *k = false),
                Mask::Rows(f) => {
                    for (k, &null) in keep.iter_mut().zip(f) {
                        *k = *k && !null;
                    }
                }
            }
            return Ok(keep);
        }
        let mut keep = vec![false; n];
        // One row-order scan so the first bad row (eval error *or* non-bool
        // value) surfaces in exactly the order the scalar loop would hit it.
        for i in 0..n {
            if raw.errs.get(i) {
                return Err(self.scalar_predicate_error_at(batch, ctx.row_index(i)));
            }
            if raw.nulls.get(i) {
                continue; // Null → false
            }
            keep[i] = match &raw.vals {
                BVals::Bool(d) => d[i],
                BVals::Const(Value::Bool(b)) => *b,
                BVals::Mixed(v) => match &v[i] {
                    Value::Bool(b) => *b,
                    _ => return Err(self.scalar_predicate_error_at(batch, ctx.row_index(i))),
                },
                _ => return Err(self.scalar_predicate_error_at(batch, ctx.row_index(i))),
            };
        }
        Ok(keep)
    }

    /// Re-run the scalar evaluator on row `i` to recover the exact error
    /// the row path would have produced there.
    fn scalar_predicate_error_at(&self, batch: &ColumnBatch, i: usize) -> TemporalError {
        match self.eval_predicate(&batch.row(i)) {
            Err(e) => e,
            Ok(_) => TemporalError::Eval("columnar/scalar divergence".into()),
        }
    }

    /// Batch evaluation over the rows named by `sel` (all rows when
    /// `None`) with the raw per-row masks exposed: a projection evaluates
    /// several expressions over one batch and needs each expression's
    /// first error *row* to reproduce the scalar path's row-major error
    /// order before converting any column. Masks and values have one slot
    /// per selected row; callers map mask indices back through `sel`
    /// before re-running the scalar path.
    pub(crate) fn eval_batch_raw_sel(&self, batch: &ColumnBatch, sel: Option<&[u32]>) -> BatchEval {
        self.node.eval_batch(batch, EvalCtx { sel })
    }

    /// `Some(i)` when the whole expression is a bare reference to column
    /// `i` — the pass-through shape an owning projection satisfies by
    /// *moving* the input column instead of evaluating anything.
    pub(crate) fn as_col(&self) -> Option<usize> {
        match self.node {
            Node::Col(i) => Some(i),
            _ => None,
        }
    }
}

fn compile_node(expr: &Expr, schema: &Schema) -> Node {
    match expr {
        Expr::Column(name) => match schema.index_of(name) {
            Ok(i) => Node::Col(i),
            Err(_) => Node::MissingCol(name.clone()),
        },
        Expr::Literal(v) => Node::Lit(v.clone()),
        Expr::Binary { op, left, right } => Node::Binary {
            op: *op,
            left: Box::new(fold(compile_node(left, schema))),
            right: Box::new(fold(compile_node(right, schema))),
        },
        Expr::Not(e) => Node::Not(Box::new(fold(compile_node(e, schema)))),
        Expr::Call { func, args } => Node::Call {
            func: *func,
            args: args.iter().map(|a| fold(compile_node(a, schema))).collect(),
        },
    }
}

/// Constant-fold a subtree that reads no columns, but only when its
/// evaluation succeeds — a failing subtree must keep failing at eval time.
fn fold(node: Node) -> Node {
    if matches!(node, Node::Lit(_) | Node::Col(_) | Node::MissingCol(_)) || node.reads_columns() {
        return node;
    }
    let empty = Row::new(Vec::new());
    match node.eval(&empty) {
        Ok(v) => Node::Lit(v),
        Err(_) => node,
    }
}

impl Node {
    fn reads_columns(&self) -> bool {
        match self {
            Node::Col(_) => true,
            Node::Lit(_) | Node::MissingCol(_) => false,
            Node::Binary { left, right, .. } => left.reads_columns() || right.reads_columns(),
            Node::Not(e) => e.reads_columns(),
            Node::Call { args, .. } => args.iter().any(Node::reads_columns),
        }
    }

    /// Mirror of [`Expr::eval`], with names pre-resolved.
    fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            Node::Col(i) => Ok(row.get(*i).clone()),
            Node::MissingCol(name) => Err(TemporalError::Relation(RelationError::UnknownColumn(
                name.clone(),
            ))),
            Node::Lit(v) => Ok(v.clone()),
            Node::Binary { op, left, right } => {
                let l = left.eval(row)?;
                // Short-circuit booleans before evaluating the right side.
                if *op == BinOp::And {
                    return match l.as_bool() {
                        Some(false) => Ok(Value::Bool(false)),
                        Some(true) => right.eval(row),
                        None => Ok(Value::Null),
                    };
                }
                if *op == BinOp::Or {
                    return match l.as_bool() {
                        Some(true) => Ok(Value::Bool(true)),
                        Some(false) => right.eval(row),
                        None => Ok(Value::Null),
                    };
                }
                let r = right.eval(row)?;
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
            Node::Not(e) => match e.eval(row)? {
                Value::Null => Ok(Value::Null),
                v => v
                    .as_bool()
                    .map(|b| Value::Bool(!b))
                    .ok_or_else(|| TemporalError::Eval("NOT on non-boolean".into())),
            },
            Node::Call { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let v = a.eval(row)?;
                    if v.is_null() {
                        return Ok(Value::Null);
                    }
                    vals.push(v);
                }
                eval_func(*func, &vals)
            }
        }
    }

    /// Vectorized mirror of [`Node::eval`]: one result per batch row.
    ///
    /// Never fails — per-row failures are recorded in the error mask and
    /// the *first* failing row is re-evaluated scalar-side by the public
    /// entry points to recover the exact error. The invariant relied on
    /// throughout: for every row `i`, scalar eval of the gathered row is
    /// `Err(_)` iff `errs.get(i)`, `Ok(Null)` iff `nulls.get(i)` (and not
    /// err), and otherwise `Ok(value_at(i))` bit-for-bit.
    fn eval_batch(&self, batch: &ColumnBatch, ctx: EvalCtx) -> BatchEval {
        let n = ctx.rows(batch);
        match self {
            Node::Col(i) => match ctx.sel {
                None => BatchEval::from_column(batch.column(*i)),
                Some(sel) => BatchEval::from_column_sel(batch.column(*i), sel),
            },
            // Unknown column: errors on every row it is evaluated for,
            // exactly like the deferred scalar error.
            Node::MissingCol(_) => BatchEval {
                vals: BVals::Const(Value::Null),
                nulls: Mask::None,
                errs: Mask::All,
            },
            Node::Lit(v) => BatchEval::constant(v.clone()),
            Node::Binary { op, left, right } => match op {
                BinOp::And => {
                    let l = left.eval_batch(batch, ctx);
                    connective(true, l, || right.eval_batch(batch, ctx), n)
                }
                BinOp::Or => {
                    let l = left.eval_batch(batch, ctx);
                    connective(false, l, || right.eval_batch(batch, ctx), n)
                }
                _ => {
                    // Dense context: `Col`/`Lit` leaves become borrowed
                    // operands read straight out of the batch (or the plan),
                    // skipping `from_column`'s whole-vector clone. Non-leaf
                    // operands evaluate to owned storage held in `lh`/`rh`
                    // for the duration of the kernel dispatch.
                    let (lh, rh);
                    let l = match leaf_operand(left, batch, ctx) {
                        Some(side) => side,
                        None => {
                            let BatchEval { vals, nulls, errs } = left.eval_batch(batch, ctx);
                            lh = vals;
                            Side {
                                v: VRef::Vals(&lh),
                                nulls,
                                errs,
                            }
                        }
                    };
                    let r = match leaf_operand(right, batch, ctx) {
                        Some(side) => side,
                        None => {
                            let BatchEval { vals, nulls, errs } = right.eval_batch(batch, ctx);
                            rh = vals;
                            Side {
                                v: VRef::Vals(&rh),
                                nulls,
                                errs,
                            }
                        }
                    };
                    binary(*op, l, r, n)
                }
            },
            Node::Not(e) => not_batch(e.eval_batch(batch, ctx), n),
            Node::Call { func, args } => {
                let evals: Vec<BatchEval> = args.iter().map(|a| a.eval_batch(batch, ctx)).collect();
                call_batch(*func, &evals, n)
            }
        }
    }
}

/// A per-row boolean mask with cheap all/none representations.
#[derive(Debug, Clone)]
enum Mask {
    /// No row set.
    None,
    /// Every row set.
    All,
    /// Explicit flags (canonicalized: at least one set, not all set).
    Rows(Vec<bool>),
}

impl Mask {
    fn from_flags(flags: Vec<bool>) -> Mask {
        if !flags.contains(&true) {
            Mask::None
        } else if flags.iter().all(|&b| b) {
            Mask::All
        } else {
            Mask::Rows(flags)
        }
    }

    fn get(&self, i: usize) -> bool {
        match self {
            Mask::None => false,
            Mask::All => true,
            Mask::Rows(f) => f[i],
        }
    }

    fn first(&self, n: usize) -> Option<usize> {
        match self {
            Mask::None => None,
            Mask::All => (n > 0).then_some(0),
            Mask::Rows(f) => f.iter().position(|&b| b),
        }
    }

    fn union(a: &Mask, b: &Mask) -> Mask {
        match (a, b) {
            (Mask::All, _) | (_, Mask::All) => Mask::All,
            (Mask::None, m) | (m, Mask::None) => m.clone(),
            (Mask::Rows(x), Mask::Rows(y)) => {
                Mask::from_flags(x.iter().zip(y).map(|(&p, &q)| p || q).collect())
            }
        }
    }
}

/// Batch values: one dense vector per runtime type, a broadcast constant,
/// or a per-row `Value` gather when rows carry mixed runtime types.
#[derive(Debug, Clone)]
enum BVals {
    Const(Value),
    Bool(Vec<bool>),
    Int(Vec<i32>),
    Long(Vec<i64>),
    Double(Vec<f64>),
    Str(Vec<Arc<str>>),
    Mixed(Vec<Value>),
}

/// Scalar value at slot `i` of a batch-values vector (no null masking —
/// callers check their mask first).
fn bvals_at(v: &BVals, i: usize) -> Value {
    match v {
        BVals::Const(v) => v.clone(),
        BVals::Bool(d) => Value::Bool(d[i]),
        BVals::Int(d) => Value::Int(d[i]),
        BVals::Long(d) => Value::Long(d[i]),
        BVals::Double(d) => Value::Double(d[i]),
        BVals::Str(d) => Value::Str(Arc::clone(&d[i])),
        BVals::Mixed(v) => v[i].clone(),
    }
}

/// Result of evaluating one expression node over a whole batch.
///
/// Rows flagged in `errs` hold garbage in `vals`; rows flagged in `nulls`
/// (and not in `errs` — error wins on read) are `Null` and hold an
/// unobservable placeholder. Kernels may compute garbage at masked rows as
/// long as nothing can panic (integer division guards its divisor).
pub(crate) struct BatchEval {
    vals: BVals,
    nulls: Mask,
    errs: Mask,
}

impl BatchEval {
    /// Lowest row index whose scalar evaluation would error, if any.
    pub(crate) fn first_err(&self, n: usize) -> Option<usize> {
        self.errs.first(n)
    }

    fn constant(v: Value) -> BatchEval {
        let nulls = if v.is_null() { Mask::All } else { Mask::None };
        BatchEval {
            vals: BVals::Const(v),
            nulls,
            errs: Mask::None,
        }
    }

    fn from_column(col: &Column) -> BatchEval {
        let nulls = match col.validity() {
            None => Mask::None,
            Some(v) => Mask::from_flags((0..v.len()).map(|i| !v.is_valid(i)).collect()),
        };
        let vals = match col.data() {
            ColumnData::Bool(d) => BVals::Bool(d.clone()),
            ColumnData::Int(d) => BVals::Int(d.clone()),
            ColumnData::Long(d) => BVals::Long(d.clone()),
            ColumnData::Double(d) => BVals::Double(d.clone()),
            ColumnData::Str(d) => BVals::Str(d.clone()),
        };
        BatchEval {
            vals,
            nulls,
            errs: Mask::None,
        }
    }

    /// [`Self::from_column`] restricted to the rows named by `sel`: the
    /// fused engine's selection-gather leaf. One slot per selected row;
    /// everything downstream runs dense over the compacted length.
    fn from_column_sel(col: &Column, sel: &[u32]) -> BatchEval {
        let nulls = match col.validity() {
            None => Mask::None,
            Some(v) => Mask::from_flags(sel.iter().map(|&i| !v.is_valid(i as usize)).collect()),
        };
        macro_rules! gather {
            ($d:expr, $variant:ident) => {
                BVals::$variant(sel.iter().map(|&i| $d[i as usize].clone()).collect())
            };
        }
        let vals = match col.data() {
            ColumnData::Bool(d) => gather!(d, Bool),
            ColumnData::Int(d) => gather!(d, Int),
            ColumnData::Long(d) => gather!(d, Long),
            ColumnData::Double(d) => gather!(d, Double),
            ColumnData::Str(d) => gather!(d, Str),
        };
        BatchEval {
            vals,
            nulls,
            errs: Mask::None,
        }
    }

    /// Scalar result of row `i` (callers must rule out `errs` first).
    pub(crate) fn value_at(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            return Value::Null;
        }
        bvals_at(&self.vals, i)
    }

    /// `Value::as_bool` of row `i` (`None` for Null and non-boolean rows;
    /// callers must rule out `errs` first).
    fn as_bool_at(&self, i: usize) -> Option<bool> {
        if self.nulls.get(i) {
            return None;
        }
        match &self.vals {
            BVals::Bool(d) => Some(d[i]),
            BVals::Const(v) => v.as_bool(),
            BVals::Mixed(v) => v[i].as_bool(),
            _ => None,
        }
    }

    /// Convert to a dense [`Column`], or `None` when rows carry mixed
    /// runtime types (caller falls back to the row path). Must only be
    /// called once `errs` has been shown empty.
    pub(crate) fn into_column(self, n: usize) -> Option<Column> {
        let BatchEval { vals, nulls, errs } = self;
        debug_assert!(errs.first(n).is_none());
        let data = match vals {
            BVals::Bool(d) => ColumnData::Bool(d),
            BVals::Int(d) => ColumnData::Int(d),
            BVals::Long(d) => ColumnData::Long(d),
            BVals::Double(d) => ColumnData::Double(d),
            BVals::Str(d) => ColumnData::Str(d),
            BVals::Const(v) => match v {
                // All rows are null (invariant of Const(Null) with empty
                // errs); the data variant is an unobservable carrier.
                Value::Null => ColumnData::Bool(vec![false; n]),
                Value::Bool(b) => ColumnData::Bool(vec![b; n]),
                Value::Int(x) => ColumnData::Int(vec![x; n]),
                Value::Long(x) => ColumnData::Long(vec![x; n]),
                Value::Double(x) => ColumnData::Double(vec![x; n]),
                Value::Str(s) => ColumnData::Str(vec![s; n]),
            },
            BVals::Mixed(rows) => gather_uniform(&rows, &nulls)?,
        };
        let validity = match &nulls {
            Mask::None => None,
            Mask::All => Validity::from_null_flags(&vec![true; n]),
            Mask::Rows(f) => Validity::from_null_flags(f),
        };
        Some(Column::new(data, validity))
    }
}

/// Densify a `Mixed` gather when every non-null row has the same runtime
/// type; `None` otherwise.
fn gather_uniform(rows: &[Value], nulls: &Mask) -> Option<ColumnData> {
    macro_rules! densify {
        ($variant:ident, $placeholder:expr, |$x:ident| $conv:expr) => {{
            let mut d = Vec::with_capacity(rows.len());
            for (i, v) in rows.iter().enumerate() {
                match v {
                    Value::$variant($x) => d.push($conv),
                    _ if nulls.get(i) => d.push($placeholder),
                    _ => return None,
                }
            }
            ColumnData::$variant(d)
        }};
    }
    let first = rows
        .iter()
        .enumerate()
        .find(|(i, _)| !nulls.get(*i))
        .map(|(_, v)| v);
    Some(match first {
        None => ColumnData::Bool(vec![false; rows.len()]),
        Some(Value::Bool(_)) => densify!(Bool, false, |x| *x),
        Some(Value::Int(_)) => densify!(Int, 0, |x| *x),
        Some(Value::Long(_)) => densify!(Long, 0, |x| *x),
        Some(Value::Double(_)) => densify!(Double, 0.0, |x| *x),
        Some(Value::Str(_)) => densify!(Str, Arc::from(""), |x| Arc::clone(x)),
        Some(Value::Null) => unreachable!("non-null row holds Null"),
    })
}

/// Numeric rank of a batch's static value type: 2 = Int, 3 = Long,
/// 4 = Double (matching scalar promotion order); `None` when the type is
/// non-numeric or not statically known (`Mixed`).
fn arith_rank(v: &BVals) -> Option<u8> {
    match v {
        BVals::Int(_) | BVals::Const(Value::Int(_)) => Some(2),
        BVals::Long(_) | BVals::Const(Value::Long(_)) => Some(3),
        BVals::Double(_) | BVals::Const(Value::Double(_)) => Some(4),
        _ => None,
    }
}

/// Widen a numeric batch to dense `f64` (mirrors `Value::as_double`).
fn widen_f64(v: &BVals, n: usize) -> Vec<f64> {
    match v {
        BVals::Int(d) => d.iter().map(|&x| f64::from(x)).collect(),
        BVals::Long(d) => d.iter().map(|&x| x as f64).collect(),
        BVals::Double(d) => d.clone(),
        BVals::Const(c) => vec![c.as_double().expect("numeric const"); n],
        _ => unreachable!("widen_f64 on non-numeric batch"),
    }
}

/// A borrowed binary-operator operand: an owned evaluation result, a batch
/// column read **in place**, or a plan literal. The `Col`/`Lit` forms are
/// what the fused engine's leaf fast path produces — the kernels index the
/// column's storage directly, so a `col <op> lit` filter or a projection
/// arithmetic tree allocates nothing per leaf (where `from_column` clones
/// the full vector).
enum VRef<'a> {
    Vals(&'a BVals),
    Col(&'a Column),
    Lit(&'a Value),
}

/// One binary operand: borrowed values plus its null/error masks.
struct Side<'a> {
    v: VRef<'a>,
    nulls: Mask,
    errs: Mask,
}

/// Borrowed-leaf operand for the dense context, `None` when the node is
/// not a leaf (or the context is selection-gathered — that keeps the
/// `from_column_sel` path). Masks mirror
/// [`BatchEval::from_column`] / [`BatchEval::constant`] bit for bit.
fn leaf_operand<'a>(node: &'a Node, batch: &'a ColumnBatch, ctx: EvalCtx) -> Option<Side<'a>> {
    if ctx.sel.is_some() {
        return None;
    }
    match node {
        Node::Col(i) => {
            let col = batch.column(*i);
            let nulls = match col.validity() {
                None => Mask::None,
                Some(v) => Mask::from_flags((0..v.len()).map(|i| !v.is_valid(i)).collect()),
            };
            Some(Side {
                v: VRef::Col(col),
                nulls,
                errs: Mask::None,
            })
        }
        Node::Lit(v) => Some(Side {
            v: VRef::Lit(v),
            nulls: if v.is_null() { Mask::All } else { Mask::None },
            errs: Mask::None,
        }),
        _ => None,
    }
}

/// [`arith_rank`] over a borrowed operand.
fn arith_rank_ref(v: &VRef) -> Option<u8> {
    match v {
        VRef::Vals(b) => arith_rank(b),
        VRef::Col(c) => match c.data() {
            ColumnData::Int(_) => Some(2),
            ColumnData::Long(_) => Some(3),
            ColumnData::Double(_) => Some(4),
            _ => None,
        },
        VRef::Lit(val) => match val {
            Value::Int(_) => Some(2),
            Value::Long(_) => Some(3),
            Value::Double(_) => Some(4),
            _ => None,
        },
    }
}

/// Scalar value of row `i` (callers must rule out errors first; masked
/// null rows read as `Null` exactly like [`BatchEval::value_at`]).
fn value_at_ref(v: &VRef, nulls: &Mask, i: usize) -> Value {
    if nulls.get(i) {
        return Value::Null;
    }
    match v {
        VRef::Vals(b) => bvals_at(b, i),
        VRef::Col(c) => c.value(i),
        VRef::Lit(val) => (*val).clone(),
    }
}

/// Non-connective binary operator over two borrowed operands.
fn binary(op: BinOp, l: Side, r: Side, n: usize) -> BatchEval {
    // Scalar order: left `?`, right `?`, *then* the null check — so the
    // error mask is the plain union (a right-side error surfaces even when
    // the left side is null), and null rows are the union of the rest.
    let errs = Mask::union(&l.errs, &r.errs);
    let nulls = Mask::union(&l.nulls, &r.nulls);
    if matches!(nulls, Mask::All) {
        return BatchEval {
            vals: BVals::Const(Value::Null),
            nulls,
            errs,
        };
    }
    let ranks = (arith_rank_ref(&l.v), arith_rank_ref(&r.v));
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if let (Some(a), Some(b)) = ranks {
                simd_arith_kernel(op, &l.v, &r.v, a, b, n, nulls, errs)
            } else {
                per_row_binary(op, &l, &r, n, &nulls, &errs)
            }
        }
        BinOp::Eq | BinOp::Ne => {
            // Numeric comparisons read both operands through a borrowing
            // accessor (dense slice or broadcast constant) instead of
            // materializing two widened f64 vectors per batch — the
            // `col == lit` filter shape allocates only the output mask.
            let vals = if let (Some(na), Some(nb)) =
                (num_accessor_ref(&l.v), num_accessor_ref(&r.v))
            {
                let neg = op == BinOp::Ne;
                // Integer batches with an i32-ranged side skip the f64
                // widening entirely — provably the same answers, none of
                // the per-lane int→float conversions (see `simd_int_eq`).
                let exact = match (int_accessor_ref(&l.v), int_accessor_ref(&r.v)) {
                    (Some(ia), Some(ib)) if i32_ranged(&ia) || i32_ranged(&ib) => {
                        Some(simd_int_eq(&ia, &ib, n, neg))
                    }
                    _ => None,
                };
                BVals::Bool(exact.unwrap_or_else(|| simd_num_eq(&na, &nb, n, neg)))
            } else if let (Some(sa), Some(sb)) = (str_accessor_ref(&l.v), str_accessor_ref(&r.v)) {
                let neg = op == BinOp::Ne;
                BVals::Bool((0..n).map(|i| (sa.at(i) == sb.at(i)) != neg).collect())
            } else {
                return per_row_binary(op, &l, &r, n, &nulls, &errs);
            };
            BatchEval { vals, nulls, errs }
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let vals = if let (Some(na), Some(nb)) =
                (num_accessor_ref(&l.v), num_accessor_ref(&r.v))
            {
                let exact = match (int_accessor_ref(&l.v), int_accessor_ref(&r.v)) {
                    (Some(ia), Some(ib)) if i32_ranged(&ia) || i32_ranged(&ib) => {
                        Some(simd_int_ord(op, &ia, &ib, n))
                    }
                    _ => None,
                };
                BVals::Bool(exact.unwrap_or_else(|| simd_num_ord(op, &na, &nb, n)))
            } else if let (Some(sa), Some(sb)) = (str_accessor_ref(&l.v), str_accessor_ref(&r.v)) {
                let ord_test = cmp_test(op);
                BVals::Bool((0..n).map(|i| ord_test(sa.at(i).cmp(sb.at(i)))).collect())
            } else {
                return per_row_binary(op, &l, &r, n, &nulls, &errs);
            };
            BatchEval { vals, nulls, errs }
        }
        BinOp::And | BinOp::Or => unreachable!("handled by connective"),
    }
}

fn cmp_test(op: BinOp) -> fn(std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        BinOp::Lt => |o| o == Ordering::Less,
        BinOp::Le => |o| o != Ordering::Greater,
        BinOp::Gt => |o| o == Ordering::Greater,
        BinOp::Ge => |o| o != Ordering::Less,
        _ => unreachable!(),
    }
}

/// Per-row `f64` accessor for statically numeric batches: a borrowed dense
/// slice or a broadcast constant, widening exactly like `Value::as_double`
/// (so comparisons agree bit-for-bit with the scalar path's
/// widen-to-double semantics).
enum NumSide<'a> {
    Int(&'a [i32]),
    Long(&'a [i64]),
    Double(&'a [f64]),
    Const(f64),
}

impl NumSide<'_> {
    #[inline]
    fn at(&self, i: usize) -> f64 {
        match self {
            NumSide::Int(d) => f64::from(d[i]),
            NumSide::Long(d) => d[i] as f64,
            NumSide::Double(d) => d[i],
            NumSide::Const(c) => *c,
        }
    }
}

fn num_accessor(v: &BVals) -> Option<NumSide<'_>> {
    match v {
        BVals::Int(d) => Some(NumSide::Int(d)),
        BVals::Long(d) => Some(NumSide::Long(d)),
        BVals::Double(d) => Some(NumSide::Double(d)),
        BVals::Const(c) if arith_rank(v).is_some() => Some(NumSide::Const(
            c.as_double().expect("numeric const has a double form"),
        )),
        _ => None,
    }
}

/// [`num_accessor`] over a borrowed operand: column storage and literals
/// read in place, widening exactly like the owned form.
fn num_accessor_ref<'a>(v: &'a VRef) -> Option<NumSide<'a>> {
    match v {
        VRef::Vals(b) => num_accessor(b),
        VRef::Col(c) => match c.data() {
            ColumnData::Int(d) => Some(NumSide::Int(d)),
            ColumnData::Long(d) => Some(NumSide::Long(d)),
            ColumnData::Double(d) => Some(NumSide::Double(d)),
            _ => None,
        },
        VRef::Lit(val) => match val {
            Value::Int(_) | Value::Long(_) | Value::Double(_) => Some(NumSide::Const(
                val.as_double().expect("numeric const has a double form"),
            )),
            _ => None,
        },
    }
}

/// Per-row string accessor for statically string-typed batches.
enum StrSide<'a> {
    Dense(&'a [Arc<str>]),
    Const(&'a str),
}

impl StrSide<'_> {
    fn at(&self, i: usize) -> &str {
        match self {
            StrSide::Dense(d) => &d[i],
            StrSide::Const(s) => s,
        }
    }
}

fn str_accessor(v: &BVals) -> Option<StrSide<'_>> {
    match v {
        BVals::Str(d) => Some(StrSide::Dense(d)),
        BVals::Const(Value::Str(s)) => Some(StrSide::Const(s)),
        _ => None,
    }
}

/// [`str_accessor`] over a borrowed operand.
fn str_accessor_ref<'a>(v: &'a VRef) -> Option<StrSide<'a>> {
    match v {
        VRef::Vals(b) => str_accessor(b),
        VRef::Col(c) => match c.data() {
            ColumnData::Str(d) => Some(StrSide::Dense(d)),
            _ => None,
        },
        VRef::Lit(Value::Str(s)) => Some(StrSide::Const(s)),
        VRef::Lit(_) => None,
    }
}

/// Row-at-a-time fallback for operand shapes without a typed kernel;
/// reproduces scalar semantics exactly via the scalar helpers.
fn per_row_binary(op: BinOp, l: &Side, r: &Side, n: usize, nulls: &Mask, errs: &Mask) -> BatchEval {
    let mut out = vec![Value::Null; n];
    let mut null_flags = vec![false; n];
    let mut err_flags = vec![false; n];
    for i in 0..n {
        if errs.get(i) {
            err_flags[i] = true;
            continue;
        }
        if nulls.get(i) {
            null_flags[i] = true;
            continue;
        }
        let (a, b) = (
            value_at_ref(&l.v, &l.nulls, i),
            value_at_ref(&r.v, &r.nulls, i),
        );
        let res = match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => eval_arith(op, &a, &b),
            BinOp::Eq => Ok(Value::Bool(a.loose_eq(&b))),
            BinOp::Ne => Ok(Value::Bool(!a.loose_eq(&b))),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => eval_cmp(op, &a, &b),
            BinOp::And | BinOp::Or => unreachable!(),
        };
        match res {
            Ok(Value::Null) => null_flags[i] = true,
            Ok(v) => out[i] = v,
            Err(_) => err_flags[i] = true,
        }
    }
    BatchEval {
        vals: BVals::Mixed(out),
        nulls: Mask::from_flags(null_flags),
        errs: Mask::from_flags(err_flags),
    }
}

/// `AND` / `OR` dispatch: the dense-boolean fast path runs when it is
/// semantically free to do so, everything else runs the generic
/// short-circuit loop.
///
/// The fast path evaluates the right side eagerly. That is only sound
/// when the left side is error-free and statically boolean: then the set
/// of rows whose right-side *errors* could have been masked by
/// short-circuiting is exactly the set where the fast path requires the
/// right side error-free anyway (it falls back to the generic loop — with
/// the right side already evaluated, which the generic loop treats
/// identically to lazy evaluation).
fn connective(
    is_and: bool,
    l: BatchEval,
    right: impl FnOnce() -> BatchEval,
    n: usize,
) -> BatchEval {
    if matches!(l.errs, Mask::None) && matches!(l.vals, BVals::Bool(_)) {
        let r = right();
        if matches!(r.errs, Mask::None) && matches!(r.vals, BVals::Bool(_)) {
            return connective_dense_simd(is_and, &l, &r, n);
        }
        return connective_generic(is_and, l, move || r, n);
    }
    connective_generic(is_and, l, right, n)
}

/// `AND` / `OR` with scalar short-circuit semantics: the right side is
/// evaluated only for rows whose left side is `true` (AND) / `false` (OR),
/// and its result — *whatever its type* — is returned verbatim for those
/// rows. Errors on skipped right sides stay masked, so the right batch is
/// only computed when at least one row defers to it.
fn connective_generic(
    is_and: bool,
    l: BatchEval,
    right: impl FnOnce() -> BatchEval,
    n: usize,
) -> BatchEval {
    let short_val = !is_and; // AND shorts to false, OR shorts to true
    let mut defer = vec![false; n];
    let mut any_defer = false;
    for (i, d) in defer.iter_mut().enumerate() {
        if !l.errs.get(i) && l.as_bool_at(i) == Some(!short_val) {
            *d = true;
            any_defer = true;
        }
    }
    let r = if any_defer { Some(right()) } else { None };
    // The output is a plain boolean column unless some deferred row takes a
    // non-boolean right-side value (possible: scalar AND returns the right
    // side raw), in which case gather per-row values.
    let bool_like = match &r {
        None => true,
        Some(r) => matches!(
            &r.vals,
            BVals::Bool(_) | BVals::Const(Value::Bool(_)) | BVals::Const(Value::Null)
        ),
    };
    let mut null_flags = vec![false; n];
    let mut err_flags = vec![false; n];
    macro_rules! fill {
        ($out:ident, $short:expr, |$r:ident, $i:ident| $deferred:expr) => {
            for $i in 0..n {
                if l.errs.get($i) {
                    err_flags[$i] = true;
                } else if defer[$i] {
                    let $r = r.as_ref().expect("right evaluated when any row defers");
                    if $r.errs.get($i) {
                        err_flags[$i] = true;
                    } else if $r.nulls.get($i) {
                        null_flags[$i] = true;
                    } else {
                        $out[$i] = $deferred;
                    }
                } else if l.as_bool_at($i) == Some(short_val) {
                    $out[$i] = $short;
                } else {
                    null_flags[$i] = true; // Null or non-boolean left
                }
            }
        };
    }
    let vals = if bool_like {
        let mut out = vec![false; n];
        fill!(out, short_val, |r, i| match &r.vals {
            BVals::Bool(d) => d[i],
            BVals::Const(Value::Bool(b)) => *b,
            _ => unreachable!("non-null row of bool-like batch"),
        });
        BVals::Bool(out)
    } else {
        let mut out = vec![Value::Null; n];
        fill!(out, Value::Bool(short_val), |r, i| r.value_at(i));
        BVals::Mixed(out)
    };
    BatchEval {
        vals,
        nulls: Mask::from_flags(null_flags),
        errs: Mask::from_flags(err_flags),
    }
}

/// Logical NOT: Null passes through, booleans negate, anything else errors.
fn not_batch(e: BatchEval, n: usize) -> BatchEval {
    match &e.vals {
        BVals::Bool(d) => BatchEval {
            // Masked rows negate garbage, which stays unobservable.
            vals: BVals::Bool(d.iter().map(|b| !b).collect()),
            nulls: e.nulls,
            errs: e.errs,
        },
        BVals::Const(Value::Bool(b)) => BatchEval {
            vals: BVals::Const(Value::Bool(!*b)),
            nulls: e.nulls,
            errs: e.errs,
        },
        // Every row is already null or err; NOT preserves both.
        BVals::Const(Value::Null) => e,
        BVals::Mixed(rows) => {
            let mut out = vec![false; n];
            let mut null_flags = vec![false; n];
            let mut err_flags = vec![false; n];
            for i in 0..n {
                if e.errs.get(i) {
                    err_flags[i] = true;
                } else if e.nulls.get(i) {
                    null_flags[i] = true;
                } else {
                    match rows[i].as_bool() {
                        Some(b) => out[i] = !b,
                        None => err_flags[i] = true,
                    }
                }
            }
            BatchEval {
                vals: BVals::Bool(out),
                nulls: Mask::from_flags(null_flags),
                errs: Mask::from_flags(err_flags),
            }
        }
        // Statically non-boolean: every live row errors ("NOT on
        // non-boolean"); null rows still pass through as Null.
        _ => err_all_alive(e, n),
    }
}

/// Flag every non-null, non-err row as an error (for statically ill-typed
/// operations whose scalar twin errors on any live row).
fn err_all_alive(e: BatchEval, n: usize) -> BatchEval {
    let errs = match (&e.errs, &e.nulls) {
        (Mask::All, _) => Mask::All,
        (_, Mask::None) => Mask::All,
        (errs, nulls) => Mask::from_flags((0..n).map(|i| errs.get(i) || !nulls.get(i)).collect()),
    };
    BatchEval {
        vals: BVals::Const(Value::Null),
        nulls: e.nulls,
        errs,
    }
}

/// Built-in function call with scalar argument-order masking: arguments
/// are conceptually evaluated left to right per row; the first erroring
/// argument errors the row, the first null argument nulls the row (masking
/// errors in later arguments), and only fully-live rows reach the kernel.
fn call_batch(func: Func, args: &[BatchEval], n: usize) -> BatchEval {
    let mut alive = vec![true; n];
    let mut null_flags = vec![false; n];
    let mut err_flags = vec![false; n];
    for a in args {
        for i in 0..n {
            if alive[i] {
                if a.errs.get(i) {
                    err_flags[i] = true;
                    alive[i] = false;
                } else if a.nulls.get(i) {
                    null_flags[i] = true;
                    alive[i] = false;
                }
            }
        }
    }
    let masks = |vals: BVals| BatchEval {
        vals,
        nulls: Mask::from_flags(null_flags.clone()),
        errs: Mask::from_flags(err_flags.clone()),
    };
    if !alive.contains(&true) {
        return masks(BVals::Const(Value::Null));
    }
    if args.iter().all(|a| arith_rank(&a.vals).is_some()) {
        // All-numeric fast path: `eval_func` cannot fail on numerics, and
        // every f64 kernel is total, so masked rows may compute garbage.
        let vals = match func {
            Func::Sqrt => BVals::Double(
                widen_f64(&args[0].vals, n)
                    .iter()
                    .map(|x| x.sqrt())
                    .collect(),
            ),
            Func::Ln => BVals::Double(widen_f64(&args[0].vals, n).iter().map(|x| x.ln()).collect()),
            Func::Exp => BVals::Double(
                widen_f64(&args[0].vals, n)
                    .iter()
                    .map(|x| x.exp())
                    .collect(),
            ),
            Func::Pow => {
                let (x, y) = (widen_f64(&args[0].vals, n), widen_f64(&args[1].vals, n));
                BVals::Double(x.iter().zip(&y).map(|(a, b)| a.powf(*b)).collect())
            }
            Func::Abs => match &args[0].vals {
                BVals::Int(d) => BVals::Int(d.iter().map(|x| x.wrapping_abs()).collect()),
                BVals::Long(d) => BVals::Long(d.iter().map(|x| x.wrapping_abs()).collect()),
                BVals::Double(d) => BVals::Double(d.iter().map(|x| x.abs()).collect()),
                BVals::Const(c) => BVals::Const(
                    eval_func(Func::Abs, std::slice::from_ref(c)).expect("abs on numeric"),
                ),
                _ => unreachable!("numeric rank"),
            },
            Func::Min2 | Func::Max2 => {
                // The chosen operand's runtime type is preserved, so the
                // result can mix types across rows; gather and let
                // `into_column` densify when it turns out uniform.
                let (x, y) = (widen_f64(&args[0].vals, n), widen_f64(&args[1].vals, n));
                let mut out = vec![Value::Null; n];
                for i in 0..n {
                    if alive[i] {
                        let first = if func == Func::Min2 {
                            x[i] <= y[i]
                        } else {
                            x[i] >= y[i]
                        };
                        out[i] = if first {
                            args[0].value_at(i)
                        } else {
                            args[1].value_at(i)
                        };
                    }
                }
                BVals::Mixed(out)
            }
        };
        return masks(vals);
    }
    // Some argument is non-numeric or mixed-typed: evaluate live rows one
    // at a time through the scalar kernel.
    let mut out = vec![Value::Null; n];
    for i in 0..n {
        if !alive[i] {
            continue;
        }
        let vals: Vec<Value> = args.iter().map(|a| a.value_at(i)).collect();
        match eval_func(func, &vals) {
            Ok(v) => out[i] = v,
            Err(_) => err_flags[i] = true,
        }
    }
    BatchEval {
        vals: BVals::Mixed(out),
        nulls: Mask::from_flags(null_flags),
        errs: Mask::from_flags(err_flags),
    }
}

// ---------------------------------------------------------------------------
// SIMD kernel suite: the typed kernels `binary` and `connective` dispatch to.
//
// Each kernel must agree bit-for-bit with the scalar row evaluator
// (`Node::eval`) — that is the law the fused engine rests on:
//   * numeric compares widen to `f64` exactly like `Value::as_double`
//     (`NumSide::load8` mirrors `NumSide::at` per lane);
//   * ordering goes through the IEEE total-order key, which is *defined*
//     to agree with `f64::total_cmp`;
//   * integer arithmetic wraps; `f64` division runs IEEE (it cannot trap)
//     and lanes with a zero divisor are overwritten with the scalar
//     placeholder `0.0` and flagged null; `i64` division guards the
//     divisor per element and stays scalar.
// Slices are processed in `LANES`-wide chunks with a scalar tail that uses
// the same accessor methods, so chunked and tail lanes agree bit-for-bit.
// ---------------------------------------------------------------------------

impl NumSide<'_> {
    /// Eight lanes starting at `i`, widened to `f64` exactly like
    /// [`NumSide::at`] (requires `i + LANES <= len`).
    #[inline(always)]
    fn load8(&self, i: usize) -> F64x8 {
        match self {
            NumSide::Int(d) => F64x8::load_i32(&d[i..]),
            NumSide::Long(d) => F64x8::load_i64(&d[i..]),
            NumSide::Double(d) => F64x8::load(&d[i..]),
            NumSide::Const(c) => F64x8::splat(*c),
        }
    }
}

/// Per-row `i64` accessor for statically integer batches (widens like
/// `Value::as_long`, borrowing instead of materializing).
enum IntSide<'a> {
    Int(&'a [i32]),
    Long(&'a [i64]),
    Const(i64),
}

impl IntSide<'_> {
    #[inline(always)]
    fn at(&self, i: usize) -> i64 {
        match self {
            IntSide::Int(d) => i64::from(d[i]),
            IntSide::Long(d) => d[i],
            IntSide::Const(c) => *c,
        }
    }

    /// Eight lanes starting at `i` (requires `i + LANES <= len`).
    #[inline(always)]
    fn load8(&self, i: usize) -> I64x8 {
        match self {
            IntSide::Int(d) => I64x8::load_i32(&d[i..]),
            IntSide::Long(d) => I64x8::load(&d[i..]),
            IntSide::Const(c) => I64x8::splat(*c),
        }
    }
}

fn int_accessor(v: &BVals) -> Option<IntSide<'_>> {
    match v {
        BVals::Int(d) => Some(IntSide::Int(d)),
        BVals::Long(d) => Some(IntSide::Long(d)),
        BVals::Const(c) => c.as_long().map(IntSide::Const),
        _ => None,
    }
}

/// [`int_accessor`] over a borrowed operand.
fn int_accessor_ref<'a>(v: &'a VRef) -> Option<IntSide<'a>> {
    match v {
        VRef::Vals(b) => int_accessor(b),
        VRef::Col(c) => match c.data() {
            ColumnData::Int(d) => Some(IntSide::Int(d)),
            ColumnData::Long(d) => Some(IntSide::Long(d)),
            _ => None,
        },
        VRef::Lit(val) => val.as_long().map(IntSide::Const),
    }
}

/// Typed arithmetic kernel over numeric operands (ranks `a`, `b`: 2 = Int,
/// 3 = Long, 4 = Double, promoting like the scalar evaluator), reading
/// operands in place without materializing widened copies.
#[allow(clippy::too_many_arguments)]
fn simd_arith_kernel(
    op: BinOp,
    l: &VRef,
    r: &VRef,
    a: u8,
    b: u8,
    n: usize,
    nulls: Mask,
    errs: Mask,
) -> BatchEval {
    let head = n - n % LANES;
    if a == 4 || b == 4 {
        let x = num_accessor_ref(l).expect("double-ranked batch has a numeric accessor");
        let y = num_accessor_ref(r).expect("double-ranked batch has a numeric accessor");
        let mut out = vec![0.0f64; n];
        let mut div_nulls = Vec::new();
        macro_rules! f64_map {
            ($lane_op:tt) => {{
                for i in (0..head).step_by(LANES) {
                    (x.load8(i) $lane_op y.load8(i)).store(&mut out[i..]);
                }
                for i in head..n {
                    out[i] = x.at(i) $lane_op y.at(i);
                }
            }};
        }
        match op {
            BinOp::Add => f64_map!(+),
            BinOp::Sub => f64_map!(-),
            BinOp::Mul => f64_map!(*),
            BinOp::Div => {
                // x/0.0 is Null with a 0.0 placeholder; nonzero lanes run
                // the IEEE divide, bit-identical to the scalar `p / q`.
                div_nulls = vec![false; n];
                let zero = F64x8::splat(0.0);
                for i in (0..head).step_by(LANES) {
                    let q = y.load8(i);
                    let z = q.eq(zero);
                    z.select_f64(zero, x.load8(i) / q).store(&mut out[i..]);
                    z.store(&mut div_nulls[i..]);
                }
                for i in head..n {
                    let q = y.at(i);
                    if q == 0.0 {
                        div_nulls[i] = true;
                    } else {
                        out[i] = x.at(i) / q;
                    }
                }
            }
            _ => unreachable!("arith op"),
        }
        let nulls = if div_nulls.contains(&true) {
            Mask::union(&nulls, &Mask::from_flags(div_nulls))
        } else {
            nulls
        };
        return BatchEval {
            vals: BVals::Double(out),
            nulls,
            errs,
        };
    }
    let x = int_accessor_ref(l).expect("integer-ranked batch has an integer accessor");
    let y = int_accessor_ref(r).expect("integer-ranked batch has an integer accessor");
    let mut out = vec![0i64; n];
    let mut div_nulls = Vec::new();
    macro_rules! i64_map {
        ($lane:ident) => {{
            for i in (0..head).step_by(LANES) {
                x.load8(i).$lane(y.load8(i)).store(&mut out[i..]);
            }
            for i in head..n {
                out[i] = x.at(i).$lane(y.at(i));
            }
        }};
    }
    match op {
        BinOp::Add => i64_map!(wrapping_add),
        BinOp::Sub => i64_map!(wrapping_sub),
        BinOp::Mul => i64_map!(wrapping_mul),
        BinOp::Div => {
            // The divisor must be checked per element *before* dividing
            // (placeholder zeros at masked rows would otherwise panic), so
            // integer division stays scalar.
            div_nulls = vec![false; n];
            for (i, (o, d)) in out.iter_mut().zip(&mut div_nulls).enumerate() {
                let q = y.at(i);
                if q == 0 {
                    *d = true;
                } else {
                    *o = x.at(i).wrapping_div(q);
                }
            }
        }
        _ => unreachable!("arith op"),
    }
    let nulls = if div_nulls.contains(&true) {
        Mask::union(&nulls, &Mask::from_flags(div_nulls))
    } else {
        nulls
    };
    let vals = if a == 3 || b == 3 {
        BVals::Long(out)
    } else {
        BVals::Int(out.into_iter().map(|v| v as i32).collect())
    };
    BatchEval { vals, nulls, errs }
}

/// `true` when every value this side can produce fits in `i32` range,
/// the soundness condition for the exact-integer comparison kernels.
fn i32_ranged(s: &IntSide) -> bool {
    match s {
        IntSide::Int(_) => true,
        IntSide::Const(c) => i64::from(i32::MIN) <= *c && *c <= i64::from(i32::MAX),
        IntSide::Long(_) => false,
    }
}

/// Exact-integer `==` / `!=`.
///
/// Agrees with the scalar f64-widening comparison whenever at least one side
/// is i32-ranged: `as f64` is exact below 2^53 and preserves sign and
/// magnitude ordering above it, so a collision or an order flip between the
/// two paths would require *both* operands' magnitudes to exceed 2^53 —
/// impossible with an i32-ranged side. Skipping the widening avoids the
/// per-lane i64→f64 conversions, which LLVM scalarizes on most targets.
fn simd_int_eq(a: &IntSide, b: &IntSide, n: usize, neg: bool) -> Vec<bool> {
    let mut out = vec![false; n];
    let head = n - n % LANES;
    for i in (0..head).step_by(LANES) {
        let m = a.load8(i).eq(b.load8(i));
        (if neg { !m } else { m }).store(&mut out[i..]);
    }
    for (i, o) in out.iter_mut().enumerate().skip(head) {
        *o = (a.at(i) == b.at(i)) != neg;
    }
    out
}

/// Exact-integer ordering (same soundness condition as [`simd_int_eq`]).
fn simd_int_ord(op: BinOp, a: &IntSide, b: &IntSide, n: usize) -> Vec<bool> {
    let mut out = vec![false; n];
    let head = n - n % LANES;
    for i in (0..head).step_by(LANES) {
        let ka = a.load8(i);
        let kb = b.load8(i);
        let m = match op {
            BinOp::Lt => ka.lt(kb),
            BinOp::Le => ka.le(kb),
            BinOp::Gt => kb.lt(ka),
            BinOp::Ge => kb.le(ka),
            _ => unreachable!("ordering op"),
        };
        m.store(&mut out[i..]);
    }
    let ord_test = cmp_test(op);
    for (i, o) in out.iter_mut().enumerate().skip(head) {
        *o = ord_test(a.at(i).cmp(&b.at(i)));
    }
    out
}

/// Lane-parallel numeric `==` / `!=` (IEEE equality after f64 widening,
/// exactly like `Value::loose_eq` on numerics).
fn simd_num_eq(a: &NumSide, b: &NumSide, n: usize, neg: bool) -> Vec<bool> {
    let mut out = vec![false; n];
    let head = n - n % LANES;
    for i in (0..head).step_by(LANES) {
        let m = a.load8(i).eq(b.load8(i));
        (if neg { !m } else { m }).store(&mut out[i..]);
    }
    for (i, o) in out.iter_mut().enumerate().skip(head) {
        *o = (a.at(i) == b.at(i)) != neg;
    }
    out
}

/// Lane-parallel numeric ordering via the total-order key — agrees with
/// `f64::total_cmp` by construction (`Gt`/`Ge` swap operands of `lt`/`le`).
fn simd_num_ord(op: BinOp, a: &NumSide, b: &NumSide, n: usize) -> Vec<bool> {
    let mut out = vec![false; n];
    let head = n - n % LANES;
    for i in (0..head).step_by(LANES) {
        let ka = a.load8(i).total_keys();
        let kb = b.load8(i).total_keys();
        let m = match op {
            BinOp::Lt => ka.lt(kb),
            BinOp::Le => ka.le(kb),
            BinOp::Gt => kb.lt(ka),
            BinOp::Ge => kb.le(ka),
            _ => unreachable!("ordering op"),
        };
        m.store(&mut out[i..]);
    }
    let ord_test = cmp_test(op);
    for (i, o) in out.iter_mut().enumerate().skip(head) {
        *o = ord_test(a.at(i).total_cmp(&b.at(i)));
    }
    out
}

/// Lane-parallel `AND` / `OR` over two dense error-free boolean batches.
///
/// Garbage at null slots is harmless by the placement of the null flags:
/// a null left side nulls the row outright, and a null right side only
/// nulls rows that defer to it — exactly the scalar short-circuit rule.
fn connective_dense_simd(is_and: bool, l: &BatchEval, r: &BatchEval, n: usize) -> BatchEval {
    let (lv, rv) = match (&l.vals, &r.vals) {
        (BVals::Bool(a), BVals::Bool(b)) => (a, b),
        _ => unreachable!("dense connective on non-bool batches"),
    };
    let mut out = vec![false; n];
    let head = n - n % LANES;
    for i in (0..head).step_by(LANES) {
        let a = M8::load(&lv[i..]);
        let b = M8::load(&rv[i..]);
        (if is_and { a.and(b) } else { a.or(b) }).store(&mut out[i..]);
    }
    for i in head..n {
        out[i] = if is_and {
            lv[i] && rv[i]
        } else {
            lv[i] || rv[i]
        };
    }
    let nulls = match (&l.nulls, &r.nulls) {
        (Mask::None, Mask::None) => Mask::None,
        (ln, rn) => Mask::from_flags(
            (0..n)
                .map(|i| {
                    let defers = if is_and { lv[i] } else { !lv[i] };
                    ln.get(i) || (defers && rn.get(i))
                })
                .collect(),
        ),
    };
    BatchEval {
        vals: BVals::Bool(out),
        nulls,
        errs: Mask::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
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

    fn both(e: &Expr) -> (Result<Value>, Result<Value>) {
        let s = schema();
        let r = sample();
        (e.eval(&s, &r), CompiledExpr::compile(e, &s).eval(&r))
    }

    #[test]
    fn matches_interpreter_on_bt_shapes() {
        for e in [
            col("StreamId").eq(lit(1)),
            col("Count").add(lit(1i32)).mul(col("Ctr")),
            col("UserId").eq(lit("u1")).and(col("Count").gt(lit(10i64))),
            col("Count").div(lit(0i64)),
            col("Ctr").sqrt().sub(lit(0.5f64)).abs(),
        ] {
            let (interp, compiled) = both(&e);
            assert_eq!(interp.unwrap(), compiled.unwrap(), "expr: {e}");
        }
    }

    #[test]
    fn unknown_column_errors_lazily_like_interpreter() {
        let s = schema();
        let r = sample();
        // Reached: both error.
        let e = col("Nope").add(lit(1i64));
        assert!(e.eval(&s, &r).is_err());
        assert!(CompiledExpr::compile(&e, &s).eval(&r).is_err());
        // Short-circuited away: both succeed.
        let e = col("StreamId").eq(lit(99)).and(col("Nope").lt(lit(1i64)));
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Bool(false));
        assert_eq!(
            CompiledExpr::compile(&e, &s).eval(&r).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn literal_subtrees_fold_only_on_success() {
        let s = schema();
        // 2 + 3 folds to a literal...
        let c = CompiledExpr::compile(&lit(2i64).add(lit(3i64)), &s);
        assert_eq!(c.node, Node::Lit(Value::Long(5)));
        // ...but an erroring literal subtree must stay and keep erroring.
        let bad = lit("x").add(lit(1i64));
        let c = CompiledExpr::compile(&bad, &s);
        assert!(c.eval(&sample()).is_err());
        assert!(bad.eval(&s, &sample()).is_err());
    }

    #[test]
    fn predicate_null_is_false() {
        let s = Schema::new(vec![Field::new("X", ColumnType::Long)]);
        let r = Row::new(vec![Value::Null]);
        let c = CompiledExpr::compile(&col("X").gt(lit(0i64)), &s);
        assert!(!c.eval_predicate(&r).unwrap());
    }

    fn sample_batch() -> ColumnBatch {
        let rows = vec![
            sample(),
            row![2i32, 0i64, 4.0f64, "u2"],
            Row::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]),
        ];
        ColumnBatch::from_rows(&schema(), &rows).unwrap()
    }

    /// Whole-batch evaluation the way the fused projection drives it: the
    /// first failing row is re-run scalar-side for the exact error, and
    /// `Ok(None)` means no dense column form.
    fn eval_batch(c: &CompiledExpr, batch: &ColumnBatch) -> Result<Option<Column>> {
        let raw = c.eval_batch_raw_sel(batch, None);
        match raw.first_err(batch.len()) {
            Some(i) => Err(c.eval(&batch.row(i)).unwrap_err()),
            None => Ok(raw.into_column(batch.len())),
        }
    }

    #[test]
    fn batch_eval_matches_scalar_per_row() {
        let s = schema();
        let batch = sample_batch();
        for e in [
            col("Count").add(lit(1i32)).mul(col("Ctr")),
            col("Count").div(lit(0i64)),
            lit(1i64).div(col("Count")),
            col("Ctr").sqrt().sub(lit(0.5f64)).abs(),
            col("UserId").eq(lit("u1")),
            col("StreamId").eq(lit(1)).and(col("Count").gt(lit(10i64))),
            col("StreamId").eq(lit(1)).or(col("Count").gt(lit(10i64))),
            col("StreamId").eq(lit(1)).not(),
        ] {
            let c = CompiledExpr::compile(&e, &s);
            let out = eval_batch(&c, &batch).unwrap().expect("dense result");
            for i in 0..batch.len() {
                assert_eq!(
                    out.value(i),
                    c.eval(&batch.row(i)).unwrap(),
                    "expr {e}, row {i}"
                );
            }
        }
    }

    #[test]
    fn batch_predicate_matches_scalar_per_row() {
        let s = schema();
        let batch = sample_batch();
        let c = CompiledExpr::compile(
            &col("StreamId").eq(lit(1)).or(col("Ctr").gt(lit(1.0f64))),
            &s,
        );
        let mask = c.eval_predicate_batch_sel(&batch, None).unwrap();
        for (i, &keep) in mask.iter().enumerate() {
            assert_eq!(keep, c.eval_predicate(&batch.row(i)).unwrap(), "row {i}");
        }
    }

    #[test]
    fn batch_errors_reproduce_first_scalar_error() {
        let s = schema();
        let batch = sample_batch();
        // Unknown column errors on the first row that evaluates it.
        let c = CompiledExpr::compile(&col("Nope").add(lit(1i64)), &s);
        let batch_err = eval_batch(&c, &batch).unwrap_err().to_string();
        let scalar_err = c.eval(&batch.row(0)).unwrap_err().to_string();
        assert_eq!(batch_err, scalar_err);
        // Non-boolean predicate reproduces the scalar message too.
        let c = CompiledExpr::compile(&col("Count").add(lit(1i64)), &s);
        let batch_err = c
            .eval_predicate_batch_sel(&batch, None)
            .unwrap_err()
            .to_string();
        let scalar_err = c.eval_predicate(&batch.row(0)).unwrap_err().to_string();
        assert_eq!(batch_err, scalar_err);
    }

    #[test]
    fn batch_short_circuit_masks_right_side_errors() {
        let s = schema();
        let batch = sample_batch();
        // Left side is false everywhere it is non-null, so the unknown
        // column on the right must never surface.
        let e = col("StreamId").eq(lit(99)).and(col("Nope").lt(lit(1i64)));
        let c = CompiledExpr::compile(&e, &s);
        let out = eval_batch(&c, &batch).unwrap().expect("dense result");
        for i in 0..batch.len() {
            assert_eq!(out.value(i), c.eval(&batch.row(i)).unwrap(), "row {i}");
        }
    }

    #[test]
    fn batch_empty_input_yields_empty_column() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &[]).unwrap();
        let c = CompiledExpr::compile(&col("Count").add(lit(1i64)), &s);
        let out = eval_batch(&c, &batch).unwrap().expect("dense result");
        assert_eq!(out.len(), 0);
        assert!(c.eval_predicate_batch_sel(&batch, None).unwrap().is_empty());
    }
}
