//! Compiled expressions, evaluated a batch at a time.
//!
//! [`Expr::eval`] is the language's definition: one row, every column
//! reference resolved by *name*. The engine never evaluates that way.
//! [`CompiledExpr`] resolves the names **once per operator invocation** and
//! evaluates over the columns of a whole batch (or the rows a selection
//! vector names) through the SIMD kernel suite below. It is the engine's
//! one evaluator: filters, projections, aggregate arguments, a join's
//! residual and the real-time session all go through it.
//!
//! Compilation is deliberately **infallible** and performs *no* static type
//! checking beyond index resolution. [`Expr::eval`]'s observable
//! behaviour includes lazily-surfaced errors (an unknown column only errors
//! if evaluation actually reaches it — `AND`/`OR` short-circuiting can skip
//! it entirely), so an eager `compile → Result` would reject expressions the
//! interpreter happily evaluates. Instead, unknown columns compile to a
//! deferred-error node that fails exactly the rows that reach it. Literal-only
//! subtrees are constant-folded (on a one-row batch with no columns), but
//! only when their evaluation succeeds; failing subtrees are left intact so
//! the error still surfaces at eval time, exactly as under [`Expr::eval`].
//!
//! A kernel never stops at a failing row: it records, for that row, the
//! error [`Expr::eval`] returns there ([`Errs`]) and goes on, so a caller
//! learns every failing row and its error from one evaluation and picks the
//! one its order meets first — nothing is ever evaluated again to learn why
//! a row failed. Equivalence with [`Expr::eval`] row by row — values *and*
//! errors — is asserted by property tests over randomized schemas, rows,
//! and expression trees (`tests/prop_compiled.rs`, `tests/prop_columnar.rs`).

use crate::agg::Cell;
use crate::error::{Result, TemporalError};
use crate::expr::{eval_arith, eval_cmp, eval_func, BinOp, Expr, Func};
use relation::column::{Column, ColumnBatch, ColumnData, Validity};
use relation::dict::{Interner, StrCodes};
use relation::{RelationError, Schema, Value};
use simd::{F64x8, I64x8, LANES, M8};
use std::borrow::Cow;
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
}

/// Failing rows in ascending order, each with its error.
pub(crate) type RowErrors = Vec<(u32, Arc<TemporalError>)>;

/// An expression resolved against a fixed input [`Schema`], evaluable over
/// batches of that schema.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledExpr {
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
    pub(crate) fn compile(expr: &Expr, schema: &Schema) -> CompiledExpr {
        CompiledExpr {
            node: fold(compile_node(expr, schema)),
        }
    }

    /// Evaluate as a filter predicate over the rows of `batch` named by
    /// `sel` (all rows when `None`): the returned mask has one slot per
    /// *selected* row and holds `true` exactly where
    /// [`Expr::eval_predicate`] would (Null counts as false). Otherwise
    /// every selected row (by its slot) where [`Expr::eval_predicate`]
    /// fails, with that error: an evaluation error, or a value that is not
    /// a boolean.
    pub(crate) fn eval_predicate_batch_sel(
        &self,
        batch: &ColumnBatch,
        sel: Option<&[u32]>,
    ) -> std::result::Result<Vec<bool>, RowErrors> {
        let ctx = EvalCtx { sel };
        let n = ctx.rows(batch);
        let raw = self.node.eval_batch(batch, ctx);
        // Bulk path for the common case — a statically-boolean result with
        // no errors anywhere: take the dense vector (or broadcast the
        // constant) and mask nulls to false word-at-a-time, with no per-row
        // error branch. `Const(Null)` with no errors means every row is
        // null (the `constant` invariant), i.e. all-false.
        if matches!(raw.errs, Errs::None)
            && matches!(
                raw.vals,
                BVals::Bool(_) | BVals::Const(Value::Bool(_)) | BVals::Const(Value::Null)
            )
        {
            let mut keep = match raw.vals {
                BVals::Bool(d) => d.into_owned(),
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
        let mut failed = RowErrors::new();
        for (i, k) in keep.iter_mut().enumerate() {
            if let Some(err) = raw.errs.at(i) {
                failed.push((i as u32, err));
            } else if !raw.nulls.get(i) {
                match raw.value_at(i) {
                    Value::Bool(b) => *k = b,
                    other => failed.push((
                        i as u32,
                        Arc::new(TemporalError::Eval(format!(
                            "predicate evaluated to non-boolean {other}"
                        ))),
                    )),
                }
            }
        }
        match failed.is_empty() {
            true => Ok(keep),
            false => Err(failed),
        }
    }

    /// Batch evaluation over the rows named by `sel` (all rows when
    /// `None`): one slot per selected row, each a value or the error
    /// [`Expr::eval`] returns there.
    pub(crate) fn eval_batch_raw_sel<'a>(
        &self,
        batch: &'a ColumnBatch,
        sel: Option<&[u32]>,
    ) -> BatchEval<'a> {
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

/// Constant-fold a subtree that reads no columns, evaluated over one row
/// with no columns, but only when that evaluation succeeds — a failing
/// subtree must keep failing at eval time.
fn fold(node: Node) -> Node {
    if matches!(node, Node::Lit(_) | Node::Col(_) | Node::MissingCol(_)) || node.reads_columns() {
        return node;
    }
    let one_row = ColumnBatch::new(Schema::new(Vec::new()), Vec::new(), 1);
    let out = node.eval_batch(&one_row, EvalCtx { sel: None });
    match out.errs {
        Errs::None => Node::Lit(out.value_at(0)),
        _ => node,
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

    /// Vectorized [`Expr::eval`]: one result per batch row.
    ///
    /// Never fails — per-row failures are recorded with their errors in
    /// [`Errs`]. The invariant relied on throughout: for every row `i`,
    /// [`Expr::eval`] of the gathered row is `Err(e)` iff `errs.at(i)` is
    /// `Some(e)`, `Ok(Null)` iff `nulls.get(i)` (and not err), and
    /// otherwise `Ok(value_at(i))` bit-for-bit.
    fn eval_batch<'a>(&self, batch: &'a ColumnBatch, ctx: EvalCtx) -> BatchEval<'a> {
        let n = ctx.rows(batch);
        match self {
            Node::Col(i) => BatchEval::leaf(batch.column(*i), ctx.sel),
            // Unknown column: every row it is evaluated for fails with one
            // shared error, exactly like the interpreter's.
            Node::MissingCol(name) => BatchEval {
                vals: BVals::Const(Value::Null),
                nulls: Mask::None,
                errs: Errs::All(Arc::new(TemporalError::Relation(
                    RelationError::UnknownColumn(name.clone()),
                ))),
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
                _ => binary(
                    *op,
                    left.eval_batch(batch, ctx),
                    right.eval_batch(batch, ctx),
                    n,
                ),
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

/// The rows whose evaluation fails, each with the error [`Expr::eval`]
/// returns there. Errors are rare, so they are kept sparse: nothing at all
/// when no row fails, one error when every row fails with it (an unknown
/// column), and otherwise the failing rows alone, rows that fail alike
/// sharing one error.
#[derive(Debug, Clone)]
enum Errs {
    /// No row fails.
    None,
    /// Every row fails with this error.
    All(Arc<TemporalError>),
    /// The failing rows, in order, with their errors.
    Each(RowErrors),
}

impl Errs {
    /// The rows `failed` names (in any order, each once) fail.
    fn each(mut failed: RowErrors) -> Errs {
        if failed.is_empty() {
            return Errs::None;
        }
        failed.sort_unstable_by_key(|&(i, _)| i);
        Errs::Each(failed)
    }

    /// The error of row `i`, if it fails.
    fn at(&self, i: usize) -> Option<Arc<TemporalError>> {
        match self {
            Errs::None => None,
            Errs::All(err) => Some(Arc::clone(err)),
            Errs::Each(rows) => (rows.binary_search_by_key(&(i as u32), |&(r, _)| r).ok())
                .map(|k| Arc::clone(&rows[k].1)),
        }
    }

    fn first(&self, n: usize) -> Option<usize> {
        match self {
            Errs::None => None,
            Errs::All(_) => (n > 0).then_some(0),
            Errs::Each(rows) => rows.first().map(|&(i, _)| i as usize),
        }
    }

    /// Every failing row of `n`, in order, with its error.
    fn rows(&self, n: usize) -> RowErrors {
        match self {
            Errs::None => RowErrors::new(),
            Errs::All(err) => (0..n as u32).map(|i| (i, Arc::clone(err))).collect(),
            Errs::Each(rows) => rows.clone(),
        }
    }

    /// The rows either operand fails, with the left operand's error where
    /// both do: a row evaluates its left operand first.
    fn first_of(l: Errs, r: Errs, n: usize) -> Errs {
        match (l, r) {
            (Errs::None, errs) | (errs, Errs::None) => errs,
            (l, r) => Errs::each(
                (0..n)
                    .filter_map(|i| Some((i as u32, l.at(i).or_else(|| r.at(i))?)))
                    .collect(),
            ),
        }
    }
}

/// Batch values: one dense vector per runtime type, a broadcast constant,
/// or a per-row `Value` gather when rows carry mixed runtime types. A
/// vector is a batch column's storage borrowed in place (a column leaf
/// over every row) or owned (a kernel's result, or a column gathered
/// through a selection); the kernels read both alike.
#[derive(Debug, Clone)]
enum BVals<'a> {
    Const(Value),
    Bool(Cow<'a, [bool]>),
    Int(Cow<'a, [i32]>),
    Long(Cow<'a, [i64]>),
    Double(Cow<'a, [f64]>),
    Str(Cow<'a, StrCodes>),
    Mixed(Vec<Value>),
}

/// Scalar cell at slot `i` of a batch-values vector (no null masking —
/// callers check their mask first).
#[inline]
fn bvals_cell<'v>(v: &'v BVals<'_>, i: usize) -> Cell<'v> {
    match v {
        BVals::Const(v) => Cell::of(v),
        BVals::Bool(d) => Cell::Bool(d[i]),
        BVals::Int(d) => Cell::Int(d[i]),
        BVals::Long(d) => Cell::Long(d[i]),
        BVals::Double(d) => Cell::Double(d[i]),
        BVals::Str(d) => Cell::Str(d.get(i)),
        BVals::Mixed(v) => Cell::of(&v[i]),
    }
}

/// Result of evaluating one expression node over a whole batch.
///
/// Rows that fail in `errs` hold garbage in `vals`; rows flagged in `nulls`
/// (and not failing — error wins on read) are `Null` and hold an
/// unobservable placeholder. Kernels may compute garbage at masked rows as
/// long as nothing can panic (integer division guards its divisor). `'a`
/// is the batch a column leaf borrows; a kernel's result owns its values
/// (`BatchEval<'static>`).
pub(crate) struct BatchEval<'a> {
    vals: BVals<'a>,
    nulls: Mask,
    errs: Errs,
}

impl<'a> BatchEval<'a> {
    /// Lowest row whose evaluation fails, if any.
    pub(crate) fn first_err(&self, n: usize) -> Option<usize> {
        self.errs.first(n)
    }

    /// Every failing row of `n`, in order, with its error.
    pub(crate) fn errors(&self, n: usize) -> RowErrors {
        self.errs.rows(n)
    }

    fn constant(v: Value) -> BatchEval<'static> {
        let nulls = if v.is_null() { Mask::All } else { Mask::None };
        BatchEval {
            vals: BVals::Const(v),
            nulls,
            errs: Errs::None,
        }
    }

    /// Column `col` at the live rows: its storage read in place when every
    /// row is live, so a dense `col <op> lit` allocates nothing for its
    /// leaf; the rows `sel` names gathered into a vector of their own
    /// otherwise, so everything downstream runs dense over the selection.
    fn leaf(col: &'a Column, sel: Option<&[u32]>) -> BatchEval<'a> {
        fn read<'a, T: Copy>(d: &'a [T], sel: Option<&[u32]>) -> Cow<'a, [T]> {
            match sel {
                None => Cow::Borrowed(d),
                Some(sel) => sel.iter().map(|&i| d[i as usize]).collect(),
            }
        }
        let nulls = col.validity().map_or(Mask::None, |v| {
            Mask::from_flags(match sel {
                None => (0..v.len()).map(|i| !v.is_valid(i)).collect(),
                Some(sel) => sel.iter().map(|&i| !v.is_valid(i as usize)).collect(),
            })
        });
        let vals = match col.data() {
            ColumnData::Bool(d) => BVals::Bool(read(d, sel)),
            ColumnData::Int(d) => BVals::Int(read(d, sel)),
            ColumnData::Long(d) => BVals::Long(read(d, sel)),
            ColumnData::Double(d) => BVals::Double(read(d, sel)),
            ColumnData::Str(d) => BVals::Str(match sel {
                None => Cow::Borrowed(d),
                Some(sel) => Cow::Owned(d.gather(sel)),
            }),
        };
        BatchEval {
            vals,
            nulls,
            errs: Errs::None,
        }
    }

    /// Scalar result of row `i` (callers must rule out `errs` first).
    pub(crate) fn value_at(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// [`Self::value_at`] borrowed: the cell an accumulator reads, read
    /// off the typed vector without building a `Value` (callers must rule
    /// out `errs` first).
    #[inline]
    pub(crate) fn cell(&self, i: usize) -> Cell<'_> {
        if self.nulls.get(i) {
            return Cell::Null;
        }
        bvals_cell(&self.vals, i)
    }

    /// Row `i`: its cell, or its error.
    #[inline]
    pub(crate) fn try_cell(&self, i: usize) -> Result<Cell<'_>> {
        match self.errs.at(i) {
            Some(err) => Err(Arc::unwrap_or_clone(err)),
            None => Ok(self.cell(i)),
        }
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
    /// runtime types (which a well-typed expression over well-typed columns
    /// never does): a computed vector moves, a borrowed one is copied once.
    /// Must only be called once `errs` has been shown empty.
    pub(crate) fn into_column(self, n: usize) -> Option<Column> {
        let BatchEval { vals, nulls, errs } = self;
        debug_assert!(errs.first(n).is_none());
        let data = match vals {
            BVals::Bool(d) => ColumnData::Bool(d.into_owned()),
            BVals::Int(d) => ColumnData::Int(d.into_owned()),
            BVals::Long(d) => ColumnData::Long(d.into_owned()),
            BVals::Double(d) => ColumnData::Double(d.into_owned()),
            BVals::Str(d) => ColumnData::Str(d.into_owned()),
            BVals::Const(v) => match v {
                // All rows are null (invariant of Const(Null) with empty
                // errs); the data variant is an unobservable carrier.
                Value::Null => ColumnData::Bool(vec![false; n]),
                Value::Bool(b) => ColumnData::Bool(vec![b; n]),
                Value::Int(x) => ColumnData::Int(vec![x; n]),
                Value::Long(x) => ColumnData::Long(vec![x; n]),
                Value::Double(x) => ColumnData::Double(vec![x; n]),
                Value::Str(s) => ColumnData::Str(StrCodes::repeat(&s, n)),
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
        Some(Value::Str(_)) => {
            let mut strings = Interner::with_capacity(rows.len().min(64));
            let empty = Arc::from("");
            let mut codes = Vec::with_capacity(rows.len());
            for (i, v) in rows.iter().enumerate() {
                match v {
                    Value::Str(s) => codes.push(strings.intern(s)),
                    _ if nulls.get(i) => codes.push(strings.intern(&empty)),
                    _ => return None,
                }
            }
            ColumnData::Str(StrCodes::new(strings.finish(), codes))
        }
        Some(Value::Null) => unreachable!("non-null row holds Null"),
    })
}

/// Numeric rank of a batch's static value type: 2 = Int, 3 = Long,
/// 4 = Double (matching `Expr::eval`'s promotion order); `None` when the type is
/// non-numeric or not statically known (`Mixed`).
fn arith_rank(v: &BVals<'_>) -> Option<u8> {
    match v {
        BVals::Int(_) | BVals::Const(Value::Int(_)) => Some(2),
        BVals::Long(_) | BVals::Const(Value::Long(_)) => Some(3),
        BVals::Double(_) | BVals::Const(Value::Double(_)) => Some(4),
        _ => None,
    }
}

/// Widen a numeric batch to dense `f64` (mirrors `Value::as_double`).
fn widen_f64(v: &BVals<'_>, n: usize) -> Vec<f64> {
    match v {
        BVals::Int(d) => d.iter().map(|&x| f64::from(x)).collect(),
        BVals::Long(d) => d.iter().map(|&x| x as f64).collect(),
        BVals::Double(d) => d.to_vec(),
        BVals::Const(c) => vec![c.as_double().expect("numeric const"); n],
        _ => unreachable!("widen_f64 on non-numeric batch"),
    }
}

/// Non-connective binary operator over two evaluated operands.
fn binary(op: BinOp, mut l: BatchEval<'_>, mut r: BatchEval<'_>, n: usize) -> BatchEval<'static> {
    // Row order: left `?`, right `?`, *then* the null check — so a row
    // fails where either operand does, with the left operand's error first
    // (a right-side error surfaces even when the left side is null), and
    // null rows are the union of the rest.
    let errs = Errs::first_of(
        std::mem::replace(&mut l.errs, Errs::None),
        std::mem::replace(&mut r.errs, Errs::None),
        n,
    );
    let nulls = Mask::union(&l.nulls, &r.nulls);
    if matches!(nulls, Mask::All) {
        return BatchEval {
            vals: BVals::Const(Value::Null),
            nulls,
            errs,
        };
    }
    let (lv, rv) = (&l.vals, &r.vals);
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if arith_rank(lv).is_some() && arith_rank(rv).is_some() {
                simd_arith_kernel(op, &l, &r, n, nulls, errs)
            } else {
                per_row_binary(op, &l, &r, n, &nulls, &errs)
            }
        }
        BinOp::And | BinOp::Or => unreachable!("handled by connective"),
        // Comparisons. Numeric ones read both operands through a borrowing
        // accessor (dense slice or broadcast constant) instead of
        // materializing two widened f64 vectors per batch — over a column
        // read in place, the `col == lit` filter shape allocates only the
        // output mask.
        _ => {
            let (eq, neg) = (matches!(op, BinOp::Eq | BinOp::Ne), op == BinOp::Ne);
            let out = if let (Some(na), Some(nb)) = (num_accessor(lv), num_accessor(rv)) {
                // Integer batches with an i32-ranged side skip the f64
                // widening entirely — provably the same answers, none of
                // the per-lane int→float conversions (see `simd_int_eq`).
                match (int_accessor(lv), int_accessor(rv)) {
                    (Some(ia), Some(ib)) if i32_ranged(&ia) || i32_ranged(&ib) => match eq {
                        true => simd_int_eq(&ia, &ib, n, neg),
                        false => simd_int_ord(op, &ia, &ib, n),
                    },
                    _ if eq => simd_num_eq(&na, &nb, n, neg),
                    _ => simd_num_ord(op, &na, &nb, n),
                }
            } else if let (Some(sa), Some(sb)) = (str_accessor(lv), str_accessor(rv)) {
                match eq {
                    true => str_eq(&sa, &sb, n, neg),
                    false => {
                        let ord_test = cmp_test(op);
                        (0..n).map(|i| ord_test(sa.at(i).cmp(sb.at(i)))).collect()
                    }
                }
            } else {
                return per_row_binary(op, &l, &r, n, &nulls, &errs);
            };
            BatchEval {
                vals: BVals::Bool(out.into()),
                nulls,
                errs,
            }
        }
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
/// (so comparisons agree bit-for-bit with `Expr::eval`'s
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

fn num_accessor<'v>(v: &'v BVals<'_>) -> Option<NumSide<'v>> {
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

/// Per-row string accessor for statically string-typed batches.
enum StrSide<'a> {
    Dense(&'a StrCodes),
    Const(&'a str),
}

impl StrSide<'_> {
    fn at(&self, i: usize) -> &str {
        match self {
            StrSide::Dense(d) => d.get(i),
            StrSide::Const(s) => s,
        }
    }
}

/// `(a[i] == b[i]) != neg` for every row of two string operands, on codes:
/// one dictionary compares codes, a literal is looked up once in the
/// column's dictionary, and only two dictionaries compare strings.
fn str_eq(a: &StrSide, b: &StrSide, n: usize, neg: bool) -> Vec<bool> {
    let codes_eq = |codes: &[u32], c: Option<u32>| -> Vec<bool> {
        match c {
            Some(c) => codes.iter().map(|&x| (x == c) != neg).collect(),
            None => vec![neg; n],
        }
    };
    match (a, b) {
        (StrSide::Dense(x), StrSide::Dense(y)) if x.same_dict(y) => (x.codes().iter())
            .zip(y.codes())
            .map(|(p, q)| (p == q) != neg)
            .collect(),
        (StrSide::Dense(d), StrSide::Const(s)) | (StrSide::Const(s), StrSide::Dense(d)) => {
            codes_eq(d.codes(), d.dict().find(s))
        }
        _ => (0..n).map(|i| (a.at(i) == b.at(i)) != neg).collect(),
    }
}

fn str_accessor<'v>(v: &'v BVals<'_>) -> Option<StrSide<'v>> {
    match v {
        BVals::Str(d) => Some(StrSide::Dense(d)),
        BVals::Const(Value::Str(s)) => Some(StrSide::Const(s)),
        _ => None,
    }
}

/// Row-at-a-time fallback for operand shapes without a typed kernel;
/// reproduces [`Expr::eval`] exactly via its helpers, errors included.
fn per_row_binary(
    op: BinOp,
    l: &BatchEval<'_>,
    r: &BatchEval<'_>,
    n: usize,
    nulls: &Mask,
    errs: &Errs,
) -> BatchEval<'static> {
    let mut out = vec![Value::Null; n];
    let mut null_flags = vec![false; n];
    let mut failed = RowErrors::new();
    for i in 0..n {
        if let Some(err) = errs.at(i) {
            failed.push((i as u32, err));
            continue;
        }
        if nulls.get(i) {
            null_flags[i] = true;
            continue;
        }
        let (a, b) = (l.value_at(i), r.value_at(i));
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
            Err(e) => failed.push((i as u32, Arc::new(e))),
        }
    }
    BatchEval {
        vals: BVals::Mixed(out),
        nulls: Mask::from_flags(null_flags),
        errs: Errs::each(failed),
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
fn connective<'a>(
    is_and: bool,
    l: BatchEval<'a>,
    right: impl FnOnce() -> BatchEval<'a>,
    n: usize,
) -> BatchEval<'static> {
    if matches!(l.errs, Errs::None) && matches!(l.vals, BVals::Bool(_)) {
        let r = right();
        if matches!(r.errs, Errs::None) && matches!(r.vals, BVals::Bool(_)) {
            return connective_dense_simd(is_and, &l, &r, n);
        }
        return connective_generic(is_and, l, move || r, n);
    }
    connective_generic(is_and, l, right, n)
}

/// `AND` / `OR` with `Expr::eval`'s short-circuit semantics: the right side is
/// evaluated only for rows whose left side is `true` (AND) / `false` (OR),
/// and its result — *whatever its type* — is returned verbatim for those
/// rows. A row fails where its left side does, or where it defers and its
/// right side does; errors on skipped right sides stay masked, so the right
/// batch is only computed when at least one row defers to it.
fn connective_generic<'a>(
    is_and: bool,
    l: BatchEval<'a>,
    right: impl FnOnce() -> BatchEval<'a>,
    n: usize,
) -> BatchEval<'static> {
    let short_val = !is_and; // AND shorts to false, OR shorts to true
    let mut defer = vec![false; n];
    let mut any_defer = false;
    for (i, d) in defer.iter_mut().enumerate() {
        if l.errs.at(i).is_none() && l.as_bool_at(i) == Some(!short_val) {
            *d = true;
            any_defer = true;
        }
    }
    let r = if any_defer { Some(right()) } else { None };
    // The output is a plain boolean column unless some deferred row takes a
    // non-boolean right-side value (possible: `Expr::eval`'s AND returns the right
    // side raw), in which case gather per-row values.
    let bool_like = match &r {
        None => true,
        Some(r) => matches!(
            &r.vals,
            BVals::Bool(_) | BVals::Const(Value::Bool(_)) | BVals::Const(Value::Null)
        ),
    };
    let mut null_flags = vec![false; n];
    let mut failed = RowErrors::new();
    macro_rules! fill {
        ($out:ident, $short:expr, |$r:ident, $i:ident| $deferred:expr) => {
            for $i in 0..n {
                if let Some(err) = l.errs.at($i) {
                    failed.push(($i as u32, err));
                } else if defer[$i] {
                    let $r = r.as_ref().expect("right evaluated when any row defers");
                    if let Some(err) = $r.errs.at($i) {
                        failed.push(($i as u32, err));
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
        BVals::Bool(out.into())
    } else {
        let mut out = vec![Value::Null; n];
        fill!(out, Value::Bool(short_val), |r, i| r.value_at(i));
        BVals::Mixed(out)
    };
    BatchEval {
        vals,
        nulls: Mask::from_flags(null_flags),
        errs: Errs::each(failed),
    }
}

/// Logical NOT: Null passes through, booleans negate, anything else errors.
fn not_batch(e: BatchEval<'_>, n: usize) -> BatchEval<'_> {
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
            let mut failed = RowErrors::new();
            let not_bool = Arc::new(not_on_non_boolean());
            for i in 0..n {
                if let Some(err) = e.errs.at(i) {
                    failed.push((i as u32, err));
                } else if e.nulls.get(i) {
                    null_flags[i] = true;
                } else {
                    match rows[i].as_bool() {
                        Some(b) => out[i] = !b,
                        None => failed.push((i as u32, Arc::clone(&not_bool))),
                    }
                }
            }
            BatchEval {
                vals: BVals::Bool(out.into()),
                nulls: Mask::from_flags(null_flags),
                errs: Errs::each(failed),
            }
        }
        // Statically non-boolean: every live row errors; null rows still
        // pass through as Null.
        _ => err_all_alive(e, n, not_on_non_boolean()),
    }
}

fn not_on_non_boolean() -> TemporalError {
    TemporalError::Eval("NOT on non-boolean".into())
}

/// Fail every non-null row that does not fail yet with one shared `err`
/// (for statically ill-typed operations that fail on any live row).
fn err_all_alive(e: BatchEval<'_>, n: usize, err: TemporalError) -> BatchEval<'static> {
    let err = Arc::new(err);
    let failed = (0..n).filter_map(|i| match e.errs.at(i) {
        Some(earlier) => Some((i as u32, earlier)),
        None => (!e.nulls.get(i)).then(|| (i as u32, Arc::clone(&err))),
    });
    BatchEval {
        vals: BVals::Const(Value::Null),
        errs: Errs::each(failed.collect()),
        nulls: e.nulls,
    }
}

/// Built-in function call with argument-order masking: arguments
/// are conceptually evaluated left to right per row; the first failing
/// argument fails the row with its error, the first null argument nulls the
/// row (masking errors in later arguments), and only fully-live rows reach
/// the kernel.
fn call_batch(func: Func, args: &[BatchEval<'_>], n: usize) -> BatchEval<'static> {
    let mut alive = vec![true; n];
    let mut null_flags = vec![false; n];
    let mut failed = RowErrors::new();
    for a in args {
        for i in 0..n {
            if alive[i] {
                if let Some(err) = a.errs.at(i) {
                    failed.push((i as u32, err));
                    alive[i] = false;
                } else if a.nulls.get(i) {
                    null_flags[i] = true;
                    alive[i] = false;
                }
            }
        }
    }
    if !alive.contains(&true) {
        return BatchEval {
            vals: BVals::Const(Value::Null),
            nulls: Mask::from_flags(null_flags),
            errs: Errs::each(failed),
        };
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
                // The chosen operand cast to the promotion of both, as
                // `eval_func` casts it: one dense vector of that type.
                let (x, y) = (widen_f64(&args[0].vals, n), widen_f64(&args[1].vals, n));
                let first = |i: usize| match func {
                    Func::Min2 => x[i] <= y[i],
                    _ => x[i] >= y[i],
                };
                let rank = arith_rank(&args[0].vals).max(arith_rank(&args[1].vals));
                let pick = |i: usize| args[usize::from(!first(i))].value_at(i);
                match rank {
                    Some(4) => {
                        BVals::Double((0..n).map(|i| if first(i) { x[i] } else { y[i] }).collect())
                    }
                    Some(3) => BVals::Long(
                        (0..n)
                            .map(|i| match alive[i] {
                                true => pick(i).as_long().expect("an integer operand"),
                                false => 0,
                            })
                            .collect(),
                    ),
                    _ => BVals::Int(
                        (0..n)
                            .map(|i| match alive[i] {
                                true => pick(i).as_int().expect("an Int operand"),
                                false => 0,
                            })
                            .collect(),
                    ),
                }
            }
        };
        return BatchEval {
            vals,
            nulls: Mask::from_flags(null_flags),
            errs: Errs::each(failed),
        };
    }
    // Some argument is non-numeric or mixed-typed: evaluate live rows one
    // at a time through `eval_func`.
    let mut out = vec![Value::Null; n];
    for i in 0..n {
        if !alive[i] {
            continue;
        }
        let vals: Vec<Value> = args.iter().map(|a| a.value_at(i)).collect();
        match eval_func(func, &vals) {
            Ok(v) => out[i] = v,
            Err(e) => failed.push((i as u32, Arc::new(e))),
        }
    }
    BatchEval {
        vals: BVals::Mixed(out),
        nulls: Mask::from_flags(null_flags),
        errs: Errs::each(failed),
    }
}

// ---------------------------------------------------------------------------
// SIMD kernel suite: the typed kernels `binary` and `connective` dispatch to.
//
// Each kernel must agree bit-for-bit with the language's row-at-a-time
// definition (`Expr::eval`) — that is the law the fused engine rests on:
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

fn int_accessor<'v>(v: &'v BVals<'_>) -> Option<IntSide<'v>> {
    match v {
        BVals::Int(d) => Some(IntSide::Int(d)),
        BVals::Long(d) => Some(IntSide::Long(d)),
        BVals::Const(c) => c.as_long().map(IntSide::Const),
        _ => None,
    }
}

/// Typed arithmetic kernel over two numeric operands, promoting to the
/// higher of their ranks like `Expr::eval` ([`arith_rank`]), reading
/// operands in place without materializing widened copies.
fn simd_arith_kernel(
    op: BinOp,
    l: &BatchEval<'_>,
    r: &BatchEval<'_>,
    n: usize,
    nulls: Mask,
    errs: Errs,
) -> BatchEval<'static> {
    let head = n - n % LANES;
    let rank = arith_rank(&l.vals).max(arith_rank(&r.vals));
    if rank == Some(4) {
        let x = num_accessor(&l.vals).expect("double-ranked batch has a numeric accessor");
        let y = num_accessor(&r.vals).expect("double-ranked batch has a numeric accessor");
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
            vals: BVals::Double(out.into()),
            nulls,
            errs,
        };
    }
    let x = int_accessor(&l.vals).expect("integer-ranked batch has an integer accessor");
    let y = int_accessor(&r.vals).expect("integer-ranked batch has an integer accessor");
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
    let vals = if rank == Some(3) {
        BVals::Long(out.into())
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
/// Agrees with `Expr::eval`'s f64-widening comparison whenever at least one side
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
/// nulls rows that defer to it — exactly `Expr::eval`'s short-circuit rule.
fn connective_dense_simd(
    is_and: bool,
    l: &BatchEval<'_>,
    r: &BatchEval<'_>,
    n: usize,
) -> BatchEval<'static> {
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
        vals: BVals::Bool(out.into()),
        nulls,
        errs: Errs::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use relation::schema::{ColumnType, Field};
    use relation::{row, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("Count", ColumnType::Long),
            Field::new("Ctr", ColumnType::Double),
            Field::new("UserId", ColumnType::Str),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            row![1i32, 42i64, 0.25f64, "u1"],
            row![2i32, 0i64, 4.0f64, "u2"],
            Row::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]),
        ]
    }

    fn sample_batch() -> ColumnBatch {
        ColumnBatch::from_rows(&schema(), &rows()).unwrap()
    }

    /// `e` over the sample batch, row by row: each row's value or error.
    fn per_row(e: &Expr) -> Vec<Result<Value>> {
        let batch = sample_batch();
        let raw = CompiledExpr::compile(e, &schema()).eval_batch_raw_sel(&batch, None);
        (0..rows().len())
            .map(|i| raw.try_cell(i).map(Cell::to_value))
            .collect()
    }

    /// [`Expr::eval`] over the sample rows: the reference.
    fn reference(e: &Expr) -> Vec<Result<Value>> {
        rows().iter().map(|r| e.eval(&schema(), r)).collect()
    }

    #[test]
    fn batch_eval_matches_interpreter_per_row() {
        for e in [
            col("StreamId").eq(lit(1)),
            col("Count").add(lit(1i32)).mul(col("Ctr")),
            col("Count").div(lit(0i64)),
            lit(1i64).div(col("Count")),
            col("Ctr").sqrt().sub(lit(0.5f64)).abs(),
            col("UserId").eq(lit("u1")),
            col("UserId").eq(lit("u1")).and(col("Count").gt(lit(10i64))),
            col("StreamId").eq(lit(1)).or(col("Count").gt(lit(10i64))),
            col("StreamId").eq(lit(1)).not(),
        ] {
            assert_eq!(per_row(&e), reference(&e), "expr {e}");
        }
    }

    #[test]
    fn errors_are_the_interpreter_s_row_by_row() {
        for e in [
            // Unknown column: every row that reaches it.
            col("Nope").add(lit(1i64)),
            // Left operand's error before the right's.
            col("UserId").add(lit(1i64)).add(col("Nope")),
            // The first failing argument of a call.
            col("UserId").sqrt().abs(),
            // NOT of a non-boolean fails its live rows, not its null ones.
            col("Count").not(),
            col("UserId").lt(lit(1i64)).not(),
        ] {
            let got = per_row(&e);
            assert!(got.iter().any(Result::is_err), "expr {e} fails somewhere");
            assert_eq!(got, reference(&e), "expr {e}");
        }
    }

    #[test]
    fn unknown_column_errors_lazily_like_interpreter() {
        // Short-circuited away: no row fails.
        let e = col("StreamId").eq(lit(99)).and(col("Nope").lt(lit(1i64)));
        assert!(per_row(&e).iter().all(Result::is_ok));
        assert_eq!(per_row(&e), reference(&e));
        // Reached by the rows that defer to it, and only by them.
        let e = col("StreamId").eq(lit(2)).and(col("Nope").lt(lit(1i64)));
        let got = per_row(&e);
        assert!(got[0].is_ok() && got[1].is_err() && got[2].is_ok());
        assert_eq!(got, reference(&e));
    }

    #[test]
    fn literal_subtrees_fold_only_on_success() {
        let s = schema();
        // 2 + 3 folds to a literal...
        let c = CompiledExpr::compile(&lit(2i64).add(lit(3i64)), &s);
        assert_eq!(c.node, Node::Lit(Value::Long(5)));
        // ...but an erroring literal subtree must stay and keep erroring.
        let bad = lit("x").add(lit(1i64));
        assert!(matches!(
            CompiledExpr::compile(&bad, &s).node,
            Node::Binary { .. }
        ));
        assert!(per_row(&bad).iter().all(Result::is_err));
        assert_eq!(per_row(&bad), reference(&bad));
    }

    #[test]
    fn batch_predicate_matches_interpreter_per_row() {
        let s = schema();
        let batch = sample_batch();
        let e = col("StreamId").eq(lit(1)).or(col("Ctr").gt(lit(1.0f64)));
        let mask = (CompiledExpr::compile(&e, &s))
            .eval_predicate_batch_sel(&batch, None)
            .unwrap();
        for (i, r) in rows().iter().enumerate() {
            assert_eq!(mask[i], e.eval_predicate(&s, r).unwrap(), "row {i}");
        }
        // Null is false.
        let e = col("Count").gt(lit(0i64));
        let mask = (CompiledExpr::compile(&e, &s))
            .eval_predicate_batch_sel(&batch, None)
            .unwrap();
        assert_eq!(mask, vec![true, false, false]);
    }

    #[test]
    fn a_failing_predicate_names_every_failing_row() {
        let s = schema();
        let batch = sample_batch();
        // A non-boolean value: its message holds the value.
        let e = col("Count").add(lit(1i64));
        let failed = (CompiledExpr::compile(&e, &s))
            .eval_predicate_batch_sel(&batch, None)
            .unwrap_err();
        let want: Vec<_> = (rows().iter().enumerate())
            .filter_map(|(i, r)| Some((i as u32, e.eval_predicate(&s, r).err()?)))
            .collect();
        assert_eq!(want.len(), 2);
        let got: Vec<_> = (failed.into_iter())
            .map(|(i, e)| (i, Arc::unwrap_or_clone(e)))
            .collect();
        assert_eq!(got, want);
    }

    /// A column leaf reads a dense batch in place and gathers through a
    /// selection: every expression gives, slot for slot, over the rows a
    /// selection names what it gives over those rows gathered into a
    /// batch of their own — the same cell or the same error.
    #[test]
    fn a_selection_evaluates_as_its_gathered_batch() {
        let s = schema();
        let rows: Vec<Row> = (0..40i32)
            .map(|i| match i % 5 {
                4 => Row::new(vec![Value::Null; 4]),
                _ => row![
                    i % 3,
                    i64::from(i * 7 - 30),
                    f64::from(i) * 0.5 - 2.0,
                    format!("u{}", i % 4)
                ],
            })
            .collect();
        let batch = ColumnBatch::from_rows(&s, &rows).unwrap();
        let exprs = [
            col("Ctr"),
            col("UserId"),
            col("Count").add(lit(1i32)).mul(col("Ctr")),
            col("Count").div(col("StreamId")),
            col("Ctr").div(col("Count")).sub(col("StreamId")),
            col("StreamId").gt(lit(1)),
            col("Count").le(col("Ctr")),
            col("Count").ne(lit(5i64)),
            col("UserId").eq(lit("u1")),
            col("UserId").lt(lit("u2")),
            col("UserId").ne(col("UserId")),
            col("UserId").add(lit(1i64)),
            col("UserId").eq(lit("u1")).and(col("Count").gt(lit(10i64))),
            col("StreamId").eq(lit(1)).or(col("Nope").lt(lit(1i64))),
            col("StreamId").eq(lit(1)).not(),
            col("Ctr").sqrt().sub(lit(0.5f64)).abs(),
            Expr::call(Func::Max2, vec![col("StreamId"), col("Count")]),
            Expr::call(Func::Pow, vec![col("Ctr"), col("UserId")]),
            col("Nope").add(lit(1i64)),
        ];
        let sels: [Vec<u32>; 3] = [
            Vec::new(),
            (0..40).filter(|i| i % 3 != 0).collect(),
            (0..40).collect(),
        ];
        let slots = |raw: &BatchEval<'_>, n: usize| -> Vec<Result<Value>> {
            (0..n)
                .map(|i| raw.try_cell(i).map(Cell::to_value))
                .collect()
        };
        for e in &exprs {
            let c = CompiledExpr::compile(e, &s);
            for sel in &sels {
                let gathered = batch.gather(sel);
                let got = slots(&c.eval_batch_raw_sel(&batch, Some(sel)), sel.len());
                let want = slots(&c.eval_batch_raw_sel(&gathered, None), sel.len());
                assert_eq!(got, want, "expr {e}, {} of 40 rows", sel.len());
                assert_eq!(
                    c.eval_predicate_batch_sel(&batch, Some(sel)),
                    c.eval_predicate_batch_sel(&gathered, None),
                    "predicate {e}, {} of 40 rows",
                    sel.len()
                );
            }
        }
    }

    #[test]
    fn batch_empty_input_yields_empty_column() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &[]).unwrap();
        let c = CompiledExpr::compile(&col("Count").add(lit(1i64)), &s);
        let raw = c.eval_batch_raw_sel(&batch, None);
        assert!(raw.first_err(0).is_none());
        assert_eq!(raw.into_column(0).expect("dense result").len(), 0);
        assert!(c.eval_predicate_batch_sel(&batch, None).unwrap().is_empty());
    }
}
