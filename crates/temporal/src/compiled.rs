//! Compiled expressions, evaluated a batch at a time.
//!
//! [`Expr::eval`] is the language's definition: one row, every column
//! reference resolved by *name*. The engine never evaluates that way.
//! [`CompiledExpr`] type-checks an expression once — [`Expr::infer_type`],
//! the check `Query::build` runs on every expression of a plan — resolves
//! its column names to indices, and evaluates over the columns of a whole
//! batch (or the rows a selection vector names) through the SIMD kernel
//! suite below. It is the engine's one evaluator: filters, projections,
//! aggregate arguments, a join's residual and the real-time session all go
//! through it, and it is the only place the evaluator learns a type.
//!
//! Evaluation is total. Every operand of every kernel has the type
//! `infer_type` gives it, because every column a batch holds has its
//! field's type: the engine checks that where a batch enters it
//! (`ColumnBatch::check_types`, at a source binding and at a UDO's output)
//! and builds nothing else. So a kernel picks its loop from the operand
//! types once per batch, never per row, and nothing can fail: division by
//! zero is null, as `Expr::eval` has it. A column whose every slot is null
//! may carry storage of another type; a leaf reads it as a constant null.
//! Literal-only subtrees are constant-folded at compile time. Equivalence
//! with [`Expr::eval`] row by row is asserted by property tests over
//! randomized schemas, rows and well-typed expression trees
//! (`tests/prop_compiled.rs`, `tests/prop_columnar.rs`).

use crate::agg::Cell;
use crate::error::Result;
use crate::expr::{eval_func, expect_bool, BinOp, Expr, Func};
use relation::column::{Column, ColumnBatch, ColumnData, Validity};
use relation::dict::StrCodes;
use relation::{ColumnType, Schema, Value};
use simd::{F64x8, I64x8, LANES, M8};
use std::borrow::Cow;

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

/// An expression type-checked and resolved against a fixed input
/// [`Schema`], evaluable over batches of that schema.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledExpr {
    node: Node,
    /// The type [`Expr::infer_type`] gives the expression.
    ty: ColumnType,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Column reference, resolved to its index, with its field's type.
    Col(usize, ColumnType),
    /// Literal (also the result of constant folding).
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
    /// Type-check `expr` against `schema` — [`Expr::infer_type`]'s error
    /// when it has no type — and resolve its columns.
    pub(crate) fn compile(expr: &Expr, schema: &Schema) -> Result<CompiledExpr> {
        let ty = expr.infer_type(schema)?;
        Ok(CompiledExpr {
            node: fold(compile_node(expr, schema)),
            ty,
        })
    }

    /// [`Self::compile`] for an expression used as `what` (a filter
    /// predicate, a join residual), which must be boolean.
    pub(crate) fn predicate(expr: &Expr, schema: &Schema, what: &str) -> Result<CompiledExpr> {
        let compiled = Self::compile(expr, schema)?;
        expect_bool(what, compiled.ty)?;
        Ok(compiled)
    }

    /// The expression's type.
    pub(crate) fn ty(&self) -> ColumnType {
        self.ty
    }

    /// Evaluate a predicate ([`Self::predicate`]) over the rows of `batch`
    /// named by `sel` (all rows when `None`): one slot per *selected* row,
    /// `true` exactly where [`Expr::eval_predicate`] is (Null counts as
    /// false).
    pub(crate) fn eval_predicate_batch_sel(
        &self,
        batch: &ColumnBatch,
        sel: Option<&[u32]>,
    ) -> Vec<bool> {
        let ctx = EvalCtx { sel };
        let n = ctx.rows(batch);
        let raw = self.node.eval_batch(batch, ctx);
        // Take the dense vector (or broadcast the constant) and mask nulls
        // to false.
        let mut keep = match raw.vals {
            BVals::Bool(d) => d.into_owned(),
            vals => bools(&vals, n).into_owned(),
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
        keep
    }

    /// Batch evaluation over the rows named by `sel` (all rows when
    /// `None`): one slot per selected row.
    pub(crate) fn eval_batch_sel<'a>(
        &self,
        batch: &'a ColumnBatch,
        sel: Option<&[u32]>,
    ) -> BatchEval<'a> {
        self.node.eval_batch(batch, EvalCtx { sel })
    }

    /// The expression over every row of `batch`, as a column of its type.
    pub(crate) fn eval_column(&self, batch: &ColumnBatch) -> Column {
        (self.eval_batch_sel(batch, None)).into_column(batch.len(), self.ty)
    }

    /// `Some(i)` when the whole expression is a bare reference to column
    /// `i` — the pass-through shape an owning projection satisfies by
    /// *moving* the input column instead of evaluating anything.
    pub(crate) fn as_col(&self) -> Option<usize> {
        match self.node {
            Node::Col(i, _) => Some(i),
            _ => None,
        }
    }
}

/// `expr`'s tree with its columns resolved (`expr` has a type over
/// `schema`, so every column exists).
fn compile_node(expr: &Expr, schema: &Schema) -> Node {
    match expr {
        Expr::Column(name) => {
            let i = schema.index_of(name).expect("a typed expression's column");
            Node::Col(i, schema.fields()[i].ty)
        }
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

/// Constant-fold a subtree that reads no columns: its value over one row
/// with no columns.
fn fold(node: Node) -> Node {
    if matches!(node, Node::Lit(_) | Node::Col(..)) || node.reads_columns() {
        return node;
    }
    let one_row = ColumnBatch::new(Schema::new(Vec::new()), Vec::new(), 1);
    Node::Lit(node.eval_batch(&one_row, EvalCtx { sel: None }).value_at(0))
}

impl Node {
    fn reads_columns(&self) -> bool {
        match self {
            Node::Col(..) => true,
            Node::Lit(_) => false,
            Node::Binary { left, right, .. } => left.reads_columns() || right.reads_columns(),
            Node::Not(e) => e.reads_columns(),
            Node::Call { args, .. } => args.iter().any(Node::reads_columns),
        }
    }

    /// Vectorized [`Expr::eval`]: one result per batch row. For every row
    /// `i`, [`Expr::eval`] of the gathered row is `Null` iff `nulls.get(i)`,
    /// and otherwise `value_at(i)` bit for bit.
    fn eval_batch<'a>(&self, batch: &'a ColumnBatch, ctx: EvalCtx) -> BatchEval<'a> {
        let n = ctx.rows(batch);
        match self {
            Node::Col(i, ty) => BatchEval::leaf(batch.column(*i), *ty, ctx.sel),
            Node::Lit(v) => BatchEval::constant(v.clone()),
            Node::Binary { op, left, right } => {
                let (l, r) = (left.eval_batch(batch, ctx), right.eval_batch(batch, ctx));
                match op {
                    BinOp::And => connective(true, &l, &r, n),
                    BinOp::Or => connective(false, &l, &r, n),
                    _ => binary(*op, &l, &r, n),
                }
            }
            Node::Not(e) => not_batch(e.eval_batch(batch, ctx)),
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

/// Batch values: one dense vector of the expression's type, or a
/// broadcast constant. A vector is a batch column's storage borrowed in
/// place (a column leaf over every row) or owned (a kernel's result, or a
/// column gathered through a selection); the kernels read both alike.
#[derive(Debug, Clone)]
enum BVals<'a> {
    Const(Value),
    Bool(Cow<'a, [bool]>),
    Int(Cow<'a, [i32]>),
    Long(Cow<'a, [i64]>),
    Double(Cow<'a, [f64]>),
    Str(Cow<'a, StrCodes>),
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
    }
}

/// Result of evaluating one expression node over a whole batch.
///
/// Rows flagged in `nulls` are `Null` and hold an unobservable
/// placeholder; kernels may compute garbage there as long as nothing can
/// panic (integer division guards its divisor). A constant `Null` is
/// null in every row. `'a` is the batch a column leaf borrows; a kernel's
/// result owns its values (`BatchEval<'static>`).
pub(crate) struct BatchEval<'a> {
    vals: BVals<'a>,
    nulls: Mask,
}

impl<'a> BatchEval<'a> {
    fn constant(v: Value) -> BatchEval<'static> {
        let nulls = if v.is_null() { Mask::All } else { Mask::None };
        BatchEval {
            vals: BVals::Const(v),
            nulls,
        }
    }

    /// Column `col`, declared `ty`, at the live rows: its storage read in
    /// place when every row is live, so a dense `col <op> lit` allocates
    /// nothing for its leaf; the rows `sel` names gathered into a vector of
    /// their own otherwise, so everything downstream runs dense over the
    /// selection. Storage of another type than `ty` only an all-null
    /// column may carry: it reads as a constant null.
    fn leaf(col: &'a Column, ty: ColumnType, sel: Option<&[u32]>) -> BatchEval<'a> {
        fn read<'a, T: Copy>(d: &'a [T], sel: Option<&[u32]>) -> Cow<'a, [T]> {
            match sel {
                None => Cow::Borrowed(d),
                Some(sel) => sel.iter().map(|&i| d[i as usize]).collect(),
            }
        }
        if col.data().ty() != ty {
            return BatchEval::constant(Value::Null);
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
        BatchEval { vals, nulls }
    }

    /// Scalar result of row `i`.
    pub(crate) fn value_at(&self, i: usize) -> Value {
        self.cell(i).to_value()
    }

    /// [`Self::value_at`] borrowed: the cell an accumulator reads, read
    /// off the typed vector without building a `Value`.
    #[inline]
    pub(crate) fn cell(&self, i: usize) -> Cell<'_> {
        if self.nulls.get(i) {
            return Cell::Null;
        }
        bvals_cell(&self.vals, i)
    }

    /// Convert to a dense [`Column`] of the expression's type `ty`: a
    /// computed vector moves, a borrowed one is copied once, a constant is
    /// broadcast, and an all-null result gets storage of `ty`.
    fn into_column(self, n: usize, ty: ColumnType) -> Column {
        let BatchEval { vals, nulls } = self;
        let data = match vals {
            BVals::Bool(d) => ColumnData::Bool(d.into_owned()),
            BVals::Int(d) => ColumnData::Int(d.into_owned()),
            BVals::Long(d) => ColumnData::Long(d.into_owned()),
            BVals::Double(d) => ColumnData::Double(d.into_owned()),
            BVals::Str(d) => ColumnData::Str(d.into_owned()),
            BVals::Const(v) => match v {
                Value::Null => Column::zeroed(ty, n).into_parts().0,
                Value::Bool(b) => ColumnData::Bool(vec![b; n]),
                Value::Int(x) => ColumnData::Int(vec![x; n]),
                Value::Long(x) => ColumnData::Long(vec![x; n]),
                Value::Double(x) => ColumnData::Double(vec![x; n]),
                Value::Str(s) => ColumnData::Str(StrCodes::repeat(&s, n)),
            },
        };
        debug_assert_eq!(data.ty(), ty, "a kernel's result has its expression's type");
        let validity = match &nulls {
            Mask::None => None,
            Mask::All => Validity::from_null_flags(&vec![true; n]),
            Mask::Rows(f) => Validity::from_null_flags(f),
        };
        Column::new(data, validity)
    }
}

/// Numeric rank of a batch's value type: 2 = Int, 3 = Long, 4 = Double
/// (matching `Expr::eval`'s promotion order); `None` for a non-numeric
/// type.
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

/// A boolean batch's values over `n` rows: its vector, or its constant
/// broadcast (a null constant's values are never read).
fn bools<'v>(v: &'v BVals<'_>, n: usize) -> Cow<'v, [bool]> {
    match v {
        BVals::Bool(d) => Cow::Borrowed(d),
        BVals::Const(c) => Cow::Owned(vec![c.as_bool().unwrap_or(false); n]),
        _ => unreachable!("a boolean operand"),
    }
}

/// Non-connective binary operator over two evaluated operands of the
/// types `infer_type` accepts for it: a row is null where either operand
/// is (or, for a division, where the divisor is zero).
fn binary(op: BinOp, l: &BatchEval<'_>, r: &BatchEval<'_>, n: usize) -> BatchEval<'static> {
    let nulls = Mask::union(&l.nulls, &r.nulls);
    if matches!(nulls, Mask::All) {
        return BatchEval::constant(Value::Null);
    }
    let (lv, rv) = (&l.vals, &r.vals);
    let out = match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            return simd_arith_kernel(op, l, r, n, nulls)
        }
        BinOp::And | BinOp::Or => unreachable!("handled by connective"),
        // Comparisons. Numeric ones read both operands through a borrowing
        // accessor (dense slice or broadcast constant) instead of
        // materializing two widened f64 vectors per batch — over a column
        // read in place, the `col == lit` filter shape allocates only the
        // output mask.
        _ => {
            let (eq, neg) = (matches!(op, BinOp::Eq | BinOp::Ne), op == BinOp::Ne);
            if let (Some(na), Some(nb)) = (num_accessor(lv), num_accessor(rv)) {
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
                // Booleans, `false` before `true` as `Expr::eval` orders
                // them.
                let (a, b) = (bools(lv, n), bools(rv, n));
                let test = cmp_test(op);
                a.iter()
                    .zip(b.iter())
                    .map(|(x, y)| test(x.cmp(y)))
                    .collect()
            }
        }
    };
    BatchEval {
        vals: BVals::Bool(out.into()),
        nulls,
    }
}

fn cmp_test(op: BinOp) -> fn(std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        BinOp::Eq => |o| o == Ordering::Equal,
        BinOp::Ne => |o| o != Ordering::Equal,
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

/// `AND` / `OR` over two boolean operands with `Expr::eval`'s
/// short-circuit rule: a row whose left side is null is null, one whose
/// left side decides (`false` for AND, `true` for OR) takes that value, and
/// every other row defers to its right side, null or not. Evaluation is
/// total, so the right side is evaluated over every row, and a constant
/// side — a literal, or an all-null operand — is broadcast.
///
/// Garbage at null slots is harmless by the placement of the null flags:
/// a null left side nulls the row outright, and a null right side only
/// nulls rows that defer to it.
fn connective(is_and: bool, l: &BatchEval<'_>, r: &BatchEval<'_>, n: usize) -> BatchEval<'static> {
    let (lv, rv) = (bools(&l.vals, n), bools(&r.vals, n));
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
    }
}

/// Logical NOT of a boolean operand: Null passes through.
fn not_batch(e: BatchEval<'_>) -> BatchEval<'_> {
    let vals = match &e.vals {
        // Masked rows negate garbage, which stays unobservable.
        BVals::Bool(d) => BVals::Bool(d.iter().map(|b| !b).collect()),
        BVals::Const(Value::Bool(b)) => BVals::Const(Value::Bool(!*b)),
        BVals::Const(Value::Null) => return e,
        _ => unreachable!("a boolean operand"),
    };
    BatchEval {
        vals,
        nulls: e.nulls,
    }
}

/// Built-in function call over numeric arguments. A row is null where any
/// argument is (`Expr::eval` stops at the first null argument), and every
/// kernel is total, so null rows compute garbage unobserved.
fn call_batch(func: Func, args: &[BatchEval<'_>], n: usize) -> BatchEval<'static> {
    let nulls = (args.iter()).fold(Mask::None, |m, a| Mask::union(&m, &a.nulls));
    if matches!(nulls, Mask::All) {
        return BatchEval::constant(Value::Null);
    }
    let unary =
        |f: fn(f64) -> f64| BVals::Double(widen_f64(&args[0].vals, n).into_iter().map(f).collect());
    let vals = match func {
        Func::Sqrt => unary(f64::sqrt),
        Func::Ln => unary(f64::ln),
        Func::Exp => unary(f64::exp),
        Func::Pow => {
            let (x, y) = (widen_f64(&args[0].vals, n), widen_f64(&args[1].vals, n));
            BVals::Double(x.iter().zip(&y).map(|(a, b)| a.powf(*b)).collect())
        }
        Func::Abs => match &args[0].vals {
            BVals::Int(d) => BVals::Int(d.iter().map(|x| x.wrapping_abs()).collect()),
            BVals::Long(d) => BVals::Long(d.iter().map(|x| x.wrapping_abs()).collect()),
            BVals::Double(d) => BVals::Double(d.iter().map(|x| x.abs()).collect()),
            BVals::Const(c) => {
                BVals::Const(eval_func(Func::Abs, std::slice::from_ref(c)).expect("abs on numeric"))
            }
            _ => unreachable!("a numeric operand"),
        },
        Func::Min2 | Func::Max2 => {
            // The chosen operand cast to the promotion of both, as
            // `eval_func` casts it: one dense vector of that type.
            let (x, y) = (widen_f64(&args[0].vals, n), widen_f64(&args[1].vals, n));
            let first = |i: usize| match func {
                Func::Min2 => x[i] <= y[i],
                _ => x[i] >= y[i],
            };
            match arith_rank(&args[0].vals).max(arith_rank(&args[1].vals)) {
                Some(4) => {
                    BVals::Double((0..n).map(|i| if first(i) { x[i] } else { y[i] }).collect())
                }
                rank => {
                    let a = int_accessor(&args[0].vals).expect("an integer operand");
                    let b = int_accessor(&args[1].vals).expect("an integer operand");
                    let picked = (0..n).map(|i| if first(i) { a.at(i) } else { b.at(i) });
                    match rank {
                        Some(3) => BVals::Long(picked.collect()),
                        _ => BVals::Int(picked.map(|v| v as i32).collect()),
                    }
                }
            }
        }
    };
    BatchEval { vals, nulls }
}

// ---------------------------------------------------------------------------
// SIMD kernel suite: the typed kernels `binary` dispatches to.
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
    BatchEval { vals, nulls }
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
            Field::new("Bot", ColumnType::Bool),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            row![1i32, 42i64, 0.25f64, "u1", true],
            row![2i32, 0i64, 4.0f64, "u2", false],
            Row::new(vec![Value::Null; 5]),
        ]
    }

    fn sample_batch() -> ColumnBatch {
        ColumnBatch::from_rows(&schema(), &rows()).unwrap()
    }

    fn compile(e: &Expr) -> CompiledExpr {
        CompiledExpr::compile(e, &schema()).unwrap()
    }

    /// `e` over the sample batch, row by row.
    fn per_row(e: &Expr) -> Vec<Value> {
        let batch = sample_batch();
        let raw = compile(e).eval_batch_sel(&batch, None);
        (0..rows().len()).map(|i| raw.value_at(i)).collect()
    }

    /// [`Expr::eval`] over the sample rows: the reference.
    fn reference(e: &Expr) -> Vec<Value> {
        rows()
            .iter()
            .map(|r| e.eval(&schema(), r).unwrap())
            .collect()
    }

    #[test]
    fn batch_eval_matches_interpreter_per_row() {
        let truth = || Expr::Literal(Value::Bool(true));
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
            // Booleans compare, `false` before `true`.
            col("Bot").eq(truth()),
            col("Bot").lt(col("Bot").not()),
            // A constant on either side of a connective, a null one too.
            col("Bot").and(truth()),
            truth().or(col("Bot")),
            col("UserId").eq(Expr::Literal(Value::Null)).or(col("Bot")),
            col("Bot").and(col("UserId").eq(Expr::Literal(Value::Null))),
            Expr::call(Func::Max2, vec![col("StreamId"), col("Count")]),
            Expr::call(Func::Min2, vec![col("StreamId"), lit(2.5f64)]),
        ] {
            assert_eq!(per_row(&e), reference(&e), "expr {e}");
        }
    }

    /// An expression with no type is refused when it is compiled, with
    /// `infer_type`'s error, and a predicate must be boolean.
    #[test]
    fn compile_refuses_what_infer_type_refuses() {
        let s = schema();
        for e in [
            col("Nope").add(lit(1i64)),
            col("UserId").add(lit(1i64)),
            lit("x").add(lit(1i64)),
            col("Count").not(),
            col("UserId").lt(lit(1i64)),
            col("StreamId").eq(lit(99)).and(col("Nope").lt(lit(1i64))),
            col("UserId").sqrt(),
        ] {
            let want = e.infer_type(&s).unwrap_err();
            assert_eq!(CompiledExpr::compile(&e, &s), Err(want), "expr {e}");
        }
        let err = CompiledExpr::predicate(&col("Count").add(lit(1i64)), &s, "filter predicate");
        assert_eq!(
            err.unwrap_err().to_string(),
            "plan error: filter predicate has type long, expected bool"
        );
    }

    #[test]
    fn literal_subtrees_fold() {
        assert_eq!(
            compile(&lit(2i64).add(lit(3i64))).node,
            Node::Lit(Value::Long(5))
        );
        // Division by zero folds to null; the expression keeps its type.
        let c = compile(&lit(1i64).div(lit(0i64)).add(col("Count")));
        assert!(matches!(&c.node, Node::Binary { left, .. } if **left == Node::Lit(Value::Null)));
        assert_eq!(c.ty(), ColumnType::Long);
    }

    #[test]
    fn batch_predicate_matches_interpreter_per_row() {
        let s = schema();
        let batch = sample_batch();
        let e = col("StreamId").eq(lit(1)).or(col("Ctr").gt(lit(1.0f64)));
        let mask = (CompiledExpr::predicate(&e, &s, "filter predicate").unwrap())
            .eval_predicate_batch_sel(&batch, None);
        for (i, r) in rows().iter().enumerate() {
            assert_eq!(mask[i], e.eval_predicate(&s, r).unwrap(), "row {i}");
        }
        // Null is false.
        let e = col("Count").gt(lit(0i64));
        let mask = compile(&e).eval_predicate_batch_sel(&batch, None);
        assert_eq!(mask, vec![true, false, false]);
    }

    /// A column whose every slot is null may carry storage of another
    /// type: it reads as a constant null, and an all-null result gets
    /// storage of the expression's type.
    #[test]
    fn an_all_null_column_reads_as_a_constant_null() {
        let s = Schema::new(vec![Field::new("L", ColumnType::Long)]);
        let carrier = Column::new(
            ColumnData::Bool(vec![false; 3]),
            Validity::from_null_flags(&[true; 3]),
        );
        let batch = ColumnBatch::new(s.clone(), vec![carrier], 3);
        let c = CompiledExpr::compile(&col("L").add(lit(1i64)), &s).unwrap();
        let out = c.eval_column(&batch);
        assert!(matches!(out.data(), ColumnData::Long(_)));
        assert!((0..3).all(|i| out.value(i).is_null()));
        let p = CompiledExpr::compile(&col("L").gt(lit(0i64)), &s).unwrap();
        assert_eq!(
            p.eval_predicate_batch_sel(&batch, Some(&[0, 2])),
            vec![false; 2]
        );
    }

    /// A column leaf reads a dense batch in place and gathers through a
    /// selection: every expression gives, slot for slot, over the rows a
    /// selection names what it gives over those rows gathered into a
    /// batch of their own.
    #[test]
    fn a_selection_evaluates_as_its_gathered_batch() {
        let s = schema();
        let rows: Vec<Row> = (0..40i32)
            .map(|i| match i % 5 {
                4 => Row::new(vec![Value::Null; 5]),
                _ => row![
                    i % 3,
                    i64::from(i * 7 - 30),
                    f64::from(i) * 0.5 - 2.0,
                    format!("u{}", i % 4),
                    i % 2 == 0
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
            col("UserId").eq(lit("u1")).and(col("Count").gt(lit(10i64))),
            col("StreamId").eq(lit(1)).or(col("Bot")),
            col("StreamId").eq(lit(1)).not(),
            col("Bot").ge(col("StreamId").gt(lit(0))),
            col("Ctr").sqrt().sub(lit(0.5f64)).abs(),
            Expr::call(Func::Max2, vec![col("StreamId"), col("Count")]),
            Expr::call(Func::Pow, vec![col("Ctr"), col("StreamId")]),
        ];
        let sels: [Vec<u32>; 3] = [
            Vec::new(),
            (0..40).filter(|i| i % 3 != 0).collect(),
            (0..40).collect(),
        ];
        let slots = |raw: &BatchEval<'_>, n: usize| -> Vec<Value> {
            (0..n).map(|i| raw.value_at(i)).collect()
        };
        for e in &exprs {
            let c = compile(e);
            for sel in &sels {
                let gathered = batch.gather(sel);
                let got = slots(&c.eval_batch_sel(&batch, Some(sel)), sel.len());
                let want = slots(&c.eval_batch_sel(&gathered, None), sel.len());
                assert_eq!(got, want, "expr {e}, {} of 40 rows", sel.len());
                if c.ty() == ColumnType::Bool {
                    assert_eq!(
                        c.eval_predicate_batch_sel(&batch, Some(sel)),
                        c.eval_predicate_batch_sel(&gathered, None),
                        "predicate {e}, {} of 40 rows",
                        sel.len()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_empty_input_yields_empty_column() {
        let s = schema();
        let batch = ColumnBatch::from_rows(&s, &[]).unwrap();
        let c = compile(&col("Count").add(lit(1i64)));
        assert_eq!(c.eval_column(&batch).len(), 0);
        let p = compile(&col("Count").gt(lit(1i64)));
        assert!(p.eval_predicate_batch_sel(&batch, None).is_empty());
    }
}
