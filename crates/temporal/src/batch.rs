//! Column-major event storage: lifetimes as two dense `Vec<i64>` plus a
//! [`ColumnBatch`] payload — the one layout the engine runs on.
//!
//! An [`EventBatch`] is the columnar twin of [`EventStream`]: the same bag
//! of events, transposed. Conversion preserves event order exactly, so a
//! batch that round-trips through [`EventBatch::into_stream`] is
//! byte-identical to the stream it came from — the engine leans on this to
//! keep the paper's repeatability guarantee (§III-C.1) while running
//! vectorized kernels.
//!
//! Rows become a batch only at the library's row conveniences — an
//! `execute_single` binding, an event pushed into a real-time session — and
//! there every cell must inhabit its declared column type: a row that does
//! not is a named [`TemporalError::Input`] naming where it came from, the
//! row and the column ([`EventBatch::lay_out`]).

use crate::error::{Result, TemporalError};
use crate::event::Event;
use crate::stream::EventStream;
use crate::time::Lifetime;
use relation::column::ColumnBuilder;
use relation::{Column, ColumnBatch, RelationError, Schema};
use std::borrow::Borrow;
use std::sync::Arc;

/// A fixed-length batch of events stored column-major: validity-interval
/// starts (`vt`), ends (`ve`), and the payload columns.
///
/// Storage lives behind `Arc`s, as [`EventStream`]'s does, so cloning a
/// batch (Multicast fan-out, a source binding with several readers) is
/// O(1). The lifetime vectors and the payload are shared separately: a
/// lifetime rewrite over a shared batch copies two `i64` vectors and keeps
/// sharing the payload, a projection keeps sharing the lifetimes. Mutation
/// is copy-on-write per part and never copies more than what survives:
/// [`Self::compact`] compacts a uniquely-owned part in place and *gathers
/// the survivors* of a shared one.
#[derive(Debug, Clone)]
pub struct EventBatch {
    vt: Arc<Vec<i64>>,
    ve: Arc<Vec<i64>>,
    payload: Arc<ColumnBatch>,
}

/// Keep only the slots at `idx` (strictly increasing): in place when
/// uniquely owned, else a fresh vector of the survivors.
fn compact_times(times: &mut Arc<Vec<i64>>, idx: &[u32]) {
    match Arc::get_mut(times) {
        Some(t) => {
            for (w, &i) in idx.iter().enumerate() {
                t[w] = t[i as usize];
            }
            t.truncate(idx.len());
        }
        None => *times = Arc::new(idx.iter().map(|&i| times[i as usize]).collect()),
    }
}

impl EventBatch {
    /// Assemble from parts; the lifetime vectors must match the payload
    /// row count, and every lifetime must be non-empty (`vt[i] < ve[i]`).
    pub fn new(vt: Vec<i64>, ve: Vec<i64>, payload: ColumnBatch) -> EventBatch {
        EventBatch::from_shared(Arc::new(vt), Arc::new(ve), Arc::new(payload))
    }

    /// [`Self::new`] over parts that may still be shared with the batch
    /// they came from ([`Self::into_shared_parts`]).
    pub fn from_shared(
        vt: Arc<Vec<i64>>,
        ve: Arc<Vec<i64>>,
        payload: Arc<ColumnBatch>,
    ) -> EventBatch {
        assert_eq!(vt.len(), payload.len(), "vt length mismatch");
        assert_eq!(ve.len(), payload.len(), "ve length mismatch");
        debug_assert!(vt.iter().zip(&*ve).all(|(s, e)| s < e), "empty lifetime");
        EventBatch { vt, ve, payload }
    }

    /// Transpose a stream into a batch ([`Self::lay_out`]).
    pub fn from_stream(stream: &EventStream) -> Result<EventBatch> {
        Self::from_events(stream.schema().clone(), stream.events())
    }

    /// [`Self::from_stream`] over a borrowed event slice.
    pub fn from_events(schema: Schema, events: &[Event]) -> Result<EventBatch> {
        Self::lay_out("events", schema, events, None)
    }

    /// Lay `events` out as a batch of `schema`, checking every payload
    /// once: a row of the wrong arity, or a cell that does not inhabit its
    /// column's type, is a [`TemporalError::Input`] that names `what` (where
    /// the rows came from), the row and the column. A column `reads` marks
    /// `false` is not laid out: it holds [`Column::zeroed`], for a consumer
    /// that never reads it.
    pub(crate) fn lay_out<E: Borrow<Event>>(
        what: &str,
        schema: Schema,
        events: &[E],
        reads: Option<&[bool]>,
    ) -> Result<EventBatch> {
        let read = |c: usize| reads.is_none_or(|r| r[c]);
        let mut columns: Vec<Option<ColumnBuilder>> = (schema.fields().iter().enumerate())
            .map(|(c, f)| read(c).then(|| ColumnBuilder::new(f, events.len())))
            .collect();
        for (i, e) in events.iter().enumerate() {
            let cells = e.borrow().payload.values();
            if cells.len() != schema.len() {
                return Err(TemporalError::Input(format!(
                    "{what}: row {i} has {} cells, schema {schema} has {} columns",
                    cells.len(),
                    schema.len()
                )));
            }
            for (column, cell) in columns.iter_mut().zip(cells) {
                if let Some(column) = column {
                    column
                        .push(cell)
                        .map_err(|err| TemporalError::Input(format!("{what}: row {i}: {err}")))?;
                }
            }
        }
        let columns = (columns.into_iter().zip(schema.fields()))
            .map(|(column, field)| match column {
                Some(column) => column.finish(),
                None => Column::zeroed(field.ty, events.len()),
            })
            .collect();
        let vt = events.iter().map(|e| e.borrow().lifetime.start).collect();
        let ve = events.iter().map(|e| e.borrow().lifetime.end).collect();
        Ok(EventBatch::new(
            vt,
            ve,
            ColumnBatch::new(schema, columns, events.len()),
        ))
    }

    /// An empty batch of `schema`.
    pub fn empty(schema: Schema) -> EventBatch {
        let columns = (schema.fields().iter())
            .map(|f| ColumnBuilder::new(f, 0).finish())
            .collect();
        EventBatch::new(Vec::new(), Vec::new(), ColumnBatch::new(schema, columns, 0))
    }

    /// Transpose back into an [`EventStream`], preserving event order.
    pub fn into_stream(self) -> EventStream {
        let schema = self.payload.schema().clone();
        let events: Vec<Event> = self
            .vt
            .iter()
            .zip(&*self.ve)
            .enumerate()
            .map(|(i, (&s, &e))| Event::new(Lifetime::new(s, e), self.payload.row(i)))
            .collect();
        EventStream::new(schema, events)
    }

    /// Payload schema.
    pub fn schema(&self) -> &Schema {
        self.payload.schema()
    }

    /// Payload columns.
    pub fn payload(&self) -> &ColumnBatch {
        &self.payload
    }

    /// Lifetime starts.
    pub fn vt(&self) -> &[i64] {
        &self.vt
    }

    /// Lifetime ends.
    pub fn ve(&self) -> &[i64] {
        &self.ve
    }

    /// Lifetime of event `i`.
    pub fn lifetime(&self, i: usize) -> Lifetime {
        Lifetime::new(self.vt[i], self.ve[i])
    }

    /// Whether this batch is the sole owner of all of its storage, so
    /// every mutation below happens in place.
    pub fn is_unique(&mut self) -> bool {
        Arc::get_mut(&mut self.vt).is_some()
            && Arc::get_mut(&mut self.ve).is_some()
            && Arc::get_mut(&mut self.payload).is_some()
    }

    /// Mutable access to both lifetime vectors (for in-place lifetime
    /// rewrites; callers must keep `vt[i] < ve[i]`). Copy-on-write of the
    /// lifetimes alone: a shared payload stays shared.
    pub fn times_mut(&mut self) -> (&mut Vec<i64>, &mut Vec<i64>) {
        (Arc::make_mut(&mut self.vt), Arc::make_mut(&mut self.ve))
    }

    /// Decompose into lifetime vectors and payload, consuming the batch: a
    /// part this batch alone holds is moved out, one still shared elsewhere
    /// is copied.
    pub fn into_parts(self) -> (Vec<i64>, Vec<i64>, ColumnBatch) {
        (
            Arc::unwrap_or_clone(self.vt),
            Arc::unwrap_or_clone(self.ve),
            Arc::unwrap_or_clone(self.payload),
        )
    }

    /// Decompose without copying anything: each part comes back behind its
    /// `Arc`, for consumers that forward some parts untouched (the fused
    /// projection hands the lifetimes on and moves or clones single columns).
    pub fn into_shared_parts(self) -> (Arc<Vec<i64>>, Arc<Vec<i64>>, Arc<ColumnBatch>) {
        (self.vt, self.ve, self.payload)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the batch has no events.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The payload, shared: for a caller that reads it after handing the
    /// batch on (the per-event aggregate of a real-time session reads its
    /// keys off the events that survive the steps).
    pub(crate) fn shared_payload(&self) -> Arc<ColumnBatch> {
        Arc::clone(&self.payload)
    }

    /// Keep only the events at `idx` (strictly increasing). Each part is
    /// compacted in place when uniquely owned; a shared part is left alone
    /// and its survivors are gathered into fresh storage, so the other
    /// holders never see the change and the whole batch is never copied.
    pub fn compact(&mut self, idx: &[u32]) {
        compact_times(&mut self.vt, idx);
        compact_times(&mut self.ve, idx);
        match Arc::get_mut(&mut self.payload) {
            Some(payload) => payload.compact(idx),
            None => self.payload = Arc::new(self.payload.gather(idx)),
        }
    }

    /// Re-code each string column whose dictionary has outgrown its rows
    /// ([`relation::StrCodes::shrink`]): for a batch kept across many
    /// appends and compactions.
    pub(crate) fn shrink_dictionaries(&mut self) {
        Arc::make_mut(&mut self.payload).shrink_dictionaries();
    }

    /// The events at `idx` (any order, repeats allowed) as a new batch.
    pub fn gather(&self, idx: &[u32]) -> EventBatch {
        let times = |t: &[i64]| idx.iter().map(|&i| t[i as usize]).collect();
        EventBatch::new(times(&self.vt), times(&self.ve), self.payload.gather(idx))
    }

    /// Merge another batch into this one, in the order
    /// [`EventStream::merge`] leaves two row streams in: the smaller side is
    /// appended to the larger, so `other`'s events come first when it is the
    /// bigger one. Schemas must be identical.
    pub fn merge(&mut self, mut other: EventBatch) -> Result<()> {
        if other.len() > self.len() && other.schema() == self.schema() {
            std::mem::swap(self, &mut other);
        }
        self.append(other)
    }

    /// Append `other`'s events after this batch's. Schemas must be
    /// identical and every column pair appendable
    /// ([`ColumnBatch::can_append`]); nothing changes when it errors.
    pub fn append(&mut self, other: EventBatch) -> Result<()> {
        if other.schema() != self.schema() {
            return Err(TemporalError::Input(format!(
                "cannot merge streams with schemas {} and {}",
                self.schema(),
                other.schema()
            )));
        }
        if !self.payload.can_append(other.payload()) {
            return Err(TemporalError::Relation(RelationError::SchemaMismatch(
                "column storage variants differ".to_string(),
            )));
        }
        let (vt, ve, payload) = other.into_parts();
        let (self_vt, self_ve) = self.times_mut();
        self_vt.extend(vt);
        self_ve.extend(ve);
        Arc::make_mut(&mut self.payload)
            .append(payload)
            .map_err(TemporalError::Relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use relation::schema::{ColumnType, Field};
    use relation::{Row, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("U", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ])
    }

    fn stream() -> EventStream {
        EventStream::new(
            schema(),
            vec![
                Event::new(Lifetime::new(0, 10), row!["a", 1i64]),
                Event::new(
                    Lifetime::new(5, 6),
                    Row::new(vec![Value::Null, Value::Null]),
                ),
                Event::new(Lifetime::new(-3, 40), row!["b", -9i64]),
            ],
        )
    }

    #[test]
    fn stream_round_trip_is_byte_identical() {
        let s = stream();
        let batch = EventBatch::from_stream(&s).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.into_stream(), s);
    }

    #[test]
    fn empty_stream_round_trips() {
        let s = EventStream::empty(schema());
        let batch = EventBatch::from_stream(&s).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.into_stream(), s);
    }

    #[test]
    fn an_ill_typed_payload_is_a_named_error() {
        // Row storage happily holds an Int where the schema says Long; the
        // typed batch cannot, and says which row and column.
        let s = EventStream::new(
            schema(),
            vec![
                Event::point(0, row!["a", 1i64]),
                Event::point(0, row!["a", 7i32]),
            ],
        );
        let err = EventBatch::lay_out("source `in`", schema(), s.events(), None).unwrap_err();
        assert_eq!(
            err.to_string(),
            "input error: source `in`: row 1: type mismatch in `V`: expected long, got int"
        );
        let short = [Event::point(0, row!["a"])];
        let err = EventBatch::lay_out("pushed event", schema(), &short, None).unwrap_err();
        assert!(
            err.to_string().contains("pushed event: row 0 has 1 cells"),
            "{err}"
        );
    }

    #[test]
    fn compact_keeps_lifetimes_aligned() {
        let mut batch = EventBatch::from_stream(&stream()).unwrap();
        batch.compact(&[0, 2]);
        assert_eq!(batch.vt(), &[0, -3]);
        assert_eq!(batch.ve(), &[10, 40]);
        let out = batch.into_stream();
        assert_eq!(out.events()[1].payload, row!["b", -9i64]);
    }
}
