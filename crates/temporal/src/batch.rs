//! Column-major event storage: lifetimes as two dense `Vec<i64>` plus a
//! [`ColumnBatch`] payload.
//!
//! An [`EventBatch`] is the columnar twin of [`EventStream`]: the same bag
//! of events, transposed. Conversion preserves event order exactly, so a
//! batch that round-trips through [`EventBatch::into_stream`] is
//! byte-identical to the stream it came from — the columnar executor leans
//! on this to keep the paper's repeatability guarantee (§III-C.1) while
//! running vectorized kernels.
//!
//! [`EventBatch::from_stream`] returns `None` when the payload rows do not
//! inhabit the declared schema types (row storage tolerates ill-typed
//! cells; dense typed vectors cannot). Callers treat `None` as "stay on the
//! row path", never as an error.

use crate::event::Event;
use crate::stream::EventStream;
use crate::time::Lifetime;
use relation::{ColumnBatch, Row, Schema};

/// A fixed-length batch of events stored column-major: validity-interval
/// starts (`vt`), ends (`ve`), and the payload columns.
#[derive(Debug, Clone)]
pub struct EventBatch {
    vt: Vec<i64>,
    ve: Vec<i64>,
    payload: ColumnBatch,
}

impl EventBatch {
    /// Assemble from parts; the lifetime vectors must match the payload
    /// row count, and every lifetime must be non-empty (`vt[i] < ve[i]`).
    pub fn new(vt: Vec<i64>, ve: Vec<i64>, payload: ColumnBatch) -> EventBatch {
        assert_eq!(vt.len(), payload.len(), "vt length mismatch");
        assert_eq!(ve.len(), payload.len(), "ve length mismatch");
        debug_assert!(vt.iter().zip(&ve).all(|(s, e)| s < e), "empty lifetime");
        EventBatch { vt, ve, payload }
    }

    /// Transpose a stream into a batch, or `None` when any payload cell
    /// does not inhabit its declared column type (caller stays row-major).
    pub fn from_stream(stream: &EventStream) -> Option<EventBatch> {
        Self::from_events(stream.schema().clone(), stream.events())
    }

    /// [`Self::from_stream`] over a borrowed event slice.
    pub fn from_events(schema: Schema, events: &[Event]) -> Option<EventBatch> {
        let payload = ColumnBatch::from_value_rows(
            schema,
            events.len(),
            events.iter().map(|e| e.payload.values()),
        )
        .ok()?;
        let vt = events.iter().map(|e| e.lifetime.start).collect();
        let ve = events.iter().map(|e| e.lifetime.end).collect();
        Some(EventBatch { vt, ve, payload })
    }

    /// Transpose back into an [`EventStream`], preserving event order.
    pub fn into_stream(self) -> EventStream {
        let schema = self.payload.schema().clone();
        let events: Vec<Event> = self
            .vt
            .iter()
            .zip(&self.ve)
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

    /// Mutable access to both lifetime vectors (for in-place lifetime
    /// rewrites; callers must keep `vt[i] < ve[i]`).
    pub fn times_mut(&mut self) -> (&mut Vec<i64>, &mut Vec<i64>) {
        (&mut self.vt, &mut self.ve)
    }

    /// Decompose into lifetime vectors and payload, consuming the batch —
    /// owning consumers (the fused projection, encoders) move the storage
    /// instead of copying it.
    pub fn into_parts(self) -> (Vec<i64>, Vec<i64>, ColumnBatch) {
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

    /// Gather the payload row of event `i`.
    pub fn payload_row(&self, i: usize) -> Row {
        self.payload.row(i)
    }

    /// Gather the payload row of event `i` into a caller-owned scratch row,
    /// reusing its allocation — the row-fallback loops' no-alloc twin of
    /// [`Self::payload_row`].
    pub fn payload_row_into(&self, i: usize, row: &mut Row) {
        self.payload.row_into(i, row);
    }

    /// Keep only the events at `idx` (strictly increasing), in place.
    pub fn compact(&mut self, idx: &[u32]) {
        for (w, &i) in idx.iter().enumerate() {
            self.vt[w] = self.vt[i as usize];
            self.ve[w] = self.ve[i as usize];
        }
        self.vt.truncate(idx.len());
        self.ve.truncate(idx.len());
        self.payload.compact(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;
    use relation::schema::{ColumnType, Field};
    use relation::Value;

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
    fn ill_typed_payload_falls_back() {
        // Row storage happily holds an Int where the schema says Long; the
        // typed batch cannot, and must signal fallback rather than panic.
        let s = EventStream::new(schema(), vec![Event::point(0, row!["a", 7i32])]);
        assert!(EventBatch::from_stream(&s).is_none());
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
