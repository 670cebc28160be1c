//! Row ↔ event conversion at stage boundaries (paper §III-A step 4 and
//! §III-C.2).
//!
//! TiMR's file-format convention (footnote 2): the first column of every
//! source, intermediate, and output dataset is `Time` — the event's LE. For
//! interval events (aggregate outputs, profiles, models) intermediates carry
//! a second `TimeEnd` column holding RE; point-event datasets omit it and
//! events get the lifetime `[Time, Time + δ)`. The payload visible to CQ
//! plans is the dataset schema *minus* these framing columns, so queries are
//! written against pure payload schemas and TiMR "transparently derives and
//! maintains temporal information".
//!
//! [`pull_through_queue`] mirrors §III-C.2 literally: the embedded DSMS
//! *pushes* results asynchronously, while map-reduce *pulls* rows
//! synchronously from the reducer; TiMR reconciles the two with an
//! in-memory blocking queue between a producer thread running the DSMS and
//! the consuming reducer.

use crate::error::{Result, TimrError};
use relation::column::ColumnData;
use relation::schema::{ColumnType, Field, TIME_COLUMN};
use relation::{ColumnBatch, Row, Schema, Value};
use std::sync::mpsc;
use temporal::{Event, EventBatch, EventStream, Lifetime};

/// Name of the interval-encoding end column.
pub const TIME_END_COLUMN: &str = "TimeEnd";

/// How a dataset encodes event lifetimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventEncoding {
    /// `Time` column only; every event is a point (`RE = LE + δ`). The
    /// encoding of raw logs (paper Fig 9).
    Point,
    /// `Time` and `TimeEnd` columns carrying `[LE, RE)`. The encoding TiMR
    /// uses for intermediate and output datasets, where aggregates and
    /// synopses produce interval events.
    Interval,
}

impl EventEncoding {
    /// Number of leading framing columns.
    pub fn framing_columns(self) -> usize {
        match self {
            EventEncoding::Point => 1,
            EventEncoding::Interval => 2,
        }
    }

    /// The dataset schema for a given payload schema.
    pub fn dataset_schema(self, payload: &Schema) -> Schema {
        let mut fields = vec![Field::new(TIME_COLUMN, ColumnType::Long)];
        if self == EventEncoding::Interval {
            fields.push(Field::new(TIME_END_COLUMN, ColumnType::Long));
        }
        fields.extend(payload.fields().iter().cloned());
        Schema::new(fields)
    }

    /// The payload schema for a given dataset schema; validates framing.
    pub fn payload_schema(self, dataset: &Schema) -> Result<Schema> {
        let check = |idx: usize, name: &str| -> Result<()> {
            let f = dataset.fields().get(idx).ok_or_else(|| {
                TimrError::Compile(format!("dataset schema {dataset} too narrow for framing"))
            })?;
            if f.name != name || f.ty != ColumnType::Long {
                return Err(TimrError::Compile(format!(
                    "dataset schema {dataset} must lead with `{name}: long` at position {idx}"
                )));
            }
            Ok(())
        };
        check(0, TIME_COLUMN)?;
        if self == EventEncoding::Interval {
            check(1, TIME_END_COLUMN)?;
        }
        let names: Vec<&str> = dataset
            .fields()
            .iter()
            .skip(self.framing_columns())
            .map(|f| f.name.as_str())
            .collect();
        Ok(dataset.project(&names)?)
    }

    /// Decode one row into an event (framing columns stripped).
    pub fn decode(self, row: &Row) -> Result<Event> {
        let le = row
            .get(0)
            .as_long()
            .ok_or_else(|| TimrError::Compile(format!("non-integral Time in row {row}")))?;
        let (re, skip) = match self {
            EventEncoding::Point => (le + 1, 1),
            EventEncoding::Interval => {
                let re = row.get(1).as_long().ok_or_else(|| {
                    TimrError::Compile(format!("non-integral TimeEnd in row {row}"))
                })?;
                (re, 2)
            }
        };
        if re <= le {
            return Err(TimrError::Compile(format!(
                "row {row} has empty lifetime [{le}, {re})"
            )));
        }
        let payload = Row::new(row.values()[skip..].to_vec());
        Ok(Event::new(Lifetime::new(le, re), payload))
    }

    /// Encode one event as a row (framing columns prepended). Point
    /// encoding requires point events.
    pub fn encode(self, event: &Event) -> Result<Row> {
        let mut values = Vec::with_capacity(event.payload.len() + self.framing_columns());
        values.push(Value::Long(event.start()));
        match self {
            EventEncoding::Point => {
                if !event.lifetime.is_point() {
                    return Err(TimrError::Compile(format!(
                        "cannot point-encode interval event [{}, {})",
                        event.start(),
                        event.end()
                    )));
                }
            }
            EventEncoding::Interval => values.push(Value::Long(event.end())),
        }
        values.extend_from_slice(event.payload.values());
        Ok(Row::new(values))
    }

    /// Decode a whole partition of rows into an event stream with the given
    /// payload schema. Accepts any borrowed-row iterator, so callers can
    /// stream straight out of shared DFS partitions without materializing a
    /// copy first.
    pub fn decode_stream<'a, I>(self, rows: I, payload: &Schema) -> Result<EventStream>
    where
        I: IntoIterator<Item = &'a Row>,
    {
        let rows = rows.into_iter();
        let mut events = Vec::with_capacity(rows.size_hint().0);
        for row in rows {
            events.push(self.decode(row)?);
        }
        Ok(EventStream::new(payload.clone(), events))
    }

    /// Decode a whole partition of rows straight into a column-major
    /// [`EventBatch`] — the batch-first entry for inputs that arrive as rows.
    ///
    /// Framing problems (non-integral `Time`/`TimeEnd`, empty lifetimes)
    /// are hard errors with messages identical to [`decode`], and they
    /// surface at the same first bad row, because the row path never
    /// type-checks payload cells and so can only fail on framing too.
    /// A payload cell that doesn't fit its declared column type returns
    /// `Ok(None)`: the caller falls back to [`decode_stream`], which
    /// accepts it, keeping the columnar layout a pure optimization.
    pub fn decode_batch(self, rows: &[Row], payload: &Schema) -> Result<Option<EventBatch>> {
        let skip = self.framing_columns();
        let mut vt = Vec::with_capacity(rows.len());
        let mut ve = Vec::with_capacity(rows.len());
        for row in rows {
            let le = row
                .get(0)
                .as_long()
                .ok_or_else(|| TimrError::Compile(format!("non-integral Time in row {row}")))?;
            let re = match self {
                EventEncoding::Point => le + 1,
                EventEncoding::Interval => row.get(1).as_long().ok_or_else(|| {
                    TimrError::Compile(format!("non-integral TimeEnd in row {row}"))
                })?,
            };
            if re <= le {
                return Err(TimrError::Compile(format!(
                    "row {row} has empty lifetime [{le}, {re})"
                )));
            }
            vt.push(le);
            ve.push(re);
        }
        let columns = ColumnBatch::from_value_rows(
            payload.clone(),
            rows.len(),
            rows.iter().map(|r| &r.values()[skip..]),
        );
        Ok(match columns {
            Ok(batch) => Some(EventBatch::new(vt, ve, batch)),
            Err(_) => None,
        })
    }

    /// Decode a dataset-shaped [`ColumnBatch`] (framing columns leading)
    /// straight into an [`EventBatch`] without ever materializing rows:
    /// the `Time` (and `TimeEnd`) buffers are moved out as the lifetime
    /// vectors and the remaining columns become the payload batch as-is —
    /// the copy-free entry for reducers fed binary shuffle extents.
    ///
    /// Returns `None` whenever the batch cannot be accepted this way — the
    /// schema disagrees with the expected dataset layout, a framing cell
    /// is null, or a lifetime is empty — so the caller falls back to the
    /// row path, whose error messages pinpoint the offending row. The
    /// fallback therefore never changes which partitions are accepted or
    /// how they fail.
    pub fn decode_column_batch(self, batch: ColumnBatch, payload: &Schema) -> Option<EventBatch> {
        if batch.schema() != &self.dataset_schema(payload) {
            return None;
        }
        let (_schema, mut columns, rows) = batch.into_parts();
        let payload_cols = columns.split_off(self.framing_columns());
        let mut framing = columns.into_iter();
        let (time, time_validity) = framing.next()?.into_parts();
        if time_validity.is_some() {
            return None; // a null Time cell: the row path owns the error
        }
        let vt = match time {
            ColumnData::Long(v) => v,
            _ => return None,
        };
        let ve = match self {
            EventEncoding::Point => vt
                .iter()
                .map(|&t| t.checked_add(1))
                .collect::<Option<Vec<i64>>>()?,
            EventEncoding::Interval => {
                let (end, end_validity) = framing.next()?.into_parts();
                if end_validity.is_some() {
                    return None;
                }
                match end {
                    ColumnData::Long(v) => v,
                    _ => return None,
                }
            }
        };
        if vt.iter().zip(&ve).any(|(le, re)| re <= le) {
            return None; // empty lifetime: fall back for the exact row error
        }
        Some(EventBatch::new(
            vt,
            ve,
            ColumnBatch::new(payload.clone(), payload_cols, rows),
        ))
    }

    /// Encode a whole stream into rows in canonical (sorted) order, so
    /// restarted reducers emit byte-identical partitions.
    ///
    /// Events are **not** coalesced: two adjacent events with equal
    /// payloads (e.g. two impressions of the same ad one tick apart) stay
    /// two rows, because downstream queries may count *events*, not
    /// snapshots. Canonical order alone is enough for the determinism
    /// guarantee.
    pub fn encode_stream(self, stream: &EventStream) -> Result<Vec<Row>> {
        let mut events: Vec<Event> = stream.events().to_vec();
        events.sort();
        events.iter().map(|e| self.encode(e)).collect()
    }
}

/// Default number of events per batch shipped over the push/pull bridge.
pub const DEFAULT_BRIDGE_BATCH: usize = 256;

/// Number of in-flight batches the bounded queue holds before the producer
/// blocks (the paper's "DSMS blocks on pushing results").
const BRIDGE_QUEUE_DEPTH: usize = 16;

/// The push/pull bridge of paper §III-C.2: run the producer on its own
/// thread, pushing events into a bounded blocking queue; the caller (the
/// reducer) pulls them synchronously and encodes rows. Uses the default
/// batch size; see [`pull_through_queue_batched`].
pub fn pull_through_queue(encoding: EventEncoding, stream: EventStream) -> Result<Vec<Row>> {
    pull_through_queue_batched(encoding, stream, DEFAULT_BRIDGE_BATCH)
}

/// [`pull_through_queue`] with an explicit batch size.
///
/// The producer ships `Vec<Event>` chunks of up to `batch` events instead
/// of one event per queue operation, amortizing channel synchronization
/// (two context switches per item → two per batch) exactly like the real
/// bridge amortizes its lock acquisitions. `batch == 1` degenerates to the
/// per-event handoff; batching never changes output order because chunks
/// are cut from the already-sorted event sequence.
pub fn pull_through_queue_batched(
    encoding: EventEncoding,
    stream: EventStream,
    batch: usize,
) -> Result<Vec<Row>> {
    let batch = batch.max(1);
    // Sort first so the producer pushes events in canonical order
    // (deterministic restart output); see `encode_stream` for why events
    // are not coalesced.
    let mut events = stream.into_events();
    events.sort();
    let (tx, rx) = mpsc::sync_channel::<Vec<Event>>(BRIDGE_QUEUE_DEPTH);
    let handle = std::thread::spawn(move || {
        let mut chunk = Vec::with_capacity(batch.min(events.len()));
        for e in events {
            chunk.push(e);
            if chunk.len() == batch {
                let full = std::mem::replace(&mut chunk, Vec::with_capacity(batch));
                if tx.send(full).is_err() {
                    return; // consumer dropped: stop producing
                }
            }
        }
        if !chunk.is_empty() {
            let _ = tx.send(chunk);
        }
    });
    let mut rows = Vec::new();
    // M-R "blocks waiting for new tuples from the reducer" — recv() blocks
    // until the DSMS pushes the next batch of results.
    while let Ok(chunk) = rx.recv() {
        for event in &chunk {
            rows.push(encoding.encode(event)?);
        }
    }
    handle.join().map_err(|payload| {
        TimrError::Compile(format!(
            "DSMS producer thread panicked: {}",
            pool::payload_str(payload.as_ref())
        ))
    })?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::row;

    fn payload_schema() -> Schema {
        Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("N", ColumnType::Long),
        ])
    }

    #[test]
    fn point_round_trip() {
        let enc = EventEncoding::Point;
        let e = Event::point(42, row!["u1", 7i64]);
        let r = enc.encode(&e).unwrap();
        assert_eq!(r, row![42i64, "u1", 7i64]);
        assert_eq!(enc.decode(&r).unwrap(), e);
    }

    #[test]
    fn interval_round_trip() {
        let enc = EventEncoding::Interval;
        let e = Event::interval(10, 50, row!["u1", 7i64]);
        let r = enc.encode(&e).unwrap();
        assert_eq!(r, row![10i64, 50i64, "u1", 7i64]);
        assert_eq!(enc.decode(&r).unwrap(), e);
    }

    #[test]
    fn point_encoding_rejects_intervals() {
        let e = Event::interval(1, 9, row!["u", 0i64]);
        assert!(EventEncoding::Point.encode(&e).is_err());
    }

    #[test]
    fn schema_framing_round_trip() {
        let p = payload_schema();
        for enc in [EventEncoding::Point, EventEncoding::Interval] {
            let ds = enc.dataset_schema(&p);
            assert!(ds.is_timestamped());
            assert_eq!(enc.payload_schema(&ds).unwrap(), p);
        }
    }

    #[test]
    fn payload_schema_validates_framing() {
        let bad = Schema::new(vec![Field::new("NotTime", ColumnType::Long)]);
        assert!(EventEncoding::Point.payload_schema(&bad).is_err());
        let no_end = EventEncoding::Point.dataset_schema(&payload_schema());
        assert!(EventEncoding::Interval.payload_schema(&no_end).is_err());
    }

    #[test]
    fn decode_rejects_empty_lifetimes() {
        assert!(EventEncoding::Interval
            .decode(&row![5i64, 5i64, "u", 0i64])
            .is_err());
    }

    #[test]
    fn stream_round_trip_sorts_but_preserves_event_multiplicity() {
        let enc = EventEncoding::Interval;
        let p = payload_schema();
        let stream = EventStream::new(
            p.clone(),
            vec![
                Event::interval(5, 9, row!["b", 1i64]),
                Event::interval(0, 3, row!["a", 1i64]),
                // Adjacent to the first "a" event but must remain a
                // separate row: downstream queries count events.
                Event::interval(3, 5, row!["a", 1i64]),
            ],
        );
        let rows = enc.encode_stream(&stream).unwrap();
        assert_eq!(
            rows,
            vec![
                row![0i64, 3i64, "a", 1i64],
                row![3i64, 5i64, "a", 1i64],
                row![5i64, 9i64, "b", 1i64]
            ]
        );
        let back = enc.decode_stream(&rows, &p).unwrap();
        assert!(back.same_relation(&stream));
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn queue_bridge_preserves_content_and_order() {
        let p = payload_schema();
        let stream = EventStream::new(
            p,
            (0..500)
                .map(|i| Event::point(i, row![format!("u{i}"), i]))
                .collect(),
        );
        let direct = EventEncoding::Point.encode_stream(&stream).unwrap();
        let queued = pull_through_queue(EventEncoding::Point, stream).unwrap();
        assert_eq!(direct, queued);
    }

    #[test]
    fn batched_bridge_is_batch_size_invariant() {
        let p = payload_schema();
        let make = || {
            EventStream::new(
                p.clone(),
                (0..500)
                    .rev()
                    .map(|i| Event::point(i, row![format!("u{i}"), i]))
                    .collect(),
            )
        };
        let direct = EventEncoding::Point.encode_stream(&make()).unwrap();
        // Batch sizes that divide 500, don't, degenerate to per-event
        // handoff, and exceed the stream length must all agree.
        for batch in [1, 3, 100, 499, 10_000] {
            let queued = pull_through_queue_batched(EventEncoding::Point, make(), batch).unwrap();
            assert_eq!(direct, queued, "batch size {batch}");
        }
    }

    #[test]
    fn decode_batch_matches_decode_stream() {
        let p = payload_schema();
        let rows = vec![
            row![0i64, 3i64, "a", 1i64],
            row![3i64, 5i64, "a", 2i64],
            row![5i64, 9i64, "b", 3i64],
        ];
        let stream = EventEncoding::Interval.decode_stream(&rows, &p).unwrap();
        let batch = EventEncoding::Interval
            .decode_batch(&rows, &p)
            .unwrap()
            .expect("well-typed rows transpose");
        assert_eq!(batch.into_stream().events(), stream.events());
    }

    #[test]
    fn decode_batch_framing_errors_match_row_path() {
        let p = payload_schema();
        let rows = vec![row![5i64, 5i64, "u", 0i64]];
        let batch_err = EventEncoding::Interval
            .decode_batch(&rows, &p)
            .unwrap_err()
            .to_string();
        let row_err = EventEncoding::Interval
            .decode_stream(&rows, &p)
            .unwrap_err()
            .to_string();
        assert_eq!(batch_err, row_err);
    }

    #[test]
    fn decode_batch_falls_back_on_ill_typed_payload() {
        // `N` is declared Long but carries an Int: the row path tolerates
        // it, so the batch path must signal fallback, not fail.
        let p = payload_schema();
        let rows = vec![row![0i64, 3i64, "a", 1i32]];
        assert!(EventEncoding::Interval
            .decode_batch(&rows, &p)
            .unwrap()
            .is_none());
        assert!(EventEncoding::Interval.decode_stream(&rows, &p).is_ok());
    }

    #[test]
    fn decode_column_batch_matches_row_decode() {
        let p = payload_schema();
        for enc in [EventEncoding::Point, EventEncoding::Interval] {
            let rows: Vec<Row> = (0..20)
                .map(|i| {
                    let mut v = vec![Value::Long(i)];
                    if enc == EventEncoding::Interval {
                        v.push(Value::Long(i + 5));
                    }
                    v.push(Value::str(format!("u{}", i % 3)));
                    v.push(Value::Long(i * 10));
                    Row::new(v)
                })
                .collect();
            let ds = enc.dataset_schema(&p);
            let columns = ColumnBatch::from_rows(&ds, &rows).unwrap();
            let batch = enc
                .decode_column_batch(columns, &p)
                .expect("well-framed batch decodes copy-free");
            let via_rows = enc.decode_batch(&rows, &p).unwrap().unwrap();
            assert_eq!(batch.vt(), via_rows.vt());
            assert_eq!(batch.ve(), via_rows.ve());
            assert_eq!(
                batch.into_stream().events(),
                via_rows.into_stream().events()
            );
        }
    }

    #[test]
    fn decode_column_batch_falls_back_on_bad_framing() {
        let p = payload_schema();
        let enc = EventEncoding::Interval;
        let ds = enc.dataset_schema(&p);
        // Null Time cell: the row path owns the error message.
        let null_time = vec![Row::new(vec![
            Value::Null,
            Value::Long(5),
            Value::str("u"),
            Value::Long(0),
        ])];
        let b = ColumnBatch::from_rows(&ds, &null_time).unwrap();
        assert!(enc.decode_column_batch(b, &p).is_none());
        // Empty lifetime: ditto.
        let empty_life = vec![row![5i64, 5i64, "u", 0i64]];
        let b = ColumnBatch::from_rows(&ds, &empty_life).unwrap();
        assert!(enc.decode_column_batch(b, &p).is_none());
        // Schema that lacks the framing columns entirely.
        let b = ColumnBatch::from_rows(&p, &[row!["u", 1i64]]).unwrap();
        assert!(enc.decode_column_batch(b, &p).is_none());
    }

    #[test]
    fn decode_stream_accepts_borrowed_iterators() {
        let p = payload_schema();
        let rows = vec![row![0i64, "a", 1i64], row![7i64, "b", 2i64]];
        let from_slice = EventEncoding::Point.decode_stream(&rows, &p).unwrap();
        let from_iter = EventEncoding::Point
            .decode_stream(rows.iter().filter(|_| true), &p)
            .unwrap();
        assert_eq!(from_slice.events(), from_iter.events());
    }
}
