//! Dataset ↔ event conversion at stage boundaries (paper §III-A step 4 and
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
//! A stage boundary is column batches in, column batches out. On the way
//! in, [`EventEncoding::decode_column_batch`] moves a dataset batch's
//! framing columns out as the lifetime vectors and keeps the rest as the
//! payload; on the way out, [`EventEncoding::encode_sink`] and
//! [`EventEncoding::encode_extent_order`] are its inverse, moving the
//! lifetime vectors back in as the framing columns. Rows exist only at the
//! row conveniences a caller holding streams asks for
//! ([`EventEncoding::decode_stream`], [`read_output`] and
//! [`EventEncoding::encode_stream`], which lays its stream out as a batch
//! and encodes it at the sink); no job runs them.
//!
//! The reduce sink publishes in one **canonical order** (paper §III-C: a
//! restarted reducer publishes the same bytes): by lifetime, then by the
//! payload cells in [`relation::Value`]'s order. It is an integer sort
//! ([`canonical_order`]). The lifetime is one packed key per row, and only
//! rows that tie on it read their cells, as [`relation::order`]'s words —
//! which order a column's cells exactly as the cells compare, so the sort
//! is the cell order itself without a comparator per cell.
//!
//! The paper's §III-C.2 reconciles a DSMS that *pushes* results
//! asynchronously with a map-reduce that *pulls* rows synchronously through
//! an in-memory blocking queue. This repo's executor returns its complete
//! result before anything is pulled, so there is nothing to reconcile: the
//! encoders take the executor's root **by value** on the calling thread.
//! The queue lives where a producer really is concurrent with its consumer
//! — the online path, `temporal::rt`.

use crate::error::{Result, TimrError};
use mapreduce::Dfs;
use relation::column::{Column, ColumnData};
use relation::order::column_words;
use relation::schema::{ColumnType, Field, TIME_COLUMN};
use relation::{ColumnBatch, Row, Schema};
use std::borrow::Borrow;
use temporal::{Event, EventBatch, EventStream, Lifetime, TemporalError, Time};

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

    /// The validated `[LE, RE)` a row's framing cells carry. `Time::MAX`
    /// has no successor, so a point-framed dataset cannot hold it: one named
    /// error on every decode path, in debug and release alike, instead of an
    /// overflow panic (which the cluster would retry) or a wrapped lifetime.
    fn decode_lifetime(self, row: &Row) -> Result<(Time, Time)> {
        let le = row
            .get(0)
            .as_long()
            .ok_or_else(|| TimrError::Compile(format!("non-integral Time in row {row}")))?;
        let re = match self {
            EventEncoding::Point => le.checked_add(1).ok_or_else(|| {
                TimrError::Compile(format!(
                    "Time {le} has no point lifetime: Time + 1 overflows"
                ))
            })?,
            EventEncoding::Interval => row
                .get(1)
                .as_long()
                .ok_or_else(|| TimrError::Compile(format!("non-integral TimeEnd in row {row}")))?,
        };
        if re <= le {
            return Err(TimrError::Compile(format!(
                "row {row} has empty lifetime [{le}, {re})"
            )));
        }
        Ok((le, re))
    }

    /// Point encoding holds point lifetimes only.
    fn check_lifetime(self, le: Time, re: Time) -> Result<()> {
        match self {
            EventEncoding::Point if le.checked_add(1) != Some(re) => Err(TimrError::Compile(
                format!("cannot point-encode interval event [{le}, {re})"),
            )),
            _ => Ok(()),
        }
    }

    /// Decode a whole partition of rows, borrowed or owned, into an event
    /// stream with the given payload schema.
    pub fn decode_stream<I>(self, rows: I, payload: &Schema) -> Result<EventStream>
    where
        I: IntoIterator,
        I::Item: Borrow<Row>,
    {
        let rows = rows.into_iter();
        let mut events = Vec::with_capacity(rows.size_hint().0);
        for row in rows {
            let row = row.borrow();
            let (le, re) = self.decode_lifetime(row)?;
            let cells = row.values()[self.framing_columns()..].to_vec();
            events.push(Event::new(Lifetime::new(le, re), Row::new(cells)));
        }
        Ok(EventStream::new(payload.clone(), events))
    }

    /// Decode a dataset-shaped [`ColumnBatch`] (framing columns leading),
    /// taken by value, straight into an [`EventBatch`] without ever
    /// materializing rows or copying a column: the `Time` (and `TimeEnd`)
    /// buffers move out as the lifetime vectors and the remaining columns
    /// become the payload batch as-is — the entry for mappers and reducers,
    /// which are fed decoded extents.
    ///
    /// A batch whose schema is not `payload`'s dataset schema is the error
    /// the single-node DSMS gives a mis-bound `source`, naming both schemas.
    /// A framing column that is not dense `Long` cells — a null, or a
    /// storage variant other than `Long` — reads its lifetimes row by row
    /// under [`Self::decode_stream`]'s rules, so a null framing cell, a point
    /// `Time::MAX` and an empty lifetime fail with the row decode's
    /// message, naming the first such row.
    pub fn decode_column_batch(
        self,
        batch: ColumnBatch,
        source: &str,
        payload: &Schema,
    ) -> Result<EventBatch> {
        fn cells(column: &Column) -> Option<&[i64]> {
            match (column.data(), column.validity()) {
                (ColumnData::Long(v), None) => Some(v),
                _ => None,
            }
        }
        let expected = self.dataset_schema(payload);
        if batch.schema() != &expected {
            return Err(TemporalError::Input(format!(
                "source `{source}` bound with schema {}, plan expects {expected}",
                batch.schema()
            ))
            .into());
        }
        let well_framed = match self {
            EventEncoding::Point => {
                cells(batch.column(0)).is_some_and(|vt| !vt.contains(&Time::MAX))
            }
            EventEncoding::Interval => cells(batch.column(0))
                .zip(cells(batch.column(1)))
                .is_some_and(|(vt, ve)| vt.iter().zip(ve).all(|(le, re)| le < re)),
        };
        let by_row: Option<(Vec<Time>, Vec<Time>)> = match well_framed {
            true => None,
            false => Some(
                (0..batch.len())
                    .map(|i| self.decode_lifetime(&batch.row(i)))
                    .collect::<Result<Vec<_>>>()?
                    .into_iter()
                    .unzip(),
            ),
        };
        let (_schema, mut columns, rows) = batch.into_parts();
        let payload_cols = columns.split_off(self.framing_columns());
        let (vt, ve) = by_row.unwrap_or_else(|| {
            let mut framing = columns.into_iter().map(|c| match c.into_parts().0 {
                ColumnData::Long(v) => v,
                _ => unreachable!("framing columns checked above"),
            });
            let vt = framing.next().expect("dataset schemas lead with Time");
            let ve = match self {
                EventEncoding::Point => vt.iter().map(|t| t + 1).collect(),
                EventEncoding::Interval => framing.next().expect("interval schemas carry TimeEnd"),
            };
            (vt, ve)
        });
        Ok(EventBatch::new(
            vt,
            ve,
            ColumnBatch::new(payload.clone(), payload_cols, rows),
        ))
    }

    /// Encode a whole stream into a dataset batch in canonical (sorted)
    /// order: the row convenience over [`Self::encode_sink`], which lays
    /// the stream out as a batch first (a cell that does not inhabit its
    /// declared type is an input error naming the row and the column).
    pub fn encode_stream(self, stream: &EventStream) -> Result<ColumnBatch> {
        self.encode_sink(EventBatch::from_stream(stream)?)
    }

    /// Encode an executor root, taken by value, into a dataset batch in
    /// **canonical order**, so restarted reducers emit byte-identical
    /// partitions. The order is established here once, where bytes are
    /// published: the reduce sink. The root's events sort as a
    /// *permutation* — by lifetime, then by the typed column cells in
    /// [`relation::Value`]'s total order, which is the order of the dataset rows
    /// because a dataset row leads with its lifetime — and each payload
    /// column is gathered once by it.
    ///
    /// The sort compares integers only ([`canonical_order`]): the lifetime
    /// as one packed key, then, only among rows that tie on it, each column
    /// as [`relation::order`]'s words, validity first. Words order a column
    /// exactly as its cells compare, so this is the cell order itself.
    ///
    /// Events are **not** coalesced: two adjacent events with equal
    /// payloads (e.g. two impressions of the same ad one tick apart) stay
    /// two rows, because downstream queries may count *events*, not
    /// snapshots. Canonical order alone is enough for the determinism
    /// guarantee.
    pub fn encode_sink(self, root: EventBatch) -> Result<ColumnBatch> {
        let (vt, ve) = (root.vt(), root.ve());
        let idx = canonical_order(vt, ve, root.payload().columns());
        let vt = idx.iter().map(|&i| vt[i as usize]).collect();
        let ve = idx.iter().map(|&i| ve[i as usize]).collect();
        self.dataset_batch(vt, ve, root.payload().gather(&idx))
    }

    /// Encode an executor root, taken by value, in the order the executor
    /// produced it — the map-side encode: the root's lifetime vectors and
    /// payload columns move into the dataset batch as they are. Map output
    /// needs no canonical order. It is never published. Executor output
    /// order is a pure function of the input extent (fused fragments
    /// preserve input order, GroupApply merges groups in sorted-key order),
    /// so retries, rebuilds and worker processes reproduce identical chunks.
    /// And the bytes the reduce side publishes do not depend on the order of
    /// the rows inside an extent (`tests/prop_pushdown.rs` permutes them) —
    /// except through float accumulators, which add tied events in arrival
    /// order and did so before, over mapper inputs and mapper-less inputs
    /// that nothing ever sorted.
    pub fn encode_extent_order(self, root: EventBatch) -> Result<ColumnBatch> {
        let (vt, ve, payload) = root.into_parts();
        self.dataset_batch(vt, ve, payload)
    }

    /// The inverse of [`Self::decode_column_batch`]: the lifetime vectors
    /// move in as the framing columns ahead of the payload's. Point
    /// encoding requires point lifetimes.
    fn dataset_batch(
        self,
        vt: Vec<Time>,
        ve: Vec<Time>,
        payload: ColumnBatch,
    ) -> Result<ColumnBatch> {
        (vt.iter().zip(&ve)).try_for_each(|(&le, &re)| self.check_lifetime(le, re))?;
        let (schema, payload_cols, rows) = payload.into_parts();
        let mut columns = vec![Column::new(ColumnData::Long(vt), None)];
        if self == EventEncoding::Interval {
            columns.push(Column::new(ColumnData::Long(ve), None));
        }
        columns.extend(payload_cols);
        Ok(ColumnBatch::new(
            self.dataset_schema(&schema),
            columns,
            rows,
        ))
    }
}

/// The canonical order of the rows whose lifetimes are `vt`/`ve` and
/// whose payload is `columns`, as a permutation: by `(LE, RE)`, then by
/// each column in schema order, nulls first. Rows equal on all of it are
/// identical rows, whose order does not show in the bytes.
///
/// Each row's lifetime is one packed key, `(LE − min LE, RE − min RE)`:
/// a `u64` when both offsets fit in it together, a `u128` otherwise. The
/// keys go through a stable sort that merges the ordered runs the
/// executor already emits (map extents' chunks, GroupApply's groups).
/// Only runs of equal lifetime are refined ([`refine_ties`]), so a payload
/// cell is read only where two rows tie on their lifetime.
fn canonical_order(vt: &[Time], ve: &[Time], columns: &[Column]) -> Vec<u32> {
    let span = |t: &[Time]| {
        let (lo, hi) = (t.iter().min(), t.iter().max());
        lo.zip(hi)
            .map(|(&lo, &hi)| (lo, hi.wrapping_sub(lo) as u64))
    };
    let (Some((le_min, le_span)), Some((re_min, re_span))) = (span(vt), span(ve)) else {
        return Vec::new();
    };
    // An offset from the minimum fits a `u64` however far apart the two are.
    let le = |i: usize| vt[i].wrapping_sub(le_min) as u64;
    let re = |i: usize| ve[i].wrapping_sub(re_min) as u64;
    let re_bits = u64::BITS - re_span.leading_zeros();
    let mut ties = Vec::new();
    let mut perm = if u64::BITS - le_span.leading_zeros() + re_bits <= u64::BITS {
        // A shift by the full width only meets an `LE` offset of 0.
        let key = |i: usize| le(i).checked_shl(re_bits).unwrap_or(0) | re(i);
        sort_keys(vt.len(), key, &mut ties)
    } else {
        let key = |i: usize| u128::from(le(i)) << 64 | u128::from(re(i));
        sort_keys(vt.len(), key, &mut ties)
    };
    refine_ties(&mut perm, ties, columns);
    perm
}

/// Rows `0..n` as a permutation in order of `key`, by a stable sort that
/// detects runs; the position ranges of rows that tie on their key go to
/// `ties`.
fn sort_keys<K: Ord + Copy>(
    n: usize,
    key: impl Fn(usize) -> K,
    ties: &mut Vec<(usize, usize)>,
) -> Vec<u32> {
    let mut keyed: Vec<(K, u32)> = (0..n).map(|i| (key(i), i as u32)).collect();
    keyed.sort_by_key(|&(k, _)| k);
    push_ties(0, &keyed, ties);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The position ranges, offset by `at`, of the runs of two or more
/// adjacent items of `keyed` with equal keys.
fn push_ties<K: Eq>(at: usize, keyed: &[(K, u32)], ties: &mut Vec<(usize, usize)>) {
    let mut lo = at;
    for run in keyed.chunk_by(|a, b| a.0 == b.0) {
        if run.len() > 1 {
            ties.push((lo, lo + run.len()));
        }
        lo += run.len();
    }
}

/// Order each range of `perm` in `ties` — rows equal so far — by the
/// columns in schema order: a nullable column by validity, then every
/// column by its cells' words. A range splits into the ranges still tied,
/// which the next column refines; refining stops when none is left.
fn refine_ties(perm: &mut [u32], mut ties: Vec<(usize, usize)>, columns: &[Column]) {
    let mut words = Vec::new();
    for column in columns {
        if ties.is_empty() {
            return;
        }
        if column.validity().is_some() {
            let validity = |run: &[u32], out: &mut Vec<(u64, u32)>| {
                out.extend(
                    run.iter()
                        .map(|&i| (u64::from(column.is_valid(i as usize)), i)),
                )
            };
            ties = refine(perm, &ties, &mut words, validity);
        }
        ties = refine(perm, &ties, &mut words, |run, out| {
            column_words(column, run, out)
        });
    }
}

/// Order each range of `perm` in `ties` by the words `fill` appends for
/// its rows, and return the ranges that still tie. A range whose words are
/// constant stays whole, and one already in order is left as it is.
fn refine(
    perm: &mut [u32],
    ties: &[(usize, usize)],
    words: &mut Vec<(u64, u32)>,
    fill: impl Fn(&[u32], &mut Vec<(u64, u32)>),
) -> Vec<(usize, usize)> {
    let mut next = Vec::with_capacity(ties.len());
    for &(lo, hi) in ties {
        let run = &mut perm[lo..hi];
        words.clear();
        fill(run, words);
        if words.iter().all(|w| w.0 == words[0].0) {
            next.push((lo, hi));
            continue;
        }
        if !words.is_sorted_by_key(|w| w.0) {
            // Rows whose words tie stay in the range the next column
            // refines, so the sort need not be stable.
            words.sort_unstable_by_key(|w| w.0);
            (run.iter_mut().zip(words.iter())).for_each(|(p, w)| *p = w.1);
        }
        push_ties(lo, words, &mut next);
    }
    next
}

/// Decode a published output dataset — a TiMR job's, a shared job's query,
/// a temporally partitioned run's: every stage sink is interval-framed —
/// back into its normalized event stream.
pub fn read_output(dfs: &Dfs, dataset: &str) -> Result<EventStream> {
    let ds = dfs.get(dataset)?;
    let payload = EventEncoding::Interval.payload_schema(&ds.schema)?;
    let stream = EventEncoding::Interval.decode_stream(ds.iter(), &payload)?;
    Ok(stream.normalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{row, Value};

    fn payload_schema() -> Schema {
        Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("N", ColumnType::Long),
        ])
    }

    /// `e` as a dataset row of `enc`: its framing cells, then its payload.
    fn framed(enc: EventEncoding, e: &Event) -> Row {
        let mut cells = vec![Value::Long(e.start())];
        if enc == EventEncoding::Interval {
            cells.push(Value::Long(e.end()));
        }
        cells.extend_from_slice(e.payload.values());
        Row::new(cells)
    }

    /// A dataset row decodes into its event, and the sink encodes the event
    /// back into the row.
    fn assert_round_trip(enc: EventEncoding, e: Event, row: Row) {
        let p = payload_schema();
        let columns = ColumnBatch::from_rows(&enc.dataset_schema(&p), std::slice::from_ref(&row));
        let columns = columns.unwrap();
        let batch = enc.decode_column_batch(columns, "s", &p).unwrap();
        assert_eq!(batch.clone().into_stream().events(), &[e]);
        assert_eq!(enc.encode_sink(batch).unwrap().to_rows(), vec![row]);
    }

    #[test]
    fn point_round_trip() {
        let e = Event::point(42, row!["u1", 7i64]);
        assert_round_trip(EventEncoding::Point, e, row![42i64, "u1", 7i64]);
    }

    #[test]
    fn interval_round_trip() {
        let e = Event::interval(10, 50, row!["u1", 7i64]);
        assert_round_trip(EventEncoding::Interval, e, row![10i64, 50i64, "u1", 7i64]);
    }

    #[test]
    fn point_encoding_rejects_intervals() {
        let e = Event::interval(1, 9, row!["u", 0i64]);
        let batch = EventBatch::from_events(payload_schema(), &[e]).unwrap();
        let err = EventEncoding::Point.encode_sink(batch).unwrap_err();
        assert!(err
            .to_string()
            .contains("cannot point-encode interval event [1, 9)"));
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
        let empty = [row![5i64, 5i64, "u", 0i64]];
        let decoded = EventEncoding::Interval.decode_stream(&empty, &payload_schema());
        assert!(decoded.is_err());
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
        let batch = EventBatch::from_stream(&stream).unwrap();
        let rows = enc.encode_sink(batch).unwrap().to_rows();
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

    /// Unsorted, with a duplicated event and two events that tie on
    /// lifetime, so both the sort and its payload tie-break are observable.
    fn unsorted_events(point: bool) -> Vec<Event> {
        (0..200i64)
            .rev()
            .flat_map(|i| {
                let (t, payload) = (i / 3, row![format!("u{}", i % 7), i % 5]);
                let event = match point {
                    true => Event::point(t, payload),
                    false => Event::interval(t, t + 1 + i % 4, payload),
                };
                let copies = if i % 50 == 0 { 2 } else { 1 };
                std::iter::repeat_n(event, copies)
            })
            .collect()
    }

    /// Payloads that make the batch sink's typed comparator disagree with
    /// [`Value`]'s order if it is wrong anywhere: a column of every type,
    /// each with nulls (which sort first) and, for doubles, both zeros,
    /// infinities and both NaNs (IEEE total order); few distinct lifetimes,
    /// so most comparisons are decided by a payload cell — for some pairs
    /// only the last one — and exact duplicates.
    fn typed_schema() -> Schema {
        Schema::new(vec![
            Field::new("B", ColumnType::Bool),
            Field::new("I", ColumnType::Int),
            Field::new("L", ColumnType::Long),
            Field::new("D", ColumnType::Double),
            Field::new("S", ColumnType::Str),
        ])
    }

    fn typed_events(point: bool) -> Vec<Event> {
        let bools = [Value::Null, Value::Bool(true), Value::Bool(false)];
        let ints = [Value::Null, Value::Int(7), Value::Int(-1), Value::Int(0)];
        let longs = [Value::Null, Value::Long(3), Value::Long(i64::MIN)];
        let doubles = [
            Value::Null,
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(1.5),
            Value::Double(f64::NEG_INFINITY),
        ];
        let strs = [
            Value::Null,
            Value::str("b"),
            Value::str(""),
            Value::str("a"),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |palette: &[Value]| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            palette[(state >> 33) as usize % palette.len()].clone()
        };
        let mut events = Vec::new();
        for i in 0..400i64 {
            // The leading columns are mostly constant so that ties reach the
            // trailing ones.
            let payload = Row::new(vec![
                pick(&bools[..1 + (i % 3) as usize]),
                pick(&ints[..1 + (i % 4) as usize]),
                pick(&longs),
                pick(&doubles),
                pick(&strs),
            ]);
            let t = i % 3;
            let event = match point {
                true => Event::point(t, payload),
                false => Event::interval(t, t + 1 + i % 2, payload),
            };
            let copies = if i % 40 == 0 { 3 } else { 1 };
            events.extend(std::iter::repeat_n(event, copies));
        }
        events
    }

    /// The sealed image of a dataset batch: equal images are equal rows in
    /// equal storage.
    fn image(batch: ColumnBatch) -> Vec<u8> {
        batch.to_extent_bytes().unwrap()
    }

    /// The by-value sink encode is the events sorted — by lifetime, then by
    /// payload in `Value`'s order, which is the order of the framed rows —
    /// with multiplicity preserved, and so is the row convenience over it;
    /// the extent-order encode is the same rows, unsorted. The batch sink
    /// sorts a permutation by typed cells, so its order is checked against
    /// `Value`'s on payloads of every type.
    #[test]
    fn by_value_sink_encode_matches_encode_stream() {
        for (enc, point) in [
            (EventEncoding::Point, true),
            (EventEncoding::Interval, false),
        ] {
            for (p, events) in [
                (payload_schema(), unsorted_events(point)),
                (typed_schema(), typed_events(point)),
            ] {
                let schema = enc.dataset_schema(&p);
                let rows_of = |events: &[Event]| -> Vec<Row> {
                    events.iter().map(|e| framed(enc, e)).collect()
                };
                let mut sorted = events.clone();
                sorted.sort();
                let rows = rows_of(&sorted);
                assert_eq!(rows.len(), events.len(), "no event is coalesced");
                assert!(rows.windows(2).all(|w| w[0] <= w[1]), "canonical order");
                assert!(rows.windows(2).any(|w| w[0] == w[1]), "duplicates stay");
                let want = image(ColumnBatch::from_rows(&schema, &rows).unwrap());
                let stream = EventStream::new(p, events);
                let as_batch = || EventBatch::from_stream(&stream).unwrap();
                assert_eq!(image(enc.encode_sink(as_batch()).unwrap()), want);
                assert_eq!(image(enc.encode_stream(&stream).unwrap()), want);
                let in_order = rows_of(stream.events());
                let in_order = image(ColumnBatch::from_rows(&schema, &in_order).unwrap());
                assert_eq!(
                    image(enc.encode_extent_order(as_batch()).unwrap()),
                    in_order
                );
            }
        }
        // The typed payloads do tie on everything but the last column.
        let framing = EventEncoding::Interval.framing_columns();
        let rows = (EventEncoding::Interval)
            .encode_sink(EventBatch::from_events(typed_schema(), &typed_events(false)).unwrap())
            .unwrap()
            .to_rows();
        let last = framing + typed_schema().len() - 1;
        assert!(rows.windows(2).any(|w| {
            w[0].values()[..last] == w[1].values()[..last] && w[0].get(last) != w[1].get(last)
        }));
    }

    /// The sinks meet the events in canonical order, so with several
    /// intervals they name the same one; the extent-order encode meets them
    /// in stream order.
    #[test]
    fn point_sink_encode_rejects_intervals() {
        let stream = EventStream::new(
            payload_schema(),
            vec![
                Event::point(3, row!["a", 0i64]),
                Event::interval(2, 9, row!["u", 0i64]),
                Event::interval(1, 9, row!["u", 0i64]),
            ],
        );
        let batch = EventBatch::from_stream(&stream).unwrap();
        for (encode, want) in [
            (
                EventEncoding::encode_sink as fn(_, _) -> _,
                "cannot point-encode interval event [1, 9)",
            ),
            (
                EventEncoding::encode_extent_order,
                "cannot point-encode interval event [2, 9)",
            ),
        ] {
            let err = encode(EventEncoding::Point, batch.clone()).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
        let sorted = EventEncoding::Point.encode_stream(&stream).unwrap_err();
        assert!(sorted.to_string().contains("[1, 9)"));
    }

    /// `Time::MAX` has no successor, so no point lifetime: every decode path
    /// reports the same named error (checked arithmetic — the text is the
    /// same in debug and release builds).
    #[test]
    fn point_decode_of_time_max_is_one_named_error() {
        let p = payload_schema();
        let enc = EventEncoding::Point;
        let rows = vec![row![5i64, "u", 0i64], row![Time::MAX, "u", 1i64]];
        let want = "compile error: Time 9223372036854775807 has no point lifetime: \
                    Time + 1 overflows";
        assert_eq!(enc.decode_stream(&rows, &p).unwrap_err().to_string(), want);
        let columns = ColumnBatch::from_rows(&enc.dataset_schema(&p), &rows).unwrap();
        let refused = enc.decode_column_batch(columns, "s", &p).unwrap_err();
        assert_eq!(refused.to_string(), want);
        // An interval dataset may end at Time::MAX: only `+ 1` overflows.
        let ends_at_max = [row![5i64, Time::MAX, "u", 0i64]];
        assert!(EventEncoding::Interval
            .decode_stream(&ends_at_max, &p)
            .is_ok());
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
                .decode_column_batch(columns, "s", &p)
                .expect("well-framed batch decodes copy-free");
            let via_rows = enc.decode_stream(&rows, &p).unwrap();
            // Moving the framing columns back in is the inverse.
            let back = enc.encode_extent_order(batch.clone());
            assert_eq!(back.unwrap().to_rows(), rows);
            assert_eq!(batch.into_stream().events(), via_rows.events());
        }
    }

    /// A null framing cell and an empty lifetime fail with the row decode's
    /// message, naming the first bad row; a batch of another schema names
    /// the source and both schemas.
    #[test]
    fn decode_column_batch_fails_like_the_row_decode() {
        let p = payload_schema();
        let enc = EventEncoding::Interval;
        let ds = enc.dataset_schema(&p);
        let null_time = Row::new(vec![
            Value::Null,
            Value::Long(5),
            Value::str("u"),
            Value::Long(0),
        ]);
        let null_end = Row::new(vec![
            Value::Long(5),
            Value::Null,
            Value::str("u"),
            Value::Long(0),
        ]);
        let (good, empty_life) = (row![1i64, 4i64, "u", 0i64], row![5i64, 5i64, "u", 0i64]);
        for bad in [null_time, null_end, empty_life] {
            let rows = vec![good.clone(), bad, row![7i64, 7i64, "v", 1i64]];
            let b = ColumnBatch::from_rows(&ds, &rows).unwrap();
            let want = enc.decode_stream(&rows, &p).unwrap_err().to_string();
            assert!(want.contains(&rows[1].to_string()), "{want}");
            let got = enc.decode_column_batch(b, "s", &p).unwrap_err();
            assert_eq!(got.to_string(), want);
        }
        let b = ColumnBatch::from_rows(&p, &[row!["u", 1i64]]).unwrap();
        assert_eq!(
            enc.decode_column_batch(b, "s", &p).unwrap_err().to_string(),
            format!("input error: source `s` bound with schema {p}, plan expects {ds}")
        );
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
