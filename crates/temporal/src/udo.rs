//! User-defined windowed operators (UDOs).
//!
//! DSMSs let users supply code that runs over the contents of a window
//! (paper §II-A.2, "User-Defined Operators"). TiMR's BT solution uses one to
//! run logistic-regression training over a hopping window of training
//! examples (paper §IV-B.4).
//!
//! A [`WindowUdo`] is invoked once per hop: it reads the window's events as
//! an [`EventBatch`] — every event whose timestamp falls in
//! `(window_end - width, window_end]` — and returns its output as a
//! [`ColumnBatch`] of its declared output schema, which the engine stamps
//! with lifetime `[window_end, window_end + hop)` — i.e. each result is
//! valid until the next recomputation, which is exactly how the paper lodges
//! periodically-retrained model weights into a join synopsis for scoring.
//! The UDO reads and writes columns, as every operator does: no row is laid
//! out on either side.

use crate::batch::EventBatch;
use crate::error::Result;
use crate::time::Time;
use relation::{Column, ColumnBatch, ColumnData, Schema};
use std::fmt;
use std::sync::Arc;

/// User code applied to each hopping window.
pub trait WindowUdo: Send + Sync + fmt::Debug {
    /// Stable name, used in plan display, plan comparison and errors.
    fn name(&self) -> &str;

    /// Output schema given the input schema.
    fn output_schema(&self, input: &Schema) -> Result<Schema>;

    /// Compute the output for the window ending at `window_end`: `window`
    /// holds the events with `LE` in `(window_end - width, window_end]`, in
    /// input order stably sorted by `LE`. The result must have the schema
    /// [`Self::output_schema`] declares; one that does not is an input
    /// error naming the UDO.
    fn apply(&self, window_end: Time, window: &EventBatch) -> Result<ColumnBatch>;
}

/// Shared handle to a UDO instance stored inside plans.
pub type UdoRef = Arc<dyn WindowUdo>;

/// A trivial UDO that emits one row per window containing the window-end
/// time and the number of events. Useful in tests and as a template.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowCountUdo;

impl WindowUdo for WindowCountUdo {
    fn name(&self) -> &str {
        "window_count"
    }

    fn output_schema(&self, _input: &Schema) -> Result<Schema> {
        use relation::schema::{ColumnType, Field};
        Ok(Schema::new(vec![
            Field::new("WindowEnd", ColumnType::Long),
            Field::new("Events", ColumnType::Long),
        ]))
    }

    fn apply(&self, window_end: Time, window: &EventBatch) -> Result<ColumnBatch> {
        let long = |v: i64| Column::new(ColumnData::Long(vec![v]), None);
        Ok(ColumnBatch::new(
            self.output_schema(window.schema())?,
            vec![long(window_end), long(window.len() as i64)],
            1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use relation::row;

    #[test]
    fn window_count_udo_counts() {
        let schema = Schema::new(vec![relation::schema::Field::new(
            "X",
            relation::schema::ColumnType::Long,
        )]);
        let events = [Event::point(1, row![1i64]), Event::point(2, row![2i64])];
        let window = EventBatch::from_events(schema.clone(), &events).unwrap();
        let out = WindowCountUdo.apply(10, &window).unwrap();
        assert_eq!(out.to_rows(), vec![row![10i64, 2i64]]);
        assert_eq!(
            WindowCountUdo.output_schema(&schema).unwrap().names(),
            vec!["WindowEnd", "Events"]
        );
    }
}
