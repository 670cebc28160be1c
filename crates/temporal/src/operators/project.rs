//! Project: stateless payload transformation (paper §II-A.2).

use crate::compiled::CompiledExpr;
use crate::error::Result;
use crate::event::Event;
use crate::expr::Expr;
use crate::operators::group_apply::{run_of, Cut, Runs};
use crate::stream::EventStream;
use relation::{Field, Row, Schema, Value};

/// Recompute each payload from `exprs`; lifetimes pass through. The
/// expressions are compiled once against the input schema. A
/// uniquely-owned input has its event vector reused, each payload replaced
/// in place — and a passthrough column (a bare column reference no other
/// output expression reads) is **moved** out of the old payload rather
/// than cloned, so carrying a string id through a projection costs
/// nothing. Shared storage is rebuilt from borrowed events; the old
/// payloads are never cloned wholesale, only read.
pub fn project(input: EventStream, exprs: &[(String, Expr)]) -> Result<EventStream> {
    Ok(project_runs(Runs::one(input), exprs, &mut Cut::none())?.stream)
}

/// [`project`] over every run at once: events map one to one, so the run
/// bounds pass through.
pub(crate) fn project_runs(input: Runs, exprs: &[(String, Expr)], cut: &mut Cut) -> Result<Runs> {
    let Runs {
        mut stream,
        mut bounds,
    } = input;
    let in_schema = stream.schema();
    let out_schema = Schema::new(
        exprs
            .iter()
            .map(|(name, e)| Ok(Field::new(name.clone(), e.infer_type(in_schema)?)))
            .collect::<Result<Vec<_>>>()?,
    );
    let compiled: Vec<CompiledExpr> = exprs
        .iter()
        .map(|(_, e)| CompiledExpr::compile(e, in_schema))
        .collect();
    // Output expr j may take input column i by move iff expr j is `col(i)`
    // and no expression (including itself, again) reads column i elsewhere.
    let mut refs = vec![0usize; in_schema.len()];
    for (_, e) in exprs {
        for name in e.referenced_columns() {
            if let Ok(i) = in_schema.index_of(name) {
                refs[i] += 1;
            }
        }
    }
    let moves: Vec<Option<usize>> = exprs
        .iter()
        .map(|(_, e)| match e {
            Expr::Column(name) => match in_schema.index_of(name) {
                Ok(i) if refs[i] == 1 => Some(i),
                _ => None,
            },
            _ => None,
        })
        .collect();
    let mut failed = None;
    let mut events = if stream.is_unique() {
        let mut events = stream.into_events();
        'events: for (at, e) in events.iter_mut().enumerate() {
            let mut values = Vec::with_capacity(compiled.len());
            for (c, mv) in compiled.iter().zip(&moves) {
                values.push(match mv {
                    Some(_) => Value::Null, // placeholder, replaced below
                    None => match c.eval(&e.payload) {
                        Ok(v) => v,
                        Err(err) => {
                            failed = Some((at, err));
                            break 'events;
                        }
                    },
                });
            }
            let old = e.payload.values_mut();
            for (slot, mv) in values.iter_mut().zip(&moves) {
                if let Some(i) = *mv {
                    *slot = std::mem::replace(&mut old[i], Value::Null);
                }
            }
            e.payload = Row::new(values);
        }
        events
    } else {
        let mut events = Vec::with_capacity(stream.len());
        for (at, e) in stream.events().iter().enumerate() {
            match compiled.iter().map(|c| c.eval(&e.payload)).collect() {
                Ok(values) => events.push(Event::new(e.lifetime, Row::new(values))),
                Err(err) => {
                    failed = Some((at, err));
                    break;
                }
            }
        }
        events
    };
    if let Some((at, err)) = failed {
        // Runs before the failing event's are fully projected; keep those.
        let run = run_of(&bounds, at);
        cut.fail(run, err)?;
        bounds.truncate(run + 1);
        events.truncate(bounds[run]);
    }
    Ok(Runs {
        stream: EventStream::new(out_schema, events),
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::expr::{col, lit};
    use relation::schema::ColumnType;
    use relation::{row, Value};

    #[test]
    fn computes_new_columns() {
        let schema = Schema::new(vec![
            Field::new("Clicks", ColumnType::Long),
            Field::new("Imps", ColumnType::Long),
        ]);
        let input = EventStream::new(schema, vec![Event::point(0, row![3i64, 12i64])]);
        let exprs = vec![
            (
                "Ctr".to_string(),
                col("Clicks").mul(lit(1.0f64)).div(col("Imps")),
            ),
            ("Imps".to_string(), col("Imps")),
        ];
        let out = project(input, &exprs).unwrap();
        assert_eq!(out.schema().names(), vec!["Ctr", "Imps"]);
        assert_eq!(out.events()[0].payload.get(0), &Value::Double(0.25));
    }

    #[test]
    fn reorders_and_drops_columns() {
        let schema = Schema::new(vec![
            Field::new("A", ColumnType::Long),
            Field::new("B", ColumnType::Str),
        ]);
        let input = EventStream::new(schema, vec![Event::point(0, row![1i64, "x"])]);
        let out = project(input, &[("B".to_string(), col("B"))]).unwrap();
        assert_eq!(out.schema().names(), vec!["B"]);
        assert_eq!(out.events()[0].payload, row!["x"]);
    }

    #[test]
    fn shared_input_is_left_untouched() {
        let schema = Schema::new(vec![Field::new("A", ColumnType::Long)]);
        let original = EventStream::new(schema, vec![Event::point(0, row![7i64])]);
        let out = project(
            original.clone(),
            &[("A2".to_string(), col("A").add(lit(1i64)))],
        )
        .unwrap();
        assert_eq!(original.events()[0].payload, row![7i64]);
        assert_eq!(out.events()[0].payload, row![8i64]);
    }
}
