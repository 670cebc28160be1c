//! Human-readable plan rendering, used in docs, logs, and TiMR's
//! fragment-boundary debugging.

use super::{hopping_aggregate, FusedStep, LifetimeOp, LogicalPlan, NodeId, Operator};
use std::fmt;

/// One lifetime operator as the plan display writes it.
pub(crate) fn lifetime_desc(op: &LifetimeOp) -> String {
    match op {
        LifetimeOp::Window(w) => format!("Window w={w}"),
        LifetimeOp::Hop { hop, width } => format!("HopWindow h={hop} w={width}"),
        LifetimeOp::Shift(d) => format!("Shift {d}"),
        LifetimeOp::ExtendBack(d) => format!("ExtendBack {d}"),
        LifetimeOp::ToPoint => "ToPoint".to_string(),
    }
}

/// One fused step as the plan display writes it.
pub(crate) fn step_desc(step: &FusedStep) -> String {
    match step {
        FusedStep::Filter { predicate } => format!("Filter {predicate}"),
        FusedStep::Project { exprs } => {
            let cols: Vec<String> = exprs.iter().map(|(n, e)| format!("{n}={e}")).collect();
            format!("Project [{}]", cols.join(", "))
        }
        FusedStep::AlterLifetime { op } => lifetime_desc(op),
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Rendered {
            plan: self,
            over_groups: None,
        }
        .fmt(f)
    }
}

/// How a GroupApply runs its sub-plan over the groups.
#[derive(Clone, Copy)]
enum OverGroups {
    /// Node by node over key-ordered runs; each node says whether it has a
    /// run-aware kernel ([`Operator::segmented`]).
    Runs,
    /// The whole sub-plan as one hash aggregation over (group, cell): a
    /// tumbling hopping aggregate of combinable aggregates
    /// (`HoppingAggregate::pane_grid`).
    Pane,
}

/// A plan being rendered; a GroupApply sub-plan's nodes also say how they
/// run over the groups.
struct Rendered<'a> {
    plan: &'a LogicalPlan,
    over_groups: Option<OverGroups>,
}

impl fmt::Display for Rendered<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &root) in self.plan.roots().iter().enumerate() {
            writeln!(f, "output {i}:")?;
            self.fmt_node(root, 1, f)?;
        }
        Ok(())
    }
}

impl Rendered<'_> {
    fn fmt_node(&self, id: NodeId, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.plan.node(id);
        let pad = "  ".repeat(indent);
        let pairs = |keys: &[(String, String)]| -> String {
            let ks: Vec<String> = keys.iter().map(|(l, r)| format!("{l}={r}")).collect();
            ks.join(", ")
        };
        let desc = match &node.op {
            Operator::Source { name, schema } => format!("Source `{name}` {schema}"),
            Operator::GroupInput { .. } => "GroupInput".to_string(),
            Operator::Filter { predicate } => format!("Filter {predicate}"),
            Operator::Project { exprs } => {
                let cols: Vec<String> = exprs.iter().map(|(n, e)| format!("{n}={e}")).collect();
                format!("Project [{}]", cols.join(", "))
            }
            Operator::AlterLifetime { op } => format!("AlterLifetime {}", lifetime_desc(op)),
            Operator::FusedFragment { steps } => {
                let descs: Vec<String> = steps.iter().map(step_desc).collect();
                format!("FusedFragment [{}]", descs.join("; "))
            }
            Operator::Aggregate { aggs } => {
                let cols: Vec<String> = aggs.iter().map(|(n, a)| format!("{n}={a}")).collect();
                format!("Aggregate [{}]", cols.join(", "))
            }
            Operator::GroupApply { keys, .. } => format!("GroupApply ({})", keys.join(", ")),
            Operator::Union => "Union".to_string(),
            Operator::TemporalJoin { keys, residual } => match residual {
                Some(res) => format!("TemporalJoin ({}) where {res}", pairs(keys)),
                None => format!("TemporalJoin ({})", pairs(keys)),
            },
            Operator::AntiSemiJoin { keys } => format!("AntiSemiJoin ({})", pairs(keys)),
            Operator::HopUdo { hop, width, udo } => {
                format!("HopUdo `{}` h={hop} w={width}", udo.name())
            }
            Operator::SpreadGrid { grid } => format!("SpreadGrid g={grid}"),
        };
        let how = match (self.over_groups, node.op.segmented()) {
            (None, _) => "",
            (Some(OverGroups::Pane), _) => " [pane]",
            (Some(OverGroups::Runs), true) => " [segmented]",
            (Some(OverGroups::Runs), false) => " [per-run]",
        };
        writeln!(f, "{pad}{desc}{how}")?;
        if let Operator::GroupApply { subplan, .. } = &node.op {
            // Render the sub-plan indented one extra level.
            let pane = hopping_aggregate(subplan).is_some_and(|s| s.pane_grid().is_some());
            let rendered = Rendered {
                plan: subplan,
                over_groups: Some(if pane {
                    OverGroups::Pane
                } else {
                    OverGroups::Runs
                }),
            }
            .to_string();
            for line in rendered.lines() {
                writeln!(f, "{pad}  | {line}")?;
            }
        }
        for &input in &node.inputs {
            self.fmt_node(input, indent + 1, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::{col, lit};
    use crate::plan::Query;
    use relation::schema::{ColumnType, Field};
    use relation::Schema;

    #[test]
    fn display_renders_all_operators() {
        let schema = Schema::timestamped(vec![
            Field::new("StreamId", ColumnType::Int),
            Field::new("UserId", ColumnType::Str),
        ]);
        let q = Query::new();
        let input = q.source("in", schema);
        let bots = input.clone().group_apply(&["UserId"], |g| {
            g.filter(col("StreamId").eq(lit(1))).window(100).count("N")
        });
        let out = input.anti_semi_join(bots, &[("UserId", "UserId")]);
        let plan = q.build(vec![out]).unwrap();
        let text = plan.to_string();
        for needle in [
            "AntiSemiJoin",
            "GroupApply (UserId)",
            "Filter (StreamId = 1)",
            "Window w=100",
            "Aggregate [N=COUNT()]",
            "Source `in`",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn sub_plan_nodes_say_how_they_run_over_the_groups() {
        let schema = Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("Ad", ColumnType::Str),
        ]);
        let q = Query::new();
        let out = q.source("in", schema).group_apply(&["UserId"], |g| {
            let counts = g.clone().window(10).count("N");
            let per_ad = g.group_apply(&["Ad"], |a| a.window(5).count("M"));
            counts.temporal_join(per_ad, &[], None)
        });
        let text = q.build(vec![out]).unwrap().to_string();
        for needle in [
            "Source `in` (UserId:str, Ad:str)\n",
            "GroupApply (UserId)\n",
            "|   TemporalJoin () [per-run]\n",
            "|     Aggregate [N=COUNT()] [segmented]\n",
            "|         GroupInput [segmented]\n",
            // A nested GroupApply is one call per outer run; inside each
            // call its own sub-plan is segmented again.
            "|     GroupApply (Ad) [per-run]\n",
            "|       |   Aggregate [M=COUNT()] [segmented]\n",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn a_pane_aggregate_sub_plan_is_marked_whole() {
        use crate::agg::AggExpr;
        let schema = Schema::new(vec![
            Field::new("UserId", ColumnType::Str),
            Field::new("V", ColumnType::Long),
        ]);
        let render = |hop, width, agg: AggExpr| {
            let q = Query::new();
            let out = q
                .source("in", schema.clone())
                .group_apply(&["UserId"], |g| {
                    g.hop_window(hop, width).aggregate(vec![("X".into(), agg)])
                });
            q.build(vec![out]).unwrap().to_string()
        };
        // Tumbling cells of a combinable aggregate: the kernel takes the
        // whole sub-plan, fused or not.
        let text = render(10, 10, AggExpr::Sum(col("V")));
        for needle in [
            "|   Aggregate [X=SUM(V)] [pane]\n",
            "|     AlterLifetime HopWindow h=10 w=10 [pane]\n",
            "|       GroupInput [pane]\n",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // A sliding hop or a non-combinable aggregate walks the runs.
        for text in [
            render(5, 10, AggExpr::Sum(col("V"))),
            render(10, 10, AggExpr::Avg(col("V"))),
        ] {
            assert!(!text.contains("[pane]"), "{text}");
            assert!(text.contains("Aggregate [X=") && text.contains("[segmented]"));
        }
    }
}
