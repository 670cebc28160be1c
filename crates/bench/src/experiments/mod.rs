//! The experiment implementations, one module per paper artifact.
//!
//! Every experiment consumes a shared [`Ctx`] (workload + lazily-computed
//! pipeline artifacts) and returns a printable report.

pub mod bots;
pub mod ex3;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod memlt;
pub mod rt_exp;

use crate::{Scale, Workload};
use bt::eval::split_by_time;
use bt::example::Example;
use bt::pipeline::{BtPipeline, KeywordScore, PipelineArtifacts};

/// Shared experiment context: one workload, one pipeline run.
pub struct Ctx {
    /// The workload (log + DFS + cluster).
    pub workload: Workload,
    artifacts: Option<PipelineArtifacts>,
    examples: Option<Vec<Example>>,
    scores: Option<Vec<KeywordScore>>,
}

impl Ctx {
    /// Build a context at `scale`.
    pub fn new(scale: Scale, seed: u64) -> Ctx {
        Ctx {
            workload: Workload::build(scale, seed),
            artifacts: None,
            examples: None,
            scores: None,
        }
    }

    /// Run (or reuse) the TiMR BT pipeline over the full log.
    pub fn artifacts(&mut self) -> &PipelineArtifacts {
        if self.artifacts.is_none() {
            let pipeline = BtPipeline::new(self.workload.bt_params());
            let artifacts = pipeline
                .run(&self.workload.dfs, &self.workload.cluster, "logs", "bt")
                .expect("pipeline run");
            self.artifacts = Some(artifacts);
        }
        self.artifacts.as_ref().expect("just set")
    }

    /// Keyword z-scores from the full-log pipeline run.
    pub fn scores(&mut self) -> &[KeywordScore] {
        if self.scores.is_none() {
            let dataset = self.artifacts().scores.clone();
            let scores =
                BtPipeline::load_scores(&self.workload.dfs, &dataset).expect("load scores");
            self.scores = Some(scores);
        }
        self.scores.as_deref().expect("just set")
    }

    /// Labelled examples with sparse profiles from the full-log run.
    pub fn examples(&mut self) -> &[Example] {
        if self.examples.is_none() {
            let (labels, train_rows) = {
                let a = self.artifacts();
                (a.labels.clone(), a.train_rows.clone())
            };
            let examples = BtPipeline::load_examples(&self.workload.dfs, &labels, &train_rows)
                .expect("load examples");
            self.examples = Some(examples);
        }
        self.examples.as_deref().expect("just set")
    }

    /// 50/50 train/test split of the examples (paper §V-A).
    pub fn split(&mut self) -> (Vec<Example>, Vec<Example>) {
        let mid = {
            let log = &self.workload.log;
            let first = log.events.first().map(|e| e.time).unwrap_or(0);
            let last = log.events.last().map(|e| e.time).unwrap_or(0);
            first + (last - first) / 2
        };
        split_by_time(self.examples(), mid)
    }
}

/// One registered experiment.
pub struct Experiment {
    /// CLI name.
    pub name: &'static str,
    /// Paper artifact it regenerates.
    pub artifact: &'static str,
    /// Runner.
    pub run: fn(&mut Ctx) -> String,
}

/// All experiments in presentation order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig14",
            artifact: "Fig 14: development effort and processing time, TiMR vs custom reducers",
            run: fig14::run,
        },
        Experiment {
            name: "fig15",
            artifact: "Fig 15: per-machine DSMS event throughput per BT sub-query",
            run: fig15::run,
        },
        Experiment {
            name: "fig16",
            artifact: "Fig 16: temporal partitioning runtime vs span width",
            run: fig16::run,
        },
        Experiment {
            name: "ex3",
            artifact: "Example 3 / §V-B: fragment optimization (one vs two partitionings)",
            run: ex3::run,
        },
        Experiment {
            name: "fig17",
            artifact: "Figs 17-19: top ± keywords with z-scores per ad class",
            run: fig17::run,
        },
        Experiment {
            name: "fig20",
            artifact: "Fig 20: dimensionality reduction vs z threshold",
            run: fig20::run,
        },
        Experiment {
            name: "fig21",
            artifact: "Fig 21: keyword elimination and CTR lift over example subsets",
            run: fig21::run,
        },
        Experiment {
            name: "fig22",
            artifact: "Figs 22-23: CTR lift vs coverage per data-reduction scheme",
            run: fig22::run,
        },
        Experiment {
            name: "memlt",
            artifact: "§V-D: UBP memory and LR learning time per scheme",
            run: memlt::run,
        },
        Experiment {
            name: "bots",
            artifact: "§IV-B.1: bot user share vs bot activity share",
            run: bots::run,
        },
        Experiment {
            name: "rt",
            artifact: "§VII: real-time readiness — online output equals offline output",
            run: rt_exp::run,
        },
    ]
}
