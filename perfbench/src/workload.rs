//! The three workloads: seeded inputs, their serial oracles, and one
//! checked operation per public parqp entry point.
//!
//! An operation's timed region is [`Op::execute`]; everything that
//! inspects its output ([`Op::settle`]) runs after the clock stops.

use parqp::data::paged::IoStats;
use parqp::data::{generate, Relation};
use parqp::join::JoinRun;
use parqp::matmul::{square_block, Matrix};
use parqp::mpc::exec::ExecMode;
use parqp::mpc::{Cluster, LoadReport};
use parqp::pipeline::{aggregate_oracle, run_aggregate, Agg, AggregateQuery};
use parqp::planner;
use parqp::query::{evaluate, parse_query, Query};
use parqp::serve::{replay, replay_observed, ServeConfig, ServeReport};
use parqp_testkit::bench::time_ns;
use parqp_testkit::rng::splitmix64;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["bigjoin", "mix", "serve"];

/// The per-layer metrics that time one `mix` item each.
pub const ITEM_LAYERS: [&str; 7] = [
    "join.hypercube_ms",
    "join.skewhc_ms",
    "join.gym_ms",
    "join.hypercube_chain_ms",
    "pipeline.aggregate_ms",
    "sort.psrs_ms",
    "matmul.square_ms",
];

/// Sessions one `serve` pass cycles through. Each session's schedule
/// is a Zipf draw, so single sessions differ by up to ±15% in load;
/// a pass of many keeps the per-pass sums steady across seeds.
const SERVE_SESSIONS: u64 = 16;

/// Tick width of the windows `replay_observed` folds a session into.
const OBS_WINDOW_TICKS: u64 = 10;

/// A workload: the operations of one pass and how to run them.
pub struct Workload {
    /// Execution mode of the end-to-end run.
    pub mode: ExecMode,
    /// One pass, run round-robin in this order.
    pub ops: Vec<Op>,
    /// Operations run (and checked) as warm-up before timing.
    pub warmup: usize,
}

/// Time spent building a workload, by set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Input generation.
    pub generate_ns: u64,
    /// Serial oracle answers.
    pub oracle_ns: u64,
}

/// One checked call into parqp.
pub struct Op {
    /// Per-layer metric that reports this operation's own time, if any.
    pub layer: Option<&'static str>,
    task: Task,
    expected: Expected,
}

enum Task {
    Join {
        query: Query,
        rels: Vec<Relation>,
        p: usize,
        seed: u64,
    },
    Aggregate {
        aq: AggregateQuery,
        rels: Vec<Relation>,
        p: usize,
        seed: u64,
    },
    Sort {
        keys: Vec<u64>,
        p: usize,
    },
    Square {
        a: Matrix,
        b: Matrix,
        blocks: usize,
        p: usize,
    },
    Session(ServeConfig),
}

enum Expected {
    /// The canonical (sorted, deduplicated) result rows.
    Rows(Relation),
    /// All keys in ascending order.
    Sorted(Vec<u64>),
    /// The exact product (integer entries, so no rounding).
    Product(Matrix),
    /// Per-query output digests of the cache-off replay.
    Digests(Vec<u64>),
}

/// What an operation returns inside the timed region.
pub enum Output {
    /// Per-server result fragments.
    Parts(Vec<Relation>, LoadReport),
    /// Per-server sorted runs.
    Runs(Vec<Vec<u64>>, LoadReport),
    /// The product matrix.
    Product(Matrix, LoadReport),
    /// A served session.
    Session(Box<ServeReport>),
}

/// An executed operation: its output and, when it planned, the clock
/// readings around `planner::plan`.
pub struct Executed {
    pub output: Output,
    pub plan: Option<(u64, u64)>,
}

/// Communication in the paper's units, summed over queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Comm {
    /// Σ per-query load `L` (max tuples any server received in a round).
    pub load: u64,
    /// Σ rounds.
    pub rounds: u64,
    /// Σ tuples communicated.
    pub tuples: u64,
    /// Σ words communicated.
    pub words: u64,
}

impl Comm {
    fn of(report: &LoadReport) -> Comm {
        Comm {
            load: report.max_load_tuples(),
            rounds: report.num_rounds() as u64,
            tuples: report.total_tuples(),
            words: report.total_words(),
        }
    }

    pub fn add(&mut self, other: Comm) {
        self.load += other.load;
        self.rounds += other.rounds;
        self.tuples += other.tuples;
        self.words += other.words;
    }
}

/// Serving-layer counters of one session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    pub hits: u64,
    pub lookups: u64,
    pub evictions: u64,
    pub reads_saved: u64,
    pub io: IoStats,
    /// Worst per-round max/mean receive load of the session.
    pub skew_ratio: f64,
    /// Measured over announced load, if the session announced a bound.
    pub bound_ratio: Option<f64>,
}

/// A checked operation.
pub struct Settled {
    pub correct: bool,
    pub queries: u64,
    pub comm: Comm,
    pub session: Option<SessionStats>,
}

impl Op {
    fn new(layer: Option<&'static str>, task: Task, expected: Expected) -> Op {
        Op {
            layer,
            task,
            expected,
        }
    }

    /// Whether this operation is a serving session.
    pub fn is_session(&self) -> bool {
        matches!(self.task, Task::Session(_))
    }

    /// Run the operation. `observed` selects `replay_observed` over
    /// `replay` for sessions and is ignored otherwise.
    pub fn execute(&self, observed: bool) -> Result<Executed, String> {
        let (output, plan) = match &self.task {
            Task::Join {
                query,
                rels,
                p,
                seed,
            } => {
                let begin = time_ns();
                let decision = planner::plan(query, rels, *p);
                let end = time_ns();
                let JoinRun { outputs, report } =
                    planner::run_plan(query, rels, *p, *seed, &decision.strategy);
                (Output::Parts(outputs, report), Some((begin, end)))
            }
            Task::Aggregate { aq, rels, p, seed } => {
                let run = run_aggregate(aq, rels, *p, *seed);
                (Output::Parts(run.outputs, run.report), None)
            }
            Task::Sort { keys, p } => {
                let mut cluster = Cluster::new(*p);
                let local = cluster.scatter(keys.clone());
                let runs = parqp::sort::psrs(&mut cluster, local);
                (Output::Runs(runs, cluster.report()), None)
            }
            Task::Square { a, b, blocks, p } => {
                let run = square_block(a, b, *blocks, *p);
                (Output::Product(run.c, run.report), None)
            }
            Task::Session(cfg) => {
                let report = if observed {
                    replay_observed(cfg, OBS_WINDOW_TICKS)?.0
                } else {
                    replay(cfg)?
                };
                (Output::Session(Box::new(report)), None)
            }
        };
        Ok(Executed { output, plan })
    }

    /// Check `output` against the oracle and read its ledgers.
    pub fn settle(&self, output: &Output) -> Settled {
        let (correct, queries, comm, session) = match (output, &self.expected) {
            (Output::Parts(parts, report), Expected::Rows(want)) => {
                let ok = parts.iter().all(|part| part.arity() == want.arity()) && {
                    let mut got = Relation::new(want.arity());
                    for part in parts {
                        got.extend_from(part);
                    }
                    got.canonical() == *want
                };
                (ok, 1, Comm::of(report), None)
            }
            (Output::Runs(runs, report), Expected::Sorted(want)) => {
                let ok = runs.iter().map(Vec::len).sum::<usize>() == want.len()
                    && runs.iter().flatten().eq(want.iter());
                (ok, 1, Comm::of(report), None)
            }
            (Output::Product(c, report), Expected::Product(want)) => (
                c.n() == want.n() && c.max_abs_diff(want) == 0.0,
                1,
                Comm::of(report),
                None,
            ),
            (Output::Session(report), Expected::Digests(want)) => {
                let ok = report.records.len() == want.len()
                    && report.records.iter().zip(want).all(|(r, &d)| r.digest == d);
                let mut comm = Comm::default();
                for r in &report.records {
                    comm.add(Comm {
                        load: r.l,
                        rounds: r.rounds,
                        tuples: r.tuples,
                        words: r.words,
                    });
                }
                let stats = SessionStats {
                    hits: report.cache.hits,
                    lookups: report.cache.hits + report.cache.misses,
                    evictions: report.cache.evictions,
                    reads_saved: report.cache.reads_saved,
                    io: report.io,
                    skew_ratio: report.registry.max_skew_ratio(),
                    bound_ratio: report.registry.bound_ratio(),
                };
                (ok, report.records.len() as u64, comm, Some(stats))
            }
            _ => (false, 0, Comm::default(), None),
        };
        Settled {
            correct,
            queries,
            comm,
            session,
        }
    }
}

/// Build the named workload's inputs and oracles from `seed`.
pub fn build(name: &str, seed: u64) -> Result<(Workload, SetupCost), String> {
    match name {
        "bigjoin" => Ok(bigjoin(seed)),
        "mix" => Ok(mix(seed)),
        "serve" => serve(seed),
        other => Err(format!(
            "unknown workload {other:?}; known: {}",
            NAMES.join(", ")
        )),
    }
}

fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let begin = time_ns();
    let r = f();
    *acc += time_ns() - begin;
    r
}

/// A join op whose oracle is the serial evaluator.
fn join_op(
    cost: &mut SetupCost,
    layer: Option<&'static str>,
    query: Query,
    rels: Vec<Relation>,
    p: usize,
    seed: u64,
) -> Op {
    let want = timed(&mut cost.oracle_ns, || evaluate(&query, &rels).canonical());
    Op::new(
        layer,
        Task::Join {
            query,
            rels,
            p,
            seed,
        },
        Expected::Rows(want),
    )
}

/// One skew-free two-way join `R(a,b) ⋈ S(b,c)`, IN = 320k on p = 8,
/// with two worker threads.
fn bigjoin(seed: u64) -> (Workload, SetupCost) {
    let mut cost = SetupCost::default();
    let rels = timed(&mut cost.generate_ns, || {
        vec![
            generate::uniform(2, 160_000, 80_000, seed),
            generate::uniform(2, 160_000, 80_000, seed.wrapping_add(1)),
        ]
    });
    let op = join_op(&mut cost, None, Query::two_way(), rels, 8, seed);
    let workload = Workload {
        mode: ExecMode::Parallel { workers: 2 },
        ops: vec![op],
        warmup: 1,
    };
    (workload, cost)
}

/// Seven small analytic operations on p = 27, run serially.
fn mix(seed: u64) -> (Workload, SetupCost) {
    const P: usize = 27;
    let s = |k: u64| seed.wrapping_add(k);
    let mut cost = SetupCost::default();
    let mut ops = Vec::new();

    let graph = timed(&mut cost.generate_ns, || {
        generate::uniform(2, 7_000, 2_000, s(0))
    });
    ops.push(join_op(
        &mut cost,
        Some("join.hypercube_ms"),
        Query::triangle(),
        vec![graph.clone(), graph.clone(), graph],
        P,
        seed,
    ));

    let zipf: Vec<Relation> = timed(&mut cost.generate_ns, || {
        (0..3)
            .map(|i| generate::zipf_pairs(6_000, 400, 1.1, 0, s(10 + i)))
            .collect()
    });
    ops.push(join_op(
        &mut cost,
        Some("join.skewhc_ms"),
        Query::triangle(),
        zipf,
        P,
        seed,
    ));

    let sparse: Vec<Relation> = timed(&mut cost.generate_ns, || {
        (0..3)
            .map(|i| generate::key_unique_pairs(6_000, usize::from(i == 0), 6_000, s(20 + i)))
            .collect()
    });
    ops.push(join_op(
        &mut cost,
        Some("join.gym_ms"),
        Query::chain(3),
        sparse,
        P,
        seed,
    ));

    let dense: Vec<Relation> = timed(&mut cost.generate_ns, || {
        (0..3)
            .map(|i| generate::uniform(2, 2_000, 250, s(30 + i)))
            .collect()
    });
    ops.push(join_op(
        &mut cost,
        Some("join.hypercube_chain_ms"),
        Query::chain(3),
        dense,
        P,
        seed,
    ));

    // SELECT region, SUM(prodkey) FROM Orders ⋈ Customers GROUP BY region.
    let (orders, customers, _) = timed(&mut cost.generate_ns, || {
        generate::warehouse(100_000, 5_000, 1_000, 0.5, s(40))
    });
    let join = parse_query("Orders(c, k), Customers(c, r)").expect("valid query");
    let aq = AggregateQuery::new(join, vec![2], Agg::Sum(1));
    let rels = vec![orders, customers];
    let want = timed(&mut cost.oracle_ns, || {
        aggregate_oracle(&aq, &rels).canonical()
    });
    ops.push(Op::new(
        Some("pipeline.aggregate_ms"),
        Task::Aggregate {
            aq,
            rels,
            p: P,
            seed,
        },
        Expected::Rows(want),
    ));

    let keys: Vec<u64> = timed(&mut cost.generate_ns, || {
        generate::uniform(1, 200_000, 1 << 32, s(50))
            .iter()
            .map(|row| row[0])
            .collect()
    });
    let want = timed(&mut cost.oracle_ns, || {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted
    });
    ops.push(Op::new(
        Some("sort.psrs_ms"),
        Task::Sort { keys, p: P },
        Expected::Sorted(want),
    ));

    let (a, b) = timed(&mut cost.generate_ns, || {
        (
            Matrix::random_int(216, 9, s(60)),
            Matrix::random_int(216, 9, s(61)),
        )
    });
    let want = timed(&mut cost.oracle_ns, || a.multiply(&b));
    ops.push(Op::new(
        Some("matmul.square_ms"),
        Task::Square {
            a,
            b,
            blocks: 3,
            p: P,
        },
        Expected::Product(want),
    ));

    let warmup = ops.len();
    let workload = Workload {
        mode: ExecMode::Serial,
        ops,
        warmup,
    };
    (workload, cost)
}

/// Serving sessions on p = 8 whose working set exceeds the plan cache.
fn serve(seed: u64) -> Result<(Workload, SetupCost), String> {
    let mut cost = SetupCost::default();
    let mut state = seed;
    let mut ops = Vec::new();
    for _ in 0..SERVE_SESSIONS {
        let cfg = ServeConfig {
            servers: 8,
            tenants: 4,
            templates: 3,
            groups: 12,
            ticks: 120,
            seed: splitmix64(&mut state),
            cache_budget: 30_000,
            ..ServeConfig::default()
        };
        let arrivals = timed(&mut cost.generate_ns, || parqp::serve::schedule(&cfg).len());
        let want: Vec<u64> = timed(&mut cost.oracle_ns, || {
            replay(&ServeConfig {
                cache_budget: 0,
                ..cfg.clone()
            })
            .map(|off| off.records.iter().map(|r| r.digest).collect())
        })?;
        if want.len() != arrivals {
            return Err(format!(
                "serve: cache-off replay served {} of {arrivals} arrivals",
                want.len()
            ));
        }
        ops.push(Op::new(None, Task::Session(cfg), Expected::Digests(want)));
    }
    let workload = Workload {
        mode: ExecMode::Serial,
        ops,
        warmup: 1,
    };
    Ok((workload, cost))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_items_report_under_the_listed_layers() {
        let (w, _) = mix(1);
        let layers: Vec<&str> = w.ops.iter().filter_map(|op| op.layer).collect();
        assert_eq!(layers, ITEM_LAYERS);
    }
}
