//! Seeded request streams of the three workloads.
//!
//! Every input comes from the `--seed` argument through [`Rng`]; the
//! program under test only ever sees the generated programs and requests.

use mlo_benchmarks::{random_program, Benchmark, RandomProgramSpec};
use mlo_core::experiments::table3_trace_options;
use mlo_core::{EvaluationOptions, OptimizeRequest, SearchBudget};
use mlo_ir::Program;
use std::sync::Arc;

/// Node budget of `base` requests on `solve-mix`: enough for a real search
/// on every paper program, small enough that four of the five hit it and
/// fall back to the heuristic (the fallback `fallback_ratio` shows).
const BASE_NODE_BUDGET: u64 = 20_000;

/// Distinct request seeds per (program, strategy) class on `solve-mix`.
/// Only the base scheme's random orderings depend on the seed; several
/// seeds per class smooth its latency distribution so that `request_ms_p90`
/// (which falls among the base requests) does not hinge on one ordering.
const SOLVE_MIX_SEEDS_PER_CLASS: usize = 8;

/// How many times a (program, strategy) request appears per round.
///
/// The weights keep `solve-mix`'s percentiles inside blocks of classes
/// that do the same work, away from edges where the latency jumps (the
/// traced run prints the class table that shows this):
///
/// * p90: with one copy each it sat 1.5% of the requests from the edge
///   between Med-Im04 base (8 ms) and Track base (10.5 ms).  Track and
///   Radar base agree within 2%; two copies of each put p90 7% inside
///   their block.
/// * p50: it fell in a run of classes 3.7% wide each, 1.7% from the 16%
///   edge between Track enhanced and Radar enhanced.  Track enhanced and
///   Track portfolio-steal do identical work (the steal strategy's
///   sequential probe is the enhanced scheme and settles Track within its
///   budget); two copies of each put p50 5% inside their block.
fn copies(workload: Workload, program: &str, strategy: &str) -> usize {
    match (workload, program, strategy) {
        (Workload::SolveMix, "Track" | "Radar", "base") => 2,
        (Workload::SolveMix, "Track", "enhanced" | "portfolio-steal") => 2,
        _ => 1,
    }
}

/// Rounds of `service-churn` whose replies feed the deterministic metrics:
/// 16 rounds hold 480 never-seen programs, enough to keep the share of
/// satisfiable ones (and so `fallback_ratio`) steady across seeds.
const CHURN_DETERMINISTIC_ROUNDS: usize = 16;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, warm session, no evaluation: Table 2's path.
    SolveMix,
    /// One client, warm session, inline cache simulation: Table 3's path.
    Table3Eval,
    /// Two requests in flight through the service; half never-seen programs.
    ServiceChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "solve-mix" => Some(Workload::SolveMix),
            "table3-eval" => Some(Workload::Table3Eval),
            "service-churn" => Some(Workload::ServiceChurn),
            _ => None,
        }
    }

    /// Rounds of the stream per window.  Timed blocks end on window
    /// boundaries.  On `service-churn` the latency and throughput metrics
    /// come from a run's fastest windows; a window is whole rounds, so every
    /// window holds the same mix of requests and picking fast windows does
    /// not pick easy requests.  On the other two, whole rounds give every
    /// distinct request the same number of replies per copy.
    pub fn window_rounds(self) -> usize {
        match self {
            // 232 requests, about 0.6 s.
            Workload::SolveMix => 1,
            // 15 requests, about 1.6 s.
            Workload::Table3Eval => 1,
            // 1,500 requests, about 0.8 s: enough never-seen programs per
            // window that their sizes average out.
            Workload::ServiceChurn => 25,
        }
    }

    /// Engine worker count: the engine default (2) except on `table3-eval`.
    pub fn parallelism(self) -> usize {
        match self {
            Workload::Table3Eval => 1,
            Workload::SolveMix | Workload::ServiceChurn => 2,
        }
    }
}

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// A row of the per-program table: one program (or the never-seen random
/// programs as a group) under one strategy.
#[derive(Debug, Clone)]
pub struct Class {
    pub program: String,
    pub strategy: &'static str,
}

/// One request: a program plus what to ask of it.
#[derive(Debug, Clone)]
pub struct Job {
    pub class: usize,
    /// Index into [`Stream::distinct`]; `None` for never-seen programs.
    pub distinct: Option<usize>,
    pub program: Arc<Program>,
    pub request: OptimizeRequest,
}

/// One unit the benchmark issues: a single request, or (on `service-churn`)
/// the same request submitted twice back to back so the service can
/// coalesce the duplicate.
#[derive(Debug, Clone)]
pub struct Op {
    pub job: Job,
    pub pair: bool,
}

impl Op {
    pub fn requests(&self) -> usize {
        if self.pair {
            2
        } else {
            1
        }
    }
}

/// A workload's endless, seeded request stream.
///
/// The stream is a sequence of rounds.  Each round holds every distinct
/// request once (as a pair on `service-churn`) in a fresh seeded order,
/// plus, on `service-churn`, as many never-seen programs as hot requests.
/// Fixed round contents keep the class mix, and so the percentiles, the
/// same for every seed.
#[derive(Debug)]
pub struct Stream {
    pub workload: Workload,
    pub classes: Vec<Class>,
    pub distinct: Vec<Job>,
    /// The distinct requests of one round, repeats included.
    round: Vec<usize>,
    /// Requests (not ops) in one round.
    round_requests: usize,
    /// Requests (not ops) whose replies define the deterministic metrics.
    pub deterministic_requests: usize,
    cold_class: Option<usize>,
    rng: Rng,
    pending: Vec<Option<usize>>,
    /// Never-seen programs issued so far.
    pub cold_issued: usize,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let (strategies, seeds_per_class): (&[&'static str], usize) = match workload {
            Workload::SolveMix => (
                &[
                    "heuristic",
                    "enhanced",
                    "weighted",
                    "portfolio-steal",
                    "base",
                ],
                SOLVE_MIX_SEEDS_PER_CLASS,
            ),
            Workload::Table3Eval | Workload::ServiceChurn => {
                (&["heuristic", "enhanced", "weighted"], 1)
            }
        };
        let mut classes = Vec::new();
        let mut distinct = Vec::new();
        let mut round = Vec::new();
        for benchmark in Benchmark::all() {
            let program = Arc::new(benchmark.program());
            for &strategy in strategies {
                let class = classes.len();
                classes.push(Class {
                    program: benchmark.name().to_string(),
                    strategy,
                });
                for _ in 0..seeds_per_class {
                    let mut request = OptimizeRequest::strategy(strategy)
                        .candidates(benchmark.candidate_options())
                        .seed(rng.next_u64());
                    if strategy == "base" {
                        request = request.with_budget(SearchBudget::new().nodes(BASE_NODE_BUDGET));
                    }
                    if workload == Workload::Table3Eval {
                        request = request
                            .evaluate(EvaluationOptions::date05().trace(table3_trace_options()));
                    }
                    let copies = copies(workload, benchmark.name(), strategy);
                    round.extend(std::iter::repeat_n(distinct.len(), copies));
                    distinct.push(Job {
                        class,
                        distinct: Some(distinct.len()),
                        program: Arc::clone(&program),
                        request,
                    });
                }
            }
        }
        let cold_class = (workload == Workload::ServiceChurn).then(|| {
            classes.push(Class {
                program: "random".to_string(),
                strategy: "weighted",
            });
            classes.len() - 1
        });
        let round_requests = match workload {
            Workload::ServiceChurn => 4 * round.len(),
            Workload::SolveMix | Workload::Table3Eval => round.len(),
        };
        let deterministic_rounds = match workload {
            Workload::ServiceChurn => CHURN_DETERMINISTIC_ROUNDS,
            Workload::SolveMix | Workload::Table3Eval => 1,
        };
        Stream {
            workload,
            classes,
            distinct,
            round,
            round_requests,
            deterministic_requests: round_requests * deterministic_rounds,
            cold_class,
            rng,
            pending: Vec::new(),
            cold_issued: 0,
        }
    }

    /// Requests in one window (see [`Workload::window_rounds`]).  Rounds,
    /// and so windows, begin and end on op boundaries.
    pub fn window_requests(&self) -> usize {
        self.round_requests * self.workload.window_rounds()
    }

    /// The next op of the stream.
    pub fn next_op(&mut self) -> Op {
        if self.pending.is_empty() {
            self.fill_round();
        }
        let pair = self.workload == Workload::ServiceChurn;
        match self.pending.pop().expect("a round is never empty") {
            Some(index) => Op {
                job: self.distinct[index].clone(),
                pair,
            },
            None => Op {
                job: self.cold_job(),
                pair: false,
            },
        }
    }

    /// Queues one round; `None` marks a never-seen program, generated only
    /// when its turn comes.
    fn fill_round(&mut self) {
        self.pending = self.round.iter().copied().map(Some).collect();
        if self.workload == Workload::ServiceChurn {
            // One never-seen program per hot request (two per hot pair), so
            // half of all requests are cold.
            self.pending
                .extend(std::iter::repeat_n(None, 2 * self.round.len()));
        }
        self.rng.shuffle(&mut self.pending);
    }

    /// A never-seen random program: arrays 6–20, nests 4–12, reads 1–2.
    fn cold_job(&mut self) -> Job {
        self.cold_issued += 1;
        let spec = RandomProgramSpec {
            arrays: self.rng.range(6, 20),
            nests: self.rng.range(4, 12),
            extent: 32,
            reads_per_nest: self.rng.range(1, 2),
            seed: self.rng.next_u64(),
        };
        Job {
            class: self
                .cold_class
                .expect("only service-churn has cold programs"),
            distinct: None,
            program: Arc::new(random_program(&spec)),
            request: OptimizeRequest::strategy("weighted").seed(self.rng.next_u64()),
        }
    }
}
