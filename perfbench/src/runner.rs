//! Drives one workload through the program's public API: set-up, the timed
//! closed loop (optionally traced), and the output checks.

use crate::stream::{Job, Op, Rng, Stream, Workload};
use crate::trace::{Tracer, SETUP};
use mlo_cachesim::{MachineConfig, SimulationReport, Simulator, TraceGenerator, TraceOptions};
use mlo_core::experiments::table3_trace_options;
use mlo_core::{Engine, OptimizeReport, PreparedProgram, Session};
use mlo_csp::{Assignment, SearchStats};
use mlo_ir::Program;
use mlo_layout::{LayoutAssignment, WeightOptions};
use mlo_service::{MloService, ServiceConfig, ServiceStats, SharedResult};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients on `service-churn`.  Each keeps one op (a single
/// request or a duplicate pair) in flight and blocks on its own reply, so
/// completion times are exact; two match the session's two workers.
const SERVICE_CLIENTS: usize = 2;

/// Never-seen programs one `service-churn` session serves before the
/// benchmark replaces it.  The session keeps every program it has seen
/// (about 40 KB each), so without epochs the peak resident set would grow
/// with the requests a run completes: a faster service would read as a
/// memory regression (over 1 GB in a 30 s run on a 2-core machine).  With
/// epochs the peak is about two epochs' worth (the previous service is
/// dropped only at the next boundary) whatever the throughput.
const EPOCH_COLD: usize = 4_000;

/// Service replies re-checked against a direct call on a fresh session.
const DIRECT_SAMPLE: usize = 24;

/// One latency sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: usize,
    /// The distinct request (`None` for a never-seen program).
    pub distinct: Option<usize>,
    /// Place of the request in the stream.
    pub position: usize,
    /// Index of the timed block it was answered in.
    pub block: usize,
    pub ms: f64,
    pub traced: bool,
    /// When the reply arrived.
    pub end: Instant,
}

/// A reply kept for the deterministic metrics and the checks.
#[derive(Debug)]
pub struct Reply {
    pub job: Job,
    pub report: OptimizeReport,
    pub simulation: Option<SimulationReport>,
}

/// Wall time and request count of one timed block.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub traced: bool,
    pub start: Instant,
    pub requests: usize,
    pub wall: Duration,
    /// Wall time the block spent on the traced run's side work (the lookup
    /// timed beside each request, the separate trace generation), which no
    /// untraced request does.
    pub side_work: Duration,
}

/// Where one traced request's wall time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    pub wall: Duration,
    pub layout: Duration,
    pub solution: Duration,
    pub heuristic: bool,
    pub simulate: Duration,
    /// The lookup timed beside the request, standing for the one the
    /// request repeats inside the core.
    pub lookup: Duration,
    /// The core or service call around the solve.
    pub call: Duration,
    /// Search nodes of the solve (0 for the heuristic).
    pub nodes: u64,
    /// Accesses the simulate span replayed.
    pub accesses: u64,
}

impl Attribution {
    /// Time inside the request covered by a layer span: the prepared stages,
    /// the core or service call (the solve plus the layer's own time around
    /// it) and the simulation.
    pub fn covered(&self) -> Duration {
        (self.layout + self.call + self.simulate).min(self.wall)
    }
}

/// What the per-reply checks compare against.
struct Context<'a> {
    reference: &'a [OptimizeReport],
    deterministic_requests: usize,
}

/// Everything recorded about answered requests.  Each service client fills
/// its own recorder; they are merged when the clients end.
#[derive(Debug)]
pub struct Recorder {
    pub tracer: Option<Tracer>,
    pub samples: Vec<Sample>,
    pub deterministic: Vec<Reply>,
    pub attributions: Vec<Attribution>,
    /// (warm lookups, all lookups) of traced requests.
    pub lookups: (u64, u64),
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Distinct requests whose search counters changed between replies.
    pub unstable: HashSet<usize>,
    /// Time spent on side work of traced requests (see [`Block::side_work`]).
    pub side_work: Duration,
    direct_sample: Vec<(Job, OptimizeReport)>,
    sample_rng: Rng,
    recording: bool,
    /// Index of the timed block being recorded.
    block: usize,
}

impl Recorder {
    fn new(tracer: Option<Tracer>, sample_seed: u64) -> Self {
        Recorder {
            tracer,
            samples: Vec::new(),
            deterministic: Vec::new(),
            attributions: Vec::new(),
            lookups: (0, 0),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            unstable: HashSet::new(),
            side_work: Duration::ZERO,
            direct_sample: Vec::new(),
            sample_rng: Rng::new(sample_seed),
            recording: true,
            block: 0,
        }
    }

    fn child(&mut self) -> Self {
        let mut child = Recorder::new(
            self.tracer.as_ref().map(Tracer::child),
            self.sample_rng.next_u64(),
        );
        child.recording = self.recording;
        child.block = self.block;
        child
    }

    fn merge(&mut self, child: Recorder) {
        if let (Some(tracer), Some(spans)) = (self.tracer.as_mut(), child.tracer) {
            tracer.merge(spans);
        }
        self.samples.extend(child.samples);
        self.deterministic.extend(child.deterministic);
        self.attributions.extend(child.attributions);
        self.lookups.0 += child.lookups.0;
        self.lookups.1 += child.lookups.1;
        self.attempted += child.attempted;
        self.failed += child.failed;
        for violation in child.violations {
            self.violation(violation);
        }
        self.unstable.extend(child.unstable);
        self.side_work += child.side_work;
        let room = DIRECT_SAMPLE.saturating_sub(self.direct_sample.len());
        self.direct_sample
            .extend(child.direct_sample.into_iter().take(room));
    }

    fn tracer(&mut self) -> &mut Tracer {
        self.tracer
            .as_mut()
            .expect("traced blocks run with a tracer")
    }

    fn attempt(&mut self) {
        self.attempted += u64::from(self.recording);
    }

    /// Records one answered request and runs the per-reply checks.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        ctx: &Context,
        job: Job,
        position: usize,
        wall: Duration,
        traced: bool,
        result: Result<OptimizeReport, String>,
        simulation: Option<SimulationReport>,
    ) {
        let report = match result {
            Ok(report) => report,
            Err(error) => {
                self.fail(format!(
                    "{} / {}: {error}",
                    job.program.name(),
                    job.request.strategy
                ));
                return;
            }
        };
        if self.recording {
            self.samples.push(Sample {
                class: job.class,
                distinct: job.distinct,
                position,
                block: self.block,
                ms: wall.as_secs_f64() * 1e3,
                traced,
                end: Instant::now(),
            });
        }
        let name = format!("{} / {}", job.program.name(), job.request.strategy);
        if let Some(missing) = uncovered_array(&job.program, &report.assignment) {
            self.violation(format!("{name}: no layout for array {missing}"));
        }
        if let Some(index) = job.distinct {
            let reference = &ctx.reference[index];
            if report.assignment != reference.assignment || report.fallback != reference.fallback {
                self.violation(format!("{name}: answer differs from the set-up pass"));
            }
            if let (Some(simulated), Some(expected)) = (&simulation, &reference.evaluation) {
                if simulated.total_cycles != expected.total_cycles {
                    self.violation(format!(
                        "{name}: {} simulated cycles, set-up pass had {}",
                        simulated.total_cycles, expected.total_cycles
                    ));
                }
            }
            if counters(&report.search_stats) != counters(&reference.search_stats) {
                self.unstable.insert(index);
            }
        } else if self.direct_sample.len() < DIRECT_SAMPLE
            && self.sample_rng.next_u64().is_multiple_of(16)
        {
            self.direct_sample.push((job.clone(), report.clone()));
        }
        if position < ctx.deterministic_requests {
            self.deterministic.push(Reply {
                job,
                report,
                simulation,
            });
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += u64::from(self.recording);
        self.violation(message);
    }

    pub fn violation(&mut self, message: String) {
        if self.violations.len() < 20 {
            self.violations.push(message);
        }
    }
}

pub struct Bench {
    pub workload: Workload,
    pub stream: Stream,
    pub session: Session,
    pub service: Option<MloService>,
    /// The set-up pass's reply to every distinct request.
    pub reference: Vec<OptimizeReport>,
    pub setup_seconds: Vec<f64>,
    pub rec: Recorder,
    /// Service counters summed over the timed blocks.
    pub service_stats: ServiceStats,
    /// The current service's counters when counting last caught up.
    stats_base: ServiceStats,
    /// Prepared-map entries of the current session when the last timed
    /// block ended (later checks may add entries of their own).
    pub prepared_programs: usize,
    /// The last set-up made between blocks, dropped at the next one (long
    /// after its last reply): dropping a service right after its last reply
    /// can leave the final reference to its worker pool inside a pool
    /// worker, whose drop then tries to join itself.
    spare: Option<(Session, Option<MloService>)>,
    /// The previous `service-churn` epoch, dropped at the next boundary
    /// for the same reason.
    previous_epoch: Option<(Session, Option<MloService>)>,
    /// Cold-program count at which the current epoch ends.
    epoch_end: usize,
    position: usize,
    /// Timed blocks run so far.
    blocks_run: usize,
}

impl Bench {
    /// Generates the stream and sets the workload up once (timed).
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Bench {
        let stream = Stream::new(workload, seed);
        let mut tracer = traced.then(Tracer::new);
        let start = Instant::now();
        let (session, service, reference) = setup(workload, &stream, tracer.as_mut());
        let setup_seconds = vec![start.elapsed().as_secs_f64()];
        Bench {
            workload,
            stream,
            session,
            service,
            reference,
            setup_seconds,
            rec: Recorder::new(tracer, !seed),
            service_stats: ServiceStats::default(),
            stats_base: ServiceStats::default(),
            prepared_programs: 0,
            spare: None,
            previous_epoch: None,
            epoch_end: EPOCH_COLD,
            position: 0,
            blocks_run: 0,
        }
    }

    /// Sets the workload up again from scratch (timed, between timed
    /// blocks) and checks its answers.  The stream goes on with the set-up
    /// it ran on, so `service-churn`'s epochs, and with them its peak
    /// memory, do not depend on when the blocks end.
    pub fn set_up_again(&mut self) {
        let start = Instant::now();
        let (session, service, reference) =
            setup(self.workload, &self.stream, self.rec.tracer.as_mut());
        self.setup_seconds.push(start.elapsed().as_secs_f64());
        self.check_setup(&reference);
        self.spare = Some((session, service));
    }

    /// Runs the closed loop for `duration`, traced or not, and then on to
    /// the end of the current window, so that every window lies in one
    /// block.
    pub fn timed_block(&mut self, duration: Duration, traced: bool) -> Block {
        let before = self.rec.samples.len();
        let side_before = self.rec.side_work;
        self.rec.block = self.blocks_run;
        self.blocks_run += 1;
        self.stats_base = self.service_counters();
        let start = Instant::now();
        let deadline = start + duration;
        let window = self.stream.window_requests();
        self.run_until(Some(deadline), traced);
        while Instant::now() < deadline || !self.position.is_multiple_of(window) {
            self.next_epoch();
            self.run_until(Some(deadline), traced);
        }
        let wall = start.elapsed();
        self.count_service_stats();
        self.prepared_programs = self.session.prepared_programs();
        // Service clients do their side work in parallel, one per client.
        let clients = if self.service.is_some() {
            SERVICE_CLIENTS as u32
        } else {
            1
        };
        Block {
            traced,
            start,
            requests: self.rec.samples.len() - before,
            wall,
            side_work: (self.rec.side_work - side_before) / clients,
        }
    }

    /// The current service's counters (zero without a service).
    fn service_counters(&self) -> ServiceStats {
        self.service
            .as_ref()
            .map(MloService::stats)
            .unwrap_or_default()
    }

    /// Adds what the current service counted since `stats_base` to
    /// `service_stats` and moves the base up.
    fn count_service_stats(&mut self) {
        let (now, base) = (self.service_counters(), self.stats_base);
        let total = &mut self.service_stats;
        total.submitted += now.submitted - base.submitted;
        total.coalesced += now.coalesced - base.coalesced;
        total.shed += now.shed - base.shed;
        total.rejected += now.rejected - base.rejected;
        total.panicked += now.panicked - base.panicked;
        total.degraded += now.degraded - base.degraded;
        self.stats_base = now;
    }

    /// Serves, untimed, whatever part of the deterministic prefix of the
    /// stream the timed phase did not reach.
    pub fn finish_deterministic_prefix(&mut self) {
        self.rec.recording = false;
        self.run_until(None, false);
    }

    /// Issues ops until `deadline` has passed and a window is complete (or
    /// a `service-churn` epoch ends), or without a deadline until the
    /// deterministic prefix has been issued; returns once every issued op
    /// is answered.
    fn run_until(&mut self, deadline: Option<Instant>, traced: bool) {
        let ctx = Context {
            reference: &self.reference,
            deterministic_requests: self.stream.deterministic_requests,
        };
        let epoch_end = self.epoch_end;
        let window = self.stream.window_requests();
        let open = |stream: &Stream, position: usize| match deadline {
            Some(deadline) => {
                (Instant::now() < deadline || !position.is_multiple_of(window))
                    && stream.cold_issued < epoch_end
            }
            None => position < ctx.deterministic_requests,
        };
        let Some(service) = &self.service else {
            while open(&self.stream, self.position) {
                let op = self.stream.next_op();
                serve_direct(
                    &self.session,
                    &ctx,
                    &mut self.rec,
                    op.job,
                    self.position,
                    traced,
                );
                self.position += 1;
            }
            return;
        };
        let children: Vec<Recorder> = (0..SERVICE_CLIENTS).map(|_| self.rec.child()).collect();
        let cursor = Mutex::new((&mut self.stream, &mut self.position));
        let children = std::thread::scope(|scope| {
            let clients: Vec<_> = children
                .into_iter()
                .map(|mut rec| {
                    let (cursor, ctx, open) = (&cursor, &ctx, &open);
                    scope.spawn(move || {
                        loop {
                            let (op, position) = {
                                let mut guard = cursor
                                    .lock()
                                    .expect("clients never panic holding the stream");
                                let (stream, position) = &mut *guard;
                                if !open(stream, **position) {
                                    break;
                                }
                                let op = stream.next_op();
                                let first = **position;
                                **position += op.requests();
                                (op, first)
                            };
                            serve_op(service, ctx, &mut rec, op, position, traced);
                        }
                        rec
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|client| client.join().expect("a service client panicked"))
                .collect::<Vec<_>>()
        });
        for child in children {
            self.rec.merge(child);
        }
    }

    /// Replaces the `service-churn` session and service with fresh ones,
    /// set up as at the start (inside the timed wall: about 30 ms).
    fn next_epoch(&mut self) {
        self.count_service_stats();
        let (session, service, reference) =
            setup(self.workload, &self.stream, self.rec.tracer.as_mut());
        self.check_setup(&reference);
        let session = std::mem::replace(&mut self.session, session);
        let service = std::mem::replace(&mut self.service, service);
        self.previous_epoch = Some((session, service));
        // The new service's set-up pass is not part of the timed phase.
        self.stats_base = self.service_counters();
        self.epoch_end = self.stream.cold_issued + EPOCH_COLD;
    }

    /// Flags a set-up whose answers differ from the first set-up's.
    fn check_setup(&mut self, reference: &[OptimizeReport]) {
        if reference
            .iter()
            .zip(&self.reference)
            .any(|(new, old)| new.assignment != old.assignment || new.fallback != old.fallback)
        {
            self.rec
                .violation("a later set-up's answers differ from the first".into());
        }
    }

    /// Post-run checks: hard-network satisfaction of every searched answer
    /// in the deterministic prefix, and (on `service-churn`) served replies
    /// against direct calls on a fresh session.
    pub fn final_checks(&mut self) {
        let mut messages = Vec::new();
        for reply in &self.rec.deterministic {
            let report = &reply.report;
            if report.fell_back() || report.network.is_none() {
                continue;
            }
            let prepared = self
                .session
                .prepared(&reply.job.program, &reply.job.request.candidates);
            if !satisfies_hard_network(&prepared, &reply.job.program, &report.assignment) {
                messages.push(format!(
                    "{} / {}: answer violates the hard constraint network",
                    reply.job.program.name(),
                    reply.job.request.strategy
                ));
            }
        }
        if self.service.is_some() {
            if self.rec.direct_sample.is_empty() {
                messages.push("no service reply was sampled for the direct check".into());
            }
            let fresh = Engine::builder()
                .parallelism(self.workload.parallelism())
                .build()
                .session();
            for (job, served) in &self.rec.direct_sample {
                match fresh.optimize(&job.program, &job.request) {
                    Ok(direct)
                        if direct.assignment == served.assignment
                            && direct.fallback == served.fallback
                            && direct.satisfiable == served.satisfiable => {}
                    Ok(_) => messages.push(format!(
                        "{}: served reply differs from a direct call",
                        job.program.name()
                    )),
                    Err(error) => messages.push(format!(
                        "{}: direct call failed: {error}",
                        job.program.name()
                    )),
                }
            }
        }
        for message in messages {
            self.rec.violation(message);
        }
    }

    /// Simulated reports of every distinct (program, layouts) pair among the
    /// deterministic prefix, under the Table 3 trace options.  Inline
    /// evaluations are reused; the others are simulated now, untimed.
    pub fn deterministic_simulations(&mut self) -> Vec<SimulationReport> {
        let simulator =
            Simulator::new(MachineConfig::date05()).trace_options(table3_trace_options());
        let mut seen = HashSet::new();
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for reply in &self.rec.deterministic {
            if !seen.insert(pair_key(&reply.job.program, &reply.report.assignment)) {
                continue;
            }
            match &reply.simulation {
                Some(report) => reports.push(report.clone()),
                None => match simulator.simulate(&reply.job.program, &reply.report.assignment) {
                    Ok(report) => reports.push(report),
                    Err(error) => failures.push(format!(
                        "{}: simulation failed: {error}",
                        reply.job.program.name()
                    )),
                },
            }
        }
        for failure in failures {
            self.rec.violation(failure);
        }
        reports
    }
}

/// Builds the engine, session and (on `service-churn`) service, prepares
/// every repeated program and serves each distinct request once.
fn setup(
    workload: Workload,
    stream: &Stream,
    mut tracer: Option<&mut Tracer>,
) -> (Session, Option<MloService>, Vec<OptimizeReport>) {
    let session = Engine::builder()
        .parallelism(workload.parallelism())
        .build()
        .session();
    let service = (workload == Workload::ServiceChurn)
        .then(|| MloService::new(session.clone(), ServiceConfig::new()));
    let mut programs = HashMap::new();
    for job in &stream.distinct {
        programs
            .entry(job.program.name().to_string())
            .or_insert_with(|| (Arc::clone(&job.program), job.request.candidates));
    }
    for (program, candidates) in programs.values() {
        let prepared = session.prepared(program, candidates);
        match tracer.as_deref_mut() {
            Some(tracer) => {
                prepare_stages(tracer, SETUP, &prepared, program, true);
            }
            None => {
                prepared.candidates(program);
                prepared.network(program);
                prepared.kernel(program);
                prepared.weight_kernel(program, &WeightOptions::default());
            }
        }
    }
    let reference = stream
        .distinct
        .iter()
        .map(|job| {
            let result = match &service {
                Some(service) => match service.optimize(&job.program, &job.request).as_ref() {
                    Ok(report) => Ok(report.clone()),
                    Err(error) => Err(error.to_string()),
                },
                None => session
                    .optimize(&job.program, &job.request)
                    .map_err(|e| e.to_string()),
            };
            result.unwrap_or_else(|error| {
                panic!(
                    "set-up request {} / {} failed: {error}",
                    job.program.name(),
                    job.request.strategy
                )
            })
        })
        .collect();
    (session, service, reference)
}

/// One request through `Session::optimize`.
fn serve_direct(
    session: &Session,
    ctx: &Context,
    rec: &mut Recorder,
    job: Job,
    position: usize,
    traced: bool,
) {
    rec.attempt();
    if !traced {
        let start = Instant::now();
        let result = session.optimize(&job.program, &job.request);
        let wall = start.elapsed();
        let simulation = result.as_ref().ok().and_then(|r| r.evaluation.clone());
        let result = result.map_err(|e| e.to_string());
        rec.complete(ctx, job, position, wall, false, result, simulation);
        return;
    }
    let id = rec.tracer().next_request();
    let (prepared, lookup) = timed_lookup(session, &job, rec, id);
    let mut attribution = Attribution {
        lookup,
        ..Attribution::default()
    };
    let tracer = rec.tracer();
    let start = Instant::now();
    if !prepared.network_built() {
        attribution.layout = prepare_stages(tracer, id, &prepared, &job.program, true);
    }
    // The simulation runs as its own call into the simulator, exactly as
    // the session would run it inline.
    let mut request = job.request.clone();
    let evaluation = request.evaluation.take();
    let call_start = Instant::now();
    let result = session.optimize(&job.program, &request);
    attribution.call = call_start.elapsed();
    tracer.record(
        id,
        "core.optimize",
        Some("request"),
        call_start,
        attribution.call,
    );
    let mut simulation = None;
    if let Ok(report) = &result {
        let end = call_start + attribution.call;
        record_solution(tracer, id, "core.optimize", end, report, &mut attribution);
        if let Some(options) = evaluation {
            let simulator = Simulator::new(options.machine).trace_options(options.trace);
            let sim_start = Instant::now();
            let simulated = simulator.simulate(&job.program, &report.assignment);
            attribution.simulate = sim_start.elapsed();
            tracer.record(
                id,
                "cachesim.simulate",
                Some("request"),
                sim_start,
                attribution.simulate,
            );
            simulation = simulated.ok();
            attribution.accesses = simulation.as_ref().map_or(0, |s| s.total_accesses);
        }
    }
    let wall = start.elapsed();
    tracer.record(id, "request", None, start, wall);
    attribution.wall = wall;
    let side_work = match (evaluation, &result) {
        (Some(options), Ok(report)) => {
            trace_only(tracer, id, &job.program, &report.assignment, options.trace)
        }
        _ => Duration::ZERO,
    };
    rec.side_work += side_work;
    rec.attributions.push(attribution);
    let result = result.map_err(|e| e.to_string());
    rec.complete(ctx, job, position, wall, true, result, simulation);
}

/// One op through the service: submit (twice for a duplicate pair), then
/// block on the replies.
fn serve_op(
    service: &MloService,
    ctx: &Context,
    rec: &mut Recorder,
    op: Op,
    position: usize,
    traced: bool,
) {
    let mut first = None;
    if traced {
        let id = rec.tracer().next_request();
        let (prepared, lookup) = timed_lookup(service.session(), &op.job, rec, id);
        first = Some((id, prepared, lookup));
    }
    let started = Instant::now();
    let mut layout = Duration::ZERO;
    if let Some((id, prepared, _)) = &first {
        if !prepared.network_built() {
            let weights = op.job.request.strategy.as_str() == "weighted";
            layout = prepare_stages(rec.tracer(), *id, prepared, &op.job.program, weights);
        }
    }
    let mut pending = Vec::with_capacity(2);
    for copy in 0..op.requests() {
        rec.attempt();
        let submitted = Instant::now();
        let result = service.submit(&op.job.program, &op.job.request);
        let submit = submitted.elapsed();
        let attribution = first.as_ref().map(|(first_id, _, lookup)| {
            let tracer = rec.tracer();
            let id = if copy == 0 {
                *first_id
            } else {
                tracer.next_request()
            };
            tracer.record(id, "service.submit", Some("request"), submitted, submit);
            let attribution = if copy == 0 {
                Attribution {
                    layout,
                    lookup: *lookup,
                    ..Attribution::default()
                }
            } else {
                Attribution::default()
            };
            (id, attribution)
        });
        let started = if copy == 0 { started } else { submitted };
        match result {
            Ok(handle) => pending.push((handle, position + copy, started, submitted, attribution)),
            Err(error) => rec.fail(format!(
                "submit of {} failed: {error}",
                op.job.program.name()
            )),
        }
    }
    for (handle, position, started, submitted, attribution) in pending {
        let result = handle.wait();
        let done = Instant::now();
        complete_served(
            ctx,
            rec,
            &op.job,
            position,
            (started, submitted, done),
            attribution,
            &result,
        );
    }
}

fn complete_served(
    ctx: &Context,
    rec: &mut Recorder,
    job: &Job,
    position: usize,
    (started, submitted, done): (Instant, Instant, Instant),
    attribution: Option<(u64, Attribution)>,
    result: &SharedResult,
) {
    let wall = done - submitted;
    let traced = attribution.is_some();
    if let Some((id, mut attribution)) = attribution {
        let tracer = rec.tracer();
        tracer.record(id, "service.request", Some("request"), submitted, wall);
        attribution.call = wall;
        if let Ok(report) = result.as_ref() {
            record_solution(
                tracer,
                id,
                "service.request",
                done,
                report,
                &mut attribution,
            );
        }
        attribution.wall = done - started;
        tracer.record(id, "request", None, started, attribution.wall);
        rec.attributions.push(attribution);
    }
    let result = match result.as_ref() {
        Ok(report) => Ok(report.clone()),
        Err(error) => Err(error.to_string()),
    };
    rec.complete(ctx, job.clone(), position, wall, traced, result, None);
}

/// A `Session::prepared` lookup timed beside the request (the request
/// repeats it internally).  Warm lookups become `core.prepared_lookup`
/// spans; a cold one inserts the entry the request will use, and its time
/// still estimates the key rendering the request repeats.
fn timed_lookup(
    session: &Session,
    job: &Job,
    rec: &mut Recorder,
    id: u64,
) -> (Arc<PreparedProgram>, Duration) {
    let start = Instant::now();
    let prepared = session.prepared(&job.program, &job.request.candidates);
    let dur = start.elapsed();
    rec.side_work += dur;
    // Every repeated program was prepared at set-up, and a never-seen one
    // reaches the session only through this lookup: a built network means
    // the entry was already there.
    let warm = prepared.network_built();
    if warm {
        rec.lookups.0 += 1;
        rec.tracer()
            .record(id, "core.prepared_lookup", None, start, dur);
    }
    rec.lookups.1 += 1;
    (prepared, dur)
}

/// Builds the prepared stages of a program, one span each.
fn prepare_stages(
    tracer: &mut Tracer,
    id: u64,
    prepared: &PreparedProgram,
    program: &Program,
    weights: bool,
) -> Duration {
    let start = Instant::now();
    tracer.time(id, "layout.candidates", Some("request"), || {
        prepared.candidates(program);
    });
    tracer.time(id, "layout.network", Some("request"), || {
        prepared.network(program);
    });
    tracer.time(id, "layout.kernel", Some("request"), || {
        prepared.kernel(program);
    });
    if weights {
        tracer.time(id, "layout.weights", Some("request"), || {
            prepared.weight_kernel(program, &WeightOptions::default());
        });
    }
    start.elapsed()
}

/// The solve inside a core or service call, known from the report's
/// solution time; its span ends where the call ends.
fn record_solution(
    tracer: &mut Tracer,
    id: u64,
    parent: &'static str,
    end: Instant,
    report: &OptimizeReport,
    attribution: &mut Attribution,
) {
    attribution.solution = report.solution_time;
    attribution.heuristic = report.strategy == "heuristic";
    attribution.nodes = report.search_stats.map_or(0, |s| s.nodes_visited);
    let name = if attribution.heuristic {
        "layout.heuristic"
    } else {
        "csp.search"
    };
    let start = end.checked_sub(report.solution_time).unwrap_or(end);
    tracer.record(id, name, Some(parent), start, report.solution_time);
}

/// Trace generation alone (`plan_memory` + `nest_trace` with the loop
/// order the simulator picks), timed beside the request so the simulate
/// span can be split into trace generation and hierarchy replay.
fn trace_only(
    tracer: &mut Tracer,
    id: u64,
    program: &Program,
    assignment: &LayoutAssignment,
    options: TraceOptions,
) -> Duration {
    let start = Instant::now();
    let generator = TraceGenerator::new(options);
    let mut accesses = 0usize;
    if let Ok(plan) = generator.plan_memory(program, assignment) {
        for nest in program.nests() {
            let transform = mlo_layout::quality::best_nest_score(nest, assignment).0;
            accesses += generator
                .nest_trace(program, nest.id(), &transform, &plan)
                .len();
        }
    }
    std::hint::black_box(accesses);
    let dur = start.elapsed();
    tracer.record(id, "cachesim.trace", None, start, dur);
    dur
}

/// The search counters that must repeat exactly for a repeated request
/// (the steal and split counts of parallel searches need not).
fn counters(stats: &Option<SearchStats>) -> Option<(u64, u64, u64, u64)> {
    stats.map(|s| {
        (
            s.nodes_visited,
            s.consistency_checks,
            s.backtracks,
            s.bound_deletions,
        )
    })
}

fn uncovered_array(program: &Program, assignment: &LayoutAssignment) -> Option<String> {
    program
        .arrays()
        .iter()
        .find(|array| !assignment.contains(array.id()))
        .map(|array| array.name().to_string())
}

/// Whether the layouts are a solution of the session's hard network.
fn satisfies_hard_network(
    prepared: &PreparedProgram,
    program: &Program,
    assignment: &LayoutAssignment,
) -> bool {
    let layout_network = prepared.network(program);
    let network = layout_network.network();
    let mut values = Assignment::new(network.variable_count());
    for var in network.variables() {
        let array = layout_network.array_of(var);
        let Some(index) = assignment
            .layout_of(array)
            .and_then(|layout| network.domain(var).index_of(layout))
        else {
            return false;
        };
        values.assign(var, index);
    }
    network.is_solution(&values).unwrap_or(false)
}

fn pair_key(program: &Program, assignment: &LayoutAssignment) -> String {
    let mut layouts: Vec<_> = assignment.iter().collect();
    layouts.sort_by_key(|(array, _)| **array);
    format!("{}\u{1f}{layouts:?}", program.name())
}
