//! Turns a finished run into named metrics and the result line.

use crate::runner::{Bench, Block, Sample};
use crate::stream::Workload;
use crate::trace::SETUP;
use mlo_cachesim::SimulationReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A percentile is "on a boundary" when it lies within this share of the
/// requests of the edge between two classes ...
const BOUNDARY_MARGIN: f64 = 0.02;
/// ... whose median latencies differ by more than this factor.
const BOUNDARY_GAP: f64 = 1.10;

/// The least share of traced request wall time the layer spans must cover.
const MIN_COVERAGE: f64 = 0.90;

/// On `service-churn` the median latency and the throughput pool a run's
/// fastest windows.  On a shared 2-vCPU VM, other tenants slowed every
/// request by up to 2x for seconds to minutes at a time; contention only
/// ever adds time, so the fastest windows are the closest to the program's
/// own speed.
const FAST_WINDOWS: usize = 3;

/// On the single-client workloads every distinct request repeats in every
/// round, so the median latency and the throughput pool the fastest
/// replies of each request: this share of them, rounded up.  A request
/// needs only its own fast moments, not a whole fast window, to count.
const FAST_SHARE: f64 = 0.2;

/// The tail percentile pools at least this many requests (the fastest
/// windows, at least [`FAST_WINDOWS`] of them, on `service-churn`; a
/// larger share of each request's fastest replies on the other two), so
/// p90 has ten samples beyond it.
const TAIL_POOL: usize = 100;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(bench: &Bench, blocks: &[Block], sims: &[SimulationReport]) -> Vec<Metric> {
    let whole = whole_run(bench, blocks);
    let (fast, tail) = if bench.workload == Workload::ServiceChurn {
        let ranked = ranked_windows(bench, blocks);
        if ranked.is_empty() {
            eprintln!("too short for whole windows: the metrics pool the whole run");
            (whole.clone(), whole.clone())
        } else {
            let fast = FAST_WINDOWS.min(ranked.len());
            let mut tail = fast;
            while tail < ranked.len() && requests(&ranked[..tail]) < TAIL_POOL {
                tail += 1;
            }
            (pool(&ranked[..fast]), pool(&ranked[..tail]))
        }
    } else {
        let untraced = bench.rec.samples.iter().filter(|s| !s.traced).count();
        let tail_share = TAIL_POOL as f64 / untraced.max(1) as f64;
        (
            fastest_replies(bench, FAST_SHARE),
            fastest_replies(bench, tail_share.clamp(FAST_SHARE, 1.0)),
        )
    };
    for (name, pool) in [
        ("whole run", &whole),
        ("median pool", &fast),
        ("tail pool", &tail),
    ] {
        eprintln!(
            "{name}: {}, {} requests, p50 {:.4} ms, p90 {:.4} ms, {:.2} requests/s",
            pool.picked,
            pool.latencies.len(),
            pool.p50(),
            pool.p90(),
            pool.throughput()
        );
    }
    vec![
        metric("request_ms_p50", fast.p50(), "ms"),
        metric("request_ms_p90", tail.p90(), "ms"),
        metric("throughput_rps", fast.throughput(), "1/s"),
        metric("setup_s", median(&bench.setup_seconds), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "success_ratio",
            (bench.rec.attempted - bench.rec.failed) as f64 / bench.rec.attempted.max(1) as f64,
            "ratio",
        ),
        metric("fallback_ratio", fallback_ratio(bench), "ratio"),
        metric(
            "sim_cycles_total",
            sims.iter().map(|s| s.total_cycles as f64).sum(),
            "cycles",
        ),
    ]
}

/// The per-layer metrics of a traced run; also prints the per-program
/// table and flags a failed coverage check.
pub fn per_layer(bench: &mut Bench, blocks: &[Block], sims: &[SimulationReport]) -> Vec<Metric> {
    print_rows(bench);
    let spans = bench
        .rec
        .tracer
        .as_ref()
        .expect("traced runs keep a tracer")
        .spans();
    let mean_ms = |name: &str, setup_too: bool| {
        let (count, total) = spans
            .iter()
            .filter(|s| s.name == name && (setup_too || s.request != SETUP))
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64 / 1e6
        }
    };

    let attributions = &bench.rec.attributions;
    let sum = |f: &dyn Fn(&crate::runner::Attribution) -> Duration| -> f64 {
        attributions.iter().map(|a| f(a).as_secs_f64()).sum()
    };
    let wall = sum(&|a| a.wall);
    // Solution time of searching requests and of heuristic ones.
    let solved = |heuristic: bool| sum(&|a| a.solution * u32::from(a.heuristic == heuristic));
    let (search, heuristic) = (solved(false), solved(true));
    let layout = sum(&|a| a.layout);
    let simulate = sum(&|a| a.simulate);
    let covered = sum(&|a| a.covered());
    let nodes: u64 = attributions.iter().map(|a| a.nodes).sum();
    let accesses: u64 = attributions.iter().map(|a| a.accesses).sum();
    let share = |part: f64| if wall > 0.0 { part / wall } else { 0.0 };
    let coverage = share(covered);
    let count = attributions.len().max(1) as f64;
    let call_self = sum(&|a| a.call.saturating_sub(a.solution));
    // On `service-churn` the core's share of a served request is only
    // visible as the lookup timed beside it; the rest of the service call
    // beyond the solve is the service's own (intake, queue, hand-off).
    let (core_self, service_self) = if bench.workload == Workload::ServiceChurn {
        let lookup = sum(&|a| a.lookup);
        (lookup, call_self - lookup)
    } else {
        (call_self, 0.0)
    };
    let mut csp = [0u64; 6];
    for reply in &bench.rec.deterministic {
        if let Some(s) = reply.report.search_stats {
            for (total, value) in csp.iter_mut().zip([
                s.nodes_visited,
                s.consistency_checks,
                s.backtracks,
                s.bound_deletions,
                s.steals,
                s.splits,
            ]) {
                *total += value;
            }
        }
    }
    let (mut l1, mut l1_misses, mut l2, mut l2_misses, mut all_accesses) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for sim in sims {
        l1 += sim.l1_data.accesses;
        l1_misses += sim.l1_data.misses;
        l2 += sim.l2.accesses;
        l2_misses += sim.l2.misses;
        all_accesses += sim.total_accesses;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Side work of the traced blocks is the benchmark's, not tracing's.
    let throughput = |traced: bool| {
        let (n, secs) =
            blocks
                .iter()
                .filter(|b| b.traced == traced)
                .fold((0usize, 0.0f64), |(n, secs), b| {
                    (
                        n + b.requests,
                        secs + b.wall.saturating_sub(b.side_work).as_secs_f64(),
                    )
                });
        n as f64 / secs
    };
    let (untraced_rps, traced_rps) = (throughput(false), throughput(true));
    let stats = bench.service_stats;
    let simulate_ms = mean_ms("cachesim.simulate", false);
    let trace_ms = mean_ms("cachesim.trace", false);

    let metrics = vec![
        metric(
            "layout.candidates_ms",
            mean_ms("layout.candidates", true),
            "ms",
        ),
        metric("layout.network_ms", mean_ms("layout.network", true), "ms"),
        metric("layout.kernel_ms", mean_ms("layout.kernel", true), "ms"),
        metric("layout.weights_ms", mean_ms("layout.weights", true), "ms"),
        metric(
            "layout.heuristic_ms",
            mean_ms("layout.heuristic", false),
            "ms",
        ),
        metric("layout.wall_share", share(layout + heuristic), "ratio"),
        metric("csp.search_ms", mean_ms("csp.search", false), "ms"),
        metric("csp.nodes", csp[0] as f64, "count"),
        metric("csp.consistency_checks", csp[1] as f64, "count"),
        metric("csp.backtracks", csp[2] as f64, "count"),
        metric("csp.bound_deletions", csp[3] as f64, "count"),
        metric("csp.steals", csp[4] as f64, "count"),
        metric("csp.splits", csp[5] as f64, "count"),
        metric(
            "csp.us_per_node",
            if nodes == 0 {
                0.0
            } else {
                search * 1e6 / nodes as f64
            },
            "us",
        ),
        metric(
            "csp.unstable_requests",
            bench.rec.unstable.len() as f64,
            "count",
        ),
        metric("csp.wall_share", share(search), "ratio"),
        metric("cachesim.simulate_ms", simulate_ms, "ms"),
        metric("cachesim.trace_ms", trace_ms, "ms"),
        metric("cachesim.replay_ms", simulate_ms - trace_ms, "ms"),
        metric("cachesim.accesses", all_accesses as f64, "count"),
        metric(
            "cachesim.ns_per_access",
            if accesses == 0 {
                0.0
            } else {
                simulate * 1e9 / accesses as f64
            },
            "ns",
        ),
        metric("cachesim.l1_miss_ratio", ratio(l1_misses, l1), "ratio"),
        metric("cachesim.l2_miss_ratio", ratio(l2_misses, l2), "ratio"),
        metric("cachesim.wall_share", share(simulate), "ratio"),
        metric(
            "core.prepared_lookup_us",
            mean_ms("core.prepared_lookup", false) * 1e3,
            "us",
        ),
        metric(
            "core.prepared_hit_ratio",
            ratio(bench.rec.lookups.0, bench.rec.lookups.1),
            "ratio",
        ),
        metric(
            "core.prepared_programs",
            bench.prepared_programs as f64,
            "count",
        ),
        metric("core.overhead_ms", core_self / count * 1e3, "ms"),
        metric("core.wall_share", share(core_self), "ratio"),
        metric(
            "service.overhead_ms",
            if bench.service.is_some() {
                call_self / count * 1e3
            } else {
                0.0
            },
            "ms",
        ),
        metric("service.wall_share", share(service_self), "ratio"),
        metric(
            "service.coalesced_ratio",
            ratio(stats.coalesced, stats.submitted),
            "ratio",
        ),
        metric("service.shed", stats.shed as f64, "count"),
        metric("service.degraded", stats.degraded as f64, "count"),
        metric("service.panicked", stats.panicked as f64, "count"),
        metric(
            "trace.overhead_pct",
            (untraced_rps - traced_rps) / untraced_rps * 100.0,
            "%",
        ),
        metric("trace.coverage_ratio", coverage, "ratio"),
    ];
    if coverage < MIN_COVERAGE {
        bench.rec.violation(format!(
            "layer spans cover {:.1}% of traced request wall time (need {:.0}%)",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    metrics
}

/// Latencies of some of a run's requests and the wall time they took.
#[derive(Debug, Clone)]
struct Pool {
    /// Sorted.
    latencies: Vec<f64>,
    wall: Duration,
    /// What the pool holds.
    picked: String,
}

impl Pool {
    fn p50(&self) -> f64 {
        percentile(&self.latencies, 0.50)
    }

    fn p90(&self) -> f64 {
        percentile(&self.latencies, tail_quantile(self.latencies.len()))
    }

    fn throughput(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Every untraced request of the run.
fn whole_run(bench: &Bench, blocks: &[Block]) -> Pool {
    let mut latencies: Vec<f64> = bench
        .rec
        .samples
        .iter()
        .filter(|s| !s.traced)
        .map(|s| s.ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let wall = blocks.iter().filter(|b| !b.traced).map(|b| b.wall).sum();
    Pool {
        latencies,
        wall,
        picked: "every request".into(),
    }
}

/// A whole window: its wall time and latencies.
type Window = (Duration, Vec<f64>);

/// The run's whole windows (see [`Workload::window_rounds`]) of untraced
/// requests, fastest first.
///
/// A whole window has every request answered inside one block (blocks end
/// on window boundaries, so all are whole unless a request failed).  It
/// starts when the last reply of the window before it arrived, or when its
/// block started if that reply came earlier, and ends with its own last
/// reply.
fn ranked_windows(bench: &Bench, blocks: &[Block]) -> Vec<Window> {
    let size = bench.stream.window_requests();
    struct Open {
        latencies: Vec<f64>,
        block: usize,
        one_block: bool,
        last_reply: Instant,
    }
    let mut windows: BTreeMap<usize, Open> = BTreeMap::new();
    for sample in bench.rec.samples.iter().filter(|s| !s.traced) {
        let window = windows
            .entry(sample.position / size)
            .or_insert_with(|| Open {
                latencies: Vec::with_capacity(size),
                block: sample.block,
                one_block: true,
                last_reply: sample.end,
            });
        window.latencies.push(sample.ms);
        window.one_block &= window.block == sample.block;
        window.last_reply = window.last_reply.max(sample.end);
    }
    let mut whole: Vec<Window> = windows
        .iter()
        .filter(|(_, w)| w.one_block && w.latencies.len() == size)
        .map(|(&index, w)| {
            let block_start = blocks[w.block].start;
            let start = index
                .checked_sub(1)
                .and_then(|previous| windows.get(&previous))
                .map_or(block_start, |p| p.last_reply.max(block_start));
            (w.last_reply - start, w.latencies.clone())
        })
        .collect();
    whole.sort_by_key(|(wall, _)| *wall);
    whole
}

fn requests(windows: &[Window]) -> usize {
    windows.iter().map(|(_, latencies)| latencies.len()).sum()
}

/// The requests of some windows and their summed wall time.
fn pool(windows: &[Window]) -> Pool {
    let mut latencies: Vec<f64> = windows
        .iter()
        .flat_map(|(_, latencies)| latencies.iter().copied())
        .collect();
    latencies.sort_by(f64::total_cmp);
    Pool {
        latencies,
        wall: windows.iter().map(|(wall, _)| *wall).sum(),
        picked: format!("{} fastest windows", windows.len()),
    }
}

/// The fastest `share` of each distinct request's untraced replies (at
/// least one).  A run is whole rounds, so a request repeated in a round
/// keeps as many replies per copy as any other and the pool has the
/// round's mix.
///
/// One client issues the requests one after another, so the time from the
/// reply before a request to its own reply (its latency plus the client's
/// gap before it) is that request's part of the wall time; the pool's wall
/// time is the sum of those parts.
fn fastest_replies(bench: &Bench, share: f64) -> Pool {
    let mut untraced: Vec<&Sample> = bench.rec.samples.iter().filter(|s| !s.traced).collect();
    untraced.sort_by_key(|s| s.position);
    let mut per_request: BTreeMap<usize, Vec<(f64, Duration)>> = BTreeMap::new();
    for (i, sample) in untraced.iter().enumerate() {
        let part = match i.checked_sub(1).map(|j| untraced[j]) {
            Some(before) if before.block == sample.block => sample.end - before.end,
            _ => Duration::from_secs_f64(sample.ms / 1e3),
        };
        let request = sample
            .distinct
            .expect("single-client workloads repeat distinct requests only");
        per_request
            .entry(request)
            .or_default()
            .push((sample.ms, part));
    }
    let mut latencies = Vec::new();
    let mut wall = Duration::ZERO;
    for replies in per_request.values_mut() {
        replies.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ((replies.len() as f64 * share - 1e-9).ceil() as usize).max(1);
        for &(ms, part) in &replies[..keep] {
            latencies.push(ms);
            wall += part;
        }
    }
    latencies.sort_by(f64::total_cmp);
    Pool {
        latencies,
        wall,
        picked: format!("fastest {share:.3} of each request's replies"),
    }
}

/// Successful replies of the deterministic prefix that fell back to the
/// heuristic, over all successful replies of it.
fn fallback_ratio(bench: &Bench) -> f64 {
    let replies = &bench.rec.deterministic;
    let fell_back = replies
        .iter()
        .filter(|reply| reply.report.fell_back())
        .count();
    fell_back as f64 / replies.len().max(1) as f64
}

/// Latency p50 per (program, strategy) over the untraced samples, and
/// where the reported percentiles fall in the class mix.
fn print_rows(bench: &Bench) {
    let classes = &bench.stream.classes;
    let mut per_class: Vec<Vec<f64>> = vec![Vec::new(); classes.len()];
    for sample in bench.rec.samples.iter().filter(|s| !s.traced) {
        per_class[sample.class].push(sample.ms);
    }
    let total: usize = per_class.iter().map(Vec::len).sum();
    let mut rows: Vec<(usize, f64, usize)> = per_class
        .iter_mut()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(class, v)| {
            v.sort_by(f64::total_cmp);
            (class, percentile(v, 0.5), v.len())
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut text =
        String::from("program        strategy          requests    share   cum.share   p50 ms\n");
    let mut cumulative = 0.0;
    let mut edges = Vec::new();
    for &(class, p50, n) in &rows {
        let share = n as f64 / total as f64;
        cumulative += share;
        edges.push((cumulative, p50));
        let _ = writeln!(
            text,
            "{:<14} {:<16} {:>9} {:>8.4} {:>10.4} {:>9.4}",
            classes[class].program, classes[class].strategy, n, share, cumulative, p50
        );
    }
    for q in [0.5, 0.9] {
        // The nearest edge between adjacent classes whose latencies differ
        // by more than BOUNDARY_GAP.
        let nearest = edges
            .windows(2)
            .filter(|w| w[1].1 > w[0].1 * BOUNDARY_GAP)
            .map(|w| (w[0].0 - q).abs())
            .min_by(f64::total_cmp);
        let verdict = match nearest {
            Some(distance) if distance < BOUNDARY_MARGIN => "ON A BOUNDARY",
            _ => "clear",
        };
        let _ = writeln!(
            text,
            "p{:.0}: {} of the requests from the nearest edge between classes >{:.0}% apart -> {verdict}",
            q * 100.0,
            nearest.map_or("no class edge".to_string(), |d| format!("{d:.4}")),
            (BOUNDARY_GAP - 1.0) * 100.0,
        );
    }
    eprint!("{text}");
}

/// The tail percentile reported as `request_ms_p90`: p90, or on a run too
/// short for it, the highest percentile that still has ten samples beyond
/// it.
fn tail_quantile(samples: usize) -> f64 {
    (1.0 - 10.0 / samples.max(1) as f64).clamp(0.5, 0.9)
}

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct && metrics.iter().all(|m| m.value.is_finite()),
        attempted.max(1),
        failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    json.push_str("}}");
    json
}
