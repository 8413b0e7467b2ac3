//! End-to-end and per-layer benchmark of the layout optimizer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-mix --seed 2005 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` alternates untraced and traced blocks and prints the
//! per-layer metrics, a per-program latency table and the span file path.
//! The last line of standard output is always one JSON object; see
//! `perfbench/README.md` for every metric.

mod metrics;
mod runner;
mod stream;
mod trace;

use runner::Bench;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use stream::Workload;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2005;

/// Timed blocks per run, each after a set-up of its own; `setup_s` is the
/// median of the set-ups.  Spreading the set-ups over the run makes their
/// median follow the host's speed over the whole run rather than over one
/// moment.  A traced run alternates untraced and traced blocks (U T U T)
/// so that drift on the host falls on both sides of `trace.overhead_pct`.
const BLOCKS: u32 = 4;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        format!("unknown workload {workload_name} (solve-mix, table3-eval, service-churn)")
    })?;
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(args.workload, args.seed, args.trace);
    let total = Duration::from_secs(args.seconds);
    let mut blocks = Vec::new();
    for i in 0..BLOCKS {
        if i > 0 {
            bench.set_up_again();
        }
        blocks.push(bench.timed_block(total / BLOCKS, args.trace && i % 2 == 1));
    }
    bench.finish_deterministic_prefix();
    bench.final_checks();
    let simulations = bench.deterministic_simulations();

    let metrics = if args.trace {
        let spans = PathBuf::from("perfbench/out")
            .join(format!("spans-{}-{}.jsonl", args.workload_name, args.seed));
        let tracer = bench
            .rec
            .tracer
            .as_ref()
            .expect("traced runs keep a tracer");
        match tracer.write_jsonl(&spans) {
            Ok(()) => eprintln!(
                "spans: {} ({} spans)",
                spans.display(),
                tracer.spans().len()
            ),
            Err(error) => eprintln!("spans: could not write {}: {error}", spans.display()),
        }
        metrics::per_layer(&mut bench, &blocks, &simulations)
    } else {
        metrics::end_to_end(&bench, &blocks, &simulations)
    };

    let rec = &mut bench.rec;
    if rec.attempted == 0 {
        rec.violation("no request was attempted".into());
    }
    for violation in &rec.violations {
        eprintln!("check failed: {violation}");
    }
    let correct = rec.violations.is_empty() && rec.failed == 0;
    println!(
        "{}",
        metrics::result_json(correct, rec.attempted, rec.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
