//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload corpus|audit|resume_chaos --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it sets a workload up,
//! times it for `--seconds`, checks its outputs and prints the end-to-end
//! metrics; with `--trace 1` it makes the serial traced run instead and
//! prints the per-layer metrics, writing the spans under `.bench_run/`.
//! Either way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! check prints the reason on standard error and exits 1 without a result.
//! See `benchmark/README.md`.

mod common;
mod report;
mod sampler;
mod stamp;
mod stats;
mod trace;
mod traced;
mod workloads;

use common::{Settings, INJECTED_PANIC};
use report::{json_string, result_line, Metric};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["corpus", "audit", "resume_chaos"];
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("benchmark: {problem}");
    eprintln!(
        "usage: benchmark --workload corpus|audit|resume_chaos --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} expects a whole number, got {value:?}")))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => usage(&format!("unknown workload {value:?}")),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number().max(1)),
            "--trace" => trace = Some(number() != 0),
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Keep the injected worker-killing host's panics off stderr; report
/// every other panic as usual.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if message != INJECTED_PANIC {
            default(info);
        }
    }));
}

fn end_to_end(
    args: &Args,
    settings: &Settings,
    dir: &Path,
) -> Result<(String, Vec<String>), String> {
    let e2e = match args.workload.as_str() {
        "corpus" => workloads::corpus(settings)?,
        "audit" => workloads::audit(settings)?,
        _ => workloads::resume_chaos(settings, dir)?,
    };
    let mut notes = e2e.notes.clone();
    let samples = &e2e.latency_ms;
    let (Some(p50), Some(p99), Some(tail)) = (
        stats::percentile(samples, 50.0),
        stats::percentile(samples, 99.0),
        stats::tail_percentile(samples),
    ) else {
        return Err(format!(
            "{} latency samples, fewer than p99 needs {} beyond it",
            samples.len(),
            stats::MIN_BEYOND
        ));
    };
    notes.push(format!(
        "latency: p50 {:.4} ms, p99 {:.4} ms over {} samples ({} beyond p99); highest percentile with >= {} samples beyond: p{} = {:.4} ms ({} beyond)",
        p50.value,
        p99.value,
        p99.samples,
        p99.beyond,
        stats::MIN_BEYOND,
        tail.p,
        tail.value,
        tail.beyond
    ));
    notes.push(format!(
        "failed_share {:.6} (dead-lettered or unjournaled / attempted, planted failures included); unexpected failures {} of {}",
        e2e.failed_share, e2e.failed, e2e.attempted
    ));
    let metrics = vec![
        Metric::new("setup_s", e2e.setup_s, "s"),
        Metric::new("domains_per_s", e2e.domains_per_s, "1/s"),
        Metric::new("latency_p50_ms", p50.value, "ms"),
        Metric::new("latency_p99_ms", p99.value, "ms"),
        Metric::new("peak_rss_mb", e2e.peak_rss_mb, "MB"),
        Metric::new("tokens_per_domain", e2e.tokens_per_domain, "count"),
        Metric::new("completed_share", 1.0 - e2e.failed_share, "ratio"),
    ];
    let line = result_line(e2e.attempted as u64, e2e.failed as u64, &metrics)?;
    Ok((line, notes))
}

fn traced_run(
    args: &Args,
    settings: &Settings,
    dir: &Path,
) -> Result<(String, Vec<String>), String> {
    let traced = match args.workload.as_str() {
        "corpus" => traced::corpus(settings)?,
        "audit" => traced::audit(settings)?,
        _ => traced::resume_chaos(settings, dir)?,
    };
    let mut notes = traced.notes.clone();
    let path =
        PathBuf::from(RUN_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    write_spans(&path, &traced.spans)?;
    notes.push(format!(
        "{} spans written to {}",
        traced.spans.len(),
        path.display()
    ));
    for m in &traced.metrics {
        notes.push(format!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit));
    }
    let attempted = traced
        .spans
        .iter()
        .map(|s| s.request)
        .max()
        .map_or(1, |r| u64::from(r) + 1);
    let line = result_line(attempted, 0, &traced.metrics)?;
    Ok((line, notes))
}

fn write_spans(path: &Path, spans: &[trace::Span]) -> Result<(), String> {
    let selfs = trace::self_times(spans);
    let mut text = String::with_capacity(spans.len() * 96);
    for (i, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        text.push_str(&report::json_object(&[
            ("id", i.to_string()),
            (
                "parent",
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            ),
            ("request", span.request.to_string()),
            ("name", json_string(span.name)),
            ("start_ns", span.start_ns.to_string()),
            ("end_ns", span.end_ns.to_string()),
            ("self_ns", self_ns.to_string()),
        ]));
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() {
    let args = parse_args();
    quiet_injected_panics();
    let settings = Settings {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    if let Err(e) = std::fs::create_dir_all(RUN_DIR) {
        eprintln!("benchmark: cannot create {RUN_DIR}: {e}");
        std::process::exit(1);
    }
    let dir = PathBuf::from(RUN_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    println!(
        "provenance: {}",
        report::provenance(
            &args.workload,
            args.seed,
            args.seconds,
            settings.workers,
            args.trace
        )
    );
    let outcome = if args.trace {
        traced_run(&args, &settings, &dir)
    } else {
        end_to_end(&args, &settings, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((line, notes)) => {
            let mut out = std::io::stdout().lock();
            for note in notes {
                let _ = writeln!(out, "{note}");
            }
            let _ = writeln!(out, "{line}");
        }
        Err(problem) => {
            eprintln!("benchmark: correctness check failed: {problem}");
            std::process::exit(1);
        }
    }
}
