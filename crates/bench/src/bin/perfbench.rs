//! perfbench — deterministic wall-clock harness for the pipeline hot path.
//!
//! Times the two stages of a corpus run — world synthesis and the
//! end-to-end streaming pipeline — at fixed sizes and worker counts, and
//! appends the measurements to `BENCH_pipeline.json` so the repository
//! accumulates a perf trajectory across PRs (the workloads are seeded and
//! deterministic; only the wall-clock varies by machine).
//!
//! ```text
//! perfbench                        # standard grid: 100/300/1000 × {1,4,8}
//!                                  #   + streaming 3000/10000 × {8}
//! perfbench --smoke                # small on-grid cells for CI / verify
//! perfbench --chaos-smoke          # 300 domains under FaultConfig::chaotic()
//! perfbench --domains 500 --adhoc  # off-grid exploration (flagged cells)
//! perfbench --label post-PR3       # tag the appended entries
//! perfbench --out /tmp/bench.json  # write somewhere else
//! ```
//!
//! Every cell runs in `streaming` mode on a lazy world: sites materialize
//! on first fetch inside the pipeline's worker chain and are released per
//! domain, so the crawl is folded into `pipeline_ms` (`crawl_ms` is
//! recorded as `0.0`) and `peak_resident_bytes` (the site generator's
//! high-water mark) stays bounded by in-flight domains rather than the
//! universe. Entries written by older versions also carry `eager` cells,
//! which built the whole web up front and timed a standalone crawl pass;
//! they still load. Every entry records per-stage ms/domain so cells of
//! different sizes compare directly.
//!
//! Sizes off the standard grid {100, 300, 1000, 3000, 10000} are rejected
//! unless `--adhoc` is passed: an earlier PR recorded its "standard" cells
//! at 40 domains and the trajectory lost cross-PR comparability for that
//! label. Ad-hoc cells are fine for exploration — they are just labeled
//! explicitly (`-adhoc` suffix) instead of silently polluting the grid.
//!
//! `--chaos-smoke` runs one elevated-transient cell (flaky 5xx bursts,
//! resets, 429s, latency spikes) so the retry/breaker overhead shows up in
//! the trajectory next to the clean-path numbers, plus one `supervised`
//! streaming cell that layers deterministic disk faults and an injected
//! worker-killing host on top — the cell asserts the supervisor's contract
//! (run completes `degraded` with exactly the injected domain quarantined,
//! every disk fault absorbed by the bounded retries) before it is recorded.
//! Entries are tagged with a `-chaos` label suffix rather than a schema
//! change so old trajectory files keep parsing.
//!
//! Unlike the criterion benches this needs no statistical run: each cell is
//! measured once, which is enough to see the ≥1.5× movements we optimize
//! for, and cheap enough to run on every PR.

use aipan_bench::trajectory;
use aipan_core::{run_pipeline, PipelineConfig};
use aipan_crawler::default_workers;
use aipan_net::fault::FaultConfig;
use aipan_webgen::{build_world_lazy, WorldConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SEED: u64 = 7;

/// Universe sizes with cross-PR comparable history. Other sizes need
/// `--adhoc`.
const STANDARD_SIZES: &[usize] = &[100, 300, 1000, 3000, 10000];

/// One measured grid cell.
#[derive(Debug, Serialize, Deserialize)]
struct BenchEntry {
    /// Caller-supplied tag (e.g. `pre-PR3-baseline`, `post-PR3`).
    label: String,
    /// `streaming` (lazy per-domain generation, sites released as domains
    /// finish) or `supervised` (the `--chaos-smoke` fault-stack cell);
    /// older entries may also read `eager` (whole web built up front).
    mode: String,
    /// Universe size (company domains attempted).
    domains: usize,
    /// Available hardware parallelism on the measuring host — wall-clock
    /// entries from hosts with different core counts are not comparable.
    host_nproc: usize,
    /// Host operating system (`std::env::consts::OS`), same caveat.
    host_os: String,
    /// Worker-thread count for crawl and annotation pools.
    workers: usize,
    /// World synthesis wall-clock (ms): universe/fate synthesis only — no
    /// site materialization.
    world_build_ms: f64,
    /// Crawl-only wall-clock (ms). Always `0.0`: the crawl happens inside
    /// the pipeline's per-domain worker chain. Kept so every entry has the
    /// shape of the old ones, which timed a standalone crawl.
    crawl_ms: f64,
    /// End-to-end pipeline wall-clock (ms) — crawl + extract + segment +
    /// annotate + verify + funnel.
    pipeline_ms: f64,
    /// `world_build_ms / domains` (normalized for cross-size comparison).
    world_ms_per_domain: f64,
    /// `crawl_ms / domains`.
    crawl_ms_per_domain: f64,
    /// `pipeline_ms / domains`.
    pipeline_ms_per_domain: f64,
    /// High-water mark of generated-site residency (bytes) from the world's
    /// memory gauge: the in-flight window (the whole universe for old eager
    /// entries). An estimate — site pages only, not process RSS.
    peak_resident_bytes: usize,
    /// Annotated-domain count (work-equivalence check across entries).
    annotated: usize,
    /// Total annotations produced (ditto).
    annotations: usize,
    /// Domains dead-lettered by the streaming supervisor (always zero for
    /// clean cells; the `--chaos-smoke` supervised cell pins it to its
    /// injected worker-killing domain count).
    quarantined: usize,
}

// The committed trajectory file itself is loaded through
// `aipan_bench::trajectory`, which preserves members this harness
// version does not know about instead of silently dropping them.

fn measure(label: &str, domains: usize, workers: usize, chaos: bool) -> BenchEntry {
    let mut config = WorldConfig::small(SEED, domains);
    if chaos {
        config.faults = FaultConfig::chaotic();
    }
    let t0 = Instant::now();
    let world = build_world_lazy(config);
    let world_build_ms = ms(t0);

    let t1 = Instant::now();
    let run = run_pipeline(
        &world,
        PipelineConfig {
            seed: SEED,
            workers,
            ..Default::default()
        },
    );
    let pipeline_ms = ms(t1);

    let per = |stage_ms: f64| {
        if domains == 0 {
            0.0
        } else {
            (stage_ms / domains as f64 * 1e3).round() / 1e3
        }
    };
    BenchEntry {
        label: label.to_string(),
        mode: "streaming".to_string(),
        domains,
        host_nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        host_os: std::env::consts::OS.to_string(),
        workers,
        world_build_ms,
        crawl_ms: 0.0,
        pipeline_ms,
        world_ms_per_domain: per(world_build_ms),
        crawl_ms_per_domain: 0.0,
        pipeline_ms_per_domain: per(pipeline_ms),
        peak_resident_bytes: world.site_memory.peak_bytes(),
        annotated: run.extraction.annotated,
        annotations: run
            .dataset
            .policies
            .iter()
            .map(|p| p.annotations.len())
            .sum(),
        quarantined: run.health.quarantine.len(),
    }
}

/// The `--chaos-smoke` supervised cell: a streaming run with the full
/// fault stack at once — chaotic network transients, deterministic disk
/// faults on the journal's append path, and one injected worker-killing
/// host. Asserts the supervisor's contract (run completes `degraded` with
/// exactly the injected domain quarantined, every disk fault absorbed)
/// before the cell is allowed into the ledger.
fn measure_supervised_chaos(label: &str, domains: usize, workers: usize) -> BenchEntry {
    use aipan_core::{
        run_pipeline_sharded, DiskFaultConfig, DiskFaultInjector, ShardedJournal, DEFAULT_SHARDS,
    };
    use aipan_net::http::{Request, Response};

    let mut config = WorldConfig::small(SEED, domains);
    config.faults = FaultConfig::chaotic();
    let t0 = Instant::now();
    let world = build_world_lazy(config);
    let world_build_ms = ms(t0);

    let victim = world
        .universe
        .unique_domains()
        .first()
        .map(|c| c.domain.clone())
        .unwrap_or_default();
    world
        .internet
        .register(&victim, |_req: &Request| -> Response {
            panic!("perfbench: injected worker-killing host")
        });

    let scratch =
        std::env::temp_dir().join(format!("aipan-perfbench-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create scratch dir: {e}");
        std::process::exit(2);
    }
    let base = scratch.join("journal.jsonl");
    let journal = ShardedJournal::open_with(
        &base,
        DEFAULT_SHARDS,
        DiskFaultInjector::new(SEED, DiskFaultConfig::chaotic()),
    );

    let t1 = Instant::now();
    let run = run_pipeline_sharded(
        &world,
        PipelineConfig {
            seed: SEED,
            workers,
            ..Default::default()
        },
        &journal,
    );
    let pipeline_ms = ms(t1);
    let _ = std::fs::remove_dir_all(&scratch);

    let quarantine = &run.health.quarantine;
    let mut broken: Vec<String> = Vec::new();
    if run.health.verdict != "degraded" {
        broken.push(format!(
            "verdict {:?}, expected \"degraded\"",
            run.health.verdict
        ));
    }
    if quarantine.len() != 1 || quarantine.first().map(|r| r.domain.as_str()) != Some(&victim) {
        broken.push(format!(
            "quarantine {:?}, expected exactly [{victim}]",
            quarantine.iter().map(|r| &r.domain).collect::<Vec<_>>()
        ));
    }
    if quarantine.first().map(|r| r.kills) != Some(1) {
        broken.push("injected domain must record exactly one kill".to_string());
    }
    if run.health.journal_write_errors != 0 {
        broken.push(format!(
            "{} journal write error(s): bounded retries failed to absorb the disk faults",
            run.health.journal_write_errors
        ));
    }
    if run.health.disk_retries == 0 {
        broken.push("chaotic disk config injected no faults".to_string());
    }
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("perfbench: supervised chaos cell violated its contract: {b}");
        }
        std::process::exit(1);
    }

    let per = |stage_ms: f64| {
        if domains == 0 {
            0.0
        } else {
            (stage_ms / domains as f64 * 1e3).round() / 1e3
        }
    };
    BenchEntry {
        label: label.to_string(),
        mode: "supervised".to_string(),
        domains,
        host_nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        host_os: std::env::consts::OS.to_string(),
        workers,
        world_build_ms,
        crawl_ms: 0.0,
        pipeline_ms,
        world_ms_per_domain: per(world_build_ms),
        crawl_ms_per_domain: 0.0,
        pipeline_ms_per_domain: per(pipeline_ms),
        peak_resident_bytes: world.site_memory.peak_bytes(),
        annotated: run.extraction.annotated,
        annotations: run
            .dataset
            .policies
            .iter()
            .map(|p| p.annotations.len())
            .sum(),
        quarantined: quarantine.len(),
    }
}

fn ms(since: Instant) -> f64 {
    let d = since.elapsed();
    (d.as_secs_f64() * 1e4).round() / 10.0
}

/// One cell of the measurement plan.
struct Cell {
    domains: usize,
    workers: usize,
}

fn main() {
    let mut label = String::from("run");
    let mut out = String::from("BENCH_pipeline.json");
    let mut smoke = false;
    let mut chaos = false;
    let mut adhoc = false;
    let mut adhoc_domains: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--chaos-smoke" => chaos = true,
            "--adhoc" => adhoc = true,
            "--domains" => {
                let list = args.next().unwrap_or_default();
                for part in list.split(',') {
                    match part.trim().parse::<usize>() {
                        Ok(n) if n > 0 => adhoc_domains.push(n),
                        _ => {
                            eprintln!(
                                "perfbench: --domains expects positive integers, got {part:?}"
                            );
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--label" => label = args.next().unwrap_or(label),
            "--out" => out = args.next().unwrap_or(out),
            "--help" | "-h" => {
                println!(
                    "usage: perfbench [--smoke] [--chaos-smoke] [--domains N,M --adhoc] \
                     [--label NAME] [--out PATH]"
                );
                return;
            }
            other => {
                eprintln!("perfbench: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut cells: Vec<Cell> = Vec::new();
    if !adhoc_domains.is_empty() {
        for &domains in &adhoc_domains {
            cells.push(Cell {
                domains,
                workers: default_workers(),
            });
        }
    } else if chaos {
        cells.push(Cell {
            domains: 300,
            workers: 4,
        });
    } else if smoke {
        // On-grid smoke: the serial and a pooled cell.
        for workers in [1, 2] {
            cells.push(Cell {
                domains: 100,
                workers,
            });
        }
    } else {
        for &domains in &[100, 300, 1000] {
            for workers in [1, 4, 8] {
                cells.push(Cell { domains, workers });
            }
        }
        for &domains in &[3000, 10000] {
            cells.push(Cell {
                domains,
                workers: 8,
            });
        }
    }

    // Grid guard: off-standard sizes drifted into the ledger once
    // (40-domain "standard" cells) and broke cross-PR comparability.
    let off_grid: Vec<usize> = cells
        .iter()
        .map(|c| c.domains)
        .filter(|d| !STANDARD_SIZES.contains(d))
        .collect();
    if !off_grid.is_empty() {
        if !adhoc {
            eprintln!(
                "perfbench: sizes {off_grid:?} are off the standard grid {STANDARD_SIZES:?}; \
                 pass --adhoc to record them as explicitly ad-hoc cells"
            );
            std::process::exit(2);
        }
        label.push_str("-adhoc");
    }
    if chaos {
        label.push_str("-chaos");
    }

    let text = std::fs::read_to_string(&out).unwrap_or_default();
    let (mut file, warnings) = trajectory::load(&text);
    for w in &warnings {
        eprintln!("perfbench: {w}");
    }
    file.harness = "perfbench-v1".to_string();

    println!("label={label} cells: {}", cells.len());
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>12} {:>10} {:>14} {:>12}",
        "domains",
        "workers",
        "mode",
        "world ms",
        "pipeline ms",
        "annotated",
        "peak site B",
        "ms/domain"
    );
    for cell in &cells {
        let entry = measure(&label, cell.domains, cell.workers, chaos);
        println!(
            "{:>8} {:>8} {:>10} {:>12.1} {:>12.1} {:>10} {:>14} {:>12.3}",
            entry.domains,
            entry.workers,
            entry.mode,
            entry.world_build_ms,
            entry.pipeline_ms,
            entry.annotated,
            entry.peak_resident_bytes,
            entry.pipeline_ms_per_domain
        );
        file.entries.push(entry.to_value());
    }
    if chaos {
        // The supervised cell: disk faults + one worker-killing domain on
        // top of the network chaos, contract-checked before recording.
        let entry = measure_supervised_chaos(&label, 100, 4);
        println!(
            "{:>8} {:>8} {:>10} {:>12.1} {:>12.1} {:>10} {:>14} {:>12.3} (quarantined {})",
            entry.domains,
            entry.workers,
            entry.mode,
            entry.world_build_ms,
            entry.pipeline_ms,
            entry.annotated,
            entry.peak_resident_bytes,
            entry.pipeline_ms_per_domain,
            entry.quarantined
        );
        file.entries.push(entry.to_value());
    }

    let json = trajectory::render(&file);
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("perfbench: cannot write {out}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out}");
}
