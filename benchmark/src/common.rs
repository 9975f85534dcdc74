//! Set-up and checking helpers shared by the workloads.

use crate::report::fnv64;
use crate::sampler::SplitMix64;
use crate::stamp::{service_times_ms, StampHost};
use aipan_analysis::tables;
use aipan_core::{Dataset, PipelineConfig, PipelineRun, ShardedJournal};
use aipan_net::fault::{FaultInjector, FaultKind};
use aipan_net::http::{Request, Response};
use aipan_net::{Client, VirtualHost};
use aipan_taxonomy::Sector;
use aipan_webgen::World;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Message of the injected worker-killing host's panic (the panic hook
/// keeps it off stderr).
pub const INJECTED_PANIC: &str = "benchmark: injected worker-killing host";

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: world, pipeline and sampler all derive from it.
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: Duration,
    /// Worker threads for the streaming engine.
    pub workers: usize,
}

/// The pipeline configuration every workload uses: defaults (gpt-4-turbo,
/// default retries and supervisor policy) with the workload seed.
pub fn pipeline_config(seed: u64, workers: usize) -> PipelineConfig {
    PipelineConfig {
        seed,
        workers,
        ..Default::default()
    }
}

/// A client over `world` configured exactly as the engine configures its
/// own.
pub fn client_for(world: &World) -> Client {
    Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    )
}

/// The world's domains, sorted.
pub fn domains_of(world: &World) -> Vec<String> {
    world
        .universe
        .unique_domains()
        .iter()
        .map(|c| c.domain.clone())
        .collect()
}

/// Each domain's sector, looked up the way the engine looks it up.
pub fn sectors_of(world: &World, domains: &[String]) -> Vec<Sector> {
    domains
        .iter()
        .map(|d| world.company(d).map_or(Sector::Industrials, |c| c.sector))
        .collect()
}

/// Tables 1–5 as `aipan tables` renders them.
pub fn render_tables(dataset: &Dataset) -> String {
    [
        tables::render_table1(&tables::table1(dataset, 3)),
        tables::render_breakdown(
            "Table 2a — data-type meta-categories",
            &tables::table2a(dataset),
        ),
        tables::render_breakdown("Table 2b — purposes", &tables::table2b(dataset)),
        tables::render_table3(&tables::table3(dataset)),
        tables::render_breakdown(
            "Table 5 — all data-type categories",
            &tables::table5(dataset),
        ),
    ]
    .join("\n")
}

/// The dataset export (JSON).
pub fn export(dataset: &Dataset) -> Result<String, String> {
    dataset
        .to_json()
        .map_err(|e| format!("dataset export failed: {e}"))
}

/// Digest of an exported dataset and its rendered tables.
pub fn digest(json: &str, tables: &str) -> u64 {
    fnv64(&[json.as_bytes(), tables.as_bytes()])
}

/// Export `dataset`, render its tables, and digest both.
pub fn digest_dataset(dataset: &Dataset) -> Result<u64, String> {
    Ok(digest(&export(dataset)?, &render_tables(dataset)))
}

/// The process's high-water resident memory in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the process's resident-memory high-water mark to its current
/// resident size (Linux `clear_refs` code 5), so a later [`peak_rss_mb`]
/// covers only what runs after the reset. `false` where the kernel does
/// not allow it; the mark then also covers the set-up.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Run `setup` `repeats` times back to back (at least once), dropping each
/// result before the next starts so two never coexist, and return the
/// median wall time in seconds with the last result.
pub fn time_setups<T>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    while times.len() < repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((crate::stats::median(&times), value))
}

/// A seed-chosen domain whose host the transport reaches (its fault fate
/// is `FaultKind::None`), so a host registered on it is actually called.
pub fn pick_reachable_domain(world: &World, seed: u64, domains: &[String]) -> Option<String> {
    let faults = FaultInjector::new(world.config.seed, world.config.faults);
    let reachable: Vec<&String> = domains
        .iter()
        .filter(|d| faults.fate(d) == FaultKind::None)
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x7E57_0001);
    reachable
        .get(rng.below(reachable.len()))
        .map(|d| d.to_string())
}

/// Register a host on `victim` whose every request panics — a domain whose
/// chain kills its worker.
pub fn inject_worker_killer(world: &World, victim: &str) {
    world
        .internet
        .register(victim, |_req: &Request| -> Response {
            panic!("{INJECTED_PANIC}")
        });
}

/// The hosts as registered before any wrapping, so wrappers can be
/// re-installed without nesting.
pub fn base_hosts(world: &World, domains: &[String]) -> Vec<(String, Arc<dyn VirtualHost>)> {
    domains
        .iter()
        .filter_map(|d| world.internet.resolve(d).map(|h| (d.clone(), h)))
        .collect()
}

/// Re-register the base hosts.
pub fn restore_hosts(world: &World, hosts: &[(String, Arc<dyn VirtualHost>)]) {
    for (domain, host) in hosts {
        world.internet.register_shared(domain, host.clone());
    }
}

/// Fresh first-request stamps over every base host.
pub fn install_stamps(
    world: &World,
    hosts: &[(String, Arc<dyn VirtualHost>)],
) -> Vec<Arc<StampHost>> {
    hosts
        .iter()
        .map(|(domain, host)| {
            let stamp = Arc::new(StampHost::new(host.clone()));
            world.internet.register_shared(domain, stamp.clone());
            stamp
        })
        .collect()
}

/// Per-domain service times (ms) from the stamps of one engine run that
/// ended at `end`, aligned with `stamps`; `None` for a domain whose site
/// was never reached.
pub fn service_times(stamps: &[Arc<StampHost>], end: Instant) -> Vec<Option<f64>> {
    // ThreadId is not Ord; key threads by their order of appearance.
    let mut threads: Vec<ThreadId> = Vec::new();
    let mut keyed: Vec<(usize, Instant)> = Vec::with_capacity(stamps.len());
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(stamps.len());
    for stamp in stamps {
        slots.push(stamp.first().map(|(at, thread)| {
            let key = threads
                .iter()
                .position(|&t| t == thread)
                .unwrap_or_else(|| {
                    threads.push(thread);
                    threads.len() - 1
                });
            keyed.push((key, at));
            keyed.len() - 1
        }));
    }
    let times = service_times_ms(&keyed, end);
    slots
        .into_iter()
        .map(|slot| slot.and_then(|k| times.get(k).copied()))
        .collect()
}

/// Latency samples from repeated measurements: each slot's median over
/// its repeats (`samples[i]` holds slot `i`'s times — a domain's over the
/// timed jobs, or an `audit` request's over the passes), skipping slots
/// never measured. The median drops a time a scheduling stall inflated in
/// one repeat.
pub fn slot_medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| crate::stats::median(s))
        .collect()
}

/// Failures of one engine run: `(dead-lettered, unjournaled)` domains,
/// not counting the `planted` worker-killing domain. A dead-lettered
/// domain is not also counted as unjournaled.
pub fn engine_failures(
    run: &PipelineRun,
    journal: &ShardedJournal,
    domains: &[String],
    planted: Option<&str>,
) -> (usize, usize) {
    let dead: Vec<&str> = run
        .health
        .quarantine
        .iter()
        .map(|r| r.domain.as_str())
        .filter(|d| Some(*d) != planted)
        .collect();
    let unjournaled = domains
        .iter()
        .filter(|d| Some(d.as_str()) != planted && !dead.contains(&d.as_str()))
        .filter(|d| !journal.contains(d))
        .count();
    (dead.len(), unjournaled)
}

/// Total simulated tokens in a run's usage breakdown.
pub fn run_tokens(run: &PipelineRun) -> u64 {
    run.usage.iter().map(|(_, u)| u.total()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_are_timed_back_to_back_and_the_last_is_kept() {
        let mut n = 0;
        let (median, last) = time_setups(5, || {
            n += 1;
            Ok(n)
        })
        .expect("set-ups");
        assert_eq!((n, last), (5, 5));
        assert!(median >= 0.0);
        assert!(time_setups(3, || Err::<(), _>("broken".to_string())).is_err());
    }

    #[test]
    fn slot_medians_skip_unmeasured_slots() {
        let samples = vec![vec![3.0, 1.0, 2.0], vec![], vec![5.0]];
        assert_eq!(slot_medians(&samples), vec![2.0, 5.0]);
    }
}
