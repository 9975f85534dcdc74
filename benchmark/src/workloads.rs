//! The three workloads' set-up, timed section and correctness gate, run
//! with tracing off.

use crate::common::{
    base_hosts, client_for, digest, digest_dataset, domains_of, engine_failures, export,
    inject_worker_killer, install_stamps, peak_rss_mb, pick_reachable_domain, pipeline_config,
    render_tables, reset_peak_rss, restore_hosts, run_tokens, sectors_of, service_times,
    slot_medians, time_setups, Settings,
};
use crate::sampler::{repeat_share, AuditSampler, SplitMix64};
use crate::stamp::StampHost;
use crate::stats;
use aipan_core::{
    run_pipeline_sharded, AnnotatedPolicy, Dataset, DiskFaultConfig, DiskFaultInjector,
    JournalEntry, Pipeline, PipelineRun, RunJournal, ShardedJournal, DEFAULT_SHARDS,
};
use aipan_crawler::{crawl_domain_with, CrawlOptions};
use aipan_net::fault::FaultConfig;
use aipan_net::Client;
use aipan_net::VirtualHost;
use aipan_taxonomy::Sector;
use aipan_webgen::{build_world_lazy, World, WorldConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Companies in the `corpus` world.
pub const CORPUS_DOMAINS: usize = 1500;
/// Companies in the `audit` world.
pub const AUDIT_DOMAINS: usize = 2000;
/// Companies in the `resume_chaos` world.
pub const CHAOS_DOMAINS: usize = 1400;
/// `audit` requests per pass per second of `--seconds`: a fixed count, so
/// the run's work (and its token count) repeats exactly for a seed.
pub const AUDIT_REQUESTS_PER_SECOND: usize = 60;
/// Minimum `audit` requests per pass, so p99 has at least ten samples
/// beyond it.
pub const AUDIT_MIN_REQUESTS: usize = 1000;
/// Times the `audit` request sequence is sent, each time to a fresh world
/// and pipeline; a request's latency is its median over the passes.
pub const AUDIT_PASSES: usize = 3;
/// Back-to-back set-ups per run for `corpus` and `audit` (median
/// reported).
pub const SETUP_REPEATS: usize = 15;
/// Set-ups per run for `resume_chaos`, whose set-up includes a reference
/// run.
pub const CHAOS_SETUP_REPEATS: usize = 3;
/// Minimum timed iterations of the `corpus` and `resume_chaos` jobs (at
/// least three, so per-domain medians drop a one-off stall).
pub const MIN_ITERATIONS: usize = 3;

/// The end-to-end measurements of one untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Operations attempted (domains, or `audit` requests).
    pub attempted: usize,
    /// Operations that failed unexpectedly (the planted worker-killing
    /// domain is an expected outcome, not a failure).
    pub failed: usize,
    /// Median set-up time.
    pub setup_s: f64,
    /// Median over timed jobs (`audit`: over its passes) of domains ÷
    /// wall time.
    pub domains_per_s: f64,
    /// Latency samples (ms), each a median over repeats: per domain over
    /// the engine workloads' jobs, per request over `audit`'s passes.
    pub latency_ms: Vec<f64>,
    /// High-water resident memory of the timed section (MB).
    pub peak_rss_mb: f64,
    /// Simulated tokens per domain attempted.
    pub tokens_per_domain: f64,
    /// Dead-lettered or unjournaled domains ÷ domains attempted, planted
    /// failures included.
    pub failed_share: f64,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

/// A lazily generated world of `domains` companies under `faults`.
pub fn lazy_world(seed: u64, domains: usize, faults: FaultConfig) -> World {
    let mut config = WorldConfig::small(seed, domains);
    config.faults = faults;
    build_world_lazy(config)
}

/// Append one engine run's per-domain service times to `samples`.
fn record_service_times(samples: &mut [Vec<f64>], stamps: &[Arc<StampHost>], end: Instant) {
    for (domain, time) in samples.iter_mut().zip(service_times(stamps, end)) {
        domain.extend(time);
    }
}

fn rate(domains: usize, wall: Duration) -> f64 {
    domains as f64 / wall.as_secs_f64().max(1e-9)
}

/// Reset the memory high-water mark before a timed section, with a report
/// line saying what the later reading covers.
fn start_peak_rss(workload: &str) -> String {
    if reset_peak_rss() {
        format!("{workload}: peak_rss_mb covers the timed section only")
    } else {
        format!("{workload}: peak_rss_mb covers set-up and the timed section (the kernel refused the high-water reset)")
    }
}

/// The per-domain path as `aipan audit` drives it: crawl, process,
/// release. `audit` times it; `corpus` checks the engine against it.
pub struct DomainPath {
    client: Client,
    crawl_options: CrawlOptions,
    pipeline: Pipeline,
}

impl DomainPath {
    /// The path over `world`, configured as the engine is.
    pub fn new(world: &World, seed: u64) -> DomainPath {
        let config = pipeline_config(seed, 1);
        DomainPath {
            client: client_for(world),
            crawl_options: config.crawl,
            pipeline: Pipeline::new(config),
        }
    }

    /// One request: the domain's policy, if one is extracted.
    pub fn request(&self, world: &World, domain: &str, sector: Sector) -> Option<AnnotatedPolicy> {
        let crawl = crawl_domain_with(&self.client, domain, &self.crawl_options);
        let outcome = self.pipeline.process_domain_full(&crawl, sector);
        world.release_site(domain);
        outcome.policy
    }

    /// Simulated tokens spent so far.
    pub fn tokens(&self) -> u64 {
        self.pipeline.chatbot().ledger().total().total()
    }
}

/// The per-domain path over every domain, in order.
fn per_domain_dataset(world: &World, seed: u64, domains: &[String], sectors: &[Sector]) -> Dataset {
    let path = DomainPath::new(world, seed);
    Dataset {
        policies: domains
            .iter()
            .zip(sectors)
            .filter_map(|(domain, &sector)| path.request(world, domain, sector))
            .collect(),
    }
}

/// `corpus`: the `aipan run --out` + `aipan tables` job, every domain once
/// per iteration, on the streaming engine with `workers` workers.
pub fn corpus(settings: &Settings) -> Result<EndToEnd, String> {
    let (setup_s, world) = time_setups(SETUP_REPEATS, || {
        Ok(lazy_world(
            settings.seed,
            CORPUS_DOMAINS,
            FaultConfig::default(),
        ))
    })?;
    let domains = domains_of(&world);
    let hosts = base_hosts(&world, &domains);
    let config = pipeline_config(settings.seed, settings.workers);

    let mut out = EndToEnd {
        setup_s,
        ..Default::default()
    };
    let mut rates = Vec::new();
    let mut digests = Vec::new();
    let mut tokens = 0u64;
    let mut dead_all = 0usize;
    let mut unjournaled_all = 0usize;
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); domains.len()];
    let mut export_ms = Vec::new();
    let rss_note = start_peak_rss("corpus");
    let started = Instant::now();
    while rates.len() < MIN_ITERATIONS || started.elapsed() < settings.seconds {
        let stamps = install_stamps(&world, &hosts);
        let journal = ShardedJournal::in_memory(DEFAULT_SHARDS);
        let t0 = Instant::now();
        let run = run_pipeline_sharded(&world, config.clone(), &journal);
        let engine_end = Instant::now();
        let json = export(&run.dataset)?;
        let tables = render_tables(&run.dataset);
        let wall = t0.elapsed();

        rates.push(rate(domains.len(), wall));
        export_ms.push(engine_end.elapsed().as_secs_f64() * 1e3);
        record_service_times(&mut samples, &stamps, engine_end);
        digests.push(digest(&json, &tables));
        tokens += run_tokens(&run);
        let (dead, unjournaled) = engine_failures(&run, &journal, &domains, None);
        out.failed += dead + unjournaled;
        dead_all += run.health.quarantine.len();
        unjournaled_all += unjournaled;
        out.attempted += run.crawl_funnel.domains_total;
    }
    out.peak_rss_mb = peak_rss_mb();
    restore_hosts(&world, &hosts);

    let sectors = sectors_of(&world, &domains);
    let reference = digest_dataset(&per_domain_dataset(
        &world,
        settings.seed,
        &domains,
        &sectors,
    ))?;
    if let Some(bad) = digests.iter().position(|&d| d != reference) {
        return Err(format!(
            "corpus: iteration {bad} digest {:016x} differs from the per-domain reference {reference:016x}",
            digests[bad]
        ));
    }
    out.latency_ms = slot_medians(&samples);
    out.domains_per_s = stats::median(&rates);
    out.tokens_per_domain = tokens as f64 / out.attempted.max(1) as f64;
    out.failed_share = stats::failed_share(out.attempted, dead_all, unjournaled_all);
    out.notes = vec![
        format!(
            "corpus: {} domains x {} iterations on {} workers; dataset+tables digest {reference:016x} matches the per-domain reference",
            domains.len(),
            rates.len(),
            settings.workers
        ),
        format!(
            "corpus: export+tables median {:.1} ms; latency samples are per-domain medians of {} domains ({} never reached their site; their time folds into the domain before them)",
            stats::median(&export_ms),
            out.latency_ms.len(),
            domains.len() - out.latency_ms.len()
        ),
        rss_note,
    ];
    Ok(out)
}

/// The `audit` requests per pass for a run of `seconds`.
pub fn audit_requests(seconds: Duration) -> usize {
    let per_second = AUDIT_REQUESTS_PER_SECOND as u64;
    usize::try_from(seconds.as_secs().saturating_mul(per_second))
        .unwrap_or(usize::MAX)
        .max(AUDIT_MIN_REQUESTS)
}

/// `audit`: the `aipan audit <domain>` job as a closed loop with one
/// client — each request is sent when the previous one has returned — over
/// a fixed sequence of requests whose domains are drawn from the
/// Zipf-like popularity law. The sequence is sent [`AUDIT_PASSES`] times,
/// each time to a freshly built world and pipeline, so nothing one pass
/// leaves behind serves the next; each request's latency is its wall time,
/// median over the passes.
pub fn audit(settings: &Settings) -> Result<EndToEnd, String> {
    let build = || lazy_world(settings.seed, AUDIT_DOMAINS, FaultConfig::default());
    let (setup_s, mut world) = time_setups(SETUP_REPEATS, || Ok(build()))?;
    let domains = domains_of(&world);
    let sectors = sectors_of(&world, &domains);
    let requests = audit_requests(settings.seconds);
    let mut sampler = AuditSampler::new(settings.seed, domains.len());
    let draws: Vec<(usize, &str, Sector)> = (0..requests)
        .map(|_| {
            let index = sampler.draw();
            match (domains.get(index), sectors.get(index)) {
                (Some(domain), Some(&sector)) => Ok((index, domain.as_str(), sector)),
                _ => Err(format!("audit: sampler drew {index} of {}", domains.len())),
            }
        })
        .collect::<Result<_, _>>()?;

    let mut out = EndToEnd {
        setup_s,
        attempted: requests * AUDIT_PASSES,
        ..Default::default()
    };
    let mut results: BTreeMap<usize, Option<AnnotatedPolicy>> = BTreeMap::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(AUDIT_PASSES); requests];
    let mut rates = Vec::with_capacity(AUDIT_PASSES);
    let mut tokens = 0u64;
    let rss_note = start_peak_rss("audit");
    for pass in 0..AUDIT_PASSES {
        if pass > 0 {
            // Drop the previous pass's world first so two never coexist.
            drop(world);
            world = build();
        }
        let path = DomainPath::new(&world, settings.seed);
        let mut busy_ms = 0.0;
        for (request, &(index, domain, sector)) in draws.iter().enumerate() {
            let t0 = Instant::now();
            let policy = path.request(&world, domain, sector);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            times[request].push(ms);
            busy_ms += ms;
            match results.get(&index) {
                Some(first) if *first != policy => {
                    return Err(format!(
                        "audit: repeated request for {domain} gave a different policy"
                    ))
                }
                Some(_) => {}
                None => {
                    results.insert(index, policy);
                }
            }
        }
        rates.push(requests as f64 / (busy_ms / 1e3).max(1e-9));
        tokens += path.tokens();
    }
    out.peak_rss_mb = peak_rss_mb();

    let audited = Dataset {
        policies: results.values().flatten().cloned().collect(),
    };
    let got = digest_dataset(&audited)?;
    let journal = ShardedJournal::in_memory(DEFAULT_SHARDS);
    let engine = run_pipeline_sharded(
        &world,
        pipeline_config(settings.seed, settings.workers),
        &journal,
    );
    let keep: Vec<&String> = results.keys().filter_map(|&i| domains.get(i)).collect();
    let reference = digest_dataset(&Dataset {
        policies: engine
            .dataset
            .policies
            .into_iter()
            .filter(|p| keep.binary_search(&&p.domain).is_ok())
            .collect(),
    })?;
    if got != reference {
        return Err(format!(
            "audit: dataset+tables digest {got:016x} of the {} audited domains differs from the engine reference {reference:016x}",
            results.len()
        ));
    }

    out.latency_ms = slot_medians(&times);
    out.domains_per_s = stats::median(&rates);
    out.tokens_per_domain = tokens as f64 / out.attempted.max(1) as f64;
    out.failed_share = 0.0;
    let indices: Vec<usize> = draws.iter().map(|&(index, _, _)| index).collect();
    out.notes = vec![
        format!(
            "audit: {requests} requests x {AUDIT_PASSES} passes over {} distinct of {} domains (repeat share {:.4} per pass); digest {got:016x} matches the engine reference",
            results.len(),
            domains.len(),
            repeat_share(&indices)
        ),
        format!(
            "audit: requests/s per pass {}",
            rates
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        rss_note,
    ];
    Ok(out)
}

/// State the `resume_chaos` set-up leaves behind.
pub struct ChaosSetup {
    /// The chaotic world, with the worker-killing host registered.
    pub world: World,
    /// Its domains.
    pub domains: Vec<String>,
    /// The injected worker-killing domain.
    pub victim: String,
    /// Hosts before any wrapping.
    pub hosts: Vec<(String, Arc<dyn VirtualHost>)>,
    /// The reference run's exported dataset.
    pub reference_json: String,
    /// The pre-filled consolidated journal (JSONL).
    pub prefill: String,
    /// Entries in the pre-filled journal.
    pub prefilled: usize,
    /// Directory the on-disk journal lives in.
    pub dir: PathBuf,
}

impl ChaosSetup {
    /// Path of the consolidated journal.
    pub fn base(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// Put the pre-filled journal back, removing segments and quarantine
    /// files a previous run left.
    pub fn reset_journal(&self) -> Result<(), String> {
        reset_dir(&self.dir)?;
        std::fs::write(self.base(), &self.prefill)
            .map_err(|e| format!("resume_chaos: cannot write the pre-filled journal: {e}"))
    }

    /// Check the supervisor contract and the resumed dataset of one
    /// resumed run.
    pub fn check(&self, run: &PipelineRun) -> Result<(), String> {
        check_degraded(run, &self.victim)?;
        if run.health.journal_write_errors != 0 {
            return Err(format!(
                "resume_chaos: {} journal write error(s); the disk faults were not absorbed",
                run.health.journal_write_errors
            ));
        }
        if run.health.disk_retries == 0 {
            return Err("resume_chaos: the chaotic disk injected no faults".to_string());
        }
        if export(&run.dataset)? != self.reference_json {
            return Err(
                "resume_chaos: the resumed dataset differs from the reference run's".to_string(),
            );
        }
        Ok(())
    }
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn check_degraded(run: &PipelineRun, victim: &str) -> Result<(), String> {
    if run.health.verdict != "degraded" {
        return Err(format!(
            "resume_chaos: verdict {:?}, expected \"degraded\"",
            run.health.verdict
        ));
    }
    let quarantined: Vec<(&str, u32)> = run
        .health
        .quarantine
        .iter()
        .map(|r| (r.domain.as_str(), r.kills))
        .collect();
    if quarantined != [(victim, 1)] {
        return Err(format!(
            "resume_chaos: quarantine {quarantined:?}, expected exactly [({victim:?}, 1)]"
        ));
    }
    Ok(())
}

/// Build the chaotic world, run it once in memory as the reference, and
/// leave a consolidated journal holding a seed-chosen half of the
/// outcomes in `dir`.
pub fn chaos_setup(settings: &Settings, dir: &Path) -> Result<ChaosSetup, String> {
    let world = lazy_world(settings.seed, CHAOS_DOMAINS, FaultConfig::chaotic());
    let domains = domains_of(&world);
    let victim = pick_reachable_domain(&world, settings.seed, &domains)
        .ok_or("resume_chaos: no reachable domain to inject the worker-killing host on")?;
    inject_worker_killer(&world, &victim);
    let hosts = base_hosts(&world, &domains);

    let memory = ShardedJournal::in_memory(DEFAULT_SHARDS);
    let reference = run_pipeline_sharded(
        &world,
        pipeline_config(settings.seed, settings.workers),
        &memory,
    );
    check_degraded(&reference, &victim)?;
    let reference_json = export(&reference.dataset)?;

    let entries: Vec<JournalEntry> = memory.merged().iter().cloned().collect();
    let mut rng = SplitMix64::new(settings.seed ^ 0x7E57_0002);
    let mut order: Vec<usize> = (0..entries.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut half = RunJournal::new();
    for &i in order.iter().take(entries.len() / 2) {
        if let Some(entry) = entries.get(i) {
            half.insert(entry.clone());
        }
    }
    let setup = ChaosSetup {
        world,
        domains,
        victim,
        hosts,
        reference_json,
        prefill: half.to_jsonl(),
        prefilled: half.len(),
        dir: dir.to_path_buf(),
    };
    setup.reset_journal()?;
    Ok(setup)
}

/// One timed resume.
pub struct ChaosRun {
    /// The resumed run.
    pub run: PipelineRun,
    /// The reopened journal, after consolidation.
    pub journal: ShardedJournal,
    /// When the engine returned (before consolidation).
    pub engine_end: Instant,
}

/// The timed resume: reopen the journal under disk chaos, resume the
/// chaotic run with `workers` workers, consolidate.
pub fn chaos_resume(setup: &ChaosSetup, seed: u64, workers: usize) -> Result<ChaosRun, String> {
    let base = setup.base();
    let journal = ShardedJournal::open_with(
        &base,
        DEFAULT_SHARDS,
        DiskFaultInjector::new(seed, DiskFaultConfig::chaotic()),
    );
    let run = run_pipeline_sharded(&setup.world, pipeline_config(seed, workers), &journal);
    let engine_end = Instant::now();
    journal
        .consolidate(&base)
        .map_err(|e| format!("resume_chaos: consolidate failed: {e}"))?;
    Ok(ChaosRun {
        run,
        journal,
        engine_end,
    })
}

/// `resume_chaos`: `aipan run --resume` after a crash, on a bad day.
pub fn resume_chaos(settings: &Settings, dir: &Path) -> Result<EndToEnd, String> {
    let (setup_s, setup) = time_setups(CHAOS_SETUP_REPEATS, || chaos_setup(settings, dir))?;
    let mut out = EndToEnd {
        setup_s,
        ..Default::default()
    };
    let mut rates = Vec::new();
    let mut tokens = 0u64;
    let mut dead_all = 0usize;
    let mut unjournaled_all = 0usize;
    let mut disk_retries = 0u64;
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); setup.domains.len()];
    let rss_note = start_peak_rss("resume_chaos");
    let started = Instant::now();
    while rates.len() < MIN_ITERATIONS || started.elapsed() < settings.seconds {
        setup.reset_journal()?;
        let stamps = install_stamps(&setup.world, &setup.hosts);
        let t0 = Instant::now();
        let ChaosRun {
            run,
            journal,
            engine_end,
        } = chaos_resume(&setup, settings.seed, settings.workers)?;
        let wall = t0.elapsed();

        setup.check(&run)?;
        rates.push(rate(setup.domains.len(), wall));
        record_service_times(&mut samples, &stamps, engine_end);
        tokens += run_tokens(&run);
        disk_retries += run.health.disk_retries;
        let (dead, unjournaled) =
            engine_failures(&run, &journal, &setup.domains, Some(&setup.victim));
        out.failed += dead + unjournaled;
        dead_all += run.health.quarantine.len();
        unjournaled_all += unjournaled;
        out.attempted += run.crawl_funnel.domains_total + run.health.quarantine.len();
    }
    out.peak_rss_mb = peak_rss_mb();
    restore_hosts(&setup.world, &setup.hosts);
    let _ = std::fs::remove_dir_all(&setup.dir);

    out.latency_ms = slot_medians(&samples);
    out.domains_per_s = stats::median(&rates);
    out.tokens_per_domain = tokens as f64 / out.attempted.max(1) as f64;
    out.failed_share = stats::failed_share(out.attempted, dead_all, unjournaled_all);
    out.notes = vec![
        format!(
            "resume_chaos: {} domains x {} iterations, {} replayed from the journal; verdict degraded, quarantine [{}], 0 write errors, {} disk retries; resumed dataset byte-identical to the reference; latency samples are per-domain medians of {} domains",
            setup.domains.len(),
            rates.len(),
            setup.prefilled,
            setup.victim,
            disk_retries,
            out.latency_ms.len()
        ),
        rss_note,
    ];
    Ok(out)
}
