//! Integration test: crawl a small simulated world end to end and check
//! the [`CrawlReport`] funnel statistics against the per-domain results —
//! with and without transient faults — and a property check that the
//! worker pool at any size is indistinguishable from a serial crawl.

use aipan_crawler::{
    crawl_domain_with, default_workers, stream_all_supervised, CrawlOptions, CrawlReport,
    DeadLetter, DomainCrawl, SupervisorOptions,
};
use aipan_net::fault::{FaultConfig, FaultInjector};
use aipan_net::Client;
use aipan_webgen::{build_world, WorldConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Crawl every domain on the supervised pool with a pass-through
/// `process`: the crawls come back sorted by domain, and none may be
/// dead-lettered.
fn crawl_pooled(
    client: &Client,
    domains: &[String],
    workers: usize,
    options: &CrawlOptions,
) -> Vec<DomainCrawl> {
    let outcome = stream_all_supervised(
        client,
        domains,
        workers,
        options,
        &SupervisorOptions::default(),
        || (),
        |_state: &mut (), crawl: DomainCrawl| crawl,
        |_state: &mut ()| {},
        |_letter: &DeadLetter| {},
    );
    assert!(
        outcome.dead_letters.is_empty(),
        "{:?}",
        outcome.dead_letters
    );
    outcome
        .results
        .into_iter()
        .map(|(_, crawl)| crawl)
        .collect()
}

#[test]
fn report_stats_agree_with_per_domain_crawls() {
    let world = build_world(WorldConfig {
        seed: 7,
        universe_size: 120,
        ..Default::default()
    });
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let domains: BTreeSet<String> = world
        .universe
        .companies
        .iter()
        .map(|c| c.domain.clone())
        .collect();
    let domains: Vec<String> = domains.into_iter().collect();
    let crawls = crawl_pooled(
        &client,
        &domains,
        default_workers(),
        &CrawlOptions::default(),
    );
    let report = CrawlReport::new(crawls);

    assert_eq!(report.funnel.domains_total, domains.len());
    assert!(report.funnel.crawl_success > 0, "some crawls must succeed");

    // failed_domains is exactly the complement of the successes.
    let failed = report.failed_domains().count();
    assert_eq!(
        failed,
        report.funnel.domains_total - report.funnel.crawl_success
    );
    assert!(report.failed_domains().all(|c| !c.is_success()));

    // Every successful domain contributes ≥1 deduplicated privacy page, so
    // the per-success average is at least one and matches the raw totals.
    let avg = report.funnel.avg_privacy_pages();
    assert!(avg >= 1.0, "avg privacy pages per success was {avg}");
    let expected = report.funnel.total_privacy_pages as f64 / report.funnel.crawl_success as f64;
    assert!((avg - expected).abs() < 1e-12);
}

#[test]
fn transient_faults_reconcile_with_funnel_accounting() {
    let world = build_world(WorldConfig {
        seed: 19,
        universe_size: 100,
        faults: FaultConfig {
            flaky_5xx: 0.15,
            conn_reset: 0.08,
            rate_limit: 0.05,
            ..FaultConfig::default()
        },
        ..Default::default()
    });
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let domains: Vec<String> = {
        let set: BTreeSet<String> = world
            .universe
            .companies
            .iter()
            .map(|c| c.domain.clone())
            .collect();
        set.into_iter().collect()
    };
    let crawls = crawl_pooled(
        &client,
        &domains,
        default_workers(),
        &CrawlOptions::default(),
    );
    let report = CrawlReport::new(crawls);

    // Under these rates some fetch somewhere must have retried, and the
    // funnel's retry total must reconcile with the per-domain counts and
    // with the transport-layer retry counter.
    assert!(
        report.funnel.retries > 0,
        "no retries under elevated faults"
    );
    let per_domain: u64 = report.crawls.iter().map(|c| c.retries).sum();
    assert_eq!(report.funnel.retries, per_domain);
    let m = client.metrics();
    assert_eq!(m.retries, per_domain);
    assert!(m.is_conserved(), "unbalanced transport counters: {m:?}");

    // Transient faults must not cost any domain its crawl: the default
    // retry policy absorbs every default-length burst, so the success
    // count matches a transient-free baseline with the same permanent
    // fates (same injector seed, default fault rates only).
    let baseline_client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, FaultConfig::default()),
    );
    let baseline = CrawlReport::new(crawl_pooled(
        &baseline_client,
        &domains,
        default_workers(),
        &CrawlOptions::default(),
    ));
    assert_eq!(report.funnel.crawl_success, baseline.funnel.crawl_success);

    // And retries are what buy that parity: the same faulty world crawled
    // with a no-retry policy strictly loses domains.
    let no_retry_client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let no_retry = CrawlReport::new(crawl_pooled(
        &no_retry_client,
        &domains,
        default_workers(),
        &CrawlOptions::no_retry(),
    ));
    assert!(
        no_retry.funnel.crawl_success < report.funnel.crawl_success,
        "no-retry baseline ({}) should lose domains vs the retrying crawl ({})",
        no_retry.funnel.crawl_success,
        report.funnel.crawl_success
    );
}

proptest! {
    // The worker pool is an implementation detail: for any worker count
    // and fault seed, a pass-through crawl over the pool equals crawling
    // every domain serially with the same options.
    #[test]
    fn pool_crawl_equals_serial_crawl(
        workers in 1usize..=8,
        fault_seed in 0u64..1_000_000,
        rates in (0u64..20, 0u64..15, 0u64..10),
    ) {
        let (flaky, reset, limit) = rates;
        let faults = FaultConfig {
            flaky_5xx: flaky as f64 / 100.0,
            conn_reset: reset as f64 / 100.0,
            rate_limit: limit as f64 / 100.0,
            ..FaultConfig::default()
        };
        // The generated sites don't depend on the fault rates — only the
        // injector does — so one shared world serves every case.
        static WORLD: std::sync::OnceLock<aipan_webgen::World> = std::sync::OnceLock::new();
        let world = WORLD.get_or_init(|| {
            build_world(WorldConfig {
                seed: 11,
                universe_size: 14,
                ..Default::default()
            })
        });
        let domains: Vec<String> = {
            let set: BTreeSet<String> = world
                .universe
                .companies
                .iter()
                .map(|c| c.domain.clone())
                .collect();
            set.into_iter().collect()
        };
        let options = CrawlOptions::default();
        let pooled_client = Client::new(
            world.internet.clone(),
            FaultInjector::new(fault_seed, faults),
        );
        let pooled = crawl_pooled(&pooled_client, &domains, workers, &options);

        let serial_client = Client::new(
            world.internet.clone(),
            FaultInjector::new(fault_seed, faults),
        );
        let serial: Vec<_> = domains
            .iter()
            .map(|d| crawl_domain_with(&serial_client, d, &options))
            .collect();

        prop_assert_eq!(pooled.len(), serial.len());
        for (p, s) in pooled.iter().zip(&serial) {
            prop_assert_eq!(&p.domain, &s.domain);
            prop_assert_eq!(&p.outcome, &s.outcome);
            prop_assert_eq!(p.fetch_attempts, s.fetch_attempts);
            prop_assert_eq!(p.retries, s.retries);
            prop_assert_eq!(p.deadline_hit, s.deadline_hit);
            prop_assert_eq!(p.pages.len(), s.pages.len());
        }
        prop_assert_eq!(pooled_client.metrics(), serial_client.metrics());
    }
}
