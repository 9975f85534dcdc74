//! Chaos harness for the crawl stack: sweep arbitrary fault and retry
//! configurations with proptest and check the resilience invariants the
//! design demands — no panics, transport counter conservation, and
//! byte-identical results regardless of worker count. A deterministic
//! breaker-bound scenario rides along.

use aipan_crawler::{
    crawl_domain_with, stream_all_supervised, CrawlOptions, DeadLetter, DomainCrawl,
    SupervisorOptions,
};
use aipan_net::fault::{FaultConfig, FaultInjector};
use aipan_net::host::StaticSite;
use aipan_net::http::Response;
use aipan_net::{Client, Internet, RetryPolicy};
use proptest::prelude::*;

fn make_net(n: usize) -> (Internet, Vec<String>) {
    let net = Internet::new();
    let mut domains = Vec::new();
    for i in 0..n {
        let domain = format!("chaos{i}.com");
        net.register(
            &domain,
            StaticSite::new()
                .page(
                    "/",
                    Response::html("<footer><a href=\"/privacy\">Privacy Policy</a></footer>"),
                )
                .page(
                    "/privacy",
                    Response::html("<p>We collect your email address.</p>"),
                ),
        );
        domains.push(domain);
    }
    (net, domains)
}

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

/// Fault config from integer percentages (the vendored proptest has no
/// float strategies): `(connect%, 5xx%, reset%, ratelimit%)` plus burst and
/// Retry-After knobs.
fn faults_from(rates: (u64, u64, u64, u64), burst_max: u32, retry_after_ms: u64) -> FaultConfig {
    let (connect, flaky, reset, limit) = rates;
    FaultConfig {
        connect_failure: connect as f64 / 100.0,
        flaky_5xx: flaky as f64 / 100.0,
        conn_reset: reset as f64 / 100.0,
        rate_limit: limit as f64 / 100.0,
        burst_max,
        retry_after_ms,
        ..FaultConfig::default()
    }
}

fn options_from(retry: (u32, u64, u64, u32), seed: u64) -> CrawlOptions {
    let (max_attempts, base_backoff_ms, jitter_ms, domain_budget) = retry;
    CrawlOptions {
        retry: RetryPolicy {
            max_attempts,
            base_backoff_ms,
            jitter_ms,
            domain_budget,
            ..RetryPolicy::default()
        },
        seed,
        deadline_ms: None,
    }
}

/// A stable, comparable fingerprint of a crawl result (DomainCrawl holds
/// page bodies and is deliberately not PartialEq).
fn fingerprint(crawls: &[DomainCrawl]) -> Vec<String> {
    crawls
        .iter()
        .map(|c| {
            let pages: Vec<String> = c
                .pages
                .iter()
                .map(|p| {
                    format!(
                        "{}|{}|{:?}|{}",
                        p.final_url.path,
                        p.status.0,
                        p.via,
                        p.body.len()
                    )
                })
                .collect();
            format!(
                "{} {:?} attempts={} retries={} robots={}/{} delay={} deadline={} pages=[{}]",
                c.domain,
                c.outcome,
                c.fetch_attempts,
                c.retries,
                c.robots_skipped,
                c.robots_blocked,
                c.politeness_delay_ms,
                c.deadline_hit,
                pages.join(", ")
            )
        })
        .collect()
}

proptest! {
    // Any fault/retry configuration: the crawl completes without panics,
    // every domain is accounted for, and the transport counters conserve
    // (requests == responses + every failure class).
    #[test]
    fn chaos_crawl_never_panics_and_conserves_counters(
        rates in (0u64..25, 0u64..40, 0u64..30, 0u64..25),
        burst in (1u32..5, 0u64..3000),
        retry in (1u32..5, 0u64..1000, 0u64..400, 2u32..20),
        run in (0u64..1_000_000, 0u64..1_000_000, 1usize..6),
    ) {
        let (burst_max, retry_after_ms) = burst;
        let (fault_seed, session_seed, workers) = run;
        let faults = faults_from(rates, burst_max, retry_after_ms);
        let options = options_from(retry, session_seed);
        let (net, domains) = make_net(8);
        let client = Client::new(net, FaultInjector::new(fault_seed, faults));
        let crawls = crawl_pooled(&client, &domains, workers, &options);
        prop_assert_eq!(crawls.len(), domains.len());
        let m = client.metrics();
        prop_assert!(m.is_conserved(), "unbalanced transport counters: {:?}", m);
    }

    // Results and shared transport metrics are byte-identical for any two
    // worker counts under any fault/retry configuration.
    #[test]
    fn chaos_crawl_identical_across_worker_counts(
        rates in (0u64..25, 0u64..40, 0u64..30, 0u64..25),
        burst in (1u32..5, 0u64..3000),
        retry in (1u32..5, 0u64..1000, 0u64..400, 2u32..20),
        run in (0u64..1_000_000, 0u64..1_000_000, 1usize..5, 5usize..9),
    ) {
        let (burst_max, retry_after_ms) = burst;
        let (fault_seed, session_seed, workers_a, workers_b) = run;
        let faults = faults_from(rates, burst_max, retry_after_ms);
        let options = options_from(retry, session_seed);
        let (net, domains) = make_net(10);
        let client_a = Client::new(net.clone(), FaultInjector::new(fault_seed, faults));
        let client_b = Client::new(net, FaultInjector::new(fault_seed, faults));
        let a = crawl_pooled(&client_a, &domains, workers_a, &options);
        let b = crawl_pooled(&client_b, &domains, workers_b, &options);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(client_a.metrics(), client_b.metrics());
    }

    // Deadlines salvage deterministically: the same deadline produces the
    // same partial page sets at any worker count, without panics.
    #[test]
    fn chaos_deadlines_salvage_deterministically(
        rates in (0u64..25, 0u64..40, 0u64..30, 0u64..25),
        fault_seed in 0u64..1_000_000,
        deadline_ms in 1u64..5000,
    ) {
        let faults = faults_from(rates, 2, 800);
        let (net, domains) = make_net(4);
        let options = CrawlOptions {
            deadline_ms: Some(deadline_ms),
            ..CrawlOptions::default()
        };
        let client = Client::new(net.clone(), FaultInjector::new(fault_seed, faults));
        let a = crawl_pooled(&client, &domains, 2, &options);
        let client2 = Client::new(net, FaultInjector::new(fault_seed, faults));
        let b = crawl_pooled(&client2, &domains, 4, &options);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}

/// The circuit breaker bounds the number of transport requests a dead host
/// can absorb, even when the caller keeps hammering it.
#[test]
fn breaker_bounds_requests_to_dead_host() {
    let net = Internet::new();
    // Not registering the domain → every fetch is a DNS failure.
    let client = Client::new(net, FaultInjector::new(3, FaultConfig::none()));
    let options = CrawlOptions::default();
    for _ in 0..25 {
        let crawl = crawl_domain_with(&client, "dead.example", &options);
        assert!(!crawl.is_success());
    }
    let m = client.metrics();
    // Each crawl opens a fresh session; the breaker threshold caps the
    // requests any single session can send to the dead host, so the total
    // is bounded by crawls × threshold rather than crawls × attempts.
    let per_session_cap = options.retry.breaker_threshold as u64 + 1;
    assert!(
        m.requests <= 25 * per_session_cap,
        "dead host absorbed {} requests",
        m.requests
    );
    assert!(m.is_conserved(), "unbalanced transport counters: {m:?}");
}
