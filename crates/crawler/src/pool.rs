//! The supervised worker pool that drives every domain's chain.
//!
//! [`stream_all_supervised`] is the engine's only pool. Workers claim
//! domains from a shared atomic cursor over the input slice; each one runs
//! the whole crawl → `process` chain for the domain it claimed, with every
//! stage under `catch_unwind`, and keeps its results, dead letters and
//! private state until it exits. The caller merges the workers' yields and
//! sorts them by domain, so output order is deterministic regardless of
//! scheduling. There are no channels and no feeder thread: with
//! `workers <= 1` the same worker loop simply runs on the caller's thread.

use crate::crawl::{crawl_domain_with, CrawlOptions, DomainCrawl};
use aipan_net::Client;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Default worker count: the host's available parallelism, capped at 16
/// (4 when the host does not report it).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(4)
}

/// Stage of the per-domain chain a supervised panic was caught in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailStage {
    /// The crawl itself (fetching pages over the virtual transport).
    Crawl,
    /// The caller's `process` closure (extract / segment / annotate /
    /// journal).
    Process,
}

impl FailStage {
    /// Stable lowercase label used in dead-letter records and health
    /// reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FailStage::Crawl => "crawl",
            FailStage::Process => "process",
        }
    }
}

/// A per-domain panic captured by [`stream_all_supervised`]: which domain
/// died, in which stage of its chain, and the rendered panic message.
///
/// Dead letters are deterministic for a deterministic workload: whether a
/// given domain panics (and in which stage) is a pure function of the
/// domain, so the dead-letter set is worker-count invariant even though
/// which *worker* absorbs the panic is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter {
    /// Domain whose chain panicked.
    pub domain: String,
    /// Chain stage that panicked.
    pub stage: FailStage,
    /// Panic payload (`String`/`&str` payloads verbatim, an opaque marker
    /// otherwise).
    pub message: String,
}

/// Backpressure and fault-isolation policy for [`stream_all_supervised`].
#[derive(Clone, Copy, Default)]
pub struct SupervisorOptions<'a> {
    /// Probed memory figure above which admission of new domains blocks
    /// (until in-flight domains finish and release memory). `None`
    /// disables backpressure.
    pub memory_cap_bytes: Option<usize>,
    /// Memory probe consulted at admission — e.g. the lazy world's site
    /// gauge. Backpressure is inert unless both cap and probe are set.
    pub memory_probe: Option<&'a (dyn Fn() -> usize + Sync)>,
}

/// Everything a supervised streaming drive returns.
pub struct SupervisedOutcome<R, S> {
    /// Per-domain results of the surviving domains, sorted by domain.
    pub results: Vec<(String, R)>,
    /// One record per panicking domain, sorted by domain.
    pub dead_letters: Vec<DeadLetter>,
    /// Every worker's final state (in unspecified order: fold worker
    /// states commutatively).
    pub states: Vec<S>,
    /// Times a worker blocked at admission waiting for probed memory to
    /// drop back under the cap. Scheduling-dependent (not worker-count
    /// invariant); always zero when backpressure is disabled.
    pub backpressure_stalls: u64,
}

/// Admission gate shared by all supervised workers: counts in-flight
/// domains and blocks admission while probed memory exceeds the cap.
struct AdmissionGate<'a> {
    cap: Option<usize>,
    probe: Option<&'a (dyn Fn() -> usize + Sync)>,
    in_flight: Mutex<usize>,
    released: Condvar,
    stalls: AtomicU64,
}

/// The supervised workers recover a poisoned guard instead of propagating:
/// every panic a worker can raise is already caught per-domain, and the
/// gate's counter stays consistent because admit/release pair around the
/// catch.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<'a> AdmissionGate<'a> {
    fn new(options: &SupervisorOptions<'a>) -> AdmissionGate<'a> {
        AdmissionGate {
            cap: options.memory_cap_bytes,
            probe: options.memory_probe,
            in_flight: Mutex::new(0),
            released: Condvar::new(),
            stalls: AtomicU64::new(0),
        }
    }

    /// Block until admitting one more domain keeps probed memory within
    /// the cap — or until nothing is in flight, in which case admission
    /// always proceeds. That second clause is what makes the gate
    /// deadlock-free: once every in-flight domain has finished (each
    /// release notifies), waiting longer cannot shrink the probed figure,
    /// so the gate admits one domain and degrades to serial rather than
    /// hanging.
    fn admit(&self) {
        let mut in_flight = lock_or_recover(&self.in_flight);
        if let (Some(cap), Some(probe)) = (self.cap, self.probe) {
            let mut stalled = false;
            while *in_flight > 0 && probe() > cap {
                stalled = true;
                in_flight = self
                    .released
                    .wait(in_flight)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if stalled {
                self.stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
        *in_flight += 1;
    }

    fn release(&self) {
        let mut in_flight = lock_or_recover(&self.in_flight);
        *in_flight = in_flight.saturating_sub(1);
        drop(in_flight);
        self.released.notify_all();
    }
}

/// Render a caught panic payload into a dead-letter message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Outcome of one supervised per-domain chain.
enum ChainOutcome<R> {
    Done(R),
    Died(FailStage, String),
}

/// Run one domain's crawl → process chain with each stage under
/// `catch_unwind`, so the caught stage can be attributed in the dead
/// letter. `AssertUnwindSafe` is sound here because the caller repairs
/// `state` through its `recover` hook before reusing it after a panic.
fn run_chain<S, R>(
    client: &Client,
    domain: &str,
    options: &CrawlOptions,
    state: &mut S,
    process: &(impl Fn(&mut S, DomainCrawl) -> R + Sync),
) -> ChainOutcome<R> {
    let crawl = match catch_unwind(AssertUnwindSafe(|| {
        crawl_domain_with(client, domain, options)
    })) {
        Ok(crawl) => crawl,
        Err(payload) => return ChainOutcome::Died(FailStage::Crawl, panic_message(payload)),
    };
    match catch_unwind(AssertUnwindSafe(|| process(state, crawl))) {
        Ok(result) => ChainOutcome::Done(result),
        Err(payload) => ChainOutcome::Died(FailStage::Process, panic_message(payload)),
    }
}

/// What one worker hands back when the cursor runs dry: its final state,
/// the results of the domains it completed, and its dead letters.
type WorkerYield<S, R> = (S, Vec<(String, R)>, Vec<DeadLetter>);

/// Drive every domain through the **whole** per-domain chain under a
/// fault-isolating supervisor: each worker crawls a domain and immediately
/// hands the finished crawl to `process`, so generate → crawl → extract →
/// annotate run end-to-end inside one worker task. `process` takes the
/// crawl by value — page bodies can be dropped the moment the domain is
/// done, which is what bounds a streaming run's memory by in-flight domains
/// rather than the universe.
///
/// `init` builds one private state value per worker (scratch arenas,
/// per-worker tallies); `process` may mutate it freely without locks.
/// Results are byte-identical for any worker count, because each domain's
/// work is a pure function of the domain.
///
/// A panic anywhere in one domain's chain does not kill the run. The panic
/// is caught per-domain, rendered into a [`DeadLetter`] (handed to
/// `on_dead_letter` at the moment it happens, e.g. to quarantine it in a
/// journal), the worker's state is repaired through `recover` — reset
/// scratch buffers, keep commutative tallies — and the worker moves on to
/// the next domain. Workers never die, so the result set is never
/// truncated: it is exactly the surviving domains, sorted.
///
/// `supervisor` additionally bounds memory: when both a cap and a probe
/// are configured, workers block before starting a new domain while the
/// probed figure is over the cap and at least one other domain is in
/// flight (see [`AdmissionGate::admit`] for why that cannot deadlock).
#[allow(clippy::too_many_arguments)]
pub fn stream_all_supervised<S, R, I, F, G, D>(
    client: &Client,
    domains: &[String],
    workers: usize,
    options: &CrawlOptions,
    supervisor: &SupervisorOptions<'_>,
    init: I,
    process: F,
    recover: G,
    on_dead_letter: D,
) -> SupervisedOutcome<R, S>
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, DomainCrawl) -> R + Sync,
    G: Fn(&mut S) + Sync,
    D: Fn(&DeadLetter) + Sync,
{
    let workers = workers.max(1);
    let gate = AdmissionGate::new(supervisor);
    let cursor = AtomicUsize::new(0);
    // The one worker loop: claim the next index, admit, run the chain,
    // release, then keep the result or recover and dead-letter.
    let work = || -> WorkerYield<S, R> {
        let share = domains.len().div_ceil(workers);
        let mut state = init();
        let mut results: Vec<(String, R)> = Vec::with_capacity(share);
        let mut dead_letters: Vec<DeadLetter> = Vec::with_capacity(share);
        // One worker can win at most every claim, so the slice length
        // bounds its loop. `Relaxed` suffices: each `fetch_add` hands out a
        // distinct index, the cursor publishes no other data, and results
        // travel back through the join.
        for _ in 0..domains.len() {
            let Some(domain) = domains.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            gate.admit();
            let outcome = run_chain(client, domain, options, &mut state, &process);
            gate.release();
            match outcome {
                ChainOutcome::Done(result) => results.push((domain.clone(), result)),
                ChainOutcome::Died(stage, message) => {
                    recover(&mut state);
                    let letter = DeadLetter {
                        domain: domain.clone(),
                        stage,
                        message,
                    };
                    on_dead_letter(&letter);
                    dead_letters.push(letter);
                }
            }
        }
        (state, results, dead_letters)
    };
    let yields: Vec<WorkerYield<S, R>> = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            // Workers catch every per-domain panic, so a join failure can
            // only come from the supervisor scaffolding itself — re-raise it.
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    };

    let mut outcome = SupervisedOutcome {
        results: Vec::with_capacity(domains.len()),
        dead_letters: Vec::new(),
        states: Vec::with_capacity(yields.len()),
        backpressure_stalls: gate.stalls.load(Ordering::Relaxed),
    };
    for (state, results, dead_letters) in yields {
        outcome.states.push(state);
        outcome.results.extend(results);
        outcome.dead_letters.extend(dead_letters);
    }
    outcome.results.sort_by(|a, b| a.0.cmp(&b.0));
    outcome.dead_letters.sort_by(|a, b| a.domain.cmp(&b.domain));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_net::fault::{FaultConfig, FaultInjector};
    use aipan_net::host::StaticSite;
    use aipan_net::http::Response;
    use aipan_net::Internet;
    use proptest::prelude::*;

    fn make_net(n: usize) -> (Internet, Vec<String>) {
        let net = Internet::new();
        let mut domains = Vec::new();
        for i in 0..n {
            let domain = format!("site{i}.com");
            net.register(
                &domain,
                StaticSite::new()
                    .page(
                        "/",
                        Response::html("<footer><a href=\"/privacy\">Privacy Policy</a></footer>"),
                    )
                    .page("/privacy", Response::html("<p>policy</p>")),
            );
            domains.push(domain);
        }
        (net, domains)
    }

    /// Crawl every domain on the pool with a pass-through `process`: the
    /// crawls come back sorted by domain, and none may be dead-lettered.
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
    fn crawls_all_domains_sorted() {
        let (net, mut domains) = make_net(37);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let results = crawl_pooled(&client, &domains, 4, &CrawlOptions::default());
        assert_eq!(results.len(), 37);
        domains.sort();
        let got: Vec<_> = results.iter().map(|r| r.domain.clone()).collect();
        assert_eq!(got, domains);
        assert!(results.iter().all(|r| r.is_success()));
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let (net, domains) = make_net(12);
        let client1 = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
        let client8 = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let options = CrawlOptions::default();
        let a = crawl_pooled(&client1, &domains, 1, &options);
        let b = crawl_pooled(&client8, &domains, 8, &options);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.pages.len(), y.pages.len());
        }
    }

    #[test]
    fn empty_domain_list() {
        let (net, _) = make_net(1);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let results = crawl_pooled(&client, &[], default_workers(), &CrawlOptions::default());
        assert!(results.is_empty());
    }

    #[test]
    fn transient_faults_do_not_disturb_worker_determinism() {
        let (net, domains) = make_net(20);
        let cfg = FaultConfig {
            flaky_5xx: 0.3,
            conn_reset: 0.2,
            rate_limit: 0.1,
            burst_max: 2,
            ..FaultConfig::none()
        };
        let client1 = Client::new(net.clone(), FaultInjector::new(5, cfg));
        let client6 = Client::new(net, FaultInjector::new(5, cfg));
        let options = CrawlOptions::default();
        let a = crawl_pooled(&client1, &domains, 1, &options);
        let b = crawl_pooled(&client6, &domains, 6, &options);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.retries, y.retries);
            assert_eq!(x.fetch_attempts, y.fetch_attempts);
        }
        assert_eq!(client1.metrics(), client6.metrics());
    }

    #[test]
    fn streaming_results_invariant_across_worker_counts() {
        let (net, domains) = make_net(15);
        let options = CrawlOptions::default();
        let mut baseline: Option<Vec<(String, usize)>> = None;
        for workers in [1usize, 2, 5, 8] {
            let client = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
            let outcome = stream_all_supervised(
                &client,
                &domains,
                workers,
                &options,
                &SupervisorOptions::default(),
                || 0usize,
                |count: &mut usize, crawl: DomainCrawl| {
                    *count += 1;
                    crawl.pages.len()
                },
                |_count: &mut usize| {},
                |_letter: &DeadLetter| {},
            );
            assert_eq!(outcome.states.len(), workers);
            assert_eq!(outcome.states.iter().sum::<usize>(), domains.len());
            match &baseline {
                None => baseline = Some(outcome.results),
                Some(expected) => assert_eq!(&outcome.results, expected),
            }
        }
    }

    #[test]
    fn streaming_empty_domain_list_yields_worker_states() {
        let (net, _) = make_net(1);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let outcome = stream_all_supervised(
            &client,
            &[],
            3,
            &CrawlOptions::default(),
            &SupervisorOptions::default(),
            || 7u32,
            |_state: &mut u32, _crawl: DomainCrawl| (),
            |_state: &mut u32| {},
            |_letter: &DeadLetter| {},
        );
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.states, vec![7, 7, 7]);
    }

    #[test]
    fn streaming_funnels_merge_to_batch_report() {
        use crate::report::{CrawlFunnel, CrawlReport};
        let (net, mut domains) = make_net(10);
        domains.push("ghost.com".to_string());
        let client = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
        let batch = CrawlReport::new(crawl_pooled(&client, &domains, 1, &CrawlOptions::default()));
        let outcome = stream_all_supervised(
            &client,
            &domains,
            4,
            &CrawlOptions::default(),
            &SupervisorOptions::default(),
            CrawlFunnel::default,
            |funnel: &mut CrawlFunnel, crawl: DomainCrawl| funnel.absorb(&crawl),
            |_funnel: &mut CrawlFunnel| {},
            |_letter: &DeadLetter| {},
        );
        let mut merged = CrawlFunnel::default();
        for funnel in &outcome.states {
            merged.merge(funnel);
        }
        assert_eq!(merged, batch.funnel);
    }

    #[test]
    fn supervised_crawl_panic_becomes_dead_letter_not_truncation() {
        let (net, mut domains) = make_net(6);
        net.register("boom.com", |_req: &aipan_net::Request| -> Response {
            panic!("host exploded")
        });
        domains.push("boom.com".to_string());
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let outcome = stream_all_supervised(
            &client,
            &domains,
            3,
            &CrawlOptions::default(),
            &SupervisorOptions::default(),
            || 0usize,
            |count: &mut usize, crawl: DomainCrawl| {
                *count += 1;
                crawl.pages.len()
            },
            |_count: &mut usize| {},
            |_letter: &DeadLetter| {},
        );
        assert_eq!(outcome.results.len(), 6, "survivors all present");
        assert_eq!(
            outcome.dead_letters,
            vec![DeadLetter {
                domain: "boom.com".to_string(),
                stage: FailStage::Crawl,
                message: "host exploded".to_string(),
            }]
        );
        assert_eq!(outcome.backpressure_stalls, 0);
    }

    #[test]
    fn supervised_process_panic_attributed_and_state_recovered() {
        let (net, domains) = make_net(8);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let recoveries = std::sync::atomic::AtomicUsize::new(0);
        let observed = std::sync::Mutex::new(Vec::<String>::new());
        for workers in [1usize, 3] {
            recoveries.store(0, Ordering::SeqCst);
            lock_or_recover(&observed).clear();
            let outcome = stream_all_supervised(
                &client,
                &domains,
                workers,
                &CrawlOptions::default(),
                &SupervisorOptions::default(),
                || 0usize,
                |count: &mut usize, crawl: DomainCrawl| {
                    if crawl.domain == "site3.com" {
                        panic!("annotator exploded");
                    }
                    *count += 1;
                },
                |_count: &mut usize| {
                    recoveries.fetch_add(1, Ordering::SeqCst);
                },
                |letter: &DeadLetter| {
                    lock_or_recover(&observed).push(letter.domain.clone());
                },
            );
            assert_eq!(outcome.results.len(), 7, "workers={workers}");
            assert_eq!(outcome.dead_letters.len(), 1);
            assert_eq!(outcome.dead_letters[0].stage, FailStage::Process);
            assert_eq!(outcome.dead_letters[0].stage.as_str(), "process");
            assert_eq!(outcome.dead_letters[0].message, "annotator exploded");
            assert_eq!(recoveries.load(Ordering::SeqCst), 1);
            assert_eq!(&*lock_or_recover(&observed), &["site3.com".to_string()]);
            assert_eq!(outcome.states.iter().sum::<usize>(), 7);
        }
    }

    #[test]
    fn supervised_dead_letters_worker_count_invariant() {
        let (net, mut domains) = make_net(12);
        for bad in ["kaboom.com", "fizzle.com"] {
            net.register(bad, |_req: &aipan_net::Request| -> Response {
                panic!("host exploded")
            });
            domains.push(bad.to_string());
        }
        let mut baseline: Option<(Vec<(String, usize)>, Vec<DeadLetter>)> = None;
        for workers in [1usize, 2, 5, 8] {
            let client = Client::new(net.clone(), FaultInjector::new(0, FaultConfig::none()));
            let outcome = stream_all_supervised(
                &client,
                &domains,
                workers,
                &CrawlOptions::default(),
                &SupervisorOptions::default(),
                || (),
                |_state: &mut (), crawl: DomainCrawl| crawl.pages.len(),
                |_state: &mut ()| {},
                |_letter: &DeadLetter| {},
            );
            match &baseline {
                None => baseline = Some((outcome.results, outcome.dead_letters)),
                Some((results, letters)) => {
                    assert_eq!(&outcome.results, results, "workers={workers}");
                    assert_eq!(&outcome.dead_letters, letters, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn supervised_backpressure_over_cap_serializes_but_completes() {
        let (net, domains) = make_net(10);
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let in_process = std::sync::atomic::AtomicUsize::new(0);
        let max_in_process = std::sync::atomic::AtomicUsize::new(0);
        // A probe permanently over the cap: the gate must degrade to
        // one-domain-at-a-time (never deadlock), so the pool still
        // finishes every domain.
        let probe = || usize::MAX;
        let outcome = stream_all_supervised(
            &client,
            &domains,
            4,
            &CrawlOptions::default(),
            &SupervisorOptions {
                memory_cap_bytes: Some(1),
                memory_probe: Some(&probe),
            },
            || (),
            |_state: &mut (), _crawl: DomainCrawl| {
                let now = in_process.fetch_add(1, Ordering::SeqCst) + 1;
                max_in_process.fetch_max(now, Ordering::SeqCst);
                in_process.fetch_sub(1, Ordering::SeqCst);
            },
            |_state: &mut ()| {},
            |_letter: &DeadLetter| {},
        );
        assert_eq!(outcome.results.len(), 10);
        assert!(outcome.dead_letters.is_empty());
        assert_eq!(
            max_in_process.load(Ordering::SeqCst),
            1,
            "over-cap admission must serialize in-flight domains"
        );
    }

    #[test]
    fn admission_gate_counts_a_deterministic_stall() {
        let entered = std::sync::atomic::AtomicBool::new(false);
        let probe = || {
            entered.store(true, Ordering::SeqCst);
            usize::MAX
        };
        let options = SupervisorOptions {
            memory_cap_bytes: Some(1),
            memory_probe: Some(&probe),
        };
        let gate = AdmissionGate::new(&options);
        gate.admit(); // in_flight: 0 → 1, probe not consulted
        assert!(!entered.load(Ordering::SeqCst));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                gate.admit(); // blocks: one in flight, probe over cap
                gate.release();
            });
            // The probe flips `entered` while the waiter holds the gate
            // lock, so our release() below cannot overtake the wait().
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            gate.release();
            waiter.join().expect("waiter thread");
        });
        assert_eq!(gate.stalls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unknown_domains_reported_as_failures() {
        let (net, mut domains) = make_net(3);
        domains.push("ghost.com".to_string());
        let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
        let results = crawl_pooled(&client, &domains, 2, &CrawlOptions::default());
        let ghost = results.iter().find(|r| r.domain == "ghost.com").unwrap();
        assert!(!ghost.is_success());
    }

    proptest! {
        // Exactly-once claiming: whatever the domain and worker counts,
        // every domain lands once in results ∪ dead letters, each claim is
        // counted by exactly one worker, and every worker yields its state.
        #[test]
        fn cursor_pool_processes_every_domain_exactly_once(
            n in 0usize..40,
            workers in 0usize..=9,
        ) {
            let (net, mut domains) = make_net(n);
            net.register("boom.com", |_req: &aipan_net::Request| -> Response {
                panic!("host exploded")
            });
            domains.push("boom.com".to_string());
            let client = Client::new(net, FaultInjector::new(0, FaultConfig::none()));
            let outcome = stream_all_supervised(
                &client,
                &domains,
                workers,
                &CrawlOptions::default(),
                &SupervisorOptions::default(),
                || 0usize,
                |count: &mut usize, crawl: DomainCrawl| {
                    *count += 1;
                    crawl.domain
                },
                |count: &mut usize| *count += 1,
                |_letter: &DeadLetter| {},
            );
            let mut seen: Vec<&str> = outcome
                .results
                .iter()
                .map(|(domain, _)| domain.as_str())
                .chain(outcome.dead_letters.iter().map(|l| l.domain.as_str()))
                .collect();
            seen.sort_unstable();
            let mut expected: Vec<&str> = domains.iter().map(String::as_str).collect();
            expected.sort_unstable();
            prop_assert_eq!(seen, expected);
            prop_assert_eq!(outcome.dead_letters.len(), 1);
            prop_assert!(outcome.results.iter().all(|(domain, echoed)| domain == echoed));
            prop_assert_eq!(outcome.states.iter().sum::<usize>(), domains.len());
            prop_assert_eq!(outcome.states.len(), workers.max(1));
        }
    }
}
