//! The traced run: one per workload, serial, separate from the timed runs.
//!
//! It re-drives the workload's per-domain path through the public
//! per-layer calls — `crawl_domain_with`, `aipan_html::{extract, lang}`,
//! `segment`, `annotate_policy_in`, `ShardedJournal` — with a span around
//! each call, a [`TracingHost`] over every lazily generated site and a
//! [`TracingChatbot`] around the simulated model. This re-drive is the one
//! deliberate copy of pipeline logic in the benchmark (it mirrors
//! `Pipeline::process_domain_arena` and the engine's per-domain closure);
//! the digest check against the untraced run keeps it faithful.

use crate::common::{
    base_hosts, client_for, digest, domains_of, export, pipeline_config, render_tables,
    restore_hosts, sectors_of, Settings,
};
use crate::report::Metric;
use crate::sampler::AuditSampler;
use crate::trace::{self, task_span, LayerTotal, Span, Tracer, TracingChatbot, TracingHost};
use crate::workloads::{
    chaos_resume, chaos_setup, lazy_world, ChaosSetup, DomainPath, AUDIT_DOMAINS,
    AUDIT_MIN_REQUESTS, CORPUS_DOMAINS,
};
use aipan_chatbot::prompt::TaskKind;
use aipan_chatbot::SimulatedChatbot;
use aipan_core::annotate::{annotate_policy_in, AnnotateArena, AnnotateOptions};
use aipan_core::segment::{self, Method};
use aipan_core::{
    run_pipeline_sharded, AnnotatedPolicy, Dataset, DiskFaultConfig, DiskFaultInjector,
    JournalEntry, PipelineRun, SegmentationMethod, ShardedJournal, DEFAULT_SHARDS,
};
use aipan_crawler::{crawl_domain_with, CrawlOptions, DomainCrawl};
use aipan_html::{extract, lang, ExtractedDoc};
use aipan_net::fault::FaultConfig;
use aipan_net::http::ContentType;
use aipan_net::{Client, TransportMetrics};
use aipan_taxonomy::Sector;
use aipan_webgen::World;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const CRAWL: &str = "crawler.crawl";
const PRIVACY_PAGES: &str = "crawler.privacy_pages";
const EXTRACT: &str = "html.extract";
const LANG: &str = "html.lang";
const SEGMENT: &str = "segment";
const ANNOTATE: &str = "annotate";
const RELEASE: &str = "webgen.release";
const JOURNAL_RECORD: &str = "journal.record";
const JOURNAL_OPEN: &str = "journal.open";
const JOURNAL_DEAD_LETTER: &str = "journal.dead_letter";
const JOURNAL_ASSEMBLE: &str = "journal.assemble";
const JOURNAL_CONSOLIDATE: &str = "journal.consolidate";
const EXPORT: &str = "dataset.export";
const TABLES: &str = "analysis.tables";

/// What the traced run of one workload reports.
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// Every recorded span, for the trace file.
    pub spans: Vec<Span>,
}

/// Work counted along the traced path.
#[derive(Debug, Default)]
struct Counts {
    crawls: u64,
    crawl_success: u64,
    privacy_pages_seen: u64,
    pages_kept: u64,
    html_bytes: u64,
    segmented: u64,
    text_analysis: u64,
    annotated: u64,
    with_fallback: u64,
    annotations: u64,
    hallucinations: u64,
}

/// The serial per-domain re-drive.
struct Redrive<'a> {
    world: &'a World,
    tracer: &'a Tracer,
    client: Client,
    crawl_options: CrawlOptions,
    chatbot: TracingChatbot<'a>,
    annotate: AnnotateOptions,
    arena: AnnotateArena,
    counts: Counts,
}

impl<'a> Redrive<'a> {
    fn new(world: &'a World, tracer: &'a Tracer, model: &'a SimulatedChatbot, seed: u64) -> Self {
        let config = pipeline_config(seed, 1);
        Redrive {
            world,
            tracer,
            client: client_for(world),
            crawl_options: config.crawl,
            chatbot: TracingChatbot::new(model, tracer),
            annotate: config.annotate,
            arena: AnnotateArena::new(),
            counts: Counts::default(),
        }
    }

    fn crawl(&mut self, domain: &str) -> DomainCrawl {
        let crawl = self.tracer.span(CRAWL, || {
            crawl_domain_with(&self.client, domain, &self.crawl_options)
        });
        self.counts.crawls += 1;
        self.counts.crawl_success += u64::from(crawl.is_success());
        crawl
    }

    fn release(&self, domain: &str) {
        self.tracer
            .span(RELEASE, || self.world.release_site(domain));
    }

    /// Mirror of `Pipeline::process_domain_arena`: English HTML privacy
    /// pages, the longest one segmented and annotated.
    fn process(&mut self, crawl: &DomainCrawl, sector: Sector) -> (usize, Option<AnnotatedPolicy>) {
        if !crawl.is_success() {
            return (0, None);
        }
        let tracer = self.tracer;
        let privacy = tracer.span(PRIVACY_PAGES, || crawl.privacy_pages());
        let mut pages: Vec<(ExtractedDoc, String)> = Vec::with_capacity(privacy.len());
        for page in privacy {
            self.counts.privacy_pages_seen += 1;
            if page.content_type != ContentType::Html {
                continue;
            }
            self.counts.html_bytes += page.body.len() as u64;
            let doc = tracer.span(EXTRACT, || extract(&page.body));
            let english = tracer.span(LANG, || {
                let text = doc.text();
                !text.trim().is_empty() && lang::is_english(&text)
            });
            if english {
                self.counts.pages_kept += 1;
                pages.push((doc, page.final_url.path.clone()));
            }
        }
        let english_pages = pages.len();
        let policy = pages
            .into_iter()
            .max_by_key(|(doc, _)| doc.word_count())
            .and_then(|(doc, path)| self.annotate_page(crawl, sector, &doc, path));
        (english_pages, policy)
    }

    fn annotate_page(
        &mut self,
        crawl: &DomainCrawl,
        sector: Sector,
        doc: &ExtractedDoc,
        path: String,
    ) -> Option<AnnotatedPolicy> {
        let tracer = self.tracer;
        let chatbot = &self.chatbot;
        let seg = tracer.span(SEGMENT, || segment::segment(chatbot, doc));
        self.counts.segmented += 1;
        self.counts.text_analysis += u64::from(seg.method == Method::TextAnalysis);
        if !seg.is_successful_extraction(doc) {
            return None;
        }
        let (options, arena) = (self.annotate, &mut self.arena);
        let outcome = tracer.span(ANNOTATE, || {
            annotate_policy_in(chatbot, doc, &seg, options, arena)
        });
        self.counts.annotated += 1;
        self.counts.with_fallback += u64::from(!outcome.fallbacks.is_empty());
        self.counts.annotations += outcome.annotations.len() as u64;
        self.counts.hallucinations += outcome.hallucinations_removed as u64;
        Some(AnnotatedPolicy {
            domain: crawl.domain.clone(),
            sector,
            annotations: outcome.annotations,
            fallbacks: outcome.fallbacks,
            hallucinations_removed: outcome.hallucinations_removed,
            core_word_count: seg.core_word_count(doc),
            segmentation: match seg.method {
                Method::Headings => SegmentationMethod::Headings,
                Method::TextAnalysis => SegmentationMethod::TextAnalysis,
            },
            policy_path: path,
        })
    }

    /// Mirror of the engine's per-domain closure: process unless already
    /// journaled, record, release.
    fn engine_domain(&mut self, crawl: DomainCrawl, sector: Sector, journal: &ShardedJournal) {
        if !journal.contains(&crawl.domain) {
            let (english_privacy_pages, policy) = self.process(&crawl, sector);
            let entry = JournalEntry {
                domain: crawl.domain.clone(),
                english_privacy_pages,
                policy,
            };
            self.tracer.span(JOURNAL_RECORD, || journal.record(entry));
        }
        self.release(&crawl.domain);
    }

    /// The engine's dataset assembly: journaled policies of the processed
    /// domains, in domain order.
    fn assemble(&self, processed: &[&String], journal: &ShardedJournal) -> Dataset {
        self.tracer.span(JOURNAL_ASSEMBLE, || Dataset {
            policies: processed
                .iter()
                .filter_map(|d| journal.get(d).and_then(|e| e.policy))
                .collect(),
        })
    }

    /// Export and tables, each in its span.
    fn finish(&self, dataset: &Dataset) -> Result<u64, String> {
        let json = self.tracer.span(EXPORT, || export(dataset))?;
        let tables = self.tracer.span(TABLES, || render_tables(dataset));
        Ok(digest(&json, &tables))
    }
}

fn install_tracing_hosts(world: &World, tracer: &Arc<Tracer>, skip: Option<&str>) {
    for (domain, site) in &world.lazy_hosts {
        if Some(domain.as_str()) != skip {
            let host = TracingHost::new(site.clone(), tracer.clone());
            world.internet.register_shared(domain, Arc::new(host));
        }
    }
}

/// An untraced engine run with an in-memory journal, export and tables:
/// `(engine seconds, engine+export+tables seconds, digest, run)`.
fn engine_once(
    world: &World,
    seed: u64,
    workers: usize,
) -> Result<(f64, f64, u64, PipelineRun), String> {
    let journal = ShardedJournal::in_memory(DEFAULT_SHARDS);
    let t0 = Instant::now();
    let run = run_pipeline_sharded(world, pipeline_config(seed, workers), &journal);
    let engine_s = t0.elapsed().as_secs_f64();
    let json = export(&run.dataset)?;
    let tables = render_tables(&run.dataset);
    let total_s = t0.elapsed().as_secs_f64();
    Ok((engine_s, total_s, digest(&json, &tables), run))
}

/// Inputs to the per-layer metrics besides the spans.
struct LayerInputs<'a> {
    spans: &'a [Span],
    /// Domains (or requests) the traced run drove.
    domains: u64,
    counts: &'a Counts,
    reprompts: u64,
    transport: TransportMetrics,
    peak_site_bytes: usize,
    /// Untraced `workers`-worker ÷ untraced 1-worker domains/s, where a
    /// pool runs.
    pool_speedup: Option<f64>,
    /// `(quarantined, backpressure stalls)` of the untraced pooled run.
    supervisor: Option<(usize, u64)>,
    journal: Option<JournalInputs>,
    traced_ns: u64,
    untraced_ns: u64,
    unattributed_ns: u64,
}

struct JournalInputs {
    /// Entries loaded by `open`, when the workload reopens a journal.
    opened_entries: Option<usize>,
    bytes_per_domain: f64,
    disk_retries: usize,
    write_errors: usize,
}

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order. Metrics of a layer
/// the workload does not run read 0.
fn layer_metrics(inp: &LayerInputs<'_>) -> Vec<Metric> {
    let t = trace::totals(inp.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let per_domain = |ms: f64| ratio(ms, inp.domains as f64);
    let per_span = |l: LayerTotal, ms: f64| ratio(ms, l.count as f64);
    let c = inp.counts;
    let gen = get(trace::WEBGEN_GENERATE);
    let (quarantined, stalls) = inp.supervisor.unwrap_or((0, 0));
    let mut m = vec![
        Metric::new(
            "webgen.site_gen_ms_per_domain",
            per_domain(gen.total_ms()),
            "ms",
        ),
        Metric::new(
            "webgen.sites_generated_per_domain",
            per_domain(gen.count as f64),
            "count",
        ),
        Metric::new(
            "webgen.peak_site_kb",
            inp.peak_site_bytes as f64 / 1024.0,
            "kB",
        ),
        Metric::new(
            "net.serve_ms_per_domain",
            per_domain(get(trace::NET_SERVE).total_ms()),
            "ms",
        ),
        Metric::new(
            "net.requests_per_domain",
            per_domain(inp.transport.requests as f64),
            "count",
        ),
        Metric::new(
            "net.retries_per_domain",
            per_domain(inp.transport.retries as f64),
            "count",
        ),
        Metric::new(
            "net.breaker_opens",
            inp.transport.breaker_opens as f64,
            "count",
        ),
        Metric::new(
            "crawler.crawl_ms_per_domain",
            per_domain(get(CRAWL).self_ms() + get(PRIVACY_PAGES).total_ms()),
            "ms",
        ),
        Metric::new(
            "crawler.success_ratio",
            ratio(c.crawl_success as f64, c.crawls as f64),
            "ratio",
        ),
        Metric::new("pool.speedup", inp.pool_speedup.unwrap_or(0.0), "x"),
        Metric::new("supervisor.quarantined", quarantined as f64, "count"),
        Metric::new("supervisor.backpressure_stalls", stalls as f64, "count"),
        Metric::new(
            "html.extract_ms_per_page",
            per_span(get(EXTRACT), get(EXTRACT).total_ms()),
            "ms",
        ),
        Metric::new(
            "html.lang_ms_per_page",
            per_span(get(LANG), get(LANG).total_ms()),
            "ms",
        ),
        Metric::new(
            "html.kept_page_ratio",
            ratio(c.pages_kept as f64, c.privacy_pages_seen as f64),
            "ratio",
        ),
        Metric::new(
            "html.bytes_per_domain",
            per_domain(c.html_bytes as f64),
            "B",
        ),
        Metric::new(
            "segment.self_ms_per_policy",
            per_span(get(SEGMENT), get(SEGMENT).self_ms()),
            "ms",
        ),
        Metric::new(
            "segment.text_analysis_share",
            ratio(c.text_analysis as f64, c.segmented as f64),
            "ratio",
        ),
    ];
    let mut calls = 0u64;
    for kind in TaskKind::ALL {
        let task = get(task_span(kind));
        calls += task.count;
        m.push(Metric::new(
            format!("chatbot.{}.calls", kind.name()),
            task.count as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("chatbot.{}.ms", kind.name()),
            task.total_ms(),
            "ms",
        ));
    }
    m.push(Metric::new(
        "chatbot.reprompt_ratio",
        ratio(inp.reprompts as f64, calls as f64),
        "ratio",
    ));
    m.extend([
        Metric::new(
            "annotate.self_ms_per_policy",
            per_span(get(ANNOTATE), get(ANNOTATE).self_ms()),
            "ms",
        ),
        Metric::new(
            "annotate.fallback_ratio",
            ratio(c.with_fallback as f64, c.annotated as f64),
            "ratio",
        ),
        Metric::new(
            "annotate.hallucination_ratio",
            ratio(
                c.hallucinations as f64,
                (c.hallucinations + c.annotations) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "annotate.annotations_per_policy",
            ratio(c.annotations as f64, c.annotated as f64),
            "count",
        ),
    ]);
    let record = get(JOURNAL_RECORD);
    let (open_per_entry, consolidate_ms, bytes, retries, errors) = match &inp.journal {
        Some(j) => (
            j.opened_entries
                .map_or(0.0, |n| ratio(get(JOURNAL_OPEN).total_ms(), n as f64)),
            get(JOURNAL_CONSOLIDATE).total_ms(),
            j.bytes_per_domain,
            j.disk_retries as f64,
            j.write_errors as f64,
        ),
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    m.extend([
        Metric::new(
            "journal.record_ms_per_domain",
            per_span(record, record.total_ms()),
            "ms",
        ),
        Metric::new("journal.open_ms_per_entry", open_per_entry, "ms"),
        Metric::new("journal.consolidate_ms", consolidate_ms, "ms"),
        Metric::new("journal.bytes_per_domain", bytes, "B"),
        Metric::new("journal.disk_retries", retries, "count"),
        Metric::new("journal.write_errors", errors, "count"),
        Metric::new("dataset.export_ms", get(EXPORT).total_ms(), "ms"),
        Metric::new("analysis.tables_ms", get(TABLES).total_ms(), "ms"),
        Metric::new(
            "trace.overhead_ratio",
            ratio(inp.traced_ns as f64, inp.untraced_ns as f64),
            "ratio",
        ),
        Metric::new(
            "trace.unattributed_ms_per_domain",
            per_domain(inp.unattributed_ns as f64 / 1e6),
            "ms",
        ),
    ]);
    m
}

fn check_digest(workload: &str, traced: u64, untraced: u64) -> Result<(), String> {
    if traced != untraced {
        return Err(format!(
            "{workload}: traced-run digest {traced:016x} differs from the untraced run's {untraced:016x}; the traced re-drive has diverged from the pipeline"
        ));
    }
    Ok(())
}

fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

fn fidelity_note(workload: &str, digest: u64, inp: &LayerInputs<'_>) -> String {
    format!(
        "{workload} traced: {} domains serial; digest {digest:016x} equals the untraced run's; traced {:.1} ms vs untraced {:.1} ms; unattributed {:.1} ms",
        inp.domains,
        inp.traced_ns as f64 / 1e6,
        inp.untraced_ns as f64 / 1e6,
        inp.unattributed_ns as f64 / 1e6
    )
}

/// Traced `corpus`.
pub fn corpus(settings: &Settings) -> Result<Traced, String> {
    let world = lazy_world(settings.seed, CORPUS_DOMAINS, FaultConfig::default());
    let domains = domains_of(&world);
    let sectors = sectors_of(&world, &domains);
    let hosts = base_hosts(&world, &domains);

    let (serial_engine_s, serial_s, serial_digest, _) = engine_once(&world, settings.seed, 1)?;
    let (pooled_engine_s, _, pooled_digest, pooled) =
        engine_once(&world, settings.seed, settings.workers)?;
    check_digest(
        "corpus (pooled vs serial engine)",
        pooled_digest,
        serial_digest,
    )?;

    let tracer = Arc::new(Tracer::new());
    let model = SimulatedChatbot::new(pipeline_config(settings.seed, 1).profile, settings.seed);
    install_tracing_hosts(&world, &tracer, None);
    let journal = ShardedJournal::in_memory(DEFAULT_SHARDS);
    let mut redrive = Redrive::new(&world, &tracer, &model, settings.seed);
    let lo = tracer.clock_ns();
    for (i, (domain, &sector)) in domains.iter().zip(&sectors).enumerate() {
        tracer.set_request(i as u32);
        let crawl = redrive.crawl(domain);
        redrive.engine_domain(crawl, sector, &journal);
    }
    let processed: Vec<&String> = domains.iter().collect();
    let dataset = redrive.assemble(&processed, &journal);
    let traced_digest = redrive.finish(&dataset)?;
    let hi = tracer.clock_ns();
    restore_hosts(&world, &hosts);
    check_digest("corpus", traced_digest, serial_digest)?;

    let spans = tracer.spans();
    let merged = journal.merged();
    let inputs = LayerInputs {
        spans: &spans,
        domains: domains.len() as u64,
        counts: &redrive.counts,
        reprompts: redrive.chatbot.reprompts(),
        transport: redrive.client.metrics(),
        peak_site_bytes: world.site_memory.peak_bytes(),
        pool_speedup: Some(serial_engine_s / pooled_engine_s.max(1e-9)),
        supervisor: Some((
            pooled.health.quarantine.len(),
            pooled.health.backpressure_stalls,
        )),
        journal: Some(JournalInputs {
            opened_entries: None,
            bytes_per_domain: ratio(merged.to_jsonl().len() as f64, merged.len() as f64),
            disk_retries: journal.disk_retries(),
            write_errors: journal.write_errors(),
        }),
        traced_ns: hi - lo,
        untraced_ns: secs_to_ns(serial_s),
        unattributed_ns: trace::unattributed_ns(&spans, lo, hi),
    };
    Ok(Traced {
        metrics: layer_metrics(&inputs),
        notes: vec![fidelity_note("corpus", traced_digest, &inputs)],
        spans,
    })
}

/// Traced `audit`: a fixed [`AUDIT_MIN_REQUESTS`]-request draw, untraced
/// then traced.
pub fn audit(settings: &Settings) -> Result<Traced, String> {
    let world = lazy_world(settings.seed, AUDIT_DOMAINS, FaultConfig::default());
    let domains = domains_of(&world);
    let sectors = sectors_of(&world, &domains);
    let mut sampler = AuditSampler::new(settings.seed, domains.len());
    let draws: Vec<usize> = (0..AUDIT_MIN_REQUESTS).map(|_| sampler.draw()).collect();

    // Untraced: the same requests through the per-domain path.
    let hosts = base_hosts(&world, &domains);
    let path = DomainPath::new(&world, settings.seed);
    let t0 = Instant::now();
    let mut untraced: BTreeMap<usize, Option<AnnotatedPolicy>> = BTreeMap::new();
    for &i in &draws {
        let policy = path.request(&world, &domains[i], sectors[i]);
        untraced.entry(i).or_insert(policy);
    }
    let untraced_set = Dataset {
        policies: untraced.values().flatten().cloned().collect(),
    };
    let untraced_digest = digest(&export(&untraced_set)?, &render_tables(&untraced_set));
    let untraced_s = t0.elapsed().as_secs_f64();

    let tracer = Arc::new(Tracer::new());
    let model = SimulatedChatbot::new(pipeline_config(settings.seed, 1).profile, settings.seed);
    install_tracing_hosts(&world, &tracer, None);
    let mut redrive = Redrive::new(&world, &tracer, &model, settings.seed);
    let mut traced: BTreeMap<usize, Option<AnnotatedPolicy>> = BTreeMap::new();
    let lo = tracer.clock_ns();
    for (n, &i) in draws.iter().enumerate() {
        tracer.set_request(n as u32);
        let crawl = redrive.crawl(&domains[i]);
        let (_, policy) = redrive.process(&crawl, sectors[i]);
        redrive.release(&domains[i]);
        traced.entry(i).or_insert(policy);
    }
    let traced_set = Dataset {
        policies: traced.values().flatten().cloned().collect(),
    };
    let traced_digest = redrive.finish(&traced_set)?;
    let hi = tracer.clock_ns();
    restore_hosts(&world, &hosts);
    check_digest("audit", traced_digest, untraced_digest)?;

    let spans = tracer.spans();
    let inputs = LayerInputs {
        spans: &spans,
        domains: draws.len() as u64,
        counts: &redrive.counts,
        reprompts: redrive.chatbot.reprompts(),
        transport: redrive.client.metrics(),
        peak_site_bytes: world.site_memory.peak_bytes(),
        pool_speedup: None,
        supervisor: None,
        journal: None,
        traced_ns: hi - lo,
        untraced_ns: secs_to_ns(untraced_s),
        unattributed_ns: trace::unattributed_ns(&spans, lo, hi),
    };
    Ok(Traced {
        metrics: layer_metrics(&inputs),
        notes: vec![fidelity_note("audit", traced_digest, &inputs)],
        spans,
    })
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// An untraced resume with `workers` workers from a fresh pre-filled
/// journal: `(resume seconds, resume+export+tables seconds, digest, run)`.
fn untraced_resume(
    setup: &ChaosSetup,
    seed: u64,
    workers: usize,
) -> Result<(f64, f64, u64, PipelineRun), String> {
    setup.reset_journal()?;
    let t0 = Instant::now();
    let resumed = chaos_resume(setup, seed, workers)?;
    let resume_s = t0.elapsed().as_secs_f64();
    let json = export(&resumed.run.dataset)?;
    let tables = render_tables(&resumed.run.dataset);
    let total_s = t0.elapsed().as_secs_f64();
    setup.check(&resumed.run)?;
    Ok((resume_s, total_s, digest(&json, &tables), resumed.run))
}

/// Traced `resume_chaos`.
pub fn resume_chaos(settings: &Settings, dir: &Path) -> Result<Traced, String> {
    let setup = chaos_setup(settings, dir)?;
    let (serial_resume_s, serial_s, serial_digest, _) = untraced_resume(&setup, settings.seed, 1)?;
    let (pooled_resume_s, _, pooled_digest, pooled) =
        untraced_resume(&setup, settings.seed, settings.workers)?;
    check_digest(
        "resume_chaos (pooled vs serial engine)",
        pooled_digest,
        serial_digest,
    )?;

    setup.reset_journal()?;
    let world = &setup.world;
    let sectors = sectors_of(world, &setup.domains);
    let tracer = Arc::new(Tracer::new());
    let model = SimulatedChatbot::new(pipeline_config(settings.seed, 1).profile, settings.seed);
    install_tracing_hosts(world, &tracer, Some(&setup.victim));
    let mut redrive = Redrive::new(world, &tracer, &model, settings.seed);
    let base = setup.base();
    let lo = tracer.clock_ns();
    let journal = tracer.span(JOURNAL_OPEN, || {
        ShardedJournal::open_with(
            &base,
            DEFAULT_SHARDS,
            DiskFaultInjector::new(settings.seed, DiskFaultConfig::chaotic()),
        )
    });
    let mut processed: Vec<&String> = Vec::with_capacity(setup.domains.len());
    let mut dead: Vec<&String> = Vec::new();
    for (i, (domain, &sector)) in setup.domains.iter().zip(&sectors).enumerate() {
        tracer.set_request(i as u32);
        // The supervisor's isolation: a panicking chain becomes a dead
        // letter and the run goes on.
        let chain = catch_unwind(AssertUnwindSafe(|| redrive.crawl(domain)))
            .map_err(|p| ("crawl", panic_text(p.as_ref())))
            .and_then(|crawl| {
                catch_unwind(AssertUnwindSafe(|| {
                    redrive.engine_domain(crawl, sector, &journal)
                }))
                .map_err(|p| ("process", panic_text(p.as_ref())))
            });
        match chain {
            Ok(()) => processed.push(domain),
            Err((stage, message)) => {
                tracer.span(JOURNAL_DEAD_LETTER, || {
                    journal.record_dead_letter(domain, stage, &message)
                });
                world.release_site(domain);
                dead.push(domain);
            }
        }
    }
    let dataset = redrive.assemble(&processed, &journal);
    tracer
        .span(JOURNAL_CONSOLIDATE, || journal.consolidate(&base))
        .map_err(|e| format!("resume_chaos traced: consolidate failed: {e}"))?;
    let traced_digest = redrive.finish(&dataset)?;
    let hi = tracer.clock_ns();
    restore_hosts(world, &setup.hosts);

    check_digest("resume_chaos", traced_digest, serial_digest)?;
    if export(&dataset)? != setup.reference_json {
        return Err("resume_chaos traced: dataset differs from the reference run's".to_string());
    }
    if dead != [&setup.victim] {
        return Err(format!(
            "resume_chaos traced: dead letters {dead:?}, expected exactly [{}]",
            setup.victim
        ));
    }
    if journal.write_errors() != 0 || journal.disk_retries() == 0 {
        return Err(format!(
            "resume_chaos traced: {} write errors and {} disk retries; expected 0 and more than 0",
            journal.write_errors(),
            journal.disk_retries()
        ));
    }
    let file_bytes = std::fs::metadata(&base).map_or(0, |m| m.len());
    let journal_inputs = JournalInputs {
        opened_entries: Some(setup.prefilled),
        bytes_per_domain: ratio(file_bytes as f64, journal.len() as f64),
        disk_retries: journal.disk_retries(),
        write_errors: journal.write_errors(),
    };
    let _ = std::fs::remove_dir_all(&setup.dir);

    let spans = tracer.spans();
    let inputs = LayerInputs {
        spans: &spans,
        domains: setup.domains.len() as u64,
        counts: &redrive.counts,
        reprompts: redrive.chatbot.reprompts(),
        transport: redrive.client.metrics(),
        peak_site_bytes: world.site_memory.peak_bytes(),
        pool_speedup: Some(serial_resume_s / pooled_resume_s.max(1e-9)),
        supervisor: Some((
            pooled.health.quarantine.len(),
            pooled.health.backpressure_stalls,
        )),
        journal: Some(journal_inputs),
        traced_ns: hi - lo,
        untraced_ns: secs_to_ns(serial_s),
        unattributed_ns: trace::unattributed_ns(&spans, lo, hi),
    };
    Ok(Traced {
        metrics: layer_metrics(&inputs),
        notes: vec![fidelity_note("resume_chaos", traced_digest, &inputs)],
        spans,
    })
}
