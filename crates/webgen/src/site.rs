//! Assembling company websites and the full simulated world.
//!
//! Each domain gets a deterministic [`CompanyFate`] that reproduces one of
//! the §4 failure classes (or `Normal`), a site layout variant (canonical
//! `/privacy-policy`, `/privacy`, custom paths, or a privacy-center
//! arrangement — calibrated so the §3.1 path-existence rates hold), and its
//! rendered pages registered on an [`Internet`].

use crate::groundtruth::GroundTruth;
use crate::policy::{render_policy, render_policy_german, render_policy_mixed, PolicyStyle};
use crate::rng;
use crate::search::SearchIndex;
use crate::universe::{Company, Universe, UNIVERSE_SIZE};
use aipan_net::fault::FaultConfig;
use aipan_net::host::{StaticSite, VirtualHost};
use aipan_net::http::{Request, Response, Status};
use aipan_net::Internet;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The fate assigned to a company's website, reproducing the §4 audit
/// classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CompanyFate {
    /// Policy present and extractable.
    Normal,
    /// The site has no privacy policy at all.
    NoPolicy,
    /// Policy exists but is linked as "Legal Notices" (no "privacy" in the
    /// link text or target).
    HiddenLegalLink,
    /// The footer privacy link triggers a JavaScript action instead of
    /// navigation.
    JsActionLink,
    /// The privacy link lives only inside a collapsed consent box.
    ConsentBoxLink,
    /// The policy is served as a PDF.
    PdfPolicy,
    /// The site (and policy) is in German.
    NonEnglish,
    /// The policy mixes English and German; pre-processing discards it.
    MixedLanguage,
    /// The privacy page is an empty JavaScript-rendered shell.
    JsLoadedPolicy,
    /// The policy is embedded as an image.
    ImagePolicy,
    /// The policy body is hidden inside collapsed expandable elements.
    ExpandablePolicy,
}

impl CompanyFate {
    /// Assign the fate for `(seed, domain)` at the calibrated rates.
    pub fn assign(seed: u64, domain: &str) -> CompanyFate {
        let u = rng::unit(seed, "fate", domain);
        match u {
            x if x < 0.072 => CompanyFate::NoPolicy,
            x if x < 0.079 => CompanyFate::HiddenLegalLink,
            x if x < 0.0815 => CompanyFate::JsActionLink,
            x if x < 0.084 => CompanyFate::ConsentBoxLink,
            x if x < 0.098 => CompanyFate::PdfPolicy,
            x if x < 0.103 => CompanyFate::NonEnglish,
            x if x < 0.1045 => CompanyFate::MixedLanguage,
            x if x < 0.1105 => CompanyFate::JsLoadedPolicy,
            x if x < 0.113 => CompanyFate::ImagePolicy,
            x if x < 0.116 => CompanyFate::ExpandablePolicy,
            _ => CompanyFate::Normal,
        }
    }

    /// Whether a correctly functioning pipeline should fully annotate this
    /// site.
    pub fn expect_extraction(self) -> bool {
        self == CompanyFate::Normal
    }

    /// Path of the page actually containing the policy under this fate —
    /// the single source of truth shared by eager metadata construction and
    /// lazy site assembly (`None` for [`CompanyFate::NoPolicy`]).
    pub fn policy_path(self, seed: u64, domain: &str) -> Option<&'static str> {
        match self {
            CompanyFate::NoPolicy => None,
            CompanyFate::Normal => Some(SiteLayout::assign(seed, domain).policy_path()),
            CompanyFate::HiddenLegalLink => Some("/legal-notices"),
            CompanyFate::JsActionLink => Some("/modal/privacy-content"),
            CompanyFate::ConsentBoxLink => Some("/legal/privacy-statement"),
            CompanyFate::PdfPolicy => Some("/docs/privacy-policy.pdf"),
            CompanyFate::NonEnglish => Some("/privacy"),
            CompanyFate::MixedLanguage
            | CompanyFate::JsLoadedPolicy
            | CompanyFate::ImagePolicy
            | CompanyFate::ExpandablePolicy => Some("/privacy-policy"),
        }
    }
}

/// Layout variant of a normal site's privacy pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteLayout {
    /// `/privacy-policy` real page, `/privacy` redirects to it.
    Both,
    /// Only `/privacy-policy`.
    PolicyPathOnly,
    /// Only `/privacy`.
    PrivacyPathOnly,
    /// Custom path (`/legal/privacy-notice`), neither standard path exists.
    Custom,
    /// A privacy center at `/privacy` with the actual policy one link
    /// deeper at `/privacy/policy`.
    Center,
}

impl SiteLayout {
    /// Assign the layout for `(seed, domain)` at rates calibrated to the
    /// §3.1 path-existence statistics (54.5% `/privacy-policy`, 48.6%
    /// `/privacy` over all domains).
    pub fn assign(seed: u64, domain: &str) -> SiteLayout {
        let u = rng::unit(seed, "layout", domain);
        match u {
            x if x < 0.30 => SiteLayout::Both,
            x if x < 0.60 => SiteLayout::PolicyPathOnly,
            x if x < 0.76 => SiteLayout::PrivacyPathOnly,
            x if x < 0.92 => SiteLayout::Custom,
            _ => SiteLayout::Center,
        }
    }

    /// Path of the page that actually contains the policy.
    pub fn policy_path(self) -> &'static str {
        match self {
            SiteLayout::Both | SiteLayout::PolicyPathOnly => "/privacy-policy",
            SiteLayout::PrivacyPathOnly => "/privacy",
            SiteLayout::Custom => "/legal/privacy-notice",
            SiteLayout::Center => "/privacy/policy",
        }
    }
}

/// Configuration for building a world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of index constituents (2916 reproduces the paper).
    pub universe_size: usize,
    /// Network fault configuration.
    pub faults: FaultConfig,
    /// Policy revision number: 0 is the initial snapshot; higher values
    /// apply that many update cycles to every policy (longitudinal trend
    /// analysis).
    pub revision: u32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            universe_size: UNIVERSE_SIZE,
            faults: FaultConfig::default(),
            revision: 0,
        }
    }
}

impl WorldConfig {
    /// A small world for tests and examples.
    pub fn small(seed: u64, universe_size: usize) -> WorldConfig {
        WorldConfig {
            seed,
            universe_size,
            faults: FaultConfig::default(),
            revision: 0,
        }
    }

    /// The same world at a later policy revision.
    pub fn at_revision(mut self, revision: u32) -> WorldConfig {
        self.revision = revision;
        self
    }
}

/// The fully built simulated world.
pub struct World {
    /// The configuration used.
    pub config: WorldConfig,
    /// The company universe.
    pub universe: Universe,
    /// The simulated search index.
    pub search: SearchIndex,
    /// The simulated web.
    pub internet: Internet,
    /// Per-domain fates.
    pub fates: BTreeMap<String, CompanyFate>,
    /// Per-domain planted ground truth (absent for [`CompanyFate::NoPolicy`]).
    pub truths: BTreeMap<String, GroundTruth>,
    /// Per-domain policy rendering style.
    pub styles: BTreeMap<String, PolicyStyle>,
    /// Per-domain path of the page actually containing the policy (absent
    /// for `NoPolicy`).
    pub policy_paths: BTreeMap<String, String>,
    /// Lazily generated hosts by domain (empty for eagerly built worlds):
    /// each site is materialized on first fetch and can be released once
    /// its domain has been processed, bounding resident memory by the
    /// number of in-flight domains instead of the universe size.
    pub lazy_hosts: BTreeMap<String, Arc<LazySite>>,
    /// Resident-site memory gauge. Lazy worlds track the live total and
    /// high-water mark across materialize/release cycles; eager worlds
    /// record the full registered byte count once at build time.
    pub site_memory: Arc<MemoryGauge>,
}

impl World {
    /// Fate of a domain (`Normal` for unknown domains).
    pub fn fate(&self, domain: &str) -> CompanyFate {
        self.fates
            .get(domain)
            .copied()
            .unwrap_or(CompanyFate::Normal)
    }

    /// Ground truth of a domain.
    pub fn truth(&self, domain: &str) -> Option<&GroundTruth> {
        self.truths.get(domain)
    }

    /// The first-listed company for a domain.
    pub fn company(&self, domain: &str) -> Option<&Company> {
        self.universe.by_domain(domain)
    }

    /// Count of domains with each fate.
    pub fn fate_histogram(&self) -> BTreeMap<CompanyFate, usize> {
        let mut h = BTreeMap::new();
        for &fate in self.fates.values() {
            *h.entry(fate).or_insert(0) += 1;
        }
        h
    }

    /// Release `domain`'s materialized site, if this world is lazy and the
    /// site has been built. The next fetch re-materializes it from the same
    /// keyed RNG, byte-identical. No-op for eager worlds.
    pub fn release_site(&self, domain: &str) {
        if let Some(host) = self.lazy_hosts.get(domain) {
            host.release();
        }
    }
}

/// Current and peak resident bytes, tracked with commutative atomic ops so
/// worker threads never serialize on the gauge.
#[derive(Debug, Default)]
pub struct MemoryGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryGauge {
    /// Account `bytes` newly resident and advance the high-water mark.
    pub fn add(&self, bytes: usize) {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Account `bytes` released. Saturates at zero: a double release (or a
    /// release racing a concurrent accounting reset) must not wrap
    /// `current` to ~`usize::MAX` and poison every later backpressure
    /// decision made against the gauge.
    pub fn sub(&self, bytes: usize) {
        let _prev = self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Bytes currently resident.
    pub fn current_bytes(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark of resident bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A virtual host whose site is generated on first fetch.
///
/// Site assembly is a pure function of `(seed, revision, company, fate)` —
/// all per-domain randomness is drawn from keyed RNG streams — so a lazily
/// materialized site is byte-identical to the one eager [`build_world`]
/// would have registered, regardless of fetch order or worker count. The
/// site is cached behind a mutex; [`LazySite::release`] drops the cache so
/// a streaming pipeline holds only its in-flight domains' sites.
pub struct LazySite {
    seed: u64,
    revision: u32,
    company: Company,
    fate: CompanyFate,
    gauge: Arc<MemoryGauge>,
    built: Mutex<Option<Arc<StaticSite>>>,
}

impl LazySite {
    /// The cached site, materializing it on first use. Assembly runs
    /// outside the cache lock (the lock guards only the install), so a
    /// racing fetch at worst assembles a duplicate that is then discarded
    /// in favor of the winner's — never a torn or double-counted site.
    fn materialize(&self) -> Arc<StaticSite> {
        if let Some(site) = self.built.lock().clone() {
            return site;
        }
        let assembled = Arc::new(assemble_site(
            self.seed,
            self.revision,
            &self.company,
            self.fate,
        ));
        let bytes = assembled.resident_bytes();
        {
            let mut slot = self.built.lock();
            if let Some(existing) = slot.as_ref() {
                return existing.clone();
            }
            *slot = Some(assembled.clone());
        }
        self.gauge.add(bytes);
        assembled
    }

    /// Drop the cached site (it rebuilds, byte-identical, on next fetch).
    pub fn release(&self) {
        if let Some(site) = self.built.lock().take() {
            self.gauge.sub(site.resident_bytes());
        }
    }

    /// Whether the site is currently materialized.
    pub fn is_built(&self) -> bool {
        self.built.lock().is_some()
    }
}

impl VirtualHost for LazySite {
    fn handle(&self, request: &Request) -> Response {
        self.materialize().handle(request)
    }
}

/// Build the full simulated world for `config`, with every site rendered
/// and registered eagerly.
pub fn build_world(config: WorldConfig) -> World {
    build_world_mode(config, false)
}

/// Build the world with **lazy** per-domain site generation: metadata
/// (universe, search index, fates, ground truths, styles, policy paths) is
/// constructed eagerly exactly as [`build_world`] does, but each domain's
/// pages are only rendered on its first fetch, and can be dropped again
/// via [`World::release_site`]. Crawl results are byte-identical to the
/// eager world's; resident site memory is bounded by the number of
/// materialized (in-flight) domains rather than the universe size.
pub fn build_world_lazy(config: WorldConfig) -> World {
    build_world_mode(config, true)
}

fn build_world_mode(config: WorldConfig, lazy: bool) -> World {
    let universe = Universe::generate_sized(config.seed, config.universe_size);
    let search = SearchIndex::build(config.seed, &universe);
    let internet = Internet::new();
    let site_memory = Arc::new(MemoryGauge::default());
    let mut fates = BTreeMap::new();
    let mut truths = BTreeMap::new();
    let mut styles = BTreeMap::new();
    let mut policy_paths = BTreeMap::new();
    let mut lazy_hosts = BTreeMap::new();

    for company in universe.unique_domains() {
        let domain = company.domain.clone();
        let fate = CompanyFate::assign(config.seed, &domain);
        fates.insert(domain.clone(), fate);
        if let Some(path) = fate.policy_path(config.seed, &domain) {
            policy_paths.insert(domain.clone(), path.to_string());
        }
        let style = PolicyStyle::sample(config.seed, &domain);
        let truth = match fate {
            CompanyFate::NoPolicy => None,
            _ => Some(
                GroundTruth::sample(config.seed, &domain, company.sector)
                    .revise(config.seed, config.revision),
            ),
        };

        if lazy {
            let host = Arc::new(LazySite {
                seed: config.seed,
                revision: config.revision,
                company: company.clone(),
                fate,
                gauge: site_memory.clone(),
                built: Mutex::new(None),
            });
            internet.register_shared(&domain, host.clone());
            lazy_hosts.insert(domain.clone(), host);
        } else {
            let site = assemble_site_with(config.seed, company, fate, truth.as_ref(), &style);
            site_memory.add(site.resident_bytes());
            internet.register(&domain, site);
        }

        if let Some(truth) = truth {
            truths.insert(domain.clone(), truth);
        }
        styles.insert(domain, style);
    }

    World {
        config,
        universe,
        search,
        internet,
        fates,
        truths,
        styles,
        policy_paths,
        lazy_hosts,
        site_memory,
    }
}

/// Assemble one domain's full site from scratch — the lazy-generation
/// entry point. Pure in `(seed, revision, company, fate)`.
fn assemble_site(seed: u64, revision: u32, company: &Company, fate: CompanyFate) -> StaticSite {
    let style = PolicyStyle::sample(seed, &company.domain);
    let truth = match fate {
        CompanyFate::NoPolicy => None,
        _ => {
            Some(GroundTruth::sample(seed, &company.domain, company.sector).revise(seed, revision))
        }
    };
    assemble_site_with(seed, company, fate, truth.as_ref(), &style)
}

/// Assemble one domain's site from pre-sampled metadata (shared by the
/// eager build loop, which already holds the truth and style).
fn assemble_site_with(
    seed: u64,
    company: &Company,
    fate: CompanyFate,
    truth: Option<&GroundTruth>,
    style: &PolicyStyle,
) -> StaticSite {
    let mut site = match (fate, truth) {
        (CompanyFate::NoPolicy, _) | (_, None) => build_no_policy_site(company),
        (_, Some(truth)) => build_site(seed, company, truth, style, fate),
    };
    if let Some(robots) = robots_txt(seed, &company.domain) {
        site = site.page("/robots.txt", robots);
    }
    site
}

// ---------------------------------------------------------------------------
// Page assembly
// ---------------------------------------------------------------------------

fn page(title: &str, header: &str, main: &str, footer: &str) -> Response {
    Response::html(format!(
        "<!DOCTYPE html><html><head><title>{title}</title></head><body>\
         <header><nav>{header}</nav></header>\
         <main>{main}</main>\
         <footer>{footer}</footer>\
         </body></html>"
    ))
}

/// Whether `domain`'s robots.txt disallows all crawling (a compliant
/// crawler then fetches nothing; used by the §4 failure audit).
pub fn robots_blocks_all(seed: u64, domain: &str) -> bool {
    rng::unit(seed, "robots", domain) < 0.002
}

/// robots.txt for a site: ~75% of sites publish one (benign rules plus an
/// occasional crawl-delay); a tiny fraction disallow all crawling, which a
/// compliant crawler must honor (one of the §4 blocked-crawl flavors).
fn robots_txt(seed: u64, domain: &str) -> Option<Response> {
    let u = rng::unit(seed, "robots", domain);
    if u > 0.75 {
        return None; // no robots.txt → 404
    }
    let body = if u < 0.002 {
        "User-agent: *\nDisallow: /\n".to_string()
    } else if u < 0.20 {
        "User-agent: *\nCrawl-delay: 2\nDisallow: /admin\nDisallow: /cart\n".to_string()
    } else {
        format!(
            "# robots.txt for {domain}\nUser-agent: *\nDisallow: /admin\n\
             Disallow: /internal\nSitemap: https://{domain}/sitemap.xml\n"
        )
    };
    Some(Response {
        status: aipan_net::http::Status::OK,
        content_type: aipan_net::http::ContentType::Plain,
        body: body.into(),
        location: None,
    })
}

fn standard_header() -> String {
    "<a href=\"/\">Home</a> <a href=\"/about\">About</a> \
     <a href=\"/products\">Products</a> <a href=\"/careers\">Careers</a>"
        .to_string()
}

fn footer_links(privacy_links: &[(&str, &str)]) -> String {
    let mut f = String::from("<a href=\"/terms\">Terms of Use</a> ");
    for (text, href) in privacy_links {
        f.push_str(&format!("<a href=\"{href}\">{text}</a> "));
    }
    f.push_str("<a href=\"/accessibility\">Accessibility</a> <a href=\"/sitemap\">Sitemap</a>");
    f
}

fn marketing(company: &Company) -> String {
    format!(
        "<h1>{0}</h1>\
         <p>Welcome to {0}, a leader in the {1} space. Explore what makes our team \
         different and how we deliver for our stakeholders every day.</p>\
         <p>Founded on a commitment to excellence, {0} operates across multiple markets \
         and is proud of the communities we serve.</p>",
        company.name,
        company.sector.name().to_lowercase()
    )
}

/// Build the site for one company under its fate. Returns the site and the
/// path of the page actually containing the policy.
fn build_site(
    seed: u64,
    company: &Company,
    truth: &GroundTruth,
    style: &PolicyStyle,
    fate: CompanyFate,
) -> StaticSite {
    let domain = &company.domain;
    let layout = SiteLayout::assign(seed, domain);
    let policy_html = render_policy(truth, style, &company.name, seed);
    let extra_choices_link = rng::unit(seed, "extra-link", domain) < 0.40;
    let california_link = rng::unit(seed, "ca-link", domain) < 0.30;

    let policy_page = |body: &str| {
        page(
            &format!("Privacy Policy | {}", company.name),
            &standard_header(),
            body,
            &footer_links(&[("Privacy Policy", layout.policy_path())]),
        )
    };

    match fate {
        CompanyFate::Normal => {
            let mut privacy_links: Vec<(&str, &str)> = Vec::new();
            let policy_path = layout.policy_path();
            let footer_label = match layout {
                SiteLayout::Custom => "Privacy Notice",
                SiteLayout::Center => "Privacy Center",
                _ => "Privacy Policy",
            };
            let footer_target = match layout {
                SiteLayout::Center => "/privacy",
                _ => policy_path,
            };
            privacy_links.push((footer_label, footer_target));
            if extra_choices_link {
                privacy_links.push(("Your Privacy Choices", "/your-privacy-choices"));
            }
            if california_link {
                privacy_links.push(("California Privacy Notice", "/california-privacy"));
            }

            let mut site = StaticSite::new().page(
                "/",
                page(
                    &company.name,
                    &standard_header(),
                    &marketing(company),
                    &footer_links(&privacy_links),
                ),
            );
            site = site.page(policy_path, policy_page(&policy_html));
            match layout {
                SiteLayout::Both => {
                    site = site.page(
                        "/privacy",
                        Response::redirect(Status::MOVED_PERMANENTLY, "/privacy-policy"),
                    );
                }
                SiteLayout::Center => {
                    // The center page links to the real policy from its top
                    // navigation (the "dedicated privacy home/center page"
                    // case of §3.1).
                    let center = page(
                        &format!("Privacy Center | {}", company.name),
                        "<a href=\"/privacy/policy\">Privacy Policy</a> \
                         <a href=\"/privacy/faqs\">Privacy FAQs</a> \
                         <a href=\"/privacy/choices\">Privacy Choices</a>",
                        "<h1>Privacy Center</h1><p>Learn how we approach responsible \
                         information handling, and find the documents that govern our \
                         practices.</p>",
                        &footer_links(&[("Privacy Center", "/privacy")]),
                    );
                    site = site.page("/privacy", center);
                    site = site.page(
                        "/privacy/faqs",
                        page(
                            &format!("Privacy FAQs | {}", company.name),
                            &standard_header(),
                            "<h1>Privacy FAQs</h1><p>Answers to common questions about \
                             our approach are collected here for convenience.</p>",
                            &footer_links(&[("Privacy Center", "/privacy")]),
                        ),
                    );
                    site = site.page(
                        "/privacy/choices",
                        page(
                            &format!("Privacy Choices | {}", company.name),
                            &standard_header(),
                            "<h1>Privacy Choices</h1><p>Controls available to you are \
                             described in the policy document.</p>",
                            &footer_links(&[("Privacy Center", "/privacy")]),
                        ),
                    );
                }
                _ => {}
            }
            if california_link {
                site = site.page(
                    "/california-privacy",
                    page(
                        &format!("California Privacy Notice | {}", company.name),
                        &standard_header(),
                        "<h1>California Privacy Notice</h1><p>This supplemental notice \
                         applies to residents of California and describes rights available \
                         under state law. The main policy document governs where this \
                         notice is silent.</p>",
                        &footer_links(&[("Privacy Policy", policy_path)]),
                    ),
                );
            }
            if extra_choices_link {
                site = site.page(
                    "/your-privacy-choices",
                    page(
                        &format!("Your Privacy Choices | {}", company.name),
                        &format!("<a href=\"{policy_path}\">Privacy Policy</a>"),
                        "<h1>Your Privacy Choices</h1><p>This page summarizes the controls \
                         available to you. The full policy document governs.</p>",
                        &footer_links(&[("Privacy Policy", policy_path)]),
                    ),
                );
            }
            site
        }
        CompanyFate::HiddenLegalLink => {
            // Footer says "Legal Notices"; policy lives at a path without
            // the word "privacy".
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        &standard_header(),
                        &marketing(company),
                        &footer_links(&[("Legal Notices", "/legal-notices")]),
                    ),
                )
                .page(
                    "/legal-notices",
                    page(
                        &format!("Legal Notices | {}", company.name),
                        &standard_header(),
                        &policy_html,
                        &footer_links(&[("Legal Notices", "/legal-notices")]),
                    ),
                );
            site
        }
        CompanyFate::JsActionLink => {
            let footer = "<a href=\"/terms\">Terms of Use</a> \
                          <a href=\"javascript:openPrivacyModal()\">Privacy Policy</a> \
                          <a href=\"/accessibility\">Accessibility</a>";
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        &standard_header(),
                        &marketing(company),
                        footer,
                    ),
                )
                .page("/modal/privacy-content", policy_page(&policy_html));
            site
        }
        CompanyFate::ConsentBoxLink => {
            let main = format!(
                "{}<details class=\"consent\"><summary>We value your privacy</summary>\
                 <p>Manage preferences or read the <a href=\"/legal/privacy-statement\">\
                 Privacy Statement</a>.</p></details>",
                marketing(company)
            );
            let site = StaticSite::new()
                .page(
                    "/",
                    page(&company.name, &standard_header(), &main, &footer_links(&[])),
                )
                .page("/legal/privacy-statement", policy_page(&policy_html));
            site
        }
        CompanyFate::PdfPolicy => {
            let pdf_body = format!("%PDF-1.7 privacy policy of {}", company.name);
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        &standard_header(),
                        &marketing(company),
                        &footer_links(&[("Privacy Policy", "/docs/privacy-policy.pdf")]),
                    ),
                )
                .page("/docs/privacy-policy.pdf", Response::pdf(pdf_body));
            site
        }
        CompanyFate::NonEnglish => {
            let german = render_policy_german(&company.name);
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        "<a href=\"/\">Startseite</a> <a href=\"/ueber-uns\">\u{dc}ber uns</a>",
                        &format!(
                            "<h1>{0}</h1><p>Willkommen bei {0}. Wir freuen uns \u{fc}ber Ihren \
                             Besuch und stehen Ihnen gerne zur Verf\u{fc}gung.</p>",
                            company.name
                        ),
                        &footer_links(&[("Privacy Policy", "/privacy")]),
                    ),
                )
                .page(
                    "/privacy",
                    page(
                        &format!("Datenschutz | {}", company.name),
                        "",
                        &german,
                        &footer_links(&[("Privacy Policy", "/privacy")]),
                    ),
                );
            site
        }
        CompanyFate::MixedLanguage => {
            let mixed = render_policy_mixed(truth, style, &company.name, seed);
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        &standard_header(),
                        &marketing(company),
                        &footer_links(&[("Privacy Policy", "/privacy-policy")]),
                    ),
                )
                .page("/privacy-policy", policy_page(&mixed));
            site
        }
        CompanyFate::JsLoadedPolicy => {
            let shell = "<div id=\"root\"></div>\
                         <script src=\"/static/bundle.js\"></script>\
                         <script>window.__APP__ = { page: 'privacy' };</script>";
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        &standard_header(),
                        &marketing(company),
                        &footer_links(&[("Privacy Policy", "/privacy-policy")]),
                    ),
                )
                .page("/privacy-policy", policy_page(shell));
            site
        }
        CompanyFate::ImagePolicy => {
            let main = "<h1>Privacy Policy</h1>\
                        <img src=\"/assets/privacy-policy.png\" \
                        alt=\"Scanned privacy policy document\">";
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        &standard_header(),
                        &marketing(company),
                        &footer_links(&[("Privacy Policy", "/privacy-policy")]),
                    ),
                )
                .page("/privacy-policy", policy_page(main));
            site
        }
        CompanyFate::ExpandablePolicy => {
            let main = format!(
                "<h1>Privacy Policy</h1>\
                 <details><summary>Read our full privacy policy</summary>{policy_html}</details>"
            );
            let site = StaticSite::new()
                .page(
                    "/",
                    page(
                        &company.name,
                        &standard_header(),
                        &marketing(company),
                        &footer_links(&[("Privacy Policy", "/privacy-policy")]),
                    ),
                )
                .page("/privacy-policy", policy_page(&main));
            site
        }
        // Callers route NoPolicy to `build_no_policy_site` directly; fall
        // back to it here too rather than aborting.
        CompanyFate::NoPolicy => build_no_policy_site(company),
    }
}

fn build_no_policy_site(company: &Company) -> StaticSite {
    StaticSite::new().page(
        "/",
        page(
            &company.name,
            &standard_header(),
            &marketing(company),
            &footer_links(&[]),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_net::fault::FaultInjector;
    use aipan_net::{Client, Url};

    fn small_world() -> World {
        build_world(WorldConfig::small(11, 300))
    }

    #[test]
    fn world_registers_all_unique_domains() {
        let w = small_world();
        assert_eq!(w.internet.len(), w.universe.unique_domains().len());
    }

    #[test]
    fn fates_mostly_normal() {
        let w = small_world();
        let hist = w.fate_histogram();
        let normal = hist.get(&CompanyFate::Normal).copied().unwrap_or(0);
        let total: usize = hist.values().sum();
        let rate = normal as f64 / total as f64;
        assert!((0.82..0.97).contains(&rate), "normal rate {rate}");
    }

    #[test]
    fn normal_site_serves_policy_with_planted_surfaces() {
        let w = small_world();
        let client = Client::new(
            w.internet.clone(),
            FaultInjector::new(0, FaultConfig::none()),
        );
        let (domain, _) = w
            .fates
            .iter()
            .find(|(_, f)| **f == CompanyFate::Normal)
            .expect("some normal site");
        let path = w.policy_paths.get(domain).unwrap();
        let url = Url::parse(&format!("https://{domain}{path}")).unwrap();
        let res = client.fetch(&url).unwrap();
        assert!(res.response.status.is_success());
        let body = res.response.body_text().to_lowercase();
        let truth = w.truth(domain).unwrap();
        for m in &truth.types {
            assert!(
                body.contains(&m.surface.to_lowercase()),
                "missing {}",
                m.surface
            );
        }
    }

    #[test]
    fn no_policy_sites_404_standard_paths() {
        let w = small_world();
        let client = Client::new(
            w.internet.clone(),
            FaultInjector::new(0, FaultConfig::none()),
        );
        if let Some((domain, _)) = w.fates.iter().find(|(_, f)| **f == CompanyFate::NoPolicy) {
            for path in ["/privacy-policy", "/privacy"] {
                let url = Url::parse(&format!("https://{domain}{path}")).unwrap();
                let res = client.fetch(&url).unwrap();
                assert_eq!(res.response.status, Status::NOT_FOUND);
            }
            assert!(w.truth(domain).is_none());
        }
    }

    #[test]
    fn homepage_privacy_link_presence_by_fate() {
        let w = small_world();
        let client = Client::new(
            w.internet.clone(),
            FaultInjector::new(0, FaultConfig::none()),
        );
        for (domain, fate) in &w.fates {
            let url = Url::parse(&format!("https://{domain}/")).unwrap();
            let res = client.fetch(&url).unwrap();
            let doc = aipan_html::extract(&res.response.body_text());
            let has_privacy_link = doc.links_containing("privacy").next().is_some();
            match fate {
                CompanyFate::Normal
                | CompanyFate::PdfPolicy
                | CompanyFate::NonEnglish
                | CompanyFate::MixedLanguage
                | CompanyFate::JsLoadedPolicy
                | CompanyFate::ImagePolicy
                | CompanyFate::ExpandablePolicy => {
                    assert!(has_privacy_link, "{domain} ({fate:?}) should link privacy");
                }
                CompanyFate::NoPolicy | CompanyFate::HiddenLegalLink => {
                    assert!(
                        !has_privacy_link,
                        "{domain} ({fate:?}) must not link privacy"
                    );
                }
                // JsActionLink has a privacy link but it's a javascript: URL;
                // ConsentBoxLink's link is hidden in collapsed details.
                CompanyFate::JsActionLink => {}
                CompanyFate::ConsentBoxLink => {
                    assert!(
                        !has_privacy_link,
                        "{domain}: consent-box link must be hidden"
                    );
                }
            }
        }
    }

    #[test]
    fn layout_rates_give_path_existence_near_paper() {
        let w = build_world(WorldConfig::small(13, 1500));
        let client = Client::new(
            w.internet.clone(),
            FaultInjector::new(0, FaultConfig::none()),
        );
        let mut pp = 0usize;
        let mut p = 0usize;
        let domains: Vec<String> = w.fates.keys().cloned().collect();
        for domain in &domains {
            for (path, counter) in [("/privacy-policy", &mut pp), ("/privacy", &mut p)] {
                let url = Url::parse(&format!("https://{domain}{path}")).unwrap();
                if let Ok(res) = client.fetch(&url) {
                    if res.response.status.is_success() && res.response.status != Status::FORBIDDEN
                    {
                        *counter += 1;
                    }
                }
            }
        }
        let pp_rate = pp as f64 / domains.len() as f64;
        let p_rate = p as f64 / domains.len() as f64;
        // Paper: 54.5% and 48.6%.
        assert!(
            (pp_rate - 0.545).abs() < 0.08,
            "/privacy-policy rate {pp_rate}"
        );
        assert!((p_rate - 0.486).abs() < 0.08, "/privacy rate {p_rate}");
    }

    #[test]
    fn lazy_world_serves_byte_identical_pages() {
        let eager = build_world(WorldConfig::small(17, 200));
        let lazy = build_world_lazy(WorldConfig::small(17, 200));
        assert!(!lazy.lazy_hosts.is_empty() && eager.lazy_hosts.is_empty());
        assert_eq!(eager.fates, lazy.fates);
        assert_eq!(eager.truths, lazy.truths);
        assert_eq!(eager.policy_paths, lazy.policy_paths);
        assert_eq!(eager.internet.len(), lazy.internet.len());
        // Nothing is materialized until fetched.
        assert_eq!(lazy.site_memory.current_bytes(), 0);

        let fetch = |world: &World, domain: &str, path: &str| {
            let host = world.internet.resolve(domain).unwrap();
            let url = Url::parse(&format!("https://{domain}{path}")).unwrap();
            host.handle(&aipan_net::Request::get(url))
        };
        for (domain, _) in eager.fates.iter().take(40) {
            let paths: Vec<String> = {
                let mut p = vec!["/".to_string(), "/robots.txt".to_string()];
                if let Some(policy) = eager.policy_paths.get(domain) {
                    p.push(policy.clone());
                }
                p
            };
            for path in &paths {
                let a = fetch(&eager, domain, path);
                let b = fetch(&lazy, domain, path);
                assert_eq!(a, b, "{domain}{path} differs between eager and lazy");
            }
        }
        assert!(lazy.site_memory.current_bytes() > 0);
        assert!(lazy.site_memory.peak_bytes() >= lazy.site_memory.current_bytes());
    }

    #[test]
    fn released_sites_rematerialize_identically_and_free_memory() {
        let lazy = build_world_lazy(WorldConfig::small(23, 120));
        let (domain, host) = lazy.lazy_hosts.iter().next().unwrap();
        let url = Url::parse(&format!("https://{domain}/")).unwrap();
        let req = aipan_net::Request::get(url);
        let first = host.handle(&req);
        assert!(host.is_built());
        let resident = lazy.site_memory.current_bytes();
        assert!(resident > 0);

        lazy.release_site(domain);
        assert!(!host.is_built());
        assert_eq!(lazy.site_memory.current_bytes(), 0);

        let again = host.handle(&req);
        assert_eq!(first, again, "rematerialized site must be byte-identical");
        assert_eq!(lazy.site_memory.current_bytes(), resident);
        // Peak never decreases.
        assert!(lazy.site_memory.peak_bytes() >= resident);
    }

    #[test]
    fn eager_world_gauge_records_total_universe_bytes() {
        let eager = build_world(WorldConfig::small(29, 80));
        let lazy = build_world_lazy(WorldConfig::small(29, 80));
        // Materialize everything on the lazy side: totals must agree.
        for (domain, host) in &lazy.lazy_hosts {
            let url = Url::parse(&format!("https://{domain}/")).unwrap();
            host.handle(&aipan_net::Request::get(url));
        }
        assert_eq!(
            eager.site_memory.current_bytes(),
            lazy.site_memory.current_bytes()
        );
    }

    #[test]
    fn deterministic_world() {
        let a = build_world(WorldConfig::small(21, 100));
        let b = build_world(WorldConfig::small(21, 100));
        assert_eq!(a.fates, b.fates);
        assert_eq!(a.policy_paths, b.policy_paths);
        for (d, t) in &a.truths {
            assert_eq!(Some(t), b.truths.get(d));
        }
    }

    #[test]
    fn expandable_policy_hides_text_from_extractor() {
        let w = build_world(WorldConfig::small(31, 2000));
        let client = Client::new(
            w.internet.clone(),
            FaultInjector::new(0, FaultConfig::none()),
        );
        let found = w
            .fates
            .iter()
            .find(|(_, f)| **f == CompanyFate::ExpandablePolicy);
        if let Some((domain, _)) = found {
            let path = w.policy_paths.get(domain).unwrap();
            let url = Url::parse(&format!("https://{domain}{path}")).unwrap();
            let res = client.fetch(&url).unwrap();
            let doc = aipan_html::extract(&res.response.body_text());
            assert!(
                doc.word_count() < 80,
                "expandable policy leaked {} words",
                doc.word_count()
            );
        }
    }
}
