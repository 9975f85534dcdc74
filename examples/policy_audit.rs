//! Single-company privacy audit: crawl one domain of the simulated web,
//! annotate its policy, and print a "privacy nutrition label" — the kind of
//! downstream application the paper's dataset enables.
//!
//! Run with: `cargo run --release --example policy_audit [domain]`
//! (defaults to a deterministic pick; try `pg.com` or `bms.com` for the
//! paper's retention-extreme companies).

use aipan::core::pipeline::{Pipeline, PipelineConfig};
use aipan::crawler::crawl_domain;
use aipan::net::fault::FaultInjector;
use aipan::net::Client;
use aipan::taxonomy::records::{AnnotationPayload, AspectKind};
use aipan::webgen::{build_world, WorldConfig};

fn main() {
    let world = build_world(WorldConfig::small(42, 600));
    let domain = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "pg.com".to_string());
    let Some(company) = world.company(&domain) else {
        eprintln!("domain {domain} not in this world; try one of:");
        for c in world.universe.unique_domains().iter().take(10) {
            eprintln!("  {}", c.domain);
        }
        std::process::exit(1);
    };

    println!(
        "auditing {} ({}, {})",
        company.name,
        domain,
        company.sector.name()
    );
    let client = Client::new(
        world.internet.clone(),
        FaultInjector::new(world.config.seed, world.config.faults),
    );
    let crawl = crawl_domain(&client, &domain);
    println!(
        "crawl: {} pages fetched, {} privacy pages, outcome {:?}",
        crawl.pages.len(),
        crawl.privacy_pages().len(),
        crawl.outcome
    );

    let pipeline = Pipeline::new(PipelineConfig {
        seed: 42,
        ..Default::default()
    });
    let Some(policy) = pipeline.process_domain_full(&crawl, company.sector).policy else {
        println!(
            "no extractable policy for {domain} (fate: {:?})",
            world.fate(&domain)
        );
        return;
    };

    println!(
        "\n=== PRIVACY LABEL: {} ===  (policy at {}, {} words, segmented via {:?})",
        company.name, policy.policy_path, policy.core_word_count, policy.segmentation
    );

    println!("\nCOLLECTS:");
    for ann in policy.for_aspect(AspectKind::Types) {
        if let AnnotationPayload::DataType {
            descriptor,
            category,
        } = &ann.payload
        {
            println!("  [{}] {descriptor}", category.name());
        }
    }
    println!("\nUSES DATA FOR:");
    for ann in policy.for_aspect(AspectKind::Purposes) {
        if let AnnotationPayload::Purpose {
            descriptor,
            category,
        } = &ann.payload
        {
            println!("  [{}] {descriptor}", category.name());
        }
    }
    println!("\nHANDLING:");
    for ann in policy.for_aspect(AspectKind::Handling) {
        match &ann.payload {
            AnnotationPayload::Retention { label, period_days } => match period_days {
                Some(days) => println!("  retention: {label} ({days} days)"),
                None => println!("  retention: {label}"),
            },
            AnnotationPayload::Protection { label } => println!("  protection: {label}"),
            _ => {}
        }
    }
    println!("\nYOUR RIGHTS:");
    for ann in policy.for_aspect(AspectKind::Rights) {
        match &ann.payload {
            AnnotationPayload::Choice { label } => println!("  choice: {label}"),
            AnnotationPayload::Access { label } => println!("  access: {label}"),
            _ => {}
        }
    }

    // Grade the audit against the world's planted ground truth.
    if let Some(truth) = world.truth(&domain) {
        let correct = policy
            .annotations
            .iter()
            .filter(|a| aipan::analysis::validation::payload_correct(truth, &a.payload))
            .count();
        println!(
            "\nground truth check: {}/{} annotations correct",
            correct,
            policy.annotations.len()
        );
    }
}
