//! Chaos harness for the pipeline's checkpoint/resume layer, driven the way
//! `aipan run --resume` drives it: a durable [`ShardedJournal`] opened on a
//! directory that holds a prior run's (partial or torn) JSONL journal, run,
//! then consolidated. Under elevated transient fault rates, a run resumed
//! from any prefix of its journal — including a journal torn mid-write —
//! produces a byte-identical dataset and identical funnels, at any worker
//! count.

use aipan_core::{
    run_pipeline, run_pipeline_sharded, JournalEntry, PipelineConfig, PipelineRun, RunJournal,
    ShardedJournal, DEFAULT_SHARDS,
};
use aipan_net::fault::FaultConfig;
use aipan_webgen::{build_world, WorldConfig};
use std::path::PathBuf;

fn chaos_world(seed: u64, n: usize) -> aipan_webgen::World {
    let mut config = WorldConfig::small(seed, n);
    config.faults = FaultConfig {
        flaky_5xx: 0.10,
        conn_reset: 0.06,
        rate_limit: 0.04,
        latency_spike: 0.08,
        ..config.faults
    };
    build_world(config)
}

fn pipeline_config(seed: u64, workers: usize) -> PipelineConfig {
    PipelineConfig {
        seed,
        workers,
        ..Default::default()
    }
}

fn dataset_bytes(run: &PipelineRun) -> String {
    serde_json::to_string(&run.dataset).expect("dataset serializes")
}

/// A fresh, empty directory for one resumed run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aipan-chaos-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// What one resumed run leaves behind.
struct Resumed {
    run: PipelineRun,
    /// Entries the journal loaded from the prior run's file.
    loaded: usize,
    /// The consolidated journal file after the run.
    jsonl: String,
}

/// Write `prior` as the journal file of a fresh run directory, open it as
/// a durable sharded journal, run the pipeline and consolidate — the
/// `aipan run --resume` sequence.
fn resume_from(
    world: &aipan_webgen::World,
    config: &PipelineConfig,
    tag: &str,
    prior: &str,
) -> Resumed {
    let dir = scratch_dir(tag);
    let base = dir.join("journal.jsonl");
    std::fs::write(&base, prior).expect("write prior journal");
    let journal = ShardedJournal::open(&base, DEFAULT_SHARDS);
    let loaded = journal.len();
    let run = run_pipeline_sharded(world, config.clone(), &journal);
    assert_eq!(journal.write_errors(), 0, "{tag}: journal appends failed");
    journal.consolidate(&base).expect("consolidate journal");
    let jsonl = std::fs::read_to_string(&base).expect("read consolidated journal");
    let _ = std::fs::remove_dir_all(&dir);
    Resumed { run, loaded, jsonl }
}

#[test]
fn resume_is_byte_identical_at_every_kill_point() {
    let world = chaos_world(23, 60);
    let config = pipeline_config(23, 4);
    let reference = run_pipeline(&world, config.clone());
    let reference_bytes = dataset_bytes(&reference);
    assert!(
        !reference.dataset.is_empty(),
        "chaos world must still yield policies"
    );

    // A journaled uninterrupted run matches the plain run and journals
    // every crawled domain.
    let full = resume_from(&world, &config, "full", "");
    assert_eq!(full.loaded, 0);
    assert_eq!(dataset_bytes(&full.run), reference_bytes);
    let jsonl = full.jsonl;
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), reference.crawl_funnel.domains_total);

    // Kill the run at three different points (journal prefixes), then at a
    // torn final line (process died mid-write). Every resume must produce
    // the same dataset bytes, the same funnels, and the same journal.
    let kill_points = [lines.len() / 4, lines.len() / 2, lines.len() * 9 / 10];
    for &k in &kill_points {
        let partial = lines[..k].join("\n");
        let resumed = resume_from(&world, &config, &format!("kill{k}"), &partial);
        assert_eq!(resumed.loaded, k, "prefix journal loads losslessly");
        assert_eq!(
            dataset_bytes(&resumed.run),
            reference_bytes,
            "resume from kill point {k} diverged"
        );
        assert_eq!(resumed.run.extraction, reference.extraction);
        assert_eq!(resumed.run.crawl_funnel, reference.crawl_funnel);
        assert_eq!(resumed.jsonl, jsonl, "journal must converge");
    }

    // Torn tail: keep half the bytes of the final journaled line.
    let keep = lines[..lines.len() - 1].join("\n");
    let last = lines[lines.len() - 1];
    let half = (0..=last.len() / 2)
        .rev()
        .find(|&i| last.is_char_boundary(i))
        .unwrap_or(0);
    let torn = format!("{keep}\n{}", &last[..half]);
    let resumed = resume_from(&world, &config, "torn", &torn);
    assert_eq!(resumed.loaded, lines.len() - 1, "torn line dropped");
    assert_eq!(dataset_bytes(&resumed.run), reference_bytes);
    assert_eq!(resumed.jsonl, jsonl);
}

#[test]
fn chaos_pipeline_identical_across_worker_counts() {
    let world = chaos_world(31, 40);
    let serial = run_pipeline(&world, pipeline_config(31, 1));
    let parallel = run_pipeline(&world, pipeline_config(31, 6));
    assert_eq!(dataset_bytes(&serial), dataset_bytes(&parallel));
    assert_eq!(serial.extraction, parallel.extraction);
    assert_eq!(serial.crawl_funnel, parallel.crawl_funnel);
}

#[test]
fn stale_journal_domains_do_not_leak_into_the_run() {
    let world = chaos_world(37, 20);
    let config = pipeline_config(37, 2);
    let reference = run_pipeline(&world, config.clone());

    let mut stale = RunJournal::new();
    stale.insert(JournalEntry {
        domain: "not-in-this-world.example".to_string(),
        english_privacy_pages: 9,
        policy: None,
    });
    let resumed = resume_from(&world, &config, "stale", &stale.to_jsonl());
    assert_eq!(resumed.loaded, 1);
    assert_eq!(dataset_bytes(&resumed.run), dataset_bytes(&reference));
    assert_eq!(resumed.run.extraction, reference.extraction);
}
