//! The report: provenance block, human-readable lines, and the final JSON
//! result line.

use std::fmt::Write as _;
use std::path::Path;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number, or an error for NaN and infinities.
fn json_number(name: &str, value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value:?}"))
    } else {
        Err(format!("metric {name} is not a finite number ({value})"))
    }
}

/// The result line: `{"correct": true, "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        body.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(&m.name, m.value)?,
            json_string(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// Key/value pairs rendered as one JSON object (values already JSON).
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The provenance block: host, toolchain, source revision and run
/// parameters.
pub fn provenance(workload: &str, seed: u64, seconds: u64, workers: usize, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json_object(&[
        ("workload", json_string(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("workers", workers.to_string()),
        ("host_nproc", nproc.to_string()),
        (
            "os",
            json_string(&format!(
                "{} {} {}",
                std::env::consts::OS,
                std::env::consts::ARCH,
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_default()
            )),
        ),
        ("cpu", json_string(&cpu_model().unwrap_or_default())),
        ("rustc", json_string(env!("AIPAN_BENCH_RUSTC"))),
        (
            "commit",
            json_string(&git_head().unwrap_or_else(|| "none (not a git checkout)".to_string())),
        ),
        (
            "source_digest",
            json_string(&format!("{:016x}", source_digest(Path::new(".")))),
        ),
    ])
}

fn read_trimmed(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` without running git.
fn git_head() -> Option<String> {
    let head = read_trimmed(".git/HEAD")?;
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    if let Some(hash) = read_trimmed(Path::new(".git").join(reference)) {
        return Some(hash);
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over byte slices.
pub fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        // Separate parts so ("ab", "c") and ("a", "bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of the program's sources (names and contents, sorted), standing
/// in for a commit id where the checkout has no git metadata.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "src",
        "vendor",
        "benchmark",
    ] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut parts: Vec<Vec<u8>> = Vec::with_capacity(files.len() * 2);
    for file in &files {
        parts.push(file.to_string_lossy().into_owned().into_bytes());
        parts.push(std::fs::read(file).unwrap_or_default());
    }
    let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    fnv64(&slices)
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        let name = entry.file_name();
        let skip = name == "target" || name.to_string_lossy().starts_with('.');
        if !skip {
            collect_files(&p, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            12,
            0,
            &[
                Metric::new("setup_s", 0.5, "s"),
                Metric::new("latency_p50_ms", 4.25, "ms"),
            ],
        )
        .expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 4.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        assert!(result_line(1, 0, &[Metric::new("x", f64::NAN, "ms")]).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn fnv_separates_parts() {
        assert_ne!(fnv64(&[b"ab", b"c"]), fnv64(&[b"a", b"bc"]));
    }
}
