//! The JSON tuple protocol between the pipeline and the chatbot.
//!
//! Task inputs are numbered-line documents (`[123] text…`); task outputs are
//! JSON-formatted strings containing lists of tuples, exactly as the
//! paper's prompts dictate. This module renders inputs and parses outputs —
//! tolerantly, since models occasionally emit malformed rows (such rows are
//! dropped, not fatal).

use aipan_taxonomy::Aspect;
use serde_json::Value;
use std::fmt::Write;

/// Render lines as a numbered-line document (1-based).
pub fn number_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    number_lines_into(&mut out, lines);
    out
}

/// [`number_lines`], rendered into a caller-owned buffer (cleared first).
/// A worker annotating many policies reuses one buffer across all of them
/// instead of allocating a fresh full-text document per policy.
pub fn number_lines_into<'a>(out: &mut String, lines: impl IntoIterator<Item = &'a str>) {
    let lines = lines.into_iter();
    out.clear();
    // ~6 bytes of numbering overhead plus a short line per row; a no-op on
    // a reused buffer that is already large enough.
    out.reserve(lines.size_hint().0.saturating_mul(48));
    for (i, line) in lines.enumerate() {
        let _ = writeln!(out, "[{}] {}", i + 1, line);
    }
}

/// Render (line-number, text) pairs as a numbered document, preserving the
/// given numbers (used when feeding a subset of a document, e.g. one
/// section, so the model reports original line numbers).
pub fn number_lines_with<'a>(lines: impl IntoIterator<Item = (usize, &'a str)>) -> String {
    let lines = lines.into_iter();
    let mut out = String::with_capacity(lines.size_hint().0.saturating_mul(48));
    for (n, line) in lines {
        let _ = writeln!(out, "[{n}] {line}");
    }
    out
}

/// A heading/segment label row: line number + aspects.
pub type LabelRow = (usize, Vec<Aspect>);
/// An extraction row: line number + verbatim text.
pub type ExtractRow = (usize, String);
/// A normalization row: line number + descriptor + category name.
pub type NormalizeRow = (usize, String, String);
/// A purpose row: line, verbatim text, descriptor, category name.
pub type PurposeRow = (usize, String, String, String);
/// A handling row: line, verbatim text, label, optional period text.
pub type HandlingRow = (usize, String, String, Option<String>);
/// A rights row: line, verbatim text, label.
pub type RightsRow = (usize, String, String);

/// Encode label rows (`[[1, ["types"]], …]`).
pub fn encode_labels(rows: &[LabelRow]) -> String {
    let v: Vec<Value> = rows
        .iter()
        .map(|(n, aspects)| {
            Value::Array(vec![
                Value::from(*n),
                Value::Array(aspects.iter().map(|a| Value::from(a.key())).collect()),
            ])
        })
        .collect();
    Value::Array(v).to_string()
}

/// Parse label rows; malformed rows are skipped.
pub fn parse_labels(output: &str) -> Vec<LabelRow> {
    try_parse_rows(output, |row| {
        let n = row.first()?.as_u64()? as usize;
        let aspects = row
            .get(1)?
            .as_array()?
            .iter()
            .filter_map(|v| v.as_str().and_then(Aspect::from_key))
            .collect::<Vec<_>>();
        Some((n, aspects))
    })
    .unwrap_or_default()
}

/// Encode extraction rows (`[[4, "email address"], …]`).
pub fn encode_extractions(rows: &[ExtractRow]) -> String {
    let v: Vec<Value> = rows
        .iter()
        .map(|(n, text)| Value::Array(vec![Value::from(*n), Value::from(text.as_str())]))
        .collect();
    Value::Array(v).to_string()
}

/// Parse extraction rows.
pub fn parse_extractions(output: &str) -> Vec<ExtractRow> {
    try_parse_extractions(output).unwrap_or_default()
}

/// [`parse_extractions`], but `None` when the completion is not
/// [well-formed](is_well_formed): one decode answers both questions.
pub fn try_parse_extractions(output: &str) -> Option<Vec<ExtractRow>> {
    try_parse_rows(output, |row| {
        let n = row.first()?.as_u64()? as usize;
        let text = row.get(1)?.as_str()?.to_string();
        Some((n, text))
    })
}

/// Encode normalization rows (`[[1, "postal address", "Contact info"], …]`).
pub fn encode_normalizations(rows: &[NormalizeRow]) -> String {
    let v: Vec<Value> = rows
        .iter()
        .map(|(n, d, c)| {
            Value::Array(vec![
                Value::from(*n),
                Value::from(d.as_str()),
                Value::from(c.as_str()),
            ])
        })
        .collect();
    Value::Array(v).to_string()
}

/// Parse normalization rows.
pub fn parse_normalizations(output: &str) -> Vec<NormalizeRow> {
    try_parse_normalizations(output).unwrap_or_default()
}

/// [`parse_normalizations`], but `None` when the completion is not
/// [well-formed](is_well_formed): one decode answers both questions.
pub fn try_parse_normalizations(output: &str) -> Option<Vec<NormalizeRow>> {
    try_parse_rows(output, |row| {
        Some((
            row.first()?.as_u64()? as usize,
            row.get(1)?.as_str()?.to_string(),
            row.get(2)?.as_str()?.to_string(),
        ))
    })
}

/// Encode purpose rows.
pub fn encode_purposes(rows: &[PurposeRow]) -> String {
    let v: Vec<Value> = rows
        .iter()
        .map(|(n, t, d, c)| {
            Value::Array(vec![
                Value::from(*n),
                Value::from(t.as_str()),
                Value::from(d.as_str()),
                Value::from(c.as_str()),
            ])
        })
        .collect();
    Value::Array(v).to_string()
}

/// Parse purpose rows.
pub fn parse_purposes(output: &str) -> Vec<PurposeRow> {
    try_parse_purposes(output).unwrap_or_default()
}

/// [`parse_purposes`], but `None` when the completion is not
/// [well-formed](is_well_formed): one decode answers both questions.
pub fn try_parse_purposes(output: &str) -> Option<Vec<PurposeRow>> {
    try_parse_rows(output, |row| {
        Some((
            row.first()?.as_u64()? as usize,
            row.get(1)?.as_str()?.to_string(),
            row.get(2)?.as_str()?.to_string(),
            row.get(3)?.as_str()?.to_string(),
        ))
    })
}

/// Encode handling rows (period is `null` when absent).
pub fn encode_handling(rows: &[HandlingRow]) -> String {
    let v: Vec<Value> = rows
        .iter()
        .map(|(n, t, l, p)| {
            Value::Array(vec![
                Value::from(*n),
                Value::from(t.as_str()),
                Value::from(l.as_str()),
                p.as_deref().map(Value::from).unwrap_or(Value::Null),
            ])
        })
        .collect();
    Value::Array(v).to_string()
}

/// Parse handling rows.
pub fn parse_handling(output: &str) -> Vec<HandlingRow> {
    try_parse_handling(output).unwrap_or_default()
}

/// [`parse_handling`], but `None` when the completion is not
/// [well-formed](is_well_formed): one decode answers both questions.
pub fn try_parse_handling(output: &str) -> Option<Vec<HandlingRow>> {
    try_parse_rows(output, |row| {
        Some((
            row.first()?.as_u64()? as usize,
            row.get(1)?.as_str()?.to_string(),
            row.get(2)?.as_str()?.to_string(),
            row.get(3).and_then(|v| v.as_str()).map(str::to_string),
        ))
    })
}

/// Encode rights rows.
pub fn encode_rights(rows: &[RightsRow]) -> String {
    let v: Vec<Value> = rows
        .iter()
        .map(|(n, t, l)| {
            Value::Array(vec![
                Value::from(*n),
                Value::from(t.as_str()),
                Value::from(l.as_str()),
            ])
        })
        .collect();
    Value::Array(v).to_string()
}

/// Parse rights rows.
pub fn parse_rights(output: &str) -> Vec<RightsRow> {
    try_parse_rights(output).unwrap_or_default()
}

/// [`parse_rights`], but `None` when the completion is not
/// [well-formed](is_well_formed): one decode answers both questions.
pub fn try_parse_rights(output: &str) -> Option<Vec<RightsRow>> {
    try_parse_rows(output, |row| {
        Some((
            row.first()?.as_u64()? as usize,
            row.get(1)?.as_str()?.to_string(),
            row.get(2)?.as_str()?.to_string(),
        ))
    })
}

/// Whether `output` is structurally well-formed protocol output: a
/// top-level JSON array. Distinguishes a *valid empty result* (`[]`) from
/// refusals, malformed prefixes, and truncated completions, which a
/// bounded re-prompt loop should retry.
pub fn is_well_formed(output: &str) -> bool {
    try_parse_rows(output, |_| Some(())).is_some()
}

/// Shared tolerant parser, one JSON decode per completion: `None` when
/// `output` is not [well-formed](is_well_formed), else the rows of its
/// top-level array that `f` accepts (rows failing `f` are dropped).
fn try_parse_rows<T>(output: &str, f: impl Fn(&[Value]) -> Option<T>) -> Option<Vec<T>> {
    let Ok(Value::Array(rows)) = serde_json::from_str::<Value>(output.trim()) else {
        return None;
    };
    Some(
        rows.iter()
            .filter_map(|row| row.as_array().and_then(|r| f(r)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn number_lines_formats() {
        let doc = number_lines(["alpha", "beta"]);
        assert_eq!(doc, "[1] alpha\n[2] beta\n");
        let sub = number_lines_with([(7, "x"), (12, "y")]);
        assert_eq!(sub, "[7] x\n[12] y\n");
    }

    #[test]
    fn number_lines_into_clears_and_matches() {
        let mut buf = String::from("stale contents from the previous policy");
        number_lines_into(&mut buf, ["alpha", "beta"]);
        assert_eq!(buf, number_lines(["alpha", "beta"]));
        number_lines_into(&mut buf, std::iter::empty());
        assert_eq!(buf, "");
    }

    #[test]
    fn labels_roundtrip() {
        let rows = vec![
            (1, vec![Aspect::Types]),
            (8, vec![Aspect::Purposes, Aspect::Other]),
        ];
        let parsed = parse_labels(&encode_labels(&rows));
        assert_eq!(parsed, rows);
    }

    #[test]
    fn extractions_roundtrip() {
        let rows = vec![
            (4, "email address".to_string()),
            (9, "ip address".to_string()),
        ];
        assert_eq!(parse_extractions(&encode_extractions(&rows)), rows);
    }

    #[test]
    fn normalizations_roundtrip() {
        let rows = vec![(1, "postal address".to_string(), "Contact info".to_string())];
        assert_eq!(parse_normalizations(&encode_normalizations(&rows)), rows);
    }

    #[test]
    fn purposes_roundtrip() {
        let rows = vec![(
            2,
            "prevent fraud".to_string(),
            "fraud prevention".to_string(),
            "Security".to_string(),
        )];
        assert_eq!(parse_purposes(&encode_purposes(&rows)), rows);
    }

    #[test]
    fn handling_roundtrip_with_and_without_period() {
        let rows = vec![
            (
                3,
                "retain for two (2) years".to_string(),
                "Stated".to_string(),
                Some("2 years".to_string()),
            ),
            (
                5,
                "as long as necessary".to_string(),
                "Limited".to_string(),
                None,
            ),
        ];
        assert_eq!(parse_handling(&encode_handling(&rows)), rows);
    }

    #[test]
    fn rights_roundtrip() {
        let rows = vec![(5, "update or correct".to_string(), "Edit".to_string())];
        assert_eq!(parse_rights(&encode_rights(&rows)), rows);
    }

    #[test]
    fn malformed_output_tolerated() {
        assert!(parse_labels("not json at all").is_empty());
        assert!(parse_extractions("{\"a\": 1}").is_empty());
        // Bad rows dropped, good rows kept.
        let mixed = "[[1, \"ok\"], [\"bad\"], 42, [2, \"also ok\"]]";
        let parsed = parse_extractions(mixed);
        assert_eq!(parsed.len(), 2);
    }

    /// Text exercising every decoder path: multibyte UTF-8, characters the
    /// encoder escapes (`"`, `\`, newline, tab, other controls as
    /// `\u00XX`), and a supplementary-plane char.
    const TRICKY: &str = "é 中文 😀 \"quoted\" back\\slash\nline\ttab\u{1}\u{1f}";

    #[test]
    fn tricky_text_roundtrips_through_every_row_kind() {
        let t = || TRICKY.to_string();
        let ex = vec![(1, t()), (2, "plain".to_string())];
        assert_eq!(parse_extractions(&encode_extractions(&ex)), ex);
        let norm = vec![(1, t(), t())];
        assert_eq!(parse_normalizations(&encode_normalizations(&norm)), norm);
        let purposes = vec![(3, t(), t(), t())];
        assert_eq!(parse_purposes(&encode_purposes(&purposes)), purposes);
        let handling = vec![(4, t(), t(), Some(t())), (5, t(), t(), None)];
        assert_eq!(parse_handling(&encode_handling(&handling)), handling);
        let rights = vec![(6, t(), t())];
        assert_eq!(parse_rights(&encode_rights(&rights)), rights);
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let rows = parse_extractions(r#"[[1, "smile \ud83d\ude00 caf\u00e9 \u4e2d"]]"#);
        assert_eq!(rows, vec![(1, "smile 😀 café 中".to_string())]);
        // A lone high surrogate makes the whole completion malformed.
        assert!(!is_well_formed(r#"[[1, "\ud83d"]]"#));
        assert!(try_parse_extractions(r#"[[1, "\ud83d"]]"#).is_none());
    }

    #[test]
    fn truncation_inside_multibyte_string_is_malformed() {
        let full = encode_extractions(&[(1, TRICKY.to_string()), (2, "中文 😀".to_string())]);
        let start = full.find('中').unwrap();
        let end = full.rfind('😀').unwrap() + '😀'.len_utf8();
        let cuts = (start..end).filter(|&i| full.is_char_boundary(i));
        for cut in cuts {
            let prefix = &full[..cut];
            assert!(!is_well_formed(prefix), "{prefix:?}");
            assert!(parse_extractions(prefix).is_empty(), "{prefix:?}");
            assert!(try_parse_extractions(prefix).is_none(), "{prefix:?}");
        }
    }

    #[test]
    fn try_parse_separates_malformed_from_empty() {
        assert_eq!(try_parse_rights("[]"), Some(Vec::new()));
        assert_eq!(try_parse_rights(" [[1, 2]] "), Some(Vec::new()));
        assert_eq!(try_parse_rights("{\"a\": 1}"), None);
        assert_eq!(try_parse_purposes("I cannot assist with this."), None);
        assert_eq!(try_parse_handling("[[1, \"ok\", \"Stated\"]"), None);
        assert_eq!(
            try_parse_normalizations("[[1, \"a\", \"b\"], 7]"),
            Some(vec![(1, "a".to_string(), "b".to_string())])
        );
    }

    /// Row text over ASCII letters plus every decoder-relevant class:
    /// multibyte chars, `"`, `\`, and all C0 controls (newline and tab
    /// included).
    const TEXT: &str = "[a-z é中文😀\"\\\\\u{1}-\u{1f}]{0,12}";

    proptest! {
        #[test]
        fn extractions_roundtrip_any_text(
            rows in proptest::collection::vec((0usize..1000, TEXT), 0..6)
        ) {
            prop_assert_eq!(parse_extractions(&encode_extractions(&rows)), rows);
        }

        #[test]
        fn three_field_rows_roundtrip_any_text(
            rows in proptest::collection::vec((0usize..1000, TEXT, TEXT), 0..6)
        ) {
            prop_assert_eq!(parse_rights(&encode_rights(&rows)), rows.clone());
            prop_assert_eq!(parse_normalizations(&encode_normalizations(&rows)), rows);
        }

        #[test]
        fn four_field_rows_roundtrip_any_text(
            rows in proptest::collection::vec((0usize..1000, TEXT, TEXT, TEXT), 0..6)
        ) {
            prop_assert_eq!(parse_purposes(&encode_purposes(&rows)), rows.clone());
            let handling: Vec<HandlingRow> = rows
                .into_iter()
                .map(|(n, t, l, p)| (n, t, l, (n % 2 == 0).then_some(p)))
                .collect();
            prop_assert_eq!(parse_handling(&encode_handling(&handling)), handling);
        }
    }

    #[test]
    fn unknown_aspect_keys_dropped() {
        let parsed = parse_labels("[[1, [\"types\", \"bogus\"]]]");
        assert_eq!(parsed, vec![(1, vec![Aspect::Types])]);
    }
}
