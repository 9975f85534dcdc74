//! Property tests: the allocation-free fold re-expression is byte-exact
//! against `aipan_taxonomy::normalize::fold`, and `FoldedDoc::verify_batch` agrees
//! with the legacy per-needle `contains(&fold(needle))` check.

use aipan_taxonomy::normalize::fold;
use aipan_textindex::{fold_into, FoldedDoc};
use proptest::prelude::*;

proptest! {
    #[test]
    fn fold_into_appends_exactly_fold(s in ".{0,120}") {
        let mut buf = String::from("⟨seed⟩");
        fold_into(&mut buf, &s);
        prop_assert_eq!(buf, format!("⟨seed⟩{}", fold(&s)));
    }

    #[test]
    fn folded_doc_buffer_equals_per_line_folds(
        lines in proptest::collection::vec(".{0,60}", 0..8)
    ) {
        let doc = FoldedDoc::from_lines(lines.iter().map(String::as_str));
        let mut expected = String::new();
        for line in &lines {
            expected.push_str(&fold(line));
            expected.push(' ');
        }
        prop_assert_eq!(doc.folded(), expected.as_str());
        prop_assert_eq!(doc.line_count(), lines.len());
        for (i, line) in lines.iter().enumerate() {
            let span = doc.line_span(i);
            prop_assert!(span.is_some());
            if let Some((start, end)) = span {
                let folded_line = fold(line);
                prop_assert_eq!(&doc.folded()[start..end], folded_line.as_str());
            }
        }
    }

    #[test]
    fn verify_batch_equals_contains_fold(
        lines in proptest::collection::vec(
            "(we|do not|collect|email address|ip|[a-z]{1,8}|[ -~]{0,20}| )(, | )?(data|info|address)?",
            0..6
        ),
        needles in proptest::collection::vec(
            "(email address|ip|data|info|[a-z]{0,6}|[ -~]{0,12})",
            0..10
        ),
    ) {
        let doc = FoldedDoc::from_lines(lines.iter().map(String::as_str));
        let got = doc.verify_batch(needles.iter().map(String::as_str));
        let expected: Vec<bool> = needles
            .iter()
            .map(|n| doc.folded().contains(&fold(n)))
            .collect();
        prop_assert_eq!(got, expected, "lines={:?} needles={:?}", lines, needles);
    }
}
