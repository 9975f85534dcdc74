//! `FoldedDoc`: a policy document folded exactly once.
//!
//! The verification step of the paper's §3.2 loop asks, per candidate row,
//! "does the folded policy contain the folded candidate text?". The legacy
//! implementation folded the whole policy once per *task* and the candidate
//! once per *row*. A [`FoldedDoc`] folds the document once per annotation
//! pass; [`FoldedDoc::verify_batch`] answers all of a policy's candidate
//! rows in one call, folding each needle into one reused scratch buffer
//! and searching the folded document for it.
//!
//! Per-needle search beats one Aho–Corasick scan for all needles here: on
//! real needle sets (~74 rows per policy) the substring searches cost
//! about half of building the automaton and scanning with it.

use crate::fold::fold_into;

/// A document folded once: `fold(line) + ' '` per line, concatenated —
/// byte-identical to folding and joining the lines individually.
#[derive(Debug, Clone)]
pub struct FoldedDoc {
    buf: String,
    line_spans: Vec<(usize, usize)>,
}

/// Reusable backing buffers for [`FoldedDoc`]s.
///
/// A worker that folds many documents in sequence threads one arena
/// through all of them ([`FoldedDoc::from_lines_in`] to build,
/// [`FoldArena::recycle`] to hand the buffers back), so the fold buffer
/// and span table are allocated once per worker and grown to the largest
/// document, instead of allocated fresh for every policy.
#[derive(Debug, Default)]
pub struct FoldArena {
    buf: String,
    line_spans: Vec<(usize, usize)>,
}

impl FoldArena {
    /// An empty arena (first use allocates like [`FoldedDoc::from_lines`]).
    pub fn new() -> FoldArena {
        FoldArena::default()
    }

    /// Take a finished document's buffers back for the next
    /// [`FoldedDoc::from_lines_in`] call. Dropping the doc instead is not
    /// an error — the next fold simply allocates fresh buffers.
    pub fn recycle(&mut self, doc: FoldedDoc) {
        self.buf = doc.buf;
        self.line_spans = doc.line_spans;
    }
}

fn fill<'a>(
    mut buf: String,
    mut line_spans: Vec<(usize, usize)>,
    lines: impl Iterator<Item = &'a str>,
) -> FoldedDoc {
    buf.clear();
    line_spans.clear();
    // Folding never grows a line; ~64 bytes per line is a safe start. On a
    // recycled arena with enough capacity these reserves are no-ops.
    buf.reserve(lines.size_hint().0.saturating_mul(64));
    line_spans.reserve(lines.size_hint().0);
    for line in lines {
        let start = buf.len();
        fold_into(&mut buf, line);
        line_spans.push((start, buf.len()));
        buf.push(' ');
    }
    FoldedDoc { buf, line_spans }
}

impl FoldedDoc {
    /// Fold each line once into the shared buffer.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> FoldedDoc {
        fill(String::new(), Vec::new(), lines.into_iter())
    }

    /// [`FoldedDoc::from_lines`], but built in `arena`'s recycled buffers:
    /// byte-identical output, no fresh allocation when the arena's last
    /// document was at least as large.
    pub fn from_lines_in<'a>(
        arena: &mut FoldArena,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> FoldedDoc {
        fill(
            std::mem::take(&mut arena.buf),
            std::mem::take(&mut arena.line_spans),
            lines.into_iter(),
        )
    }

    /// The whole folded buffer.
    pub fn folded(&self) -> &str {
        &self.buf
    }

    /// Number of source lines.
    pub fn line_count(&self) -> usize {
        self.line_spans.len()
    }

    /// Byte span of line `idx`'s folded text within [`Self::folded`]
    /// (excludes the joining space).
    pub fn line_span(&self, idx: usize) -> Option<(usize, usize)> {
        self.line_spans.get(idx).copied()
    }

    /// For each needle, whether `fold(needle)` occurs as a substring of the
    /// folded buffer: `self.folded().contains(&fold(needle))` per needle,
    /// with every needle folded into one reused scratch buffer. Needles
    /// that fold to the empty string are trivially present, as with
    /// `str::contains("")`.
    pub fn verify_batch<'a>(&self, needles: impl IntoIterator<Item = &'a str>) -> Vec<bool> {
        let mut folded_needle = String::new();
        needles
            .into_iter()
            .map(|needle| {
                folded_needle.clear();
                fold_into(&mut folded_needle, needle);
                self.buf.contains(folded_needle.as_str())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_taxonomy::normalize::fold;

    const LINES: [&str; 4] = [
        "We collect your Email Address.",
        "",
        "  Third parties: analytics, advertising!  ",
        "We do not sell biometric data.",
    ];

    fn doc() -> FoldedDoc {
        FoldedDoc::from_lines(LINES)
    }

    #[test]
    fn buffer_is_fold_per_line_plus_space() {
        let mut expected = String::new();
        for line in LINES {
            expected.push_str(&fold(line));
            expected.push(' ');
        }
        assert_eq!(doc().folded(), expected);
    }

    #[test]
    fn line_spans_slice_back_to_folds() {
        let d = doc();
        assert_eq!(d.line_count(), LINES.len());
        for (i, line) in LINES.iter().enumerate() {
            let (start, end) = d.line_span(i).unwrap();
            assert_eq!(&d.folded()[start..end], fold(line));
        }
        assert_eq!(d.line_span(LINES.len()), None);
    }

    #[test]
    fn verify_batch_matches_contains_of_fold() {
        let d = doc();
        let needles = [
            "email address",
            "EMAIL, address",
            "biometric data",
            "postal address",
            "analytics advertising",
            "",
            "!!!",
            "collect your email address third",
        ];
        let got = d.verify_batch(needles.iter().copied());
        let expected: Vec<bool> = needles
            .iter()
            .map(|n| d.folded().contains(&fold(n)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn duplicate_needles_verify_independently() {
        let d = doc();
        let got = d.verify_batch(["email address", "email address", "nope"]);
        assert_eq!(got, vec![true, true, false]);
    }

    #[test]
    fn arena_reuse_is_byte_identical_and_keeps_capacity() {
        let mut arena = FoldArena::new();
        let big = FoldedDoc::from_lines_in(&mut arena, LINES);
        assert_eq!(big.folded(), doc().folded());
        let grown_capacity = big.buf.capacity();
        arena.recycle(big);
        // A smaller follow-up document reuses the grown buffer.
        let small = FoldedDoc::from_lines_in(&mut arena, ["tiny line"]);
        assert_eq!(
            small.folded(),
            FoldedDoc::from_lines(["tiny line"]).folded()
        );
        assert!(small.buf.capacity() >= grown_capacity);
        assert_eq!(small.line_count(), 1);
    }

    #[test]
    fn empty_document_contains_only_empty_folds() {
        let d = FoldedDoc::from_lines(std::iter::empty());
        assert_eq!(d.folded(), "");
        assert_eq!(d.line_count(), 0);
        assert_eq!(d.verify_batch(["x", " ; "]), vec![false, true]);
    }
}
