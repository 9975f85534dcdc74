//! Allocation-free re-expressions of [`aipan_taxonomy::normalize::fold`].
//!
//! `fold` returns a fresh `String` per call, which is fine at vocabulary
//! build time but shows up hot when the pipeline folds thousands of
//! candidate rows per corpus. These helpers produce the *same bytes* —
//! property-tested against `fold` in `tests/fold_props.rs` — without the
//! per-call allocation: [`fold_into`] appends to a caller-reused buffer.
//!
//! The fold itself: ASCII-lowercase; keep alphanumerics plus `-` `/` `&`
//! `'`; collapse every separator run to a single space; no leading or
//! trailing space.

/// Whether a (lowercased) char survives the fold.
fn keep(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '-' || ch == '/' || ch == '&' || ch == '\''
}

/// Append `fold(s)` onto `dst` without allocating a fresh `String`.
pub fn fold_into(dst: &mut String, s: &str) {
    let mut pending_space = false;
    let mut emitted = false;
    for ch in s.chars() {
        let ch = ch.to_ascii_lowercase();
        if keep(ch) {
            if pending_space {
                dst.push(' ');
                pending_space = false;
            }
            dst.push(ch);
            emitted = true;
        } else if emitted {
            pending_space = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipan_taxonomy::normalize::fold;

    #[test]
    fn matches_taxonomy_fold_on_representative_inputs() {
        for s in [
            "",
            "   ",
            "  E-Mail   Address!! ",
            "IP, address.",
            "zip/postal code",
            "We do NOT sell data…",
            "café résumé 中文 data",
            "a",
            "!?",
            "trailing space ",
            " leading",
        ] {
            let expected = fold(s);
            let mut appended = String::from("prefix·");
            fold_into(&mut appended, s);
            assert_eq!(appended, format!("prefix·{expected}"), "fold_into({s:?})");
        }
    }

    #[test]
    fn fold_into_appends_without_separator() {
        let mut buf = String::new();
        fold_into(&mut buf, "One!");
        fold_into(&mut buf, "Two?");
        // Appends are raw concatenation; callers insert their own joins.
        assert_eq!(buf, "onetwo");
    }

    #[test]
    fn multibyte_kept_chars_survive_fold_into() {
        // '中' is alphanumeric (Unicode letter) and 3 bytes in UTF-8.
        let mut buf = String::new();
        fold_into(&mut buf, "中");
        assert_eq!(buf, "中");
        buf.clear();
        fold_into(&mut buf, "a 中 b");
        assert_eq!(buf, "a 中 b");
    }
}
