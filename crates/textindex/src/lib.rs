//! Fold-once text engine shared by the annotation pipeline.
//!
//! The paper's §3.2 annotate-and-verify loop touches every policy line many
//! times: vocabulary scanning per task, substring verification per candidate
//! row, and normalization folds per mention. This crate centralizes the two
//! data structures that let the pipeline do each of those passes exactly
//! once:
//!
//! * [`AcAutomaton`] — a classic Aho–Corasick automaton (goto/fail/output
//!   tables) over `u32` symbol streams. Symbols are whatever the caller
//!   interns; the chatbot's vocabulary matcher feeds it token identifiers
//!   for phrase matching. One scan of a document yields *every*
//!   occurrence of *every* pattern.
//! * [`FoldedDoc`] — a policy document folded exactly once through the
//!   taxonomy normalization ([`aipan_taxonomy::normalize::fold`]) into a single
//!   buffer with per-line spans. Verification answers all of a policy's
//!   candidate rows in one call ([`FoldedDoc::verify_batch`]), folding each
//!   needle into a reused scratch buffer instead of a fresh `String` per row.
//!
//! The folding helper [`fold_into`] is a byte-exact re-expression of
//! [`aipan_taxonomy::normalize::fold`] — property-tested against it in
//! `tests/fold_props.rs` — differing only in where the output goes
//! (appended to a reused buffer) rather than in what it is.

pub mod ac;
pub mod doc;
pub mod fold;

pub use ac::{AcAutomaton, AcBuilder};
pub use doc::{FoldArena, FoldedDoc};
pub use fold::fold_into;
