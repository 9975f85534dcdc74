//! Aho–Corasick automaton over `u32` symbol streams.
//!
//! The automaton is symbol-agnostic: callers intern whatever alphabet they
//! scan — byte values (substring search over a folded document) or token
//! identifiers (vocabulary phrase matching) — and feed the same automaton.
//! Construction is the textbook goto/fail/output build: a trie over the
//! patterns, breadth-first failure links, and output links that chain each
//! state to its nearest proper suffix state carrying patterns. A scan walks
//! the input once and reports every occurrence of every pattern.
//!
//! Determinism: transitions live in `BTreeMap`s and states are numbered in
//! insertion order, so identical pattern sets always build identical tables
//! regardless of hash seeds.

use std::collections::BTreeMap;

/// Sentinel for "no state" in the output-link chains.
const NONE: u32 = u32::MAX;

/// Incremental trie construction for [`AcAutomaton`].
#[derive(Debug, Default)]
pub struct AcBuilder {
    goto: Vec<BTreeMap<u32, u32>>,
    terminal: Vec<Vec<u32>>,
    pat_lens: Vec<u32>,
    symbol_bound: u32,
}

impl AcBuilder {
    /// Empty builder (just the root state).
    pub fn new() -> AcBuilder {
        AcBuilder {
            goto: vec![BTreeMap::new()],
            terminal: vec![Vec::new()],
            pat_lens: Vec::new(),
            symbol_bound: 0,
        }
    }

    /// Insert one pattern; returns its id, or `None` if the pattern is
    /// empty. Duplicate patterns get distinct ids terminating at the same
    /// state (callers resolve precedence by id order).
    pub fn add(&mut self, symbols: impl IntoIterator<Item = u32>) -> Option<u32> {
        let mut state = 0usize;
        let mut len = 0u32;
        for sym in symbols {
            if sym >= self.symbol_bound {
                self.symbol_bound = sym + 1;
            }
            let next_id = u32::try_from(self.goto.len()).unwrap_or(u32::MAX);
            let next = match self.goto.get_mut(state) {
                Some(map) => *map.entry(sym).or_insert(next_id),
                None => next_id,
            };
            if next == next_id {
                self.goto.push(BTreeMap::new());
                self.terminal.push(Vec::new());
            }
            state = next as usize;
            len += 1;
        }
        if len == 0 {
            return None;
        }
        let pat = u32::try_from(self.pat_lens.len()).unwrap_or(u32::MAX);
        self.pat_lens.push(len);
        if let Some(t) = self.terminal.get_mut(state) {
            t.push(pat);
        }
        Some(pat)
    }

    /// Finalize: compute failure and output links.
    pub fn build(self) -> AcAutomaton {
        let AcBuilder {
            goto,
            terminal,
            pat_lens,
            symbol_bound,
        } = self;
        let n = goto.len();
        let mut fail = vec![0u32; n];
        let mut out_link = vec![NONE; n];
        let mut first_out = vec![NONE; n];

        let mut root_next = vec![0u32; symbol_bound as usize];
        for (&sym, &next) in &goto[0] {
            if let Some(slot) = root_next.get_mut(sym as usize) {
                *slot = next;
            }
        }

        // Breadth-first over the trie; parents are finalized before
        // children, so fail/out links can chain through them.
        let mut queue: Vec<u32> = goto[0].values().copied().collect();
        let mut head = 0usize;
        while head < queue.len() {
            let state = queue[head] as usize;
            head += 1;
            for (&sym, &child) in goto.get(state).into_iter().flatten() {
                queue.push(child);
                // Walk the parent's failure chain for the longest proper
                // suffix state that can consume `sym`.
                let mut f = fail.get(state).copied().unwrap_or(0);
                let fallback = loop {
                    if f == 0 {
                        break root_next.get(sym as usize).copied().unwrap_or(0);
                    }
                    if let Some(&next) = goto.get(f as usize).and_then(|m| m.get(&sym)) {
                        break next;
                    }
                    f = fail.get(f as usize).copied().unwrap_or(0);
                };
                if let Some(slot) = fail.get_mut(child as usize) {
                    *slot = if fallback == child { 0 } else { fallback };
                }
            }
            let f = fail.get(state).copied().unwrap_or(0) as usize;
            let linked = if terminal.get(f).is_none_or(|t| t.is_empty()) {
                out_link.get(f).copied().unwrap_or(NONE)
            } else {
                f as u32
            };
            if let Some(slot) = out_link.get_mut(state) {
                *slot = linked;
            }
            // `out_link[state]` was just written, so reuse `linked`.
            let first = if terminal.get(state).is_none_or(|t| t.is_empty()) {
                linked
            } else {
                state as u32
            };
            if let Some(slot) = first_out.get_mut(state) {
                *slot = first;
            }
        }

        AcAutomaton {
            goto,
            root_next,
            fail,
            terminal,
            out_link,
            first_out,
            pat_lens,
            symbol_bound,
        }
    }
}

/// Built Aho–Corasick matcher; see [`AcBuilder`].
#[derive(Debug)]
pub struct AcAutomaton {
    goto: Vec<BTreeMap<u32, u32>>,
    /// Dense root transitions (`symbol -> state`, 0 = stay at root): the
    /// scan spends most positions at or near the root, so the common case
    /// is one array read instead of a map probe.
    root_next: Vec<u32>,
    fail: Vec<u32>,
    terminal: Vec<Vec<u32>>,
    out_link: Vec<u32>,
    first_out: Vec<u32>,
    pat_lens: Vec<u32>,
    symbol_bound: u32,
}

impl AcAutomaton {
    /// Length (in symbols) of pattern `pat`.
    pub fn pattern_len(&self, pat: u32) -> usize {
        self.pat_lens.get(pat as usize).copied().unwrap_or(0) as usize
    }

    /// Scan a symbol stream, reporting every pattern occurrence as
    /// `emit(end_index, pattern_id)` — `end_index` is the position of the
    /// occurrence's last symbol, so it starts at
    /// `end_index + 1 - pattern_len(pat)`. Symbols outside the automaton's
    /// alphabet reset the scan to the root (no pattern contains them).
    /// `emit` returns `false` to stop early.
    pub fn scan(
        &self,
        symbols: impl IntoIterator<Item = u32>,
        emit: &mut impl FnMut(usize, u32) -> bool,
    ) {
        let mut state = 0u32;
        for (i, sym) in symbols.into_iter().enumerate() {
            if sym >= self.symbol_bound {
                state = 0;
                continue;
            }
            state = self.step(state, sym);
            let mut s = self.first_out.get(state as usize).copied().unwrap_or(NONE);
            while s != NONE {
                for &pat in self.terminal.get(s as usize).into_iter().flatten() {
                    if !emit(i, pat) {
                        return;
                    }
                }
                s = self.out_link.get(s as usize).copied().unwrap_or(NONE);
            }
        }
    }

    fn step(&self, mut state: u32, sym: u32) -> u32 {
        loop {
            if state == 0 {
                return self.root_next.get(sym as usize).copied().unwrap_or(0);
            }
            if let Some(&next) = self.goto.get(state as usize).and_then(|m| m.get(&sym)) {
                return next;
            }
            state = self.fail.get(state as usize).copied().unwrap_or(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(patterns: &[&str]) -> AcAutomaton {
        let mut b = AcBuilder::new();
        for p in patterns {
            b.add(p.bytes().map(u32::from));
        }
        b.build()
    }

    /// All `(end, pat)` occurrences, in scan order.
    fn occurrences(ac: &AcAutomaton, text: &str) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        ac.scan(text.bytes().map(u32::from), &mut |end, pat| {
            out.push((end, pat));
            true
        });
        out
    }

    #[test]
    fn textbook_he_she_his_hers() {
        let ac = build(&["he", "she", "his", "hers"]);
        let got = occurrences(&ac, "ushers");
        // "ushers": "she" ends at 3, "he" ends at 3, "hers" ends at 5.
        assert!(got.contains(&(3, 1)), "{got:?}");
        assert!(got.contains(&(3, 0)), "{got:?}");
        assert!(got.contains(&(5, 3)), "{got:?}");
        assert_eq!(got.len(), 3, "{got:?}");
    }

    #[test]
    fn overlapping_and_nested_patterns_all_reported() {
        let ac = build(&["a", "aa", "aaa"]);
        let got = occurrences(&ac, "aaaa");
        // Every suffix of every prefix: 4x"a", 3x"aa", 2x"aaa".
        assert_eq!(got.iter().filter(|(_, p)| *p == 0).count(), 4);
        assert_eq!(got.iter().filter(|(_, p)| *p == 1).count(), 3);
        assert_eq!(got.iter().filter(|(_, p)| *p == 2).count(), 2);
    }

    #[test]
    fn duplicate_patterns_get_distinct_ids_same_hits() {
        let mut b = AcBuilder::new();
        let first = b.add("dup".bytes().map(u32::from));
        let second = b.add("dup".bytes().map(u32::from));
        assert_eq!(first, Some(0));
        assert_eq!(second, Some(1));
        let ac = b.build();
        let got = occurrences(&ac, "a dup here");
        assert_eq!(got, vec![(4, 0), (4, 1)]);
    }

    #[test]
    fn empty_pattern_rejected() {
        let mut b = AcBuilder::new();
        assert_eq!(b.add(std::iter::empty()), None);
        assert_eq!(b.add("x".bytes().map(u32::from)), Some(0));
    }

    #[test]
    fn out_of_alphabet_symbols_reset_to_root() {
        let ac = build(&["ab"]);
        // 0x1F600 is far outside the byte alphabet: a match must not
        // bridge across it.
        let symbols = [u32::from(b'a'), 0x1F600, u32::from(b'b')];
        let mut hits = Vec::new();
        ac.scan(symbols.iter().copied(), &mut |end, pat| {
            hits.push((end, pat));
            true
        });
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn early_exit_stops_scan() {
        let ac = build(&["a"]);
        let mut seen = 0;
        ac.scan("aaaa".bytes().map(u32::from), &mut |_, _| {
            seen += 1;
            false
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn pattern_metadata() {
        let ac = build(&["he", "hers"]);
        assert_eq!(ac.pattern_len(0), 2);
        assert_eq!(ac.pattern_len(1), 4);
    }
}
