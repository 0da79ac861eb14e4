//! The term table: each analysed term the engine meets is named once, by a
//! [`TermId`] drawn from a counter (never derived from the text), in a row
//! of its shared text, the highest shard version the engine wrote for it
//! and its gossip [`TermKey`]. ARCHITECTURE.md says where text is read.

use qb_gossip::TermKey;
use qb_index::Analyzer;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

/// A term's row in the engine's term table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

/// Every term an engine has met: rows `(text, version, key)` by id, and
/// the one map from text to id.
#[derive(Debug, Default)]
pub(crate) struct TermTable {
    rows: Vec<(Arc<str>, u64, OnceCell<TermKey>)>,
    ids: HashMap<Arc<str>, TermId>,
    /// The analyzer's token buffer, reused across texts.
    buf: String,
    /// A counted text's ids in token order, reused across texts.
    tokens: Vec<TermId>,
}

impl TermTable {
    /// `text`'s id, entering it at version 0 when it is new (the only
    /// case that allocates).
    pub(crate) fn intern(&mut self, text: &str) -> TermId {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = TermId(self.rows.len() as u32);
        let text: Arc<str> = Arc::from(text);
        self.ids.insert(Arc::clone(&text), id);
        self.rows.push((text, 0, OnceCell::new()));
        id
    }

    /// Intern every analysed term of `text` in text order and pass each id
    /// to `each`. Tokens go through the table's one buffer, so a text of
    /// known terms allocates nothing.
    pub(crate) fn intern_analyzed(
        &mut self,
        analyzer: &Analyzer,
        text: &str,
        mut each: impl FnMut(&TermTable, TermId),
    ) {
        let mut buf = std::mem::take(&mut self.buf);
        analyzer.for_each_term(text, &mut buf, |term| {
            let id = self.intern(term);
            each(self, id);
        });
        self.buf = buf;
    }

    /// Count the analysed terms of `text` by id into `counts` (cleared
    /// first): each distinct term once, beside its count, in term text
    /// order — [`Analyzer::term_frequencies`] of `text`, each term named
    /// by its id. Known terms allocate nothing, and neither does the count.
    pub(crate) fn count_analyzed(
        &mut self,
        analyzer: &Analyzer,
        text: &str,
        counts: &mut Vec<(TermId, u32)>,
    ) {
        let mut tokens = std::mem::take(&mut self.tokens);
        tokens.clear();
        self.intern_analyzed(analyzer, text, |_, id| tokens.push(id));
        // Equal ids are equal texts, so a sort by text puts each term's
        // tokens in one run.
        tokens.sort_unstable_by(|&a, &b| self.text(a).cmp(self.text(b)));
        counts.clear();
        let runs = tokens.chunk_by(|a, b| a == b);
        counts.extend(runs.map(|run| (run[0], run.len() as u32)));
        self.tokens = tokens;
    }

    /// The term's text.
    pub(crate) fn text(&self, id: TermId) -> &Arc<str> {
        &self.rows[id.0 as usize].0
    }

    /// The highest shard version the engine wrote for the term.
    pub(crate) fn version(&self, id: TermId) -> u64 {
        self.rows[id.0 as usize].1
    }

    /// [`TermTable::version`] by text: 0 for a term never met, exactly as
    /// for one held at version 0.
    #[cfg(test)]
    pub(crate) fn version_of(&self, text: &str) -> u64 {
        self.ids.get(text).map_or(0, |&id| self.version(id))
    }

    /// The term's version counter, to bump on a write.
    pub(crate) fn version_mut(&mut self, id: TermId) -> &mut u64 {
        &mut self.rows[id.0 as usize].1
    }

    /// The term's gossip key.
    pub(crate) fn key(&self, id: TermId) -> &TermKey {
        let (text, _, key) = &self.rows[id.0 as usize];
        key.get_or_init(|| TermKey::of(Arc::clone(text)))
    }

    /// Rows in the table.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A page counted through the table, each id read back as its
        /// text, is the analyzer's own count of the page, in its order —
        /// into a list reused across pages and a table that already knows
        /// some of their terms.
        #[test]
        fn counted_ids_read_as_the_analyzers_term_frequencies(
            pages in proptest::collection::vec(
                proptest::collection::vec((0usize..12, 0usize..3), 0..40),
                1..4,
            ),
        ) {
            let words = [
                "honey", "bees", "bee", "the", "Nectar", "nectars", "hive", "x",
                "indexing", "indexes", "Über", "ab",
            ];
            let gaps = [" ", ", ", ".\n"];
            let analyzer = Analyzer::new();
            let mut table = TermTable::default();
            let mut counts = Vec::new();
            for page in pages {
                let text: String = page.iter().map(|&(w, g)| [words[w], gaps[g]].concat()).collect();
                table.count_analyzed(&analyzer, &text, &mut counts);
                let named: Vec<(String, u32)> = counts
                    .iter()
                    .map(|&(id, n)| (table.text(id).to_string(), n))
                    .collect();
                prop_assert_eq!(named, analyzer.term_frequencies(&text));
            }
        }
    }
}
