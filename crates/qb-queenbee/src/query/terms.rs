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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TermId(u32);

/// Every term an engine has met: rows `(text, version, key)` by id, and
/// the one map from text to id.
#[derive(Debug, Default)]
pub(crate) struct TermTable {
    rows: Vec<(Arc<str>, u64, OnceCell<TermKey>)>,
    ids: HashMap<Arc<str>, TermId>,
    /// The analyzer's token buffer, reused across texts.
    buf: String,
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
