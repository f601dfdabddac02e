//! String interning for the span hot path.
//!
//! Span and kernel names repeat massively — a 100k-span run of a 50-layer
//! model carries a few dozen *distinct* strings. The owned `String` per
//! [`crate::span::Span`] is exactly the allocation the arena/SoA store
//! ([`crate::store::SpanStore`]) exists to avoid, so names, tag keys and
//! string tag values all become [`Symbol`]s: `u32` handles into a
//! [`NameTable`].
//!
//! Symbols are assigned in **first-appearance order**. Given a
//! deterministic span order — which the engine's byte-identity contract
//! (serial drain == parallel drain) already guarantees — the table contents
//! and every symbol id are deterministic too, and the `.xspb` binary
//! interchange (which serializes the table as inline name-definition
//! records) inherits byte-for-byte reproducibility. The interner
//! determinism test extends the Serial-vs-`Fixed(4)` contract to this
//! table.
//!
//! Each string goes through [`tag_keys::resolve`] once, when it is first
//! interned: a well-known tag key is stored borrowed, so its entry costs
//! no allocation, and the key the table hands out for it clones for free.
//! The table keeps each string once, in its symbol vector; the lookup
//! index maps string hashes to symbols and compares against that vector.

use crate::fxhash::{FxHashMap, FxHasher};
use crate::span::{tag_keys, TagKey};
use std::hash::{BuildHasher, BuildHasherDefault};

/// A handle to an interned string in a [`NameTable`].
///
/// Symbols are only meaningful relative to the table that produced them;
/// the `.xspb` reader re-interns on ingest precisely so symbols from a
/// foreign capture never leak into a local table unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's raw table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner: first-appearance order assigns dense
/// `u32` ids starting at 0.
///
/// ```
/// use xsp_trace::intern::NameTable;
/// let mut t = NameTable::new();
/// let a = t.intern("conv2d");
/// let b = t.intern("relu");
/// assert_eq!(t.intern("conv2d"), a, "re-interning is idempotent");
/// assert_eq!(t.resolve(b), "relu");
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    /// The interned strings, by symbol: the only copy of each.
    names: Vec<TagKey>,
    /// String hash → the latest symbol interned with that hash.
    by_hash: FxHashMap<u64, u32>,
    /// Symbol → the previous symbol with the same string hash; empty
    /// unless two interned strings collide.
    collisions: FxHashMap<u32, u32>,
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol; a hit costs one hash lookup
    /// and no allocation.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let hash = hash_of(name);
        if let Some(sym) = self.find(hash, name) {
            return sym;
        }
        self.push_new(hash, tag_keys::resolve(name))
    }

    /// The symbol of `name`, whose hash is `hash`, if interned: walks the
    /// symbols sharing the hash, comparing the stored strings.
    fn find(&self, hash: u64, name: &str) -> Option<Symbol> {
        let mut at = self.by_hash.get(&hash).copied();
        while let Some(id) = at {
            if *self.names[id as usize] == *name {
                return Some(Symbol(id));
            }
            at = self.collisions.get(&id).copied();
        }
        None
    }

    fn push_new(&mut self, hash: u64, name: TagKey) -> Symbol {
        let id = u32::try_from(self.names.len()).expect("name table exceeds u32 symbols");
        if let Some(previous) = self.by_hash.insert(hash, id) {
            self.collisions.insert(id, previous);
        }
        self.names.push(name);
        Symbol(id)
    }

    /// Looks up a string without interning it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.find(hash_of(name), name)
    }

    /// Resolves a symbol to its string. Panics on a symbol from another
    /// table (out of range); use [`NameTable::try_resolve`] for untrusted
    /// input.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Resolves a symbol to a tag key: borrowed for a well-known key, so a
    /// clone allocates only for other strings. Panics like
    /// [`NameTable::resolve`].
    pub(crate) fn key(&self, sym: Symbol) -> &TagKey {
        &self.names[sym.index()]
    }

    /// Resolves a symbol, returning `None` when it is out of range.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.names.get(sym.index()).map(|n| &**n)
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates the interned strings in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }
}

/// The lookup hash of an interned string.
fn hash_of(name: &str) -> u64 {
    BuildHasherDefault::<FxHasher>::default().hash_one(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_appearance_order_is_dense_from_zero() {
        let mut t = NameTable::new();
        assert_eq!(t.intern("a"), Symbol(0));
        assert_eq!(t.intern("b"), Symbol(1));
        assert_eq!(t.intern("a"), Symbol(0));
        assert_eq!(t.intern("c"), Symbol(2));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec!["a", "b", "c"]);
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = NameTable::new();
        assert_eq!(t.get("x"), None);
        assert!(t.is_empty());
        let x = t.intern("x");
        assert_eq!(t.get("x"), Some(x));
    }

    #[test]
    fn try_resolve_rejects_foreign_symbols() {
        let mut t = NameTable::new();
        t.intern("only");
        assert_eq!(t.try_resolve(Symbol(0)), Some("only"));
        assert_eq!(t.try_resolve(Symbol(1)), None);
    }

    #[test]
    fn strings_sharing_a_hash_keep_their_own_symbols() {
        // Force every string into one hash chain: lookups must still tell
        // them apart by comparing the stored strings.
        let mut t = NameTable::new();
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            let sym = t.push_new(7, tag_keys::resolve(name));
            assert_eq!(sym, Symbol(i as u32));
        }
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            assert_eq!(t.find(7, name), Some(Symbol(i as u32)));
        }
        assert_eq!(t.find(7, "d"), None);
        assert_eq!(t.find(8, "a"), None);
    }

    #[test]
    fn same_insertion_order_means_same_symbols() {
        // The determinism contract the `.xspb` byte-identity test relies on:
        // identical intern sequences yield identical tables.
        let names = ["predict", "conv", "relu", "conv", "predict", "gemm"];
        let mut a = NameTable::new();
        let mut b = NameTable::new();
        let syms_a: Vec<Symbol> = names.iter().map(|n| a.intern(n)).collect();
        let syms_b: Vec<Symbol> = names.iter().map(|n| b.intern(n)).collect();
        assert_eq!(syms_a, syms_b);
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }
}
