//! The one hasher of every internal table.
//!
//! [`StripeHasher`] is a deterministic multiply-rotate mixer (the FxHash
//! recurrence). It keys the tables on the per-operation and per-commit
//! paths: a transaction's read and write sets, the collections' semantic
//! lock stripes and their per-key tables, every transaction-private buffer
//! and held-key set, and the boosted map's shards. These tables need speed
//! and run-to-run stability, not flooding resistance.
//!
//! The trade-off is that the hasher is not keyed: keys chosen to collide
//! share a probe sequence. In a transaction's own tables that slows only
//! the transaction whose keys collide; in a shared stripe or boosted shard
//! it lengthens the probes of every key in it. A collision never creates or
//! hides a semantic conflict, because stripe and shard placement decide only
//! which short mutex hold two keys share.
//!
//! SipHash stays only where the hash is part of the modelled behaviour:
//! `txstruct`'s `TxHashMap` bucket index and `SegmentedTxHashMap` segment
//! choice decide which keys share a conflict unit, which is what the
//! paper's hash-map figures measure, and the Java lock baselines keep the
//! standard `HashMap` they stand in for.

use crate::tvar::VarId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// The one internal hasher, named for its first use, stripe selection
/// (see the module docs).
#[derive(Default)]
pub struct StripeHasher(u64);

/// Odd multiplier with high-entropy bits (the golden-ratio constant used by
/// FxHash); multiplication diffuses each input bit upward, and [`fold`]
/// brings the well-mixed high half back down.
const STRIPE_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl StripeHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(STRIPE_SEED);
    }
}

impl Hasher for StripeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A `HashMap` keyed with [`StripeHasher`].
pub type StripeMap<K, V> = HashMap<K, V, BuildHasherDefault<StripeHasher>>;

/// A `HashSet` keyed with [`StripeHasher`].
pub type StripeSet<K> = HashSet<K, BuildHasherDefault<StripeHasher>>;

/// Fold the high half of a [`StripeHasher`] result into its low bits. The
/// multiply mixes bits upward only, so the raw low bits of an integer
/// key's hash depend only on its low bits.
#[inline]
fn fold(h: u64) -> u64 {
    h ^ (h >> 32)
}

/// The stripe index `key` hashes to in a table of `nstripes` stripes
/// (callers pass a power of two). Public so tests and diagnostics can
/// predict placement: this is the one definition of the key→stripe map,
/// and of the boosted map's key→shard map.
pub fn stripe_index<K: Hash + ?Sized>(key: &K, nstripes: usize) -> usize {
    (fold(key_hash64(key)) & (nstripes as u64 - 1)) as usize
}

/// The full 64-bit stripe hash of a key — the value [`stripe_index`] folds
/// and masks, and the `key_hash` recorded on trace events (a stable,
/// deterministic key fingerprint that avoids formatting keys on the
/// emission path).
pub fn key_hash64<K: Hash + ?Sized>(key: &K) -> u64 {
    BuildHasherDefault::<StripeHasher>::default().hash_one(key)
}

/// [`StripeHasher`] with a stronger `finish`, for tables keyed by
/// [`VarId`]. A var's id is its 8-aligned address, so the raw product's low
/// three bits, the bits a `HashMap` starts its probe from, would always be
/// zero; [`stripe_index`]'s fold alone still clusters ids at power-of-two
/// strides of 128 bytes and more (cells in 256-byte-aligned blocks). A
/// second multiply between two folds spreads every stride alike.
#[derive(Default)]
pub struct VarIdHasher(StripeHasher);

impl Hasher for VarIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold(fold(self.0.finish()).wrapping_mul(STRIPE_SEED))
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0.write_u64(n);
    }
}

/// A set of [`VarId`]s keyed with [`VarIdHasher`].
pub type VarIdSet = HashSet<VarId, BuildHasherDefault<VarIdHasher>>;

/// A map from [`VarId`]s keyed with [`VarIdHasher`]: a frame's read and
/// write sets, and the chain table.
pub(crate) type VarIdMap<V> = HashMap<VarId, V, BuildHasherDefault<VarIdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct values of the low `bits` bits of `hash` over `ids`.
    fn low_bit_buckets(
        ids: impl Iterator<Item = VarId>,
        bits: u32,
        hash: impl Fn(u64) -> u64,
    ) -> usize {
        let mask = (1u64 << bits) - 1;
        ids.map(|id| hash(id) & mask).collect::<HashSet<_>>().len()
    }

    #[test]
    fn aligned_var_ids_spread_over_the_low_bits() {
        let var_set = BuildHasherDefault::<VarIdHasher>::default();
        // 8-aligned addresses at strides from adjacent words up to 512
        // bytes: inline cells 16 and 24 bytes apart (a `u64` cell, a bucket
        // cell), nodes in 128- and 176-byte heap chunks (a 112-byte tree
        // node, a 160-byte `jbb` order node), and the power-of-two strides
        // that one fold alone clusters.
        for stride in [8u64, 16, 24, 32, 56, 64, 128, 176, 224, 256, 272, 512] {
            let ids = || (0..1024u64).map(move |i| 0x7f3a_5c21_8000 + i * stride);
            let raw = low_bit_buckets(ids(), 10, |id| key_hash64(&id));
            let folded = low_bit_buckets(ids(), 10, |id| var_set.hash_one(id));
            // The raw product keeps the address's zero low bits: at most an
            // eighth of the 1024 low-bit values are reachable.
            assert!(
                raw <= 128,
                "stride {stride}: raw hash reached {raw} of 1024"
            );
            // Folded, 1024 ids land like random draws (about 647 distinct
            // values expected).
            assert!(
                folded >= 560,
                "stride {stride}: folded hash reached only {folded} of 1024"
            );
        }
    }
}
