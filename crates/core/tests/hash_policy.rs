//! The hashing policy: one deterministic multiply-mix hasher,
//! `StripeHasher`, keys every table on the per-operation and per-commit
//! paths, and SipHash stays only where the hash decides which keys share
//! a conflict unit (`TxHashMap`'s bucket index). A key type that counts its
//! `Hash` passes by hasher type turns each rule into a count.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use txcollections::{key_hash64, stripe_index, TransactionalMap};
use txstruct::{BoostedHashMap, TxHashMap};

thread_local! {
    /// `Hash` passes of [`Counted`] keys made on this thread, by hasher
    /// type name.
    static PASSES: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A `u64` key that records, on every `Hash` call, which hasher ran it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counted(u64);

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let name = std::any::type_name::<H>();
        PASSES.with(|p| {
            let mut p = p.borrow_mut();
            match p.iter_mut().find(|(n, _)| *n == name) {
                Some((_, count)) => *count += 1,
                None => p.push((name, 1)),
            }
        });
        self.0.hash(state);
    }
}

/// `Hash` passes made while a closure ran on this thread.
#[derive(Debug, Default)]
struct Passes {
    /// By SipHash: `DefaultHasher`, alone or behind `RandomState`.
    sip: u64,
    /// By `StripeHasher`.
    stripe: u64,
    /// By any other hasher.
    other: Vec<(&'static str, u64)>,
}

/// The passes made on this thread since the last call.
fn take_passes() -> Passes {
    let mut out = Passes::default();
    for (name, n) in PASSES.with(|p| std::mem::take(&mut *p.borrow_mut())) {
        if name.contains("DefaultHasher") || name.contains("SipHasher") {
            out.sip += n;
        } else if name.ends_with("StripeHasher") {
            out.stripe += n;
        } else {
            out.other.push((name, n));
        }
    }
    out
}

/// Run `f`, returning its result and the passes it made.
fn passes<R>(f: impl FnOnce() -> R) -> (R, Passes) {
    take_passes();
    let r = f();
    (r, take_passes())
}

#[test]
fn boosted_map_point_ops_make_no_siphash_pass() {
    let m: BoostedHashMap<Counted, u64> = BoostedHashMap::new();
    for k in 0..256 {
        let (_, p) = passes(|| m.insert(Counted(k), k));
        assert_eq!(p.sip, 0, "insert of {k}: {p:?}");
        assert!(p.other.is_empty(), "insert of {k}: {p:?}");
    }
    for k in 0..256 {
        // One mixer pass chooses the shard, one more probes its table.
        let (v, p) = passes(|| m.get(&Counted(k)));
        assert_eq!(v, Some(k));
        assert_eq!((p.sip, p.stripe), (0, 2), "get of {k}: {p:?}");
        let (hit, p) = passes(|| m.contains_key(&Counted(k)));
        assert!(hit);
        assert_eq!((p.sip, p.stripe), (0, 2), "contains_key of {k}: {p:?}");
        let (old, p) = passes(|| m.remove(&Counted(k)));
        assert_eq!(old, Some(k));
        assert_eq!((p.sip, p.stripe), (0, 2), "remove of {k}: {p:?}");
        assert!(p.other.is_empty(), "{p:?}");
    }
}

#[test]
fn boosted_transactional_map_ops_and_commits_make_no_siphash_pass() {
    let map: TransactionalMap<Counted, u64, _> = TransactionalMap::boosted();
    stm::atomic(|tx| {
        for k in 0..64 {
            map.put_discard(tx, Counted(k), k);
        }
    });
    for k in 0..64 {
        let mut body = (Passes::default(), Passes::default());
        take_passes();
        stm::atomic(|tx| {
            take_passes();
            assert_eq!(map.get(tx, &Counted(k)), Some(k));
            let get = take_passes();
            map.put_discard(tx, Counted(k + 64), k);
            body = (get, take_passes());
        });
        // Everything after the body: the commit's applies, lock sweeps and
        // releases.
        let commit = take_passes();
        let (get, put) = body;
        assert_eq!(get.sip, 0, "get of {k}: {get:?}");
        assert_eq!(put.sip, 0, "put_discard of {k}: {put:?}");
        assert_eq!(commit.sip, 0, "commit of key {k}: {commit:?}");
        assert!(get.stripe > 0 && put.stripe > 0 && commit.stripe > 0);
        assert!(get.other.is_empty() && put.other.is_empty() && commit.other.is_empty());
    }
    assert_eq!(stm::atomic(|tx| map.size(tx)), 128);
}

#[test]
fn tx_hash_map_makes_one_siphash_pass_per_bucket_index() {
    // Pre-sized so that no insert below resizes (a resize re-indexes
    // every entry, one pass each).
    let m: TxHashMap<Counted, u64> = TxHashMap::with_capacity(1024);
    stm::atomic(|tx| {
        for k in 0..64 {
            let (_, p) = passes(|| m.insert(tx, Counted(k), k));
            assert_eq!((p.sip, p.stripe), (1, 0), "insert of {k}: {p:?}");
        }
        for k in 0..64 {
            let (v, p) = passes(|| m.get(tx, &Counted(k)));
            assert_eq!(v, Some(k));
            assert_eq!((p.sip, p.stripe), (1, 0), "get of {k}: {p:?}");
            let (hit, p) = passes(|| m.contains_key(tx, &Counted(k)));
            assert!(hit);
            assert_eq!((p.sip, p.stripe), (1, 0), "contains_key of {k}: {p:?}");
            let (old, p) = passes(|| m.remove(tx, &Counted(k)));
            assert_eq!(old, Some(k));
            assert_eq!((p.sip, p.stripe), (1, 0), "remove of {k}: {p:?}");
            assert!(p.other.is_empty(), "{p:?}");
        }
    });
}

/// `StripeHasher` moved from `txcollections` into `stm`; these values were
/// computed by the old definition. Stripe placement and trace key hashes
/// must not change with the move.
#[test]
fn stripe_hash_is_unchanged_by_the_move() {
    let ints: [(u64, u64, usize); 5] = [
        (1, 0x517c_c1b7_2722_0a95, 2),
        (42, 0x5e77_c80c_6b95_bc72, 14),
        (65_535, 0x703a_656a_e372_f56b, 1),
        (1 << 40, 0x220a_9500_0000_0000, 0),
        (u64::MAX, 0xae83_3e48_d8dd_f56b, 3),
    ];
    for (k, hash, stripe) in ints {
        assert_eq!(key_hash64(&k), hash, "key_hash64({k})");
        assert_eq!(stripe_index(&k, 16), stripe, "stripe_index({k}, 16)");
    }
    let strings: [(&str, u64, usize); 4] = [
        ("", 0x2b44_f56f_fae8_8a6b, 4),
        ("a", 0xaa44_c3c5_b8e2_2aff, 10),
        ("alpha", 0x4a76_6983_8c5e_3490, 3),
        ("transactional collection classes", 0x44d8_984d_87cd_682e, 3),
    ];
    for (s, hash, stripe) in strings {
        let k = s.to_string();
        assert_eq!(key_hash64(&k), hash, "key_hash64({s:?})");
        assert_eq!(stripe_index(&k, 16), stripe, "stripe_index({s:?}, 16)");
    }
}
