//! Lazily repaired state fingerprint for the explorer's dedup.
//!
//! The executor keeps one FNV-1a hash per *component* of its state —
//! each shared variable, each sync object, each thread — and folds them
//! into a single key with XOR. XOR is order-independent and
//! self-inverse, so when a component changes the key is repaired by
//! xoring out its stale hash and xoring in the fresh one.
//!
//! The repair is lazy. A step only sets the touched components' bits in
//! a dirty bitset; nothing is hashed. Whoever needs the key rehashes
//! just the dirty components: [`Executor::state_key`] folds the fresh
//! hashes in on the fly without storing them, and the explorer's dedup
//! probe repairs the cache in place, so the children it snapshots
//! inherit a clean key. Searches that never read the key (full
//! enumeration, DPOR) never hash at all, and a component touched by
//! many steps between two probes is rehashed once.
//!
//! Every component hash is seeded with a kind tag and the component's
//! index and finished with a `splitmix64`-style avalanche, so distinct
//! components land in independent positions of the fold and structured
//! patterns (two counters swapping values, say) do not cancel.
//!
//! This module owns the bookkeeping (slots, dirty bits, fold); the
//! executor owns the *content* hashing. `Executor::state_key_recomputed`
//! hashes every component from scratch, and the property suite checks
//! the lazy key against it after arbitrary step sequences.
//!
//! [`Executor::state_key`]: crate::Executor::state_key

/// Streaming 64-bit FNV-1a hasher with a strong finisher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn byte(mut self, b: u8) -> Fnv {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        self
    }

    pub(crate) fn bytes(mut self, bs: &[u8]) -> Fnv {
        for &b in bs {
            self = self.byte(b);
        }
        self
    }

    /// One multiply round per word instead of eight byte rounds: every
    /// dedup probe rehashes the components its edge touched, so this is
    /// hot-path cost. The word is avalanched first so a single round
    /// still diffuses it across the accumulator.
    pub(crate) fn u64(mut self, v: u64) -> Fnv {
        self.0 = (self.0 ^ mix(v)).wrapping_mul(Self::PRIME);
        self
    }

    pub(crate) fn i64(self, v: i64) -> Fnv {
        self.u64(v as u64)
    }

    pub(crate) fn usize(self, v: usize) -> Fnv {
        self.u64(v as u64)
    }

    /// Finishes with an avalanche mix so component hashes are safe to
    /// combine by XOR.
    pub(crate) fn finish(self) -> u64 {
        mix(self.0)
    }
}

/// `splitmix64` finalizer.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// One hashed component of the execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Comp {
    Var(usize),
    Mutex(usize),
    Cond(usize),
    Rw(usize),
    Sem(usize),
    Thread(usize),
}

/// Cached per-component hashes, their XOR fold, and the bitset of
/// components mutated since their slot was last repaired.
///
/// Slots and dirty bits live in one flat allocation (kind-segmented by
/// offset, the bitset words after the slots): the explorer clones this
/// structure once per snapshot, so the clone must be a single memcpy.
/// Clones inherit the dirty bits along with the stale slots.
#[derive(Debug, Clone)]
pub(crate) struct StateHash {
    /// `n` component hashes, then `n.div_ceil(64)` dirty-bit words.
    slots: Box<[u64]>,
    n: usize,
    /// Start of each kind's segment in `slots`, in [`Comp`] kind order
    /// (vars start at 0).
    offsets: [u32; 5],
    /// The XOR fold over the slots; stale for dirty components.
    key: u64,
}

impl StateHash {
    /// A cache for a state with the given component counts, with every
    /// component dirty: the first read hashes them all.
    pub(crate) fn with_sizes(
        vars: usize,
        mutexes: usize,
        conds: usize,
        rws: usize,
        sems: usize,
        threads: usize,
    ) -> StateHash {
        let mutexes_at = vars;
        let conds_at = mutexes_at + mutexes;
        let rws_at = conds_at + conds;
        let sems_at = rws_at + rws;
        let threads_at = sems_at + sems;
        let n = threads_at + threads;
        let mut slots = vec![0; n + n.div_ceil(64)];
        for i in 0..n {
            slots[n + i / 64] |= 1 << (i % 64);
        }
        StateHash {
            slots: slots.into_boxed_slice(),
            n,
            offsets: [
                mutexes_at as u32,
                conds_at as u32,
                rws_at as u32,
                sems_at as u32,
                threads_at as u32,
            ],
            key: 0,
        }
    }

    fn at(&self, c: Comp) -> usize {
        match c {
            Comp::Var(i) => i,
            Comp::Mutex(i) => self.offsets[0] as usize + i,
            Comp::Cond(i) => self.offsets[1] as usize + i,
            Comp::Rw(i) => self.offsets[2] as usize + i,
            Comp::Sem(i) => self.offsets[3] as usize + i,
            Comp::Thread(i) => self.offsets[4] as usize + i,
        }
    }

    /// The component stored at slot `at`.
    fn comp(&self, at: usize) -> Comp {
        let kind = self
            .offsets
            .iter()
            .take_while(|&&o| o as usize <= at)
            .count();
        let base = if kind == 0 {
            0
        } else {
            self.offsets[kind - 1] as usize
        };
        let i = at - base;
        match kind {
            0 => Comp::Var(i),
            1 => Comp::Mutex(i),
            2 => Comp::Cond(i),
            3 => Comp::Rw(i),
            4 => Comp::Sem(i),
            _ => Comp::Thread(i),
        }
    }

    /// Marks a component as mutated: one bit set, no hashing.
    pub(crate) fn touch(&mut self, c: Comp) {
        let at = self.at(c);
        self.slots[self.n + at / 64] |= 1 << (at % 64);
    }

    /// The slots of the dirty components, ascending.
    fn dirty_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots[self.n..]
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * 64 + b
                    })
                })
            })
    }

    /// The dirty components, each with its stale cached hash.
    pub(crate) fn dirty(&self) -> impl Iterator<Item = (Comp, u64)> + '_ {
        self.dirty_slots().map(|at| (self.comp(at), self.slots[at]))
    }

    /// Pops one dirty component, clearing its bit.
    pub(crate) fn pop_dirty(&mut self) -> Option<Comp> {
        let at = self.dirty_slots().next()?;
        self.slots[self.n + at / 64] &= !(1 << (at % 64));
        Some(self.comp(at))
    }

    /// Installs a fresh hash for `c`, repairing the fold: the stale
    /// hash xors out, the fresh one xors in.
    pub(crate) fn replace(&mut self, c: Comp, fresh: u64) {
        let at = self.at(c);
        let stale = std::mem::replace(&mut self.slots[at], fresh);
        self.key ^= stale ^ fresh;
    }

    /// `true` when no component awaits a rehash (the fold is valid).
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.slots[self.n..].iter().all(|&w| w == 0)
    }

    /// The cached XOR fold: the state key when no component is dirty,
    /// and otherwise the base the dirty components' deltas apply to.
    pub(crate) fn cached_key(&self) -> u64 {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache with every slot installed and clean.
    fn clean(h: &mut StateHash) {
        while let Some(c) = h.pop_dirty() {
            h.replace(c, 0);
        }
    }

    #[test]
    fn replace_repairs_the_fold() {
        let mut h = StateHash::with_sizes(2, 1, 0, 0, 0, 1);
        clean(&mut h);
        h.replace(Comp::Var(0), 10);
        h.replace(Comp::Var(1), 20);
        h.replace(Comp::Mutex(0), 40);
        h.replace(Comp::Thread(0), 80);
        assert_eq!(h.cached_key(), 10 ^ 20 ^ 40 ^ 80);
        // Updating one component swaps exactly its contribution.
        h.replace(Comp::Var(1), 21);
        assert_eq!(h.cached_key(), 10 ^ 21 ^ 40 ^ 80);
    }

    #[test]
    fn a_new_cache_is_all_dirty() {
        let h = StateHash::with_sizes(1, 1, 1, 1, 1, 2);
        let dirty: Vec<Comp> = h.dirty().map(|(c, _)| c).collect();
        assert_eq!(
            dirty,
            [
                Comp::Var(0),
                Comp::Mutex(0),
                Comp::Cond(0),
                Comp::Rw(0),
                Comp::Sem(0),
                Comp::Thread(0),
                Comp::Thread(1),
            ]
        );
    }

    #[test]
    fn touch_is_idempotent_per_cycle() {
        let mut h = StateHash::with_sizes(1, 0, 0, 0, 0, 1);
        clean(&mut h);
        assert!(h.is_clean());
        h.touch(Comp::Var(0));
        h.touch(Comp::Var(0));
        h.touch(Comp::Thread(0));
        assert!(!h.is_clean());
        assert!(h.pop_dirty().is_some());
        assert!(h.pop_dirty().is_some());
        assert!(h.pop_dirty().is_none());
        assert!(h.is_clean());
    }

    #[test]
    fn dirty_bits_span_several_words() {
        let mut h = StateHash::with_sizes(64, 3, 0, 0, 0, 8);
        clean(&mut h);
        h.touch(Comp::Thread(7));
        h.touch(Comp::Var(63));
        h.touch(Comp::Mutex(0));
        let dirty: Vec<Comp> = h.dirty().map(|(c, _)| c).collect();
        assert_eq!(dirty, [Comp::Var(63), Comp::Mutex(0), Comp::Thread(7)]);
        // A clone inherits the dirty bits; clearing one side leaves the
        // other dirty.
        let copy = h.clone();
        clean(&mut h);
        assert!(h.is_clean());
        assert_eq!(copy.dirty().count(), 3);
    }

    #[test]
    fn fnv_distinguishes_order_and_content() {
        let a = Fnv::new().u64(1).u64(2).finish();
        let b = Fnv::new().u64(2).u64(1).finish();
        let c = Fnv::new().u64(1).u64(2).finish();
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(
            Fnv::new().bytes(b"x").finish(),
            Fnv::new().bytes(b"y").finish()
        );
    }

    #[test]
    fn mix_avalanches_low_bits() {
        // Consecutive inputs must not produce correlated folds.
        let h1 = mix(1);
        let h2 = mix(2);
        assert_ne!(h1 ^ h2, 3, "mix must break additive structure");
        assert_ne!(h1, h2);
    }
}
