//! A thread's local-variable table: a fixed-capacity inline array.
//!
//! Kernel threads write a handful of locals, keyed by the static names
//! baked into their programs, and [`crate::ProgramBuilder::build`]
//! rejects a thread that writes more than [`MAX_LOCALS`] distinct names.
//! So the table needs no heap: a lookup is a linear scan over at most
//! [`MAX_LOCALS`] short names, and copying the table — unsharing a
//! thread's state after a snapshot, or taking a transaction's restore
//! point — is a memcpy instead of a hash-table clone.
//!
//! Entries keep insertion order, but nothing observable depends on it:
//! the state key folds the entries order-independently. A name that
//! was never written is *absent*, which the state key distinguishes
//! from a local set to 0 (evaluation reads both as 0).

/// Most distinct locals one thread may write.
/// [`crate::ProgramBuilder::build`] rejects a thread over the limit.
pub const MAX_LOCALS: usize = 8;

/// A thread's locals: up to [`MAX_LOCALS`] `(name, value)` entries,
/// inline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Locals {
    len: usize,
    entries: [(&'static str, i64); MAX_LOCALS],
}

impl Default for Locals {
    fn default() -> Locals {
        Locals {
            len: 0,
            entries: [("", 0); MAX_LOCALS],
        }
    }
}

impl Locals {
    /// The value of `name`, if it was ever written.
    pub(crate) fn get(&self, name: &str) -> Option<i64> {
        self.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Writes `name`, adding it when absent.
    ///
    /// # Panics
    ///
    /// When the table already holds [`MAX_LOCALS`] other names; the
    /// builder's limit rules that out for every built program.
    pub(crate) fn insert(&mut self, name: &'static str, value: i64) {
        let live = &mut self.entries[..self.len];
        if let Some(entry) = live.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = value;
            return;
        }
        assert!(
            self.len < MAX_LOCALS,
            "thread writes more than {MAX_LOCALS} locals"
        );
        self.entries[self.len] = (name, value);
        self.len += 1;
    }

    /// Number of locals written.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The written locals, in first-write order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.entries[..self.len].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_overwrites_and_get_reads_back() {
        let mut l = Locals::default();
        assert_eq!(l.get("x"), None);
        l.insert("x", 1);
        l.insert("y", 2);
        l.insert("x", 3);
        assert_eq!(l.get("x"), Some(3));
        assert_eq!(l.get("y"), Some(2));
        assert_eq!(l.len(), 2);
        assert_eq!(l.iter().collect::<Vec<_>>(), [("x", 3), ("y", 2)]);
    }

    #[test]
    fn absent_differs_from_zero() {
        let mut l = Locals::default();
        l.insert("x", 0);
        assert_eq!(l.get("x"), Some(0));
        assert_eq!(l.get("y"), None);
    }

    #[test]
    fn copies_are_independent() {
        let mut a = Locals::default();
        a.insert("x", 1);
        let mut b = a;
        b.insert("x", 2);
        b.insert("z", 9);
        assert_eq!((a.get("x"), a.len()), (Some(1), 1));
        assert_eq!((b.get("x"), b.len()), (Some(2), 2));
    }

    #[test]
    fn holds_exactly_max_locals() {
        const NAMES: [&str; MAX_LOCALS] = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut l = Locals::default();
        for (i, n) in NAMES.iter().enumerate() {
            l.insert(n, i as i64);
        }
        // Overwriting at capacity is fine.
        l.insert("a", 42);
        assert_eq!(l.len(), MAX_LOCALS);
        assert_eq!(l.get("a"), Some(42));
        assert_eq!(l.get("h"), Some(7));
    }

    #[test]
    #[should_panic(expected = "more than")]
    fn one_over_max_locals_panics() {
        let mut l = Locals::default();
        for i in 0..=MAX_LOCALS {
            let name: &'static str = Box::leak(format!("l{i}").into_boxed_str());
            l.insert(name, 0);
        }
    }
}
