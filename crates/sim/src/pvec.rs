//! `PSeq`: a persistent append-only sequence with cheap clones.
//!
//! The executor's recorded event trace is large per entry (every event
//! carries a vector clock), so a snapshot must not copy it. Here the
//! history lives in chunked `Arc` storage: a clone copies only a small
//! table of chunk pointers, and a push mutates the last chunk in place
//! while this sequence is its sole owner — otherwise it opens a fresh
//! chunk, leaving the shared history untouched. Chunks frozen by a
//! clone stay immutable forever, so divergent futures of a branch point
//! can never observe each other's appends.
//!
//! The schedule taken does not live here. Its entries are 4-byte
//! thread ids, and a flat vector copied with spare capacity costs a
//! snapshot one allocation. A `PSeq` clone costs a chunk-table copy,
//! then a fresh chunk and a table growth on the child's first push.

use std::sync::Arc;

/// Elements per chunk. Clones copy the chunk-pointer table (`len /
/// CHUNK` words), so the constant trades per-clone pointer count
/// against the capacity wasted when a shared chunk is abandoned early.
const CHUNK: usize = 64;

/// An append-only sequence whose clones share history through `Arc`d
/// chunks (copy-on-write at chunk granularity).
#[derive(Debug, Clone)]
pub(crate) struct PSeq<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for PSeq<T> {
    fn default() -> PSeq<T> {
        PSeq::new()
    }
}

impl<T> PSeq<T> {
    pub(crate) fn new() -> PSeq<T> {
        PSeq {
            chunks: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an element: in place when the last chunk is uniquely
    /// owned and has room, otherwise into a fresh chunk. Never mutates
    /// a chunk any clone can still see.
    pub(crate) fn push(&mut self, value: T) {
        if let Some(last) = self.chunks.last_mut() {
            if let Some(chunk) = Arc::get_mut(last) {
                if chunk.len() < CHUNK {
                    chunk.push(value);
                    self.len += 1;
                    return;
                }
            }
        }
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.push(value);
        self.chunks.push(Arc::new(chunk));
        self.len += 1;
    }
}

impl<T: Clone> PSeq<T> {
    /// A copy in chunks of its own, sharing nothing with `self`.
    pub(crate) fn detached(&self) -> PSeq<T> {
        PSeq {
            chunks: self
                .chunks
                .iter()
                .map(|c| Arc::new(Vec::clone(c)))
                .collect(),
            len: self.len,
        }
    }

    /// Materializes the whole sequence into a flat vector.
    pub(crate) fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_materialize_round_trip() {
        let mut s: PSeq<usize> = PSeq::new();
        assert!(s.is_empty());
        for i in 0..200 {
            s.push(i);
        }
        assert_eq!(s.len(), 200);
        assert_eq!(s.to_vec(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn clones_never_observe_each_others_appends() {
        let mut a: PSeq<u32> = PSeq::new();
        for i in 0..70 {
            a.push(i);
        }
        let mut b = a.clone();
        a.push(1000);
        b.push(2000);
        b.push(2001);
        let va = a.to_vec();
        let vb = b.to_vec();
        assert_eq!(va.len(), 71);
        assert_eq!(vb.len(), 72);
        assert_eq!(va[..70], vb[..70]);
        assert_eq!(va[70], 1000);
        assert_eq!(vb[70..], [2000, 2001]);
    }

    #[test]
    fn clone_shares_chunks_until_written() {
        let mut a: PSeq<u8> = PSeq::new();
        for _ in 0..CHUNK {
            a.push(7);
        }
        let b = a.clone();
        // The full chunk is shared, so pushing must open a new chunk
        // rather than touch it.
        a.push(9);
        assert_eq!(b.len(), CHUNK);
        assert_eq!(a.len(), CHUNK + 1);
        assert!(b.to_vec().iter().all(|&x| x == 7));
    }
}
