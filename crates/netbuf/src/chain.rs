//! Segment chains whose first segment lives inline.
//!
//! Most chains the data plane builds hold one segment: a Data-In PDU's
//! block, the delivery of it, the chunk it is cached as, a one-block NFS
//! write. [`SegChain`] keeps that segment in place and grows a heap deque
//! only for the second, so a one-segment chain costs the allocator
//! nothing — and a chain handed from a buffer to a cache chunk moves
//! without becoming anything else.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Index;

use crate::segment::Segment;

/// A deque of [`Segment`]s with the first one inline.
///
/// # Examples
///
/// ```
/// use netbuf::{SegChain, Segment};
///
/// let mut chain = SegChain::from(Segment::from_vec(vec![1, 2]));
/// chain.push_back(Segment::from_vec(vec![3]));
/// chain.push_front(Segment::from_vec(vec![0]));
/// assert_eq!(chain.len(), 3);
/// assert_eq!(chain[1].as_slice(), &[1, 2]);
/// let bytes: Vec<u8> = chain.iter().flat_map(|s| s.as_slice().to_vec()).collect();
/// assert_eq!(bytes, vec![0, 1, 2, 3]);
/// ```
#[derive(Clone, Default)]
pub struct SegChain {
    /// The first segment; `None` only when the chain is empty.
    head: Option<Segment>,
    /// Every segment after the first.
    tail: VecDeque<Segment>,
}

impl SegChain {
    /// An empty chain (allocates nothing).
    pub fn new() -> Self {
        SegChain::default()
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.tail.len()
    }

    /// Whether the chain holds no segment.
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// Room for `additional` more segments without reallocating. One
    /// segment into an empty chain goes inline and needs none; more
    /// reserve room for all of them in the tail, so neither a
    /// `push_front`, which moves the first segment into the tail, nor
    /// turning the chain into a `Vec<Segment>` grows it.
    pub fn reserve(&mut self, additional: usize) {
        if additional > usize::from(self.head.is_none()) {
            self.tail.reserve(additional);
        }
    }

    /// Drops every segment, first to last, keeping the tail's buffer.
    pub fn clear(&mut self) {
        self.head = None;
        self.tail.clear();
    }

    /// Appends `seg`.
    pub fn push_back(&mut self, seg: Segment) {
        match self.head {
            None => self.head = Some(seg),
            Some(_) => self.tail.push_back(seg),
        }
    }

    /// Prepends `seg`.
    pub fn push_front(&mut self, seg: Segment) {
        if let Some(old) = self.head.replace(seg) {
            self.tail.push_front(old);
        }
    }

    /// Removes and returns the first segment.
    pub fn pop_front(&mut self) -> Option<Segment> {
        let first = self.head.take()?;
        self.head = self.tail.pop_front();
        Some(first)
    }

    /// The first segment.
    pub fn front(&self) -> Option<&Segment> {
        self.head.as_ref()
    }

    /// The first segment, mutably (to advance it in place).
    pub fn front_mut(&mut self) -> Option<&mut Segment> {
        self.head.as_mut()
    }

    /// The segments, first to last.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            head: self.head.as_ref(),
            tail: self.tail.iter(),
        }
    }

    /// Total bytes across the segments.
    pub fn byte_len(&self) -> usize {
        self.iter().map(Segment::len).sum()
    }
}

impl From<Segment> for SegChain {
    fn from(seg: Segment) -> Self {
        SegChain {
            head: Some(seg),
            tail: VecDeque::new(),
        }
    }
}

impl From<Vec<Segment>> for SegChain {
    /// Keeps the vector's buffer as the tail's: no allocation.
    fn from(segs: Vec<Segment>) -> Self {
        let mut tail = VecDeque::from(segs);
        SegChain {
            head: tail.pop_front(),
            tail,
        }
    }
}

impl From<SegChain> for Vec<Segment> {
    /// Reuses the tail's buffer.
    fn from(chain: SegChain) -> Self {
        let mut tail = chain.tail;
        if let Some(head) = chain.head {
            tail.push_front(head);
        }
        Vec::from(tail)
    }
}

impl Index<usize> for SegChain {
    type Output = Segment;

    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn index(&self, i: usize) -> &Segment {
        match (i, &self.head) {
            (0, Some(head)) => head,
            _ => &self.tail[i - 1],
        }
    }
}

impl IntoIterator for SegChain {
    type Item = Segment;
    type IntoIter = std::iter::Chain<
        std::option::IntoIter<Segment>,
        std::collections::vec_deque::IntoIter<Segment>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.head.into_iter().chain(self.tail)
    }
}

impl<'a> IntoIterator for &'a SegChain {
    type Item = &'a Segment;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The segments of a [`SegChain`], first to last.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    head: Option<&'a Segment>,
    tail: std::collections::vec_deque::Iter<'a, Segment>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Segment;

    fn next(&mut self) -> Option<&'a Segment> {
        self.head.take().or_else(|| self.tail.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.head.is_some()) + self.tail.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl Extend<Segment> for SegChain {
    fn extend<I: IntoIterator<Item = Segment>>(&mut self, segs: I) {
        for seg in segs {
            self.push_back(seg);
        }
    }
}

impl fmt::Debug for SegChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(tag: u8) -> Segment {
        Segment::from_vec(vec![tag])
    }

    fn tags(chain: &SegChain) -> Vec<u8> {
        chain.iter().map(|s| s.as_slice()[0]).collect()
    }

    #[test]
    fn pushes_and_pops_cross_the_inline_boundary_both_ways() {
        let mut c = SegChain::new();
        assert!(c.is_empty() && c.front().is_none() && c.pop_front().is_none());
        c.push_back(seg(2));
        c.push_front(seg(1));
        c.push_back(seg(3));
        assert_eq!((tags(&c), c.len(), c.byte_len()), (vec![1, 2, 3], 3, 3));
        assert_eq!(c[2].as_slice(), &[3]);
        assert_eq!(c.pop_front().map(|s| s.as_slice()[0]), Some(1));
        assert_eq!(c.pop_front().map(|s| s.as_slice()[0]), Some(2));
        assert_eq!(tags(&c), vec![3], "the last segment moved inline");
        c.front_mut().expect("one left").advance(1);
        assert_eq!(c.byte_len(), 0);
        assert!(c.pop_front().is_some() && c.is_empty());
    }

    #[test]
    fn conversions_keep_order() {
        let v = vec![seg(1), seg(2), seg(3)];
        let c = SegChain::from(v);
        assert_eq!(tags(&c), vec![1, 2, 3]);
        let back: Vec<Segment> = c.clone().into();
        assert_eq!(back.len(), 3);
        assert_eq!(
            c.into_iter().map(|s| s.as_slice()[0]).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(SegChain::from(Vec::new()).is_empty());
        let mut e = SegChain::from(seg(9));
        e.extend([seg(8)]);
        assert_eq!(tags(&e), vec![9, 8]);
    }

    #[test]
    fn a_reservation_past_one_segment_lands_in_the_tail() {
        let mut c = SegChain::new();
        c.reserve(1);
        assert_eq!(c.tail.capacity(), 0, "one segment goes inline");
        c.reserve(3);
        let buffer = c.tail.as_slices().0.as_ptr();
        c.extend([seg(1), seg(2), seg(3)]);
        let v: Vec<Segment> = c.into();
        assert_eq!((v.len(), v.as_ptr()), (3, buffer), "the Vec is the tail's buffer");

        let mut c = SegChain::new();
        c.reserve(3);
        let cap = c.tail.capacity();
        c.extend([seg(2), seg(3)]);
        c.push_front(seg(1));
        assert_eq!(tags(&c), vec![1, 2, 3]);
        assert_eq!(c.tail.capacity(), cap, "the head moved into the tail in place");
    }

    #[test]
    #[should_panic]
    fn indexing_past_the_end_panics() {
        let _ = &SegChain::from(seg(1))[1];
    }
}
