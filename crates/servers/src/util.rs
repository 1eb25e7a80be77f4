//! Small shared helpers for segment surgery, and the attach step of the
//! logical-copy READ path both servers share.

use netbuf::{NetBuf, SegChain, Segment};

/// The logical-copy READ path: attaches cache blocks to `reply` by
/// reference — the daemon never touches the payload — each clipped to the
/// bytes the reply carries, and returns the bytes attached.
pub(crate) fn attach_blocks<'s>(
    reply: &mut NetBuf,
    blocks: impl ExactSizeIterator<Item = (&'s Segment, usize)>,
) -> usize {
    reply.reserve_segments(blocks.len());
    blocks
        .map(|(seg, len)| {
            reply.append_segment(seg.slice(0, len));
            len
        })
        .sum()
}

/// Splits a run of payload segments into consecutive `unit`-byte groups
/// (the last may be short). Pure pointer manipulation: each output group
/// shares storage with the inputs, and a group of one segment holds it
/// inline. Used to break a multi-block NFS write payload into per-block
/// chunks for the FHO cache.
///
/// # Examples
///
/// ```
/// use netbuf::Segment;
/// use servers::util::split_segments;
///
/// let segs = vec![Segment::from_vec(vec![1; 6]), Segment::from_vec(vec![2; 6])];
/// let groups = split_segments(&segs, 4);
/// assert_eq!(groups.len(), 3);
/// let lens: Vec<usize> = groups.iter().map(|g| g.byte_len()).collect();
/// assert_eq!(lens, vec![4, 4, 4]);
/// ```
///
/// # Panics
///
/// Panics if `unit` is zero.
pub fn split_segments<'s, I>(segs: I, unit: usize) -> Vec<SegChain>
where
    I: IntoIterator<Item = &'s Segment>,
    I::IntoIter: Clone,
{
    assert!(unit > 0, "unit must be positive");
    let segs = segs.into_iter();
    let total: usize = segs.clone().map(Segment::len).sum();
    let mut groups = Vec::with_capacity(total.div_ceil(unit));
    let mut current = SegChain::new();
    let mut room = unit;
    for seg in segs {
        let mut rest = seg.clone();
        while !rest.is_empty() {
            let take = rest.len().min(room);
            let (head, tail) = rest.split_at(take);
            current.push_back(head);
            rest = tail;
            room -= take;
            if room == 0 {
                groups.push(std::mem::take(&mut current));
                room = unit;
            }
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_across_boundaries_sharing_storage() {
        let a = Segment::from_vec((0..10).collect());
        let groups = split_segments(std::slice::from_ref(&a), 4);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0][0].as_slice(), &[0, 1, 2, 3]);
        assert_eq!(groups[1][0].as_slice(), &[4, 5, 6, 7]);
        assert_eq!(groups[2][0].as_slice(), &[8, 9]);
        assert!(groups[0][0].same_storage(&a), "no bytes moved");
    }

    #[test]
    fn group_spanning_multiple_segments() {
        let segs = vec![
            Segment::from_vec(vec![1; 3]),
            Segment::from_vec(vec![2; 3]),
        ];
        let groups = split_segments(&segs, 4);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].byte_len(), 4);
        assert_eq!(groups[0].len(), 2, "first group spans both segments");
        assert_eq!(groups[1].byte_len(), 2);
    }

    #[test]
    fn exact_multiple_has_no_tail() {
        let segs = vec![Segment::from_vec(vec![0; 8])];
        let groups = split_segments(&segs, 4);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn empty_input() {
        assert!(split_segments(&[], 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "unit must be positive")]
    fn zero_unit_panics() {
        split_segments(&[], 0);
    }
}
