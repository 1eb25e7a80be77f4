//! Small shared helpers for segment surgery.

use netbuf::{SegChain, Segment};

/// Splits a run of payload segments into consecutive `unit`-byte groups
/// (the last may be short), one group at a time. Pure pointer
/// manipulation: each output group shares storage with the inputs, and a
/// group of one segment holds it inline — so a payload that arrived one
/// segment per block costs no allocation at all. Used to break a
/// multi-block NFS write payload into per-block chunks for the FHO cache.
///
/// # Examples
///
/// ```
/// use netbuf::Segment;
/// use servers::util::split_segments;
///
/// let segs = vec![Segment::from_vec(vec![1; 6]), Segment::from_vec(vec![2; 6])];
/// let lens: Vec<usize> = split_segments(&segs, 4).map(|g| g.byte_len()).collect();
/// assert_eq!(lens, vec![4, 4, 4]);
/// ```
///
/// # Panics
///
/// Panics if `unit` is zero.
pub fn split_segments<'s, I>(segs: I, unit: usize) -> impl Iterator<Item = SegChain> + 's
where
    I: IntoIterator<Item = &'s Segment>,
    I::IntoIter: 's,
{
    assert!(unit > 0, "unit must be positive");
    let mut segs = segs.into_iter();
    // The part of a segment the previous group had no room for.
    let mut rest: Option<Segment> = None;
    std::iter::from_fn(move || {
        let mut group = SegChain::new();
        let mut room = unit;
        while room > 0 {
            let Some(seg) = rest.take().or_else(|| segs.next().cloned()) else {
                break;
            };
            if seg.len() <= room {
                room -= seg.len();
                if !seg.is_empty() {
                    group.push_back(seg);
                }
            } else {
                let (head, tail) = seg.split_at(room);
                group.push_back(head);
                rest = Some(tail);
                room = 0;
            }
        }
        (!group.is_empty()).then_some(group)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_across_boundaries_sharing_storage() {
        let a = Segment::from_vec((0..10).collect());
        let groups: Vec<SegChain> = split_segments(std::slice::from_ref(&a), 4).collect();
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
        let groups: Vec<SegChain> = split_segments(&segs, 4).collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].byte_len(), 4);
        assert_eq!(groups[0].len(), 2, "first group spans both segments");
        assert_eq!(groups[1].byte_len(), 2);
    }

    #[test]
    fn exact_multiple_has_no_tail() {
        let segs = vec![Segment::from_vec(vec![0; 8])];
        assert_eq!(split_segments(&segs, 4).count(), 2);
    }

    #[test]
    fn empty_input() {
        assert_eq!(split_segments(&[], 4).count(), 0);
    }

    #[test]
    #[should_panic(expected = "unit must be positive")]
    fn zero_unit_panics() {
        let _ = split_segments(&[], 0);
    }
}
