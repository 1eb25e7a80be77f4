//! `NetBuf`: the sk_buff analogue — protocol headers plus a chain of payload
//! segments, with every byte movement charged to the copy ledger.
//!
//! Receive path: a delivered frame's headers land in the buffer's own
//! linear area ([`NetBuf::land`]) ahead of the payload segments it shares
//! with the sender; protocol layers strip headers with [`NetBuf::pull`];
//! what remains is payload. Send path: payload segments
//! are attached logically ([`NetBuf::append_segment`]) or copied in
//! ([`NetBuf::append_bytes`]); layers prepend headers with
//! [`NetBuf::push_header`]; [`NetBuf::to_wire`] hands the frame to the NIC
//! (a DMA, not a CPU copy).

use std::fmt;

use crate::accounting::CopyLedger;
use crate::chain::SegChain;
use crate::segment::Segment;

/// Bytes of inline linear area every [`NetBuf`] carries — the sk_buff
/// linear data: headroom for the headers the send path prepends, landing
/// area for the headers a delivery brings in. The largest fixed-size
/// header stack really pushed is RPC reply 24 + NFS `diropres` 104 = 128
/// bytes. The array stays at 192, because a smaller one changes every
/// buffer's layout, which allocator-sensitive timings notice; anything
/// larger spills.
pub const HEADROOM: usize = 192;

/// The linear area: headers are prepended *downwards* into a fixed
/// inline headroom, so a `push_header` is one `memcpy` of the new bytes,
/// and a delivered frame's headers land in it the same way and are parsed
/// off its front. A header stack that outgrows the headroom (long HTTP
/// headers, READDIR listings, replayed duplicate-request-cache replies)
/// moves to a heap buffer with the same grow-downwards layout. The area
/// is owned, never shared: cloning a buffer copies it.
#[derive(Clone)]
struct LinearArea {
    inline: [u8; HEADROOM],
    /// Heap store, live (non-empty) only once the inline headroom
    /// overflowed.
    spill: Vec<u8>,
    /// The bytes occupy `[start..]` of the live store.
    start: usize,
}

impl LinearArea {
    fn new() -> Self {
        LinearArea {
            inline: [0u8; HEADROOM],
            spill: Vec::new(),
            start: HEADROOM,
        }
    }

    fn bytes(&self) -> &[u8] {
        if self.spill.is_empty() {
            &self.inline[self.start..]
        } else {
            &self.spill[self.start..]
        }
    }

    fn prepend(&mut self, bytes: &[u8]) {
        if bytes.len() > self.start {
            // Out of room: move to a heap store with as much free room
            // again in front, so repeated large pushes stay amortized.
            let old = self.bytes();
            let cap = 2 * (old.len() + bytes.len());
            let mut grown = vec![0u8; cap];
            grown[cap - old.len()..].copy_from_slice(old);
            self.start = cap - old.len();
            self.spill = grown;
        }
        let store = if self.spill.is_empty() {
            &mut self.inline[..]
        } else {
            &mut self.spill[..]
        };
        self.start -= bytes.len();
        store[self.start..self.start + bytes.len()].copy_from_slice(bytes);
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        if self.spill.is_empty() {
            &mut self.inline[self.start..]
        } else {
            &mut self.spill[self.start..]
        }
    }

    /// Drops the first `n` bytes (parsed off the front).
    fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.bytes().len());
        self.start += n;
    }

    fn clear(&mut self) {
        self.advance(self.bytes().len());
    }
}

/// Where a buffer's fragments sit in its chain: `len` segments from index
/// `start`, each continuing the segment before it (so `start >= 1` while
/// `len > 0`). A buffer holds one run, the one multi-block append of a
/// socket send; every segment before or behind it is a buffer of its own.
#[derive(Clone, Copy, Debug, Default)]
struct FragRun {
    start: usize,
    len: usize,
}

impl FragRun {
    /// Whether chain segment `i` continues the one before it.
    fn contains(self, i: usize) -> bool {
        i >= self.start && i - self.start < self.len
    }

    /// The chain gained a segment at its front.
    fn pushed_front(&mut self) {
        self.start += usize::from(self.len > 0);
    }

    /// The chain lost its front segment (never a fragment): a fragment
    /// that moves to the front heads what is left of the run.
    fn popped_front(&mut self) {
        if self.len > 0 {
            self.start -= 1;
            if self.start == 0 {
                self.start = 1;
                self.len -= 1;
            }
        }
    }
}

/// A network buffer: linear area + chained payload segments. The linear
/// area holds the built headers of a buffer on its way out, or the landed,
/// not yet parsed front of the payload of one that was delivered — never
/// both.
///
/// # Examples
///
/// ```
/// use netbuf::{CopyLedger, NetBuf, Segment};
/// let ledger = CopyLedger::new();
/// let mut b = NetBuf::new(&ledger);
/// b.append_segment(Segment::from_vec(vec![1, 2, 3]));
/// b.push_header(&[0xAA, 0xBB]);
/// assert_eq!(b.header(), &[0xAA, 0xBB]);
/// assert_eq!(b.payload_len(), 3);
/// assert_eq!(b.to_wire(), vec![0xAA, 0xBB, 1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct NetBuf {
    ledger: CopyLedger,
    linear: LinearArea,
    /// The linear area's bytes are landed payload, not built headers.
    /// Set only while the area is non-empty.
    landed: bool,
    segs: SegChain,
    /// The chain's *fragments*: the later slabs of one multi-block
    /// [`NetBuf::append_pooled`], which continue the segment before them
    /// as one buffer (an `sk_buff` and its page fragments), so a delivery
    /// attaches them with it as one logical copy.
    frags: FragRun,
    /// Landed bytes plus the sum of the segment lengths, maintained by
    /// every operation that changes either (host-only bookkeeping; never
    /// charged).
    payload_len: usize,
}

impl NetBuf {
    /// An empty buffer charged to `ledger`.
    pub fn new(ledger: &CopyLedger) -> Self {
        ledger.charge_allocation();
        NetBuf {
            ledger: ledger.clone(),
            linear: LinearArea::new(),
            landed: false,
            segs: SegChain::new(),
            frags: FragRun::default(),
            payload_len: 0,
        }
    }

    /// Sizes the segment chain for `additional` more segments, so a packet
    /// whose segment count is known up front allocates its chain once — or
    /// not at all, for one segment, which the chain keeps inline
    /// (host-only; never charged).
    pub fn reserve_segments(&mut self, additional: usize) {
        self.segs.reserve(additional);
    }

    /// Appends `seg` at the tail, uncharged.
    fn push_segment(&mut self, seg: Segment) {
        self.payload_len += seg.len();
        self.segs.push_back(seg);
    }

    /// The ledger this buffer charges.
    pub fn ledger(&self) -> &CopyLedger {
        &self.ledger
    }

    /// The (already-built) header bytes, outermost first.
    pub fn header(&self) -> &[u8] {
        if self.landed {
            &[]
        } else {
            self.linear.bytes()
        }
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        self.header().len()
    }

    /// Whatever the linear area holds: the built headers of a buffer being
    /// sent, or the landed, still unparsed front of a delivered payload
    /// (`header_len() == 0` tells which). What a delivery of this buffer
    /// lands at the receiver.
    pub fn linear(&self) -> &[u8] {
        self.linear.bytes()
    }

    /// The landed, still unparsed front of the payload.
    fn landed(&self) -> &[u8] {
        if self.landed {
            self.linear.bytes()
        } else {
            &[]
        }
    }

    /// The landed bytes, for a link that damages what it delivers: the
    /// landing area is receiver-private, so a flipped bit here touches no
    /// storage the sender shares.
    pub fn landed_mut(&mut self) -> &mut [u8] {
        if self.landed {
            self.linear.bytes_mut()
        } else {
            &mut []
        }
    }

    /// Payload length in bytes (landed bytes plus all segments).
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// The payload as one borrowed run, when it is one: all of it landed,
    /// or all of it in a single segment that is one run
    /// ([`Segment::contiguous`]).
    pub fn payload_contiguous(&self) -> Option<&[u8]> {
        match (self.landed().len(), self.segs.len()) {
            (_, 0) => Some(self.landed()),
            (0, 1) => self.segs.front().and_then(Segment::contiguous),
            _ => None,
        }
    }

    /// The payload run by run: landed bytes first, then each segment's
    /// stored bytes and zeros.
    fn runs(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(self.landed()).chain(self.segs.iter().flat_map(Segment::runs))
    }

    /// Moves unparsed landed bytes to a heap segment at the front of the
    /// chain — the layout every delivery had before the landing area — so
    /// the linear area is free for headers and the chain is the whole
    /// payload. The slow path: a parsed request has nothing left to spill.
    fn spill_landed(&mut self) {
        if self.landed {
            self.segs.push_front(Segment::from_vec(self.linear.bytes().to_vec()));
            self.frags.pushed_front();
            self.linear.clear();
            self.landed = false;
        }
    }

    /// Header + payload length.
    pub fn total_len(&self) -> usize {
        self.header_len() + self.payload_len
    }

    /// Whether the buffer carries neither header nor payload.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Prepends `bytes` to the header area (one protocol layer's header).
    /// Charged as header-byte movement, which Table 2 does not count as a
    /// payload copy ("since these packets are typically small, the overhead
    /// of physically copying them is not significant", §1).
    pub fn push_header(&mut self, bytes: &[u8]) {
        self.ledger.charge_header_bytes(bytes.len() as u64);
        self.spill_landed();
        self.linear.prepend(bytes);
    }

    /// Lands `bytes` — the headers a sender built — as the leading bytes
    /// of this buffer's payload, in its own linear area: what the NIC's
    /// DMA does with the linear part of a frame. Charged as the one
    /// **logical copy** attaching them as a segment was; parsing them off
    /// is charged by [`NetBuf::pull`] as ever. A buffer that already holds
    /// headers or payload takes them as a heap segment behind what it has.
    pub fn land(&mut self, bytes: &[u8]) {
        self.ledger.charge_logical_copy();
        if self.linear.bytes().is_empty() && self.segs.is_empty() {
            self.linear.prepend(bytes);
            self.landed = !bytes.is_empty();
            self.payload_len += bytes.len();
        } else {
            self.push_segment(Segment::from_vec(bytes.to_vec()));
        }
    }

    /// Strips the first `n` payload bytes, handing them to `sink` run by
    /// run, and charges them as header-byte movement.
    fn consume(&mut self, n: usize, mut sink: impl FnMut(&[u8])) {
        assert!(
            n <= self.payload_len,
            "pull of {n} bytes exceeds payload of {} bytes",
            self.payload_len
        );
        self.ledger.charge_header_bytes(n as u64);
        self.payload_len -= n;
        let mut need = n;
        if self.landed {
            let take = need.min(self.linear.bytes().len());
            sink(&self.linear.bytes()[..take]);
            self.linear.advance(take);
            self.landed = !self.linear.bytes().is_empty();
            need -= take;
        }
        while need > 0 {
            let front = self.segs.front_mut().expect("payload length checked");
            let take = front.len().min(need);
            front.runs_in(0, take).for_each(&mut sink);
            need -= take;
            if take == front.len() {
                self.segs.pop_front();
                self.frags.popped_front();
            } else {
                front.advance(take);
            }
        }
    }

    /// Hands payload bytes `[off, off+len)` to `sink` run by run, without
    /// consuming or charging.
    fn walk(&self, off: usize, len: usize, mut sink: impl FnMut(&[u8])) {
        assert!(
            off + len <= self.payload_len,
            "peek [{off}, {}) exceeds payload of {} bytes",
            off + len,
            self.payload_len
        );
        let mut skip = off;
        let mut left = len;
        for s in self.runs() {
            if left == 0 {
                break;
            }
            if skip >= s.len() {
                skip -= s.len();
                continue;
            }
            let take = (s.len() - skip).min(left);
            sink(&s[skip..skip + take]);
            skip = 0;
            left -= take;
        }
    }

    /// Strips and returns the first `n` bytes of *payload* (receive-side
    /// header parsing: the stripped bytes are protocol metadata). Charged
    /// as header-byte movement. For variable-length bodies; fixed-size
    /// headers parse from the stack with [`NetBuf::pull_array`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` payload bytes remain.
    pub fn pull(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        self.consume(n, |run| out.extend_from_slice(run));
        out
    }

    /// [`NetBuf::pull`] of a fixed-size header into a stack array: same
    /// charge, no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `N` payload bytes remain.
    pub fn pull_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        let mut at = 0;
        self.consume(N, |run| {
            out[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        });
        out
    }

    /// Reads payload bytes `[off, off+len)` into a vector of `len` bytes,
    /// without consuming or charging — for protocol classification
    /// (peeking an RPC procedure number or an HTTP header; the paper's
    /// NCache module does exactly this at the driver boundary), or for a
    /// copy its caller charges.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the payload.
    pub fn peek(&self, off: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.walk(off, len, |run| out.extend_from_slice(run));
        out
    }

    /// [`NetBuf::peek`] of `N` bytes at `off` into a stack array.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the payload.
    pub fn peek_array<const N: usize>(&self, off: usize) -> [u8; N] {
        let mut out = [0u8; N];
        let mut at = 0;
        self.walk(off, N, |run| {
            out[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        });
        out
    }

    /// Attaches a payload segment by reference — a **logical copy**; no
    /// payload bytes move.
    pub fn append_segment(&mut self, seg: Segment) {
        self.ledger.charge_logical_copy();
        self.push_segment(seg);
    }

    /// Copies `bytes` into a fresh payload segment — a **physical copy**,
    /// charged to the ledger.
    pub fn append_bytes(&mut self, bytes: &[u8]) { // test-api: the netbuf property builds packets byte-wise
        self.ledger.charge_payload_copy(bytes.len() as u64);
        self.push_segment(Segment::from_vec(bytes.to_vec()));
    }

    /// Moves an owned `bytes` vector in as a payload segment. Charged
    /// exactly like [`NetBuf::append_bytes`] — the *modeled* copy (producer
    /// buffer → network buffer) is the same — but the host moves the
    /// allocation instead of duplicating it, so call sites that already own
    /// the buffer skip one memcpy.
    pub fn append_vec(&mut self, bytes: Vec<u8>) {
        self.ledger.charge_payload_copy(bytes.len() as u64);
        self.push_segment(Segment::from_vec(bytes));
    }

    /// Copies `bytes` into recycled slabs from `pool` — same ledger charge
    /// as [`NetBuf::append_bytes`], but the segment storage comes from (and
    /// returns to) the pool's free list instead of the host allocator.
    /// Past [`crate::SLAB_SIZE`] the bytes land one slab per block, so each
    /// block's segment holds only its own slab (an NFS WRITE's FHO chunks
    /// each keep one block alive, not the whole request); the later slabs
    /// are the first one's fragments.
    ///
    /// # Panics
    ///
    /// Panics on a second multi-block append to a buffer: it holds one run
    /// of fragments.
    pub fn append_pooled(&mut self, pool: &crate::BufPool, bytes: &[u8]) {
        self.ledger.charge_payload_copy(bytes.len() as u64);
        if bytes.len() <= crate::SLAB_SIZE {
            self.push_segment(pool.seg_from_slice(bytes));
            return;
        }
        let blocks = bytes.len().div_ceil(crate::SLAB_SIZE);
        self.segs.reserve(blocks);
        let head = self.segs.len();
        for block in bytes.chunks(crate::SLAB_SIZE) {
            self.push_segment(pool.seg_from_slice(block));
        }
        self.set_frags(head + 1, blocks - 1);
    }

    /// Records the buffer's run of fragments.
    fn set_frags(&mut self, start: usize, len: usize) {
        assert_eq!(self.frags.len, 0, "a buffer holds one multi-block append");
        self.frags = FragRun { start, len };
    }

    /// Attaches `sent`'s payload chain by reference, clipped to its first
    /// `limit` bytes — what a delivery does with the segments a sender
    /// handed the NIC. Charged as one **logical copy** per buffer attached
    /// ([`NetBuf::buffer_count`]): fragments ride with the segment they
    /// continue. Landed bytes are not part of the chain.
    pub fn attach_chain_of(&mut self, sent: &NetBuf, limit: usize) {
        let base = self.segs.len();
        let mut left = limit;
        let mut frags = 0;
        for (i, seg) in sent.segs.iter().enumerate() {
            if left == 0 {
                break;
            }
            let take = seg.len().min(left);
            let piece = if take == seg.len() {
                seg.clone()
            } else {
                seg.slice(0, take)
            };
            if sent.frags.contains(i) {
                self.push_segment(piece);
                frags += 1;
            } else {
                self.append_segment(piece);
            }
            left -= take;
        }
        if frags > 0 {
            self.set_frags(base + sent.frags.start, frags);
        }
    }

    /// Moves the first chain segment's bytes into the empty linear area as
    /// landed bytes: a private copy, which a link that damages a headerless
    /// frame makes before it flips a bit, so the damage touches no storage
    /// the sender shares. Uncharged: the delivery that attached the segment
    /// charged it. An empty first segment stays where it is.
    ///
    /// # Panics
    ///
    /// Panics if the linear area holds headers or landed bytes.
    pub fn land_first_segment(&mut self) {
        assert!(self.linear.bytes().is_empty(), "the linear area is taken");
        let Some(first) = self.segs.front().filter(|s| !s.is_empty()) else {
            return;
        };
        match first.contiguous() {
            Some(bytes) => self.linear.prepend(bytes),
            None => self.linear.prepend(&first.to_vec()),
        }
        self.landed = true;
        self.segs.pop_front();
        self.frags.popped_front();
    }

    /// Builds a `len`-byte payload segment in place on a recycled slab:
    /// `write` appends the payload through the slab's write cursor (see
    /// [`crate::BufPool::seg_written`]). Charged exactly like
    /// [`NetBuf::append_bytes`] of `len` bytes (the producer still moves
    /// the payload into the network buffer; only the host-side scratch
    /// vector disappears).
    pub fn append_written(
        &mut self,
        pool: &crate::BufPool,
        len: usize,
        write: impl FnOnce(&mut crate::pool::SlabWriter<'_>),
    ) {
        self.ledger.charge_payload_copy(len as u64);
        self.push_segment(pool.seg_written(len, write));
    }

    /// Logical copy of the whole buffer: shares every segment (the linear
    /// area, headers or landed bytes, is the copy's own). Charged as a
    /// single logical copy.
    pub fn share(&self) -> NetBuf { // test-api: the netbuf model and the chain tests take logical copies
        self.ledger.charge_logical_copy();
        self.clone()
    }

    /// Copies every payload run into `out`, back to back (uncharged
    /// helper; callers charge).
    fn gather_into(&self, out: &mut [u8]) {
        let mut at = 0;
        for run in self.runs() {
            out[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        }
    }

    /// Physically copies the entire payload into `out` — charged.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly payload-sized.
    pub fn copy_payload_into(&self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.payload_len,
            "destination must match payload length"
        );
        self.ledger.charge_payload_copy(out.len() as u64);
        self.gather_into(out);
    }

    /// Physically copies the payload into a fresh vector — charged as one
    /// payload copy, and one pass on the host (no zero-fill first).
    pub fn copy_payload_to_vec(&self) -> Vec<u8> {
        self.ledger.charge_payload_copy(self.payload_len as u64);
        let mut v = Vec::with_capacity(self.payload_len);
        for run in self.runs() {
            v.extend_from_slice(run);
        }
        v
    }

    /// Physically copies the whole payload into one pooled segment —
    /// charged exactly like [`NetBuf::copy_payload_to_vec`] (one payload
    /// copy of the full length), with the destination drawn from `pool`'s
    /// slab free list.
    pub fn copy_payload_to_pooled(&self, pool: &crate::BufPool) -> Segment {
        self.ledger.charge_payload_copy(self.payload_len as u64);
        pool.seg_written(self.payload_len, |w| {
            for run in self.runs() {
                w.put(run);
            }
        })
    }

    /// Removes and returns all payload segments (pointer manipulation; the
    /// substitution engine uses this to splice cached payload into an
    /// outgoing packet, the NCache hooks to cache it). The chain itself is
    /// handed over, not copied.
    pub fn take_payload(&mut self) -> SegChain {
        self.spill_landed();
        self.payload_len = 0;
        self.frags = FragRun::default();
        std::mem::take(&mut self.segs)
    }

    /// Replaces the payload with `segs` (logical; charged as one logical
    /// copy — this is NCache packet substitution). A `Vec<Segment>` gives
    /// the chain its buffer.
    pub fn replace_payload(&mut self, segs: impl Into<SegChain>) {
        self.ledger.charge_logical_copy();
        if self.landed {
            self.linear.clear();
            self.landed = false;
        }
        self.segs = segs.into();
        self.frags = FragRun::default();
        self.payload_len = self.segs.byte_len();
    }

    /// Iterates over payload segments (landed bytes are not one: see
    /// [`NetBuf::linear`]).
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        debug_assert_eq!(
            self.payload_len,
            self.runs().map(<[u8]>::len).sum::<usize>(),
            "cached payload length drifted from the chain"
        );
        self.segs.iter()
    }

    /// Number of payload segments in the chain.
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Number of payload buffers in the chain: its segments, each fragment
    /// counted with the segment it continues.
    pub fn buffer_count(&self) -> usize { // test-api: the netbuf model property counts buffers
        self.segs.len() - self.frags.len
    }

    /// Computes the payload checksum in software, charging the ledger.
    /// Returns the 16-bit Internet checksum of the payload.
    pub fn compute_csum(&mut self) -> u16 {
        self.ledger.charge_csum(self.payload_len as u64);
        // A 64-bit accumulator cannot overflow below 2^48 payload bytes.
        let mut sum: u64 = 0;
        let mut odd: Option<u8> = None;
        for run in self.runs() {
            for &b in run {
                match odd.take() {
                    None => odd = Some(b),
                    Some(hi) => sum += u64::from(u16::from_be_bytes([hi, b])),
                }
            }
        }
        if let Some(hi) = odd {
            sum += u64::from(u16::from_be_bytes([hi, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Takes the checksum as inherited from the payload's originator or a
    /// cached copy (the paper's checksum inheritance: free, charged as an
    /// avoided checksum pass).
    pub fn inherit_csum(&mut self) {
        self.ledger.charge_csum_inherited();
    }

    /// Serializes header + payload into one wire frame. This models the NIC
    /// gathering the chain by DMA, so it is *not* charged as a CPU copy.
    pub fn to_wire(&self) -> Vec<u8> { // test-api: the netbuf and substitution properties compare wire bytes
        let mut v = Vec::with_capacity(self.total_len());
        // Built headers or landed payload front: the wire's leading bytes
        // either way.
        v.extend_from_slice(self.linear());
        for run in self.segs.iter().flat_map(Segment::runs) {
            v.extend_from_slice(run);
        }
        v
    }
}

impl fmt::Debug for NetBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetBuf")
            .field("header_len", &self.header_len())
            .field("payload_len", &self.payload_len)
            .field("segments", &self.segs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> CopyLedger {
        CopyLedger::new()
    }

    /// A received frame the NIC DMA'd into one segment (not a CPU copy).
    fn from_wire(ledger: &CopyLedger, frame: Vec<u8>) -> NetBuf {
        let mut b = NetBuf::new(ledger);
        b.push_segment(Segment::from_vec(frame));
        b
    }

    #[test]
    fn netbuf_is_send_and_sync() {
        // Replies move between the serialized server section and the
        // lane thread that substitutes their payload.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetBuf>();
    }

    #[test]
    fn build_and_serialize() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_bytes(&[1, 2, 3]);
        b.push_header(&[9]);
        b.push_header(&[7, 8]); // outer layer prepends
        assert_eq!(b.to_wire(), vec![7, 8, 9, 1, 2, 3]);
        assert_eq!(b.header_len(), 3);
        assert_eq!(b.payload_len(), 3);
        assert_eq!(b.total_len(), 6);
        assert!(!b.is_empty());
        let s = l.snapshot();
        assert_eq!(s.payload_copies, 1);
        assert_eq!(s.payload_bytes_copied, 3);
        assert_eq!(s.header_bytes, 3);
    }

    #[test]
    fn from_wire_and_pull_parse_headers() {
        let l = ledger();
        let mut b = from_wire(&l, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(b.pull(2), vec![1, 2]);
        assert_eq!(b.pull(1), vec![3]);
        assert_eq!(b.payload_len(), 3);
        assert_eq!(b.copy_payload_to_vec(), vec![4, 5, 6]);
        // Pulls were charged as header bytes, not payload copies.
        let s = l.snapshot();
        assert_eq!(s.header_bytes, 3);
        assert_eq!(s.payload_copies, 1); // only the copy_payload_to_vec
    }

    #[test]
    fn pull_across_segment_boundaries() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1, 2]));
        b.append_segment(Segment::from_vec(vec![3, 4, 5]));
        assert_eq!(b.pull(3), vec![1, 2, 3]);
        assert_eq!(b.payload_len(), 2);
        assert_eq!(b.copy_payload_to_vec(), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "exceeds payload")]
    fn pull_too_much_panics() {
        let l = ledger();
        let mut b = from_wire(&l, vec![1]);
        b.pull(2);
    }

    #[test]
    fn peek_is_free_and_nonconsuming() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1, 2, 3]));
        b.append_segment(Segment::from_vec(vec![4, 5]));
        let before = l.snapshot();
        assert_eq!(b.peek(1, 3), vec![2, 3, 4]);
        assert_eq!(b.peek(0, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(b.peek(4, 1), vec![5]);
        assert_eq!(l.snapshot(), before, "peek must not charge the ledger");
        assert_eq!(b.payload_len(), 5);
    }

    #[test]
    #[should_panic(expected = "exceeds payload")]
    fn peek_out_of_range_panics() {
        let l = ledger();
        let b = from_wire(&l, vec![1, 2]);
        b.peek(1, 2);
    }

    #[test]
    fn pull_and_peek_arrays_match_the_vec_forms() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1, 2]));
        b.append_segment(Segment::from_vec(vec![3, 4, 5]));
        let before = l.snapshot();
        assert_eq!(b.peek_array::<3>(1), [2, 3, 4]);
        assert_eq!(l.snapshot(), before, "peek_array must not charge the ledger");
        assert_eq!(b.pull_array::<3>(), [1, 2, 3]);
        assert_eq!(l.snapshot().delta_since(&before).header_bytes, 3);
        assert_eq!(b.payload_len(), 2);
        assert_eq!(b.segment_count(), 1, "the emptied front segment is gone");
        assert_eq!(b.pull_array::<0>(), [0u8; 0]);
        assert_eq!(b.copy_payload_to_vec(), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "exceeds payload")]
    fn pull_array_too_much_panics() {
        let l = ledger();
        let mut b = from_wire(&l, vec![1, 2, 3]);
        b.pull_array::<4>();
    }

    #[test]
    fn headers_larger_than_the_headroom_spill_and_keep_order() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        let inner: Vec<u8> = (0..HEADROOM as u32).map(|i| i as u8).collect();
        b.push_header(&inner); // exactly fills the headroom
        assert_eq!(b.header(), &inner[..]);
        b.push_header(&[0xEE; 5]); // spills
        let big = vec![0xDD; 3 * HEADROOM];
        b.push_header(&big); // regrows the spill
        b.push_header(&[0xCC]);
        let mut want = vec![0xCC];
        want.extend_from_slice(&big);
        want.extend_from_slice(&[0xEE; 5]);
        want.extend_from_slice(&inner);
        assert_eq!(b.header(), &want[..]);
        assert_eq!(b.header_len(), want.len());
        assert_eq!(l.snapshot().header_bytes, want.len() as u64);
    }

    #[test]
    fn clones_own_their_headroom() {
        let l = ledger();
        let mut a = NetBuf::new(&l);
        a.push_header(&[2, 3]);
        let mut b = a.share();
        a.push_header(&[1]);
        b.push_header(&[9, 9]);
        assert_eq!(a.header(), &[1, 2, 3]);
        assert_eq!(b.header(), &[9, 9, 2, 3]);
    }

    #[test]
    fn landed_bytes_are_the_front_of_the_payload() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.land(&[1, 2, 3, 4, 5]);
        b.append_segment(Segment::from_vec(vec![6, 7]));
        assert_eq!((b.header_len(), b.payload_len(), b.segment_count()), (0, 7, 1));
        assert_eq!(b.linear(), &[1, 2, 3, 4, 5]);
        assert_eq!(b.to_wire(), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(b.payload_contiguous(), None);
        assert_eq!(b.peek(3, 3), vec![4, 5, 6], "across the boundary");
        assert_eq!(b.pull_array::<2>(), [1, 2]);
        assert_eq!(b.pull(4), vec![3, 4, 5, 6], "straddling the first segment");
        assert_eq!(b.linear(), &[0u8; 0][..]);
        assert_eq!(b.payload_contiguous(), Some(&[7u8][..]));
        let s = l.snapshot();
        assert_eq!((s.logical_copies, s.header_bytes, s.payload_copies), (2, 6, 0));
    }

    #[test]
    fn a_landing_larger_than_the_inline_area_spills_and_parses() {
        let l = ledger();
        let big: Vec<u8> = (0..3 * HEADROOM as u32).map(|i| i as u8).collect();
        let mut b = NetBuf::new(&l);
        b.land(&big);
        assert_eq!(b.payload_contiguous(), Some(&big[..]));
        assert_eq!(b.pull(HEADROOM + 1), big[..HEADROOM + 1].to_vec());
        assert_eq!(b.copy_payload_to_vec(), big[HEADROOM + 1..].to_vec());
    }

    #[test]
    fn headers_and_pointer_surgery_spill_unparsed_landed_bytes() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.land(&[1, 2, 3]);
        b.append_segment(Segment::from_vec(vec![4]));
        assert_eq!(b.pull(1), vec![1]);
        // Forwarding an unparsed frame: the linear area turns headroom.
        let mut fwd = b.share();
        fwd.push_header(&[9, 9]);
        assert_eq!((fwd.header(), fwd.segment_count()), (&[9u8, 9][..], 2));
        assert_eq!(fwd.to_wire(), vec![9, 9, 2, 3, 4]);
        assert_eq!(b.to_wire(), vec![2, 3, 4], "the twin kept its own landed bytes");
        let segs = b.take_payload();
        assert_eq!(segs.iter().map(|s| s.as_slice().to_vec()).collect::<Vec<_>>(), [vec![2, 3], vec![4]]);
        assert!(b.is_empty());
        b.land(&[5]);
        b.replace_payload(vec![Segment::from_vec(vec![6, 7])]);
        assert_eq!(b.to_wire(), vec![6, 7], "substitution drops landed bytes with the rest");
    }

    #[test]
    fn landing_behind_headers_or_payload_takes_a_segment() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.push_header(&[1]);
        b.land(&[2, 3]);
        assert_eq!((b.header(), b.segment_count()), (&[1u8][..], 1));
        let mut c = NetBuf::new(&l);
        c.land(&[1]);
        c.land(&[2, 3]);
        assert_eq!((c.linear(), c.segment_count()), (&[1u8][..], 1));
        assert_eq!(c.to_wire(), b.to_wire());
        assert_eq!(l.snapshot().logical_copies, 3, "one per landing, wherever it went");
    }

    #[test]
    fn checksum_carries_an_odd_landed_prefix_into_the_chain() {
        let l = ledger();
        let mut landed = NetBuf::new(&l);
        landed.land(&[1, 2, 3]);
        landed.append_segment(Segment::from_vec(vec![4, 5]));
        let mut flat = from_wire(&l, vec![1, 2, 3, 4, 5]);
        assert_eq!(landed.compute_csum(), flat.compute_csum());
    }

    #[test]
    fn reserve_segments_is_host_only() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        let before = l.snapshot();
        b.reserve_segments(9);
        assert_eq!(l.snapshot(), before);
        assert_eq!(b.segment_count(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn logical_copies_move_no_bytes() {
        let l = ledger();
        let seg = Segment::from_vec(vec![9u8; 8192]);
        let mut a = NetBuf::new(&l);
        a.append_segment(seg.clone());
        let b = a.share();
        let s = l.snapshot();
        assert_eq!(s.payload_bytes_copied, 0);
        assert_eq!(s.logical_copies, 2); // append + share
        assert!(b.segments().next().expect("one segment").same_storage(&seg));
    }

    #[test]
    fn substitution_replaces_payload_logically() {
        let l = ledger();
        let mut pkt = NetBuf::new(&l);
        pkt.append_bytes(&[0u8; 64]); // junk placeholder
        pkt.push_header(&[0xEE]);
        let cached = Segment::from_vec(vec![42u8; 64]);
        let before = l.snapshot();
        pkt.replace_payload(vec![cached]);
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 0, "substitution is pointer surgery");
        assert_eq!(d.logical_copies, 1);
        assert_eq!(pkt.to_wire()[0], 0xEE);
        assert_eq!(&pkt.to_wire()[1..], &[42u8; 64][..]);
    }

    #[test]
    fn take_payload_empties_chain() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1]));
        b.append_segment(Segment::from_vec(vec![2]));
        let segs = b.take_payload();
        assert_eq!(segs.len(), 2);
        assert_eq!(b.payload_len(), 0);
        assert_eq!(b.segment_count(), 0);
    }

    #[test]
    fn copy_payload_into_wrong_size_panics() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_bytes(&[1, 2, 3]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = [0u8; 2];
            b.copy_payload_into(&mut out);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn checksum_matches_reference() {
        // RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7.
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![0x00, 0x01, 0xf2, 0x03]));
        b.append_segment(Segment::from_vec(vec![0xf4, 0xf5, 0xf6, 0xf7]));
        let c = b.compute_csum();
        assert_eq!(c, !0xddf2u16);
        assert_eq!(l.snapshot().csum_bytes, 8);
    }

    #[test]
    fn checksum_odd_length_and_split_invariance() {
        let l = ledger();
        let mut one = NetBuf::new(&l);
        one.append_segment(Segment::from_vec(vec![1, 2, 3, 4, 5]));
        let mut two = NetBuf::new(&l);
        two.append_segment(Segment::from_vec(vec![1, 2]));
        two.append_segment(Segment::from_vec(vec![3, 4, 5]));
        assert_eq!(one.compute_csum(), two.compute_csum());
    }

    #[test]
    fn csum_inheritance_is_free() {
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_bytes(&[1u8; 100]);
        let before = l.snapshot();
        b.inherit_csum();
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.csum_bytes, 0);
        assert_eq!(d.csum_inherited, 1);
    }

    #[test]
    fn owning_and_pooled_appends_charge_like_append_bytes() {
        let pool = crate::BufPool::slab_only();
        let data = vec![0x42u8; 4096];

        let l_ref = ledger();
        let mut a = NetBuf::new(&l_ref);
        a.append_bytes(&data);

        let l_vec = ledger();
        let mut b = NetBuf::new(&l_vec);
        b.append_vec(data.clone());

        let l_pool = ledger();
        let mut c = NetBuf::new(&l_pool);
        c.append_pooled(&pool, &data);

        let l_fill = ledger();
        let mut d = NetBuf::new(&l_fill);
        d.append_written(&pool, 4096, |w| w.put(&data));

        let reference = l_ref.snapshot();
        assert_eq!(l_vec.snapshot(), reference);
        assert_eq!(l_pool.snapshot(), reference);
        assert_eq!(l_fill.snapshot(), reference);
        assert_eq!(reference.payload_copies, 1);
        assert_eq!(reference.payload_bytes_copied, 4096);
        for buf in [&a, &b, &c, &d] {
            assert_eq!(buf.copy_payload_to_vec(), data);
        }
    }

    #[test]
    fn a_multi_block_pooled_append_is_one_copy_and_one_buffer_of_slabs() {
        let pool = crate::BufPool::slab_only();
        let data: Vec<u8> = (0..3 * crate::SLAB_SIZE + 100).map(|i| i as u8).collect();
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_pooled(&pool, &data);
        assert_eq!((b.segment_count(), b.buffer_count()), (4, 1));
        assert!(b.segments().all(|s| s.is_pooled() && s.len() <= crate::SLAB_SIZE));
        assert_eq!(pool.slab_stats().allocs, 4, "one slab per block");
        let s = l.snapshot();
        assert_eq!((s.payload_copies, s.payload_bytes_copied), (1, data.len() as u64));
        b.push_header(&[1, 2]);
        // Delivered, the slabs ride as one buffer: one logical copy, as
        // the one heap segment the bytes used to be.
        let rx_ledger = ledger();
        let mut rx = NetBuf::new(&rx_ledger);
        rx.land(b.linear());
        rx.attach_chain_of(&b, usize::MAX);
        assert_eq!(rx_ledger.snapshot().logical_copies, 2, "the landing and the one buffer");
        assert_eq!((rx.segment_count(), rx.buffer_count()), (4, 1));
        assert_eq!(rx.to_wire(), b.to_wire());
        // A prefix is still one buffer; a buffer of plain segments is one
        // per segment.
        let mut cut = NetBuf::new(&rx_ledger);
        cut.attach_chain_of(&b, crate::SLAB_SIZE + 1);
        assert_eq!((cut.segment_count(), cut.buffer_count(), cut.payload_len()), (2, 1, crate::SLAB_SIZE + 1));
        assert_eq!(rx_ledger.snapshot().logical_copies, 3);
        // Pulling into the fragments leaves the survivor heading them.
        rx.pull(2 + crate::SLAB_SIZE + 10);
        assert_eq!((rx.segment_count(), rx.buffer_count()), (3, 1));
        let segs = rx.take_payload();
        assert_eq!((segs.len(), rx.buffer_count()), (3, 0));
    }

    #[test]
    fn partially_stored_segments_read_as_their_logical_bytes() {
        let pool = crate::BufPool::stamp_only();
        let stamp = crate::key::KeyStamp::new().with_lbn(crate::Lbn(4));
        let ph = pool.placeholder(&stamp, 4096);
        let mut flat = vec![0u8; 4096];
        stamp.encode_into(&mut flat);
        flat.extend_from_slice(&[0, 0, 7, 8, 9]);
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(ph);
        b.append_segment(Segment::zeroed(2));
        b.append_segment(Segment::from_vec(vec![7, 8, 9]));
        let mut reference = from_wire(&l, flat.clone());
        assert_eq!(b.to_wire(), flat);
        assert_eq!(b.copy_payload_to_vec(), flat);
        assert_eq!(b.peek(4090, 10), flat[4090..4100].to_vec());
        assert_eq!(b.payload_contiguous(), None);
        assert_eq!(b.compute_csum(), reference.compute_csum());
        assert_eq!(b.pull(4095), flat[..4095].to_vec(), "across the stored prefix");
        assert_eq!(b.pull_array::<3>(), [0, 0, 0]);
        assert_eq!(b.copy_payload_to_vec(), vec![7, 8, 9]);
        let mut one = NetBuf::new(&l);
        one.append_segment(Segment::zeroed(64));
        assert_eq!(one.payload_contiguous(), Some(&[0u8; 64][..]));
        let mut copied = NetBuf::new(&l);
        copied.append_vec(pool.placeholder(&stamp, 4096).slice(20, 30).to_vec());
        assert_eq!(copied.copy_payload_to_vec(), flat[20..50].to_vec());
    }

    #[test]
    fn copy_payload_to_pooled_matches_to_vec() {
        let pool = crate::BufPool::slab_only();
        let l = ledger();
        let mut b = NetBuf::new(&l);
        b.append_segment(Segment::from_vec(vec![1, 2, 3]));
        b.append_segment(Segment::from_vec(vec![4, 5]));
        let before = l.snapshot();
        let seg = b.copy_payload_to_pooled(&pool);
        let d = l.snapshot().delta_since(&before);
        assert_eq!(d.payload_copies, 1);
        assert_eq!(d.payload_bytes_copied, 5);
        assert_eq!(seg.as_slice(), &[1, 2, 3, 4, 5]);
        assert!(seg.is_pooled());
    }

    #[test]
    fn allocation_is_counted() {
        let l = ledger();
        let _a = NetBuf::new(&l);
        let _b = from_wire(&l, vec![1]);
        assert_eq!(l.snapshot().allocations, 2);
    }
}
