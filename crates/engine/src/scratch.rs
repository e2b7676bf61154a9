//! A per-worker scratch arena for the engine hot path.
//!
//! Every kernel used to allocate its working set per call — `vec![0i32;
//! ...]` partial tables, staged `i16` rows, per-tile `Vec<Vec<i32>>`
//! output blocks — which put the global allocator on the
//! hot path of every layer of every inference. [`Scratch`] replaces
//! those with checked-out buffers that are returned after use and reused
//! across layers *and* runs, so a warmed plan executes with **zero heap
//! allocations** in steady state (pinned by `tests/zero_alloc.rs`).
//!
//! Buffers are pooled by **power-of-two size class**: `take_i32(len)`
//! pops a buffer from the smallest class whose capacity covers `len`
//! (allocating one of exactly that class's capacity only when the class
//! is empty) and hands it back `len` long and zeroed. Because a class-`b`
//! buffer always has capacity `>= 2^b >= len`, the `resize` inside
//! `take` can never reallocate — so once every class has been populated
//! to its peak simultaneous demand, no call allocates again. A run's
//! demand multiset is fixed by the plan, which is what makes the warmup
//! converge after a handful of runs.
//!
//! The arena is deliberately *not* shared: one `Scratch` per worker
//! thread (the server's batcher executors each keep one for life; a
//! [`crate::BatchRunner`] call builds a fresh one per worker), threaded
//! by `&mut` through [`crate::PreparedNet::run`] and every kernel — no
//! locks, no contention, and buffer reuse keeps each worker's working
//! set hot in its own cache, the host-side analogue of the paper's
//! per-core SRAM budget.

/// Size classes cover capacities `2^0 ..= 2^63` — every `usize` length.
const BUCKETS: usize = 64;

/// The smallest class `b` with `2^b >= len` (class 0 for empty takes).
#[inline]
fn class_for_len(len: usize) -> usize {
    (usize::BITS - len.saturating_sub(1).leading_zeros()) as usize
}

/// The largest class `b` with `2^b <= cap` — the class a returned buffer
/// can safely serve (its capacity covers every `len <= 2^b`).
#[inline]
fn class_for_cap(cap: usize) -> usize {
    debug_assert!(cap > 0);
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// One element type's buffers, pooled by power-of-two size class (see
/// the module docs).
#[derive(Debug)]
struct SizeClasses<T>([Vec<Vec<T>>; BUCKETS]);

impl<T: Copy + Default> SizeClasses<T> {
    fn new() -> Self {
        Self(std::array::from_fn(|_| Vec::new()))
    }

    fn take(&mut self, len: usize) -> Vec<T> {
        let class = class_for_len(len);
        let mut buf = self.0[class].pop().unwrap_or_else(|| Vec::with_capacity(1usize << class));
        buf.clear();
        buf.resize(len, T::default());
        buf
    }

    fn put(&mut self, buf: Vec<T>) {
        if buf.capacity() > 0 {
            self.0[class_for_cap(buf.capacity())].push(buf);
        }
    }
}

/// Reusable buffer pools for one worker's hot path (see module docs).
///
/// `take_*` hands out a buffer sized and zeroed for immediate use;
/// `put_*` returns it for reuse. Dropping a taken buffer instead of
/// returning it is safe — the pool simply re-allocates a replacement on
/// a later `take` — but only balanced take/put reaches the zero-alloc
/// steady state.
#[derive(Debug)]
pub struct Scratch {
    i32_classes: SizeClasses<i32>,
    i64_classes: SizeClasses<i64>,
    /// `i16` buffers: the madd route's staged activations (one
    /// channel-last plane per image, for direct, depthwise and dense
    /// layers alike).
    i16_classes: SizeClasses<i16>,
    /// Byte buffers: the register-resident pooled scatter's per-position
    /// `vpshufb` table pairs.
    u8_classes: SizeClasses<u8>,
    /// Tap/index pair lists (capacity grows to each site's peak demand).
    pairs: Vec<Vec<(usize, usize)>>,
    /// Outer containers for batched plane sets (inners live in the `i32`
    /// pool between uses).
    planes: Vec<Vec<Vec<i32>>>,
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Scratch {
    /// An empty arena. Allocation-free: pools fill lazily on first use.
    pub fn new() -> Self {
        Self {
            i32_classes: SizeClasses::new(),
            i64_classes: SizeClasses::new(),
            i16_classes: SizeClasses::new(),
            u8_classes: SizeClasses::new(),
            pairs: Vec::new(),
            planes: Vec::new(),
        }
    }

    /// Checks out an `i32` buffer of exactly `len` zeroed elements.
    pub fn take_i32(&mut self, len: usize) -> Vec<i32> {
        self.i32_classes.take(len)
    }

    /// Returns an `i32` buffer to its size class.
    pub fn put_i32(&mut self, buf: Vec<i32>) {
        self.i32_classes.put(buf);
    }

    /// Checks out an `i64` buffer of exactly `len` zeroed elements.
    pub fn take_i64(&mut self, len: usize) -> Vec<i64> {
        self.i64_classes.take(len)
    }

    /// Returns an `i64` buffer to its size class.
    pub fn put_i64(&mut self, buf: Vec<i64>) {
        self.i64_classes.put(buf);
    }

    /// Checks out an `i16` buffer of exactly `len` zeroed elements.
    pub fn take_i16(&mut self, len: usize) -> Vec<i16> {
        self.i16_classes.take(len)
    }

    /// Returns an `i16` buffer to its size class.
    pub fn put_i16(&mut self, buf: Vec<i16>) {
        self.i16_classes.put(buf);
    }

    /// Checks out a byte buffer of exactly `len` zeroed bytes.
    pub fn take_u8(&mut self, len: usize) -> Vec<u8> {
        self.u8_classes.take(len)
    }

    /// Returns a byte buffer to its size class.
    pub fn put_u8(&mut self, buf: Vec<u8>) {
        self.u8_classes.put(buf);
    }

    /// Checks out an empty tap/index pair list.
    pub fn take_pairs(&mut self) -> Vec<(usize, usize)> {
        let mut buf = self.pairs.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a pair list.
    pub fn put_pairs(&mut self, buf: Vec<(usize, usize)>) {
        self.pairs.push(buf);
    }

    /// Checks out an **empty** plane container (push [`Scratch::take_i32`]
    /// buffers into it); sized to hold at least `n` planes without
    /// reallocating once warmed.
    pub fn take_planes(&mut self, n: usize) -> Vec<Vec<i32>> {
        let mut outer = self.planes.pop().unwrap_or_default();
        outer.clear();
        outer.reserve(n);
        outer
    }

    /// Returns a plane container, draining its planes into the `i32`
    /// pool.
    pub fn put_planes(&mut self, mut outer: Vec<Vec<i32>>) {
        for plane in outer.drain(..) {
            self.put_i32(plane);
        }
        self.planes.push(outer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_to_powers_of_two() {
        assert_eq!(class_for_len(0), 0);
        assert_eq!(class_for_len(1), 0);
        assert_eq!(class_for_len(2), 1);
        assert_eq!(class_for_len(3), 2);
        assert_eq!(class_for_len(64), 6);
        assert_eq!(class_for_len(65), 7);
        assert_eq!(class_for_cap(1), 0);
        assert_eq!(class_for_cap(2), 1);
        assert_eq!(class_for_cap(3), 1);
        assert_eq!(class_for_cap(64), 6);
        assert_eq!(class_for_cap(127), 6);
    }

    #[test]
    fn take_is_zeroed_and_reuse_never_reallocates() {
        let mut s = Scratch::new();
        let mut a = s.take_i32(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&v| v == 0));
        assert_eq!(a.capacity(), 128);
        a.fill(7);
        let ptr = a.as_ptr();
        s.put_i32(a);
        // Any length in the same class reuses the same allocation, zeroed.
        let b = s.take_i32(70);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 70);
        assert!(b.iter().all(|&v| v == 0));
        s.put_i32(b);
        // A larger class allocates separately and leaves the first alone.
        let c = s.take_i32(129);
        assert_ne!(c.as_ptr(), ptr);
        s.put_i32(c);
        let d = s.take_i32(128);
        assert_eq!(d.as_ptr(), ptr);
    }

    #[test]
    fn planes_round_trip_through_the_i32_pool() {
        let mut s = Scratch::new();
        let mut planes = s.take_planes(2);
        planes.push(s.take_i32(16));
        planes.push(s.take_i32(16));
        let ptrs = [planes[0].as_ptr(), planes[1].as_ptr()];
        s.put_planes(planes);
        let again = s.take_i32(16);
        assert!(ptrs.contains(&again.as_ptr()), "drained planes must return to the i32 pool");
    }

    #[test]
    fn zero_length_takes_are_fine() {
        let mut s = Scratch::new();
        let v = s.take_i32(0);
        assert!(v.is_empty());
        s.put_i32(v);
        let w = s.take_i64(0);
        assert!(w.is_empty());
        s.put_i64(w);
        let b = s.take_u8(0);
        assert!(b.is_empty());
        s.put_u8(b);
        let h = s.take_i16(0);
        assert!(h.is_empty());
        s.put_i16(h);
    }
}
