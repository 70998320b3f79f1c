//! A LIFO free list of vectors.
//!
//! No engine draws from it: every payload the kernel carries is either
//! fixed-size or an inline list its protocol bounds (the gossip
//! shuffle's peers live in `mpil_gossip`'s own inline array). It stays
//! for the benchmark's `sim.pool.take_put_ns` probe, which names
//! [`PayloadPool::take`] and [`PayloadPool::put`]; once that probe is
//! gone, so can this module be.

/// A LIFO free list of boxed vectors: [`PayloadPool::put`] parks one,
/// and the next [`PayloadPool::take`] hands that same vector back.
#[derive(Debug, Default)]
pub struct PayloadPool<T> {
    // Boxed so a vector parks and leaves the free list without its
    // 3-word header moving.
    #[expect(clippy::vec_box, reason = "a parked vector's header never moves")]
    free: Vec<Box<Vec<T>>>,
}

impl<T> PayloadPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        PayloadPool { free: Vec::new() }
    }

    /// Hands out an empty vector, the last one parked if there is one.
    pub fn take(&mut self) -> Box<Vec<T>> {
        self.free.pop().unwrap_or_default()
    }

    /// Empties `v` and parks it for the next [`PayloadPool::take`].
    pub fn put(&mut self, mut v: Box<Vec<T>>) {
        v.clear();
        self.free.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vector_put_back_is_the_next_one_taken() {
        let mut pool: PayloadPool<u32> = PayloadPool::new();
        let mut v = pool.take();
        v.extend([1, 2, 3]);
        let parked: *const Vec<u32> = &*v;
        pool.put(v);
        let again = pool.take();
        assert!(
            std::ptr::eq(&*again, parked),
            "a fresh vector, not the parked one"
        );
        assert!(again.is_empty() && again.capacity() >= 3);
    }
}
