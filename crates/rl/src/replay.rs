use rand::Rng;
use std::collections::VecDeque;

/// A bounded experience-replay buffer.
///
/// Oldest experiences are evicted when the capacity is reached; sampling is
/// uniform with replacement, which is all DDPG needs at this scale.
///
/// # Example
///
/// ```
/// use ie_rl::ReplayBuffer;
/// use rand::SeedableRng;
///
/// let mut buffer = ReplayBuffer::new(8);
/// for i in 0..20 {
///     buffer.push(i);
/// }
/// assert_eq!(buffer.len(), 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut batch = Vec::new();
/// buffer.sample_indices_into(&mut rng, 4, &mut batch);
/// assert_eq!(batch.len(), 4);
/// assert!(batch.iter().all(|&i| buffer[i] >= 12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBuffer<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T: Clone> ReplayBuffer<T> {
    /// Creates a buffer holding at most `capacity` experiences.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be non-zero");
        ReplayBuffer { capacity, items: VecDeque::with_capacity(capacity) }
    }

    /// Maximum number of experiences retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of experiences currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no experiences are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds an experience, evicting the oldest one if the buffer is full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
    }

    /// Uniformly samples `count` experience indices with replacement into
    /// `out` (cleared first; left empty when the buffer is empty). Index `i`
    /// reads back as `self[i]`, oldest first. Draws one `gen_range` per index
    /// and allocates nothing once `out` has the capacity.
    pub fn sample_indices_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if self.items.is_empty() {
            return;
        }
        out.extend((0..count).map(|_| rng.gen_range(0..self.items.len())));
    }

    /// Iterates over the stored experiences, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes all stored experiences.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<T> std::ops::Index<usize> for ReplayBuffer<T> {
    type Output = T;

    /// The `index`-th stored experience, oldest first.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    fn index(&self, index: usize) -> &T {
        &self.items[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eviction_keeps_the_newest_items() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(i);
        }
        let items: Vec<i32> = b.iter().copied().collect();
        assert_eq!(items, vec![2, 3, 4]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn sampling_only_returns_stored_items() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..10 {
            b.push(i * 10);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut sample = Vec::new();
        b.sample_indices_into(&mut rng, 100, &mut sample);
        assert_eq!(sample.len(), 100);
        assert!(sample.iter().all(|&i| b[i] % 10 == 0 && b[i] < 100));
    }

    #[test]
    fn empty_buffer_samples_nothing() {
        let b: ReplayBuffer<u8> = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut sample = vec![9];
        b.sample_indices_into(&mut rng, 5, &mut sample);
        assert!(sample.is_empty());
        assert!(b.is_empty());
    }

    #[test]
    fn clear_empties_the_buffer() {
        let mut b = ReplayBuffer::new(4);
        b.push(1);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "replay capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _: ReplayBuffer<u8> = ReplayBuffer::new(0);
    }
}
