//! A small LRU cache for `Arc`-shared pipeline state.
//!
//! The engine caches a handful of heavyweight values (spatial indexes, core
//! sets) keyed by quantized parameters, so a simple vector with
//! move-to-back-on-hit semantics beats a hash map + intrusive list at these
//! sizes, and keeps the crate dependency-free.

/// An LRU cache with a fixed capacity. The most recently used entry lives at
/// the back; inserting beyond capacity evicts the front.
pub struct LruCache<K: PartialEq, V: Clone> {
    capacity: usize,
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V: Clone> LruCache<K, V> {
    /// Creates a cache holding up to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    /// Inserts `key → value`, evicting the least recently used entry if the
    /// cache is full. An existing entry for `key` is replaced. Returns the
    /// displaced entry (replaced or evicted), if any, so dependent caches
    /// can be pruned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let displaced = if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            Some(self.entries.remove(pos))
        } else if self.entries.len() >= self.capacity {
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push((key, value));
        displaced
    }

    /// Whether any entry satisfies `pred`, without refreshing recency.
    pub fn any(&self, pred: impl Fn(&K, &V) -> bool) -> bool {
        self.entries.iter().any(|(k, v)| pred(k, v))
    }

    /// Drops every entry whose key matches `pred`.
    pub fn remove_matching(&mut self, pred: impl Fn(&K) -> bool) {
        self.entries.retain(|(k, _)| !pred(k));
    }

    /// Number of cached entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "a");
        cache.insert(2, "b");
        assert_eq!(cache.get(&1), Some("a")); // refresh 1 → 2 is now LRU
        cache.insert(3, "c");
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some("a"));
        assert_eq!(cache.get(&3), Some("c"));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert(1, "a");
        cache.insert(2, "b");
        cache.insert(1, "a2");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some("a2"));
        assert_eq!(cache.get(&2), Some("b"));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut cache = LruCache::new(0);
        cache.insert(1, "a");
        assert_eq!(cache.get(&1), Some("a"));
        cache.insert(2, "b");
        assert_eq!(cache.get(&1), None);
    }
}
