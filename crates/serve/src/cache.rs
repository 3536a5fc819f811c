//! The LRU condition-embedding cache.
//!
//! Encoding a condition runs the detector, BLIP fusion, CLIP text encoder
//! and region augmenter — far more work than a cache probe — and repeated
//! prompts are the common case for a serving workload. Entries are keyed
//! by everything the encode depends on: the prompt, the ablation variant,
//! the guidance scale, and — for image-conditioned tasks — the task kind
//! plus a digest of the conditioning image and its geometry/region
//! metadata ([`aerodiffusion::TaskSpec::source_digest`]).

use aero_tensor::Tensor;
use aerodiffusion::{AblationVariant, TaskKind};
use std::collections::HashMap;
use std::hash::Hash;

/// Cache key for one condition embedding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConditionKey {
    /// The target description `G'`.
    pub prompt: String,
    /// The ablation variant the pipeline was trained as.
    pub variant: AblationVariant,
    /// Guidance scale bits (f32 is not `Hash`; the bit pattern is).
    pub guidance_bits: u32,
    /// The workload discriminant ([`TaskKind::Text`] for plain
    /// text-to-image, whose keys are unchanged from the pre-task era).
    pub task_kind: TaskKind,
    /// [`aerodiffusion::TaskSpec::source_digest`] of the image-side
    /// conditioning inputs (0 for text-to-image).
    pub source_digest: u64,
}

impl ConditionKey {
    /// Builds a text-to-image key (the pre-task constructor; kept so
    /// text keys are field-for-field what they always were).
    #[must_use]
    pub fn new(prompt: &str, variant: AblationVariant, guidance_scale: f32) -> Self {
        ConditionKey::for_task(prompt, variant, guidance_scale, TaskKind::Text, 0)
    }

    /// Builds a key for any task kind from its discriminant and source
    /// digest.
    #[must_use]
    pub fn for_task(
        prompt: &str,
        variant: AblationVariant,
        guidance_scale: f32,
        task_kind: TaskKind,
        source_digest: u64,
    ) -> Self {
        ConditionKey {
            prompt: prompt.to_string(),
            variant,
            guidance_bits: guidance_scale.to_bits(),
            task_kind,
            source_digest,
        }
    }
}

/// A strict-capacity LRU map. `get` refreshes recency; inserting beyond
/// capacity evicts the least recently used entry.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, V>,
    /// Keys ordered least → most recently used.
    order: Vec<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache { map: HashMap::new(), order: Vec::new(), capacity }
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let value = self.map.get(key)?.clone();
        self.touch(key);
        Some(value)
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used
    /// entry if the cache is full. Returns the evicted key, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.map.insert(key.clone(), value).is_some() {
            self.touch(&key);
            return None;
        }
        self.order.push(key);
        if self.map.len() > self.capacity {
            let evicted = self.order.remove(0);
            self.map.remove(&evicted);
            return Some(evicted);
        }
        None
    }

    /// Drops every entry (e.g. after a model hot-swap invalidates all
    /// cached embeddings at once). Capacity is unchanged.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Removes an entry outright (e.g. one found to hold corrupt data),
    /// returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.map.remove(key)?;
        if let Some(i) = self.order.iter().position(|k| k == key) {
            self.order.remove(i);
        }
        Some(value)
    }

    fn touch(&mut self, key: &K) {
        if let Some(i) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(i);
            self.order.push(k);
        }
    }
}

/// The concrete cache the serving runtime shares across workers, keyed
/// by the generation of the model that computed an entry and the entry's
/// [`ConditionKey`]: after a hot-swap, an entry of the outgoing model —
/// even one a batch still in flight inserts after the swap — never
/// answers a lookup made for the new one.
pub type ConditionCache = LruCache<(u64, ConditionKey), Tensor>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_strict() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(3, 30), Some(1), "oldest entry must be evicted");
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 2 is now LRU
        assert_eq!(c.insert(3, 30), Some(2));
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None); // refresh, not a new entry
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3, 30), Some(2), "refreshed key 1 must outlive key 2");
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    fn eviction_follows_use_order_exactly() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 1..=3 {
            c.insert(k, k);
        }
        c.get(&1);
        c.get(&3);
        // use order now 2 (LRU), 1, 3 (MRU)
        assert_eq!(c.insert(4, 4), Some(2));
        assert_eq!(c.insert(5, 5), Some(1));
        assert_eq!(c.insert(6, 6), Some(3));
    }

    #[test]
    fn remove_frees_capacity_and_order_slot() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.insert(3, 30), None, "removal must free a slot");
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn condition_keys_distinguish_all_fields() {
        let a = ConditionKey::new("p", AblationVariant::Full, 7.0);
        assert_ne!(a, ConditionKey::new("q", AblationVariant::Full, 7.0));
        assert_ne!(a, ConditionKey::new("p", AblationVariant::BaseSd, 7.0));
        assert_ne!(a, ConditionKey::new("p", AblationVariant::Full, 7.5));
        assert_eq!(a, ConditionKey::new("p", AblationVariant::Full, 7.0));
        // Task kind and source digest both split the key space; the
        // text constructor is the (Text, 0) corner of it.
        let t =
            |kind, digest| ConditionKey::for_task("p", AblationVariant::Full, 7.0, kind, digest);
        assert_eq!(a, t(TaskKind::Text, 0));
        assert_ne!(a, t(TaskKind::Inpaint, 0));
        assert_ne!(t(TaskKind::Inpaint, 1), t(TaskKind::Inpaint, 2));
        assert_ne!(t(TaskKind::View, 1), t(TaskKind::SuperRes, 1));
    }

    #[test]
    #[should_panic(expected = "LRU capacity must be positive")]
    fn zero_capacity_panics() {
        let _: LruCache<u32, u32> = LruCache::new(0);
    }
}
