//! O(1) LRU cache over a slab-allocated intrusive doubly-linked list.
//!
//! No `unsafe`: the list is threaded through a `Vec` of nodes addressed
//! by index, with a free list for recycling. A `HashMap` over the
//! deterministic one-word [`KeyBuildHasher`] maps keys to node slots.
//!
//! The index table and read cache of POD are both LRU-managed (paper
//! §III-B: "The Index table in our POD design is organized in an LRU
//! form"), and the iCache Swap Module resizes them online — hence
//! [`LruCache::set_capacity`] returns the entries spilled by a shrink so
//! the caller can swap them out to the reserved disk region.

use pod_hash::KeyBuildHasher;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with a fixed (but online-adjustable)
/// entry capacity.
///
/// ```
/// use pod_cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a");                       // promote "a"
/// let evicted = cache.insert("c", 3);    // "b" is now the LRU victim
/// assert_eq!(evicted, Some(("b", 2)));
///
/// // iCache resizes its partitions online; spilled entries come back
/// // LRU-first so they can be staged to disk.
/// let spilled = cache.set_capacity(1);
/// assert_eq!(spilled.len(), 1);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize, KeyBuildHasher>,
    slab: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    /// Most recently used node.
    head: usize,
    /// Least recently used node.
    tail: usize,
    capacity: usize,
    evictions: u64,
}

/// Flat gauge snapshot of an [`LruCache`] (see
/// [`Introspect`](pod_types::Introspect)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruState {
    /// Cached entries.
    pub len: u64,
    /// Entry capacity.
    pub capacity: u64,
    /// Cumulative LRU-end evictions (insert pressure plus shrink
    /// spills) — a churn gauge when differenced across epochs.
    pub evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries. A capacity of
    /// zero is legal: every insert immediately self-evicts, which is how
    /// a fully-starved partition behaves in iCache.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is cached. Does not touch recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Get and promote to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.slab[idx].as_ref().map(|n| &n.value)
    }

    /// Get mutably and promote.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.slab[idx].as_mut().map(|n| &mut n.value)
    }

    /// Look up without promoting.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.slab[idx].as_ref().map(|n| &n.value)
    }

    /// Insert (or update) `key`, promoting it. Returns the entry evicted
    /// to make room, if any. An update never evicts.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            let node = self.slab[idx].as_mut().expect("mapped slot is live");
            node.value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        if self.capacity == 0 {
            // Degenerate partition: nothing can be cached.
            return Some((key, value));
        }
        let evicted = if self.map.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.slab[idx].take().map(|n| n.value)
    }

    /// Evict and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.detach(idx);
        self.free.push(idx);
        let node = self.slab[idx].take().expect("tail slot is live");
        self.map.remove(&node.key);
        self.evictions += 1;
        Some((node.key, node.value))
    }

    /// Cumulative count of LRU-end evictions ([`LruCache::pop_lru`],
    /// whether from insert pressure or a capacity shrink).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resize online. Shrinking evicts from the LRU end; the spilled
    /// entries are returned in eviction (LRU-first) order so the caller
    /// can stage them to backing storage.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<(K, V)> {
        self.capacity = capacity;
        let mut spilled = Vec::new();
        while self.map.len() > self.capacity {
            spilled.extend(self.pop_lru());
        }
        spilled
    }

    /// Iterate entries from most- to least-recently-used.
    pub fn iter(&self) -> LruIter<'_, K, V> {
        LruIter {
            cache: self,
            cursor: self.head,
        }
    }

    /// Drop every entry, keeping capacity.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.slab[idx].as_ref().expect("detach of live slot");
            (n.prev, n.next)
        };
        if prev != NIL {
            self.slab[prev].as_mut().expect("prev live").next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].as_mut().expect("next live").prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let n = self.slab[idx].as_mut().expect("detach of live slot");
        n.prev = NIL;
        n.next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.slab[idx].as_mut().expect("attach of live slot");
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head].as_mut().expect("head live").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

impl<K: Eq + Hash + Clone, V> pod_types::Introspect for LruCache<K, V> {
    type State = LruState;

    fn introspect(&self) -> LruState {
        LruState {
            len: self.len() as u64,
            capacity: self.capacity as u64,
            evictions: self.evictions,
        }
    }
}

/// Iterator over `(key, value)` in most- to least-recently-used order.
pub struct LruIter<'a, K, V> {
    cache: &'a LruCache<K, V>,
    cursor: usize,
}

impl<'a, K: Eq + Hash + Clone, V> Iterator for LruIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.cache.slab[self.cursor].as_ref().expect("cursor live");
        self.cursor = node.next;
        Some((&node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&2), Some(&"b"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
    }

    #[test]
    fn update_promotes_and_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert!(c.insert(1, "a2").is_none()); // update
        assert_eq!(c.len(), 2);
        // 2 is LRU now
        assert_eq!(c.insert(3, "c"), Some((2, "b")));
        assert_eq!(c.peek(&1), Some(&"a2"));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.peek(&1); // should NOT promote 1
        assert_eq!(c.insert(3, "c"), Some((1, "a")));
    }

    #[test]
    fn remove_middle_entry() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.remove(&2), Some("b"));
        assert_eq!(c.len(), 2);
        // List still consistent: iterate MRU -> LRU
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![3, 1]);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.remove(&3), Some("c")); // head (MRU)
        assert_eq!(c.remove(&1), Some("a")); // tail (LRU)
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2]);
    }

    #[test]
    fn pop_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.pop_lru(), Some((1, "a")));
        assert_eq!(c.pop_lru(), Some((2, "b")));
        assert_eq!(c.pop_lru(), Some((3, "c")));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn zero_capacity_bounces_inserts() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(1, "a"), Some((1, "a")));
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn shrink_spills_lru_first() {
        let mut c = LruCache::new(4);
        for i in 1..=4 {
            c.insert(i, i * 10);
        }
        c.get(&1); // recency: 1,4,3,2
        let spilled = c.set_capacity(2);
        assert_eq!(spilled, vec![(2, 20), (3, 30)]);
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![1, 4]);
    }

    #[test]
    fn grow_keeps_entries() {
        let mut c = LruCache::new(1);
        c.insert(1, "a");
        assert!(c.set_capacity(3).is_empty());
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.len(), 3);
        assert!(c.contains(&1));
    }

    #[test]
    fn slot_recycling_after_many_evictions() {
        let mut c = LruCache::new(8);
        for i in 0..10_000u32 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 8);
        // Slab should not have grown past capacity + O(1).
        assert!(c.slab.len() <= 9, "slab len {}", c.slab.len());
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![9999, 9998, 9997, 9996, 9995, 9994, 9993, 9992]);
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.pop_lru(), None);
        c.insert(2, "b");
        assert_eq!(c.get(&2), Some(&"b"));
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut c = LruCache::new(2);
        c.insert(1, 5);
        if let Some(v) = c.get_mut(&1) {
            *v += 1;
        }
        assert_eq!(c.peek(&1), Some(&6));
    }

    #[test]
    fn eviction_counter_tracks_pop_and_shrink() {
        use pod_types::Introspect;
        let mut c = LruCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        assert_eq!(c.evictions(), 0);
        c.insert(3, ()); // evicts 1
        assert_eq!(c.evictions(), 1);
        let _ = c.set_capacity(1); // spills one more
        assert_eq!(c.evictions(), 2);
        let state = c.introspect();
        assert_eq!(state.len, 1);
        assert_eq!(state.capacity, 1);
        assert_eq!(state.evictions, 2);
        // A zero-capacity bounce never enters the cache and is not an
        // eviction in the churn sense.
        let _ = c.set_capacity(0);
        let before = c.evictions();
        assert_eq!(c.insert(9, ()), Some((9, ())));
        assert_eq!(c.evictions(), before);
    }

    #[test]
    fn iter_is_mru_to_lru() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&2);
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
