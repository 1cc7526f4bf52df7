//! Session storage: the owner-checked slab that holds every live
//! session and the open-addressed index that routes tenant names.
//!
//! The engine keeps every live [`crate::session::Session`] in one
//! contiguous `Vec` of slots so that opening a tenant after a closure
//! reuses memory instead of growing the heap forever. The engine stores
//! `Box<Session>`, so a slot is 16 bytes and lending a session to a
//! flush (and putting it back) moves an 8-byte pointer, not the
//! ~800-byte session struct. Slots are addressed by a dense `u32` index
//! and stamped with the owning tenant's interned id: because indices
//! are recycled (LIFO free list, so reuse is deterministic and
//! cache-warm), a stale index held elsewhere could otherwise alias a
//! slot that now belongs to a different tenant. Every accessor
//! therefore takes the expected owner and returns `None` on mismatch —
//! a stale handle degrades to a miss, never to another tenant's
//! session. The churn fuzz in `crates/engine/tests/fleet_eviction.rs`
//! leans on this guard.
//!
//! The slab also tracks a per-slot `dirty` flag so the engine can keep
//! a duplicate-free list of sessions that queued work since the last
//! flush without scanning all 50k slots (see `engine::flush`).
//!
//! [`NameIndex`] maps a tenant name to its interned id with one hash of
//! the name bytes and a short linear probe over a `Vec<u32>` of ids. It
//! stores no names: the caller resolves an id to its name (the engine
//! keeps each name once, in its tenant table), so a hit costs one hash
//! and one string compare. The hash is fixed (no per-process seed) and
//! the index is never iterated, so nothing observable depends on the
//! bucket layout.

/// A slot store with owner-stamped entries and a LIFO free list.
///
/// `O(1)` insert/lookup/remove; iteration order over live entries is
/// slot order (ascending index), which is deterministic because both
/// allocation and recycling are.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<Entry<T>>>,
    /// Recycled slot indices, popped LIFO so reuse order is a pure
    /// function of the release order.
    free: Vec<u32>,
    /// Number of live entries (slots holding `Some`, plus slots lent
    /// out via [`Slab::lend`] and not yet restored or released).
    live: usize,
}

#[derive(Debug)]
struct Entry<T> {
    owner: u32,
    dirty: bool,
    value: T,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Bytes of the slot table itself: one entry per slot ever
    /// allocated (live + free, the high-water mark of concurrent
    /// entries), at the real entry size. A boxed value counts here only
    /// as its pointer.
    pub(crate) fn table_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<Entry<T>>>()
    }

    /// Stores `value` for `owner` and returns its slot index, reusing
    /// a freed slot when one exists.
    pub(crate) fn insert(&mut self, owner: u32, value: T) -> u32 {
        self.live += 1;
        let entry = Entry {
            owner,
            dirty: false,
            value,
        };
        if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                *slot = Some(entry);
                return idx;
            }
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Some(entry));
        idx
    }

    /// Borrows the entry at `idx` if it is live and owned by `owner`.
    pub(crate) fn get(&self, idx: u32, owner: u32) -> Option<&T> {
        match self.slots.get(idx as usize) {
            Some(Some(e)) if e.owner == owner => Some(&e.value),
            _ => None,
        }
    }

    /// Mutably borrows the entry at `idx` if it is live and owned by
    /// `owner`.
    pub(crate) fn get_mut(&mut self, idx: u32, owner: u32) -> Option<&mut T> {
        match self.slots.get_mut(idx as usize) {
            Some(Some(e)) if e.owner == owner => Some(&mut e.value),
            _ => None,
        }
    }

    /// Marks the entry dirty; returns `true` if it was clean (so the
    /// caller appends it to its dirty list exactly once per flush
    /// interval).
    pub(crate) fn mark_dirty(&mut self, idx: u32) -> bool {
        match self.slots.get_mut(idx as usize) {
            Some(Some(e)) if !e.dirty => {
                e.dirty = true;
                true
            }
            _ => false,
        }
    }

    /// Moves the entry's value out for flush processing, leaving the
    /// slot allocated but empty, and clears the dirty flag. The caller
    /// must either [`Slab::restore`] the value or [`Slab::release`] the
    /// slot before the next insert/lookup cycle; while lent, lookups on
    /// this index miss.
    pub(crate) fn lend(&mut self, idx: u32) -> Option<(u32, T)> {
        match self.slots.get_mut(idx as usize) {
            Some(slot @ Some(_)) => slot.take().map(|e| (e.owner, e.value)),
            _ => None,
        }
    }

    /// Returns a lent value to its slot (clean).
    pub(crate) fn restore(&mut self, idx: u32, owner: u32, value: T) {
        if let Some(slot) = self.slots.get_mut(idx as usize) {
            *slot = Some(Entry {
                owner,
                dirty: false,
                value,
            });
        }
    }

    /// Frees a slot whose value was lent out and will not return,
    /// making the index available for reuse.
    pub(crate) fn release(&mut self, idx: u32) {
        if let Some(slot) = self.slots.get_mut(idx as usize) {
            if slot.is_none() {
                self.free.push(idx);
                self.live = self.live.saturating_sub(1);
            }
        }
    }

    /// Iterates live entries in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|e| (i as u32, &e.value)))
    }
}

/// Bucket value of an empty [`NameIndex`] slot (never a valid id: ids
/// are dense table indices).
const VACANT: u32 = u32::MAX;

/// Bucket count of a [`NameIndex`]'s first table (a power of two).
const MIN_BUCKETS: usize = 8;

/// Multiplier of the word-at-a-time name hash (the Fx hash constant).
const HASH_K: u64 = 0x517c_c1b7_2722_0a95;

/// Open-addressed name → id index: `Vec<u32>` buckets, linear probing,
/// doubling before the load passes 7/8 — see the module docs. Lookups
/// and inserts take `name_of`, which resolves an indexed id to its
/// name; the index itself holds only ids.
#[derive(Debug, Default)]
pub(crate) struct NameIndex {
    /// A power-of-two table of ids, [`VACANT`] where empty; no
    /// allocation until the first insert.
    buckets: Vec<u32>,
    /// Number of indexed ids.
    len: usize,
}

impl NameIndex {
    pub(crate) fn new() -> Self {
        NameIndex::default()
    }

    /// Heap bytes of the bucket table.
    pub(crate) fn table_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u32>()
    }

    /// The id indexed under `name`, if any.
    // hot-path
    pub(crate) fn find<'n>(&self, name: &str, name_of: impl Fn(u32) -> &'n str) -> Option<u32> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut pos = bucket_of(name_hash(name.as_bytes()), self.buckets.len());
        // The load never passes 7/8, so the probe always meets a vacant
        // bucket.
        loop {
            match self.buckets.get(pos) {
                Some(&id) if id == VACANT => return None,
                Some(&id) if name_of(id) == name => return Some(id),
                Some(_) => pos = (pos + 1) & mask,
                None => return None,
            }
        }
    }

    /// Indexes `id` under `name`, which must not be indexed yet; doubles
    /// the table first (re-placing every id by its `name_of` name) when
    /// one more id would put the load above 7/8.
    pub(crate) fn insert<'n>(&mut self, name: &str, id: u32, name_of: impl Fn(u32) -> &'n str) {
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            let grown = (self.buckets.len() * 2).max(MIN_BUCKETS);
            let old = std::mem::replace(&mut self.buckets, vec![VACANT; grown]);
            for old_id in old.into_iter().filter(|&i| i != VACANT) {
                self.place(name_hash(name_of(old_id).as_bytes()), old_id);
            }
        }
        self.place(name_hash(name.as_bytes()), id);
        self.len += 1;
    }

    /// Stores `id` in the first vacant bucket at or after its home.
    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.buckets.len().saturating_sub(1);
        let mut pos = bucket_of(hash, self.buckets.len());
        while let Some(bucket) = self.buckets.get_mut(pos) {
            if *bucket == VACANT {
                *bucket = id;
                return;
            }
            pos = (pos + 1) & mask;
        }
    }
}

/// Fixed word-at-a-time hash of a name: eight bytes per multiply, the
/// zero-padded tail as one last word, the length folded in so padding
/// cannot alias, and a final xor-shift-multiply so every input bit
/// reaches the top bits [`bucket_of`] takes. No per-process seed — see
/// the module docs.
// hot-path
fn name_hash(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(HASH_K);
    let mut words = bytes.chunks_exact(8);
    let mut h = 0u64;
    for w in words.by_ref() {
        h = step(h, u64::from_le_bytes(w.try_into().unwrap_or([0; 8])));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        if let Some(dst) = tail.get_mut(..rest.len()) {
            dst.copy_from_slice(rest);
        }
        h = step(h, u64::from_le_bytes(tail));
    }
    let h = step(h, bytes.len() as u64);
    (h ^ (h >> 32)).wrapping_mul(HASH_K)
}

/// Home bucket of `hash` in a power-of-two table of `buckets` (≥ 2):
/// its top bits, which the hash's final multiply mixes from every input
/// bit.
fn bucket_of(hash: u64, buckets: usize) -> usize {
    (hash >> (64 - buckets.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: Slab<String> = Slab::new();
        let a = slab.insert(0, "a".to_string());
        let b = slab.insert(1, "b".to_string());
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a, 0).map(String::as_str), Some("a"));
        assert_eq!(slab.get(b, 1).map(String::as_str), Some("b"));
        let (owner, v) = slab.lend(a).unwrap();
        assert_eq!((owner, v.as_str()), (0, "a"));
        assert!(slab.get(a, 0).is_none(), "lent slot must miss");
        slab.release(a);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn freed_slots_reuse_lifo() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(0, 10);
        let b = slab.insert(1, 11);
        slab.lend(a);
        slab.release(a);
        slab.lend(b);
        slab.release(b);
        // LIFO: b's slot (freed last) is handed out first.
        let table = slab.table_bytes();
        assert_eq!(slab.insert(2, 12), b);
        assert_eq!(slab.insert(3, 13), a);
        assert_eq!(
            slab.table_bytes(),
            table,
            "no growth while free slots exist"
        );
    }

    #[test]
    fn stale_index_never_aliases_new_owner() {
        let mut slab: Slab<u64> = Slab::new();
        let idx = slab.insert(7, 70);
        slab.lend(idx);
        slab.release(idx);
        let reused = slab.insert(9, 90);
        assert_eq!(idx, reused);
        // The old owner's handle misses; the new owner's hits.
        assert!(slab.get(idx, 7).is_none());
        assert_eq!(slab.get(idx, 9), Some(&90));
        assert!(slab.get_mut(idx, 7).is_none());
    }

    #[test]
    fn dirty_flag_dedupes_and_resets_on_lend() {
        let mut slab: Slab<u64> = Slab::new();
        let idx = slab.insert(0, 1);
        assert!(slab.mark_dirty(idx), "first mark reports clean->dirty");
        assert!(!slab.mark_dirty(idx), "second mark is a no-op");
        let (owner, v) = slab.lend(idx).unwrap();
        slab.restore(idx, owner, v);
        assert!(slab.mark_dirty(idx), "restore clears the flag");
    }

    #[test]
    fn iter_walks_slot_order_and_skips_holes() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(0, 10);
        let _b = slab.insert(1, 11);
        let _c = slab.insert(2, 12);
        slab.lend(a);
        slab.release(a);
        let got: Vec<(u32, u64)> = slab.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(got, vec![(1, 11), (2, 12)]);
    }

    /// Resolves an id to its name by position, as the engine's tenant
    /// table does.
    fn by_id<'a>(names: &'a [String]) -> impl Fn(u32) -> &'a str + 'a {
        move |id| names.get(id as usize).map_or("", String::as_str)
    }

    #[test]
    fn index_probes_past_forced_collisions() {
        // Five names with one home bucket in the first (8-bucket) table.
        let home = |n: &str| bucket_of(name_hash(n.as_bytes()), MIN_BUCKETS);
        let target = home("vm-0");
        let names: Vec<String> = (0..)
            .map(|i| format!("vm-{i}"))
            .filter(|n| home(n) == target)
            .take(5)
            .collect();
        let mut index = NameIndex::new();
        assert_eq!(
            index.find("vm-0", by_id(&names)),
            None,
            "empty index misses"
        );
        for (id, name) in names.iter().enumerate() {
            index.insert(name, id as u32, by_id(&names));
        }
        // The hash is fixed, so these are too; the engine's interleaving
        // property test (`tests/interleave_prop.rs`) routes them.
        assert_eq!(names, ["vm-0", "vm-3", "vm-16", "vm-31", "vm-36"]);
        assert_eq!(
            index.buckets.len(),
            MIN_BUCKETS,
            "five ids fit the first table"
        );
        for (id, name) in names.iter().enumerate() {
            assert_eq!(index.find(name, by_id(&names)), Some(id as u32), "{name}");
        }
        // A miss with the same home walks the whole cluster to a vacancy.
        let absent = (0..)
            .map(|i| format!("vm-x{i}"))
            .find(|n| home(n) == target)
            .unwrap();
        assert_eq!(index.find(&absent, by_id(&names)), None);
        // A prefix or extension of an indexed name is a different name.
        assert_eq!(index.find("vm-", by_id(&names)), None);
        assert_eq!(index.find(&format!("{}0", names[0]), by_id(&names)), None);
    }

    #[test]
    fn index_grows_at_seven_eighths_and_keeps_every_id() {
        let names: Vec<String> = (0..5_000).map(|i| format!("tenant-{i:05}")).collect();
        let mut index = NameIndex::new();
        let mut tables = Vec::new();
        for (id, name) in names.iter().enumerate() {
            index.insert(name, id as u32, by_id(&names));
            assert!(index.buckets.len().is_power_of_two());
            assert!(
                index.len * 8 <= index.buckets.len() * 7,
                "load stays at or below 7/8"
            );
            if tables.last() != Some(&index.buckets.len()) {
                tables.push(index.buckets.len());
            }
        }
        // 8 buckets hold 7 ids, 16 hold 14, ..., 8192 hold 7168.
        assert_eq!(tables, (3..=13).map(|b| 1usize << b).collect::<Vec<_>>());
        assert_eq!(index.len, names.len());
        for (id, name) in names.iter().enumerate() {
            assert_eq!(index.find(name, by_id(&names)), Some(id as u32), "{name}");
        }
        assert_eq!(index.find("tenant-05000", by_id(&names)), None);
        assert_eq!(index.find("", by_id(&names)), None);
        assert_eq!(index.table_bytes(), 8192 * 4);
    }
}
