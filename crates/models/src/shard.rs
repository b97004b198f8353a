//! Sparse, batch-footprint gradient shards for the multi-threaded trainer.
//!
//! PR 2's sharded trainer gave every worker a private dense
//! [`GradBuffer`], so scratch memory scaled as
//! `threads × (n_users + n_items) × d` — a wall on many-core machines
//! with catalogue-scale item tables. A training step only ever touches
//! the rows of its batch (`B` users, at most `B·(1+m)` items), so
//! [`ShardGrad`] stores exactly those rows: an open-addressed row map
//! from node id to a dense `d`-wide slab, **grow-only** across batches
//! (after the first full batch no step allocates), with
//! insertion-ordered iteration so the shard merge replays the dense
//! buffer's touch order bit for bit.
//!
//! Memory is proportional to the *batch footprint*, never the catalogue:
//! [`ShardGrad::rows_capacity`] is bounded by the largest set of distinct
//! rows any single batch touched on that shard.

use crate::grad::{GradBuffer, GradSink};

/// Multiply-shift hash of a row id into a table of size `mask + 1`.
#[inline]
fn hash(key: u32, mask: usize) -> usize {
    (((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & mask
}

/// An insertion-ordered sparse set of dense gradient rows.
///
/// `table` is open-addressed with linear probing and stores `slot + 1`
/// (0 = empty); `keys[slot]` is the row id and
/// `data[slot·dim .. (slot+1)·dim]` its gradient slab. `clear` zeroes
/// only the used slabs and keeps all capacity.
struct SparseRows {
    dim: usize,
    /// Touched row ids in insertion order (`slot` = index here).
    keys: Vec<u32>,
    /// `keys.len() × dim` slabs; retains its high-water length (zeroed)
    /// across clears so steady-state batches never reallocate.
    data: Vec<f32>,
    /// Open-addressed table of `slot + 1` entries, 0 = empty.
    table: Vec<u32>,
    mask: usize,
}

impl SparseRows {
    fn new(dim: usize) -> Self {
        const INITIAL_TABLE: usize = 64;
        Self {
            dim,
            keys: Vec::new(),
            data: Vec::new(),
            table: vec![0; INITIAL_TABLE],
            mask: INITIAL_TABLE - 1,
        }
    }

    /// The insertion slot of `key`, inserting a zeroed slab on first touch.
    fn slot_of(&mut self, key: u32) -> usize {
        let mut h = hash(key, self.mask);
        loop {
            let e = self.table[h];
            if e == 0 {
                let slot = self.keys.len();
                self.keys.push(key);
                if self.data.len() < self.keys.len() * self.dim {
                    // First time this slot index is used: extend by one
                    // zeroed slab (kept zeroed by `clear` thereafter).
                    self.data.resize(self.keys.len() * self.dim, 0.0);
                }
                self.table[h] = (slot + 1) as u32;
                // Keep load factor ≤ 3/4 so probes stay short.
                if (self.keys.len() + 1) * 4 > self.table.len() * 3 {
                    self.grow_table();
                }
                break slot;
            }
            let slot = (e - 1) as usize;
            if self.keys[slot] == key {
                break slot;
            }
            h = (h + 1) & self.mask;
        }
    }

    /// The gradient slab of `key`, inserting a zeroed slab on first touch.
    fn row_mut(&mut self, key: u32) -> &mut [f32] {
        let slot = self.slot_of(key);
        &mut self.data[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Doubles the probe table and reinserts every key (slots unchanged).
    fn grow_table(&mut self) {
        let new_len = self.table.len() * 2;
        self.table.clear();
        self.table.resize(new_len, 0);
        self.mask = new_len - 1;
        for (slot, &key) in self.keys.iter().enumerate() {
            let mut h = hash(key, self.mask);
            while self.table[h] != 0 {
                h = (h + 1) & self.mask;
            }
            self.table[h] = (slot + 1) as u32;
        }
    }

    /// Zeroes the used slabs and forgets the keys; capacity is retained.
    fn clear(&mut self) {
        self.data[..self.keys.len() * self.dim].fill(0.0);
        self.table.fill(0);
        self.keys.clear();
    }

    /// Allocated slab rows (the high-water distinct-row count).
    fn rows_capacity(&self) -> usize {
        self.data.len() / self.dim.max(1)
    }

    /// The slab of insertion slot `slot`.
    #[inline]
    fn slab(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.dim..(slot + 1) * self.dim]
    }
}

/// A worker shard's gradient accumulator sized to the batch footprint.
///
/// Drop-in replacement for the per-shard dense [`GradBuffer`]s of the
/// sharded trainer: same `*_row_mut` accumulation API, same
/// insertion-ordered `touched_*` iteration, and
/// [`ShardGrad::merge_into`] adds rows into the main dense buffer with
/// exactly the element order [`GradBuffer::merge_from`] used — so the
/// exact merge-then-step path is bit-identical while per-shard memory
/// drops from `(n_users + n_items) × d` to `O(batch footprint × d)`.
pub struct ShardGrad {
    users: SparseRows,
    items: SparseRows,
}

impl ShardGrad {
    /// An empty shard accumulator for gradient rows of width `dim`.
    ///
    /// Note the constructor takes **no catalogue sizes**: nothing in a
    /// `ShardGrad` scales with `n_users` or `n_items`.
    pub fn new(dim: usize) -> Self {
        Self { users: SparseRows::new(dim), items: SparseRows::new(dim) }
    }

    /// Gradient dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.users.dim
    }

    /// Mutable gradient row of user `u`, zero-initialized on first touch.
    #[inline]
    pub fn user_row_mut(&mut self, u: u32) -> &mut [f32] {
        self.users.row_mut(u)
    }

    /// Mutable gradient row of item `i`, zero-initialized on first touch.
    #[inline]
    pub fn item_row_mut(&mut self, i: u32) -> &mut [f32] {
        self.items.row_mut(i)
    }

    /// Users touched since the last clear, in first-touch order.
    #[inline]
    pub fn touched_users(&self) -> &[u32] {
        &self.users.keys
    }

    /// Items touched since the last clear, in first-touch order.
    #[inline]
    pub fn touched_items(&self) -> &[u32] {
        &self.items.keys
    }

    /// Whether nothing has been accumulated since the last clear.
    pub fn is_empty(&self) -> bool {
        self.users.keys.is_empty() && self.items.keys.is_empty()
    }

    /// Adds every touched row into `dst`, users then items, in
    /// first-touch order — the same reduction order (and therefore the
    /// same f32 sums, bit for bit) as [`GradBuffer::merge_from`] between
    /// two dense buffers.
    ///
    /// # Panics
    /// Panics if `dst`'s gradient width differs from [`ShardGrad::dim`].
    pub fn merge_into(&self, dst: &mut GradBuffer) {
        assert_eq!(self.dim(), dst.dim(), "gradient widths differ");
        for (slot, &u) in self.users.keys.iter().enumerate() {
            let src = self.users.slab(slot);
            for (d, &s) in dst.user_row_mut(u).iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
        for (slot, &i) in self.items.keys.iter().enumerate() {
            let src = self.items.slab(slot);
            for (d, &s) in dst.item_row_mut(i).iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }

    /// Zeroes the touched slabs and resets the bookkeeping; all capacity
    /// (slabs and probe tables) is retained for the next batch.
    pub fn clear(&mut self) {
        self.users.clear();
        self.items.clear();
    }

    /// Total allocated slab rows (users + items): the high-water count of
    /// distinct rows any batch touched, *not* a function of the catalogue.
    pub fn rows_capacity(&self) -> usize {
        self.users.rows_capacity() + self.items.rows_capacity()
    }
}

impl GradSink for ShardGrad {
    #[inline]
    fn user_row_mut(&mut self, u: u32) -> &mut [f32] {
        ShardGrad::user_row_mut(self, u)
    }

    #[inline]
    fn item_row_mut(&mut self, i: u32) -> &mut [f32] {
        ShardGrad::item_row_mut(self, i)
    }

    /// The shard's block is its slab store: row = insertion slot, an index,
    /// so it survives the slab store growing under later touches.
    #[inline]
    fn item_block_row(&mut self, i: u32) -> u32 {
        self.items.slot_of(i) as u32
    }

    #[inline]
    fn user_row_and_item_block(&mut self, u: u32) -> (&mut [f32], &mut [f32]) {
        (self.users.row_mut(u), &mut self.items.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_tracks_touch_order() {
        let mut g = ShardGrad::new(2);
        g.user_row_mut(7)[0] += 1.0;
        g.user_row_mut(3)[1] += 2.0;
        g.user_row_mut(7)[0] += 0.5;
        g.item_row_mut(1_000_000)[1] = -4.0;
        assert_eq!(g.touched_users(), &[7, 3], "first-touch order, no duplicates");
        assert_eq!(g.touched_items(), &[1_000_000]);
        assert_eq!(g.users.slab(0), &[1.5, 0.0]);
        assert!(!g.is_empty());
    }

    #[test]
    fn merge_into_matches_dense_merge_bitwise() {
        // The same accumulation pattern through a dense shard buffer and a
        // sparse one must merge to bit-identical dense results.
        let (nu, ni, d) = (50usize, 80usize, 3usize);
        let touches: Vec<(bool, u32, f32)> = (0..200)
            .map(|t| {
                let is_user = t % 3 != 0;
                let id = ((t * 37 + 11) % if is_user { nu } else { ni }) as u32;
                (is_user, id, (t as f32 * 0.173).sin())
            })
            .collect();

        let mut dense_shard = GradBuffer::new(nu, ni, d);
        let mut sparse_shard = ShardGrad::new(d);
        for &(is_user, id, v) in &touches {
            let (a, b) = if is_user {
                (dense_shard.user_row_mut(id), sparse_shard.user_row_mut(id))
            } else {
                (dense_shard.item_row_mut(id), sparse_shard.item_row_mut(id))
            };
            a[(id as usize) % d] += v;
            b[(id as usize) % d] += v;
        }

        let mut via_dense = GradBuffer::new(nu, ni, d);
        via_dense.user_row_mut(0)[0] = 0.25; // pre-existing content overlaps
        let mut via_sparse = via_dense.clone();
        via_dense.merge_from(&dense_shard);
        sparse_shard.merge_into(&mut via_sparse);

        assert_eq!(via_dense.users().as_slice(), via_sparse.users().as_slice());
        assert_eq!(via_dense.items().as_slice(), via_sparse.items().as_slice());
        assert_eq!(via_dense.touched_users(), via_sparse.touched_users());
        assert_eq!(via_dense.touched_items(), via_sparse.touched_items());
    }

    #[test]
    fn clear_retains_capacity_and_zeroes_slabs() {
        let mut g = ShardGrad::new(4);
        for id in 0..100u32 {
            g.user_row_mut(id * 31)[2] = 1.0;
        }
        let cap = g.rows_capacity();
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.rows_capacity(), cap, "clear must not release slabs");
        // Reused slabs start zeroed.
        assert_eq!(g.user_row_mut(3100), &[0.0; 4]);
    }

    #[test]
    fn capacity_tracks_batch_footprint_not_catalogue() {
        // A shard serving a catalogue of millions still only allocates
        // slabs for the rows it actually touched.
        let mut g = ShardGrad::new(64);
        for step in 0..10 {
            for row in 0..128u32 {
                // ids spread across a huge virtual catalogue
                let id = row * 1_000_003 + step;
                g.item_row_mut(id)[0] += 1.0;
                g.user_row_mut(row)[0] += 1.0;
            }
            g.clear();
        }
        assert!(
            g.rows_capacity() <= 2 * 128,
            "capacity {} exceeds the per-batch footprint",
            g.rows_capacity()
        );
    }

    #[test]
    fn many_colliding_keys_stay_correct_through_table_growth() {
        let mut g = ShardGrad::new(1);
        let n = 5_000u32;
        for id in 0..n {
            g.item_row_mut(id.wrapping_mul(2_654_435_761))[0] += 1.0;
        }
        assert_eq!(g.touched_items().len(), n as usize);
        for slot in 0..n as usize {
            assert_eq!(g.items.slab(slot), &[1.0]);
        }
    }
}
