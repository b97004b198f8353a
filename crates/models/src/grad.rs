//! Accumulator for gradients w.r.t. final embeddings.

use bsl_linalg::Matrix;

/// Dense per-node gradient buffer with touched-row bookkeeping.
///
/// The trainer accumulates `∂L/∂(final embedding)` rows for the users and
/// items a batch touches; [`GradBuffer::clear`] then zeroes *only* those
/// rows, keeping per-batch cost proportional to the batch, not the
/// catalogue. The touched lists hold first-touch order until
/// [`GradBuffer::order_touched`] sorts them by id, which the trainer does
/// before the optimizer walks them.
#[derive(Clone, Debug)]
pub struct GradBuffer {
    users: Matrix,
    items: Matrix,
    user_touched: Vec<bool>,
    item_touched: Vec<bool>,
    user_list: Vec<u32>,
    item_list: Vec<u32>,
}

impl GradBuffer {
    /// A zeroed buffer for `n_users`/`n_items` nodes of dimension `dim`.
    pub fn new(n_users: usize, n_items: usize, dim: usize) -> Self {
        Self {
            users: Matrix::zeros(n_users, dim),
            items: Matrix::zeros(n_items, dim),
            user_touched: vec![false; n_users],
            item_touched: vec![false; n_items],
            user_list: Vec::new(),
            item_list: Vec::new(),
        }
    }

    /// Gradient dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.users.cols()
    }

    /// Marks user `u` touched.
    #[inline]
    fn touch_user(&mut self, u: u32) {
        let ui = u as usize;
        if !self.user_touched[ui] {
            self.user_touched[ui] = true;
            self.user_list.push(u);
        }
    }

    /// Mutable gradient row of user `u`, marking it touched.
    #[inline]
    pub fn user_row_mut(&mut self, u: u32) -> &mut [f32] {
        self.touch_user(u);
        self.users.row_mut(u as usize)
    }

    /// Marks item `i` touched.
    #[inline]
    fn touch_item(&mut self, i: u32) {
        let ii = i as usize;
        if !self.item_touched[ii] {
            self.item_touched[ii] = true;
            self.item_list.push(i);
        }
    }

    /// Mutable gradient row of item `i`, marking it touched.
    #[inline]
    pub fn item_row_mut(&mut self, i: u32) -> &mut [f32] {
        self.touch_item(i);
        self.items.row_mut(i as usize)
    }

    /// The dense user-gradient matrix (zeros outside touched rows).
    #[inline]
    pub fn users(&self) -> &Matrix {
        &self.users
    }

    /// The dense item-gradient matrix (zeros outside touched rows).
    #[inline]
    pub fn items(&self) -> &Matrix {
        &self.items
    }

    /// Users with a non-trivially-zero gradient row (no duplicates).
    #[inline]
    pub fn touched_users(&self) -> &[u32] {
        &self.user_list
    }

    /// Items with a non-trivially-zero gradient row (no duplicates).
    #[inline]
    pub fn touched_items(&self) -> &[u32] {
        &self.item_list
    }

    /// Whether nothing has been accumulated since the last clear.
    pub fn is_empty(&self) -> bool {
        self.user_list.is_empty() && self.item_list.is_empty()
    }

    /// Adds every touched row of `other` into this buffer (marking the
    /// rows touched here too).
    ///
    /// This is the reduction step of the sharded trainer: each worker
    /// accumulates into a private buffer and the shards are merged in a
    /// fixed order, so results are exact up to f32 addition order and
    /// deterministic for a given shard count.
    ///
    /// # Panics
    /// Panics if the two buffers have different shapes.
    pub fn merge_from(&mut self, other: &GradBuffer) {
        assert_eq!(self.users.shape(), other.users.shape(), "user grad shapes differ");
        assert_eq!(self.items.shape(), other.items.shape(), "item grad shapes differ");
        for &u in other.touched_users() {
            let src = other.users.row(u as usize);
            for (dst, &s) in self.user_row_mut(u).iter_mut().zip(src.iter()) {
                *dst += s;
            }
        }
        for &i in other.touched_items() {
            let src = other.items.row(i as usize);
            for (dst, &s) in self.item_row_mut(i).iter_mut().zip(src.iter()) {
                *dst += s;
            }
        }
    }

    /// Puts the touched-row lists in ascending id order, so that whatever
    /// walks them next (the optimizer's row update, [`clear`](Self::clear))
    /// sweeps each table in memory order instead of first-touch order.
    /// Rebuilt from the touched flags into the lists' own capacity: no
    /// allocation, and no row or flag changes.
    pub fn order_touched(&mut self) {
        fn rebuild(touched: &[bool], list: &mut Vec<u32>) {
            list.clear();
            list.extend((0u32..).zip(touched).filter(|&(_, &t)| t).map(|(id, _)| id));
        }
        rebuild(&self.user_touched, &mut self.user_list);
        rebuild(&self.item_touched, &mut self.item_list);
    }

    /// Zeroes the touched rows and resets the bookkeeping.
    pub fn clear(&mut self) {
        for &u in &self.user_list {
            self.users.row_mut(u as usize).fill(0.0);
            self.user_touched[u as usize] = false;
        }
        for &i in &self.item_list {
            self.items.row_mut(i as usize).fill(0.0);
            self.item_touched[i as usize] = false;
        }
        self.user_list.clear();
        self.item_list.clear();
    }
}

/// Where the trainer's backward pass writes embedding-gradient rows.
///
/// The pass is written once against this trait and runs unchanged into
/// the dense [`GradBuffer`] (serial step) or a worker's batch-footprint
/// [`ShardGrad`](crate::ShardGrad) (pooled step). Asking for a row marks
/// it *touched*: the optimizer updates exactly the touched rows, so a
/// caller must not ask for a row it has nothing to add to.
///
/// A sink keeps its item rows in one flat row-major block, so a kernel can
/// scatter into many of them in one call: [`item_block_row`] touches an
/// item and says where its row sits, [`user_row_and_item_block`] lends the
/// block out next to the user row being accumulated.
///
/// [`item_block_row`]: GradSink::item_block_row
/// [`user_row_and_item_block`]: GradSink::user_row_and_item_block
pub trait GradSink {
    /// Mutable gradient row of user `u`, marking it touched.
    fn user_row_mut(&mut self, u: u32) -> &mut [f32];
    /// Mutable gradient row of item `i`, marking it touched.
    fn item_row_mut(&mut self, i: u32) -> &mut [f32];
    /// Marks item `i` touched and returns the index of its row in the item
    /// block. The index stays valid until the sink is cleared, even when a
    /// later touch grows the block.
    fn item_block_row(&mut self, i: u32) -> u32;
    /// The gradient row of user `u` (marked touched) and the flat item
    /// block that [`item_block_row`](GradSink::item_block_row) indexes.
    /// Rows of the block no touch has returned must be left alone.
    fn user_row_and_item_block(&mut self, u: u32) -> (&mut [f32], &mut [f32]);
}

impl GradSink for GradBuffer {
    #[inline]
    fn user_row_mut(&mut self, u: u32) -> &mut [f32] {
        GradBuffer::user_row_mut(self, u)
    }

    #[inline]
    fn item_row_mut(&mut self, i: u32) -> &mut [f32] {
        GradBuffer::item_row_mut(self, i)
    }

    /// The dense buffer's block is the item matrix: row = item id.
    #[inline]
    fn item_block_row(&mut self, i: u32) -> u32 {
        self.touch_item(i);
        i
    }

    #[inline]
    fn user_row_and_item_block(&mut self, u: u32) -> (&mut [f32], &mut [f32]) {
        self.touch_user(u);
        (self.users.row_mut(u as usize), self.items.as_mut_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_tracks_touched() {
        let mut g = GradBuffer::new(3, 4, 2);
        g.user_row_mut(1)[0] += 1.0;
        g.user_row_mut(1)[1] += 2.0;
        g.item_row_mut(3)[0] += -0.5;
        assert_eq!(g.touched_users(), &[1]);
        assert_eq!(g.touched_items(), &[3]);
        assert_eq!(g.users().row(1), &[1.0, 2.0]);
        assert_eq!(g.items().row(3), &[-0.5, 0.0]);
        assert!(!g.is_empty());
    }

    #[test]
    fn clear_zeroes_only_touched_rows() {
        let mut g = GradBuffer::new(2, 2, 2);
        g.user_row_mut(0)[0] = 5.0;
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.users().row(0), &[0.0, 0.0]);
        assert!(g.touched_users().is_empty());
        // Reuse after clear works.
        g.user_row_mut(0)[1] = 3.0;
        assert_eq!(g.users().row(0), &[0.0, 3.0]);
        assert_eq!(g.touched_users(), &[0]);
    }

    #[test]
    fn merge_from_adds_rows_and_marks_touched() {
        let mut a = GradBuffer::new(3, 3, 2);
        a.user_row_mut(0)[0] = 1.0;
        a.item_row_mut(2)[1] = 4.0;
        let mut b = GradBuffer::new(3, 3, 2);
        b.user_row_mut(0)[0] = 2.0; // overlaps a's touched row
        b.user_row_mut(1)[1] = 3.0; // new row
        b.item_row_mut(2)[1] = -1.0;
        a.merge_from(&b);
        assert_eq!(a.users().row(0), &[3.0, 0.0]);
        assert_eq!(a.users().row(1), &[0.0, 3.0]);
        assert_eq!(a.items().row(2), &[0.0, 3.0]);
        let mut tu = a.touched_users().to_vec();
        tu.sort_unstable();
        assert_eq!(tu, vec![0, 1]);
        // b is untouched by the merge.
        assert_eq!(b.users().row(0), &[2.0, 0.0]);
    }

    #[test]
    fn merge_order_of_disjoint_shards_is_exact() {
        // Shard buffers touching disjoint rows merge to the same result in
        // any order (the trainer still fixes the order for determinism).
        let mut main1 = GradBuffer::new(2, 1, 1);
        let mut main2 = GradBuffer::new(2, 1, 1);
        let mut s0 = GradBuffer::new(2, 1, 1);
        s0.user_row_mut(0)[0] = 0.25;
        let mut s1 = GradBuffer::new(2, 1, 1);
        s1.user_row_mut(1)[0] = 0.5;
        main1.merge_from(&s0);
        main1.merge_from(&s1);
        main2.merge_from(&s1);
        main2.merge_from(&s0);
        assert_eq!(main1.users().as_slice(), main2.users().as_slice());
    }

    #[test]
    fn order_touched_sorts_the_first_touch_lists_in_place() {
        let mut g = GradBuffer::new(40, 60, 2);
        for u in [31u32, 4, 17, 4, 0, 39] {
            g.user_row_mut(u)[0] += 1.0;
        }
        for i in [59u32, 2, 33, 2, 58, 7, 33] {
            g.item_row_mut(i)[1] -= 1.0;
        }
        let first_touch = (g.touched_users().to_vec(), g.touched_items().to_vec());
        assert_eq!(first_touch.0, [31, 4, 17, 0, 39]);
        let (user_cap, item_cap) = (g.user_list.capacity(), g.item_list.capacity());
        g.order_touched();
        for (ordered, first) in
            [(g.touched_users(), &first_touch.0), (g.touched_items(), &first_touch.1)]
        {
            assert!(ordered.windows(2).all(|w| w[0] < w[1]), "{ordered:?}: ascending, distinct");
            let mut want = first.clone();
            want.sort_unstable();
            assert_eq!(ordered, want, "the same set");
        }
        assert_eq!((g.user_list.capacity(), g.item_list.capacity()), (user_cap, item_cap));
        let once = (g.touched_users().to_vec(), g.touched_items().to_vec());
        g.order_touched();
        assert_eq!((g.touched_users().to_vec(), g.touched_items().to_vec()), once, "idempotent");
        // Ordering moves no row, and clear still zeroes exactly the touched
        // rows: the flags and the values agree afterwards.
        assert_eq!(g.users().row(4), &[2.0, 0.0]);
        assert_eq!(g.items().row(33), &[0.0, -2.0]);
        g.clear();
        assert!(g.is_empty());
        assert!(g.users().as_slice().iter().chain(g.items().as_slice()).all(|&x| x == 0.0));
        assert!(!g.user_touched.iter().chain(&g.item_touched).any(|&t| t));
        g.item_row_mut(33)[0] = 1.0;
        g.order_touched();
        assert_eq!(g.touched_items(), &[33]);
    }

    #[test]
    fn repeated_touch_registers_once() {
        let mut g = GradBuffer::new(2, 2, 1);
        g.user_row_mut(1)[0] += 1.0;
        g.user_row_mut(1)[0] += 1.0;
        assert_eq!(g.touched_users(), &[1]);
        assert_eq!(g.users().row(1), &[2.0]);
    }
}
