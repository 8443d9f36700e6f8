//! The pending-job store: per-color deadline queues plus a deadline index.
//!
//! All jobs are unit jobs, so pending jobs of one color are fully described
//! by a queue of `(deadline, count)` entries in ascending deadline order.
//! Arrivals for a fixed color carry nondecreasing deadlines (`round + D_ℓ`
//! with `round` increasing), so the queue stays sorted with `push_back`
//! plus tail merging.
//!
//! Every job has exactly one drop event, at its known deadline, so the
//! store files each non-idle color once in a deadline index, under its
//! earliest pending deadline. The drop phase touches only the colors
//! whose key has come due and costs O(due colors + stale repairs), not
//! O(colors ever seen) (DESIGN.md §8).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rrs_model::{ColorId, ColorMap, SnapError, SnapReader, SnapWriter};

/// A color's queue: ascending `(deadline, count)` entries, every count
/// positive.
type Lane = VecDeque<(u64, u64)>;

/// End of a bucket's color list, and the head of a free bucket.
const NIL: u32 = u32::MAX;

/// The [`DeadlineIndex::next`] slot of a color that is not filed — the
/// map's default. A filed color's slot holds its successor in the bucket
/// list plus one, or [`NIL`] at the end of the list (so color ids stay
/// below `NIL - 1`).
const UNFILED: u32 = 0;

/// The `next` slot of a filed color whose successor is `s`.
#[inline]
fn link(s: u32) -> u32 {
    if s == NIL {
        NIL
    } else {
        s + 1
    }
}

/// The successor a filed color's `next` slot names.
#[inline]
fn successor(slot: u32) -> u32 {
    debug_assert_ne!(slot, UNFILED, "walked into an unfiled color");
    if slot == NIL {
        NIL
    } else {
        slot - 1
    }
}

/// A bucket of the deadline index: the colors filed under one key, as an
/// intrusive singly linked list through [`DeadlineIndex::next`]. A bucket
/// whose `head` is [`NIL`] is free.
#[derive(Clone, Debug)]
struct Bucket {
    key: u64,
    head: u32,
}

/// The deadline index: every nonempty queue's color filed once, in a
/// bucket keyed by a deadline at most the queue's front deadline. A color
/// whose queue an execution emptied may stay filed until its key comes
/// due; a color is filed again only after it has been unfiled.
///
/// Colors falling due together share a bucket — at a block boundary,
/// every color of one bound — so the drop phase walks a short list per
/// due deadline instead of popping colors one by one, and ordering costs
/// one heap operation per distinct deadline. A direct-mapped table from
/// deadline to bucket finds the bucket for a new entry; it is sized to
/// twice the live buckets and only accelerates the lookup (a miss opens
/// a second bucket under the same key, which is harmless). Every vector
/// here only grows to its high-water mark, so a steady round allocates
/// nothing.
#[derive(Clone, Debug, Default)]
struct DeadlineIndex {
    /// Per color: [`UNFILED`], or the link to the next color in its
    /// bucket.
    next: ColorMap<u32>,
    buckets: Vec<Bucket>,
    /// Ids of free buckets.
    free: Vec<u32>,
    /// `(key, bucket id)` of every live bucket, smallest key first.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// `key mod len` → id of the bucket last opened under that slot.
    table: Vec<u32>,
}

impl DeadlineIndex {
    /// Whether color `c` is filed.
    #[inline]
    fn is_filed(&self, c: ColorId) -> bool {
        self.next.value(c) != UNFILED
    }

    /// File the unfiled color `c` under `key`.
    fn insert(&mut self, c: ColorId, key: u64) {
        debug_assert!(c.0 < NIL - 1 && !self.is_filed(c));
        let mask = self.table.len().wrapping_sub(1);
        let slot = (key as usize) & mask;
        if let Some(bucket) = self.table.get(slot).and_then(|&b| self.buckets.get_mut(b as usize)) {
            if bucket.head != NIL && bucket.key == key {
                *self.next.entry(c) = link(bucket.head);
                bucket.head = c.0;
                return;
            }
        }
        let b = match self.free.pop() {
            Some(b) => {
                self.buckets[b as usize] = Bucket { key, head: c.0 };
                b
            }
            None => {
                self.buckets.push(Bucket { key, head: c.0 });
                (self.buckets.len() - 1) as u32
            }
        };
        *self.next.entry(c) = NIL;
        self.heap.push(Reverse((key, b)));
        let live = self.buckets.len() - self.free.len();
        if 2 * live > self.table.len() {
            self.table = vec![NIL; (2 * live).next_power_of_two()];
            let mask = self.table.len() - 1;
            for (id, bucket) in self.buckets.iter().enumerate() {
                if bucket.head != NIL {
                    self.table[(bucket.key as usize) & mask] = id as u32;
                }
            }
        } else {
            self.table[slot] = b;
        }
    }

    /// Unfile every color filed under a key `<= round`, appending it to
    /// `due`, and free their buckets.
    fn take_due(&mut self, round: u64, due: &mut Vec<u32>) {
        while let Some(&Reverse((key, b))) = self.heap.peek() {
            if key > round {
                break;
            }
            self.heap.pop();
            let mut c = std::mem::replace(&mut self.buckets[b as usize].head, NIL);
            while c != NIL {
                due.push(c);
                c = successor(std::mem::replace(&mut self.next[ColorId(c)], UNFILED));
            }
            self.free.push(b);
        }
    }

    /// The smallest key and the first color filed under it.
    fn first(&self) -> Option<(u64, ColorId)> {
        self.heap.peek().map(|&Reverse((key, b))| (key, ColorId(self.buckets[b as usize].head)))
    }

    /// Unfile the color [`DeadlineIndex::first`] returned.
    fn unlink_first(&mut self) {
        let Some(&Reverse((_, b))) = self.heap.peek() else { return };
        let bucket = &mut self.buckets[b as usize];
        bucket.head = successor(std::mem::replace(&mut self.next[ColorId(bucket.head)], UNFILED));
        if bucket.head == NIL {
            self.heap.pop();
            self.free.push(b);
        }
    }
}

/// Pending unit jobs, bucketed by color and deadline.
///
/// The per-color queues live in a dense [`ColorMap`], so lookups are flat
/// indexing. The deadline index files the color of every nonempty queue
/// once, under a key at most the queue's front deadline; an execution can
/// raise the front past the key, and such stale entries are re-filed when
/// their key comes due. The store allocates only when the color universe,
/// a queue's high-water mark or the index's high-water mark grows — never
/// in a steady-state round.
///
/// Equality is logical: two stores with the same coverage, queues, total
/// and `min_due` are equal whatever their index entries or work counters.
#[derive(Clone, Debug)]
pub struct PendingStore {
    queues: ColorMap<Lane>,
    index: DeadlineIndex,
    /// Drop-phase scratch: the due colors, sorted into ascending order.
    due: Vec<u32>,
    total: u64,
    /// Lower bound on the earliest pending deadline; exact after every
    /// drop phase that is not skipped (it is snapshot state).
    min_due: u64,
    /// Index entries [`PendingStore::drop_due`] has inspected, cumulative
    /// (`obs::names::PENDING_DROP_VISITS`).
    drop_visits: u64,
}

impl Default for PendingStore {
    fn default() -> Self {
        PendingStore {
            queues: ColorMap::new(),
            index: DeadlineIndex::default(),
            due: Vec::new(),
            total: 0,
            min_due: u64::MAX,
            drop_visits: 0,
        }
    }
}

impl PartialEq for PendingStore {
    fn eq(&self, other: &Self) -> bool {
        self.queues == other.queues && self.total == other.total && self.min_due == other.min_due
    }
}

impl Eq for PendingStore {}

impl PendingStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the store to know about colors `0..n`.
    pub fn ensure_colors(&mut self, n: usize) {
        self.queues.grow_to(n);
    }

    /// Number of colors the store knows about.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.queues.len()
    }

    /// Live pages across the store's paged per-color maps, the queues
    /// and the index links — sparse-state telemetry (DESIGN.md §14).
    pub fn live_pages(&self) -> usize {
        self.queues.live_pages() + self.index.next.live_pages()
    }

    /// Index entries [`PendingStore::drop_due`] has inspected so far:
    /// colors filed under a due key plus stale entries it repaired. A
    /// deterministic work counter (`pending_drop_visits`, DESIGN.md §13);
    /// not part of snapshots or equality.
    #[inline]
    pub fn drop_visits(&self) -> u64 {
        self.drop_visits
    }

    /// The nonempty queues, in ascending color order.
    fn lanes(&self) -> impl Iterator<Item = (ColorId, &Lane)> + '_ {
        self.queues.iter().filter(|(_, q)| !q.is_empty())
    }

    /// Add `count` pending jobs of `color` with the given deadline.
    ///
    /// Arrivals of one color must carry nondecreasing deadlines over the
    /// store's life (they are fed in round order), so a color still filed
    /// under a stale key needs no new entry.
    ///
    /// # Panics
    /// Panics (debug) if the deadline is below the color's latest pending
    /// deadline.
    pub fn arrive(&mut self, color: ColorId, deadline: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.ensure_colors(color.index() + 1);
        let q = &mut self.queues[color];
        match q.back_mut() {
            Some((d, n)) if *d == deadline => *n += count,
            Some((d, _)) => {
                debug_assert!(*d < deadline, "arrivals must have nondecreasing deadlines");
                q.push_back((deadline, count));
            }
            None => {
                // A lane's first allocation holds exactly one entry: most
                // lanes never hold more (VecDeque's own minimum is four).
                q.reserve_exact(1);
                q.push_back((deadline, count));
                if !self.index.is_filed(color) {
                    self.index.insert(color, deadline);
                }
            }
        }
        self.total += count;
        self.min_due = self.min_due.min(deadline);
    }

    /// Drop every job with deadline `<= round` (the drop phase of `round`
    /// only ever sees deadlines `== round` when fed in order, but `<=` makes
    /// the store robust to sparse use). Appends `(color, dropped)` pairs to
    /// `out` in ascending color order and returns the total dropped.
    ///
    /// Visits only the colors filed under a key `<= round`, in ascending
    /// color order, then repairs stale entries under the smallest key until
    /// that key is a real front deadline, which becomes the exact new
    /// `min_due`.
    pub fn drop_due(&mut self, round: u64, out: &mut Vec<(ColorId, u64)>) -> u64 {
        // `min_due` is a lower bound on every index key, so most rounds
        // skip the index entirely.
        if round < self.min_due {
            return 0;
        }
        self.due.clear();
        self.index.take_due(round, &mut self.due);
        self.drop_visits += self.due.len() as u64;
        // A bucket lists its colors in reverse filing order, mostly
        // descending ids, so this sort is close to linear.
        self.due.sort_unstable();
        let mut total = 0;
        for &c in &self.due {
            let c = ColorId(c);
            let q = &mut self.queues[c];
            let mut dropped = 0;
            while let Some(&(d, n)) = q.front() {
                if d > round {
                    break;
                }
                dropped += n;
                q.pop_front();
            }
            if dropped > 0 {
                total += dropped;
                out.push((c, dropped));
            }
            if let Some(&(front, _)) = q.front() {
                self.index.insert(c, front);
            }
        }
        self.total -= total;
        // Repair stale entries until the smallest key is a real front
        // deadline: that is the exact new `min_due`.
        self.min_due = loop {
            let Some((key, c)) = self.index.first() else { break u64::MAX };
            let front = self.queues[c].front().map(|&(d, _)| d);
            if front == Some(key) {
                break key;
            }
            self.drop_visits += 1;
            self.index.unlink_first();
            if let Some(front) = front {
                self.index.insert(c, front);
            }
        };
        total
    }

    /// Execute up to `slots` earliest-deadline pending jobs of `color`;
    /// returns how many were executed. An emptied queue's color stays
    /// filed until its key comes due.
    pub fn execute(&mut self, color: ColorId, slots: u64) -> u64 {
        let Some(q) = self.queues.get_mut(color) else {
            return 0;
        };
        let mut remaining = slots;
        while remaining > 0 {
            let Some((_, n)) = q.front_mut() else { break };
            let take = (*n).min(remaining);
            *n -= take;
            remaining -= take;
            if *n == 0 {
                q.pop_front();
            }
        }
        let executed = slots - remaining;
        self.total -= executed;
        executed
    }

    /// Number of pending jobs of `color` (a sum over its queue, which
    /// holds one entry per distinct pending deadline).
    #[inline]
    pub fn count(&self, color: ColorId) -> u64 {
        self.queues.get(color).map_or(0, |q| q.iter().map(|&(_, n)| n).sum())
    }

    /// Whether `color` has no pending jobs (the paper's *idle*).
    #[inline]
    pub fn is_idle(&self, color: ColorId) -> bool {
        self.queues.get(color).is_none_or(VecDeque::is_empty)
    }

    /// Earliest deadline among pending jobs of `color`.
    #[inline]
    pub fn earliest_deadline(&self, color: ColorId) -> Option<u64> {
        self.queues.get(color).and_then(|q| q.front().map(|&(d, _)| d))
    }

    /// Total pending jobs over all colors.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Colors with at least one pending job, in consistent order.
    pub fn nonidle_colors(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.lanes().map(|(c, _)| c)
    }

    /// The deadline profile of a color (ascending `(deadline, count)`),
    /// used by the exact offline solver to canonicalize states.
    pub fn profile(&self, color: ColorId) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.queues.get(color).into_iter().flatten().copied()
    }

    /// Serialize the store into a snapshot writer (DESIGN.md §10).
    ///
    /// v2 layout: coverage (color-universe size), the number of non-idle
    /// colors, then per such color in ascending id order its id, queue
    /// length, and `(deadline, count)` pairs, then the `min_due` bound.
    /// Idle colors cost nothing on the wire — a sparse store over a huge
    /// universe snapshots in O(pending colors). The index and `total` are
    /// derived on load, so they cannot drift from the queues. (v1 wrote
    /// one queue per covered color; see `load_state`.)
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.queues.len() as u64);
        w.put_u64(self.lanes().count() as u64);
        for (c, q) in self.lanes() {
            w.put_u32(c.0);
            w.put_u64(q.len() as u64);
            for &(deadline, count) in q {
                w.put_u64(deadline);
                w.put_u64(count);
            }
        }
        w.put_u64(self.min_due);
    }

    /// Decode a store previously written by [`PendingStore::save_state`]
    /// (v2 sparse layout, or the dense v1 layout when the reader comes
    /// from a v1 snapshot).
    ///
    /// Validates structural invariants (strictly ascending deadlines per
    /// color, nonzero counts, a `min_due` that really bounds every pending
    /// deadline) so a corrupted-but-CRC-valid snapshot cannot smuggle in an
    /// impossible state.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n_colors = r.get_u64("pending color count")?;
        let n_colors = usize::try_from(n_colors)
            .map_err(|_| SnapError::Invalid(format!("pending color count {n_colors} too large")))?;
        let mut store = PendingStore::new();
        store.ensure_colors(n_colors);
        let mut total = 0u64;
        let mut true_min = u64::MAX;
        let v1 = r.version() < 2;
        let n_entries = if v1 {
            n_colors
        } else {
            let n = r.get_u64("pending nonempty count")?;
            usize::try_from(n).ok().filter(|&n| n <= n_colors).ok_or_else(|| {
                SnapError::Invalid(format!("pending nonempty count {n} too large"))
            })?
        };
        let mut prev_color: Option<u32> = None;
        for i in 0..n_entries {
            let color = if v1 {
                ColorId(i as u32)
            } else {
                let id = r.get_u32("pending color id")?;
                if (id as usize) >= n_colors {
                    return Err(SnapError::Invalid(format!(
                        "pending color id {id} beyond coverage {n_colors}"
                    )));
                }
                if let Some(p) = prev_color {
                    if id <= p {
                        return Err(SnapError::Invalid(format!(
                            "pending color ids not strictly ascending ({p} then {id})"
                        )));
                    }
                }
                prev_color = Some(id);
                ColorId(id)
            };
            let q_len = r.get_u64("pending queue length")?;
            if !v1 && q_len == 0 {
                return Err(SnapError::Invalid(format!(
                    "pending color {} listed with an empty queue",
                    color.0
                )));
            }
            let mut count_for_color = 0u64;
            let mut first_deadline: Option<u64> = None;
            let mut last_deadline: Option<u64> = None;
            for _ in 0..q_len {
                let deadline = r.get_u64("pending deadline")?;
                let count = r.get_u64("pending count")?;
                if count == 0 {
                    return Err(SnapError::Invalid(format!(
                        "pending queue for color {} has a zero-count entry",
                        color.0
                    )));
                }
                if let Some(prev) = last_deadline {
                    if deadline <= prev {
                        return Err(SnapError::Invalid(format!(
                            "pending queue for color {} has non-ascending deadlines \
                             ({prev} then {deadline})",
                            color.0
                        )));
                    }
                }
                first_deadline.get_or_insert(deadline);
                last_deadline = Some(deadline);
                store.queues.entry(color).push_back((deadline, count));
                count_for_color += count;
            }
            if let Some(front) = first_deadline {
                true_min = true_min.min(front);
                store.index.insert(color, front);
                total += count_for_color;
            }
        }
        store.total = total;
        store.min_due = r.get_u64("pending min_due")?;
        if store.min_due > true_min {
            return Err(SnapError::Invalid(format!(
                "pending min_due {} is above an actual pending deadline {}",
                store.min_due, true_min
            )));
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ColorId = ColorId(0);
    const B: ColorId = ColorId(1);

    #[test]
    fn arrive_merges_same_deadline() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        p.arrive(A, 4, 3);
        assert_eq!(p.count(A), 5);
        assert_eq!(p.profile(A).collect::<Vec<_>>(), vec![(4, 5)]);
    }

    #[test]
    fn execute_takes_earliest_deadlines_first() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        p.arrive(A, 8, 2);
        assert_eq!(p.execute(A, 3), 3);
        assert_eq!(p.profile(A).collect::<Vec<_>>(), vec![(8, 1)]);
        assert_eq!(p.count(A), 1);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn execute_caps_at_pending() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 1);
        assert_eq!(p.execute(A, 10), 1);
        assert_eq!(p.execute(A, 10), 0);
        assert!(p.is_idle(A));
    }

    #[test]
    fn execute_unknown_color_is_zero() {
        let mut p = PendingStore::new();
        assert_eq!(p.execute(ColorId(9), 3), 0);
    }

    #[test]
    fn drop_due_removes_expired_only() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        p.arrive(A, 6, 1);
        p.arrive(B, 4, 5);
        let mut out = Vec::new();
        let dropped = p.drop_due(4, &mut out);
        assert_eq!(dropped, 7);
        assert_eq!(out, vec![(A, 2), (B, 5)]);
        assert_eq!(p.count(A), 1);
        assert_eq!(p.count(B), 0);
        assert_eq!(p.total(), 1);
    }

    #[test]
    fn drop_due_before_deadline_is_noop() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        let mut out = Vec::new();
        assert_eq!(p.drop_due(3, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn earliest_deadline_tracks_front() {
        let mut p = PendingStore::new();
        assert_eq!(p.earliest_deadline(A), None);
        p.arrive(A, 4, 1);
        p.arrive(A, 8, 1);
        assert_eq!(p.earliest_deadline(A), Some(4));
        p.execute(A, 1);
        assert_eq!(p.earliest_deadline(A), Some(8));
    }

    #[test]
    fn nonidle_iteration_in_color_order() {
        let mut p = PendingStore::new();
        p.arrive(B, 4, 1);
        p.arrive(ColorId(3), 4, 1);
        let v: Vec<_> = p.nonidle_colors().collect();
        assert_eq!(v, vec![B, ColorId(3)]);
    }

    #[test]
    fn zero_count_arrival_ignored() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 0);
        assert_eq!(p.total(), 0);
        assert_eq!(p.num_colors(), 0);
    }

    #[test]
    fn emptied_queue_stays_filed_once() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 2);
        assert_eq!(p.execute(A, 5), 2);
        assert!(p.is_idle(A));
        assert_eq!(p.count(A), 0);
        assert_eq!(p.earliest_deadline(A), None);
        assert_eq!(p.nonidle_colors().count(), 0);
        p.arrive(A, 8, 3);
        assert_eq!(p.index.first(), Some((4, A)), "still filed once, under the stale key");
        assert_eq!(p.index.heap.len(), 1);
        assert_eq!(p.profile(A).collect::<Vec<_>>(), vec![(8, 3)]);
        // The stale key 4 is repaired at round 4, nothing dropped.
        let mut out = Vec::new();
        assert_eq!(p.drop_due(4, &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(p.index.first(), Some((8, A)));
        assert_eq!(p.drop_due(8, &mut out), 3);
        assert_eq!(out, vec![(A, 3)]);
        assert!(p.index.heap.is_empty());
        assert!(!p.index.is_filed(A), "dropped and idle: unfiled");
        // An idle, unfiled color is filed again by its next arrival.
        p.arrive(A, 12, 1);
        assert_eq!(p.index.first(), Some((12, A)));
    }

    #[test]
    fn drop_due_visits_only_due_colors() {
        let mut p = PendingStore::new();
        for c in 0..1000u32 {
            p.arrive(ColorId(c), 10 + u64::from(c % 100), 1);
        }
        let mut out = Vec::new();
        assert_eq!(p.drop_due(9, &mut out), 0);
        assert_eq!(p.drop_visits(), 0, "nothing due: the index is not touched");
        assert_eq!(p.drop_due(10, &mut out), 10);
        assert_eq!(p.drop_visits(), 10, "ten colors due, ten visits");
        assert_eq!(out, (0..10).map(|i| (ColorId(i * 100), 1)).collect::<Vec<_>>());
    }

    #[test]
    fn equality_ignores_stale_index_entries() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 1);
        p.arrive(A, 8, 1);
        p.arrive(B, 6, 1);
        p.execute(A, 1); // A's index key 4 is now stale
        let q = round_trip(&p); // fresh index, same queues and min_due
        assert_eq!(q.index.first(), Some((6, B)));
        assert_eq!(p.index.first(), Some((4, A)));
        assert_eq!(p, q);
    }

    fn round_trip(p: &PendingStore) -> PendingStore {
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let restored = PendingStore::load_state(&mut r).unwrap();
        r.expect_end("pending").unwrap();
        restored
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let mut p = PendingStore::new();
        p.ensure_colors(4);
        p.arrive(A, 4, 2);
        p.arrive(A, 9, 1);
        p.arrive(ColorId(3), 5, 7);
        let q = round_trip(&p);
        assert_eq!(q.total(), p.total());
        for c in [A, B, ColorId(2), ColorId(3)] {
            assert_eq!(q.count(c), p.count(c));
            assert_eq!(q.profile(c).collect::<Vec<_>>(), p.profile(c).collect::<Vec<_>>());
            assert_eq!(q.earliest_deadline(c), p.earliest_deadline(c));
        }
        assert_eq!(q.num_colors(), p.num_colors());
        // The restored min_due bound must behave identically: dropping at a
        // round below every deadline is still a fast-path no-op.
        let mut out = Vec::new();
        let mut q2 = q.clone();
        assert_eq!(q2.drop_due(3, &mut out), 0);
        assert_eq!(q2.drop_due(4, &mut out), 2);
    }

    #[test]
    fn snapshot_round_trip_after_partial_execution() {
        let mut p = PendingStore::new();
        p.arrive(A, 4, 3);
        p.arrive(A, 7, 2);
        p.arrive(B, 6, 1);
        p.execute(A, 3); // clears the deadline-4 bucket; min_due stays a lower bound
        let q = round_trip(&p);
        assert_eq!(q.profile(A).collect::<Vec<_>>(), vec![(7, 2)]);
        assert_eq!(q.total(), 3);
    }

    #[test]
    fn snapshot_rejects_non_ascending_deadlines() {
        let mut w = SnapWriter::new();
        w.put_u64(1); // coverage: one color
        w.put_u64(1); // one nonempty queue
        w.put_u32(0); // ... for color 0
        w.put_u64(2); // two queue entries
        w.put_u64(9);
        w.put_u64(1);
        w.put_u64(4); // deadline goes backwards
        w.put_u64(1);
        w.put_u64(4); // min_due
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn snapshot_rejects_zero_count_entry() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(1);
        w.put_u32(0);
        w.put_u64(1);
        w.put_u64(5);
        w.put_u64(0); // zero jobs in a bucket is impossible
        w.put_u64(5);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn snapshot_rejects_min_due_above_a_deadline() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(1);
        w.put_u32(0);
        w.put_u64(1);
        w.put_u64(5);
        w.put_u64(2);
        w.put_u64(9); // claims nothing is due before round 9, but a job dies at 5
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn snapshot_rejects_out_of_range_or_unsorted_color_ids() {
        // Color id beyond the declared coverage.
        let mut w = SnapWriter::new();
        w.put_u64(1); // coverage 1
        w.put_u64(1);
        w.put_u32(5); // but color 5 listed
        w.put_u64(1);
        w.put_u64(4);
        w.put_u64(1);
        w.put_u64(4);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));

        // Descending color ids.
        let mut w = SnapWriter::new();
        w.put_u64(4);
        w.put_u64(2);
        for c in [3u32, 1] {
            w.put_u32(c);
            w.put_u64(1);
            w.put_u64(4);
            w.put_u64(1);
        }
        w.put_u64(4);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert!(matches!(PendingStore::load_state(&mut r), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn v1_dense_layout_still_loads() {
        // A v1 snapshot wrote one queue per covered color, empty queues
        // included, with no color ids on the wire. Re-seal the writer's
        // header at version 1 and check the dense decode path.
        let mut w = SnapWriter::new();
        w.put_u64(3); // three covered colors ...
        w.put_u64(0); // color 0: idle
        w.put_u64(2); // color 1: two buckets
        w.put_u64(4);
        w.put_u64(2);
        w.put_u64(9);
        w.put_u64(1);
        w.put_u64(0); // color 2: idle
        w.put_u64(4); // min_due
        let mut bytes = w.finish();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let len = bytes.len();
        let crc = rrs_model::crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());

        let mut r = SnapReader::new(&bytes).unwrap();
        let p = PendingStore::load_state(&mut r).unwrap();
        r.expect_end("pending v1").unwrap();
        assert_eq!(p.num_colors(), 3);
        assert_eq!(p.total(), 3);
        assert_eq!(p.profile(B).collect::<Vec<_>>(), vec![(4, 2), (9, 1)]);
        assert!(p.is_idle(A));

        // And the sparse re-encode round-trips to the same logical store.
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes2 = w.finish();
        let mut r2 = SnapReader::new(&bytes2).unwrap();
        let q = PendingStore::load_state(&mut r2).unwrap();
        assert_eq!(q, p);
    }
}
