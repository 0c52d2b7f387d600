//! A fixed-horizon time queue (timing wheel) for pipeline events.
//!
//! The pipeline schedules every future state change — value wakeups, comm
//! arrivals, FU completions, load returns — a bounded number of cycles ahead
//! (the horizon is [`crate::config::EVENT_WHEEL`], validated against every
//! latency in `CoreConfig::validate`). That bound makes a circular buffer of
//! per-cycle buckets the right structure: O(1) insert, O(1) drain of the
//! current cycle, and — the reason this is its own module — an O(horizon)
//! *scan* for the next pending event, which is what lets the event-driven
//! run loop fast-forward over provably dead cycles.
//!
//! Invariant: events are always scheduled strictly in the future
//! (`delay > 0`). A same-cycle wakeup would be invisible to a tick that has
//! already drained its bucket, so `schedule` rejects it in debug builds.

/// Circular bucket array indexed by absolute cycle modulo the horizon.
#[derive(Debug)]
pub struct TimeQueue<E> {
    slots: Vec<Vec<E>>,
    /// `horizon - 1`: the horizon is a power of two, so a mask wraps.
    mask: usize,
    pending: usize,
}

impl<E> TimeQueue<E> {
    /// A queue able to hold events up to `horizon - 1` cycles ahead.
    /// `horizon` must be a power of two (at least 2).
    pub fn new(horizon: usize) -> Self {
        assert!(
            horizon >= 2 && horizon.is_power_of_two(),
            "time queue horizon must be a power of two >= 2, got {horizon}"
        );
        let mut slots = Vec::with_capacity(horizon);
        slots.resize_with(horizon, Vec::new);
        TimeQueue {
            slots,
            mask: horizon - 1,
            pending: 0,
        }
    }

    /// Maximum schedulable delay is `horizon() - 1`.
    pub fn horizon(&self) -> usize {
        self.slots.len()
    }

    /// Number of events currently scheduled.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedule `ev` to fire `delay` cycles after `now`.
    ///
    /// `delay` must be in `1..horizon`: zero-delay events would be missed by
    /// the current cycle's drain, and longer delays would alias onto an
    /// earlier bucket.
    pub fn schedule(&mut self, now: u64, delay: u64, ev: E) {
        debug_assert!(
            delay > 0 && (delay as usize) < self.horizon(),
            "event delay {} outside 1..{}",
            delay,
            self.horizon()
        );
        let slot = (now + delay) as usize & self.mask;
        self.slots[slot].push(ev);
        self.pending += 1;
    }

    /// Swap the bucket due at `now` into `buf` (which must be empty).
    ///
    /// The swap keeps both vectors' capacity alive, so a caller draining
    /// through a scratch buffer allocates nothing in steady state: the
    /// emptied scratch goes back in as the bucket.
    pub fn swap_due(&mut self, now: u64, buf: &mut Vec<E>) {
        debug_assert!(buf.is_empty(), "swap_due target must be empty");
        let slot = now as usize & self.mask;
        std::mem::swap(&mut self.slots[slot], buf);
        self.pending -= buf.len();
    }

    /// True when the bucket due at `now` holds events: O(1), where
    /// [`TimeQueue::next_due_offset`] scans.
    pub fn due(&self, now: u64) -> bool {
        !self.slots[now as usize & self.mask].is_empty()
    }

    /// Offset in cycles from `now` to the earliest pending event, or `None`
    /// when the queue is empty. `Some(0)` means the bucket due at `now`
    /// itself has not been drained yet.
    pub fn next_due_offset(&self, now: u64) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let base = now as usize & self.mask;
        // Slots `base..` are offsets `0..horizon - base`; `..base` wrap after.
        let (wrapped, ahead) = self.slots.split_at(base);
        ahead
            .iter()
            .chain(wrapped)
            .position(|slot| !slot.is_empty())
            .map(|d| d as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_drain_round_trip() {
        let mut q: TimeQueue<u32> = TimeQueue::new(8);
        assert!(q.is_empty());
        q.schedule(100, 1, 11);
        q.schedule(100, 3, 33);
        q.schedule(100, 3, 34);
        assert_eq!(q.len(), 3);

        let mut buf = Vec::new();
        q.swap_due(101, &mut buf);
        assert_eq!(buf, vec![11]);
        buf.clear();
        q.swap_due(102, &mut buf);
        assert!(buf.is_empty());
        q.swap_due(103, &mut buf);
        assert_eq!(buf, vec![33, 34]);
        assert!(q.is_empty());
    }

    #[test]
    fn next_due_offset_scans_forward() {
        let mut q: TimeQueue<&str> = TimeQueue::new(16);
        assert_eq!(q.next_due_offset(40), None);
        q.schedule(40, 5, "a");
        q.schedule(40, 9, "b");
        assert_eq!(q.next_due_offset(40), Some(5));
        assert_eq!(q.next_due_offset(43), Some(2));
        let mut buf = Vec::new();
        q.swap_due(45, &mut buf);
        assert_eq!(buf, vec!["a"]);
        assert_eq!(q.next_due_offset(45), Some(4));
    }

    #[test]
    fn offset_zero_means_undrained_current_bucket() {
        let mut q: TimeQueue<u8> = TimeQueue::new(4);
        q.schedule(7, 1, 1);
        assert_eq!(q.next_due_offset(8), Some(0));
    }

    #[test]
    fn due_agrees_with_offset_zero() {
        let mut q: TimeQueue<u8> = TimeQueue::new(8);
        q.schedule(10, 3, 1);
        q.schedule(10, 7, 2);
        for now in 10..30 {
            assert_eq!(q.due(now), q.next_due_offset(now) == Some(0), "now {now}");
        }
        let mut buf = Vec::new();
        q.swap_due(13, &mut buf);
        assert!(!q.due(13));
    }

    #[test]
    fn wraps_around_the_horizon() {
        let mut q: TimeQueue<u8> = TimeQueue::new(4);
        // now = 2, delay = 3 lands on slot (2 + 3) % 4 = 1.
        q.schedule(2, 3, 9);
        assert_eq!(q.next_due_offset(3), Some(2));
        let mut buf = Vec::new();
        q.swap_due(5, &mut buf);
        assert_eq!(buf, vec![9]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_horizon_is_rejected() {
        let _q: TimeQueue<u8> = TimeQueue::new(12);
    }

    #[test]
    #[should_panic(expected = "event delay")]
    #[cfg(debug_assertions)]
    fn zero_delay_is_rejected() {
        let mut q: TimeQueue<u8> = TimeQueue::new(4);
        q.schedule(0, 0, 1);
    }
}
