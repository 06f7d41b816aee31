//! Discrete-event scheduling: time-ordered queues, clock trees, and
//! the superposition scheduler.
//!
//! The asynchronous protocol of the paper is driven by `n` independent
//! rate-1 Poisson clocks. [`EventQueue`] provides the classic
//! next-event-time simulation loop over a changing set of events;
//! [`ClockTree`] keeps a fixed population of clocks, each with one
//! pending time, in the same order; [`Superposition`] collapses a
//! population of competing exponential clocks into one total-rate clock
//! plus a thinned categorical draw, so the engines keep O(1) pending
//! events instead of one per edge. Every dynamic engine draws its
//! stochastic topology events through [`Superposition`]; the stream it
//! produces is tagged [`RNG_CONTRACT`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::hint::select_unpredictable;

use crate::rng::Xoshiro256PlusPlus;

/// Tag of the engines' random-number consumption contract.
///
/// Every simulation consumes one seeded RNG stream, and the *order* of
/// draws is part of the reproducibility contract: replay goldens,
/// committed `.spec` artifacts, and recorded traces all pin exact
/// streams. The current stream draws topology events through the
/// [`Superposition`] scheduler (one `Exp(total_rate)` arrival thinned
/// to a channel at pop time) over order-relaxed adjacency rows. Specs
/// record it as `rng_contract = v2`. A change that moves the stream
/// must change this tag, and only such a change may regenerate the
/// committed goldens. The earlier `v1` stream (an eager per-edge
/// event queue over sorted rows) is retired; specs naming it are
/// rejected.
pub const RNG_CONTRACT: &str = "v2";

/// A finite simulation timestamp with a total order.
///
/// Wrapping `f64` lets events live in a `BinaryHeap` without resorting to
/// unsafe `Ord` shims. Construction rejects every non-finite value: NaN
/// would break the order, and `±INFINITY` — which the engines use as
/// *sentinels* ("never informed", "no pending arrival") — must never be
/// scheduled as an actual event. Topology-trace cursors ("no next
/// step") and `informed_time` vectors both traffic in `f64::INFINITY`,
/// so accepting it here would let a sentinel silently enter an event
/// queue and stall the stream; the contract is: **an event either has a
/// finite time or is not scheduled at all** (topology models guard zero
/// rates and infinite periods/delays by reporting `INFINITY` as their
/// next due time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeKey(f64);

impl TimeKey {
    /// Wraps a timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN or infinite.
    pub fn new(t: f64) -> Self {
        assert!(t.is_finite(), "event time must be finite, got {t}");
        Self(t)
    }

    /// Returns the wrapped time.
    pub fn get(&self) -> f64 {
        self.0
    }
}

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: non-finite values are rejected at construction.
        self.0.partial_cmp(&other.0).expect("TimeKey is always finite")
    }
}

#[derive(Debug)]
struct Entry<T> {
    time: TimeKey,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops
        // first, breaking time ties by insertion order (deterministic).
        // The (time, seq) order is strict — no two entries compare
        // equal — so the pop sequence is independent of heap layout.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timed events.
///
/// Ties in time are broken by insertion order, so a simulation driven by a
/// seeded RNG replays identically.
///
/// # Example
///
/// ```
/// use rumor_sim::events::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(2.0, "later");
/// q.push(1.0, "sooner");
/// assert_eq!(q.pop(), Some((1.0, "sooner")));
/// assert_eq!(q.pop(), Some((2.0, "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(capacity), next_seq: 0 }
    }

    /// Schedules `payload` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not finite — an event at `INFINITY` means
    /// "never" and must not be scheduled (see [`TimeKey`]).
    pub fn push(&mut self, t: f64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time: TimeKey::new(t), seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time.get(), e.payload))
    }

    /// Returns the time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time.get())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed population of clocks, each with exactly one pending time:
/// the earliest is read in O(1) and rescheduled in O(log n).
///
/// The order is [`EventQueue`]'s. Times compare as [`TimeKey`]s, so
/// `-0.0 == +0.0`, and ties go to push order, where clock `i`'s first
/// time is push `i` and every reschedule is the next push. A
/// `ClockTree` therefore yields exactly the sequence an `EventQueue`
/// yields when each popped clock is pushed straight back, and
/// [`min`](Self::min) returns every time exactly as it was pushed.
///
/// Internally it is a loser tree: every internal node keeps the loser
/// of its match, so rescheduling the winner replays the one path from
/// its leaf to the root. A key is one 128-bit integer: an
/// order-preserving image of the time, then the push sequence number,
/// then the clock. A match is one integer compare, and winner and loser
/// move without branches.
///
/// # Example
///
/// ```
/// use rumor_sim::events::ClockTree;
/// let mut clocks = ClockTree::new(vec![2.0, 1.0, 3.0]);
/// assert_eq!(clocks.min(), (1.0, 1));
/// clocks.reschedule_min(4.0);
/// assert_eq!(clocks.min(), (2.0, 0));
/// // A tie with clock 2, whose time was pushed first.
/// clocks.reschedule_min(3.0);
/// assert_eq!(clocks.min(), (3.0, 2));
/// ```
#[derive(Debug)]
pub struct ClockTree {
    /// `keys[0]` is the overall winner. For `k` in `1..n`, `keys[k]` is
    /// the loser of the match at internal node `k`, whose children are
    /// nodes `2k` and `2k + 1`; node `n + i` is clock `i`'s leaf.
    keys: Vec<Key>,
    /// Each clock's pending time, exactly as pushed.
    times: Vec<f64>,
    /// Low bits of a key's second word that hold the clock index.
    clock_bits: u32,
    /// Sequence number of the next push.
    next_seq: u64,
}

/// A [`ClockTree`] key as its high and low words: the time's image, then
/// `(seq << clock_bits) | clock`. Keys compare as one `u128`, but move
/// as two `u64`s: x86-64 code generation turns a select of a `u128`
/// into branches, and a select of a `u64` into a conditional move.
type Key = [u64; 2];

impl ClockTree {
    /// Starts one clock per time: clock `i` is pending at `times[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty, holds more than 2^32 clocks, or
    /// holds a time that is not finite (see [`TimeKey`]).
    pub fn new(times: Vec<f64>) -> Self {
        let n = times.len();
        assert!(n > 0, "a clock tree needs at least one clock");
        assert!(n - 1 <= u32::MAX as usize, "a clock tree holds at most 2^32 clocks");
        let clock_bits = usize::BITS - (n - 1).leading_zeros();
        let mut tree = Self { keys: Vec::new(), times, clock_bits, next_seq: n as u64 };
        // Play every match bottom-up. `winners[k]` is the winner at
        // internal node `k`; the winner at node 1 (or the one leaf of a
        // single clock) wins overall. Arrays of two words order as the
        // `u128` they stand for.
        let node = |winners: &[Key], j: usize| match j.checked_sub(n) {
            Some(i) => tree.key(tree.times[i], i as u64, i),
            None => winners[j],
        };
        let mut winners = vec![[0; 2]; n];
        let mut keys = vec![[0; 2]; n];
        for k in (1..n).rev() {
            let (a, b) = (node(&winners, 2 * k), node(&winners, 2 * k + 1));
            winners[k] = a.min(b);
            keys[k] = a.max(b);
        }
        keys[0] = node(&winners, 1);
        tree.keys = keys;
        tree
    }

    /// The earliest pending time and its clock.
    pub fn min(&self) -> (f64, usize) {
        let clock = self.clock_of(self.keys[0][1]);
        (self.times[clock], clock)
    }

    /// Moves the earliest clock, the one [`min`](Self::min) returns, to
    /// time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not finite (see [`TimeKey`]).
    pub fn reschedule_min(&mut self, t: f64) {
        let clock = self.clock_of(self.keys[0][1]);
        if self.next_seq > u64::MAX >> self.clock_bits {
            self.renumber();
        }
        let [mut high, mut low] = self.key(t, self.next_seq, clock);
        self.next_seq += 1;
        self.times[clock] = t;
        let mut k = (self.times.len() + clock) >> 1;
        while k > 0 {
            // Each match is a coin flip to a branch predictor, so pick
            // the loser and the winner with selects instead of a jump.
            let [loser_high, loser_low] = self.keys[k];
            let swap = wide([loser_high, loser_low]) < wide([high, low]);
            self.keys[k] = [
                select_unpredictable(swap, high, loser_high),
                select_unpredictable(swap, low, loser_low),
            ];
            high = select_unpredictable(swap, loser_high, high);
            low = select_unpredictable(swap, loser_low, low);
            k >>= 1;
        }
        self.keys[0] = [high, low];
    }

    /// The key of clock `clock` pending at `t` as push `seq`.
    #[inline]
    fn key(&self, t: f64, seq: u64, clock: usize) -> Key {
        // `t + 0.0` turns `-0.0` into `+0.0`. Then flipping every bit
        // of a negative time, and only the sign bit of any other, makes
        // unsigned order match numeric order.
        let bits = (TimeKey::new(t).get() + 0.0).to_bits();
        let image = bits ^ (((bits as i64 >> 63) as u64) | (1 << 63));
        [image, (seq << self.clock_bits) | clock as u64]
    }

    #[inline]
    fn clock_of(&self, low: u64) -> usize {
        (low & ((1 << self.clock_bits) - 1)) as usize
    }

    /// Gives the pending pushes the sequence numbers `0..n` in their
    /// current order, once the next one no longer fits beside the clock
    /// index. Every key keeps its rank, so the tree stays as it is.
    #[cold]
    fn renumber(&mut self) {
        let mut order: Vec<u64> = self.keys.iter().map(|&[_, low]| low).collect();
        order.sort_unstable();
        let mut rank = vec![0u64; order.len()];
        for (r, &low) in (0u64..).zip(&order) {
            rank[self.clock_of(low)] = r;
        }
        for i in 0..self.keys.len() {
            let clock = self.clock_of(self.keys[i][1]);
            self.keys[i][1] = (rank[clock] << self.clock_bits) | clock as u64;
        }
        self.next_seq = self.keys.len() as u64;
    }
}

/// The `u128` a [`Key`] stands for.
#[inline]
fn wide([high, low]: Key) -> u128 {
    (u128::from(high) << 64) | u128::from(low)
}

/// The topology scheduler: a superposition of competing exponential
/// clocks.
///
/// Where an eager construction keeps one pending [`EventQueue`] entry
/// per edge (E entries, ~100 ns per pop-reschedule-push heap cycle),
/// this scheduler maintains only the **total rate** of a small number of
/// *channels* — weighted classes of identical exponential clocks, e.g.
/// "present edges flipping off at rate `off`" — draws a single
/// `Exp(total)` inter-arrival time, and selects the firing channel by a
/// thinned categorical draw over the weight prefix sums at pop time.
/// (The per-channel flat member tables that map a channel hit to a
/// concrete edge or node live in the models and are pooled in the
/// per-trial arena.) By the superposition property of Poisson
/// processes the resulting marked event stream is *equal in law* to
/// the eager construction; only the RNG stream differs.
///
/// Draw discipline (the replay contract):
///
/// - [`peek`](Self::peek) draws the pending arrival if none is held;
///   a drawn-but-unconsumed arrival is retained and never redrawn.
/// - [`pop`](Self::pop) consumes the arrival and, **only if more than
///   one channel has positive weight**, spends one selection draw. A
///   single-channel scheduler therefore consumes exactly the draws of
///   a plain `t += rng.exp(rate)` loop — the property that lets engines
///   route single-rate tick streams through `Superposition` without
///   moving their RNG stream.
/// - [`set_weight`](Self::set_weight) with a *changed* weight discards
///   the pending arrival and restarts the clock at `now`; by
///   memorylessness the redrawn arrival is exact. An unchanged weight
///   is a no-op, retaining the pending arrival.
#[derive(Debug)]
pub struct Superposition {
    weights: Vec<f64>,
    total: f64,
    clock: f64,
    pending: Option<f64>,
}

impl Superposition {
    /// A scheduler with `channels` channels, all at weight 0, starting
    /// at time 0.
    pub fn new(channels: usize) -> Self {
        Self { weights: vec![0.0; channels], total: 0.0, clock: 0.0, pending: None }
    }

    /// Sets channel `ch` to weight `w` as of time `now`.
    ///
    /// A changed total discards the pending arrival and restarts the
    /// clock at `now` (exact by memorylessness); an unchanged weight
    /// retains it, so resyncing weights after an event that did not
    /// move them costs no draws.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or non-finite.
    pub fn set_weight(&mut self, now: f64, ch: usize, w: f64) {
        assert!(w >= 0.0 && w.is_finite(), "channel weight must be finite and >= 0, got {w}");
        if self.weights[ch] == w {
            return;
        }
        self.weights[ch] = w;
        // Re-sum the (small) channel vector instead of accumulating
        // deltas: the total stays exactly reproducible, with no
        // floating-point drift across millions of events.
        self.total = self.weights.iter().sum();
        self.pending = None;
        self.clock = now;
    }

    /// Time of the next arrival, drawing (and retaining) it if none is
    /// pending. `None` when all weights are zero.
    pub fn peek(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        if self.total > 0.0 {
            Some(*self.pending.get_or_insert_with(|| self.clock + rng.exp(self.total)))
        } else {
            None
        }
    }

    /// Removes the next arrival and returns its time and the channel it
    /// thins to (one selection draw, skipped when exactly one channel
    /// is live). `None` when all weights are zero.
    pub fn pop(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<(f64, usize)> {
        let t = self.peek(rng)?;
        self.pending = None;
        self.clock = t;
        Some((t, self.select_channel(rng)))
    }

    /// Thins an arrival to a channel: proportional to weight, via one
    /// uniform draw over the prefix sums — skipped entirely when only
    /// one channel is live (a deterministic predicate of the weight
    /// history, so replay cannot diverge on the skip).
    fn select_channel(&self, rng: &mut Xoshiro256PlusPlus) -> usize {
        // Two live channels is the workhorse case (edge-Markov's
        // present/absent pair): same draw, same prefix rule as the
        // general walk below, hand-unrolled.
        if let [w0, w1] = self.weights[..] {
            if w0 > 0.0 && w1 > 0.0 {
                return usize::from(rng.f64_unit() * self.total >= w0);
            }
        }
        let mut live = self.weights.iter().enumerate().filter(|(_, &w)| w > 0.0);
        let first = live.next().expect("pop with zero total rate").0;
        let Some(second) = live.next().map(|(i, _)| i) else {
            return first;
        };
        let mut x = rng.f64_unit() * self.total;
        let mut chosen = self.weights.iter().rposition(|&w| w > 0.0).unwrap_or(second);
        for (i, &w) in self.weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if x < w {
                chosen = i;
                break;
            }
            x -= w;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(3.0, 'c');
        q.push(1.0, 'a');
        q.push(2.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn queue_breaks_ties_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(1.0, 3);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 2)));
        assert_eq!(q.pop(), Some((1.0, 3)));
    }

    #[test]
    fn queue_peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(5.0, ());
        q.push(4.0, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(4.0));
        q.clear();
        assert!(q.is_empty());
    }

    /// The queue pops exactly the strict `(time, seq)` order on a
    /// long interleaved push/pop workload — the property that makes the
    /// queue's replay independent of its internal layout.
    #[test]
    fn queue_pops_total_order_under_interleaved_churn() {
        let mut rng = Xoshiro256PlusPlus::seed_from(99);
        let mut q = EventQueue::new();
        let mut reference: Vec<(f64, u64)> = Vec::new();
        for (seq, round) in (0u64..).zip(0..2_000) {
            // Quantized times force plenty of exact ties.
            let t = (rng.range_usize(64) as f64) * 0.125;
            q.push(t, seq);
            reference.push((t, seq));
            if round % 3 == 0 {
                let got = q.pop().expect("non-empty");
                let (min, _) = reference
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite"))
                    .expect("non-empty");
                assert_eq!(got, reference.swap_remove(min), "pop at round {round}");
            }
        }
        reference.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        assert_eq!(drained, reference, "tail drain in strict (time, seq) order");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn queue_rejects_nan() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    /// Regression (PR 3): `TimeKey` accepted `±INFINITY`, so a sentinel
    /// produced by horizon arithmetic or an unguarded `t + INFINITY`
    /// delay could silently enter the heap and sit at its tail forever.
    /// The contract is now: event times are finite or the event is not
    /// scheduled.
    #[test]
    #[should_panic(expected = "finite")]
    fn queue_rejects_positive_infinity() {
        let mut q = EventQueue::new();
        q.push(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn queue_rejects_negative_infinity() {
        let mut q = EventQueue::new();
        q.push(f64::NEG_INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn time_key_rejects_infinity() {
        TimeKey::new(f64::INFINITY);
    }

    #[test]
    fn time_key_accepts_all_finite_times() {
        // The full finite range stays legal, including negatives (some
        // couplings schedule relative offsets) and f64::MAX.
        for t in [0.0, -1.5, f64::MAX, f64::MIN, 1e-300] {
            assert_eq!(TimeKey::new(t).get(), t);
        }
    }

    /// First times for `n` clocks: quarters in `[-2, 2]`, with zero
    /// drawn as `-0.0` or `+0.0`, so the tree starts on exact ties.
    fn first_times(n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<f64> {
        (0..n)
            .map(|_| match rng.range_usize(17) {
                8 if rng.bernoulli(0.5) => -0.0,
                q => (q as f64 - 8.0) * 0.25,
            })
            .collect()
    }

    /// Runs `steps` reschedules of `tree` beside an `EventQueue` that
    /// pops a clock and pushes it straight back, and asserts that both
    /// yield the same `(time bits, clock)` sequence. Clocks run at mixed
    /// rates, times are floored to quarters so exact ties are frequent,
    /// and a clock at zero may be pushed back to `-0.0` or `+0.0`.
    fn assert_tree_matches_queue(
        mut tree: ClockTree,
        first: &[f64],
        rng: &mut Xoshiro256PlusPlus,
        steps: usize,
    ) {
        let mut queue = EventQueue::with_capacity(first.len());
        for (clock, &t) in first.iter().enumerate() {
            queue.push(t, clock);
        }
        let rates = [0.5, 1.0, 4.0];
        for step in 0..steps {
            let (t, clock) = queue.pop().expect("one pending time per clock");
            let (tree_t, tree_clock) = tree.min();
            assert_eq!(
                (tree_t.to_bits(), tree_clock),
                (t.to_bits(), clock),
                "n = {}, step {step}",
                first.len()
            );
            let next = if t == 0.0 && rng.bernoulli(0.5) {
                if rng.bernoulli(0.5) {
                    -0.0
                } else {
                    0.0
                }
            } else {
                ((t + rng.exp(rates[clock % 3])) * 4.0).floor() / 4.0
            };
            queue.push(next, clock);
            tree.reschedule_min(next);
        }
    }

    #[test]
    fn clock_tree_pops_the_event_queue_sequence() {
        let mut rng = Xoshiro256PlusPlus::seed_from(21);
        for n in [1, 2, 3, 5, 64, 1000] {
            let first = first_times(n, &mut rng);
            assert_tree_matches_queue(ClockTree::new(first.clone()), &first, &mut rng, 12_000);
        }
    }

    /// Sequence numbers share a key's low word with the clock index;
    /// when they run out, the pending pushes are renumbered in order.
    #[test]
    fn clock_tree_renumbers_without_moving_the_order() {
        let mut rng = Xoshiro256PlusPlus::seed_from(22);
        for n in [2, 3, 64, 1000] {
            let first = first_times(n, &mut rng);
            let mut tree = ClockTree::new(first.clone());
            tree.next_seq = (u64::MAX >> tree.clock_bits) - 5;
            assert_tree_matches_queue(tree, &first, &mut rng, 3_000);
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn clock_tree_rejects_a_non_finite_first_time() {
        ClockTree::new(vec![1.0, f64::NAN, 2.0]);
    }

    #[test]
    fn clock_tree_rejects_non_finite_reschedules() {
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut tree = ClockTree::new(vec![1.0, 2.0]);
            let caught = std::panic::catch_unwind(move || tree.reschedule_min(t));
            assert!(caught.is_err(), "{t} was scheduled");
        }
    }

    /// A single-channel superposition consumes exactly the draws of a
    /// plain `t += rng.exp(rate)` loop: same arrival times, same final
    /// RNG state. This is what lets engines route their rate-n tick
    /// stream through the scheduler without moving the replay stream.
    #[test]
    fn single_channel_superposition_matches_exp_loop_bit_for_bit() {
        let rate = 3.5;
        let mut eager_rng = Xoshiro256PlusPlus::seed_from(17);
        let mut t = 0.0;
        let reference: Vec<f64> = (0..200)
            .map(|_| {
                t += eager_rng.exp(rate);
                t
            })
            .collect();

        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        let mut sup = Superposition::new(1);
        sup.set_weight(0.0, 0, rate);
        for (i, &expect) in reference.iter().enumerate() {
            // Peek must retain: double-peek draws nothing extra.
            assert_eq!(sup.peek(&mut rng), Some(expect));
            assert_eq!(sup.peek(&mut rng), Some(expect));
            assert_eq!(sup.pop(&mut rng), Some((expect, 0)), "arrival {i}");
        }
        assert_eq!(rng.next_u64(), eager_rng.next_u64(), "RNG streams diverged");
    }

    #[test]
    fn superposition_channel_frequencies_match_weights() {
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let mut sup = Superposition::new(3);
        sup.set_weight(0.0, 0, 1.0);
        sup.set_weight(0.0, 1, 3.0);
        sup.set_weight(0.0, 2, 0.0); // dead channel must never fire
        let mut hits = [0u64; 3];
        let trials = 40_000;
        for _ in 0..trials {
            let (_, c) = sup.pop(&mut rng).expect("live channels");
            hits[c] += 1;
        }
        assert_eq!(hits[2], 0);
        let frac = hits[1] as f64 / trials as f64;
        assert!((frac - 0.75).abs() < 0.02, "channel-1 fraction {frac}");
    }

    /// Reweighting discards the pending arrival and restarts the clock
    /// (memorylessness); an unchanged weight is a no-op that retains it.
    #[test]
    fn superposition_reweight_invalidates_only_on_change() {
        let mut rng = Xoshiro256PlusPlus::seed_from(9);
        let mut sup = Superposition::new(2);
        sup.set_weight(0.0, 0, 2.0);
        let first = sup.peek(&mut rng).expect("live");
        sup.set_weight(0.5, 0, 2.0); // unchanged: retained, no draw
        let before = rng.clone();
        assert_eq!(sup.peek(&mut rng), Some(first));
        assert_eq!(rng, before);
        sup.set_weight(0.5, 1, 1.0); // changed: discarded, clock = 0.5, total = 3
        let expect = 0.5 + rng.clone().exp(3.0);
        assert_eq!(sup.peek(&mut rng), Some(expect));
    }

    /// All weights zero: no arrival and no draw; raising a weight from
    /// zero restarts the clock at `now`.
    #[test]
    fn superposition_zero_rate_draws_nothing() {
        let mut rng = Xoshiro256PlusPlus::seed_from(13);
        let mut sup = Superposition::new(2);
        assert_eq!(sup.peek(&mut rng), None);
        assert_eq!(sup.pop(&mut rng), None);
        assert_eq!(rng.next_u64(), Xoshiro256PlusPlus::seed_from(13).next_u64());
        sup.set_weight(4.0, 0, 1.0);
        let t = sup.peek(&mut rng).expect("live");
        assert!(t > 4.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn superposition_rejects_negative_weight() {
        let mut sup = Superposition::new(1);
        sup.set_weight(0.0, 0, -1.0);
    }

    /// Superposition: merging the ticks of n rate-1 clocks in [0, T] looks
    /// like one rate-n clock (compare counts).
    #[test]
    fn superposition_of_clocks() {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        let n = 20;
        let horizon = 50.0;
        let mut merged_ticks = 0u64;
        for _ in 0..n {
            let mut t = rng.exp(1.0);
            while t <= horizon {
                merged_ticks += 1;
                t += rng.exp(1.0);
            }
        }
        let expected = n as f64 * horizon;
        let got = merged_ticks as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 1.0,
            "merged {got} vs expected {expected}"
        );
    }
}
