//! The event clocks of the dynamic engines.
//!
//! [`TopoDriver`] is how the engines consume a [`TopologyModel`]: a
//! [`Superposition`] scheduler draws one `Exp(total)` arrival and thins
//! it to a model channel at pop time, and the driver merges that
//! arrival with the model's one pending deterministic event
//! ([`TopologyModel::next_due`]). The sequential engine and the trace
//! recording both draw topology events through it. [`TickSource`] is the
//! rate-`n` protocol clock the sequential engine merges with it.
//!
//! RNG discipline: both clocks draw only when they need a new arrival,
//! and a drawn-but-unconsumed arrival is retained (never redrawn). This
//! is what makes the dynamic engine with a static model replay the
//! static global-clock engine seed-for-seed.

use rumor_graph::dynamic::MutableGraph;
use rumor_graph::Graph;
use rumor_sim::events::Superposition;
use rumor_sim::rng::Xoshiro256PlusPlus;

use super::topology::TopologyModel;

/// A topology-event stream for one run: superposition over the model's
/// stochastic channels, merged with the model's due event; peeking
/// draws (and retains) the next arrival.
#[derive(Debug)]
pub struct TopoDriver {
    sup: Superposition,
    channels: usize,
    /// The model's next due time, re-read after `init` and every step.
    due: f64,
}

impl TopoDriver {
    /// Initializes `mstate` through [`TopologyModel::init`] and returns
    /// the driver with the channel weights primed at time 0 and the
    /// model's first due time read.
    pub fn new<M: TopologyModel + ?Sized>(
        g: &Graph,
        net: &mut MutableGraph,
        mstate: &mut M,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Self {
        let channels = mstate.init(g, net, rng);
        let mut sup = Superposition::new(channels);
        for ch in 0..channels {
            sup.set_weight(0.0, ch, mstate.channel_weight(ch));
        }
        Self { sup, channels, due: mstate.next_due() }
    }

    /// Time of the next topology event, `INFINITY` if none is pending.
    /// Always peeks the stochastic arrival first, so it may draw (and
    /// then retains) it even when the due event comes earlier.
    pub fn next_time(&mut self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let arrival = self.sup.peek(rng).unwrap_or(f64::INFINITY);
        self.due.min(arrival)
    }

    /// Applies the next topology event, at the time [`next_time`] just
    /// reported (which must be finite). The due event wins ties, spends
    /// no draw and keeps the pending arrival; a stochastic arrival
    /// thins to a model channel. Afterwards every channel weight and
    /// the due time are resynced from the model — reweights invalidate
    /// the pending arrival only when the total actually moved.
    ///
    /// [`next_time`]: Self::next_time
    pub fn step<M: TopologyModel + ?Sized>(
        &mut self,
        mstate: &mut M,
        net: &mut MutableGraph,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        let arrival = self.sup.peek(rng).unwrap_or(f64::INFINITY);
        let t = if self.due <= arrival {
            let t = self.due;
            assert!(t.is_finite(), "stepped an empty topology stream");
            mstate.apply(t, net, rng);
            t
        } else {
            let (t, ch) = self.sup.pop(rng).expect("a finite arrival is pending");
            mstate.fire(ch, t, net, rng);
            t
        };
        for ch in 0..self.channels {
            self.sup.set_weight(t, ch, mstate.channel_weight(ch));
        }
        self.due = mstate.next_due();
    }
}

/// An endless Poisson clock of the given rate: the global-clock view of
/// the asynchronous protocol (one rate-`n` clock, superposition of the
/// `n` per-node clocks), for loops that merge it with topology events.
///
/// The next arrival is drawn lazily on first `peek`/`pop` and then
/// retained until consumed, so merging this clock with others costs
/// exactly one `Exp(rate)` draw per tick — in the same position of the
/// RNG stream as a hand-written `t += rng.exp(rate)` loop.
#[derive(Debug, Clone)]
pub struct TickSource {
    rate: f64,
    /// Time of the last consumed tick.
    clock: f64,
    /// Drawn-but-unconsumed next tick.
    pending: Option<f64>,
}

impl TickSource {
    /// A clock with the given tick rate, starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "tick rate must be positive and finite");
        Self { rate, clock: 0.0, pending: None }
    }

    /// Time of the next tick, drawing (and retaining) it if none is
    /// pending.
    pub fn peek(&mut self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let rate = self.rate;
        let clock = self.clock;
        *self.pending.get_or_insert_with(|| clock + rng.exp(rate))
    }

    /// Consumes and returns the next tick.
    pub fn pop(&mut self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let t = self.peek(rng);
        self.pending = None;
        self.clock = t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from(seed)
    }

    #[test]
    fn tick_source_matches_manual_loop() {
        // The clock must consume the RNG exactly like `t += exp(rate)`.
        let mut manual = rng(5);
        let mut driven = rng(5);
        let mut src = TickSource::new(8.0);
        let mut t = 0.0;
        for _ in 0..100 {
            t += manual.exp(8.0);
            assert_eq!(t, src.pop(&mut driven));
        }
        assert_eq!(manual.next_u64(), driven.next_u64());
    }

    #[test]
    fn tick_peek_retains_the_draw() {
        let mut r = rng(7);
        let mut src = TickSource::new(1.0);
        let peeked = src.peek(&mut r);
        let again = src.peek(&mut r);
        let popped = src.pop(&mut r);
        assert_eq!(peeked, again);
        assert_eq!(peeked, popped);
        assert!(src.peek(&mut r) > popped);
    }
}
