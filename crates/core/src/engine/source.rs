//! The [`EventSource`] abstraction: where simulation events come from.
//!
//! The global-clock engine is one loop: *pop the earliest event, apply
//! it, decide whether to go on*. [`drive`] is that loop, written once,
//! over any source; [`TickSource`] is the lazily-drawn Poisson clock it
//! runs on. (The node-clock and edge-clock views keep a fixed
//! population of clocks in a
//! [`ClockTree`](rumor_sim::events::ClockTree) and loop over it
//! directly; the dynamic engine merges a [`TickSource`] with the
//! topology scheduler by hand.)
//!
//! RNG discipline: a source draws from the RNG only when it actually
//! needs a new arrival time, and a drawn-but-unconsumed arrival is
//! retained (never redrawn). This is what makes engines built on
//! different sources replay each other **seed-for-seed** when they
//! describe the same process — the property the dynamic engine's
//! churn-0 invariant rests on.

use rumor_sim::rng::Xoshiro256PlusPlus;

/// Whether [`drive`] keeps pumping events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Pop the next event.
    Continue,
    /// Stop the loop (completion, budget exhaustion, …).
    Stop,
}

/// A time-ordered stream of simulation events.
///
/// `peek` and `pop` may draw from the RNG (lazy arrival sampling), but
/// an arrival drawn by `peek` must be the one later returned by `pop` —
/// sources never discard randomness.
pub trait EventSource {
    /// Payload describing what happened.
    type Event;

    /// Time of the next event without consuming it, or `None` if the
    /// stream is exhausted.
    fn peek(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<f64>;

    /// Removes and returns the next event.
    fn pop(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<(f64, Self::Event)>;
}

/// The engine loop: pop events in time order and hand them to
/// `on_event` (which receives the source back, so it can reschedule)
/// until the source dries up or the callback stops the run.
///
/// # Example
///
/// ```
/// use rumor_core::engine::{drive, Control, TickSource};
/// use rumor_sim::rng::Xoshiro256PlusPlus;
///
/// let mut src = TickSource::new(4.0);
/// let mut rng = Xoshiro256PlusPlus::seed_from(1);
/// let mut ticks = Vec::new();
/// drive(&mut src, &mut rng, |_, _, t, ()| {
///     ticks.push(t);
///     if ticks.len() == 3 {
///         Control::Stop
///     } else {
///         Control::Continue
///     }
/// });
/// assert_eq!(ticks.len(), 3);
/// assert!(ticks[0] > 0.0 && ticks[0] < ticks[1] && ticks[1] < ticks[2]);
/// assert_eq!(src.now(), ticks[2]);
/// ```
pub fn drive<S, F>(source: &mut S, rng: &mut Xoshiro256PlusPlus, mut on_event: F)
where
    S: EventSource,
    F: FnMut(&mut S, &mut Xoshiro256PlusPlus, f64, S::Event) -> Control,
{
    while let Some((t, event)) = source.pop(rng) {
        if on_event(source, rng, t, event) == Control::Stop {
            break;
        }
    }
}

/// An endless Poisson clock of the given rate: the global-clock view of
/// the asynchronous protocol (one rate-`n` clock, superposition of the
/// `n` per-node clocks).
///
/// The next arrival is drawn lazily on first `peek`/`pop` and then
/// retained until consumed, so interleaving this source with others
/// costs exactly one `Exp(rate)` draw per tick — in the same position
/// of the RNG stream as a hand-written `t += rng.exp(rate)` loop.
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

    /// The time of the last consumed tick (0 before the first).
    pub fn now(&self) -> f64 {
        self.clock
    }
}

impl EventSource for TickSource {
    type Event = ();

    fn peek(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        let rate = self.rate;
        let clock = self.clock;
        Some(*self.pending.get_or_insert_with(|| clock + rng.exp(rate)))
    }

    fn pop(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<(f64, ())> {
        let t = self.peek(rng).expect("tick stream is endless");
        self.pending = None;
        self.clock = t;
        Some((t, ()))
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
        // The source must consume the RNG exactly like `t += exp(rate)`.
        let mut manual = rng(5);
        let mut driven = rng(5);
        let mut src = TickSource::new(8.0);
        let mut t = 0.0;
        for _ in 0..100 {
            t += manual.exp(8.0);
            let (ts, ()) = src.pop(&mut driven).unwrap();
            assert_eq!(t, ts);
        }
        assert_eq!(manual.next_u64(), driven.next_u64());
    }

    #[test]
    fn tick_peek_retains_the_draw() {
        let mut r = rng(7);
        let mut src = TickSource::new(1.0);
        let peeked = src.peek(&mut r).unwrap();
        let again = src.peek(&mut r).unwrap();
        let (popped, ()) = src.pop(&mut r).unwrap();
        assert_eq!(peeked, again);
        assert_eq!(peeked, popped);
        assert_eq!(src.now(), popped);
    }
}
