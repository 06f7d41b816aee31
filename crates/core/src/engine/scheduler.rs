//! The topology-event driver of the dynamic engines.
//!
//! [`TopoDriver`] is how the engines consume a [`TopologyModel`]: a
//! [`Superposition`] scheduler draws one `Exp(total)` arrival and thins
//! it to a model channel at pop time, and the driver merges that
//! arrival with the model's one pending deterministic event
//! ([`TopologyModel::next_due`]). The global-clock tick loop over a
//! model ([`crate::run_dynamic_with`]) and the trace recording both draw
//! topology events through it.
//!
//! RNG discipline: the driver draws only when it needs a new arrival,
//! and a drawn-but-unconsumed arrival is retained (never redrawn); the
//! tick loop holds its drawn tick the same way. This is what makes the
//! dynamic engine with a static model replay the static global-clock
//! engine seed-for-seed.

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
    pub fn new(
        g: &Graph,
        net: &mut MutableGraph,
        mstate: &mut dyn TopologyModel,
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
    pub fn step(
        &mut self,
        mstate: &mut dyn TopologyModel,
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
