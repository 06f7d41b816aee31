//! The topology-event driver.
//!
//! [`TopoDriver`] is how the engines consume a [`TopologyModel`]: a
//! [`Superposition`] scheduler draws one `Exp(total)` arrival, thins it
//! to a model channel at pop time, and merges deterministic follow-ups
//! from its side queue. The sequential engine and the trace recorder
//! both draw topology events through it.

use rumor_graph::dynamic::MutableGraph;
use rumor_graph::Graph;
use rumor_sim::events::{EventQueue, Fired, Superposition};
use rumor_sim::rng::Xoshiro256PlusPlus;

use super::topology::{TopoEvent, TopologyModel};

/// A topology-event stream for one run: superposition over the model's
/// stochastic channels; peeking draws (and retains) the next arrival.
#[derive(Debug)]
pub struct TopoDriver {
    sup: Superposition<TopoEvent>,
    channels: usize,
}

impl TopoDriver {
    /// Initializes `mstate` through [`TopologyModel::init`] and returns
    /// the driver holding its side-queue events, with the channel
    /// weights primed at time 0.
    pub fn new<M: TopologyModel + ?Sized>(
        g: &Graph,
        net: &mut MutableGraph,
        mstate: &mut M,
        rng: &mut Xoshiro256PlusPlus,
    ) -> Self {
        let mut queue = EventQueue::new();
        let channels = mstate.init(g, net, &mut queue, rng);
        let mut sup = Superposition::new(channels);
        sup.queue = queue;
        for ch in 0..channels {
            sup.set_weight(0.0, ch, mstate.channel_weight(ch));
        }
        Self { sup, channels }
    }

    /// Time of the next topology event, `INFINITY` if none is pending.
    /// May draw (and then retains) the next arrival.
    pub fn next_time(&mut self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.sup.peek(rng).unwrap_or(f64::INFINITY)
    }

    /// Pops and applies the next topology event, at the time
    /// [`next_time`] just reported (which must be finite).
    /// Stochastic arrivals thin to a model channel; afterwards every
    /// channel weight is resynced from the model — reweights invalidate
    /// the pending arrival only when the total actually moved.
    ///
    /// [`next_time`]: Self::next_time
    pub fn step<M: TopologyModel + ?Sized>(
        &mut self,
        mstate: &mut M,
        net: &mut MutableGraph,
        rng: &mut Xoshiro256PlusPlus,
    ) {
        let sup = &mut self.sup;
        let (t, fired) = sup.pop(rng).expect("stepped an empty topology stream");
        match fired {
            Fired::Event(event) => mstate.apply(event, t, net, &mut sup.queue, rng),
            Fired::Channel(ch) => mstate.fire(ch, t, net, &mut sup.queue, rng),
        }
        for ch in 0..self.channels {
            sup.set_weight(t, ch, mstate.channel_weight(ch));
        }
    }
}
