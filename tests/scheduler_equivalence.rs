//! The v2 scheduler's replay contract, pinned against independent
//! reference constructions: a single-channel [`Superposition`] consumes
//! exactly the draws of the eager pop-reschedule-push queue loop
//! (bit-for-bit, final RNG word included), and a multi-channel
//! superposition produces the same marked event sequence as a raw
//! `Exp(total)` clock thinned by a test-local prefix scan — including
//! across reweights, which restart the clock by memorylessness. At the
//! driver level, a model's due events merge with the stochastic
//! arrivals without spending randomness.

use proptest::prelude::*;
use rumor_spreading::core::engine::{TopoDriver, TopologyModel};
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, Graph};
use rumor_spreading::sim::events::{EventQueue, Superposition};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

// ---------------------------------------------------------------------------
// Single channel ≡ eager queue loop, bit for bit
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One live channel at rate `r` is the degenerate superposition: no
    /// thinning draw is spent, so the event times — and the RNG stream
    /// behind them — match the v1 eager construction (hold one queue
    /// entry, pop it, reschedule at `t + Exp(r)`) exactly.
    #[test]
    fn single_channel_matches_eager_queue_loop(
        seed in 0u64..1_000_000,
        rate in 0.01f64..50.0,
        events in 1usize..200,
    ) {
        // v2: one-channel superposition.
        let mut rng_v2 = Xoshiro256PlusPlus::seed_from(seed);
        let mut sup = Superposition::new(1);
        sup.set_weight(0.0, 0, rate);
        let v2: Vec<f64> = (0..events)
            .map(|_| {
                let (t, ch) = sup.pop(&mut rng_v2).expect("positive rate");
                prop_assert_eq!(ch, 0);
                Ok(t)
            })
            .collect::<Result<_, TestCaseError>>()?;

        // v1: the eager loop — one pending entry, pop, reschedule.
        let mut rng_v1 = Xoshiro256PlusPlus::seed_from(seed);
        let mut queue: EventQueue<()> = EventQueue::new();
        queue.push(rng_v1.exp(rate), ());
        let v1: Vec<f64> = (0..events)
            .map(|_| {
                let (t, ()) = queue.pop().expect("rescheduled");
                queue.push(t + rng_v1.exp(rate), ());
                t
            })
            .collect();

        prop_assert_eq!(&v2, &v1, "event times diverged");
        // The eager loop draws reschedules at pop time, the
        // superposition lazily at the next peek — so after N pops the
        // queue holds one already-drawn arrival. Peeking the
        // superposition spends that draw on the *same* arrival, which
        // realigns the streams exactly.
        prop_assert_eq!(
            sup.peek(&mut rng_v2),
            queue.peek_time(),
            "the pending arrivals diverged"
        );
        prop_assert_eq!(
            rng_v2.next_u64(),
            rng_v1.next_u64(),
            "RNG streams diverged after {} events",
            events
        );
    }
}

// ---------------------------------------------------------------------------
// Multi channel ≡ Exp(total) clock + reference prefix-scan thinning
// ---------------------------------------------------------------------------

/// A test-local reference thinning: cumulative prefix sums over the
/// weight vector, one uniform draw in `[0, total)` — written
/// independently of `Superposition::select_channel` (which walks with
/// subtraction and skips dead channels) so a shared bug cannot hide.
fn reference_thin(weights: &[f64], x: f64) -> usize {
    let mut cum = 0.0;
    let mut last_live = 0;
    for (i, &w) in weights.iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        cum += w;
        last_live = i;
        if x < cum {
            return i;
        }
    }
    last_live // x landed on the float-roundoff boundary
}

/// One step of the reference construction: advance a raw `Exp(total)`
/// clock, then thin — spending the selection draw only when more than
/// one channel is live, mirroring the contract's draw discipline.
fn reference_step(t: &mut f64, weights: &[f64], rng: &mut Xoshiro256PlusPlus) -> (f64, usize) {
    let total: f64 = weights.iter().sum();
    *t += rng.exp(total);
    let live: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0.0).collect();
    let ch = if live.len() == 1 {
        live[0]
    } else {
        let x = rng.f64_unit() * total;
        reference_thin(weights, x)
    };
    (*t, ch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frozen rates: with the weight vector held fixed, the marked
    /// event sequence (time, channel) of the superposition equals the
    /// reference construction draw for draw.
    #[test]
    fn frozen_rates_match_reference_thinning(
        seed in 0u64..1_000_000,
        raw_weights in proptest::collection::vec(0.0f64..10.0, 2..6),
        events in 1usize..150,
    ) {
        // Ensure at least one live channel.
        let mut weights = raw_weights.clone();
        if weights.iter().all(|&w| w <= 0.0) {
            weights[0] = 1.0;
        }

        let mut rng_sup = Xoshiro256PlusPlus::seed_from(seed);
        let mut sup = Superposition::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            sup.set_weight(0.0, i, w);
        }

        let mut rng_ref = Xoshiro256PlusPlus::seed_from(seed);
        let mut t_ref = 0.0;
        for step in 0..events {
            let (t, ch) = sup.pop(&mut rng_sup).expect("live channel");
            let (te, che) = reference_step(&mut t_ref, &weights, &mut rng_ref);
            prop_assert_eq!(t, te, "time diverged at step {}", step);
            prop_assert_eq!(ch, che, "channel diverged at step {}", step);
        }
        prop_assert_eq!(rng_sup.next_u64(), rng_ref.next_u64(), "RNG streams diverged");
    }

    /// Reweights: a random schedule of weight updates interleaved with
    /// pops. A *changed* total restarts the clock at the current time
    /// (exact by memorylessness — the reference redraws from `now`
    /// too); an unchanged weight must cost nothing, retaining the
    /// pending arrival.
    #[test]
    fn reweights_match_reference_thinning(
        seed in 0u64..1_000_000,
        ops in proptest::collection::vec(
            (0u8..4, 0usize..4, 0.0f64..8.0), 1..80
        ),
    ) {
        let channels = 4;
        let mut weights = vec![1.0f64; channels];

        let mut rng_sup = Xoshiro256PlusPlus::seed_from(seed);
        let mut sup = Superposition::new(channels);
        for (i, &w) in weights.iter().enumerate() {
            sup.set_weight(0.0, i, w);
        }

        let mut rng_ref = Xoshiro256PlusPlus::seed_from(seed);
        let mut t = 0.0;

        for (step, &(op, ch, w)) in ops.iter().enumerate() {
            if op == 0 {
                // Reweight as of the current time. The superposition
                // discards its pending arrival only if the weight
                // actually moved; the reference never holds one.
                sup.set_weight(t, ch, w);
                weights[ch] = w;
                if weights.iter().all(|&x| x <= 0.0) {
                    // Keep a live channel so pops terminate.
                    sup.set_weight(t, 0, 1.0);
                    weights[0] = 1.0;
                }
            } else {
                let (ts, ch) = sup.pop(&mut rng_sup).expect("live channel");
                let (te, che) = reference_step(&mut t, &weights, &mut rng_ref);
                prop_assert_eq!(ts, te, "time diverged at op {}", step);
                prop_assert_eq!(ch, che, "channel diverged at op {}", step);
            }
        }
        prop_assert_eq!(rng_sup.next_u64(), rng_ref.next_u64(), "RNG streams diverged");
    }
}

// ---------------------------------------------------------------------------
// Due events through the driver: no randomness, arrivals kept
// ---------------------------------------------------------------------------

/// A test model with fixed-rate channels and a list of deterministic
/// due times (ascending), one of them pending at a time. It records
/// what the driver delivers and leaves the graph alone.
struct Timers {
    weights: Vec<f64>,
    due: Vec<f64>,
    applied: Vec<f64>,
    fired: Vec<(f64, usize)>,
}

impl Timers {
    fn new(weights: &[f64], due: &[f64]) -> Self {
        Timers { weights: weights.to_vec(), due: due.to_vec(), applied: vec![], fired: vec![] }
    }
}

impl TopologyModel for Timers {
    fn init(
        &mut self,
        _g: &Graph,
        _net: &mut MutableGraph,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> usize {
        self.weights.len()
    }

    fn next_due(&mut self) -> f64 {
        self.due.get(self.applied.len()).copied().unwrap_or(f64::INFINITY)
    }

    fn apply(&mut self, t: f64, _net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        self.applied.push(t);
    }

    fn channel_weight(&self, ch: usize) -> f64 {
        self.weights[ch]
    }

    fn fire(&mut self, ch: usize, t: f64, _net: &mut MutableGraph, _rng: &mut Xoshiro256PlusPlus) {
        self.fired.push((t, ch));
    }
}

/// Starts a driver over `model` on a two-node graph.
fn start(model: &mut Timers, rng: &mut Xoshiro256PlusPlus) -> (TopoDriver, MutableGraph) {
    let g = generators::complete(2);
    let mut net = MutableGraph::from_graph(&g);
    let driver = TopoDriver::new(&g, &mut net, model, rng);
    (driver, net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A model's due events merge ahead of stochastic arrivals without
    /// spending randomness: a run with due events interleaved yields
    /// the same stochastic (time, channel) stream — and the same final
    /// RNG state — as the run without them, and applies each due event
    /// at its own time, in order.
    #[test]
    fn queued_events_consume_no_randomness(
        seed in 0u64..1_000_000,
        weights in proptest::collection::vec(0.1f64..5.0, 2..5),
        events in 1usize..60,
        due_times in proptest::collection::vec(0.0f64..20.0, 0..10),
    ) {
        let mut due = due_times.clone();
        due.sort_by(f64::total_cmp);
        let run = |due: &[f64]| {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            let mut model = Timers::new(&weights, due);
            let (mut driver, mut net) = start(&mut model, &mut rng);
            while model.fired.len() < events {
                let t = driver.next_time(&mut rng);
                driver.step(&mut model, &mut net, &mut rng);
                prop_assert!(
                    model.applied.last() == Some(&t) || model.fired.last().map(|f| f.0) == Some(t),
                    "the step did not happen at the peeked time {}", t
                );
                // A driver that missed the next due time would apply
                // one event forever.
                prop_assert!(model.applied.len() <= due.len(), "a due event was applied twice");
            }
            Ok((model, rng.next_u64()))
        };
        let (with, with_word) = run(&due)?;
        let (without, without_word) = run(&[])?;
        prop_assert_eq!(&with.fired, &without.fired);
        prop_assert_eq!(with_word, without_word, "due events spent randomness");
        let last = with.fired.last().expect("events >= 1").0;
        let reached: Vec<f64> = due.iter().copied().filter(|&d| d <= last).collect();
        prop_assert_eq!(&with.applied, &reached);
    }
}

/// A due event before the pending arrival is applied without a draw,
/// and the arrival it preempted is kept, not redrawn.
#[test]
fn due_event_merges_without_consuming_arrival() {
    let mut rng = Xoshiro256PlusPlus::seed_from(11);
    // Arrival far in the future w.h.p.
    let mut model = Timers::new(&[1e-6], &[1.0]);
    let (mut driver, mut net) = start(&mut model, &mut rng);
    assert_eq!(driver.next_time(&mut rng), 1.0);
    let after_peek = rng.clone();
    driver.step(&mut model, &mut net, &mut rng);
    assert_eq!(model.applied, [1.0]);
    let arrival = driver.next_time(&mut rng);
    assert!(arrival > 1.0);
    assert_eq!(rng, after_peek, "the due step or the re-peek drew");
    driver.step(&mut model, &mut net, &mut rng);
    assert_eq!(model.fired, [(arrival, 0)]);
}

/// With every weight at zero the driver delivers due events only, and
/// draws nothing; raising a weight from zero starts the arrival clock
/// at the due event's time.
#[test]
fn zero_rate_driver_delivers_due_events_only() {
    let mut rng = Xoshiro256PlusPlus::seed_from(13);
    let mut model = Timers::new(&[0.0, 0.0], &[4.0]);
    let (mut driver, mut net) = start(&mut model, &mut rng);
    assert_eq!(driver.next_time(&mut rng), 4.0);
    model.weights[0] = 1.0;
    driver.step(&mut model, &mut net, &mut rng);
    assert_eq!(model.applied, [4.0]);
    assert_eq!(rng, Xoshiro256PlusPlus::seed_from(13), "due events drew");
    let t = driver.next_time(&mut rng);
    assert!(t > 4.0 && t.is_finite(), "arrival {t} must start at the reweight time");

    let mut idle = Timers::new(&[0.0], &[]);
    let (mut driver, _) = start(&mut idle, &mut rng);
    assert_eq!(driver.next_time(&mut rng), f64::INFINITY);
}

/// A due event at exactly the peeked arrival time is applied first; the
/// arrival is kept and fires next, with no extra draw spent.
#[test]
fn due_event_wins_an_exact_tie_with_the_arrival() {
    let rate = 2.5;
    let seed = 31;
    // The driver's first peek is `0 + Exp(rate)` off a fresh stream.
    let mut reference = Xoshiro256PlusPlus::seed_from(seed);
    let arrival = reference.exp(rate);

    let mut rng = Xoshiro256PlusPlus::seed_from(seed);
    let mut model = Timers::new(&[rate], &[arrival]);
    let (mut driver, mut net) = start(&mut model, &mut rng);
    assert_eq!(driver.next_time(&mut rng), arrival);
    driver.step(&mut model, &mut net, &mut rng);
    assert_eq!(model.applied, [arrival]);
    assert!(model.fired.is_empty(), "the arrival fired before the due event");
    assert_eq!(driver.next_time(&mut rng), arrival, "the arrival was not kept");
    driver.step(&mut model, &mut net, &mut rng);
    assert_eq!(model.fired, [(arrival, 0)]);
    // One exponential draw in all: no redraw, no thinning draw.
    assert_eq!(rng, reference, "an extra draw was spent");
}
