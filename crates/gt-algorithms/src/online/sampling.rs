//! Online sampling (Table 1, "Temporal analyses"): a classic reservoir
//! sampler over the event stream. Useful for unbiased workload
//! characterization while streaming — e.g. estimating the event mix of an
//! unbounded stream in constant memory.

use gt_core::prelude::*;
use rand_like::SplitMix64;

use crate::OnlineComputation;

/// A tiny deterministic PRNG (SplitMix64) so the sampler has no external
/// dependencies and stays reproducible under a seed.
mod rand_like {
    /// SplitMix64: the standard 64-bit mixing generator.
    #[derive(Debug, Clone)]
    pub(crate) struct SplitMix64(u64);

    impl SplitMix64 {
        /// Seeds the generator.
        pub(crate) fn new(seed: u64) -> Self {
            SplitMix64(seed)
        }

        /// Next raw 64-bit value.
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `0..bound` (bound > 0).
        pub(crate) fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

/// Reservoir sampling (Algorithm R) over graph events.
#[derive(Debug, Clone)]
pub struct ReservoirSampler {
    capacity: usize,
    seen: u64,
    reservoir: Vec<GraphEvent>,
    rng: SplitMix64,
}

impl ReservoirSampler {
    /// A sampler holding at most `capacity` events.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReservoirSampler {
            capacity,
            seen: 0,
            reservoir: Vec::with_capacity(capacity),
            rng: SplitMix64::new(seed),
        }
    }

    /// The current sample.
    pub fn sample(&self) -> &[GraphEvent] {
        &self.reservoir
    }

    /// Estimated fraction of sampled events matching a predicate.
    pub fn estimate_fraction(&self, pred: impl Fn(&GraphEvent) -> bool) -> f64 {
        if self.reservoir.is_empty() {
            return 0.0;
        }
        self.reservoir.iter().filter(|e| pred(e)).count() as f64 / self.reservoir.len() as f64
    }
}

impl OnlineComputation for ReservoirSampler {
    /// The sampled events.
    type Result = Vec<GraphEvent>;

    fn apply_event(&mut self, event: &GraphEvent) {
        self.seen += 1;
        if self.reservoir.len() < self.capacity {
            self.reservoir.push(event.clone());
        } else {
            let j = self.rng.below(self.seen);
            if (j as usize) < self.capacity {
                self.reservoir[j as usize] = event.clone();
            }
        }
    }

    fn result(&self) -> Vec<GraphEvent> {
        self.reservoir.clone()
    }

    fn name(&self) -> &'static str {
        "reservoir-sampler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64) -> GraphEvent {
        GraphEvent::AddVertex {
            id: VertexId(id),
            state: State::empty(),
        }
    }

    #[test]
    fn fills_then_stays_at_capacity() {
        let mut s = ReservoirSampler::new(10, 1);
        for i in 0..5 {
            s.apply_event(&ev(i));
        }
        assert_eq!(s.sample().len(), 5);
        for i in 5..100 {
            s.apply_event(&ev(i));
        }
        assert_eq!(s.sample().len(), 10);
        assert_eq!(s.seen, 100);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = ReservoirSampler::new(5, seed);
            for i in 0..200 {
                s.apply_event(&ev(i));
            }
            s.result()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        // Each of 1000 events should land in a 100-slot reservoir with
        // p = 0.1; count how often event #500 survives across seeds.
        let mut hits = 0;
        let trials = 400;
        for seed in 0..trials {
            let mut s = ReservoirSampler::new(100, seed);
            for i in 0..1000 {
                s.apply_event(&ev(i));
            }
            if s.sample().iter().any(|e| e.vertex() == Some(VertexId(500))) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((0.05..0.16).contains(&frac), "survival fraction {frac}");
    }

    #[test]
    fn estimate_fraction_of_event_kinds() {
        let mut s = ReservoirSampler::new(200, 3);
        for i in 0..1000u64 {
            if i % 4 == 0 {
                s.apply_event(&GraphEvent::RemoveVertex { id: VertexId(i) });
            } else {
                s.apply_event(&ev(i));
            }
        }
        let frac = s.estimate_fraction(|e| matches!(e, GraphEvent::RemoveVertex { .. }));
        assert!((frac - 0.25).abs() < 0.1, "estimated {frac}");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        ReservoirSampler::new(0, 0);
    }
}
