#![warn(missing_docs)]

//! # gt-generator
//!
//! The GraphTides graph stream generator (paper §4.1, §5.1, Listing 1).
//!
//! Stream generation is split into two phases:
//!
//! 1. **Bootstrap** — build an initial graph with a well-known generator
//!    (Barabási–Albert, Erdős–Rényi — see [`gt_graph::builders`]).
//! 2. **Evolution** — run a configurable number of rounds; each round a
//!    user-defined [`EvolutionModel`] chooses the event type and an
//!    appropriate target vertex/edge, and may attach state payloads.
//!
//! [`MixModel`] is the built-in model driven by an [`EventMix`] (the ratio
//! table of Table 3) and per-operation [`VertexSelector`]s — including the
//! degree-proportional and low-degree-biased selections the paper's Weaver
//! experiment uses.
//!
//! [`StreamComposer`] assembles the final stream file: bootstrap segment,
//! marker, pause, evolution segment, and any control events.
//!
//! ```
//! use gt_generator::{EventMix, MixModel, StreamGenerator};
//! use gt_graph::builders::BarabasiAlbert;
//!
//! let bootstrap = BarabasiAlbert { n: 100, m0: 5, m: 2, seed: 7 }.generate();
//! let model = MixModel::new(EventMix::table3());
//! let mut generator = StreamGenerator::new(model, 42);
//! generator.bootstrap(&bootstrap).unwrap();
//! let evolution = generator.evolve(500);
//! assert_eq!(evolution.stream.stats().graph_events, 500);
//! ```

pub mod compose;
pub mod context;
pub mod forest_fire;
pub mod generator;
pub mod model;
pub mod zipf;

pub use compose::StreamComposer;
pub use context::{GenContext, VertexSelector};
pub use forest_fire::ForestFireModel;
pub use generator::{EvolutionResult, GenReport, StreamGenerator};
pub use model::{EventMix, EvolutionModel, MixModel};
