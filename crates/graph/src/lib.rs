#![warn(missing_docs)]

//! Graph substrate: edge lists, temporal edge lists, SNAP-format I/O,
//! deterministic synthetic generators, and degree statistics.
//!
//! The paper evaluates on four SNAP graphs (LiveJournal, Pokec, Orkut,
//! WebNotreDame). Those datasets are public but not bundled here; instead
//! [`datasets`] ships their *profiles* (node/edge counts, degree-skew shape)
//! and synthesizes structurally matched RMAT graphs, while [`io`] reads the
//! real SNAP text files when they are available on disk. Everything the
//! construction pipeline measures — edge count, node count, degree skew,
//! sortedness — is preserved by the profile-matched generator (see DESIGN.md
//! §2 for the substitution argument).
//!
//! # Example
//!
//! ```
//! use parcsr_graph::{gen, EdgeList};
//!
//! // A deterministic RMAT graph: same seed, same graph, on any machine.
//! let g: EdgeList = gen::rmat(gen::RmatParams::new(1 << 10, 8 << 10, 42));
//! assert!(g.num_nodes() <= 1 << 10);
//! assert_eq!(g.num_edges(), 8 << 10);
//!
//! let sorted = g.sorted_by_source();
//! assert!(sorted.is_sorted_by_source());
//! ```

pub mod datasets;
pub mod gen;
pub mod io;
pub mod stats;
pub mod temporal;
pub mod types;
pub mod weighted;

pub use datasets::{paper_datasets, DatasetProfile};
pub use stats::DegreeStats;
pub use temporal::{TemporalEdge, TemporalEdgeList, Timestamp};
pub use types::{Edge, EdgeList, NodeId};
pub use weighted::{Weight, WeightedEdge, WeightedEdgeList};
