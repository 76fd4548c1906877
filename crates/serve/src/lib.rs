#![deny(missing_docs)]

//! The synopsis-serving query layer: the "millions of users" read path.
//!
//! Everything upstream of this crate *builds* synopses; this crate
//! *serves* them. A long-running process keeps a sharded in-memory
//! [`SynopsisStore`] — shards are the paper's error-tree base
//! partitions — and answers point and range-sum queries from immutable,
//! `Arc`-swapped snapshots, so the query path never takes a lock and a
//! rebuild never tears a reader. Every answer carries the build's
//! max-error guarantee, scaled to the query (see
//! [`dwmaxerr_core::query`] for the bound contract).
//!
//! The flow:
//!
//! ```text
//! PhasedSynopsisDriver ──tick──▶ DGreedyAbsUpdate { synopsis, bound, … }
//!   (incremental build loop)       │  bound: stated by the DGreedyAbs
//!                                  │  maintainer, nothing recomputes it
//!                                  ▼
//!                        ShardedSynopsis::build
//!                                  │  atomic swap, version v minted,
//!                                  │  snapshot_published { label, v }
//!                                  ▼
//!                           SynopsisStore ──reader()──▶ StoreReader
//!                                                            │
//!                  Query::validate, then ErrorBound::answer: ◀┘
//!                  the bound scaled to the query, the answer
//!                  stamped with the pinned store version
//! ```
//!
//! # Module map
//!
//! | Module         | Role |
//! |----------------|------|
//! | [`shard`]      | [`ShardedSynopsis`]: the retained-coefficient representation re-cut along error-tree partitions, with per-shard pre-summed root paths |
//! | [`store`]      | [`SynopsisStore`] / [`StoreReader`]: the process's one snapshot cell — versioned atomic-swap store and lock-free pinned readers |
//! | [`batch`]      | [`Query`] with its one validation, and the batch executor that evaluates each distinct query once — strict and lenient (per-query `Result`) flavours |
//! | [`router`]     | [`ShardRouter`]: static shard→node routing table over the simulated topology, with replication and liveness |
//! | [`net`]        | [`NetServer`] / [`NetClient`]: the out-of-process TCP front — length-prefixed wire protocol with a fixed-width query / slot codec, answers encoded straight into the response frame, load shedding, latency/QPS stats |
//! | [`serve_loop`] | [`ServeDriver`]: build→publish→serve glue over `PhasedSynopsisDriver`; records each served version on the trace |
//! | [`error`]      | [`ServeError`] and its pinned wire status codes |

pub mod batch;
pub mod error;
pub mod net;
pub mod router;
pub mod serve_loop;
pub mod shard;
pub mod store;

pub use batch::{execute, execute_partial_routed, execute_partial_with_stats, BatchStats, Query};
pub use error::ServeError;
pub use net::{NetClient, NetServer, NetServerConfig, NetServerStats, QueryResponse, SlotResult};
pub use router::ShardRouter;
pub use serve_loop::{ServeDriver, ServeTickReport};
pub use shard::{ShardedSynopsis, SynopsisShard};
pub use store::{StoreReader, SynopsisStore};
