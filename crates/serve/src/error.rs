//! Error type for the serving layer, and its wire status-code mapping.
//!
//! Every [`ServeError`] variant maps to a **distinct** wire status code
//! (see [`status`]) so a networked client can tell exactly which
//! contract a query or request violated without parsing display
//! strings. The mapping is part of the `serve::net` protocol and is
//! pinned by tests — add new codes, never renumber existing ones.

use std::fmt;

use dwmaxerr_core::CoreError;
use dwmaxerr_wavelet::WaveletError;

/// Wire status codes, one per [`ServeError`] variant (plus `OK`).
///
/// Carried in the `serve::net` response frames: as the request-level
/// status and in each per-query error slot. Codes are append-only.
pub mod status {
    /// The request (or query) succeeded.
    pub const OK: u8 = 0;
    /// [`ServeError::OutOfRange`](super::ServeError::OutOfRange).
    pub const OUT_OF_RANGE: u8 = 1;
    /// [`ServeError::InvertedRange`](super::ServeError::InvertedRange).
    pub const INVERTED_RANGE: u8 = 2;
    /// [`ServeError::EmptyStore`](super::ServeError::EmptyStore).
    pub const EMPTY_STORE: u8 = 3;
    /// [`ServeError::BadShardCount`](super::ServeError::BadShardCount).
    pub const BAD_SHARD_COUNT: u8 = 4;
    /// [`ServeError::Wavelet`](super::ServeError::Wavelet).
    pub const WAVELET: u8 = 5;
    /// [`ServeError::Core`](super::ServeError::Core).
    pub const CORE: u8 = 6;
    /// [`ServeError::SnapshotUnavailable`](super::ServeError::SnapshotUnavailable).
    pub const SNAPSHOT_UNAVAILABLE: u8 = 7;
    /// [`ServeError::BadReplication`](super::ServeError::BadReplication).
    pub const BAD_REPLICATION: u8 = 8;
    /// [`ServeError::ShardUnavailable`](super::ServeError::ShardUnavailable).
    pub const SHARD_UNAVAILABLE: u8 = 9;
    /// [`ServeError::Overloaded`](super::ServeError::Overloaded) — the
    /// explicit load-shedding response.
    pub const OVERLOADED: u8 = 10;
    /// [`ServeError::BadFrame`](super::ServeError::BadFrame) — the
    /// request could not be decoded.
    pub const BAD_FRAME: u8 = 11;
}

/// Errors from the sharded serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Shard-shape error: shard count and data length are incompatible
    /// (both must be powers of two with `1 <= shards <= n / 2`).
    BadShardCount {
        /// The requested shard count.
        shards: usize,
        /// The synopsis data length it must divide into `>= 2`-leaf slices.
        n: usize,
    },
    /// A query addressed a leaf or range outside the served data.
    OutOfRange {
        /// The offending index (`x` for points, `h` for ranges).
        index: usize,
        /// The served data length.
        n: usize,
    },
    /// A range query with `l > h`. Note that `l == h` is a *valid*
    /// single-point range — only strictly inverted endpoints are
    /// rejected, hence the name.
    InvertedRange {
        /// Lower bound of the offending query.
        l: usize,
        /// Upper bound of the offending query.
        h: usize,
    },
    /// The store has never been published to — there is no snapshot to
    /// read.
    EmptyStore,
    /// A rebuild finished without leaving a publishable snapshot; the
    /// store keeps serving its previous pinned version. No in-process
    /// path returns it; it stays for its wire status code
    /// ([`status::SNAPSHOT_UNAVAILABLE`]).
    SnapshotUnavailable,
    /// Router-shape error: the replication factor must satisfy
    /// `1 <= replication <= nodes`.
    BadReplication {
        /// The requested replication factor.
        replication: usize,
        /// Nodes available in the topology.
        nodes: usize,
    },
    /// Every node hosting a replica of the shard is marked down.
    ShardUnavailable {
        /// The unroutable shard.
        shard: usize,
    },
    /// The server shed this request (connection or batch over the
    /// configured bound) — retry later, nothing was evaluated.
    Overloaded,
    /// A network frame or request body failed to decode.
    BadFrame(&'static str),
    /// An underlying synopsis/tree shape error.
    Wavelet(WaveletError),
    /// An underlying build/driver error.
    Core(CoreError),
}

impl ServeError {
    /// The wire status code for this error — distinct per variant; see
    /// [`status`].
    pub fn status_code(&self) -> u8 {
        match self {
            ServeError::OutOfRange { .. } => status::OUT_OF_RANGE,
            ServeError::InvertedRange { .. } => status::INVERTED_RANGE,
            ServeError::EmptyStore => status::EMPTY_STORE,
            ServeError::BadShardCount { .. } => status::BAD_SHARD_COUNT,
            ServeError::Wavelet(_) => status::WAVELET,
            ServeError::Core(_) => status::CORE,
            ServeError::SnapshotUnavailable => status::SNAPSHOT_UNAVAILABLE,
            ServeError::BadReplication { .. } => status::BAD_REPLICATION,
            ServeError::ShardUnavailable { .. } => status::SHARD_UNAVAILABLE,
            ServeError::Overloaded => status::OVERLOADED,
            ServeError::BadFrame(_) => status::BAD_FRAME,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadShardCount { shards, n } => write!(
                f,
                "bad shard count {shards} for n = {n}: need powers of two with 1 <= shards <= n/2"
            ),
            ServeError::OutOfRange { index, n } => {
                write!(f, "query index {index} out of range for n = {n}")
            }
            ServeError::InvertedRange { l, h } => {
                write!(f, "inverted range query {l}..={h} (l > h)")
            }
            ServeError::EmptyStore => write!(f, "store has no published snapshot"),
            ServeError::SnapshotUnavailable => {
                write!(
                    f,
                    "rebuild left no publishable snapshot; previous version still serves"
                )
            }
            ServeError::BadReplication { replication, nodes } => write!(
                f,
                "bad replication factor {replication} for {nodes} nodes: need 1 <= r <= nodes"
            ),
            ServeError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} has no live replica")
            }
            ServeError::Overloaded => write!(f, "server overloaded, request shed"),
            ServeError::BadFrame(context) => write!(f, "bad wire frame: {context}"),
            ServeError::Wavelet(e) => write!(f, "{e}"),
            ServeError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WaveletError> for ServeError {
    fn from(e: WaveletError) -> Self {
        ServeError::Wavelet(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_are_distinct_and_pinned() {
        let variants: Vec<ServeError> = vec![
            ServeError::OutOfRange { index: 0, n: 0 },
            ServeError::InvertedRange { l: 1, h: 0 },
            ServeError::EmptyStore,
            ServeError::BadShardCount { shards: 0, n: 0 },
            ServeError::SnapshotUnavailable,
            ServeError::BadReplication {
                replication: 0,
                nodes: 0,
            },
            ServeError::ShardUnavailable { shard: 0 },
            ServeError::Overloaded,
            ServeError::BadFrame("x"),
        ];
        let mut codes: Vec<u8> = variants.iter().map(ServeError::status_code).collect();
        codes.push(status::OK);
        codes.push(status::WAVELET);
        codes.push(status::CORE);
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "status codes must be distinct");
        // Pinned values: renumbering breaks deployed clients.
        assert_eq!(ServeError::InvertedRange { l: 1, h: 0 }.status_code(), 2);
        assert_eq!(ServeError::Overloaded.status_code(), 10);
    }

    #[test]
    fn inverted_range_display_names_the_real_condition() {
        let msg = ServeError::InvertedRange { l: 4, h: 2 }.to_string();
        assert!(msg.contains("inverted"), "{msg}");
        assert!(msg.contains("l > h"), "{msg}");
    }
}
