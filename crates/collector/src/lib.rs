//! `ldp-collector` — a crash-recoverable LDP collection service over the
//! `ldp-core` wire format.
//!
//! The library (and the `ldp-collector` binary it powers) turns the
//! workspace's mechanism implementations into a deployable collection
//! window:
//!
//! - **Ingest** wire-report lines from files, stdin, or a
//!   length-delimited TCP socket ([`server`]), through any registered
//!   mechanism ([`registry`]) — large batches shard decode+absorb across
//!   the shared `ldp-pool`;
//! - **Persist** the O(d̃) aggregator state as versioned,
//!   fingerprint-checked snapshot files (`ldp_core::snapshot`) on a
//!   configurable cadence, written atomically ([`io`]);
//! - **Recover** a crashed window from its last snapshot with
//!   bit-identical results ([`session::ingest_resuming`]), and **merge**
//!   snapshots from parallel collectors exactly (the
//!   merge-equals-concatenation contract, held by integer counts and
//!   `ldp_numeric::ExactSum`).
//!
//! The operator's handbook lives in `docs/OPERATIONS.md`; the normative
//! wire and snapshot formats in `docs/WIRE_FORMAT.md`; the crate map in
//! `docs/ARCHITECTURE.md`.
//!
//! # Examples
//!
//! A full window — simulate clients, collect on two shards, merge,
//! snapshot, recover, estimate:
//!
//! ```
//! use ldp_collector::registry::build_session;
//!
//! let spec = "sw-ems:eps=1,d=32";
//! let mut shard_a = build_session(spec).unwrap();
//! let mut shard_b = build_session(spec).unwrap();
//!
//! // Client side (normally on user devices): wire-report lines.
//! let reports = shard_a.gen_reports(4_000, 42).unwrap();
//! let (half_a, half_b) = reports.split_at(reports.len() / 2);
//! let pivot = half_a.rfind('\n').map(|i| i + 1).unwrap_or(0);
//!
//! // Two parallel collectors ingest disjoint halves of the stream.
//! shard_a.ingest_text(&reports[..pivot]).unwrap();
//! shard_b.ingest_text(&reports[pivot..]).unwrap();
//! let _ = half_b;
//!
//! // Shard B snapshots; shard A folds the snapshot in and finalizes.
//! shard_a.merge_snapshot(&shard_b.snapshot_text()).unwrap();
//! assert_eq!(shard_a.count(), 4_000);
//!
//! // The merged window equals single-collector ingestion bit for bit.
//! let mut single = build_session(spec).unwrap();
//! single.ingest_text(&reports).unwrap();
//! assert_eq!(shard_a.finalize_text().unwrap(), single.finalize_text().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod faults;
pub mod io;
pub mod limit;
pub mod machine;
pub mod protocol;
mod reactor_serve;
pub mod registry;
pub mod server;
pub mod session;

pub use error::CollectorError;
pub use registry::build_session;
pub use server::{
    serve, serve_routed, summary_json, ServeOptions, ServeSummary, SnapshotPolicy, WindowRoute,
    DEFAULT_MAX_FRAME_BYTES,
};
pub use session::{ingest_lines, ingest_resuming, CollectorSession, Session};
