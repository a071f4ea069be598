//! External-trace ingestion: three codecs behind format autodetection.
//!
//! Every number the repro produces comes from the synthetic 40-trace
//! suite; this crate is the gateway for *recorded* branch streams. It
//! layers strictly above `workloads` and below the harness:
//!
//! * [`codec`] — the [`TraceCodec`] trait (encode a [`Trace`], open a
//!   streaming decoder) and the [`CodecRegistry`] whose one matcher
//!   detects a file's or a stream's format by magic bytes first,
//!   extension second;
//! * [`decoder`] — [`TraceDecoder`], the streaming-decoder contract:
//!   an [`EventSource`](workloads::EventSource) plus error reporting, so
//!   corrupt input ends a simulation detectably instead of silently;
//! * [`ttr3`] — the native `.ttr` v3 container and the one native layout
//!   written: streaming table-at-end layout (bounded-memory recording)
//!   with scheme-compressed event blocks, recorded under
//!   [`RECORD_SCHEME`];
//! * [`ttr`] — the `.ttr` v2 format, read-only: deduplicated
//!   static-branch table + LEB128-packed event stream, whose event-record
//!   codec v3 blocks reuse;
//! * [`scheme`] — the [`BlockScheme`] registry behind the v3 scheme byte:
//!   stored blocks plus a dependency-free LZ77, open for a real zstd;
//! * [`csv`] — plain text for hand-authored regression traces.
//!
//! Decoders hold the static-branch table in memory and nothing else, so
//! ingestion memory is bounded by the static footprint, never the trace
//! length — the same property that makes `pipeline::simulate_engine`
//! usable on arbitrarily long streams.
//!
//! # Example
//!
//! ```
//! use traces::{CodecRegistry, TraceCodec};
//! use workloads::EventSource;
//! use workloads::suite::{by_name, Scale};
//!
//! let dir = std::env::temp_dir().join("traces-doctest");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("INT05.ttr3");
//!
//! // Record a synthetic trace, then reopen it via autodetection.
//! let trace = by_name("INT05", Scale::Tiny).unwrap().generate();
//! let registry = CodecRegistry::standard();
//! let mut file = std::fs::File::create(&path).unwrap();
//! registry.by_name("ttr3").unwrap().encode(&mut file, &trace).unwrap();
//! drop(file);
//!
//! let mut source = registry.open(&path).unwrap();
//! assert_eq!(source.name(), "INT05");
//! assert_eq!(source.collect_trace(), trace);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod csv;
pub mod decoder;
pub mod feed;
pub mod scheme;
pub mod ttr;
pub mod ttr3;
pub mod varint;

pub use codec::{file_meta, CodecRegistry, TraceCodec, SNIFF_LEN};
pub use csv::{CsvCodec, CsvReader};
pub use decoder::{check_decode, drain_checked, finish, ContainerInfo, TraceDecoder};
pub use feed::FeedOpen;
pub use scheme::{BlockScheme, LzScheme, RawScheme, SCHEMES};
pub use ttr::{TtrCodec, TtrReader};
pub use ttr3::{Ttr3Codec, Ttr3Reader, Ttr3Summary, Ttr3Writer, RECORD_SCHEME, TTR3_INDEX_FLAG};
