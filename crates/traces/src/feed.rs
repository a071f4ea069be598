//! Network/pipe ingestion: decode a trace from a non-seekable byte
//! stream.
//!
//! [`CodecRegistry::open`] assumes a path on disk; the prediction
//! server receives trace bytes over a socket. [`CodecRegistry::open_feed`]
//! closes that gap: it sniffs the first [`SNIFF_LEN`](crate::SNIFF_LEN)
//! bytes off the stream, detects the codec with
//! [`CodecRegistry::detect_prefix`] (magic first, name-hint extension
//! second — the matcher file detection uses), splices the sniffed prefix
//! back in front of the reader, and asks the codec for a streaming
//! decoder via [`TraceCodec::open_stream`].
//!
//! Two codec families fall out:
//!
//! * **Streaming** (`.ttr` v2, CSV): the layout decodes front-to-back,
//!   so the decoder wraps the live stream directly. Memory stays
//!   bounded by the static-branch table, and the *caller's* reader is
//!   pulled one block at a time — which is exactly how the server
//!   exerts backpressure (it simply does not read the socket while the
//!   simulation is busy).
//! * **Spooled** (`.ttr` v3): the container's static-branch table lives
//!   in a footer at the end, so the stream is copied to a temporary file
//!   under the caller's spool directory first, then opened through the
//!   ordinary path route. The spool file keeps the hinted file *name* (so
//!   [`file_meta`]-derived trace names match a direct [`CodecRegistry::open`]
//!   of the original file bit for bit) inside a process-unique
//!   directory, and is deleted when the decoder drops. Memory stays
//!   bounded; disk holds the trace once.

use crate::codec::{file_meta, read_prefix, CodecRegistry, TraceCodec};
use crate::decoder::{ContainerInfo, TraceDecoder};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::event::{EventBlock, EventSource, TraceEvent};

/// What [`TraceCodec::open_stream`] made of a live byte stream.
pub enum FeedOpen {
    /// The codec decodes front-to-back: a live streaming decoder.
    Streaming(Box<dyn TraceDecoder + Send>),
    /// The codec needs random access: the (untouched) reader comes
    /// back so the registry can spool it to disk.
    NeedsSpool(Box<dyn Read + Send>),
}

// ORDERING: a process-wide uniqueness counter for spool directory names;
// no other memory is published through it.
static SPOOL_SEQ: AtomicU64 = AtomicU64::new(0);

impl CodecRegistry {
    /// Opens a streaming decoder over a non-seekable byte stream:
    /// detect via [`CodecRegistry::detect_prefix`], then either wrap
    /// the live stream (streaming codecs) or spool it to a temporary
    /// file under `spool_dir` first (seek-requiring codecs). The
    /// `name_hint` doubles as the extension fallback for a stream that
    /// does not open with its format's magic, and as the [`file_meta`]
    /// source for codecs that derive trace metadata from file names.
    ///
    /// # Errors
    ///
    /// Propagates detection, decode-header, and spool I/O errors.
    pub fn open_feed(
        &self,
        mut reader: Box<dyn Read + Send>,
        name_hint: Option<&Path>,
        spool_dir: &Path,
    ) -> io::Result<Box<dyn TraceDecoder + Send>> {
        let prefix = read_prefix(&mut reader)?;
        let codec = self.detect_prefix(&prefix, name_hint)?;
        let (name, category) = match name_hint {
            Some(p) => file_meta(p),
            None => ("trace".to_string(), "TRACE".to_string()),
        };
        let chained: Box<dyn Read + Send> = Box::new(io::Cursor::new(prefix).chain(reader));
        match codec.open_stream(chained, name, category)? {
            FeedOpen::Streaming(d) => Ok(d),
            FeedOpen::NeedsSpool(rest) => spool_and_open(codec, rest, name_hint, spool_dir),
        }
    }
}

/// Copies the remaining stream to a uniquely named directory under
/// `spool_dir` (keeping the hinted file name so path-derived trace
/// metadata matches the original file), opens it through the codec's
/// path route, and wraps the decoder so the spool is deleted on drop.
fn spool_and_open(
    codec: &dyn TraceCodec,
    mut rest: Box<dyn Read + Send>,
    name_hint: Option<&Path>,
    spool_dir: &Path,
) -> io::Result<Box<dyn TraceDecoder + Send>> {
    // ORDERING: uniqueness counter only; see SPOOL_SEQ.
    let seq = SPOOL_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = spool_dir.join(format!("feed-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let file_name = name_hint
        .and_then(|p| p.file_name())
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "trace.bin".into());
    let path = dir.join(file_name);
    let open = (|| {
        let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
        io::copy(&mut rest, &mut f)?;
        f.flush()?;
        drop(f);
        codec.open(&path)
    })();
    match open {
        Ok(inner) => Ok(Box::new(SpooledDecoder { inner, dir })),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            Err(e)
        }
    }
}

/// A decoder over a spooled temporary file: pure delegation, plus
/// spool-file cleanup on drop.
struct SpooledDecoder {
    inner: Box<dyn TraceDecoder + Send>,
    dir: PathBuf,
}

impl Drop for SpooledDecoder {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl EventSource for SpooledDecoder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn category(&self) -> &str {
        self.inner.category()
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        self.inner.next_event()
    }

    fn next_block(&mut self, block: &mut EventBlock, max: usize) -> usize {
        self.inner.next_block(block, max)
    }

    fn skip(&mut self, n: u64) -> u64 {
        self.inner.skip(n)
    }
}

impl TraceDecoder for SpooledDecoder {
    fn format(&self) -> &'static str {
        self.inner.format()
    }

    fn container_info(&self) -> Option<ContainerInfo> {
        self.inner.container_info()
    }

    fn decode_error(&self) -> Option<&io::Error> {
        self.inner.decode_error()
    }

    fn expected_events(&self) -> Option<u64> {
        self.inner.expected_events()
    }

    fn remaining_events(&self) -> Option<u64> {
        self.inner.remaining_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::drain_checked;
    use workloads::suite::{by_name, Scale};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tage-feed-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_trace() -> workloads::event::Trace {
        by_name("INT01", Scale::Tiny).unwrap().generate()
    }

    fn encode(codec_name: &str) -> Vec<u8> {
        let r = CodecRegistry::standard();
        let mut buf = Vec::new();
        r.by_name(codec_name).unwrap().encode(&mut buf, &sample_trace()).unwrap();
        buf
    }

    fn spool_entries(dir: &Path) -> usize {
        std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
    }

    /// The committed read-only `.ttr` v2 fixture (10 events).
    fn gold_v2() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/GOLD01.ttr")
    }

    #[test]
    fn ttr_v2_feed_streams_without_spooling() {
        let spool = tmp("v2");
        let r = CodecRegistry::standard();
        let bytes = std::fs::read(gold_v2()).unwrap();
        let mut d = r.open_feed(Box::new(io::Cursor::new(bytes)), None, &spool).unwrap();
        assert_eq!(d.format(), "ttr");
        assert_eq!(d.name(), "GOLD01");
        // Nothing spooled: the v2 layout decodes off the live stream.
        assert_eq!(spool_entries(&spool), 0);
        assert_eq!(drain_checked(d.as_mut()).unwrap(), 10);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn ttr3_feed_spools_and_cleans_up() {
        let spool = tmp("v3");
        let r = CodecRegistry::standard();
        let bytes = encode("ttr3");
        let mut d = r
            .open_feed(
                Box::new(io::Cursor::new(bytes)),
                Some(Path::new("INT01.ttr3")),
                &spool,
            )
            .unwrap();
        assert_eq!(d.format(), "ttr3");
        assert_eq!(d.name(), "INT01");
        assert_eq!(spool_entries(&spool), 1);
        let n = drain_checked(d.as_mut()).unwrap();
        assert_eq!(n, sample_trace().events.len() as u64);
        drop(d);
        // The spool directory is gone once the decoder drops.
        assert_eq!(spool_entries(&spool), 0);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn feed_decode_matches_direct_open() {
        // The feed route must replay the identical event stream the
        // path route produces, for every standard codec.
        let spool = tmp("match");
        let r = CodecRegistry::standard();
        let direct = sample_trace();
        for codec_name in ["ttr3", "csv"] {
            let bytes = encode(codec_name);
            let hint = format!("INT01.{codec_name}");
            let mut d = r
                .open_feed(Box::new(io::Cursor::new(bytes)), Some(Path::new(&hint)), &spool)
                .unwrap();
            let mut events = Vec::new();
            while let Some(e) = d.next_event() {
                events.push(e);
            }
            crate::decoder::finish(d.as_ref()).unwrap();
            assert_eq!(events.len(), direct.events.len(), "codec {codec_name}");
            for (got, want) in events.iter().zip(direct.events.iter()) {
                assert_eq!(got.pc, want.pc, "codec {codec_name}");
                assert_eq!(got.taken, want.taken, "codec {codec_name}");
            }
        }
        // Read-only v2: the committed fixture, fed versus opened.
        let collect = |mut d: Box<dyn TraceDecoder + Send>| {
            let events: Vec<_> = std::iter::from_fn(|| d.next_event()).collect();
            crate::decoder::finish(d.as_ref()).unwrap();
            events
        };
        let fed = r
            .open_feed(Box::new(io::Cursor::new(std::fs::read(gold_v2()).unwrap())), None, &spool)
            .unwrap();
        assert_eq!(collect(fed), collect(r.open(&gold_v2()).unwrap()), "codec ttr");
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn csv_without_magic_is_found_by_its_extension() {
        // A hand-authored CSV that opens with a `# name=` comment has
        // neither the magic line nor the column header at byte 0: the
        // `.csv` extension places it, from a file and from a feed's name
        // hint, and a feed without a hint cannot.
        let text = "# name=HAND01\n# category=HAND\n\
                    pc,kind,taken,target,uops_before,load_addr\n\
                    0x100,cond,1,0x140,5,\n0x104,ret,1,0x108,2,\n";
        let r = CodecRegistry::standard();
        assert!(r.detect_prefix(text.as_bytes(), None).is_err());
        let dir = tmp("csv-ext");
        let path = dir.join("hand.csv");
        std::fs::write(&path, text).unwrap();
        let mut opened = r.open(&path).unwrap();
        assert_eq!((opened.format(), opened.name()), ("csv", "HAND01"));
        assert_eq!(drain_checked(opened.as_mut()).unwrap(), 2);
        let spool = dir.join("spool");
        let feed = |hint: Option<&Path>| {
            r.open_feed(Box::new(io::Cursor::new(text.as_bytes().to_vec())), hint, &spool)
        };
        let mut fed = feed(Some(Path::new("hand.csv"))).unwrap();
        assert_eq!((fed.format(), fed.name()), ("csv", "HAND01"));
        assert_eq!(drain_checked(fed.as_mut()).unwrap(), 2);
        let err = feed(None).err().expect("no magic and no hint");
        assert!(err.to_string().contains("unrecognized trace format"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_with_a_byte_order_mark_decodes_like_without() {
        // A spreadsheet may save either CSV form with a UTF-8 byte-order
        // mark: both must open from a file and from a feed with no hint.
        let r = CodecRegistry::standard();
        let dir = tmp("csv-bom");
        let events = |mut d: Box<dyn TraceDecoder + Send>| {
            let events: Vec<_> = std::iter::from_fn(|| d.next_event()).collect();
            crate::decoder::finish(d.as_ref()).unwrap();
            events
        };
        let hand = b"pc,kind,taken,target,uops_before,load_addr\n0x100,cond,1,0x140,5,\n";
        for plain in [encode("csv"), hand.to_vec()] {
            let bom = [b"\xEF\xBB\xBF".as_slice(), &plain].concat();
            std::fs::write(dir.join("plain.csv"), &plain).unwrap();
            std::fs::write(dir.join("bom.csv"), &bom).unwrap();
            let want = events(r.open(&dir.join("plain.csv")).unwrap());
            assert_eq!(events(r.open(&dir.join("bom.csv")).unwrap()), want);
            let fed = r.open_feed(Box::new(io::Cursor::new(bom)), None, &dir).unwrap();
            assert_eq!(events(fed), want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_stream_is_rejected() {
        let spool = tmp("garbage");
        let r = CodecRegistry::standard();
        let err =
            r.open_feed(Box::new(io::Cursor::new(b"not a trace".to_vec())), None, &spool);
        assert!(err.is_err());
        assert_eq!(spool_entries(&spool), 0);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn truncated_spooled_stream_fails_loudly() {
        let spool = tmp("trunc");
        let r = CodecRegistry::standard();
        let mut bytes = encode("ttr3");
        bytes.truncate(bytes.len() / 2);
        let err = r.open_feed(
            Box::new(io::Cursor::new(bytes)),
            Some(Path::new("INT01.ttr3")),
            &spool,
        );
        assert!(err.is_err());
        // The failed spool is cleaned up eagerly, not leaked.
        assert_eq!(spool_entries(&spool), 0);
        let _ = std::fs::remove_dir_all(&spool);
    }
}
