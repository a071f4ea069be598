//! The `.ttr` v2 binary trace format, read-only.
//!
//! The one native layout the repo writes is `.ttr` v3 ([`crate::ttr3`]):
//! [`TtrCodec`]'s `encode` refuses with `Unsupported`, and a `.ttr` file
//! converts with `tage_trace convert old.ttr new.ttr3`. The committed
//! `tests/data/GOLD01.ttr` pins this decoder, and v2's front-to-back
//! layout is what lets [`crate::feed`] decode it off a live stream
//! without spooling. The event-record codec below is shared with v3.
//!
//! Layout (all multi-byte integers little-endian, varints LEB128):
//!
//! ```text
//! header:
//!   magic            8 bytes  "TAGETTR2"
//!   compression      u8       0 = raw (other values reserved for a real
//!                             compression codec once crates.io access
//!                             lands; readers reject them)
//!   name             u16 len + UTF-8 bytes
//!   category         u16 len + UTF-8 bytes
//!   branch_count     u32      static-branch table entries
//!   event_count      u64      dynamic events
//! branch table (branch_count entries, ascending (pc, kind)):
//!   pc_delta         LEB128   pc − previous entry's pc (first: pc)
//!   kind             u8       0=cond 1=jump 2=ijump 3=call 4=ret
//!   taken_target     ZigZag LEB128   target − pc when taken
//!   nottaken_target  ZigZag LEB128   target − pc when not taken
//! event stream (event_count records):
//!   index_delta      ZigZag LEB128   site index − previous event's index
//!   flags            u8       bit0 taken, bit1 has_load,
//!                             bit2 target override, bits 3–7 zero
//!   uops_before      LEB128   (≤ 65535)
//!   [bit2] target    ZigZag LEB128   target − the site's default target
//!   [bit1] load_addr LEB128
//! ```
//!
//! The branch table deduplicates static sites; per-event targets that
//! match the site's recorded target (the overwhelmingly common case) cost
//! nothing, and the rare divergent target rides an explicit override, so
//! the format is lossless for arbitrary event streams. Decoding holds the
//! branch table in memory and nothing else — memory is bounded by the
//! static footprint, not the trace length.

use crate::decoder::TraceDecoder;
use crate::varint;
use simkit::predictor::BranchKind;
use std::io::{self, Read, Write};
use std::path::Path;
use workloads::event::{EventSource, Trace, TraceEvent};

/// Leading magic of a `.ttr` v2 file.
pub const TTR_MAGIC: &[u8; 8] = b"TAGETTR2";

/// Compression scheme byte: raw (the only scheme implemented offline).
pub const COMPRESSION_RAW: u8 = 0;

/// Decoder cap on static-branch-table entries: bounds `open` memory on
/// corrupt or adversarial headers.
pub const MAX_BRANCH_TABLE: u32 = 1 << 24;

pub(crate) const FLAG_TAKEN: u8 = 1 << 0;
pub(crate) const FLAG_LOAD: u8 = 1 << 1;
pub(crate) const FLAG_TARGET: u8 = 1 << 2;

pub(crate) fn kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::Conditional => 0,
        BranchKind::DirectJump => 1,
        BranchKind::IndirectJump => 2,
        BranchKind::Call => 3,
        BranchKind::Return => 4,
    }
}

pub(crate) fn code_kind(c: u8) -> io::Result<BranchKind> {
    Ok(match c {
        0 => BranchKind::Conditional,
        1 => BranchKind::DirectJump,
        2 => BranchKind::IndirectJump,
        3 => BranchKind::Call,
        4 => BranchKind::Return,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid branch kind code {other}"),
            ))
        }
    })
}

pub(crate) fn write_str(w: &mut dyn Write, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "string exceeds 64KiB"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(bytes)
}

pub(crate) fn read_str(r: &mut dyn Read) -> io::Result<String> {
    let mut len = [0u8; 2];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; u16::from_le_bytes(len) as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// One static-branch-table entry (shared with the v3 container, whose
/// table differs only in ordering and placement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TableEntry {
    pub(crate) pc: u64,
    pub(crate) kind: BranchKind,
    pub(crate) taken_target: u64,
    pub(crate) nottaken_target: u64,
}

impl TableEntry {
    pub(crate) fn default_target(&self, taken: bool) -> u64 {
        if taken {
            self.taken_target
        } else {
            self.nottaken_target
        }
    }
}

/// Encodes one event record (index delta + flags + fields) against its
/// site entry. Both container versions use this exact record layout; they
/// differ only in which table the index refers to and where `prev_index`
/// resets.
pub(crate) fn encode_event_record(
    w: &mut dyn Write,
    site: &TableEntry,
    index: usize,
    prev_index: &mut i64,
    e: &TraceEvent,
) -> io::Result<()> {
    let default = site.default_target(e.taken);
    let mut flags = 0u8;
    if e.taken {
        flags |= FLAG_TAKEN;
    }
    if e.load_addr.is_some() {
        flags |= FLAG_LOAD;
    }
    if e.target != default {
        flags |= FLAG_TARGET;
    }
    varint::write_i64(w, index as i64 - *prev_index)?;
    w.write_all(&[flags])?;
    varint::write_u64(w, u64::from(e.uops_before))?;
    if flags & FLAG_TARGET != 0 {
        varint::write_i64(w, e.target.wrapping_sub(default) as i64)?;
    }
    if let Some(addr) = e.load_addr {
        varint::write_u64(w, addr)?;
    }
    *prev_index = index as i64;
    Ok(())
}

/// Decodes one event record against `table` — the inverse of
/// [`encode_event_record`], and the one record parser of both container
/// versions. It is generic over the byte source, so each caller gets its
/// own monomorphized copy with no per-byte dynamic dispatch: v3 runs it
/// over a decompressed block slice (`R = &[u8]`), v2 over its buffered
/// stream.
pub(crate) fn decode_event_record<R: Read + ?Sized>(
    r: &mut R,
    table: &[TableEntry],
    prev_index: &mut i64,
) -> io::Result<TraceEvent> {
    let index = prev_index.wrapping_add(varint::read_i64(r)?);
    let site = usize::try_from(index)
        .ok()
        .and_then(|i| table.get(i))
        .copied()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("event site index {index} outside the branch table"),
            )
        })?;
    *prev_index = index;
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte)?;
    let flags = byte[0];
    if flags & !(FLAG_TAKEN | FLAG_LOAD | FLAG_TARGET) != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("invalid event flags {flags:#04x}"),
        ));
    }
    let taken = flags & FLAG_TAKEN != 0;
    let uops = varint::read_u64(r)?;
    let uops_before = u16::try_from(uops)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "uops_before exceeds u16"))?;
    let mut target = site.default_target(taken);
    if flags & FLAG_TARGET != 0 {
        target = target.wrapping_add(varint::read_i64(r)? as u64);
    }
    let load_addr =
        if flags & FLAG_LOAD != 0 { Some(varint::read_u64(r)?) } else { None };
    Ok(TraceEvent { pc: site.pc, kind: site.kind, taken, target, uops_before, load_addr })
}

/// A streaming `.ttr` v2 decoder: holds the header and static-branch table,
/// decodes events one at a time.
pub struct TtrReader<R> {
    name: String,
    category: String,
    table: Vec<TableEntry>,
    remaining: u64,
    total: u64,
    prev_index: i64,
    reader: R,
    error: Option<io::Error>,
}

impl<R: Read> TtrReader<R> {
    /// Reads the header and branch table, leaving `reader` positioned at
    /// the event stream.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on bad magic, an unsupported compression
    /// scheme, an oversized branch table, or corrupt table entries, plus
    /// any I/O error.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != TTR_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad .ttr magic"));
        }
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if byte[0] != COMPRESSION_RAW {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported .ttr compression scheme {}", byte[0]),
            ));
        }
        let name = read_str(&mut reader)?;
        let category = read_str(&mut reader)?;
        let mut n32 = [0u8; 4];
        reader.read_exact(&mut n32)?;
        let branch_count = u32::from_le_bytes(n32);
        if branch_count > MAX_BRANCH_TABLE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("branch table of {branch_count} entries exceeds the cap"),
            ));
        }
        let mut n64 = [0u8; 8];
        reader.read_exact(&mut n64)?;
        let total = u64::from_le_bytes(n64);
        // The count is still untrusted until the table bytes actually
        // decode: cap the up-front allocation so a ~30-byte crafted header
        // cannot reserve hundreds of MiB before the read fails.
        let mut table = Vec::with_capacity((branch_count as usize).min(1 << 16));
        let mut prev_pc = 0u64;
        for _ in 0..branch_count {
            let pc = prev_pc.wrapping_add(varint::read_u64(&mut reader)?);
            reader.read_exact(&mut byte)?;
            let kind = code_kind(byte[0])?;
            let taken_target = pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            let nottaken_target = pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            table.push(TableEntry { pc, kind, taken_target, nottaken_target });
            prev_pc = pc;
        }
        Ok(Self {
            name,
            category,
            table,
            remaining: total,
            total,
            prev_index: 0,
            reader,
            error: None,
        })
    }

    /// Static-branch-table size.
    pub fn static_branches(&self) -> usize {
        self.table.len()
    }

    fn decode_event(&mut self) -> io::Result<TraceEvent> {
        decode_event_record(&mut self.reader, &self.table, &mut self.prev_index)
    }
}

impl<R: Read> EventSource for TtrReader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn category(&self) -> &str {
        &self.category
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        if self.remaining == 0 || self.error.is_some() {
            return None;
        }
        match self.decode_event() {
            Ok(e) => {
                self.remaining -= 1;
                Some(e)
            }
            Err(e) => {
                // EventSource has no error channel; record the failure and
                // end the stream so TraceDecoder::decode_error surfaces it.
                self.error = Some(e);
                None
            }
        }
    }
}

impl<R: Read> TraceDecoder for TtrReader<R> {
    fn format(&self) -> &'static str {
        "ttr"
    }

    fn decode_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn expected_events(&self) -> Option<u64> {
        Some(self.total)
    }

    fn remaining_events(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

/// The `.ttr` v2 [`crate::TraceCodec`]: decodes, autodetects and feeds;
/// refuses to encode.
pub struct TtrCodec;

impl crate::TraceCodec for TtrCodec {
    fn name(&self) -> &'static str {
        "ttr"
    }

    fn description(&self) -> &'static str {
        "native .ttr v2 (read-only): branch table + LEB128-packed event stream (lossless)"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["ttr"]
    }

    fn matches_magic(&self, prefix: &[u8]) -> bool {
        prefix.starts_with(TTR_MAGIC)
    }

    fn encode(&self, _w: &mut dyn Write, _trace: &Trace) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            ".ttr v2 is read-only; write .ttr3 instead",
        ))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>> {
        let f = std::fs::File::open(path)?;
        Ok(Box::new(TtrReader::new(io::BufReader::new(f))?))
    }

    fn open_stream(
        &self,
        reader: Box<dyn Read + Send>,
        _fallback_name: String,
        _fallback_category: String,
    ) -> io::Result<crate::feed::FeedOpen> {
        // Table-first layout: v2 decodes front-to-back off a live stream
        // (name/category come from the container, fallbacks unused).
        Ok(crate::feed::FeedOpen::Streaming(Box::new(TtrReader::new(io::BufReader::new(
            reader,
        ))?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_vec(buf: &[u8]) -> io::Result<Trace> {
        let mut r = TtrReader::new(buf)?;
        let mut events = Vec::new();
        while let Some(e) = r.next_event() {
            events.push(e);
        }
        if let Some(e) = r.error.take() {
            return Err(e);
        }
        Ok(Trace { name: r.name.clone(), category: r.category.clone(), events })
    }

    /// The committed v2 fixture (every branch kind, loads, a divergent
    /// target); `tests/golden.rs` pins what it decodes to.
    fn gold() -> Vec<u8> {
        std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/GOLD01.ttr"))
            .unwrap()
    }

    /// A hand-assembled file: one conditional site at pc 4 (taken target
    /// 8) and one taken event on it. The event record is the last 3 bytes.
    fn one_site_file() -> Vec<u8> {
        let mut buf = TTR_MAGIC.to_vec();
        buf.push(COMPRESSION_RAW);
        write_str(&mut buf, "x").unwrap();
        write_str(&mut buf, "X").unwrap();
        buf.extend(1u32.to_le_bytes());
        buf.extend(1u64.to_le_bytes());
        buf.extend([4, 0, 8, 0]); // pc_delta, kind, taken +4 (zigzag), not-taken +0
        buf.extend([0, FLAG_TAKEN, 0]); // index_delta, flags, uops_before
        buf
    }

    #[test]
    fn hand_assembled_file_decodes() {
        let t = decode_vec(&one_site_file()).unwrap();
        let want = TraceEvent {
            pc: 4,
            kind: BranchKind::Conditional,
            taken: true,
            target: 8,
            uops_before: 0,
            load_addr: None,
        };
        assert_eq!(t.events, [want]);
    }

    #[test]
    fn rejects_bad_magic_and_compression() {
        assert!(decode_vec(b"NOTATTR2________").is_err());
        let mut buf = gold();
        assert!(decode_vec(&buf).is_ok());
        buf[8] = 7; // unknown compression scheme
        assert!(decode_vec(&buf).is_err());
    }

    #[test]
    fn rejects_truncation_and_oversized_table() {
        let mut buf = gold();
        buf.truncate(buf.len() / 3);
        assert!(decode_vec(&buf).is_err());
        // Header claiming a huge branch table must be rejected before any
        // allocation of that size.
        let mut buf = one_site_file();
        let bc_pos = 8 + 1 + 2 + 1 + 2 + 1; // magic+comp+name("x")+cat("X")
        buf[bc_pos..bc_pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_vec(&buf).is_err());
    }

    #[test]
    fn rejects_out_of_range_event_index() {
        let mut buf = one_site_file();
        // Bump the event's index delta to point past the one-entry table.
        let ev_start = buf.len() - 3;
        buf[ev_start] = 0x04; // zigzag(2)
        assert!(decode_vec(&buf).is_err());
    }

    #[test]
    fn encode_is_refused_and_names_ttr3() {
        let t = Trace { name: "x".into(), category: "X".into(), events: vec![] };
        let mut buf = Vec::new();
        let err = crate::TraceCodec::encode(&TtrCodec, &mut buf, &t).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains(".ttr3"), "{err}");
        assert!(buf.is_empty());
    }
}
