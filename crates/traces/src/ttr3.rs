//! The native `.ttr` v3 binary trace format: streaming, block-compressed,
//! table-at-end — the one native layout the repo writes.
//!
//! v2 ([`crate::ttr`], now read-only) puts the static-branch table
//! *before* the event stream, which forces an encoder to see every event
//! before it can write byte one. v3 moves the table to a footer located
//! by a fixed-size trailer, so the writer streams events as they arrive
//! and its peak memory is one block buffer plus the static footprint,
//! independent of the trace length. Blocks are compressed through the
//! pluggable [`crate::scheme`] registry named by the header's scheme
//! byte; `tage_trace record` and [`Ttr3Codec`] always write
//! [`RECORD_SCHEME`] (`lz` blocks plus the seekable block index), and
//! the raw scheme and index-less files stay readable.
//!
//! Layout (all multi-byte integers little-endian, varints LEB128):
//!
//! ```text
//! header:
//!   magic            8 bytes  "TAGETTR3"
//!   scheme           u8       crate::scheme registry byte (0=raw, 1=lz)
//!   name             u16 len + UTF-8 bytes
//!   category         u16 len + UTF-8 bytes
//! block frames (repeated):
//!   event_count      u32      events in this block; 0 = end of blocks
//!   raw_len          u32      decompressed payload bytes
//!   comp_len         u32      on-disk payload bytes
//!   payload          comp_len bytes, scheme-compressed event records
//! branch table (branch_count entries, first-appearance order):
//!   pc_delta         ZigZag LEB128   pc − previous entry's pc (first: pc)
//!   kind             u8       0=cond 1=jump 2=ijump 3=call 4=ret
//!   taken_target     ZigZag LEB128   target − pc when taken
//!   nottaken_target  ZigZag LEB128   target − pc when not taken
//! trailer (28 bytes, fixed):
//!   branch_count     u32
//!   event_count      u64
//!   table_offset     u64      file offset of the branch table
//!   end magic        8 bytes  "TAGEEND3"
//! ```
//!
//! A decompressed block payload is a run of v2 event records
//! ([`crate::ttr::encode_event_record`]) whose site indices refer to the
//! footer table; the index delta baseline resets to 0 at every block
//! boundary, so blocks decode independently. Site defaults are
//! first-observed per side, exactly as in v2. The writer needs only
//! `Write` (it counts bytes to learn `table_offset`); the reader needs
//! `Read + Seek` to fetch the footer before streaming blocks.

use crate::decoder::{ContainerInfo, TraceDecoder};
use crate::scheme::{self, BlockScheme, MAX_BLOCK_RAW};
use crate::ttr::{
    code_kind, decode_event_record, encode_event_record, kind_code, read_str, write_str,
    TableEntry, MAX_BRANCH_TABLE,
};
use crate::varint;
use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use workloads::event::{EventBlock, EventSource, Trace, TraceEvent};

/// Leading magic of a `.ttr` v3 file.
pub const TTR3_MAGIC: &[u8; 8] = b"TAGETTR3";

/// Trailing magic closing the fixed trailer.
pub const TTR3_END_MAGIC: &[u8; 8] = b"TAGEEND3";

/// Feature bit in the header scheme byte: the file carries a seekable
/// block-index footer section between the frame sentinel and the branch
/// table. The compression scheme proper lives in the low 7 bits, so
/// pre-index readers reject flagged files loudly (unknown scheme byte)
/// instead of misparsing them, and flagged writers stay readable by any
/// index-aware reader even when the index is ignored.
pub const TTR3_INDEX_FLAG: u8 = 0x80;

/// Magic opening the block-index footer section.
pub const TTR3_INDEX_MAGIC: &[u8; 8] = b"TAGEIDX3";

/// The scheme byte every recorded file carries: `lz` blocks plus the
/// seekable block index (16 bytes per ~64 KiB block, which buys O(1)
/// `skip` for sampled simulation).
pub const RECORD_SCHEME: u8 = 1 | TTR3_INDEX_FLAG;

/// Fixed trailer size: branch_count u32 + event_count u64 + table_offset
/// u64 + end magic.
pub const TTR3_TRAILER_LEN: u64 = 4 + 8 + 8 + 8;

/// Default decompressed-block flush threshold. Small enough that the
/// writer's working set stays cache-resident, large enough that the LZ
/// scheme sees whole loop periods.
pub const DEFAULT_BLOCK_RAW: usize = 64 * 1024;

/// Cap on events per block (second flush trigger, bounds the frame field).
pub const MAX_BLOCK_EVENTS: u32 = 1 << 20;

/// Writer-side summary returned by [`Ttr3Writer::finish`]: the bounded-
/// memory recording evidence (`peak_block_raw`) plus the compression
/// ledger feeding `inspect`/EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ttr3Summary {
    /// Events written.
    pub events: u64,
    /// Static-branch-table entries.
    pub static_branches: usize,
    /// Blocks flushed.
    pub blocks: u64,
    /// Total decompressed payload bytes.
    pub raw_bytes: u64,
    /// Total compressed payload bytes.
    pub comp_bytes: u64,
    /// Largest decompressed block buffer held at any point — the writer's
    /// peak transient allocation besides the static table.
    pub peak_block_raw: usize,
}

struct CountingWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct SiteSlot {
    pc: u64,
    kind: u8,
    taken_target: Option<u64>,
    nottaken_target: Option<u64>,
}

impl SiteSlot {
    fn entry(&self) -> io::Result<TableEntry> {
        Ok(TableEntry {
            pc: self.pc,
            kind: code_kind(self.kind)?,
            taken_target: self.taken_target.unwrap_or(self.pc),
            nottaken_target: self.nottaken_target.unwrap_or(self.pc),
        })
    }
}

/// A single-pass, bounded-memory `.ttr` v3 encoder. Push events as they
/// arrive; memory held is one block buffer (~[`DEFAULT_BLOCK_RAW`]) plus
/// the growing static-branch table, never the event stream.
pub struct Ttr3Writer<W: Write> {
    out: CountingWriter<W>,
    scheme: &'static dyn BlockScheme,
    site_index: HashMap<(u64, u8), u32>,
    table: Vec<SiteSlot>,
    raw: Vec<u8>,
    block_events: u32,
    prev_index: i64,
    block_target: usize,
    summary: Ttr3Summary,
    // `Some` when the header scheme byte carries [`TTR3_INDEX_FLAG`]:
    // one `(frame_offset, cum_events)` pair per flushed block, emitted as
    // the footer index section by `finish`.
    block_index: Option<Vec<(u64, u64)>>,
}

impl<W: Write> Ttr3Writer<W> {
    /// Writes the header and prepares for streaming under the given
    /// scheme byte. OR [`TTR3_INDEX_FLAG`] into `scheme_id` to also
    /// record the seekable block-index footer; the low 7 bits name the
    /// compression scheme.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` for an unregistered scheme byte or
    /// over-long name/category, plus any writer I/O error.
    pub fn new(writer: W, name: &str, category: &str, scheme_id: u8) -> io::Result<Self> {
        let scheme = scheme::by_id(scheme_id & !TTR3_INDEX_FLAG).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "no registered compression scheme for byte {}",
                    scheme_id & !TTR3_INDEX_FLAG
                ),
            )
        })?;
        let mut out = CountingWriter { inner: writer, written: 0 };
        out.write_all(TTR3_MAGIC)?;
        out.write_all(&[scheme_id])?;
        write_str(&mut out, name)?;
        write_str(&mut out, category)?;
        Ok(Self {
            out,
            scheme,
            site_index: HashMap::new(),
            table: Vec::new(),
            raw: Vec::with_capacity(DEFAULT_BLOCK_RAW + 64),
            block_events: 0,
            prev_index: 0,
            block_target: DEFAULT_BLOCK_RAW,
            summary: Ttr3Summary::default(),
            block_index: (scheme_id & TTR3_INDEX_FLAG != 0).then(Vec::new),
        })
    }

    /// Overrides the block flush threshold (mainly for tests; clamped to
    /// at least one event per block by construction).
    pub fn with_block_target(mut self, bytes: usize) -> Self {
        self.block_target = bytes.max(1);
        self
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the static footprint exceeds
    /// [`MAX_BRANCH_TABLE`] and any writer I/O error from a block flush.
    pub fn push(&mut self, e: &TraceEvent) -> io::Result<()> {
        let key = (e.pc, kind_code(e.kind));
        let index = match self.site_index.get(&key) {
            Some(&i) => i as usize,
            None => {
                if self.table.len() as u64 >= u64::from(MAX_BRANCH_TABLE) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "static branch count exceeds the table cap",
                    ));
                }
                let i = self.table.len();
                self.site_index.insert(key, i as u32);
                self.table.push(SiteSlot {
                    pc: key.0,
                    kind: key.1,
                    taken_target: None,
                    nottaken_target: None,
                });
                i
            }
        };
        let slot = &mut self.table[index];
        let side = if e.taken { &mut slot.taken_target } else { &mut slot.nottaken_target };
        // First-observed target per side becomes the decoder's default —
        // including for this very event, which therefore needs no override.
        side.get_or_insert(e.target);
        let entry = slot.entry()?;
        encode_event_record(&mut self.raw, &entry, index, &mut self.prev_index, e)?;
        self.block_events += 1;
        self.summary.events += 1;
        if self.raw.len() >= self.block_target || self.block_events >= MAX_BLOCK_EVENTS {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block_events == 0 {
            return Ok(());
        }
        if let Some(index) = &mut self.block_index {
            // Absolute offset of this frame's header, and the events that
            // precede the block (summary.events already counts this
            // block's events).
            index.push((self.out.written, self.summary.events - u64::from(self.block_events)));
        }
        self.summary.peak_block_raw = self.summary.peak_block_raw.max(self.raw.len());
        let comp = self.scheme.compress(&self.raw);
        self.out.write_all(&self.block_events.to_le_bytes())?;
        self.out.write_all(&(self.raw.len() as u32).to_le_bytes())?;
        self.out.write_all(&(comp.len() as u32).to_le_bytes())?;
        self.out.write_all(&comp)?;
        self.summary.blocks += 1;
        self.summary.raw_bytes += self.raw.len() as u64;
        self.summary.comp_bytes += comp.len() as u64;
        self.raw.clear();
        self.block_events = 0;
        self.prev_index = 0;
        Ok(())
    }

    /// Flushes the final block and writes the footer table and trailer.
    ///
    /// # Errors
    ///
    /// Any writer I/O error.
    pub fn finish(mut self) -> io::Result<Ttr3Summary> {
        self.flush_block()?;
        self.out.write_all(&0u32.to_le_bytes())?;
        if let Some(index) = &self.block_index {
            // The index section sits between the frame sentinel and the
            // branch table; the trailer's table_offset still names the
            // table, so the section is located purely by the scheme-byte
            // feature flag.
            self.out.write_all(TTR3_INDEX_MAGIC)?;
            self.out.write_all(&(index.len() as u32).to_le_bytes())?;
            for (frame_offset, cum_events) in index {
                self.out.write_all(&frame_offset.to_le_bytes())?;
                self.out.write_all(&cum_events.to_le_bytes())?;
            }
        }
        let table_offset = self.out.written;
        let mut prev_pc = 0u64;
        for slot in &self.table {
            let t = slot.entry()?;
            varint::write_i64(&mut self.out, t.pc.wrapping_sub(prev_pc) as i64)?;
            self.out.write_all(&[kind_code(t.kind)])?;
            varint::write_i64(&mut self.out, t.taken_target.wrapping_sub(t.pc) as i64)?;
            varint::write_i64(&mut self.out, t.nottaken_target.wrapping_sub(t.pc) as i64)?;
            prev_pc = t.pc;
        }
        self.out.write_all(&(self.table.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.summary.events.to_le_bytes())?;
        self.out.write_all(&table_offset.to_le_bytes())?;
        self.out.write_all(TTR3_END_MAGIC)?;
        self.out.flush()?;
        self.summary.static_branches = self.table.len();
        Ok(self.summary)
    }
}

/// Serializes a materialized trace as `.ttr` v3 under the given scheme.
///
/// # Errors
///
/// Propagates [`Ttr3Writer`] errors.
pub fn encode(w: &mut dyn Write, trace: &Trace, scheme_id: u8) -> io::Result<Ttr3Summary> {
    let mut writer = Ttr3Writer::new(w, &trace.name, &trace.category, scheme_id)?;
    for e in &trace.events {
        writer.push(e)?;
    }
    writer.finish()
}

/// A streaming `.ttr` v3 decoder: reads the footer table up front (one
/// seek), then streams blocks, holding one decompressed block at a time.
/// The compressed and decompressed block buffers are reused from block to
/// block, and events decode straight from the decompressed slice.
pub struct Ttr3Reader<R> {
    name: String,
    category: String,
    table: Vec<TableEntry>,
    scheme: &'static dyn BlockScheme,
    info: ContainerInfo,
    reader: R,
    remaining: u64,
    total: u64,
    comp: Vec<u8>,
    block: Vec<u8>,
    block_pos: usize,
    block_left: u32,
    prev_index: i64,
    error: Option<io::Error>,
    // `Some` when the file carries the [`TTR3_INDEX_FLAG`] footer: one
    // `(frame_offset, cum_events)` pair per block, validated entry-by-
    // entry against the open-time frame-chain walk — `skip` can therefore
    // never mis-seek on a corrupt index (corruption fails at open).
    block_index: Option<Vec<(u64, u64)>>,
}

impl<R: Read + Seek> Ttr3Reader<R> {
    /// Reads the header, trailer, and footer table, validates the block
    /// frame chain, and leaves the reader positioned at the first block.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on bad leading/trailing magic, an
    /// unregistered scheme byte, an oversized branch table or block
    /// frame, a frame chain that does not land exactly on the footer, or
    /// a block-frame event total disagreeing with the trailer — plus any
    /// I/O error.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != TTR3_MAGIC {
            return Err(bad("bad .ttr v3 magic".to_string()));
        }
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        let has_index = byte[0] & TTR3_INDEX_FLAG != 0;
        let scheme_id = byte[0] & !TTR3_INDEX_FLAG;
        let scheme = scheme::by_id(scheme_id).ok_or_else(|| {
            bad(format!("unknown .ttr v3 compression scheme byte {scheme_id}"))
        })?;
        let name = read_str(&mut reader)?;
        let category = read_str(&mut reader)?;
        let events_start = reader.stream_position()?;

        let file_len = reader.seek(SeekFrom::End(0))?;
        if file_len < events_start + 4 + TTR3_TRAILER_LEN {
            return Err(bad("file too short for a .ttr v3 trailer".to_string()));
        }
        let trailer_start = file_len - TTR3_TRAILER_LEN;
        reader.seek(SeekFrom::Start(trailer_start))?;
        let mut n32 = [0u8; 4];
        let mut n64 = [0u8; 8];
        reader.read_exact(&mut n32)?;
        let branch_count = u32::from_le_bytes(n32);
        reader.read_exact(&mut n64)?;
        let total = u64::from_le_bytes(n64);
        reader.read_exact(&mut n64)?;
        let table_offset = u64::from_le_bytes(n64);
        reader.read_exact(&mut magic)?;
        if &magic != TTR3_END_MAGIC {
            return Err(bad("bad .ttr v3 end magic".to_string()));
        }
        if branch_count > MAX_BRANCH_TABLE {
            return Err(bad(format!("branch table of {branch_count} entries exceeds the cap")));
        }
        if table_offset < events_start + 4 || table_offset > trailer_start {
            return Err(bad(format!("table offset {table_offset} outside the file body")));
        }

        reader.seek(SeekFrom::Start(table_offset))?;
        let mut table = Vec::with_capacity((branch_count as usize).min(1 << 16));
        let mut prev_pc = 0u64;
        for _ in 0..branch_count {
            let pc = prev_pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            reader.read_exact(&mut byte)?;
            let kind = code_kind(byte[0])?;
            let taken_target = pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            let nottaken_target = pc.wrapping_add(varint::read_i64(&mut reader)? as u64);
            table.push(TableEntry { pc, kind, taken_target, nottaken_target });
            prev_pc = pc;
        }
        if reader.stream_position()? != trailer_start {
            return Err(bad("branch table does not end at the trailer".to_string()));
        }

        // Walk the frame chain once (headers only, payloads skipped) to
        // validate it and collect the block/compression vitals — and, as
        // a side product, the ground-truth block offsets the footer index
        // is checked against.
        reader.seek(SeekFrom::Start(events_start))?;
        let mut info = ContainerInfo {
            scheme_id,
            scheme: scheme.name(),
            blocks: 0,
            raw_bytes: 0,
            comp_bytes: 0,
            index_bytes: None,
        };
        let mut frame_events = 0u64;
        let mut walk_index: Vec<(u64, u64)> = Vec::new();
        loop {
            let frame_offset = reader.stream_position()?;
            let (events, raw_len, comp_len) = read_frame(&mut reader)?;
            if events == 0 {
                break;
            }
            walk_index.push((frame_offset, frame_events));
            info.blocks += 1;
            info.raw_bytes += u64::from(raw_len);
            info.comp_bytes += u64::from(comp_len);
            frame_events += u64::from(events);
            let pos = reader.stream_position()?;
            if u64::from(comp_len) > table_offset.saturating_sub(pos) {
                return Err(bad(format!("block payload of {comp_len} bytes overruns the table")));
            }
            reader.seek(SeekFrom::Current(i64::from(comp_len)))?;
        }
        let block_index = if has_index {
            // The index section sits right after the frame sentinel. It
            // must agree with the walk exactly — a corrupt or truncated
            // index fails the open loudly instead of mis-seeking later.
            reader.read_exact(&mut magic)?;
            if &magic != TTR3_INDEX_MAGIC {
                return Err(bad("bad .ttr v3 block-index magic".to_string()));
            }
            reader.read_exact(&mut n32)?;
            let count = u32::from_le_bytes(n32);
            if u64::from(count) != info.blocks {
                return Err(bad(format!(
                    "block index declares {count} blocks, the frame chain holds {}",
                    info.blocks
                )));
            }
            for (i, &(frame_offset, cum_events)) in walk_index.iter().enumerate() {
                reader.read_exact(&mut n64)?;
                let idx_offset = u64::from_le_bytes(n64);
                reader.read_exact(&mut n64)?;
                let idx_events = u64::from_le_bytes(n64);
                if (idx_offset, idx_events) != (frame_offset, cum_events) {
                    return Err(bad(format!(
                        "block index entry {i} ({idx_offset}, {idx_events}) disagrees with \
                         the frame chain ({frame_offset}, {cum_events})"
                    )));
                }
            }
            info.index_bytes = Some(8 + 4 + 16 * u64::from(count));
            Some(walk_index)
        } else {
            None
        };
        if reader.stream_position()? != table_offset {
            return Err(bad("block chain does not end at the branch table".to_string()));
        }
        if frame_events != total {
            return Err(bad(format!(
                "block frames hold {frame_events} events, trailer declares {total}"
            )));
        }
        reader.seek(SeekFrom::Start(events_start))?;

        Ok(Self {
            name,
            category,
            table,
            scheme,
            info,
            reader,
            remaining: total,
            total,
            comp: Vec::new(),
            block: Vec::new(),
            block_pos: 0,
            block_left: 0,
            prev_index: 0,
            error: None,
            block_index,
        })
    }

    /// Static-branch-table size.
    pub fn static_branches(&self) -> usize {
        self.table.len()
    }

    fn refill_block(&mut self) -> io::Result<()> {
        let (events, raw_len, comp_len) = read_frame(&mut self.reader)?;
        if events == 0 {
            // remaining > 0 here (decode_run checks first); the count
            // shortfall is reported through remaining_events/finish.
            return Err(bad("block chain ended before the declared event count".to_string()));
        }
        self.comp.resize(comp_len as usize, 0);
        self.reader.read_exact(&mut self.comp)?;
        self.scheme.decompress_into(&self.comp, raw_len as usize, &mut self.block)?;
        self.block_pos = 0;
        self.block_left = events;
        self.prev_index = 0;
        Ok(())
    }

    /// Decodes up to `max` events, handing each to `sink` in stream order
    /// and refilling from the next block frame whenever the current block
    /// is spent; returns how many were delivered. The first error ends the
    /// stream: it is recorded for [`TraceDecoder::decode_error`], the
    /// events before it are delivered, and `remaining` counts exactly the
    /// events not delivered. Once a block's last declared event is decoded,
    /// the block must have no bytes left over — the last block included.
    /// `next_event`, `next_block` and `skip` all decode through here, so
    /// they stop at the same place on the same bytes.
    fn decode_run(&mut self, max: usize, mut sink: impl FnMut(TraceEvent)) -> usize {
        let mut delivered = 0;
        while delivered < max && self.remaining > 0 && self.error.is_none() {
            if self.block_left == 0 {
                if let Err(e) = self.refill_block() {
                    self.error = Some(e);
                    break;
                }
            }
            let run = (max - delivered)
                .min(self.block_left as usize)
                .min(usize::try_from(self.remaining).unwrap_or(usize::MAX));
            let mut bytes = &self.block[self.block_pos..];
            let before = bytes.len();
            let mut decoded = 0;
            let mut failed = None;
            while decoded < run {
                match decode_event_record(&mut bytes, &self.table, &mut self.prev_index) {
                    Ok(e) => {
                        sink(e);
                        decoded += 1;
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            self.block_pos += before - bytes.len();
            self.block_left -= decoded as u32;
            self.remaining -= decoded as u64;
            delivered += decoded;
            if failed.is_some() {
                self.error = failed;
            } else if self.block_left == 0 && self.block_pos != self.block.len() {
                self.error = Some(bad(format!(
                    "{} undecoded bytes left at the end of a block",
                    self.block.len() - self.block_pos
                )));
            }
        }
        delivered
    }
}

fn read_frame<R: Read>(r: &mut R) -> io::Result<(u32, u32, u32)> {
    let mut n32 = [0u8; 4];
    r.read_exact(&mut n32)?;
    let events = u32::from_le_bytes(n32);
    if events == 0 {
        return Ok((0, 0, 0));
    }
    r.read_exact(&mut n32)?;
    let raw_len = u32::from_le_bytes(n32);
    r.read_exact(&mut n32)?;
    let comp_len = u32::from_le_bytes(n32);
    if events > MAX_BLOCK_EVENTS {
        return Err(bad(format!("block of {events} events exceeds the cap")));
    }
    if raw_len as usize > MAX_BLOCK_RAW {
        return Err(bad(format!("block of {raw_len} raw bytes exceeds the cap")));
    }
    if comp_len as usize > MAX_BLOCK_RAW + (MAX_BLOCK_RAW >> 3) {
        return Err(bad(format!("block of {comp_len} compressed bytes exceeds the cap")));
    }
    Ok((events, raw_len, comp_len))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl<R: Read + Seek> EventSource for Ttr3Reader<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn category(&self) -> &str {
        &self.category
    }

    fn next_event(&mut self) -> Option<TraceEvent> {
        // EventSource has no error channel: decode_run records a failure
        // and ends the stream so TraceDecoder::decode_error surfaces it.
        let mut event = None;
        self.decode_run(1, |e| event = Some(e));
        event
    }

    fn next_block(&mut self, block: &mut EventBlock, max: usize) -> usize {
        block.events.clear();
        let events = &mut block.events;
        self.decode_run(max, |e| events.push(e))
    }

    fn skip(&mut self, n: u64) -> u64 {
        let n = n.min(self.remaining);
        if n == 0 || self.error.is_some() {
            return 0;
        }
        let start = self.total - self.remaining;
        let target = start + n;
        if let Some(index) = &self.block_index {
            // Events decoded so far sit `block_left` short of the current
            // block's end; a target past that end is reached by seeking
            // straight to the frame holding it (the index was validated
            // against the frame chain at open), never by decompressing the
            // blocks in between.
            if target > start + u64::from(self.block_left) {
                let i = index.partition_point(|&(_, cum)| cum <= target) - 1;
                let (frame_offset, cum_events) = index[i];
                match self.reader.seek(SeekFrom::Start(frame_offset)) {
                    Ok(_) => {
                        self.block.clear();
                        self.block_pos = 0;
                        self.block_left = 0;
                        self.prev_index = 0;
                        self.remaining = self.total - cum_events;
                    }
                    Err(e) => {
                        self.error = Some(e);
                        return 0;
                    }
                }
            }
        }
        // Decode-discard the within-block remainder to land exactly on
        // `target` (the whole distance, for index-less files).
        let left = target - (self.total - self.remaining);
        self.decode_run(usize::try_from(left).unwrap_or(usize::MAX), |_| {});
        (self.total - self.remaining) - start
    }
}

impl<R: Read + Seek> TraceDecoder for Ttr3Reader<R> {
    fn format(&self) -> &'static str {
        "ttr3"
    }

    fn container_info(&self) -> Option<ContainerInfo> {
        Some(self.info)
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

/// The `.ttr` v3 [`crate::TraceCodec`]. Encodes under
/// [`RECORD_SCHEME`]; decoding reads whatever scheme the file names.
pub struct Ttr3Codec;

impl crate::TraceCodec for Ttr3Codec {
    fn name(&self) -> &'static str {
        "ttr3"
    }

    fn description(&self) -> &'static str {
        "native .ttr v3: streaming table-at-end container, block-compressed (lossless)"
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["ttr3"]
    }

    fn matches_magic(&self, prefix: &[u8]) -> bool {
        prefix.starts_with(TTR3_MAGIC)
    }

    fn encode(&self, w: &mut dyn Write, trace: &Trace) -> io::Result<()> {
        encode(w, trace, RECORD_SCHEME).map(|_| ())
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn TraceDecoder + Send>> {
        let f = std::fs::File::open(path)?;
        Ok(Box::new(Ttr3Reader::new(io::BufReader::new(f))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use workloads::suite::{by_name, Scale};

    fn encode_vec(t: &Trace, scheme_id: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(&mut buf, t, scheme_id).unwrap();
        buf
    }

    fn decode_vec(buf: Vec<u8>) -> io::Result<Trace> {
        let mut r = Ttr3Reader::new(Cursor::new(buf))?;
        let name = r.name.clone();
        let category = r.category.clone();
        let mut events = Vec::new();
        while let Some(e) = r.next_event() {
            events.push(e);
        }
        crate::decoder::finish(&r)?;
        Ok(Trace { name, category, events })
    }

    #[test]
    fn suite_trace_round_trips_under_both_schemes() {
        let t = by_name("INT02", Scale::Tiny).unwrap().generate();
        for scheme_id in [0u8, 1] {
            let back = decode_vec(encode_vec(&t, scheme_id)).unwrap();
            assert_eq!(back, t, "scheme {scheme_id}");
        }
    }

    #[test]
    fn multi_block_trace_round_trips() {
        // A tiny block target forces many blocks, exercising the per-block
        // prev_index reset and the frame chain walk.
        let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        let mut buf = Vec::new();
        let mut w = Ttr3Writer::new(&mut buf, &t.name, &t.category, 1)
            .unwrap()
            .with_block_target(128);
        for e in &t.events {
            w.push(e).unwrap();
        }
        let summary = w.finish().unwrap();
        assert!(summary.blocks > 10, "only {} blocks", summary.blocks);
        assert_eq!(summary.events, t.events.len() as u64);
        assert!(summary.peak_block_raw < 256, "peak {}", summary.peak_block_raw);
        let mut r = Ttr3Reader::new(Cursor::new(buf)).unwrap();
        let info = r.container_info().unwrap();
        assert_eq!(info.blocks, summary.blocks);
        assert_eq!(info.raw_bytes, summary.raw_bytes);
        assert_eq!(info.comp_bytes, summary.comp_bytes);
        assert_eq!(info.scheme, "lz");
        let mut events = Vec::new();
        while let Some(e) = r.next_event() {
            events.push(e);
        }
        crate::decoder::finish(&r).unwrap();
        assert_eq!(events, t.events);
    }

    #[test]
    fn writer_memory_is_bounded_by_the_block_target() {
        // The bounded-memory claim: the writer's transient buffer peaks
        // near the flush threshold no matter how many events stream
        // through (here ~40× the threshold's worth).
        let t = by_name("MM01", Scale::Small).unwrap().generate();
        let mut buf = Vec::new();
        let mut w = Ttr3Writer::new(&mut buf, &t.name, &t.category, 1)
            .unwrap()
            .with_block_target(1024);
        for e in &t.events {
            w.push(e).unwrap();
        }
        let summary = w.finish().unwrap();
        assert!(summary.raw_bytes > 40 * 1024, "trace too small: {}", summary.raw_bytes);
        // One event record never exceeds ~32 bytes, so the buffer peaks
        // just past the threshold.
        assert!(summary.peak_block_raw < 1024 + 64, "peak {}", summary.peak_block_raw);
    }

    #[test]
    fn lz_v3_is_at_most_seven_tenths_of_raw_v3() {
        // The compression acceptance bar: on the suite fixtures, v3+lz
        // must come in at ≤ 0.7× the raw-scheme v3 size (the uncompressed
        // event records plus framing), while staying lossless.
        for name in ["CLIENT01", "MM01", "INT02", "WS01"] {
            let t = by_name(name, Scale::Tiny).unwrap().generate();
            let raw = encode_vec(&t, 0);
            let lz = encode_vec(&t, 1);
            assert!(
                lz.len() * 10 <= raw.len() * 7,
                "{name}: v3+lz {} bytes vs raw v3 {} bytes",
                lz.len(),
                raw.len()
            );
            assert_eq!(decode_vec(lz).unwrap(), t, "{name}");
        }
    }

    #[test]
    fn extreme_addresses_round_trip() {
        // Address arithmetic wraps: deltas between pc 0, 2^63 and
        // u64::MAX, and targets and load addresses at both ends.
        let mk = |pc, target| TraceEvent {
            pc,
            kind: simkit::predictor::BranchKind::Conditional,
            taken: pc % 2 == 0,
            target,
            uops_before: u16::MAX,
            load_addr: Some(u64::MAX),
        };
        let t = Trace {
            name: "edge".into(),
            category: "TEST".into(),
            events: vec![mk(0, u64::MAX), mk(u64::MAX, 0), mk(1 << 63, 1)],
        };
        for scheme_id in [0, RECORD_SCHEME] {
            assert_eq!(decode_vec(encode_vec(&t, scheme_id)).unwrap(), t, "scheme {scheme_id}");
        }
    }

    #[test]
    fn rejects_bad_magic_scheme_and_trailer() {
        let t = by_name("WS01", Scale::Tiny).unwrap().generate();
        let good = encode_vec(&t, 1);
        // Leading magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(Ttr3Reader::new(Cursor::new(bad_magic)).is_err());
        // Unregistered scheme byte.
        let mut bad_scheme = good.clone();
        bad_scheme[8] = 200;
        assert!(Ttr3Reader::new(Cursor::new(bad_scheme)).is_err());
        // Clipped trailer magic.
        let mut bad_end = good.clone();
        let n = bad_end.len();
        bad_end[n - 1] ^= 0xFF;
        assert!(Ttr3Reader::new(Cursor::new(bad_end)).is_err());
        // Truncations anywhere must error at open or at finish — never
        // panic, never silently succeed.
        for frac in 1..8 {
            let cut = good.len() * frac / 8;
            let r = decode_vec(good[..cut].to_vec());
            assert!(r.is_err(), "truncation to {cut} bytes went unnoticed");
        }
    }

    #[test]
    fn unconditional_and_divergent_target_events_round_trip() {
        let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        assert!(t.events.iter().any(|e| !e.kind.is_conditional()));
        assert_eq!(decode_vec(encode_vec(&t, 1)).unwrap(), t);
    }

    fn encode_indexed(t: &Trace, block_target: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Ttr3Writer::new(&mut buf, &t.name, &t.category, RECORD_SCHEME)
            .unwrap()
            .with_block_target(block_target);
        for e in &t.events {
            w.push(e).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn indexed_container_round_trips_and_reports_the_index() {
        let t = by_name("INT02", Scale::Tiny).unwrap().generate();
        let buf = encode_indexed(&t, 256);
        let mut r = Ttr3Reader::new(Cursor::new(buf.clone())).unwrap();
        let info = r.container_info().unwrap();
        // The flag is masked out of the reported scheme byte.
        assert_eq!(info.scheme_id, 1);
        assert_eq!(info.scheme, "lz");
        assert!(info.blocks > 1);
        assert_eq!(info.index_bytes, Some(8 + 4 + 16 * info.blocks));
        let mut events = Vec::new();
        while let Some(e) = r.next_event() {
            events.push(e);
        }
        crate::decoder::finish(&r).unwrap();
        assert_eq!(events, t.events);
        // An index-less encoding reports None and decodes identically.
        let plain = Ttr3Reader::new(Cursor::new(encode_vec(&t, 1))).unwrap();
        assert_eq!(plain.container_info().unwrap().index_bytes, None);
    }

    #[test]
    fn seek_skip_lands_exactly_where_decode_discard_does() {
        let t = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        let total = t.events.len() as u64;
        let indexed = encode_indexed(&t, 200);
        let plain = encode_vec(&t, 1);
        // Offsets straddling block boundaries, plus the degenerate ends.
        for n in [0, 1, 7, 50, 51, 52, total / 2, total - 1, total, total + 10] {
            let mut seeker = Ttr3Reader::new(Cursor::new(indexed.clone())).unwrap();
            let mut walker = Ttr3Reader::new(Cursor::new(plain.clone())).unwrap();
            assert_eq!(seeker.skip(n), walker.skip(n), "skip count at n={n}");
            let rest: Vec<_> = std::iter::from_fn(|| seeker.next_event()).collect();
            let expect: Vec<_> = std::iter::from_fn(|| walker.next_event()).collect();
            assert!(seeker.decode_error().is_none(), "decode error at n={n}");
            assert_eq!(rest, expect, "stream mismatch after skip({n})");
            assert_eq!(rest.len() as u64, total.saturating_sub(n.min(total)));
        }
        // Repeated short skips interleaved with decoding also line up.
        let mut seeker = Ttr3Reader::new(Cursor::new(indexed)).unwrap();
        let mut walker = Ttr3Reader::new(Cursor::new(plain)).unwrap();
        loop {
            assert_eq!(seeker.skip(37), walker.skip(37));
            let (a, b) = (seeker.next_event(), walker.next_event());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(seeker.decode_error().is_none());
    }

    /// Byte offsets of a file's block frames, walked from the header.
    fn frame_offsets(buf: &[u8], t: &Trace) -> Vec<usize> {
        let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        let mut at = 8 + 1 + 2 + t.name.len() + 2 + t.category.len();
        let mut frames = Vec::new();
        while word(at) != 0 {
            frames.push(at);
            at += 12 + word(at + 8) as usize;
        }
        frames
    }

    #[test]
    fn last_block_bytes_past_its_declared_events_are_an_error() {
        // Lower the last frame's and the trailer's event counts by one: the
        // file still opens (the frame chain and the trailer agree), but the
        // last block's final record is never decoded. That must end the
        // stream with an error, through next_event and next_block alike,
        // as it does for every earlier block. MM01 at Tiny records as one
        // block; CLIENT01 with a 200-byte target as many.
        let one = by_name("MM01", Scale::Tiny).unwrap().generate();
        let many = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
        let files = [
            (&one, encode_vec(&one, 0)),
            (&one, encode_vec(&one, RECORD_SCHEME)),
            (&many, encode_indexed(&many, 200)),
        ];
        for (t, mut buf) in files {
            let last = *frame_offsets(&buf, t).last().unwrap();
            let events = u32::from_le_bytes(buf[last..last + 4].try_into().unwrap());
            buf[last..last + 4].copy_from_slice(&(events - 1).to_le_bytes());
            let at = buf.len() - TTR3_TRAILER_LEN as usize + 4;
            let total = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
            buf[at..at + 8].copy_from_slice(&(total - 1).to_le_bytes());
            let kept = &t.events[..t.events.len() - 1];

            let mut r = Ttr3Reader::new(Cursor::new(buf.clone())).unwrap();
            if t.name == "MM01" {
                assert_eq!(r.container_info().unwrap().blocks, 1);
            }
            let events: Vec<_> = std::iter::from_fn(|| r.next_event()).collect();
            assert_eq!(events, kept, "{}", t.name);
            let msg = r.decode_error().map(io::Error::to_string).unwrap_or_default();
            assert!(msg.contains("undecoded bytes left at the end of a block"), "{msg}");
            assert!(crate::decoder::finish(&r).is_err());
            assert_eq!(r.remaining_events(), Some(0));

            let mut r = Ttr3Reader::new(Cursor::new(buf)).unwrap();
            let mut block = EventBlock::default();
            let mut events = Vec::new();
            while r.next_block(&mut block, 4096) > 0 {
                events.extend_from_slice(&block.events);
            }
            assert_eq!(events, kept, "{}", t.name);
            assert_eq!(r.decode_error().map(io::Error::to_string), Some(msg));
            assert_eq!(r.remaining_events(), Some(0));
        }
    }

    #[test]
    fn corrupt_or_truncated_index_fails_at_open() {
        let t = by_name("WS01", Scale::Tiny).unwrap().generate();
        let good = encode_indexed(&t, 256);
        assert!(Ttr3Reader::new(Cursor::new(good.clone())).is_ok());
        let r = Ttr3Reader::new(Cursor::new(good.clone())).unwrap();
        let index_bytes = r.info.index_bytes.unwrap() as usize;
        drop(r);
        // The index section sits right before the branch table; locate it
        // through the trailer's table offset.
        let table_offset = u64::from_le_bytes(
            good[good.len() - 16..good.len() - 8].try_into().unwrap(),
        ) as usize;
        let index_start = table_offset - index_bytes;
        assert_eq!(&good[index_start..index_start + 8], TTR3_INDEX_MAGIC);
        // Flip bytes across the magic, the count, and every entry: each
        // single-byte corruption must be rejected at open, loudly.
        for at in index_start..table_offset {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(
                Ttr3Reader::new(Cursor::new(bad)).is_err(),
                "corrupt index byte at {at} went unnoticed"
            );
        }
        // A flagged header whose index section was cut out entirely (with
        // the trailer's table offset re-pointed so the rest still lines
        // up): the promised section is missing, so the open fails.
        let mut gutted = Vec::new();
        gutted.extend_from_slice(&good[..index_start]);
        gutted.extend_from_slice(&good[table_offset..]);
        let n = gutted.len();
        gutted[n - 16..n - 8]
            .copy_from_slice(&((table_offset - index_bytes) as u64).to_le_bytes());
        assert!(Ttr3Reader::new(Cursor::new(gutted)).is_err());
    }
}
