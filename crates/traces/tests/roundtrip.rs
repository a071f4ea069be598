//! Property tests: codec round-trips on arbitrary event streams, and
//! corrupt-input fuzzing (decoders must reject, never panic).

use proptest::collection::vec;
use proptest::prelude::*;
use simkit::predictor::BranchKind;
use std::io::{self, Cursor};
use traces::{CsvReader, TraceDecoder, Ttr3Reader, Ttr3Writer, TtrReader, RECORD_SCHEME};
use workloads::event::{EventBlock, EventSource, Trace, TraceEvent};

fn kind_of(code: u8) -> BranchKind {
    match code % 5 {
        0 => BranchKind::Conditional,
        1 => BranchKind::DirectJump,
        2 => BranchKind::IndirectJump,
        3 => BranchKind::Call,
        _ => BranchKind::Return,
    }
}

/// Builds an event from one strategy sample. Targets derive from
/// `(pc, taken)` the way the synthetic generator's do, perturbed by
/// `toff` to exercise the target-override path.
fn event(
    (pc, kind, taken): (u64, u8, bool),
    (toff, uops, load_code): (u64, u16, u64),
) -> TraceEvent {
    let base = pc.wrapping_add(if taken { 0x40 } else { 8 });
    TraceEvent {
        pc,
        kind: kind_of(kind),
        taken,
        target: base.wrapping_add(toff),
        uops_before: uops,
        load_addr: (load_code != 0).then(|| 0x10_0000_0000 + load_code),
    }
}

fn trace_of(events: Vec<TraceEvent>) -> Trace {
    Trace { name: "PROP01".into(), category: "PROP".into(), events }
}

type RawEvent = ((u64, u8, bool), (u64, u16, u64));

fn event_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    vec(
        ((0u64..1 << 20, 0u8..5, any::<bool>()), (0u64..64, 0u16..2048, 0u64..4)),
        0usize..200,
    )
}

fn drain<D: TraceDecoder>(mut d: D) -> Result<Trace, String> {
    let mut events = Vec::new();
    while let Some(e) = d.next_event() {
        events.push(e);
    }
    match traces::finish(&d) {
        Ok(()) => {
            Ok(Trace { name: d.name().to_string(), category: d.category().to_string(), events })
        }
        Err(e) => Err(e.to_string()),
    }
}

/// What one `.ttr3` decode route saw: how far `skip` got, the events
/// delivered after it, the kind of the decode error that ended the stream
/// (if any) and the events the container still owed.
#[derive(Debug, PartialEq)]
struct Drained {
    skipped: u64,
    events: Vec<TraceEvent>,
    error: Option<io::ErrorKind>,
    remaining: Option<u64>,
}

impl Drained {
    /// Whether `traces::finish` would accept the stream.
    fn clean(&self) -> bool {
        self.error.is_none() && self.remaining == Some(0)
    }
}

/// The `next_block` routes every `.ttr3` property drains through, as
/// `(max, interleaved)`: one event at a time, runs that straddle records
/// and frames, the engine's batch, and runs of 7 alternating with
/// `next_event`.
const BLOCK_ROUTES: [(usize, bool); 4] = [(1, false), (7, false), (4096, false), (7, true)];

/// Opens `bytes` once per decode route, skips `skip` events and drains the
/// rest: through `next_event`, then through each of [`BLOCK_ROUTES`].
/// Every route must skip as far, deliver the same events, end on the same
/// error kind and owe the same events. Returns the `next_event` route's
/// view, or `None` when the open fails (it is deterministic, so it fails
/// for every route).
fn drain_every_way(bytes: &[u8], skip: u64) -> Option<Drained> {
    let open = || Ttr3Reader::new(Cursor::new(bytes.to_vec())).ok();
    let seen = |r: Ttr3Reader<Cursor<Vec<u8>>>, skipped, events| Drained {
        skipped,
        events,
        error: r.decode_error().map(io::Error::kind),
        remaining: r.remaining_events(),
    };
    let mut r = open()?;
    let skipped = r.skip(skip);
    let events = std::iter::from_fn(|| r.next_event()).collect();
    let want = seen(r, skipped, events);
    for (max, interleaved) in BLOCK_ROUTES {
        let mut r = open().expect("the open succeeded once");
        let skipped = r.skip(skip);
        let mut events = Vec::new();
        let mut block = EventBlock::default();
        loop {
            let n = r.next_block(&mut block, max);
            assert!(n == block.len() && n <= max, "block of {n} for max {max}");
            events.extend_from_slice(&block.events);
            let single = if interleaved { r.next_event() } else { None };
            events.extend(single);
            if n == 0 && single.is_none() {
                break;
            }
        }
        let route = format!("next_block({max}), interleaved {interleaved}");
        assert_eq!(seen(r, skipped, events), want, "{route} against next_event");
    }
    Some(want)
}

/// Records `t` through [`Ttr3Writer`] with a `block_target`-byte flush
/// threshold.
fn encode_blocks(t: &Trace, scheme: u8, block_target: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Ttr3Writer::new(&mut buf, &t.name, &t.category, scheme)
        .unwrap()
        .with_block_target(block_target);
    for e in &t.events {
        w.push(e).unwrap();
    }
    w.finish().unwrap();
    buf
}

/// The committed `.ttr` v2 fixture: v2 is read-only, so its corruption
/// properties run over these frozen bytes.
fn gold_v2() -> Vec<u8> {
    std::fs::read(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/GOLD01.ttr"))
        .unwrap()
}

proptest! {
    #[test]
    fn csv_round_trips_losslessly(raw in event_strategy()) {
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b)).collect());
        let mut buf = Vec::new();
        traces::csv::encode(&mut buf, &t).unwrap();
        let back =
            drain(CsvReader::new(buf.as_slice(), "fb".into(), "FB".into()).unwrap()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn ttr_header_fuzz_never_panics(bytes in vec(any::<u8>(), 0usize..256)) {
        // Arbitrary bytes: open may fail (expected) but must not panic,
        // and a decoder that does open must fail or finish cleanly.
        if let Ok(r) = TtrReader::new(bytes.as_slice()) {
            let _ = drain(r);
        }
    }

    #[test]
    fn ttr_magic_prefixed_fuzz_never_panics(bytes in vec(any::<u8>(), 0usize..256)) {
        // Valid magic + raw compression, garbage after: exercises the
        // header/table/event parsers past the magic check.
        let mut buf = b"TAGETTR2\0".to_vec();
        buf.extend(&bytes);
        if let Ok(r) = TtrReader::new(buf.as_slice()) {
            let _ = drain(r);
        }
    }

    #[test]
    fn csv_fuzz_never_panics(bytes in vec(any::<u8>(), 0usize..256)) {
        if let Ok(r) = CsvReader::new(bytes.as_slice(), "t".into(), "T".into()) {
            let _ = drain(r);
        }
    }

    #[test]
    fn truncated_ttr_is_rejected_not_silently_short(cut in 1usize..100) {
        let mut buf = gold_v2();
        let cut = cut.min(buf.len() - 1);
        buf.truncate(buf.len() - cut);
        let failed = match TtrReader::new(buf.as_slice()) {
            Err(_) => true,
            Ok(r) => drain(r).is_err(),
        };
        prop_assert!(failed, "truncation by {cut} bytes went unnoticed");
    }

    #[test]
    fn ttr3_round_trips_losslessly_under_both_schemes(raw in event_strategy(), scheme in 0u8..2) {
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b)).collect());
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, scheme).unwrap();
        let seen = drain_every_way(&buf, 0).unwrap();
        prop_assert!(seen.clean());
        prop_assert_eq!(&seen.events, &t.events);
        let back = drain(Ttr3Reader::new(Cursor::new(buf)).unwrap()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn ttr3_runs_straddle_small_block_frames(
        raw in event_strategy(), block_target in 1usize..64, scheme in 0u8..2, s in 0u64..250,
    ) {
        // Blocks of one to a few events: every next_block run crosses
        // frames, and with the index a skip lands mid-run.
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b)).collect());
        for scheme_id in [scheme, scheme | traces::TTR3_INDEX_FLAG] {
            let buf = encode_blocks(&t, scheme_id, block_target);
            let seen = drain_every_way(&buf, 0).unwrap();
            prop_assert!(seen.clean());
            prop_assert_eq!(&seen.events, &t.events);
            let seen = drain_every_way(&buf, s).unwrap();
            prop_assert!(seen.clean());
            prop_assert_eq!(seen.skipped, s.min(t.events.len() as u64));
            prop_assert_eq!(seen.events.as_slice(), &t.events[seen.skipped as usize..]);
        }
    }

    #[test]
    fn truncated_ttr3_block_is_rejected_not_silently_short(cut in 1usize..200) {
        // Truncation lands anywhere: in the trailer, the footer table, a
        // block payload, or a frame header. Every case must surface as an
        // open error or through traces::finish — never a panic, never a
        // silently short stream.
        let t = trace_of(
            (0..60)
                .map(|i| event((0x3000 + i * 16, (i % 5) as u8, i % 3 == 0), (0, 5, i % 2)))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, 1).unwrap();
        let cut = cut.min(buf.len() - 1);
        buf.truncate(buf.len() - cut);
        let failed = drain_every_way(&buf, 0).is_none_or(|seen| !seen.clean());
        prop_assert!(failed, "truncation by {cut} bytes went unnoticed");
        let failed = match Ttr3Reader::new(Cursor::new(buf)) {
            Err(_) => true,
            Ok(r) => drain(r).is_err(),
        };
        prop_assert!(failed, "truncation by {cut} bytes went unnoticed");
    }

    #[test]
    fn flipped_byte_in_ttr3_never_panics(pos in 0usize..8192, val in any::<u8>()) {
        // Covers the corrupt-block cases by position: a flip in the scheme
        // byte (bad scheme), a frame length field (length overflow), or a
        // compressed payload (corrupt LZ stream).
        let t = trace_of(
            (0..60)
                .map(|i| event((0x4000 + i * 12, (i % 5) as u8, i % 2 == 0), (i, 7, 1)))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, 1).unwrap();
        let pos = pos % buf.len();
        buf[pos] = val;
        drain_every_way(&buf, 0);
        if let Ok(r) = Ttr3Reader::new(Cursor::new(buf)) {
            let _ = drain(r);
        }
    }

    #[test]
    fn ttr3_frame_length_overflow_is_rejected(raw_len in any::<u32>(), comp_len in any::<u32>()) {
        // Overwrite the first frame's length fields with arbitrary values:
        // the frame-chain validation (or block decode) must reject any
        // combination that disagrees with the payload, without panicking
        // or over-allocating.
        let t = trace_of(
            (0..60)
                .map(|i| event((0x5000 + i * 8, 0, i % 2 == 0), (i, 3, 0)))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, 1).unwrap();
        // Header: magic(8) + scheme(1) + name(2+6) + category(2+4); the
        // frame starts right after, with raw_len/comp_len at +4 and +8.
        let frame = 8 + 1 + 2 + t.name.len() + 2 + t.category.len();
        buf[frame + 4..frame + 8].copy_from_slice(&raw_len.to_le_bytes());
        buf[frame + 8..frame + 12].copy_from_slice(&comp_len.to_le_bytes());
        if let Some(seen) = drain_every_way(&buf, 0) {
            if seen.clean() {
                prop_assert_eq!(&seen.events, &t.events);
            }
        }
        if let Ok(r) = Ttr3Reader::new(Cursor::new(buf.clone())) {
            if let Ok(back) = drain(r) {
                // Only the original lengths can decode the original data.
                prop_assert_eq!(back, t);
            }
        }
    }

    #[test]
    fn ttr3_header_fuzz_never_panics(bytes in vec(any::<u8>(), 0usize..256)) {
        let mut buf = b"TAGETTR3\x01".to_vec();
        buf.extend(&bytes);
        if let Ok(r) = Ttr3Reader::new(Cursor::new(buf)) {
            let _ = drain(r);
        }
    }

    #[test]
    fn indexed_skip_matches_decode_discard(raw in event_strategy(), s in 0u64..250) {
        // The O(1) index seek and the default decode-discard must land on
        // the same position: after skipping `s`, both readers produce the
        // same suffix (ground truth: the encoded trace itself).
        let t = trace_of(raw.into_iter().map(|(a, b)| event(a, b)).collect());
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, RECORD_SCHEME).unwrap();
        let mut r = Ttr3Reader::new(Cursor::new(buf.clone())).unwrap();
        let skipped = r.skip(s);
        prop_assert_eq!(skipped, s.min(t.events.len() as u64));
        let mut rest = Vec::new();
        while let Some(e) = r.next_event() {
            rest.push(e);
        }
        prop_assert!(r.decode_error().is_none());
        prop_assert_eq!(rest.as_slice(), &t.events[skipped as usize..]);
        let seen = drain_every_way(&buf, s).unwrap();
        prop_assert!(seen.clean());
        prop_assert_eq!((seen.skipped, seen.events), (skipped, rest));
    }

    #[test]
    fn corrupt_index_footer_fails_loudly_never_misseeks(
        pos in 0usize..4096, val in any::<u8>(), s in 0u64..100,
    ) {
        // A flipped byte at or after the `TAGEIDX3` footer (the index, the
        // branch table, or the trailer) must either fail at open / during
        // the stream — or leave a reader whose seek still lands exactly
        // where decode-discard would. A silently wrong position is the one
        // forbidden outcome.
        let t = trace_of(
            (0..80)
                .map(|i| event((0x6000 + i * 16, (i % 5) as u8, i % 3 == 0), (i, 5, i % 2)))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, RECORD_SCHEME).unwrap();
        let idx = buf
            .windows(8)
            .position(|w| w == traces::ttr3::TTR3_INDEX_MAGIC)
            .expect("indexed file carries the footer magic");
        let pos = idx + pos % (buf.len() - idx);
        let clean = buf[pos] == val;
        buf[pos] = val;
        if let Ok(mut fast) = Ttr3Reader::new(Cursor::new(buf.clone())) {
            let skipped = fast.skip(s);
            let mut via_seek = Vec::new();
            while let Some(e) = fast.next_event() {
                via_seek.push(e);
            }
            // Decode-discard over the *same* bytes (open is deterministic,
            // so the second open must succeed too): advance one event at a
            // time without ever touching the index.
            let mut slow = Ttr3Reader::new(Cursor::new(buf)).unwrap();
            let mut slow_skipped = 0u64;
            while slow_skipped < s && slow.next_event().is_some() {
                slow_skipped += 1;
            }
            let mut via_decode = Vec::new();
            while let Some(e) = slow.next_event() {
                via_decode.push(e);
            }
            if fast.decode_error().is_none() && slow.decode_error().is_none() {
                prop_assert_eq!(skipped, slow_skipped, "flip at byte {pos}");
                prop_assert_eq!(&via_seek, &via_decode, "seek diverged from decode-discard after flipping byte {pos}");
            }
            if clean {
                // A no-op flip must behave like the pristine file.
                prop_assert_eq!(skipped, s.min(80));
                prop_assert!(fast.decode_error().is_none());
                prop_assert_eq!(via_seek.as_slice(), &t.events[skipped as usize..]);
            }
        }
    }

    #[test]
    fn truncated_index_footer_is_rejected_not_misseeked(cut in 1usize..300) {
        // Truncation anywhere in an *indexed* file — index entries, the
        // footer magic, the branch table, or the trailer — must fail at
        // open or through `finish`, and a pre-failure `skip` must never
        // report progress it did not make.
        let t = trace_of(
            (0..80)
                .map(|i| event((0x7000 + i * 12, (i % 5) as u8, i % 2 == 0), (i, 3, 1)))
                .collect(),
        );
        let mut buf = Vec::new();
        traces::ttr3::encode(&mut buf, &t, RECORD_SCHEME).unwrap();
        let cut = cut.min(buf.len() - 1);
        buf.truncate(buf.len() - cut);
        let failed = match Ttr3Reader::new(Cursor::new(buf)) {
            Err(_) => true,
            Ok(r) => drain(r).is_err(),
        };
        prop_assert!(failed, "index-footer truncation by {cut} bytes went unnoticed");
    }

    #[test]
    fn flipped_byte_in_ttr_never_panics(pos in 0usize..4096, val in any::<u8>()) {
        let mut buf = gold_v2();
        let pos = pos % buf.len();
        buf[pos] = val;
        // Any outcome but a panic is acceptable: reject, or decode to some
        // (possibly different) valid trace when the flip hit a don't-care.
        if let Ok(r) = TtrReader::new(buf.as_slice()) {
            let _ = drain(r);
        }
    }
}
