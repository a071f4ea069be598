//! The `tage.wire/2` framed binary protocol.
//!
//! Everything on a serve connection is a **frame**: a 1-byte type tag, a
//! 4-byte little-endian payload length, then the payload. The layout is
//! deliberately boring — no varints, no compression at the frame layer —
//! because the payloads themselves are either opaque trace bytes (already
//! compressed by the `.ttr`/`.ttr3` codecs) or small `key=value` text
//! blocks that must stay greppable in packet dumps.
//!
//! The frame-type table, the handshake fields, and the schema string below
//! are pinned against `DESIGN.md` §9 by the `doc-sync` lint pass: renaming
//! a frame or adding a handshake field without updating the design doc
//! fails `tage_lint`.
//!
//! Session state machine (server side):
//!
//! ```text
//! accept → HELLO → READY → (DATA* → END) → STATS* → RESULT → close
//!            │                  │
//!            │ (bad handshake)  │ (garbage / oversize / decode failure)
//!            └──► ERROR ◄───────┘
//! ```
//!
//! A `shutdown` frame sent as the *first* frame of a fresh connection asks
//! the server to drain: stop accepting, finish in-flight sessions, exit.

use std::io::{self, Read, Write};

/// Wire schema identifier. The client sends it in the handshake; the server
/// rejects any mismatch with a `bad-handshake` error so old clients fail
/// loudly instead of mis-parsing frames.
pub const WIRE_SCHEMA: &str = "tage.wire/2";

/// Hard cap on a single frame payload. Anything larger is a protocol error
/// (`oversized-frame`), not an allocation: the reader refuses before
/// reserving memory, so a hostile length prefix cannot OOM the server.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Chunk size clients use when streaming trace bytes as `data` frames.
/// Small enough to keep the server's one-payload buffer modest, large
/// enough that framing overhead (5 bytes) is noise.
pub const DATA_CHUNK: usize = 64 * 1024;

/// Frame-type table: name-keyed, one row per wire frame. Kept as data (not
/// just an enum) so the `doc-sync` lint pass can extract the names and
/// check each one appears in the DESIGN.md §9 frame table.
pub const FRAMES: &[(&str, u8)] = &[
    ("hello", 0x01),
    ("ready", 0x02),
    ("data", 0x03),
    ("end", 0x04),
    ("stats", 0x05),
    ("result", 0x06),
    ("error", 0x07),
    ("shutdown", 0x08),
];

/// One frame type per [`FRAMES`] row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    Hello = 0x01,
    Ready = 0x02,
    Data = 0x03,
    End = 0x04,
    Stats = 0x05,
    Result = 0x06,
    Error = 0x07,
    Shutdown = 0x08,
}

impl FrameType {
    /// Decode a wire tag byte. Unknown tags are a protocol error the caller
    /// turns into `bad-frame`; the byte domain is open by design (future
    /// schema versions may add frames).
    pub fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0x01 => Some(FrameType::Hello),
            0x02 => Some(FrameType::Ready),
            0x03 => Some(FrameType::Data),
            0x04 => Some(FrameType::End),
            0x05 => Some(FrameType::Stats),
            0x06 => Some(FrameType::Result),
            0x07 => Some(FrameType::Error),
            0x08 => Some(FrameType::Shutdown),
            // WILDCARD: the tag-byte domain is open — future wire schema
            // versions may add frames; unknown tags map to a typed error.
            _ => None,
        }
    }

    /// Human-readable name, as it appears in [`FRAMES`] and error messages.
    pub fn name(self) -> &'static str {
        match self {
            FrameType::Hello => "hello",
            FrameType::Ready => "ready",
            FrameType::Data => "data",
            FrameType::End => "end",
            FrameType::Stats => "stats",
            FrameType::Result => "result",
            FrameType::Error => "error",
            FrameType::Shutdown => "shutdown",
        }
    }
}

/// A decoded frame: type tag plus owned payload bytes.
#[derive(Debug)]
pub struct Frame {
    pub kind: FrameType,
    pub payload: Vec<u8>,
}

/// Write one frame: `[type u8][len u32 LE][payload]`, then flush, so a
/// frame is either fully on the wire or not sent at all.
pub fn write_frame(w: &mut dyn Write, kind: FrameType, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("refusing to send oversized {} frame ({} bytes)", kind.name(), payload.len()),
        ));
    }
    let mut head = [0u8; 5];
    head[0] = kind as u8;
    head[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Errors: clean EOF surfaces as `UnexpectedEof`; an
/// unknown type tag or a length above [`MAX_FRAME_LEN`] is `InvalidData`
/// (the length check runs *before* any allocation).
pub fn read_frame(r: &mut dyn Read) -> io::Result<Frame> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let kind = FrameType::from_byte(head[0]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown tage.wire frame type 0x{:02x}", head[0]),
        )
    })?;
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("oversized {} frame: {} bytes exceeds MAX_FRAME_LEN", kind.name(), len),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame { kind, payload })
}

/// Session handshake, carried in the `hello` payload as `key=value` lines.
///
/// Every field is pinned against the DESIGN.md §9 handshake table by the
/// `doc-sync` lint pass. The parser is strict — an unknown key is a
/// `bad-handshake` error, not a silent skip — so schema drift between
/// client and server versions is caught at session start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Handshake {
    /// Wire schema; must equal [`WIRE_SCHEMA`].
    pub wire: String,
    /// Predictor spec string (`harness::PredictorSpec` grammar).
    pub spec: String,
    /// Update-scenario label: `I`, `A`, `B`, or `C`.
    pub scenario: String,
    /// Simulation-window prefix skipped entirely (events).
    pub skip: u64,
    /// Window warmup length (events): simulated, not measured.
    pub warmup: u64,
    /// Window measurement length (events); `u64::MAX` = to end of trace.
    pub measure: u64,
    /// Collect per-branch profiles in the result artifact.
    pub branch_stats: bool,
    /// Top-N per-branch rows kept in the artifact (when `branch_stats`).
    pub top: usize,
    /// Client-side trace file name; drives codec detection fallback and the
    /// trace's display name, so served results match offline runs byte-for-byte.
    pub name_hint: String,
    /// Emit a `stats` frame roughly every this many trace events (`0` =
    /// only the final one before `result`).
    pub stats_every: u64,
    /// Fault-injection hook for robustness tests: empty = none, `panic` =
    /// deliberately panic mid-session. Honored only when the server runs
    /// with `--allow-fault-injection`.
    pub fault: String,
}

impl Default for Handshake {
    fn default() -> Self {
        Handshake {
            wire: WIRE_SCHEMA.to_string(),
            spec: String::new(),
            scenario: "A".to_string(),
            skip: 0,
            warmup: 0,
            measure: u64::MAX,
            branch_stats: false,
            top: 20,
            name_hint: String::new(),
            stats_every: 0,
            fault: String::new(),
        }
    }
}

impl Handshake {
    /// Encode as `key=value` lines in a fixed field order.
    pub fn encode(&self) -> Vec<u8> {
        let mut s = String::new();
        s.push_str(&format!("wire={}\n", self.wire));
        s.push_str(&format!("spec={}\n", self.spec));
        s.push_str(&format!("scenario={}\n", self.scenario));
        s.push_str(&format!("skip={}\n", self.skip));
        s.push_str(&format!("warmup={}\n", self.warmup));
        s.push_str(&format!("measure={}\n", self.measure));
        s.push_str(&format!("branch_stats={}\n", self.branch_stats));
        s.push_str(&format!("top={}\n", self.top));
        s.push_str(&format!("name_hint={}\n", self.name_hint));
        s.push_str(&format!("stats_every={}\n", self.stats_every));
        s.push_str(&format!("fault={}\n", self.fault));
        s.into_bytes()
    }

    /// Strict parse of a `hello` payload. Rejects non-UTF-8 bytes, lines
    /// without `=`, unknown keys, unparsable numbers, and a `wire` value
    /// that is not exactly [`WIRE_SCHEMA`]. A schema mismatch is reported
    /// ahead of any other field error, so a client of another protocol
    /// version learns that first.
    pub fn parse(payload: &[u8]) -> io::Result<Handshake> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let text = std::str::from_utf8(payload)
            .map_err(|_| bad("handshake payload is not UTF-8".to_string()))?;
        let wire = text.lines().find_map(|l| l.strip_prefix("wire=")).unwrap_or_default();
        if wire != WIRE_SCHEMA {
            return Err(bad(format!(
                "wire schema mismatch: client sent {wire:?}, server speaks {WIRE_SCHEMA:?}"
            )));
        }
        let mut hs = Handshake::default();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("handshake line without '=': {line:?}")))?;
            match key {
                "wire" => {}
                "spec" => hs.spec = value.to_string(),
                "scenario" => hs.scenario = value.to_string(),
                "skip" => hs.skip = parse_num(key, value)?,
                "warmup" => hs.warmup = parse_num(key, value)?,
                "measure" => hs.measure = parse_num(key, value)?,
                "branch_stats" => {
                    hs.branch_stats = match value {
                        "true" => true,
                        "false" => false,
                        other => return Err(bad(format!("bad branch_stats value {other:?}"))),
                    }
                }
                "top" => hs.top = parse_num(key, value)? as usize,
                "name_hint" => hs.name_hint = value.to_string(),
                "stats_every" => hs.stats_every = parse_num(key, value)?,
                "fault" => hs.fault = value.to_string(),
                other => return Err(bad(format!("unknown handshake key {other:?}"))),
            }
        }
        if hs.spec.is_empty() {
            return Err(bad("handshake is missing a predictor spec".to_string()));
        }
        Ok(hs)
    }
}

fn parse_num(key: &str, value: &str) -> io::Result<u64> {
    value.parse::<u64>().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("handshake field {key} is not a number: {value:?}"),
        )
    })
}

/// Error codes carried in `error` frames. One code per failure family so
/// clients (and the robustness suite) can assert on *which* fault tripped.
pub const ERR_BAD_HANDSHAKE: &str = "bad-handshake";
pub const ERR_BAD_FRAME: &str = "bad-frame";
pub const ERR_OVERSIZED_FRAME: &str = "oversized-frame";
pub const ERR_ADMISSION: &str = "admission";
pub const ERR_SPEC: &str = "spec";
pub const ERR_DECODE: &str = "decode";
pub const ERR_PANIC: &str = "panic";

/// Typed `error` frame payload: `code=...\nmessage=...`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    pub code: String,
    pub message: String,
}

impl WireError {
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        WireError { code: code.to_string(), message: message.into() }
    }

    pub fn encode(&self) -> Vec<u8> {
        // Keep the message on one line: the payload grammar is line-based.
        let one_line = self.message.replace('\n', " ");
        format!("code={}\nmessage={}\n", self.code, one_line).into_bytes()
    }

    /// Lenient parse: a mangled error payload still yields a displayable
    /// error (code `bad-frame`) instead of masking the original failure.
    pub fn parse(payload: &[u8]) -> WireError {
        let text = String::from_utf8_lossy(payload);
        let mut err = WireError::new(ERR_BAD_FRAME, "unparsable error payload");
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("code=") {
                err.code = v.to_string();
            } else if let Some(v) = line.strip_prefix("message=") {
                err.message = v.to_string();
            }
        }
        err
    }
}

/// Encode a `stats` payload: running count of events fed to the engine.
pub fn encode_stats(events: u64) -> Vec<u8> {
    format!("events={events}\n").into_bytes()
}

/// Parse a `stats` payload; returns the event count (0 if mangled — stats
/// frames are advisory progress, never load-bearing for correctness).
pub fn parse_stats(payload: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(payload);
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("events=") {
            return v.parse::<u64>().unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_table_matches_the_enum() {
        for &(name, byte) in FRAMES {
            let kind = FrameType::from_byte(byte).expect("table byte decodes");
            assert_eq!(kind.name(), name);
            assert_eq!(kind as u8, byte);
        }
        assert_eq!(FRAMES.len(), 8);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Data, b"hello bytes").unwrap();
        write_frame(&mut buf, FrameType::End, b"").unwrap();
        let mut rd: &[u8] = &buf;
        let f1 = read_frame(&mut rd).unwrap();
        assert_eq!(f1.kind, FrameType::Data);
        assert_eq!(f1.payload, b"hello bytes");
        let f2 = read_frame(&mut rd).unwrap();
        assert_eq!(f2.kind, FrameType::End);
        assert!(f2.payload.is_empty());
        assert!(read_frame(&mut rd).is_err(), "EOF after last frame");
    }

    #[test]
    fn unknown_type_and_oversize_are_rejected_before_allocation() {
        let mut bad_type = vec![0xEEu8];
        bad_type.extend_from_slice(&0u32.to_le_bytes());
        let mut rd: &[u8] = &bad_type;
        let err = read_frame(&mut rd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown tage.wire frame type"));

        let mut oversize = vec![FrameType::Data as u8];
        oversize.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut rd: &[u8] = &oversize;
        let err = read_frame(&mut rd).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("oversized"));
    }

    #[test]
    fn handshake_round_trips() {
        let hs = Handshake {
            spec: "tage -b 256".to_string(),
            scenario: "C".to_string(),
            skip: 5,
            warmup: 10,
            measure: 1000,
            branch_stats: true,
            top: 7,
            name_hint: "INT01.ttr".to_string(),
            stats_every: 4096,
            fault: String::new(),
            ..Handshake::default()
        };
        let parsed = Handshake::parse(&hs.encode()).unwrap();
        assert_eq!(parsed, hs);
    }

    #[test]
    fn handshake_rejects_drift() {
        assert!(Handshake::parse(b"\xff\xfe").is_err(), "non-UTF-8");
        assert!(Handshake::parse(b"no equals sign").is_err());
        let unknown = b"wire=tage.wire/2\nspec=tage\nflux_capacitor=1\n";
        let err = Handshake::parse(unknown).unwrap_err();
        assert!(err.to_string().contains("unknown handshake key"), "{err}");
        let old = b"wire=tage.wire/0\nspec=tage\n";
        let err = Handshake::parse(old).unwrap_err();
        assert!(err.to_string().contains("wire schema mismatch"));
        assert!(Handshake::parse(b"wire=tage.wire/2\n").is_err(), "missing spec");
        assert!(Handshake::parse(b"spec=tage\n").is_err(), "missing wire");
        // A version-1 client still sends `batch`; it must hear about the
        // version, not about the key version 2 dropped.
        let v1 = b"wire=tage.wire/1\nspec=tage\nscenario=A\nbatch=4096\n";
        let err = Handshake::parse(v1).unwrap_err();
        assert!(err.to_string().contains("wire schema mismatch"), "{err}");
    }

    #[test]
    fn error_and_stats_payloads_round_trip() {
        let e = WireError::new(ERR_DECODE, "truncated container:\nexpected more");
        let parsed = WireError::parse(&e.encode());
        assert_eq!(parsed.code, ERR_DECODE);
        assert_eq!(parsed.message, "truncated container: expected more");

        assert_eq!(parse_stats(&encode_stats(123_456)), 123_456);
        assert_eq!(parse_stats(b"garbage"), 0);
    }
}
