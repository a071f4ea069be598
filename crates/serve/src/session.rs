//! One served session: handshake → streamed trace → result artifact.
//!
//! A session IS the offline `tage_exp system --trace` recipe
//! ([`harness::trace_mode::run_spec_cell`]: `build_engine`, then a
//! [`ChunkDriver`] to the end of the trace) with the trace bytes arriving
//! over a socket instead of from a file. The socket's read half is wrapped
//! in [`FrameFeed`] — a `Read` adapter that unwraps `data` frames — and
//! handed to `traces::CodecRegistry::open_feed`, which sniffs the codec
//! from the first bytes exactly as it would from a file. Because both
//! paths converge on the same decode + simulate recipe, a served result is
//! bit-identical to the offline run by construction (pinned by the
//! `serve_e2e` integration tests).
//!
//! **Backpressure** falls out of the design: the server reads the next
//! `data` frame only when the decoder asks for more bytes, and the decoder
//! is only polled between simulated blocks. A fast client blocks on TCP
//! send once the kernel buffers fill; the server never queues more than
//! one payload per session.
//!
//! **Isolation**: every failure path emits one typed `error` frame and
//! ends only this session. The panic fence lives in the server's worker
//! job (see `server.rs`); it relies on unwinding, which holds in every
//! `cargo test` build. The release profile sets `panic = "abort"` (the
//! simulator treats panics as fatal), so fault injection is additionally
//! gated behind `--allow-fault-injection`.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use harness::artifact::{scenario_from_label, RunArtifact};
use harness::PredictorSpec;
use pipeline::{ChunkDriver, PipelineConfig, SimWindow, SuiteReport, DEFAULT_BATCH};
use traces::CodecRegistry;

use crate::wire::{
    self, encode_stats, FrameType, Handshake, WireError, ERR_BAD_FRAME, ERR_BAD_HANDSHAKE,
    ERR_DECODE, ERR_OVERSIZED_FRAME, ERR_PANIC, ERR_SPEC,
};

/// Server-side knobs a session needs; shared by all sessions of one server.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Directory the spooling codec (`.ttr3`) buffers into; cleaned up
    /// per-feed by the decoder's drop guard.
    pub spool_dir: PathBuf,
    /// Honor the handshake's `fault` test hook. Off by default: a release
    /// server must never let a client ask it to panic.
    pub allow_fault_injection: bool,
}

/// How a session ended, for the server's log line and drain logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// Result frame sent; `events` is what the final `stats` frame carried
    /// (trace events fed to the engine).
    Completed { events: u64 },
    /// A typed `error` frame was sent (or attempted) with this code.
    Errored { code: String, message: String },
    /// The connection's first frame was `shutdown`: drain the server.
    ShutdownRequested,
}

/// Best-effort typed `error` frame; used by sessions, the admission check,
/// and the panic fence. Write failures are ignored — the peer may be gone.
pub fn send_error_frame(w: &mut dyn Write, code: &str, message: &str) {
    let err = WireError::new(code, message);
    let _ = wire::write_frame(w, FrameType::Error, &err.encode());
}

/// `Read` adapter over the session's frame stream: yields the payload
/// bytes of `data` frames, EOF at `end`, error on anything else. Records a
/// wire-level error code in `protocol_code` so the session can distinguish
/// "client spoke garbage" from "trace bytes failed to decode" — by the
/// time the error surfaces it has passed through the trace decoder.
pub struct FrameFeed<R: Read + Send> {
    rd: R,
    buf: Vec<u8>,
    pos: usize,
    done: bool,
    protocol_code: Arc<Mutex<Option<&'static str>>>,
}

impl<R: Read + Send> FrameFeed<R> {
    pub fn new(rd: R, protocol_code: Arc<Mutex<Option<&'static str>>>) -> Self {
        FrameFeed { rd, buf: Vec::new(), pos: 0, done: false, protocol_code }
    }

    fn mark(&self, code: &'static str) {
        if let Ok(mut slot) = self.protocol_code.lock() {
            slot.get_or_insert(code);
        }
    }
}

/// Map a frame-read failure onto a wire error code. `None` means the
/// transport died (disconnect mid-trace): that is a decode-level failure,
/// not a protocol violation by the peer.
fn classify_read_error(e: &io::Error) -> Option<&'static str> {
    if e.kind() != io::ErrorKind::InvalidData {
        return None;
    }
    if e.to_string().contains("oversized") {
        Some(ERR_OVERSIZED_FRAME)
    } else {
        Some(ERR_BAD_FRAME)
    }
}

impl<R: Read + Send> Read for FrameFeed<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.pos < self.buf.len() {
                let n = (self.buf.len() - self.pos).min(out.len());
                out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            if self.done {
                return Ok(0);
            }
            let frame = match wire::read_frame(&mut self.rd) {
                Ok(f) => f,
                Err(e) => {
                    if let Some(code) = classify_read_error(&e) {
                        self.mark(code);
                    }
                    return Err(e);
                }
            };
            match frame.kind {
                FrameType::Data => {
                    self.buf = frame.payload;
                    self.pos = 0;
                }
                FrameType::End => self.done = true,
                other => {
                    self.mark(ERR_BAD_FRAME);
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected {} frame inside the data stream", other.name()),
                    ));
                }
            }
        }
    }
}

/// Bounded graceful-close drain: consume whatever the peer still has in
/// flight, so our `close()` doesn't turn into a TCP RST that destroys the
/// final `result`/`error` frame inside the client's receive buffer. (On
/// the happy path the leftover is the 5-byte `end` frame — the decoder
/// stops pulling bytes once the container is complete.) The read timeout
/// caps how long a misbehaving peer can pin a worker thread.
pub fn drain_to_eof(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let mut buf = [0u8; 8192];
    let mut s = stream;
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
}

/// Run one connection to completion. Never panics on malformed input —
/// every failure is a typed `error` frame plus a `SessionEnd::Errored`.
/// (The one deliberate panic is the gated `fault=panic` test hook.)
pub fn run_session(stream: TcpStream, cfg: &SessionConfig) -> SessionEnd {
    let drain_half = stream.try_clone().ok();
    let end = session_body(stream, cfg, ());
    if let Some(s) = drain_half {
        drain_to_eof(&s);
    }
    end
}

/// [`run_session`] minus the graceful drain — for callers (the server's
/// worker job) that must release their admission slot *before* spending
/// up to the drain timeout on a slow peer. The server passes that slot as
/// `slot`, which is dropped just before the final `stats` and `result`
/// frames are written, or when the body returns on any other path.
pub(crate) fn session_body<S>(stream: TcpStream, cfg: &SessionConfig, slot: S) -> SessionEnd {
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            return SessionEnd::Errored { code: ERR_DECODE.to_string(), message: e.to_string() }
        }
    };
    let mut rd = BufReader::new(read_half);
    let mut wr = BufWriter::new(stream);

    // --- handshake ------------------------------------------------------
    let first = match wire::read_frame(&mut rd) {
        Ok(f) => f,
        Err(e) => {
            let code = classify_read_error(&e).unwrap_or(ERR_BAD_FRAME);
            return fail(&mut wr, code, e.to_string());
        }
    };
    match first.kind {
        FrameType::Shutdown => {
            // Drain ack: the caller flips the server's shutdown flag.
            let _ = wire::write_frame(&mut wr, FrameType::Ready, b"");
            return SessionEnd::ShutdownRequested;
        }
        FrameType::Hello => {}
        other => {
            return fail(
                &mut wr,
                ERR_BAD_HANDSHAKE,
                format!("expected a hello frame, got {}", other.name()),
            )
        }
    }
    let hs = match Handshake::parse(&first.payload) {
        Ok(h) => h,
        Err(e) => return fail(&mut wr, ERR_BAD_HANDSHAKE, e.to_string()),
    };
    let spec = match PredictorSpec::parse(&hs.spec) {
        Ok(s) => s,
        Err(e) => return fail(&mut wr, ERR_SPEC, e.to_string()),
    };
    let scenario = match scenario_from_label(&hs.scenario) {
        Ok(s) => s,
        Err(e) => return fail(&mut wr, ERR_SPEC, e.to_string()),
    };
    if !hs.fault.is_empty() {
        if !cfg.allow_fault_injection {
            return fail(
                &mut wr,
                ERR_SPEC,
                "fault injection is disabled (start the server with --allow-fault-injection)"
                    .to_string(),
            );
        }
        match hs.fault.as_str() {
            "panic" => {
                // INVARIANT: deliberate, doubly-gated fault-injection hook —
                // the robustness suite plants it to prove the server-side
                // panic fence confines a panicking session to itself.
                panic!("injected session fault (fault=panic)");
            }
            other => return fail(&mut wr, ERR_SPEC, format!("unknown fault hook {other:?}")),
        }
    }
    if wire::write_frame(&mut wr, FrameType::Ready, b"").is_err() {
        return SessionEnd::Errored {
            code: ERR_DECODE.to_string(),
            message: "peer vanished before ready".to_string(),
        };
    }

    // --- trace feed ------------------------------------------------------
    let protocol_code: Arc<Mutex<Option<&'static str>>> = Arc::new(Mutex::new(None));
    let feed = FrameFeed::new(rd, Arc::clone(&protocol_code));
    let registry = CodecRegistry::standard();
    let hint: Option<PathBuf> =
        if hs.name_hint.is_empty() { None } else { Some(PathBuf::from(&hs.name_hint)) };
    let mut decoder = match registry.open_feed(Box::new(feed), hint.as_deref(), &cfg.spool_dir) {
        Ok(d) => d,
        Err(e) => return fail(&mut wr, pick_code(&protocol_code, &e), e.to_string()),
    };

    // --- simulate --------------------------------------------------------
    let sim_cfg = PipelineConfig {
        branch_stats: hs.branch_stats,
        window: SimWindow { skip: hs.skip, warmup: hs.warmup, measure: hs.measure },
        ..PipelineConfig::default()
    };
    let mut engine = match spec.build_engine(scenario, &sim_cfg) {
        Ok(e) => e,
        Err(e) => return fail(&mut wr, ERR_SPEC, e.to_string()),
    };
    // One chunk per periodic `stats` frame; `stats_every = 0` runs to the
    // end in one chunk. Chunking never changes the result (pinned in the
    // pipeline engine tests).
    let blocks_per_chunk = match hs.stats_every {
        0 => usize::MAX,
        every => (every / DEFAULT_BATCH as u64).max(1) as usize,
    };
    let mut driver = ChunkDriver::new();
    while !driver.is_done() {
        driver.run_chunk(&mut *engine, &mut decoder, blocks_per_chunk);
        if hs.stats_every > 0
            && wire::write_frame(&mut wr, FrameType::Stats, &encode_stats(driver.events_fed()))
                .is_err()
        {
            return SessionEnd::Errored {
                code: ERR_DECODE.to_string(),
                message: "peer vanished mid-session".to_string(),
            };
        }
    }
    if let Err(e) = harness::trace_mode::check_run(decoder.as_ref(), &*engine) {
        return fail(&mut wr, pick_code(&protocol_code, &e), e.to_string());
    }
    let events = driver.events_fed();
    let report = driver.finish(&mut *engine, &decoder);

    // --- result ----------------------------------------------------------
    // The final `stats` frame counts trace events fed, the same unit the
    // periodic frames count in.
    let suite = SuiteReport::new(vec![report]);
    let artifact =
        RunArtifact::from_suite(&spec.sim_key(), scenario, "external", &suite, None, hs.top);
    drop(slot);
    let sent = wire::write_frame(&mut wr, FrameType::Stats, &encode_stats(events))
        .and_then(|_| wire::write_frame(&mut wr, FrameType::Result, artifact.to_json().as_bytes()));
    match sent {
        Ok(()) => SessionEnd::Completed { events },
        Err(e) => SessionEnd::Errored { code: ERR_DECODE.to_string(), message: e.to_string() },
    }
}

/// Panic-fence follow-up: tell the peer their session died. Exposed for
/// the server's worker job, which catches the unwind outside this module.
pub fn report_panic(stream: Option<TcpStream>, detail: &str) -> SessionEnd {
    if let Some(s) = stream {
        let mut wr = BufWriter::new(&s);
        send_error_frame(&mut wr, ERR_PANIC, detail);
    }
    SessionEnd::Errored { code: ERR_PANIC.to_string(), message: detail.to_string() }
}

fn pick_code(slot: &Arc<Mutex<Option<&'static str>>>, e: &io::Error) -> &'static str {
    if let Ok(guard) = slot.lock() {
        if let Some(code) = *guard {
            return code;
        }
    }
    // No wire-level violation recorded: invalid *input* means the spec was
    // rejected at build time, anything else is a trace decode failure.
    if e.kind() == io::ErrorKind::InvalidInput {
        ERR_SPEC
    } else {
        ERR_DECODE
    }
}

fn fail(wr: &mut dyn Write, code: &'static str, message: String) -> SessionEnd {
    send_error_frame(wr, code, &message);
    SessionEnd::Errored { code: code.to_string(), message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frames(parts: &[(FrameType, &[u8])]) -> Cursor<Vec<u8>> {
        let mut buf = Vec::new();
        for &(kind, payload) in parts {
            wire::write_frame(&mut buf, kind, payload).unwrap();
        }
        Cursor::new(buf)
    }

    fn code_slot() -> Arc<Mutex<Option<&'static str>>> {
        Arc::new(Mutex::new(None))
    }

    #[test]
    fn frame_feed_concatenates_data_frames() {
        let rd = frames(&[
            (FrameType::Data, b"abc"),
            (FrameType::Data, b""),
            (FrameType::Data, b"defg"),
            (FrameType::End, b""),
        ]);
        let mut feed = FrameFeed::new(rd, code_slot());
        let mut out = Vec::new();
        feed.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abcdefg");
        // EOF is sticky.
        let mut again = [0u8; 4];
        assert_eq!(feed.read(&mut again).unwrap(), 0);
    }

    #[test]
    fn frame_feed_rejects_garbage_mid_stream() {
        let slot = code_slot();
        let rd = frames(&[(FrameType::Data, b"abc"), (FrameType::Hello, b"nope")]);
        let mut feed = FrameFeed::new(rd, Arc::clone(&slot));
        let mut out = Vec::new();
        let err = feed.read_to_end(&mut out).unwrap_err();
        assert!(err.to_string().contains("unexpected hello frame"));
        assert_eq!(*slot.lock().unwrap(), Some(ERR_BAD_FRAME));
    }

    #[test]
    fn frame_feed_flags_oversized_frames() {
        let slot = code_slot();
        let mut raw = Vec::new();
        wire::write_frame(&mut raw, FrameType::Data, b"ok").unwrap();
        raw.push(FrameType::Data as u8);
        raw.extend_from_slice(&(wire::MAX_FRAME_LEN + 1).to_le_bytes());
        let mut feed = FrameFeed::new(Cursor::new(raw), Arc::clone(&slot));
        let mut out = Vec::new();
        assert!(feed.read_to_end(&mut out).is_err());
        assert_eq!(*slot.lock().unwrap(), Some(ERR_OVERSIZED_FRAME));
    }

    #[test]
    fn frame_feed_reports_disconnects_without_blaming_the_protocol() {
        let slot = code_slot();
        // A data frame header promising bytes that never arrive = the peer
        // vanished mid-trace.
        let mut raw = Vec::new();
        raw.push(FrameType::Data as u8);
        raw.extend_from_slice(&100u32.to_le_bytes());
        raw.extend_from_slice(b"only a little");
        let mut feed = FrameFeed::new(Cursor::new(raw), Arc::clone(&slot));
        let mut out = Vec::new();
        let err = feed.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(*slot.lock().unwrap(), None, "disconnects carry no protocol code");
    }
}
