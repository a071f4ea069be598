//! Client side of a `tage.wire/2` session: stream one trace, collect the
//! result artifact.
//!
//! Every client socket comes from `connect`, which turns Nagle's
//! algorithm off (`TCP_NODELAY`). Each frame is flushed on its own and
//! the two sides take turns, so with Nagle on a small frame can wait
//! for the peer's delayed ACK of the one before it, about 40 ms on Linux.
//!
//! Frames from the server arrive on a dedicated reader thread and are
//! forwarded over a channel; the sender thread just pumps file bytes. The
//! split matters: with `stats_every` set the server emits progress frames
//! *while* the client is still uploading, and a single-threaded client
//! that never reads until it finishes writing can deadlock once both
//! kernel socket buffers fill.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::wire::{self, Frame, FrameType, Handshake, WireError, DATA_CHUNK};

/// Per-session client options. `handshake` is the template sent as the
/// `hello` payload; `run_one` fills `name_hint` from the trace path.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Server address, `host:port`.
    pub addr: String,
    /// Handshake template (spec, scenario, window, …).
    pub handshake: Handshake,
    /// Suppress per-frame progress lines.
    pub quiet: bool,
}

/// What one session produced.
#[derive(Debug)]
pub struct SessionResult {
    /// Raw bytes of the `result` frame — the `tage.run/1` artifact JSON,
    /// exactly as the server serialized it. Kept as the original string so
    /// `--artifacts` can write it verbatim (byte-identity with offline runs).
    pub artifact_json: Option<String>,
    /// Typed server-side error, if the session failed.
    pub error: Option<WireError>,
    /// Event count from the last `stats` frame.
    pub events: u64,
    /// Number of `stats` frames received (≥1 on success).
    pub stats_frames: usize,
    /// Wall time from connect to final frame.
    pub elapsed: Duration,
}

impl SessionResult {
    pub fn is_ok(&self) -> bool {
        self.artifact_json.is_some() && self.error.is_none()
    }
}

/// Run one full session: connect, handshake, stream `path`, await result.
///
/// A transport-level failure is an `Err`; a *typed* server-side failure
/// (error frame) is an `Ok` result with `error` set, so callers can tell
/// "the server refused" from "the network broke".
pub fn run_one(path: &Path, opts: &ClientOptions) -> io::Result<SessionResult> {
    let started = Instant::now();
    let stream = connect(opts.addr.as_str())?;
    let mut wr = BufWriter::new(stream.try_clone()?);

    let mut hs = opts.handshake.clone();
    if hs.name_hint.is_empty() {
        hs.name_hint =
            path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    }
    wire::write_frame(&mut wr, FrameType::Hello, &hs.encode())?;

    // Reader thread: forward every frame, stop after a terminal one.
    let (tx, rx) = mpsc::channel::<io::Result<Frame>>();
    let reader_stream = stream;
    let reader = thread::spawn(move || {
        let mut rd = BufReader::new(reader_stream);
        loop {
            match wire::read_frame(&mut rd) {
                Ok(frame) => {
                    let terminal = matches!(frame.kind, FrameType::Result | FrameType::Error);
                    if tx.send(Ok(frame)).is_err() || terminal {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        }
    });

    let mut result = SessionResult {
        artifact_json: None,
        error: None,
        events: 0,
        stats_frames: 0,
        elapsed: Duration::ZERO,
    };

    // Wait for ready (or an immediate typed refusal: admission, bad spec…).
    let mut streamed: io::Result<()> = Ok(());
    match rx.recv() {
        Ok(Ok(frame)) => match frame.kind {
            FrameType::Ready => streamed = stream_file(path, &mut wr),
            FrameType::Error => result.error = Some(WireError::parse(&frame.payload)),
            other => {
                let _ = reader.join();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected ready, server sent {}", other.name()),
                ));
            }
        },
        Ok(Err(e)) => {
            let _ = reader.join();
            return Err(e);
        }
        Err(_) => {
            let _ = reader.join();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "connection closed before ready",
            ));
        }
    }

    // Collect frames until a terminal one. If streaming failed (broken
    // pipe), the server most likely sent a typed error — surface that in
    // preference to the raw transport error.
    if result.error.is_none() {
        loop {
            match rx.recv() {
                Ok(Ok(frame)) => match frame.kind {
                    FrameType::Stats => {
                        result.events = wire::parse_stats(&frame.payload);
                        result.stats_frames += 1;
                        if !opts.quiet {
                            println!("# stats: {} events", result.events);
                        }
                    }
                    FrameType::Result => {
                        result.artifact_json =
                            Some(String::from_utf8(frame.payload).map_err(|_| {
                                io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    "result artifact is not UTF-8",
                                )
                            })?);
                        break;
                    }
                    FrameType::Error => {
                        result.error = Some(WireError::parse(&frame.payload));
                        break;
                    }
                    other => {
                        let _ = reader.join();
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected {} frame from server", other.name()),
                        ));
                    }
                },
                Ok(Err(e)) => {
                    let _ = reader.join();
                    return Err(streamed.err().unwrap_or(e));
                }
                Err(_) => {
                    let _ = reader.join();
                    return Err(streamed.err().unwrap_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "connection closed before a result or error frame",
                        )
                    }));
                }
            }
        }
    }

    let _ = reader.join();
    result.elapsed = started.elapsed();
    Ok(result)
}

/// Open a connection to `addr` with `TCP_NODELAY` set (see the module
/// docs).
pub(crate) fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn stream_file(path: &Path, wr: &mut BufWriter<TcpStream>) -> io::Result<()> {
    let mut f = File::open(path)?;
    let mut buf = vec![0u8; DATA_CHUNK];
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        wire::write_frame(wr, FrameType::Data, &buf[..n])?;
    }
    wire::write_frame(wr, FrameType::End, b"")
}

/// Ask a server to drain and exit: open a connection whose first frame is
/// `shutdown`, wait for the `ready` ack.
pub fn request_shutdown(addr: &str) -> io::Result<()> {
    let stream = connect(addr)?;
    let mut wr = BufWriter::new(stream.try_clone()?);
    wire::write_frame(&mut wr, FrameType::Shutdown, b"")?;
    let mut rd = BufReader::new(stream);
    let ack = wire::read_frame(&mut rd)?;
    if ack.kind != FrameType::Ready {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a ready ack, got {}", ack.kind.name()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn client_sockets_turn_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect(listener.local_addr().unwrap()).unwrap();
        assert!(stream.nodelay().unwrap());
    }
}
