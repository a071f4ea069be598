//! The accept loop: a std-only threaded TCP server.
//!
//! No async runtime — the container is offline and the workload is
//! CPU-bound simulation, so a [`harness::WorkerPool`] of OS threads is the
//! right shape: one blocking accept loop, one pooled job per connection.
//! Admission control happens on the acceptor thread (connections beyond
//! `max_sessions` get a typed `admission` error and are closed without
//! ever touching the pool), so a flood of clients cannot queue unbounded
//! work behind the limit.
//!
//! Every accepted stream sets `TCP_NODELAY` before it carries a frame
//! (a session, an admission refusal or a shutdown ack). `wire::write_frame`
//! flushes each frame on its own, and a session's last two frames,
//! `stats` then `result`, go out back to back: with Nagle's algorithm on,
//! `result` would wait for the client's delayed ACK of `stats`, about
//! 40 ms on Linux. A stream that refuses the option is still served.
//!
//! Graceful drain: a `shutdown` frame as the first frame of a fresh
//! connection flips the shutdown flag; the handling worker then opens a
//! loopback connection to wake the blocking `accept()`, the acceptor
//! re-checks the flag and breaks, and dropping the pool joins every
//! worker — in-flight sessions finish before the process exits. (This is
//! the sanctioned graceful-stop path; the crate forbids `unsafe`, so no
//! signal handler is installed.)

use std::io::{self, BufWriter, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use harness::WorkerPool;

use crate::client;
use crate::session::{self, SessionConfig, SessionEnd};
use crate::wire::ERR_ADMISSION;

/// Server configuration, straight from the CLI flags.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind host (default loopback — this is a lab tool, not an internet
    /// service).
    pub host: String,
    /// Bind port; `0` asks the OS for an ephemeral port, printed on stdout.
    pub port: u16,
    /// Admission limit: concurrent sessions beyond this are refused with a
    /// typed `admission` error.
    pub max_sessions: usize,
    /// Worker threads; `None` = available parallelism.
    pub threads: Option<usize>,
    /// Honor the handshake `fault` test hook (robustness suite only).
    pub allow_fault_injection: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 0,
            max_sessions: 64,
            threads: None,
            allow_fault_injection: false,
        }
    }
}

/// A server that has bound its listening socket but not yet started
/// accepting. Splitting bind from run lets the integration tests learn
/// the ephemeral port (`--port 0`) before the accept loop takes the
/// thread over.
pub struct BoundServer {
    listener: TcpListener,
    opts: ServeOptions,
}

impl BoundServer {
    pub fn bind(opts: &ServeOptions) -> io::Result<Self> {
        let listener = TcpListener::bind((opts.host.as_str(), opts.port))?;
        Ok(BoundServer { listener, opts: opts.clone() })
    }

    /// The actually-bound address (resolves `--port 0`).
    pub fn addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept sessions until a `shutdown` frame drains the server.
    pub fn run(self) -> io::Result<()> {
        run_accept_loop(self.listener, &self.opts)
    }
}

/// Run the server until a `shutdown` frame drains it. The bound address is
/// printed on stdout as `listening <addr>` before the first accept — CI
/// and the integration tests parse that line to discover the ephemeral
/// port from `--port 0`.
pub fn serve(opts: &ServeOptions) -> io::Result<()> {
    let server = BoundServer::bind(opts)?;
    let addr = server.addr()?;
    println!("listening {addr}");
    io::stdout().flush()?;
    server.run()
}

/// An admitted session's place under `max_sessions`, freed on drop. The
/// session body drops it before its final `stats` and `result` frames go
/// out, so a client that opens its next connection as soon as it has a
/// result never finds the last session still counted. On every other
/// path it goes when the body returns or unwinds. Either way the release
/// strictly precedes the graceful drain: a slow peer must not hold an
/// admission slot (or block a shutdown connection) for the drain timeout.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        // ORDERING: Relaxed — advisory admission counter, see the
        // admission read in the accept loop.
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn run_accept_loop(listener: TcpListener, opts: &ServeOptions) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let threads = opts
        .threads
        .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16));
    let pool = WorkerPool::new(threads);
    println!(
        "# tage_serve: {} worker thread(s), max {} concurrent session(s){}",
        pool.threads(),
        opts.max_sessions,
        if opts.allow_fault_injection { ", fault injection ENABLED" } else { "" }
    );

    // Unique per server *instance*, not just per process: the integration
    // tests run several servers in one process, and tearing one down must
    // not sweep a sibling's spool files.
    static SERVER_SEQ: AtomicUsize = AtomicUsize::new(0);
    let spool_dir = std::env::temp_dir().join(format!(
        "tage-serve-{}-{}",
        std::process::id(),
        // ORDERING: Relaxed — the counter only needs uniqueness.
        SERVER_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&spool_dir)?;
    let cfg = Arc::new(SessionConfig {
        spool_dir: spool_dir.clone(),
        allow_fault_injection: opts.allow_fault_injection,
    });

    let shutdown = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let session_seq = AtomicUsize::new(0);

    loop {
        let stream = match listener.accept() {
            Ok((s, _peer)) => s,
            Err(e) => {
                // Transient accept failures (EMFILE under load, aborted
                // connections) must not kill the server.
                eprintln!("# accept error: {e}");
                continue;
            }
        };
        if let Err(e) = stream.set_nodelay(true) {
            eprintln!("# set_nodelay error: {e}");
        }
        // ORDERING: Relaxed — the wake connection that follows the store
        // provides the needed happens-before through the socket itself.
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        // ORDERING: Relaxed — admission is an advisory gate; a racily
        // stale read admits (or refuses) one borderline session, which
        // the limit's contract ("about this many") tolerates.
        if active.load(Ordering::Relaxed) >= opts.max_sessions {
            // Refuse on a detached thread: the typed error must reach the
            // peer (send + graceful drain) without ever blocking accept.
            let limit = opts.max_sessions;
            thread::spawn(move || {
                {
                    let mut wr = BufWriter::new(&stream);
                    session::send_error_frame(
                        &mut wr,
                        ERR_ADMISSION,
                        &format!("server is at its session limit ({limit})"),
                    );
                }
                session::drain_to_eof(&stream);
            });
            continue;
        }
        // ORDERING: Relaxed — see the admission read above; the counter
        // never orders any other memory.
        active.fetch_add(1, Ordering::Relaxed);
        let slot = Slot(Arc::clone(&active));
        // ORDERING: Relaxed — the id only needs uniqueness for log lines.
        let id = session_seq.fetch_add(1, Ordering::Relaxed);
        let cfg = Arc::clone(&cfg);
        let shutdown = Arc::clone(&shutdown);
        pool.submit(Box::new(move || {
            // Panic fence: a panicking session (decoder bug, predictor
            // bug, injected fault) must degrade only itself. Unwinding is
            // live in every test build; the release binary aborts instead
            // (see Cargo.toml), which is why fault injection is gated.
            let fence_half = stream.try_clone().ok();
            let drain_half = stream.try_clone().ok();
            let end = catch_unwind(AssertUnwindSafe(|| session::session_body(stream, &cfg, slot)))
                .unwrap_or_else(|payload| {
                    let detail = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("session panicked");
                    session::report_panic(fence_half, detail)
                });
            match &end {
                SessionEnd::Completed { events } => {
                    println!("# session {id}: ok ({events} events)");
                }
                SessionEnd::Errored { code, message } => {
                    println!("# session {id}: error [{code}] {message}");
                }
                SessionEnd::ShutdownRequested => {
                    println!("# session {id}: shutdown requested, draining");
                    // ORDERING: Relaxed — the loopback connect below gives
                    // the acceptor a happens-before edge via the socket.
                    shutdown.store(true, Ordering::Relaxed);
                    // Wake the blocking accept() so the acceptor sees the
                    // flag even if no further client ever connects.
                    let _ = client::connect(addr);
                }
            }
            if let Some(s) = drain_half {
                session::drain_to_eof(&s);
            }
        }));
    }

    // Joining the pool drains in-flight sessions before we return.
    drop(pool);
    let _ = std::fs::remove_dir_all(&spool_dir);
    println!("# tage_serve: drained, exiting");
    Ok(())
}
