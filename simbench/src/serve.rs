//! `serve-gshare`: an in-process `tage_serve` with two pool workers and two
//! closed-loop client connections, each streaming one Default-scale
//! `.ttr3` + lz file per session with spec `gshare:512k` under [A].

use harness::artifact::RunArtifact;
use harness::PredictorSpec;
use pipeline::SuiteReport;
use serve::wire::{self, FrameType, Handshake, DATA_CHUNK};
use serve::{request_shutdown, run_one, BoundServer, ClientOptions, ServeOptions};
use simkit::UpdateScenario;
use std::io::{self, BufReader, BufWriter, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use workloads::suite::{suite, Scale};

use crate::check::DigestStore;
use crate::sim::{self, Recorded};
use crate::spans::Tracer;
use crate::{Pass, Stopwatch, Workload, THREADS};

/// The served predictor: nearly free, so the wire, codec feed, engine
/// window and artifact encoding dominate a session.
pub const SPEC: &str = "gshare:512k";

/// Sessions per latency block: five rounds over the 40 files, so each
/// block has the same file mix and at least 10 sessions beyond its p95.
/// Two of the 40 files (5 %) are much slower than the rest, which puts a
/// run-wide p95 on the edge between the two groups, where one stray slow
/// session moves it; the median of per-block percentiles does not jump.
const BLOCK: usize = 200;

/// A running in-process server.
pub struct Server {
    pub addr: String,
    handle: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Binds an ephemeral loopback port and accepts on a thread, with
    /// [`THREADS`] pool workers and the default admission limit (well
    /// above the two connections, so a refusal is a real failure).
    pub fn start() -> io::Result<Self> {
        let opts = ServeOptions {
            threads: Some(THREADS),
            ..ServeOptions::default()
        };
        let bound = BoundServer::bind(&opts)?;
        let addr = bound.addr()?.to_string();
        let handle = std::thread::spawn(move || bound.run());
        Ok(Self { addr, handle })
    }

    /// Drains the server and joins its accept thread.
    pub fn stop(self) -> io::Result<()> {
        request_shutdown(&self.addr)?;
        self.handle
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// The handshake every session sends.
pub fn handshake() -> Handshake {
    Handshake {
        spec: SPEC.to_string(),
        scenario: "A".to_string(),
        ..Handshake::default()
    }
}

/// The artifact JSON the offline cell recipe produces for `path` — what a
/// served session must return byte for byte.
pub fn offline_artifact(path: &Path) -> io::Result<String> {
    let spec = PredictorSpec::parse(SPEC).expect("gshare spec parses");
    let scenario = UpdateScenario::RereadAtRetire;
    let mut tracer = Tracer::new(false, Instant::now());
    let report = sim::run_cell(&spec, scenario, path, &mut tracer, 0)?;
    let suite = SuiteReport::new(vec![report]);
    let top = handshake().top;
    Ok(RunArtifact::from_suite(&spec.sim_key(), scenario, "external", &suite, None, top).to_json())
}

/// One session driven frame by frame, so its time splits into upload
/// (connect to `end` frame sent) and result wait (to the `result` frame).
/// Returns `(upload, total, artifact JSON)`.
pub fn split_session(addr: &str, path: &Path) -> io::Result<(Duration, Duration, String)> {
    let t0 = Instant::now();
    let stream = TcpStream::connect(addr)?;
    let mut wr = BufWriter::new(stream.try_clone()?);
    let mut rd = BufReader::new(stream);
    let mut hs = handshake();
    hs.name_hint = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    wire::write_frame(&mut wr, FrameType::Hello, &hs.encode())?;
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let ready = wire::read_frame(&mut rd)?;
    if ready.kind != FrameType::Ready {
        return Err(bad(format!("expected ready, got {}", ready.kind.name())));
    }
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; DATA_CHUNK];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        wire::write_frame(&mut wr, FrameType::Data, &buf[..n])?;
    }
    wire::write_frame(&mut wr, FrameType::End, b"")?;
    let upload = t0.elapsed();
    loop {
        let frame = wire::read_frame(&mut rd)?;
        match frame.kind {
            FrameType::Stats => {}
            FrameType::Result => {
                let json = String::from_utf8(frame.payload).map_err(|_| bad("non-UTF-8".into()))?;
                return Ok((upload, t0.elapsed(), json));
            }
            other => return Err(bad(format!("session ended with {}", other.name()))),
        }
    }
}

/// The workload state: recorded files, their offline artifacts, and the
/// server.
pub struct Serve {
    clk_tck: u64,
    seed: u64,
    dir: PathBuf,
    files: Vec<Recorded>,
    offline: Vec<String>,
    server: Option<Server>,
}

impl Serve {
    pub fn new(clk_tck: u64, seed: u64, work: &Path) -> Self {
        let dir = work.join("default");
        Self {
            clk_tck,
            seed,
            dir,
            files: Vec::new(),
            offline: Vec::new(),
            server: None,
        }
    }
}

impl Workload for Serve {
    fn setup(&mut self) -> io::Result<()> {
        self.stop()?;
        self.files = sim::record_all(&suite(Scale::Default), &self.dir, THREADS)?;
        self.server = Some(Server::start()?);
        Ok(())
    }

    fn prepare(&mut self) -> io::Result<()> {
        sim::sync(&self.files)?;
        self.offline = self
            .files
            .iter()
            .map(|f| offline_artifact(&f.path))
            .collect::<io::Result<_>>()?;
        Ok(())
    }

    fn pass(&mut self, seconds: f64, traced: bool, store: &mut DigestStore) -> io::Result<Pass> {
        let addr = &self.server.as_ref().expect("set up before a pass").addr;
        let opts = ClientOptions {
            addr: addr.clone(),
            handshake: handshake(),
            quiet: true,
        };
        let n = self.files.len();
        let order = sim::permutation(n, self.seed);
        // Session tickets in whole blocks of whole rounds (each file once
        // per round, so every block has the same file mix), as many blocks
        // as fit in `seconds`: a block starts only if the blocks so far
        // predict it ends in time.
        let tickets = Mutex::new((0usize, false));
        let take = |sw: &Stopwatch| {
            let mut t = tickets.lock().expect("no client panicked");
            let (k, closed) = *t;
            let blocks = k / BLOCK;
            if closed
                || (k % BLOCK == 0
                    && k > 0
                    && sw.elapsed() * (blocks + 1) as f64 / blocks as f64 > seconds)
            {
                t.1 = true;
                return None;
            }
            t.0 += 1;
            Some(k)
        };
        let done = Mutex::new(Vec::new());
        let mut spans = Vec::new();
        let sw = Stopwatch::start(self.clk_tck);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut tracer = Tracer::new(traced, sw.origin());
                        let mut mine = Vec::new();
                        // Closed loop: the next session starts only after
                        // this connection's previous result arrived.
                        while let Some(k) = take(&sw) {
                            let file = order[k % n];
                            let t0 = Instant::now();
                            let res = tracer.time("serve.session", k as u32, || {
                                run_one(&self.files[file].path, &opts)
                            });
                            mine.push((k, file, res, t0.elapsed()));
                        }
                        done.lock().expect("no client panicked").extend(mine);
                        tracer.into_spans()
                    })
                })
                .collect();
            for w in workers {
                spans.extend(w.join().expect("client thread panicked"));
            }
        });
        let (wall, cpu) = sw.read();
        let mut pass = Pass {
            wall,
            cpu,
            spans,
            ..Pass::default()
        };
        let mut done = done.into_inner().expect("no client panicked");
        done.sort_by_key(|d| d.0);
        for (k, file, res, latency) in done {
            pass.ops += 1;
            pass.jobs_requested += 1;
            pass.busy += latency;
            let ok = match res {
                Ok(r) if r.is_ok() => {
                    let json = r.artifact_json.unwrap_or_default();
                    let key = format!("{SPEC} A {}", self.files[file].name);
                    store.check(key, sim::fnv(json.as_bytes())) && json == self.offline[file]
                }
                Ok(r) => {
                    eprintln!("session refused or failed: {:?}", r.error);
                    false
                }
                Err(e) => {
                    eprintln!("session transport error: {e}");
                    false
                }
            };
            if ok {
                pass.jobs_run += 1;
                pass.predictions += self.files[file].conditionals;
                let b = k / BLOCK;
                if pass.latency_blocks.len() <= b {
                    pass.latency_blocks.resize_with(b + 1, Vec::new);
                }
                pass.latency_blocks[b].push(latency.as_secs_f64() * 1e3);
            } else {
                pass.failed += 1;
            }
        }
        Ok(pass)
    }

    fn stop(&mut self) -> io::Result<()> {
        self.server.take().map_or(Ok(()), Server::stop)
    }
}
