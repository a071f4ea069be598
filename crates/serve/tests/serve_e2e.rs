//! End-to-end tests for the prediction service: bit-identity with offline
//! runs across every container codec, and the robustness suite proving a
//! faulty session never takes the server (or a neighbor) down with it.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use harness::artifact::{scenario_from_label, RunArtifact};
use harness::trace_mode::{self, record_trace};
use harness::{PredictorSpec, WorkerPool};
use pipeline::{simulate_engine, PipelineConfig, SimWindow, SuiteReport, DEFAULT_BATCH};
use serve::wire::{self, FrameType, Handshake, WireError};
use serve::{run_one, BoundServer, ClientOptions, ServeOptions};
use traces::{CodecRegistry, CsvCodec, Ttr3Codec};
use workloads::suite::{by_name, Scale};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(max_sessions: usize, allow_fault_injection: bool) -> (SocketAddr, thread::JoinHandle<()>) {
    let opts = ServeOptions {
        max_sessions,
        threads: Some(4),
        allow_fault_injection,
        ..ServeOptions::default()
    };
    let server = BoundServer::bind(&opts).expect("bind an ephemeral port");
    let addr = server.addr().unwrap();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn stop_server(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    serve::request_shutdown(&addr.to_string()).expect("shutdown ack");
    handle.join().expect("server thread joins cleanly");
}

fn client_opts(addr: SocketAddr) -> ClientOptions {
    ClientOptions {
        addr: addr.to_string(),
        handshake: Handshake { spec: "tage".to_string(), ..Handshake::default() },
        quiet: true,
    }
}

/// The offline twin: exactly what `tage_exp system tage --trace FILE
/// --artifacts DIR` writes for this file.
fn offline_artifact_json(file: &Path) -> String {
    let spec = PredictorSpec::parse("tage").unwrap();
    let scenario = scenario_from_label("A").unwrap();
    let suites = trace_mode::run(
        std::slice::from_ref(&spec),
        scenario,
        vec![file.to_path_buf()],
        &PipelineConfig::default(),
        &WorkerPool::new(1),
    )
    .unwrap();
    RunArtifact::from_suite(&spec.sim_key(), scenario, "external", &suites[0], None, 20).to_json()
}

#[test]
fn port_zero_binds_an_ephemeral_port() {
    let server = BoundServer::bind(&ServeOptions::default()).unwrap();
    assert_ne!(server.addr().unwrap().port(), 0);
}

#[test]
fn served_results_are_bit_identical_to_offline_runs_across_codecs() {
    let dir = test_dir("bitident");
    let trace = by_name("INT01", Scale::Tiny).unwrap().generate();
    // .ttr v2 is read-only: its leg serves the committed fixture.
    let v2 = Path::new(env!("CARGO_MANIFEST_DIR")).join("../traces/tests/data/GOLD01.ttr");
    let v3_raw = dir.join("INT01-raw.ttr3");
    let mut raw = Vec::new();
    traces::ttr3::encode(&mut raw, &trace, 0).unwrap();
    std::fs::write(&v3_raw, raw).unwrap();
    let v3_lz = record_trace(&trace, &Ttr3Codec, &dir).unwrap();

    let (addr, handle) = start_server(8, false);
    for (label, file) in [("ttr v2", &v2), ("ttr3 raw", &v3_raw), ("ttr3 lz", &v3_lz)] {
        let res = run_one(file, &client_opts(addr)).unwrap();
        assert!(res.error.is_none(), "{label}: server error {:?}", res.error);
        let served = res.artifact_json.expect("result artifact");
        let offline = offline_artifact_json(file);
        assert_eq!(served, offline, "{label}: served artifact differs from the offline run");
        assert!(res.events > 0, "{label}: final stats frame carries events");
    }
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_stats_frames_do_not_change_the_result() {
    let dir = test_dir("stats");
    let trace = by_name("MM05", Scale::Tiny).unwrap().generate();
    let file = record_trace(&trace, &Ttr3Codec, &dir).unwrap();
    let offline = offline_artifact_json(&file);

    let (addr, handle) = start_server(8, false);
    for stats_every in [0, 500] {
        let mut opts = client_opts(addr);
        opts.handshake.stats_every = stats_every;
        let res = run_one(&file, &opts).unwrap();
        assert!(res.error.is_none(), "server error {:?}", res.error);
        let periodic = res.stats_frames - 1;
        assert_eq!(periodic > 0, stats_every > 0, "{periodic} periodic stats frames");
        if stats_every > 0 {
            // One block per chunk, one frame per chunk that fed events:
            // the chunk that only finds the end of the stream sends none.
            let blocks = trace.events.len().div_ceil(DEFAULT_BATCH);
            assert_eq!(periodic, blocks, "one periodic frame per fed block");
        }
        // The final frame counts trace events fed — the unit
        // `stats_every` counts in — whether or not periodic frames ran.
        assert_eq!(res.events, trace.events.len() as u64, "stats_every {stats_every}");

        // The chunked, stats-interleaved run must equal the one-shot
        // offline run byte for byte.
        assert_eq!(res.artifact_json.unwrap(), offline, "stats_every {stats_every}");
    }
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session whose measure window ends before the trace stops pulling
/// events; the undrained tail of a container that declares its event
/// count is not a shortfall. The result must equal the offline windowed
/// run over the same file, which skips the prefix on its source. A
/// skip-only session runs to the end of the trace, and its final `stats`
/// frame counts the skipped prefix too: the whole file.
#[test]
fn windowed_sessions_match_the_offline_windowed_run() {
    let dir = test_dir("window");
    let trace = by_name("CLIENT01", Scale::Tiny).unwrap().generate();
    let total = trace.events.len() as u64;
    // CSV decodes front to back off the live stream; .ttr3 spools first.
    let csv = record_trace(&trace, &CsvCodec, &dir).unwrap();
    let v3 = record_trace(&trace, &Ttr3Codec, &dir).unwrap();
    let skip = 300;
    let spec = PredictorSpec::parse("gshare:12").unwrap();
    let scenario = scenario_from_label("A").unwrap();

    let (addr, handle) = start_server(8, false);
    for (label, file) in [("csv", &csv), ("ttr3 lz", &v3)] {
        for window in [SimWindow { warmup: 500, measure: 1000 }, SimWindow::default()] {
            let context = format!("{label}, skip {skip}, {window:?}");
            let mut opts = client_opts(addr);
            opts.handshake.spec = spec.to_string();
            opts.handshake.skip = skip;
            opts.handshake.warmup = window.warmup;
            opts.handshake.measure = window.measure;
            let res = run_one(file, &opts).unwrap();
            assert!(res.error.is_none(), "{context}: server error {:?}", res.error);
            if window == SimWindow::default() {
                assert_eq!(res.events, total, "{context}: the final stats frame totals the file");
            } else {
                assert!(
                    res.events < total,
                    "{context}: the session must stop before the end of the trace ({} events)",
                    res.events
                );
            }

            let cfg = PipelineConfig { window, ..PipelineConfig::default() };
            let mut engine = spec.build_engine(scenario, &cfg).unwrap();
            let mut src = CodecRegistry::standard().open(file).unwrap();
            assert_eq!(src.skip(skip), skip);
            let report = simulate_engine(&mut *engine, &mut src);
            let suite = SuiteReport::new(vec![report]);
            let offline =
                RunArtifact::from_suite(&spec.sim_key(), scenario, "external", &suite, None, 20)
                    .to_json();
            assert_eq!(res.artifact_json.expect("result artifact"), offline, "{context}");
        }
    }
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Open a raw wire connection and return (reader, writer) halves.
fn raw_connect(addr: SocketAddr) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let rd = BufReader::new(stream.try_clone().unwrap());
    (rd, BufWriter::new(stream))
}

fn expect_error(rd: &mut BufReader<TcpStream>, want_code: &str, context: &str) {
    loop {
        let frame = wire::read_frame(rd).unwrap_or_else(|e| panic!("{context}: read failed: {e}"));
        match frame.kind {
            FrameType::Stats => continue,
            FrameType::Error => {
                let err = WireError::parse(&frame.payload);
                assert_eq!(err.code, want_code, "{context}: wrong error code ({})", err.message);
                return;
            }
            other => panic!("{context}: expected an error frame, got {}", other.name()),
        }
    }
}

fn expect_ready(rd: &mut BufReader<TcpStream>, context: &str) {
    let frame = wire::read_frame(rd).unwrap_or_else(|e| panic!("{context}: read failed: {e}"));
    assert_eq!(frame.kind, FrameType::Ready, "{context}: expected ready");
}

fn healthy_session(addr: SocketAddr, file: &Path, context: &str) {
    let res = run_one(file, &client_opts(addr))
        .unwrap_or_else(|e| panic!("{context}: healthy session transport error: {e}"));
    assert!(res.error.is_none(), "{context}: healthy session got {:?}", res.error);
    assert!(res.artifact_json.is_some(), "{context}: healthy session missing artifact");
}

/// A session's last two frames, `stats` then `result`, go out back to
/// back. If the server left Nagle's algorithm on, `result` would wait for
/// this client's delayed ACK of `stats` (about 40 ms on Linux). The raw
/// client leaves Nagle on, so only the server's `TCP_NODELAY` keeps the
/// gap short. Between the two writes the server only serializes the
/// artifact, so the gap does not depend on the trace or the build.
#[test]
fn result_frame_follows_the_final_stats_frame_without_a_stall() {
    let dir = test_dir("gap");
    let trace = by_name("INT01", Scale::Tiny).unwrap().generate();
    let file = record_trace(&trace, &Ttr3Codec, &dir).unwrap();
    let trace_bytes = std::fs::read(&file).unwrap();

    let (addr, handle) = start_server(8, false);
    let mut gaps: Vec<Duration> = (0..7)
        .map(|i| {
            let (mut rd, mut wr) = raw_connect(addr);
            let hs = Handshake {
                spec: "gshare:12".to_string(),
                name_hint: "INT01.ttr3".to_string(),
                ..Handshake::default()
            };
            wire::write_frame(&mut wr, FrameType::Hello, &hs.encode()).unwrap();
            expect_ready(&mut rd, "gap session");
            for chunk in trace_bytes.chunks(wire::DATA_CHUNK) {
                wire::write_frame(&mut wr, FrameType::Data, chunk).unwrap();
            }
            wire::write_frame(&mut wr, FrameType::End, b"").unwrap();
            let stats = wire::read_frame(&mut rd).unwrap();
            let stats_at = Instant::now();
            let result = wire::read_frame(&mut rd).unwrap();
            let gap = stats_at.elapsed();
            let kinds = (stats.kind, result.kind);
            assert_eq!(kinds, (FrameType::Stats, FrameType::Result), "session {i}");
            gap
        })
        .collect();
    gaps.sort();
    let median = gaps[gaps.len() / 2];
    assert!(median < Duration::from_millis(10), "median gap {median:?}, all gaps {gaps:?}");
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_fault_kills_only_its_own_session() {
    let dir = test_dir("faults");
    let trace = by_name("INT02", Scale::Tiny).unwrap().generate();
    let file = record_trace(&trace, &Ttr3Codec, &dir).unwrap();
    let trace_bytes = std::fs::read(&file).unwrap();

    let (addr, handle) = start_server(8, true);

    // A healthy neighbor churns through sessions *while* the faults fire:
    // isolation means it never notices them.
    let neighbor_file = file.clone();
    let neighbor = thread::spawn(move || {
        for i in 0..5 {
            healthy_session(addr, &neighbor_file, &format!("concurrent neighbor #{i}"));
        }
    });

    // 1. Malformed handshake: hello payload that fails the strict parser.
    {
        let (mut rd, mut wr) = raw_connect(addr);
        wire::write_frame(&mut wr, FrameType::Hello, b"wire=tage.wire/2\nnot a key value line")
            .unwrap();
        expect_error(&mut rd, "bad-handshake", "malformed handshake");
    }
    healthy_session(addr, &file, "after malformed handshake");

    // 2. Unknown frame tag as the very first frame.
    {
        let (mut rd, mut wr) = raw_connect(addr);
        let mut raw = vec![0xEEu8];
        raw.extend_from_slice(&4u32.to_le_bytes());
        raw.extend_from_slice(b"junk");
        wr.write_all(&raw).unwrap();
        wr.flush().unwrap();
        expect_error(&mut rd, "bad-frame", "unknown first frame");
    }
    healthy_session(addr, &file, "after unknown first frame");

    // 3. Garbage mid-stream: a stats frame (client→server nonsense) in the
    //    middle of the data phase.
    {
        let (mut rd, mut wr) = raw_connect(addr);
        let hs = Handshake { spec: "tage".to_string(), name_hint: "INT02.ttr3".to_string(), ..Handshake::default() };
        wire::write_frame(&mut wr, FrameType::Hello, &hs.encode()).unwrap();
        expect_ready(&mut rd, "garbage mid-stream");
        wire::write_frame(&mut wr, FrameType::Data, &trace_bytes[..64]).unwrap();
        wire::write_frame(&mut wr, FrameType::Stats, b"events=1\n").unwrap();
        expect_error(&mut rd, "bad-frame", "garbage mid-stream");
    }
    healthy_session(addr, &file, "after garbage mid-stream");

    // 4. Oversized frame length: refused before allocation.
    {
        let (mut rd, mut wr) = raw_connect(addr);
        let hs = Handshake { spec: "tage".to_string(), name_hint: "INT02.ttr3".to_string(), ..Handshake::default() };
        wire::write_frame(&mut wr, FrameType::Hello, &hs.encode()).unwrap();
        expect_ready(&mut rd, "oversized frame");
        let mut raw = vec![FrameType::Data as u8];
        raw.extend_from_slice(&(wire::MAX_FRAME_LEN + 1).to_le_bytes());
        wr.write_all(&raw).unwrap();
        wr.flush().unwrap();
        expect_error(&mut rd, "oversized-frame", "oversized frame");
    }
    healthy_session(addr, &file, "after oversized frame");

    // 5. Client disconnect mid-trace: nothing to assert on this socket —
    //    the proof is that the server keeps serving afterwards.
    {
        let (_rd, mut wr) = raw_connect(addr);
        let hs = Handshake { spec: "tage".to_string(), name_hint: "INT02.ttr3".to_string(), ..Handshake::default() };
        wire::write_frame(&mut wr, FrameType::Hello, &hs.encode()).unwrap();
        wire::write_frame(&mut wr, FrameType::Data, &trace_bytes[..128]).unwrap();
        // Drop both halves: the peer vanishes mid-stream.
    }
    healthy_session(addr, &file, "after client disconnect");

    // 6. Planted panic: the session dies behind the fence and reports a
    //    typed error; the server survives.
    {
        let mut opts = client_opts(addr);
        opts.handshake.fault = "panic".to_string();
        let res = run_one(&file, &opts).unwrap();
        let err = res.error.expect("injected panic must surface as a typed error");
        assert_eq!(err.code, "panic", "got {err:?}");
    }
    healthy_session(addr, &file, "after injected panic");

    neighbor.join().expect("concurrent neighbor stayed healthy");
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_injection_is_refused_unless_enabled() {
    let dir = test_dir("noinject");
    let trace = by_name("WS01", Scale::Tiny).unwrap().generate();
    let file = record_trace(&trace, &Ttr3Codec, &dir).unwrap();

    let (addr, handle) = start_server(8, false);
    let mut opts = client_opts(addr);
    opts.handshake.fault = "panic".to_string();
    let res = run_one(&file, &opts).unwrap();
    let err = res.error.expect("fault hook must be refused");
    assert_eq!(err.code, "spec");
    assert!(err.message.contains("fault injection is disabled"));
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec past its predictor's bounds (`gshare:27`: gshare builds at most
/// 26 index bits) must end its own session with a typed `spec` error and
/// leave the server serving. A panic in the constructor would take down
/// a release server, which aborts on panic.
#[test]
fn out_of_range_spec_is_a_spec_error_and_the_next_session_is_served() {
    let dir = test_dir("badspec");
    let trace = by_name("INT01", Scale::Tiny).unwrap().generate();
    let file = record_trace(&trace, &Ttr3Codec, &dir).unwrap();

    let (addr, handle) = start_server(8, false);
    let mut opts = client_opts(addr);
    opts.handshake.spec = "gshare:27".to_string();
    let res = run_one(&file, &opts).unwrap();
    let err = res.error.expect("gshare:27 must be refused");
    assert_eq!(err.code, "spec", "got {err:?}");
    healthy_session(addr, &file, "session after the refused spec");
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admission_limit_sends_a_typed_refusal() {
    let dir = test_dir("admission");
    let trace = by_name("INT01", Scale::Tiny).unwrap().generate();
    let file = record_trace(&trace, &Ttr3Codec, &dir).unwrap();

    let (addr, handle) = start_server(1, false);

    // Occupy the single slot: handshake through `ready`, then stall.
    let (mut rd, mut wr) = raw_connect(addr);
    let hs = Handshake { spec: "tage".to_string(), name_hint: "INT01.ttr3".to_string(), ..Handshake::default() };
    wire::write_frame(&mut wr, FrameType::Hello, &hs.encode()).unwrap();
    expect_ready(&mut rd, "slot holder");

    // Anyone else is refused with a typed error before the handshake.
    let res = run_one(&file, &client_opts(addr)).unwrap();
    let err = res.error.expect("second session must be refused");
    assert_eq!(err.code, "admission");

    // Release the slot; the server recovers (the held session ends in a
    // decode error — it never got a full trace — which is fine).
    drop(rd);
    drop(wr);
    let mut ok = false;
    for _ in 0..50 {
        thread::sleep(Duration::from_millis(50));
        let res = run_one(&file, &client_opts(addr)).unwrap();
        if res.error.is_none() {
            ok = true;
            break;
        }
        assert_eq!(res.error.as_ref().unwrap().code, "admission");
    }
    assert!(ok, "slot never freed after the holder disconnected");
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that opens its next session as soon as it has a result must
/// not be refused for the slot its last session still held.
#[test]
fn back_to_back_sessions_fit_a_one_session_limit() {
    let dir = test_dir("backtoback");
    let trace = by_name("INT01", Scale::Tiny).unwrap().generate();
    let file = record_trace(&trace, &Ttr3Codec, &dir).unwrap();

    let (addr, handle) = start_server(1, false);
    for i in 0..50 {
        healthy_session(addr, &file, &format!("back-to-back session #{i}"));
    }
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manyclient_bench_aggregates_and_isolates_injected_panics() {
    let dir = test_dir("manyclient");
    for name in ["INT01", "MM01", "WS01"] {
        let trace = by_name(name, Scale::Tiny).unwrap().generate();
        record_trace(&trace, &Ttr3Codec, &dir).unwrap();
    }

    let (addr, handle) = start_server(16, true);
    let opts = serve::ManyClientOptions {
        addr: addr.to_string(),
        traces_dir: dir.clone(),
        sessions: 6,
        handshake: Handshake { spec: "tage".to_string(), ..Handshake::default() },
        inject_panic: 1,
    };
    let (summary, outcomes) = serve::run_bench(&opts).unwrap();
    assert_eq!(summary.sessions, 6);
    assert_eq!(summary.ok, 5, "outcomes: {outcomes:?}");
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.error_codes, vec![("panic".to_string(), 1)]);
    assert!(summary.events_total > 0);
    assert!(summary.p99_ms >= summary.p50_ms);
    for o in &outcomes {
        if o.injected {
            assert_eq!(o.error_code.as_deref(), Some("panic"));
        } else {
            assert!(o.is_ok(), "healthy session failed: {o:?}");
        }
    }
    stop_server(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
