//! `tage_trace` — record, convert, and inspect external trace files.
//!
//! ```text
//! tage_trace record <trace-name...|all> [--scale tiny|small|default|full]
//!                   [--out DIR] [--format ttr|ttr3|cbp|csv] [--compress] [--scheme raw|lz]
//! tage_trace convert <input> <output> [--format ttr|ttr3|cbp|csv] [--compress] [--scheme raw|lz]
//! tage_trace inspect <file...>
//! tage_trace formats
//! ```
//!
//! `record` *streams* synthetic suite traces to files (the bridge from
//! the generator to the external-trace pipeline) — events flow from the
//! generator into the codec without ever materializing the trace, so peak
//! memory is bounded by the codec's working set even at `--scale full`;
//! `convert` transcodes any recognized format to any other (output format
//! from the extension unless `--format` overrides); `inspect` streams a
//! file and prints its vitals, including the v3 container's scheme byte,
//! block count and compressed/raw ratio. `--compress` selects the block-
//! compressed `.ttr` v3 container (`--scheme` picks the block scheme;
//! default `lz`).

use harness::cli::Flags;
use std::io;
use std::path::{Path, PathBuf};
use traces::CodecRegistry;
use workloads::event::EventSource;
use workloads::suite::{by_name, suite, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("formats") => cmd_formats(),
        Some("--help" | "-h") | None => {
            print_usage();
            if args.is_empty() {
                2
            } else {
                0
            }
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    println!("usage: tage_trace record <trace-name...|all> [--scale tiny|small|default|full]");
    println!("                         [--out DIR] [--format ttr|ttr3|cbp|csv]");
    println!("                         [--compress] [--scheme raw|lz]");
    println!("       tage_trace convert <input> <output> [--format ttr|ttr3|cbp|csv]");
    println!("                          [--compress] [--scheme raw|lz]");
    println!("       tage_trace inspect <file...> [--json]");
    println!("       tage_trace formats");
    println!("  --compress    write the block-compressed .ttr v3 container (same as --format ttr3)");
    println!("  --scheme S    v3 block scheme (default lz; see DESIGN.md section 3b)");
    println!("  --json        inspect: emit a JSON array (same fields as the text columns)");
}

/// Resolves the output codec from `--format`/`--compress`/`--scheme`.
/// `--compress` (or `--scheme`) selects the v3 container; an explicit
/// conflicting `--format` is a usage error, not a silent override. The
/// `Ttr3Codec` is returned owned because a non-default scheme byte is not
/// in the registry.
fn output_codec<'a>(
    registry: &'a traces::CodecRegistry,
    flags: &Flags,
    default_format: Option<&str>,
) -> Result<(Option<&'a dyn traces::TraceCodec>, Option<traces::Ttr3Codec>), String> {
    let compress = flags.switch("--compress") || flags.flag("--scheme").is_some();
    let format = flags.flag("--format");
    if compress {
        if let Some(f) = format {
            if f != "ttr3" {
                return Err(format!("--compress writes ttr3, which conflicts with --format {f}"));
            }
        }
        let scheme = flags.flag("--scheme").unwrap_or("lz");
        let Some((_, scheme_id, _)) = traces::SCHEMES.iter().find(|(n, _, _)| *n == scheme)
        else {
            let known: Vec<&str> = traces::SCHEMES.iter().map(|(n, _, _)| *n).collect();
            return Err(format!("unknown scheme '{scheme}' (known: {})", known.join(", ")));
        };
        // Recorded v3 files always carry the seekable block index — the
        // 16-bytes-per-block footer is what makes `tage_exp sample` skip
        // in O(1) instead of decompressing every leading block.
        return Ok((None, Some(traces::Ttr3Codec { scheme_id: *scheme_id | traces::TTR3_INDEX_FLAG })));
    }
    match format.or(default_format) {
        Some(name) => match registry.by_name(name) {
            Some(c) => Ok((Some(c), None)),
            None => Err(format!("unknown format '{name}' (see `tage_trace formats`)")),
        },
        None => Ok((None, None)),
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("{msg}");
    print_usage();
    2
}

fn io_fail(what: &str, e: &io::Error) -> i32 {
    eprintln!("{what}: {e}");
    1
}

fn cmd_record(args: &[String]) -> i32 {
    let flags =
        match Flags::parse(args, &["--scale", "--out", "--format", "--scheme"], &["--compress"]) {
            Ok(v) => v,
            Err(e) => return usage_error(&e.to_string()),
        };
    let names = &flags.positional;
    if names.is_empty() {
        return usage_error("record: no trace names given");
    }
    let scale = match flags.flag("--scale") {
        None => Scale::Tiny,
        Some(v) => match Scale::parse(v) {
            Some(s) => s,
            None => return usage_error(&format!("unknown scale '{v}'")),
        },
    };
    let out = PathBuf::from(flags.flag("--out").unwrap_or("."));
    let registry = CodecRegistry::standard();
    let (reg_codec, owned) = match output_codec(&registry, &flags, Some("ttr")) {
        Ok(v) => v,
        Err(e) => return usage_error(&e.to_string()),
    };
    let codec: &dyn traces::TraceCodec = match (&owned, reg_codec) {
        (Some(c), _) => c,
        // INVARIANT: record passes a default format, so output_codec
        // always resolves one of the two.
        (None, c) => c.expect("record always has a format"),
    };
    let specs = if names.iter().any(|n| n == "all") {
        suite(scale)
    } else {
        let mut specs = Vec::new();
        for n in names {
            match by_name(n, scale) {
                Some(s) => specs.push(s),
                None => return usage_error(&format!("unknown trace '{n}'")),
            }
        }
        specs
    };
    for spec in &specs {
        // Streamed end to end: the generator feeds the codec directly
        // (re-invoked for two-pass layouts), so recording `--scale full`
        // never materializes the event vector.
        let mut make = || Ok(Box::new(spec.stream()) as Box<dyn EventSource + Send>);
        match harness::trace_mode::record_stream(&spec.name, codec, &out, &mut make) {
            Ok(path) => {
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                println!("recorded {} ({} bytes, streamed) -> {}", spec.name, bytes, path.display());
            }
            Err(e) => return io_fail(&format!("record {}", spec.name), &e),
        }
    }
    0
}

fn cmd_convert(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &["--format", "--scheme"], &["--compress"]) {
        Ok(v) => v,
        Err(e) => return usage_error(&e.to_string()),
    };
    let [input, output] = flags.positional.as_slice() else {
        return usage_error("convert: expected <input> <output>");
    };
    let (input, output) = (Path::new(input), Path::new(output));
    let registry = CodecRegistry::standard();
    let (reg_codec, owned) = match output_codec(&registry, &flags, None) {
        Ok(v) => v,
        Err(e) => return usage_error(&e.to_string()),
    };
    let to: &dyn traces::TraceCodec = match (&owned, reg_codec) {
        (Some(c), _) => c,
        (None, Some(c)) => c,
        (None, None) => match registry.by_extension(output) {
            Some(c) => c,
            None => {
                return usage_error(&format!(
                    "cannot infer output format from '{}' (pass --format)",
                    output.display()
                ))
            }
        },
    };
    // Conversion is offline: materialize the decoded trace, then encode.
    let mut source = match registry.open(input) {
        Ok(s) => s,
        Err(e) => return io_fail(&input.display().to_string(), &e),
    };
    let from_fmt = source.format();
    let mut events = Vec::new();
    while let Some(e) = source.next_event() {
        events.push(e);
    }
    if let Err(e) = traces::finish(source.as_ref()) {
        return io_fail(&input.display().to_string(), &e);
    }
    let trace = workloads::Trace {
        name: source.name().to_string(),
        category: source.category().to_string(),
        events,
    };
    // Atomic like record: a mid-encode failure (e.g. a CBP-unrepresentable
    // trace, a full disk) must not leave a partial file or destroy a
    // pre-existing one at the destination.
    let tmp = output.with_file_name(format!(
        "{}.tmp.{}",
        output.file_name().and_then(|s| s.to_str()).unwrap_or("out"),
        std::process::id()
    ));
    let write = || -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
        to.encode(&mut w, &trace)?;
        use io::Write;
        w.flush()?;
        std::fs::rename(&tmp, output)
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        return io_fail(&output.display().to_string(), &e);
    }
    println!(
        "converted {} ({from_fmt}) -> {} ({}): {} events",
        input.display(),
        output.display(),
        to.name(),
        trace.events.len()
    );
    if to.lossy() {
        println!("note: {} is lossy (µop padding and load dependences dropped)", to.name());
    }
    0
}

fn cmd_inspect(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &[], &["--json"]) {
        Ok(v) => v,
        Err(e) => return usage_error(&e.to_string()),
    };
    let files = &flags.positional;
    if files.is_empty() {
        return usage_error("inspect: no files given");
    }
    let json = flags.switch("--json");
    let registry = CodecRegistry::standard();
    let mut t = harness::Table::new(
        "tage_trace inspect",
        &[
            "file",
            "format",
            "name",
            "category",
            "events",
            "conditionals",
            "static",
            "taken%",
            "scheme",
            "blocks",
            "comp/raw",
            "index",
            "seek",
        ],
    );
    // One JSON object per file, same fields as the text columns (the
    // container trio is null for flat formats) — machine-readable for CI
    // and scripting, emitted as an array on stdout instead of the table.
    let mut objects: Vec<String> = Vec::new();
    for f in files {
        let path = Path::new(f);
        let mut src = match registry.open(path) {
            Ok(s) => s,
            Err(e) => return io_fail(f, &e),
        };
        let mut events = 0u64;
        let mut conditionals = 0u64;
        let mut taken = 0u64;
        let mut pcs = std::collections::HashSet::new();
        // Mid-stream pin for the seek check: the event a linear decode
        // sees at position total/2, compared below against what an
        // indexed `skip` lands on after re-opening the file.
        let mid = src.expected_events().map(|t| t / 2);
        let mut mid_event = None;
        while let Some(ev) = src.next_event() {
            if Some(events) == mid {
                mid_event = Some(ev);
            }
            events += 1;
            if ev.kind.is_conditional() {
                conditionals += 1;
                taken += u64::from(ev.taken);
                pcs.insert(ev.pc);
            }
        }
        if let Err(e) = traces::finish(src.as_ref()) {
            return io_fail(f, &e);
        }
        // Seek check (index-carrying containers only): skip(total/2) must
        // land on exactly the event the linear decode saw there.
        let seek_ok = match (src.container_info().and_then(|i| i.index_bytes), mid, &mid_event) {
            (Some(_), Some(mid), Some(expect)) => {
                let check = registry.open(path).and_then(|mut probe| {
                    let skipped = probe.skip(mid);
                    let got = probe.next_event();
                    // A partial read is intentional here: check the decode
                    // error alone, not the remaining-event shortfall.
                    if let Some(e) = probe.decode_error() {
                        return Err(io::Error::new(e.kind(), e.to_string()));
                    }
                    if skipped == mid && got.as_ref() == Some(expect) {
                        Ok(())
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("skip({mid}) landed on {got:?}, linear decode saw {expect:?}"),
                        ))
                    }
                });
                if let Err(e) = check {
                    return io_fail(&format!("{f}: seek check"), &e);
                }
                Some(true)
            }
            _ => None,
        };
        let file_name = path.file_name().and_then(|s| s.to_str()).unwrap_or(f).to_string();
        let taken_pct = taken as f64 * 100.0 / conditionals.max(1) as f64;
        // Container vitals (the v3 scheme byte, block count and
        // compression ratio); "-" / null for flat formats without one.
        let info = src.container_info();
        if json {
            let container = match &info {
                Some(i) => format!(
                    "\"scheme\": {}, \"scheme_id\": {}, \"blocks\": {}, \"comp_ratio\": {:.2}, \
                     \"index_bytes\": {}, \"seek_check\": {}",
                    harness::artifact::json_str(i.scheme),
                    i.scheme_id,
                    i.blocks,
                    i.ratio(),
                    i.index_bytes.map_or("null".to_string(), |b| b.to_string()),
                    match seek_ok {
                        Some(true) => "\"ok\"",
                        _ => "null",
                    },
                ),
                None => "\"scheme\": null, \"scheme_id\": null, \"blocks\": null, \
                         \"comp_ratio\": null, \"index_bytes\": null, \"seek_check\": null"
                    .to_string(),
            };
            objects.push(format!(
                "  {{\"file\": {}, \"format\": {}, \"name\": {}, \"category\": {}, \
                 \"events\": {events}, \"conditionals\": {conditionals}, \
                 \"static_branches\": {}, \"taken_pct\": {taken_pct:.1}, {container}}}",
                harness::artifact::json_str(&file_name),
                harness::artifact::json_str(src.format()),
                harness::artifact::json_str(src.name()),
                harness::artifact::json_str(src.category()),
                pcs.len(),
            ));
            continue;
        }
        let (scheme, blocks, ratio, index) = match info {
            Some(info) => (
                format!("{} ({})", info.scheme, info.scheme_id),
                info.blocks.to_string(),
                format!("{:.2}", info.ratio()),
                info.index_bytes.map_or("-".into(), |b| format!("{b}B")),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        t.row(vec![
            file_name,
            src.format().to_string(),
            src.name().to_string(),
            src.category().to_string(),
            events.to_string(),
            conditionals.to_string(),
            pcs.len().to_string(),
            format!("{taken_pct:.1}"),
            scheme,
            blocks,
            ratio,
            index,
            match seek_ok {
                Some(true) => "ok".into(),
                _ => "-".to_string(),
            },
        ]);
    }
    if json {
        println!("[\n{}\n]", objects.join(",\n"));
    } else {
        t.print();
    }
    0
}

fn cmd_formats() -> i32 {
    let registry = CodecRegistry::standard();
    let mut t = harness::Table::new(
        "registered trace codecs (detection: magic bytes, then extension)",
        &["name", "extensions", "lossy", "description"],
    );
    for c in registry.codecs() {
        t.row(vec![
            c.name().to_string(),
            c.extensions().join(","),
            if c.lossy() { "yes" } else { "no" }.to_string(),
            c.description().to_string(),
        ]);
    }
    t.print();
    0
}
