//! `tage_trace` — record, convert, and inspect external trace files.
//!
//! ```text
//! tage_trace record <trace-name...|all> [--scale tiny|small|default|full] [--out DIR]
//! tage_trace convert <input> <output>
//! tage_trace inspect <file...> [--json]
//! tage_trace formats
//! ```
//!
//! `record` *streams* synthetic suite traces to `<name>.ttr3` files (the
//! bridge from the generator to the external-trace pipeline): events flow
//! from the generator into the `.ttr` v3 writer without ever
//! materializing the trace, so peak memory is one block buffer plus the
//! static-branch table even at `--scale full`. Every recorded file
//! carries `lz` blocks and the seekable block index. `convert` transcodes
//! any recognized format to the format its output extension names
//! (`.ttr3` or `.csv`; `.ttr` v2 is read-only); `inspect` streams
//! a file and prints its vitals, including the v3 container's scheme
//! byte, block count and compressed/raw ratio.

use harness::cli::Flags;
use std::io;
use std::path::{Path, PathBuf};
use traces::CodecRegistry;
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
    println!("                         [--out DIR]");
    println!("       tage_trace convert <input> <output>");
    println!("       tage_trace inspect <file...> [--json]");
    println!("       tage_trace formats");
    println!("  record        writes <name>.ttr3 (lz blocks + block index) per trace");
    println!("  convert       output format from the extension: .ttr3 or .csv");
    println!("                (.ttr v2 is read-only)");
    println!("  --json        inspect: emit a JSON array (same fields as the text columns)");
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
    let flags = match Flags::parse(args, &["--scale", "--out"], &[]) {
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
        match harness::trace_mode::record_spec(spec, &out) {
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
    let flags = match Flags::parse(args, &[], &[]) {
        Ok(v) => v,
        Err(e) => return usage_error(&e.to_string()),
    };
    let [input, output] = flags.positional.as_slice() else {
        return usage_error("convert: expected <input> <output>");
    };
    let (input, output) = (Path::new(input), Path::new(output));
    let registry = CodecRegistry::standard();
    let Some(to) = registry.by_extension(output) else {
        return usage_error(&format!(
            "cannot infer output format from '{}' (use .ttr3 or .csv)",
            output.display()
        ));
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
    // Atomic: a failed encode (the read-only `.ttr` v2, a trace name CSV
    // cannot carry, a full disk) leaves neither a partial file nor a
    // clobbered destination.
    if let Err(e) = harness::trace_mode::write_atomic(output, |w| to.encode(w, &trace)) {
        return io_fail(&output.display().to_string(), &e);
    }
    println!(
        "converted {} ({from_fmt}) -> {} ({}): {} events",
        input.display(),
        output.display(),
        to.name(),
        trace.events.len()
    );
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
        &["name", "extensions", "description"],
    );
    for c in registry.codecs() {
        t.row(vec![c.name().to_string(), c.extensions().join(","), c.description().to_string()]);
    }
    t.print();
    0
}
