//! The `memdos-engine` CLI.
//!
//! ```text
//! memdos-engine demo [seed]       # simulate 4 tenants and replay them
//! memdos-engine gen-demo [seed]   # print the demo JSONL stream
//! memdos-engine replay [path]     # replay a JSONL file (or stdin)
//! memdos-engine serve <addr>      # ingest JSONL over TCP
//! memdos-engine soak [--seeds N] [--base-seed S]   # chaos soak
//! memdos-engine fleet [tenants] [seed]             # fleet-scale replay
//! memdos-engine respond [scenario] [tenants] [seed] [--chaos S]  # closed loop
//! ```
//!
//! Configuration comes from the environment: `MEMDOS_THREADS` (worker
//! count) and the `MEMDOS_ENGINE_*` knobs (see the README and
//! [`Config::from_env`]), resolved **once** here in `main` — the
//! library layer only ever sees the explicit [`Config`] value. The
//! verdict event log goes to stdout; diagnostics go to stderr.
//!
//! `serve` accepts one connection at a time and ingests it to EOF — the
//! parallelism budget goes to tenant dispatch inside the engine, not to
//! connection handling. Accept failures retry on the deterministic
//! capped [`Backoff`] schedule instead of dying or spinning.
//!
//! `soak` replays N seeded chaos scenarios (fault injection over the
//! demo stream) and exits non-zero unless every scenario's verdict log
//! is byte-identical across worker counts 1/2/4, memory stays bounded,
//! and every fault class fired. The JSONL report goes to stdout.
//!
//! `respond` runs one closed-loop mitigation scenario: a seeded fleet
//! with a ground-truth attacker feeds the engine, and the engine's
//! mitigation actions throttle the generator back. The verdict log
//! (`mitigation_*` events included) goes to stdout; the applied-action
//! trace and the mitigation counters go to stderr. `--chaos S` routes
//! the wire through a seeded fault plan first.

use memdos_engine::chaos::Backoff;
use memdos_engine::demo::{demo_engine_config, demo_jsonl, LAYOUT, TENANTS};
use memdos_engine::engine::Engine;
use memdos_engine::fleet::{fleet_engine_config, fleet_jsonl, fleet_scenario};
use memdos_engine::respond::{respond_engine_config, respond_scenario, run_respond, RespondScenario};
use memdos_engine::soak::{run_soak, SoakConfig};
use memdos_engine::Config;
use std::io::{BufReader, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    let threads = memdos_runner::threads_config();
    if let Some(diag) = &threads.diagnostic {
        eprintln!("memdos-engine: {diag}");
    }
    match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(args.get(1)),
        Some("gen-demo") => cmd_gen_demo(args.get(1)),
        Some("replay") => cmd_replay(args.get(1)),
        Some("serve") => cmd_serve(args.get(1)),
        Some("soak") => cmd_soak(args.get(1..).unwrap_or(&[])),
        Some("fleet") => cmd_fleet(args.get(1), args.get(2)),
        Some("respond") => cmd_respond(args.get(1..).unwrap_or(&[])),
        Some("convert") => cmd_convert(args.get(1..).unwrap_or(&[])),
        Some(other) => {
            eprintln!("memdos-engine: unknown command {other:?}");
            usage();
            2
        }
        None => {
            usage();
            2
        }
    }
}

fn usage() {
    eprintln!(
        "usage: memdos-engine <demo [seed] | gen-demo [seed] | replay [path] | serve <addr> \
         | soak [--seeds N] [--base-seed S] | fleet [tenants] [seed] \
         | respond [true-attacker|benign-shift|quiet-resume] [tenants] [seed] [--chaos S] \
         | convert <jsonl2bin|bin2jsonl> [in|-] [out|-]>"
    );
}

fn parse_seed(arg: Option<&String>) -> Result<u64, String> {
    match arg {
        None => Ok(0xD05),
        Some(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("seed {s:?} is not a non-negative integer")),
    }
}

/// Builds the engine from the environment, preferring the demo's
/// profile/SDS settings for the demo commands.
fn engine_from_env(demo_defaults: bool) -> Result<Engine, String> {
    let mut config = Config::from_env()?;
    if demo_defaults {
        let demo = demo_engine_config(config.workers);
        config.session.profile_ticks = demo.session.profile_ticks;
        config.session.sds = demo.session.sds;
    }
    Engine::new(config).map_err(|e| e.to_string())
}

/// Prints log lines the engine produced since `printed`, returning the
/// new high-water mark.
fn print_new_log(engine: &Engine, printed: usize) -> usize {
    let out = std::io::stdout();
    let mut out = out.lock();
    for line in engine.log_lines().iter().skip(printed) {
        if writeln!(out, "{line}").is_err() {
            break;
        }
    }
    engine.log_lines().len()
}

fn cmd_demo(seed: Option<&String>) -> i32 {
    let seed = match parse_seed(seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    let mut engine = match engine_from_env(true) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    let workers = engine.config().workers;
    eprintln!(
        "memdos-engine: simulating {} tenants (seed {seed}, {workers} workers)",
        TENANTS.len()
    );
    let lines = demo_jsonl(seed, &LAYOUT, workers);
    for line in &lines {
        engine.ingest_line(line);
    }
    // finish() rather than flush(): the run is over, so drain and emit
    // the `engine_stats` trailer (which carries the `MEMDOS_ENGINE_PROF`
    // stage counters when enabled).
    engine.finish();
    print_new_log(&engine, 0);
    eprintln!(
        "memdos-engine: {} input lines, {} log events, {} sessions",
        lines.len(),
        engine.log_lines().len(),
        engine.session_count()
    );
    for snap in engine.snapshots() {
        eprintln!(
            "memdos-engine:   {}: {} ({} alarms, {} ingested, {} dropped)",
            snap.tenant,
            snap.state.label(),
            snap.alarms,
            snap.ingested,
            snap.dropped
        );
    }
    0
}

fn cmd_fleet(tenants: Option<&String>, seed: Option<&String>) -> i32 {
    let tenants = match tenants {
        None => 10_000u32,
        Some(s) => match s.trim().parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("memdos-engine: tenants {s:?} is not a positive integer");
                return 2;
            }
        },
    };
    let seed = match parse_seed(seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    // Environment knobs still apply (MEMDOS_THREADS, ceiling override);
    // the fleet profile/SDS settings replace the Table 1 defaults.
    let env = match Config::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    let ceiling = if env.max_sessions > 0 { env.max_sessions } else { 16_384 };
    let config = Config { workers: env.workers, prof: env.prof, ..fleet_engine_config(env.workers, ceiling) };
    let scenario = fleet_scenario(tenants, seed);
    eprintln!(
        "memdos-engine: fleet: {tenants} tenants over {} ticks (seed {seed}, {} workers, \
         ceiling {ceiling})",
        scenario.span_ticks, config.workers
    );
    let lines = match fleet_jsonl(&scenario) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("memdos-engine: fleet: {e}");
            return 2;
        }
    };
    let mut engine = match Engine::new(config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    for line in &lines {
        engine.ingest_line(line);
    }
    engine.finish();
    print_new_log(&engine, 0);
    let stats = engine.stats();
    eprintln!(
        "memdos-engine: fleet: {} input lines, {} log events, {} sessions opened, \
         {} open at end, {} evicted, {} reopened, ~{} KiB resident",
        lines.len(),
        engine.log_lines().len(),
        engine.session_count(),
        engine.open_sessions(),
        stats.evicted,
        stats.reopened,
        engine.resident_bytes() / 1024
    );
    0
}

fn cmd_respond(args: &[String]) -> i32 {
    let mut scenario = RespondScenario::TrueAttacker;
    let mut tenants = 6u32;
    let mut seed = 42u64;
    let mut chaos: Option<u64> = None;
    let mut positional = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--chaos" {
            match it.next().and_then(|v| v.trim().parse::<u64>().ok()) {
                Some(s) => chaos = Some(s),
                None => {
                    eprintln!("memdos-engine: --chaos requires a non-negative integer seed");
                    return 2;
                }
            }
            continue;
        }
        match positional {
            0 => match RespondScenario::parse(arg) {
                Some(kind) => scenario = kind,
                None => {
                    eprintln!(
                        "memdos-engine: unknown respond scenario {arg:?} \
                         (true-attacker | benign-shift | quiet-resume)"
                    );
                    return 2;
                }
            },
            1 => match arg.trim().parse::<u32>() {
                Ok(n) if n >= 2 => tenants = n,
                _ => {
                    eprintln!("memdos-engine: tenants {arg:?} must be an integer >= 2");
                    return 2;
                }
            },
            2 => match arg.trim().parse::<u64>() {
                Ok(s) => seed = s,
                Err(_) => {
                    eprintln!("memdos-engine: seed {arg:?} is not a non-negative integer");
                    return 2;
                }
            },
            _ => {
                eprintln!("memdos-engine: unexpected respond argument {arg:?}");
                return 2;
            }
        }
        positional += 1;
    }
    // Environment knobs still apply (worker count, the stage profiler);
    // the scenario profile/SDS settings replace the Table 1 defaults.
    let env = match Config::from_env() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    let workers = env.workers;
    eprintln!(
        "memdos-engine: respond: scenario {} ({tenants} tenants, seed {seed}, {workers} \
         workers{})",
        scenario.label(),
        match chaos {
            Some(s) => format!(", chaos seed {s}"),
            None => String::new(),
        }
    );
    let fleet = respond_scenario(scenario, tenants, seed);
    let config = Config { prof: env.prof, ..respond_engine_config(workers) };
    let report = match run_respond(&fleet, config, chaos) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("memdos-engine: respond: {e}");
            return 2;
        }
    };
    {
        let out = std::io::stdout();
        let mut out = out.lock();
        for line in &report.log {
            if writeln!(out, "{line}").is_err() {
                return 1;
            }
        }
    }
    if let Some(attacker) = &report.attacker {
        eprintln!("memdos-engine: respond: ground-truth attacker {attacker}");
    }
    for action in &report.actions {
        eprintln!(
            "memdos-engine: respond:   tick {:>5}: {} {}{}",
            action.tick,
            action.kind.label(),
            action.tenant,
            if action.applied { "" } else { " (not applied)" }
        );
    }
    let stats = report.stats;
    eprintln!(
        "memdos-engine: respond: {} lines fed, {} log events; engaged {}, released {}, \
         escalated {}, aborted {}, skipped {}; recovery latency {} ticks, false-quarantine \
         cost {} ticks",
        report.lines_fed,
        report.log.len(),
        stats.mitigations_engaged,
        stats.mitigations_released,
        stats.mitigations_escalated,
        stats.mitigations_aborted,
        stats.mitigation_skipped,
        stats.recovery_latency_ticks,
        stats.false_quarantine_ticks
    );
    0
}

/// Re-encodes a record stream between the JSONL and binary wire
/// formats (`jsonl2bin` / `bin2jsonl`). Input and output default to
/// stdin/stdout; `-` selects them explicitly. Spans neither decoder
/// accepts are skipped with a count on stderr — a converted stream
/// carries exactly the records of the source, so replaying either
/// through the engine produces the same verdict log (pinned by the
/// binary equivalence suite).
fn cmd_convert(args: &[String]) -> i32 {
    let direction = match args.first().map(String::as_str) {
        Some(d @ ("jsonl2bin" | "bin2jsonl")) => d,
        _ => {
            eprintln!("memdos-engine: convert requires a direction: jsonl2bin | bin2jsonl");
            return 2;
        }
    };
    let reader: Box<dyn std::io::BufRead> = match args.get(1).map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdin().lock()),
        Some(p) => match std::fs::File::open(p) {
            Ok(f) => Box::new(BufReader::new(f)),
            Err(e) => {
                eprintln!("memdos-engine: convert: {p}: {e}");
                return 1;
            }
        },
    };
    let writer: Box<dyn Write> = match args.get(2).map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdout().lock()),
        Some(p) => match std::fs::File::create(p) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("memdos-engine: convert: {p}: {e}");
                return 1;
            }
        },
    };
    let result = match direction {
        "jsonl2bin" => convert_jsonl2bin(reader, writer),
        _ => convert_bin2jsonl(reader, writer),
    };
    match result {
        Ok((records, skipped)) => {
            eprintln!(
                "memdos-engine: convert: {direction}: {records} records, {skipped} spans skipped"
            );
            0
        }
        Err(e) => {
            eprintln!("memdos-engine: convert: {e}");
            1
        }
    }
}

/// The `jsonl2bin` arm: frame and decode lines exactly as the engine's
/// reader does, re-encode records as frames. The encoder interns tenant
/// names to dense wire ids and emits each tenant's define frame before
/// its first record. Every span the engine would log as `malformed` is
/// counted as skipped.
fn convert_jsonl2bin(
    mut reader: Box<dyn std::io::BufRead>,
    mut writer: Box<dyn Write>,
) -> Result<(u64, u64), String> {
    use memdos_engine::protocol::{decode_line, LineItem};
    use memdos_metrics::binary::Encoder;
    use memdos_metrics::jsonl::{LineFramer, RawKind, Span};
    let mut framer = LineFramer::new();
    let mut enc = Encoder::new();
    let mut out: Vec<u8> = Vec::new();
    let mut records = 0u64;
    let mut skipped = 0u64;
    let mut failed: Option<String> = None;
    let mut encode = |span: Span<'_>, out: &mut Vec<u8>, failed: &mut Option<String>| match span {
        Span::Line(line) => decode_line(line, |item| match item {
            LineItem::Record { record, .. } => {
                let encoded = match record.kind {
                    RawKind::Sample { access, miss } => {
                        enc.sample(record.tenant, access, miss, out)
                    }
                    RawKind::Close => enc.close(record.tenant, out),
                };
                match encoded {
                    Ok(()) => records += 1,
                    Err(e) => {
                        failed.get_or_insert(e.to_string());
                    }
                }
            }
            LineItem::Malformed { .. } => skipped += 1,
        }),
        Span::Skipped { .. } => skipped += 1,
    };
    loop {
        let len = {
            let chunk = reader.fill_buf().map_err(|e| e.to_string())?;
            if chunk.is_empty() {
                break;
            }
            framer.push(chunk, |span| encode(span, &mut out, &mut failed));
            chunk.len()
        };
        reader.consume(len);
        if let Some(e) = failed.take() {
            return Err(e);
        }
        if out.len() >= 64 * 1024 {
            writer.write_all(&out).map_err(|e| e.to_string())?;
            out.clear();
        }
    }
    framer.finish(|span| encode(span, &mut out, &mut failed));
    if let Some(e) = failed {
        return Err(e);
    }
    writer.write_all(&out).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    Ok((records, skipped))
}

/// The `bin2jsonl` arm: decode frames, render protocol lines. Define
/// frames populate the local wire directory and emit nothing — they
/// have no JSONL twin.
fn convert_bin2jsonl(
    mut reader: Box<dyn std::io::BufRead>,
    mut writer: Box<dyn Write>,
) -> Result<(u64, u64), String> {
    use memdos_metrics::binary::{BinDecoder, BinFrame, MAGIC};
    use memdos_metrics::jsonl::LineBuf;
    let mut dec = BinDecoder::new();
    let mut names: Vec<Option<String>> = Vec::new();
    let mut line = LineBuf::new();
    let mut records = 0u64;
    let mut skipped = 0u64;
    // The decoder leaves the preamble to the caller (the engine's
    // reader sniffs it the same way); anything else at the front goes
    // through frame resync like any other corruption.
    let mut preamble = 0usize;
    let mut render = |frame: BinFrame, writer: &mut Box<dyn Write>| -> Result<(), String> {
        match frame {
            BinFrame::Define { tenant, name } => {
                let slot = tenant as usize;
                if names.len() <= slot {
                    names.resize_with(slot + 1, || None);
                }
                if let Some(e) = names.get_mut(slot) {
                    *e = Some(name);
                }
            }
            BinFrame::Sample { tenant, access, miss } => {
                match names.get(tenant as usize).and_then(Option::as_ref) {
                    Some(name) => {
                        line.begin()
                            .field_str("tenant", name)
                            .field_num("access", access)
                            .field_num("miss", miss);
                        writeln!(writer, "{}", line.end()).map_err(|e| e.to_string())?;
                        records += 1;
                    }
                    None => skipped += 1,
                }
            }
            BinFrame::Close { tenant } => {
                match names.get(tenant as usize).and_then(Option::as_ref) {
                    Some(name) => {
                        line.begin().field_str("tenant", name).field_str("ctl", "close");
                        writeln!(writer, "{}", line.end()).map_err(|e| e.to_string())?;
                        records += 1;
                    }
                    None => skipped += 1,
                }
            }
            BinFrame::Skipped { .. } => skipped += 1,
        }
        Ok(())
    };
    loop {
        let len = {
            let chunk = reader.fill_buf().map_err(|e| e.to_string())?;
            if chunk.is_empty() {
                break;
            }
            let mut body = chunk;
            while preamble < MAGIC.len() {
                match (body.first(), MAGIC.get(preamble)) {
                    (Some(b), Some(m)) if b == m => {
                        preamble += 1;
                        body = body.get(1..).unwrap_or(&[]);
                    }
                    _ => {
                        preamble = MAGIC.len();
                    }
                }
            }
            dec.push_bytes(body);
            chunk.len()
        };
        reader.consume(len);
        for frame in dec.drain() {
            render(frame, &mut writer)?;
        }
    }
    for frame in dec.finish() {
        render(frame, &mut writer)?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    Ok((records, skipped))
}

fn cmd_gen_demo(seed: Option<&String>) -> i32 {
    let seed = match parse_seed(seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    let workers = memdos_runner::threads();
    let out = std::io::stdout();
    let mut out = out.lock();
    for line in demo_jsonl(seed, &LAYOUT, workers) {
        if writeln!(out, "{line}").is_err() {
            return 1;
        }
    }
    0
}

fn cmd_replay(path: Option<&String>) -> i32 {
    let mut engine = match engine_from_env(false) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    let consumed = match path {
        Some(p) => std::fs::File::open(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|f| {
                engine.ingest_reader(BufReader::new(f)).map_err(|e| format!("{p}: {e}"))
            }),
        None => {
            let stdin = std::io::stdin();
            let locked = stdin.lock();
            engine.ingest_reader(locked).map_err(|e| format!("stdin: {e}"))
        }
    };
    let consumed = match consumed {
        Ok(n) => n,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 1;
        }
    };
    // The replay is complete: emit the `engine_stats` trailer too (and
    // the `MEMDOS_ENGINE_PROF` stage counters when enabled).
    engine.finish();
    print_new_log(&engine, 0);
    eprintln!(
        "memdos-engine: replayed {consumed} lines into {} sessions ({} malformed)",
        engine.session_count(),
        engine.malformed()
    );
    0
}

fn cmd_soak(args: &[String]) -> i32 {
    let mut config = SoakConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |v: Option<&String>, flag: &str| -> Result<u64, String> {
            v.ok_or_else(|| format!("{flag} requires a value"))?
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("{flag} value is not a non-negative integer"))
        };
        match arg.as_str() {
            "--seeds" => match value(it.next(), "--seeds") {
                Ok(n) => config.seeds = n,
                Err(e) => {
                    eprintln!("memdos-engine: {e}");
                    return 2;
                }
            },
            "--base-seed" => match value(it.next(), "--base-seed") {
                Ok(n) => config.base_seed = n,
                Err(e) => {
                    eprintln!("memdos-engine: {e}");
                    return 2;
                }
            },
            other => {
                eprintln!("memdos-engine: unknown soak option {other:?}");
                return 2;
            }
        }
    }
    eprintln!(
        "memdos-engine: soak: {} seeded chaos scenarios (base seed {}), workers 1/2/4",
        config.seeds, config.base_seed
    );
    let report = run_soak(&config, |scenario| {
        eprintln!(
            "memdos-engine: soak: scenario {} seed {}: {} faults, {} log lines, \
             identical={} bounded={}",
            scenario.index,
            scenario.seed,
            scenario.trace.total(),
            scenario.log_lines,
            scenario.identical,
            scenario.bounded
        );
        println!("{}", scenario.to_line());
    });
    match report {
        Ok(report) => {
            println!("{}", report.summary_line());
            if report.passed() {
                eprintln!("memdos-engine: soak: PASS");
                0
            } else {
                eprintln!(
                    "memdos-engine: soak: FAIL (identical={} bounded={} missing={:?})",
                    report.all_identical(),
                    report.all_bounded(),
                    report.missing_classes()
                );
                1
            }
        }
        Err(e) => {
            eprintln!("memdos-engine: soak: {e}");
            2
        }
    }
}

fn cmd_serve(addr: Option<&String>) -> i32 {
    let Some(addr) = addr else {
        eprintln!("memdos-engine: serve requires an address (e.g. 127.0.0.1:7700)");
        return 2;
    };
    let mut engine = match engine_from_env(false) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("memdos-engine: {e}");
            return 2;
        }
    };
    // Bind retries on the deterministic capped schedule (the address is
    // often still in TIME_WAIT after a restart), as do accept failures;
    // a successful operation resets the budget.
    let mut backoff = Backoff::transport();
    let listener = loop {
        match std::net::TcpListener::bind(addr) {
            Ok(l) => break l,
            Err(e) => match backoff.next_delay_ms() {
                Some(delay_ms) => {
                    eprintln!("memdos-engine: bind {addr}: {e} (retrying in {delay_ms} ms)");
                    // The binary owns real sleeps; the schedule itself is
                    // pure and tested in chaos::Backoff.
                    // lint:allow(thread) -- transport retry sleep in the CLI
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                None => {
                    eprintln!("memdos-engine: bind {addr}: {e} (retry budget spent)");
                    return 1;
                }
            },
        }
    };
    backoff.reset();
    eprintln!("memdos-engine: listening on {addr} (one connection at a time)");
    let mut printed = 0;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                backoff.reset();
                // The resynchronising reader path: corrupted bytes and
                // invalid UTF-8 are logged and skipped, never fatal; an
                // I/O error mid-connection keeps everything ingested
                // before it.
                let consumed = match engine.ingest_reader(BufReader::new(stream)) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("memdos-engine: {peer}: {e}");
                        engine.flush();
                        0
                    }
                };
                printed = print_new_log(&engine, printed);
                eprintln!("memdos-engine: {peer}: {consumed} lines");
            }
            Err(e) => match backoff.next_delay_ms() {
                Some(delay_ms) => {
                    eprintln!("memdos-engine: accept: {e} (retrying in {delay_ms} ms)");
                    // lint:allow(thread) -- transport retry sleep in the CLI
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                None => {
                    eprintln!("memdos-engine: accept: {e} (retry budget spent)");
                    return 1;
                }
            },
        }
    }
}
