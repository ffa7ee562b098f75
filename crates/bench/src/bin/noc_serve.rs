//! `noc-serve` — the long-lived sweep-evaluation daemon.
//!
//! Serves operating-point batches (JSONL requests, streamed JSONL
//! responses; contract in `SERVICE.md`) over stdin/stdout or a Unix domain
//! socket, backed by a persistent result cache so repeated sweeps skip
//! already-simulated points bit-identically.
//!
//! ```text
//! noc_serve [--cache DIR] [--socket PATH] [--workers N] [--queue-limit N]
//!           [--metrics ADDR-OR-PATH] [--slow-factor F]
//!           [--quick] [--compact] [--print-schema]
//! ```
//!
//! - `--cache DIR` — persist results under `DIR` as append-only
//!   `seg-*.cache.jsonl` segments (created if missing); without it the
//!   cache lives only in this process.
//! - `--socket PATH` — listen on a Unix domain socket (one thread per
//!   connection) instead of serving a single session on stdin/stdout.
//! - `--workers N` — runner thread count (default: hardware threads;
//!   results are bit-identical at any value).
//! - `--queue-limit N` — backpressure: reject a submit with a `busy` event
//!   when admitting it would push the pending-point count past `N`
//!   (request `priority` shifts the effective limit; default: unlimited).
//! - `--metrics ADDR-OR-PATH` — additionally serve the live metrics
//!   snapshot as Prometheus text exposition (v0.0.4): a value containing
//!   `:` is a TCP bind address (`127.0.0.1:0` picks a free port, printed
//!   on stderr), anything else a Unix-socket path. Scrapes never block
//!   the serving loop. The same data answers the `stats` wire verb.
//! - `--slow-factor F` — flag a point as *slow* (recorded in the `stats`
//!   snapshot) when its uncached runtime exceeds `F×` the running mean
//!   (default 8, must be positive).
//! - `--quick` — serve the reduced `Experiment::quick()` configuration
//!   instead of the paper's (separate cache version stamps keep the two
//!   from mixing).
//! - `--compact` — rewrite the cache directory to a single deduplicated
//!   segment and exit.
//! - `--print-schema` — print the generated wire-schema tables embedded in
//!   SERVICE.md and exit (used to regenerate the doc after type changes).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use noc_sprinting::runner::ExperimentRunner;
use noc_sprinting::service::{
    code_version, schema_reference, DiskResultCache, ServiceControl, ServiceResponse,
    SweepService,
};
use noc_sprinting::Experiment;

struct Args {
    cache: Option<PathBuf>,
    socket: Option<PathBuf>,
    workers: Option<usize>,
    queue_limit: Option<usize>,
    metrics: Option<String>,
    slow_factor: Option<f64>,
    quick: bool,
    compact: bool,
    print_schema: bool,
}

/// Parses a flag value as a positive integer, naming the flag *and the
/// offending value* in the error — a silent fallback here once masked
/// typos like `--workers 8x` as "use the default".
fn positive(name: &str, value: Option<String>) -> Result<usize, String> {
    let value = value.ok_or_else(|| format!("{name} requires a positive integer"))?;
    value
        .parse::<usize>()
        .ok()
        .filter(|&w| w > 0)
        .ok_or_else(|| format!("{name} requires a positive integer, got {value:?}"))
}

/// Parses a flag value as a positive float (the slow-point factor).
fn positive_f64(name: &str, value: Option<String>) -> Result<f64, String> {
    let value = value.ok_or_else(|| format!("{name} requires a positive number"))?;
    value
        .parse::<f64>()
        .ok()
        .filter(|&f| f.is_finite() && f > 0.0)
        .ok_or_else(|| format!("{name} requires a positive number, got {value:?}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cache: None,
        socket: None,
        workers: None,
        queue_limit: None,
        metrics: None,
        slow_factor: None,
        quick: false,
        compact: false,
        print_schema: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let path_value = |name: &str, it: &mut dyn Iterator<Item = String>| {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--cache" => args.cache = Some(path_value("--cache", &mut it)?),
            "--socket" => args.socket = Some(path_value("--socket", &mut it)?),
            "--workers" => args.workers = Some(positive("--workers", it.next())?),
            "--queue-limit" => args.queue_limit = Some(positive("--queue-limit", it.next())?),
            "--metrics" => {
                args.metrics =
                    Some(it.next().ok_or("--metrics requires an address or path")?);
            }
            "--slow-factor" => {
                args.slow_factor = Some(positive_f64("--slow-factor", it.next())?);
            }
            "--quick" => args.quick = true,
            "--compact" => args.compact = true,
            "--print-schema" => args.print_schema = true,
            other => {
                if let Some(v) = other.strip_prefix("--cache=") {
                    args.cache = Some(PathBuf::from(v));
                } else if let Some(v) = other.strip_prefix("--socket=") {
                    args.socket = Some(PathBuf::from(v));
                } else if let Some(v) = other.strip_prefix("--workers=") {
                    args.workers = Some(positive("--workers", Some(v.to_string()))?);
                } else if let Some(v) = other.strip_prefix("--queue-limit=") {
                    args.queue_limit = Some(positive("--queue-limit", Some(v.to_string()))?);
                } else if let Some(v) = other.strip_prefix("--metrics=") {
                    args.metrics = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--slow-factor=") {
                    args.slow_factor =
                        Some(positive_f64("--slow-factor", Some(v.to_string()))?);
                } else {
                    return Err(format!("unknown argument {other:?} (see SERVICE.md)"));
                }
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("noc_serve: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_schema {
        println!("{}", schema_reference());
        return ExitCode::SUCCESS;
    }
    let (experiment, tag) = if args.quick {
        (Experiment::quick(), "quick")
    } else {
        (Experiment::paper(), "paper")
    };
    let version = code_version(tag);
    let cache = match &args.cache {
        Some(dir) => match DiskResultCache::open(dir, &version) {
            Ok((cache, report)) => {
                for w in &report.warnings {
                    eprintln!("noc_serve: cache warning: {w}");
                }
                eprintln!(
                    "noc_serve: cache {} — {} segment(s), {} loaded, {} stale, {} corrupt",
                    dir.display(),
                    report.segments,
                    report.loaded,
                    report.stale,
                    report.corrupt
                );
                cache
            }
            Err(e) => {
                eprintln!("noc_serve: cannot open cache {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => DiskResultCache::in_memory(&version),
    };
    if args.compact {
        return match cache.compact() {
            Ok(live) => {
                eprintln!("noc_serve: compacted to {live} record(s)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("noc_serve: compaction failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let runner = match args.workers {
        Some(w) => ExperimentRunner::with_workers(w),
        None => ExperimentRunner::new(),
    };
    let mut service = SweepService::new(experiment, runner, cache);
    if let Some(limit) = args.queue_limit {
        service = service.with_queue_limit(limit);
    }
    if let Some(factor) = args.slow_factor {
        service = service.with_slow_point_factor(factor);
    }
    // The metrics listener outlives this scope's borrows (detached
    // thread), so the service lives behind an Arc.
    let service = std::sync::Arc::new(service);
    if let Some(target) = &args.metrics {
        let svc = std::sync::Arc::clone(&service);
        let bound = noc_bench::obs::serve_metrics(target, move || {
            noc_sprinting::metrics::render_prometheus(&svc.stats_snapshot())
        });
        match bound {
            Ok(addr) => eprintln!("noc_serve: metrics on {addr}"),
            Err(e) => {
                eprintln!("noc_serve: cannot serve metrics on {target}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = match &args.socket {
        Some(path) => serve_socket(&service, path),
        None => serve_stdio(&service),
    };
    // Leave the directory tidy for the next daemon: fold this lifetime's
    // append segment into the compacted set.
    if args.cache.is_some() {
        if let Err(e) = service.cache().compact() {
            eprintln!("noc_serve: final compaction failed: {e}");
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("noc_serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One session on stdin/stdout: requests in, events out, until EOF or a
/// `shutdown` request.
fn serve_stdio(service: &SweepService) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    service.serve_lines(std::io::stdin().lock(), &mut |ev| write_event(&mut out, ev))?;
    Ok(())
}

fn write_event(out: &mut impl Write, ev: &ServiceResponse) -> std::io::Result<()> {
    out.write_all(ev.to_json_line().as_bytes())?;
    out.write_all(b"\n")?;
    // Flush per event: clients block on the stream mid-batch.
    out.flush()
}

/// Unix-socket mode: accept loop, one thread per connection; a `shutdown`
/// request from any connection stops the accept loop after that
/// connection drains.
#[cfg(unix)]
fn serve_socket(service: &SweepService, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::sync::atomic::{AtomicBool, Ordering};

    // A leftover socket file from a dead daemon would fail the bind.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    eprintln!("noc_serve: listening on {}", path.display());
    let stop = AtomicBool::new(false);

    fn serve_conn(
        service: &SweepService,
        stream: UnixStream,
        stop: &AtomicBool,
    ) -> std::io::Result<()> {
        let reader = std::io::BufReader::new(stream.try_clone()?);
        let mut writer = std::io::BufWriter::new(stream);
        let control = service.serve_lines(reader, &mut |ev| write_event(&mut writer, ev))?;
        if control == ServiceControl::Shutdown {
            stop.store(true, Ordering::SeqCst);
        }
        Ok(())
    }

    std::thread::scope(|s| {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            s.spawn(|| {
                if let Err(e) = serve_conn(service, stream, &stop) {
                    eprintln!("noc_serve: connection error: {e}");
                }
                // Unblock the accept loop so a shutdown takes effect
                // promptly: a self-connection makes `incoming` yield.
                if stop.load(Ordering::SeqCst) {
                    let _ = UnixStream::connect(path);
                }
            });
        }
        Ok(())
    })
}

/// Unix-socket mode is unavailable on this platform.
#[cfg(not(unix))]
fn serve_socket(_service: &SweepService, _path: &std::path::Path) -> std::io::Result<()> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "--socket requires a Unix platform; use stdin/stdout mode",
    ))
}
