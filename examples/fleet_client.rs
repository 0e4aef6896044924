//! A minimal fleet client for `voltmargin serve`.
//!
//! Connects over TCP, submits one fleet characterization, waits for the
//! merged results, and writes the per-client artifacts:
//!
//! ```text
//! cargo run --example fleet_client -- --addr 127.0.0.1:4750 \
//!     --client rack-a --chips 64 --out-dir ./fleet-out [--shutdown]
//! ```
//!
//! Writes `<out-dir>/<client>/trace.jsonl` and `metrics.om`, and prints
//! one summary line (chips, runs, power cycles, executed ops) — the line
//! CI greps to gate the zero-probe warm rerun. With `--health`, prints the
//! daemon's health snapshot after the results; with `--metrics-out FILE`,
//! saves the daemon's OpenMetrics exposition. With `--shutdown`, asks
//! the daemon to stop after the results arrive.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use voltmargin::characterize::search::SearchStrategy;
use voltmargin::fleet::{FleetSpec, Request, Response};
use voltmargin::sim::Corner;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fleet_client: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got '{flag}'"))?;
        if key == "shutdown" || key == "health" {
            flags.insert(key.to_owned(), String::new());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    let get = |key: &str, default: &str| -> String {
        flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    };
    let num = |key: &str, default: u64| -> Result<u64, String> {
        match flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value '{v}'")),
        }
    };

    let addr = get("addr", "127.0.0.1:4750");
    let client = get("client", "fleet-client");
    let corner = match get("corner", "ttt").as_str() {
        "ttt" => Corner::Ttt,
        "tff" => Corner::Tff,
        "tss" => Corner::Tss,
        other => return Err(format!("unknown corner '{other}' (ttt|tff|tss)")),
    };
    let search_token = get("search", "exhaustive");
    let search = SearchStrategy::parse(&search_token)
        .ok_or_else(|| format!("unknown search strategy '{search_token}'"))?;
    let spec = FleetSpec {
        corner,
        first_serial: num("first-serial", 0)?,
        chips: num("chips", 4)? as u32,
        benchmarks: get("benchmarks", "namd")
            .split(',')
            .map(|s| s.trim().to_owned())
            .collect(),
        cores: get("cores", "0")
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u8>()
                    .map_err(|_| format!("--cores: bad core '{s}'"))
            })
            .collect::<Result<Vec<u8>, String>>()?,
        iterations: num("iterations", 1)? as u32,
        start_mv: num("start", 890)? as u32,
        floor_mv: num("floor", 880)? as u32,
        seed: num("seed", 0x00DD_BA11)?,
        search,
    };

    let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Each request leaves in one write, without waiting on Nagle.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut exchange = |request: &Request| -> Result<Response, String> {
        let mut line = request.to_line();
        line.push('\n');
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        if reply.is_empty() {
            return Err("daemon closed the connection".to_owned());
        }
        Response::parse_line(&reply).map_err(|e| format!("bad frame from daemon: {e}"))
    };

    let submitted = exchange(&Request::Submit {
        client: client.clone(),
        spec,
    })?;
    let job = match submitted {
        Response::Submitted { job, chips } => {
            eprintln!("{client}: job {job} accepted ({chips} chips)");
            job
        }
        Response::Error { code, message, .. } => {
            return Err(format!("submit rejected ({code}): {message}"))
        }
        other => return Err(format!("unexpected reply to submit: {other:?}")),
    };

    let results = exchange(&Request::Results {
        client: client.clone(),
        job,
    })?;
    let Response::Results {
        chips,
        runs,
        power_cycles,
        executed_ops,
        trace,
        metrics,
        ..
    } = results
    else {
        return Err(format!("unexpected reply to results: {results:?}"));
    };

    if let Some(dir) = flags.get("out-dir") {
        let client_dir = std::path::Path::new(dir).join(&client);
        std::fs::create_dir_all(&client_dir)
            .map_err(|e| format!("{}: {e}", client_dir.display()))?;
        let trace_path = client_dir.join("trace.jsonl");
        std::fs::write(&trace_path, &trace)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let metrics_path = client_dir.join("metrics.om");
        std::fs::write(&metrics_path, &metrics)
            .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
    }

    println!(
        "client={client} job={job} chips={chips} runs={runs} power_cycles={power_cycles} executed_ops={executed_ops}"
    );

    if flags.contains_key("health") {
        match exchange(&Request::Health)? {
            Response::Health(h) => println!(
                "health: workers={} busy={} queued_units={} jobs_queued={} \
                 jobs_running={} jobs_done={} jobs_cancelled={} jobs_failed={} subscribers={}",
                h.workers,
                h.busy,
                h.queued_units,
                h.jobs_queued,
                h.jobs_running,
                h.jobs_done,
                h.jobs_cancelled,
                h.jobs_failed,
                h.subscribers
            ),
            other => return Err(format!("unexpected reply to health: {other:?}")),
        }
    }

    if let Some(path) = flags.get("metrics-out") {
        match exchange(&Request::Metrics)? {
            Response::Metrics { body } => {
                std::fs::write(path, &body).map_err(|e| format!("--metrics-out {path}: {e}"))?;
                eprintln!("{client}: daemon metrics saved to {path}");
            }
            other => return Err(format!("unexpected reply to metrics: {other:?}")),
        }
    }

    if flags.contains_key("shutdown") {
        match exchange(&Request::Shutdown)? {
            Response::Bye => eprintln!("{client}: daemon shutting down"),
            other => return Err(format!("unexpected reply to shutdown: {other:?}")),
        }
    }
    Ok(())
}
