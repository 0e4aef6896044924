//! The `voltmargin` command-line tool: characterize a simulated chip,
//! profile workloads, and plan undervolted operating points — the workflow
//! a system integrator would run against real silicon, end to end.
//!
//! ```text
//! voltmargin characterize --chip ttt --benchmarks bwaves,mcf --cores 0,4 \
//!     --iterations 10 --out-dir ./out
//! voltmargin profile --chip ttt --benchmarks bwaves,mcf --cores 0
//! voltmargin govern --chip ttt --tasks bwaves,leslie3d,milc,namd --max-loss 0.25
//! voltmargin serve --addr 127.0.0.1:4750 --workers 4 --cache fleet-cache.jsonl
//! voltmargin watch --addr 127.0.0.1:4750 --client lab --job 0
//! voltmargin list-benchmarks
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use voltmargin::characterize::cache::CampaignCache;
use voltmargin::characterize::config::{CampaignConfig, SweptRail};
use voltmargin::characterize::exec::{CacheHandle, ExecContext, ThreadPoolExecutor};
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::report;
use voltmargin::characterize::runner::{profile, Campaign};
use voltmargin::characterize::search::SearchStrategy;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::energy::schedule::Scheduler;
use voltmargin::energy::tradeoff::pareto_curve;
use voltmargin::energy::{Governor, Policy, VminTable};
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts, PmuEvent};
use voltmargin::trace::{
    EventBuffer, JsonlSink, MetricsRegistry, ProgressSink, Sink, StreamFinalizer,
};
use voltmargin::workloads::suite;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Why a command line failed; both exit with 2.
enum Failure {
    /// An unknown command or flag, or a missing required flag: printed
    /// with the usage text.
    Usage(String),
    /// A data, I/O or value error: one line.
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Run(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Failure {
        Failure::Run(msg.to_owned())
    }
}

const USAGE: &str = "\
usage: voltmargin <command> [options]

commands:
  characterize   sweep the PMD (or SoC) rail and print/export regions
  profile        run benchmarks at nominal and print key PMU counters
  govern         plan undervolted operating points for a task set
  serve          run the fleet characterization daemon (line-delimited
                 JSON protocol: submit/status/cancel/results/shutdown,
                 plus subscribe/unsubscribe/health/metrics)
  watch          subscribe to a fleet job's live event stream and print
                 one line per event; optionally reassemble the job's
                 trace from the streamed per-chip payloads
  cache compact FILE   rewrite a campaign-cache JSONL file in canonical
                       form, dropping superseded duplicate entries
  list-benchmarks      list characterizable workloads
  help                 print this usage text

options (in parentheses: the commands that accept each, and those that
require it; a command rejects every other flag):
  --chip ttt|tff|tss        (characterize, profile, govern) chip corner
                            (default ttt)
  --serial N                (characterize, profile, govern) chip serial
                            (default by corner: 0/1/2)
  --benchmarks a,b,c        (characterize, profile; required) benchmark
                            names (see list-benchmarks)
  --cores 0,4               (characterize, profile) target cores (default:
                            all eight)
  --iterations N            (characterize, govern) runs per voltage step
                            (default 10)
  --start MV --floor MV     (characterize, govern) sweep bounds (default
                            930 → 840)
  --rail pmd|soc            (characterize) which rail to sweep (default pmd)
  --threads N               (characterize, govern) worker threads (default 8)
  --out-dir DIR             (characterize, serve) characterize also writes
                            runs/regions/severity CSV files there; serve
                            writes per-client job artifacts
  --tasks a,b,c             (govern; required) workloads to schedule
  --max-loss F              (govern) performance-loss budget, e.g. 0.25
  --seed N                  (characterize, govern) campaign seed
                            (default 3405691582)
  --search STRATEGY         (characterize) exhaustive|bisection|warm-start
                            (default exhaustive; adaptive strategies probe a
                            subset of the grid and report identical regions)
  --cache FILE              (characterize, serve) persistent campaign cache
                            (JSONL); characterize replays characterized
                            points and appends fresh results after the
                            campaign; serve shares it across jobs, loaded at
                            start and saved at shutdown
  --trace FILE              (characterize, govern) write the deterministic
                            JSONL telemetry stream
  --metrics-out FILE        (characterize, govern) write the OpenMetrics text
                            exposition of the campaign metrics registry
                            (deterministic)
  --progress                (characterize) live sweep progress on stderr
  --profile                 (characterize) attribute work units to pipeline
                            phases; emits deterministic ProfileSample /
                            ProfilePhase records into the trace stream
  --addr HOST:PORT          (serve, watch) daemon address, bound by serve
                            and dialled by watch (default 127.0.0.1:4750;
                            port 0 picks a free port — the chosen address is
                            printed as `listening on ADDR` on stdout)
  --workers N               (serve) scheduler worker threads (default 4)
  --client NAME             (watch; required) job owner, as given to the
                            submitter
  --job N                   (watch; required) job id printed by the
                            submitter
  --trace-out FILE          (watch) after the terminal event, reassemble
                            the job trace from the streamed per-chip
                            payloads and write it as JSONL";

fn run(args: &[String]) -> Result<(), Failure> {
    // `cache` takes a positional subcommand, not --flags; dispatch it
    // before the flag parser sees the arguments.
    if args.first().map(String::as_str) == Some("cache") {
        return cache_cmd(&args[1..]);
    }
    let mut opts = Options::parse(args).map_err(Failure::Usage)?;
    match opts.command.as_str() {
        "characterize" => characterize(&mut opts),
        "profile" => profile_cmd(&mut opts),
        "govern" => govern(&mut opts),
        "serve" => Ok(serve_cmd(&opts)?),
        "watch" => watch_cmd(&opts),
        "help" => {
            println!("{USAGE}");
            Ok(())
        }
        "list-benchmarks" => {
            for name in suite::ALL_NAMES {
                let train = suite::TRAIN_DATASET_NAMES.contains(&name);
                println!("{name}{}", if train { "  (ref, train)" } else { "  (ref)" });
            }
            println!("{}", suite::SELFTEST_NAMES.join("  "));
            Ok(())
        }
        _ => unreachable!("Options::parse accepts only the commands command_flags names"),
    }
}

/// `voltmargin cache <subcommand>`: maintenance operations on persistent
/// campaign-cache files.
fn cache_cmd(args: &[String]) -> Result<(), Failure> {
    match args.first().map(String::as_str) {
        Some("compact") => {
            let path = args
                .get(1)
                .ok_or_else(|| Failure::Usage("cache compact needs a cache file path".into()))?;
            if args.len() > 2 {
                return Err(Failure::Usage(
                    "cache compact takes exactly one file path".into(),
                ));
            }
            let stats = CampaignCache::compact_file(path).map_err(|e| e.to_string())?;
            if stats.rewritten {
                println!(
                    "compacted {path}: {} lines -> {} ({} superseded line(s) dropped)",
                    stats.lines_before,
                    stats.lines_after,
                    stats.dropped()
                );
            } else {
                println!("{path} already compact ({} lines)", stats.lines_after);
            }
            Ok(())
        }
        Some(other) => Err(Failure::Usage(format!(
            "unknown cache subcommand '{other}' (compact)"
        ))),
        None => Err(Failure::Usage("cache needs a subcommand (compact)".into())),
    }
}

/// `voltmargin serve`: run the fleet characterization daemon until a
/// client sends a `shutdown` frame.
fn serve_cmd(opts: &Options) -> Result<(), String> {
    let config = voltmargin::fleet::ServeConfig {
        addr: opts
            .flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:4750".to_owned()),
        workers: opts.parse_num("workers", 4usize)?,
        cache_path: opts.flags.get("cache").cloned(),
        out_dir: opts.flags.get("out-dir").cloned(),
    };
    voltmargin::fleet::serve(&config).map_err(|e| e.to_string())
}

/// `voltmargin watch`: subscribe to a job's event stream and narrate it.
///
/// Prints one human line per event to stdout, skips unknown event kinds
/// (forward compatibility with newer daemons), and — with `--trace-out` —
/// reassembles the job's canonical trace from the streamed per-chip
/// payloads once the terminal event arrives. Exits non-zero when the
/// watched job failed.
fn watch_cmd(opts: &Options) -> Result<(), Failure> {
    use std::io::{BufRead, BufReader, Write};
    use voltmargin::fleet::{FleetEvent, Request, Response};

    let addr = opts
        .flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:4750".to_owned());
    let client = opts.required("client")?.to_owned();
    let job: u64 = parse_value("job", opts.required("job")?)?;
    let trace_out = opts.flags.get("trace-out").cloned();

    let stream = std::net::TcpStream::connect(&addr).map_err(|e| format!("watch: {addr}: {e}"))?;
    // The request leaves in one write, without waiting on Nagle.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("watch: {addr}: {e}"))?;
    let mut line = Request::Subscribe {
        client: client.clone(),
        job,
    }
    .to_line();
    line.push('\n');
    (&stream)
        .write_all(line.as_bytes())
        .map_err(|e| format!("watch: {addr}: {e}"))?;

    // Per-chip sealed streams, keyed by canonical chip index; the
    // terminal event triggers the canonical re-seal, which is
    // byte-identical to the daemon's artifact merge.
    let mut chip_traces: std::collections::BTreeMap<u32, Vec<voltmargin::trace::TraceRecord>> =
        std::collections::BTreeMap::new();
    let mut failed = false;
    let mut terminal = false;
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("watch: {addr}: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let response = Response::parse_line(&line).map_err(|e| format!("watch: {e}"))?;
        match response {
            Response::Subscribed { job } => eprintln!("watching job {job} on {addr}"),
            Response::Error { code, message, .. } => {
                return Err(format!("watch: daemon error [{code}]: {message}").into());
            }
            Response::Event(event) => {
                if let Some(line) = narrate(&event) {
                    println!("{line}");
                }
                match event {
                    FleetEvent::ChipFinished { chip, trace, .. } => {
                        let records = voltmargin::trace::read_jsonl(&trace)
                            .map_err(|e| format!("watch: chip {chip} trace: {e}"))?;
                        chip_traces.insert(chip, records);
                    }
                    FleetEvent::JobFinished { .. } | FleetEvent::JobCancelled { .. } => {
                        terminal = true;
                    }
                    FleetEvent::JobFailed { .. } => {
                        failed = true;
                        terminal = true;
                    }
                    _ => {}
                }
                if terminal {
                    break;
                }
            }
            other => return Err(format!("watch: unexpected frame {other:?}").into()),
        }
    }
    if !terminal {
        return Err("watch: connection closed before the job reached a terminal event".into());
    }
    if let Some(path) = &trace_out {
        let records =
            voltmargin::trace::merge_streams(chip_traces.values().map(std::vec::Vec::as_slice));
        let mut body = String::new();
        for record in &records {
            let line = record
                .to_json_line()
                .map_err(|e| format!("watch: --trace-out: {e}"))?;
            body.push_str(&line);
            body.push('\n');
        }
        std::fs::write(path, &body).map_err(|e| format!("watch: --trace-out {path}: {e}"))?;
        eprintln!(
            "wrote {} reassembled trace records to {path}",
            records.len()
        );
    }
    if failed {
        // The job's failure is already narrated; distinguish it from
        // watch's own errors (exit 2) without reprinting usage.
        std::process::exit(1);
    }
    Ok(())
}

/// One human-readable line per fleet event; `None` for kinds this client
/// does not know (skipped, per the protocol's forward-compatibility
/// contract).
fn narrate(event: &voltmargin::fleet::FleetEvent) -> Option<String> {
    use voltmargin::fleet::FleetEvent;
    Some(match event {
        FleetEvent::JobQueued { job, client, chips } => {
            format!("job {job} queued by {client}: {chips} chip(s)")
        }
        FleetEvent::JobStarted { job } => format!("job {job} started"),
        FleetEvent::ChipStarted { chip, chip_id, .. } => {
            format!("chip {chip} ({chip_id}) started")
        }
        FleetEvent::SweepProgress {
            chip,
            program,
            dataset,
            core,
            runs,
            ..
        } => format!("chip {chip} swept {program}/{dataset} core{core}: {runs} run(s)"),
        FleetEvent::ChipFinished {
            chip,
            chip_id,
            runs,
            power_cycles,
            vmin_mv,
            severity_sum,
            cache_hits,
            cache_lookups,
            ..
        } => {
            let vmin = vmin_mv.map_or_else(|| "censored".to_owned(), |mv| format!("{mv}mV"));
            format!(
                "chip {chip} ({chip_id}) finished: vmin={vmin} runs={runs} \
                 power_cycles={power_cycles} severity={severity_sum} \
                 cache={cache_hits}/{cache_lookups}"
            )
        }
        FleetEvent::JobFinished {
            job,
            chips,
            runs,
            power_cycles,
        } => format!("job {job} finished: chips={chips} runs={runs} power_cycles={power_cycles}"),
        FleetEvent::JobCancelled { job, done, total } => {
            format!("job {job} cancelled: {done}/{total} chip(s) completed")
        }
        FleetEvent::JobFailed { job, message } => format!("job {job} failed: {message}"),
        FleetEvent::Lagged { job, dropped } => {
            format!("job {job} lagged: {dropped} event(s) dropped")
        }
        FleetEvent::Unknown { .. } => return None,
    })
}

struct Options {
    command: String,
    flags: BTreeMap<String, String>,
}

/// The flags each command accepts, as documented in `USAGE`; `None` for
/// an unknown command.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "characterize" => &[
            "chip",
            "serial",
            "benchmarks",
            "cores",
            "iterations",
            "start",
            "floor",
            "rail",
            "threads",
            "out-dir",
            "seed",
            "search",
            "cache",
            "trace",
            "metrics-out",
            "progress",
            "profile",
        ],
        "profile" => &["chip", "serial", "benchmarks", "cores"],
        "govern" => &[
            "chip",
            "serial",
            "iterations",
            "start",
            "floor",
            "threads",
            "tasks",
            "max-loss",
            "seed",
            "trace",
            "metrics-out",
        ],
        "serve" => &["addr", "workers", "cache", "out-dir"],
        "watch" => &["addr", "client", "job", "trace-out"],
        "help" | "list-benchmarks" => &[],
        _ => return None,
    })
}

impl Options {
    /// Flags that take no value argument.
    const BOOLEAN_FLAGS: [&'static str; 2] = ["progress", "profile"];

    fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        let command = it.next().ok_or("missing command")?.clone();
        let accepted =
            command_flags(&command).ok_or_else(|| format!("unknown command '{command}'"))?;
        let mut flags = BTreeMap::new();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{flag}'"))?;
            if !accepted.contains(&key) {
                return Err(format!("{command} does not accept --{key}"));
            }
            if Self::BOOLEAN_FLAGS.contains(&key) {
                flags.insert(key.to_owned(), String::new());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.to_owned(), value.clone());
        }
        Ok(Options { command, flags })
    }

    fn chip(&self) -> Result<ChipSpec, String> {
        let token = self.flags.get("chip").map_or("ttt", String::as_str);
        let corner = Corner::from_token(token)
            .ok_or_else(|| format!("unknown chip '{token}' (ttt|tff|tss)"))?;
        let default_serial = match corner {
            Corner::Ttt => 0,
            Corner::Tff => 1,
            Corner::Tss => 2,
        };
        let serial = self.parse_num("serial", default_serial)?;
        Ok(ChipSpec::new(corner, serial))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => parse_value(key, v),
        }
    }

    /// The value of a flag the command cannot run without (marked
    /// `required` in `USAGE`); its absence is a usage error.
    fn required(&self, key: &str) -> Result<&str, Failure> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| Failure::Usage(format!("{}: --{key} is required", self.command)))
    }

    /// A required comma-separated list.
    fn list(&self, key: &str) -> Result<Vec<String>, Failure> {
        Ok(split_list(self.required(key)?))
    }

    fn cores(&self) -> Result<Vec<CoreId>, String> {
        match self.flags.get("cores") {
            None => Ok(CoreId::all().collect()),
            Some(ids) => split_list(ids)
                .iter()
                .map(|s| {
                    s.parse::<u8>()
                        .map_err(|_| format!("--cores: bad core '{s}'"))
                        .and_then(|i| {
                            if usize::from(i) < voltmargin::sim::topology::NUM_CORES {
                                Ok(CoreId::new(i))
                            } else {
                                Err(format!("--cores: core {i} out of range"))
                            }
                        })
                })
                .collect(),
        }
    }
}

fn parse_value<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: bad value '{value}'"))
}

fn split_list(value: &str) -> Vec<String> {
    value.split(',').map(str::trim).map(str::to_owned).collect()
}

fn build_config(opts: &Options) -> Result<CampaignConfig, Failure> {
    let rail = match opts.flags.get("rail") {
        None => SweptRail::Pmd,
        Some(label) => SweptRail::from_label(label)
            .ok_or_else(|| format!("unknown rail '{label}' (pmd|soc)"))?,
    };
    let default_start = if rail == SweptRail::Pmd { 930 } else { 900 };
    let default_floor = if rail == SweptRail::Pmd { 840 } else { 710 };
    let search = match opts.flags.get("search") {
        None => SearchStrategy::Exhaustive,
        Some(s) => SearchStrategy::parse(s).ok_or_else(|| {
            format!("--search: unknown strategy '{s}' (exhaustive|bisection|warm-start)")
        })?,
    };
    CampaignConfig::builder()
        .benchmarks(opts.list("benchmarks")?)
        .cores(opts.cores()?)
        .iterations(opts.parse_num("iterations", 10u32)?)
        .start_voltage(Millivolts::new(opts.parse_num("start", default_start)?))
        .floor_voltage(Millivolts::new(opts.parse_num("floor", default_floor)?))
        .rail(rail)
        .seed(opts.parse_num("seed", 0xCAFE_BABEu64)?)
        .search(search)
        .profile(opts.flags.contains_key("profile"))
        .build()
        .map_err(|e| Failure::Run(e.to_string()))
}

fn characterize(opts: &mut Options) -> Result<(), Failure> {
    let spec = opts.chip()?;
    let config = build_config(opts)?;
    let pool =
        ThreadPoolExecutor::new(opts.parse_num("threads", 8usize)?).map_err(|e| e.to_string())?;
    eprintln!(
        "characterizing {spec}: {} benchmarks × {} cores × {} steps × {} iterations…",
        config.benchmarks.len(),
        config.cores.len(),
        config.step_count(),
        config.iterations
    );
    let trace_path = opts.flags.get("trace").cloned();
    let metrics_out = opts.flags.get("metrics-out").cloned();
    let progress = opts.flags.contains_key("progress");
    let profiling = opts.flags.contains_key("profile");
    // Profiling emits its records into the trace stream, so it implies an
    // observed (traced) execution even without an explicit sink.
    let traced = trace_path.is_some() || progress || metrics_out.is_some() || profiling;

    let mut jsonl = match &trace_path {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
            Some(JsonlSink::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    let mut progress_sink = progress.then(|| ProgressSink::new(std::io::stderr()));

    let cache_path = opts.flags.get("cache").cloned();
    let mut cache = match &cache_path {
        Some(path) => {
            let loaded = CampaignCache::load(path).map_err(|e| e.to_string())?;
            if !loaded.is_empty() {
                eprintln!(
                    "campaign cache: {} entries loaded from {path}",
                    loaded.len()
                );
            }
            Some(loaded)
        }
        None => None,
    };

    let campaign = Campaign::new(spec, config);
    let mut metrics = MetricsRegistry::new();
    let outcome = {
        // With no sink and no registry attached, events are never even
        // constructed; results are identical either way.
        let mut sinks: Vec<&mut dyn Sink> = Vec::new();
        if let Some(sink) = progress_sink.as_mut() {
            sinks.push(sink);
        }
        if let Some(sink) = jsonl.as_mut() {
            sinks.push(sink);
        }
        campaign
            .run(
                &pool,
                ExecContext {
                    sinks: &mut sinks,
                    cache: cache.as_mut().map(CacheHandle::Owned),
                    priors: None,
                    metrics: traced.then_some(&mut metrics),
                    profile_out: None,
                },
            )
            .map_err(|e| e.to_string())?
    };
    let result = analyze(&outcome, &SeverityWeights::paper());

    // Region bands per benchmark.
    let mut names: Vec<String> = result.summaries.iter().map(|s| s.program.clone()).collect();
    names.dedup();
    for name in names {
        print!("{}", report::region_band_text(&result, &name));
    }
    println!(
        "watchdog power cycles: {}   total runs: {}",
        outcome.watchdog_power_cycles,
        outcome.runs.len()
    );

    if let Some(dir) = opts.flags.get("out-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("--out-dir: {e}"))?;
        let write = |file: &str, data: String| {
            std::fs::write(format!("{dir}/{file}"), data).map_err(|e| format!("{file}: {e}"))
        };
        write("runs.csv", report::runs_csv(&outcome))?;
        write("regions.csv", report::regions_csv(&result))?;
        write("severity.csv", report::severity_csv(&result))?;
        eprintln!("wrote {dir}/runs.csv, regions.csv, severity.csv");
    }

    if let (Some(cache), Some(path)) = (&cache, &cache_path) {
        cache.save(path).map_err(|e| e.to_string())?;
        eprintln!("campaign cache: {} entries saved to {path}", cache.len());
    }

    if let (Some(sink), Some(path)) = (jsonl, &trace_path) {
        let lines = sink.lines();
        sink.into_inner()
            .map_err(|e| format!("--trace {path}: {e}"))?;
        eprintln!("wrote {lines} trace records to {path}");
    }
    if let Some(path) = &metrics_out {
        std::fs::write(path, metrics.to_openmetrics())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
        eprintln!("wrote campaign metrics to {path}");
    }
    if traced {
        eprintln!("campaign metrics:");
        for line in metrics.render().lines() {
            eprintln!("  {line}");
        }
    }
    Ok(())
}

fn profile_cmd(opts: &mut Options) -> Result<(), Failure> {
    let spec = opts.chip()?;
    let core = opts
        .cores()?
        .first()
        .copied()
        .ok_or("--cores must name at least one core")?;
    let benchmarks: Vec<_> = opts
        .list("benchmarks")?
        .into_iter()
        .map(|name| voltmargin::characterize::config::BenchmarkRef {
            name,
            dataset: voltmargin::workloads::Dataset::Ref,
        })
        .collect();
    let profiles = profile(spec, &benchmarks, core).map_err(|e| e.to_string())?;
    let shown = [
        PmuEvent::InstRetired,
        PmuEvent::CpuCycles,
        PmuEvent::FpInstRetired,
        PmuEvent::FpDivRetired,
        PmuEvent::ReadMemAccess,
        PmuEvent::L2DCacheRefill,
        PmuEvent::BrMisPred,
        PmuEvent::DispatchStallCycles,
        PmuEvent::ExcTaken,
    ];
    print!("{:<12}{:>10}", "benchmark", "golden");
    for e in shown {
        print!("{:>22}", e.label());
    }
    println!();
    for p in &profiles {
        print!("{:<12}{:>10.10}", p.name, p.golden.to_string());
        for e in shown {
            print!("{:>22}", p.counters.get(e));
        }
        println!();
    }
    Ok(())
}

fn govern(opts: &mut Options) -> Result<(), Failure> {
    let spec = opts.chip()?;
    let tasks = opts.list("tasks")?;
    let max_loss: f64 = opts.parse_num("max-loss", 0.0)?;
    let pool =
        ThreadPoolExecutor::new(opts.parse_num("threads", 8usize)?).map_err(|e| e.to_string())?;

    // Characterize exactly the requested tasks on all cores.
    let config = CampaignConfig::builder()
        .benchmarks(tasks.clone())
        .cores(CoreId::all())
        .iterations(opts.parse_num("iterations", 5u32)?)
        .start_voltage(Millivolts::new(opts.parse_num("start", 935)?))
        .floor_voltage(Millivolts::new(opts.parse_num("floor", 845)?))
        .seed(opts.parse_num("seed", 0x60_0Du64)?)
        .build()
        .map_err(|e| e.to_string())?;
    eprintln!("characterizing {spec} for {} tasks…", tasks.len());
    let outcome = Campaign::new(spec, config)
        .run(&pool, ExecContext::new())
        .map_err(|e| e.to_string())?;
    let table = VminTable::from_characterization(&analyze(&outcome, &SeverityWeights::paper()));

    let assignments = Scheduler::new()
        .assign_robust_first(&tasks, &table)
        .ok_or("characterization did not cover every task")?;
    println!("robust-first schedule:");
    for a in &assignments {
        let vmin = table
            .get(a.core, &a.workload)
            .map_or_else(|| "-".into(), |v| v.to_string());
        println!(
            "  {:<12} → core{} (Vmin {vmin})",
            a.workload,
            a.core.index()
        );
    }

    println!("\nstaircase:");
    for p in pareto_curve(&assignments, &table).ok_or("incomplete table")? {
        println!(
            "  {:<24}{:>7}  power {:>5.1}%  perf {:>5.1}%  savings {:>5.1}%",
            p.label,
            p.voltage.to_string(),
            p.relative_power * 100.0,
            p.relative_performance * 100.0,
            p.energy_savings * 100.0
        );
    }

    let governor = Governor::new(
        table,
        Policy {
            guardband_steps: 1,
            max_performance_loss: max_loss,
        },
    );
    let trace_path = opts.flags.get("trace").cloned();
    let metrics_out = opts.flags.get("metrics-out").cloned();
    let decision = if trace_path.is_some() || metrics_out.is_some() {
        let buffer = EventBuffer::new();
        let decision = governor.decide_observed(&assignments, &buffer);
        // Finalize once; the JSONL stream and the metrics registry both
        // consume the same sealed records.
        let mut finalizer = StreamFinalizer::new();
        let records: Vec<_> = buffer
            .drain()
            .into_iter()
            .map(|event| finalizer.seal(event))
            .collect();
        if let Some(path) = &trace_path {
            let file = std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            for record in &records {
                sink.emit(record);
            }
            sink.finish();
            let lines = sink.lines();
            sink.into_inner()
                .map_err(|e| format!("--trace {path}: {e}"))?;
            eprintln!("wrote {lines} trace records to {path}");
        }
        if let Some(path) = &metrics_out {
            let mut registry = MetricsRegistry::new();
            for record in &records {
                registry.emit(record);
            }
            registry.finish();
            std::fs::write(path, registry.to_openmetrics())
                .map_err(|e| format!("--metrics-out {path}: {e}"))?;
            eprintln!("wrote governor metrics to {path}");
        }
        decision
    } else {
        governor.decide(&assignments)
    };
    let decision = decision.ok_or("governor could not produce a decision")?;
    println!(
        "\ndecision (≤{:.0}% loss, 1-step guardband): {} @ {:?} MHz → {:.1}% savings",
        max_loss * 100.0,
        decision.voltage,
        decision.freqs.map(voltmargin::sim::Megahertz::get),
        decision.energy_savings * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn usage_lists_exactly_the_commands_accepting_each_flag() {
        let commands = ["characterize", "profile", "govern", "serve", "watch"];
        let accepting = |flag: &str| -> BTreeSet<&str> {
            commands
                .into_iter()
                .filter(|c| command_flags(c).is_some_and(|flags| flags.contains(&flag)))
                .collect()
        };
        let mut documented = BTreeSet::new();
        for line in USAGE.lines().filter(|l| l.starts_with("  --")) {
            let (flags, rest) = line.split_once('(').expect("a command list");
            let (listed, _) = rest.split_once(')').expect("a closed command list");
            let listed = listed.strip_suffix("; required").unwrap_or(listed);
            let listed: BTreeSet<&str> = listed.split(", ").collect();
            for flag in flags
                .split_whitespace()
                .filter_map(|w| w.strip_prefix("--"))
            {
                assert_eq!(listed, accepting(flag), "--{flag}");
                documented.insert(flag);
            }
        }
        let accepted: BTreeSet<&str> = commands
            .into_iter()
            .flat_map(|c| command_flags(c).unwrap_or_default().iter().copied())
            .collect();
        assert_eq!(documented, accepted, "every accepted flag is documented");
    }

    /// Each flag `USAGE` marks `(a, b; required)` fails each listed
    /// command with a usage error when it alone is missing. Every command
    /// reads its required flags before any work or I/O.
    #[test]
    fn usage_required_marks_are_enforced_as_usage_errors() {
        let value = |flag: &str| if flag == "job" { "0" } else { "bwaves" };
        let marked: Vec<(&str, &str)> = USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  --"))
            .filter_map(|l| {
                let (flag, rest) = l.split_once(' ')?;
                let (listed, _) = rest.split_once("; required)")?;
                Some((flag, listed.rsplit_once('(')?.1))
            })
            .collect();
        assert_eq!(marked.len(), 4, "{marked:?}");
        for &(flag, listed) in &marked {
            for command in listed.split(", ") {
                // The command's other required flags are present.
                let mut args = vec![command.to_owned()];
                for (other, _) in marked.iter().filter(|(other, commands)| {
                    *other != flag && commands.split(", ").any(|c| c == command)
                }) {
                    args.push(format!("--{other}"));
                    args.push(value(other).to_owned());
                }
                match run(&args) {
                    Err(Failure::Usage(msg)) => {
                        assert_eq!(msg, format!("{command}: --{flag} is required"));
                    }
                    _ => panic!("{command} without --{flag} is not a usage error"),
                }
            }
        }
    }
}
