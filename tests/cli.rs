//! End-to-end tests of the `voltmargin` command-line tool.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};

fn voltmargin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_voltmargin"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_benchmarks_names_the_whole_suite() {
    let out = voltmargin(&["list-benchmarks"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in voltmargin::workloads::suite::ALL_NAMES {
        assert!(stdout.contains(name), "missing {name}");
    }
    assert!(stdout.contains("selftest-fpu"));
}

#[test]
fn characterize_writes_csv_artifacts() {
    let dir = std::env::temp_dir().join(format!("voltmargin-cli-{}", std::process::id()));
    let out = voltmargin(&[
        "characterize",
        "--benchmarks",
        "namd",
        "--cores",
        "4",
        "--iterations",
        "2",
        "--start",
        "890",
        "--floor",
        "875",
        "--threads",
        "2",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("namd"));
    assert!(stdout.contains("vmin="));
    for file in ["runs.csv", "regions.csv", "severity.csv"] {
        let path = dir.join(file);
        let data = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(data.lines().count() > 1, "{file} has rows");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_fails_with_help() {
    let out = voltmargin(&["explode"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("usage: voltmargin"));

    let out = voltmargin(&["characterize"]); // missing --benchmarks
    assert!(!out.status.success());

    let out = voltmargin(&["characterize", "--benchmarks", "nosuch"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown benchmark"));
}

#[test]
fn profile_prints_counter_columns() {
    let out = voltmargin(&["profile", "--benchmarks", "namd,mcf", "--cores", "0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("INST_RETIRED"));
    assert!(stdout.contains("namd"));
    assert!(stdout.contains("mcf"));
}

#[test]
fn profile_unknown_benchmark_reports_a_clean_error() {
    let out = voltmargin(&["profile", "--benchmarks", "nosuch", "--cores", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown benchmark 'nosuch'"),
        "stderr: {stderr}"
    );
}

#[test]
fn profile_near_miss_suggests_the_closest_benchmark() {
    let out = voltmargin(&["profile", "--benchmarks", "namd2", "--cores", "0"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown benchmark 'namd2'"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("did you mean 'namd'"), "stderr: {stderr}");
}

#[test]
fn characterize_cache_replays_a_second_run() {
    let dir = std::env::temp_dir().join(format!("voltmargin-cachecli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("vmin-cache.jsonl");
    let run = || {
        voltmargin(&[
            "characterize",
            "--benchmarks",
            "namd",
            "--cores",
            "4",
            "--iterations",
            "2",
            "--start",
            "890",
            "--floor",
            "875",
            "--threads",
            "2",
            "--search",
            "bisection",
            "--cache",
            cache.to_str().unwrap(),
        ])
    };
    let cold = run();
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_stderr = String::from_utf8(cold.stderr).unwrap();
    assert!(
        cold_stderr.contains("entries saved to"),
        "stderr: {cold_stderr}"
    );
    let persisted = std::fs::read_to_string(&cache).unwrap();
    assert!(persisted.lines().count() > 0, "cache file has entries");

    let warm = run();
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_stderr = String::from_utf8(warm.stderr).unwrap();
    assert!(
        warm_stderr.contains("entries loaded from"),
        "stderr: {warm_stderr}"
    );
    assert_eq!(
        String::from_utf8_lossy(&warm.stdout),
        String::from_utf8_lossy(&cold.stdout),
        "a cache replay must report the identical characterization"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn characterize_streams_trace_and_progress() {
    let dir = std::env::temp_dir().join(format!("voltmargin-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("campaign.jsonl");
    let out = voltmargin(&[
        "characterize",
        "--benchmarks",
        "namd",
        "--cores",
        "4",
        "--iterations",
        "2",
        "--start",
        "890",
        "--floor",
        "875",
        "--threads",
        "2",
        "--trace",
        trace.to_str().unwrap(),
        "--progress",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("sweeping namd on core4"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("campaign finished"), "stderr: {stderr}");
    assert!(stderr.contains("campaign metrics:"), "stderr: {stderr}");
    assert!(stderr.contains("runs_total"), "stderr: {stderr}");

    let data = std::fs::read_to_string(&trace).unwrap();
    let stats = voltmargin::trace::validate_jsonl(&data).expect("trace stream validates");
    assert_eq!(stats.campaigns, 1);
    assert_eq!(stats.sweeps, 1);
    assert!(stats.runs >= 2, "at least one voltage step of 2 iterations");
    assert_eq!(stats.records as usize, data.lines().count());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn characterize_metrics_out_writes_deterministic_openmetrics() {
    let dir = std::env::temp_dir().join(format!("voltmargin-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str, threads: &str| {
        let path = dir.join(name);
        let out = voltmargin(&[
            "characterize",
            "--benchmarks",
            "namd",
            "--cores",
            "4",
            "--iterations",
            "2",
            "--start",
            "890",
            "--floor",
            "875",
            "--threads",
            threads,
            "--metrics-out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("wrote campaign metrics to"),
            "stderr: {stderr}"
        );
        std::fs::read_to_string(&path).unwrap()
    };
    let serial = run("serial.om", "1");
    assert!(serial.contains("voltmargin_campaigns_total 1"), "{serial}");
    assert!(serial.contains("voltmargin_runs_total"), "{serial}");
    assert!(serial.ends_with("# EOF\n"), "{serial}");
    // The registry rides the deterministic record stream, so the
    // exposition is byte-identical across reruns and thread counts.
    assert_eq!(serial, run("serial2.om", "1"));
    assert_eq!(serial, run("sharded.om", "4"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn govern_metrics_out_exposes_the_decision() {
    let dir = std::env::temp_dir().join(format!("voltmargin-govmetrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("decision.om");
    let out = voltmargin(&[
        "govern",
        "--tasks",
        "namd,dealII",
        "--iterations",
        "2",
        "--threads",
        "8",
        "--max-loss",
        "0.25",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let data = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        data.contains("voltmargin_governor_decisions_total 1"),
        "{data}"
    );
    assert!(data.ends_with("# EOF\n"), "{data}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn govern_trace_records_the_decision() {
    let dir = std::env::temp_dir().join(format!("voltmargin-govtrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("decision.jsonl");
    let out = voltmargin(&[
        "govern",
        "--tasks",
        "namd,dealII",
        "--iterations",
        "2",
        "--threads",
        "8",
        "--max-loss",
        "0.25",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let data = std::fs::read_to_string(&trace).unwrap();
    assert_eq!(data.lines().count(), 1, "one decision record: {data}");
    assert!(
        data.contains("\"event\":\"VoltageDecision\""),
        "trace: {data}"
    );
    let stats = voltmargin::trace::validate_jsonl(&data).expect("decision stream validates");
    assert_eq!(stats.records, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn characterize_executors_write_byte_identical_traces() {
    let dir = std::env::temp_dir().join(format!("voltmargin-execcli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |threads: &str| {
        let path = dir.join(format!("threads-{threads}.jsonl"));
        let out = voltmargin(&[
            "characterize",
            "--benchmarks",
            "namd",
            "--cores",
            "4",
            "--iterations",
            "2",
            "--start",
            "890",
            "--floor",
            "875",
            "--threads",
            threads,
            "--trace",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&path).unwrap()
    };
    let one = run("1");
    assert!(!one.is_empty());
    assert_eq!(
        one,
        run("4"),
        "the worker count must never reach the deterministic stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_commands_reject_a_zero_thread_pool() {
    for args in [
        ["characterize", "--benchmarks", "namd", "--threads", "0"],
        ["govern", "--tasks", "namd", "--threads", "0"],
    ] {
        let out = voltmargin(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("at least one"), "{args:?}: {stderr}");
    }
}

#[test]
fn commands_reject_flags_they_do_not_document() {
    // Each of these used to be silently ignored: flags of removed
    // features, flags of a sibling command, and a typo once in the docs.
    let cases: [(&str, &str, &[&str]); 5] = [
        (
            "characterize",
            "--executor",
            &["characterize", "--benchmarks", "namd", "--executor", "pool"],
        ),
        (
            "characterize",
            "--profile-timing",
            &[
                "characterize",
                "--benchmarks",
                "namd",
                "--profile-timing",
                "timing.json",
            ],
        ),
        (
            "govern",
            "--search",
            &["govern", "--tasks", "namd", "--search", "bisection"],
        ),
        (
            "serve",
            "--threads",
            &["serve", "--addr", "127.0.0.1:0", "--threads", "2"],
        ),
        (
            "profile",
            "--core",
            &["profile", "--benchmarks", "namd", "--core", "0"],
        ),
    ];
    for (command, flag, args) in cases {
        let out = voltmargin(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("{command} does not accept {flag}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn cache_compact_drops_duplicates_and_is_idempotent() {
    let dir = std::env::temp_dir().join(format!("voltmargin-compact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache.jsonl");
    let out = voltmargin(&[
        "characterize",
        "--benchmarks",
        "namd",
        "--cores",
        "4",
        "--iterations",
        "2",
        "--start",
        "890",
        "--floor",
        "880",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let canonical = std::fs::read_to_string(&cache).unwrap();
    assert!(!canonical.is_empty());

    // An append-style log with every line duplicated: compaction must
    // restore the canonical bytes exactly.
    std::fs::write(&cache, format!("{canonical}{canonical}")).unwrap();
    let out = voltmargin(&["cache", "compact", cache.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("compacted"), "stdout: {stdout}");
    assert_eq!(std::fs::read_to_string(&cache).unwrap(), canonical);

    // Idempotent: a second pass changes nothing and says so.
    let out = voltmargin(&["cache", "compact", cache.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("already compact"), "stdout: {stdout}");
    assert_eq!(std::fs::read_to_string(&cache).unwrap(), canonical);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_compact_reports_clean_errors() {
    let out = voltmargin(&["cache", "compact", "/nonexistent/never.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    let dir = std::env::temp_dir().join(format!("voltmargin-compacterr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.jsonl");
    std::fs::write(&path, "not json\n").unwrap();
    let out = voltmargin(&["cache", "compact", path.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt input must fail");
    // The corrupt file is left untouched.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "not json\n");

    let out = voltmargin(&["cache", "polish"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown cache subcommand"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_errors_print_one_line_and_usage_errors_the_usage_text() {
    let dir = std::env::temp_dir().join(format!("voltmargin-dataerr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.jsonl");
    // A well-formed golden record whose runtime overflows to infinity.
    let line = "{\"kind\":\"golden\",\"chip\":\"TTT#0\",\"target_mhz\":2400,\
                \"parked_mhz\":300,\"enh\":0,\"seed\":1,\"program\":\"bwaves\",\
                \"dataset\":\"ref\",\"core\":0,\"digest\":\"00ff\",\"runtime_s\":1e999}\n";
    std::fs::write(&path, line).unwrap();
    let out = voltmargin(&["cache", "compact", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("corrupt cache record on line 1"),
        "stderr: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "one line, no usage: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);

    for args in [
        &["characterize", "--benchmarks"][..],
        &["characterize", "--iterations", "2"],
        &["cache"],
    ] {
        let out = voltmargin(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: voltmargin"), "{args:?}: {stderr}");
    }
    let out = voltmargin(&["watch", "--client", "lab"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("error: watch: --job is required\n"),
        "{stderr}"
    );
}

#[test]
fn help_names_every_subcommand() {
    let out = voltmargin(&["help"]);
    assert!(out.status.success(), "help exits 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for command in [
        "characterize",
        "profile",
        "govern",
        "serve",
        "watch",
        "cache compact",
        "list-benchmarks",
        "help",
    ] {
        assert!(stdout.contains(command), "help must name '{command}'");
    }
    // The error path prints the same usage text, so the two can never
    // drift apart.
    let err = voltmargin(&["explode"]);
    let stderr = String::from_utf8(err.stderr).unwrap();
    assert!(stderr.contains("serve"), "usage on stderr names serve");
}

#[test]
fn serve_rejects_zero_workers_with_a_typed_error() {
    let out = voltmargin(&["serve", "--addr", "127.0.0.1:0", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error: serve:"), "stderr: {stderr}");
    assert!(stderr.contains("at least one"), "stderr: {stderr}");
}

#[test]
fn serve_reports_bind_failures() {
    // Occupy a port, then ask the daemon to bind it.
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = blocker.local_addr().unwrap().to_string();
    let out = voltmargin(&["serve", "--addr", &addr, "--workers", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(&format!("cannot bind {addr}")),
        "stderr: {stderr}"
    );
}

#[test]
fn serve_answers_clients_and_shuts_down_cleanly() {
    use voltmargin::characterize::search::SearchStrategy;
    use voltmargin::fleet::{FleetEvent, FleetSpec, Request, Response, PROTO_VERSION};
    use voltmargin::sim::Corner;
    use voltmargin::trace::{merge_streams, read_jsonl};

    let dir = std::env::temp_dir().join(format!("voltmargin-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("fleet-cache.jsonl");
    let out_dir = dir.join("artifacts");

    let mut child = Command::new(env!("CARGO_BIN_EXE_voltmargin"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--cache",
            cache.to_str().unwrap(),
            "--out-dir",
            out_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");

    // Port 0 means the daemon prints the address it actually bound.
    let mut child_stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    child_stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    let stream = TcpStream::connect(&addr).expect("daemon accepts");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    fn exchange(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Response {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::parse_line(&reply).expect("daemon frames decode")
    }

    // Hostile bytes never kill the connection — they are answered with
    // typed, versioned error frames.
    let Response::Error { proto, code, .. } =
        exchange(&mut writer, &mut reader, "this is not json")
    else {
        panic!("garbage must yield an error frame");
    };
    assert_eq!((proto, code.as_str()), (PROTO_VERSION, "malformed"));
    let Response::Error { code, .. } = exchange(&mut writer, &mut reader, "{\"kind\":\"reboot\"}")
    else {
        panic!("unknown kinds must yield an error frame");
    };
    assert_eq!(code, "unknown-kind");

    // A real characterization round trip.
    let spec = FleetSpec {
        corner: Corner::Ttt,
        first_serial: 7,
        chips: 2,
        benchmarks: vec!["namd".into()],
        cores: vec![0],
        iterations: 1,
        start_mv: 890,
        floor_mv: 885,
        seed: 5,
        search: SearchStrategy::Exhaustive,
    };
    let bad = Request::Submit {
        client: "ci".into(),
        spec: FleetSpec {
            chips: 0,
            ..spec.clone()
        },
    };
    let Response::Error { code, message, .. } = exchange(&mut writer, &mut reader, &bad.to_line())
    else {
        panic!("invalid specs must yield an error frame");
    };
    assert_eq!(code, "bad-spec");
    assert!(message.contains("at least one chip"), "{message}");

    let submit = Request::Submit {
        client: "ci".into(),
        spec,
    };
    let Response::Submitted { job, chips } = exchange(&mut writer, &mut reader, &submit.to_line())
    else {
        panic!("valid submits are acknowledged");
    };
    assert_eq!(chips, 2);

    let results = Request::Results {
        client: "ci".into(),
        job,
    };
    let Response::Results {
        chips,
        executed_ops,
        trace,
        metrics,
        ..
    } = exchange(&mut writer, &mut reader, &results.to_line())
    else {
        panic!("results arrive for a completed job");
    };
    assert_eq!(chips, 2);
    assert!(executed_ops > 0, "cold run probes boards");
    assert!(trace.contains("TTT#7") && trace.contains("TTT#8"));
    assert!(metrics.ends_with("# EOF\n"));

    // Daemon health and metrics exposition over the wire.
    let Response::Health(health) = exchange(&mut writer, &mut reader, &Request::Health.to_line())
    else {
        panic!("health requests are answered with a snapshot");
    };
    assert_eq!(health.workers, 2);
    assert_eq!(health.jobs_done, 1);
    let Response::Metrics { body } =
        exchange(&mut writer, &mut reader, &Request::Metrics.to_line())
    else {
        panic!("metrics requests are answered with an exposition");
    };
    assert!(body.ends_with("# EOF\n"), "{body}");
    assert!(
        body.contains("voltmargin_fleet_jobs_completed_total 1"),
        "{body}"
    );

    // Subscribing to the finished job replays it from the retained
    // results; re-sealing the streamed per-chip payloads reproduces the
    // artifact trace byte for byte.
    let sub = Request::Subscribe {
        client: "ci".into(),
        job,
    };
    let Response::Subscribed { job: sub_job } = exchange(&mut writer, &mut reader, &sub.to_line())
    else {
        panic!("owners can subscribe to their jobs");
    };
    assert_eq!(sub_job, job);
    let mut streams = std::collections::BTreeMap::new();
    loop {
        let mut frame = String::new();
        reader.read_line(&mut frame).unwrap();
        let Response::Event(event) = Response::parse_line(&frame).expect("event frames decode")
        else {
            panic!("only event frames flow after the subscribe ack: {frame}");
        };
        match event {
            FleetEvent::ChipFinished { chip, trace, .. } => {
                streams.insert(chip, read_jsonl(&trace).expect("streamed traces parse"));
            }
            FleetEvent::JobFinished { .. } => break,
            FleetEvent::Lagged { .. } => panic!("a drained subscriber never lags"),
            _ => {}
        }
    }
    let replay: String = merge_streams(streams.values().map(Vec::as_slice))
        .iter()
        .map(|r| r.to_json_line().expect("records encode") + "\n")
        .collect();
    assert_eq!(replay, trace, "subscription replay matches the artifact");
    let unsub = Request::Unsubscribe {
        client: "ci".into(),
        job,
    };
    writeln!(writer, "{}", unsub.to_line()).unwrap();
    writer.flush().unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert_eq!(
        Response::parse_line(&ack).expect("ack decodes"),
        Response::Unsubscribed { job }
    );

    // The `watch` subcommand follows the job to its terminal event and
    // re-seals the streamed per-chip payloads into a replay trace that
    // matches the artifact byte for byte.
    let replay_path = dir.join("watch-replay.jsonl");
    let watch = voltmargin(&[
        "watch",
        "--addr",
        &addr,
        "--client",
        "ci",
        "--job",
        &job.to_string(),
        "--trace-out",
        replay_path.to_str().unwrap(),
    ]);
    assert!(
        watch.status.success(),
        "{}",
        String::from_utf8_lossy(&watch.stderr)
    );
    let narration = String::from_utf8(watch.stdout).unwrap();
    assert!(narration.contains("finished"), "stdout: {narration}");
    assert_eq!(
        std::fs::read_to_string(&replay_path).unwrap(),
        trace,
        "watch --trace-out matches the artifact"
    );

    // A subscriber that vanishes mid-stream (socket dropped with its
    // backlog unread) never kills the daemon.
    {
        let abrupt = TcpStream::connect(&addr).expect("daemon accepts");
        let mut w = abrupt.try_clone().unwrap();
        let mut r = BufReader::new(abrupt);
        let sub = Request::Subscribe {
            client: "ci".into(),
            job,
        };
        writeln!(w, "{}", sub.to_line()).unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(matches!(
            Response::parse_line(&line),
            Ok(Response::Subscribed { .. })
        ));
        // Dropped here with queued events still in flight.
    }

    assert_eq!(
        exchange(&mut writer, &mut reader, &Request::Shutdown.to_line()),
        Response::Bye
    );
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "clean shutdown exits 0");

    // The shared cache was persisted and per-client artifacts written.
    let persisted = std::fs::read_to_string(&cache).unwrap();
    assert!(persisted.lines().count() > 0, "cache file has entries");
    let artifact = out_dir.join("ci").join(format!("job{job}"));
    assert_eq!(
        std::fs::read_to_string(artifact.join("trace.jsonl")).unwrap(),
        trace
    );
    assert_eq!(
        std::fs::read_to_string(artifact.join("metrics.om")).unwrap(),
        metrics
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_caps_live_connections_with_a_typed_refusal() {
    use std::time::Duration;
    use voltmargin::fleet::proto::MAX_CONNECTIONS;
    use voltmargin::fleet::{Request, Response, PROTO_VERSION};

    // Bounded waits: 1500 polls 20 ms apart, 30 s in all.
    const POLLS: usize = 1500;
    let poll = || std::thread::sleep(Duration::from_millis(20));

    /// Kills the daemon if the test fails before it shuts down.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_voltmargin"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    let mut child_stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    child_stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    let connect = || {
        let stream = TcpStream::connect(&addr).expect("daemon accepts");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        BufReader::new(stream)
    };
    // One request and its reply; `None` when the daemon closed the socket.
    fn exchange(conn: &mut BufReader<TcpStream>, request: &Request) -> Option<Response> {
        writeln!(conn.get_ref(), "{}", request.to_line()).ok()?;
        let mut reply = String::new();
        conn.read_line(&mut reply).ok()?;
        Response::parse_line(&reply).ok()
    }
    let is_health = |reply: Option<Response>| matches!(reply, Some(Response::Health(_)));

    // Every slot taken, and each connection served.
    let mut live: Vec<_> = (0..MAX_CONNECTIONS).map(|_| connect()).collect();
    for conn in &mut live {
        assert!(is_health(exchange(conn, &Request::Health)));
    }

    // One more is refused with a typed frame, then EOF.
    let mut refused = connect();
    let mut frame = String::new();
    refused.read_line(&mut frame).unwrap();
    let Ok(Response::Error { proto, code, .. }) = Response::parse_line(&frame) else {
        panic!("expected an error frame, got {frame:?}");
    };
    assert_eq!(
        (proto, code.as_str()),
        (PROTO_VERSION, "too-many-connections")
    );
    frame.clear();
    assert_eq!(refused.read_line(&mut frame).ok(), Some(0), "then EOF");

    // Closing a connection frees its slot for the next client.
    drop(live.pop());
    let admitted = (0..POLLS).find_map(|_| {
        let mut conn = connect();
        if is_health(exchange(&mut conn, &Request::Health)) {
            return Some(conn);
        }
        poll();
        None
    });
    live.push(admitted.expect("a closed connection's slot comes back"));

    // At the cap again, `shutdown` still stops the daemon.
    assert_eq!(
        exchange(&mut live[0], &Request::Shutdown),
        Some(Response::Bye)
    );
    let status = (0..POLLS)
        .find_map(|_| {
            let status = daemon.0.try_wait().expect("daemon status");
            if status.is_none() {
                poll();
            }
            status
        })
        .expect("the daemon exits after shutdown at the connection cap");
    assert!(status.success(), "clean shutdown exits 0");
}
