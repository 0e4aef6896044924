//! The `trace-check` binary on a well-formed stream and on copies edited
//! into JSON the workspace's writers never emit.

#![allow(clippy::expect_used)]

use margins_trace::{StreamFinalizer, TraceEvent};
use std::process::Command;

/// A campaign stream with no sweeps, as the JSONL sink writes it.
fn trace() -> String {
    let events = [
        TraceEvent::CampaignStarted {
            chip: "TTT#0".into(),
            rail: "pmd".into(),
            benchmarks: 1,
            cores: 1,
            steps: 1,
            iterations: 1,
            shards: 1,
            seed: 3_405_691_582,
        },
        TraceEvent::CampaignFinished {
            runs: 0,
            power_cycles: 0,
        },
    ];
    let mut finalizer = StreamFinalizer::new();
    events
        .into_iter()
        .map(|event| {
            let line = finalizer.seal(event).to_json_line().expect("serializable");
            line + "\n"
        })
        .collect()
}

/// Writes `text` to a fresh file and runs `trace-check` on it: the exit
/// code and stdout.
fn check(name: &str, text: &str) -> (Option<i32>, String) {
    let dir =
        std::env::temp_dir().join(format!("margins-trace-check-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch");
    let path = dir.join("trace.jsonl");
    std::fs::write(&path, text).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_trace-check"))
        .arg(&path)
        .output()
        .expect("trace-check runs");
    std::fs::remove_dir_all(&dir).expect("remove scratch");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf8"),
    )
}

#[test]
fn trace_check_rejects_repeated_keys_and_non_json_numbers() {
    let text = trace();
    let (code, stdout) = check("ok", &text);
    assert_eq!(code, Some(0), "{stdout}");

    for (name, from, to, named) in [
        (
            "seed",
            r#""seed":3405691582"#,
            r#""seed":99,"seed":3405691582"#,
            "duplicate key 'seed'",
        ),
        (
            "iterations",
            r#""iterations":1"#,
            r#""iterations":01"#,
            "bad number '01'",
        ),
        (
            "time",
            r#""t_model_s":0.0"#,
            r#""t_model_s":0."#,
            "bad number '0.'",
        ),
    ] {
        assert!(text.contains(from), "{name}: {from} is in the trace");
        let (code, stdout) = check(name, &text.replacen(from, to, 1));
        assert_eq!(code, Some(1), "{name}: {stdout}");
        assert!(stdout.contains(named), "{name}: {stdout}");
    }
}
