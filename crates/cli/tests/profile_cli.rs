//! End-to-end checks of the observability surface (DESIGN.md §17): the
//! `profile` subcommand writes a Chrome/Perfetto trace and prints the
//! flame table, and `run --stats` reports exact latency percentiles from
//! the streaming histograms.

use std::process::{Command, Output};

fn mtsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtsim")).args(args).output().expect("spawn mtsim")
}

fn run_ok(args: &[&str]) -> String {
    let out = mtsim(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "args {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn stats_reports_exact_percentiles_under_constant_latency() {
    // The paper's memory model is a constant 200-cycle round trip, so
    // every reply-bearing shared load takes exactly 200 cycles and both
    // percentiles must land on it exactly — the histogram's unit buckets
    // are exact below 256.
    let stdout = run_ok(&["run", "sieve", "--scale", "tiny", "-p", "2", "-t", "2", "--stats"]);
    assert!(
        stdout.contains("latency       p50 200 p99 200 round-trip cycles"),
        "missing exact percentile line:\n{stdout}"
    );
}

#[test]
fn profile_writes_a_loadable_trace_and_prints_the_flame_table() {
    let dir = mtsim_sweep::unique_temp_dir("profile-cli").unwrap();
    let trace = dir.join("trace.json");
    let trace_path = trace.to_str().unwrap();

    let stdout = run_ok(&[
        "profile", "sieve", "--scale", "tiny", "-p", "2", "-t", "2", "--out", trace_path, "--attr",
    ]);
    assert!(stdout.contains("trace"), "missing trace summary line:\n{stdout}");
    assert!(stdout.contains("flame table:"), "missing flame table:\n{stdout}");
    assert!(stdout.contains("share of machine cycles:"), "missing share line:\n{stdout}");

    // The trace must be valid Chrome trace-event JSON: an object with a
    // traceEvents array of "X"/"i"/"M" records. Spot-check the envelope
    // and a couple of required fields without a JSON parser.
    let json = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "bad envelope:\n{}",
        &json[..80.min(json.len())]
    );
    assert!(json.contains(r#""ph":"M""#), "no metadata events");
    assert!(json.contains(r#""ph":"X""#), "no slice events");
    assert!(json.contains(r#""name":"run","cat":"sched""#), "no scheduler slices");
    assert!(json.trim_end().ends_with('}'), "unterminated JSON");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rejects_a_zero_ring() {
    let out = mtsim(&["profile", "sieve", "--scale", "tiny", "--ring", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--ring must be >= 1"), "{stderr}");
}

#[test]
fn sweep_attr_flag_appends_attribution_columns() {
    let stdout = run_ok(&[
        "sweep",
        "--apps",
        "sieve",
        "--models",
        "switch-on-load",
        "--p",
        "1",
        "--t",
        "2",
        "--scale",
        "tiny",
        "--attr",
        "--quiet",
    ]);
    let header = stdout.lines().next().unwrap();
    assert!(header.ends_with("attr_idle,attr_issue_idle"), "header missing attr: {header}");
    // Every cycle is attributed: busy+ovh+stall+spin+barrier+idle == P*cycles
    // (issue_idle joins the sum only under SMT; it is 0 on a single-issue
    // model, which this also pins).
    let row: Vec<&str> = stdout.lines().nth(1).unwrap().split(',').collect();
    let col = |name: &str| {
        let i = header.split(',').position(|h| h == name).unwrap();
        row[i].parse::<u64>().unwrap()
    };
    assert_eq!(col("attr_issue_idle"), 0, "single-issue run charged issue slots: {stdout}");
    let attributed: u64 = [
        "attr_busy",
        "attr_switch_ovh",
        "attr_mem_stall",
        "attr_lock_spin",
        "attr_barrier_wait",
        "attr_idle",
        "attr_issue_idle",
    ]
    .iter()
    .map(|n| col(n))
    .sum();
    assert_eq!(attributed, col("procs") * col("cycles"), "attribution leak in: {stdout}");
}

#[test]
fn sweep_without_attr_keeps_the_legacy_header() {
    let stdout = run_ok(&[
        "sweep",
        "--apps",
        "sieve",
        "--models",
        "switch-on-load",
        "--p",
        "1",
        "--t",
        "1",
        "--scale",
        "tiny",
        "--quiet",
    ]);
    let header = stdout.lines().next().unwrap();
    assert!(header.ends_with("error_kind"), "unexpected extra columns: {header}");
    assert!(!stdout.contains("attr_"), "attr columns leaked into unattributed sweep");
}
