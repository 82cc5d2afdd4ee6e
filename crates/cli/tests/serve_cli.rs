//! End-to-end service tests against the real binary: submit over a real
//! socket, byte-diff served results against `mtsim sweep`, then `kill
//! -9` the server mid-sweep and prove the restarted process resumes to
//! an identical result.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    mtsim_sweep::unique_temp_dir(&format!("serve-cli-{tag}")).unwrap()
}

/// Starts `mtsim serve --port 0` and parses the bound address off
/// stdout.
fn spawn_server(state_dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args(["serve", "--port", "0", "--jobs", "2", "--state-dir", state_dir.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mtsim serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read address line");
    let addr = line
        .trim()
        .strip_prefix("mtsim-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr)
}

/// One HTTP exchange; returns (status, body).
fn http(addr: &str, raw: &str) -> (u16, Vec<u8>) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30))).expect("set read timeout");
    conn.write_all(raw.as_bytes()).expect("write");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = conn.read(&mut buf).expect("read head");
        assert!(n > 0, "closed mid-head");
        raw.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length");
    let mut body = raw[head_end..].to_vec();
    while body.len() < length {
        let n = conn.read(&mut buf).expect("read body");
        assert!(n > 0, "closed mid-body");
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(length);
    (status, body)
}

fn get(addr: &str, path: &str) -> (u16, Vec<u8>) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n"))
}

fn post(addr: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    http(
        addr,
        &format!("POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}", body.len()),
    )
}

/// Pulls `"key":<number>` or `"key":"string"` out of a flat JSON body.
fn field(body: &[u8], key: &str) -> String {
    let text = String::from_utf8_lossy(body);
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat).unwrap_or_else(|| panic!("no {key} in {text}")) + pat.len()..];
    rest.trim_start_matches('"').chars().take_while(|c| c.is_alphanumeric()).collect()
}

fn wait_done(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = get(addr, &format!("/v1/sweeps/{id}"));
        assert_eq!(status, 200);
        match field(&body, "state").as_str() {
            "done" => return,
            "queued" | "running" => {}
            other => panic!("job {id} entered state {other}"),
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The reference table for a spec, produced by the batch CLI.
fn sweep_reference(dir: &Path, spec: &str) -> Vec<u8> {
    let spec_path = dir.join("ref.spec");
    let out_path = dir.join("ref.json");
    std::fs::write(&spec_path, spec).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mtsim"))
        .args([
            "sweep",
            "--spec",
            spec_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("spawn mtsim sweep");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::read(&out_path).unwrap()
}

const SPEC: &str =
    "apps=sieve\nmodels=switch-on-load,explicit-switch\nprocs=2\nthreads=1,2\nscale=tiny\n";

#[test]
fn served_results_byte_match_the_batch_cli() {
    let dir = tmp_dir("identity");
    let state = dir.join("state");
    let (mut server, addr) = spawn_server(&state);

    let (status, body) = post(&addr, "/v1/sweeps", SPEC);
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let id = field(&body, "id");
    wait_done(&addr, &id);
    let (status, served) = get(&addr, &format!("/v1/sweeps/{id}/results"));
    assert_eq!(status, 200);

    let reference = sweep_reference(&dir, SPEC);
    assert_eq!(served, reference, "served bytes must equal `mtsim sweep --out` for the same spec");
    server.kill().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_dash_nine_mid_sweep_then_restart_resumes_to_identical_bytes() {
    let dir = tmp_dir("chaos");
    let state = dir.join("state");
    // A wide grid of small jobs: long enough to kill mid-flight, cheap
    // enough to finish promptly after the restart.
    let spec = "apps=sieve\nmodels=switch-on-load\nprocs=2\nthreads=2\n\
                latencies=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20\n\
                seeds=1,2,3\ndrop_rates=0.01\nscale=small\n";

    let (mut server, addr) = spawn_server(&state);
    let (status, body) = post(&addr, "/v1/sweeps", spec);
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let id = field(&body, "id");

    // Wait for durable progress, then SIGKILL — no shutdown handler runs.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = get(&addr, &format!("/v1/sweeps/{id}"));
        let done: u64 = field(&body, "completed").parse().unwrap_or(0);
        if done >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "no progress before kill");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.kill().expect("SIGKILL server");
    server.wait().expect("reap server");

    // The restarted server re-enqueues and resumes the interrupted job.
    let (mut server, addr) = spawn_server(&state);
    wait_done(&addr, &id);
    let (status, served) = get(&addr, &format!("/v1/sweeps/{id}/results"));
    assert_eq!(status, 200);
    let reference = sweep_reference(&dir, spec);
    assert_eq!(served, reference, "post-crash resume must converge to the uninterrupted table");
    server.kill().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
