//! `served`: one closed-loop client against an in-process server.
//!
//! The first pass binds an `mtsim_serve::Server` (one sweep worker, a
//! fresh state directory) that serves every pass of the run, so its
//! artifact cache stays warm for the process lifetime. One client
//! connection submits the seeded specs one at a time — submit, poll
//! status until done, fetch results — and only then sends the next.
//! Every fetched table must be byte-identical to an in-process
//! `run_sweep` of the same spec.
//!
//! Set-up is bind until `/v1/healthz` answers, measured once per pass on
//! a fresh probe server. `Server::run` serves until the process exits
//! (crash safety, not graceful shutdown, is its contract), so probe
//! servers stay idle on their listeners until the run ends.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mtsim_core::SwitchModel;
use mtsim_rng::Rng;
use mtsim_serve::{ServeConfig, Server};
use mtsim_sweep::checkpoint::{fnv1a64, parse_json, Jv};
use mtsim_sweep::{run_sweep, SweepOpts, SweepSpec};

use crate::pass::{Pass, Workload};
use crate::refgrid::{count_simulated, job_stats};
use crate::trace::{Tracer, NO_ID};

/// Models the client picks from: the paper's switching machines, no SMT.
const MODELS: [SwitchModel; 5] = [
    SwitchModel::SwitchOnLoad,
    SwitchModel::ExplicitSwitch,
    SwitchModel::ConditionalSwitch,
    SwitchModel::SwitchOnUse,
    SwitchModel::SwitchOnMiss,
];

/// Thread counts per processor the client picks from.
const THREADS: [usize; 3] = [1, 2, 4];

/// Pause between status polls. Most sweeps finish in 2–5 ms, so a
/// millisecond keeps latency resolution while cutting the round trips
/// (and the wake-ups on this client) several-fold against tighter polling.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Socket read timeout: a reply slower than this fails the pass instead
/// of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The seeded spec mix: one spec file per app × model × thread count
/// (120 in all), each at P=2, latencies 25–400 and scale `tiny`, in an
/// order shuffled by the seed. Every seed submits the same work, so the
/// seed moves only the order (and with it cache and reuse timing).
pub fn spec_mix(seed: u64) -> Vec<String> {
    let mut specs = Vec::new();
    for app in mtsim_apps::AppKind::ALL {
        for model in MODELS {
            for threads in THREADS {
                specs.push(format!(
                    "apps={}\nmodels={}\nprocs=2\nthreads={threads}\nlatency=25,50,100,200,400\n\
                     scale=tiny\n",
                    app.name(),
                    model.name()
                ));
            }
        }
    }
    Rng::derive(seed, "ledger-served-specs").shuffle(&mut specs);
    specs
}

/// What an in-process `run_sweep` of one spec produced.
struct Reference {
    body: Vec<u8>,
    stats: Vec<(SwitchModel, mtsim_core::RunStats)>,
}

/// The `served` workload.
pub struct Served {
    specs: Vec<String>,
    work: PathBuf,
    passes: usize,
    /// Connection to the server every pass submits to.
    client: Option<Client>,
    references: HashMap<String, Reference>,
}

impl Served {
    /// The spec mix of `seed`; state directories go in `work`.
    pub fn new(seed: u64, work: PathBuf) -> Served {
        Served { specs: spec_mix(seed), work, passes: 0, client: None, references: HashMap::new() }
    }

    fn reference(&mut self, spec: &str) -> &Reference {
        self.references.entry(spec.to_string()).or_insert_with(|| {
            let parsed = SweepSpec::parse_file(spec).expect("generated specs parse");
            let out = run_sweep(&parsed, &SweepOpts { workers: Some(1), ..SweepOpts::default() })
                .expect("an unstreamed sweep cannot fail at the sweep level");
            Reference { body: (out.results_json() + "\n").into_bytes(), stats: job_stats(&out) }
        })
    }
}

/// Outcome of one submission.
struct Reply {
    latency_ms: f64,
    body: Option<Vec<u8>>,
    polls: usize,
    http_errors: usize,
}

impl Workload for Served {
    fn pass(&mut self, mut tracer: Option<&mut Tracer>) -> Pass {
        self.passes += 1;
        let dir = self.work.join(format!("served-{}", self.passes));
        let _ = std::fs::remove_dir_all(&dir);
        let mut problems = Vec::new();

        let root = tracer.as_deref_mut().map(|t| t.open("setup", NO_ID));
        let t = Instant::now();
        let probe = start_server(&dir, &mut tracer);
        let setup_s = t.elapsed().as_secs_f64();
        close(&mut tracer, root);
        let probe = match probe {
            Ok(c) => c,
            Err(e) => {
                problems.push(format!("server did not come up: {e}"));
                return Pass { attempted: 1, failed: 1, problems, ..Pass::default() };
            }
        };
        // The first probe becomes the run's server; later ones only time
        // start-up.
        let client = self.client.get_or_insert(probe);
        let before = server_stats(client);

        let root = tracer.as_deref_mut().map(|t| t.open("run", NO_ID));
        let t = Instant::now();
        let replies: Vec<Reply> = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| submit_and_fetch(client, spec, i as u64, &mut tracer))
            .collect();
        let wall_s = t.elapsed().as_secs_f64();
        close(&mut tracer, root);

        let after = server_stats(client);

        // Output checks, outside the timed region.
        let mut failed = 0;
        let mut digest_input = Vec::new();
        let mut sim_insts = 0;
        let mut simulated = Vec::new();
        let specs = self.specs.clone();
        for (i, (spec, reply)) in specs.iter().zip(&replies).enumerate() {
            let reference = self.reference(spec);
            match &reply.body {
                Some(body) if *body == reference.body => {
                    sim_insts += reference.stats.iter().map(|(_, s)| s.instructions).sum::<u64>();
                    simulated.extend_from_slice(&reference.stats);
                    digest_input.extend_from_slice(body);
                }
                Some(_) => {
                    failed += 1;
                    problems.push(format!("submission {i}: served results differ from run_sweep"));
                }
                None => {
                    failed += 1;
                    problems.push(format!(
                        "submission {i}: no results ({} HTTP errors)",
                        reply.http_errors
                    ));
                }
            }
        }
        let http_errors: usize = replies.iter().map(|r| r.http_errors).sum();
        if let Some(t) = tracer {
            let polls: usize = replies.iter().map(|r| r.polls).sum();
            t.count("serve.polls_per_sweep", polls as f64 / replies.len().max(1) as f64);
            t.count("serve.http_errors", http_errors as f64);
            // The server outlives the pass: count this pass's share.
            let stat = |path: &[&str]| {
                let read = |stats: &Option<Jv>| {
                    let mut v = stats.as_ref();
                    for key in path {
                        v = v.and_then(|j| j.get(key));
                    }
                    v.and_then(Jv::as_u64).unwrap_or(0) as f64
                };
                read(&after) - read(&before)
            };
            t.count("serve.cache_hits", stat(&["cache", "hits"]));
            t.count("serve.machine_reuses", stat(&["machine_reuses"]));
            let jobs: usize = self.specs.iter().map(|text| spec_jobs(text)).sum();
            t.count("sweep.machine_reuse_ratio", stat(&["machine_reuses"]) / jobs.max(1) as f64);
            count_simulated(t, &simulated);
        }
        Pass {
            setup_s,
            wall_s,
            units: replies.len(),
            units_s: wall_s,
            attempted: replies.len(),
            failed,
            latencies_ms: replies.iter().map(|r| r.latency_ms).collect(),
            sim_insts,
            results: format!("{:016x}", fnv1a64(&digest_input)),
            problems,
        }
    }

    fn describe(&self) -> Vec<String> {
        let distinct: std::collections::BTreeSet<&String> = self.specs.iter().collect();
        vec![format!(
            "closed loop, 1 client connection, {} submissions per pass ({} distinct specs: \
             8 apps x 5 models x T=1,2,4, seeded order), P=2, 5 latencies per sweep, \
             1 sweep worker; a unit is one submitted sweep",
            self.specs.len(),
            distinct.len()
        )]
    }
}

/// Grid points in a spec file.
fn spec_jobs(text: &str) -> usize {
    SweepSpec::parse_file(text).map_or(0, |spec| spec.len())
}

/// `GET /v1/stats`, parsed; `None` if the server did not answer 200.
fn server_stats(client: &mut Client) -> Option<Jv> {
    match client.request("GET", "/v1/stats", b"") {
        Ok((200, body)) => parse_json(&String::from_utf8_lossy(&body)).ok(),
        _ => None,
    }
}

fn close(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
        t.close(s);
    }
}

/// Times `f` under a span when tracing.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer.as_deref_mut() {
        Some(t) => t.time(name, id, f),
        None => f(),
    }
}

/// Binds a server on an ephemeral port, starts it, and waits for
/// `/v1/healthz` on a fresh client connection.
fn start_server(
    dir: &std::path::Path,
    tracer: &mut Option<&mut Tracer>,
) -> std::io::Result<Client> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: Some(1),
        state_dir: dir.to_str().expect("work directory path is utf-8").to_string(),
        ..ServeConfig::default()
    };
    let server = timed(tracer, "serve.bind", NO_ID, || Server::bind(cfg))?;
    let addr = server.local_addr()?;
    std::thread::Builder::new().name("ledger-server".into()).spawn(move || server.run())?;
    timed(tracer, "serve.healthz", NO_ID, || {
        let mut client = Client::connect(addr)?;
        match client.request("GET", "/v1/healthz", b"")? {
            (200, _) => Ok(client),
            (status, _) => Err(std::io::Error::other(format!("healthz answered {status}"))),
        }
    })
}

/// One closed-loop round: submit, poll until done, fetch the results.
fn submit_and_fetch(
    client: &mut Client,
    spec: &str,
    id: u64,
    tracer: &mut Option<&mut Tracer>,
) -> Reply {
    let t = Instant::now();
    let mut reply = Reply { latency_ms: 0.0, body: None, polls: 0, http_errors: 0 };
    let job =
        timed(tracer, "serve.submit", id, || client.request("POST", "/v1/sweeps", spec.as_bytes()));
    let job = match job {
        Ok((201, body)) => parse_json(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|j| j.get("id").and_then(Jv::as_u64)),
        _ => None,
    };
    let Some(job) = job else {
        reply.http_errors += 1;
        reply.latency_ms = t.elapsed().as_secs_f64() * 1e3;
        return reply;
    };
    let status_path = format!("/v1/sweeps/{job}");
    let done = timed(tracer, "serve.poll", id, || loop {
        reply.polls += 1;
        match client.request("GET", &status_path, b"") {
            Ok((200, body)) => {
                let text = String::from_utf8_lossy(&body);
                let state = parse_json(&text)
                    .ok()
                    .and_then(|j| j.get("state").and_then(Jv::as_str).map(str::to_string));
                match state.as_deref() {
                    Some("done") => break true,
                    Some("queued" | "running") => std::thread::sleep(POLL_INTERVAL),
                    _ => break false,
                }
            }
            _ => {
                reply.http_errors += 1;
                break false;
            }
        }
    });
    if done {
        let results = format!("/v1/sweeps/{job}/results");
        match timed(tracer, "serve.results", id, || client.request("GET", &results, b"")) {
            Ok((200, body)) => reply.body = Some(body),
            _ => reply.http_errors += 1,
        }
    }
    reply.latency_ms = t.elapsed().as_secs_f64() * 1e3;
    reply
}

/// A keep-alive HTTP/1.1 client over one connection that never drops
/// bytes past the current reply.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, buf: Vec::new() })
    }

    /// Sends one request and reads its reply: `(status, body)`.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: ledger\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;

        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim().eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("reply without content-length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + len {
            self.fill()?;
        }
        let body = self.buf[start..start + len].to_vec();
        self.buf.drain(..start + len);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{assert_traced_matches_untraced, test_dir};

    #[test]
    fn traced_client_fetches_the_same_tables() {
        let dir = test_dir("served");
        let mut w = Served::new(3, dir.clone());
        w.specs.truncate(6);
        let tracer = assert_traced_matches_untraced(&mut w);
        let table = tracer.layer_table();
        assert_eq!(table["serve.submit"].1, 6);
        assert_eq!(table["serve.results"].1, 6);
        assert_eq!(tracer.counter("serve.http_errors"), 0.0);
        assert!(tracer.counter("serve.polls_per_sweep") >= 1.0);
        let reuse = tracer.counter("sweep.machine_reuse_ratio");
        assert!(reuse > 0.0 && reuse < 1.0, "first job of each sweep builds fresh: {reuse}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn spec_mix_is_deterministic_per_seed_and_valid() {
        let a = spec_mix(7);
        assert_eq!(a, spec_mix(7));
        assert_ne!(a, spec_mix(8), "the seed orders the mix");
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 120, "every app x model x thread count exactly once");
        for text in &a {
            let spec = SweepSpec::parse_file(text).expect("parses");
            spec.validate().expect("validates");
            assert_eq!(spec.len(), 5, "one app, one model, one thread count, five latencies");
            assert!(!spec.models.contains(&SwitchModel::Smt));
        }
    }
}
