//! `serve-mixed`: one client drives `Server::serve` in process, in a closed
//! loop, one framed `validate` request per call, against an on-disk
//! `VerdictStore` and a 2-worker engine with the `suite-tier1`
//! configuration.

use crate::config::{self, WORKERS};
use crate::inputs;
use crate::output::{Output, SetupTimes};
use crate::stats::{self, Share};
use crate::sys;
use lir_opt::paper_pipeline;
use llvm_md_core::wire::{self, Json};
use llvm_md_driver::store::DEFAULT_CAPACITY;
use llvm_md_driver::{Server, ValidationEngine, VerdictStore};
use llvm_md_workload::injected_corpus;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Distinct pairs per episode. An episode starts a server on a fresh,
/// empty store and sends the seeded stream over these pairs; a run repeats
/// episodes until its time is up, so every run has the same hit/miss mix.
/// A run gets through one to two episodes, so its slowest 1% of requests
/// come from dozens of distinct pairs rather than a few pairs resent.
pub const PAIRS: usize = 1200;

/// Times the set-up is repeated; `setup_s` is the median of their CPU
/// times.
const SETUP_REPEATS: usize = 3;

/// `request_cpu_tail_ms` is p95, of thousands of requests a run. p99 lies
/// among the few dozen costliest store misses, whose CPU time grew by 30
/// to 66% while the host was busy (p50 by 8 to 27%), so over ten runs it
/// spread 0.23 where the median spread 0.04.
const TAIL_PER_MILLE: usize = 950;

/// A store directory inside the working directory, removed on drop.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    /// A fresh, empty directory for episode `episode` of this process.
    pub fn fresh(episode: usize) -> StoreDir {
        let dir =
            PathBuf::from(".perfbench_tmp").join(format!("serve-{}-{episode}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the store directory");
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// A server on a fresh store with the pinned `suite-tier1` configuration.
pub fn server(dir: &StoreDir) -> Server {
    let c = config::tier1();
    let store = VerdictStore::open(&dir.0, DEFAULT_CAPACITY).expect("open the verdict store");
    Server::new(ValidationEngine::with_workers(WORKERS), c.validator, Some(c.triage), store)
}

/// Send one framed request and return the response bytes.
pub fn request(server: &Server, frame: &[u8]) -> Vec<u8> {
    let mut response = Vec::with_capacity(4096);
    server.serve(frame, &mut response).expect("in-memory serve cannot fail on I/O");
    response
}

/// Generate, optimize and frame the pairs `SETUP_REPEATS` times, check the
/// frames repeat, and return them with the median set-up time.
pub fn setup(seed: u64, out: &mut Output) -> Vec<Vec<u8>> {
    let pm = paper_pipeline();
    let mut times = SetupTimes::default();
    let mut first: Option<Vec<Vec<u8>>> = None;
    for _ in 0..SETUP_REPEATS {
        let frames = times.measure(|| inputs::serve_frames(seed, PAIRS, &pm));
        match &first {
            None => first = Some(frames),
            Some(f) => out.expect(*f == frames, || "serve set-up is not deterministic".to_owned()),
        }
    }
    let frames = first.expect("at least one set-up");
    let bytes: usize = frames.iter().map(Vec::len).sum();
    times.report(&format!("; {PAIRS} pairs, mean frame {} bytes", bytes / PAIRS), out);
    frames
}

/// One answered request's timing.
pub struct Sent {
    /// Was the pair new to this episode's store?
    pub new: bool,
    /// Request wall time.
    pub wall: Duration,
    /// Process CPU time during the request.
    pub cpu: Duration,
}

/// The untraced run. Each response is checked right after it is timed, so
/// memory does not grow with the number of requests.
pub fn run(seed: u64, seconds: f64, out: &mut Output) {
    let frames = setup(seed, out);
    let stream = inputs::serve_stream(seed, PAIRS);
    let mut sent: Vec<Sent> = Vec::new();
    let mut checker = Checker::default();
    let start = Instant::now();
    let mut episode = 0;
    'run: loop {
        let dir = StoreDir::fresh(episode);
        let server = server(&dir);
        checker.new_episode();
        for &(pair, new) in &stream {
            let cpu0 = sys::cpu_time();
            let t0 = Instant::now();
            let response = request(&server, &frames[pair]);
            let wall = t0.elapsed();
            sent.push(Sent { new, wall, cpu: sys::cpu_time() - cpu0 });
            checker.check(pair, new, episode, &response, out);
            if start.elapsed().as_secs_f64() >= seconds {
                break 'run;
            }
        }
        episode += 1;
    }
    injected_check(out);
    report(&sent, episode + 1, &checker, out);
}

/// Checks every response as it arrives: it parses and carries no `error`
/// line; a repeat is answered wholly from the store with verdict lines
/// byte-identical to the pair's first answer in that episode; verdict
/// classes agree across episodes; no function is a real miscompile.
#[derive(Default)]
pub struct Checker {
    /// The verdict lines of each pair's first answer in this episode.
    first_answers: HashMap<usize, Vec<u8>>,
    /// Each pair's verdict classes, from its first answer in the run.
    classes: HashMap<usize, Vec<String>>,
    /// Verdict lines answered.
    functions: usize,
    /// Transformed pairs among first answers, and how many were certified
    /// (validated or proved equivalent).
    certified: Share,
}

/// The parsed documents of one response.
fn documents(response: &[u8]) -> Result<Vec<Json>, String> {
    let text = std::str::from_utf8(response).map_err(|e| e.to_string())?;
    text.lines().map(|l| wire::parse(l).map_err(|e| format!("{e}: {l}"))).collect()
}

fn str_field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

/// The verdict lines of a response, as raw bytes.
fn verdict_lines(response: &[u8]) -> Vec<u8> {
    response
        .split_inclusive(|&b| b == b'\n')
        .filter(|l| l.windows(16).any(|w| w == b"\"type\":\"verdict\""))
        .flatten()
        .copied()
        .collect()
}

impl Checker {
    /// Forget first answers: the next episode starts on an empty store.
    pub fn new_episode(&mut self) {
        self.first_answers.clear();
    }

    /// Check one response to a request for `pair`.
    pub fn check(
        &mut self,
        pair: usize,
        new: bool,
        episode: usize,
        response: &[u8],
        out: &mut Output,
    ) {
        let docs = match documents(response) {
            Ok(d) => d,
            Err(e) => {
                return out.expect(false, || format!("pair {pair}: unparseable response: {e}"));
            }
        };
        let of_type = |t: &'static str| docs.iter().filter(move |d| str_field(d, "type") == t);
        let errors = of_type("error").count();
        out.expect(errors == 0, || format!("pair {pair}: {errors} error lines"));
        let verdicts: Vec<&Json> = of_type("verdict").collect();
        self.functions += verdicts.len();
        let miscompiles: Vec<&str> = verdicts
            .iter()
            .filter(|d| str_field(d, "class") == "real-miscompile")
            .map(|d| str_field(d, "function"))
            .collect();
        out.check(verdicts.len(), miscompiles.len());
        if !miscompiles.is_empty() {
            out.notes.push(format!(
                "FAILED: pair {pair} (episode {episode}): real miscompile of {miscompiles:?}"
            ));
        }
        let lines = verdict_lines(response);
        if !new {
            let hits = of_type("batch-end")
                .next()
                .and_then(|d| d.get("store_hits"))
                .and_then(Json::as_f64);
            out.expect(hits == Some(verdicts.len() as f64), || {
                format!("repeat of pair {pair} not answered from the store ({hits:?} hits)")
            });
            let same = self.first_answers.get(&pair) == Some(&lines);
            return out.expect(same, || {
                format!("repeat of pair {pair} answered different verdict lines")
            });
        }
        out.expect(self.first_answers.insert(pair, lines).is_none(), || {
            format!("pair {pair} sent new twice in episode {episode}")
        });
        for d in &verdicts {
            if str_field(d, "orig_fp") != str_field(d, "opt_fp") {
                let class = str_field(d, "class");
                self.certified.base += 1;
                self.certified.part +=
                    u64::from(class == "validated" || class == "proved-equivalent");
            }
        }
        let classes: Vec<String> =
            verdicts.iter().map(|d| str_field(d, "class").to_owned()).collect();
        match self.classes.get(&pair) {
            None => {
                self.classes.insert(pair, classes);
            }
            Some(c) => out.expect(*c == classes, || {
                format!("pair {pair}: verdict classes changed in episode {episode}")
            }),
        }
    }
}

/// The six injected bugs, sent as `(original, broken)` requests to a fresh
/// server: each bugged function must be rejected and none proved.
pub fn injected_check(out: &mut Output) {
    let dir = StoreDir::fresh(usize::MAX);
    let server = server(&dir);
    for bug in injected_corpus() {
        let frame = inputs::validate_frame(bug.name, &bug.module, &bug.broken);
        let response = request(&server, &frame);
        let class = documents(&response).ok().and_then(|docs| {
            docs.iter()
                .find(|d| {
                    str_field(d, "type") == "verdict" && str_field(d, "function") == bug.function
                })
                .map(|d| str_field(d, "class").to_owned())
        });
        let caught = matches!(class.as_deref(), Some("suspected-incomplete" | "real-miscompile"));
        out.expect(caught, || format!("injected bug `{}` not caught: {class:?}", bug.name));
    }
}

/// The end-to-end metrics over a run's requests.
fn report(sent: &[Sent], episodes: usize, checker: &Checker, out: &mut Output) {
    let wall: f64 = sent.iter().map(|s| s.wall.as_secs_f64()).sum();
    let cpu: f64 = sent.iter().map(|s| s.cpu.as_secs_f64()).sum();
    let ms = |new: Option<bool>, time: fn(&Sent) -> Duration| -> Vec<f64> {
        sent.iter()
            .filter(|s| new.is_none_or(|n| s.new == n))
            .map(|s| time(s).as_secs_f64() * 1e3)
            .collect()
    };
    let (hits, misses) = (ms(Some(false), |s| s.wall), ms(Some(true), |s| s.wall));
    out.notes.push(format!(
        "{} requests ({} hits, {} misses) over {episodes} episodes; {} verdict lines in {wall:.3} s of requests, {cpu:.3} s cpu; wall-clock {:.1} verdict lines/s",
        sent.len(),
        hits.len(),
        misses.len(),
        checker.functions,
        checker.functions as f64 / wall,
    ));
    if !hits.is_empty() && !misses.is_empty() {
        out.notes.push(format!(
            "hit p50 {:.4} ms, miss p50 {:.4} ms",
            stats::p50(&hits),
            stats::p50(&misses)
        ));
    }
    out.metric("cpu_ms_per_function", cpu * 1e3 / checker.functions.max(1) as f64, "ms");
    out.share("certified_share", checker.certified);
    out.requests(&ms(None, |s| s.cpu), &ms(None, |s| s.wall), TAIL_PER_MILLE);
    out.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lines_keep_only_verdicts() {
        let response = b"{\"schema_version\":1,\"type\":\"batch-begin\",\"id\":\"a\"}\n\
            {\"schema_version\":1,\"type\":\"verdict\",\"function\":\"f\"}\n\
            {\"schema_version\":1,\"type\":\"batch-end\",\"id\":\"a\"}\n";
        assert_eq!(
            verdict_lines(response),
            b"{\"schema_version\":1,\"type\":\"verdict\",\"function\":\"f\"}\n".to_vec()
        );
    }

    #[test]
    fn a_served_repeat_is_checked_against_its_first_answer() {
        let dir = StoreDir::fresh(usize::MAX - 1);
        let server = server(&dir);
        let original = &injected_corpus()[0].module;
        let mut optimized = original.clone();
        paper_pipeline().run_module(&mut optimized);
        let frame = inputs::validate_frame("t", original, &optimized);
        let mut out = Output::default();
        let mut checker = Checker::default();
        checker.check(0, true, 0, &request(&server, &frame), &mut out);
        let repeat = request(&server, &frame);
        checker.check(0, false, 0, &repeat, &mut out);
        assert!(out.correct(), "{:?}", out.notes);
        // A repeat whose verdict lines differ from the first answer fails.
        let doctored = String::from_utf8(repeat)
            .expect("utf-8")
            .replace("\"function\":\"", "\"function\":\"x");
        checker.check(0, false, 0, doctored.as_bytes(), &mut out);
        assert!(!out.correct());
    }
}
