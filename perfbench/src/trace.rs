//! The traced run (`--trace 1`). It alternates, unit by unit (a suite, or a
//! serve request), an untraced call of the workload's entry point with a
//! traced re-drive of the same unit through the public functions of each
//! layer, timing every call from outside. Per-layer metrics come from the
//! traced side; `trace.overhead` is traced over untraced wall time. Every
//! mirrored query is cross-checked against `Validator::validate`, and every
//! re-derived verdict class against the untraced answer.

use crate::batch::{self, budget_end, Batch};
use crate::config::{Cascade, WORKERS};
use crate::mirror::{self, Layers};
use crate::output::Output;
use crate::stats::{self, Share};
use crate::{inputs, serve};
use lir::func::{Function, Module};
use lir::parse::parse_module;
use lir_opt::paper_pipeline;
use llvm_md_core::triage::{triage_alarm, TriageClass, TriagedVerdict};
use llvm_md_core::wire;
use llvm_md_core::{fingerprint, FailReason, Normalizer, SatOutcome, SatStats, SaturationStats};
use llvm_md_driver::{changed, pool_stats, FunctionRecord};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One tier-1 query to re-drive: the pair, its interpretation environment,
/// and the untraced answer's record for it, when there is one.
struct Job<'a> {
    env: &'a Module,
    original: &'a Function,
    optimized: &'a Function,
    reference: Option<&'a FunctionRecord>,
}

/// Everything the traced side measured, summed over a run.
#[derive(Default)]
struct Trace {
    layers: Layers,
    query_ms: Vec<f64>,
    alarms: u64,
    triage_s: f64,
    triage_alarms: u64,
    real_miscompiles: u64,
    opt_s: [f64; 7],
    functions_changed: u64,
    egraph_s: f64,
    egraph_runs: u64,
    egraph_proved: u64,
    egraph_capped: u64,
    sat_s: f64,
    sat_runs: u64,
    sat_proved: u64,
    sat_skipped: u64,
    sat_capped: u64,
    sat_conflicts: u64,
    sat_clauses: u64,
    budget_hits: u64,
    stats_drift: u64,
    mirrored: u64,
    traced_s: f64,
    untraced_s: f64,
    untraced_cpu_s: f64,
    steals: u64,
    // Layers only serve-mixed and chain-suite exercise.
    lir_parse_s: f64,
    wire_parse_s: f64,
    fingerprint_s: f64,
    serve_other_s: f64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    store: Option<(Share, u64)>,
    validations_run: u64,
    cache: Share,
    cache_skips: u64,
    step_queries: u64,
}

/// What one re-driven query found.
struct PairTrace {
    layers: Layers,
    budget: bool,
    query_ms: f64,
    alarm: bool,
    triage: Option<(f64, bool)>,
    egraph: Option<(f64, bool, Option<SaturationStats>)>,
    sat: Option<SatStats>,
    failures: Vec<String>,
    drift: Option<String>,
}

/// Re-drive one pair through tier 1 (mirrored layer by layer), the e-graph
/// fallback and triage, and tier 2 when the cascade has it.
fn trace_pair(c: &Cascade, job: &Job) -> PairTrace {
    let (o, t) = (job.original, job.optimized);
    let destructive =
        llvm_md_core::Validator { normalizer: Normalizer::Destructive, ..c.validator };
    let t0 = Instant::now();
    let reference = destructive.validate(o, t);
    let query_s = t0.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    let ending = mirror::destructive(&destructive, o, t, &mut layers);
    let mut failures: Vec<String> =
        mirror::cross_check(&o.name, &ending, &reference).err().into_iter().collect();
    let mut trace = PairTrace {
        layers,
        budget: false,
        query_ms: query_s * 1e3,
        alarm: !reference.validated,
        triage: None,
        egraph: None,
        sat: None,
        failures: Vec::new(),
        drift: None,
    };
    let mut verdict = reference;
    if c.validator.normalizer == Normalizer::SaturateFallback
        && verdict.reason == Some(FailReason::RootsDiffer)
    {
        let t0 = Instant::now();
        let fallback = c.validator.validate(o, t);
        let saturate_s = (t0.elapsed().as_secs_f64() - query_s).max(0.0);
        trace.egraph = Some((saturate_s, fallback.validated, fallback.stats.saturation));
        verdict = fallback;
    }
    let triage = (!verdict.validated).then(|| {
        let t0 = Instant::now();
        let tri = triage_alarm(job.env, o, t, &verdict, &c.triage);
        let real = tri.class == TriageClass::RealMiscompile;
        trace.triage = Some((t0.elapsed().as_secs_f64(), real));
        if real {
            failures.push(format!("@{}: real miscompile on optimizer output", o.name));
        }
        match &c.tier2 {
            Some(sopts) => {
                let tiered = c.validator.triage_tiered(job.env, o, t, &verdict, &c.triage, sopts);
                trace.sat = tiered.sat;
                tiered
            }
            None => tri,
        }
    });
    trace.budget = verdict.reason == Some(FailReason::Budget)
        || trace.egraph.is_some_and(|e| e.2.is_some_and(|s| !s.saturated))
        || trace.sat.is_some_and(|s| s.outcome == Some(SatOutcome::Capped));
    let class = TriagedVerdict { verdict: verdict.clone(), triage }.class();
    if let Some(r) = job.reference {
        // A budget-ended query may change class between runs: that is the
        // known budget defect, counted as drift rather than failed.
        let budgeted = trace.budget || budget_end(r).is_some();
        if r.class() != class && !budgeted {
            failures.push(format!(
                "@{}: traced class {class:?}, untraced class {:?}",
                o.name,
                r.class()
            ));
        }
        let saturation = trace.egraph.and_then(|e| e.2);
        let sat = r.triage.as_ref().and_then(|t| t.sat);
        if r.class() != class || r.saturation != saturation || sat != trace.sat {
            let conflicts = |s: Option<SatStats>| s.map(|s| (s.outcome, s.solver.conflicts));
            trace.drift = Some(format!(
                "@{}: class {:?} then {class:?}; saturation {:?} then {:?}; \
                 tier 2 (outcome, conflicts) {:?} then {:?}",
                o.name,
                r.class(),
                r.saturation,
                saturation,
                conflicts(sat),
                conflicts(trace.sat)
            ));
        }
    }
    trace.failures = failures;
    trace
}

/// Re-drive `jobs` on `WORKERS` threads and fold the results into `acc`;
/// `count_budget` counts the re-driven budget endings (for workloads whose
/// untraced answers do not report them).
fn trace_jobs(c: &Cascade, jobs: &[Job], count_budget: bool, acc: &mut Trace, out: &mut Output) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<PairTrace>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let r = trace_pair(c, job);
                results.lock().expect("a tracing thread panicked").push(r);
            });
        }
    });
    for r in results.into_inner().expect("a tracing thread panicked") {
        acc.mirrored += 1;
        acc.budget_hits += u64::from(count_budget && r.budget);
        acc.layers += r.layers;
        acc.query_ms.push(r.query_ms);
        acc.alarms += u64::from(r.alarm);
        if let Some((s, real)) = r.triage {
            acc.triage_s += s;
            acc.triage_alarms += 1;
            acc.real_miscompiles += u64::from(real);
        }
        if let Some((s, proved, stats)) = r.egraph {
            acc.egraph_s += s;
            acc.egraph_runs += u64::from(stats.is_some());
            acc.egraph_proved += u64::from(proved);
            acc.egraph_capped += u64::from(stats.is_some_and(|s| !s.saturated));
        }
        if let Some(sat) = r.sat {
            acc.sat_s += sat.duration.as_secs_f64();
            match sat.outcome {
                Some(SatOutcome::Skipped(_)) | None => acc.sat_skipped += 1,
                Some(outcome) => {
                    acc.sat_runs += 1;
                    acc.sat_proved += u64::from(outcome == SatOutcome::Proved);
                    acc.sat_capped += u64::from(outcome == SatOutcome::Capped);
                }
            }
            acc.sat_conflicts += sat.solver.conflicts;
            acc.sat_clauses += sat.clauses as u64;
        }
        if let Some(d) = r.drift {
            acc.stats_drift += 1;
            out.notes.push(format!("budget.stats_drift: {d}"));
        }
        out.check(1, r.failures.len().min(1));
        for f in r.failures {
            out.notes.push(format!("FAILED: {f}"));
        }
    }
}

/// Optimize `m` one pass at a time, timing each pass; returns every
/// version (`m` first).
fn stepped(m: &Module, acc: &mut Trace) -> Vec<Module> {
    let pm = paper_pipeline();
    let mut versions = vec![m.clone()];
    for k in 0..pm.len() {
        let mut next = versions[k].clone();
        let t0 = Instant::now();
        pm.run_step(k, &mut next);
        acc.opt_s[k] += t0.elapsed().as_secs_f64();
        versions.push(next);
    }
    acc.functions_changed += m
        .functions
        .iter()
        .zip(&versions[pm.len()].functions)
        .filter(|(a, b)| changed(a, b))
        .count() as u64;
    versions
}

/// Name-paired changed functions of `input` vs `output`, each with the
/// matching record of `reference` when given.
fn pairs<'a>(
    input: &'a Module,
    output: &'a Module,
    reference: Option<&'a HashMap<&'a str, &'a FunctionRecord>>,
) -> Vec<Job<'a>> {
    let by_name: HashMap<&str, &Function> =
        output.functions.iter().map(|f| (f.name.as_str(), f)).collect();
    input
        .functions
        .iter()
        .filter_map(|o| {
            let t = by_name.get(o.name.as_str())?;
            changed(o, t).then(|| Job {
                env: input,
                original: o,
                optimized: t,
                reference: reference.and_then(|r| r.get(o.name.as_str()).copied()),
            })
        })
        .collect()
}

/// The traced run of a batch workload.
pub fn run_batch(b: Batch, seed: u64, seconds: f64, out: &mut Output) {
    let suites = batch::generate(seed);
    let pm = paper_pipeline();
    let c = b.cascade();
    let mut acc = Trace::default();
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < seconds {
        let suite = &suites[k % suites.len()];
        let steals0 = pool_stats().steals;
        let call = batch::timed_call(b, suite, &pm);
        acc.steals += pool_stats().steals - steals0;
        acc.untraced_s += call.wall.as_secs_f64();
        acc.untraced_cpu_s += call.cpu.as_secs_f64();
        acc.budget_hits += call.answer.budget.len() as u64;
        for bend in &call.answer.budget {
            out.notes.push(format!(
                "budget end: suite {k}, @{} {} at {}",
                bend.function, bend.tier, bend.progress
            ));
        }
        let t0 = Instant::now();
        let records: Vec<HashMap<&str, &FunctionRecord>> = call
            .answer
            .reports
            .iter()
            .map(|r| r.records.iter().map(|rec| (rec.name.as_str(), rec)).collect())
            .collect();
        let versions: Vec<Vec<Module>> = suite.iter().map(|m| stepped(m, &mut acc)).collect();
        let n = pm.len();
        let mut jobs: Vec<Job> = Vec::new();
        for (mi, v) in versions.iter().enumerate() {
            if b == Batch::ChainSuite {
                for step in 0..n {
                    jobs.extend(pairs(&v[step], &v[step + 1], None));
                }
            }
            jobs.extend(pairs(&v[0], &v[n], Some(&records[mi])));
        }
        trace_jobs(&c, &jobs, false, &mut acc, out);
        acc.traced_s += t0.elapsed().as_secs_f64();
        let cache = call.answer.cache;
        acc.cache.part += cache.hits;
        acc.cache.base += cache.hits + cache.misses;
        acc.cache_skips += cache.skips;
        acc.step_queries += call.answer.step_queries as u64;
        k += 1;
    }
    out.notes.push(format!("{k} suites traced, {} queries mirrored", acc.mirrored));
    emit(&acc, out);
}

/// The traced run of `serve-mixed`: each request is served untraced, then
/// re-driven phase by phase — wire parse, `.ll` parse, fingerprints, and
/// for every pair new to the store the validation (timed on its own, as
/// the server's pool runs it) and its layer mirror.
pub fn run_serve(seed: u64, seconds: f64, out: &mut Output) {
    let frames = inputs::serve_frames(seed, serve::PAIRS, &paper_pipeline());
    let stream = inputs::serve_stream(seed, serve::PAIRS);
    let c = crate::config::tier1();
    let mut acc = Trace::default();
    let start = Instant::now();
    let mut requests = 0;
    let mut store = (Share::default(), 0);
    let mut checker = serve::Checker::default();
    'run: for episode in 0.. {
        let dir = serve::StoreDir::fresh(episode);
        let server = serve::server(&dir);
        checker.new_episode();
        let mut stored: HashSet<(u64, u64)> = HashSet::new();
        for &(pair, new) in &stream {
            let frame = &frames[pair];
            let steals0 = pool_stats().steals;
            let cpu0 = crate::sys::cpu_time();
            let t0 = Instant::now();
            let response = serve::request(&server, frame);
            let wall = t0.elapsed().as_secs_f64();
            acc.untraced_cpu_s += (crate::sys::cpu_time() - cpu0).as_secs_f64();
            acc.steals += pool_stats().steals - steals0;
            acc.untraced_s += wall;
            if new {
                acc.miss_ms.push(wall * 1e3)
            } else {
                acc.hit_ms.push(wall * 1e3)
            }
            checker.check(pair, new, episode, &response, out);
            let t0 = Instant::now();
            let phases = trace_request(frame, &c, &mut stored, &mut acc, out);
            acc.traced_s += t0.elapsed().as_secs_f64();
            acc.serve_other_s += (wall - phases).max(0.0);
            requests += 1;
            if start.elapsed().as_secs_f64() >= seconds {
                let s = server.store().stats();
                store =
                    (Share { part: s.hits, base: s.hits + s.misses }, server.store().len() as u64);
                acc.validations_run += server.counters().validations_run;
                break 'run;
            }
        }
        acc.validations_run += server.counters().validations_run;
    }
    acc.store = Some(store);
    out.notes.push(format!("{requests} requests traced, {} queries mirrored", acc.mirrored));
    out.expect(acc.mirrored == acc.validations_run, || {
        format!("mirrored {} queries, the server ran {}", acc.mirrored, acc.validations_run)
    });
    emit(&acc, out);
}

/// Re-drive one request's phases; returns the seconds its timed phases
/// took as the server would run them (parse, fingerprint, validation).
fn trace_request(
    frame: &[u8],
    c: &Cascade,
    stored: &mut HashSet<(u64, u64)>,
    acc: &mut Trace,
    out: &mut Output,
) -> f64 {
    let text = std::str::from_utf8(frame).expect("frames are UTF-8");
    let payload = &text[text.find('\n').expect("framed") + 1..];
    let t0 = Instant::now();
    let doc = wire::parse(payload).expect("the benchmark's own frames parse");
    let wire_s = t0.elapsed().as_secs_f64();
    let field = |k: &str| doc.get(k).and_then(|v| v.as_str()).expect("validate fields").to_owned();
    let t0 = Instant::now();
    let original = parse_module(&field("original")).expect("original parses");
    let optimized = parse_module(&field("optimized")).expect("optimized parses");
    let lir_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let fo: Vec<u64> = original.functions.iter().map(fingerprint).collect();
    let ft: Vec<u64> = optimized.functions.iter().map(fingerprint).collect();
    let fp_s = t0.elapsed().as_secs_f64();
    acc.wire_parse_s += wire_s;
    acc.lir_parse_s += lir_s;
    acc.fingerprint_s += fp_s;
    // The pairs the server had to validate: new to the store, and changed.
    let mut jobs = Vec::new();
    for (i, o) in original.functions.iter().enumerate() {
        let Some(j) = optimized.functions.iter().position(|f| f.name == o.name) else { continue };
        if stored.insert((fo[i], ft[j])) && fo[i] != ft[j] {
            jobs.push(Job {
                env: &original,
                original: o,
                optimized: &optimized.functions[j],
                reference: None,
            });
        }
    }
    // Validation as the server's pool runs it (tier 1 + triage, 2 workers),
    // timed apart from the mirror.
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..WORKERS.min(jobs.len()) {
            let jobs = &jobs;
            s.spawn(move || {
                for job in jobs.iter().skip(w).step_by(WORKERS) {
                    let v = c.validator.validate(job.original, job.optimized);
                    if !v.validated {
                        triage_alarm(job.env, job.original, job.optimized, &v, &c.triage);
                    }
                }
            });
        }
    });
    let validate_s = t0.elapsed().as_secs_f64();
    trace_jobs(c, &jobs, true, acc, out);
    wire_s + lir_s + fp_s + validate_s
}

/// Print every per-layer metric, zero where the workload never reaches
/// the layer.
fn emit(acc: &Trace, out: &mut Output) {
    let l = &acc.layers;
    out.metric("gated.build_s", l.gated_s, "s");
    out.metric("gated.nodes", l.gated_nodes as f64, "count");
    out.metric("graph.import_s", l.import_s, "s");
    out.metric("graph.rebuild_s", l.rebuild_s, "s");
    out.metric("graph.nodes_initial", l.nodes_initial as f64, "count");
    out.metric("graph.nodes_final", l.nodes_final as f64, "count");
    out.metric("rules.apply_s", l.rules_s, "s");
    out.metric("rules.rewrites", l.rewrites as f64, "count");
    out.metric("rules.rounds", l.rounds as f64, "count");
    out.metric("cycles.match_s", l.cycles_s, "s");
    out.metric("cycles.merges", l.merges as f64, "count");
    let (p50, tail) = if acc.query_ms.is_empty() {
        (0.0, 0.0)
    } else {
        let (tail, which) = stats::tail_or_max(&acc.query_ms, 990);
        out.notes.push(format!("validate.query_tail_ms is {which}"));
        (stats::p50(&acc.query_ms), tail)
    };
    out.metric("validate.query_p50_ms", p50, "ms");
    out.metric("validate.query_tail_ms", tail, "ms");
    out.metric("validate.alarms", acc.alarms as f64, "count");
    out.metric("triage.s", acc.triage_s, "s");
    out.metric("triage.alarms", acc.triage_alarms as f64, "count");
    out.metric("triage.real_miscompiles", acc.real_miscompiles as f64, "count");
    const OPT: [&str; 7] = [
        "opt.adce_s",
        "opt.gvn_s",
        "opt.sccp_s",
        "opt.licm_s",
        "opt.ld_s",
        "opt.lu_s",
        "opt.dse_s",
    ];
    for (name, s) in OPT.iter().zip(acc.opt_s) {
        out.metric(name, s, "s");
    }
    out.metric("opt.functions_changed", acc.functions_changed as f64, "count");
    out.metric("egraph.saturate_s", acc.egraph_s, "s");
    out.metric("egraph.runs", acc.egraph_runs as f64, "count");
    out.metric("egraph.proved", acc.egraph_proved as f64, "count");
    out.metric("egraph.capped", acc.egraph_capped as f64, "count");
    out.metric("sat.query_s", acc.sat_s, "s");
    out.metric("sat.runs", acc.sat_runs as f64, "count");
    out.metric("sat.proved", acc.sat_proved as f64, "count");
    out.metric("sat.skipped", acc.sat_skipped as f64, "count");
    out.metric("sat.capped", acc.sat_capped as f64, "count");
    out.metric("sat.conflicts", acc.sat_conflicts as f64, "count");
    out.metric("sat.clauses", acc.sat_clauses as f64, "count");
    out.metric("lir.parse_s", acc.lir_parse_s, "s");
    out.metric("wire.parse_s", acc.wire_parse_s, "s");
    out.metric("cache.fingerprint_s", acc.fingerprint_s, "s");
    let (store, entries) = acc.store.unwrap_or_default();
    out.share("store.hit_rate", store);
    out.metric("store.entries", entries as f64, "count");
    out.metric("serve.validations_run", acc.validations_run as f64, "count");
    out.metric("serve.other_s", acc.serve_other_s, "s");
    let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::p50(v) };
    out.metric("serve.hit_p50_ms", p50(&acc.hit_ms), "ms");
    out.metric("serve.miss_p50_ms", p50(&acc.miss_ms), "ms");
    out.share("cache.hit_rate", acc.cache);
    out.metric("cache.skips", acc.cache_skips as f64, "count");
    out.metric("chain.step_queries", acc.step_queries as f64, "count");
    let busy = Share {
        part: (acc.untraced_cpu_s * 1e6) as u64,
        base: (acc.untraced_s * WORKERS as f64 * 1e6) as u64,
    };
    out.notes.push(format!("pool.busy_share is process cpu µs over {WORKERS} × untraced wall µs"));
    out.share("pool.busy_share", busy);
    out.metric("pool.steals", acc.steals as f64, "count");
    out.metric("budget.hits", acc.budget_hits as f64, "count");
    out.metric("budget.stats_drift", acc.stats_drift as f64, "count");
    out.metric("trace.overhead", acc.traced_s / acc.untraced_s.max(f64::MIN_POSITIVE), "x");
}
