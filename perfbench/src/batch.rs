//! The batch workloads (`suite-tier1`, `suite-cascade`, `chain-suite`): one
//! client drives the workload's driver entry point in a closed loop, one
//! Table-1 suite per call, on a 2-worker engine.

use crate::config::{self, Cascade, WORKERS};
use crate::output::{Output, SetupTimes};
use crate::stats::Share;
use crate::{inputs, sys};
use lir::func::Module;
use lir_opt::{paper_pipeline, PassManager};
use llvm_md_core::{module_fingerprints, CacheStats, FailReason, SatOutcome, VerdictClass};
use llvm_md_driver::{ChainValidator, FunctionRecord, Report, ValidationEngine};
use llvm_md_workload::{injected_corpus, BrokenPass};
use std::time::{Duration, Instant};

/// Which batch workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Batch {
    /// `validate_corpus_triaged` with the tier-1 cascade.
    SuiteTier1,
    /// `validate_corpus_tiered` with the production cascade.
    SuiteCascade,
    /// `ChainValidator::with_triage(..).validate_chain` with the tier-1
    /// cascade.
    ChainSuite,
}

impl Batch {
    /// The workload's pinned cascade.
    pub fn cascade(self) -> Cascade {
        match self {
            Batch::SuiteCascade => config::production(),
            Batch::SuiteTier1 | Batch::ChainSuite => config::tier1(),
        }
    }

    /// The percentile (permille) `request_cpu_tail_ms` reports: the highest
    /// that keeps at least ten calls beyond it in a slow run. A fixed
    /// percentile keeps the metric comparable across runs whose call
    /// counts differ.
    pub fn tail_per_mille(self) -> usize {
        match self {
            Batch::SuiteTier1 => 900,
            Batch::SuiteCascade | Batch::ChainSuite => 750,
        }
    }

    /// Run one suite through the workload's single driver entry point: the
    /// one-shot workloads take the suite as one corpus, chain validation
    /// takes its modules one after another.
    pub fn call(self, suite: &[Module], pm: &PassManager) -> Answer {
        let engine = ValidationEngine::with_workers(WORKERS);
        let c = self.cascade();
        let v = &c.validator;
        let mut answer = Answer { consistent: true, ..Answer::default() };
        match self {
            Batch::SuiteTier1 => {
                for (_, report) in engine.validate_corpus_triaged(suite, pm, v, &c.triage) {
                    answer.add_report(report);
                }
            }
            Batch::SuiteCascade => {
                let sat = c.tier2.expect("the production cascade runs tier 2");
                for (_, report) in engine.validate_corpus_tiered(suite, pm, v, &c.triage, &sat) {
                    answer.add_report(report);
                }
            }
            Batch::ChainSuite => {
                let chain = ChainValidator::with_triage(engine, c.triage);
                for module in suite {
                    let report = chain.validate_chain(module, pm, v);
                    let end_to_end_certified = answer.certified;
                    answer.add_report(report.end_to_end.clone());
                    // Chain validation certifies a function when every step
                    // that changed it validated.
                    answer.certified = end_to_end_certified + report.composition().chain_certified;
                    answer.consistent &= report.composition_consistent();
                    answer.miscompiles +=
                        report.blames.iter().filter(|b| b.is_miscompile()).count();
                    for step in &report.steps {
                        let transformed = step.report.records.iter().filter(|r| r.transformed);
                        answer.step_queries += transformed.clone().count();
                        answer.budget.extend(transformed.filter_map(budget_end));
                    }
                    answer.cache.hits += report.cache.hits;
                    answer.cache.misses += report.cache.misses;
                    answer.cache.skips += report.cache.skips;
                }
            }
        }
        answer
    }
}

/// Which tier ended a query on a budget, and how far it had got.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetEnd {
    /// Function name.
    pub function: String,
    /// `tier1`, `egraph` or `tier2`.
    pub tier: &'static str,
    /// Rounds (tier 1), iterations (e-graph) or conflicts (tier 2).
    pub progress: u64,
}

/// The budget that ended `rec`'s query, if any.
pub fn budget_end(rec: &FunctionRecord) -> Option<BudgetEnd> {
    let end = |tier, progress| Some(BudgetEnd { function: rec.name.clone(), tier, progress });
    if rec.reason == Some(FailReason::Budget) {
        return end("tier1", rec.rounds as u64);
    }
    if let Some(s) = rec.saturation.filter(|s| !s.saturated) {
        return end("egraph", s.iterations as u64);
    }
    match rec.triage.as_ref().and_then(|t| t.sat) {
        Some(s) if s.outcome == Some(SatOutcome::Capped) => end("tier2", s.solver.conflicts),
        _ => None,
    }
}

/// What one call answered, reduced to what the benchmark checks and counts.
#[derive(Clone, Debug, Default)]
pub struct Answer {
    /// Verdict class of every transformed function, in record order, and
    /// whether its query ended on a budget.
    pub classes: Vec<(VerdictClass, bool)>,
    /// Transformed functions certified (validated or proved equivalent;
    /// for chain validation, chain-certified).
    pub certified: usize,
    /// Real-miscompile verdicts and blames.
    pub miscompiles: usize,
    /// Every chain composition cross-check held (always true for the
    /// one-shot workloads).
    pub consistent: bool,
    /// Step-level validation queries run (chain only).
    pub step_queries: usize,
    /// Budget-ended queries.
    pub budget: Vec<BudgetEnd>,
    /// Gated-graph cache counters (chain only).
    pub cache: CacheStats,
    /// The end-to-end reports, one per module.
    pub reports: Vec<Report>,
}

impl Answer {
    fn add_report(&mut self, report: Report) {
        for r in report.records.iter().filter(|r| r.transformed) {
            let class = r.class();
            self.certified += usize::from(matches!(
                class,
                VerdictClass::Validated | VerdictClass::ProvedEquivalent
            ));
            self.miscompiles += usize::from(class == VerdictClass::RealMiscompile);
            let budget = budget_end(r);
            self.classes.push((class, budget.is_some()));
            self.budget.extend(budget);
        }
        self.reports.push(report);
    }

    /// Transformed functions brought to a final verdict.
    pub fn functions(&self) -> usize {
        self.classes.len()
    }
}

/// The injected-bug check under `batch`'s configuration and entry point:
/// every one of the six planted bugs must be rejected, none proved
/// equivalent. Returns `(checked, failed)` with a line per failure.
pub fn injected_check(batch: Batch) -> (usize, usize, Vec<String>) {
    let bugs = injected_corpus();
    let mut failures = Vec::new();
    for bug in &bugs {
        let mut pm = PassManager::new();
        pm.add(Box::new(BrokenPass(bug.kind)));
        let answer = batch.call(std::slice::from_ref(&bug.module), &pm);
        let rec = answer.reports[0].records.iter().find(|r| r.name == bug.function);
        let caught = rec.is_some_and(|r| {
            r.transformed && !r.validated && r.class() != VerdictClass::ProvedEquivalent
        });
        if !caught {
            failures.push(format!(
                "injected bug `{}` in @{} not caught: {:?}",
                bug.name,
                bug.function,
                rec.map(|r| r.class())
            ));
        }
    }
    (bugs.len(), failures.len(), failures)
}

/// Suites generated per run (about 9,000 functions). The faster workloads
/// cycle through them more than once in a run; every repeat is checked to
/// reproduce the first answer's verdict classes.
const SUITES: usize = 64;

/// Times the set-up is repeated; `setup_s` is the median of their CPU
/// times.
const SETUP_REPEATS: usize = 5;

/// Suites re-run after the timed window to check that their verdict
/// classes repeat.
const RECHECK: usize = 2;

/// Generate the run's suites `SETUP_REPEATS` times, check every repeat
/// produced the same functions (by fingerprint), and return the last with
/// the median set-up time.
pub fn setup(seed: u64, out: &mut Output) -> Vec<Vec<Module>> {
    let mut times = SetupTimes::default();
    let mut digest: Option<Vec<u64>> = None;
    let mut suites = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut suites));
        suites = times.measure(|| generate(seed));
        let d: Vec<u64> = suites.iter().flatten().flat_map(module_fingerprints).collect();
        match &digest {
            None => digest = Some(d),
            Some(f) => out.expect(*f == d, || "set-up is not deterministic".to_owned()),
        }
    }
    times.report("", out);
    suites
}

/// The run's suites.
pub fn generate(seed: u64) -> Vec<Vec<Module>> {
    (0..SUITES).map(|k| inputs::suite(seed, k)).collect()
}

/// One timed call: its answer, wall time and process CPU time.
pub struct Call {
    /// What the entry point answered.
    pub answer: Answer,
    /// Wall-clock time of the call.
    pub wall: Duration,
    /// Process CPU time (both workers and the client) during the call.
    pub cpu: Duration,
}

/// Time one call.
pub fn timed_call(batch: Batch, suite: &[Module], pm: &PassManager) -> Call {
    let cpu0 = sys::cpu_time();
    let t0 = Instant::now();
    let answer = batch.call(suite, pm);
    Call { answer, wall: t0.elapsed(), cpu: sys::cpu_time() - cpu0 }
}

/// The untraced run: call the entry point on one suite after another
/// until `seconds` have passed; check every answer; report the end-to-end
/// metrics.
pub fn run(batch: Batch, seed: u64, seconds: f64, out: &mut Output) {
    let suites = setup(seed, out);
    let pm = paper_pipeline();
    let start = Instant::now();
    let mut calls: Vec<Call> = Vec::new();
    while calls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut call = timed_call(batch, &suites[calls.len() % SUITES], &pm);
        // Keep what the checks need, not every record of every call.
        call.answer.reports.clear();
        calls.push(call);
    }
    let wall = start.elapsed().as_secs_f64();
    let mut first: Vec<Option<Vec<(VerdictClass, bool)>>> = vec![None; SUITES];
    for (i, call) in calls.iter().enumerate() {
        check_answer(&call.answer, i % SUITES, &mut first[i % SUITES], out);
        for b in &call.answer.budget {
            out.notes.push(format!(
                "budget end: suite {}, @{} {} at {}",
                i % SUITES,
                b.function,
                b.tier,
                b.progress
            ));
        }
    }
    // Verdict classes must repeat: run the first suites again, untimed.
    for (k, suite) in suites.iter().enumerate().take(RECHECK.min(calls.len())) {
        check_answer(&batch.call(suite, &pm), k, &mut first[k], out);
    }
    let (checked, failed, failures) = injected_check(batch);
    out.check(checked, failed);
    out.notes.extend(failures);
    report(&calls, wall, batch.tail_per_mille(), out);
}

/// The end-to-end metrics over a run's calls.
fn report(calls: &[Call], wall: f64, tail_per_mille: usize, out: &mut Output) {
    let functions: usize = calls.iter().map(|c| c.answer.functions()).sum();
    let certified: usize = calls.iter().map(|c| c.answer.certified).sum();
    let busy: f64 = calls.iter().map(|c| c.wall.as_secs_f64()).sum();
    let cpu: f64 = calls.iter().map(|c| c.cpu.as_secs_f64()).sum();
    out.notes.push(format!(
        "{} calls, {functions} transformed functions in {busy:.3} s of calls ({wall:.3} s wall), {cpu:.3} s cpu; wall-clock {:.1} functions/s",
        calls.len(),
        functions as f64 / busy
    ));
    out.expect(functions > 0, || "no call transformed any function".to_owned());
    out.metric("cpu_ms_per_function", cpu * 1e3 / functions.max(1) as f64, "ms");
    out.share("certified_share", Share { part: certified as u64, base: functions as u64 });
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let cpu_ms: Vec<f64> = calls.iter().map(|c| ms(c.cpu)).collect();
    let wall_ms: Vec<f64> = calls.iter().map(|c| ms(c.wall)).collect();
    out.requests(&cpu_ms, &wall_ms, tail_per_mille);
    out.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
}

/// Check one answer: no real miscompile on optimizer output, the chain's
/// composition cross-check holds, and every function's verdict class equals
/// the one the same suite got the first time. A class that changed on a
/// query that ended on a wall-clock budget in either answer is the known
/// budget defect (see README.md): it is noted, not failed.
fn check_answer(
    answer: &Answer,
    suite: usize,
    first: &mut Option<Vec<(VerdictClass, bool)>>,
    out: &mut Output,
) {
    let n = answer.functions();
    out.check(n, answer.miscompiles);
    if answer.miscompiles > 0 {
        out.notes.push(format!("FAILED: real miscompile reported in suite {suite}"));
    }
    out.expect(answer.consistent, || format!("chain composition inconsistent in suite {suite}"));
    let Some(f) = first else {
        *first = Some(answer.classes.clone());
        return;
    };
    let differ = |budget: bool| {
        f.iter().zip(&answer.classes).filter(|(a, b)| a.0 != b.0 && (a.1 || b.1) == budget).count()
    };
    let changed = differ(false) + f.len().abs_diff(n);
    out.check(n, changed);
    if changed > 0 {
        out.notes.push(format!("FAILED: {changed} verdict classes changed in suite {suite}"));
    }
    let flips = differ(true);
    if flips > 0 {
        out.notes.push(format!("budget-bound verdict class changed: {flips} in suite {suite}"));
    }
}
