//! Each workload's configuration, pinned here in full so that changing a
//! library default (or setting `LLVM_MD_WORKERS`, `LLVM_MD_NORMALIZER` or
//! `LLVM_MD_TIER2`, which this benchmark never reads) cannot silently change
//! what a workload measures. Every value is written out, not taken from a
//! `Default` impl.

use llvm_md_core::{
    Interning, Limits, MatchStrategy, Normalizer, RuleSet, SatOptions, SaturationLimits,
    TriageOptions, Validator,
};
use std::time::Duration;

/// Worker threads of every engine the benchmark builds (the serve client
/// is the calling thread itself).
pub const WORKERS: usize = 2;

/// The full configuration of one workload's validation cascade.
#[derive(Clone, Copy, Debug)]
pub struct Cascade {
    /// Tier 1: rules, normalizer and budgets.
    pub validator: Validator,
    /// Differential triage of every tier-1 alarm.
    pub triage: TriageOptions,
    /// Tier 2 (bit-precise SAT), when the workload runs it.
    pub tier2: Option<SatOptions>,
}

const LIMITS: Limits = Limits {
    max_rounds: 48,
    max_nodes: 1_000_000,
    max_time: Duration::from_secs(5),
    unswitch_budget: 0,
};

const SATURATION: SaturationLimits =
    SaturationLimits { max_iterations: 32, max_nodes: 200_000, max_classes: 120_000 };

const TRIAGE: TriageOptions = TriageOptions {
    seed: 0x7219_5eed_ba77_e121,
    battery: 24,
    shrink_budget: 128,
    fuel: 100_000,
    max_depth: 32,
};

const SAT: SatOptions = SatOptions {
    unroll: 8,
    max_expanded: 100_000,
    max_conflicts: 200_000,
    max_time: Duration::from_secs(5),
};

fn validator(normalizer: Normalizer) -> Validator {
    Validator {
        rules: RuleSet::full(),
        strategy: MatchStrategy::Combined,
        limits: LIMITS,
        interning: Interning::Fast,
        normalizer,
        saturation: SATURATION,
    }
}

/// `suite-tier1`, `serve-mixed` and `chain-suite`: the paper's tier 1
/// (full rules, destructive rewriting) plus triage.
pub fn tier1() -> Cascade {
    Cascade { validator: validator(Normalizer::Destructive), triage: TRIAGE, tier2: None }
}

/// `suite-cascade`: the production cascade — full rules, destructive
/// rewriting with an e-graph fallback, triage, then tier 2 — with shorter
/// per-query budgets than the library's defaults.
pub fn production() -> Cascade {
    Cascade {
        validator: Validator { limits: CASCADE_LIMITS, ..validator(Normalizer::SaturateFallback) },
        triage: TRIAGE,
        tier2: Some(CASCADE_SAT),
    }
}

// Per-query wall-clock budgets of `suite-cascade`. A budget-bound query
// costs its whole budget, and how many a suite holds depends on the seed,
// so long budgets make the run-to-run spread the spread of that count.
// With the library's 5 s budgets, one such query took a quarter of a 20 s
// run and throughput spread 0.36 (interquartile range over median) across
// five seeds. At 250 ms (tier 1 and saturation) and 100 ms (tier 2) they
// still took about a quarter of the CPU time, in calls three to five times
// the typical one, and per-call CPU time spread 0.21 (p50) and 0.25 (p75).
// At 50 ms and 25 ms the budgets still bind, on 117 queries of a 25 s run
// on seed 0 (98 saturation runs, 19 tier-2 queries), so the tail stays
// budget-bound and `budget.stats_drift` still shows.
const CASCADE_LIMITS: Limits = Limits { max_time: Duration::from_millis(50), ..LIMITS };
const CASCADE_SAT: SatOptions = SatOptions { max_time: Duration::from_millis(25), ..SAT };
