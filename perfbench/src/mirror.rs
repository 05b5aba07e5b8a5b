//! The traced mirror of one tier-1 query: the destructive normalization
//! loop of `Validator::validate`, re-driven from outside through the public
//! functions of each layer (`gated_ssa::build_with`, `SharedGraph::import`
//! and `rebuild`, `rules::apply_rules`, `cycles::match_cycles`), timing
//! every call and counting what it did. The program itself carries no
//! tracing; what the mirror reports is only trusted because every query is
//! cross-checked against the validator's own verdict and statistics.

use gated_ssa::NodeId;
use lir::func::Function;
use llvm_md_core::cycles::match_cycles;
use llvm_md_core::rules::apply_rules;
use llvm_md_core::{
    Deadline, FailReason, RewriteCounts, RuleBudgets, SharedGraph, Validator, Verdict,
};
use std::time::Instant;

/// Per-layer time (seconds, summed over threads) and work counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layers {
    /// `gated_ssa::build_with`, both sides.
    pub gated_s: f64,
    /// Gated nodes built.
    pub gated_nodes: u64,
    /// `SharedGraph::import`, both sides.
    pub import_s: f64,
    /// `SharedGraph::rebuild`.
    pub rebuild_s: f64,
    /// Shared-graph nodes after import.
    pub nodes_initial: u64,
    /// Live shared-graph nodes when the loop ended.
    pub nodes_final: u64,
    /// `rules::apply_rules`.
    pub rules_s: f64,
    /// Rewrites performed.
    pub rewrites: u64,
    /// Normalization rounds.
    pub rounds: u64,
    /// `cycles::match_cycles`.
    pub cycles_s: f64,
    /// Cycle merges.
    pub merges: u64,
}

impl std::ops::AddAssign for Layers {
    fn add_assign(&mut self, o: Layers) {
        self.gated_s += o.gated_s;
        self.gated_nodes += o.gated_nodes;
        self.import_s += o.import_s;
        self.rebuild_s += o.rebuild_s;
        self.nodes_initial += o.nodes_initial;
        self.nodes_final += o.nodes_final;
        self.rules_s += o.rules_s;
        self.rewrites += o.rewrites;
        self.rounds += o.rounds;
        self.cycles_s += o.cycles_s;
        self.merges += o.merges;
    }
}

/// How the mirrored query ended, in the terms the validator reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ending {
    /// Proved equal.
    pub validated: bool,
    /// Why not.
    pub reason: Option<FailReason>,
    /// Normalization rounds.
    pub rounds: usize,
    /// `RewriteCounts::total`.
    pub rewrites: u64,
    /// Cycle merges.
    pub merges: usize,
}

impl Ending {
    /// The same projection of a validator verdict.
    pub fn of(v: &Verdict) -> Ending {
        Ending {
            validated: v.validated,
            reason: v.reason.clone(),
            rounds: v.stats.rounds,
            rewrites: v.stats.rewrites.total(),
            merges: v.stats.cycle_merges,
        }
    }

    fn fail(reason: FailReason) -> Ending {
        Ending { validated: false, reason: Some(reason), rounds: 0, rewrites: 0, merges: 0 }
    }
}

/// Compare the mirror with what `Validator::validate` reported for the same
/// pair. A query either side ended on its wall-clock budget is compared on
/// nothing but that fact, because where a deadline falls depends on timing.
pub fn cross_check(function: &str, mirror: &Ending, validator: &Verdict) -> Result<(), String> {
    let reference = Ending::of(validator);
    let budget = |e: &Ending| e.reason == Some(FailReason::Budget);
    if budget(mirror) || budget(&reference) || *mirror == reference {
        return Ok(());
    }
    Err(format!("mirror disagrees with Validator::validate on @{function}: mirror {mirror:?}, validator {reference:?}"))
}

/// Run the destructive tier-1 loop of `v` on one pair, timing each layer.
/// `v.normalizer` is ignored: this is the destructive engine, the first
/// stage of every normalizer the benchmark configures.
pub fn destructive(
    v: &Validator,
    original: &Function,
    optimized: &Function,
    acc: &mut Layers,
) -> Ending {
    let deadline = Deadline::starting_now(v.limits.max_time);
    let sig = |f: &Function| (f.ret, f.params.iter().map(|&(_, t)| t).collect::<Vec<_>>());
    if sig(original) != sig(optimized) {
        return Ending::fail(FailReason::Signature);
    }
    let t = Instant::now();
    let gates = (
        gated_ssa::build_with(original, v.interning),
        gated_ssa::build_with(optimized, v.interning),
    );
    acc.gated_s += t.elapsed().as_secs_f64();
    let (go, gt) = match gates {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return Ending::fail(FailReason::Gate(e)),
    };
    acc.gated_nodes += (go.graph.len() + gt.graph.len()) as u64;
    if deadline.expired() {
        return Ending::fail(FailReason::Budget);
    }
    let mut g = SharedGraph::with_interning(v.interning);
    let t = Instant::now();
    let (mo, mt) = (g.import(&go), g.import(&gt));
    acc.import_s += t.elapsed().as_secs_f64();
    let (ret_o, mem_o) = (go.ret.map(|r| mo[r.index()]), mo[go.mem.index()]);
    let (ret_t, mem_t) = (gt.ret.map(|r| mt[r.index()]), mt[gt.mem.index()]);
    acc.nodes_initial += g.len() as u64;
    let mut roots: Vec<NodeId> = vec![mem_o, mem_t];
    roots.extend(ret_o);
    roots.extend(ret_t);
    if ret_o.is_some() != ret_t.is_some() {
        acc.nodes_final += g.live_count(&roots) as u64;
        return Ending::fail(FailReason::RootsDiffer);
    }
    let equal = |g: &SharedGraph| {
        g.same(mem_o, mem_t) && ret_o.is_none_or(|r| g.same(r, ret_t.expect("both sides return")))
    };
    let mut budgets = RuleBudgets { unswitches: v.limits.unswitch_budget };
    let mut rewrites = RewriteCounts::default();
    let (mut rounds, mut merges) = (0usize, 0usize);
    let end = loop {
        let t = Instant::now();
        g.rebuild();
        acc.rebuild_s += t.elapsed().as_secs_f64();
        rounds += 1;
        if equal(&g) {
            break None;
        }
        if rounds >= v.limits.max_rounds || g.len() >= v.limits.max_nodes || deadline.expired() {
            break Some(FailReason::Budget);
        }
        let t = Instant::now();
        let n = apply_rules(&mut g, &roots, &v.rules, &mut rewrites, &mut budgets);
        acc.rules_s += t.elapsed().as_secs_f64();
        if n == 0 {
            let t = Instant::now();
            g.rebuild();
            acc.rebuild_s += t.elapsed().as_secs_f64();
            if equal(&g) {
                break None;
            }
            let t = Instant::now();
            let merged = match_cycles(&mut g, &roots, v.strategy);
            acc.cycles_s += t.elapsed().as_secs_f64();
            merges += merged;
            if merged == 0 {
                break Some(FailReason::RootsDiffer);
            }
        }
    };
    acc.nodes_final += g.live_count(&roots) as u64;
    acc.rewrites += rewrites.total();
    acc.rounds += rounds as u64;
    acc.merges += merges as u64;
    Ending { validated: end.is_none(), reason: end, rounds, rewrites: rewrites.total(), merges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config;
    use lir::parse::parse_module;

    fn pair(a: &str, b: &str) -> (Function, Function) {
        let f = |s: &str| parse_module(s).expect("parse").functions.remove(0);
        (f(a), f(b))
    }

    const LOOP: &str = "define i64 @f(i64 %n) {\nentry:\n  br label %h\nh:\n  %i = phi i64 [ 0, %entry ], [ %j, %b ]\n  %c = icmp slt i64 %i, %n\n  br i1 %c, label %b, label %x\nb:\n  %j = add i64 %i, 1\n  br label %h\nx:\n  ret i64 %i\n}\n";
    const FOLDED: &str = "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 3, 3\n  %y = mul i64 %a, %x\n  ret i64 %y\n}\n";

    #[test]
    fn mirror_reproduces_the_validator() {
        let v = config::tier1().validator;
        let cases = [
            pair(LOOP, LOOP),
            pair(
                FOLDED,
                "define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 6\n  ret i64 %y\n}\n",
            ),
            pair(
                FOLDED,
                "define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 7\n  ret i64 %y\n}\n",
            ),
        ];
        for (o, t) in &cases {
            let mut acc = Layers::default();
            let ending = destructive(&v, o, t, &mut acc);
            let verdict = v.validate(o, t);
            assert_eq!(cross_check("f", &ending, &verdict), Ok(()));
            assert_eq!(acc.rounds, ending.rounds as u64);
            assert!(acc.gated_nodes > 0 && acc.nodes_initial > 0);
        }
    }

    #[test]
    fn cross_check_fails_loudly_on_disagreement() {
        let v = config::tier1().validator;
        let (o, t) = pair(
            FOLDED,
            "define i64 @f(i64 %a) {\nentry:\n  %y = mul i64 %a, 6\n  ret i64 %y\n}\n",
        );
        let ending = destructive(&v, &o, &t, &mut Layers::default());
        let mut verdict = v.validate(&o, &t);
        verdict.stats.rounds += 1;
        let err = cross_check("f", &ending, &verdict).expect_err("rounds differ");
        assert!(err.contains("mirror disagrees") && err.contains("@f"), "{err}");
        let mut verdict = v.validate(&o, &t);
        verdict.validated = false;
        verdict.reason = Some(FailReason::RootsDiffer);
        assert!(cross_check("f", &ending, &verdict).is_err());
    }

    #[test]
    fn budget_endings_are_compared_only_as_budget_endings() {
        let v = config::tier1().validator;
        let (o, t) = pair(LOOP, LOOP);
        let ending = destructive(&v, &o, &t, &mut Layers::default());
        let mut verdict = v.validate(&o, &t);
        verdict.validated = false;
        verdict.reason = Some(FailReason::Budget);
        assert_eq!(cross_check("f", &ending, &verdict), Ok(()));
    }
}
