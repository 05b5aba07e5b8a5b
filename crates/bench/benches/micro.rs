//! Micro-benchmarks (`cargo bench -p llvm_md_bench`): the validator's
//! moving parts at several function sizes — gating (monadic gated SSA
//! construction), shared-graph import + hash-consing, and end-to-end
//! validation of identity and of a pipeline-optimized function — plus the
//! `serve` ingest path every request pays before any validation: parsing
//! the function's `.ll` text and computing its structural fingerprint.
//! `validate_loops` validates pipeline-optimized loop-bearing functions of
//! the loop-heavy `lbm` profile, where cycle matching and the rebuilds it
//! triggers do much of the work.
//!
//! The paper's efficiency claim (§4.1) is that validation work is
//! proportional to the number of transformations, not to program size:
//! `validate_identity` (zero transformations) should stay near the cost of
//! graph construction even as functions grow.
//!
//! Uses the in-repo timer (`llvm_md_bench::timing`) — warmup then
//! median-of-N — and writes `BENCH_micro.json` to the working directory
//! (or `$BENCH_OUT_DIR`) for the perf trajectory.

use lir::func::{Function, Module};
use lir::parse::parse_module;
use lir_opt::paper_pipeline;
use llvm_md_bench::timing::{BenchReport, Config};
use llvm_md_bench::write_artifact;
use llvm_md_core::{fingerprint, Validator};
use llvm_md_workload::{profile, profiles, Profile};

/// A generated module whose functions average roughly `size` instructions.
fn sized_module(size: usize) -> Module {
    sized_module_of(profiles()[0], size)
}

/// A module of profile `p` whose functions average roughly `size`
/// instructions.
fn sized_module_of(mut p: Profile, size: usize) -> Module {
    p.functions = 40;
    p.tail_prob = 0.0;
    p.avg_segment = (size / 12).max(2);
    p.seed = size as u64 * 7 + 1;
    llvm_md_workload::generate(&p)
}

/// The function closest to `size` instructions in `m`.
fn pick(m: &Module, size: usize) -> &Function {
    pick_among(m.functions.iter(), size)
}

/// The function closest to `size` instructions among `fs`.
fn pick_among<'a>(fs: impl Iterator<Item = &'a Function>, size: usize) -> &'a Function {
    fs.min_by_key(|f| f.inst_count().abs_diff(size)).expect("a candidate function")
}

/// Whether `f` has a loop, i.e. its gated graph holds a μ-node.
fn has_loop(f: &Function) -> bool {
    gated_ssa::build(f).is_ok_and(|gf| gf.graph.iter().any(|(_, n)| n.is_mu()))
}

const SIZES: [usize; 3] = [16, 64, 256];

fn main() {
    let cfg = Config::default();
    let mut report = BenchReport::new();
    let validator = Validator::new();

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let name = format!("gating/{}", f.inst_count());
        report.run(&name, &cfg, || gated_ssa::build(f).expect("gates"));
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let gf = gated_ssa::build(f).expect("gates");
        let name = format!("shared_graph_import/{}", f.inst_count());
        report.run(&name, &cfg, || {
            let mut g = llvm_md_core::SharedGraph::new();
            let map = g.import(&gf);
            let map2 = g.import(&gf);
            (map, map2)
        });
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let name = format!("validate_identity/{}", f.inst_count());
        report.run(&name, &cfg, || validator.validate(f, f));
    }

    for size in SIZES {
        let m = sized_module(size);
        let mut opt = m.clone();
        paper_pipeline().run_module(&mut opt);
        let fi = pick(&m, size);
        let fo = opt.functions.iter().find(|f| f.name == fi.name).expect("same function");
        let name = format!("validate_pipeline/{}", fi.inst_count());
        report.run(&name, &cfg, || validator.validate(fi, fo));
    }

    let lbm = profile("lbm").expect("known profile");
    for size in SIZES {
        let m = sized_module_of(lbm, size);
        let mut opt = m.clone();
        paper_pipeline().run_module(&mut opt);
        let fi = pick_among(m.functions.iter().filter(|f| has_loop(f)), size);
        let fo = opt.functions.iter().find(|f| f.name == fi.name).expect("same function");
        let name = format!("validate_loops/{}", fi.inst_count());
        report.run(&name, &cfg, || validator.validate(fi, fo));
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        // The picked function in a module of its own, globals and
        // declarations kept so the text parses.
        let text = Module { functions: vec![f.clone()], ..m.clone() }.to_string();
        let name = format!("parse_module/{}", f.inst_count());
        report.run(&name, &cfg, || parse_module(&text).expect("parses"));
    }

    for size in SIZES {
        let m = sized_module(size);
        let f = pick(&m, size);
        let name = format!("fingerprint/{}", f.inst_count());
        report.run(&name, &cfg, || fingerprint(f));
    }

    let path = write_artifact("micro", &report.to_json()).expect("write BENCH_micro.json");
    println!("wrote {}", path.display());
}
