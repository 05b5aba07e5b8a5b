//! Workload generation must be seed-stable: a fixed profile + seed yields a
//! byte-identical module on every run, platform and toolchain. The figures,
//! the committed `BENCH_*.json` baselines and every seeded test depend on
//! this, so the in-repo PRNG (`workload::rng`) is guarded here against both
//! run-to-run nondeterminism (e.g. iteration-order leaks into sampling) and
//! silent drift of the generated corpus (pinned fingerprint).

use llvm_md::workload::{generate, profiles};

/// FNV-1a, so the fingerprint doesn't depend on std's hasher (which is
/// explicitly not stable across releases).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two independent `generate` calls produce byte-identical modules, for
/// every profile in the suite.
#[test]
fn generate_is_byte_identical_across_runs() {
    for p in profiles() {
        let mut small = p;
        small.functions = 6;
        let a = format!("{}", generate(&small));
        let b = format!("{}", generate(&small));
        assert_eq!(a, b, "profile {} is not generation-deterministic", p.name);
    }
}

/// The generated corpus is pinned: this fingerprint changes iff the
/// generator's output changes (new PRNG, reordered sampling, generator or
/// printer edits). That is sometimes intended — then update the constant
/// here and regenerate the committed `BENCH_*.json` baselines in the same
/// PR (`ci/bench_baseline.sh`) — but it must never happen by accident.
#[test]
fn generated_corpus_fingerprint_is_pinned() {
    let mut p = profiles()[0];
    p.functions = 4;
    let text = format!("{}", generate(&p));
    let got = fnv1a(text.as_bytes());
    let pinned: u64 = 0x0ad5_fa73_761d_4205;
    assert_eq!(
        got, pinned,
        "generated corpus drifted (fingerprint {got:#018x}, pinned {pinned:#018x}); \
         if intended, update the pin and regenerate BENCH_*.json"
    );
}

/// Structural fingerprints are pinned: persisted verdict stores and chain
/// caches key on them, so a drift in `Function` `Display` (`@global.N`
/// operands), in `Function::canonicalized` or in the parser/printer round
/// trip would silently make every stored verdict re-validate. The pin
/// covers one Table-1 suite and four campaign modules from each fuzz
/// profile, both as generated and after `paper_pipeline()`, and each
/// module once more after a print → parse round trip.
#[test]
fn structural_fingerprints_are_pinned() {
    use llvm_md::core::module_fingerprints;
    use llvm_md::lir::parse::parse_module;
    use llvm_md::opt::paper_pipeline;
    use llvm_md::workload::{campaign_module, fuzz_profiles, suite_batch, DEFAULT_CAMPAIGN_SEED};

    let mut modules = suite_batch(8);
    for p in fuzz_profiles() {
        modules.extend((0..4).map(|i| campaign_module(&p, DEFAULT_CAMPAIGN_SEED, i)));
    }
    let pm = paper_pipeline();
    let mut bytes = Vec::new();
    for m in modules {
        let mut opt = m.clone();
        pm.run_module(&mut opt);
        for version in [m, opt] {
            let reparsed = parse_module(&version.to_string()).expect("printed module parses");
            let fps = module_fingerprints(&version);
            assert_eq!(fps, module_fingerprints(&reparsed), "round trip moved a fingerprint");
            bytes.extend(fps.iter().flat_map(|fp| fp.to_le_bytes()));
        }
    }
    let got = fnv1a(&bytes);
    let pinned: u64 = 0x6fc7_440a_a6b0_eade;
    assert_eq!(
        got, pinned,
        "structural fingerprints drifted (combined {got:#018x}, pinned {pinned:#018x}); \
         every persisted verdict store would re-validate"
    );
}
