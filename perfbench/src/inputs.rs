//! Seeded input generation. The workload seed is the only source of
//! variation: the same seed always produces the same modules and the same
//! request stream.

use lir::func::Module;
use lir_opt::PassManager;
use llvm_md_core::wire::{self, Json};
use llvm_md_workload::{campaign_module, fuzz_profiles, generate, profiles, SplitMix64};

/// Per-suite salt XORed into every Table-1 profile seed: suite `k` of
/// workload seed `seed`.
fn suite_salt(seed: u64, k: usize) -> u64 {
    let mut rng = SplitMix64::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// Each Table-1 profile's function count is divided by this (minimum 5
/// functions, as in `workload::generate_suite`): a suite then holds about
/// 140 transformed functions, so every call of a batch workload carries the
/// same twelve-profile mix and a run makes dozens of calls.
const SUITE_SCALE: usize = 8;

/// One Table-1 suite at [`SUITE_SCALE`]: twelve modules, one per profile,
/// each profile's seed XORed with the suite's salt.
pub fn suite(seed: u64, k: usize) -> Vec<Module> {
    let salt = suite_salt(seed, k);
    profiles()
        .into_iter()
        .map(|mut p| {
            p.seed ^= salt;
            p.functions = (p.functions / SUITE_SCALE).max(5);
            generate(&p)
        })
        .collect()
}

/// A framed `validate` request for `(original, optimized)`, the way
/// `Server::serve` reads it: a length line, then the JSON document.
pub fn validate_frame(id: &str, original: &Module, optimized: &Module) -> Vec<u8> {
    let doc = wire::envelope(
        "validate",
        [
            ("id", Json::str(id)),
            ("original", Json::str(original.to_string())),
            ("optimized", Json::str(optimized.to_string())),
        ],
    )
    .to_string();
    format!("{}\n{doc}", doc.len()).into_bytes()
}

/// The framed requests of `count` serve pairs: fuzz-campaign modules drawn
/// round-robin from all six `workload::fuzz` profiles, with the workload
/// seed as campaign seed, each sent with the client's `pm` output.
pub fn serve_frames(seed: u64, count: usize, pm: &PassManager) -> Vec<Vec<u8>> {
    let profiles = fuzz_profiles();
    (0..count)
        .map(|i| {
            let original = campaign_module(&profiles[i % profiles.len()], seed, i / profiles.len());
            let mut optimized = original.clone();
            pm.run_module(&mut optimized);
            validate_frame(&format!("p{i}"), &original, &optimized)
        })
        .collect()
}

/// Share of requests in a serve episode that carry a pair the server has
/// not seen yet.
const NEW_SHARE: f64 = 0.25;

/// The seeded request stream of one serve episode over `pairs` pairs:
/// `(pair index, is new)`. Each step sends the next unseen pair with
/// probability [`NEW_SHARE`] and otherwise repeats a uniformly chosen
/// earlier pair; the episode ends when every pair has been sent once.
pub fn serve_stream(seed: u64, pairs: usize) -> Vec<(usize, bool)> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5e77_e000_0000_0001);
    let mut stream = Vec::with_capacity(pairs * 4);
    let mut seen = 0;
    while seen < pairs {
        if seen == 0 || rng.gen_bool(NEW_SHARE) {
            stream.push((seen, true));
            seen += 1;
        } else {
            stream.push((rng.gen_range(0..seen), false));
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stream_is_seeded_and_mixed() {
        let a = serve_stream(3, 400);
        assert_eq!(a, serve_stream(3, 400));
        assert_ne!(a, serve_stream(4, 400));
        let new = a.iter().filter(|(_, n)| *n).count();
        assert_eq!(new, 400, "every pair is sent new exactly once");
        let share = new as f64 / a.len() as f64;
        assert!((0.2..0.3).contains(&share), "new share {share}");
        // Repeats only name pairs already sent.
        let mut seen = 0;
        for &(i, is_new) in &a {
            if is_new {
                assert_eq!(i, seen);
                seen += 1;
            } else {
                assert!(i < seen);
            }
        }
    }
}
