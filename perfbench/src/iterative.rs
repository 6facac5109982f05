//! `sparse-iterative`: time-step programs that re-enter the hybrid
//! dispatcher every step. Each program wraps an outer `do t` loop around
//! two runtime-guarded kernels (an injectivity-guarded permutation
//! scatter and an offset–length-guarded column update) and one
//! compile-time-parallel kernel, and every few steps swaps two entries
//! of the permutation. The swap keeps the permutation injective, so the
//! verdict stays valid, but it bumps the index array's write version:
//! the schedule cache hits on most entries and is invalidated on the
//! entries after a swap. Closed loop, one client.

use crate::report::Report;
use crate::sparse;
use crate::{host, Args};
use irr_exec::SplitMix64;
use irr_programs::sparse::{ExpectedTier, SparseProgram};
use irr_runtime::HybridConfig;
use irr_sparse::{
    generate, int_array, random_permutation, real_array, Layout, MatrixSpec, Structure,
};

/// Time steps per program.
const STEPS: usize = 16;

/// A permutation swap every this many steps. Of an operation's 32
/// guarded loop entries, 2 are first entries, 3 follow a swap and are
/// invalidated, and 27 hit the schedule cache: about 10% invalidations
/// and 84% hits. The single-kernel time-step loop this workload was
/// designed from (200 steps, a swap every 10th) gave 10% and 89%; the
/// difference is the first entries of these shorter programs.
const SWAP_EVERY: usize = 4;

/// The pool: `(nonzeros, structure)` of each program. Sizes are fixed;
/// the seed varies matrix contents, permutations and swap positions.
/// With an odd count of programs of ascending cost, the median operation
/// falls inside the middle program's times, not in the gap between two.
const POOL: [(usize, Structure); 5] = [
    (4096, Structure::Uniform),
    (4096, Structure::PowerLaw),
    (6144, Structure::Uniform),
    (8192, Structure::Uniform),
    (8192, Structure::PowerLaw),
];

fn reals(n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    (0..n).map(|_| 0.5 + rng.next_f64()).collect()
}

/// One time-step program over a generated CCS matrix.
fn program(k: usize, nnz: usize, structure: Structure, seed: u64) -> SparseProgram {
    let n = (nnz / 16).max(1);
    let m = generate(&MatrixSpec {
        rows: n,
        cols: n,
        nnz,
        structure,
        layout: Layout::Ccs,
        seed,
    });
    let (s, e) = (m.segments(), m.nnz().max(1));
    let mut rng = SplitMix64::new(seed ^ 0x17e7);
    // Odd multipliers: the swapped positions wander over the whole
    // permutation as `t` advances.
    let a = 2 * rng.range_i64(100, 10_000) + 1;
    let b = 2 * rng.range_i64(100, 10_000) + 1;
    let source = format!(
        "program iter{k}
  integer t, k, i, j, nt, nnz, ncol, sa, sb, tmp, perm({e}), colptr({sp}), collen({s})
  real aval({e}), pval({e}), cval({e})
  nt = {STEPS}
  nnz = {e}
  ncol = {s}
  do 10 t = 1, nt
    do 800 k = 1, nnz
      pval(perm(k)) = aval(k) * 2.0
 800 continue
    do 500 i = 1, ncol
      do j = 1, collen(i)
        cval(colptr(i) + j - 1) = cval(colptr(i) + j - 1) * 0.5 + pval(colptr(i) + j - 1)
      enddo
 500 continue
    do 700 k = 1, nnz
      aval(k) = cval(k) * 0.25 + 0.5
 700 continue
    if (mod(t, {SWAP_EVERY}) == 0) then
      sa = mod(t * {a}, nnz) + 1
      sb = mod(t * {b}, nnz) + 1
      tmp = perm(sa)
      perm(sa) = perm(sb)
      perm(sb) = tmp
    endif
 10 continue
  print pval(1), cval(1), aval({e})
end
",
        sp = s + 1,
    );
    SparseProgram {
        name: "iterative",
        label: format!("ITER{k}/do800"),
        source,
        presets: vec![
            ("perm", int_array(&random_permutation(e, seed ^ 0x5b))),
            ("colptr", int_array(&m.ptr)),
            ("collen", int_array(&m.len)),
            ("cval", real_array(&m.val)),
            ("aval", real_array(&reals(e, &mut rng))),
        ],
        expected_tier: ExpectedTier::RuntimeGuarded,
        expected_facts: "none",
    }
}

pub fn run(args: &Args, config: HybridConfig, report: &mut Report) {
    report.note(format!(
        "pool: {} time-step programs, {STEPS} steps, a permutation swap every {SWAP_EVERY}",
        POOL.len()
    ));
    let make = || {
        POOL.iter()
            .enumerate()
            .map(|(k, &(nnz, structure))| {
                let s = args
                    .seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(k as u64);
                let tag = format!("iter{k}/{nnz}/{}", structure.tag());
                sparse::reference(program(k, nnz, structure, s), tag, false)
            })
            .collect()
    };
    let cases = sparse::prepare(make, POOL.len(), config, report);
    if cases.is_empty() {
        return;
    }
    let reset = host::reset_peak_rss();
    let m = sparse::measure(&cases, config, args.seed, args.seconds, args.trace, report);
    host::record_peak_rss(reset, report);
    sparse::end_to_end(&m, report);
    let t = sparse::total(m.untraced.iter().chain(&m.traced));
    report.note(format!(
        "schedule cache: {} guarded entries, {} hits, {} invalidations, {} inspections",
        t.guarded_dispatches(),
        t.cache_hits,
        t.cache_invalidations,
        t.inspections_run
    ));
    if t.cache_hits == 0 || t.cache_invalidations == 0 {
        report.problem("the schedule cache was not both hit and invalidated".into());
    }
    if args.trace {
        sparse::per_layer(&m, report);
        report.unreached("kernel.");
        report.unreached("service.");
        report.unreached("bench.gen_lag");
    }
}
