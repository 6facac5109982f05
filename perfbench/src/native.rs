//! Hand-written native Rust loops for five library kernels: the
//! hardware yardstick. Each computes what its mini-Fortran kernel
//! computes, in the same floating-point order, over the kernel's own
//! preset arrays, so its result is checked bit for bit against the
//! tree-walk reference before it is timed.

use crate::sparse::Case;
use crate::stats::{median, ms};
use irr_exec::ArrayData;
use std::hint::black_box;
use std::time::Instant;

fn ints<'a>(case: &'a Case, name: &str) -> &'a [i64] {
    match preset(case, name) {
        ArrayData::Int { data, .. } => data,
        ArrayData::Real { .. } => panic!("{}: `{name}` is not an integer array", case.tag),
    }
}

fn reals<'a>(case: &'a Case, name: &str) -> &'a [f64] {
    match preset(case, name) {
        ArrayData::Real { data, .. } => data,
        ArrayData::Int { .. } => panic!("{}: `{name}` is not a real array", case.tag),
    }
}

fn preset<'a>(case: &'a Case, name: &str) -> &'a ArrayData {
    case.prog
        .presets
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| d)
        .unwrap_or_else(|| panic!("{}: no preset `{name}`", case.tag))
}

/// The array the reference run left in `name`, as reals.
fn reference(case: &Case, name: &str) -> Vec<f64> {
    let var = case.program.symbols.lookup(name).expect("declared");
    case.ref_outcome
        .as_ref()
        .and_then(|o| o.store.array_as_reals(var))
        .unwrap_or_else(|| panic!("{}: reference store lacks `{name}`", case.tag))
}

fn idx(v: i64) -> usize {
    usize::try_from(v - 1).expect("1-based subscript")
}

fn spmv(ptr: &[i64], len: &[i64], col: &[i64], val: &[f64], x: &[f64], y: &mut [f64]) {
    for i in 0..y.len() {
        let base = ptr[i];
        let mut acc = 0.0;
        for j in 1..=len[i] {
            let k = idx(base + j - 1);
            acc += val[k] * x[idx(col[k])];
        }
        y[i] = acc;
    }
}

fn scale(a: &[f64], b: &mut [f64]) {
    for (b, a) in b.iter_mut().zip(a) {
        *b = *a * 1.5 + 0.25;
    }
}

fn colscale(ptr: &[i64], len: &[i64], c: &mut [f64]) {
    for i in 0..len.len() {
        for j in 1..=len[i] {
            let k = idx(ptr[i] + j - 1);
            c[k] = c[k] * 0.5 + 1.0;
        }
    }
}

fn permute(perm: &[i64], a: &[f64], p: &mut [f64]) {
    for (k, &t) in perm.iter().enumerate() {
        p[idx(t)] = a[k] * 2.0;
    }
}

/// Returns the number of heavy rows; `heavy` receives their 1-based
/// indices.
fn rowgather(len: &[i64], threshold: i64, heavy: &mut [i64]) -> usize {
    let mut q = 0;
    for (i, &l) in len.iter().enumerate() {
        if l > threshold {
            heavy[q] = i as i64 + 1;
            q += 1;
        }
    }
    q
}

/// Whether `kernel` has a native loop (its reference store is kept).
pub fn has_loop(kernel: &str) -> bool {
    crate::report::NATIVE_KERNELS.contains(&kernel)
}

/// Runs the native loop for `case` once to check it against the
/// reference, then `reps` timed times. Returns the median time in ms,
/// or `None` for kernels without a native loop. Errors name the first
/// mismatch.
pub fn time(case: &Case, reps: usize) -> Result<Option<f64>, String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mismatch = || format!("{}: native result differs from tree-walk", case.tag);
    let mut samples = Vec::with_capacity(reps);
    match case.prog.name {
        "spmv" => {
            let (ptr, len, col) = (
                ints(case, "rowptr"),
                ints(case, "rowlen"),
                ints(case, "colidx"),
            );
            let (val, x) = (reals(case, "aval"), reals(case, "x"));
            let mut y = vec![0.0; len.len()];
            spmv(ptr, len, col, val, x, &mut y);
            if bits(&y) != bits(&reference(case, "y")) {
                return Err(mismatch());
            }
            for _ in 0..reps {
                let t = Instant::now();
                spmv(ptr, len, col, val, x, black_box(&mut y));
                samples.push(ms(t.elapsed()));
            }
        }
        "scale" => {
            let a = reals(case, "aval");
            let mut b = vec![0.0; a.len()];
            scale(a, &mut b);
            if bits(&b) != bits(&reference(case, "bval")) {
                return Err(mismatch());
            }
            for _ in 0..reps {
                let t = Instant::now();
                scale(a, black_box(&mut b));
                samples.push(ms(t.elapsed()));
            }
        }
        "colscale" => {
            let (ptr, len) = (ints(case, "colptr"), ints(case, "collen"));
            let init = reals(case, "cval");
            let mut c = init.to_vec();
            colscale(ptr, len, &mut c);
            if bits(&c) != bits(&reference(case, "cval")) {
                return Err(mismatch());
            }
            for _ in 0..reps {
                c.copy_from_slice(init);
                let t = Instant::now();
                colscale(ptr, len, black_box(&mut c));
                samples.push(ms(t.elapsed()));
            }
        }
        "permute" => {
            let (perm, a) = (ints(case, "perm"), reals(case, "aval"));
            let mut p = vec![0.0; a.len()];
            permute(perm, a, &mut p);
            if bits(&p) != bits(&reference(case, "pval")) {
                return Err(mismatch());
            }
            for _ in 0..reps {
                let t = Instant::now();
                permute(perm, a, black_box(&mut p));
                samples.push(ms(t.elapsed()));
            }
        }
        "rowgather" => {
            let len = ints(case, "rowlen");
            let threshold = len.iter().sum::<i64>() / len.len().max(1) as i64;
            let mut heavy = vec![0i64; len.len()];
            rowgather(len, threshold, &mut heavy);
            let expect = reference(case, "heavy");
            let got: Vec<f64> = heavy.iter().map(|&v| v as f64).collect();
            if bits(&got) != bits(&expect) {
                return Err(mismatch());
            }
            for _ in 0..reps {
                let t = Instant::now();
                black_box(rowgather(len, threshold, black_box(&mut heavy)));
                samples.push(ms(t.elapsed()));
            }
        }
        _ => return Ok(None),
    }
    Ok(Some(median(&samples)))
}
