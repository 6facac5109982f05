//! Run-time parallelization tests — the alternative the paper argues
//! against (§1: "these methods introduce overhead that is not always
//! negligible and also increase the code size, since the unoptimized
//! version must also be available in case the tests fail").
//!
//! An *inspector* examines index-array values in the live store right
//! before a candidate loop and decides whether the parallel version may
//! run. This module implements the two inspectors corresponding to the
//! properties the compile-time analysis verifies statically, so the
//! trade-off can be measured (see the `runtime-vs-compile-time` bench
//! group): the inspector pays `O(section)` on *every* execution, the
//! compile-time query pays once.

use crate::interp::{ArrayData, Store};
use irr_frontend::VarId;
use std::collections::HashSet;

/// An index array's payload read in place: integer payloads exactly,
/// real payloads truncated as the interpreter's `Value::as_int` does.
/// Inspections never copy the array.
#[derive(Clone, Copy)]
enum Ints<'a> {
    Int(&'a [i64]),
    Real(&'a [f64]),
}

impl<'a> Ints<'a> {
    /// The payload of `arr`, if materialized.
    fn of(store: &'a Store, arr: VarId) -> Option<Ints<'a>> {
        Some(match store.array_ref(arr)? {
            ArrayData::Int { data, .. } => Ints::Int(data),
            ArrayData::Real { data, .. } => Ints::Real(data),
        })
    }

    fn len(self) -> usize {
        match self {
            Ints::Int(d) => d.len(),
            Ints::Real(d) => d.len(),
        }
    }

    /// Element `k` (0-based).
    fn at(self, k: usize) -> i64 {
        match self {
            Ints::Int(d) => d[k],
            Ints::Real(d) => d[k] as i64,
        }
    }

    /// Elements `a..b` (0-based, half-open).
    fn slice(self, a: usize, b: usize) -> Ints<'a> {
        match self {
            Ints::Int(d) => Ints::Int(&d[a..b]),
            Ints::Real(d) => Ints::Real(&d[a..b]),
        }
    }

    /// Contiguous chunks of at most `n` elements.
    fn chunks(self, n: usize) -> Vec<Ints<'a>> {
        (0..self.len())
            .step_by(n)
            .map(|a| self.slice(a, (a + n).min(self.len())))
            .collect()
    }

    /// Whether `f` holds for every element, stopping at the first miss.
    fn all(self, mut f: impl FnMut(i64) -> bool) -> bool {
        match self {
            Ints::Int(d) => d.iter().all(|&v| f(v)),
            Ints::Real(d) => d.iter().all(|&v| f(v as i64)),
        }
    }
}

/// Result of a run-time inspection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Inspection {
    /// The property holds for this execution: the parallel version may
    /// run (this time).
    ParallelOk,
    /// The property fails: fall back to the sequential version.
    Sequential,
}

/// Inspects whether `idx(lo..=hi)` holds pairwise-distinct values — the
/// run-time counterpart of the injectivity property (§3).
///
/// An empty section (`hi < lo`) is vacuously injective — `ParallelOk`
/// regardless of the array's state, checked *before* materialization and
/// bounds (a zero-trip loop reads nothing, so nothing can conflict).
/// Otherwise returns `Sequential` when the section is out of bounds or
/// the array has not been materialized.
pub fn inspect_injective(store: &Store, idx: VarId, lo: i64, hi: i64) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    let Some(values) = Ints::of(store, idx) else {
        return Inspection::Sequential;
    };
    if lo < 1 || hi as usize > values.len() {
        return Inspection::Sequential;
    }
    let mut seen = HashSet::with_capacity((hi - lo + 1).max(0) as usize);
    let section = values.slice((lo - 1) as usize, hi as usize);
    if section.all(|v| seen.insert(v)) {
        Inspection::ParallelOk
    } else {
        Inspection::Sequential
    }
}

/// Inspects whether `idx(lo..=hi)` values all lie within
/// `[val_lo, val_hi]` — the run-time counterpart of the closed-form
/// bound property.
///
/// An empty section (`hi < lo`) is vacuously bounded — `ParallelOk`
/// before any materialization or bounds check.
pub fn inspect_bounded(
    store: &Store,
    idx: VarId,
    lo: i64,
    hi: i64,
    val_lo: i64,
    val_hi: i64,
) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    let Some(values) = Ints::of(store, idx) else {
        return Inspection::Sequential;
    };
    if lo < 1 || hi as usize > values.len() {
        return Inspection::Sequential;
    }
    let section = values.slice((lo - 1) as usize, hi as usize);
    if section.all(|v| val_lo <= v && v <= val_hi) {
        Inspection::ParallelOk
    } else {
        Inspection::Sequential
    }
}

/// Parallel counterpart of [`inspect_injective`]: splits the section
/// into contiguous chunks, each worker marks the values it sees in a
/// private bitmap over the section's value range, and the merge ORs the
/// bitmaps — a set bit seen twice (within a chunk or across chunks) is
/// a duplicate. Chunk results merge at chunk granularity, so the scan
/// parallelizes with no shared state.
///
/// The bitmap needs the value range: a cheap chunked min/max pass runs
/// first, with the range widened in `i128` so pathological index values
/// near the `i64` extremes cannot overflow it. When the range is much
/// larger than the section (huge max, tiny nonzero count), the bitmaps
/// would be mostly empty pages — below that density threshold the
/// inspector switches to a sparse-set variant: each worker sorts its
/// chunk (catching intra-chunk duplicates), and a k-way merge scan
/// catches duplicates across chunks, so the fallback stays parallel
/// instead of degenerating to the sequential hash scan. Verdicts are
/// always identical to [`inspect_injective`].
pub fn inspect_injective_parallel(
    store: &Store,
    idx: VarId,
    lo: i64,
    hi: i64,
    threads: usize,
) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    let Some(values) = Ints::of(store, idx) else {
        return Inspection::Sequential;
    };
    if lo < 1 || hi as usize > values.len() {
        return Inspection::Sequential;
    }
    let section = values.slice((lo - 1) as usize, hi as usize);
    let threads = threads.clamp(1, section.len());
    if threads == 1 {
        return inspect_injective(store, idx, lo, hi);
    }
    // Chunked min/max pass.
    let chunk_len = section.len().div_ceil(threads);
    let (min, max) = std::thread::scope(|scope| {
        let handles: Vec<_> = section
            .chunks(chunk_len)
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    let mut mn = i64::MAX;
                    let mut mx = i64::MIN;
                    c.all(|v| {
                        mn = mn.min(v);
                        mx = mx.max(v);
                        true
                    });
                    (mn, mx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("inspector worker panicked"))
            .fold((i64::MAX, i64::MIN), |(amn, amx), (mn, mx)| {
                (amn.min(mn), amx.max(mx))
            })
    });
    // Widen before subtracting: with index values near the i64
    // extremes (max - min + 1) overflows i64.
    let range = (max as i128 - min as i128 + 1) as u128;
    if range > 4 * section.len() as u128 + 1024 {
        // Sparse values: the bitmap would be mostly empty pages (and
        // for extreme ranges could not even be allocated). Fall back
        // to the chunked sparse-set inspector instead of the
        // sequential hash scan.
        return inspect_injective_sparse_set(section, chunk_len);
    }
    let words = (range as usize).div_ceil(64);
    // Chunked marking pass: each worker owns a private bitmap.
    let bitmaps: Vec<Option<Vec<u64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = section
            .chunks(chunk_len)
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    let mut bits = vec![0u64; words];
                    let distinct = c.all(|v| {
                        let d = (v - min) as usize;
                        let (w, b) = (d / 64, d % 64);
                        let fresh = bits[w] & (1 << b) == 0;
                        bits[w] |= 1 << b;
                        fresh
                    });
                    // A duplicate inside this chunk is a `None`.
                    distinct.then_some(bits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("inspector worker panicked"))
            .collect()
    });
    let mut merged = vec![0u64; words];
    for bits in bitmaps {
        let Some(bits) = bits else {
            return Inspection::Sequential;
        };
        for (m, b) in merged.iter_mut().zip(&bits) {
            if *m & *b != 0 {
                return Inspection::Sequential; // cross-chunk duplicate
            }
            *m |= *b;
        }
    }
    Inspection::ParallelOk
}

/// Sparse-set injectivity inspector: the parallel fallback for sections
/// whose value range is too wide for per-chunk bitmaps (huge max, tiny
/// nonzero count). Each worker sorts its chunk's values — a duplicate
/// inside a chunk surfaces as adjacent equal elements — and a k-way
/// merge scan over the sorted chunks catches duplicates across chunks.
/// Memory is `O(section)` regardless of the value range.
fn inspect_injective_sparse_set(section: Ints<'_>, chunk_len: usize) -> Inspection {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let sorted: Vec<Option<Vec<i64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = section
            .chunks(chunk_len)
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    let mut v: Vec<i64> = Vec::with_capacity(c.len());
                    c.all(|x| {
                        v.push(x);
                        true
                    });
                    v.sort_unstable();
                    if v.windows(2).any(|w| w[0] == w[1]) {
                        return None; // duplicate inside this chunk
                    }
                    Some(v)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("inspector worker panicked"))
            .collect()
    });
    let mut chunks: Vec<Vec<i64>> = Vec::with_capacity(sorted.len());
    for c in sorted {
        let Some(c) = c else {
            return Inspection::Sequential;
        };
        chunks.push(c);
    }
    // K-way merge scan: pop values in ascending order; two equal values
    // in a row are a cross-chunk duplicate.
    let mut heap: BinaryHeap<Reverse<(i64, usize, usize)>> = chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(ci, c)| Reverse((c[0], ci, 0)))
        .collect();
    let mut prev: Option<i64> = None;
    while let Some(Reverse((v, ci, pos))) = heap.pop() {
        if prev == Some(v) {
            return Inspection::Sequential;
        }
        prev = Some(v);
        if let Some(&next) = chunks[ci].get(pos + 1) {
            heap.push(Reverse((next, ci, pos + 1)));
        }
    }
    Inspection::ParallelOk
}

/// Parallel counterpart of [`inspect_bounded`]: each worker scans a
/// contiguous chunk of the section for a value outside
/// `[val_lo, val_hi]`; the verdict is the conjunction of the chunk
/// verdicts. Always identical to [`inspect_bounded`].
pub fn inspect_bounded_parallel(
    store: &Store,
    idx: VarId,
    lo: i64,
    hi: i64,
    val_lo: i64,
    val_hi: i64,
    threads: usize,
) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    let Some(values) = Ints::of(store, idx) else {
        return Inspection::Sequential;
    };
    if lo < 1 || hi as usize > values.len() {
        return Inspection::Sequential;
    }
    let section = values.slice((lo - 1) as usize, hi as usize);
    let threads = threads.clamp(1, section.len());
    if threads == 1 {
        return inspect_bounded(store, idx, lo, hi, val_lo, val_hi);
    }
    let chunk_len = section.len().div_ceil(threads);
    let all_in = std::thread::scope(|scope| {
        let handles: Vec<_> = section
            .chunks(chunk_len)
            .into_iter()
            .map(|c| scope.spawn(move || c.all(|v| val_lo <= v && v <= val_hi)))
            .collect();
        handles
            .into_iter()
            .all(|h| h.join().expect("inspector worker panicked"))
    });
    if all_in {
        Inspection::ParallelOk
    } else {
        Inspection::Sequential
    }
}

/// Inspects whether `ptr` is a proper offset array for lengths `len`
/// over segments `lo..=hi`: `ptr(k+1) == ptr(k) + len(k)` with
/// `len(k) >= 0` — the run-time counterpart of the closed-form distance
/// property (the check the offset–length test performs statically).
///
/// An empty section (`hi < lo`) has no segments and is vacuously valid —
/// `ParallelOk` before any materialization or bounds check.
pub fn inspect_offset_length(
    store: &Store,
    ptr: VarId,
    len: VarId,
    lo: i64,
    hi: i64,
) -> Inspection {
    if hi < lo {
        return Inspection::ParallelOk;
    }
    let (Some(p), Some(l)) = (Ints::of(store, ptr), Ints::of(store, len)) else {
        return Inspection::Sequential;
    };
    if lo < 1 || (hi + 1) as usize > p.len() || hi as usize > l.len() {
        return Inspection::Sequential;
    }
    for k in lo..=hi {
        let lk = l.at((k - 1) as usize);
        if lk < 0 {
            return Inspection::Sequential;
        }
        let pk = p.at((k - 1) as usize);
        let pk1 = p.at(k as usize);
        // Widened like the injectivity inspector's range arithmetic:
        // extreme stored values must fail the equation, not overflow.
        if pk1 as i128 != pk as i128 + lk as i128 {
            return Inspection::Sequential;
        }
    }
    Inspection::ParallelOk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use irr_frontend::parse_program;

    fn store_of(src: &str) -> (irr_frontend::Program, Store) {
        let p = parse_program(src).unwrap();
        let out = Interp::new(&p).run().unwrap();
        (p, out.store)
    }

    #[test]
    fn injective_inspector() {
        let (p, store) = store_of(
            "program t
             integer idx(10), i
             do i = 1, 10
               idx(i) = 11 - i
             enddo
             idx(10) = 9
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        // idx = [10, 9, ..., 2, 9]: first nine distinct, full range not.
        assert_eq!(inspect_injective(&store, idx, 1, 9), Inspection::ParallelOk);
        assert_eq!(
            inspect_injective(&store, idx, 1, 10),
            Inspection::Sequential
        );
        // Out of bounds is sequential.
        assert_eq!(
            inspect_injective(&store, idx, 1, 11),
            Inspection::Sequential
        );
    }

    #[test]
    fn bounded_inspector() {
        let (p, store) = store_of(
            "program t
             integer idx(10), i
             do i = 1, 10
               idx(i) = i + 2
             enddo
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(
            inspect_bounded(&store, idx, 1, 10, 3, 12),
            Inspection::ParallelOk
        );
        assert_eq!(
            inspect_bounded(&store, idx, 1, 10, 1, 10),
            Inspection::Sequential
        );
    }

    #[test]
    fn parallel_inspectors_agree_with_sequential() {
        // Permutation with one duplicate injected at the far end: the
        // duplicate pair spans chunks, so only the merge can see it.
        let (p, store) = store_of(
            "program t
             integer idx(64), i
             do i = 1, 64
               idx(i) = 65 - i
             enddo
             idx(64) = 33
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(
                inspect_injective_parallel(&store, idx, 1, 63, threads),
                inspect_injective(&store, idx, 1, 63),
                "threads={threads}"
            );
            assert_eq!(
                inspect_injective_parallel(&store, idx, 1, 64, threads),
                Inspection::Sequential,
                "threads={threads}"
            );
            assert_eq!(
                inspect_bounded_parallel(&store, idx, 1, 64, 1, 64, threads),
                inspect_bounded(&store, idx, 1, 64, 1, 64),
                "threads={threads}"
            );
            assert_eq!(
                inspect_bounded_parallel(&store, idx, 1, 64, 1, 32, threads),
                Inspection::Sequential,
                "threads={threads}"
            );
        }
        // Empty section and out-of-bounds behave like the sequential
        // inspectors.
        assert_eq!(
            inspect_injective_parallel(&store, idx, 5, 4, 4),
            Inspection::ParallelOk
        );
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 65, 4),
            Inspection::Sequential
        );
    }

    #[test]
    fn parallel_injective_sparse_values_fall_back_to_sparse_set() {
        // Values spread over a range ~1000x the section length: the
        // bitmap path declines and the sparse-set fallback must still
        // give the sequential inspector's verdict (distinct here).
        let (p, store) = store_of(
            "program t
             integer idx(32), i
             do i = 1, 32
               idx(i) = i * 100000
             enddo
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 32, 4),
            Inspection::ParallelOk
        );
        // Duplicate far apart is still caught by the fallback.
        let (p2, store2) = store_of(
            "program t
             integer idx(32), i
             do i = 1, 32
               idx(i) = i * 100000
             enddo
             idx(32) = 100000
             end",
        );
        let idx2 = p2.symbols.lookup("idx").unwrap();
        assert_eq!(
            inspect_injective_parallel(&store2, idx2, 1, 32, 4),
            Inspection::Sequential
        );
    }

    #[test]
    fn sparse_set_fallback_matches_sequential_across_thread_counts() {
        // 4096 entries spread over a ~40M value range: far below the
        // bitmap density threshold, so every parallel call below takes
        // the sparse-set path.
        let (p, store) = store_of(
            "program t
             integer idx(4096), i
             do i = 1, 4096
               idx(i) = i * 9973
             enddo
             end",
        );
        let idx = p.symbols.lookup("idx").unwrap();
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(
                inspect_injective_parallel(&store, idx, 1, 4096, threads),
                Inspection::ParallelOk,
                "threads={threads}"
            );
        }
        // A duplicate pair spanning chunk boundaries is only visible to
        // the k-way merge.
        let (p2, store2) = store_of(
            "program t
             integer idx(4096), i
             do i = 1, 4096
               idx(i) = i * 9973
             enddo
             idx(4096) = 9973
             end",
        );
        let idx2 = p2.symbols.lookup("idx").unwrap();
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(
                inspect_injective_parallel(&store2, idx2, 1, 4096, threads),
                Inspection::Sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn integer_payloads_are_read_exactly_above_two_pow_53() {
        // 2^53 and 2^53 + 1 are distinct integers but the same `f64`:
        // an inspector that widened the payload to reals would call
        // the section non-injective and the offset chain broken.
        let p = parse_program(
            "program t
             integer idx(2), ptr(3), len(2)
             end",
        )
        .unwrap();
        let [idx, ptr, len] = ["idx", "ptr", "len"].map(|n| p.symbols.lookup(n).unwrap());
        let big = 1i64 << 53;
        let ints = |data: Vec<i64>| crate::interp::ArrayData::Int {
            dims: vec![data.len()],
            data,
        };
        let mut it = Interp::new(&p);
        it.preset_array(idx, ints(vec![big, big + 1]));
        it.preset_array(ptr, ints(vec![big, big + 1, big + 2]));
        it.preset_array(len, ints(vec![1, 1]));
        let store = it.run().unwrap().store;
        assert_eq!(inspect_injective(&store, idx, 1, 2), Inspection::ParallelOk);
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 2, 2),
            Inspection::ParallelOk
        );
        assert_eq!(
            inspect_bounded(&store, idx, 1, 2, big + 1, big + 1),
            Inspection::Sequential
        );
        assert_eq!(
            inspect_offset_length(&store, ptr, len, 1, 2),
            Inspection::ParallelOk
        );
    }

    #[test]
    fn extreme_index_range_does_not_overflow_the_range_computation() {
        // Values at the far ends of the representable range: computing
        // (max - min + 1) in i64 overflows; the widened computation
        // must route to the sparse-set path and return the sequential
        // inspector's verdict.
        let p = parse_program(
            "program t
             integer idx(4)
             end",
        )
        .unwrap();
        let idx = p.symbols.lookup("idx").unwrap();
        let mut it = Interp::new(&p);
        it.preset_array(
            idx,
            crate::interp::ArrayData::Int {
                data: vec![-(1i64 << 62), 1i64 << 62, 0, 1],
                dims: vec![4],
            },
        );
        let store = it.run().unwrap().store;
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 4, 4),
            inspect_injective(&store, idx, 1, 4)
        );
        assert_eq!(
            inspect_injective_parallel(&store, idx, 1, 4, 4),
            Inspection::ParallelOk
        );
        // And with a duplicated extreme value.
        let mut it2 = Interp::new(&p);
        it2.preset_array(
            idx,
            crate::interp::ArrayData::Int {
                data: vec![-(1i64 << 62), 1i64 << 62, -(1i64 << 62), 1],
                dims: vec![4],
            },
        );
        let store2 = it2.run().unwrap().store;
        assert_eq!(
            inspect_injective_parallel(&store2, idx, 1, 4, 4),
            Inspection::Sequential
        );
    }

    #[test]
    fn offset_length_inspector() {
        let (p, store) = store_of(
            "program t
             integer ptr(11), len(10), k
             do k = 1, 10
               len(k) = mod(k, 3) + 1
             enddo
             ptr(1) = 1
             do k = 1, 10
               ptr(k + 1) = ptr(k) + len(k)
             enddo
             end",
        );
        let ptr = p.symbols.lookup("ptr").unwrap();
        let len = p.symbols.lookup("len").unwrap();
        assert_eq!(
            inspect_offset_length(&store, ptr, len, 1, 10),
            Inspection::ParallelOk
        );
        // Break one link.
        let (p2, store2) = store_of(
            "program t
             integer ptr(11), len(10), k
             do k = 1, 10
               len(k) = 2
             enddo
             ptr(1) = 1
             do k = 1, 10
               ptr(k + 1) = ptr(k) + len(k)
             enddo
             ptr(5) = 0
             end",
        );
        let ptr2 = p2.symbols.lookup("ptr").unwrap();
        let len2 = p2.symbols.lookup("len").unwrap();
        assert_eq!(
            inspect_offset_length(&store2, ptr2, len2, 1, 10),
            Inspection::Sequential
        );
    }
}
