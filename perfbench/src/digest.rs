//! Byte-level digests of inputs and results: the parity check compares
//! every engine's final store and output to the tree-walk reference
//! through these, and the determinism check compares inputs across
//! repeated set-ups.

use irr_driver::CompilationReport;
use irr_exec::{ArrayData, ExecOutcome, Value};
use irr_frontend::{Program, VarId};
use std::collections::HashSet;

/// Every variable some loop verdict privatized.
pub fn privatized(rep: &CompilationReport) -> HashSet<VarId> {
    rep.verdicts
        .iter()
        .flat_map(|v| {
            v.privatized_scalars
                .iter()
                .copied()
                .chain(v.privatized_arrays.iter().map(|(a, _)| *a))
        })
        .collect()
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn array(h: &mut Fnv, data: &ArrayData) {
    for d in data.dims() {
        h.u64(*d as u64);
    }
    match data {
        ArrayData::Int { data, .. } => {
            h.u64(1);
            data.iter().for_each(|v| h.u64(*v as u64));
        }
        ArrayData::Real { data, .. } => {
            h.u64(2);
            data.iter().for_each(|v| h.u64(v.to_bits()));
        }
    }
}

/// Digests of a run's printed output (first entry) and of every
/// symbol's final value in the store: each scalar's type and bits,
/// each materialized array's extents and element bits. Two runs agree
/// byte for byte exactly when the vectors are equal, and the first
/// differing entry names what differs.
///
/// Variables the compiler privatized are skipped, as the repository's
/// parity contract does: they are dead after their loop, and parallel
/// workers legitimately leave them unwritten in the master store.
pub fn outcome(program: &Program, skip: &HashSet<VarId>, out: &ExecOutcome) -> Vec<u64> {
    let mut digests = Vec::with_capacity(program.symbols.len() + 1);
    let mut h = Fnv::new();
    for line in &out.output {
        h.bytes(line.as_bytes());
        h.bytes(b"\n");
    }
    digests.push(h.finish());
    for (var, _) in program.symbols.iter() {
        let mut h = Fnv::new();
        if skip.contains(&var) {
            digests.push(h.finish());
            continue;
        }
        match out.store.array_dims(var) {
            Some(dims) => {
                h.u64(3);
                dims.iter().for_each(|d| h.u64(*d as u64));
                let vals = out.store.array_as_reals(var).unwrap_or_default();
                vals.iter().for_each(|v| h.u64(v.to_bits()));
            }
            None => match out.store.scalar(var) {
                Value::Int(v) => {
                    h.u64(4);
                    h.u64(v as u64);
                }
                Value::Real(v) => {
                    h.u64(5);
                    h.u64(v.to_bits());
                }
            },
        }
        digests.push(h.finish());
    }
    digests
}

/// Names what differs between two [`outcome`] digests, or `None` when
/// they agree.
pub fn differences(program: &Program, got: &[u64], want: &[u64]) -> Option<String> {
    if got == want {
        return None;
    }
    let mut names: Vec<String> = Vec::new();
    if got.first() != want.first() {
        names.push("printed output".into());
    }
    for ((_, info), (g, w)) in program
        .symbols
        .iter()
        .zip(got.iter().skip(1).zip(want.iter().skip(1)))
    {
        if g != w {
            names.push(format!("`{}`", info.name));
        }
    }
    if got.len() != want.len() {
        names.push("the symbol table".into());
    }
    Some(names.join(", "))
}
