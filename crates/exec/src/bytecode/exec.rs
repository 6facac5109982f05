//! The bytecode dispatch loop.
//!
//! Executes [`CompiledBody`] blocks against the interpreter's own
//! store, stats, and fuel — the compiled tier shares every piece of
//! observable state with the tree-walk, so the two tiers are
//! interchangeable mid-run. See the module docs for the parity
//! contract; every arm below cites the interpreter behavior it
//! replicates.

use super::{CompiledBody, Op, Opnd};
use crate::interp::{apply_bin, apply_intrinsic, ArrayData, ExecError, Interp, Value};
use irr_frontend::{BinOp, StmtId, VarId};

/// Raw view of one array pinned for the duration of a fast-path
/// compiled loop: materialized, uniquely owned (`Arc::make_mut` at pin
/// time, exactly the clone a first tree-walk write would take), its
/// payload addressed directly. Writes are counted locally and land on
/// the store's version counter at flush, so the version arithmetic is
/// identical to per-write bumps without paying them per element.
///
/// # Safety
///
/// The raw pointer stays valid for the whole loop because nothing in a
/// compiled body can move the payload: element writes never resize,
/// `Ensure`/pinning of *other* arrays touches other store slots, and
/// compiled bodies contain no calls, prints, or dispatcher re-entry.
/// Pins never outlive one `exec_do_compiled` call.
struct Pin {
    ints: *mut i64,
    reals: *mut f64,
    is_int: bool,
    len: usize,
    dims: Vec<usize>,
    writes: u64,
}

impl Pin {
    #[inline]
    fn read(&self, idx: usize) -> Value {
        assert!(idx < self.len, "pinned read out of range");
        unsafe {
            if self.is_int {
                Value::Int(*self.ints.add(idx))
            } else {
                Value::Real(*self.reals.add(idx))
            }
        }
    }

    #[inline]
    fn write(&mut self, idx: usize, val: Value) {
        assert!(idx < self.len, "pinned write out of range");
        self.writes += 1;
        unsafe {
            if self.is_int {
                *self.ints.add(idx) = val.as_int();
            } else {
                *self.reals.add(idx) = val.as_real();
            }
        }
    }

    /// Bounds-checks a 1-based first-dimension subscript; `None` maps
    /// to the interpreter's `OutOfBounds` at the call site.
    #[inline]
    fn check1(&self, v: i64) -> Option<usize> {
        if v < 1 || v as usize > self.dims[0] {
            None
        } else {
            Some(v as usize - 1)
        }
    }
}

/// Per-call state of the fast path: lazily pinned arrays plus local
/// fuel/cost accounting flushed back to the interpreter on every exit
/// (success or error), so observable state is indistinguishable from
/// the per-op slow path.
struct FastCtx {
    pins: Vec<Option<Pin>>,
    fuel: u64,
    spent: u64,
}

impl FastCtx {
    /// Mirrors `Interp::charge` against the local counters: cost is
    /// counted before the fuel check, and an exhausted run leaves the
    /// failing charge undeducted — byte-identical exhaustion state.
    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.spent += n;
        if self.fuel < n {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= n;
        Ok(())
    }
}

impl<'p> Interp<'p> {
    /// Reads an operand. Scalar slots read the live store — deferred
    /// reads are safe because expressions cannot write scalars.
    #[inline]
    fn rd(&self, temps: &[Value], o: Opnd) -> Value {
        match o {
            Opnd::T(t) => temps[t as usize],
            Opnd::S(v) => self.store.scalar(v),
            Opnd::I(v) => Value::Int(v),
            Opnd::R(v) => Value::Real(v),
        }
    }

    /// Reads one element of a materialized array.
    #[inline]
    fn bc_read(&self, a: VarId, idx: usize) -> Value {
        match self.store.array_ref(a).expect("ensured") {
            ArrayData::Int { data, .. } => Value::Int(data[idx]),
            ArrayData::Real { data, .. } => Value::Real(data[idx]),
        }
    }

    /// Bounds-checks a 1-based first-dimension subscript of a
    /// materialized array; returns the 0-based flat offset. Identical
    /// to the interpreter's `flat_index` for a single subscript
    /// (including the error's array-name identity).
    #[inline]
    fn bc_index1(&self, a: VarId, v: i64) -> Result<usize, ExecError> {
        let extent = self.store.array_ref(a).expect("ensured").dims()[0];
        if v < 1 || v as usize > extent {
            return Err(ExecError::OutOfBounds {
                array: self.program().symbols.name(a).to_string(),
                index: v,
                extent,
            });
        }
        Ok(v as usize - 1)
    }

    /// Executes the compiled outermost `do` loop, mirroring the
    /// interpreter's sequential `Do` arm: entry counted before the
    /// first iteration, per-iteration logged induction write, one
    /// bookkeeping charge per iteration, the Fortran final induction
    /// value, and the nest's cost attributed on success only.
    pub(crate) fn exec_do_compiled(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        lo: i64,
        hi: i64,
        step: i64,
    ) -> Result<(), ExecError> {
        // The pinned fast paths require that element writes are not
        // observed beyond the payload (no write log, no strategy
        // overlay) and that no per-opcode profile is being collected;
        // otherwise fall back to the per-op slow path, which shares
        // every code path with the tree-walk.
        let fast_ok = self.compiled_profile.is_none() && !self.store.writes_observed();
        let fb = if fast_ok {
            self.fast_body_for(s, cb)
        } else {
            None
        };
        if let Some(fb) = &fb {
            // Best tier first: the typed specialization (split
            // register planes, promoted scalars, pre-pinned arrays),
            // eligible once every referenced array is materialized.
            // Otherwise the untyped tier below runs the early
            // iterations (materializing lazily in interpreter order)
            // and hands over mid-loop once the precondition holds.
            if self.fast_ready(fb) {
                return self.run_fast_body(s, fb, lo, hi, step);
            }
        }
        // Reuse one register file across loop entries; registers are
        // write-before-read by construction, so no per-entry clearing
        // beyond sizing is needed.
        let mut temps = std::mem::take(&mut self.ctemps);
        temps.clear();
        temps.resize(cb.n_temps as usize, Value::Int(0));
        let res = if fast_ok {
            self.run_compiled_loop_fast(s, cb, fb.as_deref(), lo, hi, step, &mut temps)
        } else {
            self.run_compiled_loop(s, cb, lo, hi, step, &mut temps)
        };
        self.ctemps = temps;
        res
    }

    /// Pinned-array variant of [`Interp::run_compiled_loop`]: same
    /// observable semantics, with array payloads addressed raw and
    /// fuel/cost/version accounting batched per loop entry.
    ///
    /// When a typed specialization exists (`fb`) but was not eligible
    /// at entry — some referenced array not yet materialized — each
    /// iteration boundary re-checks the precondition and hands the
    /// remaining iterations to the typed tier as soon as it holds
    /// (typically after the first iteration materializes the outputs).
    #[allow(clippy::too_many_arguments)]
    fn run_compiled_loop_fast(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        fb: Option<&super::FastBody>,
        lo: i64,
        hi: i64,
        step: i64,
        temps: &mut [Value],
    ) -> Result<(), ExecError> {
        let mut ctx = FastCtx {
            pins: std::iter::repeat_with(|| None)
                .take(self.program().symbols.len())
                .collect(),
            fuel: self.fuel,
            spent: 0,
        };
        let entry = self.stats.loops.entry(s).or_default();
        entry.invocations += 1;
        let cost_at_entry = self.stats.total_cost;
        let (var, ty) = (cb.root_var, cb.root_ty);
        let mut i = lo;
        let res = loop {
            if !((step > 0 && i <= hi) || (step < 0 && i >= hi)) {
                break Ok(());
            }
            if let Some(fb) = fb {
                if self.fast_ready(fb) {
                    // Flush this tier's ledger at the iteration
                    // boundary, then continue typed; entry bookkeeping
                    // (invocation count, cost baseline) already done.
                    self.stats.total_cost += ctx.spent;
                    self.fuel = ctx.fuel;
                    for (k, pin) in ctx.pins.iter().enumerate() {
                        if let Some(p) = pin {
                            if p.writes > 0 {
                                self.store.bump_version_by(VarId::from_index(k), p.writes);
                            }
                        }
                    }
                    return self.run_fast_iters(s, fb, i, hi, step, cost_at_entry);
                }
            }
            self.store.set_scalar(var, ty, Value::Int(i));
            if let Err(e) = self.run_block_fast(cb, cb.root, temps, &mut ctx) {
                break Err(e);
            }
            if let Err(e) = ctx.charge(1) {
                break Err(e); // loop bookkeeping
            }
            i += step;
        };
        // Flush local accounting on every exit so errors surface with
        // exactly the state the slow path would have left behind.
        self.stats.total_cost += ctx.spent;
        self.fuel = ctx.fuel;
        for (k, pin) in ctx.pins.iter().enumerate() {
            if let Some(p) = pin {
                if p.writes > 0 {
                    self.store.bump_version_by(VarId::from_index(k), p.writes);
                }
            }
        }
        res?;
        // Fortran leaves the induction variable at the first
        // out-of-range value.
        self.store.set_scalar(var, ty, Value::Int(i));
        let total = self.stats.total_cost - cost_at_entry;
        self.stats.loops.entry(s).or_default().total_cost += total;
        Ok(())
    }

    /// Lazily pins `a`: first touch materializes (exactly where the
    /// slow path's `Ensure` would) and takes unique ownership of the
    /// payload.
    #[inline]
    fn pinned<'c>(&mut self, ctx: &'c mut FastCtx, a: VarId) -> Result<&'c mut Pin, ExecError> {
        if ctx.pins[a.index()].is_none() {
            self.ensure_materialized(a)?;
            let data = self.store.array_make_mut(a);
            let dims = data.dims().to_vec();
            let (ints, reals, is_int, len) = match data {
                ArrayData::Int { data, .. } => {
                    (data.as_mut_ptr(), std::ptr::null_mut(), true, data.len())
                }
                ArrayData::Real { data, .. } => {
                    (std::ptr::null_mut(), data.as_mut_ptr(), false, data.len())
                }
            };
            ctx.pins[a.index()] = Some(Pin {
                ints,
                reals,
                is_int,
                len,
                dims,
                writes: 0,
            });
        }
        Ok(ctx.pins[a.index()].as_mut().expect("just pinned"))
    }

    #[cold]
    fn oob(&self, a: VarId, index: i64, extent: usize) -> ExecError {
        ExecError::OutOfBounds {
            array: self.program().symbols.name(a).to_string(),
            index,
            extent,
        }
    }

    fn run_block_fast(
        &mut self,
        cb: &CompiledBody,
        b: u16,
        temps: &mut [Value],
        ctx: &mut FastCtx,
    ) -> Result<(), ExecError> {
        let ops = &cb.blocks[b as usize];
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                Op::Charge(n) => ctx.charge(*n)?,
                Op::Mov { dst, src } => temps[*dst as usize] = self.rd(temps, *src),
                Op::Bin { op, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    temps[*dst as usize] = apply_bin(*op, x, y)?;
                }
                Op::Neg { dst, src } => {
                    temps[*dst as usize] = match self.rd(temps, *src) {
                        Value::Int(v) => Value::Int(-v),
                        Value::Real(v) => Value::Real(-v),
                    };
                }
                Op::Cmp { op, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    let ord = match (x, y) {
                        (Value::Int(p), Value::Int(q)) => p.cmp(&q),
                        _ => x
                            .as_real()
                            .partial_cmp(&y.as_real())
                            .unwrap_or(std::cmp::Ordering::Equal),
                    };
                    let res = match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::Ne => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!("comparison"),
                    };
                    temps[*dst as usize] = Value::Int(res as i64);
                }
                Op::Truthy { dst, src } => {
                    let v = self.rd(temps, *src);
                    temps[*dst as usize] = Value::Int((v.as_real() != 0.0) as i64);
                }
                Op::Not { t } => {
                    let v = temps[*t as usize].as_int();
                    temps[*t as usize] = Value::Int((v == 0) as i64);
                }
                Op::Intr1 { f, dst, a } => {
                    let x = self.rd(temps, *a);
                    temps[*dst as usize] = apply_intrinsic(*f, &[x])?;
                }
                Op::Intr2 { f, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    temps[*dst as usize] = apply_intrinsic(*f, &[x, y])?;
                }
                Op::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Op::JumpIfZero { src, target } => {
                    if temps[*src as usize].as_int() == 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfNonZero { src, target } => {
                    if temps[*src as usize].as_int() != 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Ensure { arr } => {
                    self.pinned(ctx, *arr)?;
                }
                Op::IndexN { arr, base, n, dst } => {
                    let mut idx: usize = 0;
                    let mut stride: usize = 1;
                    for k in 0..*n as usize {
                        let v = temps[*base as usize + k].as_int();
                        let extent = ctx.pins[arr.index()].as_ref().expect("ensured").dims[k];
                        if v < 1 || v as usize > extent {
                            return Err(self.oob(*arr, v, extent));
                        }
                        idx += (v as usize - 1) * stride;
                        stride *= extent;
                    }
                    temps[*dst as usize] = Value::Int(idx as i64);
                }
                Op::LoadAt { arr, idx, dst } => {
                    let k = temps[*idx as usize].as_int() as usize;
                    temps[*dst as usize] = ctx.pins[arr.index()].as_ref().expect("ensured").read(k);
                }
                Op::StoreAt { arr, idx, src } => {
                    let k = temps[*idx as usize].as_int() as usize;
                    let val = self.rd(temps, *src);
                    ctx.pins[arr.index()]
                        .as_mut()
                        .expect("ensured")
                        .write(k, val);
                }
                Op::LoadElem1 { arr, sub, dst } => {
                    let v = self.rd(temps, *sub).as_int();
                    let p = self.pinned(ctx, *arr)?;
                    match p.check1(v) {
                        Some(k) => temps[*dst as usize] = p.read(k),
                        None => {
                            let extent = p.dims[0];
                            return Err(self.oob(*arr, v, extent));
                        }
                    }
                }
                Op::StoreElem1 { arr, sub, src } => {
                    let v = self.rd(temps, *sub).as_int();
                    let val = self.rd(temps, *src);
                    let p = self.pinned(ctx, *arr)?;
                    match p.check1(v) {
                        Some(k) => p.write(k, val),
                        None => {
                            let extent = p.dims[0];
                            return Err(self.oob(*arr, v, extent));
                        }
                    }
                }
                Op::LoadAffine {
                    arr,
                    base,
                    off,
                    dst,
                } => {
                    let v = self.store.scalar(*base).as_int().wrapping_add(*off);
                    let p = self.pinned(ctx, *arr)?;
                    match p.check1(v) {
                        Some(k) => temps[*dst as usize] = p.read(k),
                        None => {
                            let extent = p.dims[0];
                            return Err(self.oob(*arr, v, extent));
                        }
                    }
                }
                Op::StoreAffine {
                    arr,
                    base,
                    off,
                    src,
                } => {
                    let v = self.store.scalar(*base).as_int().wrapping_add(*off);
                    let val = self.rd(temps, *src);
                    let p = self.pinned(ctx, *arr)?;
                    match p.check1(v) {
                        Some(k) => p.write(k, val),
                        None => {
                            let extent = p.dims[0];
                            return Err(self.oob(*arr, v, extent));
                        }
                    }
                }
                Op::Gather {
                    arr,
                    idx_arr,
                    sub,
                    dst,
                } => {
                    // flat_index order: the outer array is ensured
                    // before its subscript (the index-array access) is
                    // evaluated.
                    self.pinned(ctx, *arr)?;
                    let s = self.rd(temps, *sub).as_int();
                    let v = {
                        let ip = self.pinned(ctx, *idx_arr)?;
                        match ip.check1(s) {
                            Some(j) => ip.read(j).as_int(),
                            None => {
                                let extent = ip.dims[0];
                                return Err(self.oob(*idx_arr, s, extent));
                            }
                        }
                    };
                    let p = ctx.pins[arr.index()].as_mut().expect("pinned");
                    match p.check1(v) {
                        Some(k) => temps[*dst as usize] = p.read(k),
                        None => {
                            let extent = p.dims[0];
                            return Err(self.oob(*arr, v, extent));
                        }
                    }
                }
                Op::Scatter {
                    arr,
                    idx_arr,
                    sub,
                    src,
                } => {
                    self.pinned(ctx, *arr)?;
                    let s = self.rd(temps, *sub).as_int();
                    let v = {
                        let ip = self.pinned(ctx, *idx_arr)?;
                        match ip.check1(s) {
                            Some(j) => ip.read(j).as_int(),
                            None => {
                                let extent = ip.dims[0];
                                return Err(self.oob(*idx_arr, s, extent));
                            }
                        }
                    };
                    let val = self.rd(temps, *src);
                    let p = ctx.pins[arr.index()].as_mut().expect("pinned");
                    match p.check1(v) {
                        Some(k) => p.write(k, val),
                        None => {
                            let extent = p.dims[0];
                            return Err(self.oob(*arr, v, extent));
                        }
                    }
                }
                Op::SetScalar { var, ty, src } => {
                    let val = self.rd(temps, *src);
                    self.store.set_scalar(*var, *ty, val);
                }
                Op::Accum {
                    var,
                    ty,
                    op,
                    rev,
                    src,
                } => {
                    let cur = self.store.scalar(*var);
                    let v = self.rd(temps, *src);
                    let res = if *rev {
                        apply_bin(*op, v, cur)?
                    } else {
                        apply_bin(*op, cur, v)?
                    };
                    self.store.set_scalar(*var, *ty, res);
                }
                Op::Append { arr, ptr, ty, src } => {
                    let cur = self.store.scalar(*ptr).as_int();
                    let val = self.rd(temps, *src);
                    let p = self.pinned(ctx, *arr)?;
                    match p.check1(cur) {
                        Some(k) => p.write(k, val),
                        None => {
                            let extent = p.dims[0];
                            return Err(self.oob(*arr, cur, extent));
                        }
                    }
                    // The fused increment statement's charge sits
                    // between the write and the pointer bump, exactly
                    // where the interpreter would run out of fuel.
                    ctx.charge(1)?;
                    self.store
                        .set_scalar(*ptr, *ty, Value::Int(cur.wrapping_add(1)));
                }
                Op::DoLoop {
                    var,
                    ty,
                    stmt,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = self.rd(temps, *lo).as_int();
                    let hi = self.rd(temps, *hi).as_int();
                    let stp = self.rd(temps, *step).as_int();
                    if stp == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    let entry = self.stats.loops.entry(*stmt).or_default();
                    entry.invocations += 1;
                    let cost_at_entry = self.stats.total_cost + ctx.spent;
                    let mut i = lo;
                    while (stp > 0 && i <= hi) || (stp < 0 && i >= hi) {
                        self.store.set_scalar(*var, *ty, Value::Int(i));
                        self.run_block_fast(cb, *body, temps, ctx)?;
                        ctx.charge(1)?; // loop bookkeeping
                        i += stp;
                    }
                    self.store.set_scalar(*var, *ty, Value::Int(i));
                    let total = self.stats.total_cost + ctx.spent - cost_at_entry;
                    self.stats.loops.entry(*stmt).or_default().total_cost += total;
                }
                Op::WhileLoop {
                    stmt,
                    cond,
                    cond_temp,
                    body,
                } => {
                    let entry = self.stats.loops.entry(*stmt).or_default();
                    entry.invocations += 1;
                    let cost_at_entry = self.stats.total_cost + ctx.spent;
                    loop {
                        self.run_block_fast(cb, *cond, temps, ctx)?;
                        if temps[*cond_temp as usize].as_int() == 0 {
                            break;
                        }
                        ctx.charge(1)?;
                        self.run_block_fast(cb, *body, temps, ctx)?;
                    }
                    let total = self.stats.total_cost + ctx.spent - cost_at_entry;
                    self.stats.loops.entry(*stmt).or_default().total_cost += total;
                }
            }
            pc += 1;
        }
        Ok(())
    }

    fn run_compiled_loop(
        &mut self,
        s: StmtId,
        cb: &CompiledBody,
        lo: i64,
        hi: i64,
        step: i64,
        temps: &mut [Value],
    ) -> Result<(), ExecError> {
        let entry = self.stats.loops.entry(s).or_default();
        entry.invocations += 1;
        let cost_at_entry = self.stats.total_cost;
        let (var, ty) = (cb.root_var, cb.root_ty);
        let mut i = lo;
        while (step > 0 && i <= hi) || (step < 0 && i >= hi) {
            self.store.set_scalar(var, ty, Value::Int(i));
            self.run_block(cb, cb.root, temps)?;
            self.charge(1)?; // loop bookkeeping
            i += step;
        }
        // Fortran leaves the induction variable at the first
        // out-of-range value.
        self.store.set_scalar(var, ty, Value::Int(i));
        let total = self.stats.total_cost - cost_at_entry;
        self.stats.loops.entry(s).or_default().total_cost += total;
        Ok(())
    }

    fn run_block(
        &mut self,
        cb: &CompiledBody,
        b: u16,
        temps: &mut [Value],
    ) -> Result<(), ExecError> {
        let ops = &cb.blocks[b as usize];
        let mut pc = 0usize;
        while pc < ops.len() {
            let op = &ops[pc];
            if let Some(p) = self.compiled_profile.as_deref_mut() {
                p.counts[op.tag()] += 1;
            }
            match op {
                Op::Charge(n) => self.charge(*n)?,
                Op::Mov { dst, src } => temps[*dst as usize] = self.rd(temps, *src),
                Op::Bin { op, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    temps[*dst as usize] = apply_bin(*op, x, y)?;
                }
                Op::Neg { dst, src } => {
                    temps[*dst as usize] = match self.rd(temps, *src) {
                        Value::Int(v) => Value::Int(-v),
                        Value::Real(v) => Value::Real(-v),
                    };
                }
                Op::Cmp { op, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    // eval_cond's comparison: exact integer compare,
                    // otherwise real compare with NaN ordering Equal.
                    let ord = match (x, y) {
                        (Value::Int(p), Value::Int(q)) => p.cmp(&q),
                        _ => x
                            .as_real()
                            .partial_cmp(&y.as_real())
                            .unwrap_or(std::cmp::Ordering::Equal),
                    };
                    let res = match op {
                        BinOp::Eq => ord == std::cmp::Ordering::Equal,
                        BinOp::Ne => ord != std::cmp::Ordering::Equal,
                        BinOp::Lt => ord == std::cmp::Ordering::Less,
                        BinOp::Le => ord != std::cmp::Ordering::Greater,
                        BinOp::Gt => ord == std::cmp::Ordering::Greater,
                        BinOp::Ge => ord != std::cmp::Ordering::Less,
                        _ => unreachable!("comparison"),
                    };
                    temps[*dst as usize] = Value::Int(res as i64);
                }
                Op::Truthy { dst, src } => {
                    let v = self.rd(temps, *src);
                    temps[*dst as usize] = Value::Int((v.as_real() != 0.0) as i64);
                }
                Op::Not { t } => {
                    let v = temps[*t as usize].as_int();
                    temps[*t as usize] = Value::Int((v == 0) as i64);
                }
                Op::Intr1 { f, dst, a } => {
                    let x = self.rd(temps, *a);
                    temps[*dst as usize] = apply_intrinsic(*f, &[x])?;
                }
                Op::Intr2 { f, dst, a, b } => {
                    let x = self.rd(temps, *a);
                    let y = self.rd(temps, *b);
                    temps[*dst as usize] = apply_intrinsic(*f, &[x, y])?;
                }
                Op::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Op::JumpIfZero { src, target } => {
                    if temps[*src as usize].as_int() == 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfNonZero { src, target } => {
                    if temps[*src as usize].as_int() != 0 {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Ensure { arr } => self.ensure_materialized(*arr)?,
                Op::IndexN { arr, base, n, dst } => {
                    // flat_index's column-major walk with per-dimension
                    // bounds checks, over subscripts already evaluated
                    // into consecutive temps.
                    let mut idx: usize = 0;
                    let mut stride: usize = 1;
                    for k in 0..*n as usize {
                        let v = temps[*base as usize + k].as_int();
                        let extent = self.store.array_ref(*arr).expect("ensured").dims()[k];
                        if v < 1 || v as usize > extent {
                            return Err(ExecError::OutOfBounds {
                                array: self.program().symbols.name(*arr).to_string(),
                                index: v,
                                extent,
                            });
                        }
                        idx += (v as usize - 1) * stride;
                        stride *= extent;
                    }
                    temps[*dst as usize] = Value::Int(idx as i64);
                }
                Op::LoadAt { arr, idx, dst } => {
                    let k = temps[*idx as usize].as_int() as usize;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::StoreAt { arr, idx, src } => {
                    let k = temps[*idx as usize].as_int() as usize;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::LoadElem1 { arr, sub, dst } => {
                    self.ensure_materialized(*arr)?;
                    let v = self.rd(temps, *sub).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::StoreElem1 { arr, sub, src } => {
                    self.ensure_materialized(*arr)?;
                    let v = self.rd(temps, *sub).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::LoadAffine {
                    arr,
                    base,
                    off,
                    dst,
                } => {
                    self.ensure_materialized(*arr)?;
                    // `base` is integer-typed, so the wrapping add is
                    // exactly apply_bin's integer Add/Sub.
                    let v = self.store.scalar(*base).as_int().wrapping_add(*off);
                    let k = self.bc_index1(*arr, v)?;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::StoreAffine {
                    arr,
                    base,
                    off,
                    src,
                } => {
                    self.ensure_materialized(*arr)?;
                    let v = self.store.scalar(*base).as_int().wrapping_add(*off);
                    let k = self.bc_index1(*arr, v)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::Gather {
                    arr,
                    idx_arr,
                    sub,
                    dst,
                } => {
                    // flat_index order: the outer array is ensured
                    // before its subscript (the index-array access) is
                    // evaluated.
                    self.ensure_materialized(*arr)?;
                    self.ensure_materialized(*idx_arr)?;
                    let s = self.rd(temps, *sub).as_int();
                    let j = self.bc_index1(*idx_arr, s)?;
                    let v = self.bc_read(*idx_arr, j).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    temps[*dst as usize] = self.bc_read(*arr, k);
                }
                Op::Scatter {
                    arr,
                    idx_arr,
                    sub,
                    src,
                } => {
                    self.ensure_materialized(*arr)?;
                    self.ensure_materialized(*idx_arr)?;
                    let s = self.rd(temps, *sub).as_int();
                    let j = self.bc_index1(*idx_arr, s)?;
                    let v = self.bc_read(*idx_arr, j).as_int();
                    let k = self.bc_index1(*arr, v)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                }
                Op::SetScalar { var, ty, src } => {
                    let val = self.rd(temps, *src);
                    self.store.set_scalar(*var, *ty, val);
                }
                Op::Accum {
                    var,
                    ty,
                    op,
                    rev,
                    src,
                } => {
                    let cur = self.store.scalar(*var);
                    let v = self.rd(temps, *src);
                    let res = if *rev {
                        apply_bin(*op, v, cur)?
                    } else {
                        apply_bin(*op, cur, v)?
                    };
                    self.store.set_scalar(*var, *ty, res);
                }
                Op::Append { arr, ptr, ty, src } => {
                    self.ensure_materialized(*arr)?;
                    let cur = self.store.scalar(*ptr).as_int();
                    let k = self.bc_index1(*arr, cur)?;
                    let val = self.rd(temps, *src);
                    self.store.write_element(*arr, k, val);
                    // The fused increment statement's charge sits
                    // between the write and the pointer bump, exactly
                    // where the interpreter would run out of fuel.
                    self.charge(1)?;
                    self.store
                        .set_scalar(*ptr, *ty, Value::Int(cur.wrapping_add(1)));
                }
                Op::DoLoop {
                    var,
                    ty,
                    stmt,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let lo = self.rd(temps, *lo).as_int();
                    let hi = self.rd(temps, *hi).as_int();
                    let stp = self.rd(temps, *step).as_int();
                    if stp == 0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    let entry = self.stats.loops.entry(*stmt).or_default();
                    entry.invocations += 1;
                    let cost_at_entry = self.stats.total_cost;
                    let mut i = lo;
                    while (stp > 0 && i <= hi) || (stp < 0 && i >= hi) {
                        self.store.set_scalar(*var, *ty, Value::Int(i));
                        self.run_block(cb, *body, temps)?;
                        self.charge(1)?; // loop bookkeeping
                        i += stp;
                    }
                    self.store.set_scalar(*var, *ty, Value::Int(i));
                    let total = self.stats.total_cost - cost_at_entry;
                    self.stats.loops.entry(*stmt).or_default().total_cost += total;
                }
                Op::WhileLoop {
                    stmt,
                    cond,
                    cond_temp,
                    body,
                } => {
                    let entry = self.stats.loops.entry(*stmt).or_default();
                    entry.invocations += 1;
                    let cost_at_entry = self.stats.total_cost;
                    loop {
                        self.run_block(cb, *cond, temps)?;
                        if temps[*cond_temp as usize].as_int() == 0 {
                            break;
                        }
                        self.charge(1)?;
                        self.run_block(cb, *body, temps)?;
                    }
                    let total = self.stats.total_cost - cost_at_entry;
                    self.stats.loops.entry(*stmt).or_default().total_cost += total;
                }
            }
            pc += 1;
        }
        Ok(())
    }
}
