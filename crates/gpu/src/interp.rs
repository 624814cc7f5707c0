//! The kernel interpreter: functional execution + cost accounting.
//!
//! This is the optimized execution core (see `reference.rs` for the seed
//! implementation it must match bit-for-bit). Kernels are first lowered
//! by [`crate::program`] into a [`Program`] — grid-invariant prologue,
//! per-row caching, occurrence streams, superinstructions, liveness
//! release lists, and analytic instance classes — and this module
//! executes compiled programs. The speed comes from:
//!
//! 1. [`Block`] is a strided copy-on-write view, so shape transforms are
//!    metadata edits and scalars (loop counters!) never allocate.
//! 2. Register slots are recycled through a buffer pool, and last-use
//!    liveness releases dead buffers eagerly: steady-state loop
//!    iterations perform zero heap allocation.
//! 3. Every memory site goes through one row-run routine
//!    (`Machine::site_runs`): its active lanes become runs of consecutive
//!    offsets — rows masked by an `[R, 1]` mask are skipped whole, and a
//!    contiguous row is one run. Warp sectors resolve arithmetically
//!    from the runs each warp covers (rows narrower or wider than a
//!    warp alike), values move as slice copies and slice adds, and
//!    atomic hits are slice increments. DRAM first-touch tracking uses
//!    address-space bitmaps and atomics per-parameter count vectors — no
//!    hashing on the hot path.
//! 4. Grid-invariant and row-invariant work executes once and is shared
//!    (or stream-replayed) across instances; fully affine analytic
//!    launches cost one representative per row and replay the rest.
//! 5. The grid-instance loop can run sharded across threads with a
//!    deterministic merge (see [`LaunchOptions`]): Execute-mode shards
//!    log their writes as runs (headers plus an `f32` value arena) that
//!    replay run by run in instance order, so results are bit-identical
//!    to the sequential order.

use crate::block::{Block, PoolBuf, Shape4};
use crate::device::DeviceModel;
use crate::program::{CInstr, CNode, Program, UnitMode};
use crate::stats::{combine_times, KernelReport, KernelStats};
use insum_kernel::{Kernel, KernelError, Reg};
use insum_tensor::{DType, Tensor};
use std::error::Error;
use std::fmt;

/// Interpreter mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Compute real values and mutate output tensors (used by tests and
    /// small runs). Counters are exact.
    Execute,
    /// Skip floating-point value math and output writes; metadata (I32)
    /// loads still read real data so addresses, masks, and all counters
    /// are exactly as in [`Mode::Execute`].
    Analytic,
}

/// Error from launching a kernel on the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// Argument count does not match the kernel's parameter list.
    ParamCountMismatch {
        /// Parameters declared by the kernel.
        expected: usize,
        /// Arguments supplied.
        actual: usize,
    },
    /// A lane computed an out-of-bounds element offset.
    OffsetOutOfBounds {
        /// Parameter name.
        param: String,
        /// The offending element offset.
        offset: i64,
        /// The parameter's element count.
        len: usize,
    },
    /// The launch grid is empty or has more than 3 dimensions.
    BadGrid(Vec<usize>),
    /// The kernel failed structural validation.
    Kernel(KernelError),
    /// A register was read before being written.
    UninitializedRegister(Reg),
    /// A fast-path microkernel rejected its bindings (see
    /// [`crate::run_micro`]).
    Micro(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::ParamCountMismatch { expected, actual } => {
                write!(f, "kernel expects {expected} arguments, got {actual}")
            }
            GpuError::OffsetOutOfBounds { param, offset, len } => {
                write!(
                    f,
                    "offset {offset} out of bounds for parameter {param:?} ({len} elements)"
                )
            }
            GpuError::BadGrid(g) => write!(f, "bad launch grid {g:?}"),
            GpuError::Kernel(e) => write!(f, "{e}"),
            GpuError::UninitializedRegister(r) => write!(f, "register v{r} read before write"),
            GpuError::Micro(detail) => write!(f, "fast-path microkernel: {detail}"),
        }
    }
}

impl Error for GpuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GpuError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for GpuError {
    fn from(e: KernelError) -> Self {
        GpuError::Kernel(e)
    }
}

/// Controls how the simulator schedules grid instances on host threads.
///
/// Instances are independent except for DRAM first-touch accounting,
/// atomic-collision accounting, and (in [`Mode::Execute`]) tensor writes.
/// The first two merge exactly (set unions and counter sums), so analytic
/// launches always parallelize. Execute-mode launches parallelize only
/// when every written parameter is write-only within the kernel: shards
/// then emit ordered write logs that are replayed in instance order,
/// reproducing the sequential result bit-for-bit. Kernels that read a
/// parameter they also write (a cross-instance hazard) fall back to the
/// sequential path.
#[derive(Debug, Clone)]
pub struct LaunchOptions {
    /// Worker threads; `None` resolves `INSUM_SIM_THREADS` or the
    /// machine's available parallelism.
    pub threads: Option<usize>,
    /// Grids smaller than this always run sequentially (per-shard setup
    /// costs dominate tiny launches).
    pub min_parallel_instances: usize,
    /// Allow [`Mode::Analytic`] launches of fully affine programs to
    /// dedup each row of instances into one costed representative (see
    /// [`Program::analytic_dedup_available`]). Results are bit-identical
    /// either way; disabling is useful for equivalence testing.
    pub analytic_dedup: bool,
}

impl Default for LaunchOptions {
    fn default() -> LaunchOptions {
        LaunchOptions {
            threads: None,
            min_parallel_instances: 64,
            analytic_dedup: true,
        }
    }
}

impl LaunchOptions {
    /// A strictly sequential configuration.
    pub fn sequential() -> LaunchOptions {
        LaunchOptions {
            threads: Some(1),
            ..Default::default()
        }
    }

    /// A configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> LaunchOptions {
        LaunchOptions {
            threads: Some(threads.max(1)),
            ..Default::default()
        }
    }

    fn resolve_threads(&self) -> usize {
        if let Some(t) = self.threads {
            return t.max(1);
        }
        if let Some(t) = std::env::var("INSUM_SIM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            return t.max(1);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Per-instance cost accumulator.
#[derive(Default, Clone, Copy)]
pub(crate) struct InstCost {
    l2_read_sectors: u64,
    l2_write_sectors: u64,
    flops_tc_f16: u64,
    flops_tc_f32: u64,
    flops_scalar: u64,
    smem_bytes: u64,
    atomics: u64,
    instructions: u64,
    dyn_iters: u64,
}

impl InstCost {
    #[inline]
    fn add(&mut self, o: &InstCost) {
        self.l2_read_sectors += o.l2_read_sectors;
        self.l2_write_sectors += o.l2_write_sectors;
        self.flops_tc_f16 += o.flops_tc_f16;
        self.flops_tc_f32 += o.flops_tc_f32;
        self.flops_scalar += o.flops_scalar;
        self.smem_bytes += o.smem_bytes;
        self.atomics += o.atomics;
        self.instructions += o.instructions;
        self.dyn_iters += o.dyn_iters;
    }

    #[inline]
    fn minus(&self, o: &InstCost) -> InstCost {
        InstCost {
            l2_read_sectors: self.l2_read_sectors - o.l2_read_sectors,
            l2_write_sectors: self.l2_write_sectors - o.l2_write_sectors,
            flops_tc_f16: self.flops_tc_f16 - o.flops_tc_f16,
            flops_tc_f32: self.flops_tc_f32 - o.flops_tc_f32,
            flops_scalar: self.flops_scalar - o.flops_scalar,
            smem_bytes: self.smem_bytes - o.smem_bytes,
            atomics: self.atomics - o.atomics,
            instructions: self.instructions - o.instructions,
            dyn_iters: self.dyn_iters - o.dyn_iters,
        }
    }
}

pub(crate) const SECTOR: u64 = 32;
const WARP: usize = 32;

/// Fixed-size bitmap over the launch's simulated sector space: the
/// kernel-resident L2 filter (replaces the seed's `HashSet<u64>`).
#[derive(Clone)]
struct SectorSet {
    words: Vec<u64>,
}

impl SectorSet {
    fn new(sectors: u64) -> SectorSet {
        SectorSet {
            words: vec![0u64; sectors.div_ceil(64) as usize],
        }
    }

    /// Insert; returns true when the sector was new.
    #[inline]
    fn insert(&mut self, sector: u64) -> bool {
        let word = &mut self.words[(sector >> 6) as usize];
        let bit = 1u64 << (sector & 63);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    fn union(&mut self, other: &SectorSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// Read-only or exclusive access to the launch arguments. Parallel shards
/// share immutable views; the sequential Execute path owns the tensors.
enum ArgsView<'a, 'b> {
    Shared(&'a [&'b Tensor]),
    Exclusive(&'a mut [&'b mut Tensor]),
}

impl ArgsView<'_, '_> {
    #[inline]
    fn data(&self, param: usize) -> &[f32] {
        match self {
            ArgsView::Shared(ts) => ts[param].data(),
            ArgsView::Exclusive(ts) => ts[param].data(),
        }
    }

    #[inline]
    fn data_mut(&mut self, param: usize) -> &mut [f32] {
        match self {
            ArgsView::Shared(_) => unreachable!("parallel shards never mutate tensors directly"),
            ArgsView::Exclusive(ts) => ts[param].data_mut(),
        }
    }
}

/// One deferred run of Execute-mode writes: `len` consecutive elements
/// of `param` from `off`, stored or atomically added. Its values follow
/// the previous run's in the log's value arena.
struct WriteRun {
    off: usize,
    len: u32,
    param: u16,
    atomic: bool,
}

/// A parallel shard's run-compressed write log: run headers in instance
/// order plus one `f32` value arena, replayed run by run after the
/// launch.
#[derive(Default)]
struct WriteLog {
    runs: Vec<WriteRun>,
    vals: Vec<f32>,
}

impl WriteLog {
    /// Log one site execution's writes (`vals` in lane order).
    fn push(&mut self, param: usize, atomic: bool, site: &RunSet, vals: &[f64]) {
        for r in &site.runs {
            self.runs.push(WriteRun {
                off: r.off as usize,
                len: r.len,
                param: param as u16,
                atomic,
            });
            let lane = r.lane as usize;
            self.vals
                .extend(vals[lane..lane + r.len as usize].iter().map(|&v| v as f32));
        }
    }

    /// Replay the logged writes to `param` into its data, in log order.
    fn replay(&self, param: usize, data: &mut [f32], round: bool) {
        let mut cur = 0;
        for w in &self.runs {
            let n = w.len as usize;
            if w.param as usize == param {
                apply_run(
                    &mut data[w.off..w.off + n],
                    self.vals[cur..cur + n].iter().copied(),
                    w.atomic,
                    round,
                );
            }
            cur += n;
        }
    }
}

/// Where Execute-mode value writes go.
enum WriteSink {
    /// Mutate tensors in place (sequential path).
    Direct,
    /// Defer into an ordered log (parallel path).
    Log(WriteLog),
}

/// One recorded occurrence of an invariant instruction inside a
/// per-instance region: later instances replay the value (a cheap
/// copy-on-write clone) and charge the recorded cost.
struct CacheEntry {
    dst: Reg,
    block: Block,
    cost: InstCost,
}

/// Per-shard stream-cache state: aggregate costs of the once/per-row
/// units, and occurrence streams for invariant instructions trapped in
/// per-instance loops (level 0 = grid-invariant, level 1 = row-invariant).
#[derive(Default)]
struct CacheState {
    agg0: InstCost,
    agg1: InstCost,
    stream0: Vec<CacheEntry>,
    stream1: Vec<CacheEntry>,
    cur0: usize,
    cur1: usize,
    record0: bool,
    record1: bool,
}

impl CacheState {
    fn new() -> CacheState {
        CacheState {
            stream0: Vec::new(),
            stream1: Vec::new(),
            ..Default::default()
        }
    }
}

/// One access-site execution recorded by a row representative for
/// instance-class replay: its runs and the active-offset bounds used to
/// prove members in-range.
struct TraceEntry {
    site: u32,
    /// The site's runs as `(first offset, length)`. Each touches the
    /// sector range of its end elements and, for atomics, hits each of
    /// its addresses once (overlapping runs add up to the exact counts).
    runs: Vec<(i64, u32)>,
    min_off: i64,
    max_off: i64,
}

/// Instance-class state for the current row (see `program.rs` docs):
/// the representative's cost, simulated time, and per-site traces.
struct TraceState {
    active: bool,
    valid: bool,
    entries: Vec<TraceEntry>,
    rep_cost: InstCost,
    rep_time: f64,
    rep_p0: usize,
}

impl TraceState {
    fn new() -> TraceState {
        TraceState {
            active: false,
            valid: false,
            entries: Vec::new(),
            rep_cost: InstCost::default(),
            rep_time: 0.0,
            rep_p0: 0,
        }
    }
}

struct Machine<'a> {
    program: &'a Program,
    mode: Mode,
    dram_read_seen: SectorSet,
    dram_write_seen: SectorSet,
    /// Per-parameter atomic hit counts, allocated on first use.
    atomic_counts: Vec<Vec<u64>>,
    stats: KernelStats,
    inst: InstCost,
    sink: WriteSink,
    /// Recycled heap buffers: registers overwritten by later instructions
    /// (or released by liveness) donate their allocations back, refcount
    /// block included.
    pool: Vec<PoolBuf>,
    cs: CacheState,
    trace: TraceState,
    /// Run decomposition of the site being executed (scratch reused
    /// across sites).
    runs: RunSet,
}

impl<'a> Machine<'a> {
    fn new(program: &'a Program, mode: Mode, sink: WriteSink) -> Machine<'a> {
        Machine {
            program,
            mode,
            dram_read_seen: SectorSet::new(program.params.total_sectors),
            dram_write_seen: SectorSet::new(program.params.total_sectors),
            atomic_counts: vec![Vec::new(); program.params.lens.len()],
            stats: KernelStats::default(),
            inst: InstCost::default(),
            sink,
            pool: Vec::new(),
            cs: CacheState::new(),
            trace: TraceState::new(),
            runs: RunSet::default(),
        }
    }

    /// A buffer from the pool (or a fresh one); contents are stale.
    #[inline]
    fn alloc(&mut self) -> PoolBuf {
        self.pool.pop().unwrap_or_default()
    }

    /// Overwrite a register, reclaiming the old value's buffer when this
    /// register was its sole owner.
    #[inline]
    fn set_reg(&mut self, regs: &mut [Option<Block>], dst: Reg, val: Block) {
        if let Some(old) = regs[dst].take() {
            if let Some(buf) = old.reclaim() {
                self.pool.push(buf);
            }
        }
        regs[dst] = Some(val);
    }

    /// Release a register's buffer back to the pool.
    #[inline]
    fn drop_reg(&mut self, regs: &mut [Option<Block>], r: Reg) {
        if let Some(old) = regs[r].take() {
            if let Some(buf) = old.reclaim() {
                self.pool.push(buf);
            }
        }
    }

    fn reg(regs: &[Option<Block>], r: Reg) -> Result<&Block, GpuError> {
        regs[r].as_ref().ok_or(GpuError::UninitializedRegister(r))
    }

    /// Accumulate one instance's cost into the launch totals.
    fn charge(&mut self, c: &InstCost) {
        self.stats.l2_read_sectors += c.l2_read_sectors;
        self.stats.l2_write_sectors += c.l2_write_sectors;
        self.stats.flops_tc_f16 += c.flops_tc_f16;
        self.stats.flops_tc_f32 += c.flops_tc_f32;
        self.stats.flops_scalar += c.flops_scalar;
        self.stats.smem_bytes += c.smem_bytes;
        self.stats.atomics += c.atomics;
        self.stats.instructions += c.instructions;
    }

    /// The shared row-run routine every memory site goes through: split
    /// the site's active lanes (in the logical order of `joint`) into
    /// runs, record them for instance-class replay, bounds-check them in
    /// lane order, and charge their warp sectors. The caller moves the
    /// values along the returned runs and hands the scratch back through
    /// `self.runs`.
    ///
    /// Matches the seed semantics exactly: lanes chunk into warps of 32
    /// in logical row-major order, each warp's active sector ids dedup
    /// into L2 transactions, the launch-wide bitmap provides the DRAM
    /// first-touch filter, and the error names the first out-of-bounds
    /// active offset in lane order.
    fn site_runs(
        &mut self,
        site: u32,
        param: usize,
        offsets: &Block,
        mask: Option<&Block>,
        joint: &[usize],
        is_write: bool,
    ) -> Result<RunSet, GpuError> {
        let mut rs = std::mem::take(&mut self.runs);
        rs.build(offsets, mask, joint);
        if self.trace.active {
            self.trace_site(site, &rs);
        }
        let len = self.program.params.lens[param];
        if let Some(offset) = rs.first_oob(len) {
            self.runs = rs;
            return Err(GpuError::OffsetOutOfBounds {
                param: self.program.param_names[param].clone(),
                offset,
                len,
            });
        }
        let base = self.program.params.bases[param];
        let esize = self.program.params.esizes[param];
        if is_write {
            self.inst.l2_write_sectors += rs.charge_sectors(base, esize, &mut self.dram_write_seen);
        } else {
            self.inst.l2_read_sectors += rs.charge_sectors(base, esize, &mut self.dram_read_seen);
        }
        Ok(rs)
    }

    /// Record one access-site execution for instance-class replay: its
    /// runs and active-offset bounds. Runs on row representatives only;
    /// costs nothing on the replay path.
    fn trace_site(&mut self, site: u32, rs: &RunSet) {
        let info = &self.program.sites[site as usize];
        if !info.traced {
            return;
        }
        if !rs.exact {
            // Non-integer offsets: the affine-shift argument does not
            // hold, so the whole row falls back to full execution.
            self.trace.valid = false;
            return;
        }
        let mut entry = TraceEntry {
            site,
            runs: rs.runs.iter().map(|r| (r.off, r.len)).collect(),
            min_off: 0,
            max_off: -1,
        };
        if !rs.runs.is_empty() {
            entry.min_off = rs.runs.iter().map(|r| r.off).min().expect("nonempty");
            entry.max_off = rs.runs.iter().map(Run::last).max().expect("nonempty");
            if entry.min_off < 0
                || entry.max_off as u64 >= self.program.params.lens[info.param] as u64
            {
                // The representative itself is out of bounds; execution
                // will report the error — no replay for this row.
                self.trace.valid = false;
                return;
            }
        }
        self.trace.entries.push(entry);
    }

    /// Replay one row member from the representative's trace: shift the
    /// recorded sector runs and atomic streams by the member's axis-0
    /// delta, charge the representative's cost, and return its (equal)
    /// simulated time. `None` when the trace is unusable or the member
    /// would go out of bounds — the caller then executes it in full.
    fn replay_member(&mut self, p0: usize) -> Option<f64> {
        if !self.trace.valid {
            return None;
        }
        let program = self.program;
        let delta = p0 as i64 - self.trace.rep_p0 as i64;
        for e in &self.trace.entries {
            if e.min_off > e.max_off {
                continue;
            }
            let site = &program.sites[e.site as usize];
            let shift = delta * site.coeff as i64;
            let len = program.params.lens[site.param] as i64;
            if e.min_off + shift < 0 || e.max_off + shift >= len {
                return None;
            }
        }
        for e in &self.trace.entries {
            let site = &program.sites[e.site as usize];
            let p = site.param;
            let (base, esize) = (program.params.bases[p], program.params.esizes[p]);
            // A member's offsets are the representative's shifted by
            // `shift`; `coeff · esize` is a whole number of sectors, so
            // its warps cost the same and only the touched sectors move.
            let shift = delta * site.coeff as i64;
            let seen = if site.is_write {
                &mut self.dram_write_seen
            } else {
                &mut self.dram_read_seen
            };
            for &(off, len) in &e.runs {
                let (lo, hi) = (off + shift, off + shift + len as i64 - 1);
                for sec in sector_of(base, esize, lo)..=sector_of(base, esize, hi) {
                    seen.insert(sec);
                }
            }
            if site.is_atomic && !e.runs.is_empty() {
                if self.atomic_counts[p].is_empty() {
                    self.atomic_counts[p] = vec![0u64; program.params.lens[p]];
                }
                let counts = &mut self.atomic_counts[p];
                for &(off, len) in &e.runs {
                    let s = (off + shift) as usize;
                    for slot in &mut counts[s..s + len as usize] {
                        *slot += 1;
                    }
                }
            }
        }
        let c = self.trace.rep_cost;
        self.charge(&c);
        Some(self.trace.rep_time)
    }

    /// Execute the instance range `[lo, hi)` with row-change tracking,
    /// stream caching, and (when `dedup`) analytic instance-class replay.
    /// Pushes one simulated time per instance; errors carry the flat
    /// instance id for first-error-wins ordering.
    #[allow(clippy::too_many_arguments)]
    fn run_range(
        &mut self,
        lo: usize,
        hi: usize,
        gdims: [usize; 3],
        regs: &mut Vec<Option<Block>>,
        args: &mut ArgsView<'_, '_>,
        device: &DeviceModel,
        dedup: bool,
        times: &mut Vec<f64>,
    ) -> Result<(), (usize, GpuError)> {
        let mut started = false;
        let mut row = (usize::MAX, usize::MAX);
        for flat in lo..hi {
            let pid = pid_of(flat, gdims);
            let new_shard = !started;
            let new_row = new_shard || (pid[1], pid[2]) != row;
            if dedup && !new_row {
                if let Some(t) = self.replay_member(pid[0]) {
                    times.push(t);
                    continue;
                }
            }
            let record = dedup && new_row;
            match self.run_instance(regs, pid, args, device, new_shard, new_row, record) {
                Ok(t) => times.push(t),
                Err(e) => return Err((flat, e)),
            }
            started = true;
            row = (pid[1], pid[2]);
        }
        Ok(())
    }

    /// Run one grid instance, returning its simulated time on one SM.
    #[allow(clippy::too_many_arguments)]
    fn run_instance(
        &mut self,
        regs: &mut Vec<Option<Block>>,
        pid: [usize; 3],
        args: &mut ArgsView<'_, '_>,
        device: &DeviceModel,
        new_shard: bool,
        new_row: bool,
        record_trace: bool,
    ) -> Result<f64, GpuError> {
        let program = self.program;
        self.inst = InstCost::default();
        for &r in &program.level2_regs {
            self.drop_reg(regs, r);
        }
        self.cs.record0 = new_shard;
        self.cs.record1 = new_row;
        self.cs.cur0 = 0;
        self.cs.cur1 = 0;
        if new_shard {
            self.cs.stream0.clear();
            self.cs.agg0 = InstCost::default();
        }
        if new_row {
            self.cs.stream1.clear();
            self.cs.agg1 = InstCost::default();
        }
        self.trace.active = record_trace;
        if record_trace {
            self.trace.entries.clear();
            self.trace.valid = true;
            self.trace.rep_p0 = pid[0];
        }
        for unit in &program.units {
            match unit.mode {
                UnitMode::Once => {
                    if new_shard {
                        let before = self.inst;
                        self.exec_cinstr(&unit.instr, regs, pid, args)?;
                        let delta = self.inst.minus(&before);
                        self.cs.agg0.add(&delta);
                    }
                }
                UnitMode::PerRow => {
                    if new_row {
                        let before = self.inst;
                        self.exec_cinstr(&unit.instr, regs, pid, args)?;
                        let delta = self.inst.minus(&before);
                        self.cs.agg1.add(&delta);
                    }
                }
                UnitMode::PerInstance => {
                    self.exec_cinstr(&unit.instr, regs, pid, args)?;
                    for &r in &unit.release {
                        self.drop_reg(regs, r);
                    }
                }
            }
        }
        if !new_shard {
            let a = self.cs.agg0;
            self.inst.add(&a);
        }
        if !new_row {
            let a = self.cs.agg1;
            self.inst.add(&a);
        }
        let c = self.inst;
        self.charge(&c);
        let t = instance_time(device, &c);
        if record_trace {
            self.trace.rep_cost = c;
            self.trace.rep_time = t;
            self.trace.active = false;
        }
        Ok(t)
    }

    /// Execute a per-instance body with stream-cache dispatch: invariant
    /// nodes record their value/cost on the representative and replay a
    /// copy-on-write clone afterwards.
    fn run_nodes(
        &mut self,
        nodes: &[CNode],
        regs: &mut Vec<Option<Block>>,
        pid: [usize; 3],
        args: &mut ArgsView<'_, '_>,
    ) -> Result<(), GpuError> {
        for node in nodes {
            match node.cached {
                None => self.exec_cinstr(&node.instr, regs, pid, args)?,
                Some(level) => {
                    let record = if level == 0 {
                        self.cs.record0
                    } else {
                        self.cs.record1
                    };
                    if record {
                        let before = self.inst;
                        self.exec_cinstr(&node.instr, regs, pid, args)?;
                        let cost = self.inst.minus(&before);
                        let dst = cached_dst(&node.instr);
                        let block = regs[dst]
                            .as_ref()
                            .expect("cached instruction writes its destination")
                            .clone();
                        let stream = if level == 0 {
                            &mut self.cs.stream0
                        } else {
                            &mut self.cs.stream1
                        };
                        stream.push(CacheEntry { dst, block, cost });
                    } else {
                        let (dst, block, cost) = {
                            let (stream, cur) = if level == 0 {
                                (&self.cs.stream0, &mut self.cs.cur0)
                            } else {
                                (&self.cs.stream1, &mut self.cs.cur1)
                            };
                            let e = &stream[*cur];
                            *cur += 1;
                            (e.dst, e.block.clone(), e.cost)
                        };
                        self.inst.add(&cost);
                        self.set_reg(regs, dst, block);
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_cinstr(
        &mut self,
        instr: &CInstr,
        regs: &mut Vec<Option<Block>>,
        pid: [usize; 3],
        args: &mut ArgsView<'_, '_>,
    ) -> Result<(), GpuError> {
        self.inst.instructions += 1;
        match instr {
            CInstr::ProgramId { dst, axis } => {
                self.set_reg(regs, *dst, Block::scalar(pid[*axis] as f64));
            }
            CInstr::Const { dst, value } => {
                self.set_reg(regs, *dst, Block::scalar(*value));
            }
            CInstr::Arange { dst, len } => {
                let mut buf = self.alloc();
                let v = buf.vec();
                v.clear();
                v.extend((0..*len).map(|i| i as f64));
                self.set_reg(regs, *dst, Block::from_pool(vec![*len], buf));
            }
            CInstr::Full { dst, shape, value } => {
                let buf = self.alloc();
                self.set_reg(regs, *dst, Block::full_pooled(shape.clone(), *value, buf));
            }
            CInstr::Binary { dst, op, a, b } => {
                self.exec_binary(regs, *dst, *op, *a, *b)?;
            }
            CInstr::FusedBinary {
                dst,
                op1,
                a,
                b,
                op2,
                c,
                swapped,
            } => {
                // Superinstruction: `tmp = a op1 b; dst = tmp op2 c`
                // without parking `tmp` in a register. Both instructions'
                // counters are charged and each element is rounded twice,
                // exactly as the unfused pair.
                self.inst.instructions += 1;
                let tmp = {
                    let av = Self::reg(regs, *a)?;
                    let bv = Self::reg(regs, *b)?;
                    Block::try_scalar_binary(*op1, av, bv)
                };
                let tmp = match tmp {
                    Some(t) => {
                        self.inst.flops_scalar += 1;
                        t
                    }
                    None => {
                        let buf = self.alloc();
                        let t = {
                            let av = Self::reg(regs, *a)?;
                            let bv = Self::reg(regs, *b)?;
                            Block::binary_with(*op1, av, bv, buf)
                        };
                        self.inst.flops_scalar += t.len() as u64;
                        t
                    }
                };
                let scalar = {
                    let cv = Self::reg(regs, *c)?;
                    let (l, r) = if *swapped { (cv, &tmp) } else { (&tmp, cv) };
                    Block::try_scalar_binary(*op2, l, r)
                };
                let out = match scalar {
                    Some(o) => {
                        self.inst.flops_scalar += 1;
                        o
                    }
                    None => {
                        let buf = self.alloc();
                        let o = {
                            let cv = Self::reg(regs, *c)?;
                            let (l, r) = if *swapped { (cv, &tmp) } else { (&tmp, cv) };
                            Block::binary_with(*op2, l, r, buf)
                        };
                        self.inst.flops_scalar += o.len() as u64;
                        o
                    }
                };
                if let Some(buf) = tmp.reclaim() {
                    self.pool.push(buf);
                }
                self.set_reg(regs, *dst, out);
            }
            CInstr::ExpandDims { dst, src, axis } => {
                let out = Self::reg(regs, *src)?.expand_dims(*axis);
                self.set_reg(regs, *dst, out);
            }
            CInstr::Broadcast { dst, src, shape } => {
                let out = Self::reg(regs, *src)?.broadcast_to(shape);
                self.inst.smem_bytes += 4 * out.len() as u64;
                self.set_reg(regs, *dst, out);
            }
            CInstr::View { dst, src, shape } => {
                let out = Self::reg(regs, *src)?.view(shape.clone());
                self.inst.smem_bytes += 4 * out.len() as u64;
                self.set_reg(regs, *dst, out);
            }
            CInstr::Trans { dst, src } => {
                let out = Self::reg(regs, *src)?.trans();
                self.inst.smem_bytes += 4 * out.len() as u64;
                self.set_reg(regs, *dst, out);
            }
            CInstr::Load {
                dst,
                param,
                offset,
                mask,
                other,
                site,
            } => {
                let out = self.exec_load(regs, *param, *offset, *mask, *other, *site, args)?;
                self.set_reg(regs, *dst, out);
            }
            CInstr::Store {
                param,
                offset,
                value,
                mask,
                site,
            } => {
                self.exec_write(regs, *param, *offset, *value, *mask, *site, args, false)?;
            }
            CInstr::AtomicAdd {
                param,
                offset,
                value,
                mask,
                site,
            } => {
                self.exec_write(regs, *param, *offset, *value, *mask, *site, args, true)?;
            }
            CInstr::Dot { dst, a, b } => {
                let buf = self.alloc();
                let (m, k, n, out) = {
                    let av = Self::reg(regs, *a)?;
                    let bv = Self::reg(regs, *b)?;
                    let (m, k) = (av.shape()[0], av.shape()[1]);
                    let n = bv.shape()[1];
                    let out = if self.mode == Mode::Execute {
                        Block::dot_with(av, bv, buf)
                    } else {
                        debug_assert_eq!(bv.shape()[0], k, "dot inner dims");
                        Block::full_pooled(vec![m, n], 0.0, buf)
                    };
                    (m, k, n, out)
                };
                let flops = 2 * (m * k * n) as u64;
                if self.program.dot_f16 {
                    self.inst.flops_tc_f16 += flops;
                } else {
                    self.inst.flops_tc_f32 += flops;
                }
                self.set_reg(regs, *dst, out);
            }
            CInstr::Sum { dst, src, axis } => {
                let out = {
                    let sv = Self::reg(regs, *src)?;
                    self.inst.flops_scalar += sv.len() as u64;
                    sv.sum_axis(*axis)
                };
                self.set_reg(regs, *dst, out);
            }
            CInstr::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                let mut v = *start;
                while v < *end {
                    self.set_reg(regs, *var, Block::scalar(v as f64));
                    self.run_nodes(body, regs, pid, args)?;
                    v += *step;
                }
            }
            CInstr::LoopDyn {
                var,
                start,
                end,
                body,
            } => {
                let lo = Self::reg(regs, *start)?.first() as i64;
                let hi = Self::reg(regs, *end)?.first() as i64;
                self.inst.dyn_iters += (hi - lo).max(0) as u64;
                let mut v = lo;
                while v < hi {
                    self.set_reg(regs, *var, Block::scalar(v as f64));
                    self.run_nodes(body, regs, pid, args)?;
                    v += 1;
                }
            }
        }
        Ok(())
    }

    fn exec_binary(
        &mut self,
        regs: &mut [Option<Block>],
        dst: Reg,
        op: insum_kernel::BinOp,
        a: Reg,
        b: Reg,
    ) -> Result<(), GpuError> {
        // Accumulator fast path (`acc = acc <op> v`): mutate the
        // destination's own buffer when it is the sole owner — no copy,
        // no register churn.
        if dst == a && a != b {
            let mut av = regs[a].take().ok_or(GpuError::UninitializedRegister(a))?;
            let done = {
                let bv = Self::reg(regs, b)?;
                Block::binary_assign(op, &mut av, bv)
            };
            if done {
                self.inst.flops_scalar += av.len() as u64;
                regs[dst] = Some(av);
                return Ok(());
            }
            let buf = self.alloc();
            let out = {
                let bv = Self::reg(regs, b)?;
                Block::binary_with(op, &av, bv, buf)
            };
            self.inst.flops_scalar += out.len() as u64;
            if let Some(old) = av.reclaim() {
                self.pool.push(old);
            }
            regs[dst] = Some(out);
            return Ok(());
        }
        let scalar = {
            let av = Self::reg(regs, a)?;
            let bv = Self::reg(regs, b)?;
            Block::try_scalar_binary(op, av, bv)
        };
        if let Some(out) = scalar {
            self.inst.flops_scalar += 1;
            self.set_reg(regs, dst, out);
            return Ok(());
        }
        let buf = self.alloc();
        let out = {
            let av = Self::reg(regs, a)?;
            let bv = Self::reg(regs, b)?;
            Block::binary_with(op, av, bv, buf)
        };
        self.inst.flops_scalar += out.len() as u64;
        self.set_reg(regs, dst, out);
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_load(
        &mut self,
        regs: &[Option<Block>],
        param: usize,
        offset: Reg,
        mask: Option<Reg>,
        other: f64,
        site: u32,
        args: &ArgsView<'_, '_>,
    ) -> Result<Block, GpuError> {
        let off = Self::reg(regs, offset)?;
        let mb = match mask {
            Some(m) => Some(Self::reg(regs, m)?),
            None => None,
        };
        let joint = match mb {
            Some(m) => Shape4::joint(off.shape(), m.shape()),
            None => off.shape4(),
        };
        let rs = self.site_runs(site, param, off, mb, joint.as_slice(), false)?;
        // Float loads in Analytic mode read 0.0 on active lanes; metadata
        // (I32) loads always read real data so addresses stay exact.
        let data = (self.mode == Mode::Execute || self.program.params.dtypes[param] == DType::I32)
            .then(|| args.data(param));
        let out = if joint.as_slice().is_empty() {
            // Scalar loads (row-pointer reads and the like) need no
            // buffer at all — the result is an inline scalar.
            Block::scalar(match (rs.runs.first(), data) {
                (None, _) => other,
                (Some(r), Some(d)) => d[r.off as usize] as f64,
                (Some(_), None) => 0.0,
            })
        } else if data.is_none() && (mb.is_none() || other.to_bits() == 0) {
            // Every lane reads +0.0: a constant block costs one slot.
            Block::full_packed(joint, 0.0, self.alloc())
        } else {
            let mut buf = self.alloc();
            rs.gather(data, other, buf.vec());
            Block::from_packed(joint, buf)
        };
        self.runs = rs;
        Ok(out)
    }

    /// A store or atomic add: account the site, count atomic hits, and in
    /// Execute mode move the values run by run into the write sink.
    #[allow(clippy::too_many_arguments)]
    fn exec_write(
        &mut self,
        regs: &[Option<Block>],
        param: usize,
        offset: Reg,
        value: Reg,
        mask: Option<Reg>,
        site: u32,
        args: &mut ArgsView<'_, '_>,
        atomic: bool,
    ) -> Result<(), GpuError> {
        let off = Self::reg(regs, offset)?;
        let val = Self::reg(regs, value)?;
        let mb = match mask {
            Some(m) => Some(Self::reg(regs, m)?),
            None => None,
        };
        let mut joint = Shape4::joint(off.shape(), val.shape());
        if let Some(m) = mb {
            joint = Shape4::joint(joint.as_slice(), m.shape());
        }
        let joint = joint.as_slice();
        let rs = self.site_runs(site, param, off, mb, joint, true)?;
        if atomic {
            let counts = &mut self.atomic_counts[param];
            if counts.is_empty() {
                *counts = vec![0u64; self.program.params.lens[param]];
            }
            rs.count_hits(counts);
            self.inst.atomics += rs.active;
        }
        if self.mode == Mode::Execute {
            // Values in lane order: the register itself when it already
            // has the joint layout, else staged once.
            let mut staged = None;
            let scalar;
            let vals: &[f64] = match val.as_slice() {
                Some(v) if val.shape() == joint => v,
                _ if joint.is_empty() => {
                    scalar = [val.first()];
                    &scalar
                }
                _ => {
                    let mut b = self.alloc();
                    let v = b.vec();
                    v.clear();
                    val.broadcast_to(joint).walk(|x| v.push(x));
                    staged.insert(b).vec()
                }
            };
            match &mut self.sink {
                WriteSink::Direct => {
                    let round = self.program.params.dtypes[param] == DType::F16;
                    rs.write(args.data_mut(param), vals, atomic, round);
                }
                WriteSink::Log(log) => log.push(param, atomic, &rs, vals),
            }
            if let Some(b) = staged {
                self.pool.push(b);
            }
        }
        self.runs = rs;
        Ok(())
    }
}

/// The destination register of a cached (value-producing) instruction.
fn cached_dst(instr: &CInstr) -> Reg {
    match instr {
        CInstr::ProgramId { dst, .. }
        | CInstr::Const { dst, .. }
        | CInstr::Arange { dst, .. }
        | CInstr::Full { dst, .. }
        | CInstr::Binary { dst, .. }
        | CInstr::FusedBinary { dst, .. }
        | CInstr::ExpandDims { dst, .. }
        | CInstr::Broadcast { dst, .. }
        | CInstr::View { dst, .. }
        | CInstr::Trans { dst, .. }
        | CInstr::Load { dst, .. }
        | CInstr::Dot { dst, .. }
        | CInstr::Sum { dst, .. } => *dst,
        CInstr::Store { .. }
        | CInstr::AtomicAdd { .. }
        | CInstr::Loop { .. }
        | CInstr::LoopDyn { .. } => {
            unreachable!("stores and loops are never stream-cached")
        }
    }
}

/// One run of a site's active lanes: `len` lanes from lane `lane` (in
/// the logical row-major order of the joint shape) address the
/// consecutive elements `off, off + 1, …`. A lane that continues no run
/// — a scattered gather, a non-integer offset — is a run of length 1
/// whose `off` is the truncated offset, as the seed interpreter reads it.
#[derive(Clone, Copy)]
struct Run {
    lane: u32,
    len: u32,
    off: i64,
}

impl Run {
    /// The run's last element offset.
    #[inline]
    fn last(&self) -> i64 {
        self.off + self.len as i64 - 1
    }
}

/// One site execution as runs of active lanes, in lane order. Tiles are
/// rows of a base taken from metadata plus a contiguous column range, so
/// a `[R, C]` access is at most `R` runs: masked rows are skipped whole
/// and adjacent rows that continue each other merge.
#[derive(Default)]
struct RunSet {
    runs: Vec<Run>,
    /// Lanes in the joint shape, active or not.
    lanes: usize,
    /// Active lanes.
    active: u64,
    /// Every active offset is an integer (instance-class replay shifts
    /// offsets, which is only exact for integers).
    exact: bool,
    /// The last run can grow: its last offset `tail` is an integer.
    open: bool,
    tail: f64,
}

impl RunSet {
    /// Decompose the lanes of `off` (with `mask`) broadcast to `joint`.
    /// A mask that is constant along the last axis (`[R, 1]`, scalar)
    /// switches whole rows; any other mask is read lane by lane.
    fn build(&mut self, off: &Block, mask: Option<&Block>, joint: &[usize]) {
        self.runs.clear();
        self.exact = true;
        self.open = false;
        self.lanes = joint.iter().product();
        let width = joint.last().copied().unwrap_or(1);
        let offs = off.rows(joint);
        let mask = mask.map(|m| m.rows(joint));
        let rows = self.lanes.checked_div(width).unwrap_or(0);
        for r in 0..rows {
            let lane = r * width;
            let o = offs.start(r);
            match &mask {
                Some(m) if m.step == 0 && m.data[m.start(r)] == 0.0 => continue,
                Some(m) if m.step != 0 => {
                    let ms = m.start(r);
                    for c in 0..width {
                        if m.data[ms + c * m.step] != 0.0 {
                            self.push(lane + c, 1, offs.data[o + c * offs.step]);
                        }
                    }
                    continue;
                }
                _ => {}
            }
            if offs.step == 1 {
                self.push_row(lane, &offs.data[o..o + width]);
            } else {
                for c in 0..width {
                    self.push(lane + c, 1, offs.data[o + c * offs.step]);
                }
            }
        }
        self.active = self.runs.iter().map(|r| r.len as u64).sum();
    }

    /// Append a fully active row of offsets as maximal consecutive runs.
    fn push_row(&mut self, lane: usize, offs: &[f64]) {
        if exact_int(offs[0]) && consecutive(offs) {
            self.push(lane, offs.len(), offs[0]);
            return;
        }
        let mut c = 0;
        while c < offs.len() {
            let mut e = c + 1;
            if exact_int(offs[c]) {
                while e < offs.len() && offs[e] - offs[e - 1] == 1.0 {
                    e += 1;
                }
            }
            self.push(lane + c, e - c, offs[c]);
            c = e;
        }
    }

    /// Append `n` active lanes from `lane` addressing `off, off + 1, …`
    /// (`n > 1` only for an integer `off`), growing the last run when
    /// both its lanes and its offsets continue into these.
    #[inline]
    fn push(&mut self, lane: usize, n: usize, off: f64) {
        if self.open && off == self.tail + 1.0 {
            let last = self.runs.last_mut().expect("an open run exists");
            if last.lane as usize + last.len as usize == lane {
                last.len += n as u32;
                self.tail = off + (n - 1) as f64;
                return;
            }
        }
        let exact = exact_int(off);
        self.exact &= exact;
        self.open = exact;
        self.tail = off + (n - 1) as f64;
        self.runs.push(Run {
            lane: lane as u32,
            len: n as u32,
            off: off as i64,
        });
    }

    /// The first out-of-bounds active offset in lane order. Offsets rise
    /// along a run, so a run that starts in bounds first leaves them at
    /// exactly `len`.
    fn first_oob(&self, len: usize) -> Option<i64> {
        let len = len as u64;
        for r in &self.runs {
            if r.off as u64 >= len {
                return Some(r.off);
            }
            if r.last() as u64 >= len {
                return Some(len as i64);
            }
        }
        None
    }

    /// Warp-coalesced sector accounting: lanes chunk into warps of 32,
    /// each warp's active sectors dedup into L2 transactions (returned
    /// summed), and every touched sector enters the DRAM first-touch set.
    /// Elements are at most a sector wide, so the part of a run inside
    /// one warp touches exactly the sector range of its end elements.
    fn charge_sectors(&self, base: u64, esize: u64, seen: &mut SectorSet) -> u64 {
        let mut l2 = 0u64;
        let mut pieces = [(0u64, 0u64); WARP];
        let mut n = 0usize;
        let mut warp = usize::MAX;
        for r in &self.runs {
            let (mut lane, mut off, mut left) = (r.lane as usize, r.off, r.len as usize);
            while left > 0 {
                if lane / WARP != warp {
                    l2 += warp_sectors(&mut pieces[..n], seen);
                    n = 0;
                    warp = lane / WARP;
                }
                let take = left.min(WARP - lane % WARP);
                pieces[n] = (
                    sector_of(base, esize, off),
                    sector_of(base, esize, off + take as i64 - 1),
                );
                n += 1;
                lane += take;
                off += take as i64;
                left -= take;
            }
        }
        l2 + warp_sectors(&mut pieces[..n], seen)
    }

    /// Add one hit per active lane to the per-address atomic counts.
    fn count_hits(&self, counts: &mut [u64]) {
        for r in &self.runs {
            for c in &mut counts[r.off as usize..=r.last() as usize] {
                *c += 1;
            }
        }
    }

    /// Gather into `out` (joint volume, lane order): active lanes read
    /// `data` (0.0 when `None`), inactive lanes hold `other`.
    fn gather(&self, data: Option<&[f32]>, other: f64, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.lanes);
        for r in &self.runs {
            out.resize(r.lane as usize, other);
            let (o, n) = (r.off as usize, r.len as usize);
            match data {
                Some(d) => out.extend(d[o..o + n].iter().map(|&x| x as f64)),
                None => out.resize(out.len() + n, 0.0),
            }
        }
        out.resize(self.lanes, other);
    }

    /// Write `vals` (lane order) into `data` run by run: plain stores or
    /// atomic adds, in lane order.
    fn write(&self, data: &mut [f32], vals: &[f64], atomic: bool, round: bool) {
        for r in &self.runs {
            let (o, l, n) = (r.off as usize, r.lane as usize, r.len as usize);
            apply_run(
                &mut data[o..o + n],
                vals[l..l + n].iter().map(|&v| v as f32),
                atomic,
                round,
            );
        }
    }
}

/// Apply one run of `f32` write values to consecutive slots: stores, or
/// atomic adds (`slot + v`), rounded to half precision for F16 tensors.
#[inline]
fn apply_run(slots: &mut [f32], vals: impl Iterator<Item = f32>, atomic: bool, round: bool) {
    for (slot, v) in slots.iter_mut().zip(vals) {
        let x = if atomic { *slot + v } else { v };
        *slot = if round { insum_tensor::f16_round(x) } else { x };
    }
}

/// The sector holding element `off` of a parameter.
#[inline]
fn sector_of(base: u64, esize: u64, off: i64) -> u64 {
    (base + off as u64 * esize) / SECTOR
}

/// An integer offset below 2^53: f64 steps of exactly 1.0 from it stay
/// integers, and it converts to `i64` exactly.
#[inline]
fn exact_int(o: f64) -> bool {
    o.fract() == 0.0 && o.abs() < 9.0e15
}

/// True when the offsets are `offs[0] + [0, 1, 2, ...]`. Branchless
/// difference fold (no int-to-float conversions) so the probe
/// vectorizes; exact for integers below 2^53.
#[inline]
fn consecutive(offs: &[f64]) -> bool {
    let mut ok = true;
    for t in 1..offs.len() {
        ok &= offs[t] - offs[t - 1] == 1.0;
    }
    ok
}

/// One warp's L2 transactions: the distinct sectors in its pieces
/// (inclusive sector ranges, one per run part), each inserted into the
/// first-touch set. Pieces nearly always arrive sorted; only a crooked
/// warp pays for a sort.
#[inline]
fn warp_sectors(pieces: &mut [(u64, u64)], seen: &mut SectorSet) -> u64 {
    if pieces.windows(2).any(|w| w[1].0 < w[0].0) {
        pieces.sort_unstable();
    }
    let mut uniq = 0u64;
    // First sector not yet counted.
    let mut next = 0u64;
    for &(lo, hi) in pieces.iter() {
        let lo = lo.max(next);
        if lo <= hi {
            for sec in lo..=hi {
                seen.insert(sec);
            }
            uniq += hi - lo + 1;
            next = hi + 1;
        }
    }
    uniq
}

/// Grid coordinates of a flat instance id (x fastest, matching the seed
/// interpreter's `iz`/`iy`/`ix` loop nest).
#[inline]
fn pid_of(flat: usize, gdims: [usize; 3]) -> [usize; 3] {
    [
        flat % gdims[0],
        (flat / gdims[0]) % gdims[1],
        flat / (gdims[0] * gdims[1]),
    ]
}

/// Per-instance time on one SM (the seed cost model, verbatim).
fn instance_time(device: &DeviceModel, c: &InstCost) -> f64 {
    let mem = 32.0 * (c.l2_read_sectors + c.l2_write_sectors) as f64 / device.per_sm(device.l2_bw);
    let compute = c.flops_tc_f16 as f64 / device.per_sm(device.tc_f16_flops)
        + c.flops_tc_f32 as f64 / device.per_sm(device.tc_f32_flops)
        + c.flops_scalar as f64 / device.per_sm(device.alu_flops)
        + c.smem_bytes as f64 / device.per_sm(device.smem_bw);
    device.instr_issue * c.instructions as f64
        + device.dyn_loop_stall * c.dyn_iters as f64
        + mem.max(compute)
}

/// True when every parameter the kernel writes (Store/AtomicAdd) is never
/// loaded — the condition under which Execute-mode instances can run out
/// of order with their writes replayed later.
#[cfg(test)]
fn kernel_allows_parallel_execute(kernel: &Kernel) -> bool {
    insum_kernel::param_usage(kernel).no_read_write_params()
}

/// Launch a kernel on the simulated device with default scheduling.
///
/// `args` bind positionally to `kernel.params`. In [`Mode::Execute`] the
/// written parameters are mutated in place; in [`Mode::Analytic`] no
/// tensor is modified but all counters (and the returned timing) are
/// identical.
///
/// # Errors
///
/// * [`GpuError::Kernel`] if the kernel fails validation.
/// * [`GpuError::ParamCountMismatch`] / [`GpuError::BadGrid`] on binding
///   errors.
/// * [`GpuError::OffsetOutOfBounds`] if any active lane addresses outside
///   its parameter (this catches codegen bugs; real GPUs would corrupt
///   memory). On error, output tensors are in an unspecified state.
pub fn launch(
    kernel: &Kernel,
    grid: &[usize],
    args: &mut [&mut Tensor],
    device: &DeviceModel,
    mode: Mode,
) -> Result<KernelReport, GpuError> {
    launch_with(kernel, grid, args, device, mode, &LaunchOptions::default())
}

/// [`launch`] with explicit instance-scheduling options.
///
/// Results — output tensors, [`KernelStats`], and timing — are
/// bit-identical for every thread configuration; see [`LaunchOptions`]
/// for how that is guaranteed.
///
/// Internally this compiles the kernel into a [`Program`] and launches
/// it; callers that re-launch the same kernel and shapes should compile
/// once with [`Program::compile`] (or use `insum_inductor`'s program
/// cache) and call [`Program::launch_with`] directly.
///
/// # Errors
///
/// Same conditions as [`launch`].
pub fn launch_with(
    kernel: &Kernel,
    grid: &[usize],
    args: &mut [&mut Tensor],
    device: &DeviceModel,
    mode: Mode,
    options: &LaunchOptions,
) -> Result<KernelReport, GpuError> {
    kernel.validate()?;
    if args.len() != kernel.params.len() {
        return Err(GpuError::ParamCountMismatch {
            expected: kernel.params.len(),
            actual: args.len(),
        });
    }
    let lens: Vec<usize> = args.iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = args.iter().map(|t| t.dtype()).collect();
    let program = Program::compile(kernel, grid, &lens, &dtypes)?;
    program.launch_with(args, device, mode, options)
}

impl Program {
    /// Launch this compiled program with default scheduling. See
    /// [`launch`] for semantics; results are bit-identical to launching
    /// the original kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`launch`] (validation and grid errors are
    /// caught at compile time instead).
    ///
    /// # Panics
    ///
    /// Panics if an argument's length or dtype differs from the metadata
    /// the program was compiled with.
    pub fn launch(
        &self,
        args: &mut [&mut Tensor],
        device: &DeviceModel,
        mode: Mode,
    ) -> Result<KernelReport, GpuError> {
        self.launch_with(args, device, mode, &LaunchOptions::default())
    }

    /// [`Program::launch`] with explicit instance-scheduling options.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Program::launch`].
    ///
    /// # Panics
    ///
    /// Panics if an argument's length or dtype differs from the metadata
    /// the program was compiled with.
    pub fn launch_with(
        &self,
        args: &mut [&mut Tensor],
        device: &DeviceModel,
        mode: Mode,
        options: &LaunchOptions,
    ) -> Result<KernelReport, GpuError> {
        // Profiling hook: one launch interval per top-level launch
        // (nested same-phase guards are suppressed, so the n==1
        // delegation from `launch_batch_with` records once). Inert — a
        // single relaxed atomic load — unless a collector is installed.
        let _launch_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Launch);
        if args.len() != self.param_names.len() {
            return Err(GpuError::ParamCountMismatch {
                expected: self.param_names.len(),
                actual: args.len(),
            });
        }
        for (i, t) in args.iter().enumerate() {
            assert!(
                t.len() == self.params.lens[i] && t.dtype() == self.params.dtypes[i],
                "argument {i} does not match the metadata this program was compiled with"
            );
        }
        let gdims = self.gdims;
        let instances = self.instances;

        let threads = options.resolve_threads().min(instances.max(1));
        let parallel = threads > 1
            && instances >= options.min_parallel_instances.max(2)
            && (mode == Mode::Analytic || self.parallel_execute_ok);
        let dedup =
            mode == Mode::Analytic && options.analytic_dedup && self.dedup_ok && gdims[0] > 1;

        let (stats_sums, read_seen, write_seen, atomic_counts, instance_times) = if !parallel {
            // Sequential path: one machine, direct writes.
            let mut machine = Machine::new(self, mode, WriteSink::Direct);
            let mut regs: Vec<Option<Block>> = vec![None; self.num_regs];
            let mut view = ArgsView::Exclusive(&mut *args);
            let mut instance_times = Vec::with_capacity(instances);
            machine
                .run_range(
                    0,
                    instances,
                    gdims,
                    &mut regs,
                    &mut view,
                    device,
                    dedup,
                    &mut instance_times,
                )
                .map_err(|(_, e)| e)?;
            (
                machine.stats,
                machine.dram_read_seen,
                machine.dram_write_seen,
                machine.atomic_counts,
                instance_times,
            )
        } else {
            // Parallel path: contiguous shards, deterministic merge.
            let shared: Vec<&Tensor> = args.iter().map(|t| &**t).collect();
            let nshards = threads.min(instances);
            let chunk = instances.div_ceil(nshards);
            struct Shard {
                stats: KernelStats,
                read: SectorSet,
                write: SectorSet,
                counts: Vec<Vec<u64>>,
                times: Vec<f64>,
                log: WriteLog,
            }
            type ShardResult = Result<Shard, (usize, GpuError)>;
            let shard_results: Vec<ShardResult> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..nshards)
                    .map(|si| {
                        let shared = &shared;
                        scope.spawn(move || -> ShardResult {
                            let sink = match mode {
                                Mode::Execute => WriteSink::Log(WriteLog::default()),
                                Mode::Analytic => WriteSink::Direct, // never writes
                            };
                            let mut m = Machine::new(self, mode, sink);
                            let mut regs: Vec<Option<Block>> = vec![None; self.num_regs];
                            let mut view = ArgsView::Shared(shared);
                            let lo = (si * chunk).min(instances);
                            let hi = ((si + 1) * chunk).min(instances);
                            let mut times = Vec::with_capacity(hi - lo);
                            m.run_range(
                                lo, hi, gdims, &mut regs, &mut view, device, dedup, &mut times,
                            )?;
                            let log = match m.sink {
                                WriteSink::Log(log) => log,
                                WriteSink::Direct => WriteLog::default(),
                            };
                            Ok(Shard {
                                stats: m.stats,
                                read: m.dram_read_seen,
                                write: m.dram_write_seen,
                                counts: m.atomic_counts,
                                times,
                                log,
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("simulator shard panicked"))
                    .collect()
            });

            // First error in instance order wins (shards cover ordered,
            // disjoint ranges, so the first erroring shard holds it).
            let mut shards = Vec::with_capacity(nshards);
            for r in shard_results {
                match r {
                    Ok(s) => shards.push(s),
                    Err((_, e)) => return Err(e),
                }
            }

            let mut stats = KernelStats::default();
            let mut read_seen = SectorSet::new(self.params.total_sectors);
            let mut write_seen = SectorSet::new(self.params.total_sectors);
            let mut counts: Vec<Vec<u64>> = vec![Vec::new(); self.params.lens.len()];
            let mut instance_times = Vec::with_capacity(instances);
            for shard in &shards {
                stats.l2_read_sectors += shard.stats.l2_read_sectors;
                stats.l2_write_sectors += shard.stats.l2_write_sectors;
                stats.flops_tc_f16 += shard.stats.flops_tc_f16;
                stats.flops_tc_f32 += shard.stats.flops_tc_f32;
                stats.flops_scalar += shard.stats.flops_scalar;
                stats.smem_bytes += shard.stats.smem_bytes;
                stats.atomics += shard.stats.atomics;
                stats.instructions += shard.stats.instructions;
                read_seen.union(&shard.read);
                write_seen.union(&shard.write);
                for (p, c) in shard.counts.iter().enumerate() {
                    if c.is_empty() {
                        continue;
                    }
                    if counts[p].is_empty() {
                        counts[p] = vec![0u64; self.params.lens[p]];
                    }
                    for (acc, &v) in counts[p].iter_mut().zip(c) {
                        *acc += v;
                    }
                }
                instance_times.extend_from_slice(&shard.times);
            }

            // Replay Execute-mode writes in instance order: bit-identical
            // to the sequential interleaving because shards are ordered
            // and written parameters are never read back by the kernel.
            // Replay runs per written parameter — distinct parameters
            // never alias, so their relative write order is immaterial —
            // which binds each output's copy-on-write storage exactly
            // once instead of re-checking uniqueness on every logged run.
            // The marking pass costs one scan of the run headers and
            // keeps materialization exact (only params with logged
            // writes are bound); kernels write one or two params, so the
            // per-param filtered replay stays within a small constant of
            // a single interleaved pass.
            if mode == Mode::Execute {
                let mut touched = vec![false; self.params.lens.len()];
                for shard in &shards {
                    for w in &shard.log.runs {
                        touched[w.param as usize] = true;
                    }
                }
                for (p, _) in touched.iter().enumerate().filter(|&(_, &t)| t) {
                    let round = self.params.dtypes[p] == DType::F16;
                    let data = args[p].data_mut();
                    for shard in &shards {
                        shard.log.replay(p, data, round);
                    }
                }
            }
            (stats, read_seen, write_seen, counts, instance_times)
        };

        let mut stats = stats_sums;
        stats.instances = instances as u64;
        stats.dram_read_sectors = read_seen.count();
        stats.dram_write_sectors = write_seen.count();
        let mut conflicts = 0u64;
        let mut max_chain = 0u64;
        for counts in &atomic_counts {
            for &c in counts {
                if c > 0 {
                    conflicts += c - 1;
                    max_chain = max_chain.max(c - 1);
                }
            }
        }
        stats.atomic_conflicts = conflicts;

        // Atomics to distinct addresses pipeline across the L2 slices
        // (throughput term); only the longest same-address chain
        // serializes (latency term).
        let dram_time = stats.dram_bytes() as f64 / device.dram_bw
            + stats.atomics as f64 / device.atomic_rate
            + max_chain as f64 * device.atomic_conflict_penalty;
        let (time, sm_time, dram_time) = combine_times(device, &instance_times, dram_time);
        let max_instance_time = instance_times.iter().copied().fold(0.0, f64::max);

        Ok(KernelReport {
            name: self.name.clone(),
            grid: self.grid.clone(),
            stats,
            time,
            sm_time,
            dram_time,
            max_instance_time,
        })
    }

    /// Launch this program once per request of a batch, sharing one pool
    /// of host threads across the whole batch instead of scheduling each
    /// request separately.
    ///
    /// Each element of `batch` is one request's argument list (same
    /// layout as [`Program::launch_with`]); all requests must match the
    /// metadata this program was compiled with. The thread budget in
    /// `options` is split across the batch: requests are distributed over
    /// the workers in contiguous chunks, and any leftover budget shards
    /// the grid-instance loop *inside* each request exactly as
    /// [`Program::launch_with`] would.
    ///
    /// Requests are independent — each owns its tensor handles — so
    /// request-level parallelism needs no write-log merge and is safe
    /// even for Execute-mode kernels whose cross-instance hazards force
    /// the intra-request loop sequential. Handles across requests may
    /// share copy-on-write storage (batched serving binds one buffer for
    /// operands shared by every request); a request's first write
    /// materializes its own private output, so workers never race. Every request's output tensors
    /// and [`KernelReport`] are bit-identical to a serial per-request
    /// [`Program::launch_with`] call, regardless of batch composition or
    /// thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Program::launch_with`]; if several requests
    /// fail, the error of the smallest request index is returned (and the
    /// whole batch's outputs are in an unspecified state).
    ///
    /// # Panics
    ///
    /// Panics if any request's argument lengths or dtypes differ from the
    /// metadata this program was compiled with.
    pub fn launch_batch_with(
        &self,
        batch: &mut [&mut [&mut Tensor]],
        device: &DeviceModel,
        mode: Mode,
        options: &LaunchOptions,
    ) -> Result<Vec<KernelReport>, GpuError> {
        // One launch interval covers the whole batched launch (the
        // per-request `launch_with` guards inside are suppressed as
        // nested same-phase spans).
        let _launch_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Launch);
        let n = batch.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if n == 1 {
            return Ok(vec![self.launch_with(
                &mut *batch[0],
                device,
                mode,
                options,
            )?]);
        }
        let total = options.resolve_threads();
        if total <= 1 {
            let seq = LaunchOptions {
                threads: Some(1),
                ..options.clone()
            };
            let mut out = Vec::with_capacity(n);
            for args in batch.iter_mut() {
                out.push(self.launch_with(args, device, mode, &seq)?);
            }
            return Ok(out);
        }
        // Contiguous request chunks, one worker each; the remaining
        // thread budget is spread over the workers (first `rem` workers
        // get one extra) and shards the grid-instance loop *inside*
        // their requests, so the whole budget is used. The split only
        // affects scheduling — per-request results are bit-identical at
        // every configuration.
        let chunk = n.div_ceil(total.min(n));
        let workers = n.div_ceil(chunk);
        let (base, rem) = (total / workers, total % workers);
        type ChunkResult = Result<Vec<KernelReport>, (usize, GpuError)>;
        let chunk_results: Vec<ChunkResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .chunks_mut(chunk)
                .enumerate()
                .map(|(ci, requests)| {
                    let inner = LaunchOptions {
                        threads: Some((base + usize::from(ci < rem)).max(1)),
                        ..options.clone()
                    };
                    scope.spawn(move || -> ChunkResult {
                        let mut reports = Vec::with_capacity(requests.len());
                        for (ri, args) in requests.iter_mut().enumerate() {
                            reports.push(
                                self.launch_with(args, device, mode, &inner)
                                    .map_err(|e| (ci * chunk + ri, e))?,
                            );
                        }
                        Ok(reports)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        });
        let mut first_err: Option<(usize, GpuError)> = None;
        let mut out = Vec::with_capacity(n);
        for r in chunk_results {
            match r {
                Ok(reports) => out.extend(reports),
                Err((i, e)) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(out),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::launch_reference;
    use insum_kernel::{BinOp, KernelBuilder};

    fn device() -> DeviceModel {
        DeviceModel::rtx3090()
    }

    /// y[i] = 2 * x[i] over a 64-element vector, 32 lanes per program.
    fn axpy_kernel() -> Kernel {
        let mut b = KernelBuilder::new("axpy");
        let x = b.input("X");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let lanes = b.arange(32);
        let width = b.constant(32.0);
        let base = b.binary(BinOp::Mul, pid, width);
        let offs = b.binary(BinOp::Add, base, lanes);
        let v = b.load(x, offs, None, 0.0);
        let two = b.constant(2.0);
        let v2 = b.binary(BinOp::Mul, v, two);
        b.store(y, offs, v2, None);
        b.build()
    }

    #[test]
    fn execute_computes_values() {
        let mut x = Tensor::from_fn(vec![64], |i| i[0] as f32);
        let mut y = Tensor::zeros(vec![64]);
        let report = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(y.at(&[10]), 20.0);
        assert_eq!(y.at(&[63]), 126.0);
        assert_eq!(report.stats.instances, 2);
        assert!(report.time > 0.0);
    }

    #[test]
    fn analytic_counts_match_execute_but_skips_writes() {
        let mut x = Tensor::from_fn(vec![64], |i| i[0] as f32);
        let mut y1 = Tensor::zeros(vec![64]);
        let mut y2 = Tensor::zeros(vec![64]);
        let r1 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y1],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        let r2 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y2],
            &device(),
            Mode::Analytic,
        )
        .unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.time, r2.time);
        assert!(
            y2.data().iter().all(|&v| v == 0.0),
            "analytic mode must not write"
        );
    }

    #[test]
    fn coalesced_load_sector_count() {
        // 64 contiguous f32 = 256 bytes = 8 sectors read; same written.
        let mut x = Tensor::zeros(vec![64]);
        let mut y = Tensor::zeros(vec![64]);
        let r = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 8);
        assert_eq!(r.stats.dram_read_sectors, 8);
        assert_eq!(r.stats.l2_write_sectors, 8);
    }

    #[test]
    fn strided_access_costs_more_sectors() {
        // Gather x[8*i] for 32 lanes: each lane lands in its own sector.
        let mut b = KernelBuilder::new("strided");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let stride = b.constant(8.0);
        let offs = b.binary(BinOp::Mul, lanes, stride);
        let v = b.load(x, offs, None, 0.0);
        b.store(y, lanes, v, None);
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![256]);
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 32, "one sector per strided lane");
    }

    #[test]
    fn repeated_loads_hit_l2_not_dram() {
        // Two programs load the same 32 elements.
        let mut b = KernelBuilder::new("reuse");
        let x = b.input("X");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let lanes = b.arange(32);
        let v = b.load(x, lanes, None, 0.0);
        let width = b.constant(32.0);
        let base = b.binary(BinOp::Mul, pid, width);
        let offs = b.binary(BinOp::Add, base, lanes);
        b.store(y, offs, v, None);
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![32]);
        let mut y_t = Tensor::zeros(vec![64]);
        let r = launch(
            &k,
            &[2],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 8, "both programs read 4 sectors");
        assert_eq!(r.stats.dram_read_sectors, 4, "DRAM sees the data once");
    }

    #[test]
    fn masked_lanes_generate_no_traffic() {
        let mut b = KernelBuilder::new("masked");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let bound = b.constant(8.0);
        let mask = b.binary(BinOp::Lt, lanes, bound);
        let v = b.load(x, lanes, Some(mask), 0.0);
        b.store(y, lanes, v, Some(mask));
        let k = b.build();
        let mut x_t = Tensor::from_fn(vec![32], |i| i[0] as f32);
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 1, "8 f32 = 1 sector");
        assert_eq!(y_t.at(&[7]), 7.0);
        assert_eq!(y_t.at(&[8]), 0.0);
    }

    #[test]
    fn masked_out_of_bounds_is_safe() {
        // Lanes beyond the tensor are masked off; no error.
        let mut b = KernelBuilder::new("tailmask");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let bound = b.constant(10.0);
        let mask = b.binary(BinOp::Lt, lanes, bound);
        let v = b.load(x, lanes, Some(mask), 0.0);
        b.store(y, lanes, v, Some(mask));
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![10]);
        let mut y_t = Tensor::zeros(vec![10]);
        launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
    }

    #[test]
    fn unmasked_out_of_bounds_reported() {
        let mut b = KernelBuilder::new("oob");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let v = b.load(x, lanes, None, 0.0);
        b.store(y, lanes, v, None);
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![10]);
        let mut y_t = Tensor::zeros(vec![32]);
        assert!(matches!(
            launch(
                &k,
                &[1],
                &mut [&mut x_t, &mut y_t],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::OffsetOutOfBounds { .. })
        ));
    }

    #[test]
    fn atomic_conflicts_are_counted() {
        // All 32 lanes atomically add 1.0 to Y[0].
        let mut b = KernelBuilder::new("conflict");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let zero = b.constant(0.0);
        let offs = b.binary(BinOp::Mul, lanes, zero);
        let one = b.constant(1.0);
        let ones = b.binary(BinOp::Add, offs, one); // block of 1.0
        b.atomic_add(y, offs, ones, None);
        let k = b.build();
        let mut y_t = Tensor::zeros(vec![4]);
        let r = launch(&k, &[1], &mut [&mut y_t], &device(), Mode::Execute).unwrap();
        assert_eq!(y_t.at(&[0]), 32.0);
        assert_eq!(r.stats.atomics, 32);
        assert_eq!(r.stats.atomic_conflicts, 31);
    }

    #[test]
    fn atomics_to_distinct_addresses_do_not_conflict() {
        let mut b = KernelBuilder::new("noconflict");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let vals = b.binary(BinOp::Mul, lanes, zero);
        let vals1 = b.binary(BinOp::Add, vals, one);
        b.atomic_add(y, lanes, vals1, None);
        let k = b.build();
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(&k, &[1], &mut [&mut y_t], &device(), Mode::Execute).unwrap();
        assert_eq!(r.stats.atomic_conflicts, 0);
        assert!(y_t.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn dot_counts_tensor_core_flops_by_dtype() {
        let mut b = KernelBuilder::new("dot");
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.output("C");
        let offs_a = b.arange(16 * 8);
        let a2 = b.load(a, offs_a, None, 0.0);
        let a2v = b.view(a2, vec![16, 8]);
        let offs_b = b.arange(8 * 16);
        let b2 = b.load(bb, offs_b, None, 0.0);
        let b2v = b.view(b2, vec![8, 16]);
        let d = b.dot(a2v, b2v);
        let offs_c = b.arange(16 * 16);
        let dflat = b.view(d, vec![256]);
        b.store(c, offs_c, dflat, None);
        let k = b.build();

        let mut a_t = Tensor::ones(vec![16, 8]);
        let mut b_t = Tensor::ones(vec![8, 16]);
        let mut c_t = Tensor::zeros(vec![16, 16]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut a_t, &mut b_t, &mut c_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.flops_tc_f32, 2 * 16 * 8 * 16);
        assert_eq!(r.stats.flops_tc_f16, 0);
        assert_eq!(c_t.at(&[0, 0]), 8.0);

        // Same kernel with f16 inputs charges the f16 pipe.
        let mut a_h = Tensor::ones(vec![16, 8]).cast(DType::F16);
        let mut b_h = Tensor::ones(vec![8, 16]).cast(DType::F16);
        let mut c_h = Tensor::zeros(vec![16, 16]).cast(DType::F16);
        let r2 = launch(
            &k,
            &[1],
            &mut [&mut a_h, &mut b_h, &mut c_h],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r2.stats.flops_tc_f16, 2 * 16 * 8 * 16);
        assert_eq!(r2.stats.flops_tc_f32, 0);
    }

    #[test]
    fn f16_tensors_move_fewer_bytes() {
        let mut x32 = Tensor::zeros(vec![64]);
        let mut y32 = Tensor::zeros(vec![64]);
        let r32 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x32, &mut y32],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        let mut x16 = Tensor::zeros(vec![64]).cast(DType::F16);
        let mut y16 = Tensor::zeros(vec![64]).cast(DType::F16);
        let r16 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x16, &mut y16],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert!(r16.stats.dram_bytes() < r32.stats.dram_bytes());
    }

    #[test]
    fn loop_accumulates() {
        // y[0..32] = sum over 4 chunks of x.
        let mut b = KernelBuilder::new("loopsum");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let acc = b.full(vec![32], 0.0);
        let i = b.begin_loop(0, 4, 1);
        let width = b.constant(32.0);
        let base = b.binary(BinOp::Mul, i, width);
        let offs = b.binary(BinOp::Add, base, lanes);
        let v = b.load(x, offs, None, 0.0);
        b.binary_into(acc, BinOp::Add, acc, v);
        b.end_loop();
        b.store(y, lanes, acc, None);
        let k = b.build();
        let mut x_t = Tensor::ones(vec![128]);
        let mut y_t = Tensor::zeros(vec![32]);
        launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert!(y_t.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn param_count_mismatch_reported() {
        let mut x = Tensor::zeros(vec![64]);
        assert!(matches!(
            launch(
                &axpy_kernel(),
                &[1],
                &mut [&mut x],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::ParamCountMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn bad_grid_reported() {
        let mut x = Tensor::zeros(vec![64]);
        let mut y = Tensor::zeros(vec![64]);
        assert!(matches!(
            launch(
                &axpy_kernel(),
                &[],
                &mut [&mut x, &mut y],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::BadGrid(_))
        ));
        assert!(matches!(
            launch(
                &axpy_kernel(),
                &[0],
                &mut [&mut x, &mut y],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::BadGrid(_))
        ));
    }

    #[test]
    fn smem_traffic_charged_for_view_and_trans() {
        let mut b = KernelBuilder::new("smem");
        let x = b.input("X");
        let y = b.output("Y");
        let offs = b.arange(64);
        let v = b.load(x, offs, None, 0.0);
        let v2 = b.view(v, vec![8, 8]);
        let v3 = b.trans(v2);
        let v4 = b.view(v3, vec![64]);
        b.store(y, offs, v4, None);
        let k = b.build();
        let mut x_t = Tensor::from_fn(vec![64], |i| i[0] as f32);
        let mut y_t = Tensor::zeros(vec![64]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.smem_bytes, 3 * 64 * 4);
        // Transposed copy really happened.
        assert_eq!(y_t.at(&[1]), 8.0);
    }

    #[test]
    fn straggler_dominates_kernel_time() {
        // Program 0 loops 256 times, programs 1..64 do nothing much.
        let mut b = KernelBuilder::new("skew");
        let x = b.input("X");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let zero = b.constant(0.0);
        let is_zero = b.binary(BinOp::Eq, pid, zero);
        let iters = b.constant(256.0);
        let my_iters = b.binary(BinOp::Mul, is_zero, iters);
        let lanes = b.arange(32);
        let acc = b.full(vec![32], 0.0);
        let i = b.begin_loop(0, 256, 1);
        let live = b.binary(BinOp::Lt, i, my_iters);
        let v = b.load(x, lanes, Some(live), 0.0);
        b.binary_into(acc, BinOp::Add, acc, v);
        b.end_loop();
        b.store(y, lanes, acc, None);
        let k = b.build();
        let mut x_t = Tensor::ones(vec![32]);
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(
            &k,
            &[64],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        // The longest instance is far above the mean.
        assert!(r.max_instance_time > 10.0 * r.sm_time / 64.0);
        assert!(r.sm_time >= r.max_instance_time);
    }

    /// A gather/scale/scatter kernel with a masked tail — exercises loads,
    /// masks, atomics, and integer metadata in one program.
    fn scatter_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("scatter");
        let x = b.input("X");
        let idx = b.input("IDX");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let w = b.constant(32.0);
        let base = b.binary(BinOp::Mul, pid, w);
        let lanes = b.arange(32);
        let flat = b.binary(BinOp::Add, base, lanes);
        let n_c = b.constant(n as f64);
        let mask = b.binary(BinOp::Lt, flat, n_c);
        let v = b.load(x, flat, Some(mask), 0.0);
        let s = b.constant(1.5);
        let sv = b.binary(BinOp::Mul, v, s);
        let j = b.load(idx, flat, Some(mask), 0.0);
        b.atomic_add(y, j, sv, Some(mask));
        b.build()
    }

    #[test]
    fn matches_reference_interpreter_bit_for_bit() {
        let n = 300;
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let mk = || {
            (
                Tensor::from_fn(vec![n], |i| (i[0] % 13) as f32 - 6.0),
                Tensor::from_indices(vec![n], (0..n as i64).map(|i| i % 17).collect()).unwrap(),
                Tensor::zeros(vec![17]),
            )
        };
        for mode in [Mode::Execute, Mode::Analytic] {
            let (mut x1, mut i1, mut y1) = mk();
            let (mut x2, mut i2, mut y2) = mk();
            let r_new = launch(
                &kernel,
                &grid,
                &mut [&mut x1, &mut i1, &mut y1],
                &device(),
                mode,
            )
            .unwrap();
            let r_ref = launch_reference(
                &kernel,
                &grid,
                &mut [&mut x2, &mut i2, &mut y2],
                &device(),
                mode,
            )
            .unwrap();
            assert_eq!(r_new.stats, r_ref.stats, "{mode:?} stats diverge from seed");
            assert_eq!(r_new.time, r_ref.time, "{mode:?} time diverges from seed");
            assert_eq!(y1.data(), y2.data(), "{mode:?} outputs diverge from seed");
        }
    }

    #[test]
    fn forced_parallel_matches_sequential_bit_for_bit() {
        let n = 4096; // 128 instances
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let mk = || {
            (
                Tensor::from_fn(vec![n], |i| (i[0] % 29) as f32 * 0.25 - 3.0),
                Tensor::from_indices(vec![n], (0..n as i64).map(|i| (i * 7) % 33).collect())
                    .unwrap(),
                Tensor::zeros(vec![33]),
            )
        };
        for mode in [Mode::Execute, Mode::Analytic] {
            let (mut x1, mut i1, mut y1) = mk();
            let (mut x2, mut i2, mut y2) = mk();
            let seq = launch_with(
                &kernel,
                &grid,
                &mut [&mut x1, &mut i1, &mut y1],
                &device(),
                mode,
                &LaunchOptions::sequential(),
            )
            .unwrap();
            let mut par_opts = LaunchOptions::with_threads(5);
            par_opts.min_parallel_instances = 2;
            let par = launch_with(
                &kernel,
                &grid,
                &mut [&mut x2, &mut i2, &mut y2],
                &device(),
                mode,
                &par_opts,
            )
            .unwrap();
            assert_eq!(
                seq.stats, par.stats,
                "{mode:?} stats diverge under sharding"
            );
            assert_eq!(seq.time, par.time, "{mode:?} time diverges under sharding");
            assert_eq!(
                y1.data(),
                y2.data(),
                "{mode:?} outputs diverge under sharding"
            );
        }
    }

    #[test]
    fn batched_launch_matches_serial_per_request_bit_for_bit() {
        let n = 2048; // 64 instances per request
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let mk = |seed: usize| {
            (
                Tensor::from_fn(vec![n], |i| ((i[0] + 3 * seed) % 23) as f32 * 0.5 - 4.0),
                Tensor::from_indices(
                    vec![n],
                    (0..n as i64).map(|i| (i * 5 + seed as i64) % 29).collect(),
                )
                .unwrap(),
                Tensor::zeros(vec![29]),
            )
        };
        let lens = [n, n, 29];
        let dtypes = [DType::F32, DType::I32, DType::F32];
        let program = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let nreq = 7;
        for mode in [Mode::Execute, Mode::Analytic] {
            // Serial reference: one request at a time, sequential.
            let mut serial: Vec<(Tensor, Tensor, Tensor)> = (0..nreq).map(mk).collect();
            let serial_reports: Vec<KernelReport> = serial
                .iter_mut()
                .map(|(x, i, y)| {
                    program
                        .launch_with(
                            &mut [x, i, y],
                            &device(),
                            mode,
                            &LaunchOptions::sequential(),
                        )
                        .unwrap()
                })
                .collect();
            // Batched, at several thread budgets (1 = sequential path,
            // 3 = requests split unevenly, 16 = leftover budget shards
            // inside each request).
            for threads in [1usize, 3, 16] {
                let mut tensors: Vec<(Tensor, Tensor, Tensor)> = (0..nreq).map(mk).collect();
                let mut views: Vec<[&mut Tensor; 3]> = tensors
                    .iter_mut()
                    .map(|(x, i, y)| [&mut *x, &mut *i, &mut *y])
                    .collect();
                let mut reqs: Vec<&mut [&mut Tensor]> =
                    views.iter_mut().map(|v| v.as_mut_slice()).collect();
                let mut opts = LaunchOptions::with_threads(threads);
                opts.min_parallel_instances = 2;
                let reports = program
                    .launch_batch_with(&mut reqs, &device(), mode, &opts)
                    .unwrap();
                assert_eq!(reports, serial_reports, "{mode:?} @{threads} threads");
                for (got, want) in tensors.iter().zip(&serial) {
                    assert_eq!(got.2.data(), want.2.data(), "{mode:?} @{threads} threads");
                }
            }
        }
    }

    #[test]
    fn batched_launch_reports_first_erroring_request() {
        // Request 1 scatters out of bounds; the batch must surface its
        // error even when later requests are fine.
        let n = 64;
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let lens = [n, n, 17];
        let dtypes = [DType::F32, DType::I32, DType::F32];
        let program = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let mk = |bad: bool| {
            let idx = if bad {
                Tensor::from_indices(vec![n], (0..n as i64).map(|_| 99).collect()).unwrap()
            } else {
                Tensor::from_indices(vec![n], (0..n as i64).map(|i| i % 17).collect()).unwrap()
            };
            (Tensor::ones(vec![n]), idx, Tensor::zeros(vec![17]))
        };
        let mut tensors = [mk(false), mk(true), mk(false)];
        let mut views: Vec<[&mut Tensor; 3]> = tensors
            .iter_mut()
            .map(|(x, i, y)| [&mut *x, &mut *i, &mut *y])
            .collect();
        let mut reqs: Vec<&mut [&mut Tensor]> =
            views.iter_mut().map(|v| v.as_mut_slice()).collect();
        let err = program
            .launch_batch_with(
                &mut reqs,
                &device(),
                Mode::Execute,
                &LaunchOptions::with_threads(3),
            )
            .unwrap_err();
        assert!(matches!(err, GpuError::OffsetOutOfBounds { .. }));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let kernel = axpy_kernel();
        let program =
            Program::compile(&kernel, &[2], &[64, 64], &[DType::F32, DType::F32]).unwrap();
        let mut reqs: Vec<&mut [&mut Tensor]> = Vec::new();
        let reports = program
            .launch_batch_with(
                &mut reqs,
                &device(),
                Mode::Execute,
                &LaunchOptions::default(),
            )
            .unwrap();
        assert!(reports.is_empty());
    }

    #[test]
    fn execute_parallel_gated_on_read_write_params() {
        // A kernel that reads its own output must run sequentially; one
        // with a write-only output may parallelize.
        let mut b = KernelBuilder::new("rmw");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let v = b.load(y, lanes, None, 0.0);
        let one = b.constant(1.0);
        let v1 = b.binary(BinOp::Add, v, one);
        b.store(y, lanes, v1, None);
        let rmw = b.build();
        assert!(!kernel_allows_parallel_execute(&rmw));
        assert!(kernel_allows_parallel_execute(&axpy_kernel()));

        // The gate is behavioral, not just advisory: a read-modify-write
        // kernel still produces sequential results at high thread counts.
        let mut y_t = Tensor::zeros(vec![32]);
        let mut opts = LaunchOptions::with_threads(8);
        opts.min_parallel_instances = 2;
        launch_with(&rmw, &[4], &mut [&mut y_t], &device(), Mode::Execute, &opts).unwrap();
        assert!(
            y_t.data().iter().all(|&v| v == 4.0),
            "each instance increments by 1"
        );
    }

    /// `Y[IDX[r], :] = X[IDX[r], :] + 16 * IDX[r]` over a `[4, 16]` tile
    /// whose rows are switched on and off by an `[4, 1]` mask loaded from
    /// `LIVE`, the shape of the codegen's `arange(YB) < q` row mask. `Z`
    /// receives the loaded tile as is, masked lanes (`other = -1`)
    /// included.
    fn row_tile_kernel() -> Kernel {
        let mut b = KernelBuilder::new("rowtile");
        let x = b.input("X");
        let idx = b.input("IDX");
        let live = b.input("LIVE");
        let y = b.output("Y");
        let z = b.output("Z");
        let r = b.arange(4);
        let c = b.arange(16);
        let on = b.load(live, r, None, 0.0);
        let ids = b.load(idx, r, None, 0.0);
        let width = b.constant(16.0);
        let base = b.binary(BinOp::Mul, ids, width);
        let base2 = b.expand_dims(base, 1);
        let c2 = b.expand_dims(c, 0);
        let offs = b.binary(BinOp::Add, base2, c2);
        let on2 = b.expand_dims(on, 1);
        let v = b.load(x, offs, Some(on2), -1.0);
        let tagged = b.binary(BinOp::Add, v, base2);
        b.store(y, offs, tagged, Some(on2));
        let r2 = b.expand_dims(r, 1);
        let tile = b.binary(BinOp::Mul, r2, width);
        let local = b.binary(BinOp::Add, tile, c2);
        b.store(z, local, v, None);
        b.build()
    }

    /// Launch the row tile with row ids `ids` and row switches `live` on
    /// both interpreters (X and Y hold `x_len` elements); outputs must
    /// agree whenever the launch succeeds.
    fn row_tile_both(
        ids: [i64; 4],
        live: [i64; 4],
        x_len: usize,
    ) -> (
        Result<KernelReport, GpuError>,
        Result<KernelReport, GpuError>,
    ) {
        let kernel = row_tile_kernel();
        let mk = || {
            (
                Tensor::from_fn(vec![x_len], |i| i[0] as f32),
                Tensor::from_indices(vec![4], ids.to_vec()).unwrap(),
                Tensor::from_indices(vec![4], live.to_vec()).unwrap(),
                Tensor::zeros(vec![x_len]),
                Tensor::zeros(vec![64]),
            )
        };
        let (mut x1, mut i1, mut l1, mut y1, mut z1) = mk();
        let (mut x2, mut i2, mut l2, mut y2, mut z2) = mk();
        let new = launch(
            &kernel,
            &[1],
            &mut [&mut x1, &mut i1, &mut l1, &mut y1, &mut z1],
            &device(),
            Mode::Execute,
        );
        let old = launch_reference(
            &kernel,
            &[1],
            &mut [&mut x2, &mut i2, &mut l2, &mut y2, &mut z2],
            &device(),
            Mode::Execute,
        );
        if new.is_ok() {
            assert_eq!(y1.data(), y2.data(), "ids {ids:?} live {live:?}");
            assert_eq!(z1.data(), z2.data(), "ids {ids:?} live {live:?}");
        }
        (new, old)
    }

    #[test]
    fn out_of_bounds_in_active_row_matches_reference() {
        // Row 1 runs off the end of a 60-element X (first bad offset is
        // the length), starts past it, or starts below zero.
        for (ids, x_len, want) in [
            ([0i64, 3, 1, 0], 60, 60i64),
            ([0, 7, 1, 0], 64, 112),
            ([0, -2, 1, 0], 64, -32),
        ] {
            let (new, old) = row_tile_both(ids, [1, 1, 1, 0], x_len);
            assert_eq!(new, old, "ids {ids:?}");
            match new {
                Err(GpuError::OffsetOutOfBounds { param, offset, .. }) => {
                    assert_eq!((param.as_str(), offset), ("X", want), "ids {ids:?}");
                }
                other => panic!("ids {ids:?}: expected an out-of-bounds error, got {other:?}"),
            }
        }
    }

    #[test]
    fn out_of_bounds_in_masked_row_is_no_error() {
        // Row 3 is switched off, so its wild base is never touched.
        for wild in [99i64, -5, 4] {
            let (new, old) = row_tile_both([0, 2, 1, wild], [1, 1, 1, 0], 64);
            let (new, old) = (new.unwrap(), old.unwrap());
            assert_eq!(new.stats, old.stats);
            assert_eq!(new.time, old.time);
            // 3 rows of 2 sectors from X, plus IDX and LIVE.
            assert_eq!(new.stats.l2_read_sectors, 3 * 2 + 2);
            assert_eq!(new.stats.l2_write_sectors, 3 * 2 + 8, "Y rows + all of Z");
        }
    }

    #[test]
    fn masked_rows_split_runs_whose_offsets_continue() {
        // Row 2 continues row 0's offsets (16..32 after 0..16), but the
        // switched-off row 1 between them must keep them separate runs.
        for live in [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1]] {
            let (new, old) = row_tile_both([0, 3, 1, 2], live, 64);
            let (new, old) = (new.unwrap(), old.unwrap());
            assert_eq!(new.stats, old.stats, "live {live:?}");
            assert_eq!(new.time, old.time, "live {live:?}");
        }
    }

    #[test]
    fn fractional_offsets_truncate_like_the_seed() {
        // Offsets -0.5, 0.5, 1.5, ... step by exactly 1.0 but truncate to
        // 0, 0, 1, ...: they must not form a run from 0.
        let mut b = KernelBuilder::new("fractional");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let half = b.constant(0.5);
        let offs = b.binary(BinOp::Sub, lanes, half);
        let v = b.load(x, offs, None, 0.0);
        b.atomic_add(y, offs, v, None);
        b.store(y, lanes, v, None);
        let k = b.build();
        for mode in [Mode::Execute, Mode::Analytic] {
            let mk = || {
                (
                    Tensor::from_fn(vec![32], |i| i[0] as f32),
                    Tensor::zeros(vec![32]),
                )
            };
            let (mut x1, mut y1) = mk();
            let (mut x2, mut y2) = mk();
            let new = launch(&k, &[1], &mut [&mut x1, &mut y1], &device(), mode).unwrap();
            let old = launch_reference(&k, &[1], &mut [&mut x2, &mut y2], &device(), mode).unwrap();
            assert_eq!(new.stats, old.stats, "{mode:?}");
            assert_eq!(y1.data(), y2.data(), "{mode:?}");
        }
    }

    #[test]
    fn two_shard_overlapping_runs_replay_bit_for_bit() {
        // Four instances each atomically add a 2x16 tile to rows picked
        // by IDX; every instance hits row 0, so the shards' runs overlap.
        // Values per instance are 1e8, 1, -1e8, 1 (non-associative in
        // f32), and the F16 output gets them scaled into half range.
        let (rows, cols, inst) = (2usize, 16usize, 4usize);
        let mut b = KernelBuilder::new("overlap");
        let v = b.input("V");
        let idx = b.input("IDX");
        let y32 = b.output("Y32");
        let y16 = b.output("Y16");
        let pid = b.program_id(0);
        let r = b.arange(rows);
        let c = b.arange(cols);
        let rows_c = b.constant(rows as f64);
        let rbase = b.binary(BinOp::Mul, pid, rows_c);
        let rid = b.binary(BinOp::Add, rbase, r);
        let ids = b.load(idx, rid, None, 0.0);
        let width = b.constant(cols as f64);
        let base = b.binary(BinOp::Mul, ids, width);
        let base2 = b.expand_dims(base, 1);
        let c2 = b.expand_dims(c, 0);
        let offs = b.binary(BinOp::Add, base2, c2);
        let vals = b.load(v, pid, None, 0.0);
        let tile = b.full(vec![rows, cols], 1.0);
        let tv = b.binary(BinOp::Mul, tile, vals);
        b.atomic_add(y32, offs, tv, None);
        let scale = b.constant(1.0 / 32768.0);
        let tv16 = b.binary(BinOp::Mul, tv, scale);
        b.atomic_add(y16, offs, tv16, None);
        let kernel = b.build();

        let mk = || {
            (
                Tensor::from_vec(vec![inst], vec![1e8, 1.0, -1e8, 1.0]).unwrap(),
                Tensor::from_indices(vec![inst * rows], vec![0, 1, 0, 2, 0, 1, 2, 0]).unwrap(),
                Tensor::zeros(vec![3 * cols]),
                Tensor::zeros(vec![3 * cols]).cast(DType::F16),
            )
        };
        let run = |opts: Option<&LaunchOptions>| {
            let (mut v, mut i, mut a, mut h) = mk();
            let mut args = [&mut v, &mut i, &mut a, &mut h];
            let report = match opts {
                Some(o) => launch_with(&kernel, &[inst], &mut args, &device(), Mode::Execute, o),
                None => launch_reference(&kernel, &[inst], &mut args, &device(), Mode::Execute),
            }
            .unwrap();
            (report, a, h)
        };
        let mut two = LaunchOptions::with_threads(2);
        two.min_parallel_instances = 2;
        let (seq, seq32, seq16) = run(Some(&LaunchOptions::sequential()));
        let (par, par32, par16) = run(Some(&two));
        let (old, old32, old16) = run(None);
        assert_eq!(par, seq);
        assert_eq!(par.stats, old.stats);
        assert_eq!(par.time, old.time);
        for (got, want) in [
            (&par32, &seq32),
            (&par16, &seq16),
            (&par32, &old32),
            (&par16, &old16),
        ] {
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(want));
        }
        // Order matters here: a reassociated replay would leave 1 or 2.
        assert_eq!(
            seq32.at(&[0]),
            1.0,
            "((1e8 + 1) - 1e8) + 1 in instance order"
        );
        // Row 0 is hit 4 times, rows 1 and 2 twice, in both outputs.
        assert_eq!(seq.stats.atomic_conflicts, 2 * (3 + 1 + 1) * 16);
    }
}
