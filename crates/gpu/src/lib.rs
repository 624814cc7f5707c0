//! Functional + analytic GPU simulator for the kernel IR.
//!
//! This crate is the hardware substitution documented in DESIGN.md: the
//! paper runs Triton kernels on an RTX 3090; the reproduction runs
//! [`insum_kernel::Kernel`] programs on an instruction-level simulator of
//! an RTX-3090-class device. The simulator does two jobs at once:
//!
//! * **Functional execution** ([`Mode::Execute`]) — every load, store,
//!   atomic add, `tl.dot` and block op computes real values against
//!   [`insum_tensor::Tensor`] storage, so compiled kernels are verified
//!   bit-for-bit against the eager reference.
//! * **Cost accounting** (both modes) — every memory access is decomposed
//!   into per-warp 32-byte sector transactions (coalescing model) with a
//!   kernel-resident L2 filter in front of DRAM; `tl.dot` charges Tensor
//!   Core flops, block arithmetic charges scalar ALU flops,
//!   `tl.view`/`tl.trans`/`tl.broadcast_to` charge shared-memory traffic
//!   (the eager-broadcasting tax of §5.2.3), and atomics track per-address
//!   collision counts. A [`DeviceModel`] converts the counters into
//!   seconds, including a load-imbalance term (longest-processor bound
//!   over the SMs) that matters for skewed sparse workloads.
//!
//! [`Mode::Analytic`] runs the same interpreter but skips floating-point
//! value math (metadata loads still execute so gather/scatter addresses
//! are exact); counters are identical to Execute mode. The benchmark
//! harness uses it for large sweeps.
//!
//! # Simulator performance model
//!
//! The interpreter is the hot path of every experiment harness, so its
//! execution core is engineered for host throughput while staying
//! bit-identical to the straightforward seed implementation (kept in
//! the `reference` module as an oracle; `insum_bench`'s `simbench` binary tracks
//! the speedup in `BENCH_sim.json`):
//!
//! * **Strided copy-on-write blocks** — [`Block`] is a view
//!   (`Arc` storage + shape/strides), so `expand_dims`/`view`/
//!   `broadcast_to`/`trans` are metadata edits and scalars (loop
//!   counters, constants) live inline without heap storage. The *cost
//!   model* still charges shared-memory traffic for `view`/`trans`/
//!   `broadcast_to`: the modeled hardware pays it even though the host
//!   no longer copies.
//! * **Register-slot recycling** — overwritten registers donate their
//!   buffers (refcount block included) to a pool, so steady-state loop
//!   iterations allocate nothing.
//! * **Row-run memory sites** — Insum's gathers and scatters address
//!   tiles whose rows are a metadata base plus a contiguous column
//!   range, with padded rows switched off by an `[R, 1]` mask. Every
//!   load, store and atomic add decomposes its active lanes into runs
//!   of consecutive offsets: masked rows are skipped whole, each warp's
//!   sectors resolve arithmetically from the runs it covers, values
//!   move as slice copies and slice adds, and lanes that fit no run
//!   (scattered gathers) are runs of one. The counters — sectors, DRAM
//!   first touches, collision counts, the first out-of-bounds offset in
//!   lane order — are exactly the seed's lane-by-lane ones.
//! * **Compact access tracking** — the kernel-resident L2 filter is an
//!   address-space bitmap and atomic collisions are per-parameter count
//!   vectors, so nothing is hashed on the hot path.
//! * **Bit-exact SIMD** — elementwise f64 arithmetic and the `tl.dot`
//!   inner loops dispatch to 4-wide vector code at runtime where the
//!   host supports it (no fused multiply-add, no reassociation of any
//!   per-element reduction chain, so results are unchanged).
//! * **Deterministic parallelism** — [`launch_with`] can shard the
//!   grid-instance loop across threads ([`LaunchOptions`]); DRAM
//!   first-touch sets union, collision counters add, and Execute-mode
//!   writes replay from per-shard run logs (run headers plus an `f32`
//!   value arena) in instance order, so outputs and
//!   [`KernelStats`] are bit-for-bit identical to the sequential path at
//!   every thread count. Kernels that read a parameter they also write
//!   fall back to sequential execution.
//!
//! # Compile pipeline
//!
//! Since the "compile-once, launch-many" rework, every launch executes a
//! [`Program`]: the kernel IR is lowered ahead of time (once per launch
//! shape; [`launch`]/[`launch_with`] compile on the fly, while
//! `insum_inductor`'s `ProgramCache` memoizes programs across launches
//! and autotuning trials). Lowering runs four analyses, all with
//! conservative fallbacks so results stay bit-identical to the seed:
//!
//! * **Grid-invariant prologue** — registers are classified by the grid
//!   axes their values transitively depend on. Level-0 (grid-invariant)
//!   instructions — `arange`, constants, `full`, and any arithmetic or
//!   read-only loads closed over them — execute once per launch/shard
//!   and persist in their registers; level-1 (row-invariant, grid axis 0
//!   free) instructions execute once per row of instances. Invariant
//!   instructions trapped inside per-instance loops are recorded as
//!   *occurrence streams* by the row representative and replayed (a
//!   copy-on-write clone plus the recorded cost) by every other
//!   instance. Costs are deterministic, so each instance is still
//!   charged exactly what re-execution would have charged.
//! * **Last-use liveness** — per-unit release lists return dead
//!   register buffers to the allocation pool immediately, and the
//!   between-instance sweep touches only per-instance registers.
//! * **Superinstructions** — adjacent `Binary` pairs whose intermediate
//!   register dies immediately fuse into one dispatch with both
//!   instructions' counters and unchanged per-element rounding.
//! * **Analytic instance classes** — each memory site's offset stream is
//!   classified as grid-invariant or *affine* in the axis-0 coordinate
//!   with a sector-aligned stride. When every site qualifies (masks,
//!   trip counts, and metadata loads axis-0-invariant), an analytic
//!   launch costs one representative per row and replays the members by
//!   shifting the recorded sector runs and atomic address streams —
//!   O(instance classes) interpretation instead of O(instances), with
//!   identical stats, DRAM first-touch sets, collision counts, and
//!   per-instance times. [`LaunchOptions::analytic_dedup`] disables the
//!   replay for equivalence testing.
//!
//! See `crates/gpu/src/program.rs` for the analysis details and
//! `crates/gpu/tests/program_properties.rs` for the equivalence
//! properties that pin the pipeline to the reference interpreter.

mod block;
mod device;
mod interp;
mod micro;
mod persist;
mod program;
#[doc(hidden)]
pub mod reference;
mod stats;

pub use block::Block;
pub use device::DeviceModel;
pub use interp::{launch, launch_with, GpuError, LaunchOptions, Mode};
pub use micro::{copy_view_eligible, run_micro};
pub use program::Program;
pub use stats::{KernelReport, KernelStats, Profile};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GpuError>;
