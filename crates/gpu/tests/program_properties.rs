//! Property tests for the ahead-of-time compile pipeline: compiled
//! programs must be bit-identical to the seed reference interpreter
//! (outputs, stats, simulated time), and analytic instance-class dedup
//! must equal brute-force per-instance costing, over randomized kernels,
//! grids, and scheduling options.

use insum_gpu::reference::launch_reference;
use insum_gpu::{DeviceModel, LaunchOptions, Mode, Program};
use insum_kernel::{BinOp, Kernel, KernelBuilder};
use insum_tensor::{DType, Tensor};
use proptest::prelude::*;

/// A tiled 2-D kernel shaped like the fused codegen's output:
/// `DST[y, x] (+)= SCALE * SRC[IDX[y]-indirected rows, x]`, with grid
/// axis 0 tiling columns (affine offsets) and axis 1 tiling rows.
///
/// Knobs cover the compile pipeline's branches:
/// * `masked` — adds an axis-0-affine column mask, which disqualifies
///   instance-class dedup (fallback path).
/// * `rowmask` — `Some(q)` switches off tile rows `q..YB` with an
///   `[YB, 1]` mask, the codegen's `arange(YB) < q` (a grid-invariant
///   mask: dedup stays available); with `masked` the two combine into a
///   per-lane `[YB, XB]` mask.
/// * `f16` — the destination is half precision (stores and atomic adds
///   round).
/// * `skew` — shifts every tile by a few elements so runs start and end
///   inside sectors (rows whose width is no multiple of a sector).
/// * `indirect` — routes row addresses through an I32 metadata gather
///   (row-invariant loads, data-dependent bases).
/// * `atomic` — scatter via `atomic_add` instead of `store`.
/// * `rloop` — accumulates over a reduction loop so invariant
///   instructions are trapped inside a per-instance loop (occurrence
///   streams).
struct TiledSpec {
    xb: usize,
    yb: usize,
    gx: usize,
    gy: usize,
    masked: bool,
    rowmask: Option<usize>,
    indirect: bool,
    atomic: bool,
    rloop: bool,
    f16: bool,
    skew: usize,
    scale: f64,
}

impl TiledSpec {
    fn cols(&self) -> usize {
        self.gx * self.xb
    }

    fn rows(&self) -> usize {
        self.gy * self.yb
    }

    fn build(&self) -> Kernel {
        let mut b = KernelBuilder::new("prop_tiled");
        let src = b.input("SRC");
        let idx = if self.indirect {
            Some(b.input("IDX"))
        } else {
            None
        };
        let dst = b.output("DST");

        let pid0 = b.program_id(0);
        let pid1 = b.program_id(1);
        let xb_c = b.constant(self.xb as f64);
        let yb_c = b.constant(self.yb as f64);
        let cols_c = b.constant(self.cols() as f64);
        let xlanes = b.arange(self.xb);
        let ylanes = b.arange(self.yb);

        // Column offsets: pid0 * XB + arange(XB) — affine along axis 0.
        let xbase = b.binary(BinOp::Mul, pid0, xb_c);
        let xoffs = b.binary(BinOp::Add, xbase, xlanes);
        // Row ids: pid1 * YB + arange(YB), optionally indirected.
        let ybase = b.binary(BinOp::Mul, pid1, yb_c);
        let yids = b.binary(BinOp::Add, ybase, ylanes);
        let rowids = match idx {
            Some(p) => b.load(p, yids, None, 0.0),
            None => yids,
        };
        let rowoffs = b.binary(BinOp::Mul, rowids, cols_c);
        let skew_c = b.constant(self.skew as f64);
        let rowoffs = b.binary(BinOp::Add, rowoffs, skew_c);
        let row2 = b.expand_dims(rowoffs, 1);
        let col2 = b.expand_dims(xoffs, 0);
        let offs = b.binary(BinOp::Add, row2, col2);

        let colmask = if self.masked {
            let lim = b.constant((self.cols() - 1) as f64);
            let colmask = b.binary(BinOp::Lt, xoffs, lim);
            Some(b.expand_dims(colmask, 0))
        } else {
            None
        };
        let rowmask = self.rowmask.map(|q| {
            let q_c = b.constant(q as f64);
            let live = b.binary(BinOp::Lt, ylanes, q_c);
            b.expand_dims(live, 1)
        });
        let mask = match (rowmask, colmask) {
            (Some(r), Some(c)) => Some(b.binary(BinOp::And, r, c)),
            (r, c) => r.or(c),
        };

        let scale_c = b.constant(self.scale);
        let value = if self.rloop {
            let acc = b.full(vec![self.yb, self.xb], 0.0);
            let r = b.begin_loop(0, 3, 1);
            let roff = b.binary(BinOp::Mul, r, cols_c);
            // Shift source rows by the (bounded) loop step so iterations
            // read different data; SRC carries 3 extra rows of slack so
            // the shifted offsets stay affine (no wrap-around).
            let shifted = b.binary(BinOp::Add, offs, roff);
            let v = b.load(src, shifted, mask, 0.0);
            let sv = b.binary(BinOp::Mul, v, scale_c);
            b.binary_into(acc, BinOp::Add, acc, sv);
            b.end_loop();
            acc
        } else {
            let v = b.load(src, offs, mask, 0.0);
            b.binary(BinOp::Mul, v, scale_c)
        };

        if self.atomic {
            b.atomic_add(dst, offs, value, mask);
        } else {
            b.store(dst, offs, value, mask);
        }
        b.build()
    }

    fn tensors(&self, seed: u64) -> Vec<Tensor> {
        let total = self.rows() * self.cols() + self.skew;
        // 3 extra rows of slack for the reduction loop's shifted reads.
        let src_total = total + 3 * self.cols();
        let src = Tensor::from_fn(vec![src_total], |i| {
            ((i[0] as u64 ^ seed) % 13) as f32 - 6.0
        });
        let mut dst = Tensor::zeros(vec![total]);
        if self.f16 {
            dst = dst.cast(DType::F16);
        }
        if self.indirect {
            let rows = self.rows() as i64;
            let idx = Tensor::from_indices(
                vec![self.rows()],
                (0..rows).map(|i| (i * 7 + seed as i64) % rows).collect(),
            )
            .expect("length matches");
            vec![src, idx, dst]
        } else {
            vec![src, dst]
        }
    }
}

fn spec_strategy() -> impl Strategy<Value = TiledSpec> {
    (
        (
            1usize..4, // gx
            1usize..5, // gy
            prop_oneof![
                Just(8usize),
                Just(16usize),
                Just(24usize),
                Just(32usize),
                Just(64usize)
            ],
            prop_oneof![Just(4usize), Just(16usize)],
        ),
        (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        (
            proptest::bool::ANY,
            0usize..17,
            proptest::bool::ANY,
            0usize..4,
        ),
        -3.0f64..3.0,
    )
        .prop_map(
            |(
                (gx, gy, xb, yb),
                (masked, indirect, atomic, rloop),
                (rowmask, q, f16, skew),
                scale,
            )| {
                TiledSpec {
                    xb,
                    yb,
                    gx,
                    gy,
                    masked,
                    rowmask: rowmask.then_some(q % (yb + 1)),
                    indirect,
                    atomic,
                    rloop,
                    f16,
                    skew,
                    scale,
                }
            },
        )
}

fn launch_program(
    spec: &TiledSpec,
    kernel: &Kernel,
    mode: Mode,
    opts: &LaunchOptions,
    seed: u64,
) -> (insum_gpu::KernelReport, Vec<Tensor>) {
    let mut owned = spec.tensors(seed);
    let lens: Vec<usize> = owned.iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = owned.iter().map(|t| t.dtype()).collect();
    let program = Program::compile(kernel, &[spec.gx, spec.gy], &lens, &dtypes).expect("compiles");
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let report = program
        .launch_with(&mut refs, &DeviceModel::rtx3090(), mode, opts)
        .expect("launches");
    (report, owned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled programs (all caching tiers active) match the seed
    /// reference interpreter bit for bit in Execute mode on both write
    /// sinks (1 thread writes directly, 2 threads replay run logs) and
    /// in Analytic mode with instance-class dedup on and off.
    #[test]
    fn compiled_program_matches_reference(spec in spec_strategy(), seed in 0u64..1000) {
        let kernel = spec.build();
        let device = DeviceModel::rtx3090();
        let mut two = LaunchOptions::with_threads(2);
        two.min_parallel_instances = 2;
        let brute = LaunchOptions {
            analytic_dedup: false,
            ..LaunchOptions::sequential()
        };
        for (mode, opts) in [
            (Mode::Execute, LaunchOptions::sequential()),
            (Mode::Execute, two),
            (Mode::Analytic, LaunchOptions::sequential()),
            (Mode::Analytic, brute),
        ] {
            let (new, out_new) = launch_program(&spec, &kernel, mode, &opts, seed);
            let mut owned = spec.tensors(seed);
            let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
            let old = launch_reference(&kernel, &[spec.gx, spec.gy], &mut refs, &device, mode)
                .expect("reference runs");
            prop_assert_eq!(new.stats, old.stats, "{:?} {:?} stats diverge from seed", mode, opts);
            prop_assert_eq!(new.time, old.time, "{:?} {:?} time diverges from seed", mode, opts);
            for (a, b) in out_new.iter().zip(&owned) {
                prop_assert_eq!(a.data(), b.data(), "{:?} {:?} outputs diverge from seed", mode, opts);
            }
        }
    }

    /// Analytic instance-class dedup equals brute-force per-instance
    /// costing: stats, DRAM sets, collision counts, and per-instance
    /// times are identical with replay enabled and disabled.
    #[test]
    fn analytic_dedup_matches_brute_force(spec in spec_strategy(), seed in 0u64..1000) {
        let kernel = spec.build();
        let dedup = LaunchOptions::sequential();
        let brute = LaunchOptions {
            analytic_dedup: false,
            ..LaunchOptions::sequential()
        };
        let (fast, _) = launch_program(&spec, &kernel, Mode::Analytic, &dedup, seed);
        let (slow, _) = launch_program(&spec, &kernel, Mode::Analytic, &brute, seed);
        prop_assert_eq!(fast.stats, slow.stats, "dedup changes counters");
        prop_assert_eq!(fast.time, slow.time, "dedup changes simulated time");
        prop_assert_eq!(fast.sm_time, slow.sm_time);
        prop_assert_eq!(fast.dram_time, slow.dram_time);
        prop_assert_eq!(fast.max_instance_time, slow.max_instance_time);
    }

    /// Dedup + sharding composes: parallel analytic launches with replay
    /// stay bit-identical to the sequential brute-force path.
    #[test]
    fn parallel_dedup_matches_sequential(
        spec in spec_strategy(),
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let kernel = spec.build();
        let mut par = LaunchOptions::with_threads(threads);
        par.min_parallel_instances = 2;
        let brute = LaunchOptions {
            analytic_dedup: false,
            ..LaunchOptions::sequential()
        };
        let (fast, _) = launch_program(&spec, &kernel, Mode::Analytic, &par, seed);
        let (slow, _) = launch_program(&spec, &kernel, Mode::Analytic, &brute, seed);
        prop_assert_eq!(fast.stats, slow.stats);
        prop_assert_eq!(fast.time, slow.time);
    }
}

/// The fully affine unmasked configuration must actually qualify for
/// instance-class dedup (guards against the analysis silently regressing
/// to the fallback path, which would leave the properties vacuous).
#[test]
fn affine_specs_enable_dedup() {
    for indirect in [false, true] {
        for atomic in [false, true] {
            for (rloop, rowmask) in [(false, None), (true, None), (false, Some(3))] {
                let spec = TiledSpec {
                    xb: 16,
                    yb: 16,
                    gx: 3,
                    gy: 2,
                    masked: false,
                    rowmask,
                    indirect,
                    atomic,
                    rloop,
                    f16: false,
                    skew: 3,
                    scale: 1.5,
                };
                let kernel = spec.build();
                let owned = spec.tensors(1);
                let lens: Vec<usize> = owned.iter().map(|t| t.len()).collect();
                let dtypes: Vec<DType> = owned.iter().map(|t| t.dtype()).collect();
                let program =
                    Program::compile(&kernel, &[spec.gx, spec.gy], &lens, &dtypes).unwrap();
                assert!(
                    program.analytic_dedup_available(),
                    "indirect={indirect} atomic={atomic} rloop={rloop} rowmask={rowmask:?} should dedup"
                );
            }
        }
    }
}

/// Regression: a loop-carried rotation chain longer than any fixed
/// fixpoint budget. `pid0` reaches the atomic offset only after 24
/// rotations, so the affine analysis needs ~24 passes to classify the
/// head register; a capped fixpoint once left it "invariant" and
/// instance-class replay stamped every member's atomic on the
/// representative's address (atomic_conflicts 7 instead of 0).
#[test]
fn long_loop_carried_chains_stay_bit_identical() {
    const N: usize = 24;
    let mut b = KernelBuilder::new("rotate");
    let y = b.output("Y");
    let pid = b.program_id(0);
    let zero = b.constant(0.0);
    let one = b.constant(1.0);
    let chain: Vec<_> = (0..N).map(|_| b.binary(BinOp::Add, zero, zero)).collect();
    let r = b.begin_loop(0, N as i64, 1);
    let _ = r;
    for i in 0..N - 1 {
        b.binary_into(chain[i], BinOp::Add, chain[i + 1], zero);
    }
    b.binary_into(chain[N - 1], BinOp::Add, pid, zero);
    b.end_loop();
    b.atomic_add(y, chain[0], one, None);
    let kernel = b.build();

    let grid = [8usize];
    let device = DeviceModel::rtx3090();
    let mk = || Tensor::zeros(vec![8]);
    for mode in [Mode::Execute, Mode::Analytic] {
        let mut y1 = mk();
        let lens = [y1.len()];
        let dtypes = [y1.dtype()];
        let program = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let new = program
            .launch_with(&mut [&mut y1], &device, mode, &LaunchOptions::sequential())
            .unwrap();
        let mut y2 = mk();
        let old = launch_reference(&kernel, &grid, &mut [&mut y2], &device, mode).unwrap();
        assert_eq!(new.stats, old.stats, "{mode:?} stats diverge from seed");
        assert_eq!(new.time, old.time, "{mode:?} time diverges from seed");
        assert_eq!(y1.data(), y2.data(), "{mode:?} outputs diverge from seed");
        assert_eq!(new.stats.atomic_conflicts, 0, "distinct addresses");
    }
}
