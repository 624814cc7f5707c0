//! `oneshot_mix`: one client calling `insum()` or `insum::plan()` and
//! then running the result, once per op, on small tensors. Every op
//! pays parsing, classification, planning, codegen, format conversion,
//! `Program` lowering, microkernels and views; the general-path ops
//! also launch the Execute interpreter.
//!
//! Ops come in blocks of 20 with a fixed composition, shuffled per
//! block: 8 fast-path patterns (one a transpose whose view output feeds
//! a matmul), 4 near-miss general specs, 3 contraction chains and 5
//! small indirect SpMMs whose sparse structure is new on every op of a
//! pass over the pool.

use crate::closed::{self, OpOutcome};
use crate::inputs;
use crate::oracle::{self, Expected};
use crate::pipeline::{self, Tensors};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, span};
use crate::{cold_pass, compile_s, Args};
use insum::{apps, chain_reference, eager, insum, InsumOptions, Profile, Tensor};
use insum_formats::{BlockCoo, BlockGroupCoo, Coo, GroupCoo};
use insum_inductor::ProgramCache;
use insum_tensor::rand_uniform;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Blocks of 20 ops in the pool; the loop cycles over the pool, and the
/// first pass is the device window.
const BLOCKS: usize = 24;
/// Latency limit for goodput.
const LIMIT_S: f64 = 0.005;
/// Seconds between interludes in the measured phase. An interlude takes
/// about 90 ms: a compile pass and the untimed run of every op after it.
const COMPILE_EVERY_S: f64 = 1.0;
/// Interludes per timed set-up (about half a second each).
const SETUP_EVERY: usize = 3;
/// Time segments of the measured phase; with sub-millisecond ops each
/// holds thousands, so every timing is the median over segments.
const SEGMENTS: usize = 5;

const TRANSPOSE: &str = "T[j,i] = A[i,j]";
const TRANSPOSE_CONSUMER: &str = "C[j,k] = T[j,i] * B[i,k]";

#[derive(Debug, Clone, Copy)]
enum Format {
    Coo,
    Group(usize),
    Block,
    BlockGroup(usize),
}

enum Kind {
    /// One statement through `insum()`.
    Single {
        expr: &'static str,
        tensors: Tensors,
    },
    /// A transpose whose (view) output is the left operand of a matmul.
    Feed {
        a: Tensor,
        b: Tensor,
        t_expected: Expected,
    },
    /// A 3- or 4-operand chain through `insum::plan()`.
    Chain {
        expr: &'static str,
        tensors: Tensors,
    },
    /// A sparse matrix converted to `format`, then SpMM through `insum()`.
    Spmm {
        dense: Tensor,
        b: Tensor,
        format: Format,
    },
}

struct Op {
    kind: Kind,
    expected: Expected,
}

fn uniform(shape: Vec<usize>, rng: &mut SmallRng) -> Tensor {
    rand_uniform(shape, -1.0, 1.0, rng)
}

/// Integer-valued operands: every contraction order is exact on them.
fn integral(shape: Vec<usize>, rng: &mut SmallRng) -> Tensor {
    rand_uniform(shape, -2.49, 2.49, rng).map(f32::round)
}

fn bind(pairs: Vec<(&str, Tensor)>) -> Tensors {
    pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
}

fn single(expr: &'static str, tensors: Tensors) -> Result<Op, String> {
    let expected = Expected::from_tensor(&eager(expr, &tensors).map_err(|e| e.to_string())?);
    Ok(Op {
        kind: Kind::Single { expr, tensors },
        expected,
    })
}

/// `values` in a seeded order. Drawing sizes as permutations of fixed
/// sets keeps every block's total work alike, so the seed changes the
/// inputs without changing how much work a run holds.
fn permuted<const N: usize>(mut values: [usize; N], rng: &mut SmallRng) -> [usize; N] {
    values.shuffle(rng);
    values
}

/// The 20 ops of one block, before shuffling.
fn block(rng: &mut SmallRng) -> Result<Vec<Op>, String> {
    let [m, k, n] = permuted([24, 32, 40], rng);
    let [p, q] = [rng.gen_range(6..=10), rng.gen_range(3..=5)];
    let b = 3;
    let mut ops = Vec::with_capacity(20);
    // Fast-path patterns.
    ops.push(single(
        "C[i,k] = A[i,j] * B[j,k]",
        bind(vec![
            ("C", Tensor::zeros(vec![m, n])),
            ("A", uniform(vec![m, k], rng)),
            ("B", uniform(vec![k, n], rng)),
        ]),
    )?);
    ops.push(single(
        "C[b,i,k] = A[b,i,j] * B[b,j,k]",
        bind(vec![
            ("C", Tensor::zeros(vec![b, m, n])),
            ("A", uniform(vec![b, m, k], rng)),
            ("B", uniform(vec![b, k, n], rng)),
        ]),
    )?);
    ops.push(single(
        "S[i] = A[i,j]",
        bind(vec![
            ("S", Tensor::zeros(vec![m])),
            ("A", uniform(vec![m, k], rng)),
        ]),
    )?);
    ops.push(single(
        "H[i,j] = A[i,j] * B[i,j]",
        bind(vec![
            ("H", Tensor::zeros(vec![m, n])),
            ("A", uniform(vec![m, n], rng)),
            ("B", uniform(vec![m, n], rng)),
        ]),
    )?);
    ops.push(single(
        "O[i,j] = U[i] * V[j]",
        bind(vec![
            ("O", Tensor::zeros(vec![m, n])),
            ("U", uniform(vec![m], rng)),
            ("V", uniform(vec![n], rng)),
        ]),
    )?);
    ops.push(single(
        "D[i] = A[i,i]",
        bind(vec![
            ("D", Tensor::zeros(vec![m])),
            ("A", uniform(vec![m, m], rng)),
        ]),
    )?);
    ops.push(single(
        "T[k,i,j] = A[i,j,k]",
        bind(vec![
            ("T", Tensor::zeros(vec![q, p, m])),
            ("A", uniform(vec![p, m, q], rng)),
        ]),
    )?);
    ops.push(feed(uniform(vec![k, m], rng), uniform(vec![k, n], rng))?);
    // Near misses: each looks like a pattern but takes the general path.
    ops.push(single(
        "C[i,j] = A[i,j] * B[j,i]",
        bind(vec![
            ("C", Tensor::zeros(vec![m, n])),
            ("A", uniform(vec![m, n], rng)),
            ("B", uniform(vec![n, m], rng)),
        ]),
    )?);
    ops.push(single(
        "Y[i] = A[i,j] * X[j]",
        bind(vec![
            ("Y", Tensor::zeros(vec![m])),
            ("A", uniform(vec![m, k], rng)),
            ("X", uniform(vec![k], rng)),
        ]),
    )?);
    ops.push(single(
        "C[j,i] = A[i,j,k]",
        bind(vec![
            ("C", Tensor::zeros(vec![m, p])),
            ("A", uniform(vec![p, m, q], rng)),
        ]),
    )?);
    ops.push(single(
        "C[i,j] = A[i,k] * B[j,k]",
        bind(vec![
            ("C", Tensor::zeros(vec![m, n])),
            ("A", uniform(vec![m, k], rng)),
            ("B", uniform(vec![n, k], rng)),
        ]),
    )?);
    // Chains with a narrow waist, so the planned order beats
    // left-to-right.
    for _ in 0..2 {
        ops.push(chain(
            "O[i,l] = A[i,j] * B[j,k] * C[k,l]",
            bind(vec![
                ("A", integral(vec![m, k], rng)),
                ("B", integral(vec![k, q], rng)),
                ("C", integral(vec![q, n], rng)),
            ]),
        )?);
    }
    ops.push(chain(
        "O[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]",
        bind(vec![
            ("A", integral(vec![m, k], rng)),
            ("B", integral(vec![k, q], rng)),
            ("C", integral(vec![q, n], rng)),
            ("D", integral(vec![n, p], rng)),
        ]),
    )?);
    // Small indirect SpMMs, one per format.
    let formats = [
        Format::Coo,
        Format::Group(rng.gen_range(2..=4)),
        Format::Block,
        Format::BlockGroup(2),
        Format::Coo,
    ];
    let rows = permuted([32, 40, 48, 56, 64], rng);
    let cols = permuted([32, 40, 48, 56, 64], rng);
    let widths = permuted([16, 16, 24, 24, 32], rng);
    let sparsity = permuted([60, 67, 75, 82, 90], rng);
    for (i, format) in formats.into_iter().enumerate() {
        let (rows, cols) = (rows[i], cols[i]);
        let dense = inputs::block_sparse(rows, cols, 8, 8, sparsity[i] as f64 / 100.0, rng);
        let b = uniform(vec![cols, widths[i]], rng);
        let mut expected = oracle::spmm(&dense, &b);
        if matches!(format, Format::Block | Format::BlockGroup(_)) {
            expected.shape = vec![rows / 8, 8, expected.shape[1]];
        }
        ops.push(Op {
            kind: Kind::Spmm { dense, b, format },
            expected,
        });
    }
    Ok(ops)
}

fn feed(a: Tensor, b: Tensor) -> Result<Op, String> {
    let (k, m, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let t = eager(
        TRANSPOSE,
        &bind(vec![("T", Tensor::zeros(vec![m, k])), ("A", a.clone())]),
    )
    .map_err(|e| e.to_string())?;
    let c = eager(
        TRANSPOSE_CONSUMER,
        &bind(vec![
            ("C", Tensor::zeros(vec![m, n])),
            ("T", t.clone()),
            ("B", b.clone()),
        ]),
    )
    .map_err(|e| e.to_string())?;
    Ok(Op {
        kind: Kind::Feed {
            a,
            b,
            t_expected: Expected::from_tensor(&t),
        },
        expected: Expected::from_tensor(&c),
    })
}

fn chain(expr: &'static str, tensors: Tensors) -> Result<Op, String> {
    let expected =
        Expected::from_tensor(&chain_reference(expr, &tensors).map_err(|e| e.to_string())?);
    Ok(Op {
        kind: Kind::Chain { expr, tensors },
        expected,
    })
}

/// Convert `dense` to `format` and bind the SpMM (the conversion is part
/// of the op: a one-shot caller pays it every time).
fn convert(dense: &Tensor, b: &Tensor, format: Format) -> Result<(apps::BoundApp, usize), String> {
    let e = |e: insum_formats::FormatError| e.to_string();
    span("formats.convert", || {
        Ok(match format {
            Format::Coo => {
                let f = Coo::from_dense(dense).map_err(e)?;
                (apps::spmm_coo(&f, b), f.device_bytes())
            }
            Format::Group(g) => {
                let f = GroupCoo::from_dense(dense, g).map_err(e)?;
                (apps::spmm_group(&f, b), f.device_bytes())
            }
            Format::Block => {
                let f = BlockCoo::from_dense(dense, 8, 8).map_err(e)?;
                (apps::spmm_block(&f, b), f.device_bytes())
            }
            Format::BlockGroup(g) => {
                let f = BlockGroupCoo::from_dense(dense, 8, 8, g).map_err(e)?;
                (apps::spmm_block_group(&f, b), f.device_bytes())
            }
        })
    })
}

/// One statement compiled and run, by the library or by the traced
/// mirror (then checked against the library by the drift guard).
fn statement(
    expr: &str,
    tensors: &Tensors,
    traced: bool,
) -> Result<(Tensor, Profile, bool), String> {
    let options = InsumOptions::default();
    if !traced {
        let c = insum(expr, tensors).map_err(|e| e.to_string())?;
        let fast = c.fast_path_pattern().is_some();
        let (out, profile) = c.run(tensors).map_err(|e| e.to_string())?;
        return Ok((out, profile, fast));
    }
    let (art, info) = pipeline::compile(expr, tensors, &options)?;
    let (out, profile) = pipeline::run(&art, tensors, &options)?;
    Ok((out, profile, info.fast))
}

fn guard_statement(expr: &str, tensors: &Tensors, got: &(Tensor, Profile)) -> Result<(), String> {
    let want = insum(expr, tensors)
        .and_then(|c| c.run(tensors))
        .map_err(|e| e.to_string())?;
    pipeline::guard(got, &want).map_err(|e| format!("{expr}: {e}"))
}

/// Counters the traced run reports per op.
#[derive(Default)]
struct OpCounts {
    statements: u64,
    fast: u64,
    chains: u64,
    flops_ratio: f64,
    format_ops: u64,
    format_bytes: u64,
}

/// Run one op; returns whether the values matched the oracle and the
/// modeled profile. Oracle checks and the drift guard run after the
/// timed part (`latency_s` is filled in by the caller).
fn run_op(op: &Op, traced: bool, counts: &mut OpCounts) -> Result<(bool, Profile, f64), String> {
    let options = InsumOptions::default();
    let t0 = Instant::now();
    match &op.kind {
        Kind::Single { expr, tensors } => {
            let r = span(trace::OP, || statement(expr, tensors, traced));
            let lat = t0.elapsed().as_secs_f64();
            let Ok((out, profile, fast)) = r else {
                return Ok((false, Profile::new(), lat));
            };
            counts.statements += 1;
            counts.fast += u64::from(fast);
            let got = (out, profile);
            if traced {
                guard_statement(expr, tensors, &got)?;
            }
            Ok((oracle::matches(&got.0, &op.expected), got.1, lat))
        }
        Kind::Feed { a, b, t_expected } => {
            let (k, m, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
            let t_map = bind(vec![("T", Tensor::zeros(vec![m, k])), ("A", a.clone())]);
            let r = span(trace::OP, || {
                let (t, p1, f1) = statement(TRANSPOSE, &t_map, traced)?;
                let c_map = bind(vec![
                    ("C", Tensor::zeros(vec![m, n])),
                    ("T", t.clone()),
                    ("B", b.clone()),
                ]);
                let (c, p2, f2) = statement(TRANSPOSE_CONSUMER, &c_map, traced)?;
                Ok::<_, String>((t, p1, c_map, c, p2, u64::from(f1) + u64::from(f2)))
            });
            let lat = t0.elapsed().as_secs_f64();
            let Ok((t, p1, c_map, c, p2, fast)) = r else {
                return Ok((false, Profile::new(), lat));
            };
            counts.statements += 2;
            counts.fast += fast;
            let (t, c) = ((t, p1), (c, p2));
            if traced {
                guard_statement(TRANSPOSE, &t_map, &t)?;
                guard_statement(TRANSPOSE_CONSUMER, &c_map, &c)?;
            }
            let ok = oracle::matches(&t.0, t_expected) && oracle::matches(&c.0, &op.expected);
            let mut profile = t.1;
            profile.reports.extend(c.1.reports);
            Ok((ok, profile, lat))
        }
        Kind::Chain { expr, tensors } => {
            let r = span(trace::OP, || -> Result<_, String> {
                if traced {
                    let chain = pipeline::compile_chain(expr, tensors, &options)?;
                    let (out, profile) = pipeline::run_chain(&chain, tensors, &options)?;
                    Ok((out, profile, chain.flops_ratio))
                } else {
                    let chain = insum::plan(expr, tensors, &options).map_err(|e| e.to_string())?;
                    let (out, profile) = chain.run(tensors).map_err(|e| e.to_string())?;
                    Ok((out, profile, 0.0))
                }
            });
            let lat = t0.elapsed().as_secs_f64();
            let Ok((out, profile, ratio)) = r else {
                return Ok((false, Profile::new(), lat));
            };
            counts.chains += 1;
            counts.flops_ratio += ratio;
            let got = (out, profile);
            if traced {
                let want = insum::plan(expr, tensors, &options)
                    .and_then(|c| c.run(tensors))
                    .map_err(|e| e.to_string())?;
                pipeline::guard(&got, &want).map_err(|e| format!("{expr}: {e}"))?;
            }
            Ok((oracle::matches(&got.0, &op.expected), got.1, lat))
        }
        Kind::Spmm { dense, b, format } => {
            let r = span(trace::OP, || {
                let (app, bytes) = convert(dense, b, *format)?;
                let (out, profile, _) = statement(app.expr, &app.tensors, traced)?;
                Ok::<_, String>((app, bytes, out, profile))
            });
            let lat = t0.elapsed().as_secs_f64();
            let Ok((app, bytes, out, profile)) = r else {
                return Ok((false, Profile::new(), lat));
            };
            counts.statements += 1;
            counts.format_ops += 1;
            counts.format_bytes += bytes as u64;
            let got = (out, profile);
            if traced {
                guard_statement(app.expr, &app.tensors, &got)?;
            }
            Ok((oracle::matches(&got.0, &op.expected), got.1, lat))
        }
    }
}

/// Library compile of one op (no run), for `compile_s`.
fn compile_only(op: &Op) -> Result<(), String> {
    let e = |e: insum::InsumError| e.to_string();
    match &op.kind {
        Kind::Single { expr, tensors } => insum(expr, tensors).map(drop).map_err(e),
        Kind::Feed { a, b, .. } => {
            let (k, m, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
            insum(
                TRANSPOSE,
                &bind(vec![("T", Tensor::zeros(vec![m, k])), ("A", a.clone())]),
            )
            .map_err(e)?;
            let c_map = bind(vec![
                ("C", Tensor::zeros(vec![m, n])),
                ("T", Tensor::zeros(vec![m, k])),
                ("B", b.clone()),
            ]);
            insum(TRANSPOSE_CONSUMER, &c_map).map(drop).map_err(e)
        }
        Kind::Chain { expr, tensors } => insum::plan(expr, tensors, &InsumOptions::default())
            .map(drop)
            .map_err(e),
        Kind::Spmm { .. } => unreachable!("SpMM ops are compiled after conversion"),
    }
}

/// The ops, and each SpMM op's converted statement for compile passes.
struct Pool {
    ops: Vec<Op>,
    converted: Vec<Option<apps::BoundApp>>,
}

impl Pool {
    /// Library compile of op `i` (no run), for `compile_s`.
    fn compile(&self, i: usize) -> Result<(), String> {
        match &self.converted[i] {
            Some(app) => insum(app.expr, &app.tensors)
                .map(drop)
                .map_err(|e| e.to_string()),
            None => compile_only(&self.ops[i]),
        }
    }
}

/// Generate the pool and its oracles, convert the SpMMs once for the
/// compile passes, warm up on the first block. Returns (seconds, pool).
fn setup(seed: u64) -> Result<(f64, Pool), String> {
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool = Vec::with_capacity(BLOCKS * 20);
    for _ in 0..BLOCKS {
        let mut ops = block(&mut rng)?;
        ops.shuffle(&mut rng);
        pool.extend(ops);
    }
    let converted: Vec<Option<apps::BoundApp>> = pool
        .iter()
        .map(|op| match &op.kind {
            Kind::Spmm { dense, b, format } => convert(dense, b, *format).map(|(app, _)| Some(app)),
            _ => Ok(None),
        })
        .collect::<Result<_, _>>()?;
    let mut counts = OpCounts::default();
    trace::paused(|| {
        pool[..20]
            .iter()
            .try_for_each(|op| run_op(op, false, &mut counts).map(drop))
    })?;
    Ok((
        start.elapsed().as_secs_f64(),
        Pool {
            ops: pool,
            converted,
        },
    ))
}

/// Timings taken between ops of the measured phase, outside every op's
/// latency. A set-up takes about half a second and a compile pass about
/// 10 ms, and the host's speed swings by about half over seconds, so
/// both are sampled across the whole phase rather than back to back.
struct Interludes {
    seed: u64,
    /// Seconds of each cold compile pass over the pool.
    compile: Vec<f64>,
    /// Seconds of each set-up, the one before the phase first.
    setup: Vec<f64>,
}

impl Interludes {
    /// Take a compile pass, then run every op once untimed: `insum()`
    /// does not lower `Program`s, so only running the ops refills the
    /// program cache the pass cleared. Every [`SETUP_EVERY`]-th time,
    /// also time a set-up and drop what it built.
    fn take(&mut self, pool: &Pool) -> Result<(), String> {
        let ops = &pool.ops;
        self.compile
            .push(cold_pass(ops.len(), |a| pool.compile(a))?);
        let counts = &mut OpCounts::default();
        ops.iter()
            .try_for_each(|op| run_op(op, false, counts).map(drop))?;
        if self.compile.len().is_multiple_of(SETUP_EVERY) {
            self.setup.push(setup(self.seed)?.0);
        }
        Ok(())
    }
}

/// Cycle over the pool for `budget_s`. `first_pass` counts the first
/// pass only, so its counters repeat exactly at one seed. With
/// `interludes`, they are taken between ops each [`COMPILE_EVERY_S`]
/// after the first pass over the pool.
fn measure(
    pool: &Pool,
    budget_s: f64,
    traced: bool,
    first_pass: &mut OpCounts,
    mut interludes: Option<&mut Interludes>,
) -> Result<closed::Phase, String> {
    let ops = &pool.ops;
    let mut later = OpCounts::default();
    let mut next = Instant::now();
    closed::run(budget_s, ops.len(), SEGMENTS, |i| {
        let due = i >= ops.len() && Instant::now() >= next;
        if let Some(x) = interludes.as_deref_mut().filter(|_| due) {
            x.take(pool)?;
            next = Instant::now() + Duration::from_secs_f64(COMPILE_EVERY_S);
        }
        let counts = if i < ops.len() {
            &mut *first_pass
        } else {
            &mut later
        };
        let cache0 = ProgramCache::global().stats().misses;
        let (ok, profile, latency_s) = run_op(&ops[i % ops.len()], traced, counts)?;
        let warm = ProgramCache::global().stats().misses == cache0;
        Ok(OpOutcome {
            latency_s,
            ok,
            warm,
            profile,
        })
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if !args.trace {
        let (first, pool) = setup(args.seed)?;
        let mut x = Interludes {
            seed: args.seed,
            compile: Vec::new(),
            setup: vec![first],
        };
        let counts = &mut OpCounts::default();
        let phase = measure(&pool, args.seconds, false, counts, Some(&mut x))?;
        report.set("setup_s", stats::median(&x.setup));
        report.set("compile_s", compile_s(&x.compile)?);
        report.note(format!(
            "setup_s: median of {} set-ups; compile_s: trimmed mean of {} cold passes over {} ops",
            x.setup.len(),
            x.compile.len(),
            BLOCKS * 20
        ));
        report.closed_loop_metrics(&phase, LIMIT_S);
        return Ok(report);
    }
    let (_, pool) = span("setup", || setup(args.seed))?;
    let half = args.seconds / 2.0;
    let untraced = trace::paused(|| measure(&pool, half, false, &mut OpCounts::default(), None))?;
    let mut first_pass = OpCounts::default();
    let traced = measure(&pool, half, true, &mut first_pass, None)?;
    report.count_ops(&untraced);
    report.count_ops(&traced);
    report.device_layer_metrics(&traced);
    report.overhead_metric(&untraced, &traced);
    report.span_layer_metrics(&trace::attribute_recorded());
    let c = &first_pass;
    report.set(
        "pattern.fast_frac",
        c.fast as f64 / c.statements.max(1) as f64,
    );
    report.set(
        "planner.flops_ratio",
        c.flops_ratio / c.chains.max(1) as f64,
    );
    report.set(
        "formats.bytes",
        c.format_bytes as f64 / c.format_ops.max(1) as f64,
    );
    for name in [
        "inductor.autotune_configs",
        "gpu.analytic_class_frac",
        "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.p99",
        "serve.batch_size.mean",
        "serve.registry_hit_frac",
        "serve.compile_ms.p99",
        "serve.retries",
        "loadgen.late_ms.p99",
    ] {
        report.set(name, 0.0);
    }
    Ok(report)
}
