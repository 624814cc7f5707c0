//! `paper_kernels`: the paper's four case studies at the fig7 harness
//! scale, compiled once with the Table 3 deployment options
//! (`InsumOptions::autotuned()`) and run in a closed loop by one
//! client. Ops cycle through the kernels in a seeded rotation and each
//! op binds a different activation, so the host time is nearly all the
//! simulator's Execute-mode interpretation.

use crate::closed::{self, OpOutcome, Phase};
use crate::inputs;
use crate::oracle::{self, Expected};
use crate::pipeline::{self, Artifact, Tensors};
use crate::report::Report;
use crate::trace::{self, span};
use crate::{around_setups, clear_caches, compile_s, Args};
use insum::{apps, insum_with, Compiled, InsumOptions, Tensor};
use insum_formats::{BlockCoo, BlockGroupCoo, Coo, GroupCoo};
use insum_tensor::{rand_normal, rand_uniform, DType};
use insum_workloads::{equivariant, pointcloud};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Activations per kernel; consecutive ops of one kernel bind different
/// ones.
const ACTIVATIONS: usize = 3;
/// Rotations of the kernel cycle that form the device window.
const WINDOW_ROTATIONS: usize = 8;
/// Latency limit for goodput: five times the slowest kernel's op.
const LIMIT_S: f64 = 1.0;
/// Set-ups per run, half before the measured phase and half after.
const SETUP_REPS: usize = 4;

/// One case study: its expression, the requests (one per activation)
/// and their expected outputs, and the compiled artifacts.
struct Kernel {
    name: &'static str,
    expr: &'static str,
    requests: Vec<Tensors>,
    expected: Vec<Expected>,
    format_bytes: usize,
    compiled: Compiled,
    traced: Option<Artifact>,
}

/// The inputs of one kernel before its oracles are computed.
struct Inputs {
    name: &'static str,
    expr: &'static str,
    requests: Vec<Tensors>,
    oracle: Box<dyn Fn(usize) -> Expected>,
    format_bytes: usize,
}

fn block_group(rng: &mut SmallRng) -> Inputs {
    // Fig. 7 scale: 1024x1024, 32x32 blocks, 50% block sparsity, F16,
    // heuristic group size, B with 256 columns.
    let dense = inputs::block_sparse(1024, 1024, 32, 32, 0.5, rng).cast(DType::F16);
    let bgc = span("formats.convert", || {
        let bcoo = BlockCoo::from_dense(&dense, 32, 32).expect("extents divide the block size");
        let g = insum_formats::heuristic::heuristic_group_size(&bcoo.block_occupancy());
        BlockGroupCoo::from_block_coo(&bcoo, g).expect("heuristic group size is valid")
    });
    let bs: Vec<Tensor> = (0..ACTIVATIONS)
        .map(|_| rand_uniform(vec![1024, 256], -1.0, 1.0, rng).cast(DType::F16))
        .collect();
    let requests = bs
        .iter()
        .map(|b| apps::spmm_block_group(&bgc, b).tensors)
        .collect();
    let shape = vec![32, 32, 256];
    Inputs {
        name: "spmm_block_group",
        expr: apps::SPMM_BLOCK_GROUP_EXPR,
        requests,
        format_bytes: bgc.device_bytes(),
        oracle: Box::new(move |a| Expected {
            shape: shape.clone(),
            ..oracle::spmm(&dense, &bs[a])
        }),
    }
}

fn coo_pair(rng: &mut SmallRng) -> [Inputs; 2] {
    // Scatter-heavy SpMM: 512x512, 16x16 blocks at 70% sparsity, as COO
    // (one atomic per nonzero) and GroupCOO (g = 4).
    let dense = inputs::block_sparse(512, 512, 16, 16, 0.7, rng);
    let (coo, gc) = span("formats.convert", || {
        let coo = Coo::from_dense(&dense).expect("2-D matrix");
        let gc = GroupCoo::from_coo(&coo, 4).expect("valid group size");
        (coo, gc)
    });
    let mut acts = |n: usize| -> Vec<Tensor> {
        (0..n)
            .map(|_| rand_uniform(vec![512, 64], -1.0, 1.0, rng))
            .collect()
    };
    let (b_coo, b_group) = (acts(ACTIVATIONS), acts(ACTIVATIONS));
    let coo_inputs = Inputs {
        name: "spmm_coo",
        expr: apps::SPMM_COO_EXPR,
        requests: b_coo
            .iter()
            .map(|b| apps::spmm_coo(&coo, b).tensors)
            .collect(),
        format_bytes: coo.device_bytes(),
        oracle: Box::new({
            let dense = dense.clone();
            move |a| oracle::spmm(&dense, &b_coo[a])
        }),
    };
    let group_inputs = Inputs {
        name: "spmm_group_coo",
        expr: apps::SPMM_GROUP_EXPR,
        requests: b_group
            .iter()
            .map(|b| apps::spmm_group(&gc, b).tensors)
            .collect(),
        format_bytes: gc.device_bytes(),
        oracle: Box::new(move |a| oracle::spmm(&dense, &b_group[a])),
    };
    [coo_inputs, group_inputs]
}

fn conv(rng: &mut SmallRng) -> Inputs {
    let room = &pointcloud::rooms()[0];
    let pts = pointcloud::generate_points(room, 0.10, rng);
    let scene = pointcloud::voxelize(&pts, 0.05);
    let km = pointcloud::kernel_map(&scene, 3);
    let weight = rand_normal(vec![27, 32, 32], rng);
    let inputs: Vec<Tensor> = (0..ACTIVATIONS)
        .map(|_| rand_normal(vec![scene.len(), 32], rng))
        .collect();
    let requests = inputs
        .iter()
        .map(|x| apps::sparse_conv(&km, x, &weight).tensors)
        .collect();
    Inputs {
        name: "pointcloud_conv",
        expr: apps::CONV_EXPR,
        requests,
        format_bytes: 0,
        oracle: Box::new(move |a| oracle::sparse_conv(&km, &inputs[a], &weight)),
    }
}

fn tensor_product(rng: &mut SmallRng) -> Inputs {
    let cg = equivariant::cg_tensor(2, 8);
    let (batch, u, w) = (128, 16, 16);
    let y = rand_uniform(vec![batch, cg.dim], -1.0, 1.0, rng);
    let wt = rand_uniform(vec![batch, cg.paths.len(), u, w], -0.5, 0.5, rng);
    let xs: Vec<Tensor> = (0..ACTIVATIONS)
        .map(|_| rand_uniform(vec![batch, cg.dim, u], -1.0, 1.0, rng))
        .collect();
    let requests = xs
        .iter()
        .map(|x| apps::equivariant_tp(&cg, x, &y, &wt).tensors)
        .collect();
    Inputs {
        name: "equivariant_tp",
        expr: apps::TP_EXPR,
        requests,
        format_bytes: 0,
        oracle: Box::new(move |a| oracle::tensor_product(&cg, &xs[a], &y, &wt)),
    }
}

struct State {
    kernels: Vec<Kernel>,
    /// Seeded rotation order over `kernels`.
    order: Vec<usize>,
    autotune_configs: Vec<usize>,
}

/// Generate inputs and oracles, compile every kernel cold, warm up.
/// Returns (total seconds, compile seconds, state).
fn setup(seed: u64, traced: bool) -> Result<(f64, f64, State), String> {
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let [coo, group] = coo_pair(&mut rng);
    let all = [
        block_group(&mut rng),
        coo,
        group,
        conv(&mut rng),
        tensor_product(&mut rng),
    ];
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.shuffle(&mut rng);
    let options = InsumOptions::autotuned();
    let mut compile_s = 0.0;
    let mut state = State {
        kernels: Vec::new(),
        order,
        autotune_configs: Vec::new(),
    };
    for k in all {
        let expected = (0..ACTIVATIONS).map(|a| (k.oracle)(a)).collect();
        clear_caches();
        let t = Instant::now();
        let (compiled, traced_art) = if traced {
            // The traced compile is the measured one; the library's own
            // artifact is the drift guard's reference.
            let (art, info) = span("compile", || {
                pipeline::compile(k.expr, &k.requests[0], &options)
            })?;
            state.autotune_configs.push(info.autotune_configs);
            span("compile", || {
                pipeline::run_mode(&art, &k.requests[0], &options, insum::Mode::Analytic)
            })?;
            let lib = insum_with(k.expr, &k.requests[0], &options).map_err(|e| e.to_string())?;
            (lib, Some(art))
        } else {
            let lib = insum_with(k.expr, &k.requests[0], &options).map_err(|e| e.to_string())?;
            (lib, None)
        };
        compile_s += t.elapsed().as_secs_f64();
        // Warm-up: the first Execute launch of each artifact.
        compiled.run(&k.requests[0]).map_err(|e| e.to_string())?;
        state.kernels.push(Kernel {
            name: k.name,
            expr: k.expr,
            requests: k.requests,
            expected,
            format_bytes: k.format_bytes,
            compiled,
            traced: traced_art,
        });
    }
    Ok((start.elapsed().as_secs_f64(), compile_s, state))
}

fn op(state: &State, i: usize, traced: bool) -> Result<OpOutcome, String> {
    let n = state.order.len();
    let k = &state.kernels[state.order[i % n]];
    let a = (i / n + i % n) % ACTIVATIONS;
    let req = &k.requests[a];
    let compiled = &k.compiled;
    let options = compiled.options().clone();
    let t0 = Instant::now();
    let got = if traced {
        let art = k.traced.as_ref().ok_or("no traced artifact")?;
        span(trace::OP, || pipeline::run(art, req, &options))
    } else {
        compiled.run(req).map_err(|e| e.to_string())
    };
    let latency_s = t0.elapsed().as_secs_f64();
    if traced {
        if let Ok(got) = &got {
            let want = compiled.run(req).map_err(|e| e.to_string())?;
            pipeline::guard(got, &want).map_err(|e| format!("{} ({}): {e}", k.name, k.expr))?;
        }
    }
    Ok(match got {
        Ok((out, profile)) => OpOutcome {
            latency_s,
            ok: oracle::matches(&out, &k.expected[a]),
            warm: true,
            profile,
        },
        Err(_) => OpOutcome {
            latency_s,
            ok: false,
            warm: true,
            profile: insum::Profile::new(),
        },
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let window = WINDOW_ROTATIONS * 5;
    if !args.trace {
        let mut compiles = Vec::with_capacity(SETUP_REPS);
        let (setup_s, state, phase) = around_setups(
            SETUP_REPS,
            || {
                let (total, compile, state) = setup(args.seed, false)?;
                compiles.push(compile);
                Ok((total - compile, state))
            },
            |state| closed::run(args.seconds, window, 1, |i| op(state, i, false)),
        )?;
        report.set("setup_s", setup_s);
        report.set("compile_s", compile_s(&compiles)?);
        report.closed_loop_metrics(&phase, LIMIT_S);
        note_kernels(&mut report, &state, &phase);
        return Ok(report);
    }
    // Traced run: an untraced half for the overhead baseline, then the
    // traced half with the drift guard on every op.
    let (_, _, state) = span("setup", || setup(args.seed, true))?;
    let half = args.seconds / 2.0;
    let untraced = trace::paused(|| closed::run(half, window, 1, |i| op(&state, i, false)))?;
    let traced = closed::run(half, window, 1, |i| op(&state, i, true))?;
    report.count_ops(&untraced);
    report.count_ops(&traced);
    report.device_layer_metrics(&traced);
    report.overhead_metric(&untraced, &traced);
    report.span_layer_metrics(&trace::attribute_recorded());
    let configs = &state.autotune_configs;
    report.set(
        "inductor.autotune_configs",
        configs.iter().sum::<usize>() as f64 / configs.len().max(1) as f64,
    );
    let dedup = state
        .kernels
        .iter()
        .filter(|k| {
            k.traced
                .as_ref()
                .and_then(|a| pipeline::program_of(a, &k.requests[0]))
                .is_some_and(|p| p.analytic_dedup_available())
        })
        .count();
    report.set(
        "gpu.analytic_class_frac",
        dedup as f64 / state.kernels.len() as f64,
    );
    let formats: Vec<usize> = state
        .kernels
        .iter()
        .map(|k| k.format_bytes)
        .filter(|&b| b > 0)
        .collect();
    report.set(
        "formats.bytes",
        formats.iter().sum::<usize>() as f64 / formats.len().max(1) as f64,
    );
    report.set("pattern.fast_frac", 0.0);
    report.set("planner.flops_ratio", 0.0);
    for name in [
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

fn note_kernels(report: &mut Report, state: &State, phase: &Phase) {
    let n = state.order.len();
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (i, r) in phase.records.iter().enumerate() {
        lat[state.order[i % n]].push(r.latency_s);
    }
    for (k, xs) in state.kernels.iter().zip(&lat) {
        report.note(format!(
            "{}: {} ops, median {:.2} ms",
            k.name,
            xs.len(),
            crate::stats::median(xs) * 1e3
        ));
    }
}
