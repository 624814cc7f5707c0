//! `serve_mixed`: an open loop at a fixed arrival rate through
//! `insum_serve` with the default `ServeConfig`, from four tenants:
//!
//! * `coo` and `conv`: warm sparse tenants (COO SpMM, point-cloud
//!   convolution) whose requests carry their own activations;
//! * `dense`: fast-path ops (matmul, a transpose returned as a view,
//!   reduction, Hadamard) and a 3-operand chain;
//! * `cold`: rare COO SpMMs, each with a sparse structure of a new
//!   size, submitted with autotuning, so each forces a compile on the
//!   engine.
//!
//! Requests are sent on schedule whatever the engine's state, and each
//! is timed from when it was due, so a stall that delays later sends is
//! charged to them. Warm tenants' responses must equal serial
//! `insum_with(..).run(..)` responses computed in setup bit for bit;
//! cold responses are checked against a host SpMM.

use crate::closed::Phase;
use crate::inputs;
use crate::oracle::{self, Expected};
use crate::pipeline::Tensors;
use crate::report::Report;
use crate::stats::{self, OpRecord, RequestTiming, Schedule};
use crate::trace;
use crate::{around_setups, clear_caches, cold_pass, compile_s, Args};
use insum::{apps, insum_with, InsumOptions, Profile, Tensor};
use insum_formats::Coo;
use insum_inductor::ProgramCache;
use insum_serve::{Response, ResponseHandle, ServeConfig, ServeEngine, ServeError, SubmitOptions};
use insum_tensor::{rand_normal, rand_uniform};
use insum_workloads::pointcloud;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::Instant;

/// Requests per second, all tenants together.
pub const RATE_PER_S: f64 = 12.0;
/// Latency limit for goodput, measured from each request's due time.
pub const LIMIT_S: f64 = 0.15;
/// Tenant slots in each cycle of 40 requests (shuffled per cycle).
const CYCLE: [(Tenant, usize); 4] = [
    (Tenant::Coo, 16),
    (Tenant::Conv, 8),
    (Tenant::Dense, 15),
    (Tenant::Cold, 1),
];
/// Set-ups per run, half before the open loop and half after.
const SETUP_REPS: usize = 6;
/// Cold compile passes timed in each set-up.
const COMPILE_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tenant {
    Coo,
    Conv,
    Dense,
    Cold,
}

impl Tenant {
    fn name(self) -> &'static str {
        match self {
            Tenant::Coo => "coo",
            Tenant::Conv => "conv",
            Tenant::Dense => "dense",
            Tenant::Cold => "cold",
        }
    }
}

enum Check {
    /// The serial response: output bits and profile must match.
    Exact(Tensor, Profile),
    /// A host reference, within tolerance.
    Close(Expected),
}

struct Request {
    tenant: Tenant,
    expr: &'static str,
    tensors: Tensors,
    options: SubmitOptions,
    check: Check,
}

struct Plan {
    /// Warm tenants' request pools (every entry is served once in
    /// warm-up, so its artifact is compiled before measuring).
    warm: Vec<Request>,
    /// Cold requests, one per cold slot of the schedule.
    cold: Vec<Request>,
    /// Per scheduled request: (is cold, index into `warm` or `cold`).
    schedule: Vec<(bool, usize)>,
}

fn bind(pairs: Vec<(&str, Tensor)>) -> Tensors {
    pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
}

fn serial(expr: &str, tensors: &Tensors) -> Result<Check, String> {
    let e = |e: insum::InsumError| e.to_string();
    let options = InsumOptions::default();
    let (out, profile) = if insum::is_chain_expression(expr) {
        insum::plan(expr, tensors, &options)
            .and_then(|c| c.run(tensors))
            .map_err(e)?
    } else {
        insum_with(expr, tensors, &options)
            .and_then(|c| c.run(tensors))
            .map_err(e)?
    };
    Ok(Check::Exact(out, profile))
}

fn warm_pool(rng: &mut SmallRng) -> Result<Vec<Request>, String> {
    let mut pool = Vec::new();
    let mut push = |tenant, expr: &'static str, tensors: Tensors| -> Result<(), String> {
        let check = serial(expr, &tensors)?;
        pool.push(Request {
            tenant,
            expr,
            tensors,
            options: SubmitOptions::default(),
            check,
        });
        Ok(())
    };
    let dense = inputs::block_sparse(256, 256, 16, 16, 0.7, rng);
    let coo = Coo::from_dense(&dense).map_err(|e| e.to_string())?;
    for _ in 0..8 {
        let b = rand_uniform(vec![256, 32], -1.0, 1.0, rng);
        push(
            Tenant::Coo,
            apps::SPMM_COO_EXPR,
            apps::spmm_coo(&coo, &b).tensors,
        )?;
    }
    let pts = pointcloud::generate_points(&pointcloud::rooms()[0], 0.2, rng);
    let scene = pointcloud::voxelize(&pts, 0.1);
    let km = pointcloud::kernel_map(&scene, 3);
    let weight = rand_normal(vec![27, 16, 16], rng);
    for _ in 0..6 {
        let x = rand_normal(vec![scene.len(), 16], rng);
        push(
            Tenant::Conv,
            apps::CONV_EXPR,
            apps::sparse_conv(&km, &x, &weight).tensors,
        )?;
    }
    let mut u = |shape: Vec<usize>| rand_uniform(shape, -1.0, 1.0, rng);
    for _ in 0..2 {
        let (a, b) = (u(vec![48, 64]), u(vec![64, 32]));
        push(
            Tenant::Dense,
            "C[i,k] = A[i,j] * B[j,k]",
            bind(vec![("C", Tensor::zeros(vec![48, 32])), ("A", a), ("B", b)]),
        )?;
        let a = u(vec![64, 96]);
        push(
            Tenant::Dense,
            "T[j,i] = A[i,j]",
            bind(vec![("T", Tensor::zeros(vec![96, 64])), ("A", a)]),
        )?;
        let a = u(vec![96, 64]);
        push(
            Tenant::Dense,
            "S[i] = A[i,j]",
            bind(vec![("S", Tensor::zeros(vec![96])), ("A", a)]),
        )?;
        let (a, b) = (u(vec![64, 64]), u(vec![64, 64]));
        push(
            Tenant::Dense,
            "H[i,j] = A[i,j] * B[i,j]",
            bind(vec![("H", Tensor::zeros(vec![64, 64])), ("A", a), ("B", b)]),
        )?;
        let int = |t: Tensor| t.map(|v| (v * 2.49).round());
        let (a, b, c) = (
            int(u(vec![48, 4])),
            int(u(vec![4, 48])),
            int(u(vec![48, 32])),
        );
        push(
            Tenant::Dense,
            "O[i,l] = A[i,j] * B[j,k] * C[k,l]",
            bind(vec![("A", a), ("B", b), ("C", c)]),
        )?;
    }
    Ok(pool)
}

/// Nonzero 8×8 blocks of the first cold request's 128×128 matrix; the
/// `i`-th request (in a seeded order) keeps `COLD_BLOCKS + i`.
const COLD_BLOCKS: usize = 40;

/// `count` cold requests, each a COO SpMM whose nonzero count (and so
/// its tensor shapes) no other request has. The counts are the same for
/// every seed, so only their order and the structure change.
fn cold_requests(count: usize, rng: &mut SmallRng) -> Result<Vec<Request>, String> {
    let mut blocks: Vec<usize> = (COLD_BLOCKS..COLD_BLOCKS + count).collect();
    if blocks.last().is_some_and(|&b| b > 16 * 16) {
        return Err(format!(
            "{count} cold requests need more distinct sizes than a 128x128 matrix has"
        ));
    }
    blocks.shuffle(rng);
    blocks
        .into_iter()
        .map(|keep| {
            let dense = inputs::block_sparse_count(128, 128, 8, 8, keep, rng);
            let coo = Coo::from_dense(&dense).map_err(|e| e.to_string())?;
            let b = rand_uniform(vec![128, 32], -1.0, 1.0, rng);
            let check = Check::Close(oracle::spmm(&dense, &b));
            Ok(Request {
                tenant: Tenant::Cold,
                expr: apps::SPMM_COO_EXPR,
                tensors: apps::spmm_coo(&coo, &b).tensors,
                options: SubmitOptions::default().with_options(InsumOptions::autotuned()),
                check,
            })
        })
        .collect()
}

fn plan(seed: u64, requests: usize) -> Result<Plan, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let warm = warm_pool(&mut rng)?;
    let mut slots = Vec::with_capacity(requests);
    while slots.len() < requests {
        let mut cycle: Vec<Tenant> = CYCLE
            .iter()
            .flat_map(|&(t, n)| std::iter::repeat_n(t, n))
            .collect();
        cycle.shuffle(&mut rng);
        slots.extend(cycle);
    }
    slots.truncate(requests);
    let n_cold = slots.iter().filter(|&&t| t == Tenant::Cold).count();
    let cold = cold_requests(n_cold, &mut rng)?;
    let mut next: HashMap<Tenant, usize> = HashMap::new();
    let schedule = slots
        .iter()
        .map(|&t| {
            let k = next.entry(t).or_default();
            let i = *k;
            *k += 1;
            if t == Tenant::Cold {
                (true, i)
            } else {
                let of_tenant: Vec<usize> =
                    (0..warm.len()).filter(|&j| warm[j].tenant == t).collect();
                (false, of_tenant[i % of_tenant.len()])
            }
        })
        .collect();
    Ok(Plan {
        warm,
        cold,
        schedule,
    })
}

/// One request of each distinct artifact (expression and shapes).
fn distinct(plan: &Plan) -> Vec<&Request> {
    let mut seen = std::collections::BTreeSet::new();
    plan.warm
        .iter()
        .chain(&plan.cold)
        .filter(|r| {
            let shapes: Vec<Vec<usize>> = r.tensors.values().map(|t| t.shape().to_vec()).collect();
            seen.insert((r.expr, shapes))
        })
        .collect()
}

/// Library compile of `r`'s artifact (no run), for `compile_s`.
fn compile(r: &Request) -> Result<(), String> {
    let options = r.options.options.clone().unwrap_or_default();
    if insum::is_chain_expression(r.expr) {
        insum::plan(r.expr, &r.tensors, &options).map(drop)
    } else {
        insum_with(r.expr, &r.tensors, &options).map(drop)
    }
    .map_err(|e| e.to_string())
}

struct Served {
    plan: Plan,
    engine: ServeEngine,
}

/// Inputs, oracles, timed cold compile passes, engine boot and warm-up.
/// Returns (total seconds, each pass's seconds, state).
fn setup(seed: u64, requests: usize) -> Result<(f64, Vec<f64>, Served), String> {
    let start = Instant::now();
    let plan = plan(seed, requests)?;
    let artifacts = distinct(&plan);
    let passes = (0..COMPILE_PASSES)
        .map(|_| cold_pass(artifacts.len(), |i| compile(artifacts[i])))
        .collect::<Result<_, _>>()?;
    // The engine starts from empty caches, as a fresh server would.
    clear_caches();
    let engine = ServeEngine::new(ServeConfig::default()).map_err(|e| e.to_string())?;
    for r in &plan.warm {
        engine
            .session(r.tenant.name())
            .submit_with(r.expr, &r.tensors, &r.options)
            .and_then(ResponseHandle::wait)
            .map_err(|e| format!("warm-up {}: {e}", r.expr))?;
    }
    Ok((
        start.elapsed().as_secs_f64(),
        passes,
        Served { plan, engine },
    ))
}

/// Wakes the collector with the request index and the wake-up time,
/// which is when the engine completed the request.
struct IndexWaker {
    idx: usize,
    tx: Sender<Msg>,
}

impl Wake for IndexWaker {
    fn wake(self: Arc<Self>) {
        let _ = self.tx.send(Msg::Woken {
            idx: self.idx,
            at: Instant::now(),
        });
    }
}

enum Msg {
    Pending {
        idx: usize,
        handle: ResponseHandle,
        sent: Sent,
    },
    Done {
        idx: usize,
        sent: Sent,
        result: Box<Result<Response, ServeError>>,
        at: Instant,
    },
    Woken {
        idx: usize,
        at: Instant,
    },
}

#[derive(Clone, Copy)]
struct Sent {
    due: Instant,
    sent: Instant,
    submitted: Instant,
}

fn poll(
    handle: &mut ResponseHandle,
    idx: usize,
    tx: &Sender<Msg>,
) -> Poll<Result<Response, ServeError>> {
    let waker = Waker::from(Arc::new(IndexWaker {
        idx,
        tx: tx.clone(),
    }));
    Pin::new(handle).poll(&mut Context::from_waker(&waker))
}

/// One request's fate.
struct Outcome {
    timing: RequestTiming,
    submitted: Instant,
    result: Result<Response, ServeError>,
}

/// Completions as they arrive, in any order.
struct Collector {
    outcomes: Vec<Option<Outcome>>,
    pending: HashMap<usize, (ResponseHandle, Sent)>,
    /// Wake-ups that arrived before their handle did.
    woken: HashMap<usize, Instant>,
    resolved: usize,
}

impl Collector {
    fn finish(&mut self, idx: usize, s: Sent, result: Result<Response, ServeError>, at: Instant) {
        self.outcomes[idx] = Some(Outcome {
            timing: RequestTiming {
                due: s.due,
                sent: s.sent,
                done: at,
            },
            submitted: s.submitted,
            result,
        });
        self.resolved += 1;
    }

    fn try_finish(
        &mut self,
        idx: usize,
        mut handle: ResponseHandle,
        s: Sent,
        at: Instant,
        tx: &Sender<Msg>,
    ) {
        match poll(&mut handle, idx, tx) {
            Poll::Ready(result) => self.finish(idx, s, result, at),
            Poll::Pending => {
                self.pending.insert(idx, (handle, s));
            }
        }
    }

    fn handle(&mut self, msg: Msg, tx: &Sender<Msg>) {
        match msg {
            Msg::Done {
                idx,
                sent,
                result,
                at,
            } => self.finish(idx, sent, *result, at),
            Msg::Pending { idx, handle, sent } => match self.woken.remove(&idx) {
                Some(at) => self.try_finish(idx, handle, sent, at, tx),
                None => {
                    self.pending.insert(idx, (handle, sent));
                }
            },
            Msg::Woken { idx, at } => match self.pending.remove(&idx) {
                Some((handle, sent)) => self.try_finish(idx, handle, sent, at, tx),
                None => {
                    self.woken.insert(idx, at);
                }
            },
        }
    }
}

/// Send every scheduled request on time from one thread and collect
/// completions on this one.
fn open_loop(served: &Served) -> Vec<Outcome> {
    let plan = &served.plan;
    let n = plan.schedule.len();
    let sessions: Vec<_> = [Tenant::Coo, Tenant::Conv, Tenant::Dense, Tenant::Cold]
        .into_iter()
        .map(|t| (t, served.engine.session(t.name())))
        .collect();
    let (tx, rx) = channel::<Msg>();
    let tx_poll = tx.clone();
    let schedule = Schedule {
        start: Instant::now(),
        rate_per_s: RATE_PER_S,
    };
    thread::scope(|scope| {
        let generator = scope.spawn(move || {
            for (idx, &(cold, j)) in plan.schedule.iter().enumerate() {
                let r = if cold { &plan.cold[j] } else { &plan.warm[j] };
                let due = schedule.due(idx);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let session = &sessions
                    .iter()
                    .find(|(t, _)| *t == r.tenant)
                    .expect("a session per tenant")
                    .1;
                let sent_at = Instant::now();
                let result = session.submit_with(r.expr, &r.tensors, &r.options);
                let sent = Sent {
                    due,
                    sent: sent_at,
                    submitted: Instant::now(),
                };
                let msg = match result {
                    Err(e) => Msg::Done {
                        idx,
                        sent,
                        result: Box::new(Err(e)),
                        at: sent.submitted,
                    },
                    Ok(mut handle) => match poll(&mut handle, idx, &tx) {
                        Poll::Ready(result) => Msg::Done {
                            idx,
                            sent,
                            result: Box::new(result),
                            at: Instant::now(),
                        },
                        Poll::Pending => Msg::Pending { idx, handle, sent },
                    },
                };
                let _ = tx.send(msg);
            }
        });
        let mut c = Collector {
            outcomes: (0..n).map(|_| None).collect(),
            pending: HashMap::new(),
            woken: HashMap::new(),
            resolved: 0,
        };
        while c.resolved < n {
            let msg = rx.recv().expect("the collector holds a sender");
            c.handle(msg, &tx_poll);
        }
        generator.join().expect("generator thread panicked");
        c.outcomes
            .into_iter()
            .map(|o| o.expect("every request resolves"))
            .collect()
    })
}

fn verify(r: &Request, resp: &Response) -> bool {
    match &r.check {
        Check::Exact(out, profile) => resp.output.bit_eq(out) && resp.profile == *profile,
        Check::Close(expected) => oracle::matches(&resp.output, expected),
    }
}

/// Serve the whole schedule once and fold the outcomes into a phase,
/// recording each request's spans when tracing.
fn measure(served: &Served, report: &mut Report, layers: &mut ServeLayers) -> Phase {
    let cache0 = ProgramCache::global().stats();
    let copies0 = Tensor::deep_copy_count();
    let start = Instant::now();
    let outcomes = open_loop(served);
    let mut phase = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let cache1 = ProgramCache::global().stats();
    phase.cache_hits = cache1.hits - cache0.hits;
    phase.cache_misses = cache1.misses - cache0.misses;
    phase.deep_copies = Tensor::deep_copy_count() - copies0;
    let plan = &served.plan;
    for (i, (o, &(cold, j))) in outcomes.iter().zip(&plan.schedule).enumerate() {
        let r = if cold { &plan.cold[j] } else { &plan.warm[j] };
        let (ok, warm) = match &o.result {
            Ok(resp) => {
                let ok = verify(r, resp);
                if ok {
                    phase.device.add(&resp.profile);
                }
                layers.queue_s.push(resp.queue_seconds);
                layers.batch_sizes.push(resp.batch_size as f64);
                layers
                    .registry_hits
                    .push(f64::from(u8::from(resp.registry_hit)));
                (ok, resp.registry_hit)
            }
            Err(e) => {
                report.note(format!("request {i} ({}) failed: {e}", r.tenant.name()));
                (false, false)
            }
        };
        if !ok && o.result.is_ok() {
            report.wrong += 1;
        }
        layers.late_s.push(o.timing.late_s());
        phase.records.push(OpRecord {
            latency_s: o.timing.latency_s(),
            ok,
            warm,
        });
        if let Some(root) = trace::record(trace::OP, i as u64, None, o.timing.due, o.timing.done) {
            trace::record(
                "loadgen.late",
                i as u64,
                Some(root),
                o.timing.due,
                o.timing.sent,
            );
            trace::record(
                "serve.submit",
                i as u64,
                Some(root),
                o.timing.sent,
                o.submitted,
            );
            if let Ok(resp) = &o.result {
                let queued = o.submitted + std::time::Duration::from_secs_f64(resp.queue_seconds);
                trace::record(
                    "serve.queue_wait",
                    i as u64,
                    Some(root),
                    o.submitted,
                    queued.min(o.timing.done),
                );
            }
        }
    }
    report.attempted += phase.records.len() as u64;
    report.failed += phase.records.iter().filter(|r| !r.ok).count() as u64;
    phase
}

/// Serving-layer samples gathered from responses.
#[derive(Default)]
struct ServeLayers {
    queue_s: Vec<f64>,
    batch_sizes: Vec<f64>,
    registry_hits: Vec<f64>,
    late_s: Vec<f64>,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut layers = ServeLayers::default();
    if !args.trace {
        let requests = (RATE_PER_S * args.seconds).ceil() as usize;
        let mut compiles = Vec::with_capacity(SETUP_REPS * COMPILE_PASSES);
        let (setup_s, _, phase) = around_setups(
            SETUP_REPS,
            || {
                let (total, passes, served) = setup(args.seed, requests)?;
                compiles.extend(&passes);
                Ok((total - passes.iter().sum::<f64>(), served))
            },
            |served| Ok(measure(served, &mut report, &mut layers)),
        )?;
        report.set("setup_s", setup_s);
        report.set("compile_s", compile_s(&compiles)?);
        finish_e2e(&mut report, &phase, &layers);
        return Ok(report);
    }
    // Traced run: an untraced half, then a fresh engine for the traced
    // half (a second pass on the first engine would find the cold
    // tenant's artifacts compiled).
    let requests = (RATE_PER_S * args.seconds / 2.0).ceil() as usize;
    let (_, _, served) = setup(args.seed, requests)?;
    let untraced = trace::paused(|| measure(&served, &mut report, &mut ServeLayers::default()));
    drop(served);
    let (_, _, served) = setup(args.seed, requests)?;
    let traced = measure(&served, &mut report, &mut layers);
    finish_e2e(&mut report, &traced, &layers);
    report.device_layer_metrics(&traced);
    report.overhead_metric(&untraced, &traced);
    report.span_layer_metrics(&trace::attribute_recorded());
    let m = served.engine.metrics();
    let ms = |xs: &[f64], q: f64| stats::percentile(xs, q).unwrap_or(0.0) * 1e3;
    report.set("serve.queue_wait_ms.p50", ms(&layers.queue_s, 0.5));
    report.set("serve.queue_wait_ms.p99", ms(&layers.queue_s, 0.99));
    report.set("serve.batch_size.mean", stats::mean(&layers.batch_sizes));
    report.set(
        "serve.registry_hit_frac",
        stats::mean(&layers.registry_hits),
    );
    report.set(
        "serve.compile_ms.p99",
        m.compile().quantile_seconds(0.99) * 1e3,
    );
    report.set("serve.retries", m.retries as f64);
    report.set("loadgen.late_ms.p99", ms(&layers.late_s, 0.99));
    for name in [
        "pattern.fast_frac",
        "planner.flops_ratio",
        "inductor.autotune_configs",
        "gpu.analytic_class_frac",
        "formats.bytes",
    ] {
        report.set(name, 0.0);
    }
    Ok(report)
}

fn finish_e2e(report: &mut Report, phase: &Phase, layers: &ServeLayers) {
    report.latency_metrics(&[(&phase.records, phase.elapsed_s)], LIMIT_S);
    report.set(
        "device_us",
        phase.device.per_op(phase.device.device_s) * 1e6,
    );
    report.note(format!(
        "open loop: {} requests at {RATE_PER_S} req/s, generator late p99 {:.3} ms",
        phase.records.len(),
        stats::percentile(&layers.late_s, 0.99).unwrap_or(0.0) * 1e3
    ));
}
