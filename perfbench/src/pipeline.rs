//! The library's compile-and-run path, driven one public layer call at
//! a time so each call can be traced.
//!
//! [`compile`] and [`run`] mirror `insum::insum_with(..).run(..)`:
//! parse, fast-path classification, `build_plan`, `compile_fused` or
//! `autotune`, then `ProgramCache::get_or_compile` and a launch, or
//! `run_micro` for a recognized pattern. [`compile_chain`] and
//! [`run_chain`] mirror `insum::plan(..).run(..)` the same way. The
//! mirror is only trusted because [`guard`] checks every traced op
//! against the library's own entry point: output bits and `Profile`
//! must be identical, so a library change the mirror misses fails the
//! run instead of skewing the per-layer numbers.

use crate::trace::span;
use insum::{InsumOptions, Mode, Profile, Tensor};
use insum_gpu::Program;
use insum_graph::TensorMeta;
use insum_inductor::{autotune, build_plan, compile_fused, CodegenOptions, FusedOp, ProgramCache};
use insum_lang::{AssignOp, IndexExpr, Statement};
use insum_pattern::{classify_terms, Pattern};
use insum_planner::{eval_pairwise, ChainSpec, ContractionPlan, OrderStrategy, PlanStep, Source};
use insum_tensor::DType;
use std::collections::BTreeMap;
use std::sync::Arc;

pub type Tensors = BTreeMap<String, Tensor>;

/// A compiled single statement.
pub enum Artifact {
    Fast {
        pattern: Pattern,
        factors: Vec<String>,
        out: String,
        accumulate: bool,
    },
    Fused(Box<FusedOp>),
}

/// What compiling one statement cost and chose.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompileInfo {
    pub fast: bool,
    pub autotune_configs: usize,
}

pub fn metas_of(tensors: &Tensors) -> BTreeMap<String, TensorMeta> {
    tensors
        .iter()
        .map(|(n, t)| (n.clone(), TensorMeta::new(t.shape().to_vec(), t.dtype())))
        .collect()
}

fn codegen(o: &InsumOptions) -> CodegenOptions {
    CodegenOptions {
        tensor_cores: o.tensor_cores,
        lazy_broadcast: o.lazy_broadcast,
        yblock: o.yblock,
        xblock: o.xblock,
        rblock: o.rblock,
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The fast-path gate of `insum_with`: the recognized pattern, or
/// `None` for the general lowering.
fn fast_pattern(
    stmt: &Statement,
    metas: &BTreeMap<String, TensorMeta>,
    o: &InsumOptions,
) -> Option<Pattern> {
    if !o.fast_path || !o.fuse || stmt.output.has_indirection() {
        return None;
    }
    if stmt.factors.is_empty()
        || stmt.factors.len() > 2
        || stmt.factors.iter().any(|f| f.has_indirection())
        || stmt.factors.iter().any(|f| f.tensor == stmt.output.tensor)
    {
        return None;
    }
    let term_of = |indices: &[IndexExpr]| -> Option<Vec<String>> {
        indices
            .iter()
            .map(|ix| match ix {
                IndexExpr::Var(v) => Some(v.clone()),
                IndexExpr::Indirect(_) => None,
            })
            .collect()
    };
    let terms: Vec<Vec<String>> = stmt
        .factors
        .iter()
        .map(|f| term_of(&f.indices))
        .collect::<Option<_>>()?;
    let out_vars = term_of(&stmt.output.indices)?;
    let pattern = classify_terms(&terms, &out_vars);
    if !pattern.is_fast() {
        return None;
    }
    let mut extents: BTreeMap<&str, usize> = BTreeMap::new();
    for (f, term) in stmt.factors.iter().zip(&terms) {
        let meta = metas.get(&f.tensor)?;
        if meta.dtype == DType::I32 || meta.shape.len() != term.len() {
            return None;
        }
        for (var, &ext) in term.iter().zip(&meta.shape) {
            if *extents.entry(var).or_insert(ext) != ext {
                return None;
            }
        }
    }
    let out_meta = metas.get(&stmt.output.tensor)?;
    let want_out: Vec<usize> = out_vars
        .iter()
        .map(|v| extents.get(v.as_str()).copied())
        .collect::<Option<_>>()?;
    if out_meta.dtype == DType::I32 || out_meta.shape != want_out {
        return None;
    }
    let accumulate = stmt.op == AssignOp::Accumulate;
    let declined = match pattern {
        Pattern::Transpose { .. } | Pattern::Diagonal => {
            let in_dtype = metas[&stmt.factors[0].tensor].dtype;
            accumulate || !insum_gpu::copy_view_eligible(in_dtype, out_meta.dtype)
        }
        Pattern::Matmul | Pattern::BatchedMatmul | Pattern::Dot => {
            !o.tensor_cores || o.autotune || o.rblock.is_some() || o.xblock.is_some()
        }
        Pattern::Reduction { .. } => o.autotune || o.rblock.is_some(),
        _ => false,
    };
    (!declined).then_some(pattern)
}

/// Compile one statement, layer by layer.
pub fn compile(
    expr: &str,
    tensors: &Tensors,
    o: &InsumOptions,
) -> Result<(Artifact, CompileInfo), String> {
    o.validate().map_err(err)?;
    let stmt = span("lang.parse", || insum_lang::parse(expr)).map_err(err)?;
    let metas = metas_of(tensors);
    if let Some(pattern) = span("pattern.classify", || fast_pattern(&stmt, &metas, o)) {
        let art = Artifact::Fast {
            pattern,
            factors: stmt.factors.iter().map(|f| f.tensor.clone()).collect(),
            out: stmt.output.tensor.clone(),
            accumulate: stmt.op == AssignOp::Accumulate,
        };
        let info = CompileInfo {
            fast: true,
            autotune_configs: 0,
        };
        return Ok((art, info));
    }
    if !o.fuse {
        return Err("the unfused pipeline is not mirrored".to_string());
    }
    let plan = span("inductor.build_plan", || build_plan(&stmt, &metas)).map_err(err)?;
    let mut info = CompileInfo::default();
    let op = if o.autotune {
        let r = span("inductor.autotune", || {
            autotune(&plan, &codegen(o), tensors, &o.device)
        })
        .map_err(err)?;
        info.autotune_configs = r.configs_tried;
        r.op
    } else {
        span("inductor.codegen", || compile_fused(&plan, &codegen(o))).map_err(err)?
    };
    Ok((Artifact::Fused(Box::new(op)), info))
}

fn bound<'t>(tensors: &'t Tensors, name: &str) -> Result<&'t Tensor, String> {
    tensors
        .get(name)
        .ok_or_else(|| format!("missing tensor {name:?}"))
}

/// Run a compiled statement in `mode`, layer by layer.
pub fn run_mode(
    art: &Artifact,
    tensors: &Tensors,
    o: &InsumOptions,
    mode: Mode,
) -> Result<(Tensor, Profile), String> {
    let mut profile = Profile::new();
    let out = match art {
        Artifact::Fast {
            pattern,
            factors,
            out,
            accumulate,
        } => {
            let args: Vec<Tensor> = factors
                .iter()
                .map(|n| bound(tensors, n).cloned())
                .collect::<Result<_, _>>()?;
            let base = bound(tensors, out)?;
            let (t, report) = span("gpu.micro", || {
                insum_gpu::run_micro(pattern, &args, base, *accumulate, mode, &o.device)
            })
            .map_err(err)?;
            profile.push(report);
            t
        }
        Artifact::Fused(op) => {
            let mut owned = Vec::with_capacity(op.plan.param_order.len());
            for name in &op.plan.param_order {
                let t = bound(tensors, name)?;
                owned.push(span("tensor.contiguous", || t.contiguous()));
            }
            let lens: Vec<usize> = owned.iter().map(Tensor::len).collect();
            let dtypes: Vec<DType> = owned.iter().map(Tensor::dtype).collect();
            let program = span("gpu.lower", || {
                ProgramCache::global().get_or_compile(&op.kernel, &op.grid, &lens, &dtypes)
            })
            .map_err(err)?;
            let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
            let name = if mode == Mode::Execute {
                "gpu.execute"
            } else {
                "gpu.analytic"
            };
            let report = span(name, || {
                program.launch_with(&mut refs, &o.device, mode, &o.launch_options())
            })
            .map_err(err)?;
            profile.push(report);
            let pos = op
                .plan
                .param_order
                .iter()
                .position(|n| n == &op.plan.output.tensor)
                .ok_or("output is not a launch parameter")?;
            owned.swap_remove(pos)
        }
    };
    Ok((out, profile))
}

/// The resident simulator program of a fused artifact for these
/// bindings (`None` for a fast-path artifact).
pub fn program_of(art: &Artifact, tensors: &Tensors) -> Option<Arc<Program>> {
    let Artifact::Fused(op) = art else {
        return None;
    };
    let args: Vec<&Tensor> = op
        .plan
        .param_order
        .iter()
        .map(|n| tensors.get(n))
        .collect::<Option<_>>()?;
    let lens: Vec<usize> = args.iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = args.iter().map(|t| t.dtype()).collect();
    ProgramCache::global()
        .get_or_compile(&op.kernel, &op.grid, &lens, &dtypes)
        .ok()
}

pub fn run(
    art: &Artifact,
    tensors: &Tensors,
    o: &InsumOptions,
) -> Result<(Tensor, Profile), String> {
    run_mode(art, tensors, o, Mode::Execute)
}

/// A compiled contraction chain: the plan plus one artifact per device
/// step (`None` for a host-evaluated rank-0 step).
pub struct Chain {
    plan: ContractionPlan,
    temp_names: Vec<String>,
    steps: Vec<Option<Artifact>>,
    /// Planned FLOPs over left-to-right FLOPs.
    pub flops_ratio: f64,
}

/// Plan and compile a chain, layer by layer.
pub fn compile_chain(expr: &str, tensors: &Tensors, o: &InsumOptions) -> Result<Chain, String> {
    o.validate().map_err(err)?;
    let stmt = span("lang.parse", || insum_lang::parse(expr)).map_err(err)?;
    let spec = ChainSpec::from_statement(&stmt).map_err(err)?;
    let shapes: Vec<Vec<usize>> = spec
        .operands
        .iter()
        .map(|op| bound(tensors, &op.name).map(|t| t.shape().to_vec()))
        .collect::<Result<_, _>>()?;
    let plan = span("planner.plan", || {
        ContractionPlan::new(spec.clone(), &shapes, OrderStrategy::Auto)
    })
    .map_err(err)?;
    let naive = ContractionPlan::naive(spec, &shapes).map_err(err)?;
    let mut temp_names = vec![String::new(); plan.temp_count];
    for step in &plan.steps {
        if let Some(k) = step.out_temp {
            temp_names[k] = step.out_name.clone();
        }
    }
    let mut chain = Chain {
        flops_ratio: plan.total_flops as f64 / naive.total_flops.max(1) as f64,
        plan,
        temp_names,
        steps: Vec::new(),
    };
    // Steps compile against zero temporaries: shapes drive lowering.
    let mut temps: Vec<Option<Tensor>> = vec![None; chain.plan.temp_count];
    for step in &chain.plan.steps {
        let art = if step.host {
            None
        } else {
            let bindings = chain.step_bindings(step, tensors, &temps)?;
            Some(compile(&step.expression, &bindings, o)?.0)
        };
        chain.steps.push(art);
        if let Some(k) = step.out_temp {
            temps[k] = Some(Tensor::zeros(step.out_shape.clone()));
        }
    }
    Ok(chain)
}

impl Chain {
    fn fetch(
        &self,
        src: Source,
        user: &Tensors,
        temps: &[Option<Tensor>],
    ) -> Result<Tensor, String> {
        match src {
            Source::Input(i) => bound(user, &self.plan.spec.operands[i].name).cloned(),
            Source::Temp(k) => temps[k]
                .clone()
                .ok_or_else(|| format!("temporary {k} used before it was produced")),
        }
    }

    fn output_binding(&self, user: &Tensors) -> Result<Tensor, String> {
        if self.plan.spec.op == AssignOp::Accumulate {
            bound(user, &self.plan.spec.output_name).cloned()
        } else {
            Ok(Tensor::zeros(self.plan.output_shape.clone()))
        }
    }

    fn step_bindings(
        &self,
        step: &PlanStep,
        user: &Tensors,
        temps: &[Option<Tensor>],
    ) -> Result<Tensors, String> {
        let mut map = Tensors::new();
        for src in std::iter::once(step.lhs).chain(step.rhs) {
            let name = match src {
                Source::Input(i) => self.plan.spec.operands[i].name.clone(),
                Source::Temp(k) => self.temp_names[k].clone(),
            };
            map.insert(name, self.fetch(src, user, temps)?);
        }
        let out = match step.out_temp {
            Some(_) => Tensor::zeros(step.out_shape.clone()),
            None => self.output_binding(user)?,
        };
        map.insert(step.out_name.clone(), out);
        Ok(map)
    }
}

/// Run a compiled chain, layer by layer.
pub fn run_chain(
    chain: &Chain,
    tensors: &Tensors,
    o: &InsumOptions,
) -> Result<(Tensor, Profile), String> {
    let mut temps: Vec<Option<Tensor>> = vec![None; chain.plan.temp_count];
    let mut profile = Profile::new();
    let mut output = None;
    for (step, art) in chain.plan.steps.iter().zip(&chain.steps) {
        let out = match art {
            Some(art) => {
                let bindings = chain.step_bindings(step, tensors, &temps)?;
                let (out, p) = run(art, &bindings, o)?;
                profile.reports.extend(p.reports);
                out
            }
            None => {
                let lhs = chain.fetch(step.lhs, tensors, &temps)?;
                let rhs = step
                    .rhs
                    .map(|src| chain.fetch(src, tensors, &temps))
                    .transpose()?;
                let mut value = span("planner.host_step", || {
                    eval_pairwise(&step.einsum_spec, &lhs, rhs.as_ref())
                })
                .map_err(err)?;
                if step.out_temp.is_none() && chain.plan.spec.op == AssignOp::Accumulate {
                    let base = chain.output_binding(tensors)?;
                    let (b, v) = (base.contiguous_data(), value.contiguous_data());
                    let sum = b.iter().zip(v.iter()).map(|(x, y)| x + y).collect();
                    value = Tensor::from_vec(base.shape().to_vec(), sum).map_err(err)?;
                }
                value
            }
        };
        match step.out_temp {
            Some(k) => temps[k] = Some(out),
            None => output = Some(out),
        }
        for &k in &step.frees {
            temps[k] = None;
        }
    }
    Ok((output.ok_or("the plan has no output step")?, profile))
}

/// The drift guard: `got` must equal the library's own result bit for
/// bit, output values and `Profile` both.
pub fn guard(got: &(Tensor, Profile), want: &(Tensor, Profile)) -> Result<(), String> {
    if !got.0.bit_eq(&want.0) {
        return Err("traced output bits differ from the library's".to_string());
    }
    if got.1 != want.1 {
        return Err("traced profile differs from the library's".to_string());
    }
    Ok(())
}
