//! Host references written here, independent of the compiler under
//! test, and the tolerance check every output goes through.
//!
//! References accumulate in f64 from the exact input values. Outputs
//! are compared in logical order (`contiguous_data`), so a strided view
//! returned by a fast path is checked by its values, not its storage.

use insum::Tensor;
use insum_tensor::DType;
use insum_workloads::equivariant::CgTensor;
use insum_workloads::pointcloud::KernelMap;

/// Expected values of one output, row-major, with its shape.
#[derive(Debug, Clone)]
pub struct Expected {
    pub shape: Vec<usize>,
    pub values: Vec<f64>,
}

impl Expected {
    pub fn from_tensor(t: &Tensor) -> Expected {
        Expected {
            shape: t.shape().to_vec(),
            values: t.contiguous_data().iter().map(|&v| f64::from(v)).collect(),
        }
    }
}

/// Tolerance for an output of `dtype`: `|got - want| <= rtol * |want| +
/// atol * max|want|`. F16 outputs round every partial sum to 11 bits.
fn tolerance(dtype: DType) -> (f64, f64) {
    match dtype {
        DType::F16 => (1e-2, 4e-3),
        _ => (1e-3, 1e-4),
    }
}

/// True when `got` matches `want` within the dtype's tolerance.
pub fn matches(got: &Tensor, want: &Expected) -> bool {
    if got.shape() != want.shape.as_slice() {
        return false;
    }
    let (rtol, atol) = tolerance(got.dtype());
    let scale = want.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let data = got.contiguous_data();
    data.len() == want.values.len()
        && data.iter().zip(&want.values).all(|(&g, &w)| {
            let g = f64::from(g);
            g.is_finite() && (g - w).abs() <= rtol * w.abs() + atol * scale
        })
}

fn idx(t: &Tensor) -> Vec<usize> {
    t.contiguous_data().iter().map(|&v| v as usize).collect()
}

fn vals(t: &Tensor) -> Vec<f64> {
    t.contiguous_data().iter().map(|&v| f64::from(v)).collect()
}

/// `A @ B` for a dense (mostly zero) `A` of shape `[m, k]` and `B` of
/// shape `[k, n]`, skipping zero entries of `A`.
pub fn spmm(a: &Tensor, b: &Tensor) -> Expected {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let (av, bv) = (vals(a), vals(b));
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        let row = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            let x = av[i * k + kk];
            if x != 0.0 {
                for (o, &y) in row.iter_mut().zip(&bv[kk * n..(kk + 1) * n]) {
                    *o += x * y;
                }
            }
        }
    }
    Expected {
        shape: vec![m, n],
        values: out,
    }
}

/// `Out[MAPX[p,q],m] += MAPV[p,q] * In[MAPY[p,q],c] * Weight[MAPZ[p],c,m]`.
pub fn sparse_conv(km: &KernelMap, input: &Tensor, weight: &Tensor) -> Expected {
    let (c_in, c_out) = (weight.shape()[1], weight.shape()[2]);
    let (mapx, mapy, mapz) = (idx(&km.mapx), idx(&km.mapy), idx(&km.mapz));
    let (mapv, x, w) = (vals(&km.mapv), vals(input), vals(weight));
    let g = km.mapx.shape()[1];
    let mut out = vec![0.0f64; km.voxels * c_out];
    for p in 0..km.groups() {
        let wz = &w[mapz[p] * c_in * c_out..(mapz[p] + 1) * c_in * c_out];
        for q in 0..g {
            let v = mapv[p * g + q];
            if v == 0.0 {
                continue;
            }
            let (o, i) = (mapx[p * g + q], mapy[p * g + q]);
            for c in 0..c_in {
                let s = v * x[i * c_in + c];
                for m in 0..c_out {
                    out[o * c_out + m] += s * wz[c * c_out + m];
                }
            }
        }
    }
    Expected {
        shape: vec![km.voxels, c_out],
        values: out,
    }
}

/// `Z[b,CGI[p,q],w] += CGV[p,q] * X[b,CGJ[p,q],u] * Y[b,CGK[p,q]] *
/// W[b,CGL[p],u,w]`.
pub fn tensor_product(cg: &CgTensor, x: &Tensor, y: &Tensor, w: &Tensor) -> Expected {
    let (batch, dim, u_n) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (paths, w_n) = (w.shape()[1], w.shape()[3]);
    let (cgi, cgj, cgk, cgl) = (idx(&cg.cgi), idx(&cg.cgj), idx(&cg.cgk), idx(&cg.cgl));
    let (cgv, xv, yv, wv) = (vals(&cg.cgv), vals(x), vals(y), vals(w));
    let g = cg.cgi.shape()[1];
    let mut out = vec![0.0f64; batch * dim * w_n];
    for b in 0..batch {
        for p in 0..cg.groups() {
            let wp = &wv[(b * paths + cgl[p]) * u_n * w_n..(b * paths + cgl[p] + 1) * u_n * w_n];
            for q in 0..g {
                let e = p * g + q;
                let s = cgv[e] * yv[b * dim + cgk[e]];
                if s == 0.0 {
                    continue;
                }
                let xs = &xv[(b * dim + cgj[e]) * u_n..(b * dim + cgj[e] + 1) * u_n];
                let o = (b * dim + cgi[e]) * w_n;
                for (u, &xu) in xs.iter().enumerate() {
                    let su = s * xu;
                    for wi in 0..w_n {
                        out[o + wi] += su * wp[u * w_n + wi];
                    }
                }
            }
        }
    }
    Expected {
        shape: vec![batch, dim, w_n],
        values: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmm_reference_and_tolerance() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let want = spmm(&a, &b);
        assert_eq!(want.values, vec![11.0, 14.0, 9.0, 12.0]);
        let good = Tensor::from_vec(vec![2, 2], vec![11.0, 14.0, 9.0, 12.0]).unwrap();
        assert!(matches(&good, &want));
        let bad = Tensor::from_vec(vec![2, 2], vec![11.0, 14.0, 9.5, 12.0]).unwrap();
        assert!(!matches(&bad, &want));
        let nan = Tensor::from_vec(vec![2, 2], vec![11.0, f32::NAN, 9.0, 12.0]).unwrap();
        assert!(!matches(&nan, &want));
    }

    #[test]
    fn views_are_compared_in_logical_order() {
        let a = Tensor::from_vec(vec![2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let t = a.permute_view(&[1, 0]).unwrap();
        let want = Expected {
            shape: vec![3, 2],
            values: vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0],
        };
        assert!(matches(&t, &want));
    }
}
