//! `MultiHeadAttention` against the layer it was before its per-head core
//! moved into `puffer_tensor::attention`, bit for bit.
//!
//! [`Oracle`] is the previous commit's layer — construction, forward and
//! backward, loops and all — moved here verbatim. Both run the same
//! projections from the same seeds; the layer's outputs, its input
//! gradients and the accumulated gradients of all four projections (dense
//! and factorized) must equal the oracle's in every bit, with the SIMD
//! kernels on and off, for self-, causal and cross-attention. The kernels'
//! own suite, with non-finite operands and odd head widths, is
//! `crates/tensor/tests/attention_bitwise.rs`.
//!
//! The SIMD switch is process-global, so every test serializes on one lock.

use std::sync::Mutex;

use puffer_nn::attention::{BlockRank, MultiHeadAttention};
use puffer_nn::linear::MatOp;
use puffer_nn::param::Param;
use puffer_tensor::gemm;
use puffer_tensor::Tensor;

static SIMD_LOCK: Mutex<()> = Mutex::new(());

fn make_op(name: &str, out_dim: usize, in_dim: usize, rank: BlockRank, seed: u64) -> MatOp {
    let std = (2.0 / (in_dim + out_dim) as f32).sqrt();
    MatOp::new(name, out_dim, in_dim, rank, std, seed).expect("rank fits")
}

struct Oracle {
    wq: MatOp,
    wk: MatOp,
    wv: MatOp,
    wo: MatOp,
    heads: usize,
    d_model: usize,
    cache: Option<OracleCache>,
}

struct OracleCache {
    q_in: Tensor,
    kv_in: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor,
    z: Tensor,
    b: usize,
    tq: usize,
    tk: usize,
}

impl Oracle {
    fn new(d_model: usize, heads: usize, rank: BlockRank, seed: u64) -> Self {
        Oracle {
            wq: make_op("attention.wq", d_model, d_model, rank, seed),
            wk: make_op("attention.wk", d_model, d_model, rank, seed.wrapping_add(10)),
            wv: make_op("attention.wv", d_model, d_model, rank, seed.wrapping_add(20)),
            wo: make_op("attention.wo", d_model, d_model, rank, seed.wrapping_add(30)),
            heads,
            d_model,
            cache: None,
        }
    }

    fn forward(&mut self, query: &Tensor, key_value: &Tensor, causal: bool) -> Tensor {
        let (b, tq, dm) = (query.shape()[0], query.shape()[1], query.shape()[2]);
        let tk = key_value.shape()[1];
        let q_in = query.reshape(&[b * tq, dm]).expect("flatten");
        let kv_in = key_value.reshape(&[b * tk, dm]).expect("flatten");
        let q = self.wq.apply(&q_in);
        let k = self.wk.apply(&kv_in);
        let v = self.wv.apply(&kv_in);

        let p = self.heads;
        let dh = dm / p;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut attn = Tensor::zeros(&[b, p, tq, tk]);
        let mut z = Tensor::zeros(&[b * tq, dm]);
        let (qs, ks, vs) = (q.as_slice(), k.as_slice(), v.as_slice());
        let (attn_s, zs) = (attn.as_mut_slice(), z.as_mut_slice());
        for bi in 0..b {
            for h in 0..p {
                for i in 0..tq {
                    // scores[i][j] = <Q_i, K_j> * scale
                    let qrow = &qs[(bi * tq + i) * dm + h * dh..][..dh];
                    let srow = &mut attn_s[((bi * p + h) * tq + i) * tk..][..tk];
                    let mut max = f32::NEG_INFINITY;
                    for (j, score) in srow.iter_mut().enumerate() {
                        let krow = &ks[(bi * tk + j) * dm + h * dh..][..dh];
                        let mut s = 0.0;
                        for (a, bv) in qrow.iter().zip(krow) {
                            s += a * bv;
                        }
                        s *= scale;
                        if causal && j > i {
                            s = f32::NEG_INFINITY;
                        }
                        *score = s;
                        max = max.max(s);
                    }
                    // softmax in place
                    let mut zsum = 0.0;
                    for score in srow.iter_mut() {
                        let e = (*score - max).exp();
                        *score = e;
                        zsum += e;
                    }
                    for score in srow.iter_mut() {
                        *score /= zsum;
                    }
                    // z_i = Σ_j a_ij V_j
                    let zrow = &mut zs[(bi * tq + i) * dm + h * dh..][..dh];
                    for (j, &a) in srow.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let vrow = &vs[(bi * tk + j) * dm + h * dh..][..dh];
                        for (zo, vv) in zrow.iter_mut().zip(vrow) {
                            *zo += a * vv;
                        }
                    }
                }
            }
        }
        let out = self.wo.apply(&z);
        self.cache = Some(OracleCache { q_in, kv_in, q, k, v, attn, z, b, tq, tk });
        Tensor::from_vec(out.into_vec(), &[b, tq, dm]).expect("unflatten")
    }

    fn backward(&mut self, grad_output: &Tensor) -> (Tensor, Tensor) {
        let cache = self.cache.take().expect("backward before forward");
        let (b, tq, tk, dm) = (cache.b, cache.tq, cache.tk, self.d_model);
        let dout = grad_output.reshape(&[b * tq, dm]).expect("flatten");
        let dz = self.wo.backward(&cache.z, &dout);

        let p = self.heads;
        let dh = dm / p;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut dq = Tensor::zeros(&[b * tq, dm]);
        let mut dk = Tensor::zeros(&[b * tk, dm]);
        let mut dv = Tensor::zeros(&[b * tk, dm]);
        let mut da = puffer_tensor::workspace::take(tk);
        let (dzs, attn_s) = (dz.as_slice(), cache.attn.as_slice());
        let (qs, ks, vs) = (cache.q.as_slice(), cache.k.as_slice(), cache.v.as_slice());
        let (dqs, dks, dvs) = (dq.as_mut_slice(), dk.as_mut_slice(), dv.as_mut_slice());
        for bi in 0..b {
            for h in 0..p {
                for i in 0..tq {
                    let qrow_base = (bi * tq + i) * dm + h * dh;
                    let dzrow = &dzs[qrow_base..qrow_base + dh];
                    let arow = &attn_s[((bi * p + h) * tq + i) * tk..][..tk];
                    // dA_ij = <dZ_i, V_j>; dV_j += a_ij dZ_i
                    for (j, (daj, &a)) in da.iter_mut().zip(arow).enumerate() {
                        let vrow_base = (bi * tk + j) * dm + h * dh;
                        let mut acc = 0.0;
                        for (dzv, vv) in dzrow.iter().zip(&vs[vrow_base..vrow_base + dh]) {
                            acc += dzv * vv;
                        }
                        *daj = acc;
                        if a != 0.0 {
                            let dvrow = &mut dvs[vrow_base..vrow_base + dh];
                            for (dvv, dzv) in dvrow.iter_mut().zip(dzrow) {
                                *dvv += a * dzv;
                            }
                        }
                    }
                    // Softmax backward: dS_ij = a_ij (dA_ij − Σ_l a_il dA_il)
                    let dot: f32 = arow.iter().zip(da.iter()).map(|(a, daj)| a * daj).sum();
                    for (daj, &a) in da.iter_mut().zip(arow) {
                        *daj = a * (*daj - dot) * scale;
                    }
                    // dQ_i += Σ_j dS_ij K_j ; dK_j += dS_ij Q_i
                    let qrow = &qs[qrow_base..qrow_base + dh];
                    let dqrow = &mut dqs[qrow_base..qrow_base + dh];
                    for (j, &ds) in da.iter().enumerate() {
                        if ds == 0.0 {
                            continue;
                        }
                        let krow_base = (bi * tk + j) * dm + h * dh;
                        let krow = &ks[krow_base..krow_base + dh];
                        let dkrow = &mut dks[krow_base..krow_base + dh];
                        for ((dqv, kv), (dkv, qv)) in
                            dqrow.iter_mut().zip(krow).zip(dkrow.iter_mut().zip(qrow))
                        {
                            *dqv += ds * kv;
                            *dkv += ds * qv;
                        }
                    }
                }
            }
        }
        let dq_in = self.wq.backward(&cache.q_in, &dq);
        let mut dkv_in = self.wk.backward(&cache.kv_in, &dk);
        dkv_in.axpy(1.0, &self.wv.backward(&cache.kv_in, &dv)).expect("shape");
        (
            Tensor::from_vec(dq_in.into_vec(), &[b, tq, dm]).expect("unflatten"),
            Tensor::from_vec(dkv_in.into_vec(), &[b, tk, dm]).expect("unflatten"),
        )
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = self.wq.params();
        v.extend(self.wk.params());
        v.extend(self.wv.params());
        v.extend(self.wo.params());
        v
    }
}

fn assert_bits(what: &str, ours: &Tensor, oracle: &Tensor) {
    assert_eq!(ours.shape(), oracle.shape(), "{what}: shape");
    for (i, (a, b)) in ours.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a:e} vs oracle {b:e}");
    }
}

/// Two steps (so projection gradients accumulate) of `[b, tq, d]` queries
/// over `[b, tk, d]` keys, layer against oracle, SIMD on and off.
fn check(
    d: usize,
    heads: usize,
    rank: BlockRank,
    (b, tq, tk): (usize, usize, usize),
    causal: bool,
) {
    let _g = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for tier in gemm::host_tiers() {
        gemm::set_tier(tier);
        let at = format!(
            "d={d} heads={heads} {rank:?} b={b} tq={tq} tk={tk} causal={causal} tier={tier:?}"
        );
        let mut layer = MultiHeadAttention::new(d, heads, rank, 5).expect("valid config");
        let mut oracle = Oracle::new(d, heads, rank, 5);
        for step in 0..2u64 {
            let q = Tensor::randn(&[b, tq, d], 1.0, 10 + step);
            let kv = if causal { q.clone() } else { Tensor::randn(&[b, tk, d], 1.0, 20 + step) };
            let dy = Tensor::randn(&[b, tq, d], 1.0, 30 + step);
            assert_bits(
                &format!("y {at}"),
                &layer.forward(&q, &kv, causal),
                &oracle.forward(&q, &kv, causal),
            );
            let (dq, dkv) = layer.backward(&dy);
            let (dq_o, dkv_o) = oracle.backward(&dy);
            assert_bits(&format!("dquery {at}"), &dq, &dq_o);
            assert_bits(&format!("dkey_value {at}"), &dkv, &dkv_o);
        }
        let (ours, theirs) = (layer.params(), oracle.params());
        assert_eq!(ours.len(), theirs.len());
        for (p, o) in ours.iter().zip(&theirs) {
            assert_eq!(p.name, o.name);
            assert_bits(&format!("{} value {at}", p.name), &p.value, &o.value);
            assert_bits(&format!("{} grad {at}", p.name), &p.grad, &o.grad);
        }
    }
    gemm::set_tier(gemm::Tier::Avx512);
}

#[test]
fn self_attention_matches_the_previous_layer() {
    check(32, 4, BlockRank::Full, (3, 12, 12), false);
    check(32, 4, BlockRank::LowRank(8), (2, 9, 9), false);
}

#[test]
fn causal_self_attention_matches_the_previous_layer() {
    check(32, 4, BlockRank::Full, (3, 12, 12), true);
    check(24, 2, BlockRank::LowRank(4), (2, 17, 17), true);
}

#[test]
fn cross_attention_matches_the_previous_layer() {
    check(32, 4, BlockRank::Full, (3, 11, 12), false);
    check(12, 3, BlockRank::LowRank(3), (2, 5, 9), false);
}
