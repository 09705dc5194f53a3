//! The attention kernels against the loops they replaced, bit for bit.
//!
//! `attention::forward` and `attention::backward` run the per-head core of
//! `MultiHeadAttention` as lane kernels (AVX2, with a scalar twin). The
//! oracle below is that layer's forward and backward loops as they were,
//! verbatim but for taking the projected Q/K/V as arguments. Every output
//! — the softmax weights, `Z`, `dQ`, `dK`, `dV` — must equal the oracle's
//! in every bit, with SIMD on and off, over head widths that are and are
//! not whole vectors, key counts on both sides of a vector edge,
//! cross-attention, the causal mask, and operands carrying signed zeros,
//! infinities, NaN and weights that underflow to zero (so that a skipped
//! zero weight meets an infinite row). NaN compares equal to NaN: IEEE
//! leaves the payload of an operation on two NaNs to the implementation,
//! and the compiler may commute a multiply. A last test holds the kernels'
//! probe spans and multiply–add count.
//!
//! The SIMD switch and the probe are process-global, so every test
//! serializes on one lock.

use std::sync::Mutex;

use puffer_tensor::attention::{self, Heads};
use puffer_tensor::gemm;
use puffer_tensor::Tensor;

static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// `MultiHeadAttention::forward`'s loops: `(weights, z)`.
#[allow(clippy::too_many_arguments)]
fn oracle_forward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    b: usize,
    p: usize,
    tq: usize,
    tk: usize,
    causal: bool,
) -> (Tensor, Tensor) {
    let dm = q.shape()[1];
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
    (attn, z)
}

/// `MultiHeadAttention::backward`'s loops: `(dq, dk, dv)`.
#[allow(clippy::too_many_arguments)]
fn oracle_backward(
    dz: &Tensor,
    attn: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    b: usize,
    p: usize,
    tq: usize,
    tk: usize,
) -> (Tensor, Tensor, Tensor) {
    let dm = q.shape()[1];
    let dh = dm / p;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut dq = Tensor::zeros(&[b * tq, dm]);
    let mut dk = Tensor::zeros(&[b * tk, dm]);
    let mut dv = Tensor::zeros(&[b * tk, dm]);
    let mut da = puffer_tensor::workspace::take(tk);
    let (dzs, attn_s) = (dz.as_slice(), attn.as_slice());
    let (qs, ks, vs) = (q.as_slice(), k.as_slice(), v.as_slice());
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
    (dq, dk, dv)
}

/// Bit-for-bit equality, NaN matching any NaN.
fn assert_same(what: &str, ours: &Tensor, oracle: &Tensor) {
    assert_eq!(ours.shape(), oracle.shape(), "{what}: shape");
    for (i, (&a, &b)) in ours.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{what}[{i}]: {a:e} ({:#010x}) vs oracle {b:e} ({:#010x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

#[derive(Debug, Clone, Copy)]
struct Case {
    b: usize,
    heads: usize,
    dh: usize,
    tq: usize,
    tk: usize,
    causal: bool,
}

/// What the operands carry besides Gaussian values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Values {
    Plain,
    /// Signed zeros, whole zero rows, and query rows scaled so far up that
    /// most of their softmax weights underflow to `+0.0` while the key and
    /// value rows they skip carry infinities.
    ZerosAndSkips,
    /// Rows carrying `±∞` and NaN, so whole softmax rows turn NaN or
    /// infinite.
    NonFinite,
}

/// Row `r` (modulo the row count) of a `[rows, dm]` tensor.
fn row_of(t: &mut Tensor, r: usize, dm: usize) -> &mut [f32] {
    let n = t.shape()[0];
    &mut t.as_mut_slice()[(r % n) * dm..][..dm]
}

fn operands(c: &Case, values: Values, seed: u64) -> [Tensor; 4] {
    let dm = c.heads * c.dh;
    let mut q = Tensor::randn(&[c.b * c.tq, dm], 1.0, seed);
    let mut k = Tensor::randn(&[c.b * c.tk, dm], 1.0, seed + 1);
    let mut v = Tensor::randn(&[c.b * c.tk, dm], 1.0, seed + 2);
    let mut dz = Tensor::randn(&[c.b * c.tq, dm], 1.0, seed + 3);
    match values {
        Values::Plain => {}
        Values::ZerosAndSkips => {
            for (i, x) in q.as_mut_slice().iter_mut().enumerate() {
                match i % 7 {
                    0 => *x = -0.0,
                    3 => *x = 0.0,
                    _ => {}
                }
            }
            row_of(&mut k, 1, dm).fill(-0.0);
            row_of(&mut dz, 2, dm).fill(-0.0);
            for x in row_of(&mut q, 0, dm).iter_mut() {
                *x *= 300.0;
            }
            for x in row_of(&mut dz, 0, dm).iter_mut() {
                *x *= 1e4;
            }
            for (r, x) in [(2, f32::INFINITY), (5, f32::NEG_INFINITY)] {
                row_of(&mut v, r, dm)[r % dm] = x;
                row_of(&mut k, r + 1, dm)[(r + 1) % dm] = x;
            }
        }
        Values::NonFinite => {
            row_of(&mut q, 1, dm)[0] = f32::NAN;
            row_of(&mut q, 2, dm).fill(f32::INFINITY);
            row_of(&mut q, 3, dm)[dm - 1] = f32::NEG_INFINITY;
            row_of(&mut k, 2, dm)[dm / 2] = f32::NAN;
            row_of(&mut v, 3, dm)[0] = f32::INFINITY;
            row_of(&mut dz, 4, dm)[dm - 1] = f32::NAN;
        }
    }
    [q, k, v, dz]
}

fn check(c: Case, values: Values, seed: u64) {
    let [q, k, v, dz] = operands(&c, values, seed);
    let shape = Heads { batch: c.b, heads: c.heads, tq: c.tq, tk: c.tk };
    let (wo, zo) = oracle_forward(&q, &k, &v, c.b, c.heads, c.tq, c.tk, c.causal);
    let (dqo, dko, dvo) = oracle_backward(&dz, &wo, &q, &k, &v, c.b, c.heads, c.tq, c.tk);
    for tier in gemm::host_tiers() {
        gemm::set_tier(tier);
        let at = format!("{c:?} {values:?} tier={tier:?}");
        let (w, z) = attention::forward(&q, &k, &v, shape, c.causal);
        assert_same(&format!("weights {at}"), &w, &wo);
        assert_same(&format!("z {at}"), &z, &zo);
        let (dq, dk, dv) = attention::backward(&dz, &w, &q, &k, &v, shape);
        assert_same(&format!("dq {at}"), &dq, &dqo);
        assert_same(&format!("dk {at}"), &dk, &dko);
        assert_same(&format!("dv {at}"), &dv, &dvo);
    }
    gemm::set_tier(gemm::Tier::Avx512);
}

const DH: [usize; 5] = [1, 3, 8, 16, 64];
const TK: [usize; 6] = [1, 7, 8, 9, 12, 17];
const VALUES: [Values; 3] = [Values::Plain, Values::ZerosAndSkips, Values::NonFinite];

#[test]
fn self_attention_matches_the_loops() {
    let _g = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 1;
    for dh in DH {
        for tk in TK {
            for b in [1, 3] {
                for values in VALUES {
                    check(Case { b, heads: 2, dh, tq: tk, tk, causal: false }, values, seed);
                    seed += 4;
                }
            }
        }
    }
}

#[test]
fn causal_self_attention_matches_the_loops() {
    let _g = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 1000;
    for dh in DH {
        for tk in TK {
            for b in [1, 3] {
                for values in VALUES {
                    check(Case { b, heads: 2, dh, tq: tk, tk, causal: true }, values, seed);
                    seed += 4;
                }
            }
        }
    }
}

#[test]
fn cross_attention_matches_the_loops() {
    let _g = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 2000;
    for dh in DH {
        for tk in TK {
            for (b, tq, heads) in [(1, 5, 1), (3, tk + 4, 2), (3, 1, 3)] {
                for values in VALUES {
                    check(Case { b, heads, dh, tq, tk, causal: false }, values, seed);
                    seed += 4;
                }
            }
        }
    }
}

/// The shapes `transformer_alg1` runs: batch 16, 12 positions, four heads
/// of eight — self, causal and cross.
#[test]
fn transformer_shapes_match_the_loops() {
    let _g = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (i, (tq, tk, causal)) in
        [(12, 12, false), (12, 12, true), (11, 12, false)].into_iter().enumerate()
    {
        check(Case { b: 16, heads: 4, dh: 8, tq, tk, causal }, Values::Plain, 3000 + i as u64);
    }
}

/// With the probe collecting, each kernel call is one `tensor` span named
/// for its direction, carrying the layout, and adds its multiply–adds (two
/// resp. four products of `tq·tk·dh` per head) to `tensor.macs`.
#[test]
fn kernels_record_their_span_and_macs() {
    use puffer_probe::ArgValue;

    let _g = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = puffer_probe::current_config();
    puffer_probe::configure(puffer_probe::ProbeConfig::in_memory());
    let _ = puffer_probe::take_events();
    let c = Case { b: 3, heads: 2, dh: 8, tq: 5, tk: 7, causal: false };
    let [q, k, v, dz] = operands(&c, Values::Plain, 4000);
    let shape = Heads { batch: c.b, heads: c.heads, tq: c.tq, tk: c.tk };
    let macs = || puffer_probe::counter_value("tensor.macs").unwrap_or(0.0);
    let before = macs();
    let (w, _) = attention::forward(&q, &k, &v, shape, false);
    let _ = attention::backward(&dz, &w, &q, &k, &v, shape);
    let head_product = (c.b * c.heads * c.tq * c.tk * c.dh) as f64;
    assert_eq!(macs() - before, 6.0 * head_product);
    let events = puffer_probe::take_events();
    puffer_probe::configure(saved);
    for name in ["attention_fwd", "attention_bwd"] {
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.phase == 'X' && e.cat == "tensor" && e.name == name)
            .collect();
        assert_eq!(spans.len(), 1, "{name}: {spans:?}");
        let expected: Vec<(&str, ArgValue)> = vec![
            ("heads", ArgValue::U64(6)),
            ("tq", ArgValue::U64(5)),
            ("tk", ArgValue::U64(7)),
            ("dh", ArgValue::U64(8)),
        ];
        assert_eq!(spans[0].args, expected, "{name}");
    }
}
