//! Satellite guarantee for the scratch-arena workspace: pooled execution
//! is **bitwise identical** to fresh-allocation execution. Recycled
//! buffers are zeroed (or fully overwritten) before use, and buffer reuse
//! never changes reduction order, so toggling the pool must not move a
//! single bit — for matmul, convolution and LSTM, at 1, 2 and 4 worker
//! threads (the programmatic form of `PUFFER_NUM_THREADS`), with the
//! parallel threshold forced to zero so the threaded kernels run even at
//! property-test sizes.

use puffer_nn::conv::Conv2d;
use puffer_nn::layer::{Layer, Mode};
use puffer_nn::linear::BlockRank;
use puffer_nn::lstm::LstmLayer;
use puffer_tensor::rng::{check, Rng};
use puffer_tensor::{matmul, pool, workspace, Tensor};
use std::sync::Mutex;

/// Workspace enablement, the pool size and the parallel threshold are all
/// process-global; every test in this binary serializes on this lock.
static GLOBAL: Mutex<()> = Mutex::new(());

const THREAD_GRID: [usize; 3] = [1, 2, 4];

/// Runs `f` with the workspace disabled (every buffer freshly allocated)
/// and then pooled on a deliberately dirtied arena, at each thread count,
/// returning `(threads, fresh, pooled)` triples for comparison.
fn fresh_vs_pooled(f: impl Fn() -> Vec<Tensor>) -> Vec<(usize, Vec<Tensor>, Vec<Tensor>)> {
    let _guard = GLOBAL.lock().unwrap();
    let prev_threads = pool::num_threads();
    let prev_threshold = matmul::parallel_threshold();
    matmul::set_parallel_threshold(0);
    let mut out = Vec::new();
    for &t in &THREAD_GRID {
        pool::set_num_threads(t);
        workspace::set_enabled(false);
        let fresh = f();
        workspace::set_enabled(true);
        // Leave stale garbage in the calling thread's arena so a pooled
        // buffer that skipped its zeroing would be caught.
        workspace::clear_thread_arena();
        drop(Tensor::full(&[1 << 12], f32::NAN));
        let pooled = f();
        out.push((t, fresh, pooled));
    }
    workspace::set_enabled(true);
    matmul::set_parallel_threshold(prev_threshold);
    pool::set_num_threads(prev_threads);
    out
}

fn assert_bitwise(runs: Vec<(usize, Vec<Tensor>, Vec<Tensor>)>) {
    for (threads, fresh, pooled) in runs {
        assert_eq!(fresh.len(), pooled.len());
        for (i, (a, b)) in fresh.iter().zip(&pooled).enumerate() {
            assert_eq!(a.shape(), b.shape(), "shape drift at tensor {} ({} threads)", i, threads);
            for (j, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "bit drift at tensor {} element {} ({} threads): {} vs {}",
                    i,
                    j,
                    threads,
                    x,
                    y
                );
            }
        }
    }
}

fn tensor2(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let v = (0..rows * cols).map(|_| rng.gen_range(-3.0..3.0)).collect();
    Tensor::from_vec(v, &[rows, cols]).unwrap()
}

#[test]
fn matmul_pooled_matches_fresh() {
    check("matmul_pooled_matches_fresh", 8, |rng| {
        let (m, k, n) =
            (rng.gen_range(1..6usize), rng.gen_range(1..6usize), rng.gen_range(1..6usize));
        let seed = rng.gen_range(0..1000u64);
        let a = Tensor::randn(&[m, k], 1.0, seed);
        let b = Tensor::randn(&[k, n], 1.0, seed + 1);
        assert_bitwise(fresh_vs_pooled(|| {
            let c = matmul::matmul(&a, &b).unwrap();
            let ct = matmul::matmul_tn(&a, &c).unwrap();
            let cn = matmul::matmul_nt(&c, &b).unwrap();
            vec![c, ct, cn]
        }));
    });
}

#[test]
fn conv_pooled_matches_fresh() {
    check("conv_pooled_matches_fresh", 8, |rng| {
        let x = tensor2(rng, 2, 3 * 5 * 5).reshape(&[2, 3, 5, 5]).unwrap();
        let seed = rng.gen_range(0..1000u64);
        assert_bitwise(fresh_vs_pooled(|| {
            let mut conv = Conv2d::new(3, 4, 3, 1, 1, true, seed).unwrap();
            let y = conv.forward(&x, Mode::Train);
            let dx = conv.backward(&Tensor::ones(y.shape()));
            let mut grads: Vec<Tensor> = conv.params().iter().map(|p| p.grad.clone()).collect();
            grads.push(y);
            grads.push(dx);
            grads
        }));
    });
}

#[test]
fn lstm_pooled_matches_fresh() {
    check("lstm_pooled_matches_fresh", 8, |rng| {
        let xs = [tensor2(rng, 2, 4), tensor2(rng, 2, 4), tensor2(rng, 2, 4)];
        let seed = rng.gen_range(0..1000u64);
        assert_bitwise(fresh_vs_pooled(|| {
            let mut lstm = LstmLayer::new(4, 5, BlockRank::Full, seed).unwrap();
            let hs = lstm.forward_seq(&xs);
            let dhs: Vec<Tensor> = hs.iter().map(|h| Tensor::ones(h.shape())).collect();
            let dxs = lstm.backward_seq(&dhs);
            let mut out: Vec<Tensor> = lstm.params().iter().map(|p| p.grad.clone()).collect();
            out.extend(hs);
            out.extend(dxs);
            out
        }));
    });
}
