//! The allgather methods' worker halves against the central rounds they
//! replaced.
//!
//! The `Reference` impls below are the rounds `Signum::round`,
//! `TopK::round`, `BinaryQuant::round` and `Atomo::round` used to be —
//! every worker's gradient in one place, one decode, memory indexed by
//! position among the workers — kept here as the oracles. The halves,
//! whether driven by the provided `GradCompressor::round` or by hand
//! through the `WorkerCodec` interface (the way the trainer drives them:
//! every worker's message laid end to end, every worker decoding all of
//! them), must produce their gradients, their message sizes and — for the
//! two methods the parent snapshot — their checkpoint rows bit for bit.

use puffer_compress::atomo::Atomo;
use puffer_compress::pack::{pack, unpack, PackLayout};
use puffer_compress::quant::BinaryQuant;
use puffer_compress::signum::Signum;
use puffer_compress::topk::TopK;
use puffer_compress::{combine_in_order, AggregationKind, GradCompressor, WorkerCodec};
use puffer_tensor::rng::Rng;
use puffer_tensor::stats::top_k_indices;
use puffer_tensor::svd::truncated_svd_seeded;
use puffer_tensor::Tensor;

/// A central round of the parent commit: the decoded mean, the bytes one
/// worker sent, and the state a checkpoint would have held.
trait Reference {
    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, usize);
    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }
}

fn flat_rows(layout: &Option<PackLayout>, prefix: &str, bufs: &[Tensor]) -> Vec<(String, Tensor)> {
    let Some(layout) = layout else { return Vec::new() };
    let mut out = vec![("layout".to_string(), layout.to_tensor())];
    out.extend(bufs.iter().enumerate().map(|(w, b)| (format!("{prefix}.{w:02}"), b.clone())));
    out
}

struct SignumRef {
    beta: f32,
    momentum: Vec<Tensor>,
    layout: Option<PackLayout>,
}

impl Reference for SignumRef {
    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, usize) {
        let n_workers = worker_grads.len();
        let mut msgs: Vec<Vec<u64>> = Vec::new();
        for (w, grads) in worker_grads.iter().enumerate() {
            let (flat, layout) = pack(grads);
            if self.layout.as_ref() != Some(&layout) || self.momentum.len() != n_workers {
                self.momentum = vec![Tensor::zeros(&[layout.total_len()]); n_workers];
                self.layout = Some(layout);
            }
            let mom = &mut self.momentum[w];
            mom.scale(self.beta);
            mom.axpy(1.0 - self.beta, &flat).unwrap();
            let mut bits = vec![0u64; mom.len().div_ceil(64)];
            for (i, &v) in mom.as_slice().iter().enumerate() {
                if v >= 0.0 {
                    bits[i / 64] |= 1u64 << (i % 64);
                }
            }
            msgs.push(bits);
        }
        let layout = self.layout.as_ref().unwrap();
        let mut voted = Tensor::zeros(&[layout.total_len()]);
        for (i, out) in voted.as_mut_slice().iter_mut().enumerate() {
            let mut v = 0.0f32;
            for bits in &msgs {
                v += if bits[i / 64] >> (i % 64) & 1 == 1 { 1.0 } else { -1.0 };
            }
            *out = if v >= 0.0 { 1.0 } else { -1.0 };
        }
        (unpack(&voted, layout), msgs[0].len() * 8)
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        flat_rows(&self.layout, "mom", &self.momentum)
    }
}

struct TopKRef {
    ratio: f32,
    memory: Vec<Tensor>,
    layout: Option<PackLayout>,
}

impl Reference for TopKRef {
    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, usize) {
        let n_workers = worker_grads.len();
        let mut sparse: Vec<(Vec<u32>, Vec<f32>)> = Vec::new();
        let mut total = 0;
        for (w, grads) in worker_grads.iter().enumerate() {
            let (mut flat, layout) = pack(grads);
            total = layout.total_len();
            if self.layout.as_ref() != Some(&layout) || self.memory.len() != n_workers {
                self.layout = Some(layout);
                self.memory = vec![Tensor::zeros(&[total]); n_workers];
            }
            flat.axpy(1.0, &self.memory[w]).unwrap();
            let k = ((total as f32 * self.ratio).ceil() as usize).clamp(1, total);
            let abs: Vec<f32> = flat.as_slice().iter().map(|x| x.abs()).collect();
            let idx = top_k_indices(&abs, k);
            let vals: Vec<f32> = idx.iter().map(|&i| flat.as_slice()[i]).collect();
            for &i in &idx {
                flat.as_mut_slice()[i] = 0.0;
            }
            self.memory[w] = flat;
            sparse.push((idx.iter().map(|&i| i as u32).collect(), vals));
        }
        let mut dense = Tensor::zeros(&[total]);
        for (idx, vals) in &sparse {
            for (&i, &v) in idx.iter().zip(vals) {
                dense.as_mut_slice()[i as usize] += v;
            }
        }
        dense.scale(1.0 / n_workers as f32);
        (unpack(&dense, self.layout.as_ref().unwrap()), sparse[0].0.len() * 8)
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        flat_rows(&self.layout, "mem", &self.memory)
    }
}

/// One generator threaded through the workers in order: what no per-node
/// encoder can reproduce beyond worker 0.
struct QuantRef {
    rng: Rng,
}

impl Reference for QuantRef {
    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, usize) {
        let n_workers = worker_grads.len();
        let (_, layout) = pack(&worker_grads[0]);
        let total = layout.total_len();
        let mut dense = Tensor::zeros(&[total]);
        for grads in worker_grads {
            let (flat, _) = pack(grads);
            let values = flat.as_slice();
            let min = values.iter().copied().fold(f32::INFINITY, f32::min);
            let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let span = (max - min).max(f32::MIN_POSITIVE);
            // Quantize, then expand: the message is (min, max, one bit each).
            for (d, &v) in dense.as_mut_slice().iter_mut().zip(values) {
                let p = ((v - min) / span).clamp(0.0, 1.0);
                *d += if self.rng.gen_f32() < p { max } else { min };
            }
        }
        dense.scale(1.0 / n_workers as f32);
        (unpack(&dense, &layout), 8 + total.div_ceil(64) * 8)
    }
}

struct AtomoRef {
    rank: usize,
    seed: u64,
    step: u64,
}

impl Reference for AtomoRef {
    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, usize) {
        self.step += 1;
        let n_workers = worker_grads.len();
        let mut out = Vec::new();
        let mut bytes = 0;
        for (li, sample) in worker_grads[0].iter().enumerate() {
            if sample.ndim() < 2 {
                let mut mean = sample.clone();
                for w in &worker_grads[1..] {
                    mean.axpy(1.0, &w[li]).unwrap();
                }
                mean.scale(1.0 / n_workers as f32);
                bytes += mean.len() * 4;
                out.push(mean);
                continue;
            }
            let m = sample.shape()[0];
            let n = sample.len() / m;
            let r = self.rank.min(m).min(n);
            let mut mean = Tensor::zeros(&[m, n]);
            for grads in worker_grads {
                let mat = grads[li].reshape(&[m, n]).unwrap();
                let f = truncated_svd_seeded(&mat, r, self.seed ^ self.step).unwrap();
                mean.axpy(1.0, &f.reconstruct()).unwrap();
            }
            mean.scale(1.0 / n_workers as f32);
            bytes += (m * r + r + r * n) * 4;
            out.push(mean.reshape(sample.shape()).unwrap());
        }
        (out, bytes)
    }
}

/// Bit patterns, so `-0.0 != 0.0` and equal NaNs compare equal.
fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (t.shape().to_vec(), t.as_slice().iter().map(|v| v.to_bits()).collect())
}

fn assert_same_tensors(got: &[Tensor], want: &[Tensor], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: tensor count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(g), bits(w), "{what}: tensor {i}");
    }
}

fn assert_same_state(got: &[(String, Tensor)], want: &[(String, Tensor)], what: &str) {
    let names = |s: &[(String, Tensor)]| s.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(got), names(want), "{what}: state names");
    for ((name, g), (_, w)) in got.iter().zip(want) {
        assert_eq!(bits(g), bits(w), "{what}: state row {name}");
    }
}

/// Conv- and linear-shaped matrices with 1-D tensors in between; 70, 214
/// and 1476 coordinates, so the last sign word is partly filled. The last
/// matrix is wide enough (both sides over 32) for the SVD's seeded range
/// finder: below that ATOMO's round counter seeds nothing.
fn layer_mixes() -> Vec<Vec<Vec<usize>>> {
    vec![
        vec![vec![10, 6], vec![10]],
        vec![vec![8, 2, 3, 3], vec![8], vec![6, 9], vec![8]],
        vec![vec![40, 36], vec![36]],
    ]
}

fn gradients(shapes: &[Vec<usize>], workers: usize, round: usize) -> Vec<Vec<Tensor>> {
    (0..workers)
        .map(|w| {
            shapes
                .iter()
                .enumerate()
                .map(|(li, s)| Tensor::randn(s, 1.0, (1000 * round + 100 * w + li) as u64))
                .collect()
        })
        .collect()
}

type Pair = (Box<dyn GradCompressor>, Box<dyn Reference>);

fn signum() -> Pair {
    (Box::new(Signum::new(0.9)), Box::new(SignumRef { beta: 0.9, momentum: vec![], layout: None }))
}

fn topk() -> Pair {
    (Box::new(TopK::new(0.1)), Box::new(TopKRef { ratio: 0.1, memory: vec![], layout: None }))
}

fn atomo() -> Pair {
    (Box::new(Atomo::new(2, 7)), Box::new(AtomoRef { rank: 2, seed: 7, step: 0 }))
}

fn quant() -> Pair {
    (Box::new(BinaryQuant::new(5)), Box::new(QuantRef { rng: Rng::seed_from_u64(5) }))
}

/// The state rows the parent snapshot too (it had none for ATOMO's round
/// counter and the quantizer's streams).
fn parents_rows(state: Vec<(String, Tensor)>) -> Vec<(String, Tensor)> {
    state.into_iter().filter(|(n, _)| n != "step" && !n.starts_with("rng.")).collect()
}

/// Drives the halves the way a trainer does: one codec per worker, the
/// contributors' messages end to end, every worker decoding for itself.
/// Returns every worker's decoded gradient list.
fn drive(
    codecs: &mut [Box<dyn WorkerCodec>],
    grads: &[Vec<Tensor>],
    contributors: &[usize],
) -> Vec<Vec<Tensor>> {
    let mut grads: Vec<Vec<Tensor>> = grads.to_vec();
    let shapes: Vec<Tensor> = grads[0].clone();
    let shapes: Vec<&Tensor> = shapes.iter().collect();
    assert_eq!(codecs[0].phases(), 1);
    let len = codecs[0].payload_layout(0, &shapes).total_len();
    let payloads: Vec<Tensor> = codecs
        .iter_mut()
        .zip(&mut grads)
        .map(|(codec, g)| {
            let mut out = Tensor::full(&[len], f32::NAN);
            let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
            codec.encode(0, &mut g, None, out.as_mut_slice()).unwrap();
            out
        })
        .collect();
    let chosen: Vec<&Tensor> = contributors.iter().map(|&w| &payloads[w]).collect();
    let gathered = combine_in_order(AggregationKind::AllGather, &chosen);
    assert_eq!(gathered.len(), len * contributors.len());
    for (w, (codec, g)) in codecs.iter_mut().zip(&mut grads).enumerate() {
        let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
        codec.decode(gathered.as_slice(), &mut g, contributors.contains(&w)).unwrap();
    }
    grads
}

fn union(codecs: &[Box<dyn WorkerCodec>]) -> Vec<(String, Tensor)> {
    let mut out: Vec<(String, Tensor)> = Vec::new();
    for (name, t) in codecs.iter().flat_map(|c| c.state_snapshot()) {
        if !out.iter().any(|(n, _)| *n == name) {
            out.push((name, t));
        }
    }
    out
}

#[test]
fn halves_equal_the_central_rounds_bit_for_bit() {
    for (method, make, worker_counts) in [
        ("signum", signum as fn() -> Pair, &[1usize, 2, 4][..]),
        ("topk", topk, &[1, 2, 4]),
        ("atomo", atomo, &[1, 2, 4]),
        // Beyond one worker the parent's single stream is not reproducible.
        ("binary-quant", quant, &[1]),
    ] {
        for shapes in layer_mixes() {
            for &workers in worker_counts {
                let (mut by_round, mut reference) = make();
                let (mut owner, _) = make();
                let mut codecs: Vec<Box<dyn WorkerCodec>> =
                    (0..workers).map(|w| owner.worker_codec(w)).collect();
                let all: Vec<usize> = (0..workers).collect();
                for round in 0..5 {
                    let what =
                        format!("{method} shapes {shapes:?} workers {workers} round {round}");
                    let grads = gradients(&shapes, workers, round);
                    let (want, want_bytes) = reference.round(&grads);
                    let (got, stats) = by_round.round(&grads);
                    assert_same_tensors(&got, &want, &what);
                    assert_eq!(stats.bytes_per_worker, want_bytes, "{what}");
                    assert_eq!(stats.decoded_bytes, want_bytes * workers, "{what}");
                    for (w, got) in drive(&mut codecs, &grads, &all).iter().enumerate() {
                        assert_same_tensors(got, &want, &format!("{what}, worker {w} by hand"));
                    }
                    let state = by_round.state_snapshot();
                    assert_same_state(&union(&codecs), &state, &what);
                    assert_same_state(&parents_rows(state), &reference.state_snapshot(), &what);
                }
                // The halves' snapshots, merged, restore the compressor, and
                // codecs handed out again resume where the old ones stopped.
                assert!(owner.restore_state(&union(&codecs)), "{method}");
                let mut resumed: Vec<Box<dyn WorkerCodec>> =
                    (0..workers).map(|w| owner.worker_codec(w)).collect();
                let grads = gradients(&shapes, workers, 9);
                let (want, _) = reference.round(&grads);
                assert_same_tensors(&drive(&mut resumed, &grads, &all)[0], &want, method);
            }
        }
    }
}

#[test]
fn the_new_snapshot_rows_count_rounds_and_replay_streams() {
    let shapes = &layer_mixes()[2];
    // ATOMO's counter row is the number of rounds played.
    let mut a = Atomo::new(2, 7);
    for round in 0..3 {
        let _ = a.round(&gradients(shapes, 2, round));
    }
    let step = a.state_snapshot();
    assert_eq!(step.len(), 1);
    assert_eq!(step[0].0, "step");
    assert_eq!(bits(&step[0].1).1, [3, 0], "three rounds, as low and high word");
    // Either method restored from its snapshot replays the original's next
    // round; a fresh one does not (the state is not decoration).
    for (method, make) in [("atomo", atomo as fn() -> Pair), ("binary-quant", quant)] {
        let (mut original, _) = make();
        for round in 0..3 {
            let _ = original.round(&gradients(shapes, 3, round));
        }
        let (mut restored, _) = make();
        assert!(restored.restore_state(&original.state_snapshot()), "{method}");
        let grads = gradients(shapes, 3, 3);
        let want = original.round(&grads).0;
        assert_same_tensors(&restored.round(&grads).0, &want, method);
        assert_ne!(make().0.round(&grads).0, want, "{method}: a fresh compressor differs");
        assert!(!restored.restore_state(&[("garbage".into(), Tensor::zeros(&[1]))]), "{method}");
        assert!(restored.restore_state(&[]), "{method}: the empty state resets");
    }
}

#[test]
fn binary_quantization_stays_unbiased_with_a_stream_per_worker() {
    // The parent's bound on one stream, over the mean of 2 and 4 workers'
    // messages: the decoded mean of a constant gradient is that constant.
    for workers in [2usize, 4] {
        let mut g = Tensor::full(&[512], 0.25);
        g.as_mut_slice()[0] = 0.0;
        g.as_mut_slice()[1] = 1.0;
        let grads: Vec<Vec<Tensor>> = vec![vec![g]; workers];
        let mut c = BinaryQuant::new(1);
        let mut acc = vec![0.0f64; 512];
        let trials = 600 / workers;
        for _ in 0..trials {
            let (out, _) = c.round(&grads);
            acc.iter_mut().zip(out[0].as_slice()).for_each(|(a, &v)| *a += f64::from(v));
        }
        for (i, a) in acc.iter().enumerate().skip(2).take(50) {
            let mean = a / trials as f64;
            assert!((mean - 0.25).abs() < 0.06, "workers {workers} coord {i}: mean {mean}");
        }
        // The workers do not draw the same bits.
        let (mut owner, _) = quant();
        let mut codecs: Vec<Box<dyn WorkerCodec>> =
            (0..workers).map(|w| owner.worker_codec(w)).collect();
        let len = codecs[0].payload_layout(0, &[&grads[0][0]]).total_len();
        let mut payloads = vec![vec![0.0f32; len]; workers];
        for ((codec, out), g) in codecs.iter_mut().zip(&mut payloads).zip(&grads) {
            let mut g = g.clone();
            codec.encode(0, &mut g.iter_mut().collect::<Vec<_>>(), None, out).unwrap();
        }
        let words = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_ne!(words(&payloads[0]), words(&payloads[1]));
    }
}

#[test]
fn abort_leaves_no_trace_and_a_lost_contribution_touches_only_its_owner() {
    let shapes = &layer_mixes()[1];
    let workers = 3;
    let all: Vec<usize> = (0..workers).collect();
    for (method, make) in [
        ("signum", signum as fn() -> Pair),
        ("topk", topk),
        ("atomo", atomo),
        ("binary-quant", quant),
    ] {
        let (mut owner, _) = make();
        let mut codecs: Vec<Box<dyn WorkerCodec>> =
            (0..workers).map(|w| owner.worker_codec(w)).collect();
        drive(&mut codecs, &gradients(shapes, workers, 0), &all);
        let before: Vec<_> = codecs.iter().map(|c| c.state_snapshot()).collect();

        // A round that is dropped after its encode: nothing moves.
        let mut grads = gradients(shapes, workers, 1);
        let shape_refs: Vec<Tensor> = grads[0].clone();
        let shape_refs: Vec<&Tensor> = shape_refs.iter().collect();
        for (codec, g) in codecs.iter_mut().zip(&mut grads) {
            let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
            let mut p = vec![0.0; codec.payload_layout(0, &shape_refs).total_len()];
            codec.encode(0, &mut g, None, &mut p).unwrap();
            codec.abort();
        }
        for (codec, want) in codecs.iter().zip(&before) {
            assert_same_state(&codec.state_snapshot(), want, &format!("{method} after abort"));
        }

        // Worker 1's message misses the gather. Workers 0 and 2 end up
        // exactly where a fleet of just the two of them would; worker 1
        // decodes their gradient and keeps the memory it had.
        let (mut pair_owner, _) = make();
        assert!(pair_owner.restore_state(&union(&codecs)));
        let mut pair: Vec<Box<dyn WorkerCodec>> =
            [0, 2].iter().map(|&w| pair_owner.worker_codec(w)).collect();
        let second = gradients(shapes, workers, 2);
        let decoded = drive(&mut codecs, &second, &[0, 2]);
        let pair_decoded = drive(&mut pair, &[second[0].clone(), second[2].clone()], &[0, 1]);
        assert_same_tensors(&decoded[0], &pair_decoded[0], &format!("{method}: survivor"));
        assert_same_tensors(&decoded[1], &pair_decoded[0], &format!("{method}: the lost worker"));
        assert_same_state(&codecs[0].state_snapshot(), &pair[0].state_snapshot(), method);
        assert_same_state(&codecs[2].state_snapshot(), &pair[1].state_snapshot(), method);
        let own = |s: &[(String, Tensor)]| -> Vec<(String, Tensor)> {
            s.iter().filter(|(n, _)| n.contains(".01")).cloned().collect()
        };
        assert_same_state(&own(&codecs[1].state_snapshot()), &own(&before[1]), method);
    }
}

#[test]
fn a_buffer_of_the_wrong_length_is_an_error_not_a_panic() {
    let shapes = &layer_mixes()[0];
    for (method, make) in [
        ("signum", signum as fn() -> Pair),
        ("topk", topk),
        ("atomo", atomo),
        ("binary-quant", quant),
    ] {
        let (mut owner, _) = make();
        let mut codec = owner.worker_codec(0);
        let mut grads = gradients(shapes, 1, 0).remove(0);
        let len = codec.payload_layout(0, &grads.iter().collect::<Vec<_>>()).total_len();
        let mut g: Vec<&mut Tensor> = grads.iter_mut().collect();
        let mut out = vec![0.0f32; len + 1];
        assert!(codec.encode(0, &mut g, None, &mut out).is_err(), "{method}: long out");
        assert!(codec.encode(0, &mut g, None, &mut out[..len - 1]).is_err(), "{method}: short");
        codec.encode(0, &mut g, None, &mut out[..len]).unwrap();
        assert!(codec.decode(&out[..len - 1], &mut g, true).is_err(), "{method}: short gather");
        assert!(codec.decode(&out, &mut g, true).is_err(), "{method}: ragged gather");
        assert!(codec.decode(&[], &mut g, true).is_err(), "{method}: empty gather");
        codec.decode(&out[..len], &mut g, true).unwrap();
    }
}
