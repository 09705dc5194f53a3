//! PowerSGD's worker halves against the central round they replaced.
//!
//! `Reference` below is the round `PowerSgd::round` used to be — every
//! worker's matrices in one place, `P`/`Q` summed into zeroed accumulators,
//! one decode, error memory indexed by position — kept here as the oracle.
//! The halves, whether driven by `PowerSgd::round` or by hand through the
//! `WorkerCodec` interface (the way the trainer drives them), must produce
//! its gradients **and** its checkpoint state bit for bit.

use puffer_compress::powersgd::PowerSgd;
use puffer_compress::{mean_in_order, GradCompressor, WorkerCodec};
use puffer_tensor::matmul::{matmul, matmul_tn};
use puffer_tensor::svd::orthogonalize_columns;
use puffer_tensor::Tensor;

/// The central round of the parent commit, state included.
struct Reference {
    rank: usize,
    seed: u64,
    queries: Vec<Option<Tensor>>,
    memory: Vec<Vec<Option<Tensor>>>,
}

impl Reference {
    fn new(rank: usize, seed: u64) -> Self {
        Reference { rank, seed, queries: Vec::new(), memory: Vec::new() }
    }

    fn as_matrix(t: &Tensor) -> Option<Tensor> {
        if t.ndim() < 2 {
            return None;
        }
        let rows = t.shape()[0];
        Some(t.reshape(&[rows, t.len() / rows]).unwrap())
    }

    fn round(&mut self, worker_grads: &[Vec<Tensor>]) -> (Vec<Tensor>, usize) {
        let n_workers = worker_grads.len();
        let n_layers = worker_grads[0].len();
        if self.queries.len() != n_layers {
            self.queries = vec![None; n_layers];
        }
        if self.memory.len() != n_workers {
            self.memory = (0..n_workers).map(|_| vec![None; n_layers]).collect();
        }
        let mut out = Vec::with_capacity(n_layers);
        let mut bytes = 0usize;
        for li in 0..n_layers {
            let sample = &worker_grads[0][li];
            let Some(m0) = Self::as_matrix(sample) else {
                let mut mean = worker_grads[0][li].clone();
                for w in &worker_grads[1..] {
                    mean.axpy(1.0, &w[li]).unwrap();
                }
                mean.scale(1.0 / n_workers as f32);
                bytes += mean.len() * 4;
                out.push(mean);
                continue;
            };
            let (m, n) = (m0.shape()[0], m0.shape()[1]);
            let r = self.rank.min(m).min(n);
            let mats: Vec<Tensor> = worker_grads
                .iter()
                .enumerate()
                .map(|(w, grads)| {
                    let mut mat = Self::as_matrix(&grads[li]).unwrap();
                    if let Some(e) = &self.memory[w][li] {
                        mat.axpy(1.0, e).unwrap();
                    }
                    mat
                })
                .collect();
            let q = self.queries[li]
                .take()
                .filter(|q| q.shape() == [n, r])
                .unwrap_or_else(|| Tensor::randn(&[n, r], 1.0, self.seed.wrapping_add(li as u64)));
            let mut p_mean = Tensor::zeros(&[m, r]);
            for mat in &mats {
                p_mean.axpy(1.0, &matmul(mat, &q).unwrap()).unwrap();
            }
            p_mean.scale(1.0 / n_workers as f32);
            orthogonalize_columns(&mut p_mean);
            let mut q_mean = Tensor::zeros(&[n, r]);
            for mat in &mats {
                q_mean.axpy(1.0, &matmul_tn(mat, &p_mean).unwrap()).unwrap();
            }
            q_mean.scale(1.0 / n_workers as f32);
            let decoded = matmul(&p_mean, &q_mean.transpose()).unwrap();
            for (w, mat) in mats.iter().enumerate() {
                let mut e = mat.clone();
                e.axpy(-1.0, &decoded).unwrap();
                self.memory[w][li] = Some(e);
            }
            self.queries[li] = Some(q_mean);
            bytes += (m * r + n * r) * 4;
            out.push(decoded.reshape(sample.shape()).unwrap());
        }
        (out, bytes)
    }

    fn state_snapshot(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        let meta = vec![self.queries.len() as f32, self.memory.len() as f32, self.rank as f32];
        out.push(("meta".to_string(), Tensor::from_vec(meta, &[3]).unwrap()));
        for (li, q) in self.queries.iter().enumerate() {
            if let Some(q) = q {
                out.push((format!("q.{li:04}"), q.clone()));
            }
        }
        for (w, layers) in self.memory.iter().enumerate() {
            for (li, e) in layers.iter().enumerate() {
                if let Some(e) = e {
                    out.push((format!("m.{w:02}.{li:04}"), e.clone()));
                }
            }
        }
        out
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

/// Layer mixes: conv- and linear-shaped matrices, 1-D tensors in between,
/// a matrix thinner than every rank tried (rank > min(m, n)), and a matrix
/// whose second row is all zeros in every worker's gradient.
fn layer_mixes() -> Vec<Vec<Vec<usize>>> {
    vec![
        vec![vec![6, 5], vec![5]],
        vec![vec![8, 4, 3, 3], vec![8], vec![3, 8], vec![3]],
        vec![vec![7], vec![2, 9], vec![9, 1], vec![4, 4]],
    ]
}

fn gradients(
    shapes: &[Vec<usize>],
    workers: usize,
    round: usize,
    zero_row: bool,
) -> Vec<Vec<Tensor>> {
    (0..workers)
        .map(|w| {
            shapes
                .iter()
                .enumerate()
                .map(|(li, s)| {
                    let seed = (1000 * round + 100 * w + li) as u64;
                    let mut t = Tensor::randn(s, 1.0, seed);
                    if zero_row && s.len() >= 2 && s[0] >= 2 {
                        let cols = t.len() / s[0];
                        // Negative zeros: the one value a zeroed accumulator
                        // and a copy-first sum could disagree on.
                        t.as_mut_slice()[cols..2 * cols].fill(-0.0);
                    }
                    t
                })
                .collect()
        })
        .collect()
}

#[test]
fn round_over_the_halves_equals_the_central_round_bit_for_bit() {
    for shapes in layer_mixes() {
        for workers in [1usize, 2, 4] {
            for rank in [1usize, 2, 4] {
                for zero_row in [false, true] {
                    let mut reference = Reference::new(rank, 11);
                    let mut halves = PowerSgd::new(rank, 11);
                    for round in 0..5 {
                        let grads = gradients(&shapes, workers, round, zero_row);
                        let (want, want_bytes) = reference.round(&grads);
                        let (got, stats) = halves.round(&grads);
                        let what = format!(
                            "shapes {shapes:?} workers {workers} rank {rank} zero_row {zero_row} \
                             round {round}"
                        );
                        assert_same_tensors(&got, &want, &what);
                        assert_eq!(stats.bytes_per_worker, want_bytes, "{what}");
                        assert_same_state(
                            &halves.state_snapshot(),
                            &reference.state_snapshot(),
                            &what,
                        );
                    }
                }
            }
        }
    }
}

/// Drives the halves the way a trainer does: one codec per worker, a
/// pinned-order mean per phase, every worker decoding for itself. Returns
/// every worker's decoded gradient list.
fn drive(
    codecs: &mut [Box<dyn WorkerCodec>],
    grads: &[Vec<Tensor>],
    contributors: &[usize],
) -> Vec<Vec<Tensor>> {
    let mut grads: Vec<Vec<Tensor>> = grads.to_vec();
    let shapes: Vec<Tensor> = grads[0].clone();
    let shapes: Vec<&Tensor> = shapes.iter().collect();
    let mut reduced: Option<Tensor> = None;
    for phase in 0..codecs[0].phases() {
        let len = codecs[0].payload_layout(phase, &shapes).total_len();
        let payloads: Vec<Tensor> = codecs
            .iter_mut()
            .zip(&mut grads)
            .map(|(codec, g)| {
                let mut out = Tensor::full(&[len], f32::NAN);
                let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
                let prev = reduced.as_ref().map(Tensor::as_slice);
                codec.encode(phase, &mut g, prev, out.as_mut_slice()).unwrap();
                out
            })
            .collect();
        let chosen: Vec<&Tensor> = contributors.iter().map(|&w| &payloads[w]).collect();
        reduced = Some(mean_in_order(&chosen));
    }
    let reduced = reduced.unwrap();
    for (w, (codec, g)) in codecs.iter_mut().zip(&mut grads).enumerate() {
        let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
        codec.decode(reduced.as_slice(), &mut g, contributors.contains(&w)).unwrap();
    }
    grads
}

/// The union by name (first wins) of the halves' snapshots, which is what
/// a trainer hands back to `restore_state`.
fn union(codecs: &[Box<dyn WorkerCodec>]) -> Vec<(String, Tensor)> {
    let mut out: Vec<(String, Tensor)> = Vec::new();
    for codec in codecs {
        for (name, t) in codec.state_snapshot() {
            if !out.iter().any(|(n, _)| *n == name) {
                out.push((name, t));
            }
        }
    }
    out
}

#[test]
fn hand_driven_codecs_equal_round_and_every_worker_decodes_the_same_gradient() {
    let shapes = &layer_mixes()[1];
    let workers = 3;
    let mut by_round = PowerSgd::new(2, 5);
    let mut owner = PowerSgd::new(2, 5);
    let mut codecs: Vec<Box<dyn WorkerCodec>> =
        (0..workers).map(|w| owner.worker_codec(w)).collect();
    let all: Vec<usize> = (0..workers).collect();
    for round in 0..4 {
        let grads = gradients(shapes, workers, round, false);
        let (want, _) = by_round.round(&grads);
        let decoded = drive(&mut codecs, &grads, &all);
        for (w, got) in decoded.iter().enumerate() {
            assert_same_tensors(got, &want, &format!("worker {w} round {round}"));
        }
    }
    // The halves' snapshots, merged, are the compressor's own snapshot.
    assert!(owner.restore_state(&union(&codecs)));
    assert_same_state(&owner.state_snapshot(), &by_round.state_snapshot(), "merged state");
    // And codecs handed out again resume where the old ones stopped.
    let mut resumed: Vec<Box<dyn WorkerCodec>> =
        (0..workers).map(|w| owner.worker_codec(w)).collect();
    let grads = gradients(shapes, workers, 9, false);
    let (want, _) = by_round.round(&grads);
    assert_same_tensors(&drive(&mut resumed, &grads, &all)[2], &want, "after restore");
}

#[test]
fn abort_leaves_no_trace_and_a_lost_contribution_touches_only_its_owner() {
    let shapes = &layer_mixes()[0];
    let workers = 3;
    let mut owner = PowerSgd::new(2, 7);
    let mut codecs: Vec<Box<dyn WorkerCodec>> =
        (0..workers).map(|w| owner.worker_codec(w)).collect();
    let all: Vec<usize> = (0..workers).collect();
    drive(&mut codecs, &gradients(shapes, workers, 0, false), &all);
    let before: Vec<_> = codecs.iter().map(|c| c.state_snapshot()).collect();

    // A round that is dropped after both encodes: nothing moves.
    let mut grads = gradients(shapes, workers, 1, false);
    let shape_refs: Vec<Tensor> = grads[0].clone();
    let shape_refs: Vec<&Tensor> = shape_refs.iter().collect();
    for (codec, g) in codecs.iter_mut().zip(&mut grads) {
        let mut g: Vec<&mut Tensor> = g.iter_mut().collect();
        let mut p = vec![0.0; codec.payload_layout(0, &shape_refs).total_len()];
        codec.encode(0, &mut g, None, &mut p).unwrap();
        let mut q = vec![0.0; codec.payload_layout(1, &shape_refs).total_len()];
        codec.encode(1, &mut g, Some(&p), &mut q).unwrap();
        codec.abort();
    }
    for (codec, want) in codecs.iter().zip(&before) {
        assert_same_state(&codec.state_snapshot(), want, "after abort");
    }

    // Worker 1's payloads miss the means. Workers 0 and 2 end up exactly
    // where a fleet of just the two of them would; worker 1 decodes their
    // gradient, adopts their Q, and keeps the memory it had.
    let mut pair_owner = PowerSgd::new(2, 7);
    assert!(pair_owner.restore_state(&union(&codecs)));
    let mut pair: Vec<Box<dyn WorkerCodec>> =
        [0, 2].iter().map(|&w| pair_owner.worker_codec(w)).collect();

    let second = gradients(shapes, workers, 2, false);
    let decoded = drive(&mut codecs, &second, &[0, 2]);
    let pair_grads = vec![second[0].clone(), second[2].clone()];
    let pair_decoded = drive(&mut pair, &pair_grads, &[0, 1]);
    assert_same_tensors(&decoded[0], &pair_decoded[0], "survivor gradient");
    assert_same_tensors(&decoded[1], &pair_decoded[0], "the lost worker decodes it too");
    assert_same_state(&codecs[0].state_snapshot(), &pair[0].state_snapshot(), "worker 0");
    assert_same_state(&codecs[2].state_snapshot(), &pair[1].state_snapshot(), "worker 2");
    let lost = codecs[1].state_snapshot();
    let memory = |s: &[(String, Tensor)]| -> Vec<(String, Tensor)> {
        s.iter().filter(|(n, _)| n.starts_with("m.")).cloned().collect()
    };
    assert_same_state(&memory(&lost), &memory(&before[1]), "worker 1 keeps its memory");
    let queries = |s: &[(String, Tensor)]| -> Vec<(String, Tensor)> {
        s.iter().filter(|(n, _)| n.starts_with("q.")).cloned().collect()
    };
    assert_same_state(&queries(&lost), &queries(&codecs[0].state_snapshot()), "shared Q");
}

#[test]
fn payloads_are_p_and_q_plus_the_raw_one_d_tensors() {
    let shapes = &layer_mixes()[1];
    let rank = 2;
    let mut owner = PowerSgd::new(rank, 3);
    let codec = owner.worker_codec(0);
    let grads = gradients(shapes, 1, 0, false).remove(0);
    let refs: Vec<&Tensor> = grads.iter().collect();
    let (mut p, mut q) = (0, 0);
    for s in shapes {
        if s.len() >= 2 {
            let (m, n) = (s[0], s.iter().product::<usize>() / s[0]);
            let r = rank.min(m).min(n);
            p += m * r;
            q += n * r;
        } else {
            p += s[0];
        }
    }
    assert_eq!(codec.phases(), 2);
    assert_eq!(codec.payload_layout(0, &refs).total_len(), p);
    assert_eq!(codec.payload_layout(1, &refs).total_len(), q);
    // A worker first seen mid-run starts from the shared Q and no memory.
    let mut warmed = PowerSgd::new(rank, 3);
    let _ = warmed.round(&gradients(shapes, 2, 0, false));
    let joiner = warmed.worker_codec(5).state_snapshot();
    assert!(joiner.iter().any(|(n, _)| n.starts_with("q.")));
    assert!(!joiner.iter().any(|(n, _)| n.starts_with("m.")));
}
