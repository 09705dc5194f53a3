//! Class-conditional synthetic image classification datasets.
//!
//! Each class is defined by a fixed random texture basis (a mixture of 2-D
//! sinusoids with class-specific frequencies and phases). A sample is the
//! class texture plus pixel noise and a random spatial shift, which makes
//! the task learnable but not trivially separable — a CNN must pick up the
//! spatial frequency content, giving non-degenerate learning curves whose
//! *shape* mirrors real image classification (the property Figures 2–3 of
//! the paper rely on).

use puffer_tensor::rng::Rng;
use puffer_tensor::Tensor;

/// Configuration of a synthetic image dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageDatasetConfig {
    /// Number of classes.
    pub classes: usize,
    /// Channels (3 for both CIFAR-10 and ImageNet stand-ins).
    pub channels: usize,
    /// Square image side length.
    pub size: usize,
    /// Training examples.
    pub train: usize,
    /// Test examples.
    pub test: usize,
    /// Pixel noise standard deviation (higher = harder task).
    pub noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl ImageDatasetConfig {
    /// A small CIFAR-10-like task: 10 classes at `32×32×3`.
    pub fn cifar_like(train: usize, test: usize, seed: u64) -> Self {
        ImageDatasetConfig { classes: 10, channels: 3, size: 32, train, test, noise: 0.35, seed }
    }

    /// A reduced ImageNet-like task: more classes, larger images.
    pub fn imagenet_lite(train: usize, test: usize, seed: u64) -> Self {
        ImageDatasetConfig { classes: 20, channels: 3, size: 32, train, test, noise: 0.4, seed }
    }
}

/// A generated dataset: flat sample storage plus labels.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    config: ImageDatasetConfig,
    train_images: Vec<Tensor>,
    train_labels: Vec<usize>,
    test_images: Vec<Tensor>,
    test_labels: Vec<usize>,
    mean: [f32; 3],
    std: [f32; 3],
}

impl ImageDataset {
    /// Generates the dataset deterministically from the config's seed.
    pub fn generate(config: ImageDatasetConfig) -> Self {
        let mut rng = Rng::seed_from_u64(config.seed);
        // Class prototypes: per class and channel, a sum of 3 sinusoids.
        let protos: Vec<Vec<(f32, f32, f32, f32)>> = (0..config.classes)
            .map(|_| {
                (0..config.channels * 3)
                    .map(|_| {
                        (
                            rng.gen_range(0.5..4.0),                   // fx
                            rng.gen_range(0.5..4.0),                   // fy
                            rng.gen_range(0.0..std::f32::consts::TAU), // phase
                            rng.gen_range(0.4..1.0),                   // amplitude
                        )
                    })
                    .collect()
            })
            .collect();

        let gen_split = |count: usize, rng: &mut Rng| {
            let mut images = Vec::with_capacity(count);
            let mut labels = Vec::with_capacity(count);
            for _ in 0..count {
                let class = rng.gen_range(0..config.classes);
                labels.push(class);
                images.push(render_sample(&config, &protos[class], rng));
            }
            (images, labels)
        };
        let (train_images, train_labels) = gen_split(config.train, &mut rng);
        let (test_images, test_labels) = gen_split(config.test, &mut rng);

        // Per-channel normalization statistics over the training split.
        let mut mean = [0.0f32; 3];
        let mut std = [1.0f32; 3];
        if !train_images.is_empty() {
            let per = config.size * config.size;
            for c in 0..config.channels.min(3) {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                let mut n = 0usize;
                for img in &train_images {
                    for &v in &img.as_slice()[c * per..(c + 1) * per] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                        n += 1;
                    }
                }
                let m = sum / n as f64;
                mean[c] = m as f32;
                std[c] = ((sq / n as f64 - m * m).max(1e-6)).sqrt() as f32;
            }
        }
        ImageDataset { config, train_images, train_labels, test_images, test_labels, mean, std }
    }

    /// The dataset configuration.
    pub fn config(&self) -> &ImageDatasetConfig {
        &self.config
    }

    /// Number of training examples.
    pub fn train_len(&self) -> usize {
        self.train_images.len()
    }

    /// Number of test examples.
    pub fn test_len(&self) -> usize {
        self.test_images.len()
    }

    /// Per-channel normalization statistics `(mean, std)` computed on the
    /// training split (the analogue of the constants in appendix H).
    pub fn normalization(&self) -> ([f32; 3], [f32; 3]) {
        (self.mean, self.std)
    }

    /// Iterates over training batches in a seeded shuffled order, applying
    /// augmentation (pad-4 random crop + horizontal flip) and
    /// normalization. Yields `(images [N,C,H,W], labels)`.
    pub fn train_batches(&self, batch_size: usize, epoch_seed: u64) -> Vec<(Tensor, Vec<usize>)> {
        assert!(batch_size > 0, "batch size must be nonzero");
        let mut order: Vec<usize> = (0..self.train_images.len()).collect();
        let mut rng = Rng::seed_from_u64(self.config.seed ^ epoch_seed.wrapping_mul(0x9E37_79B9));
        // Fisher–Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        order
            .chunks(batch_size)
            .map(|chunk| {
                let imgs: Vec<Tensor> = chunk
                    .iter()
                    .map(|&i| {
                        let aug = augment(&self.train_images[i], &mut rng);
                        self.normalize(&aug)
                    })
                    .collect();
                let labels = chunk.iter().map(|&i| self.train_labels[i]).collect();
                (stack(&imgs), labels)
            })
            .collect()
    }

    /// Iterates over test batches (no augmentation, normalized).
    pub fn test_batches(&self, batch_size: usize) -> Vec<(Tensor, Vec<usize>)> {
        assert!(batch_size > 0, "batch size must be nonzero");
        (0..self.test_images.len())
            .collect::<Vec<_>>()
            .chunks(batch_size)
            .map(|chunk| {
                let imgs: Vec<Tensor> =
                    chunk.iter().map(|&i| self.normalize(&self.test_images[i])).collect();
                let labels = chunk.iter().map(|&i| self.test_labels[i]).collect();
                (stack(&imgs), labels)
            })
            .collect()
    }

    fn normalize(&self, img: &Tensor) -> Tensor {
        let per = self.config.size * self.config.size;
        let mut out = img.clone();
        for c in 0..self.config.channels.min(3) {
            let (m, s) = (self.mean[c], self.std[c]);
            for v in &mut out.as_mut_slice()[c * per..(c + 1) * per] {
                *v = (*v - m) / s;
            }
        }
        out
    }
}

fn render_sample(
    config: &ImageDatasetConfig,
    proto: &[(f32, f32, f32, f32)],
    rng: &mut Rng,
) -> Tensor {
    let n = config.size;
    let mut img = Tensor::zeros(&[config.channels, n, n]);
    let shift_x: f32 = rng.gen_range(-2.0..2.0);
    let shift_y: f32 = rng.gen_range(-2.0..2.0);
    for c in 0..config.channels {
        for y in 0..n {
            for x in 0..n {
                let (xf, yf) = ((x as f32 + shift_x) / n as f32, (y as f32 + shift_y) / n as f32);
                let mut v = 0.0;
                for k in 0..3 {
                    let (fx, fy, phase, amp) = proto[c * 3 + k];
                    v += amp * (std::f32::consts::TAU * (fx * xf + fy * yf) + phase).sin();
                }
                let noise: f32 = rng.gen_range(-1.0..1.0) * config.noise;
                img.as_mut_slice()[(c * n + y) * n + x] = v / 3.0 + noise;
            }
        }
    }
    img
}

/// Pad-4 random crop + horizontal flip, the appendix-H augmentation.
fn augment(img: &Tensor, rng: &mut Rng) -> Tensor {
    let s = img.shape();
    let (c, h, w) = (s[0], s[1], s[2]);
    const PAD: usize = 4;
    let dy = rng.gen_range(0..=2 * PAD);
    let dx = rng.gen_range(0..=2 * PAD);
    let flip = rng.gen_bool(0.5);
    let mut out = Tensor::zeros(&[c, h, w]);
    for ci in 0..c {
        for y in 0..h {
            let sy = (y + dy) as isize - PAD as isize;
            for x in 0..w {
                let sx_raw = if flip { w - 1 - x } else { x };
                let sx = (sx_raw + dx) as isize - PAD as isize;
                let v = if sy >= 0 && sy < h as isize && sx >= 0 && sx < w as isize {
                    img.as_slice()[(ci * h + sy as usize) * w + sx as usize]
                } else {
                    0.0
                };
                out.as_mut_slice()[(ci * h + y) * w + x] = v;
            }
        }
    }
    out
}

/// Stacks `[C,H,W]` samples into `[N,C,H,W]`.
fn stack(imgs: &[Tensor]) -> Tensor {
    assert!(!imgs.is_empty(), "cannot stack zero images");
    let s = imgs[0].shape();
    let mut shape = vec![imgs.len()];
    shape.extend_from_slice(s);
    let mut out = Tensor::zeros(&shape);
    let per = imgs[0].len();
    for (i, img) in imgs.iter().enumerate() {
        out.as_mut_slice()[i * per..(i + 1) * per].copy_from_slice(img.as_slice());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ImageDataset {
        ImageDataset::generate(ImageDatasetConfig {
            classes: 4,
            channels: 3,
            size: 8,
            train: 64,
            test: 32,
            noise: 0.2,
            seed: 1,
        })
    }

    #[test]
    fn deterministic_generation() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.train_images[0], b.train_images[0]);
        assert_eq!(a.train_labels, b.train_labels);
    }

    #[test]
    fn batch_shapes_and_coverage() {
        let d = tiny();
        let batches = d.train_batches(10, 0);
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, 64);
        assert_eq!(batches[0].0.shape(), &[10, 3, 8, 8]);
        // Last batch is the remainder.
        assert_eq!(batches.last().unwrap().1.len(), 4);
    }

    #[test]
    fn different_epochs_shuffle_differently() {
        let d = tiny();
        let a: Vec<usize> = d.train_batches(64, 0)[0].1.clone();
        let b: Vec<usize> = d.train_batches(64, 1)[0].1.clone();
        assert_ne!(a, b);
    }

    #[test]
    fn classes_are_distinguishable() {
        // Mean inter-class distance must exceed intra-class distance:
        // otherwise nothing is learnable.
        let d = tiny();
        let dist = |a: &Tensor, b: &Tensor| -> f32 {
            a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
        };
        // Means over every pair of training images, split by whether the
        // two share a label.
        let (mut intra, mut inter) = ((0.0f64, 0u32), (0.0f64, 0u32));
        let labelled: Vec<_> = d.train_images.iter().zip(&d.train_labels).collect();
        for (i, (a, la)) in labelled.iter().enumerate() {
            for (b, lb) in &labelled[i + 1..] {
                let acc = if la == lb { &mut intra } else { &mut inter };
                acc.0 += f64::from(dist(a, b));
                acc.1 += 1;
            }
        }
        let (intra, inter) = (intra.0 / f64::from(intra.1), inter.0 / f64::from(inter.1));
        assert!(inter > intra, "mean inter {inter} <= mean intra {intra}");
    }

    #[test]
    fn test_batches_are_normalized() {
        let d = tiny();
        let (imgs, _) = &d.test_batches(32)[0];
        let mean = puffer_tensor::stats::mean(imgs);
        assert!(mean.abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn labels_in_range() {
        let d = tiny();
        assert!(d.train_labels.iter().all(|&l| l < 4));
        assert!(d.test_labels.iter().all(|&l| l < 4));
    }

    #[test]
    fn presets() {
        let c = ImageDatasetConfig::cifar_like(10, 5, 2);
        assert_eq!((c.classes, c.size), (10, 32));
        let i = ImageDatasetConfig::imagenet_lite(10, 5, 2);
        assert!(i.classes > c.classes || i.size >= c.size);
    }
}
