//! Flat gradient-buffer packing.
//!
//! The paper's prototype packs **all** gradient tensors into one flat
//! buffer and issues a single allreduce per iteration (§4.1), because each
//! collective call pays a latency term proportional to the node count
//! (Thakur et al. 2005) and factorization doubles the number of layers.
//! This module provides the pack/unpack primitives plus the layout
//! bookkeeping.

use puffer_tensor::Tensor;
use std::collections::BTreeMap;

/// The shape layout of a packed buffer, needed to unpack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackLayout {
    shapes: Vec<Vec<usize>>,
    offsets: Vec<usize>,
    total: usize,
}

impl PackLayout {
    /// The layout of tensors with the given shapes, packed in order.
    pub fn from_shapes(shapes: Vec<Vec<usize>>) -> Self {
        let mut offsets = Vec::with_capacity(shapes.len());
        let mut total = 0;
        for s in &shapes {
            offsets.push(total);
            total += s.iter().product::<usize>();
        }
        PackLayout { shapes, offsets, total }
    }

    /// Derives the layout from a tensor list.
    pub fn of(tensors: &[Tensor]) -> Self {
        Self::from_shapes(tensors.iter().map(|t| t.shape().to_vec()).collect())
    }

    /// Derives the layout from borrowed tensors (e.g. live parameter
    /// gradients) without requiring an owned slice of them.
    pub fn of_refs(tensors: &[&Tensor]) -> Self {
        Self::from_shapes(tensors.iter().map(|t| t.shape().to_vec()).collect())
    }

    /// Total number of f32 elements in the packed buffer.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Number of tensors.
    pub fn tensor_count(&self) -> usize {
        self.shapes.len()
    }

    /// Packed size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.total * std::mem::size_of::<f32>()
    }

    /// Element range tensor `i` occupies in the packed buffer — the slicing
    /// primitive gradient bucketing builds on (a bucket is a contiguous run
    /// of whole tensors).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn range_of(&self, i: usize) -> std::ops::Range<usize> {
        let len: usize = self.shapes[i].iter().product();
        self.offsets[i]..self.offsets[i] + len
    }

    /// Serializes the layout's shape list as one f32 tensor
    /// (`[n, ndim₀, dims…, ndim₁, dims…]`) so stateful compressors can
    /// checkpoint it alongside their flat buffers.
    pub fn to_tensor(&self) -> Tensor {
        let mut data = vec![self.shapes.len() as f32];
        for s in &self.shapes {
            data.push(s.len() as f32);
            data.extend(s.iter().map(|&d| d as f32));
        }
        let n = data.len();
        Tensor::from_vec(data, &[n]).expect("layout serialization")
    }

    /// Rebuilds a layout from [`PackLayout::to_tensor`] output. Returns
    /// `None` on a malformed encoding.
    pub fn from_tensor(t: &Tensor) -> Option<PackLayout> {
        let mut it = t.as_slice().iter().copied();
        let n = it.next()? as usize;
        let mut shapes = Vec::with_capacity(n);
        for _ in 0..n {
            let ndim = it.next()? as usize;
            let mut s = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                s.push(it.next()? as usize);
            }
            shapes.push(s);
        }
        if it.next().is_some() {
            return None;
        }
        Some(Self::from_shapes(shapes))
    }
}

/// Snapshot rows of a compressor keeping one flat buffer per worker id
/// plus the layout they belong to: `[("layout", …), ("<prefix>.00", …), …]`,
/// `NN` the worker id; nothing before the first round fixed a layout.
pub(crate) fn snapshot_flat_state<'a>(
    layout: Option<&PackLayout>,
    prefix: &str,
    bufs: impl IntoIterator<Item = (usize, &'a Tensor)>,
) -> Vec<(String, Tensor)> {
    let Some(layout) = layout else { return Vec::new() };
    let mut out = vec![("layout".to_string(), layout.to_tensor())];
    let fits = bufs.into_iter().filter(|(_, b)| b.len() == layout.total_len());
    out.extend(fits.map(|(w, b)| (format!("{prefix}.{w:02}"), b.clone())));
    out
}

/// Inverse of [`snapshot_flat_state`], over the compressor's own snapshot
/// or any union of its halves'; `None` on malformed or mismatched state.
pub(crate) fn restore_flat_state(
    state: &[(String, Tensor)],
    prefix: &str,
) -> Option<(Option<PackLayout>, BTreeMap<usize, Tensor>)> {
    if state.is_empty() {
        return Some((None, BTreeMap::new()));
    }
    let (_, lt) = state.iter().find(|(n, _)| n == "layout")?;
    let layout = PackLayout::from_tensor(lt)?;
    let mut bufs = BTreeMap::new();
    for (name, t) in state.iter().filter(|(n, _)| n != "layout") {
        let w = name.strip_prefix(prefix)?.strip_prefix('.')?.parse::<usize>().ok()?;
        if t.len() != layout.total_len() {
            return None;
        }
        bufs.insert(w, t.clone());
    }
    Some((Some(layout), bufs))
}

/// One worker's flat cross-round buffer over the packed gradient (Signum's
/// momentum, Top-k's residual), the layout it belongs to, and the candidate
/// the round in flight computed for it: [`FlatMemory::begin`] hands the
/// candidate out, [`FlatMemory::commit`] — a codec's `decode` — makes it
/// the memory, and a round that never gets there leaves no trace.
#[derive(Debug)]
pub(crate) struct FlatMemory {
    worker: usize,
    layout: Option<PackLayout>,
    memory: Tensor,
    pending: Tensor,
}

fn layout_of(grads: &[&mut Tensor]) -> PackLayout {
    PackLayout::from_shapes(grads.iter().map(|g| g.shape().to_vec()).collect())
}

impl FlatMemory {
    /// Worker `worker`'s memory as a compressor holds it between rounds
    /// (`None`: it has none yet).
    pub(crate) fn new(worker: usize, layout: Option<PackLayout>, memory: Option<Tensor>) -> Self {
        FlatMemory {
            worker,
            layout,
            memory: memory.unwrap_or_default(),
            pending: Tensor::default(),
        }
    }

    /// The candidate, as long as `grads` packed: a copy of the memory, or
    /// zeros if there is none for gradients laid out like these.
    pub(crate) fn begin(&mut self, grads: &[&mut Tensor]) -> &mut [f32] {
        let layout = layout_of(grads);
        if self.pending.len() != layout.total_len() {
            self.pending = Tensor::zeros(&[layout.total_len()]);
        }
        let pending = self.pending.as_mut_slice();
        if self.layout.as_ref() == Some(&layout) && self.memory.len() == pending.len() {
            pending.copy_from_slice(self.memory.as_slice());
        } else {
            pending.fill(0.0);
        }
        pending
    }

    /// Ends a round over `grads`: the candidate becomes the memory if
    /// `keep`. Returns the buffer that is free now, for scratch.
    pub(crate) fn commit(&mut self, grads: &[&mut Tensor], keep: bool) -> &mut Tensor {
        let layout = layout_of(grads);
        if keep {
            std::mem::swap(&mut self.memory, &mut self.pending);
        }
        if self.pending.len() != layout.total_len() {
            self.pending = Tensor::zeros(&[layout.total_len()]);
        }
        self.layout = Some(layout);
        &mut self.pending
    }

    /// This worker's rows of [`snapshot_flat_state`].
    pub(crate) fn snapshot(&self, prefix: &str) -> Vec<(String, Tensor)> {
        snapshot_flat_state(self.layout.as_ref(), prefix, [(self.worker, &self.memory)])
    }
}

/// Copies `flat` back into the tensors it was packed from.
///
/// # Errors
///
/// Returns a shape error if `flat` is not as long as the tensors together.
pub(crate) fn unpack_into(
    flat: &[f32],
    tensors: &mut [&mut Tensor],
    op: &'static str,
) -> puffer_tensor::Result<()> {
    let total = crate::total_len(tensors);
    if flat.len() != total {
        return Err(crate::length_mismatch(total, flat.len(), op));
    }
    let mut rest = flat;
    for t in tensors.iter_mut() {
        let (head, tail) = rest.split_at(t.len());
        t.as_mut_slice().copy_from_slice(head);
        rest = tail;
    }
    Ok(())
}

/// Copies tensors into `out`, one after the other.
///
/// # Panics
///
/// Panics if `out` is not exactly as long as the tensors together.
pub fn pack_into<'a>(tensors: impl IntoIterator<Item = &'a Tensor>, out: &mut [f32]) {
    let mut rest = out;
    for t in tensors {
        assert!(t.len() <= rest.len(), "tensors overflow the packed buffer");
        let (head, tail) = rest.split_at_mut(t.len());
        head.copy_from_slice(t.as_slice());
        rest = tail;
    }
    assert!(rest.is_empty(), "tensors leave {} packed elements unwritten", rest.len());
}

/// Packs a tensor list into one flat buffer.
pub fn pack(tensors: &[Tensor]) -> (Tensor, PackLayout) {
    let layout = PackLayout::of(tensors);
    let mut buf = Tensor::zeros(&[layout.total]);
    pack_into(tensors, buf.as_mut_slice());
    (buf, layout)
}

/// Packs borrowed tensors into one flat buffer, encoding straight from
/// the borrows — no owned copies of the inputs are made.
pub fn pack_refs(tensors: &[&Tensor]) -> (Tensor, PackLayout) {
    let layout = PackLayout::of_refs(tensors);
    let buf = pack_refs_with(&layout, tensors);
    (buf, layout)
}

/// Packs borrowed tensors into a flat buffer using a precomputed layout
/// (the steady-state path: derive the layout once, pack every round).
///
/// # Panics
///
/// Panics if the tensors do not match the layout.
pub fn pack_refs_with(layout: &PackLayout, tensors: &[&Tensor]) -> Tensor {
    assert_eq!(tensors.len(), layout.shapes.len(), "tensor/layout count mismatch");
    let mut buf = Tensor::zeros(&[layout.total]);
    pack_into(tensors.iter().copied(), buf.as_mut_slice());
    buf
}

/// Unpacks a flat buffer back into tensors.
///
/// # Panics
///
/// Panics if the buffer length does not match the layout.
pub fn unpack(buf: &Tensor, layout: &PackLayout) -> Vec<Tensor> {
    assert_eq!(buf.len(), layout.total, "buffer/layout length mismatch");
    layout
        .shapes
        .iter()
        .zip(&layout.offsets)
        .map(|(shape, &off)| {
            let len: usize = shape.iter().product();
            let data = puffer_tensor::workspace::take_copied(&buf.as_slice()[off..off + len]);
            Tensor::from_vec(data, shape).expect("layout shapes are consistent")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let tensors = vec![
            Tensor::randn(&[2, 3], 1.0, 1),
            Tensor::randn(&[4], 1.0, 2),
            Tensor::randn(&[1, 2, 2], 1.0, 3),
        ];
        let (buf, layout) = pack(&tensors);
        assert_eq!(buf.len(), 14);
        assert_eq!(layout.total_bytes(), 56);
        assert_eq!(layout.tensor_count(), 3);
        assert_eq!(layout.range_of(0), 0..6);
        assert_eq!(layout.range_of(1), 6..10);
        assert_eq!(layout.range_of(2), 10..14);
        let back = unpack(&buf, &layout);
        assert_eq!(back, tensors);
    }

    #[test]
    fn layout_tensor_round_trip() {
        let tensors = vec![Tensor::randn(&[2, 3], 1.0, 1), Tensor::randn(&[4], 1.0, 2)];
        let (_, layout) = pack(&tensors);
        let back = PackLayout::from_tensor(&layout.to_tensor()).unwrap();
        assert_eq!(back, layout);
        assert!(PackLayout::from_tensor(&Tensor::full(&[2], 9.0)).is_none());
    }

    #[test]
    fn pack_refs_matches_pack() {
        let tensors = vec![Tensor::randn(&[3, 2], 1.0, 4), Tensor::randn(&[5], 1.0, 5)];
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let (owned_buf, owned_layout) = pack(&tensors);
        let (ref_buf, ref_layout) = pack_refs(&refs);
        assert_eq!(ref_buf, owned_buf);
        assert_eq!(ref_layout, owned_layout);
        assert_eq!(pack_refs_with(&owned_layout, &refs), owned_buf);
    }

    #[test]
    fn empty_list() {
        let (buf, layout) = pack(&[]);
        assert_eq!(buf.len(), 0);
        assert!(unpack(&buf, &layout).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unpack_validates() {
        let (_, layout) = pack(&[Tensor::zeros(&[3])]);
        let _ = unpack(&Tensor::zeros(&[2]), &layout);
    }
}
