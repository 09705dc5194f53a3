//! Binary tensor serialization — the checkpoint substrate.
//!
//! A minimal, dependency-free container format (`PUFT`): magic, version,
//! entry count, then per entry a name, a shape, and little-endian f32 data.
//! Used by `puffer-nn`'s checkpointing to save/restore model state between
//! the phases of long experiments.

use crate::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PUFT";
const VERSION: u32 = 1;

/// Writes named tensors to a writer in the `PUFT` format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_tensors<W: Write>(mut w: W, entries: &[(String, &Tensor)]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(entries.len() as u32).to_le_bytes())?;
    for (name, tensor) in entries {
        let name_bytes = name.as_bytes();
        w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        w.write_all(name_bytes)?;
        w.write_all(&(tensor.ndim() as u32).to_le_bytes())?;
        for &d in tensor.shape() {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        for &v in tensor.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads named tensors from a reader in the `PUFT` format.
///
/// # Errors
///
/// Returns `InvalidData` for bad magic/version/shape and propagates I/O
/// errors (including truncation).
pub fn read_tensors<R: Read>(mut r: R) -> io::Result<Vec<(String, Tensor)>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad checkpoint magic"));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let count = read_u32(&mut r)? as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = read_u32(&mut r)? as usize;
        if name_len > 1 << 20 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible name length"));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 tensor name"))?;
        let ndim = read_u32(&mut r)? as usize;
        if ndim > 16 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible tensor rank"));
        }
        let mut shape = Vec::with_capacity(ndim);
        let mut len = 1usize;
        for _ in 0..ndim {
            let mut buf = [0u8; 8];
            r.read_exact(&mut buf)?;
            let d = u64::from_le_bytes(buf) as usize;
            len = len.saturating_mul(d);
            shape.push(d);
        }
        if len > 1 << 30 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible tensor size"));
        }
        let mut data = vec![0f32; len];
        for v in &mut data {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        let tensor = Tensor::from_vec(data, &shape)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        out.push((name, tensor));
    }
    Ok(out)
}

/// Saves named tensors to a file.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn save_tensors<P: AsRef<Path>>(path: P, entries: &[(String, &Tensor)]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_tensors(io::BufWriter::new(file), entries)
}

/// Loads named tensors from a file.
///
/// # Errors
///
/// Propagates file I/O and format errors.
pub fn load_tensors<P: AsRef<Path>>(path: P) -> io::Result<Vec<(String, Tensor)>> {
    let file = std::fs::File::open(path)?;
    read_tensors(io::BufReader::new(file))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(String, Tensor)> {
        vec![
            ("conv.weight".into(), Tensor::randn(&[2, 3, 3, 3], 1.0, 1)),
            ("bn.weight".into(), Tensor::ones(&[3])),
            ("empty".into(), Tensor::zeros(&[0])),
        ]
    }

    #[test]
    fn round_trip_in_memory() {
        let entries = sample();
        let refs: Vec<(String, &Tensor)> = entries.iter().map(|(n, t)| (n.clone(), t)).collect();
        let mut buf = Vec::new();
        write_tensors(&mut buf, &refs).unwrap();
        let back = read_tensors(&buf[..]).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn round_trip_file() {
        let entries = sample();
        let refs: Vec<(String, &Tensor)> = entries.iter().map(|(n, t)| (n.clone(), t)).collect();
        let path = std::env::temp_dir().join("puffer_io_test.puft");
        save_tensors(&path, &refs).unwrap();
        let back = load_tensors(&path).unwrap();
        assert_eq!(back, entries);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_tensors(&b"NOPE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_data_rejected() {
        let entries = sample();
        let refs: Vec<(String, &Tensor)> = entries.iter().map(|(n, t)| (n.clone(), t)).collect();
        let mut buf = Vec::new();
        write_tensors(&mut buf, &refs).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_tensors(&buf[..]).is_err());
    }

    #[test]
    fn special_values_preserved() {
        let t = Tensor::from_vec(vec![f32::INFINITY, -0.0, f32::MIN_POSITIVE], &[3]).unwrap();
        let mut buf = Vec::new();
        write_tensors(&mut buf, &[("x".into(), &t)]).unwrap();
        let back = read_tensors(&buf[..]).unwrap();
        assert_eq!(back[0].1, t);
    }
}
