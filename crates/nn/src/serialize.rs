//! Binary weight serialization.
//!
//! Weights are stored as a flat, ordered list of tensors — the same order
//! [`crate::Module::params`] yields — in a small self-describing
//! little-endian format:
//!
//! ```text
//! magic "AERO" | u32 version | u32 tensor_count
//! per tensor: u32 rank | u32 dims[rank] | f32 data[numel]
//! ```

use crate::autograd::Var;
use aero_tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;
use std::io;

const MAGIC: &[u8; 4] = b"AERO";
const VERSION: u32 = 1;

/// Error returned when decoding a weight blob fails.
#[derive(Debug)]
pub enum LoadWeightsError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The blob is malformed or truncated.
    Corrupt(String),
    /// The stored tensors do not match the module's parameters.
    Mismatch(String),
}

impl fmt::Display for LoadWeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadWeightsError::Io(e) => write!(f, "i/o failure: {e}"),
            LoadWeightsError::Corrupt(d) => write!(f, "corrupt weight blob: {d}"),
            LoadWeightsError::Mismatch(d) => write!(f, "weight/parameter mismatch: {d}"),
        }
    }
}

impl Error for LoadWeightsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadWeightsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for LoadWeightsError {
    fn from(e: io::Error) -> Self {
        LoadWeightsError::Io(e)
    }
}

/// Encodes parameters into the binary weight format.
pub fn encode_params(params: &[Var]) -> Bytes {
    let tensors: Vec<Tensor> = params.iter().map(Var::to_tensor).collect();
    let refs: Vec<&Tensor> = tensors.iter().collect();
    encode_tensors(&refs)
}

/// Encodes raw tensors into the same binary format [`encode_params`]
/// writes — used for optimizer moments and other non-parameter state
/// that checkpoints must carry.
pub fn encode_tensors(tensors: &[&Tensor]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(tensors.len() as u32);
    for t in tensors {
        buf.put_u32_le(t.rank() as u32);
        for &d in t.shape() {
            buf.put_u32_le(d as u32);
        }
        for &v in t.as_slice() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Decodes a weight blob into raw tensors.
///
/// # Errors
///
/// Returns [`LoadWeightsError::Corrupt`] on malformed input.
pub fn decode_tensors(mut blob: &[u8]) -> Result<Vec<Tensor>, LoadWeightsError> {
    if blob.len() < 12 || &blob[..4] != MAGIC {
        return Err(LoadWeightsError::Corrupt("missing magic header".into()));
    }
    blob.advance(4);
    let version = blob.get_u32_le();
    if version != VERSION {
        return Err(LoadWeightsError::Corrupt(format!("unsupported version {version}")));
    }
    let count = blob.get_u32_le() as usize;
    let mut tensors = Vec::with_capacity(count);
    for i in 0..count {
        if blob.remaining() < 4 {
            return Err(LoadWeightsError::Corrupt(format!("truncated before tensor {i}")));
        }
        let rank = blob.get_u32_le() as usize;
        if blob.remaining() < rank * 4 {
            return Err(LoadWeightsError::Corrupt(format!("truncated dims of tensor {i}")));
        }
        let shape: Vec<usize> = (0..rank).map(|_| blob.get_u32_le() as usize).collect();
        let numel: usize = shape.iter().product();
        if blob.remaining() < numel * 4 {
            return Err(LoadWeightsError::Corrupt(format!("truncated data of tensor {i}")));
        }
        let data: Vec<f32> = (0..numel).map(|_| blob.get_f32_le()).collect();
        tensors.push(
            Tensor::try_from_vec(data, &shape)
                .map_err(|e| LoadWeightsError::Corrupt(e.to_string()))?,
        );
    }
    Ok(tensors)
}

/// Loads decoded tensors into parameters, checking shapes.
///
/// # Errors
///
/// Returns [`LoadWeightsError::Mismatch`] if counts or shapes differ.
pub fn load_into_params(params: &[Var], tensors: Vec<Tensor>) -> Result<(), LoadWeightsError> {
    if params.len() != tensors.len() {
        return Err(LoadWeightsError::Mismatch(format!(
            "expected {} tensors, blob holds {}",
            params.len(),
            tensors.len()
        )));
    }
    for (i, (p, t)) in params.iter().zip(&tensors).enumerate() {
        if p.shape() != t.shape() {
            return Err(LoadWeightsError::Mismatch(format!(
                "tensor {i} shape {:?} does not match parameter shape {:?}",
                t.shape(),
                p.shape()
            )));
        }
    }
    for (p, t) in params.iter().zip(tensors) {
        p.assign(t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_preserves_values() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Var::parameter(Tensor::randn(&[3, 4], &mut rng));
        let b = Var::parameter(Tensor::randn(&[7], &mut rng));
        let blob = encode_params(&[a.clone(), b.clone()]);
        let a2 = Var::parameter(Tensor::zeros(&[3, 4]));
        let b2 = Var::parameter(Tensor::zeros(&[7]));
        load_into_params(&[a2.clone(), b2.clone()], decode_tensors(&blob).unwrap()).unwrap();
        assert_eq!(*a.value(), *a2.value());
        assert_eq!(*b.value(), *b2.value());
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(decode_tensors(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00").is_err());
    }

    #[test]
    fn rejects_truncated_blob() {
        let p = Var::parameter(Tensor::ones(&[4]));
        let blob = encode_params(&[p]);
        assert!(decode_tensors(&blob[..blob.len() - 3]).is_err());
    }

    #[test]
    fn rejects_shape_mismatch() {
        let p = Var::parameter(Tensor::ones(&[4]));
        let blob = encode_params(&[p]);
        let q = Var::parameter(Tensor::ones(&[5]));
        let res = load_into_params(&[q], decode_tensors(&blob).unwrap());
        assert!(matches!(res, Err(LoadWeightsError::Mismatch(_))));
    }
}
