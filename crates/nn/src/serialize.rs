//! Flat parameter snapshots for model persistence and fine-tuning.
//!
//! Biased learning fine-tunes a *trained* model repeatedly; snapshots allow
//! keeping the best validation model while training continues, and moving
//! weights between identically-shaped networks.

use crate::{Network, NnError};
use serde::{Deserialize, Serialize};

/// A flat snapshot of every trainable parameter of a network, in layer
/// order.
///
/// # Examples
///
/// ```
/// use hotspot_nn::layers::Dense;
/// use hotspot_nn::serialize::ParameterBlob;
/// use hotspot_nn::Network;
///
/// # fn main() -> Result<(), hotspot_nn::NnError> {
/// let mut a = Network::new();
/// a.push(Dense::new(3, 2, 1));
/// let snapshot = ParameterBlob::from_network(&mut a);
///
/// let mut b = Network::new();
/// b.push(Dense::new(3, 2, 99)); // different init...
/// snapshot.load_into(&mut b)?;  // ...now identical to `a`
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParameterBlob {
    values: Vec<f32>,
}

impl ParameterBlob {
    /// Snapshots all parameters of `net`.
    pub fn from_network(net: &mut Network) -> Self {
        let mut values = Vec::new();
        net.visit_params(&mut |w, _| values.extend_from_slice(w));
        ParameterBlob { values }
    }

    /// Number of stored parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the blob holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Writes the snapshot back into an identically-shaped network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterCountMismatch`] when the network's
    /// parameter count differs from the blob's.
    pub fn load_into(&self, net: &mut Network) -> Result<(), NnError> {
        let expected = {
            let mut count = 0;
            net.visit_params(&mut |w, _| count += w.len());
            count
        };
        if expected != self.values.len() {
            return Err(NnError::ParameterCountMismatch {
                expected,
                actual: self.values.len(),
            });
        }
        let mut offset = 0usize;
        net.visit_params(&mut |w, _| {
            w.copy_from_slice(&self.values[offset..offset + w.len()]);
            offset += w.len();
        });
        Ok(())
    }

    /// The raw parameter values.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Encodes the snapshot into a self-describing little-endian binary
    /// buffer (`magic "HSNN" | u32 version | u32 crc32(payload) |
    /// u64 count | f32 × count`), suitable for writing to a model file.
    ///
    /// The CRC covers the `f32` payload, so any corruption of the stored
    /// values is detected on decode instead of silently loading a
    /// different model.
    pub fn to_bytes(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let mut payload = Vec::with_capacity(4 * self.values.len());
        for &v in &self.values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut buf = bytes::BytesMut::with_capacity(HEADER_LEN + payload.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(crc32(&payload));
        buf.put_u64_le(self.values.len() as u64);
        buf.put_slice(&payload);
        buf.freeze()
    }

    /// Decodes a buffer produced by [`ParameterBlob::to_bytes`].
    ///
    /// The declared element count is validated against the actual payload
    /// length **with checked arithmetic before any allocation**, so a
    /// crafted or corrupted header can neither wrap the length check in
    /// release builds nor trigger an absurd allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Format`] when the buffer is truncated, has a bad
    /// magic/version, fails its checksum, or its declared count disagrees
    /// with the payload length.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, NnError> {
        use bytes::Buf;
        if data.len() < HEADER_LEN {
            return Err(NnError::Format(format!(
                "buffer too short for header: {} bytes",
                data.len()
            )));
        }
        if &data[..4] != MAGIC {
            return Err(NnError::Format("bad magic (expected \"HSNN\")".into()));
        }
        data.advance(4);
        let version = data.get_u32_le();
        if version != VERSION {
            return Err(NnError::Format(format!(
                "unsupported parameter format version {version} (expected {VERSION})"
            )));
        }
        let crc_declared = data.get_u32_le();
        let count_u64 = data.get_u64_le();
        // The count is attacker/corruption-controlled: validate it against
        // the remaining bytes via checked arithmetic before allocating.
        let count = usize::try_from(count_u64)
            .ok()
            .and_then(|c| c.checked_mul(4))
            .filter(|&payload_len| payload_len == data.remaining())
            .map(|payload_len| payload_len / 4)
            .ok_or_else(|| {
                NnError::Format(format!(
                    "declared count {count_u64} does not match payload of {} bytes",
                    data.remaining()
                ))
            })?;
        let crc_actual = crc32(data);
        if crc_actual != crc_declared {
            return Err(NnError::Format(format!(
                "payload checksum mismatch: stored {crc_declared:#010x}, computed {crc_actual:#010x}"
            )));
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(data.get_f32_le());
        }
        Ok(ParameterBlob { values })
    }
}

/// Blob wire-format magic.
const MAGIC: &[u8; 4] = b"HSNN";
/// Blob wire-format version (v2 added the payload CRC32).
const VERSION: u32 = 2;
/// Bytes before the `f32` payload: magic + version + crc + count.
const HEADER_LEN: usize = 20;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data`.
///
/// Shared by every persisted format in the suite (parameter blobs, model
/// files, training checkpoints); guarantees detection of any single-byte
/// corruption.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::testutil::infer;
    use crate::Tensor;

    fn net(seed: u64) -> Network {
        let mut n = Network::new();
        n.push(Dense::new(4, 6, seed));
        n.push(Relu::new());
        n.push(Dense::new(6, 2, seed + 1));
        n
    }

    #[test]
    fn snapshot_roundtrip_restores_outputs() {
        let mut a = net(1);
        let blob = ParameterBlob::from_network(&mut a);
        let mut b = net(2);
        let x = Tensor::from_vec(vec![4], vec![0.1, -0.5, 0.3, 0.9]);
        assert_ne!(infer(&a, &x), infer(&b, &x));
        blob.load_into(&mut b).unwrap();
        assert_eq!(infer(&a, &x), infer(&b, &x));
    }

    #[test]
    fn mismatched_network_rejected() {
        let mut a = net(1);
        let blob = ParameterBlob::from_network(&mut a);
        let mut small = Network::new();
        small.push(Dense::new(2, 2, 0));
        assert!(matches!(
            blob.load_into(&mut small),
            Err(NnError::ParameterCountMismatch { .. })
        ));
    }

    #[test]
    fn blob_length_matches_parameter_count() {
        let mut a = net(3);
        let blob = ParameterBlob::from_network(&mut a);
        assert_eq!(blob.len(), a.parameter_count());
        assert!(!blob.is_empty());
    }

    #[test]
    fn binary_roundtrip_is_exact() {
        let mut a = net(4);
        let blob = ParameterBlob::from_network(&mut a);
        let bytes = blob.to_bytes();
        assert_eq!(&bytes[..4], b"HSNN");
        let back = ParameterBlob::from_bytes(&bytes).unwrap();
        assert_eq!(blob, back);
    }

    #[test]
    fn binary_decode_rejects_corruption() {
        let mut a = net(5);
        let blob = ParameterBlob::from_network(&mut a);
        let bytes = blob.to_bytes();
        // Truncated payload.
        assert!(ParameterBlob::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert!(ParameterBlob::from_bytes(&bad).is_err());
        // Bad version.
        let mut bad = bytes.to_vec();
        bad[4] = 9;
        assert!(ParameterBlob::from_bytes(&bad).is_err());
        // Empty buffer.
        assert!(ParameterBlob::from_bytes(&[]).is_err());
    }

    #[test]
    fn overflow_count_header_rejected() {
        // Craft a header whose declared count makes `count * 4` wrap in
        // 64-bit arithmetic: ((1 << 62) + 2) * 4 ≡ 8 (mod 2^64). Before the
        // checked-arithmetic fix, a release build would accept this header
        // against an 8-byte payload and decode a silently wrong blob (a
        // debug build would panic on the multiply).
        let payload = [0u8; 8];
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&((1u64 << 62) + 2).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = ParameterBlob::from_bytes(&buf).unwrap_err();
        assert!(matches!(err, NnError::Format(_)), "got {err:?}");
        assert!(err.to_string().contains("count"), "got {err}");
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let mut a = net(6);
        let blob = ParameterBlob::from_network(&mut a);
        let mut bad = blob.to_bytes().to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let err = ParameterBlob::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got {err}");
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE 802.3 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
