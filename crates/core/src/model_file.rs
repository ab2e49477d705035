//! Self-describing model files.
//!
//! Layout: a UTF-8 header of `key value` lines terminated by a blank line,
//! followed by the binary parameter blob of
//! [`hotspot_nn::serialize::ParameterBlob::to_bytes`]:
//!
//! ```text
//! hsmodel 2
//! resolution_nm 10
//! grid 12
//! k 32
//! crc 0x1a2b3c4d
//!
//! <binary parameters>
//! ```
//!
//! The header carries everything needed to rebuild the feature pipeline
//! and CNN before loading weights, so a model file is usable without any
//! out-of-band configuration.
//!
//! Version 2 added the `crc` line: a CRC-32 (IEEE, shared with
//! [`hotspot_nn::serialize::crc32`]) over the canonical header fields and
//! the parameter bytes, so corruption anywhere in the file — a flipped
//! digit in `grid` just as much as a damaged weight — is reported instead
//! of silently loading a different model. The same CRC doubles as the
//! model's identity in [`ModelProvenance`]: every scan report and daemon
//! response names the exact weights that produced it.
//!
//! This module lives in `hotspot-core` (it moved here from the CLI crate)
//! so the CLI and the serve daemon load models through one code path.

use crate::api::ModelProvenance;
use crate::model::CnnConfig;
use crate::{CoreError, FeaturePipeline};
use hotspot_nn::serialize::{crc32, ParameterBlob};
use hotspot_nn::Network;

/// Model-file format version written by [`ModelFile::to_bytes`].
pub const VERSION: u32 = 2;

/// Everything needed to reconstruct a trained detector.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFile {
    /// Feature-pipeline geometry.
    pub resolution_nm: u32,
    /// Block grid dimension `n`.
    pub grid: usize,
    /// Coefficients per block `k` (CNN input channels).
    pub k: usize,
    /// Flat trained parameters.
    pub blob: ParameterBlob,
}

impl ModelFile {
    /// The canonical header prefix the file checksum covers (everything
    /// before the `crc` line). Reconstructed from parsed values on load so
    /// that any corruption that changes a field value breaks the CRC.
    fn covered_header(&self) -> String {
        format!(
            "hsmodel {VERSION}\nresolution_nm {}\ngrid {}\nk {}\n",
            self.resolution_nm, self.grid, self.k
        )
    }

    /// CRC-32 over the canonical header fields plus the parameter bytes.
    fn checksum(&self, blob_bytes: &[u8]) -> u32 {
        let mut covered = self.covered_header().into_bytes();
        covered.extend_from_slice(blob_bytes);
        crc32(&covered)
    }

    /// The file checksum — the model's identity for provenance tracking
    /// (recomputed from the current in-memory state, so it always matches
    /// what [`ModelFile::to_bytes`] would write).
    pub fn crc(&self) -> u32 {
        self.checksum(&self.blob.to_bytes())
    }

    /// The provenance stamp for results produced by this model, paired
    /// with the cascade prefilter checksum when one is in play.
    pub fn provenance(&self, cascade_crc: Option<u32>) -> ModelProvenance {
        ModelProvenance {
            model_crc: self.crc(),
            model_version: VERSION,
            cascade_crc,
        }
    }

    /// Serialises header + parameters.
    pub fn to_bytes(&self) -> Vec<u8> {
        let blob = self.blob.to_bytes();
        let crc = self.checksum(&blob);
        let mut out = self.covered_header().into_bytes();
        out.extend_from_slice(format!("crc {crc:#010x}\n\n").as_bytes());
        out.extend_from_slice(&blob);
        out
    }

    /// Parses bytes produced by [`ModelFile::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] on a malformed header, an unsupported
    /// version, a checksum mismatch, or a malformed parameter blob. Never
    /// panics, and never accepts a file whose decoded model would differ
    /// from the one written.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CoreError> {
        let header_end = find_blank_line(data)
            .ok_or_else(|| CoreError::Model("missing header terminator".into()))?;
        let header = std::str::from_utf8(&data[..header_end])
            .map_err(|_| CoreError::Model("header is not UTF-8".into()))?;
        let mut version = None;
        let mut resolution_nm = None;
        let mut grid = None;
        let mut k = None;
        let mut crc_declared = None;
        for line in header.lines() {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("hsmodel"), Some(v)) => version = Some(parse_value::<u32>("hsmodel", v)?),
                (Some("resolution_nm"), Some(v)) => {
                    resolution_nm = Some(parse_value("resolution_nm", v)?);
                }
                (Some("grid"), Some(v)) => grid = Some(parse_value("grid", v)?),
                (Some("k"), Some(v)) => k = Some(parse_value("k", v)?),
                (Some("crc"), Some(v)) => {
                    crc_declared = Some(
                        u32::from_str_radix(v.strip_prefix("0x").unwrap_or(v), 16).map_err(
                            |_| CoreError::Model(format!("invalid value for crc: '{v}'")),
                        )?,
                    );
                }
                (Some(key), None) => {
                    return Err(CoreError::Model(format!(
                        "header line '{key}' has no value"
                    )))
                }
                (Some(other), _) => {
                    return Err(CoreError::Model(format!("unknown header key '{other}'")))
                }
                (None, _) => {}
            }
        }
        match version {
            Some(VERSION) => {}
            Some(v) => {
                return Err(CoreError::Model(format!(
                    "unsupported model version {v} (expected {VERSION})"
                )))
            }
            None => return Err(CoreError::Model("missing hsmodel version line".into())),
        }
        let crc_declared = crc_declared.ok_or_else(|| CoreError::Model("missing crc".into()))?;
        let blob_bytes = &data[header_end + 1..];
        let model = ModelFile {
            resolution_nm: resolution_nm
                .ok_or_else(|| CoreError::Model("missing resolution_nm".into()))?,
            grid: grid.ok_or_else(|| CoreError::Model("missing grid".into()))?,
            k: k.ok_or_else(|| CoreError::Model("missing k".into()))?,
            blob: ParameterBlob::from_bytes(blob_bytes)
                .map_err(|e| CoreError::Model(format!("parameter blob: {e}")))?,
        };
        let crc_actual = model.checksum(blob_bytes);
        if crc_actual != crc_declared {
            return Err(CoreError::Model(format!(
                "file checksum mismatch: stored {crc_declared:#010x}, computed {crc_actual:#010x}"
            )));
        }
        Ok(model)
    }

    /// Rebuilds the feature pipeline this model expects.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] for impossible header geometry.
    pub fn pipeline(&self) -> Result<FeaturePipeline, CoreError> {
        FeaturePipeline::new(self.resolution_nm, self.grid, self.k)
            .map_err(|e| CoreError::Model(format!("invalid pipeline in header: {e}")))
    }

    /// Rebuilds the network architecture and loads the stored weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] when the blob does not match the
    /// declared architecture.
    pub fn network(&self) -> Result<Network, CoreError> {
        let cnn = CnnConfig {
            input_grid: self.grid,
            input_channels: self.k,
            ..CnnConfig::default()
        };
        let mut net = cnn.build();
        self.blob
            .load_into(&mut net)
            .map_err(|e| CoreError::Model(format!("weights do not fit architecture: {e}")))?;
        Ok(net)
    }
}

fn parse_value<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, CoreError> {
    v.parse()
        .map_err(|_| CoreError::Model(format!("invalid value for {key}: '{v}'")))
}

fn find_blank_line(data: &[u8]) -> Option<usize> {
    // Header is small; scan for "\n\n".
    data.windows(2)
        .position(|w| w == b"\n\n")
        .map(|idx| idx + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::layers::Dense;

    fn sample() -> ModelFile {
        let cnn = CnnConfig {
            input_grid: 12,
            input_channels: 4,
            ..CnnConfig::default()
        };
        let mut net = cnn.build();
        ModelFile {
            resolution_nm: 10,
            grid: 12,
            k: 4,
            blob: ParameterBlob::from_network(&mut net),
        }
    }

    /// A model with a deliberately tiny blob, so exhaustive per-byte fuzz
    /// stays fast. `to_bytes`/`from_bytes` never validate the blob against
    /// the declared architecture, so this is fine for format tests.
    fn tiny() -> ModelFile {
        let mut net = Network::new();
        net.push(Dense::new(3, 2, 1));
        ModelFile {
            resolution_nm: 10,
            grid: 12,
            k: 4,
            blob: ParameterBlob::from_network(&mut net),
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = ModelFile::from_bytes(&bytes).unwrap();
        assert_eq!(m, back);
        // Network rebuild works and predicts identically.
        let a = m.network().unwrap();
        let b = back.network().unwrap();
        let x = hotspot_nn::Tensor::zeros(vec![4, 12, 12]);
        assert_eq!(
            hotspot_nn::engine::Executor::new().infer(&a, &x),
            hotspot_nn::engine::Executor::new().infer(&b, &x)
        );
    }

    #[test]
    fn crc_matches_written_header() {
        let m = tiny();
        let bytes = m.to_bytes();
        let text = String::from_utf8_lossy(&bytes);
        let expected = format!("crc {:#010x}", m.crc());
        assert!(
            text.contains(&expected),
            "header does not carry crc(): {expected} not in {text:?}"
        );
        // Provenance carries the same identity.
        let p = m.provenance(Some(7));
        assert_eq!(p.model_crc, m.crc());
        assert_eq!(p.model_version, VERSION);
        assert_eq!(p.cascade_crc, Some(7));
    }

    #[test]
    fn rejects_corruption() {
        let m = sample();
        let bytes = m.to_bytes();
        assert!(ModelFile::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ModelFile::from_bytes(&bad).is_err());
        // Truncated blob.
        assert!(ModelFile::from_bytes(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn unsupported_version_is_named() {
        let mut bytes = tiny().to_bytes();
        let pos = bytes
            .windows(9)
            .position(|w| w == b"hsmodel 2")
            .expect("header present");
        bytes[pos + 8] = b'3';
        let err = ModelFile::from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unsupported model version 3"),
            "got: {err}"
        );
    }

    #[test]
    fn invalid_field_value_is_named() {
        let blob = tiny().blob.to_bytes();
        let mut bytes =
            b"hsmodel 2\nresolution_nm 10\ngrid twelve\nk 4\ncrc 0x00000000\n\n".to_vec();
        bytes.extend_from_slice(&blob);
        let err = ModelFile::from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("invalid value for grid: 'twelve'"),
            "got: {err}"
        );
    }

    #[test]
    fn missing_field_is_named() {
        let blob = tiny().blob.to_bytes();
        let mut bytes = b"hsmodel 2\nresolution_nm 10\nk 4\ncrc 0x00000000\n\n".to_vec();
        bytes.extend_from_slice(&blob);
        let err = ModelFile::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("missing grid"), "got: {err}");
    }

    #[test]
    fn header_value_corruption_fails_checksum() {
        // "grid 12" -> "grid 13": same length, parses fine, but decodes to
        // a different model — the file checksum must catch it.
        let bytes = tiny().to_bytes();
        let pos = bytes
            .windows(7)
            .position(|w| w == b"grid 12")
            .expect("header present");
        let mut bad = bytes.clone();
        bad[pos + 6] = b'3';
        let err = ModelFile::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = tiny().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                ModelFile::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_identical() {
        // A flipped byte must never produce a *different* model: either
        // decoding fails, or (e.g. a flip inside ignorable whitespace) it
        // yields exactly the model that was written.
        let m = tiny();
        let bytes = m.to_bytes();
        for offset in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[offset] ^= bit;
                if let Ok(decoded) = ModelFile::from_bytes(&bad) {
                    assert_eq!(
                        decoded, m,
                        "flip at offset {offset} decoded to a different model"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_architecture_rejected() {
        let mut m = sample();
        m.k = 8; // header no longer matches the stored blob size
        let bytes = m.to_bytes();
        let parsed = ModelFile::from_bytes(&bytes).unwrap();
        assert!(parsed.network().is_err());
    }

    #[test]
    fn pipeline_matches_header() {
        let m = sample();
        let p = m.pipeline().unwrap();
        assert_eq!(p.resolution_nm(), 10);
        assert_eq!(p.grid_dim(), 12);
        assert_eq!(p.coefficients(), 4);
    }
}
