//! Versioned suite manifests: deterministic fingerprints of a generated
//! benchmark.
//!
//! A manifest is a small line-oriented text document pinning everything a
//! regeneration must reproduce byte-for-byte: the spec identity (name,
//! recipe version, seed), the corner-label schema, per-split sample counts
//! and content CRCs (clips, labels and — when present — corner labels,
//! each over the exact bytes the CLI writes to disk), per-family draw
//! statistics, and a total CRC over the manifest body itself. The golden
//! regression test commits a manifest for [`crate::suite::SuiteSpec::golden_mini`]
//! and asserts regeneration reproduces it exactly; `hotspot gen` writes a
//! manifest next to every generated suite.
//!
//! The format is deliberately hand-rolled text (one `key value...` record
//! per line, `end` terminated) so diffs are reviewable and parsing has no
//! serde dependency.

use crate::dataset::{write_corner_labels, Dataset};
use crate::suite::BenchmarkData;
use hotspot_geometry::io::write_clips;
use hotspot_geometry::Clip;
use hotspot_nn::serialize::crc32;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Manifest format version (the `hotspot-suite-manifest v<N>` header).
pub const MANIFEST_FORMAT: u32 = 1;

/// Content CRC of a single clip: CRC-32 over its text serialization (the
/// exact bytes [`write_clips`] emits for it).
pub fn clip_crc(clip: &Clip) -> u32 {
    let mut bytes = Vec::new();
    write_clips(&mut bytes, std::iter::once(clip)).expect("in-memory clip serialization");
    crc32(&bytes)
}

fn split_clips_crc(split: &Dataset) -> u32 {
    let mut bytes = Vec::new();
    write_clips(&mut bytes, split.iter().map(|s| &s.clip)).expect("in-memory clip serialization");
    crc32(&bytes)
}

fn split_labels_crc(split: &Dataset) -> u32 {
    // The exact bytes `hotspot gen` writes to `<split>.labels`.
    let labels: String = split
        .iter()
        .map(|s| if s.hotspot { "1\n" } else { "0\n" })
        .collect();
    crc32(labels.as_bytes())
}

fn split_corners_crc(split: &Dataset) -> Option<u32> {
    split.corner_schema()?;
    let labels: Vec<_> = split
        .iter()
        .map(|s| s.corners.clone().expect("uniform corner schema"))
        .collect();
    let mut bytes = Vec::new();
    write_corner_labels(&mut bytes, &labels).expect("in-memory corner serialization");
    Some(crc32(&bytes))
}

/// One split's entry in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitEntry {
    /// Split name (`train` / `test`).
    pub split: String,
    /// Sample count.
    pub count: usize,
    /// Hotspot count.
    pub hotspots: usize,
    /// CRC-32 of the split's clip file bytes.
    pub clips_crc: u32,
    /// CRC-32 of the split's boolean label file bytes.
    pub labels_crc: u32,
    /// CRC-32 of the split's corner-label file bytes, when the suite has a
    /// corner schema.
    pub corners_crc: Option<u32>,
}

/// One pattern family's entry in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyEntry {
    /// Family name ([`crate::patterns::PatternKind::name`]).
    pub family: String,
    /// Total draws from the family's stream.
    pub drawn: usize,
    /// Kept hotspot clips.
    pub kept_hs: usize,
    /// Kept non-hotspot clips.
    pub kept_nhs: usize,
    /// CRC-32 over the kept clips' content CRCs in draw order.
    pub crc: u32,
}

/// A parsed or freshly computed suite manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Suite name.
    pub name: String,
    /// Suite recipe version ([`crate::suite::SUITE_VERSION`] at build time).
    pub suite_version: u32,
    /// Master seed the suite regenerates from.
    pub seed: u64,
    /// Corner-grid schema string, or `None` for plain boolean labels.
    pub corner_schema: Option<String>,
    /// Split entries (train first).
    pub splits: Vec<SplitEntry>,
    /// Per-family entries, in mix order.
    pub families: Vec<FamilyEntry>,
    /// Augmented variants appended to the training split.
    pub augmented: usize,
    /// CRC-32 over the rendered manifest body (all lines above the
    /// `total-crc` record).
    pub total_crc: u32,
}

/// Manifest parse failures, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// A line was malformed or a required record missing.
    Malformed {
        /// 1-based line number (0 = whole document).
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// The document's `total-crc` does not match its body.
    TotalCrcMismatch {
        /// CRC recorded in the document.
        recorded: u32,
        /// CRC of the body as parsed.
        computed: u32,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Malformed { line, reason } => {
                write!(f, "manifest line {line}: {reason}")
            }
            ManifestError::TotalCrcMismatch { recorded, computed } => write!(
                f,
                "manifest total-crc 0x{recorded:08x} does not match body crc 0x{computed:08x}"
            ),
        }
    }
}

impl Error for ManifestError {}

impl Manifest {
    /// Computes the manifest of a generated benchmark.
    pub fn from_data(data: &BenchmarkData) -> Manifest {
        let splits = [("train", &data.train), ("test", &data.test)]
            .into_iter()
            .map(|(name, split)| SplitEntry {
                split: name.to_string(),
                count: split.len(),
                hotspots: split.hotspot_count(),
                clips_crc: split_clips_crc(split),
                labels_crc: split_labels_crc(split),
                corners_crc: split_corners_crc(split),
            })
            .collect();
        let families = data
            .families
            .iter()
            .map(|f| FamilyEntry {
                family: f.kind.name().to_string(),
                drawn: f.drawn,
                kept_hs: f.kept_hs,
                kept_nhs: f.kept_nhs,
                crc: f.crc,
            })
            .collect();
        let mut m = Manifest {
            name: data.spec.name.clone(),
            suite_version: data.spec.version,
            seed: data.spec.seed,
            corner_schema: data.spec.corner_grid.as_ref().map(|g| g.schema()),
            splits,
            families,
            augmented: data.augmented,
            total_crc: 0,
        };
        m.total_crc = crc32(m.render_body().as_bytes());
        m
    }

    fn render_body(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("hotspot-suite-manifest v{MANIFEST_FORMAT}\n"));
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("suite-version {}\n", self.suite_version));
        out.push_str(&format!("seed {}\n", self.seed));
        match &self.corner_schema {
            Some(schema) => out.push_str(&format!("corner-schema {schema}\n")),
            None => out.push_str("corner-schema none\n"),
        }
        for s in &self.splits {
            out.push_str(&format!(
                "split {} count {} hotspots {} clips-crc {:08x} labels-crc {:08x}",
                s.split, s.count, s.hotspots, s.clips_crc, s.labels_crc
            ));
            if let Some(c) = s.corners_crc {
                out.push_str(&format!(" corners-crc {c:08x}"));
            }
            out.push('\n');
        }
        for f in &self.families {
            out.push_str(&format!(
                "family {} drawn {} kept-hs {} kept-nhs {} crc {:08x}\n",
                f.family, f.drawn, f.kept_hs, f.kept_nhs, f.crc
            ));
        }
        out.push_str(&format!("augmented {}\n", self.augmented));
        out
    }

    /// Renders the manifest as its canonical text document.
    pub fn render(&self) -> String {
        let mut out = self.render_body();
        out.push_str(&format!("total-crc {:08x}\n", self.total_crc));
        out.push_str("end\n");
        out
    }

    /// Parses a manifest document, verifying the `total-crc` record
    /// against the body.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Malformed`] with a 1-based line number on any
    /// structural problem; [`ManifestError::TotalCrcMismatch`] when the
    /// document was edited or truncated.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let bad = |line: usize, reason: &str| ManifestError::Malformed {
            line,
            reason: reason.to_string(),
        };
        let mut name = None;
        let mut suite_version = None;
        let mut seed = None;
        let mut corner_schema: Option<Option<String>> = None;
        let mut splits = Vec::new();
        let mut families = Vec::new();
        let mut augmented = None;
        let mut total_crc = None;
        let mut body = String::new();
        let mut saw_end = false;

        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            if saw_end {
                return Err(bad(lineno, "content after 'end'"));
            }
            let mut fields = line.split_whitespace();
            let key = fields.next().ok_or_else(|| bad(lineno, "empty line"))?;
            let is_tail = matches!(key, "total-crc" | "end");
            if !is_tail {
                body.push_str(line);
                body.push('\n');
            }
            match key {
                "hotspot-suite-manifest" => {
                    let v = fields
                        .next()
                        .ok_or_else(|| bad(lineno, "missing format version"))?;
                    if lineno != 1 {
                        return Err(bad(lineno, "header must be the first line"));
                    }
                    if v != format!("v{MANIFEST_FORMAT}") {
                        return Err(bad(lineno, &format!("unsupported format '{v}'")));
                    }
                }
                "name" => {
                    name = Some(
                        fields
                            .next()
                            .ok_or_else(|| bad(lineno, "missing name"))?
                            .to_string(),
                    );
                }
                "suite-version" => {
                    suite_version = Some(parse_field(&mut fields, lineno, "suite-version")?);
                }
                "seed" => {
                    seed = Some(parse_field(&mut fields, lineno, "seed")?);
                }
                "corner-schema" => {
                    let v = fields
                        .next()
                        .ok_or_else(|| bad(lineno, "missing corner schema"))?;
                    corner_schema = Some(if v == "none" {
                        None
                    } else {
                        Some(v.to_string())
                    });
                }
                "split" => {
                    let split = fields
                        .next()
                        .ok_or_else(|| bad(lineno, "missing split name"))?
                        .to_string();
                    let count = parse_kv(&mut fields, "count", lineno)?;
                    let hotspots = parse_kv(&mut fields, "hotspots", lineno)?;
                    let clips_crc = parse_kv_hex(&mut fields, "clips-crc", lineno)?;
                    let labels_crc = parse_kv_hex(&mut fields, "labels-crc", lineno)?;
                    let corners_crc = match fields.next() {
                        None => None,
                        Some("corners-crc") => Some(parse_hex(
                            fields
                                .next()
                                .ok_or_else(|| bad(lineno, "missing corners-crc value"))?,
                            lineno,
                        )?),
                        Some(other) => {
                            return Err(bad(lineno, &format!("unexpected field '{other}'")))
                        }
                    };
                    splits.push(SplitEntry {
                        split,
                        count,
                        hotspots,
                        clips_crc,
                        labels_crc,
                        corners_crc,
                    });
                }
                "family" => {
                    let family = fields
                        .next()
                        .ok_or_else(|| bad(lineno, "missing family name"))?
                        .to_string();
                    families.push(FamilyEntry {
                        family,
                        drawn: parse_kv(&mut fields, "drawn", lineno)?,
                        kept_hs: parse_kv(&mut fields, "kept-hs", lineno)?,
                        kept_nhs: parse_kv(&mut fields, "kept-nhs", lineno)?,
                        crc: parse_kv_hex(&mut fields, "crc", lineno)?,
                    });
                }
                "augmented" => {
                    augmented = Some(parse_field(&mut fields, lineno, "augmented")?);
                }
                "total-crc" => {
                    total_crc = Some(parse_hex(
                        fields
                            .next()
                            .ok_or_else(|| bad(lineno, "missing total-crc value"))?,
                        lineno,
                    )?);
                }
                "end" => saw_end = true,
                other => return Err(bad(lineno, &format!("unknown record '{other}'"))),
            }
        }
        if !saw_end {
            return Err(bad(0, "missing 'end' record"));
        }
        let recorded = total_crc.ok_or_else(|| bad(0, "missing 'total-crc' record"))?;
        let computed = crc32(body.as_bytes());
        if recorded != computed {
            return Err(ManifestError::TotalCrcMismatch { recorded, computed });
        }
        Ok(Manifest {
            name: name.ok_or_else(|| bad(0, "missing 'name' record"))?,
            suite_version: suite_version.ok_or_else(|| bad(0, "missing 'suite-version' record"))?,
            seed: seed.ok_or_else(|| bad(0, "missing 'seed' record"))?,
            corner_schema: corner_schema.ok_or_else(|| bad(0, "missing 'corner-schema' record"))?,
            splits,
            families,
            augmented: augmented.ok_or_else(|| bad(0, "missing 'augmented' record"))?,
            total_crc: recorded,
        })
    }
}

/// The next field as an integer of type `T`; a value out of `T`'s range
/// is malformed, never truncated.
fn parse_field<'a, T: FromStr>(
    fields: &mut impl Iterator<Item = &'a str>,
    lineno: usize,
    what: &str,
) -> Result<T, ManifestError> {
    fields
        .next()
        .ok_or_else(|| ManifestError::Malformed {
            line: lineno,
            reason: format!("missing {what} value"),
        })?
        .parse()
        .map_err(|_| ManifestError::Malformed {
            line: lineno,
            reason: format!("{what} is not an integer in range"),
        })
}

fn parse_kv<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    key: &str,
    lineno: usize,
) -> Result<usize, ManifestError> {
    expect_key(fields, key, lineno)?;
    parse_field(fields, lineno, key)
}

fn parse_kv_hex<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    key: &str,
    lineno: usize,
) -> Result<u32, ManifestError> {
    expect_key(fields, key, lineno)?;
    let v = fields.next().ok_or_else(|| ManifestError::Malformed {
        line: lineno,
        reason: format!("missing {key} value"),
    })?;
    parse_hex(v, lineno)
}

fn expect_key<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    key: &str,
    lineno: usize,
) -> Result<(), ManifestError> {
    match fields.next() {
        Some(k) if k == key => Ok(()),
        other => Err(ManifestError::Malformed {
            line: lineno,
            reason: format!("expected '{key}', found {other:?}"),
        }),
    }
}

fn parse_hex(v: &str, lineno: usize) -> Result<u32, ManifestError> {
    u32::from_str_radix(v, 16).map_err(|_| ManifestError::Malformed {
        line: lineno,
        reason: format!("'{v}' is not a hex crc"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::SuiteSpec;
    use hotspot_litho::{LithoConfig, LithoSimulator};

    fn golden_data() -> BenchmarkData {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        SuiteSpec::golden_mini().build(&sim)
    }

    #[test]
    fn manifest_round_trips_through_text() {
        let m = Manifest::from_data(&golden_data());
        let text = m.render();
        let back = Manifest::parse(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_is_deterministic() {
        let a = Manifest::from_data(&golden_data());
        let b = Manifest::from_data(&golden_data());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn corner_suite_manifest_has_corner_records() {
        let m = Manifest::from_data(&golden_data());
        assert!(m.corner_schema.is_some());
        for s in &m.splits {
            assert!(
                s.corners_crc.is_some(),
                "{} split lacks corners-crc",
                s.split
            );
        }
        assert_eq!(m.splits[0].split, "train");
        assert!(m.augmented > 0, "golden suite should augment");
    }

    #[test]
    fn tampered_manifest_fails_crc() {
        let m = Manifest::from_data(&golden_data());
        // Changing any body byte (here the seed digits) breaks total-crc.
        let tampered = m.render().replacen("seed", "seed 9", 1);
        assert!(matches!(
            Manifest::parse(&tampered),
            Err(ManifestError::TotalCrcMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_suite_version_is_malformed() {
        let m = Manifest::from_data(&golden_data());
        let body = m.render_body();
        let line = format!("suite-version {}\n", m.suite_version);
        for v in ["4294967297", "4294967296", "-1"] {
            // A consistent document: the total-crc covers the bad value.
            let body = body.replacen(&line, &format!("suite-version {v}\n"), 1);
            let text = format!("{body}total-crc {:08x}\nend\n", crc32(body.as_bytes()));
            match Manifest::parse(&text) {
                Err(ManifestError::Malformed { line: 3, reason }) => {
                    assert!(reason.contains("suite-version"), "{reason}")
                }
                other => panic!("suite-version {v} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Manifest::parse("hotspot-suite-manifest v1\nbogus record\nend\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = Manifest::parse("hotspot-suite-manifest v9\nend\n").unwrap_err();
        assert!(err.to_string().contains("unsupported format"), "{err}");
    }

    #[test]
    fn plain_suite_manifest_has_no_corner_records() {
        let sim = LithoSimulator::new(LithoConfig::default()).unwrap();
        let data = SuiteSpec::iccad(0.001).build(&sim);
        let m = Manifest::from_data(&data);
        assert_eq!(m.corner_schema, None);
        assert!(m.splits.iter().all(|s| s.corners_crc.is_none()));
        assert_eq!(m.augmented, 0);
        let text = m.render();
        assert_eq!(Manifest::parse(&text).unwrap(), m);
    }
}
