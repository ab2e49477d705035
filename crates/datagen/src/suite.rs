//! Benchmark-suite builders with paper-matched class ratios.
//!
//! Every suite is a pure function of its [`SuiteSpec`]: the same spec and
//! seed always regenerate byte-identical clips, labels and manifest CRCs.
//! Determinism is structured per family — each archetype in the mix draws
//! from its own seeded RNG stream (derived from the master seed and the
//! family's fixed index), while a separate chooser stream picks which
//! family produces the next clip. Adding a family to a mix therefore never
//! perturbs the clips another family generates.

use crate::augment::{self, AugmentConfig, Symmetry};
use crate::dataset::{Dataset, Sample};
use crate::manifest::clip_crc;
use crate::patterns::{self, PatternKind};
use hotspot_litho::{CornerGrid, LithoSimulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Current suite-generation recipe version, embedded in specs and
/// manifests. Bump whenever the generation algorithm changes so persisted
/// manifests detect stale regeneration recipes.
pub const SUITE_VERSION: u32 = 2;

/// Splitmix64-style stream derivation: statistically independent seeds for
/// the chooser, each family and the shuffle from one master seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-family RNG stream id: tied to the family's position in
/// [`PatternKind::ALL`] (stable across mixes), not its position in a mix.
fn family_stream(kind: PatternKind) -> u64 {
    1 + PatternKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every PatternKind appears in ALL") as u64
}

/// A suite scale outside (0, 1]: zero, negative, `NaN`, or above the
/// paper's full benchmark size (infinity included).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleError(pub f64);

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scale must be in (0, 1], got '{}'", self.0)
    }
}

impl std::error::Error for ScaleError {}

const CHOOSER_STREAM: u64 = 0;
const SHUFFLE_STREAM: u64 = u64::MAX;

/// Target composition of one benchmark (Table 2's left columns) plus the
/// pattern mix it is generated from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteSpec {
    /// Benchmark name as printed in tables.
    pub name: String,
    /// Hotspot count in the training set.
    pub train_hs: usize,
    /// Non-hotspot count in the training set.
    pub train_nhs: usize,
    /// Hotspot count in the testing set.
    pub test_hs: usize,
    /// Non-hotspot count in the testing set.
    pub test_nhs: usize,
    /// Weighted archetype mix the clips are drawn from.
    pub mix: Vec<(PatternKind, f64)>,
    /// Master RNG seed; the full benchmark is a pure function of the spec.
    pub seed: u64,
    /// Generation-recipe version ([`SUITE_VERSION`] for specs built by this
    /// crate).
    pub version: u32,
    /// Optional dose×defocus process-corner grid: when set, every sample
    /// carries per-corner labels ([`Sample::corners`]) and the hotspot
    /// label means "fails at any grid corner".
    pub corner_grid: Option<CornerGrid>,
    /// Optional oracle-checked augmentation; variants are appended to the
    /// *training* split (never the test split), after CRC-deduplication
    /// against every base clip.
    pub augment: Option<AugmentConfig>,
}

impl SuiteSpec {
    /// Checks a scale for the scaled constructors ([`SuiteSpec::iccad`]
    /// and the rest): it must lie in (0, 1], 1 being the paper's full
    /// benchmark size. The constructors panic on any other scale, so a
    /// caller with a scale from its user checks it here first.
    pub fn check_scale(scale: f64) -> Result<f64, ScaleError> {
        if scale > 0.0 && scale <= 1.0 {
            Ok(scale)
        } else {
            Err(ScaleError(scale))
        }
    }

    /// The merged ICCAD-2012 benchmark (paper: 1204/17096 train,
    /// 2524/13503 test), scaled by `scale` with a floor of 8 samples per
    /// bucket. Mostly regular line/space patterns — the "easy" benchmark.
    pub fn iccad(scale: f64) -> SuiteSpec {
        SuiteSpec {
            name: "ICCAD".into(),
            train_hs: scaled(1204, scale),
            train_nhs: scaled(17096, scale),
            test_hs: scaled(2524, scale),
            test_nhs: scaled(13503, scale),
            mix: vec![
                (PatternKind::LineArray, 3.0),
                (PatternKind::LineTips, 2.0),
                (PatternKind::TipToTip, 1.0),
                (PatternKind::Isolated, 2.0),
                (PatternKind::RandomRouting, 2.0),
            ],
            seed: 0x1CCAD2012,
            version: SUITE_VERSION,
            corner_grid: None,
            augment: None,
        }
    }

    /// Industry1 (paper: 34281/15635 train, 17157/7801 test): a
    /// hotspot-majority benchmark of aggressive tip and contact geometry.
    pub fn industry1(scale: f64) -> SuiteSpec {
        SuiteSpec {
            name: "Industry1".into(),
            train_hs: scaled(34281, scale),
            train_nhs: scaled(15635, scale),
            test_hs: scaled(17157, scale),
            test_nhs: scaled(7801, scale),
            mix: vec![
                (PatternKind::LineTips, 3.0),
                (PatternKind::TipToTip, 2.0),
                (PatternKind::ContactArray, 3.0),
                (PatternKind::LineArray, 1.0),
                (PatternKind::Isolated, 1.0),
            ],
            seed: 0x1D_0001,
            version: SUITE_VERSION,
            corner_grid: None,
            augment: None,
        }
    }

    /// Industry2 (paper: 15197/48758 train, 7520/24457 test): diverse
    /// routing-dominated patterns.
    pub fn industry2(scale: f64) -> SuiteSpec {
        SuiteSpec {
            name: "Industry2".into(),
            train_hs: scaled(15197, scale),
            train_nhs: scaled(48758, scale),
            test_hs: scaled(7520, scale),
            test_nhs: scaled(24457, scale),
            mix: vec![
                (PatternKind::RandomRouting, 3.0),
                (PatternKind::Jogs, 2.0),
                (PatternKind::LineArray, 2.0),
                (PatternKind::LineTips, 1.0),
                (PatternKind::Isolated, 2.0),
            ],
            seed: 0x1D_0002,
            version: SUITE_VERSION,
            corner_grid: None,
            augment: None,
        }
    }

    /// Industry3 (paper: 24776/49315 train, 12228/24817 test): the largest
    /// and most heterogeneous benchmark — every archetype contributes.
    pub fn industry3(scale: f64) -> SuiteSpec {
        SuiteSpec {
            name: "Industry3".into(),
            train_hs: scaled(24776, scale),
            train_nhs: scaled(49315, scale),
            test_hs: scaled(12228, scale),
            test_nhs: scaled(24817, scale),
            mix: PatternKind::ALL.iter().map(|&k| (k, 1.0)).collect(),
            seed: 0x1D_0003,
            version: SUITE_VERSION,
            corner_grid: None,
            augment: None,
        }
    }

    /// Topology benchmark: the four junction/via/meander families mixed
    /// with a line-array baseline, labelled over a 3-dose × 2-defocus
    /// process-corner grid, with oracle-checked augmentation on the
    /// training split.
    pub fn topo(scale: f64) -> SuiteSpec {
        SuiteSpec {
            name: "Topo".into(),
            train_hs: scaled(900, scale),
            train_nhs: scaled(2100, scale),
            test_hs: scaled(450, scale),
            test_nhs: scaled(1050, scale),
            mix: vec![
                (PatternKind::TJunctions, 2.0),
                (PatternKind::Serpentine, 2.0),
                (PatternKind::DenseVias, 1.0),
                (PatternKind::Redistribution, 1.0),
                (PatternKind::LineArray, 1.0),
            ],
            seed: 0x70_0001,
            version: SUITE_VERSION,
            corner_grid: Some(CornerGrid::new(0.05, 60.0, 3, 2).expect("valid topo grid")),
            augment: Some(AugmentConfig {
                symmetries: vec![Symmetry::R90, Symmetry::R180, Symmetry::MirrorX],
                perturbs: 1,
                eps_nm: 10,
                seed: 0x70_0A16,
            }),
        }
    }

    /// Via-dominated benchmark: staggered dense via arrays plus regular
    /// contact arrays (corner-to-corner bridging and necking modes).
    pub fn vias(scale: f64) -> SuiteSpec {
        SuiteSpec {
            name: "Vias".into(),
            train_hs: scaled(700, scale),
            train_nhs: scaled(1700, scale),
            test_hs: scaled(350, scale),
            test_nhs: scaled(850, scale),
            mix: vec![
                (PatternKind::DenseVias, 3.0),
                (PatternKind::ContactArray, 2.0),
                (PatternKind::Isolated, 1.0),
            ],
            seed: 0x71A5,
            version: SUITE_VERSION,
            corner_grid: None,
            augment: None,
        }
    }

    /// Redistribution-layer benchmark: wide+narrow mixes, T-junction rails
    /// and serpentine test structures, with augmentation.
    pub fn rdl(scale: f64) -> SuiteSpec {
        SuiteSpec {
            name: "RDL".into(),
            train_hs: scaled(600, scale),
            train_nhs: scaled(1400, scale),
            test_hs: scaled(300, scale),
            test_nhs: scaled(700, scale),
            mix: vec![
                (PatternKind::Redistribution, 3.0),
                (PatternKind::TJunctions, 2.0),
                (PatternKind::Serpentine, 2.0),
                (PatternKind::Isolated, 1.0),
            ],
            seed: 0x7D1,
            version: SUITE_VERSION,
            corner_grid: None,
            augment: Some(AugmentConfig {
                symmetries: vec![Symmetry::R180, Symmetry::MirrorY],
                perturbs: 1,
                eps_nm: 10,
                seed: 0x7D1_0A16,
            }),
        }
    }

    /// A fixed miniature suite pinned by the golden-manifest regression
    /// test: small enough to regenerate in CI, exercising the new
    /// families, the corner grid and augmentation. Never rescaled — its
    /// manifest is committed under `tests/golden/`.
    pub fn golden_mini() -> SuiteSpec {
        SuiteSpec {
            name: "GoldenMini".into(),
            train_hs: 4,
            train_nhs: 6,
            test_hs: 2,
            test_nhs: 4,
            mix: vec![
                (PatternKind::LineArray, 1.0),
                (PatternKind::TJunctions, 1.0),
                (PatternKind::DenseVias, 1.0),
                (PatternKind::Serpentine, 1.0),
            ],
            seed: 0x601D_0001,
            version: SUITE_VERSION,
            corner_grid: Some(CornerGrid::new(0.05, 60.0, 3, 2).expect("valid golden grid")),
            augment: Some(AugmentConfig {
                symmetries: vec![Symmetry::R90, Symmetry::MirrorX],
                perturbs: 1,
                eps_nm: 10,
                seed: 7,
            }),
        }
    }

    /// All four benchmarks of Table 2 at the given scale.
    pub fn table2_suites(scale: f64) -> Vec<SuiteSpec> {
        vec![
            SuiteSpec::iccad(scale),
            SuiteSpec::industry1(scale),
            SuiteSpec::industry2(scale),
            SuiteSpec::industry3(scale),
        ]
    }

    /// Every loadable suite name, in registry order.
    pub const REGISTRY: [&'static str; 8] = [
        "iccad",
        "industry1",
        "industry2",
        "industry3",
        "topo",
        "vias",
        "rdl",
        "golden-mini",
    ];

    /// Looks a suite up by registry name at the given scale.
    /// `"golden-mini"` ignores the scale — it is pinned by the golden
    /// regression manifest.
    pub fn by_name(name: &str, scale: f64) -> Option<SuiteSpec> {
        Some(match name {
            "iccad" => SuiteSpec::iccad(scale),
            "industry1" => SuiteSpec::industry1(scale),
            "industry2" => SuiteSpec::industry2(scale),
            "industry3" => SuiteSpec::industry3(scale),
            "topo" => SuiteSpec::topo(scale),
            "vias" => SuiteSpec::vias(scale),
            "rdl" => SuiteSpec::rdl(scale),
            "golden-mini" => SuiteSpec::golden_mini(),
            _ => return None,
        })
    }

    /// Total sample count across both splits.
    pub fn total(&self) -> usize {
        self.train_hs + self.train_nhs + self.test_hs + self.test_nhs
    }

    /// Generates the benchmark: draws clips from the archetype mix (each
    /// family from its own RNG stream; see module docs), labels each with
    /// the lithography oracle, and fills the four class buckets exactly.
    /// Labels are *never* forced — generation draws until the oracle has
    /// produced enough of each class.
    ///
    /// When [`SuiteSpec::corner_grid`] is set, labelling runs over the grid
    /// (the passed simulator's optics with the grid's dose/defocus corners)
    /// and every sample carries per-corner labels. When
    /// [`SuiteSpec::augment`] is set, oracle-checked variants are appended
    /// to the training split after CRC-deduplication against every base
    /// clip of both splits.
    ///
    /// # Panics
    ///
    /// Panics if the mix is so skewed that a bucket cannot be filled within
    /// `500 ×` the requested total draws (a misconfigured mix, e.g. only
    /// [`PatternKind::Isolated`] with a hotspot quota), or if the spec's
    /// corner grid cannot be combined with the simulator's optics.
    pub fn build(&self, sim: &LithoSimulator) -> BenchmarkData {
        let grid_sim = self.corner_grid.as_ref().map(|grid| {
            LithoSimulator::new(sim.config().clone().with_corner_grid(grid))
                .expect("corner grid composes with the base optics")
        });
        let label_sim = grid_sim.as_ref().unwrap_or(sim);

        let total_weight: f64 = self.mix.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(
            total_weight > 0.0,
            "suite '{}' needs a mix with positive total weight",
            self.name
        );
        let mut chooser = StdRng::seed_from_u64(derive_seed(self.seed, CHOOSER_STREAM));
        let mut streams: Vec<StdRng> = self
            .mix
            .iter()
            .map(|&(kind, _)| StdRng::seed_from_u64(derive_seed(self.seed, family_stream(kind))))
            .collect();
        let mut families: Vec<FamilyStats> = self
            .mix
            .iter()
            .map(|&(kind, _)| FamilyStats {
                kind,
                drawn: 0,
                kept_hs: 0,
                kept_nhs: 0,
                crc: 0,
            })
            .collect();
        let mut family_crc_bytes: Vec<Vec<u8>> = vec![Vec::new(); self.mix.len()];

        let mut hs_pool: Vec<Sample> = Vec::new();
        let mut nhs_pool: Vec<Sample> = Vec::new();
        let need_hs = self.train_hs + self.test_hs;
        let need_nhs = self.train_nhs + self.test_nhs;
        let max_draws = 500 * self.total().max(16);
        let mut draws = 0usize;
        while hs_pool.len() < need_hs || nhs_pool.len() < need_nhs {
            assert!(
                draws < max_draws,
                "suite '{}' could not fill class buckets after {draws} draws \
                 ({}/{} hotspots, {}/{} non-hotspots) — archetype mix too skewed",
                self.name,
                hs_pool.len(),
                need_hs,
                nhs_pool.len(),
                need_nhs
            );
            draws += 1;
            let mut t = chooser.gen_range(0.0..total_weight);
            let mut fi = self.mix.len() - 1;
            for (i, &(_, w)) in self.mix.iter().enumerate() {
                let w = w.max(0.0);
                if t < w {
                    fi = i;
                    break;
                }
                t -= w;
            }
            let clip = patterns::sample_pattern(self.mix[fi].0, &mut streams[fi]);
            families[fi].drawn += 1;
            let sample = if self.corner_grid.is_some() {
                let corners = label_sim.corner_labels(&clip);
                Sample::with_corners(clip, corners)
            } else {
                let hotspot = label_sim.label_clip(&clip);
                Sample::new(clip, hotspot)
            };
            let (pool, need) = if sample.hotspot {
                (&mut hs_pool, need_hs)
            } else {
                (&mut nhs_pool, need_nhs)
            };
            if pool.len() < need {
                if sample.hotspot {
                    families[fi].kept_hs += 1;
                } else {
                    families[fi].kept_nhs += 1;
                }
                family_crc_bytes[fi].extend_from_slice(&clip_crc(&sample.clip).to_le_bytes());
                pool.push(sample);
            }
        }
        for (stats, bytes) in families.iter_mut().zip(&family_crc_bytes) {
            stats.crc = hotspot_nn::serialize::crc32(bytes);
        }

        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for (i, s) in hs_pool.into_iter().enumerate() {
            if i < self.train_hs {
                train.push(s);
            } else {
                test.push(s);
            }
        }
        for (i, s) in nhs_pool.into_iter().enumerate() {
            if i < self.train_nhs {
                train.push(s);
            } else {
                test.push(s);
            }
        }

        let mut augmented = 0usize;
        if let Some(config) = &self.augment {
            let variants = augment::augment_resimulated(&train, label_sim, config)
                .expect("well-formed clips transform cleanly");
            let base: HashSet<u32> = train
                .iter()
                .chain(test.iter())
                .map(|s| clip_crc(&s.clip))
                .collect();
            let fresh: Dataset = variants
                .into_iter()
                .filter(|s| !base.contains(&clip_crc(&s.clip)))
                .collect();
            augmented = fresh.len();
            train
                .merge(fresh)
                .expect("augmented variants share the window and corner schema");
        }

        let mut shuffle_rng = StdRng::seed_from_u64(derive_seed(self.seed, SHUFFLE_STREAM));
        train.shuffle(&mut shuffle_rng);
        test.shuffle(&mut shuffle_rng);
        BenchmarkData {
            spec: self.clone(),
            train,
            test,
            families,
            augmented,
        }
    }
}

fn scaled(count: usize, scale: f64) -> usize {
    if let Err(e) = SuiteSpec::check_scale(scale) {
        panic!("{e}");
    }
    ((count as f64 * scale).round() as usize).max(8)
}

/// Per-family generation statistics for one suite build: how often the
/// family was drawn, how many of its clips each class bucket kept, and a
/// content CRC over the kept clips (in draw order) — the unit the manifest
/// pins per family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyStats {
    /// The pattern family.
    pub kind: PatternKind,
    /// Total draws from this family's stream (kept or discarded).
    pub drawn: usize,
    /// Kept hotspot clips.
    pub kept_hs: usize,
    /// Kept non-hotspot clips.
    pub kept_nhs: usize,
    /// CRC-32 over the kept clips' content CRCs in draw order.
    pub crc: u32,
}

impl FamilyStats {
    /// Total kept clips across both classes.
    pub fn kept(&self) -> usize {
        self.kept_hs + self.kept_nhs
    }
}

/// A generated benchmark: the spec it came from plus train/test splits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkData {
    /// The generating spec.
    pub spec: SuiteSpec,
    /// Training split: exactly `train_hs` + `train_nhs` base samples, plus
    /// `augmented` oracle-checked variants when the spec augments.
    pub train: Dataset,
    /// Testing split (exactly `test_hs` + `test_nhs` samples; never
    /// augmented).
    pub test: Dataset,
    /// Per-family generation statistics, in mix order.
    pub families: Vec<FamilyStats>,
    /// Number of augmented variants appended to the training split.
    pub augmented: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_litho::LithoConfig;

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::default()).unwrap()
    }

    fn tiny(spec_fn: fn(f64) -> SuiteSpec) -> BenchmarkData {
        spec_fn(0.001).build(&sim())
    }

    #[test]
    fn iccad_quotas_met_exactly() {
        let data = tiny(SuiteSpec::iccad);
        assert_eq!(data.train.hotspot_count(), data.spec.train_hs);
        assert_eq!(data.train.non_hotspot_count(), data.spec.train_nhs);
        assert_eq!(data.test.hotspot_count(), data.spec.test_hs);
        assert_eq!(data.test.non_hotspot_count(), data.spec.test_nhs);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = tiny(SuiteSpec::iccad);
        let b = tiny(SuiteSpec::iccad);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn suites_differ() {
        let a = tiny(SuiteSpec::industry2);
        let b = tiny(SuiteSpec::industry3);
        assert_ne!(a.train, b.train);
    }

    #[test]
    fn labels_match_oracle() {
        let s = sim();
        let data = tiny(SuiteSpec::industry3);
        for sample in data.train.iter().take(10) {
            assert_eq!(s.label_clip(&sample.clip), sample.hotspot);
        }
    }

    #[test]
    fn scales_outside_zero_to_one_are_rejected() {
        for bad in [0.0, -0.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            let err = SuiteSpec::check_scale(bad).unwrap_err();
            assert!(err.to_string().starts_with("scale must be in (0, 1]"));
        }
        for good in [1e-9, 0.02, 1.0] {
            assert_eq!(SuiteSpec::check_scale(good), Ok(good));
        }
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1], got 'inf'")]
    fn an_infinite_scale_panics_instead_of_drawing_forever() {
        SuiteSpec::vias(f64::INFINITY);
    }

    #[test]
    fn scaled_counts_floor_at_eight() {
        let spec = SuiteSpec::iccad(1e-9);
        assert_eq!(spec.train_hs, 8);
        assert_eq!(spec.total(), 32);
    }

    #[test]
    fn paper_ratios_preserved_at_scale() {
        let spec = SuiteSpec::industry2(0.1);
        let paper_ratio = 15197.0 / 48758.0;
        let ours = spec.train_hs as f64 / spec.train_nhs as f64;
        assert!((ours - paper_ratio).abs() / paper_ratio < 0.01);
    }

    #[test]
    fn registry_resolves_every_name() {
        for name in SuiteSpec::REGISTRY {
            let spec = SuiteSpec::by_name(name, 0.01)
                .unwrap_or_else(|| panic!("registry name '{name}' does not resolve"));
            assert!(!spec.mix.is_empty());
            assert_eq!(spec.version, SUITE_VERSION);
        }
        assert!(SuiteSpec::by_name("no-such-suite", 1.0).is_none());
    }

    #[test]
    fn corner_suite_carries_per_corner_labels() {
        let data = SuiteSpec::golden_mini().build(&sim());
        let corners = 3 * 2; // 3-dose × 2-defocus grid
        assert_eq!(data.train.corner_schema(), Some(corners));
        assert_eq!(data.test.corner_schema(), Some(corners));
        // Test split is never augmented: exact quotas.
        assert_eq!(data.test.len(), 6);
        assert_eq!(data.test.hotspot_count(), 2);
        // Train split holds the base quota plus the augmented variants.
        assert_eq!(data.train.len(), 10 + data.augmented);
        assert!(data.augmented > 0);
        for s in data.train.iter().chain(data.test.iter()) {
            let c = s.corners.as_ref().expect("corner-labelled sample");
            assert_eq!(s.hotspot, c.is_hotspot());
        }
    }

    #[test]
    fn family_stats_account_for_every_base_clip() {
        let data = tiny(SuiteSpec::iccad);
        let kept: usize = data.families.iter().map(FamilyStats::kept).sum();
        assert_eq!(
            kept,
            data.spec.total(),
            "family stats must cover the base clips"
        );
        let kept_hs: usize = data.families.iter().map(|f| f.kept_hs).sum();
        assert_eq!(kept_hs, data.spec.train_hs + data.spec.test_hs);
        for f in &data.families {
            assert!(f.drawn >= f.kept(), "{:?} drew fewer than it kept", f.kind);
            if f.kept() > 0 {
                assert_ne!(f.crc, 0, "{:?} kept clips but has no content crc", f.kind);
            }
        }
    }

    #[test]
    fn augmented_variants_never_duplicate_base_clips() {
        let spec = SuiteSpec::golden_mini();
        let mut base_spec = spec.clone();
        base_spec.augment = None;
        let with_aug = spec.build(&sim());
        let base = base_spec.build(&sim());
        let base_crcs: std::collections::HashSet<u32> = base
            .train
            .iter()
            .chain(base.test.iter())
            .map(|s| clip_crc(&s.clip))
            .collect();
        let base_train_crcs: std::collections::HashSet<u32> =
            base.train.iter().map(|s| clip_crc(&s.clip)).collect();
        let mut extras = 0usize;
        for s in with_aug.train.iter() {
            if !base_train_crcs.contains(&clip_crc(&s.clip)) {
                extras += 1;
                assert!(
                    !base_crcs.contains(&clip_crc(&s.clip)),
                    "augmented clip duplicates a base clip"
                );
            }
        }
        assert_eq!(extras, with_aug.augmented);
    }

    #[test]
    fn different_seeds_produce_disjoint_family_streams() {
        let mut a = SuiteSpec::golden_mini();
        let mut b = SuiteSpec::golden_mini();
        a.augment = None;
        b.augment = None;
        b.seed = a.seed.wrapping_add(1);
        let da = a.build(&sim());
        let db = b.build(&sim());
        let crcs_a: std::collections::HashSet<u32> = da
            .train
            .iter()
            .chain(da.test.iter())
            .map(|s| clip_crc(&s.clip))
            .collect();
        for s in db.train.iter().chain(db.test.iter()) {
            assert!(
                !crcs_a.contains(&clip_crc(&s.clip)),
                "seed {} and {} share a generated clip",
                a.seed,
                b.seed
            );
        }
    }

    #[test]
    fn new_family_does_not_perturb_other_streams() {
        // Per-family streams: adding a family to the mix must not change
        // the clips an existing family generates.
        let mut small = SuiteSpec::golden_mini();
        small.augment = None;
        small.corner_grid = None;
        small.mix = vec![(PatternKind::LineArray, 1.0)];
        let mut wider = small.clone();
        wider.mix = vec![(PatternKind::LineArray, 1.0), (PatternKind::DenseVias, 1.0)];
        let a = small.build(&sim());
        let b = wider.build(&sim());
        // Every LineArray clip in `b` must come from the same stream `a`
        // drew from: the first N_a draws of that stream are a prefix shared
        // by both builds, so any clip in both builds' pools is identical
        // bytes. Weak but cheap check: the two builds share at least one
        // clip CRC (impossible under per-build monolithic RNG reseeding).
        let crcs_a: std::collections::HashSet<u32> = a
            .train
            .iter()
            .chain(a.test.iter())
            .map(|s| clip_crc(&s.clip))
            .collect();
        let shared = b
            .train
            .iter()
            .chain(b.test.iter())
            .filter(|s| crcs_a.contains(&clip_crc(&s.clip)))
            .count();
        assert!(
            shared > 0,
            "adding a family rewired the existing family's stream"
        );
    }
}
