//! Property-based tests for the benchmark-generation substrate.

use hotspot_datagen::manifest::{clip_crc, FamilyEntry, Manifest, SplitEntry};
use hotspot_datagen::suite::SuiteSpec;
use hotspot_datagen::{
    patterns, read_corner_labels, write_corner_labels, AugmentConfig, Dataset, PatternKind, Sample,
    Symmetry,
};
use hotspot_geometry::{Clip, Rect};
use hotspot_litho::{CornerLabels, LithoConfig, LithoSimulator};
use hotspot_nn::serialize::crc32;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use rand::SeedableRng;
use std::collections::HashSet;

fn arb_kind() -> impl Strategy<Value = PatternKind> {
    proptest::sample::select(PatternKind::ALL.to_vec())
}

/// A deliberately tiny suite so litho-labelled proptest cases stay cheap.
fn tiny_spec(seed: u64, augment: bool) -> SuiteSpec {
    let mut spec = SuiteSpec::golden_mini();
    spec.name = "TinyProp".into();
    spec.train_hs = 2;
    spec.train_nhs = 3;
    spec.test_hs = 2;
    spec.test_nhs = 3;
    spec.seed = seed;
    spec.corner_grid = None;
    spec.augment = augment.then(|| AugmentConfig {
        symmetries: vec![Symmetry::R90, Symmetry::MirrorY],
        perturbs: 1,
        eps_nm: 20,
        seed: seed ^ 0xA46,
    });
    spec
}

fn oracle() -> LithoSimulator {
    LithoSimulator::new(LithoConfig::default()).expect("default litho config")
}

fn all_crcs(data: &hotspot_datagen::BenchmarkData) -> Vec<u32> {
    data.train
        .iter()
        .chain(data.test.iter())
        .map(|s| clip_crc(&s.clip))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_pattern_is_valid_layout(kind in arb_kind(), seed in 0u64..10_000) {
        let clip = patterns::sample_pattern(
            kind, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert!(!clip.is_blank());
        let window = clip.window();
        prop_assert_eq!(window.width(), patterns::CLIP_SIDE_NM);
        prop_assert_eq!(window.height(), patterns::CLIP_SIDE_NM);
        for shape in clip.shapes() {
            prop_assert!(window.contains_rect(shape), "shape escapes window");
            prop_assert!(shape.width() > 0 && shape.height() > 0);
            // Grid-snapped to the 10 nm raster.
            prop_assert_eq!(shape.lo().x % 10, 0);
            prop_assert_eq!(shape.hi().y % 10, 0);
        }
    }

    #[test]
    fn pattern_generation_is_seed_deterministic(kind in arb_kind(), seed in 0u64..10_000) {
        let a = patterns::sample_pattern(kind, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let b = patterns::sample_pattern(kind, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn mix_sampling_never_panics(
        weights in proptest::collection::vec(0.01f64..5.0, 1..7),
        seed in 0u64..1_000,
    ) {
        let mix: Vec<(PatternKind, f64)> = PatternKind::ALL
            .iter()
            .copied()
            .zip(weights.iter().copied())
            .collect();
        let clip = patterns::sample_from_mix(
            &mix, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert!(!clip.is_blank());
    }

    #[test]
    fn dataset_counts_are_consistent(hs in 0usize..20, nhs in 0usize..20) {
        let window = Rect::new(0, 0, 100, 100).expect("window");
        let mut data = Dataset::new();
        for _ in 0..hs {
            data.push(Sample::new(Clip::new(window), true));
        }
        for _ in 0..nhs {
            data.push(Sample::new(Clip::new(window), false));
        }
        prop_assert_eq!(data.hotspot_count(), hs);
        prop_assert_eq!(data.non_hotspot_count(), nhs);
        prop_assert_eq!(data.len(), hs + nhs);
        if hs + nhs > 0 {
            let r = data.hotspot_ratio();
            prop_assert!((r - hs as f64 / (hs + nhs) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn split_tail_preserves_all_samples(
        n in 4usize..60,
        frac in 0.1f64..0.9,
        seed in 0u64..100,
    ) {
        let window = Rect::new(0, 0, 100, 100).expect("window");
        let mut data = Dataset::new();
        for i in 0..n {
            data.push(Sample::new(Clip::new(window), i % 3 == 0));
        }
        data.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let total_hs = data.hotspot_count();
        let (head, tail) = data.split_tail(frac);
        prop_assert_eq!(head.len() + tail.len(), n);
        prop_assert_eq!(head.hotspot_count() + tail.hotspot_count(), total_hs);
        prop_assert!(!tail.is_empty());
    }

    #[test]
    fn corner_labelled_splits_are_deterministic(
        n in 6usize..24,
        frac in 0.2f64..0.5,
        seed in 0u64..50,
    ) {
        // Stratified train/holdout splitting of a corner-labelled dataset
        // must be a pure function of the shuffle seed, per corner schema.
        let window = Rect::new(0, 0, 100, 100).expect("window");
        let build = || -> Dataset {
            (0..n)
                .map(|i| Sample::with_corners(
                    Clip::new(window),
                    hotspot_litho::CornerLabels {
                        fails: vec![i % 3 == 0, i % 4 == 0, false],
                        severity: if i % 3 == 0 || i % 4 == 0 { 1 } else { -2 },
                    },
                ))
                .collect()
        };
        let mut a = build();
        let mut b = build();
        a.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        b.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let (a_head, a_tail) = a.split_tail(frac);
        let (b_head, b_tail) = b.split_tail(frac);
        prop_assert_eq!(&a_head, &b_head);
        prop_assert_eq!(&a_tail, &b_tail);
        prop_assert_eq!(a_head.corner_schema(), Some(3));
        prop_assert_eq!(a_tail.corner_schema(), Some(3));
    }
}

// Litho-labelled suite builds are expensive (a full aerial simulation per
// draw), so the suite-level determinism properties run few cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same spec + seed ⇒ identical manifest (hence identical clip bytes,
    /// label bytes and per-family content CRCs).
    #[test]
    fn same_spec_regenerates_identical_manifest(seed in 0u64..1_000) {
        let sim = oracle();
        let spec = tiny_spec(seed, true);
        let a = spec.build(&sim);
        let b = spec.build(&sim);
        prop_assert_eq!(Manifest::from_data(&a).render(), Manifest::from_data(&b).render());
        prop_assert_eq!(all_crcs(&a), all_crcs(&b));
    }

    /// Different seeds ⇒ disjoint per-family RNG streams: no generated
    /// clip is shared between the two builds.
    #[test]
    fn different_seeds_draw_disjoint_clips(seed in 0u64..1_000) {
        let sim = oracle();
        let a = tiny_spec(seed, false).build(&sim);
        let b = tiny_spec(seed.wrapping_add(1), false).build(&sim);
        let crcs_a: HashSet<u32> = all_crcs(&a).into_iter().collect();
        for crc in all_crcs(&b) {
            prop_assert!(!crcs_a.contains(&crc), "seeds {seed}/{} share a clip", seed + 1);
        }
    }

    /// Augmented training clips never duplicate a base clip of either
    /// split (CRC-deduplicated during the build).
    #[test]
    fn augmented_clips_never_duplicate_base_crcs(seed in 0u64..1_000) {
        let sim = oracle();
        let spec = tiny_spec(seed, true);
        let mut base_spec = spec.clone();
        base_spec.augment = None;
        let with_aug = spec.build(&sim);
        let base = base_spec.build(&sim);
        let base_crcs: HashSet<u32> = all_crcs(&base).into_iter().collect();
        let base_train_crcs: HashSet<u32> =
            base.train.iter().map(|s| clip_crc(&s.clip)).collect();
        let mut extras = 0usize;
        for s in with_aug.train.iter() {
            let crc = clip_crc(&s.clip);
            if !base_train_crcs.contains(&crc) {
                extras += 1;
                prop_assert!(!base_crcs.contains(&crc), "augmented clip duplicates a base clip");
            }
        }
        prop_assert_eq!(extras, with_aug.augmented);
    }
}

/// A whitespace-free token, as manifest names must be. The alphabet cannot
/// spell `none` or `total-crc`.
fn arb_token() -> impl Strategy<Value = String> {
    vec(select("abcxyz019_-.[],".chars().collect()), 1..12).prop_map(|cs| cs.into_iter().collect())
}

fn arb_split() -> impl Strategy<Value = SplitEntry> {
    (
        arb_token(),
        0usize..=usize::MAX,
        0usize..=usize::MAX,
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        (proptest::bool::ANY, 0u32..=u32::MAX),
    )
        .prop_map(
            |(split, count, hotspots, clips_crc, labels_crc, (has_corners, corners))| SplitEntry {
                split,
                count,
                hotspots,
                clips_crc,
                labels_crc,
                corners_crc: has_corners.then_some(corners),
            },
        )
}

fn arb_family() -> impl Strategy<Value = FamilyEntry> {
    (
        arb_token(),
        0usize..=usize::MAX,
        0usize..=usize::MAX,
        0usize..=usize::MAX,
        0u32..=u32::MAX,
    )
        .prop_map(|(family, drawn, kept_hs, kept_nhs, crc)| FamilyEntry {
            family,
            drawn,
            kept_hs,
            kept_nhs,
            crc,
        })
}

/// Any manifest the format can carry, with its `total-crc` over the
/// rendered body.
fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (
        arb_token(),
        0u32..=u32::MAX,
        0u64..=u64::MAX,
        (proptest::bool::ANY, arb_token()),
        (vec(arb_split(), 0..4), vec(arb_family(), 0..6)),
        0usize..=usize::MAX,
    )
        .prop_map(
            |(name, suite_version, seed, (has_schema, schema), (splits, families), augmented)| {
                let mut m = Manifest {
                    name,
                    suite_version,
                    seed,
                    corner_schema: has_schema.then_some(schema),
                    splits,
                    families,
                    augmented,
                    total_crc: 0,
                };
                let text = m.render();
                let body = &text[..text.rfind("total-crc ").expect("rendered tail")];
                m.total_crc = crc32(body.as_bytes());
                m
            },
        )
}

/// Lines of manifest keywords, numbers at and past the integer limits, and
/// stray tokens.
fn arb_manifest_text() -> impl Strategy<Value = String> {
    let words = vec![
        "hotspot-suite-manifest",
        "v1",
        "v2",
        "name",
        "suite-version",
        "seed",
        "corner-schema",
        "none",
        "split",
        "count",
        "hotspots",
        "clips-crc",
        "labels-crc",
        "corners-crc",
        "family",
        "drawn",
        "kept-hs",
        "kept-nhs",
        "crc",
        "augmented",
        "total-crc",
        "end",
        "0",
        "-1",
        "4294967297",
        "18446744073709551616",
        "ffffffff",
        "1ffffffff",
        "zz",
        "",
        "\t",
        "\u{e9}",
    ];
    vec(vec(select(words), 0..8), 0..14).prop_map(|lines| {
        let lines: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
        lines.join("\n")
    })
}

/// `text` with byte `at` (modulo its length) replaced by `byte`, read back
/// lossily as UTF-8.
fn mutate(text: &str, at: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if !bytes.is_empty() {
        let i = at % bytes.len();
        bytes[i] = byte;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn arb_corner_labels() -> impl Strategy<Value = Vec<CornerLabels>> {
    vec(
        (i64::MIN..=i64::MAX, vec(proptest::bool::ANY, 1..12)),
        0..20,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(severity, fails)| CornerLabels { fails, severity })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn manifests_round_trip_through_text(m in arb_manifest()) {
        prop_assert_eq!(Manifest::parse(&m.render()), Ok(m));
    }

    #[test]
    fn manifest_parsing_never_panics(
        text in arb_manifest_text(),
        m in arb_manifest(),
        (at, byte) in (0usize..=usize::MAX, 0u8..=255),
    ) {
        let _ = Manifest::parse(&text);
        let _ = Manifest::parse(&mutate(&m.render(), at, byte));
    }

    #[test]
    fn corner_labels_round_trip(labels in arb_corner_labels()) {
        let mut bytes = Vec::new();
        write_corner_labels(&mut bytes, &labels).expect("writes to a Vec");
        prop_assert_eq!(read_corner_labels(&bytes[..]).expect("reads back"), labels);
    }

    #[test]
    fn corner_label_parsing_never_panics(
        lines in vec(vec(select(vec![
            "-3", "01001", "1", "0", "", " ", "\t", "x", "012", "9223372036854775808",
            "-9223372036854775809", "\u{e9}",
        ]), 0..4), 0..10),
        labels in arb_corner_labels(),
        (at, byte) in (0usize..=usize::MAX, 0u8..=255),
    ) {
        let text: Vec<String> = lines.iter().map(|l| l.join(" ")).collect();
        let _ = read_corner_labels(text.join("\n").as_bytes());
        let mut bytes = Vec::new();
        write_corner_labels(&mut bytes, &labels).expect("writes to a Vec");
        if !bytes.is_empty() {
            let i = at % bytes.len();
            bytes[i] = byte;
        }
        // Raw bytes: invalid UTF-8 must be an error, not a panic.
        let _ = read_corner_labels(&bytes[..]);
    }
}
