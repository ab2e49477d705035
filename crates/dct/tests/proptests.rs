//! Property-based tests for the spectral substrate.

use hotspot_dct::{
    blocks, dct1d, extract_feature_tensor, reconstruct_image, zigzag_indices, zigzag_scan,
    zigzag_unscan, BlockDctPlan, Dct2d, FeatureTensorSpec,
};
use hotspot_geometry::Grid;
use proptest::prelude::*;

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// An `n·B × n·B` image of the values feature extraction meets and its
/// edge cases: exact `0.0` (most likely, as in layout rasters), `-0.0`,
/// exact `1.0`, fractional coverage and negatives, with roughly a third of
/// the blocks all zero.
fn arb_mixed_image() -> impl Strategy<Value = (usize, usize, Grid<f32>)> {
    (1usize..=16, 1usize..=4).prop_flat_map(|(b, n)| {
        let side = n * b;
        (
            Just(b),
            Just(n),
            proptest::collection::vec((0u8..7, 0.0f32..1.0), side * side),
            proptest::collection::vec(0u8..3, n * n),
        )
            .prop_map(move |(b, n, pixels, blank)| {
                let values = pixels
                    .into_iter()
                    .enumerate()
                    .map(|(idx, (kind, frac))| {
                        let (x, y) = (idx % side, idx / side);
                        if blank[(y / b) * n + x / b] == 0 {
                            return 0.0;
                        }
                        match kind {
                            0..=2 => 0.0,
                            3 => -0.0,
                            4 => 1.0,
                            5 => frac,
                            _ => -4.0 * frac,
                        }
                    })
                    .collect();
                (b, n, Grid::from_vec(side, side, values))
            })
    })
}

/// An `n·B × n·B` image whose rows repeat: each row is blank or one of up
/// to three row patterns, drawn in runs, so a block sees equal rows next to
/// each other and separated by blank rows. The patterns after the first
/// differ from it in one or two pixels, so a row may equal the row two live
/// rows above but not the one just above.
fn arb_repeated_rows() -> impl Strategy<Value = (usize, usize, Grid<f32>)> {
    (1usize..=16, 1usize..=4).prop_flat_map(|(b, n)| {
        let side = n * b;
        (
            Just(b),
            Just(n),
            proptest::collection::vec((0u8..7, 0.0f32..1.0), side),
            proptest::collection::vec((0usize..side, 0u8..3), 4),
            proptest::collection::vec((0u8..5, 1usize..5), side),
        )
            .prop_map(move |(b, n, base, edits, runs)| {
                let value = |(kind, frac): (u8, f32)| match kind {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    3 => 1.0,
                    4 => frac,
                    _ => -4.0 * frac,
                };
                let first: Vec<f32> = base.into_iter().map(value).collect();
                let mut patterns = vec![first.clone(); 3];
                for (i, &(x, v)) in edits.iter().enumerate() {
                    patterns[1 + i % 2][x] = [0.5, -1.0, 0.0][usize::from(v)];
                }
                let mut values = Vec::with_capacity(side * side);
                for (pick, len) in runs {
                    for _ in 0..len {
                        match pick {
                            0 | 1 => values.extend(std::iter::repeat_n(0.0, side)),
                            p => values.extend_from_slice(&patterns[usize::from(p) - 2]),
                        }
                    }
                }
                values.truncate(side * side);
                values.resize(side * side, 0.0);
                (b, n, Grid::from_vec(side, side, values))
            })
    })
}

/// Checks every block of `img` against crop → full `Dct2d::forward` →
/// zig-zag order, for every `k`, through `extract_feature_tensor` and
/// `coefficients_for`, bit for bit.
fn assert_truncation_of_full_transform(b: usize, n: usize, img: &Grid<f32>) {
    let full = Dct2d::new(b).unwrap();
    let order = zigzag_indices(b);
    let mut reference = Vec::new();
    for j in 0..n {
        for i in 0..n {
            let coeffs = full.forward(&img.window(i * b, j * b, b, b)).unwrap();
            reference.push(
                order
                    .iter()
                    .map(|&(x, y)| coeffs[(x, y)])
                    .collect::<Vec<_>>(),
            );
        }
    }
    for k in 1..=b * b {
        let tensor = extract_feature_tensor(img, &FeatureTensorSpec::new(n, k).unwrap()).unwrap();
        let plan = BlockDctPlan::new(b, k).unwrap();
        for j in 0..n {
            for i in 0..n {
                let want = &reference[j * n + i][..k];
                let block = plan
                    .coefficients_for(&img.window(i * b, j * b, b, b))
                    .unwrap();
                for c in 0..k {
                    assert_eq!(
                        block[c].to_bits(),
                        want[c].to_bits(),
                        "block ({i}, {j}) c {c}"
                    );
                    assert_eq!(
                        tensor.coefficient(i, j, c).to_bits(),
                        want[c].to_bits(),
                        "tensor ({i}, {j}) c {c}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dct1d_roundtrip(v in (1usize..32).prop_flat_map(arb_signal)) {
        let back = dct1d::dct3(&dct1d::dct2(&v).unwrap()).unwrap();
        for (a, b) in v.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn dct1d_preserves_energy(v in (1usize..32).prop_flat_map(arb_signal)) {
        let c = dct1d::dct2(&v).unwrap();
        let ev: f64 = v.iter().map(|&x| (x as f64).powi(2)).sum();
        let ec: f64 = c.iter().map(|&x| (x as f64).powi(2)).sum();
        prop_assert!((ev - ec).abs() <= 1e-4 * ev.max(1.0));
    }

    #[test]
    fn dct2d_roundtrip(
        (b, v) in (1usize..14).prop_flat_map(|b| (Just(b), arb_signal(b * b)))
    ) {
        let plan = Dct2d::new(b).unwrap();
        let img = Grid::from_vec(b, b, v);
        let back = plan.inverse(&plan.forward(&img).unwrap()).unwrap();
        for (a, c) in img.iter().zip(back.iter()) {
            prop_assert!((a - c).abs() < 1e-3);
        }
    }

    #[test]
    fn fast_dct_matches_naive(
        (b, v) in (1usize..10).prop_flat_map(|b| (Just(b), arb_signal(b * b)))
    ) {
        let plan = Dct2d::new(b).unwrap();
        let img = Grid::from_vec(b, b, v);
        let fast = plan.forward(&img).unwrap();
        let slow = plan.forward_naive(&img).unwrap();
        for (a, c) in fast.iter().zip(slow.iter()) {
            prop_assert!((a - c).abs() < 1e-3);
        }
    }

    #[test]
    fn zigzag_is_permutation(n in 1usize..20) {
        let idx = zigzag_indices(n);
        prop_assert_eq!(idx.len(), n * n);
        let mut seen = vec![false; n * n];
        for (x, y) in idx {
            prop_assert!(!seen[y * n + x]);
            seen[y * n + x] = true;
        }
    }

    #[test]
    fn zigzag_roundtrip(
        (n, v) in (1usize..12).prop_flat_map(|n| (Just(n), arb_signal(n * n)))
    ) {
        let g = Grid::from_vec(n, n, v);
        prop_assert_eq!(zigzag_unscan(&zigzag_scan(&g), n), g);
    }

    #[test]
    fn split_join_roundtrip(
        (n, b, v) in (1usize..5, 1usize..5).prop_flat_map(|(n, b)| {
            (Just(n), Just(b), arb_signal(n * n * b * b))
        })
    ) {
        let img = Grid::from_vec(n * b, n * b, v);
        let bs = blocks::split_blocks(&img, n).unwrap();
        prop_assert_eq!(blocks::join_blocks(&bs, n).unwrap(), img);
    }

    #[test]
    fn full_tensor_reconstruction_is_lossless(
        (n, b, v) in (1usize..4, 2usize..5).prop_flat_map(|(n, b)| {
            (Just(n), Just(b), proptest::collection::vec(0.0f32..1.0, n * n * b * b))
        })
    ) {
        let img = Grid::from_vec(n * b, n * b, v);
        let spec = FeatureTensorSpec::new(n, b * b).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let back = reconstruct_image(&t, b).unwrap();
        for (a, c) in img.iter().zip(back.iter()) {
            prop_assert!((a - c).abs() < 1e-3);
        }
    }

    #[test]
    fn truncation_never_increases_energy(
        (n, b, v) in (1usize..3, 2usize..5).prop_flat_map(|(n, b)| {
            (Just(n), Just(b), proptest::collection::vec(0.0f32..1.0, n * n * b * b))
        })
    ) {
        // Energy of the kept coefficients is bounded by total image energy
        // (Parseval + truncation).
        let img = Grid::from_vec(n * b, n * b, v);
        let spec = FeatureTensorSpec::new(n, (b * b).min(3)).unwrap();
        let t = extract_feature_tensor(&img, &spec).unwrap();
        let kept: f64 = t.as_slice().iter().map(|&x| (x as f64).powi(2)).sum();
        let total: f64 = img.iter().map(|&x| (x as f64).powi(2)).sum();
        prop_assert!(kept <= total + 1e-3);
    }

    #[test]
    fn truncated_kernel_is_bit_identical_to_full_transform(
        (b, n, img) in arb_mixed_image()
    ) {
        assert_truncation_of_full_transform(b, n, &img);
    }

    #[test]
    fn repeated_rows_keep_the_full_transform_bits(
        (b, n, img) in arb_repeated_rows()
    ) {
        assert_truncation_of_full_transform(b, n, &img);
    }
}
