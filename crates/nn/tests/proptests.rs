//! Property-based tests for the neural-network substrate.

use hotspot_nn::engine::{Executor, Workspace};
use hotspot_nn::layers::{Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2, Relu, Sigmoid, Tanh};
use hotspot_nn::serialize::ParameterBlob;
use hotspot_nn::{gemm, loss, optim, Network, Parallelism, Tensor};
use proptest::prelude::*;

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-5.0f32..5.0, len)
}

/// A one-layer network around `layer`: its plan fuses nothing.
fn single<L: Layer + 'static>(layer: L) -> Network {
    let mut net = Network::new();
    net.push(layer);
    net
}

/// Planned inference output of `net` on `x`.
fn infer(net: &Network, x: &Tensor) -> Vec<f32> {
    Executor::new().infer(net, x).to_vec()
}

/// Appends `layer` to the last network of `nets`, or to a new one when
/// `split`: the same builder yields one network or one network per layer.
fn push<L: Layer + 'static>(nets: &mut Vec<Network>, split: bool, layer: L) {
    if split || nets.is_empty() {
        nets.push(Network::new());
    }
    if let Some(net) = nets.last_mut() {
        net.push(layer);
    }
}

/// Runs `x` through a chain of networks, each on its own executor,
/// training or inference mode.
fn chain(nets: &mut [Network], exs: &mut [Executor], x: &Tensor, train: bool) -> Vec<f32> {
    let mut cur = x.clone();
    for (net, ex) in nets.iter_mut().zip(exs.iter_mut()) {
        let y = if train {
            ex.forward_train(net, &cur).to_vec()
        } else {
            ex.infer(net, &cur).to_vec()
        };
        cur = Tensor::from_vec(ex.plan().expect("a pass just ran").out_shape().to_vec(), y);
    }
    cur.into_vec()
}

/// f64 triple-loop C += A·B reference the blocked kernels are judged
/// against. `at(p, i)` maps the storage of A for the given transpose
/// flavour; likewise `bt` for B.
fn matmul_ref(
    (m, n, k): (usize, usize, usize),
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    at: impl Fn(usize, usize) -> usize,
    bt: impl Fn(usize, usize) -> usize,
) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a[at(p, i)] as f64 * b[bt(p, j)] as f64;
            }
            c[i * n + j] += acc as f32;
        }
    }
}

fn assert_close(fast: &[f32], reference: &[f32], k: usize) {
    // Error grows with the reduction length; scale the bound by k.
    let tol = 1e-5 * (k as f32).max(1.0);
    for (i, (x, y)) in fast.iter().zip(reference).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "element {i}: {x} vs {y} (k = {k})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_is_a_probability_vector(v in (1usize..8).prop_flat_map(arb_vec)) {
        let p = loss::softmax(&v);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Order-preserving.
        for i in 0..v.len() {
            for j in 0..v.len() {
                if v[i] > v[j] {
                    prop_assert!(p[i] >= p[j]);
                }
            }
        }
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero(
        logits in arb_vec(2),
        t in 0.0f32..1.0,
    ) {
        // Σ_i (p_i - t_i) = 1 - 1 = 0 for probability-vector targets.
        let target = [1.0 - t, t];
        let (_, grad) = loss::softmax_cross_entropy(
            &Tensor::from_vec(vec![2], logits), &target);
        let s: f32 = grad.as_slice().iter().sum();
        prop_assert!(s.abs() < 1e-5);
    }

    #[test]
    fn loss_is_nonnegative_and_minimal_at_target(t in 0.05f32..0.95) {
        let target = [1.0 - t, t];
        // Logits matching log target exactly minimise CE at the target's
        // entropy.
        let logits = Tensor::from_vec(vec![2], vec![(1.0 - t).ln(), t.ln()]);
        let (l_opt, grad) = loss::softmax_cross_entropy(&logits, &target);
        prop_assert!(l_opt >= 0.0);
        prop_assert!(grad.abs_max() < 1e-5);
        let (l_other, _) = loss::softmax_cross_entropy(
            &Tensor::from_vec(vec![2], vec![2.0, -2.0]), &target);
        prop_assert!(l_other + 1e-6 >= l_opt);
    }

    #[test]
    fn relu_is_idempotent(v in (1usize..40).prop_flat_map(arb_vec)) {
        let relu = single(Relu::new());
        let n = v.len();
        let once = infer(&relu, &Tensor::from_vec(vec![n], v));
        let twice = infer(&relu, &Tensor::from_vec(vec![n], once.clone()));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn maxpool_output_bounded_by_input(
        v in arb_vec(4 * 6 * 6)
    ) {
        let x = Tensor::from_vec(vec![4, 6, 6], v.clone());
        let y = infer(&single(MaxPool2::new()), &x);
        let in_max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let in_min = v.iter().copied().fold(f32::INFINITY, f32::min);
        for &o in &y {
            prop_assert!(o <= in_max && o >= in_min);
        }
    }

    #[test]
    fn conv_is_linear_in_input(v in arb_vec(2 * 5 * 5), scale in 0.1f32..3.0) {
        let mut conv = Conv2d::new(2, 3, 3, 1, 77);
        // Zero the bias so the map is linear, not affine.
        let mut call = 0;
        conv.visit_params(&mut |w, _| {
            if call == 1 {
                w.iter_mut().for_each(|b| *b = 0.0);
            }
            call += 1;
        });
        let x = Tensor::from_vec(vec![2, 5, 5], v.clone());
        let sx = Tensor::from_vec(vec![2, 5, 5], v.iter().map(|&a| a * scale).collect());
        let conv = single(conv);
        let y = infer(&conv, &x);
        let sy = infer(&conv, &sx);
        for (a, b) in y.iter().zip(sy.iter()) {
            prop_assert!((a * scale - b).abs() < 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn flatten_preserves_every_element(v in arb_vec(3 * 4 * 2)) {
        let x = Tensor::from_vec(vec![3, 4, 2], v.clone());
        let y = infer(&single(Flatten::new()), &x);
        prop_assert_eq!(&y[..], &v[..]);
    }

    #[test]
    fn parameter_blob_roundtrip_is_exact(seed in 0u64..1000) {
        let mut net = Network::new();
        net.push(Dense::new(5, 7, seed));
        net.push(Relu::new());
        net.push(Dense::new(7, 2, seed + 1));
        let blob = ParameterBlob::from_network(&mut net);
        let mut other = Network::new();
        other.push(Dense::new(5, 7, seed + 2));
        other.push(Relu::new());
        other.push(Dense::new(7, 2, seed + 3));
        blob.load_into(&mut other).expect("same architecture");
        let reread = ParameterBlob::from_network(&mut other);
        prop_assert_eq!(blob.as_slice(), reread.as_slice());
    }

    #[test]
    fn gemm_kernels_match_reference_on_random_shapes(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..300,
        seed in 0u64..1_000_000,
    ) {
        // Sizes straddle the KC = 256 k-block boundary and the 4-row /
        // 2×2-tile unroll remainders of all three kernels.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| next()).collect();

        // gemm_nn: A is m×k, B is k×n.
        let mut fast = c0.clone();
        gemm::gemm_nn(m, n, k, &a, &b, &mut fast);
        let mut reference = c0.clone();
        matmul_ref((m, n, k), &a, &b, &mut reference,
            |p, i| i * k + p, |p, j| p * n + j);
        assert_close(&fast, &reference, k);

        // gemm_nt: B is stored n×k (column-major B).
        let bt: Vec<f32> = (0..n * k).map(|_| next()).collect();
        let mut fast = c0.clone();
        gemm::gemm_nt(m, n, k, &a, &bt, &mut fast);
        let mut reference = c0.clone();
        matmul_ref((m, n, k), &a, &bt, &mut reference,
            |p, i| i * k + p, |p, j| j * k + p);
        assert_close(&fast, &reference, k);

        // gemm_tn: A is stored k×m.
        let at: Vec<f32> = (0..k * m).map(|_| next()).collect();
        let mut fast = c0.clone();
        gemm::gemm_tn(m, n, k, &at, &b, &mut fast);
        let mut reference = c0;
        matmul_ref((m, n, k), &at, &b, &mut reference,
            |p, i| p * m + i, |p, j| p * n + j);
        assert_close(&fast, &reference, k);
    }

    #[test]
    fn dispatched_kernels_stay_within_ulp_envelope_of_scalar_oracle(
        m in 1usize..24,
        n in 1usize..40,
        k in 1usize..70,
        batch in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        // The SIMD backends reassociate the k-reduction (16-lane FMA trees
        // vs the oracle's serial loop), so outputs need not be bit-equal —
        // but they must land inside the repo's ULP envelope. `n` up to 40
        // and `k` up to 70 straddle the 16- and 32-lane chunk boundaries,
        // so masked n/k tails and full-vector bodies are both exercised.
        // On the scalar backend the dispatch table routes to the oracle
        // itself and the comparison degenerates to bit-equality.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let bt: Vec<f32> = (0..n * k).map(|_| next()).collect();
        let at: Vec<f32> = (0..k * m).map(|_| next()).collect();
        let c0: Vec<f32> = (0..m * n).map(|_| next()).collect();

        let mut fast = c0.clone();
        gemm::gemm_nn(m, n, k, &a, &b, &mut fast);
        let mut oracle = c0.clone();
        gemm::scalar::gemm_nn(m, n, k, &a, &b, &mut oracle);
        hotspot_nn::ulp::assert_ulp_close(&fast, &oracle, 128, 1e-4);

        let mut fast = c0.clone();
        gemm::gemm_nt(m, n, k, &a, &bt, &mut fast);
        let mut oracle = c0.clone();
        gemm::scalar::gemm_nt(m, n, k, &a, &bt, &mut oracle);
        hotspot_nn::ulp::assert_ulp_close(&fast, &oracle, 128, 1e-4);

        let mut fast = c0.clone();
        gemm::gemm_tn(m, n, k, &at, &b, &mut fast);
        let mut oracle = c0;
        gemm::scalar::gemm_tn(m, n, k, &at, &b, &mut oracle);
        hotspot_nn::ulp::assert_ulp_close(&fast, &oracle, 128, 1e-4);

        // Batched NT (the dense-layer block kernel): ULP-close to the
        // scalar oracle, and bit-identical to scoring the same samples
        // one at a time through the dispatched per-window path — the
        // contract the engine's batched pins rest on.
        let xs: Vec<f32> = (0..batch * k).map(|_| next()).collect();
        let cb0: Vec<f32> = (0..batch * m).map(|_| next()).collect();
        let mut fast = cb0.clone();
        gemm::gemm_nt_batched(m, batch, k, &a, &xs, &mut fast);
        let mut oracle = cb0.clone();
        gemm::scalar::gemm_nt_batched(m, batch, k, &a, &xs, &mut oracle);
        hotspot_nn::ulp::assert_ulp_close(&fast, &oracle, 128, 1e-4);

        let mut per_sample = cb0;
        for (s, cs) in per_sample.chunks_exact_mut(m).enumerate() {
            gemm::gemm_nt(m, 1, k, &a, &xs[s * k..(s + 1) * k], cs);
        }
        for (i, (x, y)) in fast.iter().zip(&per_sample).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "batched vs per-sample bit mismatch at {} ({} vs {})", i, x, y
            );
        }
    }

    #[test]
    fn planned_execution_is_bit_identical_to_unfused_reference(
        channels in 1usize..3,
        hw in 4usize..9,
        maps in 1usize..4,
        windows in 1usize..8,
        block in 1usize..9,
        workers in 1usize..5,
        act in 0usize..3,
        seed in 0u64..1_000,
    ) {
        // The cross-path contract: for random architectures, input
        // shapes, window counts and batch-block sizes (including B = 1,
        // B = window_count, and ragged final blocks where
        // windows % block != 0), four scoring paths produce bit-for-bit
        // identical outputs:
        //   1. the unfused reference — the same layers one per network,
        //      chained through their own executors (a one-layer plan
        //      fuses nothing, so every activation runs standalone),
        //   2. the per-window fused plan (`Executor::infer`),
        //   3. the batched planned path (`plan_batch` +
        //      `forward_batch_with`), which runs one GEMM per layer over a
        //      whole block of windows,
        //   4. the chunked `forward_batch` API across worker counts.
        // Also pinned: training mode (same dropout RNG stream).
        let build = |split: bool| {
            let mut nets = Vec::new();
            push(&mut nets, split, Conv2d::new(channels, maps, 3, 1, seed));
            push(&mut nets, split, Relu::new());
            push(&mut nets, split, MaxPool2::new());
            push(&mut nets, split, Flatten::new());
            let flat = maps * (hw / 2) * (hw / 2);
            push(&mut nets, split, Dense::new(flat, 6, seed + 1));
            match act {
                0 => push(&mut nets, split, Relu::new()),
                1 => push(&mut nets, split, Sigmoid::new()),
                _ => push(&mut nets, split, Tanh::new()),
            }
            push(&mut nets, split, Dropout::new(0.3, seed + 2));
            push(&mut nets, split, Dense::new(6, 2, seed + 3));
            nets
        };

        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        };
        let in_shape = vec![channels, hw, hw];
        let in_len = channels * hw * hw;
        let inputs: Vec<Tensor> = (0..windows)
            .map(|_| {
                let v: Vec<f32> = (0..in_len).map(|_| next()).collect();
                Tensor::from_vec(in_shape.clone(), v)
            })
            .collect();

        // Path 1: the unfused chain is the reference.
        let mut unfused = build(true);
        let mut unfused_exs: Vec<Executor> = unfused.iter().map(|_| Executor::new()).collect();
        let reference: Vec<Vec<f32>> = inputs
            .iter()
            .map(|x| chain(&mut unfused, &mut unfused_exs, x, false))
            .collect();
        let net = build(false).remove(0);
        prop_assert_eq!(net.plan(&in_shape).fused_count(), 2);

        // Path 2: per-window planned execution (fused epilogues).
        let mut ex = Executor::new();
        for (x, want) in inputs.iter().zip(&reference) {
            prop_assert_eq!(ex.infer(&net, x), &want[..]);
        }

        // Path 3: batched planned execution. Exercise the drawn block
        // size (often ragged: windows % block != 0), plus the two
        // boundary blocks B = 1 and B = window_count.
        let out_len = reference[0].len();
        for b in [block, 1, windows] {
            let mut ws = Workspace::new();
            let mut got: Vec<f32> = Vec::with_capacity(windows * out_len);
            let mut plans = std::collections::HashMap::new();
            for chunk in inputs.chunks(b) {
                let plan = plans
                    .entry(chunk.len())
                    .or_insert_with(|| net.plan_batch(&in_shape, chunk.len()));
                let mut flat = Vec::with_capacity(chunk.len() * in_len);
                for x in chunk {
                    flat.extend_from_slice(x.as_slice());
                }
                got.extend_from_slice(net.forward_batch_with(plan, &mut ws, &flat));
            }
            for (w, want) in reference.iter().enumerate() {
                prop_assert_eq!(
                    &got[w * out_len..(w + 1) * out_len],
                    &want[..],
                    "batched block size {} diverged at window {}", b, w
                );
            }
        }

        // Chunked batch API across worker counts, bit-identical to serial.
        let batched = net.forward_batch(&inputs, Parallelism::fixed(workers).unwrap());
        for (got, want) in batched.iter().zip(&reference) {
            prop_assert_eq!(got.as_slice(), &want[..]);
        }

        // Training mode: identical dropout stream, identical activations.
        let mut planned_net = build(false).remove(0);
        let mut ex = Executor::new();
        for x in &inputs {
            let want = chain(&mut unfused, &mut unfused_exs, x, true);
            let got = ex.forward_train(&mut planned_net, x).to_vec();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn gradient_step_direction_reduces_loss(
        v in arb_vec(6),
        t in prop_oneof![Just([1.0f32, 0.0]), Just([0.0f32, 1.0])],
    ) {
        // One small step along the negative gradient must not increase the
        // loss (first-order guarantee at small lr).
        let mut net = Network::new();
        net.push(Dense::new(6, 8, 9));
        net.push(Relu::new());
        net.push(Dense::new(8, 2, 10));
        let x = Tensor::from_vec(vec![6], v);
        let l0 = optim::minibatch_step(&mut net, &mut Executor::new(), &[(&x, t)], 1e-3);
        let (l1, _) = loss::softmax_cross_entropy(
            &Tensor::from_vec(vec![2], infer(&net, &x)), &t);
        prop_assert!(l1 <= l0 + 1e-5, "loss increased: {l0} -> {l1}");
    }
}
