//! The paper's CNN architecture (Figure 2 / Table 1).

use hotspot_nn::layers::{Conv2d, Dense, Dropout, Flatten, MaxPool2, Relu};
use hotspot_nn::Network;
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters of the Table-1 CNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnnConfig {
    /// Spatial input dimension `n` (12 in the paper).
    pub input_grid: usize,
    /// Input channels `k` (the feature-tensor coefficient count).
    pub input_channels: usize,
    /// Feature maps of the first convolution stage (16).
    pub stage1_maps: usize,
    /// Feature maps of the second convolution stage (32).
    pub stage2_maps: usize,
    /// Hidden width of the first fully-connected layer (250).
    pub fc_width: usize,
    /// Dropout probability on the first FC layer (0.5), scaled by 100 to
    /// stay `Eq`-friendly: 50 means p = 0.5.
    pub dropout_pct: u8,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for CnnConfig {
    /// The paper's exact configuration with `k = 32` input channels.
    fn default() -> Self {
        CnnConfig {
            input_grid: 12,
            input_channels: 32,
            stage1_maps: 16,
            stage2_maps: 32,
            fc_width: 250,
            dropout_pct: 50,
            seed: 2017,
        }
    }
}

impl CnnConfig {
    /// Builds the network: two convolution stages — each two 3×3 "same"
    /// convolutions with a ReLU after every convolution, closed by 2×2 max
    /// pooling — then `Flatten → FC(fc_width) → ReLU → Dropout → FC(2)`.
    ///
    /// With the default configuration the per-layer output shapes reproduce
    /// Table 1: 12×12×16, 12×12×16, 6×6×16, 6×6×32, 6×6×32, 3×3×32,
    /// 250, 2.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `dropout_pct >= 100`.
    pub fn build(&self) -> Network {
        assert!(
            self.input_grid >= 4 && self.input_channels > 0,
            "input shape too small"
        );
        assert!(
            self.stage1_maps > 0 && self.stage2_maps > 0 && self.fc_width > 0,
            "zero layer width"
        );
        assert!(self.dropout_pct < 100, "dropout must be < 100%");
        let s = self.seed;
        let mut net = Network::new();
        // Stage 1.
        net.push(Conv2d::new(self.input_channels, self.stage1_maps, 3, 1, s));
        net.push(Relu::new());
        net.push(Conv2d::new(self.stage1_maps, self.stage1_maps, 3, 1, s + 1));
        net.push(Relu::new());
        net.push(MaxPool2::new());
        // Stage 2.
        net.push(Conv2d::new(self.stage1_maps, self.stage2_maps, 3, 1, s + 2));
        net.push(Relu::new());
        net.push(Conv2d::new(self.stage2_maps, self.stage2_maps, 3, 1, s + 3));
        net.push(Relu::new());
        net.push(MaxPool2::new());
        // Dense head.
        let spatial = self.input_grid / 4;
        net.push(Flatten::new());
        net.push(Dense::new(
            self.stage2_maps * spatial * spatial,
            self.fc_width,
            s + 4,
        ));
        net.push(Relu::new());
        net.push(Dropout::new(self.dropout_pct as f32 / 100.0, s + 5));
        net.push(Dense::new(self.fc_width, 2, s + 6));
        net
    }

    /// The CHW input shape `[k, n, n]`.
    pub fn input_shape(&self) -> Vec<usize> {
        vec![self.input_channels, self.input_grid, self.input_grid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_nn::engine::Executor;
    use hotspot_nn::Tensor;

    #[test]
    fn table1_shapes_reproduced() {
        let cfg = CnnConfig::default();
        let net = cfg.build();
        let rows = net.summary(&cfg.input_shape());
        // Pull out the shapes after each named layer of Table 1.
        let shapes: Vec<(String, Vec<usize>)> = rows;
        let find = |name: &str, nth: usize| -> Vec<usize> {
            shapes
                .iter()
                .filter(|(n, _)| n == name)
                .nth(nth)
                .map(|(_, s)| s.clone())
                .expect("layer present")
        };
        assert_eq!(find("conv", 0), vec![16, 12, 12]); // conv1-1
        assert_eq!(find("conv", 1), vec![16, 12, 12]); // conv1-2
        assert_eq!(find("maxpool", 0), vec![16, 6, 6]); // maxpooling1
        assert_eq!(find("conv", 2), vec![32, 6, 6]); // conv2-1
        assert_eq!(find("conv", 3), vec![32, 6, 6]); // conv2-2
        assert_eq!(find("maxpool", 1), vec![32, 3, 3]); // maxpooling2
        assert_eq!(find("fc", 0), vec![250]); // fc1
        assert_eq!(find("fc", 1), vec![2]); // fc2
    }

    #[test]
    fn forward_produces_two_logits() {
        let cfg = CnnConfig {
            input_channels: 4,
            ..CnnConfig::default()
        };
        let net = cfg.build();
        let mut ex = Executor::new();
        let y = ex.infer(&net, &Tensor::zeros(cfg.input_shape()));
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn parameter_count_matches_arithmetic() {
        let cfg = CnnConfig::default();
        let mut net = cfg.build();
        let expected = (16 * 32 * 9 + 16)
            + (16 * 16 * 9 + 16)
            + (32 * 16 * 9 + 32)
            + (32 * 32 * 9 + 32)
            + (288 * 250 + 250)
            + (250 * 2 + 2);
        assert_eq!(net.parameter_count(), expected);
    }

    #[test]
    fn seeded_builds_are_identical() {
        let cfg = CnnConfig::default();
        let a = cfg.build();
        let b = cfg.build();
        let x = Tensor::zeros(cfg.input_shape());
        assert_eq!(Executor::new().infer(&a, &x), Executor::new().infer(&b, &x));
    }

    #[test]
    #[should_panic(expected = "dropout")]
    fn dropout_pct_validated() {
        let cfg = CnnConfig {
            dropout_pct: 100,
            ..CnnConfig::default()
        };
        let _ = cfg.build();
    }

    /// CRC-32 of the Table-1 weights after three seeded MGD steps on the
    /// resolved kernel backend.
    fn three_step_weights_crc() -> u32 {
        use hotspot_nn::gemm::kernel_backend;
        use hotspot_nn::optim;
        use hotspot_nn::serialize::{crc32, ParameterBlob};
        let cfg = CnnConfig::default();
        let mut net = cfg.build();
        let len: usize = cfg.input_shape().iter().product();
        let xs: Vec<Tensor> = (0..8)
            .map(|s| {
                let v = (0..len).map(|i| ((i * 7 + s * 131) as f32 * 0.013).sin());
                Tensor::from_vec(cfg.input_shape(), v.collect())
            })
            .collect();
        let mut ex = Executor::new();
        for step in 0..3 {
            let batch: Vec<(&Tensor, [f32; 2])> = xs
                .iter()
                .enumerate()
                .map(|(j, x)| (x, crate::mgd::target_for((j + step) % 2 == 0, 0.0)))
                .collect();
            optim::minibatch_step(&mut net, &mut ex, &batch, 0.1);
        }
        let crc = crc32(&ParameterBlob::from_network(&mut net).to_bytes());
        println!(
            "table-1 weights after 3 MGD steps on {}: crc32 {crc:08x}",
            kernel_backend().name()
        );
        crc
    }

    #[test]
    fn scalar_training_bits_are_pinned() {
        // Under the scalar oracle (CI's scalar leg) the weights must stay
        // bit for bit where the scalar kernels have always put them.
        use hotspot_nn::gemm::{kernel_backend, KernelBackend};
        let crc = three_step_weights_crc();
        if kernel_backend() == KernelBackend::Scalar {
            assert_eq!(crc, 0xbced_07a2);
        }
    }

    #[test]
    fn simd_training_bits_are_pinned() {
        // Each SIMD tier differs from the oracle within the ULP envelope
        // but is deterministic, so its weights are pinned too. CI's `auto`
        // leg also runs this under `HOTSPOT_SIMD=avx2`, so an AVX-512
        // runner checks both pins.
        use hotspot_nn::gemm::{kernel_backend, KernelBackend};
        let crc = three_step_weights_crc();
        match kernel_backend() {
            KernelBackend::Avx2 => assert_eq!(crc, 0x4334_5832),
            KernelBackend::Avx512 => assert_eq!(crc, 0x70e1_51d4),
            KernelBackend::Scalar => {}
        }
    }

    /// A seeded two-round `TrainSession::run_schedule` of the Table-1 net
    /// at k = 4 on a separable synthetic set, on the resolved kernel
    /// backend: the CRC-32 of the returned weights and the bits of every
    /// validation check, in round order. Each round returns the snapshot
    /// its validation checks pick, so this pins validation scoring as well
    /// as the training steps.
    fn two_round_fit() -> (u32, Vec<u64>) {
        use crate::biased::BiasedLearningConfig;
        use crate::mgd::MgdConfig;
        use crate::session::TrainSession;
        use hotspot_nn::gemm::kernel_backend;
        use hotspot_nn::serialize::{crc32, ParameterBlob};
        let cfg = CnnConfig {
            input_channels: 4,
            ..CnnConfig::default()
        };
        let len: usize = cfg.input_shape().iter().product();
        let labels: Vec<bool> = (0..48).map(|s| s % 3 == 0).collect();
        let features: Vec<Tensor> = labels
            .iter()
            .enumerate()
            .map(|(s, &hotspot)| {
                let shift = if hotspot { 0.05 } else { -0.05 };
                let v = (0..len).map(|i| {
                    let base = ((i * 5 + s * 97) as f32 * 0.021).sin() * 0.5;
                    if i < 144 {
                        base + shift
                    } else {
                        base
                    }
                });
                Tensor::from_vec(cfg.input_shape(), v.collect())
            })
            .collect();
        let initial = MgdConfig {
            lr: 0.1,
            alpha: 0.5,
            decay_step: 16,
            batch_size: 8,
            max_steps: 24,
            val_interval: 8,
            patience: 8,
            val_fraction: 0.25,
            seed: 3,
            balanced_sampling: true,
            threads: 1,
        };
        let schedule = BiasedLearningConfig {
            epsilon_step: 0.1,
            rounds: 2,
            fine_tune: MgdConfig {
                max_steps: 8,
                lr: 0.05,
                ..initial.clone()
            },
            initial,
        };
        let mut session = TrainSession::new(cfg.build(), features, labels, schedule);
        let report = session.run_schedule(0, &mut |_, _| Ok(())).unwrap();
        let checks: Vec<f64> = report
            .rounds
            .iter()
            .flat_map(|r| r.report.history.iter().map(|p| p.val_accuracy))
            .collect();
        let crc = crc32(&ParameterBlob::from_network(session.network_mut()).to_bytes());
        let bits: Vec<u64> = checks.iter().map(|a| a.to_bits()).collect();
        println!(
            "table-1 two-round fit on {}: crc32 {crc:08x}, checks {checks:?}, bits {bits:x?}",
            kernel_backend().name()
        );
        (crc, bits)
    }

    #[test]
    fn whole_fit_bits_are_pinned() {
        // Recorded with this body on the tree before batched validation
        // scoring; the checks' bits agree on every backend.
        use hotspot_nn::gemm::{kernel_backend, KernelBackend};
        let (crc, bits) = two_round_fit();
        let checks: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        assert!(
            checks[1..].iter().any(|&a| a > checks[0]),
            "no later check beat the untrained network: {checks:?}"
        );
        assert_eq!(
            bits,
            [
                0x3fe0_0000_0000_0000,
                0x3fea_83a8_3a83_a83a,
                0x3fed_b6db_6db6_db6e,
                0x3fea_83a8_3a83_a83a,
                0x3fed_b6db_6db6_db6e,
                0x3fe9_9999_9999_999a,
            ]
        );
        let want = match kernel_backend() {
            KernelBackend::Scalar => 0x43ec_f991,
            KernelBackend::Avx2 => 0xb16f_bca1,
            KernelBackend::Avx512 => 0x2963_8493,
        };
        assert_eq!(crc, want);
    }
}
