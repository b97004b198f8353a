//! Learning-rate schedules.

/// A learning-rate schedule evaluated per epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate (the paper's protocol).
    Constant(f32),
    /// `lr = base · decay^epoch`.
    Exponential {
        /// Initial learning rate.
        base: f32,
        /// Per-epoch multiplicative decay in `(0, 1]`.
        decay: f32,
    },
    /// Linear warmup over `warmup` epochs followed by a constant rate.
    Warmup {
        /// Target learning rate after warmup.
        base: f32,
        /// Number of warmup epochs.
        warmup: usize,
    },
}

impl LrSchedule {
    /// Learning rate for `epoch` (0-based).
    pub fn at(&self, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::Exponential { base, decay } => base * decay.powi(epoch as i32),
            LrSchedule::Warmup { base, warmup } => {
                if warmup == 0 || epoch >= warmup {
                    base
                } else {
                    base * (epoch + 1) as f32 / warmup as f32
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant(0.01);
        assert_eq!(s.at(0), 0.01);
        assert_eq!(s.at(1000), 0.01);
    }

    #[test]
    fn exponential_decays() {
        let s = LrSchedule::Exponential { base: 1.0, decay: 0.5 };
        assert_eq!(s.at(0), 1.0);
        assert_eq!(s.at(2), 0.25);
    }

    #[test]
    fn warmup_ramps_then_flat() {
        let s = LrSchedule::Warmup { base: 0.1, warmup: 4 };
        assert!((s.at(0) - 0.025).abs() < 1e-7);
        assert!((s.at(3) - 0.1).abs() < 1e-7);
        assert_eq!(s.at(10), 0.1);
    }

    #[test]
    fn zero_warmup_is_constant() {
        let s = LrSchedule::Warmup { base: 0.2, warmup: 0 };
        assert_eq!(s.at(0), 0.2);
    }
}
