//! The paper's headline robustness story (Table IV): contaminate the
//! training positives with random false interactions and watch SL degrade
//! while BSL holds up.
//!
//! ```text
//! cargo run --release -p bsl-core --example noise_robustness
//! ```

use bsl_core::prelude::*;
use bsl_data::noise::inject_false_positives;
use std::sync::Arc;

fn main() {
    let clean = Arc::new(generate(&SynthConfig::gowalla_like(9)));
    println!("dataset: {} — {}\n", clean.name, clean.stats());
    let base = TrainConfig { dim: 32, epochs: 25, negatives: 64, ..TrainConfig::paper_default() };

    println!("{:<8} {:>10} {:>10} {:>10}", "noise", "SL NDCG", "BSL NDCG", "BSL gain");
    for ratio in [0.0f64, 0.2, 0.4] {
        let ds = if ratio == 0.0 {
            clean.clone()
        } else {
            Arc::new(inject_false_positives(&clean, ratio, 31).dataset)
        };
        // τ calibrated to the synthetic substrate (README's "Reproducing
        // the paper's figures and tables": the optimum sits higher than
        // the paper's ~0.1); BSL uses τ1/τ2 ≈ 3.
        let sl = Trainer::new(TrainConfig { loss: LossConfig::Sl { tau: 0.35 }, ..base }).fit(&ds);
        let bsl =
            Trainer::new(TrainConfig { loss: LossConfig::Bsl { tau1: 1.0, tau2: 0.35 }, ..base })
                .fit(&ds);
        let (s, b) = (sl.best.ndcg(20), bsl.best.ndcg(20));
        println!(
            "{:<8} {:>10.4} {:>10.4} {:>+9.2}%",
            format!("{}%", (ratio * 100.0) as u32),
            s,
            b,
            100.0 * (b - s) / s.max(1e-12)
        );
    }
    println!("\nExpected shape (paper Table IV): BSL's advantage grows with the noise ratio.");
}
