//! Figure 17: impact of concept drift (Appendix B.4).
//!
//! Train a spam classifier on the first 10% of a drifting e-mail stream
//! (the materialized model), then compare Incremental (warmstart from that
//! model) against Rerun (cold start) when training on the first 30%, measuring
//! test-set loss on the remaining 70% after every epoch.

use dd_bench::print_table;
use dd_inference::{LearnOptions, Learner};
use dd_workloads::{spam_stream, SpamConfig};

pub fn run() {
    println!("# Figure 17 — concept drift (synthetic e-mail stream)");
    let stream = spam_stream(SpamConfig::default());
    let p10 = stream.prefix(0.10);
    let p30 = stream.prefix(0.30);
    let test = p30..stream.len();

    // Materialized model: trained on the 10% prefix (pre-drift distribution).
    let (mut g10, _) = stream.build_training_graph(0..p10);
    let warm = Learner::new(&mut g10)
        .learn(
            &LearnOptions {
                epochs: 20,
                learning_rate: 0.3,
                ..Default::default()
            },
            7,
        )
        .final_weights;

    // Both systems now train on the 30% prefix (which crosses the drift point).
    let (g30, weight_of) = stream.build_training_graph(0..p30);
    let mut rows = Vec::new();
    // The warmstarted graph holds the 10% model on the weights both prefixes
    // share; the features only the 30% prefix has keep their declared value.
    let mut g30_warm = g30.clone();
    g30_warm.set_weight_values(&warm);
    for (label, start) in [
        ("Incremental (warmstart from 10% model)", &g30_warm),
        ("Rerun (cold start)", &g30),
    ] {
        // Probe the test loss after 1 epoch and after 15 epochs: the warmstarted
        // run should start lower and both should converge to similar losses.
        let loss_after = |epochs: usize| {
            let mut g = start.clone();
            let options = LearnOptions {
                epochs,
                learning_rate: 0.3,
                ..Default::default()
            };
            Learner::new(&mut g).learn(&options, 3);
            stream.test_loss(test.clone(), &weight_of, &g.weight_values())
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.4}", loss_after(1)),
            format!("{:.4}", loss_after(15)),
        ]);
    }
    print_table(
        "Test-set loss (70% suffix) after training on the 30% prefix",
        &["system", "after 1 epoch", "after 15 epochs"],
        &rows,
    );
    println!(
        "Paper shape: both systems converge to the same loss; warmstart starts lower and\n\
         converges faster even though the distribution drifted between the prefixes."
    );
}
