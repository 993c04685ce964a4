//! Seeded generators give byte-identical inputs per seed, and the order
//! statistics match their definitions (Python's `statistics.quantiles`
//! for quartiles).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{apps, service, sim, stats, stress};

fn encodings(seed: u64) -> Vec<Vec<u8>> {
    vec![
        stress::Plan::generate(seed).encode(),
        apps::Input::generate(seed).encode(),
        service::Input::generate(seed).encode(1000),
        sim::Input::generate(seed).encode(),
    ]
}

#[test]
fn same_seed_gives_identical_inputs() {
    for seed in [0, 1, 7, u64::MAX] {
        assert_eq!(encodings(seed), encodings(seed), "seed {seed}");
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let (a, b) = (encodings(1), encodings(2));
    for (k, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_ne!(x, y, "workload {k} ignores its seed");
    }
}

#[test]
fn stress_plan_spans_the_batch_size_range_with_equal_load() {
    let sizes = |seed| {
        let mut v: Vec<usize> = stress::Plan::generate(seed)
            .batches
            .iter()
            .map(Vec::len)
            .collect();
        v.sort_unstable();
        v
    };
    let s = sizes(3);
    assert_eq!(s.len(), stress::BATCHES_PER_PASS);
    assert!(s[0] >= 100 && *s.last().unwrap() <= 10_000, "{s:?}");
    assert!(s[0] < 120 && *s.last().unwrap() > 9_000, "{s:?}");
    assert_eq!(s, sizes(4), "seeds differ in order, not in batch sizes");
}

#[test]
fn stress_model_matches_serial_semantics() {
    use stress::Op;
    let mut m = stress::Model::default();
    for op in [
        Op::Read { shared: 1, lane: 2 },
        Op::Write(1),
        Op::Read { shared: 1, lane: 2 },
        Op::Write(1),
        Op::Inc(5),
    ] {
        m.apply(op);
    }
    assert_eq!(m.shared[1], 2);
    assert_eq!(m.lanes[1][2], 1, "0 before the first write, then 1");
    assert_eq!(m.counters[5], 1);
}

#[test]
fn service_sequence_draws_every_template_index_in_range() {
    let input = service::Input::generate(5);
    let seq: Vec<usize> = input.sequence(0).take(5000).collect();
    assert!(seq.iter().all(|&t| t < service::TEMPLATES));
    assert_ne!(seq, input.sequence(1).take(5000).collect::<Vec<_>>());
}

#[test]
fn service_templates_have_tens_to_hundreds_of_tasks() {
    let input = service::Input::generate(9);
    for t in &input.templates {
        assert!((10..=200).contains(&t.tasks()), "{} tasks", t.tasks());
    }
}

#[test]
fn sim_default_seed_keeps_the_paper_inputs() {
    let input = sim::Input::generate(perfbench::DEFAULT_SEED);
    assert_eq!(
        input.water_seed,
        jade_apps::water::WaterConfig::paper(8).seed
    );
    assert_eq!(
        input.pagerank_seed,
        jade_apps::pagerank::PagerankConfig::paper(8).seed
    );
    assert_eq!(input.order.len(), 10);
}

#[test]
fn median_and_percentile_interpolate_between_ranks() {
    assert_eq!(stats::median(&[]), 0.0);
    assert_eq!(stats::median(&[7.0]), 7.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert!((stats::percentile(&[1.0, 2.0, 3.0, 4.0], 90.0) - 3.7).abs() < 1e-12);
    assert_eq!(stats::percentile(&[1.0, 2.0, 3.0, 4.0], 100.0), 4.0);
    assert_eq!(stats::percentile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(stats::quartiles(&[4.0, 2.0, 3.0, 1.0]), [1.25, 2.5, 3.75]);
    assert_eq!(stats::quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
    assert_eq!(stats::quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    assert!((stats::spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn windowed_percentile_is_the_median_of_window_figures() {
    // Window 1 holds one stall; its tail must not carry the result.
    let mut samples: Vec<(usize, f64)> = Vec::new();
    for w in 0..3 {
        for k in 0..10 {
            samples.push((w, k as f64));
        }
    }
    samples.push((1, 1000.0));
    let p90 = stats::windowed_percentile(&samples, 90.0);
    assert!((p90 - 8.1).abs() < 1e-9, "{p90}");
}
