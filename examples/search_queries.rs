//! Search-query frequency estimation (the real-world scenario of Section 7).
//!
//! A synthetic multi-day query log stands in for the AOL dataset. Day 0 is
//! the observed prefix: its queries are assigned to buckets by the solver and
//! a text classifier (bag-of-words + character counts) learns to route unseen
//! queries. The example then replays several more days and reports the error
//! of `opt-hash`, the Count-Min Sketch and the Learned Count-Min Sketch with
//! an ideal heavy-hitter oracle, all at the same memory budget. It exits
//! non-zero unless opt-hash has the lowest average and expected error, the
//! paper's headline result for this study.
//!
//! Run with:
//! ```text
//! cargo run --release --example search_queries
//! ```

use opthash_repro::ml::TextFeaturizer;
use opthash_repro::opthash::{OptHashBuilder, SolverKind};
use opthash_repro::prelude::*;
use opthash_solver::BcdConfig;
use opthash_stream::StreamElement;

fn main() {
    // 1. Generate the query log: 5,000 unique queries, 8 days.
    let log = QueryLogDataset::generate(QueryLogConfig {
        num_queries: 5_000,
        days: 8,
        arrivals_per_day: 10_000,
        zipf_exponent: 1.0,
        seed: 3,
    });
    println!(
        "query log: {} unique queries over {} days, most popular = {:?}",
        log.num_queries(),
        log.config().days,
        log.query_text(ElementId(0)).unwrap()
    );

    // 2. Memory budget: 4 KB for every estimator, split for opt-hash with the
    //    paper's bucket-to-ID ratio c = 0.3.
    let budget = SpaceBudget::from_kb(4.0);
    let (stored_ids, buckets) = budget.opt_hash_split(0.3);
    println!(
        "budget: {} bytes -> {} stored query IDs + {} buckets",
        budget.bytes(),
        stored_ids,
        buckets
    );

    // 3. Build the day-0 prefix with text features.
    let day0 = log.first_day_counts();
    let featurizer = TextFeaturizer::fit(day0.iter().map(|(_, text, _)| text.as_str()), 200);
    let prefix_pairs: Vec<(StreamElement, u64)> = day0
        .iter()
        .map(|(id, text, count)| (StreamElement::new(*id, featurizer.transform(text)), *count))
        .collect();
    let prefix = StreamPrefix::from_counts(prefix_pairs);

    // 4. Train opt-hash (λ = 1: bucket by frequency; the classifier uses the
    //    text features to route unseen queries).
    let mut opt_hash = OptHashBuilder::new(buckets)
        .lambda(1.0)
        .solver(SolverKind::Bcd(BcdConfig::default()))
        .classifier(ClassifierKind::RandomForest)
        .max_stored_elements(stored_ids)
        .train(&prefix);

    // 5. Baselines at the same budget.
    let mut count_min = CountMinSketch::with_total_buckets(budget.total_buckets(), 2, 1);
    let heavy_ids = log.top_k_ids(100);
    let mut learned_cms = LearnedCountMin::with_budget(budget, 100, &heavy_ids, 2, 1);

    // The baselines see day 0 as ordinary stream data.
    let day0_stream = log.day_stream(0);
    count_min.update_stream(&day0_stream);
    learned_cms.update_stream(&day0_stream);

    // 6. Replay days 1..8 into all estimators.
    for day in 1..log.config().days {
        for arrival in log.day_stream(day).iter() {
            let text = log.query_text(arrival.id).unwrap();
            let element = StreamElement::new(arrival.id, featurizer.transform(text));
            opt_hash.update(&element);
            count_min.update(&element);
            learned_cms.update(&element);
        }
    }

    // 7. Evaluate on the true cumulative counts.
    let truth = log.cumulative_counts(log.config().days - 1);
    let mut metrics = vec![
        ("opt-hash", ErrorMetrics::new()),
        ("heavy-hitter", ErrorMetrics::new()),
        ("count-min", ErrorMetrics::new()),
    ];
    for (id, f) in truth.iter() {
        let text = log.query_text(id).unwrap();
        let element = StreamElement::new(id, featurizer.transform(text));
        metrics[0].1.observe(f as f64, opt_hash.estimate(&element));
        metrics[1]
            .1
            .observe(f as f64, learned_cms.estimate(&element));
        metrics[2].1.observe(f as f64, count_min.estimate(&element));
    }

    println!("\nestimator      avg |err|    expected |err|   bytes");
    for (name, m) in &metrics {
        let bytes = match *name {
            "opt-hash" => opt_hash.space_bytes(),
            "heavy-hitter" => learned_cms.space_bytes(),
            _ => count_min.space_bytes(),
        };
        println!(
            "{name:<13} {:>10.2}   {:>14.2}   {bytes}",
            m.average_absolute_error(),
            m.expected_absolute_error()
        );
    }

    // 8. Per-rank error, the view Table 1 of the paper reports.
    println!("\nquery rank   true freq   opt-hash estimate   error %");
    for rank in [1usize, 10, 100, 1000] {
        if let Some((id, f)) = truth.frequency_at_rank(rank) {
            let text = log.query_text(id).unwrap();
            let element = StreamElement::new(id, featurizer.transform(text));
            let est = opt_hash.estimate(&element);
            println!(
                "{rank:>10}   {f:>9}   {est:>17.1}   {:>6.2}%",
                100.0 * (est - f as f64).abs() / f as f64
            );
        }
    }

    // 9. The paper's headline: at equal memory, opt-hash beats both
    //    baselines on both error metrics.
    let (opt, baselines) = metrics.split_first().expect("opt-hash is measured");
    let mut wins = true;
    for (name, m) in baselines {
        for (metric, ours, theirs) in [
            (
                "average",
                opt.1.average_absolute_error(),
                m.average_absolute_error(),
            ),
            (
                "expected",
                opt.1.expected_absolute_error(),
                m.expected_absolute_error(),
            ),
        ] {
            if ours >= theirs {
                eprintln!("opt-hash {metric} error {ours:.2} is not below {name}'s {theirs:.2}");
                wins = false;
            }
        }
    }
    if !wins {
        std::process::exit(1);
    }
}
