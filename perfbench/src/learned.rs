//! The learned path: the paper's query-log pipeline. `OptHash` is trained
//! cold on one day of the log, then the following days replay through a
//! `Retrainer` that re-solves and hot-swaps at every day boundary.

use crate::report::Report;
use crate::stats::{median, Sample};
use crate::trace::Tracer;
use opthash::solver::BcdConfig;
use opthash::{OptHash, OptHashBuilder, SolverKind};
use opthash_datagen::{QueryLogConfig, QueryLogDataset};
use opthash_engine::{EngineConfig, RetrainConfig, Retrainer};
use opthash_ml::TextFeaturizer;
use opthash_stream::{ElementId, ErrorMetrics, Features, SpaceBudget, StreamElement, StreamPrefix};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// The query universe (texts and popularity) is one fixed log, as the
/// paper's AOL log is; a run's seed picks which days of it are replayed.
const LOG_SEED: u64 = 0x9E37;
/// Distinct day windows a seed can pick.
const DAY_OFFSETS: u64 = 4_096;
const QUERIES: usize = 30_000;
const ARRIVALS_PER_DAY: usize = 15_000;
const VOCABULARY: usize = 500;
const BUDGET_KB: f64 = 4.0;
/// Bucket-to-stored-ID ratio `c` of the paper's Section 7.3.
const RATIO_C: f64 = 0.3;
/// Set-ups (featurizer fit + prefix build) timed per run.
const SETUPS: usize = 3;
/// Cold trains timed before the replay (one more at every day boundary).
const COLD_TRAINS: usize = 3;

pub struct Input {
    seed: u64,
    log: QueryLogDataset,
    /// The day the scheme is trained on.
    train_day: usize,
    /// Arrival IDs of the days replayed after it.
    days: Vec<Vec<ElementId>>,
}

pub fn generate(days: usize, seed: u64) -> Input {
    let train_day = (seed % DAY_OFFSETS) as usize;
    let log = QueryLogDataset::generate(QueryLogConfig {
        num_queries: QUERIES,
        days: train_day + days + 1,
        arrivals_per_day: ARRIVALS_PER_DAY,
        zipf_exponent: 1.0,
        seed: LOG_SEED,
    });
    let days = (train_day + 1..=train_day + days)
        .map(|day| log.day_stream(day).iter().map(|e| e.id).collect())
        .collect();
    Input {
        seed,
        log,
        train_day,
        days,
    }
}

/// The featurizer and the training day's prefix.
struct Prepared {
    featurizer: TextFeaturizer,
    features: HashMap<ElementId, Features>,
    prefix: StreamPrefix,
}

impl Prepared {
    fn new(log: &QueryLogDataset, train_day: usize) -> Self {
        let day = log.day_counts(train_day);
        let text = |id: ElementId| log.query_text(id).expect("every arrival is a logged query");
        let featurizer = TextFeaturizer::fit(day.iter().map(|(id, _)| text(id)), VOCABULARY);
        let features: HashMap<ElementId, Features> = day
            .iter()
            .map(|(id, _)| (id, featurizer.transform(text(id))))
            .collect();
        let prefix = StreamPrefix::from_counts(
            day.iter()
                .map(|(id, count)| (StreamElement::new(id, features[&id].clone()), count))
                .collect(),
        );
        Prepared {
            featurizer,
            features,
            prefix,
        }
    }

    fn element(&mut self, log: &QueryLogDataset, id: ElementId) -> StreamElement {
        let featurizer = &self.featurizer;
        let features = self.features.entry(id).or_insert_with(|| {
            featurizer.transform(log.query_text(id).expect("every arrival is a logged query"))
        });
        StreamElement::new(id, features.clone())
    }
}

fn cold_train(prefix: &StreamPrefix, seed: u64) -> OptHash {
    OptHashBuilder::from_budget(SpaceBudget::from_kb(BUDGET_KB), RATIO_C)
        .solver(SolverKind::Bcd(BcdConfig::default().with_warm_start()))
        .seed(seed)
        .train(prefix)
}

/// A cold train, its wall time appended to `trains`.
fn timed_cold_train(
    prefix: &StreamPrefix,
    seed: u64,
    tracer: &mut Tracer,
    trains: &mut Vec<f64>,
) -> OptHash {
    let start = Instant::now();
    let trained = tracer.span("core.train", || cold_train(prefix, seed));
    trains.push(start.elapsed().as_secs_f64());
    trained
}

/// The exact counts a freshly published scheme holds: its stored IDs'
/// counts in the prefix it was trained (and seeded) on.
fn seeded_counts(
    scheme: &OptHash,
    prefix: impl Iterator<Item = (ElementId, u64)>,
) -> HashMap<ElementId, u64> {
    prefix.filter(|(id, _)| scheme.is_stored(*id)).collect()
}

/// Runs the learned path.
pub fn run(input: &Input, tracer: &mut Tracer, report: &mut Report) {
    let growth = crate::mem::Growth::start();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(tracer.span("ml.featurize", || {
            Prepared::new(&input.log, input.train_day)
        }));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");

    // The cold train is short: it is timed again at every day boundary and
    // the median is reported, so one slow moment of the host does not set it.
    let mut trains = Vec::with_capacity(COLD_TRAINS + input.days.len());
    let mut initial = timed_cold_train(&prepared.prefix, input.seed, tracer, &mut trains);
    for _ in 1..COLD_TRAINS {
        initial = timed_cold_train(&prepared.prefix, input.seed, tracer, &mut trains);
    }
    let cold = initial.stats().clone();
    let mut objectives = vec![cold.objective];
    let mut accuracies = vec![cold.classifier_train_accuracy];
    let mut fits_ms = vec![cold.classifier_time.as_secs_f64() * 1e3];

    // Training happens only at the benchmark's day boundaries.
    let config = RetrainConfig {
        retrain_interval: usize::MAX,
        ..RetrainConfig::default()
    };
    let mut absorbed = seeded_counts(
        &initial,
        prepared
            .prefix
            .elements()
            .iter()
            .zip(prepared.prefix.frequencies())
            .map(|(e, &f)| (e.id, f)),
    );
    let mut retrainer = Retrainer::new(initial, EngineConfig::default(), config);
    let mut window: VecDeque<ElementId> = VecDeque::with_capacity(config.window);
    let mut window_counts: HashMap<ElementId, u64> = HashMap::new();
    let mut errors = ErrorMetrics::new();
    let (mut probes, mut stored_probes) = (0u64, 0u64);
    let mut failures = 0u64;
    let mut retrain_s = Vec::new();
    let mut swap_ms = Vec::new();
    // Per warm solve: solver ms, sweeps, moves evaluated, restarts aborted.
    let mut warm: [Vec<f64>; 4] = Default::default();

    for day in &input.days {
        for &id in day {
            let element = prepared.element(&input.log, id);
            if tracer
                .span("engine.retrainer_ingest", || retrainer.ingest(&element))
                .is_err()
            {
                failures += 1;
            }
            *absorbed.entry(id).or_insert(0) += 1;
            if window.len() == config.window {
                let evicted = window.pop_front().expect("window is full");
                let count = window_counts
                    .get_mut(&evicted)
                    .expect("windowed id is counted");
                *count -= 1;
                if *count == 0 {
                    window_counts.remove(&evicted);
                }
            }
            window.push_back(id);
            *window_counts.entry(id).or_insert(0) += 1;
        }

        // Evaluate the live scheme against everything it has absorbed.
        let scheme = retrainer.scheme();
        let mut ids: Vec<ElementId> = absorbed.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let element = prepared.element(&input.log, id);
            match tracer.span("core.query", || retrainer.query(&element)) {
                Ok(estimate) => errors.observe(absorbed[&id] as f64, estimate),
                Err(_) => failures += 1,
            }
            probes += 1;
            stored_probes += u64::from(scheme.estimator.is_stored(id));
        }

        timed_cold_train(&prepared.prefix, input.seed, tracer, &mut trains);
        let start = Instant::now();
        let swapped = tracer.span("engine.retrain_now", || retrainer.retrain_now());
        let elapsed = start.elapsed();
        if !matches!(swapped, Ok(true)) {
            failures += 1;
        }
        retrain_s.push(elapsed.as_secs_f64());
        let scheme = retrainer.scheme();
        let stats = scheme.estimator.stats();
        swap_ms.push(elapsed.saturating_sub(stats.total_time).as_secs_f64() * 1e3);
        objectives.push(stats.objective);
        accuracies.push(stats.classifier_train_accuracy);
        fits_ms.push(stats.classifier_time.as_secs_f64() * 1e3);
        let solve = scheme.solver_stats();
        let values = [
            stats.solver_time.as_secs_f64() * 1e3,
            solve.iterations as f64,
            solve.moves_evaluated as f64,
            solve.restarts_aborted as f64,
        ];
        for (series, value) in warm.iter_mut().zip(values) {
            series.push(value);
        }
        let unaccounted = retrainer.engine_stats().unaccounted_mass();
        report.gate(unaccounted == 0, || {
            format!(
                "learned: unaccounted mass {unaccounted} after swap {}",
                scheme.version
            )
        });
        absorbed = seeded_counts(
            &scheme.estimator,
            window_counts.iter().map(|(&id, &c)| (id, c)),
        );
        drop(retrainer.take_retired());
    }
    report.path_cost(median(&setups), growth.mb());

    let train_s = median(&trains);
    report.metric("train_s", train_s, "s");
    report.ops(probes + input.days.len() as u64 + 1, failures);
    report.gate(failures == 0, || {
        format!("learned: {failures} calls failed")
    });
    let (avg, expected) = (
        errors.average_absolute_error(),
        errors.expected_absolute_error(),
    );
    report.gate(
        avg.is_finite() && expected.is_finite() && probes > 0,
        || format!("learned: errors are not finite ({avg}, {expected})"),
    );
    report.metric("avg_error", avg, "count");
    report.metric("expected_error", expected, "count");
    let retrains = Sample::new(retrain_s);
    eprintln!(
        "learned: cold train {train_s:.3} s; retrain_now {}; avg error {avg:.3}, expected {expected:.3} over {probes} probes",
        retrains.describe("s")
    );
    report.metric("retrain_s", retrains.median(), "s");
    let finished = retrainer.finish();
    report.gate(finished.is_ok(), || {
        "learned: retrainer finish failed".to_owned()
    });

    if tracer.enabled() {
        let [warm_ms, sweeps, moves, aborted] = warm.map(|series| median(&series));
        report.metric("engine.swap_ms", median(&swap_ms), "ms");
        report.metric("solver.cold_ms", cold.solver_time.as_secs_f64() * 1e3, "ms");
        report.metric("solver.warm_ms.p50", warm_ms, "ms");
        report.metric("solver.sweeps", sweeps, "count");
        report.metric("solver.moves_evaluated", moves, "count");
        report.metric("solver.restarts_aborted", aborted, "count");
        let mean_objective = objectives.iter().sum::<f64>() / objectives.len() as f64;
        report.metric("solver.objective", mean_objective, "count");
        report.metric(
            "ml.featurize_ms",
            median(&tracer.durations_ns("ml.featurize")) / 1e6,
            "ms",
        );
        report.metric("ml.fit_ms", median(&fits_ms), "ms");
        report.metric("ml.train_accuracy", median(&accuracies), "ratio");
        report.metric(
            "core.stored_share",
            stored_probes as f64 / probes.max(1) as f64,
            "ratio",
        );
    }
}
