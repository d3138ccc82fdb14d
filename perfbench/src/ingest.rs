//! The ingest path: `IngestEngine<CountMinSketch>` fed flat out by one
//! producer while one reader queries snapshots on a fixed schedule.

use crate::report::Report;
use crate::sched::{self, Schedule};
use crate::stats::{median, Sample};
use crate::trace::Tracer;
use opthash_datagen::ZipfSampler;
use opthash_engine::{EngineConfig, IngestEngine};
use opthash_sketch::CountMinSketch;
use opthash_stream::{ElementId, StreamElement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Pre-generated arrivals, cycled by the producer.
const ARRIVALS: usize = 1 << 21;
/// Arrivals per `ingest_batch` call.
const CHUNK: usize = 4_096;
const WIDTH: usize = 8_192;
const DEPTH: usize = 4;
/// Scheduled reader wake-ups per second.
const QUERY_RATE: f64 = 1_000.0;
/// Snapshot queries per wake-up, each timed on its own.
const QUERY_BURST: usize = 4;
/// IDs checked against the sequential replay after the final flush.
const CHECK_IDS: usize = 2_000;
/// Engine constructions timed per run; the median is reported.
const SETUPS: usize = 51;
/// Chunks between `stats()` samples in the traced run.
const STATS_EVERY: usize = 16;
/// How long the reader may wait for the final flush to become visible.
const VISIBILITY_TIMEOUT: Duration = Duration::from_secs(5);

/// The arrival law of an ingest workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub universe: usize,
    pub exponent: f64,
}

pub const SKEWED: Shape = Shape {
    universe: 100_000,
    exponent: 1.3,
};
pub const WIDE: Shape = Shape {
    universe: 4_000_000,
    exponent: 0.9,
};

pub struct Input {
    seed: u64,
    arrivals: Vec<StreamElement>,
    /// Elements the reader queries, in order.
    probes: Vec<StreamElement>,
    check: Vec<ElementId>,
}

pub fn generate(shape: Shape, seed: u64) -> Input {
    let zipf = ZipfSampler::new(shape.universe, shape.exponent);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A6E57);
    let arrivals: Vec<StreamElement> = (0..ARRIVALS)
        .map(|_| StreamElement::without_features(zipf.sample(&mut rng) as u64))
        .collect();
    let pick = |rng: &mut StdRng| arrivals[rng.gen_range(0..ARRIVALS)].clone();
    let probes = (0..4_096).map(|_| pick(&mut rng)).collect();
    let check = (0..CHECK_IDS).map(|_| pick(&mut rng).id).collect();
    Input {
        seed,
        arrivals,
        probes,
        check,
    }
}

/// What the reader thread saw.
#[derive(Default)]
struct ReaderLog {
    latencies_ns: Vec<f64>,
    late_max_ns: u64,
    /// `(ns since start, mass_accounted)` at every change of the stamp.
    observed: Vec<(u64, u64)>,
    epoch_advances: u64,
}

/// Arrival-to-visibility latencies: for each chunk, from `ingest_batch`
/// returning (`chunks[i].1`) to the first reader observation whose
/// `mass_accounted` covers the chunk's cumulative mass (`chunks[i].0`).
/// Returns the latencies in nanoseconds and the number of chunks never
/// seen.
pub fn visibility(chunks: &[(u64, u64)], observed: &[(u64, u64)]) -> (Vec<f64>, usize) {
    let mut latencies = Vec::with_capacity(chunks.len());
    let mut j = 0;
    for &(mass, returned_ns) in chunks {
        while j < observed.len() && observed[j].1 < mass {
            j += 1;
        }
        match observed.get(j) {
            Some(&(seen_ns, _)) => latencies.push(seen_ns.saturating_sub(returned_ns) as f64),
            None => {
                let unseen = chunks.len() - latencies.len();
                return (latencies, unseen);
            }
        }
    }
    (latencies, 0)
}

fn new_engine(seed: u64) -> IngestEngine<CountMinSketch> {
    IngestEngine::new(
        CountMinSketch::new(WIDTH, DEPTH, seed),
        EngineConfig::default(),
    )
}

/// Runs the ingest path for `seconds`.
pub fn run(input: &Input, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let growth = crate::mem::Growth::start();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let start = Instant::now();
        engine = Some(tracer.span("engine.new", || new_engine(input.seed)));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut engine = engine.expect("at least one set-up");

    let reader = engine.snapshot_reader();
    let final_mass = AtomicU64::new(u64::MAX);
    let duration = Duration::from_secs_f64(seconds);
    let capacity = (seconds * 40_000.0) as usize;
    let mut chunks: Vec<(u64, u64)> = Vec::with_capacity(capacity);
    let mut queued = Vec::new();
    let mut buffered = Vec::new();
    let mut errors = 0u64;
    let mut reader_tracer = tracer.fork(2);
    let start = Instant::now();

    let (log, elapsed) = std::thread::scope(|scope| {
        let final_mass = &final_mass;
        let probes = &input.probes;
        let reader_tracer = &mut reader_tracer;
        let reader_thread = scope.spawn(move || {
            sched::tighten_timer_slack();
            let schedule = Schedule::new(start, QUERY_RATE);
            let mut log = ReaderLog::default();
            let mut last_mass = 0;
            let mut last_epochs = 0;
            let mut deadline = None;
            for i in 0.. {
                let due = schedule.due(i);
                let now = sched::wait_until(due);
                log.late_max_ns = log
                    .late_max_ns
                    .max(sched::lateness(due, now).as_nanos() as u64);
                let mut estimate = None;
                for k in 0..QUERY_BURST {
                    let probe = &probes[(i as usize * QUERY_BURST + k) % probes.len()];
                    let called = Instant::now();
                    let answer =
                        reader_tracer.span("engine.snapshot_query", || reader.query(probe));
                    log.latencies_ns.push(called.elapsed().as_nanos() as f64);
                    estimate = Some(answer);
                }
                let done = Instant::now();
                let estimate = estimate.expect("a burst issues at least one query");
                let stamp = estimate.stamp;
                if stamp.mass_accounted != last_mass {
                    last_mass = stamp.mass_accounted;
                    log.observed
                        .push(((done - start).as_nanos() as u64, last_mass));
                }
                let epochs: u64 = stamp.epoch_per_shard.iter().sum();
                log.epoch_advances += epochs.saturating_sub(last_epochs);
                last_epochs = epochs;
                let target = final_mass.load(Ordering::Acquire);
                if target != u64::MAX {
                    if last_mass >= target {
                        break;
                    }
                    let deadline = *deadline.get_or_insert(done + VISIBILITY_TIMEOUT);
                    if done > deadline {
                        break;
                    }
                }
            }
            log
        });

        let mut pos = 0;
        let mut mass = 0u64;
        while start.elapsed() < duration {
            let chunk = &input.arrivals[pos..pos + CHUNK];
            let open = tracer.open("engine.ingest_batch");
            let result = engine.ingest_batch(chunk);
            tracer.close(open);
            let returned = start.elapsed();
            if result.is_err() {
                errors += 1;
            }
            mass += CHUNK as u64;
            chunks.push((mass, returned.as_nanos() as u64));
            if tracer.enabled() && chunks.len().is_multiple_of(STATS_EVERY) {
                let stats = tracer.span("engine.stats", || engine.stats());
                queued.push(stats.queued_mass as f64);
                buffered.push(stats.buffered_mass as f64);
            }
            pos = (pos + CHUNK) % ARRIVALS;
        }
        if tracer.span("engine.flush", || engine.flush()).is_err() {
            errors += 1;
        }
        let elapsed = start.elapsed();
        final_mass.store(mass, Ordering::Release);
        (
            reader_thread.join().expect("reader thread panicked"),
            elapsed,
        )
    });
    report.path_cost(median(&setups), growth.mb());
    tracer.absorb(reader_tracer);

    let arrivals = chunks.last().map_or(0, |&(mass, _)| mass);
    let secs = elapsed.as_secs_f64();
    let stats = engine.stats();
    report.ops(chunks.len() as u64 + 1, errors);
    report.gate(errors == 0, || {
        format!("ingest: {errors} engine calls failed")
    });
    report.metric("ingest_mops", arrivals as f64 / secs / 1e6, "M/s");

    let queries = Sample::new(log.latencies_ns);
    report.ops(queries.len() as u64, 0);
    report.late_us(log.late_max_ns as f64 / 1e3);
    eprintln!("ingest: query latency {}", queries.describe("ns"));
    report.metric("query_p50_ns", queries.median(), "ns");
    match queries.tail(99.9, "query_p999_ns") {
        Ok(v) => report.metric("query_p999_ns", v, "ns"),
        Err(e) => report.fail(e),
    }

    let (visible, unseen) = visibility(&chunks, &log.observed);
    report.gate(unseen == 0, || {
        format!("ingest: {unseen} chunks never became visible to the reader")
    });
    let visible = Sample::new(visible.into_iter().map(|ns| ns / 1e6).collect());
    eprintln!("ingest: visibility {}", visible.describe("ms"));
    if !visible.is_empty() {
        report.metric("visible_p50_ms", visible.median(), "ms");
        match visible.tail(99.0, "visible_p99_ms") {
            Ok(v) => report.metric("visible_p99_ms", v, "ms"),
            Err(e) => report.fail(e),
        }
    }

    // Per-layer numbers.
    let calls = Sample::new(tracer.durations_ns("engine.ingest_batch"));
    if tracer.enabled() && !calls.is_empty() {
        report.metric("engine.ingest_call_us.p50", calls.median() / 1e3, "us");
        report.metric(
            "engine.ingest_call_us.p99",
            calls.percentile(99.0) / 1e3,
            "us",
        );
        report.metric(
            "engine.aggregation_factor",
            stats.aggregation_factor(),
            "ratio",
        );
        report.metric(
            "engine.applied_per_s",
            stats.applied_updates as f64 / secs,
            "1/s",
        );
        report.metric(
            "engine.queued_mass.p99",
            Sample::new(queued).percentile(99.0),
            "count",
        );
        report.metric(
            "engine.buffered_mass.p50",
            Sample::new(buffered).median(),
            "count",
        );
        report.metric(
            "engine.epochs_per_s",
            log.epoch_advances as f64 / secs,
            "1/s",
        );
        let flush = tracer.durations_ns("engine.flush");
        report.metric(
            "engine.flush_ms",
            flush.last().copied().unwrap_or(0.0) / 1e6,
            "ms",
        );
        report.metric(
            "engine.new_ms",
            median(&tracer.durations_ns("engine.new")) / 1e6,
            "ms",
        );
    }
    eprintln!(
        "ingest: {arrivals} arrivals in {secs:.3} s, aggregation {:.1}, {} epoch advances, \
         reader late by at most {} us",
        stats.aggregation_factor(),
        log.epoch_advances,
        log.late_max_ns / 1_000
    );

    // Gates: the snapshot accounts for all mass, and the flushed engine
    // equals a sequential replay of the same arrivals.
    report.gate(stats.unaccounted_mass() == 0, || {
        format!(
            "ingest: unaccounted mass {} after flush",
            stats.unaccounted_mass()
        )
    });
    let replay = replay(input, arrivals as usize, tracer, report);
    let mut mismatches = 0;
    for &id in &input.check {
        let element = StreamElement::without_features(id);
        let got = engine.query_synced(&element);
        if got.ok() != Some(replay.query(id) as f64) {
            mismatches += 1;
        }
    }
    report.ops(input.check.len() as u64, mismatches);
    report.gate(mismatches == 0, || {
        format!("ingest: {mismatches} of {CHECK_IDS} IDs differ from the sequential replay")
    });
    let finished = engine.finish();
    report.gate(finished.is_ok(), || {
        "ingest: engine finish failed".to_owned()
    });
}

/// The sequential Count-Min over the first `arrivals` arrivals of the
/// cycled input. One plain update pass over the buffer is timed as the
/// single-threaded baseline.
fn replay(
    input: &Input,
    arrivals: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> CountMinSketch {
    let mut once = CountMinSketch::new(WIDTH, DEPTH, input.seed);
    let start = Instant::now();
    for element in &input.arrivals {
        once.add(std::hint::black_box(element.id), 1);
    }
    let secs = start.elapsed().as_secs_f64();
    if tracer.enabled() {
        report.metric(
            "sketch.single_thread_mops",
            ARRIVALS as f64 / secs / 1e6,
            "M/s",
        );
        let mut query_ns = Vec::with_capacity(input.check.len());
        for &id in &input.check {
            let start = Instant::now();
            std::hint::black_box(once.query(std::hint::black_box(id)));
            query_ns.push(start.elapsed().as_nanos() as f64);
        }
        report.metric("sketch.query_ns.p50", median(&query_ns), "ns");
    }
    let mut total = once.clone_empty();
    for _ in 0..arrivals / ARRIVALS {
        total.merge(&once);
    }
    for element in &input.arrivals[..arrivals % ARRIVALS] {
        total.add(element.id, 1);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_waits_for_the_covering_observation() {
        let chunks = [(10, 100), (20, 150), (30, 400)];
        let observed = [(120, 5), (200, 25), (500, 30)];
        let (latencies, unseen) = visibility(&chunks, &observed);
        assert_eq!(latencies, vec![100.0, 50.0, 100.0]);
        assert_eq!(unseen, 0);
    }

    #[test]
    fn visibility_counts_never_seen_chunks() {
        let (latencies, unseen) = visibility(&[(10, 0), (20, 0)], &[(5, 10)]);
        assert_eq!(latencies, vec![5.0]);
        assert_eq!(unseen, 1);
    }

    #[test]
    fn an_observation_before_the_return_counts_as_immediate() {
        let (latencies, _) = visibility(&[(10, 100)], &[(90, 10)]);
        assert_eq!(latencies, vec![0.0]);
    }
}
