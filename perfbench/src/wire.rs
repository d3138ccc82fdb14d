//! The serving path: `SketchServer` on loopback over a budgeted
//! `SketchRegistry` of mixed tenants, driven by two client connections.
//!
//! Both connections run each of three phases at the same time, each driven
//! by one thread over a non-blocking socket: (a) an open-loop ADD/QUERY
//! mix at a fixed offered rate, timed from each command's due time; (b) an
//! interactive phase with one outstanding command; (c) a ladder of offered
//! rates, from which the highest sustainable rate is taken.

use crate::report::Report;
use crate::sched::{self, Rung, Schedule};
use crate::stats::{median, Histogram, Sample};
use crate::trace::Tracer;
use opthash_datagen::{MixedTenantConfig, MixedTenantWorkload, TenantClass};
use opthash_registry::{BackendSpec, Command, RegistryConfig, SketchRegistry, SketchServer};
use opthash_stream::SpaceBudget;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TENANTS: usize = 1_000;
/// About a quarter of the fleet's full-width footprint, so the governor
/// folds grids while the load runs.
const BUDGET_KB: f64 = 3_000.0;
const CONNECTIONS: usize = 2;
/// Phase (a) offered rate per connection, commands per second.
const RATE_A: f64 = 1_000.0;
/// Phase (c) offered rates per connection, commands per second: two low
/// rungs, then steps of 2^(1/4) where loopback saturates.
const LADDER: [f64; 17] = [
    8_000.0, 32_000.0, 64_000.0, 76_000.0, 91_000.0, 108_000.0, 128_000.0, 152_000.0, 181_000.0,
    215_000.0, 256_000.0, 304_000.0, 362_000.0, 431_000.0, 512_000.0, 609_000.0, 724_000.0,
];
/// Tail-latency limit a ladder rung must meet.
const P99_LIMIT_US: f64 = 10_000.0;
/// Every `QUERY_EVERY`-th command is a QUERY of a recently added element.
const QUERY_EVERY: usize = 5;
/// Server constructions (bind + CREATE fleet) timed per run.
const SETUPS: usize = 3;
/// Longest wait for outstanding replies after a phase ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Bytes a client queues unsent before it stops issuing; what is due
/// beyond that still counts as backlog.
const MAX_UNSENT: usize = 1 << 18;
/// Idle poll interval of a client thread.
const IDLE: Duration = Duration::from_micros(50);

/// How long each phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub open_loop_s: f64,
    pub interactive_s: f64,
    pub rung_s: f64,
}

impl Plan {
    /// Script lines one connection needs for phases (a) and (b); the ladder
    /// cycles through the script again. A repeated QUERY still may not
    /// answer below its recorded count, which only grows.
    fn commands(&self) -> usize {
        (RATE_A * self.open_loop_s) as usize + (self.interactive_s / 0.01) as usize + 64
    }
}

/// What a reply must look like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Ok,
    /// A QUERY answer; Count-Min tenants must answer at least `at_least`,
    /// the count this connection added before asking.
    Estimate {
        count_min: bool,
        at_least: u64,
    },
}

struct Script {
    lines: Vec<String>,
    expect: Vec<Expect>,
}

pub struct Input {
    seed: u64,
    creates: Vec<String>,
    scripts: Vec<Script>,
}

fn spec_for(class: TenantClass) -> BackendSpec {
    match class {
        TenantClass::Telemetry => BackendSpec::CountMin {
            width: 1024,
            depth: 4,
        },
        TenantClass::Search => BackendSpec::CountSketch {
            width: 512,
            depth: 4,
        },
        TenantClass::Groups => BackendSpec::CountMin {
            width: 512,
            depth: 4,
        },
    }
}

pub fn generate(plan: Plan, seed: u64) -> Input {
    let workload = MixedTenantWorkload::new(MixedTenantConfig {
        tenants: TENANTS,
        seed,
        ..MixedTenantConfig::default()
    });
    let creates = (0..TENANTS)
        .map(|i| {
            let spec = spec_for(workload.class_of(i));
            format!("CREATE {} {spec}\n", workload.tenant_name(i))
        })
        .collect();
    let per_connection = plan.commands();
    let scripts = (0..CONNECTIONS)
        .map(|c| {
            let stream_seed = seed.wrapping_mul(31).wrapping_add(c as u64 + 1);
            let mut lines = Vec::with_capacity(per_connection);
            let mut expect = Vec::with_capacity(per_connection);
            let mut sent: HashMap<(usize, u64), u64> = HashMap::new();
            let mut recent: VecDeque<(usize, u64)> = VecDeque::new();
            for arrival in workload.arrivals_from(per_connection, stream_seed) {
                if lines.len() % QUERY_EVERY == QUERY_EVERY - 1 {
                    if let Some(&(tenant, id)) = recent.front() {
                        lines.push(format!("QUERY {} {id}\n", workload.tenant_name(tenant)));
                        expect.push(Expect::Estimate {
                            count_min: workload.class_of(tenant) != TenantClass::Search,
                            at_least: sent[&(tenant, id)],
                        });
                        continue;
                    }
                }
                let id = arrival.element.id.raw();
                lines.push(format!(
                    "ADD {} {id}\n",
                    workload.tenant_name(arrival.tenant)
                ));
                expect.push(Expect::Ok);
                *sent.entry((arrival.tenant, id)).or_insert(0) += 1;
                recent.push_back((arrival.tenant, id));
                if recent.len() > 8 {
                    recent.pop_front();
                }
            }
            Script { lines, expect }
        })
        .collect();
    Input {
        seed,
        creates,
        scripts,
    }
}

fn registry_config(seed: u64) -> RegistryConfig {
    RegistryConfig::default()
        .budget(SpaceBudget::from_kb(BUDGET_KB))
        .min_width(64)
        .govern_interval(4_096)
        .default_seed(seed)
}

fn check_reply(reply: &str, expect: Expect) -> bool {
    match expect {
        Expect::Ok => reply == "OK",
        Expect::Estimate {
            count_min,
            at_least,
        } => match reply.strip_prefix("OK ").map(str::parse::<f64>) {
            Some(Ok(estimate)) => !count_min || estimate >= at_least as f64,
            _ => false,
        },
    }
}

/// One client connection with its own script.
struct Client<'a> {
    stream: TcpStream,
    script: &'a Script,
    next: usize,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Due time and script index of every command sent and not answered.
    inflight: VecDeque<(Instant, usize)>,
    failures: u64,
    answered: u64,
}

/// What one open-loop phase measured on one connection. Latencies are
/// kept exactly for phase (a) and in a fixed-size histogram for the ladder,
/// whose sample counts grow with its rates.
#[derive(Debug, Default, Clone)]
struct Phase {
    samples_us: Vec<f64>,
    histogram: Histogram,
    late_max_us: f64,
    backlog_mid: u64,
    backlog_end: u64,
}

impl<'a> Client<'a> {
    fn connect(addr: SocketAddr, script: &'a Script) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        // The load generator sends each command at once, as load generators
        // do; the server's sockets keep the server's own settings.
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            script,
            next: 0,
            rbuf: Vec::with_capacity(1 << 16),
            wbuf: Vec::with_capacity(1 << 16),
            wpos: 0,
            inflight: VecDeque::new(),
            failures: 0,
            answered: 0,
        })
    }

    fn queue(&mut self, due: Instant) {
        let index = self.next % self.script.lines.len();
        self.next += 1;
        self.wbuf
            .extend_from_slice(self.script.lines[index].as_bytes());
        self.inflight.push_back((due, index));
    }

    /// Writes what the socket takes; true when progress was made.
    fn write_some(&mut self) -> std::io::Result<bool> {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(progressed)
    }

    /// Reads available replies, matching them to the oldest outstanding
    /// commands; `on_reply` gets each command's due time and the reply
    /// time. True when progress was made.
    fn read_some(&mut self, mut on_reply: impl FnMut(Instant, Instant)) -> std::io::Result<bool> {
        let mut buf = [0u8; 1 << 15];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if !progressed {
            return Ok(false);
        }
        let now = Instant::now();
        let mut start = 0;
        while let Some(offset) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.rbuf[start..start + offset]).into_owned();
            start += offset + 1;
            let Some((due, index)) = self.inflight.pop_front() else {
                self.failures += 1;
                continue;
            };
            self.answered += 1;
            if !check_reply(&line, self.script.expect[index]) {
                self.failures += 1;
                if self.failures <= 3 {
                    eprintln!(
                        "wire: bad reply {line:?} to {:?}",
                        self.script.lines[index].trim()
                    );
                }
            }
            on_reply(due, now);
        }
        self.rbuf.drain(..start);
        Ok(true)
    }

    /// Sends commands at `rate` per second for `seconds`, then waits for
    /// every reply.
    fn open_loop(&mut self, rate: f64, seconds: f64, keep_samples: bool) -> std::io::Result<Phase> {
        let start = Instant::now();
        let schedule = Schedule::new(start, rate);
        let total = (rate * seconds).round() as u64;
        let mid = start + Duration::from_secs_f64(seconds / 2.0);
        let end = start + Duration::from_secs_f64(seconds);
        let mut phase = Phase::default();
        if keep_samples {
            phase.samples_us.reserve(total as usize);
        }
        let (mut took_mid, mut took_end) = (false, false);
        let mut issued = 0u64;
        loop {
            let now = Instant::now();
            while issued < total
                && schedule.due(issued) <= now
                && self.wbuf.len() - self.wpos < MAX_UNSENT
            {
                let due = schedule.due(issued);
                phase.late_max_us = phase
                    .late_max_us
                    .max(sched::lateness(due, now).as_nanos() as f64 / 1e3);
                self.queue(due);
                issued += 1;
            }
            let wrote = self.write_some()?;
            let (samples, histogram) = (&mut phase.samples_us, &mut phase.histogram);
            let read = self.read_some(|due, done| {
                let us = sched::latency_from_due(due, done).as_nanos() as f64 / 1e3;
                histogram.record(us);
                if keep_samples {
                    samples.push(us);
                }
            })?;
            let backlog = |client: &Self, at: Instant| {
                client.inflight.len() as u64 + schedule.due_by(at - start).min(total) - issued
            };
            if !took_mid && now >= mid {
                phase.backlog_mid = backlog(self, now);
                took_mid = true;
            }
            if !took_end && now >= end {
                phase.backlog_end = backlog(self, now);
                took_end = true;
            }
            if issued == total && self.inflight.is_empty() && self.wbuf.is_empty() {
                return Ok(phase);
            }
            if now > end + DRAIN_TIMEOUT {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "replies never drained",
                ));
            }
            if !wrote && !read {
                let wait = if issued < total {
                    schedule
                        .due(issued)
                        .saturating_duration_since(now)
                        .min(IDLE)
                } else {
                    IDLE
                };
                std::thread::sleep(wait);
            }
        }
    }

    /// One command at a time for `seconds`; returns round trips, us.
    fn interactive(&mut self, seconds: f64) -> std::io::Result<Vec<f64>> {
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let mut rtts = Vec::new();
        while Instant::now() < end {
            let sent = Instant::now();
            self.queue(sent);
            while !self.inflight.is_empty() {
                let wrote = self.write_some()?;
                let read = self.read_some(|due, done| {
                    rtts.push(sched::latency_from_due(due, done).as_nanos() as f64 / 1e3);
                })?;
                if sent.elapsed() > DRAIN_TIMEOUT {
                    return Err(std::io::Error::new(ErrorKind::TimedOut, "no reply"));
                }
                if !wrote && !read {
                    std::thread::sleep(IDLE);
                }
            }
        }
        Ok(rtts)
    }

    /// Sends `lines` pipelined and returns their replies.
    fn pipeline(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        let mut out = Vec::with_capacity(lines.len());
        for line in lines {
            self.wbuf.extend_from_slice(line.as_bytes());
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while out.len() < lines.len() {
            self.write_some()?;
            let mut buf = [0u8; 1 << 15];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(IDLE),
                Err(e) => return Err(e),
            }
            while let Some(offset) = self.rbuf.iter().position(|&b| b == b'\n') {
                out.push(String::from_utf8_lossy(&self.rbuf[..offset]).into_owned());
                self.rbuf.drain(..=offset);
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "pipeline stalled"));
            }
        }
        Ok(out)
    }
}

/// Binds a server and creates the tenant fleet over the wire.
fn set_up<'a>(input: &'a Input) -> std::io::Result<(SketchServer, Client<'a>, Vec<String>)> {
    let registry = SketchRegistry::new(registry_config(input.seed));
    let server = SketchServer::bind("127.0.0.1:0", registry)?;
    let mut client = Client::connect(server.local_addr(), &input.scripts[0])?;
    let replies = client.pipeline(&input.creates)?;
    Ok((server, client, replies))
}

/// Everything the connections measured.
#[derive(Default)]
struct Measured {
    open_loop: Vec<f64>,
    interactive: Vec<f64>,
    rungs: Vec<Rung>,
    late_max_us: f64,
}

/// One ladder rung over every connection's part of it.
fn combine_rung(rate: f64, parts: &[Phase]) -> Rung {
    let mut histogram = Histogram::default();
    for part in parts {
        histogram.merge(&part.histogram);
    }
    Rung {
        offered_cps: rate * parts.len() as f64,
        p99_us: histogram.percentile(99.0),
        backlog_mid: parts.iter().map(|p| p.backlog_mid).sum(),
        backlog_end: parts.iter().map(|p| p.backlog_end).sum(),
    }
}

/// Runs `phase` on every connection at once, one thread each.
fn on_each<T: Send>(
    clients: &mut [Client<'_>],
    phase: impl Fn(&mut Client<'_>) -> std::io::Result<T> + Sync,
) -> std::io::Result<Vec<T>> {
    std::thread::scope(|scope| {
        let phase = &phase;
        let threads: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || phase(client)))
            .collect();
        threads
            .into_iter()
            .map(|thread| thread.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs the connections through phases (a) and (b), and through the
/// ladder (c) when `ladder` is set.
fn drive(clients: &mut [Client<'_>], plan: Plan, ladder: bool) -> std::io::Result<Measured> {
    let mut measured = Measured::default();
    for phase in on_each(clients, |c| c.open_loop(RATE_A, plan.open_loop_s, true))? {
        measured.open_loop.extend(phase.samples_us);
        measured.late_max_us = measured.late_max_us.max(phase.late_max_us);
    }
    for rtts in on_each(clients, |c| c.interactive(plan.interactive_s))? {
        measured.interactive.extend(rtts);
    }
    // A stall can fail a rung, so a failed rung runs once more; two failed
    // rungs in a row end the ladder.
    let mut failed_in_a_row = 0;
    for &rate in LADDER.iter().filter(|_| ladder) {
        let mut rung = combine_rung(
            rate,
            &on_each(clients, |c| c.open_loop(rate, plan.rung_s, false))?,
        );
        if !rung.sustainable(P99_LIMIT_US) {
            rung = combine_rung(
                rate,
                &on_each(clients, |c| c.open_loop(rate, plan.rung_s, false))?,
            );
        }
        measured.rungs.push(rung);
        if rung.sustainable(P99_LIMIT_US) {
            failed_in_a_row = 0;
        } else {
            failed_in_a_row += 1;
            if failed_in_a_row == 2 {
                break;
            }
        }
    }
    Ok(measured)
}

/// Runs the serving path.
pub fn run(input: &Input, plan: Plan, tracer: &mut Tracer, report: &mut Report) {
    let growth = crate::mem::Growth::start();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((server, client, _)) = live.take() {
            drop::<Client>(client);
            SketchServer::shutdown(server);
        }
        let start = Instant::now();
        match tracer.span("server.setup", || set_up(input)) {
            Ok(ready) => live = Some(ready),
            Err(e) => {
                report.fail(format!("wire: set-up failed: {e}"));
                return;
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let (server, first, replies) = live.expect("at least one set-up");
    let created_ok = replies.iter().filter(|r| r.starts_with("OK ")).count();
    report.ops(replies.len() as u64, (replies.len() - created_ok) as u64);
    report.gate(created_ok == TENANTS, || {
        format!("wire: {created_ok} of {TENANTS} CREATEs answered OK")
    });

    let second = match Client::connect(server.local_addr(), &input.scripts[1]) {
        Ok(client) => client,
        Err(e) => {
            report.fail(format!("wire: second connection failed: {e}"));
            return;
        }
    };
    let mut clients = [first, second];
    // The ladder feeds only `server.max_cps`, a per-layer number.
    let driven = drive(&mut clients, plan, tracer.enabled());
    report.path_cost(median(&setups), growth.mb());
    let (commands, failures) = clients
        .iter()
        .fold((0, 0), |(n, f), c| (n + c.answered, f + c.failures));
    report.ops(commands, failures);
    report.gate(failures == 0, || {
        format!("wire: {failures} replies were wrong or not OK")
    });
    let measured = match driven {
        Ok(measured) => measured,
        Err(e) => {
            report.fail(format!("wire: connection error: {e}"));
            Measured::default()
        }
    };
    report.late_us(measured.late_max_us);

    let open_loop = Sample::new(measured.open_loop);
    let interactive = Sample::new(measured.interactive);
    eprintln!(
        "wire: open loop {} at {RATE_A} cmd/s/conn",
        open_loop.describe("us")
    );
    eprintln!("wire: interactive {}", interactive.describe("us"));
    for rung in &measured.rungs {
        eprintln!(
            "wire: rung {} cmd/s p99 {:.1} us backlog {} -> {}",
            rung.offered_cps, rung.p99_us, rung.backlog_mid, rung.backlog_end
        );
    }
    if !open_loop.is_empty() {
        report.metric("wire_p50_us", open_loop.median(), "us");
        match open_loop.tail(99.0, "wire_p99_us") {
            Ok(v) => report.metric("wire_p99_us", v, "us"),
            Err(e) => report.fail(e),
        }
    }
    if !interactive.is_empty() {
        report.metric("wire_rtt_p50_us", interactive.median(), "us");
    }
    if tracer.enabled() {
        let max_cps = sched::max_sustainable(&measured.rungs, P99_LIMIT_US).unwrap_or(0.0);
        report.metric("server.max_cps", max_cps, "cmd/s");
    }

    // The final audit, over the wire.
    let audit = Client::connect(server.local_addr(), &input.scripts[0])
        .and_then(|mut client| client.pipeline(&["STATS\n".to_owned()]));
    let unaccounted = audit.as_ref().ok().and_then(|replies| {
        replies[0]
            .split_whitespace()
            .find_map(|field| field.strip_prefix("unaccounted="))
            .map(str::to_owned)
    });
    report.gate(unaccounted.as_deref() == Some("0"), || {
        format!("wire: STATS audit reported unaccounted={unaccounted:?}")
    });
    let stats = server
        .registry()
        .lock()
        .expect("registry lock poisoned")
        .stats();
    eprintln!(
        "wire: {} governor passes, {} folds, {} evictions, live {} of {} bytes",
        stats.governor_passes, stats.folds, stats.evictions, stats.live_bytes, stats.budget_bytes
    );
    server.shutdown();

    if tracer.enabled() {
        report.metric(
            "registry.governor_passes",
            stats.governor_passes as f64,
            "count",
        );
        report.metric("registry.folds", stats.folds as f64, "count");
        report.metric("registry.evictions", stats.evictions as f64, "count");
        replica(input, plan, tracer, report);
    }
}

/// Replays the CREATEs and the open-loop part of both scripts against an
/// in-process registry, timing `Command::parse` and `Command::execute`.
fn replica(input: &Input, plan: Plan, tracer: &mut Tracer, report: &mut Report) {
    let mut registry = SketchRegistry::new(registry_config(input.seed));
    let mut governed_ns = Vec::new();
    let open_loop_lines = (RATE_A * plan.open_loop_s) as usize;
    let interleaved =
        (0..open_loop_lines).flat_map(|i| input.scripts.iter().map(move |s| s.lines[i].as_str()));
    for line in input.creates.iter().map(String::as_str).chain(interleaved) {
        let command = match tracer.span("protocol.parse", || Command::parse(line)) {
            Ok(command) => command,
            Err(e) => {
                report.fail(format!("wire replica: parse failed on {line:?}: {e}"));
                continue;
            }
        };
        let passes = registry.stats().governor_passes;
        let start = Instant::now();
        tracer.span("registry.execute", || command.execute(&mut registry));
        let ns = start.elapsed().as_nanos() as f64;
        if registry.stats().governor_passes != passes {
            governed_ns.push(ns);
        }
    }
    let parse = Sample::new(tracer.durations_ns("protocol.parse"));
    let execute = Sample::new(tracer.durations_ns("registry.execute"));
    report.metric("protocol.parse_ns.p50", parse.median(), "ns");
    report.metric("registry.execute_ns.p50", execute.median(), "ns");
    report.metric("registry.execute_ns.p99", execute.percentile(99.0), "ns");
    let governed = Sample::new(governed_ns);
    report.metric(
        "registry.govern_ms.p99",
        if governed.is_empty() {
            0.0
        } else {
            governed.percentile(99.0) / 1e6
        },
        "ms",
    );
    if let Some(wire_p50) = report.get("wire_p50_us") {
        let overhead = wire_p50 - (parse.median() + execute.median()) / 1e3;
        report.metric("server.overhead_us.p50", overhead, "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_checked_against_the_exact_lower_bound() {
        let cm = Expect::Estimate {
            count_min: true,
            at_least: 3,
        };
        assert!(check_reply("OK 3", cm));
        assert!(check_reply("OK 7.5", cm));
        assert!(!check_reply("OK 2", cm));
        assert!(!check_reply("ERR unknown tenant", cm));
        let cs = Expect::Estimate {
            count_min: false,
            at_least: 3,
        };
        assert!(check_reply("OK -1", cs));
        assert!(check_reply("OK", Expect::Ok));
        assert!(!check_reply("OK 1", Expect::Ok));
    }

    #[test]
    fn scripts_mix_queries_of_earlier_adds() {
        let plan = Plan {
            open_loop_s: 0.01,
            interactive_s: 0.0,
            rung_s: 0.0,
        };
        let input = generate(plan, 7);
        assert_eq!(input.creates.len(), TENANTS);
        assert!(input.creates.iter().all(|l| Command::parse(l).is_ok()));
        let script = &input.scripts[0];
        assert!(script.lines.len() >= 10);
        assert!(script.lines[QUERY_EVERY - 1].starts_with("QUERY "));
        assert!(script.lines.iter().all(|l| Command::parse(l).is_ok()));
        assert!(matches!(
            script.expect[QUERY_EVERY - 1],
            Expect::Estimate { at_least, .. } if at_least >= 1
        ));
    }
}
