//! Loopback smoke test of the line-protocol server: spawns a real TCP
//! server on an OS-assigned port, drives the full command grammar over a
//! socket like any external client would, and verifies clean shutdown
//! (every server thread joined, no lingering listeners). The write-path
//! tests check that pipelined bursts answer exactly like one command at a
//! time, that interactive round trips do not wait on delayed ACKs, and
//! that hostile input (split lines, overflowing weights, invalid UTF-8)
//! leaves the server answering with an exact audit.

use opthash_repro::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A tiny line-oriented client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        self.write(format!("{line}\n").as_bytes());
        self.reply()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send bytes");
    }

    /// Reads one full response line, without its newline.
    fn reply(&mut self) -> String {
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .expect("read response line");
        assert!(
            response.ends_with('\n'),
            "every response is one full line, got {response:?}"
        );
        response.trim_end().to_owned()
    }

    /// Reads response lines until the server closes the connection.
    fn replies_until_close(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut response = String::new();
            match self.reader.read_line(&mut response) {
                Ok(0) | Err(_) => return lines,
                Ok(_) => lines.push(response.trim_end().to_owned()),
            }
        }
    }
}

/// A deterministic 200-command ADD/QUERY/STATS script over two tenants,
/// one line per command (each with its newline).
fn mixed_script() -> Vec<String> {
    let mut script = vec![
        "CREATE flows count-min:128x4\n".to_owned(),
        "CREATE queries count-sketch:64x4\n".to_owned(),
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    while script.len() < 200 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let tenant = if state >> 63 == 0 { "flows" } else { "queries" };
        let id = (state >> 33) % 40;
        let line = match script.len() % 10 {
            9 => "STATS\n".to_owned(),
            4 => format!("STATS {tenant}\n"),
            n if n % 3 == 0 => format!("QUERY {tenant} {id}\n"),
            _ => format!("ADD {tenant} {id} {}\n", 1 + (state >> 20) % 7),
        };
        script.push(line);
    }
    script
}

#[test]
fn full_protocol_over_loopback() {
    let registry = SketchRegistry::with_budget(SpaceBudget::from_kb(64.0));
    let server = SketchServer::bind("127.0.0.1:0", registry).expect("bind loopback");
    let mut client = Client::connect(server.local_addr());

    assert_eq!(client.send("PING"), "OK pong");

    // CREATE all three backend kinds, one of them sharded.
    assert_eq!(client.send("CREATE flows count-min:256x4"), "OK t0");
    assert_eq!(
        client.send("CREATE queries count-sketch:128x4 sharded:2"),
        "OK t1"
    );
    assert_eq!(client.send("CREATE heavy misra-gries:64"), "OK t2");
    assert!(client
        .send("CREATE flows count-min")
        .starts_with("ERR tenant 'flows'"));

    // ADD / QUERY round-trips, weighted and unweighted.
    assert_eq!(client.send("ADD flows 42"), "OK");
    assert_eq!(client.send("ADD flows 42 9"), "OK");
    assert_eq!(client.send("QUERY flows 42"), "OK 10");
    assert_eq!(client.send("QUERY flows 999"), "OK 0");
    assert_eq!(client.send("ADD queries 7 3"), "OK");
    assert_eq!(client.send("QUERY queries 7"), "OK 3");
    assert_eq!(client.send("ADD heavy 5 4"), "OK");
    assert_eq!(client.send("QUERY heavy 5"), "OK 4");

    // Typed errors surface as ERR lines.
    assert!(client
        .send("QUERY ghost 1")
        .starts_with("ERR unknown tenant"));
    assert!(client.send("ADD flows 1 0").starts_with("ERR engine error"));
    assert!(client.send("FROBNICATE").starts_with("ERR unknown command"));
    assert!(client
        .send("CREATE t bloom:9")
        .starts_with("ERR invalid backend spec"));

    // STATS reflect everything above, including the conservation audit.
    let stats = client.send("STATS");
    assert!(stats.starts_with("OK tenants=3 "), "{stats}");
    assert!(stats.contains("mass=17"), "{stats}");
    assert!(stats.contains("unaccounted=0"), "{stats}");
    let tenant_stats = client.send("STATS flows");
    assert!(tenant_stats.contains("backend=count-min"), "{tenant_stats}");
    assert!(tenant_stats.contains("mass=10"), "{tenant_stats}");

    // DROP removes the tenant for every later command.
    assert_eq!(client.send("DROP heavy"), "OK t2");
    assert!(client
        .send("QUERY heavy 5")
        .starts_with("ERR unknown tenant"));

    // A second concurrent connection sees the same registry.
    let mut second = Client::connect(server.local_addr());
    assert_eq!(second.send("QUERY flows 42"), "OK 10");
    assert_eq!(second.send("QUIT"), "OK bye");

    assert_eq!(client.send("QUIT"), "OK bye");
    server.shutdown();
}

#[test]
fn shutdown_is_clean_and_releases_the_port() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    assert_eq!(client.send("PING"), "OK pong");
    // Shut down with the client still connected: shutdown must join the
    // handler (which notices the stop flag within its read poll) rather
    // than hang or leak the thread.
    server.shutdown();
    // The listener is gone: a fresh bind to the same port succeeds.
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port must be released after shutdown");
}

#[test]
fn embedded_ingest_and_network_queries_share_state() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    {
        let registry = server.registry();
        let mut registry = registry.lock().expect("registry lock");
        registry
            .create(
                "local",
                BackendSpec::CountMin {
                    width: 128,
                    depth: 4,
                },
            )
            .expect("create tenant");
        for _ in 0..6 {
            registry
                .ingest("local", &StreamElement::without_features(11u64))
                .expect("local ingest");
        }
    }
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.send("QUERY local 11"), "OK 6");
    assert_eq!(client.send("ADD local 11"), "OK");
    {
        let registry = server.registry();
        let mut registry = registry.lock().expect("registry lock");
        let estimate = registry
            .query("local", &StreamElement::without_features(11u64))
            .expect("local query");
        assert_eq!(estimate, 7.0);
    }
    server.shutdown();
}

#[test]
fn a_line_split_across_a_read_timeout_keeps_its_prefix() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    client.write(b"PI");
    // Longer than the server's read poll, so its read times out mid-line.
    std::thread::sleep(Duration::from_millis(120));
    client.write(b"NG\n");
    assert_eq!(client.reply(), "OK pong");
    server.shutdown();
}

#[test]
fn overflowing_weights_are_rejected_and_the_connection_survives() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.send("CREATE t count-min:64x4"), "OK t0");
    for _ in 0..2 {
        let reply = client.send("ADD t 1 18446744073709551615");
        assert!(reply.starts_with("ERR weight "), "{reply}");
    }
    assert_eq!(client.send("PING"), "OK pong");
    // Up to i64::MAX in total is admitted; one more unit is not.
    assert_eq!(client.send("ADD t 1 9223372036854775806"), "OK");
    assert_eq!(client.send("ADD t 2 1"), "OK");
    assert!(client.send("ADD t 2 1").starts_with("ERR weight "));
    let stats = client.send("STATS");
    assert!(stats.contains(" mass=9223372036854775807 "), "{stats}");
    assert!(stats.contains("unaccounted=0"), "{stats}");
    assert_eq!(client.send("QUERY t 2"), "OK 1");
    server.shutdown();
}

#[test]
fn invalid_utf8_gets_an_err_reply_not_a_hangup() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    client.write(b"PING \xff\xfe\n");
    assert!(client.reply().starts_with("ERR "));
    assert_eq!(client.send("PING"), "OK pong");
    server.shutdown();
}

#[test]
fn fifty_sequential_pings_take_well_under_a_second() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    let start = Instant::now();
    for _ in 0..50 {
        assert_eq!(client.send("PING"), "OK pong");
    }
    let elapsed = start.elapsed();
    // A reply held back for the client's delayed ACK costs ~40 ms, which
    // fifty round trips turn into seconds.
    assert!(
        elapsed < Duration::from_secs(1),
        "50 PINGs took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn a_pipelined_burst_answers_exactly_like_one_command_at_a_time() {
    let script = mixed_script();
    assert_eq!(script.len(), 200);

    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    let one_at_a_time: Vec<String> = script
        .iter()
        .map(|line| client.send(line.trim_end()))
        .collect();
    server.shutdown();

    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    client.write(script.concat().as_bytes());
    let pipelined: Vec<String> = (0..script.len()).map(|_| client.reply()).collect();
    server.shutdown();

    assert_eq!(pipelined, one_at_a_time);
    assert!(one_at_a_time.iter().all(|reply| reply.starts_with("OK")));
}

#[test]
fn quit_mid_burst_is_the_last_command_executed() {
    let server = SketchServer::bind("127.0.0.1:0", SketchRegistry::unbounded()).expect("bind");
    let mut client = Client::connect(server.local_addr());
    client.write(b"CREATE t count-min:64x4\nADD t 1 5\nQUIT\nADD t 1 7\nCREATE u count-min:64x4\n");
    assert_eq!(client.replies_until_close(), ["OK t0", "OK", "OK bye"]);

    let mut observer = Client::connect(server.local_addr());
    let stats = observer.send("STATS");
    assert!(stats.starts_with("OK tenants=1 "), "{stats}");
    assert!(stats.contains(" mass=5 "), "{stats}");
    assert_eq!(observer.send("QUERY t 1"), "OK 5");
    server.shutdown();
}
