//! The served engine under concurrent connections, over real loopback
//! sockets.
//!
//! Every connection's accept, frames and close reach the one engine in
//! whatever order the threads deliver them, so a producer's frames
//! interleave with other connections coming and going, and with
//! shutdown. The simulator schedules the engine one step at a time and
//! cannot reach those interleavings; this suite does. While one
//! producer streams a pinned conformance case, sixteen connections each
//! say hello, register a tenant pattern, ask for stats and close, and
//! one tail subscribes. The producer's conclusions must equal
//! in-process delivery, and every client must get its answers.

use ocep_repro::conformance as conf;
use ocep_repro::net::{Client, Frame, ServeConfig, Server, Tail};
use ocep_repro::ocep::ingest::GuardConfig;
use ocep_repro::ocep::MonitorSet;
use ocep_repro::pattern::Pattern;
use ocep_repro::poet::Event;
use std::sync::mpsc;

/// The monitor name `conf::in_process_fingerprint` uses.
const MONITOR: &str = "pattern";
/// Pinned master seed of the streamed cases.
const MASTER: u64 = 0x0CE9_2026_0005;
/// Connections that register a tenant while the producer streams.
const TENANTS: usize = 16;
/// A tenant pattern no conformance event matches: tenants change the
/// live set, never the verdicts.
const TENANT_SRC: &str = "Z := [*, no_such_event_type, *]; pattern := Z;";

type Verdicts = Vec<(String, Vec<(u32, u32)>)>;

/// Serves `case` to one producer in frames of 8 while the tenants and
/// the tail come and go; returns the server's fingerprint and the
/// verdicts the tail saw.
fn serve_concurrently(
    pattern_src: &str,
    n_traces: usize,
    events: &[Event],
) -> (conf::Fingerprint, Verdicts) {
    let mut set = MonitorSet::new(n_traces);
    set.add(MONITOR, Pattern::parse(pattern_src).unwrap());
    set.enable_guard(GuardConfig::default());
    let server = Server::bind("127.0.0.1:0", set, ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let addr = addr.as_str();

    let tail_seen = std::thread::scope(|s| {
        let (subscribed, tail_ready) = mpsc::channel();
        let tail = s.spawn(move || {
            let mut tail = Tail::connect(addr, "tail").unwrap();
            subscribed.send(()).unwrap();
            let mut seen = Verdicts::new();
            loop {
                match tail.next().unwrap() {
                    Frame::Verdict(v) => seen.push((v.monitor, v.bindings)),
                    Frame::StatsReport(stats) => return (seen, stats),
                    _ => {}
                }
            }
        });
        let producer = s.spawn(move || {
            let mut client = Client::connect(addr, n_traces, "producer").unwrap();
            for chunk in events.chunks(8) {
                client.send_batch(chunk).unwrap();
            }
            client
        });
        let tenants: Vec<_> = (0..TENANTS)
            .map(|j| {
                s.spawn(move || {
                    let mut client = Client::connect(addr, n_traces, &format!("c{j}")).unwrap();
                    let tenant = format!("t{j}");
                    let live = client
                        .register(&tenant, &[("p".to_owned(), TENANT_SRC.to_owned())])
                        .unwrap();
                    assert_eq!(live, 1, "{tenant}");
                    assert!(client.take_faults().is_empty(), "{tenant}");
                    client.stats().unwrap();
                })
            })
            .collect();
        for t in tenants {
            t.join().unwrap();
        }
        tail_ready.recv().unwrap();
        let final_stats = producer.join().unwrap().shutdown().unwrap();
        let (seen, tail_stats) = tail.join().unwrap();
        assert_eq!(tail_stats, final_stats, "the tail's final report");
        assert_eq!(final_stats.connections as usize, TENANTS + 2);
        seen
    });

    let report = server.join();
    let live: Vec<&str> = report.subsets.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(live.len(), TENANTS + 1, "{live:?}");
    let fingerprint = conf::Fingerprint {
        verdicts: report
            .verdicts
            .iter()
            .map(|(n, m)| (n.clone(), m.coords()))
            .collect(),
        subset: report
            .subsets
            .into_iter()
            .find(|(n, _)| n == MONITOR)
            .map(|(_, s)| s)
            .unwrap(),
        ingest: report.ingest,
    };
    (fingerprint, tail_seen)
}

#[test]
fn concurrent_connections_leave_the_producers_conclusions_unchanged() {
    let mut verdicts = 0;
    for i in 0..6 {
        let (case, _) = conf::nth_case(MASTER, i);
        let events: Vec<Event> = case.build().store().iter_arrival().cloned().collect();
        let local =
            conf::in_process_fingerprint(&case.pattern_src, case.n_traces, &events).unwrap();
        let (served, tail) = serve_concurrently(&case.pattern_src, case.n_traces, &events);
        if let Some(divergence) = local.diff(&served) {
            panic!("case {i}: in-process vs served under concurrent connections: {divergence}");
        }
        // The tail subscribed mid-stream: it sees the verdicts published
        // after it, which end the report's sequence.
        assert!(
            served.verdicts.ends_with(&tail),
            "case {i}: the tail's {} verdicts are not the report's last",
            tail.len()
        );
        verdicts += local.verdicts.len();
    }
    assert!(verdicts > 0, "the pinned cases never produced a verdict");
}
