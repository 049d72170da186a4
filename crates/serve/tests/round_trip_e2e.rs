//! Request latency over real sockets: every protocol line — the
//! client's request and the server's response — leaves in one write,
//! so a round trip never waits out the peer's delayed ACK. Writing the
//! newline as a second segment stalls each round trip by at least the
//! ~40 ms delayed-ACK timer; here twenty `stats` round trips through
//! the shipped [`Client`] must have a median under 20 ms.

use std::time::{Duration, Instant};

use systec_serve::protocol::{Request, Response};
use systec_serve::{serve, Client, Engine};

#[test]
fn stats_round_trips_do_not_wait_for_delayed_acks() {
    let server = serve("127.0.0.1:0", Engine::new()).expect("bind ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut round_trips = Vec::new();
    for _ in 0..20 {
        let start = Instant::now();
        let resp = client.request(&Request::Stats).expect("stats round trip");
        round_trips.push(start.elapsed());
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
    }
    server.shutdown();
    server.wait();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median stats round trip {median:?} (sorted: {round_trips:?})"
    );
}
