//! Malformed-frame corpus against a live server: every hostile frame must
//! be answered with an in-band protocol error — never a panic, never a
//! hang, never a dropped connection — and the same connection must stay
//! usable for well-formed requests afterwards.

use snakes_sandwiches::service::{Server, ServerConfig, MAX_LINE_BYTES, PROTOCOL_VERSION};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A raw JSON-lines connection with no client-side protocol smarts.
struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn open(addr: std::net::SocketAddr) -> RawConn {
        let writer = TcpStream::connect(addr).expect("connect");
        // A stuck server must fail the test, not wedge it.
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // A server that stops reading must fail a 1 MiB write too, not
        // block it forever; as generous as the slowest answer below.
        writer
            .set_write_timeout(Some(Duration::from_secs(60)))
            .expect("write timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        RawConn { writer, reader }
    }

    fn send_raw(&mut self, frame: &[u8]) {
        self.writer.write_all(frame).expect("write frame");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> serde_json::Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection instead of answering");
        serde_json::from_str(line.trim_end()).expect("response is valid JSON")
    }

    /// Sends one frame and asserts the in-band error reply carries `code`.
    fn expect_error(&mut self, frame: &[u8], code: &str) -> serde_json::Value {
        self.send_raw(frame);
        let resp = self.recv();
        assert_eq!(
            resp["ok"].as_bool(),
            Some(false),
            "expected an error reply, got {resp:?}"
        );
        assert_eq!(
            resp["error"]["code"].as_str(),
            Some(code),
            "wrong error code; full reply: {resp:?}"
        );
        resp
    }

    /// The connection must still serve well-formed traffic.
    fn assert_usable(&mut self) {
        self.send_raw(
            format!("{{\"v\":{PROTOCOL_VERSION},\"endpoint\":\"ping\",\"id\":7}}\n").as_bytes(),
        );
        let resp = self.recv();
        assert_eq!(
            resp["ok"].as_bool(),
            Some(true),
            "connection unusable after bad frame: {resp:?}"
        );
        assert_eq!(resp["id"], 7);
    }
}

#[test]
fn malformed_frames_get_in_band_errors_and_the_connection_survives() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let addr = server.local_addr();
    let mut conn = RawConn::open(addr);

    // Truncated JSON — the line ends mid-object.
    conn.expect_error(b"{\"v\":1,\"endpoint\":\"pi\n", "bad_request");
    conn.assert_usable();

    // Not JSON at all.
    conn.expect_error(b"GET / HTTP/1.1\n", "bad_request");
    conn.assert_usable();

    // Interior NUL bytes. The lenient JSON parser may accept or reject
    // the frame; either way the server must answer in-band and keep the
    // connection alive — never crash on a control character.
    conn.send_raw(b"{\"v\":1,\"endpoint\":\"pi\x00ng\",\"id\":1}\n");
    let resp = conn.recv();
    assert!(resp["ok"].as_bool().is_some(), "{resp:?}");
    conn.assert_usable();

    // A NUL where JSON structure is expected is always malformed.
    conn.expect_error(b"\x00{\"v\":1,\"endpoint\":\"ping\"}\n", "bad_request");
    conn.assert_usable();

    // Invalid UTF-8 in the frame.
    conn.expect_error(
        b"{\"v\":1,\"endpoint\":\"\xff\xfe\",\"id\":1}\n",
        "bad_request",
    );
    conn.assert_usable();

    // Duplicate keys. The lenient parser resolves them (first wins)
    // rather than rejecting; the hard requirement is an in-band answer
    // on a connection that stays alive.
    conn.send_raw(b"{\"v\":1,\"endpoint\":\"ping\",\"endpoint\":\"stats\",\"id\":1}\n");
    let resp = conn.recv();
    assert!(resp["ok"].as_bool().is_some(), "{resp:?}");
    conn.assert_usable();

    // Wrong protocol version.
    let resp = conn.expect_error(
        b"{\"v\":99,\"endpoint\":\"ping\",\"id\":5}\n",
        "bad_request",
    );
    assert!(
        resp["error"]["message"]
            .as_str()
            .unwrap()
            .contains("unsupported protocol version"),
        "{resp:?}"
    );
    // Version errors echo the request id so clients can correlate.
    assert_eq!(resp["id"], 5);
    conn.assert_usable();

    // Unknown top-level fields are tolerated (forward compatibility):
    // the request still executes.
    conn.send_raw(b"{\"v\":1,\"endpoint\":\"ping\",\"id\":3,\"surprise\":true}\n");
    let resp = conn.recv();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    assert_eq!(resp["id"], 3);

    // Blank lines are ignored, not answered.
    conn.send_raw(b"\n");
    conn.assert_usable();

    server.join();
}

#[test]
fn oversized_lines_are_rejected_without_buffering_them() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let addr = server.local_addr();
    let mut conn = RawConn::open(addr);

    // A line just over the cap: rejected in-band, discarded, connection
    // stays usable.
    let mut giant = vec![b'a'; MAX_LINE_BYTES + 1];
    giant.push(b'\n');
    conn.send_raw(&giant);
    let resp = conn.recv();
    assert_eq!(resp["ok"].as_bool(), Some(false));
    assert_eq!(resp["error"]["code"].as_str(), Some("bad_request"));
    assert!(
        resp["error"]["message"]
            .as_str()
            .unwrap()
            .contains("exceeds"),
        "{resp:?}"
    );
    conn.assert_usable();

    // Much larger (8 MiB of garbage in one line): still bounded memory,
    // still one in-band error, still usable.
    let mut huge = vec![b'x'; 8 * MAX_LINE_BYTES];
    huge.push(b'\n');
    conn.send_raw(&huge);
    let resp = conn.recv();
    assert_eq!(resp["ok"].as_bool(), Some(false));
    conn.assert_usable();

    server.join();
}

#[test]
fn a_flood_of_hostile_frames_never_wedges_the_server() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let addr = server.local_addr();
    // Interleave hostile and honest frames back-to-back on one socket
    // without reading until the end: exercises pipelining through the
    // error paths.
    let mut conn = RawConn::open(addr);
    let mut expected = 0;
    for i in 0..50 {
        match i % 5 {
            0 => conn.send_raw(b"}{\n"),
            1 => conn.send_raw(b"{\"v\":1}\n"), // missing endpoint
            2 => conn.send_raw(b"[1,2,3]\n"),
            3 => conn.send_raw(b"{\"v\":1,\"endpoint\":\"no_such_endpoint\",\"id\":1}\n"),
            _ => conn.send_raw(b"{\"v\":1,\"endpoint\":\"ping\",\"id\":9}\n"),
        }
        expected += 1;
    }
    for _ in 0..expected {
        let resp = conn.recv();
        assert!(resp["ok"].as_bool().is_some());
    }
    conn.assert_usable();
    server.join();
}

/// A v1 `price` frame over a grid of `extents` leaves with one hierarchy
/// level per dimension, under a uniform workload.
fn price_frame(id: u64, extents: &[u64], strategy: &str) -> Vec<u8> {
    let dims: Vec<String> = extents
        .iter()
        .enumerate()
        .map(|(d, e)| format!("{{\"name\":\"d{d}\",\"fanouts\":[{e}]}}"))
        .collect();
    let marginals = vec!["[0.5,0.5]"; extents.len()].join(",");
    format!(
        "{{\"v\":1,\"id\":{id},\"endpoint\":\"price\",\"schema\":{{\"dims\":[{}]}},\
         \"workload\":{{\"marginals\":[{marginals}]}},\"strategy\":{strategy}}}\n",
        dims.join(",")
    )
    .into_bytes()
}

#[test]
fn oversized_price_grids_are_refused_before_any_curve_is_built() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = RawConn::open(server.local_addr());
    let path = r#"{"dims":[0,1],"snaked":true}"#;
    let hilbert = r#"{"kind":"hilbert"}"#;
    // Twice the 4 Mi-cell bound; and 2^62 cells, whose curve could be
    // neither allocated nor walked, so only a check made before any
    // curve is built can answer it; and a cell count that overflows u64.
    for extents in [[4096, 2048], [1 << 31, 1 << 31], [1 << 32, 1 << 32]] {
        for strategy in [path, hilbert] {
            let resp = conn.expect_error(&price_frame(11, &extents, strategy), "bad_request");
            let message = resp["error"]["message"].as_str().unwrap();
            assert!(
                message.contains("cells"),
                "{extents:?} {strategy}: {resp:?}"
            );
            conn.assert_usable();
        }
    }
    // One dimension whose own leaf count overflows u64.
    for strategy in [r#"{"dims":[0,0],"snaked":true}"#, hilbert] {
        let frame = format!(
            "{{\"v\":1,\"id\":14,\"endpoint\":\"price\",\"schema\":{{\"dims\":[{{\"name\":\"d\",\
             \"fanouts\":[4294967296,4294967296]}}]}},\"workload\":{{\"marginals\":\
             [[0.5,0.25,0.25]]}},\"strategy\":{strategy}}}\n"
        );
        conn.expect_error(frame.as_bytes(), "bad_request");
        conn.assert_usable();
    }
    server.join();
}

#[test]
fn hilbert_beyond_the_rank_space_is_a_bad_request() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = RawConn::open(server.local_addr());
    // 2^17 cells, well under the cell bound, but 4096 pads every side to
    // 2^12, and six dimensions of 12 bits need 72 rank bits.
    let frame = price_frame(12, &[4096, 2, 2, 2, 2, 2], r#"{"kind":"hilbert"}"#);
    let resp = conn.expect_error(&frame, "bad_request");
    assert_eq!(resp["id"], 12);
    let message = resp["error"]["message"].as_str().unwrap();
    assert!(message.contains("hilbert"), "{resp:?}");
    conn.assert_usable();
    // The same grid under a lattice path is priced normally.
    conn.send_raw(&price_frame(
        13,
        &[4096, 2, 2, 2, 2, 2],
        r#"{"dims":[0,1,2,3,4,5],"snaked":true}"#,
    ));
    let resp = conn.recv();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    server.join();
}

/// A v1 frame for `endpoint` on `k` dimensions of `fanouts` each, with
/// all query weight on the bottom class; `extra` is spliced in as more
/// fields.
fn lattice_frame(id: u64, endpoint: &str, k: usize, fanouts: &str, extra: &str) -> Vec<u8> {
    let dims: Vec<String> = (0..k)
        .map(|d| format!("{{\"name\":\"d{d}\",\"fanouts\":[{fanouts}]}}"))
        .collect();
    let bottom = vec!["0"; k].join(",");
    format!(
        "{{\"v\":1,\"id\":{id},\"endpoint\":\"{endpoint}\",\"schema\":{{\"dims\":[{}]}},\
         \"workload\":{{\"classes\":[{{\"class\":[{bottom}],\"weight\":1}}]}}{extra}}}\n",
        dims.join(",")
    )
    .into_bytes()
}

#[test]
fn oversized_lattices_are_refused_before_any_workload_is_built() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = RawConn::open(server.local_addr());
    // One cell, so the cell bound passes, but 2^40 classes (a dense
    // workload of 8 TiB) and 2^64 classes (beyond u64).
    for k in [40usize, 64] {
        let every_dim: Vec<String> = (0..k).map(|d| d.to_string()).collect();
        let strategy = format!(",\"strategy\":{{\"dims\":[{}]}}", every_dim.join(","));
        let recluster = format!(
            ",\"session\":\"wide{k}\",\"recluster\":{{\"from\":{{\"dims\":[{0}]}},\
             \"to\":{{\"dims\":[{0}]}}}}",
            every_dim.join(",")
        );
        let session = format!(",\"session\":\"wide{k}\",\"deltas\":[]");
        for (endpoint, extra) in [
            ("price", strategy.as_str()),
            ("recommend", ""),
            ("drift", session.as_str()),
            ("explain", ""),
            ("recluster", recluster.as_str()),
        ] {
            let frame = lattice_frame(21, endpoint, k, "1", extra);
            let resp = conn.expect_error(&frame, "bad_request");
            let message = resp["error"]["message"].as_str().unwrap();
            assert!(message.contains("classes"), "{endpoint} k={k}: {resp:?}");
            conn.assert_usable();
        }
    }
    server.join();
}

#[test]
fn recommend_is_bounded_at_admission() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = RawConn::open(server.local_addr());
    // k = 5 at 2 levels: 5! · 3^5 · 10 = 291 600 units, under the bound.
    conn.send_raw(&lattice_frame(31, "recommend", 5, "2,1", ""));
    let resp = conn.recv();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    // k = 6 at 4 levels: 6! · 5^6 · 24 = 2.7·10^8 units; k = 7 at one
    // level: 7! · 2^7 · 7 = 4.5·10^6 units, just over 2^22.
    for (k, fanouts) in [(6, "1,1,1,1"), (7, "2")] {
        let resp = conn.expect_error(
            &lattice_frame(32, "recommend", k, fanouts, ""),
            "bad_request",
        );
        let message = resp["error"]["message"].as_str().unwrap();
        assert!(message.contains("units"), "k={k}: {resp:?}");
        conn.assert_usable();
    }
    // A recluster that defaults its target to the recommendation is
    // bounded the same way.
    let frame = lattice_frame(
        33,
        "recluster",
        6,
        "1,1,1,1",
        ",\"session\":\"big\",\"recluster\":{\"from\":{\"dims\":[0,0,0,0,1,1,1,1,2,2,2,2,\
         3,3,3,3,4,4,4,4,5,5,5,5]}}",
    );
    let resp = conn.expect_error(&frame, "bad_request");
    assert!(
        resp["error"]["message"].as_str().unwrap().contains("units"),
        "{resp:?}"
    );
    server.join();
}

#[test]
fn a_path_of_a_quarter_million_steps_is_priced_promptly() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = RawConn::open(server.local_addr());
    // One dimension of 240 000 fanout-1 levels: 240 001 classes, one
    // cell, and a strategy stepping it 240 000 times, in one ~1 MB frame.
    // Its label names every point of the path.
    let levels = 240_000;
    let fanouts = vec!["1"; levels].join(",");
    let dims = vec!["0"; levels].join(",");
    let frame = lattice_frame(
        34,
        "price",
        1,
        &fanouts,
        &format!(",\"strategy\":{{\"dims\":[{dims}]}}"),
    );
    assert!(frame.len() <= MAX_LINE_BYTES, "{} bytes", frame.len());
    let started = std::time::Instant::now();
    conn.send_raw(&frame);
    let resp = conn.recv();
    let elapsed = started.elapsed();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{:?}", resp["error"]);
    let label = resp["price"]["strategy"].as_str().unwrap();
    assert!(label.starts_with("⟨(0),(1),(2),") && label.ends_with(",(239999),(240000)⟩"));
    assert!(elapsed.as_secs() < 10, "the long path took {elapsed:?}");
    conn.assert_usable();
    server.join();
}

/// A `ping` frame of exactly [`MAX_LINE_BYTES`] bytes (newline included)
/// whose `note` string fills the line with plain ASCII, multi-byte
/// characters and escapes; `last` closes the string's text.
fn ping_at_the_cap(id: u64, last: &str) -> Vec<u8> {
    let head = format!("{{\"v\":{PROTOCOL_VERSION},\"endpoint\":\"ping\",\"id\":{id},\"note\":\"");
    let tail = format!("{last}\"}}\n");
    let unit = "a\u{e9}\\n\\u00e9\u{1F600}\\\"";
    let room = MAX_LINE_BYTES - head.len() - tail.len();
    let mut note = unit.repeat(room / unit.len());
    note.push_str(&"z".repeat(room - note.len()));
    let frame = format!("{head}{note}{tail}");
    assert_eq!(frame.len(), MAX_LINE_BYTES);
    frame.into_bytes()
}

#[test]
fn a_string_filling_the_line_cap_is_answered_in_band() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = RawConn::open(server.local_addr());
    // As generous as the cold million-cell Hilbert price: a decoder that
    // re-scanned the rest of the frame per character took ~21 s here in
    // release, and far longer unoptimized.
    conn.writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let started = std::time::Instant::now();
    conn.send_raw(&ping_at_the_cap(41, ""));
    let resp = conn.recv();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    assert_eq!(resp["id"], 41);
    conn.assert_usable();
    // The same string ending in a lone surrogate escape: one in-band
    // refusal, and the connection still serves.
    let resp = conn.expect_error(&ping_at_the_cap(42, "\\ud800"), "bad_request");
    let message = resp["error"]["message"].as_str().unwrap();
    assert!(message.contains("lone surrogate"), "{message}");
    conn.assert_usable();
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 60, "two 1 MiB frames took {elapsed:?}");
    server.join();
}

#[test]
fn nesting_past_the_depth_limit_is_refused_in_band() {
    let server = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = RawConn::open(server.local_addr());
    conn.writer
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let deep = 100_000;
    let arrays = format!("{}{}", "[".repeat(deep), "]".repeat(deep));
    let objects = format!("{}1{}", "{\"a\":".repeat(deep), "}".repeat(deep));
    let started = std::time::Instant::now();
    for frame in [
        // Unclosed, closed, and inside an otherwise valid request: a
        // recursive decoder without a bound overflowed a shard's stack
        // on each, aborting the daemon.
        "[".repeat(deep),
        arrays.clone(),
        objects,
        format!("{{\"v\":{PROTOCOL_VERSION},\"endpoint\":\"ping\",\"id\":43,\"x\":{arrays}}}"),
    ] {
        let resp = conn.expect_error(format!("{frame}\n").as_bytes(), "bad_request");
        let message = resp["error"]["message"].as_str().unwrap();
        assert!(
            message.contains("nesting deeper than 128 levels"),
            "{message}"
        );
        conn.assert_usable();
    }
    // At the limit the frame decodes: 127 levels inside the request
    // object make 128.
    let ok = format!(
        "{{\"v\":{PROTOCOL_VERSION},\"endpoint\":\"ping\",\"id\":44,\"x\":{}{}}}\n",
        "[".repeat(127),
        "]".repeat(127)
    );
    conn.send_raw(ok.as_bytes());
    let resp = conn.recv();
    assert_eq!(resp["ok"].as_bool(), Some(true), "{resp:?}");
    assert_eq!(resp["id"], 44);
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 60, "deep frames took {elapsed:?}");
    server.join();
}
