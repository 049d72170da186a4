//! `serve-mixed`: a closed loop of two clients against an in-process
//! `systec_serve::serve` server over loopback, and the serving probe the
//! other workloads' traced runs use for the `serve.*` layer values.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use systec_kernels::{Counters, ExecContext};
use systec_serve::protocol::{Placement, Request, Response, StorageFormat, TensorPayload, Variant};
use systec_serve::{oracle_response, serve, Client, Engine, RunningServer};
use systec_tensor::generate::{random_dense, rng};
use systec_tensor::{CooTensor, DenseTensor, Tensor};

use crate::calib::Speed;
use crate::cells::{
    clear_cache, prepare, prepare_cell, serve_cells, serve_matrix, Cell, CellInput, Gen,
    Variant as CellVariant,
};
use crate::kernelwork::{
    cold_pairs, run_rounds, small_third_groups, warm_prepares, E2e, COLD_SAMPLES, SEGMENTS,
    SETUP_REPS, UPDATE_SAMPLES,
};
use crate::layers::{self, Layers, ServeLayers};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Closed-loop clients (one per core of the 2-core reference machine).
const CLIENTS: usize = 2;
/// Vector versions each client cycles through when it re-registers.
const VERSIONS: usize = 4;
/// Runs between two updates, alternating SSYMV and SYPRD.
const RUNS_PER_CYCLE: usize = 6;
/// Update cycles per client per second of `--seconds` (the loop then
/// makes 1000 updates in a 20 s run, so `update_p99_us` has ten
/// samples beyond it).
const CYCLES_PER_SECOND: usize = 25;
/// Direct (unserved) timing rounds of the two kernels.
const DIRECT_ROUNDS: usize = 8000;
/// Probe repetitions of each serving-layer call.
const PROBE_REPS: usize = 200;
/// Round trips through the shipped `Client` (each stalls ~40-90 ms).
const CLIENT_REPS: usize = 12;

/// Whether a cell can be served as is (served kernels cannot start from
/// a non-identity output, so Bellman-Ford's `y = d` is out).
pub fn probe_eligible(input: &CellInput) -> bool {
    input.init.is_none()
}

/// The `sym` declarations of a kernel in the protocol's syntax.
fn sym_strings(input: &CellInput) -> Vec<String> {
    let mut out: Vec<String> = input
        .def
        .symmetry
        .iter()
        .map(|(name, partition)| {
            let parts: Vec<&[usize]> = partition.parts().collect();
            if parts.len() == 1 {
                name.to_string()
            } else {
                let parts: Vec<String> = parts
                    .iter()
                    .map(|p| p.iter().map(ToString::to_string).collect::<Vec<_>>().join("-"))
                    .collect();
                format!("{name}:{}", parts.join(","))
            }
        })
        .collect();
    out.sort();
    out
}

fn register_request(name: &str, tensor: &Tensor) -> Request {
    let payload = match tensor {
        Tensor::Dense(d) => TensorPayload::Dense(d.as_slice().to_vec()),
        Tensor::Sparse(s) => {
            TensorPayload::Coo(s.to_coo().entries().map(|(c, v)| (c.to_vec(), v)).collect())
        }
    };
    Request::RegisterTensor {
        name: name.into(),
        dims: tensor.dims().to_vec(),
        payload,
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    }
}

/// Registers a cell's inputs under `prefix`-ed names (vectors only) and
/// returns the prepare request binding them.
fn prepare_request(input: &CellInput, bind: &[(String, String)]) -> Request {
    Request::Prepare {
        einsum: input.def.einsum.to_string(),
        sym: sym_strings(input),
        inputs: bind.to_vec(),
        variant: Variant::Systec,
        threads: None,
        sharded: false,
    }
}

fn run_request(kernel: u64) -> String {
    Request::Run { kernel, full: false, shard: None }.encode()
}

/// The reply line a served run must equal byte for byte: a direct
/// `Prepared` run serialized like the server serializes it.
fn oracle_line(input: &CellInput) -> String {
    let p = prepare(input, CellVariant::Systec);
    let mut outputs = HashMap::new();
    let mut counters = Counters::new();
    p.run_timed_into(&mut outputs, &mut ExecContext::new(), &mut counters)
        .expect("direct run of a prepared kernel");
    oracle_response(&outputs, &counters).encode()
}

/// A blocking line client with the semantics of
/// `systec_serve::Client::send_raw` (one request, then block on its
/// reply line) that avoids two delayed-ACK stalls of the shipped
/// client and server. Both write a line and its newline as two
/// segments, and Nagle's algorithm holds the newline until the peer's
/// delayed ACK (~40 ms on Linux loopback), once per request and once
/// per reply. This client writes each request as one segment with
/// `TCP_NODELAY` set, and re-arms `TCP_QUICKACK` before each reply so
/// the server's newline is released at once. The probe reports what the
/// shipped `Client` pays on top as `serve.client_stall_us`; the closed
/// loop uses this client so it measures the server's own work.
pub struct LineClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl LineClient {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(LineClient { stream, reader, buf: Vec::new() })
    }

    /// Sends one line and returns the reply line without its newline.
    ///
    /// # Errors
    ///
    /// Socket errors; a closed connection is `UnexpectedEof`.
    pub fn send_raw(&mut self, line: &str) -> io::Result<String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.stream.write_all(&self.buf)?;
        quickack(&self.stream);
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while reply.ends_with(['\n', '\r']) {
            reply.pop();
        }
        Ok(reply)
    }

    /// Sends a typed request and decodes the reply.
    ///
    /// # Errors
    ///
    /// Socket errors and undecodable replies.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let reply = self.send_raw(&request.encode())?;
        Response::decode(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.message))
    }
}

/// Asks the kernel to acknowledge the next incoming segment at once
/// instead of delaying the ACK (Linux `TCP_QUICKACK`; the mode lapses,
/// so it is re-armed before every reply).
fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: `fd` is an open socket owned by `stream` for the whole
    // call, and `value`/`len` describe a live, properly sized `i32`.
    // A failure only leaves delayed ACKs on, so the result is ignored.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

fn kernel_of(reply: &str) -> Option<u64> {
    match Response::decode(reply) {
        Ok(Response::Prepared { kernel, .. }) => Some(kernel),
        _ => None,
    }
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64 / 1e3)
}

/// Serving-layer values for one cell: `Request::decode`,
/// `Response::encode` and `Engine::handle` called directly, then the
/// client round trip through a server; every reply is checked against
/// the direct-run oracle.
pub fn probe(input: &CellInput, tracer: &mut Tracer, l: &mut Layers, out: &mut Outcome) {
    let expected = oracle_line(input);
    let mut names: Vec<&String> = input.inputs.keys().collect();
    names.sort();
    let registers: Vec<Request> =
        names.iter().map(|n| register_request(n, &input.inputs[*n])).collect();
    let prepare = prepare_request(input, &[]);

    let engine = Engine::new();
    for r in &registers {
        engine.handle(r);
    }
    let Some(kernel) = kernel_of(&engine.handle(&prepare).encode()) else {
        out.fail(format!("{}: probe prepare failed", input.label));
        return;
    };
    let line = run_request(kernel);
    let run = Request::decode(&line).expect("encoded requests decode");
    let (mut decode, mut encode, mut handle) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        tracer.next_request();
        let (_, dt) = timed_us(|| tracer.span("serve", "decode", || Request::decode(&line)));
        decode.push(dt);
        let (resp, dt) = timed_us(|| tracer.span("serve", "engine_handle", || engine.handle(&run)));
        handle.push(dt);
        let (text, dt) = timed_us(|| tracer.span("serve", "encode", || resp.encode()));
        encode.push(dt);
        out.tally(text == expected, || {
            format!("{}: engine reply differs from the oracle", input.label)
        });
    }

    let server = match serve("127.0.0.1:0", Engine::new()) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("probe server failed to start: {e}"));
            return;
        }
    };
    let mut wire = Vec::new();
    let mut bytes = 0usize;
    let mut stock = Vec::new();
    match LineClient::connect(server.addr()) {
        Ok(mut client) => {
            for r in &registers {
                let _ = client.request(r);
            }
            let kernel = client.send_raw(&prepare.encode()).ok().and_then(|r| kernel_of(&r));
            let line = run_request(kernel.unwrap_or(u64::MAX));
            for _ in 0..PROBE_REPS {
                tracer.next_request();
                let (reply, dt) =
                    timed_us(|| tracer.span("serve", "request", || client.send_raw(&line)));
                wire.push(dt);
                let ok = reply.as_deref().is_ok_and(|r| r == expected);
                bytes += reply.map_or(0, |r| r.len());
                out.tally(ok, || format!("{}: served reply differs from the oracle", input.label));
            }
            if let Ok(mut shipped) = Client::connect(server.addr()) {
                for _ in 0..CLIENT_REPS {
                    let (reply, dt) = timed_us(|| {
                        tracer.span("serve", "client_request", || shipped.send_raw(&line))
                    });
                    stock.push(dt);
                    out.tally(reply.is_ok_and(|r| r == expected), || {
                        format!("{}: Client reply differs from the oracle", input.label)
                    });
                }
            }
            fill_stats(&mut client, &mut l.serve);
            let _ = client.request(&Request::Shutdown);
        }
        Err(e) => out.fail(format!("probe client failed to connect: {e}")),
    }
    server.join();
    let s = &mut l.serve;
    s.decode_us = median(&decode);
    s.encode_us = median(&encode);
    s.engine_us = median(&handle);
    s.wire_us = if wire.is_empty() {
        f64::NAN
    } else {
        median(&wire) - s.engine_us - s.decode_us - s.encode_us
    };
    s.client_stall_us =
        if stock.is_empty() || wire.is_empty() { f64::NAN } else { median(&stock) - median(&wire) };
    s.reply_bytes = bytes as f64 / PROBE_REPS as f64;
}

/// Coalescing ratio and handle count from the server's `stats`.
fn fill_stats(client: &mut LineClient, s: &mut ServeLayers) {
    if let Ok(Response::Stats { serve, kernels, .. }) = client.request(&Request::Stats) {
        s.coalesce_ratio = serve.batched_runs as f64 / serve.batch_dispatches.max(1) as f64;
        s.handles = kernels.len() as f64;
    }
}

/// One client's fixed request lines and expected replies.
struct ClientPlan {
    /// `register_tensor` of each version of the client's vector.
    registers: Vec<String>,
    /// `prepare` of SSYMV and SYPRD over the client's vector.
    prepares: [String; 2],
    /// Expected run reply per version and kernel.
    expected: Vec<[String; 2]>,
}

/// A running server with its connected clients.
struct Served {
    server: RunningServer,
    clients: Vec<LineClient>,
    plans: Vec<ClientPlan>,
    cells: Vec<Cell>,
    /// The registered matrix and each client's vector versions.
    a: CooTensor,
    vectors: Vec<Vec<DenseTensor>>,
    /// Generation and packing time of the set-up, ns.
    gen_ns: (u64, u64),
}

/// The set-up of `serve-mixed`: generate, start the server, register,
/// prepare (cold) and warm up. Expected replies are computed after, off
/// the clock, by [`expect_replies`].
fn setup(seed: u64, tracer: &mut Tracer, cold: &mut Vec<u64>) -> Served {
    clear_cache();
    let mut g = Gen::new(tracer);
    let a = serve_matrix(seed, &mut g);
    let n = a.dims()[0];
    let mut r = rng(seed ^ 0x5e4e);
    let vectors: Vec<Vec<DenseTensor>> = (0..CLIENTS)
        .map(|_| (0..VERSIONS).map(|_| random_dense(vec![n], &mut r)).collect())
        .collect();
    let cells: Vec<CellInput> = serve_cells(&mut g, &a, &vectors[0][0]);
    let gen_ns = (g.generate_ns, g.pack_ns);
    let server = serve("127.0.0.1:0", Engine::new()).expect("bind a loopback port");
    let mut clients: Vec<LineClient> = (0..CLIENTS)
        .map(|_| LineClient::connect(server.addr()).expect("connect over loopback"))
        .collect();
    let a_tensor = cells[0].inputs["A"].clone();
    let reply =
        tracer.span("serve", "request", || clients[0].request(&register_request("A", &a_tensor)));
    assert!(matches!(reply, Ok(Response::Registered { .. })), "register A: {reply:?}");
    let mut plans = Vec::new();
    for (c, client) in clients.iter_mut().enumerate() {
        let xname = format!("x{c}");
        let registers: Vec<String> = vectors[c]
            .iter()
            .map(|v| register_request(&xname, &Tensor::Dense(v.clone())).encode())
            .collect();
        let bind = [("x".to_string(), xname.clone())];
        let prepares = [
            prepare_request(&cells[0], &bind).encode(),
            prepare_request(&cells[1], &bind).encode(),
        ];
        let mut kernels = [0u64; 2];
        tracer
            .span("serve", "request", || -> std::io::Result<()> {
                client.send_raw(&registers[0])?;
                for (k, line) in prepares.iter().enumerate() {
                    kernels[k] = kernel_of(&client.send_raw(line)?).expect("prepare over the wire");
                }
                for w in 0..10 {
                    client.send_raw(&run_request(kernels[w % 2]))?;
                }
                Ok(())
            })
            .expect("set-up requests");
        plans.push(ClientPlan { registers, prepares, expected: Vec::new() });
    }
    let cells = cells.into_iter().map(|i| prepare_cell(i, 3, tracer, cold)).collect();
    Served { server, clients, plans, cells, a, vectors, gen_ns }
}

/// Computes every expected reply (per client, vector version and
/// kernel) from direct `Prepared` runs, and verifies the direct cells
/// against their oracles.
fn expect_replies(served: &mut Served, out: &mut Outcome) {
    let mut off = Tracer::new(false);
    for (plan, versions) in served.plans.iter_mut().zip(&served.vectors) {
        plan.expected = versions
            .iter()
            .map(|v| {
                let pair = serve_cells(&mut Gen::new(&mut off), &served.a, v);
                [oracle_line(&pair[0]), oracle_line(&pair[1])]
            })
            .collect();
    }
    for cell in &mut served.cells {
        for f in cell.verify() {
            out.fail(f);
        }
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientResult {
    updates_us: Vec<f64>,
    runs_us: Vec<f64>,
    requests: u64,
    failures: Vec<String>,
}

/// One client's closed loop: `cycles` × (re-register its vector,
/// re-prepare both kernels, then [`RUNS_PER_CYCLE`] runs alternating
/// SSYMV and SYPRD), checking every reply.
fn client_loop(
    client: &mut LineClient,
    plan: &ClientPlan,
    cycles: usize,
    tracer: &mut Tracer,
) -> ClientResult {
    let mut res = ClientResult::default();
    let fail = |res: &mut ClientResult, msg: String| res.failures.push(msg);
    for j in 0..cycles {
        tracer.next_request();
        let v = (j + 1) % VERSIONS;
        let t0 = Instant::now();
        let reg = tracer.span("serve", "request", || client.send_raw(&plan.registers[v]));
        let mut kernels = [None, None];
        for (k, line) in plan.prepares.iter().enumerate() {
            let reply = tracer.span("serve", "request", || client.send_raw(line));
            kernels[k] = reply.ok().and_then(|r| kernel_of(&r));
        }
        res.updates_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        res.requests += 3;
        let registered =
            reg.is_ok_and(|r| matches!(Response::decode(&r), Ok(Response::Registered { .. })));
        if !registered || kernels.iter().any(Option::is_none) {
            fail(&mut res, format!("cycle {j}: update failed"));
            continue;
        }
        for k in 0..RUNS_PER_CYCLE {
            let line = run_request(kernels[k % 2].expect("checked above"));
            let t0 = Instant::now();
            let reply = tracer.span("serve", "request", || client.send_raw(&line));
            res.runs_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            res.requests += 1;
            if !reply.is_ok_and(|r| r == plan.expected[v][k % 2]) {
                fail(&mut res, format!("cycle {j} run {k}: reply differs from the oracle"));
            }
        }
    }
    res
}

/// Runs the closed loop on every client, each on its own thread; returns
/// the merged results and the loop's wall time.
fn closed_loop(served: &mut Served, cycles: usize, tracer: &mut Tracer) -> (ClientResult, f64) {
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let traced = tracer.enabled();
    let (results, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(&served.plans)
            .map(|(client, plan)| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut t = Tracer::new(traced);
                    barrier.wait();
                    let r = client_loop(client, plan, cycles, &mut t);
                    (r, t)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        (results, t0.elapsed().as_secs_f64())
    });
    let mut merged = ClientResult::default();
    for (r, t) in results {
        merged.updates_us.extend(r.updates_us);
        merged.runs_us.extend(r.runs_us);
        merged.requests += r.requests;
        merged.failures.extend(r.failures);
        tracer.adopt(t);
    }
    (merged, wall)
}

fn shutdown(mut served: Served) {
    if let Some(client) = served.clients.first_mut() {
        let _ = client.request(&Request::Shutdown);
    }
    served.server.join();
}

fn tally_loop(res: &ClientResult, out: &mut Outcome) {
    out.attempted += res.requests;
    for f in &res.failures {
        out.fail(f.clone());
    }
}

/// Runs `serve-mixed`.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let cycles = CYCLES_PER_SECOND * seconds as usize;
    if traced {
        return run_traced(seed, cycles, out);
    }
    let mut off = Tracer::new(false);
    let mut e2e = E2e::default();
    let mut cold = Vec::new();
    let mut last: Option<Served> = None;
    let mut setup_speed = Speed::default();
    for _ in 0..SETUP_REPS {
        if let Some(s) = last.take() {
            shutdown(s);
        }
        let (s, secs) = setup_speed.time(|| setup(seed, &mut off, &mut cold));
        e2e.setup_s.push(secs);
        last = Some(s);
    }
    let mut served = last.expect("at least one set-up");
    expect_replies(&mut served, &mut out);
    for _ in 0..SEGMENTS {
        let (res, wall) = closed_loop(&mut served, cycles / SEGMENTS, &mut off);
        tally_loop(&res, &mut out);
        e2e.ops += res.requests;
        e2e.wall_s += wall;
        e2e.updates_us.extend(res.updates_us);
        e2e.runs_us.extend(res.runs_us);
        let direct = run_rounds(
            &mut served.cells,
            DIRECT_ROUNDS / SEGMENTS,
            &mut off,
            &mut e2e.speed,
            &mut out,
        );
        e2e.add_cells(direct);
        let both = [served.cells.iter().collect::<Vec<&Cell>>()];
        let cold = cold_pairs(&both, COLD_SAMPLES / SEGMENTS, &mut off, &mut e2e.speed, &mut out);
        e2e.compile_ms.extend(cold);
    }
    shutdown(served);
    e2e.emit(&mut out);
    out.note("cycles_per_client", cycles);
    out
}

/// The traced run: one traced set-up, a fifth of the closed loop
/// untraced and then traced (the difference is the tracing overhead),
/// the layer walk of both kernels and the serving probe.
fn run_traced(seed: u64, cycles: usize, mut out: Outcome) -> Outcome {
    let mut tracer = Tracer::new(true);
    let root = tracer.open_span("bench", "run");
    let mut cold = Vec::new();
    let t0 = Instant::now();
    let mut served = setup(seed, &mut tracer, &mut cold);
    let setup_s = t0.elapsed().as_secs_f64();
    expect_replies(&mut served, &mut out);
    let short = (cycles / 5).max(20);
    let (res, untraced) = closed_loop(&mut served, short, &mut Tracer::new(false));
    tally_loop(&res, &mut out);
    let (res, traced) = closed_loop(&mut served, short, &mut tracer);
    tally_loop(&res, &mut out);
    let mut loop_stats = ServeLayers::default();
    fill_stats(&mut served.clients[0], &mut loop_stats);
    let groups = small_third_groups(&served.cells);
    let warm = warm_prepares(&groups, UPDATE_SAMPLES, &mut tracer, &mut Speed::off(), &mut out);
    let mut l = Layers::new(served.gen_ns, &cold, &warm);
    layers::walk(&served.cells, &mut tracer, &mut l, &mut out);
    probe(&served.cells[0].input, &mut tracer, &mut l, &mut out);
    l.serve.coalesce_ratio = loop_stats.coalesce_ratio;
    l.serve.handles = loop_stats.handles;
    shutdown(served);
    l.finish(tracer, root, traced, untraced, &mut out);
    out.note("setup_s", setup_s);
    out
}
