//! The `serve_sweep` workload: an in-process `mems_serve::Server`
//! driven over real HTTP by closed-loop clients submitting `.STEP`
//! sweeps of the shipped HDL-A decks and streaming their results.

use crate::deck::{self, counts, LayerSample};
use crate::gen::{self, serve_block, served_deck, Rng, ServeOp, SHIPPED};
use crate::report::{end_to_end, Ops, Outcome};
use crate::stats::median;
use crate::trace::{MatrixTrace, Recorder};
use crate::Cfg;
use mems_hdl::HdlModel;
use mems_netlist::report::point_json;
use mems_netlist::{
    batch_points, batch_points_with, extract_metrics, run_batch, run_elaborated_ctx,
    warm_start_chain, BatchOptions, CancelToken, Deck, Elaborator, ParamEnv, PointResult, RunCtx,
    SolverStats,
};
use mems_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients; each waits for its stream to end before the
/// next op.
const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
/// Terminal jobs kept in memory; older ones are served from the spill.
const JOB_CAP: usize = 8;
/// A re-read targets a job at least this many finishes old, so it
/// has been evicted to disk.
const REREAD_AGE: usize = 2 * JOB_CAP;
const SETUP_REPS: usize = 5;
/// Spill budget: small enough that the store reaches its steady state
/// (oldest stored jobs deleted as new ones finish) early in a run, so
/// latency does not drift with the directory's size.
const SPILL_CAP_BYTES: u64 = 256 << 10;
/// Re-reads pick among this many recent finished jobs (older than
/// `REREAD_AGE`), all of which stay within the spill budget.
const REREAD_WINDOW: usize = 128;

/// One HTTP exchange's outcome, with the time the first body chunk
/// after the prelude arrived.
struct Reply {
    status: u16,
    body: String,
    first_record: Option<Instant>,
}

/// Sends one request on a fresh connection and reads the whole reply,
/// de-chunking a chunked body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).map_err(io)?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line).map_err(io)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line `{line}`"))?;
    let (mut chunked, mut length) = (false, None);
    loop {
        line.clear();
        r.read_line(&mut line).map_err(io)?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim());
            if k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else if k == "content-length" {
                length = v.parse::<usize>().ok();
            }
        }
    }
    let mut body = Vec::new();
    let mut first_record = None;
    if chunked {
        let mut chunks = 0;
        loop {
            line.clear();
            r.read_line(&mut line).map_err(io)?;
            let size_hex = line.trim_end().split(';').next().unwrap_or("");
            let size = usize::from_str_radix(size_hex.trim(), 16)
                .map_err(|_| format!("{method} {path}: bad chunk size `{line}`"))?;
            if size == 0 {
                // Trailer section, then the end.
                loop {
                    line.clear();
                    if r.read_line(&mut line).map_err(io)? == 0 || line.trim_end().is_empty() {
                        break;
                    }
                }
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            r.read_exact(&mut body[at..]).map_err(io)?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf).map_err(io)?;
            chunks += 1;
            if chunks == 2 {
                first_record = Some(Instant::now());
            }
        }
    } else {
        r.read_to_end(&mut body).map_err(io)?;
        if let Some(n) = length {
            body.truncate(n);
        }
    }
    let body = String::from_utf8(body).map_err(|_| format!("{method} {path}: non-UTF-8 body"))?;
    Ok(Reply {
        status,
        body,
        first_record,
    })
}

/// The `"points":[…]` array of a de-chunked results stream, after
/// checking that the job ended `done`.
fn served_points(body: &str) -> Result<&str, String> {
    let at = body.find("\"points\":").ok_or("no points member")? + "\"points\":".len();
    let end = body.rfind("],\"next\":").ok_or("no stream tail")? + 1;
    if !body[end..].contains("\"state\":\"done\"") {
        return Err(format!("job did not finish: {}", &body[end..]));
    }
    Ok(&body[at..end])
}

/// The results check: the de-chunked stream must be byte-equal to
/// `run_batch` on the same deck.
pub fn check_stream(body: &str, expected: &str) -> Result<(), String> {
    let got = served_points(body)?;
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "served points differ from run_batch ({} vs {} bytes)",
            got.len(),
            expected.len()
        ))
    }
}

/// `run_batch` records of a deck, rendered as the stream's array.
fn reference(text: &str) -> Result<String, String> {
    let deck = Deck::parse(text).map_err(|e| e.to_string())?;
    let batch = run_batch(&deck, &BatchOptions::with_threads(1)).map_err(|e| e.to_string())?;
    let records: Vec<String> = batch.points.iter().map(point_json).collect();
    Ok(format!("[{}]", records.join(",")))
}

/// Prometheus text → series value by full series name.
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let reply = http(addr, "GET", "/v1/metrics", "")?;
    if reply.status != 200 {
        return Err(format!("/v1/metrics answered {}", reply.status));
    }
    Ok(reply
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

fn delta(a: &HashMap<String, f64>, b: &HashMap<String, f64>, key: &str) -> f64 {
    b.get(key).copied().unwrap_or(0.0) - a.get(key).copied().unwrap_or(0.0)
}

fn delta_prefix(a: &HashMap<String, f64>, b: &HashMap<String, f64>, prefix: &str) -> f64 {
    b.iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| v - a.get(k).copied().unwrap_or(0.0))
        .sum()
}

fn start_server(data_dir: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(data_dir);
    Server::start(ServeConfig {
        workers: WORKERS,
        job_cap: JOB_CAP,
        data_dir: Some(data_dir.to_path_buf()),
        spill_cap_bytes: SPILL_CAP_BYTES,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

fn stop_server(server: Server, data_dir: &Path) {
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(data_dir);
}

/// One finished op, as the client saw it.
struct OpRecord {
    kind: ServeOp,
    latency: f64,
    first_result: f64,
    submit: Option<f64>,
    points: u64,
    traced: bool,
    /// Completion time, seconds since the window opened.
    done_at: f64,
}

/// Submits `text` and streams its results to the end.
fn submit_and_stream(
    addr: SocketAddr,
    client: u64,
    text: &str,
    expected: &str,
) -> Result<(u64, f64, Reply), String> {
    let posted = http(addr, "POST", &format!("/v1/jobs?client=c{client}"), text)?;
    let submitted = Instant::now();
    if posted.status != 201 {
        return Err(format!(
            "submit answered {}: {}",
            posted.status, posted.body
        ));
    }
    let id = mems_serve::Json::parse(&posted.body)
        .ok()
        .and_then(|doc| doc.get("id").and_then(mems_serve::Json::as_u64))
        .ok_or_else(|| format!("no job id in {}", posted.body))?;
    let reply = stream(addr, id, expected)?;
    Ok((id, submitted.elapsed().as_secs_f64(), reply))
}

fn stream(addr: SocketAddr, id: u64, expected: &str) -> Result<Reply, String> {
    let reply = http(addr, "GET", &format!("/v1/jobs/{id}/results?from=0"), "")?;
    if reply.status != 200 {
        return Err(format!("results answered {}", reply.status));
    }
    check_stream(&reply.body, expected)?;
    Ok(reply)
}

/// State the clients share.
struct Shared {
    addr: SocketAddr,
    seed: u64,
    expected: Vec<String>,
    points: Vec<u64>,
    /// Finished jobs in completion order: `(id, base deck)`.
    finished: Mutex<Vec<(u64, usize)>>,
    start: Instant,
    deadline: Instant,
    trace: bool,
}

/// One client's closed loop.
fn client_loop(
    sh: &Shared,
    client: u64,
    rec: &mut Recorder,
) -> (Vec<OpRecord>, Vec<Result<(), String>>) {
    let mut rng = Rng::new(gen::sub_seed(sh.seed, 1000 + client));
    let mut pick = Rng::new(gen::sub_seed(sh.seed, 2000 + client));
    let mut block = Vec::new();
    let (mut records, mut results) = (Vec::new(), Vec::new());
    let mut k = 0u64;
    while Instant::now() < sh.deadline {
        let op_id = (client << 32) | k;
        // In the traced run every other op records spans, so the
        // overhead ratio compares like with like.
        let traced = sh.trace && k % 2 == 1;
        if block.is_empty() {
            block = serve_block(&mut rng);
        }
        let mut kind = block.pop().expect("a refilled block is not empty");
        let target = match kind {
            ServeOp::Reread => {
                let done = sh.finished.lock().expect("finished-list lock");
                let newest = done.len().checked_sub(REREAD_AGE).filter(|&n| n > 0);
                newest.map(|n| done[n - 1 - pick.below(n.min(REREAD_WINDOW))])
            }
            _ => None,
        };
        if kind == ServeOp::Reread && target.is_none() {
            // Early in the window no job is old enough yet.
            kind = ServeOp::Resubmit(pick.below(SHIPPED.len()));
        }
        k += 1;
        let t0 = Instant::now();
        let outcome = match (kind, target) {
            (ServeOp::Reread, Some((id, base))) => {
                stream(sh.addr, id, &sh.expected[base]).map(|reply| (None, reply, base))
            }
            (ServeOp::Fresh(base), _) | (ServeOp::Resubmit(base), _) => {
                let variant = if matches!(kind, ServeOp::Fresh(_)) {
                    ((client + 1) << 32) | k
                } else {
                    0
                };
                let text = served_deck(sh.seed, base, variant);
                submit_and_stream(sh.addr, client, &text, &sh.expected[base]).map(
                    |(id, since_submit, reply)| {
                        let submit = t0.elapsed().as_secs_f64() - since_submit;
                        sh.finished
                            .lock()
                            .expect("finished-list lock")
                            .push((id, base));
                        (Some(submit), reply, base)
                    },
                )
            }
            (ServeOp::Reread, None) => unreachable!("re-reads without a target became resubmits"),
        };
        let end = Instant::now();
        match outcome {
            Ok((submit, reply, base)) => {
                let first = reply.first_record.unwrap_or(end);
                if traced {
                    let op = rec.push("op", t0, end, None, op_id);
                    if let Some(s) = submit {
                        rec.push(
                            "serve.submit",
                            t0,
                            t0 + Duration::from_secs_f64(s),
                            Some(op),
                            op_id,
                        );
                    }
                    rec.push("serve.first_result", t0, first, Some(op), op_id);
                    rec.push("serve.stream", first, end, Some(op), op_id);
                }
                records.push(OpRecord {
                    kind,
                    latency: (end - t0).as_secs_f64(),
                    first_result: (first - t0).as_secs_f64(),
                    submit,
                    points: sh.points[base],
                    traced,
                    done_at: (end - sh.start).as_secs_f64(),
                });
                results.push(Ok(()));
            }
            Err(e) => results.push(Err(e)),
        }
    }
    (records, results)
}

pub fn serve_sweep(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let data_root = cfg
        .results_dir
        .join(format!("serve-data-{}", std::process::id()));

    // References, outside timing: `run_batch` on each base deck. A
    // fresh variant differs from its base in the title comment only,
    // so it shares the base's records; that is checked here once.
    let mut expected = Vec::new();
    let mut points = Vec::new();
    for (base, (name, _)) in SHIPPED.iter().enumerate() {
        let text = served_deck(cfg.seed, base, 0);
        let r = reference(&text);
        let variant = reference(&served_deck(cfg.seed, base, 1));
        out.record(match (&r, &variant) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Ok(_), Ok(_)) => Err(format!("{name}: a fresh variant changes the results")),
            (Err(e), _) | (_, Err(e)) => Err(format!("{name}: reference failed: {e}")),
        });
        let deck = Deck::parse(&text).ok();
        points.push(
            deck.and_then(|d| batch_points(&d).ok())
                .map_or(0, |p| p.len() as u64),
        );
        expected.push(r.unwrap_or_default());
    }

    // Set-up: Server::start to a healthy /v1/health plus one warm-up
    // job per base deck; the last server stays up for the run.
    let mut setup = Vec::new();
    let mut server = None;
    let mut warm = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = data_root.join(format!("setup{rep}"));
        let t0 = Instant::now();
        let s = match start_server(&dir) {
            Ok(s) => s,
            Err(e) => {
                out.record(Err(e));
                return out;
            }
        };
        let healthy = http(s.addr(), "GET", "/v1/health", "").map(|r| r.status);
        out.record(match healthy {
            Ok(200) => Ok(()),
            Ok(code) => Err(format!("/v1/health answered {code}")),
            Err(e) => Err(e),
        });
        warm.clear();
        for (base, want) in expected.iter().enumerate() {
            let text = served_deck(cfg.seed, base, 0);
            let r = submit_and_stream(s.addr(), 0, &text, want);
            out.record(r.as_ref().map(drop).map_err(Clone::clone));
            if let Ok((id, _, _)) = r {
                warm.push((id, base));
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            stop_server(s, &dir);
        } else {
            server = Some((s, dir));
        }
    }
    let (server, dir) = server.expect("the last set-up server stays up");
    let addr = server.addr();
    let before = scrape(addr);

    let shared = Shared {
        addr,
        seed: cfg.seed,
        expected,
        points,
        finished: Mutex::new(warm),
        start: Instant::now(),
        deadline: Instant::now() + Duration::from_secs_f64(cfg.seconds),
        trace: cfg.trace,
    };
    let start = shared.start;
    let mut recs: Vec<Recorder> = (0..CLIENTS).map(|_| Recorder::new(start)).collect();
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = recs
            .iter_mut()
            .enumerate()
            .map(|(c, rec)| {
                let sh = &shared;
                s.spawn(move || client_loop(sh, c as u64, rec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    let after = scrape(addr);
    stop_server(server, &dir);
    let _ = std::fs::remove_dir_all(&data_root);

    let mut records = Vec::new();
    for (r, results) in per_client {
        records.extend(r);
        for result in results {
            out.record(result);
        }
    }
    if cfg.trace {
        let mut all = Recorder::new(start);
        for rec in recs {
            let offset = all.spans.len();
            all.spans.extend(rec.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
        }
        layer_metrics(
            &mut out,
            cfg,
            &shared.expected,
            &records,
            &before,
            &after,
            &mut all,
        );
        if let Err(e) = all.write_jsonl(&cfg.trace_path) {
            out.record(Err(format!("writing {}: {e}", cfg.trace_path.display())));
        }
        return out;
    }
    // Throughput per 1 s bucket of completion times within the window.
    let buckets = (cfg.seconds.floor() as usize).max(1);
    let (mut per_bucket, mut points_per_bucket) = (vec![0.0; buckets], vec![0.0; buckets]);
    for r in &records {
        if let Some(b) = per_bucket.get_mut(r.done_at as usize) {
            *b += 1.0;
            points_per_bucket[r.done_at as usize] += r.points as f64;
        }
    }
    let ops = Ops {
        latency: records.iter().map(|r| r.latency).collect(),
        first_result: records.iter().map(|r| r.first_result).collect(),
        rates: per_bucket,
        point_rates: points_per_bucket,
        points: records.iter().map(|r| r.points).sum(),
        window_s: window,
    };
    end_to_end(&mut out, &setup, &ops);
    // Per-deck submit medians, for the result file only: the printed
    // medians sit in one deck's latency mode.
    for (base, name) in PER_DECK_P50.into_iter().enumerate() {
        let v: Vec<f64> = records
            .iter()
            .filter(|r| matches!(r.kind, ServeOp::Fresh(b) | ServeOp::Resubmit(b) if b == base))
            .map(|r| r.latency)
            .collect();
        out.extra(name, median_or_zero(&v), v.len());
    }
    out
}

/// Result-file names of the per-deck medians, in `SHIPPED` order.
const PER_DECK_P50: [&str; 3] = [
    "op_p50_s.eletran_transient",
    "op_p50_s.relay_pull_in",
    "op_p50_s.speaker_ac",
];

/// A short run may have no sample of an op kind (re-reads wait for
/// enough finished jobs); the layer then reports 0, as an unreached
/// layer does.
fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// HDL entities a block declares (`ENTITY <name> IS`).
fn entities(hdl: &str) -> Vec<String> {
    let words: Vec<&str> = hdl.split_whitespace().collect();
    words
        .windows(3)
        .filter(|w| w[0].eq_ignore_ascii_case("entity") && w[2].eq_ignore_ascii_case("is"))
        .map(|w| w[1].to_string())
        .collect()
}

/// Op ids of the replayed jobs' spans, above every client's op ids.
const REPLAY_OP: u64 = 1 << 48;

/// Layer costs of one served job, replayed on the benchmark's side of
/// the socket (see [`replay_job`]). Times in seconds.
#[derive(Debug, Clone, Default)]
struct JobSample {
    layers: LayerSample,
    hdl_compile_s: f64,
    devices: u64,
    newton_iters: u64,
    rejected_steps: u64,
    fallbacks: u64,
    factor_nnz: u64,
    order_s: f64,
}

impl JobSample {
    fn add_times(&mut self, o: &JobSample, k: u64) {
        let kf = k as f64;
        self.layers.add_times(&o.layers, k);
        self.hdl_compile_s += kf * o.hdl_compile_s;
        self.devices += k * o.devices;
        self.newton_iters += k * o.newton_iters;
        self.rejected_steps += k * o.rejected_steps;
        self.fallbacks += k * o.fallbacks;
        self.factor_nnz += k * o.factor_nnz;
        self.order_s += kf * o.order_s;
    }
}

/// A pooled context with the timing decorator in its workspace.
type Pooled = (RunCtx, Arc<Mutex<MatrixTrace>>);

/// Replays one job of `text` the way a server worker runs it
/// (`run_chunk` in `mems_serve`): the server's threads are out of
/// reach without program changes, so its computation is repeated here
/// through the same public calls. An empty `pool` is a fresh
/// fingerprint: the artifact cache parses and elaborates the deck,
/// and the job runs on a cold context. A filled `pool` is a resubmit:
/// the job runs on the context the previous job of the same deck left
/// warm (cached circuits, workspace, symbolic factor). Either way the
/// job builds an `Elaborator`, chains Newton guesses with
/// `warm_start_chain` and calls `run_elaborated_ctx` per `.STEP`
/// point with `op_guess` set, and its rendered records must equal the
/// served ones.
fn replay_job(
    text: &str,
    expected: &str,
    pool: &mut Option<Pooled>,
    rec: &mut Recorder,
    op: u64,
) -> Result<JobSample, String> {
    let err = |e: mems_netlist::NetlistError| e.to_string();
    let mut js = JobSample::default();

    // Outside the job's clock: the circuit size (for the decorated
    // workspace) and one round of HDL compilation, which the server
    // pays inside every `Elaborator::new`.
    let deck = Deck::parse(text).map_err(err)?;
    let points = batch_points_with(&Elaborator::new(&deck).map_err(err)?).map_err(err)?;
    let first: ParamEnv = points
        .first()
        .map(|p| p.overrides.iter().cloned().collect())
        .unwrap_or_default();
    let (mut ckt, _) = Elaborator::new(&deck)
        .and_then(|elab| elab.build(&first, None))
        .map_err(err)?;
    js.devices = ckt.devices().len() as u64;
    let n = ckt.layout().n_unknowns;
    let th = Instant::now();
    for block in &deck.hdl_blocks {
        for entity in entities(&block.text) {
            HdlModel::compile(&block.text, &entity, None).map_err(|e| e.to_string())?;
        }
    }
    let compile_round = th.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let job = rec.push("job", t0, t0, None, op);
    let (mut ctx, trace) = match pool.take() {
        Some(pooled) => pooled,
        None => {
            // The artifact cache's miss path (`ArtifactCache::resolve`).
            let deck = Deck::parse(text).map_err(err)?;
            let t_parse = Instant::now();
            rec.push("netlist.parse", t0, t_parse, Some(job), op);
            batch_points_with(&Elaborator::new(&deck).map_err(err)?).map_err(err)?;
            let t_resolve = Instant::now();
            rec.push("netlist.elab", t_parse, t_resolve, Some(job), op);
            js.layers.parse_s = (t_parse - t0).as_secs_f64();
            js.layers.elab_s = (t_resolve - t_parse).as_secs_f64();
            js.hdl_compile_s += compile_round;
            deck::traced_ctx(&deck, &first, n, op, job)?
        }
    };
    let t_chunk = Instant::now();
    // One chunk: the served decks have at most 8 points (the default
    // `chunk_size`).
    let elab = Elaborator::new(&deck).map_err(err)?;
    let t_elab = Instant::now();
    rec.push("netlist.elab", t_chunk, t_elab, Some(job), op);
    js.layers.elab_s += (t_elab - t_chunk).as_secs_f64();
    js.hdl_compile_s += compile_round;
    let guesses = warm_start_chain(&deck, &elab, &points, false, &CancelToken::new());
    rec.push("netlist.warm_start", t_elab, Instant::now(), Some(job), op);

    let before = real_snapshot(&ctx);
    let mut records = Vec::with_capacity(points.len());
    // The benchmark's own span and counter collection, kept out of
    // the job's wall time.
    let mut bookkeeping = Duration::ZERO;
    for (index, point) in points.iter().enumerate() {
        ctx.op_guess = guesses
            .as_ref()
            .and_then(|g| g.get(index).cloned().flatten());
        let env: ParamEnv = point.overrides.iter().cloned().collect();
        trace
            .lock()
            .expect("trace lock is never held across a panic")
            .begin(op, job);
        let start = Instant::now();
        let run = run_elaborated_ctx(&elab, &env, &mut ctx).map_err(err)?;
        let end = Instant::now();
        records.push(point_json(&PointResult {
            point: point.clone(),
            outcome: Ok(extract_metrics(&deck, &run)),
        }));
        let rendered = Instant::now();
        rec.push("serve.render", end, rendered, Some(job), op);
        js.layers
            .add(&deck::collect(&trace, rec, start, end, job, op)?);
        let c = counts(&run);
        js.newton_iters += c.newton_iters;
        js.rejected_steps += c.rejected_steps;
        bookkeeping += rendered.elapsed();
    }
    ctx.op_guess = None;
    let t_end = Instant::now();
    rec.spans[job].end = rec.ns(t_end);
    js.layers.op_s = (t_end - t0 - bookkeeping).as_secs_f64();
    // Solver counters accumulate over a pooled context: this job's
    // share is the difference, attributed as the server does it.
    let after = real_snapshot(&ctx);
    js.fallbacks = after.fallbacks - before.fallbacks;
    js.factor_nnz = after.factor_nnz as u64;
    if after.factors > before.factors {
        js.order_s = after.order_us as f64 * 1e-6;
    }
    *pool = Some((ctx, trace));
    if format!("[{}]", records.join(",")) != expected {
        return Err("replayed records differ from the served ones".into());
    }
    Ok(js)
}

fn real_snapshot(ctx: &RunCtx) -> SolverStats {
    ctx.solver_snapshot()
        .into_iter()
        .find(|(label, _)| *label == "real")
        .map(|(_, st)| st)
        .unwrap_or_default()
}

/// Per-job layer means over the run's submits: each shipped deck's job
/// is replayed once fresh and once as a resubmit, and each replay is
/// weighted by how many submits of that kind the clients made.
fn replayed_layers(
    out: &mut Outcome,
    cfg: &Cfg,
    expected: &[String],
    records: &[OpRecord],
    rec: &mut Recorder,
) -> (JobSample, usize) {
    let mut sum = JobSample::default();
    let mut weight = 0usize;
    for (base, (name, _)) in SHIPPED.iter().enumerate() {
        let text = served_deck(cfg.seed, base, 0);
        let mut pool = None;
        for kind in [ServeOp::Fresh(base), ServeOp::Resubmit(base)] {
            let op = REPLAY_OP + 2 * base as u64 + u64::from(pool.is_some());
            let replay = replay_job(&text, &expected[base], &mut pool, rec, op);
            let w = records.iter().filter(|r| r.kind == kind).count();
            match replay {
                Ok(js) => {
                    sum.add_times(&js, w as u64);
                    weight += w;
                    out.record(Ok(()));
                }
                Err(e) => out.record(Err(format!("{name} replay: {e}"))),
            }
            if pool.is_none() {
                break;
            }
        }
    }
    (sum, weight)
}

fn layer_metrics(
    out: &mut Outcome,
    cfg: &Cfg,
    expected: &[String],
    records: &[OpRecord],
    before: &Result<HashMap<String, f64>, String>,
    after: &Result<HashMap<String, f64>, String>,
    rec: &mut Recorder,
) {
    let (sh, jobs) = replayed_layers(out, cfg, expected, records, rec);
    let per = |v: f64| v / jobs.max(1) as f64;
    let l = &sh.layers;
    let n = jobs;
    out.set("parse_s", per(l.parse_s), n);
    out.set("elab_s", per(l.elab_s), n);
    out.set("devices", per(sh.devices as f64), n);
    out.set("hdl_compile_s", per(sh.hdl_compile_s), n);
    out.set("assemble_s", per(l.assemble_s), n);
    out.set("assemble_n", per(l.assemble_n as f64), n);
    out.set("stamps", per(l.stamps as f64), n);
    out.set("newton_iters", per(sh.newton_iters as f64), n);
    out.set("rejected_steps", per(sh.rejected_steps as f64), n);
    out.set("step_ctl_s", per(l.step_ctl_s), n);
    out.set("order_s", per(sh.order_s), n);

    let empty = HashMap::new();
    let (a, b) = match (before, after) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            out.record(Err(format!("metrics scrape: {e}")));
            (&empty, &empty)
        }
    };
    let ops = records.len().max(1) as f64;
    let submits: Vec<f64> = records.iter().filter_map(|r| r.submit).collect();
    let rereads: Vec<f64> = records
        .iter()
        .filter(|r| r.kind == ServeOp::Reread)
        .map(|r| r.latency)
        .collect();
    let hits = delta(a, b, "mems_serve_cache_events_total{event=\"hit\"}");
    let misses = delta(a, b, "mems_serve_cache_events_total{event=\"miss\"}");
    let order_hits = delta(
        a,
        b,
        "mems_serve_ordering_cache_events_total{cache=\"ordering\",event=\"hit\"}",
    );
    let chunks = delta(a, b, "mems_serve_chunk_seconds_count");
    out.set("order_cache_hits", order_hits / ops, records.len());
    out.set("factor_cold_s", per(l.factor_cold_s), n);
    out.set("factor_cold_n", per(l.factor_cold_n as f64), n);
    out.set("factor_nnz", per(sh.factor_nnz as f64), n);
    out.set("refactor_s", per(l.refactor_s), n);
    out.set("refactor_n", per(l.refactor_n as f64), n);
    out.set("solve_s", per(l.solve_s), n);
    out.set("solve_n", per(l.solve_n as f64), n);
    out.set("fallbacks", per(sh.fallbacks as f64), n);
    out.set("submit_p50_s", median_or_zero(&submits), submits.len());
    out.set(
        "artifact_hit_ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );
    out.set("artifact_base_n", hits + misses, 1);
    out.set(
        "chunk_mean_s",
        delta(a, b, "mems_serve_chunk_seconds_sum") / chunks.max(1.0),
        chunks as usize,
    );
    out.set(
        "rejected_n",
        delta_prefix(a, b, "mems_serve_rejected_total"),
        1,
    );
    out.set(
        "store_bytes_written",
        delta(a, b, "mems_serve_store_bytes_written_total") / submits.len().max(1) as f64,
        submits.len(),
    );
    out.set("spill_read_p50_s", median_or_zero(&rereads), rereads.len());
    let lat = |traced: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.latency)
            .collect()
    };
    out.set(
        "trace_overhead_ratio",
        median_or_zero(&lat(true)) / median(&lat(false)),
        records.len(),
    );
    out.set("span_coverage", l.coverage(), n);
    out.set("assemble_share", l.assemble_s / l.op_s, n);
    out.set("refactor_share", l.refactor_s / l.op_s, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_check_counts_a_corrupted_record_as_failed() {
        let expected = reference(&served_deck(4, 1, 0)).unwrap();
        let frame = |points: &str, state: &str| {
            format!("{{\"id\":1,\"from\":0,\"total\":4,\"points\":{points},\"next\":4,\"state\":\"{state}\"}}")
        };
        let digit = expected.find(|c: char| c.is_ascii_digit()).unwrap();
        let mut corrupted = expected.clone();
        let flipped = if &expected[digit..=digit] == "7" {
            "8"
        } else {
            "7"
        };
        corrupted.replace_range(digit..=digit, flipped);
        let mut out = Outcome::default();
        out.record(check_stream(&frame(&expected, "done"), &expected));
        out.record(check_stream(&frame(&corrupted, "done"), &expected));
        out.record(check_stream(&frame(&expected, "failed"), &expected));
        assert_eq!((out.attempted, out.failed), (3, 2), "{:?}", out.failures);
    }

    #[test]
    fn replayed_jobs_render_the_served_records() {
        let text = served_deck(4, 0, 0);
        let expected = reference(&text).unwrap();
        let mut rec = Recorder::new(Instant::now());
        let mut pool = None;
        let fresh = replay_job(&text, &expected, &mut pool, &mut rec, 0).unwrap();
        let resubmit = replay_job(&text, &expected, &mut pool, &mut rec, 1).unwrap();
        // Only a fresh fingerprint is parsed and resolved by the cache.
        assert!(fresh.layers.parse_s > 0.0 && resubmit.layers.parse_s == 0.0);
        assert!(fresh.hdl_compile_s > resubmit.hdl_compile_s);
        assert_eq!(fresh.newton_iters, resubmit.newton_iters);
        assert!(resubmit.layers.assemble_n > 0);
        assert!(replay_job(&text, "[]", &mut pool, &mut rec, 2).is_err());
    }

    #[test]
    fn entity_names_are_found() {
        let (_, eletran) = SHIPPED[0];
        assert_eq!(entities(eletran), vec!["eletran".to_string()]);
    }
}
