//! `serve-steady` and `serve-churn`: the session server over TCP on
//! localhost, in this process.
//!
//! Both mixes run a `saxpy` job whose size is 1024 elements (4 KiB) with
//! probability 3/4 and 4096 (16 KiB) with probability 1/4, drawn from the
//! seed: the mix straddles the server's 8 KiB frame buffer, which is what
//! wire latency depends on. Every element read back is checked.
//!
//! - `serve-steady`: two connections, each holding one session for the
//!   whole run, so the server's kernel-handle cache is hit. A job is write
//!   x, write y, launch, read y. Open loop at 50 jobs/s: 25/s per
//!   connection, the two offset by half a period. A job held up by the
//!   one before it counts its latency from its due time, so a stall
//!   delays the jobs queued behind it.
//! - `serve-churn`: two connections in a closed loop, one session per
//!   job: open, alloc x2, write x2, launch, read, close. Every job pays a
//!   slot recycle and a kernel rebuild that the steady mix skips.

use crate::metrics::{self, KINDS};
use crate::spans::{self, span};
use crate::stats::{self, Digest};
use crate::{Measured, Opts, SETUPS};
use gpucmp_fuzz::{case_seed, Rng};
use gpucmp_server::{
    serve_local, Client, Request, Response, ServerConfig, ServerHandle, SessionService, TenantQuota,
};
use gpucmp_sim::DeviceSpec;
use std::time::{Duration, Instant};

const CONNS: usize = 2;
/// Per-connection period of the open loop: 25 jobs/s each, 50/s in all.
const PERIOD_US: u64 = 40_000;
const SMALL: u32 = 1024;
const LARGE: u32 = 4096;
const BLOCK: u32 = 256;
/// Jobs generated per churn connection, cycled.
const CHURN_POOL: usize = 500;
/// Jobs per connection replayed in process on `SessionService::handle`.
const REPLAY_JOBS: usize = 200;
/// Jobs per connection whose readbacks form the digest.
const DIGEST_JOBS: usize = 250;
/// Time from starting a phase to its first job, so both load threads are
/// up before anything is due.
const LEAD: Duration = Duration::from_millis(5);

const SPAN_NAMES: [&str; 6] = [
    "server.open",
    "server.alloc",
    "server.write",
    "server.launch",
    "server.read",
    "server.close",
];

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Steady,
    Churn,
}

fn config() -> ServerConfig {
    ServerConfig {
        device: DeviceSpec::gtx480(),
        slots: 4,
        arena_bytes: 4 << 20,
        quota: TenantQuota::default(),
        trace: false,
    }
}

/// One saxpy job: `y = a*x + y` over `n` elements.
struct Job {
    n: u32,
    a: f32,
    x: Vec<u8>,
    y: Vec<u8>,
    want: Vec<u8>,
}

fn le(v: impl Iterator<Item = f32>) -> Vec<u8> {
    v.flat_map(f32::to_le_bytes).collect()
}

fn job(n: u32, a: u32, s: u32) -> Job {
    // Small integers keep a*x + y exact in f32, fused or not.
    let x = |i: u32| ((i * 7 + s) % 1024) as f32;
    let y = |i: u32| ((i * 13 + s) % 2048) as f32;
    Job {
        n,
        a: a as f32,
        x: le((0..n).map(x)),
        y: le((0..n).map(y)),
        want: le((0..n).map(|i| a as f32 * x(i) + y(i))),
    }
}

fn jobs(seed: u64, conn: usize, count: usize) -> Vec<Job> {
    let mut rng = Rng::new(case_seed(seed, conn as u64));
    (0..count)
        .map(|_| {
            let n = if rng.chance(1, 4) { LARGE } else { SMALL };
            let a = rng.range(1, 9) as u32;
            let s = rng.below(1024) as u32;
            job(n, a, s)
        })
        .collect()
}

/// Steady-mix jobs connection `conn` has due within `seconds`.
fn due_jobs(conn: usize, seconds: f64) -> usize {
    let run_us = (seconds * 1e6) as u64;
    let offset_us = conn as u64 * PERIOD_US / 2;
    run_us.saturating_sub(offset_us).div_ceil(PERIOD_US).max(1) as usize
}

/// How requests reach the service.
trait Transport {
    fn call(&mut self, req: Request) -> Result<Response, String>;
}

impl Transport for Client {
    fn call(&mut self, req: Request) -> Result<Response, String> {
        self.request(&req).map_err(|e| e.to_string())
    }
}

/// The service called in process, timing the codec and `handle` apart.
struct InProcess<'a> {
    svc: &'a SessionService,
    handle_us: [Vec<f64>; 6],
    codec_us: [Vec<f64>; 6],
}

impl Transport for InProcess<'_> {
    fn call(&mut self, req: Request) -> Result<Response, String> {
        let k = kind(&req);
        let t0 = Instant::now();
        let req = Request::decode(&req.encode()).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let resp = self.svc.handle(req);
        let t2 = Instant::now();
        let resp = Response::decode(&resp.encode()).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        if let Some(k) = k {
            self.handle_us[k].push((t2 - t1).as_secs_f64() * 1e6);
            self.codec_us[k].push(((t1 - t0) + (t3 - t2)).as_secs_f64() * 1e6);
        }
        Ok(resp)
    }
}

fn kind(req: &Request) -> Option<usize> {
    Some(match req {
        Request::Open { .. } => 0,
        Request::Alloc { .. } => 1,
        Request::Write { .. } => 2,
        Request::Launch { .. } => 3,
        Request::Read { .. } => 4,
        Request::Close { .. } => 5,
        Request::Reset { .. } | Request::Stats => return None,
    })
}

fn send(t: &mut impl Transport, req: Request) -> Result<Response, String> {
    match kind(&req) {
        Some(k) => span(SPAN_NAMES[k], || t.call(req)),
        None => t.call(req),
    }
}

fn open(t: &mut impl Transport, tenant: &str) -> Result<u64, String> {
    match send(
        t,
        Request::Open {
            tenant: tenant.into(),
        },
    )? {
        Response::Opened { session } => Ok(session),
        other => Err(format!("open: {other:?}")),
    }
}

fn alloc(t: &mut impl Transport, session: u64, bytes: u64) -> Result<u64, String> {
    match send(t, Request::Alloc { session, bytes })? {
        Response::Allocated { ptr } => Ok(ptr),
        other => Err(format!("alloc: {other:?}")),
    }
}

fn expect(t: &mut impl Transport, req: Request, want: Response) -> Result<(), String> {
    match send(t, req)? {
        r if r == want => Ok(()),
        other => Err(format!("expected {want:?}, got {other:?}")),
    }
}

/// A session with its two buffers, sized for the largest job.
struct Held {
    session: u64,
    x: u64,
    y: u64,
}

fn hold(t: &mut impl Transport, tenant: &str) -> Result<Held, String> {
    let session = open(t, tenant)?;
    let bytes = LARGE as u64 * 4;
    Ok(Held {
        session,
        x: alloc(t, session, bytes)?,
        y: alloc(t, session, bytes)?,
    })
}

/// Write x and y, launch saxpy, read y back.
fn saxpy(t: &mut impl Transport, h: &Held, j: &Job) -> Result<Vec<u8>, String> {
    let session = h.session;
    expect(
        t,
        Request::Write {
            session,
            ptr: h.x,
            data: j.x.clone(),
        },
        Response::Written,
    )?;
    expect(
        t,
        Request::Write {
            session,
            ptr: h.y,
            data: j.y.clone(),
        },
        Response::Written,
    )?;
    let params = vec![h.x, h.y, f32::to_bits(j.a) as u64, j.n as u64];
    let launch = Request::Launch {
        session,
        kernel: "saxpy".into(),
        grid: j.n / BLOCK,
        block: BLOCK,
        params,
    };
    match send(t, launch)? {
        Response::Launched { .. } => {}
        other => return Err(format!("launch: {other:?}")),
    }
    match send(
        t,
        Request::Read {
            session,
            ptr: h.y,
            bytes: j.n as u64 * 4,
        },
    )? {
        Response::Data { data } => Ok(data),
        other => Err(format!("read: {other:?}")),
    }
}

/// One churn job: a session of its own around one saxpy.
fn churn_job(t: &mut impl Transport, tenant: &str, j: &Job) -> Result<Vec<u8>, String> {
    let session = open(t, tenant)?;
    let body = |t: &mut _| -> Result<Vec<u8>, String> {
        let bytes = j.n as u64 * 4;
        let h = Held {
            session,
            x: alloc(t, session, bytes)?,
            y: alloc(t, session, bytes)?,
        };
        saxpy(t, &h, j)
    };
    let data = body(t);
    let closed = expect(t, Request::Close { session }, Response::Closed);
    let data = data?;
    closed?;
    Ok(data)
}

fn run_job(
    mix: Mix,
    t: &mut impl Transport,
    held: Option<&Held>,
    tenant: &str,
    j: &Job,
) -> Result<Vec<u8>, String> {
    match (mix, held) {
        (Mix::Steady, Some(h)) => saxpy(t, h, j),
        _ => churn_job(t, tenant, j),
    }
}

fn tenant(mix: Mix, conn: usize) -> String {
    match mix {
        Mix::Steady => format!("steady-{conn}"),
        Mix::Churn => format!("churn-{conn}"),
    }
}

/// One load connection and its inputs.
struct Conn {
    client: Client,
    held: Option<Held>,
    jobs: Vec<Job>,
}

/// A running server with its connections set up and warmed.
struct Env {
    server: ServerHandle,
    conns: Vec<Conn>,
}

fn start(mix: Mix, opts: &Opts) -> Result<Env, String> {
    let server = serve_local(config()).map_err(|e| format!("server start: {e}"))?;
    let mut conns = Vec::new();
    for c in 0..CONNS {
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let name = tenant(mix, c);
        let held = match mix {
            Mix::Steady => Some(hold(&mut client, &name)?),
            Mix::Churn => None,
        };
        for warm in [job(SMALL, 1, 0), job(LARGE, 1, 0)] {
            let got = run_job(mix, &mut client, held.as_ref(), &name, &warm)?;
            if got != warm.want {
                return Err("warm-up job read back a wrong y".into());
            }
        }
        let count = match mix {
            Mix::Steady => due_jobs(c, opts.seconds),
            Mix::Churn => CHURN_POOL,
        };
        conns.push(Conn {
            client,
            held,
            jobs: jobs(opts.seed, c, count),
        });
    }
    Ok(Env { server, conns })
}

impl Env {
    /// Close held sessions; the pool must then be whole again.
    fn finish(mut self, problems: &mut Vec<String>) {
        for c in &mut self.conns {
            if let Some(h) = c.held.take() {
                if let Err(e) = expect(
                    &mut c.client,
                    Request::Close { session: h.session },
                    Response::Closed,
                ) {
                    problems.push(format!("closing a held session: {e}"));
                }
            }
        }
        let st = self.server.service().stats();
        if st.slots_free != st.slots {
            problems.push(format!(
                "{} of {} slots free at the end",
                st.slots_free, st.slots
            ));
        }
        if st.opens != st.closes {
            problems.push(format!("{} opens but {} closes", st.opens, st.closes));
        }
        self.server.shutdown();
    }
}

/// What one load connection saw in one phase.
#[derive(Default)]
struct ConnOut {
    /// (completion since the phase started in s, latency in ms) per job.
    done: Vec<(f64, f64)>,
    lag_ms: Vec<f64>,
    ok: Vec<bool>,
    errors: Vec<String>,
    digest: Digest,
    recording: spans::Recording,
}

/// When a connection's jobs start, and what their latency counts from.
enum Schedule {
    /// Open loop: job `k` is due at `t0 + k * period`. It starts then, or
    /// when the job before it finishes if that is later. When the job
    /// before it made it late, its latency counts from the due time, so
    /// one stalled job delays every job queued behind it. When the
    /// harness thread merely woke late from its sleep, that lateness is
    /// the generator's own (reported as its lag), not the server's.
    Open { t0: Instant, period: Duration },
    /// Closed loop from `t0`: each job starts when the previous one ends.
    Closed { t0: Instant },
}

impl Schedule {
    /// Wait until job `k` may start, which is called as the job before it
    /// ends. Returns the instant its latency counts from, and the instant
    /// it was due.
    fn begin(&self, k: usize) -> (Instant, Instant) {
        let (due, open) = match *self {
            Schedule::Open { t0, period } => (t0 + period * k as u32, true),
            Schedule::Closed { t0 } => (t0, false),
        };
        let now = Instant::now();
        if due > now {
            span("harness.idle", || std::thread::sleep(due - now));
        } else if open {
            return (due, due);
        }
        (Instant::now(), due)
    }
}

/// Drive every connection through one phase. Steady connections run their
/// job lists on the open-loop schedule; churn connections run closed-loop
/// until `seconds` pass, or exactly `limit[c]` jobs when given.
fn phase(
    mix: Mix,
    env: &mut Env,
    seconds: f64,
    limit: Option<&[usize]>,
    trace: bool,
    mutate: bool,
) -> (Vec<ConnOut>, u64, u64) {
    let s0 = spans::now_ns();
    let t0 = Instant::now() + LEAD;
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = env
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    if trace {
                        spans::start(c as u32);
                    }
                    let name = tenant(mix, c);
                    let mut out = ConnOut::default();
                    let schedule = match mix {
                        Mix::Steady => Schedule::Open {
                            t0: t0 + Duration::from_micros(c as u64 * PERIOD_US / 2),
                            period: Duration::from_micros(PERIOD_US),
                        },
                        Mix::Churn => Schedule::Closed { t0 },
                    };
                    let mut k = 0usize;
                    loop {
                        let more = match (mix, limit) {
                            (Mix::Steady, _) => k < conn.jobs.len(),
                            (Mix::Churn, Some(l)) => k < l[c],
                            (Mix::Churn, None) => k == 0 || t0.elapsed().as_secs_f64() < seconds,
                        };
                        if !more {
                            break;
                        }
                        let j = &conn.jobs[k % conn.jobs.len()];
                        let (began, due) = schedule.begin(k);
                        if mix == Mix::Steady {
                            out.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        }
                        spans::set_req(k as u64);
                        let r = span("harness.job", || {
                            run_job(mix, &mut conn.client, conn.held.as_ref(), &name, j)
                        });
                        out.done.push((
                            t0.elapsed().as_secs_f64(),
                            began.elapsed().as_secs_f64() * 1e3,
                        ));
                        let ok = match r {
                            Ok(mut data) => {
                                if mutate && c == 0 && k == 0 {
                                    data[0] ^= 1;
                                }
                                if k < DIGEST_JOBS {
                                    out.digest.eat(&data);
                                }
                                data == j.want
                            }
                            Err(e) => {
                                out.errors.push(format!("connection {c} job {k}: {e}"));
                                false
                            }
                        };
                        out.ok.push(ok);
                        k += 1;
                    }
                    out.recording = spans::finish();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    });
    (outs, s0, spans::now_ns())
}

pub fn steady(opts: &Opts) -> Measured {
    run(Mix::Steady, opts)
}

pub fn churn(opts: &Opts) -> Measured {
    run(Mix::Churn, opts)
}

fn run(mix: Mix, opts: &Opts) -> Measured {
    let mut m = Measured::default();
    m.notes.push(match mix {
        Mix::Steady => format!(
            "op = one job (write x, write y, launch saxpy, read y) on a held session; \
             open loop at {} jobs/s over {CONNS} connections",
            CONNS as u64 * 1_000_000 / PERIOD_US
        ),
        Mix::Churn => format!(
            "op = one job (open, alloc x2, write x2, launch saxpy, read y, close); \
             closed loop over {CONNS} connections"
        ),
    });
    let mut env = None;
    for rep in 0..SETUPS {
        let t = Instant::now();
        match start(mix, opts) {
            Ok(e) => {
                m.setup_s.push(t.elapsed().as_secs_f64());
                if rep + 1 < SETUPS {
                    e.finish(&mut m.problems);
                } else {
                    env = Some(e);
                }
            }
            Err(e) => m.problems.push(format!("set-up: {e}")),
        }
    }
    let Some(mut env) = env else {
        return m;
    };

    crate::reset_peak_rss();
    let (outs, s0, s1) = phase(mix, &mut env, opts.seconds, None, false, opts.mutate);
    m.peak_rss_mb.extend(crate::peak_rss_mb());
    // Measured from the first job's start, as the completion times are.
    m.wall_s = (s1 - s0) as f64 / 1e9 - LEAD.as_secs_f64();
    let mut digest = Digest::default();
    let mut lags = Vec::new();
    let mut done = Vec::new();
    for o in &outs {
        done.extend(&o.done);
        lags.extend(&o.lag_ms);
        for &ok in &o.ok {
            m.op(ok);
        }
        m.problems.extend(o.errors.iter().cloned());
        digest.eat(o.digest.hex().as_bytes());
    }
    m.windows = stats::time_windows(done, m.wall_s);
    m.digest = digest.hex();
    if mix == Mix::Steady {
        let lag = stats::tail(&stats::sorted(&lags));
        m.notes.push(format!(
            "generator lag: p50 {:.3} ms, tail {:.3} ms (n={})",
            stats::percentile(&stats::sorted(&lags), 50),
            lag.value,
            lags.len()
        ));
    }
    if opts.trace {
        let done: Vec<usize> = outs.iter().map(|o| o.ok.len()).collect();
        traced_pass(mix, &mut m, &mut env, opts, &done, &lags);
    }
    env.finish(&mut m.problems);
    m
}

/// Repeat the phase's jobs with spans on, then replay a prefix of them in
/// process to split request time into service, codec and wire.
fn traced_pass(
    mix: Mix,
    m: &mut Measured,
    env: &mut Env,
    opts: &Opts,
    done: &[usize],
    lags: &[f64],
) {
    let before = env.server.service().stats();
    let recycles_before = env.server.service().pool().recycles();
    let (outs, s0, s1) = phase(mix, env, opts.seconds, Some(done), true, false);
    let after = env.server.service().stats();
    let mut recordings = Vec::new();
    let mut traced_ms = 0.0;
    for (c, o) in outs.into_iter().enumerate() {
        traced_ms += o.done.iter().map(|d| d.1).sum::<f64>();
        for &ok in &o.ok {
            m.op(ok);
        }
        m.problems.extend(o.errors);
        recordings.push(spans::rooted(o.recording, "harness.conn", c as u32, s0, s1));
    }
    let rec = spans::merge(recordings);
    let mut t = metrics::from_recording(&rec, (s1 - s0) * CONNS as u64);
    let l = &mut t.layers;
    let untraced_ms: f64 = m.op_ms().iter().sum();
    l.set("harness.trace_overhead", traced_ms / untraced_ms - 1.0);
    if mix == Mix::Steady {
        l.set(
            "harness.gen_lag_p99_ms",
            stats::tail(&stats::sorted(lags)).value,
        );
    }
    l.set(
        "server.recycles",
        (env.server.service().pool().recycles() - recycles_before) as f64,
    );
    l.set(
        "server.busy_rejections",
        (after.busy_rejections - before.busy_rejections) as f64,
    );
    l.set(
        "server.quota_rejections",
        (after.quota_rejections - before.quota_rejections) as f64,
    );
    l.set(
        "server.device_faults",
        (after.device_faults - before.device_faults) as f64,
    );

    // The same requests, replayed on a fresh in-process service.
    let svc = match SessionService::new(config()) {
        Ok(s) => s,
        Err(e) => {
            m.problems.push(format!("in-process service: {e}"));
            return;
        }
    };
    let mut local = InProcess {
        svc: &svc,
        handle_us: Default::default(),
        codec_us: Default::default(),
    };
    for (c, conn) in env.conns.iter().enumerate() {
        let name = tenant(mix, c);
        let replay = (|| -> Result<(), String> {
            let held = match mix {
                Mix::Steady => Some(hold(&mut local, &name)?),
                Mix::Churn => None,
            };
            for j in conn.jobs.iter().take(REPLAY_JOBS) {
                if run_job(mix, &mut local, held.as_ref(), &name, j)? != j.want {
                    return Err("replayed job read back a wrong y".into());
                }
            }
            if let Some(h) = held {
                expect(
                    &mut local,
                    Request::Close { session: h.session },
                    Response::Closed,
                )?;
            }
            Ok(())
        })();
        if let Err(e) = replay {
            m.problems
                .push(format!("in-process replay, connection {c}: {e}"));
        }
    }

    for (k, kind) in KINDS.iter().enumerate() {
        let req_us: Vec<f64> = rec
            .spans
            .iter()
            .filter(|s| s.name == SPAN_NAMES[k])
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let p50 = |v: &[f64]| (!v.is_empty()).then(|| stats::percentile(&stats::sorted(v), 50));
        let (Some(req), handle, codec) = (
            p50(&req_us),
            p50(&local.handle_us[k]).unwrap_or(0.0),
            p50(&local.codec_us[k]).unwrap_or(0.0),
        ) else {
            continue;
        };
        l.set(format!("server.req_p50_us.{kind}"), req);
        l.set(
            format!("server.req_p99_us.{kind}"),
            stats::tail(&stats::sorted(&req_us)).value,
        );
        l.set(format!("server.handle_us.{kind}"), handle);
        l.set(format!("server.codec_us.{kind}"), codec);
        l.set(format!("server.wire_us.{kind}"), req - handle - codec);
    }
    m.layers = Some(t.layers);
    m.table = t.table;
    m.spans = rec.spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Latencies of four jobs where job 0 stalls for 3.5 periods.
    fn latencies(schedule: &Schedule, period: Duration) -> Vec<Duration> {
        (0..4)
            .map(|k| {
                let (from, _) = schedule.begin(k);
                if k == 0 {
                    std::thread::sleep(period * 7 / 2);
                }
                from.elapsed()
            })
            .collect()
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let period = Duration::from_millis(20);
        let open = latencies(
            &Schedule::Open {
                t0: Instant::now(),
                period,
            },
            period,
        );
        // Job k is due at k periods but starts only after the stall ends
        // at 3.5 periods: the stall is charged to every job behind it.
        for (k, lat) in open.iter().enumerate() {
            let waited = period * 7 / 2 - period * k as u32;
            assert!(*lat >= waited, "job {k}: {lat:?} < {waited:?}");
        }
        assert!(open[3] < open[1], "the backlog drains");
        // A job due after its predecessor ended counts from its start, not
        // from its due time: a late wake-up is the generator's lag.
        let s = Schedule::Open {
            t0: Instant::now() + period,
            period,
        };
        let (from, due) = s.begin(0);
        assert!(from >= due);

        // A closed loop charges the stall to the stalled job alone.
        let closed = latencies(&Schedule::Closed { t0: Instant::now() }, period);
        assert!(closed[0] >= period * 7 / 2);
        assert!(closed[1..].iter().all(|l| *l < period), "{closed:?}");
    }

    #[test]
    fn due_jobs_fill_the_run_at_the_offered_rate() {
        // 20 s at 25 jobs/s per connection, the second offset by half a
        // period: 500 jobs each, 1000 in all.
        assert_eq!(due_jobs(0, 20.0), 500);
        assert_eq!(due_jobs(1, 20.0), 500);
        assert_eq!(due_jobs(1, 0.0), 1, "every connection runs a job");
    }

    #[test]
    fn saxpy_inputs_are_exact_in_f32() {
        let j = job(LARGE, 8, 1023);
        let f = |b: &[u8]| -> Vec<f32> {
            b.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        let (x, y, want) = (f(&j.x), f(&j.y), f(&j.want));
        for i in 0..j.n as usize {
            assert_eq!(want[i], j.a.mul_add(x[i], y[i]), "fused and unfused agree");
            assert_eq!(want[i] as f64, j.a as f64 * x[i] as f64 + y[i] as f64);
        }
    }
}
