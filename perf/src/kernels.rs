//! `kernels-fresh`: many distinct generated kernels that share no work.
//!
//! Set-up generates a pool of kernels with `gpucmp_fuzz::generate` from
//! the run's seed. The measured phase takes them in order: each is built,
//! given its buffers, launched once and read back through both the CUDA
//! and the OpenCL runtime on a GTX 480, each in a fresh session, until
//! `--seconds` have passed (cycling the pool if the program is fast enough
//! to exhaust it). This is the traffic of fuzzing, Table V and the test
//! suite: compile and decode costs are paid on every kernel.
//!
//! Check: every twentieth case is run again on the interpreter tier and
//! must match its own API's default-tier run bit for bit (buffers and
//! `ExecStats`), or fault with the same kind. The APIs are not compared
//! with each other: their front-ends legitimately round differently.

use crate::metrics;
use crate::spans::{self, span};
use crate::stats::{self, Digest};
use crate::traced::{self, Traced};
use crate::{Measured, Opts, SETUPS};
use gpucmp_compiler::Api;
use gpucmp_fuzz::{case_seed, generate, FuzzCase, ScalarSpec};
use gpucmp_runtime::{Gpu, RtError};
use gpucmp_sim::{DeviceSpec, ExecStats, ExecTier, FaultKind, LaunchConfig};
use std::collections::BTreeSet;
use std::time::Instant;

/// Kernels generated for the measured phase.
const POOL: u64 = 20_000;
/// Further kernels run once before timing starts.
const WARM: u64 = 500;
/// Every this-many-th case is re-checked on the interpreter tier.
const CHECK_EVERY: usize = 20;
/// Cases whose outputs form the digest (a fixed prefix, so the digest
/// does not depend on how many cases a run gets through).
const DIGEST_CASES: usize = 2_000;
/// Builds the traced pass replays stage by stage, at most.
const SAMPLED_BUILDS: usize = 2_000;

const APIS: [Api; 2] = [Api::Cuda, Api::OpenCl];

/// A generated kernel with its buffers' initial contents.
struct Prepared {
    case: FuzzCase,
    data: Vec<Vec<u8>>,
}

fn prepare(seed: u64, range: std::ops::Range<u64>) -> Vec<Prepared> {
    range
        .map(|i| {
            let case = generate(case_seed(seed, i));
            let data = case.bufs.iter().map(|b| b.data()).collect();
            Prepared { case, data }
        })
        .collect()
}

/// What one launch left behind.
#[derive(Debug)]
enum Outcome {
    Done {
        mems: Vec<Vec<u8>>,
        stats: Box<ExecStats>,
    },
    Fault(FaultKind),
}

/// Bit-for-bit agreement, or the same fault kind.
fn same(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (
            Outcome::Done { mems, stats },
            Outcome::Done {
                mems: m2,
                stats: s2,
            },
        ) => mems == m2 && stats == s2,
        (Outcome::Fault(f), Outcome::Fault(g)) => {
            std::mem::discriminant(f) == std::mem::discriminant(g)
        }
        _ => false,
    }
}

fn run_case(gpu: &mut dyn Gpu, p: &Prepared) -> Result<Outcome, RtError> {
    let case = &p.case;
    let h = gpu.build(&case.def)?;
    let mut ptrs = Vec::with_capacity(case.bufs.len());
    for (b, data) in case.bufs.iter().zip(&p.data) {
        let ptr = gpu.malloc(b.bytes())?;
        gpu.h2d(ptr, data)?;
        ptrs.push(ptr);
    }
    let mut cfg = LaunchConfig::new(case.grid, case.block);
    for &ptr in &ptrs {
        cfg = cfg.arg_ptr(ptr);
    }
    for s in &case.scalars {
        cfg = match *s {
            ScalarSpec::I32(v) => cfg.arg_i32(v),
            ScalarSpec::F32(v) => cfg.arg_f32(v),
        };
    }
    if let Some(b) = case.inst_budget {
        cfg.inst_budget = b;
    }
    match gpu.launch_config(h, &cfg) {
        Ok(out) => {
            let mut mems = Vec::with_capacity(ptrs.len());
            for (b, &ptr) in case.bufs.iter().zip(&ptrs) {
                let mut v = vec![0u8; b.bytes() as usize];
                gpu.d2h(ptr, &mut v)?;
                mems.push(v);
            }
            Ok(Outcome::Done {
                mems,
                stats: Box::new(out.report.stats),
            })
        }
        Err(e) => match e.device_fault() {
            Some(f) => Ok(Outcome::Fault(f.kind.clone())),
            None => Err(e),
        },
    }
}

/// Run `p` through `api` in a fresh session, on `tier` if given.
fn fresh(api: Api, p: &Prepared, tier: Option<ExecTier>, trace: bool) -> Result<Outcome, RtError> {
    let mut gpu = traced::session(api, DeviceSpec::gtx480())?;
    if let Some(t) = tier {
        let o = gpu.exec_options().tier(t);
        gpu.set_exec_options(o);
    }
    if trace {
        run_case(&mut Traced::new(gpu.as_mut(), false), p)
    } else {
        run_case(gpu.as_mut(), p)
    }
}

pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured::default();
    m.notes.push(format!(
        "op = one generated kernel (of {POOL} from seed {}) through both APIs on GTX480",
        opts.seed
    ));
    let mut pool = Vec::new();
    let mut gen_ms = 0.0;
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut pool));
        let t = Instant::now();
        pool = prepare(opts.seed, 0..POOL);
        let warm = prepare(opts.seed, POOL..POOL + WARM);
        gen_ms = t.elapsed().as_secs_f64() * 1e3;
        for p in &warm {
            for api in APIS {
                if let Err(e) = fresh(api, p, None, false) {
                    m.problems
                        .push(format!("warm-up case {}: {e}", p.case.name));
                }
            }
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut bad: BTreeSet<usize> = BTreeSet::new();
    let mut checks: Vec<(usize, Api, Outcome)> = Vec::new();
    let mut digest = Digest::default();
    let mut mutated = false;
    let mut ops = Vec::new();
    crate::reset_peak_rss();
    let start = Instant::now();
    let mut n = 0usize;
    while n == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let p = &pool[n % pool.len()];
        let t = Instant::now();
        let outs = APIS.map(|api| fresh(api, p, None, false));
        ops.push((
            start.elapsed().as_secs_f64(),
            t.elapsed().as_secs_f64() * 1e3,
        ));
        for (api, out) in APIS.into_iter().zip(outs) {
            match out {
                Ok(mut out) => {
                    if opts.mutate && !mutated && n % CHECK_EVERY == 0 {
                        if let Outcome::Done { mems, .. } = &mut out {
                            if let Some(b) = mems.iter_mut().find_map(|v| v.first_mut()) {
                                *b ^= 1;
                                mutated = true;
                            }
                        }
                    }
                    if n < DIGEST_CASES {
                        digest.eat(api.name().as_bytes());
                        digest.eat_debug(&out);
                    }
                    if n % CHECK_EVERY == 0 {
                        checks.push((n, api, out));
                    }
                }
                Err(e) => {
                    if bad.insert(n) {
                        m.problems.push(format!("case {n} ({}): {e}", api.name()));
                    }
                }
            }
        }
        n += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.peak_rss_mb.extend(crate::peak_rss_mb());
    m.windows = stats::time_windows(ops, m.wall_s);
    m.digest = digest.hex();
    if n < DIGEST_CASES {
        m.notes.push(format!(
            "digest covers the {n} cases run, not {DIGEST_CASES}"
        ));
    }

    for (i, api, want) in &checks {
        let got = fresh(*api, &pool[i % pool.len()], Some(ExecTier::Interp), false);
        if !matches!(&got, Ok(g) if same(g, want)) && bad.insert(*i) {
            m.problems.push(format!(
                "case {i} ({}): interpreter run differs from the default tier",
                api.name()
            ));
        }
    }
    m.attempted = n as u64;
    if opts.trace {
        traced_pass(&mut m, &pool, n, &checks, &mut bad, gen_ms);
    }
    m.failed = bad.len() as u64;
    m
}

/// Run the same `n` cases again with every `Gpu` call wrapped.
fn traced_pass(
    m: &mut Measured,
    pool: &[Prepared],
    n: usize,
    checks: &[(usize, Api, Outcome)],
    bad: &mut BTreeSet<usize>,
    gen_ms: f64,
) {
    spans::start(0);
    traced::start_capture((2 * n).div_ceil(SAMPLED_BUILDS));
    let mut checks = checks.iter().peekable();
    let mut traced_ms = 0.0;
    let t0 = spans::now_ns();
    for i in 0..n {
        spans::set_req(i as u64);
        let t = Instant::now();
        let outs = span("harness.case", || {
            APIS.map(|api| fresh(api, &pool[i % pool.len()], None, true))
        });
        traced_ms += t.elapsed().as_secs_f64() * 1e3;
        for (api, out) in APIS.into_iter().zip(outs) {
            let agrees = match checks.next_if(|(j, a, _)| *j == i && *a == api) {
                Some((_, _, want)) => matches!(&out, Ok(o) if same(o, want)),
                None => out.is_ok(),
            };
            if !agrees && bad.insert(i) {
                m.problems
                    .push(format!("case {i} ({}): traced run differs", api.name()));
            }
        }
    }
    let t1 = spans::now_ns();
    m.attempted += n as u64;
    let rec = spans::rooted(spans::finish(), "harness.main", 0, t0, t1);
    let mut t = metrics::from_recording(&rec, t1 - t0);
    let untraced_ms: f64 = m.op_ms().iter().sum();
    t.layers
        .set("harness.trace_overhead", traced_ms / untraced_ms - 1.0);
    t.layers.set("fuzz.gen_ms", gen_ms);
    match traced::replay_stages(&traced::take_capture()) {
        Ok(st) => metrics::set_stages(&mut t.layers, &st),
        Err(e) => m.problems.push(format!("compile-stage replay: {e}")),
    }
    m.layers = Some(t.layers);
    m.table = t.table;
    m.spans = rec.spans;
}
