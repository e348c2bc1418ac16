//! End-to-end validation of the chrome-trace export: trace a real
//! benchmark session, serialise it, and parse the text back — the
//! round-trip is the machine check that the emitted file is valid JSON
//! with the Trace Event Format structure Perfetto expects.

use gpucmp_benchmarks::common::{Benchmark, Scale};
use gpucmp_benchmarks::mxm::MxM;
use gpucmp_benchmarks::sobel::Sobel;
use gpucmp_compiler::{global_id_x, DslKernel, KernelDef};
use gpucmp_ptx::Ty;
use gpucmp_runtime::{Cuda, Gpu, GpuExt, SessionEvent};
use gpucmp_sim::{DevPtr, DeviceSpec, LaunchConfig};
use gpucmp_trace::{chrome_trace, chrome_trace_multi, parse, Json};

fn traced_session() -> (DeviceSpec, Vec<SessionEvent>) {
    let device = DeviceSpec::gtx480();
    let mut gpu = Cuda::new(device.clone()).expect("NVIDIA device");
    gpu.set_tracing(true);
    Sobel::new(Scale::Quick).run(&mut gpu).expect("Sobel run");
    (device, gpu.trace_events().to_vec())
}

#[test]
fn chrome_trace_round_trips_through_text() {
    let (device, events) = traced_session();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SessionEvent::Launch { .. })),
        "traced session must contain launches"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SessionEvent::Transfer { .. })),
        "traced session must contain transfers"
    );

    let doc = chrome_trace(&device, &events);
    let text = doc.to_text();
    let parsed = parse(&text).expect("emitted trace must be valid JSON");

    // Top-level Trace Event Format structure.
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    assert_eq!(
        parsed
            .get("otherData")
            .and_then(|o| o.get("device"))
            .and_then(Json::as_str),
        Some("GTX480")
    );
    let tev = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!tev.is_empty());

    // Every event has the mandatory fields; phased events have timestamps.
    let mut phases = std::collections::BTreeSet::new();
    for e in tev {
        let ph = e.get("ph").and_then(Json::as_str).expect("event ph");
        phases.insert(ph.to_string());
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("pid").and_then(Json::as_i64).is_some());
        match ph {
            "X" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("slice ts");
                let dur = e.get("dur").and_then(Json::as_f64).expect("slice dur");
                assert!(ts >= 0.0 && dur > 0.0, "ts={ts} dur={dur}");
            }
            "C" => {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(matches!(e.get("args"), Some(Json::Obj(_))));
            }
            "M" => {
                assert!(matches!(e.get("args"), Some(Json::Obj(_))));
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(
        phases.contains("M") && phases.contains("X") && phases.contains("C"),
        "trace must contain metadata, slices and counters, got {phases:?}"
    );

    // The kernel slices land on named CU tracks within the device.
    let cu_tracks = tev
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("CU "))
        })
        .count();
    assert!(cu_tracks > 0 && cu_tracks <= device.compute_units as usize);

    // Slices within one track never overlap (the timeline is physical).
    let mut by_tid: std::collections::BTreeMap<i64, Vec<(f64, f64)>> = Default::default();
    for e in tev {
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            let tid = e.get("tid").and_then(Json::as_i64).unwrap();
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            let dur = e.get("dur").and_then(Json::as_f64).unwrap();
            by_tid.entry(tid).or_default().push((ts, ts + dur));
        }
    }
    for (tid, mut spans) in by_tid {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-9,
                "overlapping slices on tid {tid}: {w:?}"
            );
        }
    }
}

/// `out[gid] = 1.0` with no bounds guard.
fn unguarded_fill() -> KernelDef {
    let mut k = DslKernel::new("unguarded_fill");
    let out = k.param_ptr("out");
    let gid = k.let_(Ty::S32, global_id_x());
    k.st_global(out.clone(), gid, Ty::F32, 1.0f32);
    k.finish()
}

/// An unguarded store driven past its allocation under memcheck: the
/// launch completes, the faults land in the trace stream.
fn memcheck_fill_trace() -> Vec<SessionEvent> {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).expect("NVIDIA device");
    gpu.set_tracing(true);
    gpu.set_memcheck(true);
    let h = gpu.build(&unguarded_fill()).unwrap();
    let buf = gpu.malloc(32 * 4).unwrap();
    gpu.launch(h, LaunchConfig::new(1u32, 64u32).arg_ptr(buf))
        .unwrap();
    gpu.trace_events().to_vec()
}

/// A two-stream MxM run: every transfer and launch rides an explicit
/// stream.
fn two_stream_mxm_trace() -> Vec<SessionEvent> {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).expect("NVIDIA device");
    gpu.set_tracing(true);
    MxM::new(Scale::Paper)
        .with_streams(true)
        .run(&mut gpu)
        .expect("MxM run");
    gpu.trace_events().to_vec()
}

/// The Sobel session exported twice, as two tenants' sessions.
fn multi_session_doc(device: &DeviceSpec, events: Vec<SessionEvent>) -> Json {
    let streams = vec![
        ("acme / session 1".to_string(), events.clone()),
        ("umbrella / session 2".to_string(), events),
    ];
    chrome_trace_multi(device, &streams)
}

/// An upload and a clean launch, then a launch that aborts on a sticky
/// fault: its store runs off the end of the device.
fn sticky_fault_trace() -> Vec<SessionEvent> {
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).expect("NVIDIA device");
    gpu.set_tracing(true);
    let h = gpu.build(&unguarded_fill()).unwrap();
    let buf = gpu.alloc::<f32>(64).unwrap();
    gpu.h2d_buf(&buf, &[0.5f32; 64]).unwrap();
    gpu.launch(h, LaunchConfig::new(1u32, 64u32).arg_ptr(buf))
        .unwrap();
    let end = DevPtr(gpu.session().gmem.capacity() - 4);
    let err = gpu
        .launch(h, LaunchConfig::new(1u32, 64u32).arg_ptr(end))
        .unwrap_err();
    assert!(err.is_sticky(), "{err}");
    let events = gpu.trace_events().to_vec();
    assert!(matches!(events.last(), Some(SessionEvent::Fault { .. })));
    events
}

/// FNV-1a 64 over the chrome-trace text of, in order: the Sobel session,
/// the memcheck fill, the two-stream MxM, the multi-session export and
/// the sticky-fault session.
const TRACE_FNV: u64 = 0x2c7d_a333_3d0c_1a29;

#[test]
fn trace_bytes_are_pinned() {
    let (device, sobel) = traced_session();
    let text: String = [
        chrome_trace(&device, &sobel),
        chrome_trace(&device, &memcheck_fill_trace()),
        chrome_trace(&device, &two_stream_mxm_trace()),
        multi_session_doc(&device, sobel),
        chrome_trace(&device, &sticky_fault_trace()),
    ]
    .iter()
    .map(Json::to_text)
    .collect();
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        digest, TRACE_FNV,
        "the chrome traces now hash to {digest:#018x}"
    );
}

#[test]
fn memcheck_faults_export_as_instant_events_on_cu_tracks() {
    let device = DeviceSpec::gtx480();
    let doc = chrome_trace(&device, &memcheck_fill_trace());
    let parsed = parse(&doc.to_text()).expect("valid JSON");
    let tev = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    let faults: Vec<_> = tev
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
        .collect();
    assert_eq!(faults.len(), 32, "one instant per recorded fault");
    for f in &faults {
        assert_eq!(
            f.get("name").and_then(Json::as_str),
            Some("FAULT unguarded_fill")
        );
        assert_eq!(f.get("s").and_then(Json::as_str), Some("t"));
        let tid = f.get("tid").and_then(Json::as_i64).unwrap();
        assert!(tid >= 10, "fault lands on a CU track, got tid {tid}");
        let args = f.get("args").expect("fault args");
        assert!(args
            .get("fault")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("out-of-bounds")));
        assert!(args.get("pc").and_then(Json::as_f64).is_some());
        assert!(args
            .get("thread")
            .and_then(Json::as_str)
            .is_some_and(|t| t.contains(',')));
    }
    // The faulting CU's track is named even though only one block ran.
    let first_tid = faults[0].get("tid").and_then(Json::as_i64).unwrap();
    assert!(tev.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("thread_name")
            && e.get("tid").and_then(Json::as_i64) == Some(first_tid)
    }));
}

#[test]
fn explicit_streams_get_their_own_tracks_with_visible_overlap() {
    // Every op rides an explicit stream, so the trace must carry
    // "Stream N" tracks instead of the per-engine ones.
    let device = DeviceSpec::gtx480();
    let doc = chrome_trace(&device, &two_stream_mxm_trace());
    let parsed = parse(&doc.to_text()).expect("valid JSON");
    let tev = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();

    // Both stream tracks are named.
    for name in ["Stream 1", "Stream 2"] {
        assert!(
            tev.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("name").and_then(Json::as_str) == Some("thread_name")
                    && e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        == Some(name)
            }),
            "missing {name} track"
        );
    }

    // Collect slices per stream track (tid >= 100).
    let mut by_tid: std::collections::BTreeMap<i64, Vec<(f64, f64)>> = Default::default();
    for e in tev {
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            let tid = e.get("tid").and_then(Json::as_i64).unwrap();
            if tid >= 100 {
                let ts = e.get("ts").and_then(Json::as_f64).unwrap();
                let dur = e.get("dur").and_then(Json::as_f64).unwrap();
                by_tid.entry(tid).or_default().push((ts, ts + dur));
            }
        }
    }
    assert_eq!(by_tid.len(), 2, "slices on exactly two stream tracks");
    // Each stream's kernel slice is present (launch slices carry the
    // kernel name on stream tracks).
    let kernel_slices = tev
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("matrix_mul")
        })
        .count();
    assert_eq!(kernel_slices, 2, "one kernel slice per panel");

    // Within a track the timeline stays physical (no stacked slices)...
    for (tid, spans) in by_tid.iter_mut() {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-9,
                "overlapping slices on tid {tid}: {w:?}"
            );
        }
    }
    // ...but across the two tracks the pipeline overlap is visible:
    // some slice on stream 1 runs concurrently with one on stream 2.
    let (a, b) = {
        let mut it = by_tid.values();
        (it.next().unwrap(), it.next().unwrap())
    };
    let overlap = a
        .iter()
        .any(|&(s1, e1)| b.iter().any(|&(s2, e2)| s1 < e2 && s2 < e1));
    assert!(overlap, "streams must visibly overlap: {a:?} vs {b:?}");

    // Stream launches don't paint CU tracks or drive the counters —
    // those stay reserved for default-stream work.
    assert!(!tev.iter().any(|e| {
        let tid = e.get("tid").and_then(Json::as_i64).unwrap_or(-1);
        e.get("ph").and_then(Json::as_str) == Some("X") && (10..100).contains(&tid)
    }));
    assert!(!tev
        .iter()
        .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
}

#[test]
fn untraced_sessions_record_nothing() {
    let device = DeviceSpec::gtx480();
    let mut gpu = Cuda::new(device.clone()).expect("NVIDIA device");
    Sobel::new(Scale::Quick).run(&mut gpu).expect("Sobel run");
    assert!(gpu.trace_events().is_empty(), "tracing is strictly opt-in");
    // An event-less trace is still a valid document.
    let doc = chrome_trace(&device, gpu.trace_events());
    let parsed = parse(&doc.to_text()).unwrap();
    assert!(parsed.get("traceEvents").and_then(Json::as_arr).is_some());
}

#[test]
fn multi_stream_export_gets_one_process_per_session() {
    let (device, events) = traced_session();
    let doc = multi_session_doc(&device, events);
    let parsed = parse(&doc.to_text()).expect("multi trace must be valid JSON");
    let tev = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    // Each stream becomes its own chrome process, named after the
    // (tenant, session) pair; real (non-meta) events land on both pids.
    let mut names = Vec::new();
    let mut pids = std::collections::BTreeSet::new();
    for e in tev {
        let pid = e.get("pid").and_then(Json::as_f64).expect("pid") as i64;
        if e.get("name").and_then(Json::as_str) == Some("process_name") {
            let n = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .expect("process_name value");
            names.push((pid, n.to_string()));
        }
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            pids.insert(pid);
        }
    }
    names.sort();
    assert_eq!(
        names,
        vec![
            (1, "acme / session 1".to_string()),
            (2, "umbrella / session 2".to_string()),
        ]
    );
    assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
}
