//! The metric names this benchmark declares, and the per-layer values a
//! traced run derives from its spans.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use crate::spans::{self, Recording};
use crate::traced::Stages;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), as (name, unit). Every workload
/// reports all of them; an "op" is the workload's unit of work (a campaign
/// column, a fresh kernel through both APIs, a server job).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Server request kinds a job issues, in wire order.
pub const KINDS: [&str; 6] = ["open", "alloc", "write", "launch", "read", "close"];

/// Bytes per MB (binary, like the KiB the kernel reports `VmHWM` in).
pub const MB: f64 = (1u64 << 20) as f64;

const FIXED: [(&str, &str); 38] = [
    ("harness.trace_overhead", "ratio"),
    ("harness.self_cover", "ratio"),
    ("harness.gen_lag_p99_ms", "ms"),
    ("core.cell_busy_s", "s"),
    ("core.cell_max_s", "s"),
    ("core.parallel_eff", "ratio"),
    ("benchmarks.host_s", "s"),
    ("sim.exec_s", "s"),
    ("sim.merge_s", "s"),
    ("sim.blocks", "count"),
    ("sim.winst_m", "Minst"),
    ("sim.exec_ns_per_winst", "ns/inst"),
    ("sim.overlay_mb", "MB"),
    ("sim.decode_ms", "ms"),
    ("runtime.session_new_ms", "ms"),
    ("runtime.build_ms", "ms"),
    ("runtime.launch_self_ms", "ms"),
    ("runtime.launches", "count"),
    ("runtime.decodes", "count"),
    ("runtime.code_cache_hit_ratio", "ratio"),
    ("runtime.xfer_ms", "ms"),
    ("runtime.xfer_mb", "MB"),
    ("runtime.sync_ms", "ms"),
    ("compiler.lower_ms", "ms"),
    ("compiler.ptxas_ms", "ms"),
    ("compiler.builds", "count"),
    ("compiler.ptx_insts", "count"),
    ("compiler.exec_insts", "count"),
    ("compiler.spills", "count"),
    ("compiler.stage_sum_ratio", "ratio"),
    ("ptx.validate_ms", "ms"),
    ("ptx.stats_ms", "ms"),
    ("ptx.resolve_ms", "ms"),
    ("ptx.hash_ms", "ms"),
    ("trace.report_write_ms", "ms"),
    ("trace.report_parse_ms", "ms"),
    ("trace.report_kb", "KB"),
    ("fuzz.gen_ms", "ms"),
];

const SERVER_COUNTS: [&str; 4] = [
    "server.recycles",
    "server.busy_rejections",
    "server.quota_rejections",
    "server.device_faults",
];

/// Per-layer metrics (`--trace 1`), as (name, unit), in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for what in [
        "req_p50_us",
        "req_p99_us",
        "handle_us",
        "codec_us",
        "wire_us",
    ] {
        for kind in KINDS {
            v.push((format!("server.{what}.{kind}"), "us"));
        }
    }
    v.extend(SERVER_COUNTS.iter().map(|&n| (n.to_string(), "count")));
    v
}

/// Per-layer values of one traced run. A layer the workload does not
/// exercise reads 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Set one value. Panics on a name `per_layer` does not declare.
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        assert!(
            per_layer().iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, v);
    }

    /// A value set so far (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every declared metric with its value and unit.
    pub fn values(&self) -> Vec<(String, f64, &'static str)> {
        per_layer()
            .into_iter()
            .map(|(n, u)| {
                let v = self.get(&n);
                (n, v, u)
            })
            .collect()
    }
}

/// What a traced phase yields beyond its workload-specific values.
pub struct LayerReport {
    /// Values derived from spans and counts.
    pub layers: Layers,
    /// Totals per span name.
    pub names: BTreeMap<&'static str, spans::NameStat>,
    /// The printed per-layer table.
    pub table: String,
}

/// Derive the per-layer values every traced phase shares from what its
/// load threads recorded. `traced_wall_ns` is the phase's wall time summed
/// over its load threads.
pub fn from_recording(rec: &Recording, traced_wall_ns: u64) -> LayerReport {
    let stats = spans::by_name(&rec.spans);
    let total = |n: &str| stats.get(n).map_or(0, |s| s.total_ns) as f64;
    let own = |n: &str| stats.get(n).map_or(0, |s| s.self_ns) as f64;
    let cnt = |n: &str| rec.counts.get(n).copied().unwrap_or(0.0);
    let self_sum: u64 = stats.values().map(|s| s.self_ns).sum();

    let mut l = Layers::default();
    l.set(
        "harness.self_cover",
        self_sum as f64 / traced_wall_ns.max(1) as f64,
    );
    l.set("runtime.session_new_ms", total("runtime.session_new") / 1e6);
    l.set("runtime.build_ms", total("runtime.build") / 1e6);
    l.set("runtime.launch_self_ms", own("runtime.launch") / 1e6);
    l.set(
        "runtime.xfer_ms",
        (total("runtime.h2d") + total("runtime.d2h")) / 1e6,
    );
    l.set("runtime.xfer_mb", cnt("runtime.xfer_bytes") / MB);
    l.set("runtime.sync_ms", total("runtime.sync") / 1e6);
    let (launches, decodes) = (cnt("runtime.launches"), cnt("runtime.decodes"));
    l.set("runtime.launches", launches);
    l.set("runtime.decodes", decodes);
    if launches > 0.0 {
        l.set("runtime.code_cache_hit_ratio", 1.0 - decodes / launches);
    }
    let (exec_ns, winst) = (total("sim.exec"), cnt("sim.winst"));
    l.set("sim.exec_s", exec_ns / 1e9);
    l.set("sim.merge_s", total("sim.merge") / 1e9);
    l.set("sim.blocks", cnt("sim.blocks"));
    l.set("sim.winst_m", winst / 1e6);
    if winst > 0.0 {
        l.set("sim.exec_ns_per_winst", exec_ns / winst);
    }
    l.set("sim.overlay_mb", cnt("sim.overlay_bytes") / MB);
    for name in [
        "compiler.builds",
        "compiler.ptx_insts",
        "compiler.exec_insts",
        "compiler.spills",
    ] {
        l.set(name, cnt(name));
    }
    LayerReport {
        table: spans::table(&stats, traced_wall_ns),
        names: stats,
        layers: l,
    }
}

/// Set the compile-stage split from a replay of sampled builds, scaled
/// from the sample to every build of the phase.
pub fn set_stages(l: &mut Layers, st: &Stages) {
    if st.builds == 0 || st.measured_ns == 0 {
        return;
    }
    let scale = l.get("runtime.build_ms") * 1e6 / st.measured_ns as f64;
    let ms = |ns: u64| ns as f64 * scale / 1e6;
    l.set("compiler.lower_ms", ms(st.lower_ns));
    l.set("compiler.ptxas_ms", ms(st.ptxas_ns));
    l.set("ptx.validate_ms", ms(st.validate_ns));
    l.set("ptx.stats_ms", ms(st.stats_ns));
    l.set("ptx.resolve_ms", ms(st.resolve_ns));
    l.set("ptx.hash_ms", ms(st.hash_ns));
    l.set(
        "compiler.stage_sum_ratio",
        st.build_sum_ns() as f64 / st.measured_ns as f64,
    );
    l.set(
        "sim.decode_ms",
        st.decode_ns as f64 / st.builds as f64 * l.get("runtime.decodes") / 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "a metric name is used twice");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn setting_an_undeclared_layer_metric_panics() {
        Layers::default().set("sim.nope", 1.0);
    }
}
