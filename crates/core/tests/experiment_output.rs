//! Pins the output of the experiments the quick campaign report never
//! runs: the texture study (Figs. 4/5), the FDTD unroll matrix (Figs.
//! 6/7), the Sobel constant-memory study (Fig. 8), Table V, Table VI and
//! the launch latency, all at quick scale.
//!
//! One FNV-1a 64 covers their `Debug` text, which prints every f64 at
//! full precision. Fig. 7's `OpenCL_{a,b}` rests on carried-variable
//! demotion in the unroller, which no campaign benchmark and no generated
//! kernel reaches; this pin is what sees it move.

use gpucmp_benchmarks::Scale;
use gpucmp_core::experiments::{
    fig4_fig5_texture, fig6_fig7_unroll, fig8_sobel_constant, launch_latency, table5_ptx_stats,
    table6_portability,
};

/// FNV-1a 64 of the six experiments' `Debug` text, concatenated in the
/// order above.
const EXPERIMENTS_FNV: u64 = 0x4c8f_9a6a_1bba_56d8;

#[test]
fn experiment_outputs_are_pinned() {
    let scale = Scale::Quick;
    let text = [
        format!("{:?}", fig4_fig5_texture(scale)),
        format!("{:?}", fig6_fig7_unroll(scale)),
        format!("{:?}", fig8_sobel_constant(scale)),
        format!("{:?}", table5_ptx_stats()),
        format!("{:?}", table6_portability(scale)),
        format!("{:?}", launch_latency()),
    ]
    .concat();
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        digest, EXPERIMENTS_FNV,
        "the experiments' output now hashes to {digest:#018x}: a change that moves \
         a figure or table needs an EXPERIMENTS.md note before EXPERIMENTS_FNV \
         takes the new digest\n{text}"
    );
}
