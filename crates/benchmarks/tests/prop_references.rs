//! Property tests on the benchmarks' CPU reference algorithms and, for a
//! few cheap kernels, differential device-vs-reference runs at random
//! sizes.

use gpucmp_benchmarks::bfs::Graph;
use gpucmp_benchmarks::common::{Benchmark, Scale};
use gpucmp_benchmarks::dxtc::Dxtc;
use gpucmp_benchmarks::rdxs::Rdxs;
use gpucmp_benchmarks::scan::Scan;
use gpucmp_benchmarks::spmv::Csr;
use gpucmp_runtime::Cuda;
use gpucmp_sim::DeviceSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scan_reference_is_an_exclusive_prefix_sum(data in prop::collection::vec(any::<u32>(), 0..500)) {
        let out = Scan::reference(&data);
        prop_assert_eq!(out.len(), data.len());
        let mut acc = 0u32;
        for (i, &v) in data.iter().enumerate() {
            prop_assert_eq!(out[i], acc);
            acc = acc.wrapping_add(v);
        }
    }

    #[test]
    fn radix_reference_equals_std_sort(data in prop::collection::vec(any::<u32>(), 0..500)) {
        let mut want = data.clone();
        want.sort_unstable();
        prop_assert_eq!(Rdxs::reference(&data), want);
    }

    #[test]
    fn bfs_distances_satisfy_edge_relaxation(nodes in 2usize..400, degree in 1usize..6, seed in any::<u64>()) {
        let g = Graph::random(nodes, degree, seed);
        let dist = g.bfs_cpu();
        prop_assert_eq!(dist[0], 0);
        for v in 0..nodes {
            prop_assert!(dist[v] >= 0, "ring keeps the graph connected");
            for e in g.offsets[v]..g.offsets[v + 1] {
                let w = g.edges[e as usize] as usize;
                // triangle property of BFS levels
                prop_assert!(dist[w] <= dist[v] + 1, "edge {v}->{w}");
            }
        }
    }

    #[test]
    fn csr_generator_is_well_formed(rows in 1usize..300, nnz in 1usize..20, seed in any::<u64>()) {
        let m = Csr::random(rows, nnz, seed);
        prop_assert_eq!(m.rows(), rows);
        prop_assert_eq!(*m.row_offsets.last().unwrap() as usize, m.nnz());
        for w in m.row_offsets.windows(2) {
            prop_assert!(w[0] <= w[1], "offsets are monotone");
        }
        for (i, w) in m.row_offsets.windows(2).enumerate() {
            let cols = &m.cols[w[0] as usize..w[1] as usize];
            prop_assert!(!cols.is_empty(), "row {i} has at least one entry");
            for c in cols {
                prop_assert!((*c as usize) < rows);
            }
            prop_assert!(cols.windows(2).all(|p| p[0] < p[1]), "row {i} sorted+deduped");
        }
    }

    #[test]
    fn dxtc_reference_invariants(pixels in prop::collection::vec(0u32..0x0100_0000, 16)) {
        let b = Dxtc { width: 4, height: 4 };
        let out = b.reference(&pixels);
        prop_assert_eq!(out.len(), 2);
        let c0 = out[0] & 0xffff;
        let c1 = out[0] >> 16;
        // endpoints come from the per-channel bounding box: max >= min
        let (r0, g0, b0) = (c0 >> 11, (c0 >> 5) & 63, c0 & 31);
        let (r1, g1, b1) = (c1 >> 11, (c1 >> 5) & 63, c1 & 31);
        prop_assert!(r0 >= r1 && g0 >= g1 && b0 >= b1);
        // a solid-colour block must map every pixel to palette entry 0
        if pixels.iter().all(|&p| p == pixels[0]) {
            prop_assert_eq!(out[1], 0);
        }
    }
}

proptest! {
    // device-backed cases are slower: keep the count low
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn scan_device_matches_reference_at_random_sizes(blocks in 1u32..12) {
        let b = Scan { n: blocks * 512 };
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r = b.run(&mut gpu).unwrap();
        prop_assert!(r.verify.is_pass(), "{:?}", r.verify);
    }

    #[test]
    fn radix_device_sorts_at_random_sizes(blocks in 1u32..8) {
        let b = Rdxs { n: blocks * 256 };
        let mut gpu = Cuda::new(DeviceSpec::gtx280()).unwrap();
        let r = b.run(&mut gpu).unwrap();
        prop_assert!(r.verify.is_pass(), "{:?}", r.verify);
    }

    #[test]
    fn bfs_device_matches_cpu_at_random_shapes(nodes_k in 1usize..5, degree in 1usize..5) {
        let b = gpucmp_benchmarks::bfs::Bfs { nodes: nodes_k * 512, degree, streams: false };
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r = b.run(&mut gpu).unwrap();
        prop_assert!(r.verify.is_pass(), "{:?}", r.verify);
    }

    #[test]
    fn fft_device_matches_reference_at_random_batches(batches in 1u32..6) {
        let b = gpucmp_benchmarks::fft::Fft { batches };
        let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
        let r = b.run(&mut gpu).unwrap();
        prop_assert!(r.verify.is_pass(), "{:?}", r.verify);
    }
}

#[test]
fn quick_and_paper_scales_agree_functionally() {
    // the scale only changes sizes, never semantics: both verify
    for scale in [Scale::Quick, Scale::Paper] {
        let b = Scan::new(scale);
        let mut gpu = Cuda::new(DeviceSpec::gtx280()).unwrap();
        assert!(b.run(&mut gpu).unwrap().verify.is_pass(), "{scale:?}");
    }
}
