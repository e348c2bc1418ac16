//! Byte identity of the compiler: a fixed sample of generated kernels is
//! compiled through both front-ends at five register caps, and one digest
//! over everything the compiler hands on is pinned. A refactor of the
//! compiler or the generator must leave it unchanged; a deliberate change of
//! compiled output takes the new digest together with a note in CHANGES.md.
//!
//! The caps span the device catalogue (63, 124) and go below it (4, 8, 16)
//! so that the spill rounds of both front-ends run on nearly every kernel,
//! which no benchmark reaches.

use gpucmp_compiler::{compile, Api};
use gpucmp_fuzz::{case_seed, generate};
use gpucmp_ptx::kernel_hash;

/// Campaign seed of the sample.
const SEED: u64 = 7;
/// Generated kernels in the sample.
const CASES: u64 = 500;
/// Per-thread register caps every kernel is compiled at.
const CAPS: [u32; 5] = [4, 8, 16, 63, 124];
/// FNV-1a 64 over the sample's compiled output.
const COMPILED_FNV: u64 = 0x47c4_0eb5_d971_a898;

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

#[test]
fn generated_kernels_compile_to_the_pinned_output() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut spills = 0u64;
    for i in 0..CASES {
        let case = generate(case_seed(SEED, i));
        for api in Api::both() {
            for cap in CAPS {
                match compile(&case.def, api, cap) {
                    Ok(c) => {
                        h.u64(kernel_hash(&c.ptx));
                        h.u64(kernel_hash(&c.exec));
                        h.u64(c.ptxas.removed as u64);
                        h.u64(c.ptxas.fused as u64);
                        h.u64(c.ptxas.spilled as u64);
                        for ((class, mnemonic), n) in &c.ptx_stats.rows {
                            h.eat(class.name().as_bytes());
                            h.eat(mnemonic.as_bytes());
                            h.u64(*n);
                        }
                        spills += c.ptxas.spilled as u64;
                    }
                    Err(e) => h.eat(e.0.as_bytes()),
                }
            }
        }
    }
    assert!(spills > 0, "the low caps must force spill rounds");
    assert_eq!(
        h.0, COMPILED_FNV,
        "compiled output of {CASES} seed-{SEED} kernels now hashes to {:#018x} \
         ({spills} spills): a refactor must not move it; a deliberate change of \
         compiled output records the new digest and its cause in CHANGES.md",
        h.0
    );
}
