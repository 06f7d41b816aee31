//! Pins of the CSR arrays every graph family resolves to.
//!
//! Each pin is an FNV-1a hash of (node count, every degree in node
//! order, every neighbour in row order) for a graph resolved through
//! `GraphSpec::resolve`, the path every spec and every `rumor` request
//! takes. A builder that reorders a row, keeps a duplicate or drops an
//! edge changes the hash. Graph construction draws no randomness of its
//! own, so these constants hold for as long as the generators' draws do.
//!
//! `print_graph_build_pins` below prints them.

use rumor_spreading::core::GraphSpec;
use rumor_spreading::graph::Graph;

/// The gnp edge probability `2 ln n / n` at n = 1024, twice the
/// connectivity threshold.
const GNP_P: f64 = 0.013_538_030_870_311_432;

fn cases() -> Vec<(&'static str, GraphSpec)> {
    use GraphSpec::*;
    vec![
        ("complete 2", Complete { n: 2 }),
        ("complete 3", Complete { n: 3 }),
        ("complete 64", Complete { n: 64 }),
        ("complete 256", Complete { n: 256 }),
        ("complete 512", Complete { n: 512 }),
        ("complete 2048", Complete { n: 2048 }),
        ("hypercube 1", Hypercube { dim: 1 }),
        ("hypercube 9", Hypercube { dim: 9 }),
        ("hypercube 10", Hypercube { dim: 10 }),
        ("hypercube 11", Hypercube { dim: 11 }),
        ("hypercube 12", Hypercube { dim: 12 }),
        ("star 1024", Star { n: 1024 }),
        ("star 2048", Star { n: 2048 }),
        ("path 5", Path { n: 5 }),
        ("cycle 3", Cycle { n: 3 }),
        ("cycle 64", Cycle { n: 64 }),
        ("torus 24x24", Torus { rows: 24, cols: 24 }),
        ("torus 32x32", Torus { rows: 32, cols: 32 }),
        ("necklace 8x16", Necklace { cliques: 8, size: 16 }),
        ("necklace 16x32", Necklace { cliques: 16, size: 32 }),
        ("gnp 1024 seed 1", Gnp { n: 1024, p: GNP_P, seed: 1, attempts: 200 }),
        ("gnp 1024 seed 2", Gnp { n: 1024, p: GNP_P, seed: 2, attempts: 200 }),
        ("random-regular 1024x6 seed 1", RandomRegular { n: 1024, d: 6, seed: 1, attempts: 200 }),
        ("random-regular 1024x6 seed 2", RandomRegular { n: 1024, d: 6, seed: 2, attempts: 200 }),
    ]
}

fn csr_hash(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.word(g.node_count() as u64);
    for v in g.nodes() {
        h.word(g.degree(v) as u64);
    }
    for v in g.nodes() {
        for &w in g.neighbors(v) {
            h.word(u64::from(w));
        }
    }
    h.0
}

fn pins() -> Vec<(&'static str, u64)> {
    cases()
        .into_iter()
        .map(|(name, spec)| (name, csr_hash(&spec.resolve().expect("valid graph spec"))))
        .collect()
}

const PINS: [u64; 24] = [
    0x505f902eddfa2326, // complete 2
    0xeee5aa7adfa1a7c4, // complete 3
    0x7c4e0f8ce58a6c05, // complete 64
    0x4d6316f5e09baeea, // complete 256
    0x66acca49d057b90f, // complete 512
    0x93b00071a7b854ed, // complete 2048
    0x505f902eddfa2326, // hypercube 1
    0xa55e225040d2d84f, // hypercube 9
    0x629092090b069bf9, // hypercube 10
    0x6fc76c6a8d59658d, // hypercube 11
    0x6fbb3cb210dbb735, // hypercube 12
    0xa4fbdbd630dc0faa, // star 1024
    0xf6fc4f6c0169862a, // star 2048
    0xfada4c8d48615726, // path 5
    0xeee5aa7adfa1a7c4, // cycle 3
    0xb1d23cc3c49f36c5, // cycle 64
    0x919c64abb42da44b, // torus 24x24
    0x1cd0ad661dff5eb9, // torus 32x32
    0x544dc70cd4260e3a, // necklace 8x16
    0xfb8232b0536c25cb, // necklace 16x32
    0x235cb965d96f5a1b, // gnp 1024 seed 1
    0xb342628b5e13546a, // gnp 1024 seed 2
    0x2180d66cf5c4e19d, // random-regular 1024x6 seed 1
    0xfce0f9f25ca726e5, // random-regular 1024x6 seed 2
];

#[test]
fn every_family_resolves_to_its_pinned_csr() {
    let got = pins();
    assert_eq!(got.len(), PINS.len());
    for ((name, hash), pin) in got.into_iter().zip(PINS) {
        assert_eq!(hash, pin, "{name}: CSR arrays drifted");
    }
}

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Prints the constants above (`cargo test --test graph_build_pins
/// print_graph_build_pins -- --ignored --nocapture`).
#[test]
#[ignore]
fn print_graph_build_pins() {
    for (name, hash) in pins() {
        println!("    0x{hash:016x}, // {name}");
    }
}
