//! Property tests pinning the packed simulator to the scalar one.
//!
//! The contract under test: for *any* netlist and *any* pattern
//! sequence, [`PackedSimulator`] produces the same outputs and the same
//! per-gate toggle counts as feeding the patterns one at a time to the
//! scalar [`Simulator`]. The netlists here are generated randomly from
//! a seeded stream (hand-rolled — the workspace is hermetic, no
//! proptest), so every gate kind, fanout shape, and output arrangement
//! gets exercised; failures print the generator seed for replay.

use gatesim::builders;
use gatesim::packed::{exhaustive_input_words, pack_vectors, trace_toggles, LANES};
use gatesim::{EnergyModel, Netlist, PackedSimulator, Simulator};
use parx::Executor;

/// SplitMix64 — deterministic stream for netlist and stimulus generation.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn chance(&mut self, p_percent: u64) -> bool {
        self.below(100) < p_percent
    }
}

/// Generate a random netlist: 1–8 inputs, optional constants, 5–60
/// random gates over already-created nodes, 1–6 marked outputs.
fn random_netlist(rng: &mut Rng) -> Netlist {
    let mut nl = Netlist::new();
    let num_inputs = 1 + rng.below(8) as usize;
    let mut nodes = Vec::new();
    for i in 0..num_inputs {
        nodes.push(nl.input(format!("in{i}")));
    }
    if rng.chance(30) {
        nodes.push(nl.constant(false));
    }
    if rng.chance(30) {
        nodes.push(nl.constant(true));
    }
    let gates = 5 + rng.below(56) as usize;
    for _ in 0..gates {
        let pick = |rng: &mut Rng, nodes: &[gatesim::NodeId]| {
            nodes[rng.below(nodes.len() as u64) as usize]
        };
        let a = pick(rng, &nodes);
        let b = pick(rng, &nodes);
        let c = pick(rng, &nodes);
        let node = match rng.below(10) {
            0 => nl.buf(a),
            1 => nl.not(a),
            2 => nl.and2(a, b),
            3 => nl.or2(a, b),
            4 => nl.xor2(a, b),
            5 => nl.nand2(a, b),
            6 => nl.nor2(a, b),
            7 => nl.xnor2(a, b),
            8 => nl.mux2(a, b, c),
            _ => nl.maj3(a, b, c),
        };
        nodes.push(node);
    }
    let outputs = 1 + rng.below(6) as usize;
    for o in 0..outputs {
        let node = nodes[rng.below(nodes.len() as u64) as usize];
        nl.mark_output(node, format!("out{o}"));
    }
    nl
}

/// Drive both simulators over `vectors` and assert identical outputs,
/// toggles, evaluation counts, and energy.
fn assert_packed_matches_scalar(nl: &Netlist, vectors: &[Vec<bool>], seed: u64) {
    let mut scalar = Simulator::new(nl);
    let scalar_outs: Vec<Vec<bool>> = vectors
        .iter()
        .map(|v| scalar.evaluate(v).expect("generated vectors fit"))
        .collect();

    let mut packed = PackedSimulator::new(nl);
    let mut packed_outs: Vec<Vec<bool>> = Vec::with_capacity(vectors.len());
    let mut pos = 0;
    while pos < vectors.len() {
        let lanes = (vectors.len() - pos).min(LANES);
        let words = pack_vectors(&vectors[pos..pos + lanes], nl.num_inputs());
        let out = packed
            .evaluate_packed(&words, lanes)
            .expect("same interface");
        for lane in 0..lanes {
            packed_outs.push(
                (0..nl.num_outputs())
                    .map(|o| (out[o] >> lane) & 1 == 1)
                    .collect(),
            );
        }
        pos += lanes;
    }

    assert_eq!(packed_outs, scalar_outs, "outputs diverged (seed {seed})");
    assert_eq!(
        packed.toggles(),
        scalar.toggles(),
        "toggles diverged (seed {seed})"
    );
    assert_eq!(packed.evaluations(), scalar.evaluations());
    let model = EnergyModel::default();
    assert_eq!(
        packed.energy(&model).to_bits(),
        scalar.energy(&model).to_bits(),
        "energy diverged (seed {seed})"
    );
}

#[test]
fn random_netlists_match_on_random_stimulus() {
    for seed in 0..40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1);
        let nl = random_netlist(&mut rng);
        let n = nl.num_inputs();
        let num_vectors = 1 + rng.below(300) as usize;
        let vectors: Vec<Vec<bool>> = (0..num_vectors)
            .map(|_| (0..n).map(|_| rng.chance(50)).collect())
            .collect();
        assert_packed_matches_scalar(&nl, &vectors, seed);
    }
}

#[test]
fn random_netlists_match_exhaustively() {
    for seed in 100..120u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1);
        let nl = random_netlist(&mut rng);
        let n = nl.num_inputs();
        let total = 1u64 << n;
        let vectors: Vec<Vec<bool>> = (0..total)
            .map(|p| (0..n).map(|i| (p >> i) & 1 == 1).collect())
            .collect();
        assert_packed_matches_scalar(&nl, &vectors, seed);
    }
}

#[test]
fn every_builder_netlist_matches_exhaustively() {
    let mut fixtures: Vec<(String, Netlist)> = Vec::new();
    for width in [1usize, 2, 4, 8] {
        let (nl, _) = builders::ripple_carry_adder(width);
        fixtures.push((format!("ripple_carry_adder({width})"), nl));
        let (nl, _) = builders::modular_adder(width);
        fixtures.push((format!("modular_adder({width})"), nl));
        fixtures.push((format!("word_mux({width})"), builders::word_mux(width)));
    }
    let mut fa = Netlist::new();
    let a = fa.input("a");
    let b = fa.input("b");
    let cin = fa.input("cin");
    let (sum, cout) = builders::full_adder(&mut fa, a, b, cin);
    fa.mark_output(sum, "sum");
    fa.mark_output(cout, "cout");
    fixtures.push(("full_adder".into(), fa));
    let mut ha = Netlist::new();
    let a = ha.input("a");
    let b = ha.input("b");
    let (sum, carry) = builders::half_adder(&mut ha, a, b);
    ha.mark_output(sum, "sum");
    ha.mark_output(carry, "carry");
    fixtures.push(("half_adder".into(), ha));

    for (name, nl) in &fixtures {
        let n = nl.num_inputs();
        let total = 1u64 << n;
        let vectors: Vec<Vec<bool>> = (0..total)
            .map(|p| (0..n).map(|i| (p >> i) & 1 == 1).collect())
            .collect();
        let mut scalar = Simulator::new(nl);
        for v in &vectors {
            scalar.evaluate(v).unwrap();
        }
        let mut packed = PackedSimulator::new(nl);
        let mut base = 0;
        while base < total {
            let lanes = (total - base).min(LANES as u64) as usize;
            packed
                .evaluate_packed(&exhaustive_input_words(n, base), lanes)
                .unwrap();
            base += lanes as u64;
        }
        assert_eq!(packed.toggles(), scalar.toggles(), "{name}");
        assert_eq!(packed.evaluations(), scalar.evaluations(), "{name}");
    }
}

#[test]
fn parallel_trace_toggles_match_scalar_on_random_netlists() {
    for seed in 200..210u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1);
        let nl = random_netlist(&mut rng);
        let n = nl.num_inputs();
        let vectors: Vec<Vec<bool>> = (0..500)
            .map(|_| (0..n).map(|_| rng.chance(50)).collect())
            .collect();
        let mut scalar = Simulator::new(&nl);
        for v in &vectors {
            scalar.evaluate(v).unwrap();
        }
        for threads in [1usize, 4] {
            let toggles = trace_toggles(&nl, &vectors, &Executor::with_threads(threads)).unwrap();
            assert_eq!(toggles, scalar.toggles(), "seed {seed}, threads {threads}");
        }
    }
}
