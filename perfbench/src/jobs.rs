//! The three workloads' inputs, their unfused references and the output
//! check.
//!
//! Every input is generated from the run's seed, so the same seed replays
//! the same traffic. References come from the unfused oracles —
//! `execute_reference` for workloads, the `OpGraph` evaluator for graphs —
//! and outputs are held to the tolerances of the repository's differential
//! tests.

use std::collections::HashSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rf_bench::serving::{trace_priority, trace_request};
use rf_codegen::Workload;
use rf_graph::{builders, OpGraph};
use rf_runtime::{execute_reference, Priority, Request, RequestInput, RequestOutput, Submission};
use rf_workloads::{
    random_matrix, random_vec, InertiaConfig, Matrix, MhaConfig, MlaConfig, MoeConfig,
    QuantGemmConfig, VarianceConfig,
};

/// Damped-relative tolerance of the exactly-reassociative families
/// (`tests/differential.rs`).
const TIGHT_TOL: f64 = 1e-9;
/// FP8 provisional-scale noise floor of one quant region, as a share of the
/// reference's peak magnitude (`tests/differential.rs`).
const QUANT_NOISE: f64 = 0.05;
/// Graph tolerance: f64 rounding through the glue GEMMs
/// (`tests/graph_serving.rs`).
const GRAPH_TOL: f64 = 1e-7;

/// The seven workload classes, in report order.
pub const CLASSES: [&str; 7] = [
    "softmax", "variance", "mha", "mla", "moe", "quant", "inertia",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop Poisson traffic of tiny requests and whole graphs.
    ServeMixed,
    /// Closed loop over large shapes with a hot plan cache.
    ExecLarge,
    /// Closed loop where every request is a shape not seen before.
    CompileCold,
}

impl Kind {
    /// All workloads, in report order.
    pub const ALL: [Kind; 3] = [Kind::ServeMixed, Kind::ExecLarge, Kind::CompileCold];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeMixed => "serve_mixed",
            Kind::ExecLarge => "exec_large",
            Kind::CompileCold => "compile_cold",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The three graph builders of `rf_graph::builders`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// `transformer_decoder_layer(8, 16, 32)`.
    Decoder,
    /// `moe_block(4, 8, 4)`.
    MoeBlock,
    /// `quantized_mlp(4, 32, 16, 8)`.
    QuantMlp,
}

impl GraphKind {
    const ALL: [GraphKind; 3] = [GraphKind::Decoder, GraphKind::MoeBlock, GraphKind::QuantMlp];

    fn build(self) -> OpGraph {
        match self {
            GraphKind::Decoder => builders::transformer_decoder_layer(8, 16, 32),
            GraphKind::MoeBlock => builders::moe_block(4, 8, 4),
            GraphKind::QuantMlp => builders::quantized_mlp(4, 32, 16, 8),
        }
    }

    fn inputs(self, seed: u64) -> Vec<(String, Matrix)> {
        let named = match self {
            GraphKind::Decoder => builders::transformer_decoder_layer_inputs(8, 16, 32, seed),
            GraphKind::MoeBlock => builders::moe_block_inputs(4, 8, 4, seed),
            GraphKind::QuantMlp => builders::quantized_mlp_inputs(4, 32, 16, 8, seed),
        };
        named.into_iter().map(|(n, m)| (n.to_string(), m)).collect()
    }
}

/// One request of a workload's traffic.
#[derive(Debug, Clone)]
pub enum Input {
    /// A single workload request.
    Single {
        /// The request.
        request: Request,
        /// Its lane.
        priority: Priority,
    },
    /// A whole graph, submitted without a plan.
    Graph {
        /// Which builder made it.
        kind: GraphKind,
        /// The graph (shared by every request of this kind).
        graph: Arc<OpGraph>,
        /// Named input bindings.
        bindings: Vec<(String, Matrix)>,
        /// Its lane.
        priority: Priority,
    },
}

impl Input {
    /// A fresh submission of this input (tensors cloned: the engine owns
    /// what it queues).
    pub fn submission(&self) -> Submission {
        match self {
            Input::Single { request, priority } => {
                Submission::workload(request.clone()).with_priority(*priority)
            }
            Input::Graph {
                graph,
                bindings,
                priority,
                ..
            } => Submission::graph(Arc::clone(graph), bindings.clone()).with_priority(*priority),
        }
    }

    /// The workload class, or `graph`.
    pub fn class(&self) -> &'static str {
        match self {
            Input::Single { request, .. } => request.workload.class(),
            Input::Graph { .. } => "graph",
        }
    }

    /// The class and input size, e.g. `softmax/1024KiB`; graphs by builder.
    pub fn label(&self) -> String {
        match self {
            Input::Single { .. } => {
                let kib = self.input_bytes() / 1024.0;
                format!("{}/{kib:.0}KiB", self.class())
            }
            Input::Graph { kind, .. } => format!("graph/{kind:?}"),
        }
    }

    fn input_bytes(&self) -> f64 {
        let m = |x: &Matrix| (x.rows() * x.cols()) as f64;
        8.0 * match self {
            Input::Single { request, .. } => match &request.input {
                RequestInput::Rows(x) => m(x),
                RequestInput::Attention { q, k, v } => m(q) + m(k) + m(v),
                RequestInput::Routing { x, w } => m(x) + m(w),
                RequestInput::QuantGemm { a, w } => m(a) + m(w),
                RequestInput::Inertia { masses, positions } => masses.len() as f64 + m(positions),
            },
            Input::Graph { bindings, .. } => bindings.iter().map(|(_, x)| m(x)).sum(),
        }
    }

    /// The unfused reference output.
    pub fn reference(&self) -> Expected {
        match self {
            Input::Single { request, .. } => {
                Expected::Single(execute_reference(&request.workload, &request.input))
            }
            Input::Graph {
                graph, bindings, ..
            } => {
                let named: Vec<(&str, Matrix)> = bindings
                    .iter()
                    .map(|(n, m)| (n.as_str(), m.clone()))
                    .collect();
                Expected::Graph(
                    graph
                        .evaluate(&named)
                        .expect("builder graphs evaluate on their own inputs"),
                )
            }
        }
    }

    /// Whether `got` matches `expected` at the differential tests'
    /// tolerances.
    pub fn check(&self, expected: &Expected, got: &RequestOutput) -> bool {
        match (self, expected, got) {
            (Input::Single { request, .. }, Expected::Single(want), got) => {
                match (&request.workload, want, got) {
                    (Workload::Quant(_), RequestOutput::Matrix(w), RequestOutput::Matrix(g)) => {
                        same_shape(w, g) && g.max_abs_diff(w) <= QUANT_NOISE * peak(w) + 1e-9
                    }
                    _ => got.approx_eq(want, TIGHT_TOL),
                }
            }
            (Input::Graph { kind, .. }, Expected::Graph(want), RequestOutput::Tensors(got)) => {
                want.len() == got.len()
                    && want.iter().zip(got).all(|(w, g)| {
                        same_shape(w, g)
                            && match kind {
                                // Two quant regions compound: three floors.
                                GraphKind::QuantMlp => {
                                    g.max_abs_diff(w) <= 3.0 * QUANT_NOISE * peak(w) + 1e-9
                                }
                                _ => damped_rel_diff(g, w) <= GRAPH_TOL,
                            }
                    })
            }
            _ => false,
        }
    }

    /// Bytes the request reads and writes, computed from its shapes
    /// (8-byte elements).
    pub fn bytes(&self, expected: &Expected) -> f64 {
        let m = |x: &Matrix| (x.rows() * x.cols()) as f64;
        let output = match expected {
            Expected::Single(RequestOutput::Matrix(x)) => m(x),
            Expected::Single(RequestOutput::Values(v)) => v.len() as f64,
            Expected::Single(RequestOutput::Routing(d)) => {
                d.iter().map(|d| 2.0 * d.experts.len() as f64).sum()
            }
            Expected::Single(RequestOutput::Tensors(t)) | Expected::Graph(t) => {
                t.iter().map(m).sum()
            }
        };
        self.input_bytes() + 8.0 * output
    }
}

/// A reference output.
#[derive(Debug, Clone)]
pub enum Expected {
    /// From `execute_reference`.
    Single(RequestOutput),
    /// From `OpGraph::evaluate`.
    Graph(Vec<Matrix>),
}

fn same_shape(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows() && a.cols() == b.cols()
}

fn peak(m: &Matrix) -> f64 {
    m.as_slice().iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
}

fn damped_rel_diff(got: &Matrix, want: &Matrix) -> f64 {
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(g, w)| (g - w).abs() / (1.0 + w.abs()))
        .fold(0.0, f64::max)
}

/// The seeded generator of input stream `stream` (shapes, tensor seeds,
/// schedules) for the run seed `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Shuffles `items` in place (Fisher–Yates).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn single(workload: Workload, input: RequestInput, priority: Priority) -> Input {
    Input::Single {
        request: Request::new(workload, input).expect("generated inputs match their workload"),
        priority,
    }
}

fn attention_input(workload: &Workload, seed: u64) -> RequestInput {
    let (q_rows, qk, kv, hd) = match workload {
        Workload::Mha(c) => (c.q, c.hd, c.kv, c.hd),
        Workload::Mla(c) => (1, c.qk_dim(), c.kv, c.hd),
        _ => unreachable!("attention workloads only"),
    };
    RequestInput::Attention {
        q: random_matrix(q_rows, qk, seed, -1.0, 1.0),
        k: random_matrix(kv, qk, seed + 1, -1.0, 1.0),
        v: random_matrix(kv, hd, seed + 2, -1.0, 1.0),
    }
}

/// A request of `workload` with tensors sized by its shape.
fn request_for(workload: Workload, seed: u64, priority: Priority) -> Input {
    let input = match &workload {
        Workload::Softmax { rows, len } => {
            RequestInput::Rows(random_matrix(*rows, *len, seed, -2.0, 2.0))
        }
        Workload::Variance(c) => RequestInput::Rows(random_matrix(c.bs, c.l, seed, -2.0, 2.0)),
        Workload::Mha(_) | Workload::Mla(_) => attention_input(&workload, seed),
        Workload::Moe(c) => RequestInput::Routing {
            x: random_matrix(c.s, c.hd, seed, -1.0, 1.0),
            w: random_matrix(c.hd, c.en, seed + 1, -1.0, 1.0),
        },
        Workload::Quant(c) => RequestInput::QuantGemm {
            a: random_matrix(c.m, c.k, seed, -1.0, 1.0),
            w: random_matrix(c.k, c.n, seed + 1, -1.0, 1.0),
        },
        Workload::Inertia(c) => RequestInput::Inertia {
            masses: random_vec(c.n, seed, 0.1, 2.0),
            positions: random_matrix(c.n, c.dim, seed + 1, -1.0, 1.0),
        },
    };
    single(workload, input, priority)
}

/// Single requests in one pass of the `serve_mixed` pool: nine periods of
/// `trace_request`'s 30-request cycle (its shape pattern repeats every ten
/// requests, and its tenth slot rotates three families).
const SERVE_SINGLES: u64 = 270;

/// `serve_mixed`: the serving trace's skewed repeating shape pattern
/// (`rf_bench::serving::trace_request`, on lanes from `trace_priority`),
/// with a whole graph at every tenth slot, cycling the three builders. The
/// seed shifts the tensors by a whole number of pattern periods, so the
/// shape pattern is the same for every seed.
pub fn serve_mixed(seed: u64) -> Vec<Input> {
    let graphs = GraphKind::ALL.map(|k| (k, Arc::new(k.build())));
    let base = 30 * rng(seed, 1).gen_range(0..1u64 << 20);
    let mut singles = base;
    (0..SERVE_SINGLES * 10 / 9)
        .map(|i| {
            let priority = trace_priority(i);
            if i % 10 == 9 {
                let (kind, graph) = &graphs[(i / 10 % 3) as usize];
                Input::Graph {
                    kind: *kind,
                    graph: Arc::clone(graph),
                    bindings: kind.inputs(base + i),
                    priority,
                }
            } else {
                singles += 1;
                Input::Single {
                    request: trace_request(singles - 1),
                    priority,
                }
            }
        })
        .collect()
}

/// The large shapes of `exec_large`: two per class, one whose input fits
/// the reference host's 4 MiB L2 and one that does not (the small-compute
/// moe and quant classes stay below it), plus a third softmax. Fifteen
/// equally weighted shapes put the latency median inside one shape's
/// cluster rather than on the gap between two.
pub fn exec_large_shapes() -> Vec<Workload> {
    let mha = |q, kv, hd| {
        Workload::Mha(MhaConfig {
            name: "bench",
            bs: 1,
            hn: 1,
            q,
            kv,
            hd,
            model: "bench",
        })
    };
    let mla = |kv, hd, ped| {
        Workload::Mla(MlaConfig {
            name: "bench",
            bs: 1,
            hn: 1,
            kv,
            hd,
            ped,
        })
    };
    let moe = |s, hd, en| {
        Workload::Moe(MoeConfig {
            name: "bench",
            s,
            hd,
            en,
            topk: 8,
            model: "bench",
        })
    };
    let quant = |m, k, n| {
        Workload::Quant(QuantGemmConfig {
            name: "bench",
            m,
            n,
            k,
            model: "bench",
        })
    };
    let variance = |bs, l| {
        Workload::Variance(VarianceConfig {
            name: "bench",
            bs,
            l,
        })
    };
    let inertia = |n| {
        Workload::Inertia(InertiaConfig {
            name: "bench",
            bs: 1,
            n,
            dim: 3,
        })
    };
    vec![
        Workload::Softmax {
            rows: 32,
            len: 4096,
        },
        Workload::Softmax {
            rows: 96,
            len: 4096,
        },
        Workload::Softmax {
            rows: 160,
            len: 4096,
        },
        variance(64, 4096),
        variance(256, 4096),
        mha(4, 2048, 64),
        mha(4, 8192, 64),
        mla(4096, 64, 32),
        mla(8192, 128, 64),
        moe(32, 128, 32),
        moe(64, 256, 32),
        quant(8, 1024, 16),
        quant(8, 2048, 16),
        inertia(65536),
        inertia(262144),
    ]
}

/// Copies of each `exec_large` shape in the pool, so the pool's inputs
/// exceed the reference host's 105 MiB LLC.
const LARGE_COPIES: usize = 2;

/// `exec_large`: [`LARGE_COPIES`] seeded inputs of every large shape. The
/// order is shuffled once, the same for every seed: which shape runs before
/// which changes what the caches hold, and that should not vary with the
/// seed.
pub fn exec_large(seed: u64) -> Vec<Input> {
    let mut rng = rng(seed, 2);
    let mut pool: Vec<Input> = exec_large_shapes()
        .into_iter()
        .flat_map(|w| std::iter::repeat_n(w, LARGE_COPIES))
        .map(|w| request_for(w, rng.next_u64() >> 16, Priority::Normal))
        .collect();
    shuffle(&mut self::rng(0, 2), &mut pool);
    pool
}

/// A workload of `class` with shape parameters drawn from small ranges, so
/// its tensors stay a few KiB and execution is a minor share of a request.
fn small_shape(class: &str, rng: &mut StdRng) -> Workload {
    match class {
        "softmax" => Workload::Softmax {
            rows: rng.gen_range(1..=4),
            len: rng.gen_range(8..=256),
        },
        "variance" => Workload::Variance(VarianceConfig {
            name: "bench",
            bs: rng.gen_range(1..=8),
            l: rng.gen_range(8..=256),
        }),
        "mha" => Workload::Mha(MhaConfig {
            name: "bench",
            bs: rng.gen_range(1..=4),
            hn: rng.gen_range(1..=8),
            q: rng.gen_range(1..=8),
            kv: rng.gen_range(8..=64),
            hd: 8 * rng.gen_range(1..=4usize),
            model: "bench",
        }),
        "mla" => Workload::Mla(MlaConfig {
            name: "bench",
            bs: rng.gen_range(1..=4),
            hn: rng.gen_range(1..=16),
            kv: rng.gen_range(8..=64),
            hd: 8 * rng.gen_range(1..=4usize),
            ped: 8 * rng.gen_range(1..=2usize),
        }),
        "moe" => {
            let en = rng.gen_range(4..=32);
            Workload::Moe(MoeConfig {
                name: "bench",
                s: rng.gen_range(1..=16),
                hd: rng.gen_range(8..=32),
                en,
                topk: rng.gen_range(1..=en.min(8)),
                model: "bench",
            })
        }
        "quant" => Workload::Quant(QuantGemmConfig {
            name: "bench",
            m: rng.gen_range(1..=16),
            n: rng.gen_range(4..=32),
            k: rng.gen_range(8..=64),
            model: "bench",
        }),
        _ => Workload::Inertia(InertiaConfig {
            name: "bench",
            bs: rng.gen_range(1..=16),
            n: rng.gen_range(8..=128),
            dim: rng.gen_range(2..=4),
        }),
    }
}

/// Draw weights of the seven classes in `compile_cold`. Only softmax and
/// the two attention classes run the guided tuner; the other four compile
/// from a traffic-accounting profile in microseconds. Weighting the tuned
/// classes 3:1 puts the median request on the tuner's path.
const COLD_WEIGHTS: [(&str, usize); 7] = [
    ("softmax", 3),
    ("mha", 3),
    ("mla", 3),
    ("variance", 1),
    ("moe", 1),
    ("quant", 1),
    ("inertia", 1),
];

/// `compile_cold`: `count` distinct shapes drawn by seed over the seven
/// classes (weighted by [`COLD_WEIGHTS`]), each with one small seeded
/// input.
pub fn compile_cold(seed: u64, count: usize) -> Vec<Input> {
    let total: usize = COLD_WEIGHTS.iter().map(|(_, w)| w).sum();
    let mut rng = rng(seed, 3);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let mut pick = rng.gen_range(0..total);
        let (class, _) = COLD_WEIGHTS
            .iter()
            .find(|(_, w)| {
                let hit = pick < *w;
                pick = pick.saturating_sub(*w);
                hit
            })
            .expect("the pick is below the weight total");
        let workload = small_shape(class, &mut rng);
        if seen.insert(workload.clone()) {
            pool.push(request_for(
                workload,
                rng.next_u64() >> 16,
                Priority::Normal,
            ));
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_deterministic_per_seed() {
        let a = serve_mixed(7);
        let b = serve_mixed(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let c = compile_cold(7, 50);
        let d = compile_cold(7, 50);
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
        assert_ne!(format!("{c:?}"), format!("{:?}", compile_cold(8, 50)));
    }

    #[test]
    fn serve_mixed_covers_every_class_graphs_and_lanes() {
        let pool = serve_mixed(1);
        for class in CLASSES.iter().chain(&["graph"]) {
            assert!(pool.iter().any(|i| i.class() == *class), "{class}");
        }
        let graphs = pool.iter().filter(|i| i.class() == "graph").count();
        assert_eq!(graphs * 10, pool.len(), "one submission in ten is a graph");
        let lane = |i: &Input| match i {
            Input::Single { priority, .. } | Input::Graph { priority, .. } => *priority,
        };
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert!(pool.iter().any(|i| lane(i) == p), "{p:?}");
        }
        let labels = |pool: &[Input]| pool.iter().map(Input::label).collect::<Vec<_>>();
        assert_eq!(
            labels(&pool),
            labels(&serve_mixed(2)),
            "the seed keeps the pattern"
        );
    }

    #[test]
    fn references_pass_their_own_check_and_a_perturbed_output_fails() {
        for input in serve_mixed(3).iter().take(30) {
            let expected = input.reference();
            let got = match &expected {
                Expected::Single(out) => out.clone(),
                Expected::Graph(t) => RequestOutput::Tensors(t.clone()),
            };
            assert!(input.check(&expected, &got), "{}", input.class());
            let bad = match got {
                RequestOutput::Matrix(m) => RequestOutput::Matrix(bump(&m)),
                RequestOutput::Values(v) => {
                    RequestOutput::Values(v.iter().map(|x| x + 1.0).collect())
                }
                RequestOutput::Tensors(t) => RequestOutput::Tensors(t.iter().map(bump).collect()),
                RequestOutput::Routing(mut d) => {
                    d[0].experts[0] += 1;
                    RequestOutput::Routing(d)
                }
            };
            assert!(!input.check(&expected, &bad), "{}", input.class());
        }
    }

    #[test]
    fn exec_large_exceeds_the_llc_with_inputs_on_both_sides_of_the_l2() {
        let mib = 1024.0 * 1024.0;
        let pool = exec_large(1);
        let sizes: Vec<f64> = pool.iter().map(Input::input_bytes).collect();
        assert!(sizes.iter().sum::<f64>() > 105.0 * mib);
        assert!(sizes.iter().any(|&b| b < 4.0 * mib));
        assert!(sizes.iter().any(|&b| b > 4.0 * mib));
        for class in CLASSES {
            assert!(pool.iter().any(|i| i.class() == class), "{class}");
        }
    }

    #[test]
    fn compile_cold_draws_distinct_shapes_of_every_class() {
        let pool = compile_cold(5, 300);
        let shapes: HashSet<String> = pool
            .iter()
            .map(|i| match i {
                Input::Single { request, .. } => format!("{:?}", request.workload),
                Input::Graph { .. } => unreachable!("no graphs in compile_cold"),
            })
            .collect();
        assert_eq!(shapes.len(), pool.len());
        for class in CLASSES {
            assert!(pool.iter().any(|i| i.class() == class), "{class}");
        }
    }

    fn bump(m: &Matrix) -> Matrix {
        let data = m.as_slice().iter().map(|x| x + 10.0).collect();
        Matrix::from_vec(m.rows(), m.cols(), data)
    }
}
