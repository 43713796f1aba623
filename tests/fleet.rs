//! Multi-device fleet serving: the differential guarantee that a one-device
//! fleet behaves exactly like the single-arch engine, the routing-policy
//! invariants (sticky keys stay put, least-loaded never routes to a device
//! above the minimum backlog, row-sharded GEMMs merge back to the unsharded
//! numbers), and per-device ledger conservation under a concurrent flood.

use std::sync::Arc;

use rf_codegen::Workload;
use rf_gpusim::GpuArch;
use rf_graph::builders;
use rf_runtime::{
    execute_reference, Engine, FleetConfig, Request, RequestInput, RequestOutput, RoutingPolicy,
    RuntimeConfig, RuntimeError, Submission,
};
use rf_workloads::{
    inertia_tiny, mha_tiny, mla_tiny, moe_tiny, quant_tiny, random_matrix, variance_tiny, Matrix,
};

fn runtime_config(workers: usize, max_batch: usize, max_in_flight: usize) -> RuntimeConfig {
    RuntimeConfig::builder()
        .workers(workers)
        .max_batch(max_batch)
        .cache_capacity(32)
        .max_in_flight(max_in_flight)
        .build()
        .expect("valid config")
}

/// One deterministic request per workload family.
fn family_requests() -> Vec<Request> {
    let mha = mha_tiny();
    let mla = mla_tiny();
    let moe = moe_tiny();
    let quant = quant_tiny();
    let var = variance_tiny();
    let inertia = inertia_tiny();
    vec![
        Request::softmax(random_matrix(6, 96, 1, -4.0, 4.0)),
        Request::new(
            Workload::Mha(mha.clone()),
            RequestInput::Attention {
                q: random_matrix(mha.q, mha.hd, 2, -1.0, 1.0),
                k: random_matrix(mha.kv, mha.hd, 3, -1.0, 1.0),
                v: random_matrix(mha.kv, mha.hd, 4, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Mla(mla.clone()),
            RequestInput::Attention {
                q: random_matrix(1, mla.qk_dim(), 5, -1.0, 1.0),
                k: random_matrix(mla.kv, mla.qk_dim(), 6, -1.0, 1.0),
                v: random_matrix(mla.kv, mla.hd, 7, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Moe(moe.clone()),
            RequestInput::Routing {
                x: random_matrix(9, moe.hd, 8, -1.0, 1.0),
                w: random_matrix(moe.hd, moe.en, 9, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Quant(quant.clone()),
            RequestInput::QuantGemm {
                a: random_matrix(5, quant.k, 10, -2.0, 2.0),
                w: random_matrix(quant.k, quant.n, 11, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Variance(var.clone()),
            RequestInput::Rows(random_matrix(4, var.l, 12, -3.0, 3.0)),
        )
        .unwrap(),
        Request::new(
            Workload::Inertia(inertia.clone()),
            RequestInput::Inertia {
                masses: (0..64).map(|i| 0.1 + (i as f64) * 0.03).collect(),
                positions: random_matrix(64, inertia.dim, 14, -2.0, 2.0),
            },
        )
        .unwrap(),
    ]
}

fn serve_all(engine: &Engine, requests: &[Request]) -> Vec<RequestOutput> {
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| engine.submit(r.clone()).expect("request admitted"))
        .collect();
    engine.run_until_drained();
    tickets
        .into_iter()
        .map(|t| t.wait().expect("request served").output)
        .collect()
}

/// The refactor's back-compat contract: an explicit one-device tile-VM fleet
/// is bit-identical to the plain single-arch engine on every workload family
/// and on graph serving — same outputs, same ledger, same cache behaviour.
#[test]
fn one_device_fleet_is_differentially_identical_to_the_plain_engine() {
    let requests = family_requests();
    let plain = Engine::with_config(GpuArch::a10(), runtime_config(2, 4, 1024));
    let fleet = Engine::with_fleet(FleetConfig {
        devices: vec![GpuArch::a10()],
        routing: RoutingPolicy::LeastLoaded,
        runtime: runtime_config(2, 4, 1024),
    });
    let plain_outputs = serve_all(&plain, &requests);
    let fleet_outputs = serve_all(&fleet, &requests);
    for ((request, a), b) in requests.iter().zip(&plain_outputs).zip(&fleet_outputs) {
        assert_eq!(a, b, "family {} diverged", request.workload.name());
    }

    // Graph serving goes through the same one-device path.
    let graph = Arc::new(builders::moe_block(4, 8, 4));
    let bindings: Vec<(String, Matrix)> = builders::moe_block_inputs(4, 8, 4, 3)
        .into_iter()
        .map(|(n, m)| (n.to_string(), m))
        .collect();
    let serve_graph = |engine: &Engine| {
        engine
            .submit(Submission::graph(Arc::clone(&graph), bindings.clone()))
            .unwrap()
            .wait()
            .unwrap()
    };
    let plain_graph = serve_graph(&plain);
    let fleet_graph = serve_graph(&fleet);
    assert_eq!(plain_graph.output, fleet_graph.output);
    assert_eq!(plain_graph.graph, fleet_graph.graph);

    // Identical ledgers and cache behaviour, not just identical numbers.
    let (pm, fm) = (plain.metrics(), fleet.metrics());
    assert_eq!(pm.submitted, fm.submitted);
    assert_eq!(pm.completed, fm.completed);
    assert_eq!(pm.failed, fm.failed);
    assert_eq!(pm.batches, fm.batches);
    assert_eq!(pm.cache.misses, fm.cache.misses);
    assert_eq!(pm.graphs_served, fm.graphs_served);
    // And the fleet engine reports exactly one device, serving everything.
    let snapshots = fleet.device_snapshots();
    assert_eq!(snapshots.len(), 1);
    assert_eq!(snapshots[0].metrics.completed, fm.completed);
}

/// Sticky routing: the same workload key always lands on the same device,
/// regardless of tensor values, so its plan cache and batches stay hot.
#[test]
fn sticky_routing_pins_each_key_to_one_device() {
    let engine = Engine::with_fleet(
        FleetConfig::homogeneous(GpuArch::a10(), 4, runtime_config(1, 4, 4096))
            .with_routing(RoutingPolicy::StickyByKey),
    );
    assert_eq!(engine.routing(), RoutingPolicy::StickyByKey);
    // Several distinct keys (shapes), several submissions per key with
    // different values.
    let shapes = [(2usize, 32usize), (4, 64), (8, 16), (3, 48), (5, 96)];
    let mut homes: Vec<Option<usize>> = vec![None; shapes.len()];
    for round in 0..6 {
        for (which, &(rows, cols)) in shapes.iter().enumerate() {
            let seed = (round * 100 + which) as u64;
            let response = engine
                .submit(Request::softmax(random_matrix(rows, cols, seed, -1.0, 1.0)))
                .unwrap()
                .wait()
                .unwrap();
            match homes[which] {
                None => homes[which] = Some(response.device),
                Some(home) => assert_eq!(
                    response.device, home,
                    "shape {rows}x{cols} moved devices between submissions"
                ),
            }
        }
    }
    engine.run_until_drained();
    // Per-device cache misses: each device compiled exactly the keys pinned
    // to it, once each — sticky keeps plan caches disjoint.
    let total_misses: u64 = engine
        .device_snapshots()
        .iter()
        .map(|d| d.metrics.cache.misses)
        .sum();
    assert_eq!(total_misses as usize, shapes.len());
}

/// Least-loaded routing: every submission goes to a device whose backlog, at
/// decision time, does not exceed the fleet minimum by more than one batch.
/// Cold per-request compiles keep real backlog on every device while a
/// single thread floods, so the depths observed around each submission
/// bracket the router's decision.
#[test]
fn least_loaded_never_routes_above_the_minimum_backlog() {
    let max_batch = 2usize;
    let engine = Engine::with_fleet(FleetConfig::homogeneous(
        GpuArch::a10(),
        4,
        runtime_config(1, max_batch, 4096),
    ));
    let mut tickets = Vec::new();
    for i in 0..32usize {
        let before: Vec<u64> = engine
            .device_snapshots()
            .iter()
            .map(|d| d.metrics.submitted)
            .collect();
        let depths_before: Vec<usize> = engine
            .device_snapshots()
            .iter()
            .map(|d| d.metrics.queue_depth)
            .collect();
        // A unique shape per request: every one is a cold compile, so the
        // queues stay deep and the routing decision is observable.
        tickets.push(
            engine
                .submit(Request::softmax(random_matrix(
                    4,
                    32 + i,
                    i as u64,
                    -1.0,
                    1.0,
                )))
                .unwrap(),
        );
        let after: Vec<u64> = engine
            .device_snapshots()
            .iter()
            .map(|d| d.metrics.submitted)
            .collect();
        let routed = (0..after.len())
            .find(|&d| after[d] > before[d])
            .expect("exactly one device admitted the request");
        let min_depth = *depths_before.iter().min().unwrap();
        assert!(
            depths_before[routed] <= min_depth + max_batch,
            "submission {i} routed to device {routed} at depth {} while the \
             minimum was {min_depth} (depths {depths_before:?})",
            depths_before[routed]
        );
    }
    engine.run_until_drained();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    assert_eq!(engine.metrics().completed, 32);
}

/// Row-shard routing: an MHA or quant-GEMM request fanned out across the
/// fleet merges back to exactly the numbers a single device produces, and
/// the merged response reports the fan-out.
#[test]
fn row_sharded_requests_merge_back_to_the_unsharded_numbers() {
    let single = Engine::with_config(GpuArch::a10(), runtime_config(1, 4, 1024));
    let sharded = Engine::with_fleet(
        FleetConfig::homogeneous(GpuArch::a10(), 4, runtime_config(1, 4, 1024))
            .with_routing(RoutingPolicy::RowShard),
    );
    let mha = mha_tiny();
    let mha_request = Request::new(
        Workload::Mha(rf_workloads::MhaConfig {
            q: 8,
            ..mha.clone()
        }),
        RequestInput::Attention {
            q: random_matrix(8, mha.hd, 21, -1.0, 1.0),
            k: random_matrix(mha.kv, mha.hd, 22, -1.0, 1.0),
            v: random_matrix(mha.kv, mha.hd, 23, -1.0, 1.0),
        },
    )
    .unwrap();
    let quant = quant_tiny();
    let quant_request = Request::new(
        Workload::Quant(rf_workloads::QuantGemmConfig {
            m: 8,
            ..quant.clone()
        }),
        RequestInput::QuantGemm {
            a: random_matrix(8, quant.k, 24, -2.0, 2.0),
            w: random_matrix(quant.k, quant.n, 25, -1.0, 1.0),
        },
    )
    .unwrap();
    for request in [mha_request, quant_request] {
        let reference = single
            .submit(request.clone())
            .unwrap()
            .wait()
            .unwrap()
            .output;
        let merged = sharded.submit(request.clone()).unwrap().wait().unwrap();
        let RequestOutput::Matrix(merged_out) = &merged.output else {
            panic!("row-shardable families produce matrices");
        };
        let RequestOutput::Matrix(reference_out) = &reference else {
            panic!("row-shardable families produce matrices");
        };
        assert_eq!(
            (merged_out.rows(), merged_out.cols()),
            (reference_out.rows(), reference_out.cols())
        );
        assert_eq!(
            merged_out,
            reference_out,
            "{}: sharded result diverged from the unsharded reference",
            request.workload.name()
        );
    }
    sharded.run_until_drained();
    // The fan-out is visible in the per-device ledgers: every device served
    // shards of both requests.
    let snapshots = sharded.device_snapshots();
    assert_eq!(snapshots.len(), 4);
    assert!(snapshots.iter().all(|d| d.metrics.completed == 2));
    // Non-shardable work under RowShard falls back to least-loaded and still
    // serves correctly.
    let softmax = Request::softmax(random_matrix(1, 64, 30, -1.0, 1.0));
    let response = sharded.submit(softmax).unwrap().wait().unwrap();
    assert!(response.simulated_us > 0.0);
}

/// Ledger conservation under a concurrent flood into a 4-device fleet with a
/// tight admission budget: every offered submission is accounted exactly once
/// — served, failed, or shed — and the per-device ledgers sum to the fleet's.
#[test]
fn per_device_ledgers_conserve_requests_under_concurrent_flood() {
    let engine = Arc::new(Engine::with_fleet(FleetConfig::homogeneous(
        GpuArch::a10(),
        4,
        runtime_config(1, 2, 4),
    )));
    let threads = 8;
    let per_thread = 32u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut admitted = Vec::new();
                let mut shed = 0u64;
                for i in 0..per_thread {
                    let seed = t * per_thread + i;
                    match engine.submit(Request::softmax(random_matrix(8, 256, seed, -1.0, 1.0))) {
                        Ok(ticket) => admitted.push(ticket),
                        Err(RuntimeError::Overloaded { retry_hint, .. }) => {
                            assert!(retry_hint > std::time::Duration::ZERO);
                            shed += 1;
                        }
                        Err(other) => panic!("unexpected admission error: {other:?}"),
                    }
                }
                let mut served = 0u64;
                for ticket in admitted {
                    ticket.wait().expect("admitted requests complete");
                    served += 1;
                }
                (served, shed)
            })
        })
        .collect();
    let (mut served, mut shed) = (0u64, 0u64);
    for handle in handles {
        let (s, d) = handle.join().expect("flood thread");
        served += s;
        shed += d;
    }
    engine.run_until_drained();
    let offered = threads * per_thread;
    assert_eq!(served + shed, offered, "every offer resolves exactly once");

    // Fleet-level conservation.
    let metrics = engine.metrics();
    assert_eq!(metrics.submitted, served);
    assert_eq!(metrics.completed, served);
    assert_eq!(metrics.shed, shed);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.queue_depth, 0);

    // Per-device conservation: each device's ledger balances on its own, and
    // the device ledgers sum to the fleet ledger.
    let snapshots = engine.device_snapshots();
    assert_eq!(snapshots.len(), 4);
    let mut sum_submitted = 0u64;
    let mut sum_completed = 0u64;
    let mut sum_shed = 0u64;
    for device in &snapshots {
        let m = &device.metrics;
        assert_eq!(
            m.submitted,
            m.completed + m.failed,
            "device {} ledger must balance after drain",
            device.device
        );
        assert_eq!(m.queue_depth, 0);
        sum_submitted += m.submitted;
        sum_completed += m.completed;
        sum_shed += m.shed;
    }
    assert_eq!(sum_submitted, served);
    assert_eq!(sum_completed, served);
    assert_eq!(sum_shed, shed);
    // The flood actually exercised more than one device.
    assert!(
        snapshots.iter().filter(|d| d.metrics.submitted > 0).count() > 1,
        "a concurrent flood against a tiny budget must spill across devices"
    );
}

/// A heterogeneous fleet computes real outputs on every device: softmax,
/// MHA and a plan-less graph served across an A10 and an H800 all match the
/// unfused oracles at the differential suite's tight tolerance, both devices
/// serve, and each keeps its own architecture identity.
#[test]
fn heterogeneous_fleet_serves_oracle_exact_outputs_on_every_device() {
    /// The differential suite's damped-relative tolerance for the exactly
    /// reassociative families (softmax, MHA, the MoE block's softmax region).
    const TIGHT_TOL: f64 = 1e-9;
    let engine = Engine::with_fleet(FleetConfig::heterogeneous(
        vec![GpuArch::a10(), GpuArch::h800()],
        runtime_config(1, 4, 1024),
    ));
    let mha = mha_tiny();
    let mut requests = Vec::new();
    for seed in 0..8 {
        requests.push(Request::softmax(random_matrix(4, 64, seed, -1.0, 1.0)));
        requests.push(
            Request::new(
                Workload::Mha(mha.clone()),
                RequestInput::Attention {
                    q: random_matrix(mha.q, mha.hd, 100 + seed, -1.0, 1.0),
                    k: random_matrix(mha.kv, mha.hd, 200 + seed, -1.0, 1.0),
                    v: random_matrix(mha.kv, mha.hd, 300 + seed, -1.0, 1.0),
                },
            )
            .unwrap(),
        );
    }
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| engine.submit(r.clone()).unwrap())
        .collect();
    let graph = Arc::new(builders::moe_block(4, 8, 4));
    let inputs = builders::moe_block_inputs(4, 8, 4, 3);
    let bindings: Vec<(String, Matrix)> = inputs
        .iter()
        .map(|(n, m)| (n.to_string(), m.clone()))
        .collect();
    let graph_ticket = engine
        .submit(Submission::graph(Arc::clone(&graph), bindings))
        .unwrap();
    engine.run_until_drained();

    let mut served_by = [0usize; 2];
    for (request, ticket) in requests.iter().zip(tickets) {
        let response = ticket.wait().unwrap();
        let oracle = execute_reference(&request.workload, &request.input);
        assert!(
            response.output.approx_eq(&oracle, TIGHT_TOL),
            "{} on device {} diverged from the oracle",
            request.workload.name(),
            response.device
        );
        assert!(response.simulated_us > 0.0);
        served_by[response.device] += 1;
    }
    let response = graph_ticket.wait().unwrap();
    let oracle = RequestOutput::Tensors(graph.evaluate(&inputs).unwrap());
    assert!(
        response.output.approx_eq(&oracle, TIGHT_TOL),
        "graph on device {} diverged from OpGraph::evaluate",
        response.device
    );
    served_by[response.device] += 1;
    assert!(
        served_by.iter().all(|&n| n > 0),
        "least-loaded routing must use both devices, served {served_by:?}"
    );

    let snapshots = engine.device_snapshots();
    assert_eq!(snapshots[0].arch, "NVIDIA A10");
    assert_eq!(snapshots[1].arch, "NVIDIA H800");
    assert_ne!(
        snapshots[0].fingerprint, snapshots[1].fingerprint,
        "different architectures report different capability fingerprints"
    );
    for (snapshot, served) in snapshots.iter().zip(served_by) {
        assert_eq!(snapshot.metrics.completed, served as u64);
    }
}
