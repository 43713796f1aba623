//! Multi-device fleet walkthrough: run one engine over a mixed-architecture
//! fleet (an A10 and an H800, both executing on the tile VM), drive the same
//! request mix through all three routing policies, check every output
//! against the unfused oracle, and read the per-device metrics the fleet
//! keeps for each of them.
//!
//! Run with `cargo run --example fleet_serving`.

use redfuser::gpusim::GpuArch;
use redfuser::runtime::{
    execute_reference, Engine, FleetConfig, Request, RequestInput, RoutingPolicy, RuntimeConfig,
};
use redfuser::workloads::{mha_tiny, random_matrix};

fn fleet(routing: RoutingPolicy) -> FleetConfig {
    FleetConfig::heterogeneous(
        vec![GpuArch::a10(), GpuArch::h800()],
        RuntimeConfig::builder()
            .workers(2)
            .max_batch(8)
            .cache_capacity(32)
            .build()
            .expect("valid config"),
    )
    .with_routing(routing)
}

/// A small mixed stream: batched softmax traffic plus row-shardable MHA.
fn requests() -> Vec<Request> {
    let mha = mha_tiny();
    let mut all: Vec<Request> = (0..24u64)
        .map(|seed| {
            Request::softmax(random_matrix(
                4,
                64 + (seed % 3) as usize * 32,
                seed,
                -2.0,
                2.0,
            ))
        })
        .collect();
    for seed in 0..8u64 {
        all.push(
            Request::new(
                redfuser::codegen::Workload::Mha(redfuser::workloads::MhaConfig {
                    q: 8,
                    ..mha.clone()
                }),
                RequestInput::Attention {
                    q: random_matrix(8, mha.hd, 100 + seed, -1.0, 1.0),
                    k: random_matrix(mha.kv, mha.hd, 200 + seed, -1.0, 1.0),
                    v: random_matrix(mha.kv, mha.hd, 300 + seed, -1.0, 1.0),
                },
            )
            .expect("valid MHA request"),
        );
    }
    all
}

pub fn main() {
    for routing in [
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::StickyByKey,
        RoutingPolicy::RowShard,
    ] {
        let engine = Engine::with_fleet(fleet(routing));
        println!(
            "=== routing: {} ({} devices) ===",
            routing.name(),
            engine.devices()
        );
        let requests = requests();
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| engine.submit(r.clone()).expect("request admitted"))
            .collect();
        engine.run_until_drained();
        let mut per_device = vec![0usize; engine.devices()];
        for (request, ticket) in requests.iter().zip(tickets) {
            let response = ticket.wait().expect("request served");
            let oracle = execute_reference(&request.workload, &request.input);
            assert!(
                response.output.approx_eq(&oracle, 1e-9),
                "{} diverged from the unfused oracle",
                request.workload.name()
            );
            per_device[response.device] += 1;
        }
        // `response.device` reports the lowest participating device for a
        // row-sharded merge, so the per-device ledgers below are the real
        // placement record; this is the caller-visible view.
        println!("responses by serving device (all match the oracle): {per_device:?}");
        for device in engine.device_snapshots() {
            let m = &device.metrics;
            println!(
                "device {} [{}, fingerprint {:016x}]: \
                 {} served, {} shed, p50 {:.1} us, p99 {:.1} us, \
                 mean batch {:.2}, cache hit rate {:.0}%",
                device.device,
                device.arch,
                device.fingerprint,
                m.completed,
                m.shed,
                m.p50_us,
                m.p99_us,
                m.mean_batch_size,
                m.cache.hit_rate() * 100.0,
            );
        }
        let fleet_wide = engine.metrics();
        println!(
            "fleet: {} served over {} batches\n",
            fleet_wide.completed, fleet_wide.batches
        );
    }
}
