//! Placement policies: which device serves a submission.
//!
//! The router is pure decision logic — it never touches a scheduler. The
//! fleet front door samples per-device queue depths, asks [`route`] for a
//! device id (or [`shard_request`] for a tensor-parallel split) and performs
//! the admission itself, so every policy is unit-testable without threads.
//!
//! Three policies ship (see [`RoutingPolicy`]):
//!
//! * **least-loaded** — argmin of queue depth, ties to the lowest device id.
//! * **sticky-by-key** — a stable hash of the workload key (the compiled-plan
//!   cache key), so identical shapes always land on the same device and its
//!   plan cache and batches stay hot.
//! * **row-shard** — tensor-parallel row-sharding for the GEMM-dominated
//!   families whose output rows are independent: MHA over query rows and
//!   quant-GEMM over activation rows. Everything else falls back to
//!   least-loaded.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rf_codegen::Workload;
use rf_workloads::Matrix;

use crate::config::RoutingPolicy;
use crate::request::{Request, RequestInput};
use crate::submit::Submission;

/// The device with the shallowest queue; ties break to the lowest id. The
/// chosen device's depth is the minimum at decision time, so the router
/// never places work on a device another device undercuts.
pub(crate) fn least_loaded(depths: &[usize]) -> usize {
    depths
        .iter()
        .enumerate()
        .min_by_key(|&(id, &depth)| (depth, id))
        .map(|(id, _)| id)
        .unwrap_or(0)
}

/// Stable placement by workload key: the same key always hashes to the same
/// device, maximising plan-cache and batch locality there. Workload
/// submissions key by the [`Workload`] itself (the plan-cache key); graphs
/// key by their label.
pub(crate) fn sticky(submission: &Submission, devices: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    match submission {
        Submission::Workload { request, .. } => request.workload.hash(&mut hasher),
        Submission::Graph { .. } => submission.label().hash(&mut hasher),
    }
    (hasher.finish() % devices.max(1) as u64) as usize
}

/// Picks the device for one unsharded submission under `policy`.
/// [`RoutingPolicy::RowShard`] reaches here only for work that cannot shard,
/// which falls back to least-loaded.
pub(crate) fn route(policy: RoutingPolicy, submission: &Submission, depths: &[usize]) -> usize {
    match policy {
        RoutingPolicy::LeastLoaded | RoutingPolicy::RowShard => least_loaded(depths),
        RoutingPolicy::StickyByKey => sticky(submission, depths.len()),
    }
}

/// The row-sharded split of `request` across up to `devices` devices: one
/// shard request per contiguous row block, in device order. Each shard is a
/// full, independently valid request (the shard's workload config carries
/// the shard's row count, so compilation and costing are honest).
///
/// Returns `None` when the request cannot shard: fewer than two devices,
/// fewer than two independent rows, or a family whose output rows are not
/// independent (MLA decode is single-row by construction; MoE routing,
/// softmax/variance and inertia reduce across the whole input).
pub(crate) fn shard_request(request: &Request, devices: usize) -> Option<Vec<Request>> {
    if devices < 2 {
        return None;
    }
    match (&request.workload, &request.input) {
        (Workload::Mha(c), RequestInput::Attention { q, k, v }) if q.rows() >= 2 => Some(
            row_blocks(q, devices)
                .into_iter()
                .map(|block| Request {
                    workload: Workload::Mha(rf_workloads::MhaConfig {
                        q: block.rows(),
                        ..c.clone()
                    }),
                    input: RequestInput::Attention {
                        q: block,
                        k: k.clone(),
                        v: v.clone(),
                    },
                })
                .collect(),
        ),
        (Workload::Quant(c), RequestInput::QuantGemm { a, w }) if a.rows() >= 2 => Some(
            row_blocks(a, devices)
                .into_iter()
                .map(|block| Request {
                    workload: Workload::Quant(rf_workloads::QuantGemmConfig {
                        m: block.rows(),
                        ..c.clone()
                    }),
                    input: RequestInput::QuantGemm {
                        a: block,
                        w: w.clone(),
                    },
                })
                .collect(),
        ),
        _ => None,
    }
}

/// Splits `m` into up to `parts` contiguous row blocks (never more than the
/// row count; the first `rows % parts` blocks take one extra row). Block
/// order is row order, so concatenating the blocks reproduces `m` exactly.
fn row_blocks(m: &Matrix, parts: usize) -> Vec<Matrix> {
    let rows = m.rows();
    let cols = m.cols();
    let parts = parts.min(rows);
    let base = rows / parts;
    let extra = rows % parts;
    let mut blocks = Vec::with_capacity(parts);
    let mut start = 0usize;
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        let slice = &m.as_slice()[start * cols..(start + take) * cols];
        blocks.push(Matrix::from_vec(take, cols, slice.to_vec()));
        start += take;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_workloads::{mha_tiny, mla_tiny, quant_tiny, random_matrix};

    #[test]
    fn least_loaded_picks_the_minimum_and_ties_to_the_lowest_id() {
        assert_eq!(least_loaded(&[3, 1, 2, 1]), 1);
        assert_eq!(least_loaded(&[0, 0, 0]), 0);
        assert_eq!(least_loaded(&[5]), 0);
        // The invariant the fleet relies on: the chosen depth is the minimum.
        let depths = [7usize, 2, 9, 2, 4];
        let chosen = least_loaded(&depths);
        assert_eq!(depths[chosen], *depths.iter().min().unwrap());
    }

    #[test]
    fn sticky_is_deterministic_and_in_range() {
        let request = Request::softmax(random_matrix(4, 32, 1, -1.0, 1.0));
        let submission: Submission = request.into();
        let first = sticky(&submission, 4);
        for _ in 0..8 {
            assert_eq!(sticky(&submission, 4), first);
        }
        assert!(first < 4);
        // A different shape may move; the same shape never does, even with
        // different tensor *values* (the key is the workload, not the data).
        let same_shape: Submission = Request::softmax(random_matrix(4, 32, 99, -1.0, 1.0)).into();
        assert_eq!(sticky(&same_shape, 4), first);
    }

    #[test]
    fn row_blocks_partition_exactly_and_concatenate_back() {
        let m = random_matrix(7, 3, 5, -1.0, 1.0);
        let blocks = row_blocks(&m, 4);
        assert_eq!(blocks.len(), 4);
        assert_eq!(
            blocks.iter().map(Matrix::rows).collect::<Vec<_>>(),
            [2, 2, 2, 1]
        );
        let mut data = Vec::new();
        for block in &blocks {
            assert_eq!(block.cols(), 3);
            data.extend_from_slice(block.as_slice());
        }
        assert_eq!(data, m.as_slice());
        // More parts than rows degrades to one row per block.
        assert_eq!(row_blocks(&m, 100).len(), 7);
    }

    #[test]
    fn shardable_families_split_and_the_rest_refuse() {
        let mha = mha_tiny();
        let q = random_matrix(8, mha.hd, 1, -1.0, 1.0);
        let k = random_matrix(mha.kv, mha.hd, 2, -1.0, 1.0);
        let v = random_matrix(mha.kv, mha.hd, 3, -1.0, 1.0);
        let request = Request {
            workload: Workload::Mha(rf_workloads::MhaConfig { q: 8, ..mha }),
            input: RequestInput::Attention { q, k, v },
        };
        let shards = shard_request(&request, 4).expect("an 8-row MHA shards");
        assert_eq!(shards.len(), 4);
        for shard in &shards {
            // Every shard is independently valid.
            crate::request::validate(&shard.workload, &shard.input).unwrap();
        }
        // One device, or a single-row decode, cannot shard.
        assert!(shard_request(&request, 1).is_none());
        let mla = mla_tiny();
        let single = Request {
            workload: Workload::Mla(mla.clone()),
            input: RequestInput::Attention {
                q: random_matrix(1, mla.qk_dim(), 1, -1.0, 1.0),
                k: random_matrix(mla.kv, mla.qk_dim(), 2, -1.0, 1.0),
                v: random_matrix(mla.kv, mla.hd, 3, -1.0, 1.0),
            },
        };
        assert!(shard_request(&single, 4).is_none());
        // Quant-GEMM shards over activation rows, config `m` follows.
        let quant = quant_tiny();
        let gemm = Request {
            workload: Workload::Quant(rf_workloads::QuantGemmConfig {
                m: 6,
                ..quant.clone()
            }),
            input: RequestInput::QuantGemm {
                a: random_matrix(6, quant.k, 4, -1.0, 1.0),
                w: random_matrix(quant.k, quant.n, 5, -1.0, 1.0),
            },
        };
        let shards = shard_request(&gemm, 2).expect("a 6-row GEMM shards");
        assert_eq!(shards.len(), 2);
        let Workload::Quant(c) = &shards[0].workload else {
            panic!("shards keep their family");
        };
        assert_eq!(c.m, 3);
    }
}
