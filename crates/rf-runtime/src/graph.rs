//! End-to-end graph serving: executing a partitioned [`GraphPlan`] through
//! the engine's plan cache.
//!
//! [`execute_graph_plan`] walks the plan's topologically-ordered steps and
//! threads intermediate tensors between them:
//!
//! * a **fused region** step compiles (or re-uses, via the [`PlanCache`]
//!   keyed by the region's workload — the graph-region fingerprint) the
//!   region's workload and interprets the compiled tile program on the tile
//!   VM over the region's input tensors;
//! * a **glue op** step executes the node's unfused reference kernel.
//!
//! The result of every step lands in the shared value table, so a glue op
//! can consume a fused region's output and vice versa. The whole-graph
//! unfused oracle for this execution is [`OpGraph::evaluate`].

use rf_gpusim::{estimate_latency, GpuArch};
use rf_graph::partition::{GraphPlan, RegionKind, Step};
use rf_graph::{glue_profile, OpGraph};
use rf_tile::exec::{ExecInput, ExecOutput};
use rf_workloads::Matrix;

use crate::cache::PlanCache;
use crate::metrics::RuntimeMetrics;
use crate::request::RuntimeError;

/// The result of serving one graph end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphResponse {
    /// The graph's declared outputs, in declaration order.
    pub outputs: Vec<Matrix>,
    /// Fused region steps executed.
    pub fused_regions: usize,
    /// Graph ops covered by fused regions.
    pub fused_ops: usize,
    /// Glue ops executed unfused.
    pub glue_ops: usize,
    /// Region steps whose compiled plan came from the plan cache.
    pub region_cache_hits: usize,
    /// Total simulated latency of the plan on the analytical GPU model:
    /// every fused region's tuned kernel plus one launch per glue op, in
    /// microseconds.
    pub simulated_us: f64,
}

fn graph_err(detail: impl Into<String>) -> RuntimeError {
    RuntimeError::graph(detail)
}

/// Executes a partitioned graph over concrete input bindings, compiling each
/// fused region through `cache` and costing the execution on `arch`'s
/// analytical model. Records the graph-serving counters into `metrics` when
/// provided. Bindings are generic over the name type, so both borrowed
/// (`(&str, Matrix)`) builder output and owned (`(String, Matrix)`) queue
/// payloads execute without cloning tensors.
///
/// # Errors
///
/// [`RuntimeError::Graph`] when a binding is missing or misshapen, or when a
/// region's compiled program rejects its tensors. Errors originating in
/// `rf-graph` keep the [`rf_graph::GraphError`] reachable through
/// [`std::error::Error::source`].
pub fn execute_graph_plan<S: AsRef<str>>(
    cache: &PlanCache,
    arch: &GpuArch,
    metrics: Option<&RuntimeMetrics>,
    graph: &OpGraph,
    plan: &GraphPlan,
    bindings: &[(S, Matrix)],
) -> Result<GraphResponse, RuntimeError> {
    let mut values = graph
        .bind(bindings)
        .map_err(RuntimeError::from_graph_error)?;
    let mut fused_ops = 0usize;
    let mut glue_ops = 0usize;
    let mut region_lookups = 0usize;
    let mut region_hits = 0usize;
    let mut simulated_us = 0.0;

    for step in &plan.steps {
        match step {
            Step::Glue(id) => {
                let value = graph
                    .eval_node(*id, &values)
                    .map_err(RuntimeError::from_graph_error)?;
                values[*id] = Some(value);
                glue_ops += 1;
                simulated_us += estimate_latency(arch, &glue_profile(graph, *id)).total_us;
            }
            Step::Region(region) => {
                let (kernel, hit) = cache.get_or_compile_traced(&region.workload);
                region_lookups += 1;
                region_hits += usize::from(hit);
                let value = {
                    let tensor = |id: rf_graph::NodeId| {
                        values[id].as_ref().ok_or_else(|| {
                            graph_err(format!("region input node {id} is not computed yet"))
                        })
                    };
                    let input = match region.kind {
                        RegionKind::Softmax { src } | RegionKind::Variance { src } => {
                            ExecInput::Rows(tensor(src)?)
                        }
                        RegionKind::Attention { q, k, v } => ExecInput::Attention {
                            q: tensor(q)?,
                            k: tensor(k)?,
                            v: tensor(v)?,
                        },
                        RegionKind::QuantGemm { a, w } => ExecInput::QuantGemm {
                            a: tensor(a)?,
                            w: tensor(w)?,
                        },
                    };
                    let output = kernel.run(&input).map_err(|e| {
                        graph_err(format!("region `{}`: {e}", region.workload.name()))
                    })?;
                    match output {
                        ExecOutput::Matrix(m) => m,
                        // Per-row scalars (variance) thread on as a column.
                        ExecOutput::Values(v) => {
                            let rows = v.len();
                            Matrix::from_vec(rows, 1, v)
                        }
                        ExecOutput::TopK(_) => {
                            return Err(graph_err(format!(
                                "region `{}` produced a non-tensor output",
                                region.workload.name()
                            )))
                        }
                    }
                };
                values[region.output] = Some(value);
                fused_ops += region.nodes.len();
                simulated_us += kernel.latency_us;
            }
        }
    }

    if let Some(metrics) = metrics {
        metrics.record_graph(fused_ops, glue_ops, region_hits, region_lookups);
    }
    let outputs = graph
        .outputs()
        .iter()
        .map(|&id| {
            values[id]
                .clone()
                .ok_or_else(|| graph_err(format!("output node {id} was never computed")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GraphResponse {
        outputs,
        fused_regions: region_lookups,
        fused_ops,
        glue_ops,
        region_cache_hits: region_hits,
        simulated_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_graph::{builders, partition};

    #[test]
    fn fused_plan_matches_the_unfused_reference_for_moe() {
        let graph = builders::moe_block(6, 16, 4);
        let plan = partition::partition(&graph);
        assert_eq!(plan.fused_regions(), 1);
        let arch = GpuArch::a10();
        let cache = PlanCache::new(arch.clone(), 8);
        let inputs = builders::moe_block_inputs(6, 16, 4, 11);
        let response = execute_graph_plan(&cache, &arch, None, &graph, &plan, &inputs).unwrap();
        let reference = graph.evaluate(&inputs).unwrap();
        assert_eq!(response.outputs.len(), 1);
        assert!(response.outputs[0].max_abs_diff(&reference[0]) < 1e-9);
        assert!(response.simulated_us.is_finite() && response.simulated_us > 0.0);
        assert_eq!(response.region_cache_hits, 0);
        // Serving the same graph again hits the cached region plan.
        let again = execute_graph_plan(&cache, &arch, None, &graph, &plan, &inputs).unwrap();
        assert_eq!(again.region_cache_hits, 1);
    }

    #[test]
    fn missing_bindings_fail_cleanly() {
        let graph = builders::moe_block(4, 8, 4);
        let plan = partition::partition(&graph);
        let arch = GpuArch::a10();
        let cache = PlanCache::new(arch.clone(), 8);
        let no_bindings: [(&str, Matrix); 0] = [];
        let err = execute_graph_plan(&cache, &arch, None, &graph, &plan, &no_bindings).unwrap_err();
        assert!(matches!(err, RuntimeError::Graph { .. }));
        assert!(err.to_string().contains("not bound"));
        // The originating rf-graph error stays reachable via source().
        let source = std::error::Error::source(&err).expect("graph errors chain their source");
        assert!(source.to_string().contains("not bound"));
    }
}
