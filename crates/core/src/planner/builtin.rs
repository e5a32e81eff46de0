//! [`Planner`] implementations for FastT's own algorithms and the classical
//! baselines: DPOS, OS-DPOS, order-only, data parallelism and model
//! parallelism. The five black-box searchers live next to their algorithms
//! in [`crate::search`].

use super::{hash_params, Planner, PlannerKind, PlanningContext};
use crate::error::FastTError;
use crate::os_dpos::{dpos_plan_opt, os_dpos_opt, OsDposOptions};
use crate::strategy::{data_parallel_plan, data_parallel_plan_on, model_parallel_plan, Plan};
use fastt_graph::{replicate_grouped, ReplicationMode};

/// Alg. 1: min-EFT list scheduling with critical-path device grouping, no
/// operation splitting (the "No split" arm of the Table 6 ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct DposPlanner;

impl Planner for DposPlanner {
    fn name(&self) -> &'static str {
        "dpos"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::WhiteBox
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let col = ctx.collector.clone();
        let mut plan = dpos_plan_opt(ctx.graph, ctx.topo, &ctx.cost, ctx.hw, col.as_deref());
        if !ctx.enable_order {
            plan.order = None;
        }
        Ok(plan)
    }
}

/// Alg. 2: DPOS plus critical-path operation splitting. Seeds analytic
/// priors for fresh sub-operations into the context's cost models — the
/// winner's mutated clone is what the session adopts back.
#[derive(Debug, Clone, Default)]
pub struct OsDposPlanner {
    /// Split-search options; `None` derives defaults from the context's
    /// topology ([`OsDposOptions::for_topology`]).
    pub opts: Option<OsDposOptions>,
}

impl Planner for OsDposPlanner {
    fn name(&self) -> &'static str {
        "os_dpos"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::WhiteBox
    }

    fn fingerprint_extra(&self) -> u64 {
        match &self.opts {
            None => 0,
            Some(o) => {
                let mut parts: Vec<u64> = o.split_counts.iter().map(|&c| c as u64).collect();
                parts.push(o.max_splits as u64);
                hash_params(&parts)
            }
        }
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let opts = self
            .opts
            .clone()
            .unwrap_or_else(|| OsDposOptions::for_topology(ctx.topo));
        let col = ctx.collector.clone();
        let mut plan = os_dpos_opt(
            ctx.graph,
            ctx.topo,
            &mut ctx.cost,
            ctx.hw,
            &opts,
            col.as_deref(),
        );
        if !ctx.enable_order {
            plan.order = None;
        }
        Ok(plan)
    }
}

/// The low-risk lever of the paper's Fig. 2: keep the current deployment's
/// graph and placement, only enforce the execution order the strategy
/// calculator derives for it. Not cacheable — its output depends on the
/// current plan, which the fingerprint does not capture.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrderOnlyPlanner;

impl Planner for OrderOnlyPlanner {
    fn name(&self) -> &'static str {
        "order_only"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::OrderOnly
    }

    fn cacheable(&self) -> bool {
        false
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        if !ctx.enable_order {
            return Err(FastTError::InvalidArgument(
                "order-only planning needs order enforcement enabled",
            ));
        }
        let cur = ctx.current.ok_or(FastTError::InvalidArgument(
            "order-only planning needs the current plan in the context",
        ))?;
        let s = crate::dpos::schedule_for_placement(
            &cur.graph,
            ctx.topo,
            &ctx.cost,
            ctx.hw,
            &cur.placement,
        );
        Ok(Plan {
            graph: cur.graph.clone(),
            splits: cur.splits.clone(),
            placement: cur.placement.clone(),
            order: Some(s.order),
            est_finish: s.est_finish,
        })
    }
}

/// The data-parallel start strategy (Sec. 4): replicate the raw training
/// graph over the live GPUs (grouped by server), aggregating gradients
/// either through a parameter server (the default, TF-slim's convention) or
/// with a ring all-reduce collective ([`DataParallelPlanner::all_reduce`]).
/// The plan's `est_finish` is NaN — start strategies are arbitrated by
/// probing, not by estimates.
#[derive(Debug, Clone, Copy)]
pub struct DataParallelPlanner {
    /// How gradient aggregation is replicated and communicated.
    pub mode: ReplicationMode,
}

impl Default for DataParallelPlanner {
    fn default() -> Self {
        DataParallelPlanner {
            mode: ReplicationMode::ParameterServer,
        }
    }
}

impl DataParallelPlanner {
    /// Data parallelism with collective (ring all-reduce) gradient
    /// aggregation instead of the parameter-server funnel.
    pub fn all_reduce() -> Self {
        DataParallelPlanner {
            mode: ReplicationMode::AllReduce,
        }
    }
}

impl Planner for DataParallelPlanner {
    fn name(&self) -> &'static str {
        match self.mode {
            ReplicationMode::AllReduce => "data_parallel_allreduce",
            ReplicationMode::ParameterServer => "data_parallel",
        }
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::StartStrategy
    }

    fn uses_cost_models(&self) -> bool {
        false
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let raw = ctx.raw.ok_or(FastTError::InvalidArgument(
            "data-parallel planning needs the raw training graph in the context",
        ))?;
        if ctx.topo.gpu_count() == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        let groups: Vec<u16> = ctx.topo.gpu_ids().map(|d| ctx.topo.server_of(d)).collect();
        let rep = replicate_grouped(raw, &groups, self.mode)?;
        Ok(match ctx.dp_ps {
            Some(d) if !ctx.topo.is_failed(d) => data_parallel_plan_on(&rep, ctx.topo, d),
            _ => data_parallel_plan(&rep, ctx.topo),
        })
    }
}

/// The model-parallel start strategy (Sec. 4): greedy layer-wise packing of
/// the raw training graph onto consecutive live GPUs. `est_finish` is NaN —
/// arbitrated by probing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelParallelPlanner;

impl Planner for ModelParallelPlanner {
    fn name(&self) -> &'static str {
        "model_parallel"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::StartStrategy
    }

    fn uses_cost_models(&self) -> bool {
        false
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let raw = ctx.raw.ok_or(FastTError::InvalidArgument(
            "model-parallel planning needs the raw training graph in the context",
        ))?;
        if ctx.topo.gpu_count() == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        Ok(model_parallel_plan(raw, ctx.topo, ctx.hw))
    }
}
