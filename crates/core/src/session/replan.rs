//! The one re-plan path. Every plan change after construction goes
//! through [`TrainingSession::replan`]: a pre-training round, the ring-DP
//! incumbent step that closes pre-training, the normal-stage drift
//! re-plan, recovery from lost capacity, and promotion onto grown
//! capacity. The [`Trigger`] picks the candidate set and one of three
//! adoption rules:
//!
//! - `Round`, `Incumbent` and `Drift`: a gated measured trial with rollback
//!   (Sec. 4's "activate when the estimate beats the measured time, roll
//!   back when measurement disagrees"). A candidate with no estimate — the
//!   ring all-reduce DP plan `Incumbent` races — is gated on its probe;
//! - `Lost`: the lowest raw probe over the survivors, adopted
//!   unconditionally (the degradation ladder);
//! - `Grown`: the lowest per-replica probe, adopted only when it beats the
//!   incumbent by [`PROMOTE_MARGIN`] (the promotion ladder).

use super::{probe_data_parallel, LadderRung, RecoveryEvent, TrainingSession};
use crate::dpos::schedule_for_placement;
use crate::error::FastTError;
use crate::planner::{
    lowest_score, CandidateOutcome, DataParallelPlanner, HierarchicalPlanner, ModelParallelPlanner,
    OrderOnlyPlanner, OsDposPlanner, PlannerKind, Portfolio,
};
use crate::strategy::Plan;
use fastt_graph::ReplicationMode;
use fastt_sim::{SimConfig, SimError};
use fastt_telemetry::{jobj, Value};
use std::time::Instant;

/// Minimum iterations between promotion attempts after capacity growth
/// (hysteresis: keeps spot churn from thrashing plans).
const PROMOTE_COOLDOWN_ITERS: u64 = 3;

/// Relative per-replica improvement a growth candidate must show over the
/// incumbent before it is promoted (hysteresis margin).
const PROMOTE_MARGIN: f64 = 0.02;

/// Why the session re-plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Trigger {
    /// Pre-training round `n` (1-based).
    Round(u32),
    /// Pre-training's last rounds are done: race the ring all-reduce DP
    /// plan, the strongest data-parallel baseline, against the incumbent.
    Incumbent,
    /// Normal training saw the cost models drift.
    Drift,
    /// Capacity was lost. The reason labels telemetry: `device_failed`,
    /// `link_failed`, `partition`, `unreachable`, `revocation_drain`,
    /// `preempted` or `mem_pressure`.
    Lost(&'static str),
    /// Capacity grew.
    Grown,
}

/// What one [`TrainingSession::replan`] call did.
#[derive(Debug, Default)]
pub(super) struct ReplanOutcome {
    /// Whether a new plan was adopted (and, for a trial, survived
    /// measurement).
    pub adopted: bool,
    /// Trial candidates rolled back after measurement.
    pub rollbacks: u32,
    /// Wall-clock seconds spent computing the trial's candidates.
    pub calc_secs: f64,
}

/// How many data-parallel replicas a plan's graph encodes. DP graphs name
/// replica ops `repN/...`, so per-iteration work scales with the replica
/// count and raw makespans are only comparable *per replica*;
/// non-replicated plans count as one.
fn replicas_of(plan: &Plan) -> usize {
    plan.graph
        .op_ids()
        .filter_map(|id| {
            let name = &plan.graph.op_ref(id).name;
            let rest = name.strip_prefix("rep")?;
            rest[..rest.find('/')?].parse::<usize>().ok()
        })
        .max()
        .map(|n| n + 1)
        .unwrap_or(1)
}

/// `makespan` per data-parallel replica of `plan`: promotion's ranking key.
fn per_replica(makespan: f64, plan: &Plan) -> f64 {
    makespan / replicas_of(plan) as f64
}

/// Whether a profiling error is specific to the plan being measured (so a
/// rollback to the previous plan can recover) rather than a cluster-wide
/// dead end that must propagate.
fn recoverable(e: &FastTError) -> bool {
    matches!(e, FastTError::Sim(_))
}

/// `fields` prefixed with a trial's round (pre-training only), candidate
/// kind and stage.
fn trial_fields(round: Option<u32>, kind: &str, stage: &str, fields: Value) -> Value {
    let mut pairs: Vec<(String, Value)> = round
        .map(|n| ("round".to_string(), Value::from(n as u64)))
        .into_iter()
        .collect();
    pairs.push(("kind".to_string(), kind.into()));
    pairs.push(("stage".to_string(), stage.into()));
    if let Value::Obj(rest) = fields {
        pairs.extend(rest);
    }
    Value::Obj(pairs)
}

impl TrainingSession {
    /// Re-plans on `trigger` and adopts a plan by the trigger's rule (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// `Lost` returns [`FastTError::ClusterExhausted`] when no GPU is left
    /// or nothing routable can be planned, and any other planning error of
    /// the ladder. A trial propagates profiling errors that a rollback
    /// cannot recover.
    pub(super) fn replan(&mut self, trigger: Trigger) -> Result<ReplanOutcome, FastTError> {
        match trigger {
            Trigger::Round(_) | Trigger::Drift => self.measured_trial(trigger),
            Trigger::Incumbent => self.incumbent_trial(),
            Trigger::Lost(reason) => self.recover(reason),
            Trigger::Grown => self.promote(),
        }
    }

    /// The degradation ladder: the lowest raw probe over the survivors,
    /// adopted unconditionally.
    fn recover(&mut self, reason: &'static str) -> Result<ReplanOutcome, FastTError> {
        let iteration = self.iteration;
        // Routes change when capacity is lost: rebind so route-composed
        // predictions stop staging through the dead devices and links.
        self.cost.bind_topology(self.alloc.topo());
        let survivors = self.alloc.topo().gpu_count();
        if survivors == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        self.emit(
            "session.replan",
            jobj! {
                "iteration" => iteration,
                "reason" => reason,
                "survivors" => survivors as u64,
                "failed" => Value::arr(
                    self.alloc
                        .topo()
                        .failed_devices()
                        .iter()
                        .map(|d| d.0 as u64)
                        .collect::<Vec<_>>()
                ),
            },
        );
        if let Some(col) = &self.collector {
            col.metrics().inc("session.replans");
        }
        let (rung, plan, raw) = self.probed_ladder(|m, _| m).map_err(|last_err| {
            // A plan that cannot be routed at all is not a planning failure
            // to retry: the cluster is out of usable wiring.
            match last_err {
                Some(FastTError::Sim(SimError::Unreachable { .. })) | None => {
                    FastTError::ClusterExhausted
                }
                Some(e) => e,
            }
        })?;
        let kind = rung.kind();
        if rung != LadderRung::Replanned {
            // The ladder stepped below a fresh DPOS/OS-DPOS plan: the
            // session is in a degraded operating mode (shrunk ring, PS
            // funnel, or model-parallel fallback).
            if let Some(col) = &self.collector {
                col.metrics().inc("session.fallbacks");
                col.metrics().inc("session.degraded_mode");
            }
            self.emit(
                "session.fallback",
                jobj! {
                    "iteration" => iteration,
                    "kind" => kind,
                    "reason" => reason,
                    "measured" => raw,
                },
            );
            self.emit(
                "session.degraded_mode",
                jobj! {
                    "iteration" => iteration,
                    "mode" => kind,
                    "reason" => reason,
                    "survivors" => survivors as u64,
                },
            );
            self.recovery_log.push(RecoveryEvent::Fallback { kind });
        }
        self.recovery_log
            .push(RecoveryEvent::Replanned { survivors, kind });
        self.adopt(rung, plan, raw);
        if let Some(col) = &self.collector {
            col.metrics().inc("session.recoveries");
        }
        self.emit(
            "session.recovered",
            jobj! {
                "iteration" => iteration,
                "kind" => kind,
                "survivors" => survivors as u64,
                "measured" => raw,
            },
        );
        self.recovery_log
            .push(RecoveryEvent::Recovered { iteration });
        Ok(ReplanOutcome {
            adopted: true,
            ..ReplanOutcome::default()
        })
    }

    /// The promotion ladder: after the [`PROMOTE_COOLDOWN_ITERS`] cooldown,
    /// the lowest per-replica probe over the grown cluster, adopted only
    /// when it beats the incumbent by [`PROMOTE_MARGIN`]. Scores are per
    /// replica because the session replicates the training graph once per
    /// live GPU, so a plan over more GPUs does proportionally more work per
    /// iteration.
    fn promote(&mut self) -> Result<ReplanOutcome, FastTError> {
        let iteration = self.iteration;
        if let Some(last) = self.last_promotion_attempt {
            if iteration < last + PROMOTE_COOLDOWN_ITERS {
                // still cooling down; the attempt stays pending
                return Ok(ReplanOutcome::default());
            }
        }
        self.pending_promotion = false;
        self.last_promotion_attempt = Some(iteration);
        let incumbent = self
            .current
            .simulate(self.alloc.topo(), &self.hw, &self.probe_config())
            .map_or(f64::INFINITY, |t| per_replica(t.makespan, &self.current));
        let survivors = self.alloc.topo().gpu_count();
        let pick = self
            .probed_ladder(per_replica)
            .ok()
            .map(|(rung, plan, raw)| (per_replica(raw, &plan), rung, plan, raw));
        let (candidate, rung, plan, raw) = match pick {
            Some(p) if p.0 < incumbent * (1.0 - PROMOTE_MARGIN) => p,
            // Promotion is opportunistic: a planning dead end or a
            // too-small gain holds the incumbent.
            _ => {
                if let Some(col) = &self.collector {
                    col.metrics().inc("session.promotions_held");
                }
                self.emit(
                    "session.promotion_held",
                    jobj! {
                        "iteration" => iteration,
                        "survivors" => survivors as u64,
                        "incumbent" => incumbent,
                        "candidate" => pick.map_or(f64::INFINITY, |p| p.0),
                        "margin" => PROMOTE_MARGIN,
                    },
                );
                return Ok(ReplanOutcome::default());
            }
        };
        let kind = rung.kind();
        self.adopt(rung, plan, raw);
        self.recovery_log.push(RecoveryEvent::Promoted {
            survivors,
            kind,
            iteration,
        });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.promotions");
        }
        self.emit(
            "session.promoted",
            jobj! {
                "iteration" => iteration,
                "kind" => kind,
                "rung" => rung.label(),
                "survivors" => survivors as u64,
                "incumbent" => incumbent,
                "candidate" => candidate,
            },
        );
        Ok(ReplanOutcome {
            adopted: true,
            ..ReplanOutcome::default()
        })
    }

    /// Probes the survivor ladder and picks its lowest-`score` candidate
    /// (`score` maps a probed makespan and its plan to the ranking key):
    /// the winner's rung, plan and raw probed makespan. When nothing
    /// probes, returns the last non-DP planning error instead.
    fn probed_ladder(
        &mut self,
        score: fn(f64, &Plan) -> f64,
    ) -> Result<(LadderRung, Plan, f64), Option<FastTError>> {
        let probe = self.probe_config();
        let (mut ladder, last_err) = self.plan_candidates_over_survivors(probe);
        let scores = ladder
            .iter()
            .map(|(_, c)| Some(score(c.simulated?, c.plan.as_ref()?)));
        let Some(i) = lowest_score(scores) else {
            return Err(last_err);
        };
        let (rung, c) = &mut ladder[i];
        let raw = c.simulated.expect("probed time");
        Ok((*rung, c.plan.take().expect("probed plan"), raw))
    }

    /// The adopt tail every probed ladder shares.
    fn adopt(&mut self, rung: LadderRung, plan: Plan, measured: f64) {
        self.rung = rung;
        self.current = plan;
        self.measured = measured;
    }

    /// The estimate-gated measured trial. A pre-training round plans the
    /// full OS-DPOS redeployment, the hierarchical planner and the
    /// low-risk order-only candidate (the paper's ordering lever, Fig. 2)
    /// concurrently as one portfolio; a drift re-plan plans OS-DPOS alone.
    /// Candidates are tried best estimate first. One is activated only when
    /// its estimate beats the current measured time (Sec. 4, "Strategy
    /// Calculator"), and it is rolled back when the measured time regresses
    /// or the plan fails outright. Only pre-training first probes an
    /// enforced order against FIFO ([`Self::arbitrate_order`]).
    fn measured_trial(&mut self, trigger: Trigger) -> Result<ReplanOutcome, FastTError> {
        let (round, stage) = match trigger {
            Trigger::Round(n) => (Some(n), "pre_train"),
            _ => (None, "normal"),
        };
        let t0 = Instant::now();
        let mut portfolio = Portfolio::new().with(Box::new(OsDposPlanner::default()));
        if round.is_some() {
            // The hierarchical planner races the flat calculator every
            // round: on deep stacked models its quotient-graph pass is far
            // cheaper, and the trial keeps whichever estimate wins honest
            // against measurement.
            portfolio.push(Box::new(HierarchicalPlanner));
            if self.config.enable_order {
                portfolio.push(Box::new(OrderOnlyPlanner));
            }
        }
        let mut outcome = self.run_portfolio(&portfolio, None);
        self.adopt_candidate_cost(&mut outcome);
        let mut candidates: Vec<(Plan, &'static str)> = outcome
            .candidates
            .iter_mut()
            .filter_map(|c| {
                let kind = match c.kind {
                    PlannerKind::OrderOnly => "order",
                    _ => "redeploy",
                };
                c.plan.take().map(|p| (p, kind))
            })
            .collect();
        candidates.sort_by(|a, b| a.0.est_finish.total_cmp(&b.0.est_finish));
        let mut out = ReplanOutcome {
            calc_secs: t0.elapsed().as_secs_f64(),
            ..ReplanOutcome::default()
        };
        for (candidate, kind) in &candidates {
            self.emit(
                "session.candidate",
                trial_fields(
                    round,
                    kind,
                    stage,
                    jobj! {
                        "est_finish" => candidate.est_finish,
                        "measured" => self.measured,
                        "splits" => candidate.splits.len() as u64,
                    },
                ),
            );
        }

        for (mut candidate, kind) in candidates {
            if candidate.est_finish >= self.measured {
                continue;
            }
            if round.is_some() {
                self.arbitrate_order(&mut candidate);
                if kind == "order" && candidate.order.is_none() {
                    // the order was the candidate's whole content
                    continue;
                }
            }
            let est = candidate.est_finish;
            if self.trial(candidate, ("est", est), kind, round, stage, &mut out)? {
                break;
            }
        }
        Ok(out)
    }

    /// The ring-DP incumbent step that closes pre-training. The DPOS
    /// estimates the rounds rank by are optimistic, so a session can end
    /// slower than plain ring all-reduce data parallelism, a plan no round
    /// proposes. This step plans ring DP through the plan cache and probes
    /// it FIFO. Only when that probe beats the measured time is the
    /// plan given its DPOS execution order, kept only if it probes faster
    /// ([`Self::arbitrate_order`]), and trialled like any round candidate.
    /// Start strategies do not estimate (`est_finish` is NaN), so the
    /// FIFO probe is the candidate's score.
    fn incumbent_trial(&mut self) -> Result<ReplanOutcome, FastTError> {
        let (kind, stage) = ("ring_dp", "pre_train");
        let ring = Portfolio::new().with(Box::new(DataParallelPlanner::all_reduce()));
        let mut c = self
            .run_portfolio(&ring, Some(self.probe_config()))
            .candidates
            .remove(0);
        let mut out = ReplanOutcome::default();
        let (Some(probe), Some(mut plan)) = (c.simulated, c.plan.take()) else {
            return Ok(out);
        };
        self.emit(
            "session.candidate",
            trial_fields(
                None,
                kind,
                stage,
                jobj! {
                    "probe" => probe,
                    "measured" => self.measured,
                    "splits" => 0u64,
                },
            ),
        );
        if probe >= self.measured {
            return Ok(out);
        }
        if self.config.enable_order {
            let t0 = Instant::now();
            let s = schedule_for_placement(
                &plan.graph,
                self.alloc.topo(),
                &self.cost,
                &self.hw,
                &plan.placement,
            );
            out.calc_secs = t0.elapsed().as_secs_f64();
            plan.order = Some(s.order);
            self.arbitrate_order(&mut plan);
        }
        self.trial(plan, ("probe", probe), kind, None, stage, &mut out)?;
        Ok(out)
    }

    /// Deploys `candidate` and profiles it: it is kept when the measured
    /// time does not regress, and rolled back when it does or the plan
    /// fails outright. `score` names what the candidate was gated on
    /// (`est` or `probe`) and its value, as the trial events report it.
    /// Returns whether the candidate was kept.
    fn trial(
        &mut self,
        candidate: Plan,
        score: (&'static str, f64),
        kind: &'static str,
        round: Option<u32>,
        stage: &str,
        out: &mut ReplanOutcome,
    ) -> Result<bool, FastTError> {
        let (by, value) = score;
        let previous = std::mem::replace(&mut self.current, candidate);
        let before = self.measured;
        let after = match self.profile(self.config.profile_iters) {
            Err(e) if !recoverable(&e) => return Err(e),
            r => r.ok(),
        };
        let fields = trial_fields(
            round,
            kind,
            stage,
            match after {
                Some(m) => jobj! {
                    by => value,
                    "measured_before" => before,
                    "measured_after" => m,
                    format!("{by}_error") => (m - value) / value.max(f64::MIN_POSITIVE),
                },
                None => jobj! {
                    by => value,
                    "measured_before" => before,
                    "failed" => true,
                },
            },
        );
        match after {
            Some(m) if m <= before => {
                self.measured = m;
                match kind {
                    "redeploy" => self.rung = LadderRung::Replanned,
                    "ring_dp" => self.rung = LadderRung::RingDp,
                    _ => {}
                }
                if let Some(col) = &self.collector {
                    col.metrics().inc("session.activations");
                }
                self.emit("session.activation", fields);
                out.adopted = true;
                Ok(true)
            }
            _ => {
                // measured regression, or the plan failed outright
                // (e.g. OOM): roll back
                self.roll_back_to(previous);
                out.rollbacks += 1;
                if let Some(col) = &self.collector {
                    col.metrics().inc("session.rollbacks");
                }
                self.emit("session.rollback", fields);
                Ok(false)
            }
        }
    }

    /// Order enforcement is a lever, not a mandate (Fig. 2): before
    /// measuring an order-bearing candidate, probe its enforced order
    /// against plain FIFO execution of the same placement and strip the
    /// order when it does not help. The priority list is derived from
    /// partially-profiled estimates, so a misordered list can serialize
    /// transfers the unordered executor would overlap — and rollback alone
    /// cannot catch that: the activation baseline is the *previous* plan's
    /// measured time, not the same placement without the order.
    fn arbitrate_order(&self, plan: &mut Plan) {
        if plan.order.is_none() {
            return;
        }
        let probe = self.probe_config();
        let ordered = match plan.simulate(self.alloc.topo(), &self.hw, &probe) {
            Ok(t) => t.makespan,
            Err(_) => return, // infeasibility is the trial's call
        };
        let order = plan.order.take();
        match plan.simulate(self.alloc.topo(), &self.hw, &probe) {
            Ok(t) if t.makespan < ordered => {
                if let Some(col) = &self.collector {
                    col.metrics().inc("session.orders_dropped");
                }
                self.emit(
                    "session.order_dropped",
                    jobj! {
                        "ordered" => ordered,
                        "fifo" => t.makespan,
                    },
                );
            }
            _ => plan.order = order,
        }
    }

    /// Restores `previous` as the active plan after a measured regression —
    /// unless a device failed while the candidate was being measured, in
    /// which case `previous` may reference blacklisted devices and the
    /// recovery plan installed by `replan(Lost(..))` stays active.
    fn roll_back_to(&mut self, previous: Plan) {
        let stale = previous
            .placement
            .devices_used()
            .iter()
            .any(|d| self.alloc.topo().is_failed(*d));
        if !stale {
            self.current = previous;
        }
    }

    /// Plans the full candidate ladder over the current survivor set.
    /// Stage 1 probes both data-parallel modes — the ring all-reduce over
    /// whoever is live and the PS funnel — whose feasibility picks the
    /// base graph exactly as session construction does (Sec. 5.2's rule).
    /// Stage 2 adds the fresh OS-DPOS candidate; the hierarchical planner
    /// when the survivors span servers or DP no longer fits; and model
    /// parallelism as the last resort when DP no longer fits. Returns the
    /// candidates in ladder-preference order (re-plan, ring, PS,
    /// hierarchical, MP), each with the rung it lands on, along with the
    /// last non-DP planning error.
    ///
    /// On a single-server slice where DP fits the hierarchical planner has
    /// not beaten OS-DPOS or a DP mode, so its planning pass is skipped
    /// there (DESIGN.md §3.7).
    fn plan_candidates_over_survivors(
        &mut self,
        probe: SimConfig,
    ) -> (Vec<(LadderRung, CandidateOutcome)>, Option<FastTError>) {
        let dp = probe_data_parallel(
            &self.portfolio_inputs(Some(probe.clone())),
            &self.cache,
            &[ReplicationMode::AllReduce, ReplicationMode::ParameterServer],
        );
        let feasible = dp.iter().find(|(_, c)| c.simulated.is_some());
        let dp_ok = feasible.is_some();
        self.base_graph = feasible
            .and_then(|(_, c)| c.plan.as_ref())
            .map(|p| p.graph.clone())
            .unwrap_or_else(|| self.training_graph.clone());

        let topo = self.alloc.topo();
        let first = topo.gpu_ids().next().map(|d| topo.server_of(d));
        let spans_servers = topo.gpu_ids().any(|d| Some(topo.server_of(d)) != first);
        // The hierarchical planner can win across servers, where it places
        // regions on servers and refines each within its server, and it may
        // fit a model neither DP nor MP fits (the OOM start fallback).
        let hierarchical = spans_servers || !dp_ok;
        let mut portfolio = Portfolio::new().with(Box::new(OsDposPlanner::default()));
        if hierarchical {
            portfolio.push(Box::new(HierarchicalPlanner));
        }
        if !dp_ok {
            portfolio.push(Box::new(ModelParallelPlanner));
        }
        let mut outcome = self.run_portfolio(&portfolio, Some(probe));
        self.adopt_candidate_cost(&mut outcome);
        let mut rest = outcome.candidates.into_iter();
        let mut ladder = vec![(LadderRung::Replanned, rest.next().expect("main candidate"))];
        ladder.extend(dp);
        if hierarchical {
            let hier = rest.next().expect("hierarchical candidate");
            ladder.push((LadderRung::Replanned, hier));
        }
        ladder.extend(rest.map(|c| (LadderRung::Mp, c)));

        let mut last_err: Option<FastTError> = None;
        for (rung, c) in ladder.iter_mut() {
            // dp probe failures are expected (that is what mp is for), so
            // only the other rungs' errors are reported
            if !matches!(rung, LadderRung::RingDp | LadderRung::PsDp) {
                if let Some(e) = c.error.take() {
                    last_err = Some(e);
                }
            }
        }
        (ladder, last_err)
    }
}
