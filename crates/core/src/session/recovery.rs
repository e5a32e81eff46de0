//! The failure handlers: blacklisting devices, links and partitioned
//! servers, and dropping stranded capacity, all scoped to the session's
//! allocation view. Each ends in `replan(Lost(reason))`, which walks the
//! degradation ladder (re-plan → ring all-reduce → PS funnel → model
//! parallelism).

use super::replan::Trigger;
use super::{RecoveryEvent, TrainingSession};
use crate::error::FastTError;
use fastt_cluster::DeviceId;
use fastt_telemetry::{jobj, Value};

impl TrainingSession {
    /// Marks `device` failed in the topology view and the health map, and
    /// logs it.
    fn blacklist(&mut self, device: DeviceId, iteration: u64) {
        self.alloc.topo_mut().fail_device(device);
        self.alloc.health_mut().mark_failed(device);
        self.recovery_log
            .push(RecoveryEvent::DeviceFailed { device, iteration });
    }

    /// Blacklists `device`, then rebuilds the plan over the surviving
    /// topology.
    pub(super) fn recover_from_failure(
        &mut self,
        device: DeviceId,
        iteration: u64,
    ) -> Result<(), FastTError> {
        self.blacklist(device, iteration);
        if let Some(col) = &self.collector {
            col.metrics().inc("session.device_failures");
        }
        self.replan(Trigger::Lost("device_failed"))?;
        Ok(())
    }

    /// Re-planning for link death: a hop that flapped past the simulator's
    /// retry budget is blacklisted in both directions (the session treats a
    /// persistent flap exactly like a crashed device), GPUs the surviving
    /// wiring can no longer reach are dropped, and the plan is rebuilt —
    /// [`fastt_cluster::Topology::try_route`] steers the new plan's
    /// transfers around the corpse.
    pub(super) fn recover_from_link_failure(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        iteration: u64,
    ) -> Result<(), FastTError> {
        self.alloc.topo_mut().fail_link(src, dst);
        self.alloc.topo_mut().fail_link(dst, src);
        self.alloc.health_mut().mark_link_failed(src, dst);
        self.alloc.health_mut().mark_link_failed(dst, src);
        self.recovery_log.push(RecoveryEvent::LinkFailed {
            src,
            dst,
            iteration,
        });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.link_failures");
        }
        self.emit(
            "health.link_failed",
            jobj! {
                "src" => src.0 as u64,
                "dst" => dst.0 as u64,
                "iteration" => iteration,
            },
        );
        self.drop_stranded_gpus(iteration);
        self.replan(Trigger::Lost("link_failed"))?;
        Ok(())
    }

    /// Re-planning for a host partition: from the survivors' point of view
    /// a partitioned server is indistinguishable from a crashed rack, so
    /// every device it hosts is blacklisted and the plan is rebuilt over
    /// the remaining servers.
    pub(super) fn recover_from_partition(
        &mut self,
        server: u16,
        iteration: u64,
    ) -> Result<(), FastTError> {
        self.recovery_log
            .push(RecoveryEvent::Partitioned { server, iteration });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.partitions");
        }
        self.emit(
            "session.partition",
            jobj! {
                "server" => server as u64,
                "iteration" => iteration,
            },
        );
        let victims: Vec<DeviceId> = self
            .alloc
            .topo()
            .device_ids()
            .filter(|&d| {
                self.alloc.topo().server_of(d) == server && !self.alloc.topo().is_failed(d)
            })
            .collect();
        for d in victims {
            self.blacklist(d, iteration);
        }
        self.replan(Trigger::Lost("partition"))?;
        Ok(())
    }

    /// Re-planning when no live route exists between two placed devices:
    /// drops whatever the surviving wiring stranded (keeping the largest
    /// mutually-reachable GPU component) and re-plans; surfaces
    /// [`FastTError::ClusterExhausted`] when nothing plannable remains.
    pub(super) fn recover_from_unreachable(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
    ) -> Result<(), FastTError> {
        let iteration = self.iteration;
        self.emit(
            "session.unreachable",
            jobj! {
                "src" => src.0 as u64,
                "dst" => dst.0 as u64,
                "iteration" => iteration,
            },
        );
        let dropped = self.drop_stranded_gpus(iteration);
        if dropped.is_empty() {
            // The unroutable endpoint is not a stranded GPU (e.g. a host
            // the plan still stages variables through): blacklist the
            // destination so the next plan routes around it.
            let victim = if self.alloc.topo().is_failed(dst) {
                src
            } else {
                dst
            };
            if self.alloc.topo().is_failed(victim) {
                return Err(FastTError::ClusterExhausted);
            }
            self.blacklist(victim, iteration);
        }
        self.replan(Trigger::Lost("unreachable"))?;
        Ok(())
    }

    /// Blacklists every live GPU outside the largest mutually-reachable
    /// component (ties go to the component holding the lowest device id) —
    /// after link failures or partitions, stranded GPUs cannot participate
    /// in any plan. Returns the devices dropped, in id order.
    pub(super) fn drop_stranded_gpus(&mut self, iteration: u64) -> Vec<DeviceId> {
        let gpus: Vec<DeviceId> = self.alloc.topo().gpu_ids().collect();
        let n = gpus.len();
        let mut comp = vec![usize::MAX; n];
        let mut comps = 0usize;
        for i in 0..n {
            if comp[i] != usize::MAX {
                continue;
            }
            comp[i] = comps;
            let mut stack = vec![i];
            while let Some(u) = stack.pop() {
                for v in 0..n {
                    if comp[v] == usize::MAX
                        && self.alloc.topo().try_route(gpus[u], gpus[v]).is_some()
                        && self.alloc.topo().try_route(gpus[v], gpus[u]).is_some()
                    {
                        comp[v] = comps;
                        stack.push(v);
                    }
                }
            }
            comps += 1;
        }
        if comps <= 1 {
            return Vec::new();
        }
        let mut sizes = vec![0usize; comps];
        for &c in &comp {
            sizes[c] += 1;
        }
        // Largest component wins; ties go to the earliest component, which
        // holds the lowest GPU id since `gpus` is id-ordered.
        let keep = (0..comps)
            .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
            .unwrap_or(0);
        let mut dropped = Vec::new();
        for (i, d) in gpus.iter().enumerate() {
            if comp[i] != keep {
                self.blacklist(*d, iteration);
                dropped.push(*d);
            }
        }
        if !dropped.is_empty() {
            self.emit(
                "session.stranded",
                jobj! {
                    "iteration" => iteration,
                    "dropped" => Value::arr(
                        dropped.iter().map(|d| d.0 as u64).collect::<Vec<_>>()
                    ),
                },
            );
        }
        dropped
    }
}
