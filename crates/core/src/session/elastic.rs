//! The capacity lifecycle: spot revocations and drains, quarantine-gated
//! re-admission, hot-adds, link restores — and the fleet manager's
//! explicit grant/preempt entry points. Lost capacity ends in
//! `replan(Lost(..))`, grown capacity in `replan(Grown)` (the promotion
//! ladder).

use super::replan::Trigger;
use super::{RecoveryEvent, TrainingSession};
use crate::error::FastTError;
use fastt_cluster::{DeviceHealth, DeviceId};
use fastt_sim::{FaultSchedule, LifecycleKind};
use fastt_telemetry::jobj;

/// Iterations a re-admitted device spends in quarantine before it rejoins
/// the plannable capacity. Re-admission is explicit: a device that dies
/// again mid-quarantine is dropped and a fresh arrival must restart the
/// ladder — flapping devices are never auto-readmitted.
const QUARANTINE_ITERS: u64 = 2;

impl TrainingSession {
    /// Applies every scripted lifecycle event that has come due — spot
    /// revocations (drained proactively when the notice window allows),
    /// device and host arrivals, link restores — then finishes any
    /// quarantines whose probation expired, then attempts a promotion when
    /// capacity grew. Called at the top of every iteration; a session
    /// without a fault schedule is untouched (bit-identical to pre-elastic
    /// builds).
    pub(super) fn process_lifecycle(&mut self) -> Result<(), FastTError> {
        let Some(faults) = self.config.faults.clone() else {
            return Ok(());
        };
        let iteration = self.iteration;
        let events = faults.lifecycle();
        if self.lifecycle_processed.len() < events.len() {
            self.lifecycle_processed.resize(events.len(), false);
        }
        let mut due: Vec<usize> = (0..events.len())
            .filter(|&i| !self.lifecycle_processed[i] && events[i].at_iter <= iteration)
            .collect();
        due.sort_by_key(|&i| (events[i].at_iter, i));
        for i in due {
            self.lifecycle_processed[i] = true;
            match events[i].kind {
                LifecycleKind::SpotRevocation { device, .. } => {
                    self.handle_revocation(device, events[i].deadline())?;
                }
                LifecycleKind::DeviceArrival { device }
                | LifecycleKind::DeviceRestore { device } => {
                    self.handle_arrival(device);
                }
                LifecycleKind::HostArrival { gpus } => {
                    self.handle_host_arrival(gpus);
                }
                LifecycleKind::LinkRestore { src, dst } => {
                    self.handle_link_restore(src, dst);
                }
            }
        }
        let mut ready: Vec<(u64, DeviceId)> = Vec::new();
        self.pending_restores.retain(|&(at, d)| {
            if at <= iteration {
                ready.push((at, d));
                false
            } else {
                true
            }
        });
        ready.sort();
        for (_, d) in ready {
            if self.finish_quarantine(d, &faults) {
                self.pending_promotion = true;
            }
        }
        if self.pending_promotion {
            self.replan(Trigger::Grown)?;
        }
        Ok(())
    }

    /// A spot-revocation notice: log it, and when the notice window leaves
    /// room, drain the device *now* — blacklist it and re-plan over the
    /// survivors so the deadline passes without a crash (and without a
    /// single retry for that device). Zero-notice revocations take the
    /// ordinary crash-recovery path instead.
    fn handle_revocation(&mut self, device: DeviceId, deadline: u64) -> Result<(), FastTError> {
        let iteration = self.iteration;
        self.recovery_log.push(RecoveryEvent::RevocationNotice {
            device,
            iteration,
            deadline,
        });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.revocation_notices");
        }
        self.emit(
            "session.revocation_notice",
            jobj! {
                "device" => device.0 as u64,
                "iteration" => iteration,
                "deadline" => deadline,
            },
        );
        if deadline <= iteration || self.alloc.topo().is_failed(device) {
            return Ok(());
        }
        self.alloc.topo_mut().fail_device(device);
        self.alloc.health_mut().mark_failed(device);
        self.recovery_log
            .push(RecoveryEvent::Drained { device, iteration });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.drains");
        }
        self.emit(
            "session.drained",
            jobj! {
                "device" => device.0 as u64,
                "iteration" => iteration,
                "deadline" => deadline,
            },
        );
        self.replan(Trigger::Lost("revocation_drain"))?;
        Ok(())
    }

    /// A device (re-)announced itself. Re-admission is explicit: the
    /// device enters quarantine (`Failed` → `Quarantined` in the
    /// [`fastt_cluster::HealthMap`]) and only rejoins the plannable
    /// capacity after [`QUARANTINE_ITERS`] iterations of probation. Arrivals
    /// for devices outside the session's allocation are ignored — under a
    /// fleet manager they belong to some other job.
    fn handle_arrival(&mut self, device: DeviceId) {
        let iteration = self.iteration;
        if device.index() >= self.alloc.topo().device_count()
            || !self.alloc.contains(device)
            || !self.alloc.topo().is_failed(device)
        {
            return; // unknown id, not ours, or already live: nothing to do
        }
        self.alloc.health_mut().readmit(device);
        self.recovery_log
            .push(RecoveryEvent::Readmitted { device, iteration });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.quarantines");
        }
        self.emit(
            "session.quarantine",
            jobj! {
                "device" => device.0 as u64,
                "iteration" => iteration,
                "until" => iteration + QUARANTINE_ITERS,
            },
        );
        self.pending_restores
            .push((iteration + QUARANTINE_ITERS, device));
    }

    /// Ends a device's quarantine. Unless it died again or its server is
    /// partitioned mid-probation (in which case the re-admission is
    /// dropped and a fresh arrival must restart the path), the device
    /// rejoins the topology on probation (`Degraded`); the ordinary
    /// health sweep promotes it to `Healthy` once measurements normalize.
    /// Returns whether capacity actually grew.
    fn finish_quarantine(&mut self, device: DeviceId, faults: &FaultSchedule) -> bool {
        let iteration = self.iteration;
        if !matches!(
            self.alloc.health().health(device),
            DeviceHealth::Quarantined
        ) || faults.crashed(device, iteration)
            || faults.is_partitioned(self.alloc.topo().server_of(device), iteration)
        {
            return false;
        }
        self.alloc.topo_mut().restore_device(device);
        self.alloc.health_mut().mark_degraded(device, 1.0);
        self.cost.bind_topology(self.alloc.topo());
        self.recovery_log
            .push(RecoveryEvent::Restored { device, iteration });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.scale_ups");
        }
        self.emit(
            "session.scaled_up",
            jobj! {
                "device" => device.0 as u64,
                "iteration" => iteration,
                "gpus" => self.alloc.topo().gpu_count() as u64,
            },
        );
        true
    }

    /// A whole new server hot-added: fresh GPUs and a host join under
    /// stable new ids, healthy from the start — they have no failure
    /// history to quarantine. The new GPUs become allocation members.
    fn handle_host_arrival(&mut self, gpus: u16) {
        let iteration = self.iteration;
        let new_ids = self.alloc.topo_mut().add_server(gpus);
        let grown = self.alloc.topo().device_count();
        self.alloc.health_mut().grow(grown);
        self.cost.bind_topology(self.alloc.topo());
        if let Some(col) = &self.collector {
            col.metrics().inc("session.scale_ups");
        }
        for d in new_ids {
            if !self.alloc.topo().is_host(d) {
                self.alloc.grant(d);
            }
            self.recovery_log.push(RecoveryEvent::Restored {
                device: d,
                iteration,
            });
            self.emit(
                "session.scaled_up",
                jobj! {
                    "device" => d.0 as u64,
                    "iteration" => iteration,
                    "gpus" => self.alloc.topo().gpu_count() as u64,
                },
            );
        }
        self.pending_promotion = true;
    }

    /// A physical link came back: clear both directions of the blacklist,
    /// re-admit the hop in the health map, and re-trust its cost prior so
    /// planners route over it again.
    fn handle_link_restore(&mut self, src: DeviceId, dst: DeviceId) {
        let iteration = self.iteration;
        for (a, b) in [(src, dst), (dst, src)] {
            self.alloc.topo_mut().restore_link(a, b);
            self.alloc.health_mut().readmit_link(a, b);
            self.cost.trust_link(a, b);
        }
        self.cost.bind_topology(self.alloc.topo());
        self.emit(
            "session.link_restored",
            jobj! {
                "src" => src.0 as u64,
                "dst" => dst.0 as u64,
                "iteration" => iteration,
            },
        );
        self.pending_promotion = true;
    }

    /// Fleet preemption: revokes `devices` from the session's allocation —
    /// each is drained exactly like a spot revocation with notice
    /// ([`RecoveryEvent::Drained`]) — then re-plans over the survivors
    /// through the degradation ladder, so the job keeps a valid (if
    /// slower) plan and never strands a device it no longer owns.
    ///
    /// Devices that are not members are skipped; when nothing was revoked
    /// the session is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FastTError::ClusterExhausted`] when the revocation leaves
    /// no plannable GPU (the fleet manager must not revoke a job below one
    /// GPU), or a planning error if no ladder rung fits the survivors.
    pub fn release_devices(&mut self, devices: &[DeviceId]) -> Result<(), FastTError> {
        let iteration = self.iteration;
        let mut changed = false;
        for &d in devices {
            if !self.alloc.contains(d) {
                continue;
            }
            self.alloc.revoke(d);
            self.recovery_log.push(RecoveryEvent::Drained {
                device: d,
                iteration,
            });
            if let Some(col) = &self.collector {
                col.metrics().inc("session.drains");
            }
            self.emit(
                "session.drained",
                jobj! {
                    "device" => d.0 as u64,
                    "iteration" => iteration,
                    "deadline" => iteration,
                },
            );
            changed = true;
        }
        if !changed {
            return Ok(());
        }
        self.replan(Trigger::Lost("preempted"))?;
        Ok(())
    }

    /// Fleet growth: grants `devices` to the session's allocation. This is
    /// an administrative reassignment, not a recovery — the devices are
    /// healthy, so they skip quarantine (the health map is walked through
    /// its ladder mechanically) — and the promotion attempt runs
    /// immediately, bypassing the spot-churn cooldown: an explicit grant
    /// is a deliberate scheduler decision, not churn.
    ///
    /// Devices already live in the allocation are skipped; when nothing
    /// was granted the session is untouched.
    ///
    /// # Errors
    ///
    /// Propagates planning failures from the promotion attempt (a held
    /// promotion is not an error — the incumbent plan stays active).
    pub fn grant_devices(&mut self, devices: &[DeviceId]) -> Result<(), FastTError> {
        let iteration = self.iteration;
        let mut changed = false;
        for &d in devices {
            if self.alloc.contains(d) && !self.alloc.topo().is_failed(d) {
                continue;
            }
            self.alloc.grant(d);
            // The health map only exits Failed through readmit; walk the
            // ladder to Healthy mechanically — reassignment, not recovery.
            if self.alloc.health().is_failed(d) {
                self.alloc.health_mut().readmit(d);
                self.alloc.health_mut().mark_degraded(d, 1.0);
                self.alloc.health_mut().mark_healthy(d);
            }
            self.recovery_log.push(RecoveryEvent::Restored {
                device: d,
                iteration,
            });
            if let Some(col) = &self.collector {
                col.metrics().inc("session.scale_ups");
            }
            self.emit(
                "session.scaled_up",
                jobj! {
                    "device" => d.0 as u64,
                    "iteration" => iteration,
                    "gpus" => self.alloc.topo().gpu_count() as u64,
                },
            );
            changed = true;
        }
        if !changed {
            return Ok(());
        }
        self.cost.bind_topology(self.alloc.topo());
        self.pending_promotion = true;
        self.last_promotion_attempt = None;
        self.replan(Trigger::Grown)?;
        Ok(())
    }
}
