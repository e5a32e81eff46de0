//! Execution traces: the simulator's analogue of TensorFlow's
//! `RunMetadata` (Sec. 4 of the paper) — per-op execution records and
//! per-tensor transfer records, consumed by the adaptive cost models.

use fastt_cluster::{DeviceId, Topology};
use fastt_graph::OpId;
use fastt_telemetry::jobj;
use fastt_telemetry::json::Value;

/// One op execution: where and when it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// The executed op.
    pub op: OpId,
    /// Device it ran on.
    pub device: DeviceId,
    /// Time the op became runnable (entered its device's ready queue);
    /// `-1.0` if it never did.
    pub ready: f64,
    /// Start time (seconds from iteration start).
    pub start: f64,
    /// End time.
    pub end: f64,
}

impl OpRecord {
    /// Execution duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Seconds spent runnable-but-not-running, waiting behind other work on
    /// the same device (0 when the op never ran).
    pub fn queue_wait(&self) -> f64 {
        if self.start < 0.0 || self.ready < 0.0 {
            0.0
        } else {
            (self.start - self.ready).max(0.0)
        }
    }
}

/// One inter-device tensor transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRecord {
    /// Producer op.
    pub src_op: OpId,
    /// Consumer op.
    pub dst_op: OpId,
    /// Source device.
    pub src_dev: DeviceId,
    /// Destination device.
    pub dst_dev: DeviceId,
    /// Bytes moved.
    pub bytes: u64,
    /// Time the transfer started (after queueing on its channel).
    pub start: f64,
    /// Time the data arrived.
    pub end: f64,
}

impl TransferRecord {
    /// Transfer duration (including channel latency, excluding queueing).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One executed collective (a [`fastt_graph::CollectiveKind`]-annotated
/// node's aggregation), spanning all its ring phases.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveRecord {
    /// The collective-annotated node.
    pub node: OpId,
    /// The pattern that ran.
    pub kind: fastt_graph::CollectiveKind,
    /// Participating devices, in ring order.
    pub participants: Vec<DeviceId>,
    /// Full tensor bytes reduced/moved.
    pub bytes: u64,
    /// Time the last producer finished (collective became eligible).
    pub start: f64,
    /// Time the final ring phase's slowest hop completed.
    pub end: f64,
}

impl CollectiveRecord {
    /// Wall-clock duration of the collective.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One sample of a device's resident memory over time (recorded only when
/// `SimConfig::record_mem_timeline` is set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSample {
    /// Sample time (seconds from iteration start).
    pub t: f64,
    /// Sampled device.
    pub device: DeviceId,
    /// Resident bytes at `t`.
    pub bytes: u64,
}

/// The result of simulating one training iteration.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Per-op execution records, indexed by `OpId`.
    pub op_records: Vec<OpRecord>,
    /// All inter-device transfers, in completion order. Multi-hop routes and
    /// ring collectives contribute one record per *physical hop*, so every
    /// record is an observation of a single link — exactly what the
    /// per-link-class communication cost model wants to learn from.
    pub transfers: Vec<TransferRecord>,
    /// Collectives executed this iteration (empty for graphs without
    /// collective-annotated nodes).
    pub collectives: Vec<CollectiveRecord>,
    /// End-to-end iteration time, including the fixed framework overhead.
    pub makespan: f64,
    /// Per-device busy (compute) seconds.
    pub device_busy: Vec<f64>,
    /// Per-device peak memory (bytes).
    pub peak_mem: Vec<u64>,
    /// Total seconds transfers spent queued behind a busy channel.
    pub contention: f64,
    /// Event-loop steps the simulator processed.
    pub steps: u64,
    /// Per-device memory-over-time samples; empty unless the run asked for
    /// them (`SimConfig::record_mem_timeline`).
    pub mem_timeline: Vec<MemSample>,
    /// Op executions repeated because of injected transient faults
    /// (`FaultKind::TransientOp`); always `0` without a fault schedule.
    pub reexecutions: u64,
    /// Transfer hop attempts repeated because of injected link flaps
    /// (`FaultKind::LinkFlap`); always `0` without a fault schedule.
    pub comm_retries: u64,
}

impl RunTrace {
    /// The record for a specific op.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    pub fn op_record(&self, op: OpId) -> &OpRecord {
        &self.op_records[op.index()]
    }

    /// Sum of all op execution durations (the paper's Fig. 5
    /// "computation time").
    pub fn total_compute_time(&self) -> f64 {
        self.op_records.iter().map(|r| r.duration()).sum()
    }

    /// Sum of all transfer durations (the paper's Fig. 5 "memcpy time").
    pub fn total_memcpy_time(&self) -> f64 {
        self.transfers.iter().map(|t| t.duration()).sum()
    }

    /// Training speed for a given batch size, in samples per second —
    /// the paper's headline metric (Sec. 6.2). A degenerate zero-length
    /// iteration (e.g. an empty graph with no overhead configured) reports
    /// `0.0` rather than infinity.
    pub fn samples_per_sec(&self, batch: u64) -> f64 {
        if self.makespan > 0.0 {
            batch as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Largest peak memory across devices.
    pub fn max_peak_mem(&self) -> u64 {
        self.peak_mem.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of the makespan each device spent computing.
    pub fn utilization(&self) -> Vec<f64> {
        self.device_busy
            .iter()
            .map(|b| {
                if self.makespan > 0.0 {
                    b / self.makespan
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Per-device totals of time ops spent ready-but-queued.
    pub fn device_queue_wait(&self) -> Vec<f64> {
        let n = self.device_busy.len();
        let mut w = vec![0.0; n];
        for r in &self.op_records {
            if r.device.index() < n {
                w[r.device.index()] += r.queue_wait();
            }
        }
        w
    }

    /// The `n` ops that waited longest in a ready queue, worst first.
    pub fn top_queue_waits(&self, n: usize) -> Vec<(OpId, f64)> {
        let mut waits: Vec<(OpId, f64)> = self
            .op_records
            .iter()
            .map(|r| (r.op, r.queue_wait()))
            .filter(|(_, w)| *w > 0.0)
            .collect();
        waits.sort_by(|a, b| b.1.total_cmp(&a.1));
        waits.truncate(n);
        waits
    }

    /// Renders the trace in Chrome's trace-event JSON format (open in
    /// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)): one row
    /// per device of `topo` for op execution, one row per physical channel
    /// ([`Topology::channel`]: NVLink pair, host egress or ingress, NIC
    /// pair) for transfers, Perfetto metadata naming every row, and
    /// per-device memory counter tracks when the trace carries a memory
    /// timeline.
    ///
    /// `names` supplies the op labels (pass the graph's op names, indexed by
    /// `OpId`); missing entries fall back to the op id.
    ///
    /// # Panics
    ///
    /// Panics if a record names a device outside `topo`.
    pub fn to_chrome_trace_full(&self, names: &[String], topo: &Topology) -> String {
        let mut events: Vec<Value> = Vec::new();
        let name_of = |op: OpId| -> String {
            names
                .get(op.index())
                .cloned()
                .unwrap_or_else(|| op.to_string())
        };
        events.push(meta_event("process_name", 0, None, "compute"));
        events.push(meta_event("process_name", 1, None, "transfers"));
        events.push(meta_event("process_name", 2, None, "memory"));
        for d in 0..topo.device_count() {
            let label = &topo.device(DeviceId(d as u16)).name;
            events.push(meta_event("thread_name", 0, Some(d as u64), label));
        }
        for r in &self.op_records {
            if r.start < 0.0 {
                continue;
            }
            events.push(jobj! {
                "name" => name_of(r.op).as_str(),
                "cat" => "op",
                "ph" => "X",
                "ts" => r.start * 1e6,
                "dur" => r.duration() * 1e6,
                "pid" => 0u64,
                "tid" => r.device.0 as u64,
            });
        }
        // A transfer's row is its channel index; each used channel is
        // named once, from the first hop that occupies it.
        let mut named = vec![false; topo.channel_count()];
        let mut channel_names: Vec<Value> = Vec::new();
        for t in &self.transfers {
            let chan = topo.channel(t.src_dev, t.dst_dev);
            if !std::mem::replace(&mut named[chan], true) {
                let label = topo.channel_label(t.src_dev, t.dst_dev);
                channel_names.push(meta_event("thread_name", 1, Some(chan as u64), &label));
            }
            events.push(jobj! {
                "name" => format!("{} -> {} ({} B)", name_of(t.src_op), name_of(t.dst_op), t.bytes).as_str(),
                "cat" => "transfer",
                "ph" => "X",
                "ts" => t.start * 1e6,
                "dur" => t.duration() * 1e6,
                "pid" => 1u64,
                "tid" => chan as u64,
            });
        }
        events.extend(channel_names);
        for s in &self.mem_timeline {
            events.push(jobj! {
                "name" => format!("mem {}", topo.device(s.device).name).as_str(),
                "cat" => "memory",
                "ph" => "C",
                "ts" => s.t * 1e6,
                "pid" => 2u64,
                "args" => jobj! { "bytes" => s.bytes },
            });
        }
        jobj! { "traceEvents" => Value::Arr(events) }.to_string()
    }
}

/// A Chrome trace "M" (metadata) event naming a process or thread row.
fn meta_event(kind: &str, pid: u64, tid: Option<u64>, label: &str) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::from(kind)),
        ("ph".to_string(), Value::from("M")),
        ("pid".to_string(), Value::from(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".to_string(), Value::from(tid)));
    }
    fields.push(("args".to_string(), jobj! { "name" => label }));
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_telemetry::json::Value;

    fn trace() -> RunTrace {
        RunTrace {
            op_records: vec![
                OpRecord {
                    op: OpId(0),
                    device: DeviceId(0),
                    ready: 0.0,
                    start: 0.0,
                    end: 1.0,
                },
                OpRecord {
                    op: OpId(1),
                    device: DeviceId(1),
                    ready: 1.5,
                    start: 1.5,
                    end: 2.0,
                },
            ],
            transfers: vec![hop(DeviceId(0), DeviceId(1))],
            collectives: Vec::new(),
            makespan: 2.0,
            device_busy: vec![1.0, 0.5],
            peak_mem: vec![10, 20],
            contention: 0.0,
            steps: 3,
            mem_timeline: Vec::new(),
            reexecutions: 0,
            comm_retries: 0,
        }
    }

    /// A 100-byte transfer from op 0 to op 1 over one `src → dst` hop.
    fn hop(src_dev: DeviceId, dst_dev: DeviceId) -> TransferRecord {
        TransferRecord {
            src_op: OpId(0),
            dst_op: OpId(1),
            src_dev,
            dst_dev,
            bytes: 100,
            start: 1.0,
            end: 1.5,
        }
    }

    #[test]
    fn aggregates() {
        let t = trace();
        assert!((t.total_compute_time() - 1.5).abs() < 1e-12);
        assert!((t.total_memcpy_time() - 0.5).abs() < 1e-12);
        assert!((t.samples_per_sec(64) - 32.0).abs() < 1e-9);
        assert_eq!(t.max_peak_mem(), 20);
    }

    #[test]
    fn samples_per_sec_is_zero_for_zero_makespan() {
        // A degenerate run must not report infinite throughput.
        let mut t = trace();
        t.makespan = 0.0;
        assert_eq!(t.samples_per_sec(64), 0.0);
        assert!(t.samples_per_sec(64).is_finite());
    }

    #[test]
    fn op_record_lookup() {
        let t = trace();
        assert_eq!(t.op_record(OpId(1)).device, DeviceId(1));
        assert!((t.op_record(OpId(0)).duration() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_fractions() {
        let t = trace();
        let u = t.utilization();
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn queue_wait_accounting() {
        let mut t = trace();
        t.op_records[1].ready = 1.0; // ready at 1.0, started at 1.5
        assert!((t.op_records[1].queue_wait() - 0.5).abs() < 1e-12);
        let per_dev = t.device_queue_wait();
        assert_eq!(per_dev.len(), 2);
        assert!((per_dev[1] - 0.5).abs() < 1e-12);
        let top = t.top_queue_waits(10);
        assert_eq!(top, vec![(OpId(1), 0.5)]);
        // unexecuted ops contribute nothing
        t.op_records[0].start = -1.0;
        assert_eq!(t.op_records[0].queue_wait(), 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_events() {
        let t = trace();
        let topo = Topology::single_server(2);
        let names = vec!["a".to_string(), "b".to_string()];
        let json = t.to_chrome_trace_full(&names, &topo);
        let v = Value::parse(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let slices: Vec<_> = events.iter().filter(|e| e["ph"] == "X").collect();
        assert_eq!(slices.len(), 3); // 2 ops + 1 transfer
        assert!(slices.iter().any(|e| e["name"] == "a"));
        assert!(slices.iter().any(|e| e["cat"] == "transfer"));
        // timestamps in microseconds
        assert_eq!(slices[0]["dur"].as_f64().unwrap(), 1e6);
    }

    #[test]
    fn chrome_trace_skips_unexecuted_ops() {
        let mut t = trace();
        t.op_records[1].start = -1.0;
        let json = t.to_chrome_trace_full(&[], &Topology::single_server(2));
        let v = Value::parse(&json).unwrap();
        let ops = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["cat"] == "op")
            .count();
        assert_eq!(ops, 1);
    }

    #[test]
    fn transfer_tids_do_not_collide_on_large_topologies() {
        // one transfer per directed hop of a 4-server cluster: two
        // transfers share a row exactly when they share a channel
        let topo = Topology::multi_server(4, 8);
        let hops: Vec<(DeviceId, DeviceId)> = topo
            .device_ids()
            .flat_map(|a| topo.device_ids().map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
            .collect();
        let mut t = trace();
        t.transfers = hops.iter().map(|&(a, b)| hop(a, b)).collect();
        let v = Value::parse(&t.to_chrome_trace_full(&[], &topo)).unwrap();
        let tids: Vec<f64> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["cat"] == "transfer")
            .map(|e| e["tid"].as_f64().unwrap())
            .collect();
        assert_eq!(tids.len(), hops.len());
        for (i, &(a, b)) in hops.iter().enumerate() {
            for (j, &(c, d)) in hops.iter().enumerate() {
                let same = topo.channel(a, b) == topo.channel(c, d);
                assert_eq!(tids[i] == tids[j], same);
            }
        }
    }

    #[test]
    fn full_trace_emits_perfetto_metadata_and_counters() {
        let topo = Topology::single_server(2);
        let mut t = trace();
        t.mem_timeline = vec![
            MemSample {
                t: 0.0,
                device: DeviceId(0),
                bytes: 10,
            },
            MemSample {
                t: 1.0,
                device: DeviceId(0),
                bytes: 4,
            },
        ];
        let v = Value::parse(&t.to_chrome_trace_full(&[], &topo)).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let metas: Vec<_> = events.iter().filter(|e| e["ph"] == "M").collect();
        // 3 process names + one thread name per device (2 GPUs + host CPU)
        // + 1 channel thread name
        assert_eq!(metas.len(), 3 + topo.device_count() + 1);
        assert!(metas
            .iter()
            .any(|e| e["name"] == "process_name" && e["args"]["name"] == "compute"));
        let counters = events.iter().filter(|e| e["ph"] == "C").count();
        assert_eq!(counters, 2);
        // the transfer sits on its channel's row
        let tids: Vec<u64> = events
            .iter()
            .filter(|e| e["cat"] == "transfer")
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        assert_eq!(tids, vec![topo.channel(DeviceId(0), DeviceId(1)) as u64]);
    }

    #[test]
    fn channel_rows_are_labelled_from_the_topology() {
        // one NVLink transfer and one cross-server transfer staged through
        // both hosts: GPU -> its host -> the other host -> GPU
        let topo = Topology::multi_server(2, 2);
        let mut t = trace();
        let route = topo.route(DeviceId(0), DeviceId(2));
        assert_eq!(route.len(), 3);
        t.transfers.extend(route.iter().map(|&(a, b)| hop(a, b)));
        let v = Value::parse(&t.to_chrome_trace_full(&[], &topo)).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let label_of = |a: DeviceId, b: DeviceId| -> String {
            let chan = topo.channel(a, b) as u64;
            let rows: Vec<_> = events
                .iter()
                .filter(|e| e["name"] == "thread_name" && e["pid"] == 1.0)
                .filter(|e| e["tid"].as_u64() == Some(chan))
                .collect();
            assert_eq!(rows.len(), 1, "one name per channel row");
            rows[0]["args"]["name"].as_str().unwrap().to_string()
        };
        let (h0, h1) = (topo.host_of(0).unwrap(), topo.host_of(1).unwrap());
        assert_eq!(
            label_of(DeviceId(0), DeviceId(1)),
            "nvlink srv0/gpu0->srv0/gpu1"
        );
        assert_eq!(label_of(DeviceId(0), h0), "pcie gpus->srv0/cpu");
        assert_eq!(label_of(h0, h1), "rdma srv0->srv1");
        assert_eq!(label_of(h1, DeviceId(2)), "pcie srv1/cpu->gpus");
    }
}
