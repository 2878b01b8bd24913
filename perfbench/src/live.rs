//! The threaded live plane: `live-flood` and `live-rate-kill`.
//!
//! Both run a NEXMark query at parallelism 2 through
//! `run_workload_live`, whose own source schedule is the load
//! generator, once per protocol per pass. Every run's sink digest must
//! equal the clean reference for the same input, which the virtual-time
//! engine computes once per set-up.

use crate::probe::{self, TimedBackend, Wrap};
use crate::{Pass, Run, PROTOCOLS};
use checkmate_core::{FaultPlan, ProtocolKind};
use checkmate_dataflow::ops::Digest;
use checkmate_engine::{Engine, EngineConfig, Outcome, Workload};
use checkmate_nexmark::{run_workload_live, Query};
use checkmate_runtime::LiveConfig;
use checkmate_sim::{CostModel, SECONDS};
use checkmate_storage::{MemBackend, ObjectStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live parallelism: one worker per CPU of the two-CPU box the
/// benchmark was tuned on (fixed, so results do not depend on the host).
pub const P: u32 = 2;

/// A total input rate at which every record is due at t = 0.
const FLOOD: f64 = 1e15;

pub struct Live {
    /// The query with a latency-recording sink (timed runs) and with
    /// every operator and stream timed (traced runs).
    plain: Workload,
    traced: Workload,
    total_rate: f64,
    cfg: LiveConfig,
    /// Input records of one run: partitions × streams × records each.
    inputs: u64,
    reference: Digest,
    /// Records per partition of each warm-up run.
    warm_records: u64,
}

impl Live {
    /// `live-flood`: Q3, a shuffled two-input join with growing state,
    /// with all input due at t = 0, so the runtime sets the pace.
    pub fn flood(seed: u64) -> Self {
        let cfg = LiveConfig {
            records_per_partition: 40_000,
            checkpoint_interval: Duration::from_millis(100),
            ..base_cfg()
        };
        let warm_records = cfg.records_per_partition;
        Live::new(Query::Q3, seed, FLOOD, cfg, warm_records)
    }

    /// `live-rate-kill`: Q12, a windowed count with bounded state, fed
    /// open-loop at 200k records/s for 1.5 s, with worker 1 killed 0.6 s
    /// in. Runs end well inside Q12's 10 s processing-time window, so
    /// the digest does not depend on timing.
    pub fn rate_kill(seed: u64) -> Self {
        let total_rate = 200_000.0;
        let cfg = LiveConfig {
            records_per_partition: (total_rate * 1.5 / P as f64) as u64,
            checkpoint_interval: Duration::from_millis(200),
            storm: Some(FaultPlan::single_kill(600_000_000, 1)),
            ..base_cfg()
        };
        Live::new(Query::Q12, seed, total_rate, cfg, 30_000)
    }

    fn new(q: Query, seed: u64, total_rate: f64, cfg: LiveConfig, warm_records: u64) -> Self {
        let wl = q.workload(P, seed, None);
        let inputs = cfg.records_per_partition * P as u64 * wl.streams.len() as u64;
        Live {
            plain: probe::rebuild(&wl, Some(Wrap::LatencyOnly), None),
            traced: probe::rebuild(&wl, Some(Wrap::Traced), None),
            total_rate,
            reference: clean_digest(&wl, cfg.records_per_partition, seed),
            cfg,
            inputs,
            warm_records,
        }
    }

    /// Untimed warm-up: one failure-free run per protocol at the
    /// workload's own rate, so threads, allocator and store have met a
    /// run's footprint before timing starts.
    pub fn warm_up(&mut self) {
        for protocol in PROTOCOLS {
            let cfg = LiveConfig {
                protocol,
                storm: None,
                records_per_partition: self.warm_records,
                ..self.cfg.clone()
            };
            run_workload_live(&self.plain, self.total_rate, cfg);
            probe::flush();
            probe::take();
        }
    }

    /// One run per protocol; each digest is checked against the clean
    /// reference.
    pub fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        for (i, protocol) in PROTOCOLS.into_iter().enumerate() {
            let mut cfg = LiveConfig {
                protocol,
                ..self.cfg.clone()
            };
            let start = Instant::now();
            let traced_wl;
            let wl = if traced {
                cfg.store = Some(ObjectStore::shared_with(Arc::new(TimedBackend(
                    MemBackend::new(),
                ))));
                // Fresh stream wrappers per run: lag is measured from
                // this run's start.
                traced_wl = Workload {
                    name: self.traced.name.clone(),
                    graph: self.traced.graph.clone(),
                    streams: probe::timed_streams(&self.plain, start, self.total_rate / P as f64),
                };
                &traced_wl
            } else {
                &self.plain
            };
            let r = run_workload_live(wl, self.total_rate, cfg);
            let wall = start.elapsed();
            probe::flush();
            let mut tally = probe::take();
            let ok = r.sink_digest == self.reference;
            if !ok {
                eprintln!(
                    "output mismatch: {protocol} digest {:016x}/{} != clean {:016x}/{}",
                    r.sink_digest.acc,
                    r.sink_digest.count,
                    self.reference.acc,
                    self.reference.count
                );
            }
            pass.latency[i].append(&mut tally.latency_ns);
            pass.tally.merge_from(tally);
            pass.counters.add_live(&r, wall);
            pass.runs.push(Run {
                protocol: i,
                wall_ns: wall.as_nanos() as u64,
                work: if ok { self.inputs } else { 0 },
                ok,
                same: r.sink_digest.acc ^ r.sink_digest.count,
            });
            pass.wall += wall;
        }
        pass
    }
}

fn base_cfg() -> LiveConfig {
    LiveConfig {
        parallelism: P,
        protocol: ProtocolKind::Coordinated,
        timeout: Duration::from_secs(60),
        ..LiveConfig::default()
    }
}

/// The sink digest of a failure-free run over the same input, from the
/// virtual-time engine with every modeled cost zeroed so the whole input
/// is processed within the first processing-time window.
fn clean_digest(wl: &Workload, records_per_partition: u64, seed: u64) -> Digest {
    let zero_cost = probe::rebuild(wl, None, Some(0));
    let cfg = EngineConfig {
        parallelism: P,
        protocol: ProtocolKind::None,
        total_rate: 1e6,
        input_limit: Some(records_per_partition),
        duration: 8 * SECONDS,
        warmup: 0,
        seed,
        cost: CostModel {
            ser_ns_per_byte: 0,
            deser_ns_per_byte: 0,
            marker_handle_ns: 0,
            log_append_base_ns: 0,
            log_append_ns_per_byte: 0,
            snapshot_base_ns: 0,
            snapshot_ns_per_byte: 0,
            local_xfer_ns: 0,
            net_latency_ns: 0,
            net_bytes_per_sec: u64::MAX / SECONDS,
            control_latency_ns: 0,
            ..CostModel::default()
        },
        ..EngineConfig::default()
    };
    let r = Engine::new(&zero_cost, cfg).run();
    assert_eq!(
        r.outcome,
        Outcome::Drained,
        "reference run must drain its input"
    );
    r.sink_digest
}
