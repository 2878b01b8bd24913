//! The virtual-time plane: `sim-uniform` and `sim-skew-recovery`.
//!
//! Both drive the engine through the entry points `regen` uses — a
//! per-thread `RunSession` and `find_max_sustainable_ctx` — over a fixed
//! list of cells fanned out over at most two harness jobs. A *pass* runs
//! every cell once; passes repeat until the time budget is spent.

use crate::probe::{self, Wrap};
use crate::{fnv, Counters, Pass, Run, PROTOCOLS};
use checkmate_core::{FaultPlan, IncrementalPolicy, ProtocolKind};
use checkmate_cyclic::{reachability, DEFAULT_NODES};
use checkmate_dataflow::WorkerId;
use checkmate_engine::{EngineConfig, FailureSpec, RunReport, RunSession, Workload};
use checkmate_metrics::{find_max_sustainable_ctx, MstSearch};
use checkmate_nexmark::{Query, Skew};
use checkmate_sim::SECONDS;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One unit of a pass: an MST bisection (`search` set) or a single run.
struct Cell {
    label: String,
    workload: usize,
    protocol: usize,
    cfg: EngineConfig,
    search: Option<MstSearch>,
}

/// What a cell produced.
struct CellOut {
    runs: Vec<Run>,
    counters: Counters,
    /// Fingerprint of every run's outcome, sink digest and event count,
    /// plus the MST value: what the reference pins.
    check: u64,
}

pub struct Sim {
    cells: Vec<Cell>,
    /// Workloads as the query builders make them, and the same graphs
    /// rebuilt with every operator and stream timed.
    plain: Vec<Arc<Workload>>,
    traced: Vec<Arc<Workload>>,
    jobs: usize,
    /// Pinned whole-pass fingerprint for this seed, when the reference
    /// file has one.
    pinned: Option<u64>,
    /// Per-cell fingerprints of this process's first pass: every later
    /// pass must repeat them.
    first: Option<Vec<u64>>,
    warm: Vec<Cell>,
}

fn base_cfg(parallelism: u32, protocol: ProtocolKind, seed: u64) -> EngineConfig {
    EngineConfig {
        parallelism,
        protocol,
        checkpoint_interval: 2 * SECONDS,
        duration: 12 * SECONDS,
        warmup: 4 * SECONDS,
        seed,
        ..EngineConfig::default()
    }
}

impl Sim {
    fn new(workloads: Vec<Workload>, cells: Vec<Cell>, pinned: Option<u64>) -> Self {
        let traced = workloads
            .iter()
            .map(|w| Arc::new(probe::rebuild(w, Some(Wrap::Traced), None)))
            .collect();
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        Sim {
            warm: warm_cells(&cells),
            cells,
            plain: workloads.into_iter().map(Arc::new).collect(),
            traced,
            jobs,
            pinned,
            first: None,
        }
    }

    /// `sim-uniform`: the MST sweep of `regen`'s fig7 at quick scale —
    /// Q1/Q3/Q8/Q12 × COOR/UNC/CIC × p ∈ {4, 2}, uniform keys, each cell
    /// a failure-free bisection of 8-second probes.
    pub fn uniform(seed: u64, pinned: Option<u64>) -> Self {
        let mut workloads = Vec::new();
        let mut cells = Vec::new();
        for p in [4u32, 2] {
            for q in Query::ALL {
                workloads.push(q.workload(p, seed, None));
                for (protocol, kind) in PROTOCOLS.into_iter().enumerate() {
                    cells.push(Cell {
                        label: format!("{}/{kind}/p{p}/mst", q.name()),
                        workload: workloads.len() - 1,
                        protocol,
                        cfg: EngineConfig {
                            duration: 8 * SECONDS,
                            warmup: 2 * SECONDS,
                            ..base_cfg(p, kind, seed)
                        },
                        search: Some(MstSearch {
                            lo: 20.0 * p as f64,
                            hi: 4_000.0 * p as f64,
                            rel_tol: 0.04,
                            max_probes: 7,
                        }),
                    });
                }
            }
        }
        Sim::new(workloads, cells, pinned)
    }

    /// `sim-skew-recovery`: fixed-rate p = 2 runs with 20 % hot keys and
    /// failures — the standard single kill, a failure storm, and a
    /// single kill under incremental checkpoints — over Q3/Q8/Q12, plus
    /// the cyclic reachability query under a kill (COOR's deadlock is
    /// part of the reference output).
    pub fn skew_recovery(seed: u64, pinned: Option<u64>) -> Self {
        const P: u32 = 2;
        // Total input rates near 70 % of each query's uniform p = 2 MST,
        // so the hot keys overload their worker while the rest keep up.
        let queries = [
            (Query::Q3, 2_000.0),
            (Query::Q8, 1_700.0),
            (Query::Q12, 1_700.0),
        ];
        let mut workloads = Vec::new();
        let mut cells = Vec::new();
        let kill = Some(FailureSpec {
            at: 6 * SECONDS,
            worker: WorkerId(0),
        });
        for (q, rate) in queries {
            workloads.push(q.workload(P, seed, Skew::hot(0.2)));
            for (protocol, kind) in PROTOCOLS.into_iter().enumerate() {
                let base = EngineConfig {
                    total_rate: rate,
                    ..base_cfg(P, kind, seed)
                };
                let variants = [
                    (
                        "kill",
                        EngineConfig {
                            failure: kill,
                            ..base.clone()
                        },
                    ),
                    (
                        "storm",
                        EngineConfig {
                            storm: Some(FaultPlan::storm(seed, 2, P, base.duration)),
                            ..base.clone()
                        },
                    ),
                    (
                        "incr-kill",
                        EngineConfig {
                            failure: kill,
                            incremental: Some(IncrementalPolicy::default()),
                            ..base.clone()
                        },
                    ),
                ];
                for (v, cfg) in variants {
                    cells.push(Cell {
                        label: format!("{}/{kind}/{v}", q.name()),
                        workload: workloads.len() - 1,
                        protocol,
                        cfg,
                        search: None,
                    });
                }
            }
        }
        workloads.push(reachability(P, seed, DEFAULT_NODES));
        for (protocol, kind) in PROTOCOLS.into_iter().enumerate() {
            cells.push(Cell {
                label: format!("cyclic/{kind}/kill"),
                workload: workloads.len() - 1,
                protocol,
                cfg: EngineConfig {
                    total_rate: 700.0,
                    failure: Some(FailureSpec {
                        at: 9 * SECONDS,
                        worker: WorkerId(0),
                    }),
                    // Cyclic recovery lines can reach back to the initial
                    // state, so nothing is reclaimed (as in `regen`).
                    checkpoint_retention: u64::MAX,
                    ..base_cfg(P, kind, seed)
                },
                search: None,
            });
        }
        Sim::new(workloads, cells, pinned)
    }

    /// Untimed warm-up (see [`warm_cells`]).
    pub fn warm_up(&mut self) {
        run_cells(&self.warm, &self.plain, self.jobs);
    }

    /// Run every cell once and check each cell against the reference.
    pub fn pass(&mut self, traced: bool) -> Pass {
        let wls = if traced { &self.traced } else { &self.plain };
        let t = Instant::now();
        let outs = run_cells(&self.cells, wls, self.jobs);
        let wall = t.elapsed();
        let checks: Vec<u64> = outs.iter().map(|o| o.check).collect();
        let first = self.first.get_or_insert_with(|| checks.clone());
        let pinned_ok = self.pinned.is_none_or(|want| fingerprint(&checks) == want);
        let mut pass = Pass {
            wall,
            ..Pass::default()
        };
        for (i, mut out) in outs.into_iter().enumerate() {
            let ok = pinned_ok && out.check == first[i];
            if !ok {
                eprintln!("output mismatch: cell {}", self.cells[i].label);
            }
            for r in &mut out.runs {
                r.ok = ok;
            }
            pass.runs.append(&mut out.runs);
            pass.counters.add(&out.counters);
        }
        pass
    }

    /// Whole-pass fingerprint of a fresh pass (for the reference file).
    pub fn reference(&mut self) -> u64 {
        let outs = run_cells(&self.cells, &self.plain, self.jobs);
        fingerprint(&outs.iter().map(|o| o.check).collect::<Vec<_>>())
    }
}

/// Every cell once as a single run — bisections probe once at a quarter
/// of their upper bound — so the allocator and each job's session have
/// met every shape before timing starts.
fn warm_cells(cells: &[Cell]) -> Vec<Cell> {
    cells
        .iter()
        .map(|c| Cell {
            label: format!("warm/{}", c.label),
            workload: c.workload,
            protocol: c.protocol,
            cfg: match c.search {
                Some(s) => EngineConfig {
                    total_rate: s.hi / 4.0,
                    ..c.cfg.clone()
                },
                None => c.cfg.clone(),
            },
            search: None,
        })
        .collect()
}

fn fingerprint(checks: &[u64]) -> u64 {
    let bytes: Vec<u8> = checks.iter().flat_map(|c| c.to_le_bytes()).collect();
    fnv(&bytes)
}

/// Run `cells` over `jobs` scoped threads, each with its own recycled
/// `RunSession`; results come back in cell order.
fn run_cells(cells: &[Cell], wls: &[Arc<Workload>], jobs: usize) -> Vec<CellOut> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<CellOut>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                let mut session = RunSession::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let out = run_cell(cell, &wls[cell.workload], &mut session);
                    *slots[i].lock().expect("cell slot") = Some(out);
                }
                // Scoped threads may run thread-local destructors after
                // the scope returns, so merge the tally explicitly.
                probe::flush();
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("cell slot").expect("every cell ran"))
        .collect()
}

fn run_cell(cell: &Cell, wl: &Workload, session: &mut RunSession) -> CellOut {
    let mut out = CellOut {
        runs: Vec::new(),
        counters: Counters::default(),
        check: 0,
    };
    let mut check = Vec::new();
    let mut run = |cfg: EngineConfig, session: &mut RunSession| -> RunReport {
        let t = Instant::now();
        let r = session.run(wl, cfg);
        let wall_ns = t.elapsed().as_nanos() as u64;
        probe::end_run();
        check.extend_from_slice(format!("{:?}", r.outcome).as_bytes());
        for v in [r.sink_digest.count, r.sink_digest.acc, r.events] {
            check.extend_from_slice(&v.to_le_bytes());
        }
        out.counters.add_engine(&r, wall_ns);
        out.runs.push(Run {
            protocol: cell.protocol,
            wall_ns,
            work: r.events,
            ok: true,
            same: fnv(format!("{r:?}").as_bytes()),
        });
        r
    };
    match cell.search {
        Some(search) => {
            let base = cell.cfg.clone();
            let mst = find_max_sustainable_ctx(search, session, |rate, s| {
                let r = run(
                    EngineConfig {
                        total_rate: rate,
                        ..base.clone()
                    },
                    s,
                );
                r.sustainable && !r.deadlocked()
            });
            out.counters.mst_probes += out.runs.len() as u64;
            out.counters
                .probe_ms
                .extend(out.runs.iter().map(|r| r.wall_ns as f64 / 1e6));
            check.extend_from_slice(&mst.to_bits().to_le_bytes());
        }
        None => {
            run(cell.cfg.clone(), session);
        }
    }
    out.check = fnv(&check);
    out
}
