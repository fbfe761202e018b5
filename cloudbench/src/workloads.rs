//! The three workloads: configurations, the set-up replica, one iteration
//! untraced and traced, and the outputs each iteration is checked on.
//!
//! Untraced iterations call the same public entry points `repro` uses:
//! `run_opts`, `run_fleet_opts`, `full_characterize`, `TraceDir::open`
//! with `full_characterize_trace`, and `ratio_report`. The traced single-host
//! iteration assembles the world from the public constructors instead
//! and advances it in sampling-interval slices; its outcome must equal
//! the untraced one exactly, which proves the replica faithful.

use crate::spans::Spans;
use cloudchar_core::workload::bootstrap;
use cloudchar_core::{
    full_characterize, full_characterize_trace, ratio_report, run_fleet_opts, run_opts, Deployment,
    ExperimentConfig, ExperimentResult, FleetConfig, HostIoPolicy, PhysPlatform, Platform,
    RatioReport, RunOptions, TraceDir, VirtOptions, VirtPlatform, World,
};
use cloudchar_hw::ServerSpec;
use cloudchar_monitor::{catalog, SeriesStore};
use cloudchar_rubis::{
    ClientCohort, Database, Interaction, MySqlServer, WebAppServer, WorkloadMix,
};
use cloudchar_simcore::{Engine, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker threads for the parallel stages (the benchmark host has 2 cores).
const JOBS: usize = 2;
/// Worker threads of the timed fleet run. With two, every one of the
/// run's ~50k sync rounds waits for the slower thread, so a co-tenant
/// briefly stealing either core stretched whole runs 2-3x on the
/// benchmark host; one worker runs the same windowed schedule without
/// the handoffs. The traced run still times jobs 2 against jobs 1.
const FLEET_RUN_JOBS: usize = 1;
/// Online window in samples (the `repro --online` default).
const ONLINE_WINDOW: usize = 60;
/// Simulated length of the fleet: ten times the preset, so one
/// iteration is seconds of host time instead of tenths.
const FLEET_SECONDS: u64 = 300;
/// Catalog series each monitored fleet host reports.
const PROFILES_PER_FLEET_HOST: usize = 336;
/// The FNV-1a offset basis every replay fingerprint starts from.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperBrowse,
    PaperBid,
    Fleet100,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperBrowse,
        Workload::PaperBid,
        Workload::Fleet100,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBrowse => "paper_browse",
            Workload::PaperBid => "paper_bid",
            Workload::Fleet100 => "fleet100",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed of the workload's preset configuration.
    pub fn preset_seed(self) -> u64 {
        match self {
            Workload::Fleet100 => FleetConfig::fleet100().base.seed,
            _ => ExperimentConfig::paper(Deployment::Virtualized, WorkloadMix::BROWSING).seed,
        }
    }
}

/// Checked outputs of one iteration, by name.
pub type Outcome = Vec<(String, u64)>;

/// Outputs recorded at the preset seed, at full scale.
fn recorded(workload: Workload) -> &'static [(&'static str, u64)] {
    match workload {
        Workload::PaperBrowse => &[
            ("virt.fingerprint", 0xd689_45e2_c644_a5a4),
            ("virt.events", 934_943),
            ("virt.completed", 146_174),
            ("virt.profiles", 1008),
            ("phys.fingerprint", 0x5345_2403_5650_37d7),
            ("phys.events", 1_057_881),
            ("phys.completed", 168_417),
            ("phys.profiles", 672),
            ("ratio_report", 0x946f_9be2_d5e6_a966),
        ],
        Workload::PaperBid => &[
            ("virt.fingerprint", 0x94a4_bb11_6a67_a8fc),
            ("virt.events", 927_230),
            ("virt.completed", 133_438),
            ("virt.profiles", 1008),
            ("phys.fingerprint", 0x09bc_d9c3_c6ca_a300),
            ("phys.events", 940_198),
            ("phys.completed", 135_501),
            ("phys.profiles", 672),
            ("ratio_report", 0x5ddd_6fdf_46bc_00a2),
        ],
        Workload::Fleet100 => &[
            ("fingerprint", 0xe8aa_f4e7_76f9_c1d8),
            ("completed", 70_686),
            ("units", 1_532_449),
            ("online_windows", 1188),
            ("profiles", 33_264),
        ],
    }
}

/// What one iteration did.
pub struct Iteration {
    pub outcome: Outcome,
    /// Host seconds inside the simulation calls.
    pub sim_s: f64,
    /// Engine events (fleet: shard units) executed.
    pub events: u64,
    /// Metric profiles characterized.
    pub profiles: usize,
    /// Bytes of trace written (fleet only).
    pub trace_bytes: u64,
}

/// Per-layer counters gathered by a traced iteration.
pub type Layers = BTreeMap<&'static str, f64>;

fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

fn max(layers: &mut Layers, name: &'static str, v: f64) {
    let e = layers.entry(name).or_insert(v);
    *e = e.max(v);
}

/// One workload at one seed and scale.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Reduced-scale configurations for the self-tests.
    pub smoke: bool,
}

impl Plan {
    /// The recorded outputs this plan must reproduce: only a full-scale
    /// run at the preset seed has them.
    pub fn recorded(&self) -> Option<Outcome> {
        (!self.smoke && self.seed == self.workload.preset_seed()).then(|| {
            recorded(self.workload)
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect()
        })
    }

    /// The virtualized and physical experiments of a paper workload
    /// (none for the fleet).
    fn singles(&self) -> Vec<ExperimentConfig> {
        let mix = match self.workload {
            Workload::PaperBrowse => WorkloadMix::BROWSING,
            Workload::PaperBid => WorkloadMix::BIDDING,
            Workload::Fleet100 => return Vec::new(),
        };
        let preset = if self.smoke {
            ExperimentConfig::fast
        } else {
            ExperimentConfig::paper
        };
        [Deployment::Virtualized, Deployment::NonVirtualized]
            .map(|d| ExperimentConfig {
                seed: self.seed,
                ..preset(d, mix)
            })
            .to_vec()
    }

    fn fleet(&self) -> FleetConfig {
        let mut cfg = if self.smoke {
            let mut c = FleetConfig::paper13();
            c.base.duration = SimDuration::from_secs(30);
            c
        } else {
            let mut c = FleetConfig::fleet100();
            c.base.duration = SimDuration::from_secs(FLEET_SECONDS);
            c
        };
        cfg.base.seed = self.seed;
        cfg
    }

    /// Host time to build the workload's worlds up to their first event,
    /// from the same public constructors the run entry points use.
    pub fn setup(&self, spans: &mut Spans) -> Duration {
        if self.workload == Workload::Fleet100 {
            let t = Instant::now();
            let parts = build_fleet_parts(&self.fleet(), spans);
            let d = t.elapsed();
            black_box(&parts);
            return d;
        }
        let mut d = Duration::ZERO;
        for cfg in self.singles() {
            let t = Instant::now();
            let built = build_world(&cfg, spans);
            d += t.elapsed();
            black_box(&built);
        }
        d
    }

    /// One untraced iteration through the public run entry points.
    pub fn iterate(&self, tmp: &Path) -> io::Result<Iteration> {
        if self.workload == Workload::Fleet100 {
            return fleet_iteration(&self.fleet(), tmp, &mut Spans::off());
        }
        let mut results = Vec::new();
        let mut sim_s = 0.0;
        for cfg in self.singles() {
            let t = Instant::now();
            let (r, _) = run_opts(cfg, &RunOptions::default())?;
            sim_s += t.elapsed().as_secs_f64();
            results.push(r);
        }
        Ok(analyse(&results, sim_s, &mut Spans::off()))
    }

    /// One traced iteration, recording spans and per-layer counters.
    pub fn iterate_traced(
        &self,
        tmp: &Path,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> io::Result<Iteration> {
        if self.workload == Workload::Fleet100 {
            return fleet_traced(&self.fleet(), tmp, spans, layers);
        }
        let iteration = spans.enter("bench.iteration");
        let mut results = Vec::new();
        let mut sim_s = 0.0;
        for cfg in self.singles() {
            let (mut engine, mut world) = build_world(&cfg, spans);
            let sim = spans.enter("core.simulate");
            let end = cfg.end_time();
            let mut t = SimTime::ZERO;
            while t < end {
                t = (t + cfg.sample_interval).min(end);
                let slice = spans.enter("simcore.run_until");
                engine.run_until(&mut world, t);
                spans.exit(slice);
                max(layers, "simcore.pending_max", engine.pending() as f64);
                max(layers, "rubis.inflight_max", world.inflight_count() as f64);
                max(layers, "rubis.web.queue_max", f64::from(world.web.queued()));
            }
            sim_s += spans.exit(sim).as_secs_f64();
            count_layers(&world, layers);
            results.push(finalize(cfg, &engine, &mut world));
        }
        let it = analyse(&results, sim_s, spans);
        spans.exit(iteration);
        Ok(it)
    }
}

/// Build a single-host world exactly as `run_opts` does, stopping
/// before the first event.
fn build_world(cfg: &ExperimentConfig, spans: &mut Spans) -> (Engine<World>, World) {
    assert!(
        cfg.faults.is_empty() && cfg.disk_degradation == 1.0,
        "the replica builds fault-free worlds on healthy disks only"
    );
    let master = SimRng::new(cfg.seed);
    let mut db_rng = master.derive("db-gen");
    let mut client_rng = master.derive("clients");

    let s = spans.enter("core.setup.db_generate");
    let db = Database::generate(cfg.db_scale, &mut db_rng);
    spans.exit(s);
    let s = spans.enter("core.setup.prewarm");
    let mut mysql = MySqlServer::new(db, cfg.mysql);
    mysql.prewarm(0.6);
    spans.exit(s);
    let s = spans.enter("core.setup.cohort");
    let clients = ClientCohort::new(cfg.clients, cfg.mix, &mut client_rng);
    spans.exit(s);

    let s = spans.enter("core.setup.world");
    let spec = ServerSpec::hp_proliant();
    let platform_rng = master.derive("platform");
    let platform = match cfg.deployment {
        Deployment::Virtualized => Platform::Virt(Box::new(VirtPlatform::new(
            spec,
            VirtOptions {
                overhead: cfg.overhead,
                vm_cap_percent: cfg.vm_cap_percent,
                background_vms: cfg.background_vms,
                background_util: cfg.background_util,
                background_iops: cfg.background_iops,
            },
            platform_rng,
        ))),
        Deployment::NonVirtualized => Platform::Phys(Box::new(PhysPlatform::new(
            spec,
            HostIoPolicy::default(),
            platform_rng,
        ))),
    };
    let mut world = World::new(
        cfg.clone(),
        platform,
        WebAppServer::new(cfg.web),
        mysql,
        clients,
        master.derive("workload"),
        master.derive("faults"),
    );
    let mut engine = Engine::new();
    bootstrap(&mut engine, &mut world);
    spans.exit(s);
    (engine, world)
}

/// The fleet's set-up work from the public constructors it uses: the
/// generator's cohort and each pod's database, buffer pool, web tier,
/// platform and series store.
fn build_fleet_parts(cfg: &FleetConfig, spans: &mut Spans) -> impl Sized {
    let base = &cfg.base;
    let master = SimRng::new(base.seed);
    let s = spans.enter("core.setup.cohort");
    let cohort = ClientCohort::new(base.clients, base.mix, &mut master.derive("fleet-clients"));
    spans.exit(s);
    let mut pods = Vec::with_capacity(cfg.pods as usize);
    for pod in 0..cfg.pods {
        let s = spans.enter("core.setup.db_generate");
        let db = Database::generate(base.db_scale, &mut master.derive(&format!("pod{pod}-db")));
        spans.exit(s);
        let s = spans.enter("core.setup.prewarm");
        let mut mysql = MySqlServer::new(db, base.mysql);
        mysql.prewarm(0.6);
        spans.exit(s);
        let s = spans.enter("core.setup.world");
        let platform = VirtPlatform::new(
            ServerSpec::hp_proliant(),
            VirtOptions {
                overhead: base.overhead,
                vm_cap_percent: base.vm_cap_percent,
                background_vms: base.background_vms,
                background_util: base.background_util,
                background_iops: base.background_iops,
            },
            master.derive(&format!("pod{pod}-platform")),
        );
        let parts = (
            mysql,
            WebAppServer::new(base.web),
            platform,
            SeriesStore::with_expected_samples(base.sample_count()),
        );
        spans.exit(s);
        pods.push(parts);
    }
    (cohort, pods)
}

/// Per-layer counters of a finished single-host world.
fn count_layers(world: &World, layers: &mut Layers) {
    let (hits, misses, _) = world.mysql.pool_stats();
    let (qhits, qmisses) = world.mysql.cache_stats();
    add(layers, "rubis.completed", world.completed as f64);
    add(
        layers,
        "rubis.db.queries",
        world.mysql.queries_executed() as f64,
    );
    add(layers, "pool.hits", hits as f64);
    add(layers, "pool.misses", misses as f64);
    add(layers, "qcache.hits", qhits as f64);
    add(layers, "qcache.misses", qmisses as f64);
    let samples: usize = world.store.iter().map(|(_, _, s)| s.len()).sum();
    add(layers, "monitor.samples", samples as f64);
    if let Platform::Virt(v) = &world.platform {
        let hv = v.hypervisor();
        let (read, written) = hv.host.disk.totals();
        let (rx, tx) = hv.host.nic.totals();
        add(layers, "xen.hv_cycles", hv.hv_cycles_total() as f64);
        add(layers, "hw.disk_bytes", (read + written) as f64);
        add(layers, "hw.nic_bytes", (rx + tx) as f64);
    }
}

/// The result `run_opts` returns for this engine/world pair.
fn finalize(cfg: ExperimentConfig, engine: &Engine<World>, world: &mut World) -> ExperimentResult {
    let hosts = world
        .platform
        .host_labels()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let transactions = Interaction::ALL
        .iter()
        .enumerate()
        .map(|(i, inter)| {
            (
                inter.script_name().to_string(),
                world.interaction_counts[i],
                world.interaction_latency[i].mean(),
            )
        })
        .collect();
    ExperimentResult {
        config: cfg,
        store: std::mem::take(&mut world.store),
        hosts,
        completed: world.completed,
        response_time_mean_s: world.response_time.mean(),
        response_time_max_s: world.response_time.max().unwrap_or(0.0),
        response_time_p95_s: world.response_hist.quantile(0.95).unwrap_or(0.0),
        response_time_p99_s: world.response_hist.quantile(0.99).unwrap_or(0.0),
        events: engine.events_executed(),
        transactions,
        faults: None,
    }
}

/// Characterize each result, compare a virt/phys pair, and collect the
/// checked outputs.
fn analyse(results: &[ExperimentResult], sim_s: f64, spans: &mut Spans) -> Iteration {
    let mut outcome = Outcome::new();
    let mut events = 0;
    let mut profiles = 0;
    for r in results {
        let half = match r.config.deployment {
            Deployment::Virtualized => "virt",
            Deployment::NonVirtualized => "phys",
        };
        let s = spans.enter("analysis.characterize");
        let fc = black_box(full_characterize(r, JOBS));
        spans.exit(s);
        outcome.push((format!("{half}.fingerprint"), fingerprint(r)));
        outcome.push((format!("{half}.events"), r.events));
        outcome.push((format!("{half}.completed"), r.completed));
        outcome.push((format!("{half}.profiles"), fc.profiles.len() as u64));
        events += r.events;
        profiles += fc.profiles.len();
    }
    if let [virt, phys] = results {
        let s = spans.enter("core.compare");
        let report = black_box(ratio_report(virt, phys));
        spans.exit(s);
        outcome.push(("ratio_report".to_string(), ratio_hash(&report)));
    }
    Iteration {
        outcome,
        sim_s,
        events,
        profiles,
        trace_bytes: 0,
    }
}

/// One fleet iteration: the sharded run streaming traces with online
/// windows armed, then the out-of-core fingerprint and characterization.
fn fleet_iteration(cfg: &FleetConfig, tmp: &Path, spans: &mut Spans) -> io::Result<Iteration> {
    let dir = tmp.join("fleet-trace");
    let t = Instant::now();
    let s = spans.enter("core.fleet_run");
    let r = run_fleet_opts(cfg, FLEET_RUN_JOBS, Some(&dir), Some(ONLINE_WINDOW))?;
    spans.exit(s);
    let sim_s = t.elapsed().as_secs_f64();
    let s = spans.enter("monitor.trace_read");
    let trace = TraceDir::open(&dir)?;
    let fp = r.counter_fingerprint(trace.fold_values(FNV_OFFSET)?);
    spans.exit(s);
    let s = spans.enter("analysis.characterize_trace");
    let fc = black_box(full_characterize_trace(&trace, JOBS)?);
    spans.exit(s);
    let mut trace_bytes = 0;
    for entry in std::fs::read_dir(&dir)? {
        trace_bytes += entry?.metadata()?.len();
    }
    std::fs::remove_dir_all(&dir)?;
    let expected = cfg.pods as usize * 3 * PROFILES_PER_FLEET_HOST;
    if fc.profiles.len() != expected {
        return Err(io::Error::other(format!(
            "{} out-of-core profiles, expected {expected}",
            fc.profiles.len()
        )));
    }
    let windows = r.online.as_ref().map_or(0, |o| o.snapshots.len());
    Ok(Iteration {
        outcome: vec![
            ("fingerprint".to_string(), fp),
            ("completed".to_string(), r.completed),
            ("units".to_string(), r.stats.units),
            ("online_windows".to_string(), windows as u64),
            ("profiles".to_string(), fc.profiles.len() as u64),
        ],
        sim_s,
        events: r.stats.units,
        profiles: fc.profiles.len(),
        trace_bytes,
    })
}

/// The traced fleet iteration, preceded by plain in-memory runs at one
/// and two workers: they give the thread scaling, the cost of tracing
/// plus online windows, and the in-memory fingerprint the streamed one
/// must equal.
fn fleet_traced(
    cfg: &FleetConfig,
    tmp: &Path,
    spans: &mut Spans,
    layers: &mut Layers,
) -> io::Result<Iteration> {
    let s = spans.enter("core.fleet_plain_jobs1");
    let one = run_fleet_opts(cfg, FLEET_RUN_JOBS, None, None)?;
    let jobs1 = spans.exit(s);
    let fp_plain = one.fingerprint();
    let samples: usize = one.store.iter().map(|(_, _, s)| s.len()).sum();
    let stats = one.stats;
    layers.insert("rubis.completed", one.completed as f64);
    drop(one);
    let s = spans.enter("core.fleet_plain_jobs2");
    let two = run_fleet_opts(cfg, JOBS, None, None)?;
    let jobs2 = spans.exit(s);
    if two.fingerprint() != fp_plain {
        return Err(io::Error::other(
            "fleet fingerprint differs between 1 and 2 workers",
        ));
    }
    drop(two);

    let s = spans.enter("bench.iteration");
    let it = fleet_iteration(cfg, tmp, spans)?;
    spans.exit(s);
    if it.outcome[0].1 != fp_plain {
        return Err(io::Error::other(format!(
            "streamed fleet fingerprint {:#018x} differs from in-memory {fp_plain:#018x}",
            it.outcome[0].1
        )));
    }
    layers.insert("simcore.shard.rounds", stats.rounds as f64);
    layers.insert("simcore.shard.units", stats.units as f64);
    layers.insert("simcore.shard.messages", stats.messages as f64);
    layers.insert(
        "simcore.shard.units_per_round",
        stats.units as f64 / stats.rounds.max(1) as f64,
    );
    let (jobs1, jobs2) = (jobs1.as_secs_f64(), jobs2.as_secs_f64());
    layers.insert("simcore.shard.jobs2_over_jobs1", jobs2 / jobs1);
    layers.insert(
        "monitor.trace_online_s",
        spans.total_s("core.fleet_run") - jobs1,
    );
    layers.insert("monitor.samples", samples as f64);
    layers.insert("monitor.trace.bytes", it.trace_bytes as f64);
    layers.insert(
        "monitor.trace.compression",
        samples as f64 * 8.0 / it.trace_bytes as f64,
    );
    // The set-up replica runs last, outside the compared iteration.
    black_box(build_fleet_parts(cfg, spans));
    Ok(it)
}

fn fnv(h: u64, bits: u64) -> u64 {
    (h ^ bits).wrapping_mul(0x100_0000_01b3)
}

/// The FNV-1a fold over every sampled series, in host then catalog order
/// (the fingerprint of the repository's determinism tests).
fn fingerprint(r: &ExperimentResult) -> u64 {
    let mut h = FNV_OFFSET;
    for host in &r.hosts {
        for id in catalog().ids() {
            if let Some(s) = r.store.get(host, id) {
                h = s.values.iter().fold(h, |h, v| fnv(h, v.to_bits()));
            }
        }
    }
    h
}

fn ratio_hash(report: &RatioReport) -> u64 {
    [report.r1, report.r2, report.r3, report.r4_percent]
        .iter()
        .flat_map(|r| [r.cpu, r.ram, r.disk, r.net])
        .fold(FNV_OFFSET, |h, v| fnv(h, v.to_bits()))
}
