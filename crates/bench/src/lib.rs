//! The experiment runner: one registry of every table and figure this
//! reproduction regenerates, and the harness they share.
//!
//! Each experiment in [`EXPERIMENTS`] regenerates one table or figure from
//! the paper's evaluation, one design ablation or one performance study (see
//! DESIGN.md's per-experiment index): it prints its rows and writes a text
//! and a JSON copy under `results/`. Absolute numbers come from the
//! calibrated simulator — only shapes and ratios are claimed
//! (EXPERIMENTS.md), and each experiment states its claims through
//! [`Report::claim`]. The runner saves an experiment's results before it
//! checks its claims, so a failed claim never throws away the table that
//! explains it.
//!
//! Scale: the paper runs 60 M requests over 60 M records. The default here
//! is 100 K records / 120 K requests, past the point where the simulated
//! throughput and latency distributions stabilize; set `HYDRA_SCALE=paper`
//! for a 10× larger run or `HYDRA_SCALE=smoke` for CI-speed smoke output.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt::{Display, Write as _};
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use hydra_baselines::{BaselineCluster, BaselineConfig};
use hydra_db::{Cluster, ClusterBuilder, ClusterConfig, HydraClient, ReplicationMode};
use hydra_sim::Sim;
use hydra_ycsb::{run_workload, DriverConfig, KeyDist, Workload, WorkloadReport};

/// One registered experiment.
pub struct Experiment {
    /// What `run` and `list` call it.
    pub name: &'static str,
    /// Its results are `results/<stem>.{txt,json}`.
    pub stem: &'static str,
    /// The report's first line.
    pub title: &'static str,
    /// Its output holds wall-clock measurements, so no two runs repeat it.
    pub wall_clock: bool,
    /// Fills the report at a scale.
    pub run: fn(Scale, &mut Report),
}

/// Declares each experiment's module and its registry entry: name (the
/// module's), results stem, whether it measures wall-clock time, title.
macro_rules! registry {
    ($($name:ident, $stem:literal, $wall_clock:literal, $title:literal;)*) => {
        mod experiments {
            $(pub mod $name;)*
        }

        /// Every experiment, in the order `list` and `run all` take them.
        pub static EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            stem: $stem,
            title: $title,
            wall_clock: $wall_clock,
            run: experiments::$name::run,
        }),*];
    };
}

registry! {
    fig02_mapreduce, "fig02_mapreduce", false, "Fig. 2: Hadoop/Spark speedup of HydraDB (TCP & RDMA) over in-memory HDFS";
    fig03_g2, "fig03_g2", false, "Fig. 3: G2 engines vs aggregated throughput — HydraDB vs in-memory DB";
    fig09_overall, "fig09_overall", false, "Fig. 9: HydraDB vs Memcached/Redis/RAMCloud — peak throughput and mean latency";
    fig10_incremental, "fig10_incremental", false, "Fig. 10: incremental RDMA design choices (throughput, Mops)";
    fig11_hits, "fig11_hits", false, "Fig. 11: remote-pointer hit analysis (50 clients, RDMA Write + Read)";
    fig12_scalability, "fig12_scalability", false, "Fig. 12: scale-out and scale-up (normalized throughput)";
    fig13_replication, "fig13_replication", false, "Fig. 13: INSERT latency under replication protocols (single shard)";
    abl_consistency, "abl_consistency", true, "A-CONSISTENCY: guardian word vs Pilaf-style checksum — ns per validation and per write";
    abl_hashtable, "abl_hashtable", false, "A-HASH: packed cache-line-group vs compact vs chained tables";
    abl_lease, "abl_lease", false, "A-LEASE: lease term vs fast-path effectiveness and memory pinned by dead items";
    abl_share, "abl_share", false, "A-SHARE: shared vs exclusive remote-pointer cache (50 clients on 5 nodes)";
    abl_sleep, "abl_sleep", false, "T-SLEEP: poll-loop sleep backoff — CPU cost vs latency across offered load";
    abl_subshard, "abl_subshard", false, "A-SUBSHARD: 8 shard instances vs 1 instance with 8 sub-shards (one 8-core server)";
    chaos_recovery, "BENCH_chaos", false, "Recovery timeline per fault type (virtual clock)";
    perf_batching, "BENCH_batching", false, "Doorbell batching + batched execution: GET throughput vs pipeline depth / batch size";
    perf_conn, "BENCH_conn", false, "Connection scaling: NIC cache cliff vs QP multiplexing + SRQ + huge pages";
    perf_elastic, "BENCH_elastic", false, "Elastic membership: live join rebalance vs migration rate (95% GET zipfian)";
    perf_events, "BENCH_hotpath", true, "Hot-path benchmark: slab+wheel scheduler vs seed heap, peak RSS";
    perf_index, "BENCH_index", true, "Index probe throughput: packed cache-line groups vs compact buckets vs chained lists";
    perf_mix, "BENCH_mix", false, "Mixed read plane: dual-lane tail isolation vs FIFO (50% GET / 50% SCAN)";
    perf_repl, "BENCH_repl", false, "Group-commit write plane: cumulative acks + pipelined replication vs per-record strict";
    perf_scan, "BENCH_scan", true, "Scan plane: the shard's ordered view";
    perf_scan_fanout, "BENCH_scan_fanout", false, "Scan plane: YCSB-E scans through the cluster and their fan-out";
    perf_skew, "BENCH_skew", false, "Skew-resilient read plane: replica read spreading + bounded CLOCK pointer cache";
}

/// The experiments `names` asks for, in that order; `all` is every one.
/// An unknown name is an error that lists the known ones.
pub fn select(names: &[&str]) -> Result<Vec<&'static Experiment>, String> {
    if names == ["all"] {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let known: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let find = |n: &&str| EXPERIMENTS.iter().find(|e| e.name == *n);
    let unknown = |n| format!("unknown experiment {n:?}; known: all, {}", known.join(", "));
    names
        .iter()
        .map(|n| find(n).ok_or_else(|| unknown(n)))
        .collect()
}

/// Runs `experiments` in order at `scale`. Each one's results are saved
/// under `dir` before its claims are checked; once all have run, every
/// failed claim is written to `out`. Returns whether every claim held.
pub fn run(experiments: &[&Experiment], scale: Scale, dir: &Path, out: &mut dyn io::Write) -> bool {
    let mut failed = Vec::new();
    for e in experiments {
        let mut report = Report::new(e.stem, e.title, scale);
        (e.run)(scale, &mut report);
        report.save(dir);
        for c in report.contradicted {
            failed.push(format!("{}: {c}", e.name));
        }
    }
    for f in &failed {
        writeln!(out, "claim failed: {f}").expect("write failed claims");
    }
    failed.is_empty()
}

/// Run-scale knob decoded from `HYDRA_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-speed sanity output.
    Smoke,
    /// Default: stable shapes in seconds of wall time.
    Normal,
    /// 10× the default (minutes of wall time).
    Paper,
}

impl Scale {
    /// Reads `HYDRA_SCALE`: unset is `normal`; see [`Scale::parse`].
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(std::env::var("HYDRA_SCALE").ok().as_deref())
    }

    /// `smoke`, `normal` or `paper`; `None` is `normal`. Anything else is an
    /// error, so a mistyped scale never overwrites results at normal scale.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            Some("smoke") => Ok(Scale::Smoke),
            None | Some("normal") => Ok(Scale::Normal),
            Some("paper") => Ok(Scale::Paper),
            Some(v) => Err(format!(
                "HYDRA_SCALE must be smoke, normal or paper, not {v:?}"
            )),
        }
    }

    /// Records loaded per experiment.
    pub fn records(self) -> u64 {
        match self {
            Scale::Smoke => 5_000,
            Scale::Normal => 100_000,
            Scale::Paper => 1_000_000,
        }
    }

    /// Requests replayed per experiment.
    pub fn ops(self) -> u64 {
        match self {
            Scale::Smoke => 10_000,
            Scale::Normal => 120_000,
            Scale::Paper => 1_200_000,
        }
    }
}

/// The six §6 workloads at the chosen scale. `seed` is the experiment's
/// default; `HYDRA_SEED` overrides it, so one env var repins every RNG in a
/// run (cluster sim, workload streams, fault plans).
pub fn paper_workloads(scale: Scale, seed: u64) -> Vec<(String, Workload)> {
    Workload::paper_suite(scale.records(), scale.ops(), hydra_sim::seed_from_env(seed))
}

/// A single Zipfian/Uniform workload at the chosen scale (`HYDRA_SEED`
/// overrides `seed`, as in [`paper_workloads`]).
pub fn one_workload(scale: Scale, read_ratio: f64, zipf: bool, seed: u64) -> Workload {
    let seed = hydra_sim::seed_from_env(seed);
    Workload {
        records: scale.records(),
        ops: scale.ops(),
        read_ratio,
        dist: if zipf {
            KeyDist::zipfian()
        } else {
            KeyDist::Uniform
        },
        key_len: 16,
        value_len: 32,
        seed,
        mix: hydra_ycsb::OpMix::ReadUpdate,
    }
}

/// The paper's single-machine serving setup: 1 server with 4 shards, 50
/// clients over 5 client machines (§6).
pub fn paper_cluster_config() -> ClusterConfig {
    ClusterConfig {
        server_nodes: 1,
        shards_per_node: 4,
        client_nodes: 5,
        arena_words: 1 << 23, // 64 MiB per shard: fits the default scale
        ..ClusterConfig::default()
    }
}

/// Fig. 13's single-shard setup: one partition, `replicas` secondaries on
/// machines of their own, clients on two machines; `mode` is the only
/// difference between protocols.
pub fn replicated_shard_config(mode: ReplicationMode, replicas: u32) -> ClusterConfig {
    ClusterConfig {
        server_nodes: 1 + replicas.max(1),
        shards_per_node: 1,
        partitions: Some(1),
        client_nodes: 2,
        replicas,
        replication: mode,
        repl_ring_words: 1 << 18,
        ..paper_cluster_config()
    }
}

/// Builds the cluster and `clients` clients, spread round-robin over its
/// client machines.
pub fn paper_cluster(cfg: ClusterConfig, clients: usize) -> (Cluster, Vec<HydraClient>) {
    let nodes = cfg.client_nodes.max(1) as usize;
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients = (0..clients)
        .map(|i| cluster.add_client(i % nodes))
        .collect();
    (cluster, clients)
}

/// Runs one workload on a fresh cluster built from `cfg`.
pub fn run_hydra(cfg: ClusterConfig, clients: usize, wl: &Workload) -> WorkloadReport {
    let (mut cluster, clients) = paper_cluster(cfg, clients);
    run_workload(&mut cluster.sim, &clients, wl, &DriverConfig::default())
}

/// Runs one workload on a fresh baseline cluster, clients over 5 machines.
pub fn run_baseline(cfg: BaselineConfig, clients: usize, wl: &Workload) -> WorkloadReport {
    let mut c = BaselineCluster::build(cfg);
    let clients: Vec<_> = (0..clients).map(|i| c.add_client(i % 5)).collect();
    run_workload(&mut c.sim, &clients, wl, &DriverConfig::default())
}

/// What an op in an [`in_sequence`] chain calls when it completes.
pub type Next = Box<dyn FnOnce(&mut Sim)>;

/// Runs `op(sim, i, next)` for `i` in `0..count`, one at a time: op `i + 1`
/// starts when op `i` calls `next`, at that virtual instant, and an op that
/// does not call it ends the chain. The flag is set once all `count` ran.
pub fn in_sequence(
    sim: &mut Sim,
    count: u64,
    op: impl Fn(&mut Sim, u64, Next) + 'static,
) -> Rc<Cell<bool>> {
    type Op = Rc<dyn Fn(&mut Sim, u64, Next)>;
    fn step(sim: &mut Sim, i: u64, count: u64, op: Op, done: Rc<Cell<bool>>) {
        if i == count {
            done.set(true);
            return;
        }
        let rest = op.clone();
        op(
            sim,
            i,
            Box::new(move |sim| step(sim, i + 1, count, rest, done)),
        );
    }
    let done = Rc::new(Cell::new(false));
    step(sim, 0, count, Rc::new(op), done.clone());
    done
}

/// Share of GETs served by a validated one-sided read (Fig. 11's
/// successful hits over all GETs).
pub fn hit_rate(r: &WorkloadReport) -> f64 {
    r.rptr_hits as f64 / (r.rptr_hits + r.invalid_hits + r.msg_gets).max(1) as f64
}

/// A deterministic LCG stream for the wall-clock studies' probe orders.
pub struct Lcg(pub u64);

impl Lcg {
    /// Advances the stream and returns its new state.
    pub fn step(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// A table cell: a float shows its column's decimal places, anything else
/// prints as it is.
pub trait TableCell: Display {
    fn render(&self, _places: Option<usize>) -> String {
        self.to_string()
    }
}

impl TableCell for f64 {
    fn render(&self, places: Option<usize>) -> String {
        match places {
            Some(p) => format!("{self:.p$}"),
            None => self.to_string(),
        }
    }
}

impl TableCell for &str {}
impl TableCell for String {}
impl TableCell for u32 {}
impl TableCell for u64 {}
impl TableCell for usize {}

/// Accumulates the report text and mirrors it to stdout.
#[derive(Default)]
pub struct Report {
    stem: &'static str,
    text: String,
    json: serde_json::Map<String, serde_json::Value>,
    /// The current table's columns: left-aligned, width, decimal places.
    columns: Vec<(bool, usize, Option<usize>)>,
    contradicted: Vec<String>,
}

impl Report {
    /// Starts the report `results/<stem>.*` with its title and scale.
    fn new(stem: &'static str, title: &str, scale: Scale) -> Report {
        let mut r = Report {
            stem,
            ..Report::default()
        };
        r.line(&format!("# {title}"));
        r.line(&format!(
            "# scale={scale:?} (set HYDRA_SCALE=smoke|normal|paper)"
        ));
        r
    }

    /// Appends (and prints) one line.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        let _ = writeln!(self.text, "{s}");
    }

    /// Starts a table: prints its header and fixes the columns
    /// [`Report::row`] fills. `columns` is `|`-separated; each column is its
    /// header text, `<` (left-aligned) or `>` (right-aligned), its width, and
    /// for float cells `.` and the decimal places, e.g. `"name<12|Mops>10.3"`.
    pub fn header(&mut self, columns: &str) {
        let mut names = Vec::new();
        self.columns.clear();
        for c in columns.split('|') {
            let (name, spec) = c.split_at(c.rfind(['<', '>']).expect("name<width or name>width"));
            let (width, places) = spec[1..].split_once('.').unwrap_or((&spec[1..], ""));
            let (width, places) = (width.parse().expect("column width"), places.parse().ok());
            self.columns.push((spec.starts_with('<'), width, places));
            names.push(name);
        }
        let cells: Vec<&dyn TableCell> = names.iter().map(|n| n as &dyn TableCell).collect();
        self.row(&cells);
    }

    /// Prints one row of the current table, each cell padded to its column
    /// and the columns one space apart.
    pub fn row(&mut self, cells: &[&dyn TableCell]) {
        assert_eq!(cells.len(), self.columns.len(), "one cell per column");
        let mut s = String::new();
        for (i, (cell, &(left, w, places))) in cells.iter().zip(&self.columns).enumerate() {
            let cell = cell.render(places);
            let sep = if i == 0 { "" } else { " " };
            let _ = if left {
                write!(s, "{sep}{cell:<w$}")
            } else {
                write!(s, "{sep}{cell:>w$}")
            };
        }
        self.line(&s);
    }

    /// Records a machine-readable datum.
    pub fn datum(&mut self, key: &str, value: impl serde::Serialize) {
        self.json.insert(
            key.to_string(),
            serde_json::to_value(value).expect("serializable datum"),
        );
    }

    /// States a claim the results must bear out: unless `holds`, `row` (the
    /// measured values) contradicts `sentence` (the paper's or the design's
    /// statement). The runner reports it after the results are saved.
    pub fn claim(&mut self, holds: bool, row: impl Display, sentence: &str) {
        if !holds {
            self.contradicted
                .push(format!("{row}: contradicts \"{sentence}\""));
        }
    }

    /// Writes `<dir>/<stem>.txt` and `<dir>/<stem>.json`.
    fn save(&self, dir: &Path) {
        std::fs::create_dir_all(dir).expect("create results dir");
        std::fs::write(dir.join(format!("{}.txt", self.stem)), &self.text)
            .expect("write text report");
        std::fs::write(
            dir.join(format!("{}.json", self.stem)),
            serde_json::to_string_pretty(&serde_json::Value::Object(self.json.clone()))
                .expect("serialize json"),
        )
        .expect("write json report");
        println!("# saved to {}/{}.{{txt,json}}", dir.display(), self.stem);
    }
}

/// `results/` relative to the workspace root, or `HYDRA_RESULTS_DIR` when
/// set (CI smoke runs point it at a scratch directory so committed results
/// are never clobbered by reduced-scale output).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HYDRA_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("results");
    p
}

/// The JSON artifacts' view of a [`WorkloadReport`].
pub struct ReportRow<'a>(pub &'a WorkloadReport);

impl serde::Serialize for ReportRow<'_> {
    fn to_json_value(&self) -> serde_json::Value {
        let r = self.0;
        serde_json::json!({
            "mops": r.mops,
            "get_mean_us": r.get_mean_us,
            "get_p99_us": r.get_p99_us,
            "update_mean_us": r.update_mean_us,
            "rptr_hits": r.rptr_hits,
            "invalid_hits": r.invalid_hits,
            "msg_gets": r.msg_gets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses_env_values() {
        assert_eq!(Scale::parse(None), Ok(Scale::Normal));
        assert_eq!(Scale::parse(Some("smoke")), Ok(Scale::Smoke));
        assert_eq!(Scale::parse(Some("normal")), Ok(Scale::Normal));
        assert_eq!(Scale::parse(Some("paper")), Ok(Scale::Paper));
        for bad in ["Smoke", "smok", "", " paper"] {
            let err = Scale::parse(Some(bad)).unwrap_err();
            assert!(err.contains("smoke, normal or paper"), "{err}");
        }
        assert_eq!(Scale::Smoke.records(), 5_000);
        assert!(Scale::Paper.ops() > Scale::Normal.ops());
    }

    #[test]
    fn workload_suite_has_six_entries() {
        assert_eq!(paper_workloads(Scale::Smoke, 1).len(), 6);
    }

    #[test]
    fn results_dir_points_into_workspace() {
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn registry_names_and_stems_are_unique() {
        assert_eq!(EXPERIMENTS.len(), 24);
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            for f in &EXPERIMENTS[i + 1..] {
                assert!(
                    e.name != f.name && e.stem != f.stem,
                    "{} / {}",
                    e.name,
                    f.name
                );
            }
        }
        assert_eq!(select(&["all"]).unwrap().len(), 24);
        let picked = select(&["perf_events", "fig09_overall"]).unwrap();
        assert_eq!(picked[0].stem, "BENCH_hotpath");
        assert_eq!(picked[1].stem, "fig09_overall");
        let err = select(&["fig09_overall", "fig9"]).err().unwrap();
        assert!(
            err.contains("\"fig9\"") && err.contains("perf_skew"),
            "{err}"
        );
    }

    #[test]
    fn table_cells_pad_to_their_columns() {
        let mut r = Report::new("t", "title", Scale::Smoke);
        r.header("name<6|Mops>7.3|hit>6|n<=cap>7");
        r.row(&[&"a", &1.23456, &format!("{:.1}%", 12.34), &7u64]);
        let lines: Vec<_> = r.text.lines().skip(2).collect();
        assert_eq!(
            lines,
            [
                "name      Mops    hit  n<=cap",
                "a        1.235  12.3%       7"
            ]
        );
    }

    /// A failed claim still saves the experiment's results, runs the
    /// experiments after it, is printed with its experiment, row and
    /// sentence, and fails the run.
    #[test]
    fn a_failed_claim_saves_results_and_fails_the_run() {
        let failing = Experiment {
            name: "failing",
            stem: "failing_stem",
            title: "fails one claim",
            wall_clock: false,
            run: |_, r| {
                r.line("the table");
                r.datum("x", 1);
                r.claim(true, "row 0", "a claim that holds");
                r.claim(false, "row 1: 2.0x", "at least 3x");
            },
        };
        let passing = Experiment {
            name: "passing",
            stem: "passing_stem",
            run: |_, r| r.claim(true, "row", "holds"),
            ..failing
        };
        let dir = std::env::temp_dir().join(format!("hydra-bench-claims-{}", std::process::id()));
        let mut out = Vec::new();
        let ok = run(&[&failing, &passing], Scale::Smoke, &dir, &mut out);
        let text = std::fs::read_to_string(dir.join("failing_stem.txt")).unwrap();
        let json = std::fs::read_to_string(dir.join("failing_stem.json")).unwrap();
        let passed = dir.join("passing_stem.txt").exists();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!ok);
        assert!(
            text.contains("the table") && json.contains("\"x\": 1"),
            "{text}{json}"
        );
        assert!(passed);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "claim failed: failing: row 1: 2.0x: contradicts \"at least 3x\"\n"
        );
    }
}
