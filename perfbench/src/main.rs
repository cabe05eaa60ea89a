//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kv-read|kv-write|ladder|hot-shards> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the untraced run and prints every end-to-end metric;
//! `--trace 1` is the separate traced pass and prints every per-layer
//! metric. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! give provenance and the sample counts behind each figure. Every run
//! also appends a full record to `perfbench/results/runs.jsonl`, which
//! `compare.py` reads.

mod hot;
mod kv;
mod ladder;
mod stats;
mod stream;
mod sys;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use stream::Mix;

/// Instances per run: each sets up afresh and measures an equal share of
/// the run; `setup_s` is the median set-up.
pub const SETUPS: usize = 20;
/// Length of the traced sub-passes of the workloads other than the one
/// named (a traced run prints every per-layer metric).
const SHORT_SECONDS: f64 = 2.0;

/// `kv-read`'s mix, which `ladder` replays: 64Ki keys, zipf 0.99, 100 B
/// values, 10% writes.
pub const KV_READ_MIX: Mix = Mix {
    keys: 64 * 1024,
    theta: 0.99,
    write_pct: 10,
    value_len: 100,
};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    KvRead,
    KvWrite,
    Ladder,
    HotShards,
}

/// Every workload with the reason it is in the benchmark.
const WORKLOADS: [(Workload, &str, &str); 4] = [
    (
        Workload::KvRead,
        "kv-read",
        "closed-loop reads over loopback: the net and harness reactor/pool layers take most of each request",
    ),
    (
        Workload::KvWrite,
        "kv-write",
        "open-loop writes at a fixed rate: memtable freezes and foreground compaction set the tail",
    ),
    (
        Workload::Ladder,
        "ladder",
        "one thread, no network: kv-read's stream on every layer in turn, so a layer's cost is one subtraction",
    ),
    (
        Workload::HotShards,
        "hot-shards",
        "two threads on four Hemlock shards: the paper's contended regime of lock handover and FIFO admission",
    ),
];

/// End-to-end metrics, printed by untraced runs of every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("footprint_bytes", "bytes"),
];

/// Per-layer metrics, printed by traced runs of every workload.
const PER_LAYER: [(&str, &str); 35] = [
    ("core.lock_unlock_ns", "ns"),
    ("core.mutex_op_ns", "ns"),
    ("core.fifo_spread", "ratio"),
    ("shard.point_op_ns", "ns"),
    ("shard.batch1_op_ns", "ns"),
    ("shard.batch_op_ns", "ns"),
    ("shard.contended_frac", "ratio"),
    ("shard.op_p99_ns", "ns"),
    ("harness.pool_batch_op_ns", "ns"),
    ("pool.polls_per_op", "ratio"),
    ("pool.wakes_per_op", "ratio"),
    ("minikv.point_op_ns", "ns"),
    ("minikv.batch_op_ns", "ns"),
    ("minikv.async_batch_op_ns", "ns"),
    ("minikv.batch_size_mean", "ops"),
    ("minikv.get_p99_us", "us"),
    ("minikv.put_p99_us", "us"),
    ("minikv.freezes", "count"),
    ("minikv.compactions", "count"),
    ("net.service_p50_us", "us"),
    ("net.service_p99_us", "us"),
    ("net.rtt_minus_service_us", "us"),
    ("bench.client_send_us", "us"),
    ("bench.client_wait_us", "us"),
    ("bench.gen_lag_p99_us", "us"),
    ("trace.decode_us", "us"),
    ("trace.queue_us", "us"),
    ("trace.lockwait_us", "us"),
    ("trace.hold_us", "us"),
    ("trace.flush_us", "us"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.joined_requests", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("slo_miss_frac", "ratio"),
    ("error_frac", "ratio"),
];

/// What one run measured and whether every output checked out.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Records `ops` failed operations (0 for a failed whole-run check)
    /// and why; any failure makes the run incorrect.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.fail(0, format!("{name} is not a finite number ({value})"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Folds `other` in; a metric already present keeps its value.
    fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.notes.extend(other.notes);
        for m in other.metrics {
            if !self.metrics.iter().any(|(n, ..)| *n == m.0) {
                self.metrics.push(m);
            }
        }
    }

    fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, ..)| n == name)
    }
}

/// The end-to-end figures of a run, gathered window by window.
///
/// A run sets up `SETUPS` fresh instances and measures each for an equal
/// share of the run in short windows. It reports the median window: the
/// median of window throughputs and the medians across windows of each
/// window's exact latency percentiles. Set-up time and peak memory are
/// medians across instances. Medians keep a run steady where other
/// tenants of a shared host slow parts of it, and where the loopback
/// workloads' threads, outnumbering the CPUs, fall into fast and slow
/// scheduling modes.
#[derive(Default)]
pub struct Windows {
    setup: Vec<f64>,
    rss: Vec<f64>,
    instance_t0: Option<std::time::Instant>,
    rate: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    /// Latency samples in the smallest window, and beyond its p99.
    fewest: Option<(usize, usize)>,
    pub footprint: usize,
}

impl Windows {
    /// Starts an instance: its set-up is timed from here and its peak
    /// memory counted from here.
    pub fn start_instance(&mut self) {
        sys::reset_peak_rss();
        self.instance_t0 = Some(std::time::Instant::now());
    }

    /// Ends the instance's set-up.
    pub fn setup_done(&mut self) {
        self.setup_done_scaled(1.0);
    }

    /// Ends the instance's set-up and records its time times `scale`.
    pub fn setup_done_scaled(&mut self, scale: f64) {
        let t0 = self.instance_t0.take().expect("start_instance first");
        self.setup.push(t0.elapsed().as_secs_f64() * scale);
    }

    /// Ends the instance: records its peak memory.
    pub fn end_instance(&mut self) {
        self.rss.push(sys::peak_rss_mib());
    }

    /// One window's throughput and latency samples (nanoseconds).
    pub fn add(&mut self, ops_per_s: f64, latency: &stats::Dist) {
        self.rate.push(ops_per_s);
        if latency.len() > 0 {
            self.p50.push(latency.pct_us(50.0));
            self.p99.push(latency.pct_us(99.0));
            let n = (latency.len(), latency.beyond(99.0));
            self.fewest = Some(self.fewest.map_or(n, |f| f.min(n)));
        }
    }

    pub fn p99_us(&self) -> f64 {
        stats::median(&self.p99)
    }

    pub fn report(&self, report: &mut Report) {
        let q = |xs: &[f64]| [0.1, 0.25, 0.5, 0.75, 0.9].map(|q| stats::quantile(xs, q));
        report.note(format!(
            "{} windows, quantiles 10/25/50/75/90: ops/s {:.0?}, p50 us {:.3?}, p99 us {:.3?}",
            self.rate.len(),
            q(&self.rate),
            q(&self.p50),
            q(&self.p99)
        ));
        if let Some((n, beyond)) = self.fewest {
            report.note(format!(
                "the smallest window holds {n} latency samples, {beyond} beyond its p99"
            ));
        }
        report.metric("ops_per_s", stats::median(&self.rate), "1/s");
        report.metric("p50_us", stats::median(&self.p50), "us");
        report.metric("p99_us", self.p99_us(), "us");
        report.note(format!("set-ups (s): {:?}", self.setup));
        report.metric("setup_s", stats::median(&self.setup), "s");
        report.note(format!("instance peak RSS (MiB): {:?}", self.rss));
        report.metric("peak_rss_mib", stats::median(&self.rss), "MiB");
        report.metric("footprint_bytes", self.footprint as f64, "bytes");
    }
}

struct Args {
    workload: Workload,
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.1 == v)
                    .ok_or(format!("unknown workload {v:?}"))?;
                workload = Some((w.0, w.1));
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// The untraced run of `w`.
fn end_to_end(a: &Args, report: &mut Report) {
    match a.workload {
        Workload::KvRead => kv::run(&kv::KV_READ, a.seed, a.seconds, report),
        Workload::KvWrite => kv::run(&kv::KV_WRITE, a.seed, a.seconds, report),
        Workload::Ladder => ladder::run(a.seed, a.seconds, false, report),
        Workload::HotShards => hot::run(a.seed, a.seconds, false, report),
    }
}

/// The traced pass. Every per-layer metric is printed whatever the
/// workload, so the layers a workload leaves idle get a short pass of the
/// workload that loads them; the named workload gets the full length. The
/// loopback metrics both KV workloads produce come from the named one
/// when it is a KV workload, else from `kv-read`.
fn per_layer(a: &Args, report: &mut Report) {
    let secs = |w: Workload| {
        if w == a.workload {
            a.seconds
        } else {
            SHORT_SECONDS.min(a.seconds)
        }
    };
    let mut kv_read = Report::default();
    kv::layers(&kv::KV_READ, a.seed, secs(Workload::KvRead), &mut kv_read);
    let mut kv_write = Report::default();
    kv::layers(
        &kv::KV_WRITE,
        a.seed,
        secs(Workload::KvWrite),
        &mut kv_write,
    );
    let (first, second) = if a.workload == Workload::KvWrite {
        (kv_write, kv_read)
    } else {
        (kv_read, kv_write)
    };
    report.absorb(first);
    report.absorb(second);
    let mut rungs = Report::default();
    ladder::run(a.seed, secs(Workload::Ladder), true, &mut rungs);
    report.absorb(rungs);
    let mut hot = Report::default();
    hot::run(a.seed, secs(Workload::HotShards), true, &mut hot);
    report.absorb(hot);
}

/// Machine fingerprint: results from different fingerprints are never
/// compared.
fn fingerprint() -> (usize, String, &'static str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
    (nproc, cpu, env!("PERFBENCH_RUSTC"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The commit when the checkout is a git work tree, else "none".
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a over the path and bytes of every source file that builds the
/// measured program and the benchmark, so results of unchanged code can
/// be recognised without git.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "src", "perfbench/src"] {
        walk(&root.join(d), &mut files);
    }
    for f in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <kv-read|kv-write|ladder|hot-shards> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let root = repo_root();
    let (nproc, cpu, rustc) = fingerprint();
    let provenance = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{}}},\"commit\":{},\"source_hash\":{}}}",
        json_str(a.name),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        json_str(&cpu),
        json_str(rustc),
        json_str(&commit(&root)),
        json_str(&source_hash(&root)),
    );
    println!("# provenance {provenance}");
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == a.workload)
        .map_or("", |w| w.2);
    println!("# workload {}: {why}", a.name);

    let mut report = Report::default();
    let expected: &[(&str, &str)] = if a.trace {
        per_layer(&a, &mut report);
        &PER_LAYER
    } else {
        end_to_end(&a, &mut report);
        &END_TO_END
    };
    for (name, _) in expected {
        if !report.has(name) {
            report.fail(0, format!("metric {name} was not measured"));
            report.metric(name, 0.0, "missing");
        }
    }
    report
        .metrics
        .retain(|(n, ..)| expected.iter().any(|(e, _)| e == n));
    report
        .metrics
        .sort_by_key(|(n, ..)| expected.iter().position(|(e, _)| e == n));

    for line in &report.notes {
        println!("# {line}");
    }
    for p in &report.problems {
        println!("# FAILED CHECK: {p}");
        eprintln!("perfbench: FAILED CHECK: {p}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed
    );
    let dir = root.join("perfbench").join("results");
    let record = format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n");
    let saved = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("runs.jsonl"))?
            .write_all(record.as_bytes())
    });
    if let Err(e) = saved {
        eprintln!("perfbench: could not append to {}: {e}", dir.display());
    }
    println!("{result}");
}
