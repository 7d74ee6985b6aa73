//! `cobtree-perfbench` — the repository's benchmark: one command, three
//! workloads, end-to-end metrics from plain runs and per-layer metrics
//! from traced runs. See `README.md` beside this crate for every metric
//! and the workload each one is measured on.
//!
//! ```text
//! cobtree-perfbench --workload lookup-uniform|serve-mixed|ingest-churn
//!                   --seed N --seconds S --trace 0|1
//!                   --serve-bin PATH --out-dir DIR
//! ```
//!
//! The last line of standard output is the JSON result. The process
//! exits 1 when any answer was wrong or an acknowledged write was lost,
//! and 2 on bad arguments or a failed set-up.

mod ingest;
mod layers;
mod lookup;
mod report;
mod rng;
mod serve;
mod sys;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics every workload reports from a plain run. Each
/// workload maps them onto its own operations (see `README.md`).
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "ops/s"),
    ("read_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports from a traced run. A count
/// is 0 on a workload that does not drive its layer.
const PER_LAYER: [(&str, &str); 28] = [
    ("forest.route_ns", "ns"),
    ("kernel.search_ns", "ns"),
    ("kernel.reference_ns", "ns"),
    ("kernel.batch_ns_per_key", "ns"),
    ("cursor.scan_ns_per_key", "ns"),
    ("cachesim.l1_miss_per_op", "count"),
    ("cachesim.l2_miss_per_op", "count"),
    ("cachesim.l3_miss_per_op", "count"),
    ("cachesim.blocks_per_query_p99", "count"),
    ("cachesim.blocks_per_query_max", "count"),
    ("cachesim.scan_l1_miss_per_key", "count"),
    ("proc.cpu_s", "s"),
    ("proc.minflt", "count"),
    ("proc.majflt", "count"),
    ("proc.ctx_switches", "count"),
    ("format.disk_bytes_per_key", "bytes"),
    ("io.bytes_written", "bytes"),
    ("io.write_calls", "count"),
    ("io.syncs", "count"),
    ("io.renames", "count"),
    ("io.bytes_read", "bytes"),
    ("io.write_s", "s"),
    ("tiered.flushes", "count"),
    ("server.busy", "count"),
    ("server.timeouts", "count"),
    ("gen.sent", "count"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: PathBuf,
    pub serve_bin: PathBuf,
    /// Present in traced runs.
    pub tracer: Option<Tracer>,
}

impl Ctx {
    /// A share of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("cobtree-perfbench: {msg}");
    eprintln!(
        "usage: cobtree-perfbench --workload lookup-uniform|serve-mixed|ingest-churn \
         --seed N --seconds S --trace 0|1 --serve-bin PATH --out-dir DIR"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = String::new();
    let mut seed: Option<u64> = None;
    let mut seconds: Option<f64> = None;
    let mut traced: Option<bool> = None;
    let mut serve_bin: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = value,
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0 && *s <= 600.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(seed), Some(seconds), Some(traced), Some(out_dir)) = (seed, seconds, traced, out_dir)
    else {
        usage("--seed, --seconds (0 < S <= 600), --trace 0|1 and --out-dir are required");
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        usage(&format!("cannot create {}: {e}", out_dir.display()));
    }
    let mut ctx = Ctx {
        seed,
        seconds,
        out_dir,
        serve_bin: serve_bin.unwrap_or_default(),
        tracer: traced.then(Tracer::new),
    };
    let mut rep = Report::default();
    let outcome = match workload.as_str() {
        "lookup-uniform" => lookup::run(&mut ctx, &mut rep),
        "serve-mixed" => serve::run(&mut ctx, &mut rep),
        "ingest-churn" => ingest::run(&mut ctx, &mut rep),
        other => usage(&format!("unknown workload '{other}'")),
    };
    if let Err(e) = outcome {
        eprintln!("cobtree-perfbench: {workload}: {e}");
        std::process::exit(2);
    }
    rep.set("failed_frac", rep.failed_frac(), "ratio");
    if let Some(tracer) = &ctx.tracer {
        let path = ctx
            .out_dir
            .join(format!("trace-{workload}-{}.jsonl", std::process::id()));
        if let Err(e) = tracer.write(&path) {
            eprintln!("cobtree-perfbench: writing {}: {e}", path.display());
            std::process::exit(2);
        }
        for (name, spans, mean_ns, self_ns) in tracer.self_times() {
            println!(
                "span {workload} {name} spans={spans} mean_ns={mean_ns:.1} self_ns_per_op={self_ns:.1}"
            );
        }
        println!("trace {workload} {}", path.display());
    }
    rep.print_lines(&workload);
    let contract: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    println!("{}", rep.json_line(contract));
    if rep.wrong > 0 {
        std::process::exit(1);
    }
}
