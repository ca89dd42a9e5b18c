//! The repo benchmark. One invocation runs one workload once:
//!
//! ```text
//! snorkel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! ```
//!
//! It prints every metric as `name value unit n=<samples>`, the
//! correctness checks, (traced) the stage table, and last one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--out`
//! appends the full record as one JSON line. See `README.md`.

mod fixture;
mod gen;
mod load;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads {
    pub mod pipeline_dev;
    pub mod read;
    pub mod replicated;
}

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::RunResult;

const WORKLOADS: [&str; 4] = ["pipeline_dev", "read_hot", "read_cold", "replicated_mixed"];

/// The set-up runs at least `MIN_SETUPS` times and `setup_s` is the
/// median; a cheap set-up (tens of milliseconds, too noisy to compare
/// across commits from three samples) repeats until `SETUP_BUDGET` is
/// spent or `MAX_SETUPS` is reached.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

impl Opts {
    fn parse() -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 20,
            trace: false,
            out: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} {value}: not a number"))
            };
            match flag.as_str() {
                "--workload" => opts.workload = value,
                "--seed" => opts.seed = number()?,
                "--seconds" => opts.seconds = number()?.max(1),
                "--trace" => opts.trace = number()? != 0,
                "--out" => opts.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?}"));
        }
        Ok(opts)
    }

    /// An empty result carrying this run's identity and host facts.
    pub fn result(&self) -> RunResult {
        RunResult {
            workload: self.workload.clone(),
            seed: self.seed,
            seconds: self.seconds,
            traced: self.trace,
            env: fixture::env_info(),
            ..RunResult::default()
        }
    }
}

/// Set up repeatedly, tearing down all but the last fixture; returns
/// the median set-up time with its sample count, and the last fixture.
pub fn median_setup<F>(
    mut build: impl FnMut() -> F,
    mut tear_down: impl FnMut(F),
) -> ((f64, usize), F) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        if let Some(previous) = kept.take() {
            tear_down(previous);
        }
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    let n = times.len();
    (
        (stats::median(&mut times), n),
        kept.expect("MIN_SETUPS is at least 1"),
    )
}

fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Close a traced run: check that the stage table sums to the window,
/// write the spans to `benchmark/out/trace_<workload>.json`, and attach
/// the table to the result.
pub fn finish_trace(result: &mut RunResult, table: trace::StageTable, tracers: &[trace::Tracer]) {
    let error = table.max_sum_error();
    result.layer("bench.stage_sum_error", error, table.rows.len());
    result.check(
        "stage table rows sum to the measured window within 1 %",
        error < 0.01,
    );
    let path = out_dir().join(format!("trace_{}.json", result.workload));
    std::fs::write(&path, trace::spans_json(&result.workload, tracers)).expect("write trace file");
    println!("# trace written to {}", path.display());
    result.stage_table = Some(table);
}

fn main() -> ExitCode {
    let opts = match Opts::parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("snorkel-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload.as_str() {
        "pipeline_dev" => workloads::pipeline_dev::run(&opts),
        "read_hot" => workloads::read::run(&opts, false),
        "read_cold" => workloads::read::run(&opts, true),
        _ => workloads::replicated::run(&opts),
    };
    print!("{}", result.render());
    if let Some(path) = &opts.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open --out file");
        writeln!(file, "{}", result.record_json()).expect("append to --out file");
    }
    println!("{}", result.contract_json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
