//! `perfbench` — the layered benchmark of the ceer serving stack.
//!
//! ```text
//! perfbench --workload <predict_miss|predict_hot|mixed_rw|cluster_sim>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). See
//! `perfbench/README.md`.

mod cluster;
mod gen;
mod layers;
mod records;
mod report;
mod serve;
mod setup;
mod speed;
mod stats;
mod trace;

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <predict_miss|predict_hot|mixed_rw|cluster_sim> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let seconds = seconds.ok_or(USAGE)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    Ok(Args {
        workload: workload.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds,
        trace: trace.ok_or(USAGE)?,
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let http = |w| serve::run(w, args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "predict_miss" => http(serve::Workload::PredictMiss),
        "predict_hot" => http(serve::Workload::PredictHot),
        "mixed_rw" => http(serve::Workload::MixedRw),
        "cluster_sim" => cluster::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    let nproc = setup::nproc();
    // With client and server threads on different CPUs, every hand-off
    // wakes an idle virtual CPU, which on a busy shared host costs as much
    // as a hot round trip in some runs and nothing in others (unpinned,
    // `predict_hot` throughput spread 0.66 of its median over ten seeds,
    // pinned 0.06). So every workload runs on one CPU: set-up, server,
    // compute pool and load generator inherit the mask. Only the answer
    // checks, which are not measured, use every CPU.
    let result = setup::pin_to_one_cpu().and_then(|()| run(&args));
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} par_threads={} git_rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        ceer_par::threads(),
        setup::git_rev()
    );
    match result {
        Ok(outcome) if outcome.attempted > 0 => {
            if !outcome.print(&header, args.trace) {
                std::process::exit(1);
            }
        }
        Ok(_) => {
            eprintln!("perfbench: no request was attempted");
            std::process::exit(2);
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    }
}
