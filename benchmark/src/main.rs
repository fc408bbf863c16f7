//! End-to-end and per-layer benchmark of the intermittent multi-exit
//! workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_pipeline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every run measures all four stages — the paper pipeline, live LeNet
//! serving, the fleet and LeNet training — so every run reports every
//! metric. The workload names the stage that runs at full size and gets the
//! bulk of the time; the other three run at probe size. `--trace 1` prints
//! the per-layer metrics instead of the end-to-end ones and writes every
//! span to `.bench_out/`.

mod fleet;
mod kernels;
mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::Report;
use stats::{median, secs_since};
use std::time::Instant;
use trace::Tracer;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync + 'static>>;

/// How large a stage runs in this workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload's own stage, at the size its description names.
    Full,
    /// One of the other three stages, smaller, so every metric is measured.
    Probe,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperPipeline,
    ServeLenet,
    FleetMixed,
    TrainLenet,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::PaperPipeline, Workload::ServeLenet, Workload::FleetMixed, Workload::TrainLenet];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperPipeline => "paper_pipeline",
            Workload::ServeLenet => "serve_lenet",
            Workload::FleetMixed => "fleet_mixed",
            Workload::TrainLenet => "train_lenet",
        }
    }

    /// Units of `stage` in one round of this workload. A full-size pipeline
    /// or fleet pass lasts seconds and runs once; a probe-size fleet pass is
    /// a tenth of a second and runs four times; every other unit runs twice,
    /// so each stage collects enough samples for a steady median.
    fn units_of(self, stage: Workload) -> usize {
        match (stage, self.scale_of(stage)) {
            (Workload::PaperPipeline | Workload::FleetMixed, Scale::Full) => 1,
            (Workload::FleetMixed, Scale::Probe) => 4,
            _ => 2,
        }
    }

    fn scale_of(self, stage: Workload) -> Scale {
        if self == stage {
            Scale::Full
        } else {
            Scale::Probe
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// Everything the stages need, built from the seed.
struct Stages {
    pipeline: pipeline::PipelineStage,
    serve: serve::ServeStage,
    fleet: fleet::FleetStage,
    train: train::TrainStage,
}

fn set_up(args: &Args) -> BenchResult<Stages> {
    let w = args.workload;
    let pipeline = pipeline::PipelineInputs::new(args.seed, w.scale_of(Workload::PaperPipeline))?;
    // Building the compression environment builds the trace, the events and
    // the evaluator once.
    ie_search::CompressionEnv::new(&pipeline.configs[0], ie_search::RewardMode::ExitGuided)?;
    Ok(Stages {
        pipeline: pipeline::PipelineStage::new(pipeline),
        serve: serve::ServeStage::new(serve::ServeInputs::new(
            args.seed,
            w.scale_of(Workload::ServeLenet),
        )?),
        fleet: fleet::FleetStage::new(fleet::FleetInputs::new(
            args.seed,
            w.scale_of(Workload::FleetMixed),
        )?),
        train: train::TrainStage::new(train::TrainInputs::new(
            args.seed,
            w.scale_of(Workload::TrainLenet),
        )?),
    })
}

fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn print_header(args: &Args, stages: &Stages) {
    let w = args.workload;
    let p = stages.pipeline.inputs();
    let env_seeds: Vec<String> = p
        .configs
        .iter()
        .map(|c| format!("{}/{}/{}", c.event_seed, c.trace_seed, c.simulation_seed))
        .collect();
    let fleet = &stages.fleet.inputs().config;
    let train = stages.train.inputs();
    println!("# run header: deterministic fields");
    println!("#   workload {} seed {}", w.name(), args.seed);
    println!(
        "#   paper_pipeline ({:?}): search_seed {} episodes {} adaptation episodes {} threads 1; \
         event/trace/simulation seeds {}",
        w.scale_of(Workload::PaperPipeline),
        p.search_seed,
        p.size.search_episodes,
        p.size.adaptation_episodes,
        env_seeds.join(" ")
    );
    println!(
        "#   serve_lenet ({:?}): workers {} generator threads 1 window {} deadline {} ms nominal {} rps",
        w.scale_of(Workload::ServeLenet),
        serve::WORKERS,
        serve::WINDOW,
        serve::DEADLINE_S * 1e3,
        serve::NOMINAL_RPS
    );
    println!(
        "#   fleet_mixed ({:?}): devices {} master_seed {} threads {}",
        w.scale_of(Workload::FleetMixed),
        fleet.num_devices,
        fleet.master_seed,
        fleet::THREADS
    );
    println!(
        "#   train_lenet ({:?}): train samples {} epochs {} batch {} threads {}",
        w.scale_of(Workload::TrainLenet),
        train.train.len(),
        train.config.epochs,
        train::BATCH,
        train::THREADS
    );
    println!("# run header: environment and wall-clock fields");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("#   isa_tier {} nproc {nproc}", ie_tensor::dispatch::active().name());
    let overrides: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("IE_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "#   IE_* overrides: {}",
        if overrides.is_empty() { "none".to_string() } else { overrides.join(" ") }
    );
    println!("#   rustc {}", env!("IE_BENCH_RUSTC_VERSION"));
    println!("#   git commit {}", git_commit());
    println!("#   seconds {} trace {}", args.seconds, u8::from(args.trace));
}

/// Set-ups per run; the median is `setup_s` and the last one is used.
const SETUPS: usize = 5;
/// Rounds every run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;

fn run(args: &Args) -> BenchResult<Report> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut stages = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        stages = Some(set_up(args)?);
        setups.push(secs_since(t0));
    }
    let mut stages = stages.expect("set up at least once");
    report.e2e("setup_s", median(&setups), "s");
    report.samples("setup_s", &setups);
    print_header(args, &stages);

    // Rounds: each takes units of every stage — the workload's own stage at
    // full size, the other three at probe size — so every stage's samples
    // spread over the whole run and a slow spell of the machine touches a
    // few samples of each rather than all samples of one. A traced run
    // alternates untraced and traced rounds; the ratio of the two is the
    // tracing overhead.
    let mut tr = Tracer::new(false);
    let w = args.workload;
    let started = Instant::now();
    let mut rounds = 0;
    // A new round starts only while half a round more still ends near
    // `--seconds`, so a run lasts about that long on average.
    while rounds < MIN_ROUNDS || {
        let elapsed = secs_since(started);
        elapsed + 0.5 * elapsed / (rounds as f64) < args.seconds
    } {
        tr.set_enabled(args.trace && rounds % 2 == 1);
        for _ in 0..w.units_of(Workload::PaperPipeline) {
            stages.pipeline.step(&mut tr)?;
        }
        for _ in 0..w.units_of(Workload::FleetMixed) {
            stages.fleet.step(&mut tr)?;
        }
        for _ in 0..w.units_of(Workload::TrainLenet) {
            stages.train.step(&mut tr)?;
        }
        for _ in 0..w.units_of(Workload::ServeLenet) {
            stages.serve.step(&mut tr)?;
        }
        rounds += 1;
    }
    tr.set_enabled(false);
    println!("# {rounds} rounds in {:.2} s", secs_since(started));
    let Stages { pipeline, serve, fleet, train } = stages;
    let network = serve.inputs().network.clone();
    let images = serve.inputs().images.clone();
    pipeline.finish(&mut tr, args.trace, &mut report)?;
    fleet.finish(&mut tr, args.trace, &mut report)?;
    train.finish(&mut tr, args.trace, &mut report)?;
    serve.finish(&mut tr, args.trace, &mut report)?;
    if args.trace {
        kernels::run(&network, &images, &mut tr, &mut report)?;
        report.counts_as_layers();
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        std::fs::write(&path, tr.to_json())?;
        println!("# spans written to {}", path.display());
    }
    report.e2e("peak_rss_mb", peak_rss_mb()?, "MB");
    Ok(report)
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <paper_pipeline|serve_lenet|fleet_mixed|train_lenet> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.body());
    println!("# wall time {:.2} s", secs_since(started));
    match report.result_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            if report.failed() > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
