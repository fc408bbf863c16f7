//! Demo of the open-loop serving path: builds a deterministic static-LUT
//! admission table, replays a synthetic request stream through the dynamic
//! batching window — optionally under a bounded queue, a shed policy and a
//! chaos schedule — and prints the report. Per-exit latencies are also
//! measured and printed for context, but admission uses a **fixed** cost
//! table so the replay outcome (responses, sheds, counters) is byte-identical
//! across machines, thread counts and repeated runs.
//!
//! Knobs (all environment variables):
//! * `IE_SERVE_THREADS` — worker threads (default: machine parallelism, ≤4)
//! * `IE_SERVE_WINDOW` — max requests per batch (default 8)
//! * `IE_SERVE_DEADLINE_MS` — window deadline in milliseconds (default 2)
//! * `IE_SERVE_REQUESTS` — number of requests to replay (default 512)
//! * `IE_SERVE_QUEUE_CAP` — bounded queue capacity (default 0 = unbounded)
//! * `IE_SERVE_SHED` — shed policy: `reject` | `drop-oldest` | `degrade`
//! * `IE_CHAOS_SEED` — chaos schedule seed (default 0 = no chaos)
//!
//! `--out <path>` writes the deterministic slice of the run (counters,
//! virtual-clock percentiles, a response digest) as JSON — the CI chaos
//! matrix diffs these files across worker counts per seed.

use ie_nn::dataset::SyntheticDataset;
use ie_nn::spec::tiny_multi_exit;
use ie_nn::train::{classify_thread_override, BatchPlanPool, ThreadOverride};
use ie_nn::MultiExitNetwork;
use ie_runtime::{LatencyAdmission, StateDiscretizer};
use ie_serve::{
    serve_threads, ChaosPlan, OverloadConfig, Request, Response, ServeConfig, Server, Verdict,
    WindowConfig,
};
use std::time::Instant;

/// Resolves a positive-integer knob from its raw environment value: the
/// value itself when it is a positive integer, otherwise `default`. A
/// set-but-invalid value (`abc`, `0`) also yields the warning to print, so a
/// mislabelled run cannot pass for a configured one.
fn parse_knob(var: &str, raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    match classify_thread_override(raw) {
        ThreadOverride::Threads(n) => (n, None),
        ThreadOverride::Unset => (default, None),
        ThreadOverride::Invalid { value, .. } => (
            default,
            Some(format!(
                "warning: ignoring {var}={value:?} (not a positive integer); \
                 falling back to {default}"
            )),
        ),
    }
}

fn env_usize(var: &str, default: usize) -> usize {
    let (value, warning) = parse_knob(var, std::env::var(var).ok().as_deref(), default);
    if let Some(warning) = warning {
        eprintln!("{warning}");
    }
    value
}

/// Measures each exit's single-input latency (seconds) on the planned path
/// (a one-slot plan). Informational only — admission uses the fixed cost
/// table below.
fn calibrate(network: &MultiExitNetwork, probe: &ie_tensor::Tensor) -> Vec<f64> {
    let mut plan = network.batch_plan(1);
    let reps = 20;
    (0..network.num_exits())
        .map(|exit| {
            let t0 = Instant::now();
            for _ in 0..reps {
                network
                    .forward_to_exit_batch_with(&mut plan, &[probe], exit)
                    .expect("calibration pass");
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect()
}

/// FNV-1a over the deterministic response content — the replay byte-identity
/// witness the CI chaos matrix compares across worker counts.
fn digest_responses(responses: &[Response]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for r in responses {
        eat(&r.id.to_le_bytes());
        match &r.verdict {
            Verdict::Served { exit, prediction, confidence } => {
                eat(&[0]);
                eat(&(*exit as u64).to_le_bytes());
                eat(&(*prediction as u64).to_le_bytes());
                eat(&confidence.to_bits().to_le_bytes());
            }
            Verdict::Rejected => eat(&[1]),
            Verdict::Shed { reason } => {
                eat(&[2]);
                eat(&[*reason as u8]);
            }
        }
    }
    h
}

fn main() {
    let out_path = {
        let mut args = std::env::args().skip(1);
        let mut out = None;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--out" => out = Some(args.next().expect("--out needs a path")),
                other => panic!("unknown argument {other:?} (only --out <path> is supported)"),
            }
        }
        out
    };
    let threads = serve_threads();
    let window = WindowConfig {
        max_batch: env_usize("IE_SERVE_WINDOW", 8),
        deadline_s: env_usize("IE_SERVE_DEADLINE_MS", 2) as f64 / 1000.0,
    };
    let overload = OverloadConfig::from_env();
    let chaos = ChaosPlan::from_env();
    let total = env_usize("IE_SERVE_REQUESTS", 512);

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(42);
    let network =
        MultiExitNetwork::from_architecture(&tiny_multi_exit(3), &mut rng).expect("demo network");
    let data = SyntheticDataset::generate(3, 8, total, 0.1, 7);
    let samples: Vec<_> = data.train().iter().chain(data.test()).cloned().collect();

    let measured = calibrate(&network, &samples[0].image);
    println!(
        "measured per-exit latency (us): {:?} (informational)",
        measured.iter().map(|c| (c * 1e6).round()).collect::<Vec<_>>()
    );
    // Fixed, platform-independent cost table: exit i costs 2^i · 2 ms. Using
    // it (instead of the measurement) keeps admission decisions — and
    // therefore the whole replay — byte-identical everywhere.
    let costs: Vec<f64> =
        (0..network.num_exits()).map(|i| 0.002 * f64::powi(2.0, i as i32)).collect();
    let accuracies = vec![0.6; network.num_exits()];
    let mut admission =
        LatencyAdmission::static_lut(costs.clone(), accuracies, StateDiscretizer::paper_default())
            .expect("admission table");

    // Open-loop stream at 2× the deepest-exit service rate (gap = half the
    // cheapest exit's cost), budgets sweeping from below the cheapest exit
    // (rejected) to beyond the deepest (full depth) — sustained overload, so
    // a bounded queue has something to shed and `degrade` something to save.
    let gap_s = costs[0] / 2.0;
    let max_cost = costs.last().copied().unwrap_or(1e-3);
    let requests: Vec<Request> = (0..total)
        .map(|i| Request {
            id: i as u64,
            arrival_s: i as f64 * gap_s,
            budget_s: (i % 10) as f64 / 6.0 * max_cost,
            input: samples[i % samples.len()].image.clone(),
        })
        .collect();

    let mut pool = BatchPlanPool::new();
    let config = ServeConfig { window, threads, overload };
    let mut server = Server::new(&network, config, &mut pool).expect("server config");
    let outcome = server.replay_chaotic(&mut admission, &requests, &chaos).expect("replay");
    for plan in server.into_plans() {
        pool.put(plan);
    }

    let r = &outcome.report;
    assert!(r.conservation_holds(), "request conservation violated");
    let queue_cap_knob = if overload.queue_cap == usize::MAX { 0 } else { overload.queue_cap };
    println!("policy          : {}", admission.policy_name());
    println!(
        "threads x window: {threads} x {} (deadline {:.1} ms)",
        window.max_batch,
        window.deadline_s * 1e3
    );
    println!(
        "overload        : cap {} ({}), chaos seed {}",
        queue_cap_knob,
        overload.policy.name(),
        chaos.seed
    );
    println!("served/rej/shed : {} / {} / {} (of {})", r.served, r.rejected, r.shed, r.submitted);
    println!(
        "degraded        : {} | retried {} | restarted {} | stalled {}",
        r.degraded, r.retried, r.restarted, r.stalled
    );
    println!("per-exit served : {:?}", r.per_exit);
    println!("batches (fill)  : {} ({:.2})", r.batches, r.mean_batch_fill);
    println!(
        "queue wait      : p50 {:.3} ms, p99 {:.3} ms",
        r.wait_p50_s * 1e3,
        r.wait_p99_s * 1e3
    );
    println!(
        "latency         : p50 {:.3} ms, p99 {:.3} ms",
        r.latency_p50_s * 1e3,
        r.latency_p99_s * 1e3
    );
    println!(
        "throughput      : {:.0} req/s raw, {:.0} req/s goodput ({} met deadline)",
        r.throughput_rps, r.goodput_rps, r.deadline_met
    );

    if let Some(path) = out_path {
        // Only the deterministic slice of the run: no thread count, no
        // wall-clock timing — `diff` across worker counts must come up empty.
        let per_exit = r.per_exit.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ");
        let json = format!(
            "{{\n  \"requests\": {},\n  \"window\": {},\n  \"deadline_ms\": {},\n  \
             \"queue_cap\": {},\n  \"shed_policy\": \"{}\",\n  \"chaos_seed\": {},\n  \
             \"submitted\": {},\n  \"served\": {},\n  \"rejected\": {},\n  \"shed\": {},\n  \
             \"degraded\": {},\n  \"retried\": {},\n  \"restarted\": {},\n  \"stalled\": {},\n  \
             \"deadline_met\": {},\n  \"batches\": {},\n  \"per_exit\": [{}],\n  \
             \"wait_p50_us\": {},\n  \"wait_p99_us\": {},\n  \"responses_fnv1a\": \"{:#018x}\"\n}}\n",
            total,
            window.max_batch,
            window.deadline_s * 1e3,
            queue_cap_knob,
            overload.policy.name(),
            chaos.seed,
            r.submitted,
            r.served,
            r.rejected,
            r.shed,
            r.degraded,
            r.retried,
            r.restarted,
            r.stalled,
            r.deadline_met,
            r.batches,
            per_exit,
            r.wait_p50_s * 1e6,
            r.wait_p99_s * 1e6,
            digest_responses(&outcome.responses),
        );
        std::fs::write(&path, json).expect("write --out file");
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::parse_knob;

    #[test]
    fn malformed_knobs_fall_back_with_a_warning() {
        for bad in ["abc", "0"] {
            let (value, warning) = parse_knob("IE_SERVE_WINDOW", Some(bad), 8);
            assert_eq!(value, 8, "{bad:?} falls back to the default");
            let warning = warning.expect("a malformed knob is reported");
            assert!(warning.contains("IE_SERVE_WINDOW") && warning.contains(bad), "{warning}");
        }
        assert_eq!(parse_knob("IE_SERVE_WINDOW", Some("16"), 8), (16, None));
        assert_eq!(parse_knob("IE_SERVE_WINDOW", None, 8), (8, None));
    }
}
