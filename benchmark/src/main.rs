//! The repo benchmark: four loopback transfer workloads through one
//! in-process node, end-to-end metrics with bounds, a per-layer cost
//! ledger and a client-side trace.  See `README.md` beside this crate.
//!
//! ```text
//! blast-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! blast-benchmark [--aa] [--seed <n>] [--seconds <s>]
//! ```
//!
//! With `--workload`, one run in this process: the last line of standard
//! output is the result object (`--trace 0`: every end-to-end metric;
//! `--trace 1`: every per-layer metric).  Without it, every workload
//! runs untraced then traced, each in a fresh child process of this
//! binary, and a table is printed; `--aa` does that twice and compares.

#![forbid(unsafe_code)]

mod channel;
mod json;
mod ledger;
mod names;
mod procfs;
mod report;
mod spans;
mod stats;
mod workload;

use std::io;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use blast_counting_alloc::CountingAlloc;

use json::Value;
use names::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use workload::{Kind, Rig};

// Counts every allocation in the process, for
// `counting-alloc.allocs_per_datagram`.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Share of `--seconds` each of the two windows of a traced run gets;
/// the ledger takes most of the rest.
const TRACED_WINDOW_SHARE: f64 = 0.4;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::from_name(&name).ok_or(format!("unknown workload {name}"))?;
                args.workload = Some(kind);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// What one run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// One workload, untraced: set up [`SETUPS`] times (the last rig
/// measures), one window of `seconds`, every end-to-end metric.
fn run_untraced(kind: Kind, seed: u64, seconds: f64) -> io::Result<(Outcome, Rig)> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = rig.take() {
            previous.finish()?;
        }
        let t0 = Instant::now();
        rig = Some(Rig::build(kind, seed, false)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("SETUPS > 0");
    let window = rig.window(seconds);
    let stored = rig.verify_store();
    println!("{}", report::latency_note(&window));
    let outcome = Outcome {
        correct: window.failed == 0 && stored,
        attempted: window.ops.len() as u64,
        failed: window.failed,
        metrics: report::end_to_end(&window, stats::median(&setups)),
    };
    Ok((outcome, rig))
}

/// One workload, traced: the ledger, an untraced window for the
/// counters, then a fresh rig with the node's recorder and the client's
/// channel trace on; every per-layer metric.  The client spans are
/// dumped as Chrome-trace JSON under `out/`.
fn run_traced(kind: Kind, seed: u64, seconds: f64) -> io::Result<(Outcome, Rig)> {
    let ledger = ledger::measure()?;
    let mut rig = Rig::build(kind, seed, false)?;
    let plain = rig.window(seconds * TRACED_WINDOW_SHARE);
    let plain_stored = rig.verify_store();
    rig.finish()?;

    let mut rig = Rig::build(kind, seed, true)?;
    let traced = rig.window(seconds * TRACED_WINDOW_SHARE);
    let traced_stored = rig.verify_store();

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(out_dir)?;
    let dump = spans::chrome_trace(kind.name(), &traced.spans, &traced.calls);
    std::fs::write(format!("{out_dir}/trace_{}.json", kind.name()), dump)?;

    let failed = plain.failed + traced.failed;
    let outcome = Outcome {
        correct: failed == 0 && plain_stored && traced_stored,
        attempted: (plain.ops.len() + traced.ops.len()) as u64,
        failed,
        metrics: report::per_layer(&ledger, &plain, &traced, kind.node_sends()),
    };
    Ok((outcome, rig))
}

/// The driver-facing mode: one workload in this process.
fn run_single(kind: Kind, args: &Args) -> io::Result<bool> {
    let (outcome, rig) = if args.trace {
        run_traced(kind, args.seed, args.seconds)?
    } else {
        run_untraced(kind, args.seed, args.seconds)?
    };
    let mut provenance = vec![
        ("workload", kind.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("operations", outcome.attempted.to_string()),
        ("netio_backend", rig.netio_backend()),
        ("offload", rig.offload()),
        ("blast_netio_env", "unset".to_string()),
    ];
    rig.finish()?;
    provenance.extend(procfs::provenance());

    for (name, value) in &outcome.metrics {
        println!("{name:<40} {value:>16.4} {}", report::unit_of(name));
    }
    println!("{}", report::provenance_line(&provenance));
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(outcome.correct)
}

/// Run one workload in a fresh child process of this binary (so peak
/// RSS, CPU time, allocation counts and the process-global offload
/// switch start clean) and parse the result object it ends with.
fn run_child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> io::Result<Value> {
    let child = Command::new(std::env::current_exe()?)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let parsed = stdout.lines().last().and_then(json::parse);
    parsed.ok_or_else(|| io::Error::other(format!("{}: no result line", kind.name())))
}

/// Every workload, untraced then traced; `order` picks the sequence.
/// Returns, per workload in `Kind::ALL` order, the two result objects.
fn run_set(order: &[Kind], seed: u64, seconds: f64) -> io::Result<Vec<(Value, Value)>> {
    let mut results: Vec<Option<(Value, Value)>> = vec![None; Kind::ALL.len()];
    for &kind in order {
        eprintln!("running {} (seed {seed}, {seconds} s) ...", kind.name());
        let untraced = run_child(kind, seed, seconds, false)?;
        let traced = run_child(kind, seed, seconds, true)?;
        let slot = Kind::ALL.iter().position(|k| *k == kind).expect("listed");
        results[slot] = Some((untraced, traced));
    }
    Ok(results.into_iter().flatten().collect())
}

fn metric(result: &Value, name: &str) -> f64 {
    let value = result.get("metrics").and_then(|m| m.get(name));
    value
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn all_correct(set: &[(Value, Value)]) -> bool {
    let ok = |r: &Value| r.get("correct").and_then(Value::as_bool) == Some(true);
    set.iter().all(|(u, t)| ok(u) && ok(t))
}

/// The metric × workload tables of one set, as Markdown.
fn print_set(set: &[(Value, Value)]) {
    let header: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    println!("| metric | unit | {} |", header.join(" | "));
    println!("|---|---|{}", "---:|".repeat(header.len()));
    let count = |key: &str| {
        let cells: Vec<String> = set
            .iter()
            .map(|(u, _)| {
                let n = u.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                format!("{n}")
            })
            .collect();
        println!("| {key} | count | {} |", cells.join(" | "));
    };
    for (name, unit, _, _) in END_TO_END {
        let cells: Vec<String> = set
            .iter()
            .map(|(u, _)| format!("{:.4}", metric(u, name)))
            .collect();
        println!("| {name} | {unit} | {} |", cells.join(" | "));
    }
    count("attempted");
    count("failed");
    println!();
    println!("| per-layer metric | unit | {} |", header.join(" | "));
    println!("|---|---|{}", "---:|".repeat(header.len()));
    for (name, unit, _) in PER_LAYER {
        let cells: Vec<String> = set
            .iter()
            .map(|(_, t)| format!("{:.4}", metric(t, name)))
            .collect();
        println!("| {name} | {unit} | {} |", cells.join(" | "));
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let change = stats::ratio(second - first, first);
    match better {
        Better::Higher => -change,
        Better::Lower => change,
    }
}

/// The A/A table: the second set against the first, per end-to-end
/// metric × workload, against each bound.  Returns whether every cell
/// stayed within its bound.
fn print_aa(first: &[(Value, Value)], second: &[(Value, Value)]) -> bool {
    let header: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    println!("| metric | bound | {} |", header.join(" | "));
    println!("|---|---:|{}", "---:|".repeat(header.len()));
    let mut within = true;
    for (name, _, better, bound) in END_TO_END {
        let cells: Vec<String> = first
            .iter()
            .zip(second)
            .map(|((a, _), (b, _))| {
                let w = worsening(better, metric(a, name), metric(b, name));
                // Either set could have been the parent: the A/A check
                // is symmetric.
                let over = w.abs() > bound;
                within &= !over;
                format!("{:+.2} %{}", w * 100.0, if over { " **over**" } else { "" })
            })
            .collect();
        println!(
            "| {name} | {:.0} % | {} |",
            bound * 100.0,
            cells.join(" | ")
        );
    }
    within
}

fn run_all(args: &Args) -> io::Result<bool> {
    let forward = Kind::ALL;
    let first = run_set(&forward, args.seed, args.seconds)?;
    println!(
        "## Results (seed {}, {} s per run)\n",
        args.seed, args.seconds
    );
    print_set(&first);
    let mut ok = all_correct(&first);
    if args.aa {
        let mut reversed = forward;
        reversed.reverse();
        let second = run_set(&reversed, args.seed, args.seconds)?;
        println!("\n## Second set, workload order reversed\n");
        print_set(&second);
        println!("\n## A/A: second set against the first (positive = worse)\n");
        let within = print_aa(&first, &second);
        println!(
            "\n{}",
            if within {
                "Every end-to-end metric agrees within its bound."
            } else {
                "At least one end-to-end metric differs by more than its bound."
            }
        );
        ok &= all_correct(&second) && within;
    }
    let provenance = procfs::provenance();
    println!("\n{}", report::provenance_line(&provenance));
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("blast-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A forced backend must not pass as the default one.
    if std::env::var_os("BLAST_NETIO").is_some() {
        eprintln!("blast-benchmark: BLAST_NETIO is set; the workloads measure the default backend");
        return ExitCode::from(2);
    }
    let run = match args.workload {
        Some(kind) => run_single(kind, &args),
        None => run_all(&args),
    };
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("blast-benchmark: an operation failed or an output did not verify");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("blast-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }
}
