//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints a table of its metrics, and ends with one JSON
//! result line. `--trace 1` runs the traced variant: per-layer metrics, and
//! the spans written to `perfbench/out/<workload>-seed<N>.trace.json`
//! (Chrome `trace_event`, opens in Perfetto).
//! `--print-sim-golden` prints the default-seed simulator results in the
//! format of `sim_golden.txt`.

use perfbench::report::{self, RECONCILE_TOLERANCE};
use perfbench::{nproc, RunCfg, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --print-sim-golden";

struct Args {
    workload: String,
    cfg: RunCfg,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        workers: nproc(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, cfg })
}

fn write_trace(path: &str, spans: &[perfbench::probe::Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    perfbench::probe::write_chrome(&mut w, spans)?;
    w.flush()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-sim-golden") {
        println!(
            "# app procs ipsc_exec_bits ipsc_messages ipsc_comm_bytes dash_exec_bits dash_bytes"
        );
        for row in perfbench::sim::golden_rows() {
            println!("{}", row.golden_line());
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    println!(
        "== {} seed={} seconds={} trace={} workers={} ==",
        args.workload, cfg.seed, cfg.seconds, cfg.traced as u8, cfg.workers
    );
    let mut out = match args.workload.as_str() {
        "stress-batches" => perfbench::stress::run(&cfg),
        "apps-fixed" => perfbench::apps::run(&cfg),
        "service-closed" => perfbench::service::run(&cfg),
        "sim-paper" => perfbench::sim::run(&cfg),
        _ => unreachable!("workload validated in parse"),
    };
    out.set("peak_rss_mb", perfbench::peak_rss_mb());
    if cfg.traced {
        let gap = out
            .metrics
            .get("bench.reconcile_gap")
            .copied()
            .unwrap_or(1.0);
        if gap > RECONCILE_TOLERANCE {
            out.fail(
                0,
                format!("reconcile gap {gap:.4} exceeds tolerance {RECONCILE_TOLERANCE}"),
            );
        }
        let path = format!(
            "perfbench/out/{}-seed{}.trace.json",
            args.workload, cfg.seed
        );
        match write_trace(&path, &out.spans) {
            Ok(()) => out.note(format!("wrote {} spans to {path}", out.spans.len())),
            Err(e) => out.fail(0, format!("cannot write {path}: {e}")),
        }
    }
    print!("{}", report::table(&out, cfg.traced));
    println!("{}", report::json_line(&out, cfg.traced));
    ExitCode::SUCCESS
}
