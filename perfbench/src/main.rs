//! `perfbench --workload <rmat|grid|grid-nb|serve> --seed <n>
//! --seconds <s> --trace <0|1>`: run one workload and print detail
//! lines, then one JSON result line. Run it from the repository root,
//! e.g. `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload rmat --seed 1 --seconds 25 --trace 0`. The exit code is 0
//! only when every checked operation was correct.
//!
//! Two more flags serve the smoke test: `--sizes tiny` shrinks every
//! input, and `--corrupt <app>` perturbs every result of one app before
//! the correctness gate sees it.

use std::process::ExitCode;

use perfbench::apps::App;
use perfbench::{run, Config, Sizes, Workload};

fn parse() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sizes = Sizes::full();
    let mut corrupt = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--sizes" => {
                sizes = match value.as_str() {
                    "full" => Sizes::full(),
                    "tiny" => Sizes::tiny(),
                    _ => return Err(format!("--sizes takes full or tiny, not {value}")),
                }
            }
            "--corrupt" => {
                corrupt = Some(App::parse(&value).ok_or(format!("unknown app {value}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        sizes,
        corrupt,
        out_dir: ".bench_out".into(),
    })
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(rep) => {
            for line in &rep.notes {
                println!("# {line}");
            }
            for m in &rep.mismatches {
                println!("# MISMATCH {m}");
            }
            println!("{}", rep.to_json());
            if rep.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} checked operations failed",
                    rep.failed, rep.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
