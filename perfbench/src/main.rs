//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --steady-rps <r> --overload-rps <r> \
//!     --workload <kernel-dial|kernel-abft|serve-openloop> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is the result object; README.md documents every
//! workload and metric.

mod adapter;
mod inputs;
mod kernel;
mod reference;
mod report;
mod serve;

use report::Report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: (f64, f64),
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        let v = get(flag)?;
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
            _ => Err(format!("{flag} must be a positive number, got {v:?}")),
        }
    };
    let seed = get("--seed")?;
    let trace = get("--trace")?;
    Ok(Args {
        workload: get("--workload")?,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed must be an unsigned integer, got {seed:?}"))?,
        seconds: num("--seconds")?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, got {trace:?}")),
        },
        rates: (num("--steady-rps")?, num("--overload-rps")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    let tracer = match args.workload.as_str() {
        "kernel-dial" => kernel::run(args.seed, args.seconds, args.trace, false, &mut report),
        "kernel-abft" => kernel::run(args.seed, args.seconds, args.trace, true, &mut report),
        "serve-openloop" => {
            serve::run(args.seed, args.seconds, args.trace, args.rates, &mut report)
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: writing {path}: {e}");
        report.check(false, "trace written");
    }
    report.finish();
}
