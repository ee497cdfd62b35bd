//! Standalone load generator for the `mithra serve` TCP front end: spawns
//! an in-process server and hammers it with pipelined connections. Same
//! flags as `mithra loadgen`; see `coverage_bench::loadgen`.

use std::process::ExitCode;

fn main() -> ExitCode {
    match coverage_bench::loadgen::parse_args(std::env::args().skip(1))
        .and_then(|config| coverage_bench::loadgen::run(&config))
    {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
