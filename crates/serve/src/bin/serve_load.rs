//! Load generator for `enprop-serve`.
//!
//! ```text
//! serve-load --addr HOST:PORT [--clients N] [--requests N] [--hot N]
//!            [--seed S] [--arch k40c|p100] [--n N] [--products P] [--chunk C]
//! ```
//!
//! Spawns N concurrent clients issuing a mixed hot/cold key stream and
//! prints the [`LoadReport`](enprop_serve::LoadReport) as JSON, whose
//! `rejected` counts the requests an overloaded daemon shed with a 503.
//! Exits non-zero unless every request got a 200 and every hot key's
//! responses agreed.

use enprop_serve::{run_load, LoadOptions};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut addr: Option<SocketAddr> = None;
    let mut options = LoadOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |flag: &str| {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--addr" => {
                    let v = next("--addr")?;
                    addr = Some(
                        v.to_socket_addrs()
                            .map_err(|e| format!("--addr {v:?}: {e}"))?
                            .next()
                            .ok_or_else(|| format!("--addr {v:?} resolves to nothing"))?,
                    );
                }
                "--clients" => options.clients = parse(&next("--clients")?)?,
                "--requests" => options.requests_per_client = parse(&next("--requests")?)?,
                "--hot" => options.hot_keys = parse(&next("--hot")?)?,
                "--seed" => options.seed_base = parse(&next("--seed")?)?,
                "--arch" => options.arch = next("--arch")?,
                "--n" => options.n = parse(&next("--n")?)?,
                "--products" => options.products = parse(&next("--products")?)?,
                "--chunk" => options.chunk = parse(&next("--chunk")?)?,
                "--help" | "-h" => {
                    usage();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("serve-load: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    }
    let Some(addr) = addr else {
        eprintln!("serve-load: --addr is required");
        usage();
        return ExitCode::FAILURE;
    };

    let report = run_load(addr, &options);
    match serde_json::to_string_pretty(&report) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("serve-load: cannot serialize report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.ok == report.requests && report.hot_identical && report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("cannot parse {value:?}"))
}

fn usage() {
    eprintln!(
        "usage: serve-load --addr HOST:PORT [--clients N] [--requests N] [--hot N] \
         [--seed S] [--arch k40c|p100] [--n N] [--products P] [--chunk C]"
    );
}
