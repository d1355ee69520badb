//! `network_chaos`: every network fault at every connection-op, on both
//! sides, with a client-convergence oracle.
//!
//! ```text
//! network_chaos [--out DIR] [--max-sites N]
//! ```
//!
//! Runs a reference client→server job interaction (in-process `noc-serve`
//! over loopback), enumerates every connection operation each side
//! performs, then for each (side × connection-op × fault kind)
//! combination — reset, torn read/write, slow trickle, accept failure,
//! sticky partition with heal — injects exactly that fault and requires
//! the client to converge: job DONE, CRC-verified rows byte-identical to
//! the fault-free run. `--max-sites` time-boxes the sweep for CI.
//!
//! Exit status 0 when every combination converges; 1 when any diverged (a
//! `repro_<side>_site<N>_<kind>.json` with the exact
//! `NOC_NET_FAULT_SCHEDULE` lands in the output directory); 2 on bad
//! flags or environment (`NOC_THREADS`, `NOC_VFS_FAULT_*`,
//! `NOC_NET_FAULT_*` are validated eagerly, before any socket opens).

use std::path::PathBuf;
use std::process::exit;

use noc_client::soak::run_network_chaos;

fn main() {
    // Eager validation, before any listener binds or socket connects.
    if let Err(e) = rayon::env_threads() {
        eprintln!("error: {e}");
        exit(2);
    }
    if let Err(e) = noc_experiments::cli::validate_vfs_env() {
        eprintln!("error: {e}");
        exit(2);
    }
    if let Err(e) = noc_net::validate_env() {
        eprintln!("error: {e}");
        exit(2);
    }

    let mut out_dir = PathBuf::from("target/network_chaos");
    let mut max_sites: Option<u64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(val("--out")),
            "--max-sites" => {
                max_sites = Some(val("--max-sites").parse().unwrap_or_else(|_| {
                    eprintln!("bad value for --max-sites");
                    exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("usage: network_chaos [--out DIR] [--max-sites N]");
                return;
            }
            other => {
                eprintln!("unknown flag '{other}' (see --help)");
                exit(2);
            }
        }
    }

    let report = match run_network_chaos(&out_dir, max_sites) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("network-chaos: harness error: {e}");
            exit(1);
        }
    };
    println!(
        "network-chaos: {} client + {} server connection ops, {} combinations, \
         {} dedupe hit(s) absorbed, {} divergence(s) — report {}",
        report.client_sites,
        report.server_sites,
        report.combos,
        report.dedupe_hits,
        report.divergences.len(),
        out_dir.join("network_chaos.json").display(),
    );
    for d in &report.divergences {
        eprintln!(
            "  DIVERGED on the {} side at op {} (NOC_NET_FAULT_SCHEDULE=\"{}\"): {}",
            d.side, d.site, d.schedule, d.detail
        );
    }
    if !report.all_match() {
        exit(1);
    }
}
