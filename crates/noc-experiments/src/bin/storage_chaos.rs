//! `storage_chaos`: every storage fault at every write site, with a
//! restart and a byte-identical-recovery oracle.
//!
//! ```text
//! storage_chaos [--out DIR] [--max-sites N]
//! ```
//!
//! Enumerates every write operation the reference workload performs (a
//! checkpointed quick sweep plus a whole-file summary artifact), then for
//! each (write op × fault kind) combination — ENOSPC, EIO, torn write,
//! failed rename, crash-after-partial-write — injects exactly that fault,
//! restarts on healthy storage, and asserts the recovered row set is
//! byte-identical to an uninterrupted run with every bad record counted
//! and quarantined. `--max-sites` time-boxes the sweep for CI.
//!
//! Exit status 0 when every combination recovers identically; 1 when any
//! diverged (a `repro_site<N>_<kind>.json` with the exact
//! `NOC_VFS_FAULT_SCHEDULE` lands in the output directory); 2 on bad
//! flags or environment (`NOC_THREADS` and `NOC_VFS_FAULT_*` are
//! validated eagerly).

use noc_experiments::cli;
use noc_experiments::storage_chaos::run_storage_chaos;
use std::path::PathBuf;

fn main() {
    let args = cli::args();
    let mut out_dir = PathBuf::from("target/storage_chaos");
    let mut max_sites: Option<u64> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--out" => out_dir = PathBuf::from(val("--out")),
            "--max-sites" => {
                max_sites = Some(val("--max-sites").parse().unwrap_or_else(|_| {
                    eprintln!("bad value for --max-sites");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                println!("usage: storage_chaos [--out DIR] [--max-sites N]");
                return;
            }
            other => {
                eprintln!("unknown flag '{other}' (see --help)");
                std::process::exit(2);
            }
        }
    }

    let report = match run_storage_chaos(&out_dir, max_sites) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("storage-chaos: harness error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "storage-chaos: {} write sites, {} combinations, {} bad line(s) \
         detected+quarantined, {} divergence(s) — report {}",
        report.sites,
        report.combos,
        report.quarantined,
        report.divergences.len(),
        out_dir.join("storage_chaos.json").display(),
    );
    for d in &report.divergences {
        eprintln!(
            "  DIVERGED at write op {} (schedule \"{}\"): {}",
            d.site, d.schedule, d.detail
        );
    }
    if !report.all_match() {
        std::process::exit(1);
    }
}
