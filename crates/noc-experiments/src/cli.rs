//! Shared command-line handling for the experiment binaries.

/// Reads the process arguments (program name dropped), applies the
/// `--threads N` / `--threads=N` flag to the sweep executor, and returns
/// the remaining arguments for the binary's own flags.
///
/// Thread-count precedence (documented, never silent):
///
/// 1. `--threads N` on the command line wins;
/// 2. otherwise the `NOC_THREADS` environment variable;
/// 3. otherwise one thread per available core.
///
/// The environment value is validated *eagerly* here, even when `--threads`
/// overrides it: `NOC_THREADS=0` or a non-numeric value is a configuration
/// error and aborts with exit status 2 rather than being silently replaced
/// by a default. When both knobs are set and disagree, a note is printed so
/// the override is visible. `--threads 1` forces strictly sequential sweeps.
/// Results are identical for any thread count — the executor only changes
/// wall-clock time.
///
/// The storage-fault knobs are validated the same way (see
/// [`validate_vfs_env`]): `NOC_VFS_FAULT_SCHEDULE` must be a well-formed
/// `op:kind[,op:kind...]` list and `NOC_VFS_FAULT_SEED` an unsigned
/// integer; garbage aborts with exit status 2 before any I/O happens.
/// When both are set, explicit schedule events win at their op index and
/// the seed fills the rest. Unset means no fault injection (`StdVfs`).
///
/// The network-fault knobs follow suit (see [`validate_net_env`]):
/// `NOC_NET_FAULT_SCHEDULE` / `NOC_NET_FAULT_SEED` are checked here so a
/// garbage value aborts with exit status 2 before any socket opens, even
/// in binaries that never touch the network (a typo'd knob should fail
/// loudly, not be ignored by the one binary that happens not to read it).
pub fn args() -> Vec<String> {
    let env = match rayon::env_threads() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = validate_vfs_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    if let Err(e) = validate_net_env() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let n = if a == "--threads" {
            argv.next()
        } else {
            a.strip_prefix("--threads=").map(str::to_string)
        };
        match n {
            Some(n) => match n.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    if let Some(env_n) = env {
                        if env_n != n {
                            eprintln!("note: --threads {n} overrides NOC_THREADS={env_n}");
                        }
                    }
                    rayon::set_num_threads(n);
                }
                _ => {
                    eprintln!("--threads expects a positive integer, got {n:?}");
                    std::process::exit(2);
                }
            },
            None => rest.push(a),
        }
    }
    rest
}

/// Eagerly validates the `NOC_VFS_FAULT_SCHEDULE` / `NOC_VFS_FAULT_SEED`
/// environment knobs, same contract as `NOC_THREADS`: unset means "no
/// fault injection", garbage is an error for the caller to turn into exit
/// status 2 — never a silent fallback to fault-free I/O (a soak that
/// silently stopped injecting would report vacuous green).
pub fn validate_vfs_env() -> Result<(), String> {
    noc_store::FaultPlan::from_env(
        std::env::var("NOC_VFS_FAULT_SCHEDULE").ok().as_deref(),
        std::env::var("NOC_VFS_FAULT_SEED").ok().as_deref(),
    )
    .map(|_| ())
}

/// Eagerly validates the `NOC_NET_FAULT_SCHEDULE` / `NOC_NET_FAULT_SEED`
/// environment knobs — the network twin of [`validate_vfs_env`], same
/// contract: unset means "no fault injection", garbage is an error for
/// the caller to turn into exit status 2, never a silent fallback to a
/// fault-free transport.
pub fn validate_net_env() -> Result<(), String> {
    noc_net::validate_env()
}
