//! The mediator benchmark: end-to-end metrics per workload, and
//! per-layer self times from a separate traced run.
//!
//! ```text
//! perfbench --workload <adhoc_wide|bulk_fetch|server_zipf> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every answer is
//! checked outside the timed region; the process exits non-zero when
//! any query failed or answered wrongly. See NOTES.md.
//!
//! `BENCHMARK.json` lists `bulk_fetch` and `server_zipf`. `adhoc_wide`
//! runs the same way but is left out of that list: its single-threaded
//! search and proof change speed by up to 1.7x with the host's load, so
//! its runs only compare in alternated parent/change pairs (NOTES.md,
//! "Noise").

mod measure;
mod report;
mod server;
mod single;
mod trace;
mod world;

use single::{Path, Workload};

/// The single-client workloads.
const ADHOC_WIDE: Workload = Workload {
    name: "adhoc_wide",
    spec: world::wide_spec,
    // Two of m = 5 and 6 for each 7 and 8 puts the median mid-way
    // through the m = 6 queries and p90 inside the m = 8 ones, away
    // from the jumps between them.
    m_values: &[5, 5, 6, 6, 7, 8],
    sel: (0.1, 0.5),
    path: Path::Sequential,
    fixed_queries: 100,
    fingerprint_queries: 12,
};

const BULK_FETCH: Workload = Workload {
    name: "bulk_fetch",
    spec: world::bulk_spec,
    m_values: &[2, 3],
    sel: (0.3, 0.6),
    path: Path::ParallelFetch,
    fixed_queries: 100,
    fingerprint_queries: 6,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
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
    let report = match args.workload.as_str() {
        "adhoc_wide" => single::run(&ADHOC_WIDE, args.seed, args.seconds, args.trace),
        "bulk_fetch" => single::run(&BULK_FETCH, args.seed, args.seconds, args.trace),
        "server_zipf" => server::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = report.print() {
        eprintln!("perfbench: cannot write results: {e}");
        std::process::exit(1);
    }
    if report.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload cut down to its fingerprint prefix, so a test run is
    /// short.
    fn short(wl: Workload) -> Workload {
        Workload {
            fixed_queries: wl.fingerprint_queries,
            ..wl
        }
    }

    #[test]
    fn single_client_fingerprints_repeat_byte_for_byte() {
        for wl in [short(ADHOC_WIDE), short(BULK_FETCH)] {
            let a = single::run(&wl, 3, 0.01, false);
            let b = single::run(&wl, 3, 0.01, false);
            assert_eq!((a.failed, b.failed), (0, 0), "{}", wl.name);
            assert_eq!(
                a.fingerprint.to_json(wl.name, 3),
                b.fingerprint.to_json(wl.name, 3)
            );
        }
    }

    #[test]
    fn server_fingerprint_repeats_byte_for_byte() {
        let a = server::run(3, 0.01, false);
        let b = server::run(3, 0.01, false);
        assert_eq!((a.failed, b.failed), (0, 0));
        assert!(a.fingerprint.queries > 0);
        assert_eq!(
            a.fingerprint.to_json(server::NAME, 3),
            b.fingerprint.to_json(server::NAME, 3)
        );
    }

    #[test]
    fn traced_run_times_the_layers_and_keeps_the_fingerprint() {
        let wl = short(ADHOC_WIDE);
        let plain = single::run(&wl, 5, 0.01, false);
        let traced = single::run(&wl, 5, 0.01, true);
        assert_eq!(traced.failed, 0);
        assert_eq!(
            plain.fingerprint.to_json(wl.name, 5),
            traced.fingerprint.to_json(wl.name, 5)
        );
        for layer in [
            "sql.parse_us",
            "core.optimizer.sja_us",
            "core.analyze.prove_us",
            "exec.interp.run_us",
        ] {
            assert!(traced.metrics[layer] > 0.0, "{layer} was not timed");
        }
        assert!(traced
            .spans
            .as_deref()
            .is_some_and(|s| s.contains("core.postopt")));
    }
}
