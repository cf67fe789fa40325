//! `nodebench`: one end-to-end benchmark of the whole ammBoost node
//! path, with a per-layer budget from a traced replica run. See
//! `README.md` beside this crate for the metric and workload glossary.
//!
//! ```text
//! nodebench --workload <name> [--seed 7] [--seconds 15] [--trace 0|1]
//! ```
//!
//! One process measures one workload. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones; either way the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`, and the exit code is 0 only when
//! every output check passed.

mod driver;
mod e2e;
mod host;
mod json;
mod spec;
mod stats;
mod trace;
mod traced;
mod workloads;

use json::{result_line, Json, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: nodebench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 7;
    let mut seconds = 15;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn metrics_json(metrics: &[Metric], timings: &[(&'static str, stats::Summary)]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if let Some((_, s)) = timings.iter().find(|(name, _)| *name == m.name) {
            fields.push(("n", Json::Int(s.n as u64)));
            fields.push(("min", Json::Num(s.min)));
            fields.push(("q1", Json::Num(s.q1)));
            fields.push(("median", Json::Num(s.median)));
            fields.push(("q3", Json::Num(s.q3)));
            fields.push(("max", Json::Num(s.max)));
        }
        (m.name, Json::obj(fields))
    }))
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nodebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // the node reads mode overrides from its environment; a result taken
    // under one would not be the node's own defaults
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_str().is_some_and(|k| k.starts_with("AMMBOOST_")))
    {
        eprintln!("nodebench: refusing to run with {name:?} set");
        return ExitCode::from(2);
    }

    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = args;
    let host = host::host_block();
    let config = format!("{:?}", workload.config(seed));
    println!(
        "nodebench workload={} seed={seed} seconds={seconds} trace={}",
        workload.name,
        u8::from(trace)
    );
    println!("host: {}", host.render());
    println!("why: {}", workload.why);
    println!("config: {config}");

    let mode = if trace { "trace" } else { "e2e" };
    let mut detail = vec![
        ("workload", Json::str(workload.name)),
        ("why", Json::str(workload.why)),
        ("mode", Json::str(mode)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Int(seconds)),
        ("host", host),
        ("config", Json::Str(config)),
    ];

    let (attempted, failed, mut problems, metrics) = if trace {
        let out = traced::run(workload, seed, seconds);
        println!(
            "{} pairs; fastest untraced System::run {:.1} ms, fastest traced replica {:.1} ms",
            out.pairs, out.untraced_wall_ms, out.replica_wall_ms
        );
        for m in &out.metrics {
            let in_budget = traced::in_run_layer(m.name) || m.name == "core.system.residual_ms";
            let share = if in_budget {
                format!("{:6.2} % of run", m.value / out.untraced_wall_ms * 100.0)
            } else {
                String::new()
            };
            println!("  {:34} {:>16.3} {:8} {share}", m.name, m.value, m.unit);
        }
        for note in &out.notes {
            println!("note: {note}");
        }
        let path = out_dir().join(format!("{}.trace.jsonl", workload.name));
        std::fs::write(&path, &out.trace_jsonl).expect("write the trace file");
        println!("trace written to {}", path.display());
        detail.push(("pairs", Json::Int(out.pairs as u64)));
        detail.push(("untraced_wall_ms", Json::Num(out.untraced_wall_ms)));
        detail.push(("replica_wall_ms", Json::Num(out.replica_wall_ms)));
        detail.push(("metrics", metrics_json(&out.metrics, &[])));
        (out.attempted, out.failed, out.problems, out.metrics)
    } else {
        let out = e2e::run(workload, seed, seconds);
        for m in &out.metrics {
            let spread = out
                .timings
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, s)| {
                    format!(
                        "best of n={} (q1 {:.4}, median {:.4}, q3 {:.4})",
                        s.n, s.q1, s.median, s.q3
                    )
                })
                .unwrap_or_default();
            println!("  {:26} {:>18.4} {:9} {spread}", m.name, m.value, m.unit);
        }
        println!("fingerprint: {:?}", out.fingerprint);
        detail.push(("metrics", metrics_json(&out.metrics, &out.timings)));
        detail.push(("fingerprint", Json::Str(format!("{:?}", out.fingerprint))));
        (out.attempted, out.failed, out.problems, out.metrics)
    };

    let section = if trace { "per_layer" } else { "end_to_end" };
    let reported: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if reported != spec::metrics(section) {
        problems.push(format!(
            "metrics differ from BENCHMARK.json's {section}: {reported:?}"
        ));
    }
    let correct = problems.is_empty();
    for p in &problems {
        println!("INCORRECT: {p}");
    }
    detail.push(("correct", Json::Bool(correct)));
    detail.push(("attempted", Json::Int(attempted)));
    detail.push(("failed", Json::Int(failed)));
    detail.push((
        "problems",
        Json::Arr(problems.iter().map(Json::str).collect()),
    ));
    let path = out_dir().join(format!("{}.{mode}.json", workload.name));
    std::fs::write(&path, Json::obj(detail).render() + "\n").expect("write the result file");

    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "fat_idle",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.name, "fat_idle");
        assert_eq!((args.seed, args.seconds, args.trace), (11, 10, true));
        let defaults = parse(&["--workload", "paper_default"]).unwrap();
        assert_eq!((defaults.seed, defaults.trace), (7, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "fat_idle", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "fat_idle", "--seed"]).is_err());
        assert!(parse(&["--workload", "fat_idle", "--seed", "x"]).is_err());
        assert!(parse(&["--workload", "fat_idle", "--bogus", "1"]).is_err());
    }

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(json::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
