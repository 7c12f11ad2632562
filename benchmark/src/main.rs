//! The repository's benchmark: four cluster workloads measured end to end
//! and, with `--trace 1`, layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! tb-benchmark [--workload W] [--seed N] [--seconds S | --repeats K] [--trace [0|1]]
//! tb-benchmark --check
//! tb-benchmark compare a.json b.json
//! ```
//!
//! Run from the root of the checkout: `BENCHMARK.json` is read from, and
//! `benchmark/out/` written to, the current directory.

mod contract;
mod e2e;
mod host;
mod json;
mod probes;
mod report;
mod stats;
mod walk;
mod workloads;

use contract::Contract;
use e2e::{Budget, WorkloadRun};
use json::{obj, Json};
use report::WorkloadResult;
use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Net, Spec, REPLICAS, SPECS};

/// Where result and trace files go, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";

/// Executor-probe batches in a full run, and in `--check`.
const PROBE_BATCHES: usize = 100;
const CHECK_PROBE_BATCHES: usize = 10;

struct Options {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: Option<f64>,
    repeats: Option<usize>,
    trace: bool,
    check: bool,
    /// Only for the internal `repeat` subcommand: rounds of the one repeat,
    /// and whether to check the TCP run against its sim twin.
    rounds: Option<u64>,
    twin: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: None,
        repeats: None,
        trace: false,
        check: false,
        rounds: None,
        twin: false,
    };
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                options.workload = Some(workloads::spec(name).ok_or_else(|| {
                    let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {name}; known: {known:?}")
                })?);
            }
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                options.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--repeats" => {
                options.repeats = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--repeats: {e}"))?,
                )
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                options.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--check" => options.check = true,
            "--rounds" => {
                options.rounds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                )
            }
            "--twin" => options.twin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    // The TCP workload re-executes this binary as its node image.
    if tb_launcher::maybe_run_node_from_env() {
        return ExitCode::SUCCESS;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("repeat") => parse_options(&args[1..]).and_then(run_repeat),
        Some("compare") => run_compare(&args[1..]),
        _ => parse_options(&args).and_then(run_benchmark),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("tb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Keeps every scoped `TempDir` (WAL directories of nodes, walk and probes)
/// inside the checkout: `tb_storage::TempDir` creates under the system temp
/// directory, which this redirects. Child processes inherit it.
fn confine_temp_dirs() -> Result<PathBuf, String> {
    let out = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(OUT_DIR);
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(out)
}

/// The internal `repeat` subcommand: one end-to-end repeat in this process,
/// reported as one JSON line.
fn run_repeat(options: Options) -> Result<bool, String> {
    let spec = options.workload.ok_or("repeat: --workload is missing")?;
    let rounds = options.rounds.unwrap_or(spec.rounds);
    println!("{}", spec.run_repeat(options.seed, rounds, options.twin)?);
    Ok(true)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("usage: compare <base.json> <new.json>".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, any_worse) = report::compare(&Contract::load()?, &load(base)?, &load(new)?);
    for row in &rows {
        println!("{row}");
    }
    println!(
        "{}",
        if any_worse {
            "compare: at least one end-to-end metric is worse by more than its bound"
        } else {
            "compare: no end-to-end metric is worse by more than its bound"
        }
    );
    Ok(!any_worse)
}

fn run_benchmark(options: Options) -> Result<bool, String> {
    let out_dir = confine_temp_dirs()?;
    let specs: Vec<&'static Spec> = match options.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    // `--check` is a smoke run: a tenth of the rounds, two repeats, tracing
    // on, everything held against BENCHMARK.json.
    let trace = options.trace || options.check;
    let (rounds_divisor, probe_batches) = if options.check {
        (10, CHECK_PROBE_BATCHES)
    } else {
        (1, PROBE_BATCHES)
    };
    let budget = match (options.check, options.repeats, options.seconds) {
        (true, _, _) => Budget::Repeats(2),
        (_, Some(repeats), _) => Budget::Repeats(repeats),
        // A traced run spends the other half of its time on walk and probes.
        (_, None, Some(seconds)) => Budget::Seconds(if trace { seconds / 2.0 } else { seconds }),
        (_, None, None) => Budget::Repeats(5),
    };

    let runs = e2e::run(&specs, options.seed, rounds_divisor, budget);

    // The executor and storage probes do not depend on the workload; one
    // pass serves every workload of this invocation.
    let mut shared_layers = Vec::new();
    let mut shared_failures = Vec::new();
    if trace {
        let (executor, write_batches) = probes::executor_probes(options.seed, probe_batches);
        let (storage, failures) = probes::storage_probes(&write_batches)?;
        shared_layers.extend(executor);
        shared_layers.extend(storage);
        shared_failures = failures;
    }

    let mut results = Vec::with_capacity(runs.len());
    for run in &runs {
        let mut failures = run.failures.clone();
        let end_to_end = run.end_to_end();
        let mut per_layer = Vec::new();
        if trace {
            let walked = walk::walk(run.spec, options.seed, run.rounds)?;
            let trace_path = out_dir.join(format!("trace-{}.json", run.spec.name));
            write_file(&trace_path, &walked.trace.to_string())?;
            per_layer.extend(walked.metrics);
            per_layer.push(driver_remainder(
                &end_to_end,
                walked.cluster_layers_us_per_tx,
            ));
            per_layer.extend(run.core_layer());
            per_layer.extend(shared_layers.iter().cloned());
            per_layer.extend(probes::network_probes(&walked.vertex_frames, options.seed)?);
            failures.extend(walked.failures);
            failures.extend(shared_failures.iter().cloned());
        }
        results.push(WorkloadResult {
            name: run.spec.name,
            why: run.spec.why,
            gating: run.spec.digest_repeats,
            conditions: conditions_of(run),
            attempted: run.attempted.max(1),
            failed: run.failed,
            fingerprint: run.fingerprint().map(str::to_string),
            failures,
            end_to_end,
            per_layer,
        });
    }

    for result in &results {
        result.print();
    }
    let mut ok = results.iter().all(WorkloadResult::correct);
    if options.check {
        let problems = report::check_against_contract(&Contract::load()?, &results);
        for problem in &problems {
            println!("check FAILED {problem}");
        }
        ok &= problems.is_empty();
        println!("check {}", if ok { "passed" } else { "failed" });
    }

    let mut conditions = host::conditions();
    if let Json::Obj(fields) = &mut conditions {
        fields.push(("seed".to_string(), options.seed.into()));
        fields.push(("op_cost_ns".to_string(), 0u64.into()));
        fields.push(("budget".to_string(), format!("{budget:?}").into()));
        fields.push(("rounds_divisor".to_string(), rounds_divisor.into()));
    }
    let file = obj([
        ("conditions", conditions),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.name.to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    write_file(&out_dir.join("result.json"), &file.pretty())?;

    // Last line of stdout: what the driver reads.
    println!("{}", report::final_line(&results, trace));
    Ok(ok)
}

/// `core.driver_us_per_tx`: the whole committee's CPU per transaction minus
/// what the walk attributes to the layers (proposer side once, receive and
/// commit side once per replica).
fn driver_remainder(end_to_end: &[Metric], cluster_layers_us_per_tx: f64) -> Metric {
    match end_to_end.iter().find(|m| m.name == "cpu_us_per_tx") {
        Some(cpu) => Metric::single(
            "core.driver_us_per_tx",
            "us",
            cpu.value() - cluster_layers_us_per_tx,
        ),
        // No /proc, no CPU figure to take the layers from.
        None => Metric::single("core.driver_us_per_tx", "us", 0.0).unmeasured(),
    }
}

fn conditions_of(run: &WorkloadRun) -> Json {
    let nproc = host::nproc();
    let mut fields = vec![
        ("rounds", Json::from(run.rounds)),
        ("repeats", run.repeats.len().into()),
        ("executors_requested", run.spec.executors.into()),
        ("executors_effective", run.spec.executors.min(nproc).into()),
        ("validators_requested", run.spec.validators.into()),
        (
            "validators_effective",
            run.spec.validators.min(nproc).into(),
        ),
        ("replicas", u64::from(REPLICAS).into()),
    ];
    if run.spec.net == Net::Tcp {
        fields.push((
            "note",
            format!(
                "a 4-replica committee is the minimum for f = 1: {REPLICAS} node processes on {nproc} cores \
                 oversubscribe this host by construction"
            )
            .into(),
        ));
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let options = parse(&[
            "--workload",
            "sim-cross",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(options.workload.unwrap().name, "sim-cross");
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (7, Some(15.0), false)
        );
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        // A bare `--trace` turns tracing on and swallows nothing.
        let options = parse(&["--trace", "--seed", "9"]).unwrap();
        assert!(options.trace && options.seed == 9);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn driver_remainder_is_cpu_minus_layers() {
        let e2e = [Metric::single("cpu_us_per_tx", "us", 30.0)];
        assert_eq!(driver_remainder(&e2e, 12.5).value(), 17.5);
        assert!(!driver_remainder(&[], 12.5).measured);
    }
}
