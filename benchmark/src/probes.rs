//! Layer probes: single layers timed in isolation through their public
//! functions, on inputs made from the seed (executor, contracts, storage) or
//! captured from the walk (network frames).

use crate::host;
use crate::stats::{Metric, Summary};
use crate::walk::{Frame, TcpPair, RECEIVER, SENDER};
use crate::workloads::BATCH;
use std::time::{Duration, Instant};
use thunderbolt::prelude::*;
use thunderbolt::tb_network::SimNetwork;
use thunderbolt::tb_storage::WriteBatch;
use thunderbolt::tb_types::wire::Wire;

/// Workers the executor probes ask for. The speed-up figure is only a
/// measurement when the host has at least this many cores.
pub const WORKERS_REQUESTED: usize = 2;

/// The paper-balance synthetic cost per state operation.
const OP_COST_NS: u64 = 2_000;

struct Contention {
    label: &'static str,
    accounts: u64,
    theta: f64,
}

const CONTENTION: [Contention; 2] = [
    Contention {
        label: "uniform",
        accounts: 10_000,
        theta: 0.0,
    },
    Contention {
        label: "hot",
        accounts: 100,
        theta: 0.99,
    },
];

fn smallbank(contention: &Contention, seed: u64) -> SmallBankWorkload {
    SmallBankWorkload::new(SmallBankConfig {
        accounts: contention.accounts,
        theta: contention.theta,
        pr_read: 0.5,
        cross_shard_fraction: 0.0,
        n_shards: 1,
        seed,
        ..SmallBankConfig::default()
    })
}

fn funded_store(workload: &SmallBankWorkload) -> MemStore {
    let store = MemStore::new();
    store.load(workload.initial_state());
    store
}

fn micros_per(elapsed: Duration, count: usize) -> f64 {
    elapsed.as_secs_f64() * 1e6 / count.max(1) as f64
}

/// Executor and contract probes. Also returns the write batches of the
/// uniform, zero-cost CE run, which the storage probes apply.
pub fn executor_probes(seed: u64, batches: usize) -> (Vec<Metric>, Vec<WriteBatch>) {
    let workers = WORKERS_REQUESTED.min(host::nproc());
    let mut metrics = Vec::new();
    let mut per_tx = std::collections::HashMap::new();

    for contention in &CONTENTION {
        let mut workload = smallbank(contention, seed);
        let inputs: Vec<Vec<Transaction>> = (0..batches)
            .map(|_| workload.batch(BATCH, SimTime::ZERO))
            .collect();
        for (cost_label, op_cost_ns) in [("op0", 0), ("op2us", OP_COST_NS)] {
            let config = CeConfig {
                synthetic_op_cost_ns: op_cost_ns,
                ..CeConfig::new(workers, BATCH)
            };
            let engines: [(&str, Box<dyn BatchExecutor>); 4] = [
                ("serial", Box::new(SerialExecutor::from_config(&config))),
                ("ce", Box::new(ConcurrentExecutor::new(config))),
                ("occ", Box::new(OccExecutor::new(config))),
                ("two_pl", Box::new(TwoPlNoWaitExecutor::new(config))),
            ];
            for (engine, executor) in engines {
                let store = funded_store(&workload);
                let mut elapsed = Duration::ZERO;
                let mut reexecutions = 0;
                for txs in &inputs {
                    let started = Instant::now();
                    let result = executor.execute_batch(txs, &store);
                    elapsed += started.elapsed();
                    reexecutions += result.reexecutions;
                }
                let us = micros_per(elapsed, batches * BATCH);
                let name = format!(
                    "executor.{engine}_us_per_tx.{}.{cost_label}",
                    contention.label
                );
                metrics.push(Metric::single(&name, "us", us));
                per_tx.insert((engine, contention.label, cost_label), us);
                if (engine, contention.label, cost_label) == ("ce", "hot", "op2us") {
                    metrics.push(Metric::single(
                        "executor.ce_reexec_per_tx.hot.op2us",
                        "count",
                        reexecutions as f64 / (batches * BATCH) as f64,
                    ));
                }
            }
        }
    }

    metrics.push(Metric::single(
        "executor.ce_overhead_ratio",
        "ratio",
        per_tx[&("ce", "uniform", "op0")] / per_tx[&("serial", "uniform", "op0")],
    ));
    let speedup = Metric::single(
        "executor.ce_speedup_op2us",
        "ratio",
        per_tx[&("serial", "uniform", "op2us")] / per_tx[&("ce", "uniform", "op2us")],
    );
    // With fewer cores than workers the threads take turns on one core and
    // the ratio says nothing about parallel speed-up.
    metrics.push(if host::nproc() < WORKERS_REQUESTED {
        speedup.unmeasured()
    } else {
        speedup
    });

    // Validation re-executes preplayed blocks against the state they were
    // preplayed on, so preplay, validate and apply alternate here.
    let mut workload = smallbank(&CONTENTION[0], seed);
    let store = funded_store(&workload);
    let ce = ConcurrentExecutor::new(CeConfig::new(workers, BATCH).without_synthetic_cost());
    let validation = ValidationConfig::new(workers);
    let mut validate = Duration::ZERO;
    let mut write_batches = Vec::with_capacity(batches);
    for _ in 0..batches {
        let txs = workload.batch(BATCH, SimTime::ZERO);
        let result = ce.preplay(&txs, &store);
        let started = Instant::now();
        let report = validate_block(&result.preplayed, &store, &validation);
        validate += started.elapsed();
        assert!(report.is_valid(), "an honest preplay must validate");
        result.apply_to(&store);
        write_batches.push(result.write_batch());
    }
    metrics.push(Metric::single(
        "executor.validate_us_per_tx",
        "us",
        micros_per(validate, batches * BATCH),
    ));

    metrics.push(contract_probe(seed, batches * BATCH));
    (metrics, write_batches)
}

/// `execute_call` over the bytecode contract workload's calls.
fn contract_probe(seed: u64, calls: usize) -> Metric {
    let mut workload = ContractWorkload::new(ContractWorkloadConfig {
        n_shards: 1,
        seed,
        ..ContractWorkloadConfig::default()
    });
    let mut state = MapState::with_entries(workload.initial_state());
    let inputs: Vec<_> = (0..calls).map(|_| workload.next_call()).collect();
    let started = Instant::now();
    for call in &inputs {
        // A logical abort (insufficient funds) is a result, not an error.
        let _ = std::hint::black_box(execute_call(call, &mut TrackingState::new(&mut state)));
    }
    Metric::single(
        "contracts.interp_us_per_call",
        "us",
        micros_per(started.elapsed(), calls),
    )
}

/// Applies `batches` to both store backends, with a commit marker after
/// each batch on the durable one, then recovers the log just written.
pub fn storage_probes(batches: &[WriteBatch]) -> Result<(Vec<Metric>, Vec<String>), String> {
    let keys: usize = batches.iter().map(WriteBatch::len).sum();
    let mut failures = Vec::new();

    let mem = MemStore::new();
    let mem_store: &dyn Store = &mem;
    let started = Instant::now();
    for batch in batches {
        mem_store.apply_batches(std::slice::from_ref(batch));
    }
    let mem_apply = started.elapsed();

    let dir = TempDir::new("storage-probe").map_err(|e| e.to_string())?;
    let wal = WalStore::open(dir.path(), WalOptions::default()).map_err(|e| e.to_string())?;
    let header_bytes = wal.wal_bytes();
    let mut wal_apply = Duration::ZERO;
    let mut marker_us = Vec::with_capacity(batches.len());
    let mut last_marker = CommitMarker::default();
    {
        let wal_store: &dyn Store = &wal;
        for (i, batch) in batches.iter().enumerate() {
            let started = Instant::now();
            wal_store.apply_batches(std::slice::from_ref(batch));
            wal_apply += started.elapsed();
            last_marker = CommitMarker {
                dag: 0,
                round: i as u64,
                digest: i as u64,
            };
            let started = Instant::now();
            wal_store.commit_marker(last_marker);
            marker_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    let wal_bytes = wal.wal_bytes() - header_bytes;
    let expected = mem.snapshot();
    drop(wal);

    let started = Instant::now();
    let recovered = WalStore::open(dir.path(), WalOptions::default()).map_err(|e| e.to_string())?;
    let recover = started.elapsed();
    if recovered.recovery().last_commit != Some(last_marker) {
        failures.push("storage probe: recovery lost the last commit marker".to_string());
    }
    if !recovered.snapshot().diff_values(&expected).is_empty() {
        failures
            .push("storage probe: recovered state differs from the in-memory store".to_string());
    }

    // A write is a key and an integer value: 16 bytes of payload.
    let logical_bytes = (keys * 16).max(1) as f64;
    let metrics = vec![
        Metric::single(
            "storage.mem_apply_us_per_key",
            "us",
            micros_per(mem_apply, keys),
        ),
        Metric::single(
            "storage.wal_apply_us_per_key",
            "us",
            micros_per(wal_apply, keys),
        ),
        Metric::single(
            "storage.wal_marker_us",
            "us",
            Summary::of(&marker_us).map_or(0.0, |s| s.median),
        ),
        Metric::single(
            "storage.wal_write_amp",
            "ratio",
            wal_bytes as f64 / logical_bytes,
        ),
        Metric::single("storage.wal_recover_ms", "ms", recover.as_secs_f64() * 1e3),
    ];
    Ok((metrics, failures))
}

fn receive(receiver: &mut TcpTransport<Frame>) -> Result<(), String> {
    receiver
        .recv_timeout(Duration::from_secs(10))
        .map(|_| ())
        .map_err(|e| format!("network probe: {e}"))
}

/// How many times the bandwidth probe sends the captured frames.
const BANDWIDTH_PASSES: usize = 8;

/// Moves the walk's vertex frames over a loopback `TcpTransport` pair and
/// the decoded messages through a `SimNetwork`.
pub fn network_probes(frames: &[Vec<u8>], seed: u64) -> Result<Vec<Metric>, String> {
    if frames.is_empty() {
        return Err("network probes: the walk captured no frames".to_string());
    }
    let mut pair: TcpPair<Frame> = TcpPair::connect()?;
    // One frame in flight at a time: the latency of a frame.
    let mut frame_us = Vec::with_capacity(frames.len());
    for frame in frames {
        let message = Frame(frame.clone());
        let started = Instant::now();
        pair.sender
            .send(SENDER, RECEIVER, message)
            .map_err(|e| e.to_string())?;
        receive(&mut pair.receiver)?;
        frame_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    // All frames back to back: the bandwidth of the path.
    let payload: usize = frames.iter().map(Vec::len).sum::<usize>() * BANDWIDTH_PASSES;
    let started = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let sender = &mut pair.sender;
        let sending = scope.spawn(move || -> Result<(), String> {
            for _ in 0..BANDWIDTH_PASSES {
                for frame in frames {
                    sender
                        .send(SENDER, RECEIVER, Frame(frame.clone()))
                        .map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        });
        for _ in 0..BANDWIDTH_PASSES * frames.len() {
            receive(&mut pair.receiver)?;
        }
        sending
            .join()
            .map_err(|_| "network probe: sender panicked".to_string())?
    })?;
    let streaming = started.elapsed();

    // The simulator charges bytes by measuring each message, so it gets the
    // real messages, not opaque frames.
    let messages: Vec<Message> = frames
        .iter()
        .map(|frame| Message::from_wire_bytes(frame).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut net: SimNetwork<Message> = SimNetwork::new(4, LatencyModel::lan(), seed);
    let started = Instant::now();
    let mut events = 0usize;
    for message in messages {
        Transport::broadcast(&mut net, SENDER, message).map_err(|e| e.to_string())?;
        while Transport::recv_timeout(&mut net, Duration::ZERO).is_ok() {
            events += 1;
        }
    }
    let sim = started.elapsed();

    Ok(vec![
        Metric::single(
            "network.tcp_frame_us",
            "us",
            Summary::of(&frame_us).map_or(0.0, |s| s.median),
        ),
        Metric::single(
            "network.tcp_mb_per_s",
            "MB/s",
            payload as f64 / 1e6 / streaming.as_secs_f64(),
        ),
        Metric::single("network.sim_event_us", "us", micros_per(sim, events)),
    ])
}
