//! Ablation: the socket serving front (`diversity-net`) — what the
//! wire layer costs and what its two headline mechanisms buy.
//!
//! Measures, at n ≥ 20k (scale with `DIVMAX_SCALE`), over real
//! localhost TCP with the `divmax-loadgen` harness:
//!
//! * **query coalescing on vs off** — the identical-query workload
//!   (every serving fleet's hot cache-miss storm) against the same
//!   pool data, same connection count; coalescing merges concurrent
//!   extractions behind one leader, so its throughput must be
//!   *strictly higher*;
//! * a **distinct-query workload** on the coalescing server, showing
//!   the epoch/payload key never merges queries that differ;
//! * **binary vs JSON checkpoint encoding** — the Checkpoint opcode
//!   ships `diversity::wire` bytes; both byte counts are recorded and
//!   the binary form must be measurably smaller.
//!
//! Records the headline numbers into `BENCH_net.json` at
//! `diversity_bench::record_path` (CI uploads it as an artifact).

use diversity::prelude::*;
use diversity::wire::to_bytes;
use diversity_bench::{scaled, Table};
use diversity_datasets::gaussian_clusters;
use diversity_net::{loadgen, LoadgenConfig, LoadgenReport, Server, ServerConfig, ServerStats};
use diversity_serve::ShardPool;

const SHARDS: usize = 8;
const CONNECTIONS: usize = 8;

fn seeded_pool(points: &[VecPoint]) -> ShardPool<VecPoint, Euclidean> {
    let pool = ShardPool::new(Euclidean, SHARDS);
    pool.extend(points.iter().cloned()).expect("seed pool");
    pool
}

fn run_workload(
    points: &[VecPoint],
    task: &Task,
    coalesce: bool,
    distinct: usize,
    requests: usize,
) -> (LoadgenReport, ServerStats) {
    let server = Server::start(
        seeded_pool(points),
        ServerConfig {
            workers: CONNECTIONS + 2,
            coalesce,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral bind");
    let mut config = LoadgenConfig::new(server.addr().to_string(), task.clone());
    config.connections = CONNECTIONS;
    config.requests_per_conn = requests;
    config.distinct = distinct;
    let report = loadgen::run::<VecPoint>(&config);
    let stats = server.shutdown_and_join();
    assert_eq!(report.protocol_errors, 0, "clean protocol run");
    assert_eq!(
        report.ok + report.degraded,
        report.sent,
        "every query answered"
    );
    (report, stats)
}

fn main() {
    let n = scaled(20_000);
    let requests = scaled(60).max(10);
    println!(
        "ablation_net: n={n}, shards={SHARDS}, connections={CONNECTIONS}, requests/conn={requests}"
    );

    let points = gaussian_clusters(n, 24, 3, 40.0, 4242);
    let task = Task::new(Problem::RemoteEdge, 16).budget(Budget::KPrime(128));

    // The identical-query storm, with and without coalescing.
    let (on, on_stats) = run_workload(&points, &task, true, 1, requests);
    let (off, off_stats) = run_workload(&points, &task, false, 1, requests);
    // Distinct queries on the coalescing server: the key must keep
    // them separate.
    let (distinct, distinct_stats) = run_workload(&points, &task, true, CONNECTIONS, requests);

    let mut table = Table::new(
        "socket serving: identical-query storm over localhost TCP",
        &["workload", "qps", "p50", "p99", "coalesced"],
    );
    for (name, report, stats) in [
        ("coalesce on (identical)", &on, &on_stats),
        ("coalesce off (identical)", &off, &off_stats),
        ("coalesce on (distinct)", &distinct, &distinct_stats),
    ] {
        table.row(vec![
            name.into(),
            format!("{:.0}", report.qps),
            format!("{}us", report.p50_ns / 1_000),
            format!("{}us", report.p99_ns / 1_000),
            format!("{}", stats.coalesced),
        ]);
    }
    table.print();

    let speedup = on.qps / off.qps.max(1e-9);
    println!("coalescing speedup on the identical-query storm: {speedup:.2}x");
    assert!(
        on.qps > off.qps,
        "coalesced identical-query throughput must be strictly higher \
         (on {:.0} qps vs off {:.0} qps)",
        on.qps,
        off.qps
    );
    assert!(on_stats.coalesced > 0, "the storm must actually coalesce");

    // Checkpoint encoding economics: the Checkpoint opcode's binary
    // bytes vs the JSON serde path, same pool state.
    let pool = seeded_pool(&points);
    let state = pool.checkpoint_consistent().expect("healthy checkpoint");
    let bin_bytes = to_bytes(&state).len();
    let json_bytes = serde_json::to_string(&state).expect("serialize").len();
    let ratio = json_bytes as f64 / bin_bytes as f64;
    println!(
        "checkpoint encoding: binary {bin_bytes} bytes vs JSON {json_bytes} bytes ({ratio:.2}x smaller)"
    );
    assert!(
        bin_bytes < json_bytes,
        "the binary checkpoint must be measurably smaller than JSON"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"net\",\n",
            "  \"n\": {n},\n",
            "  \"shards\": {shards},\n",
            "  \"connections\": {conns},\n",
            "  \"requests_per_conn\": {reqs},\n",
            "  \"coalesce_on\": {{\"qps\": {on_qps:.2}, \"p50_ns\": {on_p50}, \"p99_ns\": {on_p99}, \"coalesced\": {on_coalesced}}},\n",
            "  \"coalesce_off\": {{\"qps\": {off_qps:.2}, \"p50_ns\": {off_p50}, \"p99_ns\": {off_p99}, \"coalesced\": {off_coalesced}}},\n",
            "  \"distinct\": {{\"qps\": {d_qps:.2}, \"p50_ns\": {d_p50}, \"p99_ns\": {d_p99}, \"coalesced\": {d_coalesced}}},\n",
            "  \"coalescing_speedup\": {speedup:.3},\n",
            "  \"checkpoint_bytes_binary\": {bin_bytes},\n",
            "  \"checkpoint_bytes_json\": {json_bytes},\n",
            "  \"checkpoint_json_over_binary\": {ratio:.3}\n",
            "}}\n"
        ),
        n = n,
        shards = SHARDS,
        conns = CONNECTIONS,
        reqs = requests,
        on_qps = on.qps,
        on_p50 = on.p50_ns,
        on_p99 = on.p99_ns,
        on_coalesced = on_stats.coalesced,
        off_qps = off.qps,
        off_p50 = off.p50_ns,
        off_p99 = off.p99_ns,
        off_coalesced = off_stats.coalesced,
        d_qps = distinct.qps,
        d_p50 = distinct.p50_ns,
        d_p99 = distinct.p99_ns,
        d_coalesced = distinct_stats.coalesced,
        speedup = speedup,
        bin_bytes = bin_bytes,
        json_bytes = json_bytes,
        ratio = ratio,
    );
    let path = diversity_bench::record_path("net");
    std::fs::write(&path, json).expect("write BENCH_net.json");
    println!("wrote {}", path.display());
}
