//! Sharded two-pass mining benchmark: partitioned mining vs the dense
//! one-pass engine on a synthetic workload.
//!
//! Mines the same confusion-cell-carrying lattice with the dense popcount
//! engine and with the sharded engine at K ∈ {1, 2, 7} row shards,
//! asserts every sharded run bit-identical to dense — itemsets,
//! supports, and every cell tally — and records the sharded engine's
//! memory model (peak resident shard bytes + candidate-arena bytes) and
//! per-phase wall clock in `BENCH_sharded.json`.
//!
//! A second section drives the out-of-core pipeline: the dataset is
//! encoded into the compressed columnar shard artifact (`.dxs`), the
//! compression ratio against resident transaction bytes is asserted
//! (>= 3x), and the K=7 recount is timed sequentially (threads=1,
//! prefetch=0) against the pipelined configuration (threads=4,
//! prefetch=2). Both recounts must emit identical itemsets; the >= 2x
//! speedup assertion engages only on full (non-smoke) runs on hosts
//! with at least 4 CPUs — parallel counting cannot beat sequential on
//! a single-core container.
//!
//! `--smoke` shrinks the dataset for CI; correctness is always asserted.

use bench::{banner, telemetry};
use datasets::artifact::{decode_shards, encode_shards};
use divexplorer::CountedCells;
use fpm::sharded::recount_into_bounded;
use fpm::{Algorithm, Budget, MiningParams, MiningTask, ShardSource, VecSink};
use std::time::Instant;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 2_000 } else { 50_000 };
    banner(
        "Sharded",
        "Two-pass sharded mining vs dense one-pass (artificial dataset)",
    );
    let d = datasets::artificial::generate(n, 7);
    let db = d.data.to_transactions();
    // The payload `explore` mines: each row's confusion cell.
    let payloads: Vec<CountedCells> = (0..db.len())
        .map(|r| CountedCells::of_row(d.v[r], d.u[r]))
        .collect();
    let params = MiningParams::with_min_support_fraction(0.02, db.len());
    let threshold = params.min_support_count;
    let task = MiningTask::with_params(&db, params)
        .payloads(&payloads)
        .algorithm(Algorithm::Dense);

    let start = Instant::now();
    let mut reference = task.clone().run().store;
    let dense_us = start.elapsed().as_micros() as u64;
    reference.sort_canonical();
    println!(
        "{:<12} {dense_us:>10} µs   {} itemsets",
        "dense",
        reference.len()
    );

    let mut worst_us = dense_us;
    let mut last_stats = None;
    for k in SHARD_COUNTS {
        let start = Instant::now();
        let outcome = task.clone().shards(k).run();
        let us = start.elapsed().as_micros() as u64;
        worst_us = worst_us.max(us);
        let stats = outcome.shards.expect("sharded run records stats");
        let mut arena = outcome.store;
        arena.sort_canonical();

        // Cell counters must be bit-identical to the dense run.
        assert!(outcome.completeness.is_complete(), "K={k}: truncated");
        assert_eq!(arena.len(), reference.len(), "K={k}: itemset count");
        for (got, want) in arena.iter().zip(reference.iter()) {
            assert_eq!(got.items, want.items, "K={k}: itemsets differ");
            assert_eq!(
                got.support, want.support,
                "K={k}: support differs on {:?}",
                want.items
            );
            assert_eq!(
                got.payload, want.payload,
                "K={k}: cell tallies differ on {:?}",
                want.items
            );
        }

        // The memory model: peak resident mining state is one shard plus
        // the candidate arena, both reported by the engine.
        assert!(stats.peak_shard_bytes > 0, "K={k}: no shard bytes");
        assert!(stats.candidate_bytes > 0, "K={k}: no candidate bytes");
        assert_eq!(stats.shards_mined, k as u64, "K={k}: shards mined");
        assert_eq!(stats.recount_rows, db.len() as u64, "K={k}: recount rows");
        println!(
            "sharded K={k:<3} {us:>10} µs   {} candidates, peak {} B shard + {} B candidates",
            stats.candidates, stats.peak_shard_bytes, stats.candidate_bytes
        );
        last_stats = Some(stats);
    }
    println!(
        "sharded results bit-identical to dense for K in {SHARD_COUNTS:?} \
         ({} itemsets each)",
        reference.len()
    );

    // ---- Out-of-core: compressed shards + pipelined recount ----------
    let pipeline_k = 7;
    let encoded = encode_shards(&d.data, pipeline_k);
    let source = decode_shards(&encoded).expect("just-encoded shards decode");
    let resident: u64 = (0..pipeline_k)
        .map(|k| source.open(k).materialize().approx_bytes())
        .sum();
    let compressed = source.compressed_bytes();
    println!(
        "dxs artifact: {compressed} B encoded vs {resident} B resident ({:.1}x)",
        resident as f64 / compressed as f64
    );
    assert!(
        compressed * 3 <= resident,
        "compressed shards must be at least 3x smaller than resident \
         transactions ({compressed} B vs {resident} B)"
    );

    let candidates = reference.to_candidates();
    let recount = |threads: usize, prefetch: usize| {
        let mut best_us = u64::MAX;
        let mut out = None;
        for _ in 0..3 {
            let mut sink = VecSink::new();
            let start = Instant::now();
            let (completeness, stats) = recount_into_bounded(
                &source,
                &candidates,
                threshold,
                threads,
                prefetch,
                &Budget::unlimited(),
                None,
                &mut sink,
            );
            let us = start.elapsed().as_micros() as u64;
            assert!(completeness.is_complete(), "t={threads} d={prefetch}: cut");
            assert_eq!(stats.recount_rows, db.len() as u64);
            if us < best_us {
                best_us = us;
                out = Some((sink.found, stats));
            }
        }
        let (found, stats) = out.expect("three recount reps ran");
        (best_us, found, stats)
    };
    let (seq_us, seq_found, _) = recount(1, 0);
    let (pipe_us, pipe_found, pipe_stats) = recount(4, 2);
    assert_eq!(
        seq_found, pipe_found,
        "pipelined recount must be bit-identical to sequential"
    );
    assert_eq!(
        seq_found.len(),
        reference.len(),
        "recount must reproduce every mined itemset"
    );
    println!(
        "recount K={pipeline_k}: {seq_us} µs sequential, {pipe_us} µs with \
         threads=4 prefetch=2 (overlap {:.2}, io wait {} µs)",
        pipe_stats.overlap_ratio(),
        pipe_stats.io_wait_us
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !smoke && cores >= 4 {
        assert!(
            pipe_us * 2 <= seq_us,
            "pipelined recount must be >= 2x faster than sequential on a \
             {cores}-core host ({pipe_us} µs vs {seq_us} µs)"
        );
    } else {
        println!("speedup gate skipped (smoke={smoke}, cores={cores})");
    }

    // The report's flat shard_* fields carry the engine's own stats for
    // the largest-K run; the compression + overlap story comes from the
    // pipelined recount over the compressed source.
    let mut run = obs::RunReport::new("sharded", "artificial", "sharded");
    run.n_rows = db.len() as u64;
    run.min_support = 0.02;
    run.patterns = reference.len() as u64;
    run.total_us = worst_us;
    run.counters = vec![
        obs::CounterEntry {
            name: "dense_us".to_string(),
            value: dense_us,
        },
        obs::CounterEntry {
            name: "recount_seq_us".to_string(),
            value: seq_us,
        },
        obs::CounterEntry {
            name: "recount_pipe_us".to_string(),
            value: pipe_us,
        },
    ];
    telemetry::apply_shard_stats(&mut run, &last_stats.expect("at least one sharded run"));
    run.shard_io_wait_us = Some(pipe_stats.io_wait_us);
    run.shard_overlap_ratio = Some(pipe_stats.overlap_ratio());
    run.shard_compressed_bytes = Some(compressed);
    run.shard_compression_ratio = pipe_stats.compression_ratio();
    telemetry::write(&run);
}
