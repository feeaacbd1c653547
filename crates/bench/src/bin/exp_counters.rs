//! Counting-engine benchmark: merge-based counting vs class-mask
//! popcounts on a dense synthetic workload.
//!
//! Mines the same lattice with merge-based Eclat and the dense popcount
//! engine (word-AND supports *and* payload counters) over the payload
//! `explore` mines: each row's confusion cell, three class masks. Asserts
//! the two results bit-identical — itemsets, supports and every cell
//! tally — and requires the popcount engine to be at least 2× faster
//! than merge-based Eclat.
//!
//! `--smoke` shrinks the dataset for CI and skips the speedup floor
//! (timing on shared runners is noise); correctness is always asserted.

use bench::{banner, telemetry};
use divexplorer::CountedCells;
use fpm::bitset::Bitset;
use fpm::{Algorithm, ClassMasks, Kernel, MiningParams};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` wall clock of `f`, microseconds (floored at 1 so
/// ratios stay finite on very fast runs).
fn best_us(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_micros() as u64);
    }
    best.max(1)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 2_000 } else { 50_000 };
    banner(
        "Counters",
        "Merge-based vs popcount confusion-cell counting (artificial dataset)",
    );
    let d = datasets::artificial::generate(n, 7);
    let db = d.data.to_transactions();
    // The payload `explore` mines: each row's confusion cell.
    let payloads: Vec<CountedCells> = (0..db.len())
        .map(|r| CountedCells::of_row(d.v[r], d.u[r]))
        .collect();
    let params = MiningParams::with_min_support_fraction(0.02, db.len());

    // Best-of-N wall clock per engine; every run's arena is kept once for
    // the bit-identical comparison.
    let reps = if smoke { 2 } else { 3 };
    let mut results = Vec::new();
    let mut timings = Vec::new();
    for algo in [Algorithm::Eclat, Algorithm::Dense] {
        let mut best_us = u64::MAX;
        let mut arena = None;
        for _ in 0..reps {
            let start = Instant::now();
            let mut run = fpm::MiningTask::with_params(&db, params.clone())
                .payloads(&payloads)
                .algorithm(algo)
                .run()
                .store;
            let us = start.elapsed().as_micros() as u64;
            best_us = best_us.min(us);
            run.sort_canonical();
            arena = Some(run);
        }
        let arena = arena.expect("at least one rep");
        println!("{algo:<14} {best_us:>10} µs   {} itemsets", arena.len());
        results.push((algo, arena));
        timings.push((algo, best_us));
    }

    // Cell counters must be bit-identical across both engines.
    let (_, reference) = &results[0];
    let (algo, arena) = &results[1];
    assert_eq!(
        arena.len(),
        reference.len(),
        "{algo}: itemset count differs from eclat"
    );
    for (got, want) in arena.iter().zip(reference.iter()) {
        assert_eq!(got.items, want.items, "{algo}: itemsets differ");
        assert_eq!(
            got.support, want.support,
            "{algo}: support differs on {:?}",
            want.items
        );
        assert_eq!(
            got.payload, want.payload,
            "{algo}: cell tallies differ on {:?}",
            want.items
        );
    }
    println!("counters bit-identical between eclat and dense");

    let merge_us = timings[0].1;
    let dense_us = timings[1].1;
    let speedup = merge_us as f64 / dense_us as f64;
    println!("popcount speedup over merge-based eclat: {speedup:.2}x");
    if !smoke {
        assert!(
            speedup >= 2.0,
            "dense engine must be at least 2x faster than merge-based eclat \
             (merge {merge_us} µs vs dense {dense_us} µs = {speedup:.2}x)"
        );
    }

    // ── Kernel microbenchmark: counting cost per density regime ──
    //
    // The same cell tally measured three ways, matching the three
    // tidset representations the engines hold:
    //   dense bitset — the historical per-class AND+popcount, one pass
    //                  per class mask over row ids (masks built here),
    //                  against the engine's split count over the
    //                  cell-ordered positions, under every kernel;
    //   tid-list     — boundary search (`count_sparse`);
    //   diffset      — the dEclat subtraction (`subtract_sparse`).
    let masks = ClassMasks::build(&payloads).expect("CountedCells lowers to class masks");
    let n_classes = masks.n_classes();
    // Every third row, as row ids (with one mask per class) and as
    // positions in the engine's layout.
    let mut row_tids = Bitset::zeros(db.len());
    let mut class_masks = vec![Bitset::zeros(db.len()); n_classes];
    for (r, p) in payloads.iter().enumerate() {
        if r % 3 == 0 {
            row_tids.set(r);
        }
        if let Some(c) = fpm::Payload::class_of(p) {
            class_masks[c].set(r);
        }
    }
    let mut tids = Bitset::zeros(db.len());
    for (pos, &row) in masks.rows().iter().enumerate() {
        if row % 3 == 0 {
            tids.set(pos);
        }
    }
    let tid_list: Vec<u32> = tids.iter_ones().map(|p| p as u32).collect();
    let diff_list: Vec<u32> = (0..db.len() as u32).step_by(30).collect();
    let iters = if smoke { 50 } else { 500 };
    let kreps = reps.max(3);

    let mut kernel_counters: Vec<(String, u64)> = Vec::new();
    let per_class = |kernel: Kernel, counts: &mut [u64]| {
        for (slot, mask) in counts.iter_mut().zip(&class_masks) {
            *slot = kernel.and_count(row_tids.words(), mask.words());
        }
    };
    let mut reference = vec![0u64; n_classes];
    per_class(Kernel::Scalar, &mut reference);
    let mut counts = vec![0u64; n_classes];
    let per_class_scalar_us = best_us(kreps, || {
        for _ in 0..iters {
            per_class(Kernel::Scalar, black_box(&mut counts));
        }
        black_box(&counts);
    });
    assert_eq!(counts, reference, "per-class tally differs");
    println!();
    println!("kernel microbench ({iters} tallies, {n_classes} classes, best of {kreps}):");
    println!("  per-class scalar {per_class_scalar_us:>7} µs");
    kernel_counters.push((
        "kernel_per_class_scalar_us".to_string(),
        per_class_scalar_us,
    ));
    for kernel in Kernel::ALL {
        if !kernel.available() {
            println!("  {kernel:<9} unavailable on this CPU, skipped");
            continue;
        }
        let split_us = best_us(kreps, || {
            for _ in 0..iters {
                masks.count_dense_with(kernel, black_box(&tids), &mut counts);
            }
            black_box(&counts);
        });
        assert_eq!(counts, reference, "{kernel}: split count differs");
        println!(
            "  {kernel:<9} split {split_us:>7} µs   ({:.2}x per-class scalar)",
            per_class_scalar_us as f64 / split_us as f64
        );
        kernel_counters.push((format!("kernel_split_{kernel}_us"), split_us));
    }

    // The contract: the engine's one split count under the
    // process-selected kernel beats the historical per-class scalar
    // loop by ≥ 2× on the dense-bitset regime.
    let selected = fpm::kernels::selected();
    let split_selected_us = best_us(kreps, || {
        for _ in 0..iters {
            masks.count_dense(black_box(&tids), &mut counts);
        }
        black_box(&counts);
    });
    assert_eq!(counts, reference, "selected kernel: split count differs");
    let split_speedup = per_class_scalar_us as f64 / split_selected_us as f64;
    println!("split ({selected}) speedup over per-class scalar: {split_speedup:.2}x");
    if !smoke {
        assert!(
            split_speedup >= 2.0,
            "the split count must be at least 2x faster than the per-class \
             scalar tally (per-class {per_class_scalar_us} µs vs split \
             {split_selected_us} µs = {split_speedup:.2}x)"
        );
    }
    kernel_counters.push(("kernel_split_selected_us".to_string(), split_selected_us));
    kernel_counters.push((
        "kernel_split_speedup_x1000".to_string(),
        (split_speedup * 1000.0) as u64,
    ));

    // Sparse regimes for scale: the same tally from a tid-list, and the
    // dEclat subtraction from a diffset.
    let sparse_us = best_us(kreps, || {
        for _ in 0..iters {
            masks.count_sparse(black_box(&tid_list), &mut counts);
        }
        black_box(&counts);
    });
    assert_eq!(counts, reference, "tid-list tally differs from dense");
    let mut parent = vec![0u64; n_classes];
    masks.count_sparse(&(0..db.len() as u32).collect::<Vec<u32>>(), &mut parent);
    let diffset_us = best_us(kreps, || {
        for _ in 0..iters {
            counts.copy_from_slice(&parent);
            masks.subtract_sparse(black_box(&diff_list), &mut counts);
        }
        black_box(&counts);
    });
    println!("  tid-list  {sparse_us:>7} µs   diffset subtract {diffset_us:>7} µs");
    kernel_counters.push(("kernel_sparse_tidlist_us".to_string(), sparse_us));
    kernel_counters.push(("kernel_diffset_subtract_us".to_string(), diffset_us));

    let mut run = obs::RunReport::new("counters", "artificial", "dense");
    run.n_rows = db.len() as u64;
    run.min_support = 0.02;
    run.patterns = results[0].1.len() as u64;
    run.total_us = dense_us;
    run.counters = vec![
        obs::CounterEntry {
            name: "merge_eclat_us".to_string(),
            value: merge_us,
        },
        obs::CounterEntry {
            name: "dense_us".to_string(),
            value: dense_us,
        },
        obs::CounterEntry {
            name: "speedup_x1000".to_string(),
            value: (speedup * 1000.0) as u64,
        },
    ];
    run.counters.extend(
        kernel_counters
            .into_iter()
            .map(|(name, value)| obs::CounterEntry { name, value }),
    );
    telemetry::apply_kernel(&mut run);
    telemetry::write(&run);
}
