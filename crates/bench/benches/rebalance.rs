//! Criterion micro-benchmark: crash-consistent window overwrites — DGAP's
//! per-thread undo log against PMDK-style transactions (the mechanism gap
//! that the Table 5 "No EL&UL" ablation measures end to end).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgap::ulog::UndoLog;
use pmem::tx::TxContext;
use pmem::{PmemConfig, PmemPool};
use std::sync::Arc;

fn rebalance_benchmark(c: &mut Criterion) {
    let mut group = c.benchmark_group("protected_window_overwrite");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));

    for window_bytes in [2_048usize, 16_384, 131_072] {
        let pool = Arc::new(PmemPool::new(
            PmemConfig::with_capacity(64 << 20).persistence_tracking(false),
        ));
        let window = pool.alloc(window_bytes, 64).unwrap();
        pool.memset(window, 1, window_bytes);
        pool.persist(window, window_bytes);
        let new_contents = vec![7u8; window_bytes];
        group.throughput(Throughput::Bytes(window_bytes as u64));

        // The undo log is handed the window's current bytes, so alternate
        // between two images to keep them accurate.
        let mut ulog = UndoLog::new(Arc::clone(&pool), window_bytes, 2048).unwrap();
        let images = [vec![1u8; window_bytes], new_contents.clone()];
        let mut current = 0;
        group.bench_with_input(
            BenchmarkId::new("per_thread_undo_log", window_bytes),
            &window_bytes,
            |b, _| {
                b.iter(|| {
                    let next = 1 - current;
                    ulog.protected_overwrite(window, &images[next], &images[current], None)
                        .unwrap();
                    current = next;
                });
            },
        );

        // The journal region is allocated once (the bump allocator would run
        // out if every Criterion iteration allocated a fresh one); the
        // per-transaction journal-allocation overhead itself is charged by
        // `begin()` through the cost model, so the comparison is preserved.
        let ctx = TxContext::new(&pool, window_bytes + 64).unwrap();
        group.bench_with_input(
            BenchmarkId::new("pmdk_style_tx", window_bytes),
            &window_bytes,
            |b, _| {
                b.iter(|| {
                    let mut tx = ctx.begin().unwrap();
                    tx.add_range(window, window_bytes).unwrap();
                    pool.write(window, &new_contents);
                    tx.commit();
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, rebalance_benchmark);
criterion_main!(benches);
