//! Ablation benches: implicit (pointer-less) search per layout — the
//! Fig 4 bottom-left panel, combining index arithmetic with memory
//! accesses — and the incremental cost of the exact weight model.

use cobtree_bench::bench_height;
use cobtree_core::{EdgeWeights, NamedLayout};
use cobtree_measures::functionals;
use cobtree_search::workload::UniformKeys;
use cobtree_search::{SearchTree, Storage};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

fn implicit_search(c: &mut Criterion) {
    let h = bench_height().min(18);
    let keys = UniformKeys::for_height(h, 45).take_vec(5_000);
    let all: Vec<u64> = (1..=(1u64 << h) - 1).collect();
    let mut group = c.benchmark_group(format!("implicit_search_h{h}"));
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(keys.len() as u64));
    for layout in [
        NamedLayout::PreBreadth,
        NamedLayout::InOrder,
        NamedLayout::PreVeb,
        NamedLayout::InVeb,
        NamedLayout::Bender,
        NamedLayout::HalfWep,
        NamedLayout::MinWep,
    ] {
        group.bench_function(BenchmarkId::from_parameter(layout.label()), |b| {
            let tree = SearchTree::builder()
                .layout(layout)
                .storage(Storage::Implicit)
                .keys(all.iter().copied())
                .build()
                .expect("complete key set");
            b.iter(|| tree.search_batch_checksum(&keys));
        });
    }
    group.finish();

    let mut weights = c.benchmark_group("weight_models_h14");
    weights
        .sample_size(15)
        .measurement_time(Duration::from_secs(3));
    let layout = NamedLayout::MinWep.materialize(14);
    let edges: Vec<(u32, u64)> = layout.edge_lengths().collect();
    for (label, model) in [
        ("approximate", EdgeWeights::Approximate),
        ("exact", EdgeWeights::Exact),
        ("unweighted", EdgeWeights::Unweighted),
    ] {
        weights.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| black_box(functionals(14, edges.iter().copied(), model.clone())));
        });
    }
    weights.finish();
}

criterion_group!(benches, implicit_search);
criterion_main!(benches);
