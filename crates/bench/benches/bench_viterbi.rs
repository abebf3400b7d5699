//! HMM path-finding engine throughput, with and without the shortcut pass
//! (ablation for the Algorithm 2 design choice called out in DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
use lhmm_core::candidates::distance_layers;
use lhmm_core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm_core::viterbi::{EngineConfig, HmmEngine};
use lhmm_geo::Point;

fn bench_viterbi(c: &mut Criterion) {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(104));
    let rec = ds
        .test
        .iter()
        .max_by_key(|r| r.cellular.len())
        .expect("non-empty test split");
    let positions: Vec<Point> = rec.cellular.effective_positions();
    let pts: Vec<(Point, f64)> = rec
        .cellular
        .points
        .iter()
        .map(|p| (p.effective_pos(), p.t))
        .collect();

    let mut group = c.benchmark_group("viterbi_one_trajectory");
    for shortcuts in [0usize, 1, 2] {
        group.bench_with_input(
            BenchmarkId::new("shortcuts", shortcuts),
            &shortcuts,
            |b, &sc| {
                let mut engine = HmmEngine::new(
                    &ds.network,
                    EngineConfig {
                        shortcuts: sc,
                        ..Default::default()
                    },
                );
                b.iter(|| {
                    let mut model = ClassicModel::new(
                        ClassicObservation::cellular(),
                        ClassicTransition::cellular(),
                        positions.clone(),
                    );
                    let (layers, _) = distance_layers(
                        &ds.network,
                        &ds.index,
                        &positions,
                        20,
                        3_000.0,
                        &mut model,
                    );
                    engine
                        .try_find_path(&ds.network, &pts, layers, &mut model)
                        .ok()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_viterbi);
criterion_main!(benches);
