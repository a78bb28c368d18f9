//! Criterion bench for Fig. 9(a): CNF vs DNF evaluation of the detection
//! query pair with all-constant pattern rows. Sizes are scaled down so the
//! bench suite stays fast; the `experiments` binary runs the full sweep.

use cfd_bench::tax_data;
use cfd_datagen::{CfdWorkload, EmbeddedFd};
use cfd_sql::{Detector, Strategy};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let cfd = CfdWorkload::new(11).single(EmbeddedFd::ZipCityToState, 100, 100.0);
    let mut group = c.benchmark_group("fig9a_cnf_dnf_const");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for sz in [5_000usize, 10_000] {
        let data = tax_data(sz, 5.0, 17);
        for (name, strategy) in [("cnf", Strategy::cnf()), ("dnf", Strategy::dnf())] {
            let detector = Detector::new().with_strategy(strategy);
            group.bench_with_input(BenchmarkId::new(name, sz), &data, |b, data| {
                b.iter(|| detector.detect_shared(&cfd, Arc::clone(data)).unwrap());
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
