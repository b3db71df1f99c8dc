//! Criterion micro-benchmarks of the Table I kernels: real wall-clock
//! cost of the functional CRUSH and Reed-Solomon implementations this
//! reproduction executes (the virtual-time costs are separate — see the
//! harness).
//!
//! These benches answer "how expensive is the reproduction itself":
//! bucket selection per algorithm, rule execution on the paper's
//! 32-OSD map, the engine's card placement, and RS encode/decode at the
//! paper's block sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use deliba_bench as _;
use deliba_cluster::{Cluster, ObjectId};
use deliba_crush::{Bucket, BucketAlg, MapBuilder, WEIGHT_ONE};
use deliba_ec::ReedSolomon;
use deliba_fpga::accel::RsEncoderAccel;
use deliba_fpga::{AlveoU280, RmId};
use deliba_sim::SimTime;
use std::hint::black_box;

fn bench_bucket_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("bucket_select_16items");
    for alg in [
        BucketAlg::Uniform,
        BucketAlg::List,
        BucketAlg::Tree,
        BucketAlg::Straw,
        BucketAlg::Straw2,
    ] {
        let bucket = Bucket::new(-1, alg, 1, (0..16).collect(), vec![WEIGHT_ONE; 16]);
        group.bench_function(BenchmarkId::from_parameter(alg.name()), |b| {
            let mut x = 0u32;
            b.iter(|| {
                x = x.wrapping_add(1);
                black_box(bucket.select(black_box(x), 0))
            })
        });
    }
    group.finish();
}

fn bench_do_rule(c: &mut Criterion) {
    // The paper's testbed map and a larger one.
    let mut group = c.benchmark_group("crush_do_rule_3_replicas");
    for (name, hosts, per) in [("2x16_paper", 2usize, 16usize), ("16x8", 16, 8)] {
        let map = MapBuilder::new().build(hosts, per);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut x = 0u32;
            b.iter(|| {
                x = x.wrapping_add(1);
                black_box(map.do_rule(0, black_box(x), 3))
            })
        });
    }
    group.finish();
}

/// The engine's card placement: the devices come from the cluster map's
/// epoch-keyed cache, and the card is charged the kernel's cycles.
fn bench_accelerator_models(c: &mut Criterion) {
    let cluster = Cluster::paper_testbed(1);
    let map = cluster.map();
    let pool = map.pool(1).expect("replicated pool");
    let mut group = c.benchmark_group("accelerator_model_place");
    for (name, preferred) in [("Straw2", None), ("Uniform", Some(RmId::Uniform))] {
        let mut card = AlveoU280::deliba_k_default();
        let mut devs = Vec::new();
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut x = 0u64;
            b.iter(|| {
                x = x.wrapping_add(1);
                let pg = pool.pg_of(ObjectId::new(1, black_box(x)));
                map.do_rule_cached(pool.crush_rule, pool.pg_seed(pg), 3, &mut devs);
                black_box(card.place_prefetched(SimTime::ZERO, preferred))
            })
        });
    }
    group.finish();
}

fn bench_rs_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_encode_4_2");
    for &size in &[4096usize, 65_536, 131_072] {
        let rs = ReedSolomon::new(4, 2);
        let data = vec![0xA5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(BenchmarkId::from_parameter(size), |b| {
            b.iter(|| black_box(rs.encode(black_box(&data))))
        });
    }
    group.finish();
}

fn bench_rs_reconstruct(c: &mut Criterion) {
    let rs = ReedSolomon::new(4, 2);
    let data = vec![0x3Cu8; 65_536];
    let shards = rs.encode(&data);
    c.bench_function("rs_reconstruct_2_erasures_64k", |b| {
        b.iter(|| {
            let mut opt: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            opt[1] = None;
            opt[4] = None;
            rs.reconstruct(&mut opt).unwrap();
            black_box(opt)
        })
    });
}

fn bench_rs_accel_model(c: &mut Criterion) {
    let mut accel = RsEncoderAccel::new(4, 2);
    let data = vec![0x11u8; 4096];
    c.bench_function("rs_accel_model_encode_4k", |b| {
        b.iter(|| black_box(accel.encode(black_box(&data))))
    });
}

criterion_group!(
    benches,
    bench_bucket_select,
    bench_do_rule,
    bench_accelerator_models,
    bench_rs_encode,
    bench_rs_reconstruct,
    bench_rs_accel_model
);
criterion_main!(benches);
