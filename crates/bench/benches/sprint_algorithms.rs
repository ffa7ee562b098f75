//! Criterion benchmarks of the paper's algorithms (1-4) and CDOR.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noc_sim::geometry::NodeId;
use noc_sim::routing::RoutingFunction;
use noc_sim::topology::Mesh2D;
use noc_sprinting::{is_deadlock_free, CdorRouting};
use noc_sprinting::floorplan::Floorplan;
use noc_sprinting::sprint_topology::{sprint_order, SprintSet};

fn bench_algorithm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_sprint_order");
    for &side in &[4u16, 8, 16] {
        let mesh = Mesh2D::new(side, side).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(side), &mesh, |b, mesh| {
            b.iter(|| sprint_order(mesh, NodeId(0)))
        });
    }
    group.finish();
}

fn bench_cdor_route(c: &mut Criterion) {
    let set = SprintSet::paper(8);
    let mesh = *set.mesh();
    let cdor = CdorRouting::new(&set);
    c.bench_function("cdor_route_compute", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &s in set.active_nodes() {
                for &d in set.active_nodes() {
                    acc += cdor.route(&mesh, s, d).index();
                }
            }
            acc
        })
    });
}

fn bench_floorplanner(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm3_floorplan");
    for &side in &[4u16, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, &side| {
            let mesh = Mesh2D::new(side, side).unwrap();
            let set = SprintSet::new(mesh, NodeId(0), mesh.len());
            b.iter(|| Floorplan::thermal_aware(&set))
        });
    }
    group.finish();
}

fn bench_deadlock_check(c: &mut Criterion) {
    let set = SprintSet::paper(8);
    let mesh = *set.mesh();
    let cdor = CdorRouting::new(&set);
    c.bench_function("cdor_cdg_deadlock_check_8core", |b| {
        b.iter(|| is_deadlock_free(&mesh, &cdor, set.mask()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_algorithm1, bench_cdor_route, bench_floorplanner, bench_deadlock_check
}
criterion_main!(benches);
