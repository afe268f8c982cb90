//! Small twins of the batch workloads: the harness's digest, trace and
//! re-validation logic on inputs small enough to run in seconds.

use crate::batch::discover;
use crate::digest::{revalidate, Digest};
use crate::inputs::{Input, Run, WORKLOADS};
use crate::layers::{figures, traced_run};
use aod_table::RankedTable;

fn twin(input: Input) -> RankedTable {
    let rows = if input.dirty { 4_000 } else { 2_000 };
    let small = Input {
        rows,
        cols: 8,
        ..input
    };
    RankedTable::from_table(&small.table(11))
}

#[test]
fn batch_twins_agree_across_thread_counts_and_tracing() {
    for w in WORKLOADS {
        let Run::Batch { epsilon, .. } = w.run else {
            continue;
        };
        let table = twin(w.input);
        let (one, _) = discover(&table, epsilon, 1);
        let (two, _) = discover(&table, epsilon, 2);
        assert_eq!(Digest::of(&one), Digest::of(&two), "{}", w.name);
        assert!(one.n_ocs() + one.n_ofds() > 0, "{}", w.name);
        assert_eq!(revalidate(&table, epsilon, &one), Vec::<String>::new());

        for threads in [1, 2] {
            let traced = traced_run(&table, epsilon, threads);
            assert_eq!(Digest::of(&traced.result), Digest::of(&one), "{}", w.name);
            assert_eq!(traced.sink.dropped(), 0);
            let figs = figures(std::slice::from_ref(&traced));
            let fig = |name: &str| figs.iter().find(|f| f.0 == name).unwrap().1;
            assert!(fig("validate.oc.calls") > 0.0);
            let by_level = fig("validate.oc.l2_s") + fig("validate.oc.deep_s");
            assert!(by_level <= fig("validate.oc.s") + 1e-9);
            assert_eq!(
                fig("partition.products"),
                one.stats.n_partition_products() as f64
            );
            let steps = traced.steps.len();
            assert_eq!(steps, one.stats.per_level.len(), "{}", w.name);
            if threads == 1 {
                assert_eq!(fig("exec.busy_s"), 0.0);
            } else {
                assert!(fig("exec.busy_s") > 0.0 && fig("core.driver_s") == 0.0);
            }
        }
    }
}

#[test]
fn revalidation_catches_a_wrong_removal_count() {
    let table = twin(WORKLOADS[0].input);
    let (mut result, _) = discover(&table, 0.1, 1);
    let first = result.ocs.first_mut().expect("the twin has OCs");
    first.removed += 1;
    assert_eq!(revalidate(&table, 0.1, &result).len(), 1);
}
