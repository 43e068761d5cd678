//! The regression pin for "the router decodes nothing": 10 000 generated
//! tweet payloads through `IngestPlan::route_payload`, as the routing stage
//! calls it, over a three-arm plan (`country = "US"`, then
//! `user.followers_count > 50000`, then `otherwise`). The arms test the
//! bytes in place, so the one allocation per record is the result `Vec`.
//! `route_record`, which encodes a tree first, is reported beside it.
//!
//! One `#[test]` in its own binary, so the counting allocator sees nothing
//! but this scenario.

use asterix_adm::{decode_value, payload_from_text};
use asterix_common::SimInstant;
use asterix_feeds::plan::{IngestPlan, IngestPlanBuilder, RoutePredicate, SinkSpec};
use bytes::Bytes;
use tweetgen::TweetFactory;

#[path = "../../storage/tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TWEETS: usize = 10_000;

/// Allocations per record `route` makes over records `0..TWEETS`, and how
/// many records each sink took.
fn allocs_per_record(what: &str, mut route: impl FnMut(usize) -> Vec<usize>) -> (f64, [usize; 3]) {
    let mut taken = [0; 3];
    let before = allocs();
    for i in 0..TWEETS {
        for sink in route(i) {
            taken[sink] += 1;
        }
    }
    let per_record = (allocs() - before) as f64 / TWEETS as f64;
    println!("{what:<14} {per_record:.3} allocations per record, sinks {taken:?}");
    (per_record, taken)
}

fn plan() -> IngestPlan {
    IngestPlanBuilder::new("F")
        .adaptor("socket_adaptor")
        .sink(SinkSpec::to("D1").route(RoutePredicate::eq("country", "US")))
        .sink(SinkSpec::to("D2").route(RoutePredicate::gt("user.followers_count", 50_000)))
        .sink(SinkSpec::to("D3"))
        .build()
        .unwrap()
}

#[test]
fn routing_allocates_only_the_result() {
    let mut factory = TweetFactory::new(0, 31);
    let payloads: Vec<Bytes> = (0..TWEETS)
        .map(|_| payload_from_text(&factory.next_json()).unwrap())
        .collect();
    let trees: Vec<_> = payloads.iter().map(|p| decode_value(p).unwrap()).collect();
    let plan = plan();
    let stamp = Some(SimInstant(17));

    let (bytes, taken) =
        allocs_per_record("route_payload", |i| plan.route_payload(&payloads[i], stamp));
    let (tree, tree_taken) =
        allocs_per_record("route_record", |i| plan.route_record(&trees[i], stamp));

    assert_eq!(
        taken.iter().sum::<usize>(),
        TWEETS,
        "first match partitions"
    );
    assert!(
        taken.iter().all(|&n| n > 0),
        "every arm takes some: {taken:?}"
    );
    assert_eq!(taken, tree_taken, "one evaluator");
    assert!(
        bytes <= 1.05,
        "{bytes:.3} allocations per record: routing builds more than its result"
    );
    assert!(tree > bytes, "encoding a tree first costs {tree:.3}");
}
