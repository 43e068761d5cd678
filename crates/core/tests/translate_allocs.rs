//! The regression pin for "the adaptor builds no tree": 10 000 generated
//! tweets drained through a `socket_adaptor` poll cost one allocation per
//! record — the payload's exactly-sized copy of the instance's scratch
//! buffer — and one text parse each. Parsing into an `AdmValue` tree and
//! encoding that costs ≈ 24 allocations per tweet.
//!
//! One `#[test]` in its own binary, so the counting allocator sees nothing
//! but this scenario.

use asterix_adm::parse_calls;
use asterix_common::{Counter, Record, SimClock};
use asterix_feeds::adaptor::{
    bind_socket, unbind_socket, AdaptorConfig, AdaptorFactory, SocketAdaptorFactory,
};
use asterix_hyracks::operator::SourcePoll;
use tweetgen::TweetFactory;

#[path = "../../storage/tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TWEETS: usize = 10_000;

#[test]
fn translating_a_line_allocates_only_its_payload() {
    let tx = bind_socket("translate-allocs:1", TWEETS).unwrap();
    let mut factory = TweetFactory::new(0, 23);
    for _ in 0..TWEETS {
        tx.send(factory.next_json()).unwrap();
    }
    drop(tx);
    let mut cfg = AdaptorConfig::new();
    cfg.insert("sockets".into(), "translate-allocs:1".into());
    let malformed = Counter::new();
    let mut adaptor = SocketAdaptorFactory
        .create(&cfg, 0, &SimClock::fast(), &malformed)
        .unwrap();
    let mut records: Vec<Record> = Vec::with_capacity(TWEETS);

    let (allocs_before, parsed_before) = (allocs(), parse_calls());
    let mut emit = |r: Record| {
        records.push(r);
        Ok(())
    };
    while adaptor.poll(&mut emit, TWEETS).unwrap() != SourcePoll::Done {}
    let (allocated, parsed) = (allocs() - allocs_before, parse_calls() - parsed_before);

    assert_eq!(records.len(), TWEETS);
    assert_eq!(malformed.get(), 0);
    assert_eq!(parsed, TWEETS as u64, "one text parse per line");
    let per_record = allocated as f64 / TWEETS as f64;
    println!("{allocated} allocations for {TWEETS} records ({per_record:.3} per record)");
    assert!(
        per_record <= 1.05,
        "{per_record:.3} allocations per record: translate builds more than its payload"
    );
    unbind_socket("translate-allocs:1");
}
