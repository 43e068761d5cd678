//! The regression pin for "nothing rides with a record": 10 000 tweets
//! translated the way an adaptor does (transcoded into a reused buffer, then
//! copied into the payload) and framed hold a live heap that is what
//! [`DataFrame::size_bytes`] says it is, within allocator overhead — which
//! is what the Basic memory budget and `feed.buffer_bytes` count with. A
//! decoded tree riding beside each payload
//! (1 678 B in ≈ 22 allocations for a 388 B tweet) puts this ratio above 4.
//!
//! One `#[test]` in its own binary, so the counting allocator sees nothing
//! but this scenario.

use asterix_adm::transcode;
use asterix_common::{DataFrame, FrameBuilder, Record};
use tweetgen::TweetFactory;

#[path = "../../storage/tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TWEETS: usize = 10_000;

#[test]
fn a_frame_holds_its_payload_bytes_and_nothing_else() {
    // id, adaptor, generation stamp, payload: nothing else fits
    assert_eq!(std::mem::size_of::<Record>(), 48);
    let before = live();
    let mut factory = TweetFactory::new(0, 17);
    let mut builder = FrameBuilder::default();
    let mut frames: Vec<DataFrame> = Vec::new();
    let mut scratch = Vec::new();
    for _ in 0..TWEETS {
        scratch.clear();
        transcode(&factory.next_json(), &mut scratch).expect("generated tweet parses");
        frames.extend(builder.push(Record::untracked(0, &scratch[..])));
    }
    frames.extend(builder.flush());
    drop((factory, builder, scratch));
    assert_eq!(frames.iter().map(DataFrame::len).sum::<usize>(), TWEETS);

    let live = (live() - before) as usize;
    let counted: usize = frames.iter().map(DataFrame::size_bytes).sum();
    let ratio = live as f64 / counted as f64;
    println!("live heap {live} B for {counted} B of size_bytes() ({ratio:.2}x)");
    assert!(
        ratio <= 1.5,
        "live heap is {ratio:.2}x what size_bytes() counts: something rides with the records"
    );
}
