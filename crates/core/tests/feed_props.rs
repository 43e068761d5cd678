//! Property tests over the feed machinery's core invariants:
//!
//! * **Record conservation** — under any policy and congestion pattern,
//!   every offered record is accounted for: delivered + discarded +
//!   throttled + still deferred = offered;
//! * **Guaranteed delivery** — a feed joint delivers every deposited frame
//!   to every subscriber that stays subscribed, in order, under arbitrary
//!   interleavings of subscribe/unsubscribe;
//! * **Policy algebra** — custom-policy derivation never loses or invents
//!   parameter state.

use asterix_common::{DataFrame, FeedId, Record, RecordId, SimClock};
use asterix_feeds::flow::FlowController;
use asterix_feeds::joint::{FeedJoint, JointRecv};
use asterix_feeds::metrics::FeedMetrics;
use asterix_feeds::policy::IngestionPolicy;
use asterix_hyracks::operator::ScriptedSink;
use proptest::prelude::*;
use std::sync::Arc;

fn frame(start: u64, len: usize) -> DataFrame {
    DataFrame::from_records(
        (0..len as u64)
            .map(|i| Record::tracked(RecordId(start + i), 0, "payload"))
            .collect(),
    )
}

#[derive(Debug, Clone)]
enum Step {
    Offer(u8),  // offer a frame of 1..=32 records
    Budget(u8), // let the consumer take up to n more frames
    Drain,      // opportunistic drain of deferred work
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (1u8..32).prop_map(Step::Offer),
        2 => (1u8..8).prop_map(Step::Budget),
        1 => Just(Step::Drain),
    ]
}

fn policy_strategy() -> impl Strategy<Value = IngestionPolicy> {
    prop_oneof![
        Just(IngestionPolicy::basic()),
        Just(IngestionPolicy::spill()),
        Just(IngestionPolicy::discard()),
        Just(IngestionPolicy::throttle()),
        Just(IngestionPolicy::elastic()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// offered = delivered + discarded + throttled + deferred, exactly,
    /// whether the flow finishes or a blown budget terminates it — and what
    /// is delivered arrives in order.
    #[test]
    fn flow_controller_conserves_records(
        policy in policy_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..60),
    ) {
        let sink = ScriptedSink::new(2);
        let metrics = FeedMetrics::with_default_bucket(SimClock::fast());
        let mut fc = FlowController::new(
            policy,
            Arc::clone(&metrics),
            Box::new(sink.clone()),
            FeedId(1),
        );
        let accounted = |deferred: u64| {
            sink.records().len() as u64
                + metrics.records_discarded.get()
                + metrics.records_throttled.get()
                + deferred
        };
        let mut offered = 0u64;
        let mut next_id = 0u64;
        for step in steps {
            match step {
                Step::Offer(n) => {
                    let f = frame(next_id, n as usize);
                    next_id += n as u64;
                    offered += n as u64;
                    match fc.offer(f) {
                        Ok(()) => {}
                        Err(asterix_common::IngestError::FeedTerminated { .. }) => {
                            // Basic with a blown budget: the terminating
                            // frame was not admitted, and everything before
                            // it is delivered, dropped or still deferred
                            offered -= n as u64;
                            let deferred: u64 =
                                fc.take_deferred().iter().map(|f| f.len() as u64).sum();
                            prop_assert_eq!(accounted(deferred), offered);
                            return Ok(());
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                Step::Budget(n) => sink.drain(n as usize),
                Step::Drain => {
                    fc.drain_deferred().unwrap();
                }
            }
        }
        // the consumer catches up and the flow finishes: nothing is left
        // deferred
        while !fc.finish().unwrap() {
            sink.drain(usize::MAX);
        }
        prop_assert!(sink.is_closed());
        let ids: Vec<u64> = sink.records().iter().map(|r| r.id.raw()).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "delivery order: {:?}", ids);
        prop_assert_eq!(accounted(0), offered);
    }

    /// Every subscriber of a joint receives exactly the frames deposited
    /// while it was subscribed, in deposit order.
    #[test]
    fn joint_guarantees_ordered_delivery(
        ops in prop::collection::vec(0u8..4, 1..80),
    ) {
        let joint = FeedJoint::new("prop");
        let mut subs: Vec<(u64, asterix_feeds::joint::JointSubscription, Vec<u64>)> =
            Vec::new();
        let mut next_sub = 0u64;
        let mut next_frame_id = 0u64;
        for op in ops {
            match op {
                // subscribe
                0 => {
                    let key = format!("s{next_sub}");
                    subs.push((next_sub, joint.subscribe(key), Vec::new()));
                    next_sub += 1;
                }
                // unsubscribe the oldest
                1 => {
                    if !subs.is_empty() {
                        let (_, sub, expected) = subs.remove(0);
                        // before leaving, verify what it saw
                        let mut got = Vec::new();
                        while let Some(JointRecv::Frame(f)) = sub.try_recv() {
                            got.push(f.records()[0].id.raw());
                        }
                        prop_assert_eq!(got, expected);
                        sub.unsubscribe();
                    }
                }
                // deposit a frame
                _ => {
                    let f = frame(next_frame_id, 1);
                    joint.deposit(f).unwrap();
                    for (_, _, expected) in subs.iter_mut() {
                        expected.push(next_frame_id);
                    }
                    next_frame_id += 1;
                }
            }
        }
        // verify the survivors
        for (_, sub, expected) in subs {
            let mut got = Vec::new();
            while let Some(JointRecv::Frame(f)) = sub.try_recv() {
                got.push(f.records()[0].id.raw());
            }
            prop_assert_eq!(got, expected);
        }
    }

    /// Policy extension is lossless: parameters not overridden keep the
    /// base's values; overridden ones take effect; round-tripping a
    /// parameter through set_param is idempotent.
    #[test]
    fn policy_extension_is_sound(
        spill in any::<bool>(),
        discard in any::<bool>(),
        throttle in any::<bool>(),
        elastic in any::<bool>(),
        budget_kb in 1usize..4096,
        fraction in 1u32..100,
    ) {
        let mut params = std::collections::BTreeMap::new();
        params.insert("excess.records.spill".into(), spill.to_string());
        params.insert("excess.records.discard".into(), discard.to_string());
        params.insert("excess.records.throttle".into(), throttle.to_string());
        params.insert("excess.records.elastic".into(), elastic.to_string());
        params.insert("memory.budget.bytes".into(), format!("{budget_kb}KB"));
        params.insert(
            "throttle.keep.fraction".into(),
            format!("{}", fraction as f64 / 100.0),
        );
        let p = IngestionPolicy::basic().extend("Custom", &params).unwrap();
        prop_assert_eq!(p.excess_records_spill, spill);
        prop_assert_eq!(p.excess_records_discard, discard);
        prop_assert_eq!(p.excess_records_throttle, throttle);
        prop_assert_eq!(p.excess_records_elastic, elastic);
        prop_assert_eq!(p.memory_budget_bytes, budget_kb * 1024);
        // untouched parameters keep their Basic defaults
        prop_assert!(p.recover_soft_failure);
        prop_assert!(p.recover_hard_failure);
        prop_assert!(!p.at_least_once);
        // deriving again with no overrides is the identity (modulo name)
        let q = p.extend("Copy", &std::collections::BTreeMap::new()).unwrap();
        prop_assert_eq!(q.primary_excess_strategy(), p.primary_excess_strategy());
        prop_assert_eq!(q.memory_budget_bytes, p.memory_budget_bytes);
    }
}
