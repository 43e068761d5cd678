//! Property tests over the feed machinery's core invariants:
//!
//! * **Record conservation** — under any policy and congestion pattern, a
//!   joint subscription accounts for every record deposited into it:
//!   delivered + discarded + throttled + still held (memory and spill) =
//!   offered, and what is delivered and held comes out in order;
//! * **Guaranteed delivery** — a feed joint delivers every deposited frame
//!   to every subscriber that stays subscribed, in order, under arbitrary
//!   interleavings of subscribe/unsubscribe;
//! * **Policy algebra** — custom-policy derivation never loses or invents
//!   parameter state.

use asterix_common::{DataFrame, FeedId, MetricsRegistry, Record, RecordId, SimClock};
use asterix_feeds::joint::{ExcessPolicy, FeedJoint, JointRecv};
use asterix_feeds::metrics::FeedMetrics;
use asterix_feeds::policy::IngestionPolicy;
use proptest::prelude::*;

fn frame(start: u64, len: usize) -> DataFrame {
    DataFrame::from_records(
        (0..len as u64)
            .map(|i| Record::tracked(RecordId(start + i), 0, "payload"))
            .collect(),
    )
}

#[derive(Debug, Clone)]
enum Step {
    Offer(u8), // deposit a frame of 1..=32 records
    Take(u8),  // the consumer takes up to n frames
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (1u8..32).prop_map(Step::Offer),
        1 => (1u8..4).prop_map(Step::Take),
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

    /// offered = delivered + discarded + throttled + held, exactly, at a
    /// subscription under any of the five policies; the ids delivered and
    /// then the ids still held (memory, then spill) are in offer order.
    #[test]
    fn subscription_conserves_records(
        policy in policy_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..300),
    ) {
        let registry = MetricsRegistry::new();
        let metrics = FeedMetrics::registered(&registry, "c", SimClock::fast());
        let joint = FeedJoint::new("prop");
        let excess = ExcessPolicy::new(policy, metrics, FeedId(1));
        let sub = joint.subscribe_policed("p#p0", excess);
        let mut ids = Vec::new();
        let mut offered = 0u64;
        for step in steps {
            match step {
                Step::Offer(n) => {
                    joint.deposit(frame(offered, n as usize)).unwrap();
                    offered += n as u64;
                }
                Step::Take(n) => {
                    for _ in 0..n {
                        match sub.try_recv() {
                            Some(JointRecv::Frame(f)) => {
                                ids.extend(f.records().iter().map(|r| r.id.raw()))
                            }
                            None => break,
                            other => return Err(TestCaseError::fail(format!("{other:?}"))),
                        }
                    }
                }
            }
        }
        let delivered = ids.len() as u64;
        let held = joint.detach_queued("p#p0");
        ids.extend(held.iter().flat_map(|h| h.frame.records().iter().map(|r| r.id.raw())));
        let held = ids.len() as u64 - delivered;
        let count = |name: &str| registry.counter(name, &[("conn", "c")]).get();
        prop_assert_eq!(
            delivered + count("feed.records_discarded") + count("feed.records_throttled") + held,
            offered
        );
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "order: {:?}", ids);
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
