//! Property tests over the ingestion-plan routing IR.
//!
//! The load-bearing invariant of first-match routing: when a plan carries a
//! catch-all `otherwise` arm, the arms **partition** the stream — every
//! record routes to exactly one sink (exhaustive, non-overlapping), the
//! chosen arm is the first whose predicate matches, and the multicast view
//! of the same arms is always a superset containing that choice. The
//! routing operator, the `exp_fanout` bench oracle and these tests all call
//! the same [`IngestPlan::route_record`], so whatever these properties pin
//! down is what the pipeline does.
//!
//! The router tests its arms on a record's bytes
//! ([`IngestPlan::route_payload`]), and an arm means what the same AQL text
//! means in a query. A tree oracle with AQL's semantics — `$t.<path>` read
//! field by field, `missing` past an absent field or a `null`, an error
//! through any other non-record, an erring arm taking nothing — pins that
//! over records as ragged as the data model allows, with and without
//! stamps. The unit cases after it pin each of the three routing rules of
//! DESIGN.md "Routing semantics". The last property pins that the store
//! partitioner hashes the key it reads out of the bytes exactly like the
//! key of the full value.

use asterix_adm::{
    decode_value, hash::hash_value, payload_from_text, payload_from_value, AdmValue,
};
use asterix_common::{Counter, Record, SimInstant};
use asterix_feeds::adaptor::AdaptorConfig;
use asterix_feeds::ops::store_key_fn;
use asterix_feeds::plan::{CmpOp, IngestPlan, PlanSource, RoutePredicate, RoutingMode, SinkSpec};
use proptest::prelude::*;

fn country() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("US"), Just("DE"), Just("FR"), Just("BR")]
}

fn leaf() -> impl Strategy<Value = RoutePredicate> {
    prop_oneof![
        country().prop_map(|c| RoutePredicate::eq("country", c)),
        country().prop_map(|c| RoutePredicate::compare("country", CmpOp::Ne, c)),
        (0i64..100_000).prop_map(|n| RoutePredicate::gt("user.followers_count", n)),
        (0i64..100_000).prop_map(|n| RoutePredicate::lt("user.followers_count", n)),
        (0i64..100_000).prop_map(|n| RoutePredicate::compare("user.followers_count", CmpOp::Le, n)),
        Just(RoutePredicate::exists("location")),
        Just(RoutePredicate::exists("user.name")),
        // windowed arms exercise the gen_at-dependent branch
        (1u64..5_000, 0u64..5_000).prop_map(|(p, o)| RoutePredicate::window(p, o)),
    ]
}

fn pred() -> impl Strategy<Value = RoutePredicate> {
    prop_oneof![
        leaf(),
        prop::collection::vec(leaf(), 1..3).prop_map(RoutePredicate::all),
        prop::collection::vec(leaf(), 1..3).prop_map(RoutePredicate::any),
        leaf().prop_map(RoutePredicate::negate),
    ]
}

fn record() -> impl Strategy<Value = AdmValue> {
    (country(), 0i64..100_000, any::<bool>(), 0u64..10_000).prop_map(
        |(c, followers, has_location, id)| {
            let mut fields = vec![
                ("id", AdmValue::String(format!("r{id}"))),
                ("country", c.into()),
                (
                    "user",
                    AdmValue::record(vec![("followers_count", AdmValue::Int(followers))]),
                ),
            ];
            if has_location {
                fields.push(("location", AdmValue::Point(1.0, 2.0)));
            }
            AdmValue::record(fields)
        },
    )
}

/// Records as hostile to a field read as the data model allows: fields in
/// any order, any of them missing or present twice with different values,
/// `user` sometimes an int or `null`.
fn ragged_record() -> impl Strategy<Value = AdmValue> {
    let field = prop_oneof![
        country().prop_map(|c| ("country", AdmValue::from(c))),
        (0i64..100_000).prop_map(|n| {
            let user = AdmValue::record(vec![
                ("name", "u".into()),
                ("followers_count", AdmValue::Int(n)),
            ]);
            ("user", user)
        }),
        (0i64..100_000).prop_map(|n| ("user", AdmValue::Int(n))),
        Just(("user", AdmValue::Null)),
        Just(("location", AdmValue::Point(1.0, 2.0))),
        (0u64..50).prop_map(|id| ("id", AdmValue::String(format!("r{id}")))),
        (0i64..50).prop_map(|id| ("id", AdmValue::Int(id))),
        "[a-z]{0,12}".prop_map(|t| ("message_text", AdmValue::String(t))),
    ];
    prop::collection::vec(field, 0..8).prop_map(AdmValue::record)
}

/// N predicate arms plus a final `otherwise` arm.
fn plan(mode: RoutingMode, preds: Vec<RoutePredicate>) -> IngestPlan {
    let mut sinks: Vec<SinkSpec> = preds
        .into_iter()
        .enumerate()
        .map(|(i, p)| SinkSpec::to(format!("D{i}")).route(p))
        .collect();
    sinks.push(SinkSpec::to("Rest"));
    IngestPlan {
        name: "Prop".into(),
        source: PlanSource::Adaptor {
            alias: "socket_adaptor".into(),
            config: AdaptorConfig::new(),
        },
        stages: Vec::new(),
        mode,
        sinks,
    }
}

/// `$t.<path>` on the tree, as AQL reads it: `missing` past an absent
/// field or a `null`/`missing`, an error on any other non-record.
fn read(row: &AdmValue, path: &[String]) -> Result<AdmValue, ()> {
    path.iter().try_fold(row.clone(), |v, name| match v {
        AdmValue::Record(_) => Ok(v.field(name).cloned().unwrap_or(AdmValue::Missing)),
        AdmValue::Null | AdmValue::Missing => Ok(AdmValue::Missing),
        _ => Err(()),
    })
}

/// An arm's verdict on the tree: comparisons under `total_cmp`, combinators
/// left to right with short-circuit, a window on the stamp.
fn oracle(pred: &RoutePredicate, row: &AdmValue, stamp: Option<u64>) -> Result<bool, ()> {
    match pred {
        RoutePredicate::Compare { path, op, literal } => {
            Ok(op.holds(read(row, path)?.total_cmp(literal)))
        }
        RoutePredicate::All(ps) => {
            for p in ps {
                if !oracle(p, row, stamp)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        RoutePredicate::Any(ps) => {
            for p in ps {
                if oracle(p, row, stamp)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        RoutePredicate::Not(p) => Ok(!oracle(p, row, stamp)?),
        RoutePredicate::Window {
            period_millis,
            open_millis,
        } => Ok(stamp.is_some_and(|at| *period_millis > 0 && at % period_millis < *open_millis)),
    }
}

/// Does the arm of `sink` take `row`? An arm whose test errs takes nothing;
/// `otherwise` takes everything.
fn takes(sink: &SinkSpec, row: &AdmValue, stamp: Option<u64>) -> bool {
    sink.predicate
        .as_ref()
        .is_none_or(|p| oracle(p, row, stamp) == Ok(true))
}

/// The sinks the oracle routes `row` to.
fn oracle_route(plan: &IngestPlan, row: &AdmValue, stamp: Option<u64>) -> Vec<usize> {
    let mut taken = (0..plan.sinks.len()).filter(|&i| takes(&plan.sinks[i], row, stamp));
    match plan.mode {
        RoutingMode::FirstMatch => taken.next().into_iter().collect(),
        RoutingMode::Multicast => taken.collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn first_match_with_otherwise_partitions_the_stream(
        preds in prop::collection::vec(pred(), 0..5),
        records in prop::collection::vec(
            (record(), any::<bool>(), 0u64..20_000), 1..40),
    ) {
        let fm = plan(RoutingMode::FirstMatch, preds.clone());
        fm.validate().unwrap();
        prop_assert!(fm.has_otherwise());
        let mc = plan(RoutingMode::Multicast, preds);

        for (rec, timed, at) in &records {
            let gen_at = timed.then_some(SimInstant(*at));
            let targets = fm.route_record(rec, gen_at);

            // exhaustive and non-overlapping: exactly one sink, always
            prop_assert_eq!(targets.len(), 1, "partition violated: {:?}", targets);
            let chosen = targets[0];

            // cross-validate against independent per-arm evaluation: no arm
            // before the chosen one matches, and the chosen one does (or is
            // the catch-all)
            let stamp = gen_at.map(SimInstant::as_millis);
            for (i, sink) in fm.sinks.iter().enumerate().take(chosen) {
                prop_assert!(
                    !takes(sink, rec, stamp),
                    "arm {i} matches but arm {chosen} was chosen"
                );
            }
            prop_assert!(takes(&fm.sinks[chosen], rec, stamp), "chosen arm does not match");

            // the multicast view of the same arms is a superset whose
            // minimum is the first-match choice; its catch-all always fires
            let all = mc.route_record(rec, gen_at);
            prop_assert!(all.contains(&(mc.sinks.len() - 1)));
            prop_assert_eq!(chosen, *all.iter().min().unwrap());
        }
    }

    /// Without `otherwise`, first-match routes to at most one sink and
    /// drops exactly the records no arm matches — never duplicates.
    #[test]
    fn first_match_without_otherwise_never_duplicates(
        preds in prop::collection::vec(pred(), 1..5),
        records in prop::collection::vec(record(), 1..40),
    ) {
        let mut p = plan(RoutingMode::FirstMatch, preds);
        p.sinks.pop(); // drop the otherwise arm
        p.validate().unwrap();
        prop_assert!(!p.has_otherwise());
        for rec in &records {
            let targets = p.route_record(rec, None);
            prop_assert!(targets.len() <= 1);
            let matches_any = p.sinks.iter().any(|s| takes(s, rec, None));
            prop_assert_eq!(targets.is_empty(), !matches_any);
        }
    }

    /// What the routing operator does with a record — test every arm on
    /// its bytes and stamp — picks exactly the sinks the AQL tree oracle
    /// picks, on records with absent, duplicated, non-record and `null`
    /// fields.
    #[test]
    fn routing_the_bytes_equals_the_tree_oracle(
        preds in prop::collection::vec(pred(), 0..5),
        multicast in any::<bool>(),
        otherwise in any::<bool>(),
        records in prop::collection::vec(
            (ragged_record(), any::<bool>(), 0u64..20_000), 1..30),
    ) {
        let mode = if multicast { RoutingMode::Multicast } else { RoutingMode::FirstMatch };
        let mut plan = plan(mode, preds);
        if !otherwise {
            plan.sinks.pop();
        }
        for (rec, timed, at) in &records {
            let gen_at = timed.then_some(SimInstant(*at));
            let payload = payload_from_value(rec.clone());
            prop_assert_eq!(
                plan.route_payload(&payload, gen_at),
                oracle_route(&plan, rec, gen_at.map(SimInstant::as_millis)),
                "record {:?}", rec
            );
        }
    }

    /// The partitioner reads a record's primary key out of its bytes: same
    /// bucket as the key of the fully decoded record, whatever the key's
    /// position, type or multiplicity — and the whole value when there is no
    /// key.
    #[test]
    fn hashing_a_projected_key_equals_hashing_the_record(
        records in prop::collection::vec(ragged_record(), 1..30),
    ) {
        let key_fn = store_key_fn("id".into(), Counter::new());
        for rec in &records {
            let record = Record::untracked(0, payload_from_value(rec.clone()));
            let full = decode_value(&record.payload).unwrap();
            let expected = hash_value(full.field("id").unwrap_or(&full));
            prop_assert_eq!(key_fn(&record), expected, "record {:?}", rec);
        }
    }
}

/// A routing plan over `arms` with an `otherwise` arm after them.
fn routed(arms: &[&str]) -> IngestPlan {
    plan(
        RoutingMode::FirstMatch,
        arms.iter()
            .map(|f| RoutePredicate::compare(f, CmpOp::Ne, "x"))
            .collect(),
    )
}

/// Rule 1: an absent field, or a path through `null`, reads `missing`,
/// which ranks lowest, so `!=`, `<` and `<=` hold for it.
#[test]
fn an_absent_or_null_path_reads_missing() {
    let rec = payload_from_text(r#"{ "id": "r1", "user": null }"#).unwrap();
    assert_eq!(routed(&["lang"]).route_payload(&rec, None), vec![0]);
    for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Ne] {
        for path in ["user.followers_count", "absent.deeper"] {
            let arm = RoutePredicate::compare(path, op, 10);
            let plan = plan(RoutingMode::FirstMatch, vec![arm]);
            assert_eq!(plan.route_payload(&rec, None), vec![0], "{path} {op:?}");
        }
    }
    let gt = plan(
        RoutingMode::FirstMatch,
        vec![RoutePredicate::gt("user.followers_count", 10)],
    );
    assert_eq!(gt.route_payload(&rec, None), vec![1], "missing is not > 10");
}

/// Rule 2: a path through a non-record is AQL's error; an arm whose test
/// errs does not take the record (negated or not), `otherwise` does.
#[test]
fn an_erring_arm_takes_nothing_and_otherwise_still_does() {
    let rec = payload_from_text(r#"{ "id": "r1", "user": 7, "lang": "en" }"#).unwrap();
    let through = RoutePredicate::gt("user.followers_count", 10);
    let fm = plan(
        RoutingMode::FirstMatch,
        vec![through.clone(), through.clone().negate()],
    );
    assert_eq!(fm.route_payload(&rec, None), vec![2]);
    let mc = plan(
        RoutingMode::Multicast,
        vec![through.clone().negate(), RoutePredicate::eq("lang", "en")],
    );
    assert_eq!(mc.route_payload(&rec, None), vec![1, 2]);
    let mut bare = plan(RoutingMode::FirstMatch, vec![through]);
    bare.sinks.pop();
    assert!(bare.route_payload(&rec, None).is_empty());
}

/// Rule 3: bytes that do not walk reach the `otherwise` sink (whose store
/// soft-fails them), and without one match nothing (the router counts them
/// in `plan.route.no_match_total`).
#[test]
fn bytes_that_do_not_walk_reach_otherwise_or_match_nothing() {
    let good = payload_from_text(r#"{ "id": "r1", "lang": "en" }"#).unwrap();
    let mut with_otherwise = routed(&["lang"]);
    for junk in [&b"junk"[..], &good[..good.len() / 2], &[]] {
        assert_eq!(
            with_otherwise.route_payload(junk, None),
            vec![1],
            "{junk:?}"
        );
    }
    with_otherwise.sinks.pop();
    assert!(with_otherwise.route_payload(b"junk", None).is_empty());
}
