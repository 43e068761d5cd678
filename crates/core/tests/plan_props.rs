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
//! The router and the store partitioner read a record through a projection
//! of its bytes instead of a decoded tree; the last two properties pin that
//! a projection routes and hashes exactly like the full value.

use asterix_adm::{decode_value, hash::hash_value, payload_from_value, with_fields, AdmValue};
use asterix_common::{Counter, Record, SimInstant};
use asterix_feeds::adaptor::AdaptorConfig;
use asterix_feeds::ops::store_key_fn;
use asterix_feeds::plan::{IngestPlan, PlanSource, RoutePredicate, RoutingMode, SinkSpec};
use proptest::prelude::*;

fn country() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("US"), Just("DE"), Just("FR"), Just("BR")]
}

fn leaf() -> impl Strategy<Value = RoutePredicate> {
    prop_oneof![
        country().prop_map(|c| RoutePredicate::eq("country", c)),
        (0i64..100_000).prop_map(|n| RoutePredicate::gt("user.followers_count", n)),
        (0i64..100_000).prop_map(|n| RoutePredicate::lt("user.followers_count", n)),
        Just(RoutePredicate::exists("location")),
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

/// Records as hostile to a projection as the data model allows: fields in
/// any order, any of them missing or present twice with different values,
/// `user` sometimes not a record at all.
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
            for (i, sink) in fm.sinks.iter().enumerate().take(chosen) {
                let p = sink.predicate.as_ref().expect("otherwise is last");
                prop_assert!(
                    !p.matches(rec, gen_at),
                    "arm {i} matches but arm {chosen} was chosen"
                );
            }
            if let Some(p) = &fm.sinks[chosen].predicate {
                prop_assert!(p.matches(rec, gen_at), "chosen arm does not match");
            }

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
            let matches_any = p
                .sinks
                .iter()
                .any(|s| s.predicate.as_ref().expect("no otherwise").matches(rec, None));
            prop_assert_eq!(targets.is_empty(), !matches_any);
        }
    }

    /// What the routing operator does with a record — evaluate the plan on
    /// a projection of its bytes onto `route_fields()` — picks the same sinks
    /// as evaluating it on the fully decoded record, and decodes nothing.
    #[test]
    fn routing_a_projection_equals_routing_the_record(
        preds in prop::collection::vec(pred(), 0..5),
        multicast in any::<bool>(),
        records in prop::collection::vec(
            (ragged_record(), any::<bool>(), 0u64..20_000), 1..30),
    ) {
        let mode = if multicast { RoutingMode::Multicast } else { RoutingMode::FirstMatch };
        let plan = plan(mode, preds);
        let fields = plan.route_fields().expect("every generated leaf names a field");
        let decodes = Counter::new();
        for (rec, timed, at) in &records {
            let gen_at = timed.then_some(SimInstant(*at));
            let payload = payload_from_value(rec.clone());
            let route = |v: &AdmValue| plan.route_record(v, gen_at);
            let projected = with_fields(&payload, &fields, &decodes, route).unwrap();
            let full = decode_value(&payload).unwrap();
            prop_assert_eq!(projected, route(&full), "record {:?}", rec);
        }
        prop_assert_eq!(decodes.get(), 0);
    }

    /// The partitioner hashes a record's primary key out of its bytes: same
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

/// A predicate that compares the record as a whole cannot be served by a
/// projection: the plan says so and the router decodes the full value.
#[test]
fn whole_record_predicates_disable_the_projection() {
    let whole = RoutePredicate::Exists { field: Vec::new() };
    let named = RoutePredicate::eq("country", "US");
    let fields = |preds| plan(RoutingMode::FirstMatch, preds).route_fields();
    assert_eq!(fields(vec![named.clone(), whole]), None);
    assert_eq!(
        fields(vec![
            named,
            RoutePredicate::gt("user.followers_count", 5),
            RoutePredicate::window(10, 5),
            RoutePredicate::exists("user.name"),
        ]),
        Some(vec!["country".to_string(), "user".to_string()]),
        "top-level heads only, each once"
    );
    assert_eq!(fields(Vec::new()), Some(Vec::new()), "otherwise-only plan");
}
