//! Ingestion policies under data indigestion (Chapter 7): the same overload
//! handled five ways, plus a custom Spill-then-Throttle policy composed in
//! AQL (Listing 4.6).
//!
//! ```sh
//! cargo run --release --example ingestion_policies
//! ```

use asterixdb_ingestion::aql::engine::AsterixEngine;
use asterixdb_ingestion::common::{SimClock, SimDuration};
use asterixdb_ingestion::feeds::controller::ControllerConfig;
use asterixdb_ingestion::hyracks::cluster::{Cluster, ClusterConfig};
use asterixdb_ingestion::tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};
use std::time::Duration;

const DDL: &str = r#"
create type TwitterUser as open {
    screen_name: string, lang: string, friends_count: int32,
    statuses_count: int32, name: string, followers_count: int32
};
create type Tweet as open {
    id: string, user: TwitterUser, latitude: double?, longitude: double?,
    created_at: string, message_text: string, country: string?
};
create dataset Tweets(Tweet) primary key id;
"#;

fn run(policy_stmts: &str, policy: &str, round: usize) {
    let clock = SimClock::with_scale(100.0);
    let cluster = Cluster::start(
        2,
        clock.clone(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
    );
    let engine = AsterixEngine::start(
        cluster.clone(),
        ControllerConfig {
            compute_parallelism: Some(1),
            compute_extra_delay_us: 400, // capacity ≈ 2500 records/s
            ..ControllerConfig::default()
        },
    );
    engine.execute(DDL).expect("ddl");
    engine
        .execute(
            r##"create function addHashTags($x) {
                let $topics := (for $t in word-tokens($x.message_text)
                                where starts-with($t, "#") return $t)
                return { "id": $x.id, "user": $x.user,
                         "created_at": $x.created_at,
                         "message_text": $x.message_text, "topics": $topics };
            };"##,
        )
        .expect("udf");
    if !policy_stmts.is_empty() {
        engine.execute(policy_stmts).expect("custom policy");
    }
    let addr = format!("policies-demo-{round}:9000");
    // offered ≈ 4000 records/s real vs ≈ 2500/s capacity: a sustained
    // overload, long enough to fill the intake's port and its subscription's
    // 32 in-memory frames (~4 000 records) several times over
    let gen = TweetGen::bind(
        TweetGenConfig::new(&addr, 0, PatternDescriptor::constant(400, 60)),
        clock,
    )
    .expect("bind");
    engine
        .execute(&format!(
            r#"
            create feed TwitterFeed using TweetGenAdaptor ("datasource"="{addr}");
            create secondary feed P from feed TwitterFeed apply function addHashTags;
            connect feed P to dataset Tweets using policy {policy};
            "#
        ))
        .expect("connect");
    // run to completion + drain
    let dataset = engine.catalog().dataset("Tweets").unwrap();
    let mut last = 0;
    loop {
        std::thread::sleep(Duration::from_millis(400));
        let n = dataset.len();
        if n == last && n > 0 {
            break;
        }
        last = n;
    }
    let snap = engine.controller().registry().snapshot();
    let count = |name: &str| snap.counter_for(name, "TwitterFeed:addHashTags");
    let spill_bytes = snap.gauge_for("feed.spill_bytes", "TwitterFeed:addHashTags");
    println!(
        "  {policy:<20} generated={:<6} persisted={:<6} discarded={:<5} throttled={:<5} spilled={:<6} spill_left={}KB",
        gen.generated(),
        dataset.len(),
        count("feed.records_discarded"),
        count("feed.records_throttled"),
        count("feed.records_spilled"),
        spill_bytes.unwrap_or(0) / 1024,
    );
    gen.stop();
    engine.controller().shutdown();
    cluster.shutdown();
}

fn main() {
    println!("ingestion policies under a 1.6x overload (Chapter 7):\n");
    run("", "Basic", 0);
    run("", "Spill", 1);
    run("", "Discard", 2);
    run("", "Throttle", 3);
    // Listing 4.6's custom policy: spill until the disk budget is gone,
    // then throttle
    run(
        r#"create ingestion policy Spill_then_Throttle from policy Spill
           (("max.spill.size.on.disk"="256KB", "excess.records.throttle"="true"));"#,
        "Spill_then_Throttle",
        4,
    );
    println!(
        "\nBasic/Spill persist everything (excess deferred); Discard/Throttle \
         shed the excess; the custom policy spills 256KB then throttles."
    );
}
