//! The four workloads: what runs, how many records, on which schedule, and
//! the reference answer every output is checked against.
//!
//! Inputs are a pure function of `(workload, seed, n)`: the seed feeds
//! `TweetFactory::new(0, seed)`, the schedule depends on the workload and
//! the record count only. The program under test receives nothing but the
//! generated lines.

use asterixdb_ingestion::hyracks::transport::TransportKind;
use asterixdb_ingestion::tweetgen::TweetFactory;

/// Country the reader's query selects (`paced_scan` runs the query beside
/// the writer; the other workloads run it on the drained dataset).
pub const READER_COUNTRY: &str = "US";

/// Backlog (offered − durable) below which a burst counts as caught up.
pub const CATCHUP_BACKLOG: u64 = 500;

/// Lines the in-process socket holds before `send` blocks.
pub const SOCKET_LINES: usize = 4096;

/// Think time of the `paced_scan` reader between queries.
pub const READER_THINK_MS: u64 = 10;

/// Steady and burst offer rates of the open loops, records per second.
const PACED_RPS: u64 = 15_000;
const STEADY_RPS: u64 = 5_000;
const BURST_RPS: u64 = 150_000;

/// `burst_spill`'s lead-in, burst and tail in 85ths of its records: at full
/// size 2 000 records at the steady rate (0.4 s), 75 000 at the burst rate
/// (0.5 s offered, about 1 s to catch up), 8 000 at the steady rate (1.6 s).
const BURST_SHARES: (usize, usize) = (2, 75);

/// Records a closed loop keeps outstanding (offered, not yet durable).
pub const CLOSED_LOOP_WINDOW: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SatStore,
    SatComputeTcp,
    BurstSpill,
    PacedScan,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SatStore,
        Workload::SatComputeTcp,
        Workload::BurstSpill,
        Workload::PacedScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SatStore => "sat_store",
            Workload::SatComputeTcp => "sat_compute_tcp",
            Workload::BurstSpill => "burst_spill",
            Workload::PacedScan => "paced_scan",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Records whose ingestion one repetition times (frozen: throughput
    /// depends on resident data, so the count never follows wall time). The
    /// closed loops offer a short paced tail on top, see [`tail_records`].
    pub fn records(self) -> usize {
        match self {
            Workload::SatStore => 150_000,
            Workload::SatComputeTcp => 120_000,
            Workload::BurstSpill => 85_000,
            Workload::PacedScan => 45_000,
        }
    }

    /// Sink datasets in route-arm order.
    pub fn sinks(self) -> &'static [&'static str] {
        match self {
            Workload::SatComputeTcp => &["D1", "D2", "D3"],
            _ => &["D"],
        }
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Workload::SatComputeTcp => TransportKind::Tcp,
            _ => TransportKind::InProcess,
        }
    }

    /// Type, dataset and index DDL.
    pub fn ddl(self) -> String {
        let mut ddl = String::from(
            r#"use dataverse feeds;
create type TwitterUser as open {
    screen_name: string, lang: string, friends_count: int32,
    statuses_count: int32, name: string, followers_count: int32
};
create type Tweet as open {
    id: string, user: TwitterUser, latitude: double?, longitude: double?,
    created_at: string, message_text: string, country: string?
};
"#,
        );
        for sink in self.sinks() {
            ddl.push_str(&format!("create dataset {sink}(Tweet) primary key id;\n"));
        }
        if self == Workload::BurstSpill {
            ddl.push_str("create index countryIdx on D(country) type btree;\n");
        }
        ddl
    }

    /// `create feed` + `connect` statements for a socket bound at `socket`.
    pub fn connect_ddl(self, socket: &str) -> String {
        let head = format!(r#"create feed F using socket_adaptor ("sockets"="{socket}")"#);
        match self {
            Workload::SatStore | Workload::PacedScan => {
                format!("{head};\nconnect feed F to dataset D using policy Basic;")
            }
            Workload::BurstSpill => {
                format!("{head};\nconnect feed F to dataset D using policy Spill;")
            }
            Workload::SatComputeTcp => format!(
                r#"{head}
  apply function "tweetlib#sentimentAnalysis"
  route to D1 where $t.country = "US",
        to D2 where $t.user.followers_count > 50000,
        to D3 otherwise;
connect plan F;"#
            ),
        }
    }

    /// `conn` label of each sink's `feed.*` counters, sink-aligned.
    pub fn connection_keys(self) -> Vec<String> {
        self.sinks().iter().map(|s| format!("F->{s}")).collect()
    }

    /// The reader's query against the first sink.
    pub fn reader_query(self) -> String {
        format!(
            r#"for $t in dataset {} where $t.country = "{READER_COUNTRY}" return $t.id;"#,
            self.sinks()[0]
        )
    }
}

/// Everything one repetition offers, plus the reference it is checked with.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// JSON lines: line 0 is offered during set-up (its durability ends
    /// `setup_s`), lines `1..=closed` are offered closed-loop, the rest on
    /// the `open_due_us` schedule.
    pub lines: Vec<String>,
    /// Reference sink of every line, by the plain-text route below.
    pub sink_of: Vec<u8>,
    /// Lines whose country is the reader's query constant, per sink 0.
    pub reader_rows: usize,
    /// Total bytes of the lines.
    pub bytes: u64,
    /// Lines offered closed-loop (0 for the open loops).
    pub closed: usize,
    /// Due time of line `1 + closed + k`, in microseconds after the open
    /// phase starts. For the closed loops this is the paced tail that
    /// follows saturation, the only stretch where their lag is sampled.
    pub open_due_us: Vec<u64>,
    /// `burst_spill`: index range `[start, end)` of the burst lines.
    pub burst: Option<(usize, usize)>,
}

/// Raw token following `"key":` in a generated tweet line.
fn text_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = match rest.strip_prefix('"') {
        Some(s) => return s.find('"').map(|e| &s[..e]),
        None => rest.find([',', '}'])?,
    };
    Some(&rest[..end])
}

/// The route re-implemented on the generated text, independent of the
/// program's predicate evaluator: US → arm 0, else more than 50 000
/// followers → arm 1, else arm 2.
pub fn reference_arm(line: &str) -> Option<u8> {
    if text_field(line, "country")? == "US" {
        return Some(0);
    }
    let followers: u64 = text_field(line, "followers_count")?.parse().ok()?;
    Some(if followers > 50_000 { 1 } else { 2 })
}

/// Evenly spaced due times: `count` records at `rps`, starting at `from_us`.
/// Returns the time the phase ends.
fn push_phase(due: &mut Vec<u64>, from_us: u64, count: usize, rps: u64) -> u64 {
    due.extend((0..count as u64).map(|k| from_us + k * 1_000_000 / rps));
    from_us + count as u64 * 1_000_000 / rps
}

/// Records of the paced tail the closed loops offer after saturation has
/// drained: one second at the steady rate, less for small smoke sizes. Lag
/// under saturation only measures how much the intake buffered, so the
/// closed loops sample lag here, below capacity, with `n` records resident.
pub fn tail_records(n: usize) -> usize {
    (n / 5).min(STEADY_RPS as usize)
}

/// Closed-loop line count, open-phase due times and, for `burst_spill`, the
/// burst's index range into the lines.
fn schedule(workload: Workload, n: usize) -> (usize, Vec<u64>, Option<(usize, usize)>) {
    let mut due = Vec::new();
    match workload {
        Workload::PacedScan => {
            push_phase(&mut due, 0, n, PACED_RPS);
            (0, due, None)
        }
        Workload::BurstSpill => {
            let lead = n * BURST_SHARES.0 / 85;
            let burst = n * BURST_SHARES.1 / 85;
            let t = push_phase(&mut due, 0, lead, STEADY_RPS);
            let t = push_phase(&mut due, t, burst, BURST_RPS);
            push_phase(&mut due, t, n - lead - burst, STEADY_RPS);
            (0, due, Some((1 + lead, 1 + lead + burst)))
        }
        Workload::SatStore | Workload::SatComputeTcp => {
            push_phase(&mut due, 0, tail_records(n), STEADY_RPS);
            (n, due, None)
        }
    }
}

/// Lines one repetition offers: the set-up line, the timed records and, for
/// the closed loops, the paced tail.
pub fn offered_lines(workload: Workload, n: usize) -> usize {
    let (closed, open_due_us, _) = schedule(workload, n);
    1 + closed + open_due_us.len()
}

/// Generate one repetition's inputs.
pub fn inputs(workload: Workload, seed: u64, n: usize) -> Inputs {
    let mut factory = TweetFactory::new(0, seed);
    let (closed, open_due_us, burst) = schedule(workload, n);
    let lines: Vec<String> = (0..offered_lines(workload, n))
        .map(|_| factory.next_json())
        .collect();
    let routed = workload.sinks().len() > 1;
    let sink_of = lines
        .iter()
        .map(|l| match routed {
            true => reference_arm(l).expect("generated tweet has country and followers_count"),
            false => 0,
        })
        .collect();
    let reader_rows = lines
        .iter()
        .filter(|l| text_field(l, "country") == Some(READER_COUNTRY))
        .count();
    let bytes = lines.iter().map(|l| l.len() as u64).sum();
    Inputs {
        lines,
        sink_of,
        reader_rows,
        bytes,
        closed,
        open_due_us,
        burst,
    }
}

/// Sequence number of a generated tweet id (`"0-<seq>"`), which is also its
/// index in [`Inputs::lines`].
pub fn seq_of_id(id: &str) -> Option<usize> {
    id.strip_prefix("0-")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterixdb_ingestion::adm::parse_value;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn inputs_are_a_pure_function_of_workload_seed_and_size() {
        for w in Workload::ALL {
            let a = inputs(w, 7, 600);
            assert_eq!(a, inputs(w, 7, 600));
            assert_ne!(a.lines, inputs(w, 8, 600).lines);
            assert_eq!(a.open_due_us, inputs(w, 8, 600).open_due_us);
            assert_eq!(a.lines.len(), 1 + a.closed + a.open_due_us.len());
            // open loops schedule all 600, closed loops add a 120-line tail
            let open_loop = matches!(w, Workload::BurstSpill | Workload::PacedScan);
            assert_eq!(a.closed, if open_loop { 0 } else { 600 });
            assert_eq!(a.open_due_us.len(), if open_loop { 600 } else { 120 });
        }
    }

    #[test]
    fn reference_route_agrees_with_a_full_parse() {
        let inp = inputs(Workload::SatComputeTcp, 3, 2_000);
        let mut seen = [0usize; 3];
        for (i, line) in inp.lines.iter().enumerate() {
            let v = parse_value(line).unwrap();
            let country = v.field("country").unwrap().as_str().unwrap();
            let followers = v
                .field("user")
                .and_then(|u| u.field("followers_count"))
                .and_then(|f| f.as_int())
                .unwrap();
            let arm = match (country == "US", followers > 50_000) {
                (true, _) => 0,
                (false, true) => 1,
                (false, false) => 2,
            };
            assert_eq!(inp.sink_of[i], arm, "{line}");
            assert_eq!(seq_of_id(v.field("id").unwrap().as_str().unwrap()), Some(i));
            seen[arm as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n > 100), "every arm is used: {seen:?}");
    }

    #[test]
    fn burst_schedule_has_three_phases_at_the_stated_rates() {
        let inp = inputs(Workload::BurstSpill, 1, 85_000);
        let due = inp.open_due_us;
        let (b0, b1) = inp.burst.unwrap();
        assert_eq!((b0, b1), (2_001, 77_001));
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // 2 000 records at 5 k/s, 75 000 at 150 k/s, 8 000 at 5 k/s; line
        // `i` is due at `due[i - 1]`
        assert_eq!(due[b0 - 1], 400_000);
        assert_eq!(due[b1 - 1], 900_000);
        assert_eq!(due[b0] - due[b0 - 1], 6);
        assert_eq!(due[b1] - due[b1 - 1], 200);
        assert_eq!(*due.last().unwrap(), 900_000 + 7_999 * 200);
    }

    #[test]
    fn paced_schedule_is_evenly_spaced() {
        let inp = inputs(Workload::PacedScan, 1, 15_000);
        assert_eq!(inp.open_due_us[0], 0);
        assert_eq!(inp.open_due_us[14_999], 999_933);
        assert!(inp.burst.is_none());
    }

    #[test]
    fn closed_loops_end_with_a_paced_tail() {
        let inp = inputs(Workload::SatStore, 1, 150_000);
        assert_eq!(inp.closed, 150_000);
        assert_eq!(inp.open_due_us.len(), 5_000);
        assert_eq!(inp.open_due_us[4_999], 999_800);
        assert_eq!(tail_records(5_000), 1_000);
    }
}
