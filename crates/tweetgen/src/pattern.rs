//! Pattern descriptors.
//!
//! Listing 5.13 configures TweetGen with an XML file:
//!
//! ```xml
//! <pattern>
//!   <cycle repeat="5">
//!     <interval><rate>300</rate><duration>400</duration></interval>
//!     <interval><rate>600</rate><duration>400</duration></interval>
//!   </cycle>
//! </pattern>
//! ```
//!
//! "The example pattern described there defines a cycle with two 400 second
//! intervals with the respective rates of generation of tweets being 300
//! twps and 600 twps. As defined in the descriptor, the cycle is repeated 5
//! times." Durations are sim-seconds; rates are tweets per sim-second.

use asterix_common::{IngestError, IngestResult, SimDuration};

/// One `(rate, duration)` segment of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Tweets per sim-second during the interval.
    pub rate_twps: u32,
    /// Interval length.
    pub duration: SimDuration,
}

/// The full descriptor: a cycle of intervals, repeated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternDescriptor {
    /// Intervals in one cycle.
    pub intervals: Vec<Interval>,
    /// How many times the cycle repeats.
    pub repeat: u32,
}

impl PatternDescriptor {
    /// A constant rate for a fixed duration (the common experiment shape).
    pub fn constant(rate_twps: u32, duration_secs: u64) -> Self {
        PatternDescriptor {
            intervals: vec![Interval {
                rate_twps,
                duration: SimDuration::from_secs(duration_secs),
            }],
            repeat: 1,
        }
    }

    /// The paper's Listing 5.13 example: 300/600 twps in 400 s intervals,
    /// repeated 5 times.
    pub fn paper_example() -> Self {
        PatternDescriptor {
            intervals: vec![
                Interval {
                    rate_twps: 300,
                    duration: SimDuration::from_secs(400),
                },
                Interval {
                    rate_twps: 600,
                    duration: SimDuration::from_secs(400),
                },
            ],
            repeat: 5,
        }
    }

    /// Length of one cycle, in sim-milliseconds.
    fn cycle_millis(&self) -> u64 {
        self.intervals.iter().map(|i| i.duration.as_millis()).sum()
    }

    /// Total run time of the descriptor.
    pub fn total_duration(&self) -> SimDuration {
        SimDuration::from_millis(self.cycle_millis() * self.repeat as u64)
    }

    /// Total tweets the pattern will emit.
    pub fn total_tweets(&self) -> u64 {
        self.tweets_due(self.total_duration())
    }

    /// Tweets due by offset `t` from the start: the integral of the rate up
    /// to `t`, rounded down per interval (`rate * elapsed_ms / 1000`). Monotone
    /// in `t`, and `tweets_due(total_duration()) == total_tweets()`.
    pub fn tweets_due(&self, t: SimDuration) -> u64 {
        let per_cycle = self.cycle_millis();
        if per_cycle == 0 {
            return 0;
        }
        let t = t.as_millis().min(per_cycle * self.repeat as u64);
        // whole cycles, then the elapsed part of each interval of the last
        let due_by = |mut within: u64| -> u64 {
            let mut due = 0;
            for iv in &self.intervals {
                let elapsed = within.min(iv.duration.as_millis());
                due += iv.rate_twps as u64 * elapsed / 1000;
                within -= elapsed;
            }
            due
        };
        t / per_cycle * due_by(per_cycle) + due_by(t % per_cycle)
    }

    /// The rate in effect at offset `t` from the start; `None` once past the
    /// end of all repeats.
    pub fn rate_at(&self, t: SimDuration) -> Option<u32> {
        let per_cycle = self.cycle_millis();
        if per_cycle == 0 || t >= self.total_duration() {
            return None;
        }
        let mut within = t.as_millis() % per_cycle;
        for iv in &self.intervals {
            if within < iv.duration.as_millis() {
                return Some(iv.rate_twps);
            }
            within -= iv.duration.as_millis();
        }
        None
    }

    /// Parse the XML descriptor format of Listing 5.13. The parser accepts
    /// exactly the structure the paper shows: a `<pattern>` element holding
    /// one `<cycle repeat="N">` with `<interval>` children each containing
    /// `<rate>` and `<duration>` (sim-seconds).
    pub fn parse_xml(text: &str) -> IngestResult<PatternDescriptor> {
        fn inner<'a>(text: &'a str, tag: &str) -> IngestResult<&'a str> {
            let open = format!("<{tag}");
            let close = format!("</{tag}>");
            let start = text
                .find(&open)
                .ok_or_else(|| IngestError::Parse(format!("missing <{tag}>")))?;
            let body_start = text[start..]
                .find('>')
                .map(|i| start + i + 1)
                .ok_or_else(|| IngestError::Parse(format!("malformed <{tag}>")))?;
            let end = text[body_start..]
                .find(&close)
                .map(|i| body_start + i)
                .ok_or_else(|| IngestError::Parse(format!("missing </{tag}>")))?;
            Ok(&text[body_start..end])
        }

        let pattern_body = inner(text, "pattern")?;
        // repeat attribute on <cycle ...>
        let cycle_open_start = pattern_body
            .find("<cycle")
            .ok_or_else(|| IngestError::Parse("missing <cycle>".into()))?;
        let cycle_tag_end = pattern_body[cycle_open_start..]
            .find('>')
            .map(|i| cycle_open_start + i)
            .ok_or_else(|| IngestError::Parse("malformed <cycle>".into()))?;
        let cycle_tag = &pattern_body[cycle_open_start..cycle_tag_end];
        let repeat = match cycle_tag.find("repeat=\"") {
            Some(i) => {
                let rest = &cycle_tag[i + 8..];
                let end = rest
                    .find('"')
                    .ok_or_else(|| IngestError::Parse("unterminated repeat attr".into()))?;
                rest[..end]
                    .parse::<u32>()
                    .map_err(|_| IngestError::Parse("bad repeat attr".into()))?
            }
            None => 1,
        };
        let cycle_body = inner(pattern_body, "cycle")?;
        let mut intervals = Vec::new();
        let mut rest = cycle_body;
        while let Some(start) = rest.find("<interval>") {
            let end = rest[start..]
                .find("</interval>")
                .map(|i| start + i)
                .ok_or_else(|| IngestError::Parse("missing </interval>".into()))?;
            let body = &rest[start + "<interval>".len()..end];
            let rate: u32 = inner(body, "rate")?
                .trim()
                .parse()
                .map_err(|_| IngestError::Parse("bad <rate>".into()))?;
            let duration: u64 = inner(body, "duration")?
                .trim()
                .parse()
                .map_err(|_| IngestError::Parse("bad <duration>".into()))?;
            intervals.push(Interval {
                rate_twps: rate,
                duration: SimDuration::from_secs(duration),
            });
            rest = &rest[end + "</interval>".len()..];
        }
        if intervals.is_empty() {
            return Err(IngestError::Parse("pattern has no intervals".into()));
        }
        Ok(PatternDescriptor { intervals, repeat })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_XML: &str = r#"
        <pattern>
          <cycle repeat="5">
            <interval><rate>300</rate><duration>400</duration></interval>
            <interval><rate>600</rate><duration>400</duration></interval>
          </cycle>
        </pattern>
    "#;

    #[test]
    fn parses_the_paper_example() {
        let p = PatternDescriptor::parse_xml(PAPER_XML).unwrap();
        assert_eq!(p, PatternDescriptor::paper_example());
        assert_eq!(p.total_duration(), SimDuration::from_secs(4000));
        assert_eq!(p.total_tweets(), 5 * (300 * 400 + 600 * 400));
    }

    #[test]
    fn repeat_defaults_to_one() {
        let xml = "<pattern><cycle><interval><rate>10</rate><duration>5</duration></interval></cycle></pattern>";
        let p = PatternDescriptor::parse_xml(xml).unwrap();
        assert_eq!(p.repeat, 1);
        assert_eq!(p.total_tweets(), 50);
    }

    #[test]
    fn rejects_malformed_xml() {
        assert!(PatternDescriptor::parse_xml("<pattern></pattern>").is_err());
        assert!(PatternDescriptor::parse_xml("<cycle></cycle>").is_err());
        assert!(PatternDescriptor::parse_xml(
            "<pattern><cycle><interval><rate>x</rate><duration>1</duration></interval></cycle></pattern>"
        )
        .is_err());
        assert!(
            PatternDescriptor::parse_xml("<pattern><cycle repeat=\"2\"></cycle></pattern>")
                .is_err()
        );
    }

    #[test]
    fn tweets_due_is_the_exact_monotone_integral() {
        let p = PatternDescriptor::paper_example();
        let ms = SimDuration::from_millis;
        assert_eq!(p.tweets_due(ms(0)), 0);
        assert_eq!(p.tweets_due(ms(1)), 0, "300 twps: 0.3 due after 1 ms");
        assert_eq!(p.tweets_due(SimDuration::from_secs(400)), 300 * 400);
        assert_eq!(p.tweets_due(SimDuration::from_secs(401)), 300 * 400 + 600);
        assert_eq!(p.tweets_due(SimDuration::from_secs(800)), 360_000);
        assert_eq!(p.tweets_due(p.total_duration()), p.total_tweets());
        assert_eq!(p.tweets_due(ms(u64::MAX / 2)), p.total_tweets());
        let odd = PatternDescriptor::constant(7, 3);
        let mut last = 0;
        for t in (0..=3_100).step_by(37) {
            let due = odd.tweets_due(ms(t));
            assert!(due >= last, "monotone at {t} ms");
            last = due;
        }
        assert_eq!(last, 21);
    }

    #[test]
    fn rate_at_follows_the_square_wave() {
        let p = PatternDescriptor::paper_example();
        assert_eq!(p.rate_at(SimDuration::from_secs(0)), Some(300));
        assert_eq!(p.rate_at(SimDuration::from_secs(399)), Some(300));
        assert_eq!(p.rate_at(SimDuration::from_secs(400)), Some(600));
        assert_eq!(p.rate_at(SimDuration::from_secs(799)), Some(600));
        // wraps into the second cycle
        assert_eq!(p.rate_at(SimDuration::from_secs(800)), Some(300));
        // past the end of all 5 cycles
        assert_eq!(p.rate_at(SimDuration::from_secs(4000)), None);
    }

    #[test]
    fn constant_pattern() {
        let p = PatternDescriptor::constant(5000, 400);
        assert_eq!(p.rate_at(SimDuration::from_secs(100)), Some(5000));
        assert_eq!(p.total_tweets(), 2_000_000);
    }
}
