//! The benchmark's own spans, recorded around its calls into the system and
//! kept in memory until the repetition ends.

use asterixdb_ingestion::adm::AdmValue;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Span recorder of one repetition; times are microseconds since `origin`.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.push(name, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Spans, usize) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Duration of the first span called `name`, in milliseconds.
    pub fn duration_ms(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
    }

    pub fn as_slice(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, in microseconds: each span's duration minus the
/// time its direct children cover.
pub fn self_time_us(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_us - s.start_us);
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// `{name, start_us, end_us, parent, rep}` records for the trace file.
pub fn to_json(spans: &[Span], rep: u32) -> AdmValue {
    AdmValue::OrderedList(
        spans
            .iter()
            .map(|s| {
                AdmValue::record(vec![
                    ("name", AdmValue::string(s.name)),
                    ("start_us", AdmValue::Int(s.start_us as i64)),
                    ("end_us", AdmValue::Int(s.end_us as i64)),
                    (
                        "parent",
                        s.parent.map_or(AdmValue::Null, |p| AdmValue::Int(p as i64)),
                    ),
                    ("rep", AdmValue::Int(i64::from(rep))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        let root = s.push("setup", 0, 100, None);
        let ddl = s.push("ddl", 10, 40, Some(root));
        s.push("parse", 15, 25, Some(ddl));
        s.push("connect", 40, 90, Some(root));
        s.push("query", 200, 230, None);
        s.push("query", 300, 320, None);
        let own = self_time_us(s.as_slice());
        assert_eq!(own["setup"], 20);
        assert_eq!(own["ddl"], 20);
        assert_eq!(own["parse"], 10);
        assert_eq!(own["connect"], 50);
        assert_eq!(own["query"], 50);
        assert_eq!(s.duration_ms("ddl"), Some(0.03));
        assert_eq!(s.duration_ms("nope"), None);
    }
}
