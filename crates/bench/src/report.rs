//! Experiment output: one table and one CSV to stdout, the JSON record and
//! the metrics snapshot under `results/`, and the key check against the
//! committed record.
//!
//! Serialization is hand-rolled (a tiny [`Json`] tree, the [`ToJson`] trait
//! and the [`obj!`](crate::obj) object macro) so the harness has no external
//! serialization dependency.

use asterix_adm::AdmValue;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// Any number (serialized via shortest-roundtrip formatting).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Serialize with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, level: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Num(n) => return out.push_str(&number(*n)),
            Json::Str(s) => return write_escaped(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&"  ".repeat(level + 1));
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(": ");
            }
            value.write(out, level + 1);
        }
        if !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        out.push(close);
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number at `key` of an object (NaN when absent or not a number).
    pub fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            _ => f64::NAN,
        }
    }

    /// The numbers of the array at `key` of an object.
    pub fn nums(&self, key: &str) -> Vec<f64> {
        match self.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| if let Json::Num(n) = v { *n } else { f64::NAN })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The elements of an array (an object or scalar is its own one row).
    pub fn rows(&self) -> Vec<&Json> {
        match self {
            Json::Arr(items) => items.iter().collect(),
            other => vec![other],
        }
    }
}

fn number(n: f64) -> String {
    if !n.is_finite() {
        "null".into() // JSON has no inf/NaN
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`Json`] tree (the harness's `Serialize`).
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

macro_rules! to_json_num {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )*};
}
to_json_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// A JSON object from `key: value` pairs, in order:
/// `obj! { nodes: 4, persisted: n, rate: series }`.
#[macro_export]
macro_rules! obj {
    ($($key:ident : $value:expr),* $(,)?) => {
        $crate::report::Json::Obj(vec![
            $((stringify!($key).to_string(), $crate::report::ToJson::to_json(&$value))),*
        ])
    };
}

/// A finished experiment's record: its name, the paper artefact it
/// regenerates and its data.
pub fn report(experiment: &str, paper_artifact: &str, data: Json) -> Json {
    obj! { experiment: experiment, paper_artifact: paper_artifact, data: data }
}

/// Every key of a JSON text as a dotted path from the root (read with the
/// ADM parser, whose grammar is JSON's plus extensions); array elements
/// share their array's path, so records with the same columns and series
/// of different lengths have the same keys. `None` when it does not parse.
pub fn key_paths(text: &str) -> Option<BTreeSet<String>> {
    fn walk(v: &AdmValue, prefix: &str, out: &mut BTreeSet<String>) {
        match v {
            AdmValue::Record(fields) => {
                for (k, child) in fields {
                    walk(child, &format!("{prefix}{k}."), out);
                    out.insert(format!("{prefix}{k}"));
                }
            }
            AdmValue::OrderedList(items) => items.iter().for_each(|x| walk(x, prefix, out)),
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(&asterix_adm::parse_value(text).ok()?, "", &mut out);
    Some(out)
}

/// Write `body` to `results/<file>`. A failure is printed, not fatal (the
/// stdout table is the primary output).
pub fn write_result(file: &str, body: &str) {
    let path = PathBuf::from("results").join(file);
    let written = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, body));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Print a record's data: its scalar columns as one table (an object's
/// nested records as tables of their own) and its series — the number
/// arrays — as one CSV, a column per row and series.
pub fn print_data(title: &str, data: &Json) {
    let cell = |v: &Json| match v {
        Json::Num(n) if n.fract() != 0.0 => format!("{n:.3}"),
        Json::Num(n) => number(*n),
        Json::Str(s) => s.replace('\n', "; "),
        _ => String::new(),
    };
    let rows = data.rows();
    let mut nested: Vec<(String, &Json)> = Vec::new();
    let mut series: Vec<(String, Vec<String>)> = Vec::new();
    let mut headers: Vec<String> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(fields) = row else { continue };
        let label = match fields.first() {
            Some((_, Json::Str(s))) => s.clone(),
            _ => i.to_string(),
        };
        let mut cells = Vec::new();
        for (k, v) in fields {
            match v {
                Json::Arr(items) if items.iter().all(|x| matches!(x, Json::Num(_))) => {
                    let col = if rows.len() > 1 {
                        format!("{label}.{k}")
                    } else {
                        k.clone()
                    };
                    series.push((col, items.iter().map(cell).collect()));
                }
                Json::Arr(_) => nested.push((k.clone(), v)),
                v => {
                    if i == 0 {
                        headers.push(k.clone());
                    }
                    cells.push(cell(v));
                }
            }
        }
        table.push(cells);
    }
    if !headers.is_empty() {
        println!("\n== {title} ==");
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &table {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let line = |cells: &[String]| {
            let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}"));
            padded.collect::<Vec<_>>().join("  ")
        };
        println!(
            "{}\n{}",
            line(&headers),
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        table.iter().for_each(|row| println!("{}", line(row)));
    }
    for (k, v) in nested {
        print_data(&format!("{title}: {k}"), v);
    }
    if !series.is_empty() {
        let names: Vec<&str> = series.iter().map(|(k, _)| k.as_str()).collect();
        println!("\nCSV: i,{}", names.join(","));
        for i in 0..series.iter().map(|(_, s)| s.len()).max().unwrap_or(0) {
            let cells = series
                .iter()
                .map(|(_, s)| s.get(i).map_or("", String::as_str));
            println!("{i},{}", cells.collect::<Vec<_>>().join(","));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_serializes_in_field_order() {
        let p = obj! { t_secs: 1.5, rate: 300.0, label: "a\"b" };
        let j = p.pretty();
        assert!(j.contains("\"t_secs\": 1.5"));
        assert!(j.contains("\"rate\": 300"));
        assert!(j.contains("\"label\": \"a\\\"b\""));
        let t = j.find("t_secs").unwrap();
        let r = j.find("rate").unwrap();
        assert!(t < r, "field order preserved");
    }

    #[test]
    fn report_wraps_data() {
        let rep = report("x", "y", vec![1u64, 2, 3].to_json());
        let j = rep.pretty();
        assert!(j.contains("\"experiment\": \"x\""));
        assert!(j.contains('['));
    }

    #[test]
    fn escapes_and_specials() {
        assert_eq!(Json::Str("a\nb".into()).pretty(), "\"a\\nb\"");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null");
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        assert_eq!(Json::Null.pretty(), "null");
    }

    #[test]
    fn key_paths_read_back_what_was_written() {
        let row = |policy: &str, rate: Vec<f64>| obj! { policy: policy, rate: rate };
        let rows = vec![row("Basic", vec![1.0, 2.5]), row("Spill", vec![0.5])];
        let paths = key_paths(&report("x", "y", rows.to_json()).pretty()).unwrap();
        let want = [
            "data",
            "data.policy",
            "data.rate",
            "experiment",
            "paper_artifact",
        ];
        assert!(paths.iter().eq(want.iter()));
        assert_eq!(key_paths("{ \"a\": "), None);
    }
}
