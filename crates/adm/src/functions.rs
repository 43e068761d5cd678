//! Builtin scalar functions.
//!
//! The subset of AQL's builtin library that the paper's listings use:
//! `word-tokens`, `starts-with` (Listing 4.2), `create-point`,
//! `create-rectangle`, `spatial-intersect`, `spatial-cell` (Listing 3.3).
//! The paper's example AQL UDF built on them, `addHashTags`, is
//! `asterix-feeds`' `Udf::add_hash_tags`, which tokenises with
//! [`word_token_strs`] straight out of the record's bytes.

use crate::value::AdmValue;
use asterix_common::{IngestError, IngestResult};

/// `word-tokens($s)` — split a string on non-alphanumeric boundaries,
/// keeping `#` and `@` prefixes attached to their word (Twitter jargon).
pub fn word_tokens(v: &AdmValue) -> IngestResult<AdmValue> {
    let s = v.as_str().ok_or_else(|| {
        IngestError::Type(format!("word-tokens expects string, got {}", v.type_name()))
    })?;
    Ok(AdmValue::OrderedList(
        word_token_strs(s).map(AdmValue::string).collect(),
    ))
}

/// The tokens [`word_tokens`] splits `s` into, borrowed from `s`: maximal
/// runs of alphanumerics and `_`, a run may start with one `#` or `@`.
pub fn word_token_strs(s: &str) -> impl Iterator<Item = &str> {
    let mut chars = s.char_indices();
    std::iter::from_fn(move || {
        let mut start = None;
        for (i, c) in chars.by_ref() {
            let takes =
                c.is_alphanumeric() || c == '_' || (start.is_none() && (c == '#' || c == '@'));
            match (takes, start) {
                (true, None) => start = Some(i),
                (false, Some(from)) => return Some(&s[from..i]),
                _ => {}
            }
        }
        start.map(|from| &s[from..])
    })
}

/// `starts-with($s, $prefix)`.
pub fn starts_with(v: &AdmValue, prefix: &AdmValue) -> IngestResult<AdmValue> {
    match (v.as_str(), prefix.as_str()) {
        (Some(s), Some(p)) => Ok(AdmValue::Boolean(s.starts_with(p))),
        _ => Err(IngestError::Type("starts-with expects two strings".into())),
    }
}

/// `create-point($x, $y)`.
pub fn create_point(x: &AdmValue, y: &AdmValue) -> IngestResult<AdmValue> {
    match (x.as_f64(), y.as_f64()) {
        (Some(x), Some(y)) => Ok(AdmValue::Point(x, y)),
        _ => Err(IngestError::Type("create-point expects two numbers".into())),
    }
}

/// A rectangle represented as a record `{bl: point, tr: point}` (AQL's
/// rectangle type, modelled as a record here).
pub fn create_rectangle(bl: &AdmValue, tr: &AdmValue) -> IngestResult<AdmValue> {
    if bl.as_point().is_none() || tr.as_point().is_none() {
        return Err(IngestError::Type(
            "create-rectangle expects two points".into(),
        ));
    }
    Ok(AdmValue::Record(vec![
        ("bl".into(), bl.clone()),
        ("tr".into(), tr.clone()),
    ]))
}

/// `spatial-intersect($point, $rectangle)` — point-in-rectangle test.
pub fn spatial_intersect(point: &AdmValue, rect: &AdmValue) -> IngestResult<AdmValue> {
    let (px, py) = point.as_point().ok_or_else(|| {
        IngestError::Type(format!(
            "spatial-intersect expects a point, got {}",
            point.type_name()
        ))
    })?;
    let (bl, tr) = rectangle_corners(rect)?;
    Ok(AdmValue::Boolean(
        px >= bl.0 && px <= tr.0 && py >= bl.1 && py <= tr.1,
    ))
}

fn rectangle_corners(rect: &AdmValue) -> IngestResult<((f64, f64), (f64, f64))> {
    let bl = rect
        .field("bl")
        .and_then(AdmValue::as_point)
        .ok_or_else(|| IngestError::Type("rectangle missing bl point".into()))?;
    let tr = rect
        .field("tr")
        .and_then(AdmValue::as_point)
        .ok_or_else(|| IngestError::Type("rectangle missing tr point".into()))?;
    Ok((bl, tr))
}

/// `spatial-cell($point, $origin, $xInc, $yInc)` — the grid cell (as the
/// cell's origin point) containing `$point` (Listing 3.3's aggregation key).
pub fn spatial_cell(
    point: &AdmValue,
    origin: &AdmValue,
    x_inc: &AdmValue,
    y_inc: &AdmValue,
) -> IngestResult<AdmValue> {
    let (px, py) = point
        .as_point()
        .ok_or_else(|| IngestError::Type("spatial-cell expects a point".into()))?;
    let (ox, oy) = origin
        .as_point()
        .ok_or_else(|| IngestError::Type("spatial-cell expects an origin point".into()))?;
    let (xi, yi) = match (x_inc.as_f64(), y_inc.as_f64()) {
        (Some(a), Some(b)) if a > 0.0 && b > 0.0 => (a, b),
        _ => {
            return Err(IngestError::Type(
                "spatial-cell expects positive numeric increments".into(),
            ))
        }
    };
    let cx = ox + ((px - ox) / xi).floor() * xi;
    let cy = oy + ((py - oy) / yi).floor() * yi;
    Ok(AdmValue::Point(cx, cy))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokens_splits_and_keeps_tags() {
        let toks = word_tokens(&"go #Obama, see @you today!".into()).unwrap();
        let toks: Vec<&str> = toks
            .as_list()
            .unwrap()
            .iter()
            .map(|t| t.as_str().unwrap())
            .collect();
        assert_eq!(toks, vec!["go", "#Obama", "see", "@you", "today"]);
    }

    #[test]
    fn word_tokens_empty_and_type_error() {
        assert_eq!(
            word_tokens(&"".into()).unwrap(),
            AdmValue::OrderedList(vec![])
        );
        assert!(word_tokens(&AdmValue::Int(1)).is_err());
    }

    #[test]
    fn starts_with_works() {
        assert_eq!(
            starts_with(&"#tag".into(), &"#".into()).unwrap(),
            AdmValue::Boolean(true)
        );
        assert_eq!(
            starts_with(&"tag".into(), &"#".into()).unwrap(),
            AdmValue::Boolean(false)
        );
        assert!(starts_with(&AdmValue::Null, &"#".into()).is_err());
    }

    #[test]
    fn point_and_rectangle() {
        let p = create_point(&AdmValue::Int(1), &AdmValue::Double(2.5)).unwrap();
        assert_eq!(p, AdmValue::Point(1.0, 2.5));
        let bl = AdmValue::Point(0.0, 0.0);
        let tr = AdmValue::Point(10.0, 10.0);
        let rect = create_rectangle(&bl, &tr).unwrap();
        assert_eq!(
            spatial_intersect(&AdmValue::Point(5.0, 5.0), &rect).unwrap(),
            AdmValue::Boolean(true)
        );
        assert_eq!(
            spatial_intersect(&AdmValue::Point(11.0, 5.0), &rect).unwrap(),
            AdmValue::Boolean(false)
        );
        assert!(create_rectangle(&AdmValue::Null, &tr).is_err());
        assert!(spatial_intersect(&AdmValue::Null, &rect).is_err());
    }

    #[test]
    fn spatial_cell_snaps_to_grid() {
        let origin = AdmValue::Point(33.13, -124.27);
        let cell = spatial_cell(
            &AdmValue::Point(34.0, -120.0),
            &origin,
            &AdmValue::Double(3.0),
            &AdmValue::Double(3.0),
        )
        .unwrap();
        let (cx, cy) = cell.as_point().unwrap();
        assert!((cx - 33.13).abs() < 1e-9);
        assert!((cy - (-121.27)).abs() < 1e-9);
        // negative increments rejected
        assert!(spatial_cell(
            &AdmValue::Point(0.0, 0.0),
            &origin,
            &AdmValue::Double(-1.0),
            &AdmValue::Double(1.0)
        )
        .is_err());
    }
}
