//! Xdriver4ES's mapping module (paper §3.1): "converts the query results
//! into a format that a SQL engine understands. For example, we implement
//! in this module built-in functions of SQL, such as data type conversion
//! and IFNULL."
//!
//! [`SqlRow`] renders a result document as SQL-typed cells: timestamps
//! become `YYYY-MM-DD HH:MM:SS` strings, NULLs are explicit, and the
//! `IFNULL`/`DATE_FORMAT` helpers cover the conversions the paper names.

use crate::datetime::format_datetime;
use esdb_doc::{Document, FieldValue};

/// A result row rendered for a SQL client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlRow {
    /// `(column, rendered value)` pairs; `None` = SQL NULL.
    pub cells: Vec<(String, Option<String>)>,
}

/// Renders one value the way a SQL driver would print it.
pub(crate) fn render_value(v: &FieldValue) -> Option<String> {
    match v {
        FieldValue::Null => None,
        FieldValue::Bool(b) => Some(if *b { "1".into() } else { "0".into() }),
        FieldValue::Int(i) => Some(i.to_string()),
        FieldValue::Float(x) => Some(format!("{x}")),
        FieldValue::Timestamp(t) => Some(format_datetime(*t)),
        FieldValue::Str(s) => Some(s.clone()),
    }
}

/// `DATE_FORMAT(ts, pattern)` with the MySQL specifiers the transaction-log
/// tooling uses: `%Y %m %d %H %i %s`.
pub fn date_format(ts_ms: u64, pattern: &str) -> String {
    let full = format_datetime(ts_ms); // "YYYY-MM-DD HH:MM:SS"
    let (date, time) = full.split_at(10);
    let time = &time[1..];
    let mut out = String::with_capacity(pattern.len());
    let mut chars = pattern.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('Y') => out.push_str(&date[0..4]),
            Some('m') => out.push_str(&date[5..7]),
            Some('d') => out.push_str(&date[8..10]),
            Some('H') => out.push_str(&time[0..2]),
            Some('i') => out.push_str(&time[3..5]),
            Some('s') => out.push_str(&time[6..8]),
            Some('%') => out.push('%'),
            Some(other) => {
                out.push('%');
                out.push(other);
            }
            None => out.push('%'),
        }
    }
    out
}

/// Renders a document under a projection (empty projection = all
/// structured fields plus the routing columns, in a stable order).
pub fn to_sql_row(doc: &Document, projection: &[String]) -> SqlRow {
    let mut cells = Vec::new();
    if projection.is_empty() {
        cells.push((
            "tenant_id".to_string(),
            Some(doc.tenant_id.raw().to_string()),
        ));
        cells.push((
            "record_id".to_string(),
            Some(doc.record_id.raw().to_string()),
        ));
        cells.push((
            "created_time".to_string(),
            Some(format_datetime(doc.created_at)),
        ));
        for (name, value) in doc.fields() {
            cells.push((name.to_string(), render_value(value)));
        }
    } else {
        for col in projection {
            let rendered = doc.get(col).as_ref().and_then(render_value);
            cells.push((col.clone(), rendered));
        }
    }
    SqlRow { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esdb_common::{RecordId, TenantId};

    fn doc() -> Document {
        Document::builder(TenantId(7), RecordId(9), 1_631_750_400_000)
            .field("status", 1i64)
            .field("amount", FieldValue::Float(9.5))
            .field("note", FieldValue::Null)
            .field("title", "rust book")
            .build()
    }

    #[test]
    fn full_row_rendering() {
        let row = to_sql_row(&doc(), &[]);
        let get = |name: &str| {
            row.cells
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .expect("column present")
        };
        assert_eq!(get("tenant_id"), Some("7".into()));
        assert_eq!(get("created_time"), Some("2021-09-16 00:00:00".into()));
        assert_eq!(get("status"), Some("1".into()));
        assert_eq!(get("amount"), Some("9.5".into()));
        assert_eq!(get("note"), None, "NULL stays NULL");
    }

    #[test]
    fn projection_selects_and_orders() {
        let row = to_sql_row(&doc(), &["title".into(), "missing".into()]);
        assert_eq!(row.cells.len(), 2);
        assert_eq!(row.cells[0], ("title".into(), Some("rust book".into())));
        assert_eq!(row.cells[1], ("missing".into(), None));
    }

    #[test]
    fn date_format_specifiers() {
        let ts = 1_631_793_045_000; // 2021-09-16 11:50:45
        assert_eq!(date_format(ts, "%Y-%m-%d"), "2021-09-16");
        assert_eq!(date_format(ts, "%H:%i:%s"), "11:50:45");
        assert_eq!(date_format(ts, "day %d of %m, %Y"), "day 16 of 09, 2021");
        assert_eq!(date_format(ts, "100%%"), "100%");
        assert_eq!(
            date_format(ts, "%q"),
            "%q",
            "unknown specifiers pass through"
        );
    }

    #[test]
    fn bool_and_float_rendering() {
        assert_eq!(render_value(&FieldValue::Bool(true)), Some("1".into()));
        assert_eq!(render_value(&FieldValue::Bool(false)), Some("0".into()));
        assert_eq!(render_value(&FieldValue::Float(2.0)), Some("2".into()));
    }
}
