//! Datetime literal conversion — part of Xdriver4ES's mapping module
//! ("we implement in this module built-in functions of SQL, such as data
//! type conversion", §3.1). Parses `'YYYY-MM-DD[ HH:MM:SS]'` literals into
//! epoch milliseconds (UTC) with the standard civil-date algorithm.

/// Days from the civil epoch 1970-01-01 for a (year, month, day), using
/// Howard Hinnant's `days_from_civil` algorithm.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Whether `(y, m, d)` is a real calendar date.
fn valid_date(y: i64, m: u32, d: u32) -> bool {
    if !(1..=12).contains(&m) || d < 1 {
        return false;
    }
    let leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
    let dim = match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if leap {
                29
            } else {
                28
            }
        }
        _ => unreachable!(),
    };
    d <= dim
}

/// Parses `YYYY-MM-DD` or `YYYY-MM-DD HH:MM:SS` into epoch milliseconds.
/// Returns `None` for malformed or impossible datetimes.
pub(crate) fn parse_datetime(s: &str) -> Option<u64> {
    let s = s.trim();
    let (date_part, time_part) = match s.split_once(' ') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut it = date_part.split('-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !valid_date(y, m, d) {
        return None;
    }
    let (hh, mm, ss) = match time_part {
        None => (0u32, 0u32, 0u32),
        Some(t) => {
            let mut it = t.split(':');
            let hh: u32 = it.next()?.parse().ok()?;
            let mm: u32 = it.next()?.parse().ok()?;
            let ss: u32 = it.next()?.parse().ok()?;
            if it.next().is_some() || hh > 23 || mm > 59 || ss > 59 {
                return None;
            }
            (hh, mm, ss)
        }
    };
    let days = days_from_civil(y, m, d);
    let secs = days * 86_400 + hh as i64 * 3_600 + mm as i64 * 60 + ss as i64;
    if secs < 0 {
        return None;
    }
    Some(secs as u64 * 1_000)
}

/// Formats epoch milliseconds back to `YYYY-MM-DD HH:MM:SS` (UTC) — the
/// inverse mapping used when rendering results to a SQL client.
pub(crate) fn format_datetime(ms: u64) -> String {
    let secs = (ms / 1_000) as i64;
    let days = secs.div_euclid(86_400);
    let sod = secs.rem_euclid(86_400);
    // civil_from_days (Hinnant).
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
        y,
        m,
        d,
        sod / 3_600,
        (sod % 3_600) / 60,
        sod % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_epochs() {
        assert_eq!(parse_datetime("1970-01-01"), Some(0));
        assert_eq!(parse_datetime("1970-01-01 00:00:01"), Some(1_000));
        // 2021-09-16 00:00:00 UTC = 1631750400.
        assert_eq!(
            parse_datetime("2021-09-16 00:00:00"),
            Some(1_631_750_400_000)
        );
        // Leap-year day.
        assert_eq!(parse_datetime("2020-02-29"), Some(1_582_934_400_000));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "2021-13-01",
            "2021-00-10",
            "2021-02-30",
            "2019-02-29",
            "2021-09-16 24:00:00",
            "2021-09-16 10:60:00",
            "not a date",
            "2021-09",
            "2021-09-16 10:00",
            "",
        ] {
            assert_eq!(parse_datetime(bad), None, "{bad} should be rejected");
        }
    }

    #[test]
    fn format_roundtrip() {
        for s in [
            "1970-01-01 00:00:00",
            "2021-09-16 00:00:00",
            "2021-11-11 23:59:59",
            "2000-02-29 12:30:45",
        ] {
            let ms = parse_datetime(s).unwrap();
            assert_eq!(format_datetime(ms), s);
        }
    }

    #[test]
    fn ordering_preserved() {
        let a = parse_datetime("2021-09-16 00:00:00").unwrap();
        let b = parse_datetime("2021-09-17 00:00:00").unwrap();
        assert!(a < b);
        assert_eq!(b - a, 86_400_000);
    }
}
