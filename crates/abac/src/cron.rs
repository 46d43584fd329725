//! Cron expressions over a simplified deterministic calendar — the
//! temporal attribute vocabulary.
//!
//! Coalition time (`TimePoint`) is seconds since an abstract epoch; this
//! module gives those seconds a calendar so schedules like
//! `0 9 * * MON-FRI` mean something. The calendar is deliberately
//! simplified and fully pinned here so every component — lowering, naive
//! oracle, tests, documentation — agrees byte-for-byte:
//!
//! - `t = 0` is 00:00:00 on **Monday, January 1 of year 0**;
//! - every year has exactly 365 days (no leap years), with the standard
//!   month lengths (February always 28);
//! - days of the week follow from day 0 = Monday.
//!
//! Expressions use the standard 5-field form `minute hour day-of-month
//! month day-of-week` (`*`, lists, ranges, `/step`, month/day names,
//! `7` = Sunday), plus an optional 6-field form with a leading *seconds*
//! field so windows are expressible at simulator timescales. The
//! standard day-matching quirk is preserved: when both day-of-month and
//! day-of-week are restricted, a day matches if *either* does.
//!
//! A schedule paired with a duration denotes a union of half-open
//! windows `[fire, fire + duration)`; overlapping or abutting windows
//! merge. [`validity_at`] computes the remaining length of the window
//! containing a reference time by next-fire *field arithmetic*;
//! [`naive_validity_at`] recomputes it by brute per-second scanning.
//! The pair is the differential surface the simulator oracle checks.

/// Validity clamp: a window chain extending more than a week past the
/// reference time reports exactly one week. This bounds both the
/// arithmetic and the naive evaluator on always-on schedules (e.g.
/// `* * * * *` with a 2-minute duration chains forever).
pub const MAX_VALIDITY_SECS: f64 = 7.0 * 86_400.0;

/// How many field-arithmetic jumps [`CronExpr::next_fire`] attempts
/// before concluding the schedule never fires (`0 0 31 2 *` can't fire
/// in a calendar where February has 28 days; the cap is reached after
/// scanning a few hundred years).
const MAX_FIRE_JUMPS: usize = 4096;

/// How many fires [`validity_at`] enumerates before giving up — a guard
/// against pathological dense schedules at huge reference times, reported
/// as a lowering error rather than an unbounded stall.
const MAX_ENUM_FIRES: usize = 1_000_000;

const SECS_PER_DAY: u64 = 86_400;
const DAYS_PER_YEAR: u64 = 365;
const MONTH_DAYS: [u64; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A broken-down calendar instant (see the module docs for the epoch).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Calendar {
    /// Second within the minute, `0..=59`.
    pub sec: u32,
    /// Minute within the hour, `0..=59`.
    pub min: u32,
    /// Hour within the day, `0..=23`.
    pub hour: u32,
    /// Day of month, `1..=31`.
    pub dom: u32,
    /// Month, `1..=12`.
    pub month: u32,
    /// Day of week in cron numbering, `0` = Sunday … `6` = Saturday.
    pub dow: u32,
    /// Days since the epoch.
    pub day_index: u64,
}

/// Break `t` (seconds since the epoch) into calendar components.
pub fn calendar_at(t: u64) -> Calendar {
    let day_index = t / SECS_PER_DAY;
    let in_day = t % SECS_PER_DAY;
    let day_of_year = day_index % DAYS_PER_YEAR;
    let mut month = 0usize;
    let mut rem = day_of_year;
    while rem >= MONTH_DAYS[month] {
        rem -= MONTH_DAYS[month];
        month += 1;
    }
    Calendar {
        sec: (in_day % 60) as u32,
        min: ((in_day / 60) % 60) as u32,
        hour: (in_day / 3600) as u32,
        dom: rem as u32 + 1,
        month: month as u32 + 1,
        // Day 0 is Monday; cron numbers Sunday as 0.
        dow: ((day_index + 1) % 7) as u32,
        day_index,
    }
}

/// One parsed cron field: a bitset of admissible values plus whether the
/// source was a bare `*` (which matters only for the day-matching rule).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Field {
    bits: u64,
    star: bool,
}

impl Field {
    fn contains(self, v: u32) -> bool {
        v < 64 && (self.bits >> v) & 1 == 1
    }

    /// The smallest admissible value strictly greater than `v`, if any.
    fn next_after(self, v: u32) -> Option<u32> {
        ((v + 1)..64).find(|&x| self.contains(x))
    }
}

const DOW_NAMES: [&str; 7] = ["SUN", "MON", "TUE", "WED", "THU", "FRI", "SAT"];
const MONTH_NAMES: [&str; 12] = [
    "JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC",
];

/// Resolve one field token value: a number or (for month/dow) a name.
fn field_value(tok: &str, lo: u32, hi: u32, names: &[&str], what: &str) -> Result<u32, String> {
    if let Some(i) = names
        .iter()
        .position(|n| n.eq_ignore_ascii_case(tok.trim()))
    {
        // Month names are 1-based (JAN = 1); day names are 0-based.
        return Ok(i as u32 + lo.min(1));
    }
    let v: u32 = tok
        .trim()
        .parse()
        .map_err(|_| format!("bad {what} value {tok:?}"))?;
    // Cron tradition: day-of-week 7 is Sunday again.
    let v = if what == "day-of-week" && v == 7 {
        0
    } else {
        v
    };
    if v < lo || v > hi {
        return Err(format!("{what} value {v} out of range {lo}..={hi}"));
    }
    Ok(v)
}

fn parse_field(src: &str, lo: u32, hi: u32, names: &[&str], what: &str) -> Result<Field, String> {
    let mut bits = 0u64;
    let mut star = true;
    for part in src.split(',') {
        let (range, step) = match part.split_once('/') {
            Some((r, s)) => {
                let step: u32 = s.parse().map_err(|_| format!("bad {what} step {s:?}"))?;
                if step == 0 {
                    return Err(format!("{what} step must be positive"));
                }
                (r, step)
            }
            None => (part, 1),
        };
        let (a, b) = if range == "*" {
            if part != "*" {
                star = false; // `*/step` restricts the field
            }
            (lo, hi)
        } else {
            star = false;
            match range.split_once('-') {
                Some((x, y)) => {
                    let a = field_value(x, lo, hi, names, what)?;
                    let b = field_value(y, lo, hi, names, what)?;
                    if a > b {
                        return Err(format!("inverted {what} range {range:?}"));
                    }
                    (a, b)
                }
                None => {
                    let v = field_value(range, lo, hi, names, what)?;
                    (v, v)
                }
            }
        };
        let mut v = a;
        while v <= b {
            bits |= 1u64 << v;
            v += step;
        }
    }
    if bits == 0 {
        return Err(format!("empty {what} field {src:?}"));
    }
    Ok(Field { bits, star })
}

/// A parsed cron expression (see the module docs for the grammar and the
/// calendar it runs on).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CronExpr {
    sec: Field,
    min: Field,
    hour: Field,
    dom: Field,
    month: Field,
    dow: Field,
}

impl CronExpr {
    /// Parse a 5-field (`min hour dom month dow`) or 6-field (leading
    /// seconds) expression.
    pub fn parse(src: &str) -> Result<CronExpr, String> {
        let fields: Vec<&str> = src.split_whitespace().collect();
        let (sec, rest): (Field, &[&str]) = match fields.len() {
            5 => (
                Field {
                    bits: 1, // seconds field defaults to `0`
                    star: false,
                },
                &fields[..],
            ),
            6 => (parse_field(fields[0], 0, 59, &[], "second")?, &fields[1..]),
            n => return Err(format!("expected 5 or 6 cron fields, got {n} in {src:?}")),
        };
        Ok(CronExpr {
            sec,
            min: parse_field(rest[0], 0, 59, &[], "minute")?,
            hour: parse_field(rest[1], 0, 23, &[], "hour")?,
            dom: parse_field(rest[2], 1, 31, &[], "day-of-month")?,
            month: parse_field(rest[3], 1, 12, &MONTH_NAMES, "month")?,
            dow: parse_field(rest[4], 0, 6, &DOW_NAMES, "day-of-week")?,
        })
    }

    /// The standard cron day rule: `*` fields are unrestricted; if both
    /// day fields are restricted a day matches when *either* does.
    fn day_matches(&self, cal: &Calendar) -> bool {
        match (self.dom.star, self.dow.star) {
            (true, true) => true,
            (false, true) => self.dom.contains(cal.dom),
            (true, false) => self.dow.contains(cal.dow),
            (false, false) => self.dom.contains(cal.dom) || self.dow.contains(cal.dow),
        }
    }

    /// Does the schedule fire at second `t`?
    pub fn fires_at(&self, t: u64) -> bool {
        let cal = calendar_at(t);
        self.sec.contains(cal.sec)
            && self.min.contains(cal.min)
            && self.hour.contains(cal.hour)
            && self.month.contains(cal.month)
            && self.day_matches(&cal)
    }

    /// The earliest fire at or after `from`, by field arithmetic: a
    /// mismatched field jumps straight to its next admissible value
    /// (resetting all finer fields), so the search cost is counted in
    /// calendar jumps, not seconds. `None` when no fire exists within
    /// `MAX_FIRE_JUMPS` jumps — a schedule like `0 0 31 2 *` that can
    /// never fire in this calendar.
    pub fn next_fire(&self, from: u64) -> Option<u64> {
        let mut t = from;
        for _ in 0..MAX_FIRE_JUMPS {
            let cal = calendar_at(t);
            if !self.month.contains(cal.month) {
                t = next_month_start(&cal);
                continue;
            }
            if !self.day_matches(&cal) {
                t = (cal.day_index + 1) * SECS_PER_DAY;
                continue;
            }
            let day_start = cal.day_index * SECS_PER_DAY;
            if !self.hour.contains(cal.hour) {
                t = match self.hour.next_after(cal.hour) {
                    Some(h) => day_start + h as u64 * 3600,
                    None => (cal.day_index + 1) * SECS_PER_DAY,
                };
                continue;
            }
            let hour_start = day_start + cal.hour as u64 * 3600;
            if !self.min.contains(cal.min) {
                t = match self.min.next_after(cal.min) {
                    Some(m) => hour_start + m as u64 * 60,
                    None => hour_start + 3600,
                };
                continue;
            }
            let min_start = hour_start + cal.min as u64 * 60;
            if !self.sec.contains(cal.sec) {
                t = match self.sec.next_after(cal.sec) {
                    Some(s) => min_start + s as u64,
                    None => min_start + 60,
                };
                continue;
            }
            return Some(t);
        }
        None
    }
}

/// Seconds of the first instant of the month after `cal`.
fn next_month_start(cal: &Calendar) -> u64 {
    let year = cal.day_index / DAYS_PER_YEAR;
    let (next_year, next_month) = if cal.month == 12 {
        (year + 1, 1u32)
    } else {
        (year, cal.month + 1)
    };
    let days_before: u64 = MONTH_DAYS[..(next_month - 1) as usize].iter().sum();
    (next_year * DAYS_PER_YEAR + days_before) * SECS_PER_DAY
}

/// Parse a duration: `"8h"`, `"30m"`, `"90s"`, `"2d"`, or bare seconds.
pub fn parse_duration(s: &str) -> Result<f64, String> {
    let s = s.trim();
    let (num, unit) = match s.as_bytes().last() {
        Some(b'd') => (&s[..s.len() - 1], 86_400.0),
        Some(b'h') => (&s[..s.len() - 1], 3600.0),
        Some(b'm') => (&s[..s.len() - 1], 60.0),
        Some(b's') => (&s[..s.len() - 1], 1.0),
        _ => (s, 1.0),
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("duration must be finite and non-negative: {s:?}"));
    }
    Ok(v * unit)
}

/// Remaining validity of the merged window containing reference time
/// `t`, by next-fire field arithmetic: `0.0` when `t` falls outside
/// every window, otherwise `window_end − t` clamped to
/// [`MAX_VALIDITY_SECS`]. Windows are `[fire, fire + dur)` and a fire at
/// or before a running window's end extends it (overlap *and* abutment
/// merge — the same rule as [`StepFn::from_windows`]).
///
/// [`StepFn::from_windows`]: stacl_temporal::StepFn::from_windows
pub fn validity_at(expr: &CronExpr, dur: f64, t: f64) -> Result<f64, String> {
    if dur <= 0.0 || t < 0.0 {
        return Ok(0.0);
    }
    let mut end = f64::NEG_INFINITY;
    // A fire at or before `t - dur` ends by `t`, so it cannot reach the
    // window holding `t`: enumerate from there, not from second 0.
    let mut cur = (t - dur).max(0.0) as u64;
    let mut enumerated = 0usize;
    loop {
        if enumerated >= MAX_ENUM_FIRES {
            // The window end is still unknown; report a lowering error
            // (fail-safe zero validity) rather than stalling further.
            return Err(format!(
                "cron fire enumeration exceeded {MAX_ENUM_FIRES} fires before t={t}"
            ));
        }
        enumerated += 1;
        let f = match expr.next_fire(cur) {
            Some(f) => f,
            None => break,
        };
        let fs = f as f64;
        if fs <= end {
            end = end.max(fs + dur);
        } else if fs <= t {
            end = fs + dur; // gap before `t`: the window restarts
        } else {
            break; // next window starts after `t` and doesn't chain
        }
        if end - t >= MAX_VALIDITY_SECS {
            return Ok(MAX_VALIDITY_SECS);
        }
        cur = f + 1;
    }
    if t < end {
        Ok((end - t).min(MAX_VALIDITY_SECS))
    } else {
        Ok(0.0)
    }
}

/// [`validity_at`] recomputed the slow honest way: scan every second for
/// fires, grow the covering window directly. Independent of the field
/// arithmetic in [`CronExpr::next_fire`]; the simulator oracle uses this
/// side.
pub fn naive_validity_at(expr: &CronExpr, dur: f64, t: f64) -> f64 {
    if dur <= 0.0 || t < 0.0 {
        return 0.0;
    }
    // Phase 1: scan up to `t`, tracking the end of the window covering
    // the most recent fire.
    let mut end = f64::NEG_INFINITY;
    let mut s = 0u64;
    while (s as f64) <= t {
        if expr.fires_at(s) {
            let fs = s as f64;
            end = if fs <= end {
                end.max(fs + dur)
            } else {
                fs + dur
            };
        }
        s += 1;
    }
    if t >= end {
        return 0.0;
    }
    // Phase 2: extend forward while later fires chain into the window.
    while (s as f64) <= end && end - t < MAX_VALIDITY_SECS {
        if expr.fires_at(s) {
            end = end.max(s as f64 + dur);
        }
        s += 1;
    }
    (end - t).min(MAX_VALIDITY_SECS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_epoch_is_monday_jan_1() {
        let c = calendar_at(0);
        assert_eq!((c.sec, c.min, c.hour), (0, 0, 0));
        assert_eq!((c.dom, c.month), (1, 1));
        assert_eq!(c.dow, 1, "day 0 is a Monday");
        // Day 6 is the first Sunday.
        assert_eq!(calendar_at(6 * 86_400).dow, 0);
        // Feb 1 of year 0 is day 31.
        let feb = calendar_at(31 * 86_400);
        assert_eq!((feb.dom, feb.month), (1, 2));
        // Dec 31 of year 0 is day 364; Jan 1 of year 1 is day 365.
        let dec31 = calendar_at(364 * 86_400);
        assert_eq!((dec31.dom, dec31.month), (31, 12));
        let jan1 = calendar_at(365 * 86_400);
        assert_eq!((jan1.dom, jan1.month), (1, 1));
    }

    #[test]
    fn office_hours_expression() {
        let e = CronExpr::parse("0 9 * * MON-FRI").unwrap();
        // 09:00:00 Monday (day 0).
        assert!(e.fires_at(9 * 3600));
        // 09:00:01 does not fire (seconds default to 0).
        assert!(!e.fires_at(9 * 3600 + 1));
        // 09:00 Saturday (day 5).
        assert!(!e.fires_at(5 * 86_400 + 9 * 3600));
        // 09:00 the following Monday (day 7).
        assert!(e.fires_at(7 * 86_400 + 9 * 3600));
    }

    #[test]
    fn six_field_seconds_and_steps() {
        let e = CronExpr::parse("*/10 * * * * *").unwrap();
        assert!(e.fires_at(0));
        assert!(e.fires_at(10));
        assert!(!e.fires_at(5));
        let m = CronExpr::parse("*/15 * * * *").unwrap();
        assert!(m.fires_at(0) && m.fires_at(15 * 60) && m.fires_at(45 * 60));
        assert!(!m.fires_at(5 * 60));
    }

    #[test]
    fn dow_seven_is_sunday_and_names_resolve() {
        let by_num = CronExpr::parse("0 0 * * 7").unwrap();
        let by_name = CronExpr::parse("0 0 * * SUN").unwrap();
        assert_eq!(by_num, by_name);
        assert!(by_num.fires_at(6 * 86_400));
        let jan = CronExpr::parse("0 0 1 JAN *").unwrap();
        assert!(jan.fires_at(0));
    }

    #[test]
    fn dom_dow_or_rule() {
        // Both restricted: the 15th OR any Monday.
        let e = CronExpr::parse("0 0 15 * MON").unwrap();
        assert!(e.fires_at(7 * 86_400), "Monday day 7");
        assert!(e.fires_at(14 * 86_400), "the 15th (day 14)");
        assert!(!e.fires_at(15 * 86_400), "the 16th, a Wednesday");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "* * * *",
            "* * * * * * *",
            "60 * * * *",
            "* 24 * * *",
            "* * 0 * *",
            "* * 32 * *",
            "* * * 13 *",
            "* * * * 8",
            "5-3 * * * *",
            "*/0 * * * *",
            "x * * * *",
        ] {
            assert!(CronExpr::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn next_fire_jumps_across_months() {
        // Midnight March 1: day 31 + 28 = 59.
        let e = CronExpr::parse("0 0 1 3 *").unwrap();
        assert_eq!(e.next_fire(0), Some(59 * 86_400));
        // From just after, the next one is a year later.
        assert_eq!(e.next_fire(59 * 86_400 + 1), Some((365 + 59) * 86_400),);
    }

    #[test]
    fn impossible_schedule_never_fires() {
        // February 31 does not exist in this calendar.
        let e = CronExpr::parse("0 0 31 2 *").unwrap();
        assert_eq!(e.next_fire(0), None);
        assert_eq!(validity_at(&e, 3600.0, 50.0).unwrap(), 0.0);
        assert_eq!(naive_validity_at(&e, 3600.0, 50.0), 0.0);
    }

    #[test]
    fn validity_inside_and_outside_windows() {
        // Fires at second 0 of every minute, 10-second windows.
        let e = CronExpr::parse("* * * * *").unwrap();
        assert_eq!(validity_at(&e, 10.0, 3.0).unwrap(), 7.0);
        assert_eq!(validity_at(&e, 10.0, 30.0).unwrap(), 0.0);
        assert_eq!(validity_at(&e, 10.0, 64.5).unwrap(), 5.5);
        assert_eq!(naive_validity_at(&e, 10.0, 3.0), 7.0);
        assert_eq!(naive_validity_at(&e, 10.0, 30.0), 0.0);
        assert_eq!(naive_validity_at(&e, 10.0, 64.5), 5.5);
    }

    #[test]
    fn chaining_windows_merge_and_clamp() {
        // Every-minute fires with 90-second windows chain forever: the
        // validity clamps to the documented week.
        let e = CronExpr::parse("* * * * *").unwrap();
        assert_eq!(validity_at(&e, 90.0, 45.0).unwrap(), MAX_VALIDITY_SECS);
        // Abutting windows (exactly 60s) also fuse.
        assert_eq!(validity_at(&e, 60.0, 45.0).unwrap(), MAX_VALIDITY_SECS);
        // 59-second windows leave a 1-second hole each minute.
        assert_eq!(validity_at(&e, 59.0, 45.0).unwrap(), 14.0);
        assert_eq!(naive_validity_at(&e, 59.0, 45.0), 14.0);
        assert_eq!(validity_at(&e, 59.0, 59.5).unwrap(), 0.0);
        assert_eq!(naive_validity_at(&e, 59.0, 59.5), 0.0);
    }

    #[test]
    fn validity_at_a_real_reference_time_enumerates_only_the_window() {
        // 1.7e9 is 200 s past a five-minute fire: 40 s of a 4-minute
        // window remain, and no later fire chains onto it.
        let e = CronExpr::parse("*/5 * * * *").unwrap();
        assert_eq!(validity_at(&e, 240.0, 1.7e9), Ok(40.0));
    }

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("8h").unwrap(), 8.0 * 3600.0);
        assert_eq!(parse_duration("30m").unwrap(), 1800.0);
        assert_eq!(parse_duration("90s").unwrap(), 90.0);
        assert_eq!(parse_duration("2d").unwrap(), 2.0 * 86_400.0);
        assert_eq!(parse_duration("45").unwrap(), 45.0);
        assert_eq!(parse_duration("1.5h").unwrap(), 5400.0);
        for bad in ["", "h", "-3s", "8q", "inf"] {
            assert!(parse_duration(bad).is_err(), "{bad:?}");
        }
    }
}
