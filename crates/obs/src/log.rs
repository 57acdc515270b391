//! Leveled JSON-lines event logging.
//!
//! Events are single JSON objects written atomically to stderr, one per
//! line, so they interleave cleanly across threads and pipe straight into
//! `jq`. Logging is off unless enabled: the first event consults the
//! `GENDPR_LOG` environment variable (`off`, `error`, `warn`, `info`,
//! `debug`, `trace`), and a CLI flag can override it via [`set_level`].
//! Disabled levels cost one relaxed atomic load — call sites may build
//! field slices unconditionally as long as the values are cheap.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The component cannot continue (lost quorum, dead ledger).
    Error = 1,
    /// Something degraded but survivable (suspicion, retry, rejected job).
    Warn = 2,
    /// Lifecycle milestones (job queued/certified, listen).
    Info = 3,
    /// Per-phase detail (span completions, reconnects).
    Debug = 4,
    /// Per-message detail.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Logging disabled entirely.
const OFF: u8 = 0;
/// Sentinel: threshold not yet derived from the environment.
const UNSET: u8 = u8::MAX;

static THRESHOLD: AtomicU8 = AtomicU8::new(UNSET);

/// Parses a level spec. Accepts the five level names plus `off`/`none`.
pub fn parse_level(spec: &str) -> Option<u8> {
    match spec.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "" => Some(OFF),
        "error" => Some(Level::Error as u8),
        "warn" | "warning" => Some(Level::Warn as u8),
        "info" => Some(Level::Info as u8),
        "debug" => Some(Level::Debug as u8),
        "trace" => Some(Level::Trace as u8),
        _ => None,
    }
}

/// Overrides the log threshold (e.g. from `--log-level`). Returns an error
/// message naming the valid specs when `spec` is not one of them.
pub fn set_level(spec: &str) -> Result<(), String> {
    match parse_level(spec) {
        Some(v) => {
            THRESHOLD.store(v, Ordering::Relaxed);
            Ok(())
        }
        None => Err(format!(
            "invalid log level '{spec}' (expected off, error, warn, info, debug or trace)"
        )),
    }
}

/// Current threshold, deriving it from `GENDPR_LOG` on first use. The
/// derivation races benignly: every thread computes the same value.
fn threshold() -> u8 {
    let cur = THRESHOLD.load(Ordering::Relaxed);
    if cur != UNSET {
        return cur;
    }
    let env = std::env::var("GENDPR_LOG")
        .ok()
        .and_then(|s| parse_level(&s))
        .unwrap_or(OFF);
    let _ = THRESHOLD.compare_exchange(UNSET, env, Ordering::Relaxed, Ordering::Relaxed);
    THRESHOLD.load(Ordering::Relaxed)
}

/// Whether events at `level` are currently emitted.
pub fn enabled(level: Level) -> bool {
    level as u8 <= threshold()
}

/// A structured field value. `From` impls cover the common cases so call
/// sites read `("job_id", id.into())`.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Emits one event if `level` is enabled: a JSON object with `ts_ms`,
/// `level`, `target` (subsystem), `msg`, and the given fields.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut line = String::with_capacity(96);
    line.push_str(&format!(
        "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
        level.as_str(),
        escape_json(target),
        escape_json(msg),
    ));
    for (key, value) in fields {
        line.push_str(&format!(",\"{}\":", escape_json(key)));
        match value {
            Value::U64(v) => line.push_str(&v.to_string()),
            Value::I64(v) => line.push_str(&v.to_string()),
            Value::F64(v) if v.is_finite() => line.push_str(&v.to_string()),
            Value::F64(v) => line.push_str(&format!("\"{v}\"")),
            Value::Str(v) => line.push_str(&format!("\"{}\"", escape_json(v))),
            Value::Bool(v) => line.push_str(&v.to_string()),
        }
    }
    line.push_str("}\n");
    // One write_all per event keeps lines whole under concurrency.
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// Escapes a string for inclusion inside JSON double quotes.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_specs_parse() {
        assert_eq!(parse_level("off"), Some(OFF));
        assert_eq!(parse_level("WARN"), Some(Level::Warn as u8));
        assert_eq!(parse_level(" trace "), Some(Level::Trace as u8));
        assert_eq!(parse_level("verbose"), None);
    }

    #[test]
    fn set_level_rejects_garbage_and_orders_levels() {
        assert!(set_level("nonsense").is_err());
        set_level("warn").unwrap();
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level("off").unwrap();
        assert!(!enabled(Level::Error));
    }

    #[test]
    fn json_escaping_covers_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
