//! Hand-rolled JSON save/load for calibrated [`DeviceProfile`]s.
//!
//! Calibration probes cost real jobs, so the service wants to warm-start
//! from the fits of a previous process. The container has no serde; this
//! module writes and parses a small, fixed-schema JSON document with a
//! ~100-line recursive-descent parser (objects, arrays, strings with
//! basic escapes, numbers, booleans, null — everything the schema needs
//! and nothing more).
//!
//! Schema (`ProfileStore`):
//!
//! ```json
//! { "profiles": [ { "key": "256x128",
//!                   "name": "tuned-256x128", "kind": "cpu", "cores": 4,
//!                   "times": { "triangulation": {"c0": 2.0, "c1": 0.0, "c2": 0.004},
//!                              "elimination":   {"c0": 2.0, "c1": 0.0, "c2": 0.004},
//!                              "update":        {"c0": 2.0, "c1": 0.0, "c2": 0.006} } } ] }
//! ```
//!
//! The conventional location is the path in the `TILEQR_PROFILE`
//! environment variable ([`default_profile_path`]); the service-level
//! tuner loads it at start and saves after each new fit.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tileqr_sim::{DeviceKind, DeviceProfile, KernelTiming, StepTimes};

/// Environment variable naming the profile-store path the service-level
/// tuner warm-starts from.
pub const PROFILE_ENV: &str = "TILEQR_PROFILE";

/// The profile-store path from [`PROFILE_ENV`], when set and non-empty.
pub fn default_profile_path() -> Option<PathBuf> {
    match std::env::var(PROFILE_ENV) {
        Ok(p) if !p.is_empty() => Some(PathBuf::from(p)),
        _ => None,
    }
}

/// A keyed collection of calibrated profiles (the service keys by shape
/// class, e.g. `"256x128"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStore {
    /// `(key, profile)` pairs in insertion order.
    pub entries: Vec<(String, DeviceProfile)>,
}

impl ProfileStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Profile stored under `key`.
    pub fn get(&self, key: &str) -> Option<&DeviceProfile> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, p)| p)
    }

    /// Insert or replace the profile under `key`.
    pub fn insert(&mut self, key: &str, profile: DeviceProfile) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = profile;
        } else {
            self.entries.push((key.to_string(), profile));
        }
    }

    /// Serialize to the schema above.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"profiles\": [");
        for (i, (key, p)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"key\": ");
            push_json_string(&mut s, key);
            s.push_str(", \"name\": ");
            push_json_string(&mut s, &p.name);
            s.push_str(&format!(
                ", \"kind\": \"{}\", \"cores\": {}, \"times\": {{",
                match p.kind {
                    DeviceKind::Cpu => "cpu",
                    DeviceKind::Gpu => "gpu",
                },
                p.cores
            ));
            for (j, (label, t)) in [
                ("triangulation", p.times.triangulation),
                ("elimination", p.times.elimination),
                ("update", p.times.update),
            ]
            .iter()
            .enumerate()
            {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "\"{label}\": {{\"c0\": {:?}, \"c1\": {:?}, \"c2\": {:?}}}",
                    t.c0, t.c1, t.c2
                ));
            }
            s.push_str("}}");
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parse a store from JSON produced by [`ProfileStore::to_json`] (or
    /// hand-edited to the same schema).
    pub fn from_json(text: &str) -> Result<ProfileStore, String> {
        let root = parse_json(text)?;
        let profiles = root
            .field("profiles")
            .ok_or("missing \"profiles\" array")?
            .as_array()
            .ok_or("\"profiles\" is not an array")?;
        let mut store = ProfileStore::new();
        for entry in profiles {
            let key = entry
                .field("key")
                .and_then(Json::as_str)
                .ok_or("profile entry missing string \"key\"")?;
            store
                .entries
                .push((key.to_string(), profile_from_value(entry)?));
        }
        Ok(store)
    }

    /// Write the store to `path` without ever exposing a partial file:
    /// the JSON goes to a temporary file in the same directory, synced,
    /// then renamed over `path` (an atomic replace on POSIX filesystems).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        // Unique per process and per call, so concurrent savers never
        // share a temporary file.
        static SAVES: AtomicU64 = AtomicU64::new(0);
        let mut tmp = path.as_os_str().to_owned();
        let n = SAVES.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".{}-{n}.tmp", std::process::id()));
        let written = std::fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()
        });
        let renamed = written.and_then(|()| std::fs::rename(&tmp, path));
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    /// Read and parse the store at `path` (I/O and parse errors both
    /// surface as the error string).
    pub fn load(path: &Path) -> Result<ProfileStore, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Self::from_json(&text)
    }
}

/// Serialize one profile (no key) — the single-profile convenience used
/// by tests and ad-hoc tooling.
pub fn profile_to_json(p: &DeviceProfile) -> String {
    let mut store = ProfileStore::new();
    store.insert("default", p.clone());
    store.to_json()
}

/// Parse the first profile of a store document.
pub fn profile_from_json(text: &str) -> Result<DeviceProfile, String> {
    let store = ProfileStore::from_json(text)?;
    store
        .entries
        .into_iter()
        .next()
        .map(|(_, p)| p)
        .ok_or_else(|| "empty profile store".to_string())
}

fn profile_from_value(v: &Json) -> Result<DeviceProfile, String> {
    let name = v
        .field("name")
        .and_then(Json::as_str)
        .ok_or("profile missing string \"name\"")?;
    let kind = match v.field("kind").and_then(Json::as_str) {
        Some("cpu") => DeviceKind::Cpu,
        Some("gpu") => DeviceKind::Gpu,
        other => return Err(format!("bad device kind {other:?}")),
    };
    let cores = v
        .field("cores")
        .and_then(Json::as_f64)
        .filter(|c| *c >= 1.0 && c.fract() == 0.0)
        .ok_or("profile missing positive integer \"cores\"")? as usize;
    let times = v.field("times").ok_or("profile missing \"times\"")?;
    let curve = |label: &str| -> Result<KernelTiming, String> {
        let t = times
            .field(label)
            .ok_or_else(|| format!("times missing \"{label}\""))?;
        let coeff = |c: &str| {
            t.field(c)
                .and_then(Json::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("curve \"{label}\" missing finite non-negative \"{c}\""))
        };
        Ok(KernelTiming {
            c0: coeff("c0")?,
            c1: coeff("c1")?,
            c2: coeff("c2")?,
        })
    };
    Ok(DeviceProfile {
        name: name.to_string(),
        kind,
        cores,
        times: StepTimes {
            triangulation: curve("triangulation")?,
            elimination: curve("elimination")?,
            update: curve("update")?,
        },
    })
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// minimal JSON value + recursive-descent parser
// ---------------------------------------------------------------------------

enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (multi-byte safe).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let ch = s.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_sim::profiles;

    fn sample() -> DeviceProfile {
        profiles::gtx580()
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let mut store = ProfileStore::new();
        store.insert("256x128", sample());
        store.insert("64x64", sample().slowed(2.0));
        let parsed = ProfileStore::from_json(&store.to_json()).unwrap();
        assert_eq!(parsed, store);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let mut store = ProfileStore::new();
        store.insert("a", sample());
        store.insert("a", sample().slowed(3.0));
        assert_eq!(store.entries.len(), 1);
        assert_eq!(store.get("a").unwrap().times, sample().slowed(3.0).times);
    }

    #[test]
    fn single_profile_helpers() {
        let p = sample();
        let parsed = profile_from_json(&profile_to_json(&p)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn string_escapes_survive() {
        let mut p = sample();
        p.name = "weird \"name\"\\with\nescapes\tand µnicode".to_string();
        let parsed = profile_from_json(&profile_to_json(&p)).unwrap();
        assert_eq!(parsed.name, p.name);
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let mut store = ProfileStore::new();
        store.insert("128x128", sample());
        let path =
            std::env::temp_dir().join(format!("tileqr-profile-test-{}.json", std::process::id()));
        store.save(&path).unwrap();
        let loaded = ProfileStore::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, store);
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"profiles\": 3}",
            "{\"profiles\": [{\"key\": \"a\"}]}",
            "{\"profiles\": [{\"key\": \"a\", \"name\": \"x\", \"kind\": \"tpu\", \"cores\": 1, \"times\": {}}]}",
            "{\"profiles\": []} trailing",
            "{\"profiles\": [{\"key\": \"a\", \"name\": \"x\", \"kind\": \"cpu\", \"cores\": 1, \"times\": {\"triangulation\": {\"c0\": -1, \"c1\": 0, \"c2\": 0}, \"elimination\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}, \"update\": {\"c0\": 0, \"c1\": 0, \"c2\": 0}}}]}",
        ] {
            assert!(ProfileStore::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn missing_env_var_yields_no_default_path() {
        // PROFILE_ENV is not set in the test environment.
        if std::env::var(PROFILE_ENV).is_err() {
            assert_eq!(default_profile_path(), None);
        }
    }
}
