//! A minimal JSON document model with a compact writer, a validating
//! parser, and the workspace's one serialization path.
//!
//! The build environment has no access to crates.io (so no `serde`); this
//! module is the crate's serialization substrate. It supports everything
//! the exporters need — objects with ordered keys, arrays, strings with
//! escaping, and the three numeric shapes used by the stats — plus a
//! strict parser.
//!
//! Reports reach JSON through [`ToJson`] and come back through
//! [`FromJson`]. Scalars, strings, sequences, name-keyed pair lists and
//! `Option` (an absent optional section) implement both; a label enum
//! gets both from [`json_label!`](crate::json_label), a struct from one
//! [`json_record!`](crate::json_record) declaration that lists its keys
//! once, in output order.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (rendered without a decimal point).
    U64(u64),
    /// A signed integer (rendered without a decimal point).
    I64(i64),
    /// A float (rendered with enough precision to round-trip).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(f) => {
                if f.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes a decimal point.
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value of a string; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) if *n >= 0 => Some(*n as u64),
            Json::F64(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A value with one JSON form.
pub trait ToJson {
    /// The value's JSON form.
    fn to_json(&self) -> Json;

    /// `true` when a record leaves this value's key out entirely (an
    /// absent optional section).
    fn is_absent(&self) -> bool {
        false
    }
}

/// A value that reads back from the JSON form [`ToJson`] wrote.
pub trait FromJson: Sized {
    /// Reads the value; the error names the key or element at fault.
    fn from_json(j: &Json) -> Result<Self, String>;

    /// The value of a record key that is missing: `None` (an error) except
    /// for optional sections.
    fn from_missing() -> Option<Self> {
        None
    }
}

/// Parses `text` and reads a `T` from it.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, String> {
    T::from_json(&parse(text).map_err(|e| e.to_string())?)
}

/// Resolves a label of a [`json_label!`](crate::json_label) enum.
pub fn from_label<T: FromJson>(s: &str) -> Option<T> {
    T::from_json(&Json::Str(s.to_string())).ok()
}

fn expected<T>(what: &str, j: &Json) -> Result<T, String> {
    Err(format!("expected {what}, found {}", j.render()))
}

macro_rules! json_scalar {
    ($($ty:ty: $write:expr, $read:expr;)*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let write: fn($ty) -> Json = $write;
                write(*self)
            }
        }
        impl FromJson for $ty {
            fn from_json(j: &Json) -> Result<Self, String> {
                let read: fn(&Json) -> Option<$ty> = $read;
                read(j).map_or_else(|| expected(stringify!($ty), j), Ok)
            }
        }
    )*};
}

json_scalar! {
    u64: Json::U64, Json::as_u64;
    usize: |n| Json::U64(n as u64), |j| j.as_u64().and_then(|n| n.try_into().ok());
    bool: Json::Bool, |j| match j { Json::Bool(b) => Some(*b), _ => None };
    // Any numeric variant reads as a float.
    f64: Json::F64, |j| match j {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(f) => Some(*f),
        _ => None,
    };
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_str()
            .map_or_else(|| expected("a string", j), |s| Ok(s.to_string()))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn is_absent(&self) -> bool {
        (**self).is_absent()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn is_absent(&self) -> bool {
        self.is_none()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, String> {
        T::from_json(j).map(Some)
    }

    fn from_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, String> {
        let Some(items) = j.as_arr() else {
            return expected("an array", j);
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("item {i}: {e}")))
            .collect()
    }
}

/// A name-keyed pair list is an object, keys in list order.
impl<K: AsRef<str>, V: ToJson> ToJson for [(K, V)] {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: AsRef<str>, V: ToJson> ToJson for Vec<(K, V)> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<V: FromJson> FromJson for Vec<(String, V)> {
    fn from_json(j: &Json) -> Result<Self, String> {
        let Json::Obj(pairs) = j else {
            return expected("an object", j);
        };
        pairs
            .iter()
            .map(|(k, v)| Ok((k.clone(), field_value(k, v)?)))
            .collect()
    }
}

/// An object written with every key prefixed (`faults.online.` + key).
#[derive(Debug)]
pub struct Prefixed<'a, T: ?Sized>(pub &'static str, pub &'a T);

impl<T: ToJson + ?Sized> ToJson for Prefixed<'_, T> {
    fn to_json(&self) -> Json {
        match self.1.to_json() {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .into_iter()
                    .map(|(k, v)| (format!("{}{k}", self.0), v))
                    .collect(),
            ),
            other => other,
        }
    }
}

/// A one-key object, `{key: value}`.
#[derive(Debug)]
pub struct Field<'a, T: ?Sized>(pub &'static str, pub &'a T);

impl<T: ToJson + ?Sized> ToJson for Field<'_, T> {
    fn to_json(&self) -> Json {
        Json::Obj(vec![(self.0.to_string(), self.1.to_json())])
    }
}

fn field_value<T: FromJson>(key: &str, v: &Json) -> Result<T, String> {
    T::from_json(v).map_err(|e| format!("field '{key}': {e}"))
}

#[doc(hidden)]
pub fn record_field<T: FromJson>(j: &Json, key: &str) -> Result<T, String> {
    match j {
        Json::Obj(_) => match j.get(key) {
            Some(v) => field_value(key, v),
            None => T::from_missing().ok_or_else(|| format!("missing field '{key}'")),
        },
        _ => expected("an object", j),
    }
}

#[doc(hidden)]
pub fn push_field<T: ToJson + ?Sized>(pairs: &mut Vec<(String, Json)>, key: &str, v: &T) {
    if !v.is_absent() {
        pairs.push((key.to_string(), v.to_json()));
    }
}

#[doc(hidden)]
pub fn derive<'a, S: ?Sized, R>(s: &'a S, f: impl FnOnce(&'a S) -> R) -> R {
    f(s)
}

#[doc(hidden)]
pub fn label_of<T: Copy>(
    j: &Json,
    kind: &str,
    all: &[T],
    label: fn(T) -> &'static str,
) -> Result<T, String> {
    let Some(s) = j.as_str() else {
        return expected(&format!("a {kind} label"), j);
    };
    all.iter().copied().find(|&v| label(v) == s).ok_or_else(|| {
        let valid: Vec<_> = all.iter().map(|&v| label(v)).collect();
        format!("unknown {kind} '{s}' (valid: {})", valid.join(" "))
    })
}

/// Declares a struct's JSON record: its keys once, in output order.
///
/// `json_record!(ToJson for T { a, b => |t| t.b(), c })` writes
/// `{"a":…,"b":…,"c":…}`: a bare key is the field of that name, and
/// `key => f` is a write-only key whose value is `f(&t)` (a closure or a
/// method path). A field whose value [`is_absent`](ToJson::is_absent) —
/// a `None` optional section — leaves its key out. `ToJson + FromJson
/// for T { … }` also reads the record back: every bare key fills its
/// field, write-only keys are skipped, and the struct must be fully
/// covered by the bare keys.
#[macro_export]
macro_rules! json_record {
    (ToJson for $ty:ty { $($key:ident $(=> $f:expr)?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let mut pairs = ::std::vec::Vec::new();
                $($crate::json::push_field(
                    &mut pairs,
                    stringify!($key),
                    &$crate::json_record!(@get self, $key $(, $f)?),
                );)*
                $crate::json::Json::Obj(pairs)
            }
        }
    };
    (ToJson + FromJson for $ty:ty { $($body:tt)* }) => {
        $crate::json_record!(ToJson for $ty { $($body)* });
        $crate::json_record!(@read $ty; []; $($body)*);
    };
    (@get $s:ident, $key:ident) => { $s.$key };
    (@get $s:ident, $key:ident, $f:expr) => { $crate::json::derive($s, $f) };
    (@read $ty:ty; [$($field:ident)*]; $key:ident => $f:expr $(, $($rest:tt)*)?) => {
        $crate::json_record!(@read $ty; [$($field)*]; $($($rest)*)?);
    };
    (@read $ty:ty; [$($field:ident)*]; $key:ident $(, $($rest:tt)*)?) => {
        $crate::json_record!(@read $ty; [$($field)* $key]; $($($rest)*)?);
    };
    (@read $ty:ty; [$($field:ident)*];) => {
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> ::std::result::Result<Self, String> {
                Ok(Self {
                    $($field: $crate::json::record_field(j, stringify!($field))?,)*
                })
            }
        }
    };
}

/// Gives label enums their JSON form: the value's `label()` string, read
/// back by lookup in the type's `ALL`. `json_label!(T: "kind")` names the
/// kind in the error for an unknown label: `unknown kind 'x' (valid: …)`.
#[macro_export]
macro_rules! json_label {
    ($($ty:ty: $kind:literal),* $(,)?) => {$(
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.label().to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> ::std::result::Result<Self, String> {
                $crate::json::label_of(j, $kind, &<$ty>::ALL, <$ty>::label)
            }
        }
    )*};
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses a complete JSON document (used by tests to validate exporter
/// output). Rejects trailing garbage.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return fail(pos, "trailing characters after document");
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail<T>(at: usize, msg: &'static str) -> Result<T, ParseError> {
    Err(ParseError { at, msg })
}

fn expect(b: &[u8], pos: &mut usize, c: u8, msg: &'static str) -> Result<(), ParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        fail(*pos, msg)
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => fail(*pos, "unexpected end of input"),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &'static str, v: Json) -> Result<Json, ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        fail(*pos, "invalid literal")
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'{', "expected '{'")?;
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':', "expected ':'")?;
        let value = parse_value(b, pos)?;
        pairs.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return fail(*pos, "expected ',' or '}'"),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    expect(b, pos, b'[', "expected '['")?;
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
            _ => return fail(*pos, "expected ',' or ']'"),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return fail(*pos, "unterminated string"),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok());
                        let Some(hex) = hex else {
                            return fail(*pos, "invalid \\u escape");
                        };
                        // Surrogate pairs are not needed by our exporters;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return fail(*pos, "invalid escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let Ok(s) = std::str::from_utf8(&b[*pos..]) else {
                    return fail(*pos, "invalid UTF-8");
                };
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let Ok(text) = std::str::from_utf8(&b[start..*pos]) else {
        return fail(start, "invalid number");
    };
    if text.contains(['.', 'e', 'E']) {
        return text.parse().map(Json::F64).or(fail(start, "invalid float"));
    }
    let int = match text.strip_prefix('-') {
        Some(stripped) => stripped.parse::<u64>().map(|n| Json::I64(-(n as i64))),
        None => text.parse().map(Json::U64),
    };
    int.or(fail(start, "invalid integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let doc = Json::obj([
            ("name", Json::Str("q\"uote\\n".to_string())),
            ("count", Json::U64(42)),
            ("neg", Json::I64(-7)),
            ("ratio", Json::F64(0.5)),
            ("flag", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(3)]),
            ),
        ]);
        let text = doc.render();
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("q\"uote\\n")
        );
        assert_eq!(
            parsed
                .get("items")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} extra").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn large_u64_preserved_exactly() {
        let n = u64::MAX - 3;
        let text = Json::U64(n).render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn control_characters_are_escaped() {
        let text = Json::Str("a\u{1}b".to_string()).render();
        assert_eq!(text, "\"a\\u0001b\"");
        assert_eq!(parse(&text).unwrap().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Color {
        Red,
        Blue,
    }

    impl Color {
        const ALL: [Color; 2] = [Color::Red, Color::Blue];

        fn label(self) -> &'static str {
            match self {
                Color::Red => "red",
                Color::Blue => "blue",
            }
        }
    }

    crate::json_label!(Color: "color");

    #[derive(Debug, PartialEq)]
    struct Sample {
        color: Color,
        count: usize,
        ratio: f64,
        tags: Vec<String>,
        extra: Option<Vec<(String, u64)>>,
    }

    crate::json_record!(ToJson + FromJson for Sample {
        color,
        count,
        double => |s| s.count * 2,
        ratio,
        tags,
        extra,
    });

    fn sample(extra: Option<Vec<(String, u64)>>) -> Sample {
        Sample {
            color: Color::Blue,
            count: 3,
            ratio: 0.25,
            tags: vec!["a".into()],
            extra,
        }
    }

    #[test]
    fn record_writes_keys_in_declared_order_and_reads_back() {
        let s = sample(Some(vec![("k".into(), 9)]));
        let text = s.to_json().render();
        assert_eq!(
            text,
            r#"{"color":"blue","count":3,"double":6,"ratio":0.25,"tags":["a"],"extra":{"k":9}}"#
        );
        assert_eq!(from_str::<Sample>(&text), Ok(s));
    }

    #[test]
    fn absent_optional_section_leaves_its_key_out() {
        let s = sample(None);
        let text = s.to_json().render();
        assert!(!text.contains("extra"), "{text}");
        assert_eq!(from_str::<Sample>(&text), Ok(s));
    }

    #[test]
    fn floats_read_from_any_numeric_variant() {
        let text = r#"{"color":"red","count":1,"ratio":2,"tags":[]}"#;
        assert_eq!(from_str::<Sample>(text).map(|s| s.ratio), Ok(2.0));
        assert_eq!(f64::from_json(&Json::I64(-3)), Ok(-3.0));
    }

    #[test]
    fn read_errors_name_the_key_at_fault() {
        let missing = r#"{"color":"red","ratio":2,"tags":[]}"#;
        assert_eq!(
            from_str::<Sample>(missing).unwrap_err(),
            "missing field 'count'"
        );
        let ill_typed = r#"{"color":"red","count":1,"ratio":2,"tags":[7]}"#;
        assert_eq!(
            from_str::<Sample>(ill_typed).unwrap_err(),
            "field 'tags': item 0: expected a string, found 7"
        );
        let unknown = r#"{"color":"green","count":1,"ratio":2,"tags":[]}"#;
        assert_eq!(
            from_str::<Sample>(unknown).unwrap_err(),
            "field 'color': unknown color 'green' (valid: red blue)"
        );
        assert_eq!(from_label::<Color>("red"), Some(Color::Red));
    }
}
