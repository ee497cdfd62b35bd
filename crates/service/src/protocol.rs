//! The newline-delimited JSON request/response protocol.
//!
//! One request per line, one response line per request, always an object.
//! Every request may carry an optional `"id"` (string or number) that is
//! echoed verbatim in its response, so pipelined clients can match
//! responses to requests:
//!
//! ```text
//! → {"op":"insert","id":7,"row":["f","black"]}
//! ← {"ok":true,"id":7,"op":"insert","inserted":1,"rows":6}
//! → {"op":"mups","limit":10}
//! ← {"ok":true,"op":"mups","count":2,"tau":1,"mups":["1XX","X10"],"decoded":["sex=f","race=black, age=young"]}
//! ```
//!
//! Malformed lines never kill the connection — they produce a uniform
//! `{"ok":false,"id":…,"code":"<machine-code>","error":"<human text>"}`
//! response, where `code` comes from the enumerated [`ErrorCode`] table
//! (stable contract for programs) and `error` is free-form prose (for
//! humans; may change between releases). The JSON reader/writer is
//! hand-rolled (vendoring policy: no new external dependencies) and covers
//! the full value grammar: objects, arrays, strings with escapes and
//! `\uXXXX` (including surrogate pairs), numbers, booleans, null.

use std::fmt::Write as _;

use coverage_core::CoverageError;
use coverage_data::DataError;

use crate::ServiceError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like browsers do).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, matching common parsers).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up a key in an object (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    ///
    /// The upper bound is strict: `u64::MAX as f64` rounds *up* to 2^64, so
    /// a `<=` comparison would admit `18446744073709551616` (and the f64
    /// rounding of `u64::MAX` itself) and silently saturate the cast to
    /// `u64::MAX`; `<` rejects everything from 2^64 up instead.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Number(n) if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Nesting bound for the recursive-descent parser: requests are flat
/// (depth ≤ 3), but a hostile line of `[[[…` must produce an error
/// response, not a stack overflow that kills the whole server.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The input as a `&str`: already-valid UTF-8, so multi-byte scalars in
    /// strings decode in O(1) instead of re-validating the suffix.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err("lone high surrogate".into());
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("lone low surrogate".into());
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).ok_or("invalid unicode escape")?);
                        }
                        other => {
                            return Err(format!("invalid escape `\\{}`", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances by
                    // whole scalars, so this O(1) str slice cannot split a
                    // character (and cannot re-validate the whole suffix,
                    // which would make long strings quadratic to parse).
                    let ch = self.text[self.pos..].chars().next().expect("non-empty");
                    if (ch as u32) < 0x20 {
                        return Err("unescaped control character in string".into());
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string with all required escapes.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The enumerated machine-readable error codes every `{"ok":false}`
/// response carries in its `"code"` field. Programs should branch on these
/// — the accompanying `"error"` text is for humans and may change wording
/// between releases; the codes are a stable contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not a valid JSON object, or lacks a usable `"op"`.
    Parse,
    /// The request line exceeded the per-line byte cap and was discarded.
    LineTooLong,
    /// The `"op"` value is not a known operation.
    UnknownOp,
    /// A field is missing, of the wrong type, or otherwise malformed.
    BadRequest,
    /// A row or pattern has the wrong number of attributes.
    ArityMismatch,
    /// A row value does not resolve against its attribute's dictionary.
    UnknownValue,
    /// A named attribute is not part of the schema.
    UnknownAttribute,
    /// A `grow` value already resolves on its attribute.
    DuplicateValue,
    /// A `coverage` pattern string does not parse.
    BadPattern,
    /// A `delete` names more copies of a row than the dataset holds.
    RowNotFound,
    /// An `enhance` plan cannot hit every remaining pattern.
    Unhittable,
    /// `snapshot`/`restore` was requested but no path is configured.
    NoSnapshot,
    /// A snapshot could not be written, read, or understood.
    SnapshotIo,
    /// A `restore` would change the serving threshold mid-flight.
    ThresholdMismatch,
    /// A mutation was sent to a read-only follower replica.
    ReadOnly,
    /// The request named a dataset this server does not host.
    UnknownDataset,
    /// The handler failed internally (e.g. a contained panic). Keep this
    /// variant last: the check under [`ErrorCode::ALL`] counts up to it.
    Internal,
}

impl ErrorCode {
    /// Every code, in declaration order. A compile-time check below holds
    /// it to exactly the variants up to the last one, `Internal`, and a
    /// test-side `match` without a wildcard arm produces each one from a
    /// real request.
    pub const ALL: [ErrorCode; 17] = [
        ErrorCode::Parse,
        ErrorCode::LineTooLong,
        ErrorCode::UnknownOp,
        ErrorCode::BadRequest,
        ErrorCode::ArityMismatch,
        ErrorCode::UnknownValue,
        ErrorCode::UnknownAttribute,
        ErrorCode::DuplicateValue,
        ErrorCode::BadPattern,
        ErrorCode::RowNotFound,
        ErrorCode::Unhittable,
        ErrorCode::NoSnapshot,
        ErrorCode::SnapshotIo,
        ErrorCode::ThresholdMismatch,
        ErrorCode::ReadOnly,
        ErrorCode::UnknownDataset,
        ErrorCode::Internal,
    ];

    /// The stable wire form of the code (snake_case).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ArityMismatch => "arity_mismatch",
            ErrorCode::UnknownValue => "unknown_value",
            ErrorCode::UnknownAttribute => "unknown_attribute",
            ErrorCode::DuplicateValue => "duplicate_value",
            ErrorCode::BadPattern => "bad_pattern",
            ErrorCode::RowNotFound => "row_not_found",
            ErrorCode::Unhittable => "unhittable",
            ErrorCode::NoSnapshot => "no_snapshot",
            ErrorCode::SnapshotIo => "snapshot_io",
            ErrorCode::ThresholdMismatch => "threshold_mismatch",
            ErrorCode::ReadOnly => "read_only",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::Internal => "internal",
        }
    }
}

// `ALL` lists each variant once, in declaration order, through `Internal`.
const _: () = {
    assert!(ErrorCode::ALL.len() == ErrorCode::Internal as usize + 1);
    let mut i = 0;
    while i < ErrorCode::ALL.len() {
        assert!(ErrorCode::ALL[i] as usize == i);
        i += 1;
    }
};

/// A rejected request: a machine [`ErrorCode`] plus human-readable detail.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// The stable machine code.
    pub code: ErrorCode,
    /// Free-form human-readable detail.
    pub message: String,
}

impl ServeError {
    /// Builds an error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServeError {
            code,
            message: message.into(),
        }
    }

    /// Classifies a dataset-layer error into its protocol code.
    pub fn from_data(e: DataError) -> Self {
        let code = match &e {
            DataError::RowArity { .. } => ErrorCode::ArityMismatch,
            DataError::UnknownValue { .. } | DataError::ValueOutOfRange { .. } => {
                ErrorCode::UnknownValue
            }
            DataError::UnknownAttribute(_) => ErrorCode::UnknownAttribute,
            DataError::DuplicateValue { .. } => ErrorCode::DuplicateValue,
            DataError::RowNotFound => ErrorCode::RowNotFound,
            DataError::Io(_) => ErrorCode::SnapshotIo,
            _ => ErrorCode::BadRequest,
        };
        ServeError::new(code, e.to_string())
    }

    /// Classifies a service-layer error into its protocol code.
    pub fn from_service(e: ServiceError) -> Self {
        let code = match &e {
            ServiceError::BadRequest(_) => ErrorCode::BadRequest,
            ServiceError::RowNotFound(_) => ErrorCode::RowNotFound,
            ServiceError::Snapshot(_) => ErrorCode::SnapshotIo,
            ServiceError::Core(core) => match core {
                CoverageError::ArityMismatch { .. } => ErrorCode::ArityMismatch,
                CoverageError::Unhittable { .. } => ErrorCode::Unhittable,
                CoverageError::Data(d) => return ServeError::from_data_ref(d, e.to_string()),
                _ => ErrorCode::BadRequest,
            },
        };
        ServeError::new(code, e.to_string())
    }

    fn from_data_ref(e: &DataError, message: String) -> Self {
        let code = match e {
            DataError::RowArity { .. } => ErrorCode::ArityMismatch,
            DataError::UnknownValue { .. } | DataError::ValueOutOfRange { .. } => {
                ErrorCode::UnknownValue
            }
            DataError::UnknownAttribute(_) => ErrorCode::UnknownAttribute,
            DataError::DuplicateValue { .. } => ErrorCode::DuplicateValue,
            DataError::RowNotFound => ErrorCode::RowNotFound,
            DataError::Io(_) => ErrorCode::SnapshotIo,
            _ => ErrorCode::BadRequest,
        };
        ServeError::new(code, message)
    }
}

/// A request's optional client-chosen correlation id, echoed verbatim in
/// the response. Strings and numbers are accepted (matching what JSON-RPC
/// clients conventionally send).
#[derive(Debug, Clone, PartialEq)]
pub enum RequestId {
    /// A string id.
    Str(String),
    /// A numeric id (JSON numbers are f64; integers echo without a dot).
    Num(f64),
}

/// Appends a request id in its JSON wire form.
pub fn write_request_id(out: &mut String, id: &RequestId) {
    match id {
        RequestId::Str(s) => write_json_string(out, s),
        RequestId::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                let _ = write!(out, "{}", *n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }
    }
}

/// Starts a success response: `{"ok":true` plus the echoed id when the
/// request carried one. The caller appends `,"op":…` and the body.
pub fn ok_head(out: &mut String, id: Option<&RequestId>) {
    out.push_str("{\"ok\":true");
    if let Some(id) = id {
        out.push_str(",\"id\":");
        write_request_id(out, id);
    }
}

/// Every `"op"` name [`parse_request`] accepts; it answers `unknown_op` to
/// any other name, even one its dispatch `match` has an arm for.
pub const OPS: [&str; 10] = [
    "insert",
    "delete",
    "grow",
    "mups",
    "coverage",
    "enhance",
    "stats",
    "snapshot",
    "restore",
    "replicate",
];

/// A validated protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ingest one or more tuples (`"row"` or `"rows"`), values given as
    /// attribute value names (or numeric codes).
    Insert {
        /// The tuples, outer = rows, inner = per-attribute raw values.
        rows: Vec<Vec<String>>,
    },
    /// Remove one or more tuples (`"row"` or `"rows"`, same shapes as
    /// `insert`); every requested copy must be present or the batch is
    /// rejected atomically.
    Delete {
        /// The tuples to remove, outer = rows, inner = raw values.
        rows: Vec<Vec<String>>,
    },
    /// Register a brand-new value on an attribute's dictionary, growing its
    /// cardinality by one, without touching any row.
    Grow {
        /// Name of the attribute to grow.
        attribute: String,
        /// The new value's name.
        value: String,
    },
    /// Write the engine state to the server's configured snapshot path.
    Snapshot,
    /// Replace the engine with the state in the configured snapshot path.
    Restore,
    /// List the current MUPs, optionally truncated.
    Mups {
        /// Maximum number of patterns to return.
        limit: Option<usize>,
    },
    /// Query `cov(P)` for a pattern in compact notation (`1XX`).
    Coverage {
        /// The pattern text.
        pattern: String,
    },
    /// Plan coverage enhancement for level λ.
    Enhance {
        /// The target level λ.
        lambda: usize,
    },
    /// Engine statistics.
    Stats,
    /// Fetch a batch of op-log entries starting at a sequence number
    /// (leader side of follower replication).
    Replicate {
        /// The first sequence number wanted (entries with `seq >= from`).
        from_seq: u64,
    },
}

/// A parsed request line: the optional client id plus the validated op.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The client's correlation id, echoed in the response.
    pub id: Option<RequestId>,
    /// The dataset this request addresses in multi-tenant mode (absent =
    /// the default dataset, byte-compatible with single-dataset clients).
    pub dataset: Option<String>,
    /// The validated operation.
    pub request: Request,
}

/// A rejected request line: the error plus the id when one was recoverable
/// (the line parsed as an object but the op was invalid).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseFailure {
    /// The id, when the line got far enough to yield one.
    pub id: Option<RequestId>,
    /// What was wrong.
    pub error: ServeError,
}

/// Converts a JSON value into one raw attribute value.
fn raw_value(v: &Json) -> Result<String, ServeError> {
    match v {
        Json::String(s) => Ok(s.clone()),
        Json::Number(n) if n.fract() == 0.0 => Ok(format!("{}", *n as i64)),
        other => Err(ServeError::new(
            ErrorCode::BadRequest,
            format!("row values must be strings or integer codes, got {other:?}"),
        )),
    }
}

/// One tuple: an array of raw attribute values. `what` names the offending
/// field in errors (`row`, or an element of `rows`).
fn parse_one_row(value: &Json, what: &str) -> Result<Vec<String>, ServeError> {
    let items = value.as_array().ok_or_else(|| {
        ServeError::new(
            ErrorCode::BadRequest,
            format!("{what} must be an array of values"),
        )
    })?;
    items.iter().map(raw_value).collect()
}

/// The `"row"` / `"rows"` payload shared by `insert` and `delete`. `op`
/// names the operation in error messages.
fn parse_rows(doc: &Json, op: &str) -> Result<Vec<Vec<String>>, ServeError> {
    let bad = |m: String| ServeError::new(ErrorCode::BadRequest, m);
    let rows = match (doc.get("rows"), doc.get("row")) {
        (Some(rows), _) => rows
            .as_array()
            .ok_or_else(|| bad("`rows` must be an array of rows".into()))?
            .iter()
            .map(|row| parse_one_row(row, "each row in `rows`"))
            .collect::<Result<Vec<_>, _>>()?,
        (None, Some(row)) => vec![parse_one_row(row, "`row`")?],
        (None, None) => return Err(bad(format!("{op} needs `row` or `rows`"))),
    };
    if rows.is_empty() {
        return Err(bad(format!("{op} needs at least one row")));
    }
    Ok(rows)
}

/// Parses one request line into its id + validated op. On failure the id is
/// still returned when the line parsed as JSON (so the error response can
/// echo it back to a pipelined client).
pub fn parse_request(line: &str) -> Result<Envelope, ParseFailure> {
    let fail_no_id = |code: ErrorCode, message: String| ParseFailure {
        id: None,
        error: ServeError::new(code, message),
    };
    let doc = Json::parse(line).map_err(|message| fail_no_id(ErrorCode::Parse, message))?;
    if !matches!(doc, Json::Object(_)) {
        return Err(fail_no_id(
            ErrorCode::Parse,
            "request must be a JSON object".into(),
        ));
    }
    let id = match doc.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::String(s)) => Some(RequestId::Str(s.clone())),
        Some(Json::Number(n)) => Some(RequestId::Num(*n)),
        Some(_) => {
            return Err(fail_no_id(
                ErrorCode::BadRequest,
                "`id` must be a string or number".into(),
            ))
        }
    };
    let fail = |code: ErrorCode, message: String| ParseFailure {
        id: id.clone(),
        error: ServeError::new(code, message),
    };
    let bad = |message: &str| fail(ErrorCode::BadRequest, message.into());
    let dataset = match doc.get("dataset") {
        None | Some(Json::Null) => None,
        Some(Json::String(s)) => Some(s.clone()),
        Some(_) => return Err(bad("`dataset` must be a string")),
    };
    let op = match doc.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return Err(fail(ErrorCode::Parse, "missing string field `op`".into())),
    };
    let unknown_op = || {
        fail(
            ErrorCode::UnknownOp,
            format!("unknown op `{op}` (expected {})", OPS.join("|")),
        )
    };
    if !OPS.contains(&op) {
        return Err(unknown_op());
    }
    let request = match op {
        "insert" => Request::Insert {
            rows: parse_rows(&doc, "insert").map_err(|e| fail(e.code, e.message))?,
        },
        "delete" => Request::Delete {
            rows: parse_rows(&doc, "delete").map_err(|e| fail(e.code, e.message))?,
        },
        "grow" => {
            let attribute = doc
                .get("attr")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("grow needs a string field `attr` (the attribute name)"))?;
            let value = doc
                .get("value")
                .ok_or_else(|| bad("grow needs a field `value` (the new value's name)"))?;
            Request::Grow {
                attribute: attribute.to_string(),
                value: raw_value(value).map_err(|e| fail(e.code, e.message))?,
            }
        }
        "snapshot" => Request::Snapshot,
        "restore" => Request::Restore,
        "mups" => {
            let limit = match doc.get("limit") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| bad("`limit` must be a non-negative integer"))?
                        as usize,
                ),
            };
            Request::Mups { limit }
        }
        "coverage" => {
            let pattern = doc
                .get("pattern")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("coverage needs a string field `pattern`"))?;
            Request::Coverage {
                pattern: pattern.to_string(),
            }
        }
        "enhance" => {
            let lambda = doc
                .get("lambda")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("enhance needs a non-negative integer field `lambda`"))?;
            Request::Enhance {
                lambda: lambda as usize,
            }
        }
        "stats" => Request::Stats,
        "replicate" => {
            let from_seq = doc
                .get("from")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("replicate needs a non-negative integer field `from`"))?;
            Request::Replicate { from_seq }
        }
        _ => return Err(unknown_op()),
    };
    Ok(Envelope {
        id,
        dataset,
        request,
    })
}

/// Builds the uniform `{"ok":false,"id":…,"code":…,"error":…}` response for
/// a rejected request (the `id` is omitted when the request had none).
pub fn error_response(id: Option<&RequestId>, error: &ServeError) -> String {
    let mut out = String::from("{\"ok\":false");
    if let Some(id) = id {
        out.push_str(",\"id\":");
        write_request_id(&mut out, id);
    }
    out.push_str(",\"code\":\"");
    out.push_str(error.code.as_str());
    out.push_str("\",\"error\":");
    write_json_string(&mut out, &error.message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwraps the op, discarding the id (most shape tests don't send one).
    fn parse_op(line: &str) -> Request {
        parse_request(line).unwrap().request
    }

    #[test]
    fn parses_all_ops() {
        assert_eq!(
            parse_op(r#"{"op":"insert","row":["f","black"]}"#),
            Request::Insert {
                rows: vec![vec!["f".into(), "black".into()]]
            }
        );
        assert_eq!(
            parse_op(r#"{"op":"insert","rows":[["a","b"],["c","d"]]}"#),
            Request::Insert {
                rows: vec![vec!["a".into(), "b".into()], vec!["c".into(), "d".into()]]
            }
        );
        assert_eq!(
            parse_op(r#"{"op":"insert","row":[1,0]}"#),
            Request::Insert {
                rows: vec![vec!["1".into(), "0".into()]]
            }
        );
        assert_eq!(
            parse_op(r#"{"op":"delete","row":["f","black"]}"#),
            Request::Delete {
                rows: vec![vec!["f".into(), "black".into()]]
            }
        );
        assert_eq!(
            parse_op(r#"{"op":"delete","rows":[["a","b"],["c","d"]]}"#),
            Request::Delete {
                rows: vec![vec!["a".into(), "b".into()], vec!["c".into(), "d".into()]]
            }
        );
        assert_eq!(
            parse_op(r#"{"op":"grow","attr":"race","value":"hispanic"}"#),
            Request::Grow {
                attribute: "race".into(),
                value: "hispanic".into()
            }
        );
        // Numeric values stringify, mirroring row cells.
        assert_eq!(
            parse_op(r#"{"op":"grow","attr":"age","value":7}"#),
            Request::Grow {
                attribute: "age".into(),
                value: "7".into()
            }
        );
        assert_eq!(parse_op(r#"{"op":"snapshot"}"#), Request::Snapshot);
        assert_eq!(parse_op(r#"{"op":"restore"}"#), Request::Restore);
        assert_eq!(parse_op(r#"{"op":"mups"}"#), Request::Mups { limit: None });
        assert_eq!(
            parse_op(r#"{"op":"mups","limit":5}"#),
            Request::Mups { limit: Some(5) }
        );
        assert_eq!(
            parse_op(r#"{"op":"coverage","pattern":"1XX"}"#),
            Request::Coverage {
                pattern: "1XX".into()
            }
        );
        assert_eq!(
            parse_op(r#"{"op":"enhance","lambda":2}"#),
            Request::Enhance { lambda: 2 }
        );
        assert_eq!(parse_op(r#"{"op":"stats"}"#), Request::Stats);
        assert_eq!(
            parse_op(r#"{"op":"replicate","from":17}"#),
            Request::Replicate { from_seq: 17 }
        );
    }

    #[test]
    fn dataset_field_parses() {
        // Absent and null both mean "the default dataset".
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap().dataset, None);
        assert_eq!(
            parse_request(r#"{"op":"stats","dataset":null}"#)
                .unwrap()
                .dataset,
            None
        );
        assert_eq!(
            parse_request(r#"{"op":"stats","dataset":"jobs"}"#)
                .unwrap()
                .dataset,
            Some("jobs".to_string())
        );
        let err = parse_request(r#"{"op":"stats","dataset":7}"#).unwrap_err();
        assert_eq!(err.error.code, ErrorCode::BadRequest);
        assert!(err.error.message.contains("`dataset` must be a string"));
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("", "unexpected end"),
            ("not json", "invalid literal"),
            ("@garbage", "unexpected `@`"),
            ("[1,2]", "must be a JSON object"),
            ("{}", "missing string field `op`"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"insert"}"#, "needs `row` or `rows`"),
            (r#"{"op":"insert","rows":[]}"#, "at least one row"),
            (r#"{"op":"delete"}"#, "needs `row` or `rows`"),
            (r#"{"op":"delete","rows":[]}"#, "at least one row"),
            (
                r#"{"op":"delete","row":"f,black"}"#,
                "`row` must be an array",
            ),
            (
                r#"{"op":"insert","row":[true]}"#,
                "strings or integer codes",
            ),
            (
                r#"{"op":"insert","row":"f,black"}"#,
                "`row` must be an array",
            ),
            (
                r#"{"op":"insert","rows":["f","black"]}"#,
                "each row in `rows` must be an array",
            ),
            (r#"{"op":"mups","limit":-1}"#, "non-negative integer"),
            (r#"{"op":"mups","limit":1.5}"#, "non-negative integer"),
            (r#"{"op":"grow"}"#, "string field `attr`"),
            (
                r#"{"op":"grow","attr":7,"value":"v"}"#,
                "string field `attr`",
            ),
            (r#"{"op":"grow","attr":"race"}"#, "field `value`"),
            (
                r#"{"op":"grow","attr":"race","value":[1]}"#,
                "strings or integer codes",
            ),
            (r#"{"op":"coverage"}"#, "string field `pattern`"),
            (
                r#"{"op":"enhance","lambda":"two"}"#,
                "integer field `lambda`",
            ),
            (r#"{"op":"replicate"}"#, "integer field `from`"),
            (r#"{"op":"replicate","from":-1}"#, "integer field `from`"),
            (r#"{"op":"stats"} trailing"#, "trailing characters"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.error.message.contains(needle),
                "line `{line}` gave `{}`",
                err.error.message
            );
        }
    }

    #[test]
    fn malformed_requests_carry_machine_codes() {
        for (line, code) in [
            ("not json", ErrorCode::Parse),
            ("[1,2]", ErrorCode::Parse),
            ("{}", ErrorCode::Parse),
            (r#"{"op":"frobnicate"}"#, ErrorCode::UnknownOp),
            (r#"{"op":"insert"}"#, ErrorCode::BadRequest),
            (r#"{"op":"insert","id":[1]}"#, ErrorCode::BadRequest),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.error.code, code, "line `{line}`");
        }
    }

    #[test]
    fn ids_parse_and_echo() {
        // String, integer, and float ids all round-trip.
        let env = parse_request(r#"{"op":"stats","id":"abc"}"#).unwrap();
        assert_eq!(env.id, Some(RequestId::Str("abc".into())));
        let env = parse_request(r#"{"op":"stats","id":7}"#).unwrap();
        assert_eq!(env.id, Some(RequestId::Num(7.0)));
        // `null` id means "no id", like an absent field.
        let env = parse_request(r#"{"op":"stats","id":null}"#).unwrap();
        assert_eq!(env.id, None);
        // Integer ids echo without a decimal point; floats keep theirs.
        let mut out = String::new();
        write_request_id(&mut out, &RequestId::Num(7.0));
        assert_eq!(out, "7");
        let mut out = String::new();
        write_request_id(&mut out, &RequestId::Num(1.5));
        assert_eq!(out, "1.5");
        let mut out = String::new();
        write_request_id(&mut out, &RequestId::Str("a\"b".into()));
        assert_eq!(out, "\"a\\\"b\"");
    }

    #[test]
    fn semantic_errors_echo_the_id() {
        // The id is recovered even when the op is bad, so pipelined
        // clients can correlate the failure.
        let err = parse_request(r#"{"op":"frobnicate","id":42}"#).unwrap_err();
        assert_eq!(err.id, Some(RequestId::Num(42.0)));
        assert_eq!(err.error.code, ErrorCode::UnknownOp);
        let resp = error_response(err.id.as_ref(), &err.error);
        assert!(resp.starts_with("{\"ok\":false,\"id\":42,\"code\":\"unknown_op\""));
        // A line that is not JSON at all cannot yield an id.
        let err = parse_request("garbage").unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn json_parser_covers_the_grammar() {
        let doc = Json::parse(
            r#" {"a": [1, -2.5, 1e3], "b": {"nested": null}, "c": true, "d": "q\"\\\nA😀"} "#,
        )
        .unwrap();
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap(),
            &[Json::Number(1.0), Json::Number(-2.5), Json::Number(1000.0)]
        );
        assert_eq!(doc.get("b").unwrap().get("nested"), Some(&Json::Null));
        assert_eq!(doc.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("d").unwrap().as_str(), Some("q\"\\\nA😀"));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in [
            "{",
            "{\"a\"}",
            "[1,]",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "01a",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 200k unclosed brackets must come back as an error response, not
        // abort the serving process.
        let bomb = "[".repeat(200_000);
        assert!(Json::parse(&bomb).unwrap_err().contains("nesting"));
        let nested_obj = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&nested_obj).unwrap_err().contains("nesting"));
        // Depth is tracked, not merely counted: 70 sequential sibling
        // arrays are fine even though 70 > MAX_DEPTH nested would not be.
        let wide = format!("[{}]", vec!["[]"; 70].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Regression: per-char suffix re-validation made this quadratic
        // (~2 s at 400 kB); linear parsing handles 1 MB in milliseconds.
        let payload = "a".repeat(1 << 20);
        let line = format!("{{\"op\":\"coverage\",\"pattern\":\"{payload}\"}}");
        let start = std::time::Instant::now();
        let doc = Json::parse(&line).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "string parse took {:?}",
            start.elapsed()
        );
        assert_eq!(
            doc.get("pattern").and_then(Json::as_str).map(str::len),
            Some(payload.len())
        );
    }

    #[test]
    fn as_u64_rejects_two_pow_64_and_up() {
        // Regression: `n <= u64::MAX as f64` admitted 2^64 (the cast rounds
        // the bound up) and silently saturated it to u64::MAX.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        // u64::MAX itself rounds to 2^64 as an f64, so it is rejected too
        // rather than silently misparsed.
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), None);
        // The largest f64 below 2^64 and friends are exact and accepted.
        assert_eq!(
            Json::parse("18446744073709549568").unwrap().as_u64(),
            Some(18446744073709549568)
        );
        assert_eq!(
            Json::parse("9223372036854775808").unwrap().as_u64(),
            Some(1 << 63)
        );
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let doc = Json::parse(r#"{"op":"stats","op":"mups"}"#).unwrap();
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("mups"));
    }

    #[test]
    fn string_writer_escapes() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{0001}e");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001e\"");
        // Round trip through the parser.
        assert_eq!(
            Json::parse(&out).unwrap().as_str(),
            Some("a\"b\\c\nd\u{0001}e")
        );
    }

    #[test]
    fn error_response_shape() {
        let err = ServeError::new(ErrorCode::BadRequest, "boom \"quoted\"");
        let resp = error_response(None, &err);
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("bad_request"));
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("boom \"quoted\"")
        );
        assert_eq!(doc.get("id"), None);
        // With an id, the echo comes right after `ok` for easy scanning.
        let resp = error_response(Some(&RequestId::Str("x".into())), &err);
        assert!(resp.starts_with("{\"ok\":false,\"id\":\"x\","));
    }
}
