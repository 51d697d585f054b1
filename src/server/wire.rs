//! The wire protocol: length-prefixed binary frames, std-only, with
//! typed errors.
//!
//! A frame is a big-endian `u32` byte length followed by that many body
//! bytes; the body is an opcode byte followed by the message fields.
//! There is no self-description and no schema on the wire: probes and
//! records are positional value vectors against the schemas the client
//! learns from [`Response::Stats`].
//!
//! # The codec
//!
//! Every type that crosses the wire has exactly one impl of a private
//! `Wire` trait, which writes it, reads it back and states `MIN`, the
//! fewest bytes any value of it encodes to:
//!
//! * integers are big-endian — `u32` counts and lengths, `u64` ids,
//!   counters and `f64::to_bits` payloads; a `bool` is one byte, `0` or
//!   `1`;
//! * a `String` is its `u32` byte length, then UTF-8 bytes;
//! * an `Option<T>` is a tag byte, `0` none or `1` followed by the `T` —
//!   the record values (null or a string) and `Explain`'s fired key;
//! * a `Vec<T>` is a `u32` count, then the elements; a tuple is its parts
//!   in order;
//! * a `Wire*` struct is its fields in declaration order, and a message
//!   is its opcode, then its fields in declaration order. One list per
//!   struct and one opcode row per message variant generate both
//!   directions, so the encoder and the decoder cannot drift apart.
//!
//! Decoding is **total**: any byte sequence either decodes to a message
//! or fails with a typed [`ProtocolError`] naming the field — truncated
//! input, an unknown tag, an oversized frame and trailing garbage are
//! all errors, never panics, and a frame longer than [`MAX_FRAME`] is
//! rejected *before* any allocation. Counts are bounded in one place,
//! `Vec<T>`'s decoder: `n` elements of at least `T::MIN` bytes each must
//! fit in the bytes that remain, so no count can reserve more elements
//! than the frame could hold. [`read_frame`] distinguishes a clean
//! end-of-stream (`Ok(None)`) from a connection dying mid-frame
//! ([`ProtocolError::Truncated`]).

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Hard cap on a frame's body length (16 MiB). A peer announcing more
/// is rejected with [`ProtocolError::Oversized`] before any buffer is
/// allocated.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// A typed wire-protocol failure. Every malformed input maps to one of
/// these — decoding never panics.
#[derive(Debug)]
pub enum ProtocolError {
    /// A frame announced a body longer than [`MAX_FRAME`].
    Oversized {
        /// The announced body length.
        len: u64,
    },
    /// The input ended in the middle of the named field.
    Truncated {
        /// Which field was being read.
        context: &'static str,
    },
    /// An opcode or tag byte named no known variant.
    UnknownTag {
        /// Which field was being read.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8 {
        /// Which field was being read.
        context: &'static str,
    },
    /// Bytes remained after a complete message was decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The underlying stream failed.
    Io(io::Error),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtocolError::Truncated { context } => {
                write!(f, "input ended while reading {context}")
            }
            ProtocolError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} while reading {context}")
            }
            ProtocolError::InvalidUtf8 { context } => {
                write!(f, "invalid UTF-8 while reading {context}")
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            ProtocolError::Io(e) => write!(f, "stream error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// One wire type: how it is written, how it is read back, and the fewest
/// bytes any value of it encodes to.
trait Wire: Sized {
    /// The smallest encoding of any value, in bytes — what bounds a
    /// count of these elements.
    const MIN: usize;

    /// Appends the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value; `context` names the field in errors.
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError>;
}

/// A bounds-checked cursor over a frame body. Every read either
/// advances or fails with a typed error naming the field.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn get<T: Wire>(&mut self, context: &'static str) -> Result<T, ProtocolError> {
        T::get(self, context)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(ProtocolError::TrailingBytes { extra }),
        }
    }
}

macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN: usize = std::mem::size_of::<$int>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }

            fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError> {
                let bytes = r.take(<$int as Wire>::MIN, context)?;
                Ok(<$int>::from_be_bytes(bytes.try_into().expect("took MIN bytes")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for bool {
    const MIN: usize = <u8 as Wire>::MIN;

    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError> {
        match r.get::<u8>(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtocolError::UnknownTag { context, tag }),
        }
    }
}

impl Wire for String {
    const MIN: usize = <u32 as Wire>::MIN;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError> {
        let len = r.get::<u32>(context)? as usize;
        let bytes = r.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::InvalidUtf8 { context })
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN: usize = <bool as Wire>::MIN;

    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError> {
        Ok(if r.get::<bool>(context)? { Some(r.get(context)?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = <u32 as Wire>::MIN;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }

    /// The one place a count is bounded: `n` elements of at least
    /// `T::MIN` bytes each must fit in what is left of the body. That is
    /// what keeps `Vec::with_capacity(n)` safe — an element in memory can
    /// be several times its smallest encoding, so a count checked against
    /// one byte per element would let one frame reserve gigabytes.
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError> {
        let n = r.get::<u32>(context)? as usize;
        if n.saturating_mul(T::MIN) > r.remaining() {
            return Err(ProtocolError::Truncated { context });
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(r.get(context)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError> {
        Ok((r.get(context)?, r.get(context)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN: usize = A::MIN + B::MIN + C::MIN;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }

    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, ProtocolError> {
        Ok((r.get(context)?, r.get(context)?, r.get(context)?))
    }
}

/// Declares a `Wire*` struct and its codec from one field list: fields
/// travel in declaration order, each named by its field in errors, and
/// `MIN` is the sum of theirs.
macro_rules! wire_struct {
    ($(#[$attr:meta])* pub struct $name:ident {
        $($(#[$field_attr:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$field_attr])* pub $field: $ty,)*
        }

        impl Wire for $name {
            const MIN: usize = 0 $(+ <$ty as Wire>::MIN)*;

            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, ProtocolError> {
                Ok($name { $($field: r.get(stringify!($field))?,)* })
            }
        }
    };
}

/// Generates a message enum's `encode` and `decode` from one opcode
/// table. Each row names a variant with its fields in declaration order
/// — or its one payload, bound to the name given — and that row is both
/// directions.
macro_rules! wire_message {
    ($name:ident, $context:literal {
        $($opcode:literal => $variant:ident $({ $($field:ident),* })? $(($payload:ident))?,)*
    }) => {
        impl $name {
            /// Encodes the message body (opcode + fields, no length prefix).
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                match self {
                    $($name::$variant $({ $($field),* })? $(($payload))? => {
                        out.push($opcode);
                        $($($field.put(&mut out);)*)?
                        $($payload.put(&mut out);)?
                    })*
                }
                out
            }

            /// Decodes one message from a complete frame body; every byte
            /// must be consumed.
            pub fn decode(body: &[u8]) -> Result<$name, ProtocolError> {
                let mut r = Reader { buf: body, pos: 0 };
                let message = match r.get::<u8>($context)? {
                    $($opcode => $name::$variant
                        $({ $($field: r.get(stringify!($field))?),* })?
                        $((r.get(stringify!($payload))?))?,)*
                    tag => return Err(ProtocolError::UnknownTag { context: $context, tag }),
                };
                r.finish()?;
                Ok(message)
            }
        }
    };
}

/// One labeled pair on the wire: `(probe values, stored-shape values,
/// is a match)` — both sides positional against their schema, unset
/// fields null.
pub type WireLabel = (Vec<Option<String>>, Vec<Option<String>>, bool);

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Match one probe (positional values against the probe schema).
    Query {
        /// The probe's field values, in schema attribute order.
        values: Vec<Option<String>>,
    },
    /// Match many probes against one consistent view.
    QueryBatch {
        /// One value vector per probe.
        probes: Vec<Vec<Option<String>>>,
    },
    /// Insert or replace records under caller-chosen ids.
    UpsertBatch {
        /// `(id, field values)` pairs, applied in order.
        items: Vec<(u64, Vec<Option<String>>)>,
    },
    /// Remove records from query visibility.
    RemoveBatch {
        /// The ids to remove.
        ids: Vec<u64>,
    },
    /// Match one probe ranked: the boolean hit set scored, sorted by
    /// calibrated confidence, thresholded and truncated.
    QueryRanked {
        /// The probe's field values, in schema attribute order.
        values: Vec<Option<String>>,
        /// Maximum hits to return.
        top_k: u32,
        /// Minimum score to return, as `f64::to_bits` (bit-exact on the
        /// wire; NaN is rejected by the server).
        min_score_bits: u64,
    },
    /// Explain the decision for one (probe, stored record) pair.
    Explain {
        /// The probe's field values.
        values: Vec<Option<String>>,
        /// The stored record's id.
        id: u64,
    },
    /// Replace the rule set with MDs parsed from text.
    SwapRules {
        /// The MD set in the parser syntax.
        md_text: String,
    },
    /// Fetch server counters and the schema pair.
    Stats,
    /// Append labeled pairs to the server's label store — the training
    /// set [`Request::Refine`] selects against.
    SubmitLabels {
        /// `(probe values, stored-shape values, is a match)` triples.
        items: Vec<WireLabel>,
    },
    /// Run the refinement loop over the labels submitted so far and
    /// hot-swap the selected rules in.
    Refine {
        /// The β of the F_β selection objective, as `f64::to_bits`
        /// (1.0 = F1; non-finite or non-positive falls back to F1).
        beta_bits: u64,
    },
}

wire_struct! {
    /// One query hit on the wire: the matched id and the index of the RCK
    /// that fired (into the plan's key list — the fired-RCK provenance).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WireHit {
        /// Id of the matched record.
        pub id: u64,
        /// Index of the first RCK that accepted the pair.
        pub key: u32,
    }
}

wire_struct! {
    /// A query answer on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireQuery {
        /// The matched records, in store order.
        pub hits: Vec<WireHit>,
        /// Candidates retrieved and verified for this probe.
        pub candidates: u64,
        /// RCK evaluations the verification ran.
        pub key_evals: u64,
        /// The rule version that produced this answer.
        pub version: u64,
    }
}

wire_struct! {
    /// One ranked hit on the wire: the matched id, the fired-RCK index, and
    /// the calibrated score as `f64::to_bits` (bit-exact transport — ranked
    /// answers are byte-identical across the wire).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WireScoredHit {
        /// Id of the matched record.
        pub id: u64,
        /// Index of the first RCK that accepted the pair.
        pub key: u32,
        /// The calibrated match confidence, as `f64::to_bits`.
        pub score_bits: u64,
    }
}

wire_struct! {
    /// A ranked query answer on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireRanked {
        /// The surviving hits, sorted by score descending.
        pub hits: Vec<WireScoredHit>,
        /// Candidates retrieved and verified for this probe.
        pub candidates: u64,
        /// RCK evaluations the verification ran.
        pub key_evals: u64,
        /// The rule version that produced this answer.
        pub version: u64,
    }
}

wire_struct! {
    /// One schema on the wire: its name and attribute names in order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireSchema {
        /// The schema name.
        pub name: String,
        /// Attribute names, in positional order.
        pub attributes: Vec<String>,
    }
}

wire_struct! {
    /// Server counters and schemas on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireStats {
        /// The rule version currently serving.
        pub version: u64,
        /// The publish epoch (bumps on every mutation and swap).
        pub epoch: u64,
        /// One entry: the live record count. (A list under its old name,
        /// so the frame layout stays unchanged.)
        pub shard_records: Vec<u64>,
        /// Probes answered since the server started.
        pub queries: u64,
        /// Batched query calls served since the server started (each batch
        /// also adds its probe count to `queries`).
        pub batch_queries: u64,
        /// Records upserted since the server started.
        pub upserts: u64,
        /// Records removed since the server started.
        pub removes: u64,
        /// Atoms indexed as key buckets (equality, phonetic, normalizing).
        pub key_anchors: u64,
        /// Edit-distance atoms indexed as q-gram posting lists.
        pub qgram_anchors: u64,
        /// Atoms indexed as element posting lists (tokens, q-grams,
        /// Jaro–Winkler).
        pub element_anchors: u64,
        /// Keys with no indexable atom (scan fallback).
        pub scan_keys: u64,
        /// The schema stored records instantiate.
        pub store_schema: WireSchema,
        /// The schema probes instantiate.
        pub probe_schema: WireSchema,
    }
}

wire_struct! {
    /// A refinement outcome on the wire: the deployed version, before/after
    /// quality on the labeled sample (as `f64::to_bits`), and the selected
    /// rules rendered.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireRefinement {
        /// The bumped rule version now serving the selected rules.
        pub version: u64,
        /// Candidates evaluated (seed + hand-written + mined + θ-variants).
        pub pool_size: u64,
        /// How many of the selected rules are θ-sweep variants.
        pub theta_variants: u64,
        /// Whether exact exhaustive selection ran (vs greedy).
        pub exhaustive: bool,
        /// Precision of the previous rules on the labels, as `f64::to_bits`.
        pub before_precision_bits: u64,
        /// Recall of the previous rules on the labels, as `f64::to_bits`.
        pub before_recall_bits: u64,
        /// F1 of the previous rules on the labels, as `f64::to_bits`.
        pub before_f1_bits: u64,
        /// Precision of the selected rules on the labels, as `f64::to_bits`.
        pub after_precision_bits: u64,
        /// Recall of the selected rules on the labels, as `f64::to_bits`.
        pub after_recall_bits: u64,
        /// F1 of the selected rules on the labels, as `f64::to_bits`.
        pub after_f1_bits: u64,
        /// The selected rules, rendered with relation/attribute/operator
        /// names.
        pub rules: Vec<String>,
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Query`].
    Query(WireQuery),
    /// Answer to [`Request::QueryBatch`], one entry per probe.
    QueryBatch(Vec<WireQuery>),
    /// Answer to [`Request::UpsertBatch`].
    UpsertBatch {
        /// Per-item replacement flags, in input order.
        replaced: Vec<bool>,
        /// The rule version the batch was applied under.
        version: u64,
    },
    /// Answer to [`Request::RemoveBatch`].
    RemoveBatch {
        /// The rule version the batch was applied under.
        version: u64,
    },
    /// Answer to [`Request::QueryRanked`].
    QueryRanked(WireRanked),
    /// Answer to [`Request::Explain`].
    Explain {
        /// Whether the pair matches.
        matched: bool,
        /// Index of the fired RCK, when one accepted.
        fired_key: Option<u32>,
        /// The rendered explanation (human-readable).
        rendered: String,
        /// The rule version that produced the explanation.
        version: u64,
    },
    /// Answer to [`Request::SwapRules`].
    SwapRules {
        /// The bumped rule version now serving.
        version: u64,
    },
    /// Answer to [`Request::Stats`].
    Stats(WireStats),
    /// Answer to [`Request::SubmitLabels`].
    SubmitLabels {
        /// How many submitted pairs were new (not already labeled).
        added: u64,
        /// Total deduplicated labeled pairs held after the append.
        total: u64,
        /// Positive pairs held.
        positives: u64,
        /// Negative pairs held.
        negatives: u64,
    },
    /// Answer to [`Request::Refine`].
    Refine(WireRefinement),
    /// The request was understood but failed at the service layer
    /// (schema mismatch, unknown record, rule compile error, …).
    Error {
        /// The rendered service error.
        message: String,
    },
}

wire_message!(Request, "request opcode" {
    1 => Query { values },
    2 => QueryBatch { probes },
    3 => UpsertBatch { items },
    4 => RemoveBatch { ids },
    5 => Explain { values, id },
    6 => SwapRules { md_text },
    7 => Stats,
    8 => QueryRanked { values, top_k, min_score_bits },
    9 => SubmitLabels { items },
    10 => Refine { beta_bits },
});

wire_message!(Response, "response opcode" {
    1 => Query(answer),
    2 => QueryBatch(answers),
    3 => UpsertBatch { replaced, version },
    4 => RemoveBatch { version },
    5 => Explain { matched, fired_key, rendered, version },
    6 => SwapRules { version },
    7 => Stats(stats),
    8 => QueryRanked(answer),
    9 => SubmitLabels { added, total, positives, negatives },
    10 => Refine(report),
    255 => Error { message },
});

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame: a big-endian `u32` length prefix, then `body`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), ProtocolError> {
    if body.len() > MAX_FRAME {
        return Err(ProtocolError::Oversized { len: body.len() as u64 });
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Reads until `buf` is full or the stream ends and returns the bytes
/// read, or `None` once `stop` is seen set. `Interrupted` is retried;
/// with a `stop` flag so are `WouldBlock` and `TimedOut` (a socket's
/// read timeout), each after checking the flag. Any other I/O error
/// propagates.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
) -> Result<Option<usize>, ProtocolError> {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) => match (e.kind(), stop) {
                (Interrupted, None) => {}
                (Interrupted | WouldBlock | TimedOut, Some(stop)) => {
                    if stop.load(Ordering::Acquire) {
                        return Ok(None);
                    }
                }
                _ => return Err(ProtocolError::Io(e)),
            },
        }
    }
    Ok(Some(filled))
}

/// Reads one frame body. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); a stream ending mid-prefix or mid-body is
/// [`ProtocolError::Truncated`], and a prefix announcing more than
/// [`MAX_FRAME`] bytes is rejected before any allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    read_frame_until(r, None)
}

/// [`read_frame`], optionally until `stop` is set: for a server worker
/// reading a socket with a read timeout. A timed-out read — the client
/// idle between frames, or still sending one — re-checks the flag and
/// keeps reading; a set flag ends the read with `Ok(None)`. Without a
/// flag this is exactly [`read_frame`].
pub(crate) fn read_frame_until(
    r: &mut impl Read,
    stop: Option<&AtomicBool>,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut prefix = [0u8; 4];
    match read_full(r, &mut prefix, stop)? {
        None | Some(0) => return Ok(None),
        Some(4) => {}
        Some(_) => return Err(ProtocolError::Truncated { context: "frame length prefix" }),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized { len: len as u64 });
    }
    let mut body = vec![0u8; len];
    match read_full(r, &mut body, stop)? {
        None => Ok(None),
        Some(n) if n == len => Ok(Some(body)),
        Some(_) => Err(ProtocolError::Truncated { context: "frame body" }),
    }
}

/// Writes one request as a frame.
pub fn write_request(w: &mut impl Write, request: &Request) -> Result<(), ProtocolError> {
    write_frame(w, &request.encode())
}

/// Reads one request; `Ok(None)` on clean end-of-stream.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ProtocolError> {
    read_frame(r)?.map(|body| Request::decode(&body)).transpose()
}

/// Writes one response as a frame.
pub fn write_response(w: &mut impl Write, response: &Response) -> Result<(), ProtocolError> {
    write_frame(w, &response.encode())
}

/// Reads one response; `Ok(None)` on clean end-of-stream.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, ProtocolError> {
    read_frame(r)?.map(|body| Response::decode(&body)).transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_and_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn truncated_prefix_and_body_are_typed_errors() {
        let mut r = io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Truncated { .. })));
        let mut r = io::Cursor::new(vec![0u8, 0, 0, 9, b'x']);
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Truncated { .. })));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut r = io::Cursor::new((u32::MAX).to_be_bytes().to_vec());
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Oversized { .. })));
        let body = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(matches!(write_frame(&mut sink, &body), Err(ProtocolError::Oversized { .. })));
    }

    /// One fixed instance of every request shape (two of `SubmitLabels`:
    /// with and without items).
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Query { values: vec![Some("a".into()), None, Some(String::new())] },
            Request::QueryBatch { probes: vec![vec![None], vec![Some("x".into())]] },
            Request::UpsertBatch { items: vec![(7, vec![Some("v".into())]), (8, vec![None])] },
            Request::RemoveBatch { ids: vec![1, 2, u64::MAX] },
            Request::Explain { values: vec![Some("p".into())], id: 42 },
            Request::SwapRules { md_text: "a[b] = a[b] -> a[c] <=> a[c]".into() },
            Request::Stats,
            Request::QueryRanked {
                values: vec![Some("p".into()), None],
                top_k: 10,
                min_score_bits: 0.5f64.to_bits(),
            },
            Request::SubmitLabels {
                items: vec![
                    (vec![Some("mark".into()), None], vec![Some("marx".into())], true),
                    (vec![None], vec![None], false),
                ],
            },
            Request::SubmitLabels { items: vec![] },
            Request::Refine { beta_bits: 1.0f64.to_bits() },
        ]
    }

    /// One fixed instance of every response shape (two of `Explain`:
    /// with and without a fired key).
    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Query(WireQuery {
                hits: vec![WireHit { id: 3, key: 1 }],
                candidates: 9,
                key_evals: 4,
                version: 2,
            }),
            Response::QueryBatch(vec![]),
            Response::UpsertBatch { replaced: vec![true, false], version: 1 },
            Response::RemoveBatch { version: 5 },
            Response::Explain {
                matched: true,
                fired_key: Some(2),
                rendered: "because".into(),
                version: 3,
            },
            Response::Explain {
                matched: false,
                fired_key: None,
                rendered: String::new(),
                version: 1,
            },
            Response::SwapRules { version: 9 },
            Response::Stats(WireStats {
                version: 2,
                epoch: 17,
                shard_records: vec![3, 0, 5],
                queries: 100,
                batch_queries: 4,
                upserts: 8,
                removes: 1,
                key_anchors: 3,
                qgram_anchors: 1,
                element_anchors: 2,
                scan_keys: 0,
                store_schema: WireSchema { name: "crm".into(), attributes: vec!["a".into()] },
                probe_schema: WireSchema { name: "orders".into(), attributes: vec!["b".into()] },
            }),
            Response::QueryRanked(WireRanked {
                hits: vec![
                    WireScoredHit { id: 3, key: 1, score_bits: 0.97f64.to_bits() },
                    WireScoredHit { id: 8, key: 0, score_bits: 0.42f64.to_bits() },
                ],
                candidates: 9,
                key_evals: 4,
                version: 2,
            }),
            Response::SubmitLabels { added: 3, total: 10, positives: 6, negatives: 4 },
            Response::Refine(WireRefinement {
                version: 4,
                pool_size: 37,
                theta_variants: 2,
                exhaustive: false,
                before_precision_bits: 0.9f64.to_bits(),
                before_recall_bits: 0.4f64.to_bits(),
                before_f1_bits: 0.55f64.to_bits(),
                after_precision_bits: 0.95f64.to_bits(),
                after_recall_bits: 0.9f64.to_bits(),
                after_f1_bits: 0.92f64.to_bits(),
                rules: vec!["credit[FN] ≈dl@0.70 billing[FN] -> …".into()],
            }),
            Response::Error { message: "unknown record #9".into() },
        ]
    }

    #[test]
    fn request_round_trips() {
        for request in sample_requests() {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn response_round_trips() {
        for response in sample_responses() {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of every sample message. A round trip cannot see a
    /// format change that alters both directions together; this can. Any
    /// edit here is a wire-format change and breaks every deployed peer.
    #[test]
    fn golden_frames_pin_the_encoding() {
        let requests: Vec<String> = sample_requests().iter().map(|m| hex(&m.encode())).collect();
        assert_eq!(requests, GOLDEN_REQUESTS);
        let responses: Vec<String> = sample_responses().iter().map(|m| hex(&m.encode())).collect();
        assert_eq!(responses, GOLDEN_RESPONSES);
        let mut framed = Vec::new();
        write_request(&mut framed, &Request::Stats).unwrap();
        assert_eq!(hex(&framed), "0000000107", "big-endian u32 length, then the body");
    }

    const GOLDEN_REQUESTS: [&str; 11] = [
        "0100000003010000000161000100000000",
        "0200000002000000010000000001010000000178",
        "030000000200000000000000070000000101000000017600000000000000080000000100",
        "040000000300000000000000010000000000000002ffffffffffffffff",
        "0500000001010000000170000000000000002a",
        "060000001c615b625d203d20615b625d202d3e20615b635d203c3d3e20615b635d",
        "07",
        "0800000002010000000170000000000a3fe0000000000000",
        "09000000020000000201000000046d61726b000000000101000000046d617278010000000100000000010000",
        "0900000000",
        "0a3ff0000000000000",
    ];
    const GOLDEN_RESPONSES: [&str; 12] = [
        "0100000001000000000000000300000001000000000000000900000000000000040000000000000002",
        "0200000000",
        "030000000201000000000000000001",
        "040000000000000005",
        "0501010000000200000007626563617573650000000000000003",
        "050000000000000000000000000001",
        "060000000000000009",
        concat!(
            "0700000000000000020000000000000011000000030000000000000003000000000000000000000000",
            "0000000500000000000000640000000000000004000000000000000800000000000000010000000000",
            "0000030000000000000001000000000000000200000000000000000000000363726d00000001000000",
            "0161000000066f7264657273000000010000000162",
        ),
        concat!(
            "08000000020000000000000003000000013fef0a3d70a3d70a0000000000000008000000003fdae147",
            "ae147ae1000000000000000900000000000000040000000000000002",
        ),
        "090000000000000003000000000000000a00000000000000060000000000000004",
        concat!(
            "0a000000000000000400000000000000250000000000000002003feccccccccccccd3fd999999999999a",
            "3fe199999999999a3fee6666666666663feccccccccccccd3fed70a3d70a3d7100000001000000286372",
            "656469745b464e5d20e28988646c40302e37302062696c6c696e675b464e5d202d3e20e280a6",
        ),
        "ff00000011756e6b6e6f776e207265636f7264202339",
    ];

    #[test]
    fn garbage_decodes_to_typed_errors_never_panics() {
        assert!(matches!(Request::decode(&[]), Err(ProtocolError::Truncated { .. })));
        assert!(matches!(Request::decode(&[99]), Err(ProtocolError::UnknownTag { tag: 99, .. })));
        // A count claiming more elements than bytes remain.
        assert!(matches!(
            Request::decode(&[4, 0xFF, 0xFF, 0xFF, 0xFF]),
            Err(ProtocolError::Truncated { .. })
        ));
        // Valid message followed by trailing garbage.
        let mut body = Request::Stats.encode();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(ProtocolError::TrailingBytes { extra: 1 })));
        // Invalid UTF-8 in a string.
        let mut body = vec![6]; // SwapRules
        body.extend_from_slice(&2u32.to_be_bytes());
        body.extend_from_slice(&[0xC3, 0x28]);
        assert!(matches!(Request::decode(&body), Err(ProtocolError::InvalidUtf8 { .. })));
        // Refine missing its beta.
        assert!(matches!(Request::decode(&[10]), Err(ProtocolError::Truncated { .. })));
        // SubmitLabels with a polarity byte that is neither 0 nor 1.
        let mut body = vec![9];
        body.extend_from_slice(&1u32.to_be_bytes()); // one item
        body.extend_from_slice(&0u32.to_be_bytes()); // empty left values
        body.extend_from_slice(&0u32.to_be_bytes()); // empty right values
        body.push(7); // bad polarity
        assert!(matches!(Request::decode(&body), Err(ProtocolError::UnknownTag { tag: 7, .. })));

        // A count of 5 over 8 remaining bytes: one byte per element would
        // fit, the element's smallest encoding does not. Each counted
        // field of each message fails under its own name; that it fails
        // at the count, before reserving capacity, is the next test's.
        fn truncated_at<T: fmt::Debug>(decoded: Result<T, ProtocolError>) -> &'static str {
            match decoded {
                Err(ProtocolError::Truncated { context }) => context,
                other => panic!("expected a truncation, got {other:?}"),
            }
        }
        let counted = |prefix: &[u8]| {
            let mut body = prefix.to_vec();
            body.extend_from_slice(&5u32.to_be_bytes());
            body.extend_from_slice(&[0; 8]);
            body
        };
        let zeros = |opcode: u8, n: usize| [vec![opcode], vec![0; n]].concat();
        assert_eq!(truncated_at(Request::decode(&counted(&[9]))), "items");
        assert_eq!(truncated_at(Request::decode(&counted(&[2]))), "probes");
        assert_eq!(truncated_at(Request::decode(&counted(&[3]))), "items");
        assert_eq!(truncated_at(Request::decode(&counted(&[4]))), "ids");
        assert_eq!(truncated_at(Response::decode(&counted(&[1]))), "hits");
        assert_eq!(truncated_at(Response::decode(&counted(&[8]))), "hits");
        assert_eq!(truncated_at(Response::decode(&counted(&[2]))), "answers");
        // Stats: version and epoch, then the shard count; with no shards,
        // eight counters and an empty schema name precede the attributes.
        assert_eq!(truncated_at(Response::decode(&counted(&zeros(7, 16)))), "shard_records");
        let before_attributes = 16 + 4 + 8 * 8 + 4;
        assert_eq!(
            truncated_at(Response::decode(&counted(&zeros(7, before_attributes)))),
            "attributes"
        );
        // Refine: three counters, the exhaustive flag, six score bits.
        assert_eq!(
            truncated_at(Response::decode(&counted(&zeros(10, 3 * 8 + 1 + 6 * 8)))),
            "rules"
        );
    }

    /// Every counted shape's `MIN` is exact: `n` elements decode from
    /// `n × MIN` zero bytes (the smallest encoding is a valid one), and one
    /// byte less fails at the count itself, before any element is read
    /// or any capacity reserved.
    #[test]
    fn counts_are_bounded_by_the_exact_smallest_encoding() {
        fn check<T: Wire + fmt::Debug>(min: usize) {
            assert_eq!(T::MIN, min);
            let body = [5u32.to_be_bytes().to_vec(), vec![0; 5 * min]].concat();
            let mut r = Reader { buf: &body, pos: 0 };
            assert_eq!(r.get::<Vec<T>>("count").unwrap().len(), 5);
            r.finish().unwrap();
            let mut r = Reader { buf: &body[..body.len() - 1], pos: 0 };
            let short = r.get::<Vec<T>>("count");
            assert!(
                matches!(short, Err(ProtocolError::Truncated { context: "count" })),
                "{short:?}"
            );
            assert_eq!(r.pos, 4, "failed at the count, not inside an element");
        }
        check::<WireLabel>(9); // labels
        check::<(u64, Vec<Option<String>>)>(12); // upsert items
        check::<u64>(8); // ids, shard records
        check::<Vec<Option<String>>>(4); // probes
        check::<Option<String>>(1); // values
        check::<WireHit>(12);
        check::<WireScoredHit>(20);
        check::<WireQuery>(28); // batch answers
        check::<bool>(1); // replacement flags
        check::<String>(4); // attributes, rules
    }

    /// A reader that fails with `stall` before every byte it hands out
    /// (one per call) — a slow peer behind a socket with a read timeout —
    /// and sets `stop` once `stop_after` bytes are out.
    struct Stalling<'a> {
        data: &'a [u8],
        pos: usize,
        stalled: bool,
        stall: io::ErrorKind,
        stop: &'a AtomicBool,
        stop_after: usize,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.stop_after {
                self.stop.store(true, Ordering::Release);
            }
            self.stalled = !self.stalled;
            if self.stalled {
                return Err(self.stall.into());
            }
            let n = usize::from(self.pos < self.data.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn stop_flag_reader_keeps_reading_through_stalls_until_stopped() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"stalled").unwrap();
        let read = |stall: io::ErrorKind, stop_after: usize, flag: bool| {
            let stop = AtomicBool::new(false);
            let mut r =
                Stalling { data: &framed, pos: 0, stalled: false, stall, stop: &stop, stop_after };
            let frame = read_frame_until(&mut r, flag.then_some(&stop));
            (frame, r.pos)
        };
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        for stall in [TimedOut, WouldBlock, Interrupted] {
            // Flag clear: the frame reassembles.
            let (frame, pos) = read(stall, usize::MAX, true);
            assert_eq!(frame.unwrap().as_deref(), Some(&b"stalled"[..]), "{stall:?}");
            assert_eq!(pos, framed.len());
            // Flag set mid-prefix, then mid-body: the read ends there.
            for stop_after in [2, 4 + 3] {
                let (frame, pos) = read(stall, stop_after, true);
                assert!(matches!(frame, Ok(None)), "{stall:?} at {stop_after}: {frame:?}");
                assert_eq!(pos, stop_after);
            }
        }
        // Without a flag it is `read_frame`: `Interrupted` is retried, a
        // timeout is an I/O error.
        let (frame, _) = read(Interrupted, usize::MAX, false);
        assert_eq!(frame.unwrap().as_deref(), Some(&b"stalled"[..]));
        let (frame, _) = read(TimedOut, usize::MAX, false);
        assert!(matches!(frame, Err(ProtocolError::Io(e)) if e.kind() == TimedOut));
    }
}
