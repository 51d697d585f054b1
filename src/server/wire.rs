//! The wire protocol: length-prefixed binary frames, std-only, with
//! typed errors.
//!
//! A frame is a big-endian `u32` byte length followed by that many body
//! bytes; the body is an opcode byte followed by the message fields.
//! Values (record fields) encode as a tag byte — `0` null, `1` string —
//! with strings as `u32` length + UTF-8 bytes. Counts are `u32`, ids and
//! counters `u64`. There is no self-description and no schema on the
//! wire: probes and records are positional value vectors against the
//! schemas the client learns from [`Response::Stats`].
//!
//! Decoding is **total**: any byte sequence either decodes to a message
//! or fails with a typed [`ProtocolError`] — truncated input, an unknown
//! tag, an oversized frame and trailing garbage are all errors, never
//! panics, and a frame longer than [`MAX_FRAME`] is rejected *before*
//! any allocation. [`read_frame`] distinguishes a clean end-of-stream
//! (`Ok(None)`) from a connection dying mid-frame
//! ([`ProtocolError::Truncated`]).

use std::fmt;
use std::io::{self, Read, Write};

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

/// One query hit on the wire: the matched id and the index of the RCK
/// that fired (into the plan's key list — the fired-RCK provenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHit {
    /// Id of the matched record.
    pub id: u64,
    /// Index of the first RCK that accepted the pair.
    pub key: u32,
}

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

/// One schema on the wire: its name and attribute names in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSchema {
    /// The schema name.
    pub name: String,
    /// Attribute names, in positional order.
    pub attributes: Vec<String>,
}

/// Server counters and schemas on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// The rule version currently serving.
    pub version: u64,
    /// The publish epoch (bumps on every mutation and swap).
    pub epoch: u64,
    /// Live records per shard.
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

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Option<String>) {
    match v {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_values(out: &mut Vec<u8>, values: &[Option<String>]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_value(out, v);
    }
}

fn put_schema(out: &mut Vec<u8>, s: &WireSchema) {
    put_str(out, &s.name);
    put_u32(out, s.attributes.len() as u32);
    for a in &s.attributes {
        put_str(out, a);
    }
}

fn put_wire_query(out: &mut Vec<u8>, q: &WireQuery) {
    put_u32(out, q.hits.len() as u32);
    for h in &q.hits {
        put_u64(out, h.id);
        put_u32(out, h.key);
    }
    put_u64(out, q.candidates);
    put_u64(out, q.key_evals);
    put_u64(out, q.version);
}

fn put_wire_ranked(out: &mut Vec<u8>, q: &WireRanked) {
    put_u32(out, q.hits.len() as u32);
    for h in &q.hits {
        put_u64(out, h.id);
        put_u32(out, h.key);
        put_u64(out, h.score_bits);
    }
    put_u64(out, q.candidates);
    put_u64(out, q.key_evals);
    put_u64(out, q.version);
}

impl Request {
    /// Encodes the message body (opcode + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query { values } => {
                out.push(1);
                put_values(&mut out, values);
            }
            Request::QueryBatch { probes } => {
                out.push(2);
                put_u32(&mut out, probes.len() as u32);
                for p in probes {
                    put_values(&mut out, p);
                }
            }
            Request::UpsertBatch { items } => {
                out.push(3);
                put_u32(&mut out, items.len() as u32);
                for (id, values) in items {
                    put_u64(&mut out, *id);
                    put_values(&mut out, values);
                }
            }
            Request::RemoveBatch { ids } => {
                out.push(4);
                put_u32(&mut out, ids.len() as u32);
                for id in ids {
                    put_u64(&mut out, *id);
                }
            }
            Request::Explain { values, id } => {
                out.push(5);
                put_values(&mut out, values);
                put_u64(&mut out, *id);
            }
            Request::SwapRules { md_text } => {
                out.push(6);
                put_str(&mut out, md_text);
            }
            Request::Stats => out.push(7),
            Request::QueryRanked { values, top_k, min_score_bits } => {
                out.push(8);
                put_values(&mut out, values);
                put_u32(&mut out, *top_k);
                put_u64(&mut out, *min_score_bits);
            }
            Request::SubmitLabels { items } => {
                out.push(9);
                put_u32(&mut out, items.len() as u32);
                for (left, right, is_match) in items {
                    put_values(&mut out, left);
                    put_values(&mut out, right);
                    out.push(*is_match as u8);
                }
            }
            Request::Refine { beta_bits } => {
                out.push(10);
                put_u64(&mut out, *beta_bits);
            }
        }
        out
    }

    /// Decodes one message from a complete frame body; every byte must
    /// be consumed.
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        let mut r = Reader { buf: body, pos: 0 };
        let request = match r.u8("request opcode")? {
            1 => Request::Query { values: r.values()? },
            2 => {
                let n = r.count("probe count", U32)?;
                let mut probes = Vec::with_capacity(n);
                for _ in 0..n {
                    probes.push(r.values()?);
                }
                Request::QueryBatch { probes }
            }
            3 => {
                let n = r.count("item count", U64 + U32)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = r.u64("record id")?;
                    items.push((id, r.values()?));
                }
                Request::UpsertBatch { items }
            }
            4 => {
                let n = r.count("id count", U64)?;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.u64("record id")?);
                }
                Request::RemoveBatch { ids }
            }
            5 => {
                let values = r.values()?;
                Request::Explain { values, id: r.u64("record id")? }
            }
            6 => Request::SwapRules { md_text: r.string("md text")? },
            7 => Request::Stats,
            8 => {
                let values = r.values()?;
                let top_k = r.u32("top-k")?;
                Request::QueryRanked { values, top_k, min_score_bits: r.u64("min-score bits")? }
            }
            9 => {
                let n = r.count("label count", U32 + U32 + 1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let left = r.values()?;
                    let right = r.values()?;
                    items.push((left, right, r.bool("label polarity")?));
                }
                Request::SubmitLabels { items }
            }
            10 => Request::Refine { beta_bits: r.u64("beta bits")? },
            tag => return Err(ProtocolError::UnknownTag { context: "request opcode", tag }),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the message body (opcode + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Query(q) => {
                out.push(1);
                put_wire_query(&mut out, q);
            }
            Response::QueryBatch(qs) => {
                out.push(2);
                put_u32(&mut out, qs.len() as u32);
                for q in qs {
                    put_wire_query(&mut out, q);
                }
            }
            Response::UpsertBatch { replaced, version } => {
                out.push(3);
                put_u32(&mut out, replaced.len() as u32);
                for &b in replaced {
                    out.push(b as u8);
                }
                put_u64(&mut out, *version);
            }
            Response::RemoveBatch { version } => {
                out.push(4);
                put_u64(&mut out, *version);
            }
            Response::Explain { matched, fired_key, rendered, version } => {
                out.push(5);
                out.push(*matched as u8);
                match fired_key {
                    None => out.push(0),
                    Some(k) => {
                        out.push(1);
                        put_u32(&mut out, *k);
                    }
                }
                put_str(&mut out, rendered);
                put_u64(&mut out, *version);
            }
            Response::SwapRules { version } => {
                out.push(6);
                put_u64(&mut out, *version);
            }
            Response::Stats(s) => {
                out.push(7);
                put_u64(&mut out, s.version);
                put_u64(&mut out, s.epoch);
                put_u32(&mut out, s.shard_records.len() as u32);
                for &n in &s.shard_records {
                    put_u64(&mut out, n);
                }
                put_u64(&mut out, s.queries);
                put_u64(&mut out, s.batch_queries);
                put_u64(&mut out, s.upserts);
                put_u64(&mut out, s.removes);
                put_u64(&mut out, s.key_anchors);
                put_u64(&mut out, s.qgram_anchors);
                put_u64(&mut out, s.element_anchors);
                put_u64(&mut out, s.scan_keys);
                put_schema(&mut out, &s.store_schema);
                put_schema(&mut out, &s.probe_schema);
            }
            Response::QueryRanked(q) => {
                out.push(8);
                put_wire_ranked(&mut out, q);
            }
            Response::SubmitLabels { added, total, positives, negatives } => {
                out.push(9);
                put_u64(&mut out, *added);
                put_u64(&mut out, *total);
                put_u64(&mut out, *positives);
                put_u64(&mut out, *negatives);
            }
            Response::Refine(rf) => {
                out.push(10);
                put_u64(&mut out, rf.version);
                put_u64(&mut out, rf.pool_size);
                put_u64(&mut out, rf.theta_variants);
                out.push(rf.exhaustive as u8);
                put_u64(&mut out, rf.before_precision_bits);
                put_u64(&mut out, rf.before_recall_bits);
                put_u64(&mut out, rf.before_f1_bits);
                put_u64(&mut out, rf.after_precision_bits);
                put_u64(&mut out, rf.after_recall_bits);
                put_u64(&mut out, rf.after_f1_bits);
                put_u32(&mut out, rf.rules.len() as u32);
                for rule in &rf.rules {
                    put_str(&mut out, rule);
                }
            }
            Response::Error { message } => {
                out.push(255);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decodes one message from a complete frame body; every byte must
    /// be consumed.
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = Reader { buf: body, pos: 0 };
        let response = match r.u8("response opcode")? {
            1 => Response::Query(r.wire_query()?),
            2 => {
                let n = r.count("answer count", U32 + 3 * U64)?;
                let mut qs = Vec::with_capacity(n);
                for _ in 0..n {
                    qs.push(r.wire_query()?);
                }
                Response::QueryBatch(qs)
            }
            3 => {
                let n = r.count("flag count", 1)?;
                let mut replaced = Vec::with_capacity(n);
                for _ in 0..n {
                    replaced.push(r.bool("replacement flag")?);
                }
                Response::UpsertBatch { replaced, version: r.u64("rule version")? }
            }
            4 => Response::RemoveBatch { version: r.u64("rule version")? },
            5 => {
                let matched = r.bool("matched flag")?;
                let fired_key = match r.u8("fired-key tag")? {
                    0 => None,
                    1 => Some(r.u32("fired key")?),
                    tag => return Err(ProtocolError::UnknownTag { context: "fired-key tag", tag }),
                };
                let rendered = r.string("rendered explanation")?;
                Response::Explain { matched, fired_key, rendered, version: r.u64("rule version")? }
            }
            6 => Response::SwapRules { version: r.u64("rule version")? },
            7 => {
                let version = r.u64("rule version")?;
                let epoch = r.u64("epoch")?;
                let n = r.count("shard count", U64)?;
                let mut shard_records = Vec::with_capacity(n);
                for _ in 0..n {
                    shard_records.push(r.u64("shard record count")?);
                }
                Response::Stats(WireStats {
                    version,
                    epoch,
                    shard_records,
                    queries: r.u64("query counter")?,
                    batch_queries: r.u64("batch query counter")?,
                    upserts: r.u64("upsert counter")?,
                    removes: r.u64("remove counter")?,
                    key_anchors: r.u64("key anchors")?,
                    qgram_anchors: r.u64("qgram anchors")?,
                    element_anchors: r.u64("element anchors")?,
                    scan_keys: r.u64("scan keys")?,
                    store_schema: r.schema()?,
                    probe_schema: r.schema()?,
                })
            }
            8 => Response::QueryRanked(r.wire_ranked()?),
            9 => Response::SubmitLabels {
                added: r.u64("added counter")?,
                total: r.u64("label total")?,
                positives: r.u64("positive count")?,
                negatives: r.u64("negative count")?,
            },
            10 => {
                let version = r.u64("rule version")?;
                let pool_size = r.u64("pool size")?;
                let theta_variants = r.u64("theta variant count")?;
                let exhaustive = r.bool("exhaustive flag")?;
                let before_precision_bits = r.u64("before precision bits")?;
                let before_recall_bits = r.u64("before recall bits")?;
                let before_f1_bits = r.u64("before f1 bits")?;
                let after_precision_bits = r.u64("after precision bits")?;
                let after_recall_bits = r.u64("after recall bits")?;
                let after_f1_bits = r.u64("after f1 bits")?;
                let n = r.count("rule count", U32)?;
                let mut rules = Vec::with_capacity(n);
                for _ in 0..n {
                    rules.push(r.string("rendered rule")?);
                }
                Response::Refine(WireRefinement {
                    version,
                    pool_size,
                    theta_variants,
                    exhaustive,
                    before_precision_bits,
                    before_recall_bits,
                    before_f1_bits,
                    after_precision_bits,
                    after_recall_bits,
                    after_f1_bits,
                    rules,
                })
            }
            255 => Response::Error { message: r.string("error message")? },
            tag => return Err(ProtocolError::UnknownTag { context: "response opcode", tag }),
        };
        r.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Encoded widths of the fixed-size fields, from which the minimum
/// element sizes handed to [`Reader::count`] are summed. A string or a
/// value vector is at least its `u32` length prefix, a value at least its
/// tag byte.
const U32: usize = 4;
const U64: usize = 8;

/// A bounds-checked cursor over a frame body. Every read either
/// advances or fails with a typed error naming the field.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, context)?[0])
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, ProtocolError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtocolError::UnknownTag { context, tag }),
        }
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_be_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    /// An element count, bounded by the remaining bytes: `n` elements of
    /// at least `min_size` encoded bytes each must fit in what is left.
    /// The bound is what keeps `Vec::with_capacity(n)` safe — an element
    /// in memory can be several times its smallest encoding, so a count
    /// checked against one byte per element would let one frame reserve
    /// gigabytes.
    fn count(&mut self, context: &'static str, min_size: usize) -> Result<usize, ProtocolError> {
        let n = self.u32(context)? as usize;
        if n.saturating_mul(min_size) > self.buf.len() - self.pos {
            return Err(ProtocolError::Truncated { context });
        }
        Ok(n)
    }

    fn string(&mut self, context: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::InvalidUtf8 { context })
    }

    fn value(&mut self) -> Result<Option<String>, ProtocolError> {
        match self.u8("value tag")? {
            0 => Ok(None),
            1 => Ok(Some(self.string("value string")?)),
            tag => Err(ProtocolError::UnknownTag { context: "value tag", tag }),
        }
    }

    fn values(&mut self) -> Result<Vec<Option<String>>, ProtocolError> {
        let n = self.count("value count", 1)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(values)
    }

    fn schema(&mut self) -> Result<WireSchema, ProtocolError> {
        let name = self.string("schema name")?;
        let n = self.count("attribute count", U32)?;
        let mut attributes = Vec::with_capacity(n);
        for _ in 0..n {
            attributes.push(self.string("attribute name")?);
        }
        Ok(WireSchema { name, attributes })
    }

    fn wire_query(&mut self) -> Result<WireQuery, ProtocolError> {
        let n = self.count("hit count", U64 + U32)?;
        let mut hits = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.u64("hit id")?;
            hits.push(WireHit { id, key: self.u32("hit key")? });
        }
        Ok(WireQuery {
            hits,
            candidates: self.u64("candidate counter")?,
            key_evals: self.u64("key-eval counter")?,
            version: self.u64("rule version")?,
        })
    }

    fn wire_ranked(&mut self) -> Result<WireRanked, ProtocolError> {
        let n = self.count("hit count", U64 + U32 + U64)?;
        let mut hits = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.u64("hit id")?;
            let key = self.u32("hit key")?;
            hits.push(WireScoredHit { id, key, score_bits: self.u64("hit score bits")? });
        }
        Ok(WireRanked {
            hits,
            candidates: self.u64("candidate counter")?,
            key_evals: self.u64("key-eval counter")?,
            version: self.u64("rule version")?,
        })
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes { extra: self.buf.len() - self.pos })
        }
    }
}

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

/// Reads until `buf` is full or the stream ends; returns the bytes
/// read. `Interrupted` is retried, any other I/O error propagates.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    Ok(filled)
}

/// Reads one frame body. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); a stream ending mid-prefix or mid-body is
/// [`ProtocolError::Truncated`], and a prefix announcing more than
/// [`MAX_FRAME`] bytes is rejected before any allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut prefix = [0u8; 4];
    match read_full(r, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(ProtocolError::Truncated { context: "frame length prefix" }),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized { len: len as u64 });
    }
    let mut body = vec![0u8; len];
    if read_full(r, &mut body)? != len {
        return Err(ProtocolError::Truncated { context: "frame body" });
    }
    Ok(Some(body))
}

/// Writes one request as a frame.
pub fn write_request(w: &mut impl Write, request: &Request) -> Result<(), ProtocolError> {
    write_frame(w, &request.encode())
}

/// Reads one request; `Ok(None)` on clean end-of-stream.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ProtocolError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Request::decode(&body).map(Some),
    }
}

/// Writes one response as a frame.
pub fn write_response(w: &mut impl Write, response: &Response) -> Result<(), ProtocolError> {
    write_frame(w, &response.encode())
}

/// Reads one response; `Ok(None)` on clean end-of-stream.
pub fn read_response(r: &mut impl Read) -> Result<Option<Response>, ProtocolError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Response::decode(&body).map(Some),
    }
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

    #[test]
    fn request_round_trips() {
        let requests = vec![
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
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn response_round_trips() {
        let responses = vec![
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
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

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
        // fit, the element's smallest encoding does not. Every counted
        // shape must fail at its count, before reserving capacity for it.
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
        assert_eq!(truncated_at(Request::decode(&counted(&[9]))), "label count");
        assert_eq!(truncated_at(Request::decode(&counted(&[2]))), "probe count");
        assert_eq!(truncated_at(Request::decode(&counted(&[3]))), "item count");
        assert_eq!(truncated_at(Request::decode(&counted(&[4]))), "id count");
        assert_eq!(truncated_at(Response::decode(&counted(&[1]))), "hit count");
        assert_eq!(truncated_at(Response::decode(&counted(&[8]))), "hit count");
        assert_eq!(truncated_at(Response::decode(&counted(&[2]))), "answer count");
        // Stats: version and epoch, then the shard count; with no shards,
        // eight counters and an empty schema name precede the attributes.
        assert_eq!(truncated_at(Response::decode(&counted(&zeros(7, 16)))), "shard count");
        let before_attributes = 16 + 4 + 8 * 8 + 4;
        assert_eq!(
            truncated_at(Response::decode(&counted(&zeros(7, before_attributes)))),
            "attribute count"
        );
        // Refine: three counters, the exhaustive flag, six score bits.
        assert_eq!(
            truncated_at(Response::decode(&counted(&zeros(10, 3 * 8 + 1 + 6 * 8)))),
            "rule count"
        );
    }
}
