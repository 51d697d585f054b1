//! Wire-protocol properties (proptest over seeded generators):
//!
//! * every `Request` / `Response` round-trips `decode(encode(x)) == x`,
//!   framed and unframed;
//! * decoding is **total**: every strict prefix of a valid body, every
//!   truncated frame, and arbitrary garbage produce a typed
//!   [`ProtocolError`] — never a panic, never an allocation driven by a
//!   hostile count;
//! * oversized frames are rejected on both sides before allocation;
//! * framing survives an `io::Read` that delivers 1, 2 or 8 bytes per
//!   call (split reads across the length prefix and the body).

use matchrules::server::wire::{
    read_frame, read_request, read_response, write_frame, write_request, write_response,
    ProtocolError, Request, Response, WireHit, WireQuery, WireRanked, WireRefinement, WireSchema,
    WireScoredHit, WireStats, MAX_FRAME,
};
use proptest::prelude::*;
use std::io::Read;

// ---------------------------------------------------------------------
// Seeded message generator (splitmix64 — deterministic per seed)
// ---------------------------------------------------------------------

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Strings mix ASCII, multi-byte UTF-8 and the empty string so the
    /// length-prefixed encoding is exercised on byte length != char
    /// count.
    fn string(&mut self) -> String {
        const PALETTE: &[&str] =
            &["", "a", "Z9", "é", "µ-unit", "名前", "O'Hara \"quoted\"", "\n\t"];
        let mut s = String::new();
        for _ in 0..self.below(4) {
            s.push_str(PALETTE[self.below(PALETTE.len() as u64) as usize]);
        }
        s
    }

    fn value(&mut self) -> Option<String> {
        if self.below(4) == 0 {
            None
        } else {
            Some(self.string())
        }
    }

    fn values(&mut self) -> Vec<Option<String>> {
        (0..self.below(5)).map(|_| self.value()).collect()
    }

    fn request(&mut self) -> Request {
        match self.below(10) {
            0 => Request::Query { values: self.values() },
            1 => {
                Request::QueryBatch { probes: (0..self.below(4)).map(|_| self.values()).collect() }
            }
            2 => Request::UpsertBatch {
                items: (0..self.below(4)).map(|_| (self.next(), self.values())).collect(),
            },
            3 => Request::RemoveBatch { ids: (0..self.below(6)).map(|_| self.next()).collect() },
            4 => Request::Explain { values: self.values(), id: self.next() },
            5 => Request::SwapRules { md_text: self.string() },
            6 => Request::QueryRanked {
                values: self.values(),
                top_k: self.next() as u32,
                min_score_bits: self.next(),
            },
            7 => Request::SubmitLabels {
                items: (0..self.below(4))
                    .map(|_| (self.values(), self.values(), self.below(2) == 1))
                    .collect(),
            },
            8 => Request::Refine { beta_bits: self.next() },
            _ => Request::Stats,
        }
    }

    fn wire_ranked(&mut self) -> WireRanked {
        WireRanked {
            hits: (0..self.below(4))
                .map(|_| WireScoredHit {
                    id: self.next(),
                    key: self.next() as u32,
                    score_bits: self.next(),
                })
                .collect(),
            candidates: self.next(),
            key_evals: self.next(),
            version: self.next(),
        }
    }

    fn wire_query(&mut self) -> WireQuery {
        WireQuery {
            hits: (0..self.below(4))
                .map(|_| WireHit { id: self.next(), key: self.next() as u32 })
                .collect(),
            candidates: self.next(),
            key_evals: self.next(),
            version: self.next(),
        }
    }

    fn schema(&mut self) -> WireSchema {
        WireSchema {
            name: self.string(),
            attributes: (0..self.below(5)).map(|_| self.string()).collect(),
        }
    }

    fn response(&mut self) -> Response {
        match self.below(11) {
            0 => Response::Query(self.wire_query()),
            1 => Response::QueryBatch((0..self.below(3)).map(|_| self.wire_query()).collect()),
            2 => Response::UpsertBatch {
                replaced: (0..self.below(6)).map(|_| self.below(2) == 1).collect(),
                version: self.next(),
            },
            3 => Response::RemoveBatch { version: self.next() },
            4 => Response::Explain {
                matched: self.below(2) == 1,
                fired_key: if self.below(2) == 1 { Some(self.next() as u32) } else { None },
                rendered: self.string(),
                version: self.next(),
            },
            5 => Response::SwapRules { version: self.next() },
            6 => Response::Stats(WireStats {
                version: self.next(),
                epoch: self.next(),
                shard_records: (0..self.below(5)).map(|_| self.next()).collect(),
                queries: self.next(),
                batch_queries: self.next(),
                upserts: self.next(),
                removes: self.next(),
                cache_hits: self.next(),
                cache_misses: self.next(),
                cache_invalidations: self.next(),
                key_anchors: self.next(),
                qgram_anchors: self.next(),
                element_anchors: self.next(),
                scan_keys: self.next(),
                store_schema: self.schema(),
                probe_schema: self.schema(),
            }),
            7 => Response::QueryRanked(self.wire_ranked()),
            8 => Response::SubmitLabels {
                added: self.next(),
                total: self.next(),
                positives: self.next(),
                negatives: self.next(),
            },
            9 => Response::Refine(WireRefinement {
                version: self.next(),
                pool_size: self.next(),
                theta_variants: self.next(),
                exhaustive: self.below(2) == 1,
                before_precision_bits: self.next(),
                before_recall_bits: self.next(),
                before_f1_bits: self.next(),
                after_precision_bits: self.next(),
                after_recall_bits: self.next(),
                after_f1_bits: self.next(),
                rules: (0..self.below(4)).map(|_| self.string()).collect(),
            }),
            _ => Response::Error { message: self.string() },
        }
    }
}

/// An `io::Read` that hands out at most `chunk` bytes per call — the
/// small-packet / slow-peer case for the framing layer.
struct Dribble<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bodies and frames round-trip for every request shape.
    #[test]
    fn requests_round_trip(seed in any::<u64>()) {
        let request = Gen(seed).request();
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request.clone());
        let mut framed = Vec::new();
        write_request(&mut framed, &request).unwrap();
        let mut cursor = framed.as_slice();
        prop_assert_eq!(read_request(&mut cursor).unwrap(), Some(request));
        prop_assert_eq!(read_request(&mut cursor).unwrap(), None, "clean EOF after the frame");
    }

    /// Bodies and frames round-trip for every response shape.
    #[test]
    fn responses_round_trip(seed in any::<u64>()) {
        let response = Gen(seed).response();
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response.clone());
        let mut framed = Vec::new();
        write_response(&mut framed, &response).unwrap();
        let mut cursor = framed.as_slice();
        prop_assert_eq!(read_response(&mut cursor).unwrap(), Some(response));
    }

    /// Every strict prefix of a valid body is a typed error: the
    /// decoder can never mistake a cut-off message for a complete one,
    /// and never panics on one.
    #[test]
    fn strict_prefixes_are_typed_errors(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let request_body = gen.request().encode();
        for cut in 0..request_body.len() {
            prop_assert!(
                Request::decode(&request_body[..cut]).is_err(),
                "request prefix of {cut}/{} bytes decoded", request_body.len()
            );
        }
        let response_body = gen.response().encode();
        for cut in 0..response_body.len() {
            prop_assert!(
                Response::decode(&response_body[..cut]).is_err(),
                "response prefix of {cut}/{} bytes decoded", response_body.len()
            );
        }
    }

    /// A frame cut anywhere — inside the length prefix or the body —
    /// reads back as `Truncated`, and appending garbage to a valid body
    /// is `TrailingBytes`.
    #[test]
    fn truncated_frames_and_trailing_bytes_are_typed(seed in any::<u64>()) {
        let request = Gen(seed).request();
        let mut framed = Vec::new();
        write_request(&mut framed, &request).unwrap();
        for cut in 1..framed.len() {
            match read_frame(&mut &framed[..cut]) {
                Err(ProtocolError::Truncated { .. }) => {}
                other => prop_assert!(false, "cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        let mut padded = request.encode();
        padded.push(0);
        match Request::decode(&padded) {
            Err(ProtocolError::TrailingBytes { extra: 1 }) => {}
            other => prop_assert!(false, "expected TrailingBytes, got {other:?}"),
        }
    }

    /// Arbitrary garbage never panics the decoders — every outcome is
    /// `Ok` or a typed error, even for hostile length fields.
    #[test]
    fn garbage_never_panics(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let len = gen.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| gen.next() as u8).collect();
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// Frames reassemble exactly through reads of 1, 2 and 8 bytes per
    /// call, for a whole pipelined sequence of messages.
    #[test]
    fn split_reads_reassemble_frames(seed in any::<u64>()) {
        let mut gen = Gen(seed);
        let messages: Vec<Request> = (0..3).map(|_| gen.request()).collect();
        let mut stream = Vec::new();
        for message in &messages {
            write_request(&mut stream, message).unwrap();
        }
        for chunk in [1usize, 2, 8] {
            let mut reader = Dribble { data: &stream, pos: 0, chunk };
            for message in &messages {
                let got = read_request(&mut reader).unwrap();
                prop_assert_eq!(got.as_ref(), Some(message));
            }
            prop_assert_eq!(read_request(&mut reader).unwrap(), None);
        }
    }
}

/// Oversized frames are refused before any allocation, on both the
/// read and the write side.
#[test]
fn oversized_frames_are_rejected() {
    let mut prefix = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
    prefix.extend_from_slice(&[0u8; 8]);
    match read_frame(&mut prefix.as_slice()) {
        Err(ProtocolError::Oversized { len }) => assert_eq!(len, (MAX_FRAME + 1) as u64),
        other => panic!("expected Oversized, got {other:?}"),
    }
    let huge = vec![0u8; MAX_FRAME + 1];
    assert!(matches!(write_frame(&mut Vec::new(), &huge), Err(ProtocolError::Oversized { .. })));
}
