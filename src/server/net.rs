//! The TCP front: a thin `std::net` server loop over the [`wire`]
//! protocol, and [`MatchClient`], the matching blocking client.
//!
//! [`serve`] binds a [`std::net::TcpListener`] and runs an accept loop
//! on a background thread, handling each connection on its own worker
//! thread (capped — further connections queue in the OS backlog until a
//! worker frees up). Workers poll with short read timeouts so a
//! [`ServerHandle::shutdown`] stops the acceptor *and* every idle
//! worker promptly; in-flight requests finish first.
//!
//! The front owns no matching state: every request is decoded, applied
//! to the shared [`MatchServer`], and the answer encoded back. Service
//! failures (schema mismatch, unknown record, a rule set that fails to
//! compile) travel as [`Response::Error`] and leave the connection
//! usable, and so does an answer too large for one frame; protocol
//! failures (garbage bytes, oversized frames) answer with an error frame
//! and close the connection, whose framing state is unknown. Frames are
//! read by the wire's own frame reader, given the shutdown flag. A client
//! may idle between frames indefinitely, but one that stalls mid-frame
//! for longer than the wire's frame deadline (10 s) is answered an error
//! frame and dropped, freeing its worker.
//!
//! [`wire`]: crate::server::wire

use crate::server::core::MatchServer;
use crate::server::wire::{
    read_frame_until, read_response, write_request, write_response, ProtocolError, Request,
    Response, WireHit, WireQuery, WireRanked, WireRefinement, WireSchema, WireScoredHit, WireStats,
    FRAME_DEADLINE,
};
use crate::service::{QueryResponse, RankedResponse, Record, RecordId, ServiceError};
use matchrules_core::schema::Schema;
use matchrules_data::value::Value;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a worker blocks on a read before re-checking the shutdown
/// flag.
const POLL: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

/// A running TCP front over a [`MatchServer`], from [`serve`]. Dropping
/// the handle shuts the front down (the [`MatchServer`] itself is
/// untouched — it is shared state, not owned by the front).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the acceptor and every worker to stop, and joins them.
    /// In-flight requests finish; idle connections close within one
    /// poll interval.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves `server` over TCP on `addr` (`"127.0.0.1:0"` picks a free
/// port; read it back from [`ServerHandle::addr`]). The connection-
/// worker cap defaults to `max(4, 2 × server.threads())` — see
/// [`serve_with`] to pick it explicitly.
pub fn serve(server: Arc<MatchServer>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let cap = server.threads().saturating_mul(2).max(4);
    serve_with(server, addr, cap)
}

/// [`serve`] with an explicit cap on concurrently handled connections.
/// Further connections are accepted by the OS backlog and handled as
/// workers free up.
pub fn serve_with(
    server: Arc<MatchServer>,
    addr: impl ToSocketAddrs,
    max_connections: usize,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = stop.clone();
        let cap = max_connections.max(1);
        thread::spawn(move || accept_loop(listener, server, stop, cap))
    };
    Ok(ServerHandle { addr, stop, acceptor: Some(acceptor) })
}

fn accept_loop(listener: TcpListener, server: Arc<MatchServer>, stop: Arc<AtomicBool>, cap: usize) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if stop.load(Ordering::Acquire) {
            break; // the wake-up connection from shutdown
        }
        workers.retain(|w| !w.is_finished());
        while workers.len() >= cap && !stop.load(Ordering::Acquire) {
            thread::sleep(POLL);
            workers.retain(|w| !w.is_finished());
        }
        let server = server.clone();
        let stop = stop.clone();
        workers.push(thread::spawn(move || handle_connection(stream, &server, &stop)));
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// One connection's request loop: read a frame (polling so shutdown is
/// noticed), apply it, write the answer. Returns on clean client
/// close, on shutdown, or after answering a protocol error.
fn handle_connection(mut stream: TcpStream, server: &MatchServer, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    loop {
        let request = read_frame_until(&mut stream, Some(stop), FRAME_DEADLINE)
            .and_then(|body| body.map(|body| Request::decode(&body)).transpose());
        let request = match request {
            Ok(None) => return,
            Ok(Some(request)) => request,
            Err(e) => {
                // Framing state is unknown after a protocol error:
                // answer once, then close.
                let _ = write_response(&mut stream, &Response::Error { message: e.to_string() });
                return;
            }
        };
        let response = match apply(server, request) {
            Ok(response) => response,
            Err(e) => Response::Error { message: e.to_string() },
        };
        // An answer too large for one frame is refused before any byte
        // is written, so the framing is intact: answer the error instead
        // and keep the connection.
        let sent = match write_response(&mut stream, &response) {
            Err(e @ ProtocolError::Oversized { .. }) => {
                write_response(&mut stream, &Response::Error { message: e.to_string() })
            }
            sent => sent,
        };
        if sent.is_err() {
            return;
        }
    }
}

/// Applies one decoded request to the shared server.
fn apply(server: &MatchServer, request: Request) -> Result<Response, ServiceError> {
    match request {
        Request::Query { values } => {
            let probe = record_from(server.probe_schema(), values)?;
            Ok(Response::Query(query_to_wire(&server.query(&probe)?)))
        }
        Request::QueryBatch { probes } => {
            let schema = server.probe_schema();
            let records = probes
                .into_iter()
                .map(|values| record_from(schema.clone(), values))
                .collect::<Result<Vec<_>, _>>()?;
            let answers = server.query_batch(&records)?;
            Ok(Response::QueryBatch(answers.iter().map(query_to_wire).collect()))
        }
        Request::UpsertBatch { items } => {
            let schema = server.store_schema();
            let items = items
                .into_iter()
                .map(|(id, values)| Ok((RecordId(id), record_from(schema.clone(), values)?)))
                .collect::<Result<Vec<_>, ServiceError>>()?;
            let replaced = server.upsert_batch(&items)?;
            Ok(Response::UpsertBatch { replaced, version: server.version().number() })
        }
        Request::RemoveBatch { ids } => {
            let ids: Vec<RecordId> = ids.into_iter().map(RecordId).collect();
            server.remove_batch(&ids)?;
            Ok(Response::RemoveBatch { version: server.version().number() })
        }
        Request::Explain { values, id } => {
            let probe = record_from(server.probe_schema(), values)?;
            let explanation = server.explain(&probe, RecordId(id))?;
            Ok(Response::Explain {
                matched: explanation.matched,
                fired_key: explanation.fired_key.map(|k| k as u32),
                rendered: explanation.to_string(),
                version: explanation.version.number(),
            })
        }
        Request::SwapRules { md_text } => {
            Ok(Response::SwapRules { version: server.swap_rules(&md_text)?.number() })
        }
        Request::Stats => Ok(Response::Stats(stats_to_wire(server))),
        Request::QueryRanked { values, top_k, min_score_bits } => {
            let probe = record_from(server.probe_schema(), values)?;
            let response =
                server.query_ranked(&probe, top_k as usize, f64::from_bits(min_score_bits))?;
            Ok(Response::QueryRanked(ranked_to_wire(&response)))
        }
        Request::SubmitLabels { items } => {
            let probe_schema = server.probe_schema();
            let store_schema = server.store_schema();
            let pairs = items
                .into_iter()
                .map(|(left, right, is_match)| {
                    Ok((
                        record_from(probe_schema.clone(), left)?,
                        record_from(store_schema.clone(), right)?,
                        is_match,
                    ))
                })
                .collect::<Result<Vec<_>, ServiceError>>()?;
            let summary = server.submit_labels(&pairs)?;
            Ok(Response::SubmitLabels {
                added: summary.added as u64,
                total: summary.total as u64,
                positives: summary.positives as u64,
                negatives: summary.negatives as u64,
            })
        }
        Request::Refine { beta_bits } => {
            let (version, report) = server.refine(f64::from_bits(beta_bits))?;
            Ok(Response::Refine(WireRefinement {
                version: version.number(),
                pool_size: report.pool_size as u64,
                theta_variants: report.theta_variants_selected() as u64,
                exhaustive: report.exhaustive,
                before_precision_bits: report.before.precision().to_bits(),
                before_recall_bits: report.before.recall().to_bits(),
                before_f1_bits: report.before.f1().to_bits(),
                after_precision_bits: report.after.precision().to_bits(),
                after_recall_bits: report.after.recall().to_bits(),
                after_f1_bits: report.after.f1().to_bits(),
                rules: report.selected.iter().map(|r| r.rendered.clone()).collect(),
            }))
        }
    }
}

fn record_from(schema: Arc<Schema>, values: Vec<Option<String>>) -> Result<Record, ServiceError> {
    let values: Vec<Value> =
        values.into_iter().map(|v| v.map(Value::from).unwrap_or(Value::Null)).collect();
    Record::from_values(schema, values)
}

fn query_to_wire(response: &QueryResponse) -> WireQuery {
    WireQuery {
        hits: response.hits.iter().map(|h| WireHit { id: h.id.0, key: h.key as u32 }).collect(),
        candidates: response.candidates as u64,
        key_evals: response.key_evals as u64,
        version: response.version.number(),
    }
}

fn ranked_to_wire(response: &RankedResponse) -> WireRanked {
    WireRanked {
        hits: response
            .hits
            .iter()
            .map(|h| WireScoredHit { id: h.id.0, key: h.key as u32, score_bits: h.score.to_bits() })
            .collect(),
        candidates: response.candidates as u64,
        key_evals: response.key_evals as u64,
        version: response.version.number(),
    }
}

fn schema_to_wire(schema: &Schema) -> WireSchema {
    WireSchema {
        name: schema.name().to_owned(),
        attributes: schema.attributes().iter().map(|a| a.name().to_owned()).collect(),
    }
}

fn stats_to_wire(server: &MatchServer) -> WireStats {
    let stats = server.stats();
    WireStats {
        version: stats.version.number(),
        epoch: stats.epoch,
        shard_records: vec![stats.records as u64],
        queries: stats.queries,
        batch_queries: stats.batch_queries,
        upserts: stats.upserts,
        removes: stats.removes,
        key_anchors: stats.index.key_anchors,
        qgram_anchors: stats.index.qgram_anchors,
        element_anchors: stats.index.element_anchors,
        scan_keys: stats.index.scan_keys,
        store_schema: schema_to_wire(&server.store_schema()),
        probe_schema: schema_to_wire(&server.probe_schema()),
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// A client-side failure: a protocol error, a clean disconnect where an
/// answer was expected, a server-reported service failure, or a local
/// usage error.
#[derive(Debug)]
pub enum ClientError {
    /// The wire protocol failed (I/O included).
    Protocol(ProtocolError),
    /// The connection closed where a response was expected.
    Disconnected,
    /// The server answered [`Response::Error`].
    Server {
        /// The server's rendered error message.
        message: String,
    },
    /// The server answered with a response of the wrong kind.
    UnexpectedResponse {
        /// What the client was waiting for.
        expected: &'static str,
    },
    /// A field name matched no attribute of the schema learned from the
    /// server.
    UnknownField {
        /// The offending field name.
        field: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Server { message } => write!(f, "server error: {message}"),
            ClientError::UnexpectedResponse { expected } => {
                write!(f, "unexpected response (waiting for {expected})")
            }
            ClientError::UnknownField { field } => {
                write!(f, "field {field:?} names no schema attribute")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(e))
    }
}

/// A blocking client over one TCP connection. On connect it fetches
/// [`Response::Stats`] once to learn the server's schema pair, so
/// records and probes can be built by field name with no schema
/// knowledge compiled into the client.
#[derive(Debug)]
pub struct MatchClient {
    stream: TcpStream,
    store_schema: WireSchema,
    probe_schema: WireSchema,
}

/// One labeled pair on the client API: a probe-side record, a
/// store-side record (both as `(field, value)` pairs; unset fields are
/// null) and whether the two refer to the same entity.
pub type ClientLabel<'a> = (&'a [(&'a str, &'a str)], &'a [(&'a str, &'a str)], bool);

impl MatchClient {
    /// Connects and learns the schema pair from the server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<MatchClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = MatchClient {
            stream,
            store_schema: WireSchema { name: String::new(), attributes: Vec::new() },
            probe_schema: WireSchema { name: String::new(), attributes: Vec::new() },
        };
        let stats = client.stats()?;
        client.store_schema = stats.store_schema;
        client.probe_schema = stats.probe_schema;
        Ok(client)
    }

    /// The store-side schema learned at connect.
    pub fn store_schema(&self) -> &WireSchema {
        &self.store_schema
    }

    /// The probe-side schema learned at connect.
    pub fn probe_schema(&self) -> &WireSchema {
        &self.probe_schema
    }

    /// Sends any request and returns the server's answer — the typed
    /// escape hatch under the convenience methods. [`Response::Error`]
    /// is returned as-is here, not mapped to [`ClientError::Server`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.stream, request)?;
        match read_response(&mut self.stream)? {
            None => Err(ClientError::Disconnected),
            Some(response) => Ok(response),
        }
    }

    /// [`MatchClient::request`], with [`Response::Error`] mapped to
    /// [`ClientError::Server`].
    fn checked(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)? {
            Response::Error { message } => Err(ClientError::Server { message }),
            response => Ok(response),
        }
    }

    fn values_for(
        schema: &WireSchema,
        fields: &[(&str, &str)],
    ) -> Result<Vec<Option<String>>, ClientError> {
        let mut values: Vec<Option<String>> = vec![None; schema.attributes.len()];
        for &(name, value) in fields {
            let slot = schema
                .attributes
                .iter()
                .position(|a| a == name)
                .ok_or_else(|| ClientError::UnknownField { field: name.to_owned() })?;
            values[slot] = Some(value.to_owned());
        }
        Ok(values)
    }

    /// Matches one probe given as `(field, value)` pairs against the
    /// probe schema; unset fields are null.
    pub fn query(&mut self, fields: &[(&str, &str)]) -> Result<WireQuery, ClientError> {
        let values = Self::values_for(&self.probe_schema, fields)?;
        match self.checked(&Request::Query { values })? {
            Response::Query(q) => Ok(q),
            _ => Err(ClientError::UnexpectedResponse { expected: "a query answer" }),
        }
    }

    /// Matches one probe ranked: the boolean hit set scored by the
    /// server's compiled score model, sorted by confidence descending,
    /// filtered to `score >= min_score` and truncated to `top_k`.
    /// Scores travel bit-exact (`f64::to_bits`): decode with
    /// `f64::from_bits(hit.score_bits)`.
    pub fn query_ranked(
        &mut self,
        fields: &[(&str, &str)],
        top_k: u32,
        min_score: f64,
    ) -> Result<WireRanked, ClientError> {
        let values = Self::values_for(&self.probe_schema, fields)?;
        let request = Request::QueryRanked { values, top_k, min_score_bits: min_score.to_bits() };
        match self.checked(&request)? {
            Response::QueryRanked(q) => Ok(q),
            _ => Err(ClientError::UnexpectedResponse { expected: "a ranked answer" }),
        }
    }

    /// Inserts or replaces one record given as `(field, value)` pairs;
    /// returns whether a record was replaced.
    pub fn upsert(&mut self, id: u64, fields: &[(&str, &str)]) -> Result<bool, ClientError> {
        let values = Self::values_for(&self.store_schema, fields)?;
        match self.checked(&Request::UpsertBatch { items: vec![(id, values)] })? {
            Response::UpsertBatch { replaced, .. } => {
                Ok(replaced.first().copied().unwrap_or(false))
            }
            _ => Err(ClientError::UnexpectedResponse { expected: "an upsert answer" }),
        }
    }

    /// Removes records by id.
    pub fn remove(&mut self, ids: &[u64]) -> Result<(), ClientError> {
        match self.checked(&Request::RemoveBatch { ids: ids.to_vec() })? {
            Response::RemoveBatch { .. } => Ok(()),
            _ => Err(ClientError::UnexpectedResponse { expected: "a remove answer" }),
        }
    }

    /// Explains the decision for one (probe, stored id) pair; returns
    /// `(matched, rendered explanation)`.
    pub fn explain(
        &mut self,
        fields: &[(&str, &str)],
        id: u64,
    ) -> Result<(bool, String), ClientError> {
        let values = Self::values_for(&self.probe_schema, fields)?;
        match self.checked(&Request::Explain { values, id })? {
            Response::Explain { matched, rendered, .. } => Ok((matched, rendered)),
            _ => Err(ClientError::UnexpectedResponse { expected: "an explanation" }),
        }
    }

    /// Replaces the server's rule set; returns the bumped version.
    pub fn swap_rules(&mut self, md_text: &str) -> Result<u64, ClientError> {
        match self.checked(&Request::SwapRules { md_text: md_text.to_owned() })? {
            Response::SwapRules { version } => Ok(version),
            _ => Err(ClientError::UnexpectedResponse { expected: "a swap answer" }),
        }
    }

    /// Submits labeled pairs — each a probe-side record, a store-side
    /// record (both as `(field, value)` pairs; unset fields are null)
    /// and whether the two refer to the same entity. Returns
    /// `(added, total)` label counts. The labels accumulate server-side
    /// as the training set [`MatchClient::refine`] selects against.
    pub fn submit_labels(&mut self, labels: &[ClientLabel<'_>]) -> Result<(u64, u64), ClientError> {
        let items = labels
            .iter()
            .map(|&(left, right, is_match)| {
                Ok((
                    Self::values_for(&self.probe_schema, left)?,
                    Self::values_for(&self.store_schema, right)?,
                    is_match,
                ))
            })
            .collect::<Result<Vec<_>, ClientError>>()?;
        match self.checked(&Request::SubmitLabels { items })? {
            Response::SubmitLabels { added, total, .. } => Ok((added, total)),
            _ => Err(ClientError::UnexpectedResponse { expected: "a label summary" }),
        }
    }

    /// Runs the server's refinement loop over the labels submitted so
    /// far and hot-swaps the selected rules in; returns the
    /// [`WireRefinement`] report (decode the `*_bits` quality fields
    /// with `f64::from_bits`).
    pub fn refine(&mut self, beta: f64) -> Result<WireRefinement, ClientError> {
        match self.checked(&Request::Refine { beta_bits: beta.to_bits() })? {
            Response::Refine(report) => Ok(report),
            _ => Err(ClientError::UnexpectedResponse { expected: "a refinement report" }),
        }
    }

    /// Fetches server counters and schemas.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.checked(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            _ => Err(ClientError::UnexpectedResponse { expected: "server stats" }),
        }
    }
}
