//! The source-server wire protocol: length-prefixed binary frames over a
//! byte stream.
//!
//! Deliberately tiny — one request shape, one response shape, one
//! decoder and one encoder for each — so the whole codec is auditable and
//! the robustness surface (truncated frames, garbage bytes, oversized
//! lengths) is small enough to test exhaustively.
//! Connections are persistent: a peer may send any number of request
//! frames on one stream, each answered by one response frame, in order.
//!
//! ## Framing
//!
//! Every message is one *frame*: a `u32` big-endian payload length
//! followed by that many payload bytes. Readers enforce
//! [`MAX_FRAME_BYTES`] before allocating, so a hostile or corrupt length
//! prefix cannot balloon memory. Writers hand the transport prefix and
//! payload in *one* write: on a kept-alive socket a separate small
//! prefix write followed by the payload is the write-write-read shape
//! that Nagle's algorithm and delayed ACKs stall for tens of
//! milliseconds.
//!
//! ## Payloads
//!
//! Request (`op` byte then fields):
//!
//! ```text
//! [u8 op = 1] [u16 len][source name bytes] [u16 len][binding pattern bytes]
//! ```
//!
//! The binding pattern is the canonical text of [`crate::pattern`]:
//! `"scan"` asks for the whole relation, `bind;0=s4:ford` for the rows
//! whose column 0 is `ford`. The contract is superset-safe — a server
//! must return every matching row and may return more — so a server
//! that ignores the field is still correct.
//!
//! Response (`status` byte, then the server's data epoch, then fields):
//!
//! ```text
//! [u8 0 = OK]             [u64 epoch] [u32 row count] rows…
//! [u8 1 = UNKNOWN_SOURCE] [u64 epoch] [u16 len][message bytes]  (permanent)
//! [u8 2 = ERROR]          [u64 epoch] [u16 len][message bytes]  (transient)
//! ```
//!
//! The epoch is the server's monotone data-version counter
//! ([`crate::net::RelationProvider::epoch`]): it rides on *every*
//! response so a [`crate::net::TcpBackend`] can surface it through
//! [`crate::backend::SourceBackend::epoch`] and the source memo can
//! invalidate outcomes cached against a world the server no longer
//! serves — no manual version bookkeeping on the client.
//!
//! A row is `[u16 arity]` followed by tagged constants: tag `0` is a
//! big-endian `i64`, tag `1` is a `u16`-length-prefixed UTF-8 string.
//!
//! ## Extension blocks
//!
//! A message body may be followed by optional, order-independent blocks,
//! `[u8 tag][u16 len][len bytes]` each. Two are defined: a request's
//! [`TraceContext`] (tag [`EXT_TRACE_CONTEXT`]; this tree's client always
//! sends one) and a response's [`ServerSpan`] (tag [`EXT_SERVER_SPAN`];
//! the server appends one exactly when the request carried a context).
//! Both are optional on input: a message without its block decodes to
//! `None`. Of several blocks with one tag the first wins, a block with
//! an unknown tag is skipped — so the protocol can grow without
//! re-framing — and bytes after the body that do not make up whole
//! blocks are [`WireError::Truncated`]. Decoders reject unknown constant
//! tags and truncated fields, so every byte of a frame is accounted for.

use qpo_datalog::{Constant, Tuple};
use std::fmt;
use std::io::{IoSlice, Read, Write};

/// Hard ceiling on a frame's payload size. A length prefix above this is
/// rejected before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Protocol opcode for a source-access request (a scan or a bound
/// access — the request's binding pattern says which).
pub const OP_SCAN: u8 = 1;

/// Protocol opcode for a server-journal dump request. The payload is the
/// single opcode byte; the response is one raw UTF-8 text frame (not a
/// [`Response`]) rendering the server's bounded span journal.
pub const OP_TRACE: u8 = 2;

/// Extension tag for a request's [`TraceContext`] block.
pub const EXT_TRACE_CONTEXT: u8 = 0x10;

/// Extension tag for a response's [`ServerSpan`] block.
pub const EXT_SERVER_SPAN: u8 = 0x11;

/// What went wrong decoding a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field was complete.
    Truncated,
    /// A declared length exceeds the protocol ceiling.
    Oversized(usize),
    /// An unknown constant tag.
    BadTag(u8),
    /// An unknown request opcode.
    BadOp(u8),
    /// An unknown response status byte.
    BadStatus(u8),
    /// A string field was not valid UTF-8.
    Utf8,
    /// The payload had bytes left over after the message was complete.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated mid-field"),
            WireError::Oversized(n) => write!(f, "declared length {n} exceeds protocol ceiling"),
            WireError::BadTag(t) => write!(f, "unknown constant tag {t}"),
            WireError::BadOp(op) => write!(f, "unknown request opcode {op}"),
            WireError::BadStatus(s) => write!(f, "unknown response status {s}"),
            WireError::Utf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// A source-access request: the rows of `source` matching `pattern`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Catalog name of the source relation.
    pub source: String,
    /// Binding pattern, in the canonical text of [`crate::pattern`].
    pub pattern: String,
}

/// A source-access response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The source answered with its tuples.
    Rows(Vec<Tuple>),
    /// The server does not host that source — a permanent failure.
    UnknownSource(String),
    /// The server failed transiently (e.g. mid-restart); retry.
    Error(String),
}

/// Client trace context propagated on a request as an optional trailing
/// extension block (tag [`EXT_TRACE_CONTEXT`]): which run, plan, and
/// attempt this access serves. Servers echo it into their own journal and
/// — only when it is present — attach a [`ServerSpan`] to the response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-process run identifier (not journalled; disambiguates
    /// concurrent runs in the *server's* journal only).
    pub run: u64,
    /// Emission sequence number of the plan the access serves.
    pub plan_seq: u64,
    /// Catalog name of the source being accessed.
    pub source: String,
    /// 1-based attempt number within the access retry chain.
    pub attempt: u32,
}

/// Server-side span block riding a response as an optional trailing
/// extension (tag [`EXT_SERVER_SPAN`]): how the server spent its wall
/// time on this request, plus its monotone request counter. All phase
/// durations are wall-clock seconds encoded as `f64::to_bits` big-endian;
/// the server clamps `total ≥ recv_parse + lookup + encode` at
/// construction so decoded blocks always attribute soundly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpan {
    /// Frame receive + request parse time (seconds).
    pub recv_parse: f64,
    /// Provider lookup time: store index probe or mem scan (seconds).
    pub lookup: f64,
    /// Row encode time (seconds).
    pub encode: f64,
    /// Total server residence time, `≥` the phase sum (seconds).
    pub total: f64,
    /// The server's monotone request counter at this request.
    pub request_seq: u64,
}

/// Bounds-checked little reader over a payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Oversized(n))?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// A length-prefixed string, validated in place and borrowed from
    /// the payload: the caller copies it once, into the type it keeps.
    fn string(&mut self) -> Result<&'a str, WireError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::Utf8)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    let len = u16::try_from(s.len()).map_err(|_| WireError::Oversized(s.len()))?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_tuple(out: &mut Vec<u8>, tuple: &Tuple) -> Result<(), WireError> {
    let arity = u16::try_from(tuple.len()).map_err(|_| WireError::Oversized(tuple.len()))?;
    out.extend_from_slice(&arity.to_be_bytes());
    for c in tuple {
        match c {
            Constant::Int(i) => {
                out.push(0);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Constant::Str(s) => {
                out.push(1);
                put_string(out, s)?;
            }
        }
    }
    Ok(())
}

fn read_tuple(r: &mut Reader<'_>) -> Result<Tuple, WireError> {
    let arity = r.u16()? as usize;
    let mut tuple = Vec::with_capacity(arity.min(64));
    for _ in 0..arity {
        let c = match r.u8()? {
            0 => Constant::Int(r.i64()?),
            1 => Constant::Str(r.string()?.into()),
            t => return Err(WireError::BadTag(t)),
        };
        tuple.push(c);
    }
    Ok(tuple)
}

/// Encodes a request payload (no frame prefix), followed by `ctx`'s
/// extension block when there is one.
pub fn encode_request(req: &Request, ctx: Option<&TraceContext>) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(5 + req.source.len() + req.pattern.len());
    out.push(OP_SCAN);
    put_string(&mut out, &req.source)?;
    put_string(&mut out, &req.pattern)?;
    if let Some(ctx) = ctx {
        append_trace_context(&mut out, ctx)?;
    }
    Ok(out)
}

/// Decodes a request payload and its optional [`TraceContext`] block,
/// rejecting unknown opcodes and truncation (see the module docs on
/// extension blocks).
pub fn decode_request(payload: &[u8]) -> Result<(Request, Option<TraceContext>), WireError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        OP_SCAN => {}
        op => return Err(WireError::BadOp(op)),
    }
    let source = r.string()?.to_string();
    let pattern = r.string()?.to_string();
    let ctx = match find_ext(&mut r, EXT_TRACE_CONTEXT)? {
        None => None,
        Some(body) => {
            let mut b = Reader::new(body);
            let run = b.u64()?;
            let plan_seq = b.u64()?;
            let source = b.string()?.to_string();
            let attempt = b.u32()?;
            b.finish()?;
            Some(TraceContext {
                run,
                plan_seq,
                source,
                attempt,
            })
        }
    };
    Ok((Request { source, pattern }, ctx))
}

/// Encodes an OK response payload straight from borrowed rows — the
/// bytes [`encode_response`] produces for [`Response::Rows`] of the same
/// rows, without first collecting them into an owned `Vec<Tuple>` (a
/// server filters its provider's shared relation through this).
pub fn encode_rows<'a>(
    rows: impl IntoIterator<Item = &'a Tuple>,
    epoch: u64,
) -> Result<Vec<u8>, WireError> {
    let mut out = vec![0];
    out.extend_from_slice(&epoch.to_be_bytes());
    let count_at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut count = 0usize;
    for row in rows {
        put_tuple(&mut out, row)?;
        count += 1;
    }
    let count = u32::try_from(count).map_err(|_| WireError::Oversized(count))?;
    out[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
    Ok(out)
}

/// Encodes a response payload (no frame prefix), followed by `span`'s
/// extension block when there is one. `epoch` is the server's
/// data-version counter, carried in the header of every response.
pub fn encode_response(
    resp: &Response,
    epoch: u64,
    span: Option<&ServerSpan>,
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    match resp {
        Response::Rows(rows) => out = encode_rows(rows, epoch)?,
        Response::UnknownSource(msg) => {
            out.push(1);
            out.extend_from_slice(&epoch.to_be_bytes());
            put_string(&mut out, msg)?;
        }
        Response::Error(msg) => {
            out.push(2);
            out.extend_from_slice(&epoch.to_be_bytes());
            put_string(&mut out, msg)?;
        }
    }
    if let Some(span) = span {
        append_server_span(&mut out, span)?;
    }
    Ok(out)
}

/// Decodes a response payload into `(response, server epoch, optional
/// [`ServerSpan`] block)`, rejecting unknown statuses and truncation (see
/// the module docs on extension blocks).
pub fn decode_response(payload: &[u8]) -> Result<(Response, u64, Option<ServerSpan>), WireError> {
    let mut r = Reader::new(payload);
    let status = r.u8()?;
    if status > 2 {
        return Err(WireError::BadStatus(status));
    }
    let epoch = r.u64()?;
    let resp = match status {
        0 => {
            let count = r.u32()? as usize;
            if count > MAX_FRAME_BYTES {
                return Err(WireError::Oversized(count));
            }
            let mut rows = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                rows.push(read_tuple(&mut r)?);
            }
            Response::Rows(rows)
        }
        1 => Response::UnknownSource(r.string()?.to_string()),
        2 => Response::Error(r.string()?.to_string()),
        s => return Err(WireError::BadStatus(s)),
    };
    let span = match find_ext(&mut r, EXT_SERVER_SPAN)? {
        None => None,
        Some(body) => {
            let mut b = Reader::new(body);
            let recv_parse = f64::from_bits(b.u64()?);
            let lookup = f64::from_bits(b.u64()?);
            let encode = f64::from_bits(b.u64()?);
            let total = f64::from_bits(b.u64()?);
            let request_seq = b.u64()?;
            b.finish()?;
            Some(ServerSpan {
                recv_parse,
                lookup,
                encode,
                total,
                request_seq,
            })
        }
    };
    Ok((resp, epoch, span))
}

fn put_ext(out: &mut Vec<u8>, tag: u8, body: &[u8]) -> Result<(), WireError> {
    let len = u16::try_from(body.len()).map_err(|_| WireError::Oversized(body.len()))?;
    out.push(tag);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(body);
    Ok(())
}

/// Scans the extension blocks after a message body, returning the bytes
/// of the first block tagged `want` (unknown tags are skipped; a
/// truncated block is an error).
fn find_ext<'a>(r: &mut Reader<'a>, want: u8) -> Result<Option<&'a [u8]>, WireError> {
    let mut found = None;
    while r.remaining() > 0 {
        let tag = r.u8()?;
        let len = r.u16()? as usize;
        let body = r.take(len)?;
        if tag == want && found.is_none() {
            found = Some(body);
        }
    }
    Ok(found)
}

/// Appends a [`TraceContext`] extension block to an encoded request
/// payload.
pub fn append_trace_context(out: &mut Vec<u8>, ctx: &TraceContext) -> Result<(), WireError> {
    let mut body = Vec::with_capacity(22 + ctx.source.len());
    body.extend_from_slice(&ctx.run.to_be_bytes());
    body.extend_from_slice(&ctx.plan_seq.to_be_bytes());
    put_string(&mut body, &ctx.source)?;
    body.extend_from_slice(&ctx.attempt.to_be_bytes());
    put_ext(out, EXT_TRACE_CONTEXT, &body)
}

/// Appends a [`ServerSpan`] extension block to an encoded response
/// payload (the response body is encoded *before* the span exists — the
/// encode phase is part of what the span times — so the block is
/// appended, never interleaved).
pub fn append_server_span(out: &mut Vec<u8>, span: &ServerSpan) -> Result<(), WireError> {
    let mut body = Vec::with_capacity(40);
    for v in [span.recv_parse, span.lookup, span.encode, span.total] {
        body.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    body.extend_from_slice(&span.request_seq.to_be_bytes());
    put_ext(out, EXT_SERVER_SPAN, &body)
}

/// Encodes one named relation — the record format of the store's log
/// segments: `[u16 len][name]` then `[u32 row count]` and the rows.
pub fn encode_relation(name: &str, rows: &[Tuple]) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    put_string(&mut out, name)?;
    let count = u32::try_from(rows.len()).map_err(|_| WireError::Oversized(rows.len()))?;
    out.extend_from_slice(&count.to_be_bytes());
    for row in rows {
        put_tuple(&mut out, row)?;
    }
    Ok(out)
}

/// Decodes one named-relation record (inverse of [`encode_relation`]).
pub fn decode_relation(payload: &[u8]) -> Result<(String, Vec<Tuple>), WireError> {
    let mut r = Reader::new(payload);
    let name = r.string()?.to_string();
    let count = r.u32()? as usize;
    if count > MAX_FRAME_BYTES {
        return Err(WireError::Oversized(count));
    }
    let mut rows = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        rows.push(read_tuple(&mut r)?);
    }
    r.finish()?;
    Ok((name, rows))
}

/// Writes one frame — `u32` big-endian payload length, then the payload
/// — as a single vectored write (see the module docs on why not two):
/// one syscall and one segment burst on a socket, without copying the
/// payload behind its prefix. Whatever a short write leaves over follows
/// with `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversized(payload.len()).to_string(),
        ));
    }
    let prefix = (payload.len() as u32).to_be_bytes();
    let sent = loop {
        match w.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(payload)]) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            result => break result?,
        }
    };
    if sent < prefix.len() {
        w.write_all(&prefix[sent..])?;
    }
    w.write_all(&payload[sent.saturating_sub(prefix.len())..])?;
    w.flush()
}

/// Reads one frame, enforcing [`MAX_FRAME_BYTES`] before allocating. A
/// clean EOF *before any length byte* maps to `UnexpectedEof` with an
/// empty message, which callers treat as "peer closed"; EOF mid-frame is
/// a truncation error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let len = read_frame_len(r)?;
    read_frame_payload(r, len)
}

/// The first half of [`read_frame`]: blocks until a frame's length prefix
/// has arrived and returns the announced payload length. Split out so a
/// server on a kept-alive connection can start its receive clock *here*,
/// after the peer's idle time and before the payload.
pub fn read_frame_len(r: &mut impl Read) -> std::io::Result<usize> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    Ok(u32::from_be_bytes(len_buf) as usize)
}

/// The second half of [`read_frame`]: the `len` payload bytes announced
/// by [`read_frame_len`], refused above [`MAX_FRAME_BYTES`] before any
/// allocation.
pub fn read_frame_payload(r: &mut impl Read, len: usize) -> std::io::Result<Vec<u8>> {
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversized(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(items: &[i64]) -> Tuple {
        items.iter().map(|&i| Constant::Int(i)).collect()
    }

    fn ctx() -> TraceContext {
        TraceContext {
            run: 7,
            plan_seq: 3,
            source: "v2".into(),
            attempt: 2,
        }
    }

    fn span() -> ServerSpan {
        ServerSpan {
            recv_parse: 1e-5,
            lookup: 3e-5,
            encode: 2e-5,
            total: 9e-5,
            request_seq: 41,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = Request {
            source: "v3".into(),
            pattern: "scan".into(),
        };
        for ctx in [None, Some(ctx())] {
            let bytes = encode_request(&req, ctx.as_ref()).unwrap();
            assert_eq!(decode_request(&bytes).unwrap(), (req.clone(), ctx));
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Rows(vec![
                row(&[1, 2]),
                vec![Constant::Str("ford".into()), Constant::Int(-7)],
                vec![],
            ]),
            Response::Rows(Vec::new()),
            Response::UnknownSource("v9".into()),
            Response::Error("mid-restart".into()),
        ];
        for (i, resp) in cases.into_iter().enumerate() {
            let epoch = i as u64 * 1000 + 7;
            for span in [None, Some(span())] {
                let bytes = encode_response(&resp, epoch, span.as_ref()).unwrap();
                assert_eq!(
                    decode_response(&bytes).unwrap(),
                    (resp.clone(), epoch, span)
                );
            }
        }
    }

    #[test]
    fn truncated_payloads_are_rejected_at_every_prefix() {
        let req = Request {
            source: "movies".into(),
            pattern: "scan".into(),
        };
        let bytes = encode_request(&req, None).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_request(&bytes[..cut]).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
        let resp = Response::Rows(vec![row(&[1]), vec![Constant::Str("x".into())]]);
        let bytes = encode_response(&resp, 42, None).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_response(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn garbage_bytes_are_rejected_not_panicked_on() {
        assert_eq!(decode_request(&[9]).unwrap_err(), WireError::BadOp(9));
        assert_eq!(decode_response(&[7]).unwrap_err(), WireError::BadStatus(7));
        // Bad constant tag inside a row.
        let mut bytes = encode_response(&Response::Rows(vec![row(&[5])]), 3, None).unwrap();
        let tag_at = bytes.len() - 9; // tag byte precedes the 8-byte int
        bytes[tag_at] = 0xEE;
        assert_eq!(
            decode_response(&bytes).unwrap_err(),
            WireError::BadTag(0xEE)
        );
        // Invalid UTF-8 in a string field.
        let mut bytes = encode_response(&Response::Error("ab".into()), 3, None).unwrap();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        bytes[n - 2] = 0xFE;
        assert_eq!(decode_response(&bytes).unwrap_err(), WireError::Utf8);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let req = Request {
            source: "v1".into(),
            pattern: "scan".into(),
        };
        let body = encode_request(&req, None).unwrap();
        // Fewer stray bytes than a block header, or a block cut short.
        for stray in [&[0u8][..], &[0, 0], &[0xEE, 0, 2, 9]] {
            let bytes = [&body[..], stray].concat();
            assert_eq!(decode_request(&bytes).unwrap_err(), WireError::Truncated);
        }
        // A whole block with a tag nobody defined is skipped.
        let bytes = [&body[..], &[0, 0, 0]].concat();
        assert_eq!(decode_request(&bytes).unwrap(), (req, None));
        // Store records carry no blocks: every byte is the record's.
        let mut record = encode_relation("v1", &[row(&[1])]).unwrap();
        record.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decode_relation(&record).unwrap_err(),
            WireError::TrailingBytes(3)
        );
    }

    #[test]
    fn frames_round_trip_and_enforce_the_ceiling() {
        let payload = b"hello frames".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(read_frame(&mut wire.as_slice()).unwrap(), payload);
        // A hostile length prefix is rejected before allocation.
        let mut hostile = (u32::MAX).to_be_bytes().to_vec();
        hostile.extend_from_slice(b"x");
        let err = read_frame(&mut hostile.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A truncated frame reports UnexpectedEof.
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn relation_records_round_trip() {
        let rows = vec![row(&[1, 2]), vec![Constant::Str("ford".into())]];
        let bytes = encode_relation("v4", &rows).unwrap();
        let (name, decoded) = decode_relation(&bytes).unwrap();
        assert_eq!(name, "v4");
        assert_eq!(decoded, rows);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_relation(&bytes[..cut]).unwrap_err(),
                WireError::Truncated
            );
        }
    }

    #[test]
    fn oversized_strings_fail_to_encode() {
        let req = Request {
            source: "v".repeat(70_000),
            pattern: "scan".into(),
        };
        assert!(matches!(
            encode_request(&req, None).unwrap_err(),
            WireError::Oversized(70_000)
        ));
    }

    #[test]
    fn unknown_extension_tags_are_skipped_not_rejected() {
        let resp = Response::Error("x".into());
        let mut bytes = encode_response(&resp, 1, None).unwrap();
        // A future extension this decoder has never heard of…
        bytes.push(0xEE);
        bytes.extend_from_slice(&3u16.to_be_bytes());
        bytes.extend_from_slice(&[9, 9, 9]);
        // …then a span block after it.
        append_server_span(&mut bytes, &span()).unwrap();
        assert_eq!(decode_response(&bytes).unwrap(), (resp, 1, Some(span())));
    }

    #[test]
    fn truncated_extension_blocks_error_cleanly() {
        let req = Request {
            source: "v1".into(),
            pattern: "scan".into(),
        };
        let bytes = encode_request(&req, Some(&ctx())).unwrap();
        let base = encode_request(&req, None).unwrap().len();
        for cut in base + 1..bytes.len() {
            assert!(decode_request(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
