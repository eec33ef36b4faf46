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
//! Request (`op` byte, the client's trace context, then the access):
//!
//! ```text
//! [u8 op = 1] [u64 run] [u64 plan_seq] [u32 attempt]
//!             [u16 len][source name bytes] [u16 len][binding pattern bytes]
//! ```
//!
//! The trace context names the run, plan and attempt the access serves;
//! it rides every request, and the server journals it beside its span.
//! The binding pattern is the canonical text of [`crate::pattern`]:
//! `"scan"` asks for the whole relation, `bind;0=s4:ford` for the rows
//! whose column 0 is `ford`. The contract is superset-safe — a server
//! must return every matching row and may return more — so a server
//! that ignores the field is still correct.
//!
//! Reply (`status` byte, the server's data epoch and span, then the body):
//!
//! ```text
//! [u8 status] [u64 epoch] [f64 recv_parse] [f64 lookup] [f64 encode]
//!             [f64 total] [u64 request_seq] body
//! status 0 = OK              body = [u32 row count] rows…
//! status 1 = UNKNOWN_SOURCE  body = [u16 len][message bytes]  (permanent)
//! status 2 = ERROR           body = [u16 len][message bytes]  (transient)
//! ```
//!
//! The epoch is the server's monotone data-version counter
//! ([`crate::net::RelationProvider::epoch`]): it rides on *every*
//! reply so a [`crate::net::TcpBackend`] can surface it through
//! [`crate::backend::SourceBackend::epoch`] and the source memo can
//! invalidate outcomes cached against a world the server no longer
//! serves — no manual version bookkeeping on the client.
//!
//! The span is how the server spent its wall time on the request, in
//! seconds as `f64::to_bits` (so it round-trips bit-exactly), and the
//! server's request counter. The encoders write it as zeros; the server
//! times the encode too, so it stamps the measured span into the encoded
//! reply afterwards ([`stamp_span`]). A reply to a request the server
//! could not decode keeps the zeros.
//!
//! A row is `[u16 arity]` followed by tagged constants: tag `0` is a
//! big-endian `i64`, tag `1` is a `u16`-length-prefixed UTF-8 string.
//!
//! Every field is always present, so a message has exactly one encoding.
//! Decoders reject unknown opcodes, statuses and constant tags, truncated
//! fields and trailing bytes, so every byte of a frame is accounted for.

use crate::backend::RemoteSpan;
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

/// Where a reply's span starts: after the status byte and the epoch.
const SPAN_AT: usize = 9;

/// A span's encoded size: four `f64` phases and the request counter.
const SPAN_BYTES: usize = 40;

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

/// A source-access request: the rows of `source` matching `pattern`, and
/// the client's trace context. A decoded request borrows its strings from
/// the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// Catalog name of the source relation.
    pub source: &'a str,
    /// Binding pattern, in the canonical text of [`crate::pattern`].
    pub pattern: &'a str,
    /// Client-process run identifier (not journalled by the client;
    /// disambiguates concurrent runs in the *server's* journal).
    pub run: u64,
    /// Emission sequence number of the plan the access serves.
    pub plan_seq: u64,
    /// Zero-based attempt number within the access retry chain.
    pub attempt: u32,
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

/// A decoded reply: what the server answered, its data epoch, and its
/// span of the request (wall seconds; zeros when it stamped none).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The answer itself.
    pub response: Response,
    /// The server's data-version counter.
    pub epoch: u64,
    /// How the server spent its time on the request.
    pub span: RemoteSpan,
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

/// Encodes a request payload (no frame prefix).
pub fn encode_request(req: &Request<'_>) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(25 + req.source.len() + req.pattern.len());
    out.push(OP_SCAN);
    out.extend_from_slice(&req.run.to_be_bytes());
    out.extend_from_slice(&req.plan_seq.to_be_bytes());
    out.extend_from_slice(&req.attempt.to_be_bytes());
    put_string(&mut out, req.source)?;
    put_string(&mut out, req.pattern)?;
    Ok(out)
}

/// Decodes a request payload, rejecting unknown opcodes, truncation and
/// trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request<'_>, WireError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        OP_SCAN => {}
        op => return Err(WireError::BadOp(op)),
    }
    let req = Request {
        run: r.u64()?,
        plan_seq: r.u64()?,
        attempt: r.u32()?,
        source: r.string()?,
        pattern: r.string()?,
    };
    r.finish()?;
    Ok(req)
}

/// A reply's status byte, epoch and zeroed span.
fn put_header(out: &mut Vec<u8>, status: u8, epoch: u64) {
    out.push(status);
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&[0; SPAN_BYTES]);
}

/// Encodes an OK reply payload straight from borrowed rows — the bytes
/// [`encode_response`] produces for [`Response::Rows`] of the same rows,
/// without first collecting them into an owned `Vec<Tuple>` (a server
/// filters its provider's shared relation through this).
pub fn encode_rows<'a>(
    rows: impl IntoIterator<Item = &'a Tuple>,
    epoch: u64,
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    put_header(&mut out, 0, epoch);
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

/// Encodes a reply payload (no frame prefix) with a zeroed span. `epoch`
/// is the server's data-version counter, carried by every reply.
pub fn encode_response(resp: &Response, epoch: u64) -> Result<Vec<u8>, WireError> {
    let (status, msg) = match resp {
        Response::Rows(rows) => return encode_rows(rows, epoch),
        Response::UnknownSource(msg) => (1, msg),
        Response::Error(msg) => (2, msg),
    };
    let mut out = Vec::new();
    put_header(&mut out, status, epoch);
    put_string(&mut out, msg)?;
    Ok(out)
}

/// Writes `span` into an encoded reply's span field. `Truncated` if
/// `reply` is too short to be one.
pub fn stamp_span(reply: &mut [u8], span: &RemoteSpan) -> Result<(), WireError> {
    let field = reply
        .get_mut(SPAN_AT..SPAN_AT + SPAN_BYTES)
        .ok_or(WireError::Truncated)?;
    let words = [
        span.recv_parse.to_bits(),
        span.lookup.to_bits(),
        span.encode.to_bits(),
        span.total.to_bits(),
        span.server_seq,
    ];
    for (bytes, word) in field.chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Ok(())
}

/// Decodes a reply payload, rejecting unknown statuses, truncation and
/// trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Reply, WireError> {
    let mut r = Reader::new(payload);
    let status = r.u8()?;
    if status > 2 {
        return Err(WireError::BadStatus(status));
    }
    let epoch = r.u64()?;
    let span = RemoteSpan {
        recv_parse: f64::from_bits(r.u64()?),
        lookup: f64::from_bits(r.u64()?),
        encode: f64::from_bits(r.u64()?),
        total: f64::from_bits(r.u64()?),
        server_seq: r.u64()?,
    };
    let response = match status {
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
        _ => Response::Error(r.string()?.to_string()),
    };
    r.finish()?;
    Ok(Reply {
        response,
        epoch,
        span,
    })
}

/// Encodes one named relation — the record format of the store's log:
/// `[u16 len][name]` then `[u32 row count]` and the rows.
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

    fn scan(source: &str) -> Request<'_> {
        Request {
            source,
            pattern: "scan",
            run: 7,
            plan_seq: 3,
            attempt: 2,
        }
    }

    fn span() -> RemoteSpan {
        RemoteSpan {
            recv_parse: 1e-5,
            lookup: 3e-5,
            encode: 2e-5,
            total: 9e-5,
            server_seq: 41,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = Request {
            pattern: "bind;0=s4:ford",
            ..scan("v3")
        };
        let bytes = encode_request(&req).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn responses_round_trip_and_carry_the_stamped_span() {
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
        for (i, response) in cases.into_iter().enumerate() {
            let epoch = i as u64 * 1000 + 7;
            let mut bytes = encode_response(&response, epoch).unwrap();
            let reply = |span| Reply {
                response: response.clone(),
                epoch,
                span,
            };
            assert_eq!(
                decode_response(&bytes).unwrap(),
                reply(RemoteSpan::default())
            );
            stamp_span(&mut bytes, &span()).unwrap();
            assert_eq!(decode_response(&bytes).unwrap(), reply(span()));
        }
    }

    #[test]
    fn truncated_payloads_are_rejected_at_every_prefix() {
        let bytes = encode_request(&scan("movies")).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_request(&bytes[..cut]).unwrap_err();
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
        let resp = Response::Rows(vec![row(&[1]), vec![Constant::Str("x".into())]]);
        let mut bytes = encode_response(&resp, 42).unwrap();
        stamp_span(&mut bytes, &span()).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_response(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
        // Too short to hold a span: nothing to stamp.
        let mut short = bytes[..SPAN_AT + SPAN_BYTES - 1].to_vec();
        assert_eq!(stamp_span(&mut short, &span()), Err(WireError::Truncated));
    }

    #[test]
    fn garbage_bytes_are_rejected_not_panicked_on() {
        assert_eq!(decode_request(&[9]).unwrap_err(), WireError::BadOp(9));
        assert_eq!(decode_response(&[7]).unwrap_err(), WireError::BadStatus(7));
        // Bad constant tag inside a row.
        let mut bytes = encode_response(&Response::Rows(vec![row(&[5])]), 3).unwrap();
        let tag_at = bytes.len() - 9; // tag byte precedes the 8-byte int
        bytes[tag_at] = 0xEE;
        assert_eq!(
            decode_response(&bytes).unwrap_err(),
            WireError::BadTag(0xEE)
        );
        // Invalid UTF-8 in a string field.
        let mut bytes = encode_response(&Response::Error("ab".into()), 3).unwrap();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        bytes[n - 2] = 0xFE;
        assert_eq!(decode_response(&bytes).unwrap_err(), WireError::Utf8);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let body = encode_request(&scan("v1")).unwrap();
        // Stray bytes, or a whole tagged block: nothing follows a message.
        for stray in [&[0u8][..], &[0, 0, 0], &[0x10, 0, 2, 9, 9]] {
            let bytes = [&body[..], stray].concat();
            assert_eq!(
                decode_request(&bytes).unwrap_err(),
                WireError::TrailingBytes(stray.len())
            );
        }
        let reply = encode_response(&Response::Error("x".into()), 1).unwrap();
        let bytes = [&reply[..], &[0x11, 0, 0]].concat();
        assert_eq!(
            decode_response(&bytes).unwrap_err(),
            WireError::TrailingBytes(3)
        );
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
        let source = "v".repeat(70_000);
        assert!(matches!(
            encode_request(&scan(&source)).unwrap_err(),
            WireError::Oversized(70_000)
        ));
    }
}
