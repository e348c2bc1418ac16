//! The wire protocol: length-prefixed frames of manually encoded
//! messages.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; the first payload byte is the message tag. Encoding is
//! hand-rolled (the workspace is dependency-free) and deliberately dumb:
//! fixed-width little-endian integers, `u16`-length strings, `u32`-length
//! byte blobs. A frame longer than [`MAX_FRAME`] is a protocol error on
//! both sides — the server must never trust a client-supplied length.

use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload (16 MiB): bounds per-connection
/// buffering no matter what length prefix a client sends.
pub const MAX_FRAME: u32 = 16 << 20;

/// A client-to-server request. `session` handles come from
/// [`Response::Opened`] and die with `Close`/`Reset`-after-recycle.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session for `tenant`, claiming a pooled slot.
    Open {
        /// Tenant name (quota accounting key).
        tenant: String,
    },
    /// Close a session, recycling its slot.
    Close {
        /// Session handle.
        session: u64,
    },
    /// Allocate `bytes` of device memory in the session's arena.
    Alloc {
        /// Session handle.
        session: u64,
        /// Allocation size in bytes.
        bytes: u64,
    },
    /// Host-to-device write at `ptr`.
    Write {
        /// Session handle.
        session: u64,
        /// Destination device pointer.
        ptr: u64,
        /// Bytes to copy in.
        data: Vec<u8>,
    },
    /// Device-to-host read of `bytes` from `ptr`.
    Read {
        /// Session handle.
        session: u64,
        /// Source device pointer.
        ptr: u64,
        /// Bytes to copy out.
        bytes: u64,
    },
    /// Launch a named server-registry kernel (see `crate::kernels`).
    Launch {
        /// Session handle.
        session: u64,
        /// Registry kernel name.
        kernel: String,
        /// Grid extent (1-D, in blocks).
        grid: u32,
        /// Block extent (1-D, in threads).
        block: u32,
        /// Raw 64-bit parameter slots (pointers verbatim, scalars
        /// zero/sign-extended, f32 in the low 32 bits).
        params: Vec<u64>,
    },
    /// Reset the session's context (clears a sticky fault; device memory,
    /// kernels and decoded code are discarded).
    Reset {
        /// Session handle.
        session: u64,
    },
    /// Fetch the server's counters.
    Stats,
}

/// Typed error classes: the machine-readable half of an error response.
/// `Busy` and `QuotaExceeded` are the admission-control backpressure
/// signals a client may retry; the rest are request or session state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The slot pool (or an admission queue) is at capacity — retry with
    /// backoff.
    Busy,
    /// The request would exceed the tenant's quota — shed load or close
    /// sessions; retrying without freeing anything cannot succeed.
    QuotaExceeded,
    /// The session's context is poisoned by an earlier device fault;
    /// every request but `Reset`/`Close` fails with this until reset.
    ContextLost,
    /// The launch faulted on the device; the context is now poisoned.
    DeviceFault,
    /// Device memory exhausted (arena, not quota).
    OutOfMemory,
    /// Unknown or stale session handle.
    BadSession,
    /// Launch named a kernel the server registry does not have.
    UnknownKernel,
    /// Malformed or inapplicable request.
    BadRequest,
}

impl ErrorKind {
    /// Whether a client retry can possibly succeed without the client
    /// first changing something (closing sessions, resetting).
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorKind::Busy)
    }

    fn tag(self) -> u8 {
        match self {
            ErrorKind::Busy => 0,
            ErrorKind::QuotaExceeded => 1,
            ErrorKind::ContextLost => 2,
            ErrorKind::DeviceFault => 3,
            ErrorKind::OutOfMemory => 4,
            ErrorKind::BadSession => 5,
            ErrorKind::UnknownKernel => 6,
            ErrorKind::BadRequest => 7,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        Some(match t {
            0 => ErrorKind::Busy,
            1 => ErrorKind::QuotaExceeded,
            2 => ErrorKind::ContextLost,
            3 => ErrorKind::DeviceFault,
            4 => ErrorKind::OutOfMemory,
            5 => ErrorKind::BadSession,
            6 => ErrorKind::UnknownKernel,
            7 => ErrorKind::BadRequest,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorKind::Busy => "Busy",
            ErrorKind::QuotaExceeded => "QuotaExceeded",
            ErrorKind::ContextLost => "ContextLost",
            ErrorKind::DeviceFault => "DeviceFault",
            ErrorKind::OutOfMemory => "OutOfMemory",
            ErrorKind::BadSession => "BadSession",
            ErrorKind::UnknownKernel => "UnknownKernel",
            ErrorKind::BadRequest => "BadRequest",
        })
    }
}

/// Server counters, readable over the wire (`Request::Stats`): the soak
/// harness's fault-isolation evidence and the chaos tests' assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions opened.
    pub opens: u64,
    /// Sessions closed (slot recycles = `closes`, the pool never grows).
    pub closes: u64,
    /// Open requests rejected with `Busy` (pool exhausted).
    pub busy_rejections: u64,
    /// Requests rejected with `QuotaExceeded`.
    pub quota_rejections: u64,
    /// Kernel launches that completed.
    pub launches: u64,
    /// Launches that faulted on the device (each poisons one session).
    pub device_faults: u64,
    /// Requests bounced off a poisoned session (`ContextLost`).
    pub context_lost: u64,
    /// Session resets (client `Reset` requests plus recycle resets).
    pub resets: u64,
    /// Preallocated slots in the pool.
    pub slots: u32,
    /// Slots currently free.
    pub slots_free: u32,
}

/// A server-to-client response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Session opened.
    Opened {
        /// The new session handle.
        session: u64,
    },
    /// Session closed, slot recycled.
    Closed,
    /// Memory allocated.
    Allocated {
        /// Device pointer of the allocation.
        ptr: u64,
    },
    /// Write completed.
    Written,
    /// Read completed.
    Data {
        /// The bytes read back.
        data: Vec<u8>,
    },
    /// Launch completed.
    Launched {
        /// Kernel time on the session's virtual timeline, ns.
        kernel_ns: f64,
    },
    /// Context reset.
    ResetDone {
        /// Loaded kernels whose decoded code the reset dropped.
        evicted: u32,
        /// Whether the reset cleared a sticky fault.
        had_fault: bool,
    },
    /// Server counters.
    Stats(ServerStats),
    /// Typed failure.
    Error {
        /// Machine-readable error class.
        kind: ErrorKind,
        /// Human-readable diagnostics.
        message: String,
    },
}

// ---- encoding helpers -------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("string fits a u16 length");
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Decode cursor over one frame payload.
struct Dec<'a> {
    b: &'a [u8],
}

/// A malformed frame (truncated, bad tag, bad UTF-8, trailing bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.b.len() < n {
            return Err(DecodeError(format!(
                "need {n} bytes, have {}",
                self.b.len()
            )));
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DecodeError("string is not UTF-8".into()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()?;
        if len > MAX_FRAME {
            return Err(DecodeError(format!("byte blob of {len} exceeds MAX_FRAME")));
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    fn done(self) -> Result<(), DecodeError> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(DecodeError(format!("{} trailing bytes", self.b.len())))
        }
    }
}

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Open { tenant } => {
                out.push(0);
                put_str(&mut out, tenant);
            }
            Request::Close { session } => {
                out.push(1);
                put_u64(&mut out, *session);
            }
            Request::Alloc { session, bytes } => {
                out.push(2);
                put_u64(&mut out, *session);
                put_u64(&mut out, *bytes);
            }
            Request::Write { session, ptr, data } => {
                out.push(3);
                put_u64(&mut out, *session);
                put_u64(&mut out, *ptr);
                put_bytes(&mut out, data);
            }
            Request::Read {
                session,
                ptr,
                bytes,
            } => {
                out.push(4);
                put_u64(&mut out, *session);
                put_u64(&mut out, *ptr);
                put_u64(&mut out, *bytes);
            }
            Request::Launch {
                session,
                kernel,
                grid,
                block,
                params,
            } => {
                out.push(5);
                put_u64(&mut out, *session);
                put_str(&mut out, kernel);
                put_u32(&mut out, *grid);
                put_u32(&mut out, *block);
                out.push(u8::try_from(params.len()).expect("at most 255 params"));
                for p in params {
                    put_u64(&mut out, *p);
                }
            }
            Request::Reset { session } => {
                out.push(6);
                put_u64(&mut out, *session);
            }
            Request::Stats => out.push(7),
        }
        out
    }

    /// Decode one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        let mut d = Dec { b: payload };
        let req = match d.u8()? {
            0 => Request::Open { tenant: d.str()? },
            1 => Request::Close { session: d.u64()? },
            2 => Request::Alloc {
                session: d.u64()?,
                bytes: d.u64()?,
            },
            3 => Request::Write {
                session: d.u64()?,
                ptr: d.u64()?,
                data: d.bytes()?,
            },
            4 => Request::Read {
                session: d.u64()?,
                ptr: d.u64()?,
                bytes: d.u64()?,
            },
            5 => {
                let session = d.u64()?;
                let kernel = d.str()?;
                let grid = d.u32()?;
                let block = d.u32()?;
                let n = d.u8()? as usize;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(d.u64()?);
                }
                Request::Launch {
                    session,
                    kernel,
                    grid,
                    block,
                    params,
                }
            }
            6 => Request::Reset { session: d.u64()? },
            7 => Request::Stats,
            t => return Err(DecodeError(format!("unknown request tag {t}"))),
        };
        d.done()?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Opened { session } => {
                out.push(0);
                put_u64(&mut out, *session);
            }
            Response::Closed => out.push(1),
            Response::Allocated { ptr } => {
                out.push(2);
                put_u64(&mut out, *ptr);
            }
            Response::Written => out.push(3),
            Response::Data { data } => {
                out.push(4);
                put_bytes(&mut out, data);
            }
            Response::Launched { kernel_ns } => {
                out.push(5);
                put_u64(&mut out, kernel_ns.to_bits());
            }
            Response::ResetDone { evicted, had_fault } => {
                out.push(6);
                put_u32(&mut out, *evicted);
                out.push(u8::from(*had_fault));
            }
            Response::Stats(s) => {
                out.push(7);
                for v in [
                    s.opens,
                    s.closes,
                    s.busy_rejections,
                    s.quota_rejections,
                    s.launches,
                    s.device_faults,
                    s.context_lost,
                    s.resets,
                ] {
                    put_u64(&mut out, v);
                }
                put_u32(&mut out, s.slots);
                put_u32(&mut out, s.slots_free);
            }
            Response::Error { kind, message } => {
                out.push(8);
                out.push(kind.tag());
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decode one frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, DecodeError> {
        let mut d = Dec { b: payload };
        let resp = match d.u8()? {
            0 => Response::Opened { session: d.u64()? },
            1 => Response::Closed,
            2 => Response::Allocated { ptr: d.u64()? },
            3 => Response::Written,
            4 => Response::Data { data: d.bytes()? },
            5 => Response::Launched {
                kernel_ns: d.f64()?,
            },
            6 => Response::ResetDone {
                evicted: d.u32()?,
                had_fault: d.u8()? != 0,
            },
            7 => Response::Stats(ServerStats {
                opens: d.u64()?,
                closes: d.u64()?,
                busy_rejections: d.u64()?,
                quota_rejections: d.u64()?,
                launches: d.u64()?,
                device_faults: d.u64()?,
                context_lost: d.u64()?,
                resets: d.u64()?,
                slots: d.u32()?,
                slots_free: d.u32()?,
            }),
            8 => {
                let kind = ErrorKind::from_tag(d.u8()?)
                    .ok_or_else(|| DecodeError("unknown error kind".into()))?;
                Response::Error {
                    kind,
                    message: d.str()?,
                }
            }
            t => return Err(DecodeError(format!("unknown response tag {t}"))),
        };
        d.done()?;
        Ok(resp)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` is a clean EOF at a frame
/// boundary (the peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Open {
                tenant: "acme".into(),
            },
            Request::Close { session: 7 },
            Request::Alloc {
                session: 7,
                bytes: 4096,
            },
            Request::Write {
                session: 7,
                ptr: 64,
                data: vec![1, 2, 3, 255],
            },
            Request::Read {
                session: 7,
                ptr: 64,
                bytes: 16,
            },
            Request::Launch {
                session: 7,
                kernel: "fill".into(),
                grid: 4,
                block: 128,
                params: vec![64, 512, 0x3f80_0000],
            },
            Request::Reset { session: 7 },
            Request::Stats,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Opened { session: 9 },
            Response::Closed,
            Response::Allocated { ptr: 128 },
            Response::Written,
            Response::Data {
                data: vec![0; 1000],
            },
            Response::Launched { kernel_ns: 123.5 },
            Response::ResetDone {
                evicted: 2,
                had_fault: true,
            },
            Response::Stats(ServerStats {
                opens: 1,
                closes: 2,
                busy_rejections: 3,
                quota_rejections: 4,
                launches: 5,
                device_faults: 6,
                context_lost: 7,
                resets: 8,
                slots: 9,
                slots_free: 10,
            }),
            Response::Error {
                kind: ErrorKind::QuotaExceeded,
                message: "resident bytes".into(),
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[200]).is_err());
        // truncated session id
        assert!(Request::decode(&[1, 1, 2, 3]).is_err());
        // trailing garbage
        let mut p = Request::Stats.encode();
        p.push(0);
        assert!(Request::decode(&p).is_err());
        assert!(Response::decode(&[8, 200, 0, 0]).is_err());
    }

    #[test]
    fn frames_round_trip_and_bound_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());

        // an adversarial length prefix is rejected before allocation
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // EOF mid-header is an error, not a silent None
        assert!(read_frame(&mut &[1u8, 0][..]).is_err());
    }

    #[test]
    fn only_busy_is_retryable() {
        for kind in [
            ErrorKind::Busy,
            ErrorKind::QuotaExceeded,
            ErrorKind::ContextLost,
            ErrorKind::DeviceFault,
            ErrorKind::OutOfMemory,
            ErrorKind::BadSession,
            ErrorKind::UnknownKernel,
            ErrorKind::BadRequest,
        ] {
            assert_eq!(kind.is_retryable(), kind == ErrorKind::Busy);
            // tags round-trip
            assert_eq!(ErrorKind::from_tag(kind.tag()), Some(kind));
        }
    }
}
