//! The framed wire protocol of `lhmm-serve`.
//!
//! Every message travels as one length-prefixed frame over a byte stream
//! (TCP in production, any `Read`/`Write` pair in tests):
//!
//! ```text
//! frame    := len:u32le  payload               (len = payload byte count)
//! payload  := tag:u8  body
//!
//! client → server
//!   0x01 ONESHOT  body := traj
//!   0x02 OPEN     body := client:u64le  lag:u32le  version:u32le
//!   0x03 PUSH     body := client:u64le  point
//!   0x04 FINISH   body := client:u64le
//!   0x05 PING     body := (empty)               (cluster health plane)
//!   0x08 SWAP     body := version:u32le         (0 = rollback)
//!   0x09 SHADOW   body := version:u32le  mirror_every:u32le  (version 0 = off)
//!   0x0A VERSIONS body := (empty)               (registry listing)
//!   0x0B REFRESH  body := (empty)               (fold stats, register candidate)
//!
//! server → client
//!   0x81 ROUTE    body := degraded:u8  n:u32le  n × seg:u32le
//!   0x82 PUSHED   body := committed:u32le
//!   0x83 REJECT   body := reason:u8            (admission control)
//!   0x84 FAILED   body := code:u8  a:u32le  b:u32le  (typed MatchError)
//!   0x85 PONG     body := sessions:u32le
//!   0x87 MODELS   body := active:u32le  previous:u32le  shadow:u32le
//!                         mirror_every:u32le  refreshed:u32le
//!                         n:u32le  n × manifest
//!
//! manifest := version:u32le  parent:u32le  fingerprint:u64le
//!             weight_bytes:u64le  label_len:u32le  label (utf-8)
//!
//! Tags 0x06, 0x07 and 0x86 are retired: they carried a shard-to-shard
//! session-state handoff that no longer exists (a cluster moves a session
//! only by replaying its pushes). They decode as unknown tags and are not
//! to be reused.
//!
//! The model plane (OPEN version field, SWAP/SHADOW/VERSIONS/
//! REFRESH and MODELS) uses 0 as the "currently active version" / "none"
//! sentinel throughout — real registry versions start at 1.
//!
//! point := tower:u32le  x:f64le  y:f64le  t:f64le
//!          smoothed:u8  [sx:f64le  sy:f64le]   (present iff smoothed = 1)
//! traj  := n:u32le  n × point
//! ```
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns, so a
//! round trip is bit-exact — the loopback equivalence tests depend on
//! matching the *same* trajectory the client held. Frames are capped at
//! [`MAX_FRAME`]; an oversized or malformed frame is a protocol error, not
//! a panic.

use crate::admission::RejectReason;
use lhmm_cellsim::tower::TowerId;
use lhmm_cellsim::traj::{CellularPoint, CellularTrajectory};
use lhmm_core::error::MatchError;
use lhmm_core::registry::{ModelManifest, ModelVersion};
use lhmm_geo::Point;
use lhmm_network::graph::SegmentId;
use std::fmt;
use std::io::{self, Read, Write};

/// Maximum frame payload size in bytes (16 MiB ≈ 400k trajectory points):
/// a decoding bound against hostile or corrupt length prefixes.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Anything that can go wrong while reading or writing frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error (includes clean EOF mid-frame).
    Io(io::Error),
    /// Structurally invalid payload (unknown tag, short body, bad flag).
    Malformed(&'static str),
    /// Declared frame length exceeds [`MAX_FRAME`].
    TooLarge(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A client-to-server message.
#[derive(Clone, Debug)]
pub enum Request {
    /// Match a complete trajectory through the micro-batch scheduler.
    OneShot {
        /// The trajectory to match.
        traj: CellularTrajectory,
    },
    /// Open (or reopen) a streaming session for `client`.
    Open {
        /// Session key.
        client: u64,
        /// Fixed commit lag in observations.
        lag: u32,
        /// Registry model version to pin the session to; 0 pins whatever
        /// is active at admission. The session serves this version until
        /// it finishes, across any number of hot swaps.
        version: u32,
    },
    /// Feed one observation into `client`'s streaming session.
    Push {
        /// Session key.
        client: u64,
        /// The observation.
        point: CellularPoint,
    },
    /// Finalize `client`'s session and return the complete route.
    Finish {
        /// Session key.
        client: u64,
    },
    /// Liveness probe (cluster health plane). Answered with
    /// [`Response::Pong`] without touching any session.
    Ping,
    /// Atomically swap the active model version: promote `version`, or
    /// roll back to the previous version when `version` is 0. Answered
    /// with [`Response::Models`].
    Swap {
        /// Version to promote; 0 requests a rollback.
        version: u32,
    },
    /// Arm (or disarm) shadow A/B serving: mirror every `mirror_every`-th
    /// one-shot admission through candidate `version`; `version` 0
    /// disarms. Answered with [`Response::Models`].
    Shadow {
        /// Candidate version to mirror through; 0 disarms.
        version: u32,
        /// Mirror cadence (every Nth admission; clamped to ≥ 1).
        mirror_every: u32,
    },
    /// List the model registry. Answered with [`Response::Models`].
    Versions,
    /// Drain the accumulated refresh statistics into a re-derived model,
    /// registered as a new candidate version (not promoted). Answered
    /// with [`Response::Models`]; `refreshed` is 0 when no statistics had
    /// accumulated.
    Refresh,
}

/// Compact wire form of a [`MatchError`] (code + two operands).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireMatchError {
    /// 0 = EmptyTrajectory, 1 = NoCandidates, 2 = LayerMismatch,
    /// 3 = EmptyLayer.
    pub code: u8,
    /// First operand (points / layer index).
    pub a: u32,
    /// Second operand (layers).
    pub b: u32,
}

impl From<&MatchError> for WireMatchError {
    fn from(e: &MatchError) -> Self {
        match e {
            MatchError::EmptyTrajectory => WireMatchError { code: 0, a: 0, b: 0 },
            MatchError::NoCandidates => WireMatchError { code: 1, a: 0, b: 0 },
            MatchError::LayerMismatch { points, layers } => WireMatchError {
                code: 2,
                a: *points as u32,
                b: *layers as u32,
            },
            MatchError::EmptyLayer { layer } => WireMatchError {
                code: 3,
                a: *layer as u32,
                b: 0,
            },
        }
    }
}

impl WireMatchError {
    /// Reconstructs the typed error (round-trips with `From<&MatchError>`).
    pub fn to_match_error(self) -> Option<MatchError> {
        match self.code {
            0 => Some(MatchError::EmptyTrajectory),
            1 => Some(MatchError::NoCandidates),
            2 => Some(MatchError::LayerMismatch {
                points: self.a as usize,
                layers: self.b as usize,
            }),
            3 => Some(MatchError::EmptyLayer {
                layer: self.a as usize,
            }),
            _ => None,
        }
    }
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A matched route (one-shot result, or the final route of a session).
    Route {
        /// Matched segment sequence.
        segments: Vec<SegmentId>,
        /// True when the match degraded (dropped points, glued gaps,
        /// clamped scores) — best-effort result.
        degraded: bool,
    },
    /// A streaming push was absorbed; `committed` observations were fixed.
    Pushed {
        /// Newly committed observation count.
        committed: u32,
    },
    /// The request was shed by admission control.
    Reject(RejectReason),
    /// Matching failed with a typed error.
    Failed(WireMatchError),
    /// Liveness answer: the shard is up and holds `sessions` sessions.
    Pong {
        /// Live session count at the instant of the probe.
        sessions: u32,
    },
    /// A registry snapshot (answer to the model-plane requests).
    Models {
        /// The active version.
        active: u32,
        /// The rollback target (0 = none recorded yet).
        previous: u32,
        /// The armed shadow candidate (0 = shadow off).
        shadow: u32,
        /// Shadow mirror cadence (0 when shadow is off).
        mirror_every: u32,
        /// Version a just-run refresh registered (0 on listings, swaps,
        /// and refreshes that found no statistics).
        refreshed: u32,
        /// Every registered manifest, in version order.
        manifests: Vec<ModelManifest>,
    },
}

const TAG_ONESHOT: u8 = 0x01;
const TAG_OPEN: u8 = 0x02;
const TAG_PUSH: u8 = 0x03;
const TAG_FINISH: u8 = 0x04;
const TAG_PING: u8 = 0x05;
const TAG_SWAP: u8 = 0x08;
const TAG_SHADOW: u8 = 0x09;
const TAG_VERSIONS: u8 = 0x0a;
const TAG_REFRESH: u8 = 0x0b;
const TAG_ROUTE: u8 = 0x81;
const TAG_PUSHED: u8 = 0x82;
const TAG_REJECT: u8 = 0x83;
const TAG_FAILED: u8 = 0x84;
const TAG_PONG: u8 = 0x85;
const TAG_MODELS: u8 = 0x87;

/// Decoding bound on manifest labels (matches the registry's own cap).
const MAX_WIRE_LABEL: usize = 4096;

// ---- encoding helpers ------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_point(buf: &mut Vec<u8>, p: &CellularPoint) {
    put_u32(buf, p.tower.0);
    put_f64(buf, p.pos.x);
    put_f64(buf, p.pos.y);
    put_f64(buf, p.t);
    match p.smoothed {
        Some(s) => {
            buf.push(1);
            put_f64(buf, s.x);
            put_f64(buf, s.y);
        }
        None => buf.push(0),
    }
}

/// A cursor over one frame's payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Malformed("body shorter than declared"))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn point(&mut self) -> Result<CellularPoint, WireError> {
        let tower = TowerId(self.u32()?);
        let x = self.f64()?;
        let y = self.f64()?;
        let t = self.f64()?;
        let smoothed = match self.u8()? {
            0 => None,
            1 => Some(Point::new(self.f64()?, self.f64()?)),
            _ => return Err(WireError::Malformed("smoothed flag not 0/1")),
        };
        Ok(CellularPoint {
            tower,
            pos: Point::new(x, y),
            t,
            smoothed,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after body"))
        }
    }
}

fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::TooLarge(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Serializes one request as a frame.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<(), WireError> {
    let mut buf = Vec::new();
    match req {
        Request::OneShot { traj } => {
            buf.push(TAG_ONESHOT);
            put_u32(&mut buf, traj.points.len() as u32);
            for p in &traj.points {
                put_point(&mut buf, p);
            }
        }
        Request::Open { client, lag, version } => {
            buf.push(TAG_OPEN);
            put_u64(&mut buf, *client);
            put_u32(&mut buf, *lag);
            put_u32(&mut buf, *version);
        }
        Request::Push { client, point } => {
            buf.push(TAG_PUSH);
            put_u64(&mut buf, *client);
            put_point(&mut buf, point);
        }
        Request::Finish { client } => {
            buf.push(TAG_FINISH);
            put_u64(&mut buf, *client);
        }
        Request::Ping => buf.push(TAG_PING),
        Request::Swap { version } => {
            buf.push(TAG_SWAP);
            put_u32(&mut buf, *version);
        }
        Request::Shadow {
            version,
            mirror_every,
        } => {
            buf.push(TAG_SHADOW);
            put_u32(&mut buf, *version);
            put_u32(&mut buf, *mirror_every);
        }
        Request::Versions => buf.push(TAG_VERSIONS),
        Request::Refresh => buf.push(TAG_REFRESH),
    }
    write_frame(w, &buf)
}

/// Reads and decodes one request frame.
pub fn read_request<R: Read>(r: &mut R) -> Result<Request, WireError> {
    let payload = read_frame(r)?;
    let mut c = Cursor::new(&payload);
    let tag = c.u8()?;
    let req = match tag {
        TAG_ONESHOT => {
            let n = c.u32()? as usize;
            let mut points = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                points.push(c.point()?);
            }
            Request::OneShot {
                traj: CellularTrajectory { points },
            }
        }
        TAG_OPEN => Request::Open {
            client: c.u64()?,
            lag: c.u32()?,
            version: c.u32()?,
        },
        TAG_PUSH => Request::Push {
            client: c.u64()?,
            point: c.point()?,
        },
        TAG_FINISH => Request::Finish { client: c.u64()? },
        TAG_PING => Request::Ping,
        TAG_SWAP => Request::Swap { version: c.u32()? },
        TAG_SHADOW => Request::Shadow {
            version: c.u32()?,
            mirror_every: c.u32()?,
        },
        TAG_VERSIONS => Request::Versions,
        TAG_REFRESH => Request::Refresh,
        _ => return Err(WireError::Malformed("unknown request tag")),
    };
    c.finish()?;
    Ok(req)
}

/// Serializes one response as a frame.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<(), WireError> {
    let mut buf = Vec::new();
    match resp {
        Response::Route { segments, degraded } => {
            buf.push(TAG_ROUTE);
            buf.push(u8::from(*degraded));
            put_u32(&mut buf, segments.len() as u32);
            for s in segments {
                put_u32(&mut buf, s.0);
            }
        }
        Response::Pushed { committed } => {
            buf.push(TAG_PUSHED);
            put_u32(&mut buf, *committed);
        }
        Response::Reject(reason) => {
            buf.push(TAG_REJECT);
            buf.push(reason.code());
        }
        Response::Failed(e) => {
            buf.push(TAG_FAILED);
            buf.push(e.code);
            put_u32(&mut buf, e.a);
            put_u32(&mut buf, e.b);
        }
        Response::Pong { sessions } => {
            buf.push(TAG_PONG);
            put_u32(&mut buf, *sessions);
        }
        Response::Models {
            active,
            previous,
            shadow,
            mirror_every,
            refreshed,
            manifests,
        } => {
            buf.push(TAG_MODELS);
            put_u32(&mut buf, *active);
            put_u32(&mut buf, *previous);
            put_u32(&mut buf, *shadow);
            put_u32(&mut buf, *mirror_every);
            put_u32(&mut buf, *refreshed);
            put_u32(&mut buf, manifests.len() as u32);
            for m in manifests {
                if m.label.len() > MAX_WIRE_LABEL {
                    return Err(WireError::Malformed("manifest label too long"));
                }
                put_u32(&mut buf, m.version.0);
                put_u32(&mut buf, m.parent.map_or(0, |p| p.0));
                put_u64(&mut buf, m.fingerprint);
                put_u64(&mut buf, m.weight_bytes);
                put_u32(&mut buf, m.label.len() as u32);
                buf.extend_from_slice(m.label.as_bytes());
            }
        }
    }
    write_frame(w, &buf)
}

/// Reads and decodes one response frame.
pub fn read_response<R: Read>(r: &mut R) -> Result<Response, WireError> {
    let payload = read_frame(r)?;
    let mut c = Cursor::new(&payload);
    let tag = c.u8()?;
    let resp = match tag {
        TAG_ROUTE => {
            let degraded = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("degraded flag not 0/1")),
            };
            let n = c.u32()? as usize;
            let mut segments = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                segments.push(SegmentId(c.u32()?));
            }
            Response::Route { segments, degraded }
        }
        TAG_PUSHED => Response::Pushed {
            committed: c.u32()?,
        },
        TAG_REJECT => {
            let reason = RejectReason::from_code(c.u8()?)
                .ok_or(WireError::Malformed("unknown reject reason"))?;
            Response::Reject(reason)
        }
        TAG_FAILED => Response::Failed(WireMatchError {
            code: c.u8()?,
            a: c.u32()?,
            b: c.u32()?,
        }),
        TAG_PONG => Response::Pong {
            sessions: c.u32()?,
        },
        TAG_MODELS => {
            let active = c.u32()?;
            let previous = c.u32()?;
            let shadow = c.u32()?;
            let mirror_every = c.u32()?;
            let refreshed = c.u32()?;
            let n = c.u32()? as usize;
            let mut manifests = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let version = c.u32()?;
                let parent = c.u32()?;
                let fingerprint = c.u64()?;
                let weight_bytes = c.u64()?;
                let label_len = c.u32()? as usize;
                if label_len > MAX_WIRE_LABEL {
                    return Err(WireError::Malformed("manifest label too long"));
                }
                let label = std::str::from_utf8(c.take(label_len)?)
                    .map_err(|_| WireError::Malformed("manifest label not utf-8"))?
                    .to_string();
                manifests.push(ModelManifest {
                    version: ModelVersion(version),
                    parent: (parent != 0).then_some(ModelVersion(parent)),
                    fingerprint,
                    weight_bytes,
                    label,
                });
            }
            Response::Models {
                active,
                previous,
                shadow,
                mirror_every,
                refreshed,
                manifests,
            }
        }
        _ => return Err(WireError::Malformed("unknown response tag")),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_traj() -> CellularTrajectory {
        CellularTrajectory {
            points: vec![
                CellularPoint {
                    tower: TowerId(7),
                    pos: Point::new(120.5, -3.25),
                    t: 0.0,
                    smoothed: None,
                },
                CellularPoint {
                    tower: TowerId(9),
                    pos: Point::new(220.0, 14.0),
                    t: 30.0,
                    smoothed: Some(Point::new(200.0, 10.0)),
                },
            ],
        }
    }

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).expect("encode");
        read_request(&mut &buf[..]).expect("decode")
    }

    fn roundtrip_response(resp: Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).expect("encode");
        read_response(&mut &buf[..]).expect("decode")
    }

    #[test]
    fn requests_roundtrip_bit_exact() {
        let traj = sample_traj();
        match roundtrip_request(Request::OneShot { traj: traj.clone() }) {
            Request::OneShot { traj: got } => {
                assert_eq!(got.points.len(), traj.points.len());
                for (a, b) in got.points.iter().zip(&traj.points) {
                    assert_eq!(a.tower, b.tower);
                    assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
                    assert_eq!(a.pos.y.to_bits(), b.pos.y.to_bits());
                    assert_eq!(a.t.to_bits(), b.t.to_bits());
                    assert_eq!(
                        a.smoothed.map(|p| (p.x.to_bits(), p.y.to_bits())),
                        b.smoothed.map(|p| (p.x.to_bits(), p.y.to_bits()))
                    );
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(
            roundtrip_request(Request::Open {
                client: 42,
                lag: 3,
                version: 2
            }),
            Request::Open {
                client: 42,
                lag: 3,
                version: 2
            }
        ));
        let push = Request::Push {
            client: u64::MAX,
            point: traj.points[1],
        };
        match roundtrip_request(push) {
            Request::Push { client, point } => {
                assert_eq!(client, u64::MAX);
                assert_eq!(point.tower, TowerId(9));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(matches!(
            roundtrip_request(Request::Finish { client: 1 }),
            Request::Finish { client: 1 }
        ));
    }

    #[test]
    fn responses_roundtrip() {
        assert_eq!(
            roundtrip_response(Response::Route {
                segments: vec![SegmentId(3), SegmentId(1), SegmentId(3)],
                degraded: true,
            }),
            Response::Route {
                segments: vec![SegmentId(3), SegmentId(1), SegmentId(3)],
                degraded: true,
            }
        );
        assert_eq!(
            roundtrip_response(Response::Pushed { committed: 5 }),
            Response::Pushed { committed: 5 }
        );
        for reason in [
            RejectReason::QueueFull,
            RejectReason::SessionLimit,
            RejectReason::ShuttingDown,
            RejectReason::Oversized,
            RejectReason::Invalid,
        ] {
            assert_eq!(
                roundtrip_response(Response::Reject(reason)),
                Response::Reject(reason)
            );
        }
        let e = WireMatchError::from(&MatchError::LayerMismatch { points: 4, layers: 2 });
        assert_eq!(roundtrip_response(Response::Failed(e)), Response::Failed(e));
    }

    #[test]
    fn match_errors_roundtrip_through_wire_form() {
        for err in [
            MatchError::EmptyTrajectory,
            MatchError::NoCandidates,
            MatchError::LayerMismatch { points: 9, layers: 8 },
            MatchError::EmptyLayer { layer: 5 },
        ] {
            let wire = WireMatchError::from(&err);
            assert_eq!(wire.to_match_error(), Some(err));
        }
        assert_eq!(WireMatchError { code: 99, a: 0, b: 0 }.to_match_error(), None);
    }

    #[test]
    fn cluster_frames_roundtrip_bit_exact() {
        assert!(matches!(roundtrip_request(Request::Ping), Request::Ping));
        assert_eq!(
            roundtrip_response(Response::Pong { sessions: 12 }),
            Response::Pong { sessions: 12 }
        );
    }

    #[test]
    fn model_plane_frames_roundtrip_bit_exact() {
        assert!(matches!(
            roundtrip_request(Request::Swap { version: 4 }),
            Request::Swap { version: 4 }
        ));
        assert!(matches!(
            roundtrip_request(Request::Swap { version: 0 }),
            Request::Swap { version: 0 }
        ));
        assert!(matches!(
            roundtrip_request(Request::Shadow {
                version: 2,
                mirror_every: 5
            }),
            Request::Shadow {
                version: 2,
                mirror_every: 5
            }
        ));
        assert!(matches!(
            roundtrip_request(Request::Versions),
            Request::Versions
        ));
        assert!(matches!(roundtrip_request(Request::Refresh), Request::Refresh));

        let models = Response::Models {
            active: 2,
            previous: 1,
            shadow: 3,
            mirror_every: 4,
            refreshed: 3,
            manifests: vec![
                ModelManifest {
                    version: ModelVersion(1),
                    parent: None,
                    fingerprint: 0xdead_beef_cafe_f00d,
                    weight_bytes: 1024,
                    label: "seed".to_string(),
                },
                ModelManifest {
                    version: ModelVersion(3),
                    parent: Some(ModelVersion(1)),
                    fingerprint: u64::MAX,
                    weight_bytes: 0,
                    label: String::new(),
                },
            ],
        };
        assert_eq!(roundtrip_response(models.clone()), models);

        // Hostile label lengths are refused, not allocated.
        let mut buf = Vec::new();
        let mut body = vec![TAG_MODELS];
        for _ in 0..5 {
            put_u32(&mut body, 1);
        }
        put_u32(&mut body, 1); // one manifest
        put_u32(&mut body, 1); // version
        put_u32(&mut body, 0); // parent
        put_u64(&mut body, 0); // fingerprint
        put_u64(&mut body, 0); // weight bytes
        put_u32(&mut body, (MAX_WIRE_LABEL + 1) as u32);
        write_frame(&mut buf, &body).expect("encode");
        assert!(matches!(
            read_response(&mut &buf[..]),
            Err(WireError::Malformed("manifest label too long"))
        ));
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        // Unknown tag.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x7f]).expect("encode");
        assert!(matches!(
            read_request(&mut &buf[..]),
            Err(WireError::Malformed(_))
        ));
        // Truncated body.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[TAG_OPEN, 1, 2]).expect("encode");
        assert!(matches!(
            read_request(&mut &buf[..]),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage.
        let mut buf = Vec::new();
        let mut body = vec![TAG_FINISH];
        put_u64(&mut body, 3);
        body.push(0xee);
        write_frame(&mut buf, &body).expect("encode");
        assert!(matches!(
            read_request(&mut &buf[..]),
            Err(WireError::Malformed(_))
        ));
        // Oversized declared length.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_request(&mut &huge[..]),
            Err(WireError::TooLarge(_))
        ));
        // EOF mid-frame.
        let short = 100u32.to_le_bytes();
        assert!(matches!(read_request(&mut &short[..]), Err(WireError::Io(_))));
    }
}
