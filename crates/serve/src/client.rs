//! Blocking in-crate client for the `lhmm-serve` wire protocol.
//!
//! One [`ServeClient`] wraps one TCP connection and speaks strict
//! request/response: every call writes one frame and blocks for exactly
//! one response frame. Typed outcomes are split three ways — transport
//! problems ([`ClientError::Wire`]), admission sheds
//! ([`ClientError::Rejected`], retryable), and matching verdicts
//! ([`ClientError::Failed`], not retryable for the same input).

use crate::admission::RejectReason;
use crate::protocol::{
    read_response, write_request, Request, Response, WireError,
};
use lhmm_cellsim::traj::{CellularPoint, CellularTrajectory};
use lhmm_core::error::MatchError;
use lhmm_core::registry::ModelManifest;
use lhmm_network::graph::SegmentId;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};

/// A matched route as the client sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteReply {
    /// Matched segment sequence.
    pub segments: Vec<SegmentId>,
    /// True when the server flagged the match as best-effort (degraded).
    pub degraded: bool,
}

/// The server's model-plane state as the client sees it (the reply to
/// Swap/Shadow/Versions/Refresh requests).
#[derive(Clone, Debug, PartialEq)]
pub struct ModelsReply {
    /// Version currently serving new admissions.
    pub active: u32,
    /// Version active before the last swap (0 when there is none).
    pub previous: u32,
    /// Shadow candidate version (0 when shadow mode is off).
    pub shadow: u32,
    /// Every `mirror_every`-th one-shot is mirrored to the shadow.
    pub mirror_every: u32,
    /// Version a Refresh just minted (0 when nothing was produced).
    pub refreshed: u32,
    /// Manifests of every registered version, in version order.
    pub manifests: Vec<ModelManifest>,
}

/// Everything a service call can come back with besides a result.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server shed the request at admission; retry later (or
    /// elsewhere) depending on the reason.
    Rejected(RejectReason),
    /// Matching itself failed with a typed [`MatchError`].
    Failed(MatchError),
    /// The server answered with a frame that does not fit the request
    /// (protocol violation).
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "transport: {e}"),
            ClientError::Rejected(r) => write!(f, "rejected: {r}"),
            ClientError::Failed(e) => write!(f, "match failed: {e}"),
            ClientError::Unexpected(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// True when this is an admission shed (the retryable class).
    pub fn is_rejected(&self) -> bool {
        matches!(self, ClientError::Rejected(_))
    }

    /// The shed reason, when this is a rejection.
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            ClientError::Rejected(r) => Some(*r),
            _ => None,
        }
    }
}

fn decode_failed(code: crate::protocol::WireMatchError) -> ClientError {
    match code.to_match_error() {
        Some(e) => ClientError::Failed(e),
        None => ClientError::Unexpected("unknown match-error code"),
    }
}

/// A blocking connection to an `lhmm-serve` server.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.stream, req)?;
        Ok(read_response(&mut self.stream)?)
    }

    /// Matches a complete trajectory through the server's batcher.
    pub fn one_shot(&mut self, traj: &CellularTrajectory) -> Result<RouteReply, ClientError> {
        match self.call(&Request::OneShot { traj: traj.clone() })? {
            Response::Route { segments, degraded } => Ok(RouteReply { segments, degraded }),
            Response::Reject(reason) => Err(ClientError::Rejected(reason)),
            Response::Failed(e) => Err(decode_failed(e)),
            _ => Err(ClientError::Unexpected("non-route reply to OneShot")),
        }
    }

    /// Opens (or reopens) the streaming session keyed `client`, pinned to
    /// whatever model version is active at admission.
    pub fn open(&mut self, client: u64, lag: u32) -> Result<(), ClientError> {
        self.open_versioned(client, lag, 0)
    }

    /// Opens a session pinned to an explicit registry `version` (0 means
    /// "the active version"). An unknown version is shed with
    /// [`RejectReason::Invalid`].
    pub fn open_versioned(
        &mut self,
        client: u64,
        lag: u32,
        version: u32,
    ) -> Result<(), ClientError> {
        match self.call(&Request::Open { client, lag, version })? {
            Response::Pushed { .. } => Ok(()),
            Response::Reject(reason) => Err(ClientError::Rejected(reason)),
            Response::Failed(e) => Err(decode_failed(e)),
            _ => Err(ClientError::Unexpected("non-ack reply to Open")),
        }
    }

    /// Feeds one observation; returns the newly committed count.
    ///
    /// `Err(Failed(NoCandidates))` and `Err(Failed(EmptyLayer { .. }))`
    /// mark a single unmatchable observation — the session survives and
    /// the caller keeps streaming.
    pub fn push(&mut self, client: u64, point: &CellularPoint) -> Result<u32, ClientError> {
        match self.call(&Request::Push {
            client,
            point: *point,
        })? {
            Response::Pushed { committed } => Ok(committed),
            Response::Reject(reason) => Err(ClientError::Rejected(reason)),
            Response::Failed(e) => Err(decode_failed(e)),
            _ => Err(ClientError::Unexpected("non-ack reply to Push")),
        }
    }

    /// Finalizes the session and returns the complete route.
    pub fn finish(&mut self, client: u64) -> Result<RouteReply, ClientError> {
        match self.call(&Request::Finish { client })? {
            Response::Route { segments, degraded } => Ok(RouteReply { segments, degraded }),
            Response::Reject(reason) => Err(ClientError::Rejected(reason)),
            Response::Failed(e) => Err(decode_failed(e)),
            _ => Err(ClientError::Unexpected("non-route reply to Finish")),
        }
    }

    /// Health check: answered even while a shard is draining. Returns
    /// the number of live streaming sessions on the other side.
    pub fn ping(&mut self) -> Result<u32, ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong { sessions } => Ok(sessions),
            Response::Reject(reason) => Err(ClientError::Rejected(reason)),
            Response::Failed(e) => Err(decode_failed(e)),
            _ => Err(ClientError::Unexpected("non-pong reply to Ping")),
        }
    }

    fn expect_models(resp: Response, what: &'static str) -> Result<ModelsReply, ClientError> {
        match resp {
            Response::Models {
                active,
                previous,
                shadow,
                mirror_every,
                refreshed,
                manifests,
            } => Ok(ModelsReply {
                active,
                previous,
                shadow,
                mirror_every,
                refreshed,
                manifests,
            }),
            Response::Reject(reason) => Err(ClientError::Rejected(reason)),
            Response::Failed(e) => Err(decode_failed(e)),
            _ => Err(ClientError::Unexpected(what)),
        }
    }

    /// Promotes `version` to active (hot swap). In-flight work keeps the
    /// version it was admitted under; only new admissions see the change.
    pub fn swap(&mut self, version: u32) -> Result<ModelsReply, ClientError> {
        let resp = self.call(&Request::Swap { version })?;
        Self::expect_models(resp, "non-models reply to Swap")
    }

    /// Rolls back to the previously active version.
    pub fn rollback(&mut self) -> Result<ModelsReply, ClientError> {
        self.swap(0)
    }

    /// Mirrors every `mirror_every`-th one-shot through candidate
    /// `version` (shadow A/B). Shadow verdicts never reach clients; they
    /// only feed the per-version report lanes.
    pub fn set_shadow(
        &mut self,
        version: u32,
        mirror_every: u32,
    ) -> Result<ModelsReply, ClientError> {
        let resp = self.call(&Request::Shadow { version, mirror_every })?;
        Self::expect_models(resp, "non-models reply to Shadow")
    }

    /// Turns shadow mode off.
    pub fn clear_shadow(&mut self) -> Result<ModelsReply, ClientError> {
        let resp = self.call(&Request::Shadow {
            version: 0,
            mirror_every: 0,
        })?;
        Self::expect_models(resp, "non-models reply to Shadow")
    }

    /// Lists every registered model version with its manifest.
    pub fn versions(&mut self) -> Result<ModelsReply, ClientError> {
        let resp = self.call(&Request::Versions)?;
        Self::expect_models(resp, "non-models reply to Versions")
    }

    /// Folds the accumulated refresh statistics into a new candidate
    /// version (not promoted). `refreshed` in the reply is 0 when no
    /// statistics had accumulated.
    pub fn refresh(&mut self) -> Result<ModelsReply, ClientError> {
        let resp = self.call(&Request::Refresh)?;
        Self::expect_models(resp, "non-models reply to Refresh")
    }
}
