//! A synchronous protocol client.
//!
//! One [`Client`] owns one connection to one daemon and mirrors the
//! connection's positional vocabulary: the first time a name is used it
//! is announced via a `Vocab` frame (or pre-announced in bulk with
//! [`Client::sync_vocab`]); every steady-state frame after that carries
//! only `u32` ids.
//!
//! [`Client::decide_failsafe`] is the coalition's fail-safe edge: any
//! transport or protocol failure while asking a member for a decision
//! becomes a counted `DeniedCoordination` verdict instead of an error —
//! an unreachable guard never fails open.
//!
//! ## One receive path
//!
//! Every request carries an id from one per-connection counter, and
//! each reply the client's one receive loop reads completes only the
//! in-flight request with its id. A reply to a pipelined decide becomes
//! that request's verdict on receipt: `Verdict2` the verdict itself,
//! `Redirect2` and `Err2` a counted fail-safe `DeniedCoordination`
//! naming the home or the daemon's error. A synchronous call (the
//! handshake, `Vocab`, `enroll`, `arrive`, [`Client::decide`], …) is a
//! window of one on the same loop. So an `Err2` fails the request it
//! answers and nothing else, whichever caller happens to be reading.
//! Any transport, decode or correlation failure **closes** the client:
//! every later call fails at once, and no late reply of an abandoned
//! call is ever read. Hence a connection still in use has the same
//! names at the same ids on both ends.
//!
//! [`Client::pipeline`] keeps a window of up to N `Decide2` requests in
//! flight, written coalesced (one syscall flushes many requests). A full
//! window applies **backpressure** — submit blocks until a reply frees a
//! slot; nothing is ever dropped. [`Client::decide_stream_failsafe`]
//! resolves *every* request a transport failure leaves unanswered to a
//! counted `DeniedCoordination`.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use stacl_coalition::{DecisionKind, Verdict};
use stacl_ids::hash::FnvHashMap;
use stacl_obs::Counter;
use stacl_sral::ast::Access;

use crate::frames::{kind_from_u8, DecideItem, Frame, WireAccess};
use crate::wire::{self, FrameAssembler, WireError};

/// A client-side protocol failure.
#[derive(Debug)]
pub enum NetError {
    /// The transport failed (connect, read, write, timeout).
    Io(io::Error),
    /// A reply failed to decode.
    Wire(WireError),
    /// The daemon answered the request with an `Err2` frame.
    Daemon {
        /// The machine-readable code (`ERR_*`).
        code: u8,
        /// The daemon's detail message.
        msg: String,
    },
    /// The daemon answered with a frame the request does not admit.
    Protocol(String),
    /// The daemon is not the object's custodian and pointed at its
    /// placement-ring home instead. Following the hop (see [`Router`])
    /// resolves the decision at `home`; at most one hop is ever needed
    /// because every member computes the same ring.
    Redirected {
        /// The object whose decision was redirected.
        object: String,
        /// The home custodian's coalition server name.
        home: String,
        /// The home's dial address, when the redirecting daemon knows it.
        addr: Option<String>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Daemon { code, msg } => write!(f, "daemon error {code}: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Redirected { object, home, .. } => {
                write!(f, "object {object} is homed on {home}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// A connected client. Not thread-safe by design — one request stream
/// per connection, every reply matched to its request by id.
pub struct Client {
    stream: TcpStream,
    vocab: FnvHashMap<String, u32>,
    server: String,
    /// Incremental reassembly of inbound frames: one big read can carry
    /// a whole window of pipelined replies.
    asm: FrameAssembler,
    /// Coalesced, not-yet-written request frames: pipelined ones, then
    /// at most one synchronous frame, which flushes them all.
    out2: Vec<u8>,
    /// Issued request ids and what each one still in flight awaits.
    pend2: InFlight,
    /// Decide replies received but not yet claimed by the pipeline.
    done2: Vec<(u64, Verdict)>,
    /// The `remaining` buffer a pipelined `Decide2` borrows and hands
    /// back once encoded, so a warm submit allocates nothing.
    remaining: Vec<WireAccess>,
    /// Set by the first transport, decode or correlation failure (see
    /// [`Client::open`]).
    pub(crate) closed: bool,
}

/// What a request id awaits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Nothing: the id is answered, or was never issued.
    Answered,
    /// A pipelined decide, whose reply becomes a verdict on receipt.
    Decide,
    /// The synchronous call, whose reply frame goes back to the caller.
    Call,
}

/// The request ids of one connection. Ids are issued in increasing
/// order, so one slot per id from the oldest unanswered one onwards
/// correlates a reply in O(1); answered ids leave from the front.
#[derive(Default)]
struct InFlight {
    /// `open[i]`: what id `base + i` awaits.
    open: VecDeque<Slot>,
    /// Every id below `base` is answered; `base + open.len()` is the
    /// next id to issue.
    base: u64,
    len: usize,
}

impl InFlight {
    /// Issue the next id, awaiting `slot`.
    fn issue(&mut self, slot: Slot) -> u64 {
        self.open.push_back(slot);
        self.len += 1;
        self.base + self.open.len() as u64 - 1
    }

    /// Mark `id` answered and return what it awaited: `Answered` when it
    /// is not in flight (never issued, or answered already).
    fn resolve(&mut self, id: u64) -> Slot {
        let i = id
            .checked_sub(self.base)
            .and_then(|i| usize::try_from(i).ok());
        let Some(slot) = i.and_then(|i| self.open.get_mut(i)) else {
            return Slot::Answered;
        };
        let awaited = std::mem::replace(slot, Slot::Answered);
        if awaited != Slot::Answered {
            self.len -= 1;
            while self.open.front() == Some(&Slot::Answered) {
                self.open.pop_front();
                self.base += 1;
            }
        }
        awaited
    }
}

/// The verdict a reply to a pipelined decide carries. A redirect or a
/// daemon error resolves that request alone to a counted fail-safe
/// `DeniedCoordination` naming the home or the error: a window carries
/// on rather than following the hop.
fn verdict(frame: Frame) -> Result<Verdict, NetError> {
    let reason = match frame {
        Frame::Verdict2 {
            kind,
            epoch,
            reason,
            ..
        } => {
            return Ok(Verdict {
                kind: kind_from_u8(kind)?,
                epoch,
                reason,
            })
        }
        Frame::Redirect2 { object, home, .. } => {
            format!("redirected: object {object} is homed on {home}")
        }
        Frame::Err2 { code, msg, .. } => NetError::Daemon { code, msg }.to_string(),
        other => return Err(unexpected("Verdict2", &other)),
    };
    stacl_obs::count(Counter::NetFailsafeDenial);
    Ok(Verdict::denied(DecisionKind::DeniedCoordination, reason))
}

impl Client {
    /// Connect, handshake, and learn the daemon's server name. The
    /// timeout (if any) applies to connect and to every subsequent read
    /// and write.
    pub fn connect(
        addr: SocketAddr,
        name: &str,
        io_timeout: Option<Duration>,
    ) -> Result<Client, NetError> {
        let stream = match io_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let mut c = Client {
            stream,
            vocab: FnvHashMap::default(),
            server: String::new(),
            asm: FrameAssembler::new(),
            out2: Vec::new(),
            pend2: InFlight::default(),
            done2: Vec::new(),
            remaining: Vec::new(),
            closed: false,
        };
        let hello = |id| Frame::Hello {
            id,
            peer: name.to_string(),
        };
        c.server = c.call(hello, |reply| match reply {
            Frame::HelloAck { server, .. } => Ok(server),
            other => Err(unexpected("HelloAck", &other)),
        })?;
        Ok(c)
    }

    /// The daemon's coalition server name (from the handshake).
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Run `op` on the connection unless it is closed, and close it on
    /// any failure but the daemon's own answer (`Err2`, a redirect):
    /// after any other the two ends may disagree on which requests were
    /// answered and which names were announced.
    fn open<T>(
        &mut self,
        op: impl FnOnce(&mut Client) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        if self.closed {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "client closed by an earlier failure",
            )));
        }
        let out = op(self);
        if let Err(e) = &out {
            self.closed = !matches!(e, NetError::Daemon { .. } | NetError::Redirected { .. });
        }
        out
    }

    /// Write out every coalesced request frame in one write.
    fn flush_out(&mut self) -> Result<(), NetError> {
        if self.out2.is_empty() {
            return Ok(());
        }
        self.stream.write_all(&self.out2)?;
        self.out2.clear();
        stacl_obs::count(Counter::NetWriteFlush);
        Ok(())
    }

    /// The client's one receive loop. Block for the next reply, then take
    /// every further one already buffered (one read may carry a whole
    /// window), so the slots they free refill in one write. Each reply
    /// completes only the in-flight request its id names: a decide's
    /// becomes its verdict, the synchronous call's ends the pass and comes
    /// back. A reply whose id is not in flight is a protocol error.
    fn recv(&mut self) -> Result<Option<Frame>, NetError> {
        let mut got = false;
        loop {
            let frame = match self.asm.next_frame()? {
                Some(payload) => Frame::decode(payload)?,
                None if got => return Ok(None),
                None => {
                    if self.asm.read_from(&mut self.stream)? == 0 {
                        return Err(NetError::Io(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-stream",
                        )));
                    }
                    continue;
                }
            };
            got = true;
            let id = frame.id();
            match self.pend2.resolve(id) {
                Slot::Call => return Ok(Some(frame)),
                Slot::Decide => self.done2.push((id, verdict(frame)?)),
                Slot::Answered => {
                    return Err(NetError::Protocol(format!(
                        "reply correlates to no in-flight request (id {id})"
                    )))
                }
            }
        }
    }

    /// One round trip, a window of one: queue the request `frame` builds
    /// for a fresh id behind any pipelined ones, write them all at once
    /// (a synchronous frame never reaches the socket split), and receive
    /// until the reply with that id arrives; `reply` reads it. Pipelined
    /// decides answered on the way become their verdicts. `Err2` maps to
    /// [`NetError::Daemon`].
    pub(crate) fn call<T>(
        &mut self,
        frame: impl FnOnce(u64) -> Frame,
        reply: impl FnOnce(Frame) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        self.open(|c| {
            let id = c.pend2.issue(Slot::Call);
            wire::put_frame_with(&mut c.out2, |b| frame(id).encode_into(b))?;
            c.flush_out()?;
            let got = loop {
                if let Some(got) = c.recv()? {
                    break got;
                }
            };
            match got {
                Frame::Err2 { code, msg, .. } => Err(NetError::Daemon { code, msg }),
                got => reply(got),
            }
        })
    }

    pub(crate) fn expect_ok(&mut self, frame: impl FnOnce(u64) -> Frame) -> Result<(), NetError> {
        self.call(frame, |reply| match reply {
            Frame::Ok { .. } => Ok(()),
            other => Err(unexpected("Ok", &other)),
        })
    }

    /// Announce `names` (the not-yet-known ones) in one `Vocab` frame.
    pub fn sync_vocab<'a>(
        &mut self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), NetError> {
        let mut fresh: Vec<String> = Vec::new();
        for n in names {
            if !self.vocab.contains_key(n) && !fresh.iter().any(|f| f == n) {
                fresh.push(n.to_string());
            }
        }
        if fresh.is_empty() {
            return Ok(());
        }
        self.expect_ok(|id| Frame::Vocab {
            id,
            names: fresh.clone(),
        })?;
        for n in fresh {
            let id = self.vocab.len() as u32;
            self.vocab.insert(n, id);
        }
        Ok(())
    }

    fn id(&mut self, name: &str) -> Result<u32, NetError> {
        if let Some(&id) = self.vocab.get(name) {
            return Ok(id);
        }
        self.sync_vocab([name])?;
        Ok(self.vocab[name])
    }

    fn wire_access(&mut self, a: &Access) -> Result<WireAccess, NetError> {
        Ok(WireAccess {
            op: self.id(&a.op)?,
            resource: self.id(&a.resource)?,
            server: self.id(&a.server)?,
        })
    }

    /// The `Decide2` body, its `remaining` in the client's reusable
    /// buffer. An element equal to the attempted access reuses its ids.
    fn item(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<DecideItem, NetError> {
        let object = self.id(object)?;
        let attempted = self.wire_access(access)?;
        let mut buf = std::mem::take(&mut self.remaining);
        buf.clear();
        for a in remaining {
            buf.push(if a == access {
                attempted.clone()
            } else {
                self.wire_access(a)?
            });
        }
        Ok(DecideItem {
            object,
            time,
            access: attempted,
            remaining: buf,
        })
    }

    /// Enroll `object` with its activated roles on the daemon.
    pub fn enroll(&mut self, object: &str, roles: &[&str]) -> Result<(), NetError> {
        let object = self.id(object)?;
        let roles = roles
            .iter()
            .map(|r| self.id(r))
            .collect::<Result<Vec<_>, _>>()?;
        self.expect_ok(|id| Frame::Enroll { id, object, roles })
    }

    /// Announce an arrival; `from` names the previous custodian when
    /// custody must move (triggering the daemon-to-daemon handoff pull).
    pub fn arrive(&mut self, object: &str, time: f64, from: Option<&str>) -> Result<(), NetError> {
        let object = self.id(object)?;
        self.expect_ok(|id| Frame::Arrive {
            id,
            object,
            time,
            from: from.map(str::to_string),
        })
    }

    /// Replicate an execution proof onto the daemon.
    pub fn issue_proof(
        &mut self,
        object: &str,
        access: &Access,
        time: f64,
    ) -> Result<(), NetError> {
        let object = self.id(object)?;
        let access = self.wire_access(access)?;
        self.expect_ok(|id| Frame::IssueProof {
            id,
            object,
            access,
            time,
        })
    }

    /// Ask for one decision. `remaining` is the object's declared future
    /// accesses, including the attempted one.
    pub fn decide(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<Verdict, NetError> {
        let item = self.item(object, access, remaining, time)?;
        self.call(
            |id| Frame::Decide2 { id, item },
            |reply| match reply {
                Frame::Redirect2 {
                    object, home, addr, ..
                } => Err(NetError::Redirected { object, home, addr }),
                reply => verdict(reply),
            },
        )
    }

    /// [`decide`](Client::decide), but any failure — unreachable daemon,
    /// timeout, protocol error — resolves to the fail-safe
    /// `DeniedCoordination` and counts `net.failsafe-denial`.
    pub fn decide_failsafe(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Verdict {
        match self.decide(object, access, remaining, time) {
            Ok(v) => v,
            Err(e) => {
                stacl_obs::count(Counter::NetFailsafeDenial);
                Verdict::denied(
                    DecisionKind::DeniedCoordination,
                    format!("coalition member unreachable: {e}"),
                )
            }
        }
    }

    /// Phase 1 of a coalition-wide policy rollout: ship the replacement
    /// policy text (see `stacl_rbac::policy`) plus validity-class
    /// definitions `(name, duration, wire scheme)` and have the daemon
    /// build — but not install — the epoch. Returns the acknowledged
    /// epoch.
    pub fn policy_prepare(
        &mut self,
        epoch: u64,
        policy: &str,
        classes: &[(String, f64, u8)],
    ) -> Result<u64, NetError> {
        let prepare = |id| Frame::PolicyPrepare {
            id,
            epoch,
            policy: policy.to_string(),
            classes: classes.to_vec(),
        };
        self.call(prepare, epoch_ack)
    }

    /// Phase 2: flip the daemon to the epoch it prepared. Returns the
    /// now-active epoch; a daemon that missed the prepare answers with a
    /// daemon error and fail-safes its decisions until a full rollout
    /// round reaches it.
    pub fn policy_activate(&mut self, epoch: u64) -> Result<u64, NetError> {
        self.call(|id| Frame::PolicyActivate { id, epoch }, epoch_ack)
    }

    /// Fetch the daemon's metrics snapshot as JSON.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        self.call(
            |id| Frame::MetricsRequest { id },
            |reply| match reply {
                Frame::MetricsJson { json, .. } => Ok(json),
                other => Err(unexpected("MetricsJson", &other)),
            },
        )
    }

    /// Ask the daemon to shut down.
    pub fn shutdown_daemon(&mut self) -> Result<(), NetError> {
        self.expect_ok(|id| Frame::Shutdown { id })
    }

    /// Open a pipelined view over this connection with a window of up to
    /// `window` in-flight requests. Infallible; the `Result` is kept so
    /// callers that match on it keep compiling. On a closed client the
    /// first submit fails.
    pub fn pipeline(&mut self, window: usize) -> Result<Pipeline<'_>, NetError> {
        Ok(Pipeline {
            window: window.max(1),
            client: self,
        })
    }

    /// Drive `requests` through a pipelined window, resolving **every**
    /// unresolved request to a counted fail-safe `DeniedCoordination` on
    /// any transport or protocol failure — a dying member mid-window
    /// never hangs the caller and never loses a request. Verdicts come
    /// back in request order.
    pub fn decide_stream_failsafe(
        &mut self,
        requests: &[(&str, &Access, &[Access], f64)],
        window: usize,
    ) -> Vec<Verdict> {
        // Each verdict is placed by the id its submit returned: a submit
        // that announces a new name spends ids on `Vocab` calls too, so
        // request ids need not be consecutive. Ids only grow, so `ids` is
        // sorted; a completion left over from an earlier pipeline on this
        // connection matches none of them and is dropped.
        let mut ids = Vec::with_capacity(requests.len());
        let failure = (|| -> Result<(), NetError> {
            let mut p = self.pipeline(window)?;
            for (object, access, remaining, time) in requests {
                ids.push(p.submit(object, access, remaining, *time)?);
            }
            self.done2 = p.finish()?;
            Ok(())
        })()
        .err();
        // Completions that arrived before a failure are still verdicts.
        let mut out = vec![None; requests.len()];
        for (id, v) in std::mem::take(&mut self.done2) {
            if let Ok(i) = ids.binary_search(&id) {
                out[i] = Some(v);
            }
        }
        out.into_iter()
            .map(|v| match v {
                Some(v) => v,
                None => {
                    stacl_obs::count(Counter::NetFailsafeDenial);
                    Verdict::denied(
                        DecisionKind::DeniedCoordination,
                        match &failure {
                            Some(e) => format!("coalition member unreachable: {e}"),
                            None => "coalition member unreachable".to_string(),
                        },
                    )
                }
            })
            .collect()
    }
}

fn epoch_ack(reply: Frame) -> Result<u64, NetError> {
    match reply {
        Frame::EpochAck { epoch, .. } => Ok(epoch),
        other => Err(unexpected("EpochAck", &other)),
    }
}

/// A pipelined view over a [`Client`] connection: up to
/// `window` request-id-correlated decisions in flight, coalesced writes,
/// backpressure when the window fills. Its methods are thin wrappers on
/// the client's one receive loop. Dropping the view keeps any unclaimed
/// completions on the client for the next pipelined use.
pub struct Pipeline<'a> {
    client: &'a mut Client,
    window: usize,
}

impl Pipeline<'_> {
    /// Requests submitted but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.client.pend2.len
    }

    /// Queue one decision, returning its request id. When the window is
    /// full this **blocks** (flushes, then waits for a completion) —
    /// backpressure, never drops. The wait takes every reply already
    /// received, so the freed slots refill before the next flush.
    pub fn submit(
        &mut self,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<u64, NetError> {
        self.client.open(|c| {
            while c.pend2.len >= self.window {
                c.flush_out()?;
                c.recv()?;
            }
            // Vocabulary sync may issue synchronous calls; each flushes
            // the queued request bytes first, so every name is announced
            // before the requests that use it.
            let item = c.item(object, access, remaining, time)?;
            let id = c.pend2.issue(Slot::Decide);
            let frame = Frame::Decide2 { id, item };
            wire::put_frame_with(&mut c.out2, |b| frame.encode_into(b))?;
            if let Frame::Decide2 { item, .. } = frame {
                c.remaining = item.remaining;
            }
            Ok(id)
        })
    }

    /// Claim completions that have already arrived (never blocks).
    pub fn take(&mut self) -> Vec<(u64, Verdict)> {
        std::mem::take(&mut self.client.done2)
    }

    /// Flush queued requests and block until at least one completion is
    /// available (or the window is empty), then claim it and every other
    /// reply already received.
    pub fn recv_some(&mut self) -> Result<Vec<(u64, Verdict)>, NetError> {
        self.client.open(|c| {
            c.flush_out()?;
            if c.done2.is_empty() && c.pend2.len > 0 {
                c.recv()?;
            }
            Ok(std::mem::take(&mut c.done2))
        })
    }

    /// Flush and drain the whole window, claiming every completion.
    pub fn finish(self) -> Result<Vec<(u64, Verdict)>, NetError> {
        self.client.open(|c| {
            c.flush_out()?;
            while c.pend2.len > 0 {
                c.recv()?;
            }
            Ok(std::mem::take(&mut c.done2))
        })
    }
}

/// A coalition-aware client pool that follows placement redirects.
///
/// Holds one lazily-dialed [`Client`] per member. A decision sent to the
/// wrong member comes back as a [`Frame::Redirect2`] naming the object's
/// ring home; the router re-issues the decision there. Because every
/// member computes the same rendezvous ring, **one hop always
/// suffices** — a second redirect is reported as a protocol error rather
/// than followed. A cached client that a failure closed is replaced by a
/// fresh dial on its member's next call, never reused.
pub struct Router {
    name: String,
    io_timeout: Option<Duration>,
    addrs: FnvHashMap<String, SocketAddr>,
    clients: FnvHashMap<String, Client>,
}

impl Router {
    /// A router greeting daemons as `name`.
    pub fn new(name: &str, io_timeout: Option<Duration>) -> Router {
        Router {
            name: name.to_string(),
            io_timeout,
            addrs: FnvHashMap::default(),
            clients: FnvHashMap::default(),
        }
    }

    /// Register (or update) a member's dial address. An existing cached
    /// connection to that member is dropped so the next call re-dials.
    pub fn add_member(&mut self, member: &str, addr: SocketAddr) {
        self.addrs.insert(member.to_string(), addr);
        self.clients.remove(member);
    }

    /// The connected client for `member`, dialing on first use and
    /// again once a failure has closed the cached one.
    pub fn client(&mut self, member: &str) -> Result<&mut Client, NetError> {
        if self.clients.get(member).is_none_or(|c| c.closed) {
            let addr = *self
                .addrs
                .get(member)
                .ok_or_else(|| NetError::Protocol(format!("unknown member {member}")))?;
            let c = Client::connect(addr, &self.name, self.io_timeout)?;
            self.clients.insert(member.to_string(), c);
        }
        Ok(self.clients.get_mut(member).expect("inserted above"))
    }

    /// Decide via `member`, following at most one placement redirect.
    /// Returns the verdict and the member that actually answered.
    pub fn decide(
        &mut self,
        member: &str,
        object: &str,
        access: &Access,
        remaining: &[Access],
        time: f64,
    ) -> Result<(Verdict, String), NetError> {
        match self.client(member)?.decide(object, access, remaining, time) {
            Ok(v) => Ok((v, member.to_string())),
            Err(NetError::Redirected { home, addr, .. }) => {
                // Learn the address the redirecting daemon told us, then
                // take the single hop to the home custodian.
                if let Some(a) = addr.and_then(|a| a.parse::<SocketAddr>().ok()) {
                    self.addrs.entry(home.clone()).or_insert(a);
                }
                match self.client(&home)?.decide(object, access, remaining, time) {
                    Ok(v) => Ok((v, home)),
                    Err(NetError::Redirected { home: again, .. }) => Err(NetError::Protocol(
                        format!("{object} redirected twice: {member} -> {home} -> {again}"),
                    )),
                    Err(e) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }
}

pub(crate) fn unexpected(wanted: &str, got: &Frame) -> NetError {
    NetError::Protocol(format!("expected {wanted}, got {got:?}"))
}
