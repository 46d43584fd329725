//! The per-server coalition daemon.
//!
//! One daemon hosts one [`CoordinatedGuard`] shard — the guard of one
//! coalition member — behind a [`std::net::TcpListener`]. A single
//! **readiness-driven event loop** (hand-rolled [`crate::sys::poll`],
//! nonblocking sockets) multiplexes every connection: per-connection
//! read reassembly via [`FrameAssembler`], per-connection coalesced
//! write buffers flushed in one syscall, and many in-flight requests per
//! connection. Each connection keeps its own positional vocabulary (names
//! interned by [`Frame::Vocab`] announcements) and its own
//! [`AccessTable`] (verdicts are table-independent, so per-connection
//! interning is sound).
//!
//! ## Replies
//!
//! One connection's requests are applied in arrival order, and every
//! reply echoes its request's id, so a reply is encoded onto the
//! connection's out-buffer as soon as it exists. The only slow operation
//! (the custody handoff pull of an `Arrive` or `Rebalance`, which dials a
//! peer with retries and backoff) runs on a helper thread, and its reply
//! follows when the pull lands; replies to later requests overtake it.
//! The event loop itself never blocks on a peer.
//!
//! ## Custody and the handoff pull
//!
//! With custody enforcement on, the daemon only decides for objects whose
//! custody is [`Custody::Resident`]. An [`Frame::Arrive`] naming a
//! previous custodian triggers a **pull**: the receiving daemon marks the
//! object in-flight, dials the peer, and requests its
//! [`crate::frames::HandoffWire`] (proof watermark, temporal timelines,
//! spatial approvals, cursor seeds, clock fields). Only after the state
//! imports cleanly does the object become resident here — and the peer
//! marked it remote when it exported, so exactly one member ever decides
//! for the object. While the pull is in flight — or if the peer stays
//! unreachable after bounded retries with doubling backoff — decisions
//! fail safe to `DeniedCoordination`.
//!
//! Clock skew travels explicitly: the sender stamps its skewed clock view
//! into the payload and the receiver counts a `clock.regression` when
//! admitting the arrival would move its own skewed clock backwards.
//!
//! ## Slow-loris eviction
//!
//! A connection that stalls mid-frame (bytes of a header trickled in,
//! then silence) holds only its own [`FrameAssembler`] — other
//! connections keep flowing. Past [`DaemonConfig::partial_deadline`] the
//! loop evicts the stalled connection and counts `net.partial-eviction`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use stacl_coalition::{DecisionKind, ProofStore, Verdict};
use stacl_ids::hash::FnvHashMap;
use stacl_ids::sync::{Mutex, RwLock};
use stacl_naplet::guard::{CoordinatedGuard, Custody, GuardRequest};
use stacl_obs::Counter;
use stacl_rbac::policy::parse_policy;
use stacl_rbac::PreparedEpoch;
use stacl_sral::ast::{Access, Name};
use stacl_sral::Program;
use stacl_temporal::TimePoint;
use stacl_trace::AccessTable;

use crate::client::Client;
use crate::frames::{
    header_id, scheme_from_u8, DecideItem, Frame, HandoffWire, WireAccess, ERR_BAD_REQUEST,
    ERR_HANDOFF, ERR_NOT_CUSTODIAN, ERR_STATE,
};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::wire::{self, FrameAssembler};

/// Daemon configuration. `listen` defaults to an ephemeral loopback port
/// so tests and the sim driver can spawn coalitions without port math.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// This member's coalition server name.
    pub name: String,
    /// Bind address, e.g. `127.0.0.1:0`.
    pub listen: String,
    /// This member's clock skew in seconds (stamped into handoffs).
    pub skew: f64,
    /// Handoff retry attempts after the first try.
    pub handoff_retries: u32,
    /// Initial handoff retry backoff; doubles per retry.
    pub handoff_backoff: Duration,
    /// Connect/read/write timeout for daemon→daemon calls.
    pub io_timeout: Duration,
    /// How long a connection may sit stalled mid-frame before the event
    /// loop evicts it (counted `net.partial-eviction`).
    pub partial_deadline: Duration,
    /// Proof-history compaction trigger: once an object holds at least
    /// this many *live* (uncompacted) proofs, the daemon folds the
    /// prefix every warm cursor has consumed past into a sealed summary
    /// after issuing, bounding resident memory per object. `0` disables
    /// compaction.
    pub compact_after: usize,
}

impl DaemonConfig {
    /// Defaults: ephemeral loopback port, zero skew, 3 retries starting
    /// at 10 ms, 2 s peer-I/O timeout, 5 s stalled-partial eviction,
    /// compaction once 512 live proofs accumulate on an object.
    pub fn new(name: impl Into<String>) -> Self {
        DaemonConfig {
            name: name.into(),
            listen: "127.0.0.1:0".to_string(),
            skew: 0.0,
            handoff_retries: 3,
            handoff_backoff: Duration::from_millis(10),
            io_timeout: Duration::from_secs(2),
            partial_deadline: Duration::from_secs(5),
            compact_after: 512,
        }
    }
}

struct Shared {
    guard: CoordinatedGuard,
    proofs: ProofStore,
    cfg: DaemonConfig,
    addr: SocketAddr,
    peers: RwLock<FnvHashMap<String, SocketAddr>>,
    shutdown: AtomicBool,
    /// Write side of the event loop's wake channel (a loopback TCP
    /// self-pair — the workspace has no `libc` for a real pipe). One
    /// byte unblocks a parked [`sys::poll`].
    wake_tx: TcpStream,
    /// The epoch built by the last `PolicyPrepare`, awaiting its
    /// `PolicyActivate` (two-phase coalition-wide rollout).
    pending_epoch: Mutex<Option<PreparedEpoch>>,
    /// Set when this member missed (or failed) a rollout phase another
    /// member completed: a `PolicyActivate` arrived with no matching
    /// prepared epoch. While set, decisions fail safe to
    /// `DeniedCoordination` — this member must never answer under an
    /// epoch the coalition has moved past, and must never mix epochs
    /// within one decision or batch. A subsequent complete
    /// prepare+activate round clears it.
    epoch_desync: AtomicBool,
}

/// A handle to a spawned daemon: its bound address, peer registration,
/// and termination. Dropping the handle shuts the daemon down.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// Build the event loop's wake channel: a connected loopback TCP pair.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    tx.set_nodelay(true)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    Ok((rx, tx))
}

/// Spawn a daemon serving `guard`/`proofs` per `cfg`. Returns once the
/// listener is bound and accepting.
pub fn spawn(
    guard: CoordinatedGuard,
    proofs: ProofStore,
    cfg: DaemonConfig,
) -> io::Result<DaemonHandle> {
    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    let (wake_rx, wake_tx) = wake_pair()?;
    let shared = Arc::new(Shared {
        guard,
        proofs,
        cfg,
        addr,
        peers: RwLock::new(FnvHashMap::default()),
        shutdown: AtomicBool::new(false),
        wake_tx,
        pending_epoch: Mutex::new(None),
        epoch_desync: AtomicBool::new(false),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name(format!("stacl-net-{}", shared.cfg.name))
            .spawn(move || event_loop(&shared, listener, wake_rx))?
    };
    Ok(DaemonHandle {
        shared,
        accept: Some(accept),
    })
}

impl DaemonHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// This member's coalition server name.
    pub fn name(&self) -> &str {
        &self.shared.cfg.name
    }

    /// Register (or update) a peer member's address for handoff pulls.
    pub fn add_peer(&self, name: &str, addr: SocketAddr) {
        self.shared.peers.write().insert(name.to_string(), addr);
    }

    /// Install the coalition membership: a placement ring over exactly
    /// the named members (this daemon included or not — leaving itself
    /// off the list is a graceful leave that drains everything it holds)
    /// plus their dial addresses. Then **rebalance**: every resident
    /// object whose ring home moved off this member is pushed to its new
    /// home with a [`Frame::Rebalance`], which makes the new home pull
    /// custody through the ordinary handoff machinery (helper threads,
    /// bounded retries, fail-safe `DeniedCoordination` while in flight).
    /// Only keys whose home actually moved drain; the rest never notice.
    ///
    /// Peer addresses accumulate — a departed member's address is kept so
    /// late pulls *from* it still resolve. Returns the number of objects
    /// whose drain was initiated.
    pub fn set_members(&self, members: &[(String, SocketAddr)]) -> usize {
        {
            let mut peers = self.shared.peers.write();
            for (name, addr) in members {
                if name != &self.shared.cfg.name {
                    peers.insert(name.clone(), *addr);
                }
            }
        }
        let ring = stacl_coalition::Placement::new(members.iter().map(|(n, _)| n.clone()));
        self.shared
            .guard
            .set_placement(&self.shared.cfg.name, ring.clone());
        if ring.is_empty() {
            return 0;
        }
        let moves: Vec<(String, String)> = self
            .shared
            .guard
            .resident_objects()
            .into_iter()
            .filter_map(|obj| {
                let home = ring.home_of(&obj)?.to_string();
                (home != self.shared.cfg.name).then_some((obj, home))
            })
            .collect();
        let n = moves.len();
        if n > 0 {
            let shared = Arc::clone(&self.shared);
            let _ = thread::Builder::new()
                .name("stacl-net-rebalance".to_string())
                .spawn(move || {
                    let peers = shared.peers.read().clone();
                    for (object, home) in moves {
                        let Some(addr) = peers.get(&home).copied() else {
                            continue;
                        };
                        if rebalance_push(&shared, addr, &object).is_ok() {
                            stacl_obs::count(Counter::PlacementRebalance);
                        }
                    }
                });
        }
        n
    }

    /// The hosted guard, for pre-wiring state (enrollments, custody
    /// enforcement) before traffic arrives.
    pub fn guard(&self) -> &CoordinatedGuard {
        &self.shared.guard
    }

    /// The hosted proof store — the million-object bench reads its live
    /// proof counts as the RSS proxy for compaction effectiveness.
    pub fn proofs(&self) -> &ProofStore {
        &self.shared.proofs
    }

    /// Stop accepting, sever live connections, and join the event loop.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        initiate_shutdown(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Fault injection: terminate abruptly. In-flight requests on severed
    /// connections observe an I/O error, which clients translate into the
    /// counted fail-safe `DeniedCoordination`.
    pub fn kill(&mut self) {
        self.shutdown();
    }

    /// Block until the daemon stops (a `Shutdown` frame or [`kill`]).
    /// Used by `stacl serve`.
    ///
    /// [`kill`]: DaemonHandle::kill
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    wake(shared);
}

/// Unblock a parked event loop. Failures are ignored: a dead wake socket
/// means the loop already exited.
fn wake(shared: &Shared) {
    let _ = (&shared.wake_tx).write_all(&[1]);
}

/// Per-connection event-loop state.
struct Conn {
    serial: u64,
    stream: TcpStream,
    asm: FrameAssembler,
    /// Coalesced outbound bytes; one `write` flushes many frames.
    out: Vec<u8>,
    out_pos: usize,
    /// Names interned by `Vocab` announcements, by position; requests
    /// clone the `Arc`s rather than copy the strings.
    vocab: Vec<Name>,
    table: AccessTable,
    /// When the connection first stalled mid-frame (slow-loris clock).
    partial_since: Option<Instant>,
    dead: bool,
}

/// A helper thread finished the handoff pull a request of connection
/// `serial` asked for; `reply` carries that request's id.
struct Completion {
    serial: u64,
    reply: Frame,
    /// Set when the pull imported custody successfully: the object name
    /// plus the arrival time to note (`None` for a verdict-neutral
    /// rebalance pull). The arrival is applied by the event loop at
    /// drain time — even when the requesting connection has since died —
    /// so an orphaned completion never strands imported custody.
    imported: Option<(String, Option<TimePoint>)>,
}

fn event_loop(shared: &Arc<Shared>, listener: TcpListener, wake_rx: TcpStream) {
    let _ = listener.set_nonblocking(true);
    let (ctx, crx) = mpsc::channel::<Completion>();
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_serial: u64 = 0;

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }

        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        for c in &conns {
            let mut ev = POLLIN;
            if !c.out.is_empty() {
                ev |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
        }
        let n = match sys::poll(&mut fds, poll_timeout(&conns, shared.cfg.partial_deadline)) {
            Ok(n) => n,
            Err(_) => {
                thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if n > 0 {
            stacl_obs::count(Counter::NetWakeup);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }

        if fds[1].readable() {
            drain_wake(&wake_rx);
        }

        // Helper-thread pull completions: send the reply. Custody side
        // effects apply first, unconditionally — a completion whose
        // connection died mid-pull must still land its imported object
        // (counted `net.orphaned-completion`), or custody would silently
        // vanish from the coalition.
        while let Ok(c) = crx.try_recv() {
            if let Some((object, Some(t))) = &c.imported {
                shared.guard.note_arrival(object, *t);
            }
            if let Some(conn) = conns.iter_mut().find(|k| k.serial == c.serial) {
                put_out(conn, &c.reply);
                write_out(conn);
            } else {
                // The requester is gone; the import above already
                // re-parked the object as resident here, so only the
                // reply is lost.
                stacl_obs::count(Counter::NetOrphanedCompletion);
            }
        }

        if fds[0].readable() {
            accept_ready(shared, &listener, &mut conns, &mut next_serial);
        }

        let polled = conns.len().min(fds.len().saturating_sub(2));
        let mut shutdown_requested = false;
        for i in 0..polled {
            let (readable, writable) = (fds[2 + i].readable(), fds[2 + i].writable());
            let conn = &mut conns[i];
            if writable {
                write_out(conn);
            }
            if readable && !conn.dead {
                if !read_conn(conn) {
                    conn.dead = true;
                }
                // A read that hit EOF or an I/O error may still have left
                // complete frames in the assembler — but the peer is gone
                // and can never observe a reply, so processing them would
                // mutate guard state (verdict counters, custody) on
                // behalf of a severed client. Skip them.
                if !conn.dead && process_frames(shared, &ctx, conn) {
                    shutdown_requested = true;
                }
            }
            // Slow-loris clock: ticking only while a frame sits
            // incomplete in the assembler.
            if conn.asm.has_partial() {
                if conn.partial_since.is_none() {
                    conn.partial_since = Some(Instant::now());
                }
            } else {
                conn.partial_since = None;
            }
        }

        for c in conns.iter_mut() {
            if c.dead {
                continue;
            }
            if let Some(t0) = c.partial_since {
                if t0.elapsed() >= shared.cfg.partial_deadline {
                    c.dead = true;
                    stacl_obs::count(Counter::NetPartialEviction);
                }
            }
        }
        conns.retain(|c| !c.dead);

        if shutdown_requested {
            // Best-effort: let the Shutdown reply (and anything queued
            // before it) leave before severing connections.
            for _ in 0..50 {
                if conns.iter().all(|c| c.out.is_empty()) {
                    break;
                }
                for c in conns.iter_mut() {
                    write_out(c);
                }
                thread::sleep(Duration::from_millis(1));
            }
            initiate_shutdown(shared);
            break;
        }
    }
}

/// Milliseconds until the earliest stalled-partial eviction is due, or
/// `-1` (sleep until I/O or a wake byte) when nothing is stalled.
fn poll_timeout(conns: &[Conn], deadline: Duration) -> i32 {
    let mut best: Option<Duration> = None;
    for c in conns {
        if let Some(t0) = c.partial_since {
            let left = deadline.saturating_sub(t0.elapsed());
            best = Some(best.map_or(left, |b| b.min(left)));
        }
    }
    match best {
        Some(d) => (d.as_millis().min(60_000) as i32).saturating_add(1),
        None => -1,
    }
}

fn drain_wake(mut rx: &TcpStream) {
    let mut buf = [0u8; 64];
    loop {
        match rx.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn accept_ready(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    next_serial: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                // Per-connection interning state: positional vocabulary
                // plus an access table pre-saturated with the policy
                // alphabet (verdicts are table-independent, so
                // connections never share one).
                let mut table = AccessTable::new();
                shared
                    .guard
                    .with_rbac_read(|r| r.saturate_alphabet(&mut table));
                *next_serial += 1;
                conns.push(Conn {
                    serial: *next_serial,
                    stream,
                    asm: FrameAssembler::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    vocab: Vec::new(),
                    table,
                    partial_since: None,
                    dead: false,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Drain the socket into the assembler. Returns `false` when the
/// connection is finished (EOF, I/O error, or hostile frame length).
fn read_conn(conn: &mut Conn) -> bool {
    loop {
        match conn.asm.read_from(&mut conn.stream) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Decode and handle every complete frame the assembler holds, then
/// write the replies. A payload that fails to decode is answered with an
/// `Err2` carrying the id from its header; one too short to hold an id
/// has no request to answer, so it closes the connection. Returns `true`
/// when a `Shutdown` frame arrived.
fn process_frames(shared: &Arc<Shared>, ctx: &mpsc::Sender<Completion>, conn: &mut Conn) -> bool {
    let mut shutdown = false;
    while !shutdown && !conn.dead {
        let decoded = match conn.asm.next_frame() {
            Ok(Some(payload)) => Frame::decode(payload).map_err(|e| (e, header_id(payload))),
            Ok(None) => break,
            Err(_) => {
                conn.dead = true;
                break;
            }
        };
        match decoded {
            Ok(frame) => {
                shutdown = matches!(frame, Frame::Shutdown { .. });
                handle_frame(shared, ctx, conn, frame);
            }
            Err((e, Some(id))) => put_out(conn, &Reject::bad(e.to_string()).into_frame(id)),
            Err((_, None)) => conn.dead = true,
        }
    }
    write_out(conn);
    shutdown
}

/// Encode `frame` straight onto the out-buffer. A reply too large to
/// frame kills the connection.
fn put_out(conn: &mut Conn, frame: &Frame) {
    if wire::put_frame_with(&mut conn.out, |b| frame.encode_into(b)).is_err() {
        conn.dead = true;
    }
}

/// Write as much of the out-buffer as the socket will take without
/// blocking; the remainder rides on `POLLOUT`.
fn write_out(conn: &mut Conn) {
    if conn.dead || conn.out.is_empty() {
        return;
    }
    loop {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.out_pos += n;
                if conn.out_pos == conn.out.len() {
                    conn.out.clear();
                    conn.out_pos = 0;
                    stacl_obs::count(Counter::NetWriteFlush);
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// A request rejection, kept small so `Result` stays cheap on the hot
/// path; converted into an `Err2` frame at the reply boundary.
struct Reject {
    code: u8,
    msg: String,
}

impl Reject {
    fn bad(msg: impl Into<String>) -> Reject {
        Reject {
            code: ERR_BAD_REQUEST,
            msg: msg.into(),
        }
    }

    fn into_frame(self, id: u64) -> Frame {
        err_frame(id, self.code, self.msg)
    }
}

fn err_frame(id: u64, code: u8, msg: impl Into<String>) -> Frame {
    Frame::Err2 {
        id,
        code,
        msg: msg.into(),
    }
}

fn name_of(vocab: &[Name], id: u32) -> Result<&Name, Reject> {
    vocab
        .get(id as usize)
        .ok_or_else(|| Reject::bad(format!("unknown vocabulary id {id}")))
}

fn mk_access(vocab: &[Name], a: &WireAccess) -> Result<Access, Reject> {
    Ok(Access {
        op: name_of(vocab, a.op)?.clone(),
        resource: name_of(vocab, a.resource)?.clone(),
        server: name_of(vocab, a.server)?.clone(),
    })
}

fn finite_time(t: f64) -> Result<TimePoint, Reject> {
    if !t.is_finite() {
        return Err(Reject::bad("non-finite time"));
    }
    Ok(TimePoint::new(t))
}

struct OwnedRequest {
    object: Name,
    access: Access,
    remaining: Program,
    time: TimePoint,
}

fn own_request(vocab: &[Name], it: &DecideItem) -> Result<OwnedRequest, Reject> {
    let object = name_of(vocab, it.object)?.clone();
    let access = mk_access(vocab, &it.access)?;
    let time = finite_time(it.time)?;
    let remaining = it.remaining.iter().try_fold(Program::Skip, |seq, a| {
        Ok::<_, Reject>(seq.then(Program::Access(mk_access(vocab, a)?)))
    })?;
    Ok(OwnedRequest {
        object,
        access,
        remaining,
        time,
    })
}

/// The fail-safe verdict an epoch-desynchronized member answers with:
/// counted like any other decision outcome and stamped with the stale
/// epoch this member is stuck on.
fn desync_verdict(shared: &Shared) -> Verdict {
    stacl_obs::count(Counter::VerdictDeniedCoordination);
    Verdict::denied(
        DecisionKind::DeniedCoordination,
        "policy epoch desynchronized: this member missed a coalition rollout phase",
    )
    .with_epoch(shared.guard.with_rbac_read(|r| r.epoch()))
}

/// Decide one owned request against the guard (or fail safe under epoch
/// desync).
fn decide_one(shared: &Shared, req: &OwnedRequest, table: &mut AccessTable) -> Verdict {
    if shared.epoch_desync.load(Ordering::SeqCst) {
        return desync_verdict(shared);
    }
    let greq = GuardRequest {
        object: &req.object,
        access: &req.access,
        remaining: &req.remaining,
        time: req.time,
    };
    shared.guard.decide(&greq, &shared.proofs, table)
}

/// Handle one decoded frame and encode its reply onto the out-buffer —
/// unless a helper-thread handoff pull will send the reply when it lands.
fn handle_frame(
    shared: &Arc<Shared>,
    ctx: &mpsc::Sender<Completion>,
    conn: &mut Conn,
    frame: Frame,
) {
    let reply = match frame {
        Frame::Hello { id, peer: _ } => Frame::HelloAck {
            id,
            server: shared.cfg.name.clone(),
        },
        Frame::Vocab { id, names } => {
            conn.vocab.extend(names.into_iter().map(Name::from));
            Frame::Ok { id }
        }
        Frame::Enroll { id, object, roles } => match enroll(shared, &conn.vocab, object, &roles) {
            Ok(()) => Frame::Ok { id },
            Err(e) => e.into_frame(id),
        },
        Frame::Decide2 { id, item } => match own_request(&conn.vocab, &item) {
            // Wrong daemon, and the ring knows who is right: point the
            // client at the home custodian instead of deciding. One extra
            // hop resolves the decision.
            Ok(req) => redirect_for(shared, id, &req.object).unwrap_or_else(|| {
                let v = decide_one(shared, &req, &mut conn.table);
                Frame::Verdict2 {
                    id,
                    kind: crate::frames::kind_to_u8(v.kind),
                    epoch: v.epoch,
                    reason: v.reason,
                }
            }),
            Err(e) => e.into_frame(id),
        },
        Frame::IssueProof {
            id,
            object,
            access,
            time,
        } => {
            match (|| {
                let object = name_of(&conn.vocab, object)?;
                let access = mk_access(&conn.vocab, &access)?;
                let time = finite_time(time)?;
                shared.proofs.issue(object, access, time);
                maybe_compact(shared, object);
                Ok::<(), Reject>(())
            })() {
                Ok(()) => Frame::Ok { id },
                Err(e) => e.into_frame(id),
            }
        }
        Frame::Arrive {
            id,
            object,
            time,
            from,
        } => {
            match (|| {
                let object = name_of(&conn.vocab, object)?.to_string();
                let tp = finite_time(time)?;
                Ok::<(String, TimePoint), Reject>((object, tp))
            })() {
                Ok((object, tp)) => match arrive(shared, ctx, conn.serial, id, object, tp, from) {
                    Some(reply) => reply,
                    None => return,
                },
                Err(e) => e.into_frame(id),
            }
        }
        Frame::HandoffRequest { id, object } => handoff_out(shared, id, &object),
        Frame::MetricsRequest { id } => Frame::MetricsJson {
            id,
            json: stacl_obs::snapshot().to_json(),
        },
        Frame::PolicyPrepare {
            id,
            epoch,
            policy,
            classes,
        } => policy_prepare(shared, &mut conn.table, id, epoch, &policy, &classes),
        Frame::PolicyActivate { id, epoch } => policy_activate(shared, id, epoch),
        Frame::Rebalance { id, object, from } => {
            // A peer whose ring home for `object` moved here is draining
            // it to us: pull its custody state exactly like an Arrive
            // handoff, but verdict-neutrally (no arrival is noted — the
            // object did not move in the modelled world, only its
            // custodian did).
            shared.guard.begin_handoff(&object);
            spawn_pull(shared, ctx, conn.serial, id, from, object, None);
            return;
        }
        Frame::Shutdown { id } => Frame::Ok { id },
        // Reply frames arriving as requests are protocol violations.
        other => err_frame(
            other.id(),
            ERR_BAD_REQUEST,
            format!("frame {other:?} is not a request"),
        ),
    };
    put_out(conn, &reply);
}

/// Phase 1 of the two-phase rollout: parse and build the replacement
/// epoch off the hot path (decisions keep flowing under the old policy),
/// then stash it for the coordinator's `PolicyActivate`. Re-preparing
/// replaces any earlier pending epoch.
fn policy_prepare(
    shared: &Arc<Shared>,
    table: &mut AccessTable,
    id: u64,
    epoch: u64,
    policy: &str,
    classes: &[(String, f64, u8)],
) -> Frame {
    let model = match parse_policy(policy) {
        Ok(m) => m,
        Err(e) => return err_frame(id, ERR_BAD_REQUEST, format!("policy parse error: {e}")),
    };
    let classes = match classes
        .iter()
        .map(|(n, dur, s)| Ok((n.clone(), *dur, scheme_from_u8(*s)?)))
        .collect::<Result<Vec<_>, crate::wire::WireError>>()
    {
        Ok(c) => c,
        Err(e) => return err_frame(id, ERR_BAD_REQUEST, e.to_string()),
    };
    match shared
        .guard
        .with_rbac_read(|r| r.prepare_epoch(model, classes, epoch, table))
    {
        Ok(prepared) => {
            *shared.pending_epoch.lock() = Some(prepared);
            Frame::EpochAck { id, epoch }
        }
        Err(e) => err_frame(id, ERR_STATE, e.to_string()),
    }
}

/// Phase 2: flip to the prepared epoch. A daemon whose pending epoch is
/// missing or different missed phase 1 of this rollout — it marks itself
/// desynchronized (counted) and fail-safes decisions rather than
/// answering under a policy the coalition has moved past.
fn policy_activate(shared: &Arc<Shared>, id: u64, epoch: u64) -> Frame {
    let pending = shared.pending_epoch.lock().take();
    match pending {
        Some(prepared) if prepared.epoch() == epoch => {
            match shared.guard.with_rbac(|r| r.activate_epoch(prepared)) {
                Ok(active) => {
                    shared.epoch_desync.store(false, Ordering::SeqCst);
                    Frame::EpochAck { id, epoch: active }
                }
                Err(e) => {
                    stacl_obs::count(Counter::EpochDesync);
                    shared.epoch_desync.store(true, Ordering::SeqCst);
                    err_frame(id, ERR_STATE, e.to_string())
                }
            }
        }
        pending => {
            let had = pending.map(|p| p.epoch());
            stacl_obs::count(Counter::EpochDesync);
            shared.epoch_desync.store(true, Ordering::SeqCst);
            err_frame(
                id,
                ERR_STATE,
                match had {
                    Some(p) => {
                        format!("activate for epoch {epoch} but epoch {p} was prepared")
                    }
                    None => format!("activate for epoch {epoch} with no prepared epoch"),
                },
            )
        }
    }
}

fn enroll(shared: &Arc<Shared>, vocab: &[Name], object: u32, roles: &[u32]) -> Result<(), Reject> {
    let object = name_of(vocab, object)?;
    let roles = roles
        .iter()
        .map(|r| name_of(vocab, *r))
        .collect::<Result<Vec<_>, Reject>>()?;
    shared.guard.enroll(object, roles);
    Ok(())
}

/// Admit an arrival and return the reply to request `id`. When custody
/// enforcement is on and `from` names a different member, the handoff
/// pull runs on a helper thread, which sends the reply once the pull
/// lands; until then the object stays in-flight (fail-safe denials).
fn arrive(
    shared: &Arc<Shared>,
    ctx: &mpsc::Sender<Completion>,
    serial: u64,
    id: u64,
    object: String,
    time: TimePoint,
    from: Option<String>,
) -> Option<Frame> {
    if shared.guard.custody_enforced() {
        match from {
            Some(peer) if peer != shared.cfg.name => {
                shared.guard.begin_handoff(&object);
                spawn_pull(shared, ctx, serial, id, peer, object, Some(time));
                return None;
            }
            _ => {
                // A first arrival claims custody — but under a placement
                // ring the claim must land on the object's ring home, or
                // two members could both believe themselves custodian.
                if let Err(e) = shared.guard.take_custody(&object) {
                    return Some(err_frame(id, ERR_NOT_CUSTODIAN, e));
                }
            }
        }
    }
    shared.guard.note_arrival(&object, time);
    Some(Frame::Ok { id })
}

/// The redirect `Decide2` request `id` for `object` gets instead of a
/// verdict: present only when custody is enforced, the object is `Remote`
/// here, and the placement ring names a different member as its home.
/// Counted `placement.redirect`.
fn redirect_for(shared: &Shared, id: u64, object: &str) -> Option<Frame> {
    if !shared.guard.custody_enforced() {
        return None;
    }
    if shared.guard.custody_of(object) != Custody::Remote {
        return None;
    }
    let home = shared.guard.placement_home(object)?;
    if home == shared.cfg.name {
        return None;
    }
    stacl_obs::count(Counter::PlacementRedirect);
    let addr = shared.peers.read().get(&home).map(|a| a.to_string());
    Some(Frame::Redirect2 {
        id,
        object: object.to_string(),
        home,
        addr,
    })
}

/// Fold the compactable prefix of `object`'s proof history into its
/// sealed summary once enough live proofs accumulate. The watermark is
/// the minimum warm-cursor consumed count — no cursor ever needs to
/// re-read below it — falling back to the full history when the object
/// has no warm cursors at all.
fn maybe_compact(shared: &Shared, object: &str) {
    let trigger = shared.cfg.compact_after;
    if trigger == 0 || shared.proofs.live_proof_count(object) < trigger {
        return;
    }
    let watermark = shared.proofs.watermark_of(object);
    let upto = shared
        .guard
        .with_rbac_read(|r| r.min_cursor_consumed(object))
        .unwrap_or(watermark);
    shared.proofs.compact_prefix(object, upto);
}

/// Run a handoff pull off the event loop for request `id` of connection
/// `serial`. `arrival` is `None` for a verdict-neutral rebalance pull
/// (custody moves; no arrival is noted). The completion lands via the
/// channel and a wake byte; the event loop
/// applies the arrival side effect at drain time so a completion for a
/// since-closed connection still lands its custody (counted
/// `net.orphaned-completion`) instead of being silently dropped.
fn spawn_pull(
    shared: &Arc<Shared>,
    ctx: &mpsc::Sender<Completion>,
    serial: u64,
    id: u64,
    peer: String,
    object: String,
    arrival: Option<TimePoint>,
) {
    let shared = Arc::clone(shared);
    let ctx = ctx.clone();
    let _ = thread::Builder::new()
        .name("stacl-net-pull".to_string())
        .spawn(move || {
            let (reply, imported) = match pull_handoff(&shared, &peer, &object, arrival) {
                Ok(()) => (Frame::Ok { id }, Some((object, arrival))),
                Err(msg) => (err_frame(id, ERR_HANDOFF, msg), None),
            };
            let _ = ctx.send(Completion {
                serial,
                reply,
                imported,
            });
            wake(&shared);
        });
}

/// Serve a custody handoff to a pulling peer's request `id`.
fn handoff_out(shared: &Arc<Shared>, id: u64, object: &str) -> Frame {
    if shared.guard.custody_enforced() && shared.guard.custody_of(object) != Custody::Resident {
        return err_frame(
            id,
            ERR_NOT_CUSTODIAN,
            format!(
                "{object} custody is {} on {}",
                shared.guard.custody_of(object).label(),
                shared.cfg.name
            ),
        );
    }
    // Export marks the object remote here: from this point on, this
    // member fail-safes its decisions and the puller is the custodian.
    let h = shared.guard.export_object(object);
    let watermark = shared.proofs.watermark_of(object) as u64;
    let base = shared.proofs.compaction_base(object) as u64;
    let sender_clock = h.gate.arrivals.last().map(|t| t.seconds()).unwrap_or(0.0) + shared.cfg.skew;
    Frame::HandoffState {
        id,
        object: object.to_string(),
        state: HandoffWire::from_handoff(&h, watermark, base, sender_clock, shared.cfg.skew),
    }
}

/// Pull the object's custody state from `peer`, with bounded retries and
/// doubling backoff. Counts `net.retry` per re-attempt, and exactly one
/// of `net.handoff-applied` / `net.handoff-failed` per pull.
fn pull_handoff(
    shared: &Arc<Shared>,
    peer: &str,
    object: &str,
    arrival: Option<TimePoint>,
) -> Result<(), String> {
    let Some(addr) = shared.peers.read().get(peer).copied() else {
        stacl_obs::count(Counter::NetHandoffFailed);
        return Err(format!("unknown peer {peer}"));
    };
    let t0 = stacl_obs::handoff_timer();
    let mut backoff = shared.cfg.handoff_backoff;
    let mut last_err = String::new();
    for attempt in 0..=shared.cfg.handoff_retries {
        if attempt > 0 {
            stacl_obs::count(Counter::NetRetry);
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        match try_pull(shared, addr, object) {
            Ok(state) => {
                let outcome = apply_handoff(shared, object, arrival, &state);
                if outcome.is_err() {
                    stacl_obs::count(Counter::NetHandoffFailed);
                } else {
                    stacl_obs::count(Counter::NetHandoffApplied);
                    stacl_obs::observe_handoff(t0);
                }
                return outcome;
            }
            Err(e) => last_err = e,
        }
    }
    stacl_obs::count(Counter::NetHandoffFailed);
    Err(format!(
        "handoff of {object} from {peer} failed after {} attempts: {last_err}",
        shared.cfg.handoff_retries + 1
    ))
}

/// Validate and import a pulled handoff payload. A malformed payload is
/// not retried — the peer answered; its answer is bad.
fn apply_handoff(
    shared: &Arc<Shared>,
    object: &str,
    arrival: Option<TimePoint>,
    state: &HandoffWire,
) -> Result<(), String> {
    let handoff = state
        .to_handoff()
        .map_err(|e| format!("malformed handoff payload: {e}"))?;
    // Every cursor seed must sit at or above the sender's compaction
    // base: a seed below it would claim a cursor position inside history
    // the sender has already sealed, which no replay here can reproduce.
    if let Some((perm, n)) = handoff
        .gate
        .cursor_seeds
        .iter()
        .find(|(_, n)| *n < state.compaction_base)
    {
        return Err(format!(
            "cursor seed for {perm} at {n} is behind compaction base {}",
            state.compaction_base
        ));
    }
    // Wire-level clock check: admitting the arrival must not move this
    // member's skewed clock behind the sender's released clock view.
    // (A rebalance pull has no arrival: custody moves, the object's
    // modelled position does not.)
    if let Some(arrival) = arrival {
        if state.sender_clock.is_finite()
            && state.sender_clock > arrival.seconds() + shared.cfg.skew
        {
            stacl_obs::count(Counter::ClockRegression);
        }
    }
    shared.guard.import_object(object, &handoff)?;
    // Warm the receiver's cursors from the (replicated) local proof
    // history. Purely an optimisation seed: a cursor that fails to warm
    // leaves the decision path on its cold-start fallback.
    shared.guard.with_rbac(|r| {
        let mut t = AccessTable::new();
        r.saturate_alphabet(&mut t);
        for (perm, _) in &handoff.gate.cursor_seeds {
            let _ = r.warm_cursor(object, perm, &shared.proofs, &mut t);
        }
    });
    Ok(())
}

/// Tell the new home at `addr` to pull `object` from this member. The
/// reply (`Ok` once its pull lands, or an error) closes the drain for
/// this key.
fn rebalance_push(shared: &Shared, addr: SocketAddr, object: &str) -> Result<(), String> {
    let request = |id| Frame::Rebalance {
        id,
        object: object.to_string(),
        from: shared.cfg.name.clone(),
    };
    match peer_call(shared, addr, request)? {
        Frame::Ok { .. } => Ok(()),
        other => Err(format!("expected Ok, got {other:?}")),
    }
}

fn try_pull(shared: &Shared, addr: SocketAddr, object: &str) -> Result<HandoffWire, String> {
    let request = |id| Frame::HandoffRequest {
        id,
        object: object.to_string(),
    };
    match peer_call(shared, addr, request)? {
        Frame::HandoffState {
            object: o, state, ..
        } if o == object => Ok(state),
        other => Err(format!("expected HandoffState, got {other:?}")),
    }
}

/// Send `request` to the peer at `addr` on a fresh [`Client`] connection
/// and return its reply: `Hello`, then the request, each in one write. A
/// peer's `Err2` reply comes back as the error (`daemon error {code}: …`).
fn peer_call(
    shared: &Shared,
    addr: SocketAddr,
    request: impl FnOnce(u64) -> Frame,
) -> Result<Frame, String> {
    Client::connect(addr, &shared.cfg.name, Some(shared.cfg.io_timeout))
        .and_then(|mut c| c.call(request))
        .map_err(|e| e.to_string())
}
