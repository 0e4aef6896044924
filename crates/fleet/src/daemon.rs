//! The TCP front-end: line-delimited JSON frames over plain sockets.
//!
//! `voltmargin serve` binds a listener, prints `listening on ADDR` (so
//! callers binding port 0 can discover the port), and handles each
//! connection on its own thread against one shared [`FleetService`].
//! Every inbound line is decoded with the total [`Request`] parser;
//! undecodable frames are answered with a typed [`Response::Error`] and
//! the connection stays up — a hostile peer can never panic the daemon.
//! A line longer than the 1 MiB frame cap is never buffered whole: it is
//! answered with one `frame-too-large` error and the connection closes,
//! since the rest of the stream cannot be split into frames again. At
//! most [`MAX_CONNECTIONS`] connections are served at once; one more gets
//! a `too-many-connections` error frame and EOF, and no thread.
//!
//! A `shutdown` frame stops the accept loop; in-flight chips finish, the
//! shared campaign cache is published and saved (when a cache path was
//! given), and the process exits cleanly.
//!
//! **Framing.** Every frame leaves in one `write` of the line and its
//! `\n`, on a socket with `TCP_NODELAY`. Two writes per frame (the line,
//! then the `\n`) would let Nagle's algorithm hold the second until the
//! peer's delayed ACK arrives, about 40 ms on Linux, on every response.
//!
//! **Streaming.** A `subscribe` frame turns the connection into a duplex
//! channel: a pump thread per subscription drains the service's bounded
//! event queue and pushes `event` frames, interleaved frame-atomically
//! with request responses (every socket write holds the connection's
//! write lock for exactly one line). The reader loop uses a short read
//! timeout so a silent watcher can neither stall its own cleanup nor
//! hold the daemon open across a shutdown; a subscriber disconnecting
//! mid-job just tears down its own pumps.

use crate::proto::{Request, Response, MAX_CONNECTIONS, MAX_FRAME_BYTES, PROTO_VERSION};
use crate::service::{FleetService, JobOutcome, Subscription, DEFAULT_SUBSCRIBER_QUEUE};
use margins_core::cache::{CacheError, SharedCampaignCache};
use margins_core::exec::ExecError;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Everything `voltmargin serve` needs to run a daemon.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4750` (`:0` picks a free port).
    pub addr: String,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Persistent campaign cache JSONL, loaded at start and saved at
    /// shutdown.
    pub cache_path: Option<String>,
    /// When set, each completed job's merged streams are also written
    /// under `<out_dir>/<client>/job<id>/`.
    pub out_dir: Option<String>,
}

/// A daemon that could not start or persist its state.
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound (in use, unresolvable, …).
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        message: String,
    },
    /// The worker count is invalid.
    Exec(ExecError),
    /// The campaign cache could not be loaded or saved.
    Cache(CacheError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, message } => {
                write!(f, "serve: cannot bind {addr}: {message}")
            }
            ServeError::Exec(e) => write!(f, "serve: {e}"),
            ServeError::Cache(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Runs the daemon until a client sends `shutdown`.
///
/// # Errors
///
/// [`ServeError::Exec`] for an invalid worker count, [`ServeError::Bind`]
/// when the address cannot be bound, [`ServeError::Cache`] when the cache
/// fails to load or save.
pub fn serve(config: &ServeConfig) -> Result<(), ServeError> {
    let cache = match &config.cache_path {
        Some(path) => SharedCampaignCache::load(path).map_err(ServeError::Cache)?,
        None => SharedCampaignCache::new(),
    };
    let service = FleetService::new(config.workers, cache).map_err(ServeError::Exec)?;
    let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind {
        addr: config.addr.clone(),
        message: e.to_string(),
    })?;
    let local = listener.local_addr().map_err(|e| ServeError::Bind {
        addr: config.addr.clone(),
        message: e.to_string(),
    })?;
    println!("listening on {local}");
    // The port-discovery line must be visible before the first client
    // connects, even through a pipe; a broken stdout must not kill the
    // daemon.
    let _ = std::io::stdout().flush();

    let stop = AtomicBool::new(false);
    let live = AtomicUsize::new(0);
    service.run(|| {
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                // Before the cap, so `shutdown`'s unblocking connection
                // ends the loop even when every slot is taken.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let Some(slot) = ConnectionSlot::claim(&live) else {
                    // Answered here, without a thread: the frame is small
                    // enough for the socket's send buffer, so this write
                    // does not block the loop.
                    let _ = stream.set_nodelay(true);
                    refuse(
                        &Mutex::new(stream),
                        "too-many-connections",
                        format!(
                            "the daemon serves at most {MAX_CONNECTIONS} connections at once; \
                             retry later"
                        ),
                    );
                    continue;
                };
                let service = &service;
                let stop = &stop;
                let out_dir = config.out_dir.as_deref();
                scope.spawn(move || {
                    let _slot = slot;
                    handle_connection(stream, service, stop, local, out_dir);
                });
            }
        });
    });

    if let Some(path) = &config.cache_path {
        service.cache().save(path).map_err(ServeError::Cache)?;
    }
    Ok(())
}

/// One of the [`MAX_CONNECTIONS`] connection slots, held by a connection's
/// thread and released when it drops, however the connection ends.
struct ConnectionSlot<'a>(&'a AtomicUsize);

impl<'a> ConnectionSlot<'a> {
    /// Takes a free slot, or `None` at the cap. Only the accept loop
    /// claims slots, so the check and the increment cannot race.
    fn claim(live: &'a AtomicUsize) -> Option<Self> {
        if live.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            return None;
        }
        live.fetch_add(1, Ordering::SeqCst);
        Some(ConnectionSlot(live))
    }
}

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How often the reader loop wakes to check the stop flag while a
/// connection is idle. Bounds how long a silent subscriber can delay a
/// daemon shutdown.
const READ_POLL: Duration = Duration::from_millis(200);

/// Writes one frame line atomically through the connection's write lock,
/// as a single write of the line and its `\n` (the line is extended in
/// place, so a large results frame is not copied again); `false` when
/// the peer is gone.
fn send_line<W: Write>(writer: &Mutex<W>, mut line: String) -> bool {
    line.push('\n');
    let mut w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    w.write_all(line.as_bytes()).is_ok() && w.flush().is_ok()
}

/// Drains a subscription into `event` frames until it closes; a dead
/// peer closes the subscription so the scheduler stops queueing for it.
fn pump_events(service: &FleetService, sub: Subscription, writer: &Mutex<TcpStream>) {
    while let Some(events) = service.next_events(&sub) {
        for event in events {
            if !send_line(writer, Response::Event(event).to_line()) {
                service.unsubscribe(&sub);
                return;
            }
        }
    }
}

/// Readies an accepted stream: `TCP_NODELAY` on it, so each frame is sent
/// as soon as it is written, and a clone of it as the read half, with a
/// timeout that keeps the reader responsive to the stop flag.
fn open_connection(stream: &TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(READ_POLL))?;
    Ok(read_half)
}

/// Serves one client connection until EOF or shutdown.
fn handle_connection(
    stream: TcpStream,
    service: &FleetService,
    stop: &AtomicBool,
    local: SocketAddr,
    out_dir: Option<&str>,
) {
    let Ok(read_half) = open_connection(&stream) else {
        return;
    };
    let writer = Mutex::new(stream);
    // Subscriptions owned by this connection, torn down on EOF so a
    // vanished watcher never leaves a queue growing in the scheduler.
    let subs: Mutex<Vec<(u64, Subscription)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        let mut reader = BufReader::new(read_half);
        // Partial frame bytes survive read timeouts here. Each read stops
        // at the frame cap, so `buf` never holds more than one frame.
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let room = MAX_FRAME_BYTES.saturating_sub(buf.len()) as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut buf) {
                Ok(_) if buf.len() >= MAX_FRAME_BYTES && buf.last() != Some(&b'\n') => {
                    refuse(
                        &writer,
                        "frame-too-large",
                        format!(
                            "request frames are limited to {MAX_FRAME_BYTES} bytes, \
                             newline included"
                        ),
                    );
                    break;
                }
                Ok(0) => {
                    // EOF; a final unterminated line is still a frame.
                    if !buf.is_empty() {
                        let line = String::from_utf8_lossy(&buf).into_owned();
                        handle_line(&line, service, stop, local, out_dir, &writer, &subs, scope);
                    }
                    break;
                }
                Ok(_) => {
                    if buf.last() != Some(&b'\n') {
                        continue;
                    }
                    let line = String::from_utf8_lossy(&buf).into_owned();
                    buf.clear();
                    if line.trim().is_empty() {
                        continue;
                    }
                    let keep =
                        handle_line(&line, service, stop, local, out_dir, &writer, &subs, scope);
                    if !keep {
                        break;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        // Close this connection's subscriptions: blocked pumps wake,
        // return, and the scope joins them.
        let closing = {
            let mut subs = subs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *subs)
        };
        for (_, sub) in closing {
            service.unsubscribe(&sub);
        }
    });
}

/// Answers with one error frame and ends the connection's output, so the
/// peer reads the frame and then EOF: the reply to a frame that outgrew
/// [`MAX_FRAME_BYTES`], or to a connection past [`MAX_CONNECTIONS`].
fn refuse(writer: &Mutex<TcpStream>, code: &str, message: String) {
    send_line(writer, error_frame(code, message).to_line());
    // Under the write lock, so no event frame is cut short.
    let w = writer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = w.shutdown(Shutdown::Write);
}

/// Handles one inbound frame line; returns whether to keep the
/// connection open.
#[allow(clippy::too_many_arguments)]
fn handle_line<'scope, 'env>(
    line: &str,
    service: &'scope FleetService,
    stop: &AtomicBool,
    local: SocketAddr,
    out_dir: Option<&str>,
    writer: &'scope Mutex<TcpStream>,
    subs: &Mutex<Vec<(u64, Subscription)>>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
) -> bool {
    match Request::parse_line(line) {
        Ok(Request::Subscribe { client, job }) => {
            // Slow consumers overflowing the bound lose events (counted
            // exactly, reported via a `lagged` frame) instead of blocking
            // the scheduler.
            match service.subscribe(&client, job, DEFAULT_SUBSCRIBER_QUEUE) {
                Some(sub) => {
                    {
                        let mut subs = subs
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        subs.push((job, sub));
                    }
                    // Acknowledge before the pump starts so the client
                    // always sees `subscribed` ahead of any event frame.
                    let alive = send_line(writer, Response::Subscribed { job }.to_line());
                    scope.spawn(move || pump_events(service, sub, writer));
                    alive
                }
                None => send_line(writer, unknown_job(job).to_line()),
            }
        }
        Ok(Request::Unsubscribe { client: _, job }) => {
            let found = {
                let mut subs = subs
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                subs.iter()
                    .position(|(j, _)| *j == job)
                    .map(|at| subs.remove(at).1)
            };
            match found {
                Some(sub) => {
                    service.unsubscribe(&sub);
                    send_line(writer, Response::Unsubscribed { job }.to_line())
                }
                None => send_line(writer, unknown_job(job).to_line()),
            }
        }
        _ => {
            let (response, shutdown) = respond(line, service, out_dir);
            if !send_line(writer, response.to_line()) {
                return false;
            }
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop with a throwaway connection;
                // best effort, since the accept loop also checks the
                // flag.
                let _ = TcpStream::connect(local);
                return false;
            }
            true
        }
    }
}

/// A daemon-side error frame (decode errors use
/// [`ProtoError::to_response`](crate::proto::ProtoError::to_response)).
fn error_frame(code: &str, message: String) -> Response {
    Response::Error {
        proto: PROTO_VERSION,
        code: code.to_owned(),
        message,
    }
}

/// Dispatches one decoded line; returns the response and whether the
/// daemon should shut down.
fn respond(line: &str, service: &FleetService, out_dir: Option<&str>) -> (Response, bool) {
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err(e) => return (e.to_response(), false),
    };
    match request {
        Request::Submit { client, spec } => match service.submit(&client, &spec) {
            Ok((job, chips)) => (Response::Submitted { job, chips }, false),
            Err(e) => (error_frame("bad-spec", e.to_string()), false),
        },
        Request::Status { client, job } => match service.status(&client, job) {
            Some(s) => (
                Response::Status {
                    job,
                    state: s.state.to_owned(),
                    done: s.done,
                    total: s.total,
                    queue_position: s.queue_position,
                    progress: s.progress,
                },
                false,
            ),
            None => (unknown_job(job), false),
        },
        Request::Cancel { client, job } => {
            if service.cancel(&client, job) {
                let (done, total) = service.accounting(&client, job).unwrap_or((0, 0));
                (Response::Cancelled { job, done, total }, false)
            } else {
                (unknown_job(job), false)
            }
        }
        Request::Results { client, job } => match service.wait(&client, job) {
            Some(JobOutcome::Done(r)) => {
                if let Some(dir) = out_dir {
                    if let Err(e) = write_artifacts(dir, &client, job, &r.trace, &r.metrics) {
                        return (error_frame("io", e), false);
                    }
                }
                (
                    Response::Results {
                        job,
                        chips: r.chips,
                        runs: r.runs,
                        power_cycles: r.power_cycles,
                        executed_ops: r.executed_ops,
                        trace: r.trace,
                        metrics: r.metrics,
                    },
                    false,
                )
            }
            Some(JobOutcome::Cancelled) => (
                error_frame("cancelled", format!("job {job} was cancelled")),
                false,
            ),
            Some(JobOutcome::Failed(e)) => (error_frame("exec", e.to_string()), false),
            None => (unknown_job(job), false),
        },
        Request::Health => (Response::Health(service.health()), false),
        Request::Metrics => (
            Response::Metrics {
                body: service.openmetrics(),
            },
            false,
        ),
        // The connection layer intercepts these before `respond` because
        // they bind state (pump threads) to the connection itself; hitting
        // this arm means a non-streaming caller routed them here.
        Request::Subscribe { .. } | Request::Unsubscribe { .. } => (
            error_frame(
                "not-streaming",
                "subscribe/unsubscribe require a streaming connection".to_owned(),
            ),
            false,
        ),
        Request::Shutdown => (Response::Bye, true),
    }
}

fn unknown_job(job: u64) -> Response {
    error_frame("unknown-job", format!("no job {job} for this client"))
}

/// Writes a job's merged streams under `<dir>/<client>/job<id>/`,
/// sanitizing the client name so it can never escape the artifact root.
/// Each file is replaced whole ([`margins_trace::write_atomic`]), so a kill
/// mid-write never leaves a torn artifact.
fn write_artifacts(
    dir: &str,
    client: &str,
    job: u64,
    trace: &str,
    metrics: &str,
) -> Result<(), String> {
    let safe: String = client
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let safe = if safe.is_empty() {
        "anonymous".to_owned()
    } else {
        safe
    };
    let job_dir = format!("{dir}/{safe}/job{job}");
    std::fs::create_dir_all(&job_dir).map_err(|e| format!("{job_dir}: {e}"))?;
    margins_trace::write_atomic(format!("{job_dir}/trace.jsonl"), trace)
        .map_err(|e| format!("{job_dir}/trace.jsonl: {e}"))?;
    margins_trace::write_atomic(format!("{job_dir}/metrics.om"), metrics)
        .map_err(|e| format!("{job_dir}/metrics.om: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_errors_render_operator_messages() {
        let msg = ServeError::Bind {
            addr: "127.0.0.1:1".into(),
            message: "permission denied".into(),
        }
        .to_string();
        assert!(msg.contains("cannot bind 127.0.0.1:1"), "{msg}");
        let msg = ServeError::Exec(ExecError::ZeroThreads).to_string();
        assert!(msg.contains("at least one worker"), "{msg}");
    }

    #[test]
    fn bad_frames_answer_typed_errors_without_shutdown() {
        let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid");
        let (resp, shutdown) = respond("nonsense", &svc, None);
        assert!(!shutdown);
        let Response::Error { proto, code, .. } = resp else {
            panic!("expected an error frame");
        };
        assert_eq!((proto, code.as_str()), (PROTO_VERSION, "malformed"));

        let (resp, _) = respond("{\"kind\":\"reboot\"}", &svc, None);
        let Response::Error { code, .. } = resp else {
            panic!("expected an error frame");
        };
        assert_eq!(code, "unknown-kind");

        let (resp, _) = respond(
            "{\"client\":\"c\",\"job\":0,\"kind\":\"status\"}",
            &svc,
            None,
        );
        let Response::Error { code, .. } = resp else {
            panic!("expected an error frame");
        };
        assert_eq!(code, "unknown-job");

        let (resp, shutdown) = respond("{\"kind\":\"shutdown\"}", &svc, None);
        assert_eq!(resp, Response::Bye);
        assert!(shutdown);
    }

    #[test]
    fn health_and_metrics_answer_snapshot_frames() {
        let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid");
        let (resp, shutdown) = respond("{\"kind\":\"health\"}", &svc, None);
        assert!(!shutdown);
        let Response::Health(h) = resp else {
            panic!("expected a health frame, got {resp:?}");
        };
        assert_eq!(h.workers, 2);
        assert_eq!(h.busy, 0);

        let (resp, shutdown) = respond("{\"kind\":\"metrics\"}", &svc, None);
        assert!(!shutdown);
        let Response::Metrics { body } = resp else {
            panic!("expected a metrics frame, got {resp:?}");
        };
        assert!(body.contains("voltmargin_fleet_workers 2"), "{body}");
        assert!(body.ends_with("# EOF\n"), "{body}");
    }

    #[test]
    fn subscribe_outside_a_streaming_connection_is_a_typed_error() {
        let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid");
        let (resp, shutdown) = respond(
            "{\"client\":\"c\",\"job\":0,\"kind\":\"subscribe\"}",
            &svc,
            None,
        );
        assert!(!shutdown);
        let Response::Error { code, .. } = resp else {
            panic!("expected an error frame, got {resp:?}");
        };
        assert_eq!(code, "not-streaming");
    }

    /// A writer that records each `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_line_writes_each_frame_in_one_write() {
        let small = Response::Subscribed { job: 7 }.to_line();
        let results = Response::Results {
            job: 1,
            chips: 64,
            runs: 192,
            power_cycles: 0,
            executed_ops: 0,
            trace: "{\"seq\":0}\n".repeat(20_000),
            metrics: "# EOF\n".to_owned(),
        }
        .to_line();
        assert!(results.len() >= 191 * 1024, "{}", results.len());
        for line in [small, results] {
            let writer = Mutex::new(CountingWriter::default());
            assert!(send_line(&writer, line.clone()));
            let writes = writer.into_inner().expect("unpoisoned").writes;
            assert_eq!(writes.len(), 1, "one write per frame");
            assert_eq!(writes[0], format!("{line}\n").into_bytes());
        }
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let _client = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let read_half = open_connection(&accepted).expect("stream set-up");
        assert_eq!(accepted.nodelay().ok(), Some(true));
        assert_eq!(read_half.nodelay().ok(), Some(true));
        assert_eq!(read_half.read_timeout().ok(), Some(Some(READ_POLL)));
    }

    #[test]
    fn oversized_frames_are_refused_and_the_connection_closed() {
        let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let local = listener.local_addr().expect("bound address");
        let stop = AtomicBool::new(false);
        let connect = || {
            let stream = TcpStream::connect(local).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            stream
        };
        std::thread::scope(|scope| {
            // Both connections open up front and are served one after the
            // other; a failed assertion drops them, so the server never
            // waits for a connection that will not come.
            let (hostile, fresh) = (connect(), connect());
            scope.spawn(|| {
                for stream in listener.incoming().take(2) {
                    let stream = stream.expect("accept");
                    handle_connection(stream, &svc, &stop, local, None);
                }
            });

            // 2 MiB without a newline. The write fails once the daemon
            // closes the connection, which is expected.
            let mut sender = hostile.try_clone().expect("clone");
            scope.spawn(move || sender.write_all(&vec![b'x'; 2 * MAX_FRAME_BYTES]));
            let mut reader = BufReader::new(hostile);
            let mut frame = String::new();
            reader.read_line(&mut frame).expect("an error frame");
            let Ok(Response::Error { proto, code, .. }) = Response::parse_line(&frame) else {
                panic!("expected an error frame, got {frame:?}");
            };
            assert_eq!((proto, code.as_str()), (PROTO_VERSION, "frame-too-large"));
            frame.clear();
            assert_eq!(reader.read_line(&mut frame).ok(), Some(0), "then EOF");

            // The daemon itself is unharmed.
            writeln!(&fresh, "{}", Request::Health.to_line()).expect("send");
            let mut reply = String::new();
            BufReader::new(&fresh)
                .read_line(&mut reply)
                .expect("a health frame");
            assert!(
                matches!(Response::parse_line(&reply), Ok(Response::Health(_))),
                "{reply}"
            );
        });
    }

    #[test]
    fn deeply_nested_frames_are_malformed_and_the_daemon_survives() {
        let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let local = listener.local_addr().expect("bound address");
        let stop = AtomicBool::new(false);
        let connect = || {
            let stream = TcpStream::connect(local).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            stream
        };
        std::thread::scope(|scope| {
            let (hostile, fresh) = (connect(), connect());
            scope.spawn(|| {
                for stream in listener.incoming().take(2) {
                    let stream = stream.expect("accept");
                    handle_connection(stream, &svc, &stop, local, None);
                }
            });

            // A newline-terminated frame of 300 000 `[`, well under the
            // frame cap, parsed on the connection thread's stack.
            let frame = format!("{}\n", "[".repeat(300_000));
            (&hostile).write_all(frame.as_bytes()).expect("send");
            let mut reader = BufReader::new(&hostile);
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("an error frame");
            let Ok(Response::Error { proto, code, .. }) = Response::parse_line(&reply) else {
                panic!("expected an error frame, got {reply:?}");
            };
            assert_eq!((proto, code.as_str()), (PROTO_VERSION, "malformed"));
            drop(reader);
            drop(hostile);

            writeln!(&fresh, "{}", Request::Health.to_line()).expect("send");
            let mut reply = String::new();
            BufReader::new(&fresh)
                .read_line(&mut reply)
                .expect("a health frame");
            assert!(
                matches!(Response::parse_line(&reply), Ok(Response::Health(_))),
                "{reply}"
            );
        });
    }

    #[test]
    fn artifact_paths_sanitize_hostile_client_names() {
        let dir = std::env::temp_dir().join(format!("fleet-daemon-test-{}", std::process::id()));
        let dir = dir.to_string_lossy().into_owned();
        write_artifacts(&dir, "../../etc", 0, "t\n", "# EOF\n").expect("writes");
        let written = format!("{dir}/______etc/job0/trace.jsonl");
        assert_eq!(std::fs::read_to_string(written).expect("exists"), "t\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifacts_are_replaced_whole_with_no_temporary_left() {
        let dir = std::env::temp_dir().join(format!("fleet-artifacts-{}", std::process::id()));
        let dir = dir.to_string_lossy().into_owned();
        write_artifacts(&dir, "lab", 3, "old\n", "old\n").expect("writes");
        write_artifacts(&dir, "lab", 3, "t\n", "# EOF\n").expect("rewrites");
        let job_dir = format!("{dir}/lab/job3");
        assert_eq!(
            std::fs::read_to_string(format!("{job_dir}/trace.jsonl")).expect("trace"),
            "t\n"
        );
        assert_eq!(
            std::fs::read_to_string(format!("{job_dir}/metrics.om")).expect("metrics"),
            "# EOF\n"
        );
        let mut names: Vec<String> = std::fs::read_dir(&job_dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["metrics.om", "trace.jsonl"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
