//! The daemon: accept loop, per-connection threads, worker pool with
//! supervision, admission control, disconnect-driven cancellation, and
//! graceful drain.
//!
//! # Thread anatomy
//!
//! * **accept thread** (the one [`Server::start`] spawns): polls the
//!   nonblocking listener, spawns a connection thread per client, and
//!   owns the shutdown sequence.
//! * **connection threads**: strictly request/response frame loops. A
//!   decompose request is admitted through the bounded queue (or shed
//!   with `overloaded` + `retry_after_ms`); while the job is in flight
//!   the thread polls the socket, and a client disconnect trips the
//!   job's [`CancelToken`] — the worker stops at its next multilevel
//!   checkpoint instead of burning the queue's time on an answer nobody
//!   will read.
//! * **worker threads**: [`crate::worker::worker_loop`] — `catch_unwind`
//!   per job, arena-pool quarantine on panic. Each job runs inside the
//!   daemon's one fork-join pool, [`ServeConfig::parallelism`] wide, so
//!   its recursion subtrees fork onto cores no other job is using.
//! * **supervisor thread**: respawns any worker whose thread died
//!   outright (a panic that escaped containment), so the pool never
//!   shrinks.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or SIGTERM when the config watches
//! signals) closes admission, lets queued + in-flight jobs finish under
//! the drain deadline, cancels whatever outlives the deadline via the
//! in-flight tokens, joins everything, and returns a final
//! [`ServeSnapshot`] — the `fgh-serve-metrics/1` report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};

use fgh_invariant::{lock_order, OrderedMutex, OrderedMutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fgh_core::{ArenaPool, Budget, CancelToken, Parallelism};
use fgh_trace::json::Value;
use rayon::ThreadPool;

use crate::cache::PlanCache;
use crate::metrics::{ServeCounters, ServeSnapshot};
use crate::net::{Listen, Listener, Probe, Stream};
use crate::protocol::{
    codes, error_response, parse_request, read_frame, write_frame, Conn, FrameError, Request,
};
use crate::queue::{BoundedQueue, PushError};
use crate::worker::{worker_loop, Job, JobPayload};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Transport to listen on.
    pub listen: Listen,
    /// Worker threads executing decomposition jobs.
    pub workers: usize,
    /// Bounded-queue admission capacity.
    pub queue_capacity: usize,
    /// Plan-cache byte cap (0 disables the cache).
    pub cache_bytes: usize,
    /// How long shutdown waits for in-flight jobs before cancelling
    /// them.
    pub drain: Duration,
    /// Per-request budget ceiling (every request's budget is
    /// intersected under it).
    pub budget_ceiling: Budget,
    /// Partitioner threads shared by all jobs: the width of the one
    /// fork-join pool every worker runs its jobs in. A job forks its
    /// recursion subtrees onto the slots the other busy workers leave
    /// free, so `workers` busy workers never run more than
    /// max(`workers`, width) threads. Width 1 runs every job serially.
    pub parallelism: Parallelism,
    /// Honor `inject` request fields (tests/self-test only).
    pub fault_injection: bool,
    /// Treat SIGTERM/SIGINT as a shutdown request (CLI daemon mode;
    /// in-process tests use [`ServerHandle::shutdown`]).
    pub watch_signals: bool,
}

impl ServeConfig {
    /// A loopback config on an ephemeral port with modest defaults.
    pub fn loopback() -> Self {
        ServeConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 2,
            queue_capacity: 16,
            cache_bytes: 8 << 20,
            drain: Duration::from_secs(10),
            budget_ceiling: Budget::UNLIMITED,
            parallelism: Parallelism::Auto,
            fault_injection: false,
            watch_signals: false,
        }
    }
}

struct Shared {
    queue: Arc<BoundedQueue<Job>>,
    /// The arena pool every job draws scratch from.
    arenas: Arc<ArenaPool>,
    /// [`ServeConfig::budget_ceiling`], handed to every worker.
    ceiling: Budget,
    /// The partitioner pool every job runs in; `None` at width 1.
    threads: Option<ThreadPool>,
    cache: Arc<PlanCache>,
    counters: Arc<ServeCounters>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    /// Tokens of jobs currently admitted and not yet responded, keyed by
    /// a registration id; the drain deadline cancels them all.
    in_flight: OrderedMutex<BTreeMap<u64, CancelToken>>,
    next_registration: AtomicU64,
    /// Jobs responded after the drain began (for the report).
    drained_jobs: AtomicU64,
    fault_injection: bool,
}

impl Shared {
    fn register(&self, token: &CancelToken) -> u64 {
        let id = self.next_registration.fetch_add(1, Ordering::Relaxed); // lint: atomic — relaxed: unique-id counter, no data guarded
        self.lock_in_flight().insert(id, token.clone());
        id
    }

    fn unregister(&self, id: u64) {
        self.lock_in_flight().remove(&id);
    }

    fn lock_in_flight(&self) -> OrderedMutexGuard<'_, BTreeMap<u64, CancelToken>> {
        match self.in_flight.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn cancel_all_in_flight(&self) {
        for t in self.lock_in_flight().values() {
            t.cancel();
        }
    }
}

/// Handle to a running daemon.
pub struct ServerHandle {
    addr: String,
    shutdown_requested: Arc<AtomicBool>,
    accept_thread: JoinHandle<ServeSnapshot>,
}

impl ServerHandle {
    /// The bound address (connect string).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests shutdown (same path a SIGTERM takes).
    pub fn shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::Relaxed); // lint: atomic — relaxed: latched flag, polled by the accept loop
    }

    /// Waits for the daemon to finish draining and returns the final
    /// metrics snapshot.
    pub fn join(self) -> ServeSnapshot {
        match self.accept_thread.join() {
            Ok(s) => s,
            // The accept thread panicking is a daemon bug; surface a
            // zeroed snapshot with a dirty drain rather than unwinding
            // through the caller.
            Err(_) => ServeSnapshot {
                accepted_connections: 0,
                admitted: 0,
                completed: 0,
                cancelled_jobs: 0,
                worker_panics: 0,
                rejected_overloaded: 0,
                rejected_bad_request: 0,
                rejected_bad_frame: 0,
                rejected_shutting_down: 0,
                degraded: 0,
                worker_respawns: 0,
                queue_capacity: 0,
                queue_peak_depth: 0,
                cache_hits: 0,
                cache_misses: 0,
                cache_evictions: 0,
                cache_integrity_failures: 0,
                cache_bytes: 0,
                cache_byte_cap: 0,
                workers: 0,
                threads: 0,
                parallel_forks: 0,
                drain_clean: false,
                drained_jobs: 0,
            },
        }
    }
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Binds, spawns the worker pool + supervisor + accept thread, and
    /// returns immediately with a handle.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = Listener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr_string();

        if config.watch_signals {
            crate::signal::install_shutdown_handlers();
        }

        let shared = Arc::new(Shared {
            queue: Arc::new(BoundedQueue::new(config.queue_capacity)),
            arenas: Arc::new(ArenaPool::new()),
            ceiling: config.budget_ceiling,
            threads: thread_pool(config.parallelism),
            cache: Arc::new(PlanCache::new(config.cache_bytes)),
            counters: Arc::new(ServeCounters::default()),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            in_flight: OrderedMutex::new(
                "InFlightTable",
                lock_order::IN_FLIGHT_TABLE,
                BTreeMap::new(),
            ),
            next_registration: AtomicU64::new(0),
            drained_jobs: AtomicU64::new(0),
            fault_injection: config.fault_injection,
        });
        let shutdown_requested = Arc::new(AtomicBool::new(false));

        let workers = config.workers.max(1);
        let worker_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(
            (0..workers).map(|_| spawn_worker(&shared)).collect(),
        ));

        // Supervisor: a dead worker thread (a panic that escaped the
        // per-job catch_unwind) is replaced so the pool never shrinks.
        let supervisor = {
            let shared = Arc::clone(&shared);
            let handles = Arc::clone(&worker_handles);
            std::thread::spawn(move || loop {
                // lint: atomic — relaxed: shutdown poll; staleness only delays exit by one tick
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
                let mut g = match handles.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                for h in g.iter_mut() {
                    if h.is_finished() && !shared.queue.is_closed() {
                        let dead = std::mem::replace(h, spawn_worker(&shared));
                        let _ = dead.join();
                        ServeCounters::bump(&shared.counters.worker_respawns);
                    }
                }
            })
        };

        let accept_thread = {
            let shared = Arc::clone(&shared);
            let shutdown_requested = Arc::clone(&shutdown_requested);
            let watch_signals = config.watch_signals;
            let drain = config.drain;
            let workers_cfg = workers as u64;
            std::thread::spawn(move || {
                let conn_threads =
                    accept_loop(&listener, &shared, &shutdown_requested, watch_signals);
                let snapshot = drain_and_stop(&shared, drain, workers_cfg, worker_handles);
                shared.shutdown.store(true, Ordering::Relaxed); // lint: atomic — relaxed: latched flag; supervisor polls it
                                                                // Connection threads exit once their in-flight response
                                                                // (now guaranteed delivered or cancelled) is written and
                                                                // they observe `draining` at the next idle poll.
                for h in conn_threads {
                    let _ = h.join();
                }
                let _ = supervisor.join();
                snapshot
            })
        };

        Ok(ServerHandle {
            addr,
            shutdown_requested,
            accept_thread,
        })
    }
}

/// The one fork-join pool all jobs share, as wide as `parallelism`
/// resolves; `None` at width 1 (or should the pool fail to build), where
/// jobs run serially.
fn thread_pool(parallelism: Parallelism) -> Option<ThreadPool> {
    let width = parallelism.resolved();
    if width < 2 {
        return None;
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .ok()
}

fn spawn_worker(shared: &Arc<Shared>) -> JoinHandle<()> {
    let queue = Arc::clone(&shared.queue);
    let arenas = Arc::clone(&shared.arenas);
    let (ceiling, threads) = (shared.ceiling, shared.threads.clone());
    let cache = Arc::clone(&shared.cache);
    let counters = Arc::clone(&shared.counters);
    let fault_injection = shared.fault_injection;
    std::thread::spawn(move || {
        worker_loop(
            queue,
            arenas,
            ceiling,
            threads,
            cache,
            counters,
            fault_injection,
        )
    })
}

fn accept_loop(
    listener: &Listener,
    shared: &Arc<Shared>,
    shutdown_requested: &Arc<AtomicBool>,
    watch_signals: bool,
) -> Vec<JoinHandle<()>> {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        // lint: atomic — relaxed: shutdown poll, observed within one accept tick
        if shutdown_requested.load(Ordering::Relaxed)
            || (watch_signals && crate::signal::shutdown_requested())
        {
            break;
        }
        match listener.accept() {
            Ok(stream) => {
                ServeCounters::bump(&shared.counters.accepted_connections);
                let shared = Arc::clone(shared);
                conn_threads.push(std::thread::spawn(move || connection_loop(stream, &shared)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        conn_threads.retain(|h| !h.is_finished());
    }
    // Stop admitting: connection threads observe `draining` and turn
    // new decompose requests into `shutting-down` rejections while
    // queued work keeps flowing to workers. They are joined only AFTER
    // the drain deadline logic ran — a conn thread blocked on a stalled
    // worker needs that deadline to trip its job's cancel token.
    shared.draining.store(true, Ordering::Relaxed); // lint: atomic — relaxed: latched drain flag; conn threads poll it
    conn_threads
}

fn drain_and_stop(
    shared: &Arc<Shared>,
    drain: Duration,
    workers: u64,
    worker_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> ServeSnapshot {
    let completed_at_drain = ServeCounters::get(&shared.counters.completed);
    let deadline = Instant::now() + drain;
    let mut clean = true;
    loop {
        let admitted = ServeCounters::get(&shared.counters.admitted);
        let completed = ServeCounters::get(&shared.counters.completed);
        if admitted <= completed && shared.queue.depth() == 0 {
            break;
        }
        if Instant::now() >= deadline {
            // Deadline: stop waiting politely — trip every in-flight
            // token and give the workers one grace period to observe it.
            clean = false;
            shared.cancel_all_in_flight();
            std::thread::sleep(Duration::from_millis(200));
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    shared.queue.close();
    let handles = match Arc::try_unwrap(worker_handles) {
        Ok(m) => match m.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        },
        Err(handles) => {
            let mut g = match handles.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            std::mem::take(&mut *g)
        }
    };
    for h in handles {
        let _ = h.join();
    }
    let drained = ServeCounters::get(&shared.counters.completed) - completed_at_drain;
    shared.drained_jobs.store(drained, Ordering::Relaxed); // lint: atomic — relaxed: report-only counter, read after joins
    snapshot(shared, workers, clean)
}

fn snapshot(shared: &Shared, workers: u64, drain_clean: bool) -> ServeSnapshot {
    let c = &shared.counters;
    let (hits, misses, evictions, integrity, bytes) = shared.cache.stats();
    ServeSnapshot {
        accepted_connections: ServeCounters::get(&c.accepted_connections),
        admitted: ServeCounters::get(&c.admitted),
        completed: ServeCounters::get(&c.completed),
        cancelled_jobs: ServeCounters::get(&c.cancelled_jobs),
        worker_panics: ServeCounters::get(&c.worker_panics),
        rejected_overloaded: ServeCounters::get(&c.rejected_overloaded),
        rejected_bad_request: ServeCounters::get(&c.rejected_bad_request),
        rejected_bad_frame: ServeCounters::get(&c.rejected_bad_frame),
        rejected_shutting_down: ServeCounters::get(&c.rejected_shutting_down),
        degraded: ServeCounters::get(&c.degraded),
        worker_respawns: ServeCounters::get(&c.worker_respawns),
        queue_capacity: shared.queue.capacity() as u64,
        queue_peak_depth: shared.queue.peak_depth() as u64,
        cache_hits: hits,
        cache_misses: misses,
        cache_evictions: evictions,
        cache_integrity_failures: integrity,
        cache_bytes: bytes,
        cache_byte_cap: shared.cache.byte_cap() as u64,
        workers,
        threads: pool_width(shared) as u64,
        parallel_forks: ServeCounters::get(&c.parallel_forks),
        drain_clean,
        // lint: atomic — relaxed: report-only read after workers joined
        drained_jobs: shared.drained_jobs.load(Ordering::Relaxed),
    }
}

/// Live-counters response for `{"op":"stats"}`.
fn stats_response(shared: &Shared) -> Value {
    let c = &shared.counters;
    let (hits, misses, ..) = shared.cache.stats();
    let mut doc = BTreeMap::new();
    doc.insert("ok".into(), Value::Bool(true));
    doc.insert(
        "queue_depth".into(),
        Value::Num(shared.queue.depth() as f64),
    );
    doc.insert(
        "admitted".into(),
        Value::Num(ServeCounters::get(&c.admitted) as f64),
    );
    doc.insert(
        "completed".into(),
        Value::Num(ServeCounters::get(&c.completed) as f64),
    );
    doc.insert(
        "cancelled".into(),
        Value::Num(ServeCounters::get(&c.cancelled_jobs) as f64),
    );
    doc.insert(
        "rejected_overloaded".into(),
        Value::Num(ServeCounters::get(&c.rejected_overloaded) as f64),
    );
    doc.insert(
        "worker_panics".into(),
        Value::Num(ServeCounters::get(&c.worker_panics) as f64),
    );
    doc.insert("cache_hits".into(), Value::Num(hits as f64));
    doc.insert("cache_misses".into(), Value::Num(misses as f64));
    doc.insert(
        "idle_arenas".into(),
        Value::Num(shared.arenas.idle() as f64),
    );
    doc.insert("threads".into(), Value::Num(pool_width(shared) as f64));
    doc.insert(
        "parallel_forks".into(),
        Value::Num(ServeCounters::get(&c.parallel_forks) as f64),
    );
    Value::Obj(doc)
}

/// The width of the partitioner pool jobs share (1: serial jobs).
fn pool_width(shared: &Shared) -> usize {
    shared
        .threads
        .as_ref()
        .map_or(1, ThreadPool::current_num_threads)
}

/// Backpressure hint: queued depth × a conservative per-job estimate.
fn retry_after_ms(depth: usize) -> u64 {
    (depth as u64).saturating_mul(50).clamp(50, 5_000)
}

fn connection_loop(stream: Stream, shared: &Arc<Shared>) {
    // Frame reads poll at 100ms so the loop can notice draining and
    // client death promptly.
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    // The connection's frame buffers live as long as it does.
    let mut conn = Conn::new(stream);
    loop {
        let frame = match read_frame(&mut conn) {
            Ok(v) => v,
            Err(FrameError::Idle) => {
                // lint: atomic — relaxed: drain poll; one extra request is harmless
                if shared.draining.load(Ordering::Relaxed) {
                    return; // drain: shed idle keepalive connections
                }
                continue;
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Malformed(m)) => {
                ServeCounters::bump(&shared.counters.rejected_bad_frame);
                let _ = write_frame(&mut conn, &error_response(codes::BAD_FRAME, &m, None));
                return; // a malformed peer gets one typed error, then the door
            }
        };
        // The frame moves into the parser: inline matrix text moves on
        // into the request, and nothing else of the frame outlives it.
        let request = match parse_request(frame) {
            Ok(r) => r,
            Err(m) => {
                ServeCounters::bump(&shared.counters.rejected_bad_request);
                let _ = write_frame(&mut conn, &error_response(codes::BAD_REQUEST, &m, None));
                continue;
            }
        };
        match request {
            Request::Ping => {
                let mut doc = BTreeMap::new();
                doc.insert("ok".into(), Value::Bool(true));
                doc.insert("op".into(), Value::Str("ping".into()));
                if write_frame(&mut conn, &Value::Obj(doc)).is_err() {
                    return;
                }
            }
            Request::Stats => {
                if write_frame(&mut conn, &stats_response(shared)).is_err() {
                    return;
                }
            }
            Request::Decompose(_) | Request::Batch(_) => {
                // lint: atomic — relaxed: drain poll; one extra request is harmless
                if shared.draining.load(Ordering::Relaxed) {
                    ServeCounters::bump(&shared.counters.rejected_shutting_down);
                    let _ = write_frame(
                        &mut conn,
                        &error_response(
                            codes::SHUTTING_DOWN,
                            "daemon is draining; no new work admitted",
                            None,
                        ),
                    );
                    continue;
                }
                // A batch occupies one queue slot and one worker, same
                // admission and cancellation story as a single request.
                let payload = match request {
                    Request::Decompose(req) => JobPayload::Single(req),
                    Request::Batch(reqs) => JobPayload::Batch(reqs),
                    _ => unreachable!("outer match admits only decompose/batch here"),
                };
                let cancel = CancelToken::new();
                let (tx, rx) = std::sync::mpsc::sync_channel::<Value>(1);
                let job = Job {
                    request: payload,
                    cancel: cancel.clone(),
                    respond: tx,
                };
                match shared.queue.push(job) {
                    Err(PushError::Full { depth }) => {
                        ServeCounters::bump(&shared.counters.rejected_overloaded);
                        let _ = write_frame(
                            &mut conn,
                            &error_response(
                                codes::OVERLOADED,
                                &format!("job queue full ({depth} waiting)"),
                                Some(retry_after_ms(depth)),
                            ),
                        );
                        continue;
                    }
                    Err(PushError::Closed) => {
                        ServeCounters::bump(&shared.counters.rejected_shutting_down);
                        let _ = write_frame(
                            &mut conn,
                            &error_response(codes::SHUTTING_DOWN, "daemon is draining", None),
                        );
                        continue;
                    }
                    Ok(()) => {}
                }
                ServeCounters::bump(&shared.counters.admitted);
                let registration = shared.register(&cancel);
                // Await the worker, watching the socket: a client that
                // hangs up mid-request gets its job cancelled.
                let response = loop {
                    match rx.recv_timeout(Duration::from_millis(25)) {
                        Ok(v) => break Some(v),
                        Err(RecvTimeoutError::Timeout) => match conn.stream.probe_liveness() {
                            Probe::Alive => continue,
                            Probe::Disconnected | Probe::UnexpectedData => {
                                cancel.cancel();
                                break None;
                            }
                        },
                        Err(RecvTimeoutError::Disconnected) => {
                            // Worker died without responding (panic that
                            // escaped containment); supervision respawns
                            // it, this client gets the typed error.
                            break Some(error_response(
                                codes::WORKER_PANIC,
                                "worker lost while executing the job",
                                None,
                            ));
                        }
                    }
                };
                shared.unregister(registration);
                match response {
                    Some(v) => {
                        if write_frame(&mut conn, &v).is_err() {
                            return;
                        }
                    }
                    None => return, // disconnected client: job cancelled, close
                }
            }
        }
    }
}
