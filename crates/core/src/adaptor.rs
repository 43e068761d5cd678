//! Feed adaptors (Ch. 4.1).
//!
//! "The functionality of establishing a connection with an external data
//! source, receiving, parsing, and translating data into ADM records is
//! contained in a Feed Adaptor ... the Feed Adaptor is treated by the rest
//! of the system as a black box that outputs ADM records." An adaptor's
//! *factory* tells AsterixDB the adaptor's parallelism (the `getConstraints`
//! API of §5.3.1) and builds configured instances.
//!
//! Built-ins:
//! * [`TweetGenAdaptorFactory`] (`TweetGenAdaptor`) — connects to TweetGen
//!   instances at the socket addresses listed in its `datasource`
//!   parameter, one adaptor instance per address (parallel ingestion,
//!   Listing 5.19);
//! * [`SocketAdaptorFactory`] (`socket_adaptor`) — the "generic socket-based
//!   feed adaptor that can be used to ingest data that is directed at a
//!   specified socket address" (§4.1), backed by an in-process channel
//!   registry;
//! * [`FileAdaptorFactory`] (`file_based_feed`) — reads ADM/JSON records
//!   (one per line) from a file, the §5.7.1 "simulated feed" used to compare
//!   batch inserts against feed ingestion;
//! * [`TraceAdaptorFactory`] (`trace_adaptor`) — replays a recorded trace
//!   file of `offset_millis<TAB>payload` lines on the simulation clock,
//!   re-emitting each record at its original offset with its original
//!   generation stamp, so a captured workload reruns deterministically.
//!
//! Every adaptor is *polled* ([`FeedAdaptor::poll`]): the collect operator
//! hosting it is a task on the shared worker pool, so an adaptor hands over
//! what its source has already delivered and returns — it never waits. The
//! paper's two modes (§5.3.1) both fit: a *push* source is whatever pushes
//! into the channel the adaptor drains (TweetGen's pusher, a `bind_socket`
//! client), a *pull* source makes one request per poll (the next lines of a
//! file, the trace records that are due). A source that can only be read
//! with a blocking call wraps its own thread and channel, exactly as those
//! push sources do, and is polled like them.
//!
//! Every built-in adaptor turns a line into a record the same way
//! (`translate`): the text is transcoded straight to binary ADM in the
//! instance's reusable buffer and the payload is one copy of it — no
//! `AdmValue` is built at the front door. Adaptors that *skip* unparseable
//! input (including text nested more than 128 collections deep) instead of
//! failing the feed count every skipped line in the connection's registered
//! `parse.malformed_lines` counter (handed to [`AdaptorFactory::create`]),
//! so silent drops at the front door are observable in metrics snapshots.

use asterix_adm::transcode;
use asterix_common::sync::Mutex;
use asterix_common::{
    Counter, FaultKind, FaultPlan, IngestError, IngestResult, Record, SimClock, SimInstant,
};
use asterix_hyracks::job::Constraint;
use asterix_hyracks::operator::SourcePoll;
use crossbeam_channel::{Receiver, Sender, TryRecvError};
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::sync::Arc;

/// Adaptor configuration: the `("key"="value")` pairs of `create feed`.
pub type AdaptorConfig = BTreeMap<String, String>;

/// Emission callback handed to a polled adaptor.
pub type EmitFn<'a> = &'a mut dyn FnMut(Record) -> IngestResult<()>;

/// A configured adaptor instance.
pub trait FeedAdaptor: Send {
    /// Emit what the source has already delivered — at most `budget` inputs
    /// — and return without ever waiting. [`SourcePoll::Produced`]: input
    /// was consumed, more may be there; [`SourcePoll::Idle`]: nothing right
    /// now (with the wait until the next input, when the adaptor knows it);
    /// [`SourcePoll::Done`]: the source is exhausted and the feed ends
    /// gracefully. An error signals that reconnection proved futile (§6.2.3,
    /// "External Source Failure") and terminates the feed. Nothing touches
    /// the external source before the first poll.
    fn poll(&mut self, emit: EmitFn<'_>, budget: usize) -> IngestResult<SourcePoll>;
}

/// Factory for a named adaptor.
pub trait AdaptorFactory: Send + Sync {
    /// The alias used in `create feed ... using <alias>`.
    fn alias(&self) -> &str;

    /// The §5.3.1 `getConstraints()` API: how many instances, where.
    fn constraints(&self, config: &AdaptorConfig) -> IngestResult<Constraint>;

    /// Build the instance for `partition`. `malformed_lines` is the
    /// connection's registered `parse.malformed_lines` counter: an adaptor
    /// that skips unparseable input rather than failing the feed must count
    /// every skipped line there.
    fn create(
        &self,
        config: &AdaptorConfig,
        partition: usize,
        clock: &SimClock,
        malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>>;
}

fn parse_datasource_list(config: &AdaptorConfig, key: &str) -> IngestResult<Vec<String>> {
    let raw = config
        .get(key)
        .ok_or_else(|| IngestError::Config(format!("adaptor requires '{key}' parameter")))?;
    let addrs: Vec<String> = raw
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err(IngestError::Config(format!("'{key}' lists no addresses")));
    }
    Ok(addrs)
}

/// Translate one external JSON/ADM line into an ADM record payload (§5.3.1).
/// Malformed input yields a parse error the adaptor may skip.
///
/// This is the *one* text parse a record ever gets, and it builds no tree:
/// [`transcode`] writes the binary ADM encoding every later stage reads in
/// place into the adaptor instance's reusable `scratch` buffer, and the
/// record's payload is one exactly-sized copy of it.
fn translate(line: &str, adaptor_instance: u32, scratch: &mut Vec<u8>) -> IngestResult<Record> {
    scratch.clear();
    transcode(line, scratch)?;
    // `From<&[u8]>` is `Bytes::copy_from_slice`: one allocation, no regrowth
    Ok(Record::untracked(adaptor_instance, &scratch[..]))
}

/// Drain up to `budget` items a push source has already put on its channel.
/// A closed, drained channel is an exhausted source.
fn drain_channel<T>(
    rx: &Receiver<T>,
    budget: usize,
    mut each: impl FnMut(T) -> IngestResult<()>,
) -> IngestResult<SourcePoll> {
    for taken in 0..budget {
        match rx.try_recv() {
            Ok(item) => each(item)?,
            Err(TryRecvError::Empty) if taken == 0 => return Ok(SourcePoll::Idle(None)),
            Err(TryRecvError::Empty) => break,
            Err(TryRecvError::Disconnected) => return Ok(SourcePoll::Done),
        }
    }
    Ok(SourcePoll::Produced)
}

// ---------------------------------------------------------------------------
// TweetGen adaptor
// ---------------------------------------------------------------------------

/// Factory for the TweetGen adaptor.
#[derive(Debug, Default)]
pub struct TweetGenAdaptorFactory;

impl AdaptorFactory for TweetGenAdaptorFactory {
    fn alias(&self) -> &str {
        "TweetGenAdaptor"
    }

    fn constraints(&self, config: &AdaptorConfig) -> IngestResult<Constraint> {
        Ok(Constraint::Count(
            parse_datasource_list(config, "datasource")?.len(),
        ))
    }

    fn create(
        &self,
        config: &AdaptorConfig,
        partition: usize,
        _clock: &SimClock,
        malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>> {
        let addrs = parse_datasource_list(config, "datasource")?;
        let addr = addrs
            .get(partition)
            .ok_or_else(|| {
                IngestError::Plan(format!(
                    "adaptor partition {partition} exceeds datasource list of {}",
                    addrs.len()
                ))
            })?
            .clone();
        Ok(Box::new(TweetGenAdaptor {
            addr,
            wire: None,
            instance: partition as u32,
            malformed_lines: malformed_lines.clone(),
            scratch: Vec::new(),
        }))
    }
}

struct TweetGenAdaptor {
    addr: String,
    /// The push channel, once the first poll has done the handshake.
    wire: Option<Receiver<tweetgen::StampedTweet>>,
    instance: u32,
    malformed_lines: Counter,
    /// [`translate`]'s buffer, reused for every record.
    scratch: Vec<u8>,
}

impl FeedAdaptor for TweetGenAdaptor {
    fn poll(&mut self, emit: EmitFn<'_>, budget: usize) -> IngestResult<SourcePoll> {
        let wire = match &self.wire {
            Some(wire) => wire,
            // the initial handshake; a failure here is fatal for the feed
            None => self.wire.insert(tweetgen::connect(&self.addr)?),
        };
        // TweetGen closes the push channel when its pattern completes (or it
        // was stopped): the feed's data is exhausted, end gracefully.
        // Recovery from a *transient* source outage (§6.2.3) is
        // adaptor-specific; TweetGen has no such failure mode, so no
        // reconnect is attempted — it would restart the pattern from zero.
        drain_channel(wire, budget, |tweet| {
            // the wire carries the generation stamp; it rides on the record
            // so the store can derive end-to-end ingestion lag
            match translate(&tweet.json, self.instance, &mut self.scratch) {
                Ok(rec) => emit(rec.stamped(tweet.gen_at))?,
                Err(_) => self.malformed_lines.inc(),
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------
// Generic socket adaptor
// ---------------------------------------------------------------------------

static SOCKETS: Mutex<Option<HashMap<String, Receiver<String>>>> = Mutex::new(None);

/// Bind an in-process "socket" at `addr` that external producers can push
/// lines into; the generic socket adaptor consumes it.
pub fn bind_socket(addr: &str, capacity: usize) -> IngestResult<Sender<String>> {
    let (tx, rx) = crossbeam_channel::bounded(capacity);
    let mut reg = SOCKETS.lock();
    let map = reg.get_or_insert_with(HashMap::new);
    if map.contains_key(addr) {
        return Err(IngestError::Config(format!("socket {addr} already bound")));
    }
    map.insert(addr.to_string(), rx);
    Ok(tx)
}

/// Remove a socket binding.
pub fn unbind_socket(addr: &str) {
    if let Some(map) = SOCKETS.lock().as_mut() {
        map.remove(addr);
    }
}

/// Factory for the generic socket adaptor.
#[derive(Debug, Default)]
pub struct SocketAdaptorFactory;

impl AdaptorFactory for SocketAdaptorFactory {
    fn alias(&self) -> &str {
        "socket_adaptor"
    }

    fn constraints(&self, config: &AdaptorConfig) -> IngestResult<Constraint> {
        Ok(Constraint::Count(
            parse_datasource_list(config, "sockets")?.len(),
        ))
    }

    fn create(
        &self,
        config: &AdaptorConfig,
        partition: usize,
        _clock: &SimClock,
        malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>> {
        let addrs = parse_datasource_list(config, "sockets")?;
        let addr = addrs
            .get(partition)
            .ok_or_else(|| IngestError::Plan("socket partition out of range".into()))?;
        let rx = SOCKETS
            .lock()
            .as_ref()
            .and_then(|m| m.get(addr))
            .cloned()
            .ok_or_else(|| IngestError::Disconnected(format!("no socket bound at {addr}")))?;
        Ok(Box::new(SocketAdaptor {
            rx,
            instance: partition as u32,
            malformed_lines: malformed_lines.clone(),
            scratch: Vec::new(),
        }))
    }
}

struct SocketAdaptor {
    rx: Receiver<String>,
    instance: u32,
    malformed_lines: Counter,
    /// [`translate`]'s buffer, reused for every record.
    scratch: Vec<u8>,
}

impl FeedAdaptor for SocketAdaptor {
    fn poll(&mut self, emit: EmitFn<'_>, budget: usize) -> IngestResult<SourcePoll> {
        drain_channel(&self.rx, budget, |line| {
            match translate(&line, self.instance, &mut self.scratch) {
                Ok(rec) => emit(rec)?,
                Err(_) => self.malformed_lines.inc(),
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------
// File adaptor
// ---------------------------------------------------------------------------

/// Factory for the file-based adaptor (Listing 5.16's `file_based_feed`).
#[derive(Debug, Default)]
pub struct FileAdaptorFactory;

impl AdaptorFactory for FileAdaptorFactory {
    fn alias(&self) -> &str {
        "file_based_feed"
    }

    fn constraints(&self, _config: &AdaptorConfig) -> IngestResult<Constraint> {
        Ok(Constraint::Count(1))
    }

    fn create(
        &self,
        config: &AdaptorConfig,
        _partition: usize,
        _clock: &SimClock,
        _malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>> {
        let path = config
            .get("path")
            .ok_or_else(|| IngestError::Config("file_based_feed requires 'path'".into()))?
            .clone();
        Ok(Box::new(FileAdaptor {
            path,
            lines: None,
            scratch: Vec::new(),
        }))
    }
}

type Lines = std::io::Lines<std::io::BufReader<std::fs::File>>;

/// Open `path` for line-at-a-time reading (a file or trace adaptor's first
/// poll).
fn open_lines(path: &str) -> IngestResult<Lines> {
    let file =
        std::fs::File::open(path).map_err(|e| IngestError::Config(format!("open {path}: {e}")))?;
    Ok(std::io::BufReader::new(file).lines())
}

struct FileAdaptor {
    path: String,
    lines: Option<Lines>,
    /// [`translate`]'s buffer, reused for every record.
    scratch: Vec<u8>,
}

impl FeedAdaptor for FileAdaptor {
    fn poll(&mut self, emit: EmitFn<'_>, budget: usize) -> IngestResult<SourcePoll> {
        let lines = match &mut self.lines {
            Some(lines) => lines,
            None => self.lines.insert(open_lines(&self.path)?),
        };
        let mut taken = 0;
        for line in lines.by_ref().take(budget) {
            taken += 1;
            let line = line.map_err(|e| IngestError::Config(format!("read {}: {e}", self.path)))?;
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                // a corrupt file is not survivable
                emit(translate(trimmed, 0, &mut self.scratch)?)?;
            }
        }
        Ok(if taken < budget {
            SourcePoll::Done
        } else {
            SourcePoll::Produced
        })
    }
}

// ---------------------------------------------------------------------------
// Trace replay adaptor
// ---------------------------------------------------------------------------

/// Factory for the trace-replay adaptor (`trace_adaptor`).
///
/// A trace file holds one record per line as `offset_millis<TAB>payload`:
/// the sim-milliseconds since replay start at which the record originally
/// arrived, then its JSON/ADM text. Replay walks the file on the
/// *simulation clock* — each record is emitted once the clock reaches
/// `start + offset` and is stamped with that instant as its generation
/// time, so ingestion-lag histograms and windowed routing predicates see
/// the recorded timeline, not the replay wall clock. Capturing a live
/// workload into this format ([`write_trace`]) turns any one-off incident
/// into a deterministic, rerunnable experiment.
#[derive(Debug, Default)]
pub struct TraceAdaptorFactory;

impl AdaptorFactory for TraceAdaptorFactory {
    fn alias(&self) -> &str {
        "trace_adaptor"
    }

    fn constraints(&self, config: &AdaptorConfig) -> IngestResult<Constraint> {
        if !config.contains_key("path") {
            return Err(IngestError::Config("trace_adaptor requires 'path'".into()));
        }
        Ok(Constraint::Count(1))
    }

    fn create(
        &self,
        config: &AdaptorConfig,
        partition: usize,
        clock: &SimClock,
        malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>> {
        let path = config
            .get("path")
            .ok_or_else(|| IngestError::Config("trace_adaptor requires 'path'".into()))?
            .clone();
        Ok(Box::new(TraceAdaptor {
            path,
            instance: partition as u32,
            clock: clock.clone(),
            malformed_lines: malformed_lines.clone(),
            replay: None,
            scratch: Vec::new(),
        }))
    }
}

/// Write `(offset_millis, payload)` pairs as a trace file the
/// [`TraceAdaptorFactory`] can replay. Payloads must be single-line.
pub fn write_trace<'a>(
    path: &std::path::Path,
    records: impl IntoIterator<Item = (u64, &'a str)>,
) -> IngestResult<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(path)
            .map_err(|e| IngestError::Config(format!("create {}: {e}", path.display())))?,
    );
    for (offset, payload) in records {
        if payload.contains('\n') {
            return Err(IngestError::Config(
                "trace payloads must be single-line".into(),
            ));
        }
        writeln!(out, "{offset}\t{payload}")
            .map_err(|e| IngestError::Config(format!("write {}: {e}", path.display())))?;
    }
    out.flush()
        .map_err(|e| IngestError::Config(format!("flush {}: {e}", path.display())))
}

struct TraceAdaptor {
    path: String,
    instance: u32,
    clock: SimClock,
    malformed_lines: Counter,
    /// Set by the first poll, which starts the replay timeline.
    replay: Option<Replay>,
    /// [`translate`]'s buffer, reused for every record.
    scratch: Vec<u8>,
}

struct Replay {
    lines: Lines,
    start: SimInstant,
    /// The next record and the instant it is due, read but not yet emitted.
    next: Option<(SimInstant, String)>,
}

impl Replay {
    /// The instant the next recorded line is due (reading ahead to it if
    /// need be); `None` at the end of the trace.
    fn next_due(&mut self, path: &str) -> IngestResult<Option<SimInstant>> {
        while self.next.is_none() {
            let Some(line) = self.lines.next() else {
                return Ok(None);
            };
            let line = line.map_err(|e| IngestError::Config(format!("read {path}: {e}")))?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            // a line without the offset frame means the *trace* is corrupt
            // (not merely one recorded payload) — that is not survivable
            let (offset, payload) = trimmed.split_once('\t').ok_or_else(|| {
                IngestError::Config(format!("trace {path}: line lacks offset<TAB>"))
            })?;
            // an offset the clock cannot reach is as bad as a non-numeric one
            let due = offset
                .parse()
                .ok()
                .and_then(|ms: u64| self.start.0.checked_add(ms))
                .ok_or_else(|| {
                    IngestError::Config(format!("trace {path}: bad offset '{offset}'"))
                })?;
            self.next = Some((SimInstant(due), payload.to_string()));
        }
        Ok(self.next.as_ref().map(|(due, _)| *due))
    }
}

impl FeedAdaptor for TraceAdaptor {
    fn poll(&mut self, emit: EmitFn<'_>, budget: usize) -> IngestResult<SourcePoll> {
        let replay = match &mut self.replay {
            Some(replay) => replay,
            None => self.replay.insert(Replay {
                lines: open_lines(&self.path)?,
                start: self.clock.now(),
                next: None,
            }),
        };
        for emitted in 0..budget {
            let Some(due) = replay.next_due(&self.path)? else {
                return Ok(SourcePoll::Done);
            };
            let now = self.clock.now();
            if now < due {
                // not due yet: say when, so the host need not poll sooner
                return Ok(match emitted {
                    0 => SourcePoll::Idle(Some(self.clock.to_real(due.since(now)))),
                    _ => SourcePoll::Produced,
                });
            }
            let (_, payload) = replay.next.take().expect("buffered by next_due");
            // a recorded payload that never parsed is replayed faithfully:
            // skipped and counted, exactly as the live adaptor treated it
            match translate(&payload, self.instance, &mut self.scratch) {
                Ok(rec) => emit(rec.stamped(due))?,
                Err(_) => self.malformed_lines.inc(),
            }
        }
        Ok(SourcePoll::Produced)
    }
}

// ---------------------------------------------------------------------------
// Chaos wrapper
// ---------------------------------------------------------------------------

/// Decorator installing a [`FaultPlan`] around any adaptor: every emitted
/// record advances the plan's shared record counter (the clock the whole
/// chaos schedule runs on), and a due [`FaultKind::AdaptorDisconnect`]
/// makes the wrapped adaptor stop emitting — the external source hanging
/// up, §6.2.3's "External Source Failure" without a viable reconnect.
///
/// Registered under `chaos:<inner alias>` so chaos experiments opt in per
/// feed while the plain alias keeps working untouched.
pub struct ChaosAdaptorFactory {
    inner: Arc<dyn AdaptorFactory>,
    plan: Arc<FaultPlan>,
    alias: String,
}

impl ChaosAdaptorFactory {
    /// Wrap `inner`, driving (and driven by) `plan`.
    pub fn new(inner: Arc<dyn AdaptorFactory>, plan: Arc<FaultPlan>) -> ChaosAdaptorFactory {
        let alias = format!("chaos:{}", inner.alias());
        ChaosAdaptorFactory { inner, plan, alias }
    }
}

impl AdaptorFactory for ChaosAdaptorFactory {
    fn alias(&self) -> &str {
        &self.alias
    }

    fn constraints(&self, config: &AdaptorConfig) -> IngestResult<Constraint> {
        self.inner.constraints(config)
    }

    fn create(
        &self,
        config: &AdaptorConfig,
        partition: usize,
        clock: &SimClock,
        malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>> {
        Ok(Box::new(ChaosAdaptor {
            inner: self
                .inner
                .create(config, partition, clock, malformed_lines)?,
            plan: Arc::clone(&self.plan),
        }))
    }
}

struct ChaosAdaptor {
    inner: Box<dyn FeedAdaptor>,
    plan: Arc<FaultPlan>,
}

impl FeedAdaptor for ChaosAdaptor {
    fn poll(&mut self, emit: EmitFn<'_>, budget: usize) -> IngestResult<SourcePoll> {
        let plan = &self.plan;
        let mut hung_up = false;
        let mut wrapped = |rec: Record| -> IngestResult<()> {
            emit(rec)?;
            plan.tick_records(1);
            if !plan.take_due(FaultKind::is_adaptor_event).is_empty() {
                hung_up = true;
                // surfacing an error makes any inner adaptor stop at once
                return Err(IngestError::Disconnected("chaos: source hung up".into()));
            }
            Ok(())
        };
        let polled = self.inner.poll(&mut wrapped, budget);
        if hung_up {
            // the injected hang-up is an exhausted source, not a feed error
            return Ok(SourcePoll::Done);
        }
        polled
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Registry of adaptor factories (the DatasourceAdapter metadata dataset,
/// pre-populated with the built-ins — §5.1).
#[derive(Clone)]
pub struct AdaptorRegistry {
    factories: Arc<Mutex<HashMap<String, Arc<dyn AdaptorFactory>>>>,
}

impl AdaptorRegistry {
    /// Registry holding the built-in adaptors.
    pub fn with_builtins() -> AdaptorRegistry {
        let reg = AdaptorRegistry {
            factories: Arc::new(Mutex::new(HashMap::new())),
        };
        reg.register(Arc::new(TweetGenAdaptorFactory));
        reg.register(Arc::new(SocketAdaptorFactory));
        reg.register(Arc::new(FileAdaptorFactory));
        reg.register(Arc::new(TraceAdaptorFactory));
        reg
    }

    /// Install a (custom) adaptor factory.
    pub fn register(&self, factory: Arc<dyn AdaptorFactory>) {
        self.factories
            .lock()
            .insert(factory.alias().to_string(), factory);
    }

    /// Look up by alias.
    pub fn get(&self, alias: &str) -> IngestResult<Arc<dyn AdaptorFactory>> {
        self.factories
            .lock()
            .get(alias)
            .cloned()
            .ok_or_else(|| IngestError::Metadata(format!("unknown adaptor '{alias}'")))
    }

    /// Registered aliases.
    pub fn aliases(&self) -> Vec<String> {
        self.factories.lock().keys().cloned().collect()
    }
}

impl std::fmt::Debug for AdaptorRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AdaptorRegistry({:?})", self.aliases())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::decode_value;
    use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

    /// Poll `adaptor` until its source is exhausted, the way the collect
    /// operator does (waiting out idle polls); returns what it emitted.
    fn drain(adaptor: &mut dyn FeedAdaptor) -> Vec<Record> {
        let mut out = Vec::new();
        let mut emit = |r: Record| {
            out.push(r);
            Ok(())
        };
        loop {
            match adaptor.poll(&mut emit, 16).unwrap() {
                SourcePoll::Produced => {}
                SourcePoll::Idle(wait) => {
                    std::thread::sleep(wait.unwrap_or(std::time::Duration::from_millis(1)))
                }
                SourcePoll::Done => return out,
            }
        }
    }

    /// One poll that must fail (a source that cannot be opened or read).
    fn poll_fails(adaptor: &mut dyn FeedAdaptor) -> bool {
        adaptor.poll(&mut |_r: Record| Ok(()), 16).is_err()
    }

    #[test]
    fn registry_has_builtins() {
        let reg = AdaptorRegistry::with_builtins();
        assert!(reg.get("TweetGenAdaptor").is_ok());
        assert!(reg.get("socket_adaptor").is_ok());
        assert!(reg.get("file_based_feed").is_ok());
        assert!(reg.get("trace_adaptor").is_ok());
        assert!(matches!(
            reg.get("CNNAdaptor"),
            Err(IngestError::Metadata(_))
        ));
    }

    #[test]
    fn tweetgen_adaptor_constraints_follow_datasource_list() {
        let f = TweetGenAdaptorFactory;
        let mut cfg = AdaptorConfig::new();
        cfg.insert("datasource".into(), "a:1, b:2 ,c:3".into());
        assert_eq!(f.constraints(&cfg).unwrap(), Constraint::Count(3));
        assert!(f.constraints(&AdaptorConfig::new()).is_err());
        let mut empty = AdaptorConfig::new();
        empty.insert("datasource".into(), " , ".into());
        assert!(f.constraints(&empty).is_err());
    }

    #[test]
    fn tweetgen_adaptor_receives_and_translates() {
        let clock = SimClock::with_scale(10.0);
        let g = TweetGen::bind(
            TweetGenConfig::new("adap:9000", 0, PatternDescriptor::constant(200, 2)),
            clock.clone(),
        )
        .unwrap();
        let mut cfg = AdaptorConfig::new();
        cfg.insert("datasource".into(), "adap:9000".into());
        let mut adaptor = TweetGenAdaptorFactory
            .create(&cfg, 0, &clock, &Counter::new())
            .unwrap();
        let records = drain(adaptor.as_mut());
        assert!(records.len() > 100, "got {}", records.len());
        // payload is binary ADM of the translated record
        let v = decode_value(&records[0].payload).unwrap();
        assert!(v.field("id").is_some());
        assert!(!records[0].is_tracked());
        g.stop();
    }

    #[test]
    fn socket_adaptor_skips_and_counts_malformed_lines() {
        let tx = bind_socket("sock:1", 16).unwrap();
        tx.send("{\"id\":\"a\"}".into()).unwrap();
        tx.send("not adm at all {{{".into()).unwrap();
        // nested deeper than a record may be: a parse error, not a stack
        // overflow that takes the node down
        tx.send(format!("{}1{}", "[".repeat(129), "]".repeat(129)))
            .unwrap();
        tx.send("[".repeat(1_000_000)).unwrap();
        tx.send("{\"id\":\"b\"}".into()).unwrap();
        drop(tx);
        let mut cfg = AdaptorConfig::new();
        cfg.insert("sockets".into(), "sock:1".into());
        let malformed = Counter::new();
        let mut adaptor = SocketAdaptorFactory
            .create(&cfg, 0, &SimClock::fast(), &malformed)
            .unwrap();
        let records = drain(adaptor.as_mut());
        assert_eq!(records.len(), 2);
        // the skipped lines are visible, not silently dropped
        assert_eq!(malformed.get(), 3);
        unbind_socket("sock:1");
    }

    #[test]
    fn socket_double_bind_rejected() {
        let _tx = bind_socket("sock:2", 4).unwrap();
        assert!(bind_socket("sock:2", 4).is_err());
        unbind_socket("sock:2");
    }

    #[test]
    fn file_adaptor_reads_records() {
        let dir = std::env::temp_dir();
        let path = dir.join("asterix_file_adaptor_test.adm");
        std::fs::write(&path, "{\"id\":\"a\",\"x\":1}\n\n{\"id\":\"b\",\"x\":2}\n").unwrap();
        let mut cfg = AdaptorConfig::new();
        cfg.insert("path".into(), path.to_string_lossy().into_owned());
        let mut adaptor = FileAdaptorFactory
            .create(&cfg, 0, &SimClock::fast(), &Counter::new())
            .unwrap();
        let records = drain(adaptor.as_mut());
        assert_eq!(records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_adaptor_missing_file_errors() {
        let mut cfg = AdaptorConfig::new();
        cfg.insert("path".into(), "/definitely/not/here.adm".into());
        let mut adaptor = FileAdaptorFactory
            .create(&cfg, 0, &SimClock::fast(), &Counter::new())
            .unwrap();
        assert!(poll_fails(adaptor.as_mut()));
    }

    #[test]
    fn chaos_adaptor_disconnects_after_scheduled_record() {
        use asterix_common::fault::FaultEvent;
        let tx = bind_socket("sock:chaos", 64).unwrap();
        for i in 0..20 {
            tx.send(format!("{{\"id\":\"r{i}\"}}")).unwrap();
        }
        drop(tx);
        let plan = Arc::new(FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at_record: 5,
                kind: FaultKind::AdaptorDisconnect,
            }],
        ));
        let factory = ChaosAdaptorFactory::new(Arc::new(SocketAdaptorFactory), Arc::clone(&plan));
        assert_eq!(factory.alias(), "chaos:socket_adaptor");
        let mut cfg = AdaptorConfig::new();
        cfg.insert("sockets".into(), "sock:chaos".into());
        let mut adaptor = factory
            .create(&cfg, 0, &SimClock::fast(), &Counter::new())
            .unwrap();
        let records = drain(adaptor.as_mut()); // unwraps Ok: graceful
        assert_eq!(records.len(), 5, "stops exactly at the scheduled record");
        assert_eq!(plan.records_seen(), 5);
        unbind_socket("sock:chaos");
    }

    #[test]
    fn trace_adaptor_replays_records_on_the_sim_clock() {
        let path = std::env::temp_dir().join("asterix_trace_adaptor_test.trace");
        write_trace(
            &path,
            [
                (0u64, "{\"id\":\"a\"}"),
                (150, "{\"id\":\"b\"}"),
                (150, "not adm {{{"),
                (400, "{\"id\":\"c\"}"),
            ],
        )
        .unwrap();
        let clock = SimClock::with_scale(10.0);
        let mut cfg = AdaptorConfig::new();
        cfg.insert("path".into(), path.to_string_lossy().into_owned());
        assert_eq!(
            TraceAdaptorFactory.constraints(&cfg).unwrap(),
            Constraint::Count(1)
        );
        let malformed = Counter::new();
        let start = clock.now();
        let mut adaptor = TraceAdaptorFactory
            .create(&cfg, 0, &clock, &malformed)
            .unwrap();
        let records = drain(adaptor.as_mut());
        std::fs::remove_file(&path).ok();
        // the well-formed payloads arrive in order, the recorded junk line
        // is skipped and counted
        assert_eq!(records.len(), 3);
        assert_eq!(malformed.get(), 1);
        let ids: Vec<String> = records
            .iter()
            .map(|r| {
                let v = decode_value(&r.payload).unwrap();
                v.field("id").unwrap().as_str().unwrap().to_string()
            })
            .collect();
        assert_eq!(ids, ["a", "b", "c"]);
        // generation stamps reproduce the recorded offsets (relative to the
        // replay's own start instant), and replay really waited out the
        // last offset on the sim clock
        let stamps: Vec<u64> = records
            .iter()
            .map(|r| r.gen_at.unwrap().as_millis())
            .collect();
        let relative: Vec<u64> = stamps.iter().map(|s| s - stamps[0]).collect();
        assert_eq!(relative, [0, 150, 400]);
        assert!(clock.now().since(start).0 >= 400);
    }

    /// The trace file is input from outside the program: whatever a line
    /// holds, replay answers with a typed error (the *trace* is corrupt) or
    /// a counted `parse.malformed_lines` (one recorded payload is), never a
    /// panic and never a record stamped with a wrapped-around instant.
    #[test]
    fn trace_adaptor_survives_hostile_lines() {
        let path = std::env::temp_dir().join("asterix_trace_adaptor_hostile.trace");
        let mut cfg = AdaptorConfig::new();
        cfg.insert("path".into(), path.to_string_lossy().into_owned());
        let clock = SimClock::fast();
        while clock.now() == SimInstant(0) {
            std::thread::yield_now(); // any offset overflows only past instant 0
        }
        // (what, contents, Some((records, malformed)) | None for a typed error)
        let cases = [
            ("no TAB", "{\"id\":\"a\"}\n", None),
            ("non-numeric offset", "soon\t{\"id\":\"a\"}\n", None),
            ("negative offset", "-5\t{\"id\":\"a\"}\n", None),
            ("offset past u64", "18446744073709551616\t{}\n", None),
            ("offset past the clock", "18446744073709551615\t{}\n", None),
            // the trailing-whitespace trim eats the TAB of an empty payload
            ("empty payload", "0\t\n", None),
            ("junk payload", "0\t{{{\n0\t{\"id\":\"a\"}\n", Some((1, 1))),
            ("CRLF line ends", "0\t{}\r\n0\t{}\r\n", Some((2, 0))),
            ("blank lines", "\n\n0\t{}\n  \n\r\n", Some((1, 0))),
        ];
        for (what, contents, expected) in cases {
            std::fs::write(&path, contents).unwrap();
            let malformed = Counter::new();
            let mut adaptor = TraceAdaptorFactory
                .create(&cfg, 0, &clock, &malformed)
                .unwrap();
            let mut records = 0;
            let outcome = loop {
                let mut emit = |r: Record| {
                    assert!(r.gen_at.unwrap() >= SimInstant(1), "{what}: stamp wrapped");
                    records += 1;
                    Ok(())
                };
                match adaptor.poll(&mut emit, 16) {
                    Ok(SourcePoll::Done) => break Some((records, malformed.get())),
                    Ok(_) => {}
                    Err(e) => {
                        assert!(matches!(e, IngestError::Config(_)), "{what}: {e}");
                        break None;
                    }
                }
            };
            assert_eq!(outcome, expected, "{what}");
        }
        std::fs::remove_file(&path).ok();
        assert!(TraceAdaptorFactory
            .constraints(&AdaptorConfig::new())
            .is_err());
    }

    #[test]
    fn stop_token_halts_adaptor() {
        // a bound socket whose client stays silent: there is nothing for a
        // poll to wait in, so whoever holds the stop token (the collect
        // operator) gets control back at once
        let _tx = bind_socket("sock:3", 4).unwrap();
        let mut cfg = AdaptorConfig::new();
        cfg.insert("sockets".into(), "sock:3".into());
        let mut adaptor = SocketAdaptorFactory
            .create(&cfg, 0, &SimClock::fast(), &Counter::new())
            .unwrap();
        let mut emit = |_r: Record| Ok(());
        let polled = adaptor.poll(&mut emit, 16).unwrap(); // returns promptly
        assert_eq!(polled, SourcePoll::Idle(None));
        unbind_socket("sock:3");
    }
}
