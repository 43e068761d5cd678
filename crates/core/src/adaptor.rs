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
//! * [`SocketAdaptorFactory`] — the one push adaptor, reading the in-process
//!   socket ([`asterix_common::socket`]) at each address its parameter
//!   lists, one adaptor instance per address (parallel ingestion, Listing
//!   5.19). It serves two aliases: `TweetGenAdaptor` reads the TweetGen
//!   instances listed in `datasource`, and `socket_adaptor`, the "generic
//!   socket-based feed adaptor that can be used to ingest data that is
//!   directed at a specified socket address" (§4.1), reads `sockets`;
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
//! what its source has already delivered and returns — it never waits.
//! While it has nothing, its task parks: a push source wakes it through the
//! hook the host hands over ([`FeedAdaptor::set_wake`]), a pull source
//! names when to look again ([`SourcePoll::Idle`]). The
//! paper's two modes (§5.3.1) both fit: a *push* source is whatever pushes
//! into the socket the adaptor reads (TweetGen's pusher, a `bind_socket`
//! client), a *pull* source makes one request per poll (the next lines of a
//! file, the trace records that are due). A source that can only be read
//! with a blocking call wraps its own thread and pushes into a socket,
//! exactly as those push sources do.
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
use asterix_common::socket::{self, SocketReader};
use asterix_common::sync::Mutex;
use asterix_common::{
    Counter, FaultKind, FaultPlan, IngestError, IngestResult, Record, SimClock, SimInstant,
};
use asterix_hyracks::job::Constraint;
use asterix_hyracks::operator::SourcePoll;
use asterix_hyracks::WakeHook;
use crossbeam_channel::TryRecvError;
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::sync::Arc;

pub use asterix_common::socket::{bind_socket, unbind_socket, SocketSender};

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

    /// The host's wake hook, handed over before the first poll. An adaptor
    /// whose source pushes arranges for it to fire when input arrives after
    /// a poll returned [`SourcePoll::Idle`], and when the source ends;
    /// without that, its host never looks again. An adaptor that knows when
    /// its next input is due says so in `Idle` and may ignore the hook.
    fn set_wake(&mut self, _wake: WakeHook) {}
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

/// Translate one external JSON/ADM line into an ADM record payload (§5.3.1),
/// stamped `gen_at`. Malformed input yields a parse error the adaptor may
/// skip.
///
/// This is the *one* text parse a record ever gets, and it builds no tree:
/// [`transcode`] writes the binary ADM encoding every later stage reads in
/// place into the adaptor instance's reusable `scratch` buffer, and the
/// record's payload is one exactly-sized copy of it.
fn translate(
    line: &str,
    adaptor_instance: u32,
    scratch: &mut Vec<u8>,
    gen_at: Option<SimInstant>,
) -> IngestResult<Record> {
    scratch.clear();
    transcode(line, scratch)?;
    // `From<&[u8]>` is `Bytes::copy_from_slice`: one allocation, no regrowth
    let rec = Record::untracked(adaptor_instance, &scratch[..]);
    Ok(Record { gen_at, ..rec })
}

// ---------------------------------------------------------------------------
// Push adaptor
// ---------------------------------------------------------------------------

/// Factory for the push adaptor under one alias: the alias, and the
/// parameter that lists the socket addresses to read.
#[derive(Debug, Clone, Copy)]
pub struct SocketAdaptorFactory(&'static str, &'static str);

impl SocketAdaptorFactory {
    /// `TweetGenAdaptor`: the TweetGen instances listed in `datasource`.
    pub const TWEETGEN: Self = Self("TweetGenAdaptor", "datasource");
    /// `socket_adaptor`: the sockets listed in `sockets`.
    pub const SOCKET: Self = Self("socket_adaptor", "sockets");

    /// The addresses the factory's parameter lists, one per instance.
    fn addrs(&self, config: &AdaptorConfig) -> IngestResult<Vec<String>> {
        let param = self.1;
        let raw = config
            .get(param)
            .ok_or_else(|| IngestError::Config(format!("adaptor requires '{param}' parameter")))?;
        let addrs: Vec<String> = raw
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err(IngestError::Config(format!("'{param}' lists no addresses")));
        }
        Ok(addrs)
    }
}

impl AdaptorFactory for SocketAdaptorFactory {
    fn alias(&self) -> &str {
        self.0
    }

    fn constraints(&self, config: &AdaptorConfig) -> IngestResult<Constraint> {
        Ok(Constraint::Count(self.addrs(config)?.len()))
    }

    fn create(
        &self,
        config: &AdaptorConfig,
        partition: usize,
        _clock: &SimClock,
        malformed_lines: &Counter,
    ) -> IngestResult<Box<dyn FeedAdaptor>> {
        let addrs = self.addrs(config)?;
        let addr = addrs.get(partition).ok_or_else(|| {
            IngestError::Plan(format!("adaptor partition {partition} has no address"))
        })?;
        Ok(Box::new(SocketAdaptor {
            addr: addr.clone(),
            wake: None,
            reader: None,
            instance: partition as u32,
            malformed_lines: malformed_lines.clone(),
            scratch: Vec::new(),
        }))
    }
}

struct SocketAdaptor {
    addr: String,
    /// Handed to the socket at the attach.
    wake: Option<WakeHook>,
    /// The socket, once the first poll has attached.
    reader: Option<SocketReader>,
    instance: u32,
    malformed_lines: Counter,
    /// [`translate`]'s buffer, reused for every record.
    scratch: Vec<u8>,
}

impl FeedAdaptor for SocketAdaptor {
    fn poll(&mut self, emit: EmitFn<'_>, budget: usize) -> IngestResult<SourcePoll> {
        let reader = match &self.reader {
            Some(reader) => reader,
            // the one initial request (§4.1), which starts a TweetGen's
            // generation; a failure here is fatal for the feed
            None => {
                let reader = socket::attach(&self.addr)?;
                if let Some(wake) = self.wake.take() {
                    reader.set_wake(wake);
                }
                self.reader.insert(reader)
            }
        };
        for taken in 0..budget {
            let line = match reader.lines.try_recv() {
                Ok(line) => line,
                // about to park: arm the doorbell, then look once more — a
                // line sent before the arming rang an unarmed bell and
                // would wake nobody
                Err(TryRecvError::Empty) if taken > 0 || reader.arm() => break,
                Err(TryRecvError::Empty) => return Ok(SourcePoll::Idle(None)),
                // A closed, drained socket is an exhausted source (a
                // TweetGen's pattern completed or it was stopped, a client
                // dropped its sender): end gracefully. No reconnect is
                // attempted (§6.2.3); it would restart a pattern from zero.
                Err(TryRecvError::Disconnected) => return Ok(SourcePoll::Done),
            };
            // a generation stamp rides on the record so the store can
            // derive end-to-end ingestion lag
            match translate(&line.text, self.instance, &mut self.scratch, line.gen_at) {
                Ok(rec) => emit(rec)?,
                Err(_) => self.malformed_lines.inc(),
            }
        }
        Ok(SourcePoll::Produced)
    }

    fn set_wake(&mut self, wake: WakeHook) {
        self.wake = Some(wake);
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
                emit(translate(trimmed, 0, &mut self.scratch, None)?)?;
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
            match translate(&payload, self.instance, &mut self.scratch, Some(due)) {
                Ok(rec) => emit(rec)?,
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

    fn set_wake(&mut self, wake: WakeHook) {
        self.inner.set_wake(wake);
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
        reg.register(Arc::new(SocketAdaptorFactory::TWEETGEN));
        reg.register(Arc::new(SocketAdaptorFactory::SOCKET));
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
        let f = SocketAdaptorFactory::TWEETGEN;
        let mut cfg = AdaptorConfig::new();
        cfg.insert("datasource".into(), "a:1, b:2 ,c:3".into());
        assert_eq!(f.constraints(&cfg).unwrap(), Constraint::Count(3));
        assert!(f.constraints(&AdaptorConfig::new()).is_err());
        let mut empty = AdaptorConfig::new();
        empty.insert("datasource".into(), " , ".into());
        assert!(f.constraints(&empty).is_err());
    }

    #[test]
    fn tweetgen_adaptor_attaches_on_its_first_poll_and_translates() {
        let clock = SimClock::with_scale(10.0);
        let g = TweetGen::bind(
            TweetGenConfig::new("adap:9000", 0, PatternDescriptor::constant(200, 2)),
            clock.clone(),
        )
        .unwrap();
        let mut cfg = AdaptorConfig::new();
        cfg.insert("datasource".into(), "adap:9000".into());
        let mut adaptor = SocketAdaptorFactory::TWEETGEN
            .create(&cfg, 0, &clock, &Counter::new())
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(g.generated(), 0, "generation waits for the first poll");
        let records = drain(adaptor.as_mut());
        assert!(records.len() > 100, "got {}", records.len());
        // payload is binary ADM of the translated record
        let v = decode_value(&records[0].payload).unwrap();
        assert!(v.field("id").is_some());
        assert!(!records[0].is_tracked());
        assert!(records.iter().all(|r| r.gen_at.is_some()), "stamped");
        g.stop();
    }

    #[test]
    fn a_stamped_line_stamps_its_record_and_an_unstamped_one_does_not() {
        let tx = bind_socket("sock:stamp", 4).unwrap();
        tx.try_send_stamped("{\"id\":\"a\"}".into(), SimInstant(42))
            .unwrap();
        tx.send("{\"id\":\"b\"}".into()).unwrap();
        drop(tx);
        let mut cfg = AdaptorConfig::new();
        cfg.insert("sockets".into(), "sock:stamp".into());
        let mut adaptor = SocketAdaptorFactory::SOCKET
            .create(&cfg, 0, &SimClock::fast(), &Counter::new())
            .unwrap();
        let stamps: Vec<_> = drain(adaptor.as_mut()).iter().map(|r| r.gen_at).collect();
        assert_eq!(stamps, [Some(SimInstant(42)), None]);
        unbind_socket("sock:stamp");
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
        let mut adaptor = SocketAdaptorFactory::SOCKET
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
        let factory =
            ChaosAdaptorFactory::new(Arc::new(SocketAdaptorFactory::SOCKET), Arc::clone(&plan));
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
        let mut adaptor = SocketAdaptorFactory::SOCKET
            .create(&cfg, 0, &SimClock::fast(), &Counter::new())
            .unwrap();
        let mut emit = |_r: Record| Ok(());
        let polled = adaptor.poll(&mut emit, 16).unwrap(); // returns promptly
        assert_eq!(polled, SourcePoll::Idle(None));
        unbind_socket("sock:3");
    }
}
