//! One repetition of one workload, run in a process of its own: set-up,
//! the timed window (generator, watermark sampler, reader), drain, the
//! reference check and shutdown.
//!
//! Inside the timed window the benchmark reads only `Counter` handles taken
//! once after `connect`: `Dataset::len()` walks the LSM under the partition
//! lock and `registry.snapshot()` runs gauge closures that lock partitions,
//! so polling either would slow the system being measured. Traced
//! repetitions take registry snapshots on purpose (4 Hz gauge maxima) and
//! report what that costs as `trace_overhead_pct`.

use crate::host;
use crate::spans::{self, Spans};
use crate::stats::{self, Sample};
use crate::workload::{
    self, Inputs, Workload, CATCHUP_BACKLOG, CLOSED_LOOP_WINDOW, READER_THINK_MS, SOCKET_LINES,
};
use asterixdb_ingestion::adm::{parse_value, AdmValue};
use asterixdb_ingestion::aql::engine::{AsterixEngine, ExecOutcome};
use asterixdb_ingestion::common::metrics::{MetricValue, MetricsSnapshot};
use asterixdb_ingestion::common::sync::thread::spawn_named;
use asterixdb_ingestion::common::{Counter, SimClock, SimDuration};
use asterixdb_ingestion::feeds::adaptor::{bind_socket, unbind_socket};
use asterixdb_ingestion::feeds::controller::ControllerConfig;
use asterixdb_ingestion::feeds::udf::Udf;
use asterixdb_ingestion::hyracks::cluster::{Cluster, ClusterConfig};
use asterixdb_ingestion::storage::DatasetPartition;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes and scheduler workers of the cluster under test.
const NODES: usize = 2;
const WORKERS: usize = 2;

/// Sampler period.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// Traced repetitions snapshot the registry's gauges every this many ticks.
const GAUGE_EVERY_TICKS: u64 = 125;

/// A wait that sees no progress for this long gives up.
const STALL: Duration = Duration::from_secs(15);

/// Workloads without a reader run the query on the drained dataset: at
/// least this many times, and until this much time is spent.
const DRAINED_QUERIES: usize = 3;
const DRAINED_QUERY_TIME: Duration = Duration::from_millis(600);

/// What a repetition is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RepOptions {
    pub workload: Workload,
    pub seed: u64,
    pub rep: u32,
    /// Timed records (the workload's frozen size, or less for the smoke).
    pub n: usize,
    pub traced: bool,
    /// Throw-away set-ups timed before the measured one.
    pub extra_setups: usize,
}

/// A running system: cluster, engine, the bound socket and the sinks'
/// persisted-record counters.
struct System {
    cluster: Cluster,
    engine: Arc<AsterixEngine>,
    socket: String,
    send: Box<dyn Fn(String) -> bool>,
    persisted: Vec<Counter>,
    /// Every partition of every sink dataset.
    partitions: Vec<Arc<DatasetPartition>>,
}

impl System {
    fn durable(&self) -> u64 {
        self.persisted.iter().map(Counter::get).sum()
    }

    fn shutdown(self) {
        drop(self.send);
        self.engine.controller().shutdown();
        self.cluster.shutdown();
        unbind_socket(&self.socket);
    }
}

/// `Cluster::start` → engine start → DDL → `connect` → first offered record
/// durable. Each step is a child span of `setup`. Returns the system and the
/// seconds the set-up took.
fn setup(
    workload: Workload,
    socket: String,
    first_line: String,
    spans: &mut Spans,
) -> Result<(System, f64), String> {
    let started = Instant::now();
    spans.scope("setup", None, |spans, root| {
        let cluster = spans.scope("cluster_start", Some(root), |_, _| {
            Cluster::start_with_workers(
                NODES,
                SimClock::realtime(),
                // heartbeats are not under test: never declare a node dead
                ClusterConfig {
                    heartbeat_interval: SimDuration::from_secs(5),
                    failure_threshold: SimDuration::from_secs(1_000_000),
                },
                WORKERS,
            )
        });
        let engine = spans.scope("engine_start", Some(root), |_, _| {
            AsterixEngine::start(
                cluster.clone(),
                ControllerConfig {
                    transport: workload.transport(),
                    ..ControllerConfig::default()
                },
            )
        });
        spans.scope("ddl", Some(root), |_, _| {
            engine
                .install_external_function(Udf::sentiment_analysis())
                .and_then(|()| engine.execute(&workload.ddl()))
                .map_err(|e| format!("ddl: {e}"))
        })?;
        let tx = bind_socket(&socket, SOCKET_LINES).map_err(|e| format!("bind: {e}"))?;
        spans.scope("connect", Some(root), |_, _| {
            engine
                .execute(&workload.connect_ddl(&socket))
                .map_err(|e| format!("connect: {e}"))
        })?;
        let registry = engine.controller().registry();
        let persisted = workload
            .connection_keys()
            .iter()
            .map(|key| registry.counter("feed.records_persisted", &[("conn", key.as_str())]))
            .collect();
        let partitions = workload
            .sinks()
            .iter()
            .map(|sink| engine.catalog().dataset(sink))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("sink lookup: {e}"))?
            .iter()
            .flat_map(|ds| (0..ds.partition_count()).map(|i| ds.partition(i)))
            .collect();
        let system = System {
            cluster,
            engine,
            socket,
            send: Box::new(move |line| tx.send(line).is_ok()),
            persisted,
            partitions,
        };
        spans.scope("first_durable", Some(root), |_, _| {
            if !(system.send)(first_line) {
                return Err("socket closed during set-up".to_string());
            }
            let deadline = Instant::now() + STALL;
            while system.durable() < 1 {
                if Instant::now() > deadline {
                    return Err("first record never became durable".to_string());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(())
        })?;
        Ok((system, started.elapsed().as_secs_f64()))
    })
}

/// What the sampler thread brings back.
#[derive(Debug, Default)]
struct SamplerOut {
    samples: Vec<Sample>,
    /// Samples at which some partition was merging (traced only).
    merging: u64,
    /// Maxima of the 4 Hz gauge snapshots (traced only).
    handoff_depth_max: u64,
    buffer_bytes_max: u64,
    spill_bytes_max: u64,
    sched_queue_max: u64,
}

/// Read the persisted counters every 2 ms until `stop`.
fn sampler(
    system: &System,
    origin: Instant,
    traced: bool,
    stop: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<SamplerOut>> {
    let persisted = system.persisted.clone();
    let registry = system.engine.controller().registry();
    let partitions = system.partitions.clone();
    spawn_named("bench-sampler", move || {
        let mut out = SamplerOut::default();
        let mut tick = 0u64;
        loop {
            let done = stop.load(Ordering::SeqCst);
            out.samples.push(Sample {
                t_us: origin.elapsed().as_micros() as u64,
                durable: persisted.iter().map(Counter::get).sum(),
            });
            if traced {
                out.merging += u64::from(partitions.iter().any(|p| p.is_merging()));
                if tick.is_multiple_of(GAUGE_EVERY_TICKS) {
                    let snap = registry.snapshot();
                    let gauge = |name: &str| snap.gauge(name).unwrap_or(0);
                    out.handoff_depth_max = out
                        .handoff_depth_max
                        .max(gauge("feed.handoff_queue_frames"));
                    out.buffer_bytes_max = out.buffer_bytes_max.max(gauge("feed.buffer_bytes"));
                    out.spill_bytes_max = out.spill_bytes_max.max(gauge("feed.spill_bytes"));
                    out.sched_queue_max = out.sched_queue_max.max(
                        gauge("scheduler.queue.global_depth")
                            + gauge("scheduler.queue.local_depth"),
                    );
                }
            }
            if done {
                return out;
            }
            tick += 1;
            std::thread::sleep(SAMPLE_EVERY);
        }
    })
}

/// One reader query: when it started, how long it took, rows returned.
#[derive(Debug, Clone, Copy)]
struct QuerySample {
    start_us: u64,
    dur_us: u64,
    rows: usize,
}

fn run_query(engine: &AsterixEngine, query: &str, origin: Instant) -> Result<QuerySample, String> {
    let start = Instant::now();
    let start_us = start.duration_since(origin).as_micros() as u64;
    match engine.execute(query).map(|mut o| o.pop()) {
        Ok(Some(ExecOutcome::Rows(rows))) => Ok(QuerySample {
            start_us,
            dur_us: start.elapsed().as_micros() as u64,
            rows: rows.len(),
        }),
        Ok(other) => Err(format!("query returned {other:?}")),
        Err(e) => Err(format!("query failed: {e}")),
    }
}

/// Closed-loop reader: query, think, repeat until `stop`.
fn reader(
    system: &System,
    query: String,
    origin: Instant,
    stop: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<Result<Vec<QuerySample>, String>>> {
    let engine = Arc::clone(&system.engine);
    spawn_named("bench-reader", move || {
        let mut out = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            out.push(run_query(&engine, &query, origin)?);
            std::thread::sleep(Duration::from_millis(READER_THINK_MS));
        }
        Ok(out)
    })
}

/// The generator: offers lines to the socket and records when each was due.
struct Generator<'a> {
    system: &'a System,
    origin: Instant,
    traced: bool,
    /// When each line was due (open phase) or handed to `send` (closed
    /// phase), µs since `origin`; line 0 was offered during set-up.
    due_us: Vec<u64>,
    /// Traced: `(start, µs inside send)` per 1 000 sends, and each
    /// open-phase line's lateness.
    blocked: Vec<(u64, u64)>,
    late_us: Vec<u64>,
    /// µs spent in the offer loops (waiting between phases excluded).
    offering_us: u64,
    /// `send` failed: the adaptor hung up.
    closed: bool,
}

impl Generator<'_> {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn send(&mut self, line: String, before_us: u64) {
        self.closed |= !(self.system.send)(line);
        if self.traced {
            let blocked = self.now_us() - before_us;
            match self.blocked.last_mut() {
                Some(batch) if !self.due_us.len().is_multiple_of(1000) => batch.1 += blocked,
                _ => self.blocked.push((before_us, blocked)),
            }
        }
    }

    /// Closed loop: one client with at most `window` records outstanding
    /// (offered but not yet durable); the next line follows as soon as there
    /// is room. The intake never pushes back on its own — it buffers or
    /// spills whatever the socket delivers — so without the window this
    /// would be one burst, not a closed loop. Returns `false` on a stall.
    fn offer_closed(&mut self, lines: impl Iterator<Item = String>, window: u64) -> bool {
        let start = self.now_us();
        let mut last_progress = Instant::now();
        for line in lines {
            let before = self.now_us();
            while self.due_us.len() as u64 - self.system.durable() >= window {
                if last_progress.elapsed() > STALL {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            last_progress = Instant::now();
            self.due_us.push(before);
            self.send(line, before);
            if self.closed {
                return false;
            }
        }
        self.offering_us += self.now_us() - start;
        true
    }

    /// Open loop: every 1 ms tick sends what is due and sleeps (a spinning
    /// pacer would double the process's CPU time). A full socket blocks the
    /// generator, which then runs late — no line is ever dropped.
    fn offer_open(&mut self, lines: impl Iterator<Item = String>, open_due_us: &[u64]) {
        let start = self.now_us();
        let mut lines = lines.zip(open_due_us.iter().map(|d| start + d)).peekable();
        while lines.peek().is_some() && !self.closed {
            let tick = self.now_us();
            while let Some((line, due)) = lines.next_if(|(_, due)| *due <= tick) {
                // untraced, the tick's reading stands in for a clock read
                // per line
                let before = if self.traced { self.now_us() } else { tick };
                self.due_us.push(due);
                if self.traced {
                    self.late_us.push(before.saturating_sub(due));
                }
                self.send(line, before);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.offering_us += self.now_us() - start;
    }
}

/// Wait until `want` records are durable; `false` when no progress was seen
/// for [`STALL`].
fn drain(system: &System, want: u64) -> bool {
    let (mut last, mut last_change) = (system.durable(), Instant::now());
    while last < want {
        std::thread::sleep(Duration::from_micros(200));
        let now = system.durable();
        if now != last {
            (last, last_change) = (now, Instant::now());
        } else if last_change.elapsed() > STALL {
            return false;
        }
    }
    true
}

/// Ids (and, for the compute workload, sentiments) found in the sinks,
/// compared with the reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    found: u64,
    missing: u64,
    wrong_sink: u64,
    malformed: u64,
}

/// Scan each sink once and compare with the reference route.
fn verify(system: &System, workload: Workload, sink_of: &[u8]) -> Result<Verdict, String> {
    let with_sentiment = workload == Workload::SatComputeTcp;
    let mut seen = vec![false; sink_of.len()];
    let mut v = Verdict::default();
    for (sink, name) in workload.sinks().iter().enumerate() {
        let query = match with_sentiment {
            true => {
                format!(r#"for $t in dataset {name} return {{"id": $t.id, "s": $t.sentiment}};"#)
            }
            false => format!("for $t in dataset {name} return $t.id;"),
        };
        let rows = match system.engine.execute(&query).map(|mut o| o.pop()) {
            Ok(Some(ExecOutcome::Rows(rows))) => rows,
            other => return Err(format!("verify scan of {name}: {other:?}")),
        };
        for row in rows {
            let (id, sentiment_ok) = match with_sentiment {
                true => (
                    row.field("id").and_then(AdmValue::as_str),
                    matches!(row.field("s"), Some(AdmValue::Double(s)) if (0.0..=1.0).contains(s)),
                ),
                false => (row.as_str(), true),
            };
            match id.and_then(workload::seq_of_id) {
                Some(seq) if seq < seen.len() && !seen[seq] && sentiment_ok => {
                    if usize::from(sink_of[seq]) == sink {
                        seen[seq] = true;
                        v.found += 1;
                    } else {
                        v.wrong_sink += 1;
                    }
                }
                _ => v.malformed += 1,
            }
        }
    }
    v.missing = sink_of.len() as u64 - v.found;
    Ok(v)
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

fn num(v: f64) -> AdmValue {
    AdmValue::Double(if v.is_finite() { v } else { -1.0 })
}

fn int(v: u64) -> AdmValue {
    AdmValue::Int(v as i64)
}

/// Sum of a histogram's samples over the series whose `op` label starts
/// with `prefix`, and those series' sample count.
fn op_busy(snap: &MetricsSnapshot, prefix: &str) -> (f64, u64) {
    snap.samples("operator.frame_latency_us")
        .filter(|m| {
            m.labels
                .iter()
                .any(|(k, v)| k == "op" && v.starts_with(prefix))
        })
        .filter_map(|m| match &m.value {
            MetricValue::Histogram(h) => Some((h.sum as f64 / 1e6, h.count)),
            _ => None,
        })
        .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Counter total by name, −1 when the registry has no such series (a
/// renamed counter shows up as −1, not as a build failure).
fn count_or_missing(snap: &MetricsSnapshot, name: &str) -> f64 {
    match snap.has(name) {
        true => snap.counter(name) as f64,
        false => -1.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if a < 0.0 || b <= 0.0 {
        -1.0
    } else {
        a / b
    }
}

/// What the timed window recorded, in µs since it opened.
struct Recorded {
    due_us: Vec<u64>,
    samples: Vec<Sample>,
    /// Closed loops: when the saturation phase had drained.
    saturated_until_us: Option<u64>,
    /// When the last line was durable.
    end_us: u64,
    /// `burst_spill`: index range of the burst lines.
    burst: Option<(usize, usize)>,
}

/// The numbers one window reduces to.
struct Reduced {
    /// Records made durable in the stretch throughput is taken from, and
    /// that stretch's length in µs (0 when a burst never cleared).
    rate_records: u64,
    rate_us: u64,
    /// Ascending watermark lags, ms, of the samples that count.
    lags_ms: Vec<f64>,
    catchup_us: Option<u64>,
    max_backlog: u64,
}

/// Pure arithmetic from the recorded series to the reported numbers.
///
/// Throughput is timed records over the stretch in which the system, not
/// the schedule, sets the rate: saturation for the closed loops, burst start
/// → catch-up for `burst_spill`, the whole window for `paced_scan` (where it
/// only confirms the offered rate was met). Lag is sampled where the offered
/// rate is below capacity: the paced tail of the closed loops, the steady
/// phases of `burst_spill`, all of `paced_scan`.
fn reduce(rec: &Recorded, n: usize) -> Reduced {
    let due = &rec.due_us;
    let burst_us = rec
        .burst
        .map(|(b0, b1)| (due[b0], due[b1.min(due.len() - 1)]));
    let catchup_us =
        burst_us.and_then(|(b0, b1)| stats::catchup_us(&rec.samples, due, b0, b1, CATCHUP_BACKLOG));
    let counts = |s: &Sample| match (rec.saturated_until_us, burst_us, catchup_us) {
        (Some(t), _, _) => s.t_us > t,
        (None, Some((b0, _)), Some(c)) => s.t_us < b0 || s.t_us > b0 + c,
        (None, Some((b0, _)), None) => s.t_us < b0,
        (None, None, _) => true,
    };
    let lags_ms = stats::sorted(
        &rec.samples
            .iter()
            .filter(|s| counts(s))
            .map(|&s| ms(stats::watermark_lag_us(s, due)))
            .collect::<Vec<_>>(),
    );
    let max_backlog = rec
        .samples
        .iter()
        .map(|s| stats::offered_by(due, s.t_us).saturating_sub(s.durable))
        .max()
        .unwrap_or(0);
    let durable_at = |t: u64| {
        let s = rec.samples.iter().find(|s| s.t_us >= t);
        s.map_or(due.len() as u64, |s| s.durable)
    };
    let (rate_records, rate_us) = match (rec.saturated_until_us, burst_us, catchup_us) {
        (Some(t), _, _) => (n as u64, t),
        (None, Some((b0, _)), Some(c)) => (durable_at(b0 + c) - durable_at(b0), c),
        (None, Some(_), None) => (0, 0),
        (None, None, _) => (n as u64, rec.end_us),
    };
    Reduced {
        rate_records,
        rate_us,
        lags_ms,
        catchup_us,
        max_backlog,
    }
}

/// Run one repetition and return its result record (see the README for the
/// fields). Errors are set-up or harness failures; lost or wrong records
/// are reported in the record, not as errors.
pub fn run(opts: RepOptions) -> Result<AdmValue, String> {
    let RepOptions {
        workload,
        seed,
        rep,
        n,
        traced,
        extra_setups,
    } = opts;
    let spin_ms = host::calibration_spin_ms();
    let Inputs {
        mut lines,
        sink_of,
        reader_rows,
        bytes,
        closed,
        open_due_us,
        burst,
    } = workload::inputs(workload, seed, n);
    let mut spans = Spans::new();

    // throw-away set-ups first, so `setup_s` is a median and not one draw
    let mut setup_s = Vec::new();
    for k in 0..extra_setups {
        let (system, took_s) = setup(
            workload,
            format!("ingestbench:{rep}:warm{k}"),
            lines[0].clone(),
            &mut Spans::new(),
        )?;
        setup_s.push(took_s);
        system.shutdown();
    }
    let first_line = std::mem::take(&mut lines[0]);
    let (system, took_s) = setup(
        workload,
        format!("ingestbench:{rep}"),
        first_line,
        &mut spans,
    )?;
    setup_s.push(took_s);

    // ---- the timed window ------------------------------------------------
    let total = lines.len() as u64;
    let stop = Arc::new(AtomicBool::new(false));
    let origin = Instant::now();
    let span_base = spans.now_us();
    let cpu_start = host::process_cpu_s()?;
    let sampler = sampler(&system, origin, traced, Arc::clone(&stop))
        .map_err(|e| format!("spawn sampler: {e}"))?;
    let reader = match workload {
        Workload::PacedScan => Some(
            reader(&system, workload.reader_query(), origin, Arc::clone(&stop))
                .map_err(|e| format!("spawn reader: {e}"))?,
        ),
        _ => None,
    };
    let mut generator = Generator {
        system: &system,
        origin,
        traced,
        due_us: vec![0],
        blocked: Vec::new(),
        late_us: Vec::new(),
        offering_us: 0,
        closed: false,
    };
    let mut lines = lines.into_iter().skip(1);
    let mut stalled = false;
    // CPU is charged over the stretch throughput is taken from
    let mut cpu_s = None;
    let mut saturated_until_us = None;
    let offer_span = spans.open("offer", None);
    if closed > 0 {
        stalled |= !generator.offer_closed(lines.by_ref().take(closed), CLOSED_LOOP_WINDOW)
            || !drain(&system, 1 + closed as u64);
        saturated_until_us = Some(generator.now_us());
        cpu_s = Some(host::process_cpu_s()? - cpu_start);
    }
    let closed_offering_us = generator.offering_us;
    generator.offer_open(lines, &open_due_us);
    spans.close(offer_span);
    let drain_span = spans.open("drain", None);
    stalled |= generator.closed || !drain(&system, total);
    spans.close(drain_span);
    let end_us = generator.now_us();
    let cpu_s = match cpu_s {
        Some(cpu_s) => cpu_s,
        None => host::process_cpu_s()? - cpu_start,
    };
    stop.store(true, Ordering::SeqCst);
    let sampled = sampler.join().map_err(|_| "sampler panicked")?;
    let mut queries = match reader {
        Some(r) => r.join().map_err(|_| "reader panicked")??,
        None => Vec::new(),
    };
    let Generator {
        due_us,
        blocked,
        late_us,
        offering_us,
        ..
    } = generator;
    let timed_offering_us = match closed {
        0 => offering_us,
        _ => closed_offering_us,
    };
    for (start, dur) in &blocked {
        spans.push(
            "send_blocked",
            span_base + start,
            span_base + start + dur,
            Some(offer_span),
        );
    }
    for q in &queries {
        spans.push(
            "query",
            span_base + q.start_us,
            span_base + q.start_us + q.dur_us,
            None,
        );
    }
    let in_run_rows_monotonic = queries.windows(2).all(|w| w[0].rows <= w[1].rows);

    // ---- after the window: quiescent queries, reference check -------------
    let partitions = &system.partitions;
    // let running merges finish, so the drained queries see a settled store
    let merges_idle = Instant::now() + Duration::from_secs(5);
    while partitions.iter().any(|p| p.is_merging()) && Instant::now() < merges_idle {
        std::thread::sleep(Duration::from_millis(1));
    }
    let query = workload.reader_query();
    let mut drained_queries = Vec::new();
    let querying = Instant::now();
    while drained_queries.len() < DRAINED_QUERIES || querying.elapsed() < DRAINED_QUERY_TIME {
        let span = spans.open("query", None);
        drained_queries.push(run_query(&system.engine, &query, origin)?);
        spans.close(span);
    }
    let final_rows = drained_queries.last().map_or(0, |q| q.rows);
    if workload != Workload::PacedScan {
        queries = drained_queries;
    }
    let verdict = spans.scope("verify", None, |_, _| verify(&system, workload, &sink_of))?;
    let snap = system.engine.controller().registry().snapshot();
    let components_end: usize = partitions.iter().map(|p| p.component_count()).sum();
    let compactions: u64 = partitions.iter().map(|p| p.compactions()).sum();
    let storage_bytes: usize = partitions.iter().map(|p| p.storage_bytes()).sum();
    spans.scope("shutdown", None, |_, _| system.shutdown());

    // ---- arithmetic on what was recorded ----------------------------------
    let recorded = Recorded {
        due_us,
        samples: sampled
            .samples
            .iter()
            .copied()
            .filter(|s| s.t_us <= end_us)
            .collect(),
        saturated_until_us,
        end_us,
        burst,
    };
    let Reduced {
        rate_records,
        rate_us,
        lags_ms: lags,
        catchup_us,
        max_backlog,
    } = reduce(&recorded, n);
    let query_ms = stats::sorted(&queries.iter().map(|q| ms(q.dur_us)).collect::<Vec<_>>());
    let soft_failures = snap.counter("feed.soft_failures");
    let rows_ok = final_rows == reader_rows && in_run_rows_monotonic;
    let failed = (verdict.missing + verdict.wrong_sink + verdict.malformed + soft_failures)
        .max(u64::from(!rows_ok || rate_us == 0))
        .min(total);

    let mut out = vec![
        ("workload", AdmValue::string(workload.name())),
        ("rep", int(u64::from(rep))),
        ("traced", AdmValue::Boolean(traced)),
        ("spin_ms", num(spin_ms)),
        ("offered", int(total)),
        ("failed", int(failed)),
        ("missing", int(verdict.missing)),
        ("wrong_sink", int(verdict.wrong_sink)),
        ("malformed", int(verdict.malformed)),
        ("soft_failures", int(soft_failures)),
        ("stalled", AdmValue::Boolean(stalled)),
        ("rows_ok", AdmValue::Boolean(rows_ok)),
        ("window_s", num(end_us as f64 / 1e6)),
        (
            "setup_s",
            AdmValue::OrderedList(setup_s.into_iter().map(num).collect()),
        ),
        ("rate_records", int(rate_records)),
        ("rate_s", num(rate_us as f64 / 1e6)),
        (
            "ingest_rps",
            num(ratio(rate_records as f64, rate_us as f64 / 1e6)),
        ),
        ("cpu_us_per_rec", num(cpu_s * 1e6 / n as f64)),
        ("lag_p50_ms", num(stats::percentile_sorted(&lags, 0.5))),
        ("lag_p90_ms", num(stats::percentile_sorted(&lags, 0.9))),
        ("lag_p99_ms", num(stats::percentile_sorted(&lags, 0.99))),
        ("lag_max_ms", num(lags.last().copied().unwrap_or(0.0))),
        ("lag_samples", int(lags.len() as u64)),
        (
            "query_p50_ms",
            num(stats::percentile_sorted(&query_ms, 0.5)),
        ),
        (
            "query_p90_ms",
            num(stats::percentile_sorted(&query_ms, 0.9)),
        ),
        ("query_max_ms", num(query_ms.last().copied().unwrap_or(0.0))),
        ("query_samples", int(query_ms.len() as u64)),
        // the measurement pools these over its repetitions: one repetition
        // has too few queries for a steady percentile
        (
            "query_ms",
            AdmValue::OrderedList(query_ms.iter().copied().map(num).collect()),
        ),
        ("catchup_s", num(catchup_us.map_or(0.0, |c| c as f64 / 1e6))),
        ("peak_rss_mb", num(host::peak_rss_mb()?)),
    ];
    if traced {
        let nf = n as f64;
        let persisted = count_or_missing(&snap, "feed.records_persisted");
        let (assign_s, _) = op_busy(&snap, "Assign(");
        let (route_s, _) = op_busy(&snap, "Route(");
        let (store_s, store_frames) = op_busy(&snap, "IndexInsert(");
        // over the timed phase: saturation for the closed loops (their tail
        // is paced and never blocks), the whole schedule for the open loops
        let timed_until = saturated_until_us.unwrap_or(end_us);
        let blocked_us: u64 = blocked
            .iter()
            .filter(|b| b.0 < timed_until)
            .map(|b| b.1)
            .sum();
        let late = stats::sorted(&late_us.iter().map(|&u| ms(u)).collect::<Vec<_>>());
        let group_commit = snap
            .histogram("storage.group_commit_batch_size")
            .map_or(-1.0, |h| h.mean());
        let layers = vec![
            (
                "gen.send_blocked_share",
                ratio(blocked_us as f64, timed_offering_us as f64),
            ),
            ("gen.late_p99_ms", stats::percentile_sorted(&late, 0.99)),
            (
                "adm.reparse_per_rec",
                ratio(count_or_missing(&snap, "feed.parse_calls"), nf),
            ),
            (
                "common.recs_per_frame",
                ratio(persisted, count_or_missing(&snap, "feed.frames_stored")),
            ),
            // the transport registers its counters on first use: absent
            // means nothing went over a wire
            (
                "hyracks.wire_bytes_per_rec",
                snap.counter("transport.bytes_sent") as f64 / nf,
            ),
            (
                "hyracks.polls_per_krec",
                ratio(count_or_missing(&snap, "scheduler.polls"), nf / 1e3),
            ),
            (
                "hyracks.yields_per_krec",
                ratio(count_or_missing(&snap, "scheduler.yields"), nf / 1e3),
            ),
            (
                "hyracks.steals",
                count_or_missing(&snap, "scheduler.steals"),
            ),
            ("hyracks.sched_queue_max", sampled.sched_queue_max as f64),
            ("op.assign_busy_s", assign_s),
            ("op.route_busy_s", route_s),
            ("op.store_busy_s", store_s),
            ("op.store_frames", store_frames as f64),
            (
                "core.spilled_share",
                ratio(count_or_missing(&snap, "feed.records_spilled"), nf),
            ),
            ("core.max_backlog_recs", max_backlog as f64),
            ("core.handoff_depth_max", sampled.handoff_depth_max as f64),
            ("core.buffer_bytes_max", sampled.buffer_bytes_max as f64),
            ("core.spill_bytes_max", sampled.spill_bytes_max as f64),
            (
                "core.connect_ms",
                spans.duration_ms("connect").unwrap_or(-1.0),
            ),
            (
                "core.first_durable_ms",
                spans.duration_ms("first_durable").unwrap_or(-1.0),
            ),
            ("core.soft_failures", soft_failures as f64),
            (
                "core.records_replayed",
                count_or_missing(&snap, "feed.records_replayed"),
            ),
            (
                "core.malformed_lines",
                count_or_missing(&snap, "parse.malformed_lines"),
            ),
            ("storage.compactions", compactions as f64),
            ("storage.components_end", components_end as f64),
            ("storage.group_commit_recs", group_commit),
            (
                "storage.merge_busy_share",
                ratio(sampled.merging as f64, sampled.samples.len() as f64),
            ),
            (
                "storage.bytes_per_user_byte",
                ratio(storage_bytes as f64, bytes as f64),
            ),
            (
                "storage.rps_decay",
                stats::rps_decay(&recorded.samples, 1, n as u64).unwrap_or(-1.0),
            ),
            ("aql.ddl_ms", spans.duration_ms("ddl").unwrap_or(-1.0)),
            ("aql.rows_last_query", final_rows as f64),
        ];
        out.push((
            "layers",
            AdmValue::Record(
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), num(v)))
                    .collect(),
            ),
        ));
        out.push(("spans", spans::to_json(spans.as_slice(), rep)));
        out.push((
            "self_time_us",
            AdmValue::Record(
                spans::self_time_us(spans.as_slice())
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), int(v)))
                    .collect(),
            ),
        ));
        out.push((
            "registry",
            parse_value(&snap.to_json()).unwrap_or(AdmValue::Null),
        ));
    }
    Ok(AdmValue::record(out))
}
