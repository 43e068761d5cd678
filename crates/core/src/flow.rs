//! The congestion controller (Chapter 7).
//!
//! "An expensive UDF or an increased rate of arrival of data may lead to an
//! excessive demand for resources leading to delays in the processing of
//! records" (§7.1). The intake operator of every pipeline pushes frames
//! through a [`FlowController`]: a bounded hand-off queue drained by a
//! pusher thread into the (back-pressured) downstream stage. While the
//! queue accepts, data flows normally; when it is full the arriving frame
//! is *excess* and the connection's ingestion policy decides its fate
//! (Table 4.2):
//!
//! * **Buffer** (Basic) — excess is held in memory; exhausting the memory
//!   budget terminates the feed;
//! * **Spill** — excess is serialized to the local "disk" and re-processed
//!   as soon as the pipeline catches up; a full spill file escalates to the
//!   policy's overflow strategy;
//! * **Discard** — excess frames are dropped until the backlog clears
//!   (producing the contiguous gaps of Fig 7.9);
//! * **Throttle** — records are randomly sampled down to a keep-fraction
//!   (the uniform thinning of Fig 7.10);
//! * **Elastic** — a scale-out request is signalled to the Central Feed
//!   Manager and excess is buffered while the pipeline is restructured.

use crate::metrics::FeedMetrics;
use crate::policy::{ExcessStrategy, IngestionPolicy};
use asterix_common::sync::handoff::{self, TrySendError};
use asterix_common::sync::{thread as sync_thread, Mutex};
use asterix_common::{DataFrame, FeedId, IngestError, IngestResult};
use asterix_hyracks::operator::FrameWriter;
use crossbeam_channel::Sender;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// A scale-out request emitted under the Elastic policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticRequest {
    /// Key of the congested connection.
    pub connection_key: String,
}

/// Serialized frames on the simulated local disk. A segment is one frame in
/// the shared record codec ([`DataFrame::encode_into`]): the payload bytes
/// go to disk and come back verbatim.
#[derive(Debug, Default)]
pub struct SpillFile {
    segments: VecDeque<Vec<u8>>,
    bytes: usize,
    encodes: u64,
}

impl SpillFile {
    /// Append a frame (serialized). The generation stamp spills with each
    /// record so ingestion lag keeps counting time spent on disk.
    pub fn push(&mut self, frame: &DataFrame) {
        let mut buf = Vec::with_capacity(frame.size_bytes() + 16);
        frame.encode_into(&mut buf);
        self.encodes += 1;
        self.bytes += buf.len();
        self.segments.push_back(buf);
    }

    /// Detach the oldest segment without decoding it.
    pub fn pop_segment(&mut self) -> Option<Vec<u8>> {
        let buf = self.segments.pop_front()?;
        self.bytes -= buf.len();
        Some(buf)
    }

    /// Re-queue an already-encoded segment at the *front* (a failed
    /// de-spill). O(1): the serialized bytes are reused verbatim, no
    /// re-encode of this — or any other — segment.
    pub fn push_front_segment(&mut self, segment: Vec<u8>) {
        self.bytes += segment.len();
        self.segments.push_front(segment);
    }

    /// Decode one serialized segment back into a frame; a truncated or
    /// corrupt segment is a storage error.
    pub fn decode_segment(buf: &[u8]) -> IngestResult<DataFrame> {
        DataFrame::decode(buf)
            .map_err(|e| IngestError::Storage(format!("corrupt spill segment: {e}")))
    }

    /// Read back the oldest frame.
    pub fn pop(&mut self) -> Option<IngestResult<DataFrame>> {
        let buf = self.pop_segment()?;
        Some(SpillFile::decode_segment(&buf))
    }

    /// Bytes currently on disk.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Any spilled frames waiting?
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// How many frame serializations this file performed. A failed de-spill
    /// must not re-encode surviving segments, so this counts each spilled
    /// frame exactly once regardless of re-queues.
    pub fn encode_count(&self) -> u64 {
        self.encodes
    }
}

struct Shared {
    error: Mutex<Option<IngestError>>,
}

/// The per-pipeline congestion controller.
pub struct FlowController {
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    q_tx: Option<handoff::Sender<DataFrame>>,
    pusher: Option<std::thread::JoinHandle<IngestResult<()>>>,
    shared: Arc<Shared>,
    backlog: VecDeque<DataFrame>,
    backlog_bytes: usize,
    spill: SpillFile,
    rng: SmallRng,
    elastic_tx: Option<Sender<ElasticRequest>>,
    feed: FeedId,
    connection_key: String,
    elastic_signalled: bool,
    capacity: usize,
}

impl FlowController {
    /// Wrap `downstream` with policy-governed flow control. `capacity` is
    /// the hand-off queue depth in frames (the congestion sensor).
    pub fn new(
        policy: IngestionPolicy,
        metrics: Arc<FeedMetrics>,
        downstream: Box<dyn FrameWriter>,
        capacity: usize,
        feed: FeedId,
        connection_key: impl Into<String>,
        elastic_tx: Option<Sender<ElasticRequest>>,
    ) -> FlowController {
        let (q_tx, q_rx) = handoff::bounded::<DataFrame>(capacity.max(1));
        let shared = Arc::new(Shared {
            error: Mutex::new(None),
        });
        let pusher_shared = Arc::clone(&shared);
        let spawned = sync_thread::spawn_named("feed-flow-pusher", move || {
            let mut downstream = downstream;
            if let Err(e) = downstream.open() {
                *pusher_shared.error.lock() = Some(e.clone());
                return Err(e);
            }
            for frame in q_rx.iter() {
                if let Err(e) = downstream.next_frame(frame) {
                    *pusher_shared.error.lock() = Some(e.clone());
                    downstream.fail();
                    return Err(e);
                }
            }
            downstream.close()
        });
        // a failed OS-thread spawn degrades the controller (first offer
        // reports the error) instead of panicking the intake operator
        let (q_tx, pusher) = match spawned {
            Ok(handle) => (Some(q_tx), Some(handle)),
            Err(e) => {
                *shared.error.lock() = Some(IngestError::Plan(format!(
                    "cannot spawn flow pusher thread: {e}"
                )));
                (None, None)
            }
        };
        FlowController {
            policy,
            metrics,
            q_tx,
            pusher,
            shared,
            backlog: VecDeque::new(),
            backlog_bytes: 0,
            spill: SpillFile::default(),
            rng: SmallRng::seed_from_u64(0xF10C),
            elastic_tx,
            feed,
            connection_key: connection_key.into(),
            elastic_signalled: false,
            capacity: capacity.max(1),
        }
    }

    fn check_downstream(&self) -> IngestResult<()> {
        if let Some(e) = self.shared.error.lock().clone() {
            return Err(e);
        }
        Ok(())
    }

    fn try_send(&mut self, frame: DataFrame) -> Result<(), Option<DataFrame>> {
        // a missing queue (failed spawn, already-finished flow) reads as
        // disconnected rather than panicking
        let Some(tx) = self.q_tx.as_ref() else {
            return Err(None);
        };
        match tx.try_send(frame) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(f)) => Err(Some(f)),
            Err(TrySendError::Disconnected(_)) => Err(None),
        }
    }

    /// Move backlog / spillage downstream while there is room. Returns true
    /// if everything deferred has drained.
    pub fn drain_deferred(&mut self) -> IngestResult<bool> {
        self.check_downstream()?;
        // refresh the congestion gauge from every housekeeping pass, not
        // just offers — a drained-but-idle feed must read as depth 0 or the
        // governor would keep seeing the last congested value forever
        self.metrics
            .handoff_queue_frames
            .set(self.queue_depth() as u64);
        // memory backlog first (it is older under Basic; under Spill the
        // memory backlog is unused)
        while let Some(frame) = self.backlog.pop_front() {
            let sz = frame.size_bytes();
            match self.try_send(frame) {
                Ok(()) => {
                    self.backlog_bytes -= sz;
                    self.metrics.buffer_bytes.set(self.backlog_bytes as u64);
                }
                Err(Some(f)) => {
                    self.backlog.push_front(f);
                    return Ok(false);
                }
                Err(None) => return Err(IngestError::Disconnected("pipeline gone".into())),
            }
        }
        while let Some(segment) = self.spill.pop_segment() {
            let frame = SpillFile::decode_segment(&segment)?;
            let n = frame.len() as u64;
            match self.try_send(frame) {
                Ok(()) => {
                    self.metrics.records_despilled.add(n);
                    self.metrics.spill_bytes.set(self.spill.bytes() as u64);
                }
                Err(Some(_)) => {
                    // no room: re-queue the encoded segment at the front
                    self.spill.push_front_segment(segment);
                    self.metrics.spill_bytes.set(self.spill.bytes() as u64);
                    return Ok(false);
                }
                Err(None) => return Err(IngestError::Disconnected("pipeline gone".into())),
            }
        }
        // Everything deferred has drained. If the hand-off queue is also
        // below its low-water mark (half capacity), the congestion episode
        // is over: re-arm the elastic signal so the *next* episode can
        // request scale-out again — without this a feed could only ever
        // signal once in its lifetime. The low-water check keeps a
        // still-saturated queue (one slot freeing momentarily) from
        // flapping signal → drain-one-frame → re-arm → signal.
        if self.elastic_signalled && self.queue_depth() * 2 <= self.capacity {
            self.elastic_signalled = false;
        }
        Ok(true)
    }

    /// Frames currently in the hand-off queue (the congestion sensor).
    fn queue_depth(&self) -> usize {
        self.q_tx.as_ref().map_or(0, |tx| tx.len())
    }

    /// Offer one frame to the pipeline, applying the ingestion policy to any
    /// excess. Never blocks (except under Throttle, which paces the kept
    /// fraction).
    pub fn offer(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.check_downstream()?;
        let all_clear = self.drain_deferred()?;
        self.metrics
            .handoff_queue_frames
            .set(self.queue_depth() as u64);
        if all_clear {
            match self.try_send(frame) {
                Ok(()) => return Ok(()),
                Err(Some(f)) => return self.handle_excess(f),
                Err(None) => return Err(IngestError::Disconnected("pipeline gone".into())),
            }
        }
        // deferred data still pending: arriving frame is excess by definition
        self.handle_excess(frame)
    }

    fn handle_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        match self.policy.primary_excess_strategy() {
            ExcessStrategy::Buffer => self.buffer_excess(frame),
            ExcessStrategy::Spill => self.spill_excess(frame),
            ExcessStrategy::Discard => {
                self.metrics.records_discarded.add(frame.len() as u64);
                Ok(())
            }
            ExcessStrategy::Throttle => self.throttle_excess(frame),
            ExcessStrategy::Elastic => {
                if !self.elastic_signalled {
                    self.elastic_signalled = true;
                    self.metrics.elastic_scaleouts.add(1);
                    if let Some(tx) = &self.elastic_tx {
                        let _ = tx.send(ElasticRequest {
                            connection_key: self.connection_key.clone(),
                        });
                    }
                }
                // buffer while the CFM restructures the pipeline
                self.buffer_excess(frame)
            }
        }
    }

    /// Allow a later congestion episode to signal scale-out again.
    pub fn reset_elastic_signal(&mut self) {
        self.elastic_signalled = false;
    }

    fn buffer_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        let sz = frame.size_bytes();
        if self.backlog_bytes + sz > self.policy.memory_budget_bytes {
            return Err(IngestError::FeedTerminated {
                feed: self.feed,
                reason: format!(
                    "policy {}: in-memory excess buffer exceeded {} bytes",
                    self.policy.name, self.policy.memory_budget_bytes
                ),
            });
        }
        self.backlog_bytes += sz;
        self.backlog.push_back(frame);
        self.metrics.buffer_bytes.set(self.backlog_bytes as u64);
        Ok(())
    }

    fn spill_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        if let Some(max) = self.policy.max_spill_bytes {
            if self.spill.bytes() + frame.size_bytes() > max {
                // spill exhausted → overflow strategy (Listing 4.6)
                return match self.policy.overflow_strategy() {
                    ExcessStrategy::Throttle => self.throttle_excess(frame),
                    _ => {
                        self.metrics.records_discarded.add(frame.len() as u64);
                        Ok(())
                    }
                };
            }
        }
        self.metrics.records_spilled.add(frame.len() as u64);
        self.spill.push(&frame);
        self.metrics.spill_bytes.set(self.spill.bytes() as u64);
        Ok(())
    }

    fn throttle_excess(&mut self, frame: DataFrame) -> IngestResult<()> {
        let keep = self.policy.throttle_keep_fraction;
        let mut kept = Vec::new();
        let mut dropped = 0u64;
        for r in frame.into_records() {
            if self.rng.gen::<f64>() < keep {
                kept.push(r);
            } else {
                dropped += 1;
            }
        }
        self.metrics.records_throttled.add(dropped);
        if kept.is_empty() {
            return Ok(());
        }
        let frame = DataFrame::from_records(kept);
        // FIFO: older deferred data must reach the pipeline before the kept
        // fraction, so while anything is spilled or buffered the frame joins
        // the back of that structure instead of jumping the queue.
        if !self.spill.is_empty() {
            let n = frame.len() as u64;
            self.metrics.records_spilled.add(n);
            self.spill.push(&frame);
            self.metrics.spill_bytes.set(self.spill.bytes() as u64);
            return Ok(());
        }
        if !self.backlog.is_empty() {
            return self.buffer_excess(frame);
        }
        // nothing deferred: pace the kept fraction through with a blocking
        // send — throttling "regulates the rate of inflow"
        match self.q_tx.as_ref().map(|tx| tx.send(frame)) {
            Some(Ok(())) => Ok(()),
            _ => Err(IngestError::Disconnected("pipeline gone".into())),
        }
    }

    /// Records currently deferred (backlog + spill) — used for zombie state.
    /// The flow is being abandoned, so a segment that no longer decodes is
    /// dropped rather than reported.
    pub fn take_deferred(&mut self) -> Vec<DataFrame> {
        let mut out: Vec<DataFrame> = self.backlog.drain(..).collect();
        self.backlog_bytes = 0;
        while let Some(f) = self.spill.pop() {
            out.extend(f.ok());
        }
        out
    }

    /// Pre-load deferred frames (adopting zombie state). The memory budget
    /// applies here too: frames beyond `memory_budget_bytes` fall through to
    /// the policy's excess strategy (spill/discard/terminate) rather than
    /// silently over-committing the backlog. Order is preserved — overflow
    /// lands *behind* the in-budget adopted frames (backlog drains before
    /// spill).
    pub fn adopt_deferred(&mut self, frames: Vec<DataFrame>) -> IngestResult<()> {
        self.metrics.zombie_frames_adopted.add(frames.len() as u64);
        for f in frames {
            let sz = f.size_bytes();
            if self.backlog_bytes + sz > self.policy.memory_budget_bytes {
                self.handle_excess(f)?;
                continue;
            }
            self.backlog_bytes += sz;
            self.backlog.push_back(f);
        }
        self.metrics.buffer_bytes.set(self.backlog_bytes as u64);
        Ok(())
    }

    /// Flush everything (blocking) and close the downstream gracefully.
    pub fn finish(mut self) -> IngestResult<()> {
        self.check_downstream()?;
        // blocking-drain the memory backlog, then the spill file (counting
        // the deferred records as re-processed)
        let backlog: Vec<DataFrame> = self.backlog.drain(..).collect();
        self.backlog_bytes = 0;
        if let Some(tx) = self.q_tx.as_ref() {
            for f in backlog {
                tx.send(f)
                    .map_err(|_| IngestError::Disconnected("pipeline gone".into()))?;
            }
            while let Some(f) = self.spill.pop() {
                let f = f?;
                let n = f.len() as u64;
                tx.send(f)
                    .map_err(|_| IngestError::Disconnected("pipeline gone".into()))?;
                self.metrics.records_despilled.add(n);
            }
            self.metrics.buffer_bytes.set(0);
            self.metrics.spill_bytes.set(0);
        }
        drop(self.q_tx.take());
        match self.pusher.take() {
            Some(p) => p
                .join()
                .unwrap_or_else(|_| Err(IngestError::Plan("flow pusher panicked".into()))),
            None => Ok(()),
        }
    }

    /// Abandon the flow (pipeline failure); deferred frames are returned to
    /// the caller for zombie parking. The pusher thread is detached — it
    /// ends on its own once its queue disconnects or its downstream errors
    /// (joining here could deadlock against a wedged downstream).
    pub fn fail(mut self) -> Vec<DataFrame> {
        let deferred = self.take_deferred();
        drop(self.q_tx.take());
        self.pusher.take(); // detach
        deferred
    }
}

impl Drop for FlowController {
    fn drop(&mut self) {
        drop(self.q_tx.take());
        // detach the pusher: it exits when the queue disconnects
        self.pusher.take();
    }
}

impl std::fmt::Debug for FlowController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlowController(policy={}, backlog={}B, spill={}B)",
            self.policy.name,
            self.backlog_bytes,
            self.spill.bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::sync::Mutex as PMutex;
    use asterix_common::{Record, RecordId, SimClock, SimInstant};

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(
            ids.map(|i| Record::tracked(RecordId(i), 0, "payload-bytes"))
                .collect(),
        )
    }

    /// A downstream writer whose consumption is gated by a latch and can be
    /// slowed per frame.
    #[derive(Clone, Default)]
    struct GatedSink {
        accepted: Arc<PMutex<Vec<DataFrame>>>,
        gate: Arc<PMutex<bool>>, // true = accept, false = block
        closed: Arc<PMutex<bool>>,
        delay_ms: Arc<PMutex<u64>>,
    }

    impl GatedSink {
        fn open_gate(&self) {
            *self.gate.lock() = true;
        }
        fn close_gate(&self) {
            *self.gate.lock() = false;
        }
        fn set_delay(&self, ms: u64) {
            *self.delay_ms.lock() = ms;
        }
        fn records(&self) -> usize {
            self.accepted.lock().iter().map(|f| f.len()).sum()
        }
    }

    impl FrameWriter for GatedSink {
        fn open(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
            while !*self.gate.lock() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let d = *self.delay_ms.lock();
            if d > 0 {
                std::thread::sleep(std::time::Duration::from_millis(d));
            }
            self.accepted.lock().push(f);
            Ok(())
        }
        fn close(&mut self) -> IngestResult<()> {
            *self.closed.lock() = true;
            Ok(())
        }
        fn fail(&mut self) {}
    }

    fn metrics() -> Arc<FeedMetrics> {
        FeedMetrics::with_default_bucket(SimClock::fast())
    }

    fn controller(policy: IngestionPolicy, sink: &GatedSink) -> FlowController {
        FlowController::new(
            policy,
            metrics(),
            Box::new(sink.clone()),
            2, // tiny queue: congestion after 2 frames
            FeedId(7),
            "conn-test",
            None,
        )
    }

    fn congest(fc: &mut FlowController, frames: usize) -> IngestResult<()> {
        for i in 0..frames {
            fc.offer(frame(i as u64 * 10..i as u64 * 10 + 10))?;
        }
        Ok(())
    }

    #[test]
    fn open_gate_flows_everything() {
        let sink = GatedSink::default();
        sink.open_gate();
        let m;
        {
            let mut fc = controller(IngestionPolicy::basic(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 10).unwrap();
            fc.finish().unwrap();
        }
        assert_eq!(sink.records(), 100);
        assert!(*sink.closed.lock());
        assert_eq!(m.records_discarded.get(), 0);
    }

    #[test]
    fn basic_buffers_excess_then_terminates_on_budget() {
        let sink = GatedSink::default(); // gate closed: full congestion
        let mut policy = IngestionPolicy::basic();
        policy.memory_budget_bytes = 2000;
        let mut fc = controller(policy, &sink);
        // first few land in the queue, then the backlog, then budget blows
        let err = congest(&mut fc, 100).unwrap_err();
        assert!(matches!(err, IngestError::FeedTerminated { .. }), "{err}");
    }

    #[test]
    fn basic_backlog_drains_when_congestion_clears() {
        let sink = GatedSink::default();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 10).unwrap(); // queue(2) + backlog(8)
        sink.open_gate();
        fc.finish().unwrap();
        assert_eq!(sink.records(), 100, "nothing lost under Basic");
    }

    #[test]
    fn discard_drops_excess_and_resumes() {
        let sink = GatedSink::default();
        let m;
        {
            let mut fc = controller(IngestionPolicy::discard(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 10).unwrap();
            sink.open_gate();
            fc.finish().unwrap();
        }
        let discarded = m.records_discarded.get();
        assert!(discarded > 0, "expected drops");
        assert_eq!(sink.records() as u64 + discarded, 100);
    }

    #[test]
    fn spill_defers_and_despills() {
        let sink = GatedSink::default();
        let m;
        {
            let mut fc = controller(IngestionPolicy::spill(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 10).unwrap();
            assert!(m.records_spilled.get() > 0);
            assert!(m.spill_bytes.get() > 0);
            sink.open_gate();
            fc.finish().unwrap();
        }
        assert_eq!(sink.records(), 100, "spill loses nothing");
        assert_eq!(m.records_despilled.get(), m.records_spilled.get());
    }

    #[test]
    fn spill_overflow_escalates_to_discard() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::spill();
        policy.max_spill_bytes = Some(2000);
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 50).unwrap();
            sink.open_gate();
            fc.finish().unwrap();
        }
        assert!(m.records_discarded.get() > 0);
        assert!(m.records_spilled.get() > 0);
    }

    #[test]
    fn spill_then_throttle_custom_policy() {
        let sink = GatedSink::default();
        let mut params = std::collections::BTreeMap::new();
        params.insert("max.spill.size.on.disk".into(), "2000".into());
        params.insert("excess.records.throttle".into(), "true".into());
        let policy = IngestionPolicy::spill()
            .extend("Spill_then_Throttle", &params)
            .unwrap();
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            // open the gate from another thread shortly, since throttle
            // paces with blocking sends
            let s2 = sink.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                s2.open_gate();
            });
            congest(&mut fc, 50).unwrap();
            fc.finish().unwrap();
        }
        assert!(m.records_spilled.get() > 0, "spill first");
        assert!(m.records_throttled.get() > 0, "then throttle");
    }

    #[test]
    fn throttle_samples_uniformly() {
        // a slow-but-open sink keeps the pipeline congested throughout
        let sink = GatedSink::default();
        sink.open_gate();
        sink.set_delay(2);
        let m;
        {
            let mut fc = controller(IngestionPolicy::throttle(), &sink);
            m = Arc::clone(&fc.metrics);
            congest(&mut fc, 100).unwrap();
            sink.set_delay(0);
            fc.finish().unwrap();
        }
        let dropped = m.records_throttled.get();
        assert!(dropped > 0);
        assert_eq!(sink.records() as u64 + dropped, 1000);
        // keep fraction is 0.5: roughly half of the excess records dropped
        let ratio = dropped as f64 / 1000.0;
        assert!(ratio > 0.2 && ratio < 0.8, "drop ratio {ratio}");
    }

    #[test]
    fn elastic_signals_once_and_buffers() {
        let sink = GatedSink::default();
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut fc = FlowController::new(
            IngestionPolicy::elastic(),
            metrics(),
            Box::new(sink.clone()),
            2,
            FeedId(7),
            "conn42",
            Some(tx),
        );
        congest(&mut fc, 10).unwrap();
        let req = rx.try_recv().unwrap();
        assert_eq!(req.connection_key, "conn42");
        assert!(rx.try_recv().is_err(), "signalled exactly once");
        fc.reset_elastic_signal();
        congest(&mut fc, 5).unwrap();
        assert!(rx.try_recv().is_ok(), "re-signals after reset");
        sink.open_gate();
        fc.finish().unwrap();
        assert_eq!(sink.records(), 150, "elastic buffered everything");
    }

    #[test]
    fn elastic_rearms_after_congestion_clears() {
        let sink = GatedSink::default();
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut fc = FlowController::new(
            IngestionPolicy::elastic(),
            metrics(),
            Box::new(sink.clone()),
            2,
            FeedId(7),
            "conn43",
            Some(tx),
        );
        // episode 1: downstream stalled, excess signals scale-out once
        congest(&mut fc, 10).unwrap();
        assert!(rx.try_recv().is_ok(), "first episode signals");
        assert!(rx.try_recv().is_err(), "exactly once per episode");
        // congestion clears: downstream unblocks and the backlog drains
        sink.open_gate();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let drained = fc.drain_deferred().unwrap();
            if drained && sink.records() == 100 {
                break; // queue empty (all delivered) and no deferred left
            }
            assert!(std::time::Instant::now() < deadline, "drain stalled");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // the queue is below low-water: the signal re-armed on its own
        fc.drain_deferred().unwrap();
        // episode 2: downstream stalls again — no manual reset needed
        sink.close_gate();
        congest(&mut fc, 10).unwrap();
        assert!(
            rx.try_recv().is_ok(),
            "re-armed after congestion cleared; second episode signals"
        );
        sink.open_gate();
        fc.finish().unwrap();
        assert_eq!(sink.records(), 200, "elastic buffered everything");
    }

    #[test]
    fn fail_returns_deferred_frames_for_zombie_parking() {
        let sink = GatedSink::default();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 10).unwrap();
        let deferred = fc.fail();
        let total: usize = deferred.iter().map(|f| f.len()).sum();
        assert!(total >= 70, "most frames parked, got {total}");
    }

    #[test]
    fn adopt_deferred_replays_zombie_state() {
        let sink = GatedSink::default();
        sink.open_gate();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        fc.adopt_deferred(vec![frame(0..10), frame(10..20)])
            .unwrap();
        fc.offer(frame(20..30)).unwrap();
        fc.finish().unwrap();
        assert_eq!(sink.records(), 30);
        // order preserved: adopted state first
        let first = sink.accepted.lock()[0].records()[0].id;
        assert_eq!(first, RecordId(0));
    }

    #[test]
    fn throttle_defers_kept_records_behind_older_data() {
        // regression: kept records used to be blocking-sent straight into
        // the hand-off queue, overtaking adopted/buffered frames and
        // breaking the FIFO that adopt_deferred relies on
        let sink = GatedSink::default();
        sink.open_gate();
        sink.set_delay(3);
        let mut fc = controller(IngestionPolicy::throttle(), &sink);
        fc.adopt_deferred(vec![
            frame(0..10),
            frame(10..20),
            frame(20..30),
            frame(30..40),
        ])
        .unwrap();
        for i in 4..12 {
            fc.offer(frame(i * 10..i * 10 + 10)).unwrap();
        }
        sink.set_delay(0);
        fc.finish().unwrap();
        let mut last: Option<RecordId> = None;
        for f in sink.accepted.lock().iter() {
            for r in f.records() {
                if let Some(prev) = last {
                    assert!(
                        r.id > prev,
                        "throttled records overtook older data: {} after {}",
                        r.id,
                        prev
                    );
                }
                last = Some(r.id);
            }
        }
        assert!(last.is_some(), "nothing delivered");
    }

    #[test]
    fn budget_blowout_reports_real_feed_id() {
        // regression: the FeedTerminated error used to hardcode FeedId(0)
        let sink = GatedSink::default(); // gate closed: full congestion
        let mut policy = IngestionPolicy::basic();
        policy.memory_budget_bytes = 2000;
        let mut fc = controller(policy, &sink);
        let err = congest(&mut fc, 100).unwrap_err();
        match err {
            IngestError::FeedTerminated { feed, .. } => {
                assert_eq!(feed, FeedId(7), "error must name the real feed")
            }
            other => panic!("expected FeedTerminated, got {other}"),
        }
    }

    #[test]
    fn failed_despill_requeues_without_reencoding() {
        // regression: a failed de-spill used to rebuild the whole SpillFile
        // by popping and re-serializing every remaining frame (O(spill) per
        // drain attempt); the encoded segment is now reused as-is
        let sink = GatedSink::default(); // gate closed
        let mut fc = controller(IngestionPolicy::spill(), &sink);
        congest(&mut fc, 10).unwrap(); // queue(2) + blocked pusher(≤1) + spill
        let encodes_after_spill = fc.spill.encode_count();
        assert!(
            (7..=8).contains(&encodes_after_spill),
            "each excess frame encoded once, got {encodes_after_spill}"
        );
        for _ in 0..5 {
            // queue is full: every drain pops the head segment, fails to
            // send it, and must put it back without touching the encoder
            assert!(!fc.drain_deferred().unwrap());
        }
        assert_eq!(
            fc.spill.encode_count(),
            encodes_after_spill,
            "failed de-spills must not re-encode surviving segments"
        );
        sink.open_gate();
        fc.finish().unwrap();
        assert_eq!(sink.records(), 100, "re-queues lost nothing");
    }

    #[test]
    fn adopted_overflow_spills_under_spill_policy() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::spill();
        // budget admits exactly one adopted frame; the rest must spill
        policy.memory_budget_bytes = frame(0..10).size_bytes() + 1;
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            fc.adopt_deferred(vec![frame(0..10), frame(10..20), frame(20..30)])
                .unwrap();
            assert!(
                m.records_spilled.get() >= 20,
                "overflow beyond the budget must hit the excess strategy"
            );
            sink.open_gate();
            fc.finish().unwrap();
        }
        assert_eq!(sink.records(), 30, "spilled adoptions lose nothing");
        assert_eq!(m.zombie_frames_adopted.get(), 3);
        // order preserved: in-budget backlog first, spilled overflow after
        let first = sink.accepted.lock()[0].records()[0].id;
        assert_eq!(first, RecordId(0));
    }

    #[test]
    fn adopted_overflow_terminates_under_basic_policy() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::basic();
        policy.memory_budget_bytes = frame(0..10).size_bytes() + 1;
        let mut fc = controller(policy, &sink);
        let err = fc
            .adopt_deferred(vec![frame(0..10), frame(10..20)])
            .unwrap_err();
        assert!(matches!(err, IngestError::FeedTerminated { .. }), "{err}");
    }

    #[test]
    fn adopted_overflow_drops_under_discard_policy() {
        let sink = GatedSink::default();
        let mut policy = IngestionPolicy::discard();
        policy.memory_budget_bytes = frame(0..10).size_bytes() + 1;
        let m;
        {
            let mut fc = controller(policy, &sink);
            m = Arc::clone(&fc.metrics);
            fc.adopt_deferred(vec![frame(0..10), frame(10..20), frame(20..30)])
                .unwrap();
            sink.open_gate();
            fc.finish().unwrap();
        }
        assert_eq!(m.records_discarded.get(), 20);
        assert_eq!(sink.records(), 10, "in-budget frame survives");
    }

    #[test]
    fn spill_file_roundtrip() {
        let mut sf = SpillFile::default();
        assert!(sf.is_empty());
        let f1 = frame(0..5);
        let f2 = frame(5..7);
        sf.push(&f1);
        sf.push(&f2);
        assert!(sf.bytes() > 0);
        assert_eq!(sf.pop().unwrap().unwrap(), f1);
        assert_eq!(sf.pop().unwrap().unwrap(), f2);
        assert!(sf.pop().is_none());
        assert_eq!(sf.bytes(), 0);
    }

    #[test]
    fn spill_preserves_generation_stamps() {
        let mut sf = SpillFile::default();
        let stamped = Record::tracked(RecordId(1), 0, "{\"id\":1}").stamped(SimInstant(42));
        let plain = Record::tracked(RecordId(2), 0, "{\"id\":2}");
        sf.push(&DataFrame::from_records(vec![stamped, plain]));
        let back = sf.pop().unwrap().unwrap();
        assert_eq!(back.records()[0].gen_at, Some(SimInstant(42)));
        assert_eq!(back.records()[1].gen_at, None);
    }

    #[test]
    fn corrupt_spill_segment_is_a_feed_error_not_a_panic() {
        let sink = GatedSink::default(); // gate closed: everything defers
        let mut fc = controller(IngestionPolicy::spill(), &sink);
        congest(&mut fc, 10).unwrap();
        // tear the head segment in half, as a damaged spill file would be
        let mut head = fc.spill.pop_segment().unwrap();
        head.truncate(head.len() / 2);
        fc.spill.push_front_segment(head);
        sink.open_gate();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let err = loop {
            match fc.drain_deferred() {
                Err(e) => break e,
                Ok(_) => assert!(std::time::Instant::now() < deadline, "never despilled"),
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        };
        assert!(matches!(err, IngestError::Storage(_)), "{err}");
        // the pusher thread is alive and the flow still shuts down cleanly
        let parked: usize = fc.fail().iter().map(DataFrame::len).sum();
        assert!(parked > 0, "intact segments behind the torn one survive");
    }
}
