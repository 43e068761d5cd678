//! The congestion controller (Chapter 7).
//!
//! "An expensive UDF or an increased rate of arrival of data may lead to an
//! excessive demand for resources leading to delays in the processing of
//! records" (§7.1). The intake operator of every pipeline pushes frames
//! through a [`FlowController`], which owns the intake's output writer: the
//! bounded port into the next stage. While the port has room a frame goes
//! straight into it; once the port is saturated the arriving frame is
//! *excess* and the connection's ingestion policy decides its fate
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
//! * **Elastic** — excess is buffered, and the first excess frame of each
//!   congestion episode bumps `feed.elastic_scaleouts`: pressure the
//!   scaling governor (`crate::governor`) reads on its next tick, when it
//!   scales the connection's stages out (and, once calm, back in).
//!
//! The port's saturation is the one congestion sensor, and nothing here
//! blocks: the executor already holds the intake task back while its port
//! is saturated, so excess is what arrives within one intake slice after
//! the port filled, and deferred work goes back out, oldest first, as the
//! port drains.

use crate::metrics::FeedMetrics;
use crate::policy::{ExcessStrategy, IngestionPolicy};
use asterix_common::{DataFrame, FeedId, IngestError, IngestResult};
use asterix_hyracks::operator::FrameWriter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// Serialized frames on the simulated local disk. A segment is one frame in
/// the shared record codec ([`DataFrame::encode_into`]): the payload bytes
/// go to disk and come back verbatim.
#[derive(Debug, Default)]
pub struct SpillFile {
    segments: VecDeque<Vec<u8>>,
    bytes: usize,
}

impl SpillFile {
    /// Append a frame (serialized). The generation stamp spills with each
    /// record so ingestion lag keeps counting time spent on disk.
    pub fn push(&mut self, frame: &DataFrame) {
        let mut buf = Vec::with_capacity(frame.size_bytes() + 16);
        frame.encode_into(&mut buf);
        self.bytes += buf.len();
        self.segments.push_back(buf);
    }

    /// Read back the oldest frame; a truncated or corrupt segment is a
    /// storage error (and is gone from the file).
    pub fn pop(&mut self) -> Option<IngestResult<DataFrame>> {
        let buf = self.segments.pop_front()?;
        self.bytes -= buf.len();
        Some(
            DataFrame::decode(&buf)
                .map_err(|e| IngestError::Storage(format!("corrupt spill segment: {e}"))),
        )
    }

    /// Bytes currently on disk.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Spilled frames waiting.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Any spilled frames waiting?
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

fn pipeline_gone() -> IngestError {
    IngestError::Disconnected("pipeline gone".into())
}

/// The per-pipeline congestion controller.
pub struct FlowController {
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    /// The intake's output; `None` once closed or broken.
    writer: Option<Box<dyn FrameWriter>>,
    backlog: VecDeque<DataFrame>,
    backlog_bytes: usize,
    spill: SpillFile,
    rng: SmallRng,
    feed: FeedId,
    /// The current congestion episode has bumped `elastic_scaleouts`.
    elastic_signalled: bool,
}

impl FlowController {
    /// Put policy-governed flow control in front of `writer`, the intake's
    /// opened output. Its saturation is the congestion sensor.
    pub fn new(
        policy: IngestionPolicy,
        metrics: Arc<FeedMetrics>,
        writer: Box<dyn FrameWriter>,
        feed: FeedId,
    ) -> FlowController {
        FlowController {
            policy,
            metrics,
            writer: Some(writer),
            backlog: VecDeque::new(),
            backlog_bytes: 0,
            spill: SpillFile::default(),
            rng: SmallRng::seed_from_u64(0xF10C),
            feed,
            elastic_signalled: false,
        }
    }

    fn has_room(&self) -> bool {
        self.writer.as_ref().is_some_and(|w| !w.is_saturated())
    }

    /// Push one frame into the writer, saturated or not. A writer error
    /// fails the writer and ends the flow.
    fn send(&mut self, frame: DataFrame) -> IngestResult<()> {
        let Some(writer) = self.writer.as_mut() else {
            return Err(pipeline_gone());
        };
        if let Err(e) = writer.next_frame(frame) {
            writer.fail();
            self.writer = None;
            return Err(e);
        }
        Ok(())
    }

    /// Refresh the gauges the governor samples: the bytes held back, and
    /// the frames behind them (backlog frames plus spilled segments).
    fn publish(&self) {
        self.metrics.buffer_bytes.set(self.backlog_bytes as u64);
        self.metrics.spill_bytes.set(self.spill.bytes() as u64);
        let held = self.backlog.len() + self.spill.len();
        self.metrics.handoff_queue_frames.set(held as u64);
    }

    /// Move deferred work — memory backlog first, then spill — into the
    /// writer while it has room. Returns true if nothing is deferred.
    pub fn drain_deferred(&mut self) -> IngestResult<bool> {
        if self.writer.is_none() {
            return Err(pipeline_gone());
        }
        while self.has_room() {
            if let Some(frame) = self.backlog.pop_front() {
                self.backlog_bytes -= frame.size_bytes();
                self.send(frame)?;
            } else if let Some(frame) = self.spill.pop() {
                let frame = frame?;
                let n = frame.len() as u64;
                self.send(frame)?;
                self.metrics.records_despilled.add(n);
            } else {
                break;
            }
        }
        // refreshed on every housekeeping pass, not just on offers: a
        // drained-but-idle feed must read as 0 or the governor would keep
        // seeing the last congested value forever
        self.publish();
        let clear = self.backlog.is_empty() && self.spill.is_empty();
        // nothing deferred and room in the port: the congestion episode is
        // over, so the *next* one signals again
        if clear && self.has_room() {
            self.elastic_signalled = false;
        }
        Ok(clear)
    }

    /// Offer one frame to the pipeline, applying the ingestion policy to any
    /// excess. Never blocks.
    pub fn offer(&mut self, frame: DataFrame) -> IngestResult<()> {
        // deferred data still pending: the arriving frame is excess by
        // definition, or it would overtake older records
        if self.drain_deferred()? && self.has_room() {
            return self.send(frame);
        }
        let outcome = self.handle_excess(frame);
        self.publish();
        outcome
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
                }
                // buffer while the governor scales the pipeline out
                self.buffer_excess(frame)
            }
        }
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
            self.metrics.records_spilled.add(frame.len() as u64);
            self.spill.push(&frame);
            return Ok(());
        }
        if !self.backlog.is_empty() {
            return self.buffer_excess(frame);
        }
        // nothing deferred: the kept fraction goes out even into a saturated
        // port — it overshoots by at most one intake slice, the contract
        // every task's output has
        self.send(frame)
    }

    /// Records currently deferred (backlog + spill), oldest first. The flow
    /// is being abandoned, so a segment that no longer decodes is
    /// dropped rather than reported.
    pub fn take_deferred(&mut self) -> Vec<DataFrame> {
        let mut out: Vec<DataFrame> = self.backlog.drain(..).collect();
        self.backlog_bytes = 0;
        while let Some(f) = self.spill.pop() {
            out.extend(f.ok());
        }
        self.publish();
        out
    }

    /// Graceful end: drain what the writer has room for and, once nothing
    /// is deferred, close it and return true. Called again on later polls
    /// until it does — the whole spill never lands in the port at once.
    pub fn finish(&mut self) -> IngestResult<bool> {
        if !self.drain_deferred()? {
            return Ok(false);
        }
        match self.writer.take() {
            Some(mut writer) => writer.close().map(|()| true),
            None => Err(pipeline_gone()),
        }
    }

    /// Abandon the flow (pipeline failure): the deferred frames are returned
    /// for the intake to hand back to its subscription, and the writer is
    /// closed on drop, behind what it already holds.
    pub fn fail(mut self) -> Vec<DataFrame> {
        self.take_deferred()
    }
}

impl Drop for FlowController {
    fn drop(&mut self) {
        // what reached the writer is delivered and the stream ends cleanly;
        // what was still deferred is dropped (or was returned by `fail`)
        if let Some(mut writer) = self.writer.take() {
            let _ = writer.close();
        }
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
    use asterix_common::{Record, RecordId, SimClock, SimInstant};
    use asterix_hyracks::operator::ScriptedSink;

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(
            ids.map(|i| Record::tracked(RecordId(i), 0, "payload-bytes"))
                .collect(),
        )
    }

    fn metrics() -> Arc<FeedMetrics> {
        FeedMetrics::with_default_bucket(SimClock::fast())
    }

    /// A port that saturates at two frames: congestion from the third on.
    fn tiny_port() -> ScriptedSink {
        ScriptedSink::new(2)
    }

    fn controller(policy: IngestionPolicy, sink: &ScriptedSink) -> FlowController {
        FlowController::new(policy, metrics(), Box::new(sink.clone()), FeedId(7))
    }

    /// An Elastic flow controller and the metrics its signals land in.
    fn elastic(sink: &ScriptedSink) -> (FlowController, Arc<FeedMetrics>) {
        let m = metrics();
        let fc = FlowController::new(
            IngestionPolicy::elastic(),
            Arc::clone(&m),
            Box::new(sink.clone()),
            FeedId(7),
        );
        (fc, m)
    }

    /// Offer `frames` ten-record frames, ids from 0.
    fn congest(fc: &mut FlowController, frames: usize) -> IngestResult<()> {
        for i in 0..frames as u64 {
            fc.offer(frame(i * 10..i * 10 + 10))?;
        }
        Ok(())
    }

    /// The consumer catches up and the flow ends, finished over as many
    /// calls as the port needs — the way an intake finishes across polls.
    fn finish(fc: &mut FlowController, sink: &ScriptedSink) {
        for _ in 0..10_000 {
            sink.drain(usize::MAX);
            if fc.finish().unwrap() {
                assert!(sink.is_closed());
                return;
            }
        }
        panic!("finish never completed");
    }

    fn delivered(sink: &ScriptedSink) -> u64 {
        sink.records().len() as u64
    }

    #[test]
    fn open_port_flows_everything() {
        let sink = ScriptedSink::new(usize::MAX);
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 10).unwrap();
        assert!(fc.finish().unwrap(), "nothing was deferred");
        assert_eq!(delivered(&sink), 100);
        assert!(sink.is_closed());
        assert_eq!(fc.metrics.records_discarded.get(), 0);
    }

    #[test]
    fn basic_buffers_excess_then_terminates_on_budget() {
        let sink = tiny_port(); // never drained: full congestion
        let mut policy = IngestionPolicy::basic();
        policy.memory_budget_bytes = 2000;
        let mut fc = controller(policy, &sink);
        // two frames reach the port, then the backlog, then the budget blows
        let err = congest(&mut fc, 100).unwrap_err();
        assert!(matches!(err, IngestError::FeedTerminated { .. }), "{err}");
    }

    #[test]
    fn basic_backlog_drains_when_congestion_clears() {
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 10).unwrap(); // port(2) + backlog(8)
        assert_eq!(fc.metrics.handoff_queue_frames.get(), 8);
        finish(&mut fc, &sink);
        assert_eq!(delivered(&sink), 100, "nothing lost under Basic");
        assert_eq!(fc.metrics.handoff_queue_frames.get(), 0);
    }

    #[test]
    fn discard_drops_excess_and_resumes() {
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::discard(), &sink);
        congest(&mut fc, 10).unwrap();
        assert_eq!(delivered(&sink), 20, "what fit in the port");
        assert_eq!(fc.metrics.records_discarded.get(), 80);
        // the consumer catches up: the next frame flows again
        sink.drain(usize::MAX);
        fc.offer(frame(100..110)).unwrap();
        assert_eq!(delivered(&sink), 30);
        finish(&mut fc, &sink);
    }

    #[test]
    fn spill_defers_and_despills_in_order() {
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::spill(), &sink);
        congest(&mut fc, 10).unwrap();
        let m = Arc::clone(&fc.metrics);
        assert_eq!(m.records_spilled.get(), 80);
        assert!(m.spill_bytes.get() > 0);
        assert_eq!(m.handoff_queue_frames.get(), 8, "one segment per frame");
        finish(&mut fc, &sink);
        let ids: Vec<u64> = sink.records().iter().map(|r| r.id.raw()).collect();
        assert!(
            ids.iter().copied().eq(0..100),
            "spill loses and reorders nothing"
        );
        assert_eq!(m.records_despilled.get(), m.records_spilled.get());
        assert_eq!(m.spill_bytes.get(), 0);
    }

    #[test]
    fn spill_overflow_escalates_to_discard() {
        let sink = tiny_port();
        let mut policy = IngestionPolicy::spill();
        policy.max_spill_bytes = Some(2000);
        let mut fc = controller(policy, &sink);
        congest(&mut fc, 50).unwrap();
        finish(&mut fc, &sink);
        let m = &fc.metrics;
        assert!(m.records_discarded.get() > 0);
        assert!(m.records_spilled.get() > 0);
        assert_eq!(delivered(&sink) + m.records_discarded.get(), 500);
    }

    #[test]
    fn spill_then_throttle_custom_policy() {
        let sink = tiny_port();
        let mut params = std::collections::BTreeMap::new();
        params.insert("max.spill.size.on.disk".into(), "2000".into());
        params.insert("excess.records.throttle".into(), "true".into());
        let policy = IngestionPolicy::spill()
            .extend("Spill_then_Throttle", &params)
            .unwrap();
        let mut fc = controller(policy, &sink);
        congest(&mut fc, 50).unwrap();
        finish(&mut fc, &sink);
        let m = &fc.metrics;
        assert!(m.records_spilled.get() > 0, "spill first");
        assert!(m.records_throttled.get() > 0, "then throttle");
        assert_eq!(delivered(&sink) + m.records_throttled.get(), 500);
    }

    #[test]
    fn throttle_samples_uniformly_and_never_defers() {
        // a consumer taking one frame per two offered keeps the port full
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::throttle(), &sink);
        for i in 0..100u64 {
            fc.offer(frame(i * 10..i * 10 + 10)).unwrap();
            assert!(
                fc.drain_deferred().unwrap(),
                "the kept fraction is sent, not held"
            );
            if i % 2 == 0 {
                sink.drain(1);
            }
        }
        finish(&mut fc, &sink);
        let dropped = fc.metrics.records_throttled.get();
        assert!(dropped > 0);
        assert_eq!(delivered(&sink) + dropped, 1000);
        // keep fraction is 0.5: roughly half of the excess records dropped
        let ratio = dropped as f64 / 1000.0;
        assert!(ratio > 0.2 && ratio < 0.8, "drop ratio {ratio}");
    }

    #[test]
    fn elastic_signals_once_and_buffers() {
        let sink = tiny_port();
        let (mut fc, m) = elastic(&sink);
        congest(&mut fc, 10).unwrap();
        assert_eq!(m.elastic_scaleouts.get(), 1, "signalled exactly once");
        // the port never drained: still the same congestion episode
        congest(&mut fc, 5).unwrap();
        assert_eq!(m.elastic_scaleouts.get(), 1, "one signal per episode");
        finish(&mut fc, &sink);
        assert_eq!(delivered(&sink), 150, "elastic buffered everything");
    }

    #[test]
    fn elastic_rearms_after_congestion_clears() {
        let sink = tiny_port();
        let (mut fc, m) = elastic(&sink);
        // episode 1: downstream stalled, excess signals once
        congest(&mut fc, 10).unwrap();
        assert_eq!(m.elastic_scaleouts.get(), 1, "first episode signals once");
        // congestion clears: the backlog drains out, and the port has room
        // again once the consumer takes the last of it
        while !fc.drain_deferred().unwrap() {
            sink.drain(usize::MAX);
        }
        sink.drain(usize::MAX);
        fc.drain_deferred().unwrap();
        assert_eq!(delivered(&sink), 100);
        assert_eq!(m.elastic_scaleouts.get(), 1, "draining signals nothing");
        // episode 2: downstream stalls again — the flow re-armed by itself
        congest(&mut fc, 10).unwrap();
        assert_eq!(
            m.elastic_scaleouts.get(),
            2,
            "re-armed after congestion cleared; second episode signals"
        );
        finish(&mut fc, &sink);
        assert_eq!(delivered(&sink), 200, "elastic buffered everything");
    }

    #[test]
    fn fail_returns_deferred_frames_and_closes_the_writer() {
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::basic(), &sink);
        congest(&mut fc, 10).unwrap();
        let deferred = fc.fail();
        let total: usize = deferred.iter().map(|f| f.len()).sum();
        assert_eq!(total, 80, "everything short of the port is parked");
        assert_eq!(delivered(&sink), 20);
        assert!(sink.is_closed(), "the writer ends behind what it holds");
    }

    #[test]
    fn writer_error_fails_the_writer_and_ends_the_flow() {
        struct Broken(Arc<std::sync::atomic::AtomicBool>);
        impl FrameWriter for Broken {
            fn open(&mut self) -> IngestResult<()> {
                Ok(())
            }
            fn next_frame(&mut self, _f: DataFrame) -> IngestResult<()> {
                Err(IngestError::Disconnected("consumer gone".into()))
            }
            fn close(&mut self) -> IngestResult<()> {
                panic!("a failed writer is not closed")
            }
            fn fail(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let failed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut fc = FlowController::new(
            IngestionPolicy::basic(),
            metrics(),
            Box::new(Broken(Arc::clone(&failed))),
            FeedId(7),
        );
        assert!(fc.offer(frame(0..10)).is_err());
        assert!(failed.load(std::sync::atomic::Ordering::SeqCst));
        assert!(fc.offer(frame(10..20)).is_err(), "the flow stays ended");
        assert!(fc.drain_deferred().is_err());
    }

    #[test]
    fn throttle_defers_kept_records_behind_older_data() {
        // regression: kept records used to be sent straight on, overtaking
        // spilled frames and breaking the stream's FIFO
        let sink = tiny_port();
        let mut params = std::collections::BTreeMap::new();
        params.insert("max.spill.size.on.disk".into(), "2000".into());
        params.insert("excess.records.throttle".into(), "true".into());
        let policy = IngestionPolicy::spill()
            .extend("Spill_then_Throttle", &params)
            .unwrap();
        let mut fc = controller(policy, &sink);
        for i in 0..40 {
            fc.offer(frame(i * 10..i * 10 + 10)).unwrap();
            if i % 2 == 0 {
                sink.drain(1);
            }
        }
        assert!(
            fc.metrics.records_throttled.get() > 0,
            "the spill overflowed"
        );
        finish(&mut fc, &sink);
        let ids: Vec<u64> = sink.records().iter().map(|r| r.id.raw()).collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "throttled records overtook older data: {ids:?}"
        );
    }

    #[test]
    fn budget_blowout_reports_real_feed_id() {
        // regression: the FeedTerminated error used to hardcode FeedId(0)
        let sink = tiny_port();
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
    fn saturated_writer_pops_no_spill_segment() {
        // a segment is de-spilled only when the port has room, so a popped
        // segment is always sent: nothing is decoded just to be put back
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::spill(), &sink);
        congest(&mut fc, 10).unwrap();
        assert_eq!(fc.spill.len(), 8);
        for _ in 0..5 {
            assert!(!fc.drain_deferred().unwrap());
            assert_eq!(fc.spill.len(), 8, "the port is full: nothing popped");
        }
        assert_eq!(fc.metrics.records_despilled.get(), 0);
        // room for one frame: exactly one segment leaves the spill
        sink.drain(1);
        assert!(!fc.drain_deferred().unwrap());
        assert_eq!(fc.spill.len(), 7);
        assert_eq!(fc.metrics.records_despilled.get(), 10);
        finish(&mut fc, &sink);
        assert_eq!(delivered(&sink), 100);
    }

    #[test]
    fn finish_drains_across_calls_and_closes_last() {
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::spill(), &sink);
        congest(&mut fc, 10).unwrap();
        sink.drain(usize::MAX);
        // the spill goes out a port's worth at a time, never all at once
        assert!(!fc.finish().unwrap());
        assert_eq!(sink.queued(), 2);
        assert!(!sink.is_closed());
        finish(&mut fc, &sink);
        assert_eq!(delivered(&sink), 100);
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
        assert_eq!(sf.len(), 2);
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
        let sink = tiny_port();
        let mut fc = controller(IngestionPolicy::spill(), &sink);
        congest(&mut fc, 10).unwrap();
        // tear the head segment in half, as a damaged spill file would be
        let head = fc.spill.segments.front_mut().unwrap();
        let torn = head.len() / 2;
        fc.spill.bytes -= head.len() - torn;
        head.truncate(torn);
        sink.drain(usize::MAX);
        let err = fc.drain_deferred().unwrap_err();
        assert!(matches!(err, IngestError::Storage(_)), "{err}");
        // the flow still shuts down cleanly, with what is intact parked
        let parked: usize = fc.fail().iter().map(DataFrame::len).sum();
        assert_eq!(parked, 70, "intact segments behind the torn one survive");
        assert!(sink.is_closed());
    }
}
