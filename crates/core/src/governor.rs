//! The closed-loop scaling governor (§7.3.5 elasticity, made continuous).
//!
//! The paper's Elastic policy is open-loop: a congested flow controller
//! fires a single scale-out request and never revisits the decision. This
//! module closes the loop. A periodic control task owned by the
//! [`FeedController`](crate::controller::FeedController) samples the
//! metrics registry — the ingestion-lag histogram, the intake hand-off
//! queue backlog, and the spill/throttle pressure counters — and issues
//! scale-out *and* scale-in decisions for both the intake and compute
//! partitions of each live feed connection.
//!
//! Stability comes from three classic control elements:
//!
//! * **Hysteresis bands** — scale-out triggers above the `high_*`
//!   thresholds, scale-in only below the strictly lower `low_*` thresholds;
//!   the band between them is a dead zone where the governor holds.
//! * **Cooldown** — after any scaling action the governor holds for
//!   [`GovernorConfig::cooldown`], giving the repartitioned pipeline time to
//!   show its new steady state before the next decision.
//! * **Quiet-tick counting** — scale-in additionally requires
//!   [`GovernorConfig::scale_in_quiet_ticks`] *consecutive* calm samples, so
//!   a single lull between bursts does not shed capacity.
//!
//! The decision function itself is pure ([`decide`]): it sees one
//! [`GovernorSample`] plus the per-connection [`GovernorState`] and returns
//! a [`ScaleDecision`]. Assembling that sample from a registry snapshot
//! (windowed lag, pressure deltas) is `ConnGovernor::tick`, also
//! cluster-free; the messy parts — harvesting frames from abandoned
//! partitions, re-spawning jobs — live in the controller. This keeps the
//! control law unit-testable without a cluster.

use asterix_common::{HistogramSnapshot, MetricsSnapshot, SimDuration, SimInstant};

/// Tuning for the per-feed scaling governor. Disabled by default — the
/// legacy open-loop behaviour (one `scale_compute(+1)` per elastic request)
/// is preserved unless a deployment opts in.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Master switch. When false the controller neither spawns the control
    /// task nor intercepts elastic requests.
    pub enabled: bool,
    /// Sampling period of the control loop, in sim-time.
    pub interval: SimDuration,
    /// Minimum sim-time between two scaling actions on the same connection.
    pub cooldown: SimDuration,
    /// Scale-out when the windowed ingestion-lag p99 exceeds this (sim-ms).
    pub high_lag_millis: u64,
    /// A sample only counts as calm when lag p99 is at or below this.
    /// Must be `< high_lag_millis` — the gap is the hysteresis band.
    pub low_lag_millis: u64,
    /// Scale-out when buffered + spilled backlog exceeds this many bytes.
    pub high_backlog_bytes: u64,
    /// Calm requires backlog at or below this many bytes.
    pub low_backlog_bytes: u64,
    /// Scale-out when the hand-off queue holds at least this many frames.
    pub high_queue_frames: u64,
    /// Calm requires the hand-off queue at or below this many frames.
    pub low_queue_frames: u64,
    /// Consecutive calm samples required before scaling in.
    pub scale_in_quiet_ticks: u32,
    /// Compute partition-count floor the governor will not shrink below.
    pub min_compute: usize,
    /// Compute partition-count ceiling the governor will not grow past.
    pub max_compute: usize,
    /// Intake width floor (distinct nodes running collect instances).
    pub min_intake: usize,
    /// Intake width ceiling.
    pub max_intake: usize,
}

impl Default for GovernorConfig {
    fn default() -> GovernorConfig {
        GovernorConfig {
            enabled: false,
            interval: SimDuration::from_secs(1),
            cooldown: SimDuration::from_secs(4),
            high_lag_millis: 2_000,
            low_lag_millis: 500,
            high_backlog_bytes: 256 * 1024,
            low_backlog_bytes: 16 * 1024,
            high_queue_frames: 4,
            low_queue_frames: 1,
            scale_in_quiet_ticks: 3,
            min_compute: 1,
            max_compute: 8,
            min_intake: 1,
            max_intake: 8,
        }
    }
}

/// One sampled observation of a connection's health, assembled by the
/// controller from a registry snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct GovernorSample {
    /// p99 of the ingestion-lag histogram over the last sampling window
    /// (via [`HistogramSnapshot::delta`](asterix_common::HistogramSnapshot::delta)),
    /// in sim-ms. 0 when nothing was persisted in the window.
    pub lag_p99_millis: u64,
    /// In-memory excess buffer plus spill file bytes, summed over the
    /// connection's store and compute stages.
    pub backlog_bytes: u64,
    /// Hand-off queue depth in frames, max over the connection's stages.
    pub queue_frames: u64,
    /// Pressure events since the previous sample: records throttled,
    /// discarded or spilled, plus open-loop elastic requests routed to the
    /// governor. Any non-zero value marks the sample hot.
    pub pressure_delta: u64,
}

impl std::fmt::Display for GovernorSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lag p99 {} ms, backlog {} B, queue {} frames, pressure {}",
            self.lag_p99_millis, self.backlog_bytes, self.queue_frames, self.pressure_delta
        )
    }
}

/// Mutable per-connection control state carried between ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct GovernorState {
    /// When the last scale-out/in was issued (cooldown anchor).
    pub last_action_at: Option<SimInstant>,
    /// Consecutive calm samples observed so far.
    pub quiet_ticks: u32,
}

/// Per-connection control-loop bookkeeping carried between governor ticks.
#[derive(Default)]
pub(crate) struct ConnGovernor {
    control: GovernorState,
    /// Previous tick's cumulative lag snapshot — subtracted from the current
    /// one so the governor reacts to the *recent* window, not lifetime lag.
    prev_lag: Option<HistogramSnapshot>,
    /// Previous tick's cumulative pressure-counter sum.
    prev_pressure: u64,
    /// Open-loop elastic requests received since the last tick; folded into
    /// the sample as pressure so the hot-path signal is never lost, but
    /// acted on under the governor's hysteresis/cooldown instead of
    /// immediately.
    pub(crate) pending_requests: u64,
}

impl ConnGovernor {
    /// One tick for connection `key`: assemble its sample from a registry
    /// snapshot — `scopes` are the `conn` labels of every stage of its chain
    /// — and run the control law on it.
    pub(crate) fn tick(
        &mut self,
        cfg: &GovernorConfig,
        now: SimInstant,
        snap: &MetricsSnapshot,
        key: &str,
        scopes: &[String],
    ) -> (GovernorSample, ScaleDecision) {
        let mut sample = GovernorSample::default();
        let mut pressure_now = 0u64;
        for scope in scopes {
            let gauge = |name: &str| snap.gauge_for(name, scope).unwrap_or(0);
            sample.backlog_bytes += gauge("feed.buffer_bytes") + gauge("feed.spill_bytes");
            sample.queue_frames = sample.queue_frames.max(gauge("feed.handoff_queue_frames"));
            pressure_now += snap.counter_for("feed.records_throttled", scope)
                + snap.counter_for("feed.records_discarded", scope)
                + snap.counter_for("feed.records_spilled", scope)
                + snap.counter_for("feed.elastic_scaleouts", scope);
        }
        // windowed lag: current cumulative snapshot minus the previous
        // tick's, so old congestion cannot dominate p99
        if let Some(h) = snap.histogram_for("feed.ingest_lag_millis", key) {
            let window = match &self.prev_lag {
                Some(prev) => h.delta(prev),
                None => h.clone(),
            };
            if window.count > 0 {
                sample.lag_p99_millis = window.quantile(0.99);
            }
            self.prev_lag = Some(h);
        }
        sample.pressure_delta = pressure_now.saturating_sub(self.prev_pressure)
            + std::mem::take(&mut self.pending_requests);
        self.prev_pressure = pressure_now;
        let decision = decide(cfg, now, &sample, &mut self.control);
        (sample, decision)
    }
}

/// What the control law wants done this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Add a partition to the hot stage(s).
    Out,
    /// Remove a partition.
    In,
    /// Stay put (dead zone, cooldown, or not yet quiet long enough).
    Hold,
}

impl GovernorState {
    fn cooled_down(&self, now: SimInstant, cfg: &GovernorConfig) -> bool {
        match self.last_action_at {
            Some(at) => now.since(at) >= cfg.cooldown,
            None => true,
        }
    }
}

/// The pure control law: classify the sample against the hysteresis bands
/// and apply cooldown + quiet-tick gating. Mutates `state` (quiet counter,
/// cooldown anchor) and returns the decision.
pub fn decide(
    cfg: &GovernorConfig,
    now: SimInstant,
    sample: &GovernorSample,
    state: &mut GovernorState,
) -> ScaleDecision {
    let hot = sample.lag_p99_millis >= cfg.high_lag_millis
        || sample.backlog_bytes >= cfg.high_backlog_bytes
        || sample.queue_frames >= cfg.high_queue_frames
        || sample.pressure_delta > 0;
    let calm = sample.lag_p99_millis <= cfg.low_lag_millis
        && sample.backlog_bytes <= cfg.low_backlog_bytes
        && sample.queue_frames <= cfg.low_queue_frames
        && sample.pressure_delta == 0;
    if hot {
        state.quiet_ticks = 0;
        if state.cooled_down(now, cfg) {
            state.last_action_at = Some(now);
            return ScaleDecision::Out;
        }
        return ScaleDecision::Hold;
    }
    if calm {
        state.quiet_ticks = state.quiet_ticks.saturating_add(1);
        if state.quiet_ticks >= cfg.scale_in_quiet_ticks && state.cooled_down(now, cfg) {
            state.quiet_ticks = 0;
            state.last_action_at = Some(now);
            return ScaleDecision::In;
        }
        return ScaleDecision::Hold;
    }
    // inside the hysteresis band: neither hot nor calm — hold, and a
    // borderline sample also breaks any quiet streak so scale-in restarts
    // its count from the next genuinely calm sample
    state.quiet_ticks = 0;
    ScaleDecision::Hold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GovernorConfig {
        GovernorConfig {
            enabled: true,
            cooldown: SimDuration::from_secs(4),
            scale_in_quiet_ticks: 3,
            ..GovernorConfig::default()
        }
    }

    fn hot() -> GovernorSample {
        GovernorSample {
            lag_p99_millis: 5_000,
            ..GovernorSample::default()
        }
    }

    fn calm() -> GovernorSample {
        GovernorSample::default()
    }

    fn band() -> GovernorSample {
        // between low (500) and high (2000) lag thresholds
        GovernorSample {
            lag_p99_millis: 1_000,
            ..GovernorSample::default()
        }
    }

    #[test]
    fn hot_sample_scales_out_once_then_cooldown_holds() {
        let cfg = cfg();
        let mut st = GovernorState::default();
        assert_eq!(
            decide(&cfg, SimInstant(0), &hot(), &mut st),
            ScaleDecision::Out
        );
        // still hot one second later: inside the cooldown window
        assert_eq!(
            decide(&cfg, SimInstant(1_000), &hot(), &mut st),
            ScaleDecision::Hold
        );
        // cooldown expired: acts again
        assert_eq!(
            decide(&cfg, SimInstant(4_000), &hot(), &mut st),
            ScaleDecision::Out
        );
    }

    #[test]
    fn scale_in_needs_consecutive_quiet_ticks() {
        let cfg = cfg();
        let mut st = GovernorState::default();
        assert_eq!(
            decide(&cfg, SimInstant(0), &calm(), &mut st),
            ScaleDecision::Hold
        );
        assert_eq!(
            decide(&cfg, SimInstant(1_000), &calm(), &mut st),
            ScaleDecision::Hold
        );
        assert_eq!(
            decide(&cfg, SimInstant(2_000), &calm(), &mut st),
            ScaleDecision::In
        );
        // the streak resets after acting
        assert_eq!(st.quiet_ticks, 0);
    }

    #[test]
    fn band_sample_breaks_the_quiet_streak() {
        let cfg = cfg();
        let mut st = GovernorState::default();
        decide(&cfg, SimInstant(0), &calm(), &mut st);
        decide(&cfg, SimInstant(1_000), &calm(), &mut st);
        // a borderline sample interrupts the streak...
        assert_eq!(
            decide(&cfg, SimInstant(2_000), &band(), &mut st),
            ScaleDecision::Hold
        );
        // ...so the next calm sample starts counting from one again
        assert_eq!(
            decide(&cfg, SimInstant(3_000), &calm(), &mut st),
            ScaleDecision::Hold
        );
        assert_eq!(st.quiet_ticks, 1);
    }

    #[test]
    fn pressure_events_mark_the_sample_hot() {
        let cfg = cfg();
        let mut st = GovernorState::default();
        let s = GovernorSample {
            pressure_delta: 1,
            ..GovernorSample::default()
        };
        assert_eq!(decide(&cfg, SimInstant(0), &s, &mut st), ScaleDecision::Out);
    }

    #[test]
    fn cooldown_applies_to_scale_in_too() {
        let cfg = cfg();
        let mut st = GovernorState::default();
        assert_eq!(
            decide(&cfg, SimInstant(0), &hot(), &mut st),
            ScaleDecision::Out
        );
        // three calm ticks arrive inside the cooldown window: still held
        for t in [1_000u64, 2_000, 3_000] {
            assert_eq!(
                decide(&cfg, SimInstant(t), &calm(), &mut st),
                ScaleDecision::Hold
            );
        }
        // cooldown over and the quiet streak is intact: shed capacity
        assert_eq!(
            decide(&cfg, SimInstant(4_000), &calm(), &mut st),
            ScaleDecision::In
        );
    }
}
