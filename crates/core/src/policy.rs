//! Ingestion policies.
//!
//! "AsterixDB allows a data feed to have an associated ingestion policy that
//! is expressed as a collection of parameters and associated values" (§4.5).
//! Table 4.1 lists the parameters; Table 4.2 summarises how each built-in
//! policy handles excess records:
//!
//! | Policy   | Approach |
//! |----------|----------|
//! | Basic    | Buffer excess records in memory |
//! | Spill    | Spill excess records to disk for deferred processing |
//! | Discard  | Discard excess records altogether |
//! | Throttle | Randomly filter out records to regulate the rate of arrival |
//! | Elastic  | Scale out/in to adapt to the rate of arrival |
//!
//! `excess.records.elastic` is the one switch for scaling: the controller's
//! scaling governor ([`crate::governor`]) steers exactly the connections
//! whose policy sets it, out under congestion and back in when calm, while
//! their joint subscriptions buffer the excess. No other policy is scaled.
//!
//! Custom policies extend a built-in and override parameters (Listing 4.6's
//! `Spill_then_Throttle`).

use asterix_common::{IngestError, IngestResult};
use std::collections::BTreeMap;

/// One typed ingestion-policy parameter (Table 4.1).
///
/// This is the structured face of the stringly `("key", "value")` pairs an
/// AQL `with` clause carries: [`PolicyParam::parse`] is the shim that turns
/// those pairs into typed values, and [`IngestionPolicy::set`] applies them.
/// Constructing a variant directly skips string parsing entirely.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyParam {
    /// `excess.records.spill`
    ExcessRecordsSpill(bool),
    /// `excess.records.discard`
    ExcessRecordsDiscard(bool),
    /// `excess.records.throttle`
    ExcessRecordsThrottle(bool),
    /// `excess.records.elastic`
    ExcessRecordsElastic(bool),
    /// `recover.soft.failure`
    RecoverSoftFailure(bool),
    /// `recover.hard.failure`
    RecoverHardFailure(bool),
    /// `at.least.once.enabled`
    AtLeastOnce(bool),
    /// `memory.budget.bytes`
    MemoryBudgetBytes(usize),
    /// `max.spill.size.on.disk`
    MaxSpillBytes(usize),
    /// `max.consecutive.soft.failures`
    MaxConsecutiveSoftFailures(usize),
    /// `soft.failure.log.data`
    LogSoftFailures(bool),
    /// `throttle.keep.fraction` — fraction of records *kept*, in (0, 1].
    ThrottleKeepFraction(f64),
}

impl PolicyParam {
    /// The Table 4.1 parameter name this variant corresponds to.
    pub fn key(&self) -> &'static str {
        match self {
            PolicyParam::ExcessRecordsSpill(_) => "excess.records.spill",
            PolicyParam::ExcessRecordsDiscard(_) => "excess.records.discard",
            PolicyParam::ExcessRecordsThrottle(_) => "excess.records.throttle",
            PolicyParam::ExcessRecordsElastic(_) => "excess.records.elastic",
            PolicyParam::RecoverSoftFailure(_) => "recover.soft.failure",
            PolicyParam::RecoverHardFailure(_) => "recover.hard.failure",
            PolicyParam::AtLeastOnce(_) => "at.least.once.enabled",
            PolicyParam::MemoryBudgetBytes(_) => "memory.budget.bytes",
            PolicyParam::MaxSpillBytes(_) => "max.spill.size.on.disk",
            PolicyParam::MaxConsecutiveSoftFailures(_) => "max.consecutive.soft.failures",
            PolicyParam::LogSoftFailures(_) => "soft.failure.log.data",
            PolicyParam::ThrottleKeepFraction(_) => "throttle.keep.fraction",
        }
    }

    /// Parse one stringly `key=value` pair from an AQL `with` clause into a
    /// typed parameter. Unknown keys raise
    /// [`IngestError::PolicyUnknownParam`]; malformed values raise
    /// [`IngestError::PolicyInvalidValue`] naming what was expected.
    pub fn parse(key: &str, value: &str) -> IngestResult<PolicyParam> {
        fn invalid(key: &str, value: &str, expected: &str) -> IngestError {
            IngestError::PolicyInvalidValue {
                key: key.to_string(),
                value: value.to_string(),
                expected: expected.to_string(),
            }
        }
        fn parse_bool(key: &str, v: &str) -> IngestResult<bool> {
            v.parse::<bool>().map_err(|_| invalid(key, v, "true/false"))
        }
        fn parse_bytes(key: &str, v: &str) -> IngestResult<usize> {
            let raw = v.trim();
            let (num, mult) = if let Some(n) = raw.strip_suffix("GB") {
                (n, 1 << 30)
            } else if let Some(n) = raw.strip_suffix("MB") {
                (n, 1 << 20)
            } else if let Some(n) = raw.strip_suffix("KB") {
                (n, 1 << 10)
            } else {
                (raw, 1)
            };
            num.trim()
                .parse::<usize>()
                .map(|n| n * mult)
                .map_err(|_| invalid(key, v, "a byte size like 512MB"))
        }
        Ok(match key {
            "excess.records.spill" => PolicyParam::ExcessRecordsSpill(parse_bool(key, value)?),
            "excess.records.discard" => PolicyParam::ExcessRecordsDiscard(parse_bool(key, value)?),
            "excess.records.throttle" => {
                PolicyParam::ExcessRecordsThrottle(parse_bool(key, value)?)
            }
            "excess.records.elastic" => PolicyParam::ExcessRecordsElastic(parse_bool(key, value)?),
            "recover.soft.failure" => PolicyParam::RecoverSoftFailure(parse_bool(key, value)?),
            "recover.hard.failure" => PolicyParam::RecoverHardFailure(parse_bool(key, value)?),
            "at.least.once.enabled" => PolicyParam::AtLeastOnce(parse_bool(key, value)?),
            "memory.budget.bytes" => PolicyParam::MemoryBudgetBytes(parse_bytes(key, value)?),
            "max.spill.size.on.disk" => PolicyParam::MaxSpillBytes(parse_bytes(key, value)?),
            "max.consecutive.soft.failures" => PolicyParam::MaxConsecutiveSoftFailures(
                value
                    .parse()
                    .map_err(|_| invalid(key, value, "a non-negative integer"))?,
            ),
            "soft.failure.log.data" => PolicyParam::LogSoftFailures(parse_bool(key, value)?),
            "throttle.keep.fraction" => PolicyParam::ThrottleKeepFraction(
                value
                    .parse()
                    .map_err(|_| invalid(key, value, "a fraction in (0, 1]"))?,
            ),
            other => return Err(IngestError::PolicyUnknownParam(other.to_string())),
        })
    }
}

/// How excess records are handled when the pipeline cannot keep up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExcessStrategy {
    /// Buffer in memory (until the memory budget is exhausted → feed ends).
    Buffer,
    /// Spill to local disk for deferred processing.
    Spill,
    /// Drop excess records until the backlog clears.
    Discard,
    /// Randomly sample records to reduce the effective arrival rate.
    Throttle,
    /// Ask the Central Feed Manager to scale the compute stage out.
    Elastic,
}

/// A fully-resolved ingestion policy.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestionPolicy {
    /// Policy name (as referenced in `connect feed ... using policy X`).
    pub name: String,
    /// `excess.records.spill`
    pub excess_records_spill: bool,
    /// `excess.records.discard`
    pub excess_records_discard: bool,
    /// `excess.records.throttle`
    pub excess_records_throttle: bool,
    /// `excess.records.elastic`
    pub excess_records_elastic: bool,
    /// `recover.soft.failure` (default true, Table 4.1)
    pub recover_soft_failure: bool,
    /// `recover.hard.failure` (default true, Table 4.1)
    pub recover_hard_failure: bool,
    /// `at.least.once.enabled` (§5.6)
    pub at_least_once: bool,
    /// `memory.budget.bytes` — in-memory excess buffer budget for Basic.
    pub memory_budget_bytes: usize,
    /// `max.spill.size.on.disk` — bytes; `None` = unbounded.
    pub max_spill_bytes: Option<usize>,
    /// `max.consecutive.soft.failures` before the feed ends (§6.1.2).
    pub max_consecutive_soft_failures: usize,
    /// `soft.failure.log.data` — log failing records to a dedicated dataset.
    pub log_soft_failures_to_dataset: bool,
    /// Fraction of records *kept* under throttling (0, 1].
    pub throttle_keep_fraction: f64,
}

impl IngestionPolicy {
    /// The `Basic` policy: buffer excess in memory.
    pub fn basic() -> Self {
        IngestionPolicy {
            name: "Basic".into(),
            excess_records_spill: false,
            excess_records_discard: false,
            excess_records_throttle: false,
            excess_records_elastic: false,
            recover_soft_failure: true,
            recover_hard_failure: true,
            at_least_once: false,
            memory_budget_bytes: 64 * 1024 * 1024,
            max_spill_bytes: None,
            max_consecutive_soft_failures: 1000,
            log_soft_failures_to_dataset: false,
            throttle_keep_fraction: 0.5,
        }
    }

    /// The `Spill` policy.
    pub fn spill() -> Self {
        IngestionPolicy {
            name: "Spill".into(),
            excess_records_spill: true,
            ..IngestionPolicy::basic()
        }
    }

    /// The `Discard` policy.
    pub fn discard() -> Self {
        IngestionPolicy {
            name: "Discard".into(),
            excess_records_discard: true,
            ..IngestionPolicy::basic()
        }
    }

    /// The `Throttle` policy.
    pub fn throttle() -> Self {
        IngestionPolicy {
            name: "Throttle".into(),
            excess_records_throttle: true,
            ..IngestionPolicy::basic()
        }
    }

    /// The `Elastic` policy.
    pub fn elastic() -> Self {
        IngestionPolicy {
            name: "Elastic".into(),
            excess_records_elastic: true,
            ..IngestionPolicy::basic()
        }
    }

    /// The `FaultTolerant` policy used in the Chapter 6 experiment:
    /// Basic + at-least-once delivery.
    pub fn fault_tolerant() -> Self {
        IngestionPolicy {
            name: "FaultTolerant".into(),
            at_least_once: true,
            ..IngestionPolicy::basic()
        }
    }

    /// Look up a built-in policy by name (case-insensitive).
    pub fn builtin(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "basic" => Some(Self::basic()),
            "spill" => Some(Self::spill()),
            "discard" => Some(Self::discard()),
            "throttle" => Some(Self::throttle()),
            "elastic" => Some(Self::elastic()),
            "faulttolerant" | "fault-tolerant" | "fault_tolerant" => Some(Self::fault_tolerant()),
            _ => None,
        }
    }

    /// Derive a custom policy by overriding parameters (the `create
    /// ingestion policy X from policy Y (...)` path, Listing 4.6).
    /// Unknown parameter names are configuration errors.
    pub fn extend(
        &self,
        name: impl Into<String>,
        params: &BTreeMap<String, String>,
    ) -> IngestResult<IngestionPolicy> {
        let mut p = self.clone();
        p.name = name.into();
        for (k, v) in params {
            p.set_param(k, v)?;
        }
        Ok(p)
    }

    /// Apply one typed parameter. Range constraints that the type system
    /// cannot express (the throttle fraction) are validated here, so a
    /// hand-constructed [`PolicyParam`] gets the same checks as a parsed one.
    pub fn set(&mut self, param: PolicyParam) -> IngestResult<()> {
        match param {
            PolicyParam::ExcessRecordsSpill(v) => self.excess_records_spill = v,
            PolicyParam::ExcessRecordsDiscard(v) => self.excess_records_discard = v,
            PolicyParam::ExcessRecordsThrottle(v) => self.excess_records_throttle = v,
            PolicyParam::ExcessRecordsElastic(v) => self.excess_records_elastic = v,
            PolicyParam::RecoverSoftFailure(v) => self.recover_soft_failure = v,
            PolicyParam::RecoverHardFailure(v) => self.recover_hard_failure = v,
            PolicyParam::AtLeastOnce(v) => self.at_least_once = v,
            PolicyParam::MemoryBudgetBytes(v) => self.memory_budget_bytes = v,
            PolicyParam::MaxSpillBytes(v) => self.max_spill_bytes = Some(v),
            PolicyParam::MaxConsecutiveSoftFailures(v) => self.max_consecutive_soft_failures = v,
            PolicyParam::LogSoftFailures(v) => self.log_soft_failures_to_dataset = v,
            PolicyParam::ThrottleKeepFraction(f) => {
                if !(f > 0.0 && f <= 1.0) {
                    return Err(IngestError::PolicyInvalidValue {
                        key: "throttle.keep.fraction".into(),
                        value: f.to_string(),
                        expected: "a fraction in (0, 1]".into(),
                    });
                }
                self.throttle_keep_fraction = f;
            }
        }
        Ok(())
    }

    /// Set one Table 4.1-style parameter from its stringly form (the AQL
    /// `with`-clause shim over [`PolicyParam::parse`] + [`Self::set`]).
    pub fn set_param(&mut self, key: &str, value: &str) -> IngestResult<()> {
        self.set(PolicyParam::parse(key, value)?)
    }

    /// The primary strategy for excess records (Table 4.2). When several
    /// flags are set, the escalation order is spill → discard → throttle →
    /// elastic; `primary_excess_strategy` returns the first enabled one and
    /// [`IngestionPolicy::overflow_strategy`] the next (for custom policies
    /// like Spill-then-Throttle).
    pub fn primary_excess_strategy(&self) -> ExcessStrategy {
        if self.excess_records_spill {
            ExcessStrategy::Spill
        } else if self.excess_records_discard {
            ExcessStrategy::Discard
        } else if self.excess_records_throttle {
            ExcessStrategy::Throttle
        } else if self.excess_records_elastic {
            ExcessStrategy::Elastic
        } else {
            ExcessStrategy::Buffer
        }
    }

    /// The strategy applied when the primary one is exhausted (spill file
    /// full, memory budget gone).
    pub fn overflow_strategy(&self) -> ExcessStrategy {
        match self.primary_excess_strategy() {
            ExcessStrategy::Spill => {
                if self.excess_records_throttle {
                    ExcessStrategy::Throttle
                } else {
                    // discard, explicitly enabled or not: a full spill must
                    // shed load
                    ExcessStrategy::Discard
                }
            }
            ExcessStrategy::Buffer => ExcessStrategy::Discard,
            other => other,
        }
    }
}

impl Default for IngestionPolicy {
    fn default() -> Self {
        IngestionPolicy::basic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_match_table_4_2() {
        assert_eq!(
            IngestionPolicy::basic().primary_excess_strategy(),
            ExcessStrategy::Buffer
        );
        assert_eq!(
            IngestionPolicy::spill().primary_excess_strategy(),
            ExcessStrategy::Spill
        );
        assert_eq!(
            IngestionPolicy::discard().primary_excess_strategy(),
            ExcessStrategy::Discard
        );
        assert_eq!(
            IngestionPolicy::throttle().primary_excess_strategy(),
            ExcessStrategy::Throttle
        );
        assert_eq!(
            IngestionPolicy::elastic().primary_excess_strategy(),
            ExcessStrategy::Elastic
        );
    }

    #[test]
    fn table_4_1_defaults() {
        let p = IngestionPolicy::basic();
        assert!(!p.excess_records_spill);
        assert!(!p.excess_records_discard);
        assert!(!p.excess_records_throttle);
        assert!(!p.excess_records_elastic);
        assert!(p.recover_soft_failure);
        assert!(p.recover_hard_failure);
        assert!(!p.at_least_once);
    }

    #[test]
    fn builtin_lookup_is_case_insensitive() {
        assert_eq!(IngestionPolicy::builtin("BASIC").unwrap().name, "Basic");
        assert_eq!(IngestionPolicy::builtin("discard").unwrap().name, "Discard");
        assert!(IngestionPolicy::builtin("nope").is_none());
    }

    #[test]
    fn listing_4_6_spill_then_throttle() {
        // create ingestion policy Spill_then_Throttle from policy Spill
        //   ("max.spill.size.on.disk"="512MB", "excess.records.throttle"="true")
        let mut params = BTreeMap::new();
        params.insert("max.spill.size.on.disk".into(), "512MB".into());
        params.insert("excess.records.throttle".into(), "true".into());
        let p = IngestionPolicy::spill()
            .extend("Spill_then_Throttle", &params)
            .unwrap();
        assert_eq!(p.name, "Spill_then_Throttle");
        assert_eq!(p.max_spill_bytes, Some(512 << 20));
        assert_eq!(p.primary_excess_strategy(), ExcessStrategy::Spill);
        assert_eq!(p.overflow_strategy(), ExcessStrategy::Throttle);
    }

    #[test]
    fn spill_overflow_defaults_to_discard() {
        let p = IngestionPolicy::spill();
        assert_eq!(p.overflow_strategy(), ExcessStrategy::Discard);
    }

    #[test]
    fn size_suffixes_parse() {
        let mut p = IngestionPolicy::basic();
        p.set_param("memory.budget.bytes", "4KB").unwrap();
        assert_eq!(p.memory_budget_bytes, 4096);
        p.set_param("memory.budget.bytes", "2MB").unwrap();
        assert_eq!(p.memory_budget_bytes, 2 << 20);
        p.set_param("memory.budget.bytes", "1GB").unwrap();
        assert_eq!(p.memory_budget_bytes, 1 << 30);
        p.set_param("memory.budget.bytes", "12345").unwrap();
        assert_eq!(p.memory_budget_bytes, 12345);
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut p = IngestionPolicy::basic();
        assert!(p.set_param("excess.records.spill", "yes").is_err());
        assert!(p.set_param("no.such.param", "true").is_err());
        assert!(p.set_param("throttle.keep.fraction", "0.0").is_err());
        assert!(p.set_param("throttle.keep.fraction", "1.5").is_err());
        assert!(p.set_param("max.consecutive.soft.failures", "-3").is_err());
        p.set_param("throttle.keep.fraction", "0.25").unwrap();
        assert_eq!(p.throttle_keep_fraction, 0.25);
    }

    #[test]
    fn typed_params_apply_without_string_parsing() {
        let mut p = IngestionPolicy::basic();
        p.set(PolicyParam::ExcessRecordsElastic(true)).unwrap();
        p.set(PolicyParam::MemoryBudgetBytes(4096)).unwrap();
        p.set(PolicyParam::ThrottleKeepFraction(0.75)).unwrap();
        assert!(p.excess_records_elastic);
        assert_eq!(p.memory_budget_bytes, 4096);
        assert_eq!(p.throttle_keep_fraction, 0.75);
        // out-of-range fraction is caught even without the parse shim
        let err = p.set(PolicyParam::ThrottleKeepFraction(2.0)).unwrap_err();
        assert!(matches!(err, IngestError::PolicyInvalidValue { .. }));
    }

    #[test]
    fn parse_errors_are_structured() {
        match PolicyParam::parse("no.such.param", "true") {
            Err(IngestError::PolicyUnknownParam(k)) => assert_eq!(k, "no.such.param"),
            other => panic!("expected PolicyUnknownParam, got {other:?}"),
        }
        match PolicyParam::parse("excess.records.spill", "yes") {
            Err(IngestError::PolicyInvalidValue { key, value, .. }) => {
                assert_eq!(key, "excess.records.spill");
                assert_eq!(value, "yes");
            }
            other => panic!("expected PolicyInvalidValue, got {other:?}"),
        }
        assert_eq!(
            PolicyParam::parse("memory.budget.bytes", "512MB").unwrap(),
            PolicyParam::MemoryBudgetBytes(512 << 20)
        );
        assert_eq!(
            PolicyParam::parse("at.least.once.enabled", "true")
                .unwrap()
                .key(),
            "at.least.once.enabled"
        );
    }

    #[test]
    fn disabling_recovery() {
        let mut params = BTreeMap::new();
        params.insert("recover.hard.failure".into(), "false".into());
        params.insert("recover.soft.failure".into(), "false".into());
        let p = IngestionPolicy::basic().extend("Fragile", &params).unwrap();
        assert!(!p.recover_hard_failure);
        assert!(!p.recover_soft_failure);
    }

    #[test]
    fn fault_tolerant_enables_at_least_once() {
        let p = IngestionPolicy::fault_tolerant();
        assert!(p.at_least_once);
        assert!(p.recover_hard_failure);
    }
}
