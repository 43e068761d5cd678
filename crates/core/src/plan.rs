//! Declarative ingestion plans: the typed plan IR and its fluent builder.
//!
//! The paper's feeds are strictly linear — one adaptor, one pipeline, one
//! target dataset. An [`IngestPlan`] generalizes that cascade into a DAG
//! (INGESTBASE / the IDEA system's predicate routing): one source, an
//! optional chain of UDF enrichment stages, then a *routing stage* that
//! evaluates per-sink predicates once per record and fans frames out to N
//! sinks, each carrying its own dataset, ingestion policy and durability
//! knobs.
//!
//! The IR is runtime-agnostic: [`IngestPlan::route_record`] is a pure
//! function shared by the routing operator, the `exp_fanout` bench's
//! expected-set computation, and the partition proptests — one evaluator,
//! no drift between what the pipeline does and what the tests assert.
//!
//! Construction goes through [`IngestPlanBuilder`] — the one fluent surface,
//! for plain feed definitions (`build_feed_def` / `register_feeds`) as much
//! as for routed plans — or through the extended AQL DDL (`create feed F ...
//! route to A where <pred>, to B otherwise with policy {...}`), which the
//! `aql` crate compiles into this same IR. The
//! [`crate::controller::FeedController`] compiles a plan into segments of
//! its one table: per-sink store pipelines, behind a fan-out route segment
//! when the plan routes.

use crate::adaptor::AdaptorConfig;
use crate::catalog::{FeedCatalog, FeedDef, FeedKind};
use crate::controller::{ConnectionId, FeedController};
use asterix_adm::AdmValue;
use asterix_common::{IngestError, SimInstant};
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// PlanError
// ---------------------------------------------------------------------------

/// Typed error taxonomy of the plan API — a superset of the ingestion-policy
/// errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan (or feed) name is empty.
    EmptyName,
    /// Neither an adaptor nor a parent feed sources the plan.
    NoSource(String),
    /// Both an adaptor and a parent feed were given.
    TwoSources(String),
    /// Adaptor parameters were given for a parent-sourced plan.
    ParamsOnSecondary(String),
    /// A UDF chain longer than one function reached a single-definition
    /// context (`build()`); `register()` materializes chains instead.
    ChainNeedsRegister {
        /// The plan being built.
        plan: String,
        /// How many functions the chain carries.
        udfs: usize,
    },
    /// The plan routes to no sinks.
    NoSinks(String),
    /// Two sinks target the same dataset.
    DuplicateSink {
        /// The plan being built.
        plan: String,
        /// The dataset named twice.
        dataset: String,
    },
    /// In first-match routing, an arm listed after the catch-all
    /// `otherwise` arm can never fire.
    UnreachableArm {
        /// The plan being built.
        plan: String,
        /// The dataset of the unreachable arm.
        dataset: String,
    },
    /// A sink names an ingestion policy the catalog does not know.
    UnknownPolicy(String),
    /// An ingestion-policy parameter name no policy understands
    /// (mirrors [`IngestError::PolicyUnknownParam`]).
    UnknownPolicyParam(String),
    /// An ingestion-policy parameter whose value failed validation
    /// (mirrors [`IngestError::PolicyInvalidValue`]).
    InvalidPolicyValue {
        /// The parameter key (Table 4.1 name).
        key: String,
        /// The rejected value, verbatim.
        value: String,
        /// What a valid value would have looked like.
        expected: String,
    },
    /// Catalog lookup or registration failed (unknown dataset / adaptor /
    /// function / feed, duplicate feed, ...).
    Metadata(String),
    /// Any other runtime error surfaced while compiling or connecting the
    /// plan.
    Runtime(IngestError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyName => write!(f, "plan name must be non-empty"),
            PlanError::NoSource(p) => {
                write!(f, "plan '{p}' needs an adaptor or a parent feed")
            }
            PlanError::TwoSources(p) => {
                write!(
                    f,
                    "plan '{p}' cannot have both an adaptor and a parent feed"
                )
            }
            PlanError::ParamsOnSecondary(p) => write!(
                f,
                "plan '{p}': adaptor parameters make no sense on a parent-sourced plan"
            ),
            PlanError::ChainNeedsRegister { plan, udfs } => write!(
                f,
                "plan '{plan}': a single FeedDef carries at most one UDF; \
                 register() materializes a {udfs}-function chain as secondary feeds"
            ),
            PlanError::NoSinks(p) => write!(f, "plan '{p}' routes to no sinks"),
            PlanError::DuplicateSink { plan, dataset } => {
                write!(f, "plan '{plan}' routes to dataset '{dataset}' twice")
            }
            PlanError::UnreachableArm { plan, dataset } => write!(
                f,
                "plan '{plan}': arm for '{dataset}' follows the otherwise arm and can never match"
            ),
            PlanError::UnknownPolicy(p) => write!(f, "unknown policy '{p}'"),
            PlanError::UnknownPolicyParam(k) => write!(f, "unknown policy parameter '{k}'"),
            PlanError::InvalidPolicyValue {
                key,
                value,
                expected,
            } => write!(
                f,
                "policy parameter {key}: expected {expected}, got '{value}'"
            ),
            PlanError::Metadata(m) => write!(f, "metadata error: {m}"),
            PlanError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<IngestError> for PlanError {
    fn from(e: IngestError) -> Self {
        match e {
            IngestError::PolicyUnknownParam(k) => PlanError::UnknownPolicyParam(k),
            IngestError::PolicyInvalidValue {
                key,
                value,
                expected,
            } => PlanError::InvalidPolicyValue {
                key,
                value,
                expected,
            },
            IngestError::Metadata(m) => PlanError::Metadata(m),
            other => PlanError::Runtime(other),
        }
    }
}

impl From<PlanError> for IngestError {
    fn from(e: PlanError) -> Self {
        match e {
            PlanError::UnknownPolicyParam(k) => IngestError::PolicyUnknownParam(k),
            PlanError::InvalidPolicyValue {
                key,
                value,
                expected,
            } => IngestError::PolicyInvalidValue {
                key,
                value,
                expected,
            },
            PlanError::Metadata(m) => IngestError::Metadata(m),
            PlanError::Runtime(e) => e,
            other => IngestError::Metadata(other.to_string()),
        }
    }
}

/// Result alias for the plan API.
pub type PlanResult<T> = Result<T, PlanError>;

// ---------------------------------------------------------------------------
// Routing predicates
// ---------------------------------------------------------------------------

/// A comparison operator of a [`RoutePredicate::Compare`] leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering of `lhs` relative to `rhs`.
    fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with swapped operand sides (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// AQL spelling (`=`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A routing predicate evaluated against a record's parsed ADM value (and,
/// for windowed arms, its generation timestamp). Field paths are nested:
/// `["user", "followers_count"]` descends into sub-records.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutePredicate {
    /// `field <op> literal` — false when the field is absent.
    Compare {
        /// Nested field path.
        field: Vec<String>,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against (total order over ADM values).
        value: AdmValue,
    },
    /// The field path resolves to a value (attribute routing on presence).
    Exists {
        /// Nested field path.
        field: Vec<String>,
    },
    /// Every sub-predicate holds (empty = true).
    All(Vec<RoutePredicate>),
    /// At least one sub-predicate holds (empty = false).
    Any(Vec<RoutePredicate>),
    /// The sub-predicate does not hold.
    Not(Box<RoutePredicate>),
    /// Windowed routing on the record's generation timestamp: matches when
    /// `gen_at mod period < open` — the arm is "open" for the first
    /// `open_millis` of every `period_millis` cycle. Records with no
    /// timestamp never match.
    Window {
        /// Cycle length in sim-milliseconds.
        period_millis: u64,
        /// Open prefix of each cycle in sim-milliseconds.
        open_millis: u64,
    },
}

/// Split a dotted path (`"user.followers_count"`) into path segments.
fn split_path(path: &str) -> Vec<String> {
    path.split('.').map(str::to_string).collect()
}

impl RoutePredicate {
    /// `field <op> value` over a dotted field path.
    pub fn compare(path: &str, op: CmpOp, value: impl Into<AdmValue>) -> RoutePredicate {
        RoutePredicate::Compare {
            field: split_path(path),
            op,
            value: value.into(),
        }
    }

    /// `field = value`.
    pub fn eq(path: &str, value: impl Into<AdmValue>) -> RoutePredicate {
        RoutePredicate::compare(path, CmpOp::Eq, value)
    }

    /// `field < value`.
    pub fn lt(path: &str, value: impl Into<AdmValue>) -> RoutePredicate {
        RoutePredicate::compare(path, CmpOp::Lt, value)
    }

    /// `field > value`.
    pub fn gt(path: &str, value: impl Into<AdmValue>) -> RoutePredicate {
        RoutePredicate::compare(path, CmpOp::Gt, value)
    }

    /// The dotted field path resolves to a value.
    pub fn exists(path: &str) -> RoutePredicate {
        RoutePredicate::Exists {
            field: split_path(path),
        }
    }

    /// Windowed arm: open for the first `open_millis` of every
    /// `period_millis`.
    pub fn window(period_millis: u64, open_millis: u64) -> RoutePredicate {
        RoutePredicate::Window {
            period_millis,
            open_millis,
        }
    }

    /// Conjunction.
    pub fn all(preds: Vec<RoutePredicate>) -> RoutePredicate {
        RoutePredicate::All(preds)
    }

    /// Disjunction.
    pub fn any(preds: Vec<RoutePredicate>) -> RoutePredicate {
        RoutePredicate::Any(preds)
    }

    /// Negation.
    pub fn negate(self) -> RoutePredicate {
        RoutePredicate::Not(Box::new(self))
    }

    /// Walk a nested field path down the value.
    fn lookup<'a>(value: &'a AdmValue, path: &[String]) -> Option<&'a AdmValue> {
        let mut cur = value;
        for seg in path {
            cur = cur.field(seg)?;
        }
        Some(cur)
    }

    /// Append the top-level field every leaf of the predicate reads (the
    /// head of its path). False when a leaf reads the record itself (an
    /// empty path), so no projection can serve the predicate.
    fn top_level_fields(&self, out: &mut Vec<String>) -> bool {
        match self {
            RoutePredicate::Compare { field, .. } | RoutePredicate::Exists { field } => {
                let Some(head) = field.first() else {
                    return false;
                };
                if !out.contains(head) {
                    out.push(head.clone());
                }
                true
            }
            RoutePredicate::All(ps) | RoutePredicate::Any(ps) => {
                ps.iter().all(|p| p.top_level_fields(out))
            }
            RoutePredicate::Not(p) => p.top_level_fields(out),
            RoutePredicate::Window { .. } => true,
        }
    }

    /// Does the predicate hold for `value` (generated at `gen_at`)?
    ///
    /// `value` is the record, or any projection of it that keeps the
    /// top-level fields the predicate reads ([`IngestPlan::route_fields`]).
    ///
    /// This is *the* evaluator: the routing operator, the bench
    /// expected-set computation and the proptests all call it, so runtime
    /// behaviour and test oracles cannot drift apart.
    pub fn matches(&self, value: &AdmValue, gen_at: Option<SimInstant>) -> bool {
        match self {
            RoutePredicate::Compare {
                field,
                op,
                value: rhs,
            } => match RoutePredicate::lookup(value, field) {
                Some(lhs) => op.holds(lhs.total_cmp(rhs)),
                None => false,
            },
            RoutePredicate::Exists { field } => RoutePredicate::lookup(value, field).is_some(),
            RoutePredicate::All(ps) => ps.iter().all(|p| p.matches(value, gen_at)),
            RoutePredicate::Any(ps) => ps.iter().any(|p| p.matches(value, gen_at)),
            RoutePredicate::Not(p) => !p.matches(value, gen_at),
            RoutePredicate::Window {
                period_millis,
                open_millis,
            } => match gen_at {
                Some(at) if *period_millis > 0 => (at.0 % period_millis) < *open_millis,
                _ => false,
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Sinks and routing modes
// ---------------------------------------------------------------------------

/// How arms are combined when several predicates could match one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Arms are evaluated in order and the first matching arm wins; an arm
    /// with no predicate is the catch-all `otherwise`. With an `otherwise`
    /// arm present the arms partition the stream (exhaustive and
    /// non-overlapping).
    #[default]
    FirstMatch,
    /// Every matching arm receives the record (replication); an arm with no
    /// predicate matches everything.
    Multicast,
}

/// One sink of a plan: a target dataset plus the routing arm and the
/// per-sink ingestion policy (with optional durability-knob overrides)
/// delivering into it.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkSpec {
    /// Target dataset name.
    pub dataset: String,
    /// The routing arm; `None` is the catch-all `otherwise` (first-match)
    /// or match-everything (multicast) arm.
    pub predicate: Option<RoutePredicate>,
    /// Ingestion-policy name (built-in or catalog-registered).
    pub policy: String,
    /// Per-sink policy parameter overrides (Table 4.1 keys, e.g.
    /// `at.least.once.enabled`, `max.spill.size.on.disk`).
    pub policy_params: BTreeMap<String, String>,
}

impl SinkSpec {
    /// A sink delivering every record reaching it into `dataset` under the
    /// `Basic` policy.
    pub fn to(dataset: impl Into<String>) -> SinkSpec {
        SinkSpec {
            dataset: dataset.into(),
            predicate: None,
            policy: "Basic".into(),
            policy_params: BTreeMap::new(),
        }
    }

    /// Attach the routing predicate of this arm.
    pub fn route(mut self, predicate: RoutePredicate) -> SinkSpec {
        self.predicate = Some(predicate);
        self
    }

    /// Mark this arm as the catch-all (`otherwise`) arm. A readability
    /// no-op: an arm without a predicate is already the catch-all.
    pub fn otherwise(mut self) -> SinkSpec {
        self.predicate = None;
        self
    }

    /// Choose the sink's ingestion policy.
    pub fn policy(mut self, name: impl Into<String>) -> SinkSpec {
        self.policy = name.into();
        self
    }

    /// Override one policy parameter for this sink only (durability knobs
    /// like `at.least.once.enabled` ride here).
    pub fn policy_param(mut self, key: impl Into<String>, value: impl Into<String>) -> SinkSpec {
        self.policy_params.insert(key.into(), value.into());
        self
    }
}

// ---------------------------------------------------------------------------
// The plan IR
// ---------------------------------------------------------------------------

/// What sources the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanSource {
    /// An external source through a registered adaptor.
    Adaptor {
        /// Adaptor alias in the `DatasourceAdapter` registry.
        alias: String,
        /// Adaptor configuration parameters.
        config: AdaptorConfig,
    },
    /// Another feed (the plan extends an existing cascade).
    Feed(String),
}

/// The typed ingestion-plan IR: source → UDF stages → routing → N sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPlan {
    /// Plan name — doubles as the head feed's name.
    pub name: String,
    /// The source.
    pub source: PlanSource,
    /// UDF names applied in order before routing.
    pub stages: Vec<String>,
    /// First-match or multicast arm combination.
    pub mode: RoutingMode,
    /// The sinks, in arm order.
    pub sinks: Vec<SinkSpec>,
}

impl IngestPlan {
    /// Structural validation: non-empty name, exactly one source, at least
    /// one sink, no duplicate sink datasets, and (first-match) no arm after
    /// the catch-all.
    pub fn validate(&self) -> PlanResult<()> {
        if self.name.trim().is_empty() {
            return Err(PlanError::EmptyName);
        }
        if self.sinks.is_empty() {
            return Err(PlanError::NoSinks(self.name.clone()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.sinks {
            if !seen.insert(s.dataset.clone()) {
                return Err(PlanError::DuplicateSink {
                    plan: self.name.clone(),
                    dataset: s.dataset.clone(),
                });
            }
        }
        if self.mode == RoutingMode::FirstMatch {
            if let Some(otherwise_at) = self.sinks.iter().position(|s| s.predicate.is_none()) {
                if let Some(after) = self.sinks.get(otherwise_at + 1) {
                    return Err(PlanError::UnreachableArm {
                        plan: self.name.clone(),
                        dataset: after.dataset.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Indices of the sinks a record routes to. First-match returns at most
    /// one index; multicast returns every matching arm. An empty result
    /// means the record matches no arm (dropped by the router, counted).
    pub fn route_record(&self, value: &AdmValue, gen_at: Option<SimInstant>) -> Vec<usize> {
        match self.mode {
            RoutingMode::FirstMatch => self
                .sinks
                .iter()
                .position(|s| {
                    s.predicate
                        .as_ref()
                        .map(|p| p.matches(value, gen_at))
                        .unwrap_or(true)
                })
                .into_iter()
                .collect(),
            RoutingMode::Multicast => self
                .sinks
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.predicate
                        .as_ref()
                        .map(|p| p.matches(value, gen_at))
                        .unwrap_or(true)
                })
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// The top-level fields the routing predicates read: routing a
    /// projection of a record onto these fields gives the same answer as
    /// routing the record. `None` when some predicate reads the record as a
    /// whole, so only the full value will do.
    pub fn route_fields(&self) -> Option<Vec<String>> {
        let mut fields = Vec::new();
        self.sinks
            .iter()
            .filter_map(|s| s.predicate.as_ref())
            .all(|p| p.top_level_fields(&mut fields))
            .then_some(fields)
    }

    /// True when the plan carries an `otherwise` arm (first-match) — the
    /// condition under which the arms partition the stream.
    pub fn has_otherwise(&self) -> bool {
        self.sinks.iter().any(|s| s.predicate.is_none())
    }

    /// A degenerate plan is a linear feed: exactly one sink and no routing
    /// predicate. The plan compiler asks this to decide whether the plan
    /// needs a route segment at all.
    pub fn is_degenerate(&self) -> bool {
        self.sinks.len() == 1 && self.sinks[0].predicate.is_none()
    }

    /// The name of the tail feed of the materialized UDF chain — the feed
    /// the routing stage (or, without one, the store stage) consumes.
    pub fn tail_feed_name(&self) -> String {
        if self.stages.len() > 1 {
            format!("{}#{}", self.name, self.stages.len())
        } else {
            self.name.clone()
        }
    }

    /// The symbolic joint id of sink `i`'s fan-out joint.
    pub fn sink_joint_id(&self, i: usize) -> String {
        format!("plan:{}:{}", self.name, self.sinks[i].dataset)
    }

    /// The metric label of sink `i` (`<plan>:<dataset>`, the `conn` label of
    /// the `plan.sink.*` family).
    pub fn sink_label(&self, i: usize) -> String {
        format!("{}:{}", self.name, self.sinks[i].dataset)
    }
}

// ---------------------------------------------------------------------------
// The fluent builder
// ---------------------------------------------------------------------------

/// Fluent construction of an [`IngestPlan`].
///
/// ```
/// use asterix_feeds::plan::{IngestPlanBuilder, RoutePredicate, SinkSpec};
///
/// let plan = IngestPlanBuilder::new("TweetPlan")
///     .adaptor("TweetGenAdaptor")
///     .param("datasource", "twitter:1")
///     .sink(
///         SinkSpec::to("USTweets")
///             .route(RoutePredicate::eq("country", "US"))
///             .policy("Spill"),
///     )
///     .sink(SinkSpec::to("RestTweets"))
///     .build()
///     .unwrap();
/// assert_eq!(plan.sinks.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct IngestPlanBuilder {
    name: String,
    adaptor: Option<String>,
    params: AdaptorConfig,
    parent: Option<String>,
    udfs: Vec<String>,
    mode: RoutingMode,
    sinks: Vec<SinkSpec>,
}

impl IngestPlanBuilder {
    /// Start defining a plan called `name`.
    pub fn new(name: impl Into<String>) -> IngestPlanBuilder {
        IngestPlanBuilder {
            name: name.into(),
            adaptor: None,
            params: AdaptorConfig::new(),
            parent: None,
            udfs: Vec::new(),
            mode: RoutingMode::FirstMatch,
            sinks: Vec::new(),
        }
    }

    /// Source the plan from the named adaptor; mutually exclusive with
    /// [`parent`](IngestPlanBuilder::parent).
    pub fn adaptor(mut self, alias: impl Into<String>) -> IngestPlanBuilder {
        self.adaptor = Some(alias.into());
        self
    }

    /// Add one adaptor configuration parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl Into<String>) -> IngestPlanBuilder {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Source the plan from another feed; mutually exclusive with
    /// [`adaptor`](IngestPlanBuilder::adaptor).
    pub fn parent(mut self, feed: impl Into<String>) -> IngestPlanBuilder {
        self.parent = Some(feed.into());
        self
    }

    /// Apply a UDF to every record before routing. May be called repeatedly
    /// to build a chain (materialized as secondary feeds by
    /// [`register`](IngestPlanBuilder::register)).
    pub fn udf(mut self, function: impl Into<String>) -> IngestPlanBuilder {
        self.udfs.push(function.into());
        self
    }

    /// Switch routing to multicast (every matching arm receives the
    /// record). Default is first-match.
    pub fn multicast(mut self) -> IngestPlanBuilder {
        self.mode = RoutingMode::Multicast;
        self
    }

    /// Add one sink arm (arm order is evaluation order in first-match
    /// routing).
    pub fn sink(mut self, sink: SinkSpec) -> IngestPlanBuilder {
        self.sinks.push(sink);
        self
    }

    fn validate_source(&self) -> PlanResult<()> {
        if self.name.trim().is_empty() {
            return Err(PlanError::EmptyName);
        }
        match (&self.adaptor, &self.parent) {
            (None, None) => Err(PlanError::NoSource(self.name.clone())),
            (Some(_), Some(_)) => Err(PlanError::TwoSources(self.name.clone())),
            (None, Some(_)) if !self.params.is_empty() => {
                Err(PlanError::ParamsOnSecondary(self.name.clone()))
            }
            _ => Ok(()),
        }
    }

    fn source(&self) -> PlanSource {
        match &self.adaptor {
            Some(alias) => PlanSource::Adaptor {
                alias: alias.clone(),
                config: self.params.clone(),
            },
            None => PlanSource::Feed(self.parent.clone().expect("validated")),
        }
    }

    fn head_kind(&self) -> FeedKind {
        match self.source() {
            PlanSource::Adaptor { alias, config } => FeedKind::Primary {
                adaptor: alias,
                config,
            },
            PlanSource::Feed(parent) => FeedKind::Secondary { parent },
        }
    }

    /// Validate and produce the plan IR (without touching any catalog).
    pub fn build(self) -> PlanResult<IngestPlan> {
        self.validate_source()?;
        let source = self.source();
        let plan = IngestPlan {
            name: self.name,
            source,
            stages: self.udfs,
            mode: self.mode,
            sinks: self.sinks,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Validate and produce a single [`FeedDef`]. Rejects UDF chains longer
    /// than one function, which a single definition cannot carry — use
    /// [`register_feeds`](IngestPlanBuilder::register_feeds).
    pub fn build_feed_def(self) -> PlanResult<FeedDef> {
        self.validate_source()?;
        if self.udfs.len() > 1 {
            return Err(PlanError::ChainNeedsRegister {
                plan: self.name.clone(),
                udfs: self.udfs.len(),
            });
        }
        let kind = self.head_kind();
        Ok(FeedDef {
            name: self.name,
            kind,
            udf: self.udfs.into_iter().next(),
        })
    }

    /// Register the plan's feed chain in `catalog` (the named head feed plus
    /// `<name>#2..#N` secondaries for a chain of N UDFs) and return the
    /// *tail* definition — the feed the routing or store stage consumes.
    pub fn register_feeds(&self, catalog: &FeedCatalog) -> PlanResult<FeedDef> {
        self.validate_source()?;
        let head = FeedDef {
            name: self.name.clone(),
            kind: self.head_kind(),
            udf: self.udfs.first().cloned(),
        };
        catalog.create_feed(head.clone())?;
        let mut tail = head;
        for (i, udf) in self.udfs.iter().enumerate().skip(1) {
            let link = FeedDef {
                name: format!("{}#{}", self.name, i + 1),
                kind: FeedKind::Secondary {
                    parent: tail.name.clone(),
                },
                udf: Some(udf.clone()),
            };
            catalog.create_feed(link.clone())?;
            tail = link;
        }
        Ok(tail)
    }

    /// Build the plan, register its feed chain and the plan itself in
    /// `catalog`, and return the plan.
    pub fn register(self, catalog: &FeedCatalog) -> PlanResult<IngestPlan> {
        let plan = self.clone().build()?;
        self.register_feeds(catalog)?;
        catalog.register_plan(plan.clone())?;
        Ok(plan)
    }

    /// Register in `catalog`, then compile and connect the plan through the
    /// controller: one store pipeline per sink, each with its own policy,
    /// flow control and at-least-once custody, behind a fan-out joint when
    /// the plan routes. Every plan connected this way enters the plan
    /// catalog — a routeless one-sink plan is no exception, so a plan name
    /// can be connected once. Returns the per-sink connection ids in arm
    /// order.
    pub fn connect(
        self,
        catalog: &FeedCatalog,
        controller: &FeedController,
    ) -> PlanResult<Vec<ConnectionId>> {
        let plan = self.register(catalog)?;
        controller.connect_plan(&plan).map_err(PlanError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::Udf;

    fn tweet(country: &str, followers: i64) -> AdmValue {
        AdmValue::record(vec![
            ("id", "1-1".into()),
            ("country", country.into()),
            (
                "user",
                AdmValue::record(vec![("followers_count", AdmValue::Int(followers))]),
            ),
        ])
    }

    fn three_sink_plan(mode: RoutingMode) -> IngestPlan {
        IngestPlan {
            name: "P".into(),
            source: PlanSource::Adaptor {
                alias: "TweetGenAdaptor".into(),
                config: AdaptorConfig::new(),
            },
            stages: vec![],
            mode,
            sinks: vec![
                SinkSpec::to("US").route(RoutePredicate::eq("country", "US")),
                SinkSpec::to("Popular").route(RoutePredicate::gt("user.followers_count", 1000)),
                SinkSpec::to("Rest"),
            ],
        }
    }

    #[test]
    fn first_match_routes_to_exactly_one_sink() {
        let plan = three_sink_plan(RoutingMode::FirstMatch);
        plan.validate().unwrap();
        assert_eq!(plan.route_record(&tweet("US", 5000), None), vec![0]);
        assert_eq!(plan.route_record(&tweet("DE", 5000), None), vec![1]);
        assert_eq!(plan.route_record(&tweet("DE", 10), None), vec![2]);
        assert!(plan.has_otherwise());
    }

    #[test]
    fn multicast_routes_to_every_matching_sink() {
        let plan = three_sink_plan(RoutingMode::Multicast);
        plan.validate().unwrap();
        // the unconditional arm matches everything in multicast
        assert_eq!(plan.route_record(&tweet("US", 5000), None), vec![0, 1, 2]);
        assert_eq!(plan.route_record(&tweet("DE", 10), None), vec![2]);
    }

    #[test]
    fn missing_fields_never_match_compare() {
        let p = RoutePredicate::gt("user.followers_count", 10);
        let rec = AdmValue::record(vec![("id", "x".into())]);
        assert!(!p.matches(&rec, None));
        assert!(!RoutePredicate::exists("user.lang").matches(&rec, None));
        assert!(RoutePredicate::exists("id").matches(&rec, None));
    }

    #[test]
    fn window_predicate_follows_gen_at() {
        let p = RoutePredicate::window(1000, 250);
        assert!(p.matches(&AdmValue::Null, Some(SimInstant(0))));
        assert!(p.matches(&AdmValue::Null, Some(SimInstant(1249))));
        assert!(!p.matches(&AdmValue::Null, Some(SimInstant(250))));
        assert!(!p.matches(&AdmValue::Null, None), "no timestamp, no match");
    }

    #[test]
    fn boolean_combinators_compose() {
        let p = RoutePredicate::all(vec![
            RoutePredicate::eq("country", "US"),
            RoutePredicate::gt("user.followers_count", 100).negate(),
        ]);
        assert!(p.matches(&tweet("US", 50), None));
        assert!(!p.matches(&tweet("US", 500), None));
        assert!(!p.matches(&tweet("DE", 50), None));
        let q = RoutePredicate::any(vec![
            RoutePredicate::eq("country", "US"),
            RoutePredicate::eq("country", "DE"),
        ]);
        assert!(q.matches(&tweet("DE", 0), None));
        assert!(!q.matches(&tweet("FR", 0), None));
    }

    #[test]
    fn validation_catches_structural_errors() {
        let mut plan = three_sink_plan(RoutingMode::FirstMatch);
        plan.name = " ".into();
        assert_eq!(plan.validate(), Err(PlanError::EmptyName));

        let mut plan = three_sink_plan(RoutingMode::FirstMatch);
        plan.sinks.clear();
        assert!(matches!(plan.validate(), Err(PlanError::NoSinks(_))));

        let mut plan = three_sink_plan(RoutingMode::FirstMatch);
        plan.sinks[1].dataset = "US".into();
        assert!(matches!(
            plan.validate(),
            Err(PlanError::DuplicateSink { .. })
        ));

        // an arm after otherwise is unreachable in first-match...
        let mut plan = three_sink_plan(RoutingMode::FirstMatch);
        plan.sinks
            .push(SinkSpec::to("Late").route(RoutePredicate::eq("country", "FR")));
        assert!(matches!(
            plan.validate(),
            Err(PlanError::UnreachableArm { .. })
        ));
        // ...but fine in multicast
        let mut plan = three_sink_plan(RoutingMode::Multicast);
        plan.sinks
            .push(SinkSpec::to("Late").route(RoutePredicate::eq("country", "FR")));
        plan.validate().unwrap();
    }

    #[test]
    fn builder_validates_sources() {
        assert_eq!(
            IngestPlanBuilder::new("").adaptor("A").build().unwrap_err(),
            PlanError::EmptyName
        );
        assert!(matches!(
            IngestPlanBuilder::new("P")
                .sink(SinkSpec::to("D"))
                .build()
                .unwrap_err(),
            PlanError::NoSource(_)
        ));
        assert!(matches!(
            IngestPlanBuilder::new("P")
                .adaptor("A")
                .parent("F")
                .sink(SinkSpec::to("D"))
                .build()
                .unwrap_err(),
            PlanError::TwoSources(_)
        ));
        assert!(matches!(
            IngestPlanBuilder::new("P")
                .parent("F")
                .param("k", "v")
                .sink(SinkSpec::to("D"))
                .build()
                .unwrap_err(),
            PlanError::ParamsOnSecondary(_)
        ));
    }

    #[test]
    fn builds_primary_and_secondary_defs() {
        let def = IngestPlanBuilder::new("TwitterFeed")
            .adaptor("TweetGenAdaptor")
            .param("datasource", "twitter:9000")
            .build_feed_def()
            .unwrap();
        assert_eq!(def.name, "TwitterFeed");
        match def.kind {
            FeedKind::Primary { adaptor, config } => {
                assert_eq!(adaptor, "TweetGenAdaptor");
                assert_eq!(config.get("datasource").unwrap(), "twitter:9000");
            }
            other => panic!("expected primary, got {other:?}"),
        }

        let def = IngestPlanBuilder::new("Child")
            .parent("TwitterFeed")
            .udf("addHashTags")
            .build_feed_def()
            .unwrap();
        assert!(matches!(def.kind, FeedKind::Secondary { parent } if parent == "TwitterFeed"));
        assert_eq!(def.udf.as_deref(), Some("addHashTags"));
    }

    #[test]
    fn invalid_combinations_fail_at_build() {
        let def = |b: IngestPlanBuilder| b.build_feed_def().unwrap_err();
        assert_eq!(
            def(IngestPlanBuilder::new("").adaptor("X")),
            PlanError::EmptyName
        );
        assert!(matches!(
            def(IngestPlanBuilder::new("F")),
            PlanError::NoSource(_)
        ));
        assert!(matches!(
            def(IngestPlanBuilder::new("F").adaptor("A").parent("P")),
            PlanError::TwoSources(_)
        ));
        assert!(matches!(
            def(IngestPlanBuilder::new("F").parent("P").param("k", "v")),
            PlanError::ParamsOnSecondary(_)
        ));
        assert!(matches!(
            def(IngestPlanBuilder::new("F").adaptor("A").udf("f").udf("g")),
            PlanError::ChainNeedsRegister { udfs: 2, .. }
        ));
    }

    #[test]
    fn register_materializes_udf_chains() {
        let catalog = FeedCatalog::new(asterix_adm::types::paper_registry());
        for udf in [Udf::add_hash_tags(), Udf::sentiment_analysis()] {
            catalog.create_function(udf).unwrap();
        }
        let tail = IngestPlanBuilder::new("TwitterFeed")
            .adaptor("TweetGenAdaptor")
            .param("datasource", "twitter:9000")
            .udf("addHashTags")
            .udf("tweetlib#sentimentAnalysis")
            .register_feeds(&catalog)
            .unwrap();
        assert_eq!(tail.name, "TwitterFeed#2");
        assert_eq!(
            catalog.joint_id_for(&tail.name).unwrap(),
            "TwitterFeed:addHashTags:tweetlib#sentimentAnalysis"
        );
    }

    /// `connect` is `register` + `connect_plan`: a plan without a sink is a
    /// typed error before anything is registered, and a routeless one-sink
    /// plan enters the plan catalog like any other — its name connects once.
    #[test]
    fn connect_needs_a_sink_and_registers_even_a_one_sink_plan() {
        use crate::controller::{ConnectionState, ControllerConfig};
        use asterix_hyracks::cluster::{Cluster, ClusterConfig};
        use asterix_storage::{Dataset, DatasetConfig};
        let catalog = FeedCatalog::new(asterix_adm::types::paper_registry());
        let cluster = Cluster::start(
            1,
            asterix_common::SimClock::fast(),
            ClusterConfig::default(),
        );
        let controller = FeedController::start(
            cluster.clone(),
            std::sync::Arc::clone(&catalog),
            ControllerConfig::default(),
        );
        let feed = |name: &str| {
            IngestPlanBuilder::new(name)
                .adaptor("TweetGenAdaptor")
                .param("datasource", "plan-connect:9000")
        };
        let err = feed("F").connect(&catalog, &controller).unwrap_err();
        assert_eq!(err, PlanError::NoSinks("F".into()));
        assert!(catalog.feed("F").is_err(), "nothing registered on error");

        let dataset = Dataset::create(DatasetConfig {
            name: "D".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![asterix_common::NodeId(0)],
        })
        .unwrap();
        catalog.register_dataset(std::sync::Arc::new(dataset));
        let ids = feed("F")
            .sink(SinkSpec::to("D").policy("Spill"))
            .connect(&catalog, &controller)
            .unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(controller.connection_state(ids[0]), ConnectionState::Active);
        assert!(catalog.plan("F").unwrap().is_degenerate());
        assert!(
            controller
                .segments()
                .iter()
                .all(|s| !s.key.starts_with("route:")),
            "a routeless plan compiles without a route segment"
        );
        let again = feed("F")
            .sink(SinkSpec::to("D"))
            .connect(&catalog, &controller);
        assert!(matches!(again, Err(PlanError::Metadata(_))), "{again:?}");
        controller.shutdown();
        cluster.shutdown();
    }

    #[test]
    fn degenerate_and_tail_naming() {
        let plan = IngestPlanBuilder::new("F")
            .adaptor("A")
            .sink(SinkSpec::to("D"))
            .build()
            .unwrap();
        assert!(plan.is_degenerate());
        assert_eq!(plan.tail_feed_name(), "F");

        let plan = IngestPlanBuilder::new("F")
            .adaptor("A")
            .udf("f")
            .udf("g")
            .udf("h")
            .sink(SinkSpec::to("D"))
            .build()
            .unwrap();
        assert_eq!(plan.tail_feed_name(), "F#3");
        assert_eq!(plan.sink_joint_id(0), "plan:F:D");
        assert_eq!(plan.sink_label(0), "F:D");
    }

    #[test]
    fn plan_error_round_trips_policy_errors() {
        let e = IngestError::PolicyUnknownParam("frobnicate".into());
        let p: PlanError = e.clone().into();
        assert_eq!(p, PlanError::UnknownPolicyParam("frobnicate".into()));
        assert_eq!(IngestError::from(p), e);

        let e = IngestError::PolicyInvalidValue {
            key: "k".into(),
            value: "v".into(),
            expected: "bool".into(),
        };
        let p: PlanError = e.clone().into();
        assert_eq!(IngestError::from(p), e);

        // structural plan errors surface as metadata errors downstream
        let m: IngestError = PlanError::EmptyName.into();
        assert!(matches!(m, IngestError::Metadata(_)));
    }
}
