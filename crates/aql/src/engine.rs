//! The statement executor: AQL in, effects on the cluster out.
//!
//! [`AsterixEngine`] owns the catalog and the feed controller and executes
//! parsed statements against them. Two execution paths matter for the
//! paper's evaluation:
//!
//! * **`insert into dataset`** — compiled into a Hyracks job (source →
//!   hash-partition → store), scheduled, executed, and cleaned up *per
//!   statement*; those per-statement overheads are exactly what Table 5.1
//!   measures against continuous feeds;
//! * **`connect feed`** — handed to the Central Feed Manager, which builds
//!   the long-lived ingestion pipeline once (after the §5.3 rewriting,
//!   available via [`AsterixEngine::rewrite_connect`] for inspection).

use crate::ast::{Expr, Statement, TypeExpr};
use crate::eval::{eval, eval_flwor, Env, EvalContext};
use crate::rewrite::{self, ChainStep};
use crate::route::compile_route_predicate;
use asterix_adm::{payload_from_value, AdmType, AdmValue, Field, RecordType};
use asterix_common::sync::Mutex;
use asterix_common::{DataFrame, IngestError, IngestResult, MetricsRegistry, NodeId, Record};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ConnectionId, ControllerConfig, FeedController};
use asterix_feeds::metrics::FeedMetrics;
use asterix_feeds::ops::{new_soft_failure_log, store_key_fn, StoreDesc};
use asterix_feeds::plan::{IngestPlanBuilder, SinkSpec};
use asterix_feeds::policy::IngestionPolicy;
use asterix_feeds::udf::{Udf, UdfKind};
use asterix_hyracks::cluster::Cluster;
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, TaskContext};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor};
use asterix_hyracks::operator::{FrameWriter, OperatorRuntime, VecSource};
use asterix_storage::secondary::IndexKind;
use asterix_storage::{Dataset, DatasetConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug)]
pub enum ExecOutcome {
    /// DDL executed; human-readable description.
    Done(String),
    /// A feed was connected.
    Connected(ConnectionId),
    /// A routed plan was connected: one connection per sink, in arm order.
    ConnectedPlan(Vec<ConnectionId>),
    /// An insert completed; number of records inserted.
    Inserted(usize),
    /// A query produced rows.
    Rows(Vec<AdmValue>),
}

/// Shared state the engine's UDF closures capture.
struct EngineShared {
    /// AQL function bodies: name → (parameter, body).
    aql_bodies: Mutex<HashMap<String, (String, Expr)>>,
}

struct BodiesContext<'a> {
    shared: &'a EngineShared,
    catalog: Option<&'a FeedCatalog>,
}

impl EvalContext for BodiesContext<'_> {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        match self.catalog {
            Some(c) => c.dataset(name),
            None => Err(IngestError::Metadata(format!(
                "dataset '{name}' not reachable from a feed UDF"
            ))),
        }
    }

    fn call_udf(&self, name: &str, arg: &AdmValue) -> IngestResult<AdmValue> {
        let body = self.shared.aql_bodies.lock().get(name).cloned();
        match body {
            Some((param, expr)) => {
                let mut env = Env::new();
                env.insert(param, arg.clone());
                let out = eval(&expr, &mut env, self)?;
                Ok(unwrap_singleton(out))
            }
            None => match self.catalog {
                Some(c) => c.function(name)?.apply(arg),
                None => Err(IngestError::Metadata(format!("unknown function '{name}'"))),
            },
        }
    }
}

/// A UDF body written as a FLWOR with a single return evaluates to a
/// one-element list; unwrap it to the record itself.
fn unwrap_singleton(v: AdmValue) -> AdmValue {
    match v {
        AdmValue::OrderedList(mut items) if items.len() == 1 => items.pop().unwrap(),
        other => other,
    }
}

/// The AQL engine.
pub struct AsterixEngine {
    cluster: Cluster,
    catalog: Arc<FeedCatalog>,
    controller: Arc<FeedController>,
    shared: Arc<EngineShared>,
    dataverse: Mutex<String>,
    /// Per-record busy-spin applied by datasets created through this engine
    /// (capacity knob for experiments).
    pub dataset_insert_spin: Mutex<u64>,
}

impl AsterixEngine {
    /// Start an engine over `cluster` with an empty catalog (plus built-in
    /// adaptors and policies).
    pub fn start(cluster: Cluster, controller_cfg: ControllerConfig) -> Arc<AsterixEngine> {
        let catalog = FeedCatalog::new(asterix_adm::TypeRegistry::new());
        let controller =
            FeedController::start(cluster.clone(), Arc::clone(&catalog), controller_cfg);
        Arc::new(AsterixEngine {
            cluster,
            catalog,
            controller,
            shared: Arc::new(EngineShared {
                aql_bodies: Mutex::new(HashMap::new()),
            }),
            dataverse: Mutex::new("Default".into()),
            dataset_insert_spin: Mutex::new(0),
        })
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Arc<FeedCatalog> {
        &self.catalog
    }

    /// The feed controller.
    pub fn controller(&self) -> &Arc<FeedController> {
        &self.controller
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The current dataverse (`use dataverse` target).
    pub fn dataverse(&self) -> String {
        self.dataverse.lock().clone()
    }

    /// Register an external ("Java") UDF programmatically — the paper's
    /// "install a library function" path (Appendix A).
    pub fn install_external_function(&self, udf: Udf) -> IngestResult<()> {
        self.catalog.create_function(udf)
    }

    /// Parse and execute a batch of statements.
    pub fn execute(&self, text: &str) -> IngestResult<Vec<ExecOutcome>> {
        let stmts = crate::parser::parse_statements(text)?;
        stmts.into_iter().map(|s| self.execute_stmt(s)).collect()
    }

    /// Execute one pre-parsed statement.
    pub fn execute_stmt(&self, stmt: Statement) -> IngestResult<ExecOutcome> {
        match stmt {
            Statement::UseDataverse(name) => {
                *self.dataverse.lock() = name.clone();
                Ok(ExecOutcome::Done(format!("using dataverse {name}")))
            }
            Statement::CreateType { name, open, fields } => {
                let fields = fields
                    .into_iter()
                    .map(|f| {
                        Ok(Field {
                            name: f.name,
                            ty: type_expr_to_adm(&f.ty)?,
                            optional: f.optional,
                        })
                    })
                    .collect::<IngestResult<Vec<_>>>()?;
                self.catalog.types().register(RecordType {
                    name: name.clone(),
                    fields,
                    open,
                });
                Ok(ExecOutcome::Done(format!("type {name} created")))
            }
            Statement::CreateDataset {
                name,
                datatype,
                primary_key,
            } => {
                if self.catalog.types().get(&datatype).is_none() {
                    return Err(IngestError::Metadata(format!("unknown type '{datatype}'")));
                }
                let nodegroup: Vec<NodeId> =
                    self.cluster.alive_nodes().iter().map(|n| n.id()).collect();
                let ds = Dataset::create_with(
                    DatasetConfig {
                        name: name.clone(),
                        datatype,
                        primary_key,
                        nodegroup,
                    },
                    *self.dataset_insert_spin.lock(),
                )?;
                self.catalog.register_dataset(Arc::new(ds));
                Ok(ExecOutcome::Done(format!("dataset {name} created")))
            }
            Statement::CreateIndex {
                name,
                dataset,
                field,
                rtree,
            } => {
                let ds = self.catalog.dataset(&dataset)?;
                ds.create_index(
                    name.clone(),
                    field,
                    if rtree {
                        IndexKind::RTree
                    } else {
                        IndexKind::BTree
                    },
                )?;
                Ok(ExecOutcome::Done(format!("index {name} created")))
            }
            Statement::CreateFeed {
                name,
                adaptor,
                params,
                apply,
                route,
                multicast,
            } => {
                let mut b = IngestPlanBuilder::new(name.clone()).adaptor(adaptor);
                for (k, v) in params {
                    b = b.param(k, v);
                }
                if let Some(f) = apply {
                    b = b.udf(f);
                }
                if route.is_empty() {
                    // plain single-sink feed: register the head definition;
                    // the target dataset arrives later via `connect feed`
                    b.register_feeds(&self.catalog)?;
                    return Ok(ExecOutcome::Done(format!("feed {name} created")));
                }
                if multicast {
                    b = b.multicast();
                }
                for arm in route {
                    let mut sink = SinkSpec::to(arm.dataset);
                    if let Some(pred) = &arm.predicate {
                        sink = sink.route(compile_route_predicate(pred)?);
                    }
                    if let Some(p) = arm.policy {
                        sink = sink.policy(p);
                    }
                    for (k, v) in arm.policy_params {
                        sink = sink.policy_param(k, v);
                    }
                    b = b.sink(sink);
                }
                let plan = b.register(&self.catalog)?;
                Ok(ExecOutcome::Done(format!(
                    "feed {name} created routing to {} sinks",
                    plan.sinks.len()
                )))
            }
            Statement::CreateSecondaryFeed {
                name,
                parent,
                apply,
            } => {
                let mut b = IngestPlanBuilder::new(name.clone()).parent(parent);
                if let Some(f) = apply {
                    b = b.udf(f);
                }
                b.register_feeds(&self.catalog)?;
                Ok(ExecOutcome::Done(format!("secondary feed {name} created")))
            }
            Statement::CreateFunction { name, param, body } => {
                self.shared
                    .aql_bodies
                    .lock()
                    .insert(name.clone(), (param.clone(), body.clone()));
                // register an executable UDF with the feeds catalog: the
                // body is evaluated through the engine's evaluator
                let shared = Arc::clone(&self.shared);
                let fn_name = name.clone();
                let udf = Udf::aql(name.clone(), move |record| {
                    let body =
                        shared
                            .aql_bodies
                            .lock()
                            .get(&fn_name)
                            .cloned()
                            .ok_or_else(|| {
                                IngestError::Metadata(format!("function '{fn_name}' dropped"))
                            })?;
                    let ctx = BodiesContext {
                        shared: &shared,
                        catalog: None,
                    };
                    let mut env = Env::new();
                    env.insert(body.0, record.clone());
                    let out = eval(&body.1, &mut env, &ctx)
                        .map_err(|e| IngestError::soft(e.to_string()))?;
                    Ok(unwrap_singleton(out))
                });
                self.catalog.create_function(udf)?;
                Ok(ExecOutcome::Done(format!("function {name} created")))
            }
            Statement::CreatePolicy { name, base, params } => {
                self.catalog.create_policy(&name, &base, &params)?;
                Ok(ExecOutcome::Done(format!(
                    "ingestion policy {name} created"
                )))
            }
            Statement::ConnectFeed {
                feed,
                dataset,
                policy,
            } => {
                let id = self.controller.connect_feed(&feed, &dataset, &policy)?;
                Ok(ExecOutcome::Connected(id))
            }
            Statement::ConnectPlan { feed } => {
                let plan = self.catalog.plan(&feed)?;
                let ids = self.controller.connect_plan(&plan)?;
                Ok(ExecOutcome::ConnectedPlan(ids))
            }
            Statement::DisconnectFeed { feed, dataset } => {
                self.controller.disconnect_feed(&feed, &dataset)?;
                Ok(ExecOutcome::Done(format!(
                    "feed {feed} disconnected from {dataset}"
                )))
            }
            Statement::DropFeed(name) => {
                self.catalog.drop_feed(&name)?;
                Ok(ExecOutcome::Done(format!("feed {name} dropped")))
            }
            Statement::Insert { dataset, query } => {
                let n = self.execute_insert(&dataset, &query)?;
                Ok(ExecOutcome::Inserted(n))
            }
            Statement::Query(expr) => {
                let ctx = BodiesContext {
                    shared: &self.shared,
                    catalog: Some(&self.catalog),
                };
                let rows = match &expr {
                    Expr::Flwor { .. } => eval_flwor(&expr, &mut Env::new(), &ctx)?,
                    other => vec![eval(other, &mut Env::new(), &ctx)?],
                };
                Ok(ExecOutcome::Rows(rows))
            }
        }
    }

    /// Execute an insert statement as a Hyracks job (compile → schedule →
    /// run → cleanup): the §5.7.1 batch-insert path.
    fn execute_insert(&self, dataset: &str, query: &Expr) -> IngestResult<usize> {
        let ds = self.catalog.dataset(dataset)?;
        let ctx = BodiesContext {
            shared: &self.shared,
            catalog: Some(&self.catalog),
        };
        let rows = match query {
            Expr::Flwor { .. } => eval_flwor(query, &mut Env::new(), &ctx)?,
            other => match eval(other, &mut Env::new(), &ctx)? {
                AdmValue::OrderedList(items) => items,
                single => vec![single],
            },
        };
        let n = rows.len();
        // records → frames; each row is encoded once and the store job takes
        // the bytes as they are
        let mut builder = asterix_common::FrameBuilder::default();
        let mut frames = Vec::new();
        for row in rows {
            if let Some(f) = builder.push(Record::untracked(0, payload_from_value(row))) {
                frames.push(f);
            }
        }
        if let Some(f) = builder.flush() {
            frames.push(f);
        }
        // one Hyracks job per statement
        let registry = MetricsRegistry::new();
        let metrics = FeedMetrics::registered(&registry, "insert", self.cluster.clock().clone());
        let parse_calls = registry.counter("feed.parse_calls", &[("conn", "insert")]);
        let mut policy = IngestionPolicy::basic();
        policy.recover_soft_failure = false; // inserts fail loudly
        let mut job = JobSpec::new(format!("insert:{dataset}"));
        let src = job.add_operator(Box::new(InsertSourceDesc { frames }));
        let store = job.add_operator(Box::new(StoreDesc {
            dataset: Arc::clone(&ds),
            registry: Some(Arc::clone(self.catalog.types())),
            feed: asterix_common::FeedId(0), // an insert belongs to no feed
            policy,
            metrics,
            log: new_soft_failure_log(),
            log_dataset: None,
            ack: None,
        }));
        job.connect(
            src,
            store,
            ConnectorSpec::MNHashPartition(store_key_fn(
                ds.config.primary_key.clone(),
                parse_calls,
            )),
        );
        let handle = run_job(&self.cluster, job)?;
        handle.wait_ok()?;
        Ok(n)
    }

    /// The §5.3 rewriting of a `connect feed` statement, for inspection:
    /// returns the equivalent insert statement (Listings 5.3 / 5.7 / 5.10).
    pub fn rewrite_connect(&self, feed: &str, dataset: &str) -> IngestResult<Statement> {
        let lineage = self.catalog.lineage(feed)?;
        let source_feed = lineage[0].name.clone();
        let bodies = self.shared.aql_bodies.lock();
        let chain: Vec<ChainStep> = lineage
            .iter()
            .filter_map(|f| f.udf.clone())
            .map(|fn_name| {
                let inline = bodies.get(&fn_name).cloned();
                // external functions (not AQL-defined) stay opaque
                let inline = match self.catalog.function(&fn_name) {
                    Ok(u) if u.kind == UdfKind::External => None,
                    _ => inline,
                };
                ChainStep {
                    name: fn_name,
                    inline,
                }
            })
            .collect();
        rewrite::connect_to_insert(&source_feed, dataset, &chain)
    }
}

impl std::fmt::Debug for AsterixEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AsterixEngine({:?})", self.catalog)
    }
}

fn type_expr_to_adm(te: &TypeExpr) -> IngestResult<AdmType> {
    Ok(match te {
        TypeExpr::Named(n) => match n.to_ascii_lowercase().as_str() {
            "string" => AdmType::String,
            "int8" | "int16" | "int32" | "int64" | "int" => AdmType::Int,
            "float" | "double" => AdmType::Double,
            "boolean" => AdmType::Boolean,
            "point" => AdmType::Point,
            "datetime" => AdmType::DateTime,
            "any" => AdmType::Any,
            _ => AdmType::Named(n.clone()),
        },
        TypeExpr::OrderedList(inner) => AdmType::OrderedList(Box::new(type_expr_to_adm(inner)?)),
        TypeExpr::UnorderedList(inner) => {
            AdmType::UnorderedList(Box::new(type_expr_to_adm(inner)?))
        }
    })
}

/// Source descriptor feeding a fixed batch of frames (insert statements).
struct InsertSourceDesc {
    frames: Vec<DataFrame>,
}

impl OperatorDescriptor for InsertSourceDesc {
    fn name(&self) -> String {
        "InsertSource".into()
    }

    fn constraints(&self) -> Constraint {
        Constraint::Count(1)
    }

    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Source(Box::new(VecSource::new(
            self.frames.clone(),
            output,
        ))))
    }
}
