//! Feeds metadata (§5.1).
//!
//! "AsterixDB stores Metadata natively as a collection of AsterixDB
//! datasets": the `Feeds` dataset (feed definitions), the
//! `DatasourceAdapter` dataset (adaptor factories, pre-populated with the
//! built-ins), the `Function` dataset (UDFs) and ingestion policies. The
//! [`FeedCatalog`] is that metadata plus the dataset handles the feeds
//! machinery needs to target.

use crate::adaptor::{AdaptorConfig, AdaptorRegistry};
use crate::plan::{IngestPlan, PlanError, PlanResult};
use crate::policy::IngestionPolicy;
use crate::udf::Udf;
use asterix_adm::TypeRegistry;
use asterix_common::sync::RwLock;
use asterix_common::{FeedId, IngestError, IngestResult};
use asterix_storage::Dataset;
use std::collections::HashMap;
use std::sync::Arc;

/// Is the feed sourced externally or derived from another feed?
#[derive(Debug, Clone, PartialEq)]
pub enum FeedKind {
    /// `create feed F using <adaptor>(...)`.
    Primary {
        /// Adaptor alias.
        adaptor: String,
        /// Adaptor configuration parameters.
        config: AdaptorConfig,
    },
    /// `create secondary feed F from feed P`.
    Secondary {
        /// Parent feed name.
        parent: String,
    },
}

/// A feed definition (one record of the `Feeds` metadata dataset).
#[derive(Debug, Clone)]
pub struct FeedDef {
    /// Feed name.
    pub name: String,
    /// Primary or secondary.
    pub kind: FeedKind,
    /// `apply function <udf>` — at most one per feed.
    pub udf: Option<String>,
}

#[derive(Default)]
struct CatalogState {
    feeds: HashMap<String, FeedDef>,
    feed_ids: HashMap<String, FeedId>,
    next_feed_id: u64,
    functions: HashMap<String, Udf>,
    policies: HashMap<String, IngestionPolicy>,
    datasets: HashMap<String, Arc<Dataset>>,
    plans: HashMap<String, IngestPlan>,
}

/// The feeds metadata catalog.
pub struct FeedCatalog {
    adaptors: AdaptorRegistry,
    types: Arc<TypeRegistry>,
    state: RwLock<CatalogState>,
}

impl FeedCatalog {
    /// Catalog pre-populated with built-in adaptors and policies, plus the
    /// given datatype registry.
    pub fn new(types: TypeRegistry) -> Arc<FeedCatalog> {
        let cat = FeedCatalog {
            adaptors: AdaptorRegistry::with_builtins(),
            types: Arc::new(types),
            state: RwLock::new(CatalogState::default()),
        };
        {
            let mut st = cat.state.write();
            for p in [
                IngestionPolicy::basic(),
                IngestionPolicy::spill(),
                IngestionPolicy::discard(),
                IngestionPolicy::throttle(),
                IngestionPolicy::elastic(),
                IngestionPolicy::fault_tolerant(),
            ] {
                st.policies.insert(p.name.clone(), p);
            }
        }
        Arc::new(cat)
    }

    /// The adaptor registry (DatasourceAdapter metadata).
    pub fn adaptors(&self) -> &AdaptorRegistry {
        &self.adaptors
    }

    /// The datatype registry.
    pub fn types(&self) -> &Arc<TypeRegistry> {
        &self.types
    }

    // -- feeds --------------------------------------------------------------

    /// `create feed` / `create secondary feed`. Validates references.
    pub fn create_feed(&self, def: FeedDef) -> IngestResult<()> {
        match &def.kind {
            FeedKind::Primary { adaptor, .. } => {
                self.adaptors.get(adaptor)?;
            }
            FeedKind::Secondary { parent } => {
                if !self.state.read().feeds.contains_key(parent) {
                    return Err(IngestError::Metadata(format!(
                        "parent feed '{parent}' does not exist"
                    )));
                }
            }
        }
        if let Some(udf) = &def.udf {
            if !self.state.read().functions.contains_key(udf) {
                return Err(IngestError::Metadata(format!(
                    "function '{udf}' does not exist"
                )));
            }
        }
        let mut st = self.state.write();
        if st.feeds.contains_key(&def.name) {
            return Err(IngestError::Metadata(format!(
                "feed '{}' already exists",
                def.name
            )));
        }
        // catalog-assigned numeric identity, starting at 1 so FeedId(0) can
        // keep meaning "unknown" in error paths
        st.next_feed_id += 1;
        let id = FeedId(st.next_feed_id);
        st.feed_ids.insert(def.name.clone(), id);
        st.feeds.insert(def.name.clone(), def);
        Ok(())
    }

    /// The catalog-assigned id of a feed.
    pub fn feed_id(&self, name: &str) -> IngestResult<FeedId> {
        self.state
            .read()
            .feed_ids
            .get(name)
            .copied()
            .ok_or_else(|| IngestError::Metadata(format!("unknown feed '{name}'")))
    }

    /// Look up a feed.
    pub fn feed(&self, name: &str) -> IngestResult<FeedDef> {
        self.state
            .read()
            .feeds
            .get(name)
            .cloned()
            .ok_or_else(|| IngestError::Metadata(format!("unknown feed '{name}'")))
    }

    /// `drop feed`.
    pub fn drop_feed(&self, name: &str) -> IngestResult<()> {
        // refuse while children reference it
        let st = self.state.read();
        for f in st.feeds.values() {
            if let FeedKind::Secondary { parent } = &f.kind {
                if parent == name {
                    return Err(IngestError::Metadata(format!(
                        "feed '{name}' has dependent feed '{}'",
                        f.name
                    )));
                }
            }
        }
        drop(st);
        self.state
            .write()
            .feeds
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| IngestError::Metadata(format!("unknown feed '{name}'")))
    }

    /// The ancestry chain root-first: the primary feed at the root, then
    /// each descendant down to (and including) `name`.
    pub fn lineage(&self, name: &str) -> IngestResult<Vec<FeedDef>> {
        let mut chain = vec![self.feed(name)?];
        let mut guard = 0;
        while let FeedKind::Secondary { parent } = &chain.last().unwrap().kind {
            chain.push(self.feed(parent)?);
            guard += 1;
            if guard > 64 {
                return Err(IngestError::Metadata(format!(
                    "feed '{name}' lineage is cyclic"
                )));
            }
        }
        chain.reverse();
        Ok(chain)
    }

    /// The symbolic joint id for a feed: `<root>` when the chain applies no
    /// functions, else `<root>:f1:...:fN` (§5.3.1).
    pub fn joint_id_for(&self, name: &str) -> IngestResult<String> {
        let lineage = self.lineage(name)?;
        let root = &lineage[0].name;
        let fns: Vec<&str> = lineage.iter().filter_map(|f| f.udf.as_deref()).collect();
        Ok(if fns.is_empty() {
            root.clone()
        } else {
            format!("{root}:{}", fns.join(":"))
        })
    }

    /// All registered feeds.
    pub fn feed_names(&self) -> Vec<String> {
        self.state.read().feeds.keys().cloned().collect()
    }

    // -- functions ----------------------------------------------------------

    /// `create function` / install an external library function.
    pub fn create_function(&self, udf: Udf) -> IngestResult<()> {
        let mut st = self.state.write();
        if st.functions.contains_key(&udf.name) {
            return Err(IngestError::Metadata(format!(
                "function '{}' already exists",
                udf.name
            )));
        }
        st.functions.insert(udf.name.clone(), udf);
        Ok(())
    }

    /// Look up a function.
    pub fn function(&self, name: &str) -> IngestResult<Udf> {
        self.state
            .read()
            .functions
            .get(name)
            .cloned()
            .ok_or_else(|| IngestError::Metadata(format!("unknown function '{name}'")))
    }

    // -- policies -----------------------------------------------------------

    /// `create ingestion policy <name> from policy <base> (params...)`.
    pub fn create_policy(
        &self,
        name: &str,
        base: &str,
        params: &std::collections::BTreeMap<String, String>,
    ) -> IngestResult<IngestionPolicy> {
        let base_policy = self.policy(base)?;
        let p = base_policy.extend(name, params)?;
        self.state
            .write()
            .policies
            .insert(name.to_string(), p.clone());
        Ok(p)
    }

    /// Resolve a plan sink's policy name + inline parameter overrides into an
    /// [`IngestionPolicy`] (an override set derives a connection-private
    /// policy named `<policy>@<dataset>`).
    pub fn sink_policy(&self, sink: &crate::plan::SinkSpec) -> IngestResult<IngestionPolicy> {
        let base = self.policy(&sink.policy)?;
        if sink.policy_params.is_empty() {
            return Ok(base);
        }
        let name = format!("{}@{}", sink.policy, sink.dataset);
        base.extend(name, &sink.policy_params)
    }

    /// Look up a policy (built-in or custom).
    pub fn policy(&self, name: &str) -> IngestResult<IngestionPolicy> {
        if let Some(p) = self.state.read().policies.get(name) {
            return Ok(p.clone());
        }
        IngestionPolicy::builtin(name)
            .ok_or_else(|| IngestError::Metadata(format!("unknown policy '{name}'")))
    }

    // -- ingestion plans ----------------------------------------------------

    /// Register a validated ingestion plan (one record of the notional
    /// `IngestionPlans` metadata dataset). The plan's feed chain must
    /// already exist; `IngestPlanBuilder::register` does both.
    pub fn register_plan(&self, plan: IngestPlan) -> PlanResult<()> {
        plan.validate()?;
        let mut st = self.state.write();
        if st.plans.contains_key(&plan.name) {
            return Err(PlanError::Metadata(format!(
                "plan '{}' already exists",
                plan.name
            )));
        }
        st.plans.insert(plan.name.clone(), plan);
        Ok(())
    }

    /// Look up a registered ingestion plan.
    pub fn plan(&self, name: &str) -> PlanResult<IngestPlan> {
        self.state
            .read()
            .plans
            .get(name)
            .cloned()
            .ok_or_else(|| PlanError::Metadata(format!("unknown plan '{name}'")))
    }

    /// Registered plan names.
    pub fn plan_names(&self) -> Vec<String> {
        self.state.read().plans.keys().cloned().collect()
    }

    // -- datasets -----------------------------------------------------------

    /// Register a dataset as a feed target.
    pub fn register_dataset(&self, dataset: Arc<Dataset>) {
        self.state
            .write()
            .datasets
            .insert(dataset.config.name.clone(), dataset);
    }

    /// Look up a dataset.
    pub fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        self.state
            .read()
            .datasets
            .get(name)
            .cloned()
            .ok_or_else(|| IngestError::Metadata(format!("unknown dataset '{name}'")))
    }

    /// Registered dataset names.
    pub fn dataset_names(&self) -> Vec<String> {
        self.state.read().datasets.keys().cloned().collect()
    }
}

impl std::fmt::Debug for FeedCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.read();
        write!(
            f,
            "FeedCatalog({} feeds, {} functions, {} policies, {} datasets)",
            st.feeds.len(),
            st.functions.len(),
            st.policies.len(),
            st.datasets.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::types::paper_registry;

    fn catalog() -> Arc<FeedCatalog> {
        FeedCatalog::new(paper_registry())
    }

    fn primary(name: &str, udf: Option<&str>) -> FeedDef {
        let mut b = crate::plan::IngestPlanBuilder::new(name)
            .adaptor("TweetGenAdaptor")
            .param("datasource", "x:1");
        if let Some(u) = udf {
            b = b.udf(u);
        }
        b.build_feed_def().unwrap()
    }

    fn secondary(name: &str, parent: &str, udf: Option<&str>) -> FeedDef {
        let mut b = crate::plan::IngestPlanBuilder::new(name).parent(parent);
        if let Some(u) = udf {
            b = b.udf(u);
        }
        b.build_feed_def().unwrap()
    }

    #[test]
    fn create_and_lookup_feed() {
        let c = catalog();
        c.create_feed(primary("TwitterFeed", None)).unwrap();
        assert_eq!(c.feed("TwitterFeed").unwrap().name, "TwitterFeed");
        assert!(c.feed("Nope").is_err());
        assert!(c.create_feed(primary("TwitterFeed", None)).is_err(), "dup");
    }

    #[test]
    fn feeds_get_distinct_nonzero_ids() {
        let c = catalog();
        c.create_feed(primary("A", None)).unwrap();
        c.create_feed(primary("B", None)).unwrap();
        let a = c.feed_id("A").unwrap();
        let b = c.feed_id("B").unwrap();
        assert_ne!(a, FeedId(0), "0 is reserved for 'unknown'");
        assert_ne!(a, b);
        assert!(c.feed_id("Nope").is_err());
    }

    #[test]
    fn unknown_adaptor_or_function_rejected() {
        let c = catalog();
        let mut bad = primary("F", None);
        bad.kind = FeedKind::Primary {
            adaptor: "CNNAdaptor".into(),
            config: AdaptorConfig::new(),
        };
        assert!(c.create_feed(bad).is_err());
        assert!(c.create_feed(primary("F", Some("missingFn"))).is_err());
    }

    #[test]
    fn secondary_requires_parent() {
        let c = catalog();
        assert!(c.create_feed(secondary("S", "P", None)).is_err());
        c.create_feed(primary("P", None)).unwrap();
        c.create_feed(secondary("S", "P", None)).unwrap();
    }

    #[test]
    fn lineage_and_joint_ids() {
        let c = catalog();
        c.create_function(Udf::add_hash_tags()).unwrap();
        c.create_function(Udf::sentiment_analysis()).unwrap();
        c.create_feed(primary("TwitterFeed", None)).unwrap();
        c.create_feed(secondary(
            "ProcessedTwitterFeed",
            "TwitterFeed",
            Some("addHashTags"),
        ))
        .unwrap();
        c.create_feed(secondary(
            "SentimentFeed",
            "ProcessedTwitterFeed",
            Some("tweetlib#sentimentAnalysis"),
        ))
        .unwrap();

        let lineage = c.lineage("SentimentFeed").unwrap();
        let names: Vec<&str> = lineage.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["TwitterFeed", "ProcessedTwitterFeed", "SentimentFeed"]
        );
        assert_eq!(c.joint_id_for("TwitterFeed").unwrap(), "TwitterFeed");
        assert_eq!(
            c.joint_id_for("ProcessedTwitterFeed").unwrap(),
            "TwitterFeed:addHashTags"
        );
        assert_eq!(
            c.joint_id_for("SentimentFeed").unwrap(),
            "TwitterFeed:addHashTags:tweetlib#sentimentAnalysis"
        );
    }

    #[test]
    fn drop_feed_refuses_with_children() {
        let c = catalog();
        c.create_feed(primary("P", None)).unwrap();
        c.create_feed(secondary("S", "P", None)).unwrap();
        assert!(c.drop_feed("P").is_err());
        c.drop_feed("S").unwrap();
        c.drop_feed("P").unwrap();
        assert!(c.drop_feed("P").is_err());
    }

    #[test]
    fn policies_builtin_and_custom() {
        let c = catalog();
        assert_eq!(c.policy("Basic").unwrap().name, "Basic");
        assert_eq!(c.policy("Discard").unwrap().name, "Discard");
        let mut params = std::collections::BTreeMap::new();
        params.insert("excess.records.throttle".into(), "true".into());
        let p = c.create_policy("MySpill", "Spill", &params).unwrap();
        assert!(p.excess_records_spill && p.excess_records_throttle);
        assert_eq!(c.policy("MySpill").unwrap().name, "MySpill");
        assert!(c.policy("Unknown").is_err());
        assert!(c.create_policy("X", "Unknown", &params).is_err());
    }

    #[test]
    fn every_builtin_policy_round_trips_through_the_catalog() {
        use crate::policy::IngestionPolicy;
        let c = catalog();
        let builtins = [
            IngestionPolicy::basic(),
            IngestionPolicy::spill(),
            IngestionPolicy::discard(),
            IngestionPolicy::throttle(),
            IngestionPolicy::elastic(),
            IngestionPolicy::fault_tolerant(),
        ];
        for base in builtins {
            // catalog lookup returns the builtin verbatim
            assert_eq!(c.policy(&base.name).unwrap(), base);
            // extend with a param override, register, and look it back up:
            // nothing but the overridden field and the name may change
            let custom_name = format!("{}_tuned", base.name);
            let mut params = std::collections::BTreeMap::new();
            params.insert("max.consecutive.soft.failures".into(), "7".into());
            let created = c.create_policy(&custom_name, &base.name, &params).unwrap();
            let looked_up = c.policy(&custom_name).unwrap();
            assert_eq!(created, looked_up);
            let mut expected = base.clone();
            expected.name = custom_name;
            expected.max_consecutive_soft_failures = 7;
            assert_eq!(looked_up, expected);
            // the base policy itself is untouched by the derivation
            assert_eq!(c.policy(&base.name).unwrap(), base);
        }
    }

    #[test]
    fn plans_register_validate_and_lookup() {
        use crate::plan::{IngestPlanBuilder, RoutePredicate, SinkSpec};
        let c = catalog();
        let plan = IngestPlanBuilder::new("FanOut")
            .adaptor("TweetGenAdaptor")
            .param("datasource", "x:1")
            .sink(SinkSpec::to("US").route(RoutePredicate::eq("country", "US")))
            .sink(SinkSpec::to("Rest"))
            .build()
            .unwrap();
        c.register_plan(plan.clone()).unwrap();
        assert_eq!(c.plan("FanOut").unwrap(), plan);
        assert!(c.register_plan(plan).is_err(), "dup");
        assert!(c.plan("Nope").is_err());
        assert_eq!(c.plan_names(), vec!["FanOut".to_string()]);
        // structurally invalid plans never enter the catalog
        let mut bad = c.plan("FanOut").unwrap();
        bad.name = "Bad".into();
        bad.sinks[1].dataset = "US".into();
        assert!(c.register_plan(bad).is_err());
    }

    #[test]
    fn functions_register_once() {
        let c = catalog();
        c.create_function(Udf::add_hash_tags()).unwrap();
        assert!(c.create_function(Udf::add_hash_tags()).is_err());
        assert_eq!(c.function("addHashTags").unwrap().name, "addHashTags");
    }

    #[test]
    fn datasets_register_and_lookup() {
        use asterix_storage::DatasetConfig;
        let c = catalog();
        let d = Dataset::create(DatasetConfig {
            name: "Tweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![asterix_common::NodeId(0)],
        })
        .unwrap();
        c.register_dataset(Arc::new(d));
        assert!(c.dataset("Tweets").is_ok());
        assert!(c.dataset("Nope").is_err());
        assert_eq!(c.dataset_names(), vec!["Tweets".to_string()]);
    }
}
