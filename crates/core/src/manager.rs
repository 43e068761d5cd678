//! The per-node Feed Manager (§5.3.1, §5.4).
//!
//! "Each Node Controller has an associated Feed Manager, a data structure
//! that holds all runtime metadata about the active components of a data
//! ingestion pipeline that are hosted by the NC. This metadata includes the
//! set of operator instances and the available feed joints." Subscribable
//! operator instances register their joints under a symbolic id
//! (`<feed>` or `<feed>:f1:...:fN`), discoverable through the *search API*
//! by co-located operator instances.
//!
//! The manager holds joints and nothing else. The paper's *zombie state*
//! (§6.2.2) — the unprocessed input of an instance that died — lives in
//! the joint subscription the instance consumed from: it hands its frames
//! back to the head of that queue ([`FeedJoint::hand_back`]), where the
//! replacement instance takes them first.

use crate::joint::FeedJoint;
use asterix_common::sync::Mutex;
use asterix_hyracks::cluster::NodeHandle;
use std::collections::HashMap;
use std::sync::Arc;

/// Node-local feed runtime metadata.
#[derive(Default)]
pub struct FeedManager {
    joints: Mutex<HashMap<String, Arc<FeedJoint>>>,
}

impl FeedManager {
    /// Fresh manager.
    pub fn new() -> Arc<FeedManager> {
        Arc::new(FeedManager::default())
    }

    /// The Feed Manager hosted by `node`, created on first use.
    pub fn on(node: &NodeHandle) -> Arc<FeedManager> {
        node.services().get_or_insert_with(FeedManager::new)
    }

    /// Register (or fetch) the joint with symbolic id `id`. A producing
    /// operator that is rescheduled onto this node after a failure re-binds
    /// to the same joint and thereby to its surviving subscriptions.
    pub fn register_joint(&self, id: &str) -> Arc<FeedJoint> {
        let mut joints = self.joints.lock();
        if let Some(existing) = joints.get(id) {
            if !existing.is_retired() {
                return Arc::clone(existing);
            }
        }
        let fresh = FeedJoint::new(id);
        joints.insert(id.to_string(), Arc::clone(&fresh));
        fresh
    }

    /// The §5.3.1 search API: find a co-located joint by id.
    pub fn search_joint(&self, id: &str) -> Option<Arc<FeedJoint>> {
        self.joints
            .lock()
            .get(id)
            .filter(|j| !j.is_retired())
            .cloned()
    }

    /// Retire and drop the joint with id `id`.
    pub fn retire_joint(&self, id: &str) {
        if let Some(j) = self.joints.lock().remove(id) {
            j.retire();
        }
    }

    /// Ids of all live joints on this node.
    pub fn joint_ids(&self) -> Vec<String> {
        self.joints.lock().keys().cloned().collect()
    }
}

impl std::fmt::Debug for FeedManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FeedManager({} joints)", self.joints.lock().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_hyracks::cluster::Cluster;

    #[test]
    fn register_and_search() {
        let fm = FeedManager::new();
        assert!(fm.search_joint("TwitterFeed").is_none());
        let j = fm.register_joint("TwitterFeed");
        let found = fm.search_joint("TwitterFeed").unwrap();
        assert!(Arc::ptr_eq(&j, &found));
        assert_eq!(fm.joint_ids(), vec!["TwitterFeed".to_string()]);
    }

    #[test]
    fn register_is_idempotent_rebind() {
        let fm = FeedManager::new();
        let a = fm.register_joint("F");
        let b = fm.register_joint("F");
        assert!(Arc::ptr_eq(&a, &b), "same joint across rebinds");
    }

    #[test]
    fn retired_joint_is_replaced_on_register() {
        let fm = FeedManager::new();
        let a = fm.register_joint("F");
        a.retire();
        assert!(fm.search_joint("F").is_none(), "retired joints hidden");
        let b = fm.register_joint("F");
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!b.is_retired());
    }

    #[test]
    fn retire_joint_by_id() {
        let fm = FeedManager::new();
        let j = fm.register_joint("F");
        fm.retire_joint("F");
        assert!(j.is_retired());
        assert!(fm.search_joint("F").is_none());
    }

    #[test]
    fn per_node_singleton_via_services() {
        let cluster = Cluster::start_default(2);
        let n0 = cluster.node(asterix_common::NodeId(0)).unwrap();
        let n1 = cluster.node(asterix_common::NodeId(1)).unwrap();
        let a = FeedManager::on(&n0);
        let b = FeedManager::on(&n0);
        let c = FeedManager::on(&n1);
        assert!(Arc::ptr_eq(&a, &b));
        a.register_joint("F");
        assert!(c.search_joint("F").is_none(), "joints are node-local");
        cluster.shutdown();
    }
}
