//! Test support: the reference CCT the differential test checks
//! [`txsampler::cct::Cct`] against.
//!
//! This is the pre-arena design: one `HashMap<NodeKey, NodeId>` per node.
//! It is semantically authoritative but allocates on every new node, which
//! is why the production tree replaced it with an arena + one
//! open-addressed child index per tree. The differential test
//! (`cct_differential.rs`) drives both implementations with identical
//! randomized key sequences and asserts identical observable behaviour;
//! keep this module in sync with any *semantic* change to the production
//! tree.

use std::collections::HashMap;

use txsampler::cct::{NodeId, NodeKey, ROOT};
use txsampler::Metrics;

#[derive(Debug, Clone, Default)]
struct Node {
    key: Option<NodeKey>,
    parent: NodeId,
    children: HashMap<NodeKey, NodeId>,
    metrics: Metrics,
}

/// HashMap-per-node calling-context tree (reference implementation).
#[derive(Debug, Clone)]
pub struct HashCct {
    nodes: Vec<Node>,
}

impl Default for HashCct {
    fn default() -> Self {
        HashCct::new()
    }
}

impl HashCct {
    /// Create a tree holding only the root.
    pub fn new() -> Self {
        HashCct {
            nodes: vec![Node::default()],
        }
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Child of `parent` with `key`, created on demand.
    pub fn child(&mut self, parent: NodeId, key: NodeKey) -> NodeId {
        if let Some(&id) = self.nodes[parent as usize].children.get(&key) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node {
            key: Some(key),
            parent,
            ..Node::default()
        });
        self.nodes[parent as usize].children.insert(key, id);
        id
    }

    /// Walk a full path of keys from the root, creating nodes on demand.
    pub fn path(&mut self, keys: impl IntoIterator<Item = NodeKey>) -> NodeId {
        let mut cur = ROOT;
        for key in keys {
            cur = self.child(cur, key);
        }
        cur
    }

    /// Mutable metrics of `node`.
    pub fn metrics_mut(&mut self, node: NodeId) -> &mut Metrics {
        &mut self.nodes[node as usize].metrics
    }

    /// Metrics of `node` (exclusive).
    pub fn metrics(&self, node: NodeId) -> &Metrics {
        &self.nodes[node as usize].metrics
    }

    /// Child ids of `node`, in unspecified order.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[node as usize].children.values().copied()
    }

    /// The path of keys from the root to `node` (root excluded).
    pub fn path_to(&self, node: NodeId) -> Vec<NodeKey> {
        let mut path = Vec::new();
        let mut cur = node;
        while cur != ROOT {
            path.push(self.nodes[cur as usize].key.expect("non-root has key"));
            cur = self.nodes[cur as usize].parent;
        }
        path.reverse();
        path
    }

    /// Sum of all nodes' metrics.
    pub fn totals(&self) -> Metrics {
        let mut acc = Metrics::default();
        for n in &self.nodes {
            acc.merge(&n.metrics);
        }
        acc
    }

    /// Merge `other` into `self`, matching nodes by path.
    pub fn merge(&mut self, other: &HashCct) {
        let mut map = vec![ROOT; other.nodes.len()];
        for (oid, node) in other.nodes.iter().enumerate() {
            let my_id = if oid == 0 {
                ROOT
            } else {
                let my_parent = map[node.parent as usize];
                self.child(my_parent, node.key.expect("non-root has key"))
            };
            map[oid] = my_id;
            self.nodes[my_id as usize].metrics.merge(&node.metrics);
        }
    }

    /// All node ids in depth-first preorder.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n));
        }
        out
    }
}
