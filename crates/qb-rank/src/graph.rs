//! The page link graph.

use std::collections::HashMap;

/// A directed graph over page names.
#[derive(Debug, Clone, Default)]
pub struct LinkGraph {
    names: Vec<String>,
    ids: HashMap<String, usize>,
    out_edges: Vec<Vec<usize>>,
}

impl LinkGraph {
    /// Empty graph.
    pub fn new() -> LinkGraph {
        LinkGraph::default()
    }

    /// Get or create the node for a page name.
    pub fn node(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        self.out_edges.push(Vec::new());
        id
    }

    /// Register (or replace) the out-links of a page. Links to not-yet-known
    /// pages create their nodes, mirroring how the registry can reference
    /// pages published later.
    pub fn set_links(&mut self, name: &str, out_links: &[String]) {
        let from = self.node(name);
        let mut edges = Vec::with_capacity(out_links.len());
        for link in out_links {
            if link == name {
                continue; // self-links carry no rank signal
            }
            let to = self.node(link);
            if !edges.contains(&to) {
                edges.push(to);
            }
        }
        self.out_edges[from] = edges;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Node id of a name, if known.
    pub fn id_of(&self, name: &str) -> Option<usize> {
        self.ids.get(name).copied()
    }

    /// Out-neighbours of a node.
    pub fn out_links(&self, id: usize) -> &[usize] {
        &self.out_edges[id]
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, id: usize) -> usize {
        self.out_edges[id].len()
    }

    /// All node names.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_count(g: &LinkGraph) -> usize {
        g.out_edges.iter().map(|e| e.len()).sum()
    }

    fn in_degree(g: &LinkGraph, id: usize) -> usize {
        g.out_edges.iter().flatten().filter(|&&to| to == id).count()
    }

    fn links(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn nodes_are_created_on_demand_and_stable() {
        let mut g = LinkGraph::new();
        let a = g.node("a");
        let b = g.node("b");
        assert_ne!(a, b);
        assert_eq!(g.node("a"), a);
        assert_eq!(g.len(), 2);
        assert_eq!(g.names()[a], "a");
        assert_eq!(g.id_of("b"), Some(b));
        assert_eq!(g.id_of("zzz"), None);
    }

    #[test]
    fn set_links_builds_edges_and_degrees() {
        let mut g = LinkGraph::new();
        g.set_links("home", &links(&["about", "blog", "about"]));
        g.set_links("blog", &links(&["home"]));
        assert_eq!(g.len(), 3);
        assert_eq!(edge_count(&g), 3, "duplicate links are collapsed");
        let home = g.id_of("home").unwrap();
        let about = g.id_of("about").unwrap();
        assert_eq!(g.out_degree(home), 2);
        assert_eq!(in_degree(&g, about), 1);
        assert_eq!(in_degree(&g, home), 1);
    }

    #[test]
    fn relinking_replaces_old_edges() {
        let mut g = LinkGraph::new();
        g.set_links("p", &links(&["x", "y"]));
        g.set_links("p", &links(&["z"]));
        let p = g.id_of("p").unwrap();
        assert_eq!(g.out_degree(p), 1);
        assert_eq!(in_degree(&g, g.id_of("x").unwrap()), 0);
        assert_eq!(in_degree(&g, g.id_of("z").unwrap()), 1);
        assert_eq!(edge_count(&g), 1);
    }

    #[test]
    fn self_links_are_ignored() {
        let mut g = LinkGraph::new();
        g.set_links("p", &links(&["p", "q"]));
        assert_eq!(g.out_degree(g.id_of("p").unwrap()), 1);
    }
}
