//! The shared value graph: both functions' gated-SSA graphs merged into one
//! hash-consed structure with a union-find for rewrite-driven equalities.
//!
//! The validator's central data structure (paper §2): because both graphs
//! live in one arena with structural interning, equal subexpressions of the
//! original and the optimized function are *the same node*, and the final
//! equality check is `find(root₁) == find(root₂)` — constant time in the
//! best case.
//!
//! Rewrites record equalities in the union-find; [`SharedGraph::rebuild`]
//! then restores maximal sharing: representatives whose canonical structure
//! became identical merge, until a fixpoint (congruence closure, the
//! "maximize sharing" step of §4). μ-nodes keep their nominal identity
//! through rebuilds, but two μs whose `(depth, init, next)` become identical
//! are merged — this is how the cycle matcher's speculative unions become
//! permanent structural equalities.
//!
//! # Incremental rebuild
//!
//! A rebuild touches only what changed since the last one, in the style of
//! egg's deferred rebuilding (Willsey et al., POPL 2021). Each class root
//! keeps a *use list*: the nodes with a child in that class. Every mutation
//! records the nodes whose table entry may have gone stale in a *pending*
//! worklist — the loser of a union together with the loser's users (their
//! keys name the old root), every new or patched μ, a rerooted class with
//! its users — and [`SharedGraph::rebuild`] re-derives exactly those. The
//! invariant it restores: **at every rebuild exit the intern table holds
//! exactly `resolve(rep) → rep`, one entry per representative**: the
//! table, union-find roots and return value of re-interning every node
//! from scratch, pass by pass, until nothing changes. A test-only oracle
//! (`oracle`) runs that from-scratch reference on a clone beside every
//! rebuild of the validation-query test and compares the two.

use gated_ssa::node::{node_hash, CalleeId, Interning, Node, NodeId, ValueGraph};
use gated_ssa::GatedFunction;
use lir::intern::{HashSlots, StrTab};
use std::collections::HashMap;

/// End-of-list marker for the use lists.
const NIL: u32 = u32::MAX;

/// The structural intern table behind [`SharedGraph::add`] and
/// [`SharedGraph::rebuild`]: a `key → id` map in which every entry is
/// *owned* by the id it maps to, so the rebuild can drop one node's entry
/// without searching for it.
///
/// Keys are stored per owner rather than read back from the node arena:
/// the table holds `resolve(id)` keys (canonical children), which differ
/// from the possibly-stale arena entries, and lookups between rebuilds must
/// compare against the key *as interned* — not a re-resolved one — to keep
/// hit/miss behavior (and therefore id assignment) deterministic.
#[derive(Clone, Debug, Default)]
struct InternMap {
    /// Per node id: the key it owns in the table and that key's hash.
    owned: Vec<Option<(u64, Node)>>,
    index: Index,
}

/// The lookup structure over [`InternMap::owned`]: one of the two
/// [`Interning`] modes. Both implement the same map, so the modes build
/// byte-identical graphs.
#[derive(Clone, Debug)]
enum Index {
    /// hash(key) → owner id, candidates compared against the owner's key.
    Fast(HashSlots),
    /// The boxed-key `HashMap` (differential oracle).
    Naive(HashMap<Node, NodeId>),
}

impl Default for Index {
    fn default() -> Index {
        Index::Fast(HashSlots::new())
    }
}

impl InternMap {
    fn new(mode: Interning) -> InternMap {
        let index = match mode {
            Interning::Fast => Index::Fast(HashSlots::new()),
            Interning::Naive => Index::Naive(HashMap::new()),
        };
        InternMap { owned: Vec::new(), index }
    }

    /// The owner of `key` (whose hash is `h`), if it is interned.
    fn get(&self, h: u64, key: &Node) -> Option<NodeId> {
        match &self.index {
            Index::Fast(slots) => {
                let owned = &self.owned;
                slots.get(h, |i| matches!(&owned[i as usize], Some((_, k)) if k == key)).map(NodeId)
            }
            Index::Naive(map) => map.get(key).copied(),
        }
    }

    /// Intern `key` (absent from the table) as owned by `id` (which owns
    /// no entry).
    fn insert(&mut self, h: u64, key: Node, id: NodeId) {
        match &mut self.index {
            Index::Fast(slots) => slots.insert(h, id.0),
            Index::Naive(map) => {
                map.insert(key.clone(), id);
            }
        }
        if self.owned.len() <= id.index() {
            self.owned.resize(id.index() + 1, None);
        }
        self.owned[id.index()] = Some((h, key));
    }

    /// Drop the entry `id` owns, if any, returning its hash and key.
    fn remove(&mut self, id: NodeId) -> Option<(u64, Node)> {
        let (h, key) = self.owned.get_mut(id.index())?.take()?;
        match &mut self.index {
            Index::Fast(slots) => {
                slots.remove(h, |p| p == id.0);
            }
            Index::Naive(map) => {
                map.remove(&key);
            }
        }
        Some((h, key))
    }

    /// Number of entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        match &self.index {
            Index::Fast(slots) => slots.len(),
            Index::Naive(map) => map.len(),
        }
    }

    fn clear(&mut self) {
        self.owned.clear();
        match &mut self.index {
            Index::Fast(slots) => slots.clear(),
            Index::Naive(map) => map.clear(),
        }
    }
}

/// A merged, rewritable value graph for one validation query.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
pub struct SharedGraph {
    nodes: Vec<Node>,
    parent: Vec<u32>,
    callees: StrTab,
    intern: InternMap,
    /// Per class root: the first and last cell of its use list in `uses`
    /// (`NIL` when empty). A class that loses a union hands its list to
    /// the winner, so non-roots' lists are empty.
    use_ends: Vec<(u32, u32)>,
    /// The use-list cells, `(user node, next cell)`: one flat arena shared
    /// by every list, so creating a node allocates nothing per node.
    uses: Vec<(u32, u32)>,
    /// Nodes whose table entry, congruence or μ-collapse must be
    /// re-derived by the next [`SharedGraph::rebuild`].
    pending: Vec<u32>,
    /// The batch being processed by [`SharedGraph::rebuild`] (kept for its
    /// allocation).
    batch: Vec<u32>,
    /// Set by [`SharedGraph::reintern`]: the table holds member entries, so
    /// the next rebuild re-derives every node.
    retable: bool,
}

impl SharedGraph {
    /// An empty shared graph with the default ([`Interning::Fast`])
    /// interner.
    pub fn new() -> SharedGraph {
        SharedGraph::default()
    }

    /// An empty shared graph backed by the given interner mode. Both modes
    /// build byte-identical graphs (see [`Interning`]); the naive mode is
    /// the differential-testing oracle.
    pub fn with_interning(mode: Interning) -> SharedGraph {
        SharedGraph { intern: InternMap::new(mode), ..SharedGraph::default() }
    }

    /// Which interner mode backs this graph.
    pub fn interning(&self) -> Interning {
        match self.intern.index {
            Index::Fast(_) => Interning::Fast,
            Index::Naive(_) => Interning::Naive,
        }
    }

    /// Drop all nodes, equalities and callees, keeping the allocations
    /// (arena, union-find, interner, use lists, string table) for the next
    /// query.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.parent.clear();
        self.callees.clear();
        self.intern.clear();
        self.use_ends.clear();
        self.uses.clear();
        self.pending.clear();
        self.retable = false;
    }

    /// Number of nodes ever created (including superseded ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The (possibly stale) node stored for `id`. Use [`SharedGraph::resolve`]
    /// for a copy with canonical children.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The callee name for `id`.
    pub fn callee_name(&self, id: CalleeId) -> &str {
        self.callees.get(id.0)
    }

    /// Intern a callee name into the graph's string table.
    pub fn callee(&mut self, name: &str) -> CalleeId {
        CalleeId(self.callees.intern(name))
    }

    /// Canonical representative of `id`.
    pub fn find(&self, mut id: NodeId) -> NodeId {
        // No path compression, so `find` can take `&self`. Links only ever
        // join two roots (`link`, `reroot`).
        while self.parent[id.index()] != id.0 {
            id = NodeId(self.parent[id.index()]);
        }
        id
    }

    /// Record that `a` and `b` denote the same value. The smaller id wins,
    /// keeping representatives stable and deterministic. Use this for
    /// *congruence* merges where both structures are interchangeable; a
    /// rewrite that replaces structure must use [`SharedGraph::replace`].
    pub fn union(&mut self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.link(hi, lo);
        true
    }

    /// Record that `old` rewrites to `new`: both denote the same value and
    /// `new`'s structure becomes the canonical one. This is the directed
    /// form used by normalization rules (`a ↓ b` in the paper).
    pub fn replace(&mut self, old: NodeId, new: NodeId) -> bool {
        let (ra, rb) = (self.find(old), self.find(new));
        if ra == rb {
            return false;
        }
        self.link(ra, rb);
        true
    }

    /// Make root `loser` a child of root `winner`. The loser's table entry
    /// and its users' keys (which name the loser) go stale, so all of them
    /// are queued for the next rebuild; the loser's use list moves to the
    /// winner.
    fn link(&mut self, loser: NodeId, winner: NodeId) {
        self.parent[loser.index()] = winner.0;
        self.pending.push(loser.0);
        self.queue_users(loser);
        let (head, tail) = std::mem::replace(&mut self.use_ends[loser.index()], (NIL, NIL));
        self.splice(winner, head, tail);
    }

    /// Queue every node on `class`'s use list for the next rebuild.
    fn queue_users(&mut self, class: NodeId) {
        let mut cell = self.use_ends[class.index()].0;
        while cell != NIL {
            let (user, next) = self.uses[cell as usize];
            self.pending.push(user);
            cell = next;
        }
    }

    /// Append the cell chain `head..=tail` to `class`'s use list.
    fn splice(&mut self, class: NodeId, head: u32, tail: u32) {
        if head == NIL {
            return;
        }
        let ends = &mut self.use_ends[class.index()];
        if ends.1 == NIL {
            ends.0 = head;
        } else {
            self.uses[ends.1 as usize].1 = head;
        }
        ends.1 = tail;
    }

    /// Record that `user` has a child in the class rooted at `class`.
    fn add_use(&mut self, class: NodeId, user: NodeId) {
        let cell = self.uses.len() as u32;
        self.uses.push((user.0, NIL));
        self.splice(class, cell, cell);
    }

    /// Append `node` (children already canonical) to the arena as a fresh
    /// root, registering it on its children's use lists.
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.parent.push(id.0);
        self.use_ends.push((NIL, NIL));
        node.for_each_child(|c| self.add_use(c, id));
        self.nodes.push(node);
        id
    }

    /// True if `a` and `b` are known equal.
    pub fn same(&self, a: NodeId, b: NodeId) -> bool {
        self.find(a) == self.find(b)
    }

    /// A copy of `id`'s node with all children replaced by canonical
    /// representatives, in canonical form: φ branches sorted and
    /// de-duplicated, commutative operands ordered, comparisons oriented.
    /// (GVN numbers `a+b` and `b+a` identically, so the graph must too for
    /// hash-consing to share them.)
    pub fn resolve(&self, id: NodeId) -> Node {
        self.resolve_at(self.find(id))
    }

    /// A copy of the node stored *at* `id` — not its class representative —
    /// with children canonicalized exactly as [`SharedGraph::resolve`] does.
    /// This is how the saturation engine views a non-representative e-class
    /// member: the member's own structure, over canonical child classes.
    pub fn resolve_at(&self, id: NodeId) -> Node {
        let mut n = self.nodes[id.index()].clone();
        n.map_children(|c| self.find(c));
        Self::canon_node(&mut n);
        n
    }

    /// Rebuild the structural intern table from every node's *current*
    /// resolved form — members included, first id wins.
    ///
    /// [`SharedGraph::rebuild`] interns representatives only, and
    /// [`SharedGraph::reroot`] changes which children are canonical without
    /// touching the table. The saturation engine calls this after rerooting
    /// so that re-deriving a structure that already exists anywhere in some
    /// class returns that class instead of minting a fresh node — otherwise
    /// every demoted rewrite product is re-created each iteration and the
    /// fixpoint is unreachable. The member entries break the rebuild's
    /// one-entry-per-representative invariant, so the next rebuild
    /// re-derives every node.
    pub fn reintern(&mut self) {
        self.intern.clear();
        for i in 0..self.nodes.len() {
            let id = NodeId(i as u32);
            let n = self.resolve_at(id);
            if n.is_mu() {
                continue;
            }
            let h = node_hash(&n);
            if self.intern.get(h, &n).is_none() {
                self.intern.insert(h, n, id);
            }
        }
        self.retable = true;
    }

    /// Make `member` the canonical representative of its e-class.
    ///
    /// Representatives are a *determinism policy* (min-id-wins in
    /// [`SharedGraph::union`]), not a correctness invariant; the saturation
    /// engine reroots classes onto a constant member so that constant-folding
    /// predicates (`as_const` and friends), which inspect representatives
    /// only, see through classes that merely *contain* a constant.
    pub fn reroot(&mut self, member: NodeId) {
        let root = self.find(member);
        if root == member {
            return;
        }
        // Order matters: detach `member` first so the old root's new parent
        // chain terminates instead of cycling back through `member`.
        self.parent[member.index()] = member.0;
        self.parent[root.index()] = member.0;
        // Both representatives' entries and every key naming the old root
        // go stale; the class's use list follows the new root.
        self.pending.extend([member.0, root.0]);
        self.queue_users(root);
        debug_assert_eq!(self.use_ends[member.index()], (NIL, NIL), "non-roots have no uses");
        self.use_ends[member.index()] =
            std::mem::replace(&mut self.use_ends[root.index()], (NIL, NIL));
    }

    /// Structural canonical form: φ branches sorted and de-duplicated,
    /// commutative operands ordered by id, comparisons oriented. Children
    /// must already be canonical representatives.
    fn canon_node(n: &mut Node) {
        match n {
            Node::Phi { branches } => {
                let mut bs: Vec<(NodeId, NodeId)> = branches.to_vec();
                bs.sort();
                bs.dedup();
                *branches = bs.into_boxed_slice();
            }
            Node::Bin(op, _, a, b) if op.is_commutative() && *a > *b => {
                std::mem::swap(a, b);
            }
            Node::Icmp(pred, _, a, b) if *a > *b => {
                std::mem::swap(a, b);
                *pred = pred.swapped();
            }
            _ => {}
        }
    }

    /// Add `node` (children must already be canonical or will be
    /// canonicalized), interning structurally. μ-nodes are *not* interned;
    /// use [`SharedGraph::new_mu`].
    pub fn add(&mut self, mut node: Node) -> NodeId {
        assert!(!node.is_mu(), "mu nodes are nominal; use new_mu");
        node.map_children(|c| self.find(c));
        Self::canon_node(&mut node);
        let h = node_hash(&node);
        if let Some(id) = self.intern.get(h, &node) {
            return self.find(id);
        }
        let id = self.push_node(node.clone());
        self.intern.insert(h, node, id);
        id
    }

    /// Allocate a fresh nominal μ-node.
    pub fn new_mu(&mut self, depth: u32, init: NodeId, next: Option<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let mu = Node::Mu { depth, init: self.find(init), next: next.map_or(id, |n| self.find(n)) };
        self.push_node(mu);
        self.pending.push(id.0);
        id
    }

    /// Patch the back edge of μ-node `mu`.
    pub fn patch_mu(&mut self, mu: NodeId, next_val: NodeId) {
        let next_val = self.find(next_val);
        let slot = self.find(mu);
        match &mut self.nodes[slot.index()] {
            Node::Mu { next, .. } => *next = next_val,
            n => panic!("patch_mu on non-mu node {}", n.opname()),
        }
        self.add_use(next_val, slot);
        self.pending.push(slot.0);
    }

    /// Replace the initial value of μ-node `mu` (used when specializing
    /// loop cones).
    pub fn set_mu_init(&mut self, mu: NodeId, init_val: NodeId) {
        let init_val = self.find(init_val);
        let slot = self.find(mu);
        match &mut self.nodes[slot.index()] {
            Node::Mu { init, .. } => *init = init_val,
            n => panic!("set_mu_init on non-mu node {}", n.opname()),
        }
        self.add_use(init_val, slot);
        self.pending.push(slot.0);
    }

    /// Room for `n` more nodes without reallocating the per-node arrays.
    fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
        self.parent.reserve(n);
        self.use_ends.reserve(n);
        self.intern.owned.reserve(n);
    }

    /// Import a per-function gated graph, returning a map from its node ids
    /// to ids in this graph. Hash-consing extends across imports: nodes of
    /// the second function re-use the first function's ids wherever the
    /// structure matches (the *shared* graph of paper §2).
    pub fn import(&mut self, gf: &GatedFunction) -> Vec<NodeId> {
        let g: &ValueGraph = &gf.graph;
        self.reserve(g.len());
        let mut map: Vec<NodeId> = Vec::with_capacity(g.len());
        let mut callee_map: HashMap<CalleeId, CalleeId> = HashMap::new();
        let mut mu_patches: Vec<(NodeId, NodeId)> = Vec::new(); // (our mu, their next)
        for (their_id, n) in g.iter() {
            let our = match n {
                Node::Mu { depth, init, next } => {
                    let mu = self.new_mu(*depth, map[init.index()], None);
                    mu_patches.push((mu, *next));
                    mu
                }
                _ => {
                    let mut copy = n.clone();
                    copy.map_children(|c| {
                        assert!(
                            c.index() < their_id.index() || g.node(c).is_mu(),
                            "forward edge to non-mu"
                        );
                        map[c.index()]
                    });
                    match &mut copy {
                        Node::CallPure { callee, .. }
                        | Node::CallVal { callee, .. }
                        | Node::CallMem { callee, .. } => {
                            let mapped = *callee_map
                                .entry(*callee)
                                .or_insert_with(|| self.callee(g.callee_name(*callee)));
                            *callee = mapped;
                        }
                        _ => {}
                    }
                    self.add(copy)
                }
            };
            map.push(our);
        }
        for (mu, their_next) in mu_patches {
            self.patch_mu(mu, map[their_next.index()]);
        }
        map
    }

    /// Restore maximal sharing: merge representatives whose canonical
    /// structure became identical, and collapse degenerate μ-nodes
    /// (`next == μ` or `next == init`) to their initial value — a constant
    /// stream *is* its value — until a fixpoint.
    ///
    /// Incremental: only the pending nodes (see the module docs) are
    /// re-derived, in batches. Each batch is sorted and processed in id
    /// order in three steps: collapse its trivial μs, drop its nodes' table
    /// entries, then re-intern its representatives, merging on a hit. The
    /// unions queue the losers and their users as the next batch. At exit
    /// the table holds exactly `resolve(rep) → rep` for every
    /// representative — the table, roots and count a from-scratch rebuild
    /// pass by pass over every node would produce.
    ///
    /// Returns the number of unions performed.
    pub fn rebuild(&mut self) -> usize {
        #[cfg(test)]
        let reference = oracle::enabled().then(|| {
            let mut r = self.clone();
            let merged = r.rebuild_by_passes();
            (r, merged)
        });
        if std::mem::take(&mut self.retable) {
            self.pending.clear();
            self.pending.extend(0..self.nodes.len() as u32);
        }
        let mut merged = 0;
        let mut batch = std::mem::take(&mut self.batch);
        while !self.pending.is_empty() {
            std::mem::swap(&mut batch, &mut self.pending);
            batch.sort_unstable();
            batch.dedup();
            merged += self.rebuild_batch(&batch);
            batch.clear();
        }
        self.batch = batch;
        #[cfg(test)]
        if let Some((r, r_merged)) = reference {
            oracle::check(self, merged, &r, r_merged);
        }
        merged
    }

    /// One worklist batch of [`SharedGraph::rebuild`], ascending ids.
    fn rebuild_batch(&mut self, batch: &[u32]) -> usize {
        let mut merged = 0;
        // Trivial μ collapse first: it can unlock congruences below.
        for &i in batch {
            let id = NodeId(i);
            if self.find(id) != id {
                continue;
            }
            if let Node::Mu { init, next, .. } = self.nodes[i as usize] {
                let (ri, rn) = (self.find(init), self.find(next));
                if rn == id || rn == ri {
                    self.replace(id, ri);
                    merged += 1;
                }
            }
        }
        // Drop every batch node's entry before any lookup: a node that
        // stopped being a representative must not be hit by a node that
        // re-derives its old structure.
        for &i in batch {
            self.intern.remove(NodeId(i));
        }
        // Congruence: representatives with identical canonical structure
        // merge. Every remaining entry is owned by a representative.
        for &i in batch {
            let id = NodeId(i);
            if self.find(id) != id {
                continue;
            }
            let key = self.resolve_at(id);
            let h = node_hash(&key);
            match self.intern.get(h, &key) {
                None => self.intern.insert(h, key, id),
                Some(owner) => {
                    debug_assert_eq!(self.find(owner), owner, "table owners are representatives");
                    self.union(owner, id);
                    merged += 1;
                    if id < owner {
                        // `id` won: the entry follows the representative.
                        let entry = self.intern.remove(owner);
                        debug_assert!(entry.is_some_and(|(_, k)| k == key));
                        self.intern.insert(h, key, id);
                    }
                }
            }
        }
        merged
    }

    /// The from-scratch rebuild, the exactness reference for
    /// [`SharedGraph::rebuild`]: every pass collapses every trivial μ, then
    /// re-interns every representative into a cleared table, until a pass
    /// changes nothing.
    #[cfg(test)]
    fn rebuild_by_passes(&mut self) -> usize {
        let mut merged = 0;
        loop {
            let mut changed = false;
            for i in 0..self.nodes.len() {
                let id = NodeId(i as u32);
                if self.find(id) != id {
                    continue;
                }
                if let Node::Mu { init, next, .. } = self.nodes[i] {
                    let (ri, rn) = (self.find(init), self.find(next));
                    if rn == id || rn == ri {
                        changed |= self.replace(id, ri);
                        merged += 1;
                    }
                }
            }
            self.intern.clear();
            for i in 0..self.nodes.len() {
                let id = NodeId(i as u32);
                if self.find(id) != id {
                    continue;
                }
                let key = self.resolve(id);
                let h = node_hash(&key);
                match self.intern.get(h, &key) {
                    Some(prev) => {
                        let prev = self.find(prev);
                        if prev != id {
                            self.union(prev, id);
                            merged += 1;
                            changed = true;
                        }
                    }
                    None => self.intern.insert(h, key, id),
                }
            }
            if !changed {
                return merged;
            }
        }
    }

    /// The set of nodes reachable from `roots` through canonical children.
    pub fn live_set(&self, roots: &[NodeId]) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.iter().map(|&r| self.find(r)).collect();
        while let Some(n) = stack.pop() {
            if live[n.index()] {
                continue;
            }
            live[n.index()] = true;
            self.nodes[n.index()].for_each_child(|c| {
                let c = self.find(c);
                if !live[c.index()] {
                    stack.push(c);
                }
            });
        }
        live
    }

    /// Live node count (for statistics).
    pub fn live_count(&self, roots: &[NodeId]) -> usize {
        self.live_set(roots).iter().filter(|&&b| b).count()
    }

    /// Render the canonical subgraph under `root` (cycles cut at μ).
    pub fn display(&self, root: NodeId) -> String {
        self.display_capped(root, usize::MAX)
    }

    /// [`SharedGraph::display`] bounded to roughly `cap` bytes: rendering
    /// stops descending once the output exceeds the cap and appends `…`.
    /// Used for failure evidence (divergent roots) where the *shape* of a
    /// term matters but an unbounded render of a large graph does not.
    pub fn display_capped(&self, root: NodeId, cap: usize) -> String {
        let mut out = String::new();
        let mut on_path = vec![false; self.nodes.len()];
        self.fmt_rec(self.find(root), &mut on_path, &mut out, cap);
        if out.len() > cap {
            out.truncate(cap);
            out.push('…');
        }
        out
    }

    fn fmt_rec(&self, id: NodeId, on_path: &mut Vec<bool>, out: &mut String, cap: usize) {
        use std::fmt::Write;
        if out.len() > cap {
            return;
        }
        let id = self.find(id);
        let n = self.node(id);
        if on_path[id.index()] {
            let _ = write!(out, "mu{}", id.0);
            return;
        }
        match n {
            Node::Param(i) => {
                let _ = write!(out, "p{i}");
            }
            Node::Const(c) => {
                let _ = write!(out, "{c}");
            }
            Node::GlobalAddr(g) => {
                let _ = write!(out, "g{}", g.0);
            }
            Node::InitMem => out.push_str("M0"),
            Node::InitAlloc => out.push_str("A0"),
            _ => {
                on_path[id.index()] = true;
                let _ = write!(out, "({}", n.opname());
                if n.is_mu() {
                    let _ = write!(out, "{}", id.0);
                }
                n.for_each_child(|c| {
                    out.push(' ');
                    self.fmt_rec(c, on_path, out, cap);
                });
                out.push(')');
                on_path[id.index()] = false;
            }
        }
    }
}

/// The exactness oracle for [`SharedGraph::rebuild`] (test builds only).
/// While a [`oracle::Session`] is alive on a thread, every rebuild on that
/// thread also runs the pass-based reference on a clone of the graph and
/// panics unless both agree on every node's root and on the return value,
/// and both tables hold exactly `resolve(rep) → rep`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::SharedGraph;
    use gated_ssa::node::{node_hash, NodeId};
    use std::cell::Cell;

    thread_local! {
        /// Rebuilds checked by the current session, `None` when off.
        static CHECKED: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Turns the oracle on for this thread until dropped.
    pub(crate) struct Session(());

    impl Session {
        pub(crate) fn start() -> Session {
            CHECKED.set(Some(0));
            Session(())
        }

        /// Rebuild calls checked so far.
        pub(crate) fn checked(&self) -> usize {
            CHECKED.get().unwrap_or(0)
        }
    }

    impl Drop for Session {
        fn drop(&mut self) {
            CHECKED.set(None);
        }
    }

    pub(super) fn enabled() -> bool {
        CHECKED.get().is_some()
    }

    pub(super) fn check(g: &SharedGraph, merged: usize, reference: &SharedGraph, expected: usize) {
        assert_eq!(merged, expected, "rebuild return value differs from the reference");
        for i in 0..g.len() {
            let id = NodeId(i as u32);
            assert_eq!(g.find(id), reference.find(id), "root of node {i} differs");
        }
        assert_exact_table(g);
        assert_exact_table(reference);
        CHECKED.set(CHECKED.get().map(|n| n + 1));
    }

    /// The table maps every representative's resolved key to it, and holds
    /// nothing else.
    fn assert_exact_table(g: &SharedGraph) {
        let mut reps = 0;
        for i in 0..g.len() {
            let id = NodeId(i as u32);
            if g.find(id) != id {
                continue;
            }
            reps += 1;
            let key = g.resolve(id);
            assert_eq!(g.intern.get(node_hash(&key), &key), Some(id), "entry of rep {i}");
        }
        assert_eq!(g.intern.len(), reps, "table entries vs representatives");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::inst::BinOp;
    use lir::types::Ty;
    use lir::value::Constant;

    /// Sizing of the oracle test's inputs: the 1/16 suite plus this many
    /// campaign modules per fuzz profile (about 5 s in a debug build).
    const SUITE_SCALE: usize = 16;
    const CAMPAIGN_MODULES: usize = 2;

    fn leaf(g: &mut SharedGraph, i: u32) -> NodeId {
        g.add(Node::Param(i))
    }

    #[test]
    fn union_find_basics() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        assert!(!g.same(a, b));
        assert!(g.union(a, b));
        assert!(g.same(a, b));
        assert!(!g.union(a, b), "already merged");
        assert_eq!(g.find(b), a, "smaller id is the representative");
    }

    #[test]
    fn congruence_closure_merges_parents() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let c = leaf(&mut g, 2);
        let ab = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let ac = g.add(Node::Bin(BinOp::Add, Ty::I64, a, c));
        assert!(!g.same(ab, ac));
        g.union(b, c);
        g.rebuild();
        assert!(g.same(ab, ac), "congruence: b=c implies a+b = a+c");
    }

    #[test]
    fn trivial_mu_collapses_on_rebuild() {
        let mut g = SharedGraph::new();
        let x = leaf(&mut g, 0);
        let mu = g.new_mu(1, x, None); // next defaults to self
        g.rebuild();
        assert!(g.same(mu, x));
        // mu(x, x) collapses too.
        let mu2 = g.new_mu(1, x, Some(x));
        g.rebuild();
        assert!(g.same(mu2, x));
    }

    #[test]
    fn identical_mu_structures_merge() {
        let mut g = SharedGraph::new();
        let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
        let one = g.add(Node::Const(Constant::int(Ty::I64, 1)));
        let m1 = g.new_mu(1, zero, None);
        let n1 = g.add(Node::Bin(BinOp::Add, Ty::I64, m1, one));
        g.patch_mu(m1, n1);
        let m2 = g.new_mu(1, zero, None);
        let n2 = g.add(Node::Bin(BinOp::Add, Ty::I64, m2, one));
        g.patch_mu(m2, n2);
        assert!(!g.same(m1, m2), "nominal until proven equal");
        // The cycle matcher would union them; simulate it:
        g.union(m1, m2);
        g.rebuild();
        assert!(g.same(n1, n2), "bodies merge by congruence");
    }

    #[test]
    fn import_shares_across_functions() {
        use lir::parse::parse_module;
        let src = "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 3\n  ret i64 %x\n}\n";
        let m = parse_module(src).unwrap();
        let gf1 = gated_ssa::build(&m.functions[0]).unwrap();
        let gf2 = gated_ssa::build(&m.functions[0]).unwrap();
        let mut g = SharedGraph::new();
        let map1 = g.import(&gf1);
        let before = g.len();
        let map2 = g.import(&gf2);
        assert_eq!(g.len(), before, "second import adds no nodes");
        assert_eq!(map1[gf1.ret.unwrap().index()], map2[gf2.ret.unwrap().index()]);
    }

    #[test]
    fn reroot_changes_representative_without_splitting_class() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let c = leaf(&mut g, 2);
        g.union(a, b);
        g.union(a, c);
        assert_eq!(g.find(c), a);
        g.reroot(c);
        assert_eq!(g.find(a), c);
        assert_eq!(g.find(b), c);
        assert_eq!(g.find(c), c);
        // Rerooting the current root is a no-op.
        g.reroot(c);
        assert_eq!(g.find(a), c);
        // A later union with a smaller id can demote again.
        let d = leaf(&mut g, 3);
        g.union(d, a);
        assert_eq!(g.find(d), g.find(c));
    }

    #[test]
    fn resolve_at_sees_member_structure() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        g.union(a, sum); // class {a, a+b}, rep = a
        assert!(matches!(g.resolve(sum), Node::Param(0)));
        assert!(matches!(g.resolve_at(sum), Node::Bin(BinOp::Add, ..)));
    }

    /// Run `f` on a fresh graph with the exactness oracle on, returning how
    /// many rebuilds it checked.
    fn under_oracle(f: impl FnOnce(&mut SharedGraph)) -> usize {
        let session = oracle::Session::start();
        let mut g = SharedGraph::new();
        f(&mut g);
        session.checked()
    }

    #[test]
    fn replaced_structure_rederived_elsewhere_does_not_merge() {
        under_oracle(|g| {
            let a = leaf(g, 0);
            let b = leaf(g, 1);
            let zero = g.add(Node::Const(Constant::int(Ty::I64, 0)));
            let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, a, zero));
            let other = g.add(Node::Bin(BinOp::Add, Ty::I64, b, zero));
            g.rebuild();
            // A rule rewrites a+0 to a; the table still holds a+0's entry.
            assert!(g.replace(sum, a));
            // b+0's class now re-derives a+0's old key: b becomes a.
            g.replace(b, a);
            g.rebuild();
            assert!(g.same(sum, a));
            assert_eq!(g.find(other), other, "b+0 became a+0, but a+0 is no representative");
            assert!(!g.same(other, a), "must not merge through the replaced node's stale entry");
        });
    }

    #[test]
    fn entry_follows_a_smaller_congruent_representative() {
        under_oracle(|g| {
            let a = leaf(g, 0);
            let b = leaf(g, 1);
            let c = leaf(g, 2);
            let ac = g.add(Node::Bin(BinOp::Add, Ty::I64, a, c));
            let ab = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
            g.union(b, c);
            // a+c re-derives a+b's key and wins by the smaller id: the
            // table entry must move to it, not stay with the demoted a+b.
            assert_eq!(g.rebuild(), 1);
            assert_eq!(g.find(ab), ac);
            let len = g.len();
            assert_eq!(g.add(Node::Bin(BinOp::Add, Ty::I64, b, a)), ac);
            assert_eq!(g.len(), len);
        });
    }

    #[test]
    fn reset_graph_rebuilds_like_a_fresh_one() {
        let build = |g: &mut SharedGraph| {
            let a = leaf(g, 0);
            let b = leaf(g, 1);
            let ab = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
            let ba = g.add(Node::Bin(BinOp::Sub, Ty::I64, b, a));
            let mu = g.new_mu(1, ab, None);
            g.union(a, b);
            let merged = g.rebuild();
            (merged, g.find(ba), g.find(mu), g.len())
        };
        under_oracle(|g| {
            let first = build(g);
            g.reintern();
            g.reset();
            assert!(g.is_empty());
            assert_eq!(g.rebuild(), 0, "nothing pending after a reset");
            assert_eq!(build(g), first);
        });
    }

    #[test]
    fn rebuild_with_nothing_pending_changes_nothing() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let ab = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let mu = g.new_mu(1, a, None);
        let m = g.add(Node::Bin(BinOp::Mul, Ty::I64, ab, mu));
        g.rebuild();
        let before: Vec<NodeId> = (0..g.len()).map(|i| g.find(NodeId(i as u32))).collect();
        let len = g.len();
        assert_eq!(g.rebuild(), 0);
        let after: Vec<NodeId> = (0..g.len()).map(|i| g.find(NodeId(i as u32))).collect();
        assert_eq!(before, after);
        assert_eq!(g.add(Node::Bin(BinOp::Add, Ty::I64, b, a)), ab);
        assert_eq!(g.add(Node::Bin(BinOp::Mul, Ty::I64, ab, a)), m, "mu collapsed into a");
        assert_eq!(g.add(Node::Param(1)), b);
        assert_eq!(g.len(), len, "every lookup hit");
    }

    #[test]
    fn mu_without_next_collapses_under_oracle() {
        let checked = under_oracle(|g| {
            let x = leaf(g, 0);
            let mu = g.new_mu(1, x, None);
            assert_eq!(g.rebuild(), 1);
            assert_eq!(g.find(mu), x);
        });
        assert_eq!(checked, 1);
    }

    #[test]
    fn reroot_and_reintern_match_reference() {
        let checked = under_oracle(|g| {
            let a = leaf(g, 0);
            let b = leaf(g, 1);
            let c = leaf(g, 2);
            let ab = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
            let cb = g.add(Node::Bin(BinOp::Add, Ty::I64, c, b));
            let sq = g.add(Node::Bin(BinOp::Mul, Ty::I64, ab, cb));
            let mu = g.new_mu(1, a, Some(ab));
            g.rebuild();
            // Merge a and c, then make c the representative: a+b and c+b
            // become congruent under the new root.
            g.union(a, c);
            g.reroot(c);
            g.rebuild();
            assert!(g.same(ab, cb));
            assert_eq!(g.find(a), c);
            // Reintern (member entries), reroot again, then rebuild from
            // every node.
            g.reintern();
            g.reroot(a);
            g.rebuild();
            g.union(sq, mu);
            g.reintern();
            g.rebuild();
            assert!(g.same(sq, mu));
        });
        assert_eq!(checked, 4);
    }

    /// The exactness oracle over real queries: every rebuild of the
    /// destructive and the saturate-fallback engines, under both interner
    /// modes, on suite and fuzz-campaign modules through the paper's
    /// pipeline.
    #[test]
    fn incremental_rebuild_matches_reference_on_validation_queries() {
        use crate::{Normalizer, Validator};
        use llvm_md_workload::DEFAULT_CAMPAIGN_SEED;
        use llvm_md_workload::{campaign_module, fuzz_profiles, suite_batch};
        let mut modules = suite_batch(SUITE_SCALE);
        for p in fuzz_profiles() {
            modules.extend(
                (0..CAMPAIGN_MODULES).map(|i| campaign_module(&p, DEFAULT_CAMPAIGN_SEED, i)),
            );
        }
        let pm = lir_opt::paper_pipeline();
        let session = oracle::Session::start();
        let (mut queries, mut saturated) = (0, 0);
        for m in &modules {
            let mut opt = m.clone();
            pm.run_module(&mut opt);
            for (f, t) in m.functions.iter().zip(&opt.functions) {
                for normalizer in [Normalizer::Destructive, Normalizer::SaturateFallback] {
                    let fast = Validator { normalizer, ..Validator::new() }.validate(f, t);
                    let naive =
                        Validator { normalizer, interning: Interning::Naive, ..Validator::new() }
                            .validate(f, t);
                    assert_eq!(fast.validated, naive.validated);
                    assert_eq!(fast.stats.nodes_final, naive.stats.nodes_final);
                    saturated += usize::from(fast.stats.saturation.is_some());
                    queries += 2;
                }
            }
        }
        eprintln!(
            "oracle: {} rebuilds, {queries} queries, {saturated} saturated",
            session.checked()
        );
        assert!(session.checked() > queries, "every query rebuilds at least once");
        assert!(saturated > 0, "the saturation engine's reroot/reintern path ran");
    }

    #[test]
    fn live_set_follows_canonical_children() {
        let mut g = SharedGraph::new();
        let a = leaf(&mut g, 0);
        let b = leaf(&mut g, 1);
        let sum = g.add(Node::Bin(BinOp::Add, Ty::I64, a, b));
        let live = g.live_set(&[sum]);
        assert!(live[a.index()] && live[b.index()] && live[sum.index()]);
        let c = leaf(&mut g, 2);
        let live = g.live_set(&[sum]);
        assert!(!live[c.index()]);
    }
}
