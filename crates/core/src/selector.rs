//! Pluggable argmin selectors for the greedy placement loop.
//!
//! Every greedy family (Section 6.3) repeats the same *replace-top* access
//! pattern per placement round: pick the candidate with the smallest
//! `(score, position)` key, re-score exactly that candidate (pipelining one
//! more task onto it raises its completion time), and repeat — with an
//! occasional *wholesale* re-score when an Equation-(2) ceiling step
//! re-prices every candidate at once. This module isolates the data
//! structure answering those queries behind `Selector`, with three
//! implementations that produce **bit-identical decision sequences** and
//! differ only in access pattern (the linear scan doubles as the
//! differential reference for the two trees):
//!
//! | selector | select | winner re-score | wholesale refresh |
//! |---|---|---|---|
//! | [`SelectorKind::Linear`]    | `O(u)` dense scan | free | free |
//! | [`SelectorKind::LoserTree`] | `O(1)` read | one leaf-to-root path, `⌈log₂ u⌉` | bottom-up `O(u)` |
//! | [`SelectorKind::ShardedTree`] | `O(1)` read | one shard path `⌈log₂(u/s)⌉` + `s`-key tournament | per-shard `O(u)` |
//!
//! The **loser tree** is the large-`p` default. A tournament tree over the
//! candidate positions stores, at each internal node, the *loser* of that
//! match (the winner keeps ascending); the overall winner sits at the root.
//! `select` is a single read. Re-scoring the winner replays exactly the
//! matches the winner won — one leaf-to-root path of `⌈log₂ u⌉`
//! comparisons against the stored losers, with **no sift-down fan-out**:
//! unlike a `d`-ary heap, no step examines `d` children to find a minimum,
//! so the comparison count is both smaller and branch-predictable. An
//! Equation-(2) ceiling step re-prices every leaf, so the refresh is
//! *round-batched*: the caller re-evaluates all scores in one dense pass
//! first, then one `O(u)` bottom-up rebuild touches each leaf once.
//!
//! ## Exactness
//!
//! All three selectors order candidates by the same key: `(score, pos)`
//! under [`f64::total_cmp`] then position. Positions are unique, so the key
//! order is total and the minimum is unique — which tree shape stores the
//! entries is unobservable. The position tie-break applies in the loser
//! tree's **internal nodes** too (every match compares full keys, never
//! bare scores), reproducing the linear scan's strict-`<` lowest-id rule
//! even when duplicate scores land in different subtrees of a padded,
//! non-power-of-two tournament. The differential tests below and the
//! greedy proptest (all 8 families × every selector vs a cache-free naive
//! model) pin this.
//!
//! ## Staleness contract
//!
//! The trees cache each leaf's key from the caller's dense score row, so
//! they must never be stale: the caller re-score protocol —
//! `Selector::rescore_winner` after each placement, `Selector::refresh`
//! after each wholesale re-price — is a hard contract, debug-asserted
//! where cheap.
//!
//! ## Storage
//!
//! Selector storage ([`LoserTree`], [`ShardedTree`]) lives in the
//! owning scheduler's persistent scratch and is moved in and out of the
//! round-scoped `Selector` by value, so steady-state rounds allocate
//! nothing once the backing vectors reach their high-water capacity (the
//! zero-allocation test in `vg-bench` pins this through the engine).

/// Which argmin structure a placement round uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorKind {
    /// Dense strict-`<` rescan of the whole score row per placement.
    Linear,
    /// Loser (tournament) tree with replace-top path replay.
    LoserTree,
    /// Per-shard loser trees with a small tournament over shard winners;
    /// the large-`u` partitioning of [`SelectorKind::LoserTree`].
    ShardedTree,
}

/// Below this `count · u` product the dense linear rescan wins: it
/// vectorizes, the structured selectors' builds do not. Measured on the
/// slotloop and selector benches; flat between 2¹¹ and 2¹³.
pub const LINEAR_MAX_WORK: usize = 4096;

/// Rounds shorter than this stay linear regardless of `u`: the `O(u)`
/// build cannot amortize over so few placements.
pub const STRUCTURED_MIN_COUNT: usize = 4;

/// At and above this many UP candidates the monolithic loser tree gives
/// way to per-shard trees: a single tournament over `u ≥ 2¹³` leaves walks
/// `⌈log₂ u⌉ ≥ 13` scattered cache lines per replay, while the sharded
/// replay walks one shard's shorter path plus a dense tournament over at
/// most [`MAX_SHARDS`] contiguous winner keys. Below it the extra
/// tournament is pure overhead. See `docs/scaling.md` for the measured
/// crossover.
pub const SHARD_MIN_UPS: usize = 8192;

/// Target leaf count per shard: each shard's tree (4-byte nodes + 16-byte
/// keys over ≤ 4096 leaves) stays comfortably inside L2, so one replay
/// path touches cache-resident lines only.
pub const SHARD_LEAVES: usize = 4096;

/// Upper bound on the shard count: the winner tournament is a dense
/// linear argmin over one `u128` key per shard, and 64 keys (two cache
/// lines' worth per 8) keep it a handful of nanoseconds even at
/// `p = 10⁶` leaves.
pub const MAX_SHARDS: usize = 64;

/// Number of shards the sharded tree uses for `u` candidates: enough to
/// keep every shard at or under [`SHARD_LEAVES`] leaves, capped at
/// [`MAX_SHARDS`].
#[must_use]
pub fn shard_count(u: usize) -> usize {
    u.div_ceil(SHARD_LEAVES).clamp(1, MAX_SHARDS)
}

/// Leaves per shard for `u` candidates under the production policy (the
/// last shard may be smaller).
#[must_use]
pub fn shard_size_for(u: usize) -> usize {
    u.div_ceil(shard_count(u)).max(1)
}

impl SelectorKind {
    /// The measured crossover policy for a round placing `count` tasks over
    /// `u` UP candidates.
    ///
    /// * `count < 4` or `count · u < 4096` — **linear**: the dense scan's
    ///   vectorized `O(count · u)` beats any build cost.
    /// * `u ≥ 8192` ([`SHARD_MIN_UPS`]) — **sharded tree**: one replay
    ///   touches a single shard's cache-resident path plus a ≤ 64-key
    ///   winner tournament instead of `⌈log₂ u⌉` scattered lines.
    /// * otherwise — **loser tree**: its path replay reads one stored
    ///   loser per level, where a `d`-ary heap's sift takes a `d`-child
    ///   minimum per level (measured on the selector micro-benchmark,
    ///   `BENCH_selector.json`).
    #[must_use]
    pub fn choose(u: usize, count: usize) -> Self {
        if count < STRUCTURED_MIN_COUNT || count * u < LINEAR_MAX_WORK {
            Self::Linear
        } else if u >= SHARD_MIN_UPS {
            Self::ShardedTree
        } else {
            Self::LoserTree
        }
    }
}

/// Packs a `(score, pos)` key into one `u128` whose integer order is the
/// lexicographic `(total_cmp, pos)` order: the score's bits are mapped
/// through the standard sign-magnitude fold (negative values bit-inverted,
/// positive values sign-flipped), which is strictly monotone with respect
/// to `total_cmp` over **all** bit patterns — every number, both zeros,
/// both infinity signs, every NaN payload — then the position occupies the
/// low 32 bits to break score ties toward the lower position. Tournament
/// matches thus cost one integer compare instead of a `total_cmp`
/// branch chain, with bit-identical outcomes (the unit tests below pin
/// the map against `key_less` exhaustively over crafted bit patterns).
#[inline]
fn packed_key(score: f64, pos: u32) -> u128 {
    let b = score.to_bits();
    let mapped = if b >> 63 == 1 { !b } else { b | (1 << 63) };
    ((mapped as u128) << 32) | pos as u128
}

/// Sentinel key of the loser tree's padding leaves: larger than every real
/// leaf's packed key. The score half is the all-ones pattern (the maximum
/// of the mapped order — the only score folding there is the
/// maximal-payload *positive* NaN, `0x7FFF_FFFF_FFFF_FFFF`, the top of
/// the `total_cmp` order) and the position half is `u32::MAX`, which no
/// real leaf carries, so a real candidate always wins its match against
/// padding — by score half for every other value, by position half even
/// in the adversarial case of a real score carrying that exact payload.
const SENTINEL_KEY: u128 = ((u64::MAX as u128) << 32) | u32::MAX as u128;

/// Marker for "runner-up unknown" — forces the next winner re-score to
/// replay its path (no key is ever strictly below it). The only real key
/// that can collide with it is position 0 holding the maximal-payload
/// *negative* NaN — unreachable from validated chains, and the collision
/// merely disables the shortcut (the replay path is always correct).
const RUNNER_UP_UNKNOWN: u128 = 0;

/// The loser-tree selector's persistent storage: a tournament over leaf
/// positions `0..u`, padded with sentinel leaves to the next power of two
/// `m`. `nodes[0]` is the overall winner's leaf, `nodes[1..m]` the *loser*
/// leaf of each internal match (children of node `i` are `2i`/`2i+1` in
/// the implicit complete tree whose leaves `m..2m` map to positions
/// `0..m`); `keys` caches each leaf's `packed_key`, refreshed whenever
/// the caller re-prices that leaf. A node is 4 bytes and a key 16, so the
/// whole `p = 1024` structure is cache-resident.
///
/// The replace-top fast path: after every full path replay that keeps the
/// winner, the minimum of the losers along the winner's path — exactly the
/// tournament's **runner-up** (the second-best candidate must have lost
/// directly to the winner, so it sits on that path) — is remembered. As
/// long as the re-scored winner's new key still beats the cached
/// runner-up, the winner is unchanged, no node moved, and the re-score is
/// a single integer compare; the `⌈log₂ m⌉` path is replayed only when
/// the winner's key crosses the runner-up's. Greedy rounds place long
/// same-winner streaks (a fast processor absorbs tasks until its
/// pipelined completion time passes the field), so most placements take
/// the one-compare path.
#[derive(Debug, Clone, Default)]
pub struct LoserTree {
    /// Real leaf count `u` of the current round.
    leaves: usize,
    /// Padded leaf count: `u.next_power_of_two()`.
    m: usize,
    /// `nodes[0]` winner leaf; `nodes[1..m]` per-match loser leaves.
    nodes: Vec<u32>,
    /// Packed key per leaf (sentinel beyond `leaves`).
    keys: Vec<u128>,
    /// Bottom-up build scratch: the winner of each subtree (`win[m + j] =
    /// j` for leaves, then upward). Persistent so rebuilds allocate
    /// nothing at steady state.
    win: Vec<u32>,
    /// Packed key of the tournament's second-best leaf, or
    /// [`RUNNER_UP_UNKNOWN`] right after a rebuild or a winner change.
    runner_up: u128,
}

impl LoserTree {
    /// Rebuilds the tournament bottom-up over `scores`, `O(m)` — the
    /// round-batched refresh: after a wholesale re-price the caller calls
    /// this once, touching each leaf exactly once, instead of paying one
    /// repair per stale entry. Also the per-round build.
    pub fn rebuild(&mut self, scores: &[f64]) {
        self.leaves = scores.len();
        self.m = self.leaves.next_power_of_two().max(1);
        self.nodes.clear();
        self.nodes.resize(self.m, 0);
        self.keys.clear();
        self.keys.extend(
            scores
                .iter()
                .enumerate()
                .map(|(j, &s)| packed_key(s, j as u32)),
        );
        self.keys.resize(self.m, SENTINEL_KEY);
        self.win.clear();
        self.win.resize(2 * self.m, 0);
        self.runner_up = RUNNER_UP_UNKNOWN;
        if self.m == 1 {
            // Single candidate: it is the winner, there are no matches.
            self.nodes[0] = 0;
            return;
        }
        for j in 0..self.m {
            self.win[self.m + j] = j as u32;
        }
        for i in (1..self.m).rev() {
            let a = self.win[2 * i];
            let b = self.win[2 * i + 1];
            // Strict key order: the right child must strictly beat the
            // left to win; packed keys are unique (positions differ), so
            // there is exactly one order.
            let (w, l) = if self.keys[b as usize] < self.keys[a as usize] {
                (b, a)
            } else {
                (a, b)
            };
            self.win[i] = w;
            self.nodes[i] = l;
        }
        self.nodes[0] = self.win[1];
    }

    /// The current winner's position. `O(1)`; exact provided the re-score
    /// contract (module docs) was honored.
    #[inline]
    #[must_use]
    pub fn winner(&self) -> usize {
        self.nodes[0] as usize
    }

    /// Re-prices the winner's leaf after *its* score changed and restores
    /// the tournament. Fast path: the new key still beats the cached
    /// runner-up, so nothing moved — one compare. Slow path: replay the
    /// winner's leaf-to-root path — the stored losers along it are exactly
    /// the opponents the winner beat, so re-running those `⌈log₂ m⌉`
    /// matches (demoting the ascending key whenever a stored loser beats
    /// it) restores every invariant, and the minimum loser seen along the
    /// way is the new runner-up whenever the winner defends its title.
    /// Only valid for the winner's leaf (other leaves' paths store losers
    /// the changed key never played), hence the debug assert.
    pub fn replay_winner(&mut self, leaf: usize, scores: &[f64]) {
        debug_assert_eq!(
            leaf, self.nodes[0] as usize,
            "path replay is only sound for the current winner's leaf"
        );
        let key = packed_key(scores[leaf], leaf as u32);
        self.keys[leaf] = key;
        if key < self.runner_up {
            // Still strictly better than the whole field (the runner-up is
            // the minimum over every other leaf): the winner defends, no
            // node changes. RUNNER_UP_UNKNOWN (0) never satisfies this.
            return;
        }
        let mut w = leaf as u32;
        let mut wk = key;
        // Minimum of the losers along the path = the field's best
        // non-winner key.
        let mut field_min = SENTINEL_KEY;
        let mut node = (self.m + leaf) >> 1;
        while node >= 1 {
            let l = self.nodes[node];
            let lk = self.keys[l as usize];
            field_min = field_min.min(lk);
            if lk < wk {
                self.nodes[node] = w;
                w = l;
                wk = lk;
            }
            node >>= 1;
        }
        self.nodes[0] = w;
        // If the old winner defended its title, the path losers are still
        // the whole non-winner field and their minimum is the runner-up;
        // if the title changed hands, the new winner's opponents live on a
        // different path, so the shortcut re-arms at its next re-score.
        self.runner_up = if w as usize == leaf {
            field_min
        } else {
            RUNNER_UP_UNKNOWN
        };
    }

    /// Packed key of the current winner's leaf (sentinel on an empty
    /// tree). Local positions: the sharded wrapper re-bases it.
    #[inline]
    fn winner_key(&self) -> u128 {
        self.keys[self.nodes[0] as usize]
    }
}

/// The sharded selector's persistent storage: the candidate row is split
/// into contiguous shards of [`shard_size_for`]-many leaves, each
/// owning an independent [`LoserTree`], plus one **global-position**
/// packed key per shard winner. `select` reads a cached overall winner;
/// a winner re-score replays one shard's `⌈log₂(u/s)⌉` path and then
/// re-runs the dense `s`-key tournament (`s ≤` [`MAX_SHARDS`], two
/// `u128`s per cache line), so no replay ever walks the full-platform
/// `⌈log₂ u⌉` scattered lines; an Equation-(2) wholesale refresh
/// re-prices each shard independently (the natural unit for a future
/// multi-thread split with a deterministic merge).
///
/// ## Exactness
///
/// Shard winner keys are packed with **global** positions (a shard-local
/// key plus the shard's base offset — the position field occupies the low
/// 32 bits, so the add re-bases it without touching the score half).
/// The tournament is therefore a linear argmin over exactly the same
/// `(score, pos)` key order the monolithic tree uses, and its minimum is
/// the monolithic winner, bit-identically — pinned by the differential
/// tests below and the greedy proptest.
#[derive(Debug, Clone, Default)]
pub struct ShardedTree {
    /// Leaves per shard of the current round (last shard may be short).
    shard_size: usize,
    /// Real leaf count `u` of the current round.
    len: usize,
    /// One independent tournament per shard; storage persists across
    /// rounds like the monolithic tree's.
    shards: Vec<LoserTree>,
    /// Packed `(score, global pos)` key of each shard's winner.
    winner_keys: Vec<u128>,
    /// Index of the shard holding the overall winner.
    winner_shard: usize,
}

impl ShardedTree {
    /// Rebuilds every shard over `scores`, `O(u)` total — the per-round
    /// build and the round-batched wholesale refresh. `shard_size` is the
    /// partition width; production callers pass [`shard_size_for`], tests
    /// force small widths to exercise multi-shard shapes at tiny `u`.
    pub fn rebuild(&mut self, scores: &[f64], shard_size: usize) {
        self.shard_size = shard_size.max(1);
        self.len = scores.len();
        let nshards = self.len.div_ceil(self.shard_size).max(1);
        self.shards.truncate(nshards);
        while self.shards.len() < nshards {
            self.shards.push(LoserTree::default());
        }
        self.winner_keys.clear();
        for (s, tree) in self.shards.iter_mut().enumerate() {
            let lo = s * self.shard_size;
            let hi = (lo + self.shard_size).min(self.len);
            tree.rebuild(&scores[lo..hi]);
            // Re-base the winner's position to the global row. The empty
            // single-shard case keeps the sentinel unshifted (lo = 0).
            self.winner_keys.push(tree.winner_key() + lo as u128);
        }
        self.refresh_winner();
    }

    /// Re-runs the winner tournament: a dense strict-`<` argmin over the
    /// per-shard keys (strict keeps the lowest shard on the impossible
    /// tie, matching the monolithic order — keys carry unique positions).
    fn refresh_winner(&mut self) {
        let mut best = 0usize;
        for s in 1..self.winner_keys.len() {
            if self.winner_keys[s] < self.winner_keys[best] {
                best = s;
            }
        }
        self.winner_shard = best;
    }

    /// The current overall winner's global position. `O(1)`; exact under
    /// the same re-score contract as the monolithic tree.
    #[inline]
    #[must_use]
    pub fn winner(&self) -> usize {
        self.winner_shard * self.shard_size + self.shards[self.winner_shard].winner()
    }

    /// Re-prices the winner's leaf after *its* score changed: replay the
    /// owning shard's path (inheriting the monolithic runner-up
    /// shortcut), refresh that shard's tournament key, and re-run the
    /// winner tournament. Only valid for the overall winner's leaf.
    pub fn replay_winner(&mut self, leaf: usize, scores: &[f64]) {
        debug_assert_eq!(
            leaf,
            self.winner(),
            "path replay is only sound for the current winner's leaf"
        );
        let s = self.winner_shard;
        let lo = s * self.shard_size;
        let hi = (lo + self.shard_size).min(self.len);
        self.shards[s].replay_winner(leaf - lo, &scores[lo..hi]);
        self.winner_keys[s] = self.shards[s].winner_key() + lo as u128;
        self.refresh_winner();
    }
}

/// The argmin strategy of one placement round. Every variant returns the
/// exact same winner sequence for the same score-row trajectory (the
/// differential tests and the greedy proptest pin it); they differ only in
/// access pattern, so the placement loop in `GreedyScheduler::place_into`
/// is shared and only winner selection, the winner's score write-back and
/// the wholesale refresh dispatch here.
pub(crate) enum Selector {
    /// Dense strict-`<` rescan of the whole score row per placement.
    Linear,
    /// Loser tree over candidate positions; owns the scheduler's
    /// persistent tree storage for the round.
    Loser(LoserTree),
    /// Per-shard loser trees + winner tournament; owns the scheduler's
    /// persistent sharded storage for the round.
    Sharded(ShardedTree),
}

impl Selector {
    /// Builds the round's selector of `kind` over the initial score row,
    /// taking ownership of the matching persistent storage (returned to
    /// the scheduler by `Self::into_storage`).
    pub(crate) fn build(
        kind: SelectorKind,
        scores: &[f64],
        tree_storage: &mut LoserTree,
        sharded_storage: &mut ShardedTree,
    ) -> Self {
        match kind {
            SelectorKind::Linear => Self::Linear,
            SelectorKind::LoserTree => {
                let mut tree = std::mem::take(tree_storage);
                tree.rebuild(scores);
                Self::Loser(tree)
            }
            SelectorKind::ShardedTree => {
                let mut tree = std::mem::take(sharded_storage);
                tree.rebuild(scores, shard_size_for(scores.len()));
                Self::Sharded(tree)
            }
        }
    }

    /// Returns the backing storage to the scheduler's persistent scratch.
    pub(crate) fn into_storage(
        self,
        tree_storage: &mut LoserTree,
        sharded_storage: &mut ShardedTree,
    ) {
        match self {
            Self::Linear => {}
            Self::Loser(tree) => *tree_storage = tree,
            Self::Sharded(tree) => *sharded_storage = tree,
        }
    }

    /// Position (into the candidate row) of the current argmin; the trees'
    /// winner is already at the root.
    pub(crate) fn select(&self, scores: &[f64]) -> usize {
        match self {
            Self::Loser(tree) => tree.winner(),
            Self::Sharded(tree) => tree.winner(),
            Self::Linear => {
                let mut best_pos = 0usize;
                let mut best_score = f64::INFINITY;
                for (pos, &s) in scores.iter().enumerate() {
                    // Strict `<` keeps the lowest processor id on ties
                    // ([D9]); candidates are in ascending id order.
                    if s < best_score {
                        best_score = s;
                        best_pos = pos;
                    }
                }
                best_pos
            }
        }
    }

    /// Records that the winner at `pos` was re-scored (the caller already
    /// wrote `scores[pos]`): the trees replay the winner's path; the linear
    /// variant is stateless.
    pub(crate) fn rescore_winner(&mut self, pos: usize, scores: &[f64]) {
        match self {
            Self::Loser(tree) => tree.replay_winner(pos, scores),
            Self::Sharded(tree) => tree.replay_winner(pos, scores),
            Self::Linear => {}
        }
    }

    /// Round-batched wholesale refresh after every score changed at once
    /// (an Equation-(2) ceiling step): the caller has re-evaluated the
    /// whole row in one dense pass; the trees then rebuild bottom-up in
    /// `O(u)`, touching each entry exactly once. The linear variant is
    /// stateless.
    pub(crate) fn refresh(&mut self, scores: &[f64]) {
        match self {
            Self::Loser(tree) => tree.rebuild(scores),
            Self::Sharded(tree) => {
                let shard_size = tree.shard_size;
                tree.rebuild(scores, shard_size);
            }
            Self::Linear => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key order shared by every selector: score via `total_cmp`, then
    /// position — the unique total order that reproduces the linear scan's
    /// lowest-id tie-break (for the non-NaN scores produced by validated
    /// chains, `total_cmp` agrees with `<`). The specification
    /// `packed_key` must reproduce.
    fn key_less(a: (f64, u32), b: (f64, u32)) -> bool {
        match a.0.total_cmp(&b.0) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.1 < b.1,
        }
    }

    /// Drives one selector through a scripted round and returns the winner
    /// sequence; `bumps` gives the score the winner is re-scored to after
    /// each placement.
    fn run_round(kind: SelectorKind, scores: &mut [f64], bumps: &[f64]) -> Vec<usize> {
        let mut tree_storage = LoserTree::default();
        let mut sharded_storage = ShardedTree::default();
        let mut sel = Selector::build(kind, scores, &mut tree_storage, &mut sharded_storage);
        let mut picks = Vec::new();
        for &bump in bumps {
            let w = sel.select(scores);
            picks.push(w);
            scores[w] = bump;
            sel.rescore_winner(w, scores);
        }
        sel.into_storage(&mut tree_storage, &mut sharded_storage);
        picks
    }

    /// Drives a [`ShardedTree`] with a *forced* shard width through the
    /// same scripted round, so multi-shard shapes are reachable at tiny
    /// `u` (the production width only shards above [`SHARD_LEAVES`]).
    fn run_round_sharded(shard_size: usize, scores: &mut [f64], bumps: &[f64]) -> Vec<usize> {
        let mut tree = ShardedTree::default();
        tree.rebuild(scores, shard_size);
        let mut picks = Vec::new();
        for &bump in bumps {
            let w = tree.winner();
            picks.push(w);
            scores[w] = bump;
            tree.replay_winner(w, scores);
        }
        picks
    }

    /// Every selector must agree with the linear reference on every
    /// scripted round; the sharded tree is
    /// additionally exercised at forced widths that split even tiny rows
    /// into several shards.
    fn assert_all_agree(scores: &[f64], bumps: &[f64]) {
        let linear = run_round(SelectorKind::Linear, &mut scores.to_vec(), bumps);
        let loser = run_round(SelectorKind::LoserTree, &mut scores.to_vec(), bumps);
        let sharded = run_round(SelectorKind::ShardedTree, &mut scores.to_vec(), bumps);
        assert_eq!(
            linear, loser,
            "loser tree diverged on {scores:?} / {bumps:?}"
        );
        assert_eq!(
            linear, sharded,
            "sharded tree diverged on {scores:?} / {bumps:?}"
        );
        for shard_size in [1usize, 2, 3, 4] {
            let forced = run_round_sharded(shard_size, &mut scores.to_vec(), bumps);
            assert_eq!(
                linear, forced,
                "sharded tree (width {shard_size}) diverged on {scores:?} / {bumps:?}"
            );
        }
    }

    #[test]
    fn loser_tree_basic_argmin() {
        let scores = [5.0, 3.0, 9.0, 4.0, 8.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 1);
    }

    #[test]
    fn duplicate_scores_resolve_to_lowest_position_in_internal_nodes() {
        // The tie-break audit of the loser tree: the
        // duplicates land in *different subtrees* of the padded
        // tournament (u = 5 pads to m = 8: leaves {0..3} and {4..7} are
        // the two top-level subtrees), so the lowest-position rule must
        // hold in internal matches, not just at the leaves. A bare-score
        // comparison would let either duplicate through depending on
        // shape; the full-key comparison cannot.
        let scores = [7.0, 3.0, 9.0, 8.0, 3.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 1, "3.0 appears at positions 1 and 4");

        // And across every subtree split of a non-power-of-two row: place
        // the duplicate pair at all position pairs and check the lower one
        // always wins, in the tree and in the full replace-top round.
        for u in [5usize, 6, 7, 11, 13] {
            for i in 0..u {
                for j in i + 1..u {
                    let mut scores = vec![10.0; u];
                    scores[i] = 1.0;
                    scores[j] = 1.0;
                    let mut tree = LoserTree::default();
                    tree.rebuild(&scores);
                    assert_eq!(tree.winner(), i, "u={u} duplicates at ({i},{j})");
                    // Re-score the winner above the duplicate: its twin
                    // must surface next, then the winner's path replay
                    // must keep ordering full keys.
                    let bumps = [2.0, 3.0, 4.0];
                    assert_all_agree(&scores, &bumps);
                }
            }
        }
    }

    #[test]
    fn all_equal_scores_drain_in_position_order() {
        // Every score identical: the selectors must pick positions
        // 0, 1, 2, … as each winner is re-scored upward — the pure
        // tie-break ordering, exercised across both subtree shapes of
        // every non-power-of-two size.
        for u in [3usize, 5, 6, 7, 9, 12] {
            let scores = vec![1.0; u];
            let bumps: Vec<f64> = (0..u).map(|k| 2.0 + k as f64).collect();
            let linear = run_round(SelectorKind::Linear, &mut scores.clone(), &bumps);
            assert_eq!(linear, (0..u).collect::<Vec<_>>(), "u={u}");
            assert_all_agree(&scores, &bumps);
        }
    }

    #[test]
    fn replay_winner_restores_the_tournament() {
        let mut scores = vec![5.0, 3.0, 9.0, 4.0, 8.0, 2.0, 7.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        let expected_order = [5usize, 1, 3, 0, 6, 4, 2];
        for &expect in &expected_order {
            assert_eq!(tree.winner(), expect);
            let w = tree.winner();
            scores[w] += 100.0; // push the winner to the back of the pack
            tree.replay_winner(w, &scores);
        }
    }

    #[test]
    fn wholesale_refresh_reprices_every_leaf() {
        let mut scores = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 0);
        // Invert the row — the old tournament is wholly wrong; one
        // round-batched rebuild must re-price everything.
        for (i, s) in scores.iter_mut().enumerate() {
            *s = -(i as f64);
        }
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 5);
    }

    #[test]
    fn single_candidate_and_power_of_two_shapes() {
        for u in [1usize, 2, 4, 8] {
            let scores: Vec<f64> = (0..u).map(|k| 10.0 - k as f64).collect();
            let mut tree = LoserTree::default();
            tree.rebuild(&scores);
            assert_eq!(tree.winner(), u - 1, "u={u}: smallest score is last");
        }
    }

    #[test]
    fn scripted_rounds_agree_across_selectors() {
        // Deterministic pseudo-random rounds over assorted sizes,
        // including re-scores that create fresh duplicates mid-round.
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 97) as f64
        };
        for u in [2usize, 3, 5, 8, 13, 21, 64, 100] {
            let scores: Vec<f64> = (0..u).map(|_| next()).collect();
            let bumps: Vec<f64> = (0..2 * u).map(|_| 100.0 + next()).collect();
            assert_all_agree(&scores, &bumps);
        }
    }

    #[test]
    fn infinite_and_extreme_scores_still_beat_padding() {
        // Real leaves with +∞ scores must still win their matches against
        // the sentinel padding (position tie-break), so a row of
        // overflowed scores drains in position order instead of selecting
        // a padding leaf.
        let scores = vec![f64::INFINITY; 5];
        let mut tree = LoserTree::default();
        tree.rebuild(&scores);
        assert_eq!(tree.winner(), 0);
    }

    #[test]
    fn packed_key_order_matches_total_cmp_then_pos() {
        // The integer fold must agree with (total_cmp, pos) over every
        // class of bit pattern — numbers, both zeros, both infinities,
        // subnormals, NaNs of either sign — so tournament matches on
        // packed keys are bit-identical to `key_less` matches.
        let specimens = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE / 2.0, // negative subnormal
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            2.5,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // minimal positive NaN payload
            f64::from_bits(0x7FFF_FFFF_FFFF_FFFF), // maximal positive NaN payload
            f64::from_bits(0xFFFF_FFFF_FFFF_FFFF), // maximal negative NaN payload
        ];
        for &a in &specimens {
            for &b in &specimens {
                for (pa, pb) in [(0u32, 1u32), (1, 0), (3, 3)] {
                    assert_eq!(
                        packed_key(a, pa) < packed_key(b, pb),
                        key_less((a, pa), (b, pb)),
                        "a={a:?}({:#x}) pa={pa} b={b:?}({:#x}) pb={pb}",
                        a.to_bits(),
                        b.to_bits(),
                    );
                }
            }
        }
    }

    #[test]
    fn crossover_policy_boundaries() {
        use SelectorKind::*;
        // Short rounds stay linear regardless of platform size.
        assert_eq!(SelectorKind::choose(100_000, 3), Linear);
        // The count·u product gates the structured selector exactly at
        // LINEAR_MAX_WORK.
        assert_eq!(SelectorKind::choose(1023, 4), Linear); // 4092 < 4096
        assert_eq!(SelectorKind::choose(1024, 4), LoserTree); // 4096
        assert_eq!(SelectorKind::choose(1025, 4), LoserTree);
        assert_eq!(SelectorKind::choose(256, 15), Linear); // 3840
        assert_eq!(SelectorKind::choose(256, 16), LoserTree); // 4096
                                                              // Mid-band default is the loser tree.
        assert_eq!(SelectorKind::choose(1024, 2048), LoserTree);
        // The UP-candidate count gates sharding exactly at SHARD_MIN_UPS.
        assert_eq!(SelectorKind::choose(8191, 4), LoserTree);
        assert_eq!(SelectorKind::choose(8192, 4), ShardedTree);
        assert_eq!(SelectorKind::choose(131_072, 100), ShardedTree);
        // A huge platform with a too-short round still scans linearly.
        assert_eq!(SelectorKind::choose(131_072, 3), Linear);
    }

    #[test]
    fn shard_count_policy() {
        // One shard up to SHARD_LEAVES, then one per SHARD_LEAVES slice,
        // capped at MAX_SHARDS; shard widths always cover the row.
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(SHARD_LEAVES), 1);
        assert_eq!(shard_count(SHARD_LEAVES + 1), 2);
        assert_eq!(shard_count(16_384), 4);
        assert_eq!(shard_count(131_072), 32);
        assert_eq!(shard_count(10_000_000), MAX_SHARDS);
        for u in [1usize, 5, 4096, 4097, 16_384, 131_072, 1 << 20] {
            let w = shard_size_for(u);
            assert!(w * shard_count(u) >= u, "u={u}: shards must cover the row");
        }
    }

    #[test]
    fn sharded_matches_monolithic_at_scale() {
        // The production regime: u = 16384 UP candidates (4 shards of
        // 4096), a long replace-top round with pseudo-random scores and
        // bumps, plus periodic wholesale refreshes. Winner sequences must
        // be bit-identical to the monolithic tree's.
        let u = 16_384usize;
        let mut state = 0xdead_beef_1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 100_003) as f64
        };
        let scores_init: Vec<f64> = (0..u).map(|_| next()).collect();

        let mut mono_scores = scores_init.clone();
        let mut shard_scores = scores_init;
        let mut mono = LoserTree::default();
        mono.rebuild(&mono_scores);
        let mut sharded = ShardedTree::default();
        sharded.rebuild(&shard_scores, shard_size_for(u));
        assert_eq!(sharded.winner(), mono.winner(), "initial build diverged");

        for round in 0..3000usize {
            let bump = 200_000.0 + next();
            let w = mono.winner();
            assert_eq!(sharded.winner(), w, "round {round} winner diverged");
            mono_scores[w] = bump;
            shard_scores[w] = bump;
            mono.replay_winner(w, &mono_scores);
            sharded.replay_winner(w, &shard_scores);
            if round % 701 == 700 {
                // Wholesale re-price (Equation-(2) ceiling step analogue).
                for (a, b) in mono_scores.iter_mut().zip(shard_scores.iter_mut()) {
                    let fresh = next();
                    *a = fresh;
                    *b = fresh;
                }
                mono.rebuild(&mono_scores);
                let ss = shard_size_for(u);
                sharded.rebuild(&shard_scores, ss);
            }
        }
    }

    #[test]
    fn sharded_duplicates_across_shard_boundaries() {
        // Duplicate scores in *different shards*: the global-position
        // re-basing of the winner keys must keep the lowest-id rule
        // across the tournament, not just inside one shard.
        for u in [5usize, 6, 8, 13] {
            for shard_size in [2usize, 3, 4] {
                for i in 0..u {
                    for j in i + 1..u {
                        let mut scores = vec![10.0; u];
                        scores[i] = 1.0;
                        scores[j] = 1.0;
                        let mut tree = ShardedTree::default();
                        tree.rebuild(&scores, shard_size);
                        assert_eq!(
                            tree.winner(),
                            i,
                            "u={u} width={shard_size} duplicates at ({i},{j})"
                        );
                        let bumps = [2.0, 3.0, 4.0];
                        let linear = run_round(SelectorKind::Linear, &mut scores.clone(), &bumps);
                        let forced = run_round_sharded(shard_size, &mut scores.clone(), &bumps);
                        assert_eq!(linear, forced, "u={u} width={shard_size} ({i},{j})");
                    }
                }
            }
        }
    }
}
