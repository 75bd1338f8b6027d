//! What a scheduler is allowed to see.
//!
//! The master observes processor states through heartbeats (Section 3.2) and
//! knows the static platform description plus, under the Markov assumption,
//! each processor's transition matrix. Everything a heuristic may consult is
//! collected into a [`SchedView`] presented by the simulator at every slot;
//! heuristics cannot reach into the engine, which keeps the
//! information-hygiene of the on-line problem honest (no peeking at future
//! states).
//!
//! ## Zero-allocation design
//!
//! A view is split into two parts with very different lifetimes:
//!
//! * **Per-slot** data — state, delay, program possession — lives in small
//!   `Copy` [`ProcSnapshot`]s that the engine rewrites in place into a
//!   scratch buffer each slot;
//! * **Per-run** data — the precomputed [`ChainStats`] of each processor's
//!   believed availability chain — is built once at engine construction and
//!   only ever *borrowed* by views.
//!
//! [`SchedView`] therefore borrows both slices (`&[ProcSnapshot]`,
//! `&[ChainStats]`) and is itself `Copy`; constructing one per slot costs
//! nothing. Tests and examples that want a self-contained view use
//! [`OwnedSchedView`] (usually via [`SchedViewBuilder`]) and borrow it with
//! [`OwnedSchedView::view`].

use vg_des::SlotSpan;
use vg_markov::availability::{AvailabilityChain, ChainStats, ProcState};
use vg_platform::ProcessorId;

/// Per-processor snapshot at the current slot (per-slot data only; the
/// processor's chain statistics live in the view's `chains` slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcSnapshot {
    /// Which processor this is.
    pub id: ProcessorId,
    /// Observed state for the current slot.
    pub state: ProcState,
    /// `w_q`: UP-slots needed per task.
    pub w: SlotSpan,
    /// Whether the processor currently holds a complete copy of the program.
    pub has_program: bool,
    /// `Delay(q)` (Section 6.3.1): estimated slots until the processor has
    /// finished its current activities — remaining program transfer, pinned
    /// data transfers and pinned computations — assuming it stays `UP` and
    /// suffers no contention (\[D8\] in DESIGN.md).
    pub delay: SlotSpan,
}

/// Advisory per-application context of one placement round under
/// multi-application co-scheduling (see `vg_sim`'s application runtime
/// layer and [`crate::share::SharePolicy`]).
///
/// Mirrors the [`SchedView::room`] idiom: `None` is the historical
/// single-application contract, passed on a lone application's one-shot
/// pool round; the engine passes `Some` on every other round (quota-bounded
/// pool rounds and replica rounds), for lone applications too. Schedulers
/// MAY use it (e.g. to spread applications across disjoint workers), but
/// MUST decide exactly as with `None` when it is absent or `count == 1` —
/// a lone application's trajectory is pinned to the historical engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppView {
    /// Index of the requesting application (0-based, in engine app order).
    pub index: u32,
    /// Total number of co-scheduled applications.
    pub count: u32,
    /// The requesting application's share weight.
    pub weight: u32,
    /// Placement quota granted to the application this slot (its share of
    /// the bindable capacity).
    pub quota: u32,
}

/// Scheduler-visible state of the whole platform at one slot.
///
/// Borrows the engine's scratch snapshot buffer, its UP bitmap and its
/// per-run chain statistics; copying a `SchedView` copies a few fat
/// pointers.
#[derive(Debug, Clone, Copy)]
pub struct SchedView<'a> {
    /// One snapshot per processor, indexed by `ProcessorId::idx()`.
    pub procs: &'a [ProcSnapshot],
    /// The UP bitmap of `procs`: bit `i % 64` of word `i / 64` is set iff
    /// `procs[i].state` is `UP`, with `p.div_ceil(64)` words and every bit
    /// past `p` zero (see [`up_words_into`]). The engine keeps it current
    /// as it patches and masks the snapshot, so candidate enumeration
    /// ([`Self::up_indices_into`]) costs O(u + p/64), not an O(p) scan.
    pub up: &'a [u64],
    /// Precomputed statistics of the availability chain the scheduler
    /// *believes* describes each processor (the truth in the paper's
    /// experiments; an estimate in the model-misspecification studies).
    /// Indexed by `ProcessorId::idx()`, same length as `procs`.
    pub chains: &'a [ChainStats],
    /// `T_prog`: slots to transfer the program.
    pub t_prog: SlotSpan,
    /// `T_data`: slots to transfer one task's input.
    pub t_data: SlotSpan,
    /// `ncom`: the master's channel capacity.
    pub ncom: usize,
    /// Per-processor bind room for this placement round (`room[i]` copies
    /// can still bind on processor `i` this slot), or `None` for an
    /// unconstrained round.
    ///
    /// `None` is the historical contract: the scheduler requests whatever
    /// it likes and the engine's bind step rejects what cannot bind (the
    /// rejects dissolve under \[D5\]). Under a demand-driven placement
    /// budget the engine passes `Some`: schedulers SHOULD then treat a
    /// processor whose room is exhausted (0, or depleted by this round's
    /// own picks) as unselectable, so placements land on processors that
    /// can actually bind. Respecting `room` is advisory — the engine
    /// tolerates overfill either way (the bind step still rejects) — but
    /// a scheduler must never let `Some` change its choices relative to
    /// `None` when the room never binds fewer copies than it would have
    /// requested anyway; the engine only passes `Some` on rounds whose
    /// trajectory is already allowed to diverge.
    pub room: Option<&'a [u8]>,
    /// Which application of the roster this placement round serves, or
    /// `None` for the historical single-application contract (see
    /// [`AppView`]). Advisory, like `room`.
    pub app: Option<AppView>,
}

impl<'a> SchedView<'a> {
    /// Chain statistics of processor `idx`.
    #[inline]
    #[must_use]
    pub fn chain(&self, idx: usize) -> &'a ChainStats {
        &self.chains[idx]
    }

    /// Indices of processors in the `UP` state, in id order.
    ///
    /// Allocates; heuristic hot paths use [`Self::up_indices_into`] with a
    /// reused scratch buffer instead.
    #[must_use]
    pub fn up_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.up_indices_into(&mut out);
        out
    }

    /// Writes the indices of `UP` processors into `out` (cleared first), in
    /// id order, walking the set bits of [`Self::up`]. No allocation once
    /// `out` has warmed to capacity.
    pub fn up_indices_into(&self, out: &mut Vec<usize>) {
        out.clear();
        for (wi, &word) in self.up.iter().enumerate() {
            out.extend(set_bits(word).map(|b| wi * 64 + b));
        }
    }

    /// Number of processors.
    #[must_use]
    pub fn p(&self) -> usize {
        self.procs.len()
    }
}

/// The indices of the set bits of `word`, lowest first, one step per set
/// bit: how a per-processor word bitmap (bit `i % 64` of word `i / 64`,
/// like [`SchedView::up`]) is walked without scanning every processor.
pub fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Writes the UP bitmap of `procs` into `out` (cleared first): bit `i % 64`
/// of word `i / 64` is set iff `procs[i].state` is `UP`, bits past
/// `procs.len()` zero — the [`SchedView::up`] layout.
pub fn up_words_into(procs: &[ProcSnapshot], out: &mut Vec<u64>) {
    let p = procs.len();
    out.clear();
    out.extend((0..p.div_ceil(64)).map(|wi| bit_word(p, wi, |i| procs[i].state.is_up())));
}

/// Word `wi` of the bitmap of `pred` over indices `0..n`: bit `i % 64` of
/// word `i / 64` is `pred(i)`, bits past `n` zero. Builds a word bitmap
/// densely, one predicate call per index.
pub fn bit_word(n: usize, wi: usize, pred: impl Fn(usize) -> bool) -> u64 {
    let start = wi * 64;
    (start..(start + 64).min(n)).fold(0, |word, i| word | (u64::from(pred(i)) << (i - start)))
}

/// A self-contained view owning its snapshots and chain statistics.
///
/// The engine never materializes one of these per slot; they exist for
/// tests, examples and benches that need a view without an engine behind it.
#[derive(Debug, Clone)]
pub struct OwnedSchedView {
    /// One snapshot per processor.
    pub procs: Vec<ProcSnapshot>,
    /// The UP bitmap of `procs` ([`SchedView::up`]); recompute it with
    /// [`up_words_into`] after editing a snapshot's state.
    pub up: Vec<u64>,
    /// One precomputed chain per processor.
    pub chains: Vec<ChainStats>,
    /// `T_prog`.
    pub t_prog: SlotSpan,
    /// `T_data`.
    pub t_data: SlotSpan,
    /// `ncom`.
    pub ncom: usize,
    /// Per-processor bind room (`None` = unconstrained round).
    pub room: Option<Vec<u8>>,
    /// Per-application round context (`None` = single-app contract).
    pub app: Option<AppView>,
}

impl OwnedSchedView {
    /// Borrows as the [`SchedView`] that schedulers consume.
    #[must_use]
    pub fn view(&self) -> SchedView<'_> {
        let p = self.procs.len();
        debug_assert!(
            self.up.len() == p.div_ceil(64)
                && (0..self.up.len())
                    .all(|wi| self.up[wi] == bit_word(p, wi, |i| self.procs[i].state.is_up())),
            "OwnedSchedView::up is stale: recompute it with up_words_into"
        );
        SchedView {
            procs: &self.procs,
            up: &self.up,
            chains: &self.chains,
            t_prog: self.t_prog,
            t_data: self.t_data,
            ncom: self.ncom,
            room: self.room.as_deref(),
            app: self.app,
        }
    }
}

/// Builder for hand-crafted views in tests and examples.
#[derive(Debug, Clone)]
pub struct SchedViewBuilder {
    view: OwnedSchedView,
}

impl SchedViewBuilder {
    /// Starts a view with the given application/network parameters.
    #[must_use]
    pub fn new(t_prog: SlotSpan, t_data: SlotSpan, ncom: usize) -> Self {
        Self {
            view: OwnedSchedView {
                procs: Vec::new(),
                up: Vec::new(),
                chains: Vec::new(),
                t_prog,
                t_data,
                ncom,
                room: None,
                app: None,
            },
        }
    }

    /// Adds a processor snapshot; ids are assigned in insertion order.
    #[must_use]
    pub fn proc(
        mut self,
        state: ProcState,
        w: SlotSpan,
        has_program: bool,
        delay: SlotSpan,
        chain: AvailabilityChain,
    ) -> Self {
        let id = ProcessorId(self.view.procs.len() as u32);
        self.view.procs.push(ProcSnapshot {
            id,
            state,
            w,
            has_program,
            delay,
        });
        self.view.chains.push(ChainStats::new(chain));
        self
    }

    /// Constrains the round to the given per-processor bind room
    /// (length-matched to the processors added so far).
    #[must_use]
    pub fn room(mut self, room: Vec<u8>) -> Self {
        assert_eq!(room.len(), self.view.procs.len(), "room length != p");
        self.view.room = Some(room);
        self
    }

    /// Attaches per-application round context (co-scheduling rounds).
    #[must_use]
    pub fn app(mut self, app: AppView) -> Self {
        self.view.app = Some(app);
        self
    }

    /// Finishes the view.
    #[must_use]
    pub fn build(mut self) -> OwnedSchedView {
        up_words_into(&self.view.procs, &mut self.view.up);
        self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> AvailabilityChain {
        AvailabilityChain::new([[0.95, 0.03, 0.02], [0.30, 0.65, 0.05], [0.10, 0.10, 0.80]])
            .unwrap()
    }

    #[test]
    fn up_indices_filters_and_orders() {
        let owned = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, false, 0, chain())
            .proc(ProcState::Down, 1, false, 0, chain())
            .proc(ProcState::Up, 2, true, 3, chain())
            .proc(ProcState::Reclaimed, 2, true, 3, chain())
            .build();
        let v = owned.view();
        assert_eq!(v.up_indices(), vec![0, 2]);
        assert_eq!(v.p(), 4);
        assert_eq!(v.procs[2].id, ProcessorId(2));
    }

    #[test]
    fn up_indices_into_reuses_buffer() {
        let owned = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, false, 0, chain())
            .proc(ProcState::Up, 1, false, 0, chain())
            .build();
        let v = owned.view();
        let mut buf = Vec::with_capacity(8);
        v.up_indices_into(&mut buf);
        assert_eq!(buf, vec![0, 1]);
        let ptr = buf.as_ptr();
        v.up_indices_into(&mut buf);
        assert_eq!(buf, vec![0, 1]);
        assert_eq!(ptr, buf.as_ptr(), "buffer must be reused, not reallocated");
    }

    /// The bitmap walk lists exactly the UP processors, in id order, on
    /// platforms ending inside, at, and just past a 64-bit word boundary.
    #[test]
    fn up_indices_match_a_naive_filter_across_word_boundaries() {
        let states = [ProcState::Up, ProcState::Reclaimed, ProcState::Down];
        for p in [1usize, 63, 64, 65, 130] {
            let mut b = SchedViewBuilder::new(5, 1, 2);
            for i in 0..p {
                // Mixed states, UP at both ends of every word.
                let state = if i % 64 == 0 || i % 64 == 63 || i == p - 1 {
                    ProcState::Up
                } else {
                    states[(i * 7 + i / 3) % 3]
                };
                b = b.proc(state, 1, false, 0, chain());
            }
            let owned = b.build();
            let v = owned.view();
            assert_eq!(v.up.len(), p.div_ceil(64), "p = {p}");
            if !p.is_multiple_of(64) {
                assert_eq!(v.up[p / 64] >> (p % 64), 0, "bits past p = {p}");
            }
            let naive: Vec<usize> = (0..p).filter(|&i| v.procs[i].state.is_up()).collect();
            assert_eq!(v.up_indices(), naive, "p = {p}");
        }
    }

    #[test]
    fn chains_are_indexed_per_processor() {
        let owned = SchedViewBuilder::new(5, 1, 2)
            .proc(ProcState::Up, 1, false, 0, chain())
            .build();
        let v = owned.view();
        assert_eq!(v.chain(0).p_uu(), chain().p_uu());
        assert_eq!(v.chains.len(), v.procs.len());
    }
}
