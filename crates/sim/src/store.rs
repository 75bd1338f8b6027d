//! Worker storage layouts: the hot/cold **SoA** the engine runs on, and the
//! retained **AoS** path kept as the bit-identity oracle.
//!
//! The slot loop is a sequence of dense scans over per-worker state — draw
//! states, estimate delays, advance transfers and computations. Stored as an
//! array of [`WorkerRuntime`] structs (AoS), every scan drags each worker's
//! *cold* fields (the `bound` vector, `prog_began_at`, the spec) through the
//! cache alongside the one or two hot fields it actually reads; at
//! `p ≥ 1024` a single state pass touches ~100 KiB instead of 1 KiB.
//! [`WorkerSoA`] splits the runtime into parallel arrays so each phase walks
//! only the columns it needs:
//!
//! * **hot** (touched every slot, densely): `state`, `w`, `prog_done`, and
//!   the pipeline columns `computing` / `transfer` / `buffered` whose
//!   discriminants drive the per-slot branches;
//! * **cold** (touched on binds/crashes only): `prog_began_at` and the
//!   per-worker `bound` lists (allocations kept warm across runs, as the
//!   AoS `WorkerRuntime::bound` buffers were).
//!
//! Both layouts implement [`WorkerStore`], the exact per-worker contract the
//! engine phases are written against. The engine is generic over it and
//! monomorphized, so the abstraction costs nothing; [`AosWorkers`] is a thin
//! adapter that delegates every operation to the original
//! [`WorkerRuntime`] methods — the pre-refactor code path, unchanged — which
//! is what makes `Simulation<AosWorkers>` a genuine oracle for the SoA
//! engine (see `crates/sim/tests/soa_equivalence.rs`).
//!
//! [`WorkerSoA::reset_for`] reinitializes every column with a single
//! `memset`-style fill pass per array (clear + resize on retained
//! allocations), which is what lets a warmed [`SimArena`](crate::SimArena)
//! recycle the store across grow→shrink→grow platform sequences without
//! per-worker bookkeeping.
//!
//! Both layouts also maintain the **snapshot dirty bit** the engine's
//! incremental snapshot builder consumes — the exact contract (which
//! mutations set it, which deliberately do not, and how resets behave) is
//! documented on [`WorkerStore`] itself.

use vg_core::view::bit_word;
use vg_des::{Slot, SlotSpan};
use vg_markov::availability::ProcState;
use vg_platform::ProcessorSpec;

use crate::task::{CopyId, TaskId};
use crate::worker::{ComputeState, TransferState, WorkerRuntime};

/// Fixed width (in workers) of the dense-column **block summaries**:
/// per-block population counts over the 1-byte `state` / `occupancy`
/// columns that let the slot loop skip a quiet block in one compare
/// instead of scanning its workers. 256 one-byte entries span four cache
/// lines and vectorize cleanly when a block does need the full scan; the
/// counts themselves fit `u16`.
pub const SUMMARY_BLOCK: usize = 256;

/// Per-worker state storage, as consumed by the engine's slot phases.
///
/// Semantics of every method are those of the corresponding
/// [`WorkerRuntime`] field or method; implementations differ only in memory
/// layout. The engine is generic (and monomorphized) over this trait, so
/// both layouts compile to direct array accesses.
///
/// # Dirty-bit contract (incremental snapshots)
///
/// Every store tracks one **snapshot dirty bit per worker**, feeding the
/// engine's incremental snapshot builder. The bit must be set by every
/// mutation that can change what a scheduler snapshot observes of that
/// worker — its state, program possession, or `Delay(q)`:
///
/// * a state transition ([`Self::set_states`], changed entries only — a
///   worker that re-draws its current state is untouched);
/// * program progress ([`Self::set_prog_done`], changed values only);
/// * any pinned-pipeline mutation ([`Self::set_transfer`],
///   [`Self::set_buffered`], [`Self::set_computing`]);
/// * crash and cancellation cleanup ([`Self::crash_into`],
///   [`Self::cancel_task_into`]) when they actually clear program progress
///   or a pinned copy — a worker that stays `DOWN` is re-crashed every
///   slot but only dirties on the first.
///
/// Mutations that snapshots cannot observe need **not** set the bit:
/// [`Self::set_prog_began_at`] (a transfer-priority key, not a snapshot
/// field) and the bound-list operations ([`Self::bound_push`],
/// [`Self::bound_remove`], [`Self::drain_bound`] and bound-only
/// cancellations) — `Delay(q)` deliberately excludes bound copies, whose
/// placement the scheduler is re-deciding (\[D8\]). The bind→dissolve churn
/// of the replica path therefore leaves otherwise-idle workers clean.
///
/// Bits are **sticky** until [`Self::clear_snapshot_dirty`] drains them
/// (the engine consults snapshots lazily, so several slots of mutations
/// may accumulate), and [`Self::reset_for`] marks every worker dirty
/// (nothing about a fresh run is cached). The
/// `crates/sim/tests/soa_equivalence.rs` grid and a per-consult debug
/// assertion in the engine pin the contract: a missed bit shows up as an
/// incremental-vs-full snapshot divergence.
pub trait WorkerStore: Default + Send {
    /// Whether the engine should build scheduler snapshots **incrementally**
    /// from this store's dirty bits (patching only dirty workers in the
    /// persistent snapshot buffer) or rebuild them from scratch at every
    /// consult. The production [`WorkerSoA`] opts in; [`AosWorkers`] keeps
    /// the full rebuild so `ReferenceSimulation` stays a genuine oracle for
    /// the incremental path (its dirty bits are still maintained — the
    /// contract above is layout-independent — just not consumed).
    const INCREMENTAL_SNAPSHOTS: bool;

    /// Number of workers.
    fn len(&self) -> usize;

    /// True when the store holds no workers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rebuilds the store for a platform, reusing retained allocations
    /// (the arena-path equivalent of constructing fresh workers): after the
    /// call every worker is in the [`WorkerRuntime::new`] state for its
    /// spec.
    fn reset_for<I>(&mut self, specs: I)
    where
        I: ExactSizeIterator<Item = ProcessorSpec>;

    /// `w_q` of worker `q`.
    fn w(&self, q: usize) -> SlotSpan;

    /// State of worker `q` for the current slot.
    fn state(&self, q: usize) -> ProcState;

    /// Overwrites every worker's state from `states` (`states.len()` must
    /// equal [`Self::len`]) — phase 1's dense column write — and records
    /// the workers that flipped into `DOWN` in [`Self::newly_down`].
    fn set_states(&mut self, states: &[ProcState]);

    /// Workers whose state flipped into `DOWN` at the last
    /// [`Self::set_states`], ascending; empty after [`Self::reset_for`].
    /// These are the only workers a crash can strip: one that was already
    /// `DOWN` lost everything at its own flip, and nothing binds, transfers
    /// or computes on a non-`UP` worker since.
    fn newly_down(&self) -> &[u32];

    /// Slots of program received by worker `q`.
    fn prog_done(&self, q: usize) -> SlotSpan;

    /// Sets the program progress of worker `q`.
    fn set_prog_done(&mut self, q: usize, v: SlotSpan);

    /// Slot at which worker `q`'s current program transfer began.
    fn prog_began_at(&self, q: usize) -> Slot;

    /// Sets the program-transfer start slot of worker `q`.
    fn set_prog_began_at(&mut self, q: usize, v: Slot);

    /// In-flight data transfer of worker `q`.
    fn transfer(&self, q: usize) -> Option<TransferState>;

    /// Sets the in-flight data transfer of worker `q`.
    fn set_transfer(&mut self, q: usize, t: Option<TransferState>);

    /// Buffered (complete, waiting for compute) copy of worker `q`.
    fn buffered(&self, q: usize) -> Option<CopyId>;

    /// Sets the buffered copy of worker `q`.
    fn set_buffered(&mut self, q: usize, b: Option<CopyId>);

    /// Copy being computed by worker `q`.
    fn computing(&self, q: usize) -> Option<ComputeState>;

    /// Sets the computing state of worker `q`.
    fn set_computing(&mut self, q: usize, c: Option<ComputeState>);

    /// Advances worker `q`'s computation by one UP-slot, if one is in
    /// progress; returns the copy and whether it just reached `w_q` slots
    /// (complete). Semantically `computing()` + `set_computing(done + 1)`
    /// — the default does exactly that — but implementations can fuse the
    /// read-modify-write into one column access: compute progress never
    /// changes the occupancy, only the dirty bit.
    fn tick_compute(&mut self, q: usize) -> Option<(CopyId, bool)> {
        let mut c = self.computing(q)?;
        c.done += 1;
        let finished = c.done == self.w(q);
        self.set_computing(q, Some(c));
        Some((c.copy, finished))
    }

    /// Copies bound to worker `q` this slot (transfers not yet begun).
    fn bound(&self, q: usize) -> &[CopyId];

    /// Binds one more copy to worker `q`.
    fn bound_push(&mut self, q: usize, c: CopyId);

    /// Removes every bound copy equal to `c` from worker `q`.
    fn bound_remove(&mut self, q: usize, c: CopyId);

    /// Drains worker `q`'s bound list, feeding each copy to `f` in order.
    fn drain_bound(&mut self, q: usize, f: impl FnMut(CopyId));

    /// Does worker `q` hold a complete program copy?
    fn has_program(&self, q: usize, t_prog: SlotSpan) -> bool;

    /// Pinned copies of worker `q` (computing + buffered + transfer).
    fn pinned_count(&self, q: usize) -> usize;

    /// True if worker `q` is completely idle: nothing pinned, nothing bound.
    fn is_idle(&self, q: usize) -> bool;

    /// Negation of [`Self::is_idle`], for hot-loop early-outs: `true` iff
    /// anything is pinned or bound on worker `q`.
    fn busy(&self, q: usize) -> bool {
        !self.is_idle(q)
    }

    /// Whether any copy (pinned or bound) of `task` lives on worker `q`.
    fn has_copy_of(&self, q: usize, task: TaskId) -> bool;

    /// Room for one more bound copy on worker `q` (pipeline capacity 2).
    fn has_bind_room(&self, q: usize) -> bool;

    /// Number of workers that could accept one more bound copy this slot:
    /// `UP` with bind room. This is the **bindable capacity** the
    /// `PlacementBudget::BindCapacity` engine mode clips each pool request
    /// to — asking the scheduler for more placements than this can never
    /// yield more binds. The default is an O(p) accessor scan; dense-column
    /// layouts override it with a branch-light column walk (the engine
    /// cross-checks the override against this scan in debug builds).
    fn bindable_count(&self) -> usize {
        (0..self.len())
            .filter(|&q| self.state(q) == ProcState::Up && self.has_bind_room(q))
            .count()
    }

    /// Fills `out[q]` with worker `q`'s remaining bind room this slot:
    /// `2 − occupancy` for `UP` workers, 0 otherwise. The dense per-worker
    /// companion of [`Self::bindable_count`] — the capped placement round
    /// hands the column to the scheduler (as `SchedView::room`) so it can
    /// retire a worker the moment its room is spent. The default is an
    /// O(p) accessor scan; dense-column layouts override it with the same
    /// two-column walk as `bindable_count`.
    fn room_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend((0..self.len()).map(|q| {
            if self.state(q) != ProcState::Up {
                0
            } else if self.is_idle(q) {
                2
            } else if self.has_bind_room(q) {
                1
            } else {
                0
            }
        }));
    }

    /// Number of [`SUMMARY_BLOCK`]-wide blocks covering the platform.
    fn summary_blocks(&self) -> usize {
        self.len().div_ceil(SUMMARY_BLOCK)
    }

    /// May block `b` contain a busy (occupancy ≠ 0) worker? `false` is a
    /// **guarantee** that every worker in the block is idle, letting the
    /// compute / promotion passes skip it in one compare; `true` is
    /// non-committal. The default never commits — oracle layouts keep
    /// their original dense passes — while summary-maintaining layouts
    /// answer from the per-block busy count.
    fn block_may_be_busy(&self, _b: usize) -> bool {
        true
    }

    /// Whether [`Self::busy_word`] reads a maintained bitmap (O(1)) rather
    /// than the dense fallback below. Engine passes gate on this constant
    /// so oracle layouts keep their original block-chunked scans and the
    /// branch monomorphizes away.
    const HAS_BUSY_WORDS: bool = false;

    /// The 64-worker busy bitmap word `wi`: bit `q % 64` of word `q / 64`
    /// is set iff worker `q` is busy (occupancy ≠ 0). Words past the
    /// platform tail are zero-padded. The default recomputes the word
    /// densely — correct for every layout, but only worth calling when
    /// [`Self::HAS_BUSY_WORDS`] says the layout maintains the column.
    fn busy_word(&self, wi: usize) -> u64 {
        bit_word(self.len(), wi, |q| self.busy(q))
    }

    /// Per-state worker counts `[up, reclaimed, down]` for the current
    /// slot, if the layout maintains them (`None` sends the caller down a
    /// dense tally). Phase 1's state census consumes this — O(1) instead
    /// of an O(p) pass.
    fn state_census(&self) -> Option<[usize; 3]> {
        None
    }

    /// `Delay(q)` — see [`WorkerRuntime::delay_estimate`].
    fn delay_estimate(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) -> SlotSpan;

    /// Crash handling for worker `q` — see [`WorkerRuntime::crash_into`].
    fn crash_into(&mut self, q: usize, lost: &mut Vec<CopyId>);

    /// Cancels every copy of `task` on worker `q` — see
    /// [`WorkerRuntime::cancel_task_into`].
    fn cancel_task_into(&mut self, q: usize, task: TaskId, removed: &mut Vec<CopyId>);

    /// Whether worker `q` has a snapshot-visible mutation pending since the
    /// last [`Self::clear_snapshot_dirty`] — see the trait-level dirty-bit
    /// contract.
    fn snapshot_dirty(&self, q: usize) -> bool;

    /// The 64-worker dirty bitmap word `wi`: bit `q % 64` of word `q / 64`
    /// is [`Self::snapshot_dirty`] of worker `q`, words past the platform
    /// tail zero-padded. The incremental snapshot pass walks its set bits,
    /// so it costs O(dirty + p/64) rather than O(p). The default recomputes the
    /// word from the per-worker bits (the oracle layout, which never
    /// consumes it on the engine path); [`WorkerSoA`] stores the bitmap.
    fn dirty_word(&self, wi: usize) -> u64 {
        bit_word(self.len(), wi, |q| self.snapshot_dirty(q))
    }

    /// Clears every worker's dirty bit (the snapshot consumer has caught
    /// up).
    fn clear_snapshot_dirty(&mut self);

    /// Structural pipeline invariants of worker `q` (debug builds).
    fn assert_invariants(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan);
}

/// The retained AoS layout: a plain `Vec<WorkerRuntime>`, every operation
/// delegated to the original per-worker methods. This is the pre-SoA code
/// path, kept as the bit-identity oracle (and for tests that want to poke a
/// single worker's fields directly). It maintains the trait's dirty bits —
/// the contract is layout-independent — but opts out of incremental
/// snapshot consumption, so `ReferenceSimulation` rebuilds every snapshot
/// from scratch and genuinely cross-checks the incremental path.
#[derive(Debug, Default)]
pub struct AosWorkers {
    /// The workers, in processor order.
    pub workers: Vec<WorkerRuntime>,
    /// Snapshot dirty bits (see the [`WorkerStore`] contract).
    dirty: Vec<bool>,
    /// See [`WorkerStore::newly_down`].
    newly_down: Vec<u32>,
}

impl WorkerStore for AosWorkers {
    const INCREMENTAL_SNAPSHOTS: bool = false;

    #[inline]
    fn len(&self) -> usize {
        self.workers.len()
    }

    fn reset_for<I>(&mut self, specs: I)
    where
        I: ExactSizeIterator<Item = ProcessorSpec>,
    {
        let p = specs.len();
        self.workers.truncate(p);
        let mut specs = specs;
        for (w, spec) in self.workers.iter_mut().zip(specs.by_ref()) {
            w.reset(spec);
        }
        for spec in specs {
            self.workers.push(WorkerRuntime::new(spec));
        }
        refill(&mut self.dirty, p, true);
        self.newly_down.clear();
        self.newly_down.reserve(p);
    }

    #[inline]
    fn w(&self, q: usize) -> SlotSpan {
        self.workers[q].spec.w
    }

    #[inline]
    fn state(&self, q: usize) -> ProcState {
        self.workers[q].state
    }

    #[inline]
    fn set_states(&mut self, states: &[ProcState]) {
        self.newly_down.clear();
        for (q, (w, &s)) in self.workers.iter_mut().zip(states).enumerate() {
            if w.state != s {
                w.state = s;
                self.dirty[q] = true;
                if s == ProcState::Down {
                    self.newly_down.push(q as u32);
                }
            }
        }
    }

    #[inline]
    fn newly_down(&self) -> &[u32] {
        &self.newly_down
    }

    #[inline]
    fn prog_done(&self, q: usize) -> SlotSpan {
        self.workers[q].prog_done
    }

    #[inline]
    fn set_prog_done(&mut self, q: usize, v: SlotSpan) {
        if self.workers[q].prog_done != v {
            self.workers[q].prog_done = v;
            self.dirty[q] = true;
        }
    }

    #[inline]
    fn prog_began_at(&self, q: usize) -> Slot {
        self.workers[q].prog_began_at
    }

    #[inline]
    fn set_prog_began_at(&mut self, q: usize, v: Slot) {
        // Not a snapshot field (transfer-priority bookkeeping): no dirty.
        self.workers[q].prog_began_at = v;
    }

    #[inline]
    fn transfer(&self, q: usize) -> Option<TransferState> {
        self.workers[q].transfer
    }

    #[inline]
    fn set_transfer(&mut self, q: usize, t: Option<TransferState>) {
        self.workers[q].transfer = t;
        self.dirty[q] = true;
    }

    #[inline]
    fn buffered(&self, q: usize) -> Option<CopyId> {
        self.workers[q].buffered
    }

    #[inline]
    fn set_buffered(&mut self, q: usize, b: Option<CopyId>) {
        self.workers[q].buffered = b;
        self.dirty[q] = true;
    }

    #[inline]
    fn computing(&self, q: usize) -> Option<ComputeState> {
        self.workers[q].computing
    }

    #[inline]
    fn set_computing(&mut self, q: usize, c: Option<ComputeState>) {
        self.workers[q].computing = c;
        self.dirty[q] = true;
    }

    #[inline]
    fn bound(&self, q: usize) -> &[CopyId] {
        &self.workers[q].bound
    }

    #[inline]
    fn bound_push(&mut self, q: usize, c: CopyId) {
        self.workers[q].bound.push(c);
    }

    #[inline]
    fn bound_remove(&mut self, q: usize, c: CopyId) {
        self.workers[q].bound.retain(|x| *x != c);
    }

    #[inline]
    fn drain_bound(&mut self, q: usize, mut f: impl FnMut(CopyId)) {
        for c in self.workers[q].bound.drain(..) {
            f(c);
        }
    }

    #[inline]
    fn has_program(&self, q: usize, t_prog: SlotSpan) -> bool {
        self.workers[q].has_program(t_prog)
    }

    #[inline]
    fn pinned_count(&self, q: usize) -> usize {
        self.workers[q].pinned_count()
    }

    #[inline]
    fn is_idle(&self, q: usize) -> bool {
        self.workers[q].is_idle()
    }

    #[inline]
    fn has_copy_of(&self, q: usize, task: TaskId) -> bool {
        self.workers[q].has_copy_of(task)
    }

    #[inline]
    fn has_bind_room(&self, q: usize) -> bool {
        self.workers[q].has_bind_room()
    }

    #[inline]
    fn delay_estimate(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) -> SlotSpan {
        self.workers[q].delay_estimate(t_prog, t_data)
    }

    #[inline]
    fn crash_into(&mut self, q: usize, lost: &mut Vec<CopyId>) {
        if self.workers[q].crash_into(lost) {
            self.dirty[q] = true;
        }
    }

    #[inline]
    fn cancel_task_into(&mut self, q: usize, task: TaskId, removed: &mut Vec<CopyId>) {
        if self.workers[q].cancel_task_into(task, removed) {
            self.dirty[q] = true;
        }
    }

    #[inline]
    fn snapshot_dirty(&self, q: usize) -> bool {
        self.dirty[q]
    }

    #[inline]
    fn clear_snapshot_dirty(&mut self) {
        self.dirty.fill(false);
    }

    #[inline]
    fn assert_invariants(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) {
        self.workers[q].assert_invariants(t_prog, t_data);
    }
}

/// The hot/cold SoA layout (see the module docs). Field-for-field equivalent
/// to `Vec<WorkerRuntime>`, stored column-wise.
#[derive(Debug, Default)]
pub struct WorkerSoA {
    // --- hot columns: walked densely every slot ---------------------------
    /// State for the current slot (1 byte per worker; phase 1's column).
    state: Vec<ProcState>,
    /// `w_q` (snapshot build + compute phase).
    w: Vec<SlotSpan>,
    /// Slots of program received.
    prog_done: Vec<SlotSpan>,
    /// Copy being computed.
    computing: Vec<Option<ComputeState>>,
    /// Data transfer in flight.
    transfer: Vec<Option<TransferState>>,
    /// Copy whose data is complete, waiting for the compute unit.
    buffered: Vec<Option<CopyId>>,
    /// Derived hot column: `pinned_count + bound.len()` per worker, kept in
    /// sync by every mutator. Collapses `is_idle` / `busy` /
    /// `has_bind_room` — the free count of the replica path above all —
    /// to a single byte read instead of three `Option` columns plus a
    /// `Vec` header chase. The SoA⇄AoS oracle grid pins its consistency.
    occupancy: Vec<u8>,
    /// Snapshot dirty bitmap (see the [`WorkerStore`] contract): bit
    /// `q % 64` of word `q / 64` is worker `q`'s dirty bit, bits past p
    /// zero. Written by pipeline mutators, drained by the incremental
    /// snapshot pass, which walks only the set bits
    /// ([`WorkerStore::dirty_word`]).
    dirty: Vec<u64>,
    // --- block summaries: one entry per SUMMARY_BLOCK workers -------------
    /// Busy workers (occupancy ≠ 0) per block; maintained by
    /// [`Self::occ_inc`] / [`Self::occ_sub`] on every 0 ↔ non-zero flip.
    blk_busy: Vec<u16>,
    /// Busy bitmap: bit `q % 64` of word `q / 64` is set iff worker `q` is
    /// busy (occupancy ≠ 0). Maintained at the same two flip points as
    /// `blk_busy`, consumed by the engine's busy-worker iteration
    /// ([`WorkerStore::busy_word`]) so the compute / transfer-continuation /
    /// promotion passes cost O(busy) instead of O(p) at platform scale.
    busy_words: Vec<u64>,
    /// `UP` workers per block (maintained by [`Self::set_states`]).
    blk_up: Vec<u16>,
    /// `DOWN` workers per block (maintained by [`Self::set_states`]).
    blk_down: Vec<u16>,
    /// Σ `blk_up` — with `blk_down`'s sum this is the O(1) state census.
    up_total: usize,
    /// Σ `blk_down`.
    down_total: usize,
    /// See [`WorkerStore::newly_down`]; filled by the changed-block diff of
    /// [`Self::set_states`].
    newly_down: Vec<u32>,
    // --- cold columns: touched on binds / crashes only --------------------
    /// Slot at which the current program transfer began.
    prog_began_at: Vec<Slot>,
    /// Copies bound this slot; inner allocations retained across runs.
    bound: Vec<Vec<CopyId>>,
}

impl WorkerSoA {
    /// Sets worker `q`'s snapshot dirty bit.
    #[inline]
    fn mark_dirty(&mut self, q: usize) {
        self.dirty[q / 64] |= 1u64 << (q % 64);
    }

    /// Increments worker `q`'s occupancy byte, maintaining the block busy
    /// count. The documented pipeline bound — `pinned_count + bound.len()`
    /// never exceeds 2 (`has_bind_room` gates every bind; promotions clear
    /// a stage before filling the next) — is asserted on every increment,
    /// so a future pipeline change that would wrap the byte, or silently
    /// corrupt `room_into` / `bindable_count` (both assume occupancy ≤ 2),
    /// fails loudly in debug builds.
    #[inline]
    fn occ_inc(&mut self, q: usize) {
        let occ = self.occupancy[q];
        debug_assert!(
            occ < 2,
            "occupancy overflow on worker {q}: {occ} + 1 breaks the pipeline bound (≤ 2)"
        );
        self.occupancy[q] = occ + 1;
        if occ == 0 {
            self.blk_busy[q / SUMMARY_BLOCK] += 1;
            self.busy_words[q / 64] |= 1u64 << (q % 64);
        }
    }

    /// Decrements worker `q`'s occupancy byte by `by`, maintaining the
    /// block busy count. Bound-list deltas arrive as `usize` and are
    /// narrowed here — sound only under the ≤ 2 bound, which the
    /// underflow assertion restates.
    #[inline]
    fn occ_sub(&mut self, q: usize, by: usize) {
        if by == 0 {
            return;
        }
        let occ = self.occupancy[q];
        debug_assert!(
            usize::from(occ) >= by,
            "occupancy underflow on worker {q}: {occ} - {by}"
        );
        let now = occ.wrapping_sub(by as u8);
        self.occupancy[q] = now;
        if now == 0 {
            self.blk_busy[q / SUMMARY_BLOCK] -= 1;
            self.busy_words[q / 64] &= !(1u64 << (q % 64));
        }
    }
}

/// `memset`-style column reinit: one `clear` + one `resize` fill pass over
/// the retained allocation.
#[inline]
fn refill<T: Clone>(v: &mut Vec<T>, p: usize, value: T) {
    v.clear();
    v.resize(p, value);
}

impl WorkerStore for WorkerSoA {
    const INCREMENTAL_SNAPSHOTS: bool = true;
    const HAS_BUSY_WORDS: bool = true;

    #[inline]
    fn len(&self) -> usize {
        self.state.len()
    }

    fn reset_for<I>(&mut self, specs: I)
    where
        I: ExactSizeIterator<Item = ProcessorSpec>,
    {
        let p = specs.len();
        self.w.clear();
        self.w.extend(specs.map(|s| s.w));
        refill(&mut self.state, p, ProcState::Reclaimed);
        refill(&mut self.prog_done, p, 0);
        refill(&mut self.computing, p, None);
        refill(&mut self.transfer, p, None);
        refill(&mut self.buffered, p, None);
        refill(&mut self.occupancy, p, 0);
        // Everything about a fresh run is unknown to any snapshot consumer;
        // stale bits from a previous (possibly larger) platform must not
        // leak through an arena reuse. Only real workers are marked: the
        // tail word's bits past p stay zero.
        refill(&mut self.dirty, p.div_ceil(64), !0);
        if let Some(tail) = self.dirty.last_mut() {
            *tail >>= 64 * p.div_ceil(64) - p;
        }
        // Fresh platform: everyone Reclaimed and idle — zero the summaries.
        let nblocks = p.div_ceil(SUMMARY_BLOCK);
        refill(&mut self.blk_busy, nblocks, 0);
        refill(&mut self.busy_words, p.div_ceil(64), 0);
        refill(&mut self.blk_up, nblocks, 0);
        refill(&mut self.blk_down, nblocks, 0);
        self.up_total = 0;
        self.down_total = 0;
        self.newly_down.clear();
        self.newly_down.reserve(p);
        refill(&mut self.prog_began_at, p, 0);
        // `bound` keeps each retained worker's allocation alive.
        self.bound.truncate(p);
        for b in &mut self.bound {
            b.clear();
        }
        if self.bound.len() < p {
            self.bound.resize_with(p, Vec::new);
        }
    }

    #[inline]
    fn w(&self, q: usize) -> SlotSpan {
        self.w[q]
    }

    #[inline]
    fn state(&self, q: usize) -> ProcState {
        self.state[q]
    }

    fn set_states(&mut self, states: &[ProcState]) {
        debug_assert_eq!(states.len(), self.state.len());
        // Changed states dirty their worker (a non-UP delay sentinel, or a
        // stale delay from before a suspension, must be rewritten when the
        // state flips); unchanged ones stay clean, and flips into DOWN are
        // listed for the crash pass. The pass runs block by block: a block
        // whose 256-byte window re-draws identically is dismissed by one
        // slice compare, and only changed blocks pay the per-worker diff
        // plus the up/down count rebuild.
        self.newly_down.clear();
        let p = self.state.len();
        let (mut start, mut b) = (0, 0);
        while start < p {
            let end = (start + SUMMARY_BLOCK).min(p);
            if self.state[start..end] != states[start..end] {
                let (mut up, mut down) = (0u16, 0u16);
                for (q, &src) in states[start..end].iter().enumerate() {
                    let q = start + q;
                    // The dirty mark is or-ed in: a branch on the flip
                    // itself would mispredict at the chain's transition
                    // rate.
                    let flip = self.state[q] != src;
                    self.dirty[q / 64] |= u64::from(flip) << (q % 64);
                    let is_down = src == ProcState::Down;
                    if flip && is_down {
                        self.newly_down.push(q as u32);
                    }
                    up += u16::from(src == ProcState::Up);
                    down += u16::from(is_down);
                }
                self.up_total = self.up_total + usize::from(up) - usize::from(self.blk_up[b]);
                self.down_total =
                    self.down_total + usize::from(down) - usize::from(self.blk_down[b]);
                self.blk_up[b] = up;
                self.blk_down[b] = down;
                self.state[start..end].copy_from_slice(&states[start..end]);
            }
            start = end;
            b += 1;
        }
    }

    #[inline]
    fn newly_down(&self) -> &[u32] {
        &self.newly_down
    }

    #[inline]
    fn prog_done(&self, q: usize) -> SlotSpan {
        self.prog_done[q]
    }

    #[inline]
    fn set_prog_done(&mut self, q: usize, v: SlotSpan) {
        if self.prog_done[q] != v {
            self.prog_done[q] = v;
            self.mark_dirty(q);
        }
    }

    #[inline]
    fn prog_began_at(&self, q: usize) -> Slot {
        self.prog_began_at[q]
    }

    #[inline]
    fn set_prog_began_at(&mut self, q: usize, v: Slot) {
        self.prog_began_at[q] = v;
    }

    #[inline]
    fn transfer(&self, q: usize) -> Option<TransferState> {
        self.transfer[q]
    }

    #[inline]
    fn set_transfer(&mut self, q: usize, t: Option<TransferState>) {
        let had = self.transfer[q].is_some();
        self.transfer[q] = t;
        self.mark_dirty(q);
        match (had, t.is_some()) {
            (false, true) => self.occ_inc(q),
            (true, false) => self.occ_sub(q, 1),
            _ => {}
        }
    }

    #[inline]
    fn buffered(&self, q: usize) -> Option<CopyId> {
        self.buffered[q]
    }

    #[inline]
    fn set_buffered(&mut self, q: usize, b: Option<CopyId>) {
        let had = self.buffered[q].is_some();
        self.buffered[q] = b;
        self.mark_dirty(q);
        match (had, b.is_some()) {
            (false, true) => self.occ_inc(q),
            (true, false) => self.occ_sub(q, 1),
            _ => {}
        }
    }

    #[inline]
    fn computing(&self, q: usize) -> Option<ComputeState> {
        self.computing[q]
    }

    #[inline]
    fn set_computing(&mut self, q: usize, c: Option<ComputeState>) {
        let had = self.computing[q].is_some();
        self.computing[q] = c;
        self.mark_dirty(q);
        match (had, c.is_some()) {
            (false, true) => self.occ_inc(q),
            (true, false) => self.occ_sub(q, 1),
            _ => {}
        }
    }

    #[inline]
    fn tick_compute(&mut self, q: usize) -> Option<(CopyId, bool)> {
        // One in-place column access: progress changes neither the
        // occupancy nor the Option discriminant, only `done` and the
        // dirty bit.
        let c = self.computing[q].as_mut()?;
        c.done += 1;
        let ticked = (c.copy, c.done == self.w[q]);
        self.mark_dirty(q);
        Some(ticked)
    }

    #[inline]
    fn bound(&self, q: usize) -> &[CopyId] {
        &self.bound[q]
    }

    #[inline]
    fn bound_push(&mut self, q: usize, c: CopyId) {
        self.bound[q].push(c);
        self.occ_inc(q);
    }

    #[inline]
    fn bound_remove(&mut self, q: usize, c: CopyId) {
        // The delta narrows to u8 inside occ_sub, under its underflow
        // assertion — sound while the ≤ 2 pipeline bound holds.
        let before = self.bound[q].len();
        self.bound[q].retain(|x| *x != c);
        let removed = before - self.bound[q].len();
        self.occ_sub(q, removed);
    }

    #[inline]
    fn drain_bound(&mut self, q: usize, mut f: impl FnMut(CopyId)) {
        let n = self.bound[q].len();
        self.occ_sub(q, n);
        for c in self.bound[q].drain(..) {
            f(c);
        }
    }

    #[inline]
    fn has_program(&self, q: usize, t_prog: SlotSpan) -> bool {
        self.prog_done[q] >= t_prog
    }

    #[inline]
    fn pinned_count(&self, q: usize) -> usize {
        usize::from(self.transfer[q].is_some())
            + usize::from(self.buffered[q].is_some())
            + usize::from(self.computing[q].is_some())
    }

    #[inline]
    fn is_idle(&self, q: usize) -> bool {
        self.occupancy[q] == 0
    }

    #[inline]
    fn busy(&self, q: usize) -> bool {
        self.occupancy[q] != 0
    }

    #[inline]
    fn has_copy_of(&self, q: usize, task: TaskId) -> bool {
        self.occupancy[q] != 0
            && (self.computing[q].is_some_and(|c| c.copy.task == task)
                || self.buffered[q].is_some_and(|b| b.task == task)
                || self.transfer[q].is_some_and(|t| t.copy.task == task)
                || self.bound[q].iter().any(|c| c.task == task))
    }

    #[inline]
    fn has_bind_room(&self, q: usize) -> bool {
        self.occupancy[q] < 2
    }

    fn bindable_count(&self) -> usize {
        // One pass over the two hot byte-wide columns, without the
        // per-worker accessor dispatch of the default implementation.
        self.state
            .iter()
            .zip(&self.occupancy)
            .filter(|&(&s, &occ)| s == ProcState::Up && occ < 2)
            .count()
    }

    fn room_into(&self, out: &mut Vec<u8>) {
        // Same two-column walk as `bindable_count`, emitting the per-worker
        // remainder instead of the population count.
        out.clear();
        out.extend(self.state.iter().zip(&self.occupancy).map(|(&s, &occ)| {
            if s == ProcState::Up {
                2u8.saturating_sub(occ)
            } else {
                0
            }
        }));
    }

    #[inline]
    fn delay_estimate(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) -> SlotSpan {
        // Mirrors WorkerRuntime::delay_estimate over the columns.
        let prog_rem = t_prog.saturating_sub(self.prog_done[q]);
        let mut comm_free = prog_rem;
        let mut compute_free = 0;
        if let Some(c) = self.computing[q] {
            compute_free = self.w[q] - c.done;
        }
        if self.buffered[q].is_some() {
            compute_free += self.w[q];
        }
        if let Some(tr) = self.transfer[q] {
            let data_ready = comm_free + (t_data - tr.done);
            comm_free = data_ready;
            compute_free = compute_free.max(data_ready) + self.w[q];
        }
        compute_free.max(comm_free)
    }

    fn crash_into(&mut self, q: usize, lost: &mut Vec<CopyId>) {
        // Only a change dirties: a worker that stays DOWN is re-crashed
        // every slot on an already-empty pipeline.
        let mut changed = self.prog_done[q] != 0;
        self.prog_done[q] = 0;
        if let Some(c) = self.computing[q].take() {
            lost.push(c.copy);
            self.occ_sub(q, 1);
            changed = true;
        }
        if let Some(b) = self.buffered[q].take() {
            lost.push(b);
            self.occ_sub(q, 1);
            changed = true;
        }
        if let Some(t) = self.transfer[q].take() {
            lost.push(t.copy);
            self.occ_sub(q, 1);
            changed = true;
        }
        if changed {
            self.mark_dirty(q);
        }
    }

    fn cancel_task_into(&mut self, q: usize, task: TaskId, removed: &mut Vec<CopyId>) {
        if self.occupancy[q] == 0 {
            return; // nothing pinned or bound — nothing to cancel
        }
        if let Some(c) = self.computing[q].take_if(|c| c.copy.task == task) {
            removed.push(c.copy);
            self.occ_sub(q, 1);
            self.mark_dirty(q);
        }
        if let Some(b) = self.buffered[q].take_if(|b| b.task == task) {
            removed.push(b);
            self.occ_sub(q, 1);
            self.mark_dirty(q);
        }
        if let Some(t) = self.transfer[q].take_if(|t| t.copy.task == task) {
            removed.push(t.copy);
            self.occ_sub(q, 1);
            self.mark_dirty(q);
        }
        // Bound removals stay clean: Delay(q) excludes bound copies ([D8]).
        let mut i = 0;
        while i < self.bound[q].len() {
            if self.bound[q][i].task == task {
                let c = self.bound[q].remove(i);
                removed.push(c);
                self.occ_sub(q, 1);
            } else {
                i += 1;
            }
        }
    }

    #[inline]
    fn block_may_be_busy(&self, b: usize) -> bool {
        self.blk_busy[b] != 0
    }

    #[inline]
    fn busy_word(&self, wi: usize) -> u64 {
        self.busy_words[wi]
    }

    #[inline]
    fn state_census(&self) -> Option<[usize; 3]> {
        let p = self.state.len();
        Some([
            self.up_total,
            p - self.up_total - self.down_total,
            self.down_total,
        ])
    }

    #[inline]
    fn snapshot_dirty(&self, q: usize) -> bool {
        self.dirty[q / 64] & (1u64 << (q % 64)) != 0
    }

    #[inline]
    fn dirty_word(&self, wi: usize) -> u64 {
        self.dirty[wi]
    }

    #[inline]
    fn clear_snapshot_dirty(&mut self) {
        self.dirty.fill(0);
    }

    fn assert_invariants(&self, q: usize, t_prog: SlotSpan, t_data: SlotSpan) {
        // Validation-time restatement of the pipeline bound: `room_into`,
        // `bindable_count` and the bound-delta narrowing in `bound_remove`
        // / `drain_bound` (routed through `occ_sub`) all assume occupancy
        // never exceeds 2 — `occ_inc` asserts it at every increment, this
        // re-checks it wherever the engine validates a worker.
        assert!(
            self.occupancy[q] <= 2,
            "occupancy {} on worker {q} exceeds the pipeline bound (≤ 2)",
            self.occupancy[q]
        );
        // The derived occupancy byte must track the ground truth — every
        // predicate collapsed onto it (is_idle/busy/has_bind_room) is wrong
        // if a mutator skipped the bookkeeping.
        assert_eq!(
            usize::from(self.occupancy[q]),
            usize::from(self.transfer[q].is_some())
                + usize::from(self.buffered[q].is_some())
                + usize::from(self.computing[q].is_some())
                + self.bound[q].len(),
            "occupancy column out of sync on worker {q}"
        );
        // Materialize the worker and reuse the canonical checks; this runs
        // in debug builds only, so the transient allocation is acceptable.
        let w = WorkerRuntime {
            spec: ProcessorSpec::new(self.w[q]),
            state: self.state[q],
            prog_done: self.prog_done[q],
            prog_began_at: self.prog_began_at[q],
            transfer: self.transfer[q],
            buffered: self.buffered[q],
            computing: self.computing[q],
            bound: self.bound[q].clone(), // tidy:allow(hot_alloc): debug-build invariant check only.
        };
        w.assert_invariants(t_prog, t_data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn copy(task: u32, replica: u8) -> CopyId {
        CopyId {
            task: TaskId(task),
            replica,
        }
    }

    fn specs(ws: &[SlotSpan]) -> Vec<ProcessorSpec> {
        ws.iter().map(|&w| ProcessorSpec::new(w)).collect()
    }

    /// Drives both layouts through the same mutation script and asserts
    /// every observable agrees after every step — a differential unit test
    /// below the engine-level oracle.
    #[test]
    fn soa_and_aos_agree_on_a_mutation_script() {
        let mut soa = WorkerSoA::default();
        let mut aos = AosWorkers::default();
        let sp = specs(&[3, 5, 2]);
        soa.reset_for(sp.iter().copied());
        aos.reset_for(sp.iter().copied());

        let states = [ProcState::Up, ProcState::Reclaimed, ProcState::Up];
        soa.set_states(&states);
        aos.set_states(&states);

        // Build a busy pipeline on worker 0, a partial program on worker 2.
        for s in [&mut soa as &mut dyn Probe, &mut aos as &mut dyn Probe] {
            s.script();
        }

        let (t_prog, t_data) = (4, 2);
        assert_eq!(soa.len(), aos.len());
        for q in 0..soa.len() {
            assert_eq!(soa.w(q), aos.w(q), "w {q}");
            assert_eq!(soa.state(q), aos.state(q), "state {q}");
            assert_eq!(soa.prog_done(q), aos.prog_done(q), "prog_done {q}");
            assert_eq!(soa.transfer(q), aos.transfer(q), "transfer {q}");
            assert_eq!(soa.buffered(q), aos.buffered(q), "buffered {q}");
            assert_eq!(soa.computing(q), aos.computing(q), "computing {q}");
            assert_eq!(soa.bound(q), aos.bound(q), "bound {q}");
            assert_eq!(soa.pinned_count(q), aos.pinned_count(q));
            assert_eq!(soa.is_idle(q), aos.is_idle(q));
            assert_eq!(soa.has_bind_room(q), aos.has_bind_room(q));
            assert_eq!(soa.has_program(q, t_prog), aos.has_program(q, t_prog));
            assert_eq!(
                soa.delay_estimate(q, t_prog, t_data),
                aos.delay_estimate(q, t_prog, t_data),
                "delay {q}"
            );
            for t in 0..4 {
                assert_eq!(
                    soa.has_copy_of(q, TaskId(t)),
                    aos.has_copy_of(q, TaskId(t)),
                    "has_copy_of {q} T{t}"
                );
            }
        }

        // Dirty bits agree after the identical script.
        for q in 0..soa.len() {
            assert_eq!(
                soa.snapshot_dirty(q),
                aos.snapshot_dirty(q),
                "dirty bit {q}"
            );
        }
        assert_dirty_words_agree(&soa, &aos, "script");

        // tick_compute advances identically (worker 0 computes: w = 3,
        // done = 1 → 2 → 3 completes; worker 2 computes nothing).
        assert_eq!(soa.tick_compute(2), aos.tick_compute(2));
        assert_eq!(soa.tick_compute(2), None);
        for expect_finished in [false, true] {
            let a = soa.tick_compute(0);
            assert_eq!(a, aos.tick_compute(0));
            let (c, finished) = a.expect("worker 0 is computing");
            assert_eq!(c, copy(0, 0));
            assert_eq!(finished, expect_finished);
            assert_eq!(soa.computing(0), aos.computing(0));
            assert_eq!(soa.pinned_count(0), aos.pinned_count(0));
            assert!(soa.snapshot_dirty(0) && aos.snapshot_dirty(0));
        }

        // Crash + cancel drain identically.
        let (mut la, mut lb) = (Vec::new(), Vec::new());
        soa.crash_into(0, &mut la);
        aos.crash_into(0, &mut lb);
        assert_eq!(la, lb);
        la.clear();
        lb.clear();
        soa.cancel_task_into(2, TaskId(3), &mut la);
        aos.cancel_task_into(2, TaskId(3), &mut lb);
        assert_eq!(la, lb);
    }

    /// SoA's stored dirty words equal the AoS default (recomputed from the
    /// per-worker bits) on every word.
    fn assert_dirty_words_agree(soa: &WorkerSoA, aos: &AosWorkers, ctx: &str) {
        assert_eq!(soa.len(), aos.len());
        for wi in 0..soa.len().div_ceil(64) {
            assert_eq!(
                soa.dirty_word(wi),
                aos.dirty_word(wi),
                "word {wi} after {ctx}"
            );
        }
    }

    /// The two layouts' dirty words agree word for word on a three-word
    /// platform (the last word partial) through redraws, mutations, drains
    /// and grow/shrink resets.
    #[test]
    fn soa_dirty_words_match_the_aos_default() {
        use ProcState::{Down, Reclaimed, Up};
        let (mut soa, mut aos) = (WorkerSoA::default(), AosWorkers::default());
        for shape in [130usize, 70, 1, 130] {
            soa.reset_for(specs(&vec![3; shape]).into_iter());
            aos.reset_for(specs(&vec![3; shape]).into_iter());
            assert_dirty_words_agree(&soa, &aos, "reset");
            soa.clear_snapshot_dirty();
            aos.clear_snapshot_dirty();
            assert_dirty_words_agree(&soa, &aos, "clear");
            let states: Vec<ProcState> = (0..shape).map(|q| [Up, Reclaimed, Down][q % 3]).collect();
            soa.set_states(&states);
            aos.set_states(&states);
            assert_dirty_words_agree(&soa, &aos, "redraw");
            soa.clear_snapshot_dirty();
            aos.clear_snapshot_dirty();
            for q in [0, 63, 64, 127, 129].into_iter().filter(|&q| q < shape) {
                soa.set_prog_done(q, 1);
                aos.set_prog_done(q, 1);
            }
            assert_dirty_words_agree(&soa, &aos, "progress");
        }
    }

    /// Every dirty word equals its per-worker recomputation, so no bit at
    /// or beyond `len()` is set.
    fn assert_dirty_words_consistent<S: WorkerStore>(store: &S, ctx: &str) {
        for wi in 0..store.len().div_ceil(64) {
            assert_eq!(
                store.dirty_word(wi),
                bit_word(store.len(), wi, |q| store.snapshot_dirty(q)),
                "word {wi} after {ctx}"
            );
        }
    }

    /// The trait-level dirty-bit contract, checked against both layouts:
    /// snapshot-visible mutations set the bit, unobservable ones do not,
    /// and resets (arena reuse across resizes) never leak stale bits.
    fn check_dirty_contract<S: WorkerStore>(store: &mut S) {
        store.reset_for(specs(&[1, 2, 3, 4]).into_iter());
        assert!(
            (0..4).all(|q| store.snapshot_dirty(q)),
            "reset_for must mark everything dirty"
        );
        assert_eq!(store.dirty_word(0), 0b1111, "reset marks only real workers");
        store.clear_snapshot_dirty();
        assert!((0..4).all(|q| !store.snapshot_dirty(q)));
        assert_eq!(store.dirty_word(0), 0);

        // Program progress dirties its worker alone; an identical rewrite
        // stays clean.
        store.set_prog_done(2, 1);
        assert!(store.snapshot_dirty(2));
        assert!(!store.snapshot_dirty(1));
        store.clear_snapshot_dirty();
        store.set_prog_done(2, 1);
        assert!(!store.snapshot_dirty(2), "no-op prog write must stay clean");

        // Changed states dirty; re-drawing the current state does not.
        use ProcState::{Reclaimed, Up};
        store.set_states(&[Up, Up, Reclaimed, Reclaimed]);
        assert!(store.snapshot_dirty(0) && store.snapshot_dirty(1));
        assert!(!store.snapshot_dirty(2) && !store.snapshot_dirty(3));

        // Bound-list churn is not snapshot-visible (Delay(q) excludes
        // bound copies, [D8]): the replica bind→dissolve cycle stays clean.
        store.clear_snapshot_dirty();
        store.bound_push(1, copy(7, 1));
        store.bound_remove(1, copy(7, 1));
        store.bound_push(1, copy(8, 1));
        store.drain_bound(1, |_| {});
        store.set_prog_began_at(1, 9);
        assert!(!store.snapshot_dirty(1), "bound churn must stay clean");

        // Crashing an already-empty worker (stays DOWN) is clean; crashing
        // one with progress dirties it.
        let mut lost = Vec::new();
        store.crash_into(0, &mut lost);
        assert!(!store.snapshot_dirty(0), "empty crash must stay clean");
        store.crash_into(2, &mut lost);
        assert!(store.snapshot_dirty(2), "crash with progress dirties");

        // Pinned-pipeline mutations dirty; canceling a bound-only copy
        // does not, canceling a pinned one does.
        store.clear_snapshot_dirty();
        store.set_computing(
            3,
            Some(ComputeState {
                copy: copy(5, 0),
                done: 0,
            }),
        );
        assert!(store.snapshot_dirty(3));
        store.clear_snapshot_dirty();
        let mut removed = Vec::new();
        store.bound_push(1, copy(6, 0));
        store.cancel_task_into(1, TaskId(6), &mut removed);
        assert!(!store.snapshot_dirty(1), "bound-only cancel stays clean");
        store.cancel_task_into(3, TaskId(5), &mut removed);
        assert!(store.snapshot_dirty(3), "pinned cancel dirties");

        // tick_compute dirties the advanced worker.
        store.clear_snapshot_dirty();
        store.set_prog_done(3, 4);
        store.set_computing(
            3,
            Some(ComputeState {
                copy: copy(5, 0),
                done: 0,
            }),
        );
        store.clear_snapshot_dirty();
        assert_eq!(store.tick_compute(3), Some((copy(5, 0), false)));
        assert!(store.snapshot_dirty(3));

        // Shrink then regrow: every reset re-marks the *current* workers
        // and the grown tail cannot inherit a stale clean bit.
        store.reset_for(specs(&[5]).into_iter());
        assert!(store.snapshot_dirty(0));
        store.clear_snapshot_dirty();
        store.reset_for(specs(&[1, 2, 3, 4, 5, 6]).into_iter());
        assert!((0..6).all(|q| store.snapshot_dirty(q)));

        // At p = 130 (the third word partial) no bit at or beyond p is
        // set after a reset, nor after a shrinking or growing reuse.
        let full_130 = [!0u64, !0, 0b11];
        store.reset_for(specs(&[2; 130]).into_iter());
        assert_eq!([0, 1, 2].map(|wi| store.dirty_word(wi)), full_130);
        store.clear_snapshot_dirty();
        store.set_prog_done(129, 1);
        store.set_prog_done(64, 1);
        assert_eq!([0, 1, 2].map(|wi| store.dirty_word(wi)), [0, 1, 0b10]);
        assert_dirty_words_consistent(store, "progress at p = 130");
        store.reset_for(specs(&[2; 70]).into_iter());
        assert_eq!([0, 1].map(|wi| store.dirty_word(wi)), [!0, 0b11_1111]);
        assert_dirty_words_consistent(store, "shrink to 70");
        store.clear_snapshot_dirty();
        store.reset_for(specs(&[2; 130]).into_iter());
        assert_eq!([0, 1, 2].map(|wi| store.dirty_word(wi)), full_130);
        assert_dirty_words_consistent(store, "regrow to 130");
    }

    #[test]
    fn dirty_bit_contract_holds_for_both_layouts() {
        check_dirty_contract(&mut WorkerSoA::default());
        check_dirty_contract(&mut AosWorkers::default());
    }

    /// Recomputes every busy word densely from `busy(q)` and asserts the
    /// maintained bitmap agrees — the invariant the engine's bit-iteration
    /// passes rely on.
    fn assert_busy_words_consistent<S: WorkerStore>(store: &S, ctx: &str) {
        for wi in 0..store.len().div_ceil(64) {
            let mut expect = 0u64;
            let start = wi * 64;
            for q in start..(start + 64).min(store.len()) {
                expect |= u64::from(store.busy(q)) << (q - start);
            }
            assert_eq!(store.busy_word(wi), expect, "word {wi} after {ctx}");
        }
    }

    /// The busy bitmap tracks every occupancy 0 ↔ non-zero flip, across a
    /// word boundary, through binds, pins, crashes, and arena-reuse resets.
    #[test]
    fn busy_words_track_occupancy_flips() {
        let mut store = WorkerSoA::default();
        // 130 workers: three words, the last one partial.
        let sp = specs(&vec![2; 130]);
        store.reset_for(sp.iter().copied());
        assert_busy_words_consistent(&store, "reset");

        // Bind on both sides of the word boundary, pin one copy, stack a
        // second on worker 63 (the flip must fire once, not per copy).
        for q in [0usize, 63, 64, 129] {
            store.bound_push(q, copy(q as u32, 0));
        }
        store.bound_push(63, copy(200, 1));
        assert_busy_words_consistent(&store, "binds");
        assert_eq!(store.busy_word(0), (1 << 0) | (1 << 63));
        assert_eq!(store.busy_word(1), 1 << 0);
        assert_eq!(store.busy_word(2), 1 << 1);

        store.set_computing(
            70,
            Some(ComputeState {
                copy: copy(70, 0),
                done: 0,
            }),
        );
        assert_busy_words_consistent(&store, "pin");

        // Partial drains: worker 63 stays busy after losing one of two
        // copies, goes idle after losing the last.
        store.bound_remove(63, copy(200, 1));
        assert_busy_words_consistent(&store, "partial unbind");
        assert!(store.busy(63));
        store.drain_bound(63, |_| {});
        assert_busy_words_consistent(&store, "full unbind");
        assert!(!store.busy(63));

        // Crash clears the whole pipeline in one step.
        let mut lost = Vec::new();
        store.crash_into(70, &mut lost);
        assert_busy_words_consistent(&store, "crash");
        assert!(!store.busy(70));

        // Arena reuse onto a smaller platform must not leak stale bits
        // through the shrunken word count.
        store.reset_for(specs(&[1, 1, 1]).into_iter());
        assert_busy_words_consistent(&store, "shrinking reset");
        assert_eq!(store.busy_word(0), 0);
    }

    /// Shared mutation script for the differential test.
    trait Probe {
        fn script(&mut self);
    }

    impl<S: WorkerStore> Probe for S {
        fn script(&mut self) {
            self.set_prog_done(0, 4);
            self.set_computing(
                0,
                Some(ComputeState {
                    copy: copy(0, 0),
                    done: 1,
                }),
            );
            self.set_transfer(
                0,
                Some(TransferState {
                    copy: copy(1, 0),
                    done: 1,
                    began_at: 2,
                }),
            );
            self.set_prog_done(2, 2);
            self.set_prog_began_at(2, 1);
            self.bound_push(2, copy(3, 0));
            self.bound_push(2, copy(2, 1));
            self.bound_remove(2, copy(2, 1));
            self.bound_push(2, copy(3, 1));
            // drain_bound restores 2's bound list after observing it.
            let mut seen = Vec::new();
            self.drain_bound(2, |c| seen.push(c));
            assert_eq!(seen, vec![copy(3, 0), copy(3, 1)]);
            for c in seen {
                self.bound_push(2, c);
            }
        }
    }

    /// Recomputes every block summary from the raw columns and asserts the
    /// maintained counts agree — the ground truth for the skip hints.
    fn check_summaries(soa: &WorkerSoA) {
        let p = soa.state.len();
        let nblocks = p.div_ceil(SUMMARY_BLOCK);
        assert_eq!(soa.blk_busy.len(), nblocks);
        let (mut up_total, mut down_total) = (0, 0);
        for b in 0..nblocks {
            let start = b * SUMMARY_BLOCK;
            let end = (start + SUMMARY_BLOCK).min(p);
            let busy = (start..end).filter(|&q| soa.occupancy[q] != 0).count();
            let up = (start..end)
                .filter(|&q| soa.state[q] == ProcState::Up)
                .count();
            let down = (start..end)
                .filter(|&q| soa.state[q] == ProcState::Down)
                .count();
            assert_eq!(usize::from(soa.blk_busy[b]), busy, "blk_busy[{b}]");
            assert_eq!(usize::from(soa.blk_up[b]), up, "blk_up[{b}]");
            assert_eq!(usize::from(soa.blk_down[b]), down, "blk_down[{b}]");
            assert_eq!(soa.block_may_be_busy(b), busy != 0);
            up_total += up;
            down_total += down;
        }
        assert_eq!(soa.up_total, up_total);
        assert_eq!(soa.down_total, down_total);
        assert_eq!(
            soa.state_census(),
            Some([up_total, p - up_total - down_total, down_total])
        );
    }

    /// Block summaries track a multi-block platform through state redraws,
    /// occupancy churn, crashes and cancels.
    #[test]
    fn block_summaries_track_columns() {
        use ProcState::{Down, Reclaimed, Up};
        let p = 2 * SUMMARY_BLOCK + 17;
        let mut soa = WorkerSoA::default();
        soa.reset_for(specs(&vec![3; p]).into_iter());
        assert_eq!(soa.summary_blocks(), 3);
        check_summaries(&soa);

        let mut states = vec![Reclaimed; p];
        states[SUMMARY_BLOCK] = Up;
        states[SUMMARY_BLOCK + 3] = Down;
        soa.set_states(&states);
        check_summaries(&soa);

        // A second copy on the same worker is not a busy flip.
        soa.bound_push(5, copy(1, 0));
        soa.set_computing(
            5,
            Some(ComputeState {
                copy: copy(2, 0),
                done: 0,
            }),
        );
        check_summaries(&soa);

        // Crash in the last (partial) block: occupancy drains to zero.
        soa.set_transfer(
            2 * SUMMARY_BLOCK + 16,
            Some(TransferState {
                copy: copy(3, 0),
                done: 0,
                began_at: 0,
            }),
        );
        let mut lost = Vec::new();
        soa.crash_into(2 * SUMMARY_BLOCK + 16, &mut lost);
        assert_eq!(lost, vec![copy(3, 0)]);
        check_summaries(&soa);

        // Cancel the two copies on worker 5 one task at a time.
        let mut removed = Vec::new();
        soa.cancel_task_into(5, TaskId(1), &mut removed);
        check_summaries(&soa);
        soa.cancel_task_into(5, TaskId(2), &mut removed);
        check_summaries(&soa);

        // Shrink through an arena-style reset: summaries shrink with it.
        soa.reset_for(specs(&[1, 2]).into_iter());
        assert_eq!(soa.summary_blocks(), 1);
        check_summaries(&soa);
    }

    /// `newly_down` lists exactly the workers that flipped into DOWN at the
    /// last redraw, ascending and across block boundaries; a redraw with
    /// no flip empties it, and `reset_for` clears it on every grow/shrink
    /// reuse.
    fn check_newly_down<S: WorkerStore>(store: &mut S) {
        use ProcState::{Down, Reclaimed, Up};
        let p = 2 * SUMMARY_BLOCK + 17;
        store.reset_for(specs(&vec![3; p]).into_iter());
        assert!(store.newly_down().is_empty());

        let mut states = vec![Up; p];
        for q in [3, SUMMARY_BLOCK - 1, SUMMARY_BLOCK, 2 * SUMMARY_BLOCK + 16] {
            states[q] = Down;
        }
        store.set_states(&states);
        let want: Vec<u32> = vec![
            3,
            SUMMARY_BLOCK as u32 - 1,
            SUMMARY_BLOCK as u32,
            2 * SUMMARY_BLOCK as u32 + 16,
        ];
        assert_eq!(store.newly_down(), &want[..]);

        // Staying DOWN is not a flip; neither is any other transition.
        states[0] = Reclaimed;
        states[SUMMARY_BLOCK] = Up;
        store.set_states(&states);
        assert!(store.newly_down().is_empty());

        // Only the workers that just went DOWN, not those already there.
        states[1] = Down;
        states[SUMMARY_BLOCK] = Down;
        store.set_states(&states);
        assert_eq!(store.newly_down(), &[1, SUMMARY_BLOCK as u32]);
        store.set_states(&states);
        assert!(store.newly_down().is_empty());

        // Resets clear the list, growing and shrinking alike.
        for shape in [vec![1u64, 2], vec![3; 3 * SUMMARY_BLOCK], vec![5]] {
            store.set_states(&vec![Down; store.len()]);
            store.reset_for(specs(&shape).into_iter());
            assert!(store.newly_down().is_empty(), "reset kept a stale list");
            store.set_states(&vec![Reclaimed; shape.len()]);
            assert!(store.newly_down().is_empty());
        }
    }

    #[test]
    fn newly_down_lists_exactly_the_flips_for_both_layouts() {
        check_newly_down(&mut WorkerSoA::default());
        check_newly_down(&mut AosWorkers::default());
    }

    #[test]
    fn reset_for_matches_cold_construction_after_grow_shrink_grow() {
        let mut soa = WorkerSoA::default();
        for shape in [&[2u64, 3][..], &[4, 5, 6, 7], &[9], &[1, 2, 3]] {
            // Dirty the store first so reset has something to erase.
            if !soa.is_empty() {
                soa.set_prog_done(0, 7);
                soa.set_buffered(0, Some(copy(0, 1)));
                soa.bound_push(0, copy(1, 0));
            }
            soa.reset_for(specs(shape).into_iter());
            let mut cold = WorkerSoA::default();
            cold.reset_for(specs(shape).into_iter());
            assert_eq!(soa.len(), shape.len());
            for (q, &w) in shape.iter().enumerate() {
                assert_eq!(soa.w(q), w);
                assert_eq!(soa.state(q), ProcState::Reclaimed);
                assert_eq!(soa.prog_done(q), 0);
                assert_eq!(soa.prog_began_at(q), 0);
                assert_eq!(soa.transfer(q), cold.transfer(q));
                assert_eq!(soa.buffered(q), None);
                assert_eq!(soa.computing(q), None);
                assert!(soa.bound(q).is_empty());
                assert!(soa.is_idle(q));
            }
        }
    }
}
