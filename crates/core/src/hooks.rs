//! Cycle-stage hooks: the observation/injection seam the verification
//! harness (`adelie-testkit`) drives.
//!
//! A re-randomization cycle is a sequence of fallible stages
//! ([`CycleStage`]). Production runs have no hooks installed and pay
//! one uncontended read-lock snapshot per cycle. With hooks installed
//! (via
//! [`ModuleRegistry::set_cycle_hooks`](crate::ModuleRegistry::set_cycle_hooks)),
//! every stage first asks [`CycleHooks::allow`]; a `false` answer makes
//! the cycle fail *at that stage* through the exact same typed error and
//! cleanup a real fault would take — which is how the testkit's
//! `FaultPlan` proves a failed cycle leaves no trace at every step. After
//! a successful cycle, [`CycleHooks::committed`] reports the move, which
//! is how the testkit's layout oracle learns the ground-truth timeline
//! of old/new ranges without racing the scheduler.

/// One fallible (or observable) stage of a re-randomization cycle, in
/// execution order. See `rerand.rs` for the paper-§4.2 mapping.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CycleStage {
    /// Picking and reserving the fresh random base (step 1).
    Reserve,
    /// Zero-copy aliasing of the movable pages at the new base (step 2).
    AliasMap,
    /// Building + mapping the movable part's new local GOT (step 3).
    MovableGot,
    /// Atomic PTE swap of the immovable part's local GOT (step 3).
    ImmovableGotSwap,
    /// Adjusting absolute data slots pointing into the movable part
    /// (step 4). The last pre-publish gate: the move's one page-table
    /// batch (steps 2–3) is applied right after it.
    AdjustSlots,
    /// The module's `update_pointers` callback (step 5) — fails *after*
    /// the move has committed.
    UpdatePointers,
    /// SMR retirement of the old range (step 6). Denying this stage
    /// *leaks* the old mapping — used to prove the oracle detects leaks.
    Retire,
    /// Per-CPU stack-pool rotation (step 7).
    StackRotate,
}

impl CycleStage {
    /// Short label (printk, error text, reports).
    pub fn name(&self) -> &'static str {
        match self {
            CycleStage::Reserve => "reserve",
            CycleStage::AliasMap => "alias",
            CycleStage::MovableGot => "movable-got",
            CycleStage::ImmovableGotSwap => "immovable-got-swap",
            CycleStage::AdjustSlots => "adjust-slots",
            CycleStage::UpdatePointers => "update-pointers",
            CycleStage::Retire => "retire",
            CycleStage::StackRotate => "stack-rotate",
        }
    }
}

impl std::fmt::Display for CycleStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A committed move, reported to [`CycleHooks::committed`].
#[derive(Copy, Clone, Debug)]
pub struct CycleCommit<'a> {
    /// Module that moved.
    pub module: &'a str,
    /// Movable base before the cycle.
    pub old_base: u64,
    /// Movable base after the cycle.
    pub new_base: u64,
    /// Movable-part span in bytes (same before and after).
    pub span: u64,
    /// Module generation after the move (`times_randomized`).
    pub generation: u64,
}

/// Observation + fault-injection callbacks around each cycle stage.
///
/// Implementations must be cheap and non-blocking: `allow` runs inside
/// the cycle with the module's `move_lock` held.
pub trait CycleHooks: Send + Sync {
    /// Called before each stage. Return `false` to make the cycle fail
    /// at this stage (through the normal typed-error path).
    fn allow(&self, _module: &str, _stage: CycleStage) -> bool {
        true
    }

    /// Called once per successful cycle, after publication (new base
    /// visible, old range retired), still under `move_lock`.
    fn committed(&self, _commit: &CycleCommit<'_>) {}
}
