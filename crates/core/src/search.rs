//! Adaptive Vmin search strategies.
//!
//! The paper's characterization walks the full descending voltage grid for
//! every (benchmark, core) item (§2.2.1), but its deliverable is only the
//! region *boundaries* of §3: the conservative safe Vmin (the last step
//! before the first abnormal one) and the highest crash step. Both are
//! boundaries of monotone predicates over the grid — "some iteration
//! misbehaved" and "some iteration crashed the system" flip from false to
//! true as voltage drops — so they can be located with a bisection instead
//! of a linear scan, and a good prior turns the bisection into a couple of
//! confirmation probes.
//!
//! A `SearchPlan` is an iterative driver: the runner asks `next_step`
//! which grid step to probe, executes the probe (every probe runs on a
//! pristine board, so its outcome is independent of visit order), and
//! feeds the `StepVerdict` back via `record`. The plan guarantees that
//! when it concludes, the steps it probed are sufficient for
//! [`regions::analyze`] to report the *same* safe Vmin and highest crash
//! step the exhaustive sweep would: the boundary step is probed abnormal
//! and the step directly above it is probed normal.
//!
//! [`regions::analyze`]: crate::regions::analyze

use crate::effect::EffectSet;
use margins_sim::{CoreId, Millivolts};
use std::collections::BTreeMap;

/// How a campaign visits the voltage grid of each (benchmark, core) item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchStrategy {
    /// Visit every step top-down — the paper's massive campaign, stopping
    /// early only after `crash_stop_steps` consecutive all-crash steps.
    #[default]
    Exhaustive,
    /// Bisect for the first abnormal step and then for the first crash
    /// step, with confirmation probes directly above each candidate
    /// boundary.
    Bisection,
    /// Bisection seeded from a predictor-guided or cached prior: the first
    /// probe lands on the expected boundary, so a good prior resolves an
    /// item in a handful of probes.
    WarmStart,
}

impl SearchStrategy {
    /// Parses the CLI spelling of a strategy.
    #[must_use]
    pub fn parse(s: &str) -> Option<SearchStrategy> {
        match s {
            "exhaustive" => Some(SearchStrategy::Exhaustive),
            "bisection" => Some(SearchStrategy::Bisection),
            "warm-start" | "warmstart" => Some(SearchStrategy::WarmStart),
            _ => None,
        }
    }

    /// The canonical spelling used in traces and on the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
            SearchStrategy::Bisection => "bisection",
            SearchStrategy::WarmStart => "warm-start",
        }
    }

    /// Whether the strategy visits a data-dependent subset of the grid.
    #[must_use]
    pub fn is_adaptive(self) -> bool {
        !matches!(self, SearchStrategy::Exhaustive)
    }

    /// Whether the strategy consumes warm-start priors — the signal the
    /// runner uses to derive priors from a cache before execution starts.
    #[must_use]
    pub(crate) fn uses_priors(self) -> bool {
        matches!(self, SearchStrategy::WarmStart)
    }
}

impl std::fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the search needs to know about one probed step, aggregated over
/// the step's iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct StepVerdict {
    /// Some iteration manifested an abnormal effect (the step would not be
    /// part of the safe region).
    pub abnormal: bool,
    /// Some iteration crashed the whole system.
    pub any_sc: bool,
    /// Every iteration crashed the whole system (feeds the exhaustive
    /// sweep's crash-stop rule).
    pub all_sc: bool,
}

impl StepVerdict {
    /// The verdict on a step whose iterations manifested `effects`, in
    /// any order. A step with no iterations is normal and crash-free.
    pub(crate) fn of(effects: impl IntoIterator<Item = EffectSet>) -> StepVerdict {
        let (mut runs, mut sc_runs, mut abnormal) = (0u32, 0u32, false);
        for run in effects {
            runs += 1;
            sc_runs += u32::from(run.is_system_crash());
            abnormal |= !run.is_normal();
        }
        StepVerdict {
            abnormal,
            any_sc: sc_runs > 0,
            all_sc: runs > 0 && sc_runs == runs,
        }
    }
}

/// Boundary priors for one (benchmark, core) item, in millivolts on the
/// swept rail. Millivolts rather than step indices so a prior derived from
/// one campaign grid transfers to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ItemPrior {
    /// Expected voltage of the first abnormal step (the step right below
    /// the safe Vmin).
    pub vmin_mv: Option<u32>,
    /// Expected voltage of the highest crash step.
    pub crash_mv: Option<u32>,
}

/// Per-item boundary priors for [`SearchStrategy::WarmStart`], keyed by
/// (program, dataset, core).
///
/// Priors are fixed before the campaign executes, so warm-started searches
/// stay schedule-independent: a prior can come from the margin predictor
/// or from a previously persisted [`CampaignCache`], never from sibling
/// items of the running campaign.
///
/// [`CampaignCache`]: crate::cache::CampaignCache
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchPriors {
    map: BTreeMap<(String, String, u8), ItemPrior>,
}

impl SearchPriors {
    /// An empty prior set.
    #[must_use]
    pub fn new() -> Self {
        SearchPriors::default()
    }

    /// Sets the prior for one item.
    pub fn insert(&mut self, program: &str, dataset: &str, core: CoreId, prior: ItemPrior) {
        self.map.insert(
            (program.to_owned(), dataset.to_owned(), core.index() as u8),
            prior,
        );
    }

    /// The prior for one item, if any.
    #[must_use]
    pub(crate) fn get(&self, program: &str, dataset: &str, core: CoreId) -> Option<ItemPrior> {
        self.map
            .get(&(program.to_owned(), dataset.to_owned(), core.index() as u8))
            .copied()
    }
}

/// Incremental first-true binary search over step indices `[start, end)`
/// of a (presumed) monotone predicate, with optional seeding and galloping
/// so a good prior resolves in two probes.
///
/// The invariant maintained across probes: every increment of `lo` came
/// from a probe that evaluated false at `lo - 1`, and every decrement of
/// `hi` from a probe that evaluated true at `hi`. The search concludes at
/// `lo == hi == b`, so the boundary is always *confirmed*: step `b` was
/// probed true (unless `b == end`) and step `b - 1` was probed false
/// (unless `b == start`). If the predicate is non-monotone around the
/// prior, a true probe simply lowers `hi` and the search continues above
/// it — the reported boundary is the first true step among those probed.
#[derive(Debug, Clone)]
struct BoundarySearch {
    end: u32,
    lo: u32,
    hi: u32,
    stage: Stage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Probe the prior first.
    Seed(u32),
    /// The prior (and everything probed since) was true: walk upward in
    /// doubling strides looking for a false step.
    GallopUp(u32),
    /// The prior was false: walk downward in doubling strides looking for
    /// a true step.
    GallopDown(u32),
    /// Plain binary search inside a bracketed `[lo, hi)`.
    Bisect,
    Done,
}

impl BoundarySearch {
    fn new(start: u32, end: u32, prior: Option<u32>) -> Self {
        let mut s = BoundarySearch {
            end,
            lo: start,
            hi: end,
            stage: Stage::Bisect,
        };
        if start >= end {
            s.lo = end;
            s.stage = Stage::Done;
            return s;
        }
        if let Some(p) = prior {
            s.stage = Stage::Seed(p.clamp(start, end - 1));
        }
        s
    }

    fn is_done(&self) -> bool {
        self.stage == Stage::Done
    }

    /// The resolved boundary: first true step, or `end` when every probed
    /// step was false. Meaningful only once [`BoundarySearch::is_done`].
    fn boundary(&self) -> u32 {
        self.hi
    }

    /// The next step to probe, or `None` when the boundary is resolved.
    fn next(&self) -> Option<u32> {
        match self.stage {
            Stage::Done => None,
            Stage::Seed(p) => Some(p),
            Stage::GallopUp(size) => Some(self.hi - size.min(self.hi - self.lo)),
            Stage::GallopDown(size) => Some((self.lo.saturating_add(size) - 1).min(self.end - 1)),
            Stage::Bisect => Some(self.lo + (self.hi - self.lo) / 2),
        }
    }

    /// Feeds back the predicate value at `step` (which must be the step
    /// returned by [`BoundarySearch::next`]).
    fn record(&mut self, step: u32, value: bool) {
        if self.stage == Stage::Done {
            return;
        }
        if value {
            self.hi = self.hi.min(step);
        } else {
            self.lo = self.lo.max(step + 1);
        }
        self.stage = match (self.stage, value) {
            (Stage::Seed(_), true) => Stage::GallopUp(1),
            (Stage::Seed(_), false) => Stage::GallopDown(1),
            (Stage::GallopUp(s), true) => Stage::GallopUp(s.saturating_mul(2)),
            (Stage::GallopDown(s), false) => Stage::GallopDown(s.saturating_mul(2)),
            (Stage::GallopUp(_), false) | (Stage::GallopDown(_), true) => Stage::Bisect,
            (stage @ (Stage::Bisect | Stage::Done), _) => stage,
        };
        if self.lo >= self.hi {
            self.lo = self.hi;
            self.stage = Stage::Done;
        }
    }
}

/// The iterative search driver for one (benchmark, core) item.
///
/// Usage: `while let Some(step) = plan.next_step() { probe; plan.record }`.
/// Probes are pure (pristine board per step), so the plan replays an
/// already-known verdict instead of requesting the same step twice.
#[derive(Debug, Clone)]
pub(crate) struct SearchPlan {
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    Exhaustive {
        steps: u32,
        crash_stop: u32,
        next: u32,
        consecutive_all_sc: u32,
        stopped: Option<(u32, u32)>,
    },
    Adaptive {
        steps: u32,
        verdicts: BTreeMap<u32, StepVerdict>,
        vmin: BoundarySearch,
        crash: Option<BoundarySearch>,
        prior_crash: Option<u32>,
    },
}

impl SearchPlan {
    /// The exhaustive top-down sweep over `steps` grid points with the
    /// crash-stop rule (`crash_stop == 0` disables it).
    #[must_use]
    fn exhaustive(steps: u32, crash_stop: u32) -> SearchPlan {
        SearchPlan {
            kind: PlanKind::Exhaustive {
                steps,
                crash_stop,
                next: 0,
                consecutive_all_sc: 0,
                stopped: None,
            },
        }
    }

    /// An adaptive (bisection) plan over `steps` grid points, optionally
    /// seeded with prior step indices for the two boundaries.
    #[must_use]
    fn adaptive(steps: u32, prior_vmin: Option<u32>, prior_crash: Option<u32>) -> SearchPlan {
        SearchPlan {
            kind: PlanKind::Adaptive {
                steps,
                verdicts: BTreeMap::new(),
                vmin: BoundarySearch::new(0, steps, prior_vmin),
                crash: None,
                prior_crash,
            },
        }
    }

    /// The plan for `strategy` over `steps` grid points.
    #[must_use]
    pub(crate) fn for_strategy(
        strategy: SearchStrategy,
        steps: u32,
        crash_stop: u32,
        prior: Option<ResolvedPrior>,
    ) -> SearchPlan {
        match strategy {
            SearchStrategy::Exhaustive => SearchPlan::exhaustive(steps, crash_stop),
            SearchStrategy::Bisection => SearchPlan::adaptive(steps, None, None),
            SearchStrategy::WarmStart => SearchPlan::adaptive(
                steps,
                prior.and_then(|p| p.vmin_step),
                prior.and_then(|p| p.crash_step),
            ),
        }
    }

    /// The next grid step to probe, or `None` when the search concluded.
    pub(crate) fn next_step(&mut self) -> Option<u32> {
        match &mut self.kind {
            PlanKind::Exhaustive {
                steps,
                next,
                stopped,
                ..
            } => {
                if stopped.is_some() || *next >= *steps {
                    None
                } else {
                    Some(*next)
                }
            }
            PlanKind::Adaptive {
                steps,
                verdicts,
                vmin,
                crash,
                prior_crash,
            } => loop {
                if !vmin.is_done() {
                    #[expect(clippy::expect_used, reason = "!is_done() guarantees a next step")]
                    let q = vmin.next().expect("unfinished search proposes a step");
                    match verdicts.get(&q) {
                        Some(v) => vmin.record(q, v.abnormal),
                        None => return Some(q),
                    }
                    continue;
                }
                let b = vmin.boundary();
                if b >= *steps {
                    // Every step down to the floor is safe: no crash
                    // region can exist either.
                    return None;
                }
                let crash =
                    crash.get_or_insert_with(|| BoundarySearch::new(b, *steps, *prior_crash));
                if crash.is_done() {
                    return None;
                }
                #[expect(clippy::expect_used, reason = "!is_done() guarantees a next step")]
                let q = crash.next().expect("unfinished search proposes a step");
                match verdicts.get(&q) {
                    Some(v) => crash.record(q, v.any_sc),
                    None => return Some(q),
                }
            },
        }
    }

    /// Feeds back the verdict for the step returned by
    /// [`SearchPlan::next_step`].
    pub(crate) fn record(&mut self, step: u32, verdict: StepVerdict) {
        match &mut self.kind {
            PlanKind::Exhaustive {
                crash_stop,
                next,
                consecutive_all_sc,
                stopped,
                ..
            } => {
                if verdict.all_sc {
                    *consecutive_all_sc += 1;
                } else {
                    *consecutive_all_sc = 0;
                }
                if *crash_stop > 0 && *consecutive_all_sc >= *crash_stop {
                    *stopped = Some((step, *consecutive_all_sc));
                }
                *next = step + 1;
            }
            PlanKind::Adaptive {
                verdicts,
                vmin,
                crash,
                ..
            } => {
                verdicts.insert(step, verdict);
                if vmin.is_done() {
                    if let Some(c) = crash {
                        c.record(step, verdict.any_sc);
                    }
                } else {
                    vmin.record(step, verdict.abnormal);
                }
            }
        }
    }

    /// Which boundary the plan is currently hunting, for trace events.
    #[must_use]
    pub(crate) fn phase(&self) -> &'static str {
        match &self.kind {
            PlanKind::Exhaustive { .. } => "sweep",
            PlanKind::Adaptive { vmin, .. } => {
                if vmin.is_done() {
                    "crash"
                } else {
                    "vmin"
                }
            }
        }
    }

    /// The exhaustive sweep's crash-stop trigger, as (step, consecutive
    /// all-crash steps), when it fired.
    #[must_use]
    pub(crate) fn early_stop(&self) -> Option<(u32, u32)> {
        match &self.kind {
            PlanKind::Exhaustive { stopped, .. } => *stopped,
            PlanKind::Adaptive { .. } => None,
        }
    }
}

impl ItemPrior {
    /// The step index of the expected first abnormal voltage on a grid
    /// starting at `start_mv` with 5 mV steps (clamping handled by the
    /// search itself).
    #[must_use]
    fn step_on_grid(mv: u32, start_mv: u32) -> u32 {
        start_mv.saturating_sub(mv) / margins_sim::volt::VOLTAGE_STEP_MV
    }

    /// Resolves this prior against a concrete grid, producing the step
    /// hints [`SearchPlan::for_strategy`] consumes.
    #[must_use]
    pub(crate) fn on_grid(self, start: Millivolts) -> ResolvedPrior {
        ResolvedPrior {
            vmin_step: self.vmin_mv.map(|mv| Self::step_on_grid(mv, start.get())),
            crash_step: self.crash_mv.map(|mv| Self::step_on_grid(mv, start.get())),
        }
    }
}

/// An [`ItemPrior`] resolved to step indices on a concrete voltage grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ResolvedPrior {
    /// Expected first abnormal step.
    pub vmin_step: Option<u32>,
    /// Expected first crash step.
    pub crash_step: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a plan against a synthetic grid: `vmin_at` is the first
    /// abnormal step, `crash_at` the first crash step (`None` = never).
    /// Returns the probed steps in probe order.
    fn drive(
        plan: &mut SearchPlan,
        steps: u32,
        vmin_at: Option<u32>,
        crash_at: Option<u32>,
    ) -> Vec<u32> {
        let mut probes = Vec::new();
        while let Some(step) = plan.next_step() {
            assert!(step < steps, "plan proposed off-grid step {step}");
            assert!(
                !probes.contains(&step),
                "plan re-probed step {step}: {probes:?}"
            );
            probes.push(step);
            let abnormal = vmin_at.is_some_and(|b| step >= b);
            let any_sc = crash_at.is_some_and(|c| step >= c);
            plan.record(
                step,
                StepVerdict {
                    abnormal,
                    any_sc,
                    all_sc: any_sc,
                },
            );
            assert!(probes.len() <= steps as usize, "plan never concluded");
        }
        probes
    }

    #[test]
    fn exhaustive_plan_visits_every_step_in_order() {
        let mut plan = SearchPlan::exhaustive(8, 0);
        let probes = drive(&mut plan, 8, Some(5), None);
        assert_eq!(probes, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(plan.early_stop(), None);
    }

    #[test]
    fn exhaustive_plan_honours_the_crash_stop_rule() {
        let mut plan = SearchPlan::exhaustive(10, 2);
        let probes = drive(&mut plan, 10, Some(3), Some(4));
        // Steps 4 and 5 are both all-crash: stop after step 5.
        assert_eq!(probes, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(plan.early_stop(), Some((5, 2)));
    }

    /// The plan's resolved boundaries once `next_step` returned `None`:
    /// (first abnormal step, first crash step), each `None` when the
    /// predicate never became true on the grid.
    fn boundaries(plan: &SearchPlan) -> (Option<u32>, Option<u32>) {
        match &plan.kind {
            PlanKind::Exhaustive { .. } => (None, None),
            PlanKind::Adaptive {
                steps, vmin, crash, ..
            } => {
                let b = (vmin.is_done() && vmin.boundary() < *steps).then(|| vmin.boundary());
                let c = crash
                    .as_ref()
                    .filter(|c| c.is_done() && c.boundary() < *steps)
                    .map(BoundarySearch::boundary);
                (b, c)
            }
        }
    }

    #[test]
    fn bisection_finds_confirmed_boundaries_on_every_grid() {
        for steps in 1..=24u32 {
            for vmin_at in 0..=steps {
                let vmin = (vmin_at < steps).then_some(vmin_at);
                for crash_at in vmin_at..=steps {
                    let crash = (crash_at < steps).then_some(crash_at);
                    let mut plan = SearchPlan::adaptive(steps, None, None);
                    drive(&mut plan, steps, vmin, crash);
                    assert_eq!(
                        boundaries(&plan),
                        (vmin, vmin.and(crash)),
                        "steps={steps} vmin={vmin:?} crash={crash:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_start_with_exact_prior_is_a_handful_of_probes() {
        let steps = 23u32;
        for vmin_at in 1..steps - 1 {
            let crash_at = (vmin_at + 2).min(steps - 1);
            let mut plan = SearchPlan::adaptive(steps, Some(vmin_at), Some(crash_at));
            let probes = drive(&mut plan, steps, Some(vmin_at), Some(crash_at));
            assert!(
                probes.len() <= 5,
                "exact priors must resolve in <=5 probes, took {probes:?} for vmin={vmin_at}"
            );
            assert_eq!(boundaries(&plan), (Some(vmin_at), Some(crash_at)));
        }
    }

    #[test]
    fn warm_start_with_wrong_prior_still_finds_the_boundary() {
        let steps = 23u32;
        for prior in 0..steps {
            for truth in 0..=steps {
                let vmin = (truth < steps).then_some(truth);
                let mut plan = SearchPlan::adaptive(steps, Some(prior), None);
                drive(&mut plan, steps, vmin, None);
                assert_eq!(boundaries(&plan).0, vmin, "prior={prior} truth={truth:?}");
            }
        }
    }

    #[test]
    fn adaptive_probes_grow_logarithmically() {
        let steps = 128u32;
        let mut plan = SearchPlan::adaptive(steps, None, None);
        let probes = drive(&mut plan, steps, Some(77), Some(90));
        assert!(
            probes.len() <= 2 * 8 + 4,
            "two bisections over 128 steps must stay near 2*log2: {probes:?}"
        );
    }

    #[test]
    fn all_safe_grid_skips_the_crash_search() {
        let mut plan = SearchPlan::adaptive(16, None, None);
        let probes = drive(&mut plan, 16, None, None);
        assert_eq!(boundaries(&plan), (None, None));
        // Resolving "all safe" needs only the bisection path down to the
        // floor probe.
        assert!(probes.contains(&15), "must confirm the floor step");
        assert!(probes.len() <= 5, "{probes:?}");
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [
            SearchStrategy::Exhaustive,
            SearchStrategy::Bisection,
            SearchStrategy::WarmStart,
        ] {
            assert_eq!(SearchStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(SearchStrategy::parse("bogus"), None);
        assert_eq!(SearchStrategy::default(), SearchStrategy::Exhaustive);
        assert!(!SearchStrategy::Exhaustive.is_adaptive());
        assert!(SearchStrategy::WarmStart.is_adaptive());
    }

    #[test]
    fn priors_resolve_millivolts_to_grid_steps() {
        let prior = ItemPrior {
            vmin_mv: Some(905),
            crash_mv: Some(880),
        };
        let resolved = prior.on_grid(Millivolts::new(930));
        assert_eq!(resolved.vmin_step, Some(5));
        assert_eq!(resolved.crash_step, Some(10));
        // A prior above the grid top clamps to step 0 inside the search.
        assert_eq!(
            ItemPrior {
                vmin_mv: Some(950),
                crash_mv: None
            }
            .on_grid(Millivolts::new(930))
            .vmin_step,
            Some(0)
        );
    }

    #[test]
    fn search_priors_store_and_fetch() {
        let mut p = SearchPriors::new();
        p.insert(
            "bwaves",
            "ref",
            CoreId::new(0),
            ItemPrior {
                vmin_mv: Some(905),
                crash_mv: Some(880),
            },
        );
        assert_eq!(
            p.get("bwaves", "ref", CoreId::new(0))
                .and_then(|i| i.vmin_mv),
            Some(905)
        );
        assert_eq!(p.get("bwaves", "ref", CoreId::new(1)), None);
    }
}
