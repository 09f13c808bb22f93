//! The control surface the three engines share.
//!
//! Experiments drive the rate, fluid and packet engines through the same
//! handful of operations: advance the clock, read a job's iteration
//! bookkeeping, and perturb a running simulation (phase noise, departures,
//! link capacity schedules, signal loss). [`Engine`] names that surface
//! once, so sharding, fault injection at a fork barrier and statistics
//! collection are each written once against it.

use dcqcn::SignalLoss;
use simtime::{Dur, Time};
use topology::LinkSchedule;
use workload::{JobProgress, PhaseNoise};

/// A simulation engine measuring training-iteration times of jobs that
/// contend on links.
pub trait Engine {
    /// Current simulation time.
    fn now(&self) -> Time;

    /// Number of jobs in the simulation (including departed ones).
    fn num_jobs(&self) -> usize;

    /// Iteration bookkeeping of job `job`.
    fn progress(&self, job: usize) -> &JobProgress;

    /// `true` once churn has removed job `job` from the cluster.
    fn departed(&self, job: usize) -> bool;

    /// Number of links the engine simulates: the length
    /// [`Engine::set_link_schedules`] expects. The rate and packet engines
    /// model one shared bottleneck.
    fn num_links(&self) -> usize;

    /// Runs until the clock reaches `t`: a no-op if it is already there.
    /// Leaves the engine at a simulated-time barrier, which makes it the
    /// way to drive an engine to a fork point (see [`crate::snapshot`]).
    fn run_until(&mut self, t: Time);

    /// Runs until every job has completed `n` iterations (departed jobs
    /// no longer count) or `max_span` elapses; returns `true` on success.
    /// Resumable: repeated calls with smaller spans traverse the same
    /// event sequence as one call with the total span.
    fn run_until_iterations(&mut self, n: usize, max_span: Dur) -> bool;

    /// Injects (or clears) job `job`'s per-iteration phase noise, taking
    /// effect at its next iteration rollover; the in-flight iteration
    /// keeps its drawn scales.
    fn set_noise(&mut self, job: usize, noise: Option<PhaseNoise>);

    /// Schedules job `job` to leave the cluster at its first compute-side
    /// instant at/after `at` (or cancels a pending departure). Ignored if
    /// the job already departed.
    fn set_depart_at(&mut self, job: usize, at: Option<Time>);

    /// Installs per-link capacity schedules (fault-injection degradation
    /// windows and flaps), one entry per link, evaluated in absolute
    /// simulated time from now on. The one-link engines (rate, packet)
    /// take entry 0 and ignore an identity schedule.
    fn set_link_schedules(&mut self, schedules: Vec<LinkSchedule>);

    /// Replaces the DCQCN signal-loss profile and reseeds the chaos RNG
    /// from it, exactly as construction would have. The fluid engine has
    /// no marking loop and ignores it.
    fn set_signal_loss(&mut self, loss: Option<SignalLoss>);

    /// `true` once every job completed `iterations` or departed.
    fn done(&self, iterations: usize) -> bool {
        (0..self.num_jobs()).all(|j| self.departed(j) || self.progress(j).completed() >= iterations)
    }
}

/// Entry 0 of `schedules` unless it leaves the link untouched: what a
/// one-link engine installs from a per-link schedule list.
pub(crate) fn single_link(schedules: Vec<LinkSchedule>) -> Option<LinkSchedule> {
    schedules.into_iter().next().filter(|s| !s.is_identity())
}
