//! [`JobProgress`]: the per-job iteration state machine the network engines
//! drive.
//!
//! A training job alternates between two phases (§2 of the paper):
//!
//! ```text
//! ── compute (forward pass, off) ──► communicate (backprop+allreduce, on) ──► …
//!         fixed duration                 ends when comm_bytes delivered
//! ```
//!
//! The *compute* phase has a fixed duration known up front; the
//! *communication* phase ends when the network has delivered the job's
//! per-iteration byte volume — its duration therefore depends on the
//! congestion-control behaviour of every job sharing a link, which is the
//! entire subject of the paper.

use crate::{JobSpec, PhaseNoise};
use simtime::{Dur, Time};

/// Which phase a job is currently in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobPhase {
    /// Forward pass: no network demand until `until`.
    Computing {
        /// When the forward pass completes and communication starts.
        until: Time,
    },
    /// Backprop + allreduce: `remaining` bytes still to deliver.
    Communicating {
        /// Bytes not yet delivered (fractional: fluid engines deliver
        /// continuous amounts).
        remaining: f64,
    },
}

/// One completed training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// Zero-based iteration index.
    pub index: u32,
    /// When the iteration's compute phase started.
    pub started: Time,
    /// When its communication phase finished.
    pub completed: Time,
}

impl IterationRecord {
    /// The iteration's wall-clock duration — the paper's headline metric.
    pub fn duration(&self) -> Dur {
        self.completed - self.started
    }
}

/// Drives a job's phase alternation and records iteration times.
///
/// An iteration executes the job's **phase plan** (see
/// [`JobSpec::phase_plan`]): one `(compute, comm_bytes)` segment for the
/// paper's monolithic jobs, several for pipelined jobs. The engine
/// contract:
/// 1. While [`JobPhase::Computing`], the job demands no bandwidth; the
///    engine must call [`JobProgress::poll`] at (or after) the phase's
///    `until` instant to flip it into communication.
/// 2. While [`JobPhase::Communicating`], the engine delivers bytes via
///    [`JobProgress::deliver`]; when the segment's residual reaches zero
///    the job either enters the next segment's compute gap (pipelined) or
///    records the iteration and starts the next one. After any delivery
///    that leaves the job computing, consult
///    [`JobProgress::next_self_transition`] for the next poll deadline.
#[derive(Debug, Clone)]
pub struct JobProgress {
    spec: JobSpec,
    phase: JobPhase,
    iter_started: Time,
    iterations: Vec<IterationRecord>,
    /// Per-iteration `(compute, comm_bytes)` segments.
    plan: Vec<(Dur, f64)>,
    /// Index of the segment currently executing.
    segment: usize,
    /// Optional chaos perturbation; `None` is the exact legacy behaviour.
    noise: Option<PhaseNoise>,
    /// `(compute_scale, comm_scale)` for the iteration in flight, refreshed
    /// from `noise` each time a new iteration starts. `(1, 1)` when quiet.
    scales: (f64, f64),
}

/// Residual below which a communication phase counts as finished. Half a
/// byte: a fluid engine cannot stall forever on float dust, and no real
/// transfer is sub-byte.
const DONE_EPSILON: f64 = 0.5;

/// Scales a compute duration, bypassing the float round-trip entirely at
/// scale 1 so the quiet path stays bit-identical even for extreme spans.
#[inline]
fn scale_dur(d: Dur, k: f64) -> Dur {
    if k == 1.0 {
        d
    } else {
        d.mul_f64(k)
    }
}

impl JobProgress {
    /// A job that begins its first compute phase at `start`.
    pub fn new(spec: JobSpec, start: Time) -> JobProgress {
        JobProgress::with_comm_bytes(spec, start, spec.comm_bytes().as_bytes() as f64)
    }

    /// Total bytes this job injects in the iteration currently in flight
    /// (the plan total scaled by any chaos comm jitter), across segments.
    pub fn comm_bytes_per_iteration(&self) -> f64 {
        self.plan.iter().map(|&(_, b)| b).sum::<f64>() * self.scales.1
    }

    /// A job whose per-iteration communication volume is overridden —
    /// used when the placement splits the allreduce into several
    /// concurrent inter-rack flows, each carrying the calibrated
    /// bottleneck volume (total injected bytes = hops × calibrated bytes).
    ///
    /// # Panics
    /// Panics unless `comm_bytes` is positive and finite.
    pub fn with_comm_bytes(spec: JobSpec, start: Time, comm_bytes: f64) -> JobProgress {
        JobProgress::with_noise(spec, start, comm_bytes, None)
    }

    /// The most general constructor: overridden communication volume plus
    /// an optional [`PhaseNoise`]. `noise: None` is bit-for-bit identical
    /// to [`JobProgress::with_comm_bytes`].
    ///
    /// # Panics
    /// Panics unless `comm_bytes` is positive and finite.
    pub fn with_noise(
        spec: JobSpec,
        start: Time,
        comm_bytes: f64,
        noise: Option<PhaseNoise>,
    ) -> JobProgress {
        assert!(
            comm_bytes > 0.0 && comm_bytes.is_finite(),
            "JobProgress: invalid comm bytes {comm_bytes}"
        );
        let base = spec.phase_plan();
        let natural: f64 = base.iter().map(|&(_, b)| b).sum();
        let scale = comm_bytes / natural;
        let plan: Vec<(Dur, f64)> = base.into_iter().map(|(d, b)| (d, b * scale)).collect();
        let scales = noise.map_or((1.0, 1.0), |n| n.scales(0));
        let first = scale_dur(plan[0].0, scales.0);
        JobProgress {
            spec,
            phase: JobPhase::Computing {
                until: start + first,
            },
            iter_started: start,
            iterations: Vec::new(),
            plan,
            segment: 0,
            noise,
            scales,
        }
    }

    /// The job's specification.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The current phase.
    pub fn phase(&self) -> JobPhase {
        self.phase
    }

    /// `true` while the job is injecting traffic.
    pub fn is_communicating(&self) -> bool {
        matches!(self.phase, JobPhase::Communicating { .. })
    }

    /// Bytes still to deliver in the current communication phase (0 while
    /// computing).
    pub fn remaining_bytes(&self) -> f64 {
        match self.phase {
            JobPhase::Communicating { remaining } => remaining,
            JobPhase::Computing { .. } => 0.0,
        }
    }

    /// `true` if delivering `bytes` now would end the current
    /// communication phase (the residual [`JobProgress::deliver`] leaves
    /// is at or below the done threshold). `false` while computing.
    pub fn would_finish(&self, bytes: f64) -> bool {
        match self.phase {
            JobPhase::Communicating { remaining } => remaining - bytes <= DONE_EPSILON,
            JobPhase::Computing { .. } => false,
        }
    }

    /// The next instant at which the job changes state *on its own*:
    /// the end of a compute phase. `None` while communicating (that
    /// transition is delivery-driven and owned by the engine).
    pub fn next_self_transition(&self) -> Option<Time> {
        match self.phase {
            JobPhase::Computing { until } => Some(until),
            JobPhase::Communicating { .. } => None,
        }
    }

    /// Advances compute→communicate if the compute deadline has passed.
    /// Returns `true` if the transition happened at this call.
    pub fn poll(&mut self, now: Time) -> bool {
        if let JobPhase::Computing { until } = self.phase {
            if now >= until {
                self.phase = JobPhase::Communicating {
                    remaining: self.plan[self.segment].1 * self.scales.1,
                };
                return true;
            }
        }
        false
    }

    /// Delivers `bytes` of the job's traffic at instant `now`. Returns the
    /// completed iteration record if this delivery finished the phase.
    ///
    /// # Panics
    /// Panics if called while the job is computing, or with negative bytes —
    /// both are engine bugs.
    pub fn deliver(&mut self, bytes: f64, now: Time) -> Option<IterationRecord> {
        assert!(bytes >= 0.0, "deliver: negative bytes");
        let JobPhase::Communicating { remaining } = &mut self.phase else {
            panic!("deliver: job is not communicating");
        };
        *remaining -= bytes;
        if *remaining > DONE_EPSILON {
            return None;
        }
        if self.segment + 1 < self.plan.len() {
            // Pipelined: next burst's compute gap (same iteration, so the
            // iteration's scales keep applying).
            self.segment += 1;
            self.phase = JobPhase::Computing {
                until: now + scale_dur(self.plan[self.segment].0, self.scales.0),
            };
            return None;
        }
        let record = IterationRecord {
            index: self.iterations.len() as u32,
            started: self.iter_started,
            completed: now,
        };
        self.iterations.push(record);
        self.iter_started = now;
        self.segment = 0;
        self.scales = self
            .noise
            .map_or((1.0, 1.0), |n| n.scales(self.iterations.len() as u32));
        self.phase = JobPhase::Computing {
            until: now + scale_dur(self.plan[0].0, self.scales.0),
        };
        Some(record)
    }

    /// All completed iterations.
    pub fn iterations(&self) -> &[IterationRecord] {
        &self.iterations
    }

    /// Durations of all completed iterations.
    pub fn iteration_times(&self) -> Vec<Dur> {
        self.iterations.iter().map(|r| r.duration()).collect()
    }

    /// Number of completed iterations.
    pub fn completed(&self) -> usize {
        self.iterations.len()
    }

    /// The chaos perturbation driving this job, if any.
    pub fn noise(&self) -> Option<PhaseNoise> {
        self.noise
    }

    /// Replaces the chaos perturbation from the next iteration rollover
    /// onward; the iteration in flight keeps the scales it already drew.
    /// Forked sweeps use this to inject chaos at the fork barrier.
    pub fn set_noise(&mut self, noise: Option<PhaseNoise>) {
        self.noise = noise;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Model;
    use simtime::Bandwidth;

    fn job() -> JobProgress {
        // DLRM(2000): 700 ms compute, 1875 MB comm.
        JobProgress::new(JobSpec::reference(Model::Dlrm, 2000), Time::ZERO)
    }

    #[test]
    fn starts_computing() {
        let j = job();
        assert!(!j.is_communicating());
        assert_eq!(
            j.next_self_transition(),
            Some(Time::ZERO + Dur::from_millis(700))
        );
        assert_eq!(j.remaining_bytes(), 0.0);
    }

    #[test]
    fn poll_flips_at_deadline_only() {
        let mut j = job();
        assert!(!j.poll(Time::ZERO + Dur::from_millis(699)));
        assert!(!j.is_communicating());
        assert!(j.poll(Time::ZERO + Dur::from_millis(700)));
        assert!(j.is_communicating());
        assert_eq!(j.remaining_bytes(), 1_875e6);
        // A second poll in the same phase is a no-op.
        assert!(!j.poll(Time::ZERO + Dur::from_millis(701)));
        assert_eq!(j.next_self_transition(), None);
    }

    #[test]
    fn full_iteration_at_line_rate() {
        let mut j = job();
        let t_comm = Time::ZERO + Dur::from_millis(700);
        j.poll(t_comm);
        // Deliver at 50 Gbps for 300 ms in two chunks.
        let rate = Bandwidth::from_gbps(50);
        let half = rate.bytes_in(Dur::from_millis(150)).as_bytes() as f64;
        assert!(j.deliver(half, t_comm + Dur::from_millis(150)).is_none());
        let done = j
            .deliver(half, t_comm + Dur::from_millis(300))
            .expect("iteration should complete");
        assert_eq!(done.index, 0);
        assert_eq!(done.duration(), Dur::from_millis(1000));
        // Next compute phase starts immediately.
        assert!(!j.is_communicating());
        assert_eq!(
            j.next_self_transition(),
            Some(Time::ZERO + Dur::from_millis(1700))
        );
        assert_eq!(j.completed(), 1);
        assert_eq!(j.iteration_times(), vec![Dur::from_millis(1000)]);
    }

    #[test]
    fn sub_byte_residual_counts_as_done() {
        let mut j = job();
        j.poll(Time::ZERO + Dur::from_millis(700));
        let total = j.remaining_bytes();
        let end = Time::ZERO + Dur::from_millis(1000);
        // Leave 0.4 bytes: completes anyway (float-dust guard).
        assert!(j.deliver(total - 0.4, end).is_some());
    }

    #[test]
    fn staggered_start_shifts_everything() {
        let offset = Dur::from_millis(37);
        let mut j = JobProgress::new(
            JobSpec::reference(Model::ResNet50, 1600),
            Time::ZERO + offset,
        );
        let compute = j.spec().compute_time();
        assert_eq!(
            j.next_self_transition(),
            Some(Time::ZERO + offset + compute)
        );
        j.poll(Time::ZERO + offset + compute);
        let total = j.remaining_bytes();
        let end = Time::ZERO + offset + compute + Dur::from_millis(21);
        let rec = j.deliver(total, end).unwrap();
        assert_eq!(rec.started, Time::ZERO + offset);
        assert_eq!(rec.duration(), compute + Dur::from_millis(21));
    }

    #[test]
    fn pipelined_job_walks_its_segments() {
        // VGG19(600) in 3 bursts with 40 ms gaps: segments are
        // (71.28 ms, B/3), (40 ms, B/3), (40 ms, B/3).
        let spec = JobSpec::reference(crate::Model::Vgg19, 600).pipelined(3, Dur::from_millis(40));
        let mut j = JobProgress::new(spec, Time::ZERO);
        let burst = spec.comm_bytes().as_bytes() as f64 / 3.0;
        let mut now = Time::ZERO;
        for seg in 0..3 {
            now = j.next_self_transition().expect("computing between bursts");
            assert!(j.poll(now), "segment {seg} should open");
            assert!((j.remaining_bytes() - burst).abs() < 1.0);
            now += Dur::from_millis(10);
            let rec = j.deliver(j.remaining_bytes(), now);
            if seg < 2 {
                assert!(rec.is_none(), "segment {seg} must not end the iteration");
                assert!(!j.is_communicating());
            } else {
                let rec = rec.expect("last segment completes the iteration");
                assert_eq!(rec.index, 0);
                // Iteration = 71.28 + 3×10 (delivery) + 2×40 (gaps).
                let expect = spec.compute_time() + Dur::from_millis(30) + Dur::from_millis(80);
                assert_eq!(rec.duration(), expect);
            }
        }
        assert_eq!(j.completed(), 1);
        // The second iteration starts from segment 0 again.
        assert_eq!(j.next_self_transition(), Some(now + spec.compute_time()));
    }

    #[test]
    fn pipelined_comm_bytes_scale_with_override() {
        let spec = JobSpec::reference(crate::Model::Vgg19, 600).pipelined(2, Dur::from_millis(5));
        let total = 1_000_000.0;
        let mut j = JobProgress::with_comm_bytes(spec, Time::ZERO, total);
        assert!((j.comm_bytes_per_iteration() - total).abs() < 1.0);
        let t = j.next_self_transition().unwrap();
        j.poll(t);
        assert!((j.remaining_bytes() - total / 2.0).abs() < 1.0);
    }

    #[test]
    fn noise_scales_each_iteration() {
        let spec = JobSpec::reference(Model::ResNet50, 1600);
        let noise = crate::PhaseNoise {
            seed: 11,
            job: 0,
            compute_jitter: 0.2,
            comm_jitter: 0.1,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
        };
        let bytes = spec.comm_bytes().as_bytes() as f64;
        let mut j = JobProgress::with_noise(spec, Time::ZERO, bytes, Some(noise));
        for i in 0..4 {
            let (cs, ms) = noise.scales(i);
            let until = j.next_self_transition().unwrap();
            let expect = spec.compute_time().mul_f64(cs);
            assert_eq!(
                until - j.iterations().last().map_or(Time::ZERO, |r| r.completed),
                expect
            );
            j.poll(until);
            assert!(
                (j.remaining_bytes() - bytes * ms).abs() < 1.0,
                "iteration {i}: comm volume not scaled"
            );
            j.deliver(j.remaining_bytes(), until + Dur::from_millis(25));
        }
    }

    #[test]
    fn none_noise_is_bit_identical() {
        let spec = JobSpec::reference(Model::Vgg19, 600).pipelined(3, Dur::from_millis(40));
        let bytes = spec.comm_bytes().as_bytes() as f64;
        let mut plain = JobProgress::with_comm_bytes(spec, Time::ZERO, bytes);
        let mut noised = JobProgress::with_noise(spec, Time::ZERO, bytes, None);
        for _ in 0..9 {
            let t = plain.next_self_transition().unwrap();
            assert_eq!(t, noised.next_self_transition().unwrap());
            plain.poll(t);
            noised.poll(t);
            assert_eq!(
                plain.remaining_bytes().to_bits(),
                noised.remaining_bytes().to_bits()
            );
            let now = t + Dur::from_millis(7);
            assert_eq!(
                plain.deliver(plain.remaining_bytes(), now),
                noised.deliver(noised.remaining_bytes(), now)
            );
        }
    }

    #[test]
    #[should_panic(expected = "not communicating")]
    fn deliver_while_computing_panics() {
        let mut j = job();
        j.deliver(10.0, Time::ZERO);
    }

    #[test]
    fn multiple_iterations_indexed() {
        let mut j = JobProgress::new(JobSpec::reference(Model::ResNet50, 1600), Time::ZERO);
        for i in 0..5 {
            let mut now = j.next_self_transition().unwrap();
            j.poll(now);
            now += Dur::from_millis(21);
            let rec = j.deliver(j.remaining_bytes(), now).unwrap();
            assert_eq!(rec.index, i);
        }
        assert_eq!(j.completed(), 5);
        // Every iteration has the same duration in a dedicated network.
        let times = j.iteration_times();
        assert!(times.windows(2).all(|w| w[0] == w[1]));
    }
}
