//! Flow-level network simulation engines.
//!
//! Three engines share one purpose — measuring training-iteration times
//! of jobs contending on links — at three levels of realism:
//!
//! * [`rate`] — the **rate-based DCQCN engine**: a single bottleneck link
//!   with a RED/ECN marking queue, stepped on a fixed 5 µs grid (with an
//!   exact fast path over quiet steps), with every flow running the full
//!   DCQCN reaction-point state machine from the [`dcqcn`] crate.
//!   Congestion behaviour (fair sharing, the unfairness knob `T`, the
//!   adaptive `R_AI` variant) is *emergent*, which is what reproduces the
//!   paper's §2 observation: unfairness slides the phases of compatible
//!   jobs apart. Drives Fig. 1, Fig. 2, Table 1, the controller zoo and
//!   the §4.i experiments.
//!
//! * [`fluid`] — the **event-driven fluid engine**: instantaneous
//!   (weighted) max-min or strict-priority bandwidth allocation over an
//!   arbitrary [`topology::Topology`], advancing directly from flow event
//!   to flow event. Idealized and fast; drives the mechanism experiments
//!   (§4.ii priority queues, §4.iii flow scheduling via comm-phase gates)
//!   and the cluster-scale scheduler and sharding studies (§5).
//!
//! * [`packet`] — the **packet engine**: DCQCN per packet (paced senders,
//!   per-packet ECN marking, CNP round trips) on one bottleneck; the
//!   ground truth the rate and fluid abstractions are validated against.
//!
//! All three implement [`Engine`], the control surface experiments drive
//! them through: advance the clock, read each job's iteration
//! bookkeeping, and perturb a running simulation (phase noise,
//! departures, link capacity schedules, signal loss). All three also
//! implement [`snapshot::Snapshottable`], so a run can fork from a shared
//! prefix, and [`shard::run_epochs`] advances independent instances of
//! any of them across worker threads.
//!
//! The shared allocation mathematics (progressive-filling max-min, weighted
//! variant, strict priorities) lives in [`alloc`] as pure, independently
//! tested functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod engine;
pub mod fluid;
pub mod packet;
pub mod rate;
pub mod shard;
pub mod snapshot;

pub use engine::Engine;
