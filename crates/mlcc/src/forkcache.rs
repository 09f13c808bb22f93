//! Forked sweeps: cells that start from one shared simulated prefix.
//!
//! A forked sweep runs its prefix once to a fork barrier, snapshots the
//! engine, and lets every cell restore the snapshot instead of
//! re-simulating `0 → fork_at` ([`map_from_prefix`]). The prefix is a
//! pure function of the experiment configuration and the fork instant, so
//! its snapshot (plus the prefix telemetry recording) is also reused
//! across sweeps in the same process — e.g. a forked run followed by its
//! `--fork-replay` baseline, or repeated invocations from tests. Entries
//! are keyed on the canonical config hash ([`simtime::hash::fnv1a_64`]
//! over the config's canonical rendering), the same helper the report
//! summary uses, so a cache key and a reported `config.hash` always agree
//! on what "the same configuration" means.

use crate::experiments::chaos::{apply_at_barrier, RunSpan};
use crate::parallel;
use faults::ChaosConfig;
use netsim::snapshot::Snapshottable;
use netsim::Engine;
use simtime::{Dur, Time};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use telemetry::{BufferRecorder, ForkableRecorder, Recorder};

static CACHE: OnceLock<Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>> = OnceLock::new();

/// Returns the cached prefix state for `key`, building and inserting it
/// on a miss. A key collision across types is impossible to misread: the
/// downcast fails and the entry is rebuilt with the requested type.
pub fn get_or_build<S: Send + Sync + 'static>(key: u64, build: impl FnOnce() -> S) -> Arc<S> {
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = map.get(&key).cloned() {
        if let Ok(typed) = hit.downcast::<S>() {
            return typed;
        }
    }
    let built = Arc::new(build());
    map.insert(key, built.clone() as Arc<dyn Any + Send + Sync>);
    built
}

/// The shared prefix of a forked sweep: the engine every cell starts
/// from, buildable over any recorder.
pub(crate) trait Prefix: Sync {
    /// The engine's recorder-free snapshot.
    type Snapshot: Clone + Send + Sync + 'static;
    /// The engine, recording into `Q`.
    type Sim<Q: Recorder>: Engine + Snapshottable<Q, Snapshot = Self::Snapshot>;

    /// Builds the engine at `t = 0`, recording into `rec`.
    fn start<Q: Recorder>(&self, rec: Q) -> Self::Sim<Q>;

    /// Canonical rendering of everything [`Prefix::start`] depends on:
    /// the prefix cache key, together with the fork instant.
    fn key(&self) -> String;
}

/// Where a forked cell starts: the shared prefix's snapshot (fork mode),
/// or the prefix itself to re-simulate (replay mode).
pub(crate) struct Barrier<'a, P: Prefix> {
    prefix: &'a P,
    at: Dur,
    shared: Option<&'a (P::Snapshot, BufferRecorder)>,
}

impl<P: Prefix> Barrier<'_, P> {
    /// Starts the cell's engine at the barrier, recording into `rec`, lets
    /// `setup` change it, applies `chaos` over what is left of `span`'s
    /// horizon, and runs it to `span`'s iterations. Fork mode replays the
    /// prefix's recording into `rec` before restoring (the snapshot is
    /// recorder-free), so its stream is byte-identical to replay mode's,
    /// which re-simulates the prefix into `rec`.
    pub(crate) fn run<Q: Recorder>(
        &self,
        mut rec: Q,
        span: &RunSpan,
        chaos: &ChaosConfig,
        setup: impl FnOnce(&mut P::Sim<Q>),
    ) -> P::Sim<Q> {
        let mut sim = match self.shared {
            Some((snap, prefix_rec)) => {
                if Q::ENABLED {
                    for te in prefix_rec.events() {
                        rec.record(te.at, te.event.clone());
                    }
                }
                <P::Sim<Q> as Snapshottable<Q>>::restore(snap.clone(), rec)
                    .expect("prefix snapshot restores")
            }
            None => {
                let mut sim = self.prefix.start(rec);
                sim.run_until(Time::ZERO + self.at);
                sim
            }
        };
        setup(&mut sim);
        apply_at_barrier(chaos, &mut sim, self.at, span.remaining(self.at));
        let done = sim.run_until_iterations(span.iterations, span.budget(chaos));
        assert!(
            done,
            "forked cell did not finish {} iterations",
            span.iterations
        );
        sim
    }
}

/// [`parallel::map_traced`] over cells forked from `prefix` at `at`.
/// The prefix runs once on the calling thread, its snapshot is cached
/// process-wide under [`Prefix::key`] and `at`, and every cell restores
/// it ([`parallel::map_forked`]). With `replay`, every cell re-simulates
/// the prefix instead — same semantics, the byte-identity baseline for
/// the fork path.
pub(crate) fn map_from_prefix<R, T, U, P>(
    rec: &mut R,
    items: &[T],
    prefix: &P,
    at: Dur,
    replay: bool,
    cell: impl Fn(&T, &Barrier<'_, P>, &mut R::Fork) -> U + Sync,
) -> Vec<U>
where
    R: ForkableRecorder,
    T: Sync,
    U: Send,
    P: Prefix,
{
    if replay {
        let barrier = Barrier {
            prefix,
            at,
            shared: None,
        };
        return parallel::map_traced(rec, items, |_, item, fork| cell(item, &barrier, fork));
    }
    let shared = || {
        let key = simtime::hash::config_hash(&format!("{}|{at:?}", prefix.key()));
        get_or_build(key, || {
            let mut prefix_rec = BufferRecorder::new();
            let mut sim = prefix.start(&mut prefix_rec);
            sim.run_until(Time::ZERO + at);
            let snap = sim.snapshot().expect("run_until leaves a barrier");
            drop(sim);
            (snap, prefix_rec)
        })
    };
    parallel::map_forked(rec, items, shared, |_, item, shared, fork| {
        let barrier = Barrier {
            prefix,
            at,
            shared: Some(&**shared),
        };
        cell(item, &barrier, fork)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn builds_once_per_key() {
        let builds = AtomicU32::new(0);
        let mk = || {
            builds.fetch_add(1, Ordering::Relaxed);
            vec![1u8, 2, 3]
        };
        let key = simtime::hash::fnv1a_64(b"forkcache-test-key");
        let a = get_or_build(key, mk);
        let b = get_or_build::<Vec<u8>>(key, || unreachable!("second build for same key"));
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(*a, *b);
    }
}
