//! Sharded execution: advancing several independent engine instances
//! across worker threads.
//!
//! A shard is one engine instance simulating one link-disjoint component of
//! a scenario (see `topology::partition`). Because components share no
//! links, no event in one shard can ever influence another — in
//! conservative parallel-DES terms the cross-shard lookahead is infinite —
//! so each shard runs to the deadline in a single pass, with no barrier
//! between shards.
//!
//! Determinism: each shard is a deterministic simulation, shards never
//! communicate, and the caller merges per-shard recordings by a key that
//! does not involve wall-clock or thread identity
//! (`ForkableRecorder::join_merged`). Worker-thread count therefore cannot
//! affect output — `--shards 8` and `--shards 1` produce byte-identical
//! streams.

use crate::Engine;
use simtime::{Dur, Time};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Advances every shard until all of its jobs complete `iterations`
/// iterations or the shard has simulated `deadline` past where it started,
/// using up to `threads` worker threads. Returns `true` if every shard
/// finished its iterations within the deadline. `threads` never shows in
/// the output.
pub fn run_epochs<S: Engine + Send>(
    shards: &mut [S],
    threads: usize,
    iterations: usize,
    deadline: Dur,
) -> bool {
    // Per-shard absolute stop: shards restored from a snapshot may start at
    // different clocks, and `run_until_iterations` spans are relative.
    let stops: Vec<Time> = shards.iter().map(|s| s.now() + deadline).collect();
    let work: Vec<usize> = shards
        .iter()
        .enumerate()
        .filter(|(i, s)| !s.done(iterations) && s.now() < stops[*i])
        .map(|(i, _)| i)
        .collect();
    run_parallel(shards, &work, threads, |i, shard| {
        let span = stops[i].saturating_since(shard.now());
        shard.run_until_iterations(iterations, span);
    });
    shards.iter().all(|s| s.done(iterations))
}

/// Runs `f` over the shards named by `work`, fanning out across up to
/// `threads` scoped worker threads pulling indices from a shared cursor.
/// With one thread (or one work item) it degrades to a plain serial loop.
fn run_parallel<S: Send>(
    shards: &mut [S],
    work: &[usize],
    threads: usize,
    f: impl Fn(usize, &mut S) + Sync,
) {
    let workers = threads.clamp(1, work.len().max(1));
    if workers <= 1 {
        for &i in work {
            f(i, &mut shards[i]);
        }
        return;
    }
    // Hand each worker disjoint `&mut` access by draining the shards into
    // per-slot options; the cursor hands out work indices in order.
    let slots: Vec<std::sync::Mutex<Option<(usize, &mut S)>>> = {
        let mut remaining: Vec<Option<&mut S>> = shards.iter_mut().map(Some).collect();
        work.iter()
            .map(|&i| std::sync::Mutex::new(remaining[i].take().map(|s| (i, s))))
            .collect()
    };
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= slots.len() {
                    break;
                }
                let taken = slots[k].lock().unwrap().take();
                if let Some((i, shard)) = taken {
                    f(i, shard);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{RateJob, RateSimConfig, RateSimulator};
    use dcqcn::CcVariant;
    use telemetry::{BufferRecorder, ForkableRecorder};
    use workload::{JobSpec, Model};

    fn shard_sims(n: usize) -> Vec<RateSimulator<BufferRecorder>> {
        (0..n)
            .map(|i| {
                let spec = JobSpec::reference(Model::Vgg19, 1000 + 100 * i as u32);
                RateSimulator::with_recorder(
                    RateSimConfig::default(),
                    &[RateJob::new(spec, CcVariant::Fair)],
                    BufferRecorder::fork(),
                )
            })
            .collect()
    }

    fn merged_events(sims: Vec<RateSimulator<BufferRecorder>>) -> Vec<telemetry::TimedEvent> {
        let mut parent = BufferRecorder::new();
        parent.join_merged(sims.into_iter().map(|s| s.into_recorder()).collect());
        parent.events().to_vec()
    }

    /// Thread count must be invisible in the merged stream.
    #[test]
    fn threads_do_not_change_merged_output() {
        let mut streams = Vec::new();
        for threads in [1, 4] {
            let mut sims = shard_sims(3);
            assert!(run_epochs(&mut sims, threads, 4, Dur::from_secs(5)));
            streams.push(merged_events(sims));
        }
        assert!(!streams[0].is_empty());
        assert_eq!(
            streams[1], streams[0],
            "thread count leaked into the output"
        );
    }

    /// Sharded execution equals running each shard independently to the
    /// deadline (what an unsharded per-component loop would do).
    #[test]
    fn sharded_equals_independent_runs() {
        let mut sharded = shard_sims(2);
        run_epochs(&mut sharded, 2, 3, Dur::from_secs(5));
        let mut independent = shard_sims(2);
        for sim in &mut independent {
            sim.run_until_iterations(3, Dur::from_secs(5));
        }
        assert_eq!(merged_events(sharded), merged_events(independent));
    }

    #[test]
    fn deadline_bounds_unfinished_shards() {
        let mut sims = shard_sims(1);
        // Far too little simulated time for 1000 iterations.
        assert!(!run_epochs(&mut sims, 1, 1000, Dur::from_millis(5)));
        assert!(sims[0].now() <= Time::ZERO + Dur::from_millis(6));
    }
}
