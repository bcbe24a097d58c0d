//! Differential property tests of the **timeline-merge kernels**: the
//! branch-light sort-merge ([`merge_timelines`]) and the shared-pass
//! δ-sweep kernel ([`merge_timelines_deltas`]) are each pinned
//! bit-identical to
//!
//! * the retained pre-kernel **reference oracle**
//!   (`merge_timelines_reference`, a binary-probe single-STIC merge kept
//!   under the `ref-oracle` feature), and
//! * the **Lockstep and Streaming engines**, which never touch timelines
//!   at all.
//!
//! The δ-sweep kernel has no sweep-shaped oracle of its own: every slot is
//! pinned against the per-STIC merges and both engines at its delay.
//! Everything the warm store serves flows through these kernels, so these
//! differentials are what lets the zero-copy paths claim exactness.
//!
//! [`merge_timelines`]: anonrv::sim::merge_timelines
//! [`merge_timelines_deltas`]: anonrv::sim::merge_timelines_deltas

use proptest::prelude::*;

use anonrv::graph::generators::{oriented_ring, random_connected};
use anonrv::sim::{
    merge_timelines, merge_timelines_deltas, merge_timelines_reference, simulate_with,
    AgentProgram, EngineConfig, Navigator, Round, Stic, Stop, Timeline,
};

/// Deterministic scripted agent (same idiom as the engine property tests):
/// a seeded LCG decides each round between moving through a pseudo-random
/// port and short waits, optionally terminating after a bounded number of
/// actions.
struct ScriptedWalker {
    seed: u64,
    lifetime: Option<u64>,
}

impl AgentProgram for ScriptedWalker {
    fn run(&self, nav: &mut dyn Navigator) -> Result<(), Stop> {
        let mut state = self.seed | 1;
        let mut actions = 0u64;
        loop {
            if let Some(lifetime) = self.lifetime {
                if actions >= lifetime {
                    return Ok(());
                }
            }
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let roll = state >> 33;
            if roll.is_multiple_of(4) {
                nav.wait((roll % 9 + 1) as Round)?;
            } else {
                nav.move_via(roll as usize % nav.degree())?;
            }
            actions += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sort-merge kernel against the binary-probe reference oracle and
    /// both timeline-free engines, over random connected graphs.
    #[test]
    fn merge_kernel_matches_reference_and_both_engines(
        n in 2usize..10,
        extra in 0usize..5,
        graph_seed in 0u64..200,
        walker_seed in 0u64..1_000,
        lifetime_sel in 0u64..80,
        horizon in 0u64..200,
        u_sel in 0usize..10,
        v_sel in 0usize..10,
        delay in 0u64..220, // sometimes beyond the horizon: no-show path
    ) {
        let extra = extra.min(n * (n - 1) / 2 - (n - 1));
        let g = random_connected(n, extra, graph_seed).expect("valid generator parameters");
        let lifetime = (lifetime_sel < 40).then_some(lifetime_sel + 1);
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let horizon = horizon as Round;
        let stic = Stic::new(u_sel % n, v_sel % n, delay as Round);

        let earlier = Timeline::record(&g, &program, stic.earlier, horizon);
        let later = Timeline::record(&g, &program, stic.later, horizon);
        let merged = merge_timelines(&earlier, &later, &stic, horizon);

        let oracle = merge_timelines_reference(&earlier, &later, &stic, horizon);
        prop_assert_eq!(merged, oracle, "{} kernel vs reference", stic);
        for config in [EngineConfig::lockstep(horizon), EngineConfig::streaming(horizon)] {
            let direct = simulate_with(&g, &program, &program, &stic, config);
            prop_assert_eq!(merged, direct, "{} kernel vs engine", stic);
        }
    }

    /// The shared-pass δ-sweep kernel, slot by slot, against the sort-merge
    /// kernel, the binary-probe reference oracle and both timeline-free
    /// engines at that slot's delay — on rings and random connected graphs,
    /// with unsorted, duplicated and beyond-horizon delays.
    #[test]
    fn delta_sweep_matches_reference_and_per_delay_merges(
        n in 3usize..10,
        ring_sel in 0u8..2,
        extra in 0usize..5,
        graph_seed in 0u64..200,
        walker_seed in 0u64..1_000,
        lifetime_sel in 0u64..60,
        horizon in 0u64..160,
        u_sel in 0usize..10,
        v_sel in 0usize..10,
        raw_deltas in proptest::collection::vec(0u64..180, 0..12),
    ) {
        let g = if ring_sel == 0 {
            oriented_ring(n).expect("valid ring")
        } else {
            let extra = extra.min(n * (n - 1) / 2 - (n - 1));
            random_connected(n, extra, graph_seed).expect("valid generator parameters")
        };
        let lifetime = (lifetime_sel < 30).then_some(lifetime_sel + 1);
        let program = ScriptedWalker { seed: walker_seed, lifetime };
        let horizon = horizon as Round;
        let deltas: Vec<Round> = raw_deltas.iter().map(|&d| d as Round).collect();
        let (u, v) = (u_sel % n, v_sel % n);

        let earlier = Timeline::record(&g, &program, u, horizon);
        let later = Timeline::record(&g, &program, v, horizon);
        let swept = merge_timelines_deltas(&earlier, &later, &deltas, horizon);
        prop_assert_eq!(swept.len(), deltas.len());
        for (i, &delta) in deltas.iter().enumerate() {
            let stic = Stic::new(u, v, delta);
            let single = merge_timelines(&earlier, &later, &stic, horizon);
            prop_assert_eq!(swept[i], single, "{} sweep slot vs sort-merge", stic);
            let oracle = merge_timelines_reference(&earlier, &later, &stic, horizon);
            prop_assert_eq!(swept[i], oracle, "{} sweep slot vs reference", stic);
            for config in [EngineConfig::lockstep(horizon), EngineConfig::streaming(horizon)] {
                let direct = simulate_with(&g, &program, &program, &stic, config);
                prop_assert_eq!(swept[i], direct, "{} sweep slot vs engine", stic);
            }
        }
    }
}
