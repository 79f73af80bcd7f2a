//! Initial-layout search (the SabreLayout strategy).
//!
//! Routing quality depends heavily on the starting placement. This module
//! provides the standard two-step search: a greedy interaction-weighted
//! seed placement, refined by forward/backward SABRE routing iterations
//! (each pass routes the circuit, adopts the final layout, and routes the
//! reversed circuit back).

use crate::sabre::{route_tables, Tables};
use crate::{Layout, RouteError, RoutedCircuit, RouterOptions};
use phoenix_circuit::Circuit;
use phoenix_topology::CouplingGraph;
use std::collections::BTreeMap;
use std::time::Instant;

/// Greedy seed: logical qubits are placed in decreasing interaction weight,
/// each onto the free physical qubit minimizing the weighted distance to
/// its already placed partners.
pub fn greedy_layout(circuit: &Circuit, device: &CouplingGraph) -> Layout {
    let n_log = circuit.num_qubits();
    let n_phys = device.num_qubits();
    assert!(n_log <= n_phys, "device too small");

    // Interaction weights.
    let mut w: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut strength = vec![0.0f64; n_log];
    for g in circuit.gates() {
        if let (a, Some(b)) = g.qubits() {
            *w.entry((a.min(b), a.max(b))).or_insert(0.0) += 1.0;
            strength[a] += 1.0;
            strength[b] += 1.0;
        }
    }
    // Each qubit's weighted partners in the map's key order, so every
    // placement cost sums the same terms in the same order as a map scan.
    let mut partners: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_log];
    for (&(a, b), &weight) in &w {
        partners[a].push((b, weight));
        if b != a {
            partners[b].push((a, weight));
        }
    }
    let mut order: Vec<usize> = (0..n_log).collect();
    order.sort_by(|&a, &b| strength[b].total_cmp(&strength[a]));

    // Device center: minimum eccentricity.
    let center = (0..n_phys)
        .min_by_key(|&p| {
            (0..n_phys)
                .map(|q| device.distance(p, q))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);

    let mut assignment = vec![usize::MAX; n_log];
    let mut free: Vec<usize> = (0..n_phys).collect();
    for (rank, &l) in order.iter().enumerate() {
        let best = if rank == 0 {
            free.iter().position(|&p| p == center).unwrap_or(0)
        } else {
            let mut best_pos = 0;
            let mut best_cost = f64::INFINITY;
            for (pos, &p) in free.iter().enumerate() {
                let mut cost = 0.0;
                for &(partner, weight) in &partners[l] {
                    if assignment[partner] != usize::MAX {
                        cost += weight * device.distance(p, assignment[partner]) as f64;
                    }
                }
                if cost < best_cost {
                    best_cost = cost;
                    best_pos = pos;
                }
            }
            best_pos
        };
        assignment[l] = free.remove(best);
    }
    Layout::from_assignment(assignment, n_phys)
}

/// SabreLayout-style refinement: starting from [`greedy_layout`], route
/// forward and backward `iters` times, adopting final layouts, and return
/// the layout that produced the fewest forward swaps.
///
/// The search stops at the first trial routing that fails (e.g. the SWAP
/// budget runs out on a pathological instance) and returns the best layout
/// so far, or the greedy seed if no trial succeeded; the caller's own
/// routing attempt then surfaces the error. It also stops once a forward
/// routing needs no SWAP, since no later trial can beat it.
pub fn search_layout(
    circuit: &Circuit,
    device: &CouplingGraph,
    opts: &RouterOptions,
    iters: usize,
) -> Layout {
    let lowered = circuit.lower_to_cnot();
    let forward = Tables::new(&lowered, false);
    match search(&lowered, &forward, device, opts, iters) {
        Ok(routed) => routed.initial_layout,
        Err((seed, _)) => seed,
    }
}

/// The refinement behind [`search_layout`], on the forward tables of
/// `lowered`. Returns the best forward routing, whose initial layout is
/// the chosen one; or, when routing the greedy seed already fails, the
/// seed and that error.
fn search(
    lowered: &Circuit,
    forward: &Tables,
    device: &CouplingGraph,
    opts: &RouterOptions,
    iters: usize,
) -> Result<RoutedCircuit, (Layout, RouteError)> {
    let route_forward =
        |layout: Layout| route_tables(forward, Some(lowered.gates()), device, layout, opts);
    let seed = greedy_layout(lowered, device);
    let mut best = match route_forward(seed.clone()) {
        Ok(routed) => routed,
        Err(error) => return Err((seed, error)),
    };
    let mut backward = None;
    let mut reached = best.final_layout.clone();
    for _ in 0..iters.max(1) {
        if best.num_swaps == 0 {
            break;
        }
        let backward = backward.get_or_insert_with(|| Tables::new(lowered, true));
        let Ok(back) = route_tables(backward, None, device, reached, opts) else {
            break;
        };
        let Ok(fwd) = route_forward(back.final_layout) else {
            break;
        };
        reached = fwd.final_layout.clone();
        if fwd.num_swaps < best.num_swaps {
            best = fwd;
        }
    }
    Ok(best)
}

/// One routing attempt of the retry ladder, timed: the instrumentation
/// record [`route_with_attempt_log`] returns for every attempt it made,
/// successful or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAttempt {
    /// Which layout strategy was tried (`"searched"`, `"greedy-seed"`,
    /// `"trivial"`).
    pub strategy: &'static str,
    /// Wall-clock of the attempt — layout construction (including the
    /// refinement search for `"searched"`) plus the routing itself — in
    /// microseconds.
    pub micros: u64,
    /// SWAPs the attempt inserted, when it succeeded.
    pub swaps: Option<usize>,
    /// Why the attempt was abandoned, when it failed.
    pub error: Option<RouteError>,
}

impl RouteAttempt {
    /// The attempt that started at `t0` and just ended with `result`.
    fn record(
        strategy: &'static str,
        t0: Instant,
        result: &Result<RoutedCircuit, RouteError>,
    ) -> Self {
        RouteAttempt {
            strategy,
            micros: t0.elapsed().as_micros() as u64,
            swaps: result.as_ref().ok().map(|r| r.num_swaps),
            error: result.as_ref().err().cloned(),
        }
    }
}

/// Routing with a graceful-degradation ladder instead of a panic: try the
/// refined [`search_layout`] placement first, then the plain greedy seed,
/// and finally the trivial layout with a quadrupled SWAP budget. Returns
/// the first success together with a per-attempt log (the last entry is
/// the successful one), or the last error when even the trivial fallback
/// fails (the instance is genuinely unroutable, e.g. a disconnected device
/// region).
///
/// The searched attempt returns the search's own routing of the layout it
/// chose. It fails only when routing the greedy seed fails, so the
/// greedy-seed attempt records that error without routing the seed again.
/// The log's timings attribute layout-search cost to the attempt that paid
/// it.
pub fn route_with_attempt_log(
    circuit: &Circuit,
    device: &CouplingGraph,
    opts: &RouterOptions,
    layout_trials: usize,
) -> Result<(RoutedCircuit, Vec<RouteAttempt>), RouteError> {
    let lowered = circuit.lower_to_cnot();
    let n_log = lowered.num_qubits();
    let n_phys = device.num_qubits();
    if n_log > n_phys {
        return Err(RouteError::DeviceTooSmall {
            logical: n_log,
            physical: n_phys,
        });
    }
    let forward = Tables::new(&lowered, false);
    let mut relaxed = opts.clone();
    relaxed.max_swaps = opts.swap_budget(forward.num_2q(), n_phys).saturating_mul(4);

    let t0 = Instant::now();
    let searched = search(&lowered, &forward, device, opts, layout_trials).map_err(|(_, e)| e);
    let mut attempts = vec![RouteAttempt::record("searched", t0, &searched)];
    if let Ok(routed) = searched {
        return Ok((routed, attempts));
    }
    // The search failed routing the greedy seed under `opts`, which is
    // exactly the greedy-seed attempt.
    attempts.push(RouteAttempt::record(
        "greedy-seed",
        Instant::now(),
        &searched,
    ));

    let t0 = Instant::now();
    let trivial = route_tables(
        &forward,
        Some(lowered.gates()),
        device,
        Layout::trivial(n_log, n_phys),
        &relaxed,
    );
    attempts.push(RouteAttempt::record("trivial", t0, &trivial));
    trivial.map(|routed| (routed, attempts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route;
    use phoenix_circuit::Gate;

    fn program(n: usize, pairs: &[(usize, usize)]) -> Circuit {
        let mut c = Circuit::new(n);
        for &(a, b) in pairs {
            c.push(Gate::Cnot(a, b));
        }
        c
    }

    #[test]
    fn greedy_places_interacting_pairs_adjacent() {
        // Two hot pairs on a line device: both should be adjacent.
        let c = program(4, &[(0, 3), (0, 3), (0, 3), (1, 2)]);
        let dev = CouplingGraph::line(6);
        let l = greedy_layout(&c, &dev);
        assert_eq!(dev.distance(l.phys(0).unwrap(), l.phys(3).unwrap()), 1);
    }

    #[test]
    fn search_layout_beats_trivial_on_scrambled_program() {
        // A program whose hot pairs are far apart under the identity map.
        let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 4) % 8)).collect();
        let many: Vec<(usize, usize)> = pairs
            .iter()
            .flat_map(|&p| std::iter::repeat_n(p, 4))
            .collect();
        let c = program(8, &many);
        let dev = CouplingGraph::grid(2, 4);
        let opts = RouterOptions::default();
        let trivial = route(&c, &dev, Layout::trivial(8, 8), &opts).num_swaps;
        let searched = search_layout(&c, &dev, &opts, 3);
        let smart = route(&c, &dev, searched, &opts).num_swaps;
        assert!(smart <= trivial, "searched {smart} vs trivial {trivial}");
    }

    #[test]
    fn layout_is_valid_bijection() {
        let c = program(5, &[(0, 4), (1, 3)]);
        let dev = CouplingGraph::manhattan65();
        let l = search_layout(&c, &dev, &RouterOptions::default(), 2);
        let mut seen = std::collections::BTreeSet::new();
        for q in 0..5 {
            assert!(seen.insert(l.phys(q).unwrap()), "physical slot reused");
        }
    }

    #[test]
    fn retry_ladder_succeeds_on_a_routable_program() {
        let c = program(5, &[(0, 4), (1, 3), (0, 2)]);
        let dev = CouplingGraph::line(5);
        let (routed, attempts) =
            route_with_attempt_log(&c, &dev, &RouterOptions::default(), 2).expect("routable");
        assert!(
            attempts.iter().all(|a| a.error.is_none()),
            "first attempt should succeed"
        );
        assert!(routed.circuit.len() >= c.len());
    }

    #[test]
    fn retry_ladder_falls_back_when_the_budget_is_tight() {
        // A budget of 1 makes the searched and greedy attempts fail on a
        // program needing several swaps; the trivial fallback gets 4×.
        let pairs: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 3) % 6)).collect();
        let c = program(6, &pairs);
        let dev = CouplingGraph::line(6);
        let opts = RouterOptions {
            max_swaps: 1,
            ..RouterOptions::default()
        };
        match route_with_attempt_log(&c, &dev, &opts, 1) {
            Ok((_, attempts)) => assert!(
                attempts.iter().any(|a| a.error.is_some()),
                "must have retried"
            ),
            Err(RouteError::SwapBudgetExceeded { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn retry_ladder_reports_unroutable_instances() {
        // All three logical qubits interact pairwise but physical qubit 2
        // is isolated: whichever logical lands there is stranded, so no
        // layout can route the whole program.
        let c = program(3, &[(0, 1), (1, 2), (0, 2)]);
        let dev = CouplingGraph::from_edges(3, [(0, 1)]);
        let err = route_with_attempt_log(&c, &dev, &RouterOptions::default(), 1)
            .expect_err("disconnected region is unroutable");
        assert!(matches!(
            err,
            RouteError::SwapBudgetExceeded { .. } | RouteError::NoSwapCandidate { .. }
        ));
    }
}
