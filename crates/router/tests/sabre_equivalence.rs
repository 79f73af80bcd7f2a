//! Differential test: the incremental SABRE router and its layout search
//! against a test-only copy of the full-rescan implementation they
//! replaced. Routed circuits, chosen layouts and the retry ladder's
//! attempt logs (strategy, SWAPs, error) must agree exactly.
//!
//! Run more cases with `PROPTEST_CASES=1024 cargo test --release -p
//! phoenix-router --test sabre_equivalence`.

use phoenix_circuit::{Circuit, Gate};
use phoenix_mathkit::Xoshiro256;
use phoenix_router::{
    greedy_layout, route_with_attempt_log, search_layout, try_route, Layout, RouteAttempt,
    RouteError, RoutedCircuit, RouterOptions,
};
use phoenix_topology::CouplingGraph;
use proptest::prelude::*;

/// The full-rescan router and layout search: every drain pass rescans
/// every queue front, the lookahead set is rebuilt from a `BTreeSet` before
/// every SWAP, and each candidate SWAP is scored on a cloned layout.
mod rescan {
    use phoenix_circuit::{Circuit, Gate};
    use phoenix_router::{Layout, RouteAttempt, RouteError, RoutedCircuit, RouterOptions};
    use phoenix_topology::CouplingGraph;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    pub fn try_route(
        logical: &Circuit,
        device: &CouplingGraph,
        initial_layout: Layout,
        opts: &RouterOptions,
    ) -> Result<RoutedCircuit, RouteError> {
        let lowered = logical.lower_to_cnot();
        let n_log = lowered.num_qubits();
        let n_phys = device.num_qubits();
        if n_log > n_phys {
            return Err(RouteError::DeviceTooSmall {
                logical: n_log,
                physical: n_phys,
            });
        }
        if initial_layout.num_logical() != n_log {
            return Err(RouteError::LayoutMismatch {
                layout: initial_layout.num_logical(),
                circuit: n_log,
            });
        }
        let ph = |layout: &Layout, l: usize| -> usize {
            layout.phys(l).expect("layout arity validated above")
        };
        let budget = opts.swap_budget(lowered.counts().two_qubit(), n_phys);

        let gates = lowered.gates();
        let mut queues: Vec<VecDeque<usize>> = vec![Default::default(); n_log];
        for (gi, g) in gates.iter().enumerate() {
            let (a, b) = g.qubits();
            queues[a].push_back(gi);
            if let Some(b) = b {
                queues[b].push_back(gi);
            }
        }

        let start_layout = initial_layout.clone();
        let mut layout = initial_layout;
        let mut out = Circuit::new(n_phys);
        let mut num_swaps = 0usize;
        let mut decay = vec![0.0f64; n_phys];
        let mut swaps_since_reset = 0usize;
        let mut last_swap: Option<(usize, usize)> = None;

        let ready = |queues: &[VecDeque<usize>], gi: usize, g: &Gate| -> bool {
            let (a, b) = g.qubits();
            queues[a].front() == Some(&gi) && b.is_none_or(|b| queues[b].front() == Some(&gi))
        };

        loop {
            let mut any_executed = false;
            let mut progressed = true;
            while progressed {
                progressed = false;
                let fronts: Vec<usize> = queues.iter().filter_map(|q| q.front().copied()).collect();
                for gi in fronts {
                    let g = &gates[gi];
                    if !ready(&queues, gi, g) {
                        continue;
                    }
                    let (a, b) = g.qubits();
                    let executable = match b {
                        None => true,
                        Some(b) => device.contains_edge(ph(&layout, a), ph(&layout, b)),
                    };
                    if executable {
                        out.push(g.map_qubits(&mut |q| ph(&layout, q)));
                        queues[a].pop_front();
                        if let Some(b) = b {
                            queues[b].pop_front();
                        }
                        progressed = true;
                        any_executed = true;
                    }
                }
            }
            if any_executed {
                last_swap = None;
            }

            let front: Vec<(usize, usize)> = {
                let mut f = Vec::new();
                for q in 0..n_log {
                    if let Some(&gi) = queues[q].front() {
                        let g = &gates[gi];
                        if let (a, Some(b)) = g.qubits() {
                            if ready(&queues, gi, g) && a == q {
                                f.push((a, b));
                            }
                        }
                    }
                }
                f
            };
            if front.is_empty() {
                break;
            }

            let extended = extended_set(gates, &queues, opts.extended_set_size);

            if opts.use_bridge {
                let mut bridged = false;
                for &(a, b) in &front {
                    let (pa, pb) = (ph(&layout, a), ph(&layout, b));
                    if device.distance(pa, pb) != 2 {
                        continue;
                    }
                    let recurs = extended
                        .iter()
                        .filter(|&&(ea, eb)| (ea, eb) == (a, b) || (ea, eb) == (b, a))
                        .count()
                        > 1;
                    if recurs {
                        continue;
                    }
                    let path = device
                        .shortest_path(pa, pb)
                        .expect("distance-2 pair is connected");
                    let m = path[1];
                    for _ in 0..2 {
                        out.push(Gate::Cnot(pa, m));
                        out.push(Gate::Cnot(m, pb));
                    }
                    let gi = *queues[a].front().expect("front gate exists");
                    debug_assert_eq!(queues[b].front(), Some(&gi));
                    queues[a].pop_front();
                    queues[b].pop_front();
                    bridged = true;
                    break;
                }
                if bridged {
                    last_swap = None;
                    continue;
                }
            }

            let mut best: Option<((usize, usize), f64)> = None;
            for &(a, b) in &front {
                for &l in &[a, b] {
                    let p = ph(&layout, l);
                    for &nb in device.neighbors(p).unwrap_or(&[]) {
                        let edge = (p.min(nb), p.max(nb));
                        if Some(edge) == last_swap {
                            continue;
                        }
                        let mut trial = layout.clone();
                        trial.swap_physical(edge.0, edge.1);
                        let mut score = 0.0;
                        for &(fa, fb) in &front {
                            score += device.distance(ph(&trial, fa), ph(&trial, fb)) as f64;
                        }
                        if !extended.is_empty() {
                            let mut ext = 0.0;
                            for &(ea, eb) in &extended {
                                ext += device.distance(ph(&trial, ea), ph(&trial, eb)) as f64;
                            }
                            score += opts.extended_weight * ext / extended.len() as f64;
                        }
                        score *= 1.0 + decay[edge.0] + decay[edge.1];
                        if best.is_none_or(|(_, s)| score < s) {
                            best = Some((edge, score));
                        }
                    }
                }
            }
            let ((p1, p2), _) = best.ok_or(RouteError::NoSwapCandidate { pair: front[0] })?;
            if num_swaps >= budget {
                return Err(RouteError::SwapBudgetExceeded { budget });
            }
            out.push(Gate::Swap(p1, p2));
            layout.swap_physical(p1, p2);
            last_swap = Some((p1, p2));
            num_swaps += 1;
            decay[p1] += opts.decay;
            decay[p2] += opts.decay;
            swaps_since_reset += 1;
            if swaps_since_reset >= opts.decay_reset {
                decay.iter_mut().for_each(|d| *d = 0.0);
                swaps_since_reset = 0;
            }
        }

        Ok(RoutedCircuit {
            circuit: out,
            num_swaps,
            initial_layout: start_layout,
            final_layout: layout,
        })
    }

    fn extended_set(gates: &[Gate], queues: &[VecDeque<usize>], k: usize) -> Vec<(usize, usize)> {
        let executed_before: BTreeSet<usize> =
            queues.iter().filter_map(|q| q.front().copied()).collect();
        let min_pending = match executed_before.iter().next() {
            Some(&m) => m,
            None => return Vec::new(),
        };
        gates
            .iter()
            .enumerate()
            .skip(min_pending)
            .filter_map(|(_, g)| match g.qubits() {
                (a, Some(b)) => Some((a, b)),
                _ => None,
            })
            .take(k)
            .collect()
    }

    pub fn greedy_layout(circuit: &Circuit, device: &CouplingGraph) -> Layout {
        let n_log = circuit.num_qubits();
        let n_phys = device.num_qubits();
        assert!(n_log <= n_phys, "device too small");

        let mut w: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut strength = vec![0.0f64; n_log];
        for g in circuit.gates() {
            if let (a, Some(b)) = g.qubits() {
                *w.entry((a.min(b), a.max(b))).or_insert(0.0) += 1.0;
                strength[a] += 1.0;
                strength[b] += 1.0;
            }
        }
        let mut order: Vec<usize> = (0..n_log).collect();
        order.sort_by(|&a, &b| strength[b].total_cmp(&strength[a]));

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
                    for (&(a, b), &weight) in &w {
                        let partner = if a == l {
                            b
                        } else if b == l {
                            a
                        } else {
                            continue;
                        };
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

    pub fn search_layout(
        circuit: &Circuit,
        device: &CouplingGraph,
        opts: &RouterOptions,
        iters: usize,
    ) -> Layout {
        let lowered = circuit.lower_to_cnot();
        let reversed = Circuit::from_gates(
            lowered.num_qubits(),
            lowered.gates().iter().rev().cloned().collect(),
        );
        let seed = greedy_layout(&lowered, device);
        let mut current = seed.clone();
        let mut best = seed.clone();
        let mut best_swaps = usize::MAX;
        for _ in 0..iters.max(1) {
            let fwd = match try_route(&lowered, device, current.clone(), opts) {
                Ok(r) => r,
                Err(_) => return if best_swaps == usize::MAX { seed } else { best },
            };
            if fwd.num_swaps < best_swaps {
                best_swaps = fwd.num_swaps;
                best = current.clone();
            }
            match try_route(&reversed, device, fwd.final_layout, opts) {
                Ok(bwd) => current = bwd.final_layout,
                Err(_) => return best,
            }
        }
        if let Ok(fwd) = try_route(&lowered, device, current.clone(), opts) {
            if fwd.num_swaps < best_swaps {
                best = current;
            }
        }
        best
    }

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
        let mut relaxed = opts.clone();
        relaxed.max_swaps = opts
            .swap_budget(lowered.counts().two_qubit(), n_phys)
            .saturating_mul(4);
        let mut attempts = Vec::new();
        let mut last_err = None;
        for strategy in ["searched", "greedy-seed", "trivial"] {
            let (layout, o) = match strategy {
                "searched" => (search_layout(&lowered, device, opts, layout_trials), opts),
                "greedy-seed" => (greedy_layout(&lowered, device), opts),
                _ => (Layout::trivial(n_log, n_phys), &relaxed),
            };
            match try_route(&lowered, device, layout, o) {
                Ok(routed) => {
                    attempts.push(RouteAttempt {
                        strategy,
                        micros: 0,
                        swaps: Some(routed.num_swaps),
                        error: None,
                    });
                    return Ok((routed, attempts));
                }
                Err(error) => {
                    attempts.push(RouteAttempt {
                        strategy,
                        micros: 0,
                        swaps: None,
                        error: Some(error.clone()),
                    });
                    last_err = Some(error);
                }
            }
        }
        Err(last_err.expect("all three attempts recorded an error"))
    }
}

/// One routing problem, drawn from a seed.
struct Case {
    device: CouplingGraph,
    circuit: Circuit,
    layout: Layout,
    opts: RouterOptions,
    trials: usize,
}

/// Line, ring, grid, heavy-hex, falcon27, all-to-all, or a random sparse
/// graph that is usually disconnected.
fn device(rng: &mut Xoshiro256) -> CouplingGraph {
    let n = 2 + rng.next_below(9);
    match rng.next_below(7) {
        0 => CouplingGraph::line(n),
        1 => CouplingGraph::ring(n.max(3)),
        2 => CouplingGraph::grid(1 + rng.next_below(3), 2 + rng.next_below(3)),
        3 => CouplingGraph::heavy_hex(1 + rng.next_below(2), 3 + rng.next_below(5)),
        4 => CouplingGraph::falcon27(),
        5 => CouplingGraph::all_to_all(n),
        _ => {
            let edges: Vec<(usize, usize)> = (0..rng.next_below(n + 1))
                .map(|_| (rng.next_below(n), rng.next_below(n)))
                .filter(|&(a, b)| a != b)
                .collect();
            CouplingGraph::from_edges(n, edges)
        }
    }
}

/// Random `{1Q, CNOT}` gates; some draws append a long 1Q run on one qubit.
fn circuit(rng: &mut Xoshiro256, n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..rng.next_below(100) {
        let a = rng.next_below(n);
        let t = rng.next_f64() - 0.5;
        match rng.next_below(8) {
            0 => c.push(Gate::H(a)),
            1 => c.push(Gate::Rz(a, t)),
            2 => c.push(Gate::Rx(a, t)),
            3 => {
                for i in 0..5 + rng.next_below(12) {
                    c.push(if i % 2 == 0 {
                        Gate::Rz(a, t)
                    } else {
                        Gate::H(a)
                    });
                }
            }
            _ if n > 1 => {
                let b = (a + 1 + rng.next_below(n - 1)) % n;
                c.push(Gate::Cnot(a, b));
            }
            _ => c.push(Gate::S(a)),
        }
    }
    c
}

fn case(seed: u64) -> Case {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let device = device(&mut rng);
    let n_phys = device.num_qubits();
    // Usually narrower than the device, so some physical qubits stay free.
    let n_log = if rng.next_below(4) == 0 {
        n_phys.min(14)
    } else {
        1 + rng.next_below(n_phys.min(14))
    };
    let circuit = circuit(&mut rng, n_log);
    let mut slots: Vec<usize> = (0..n_phys).collect();
    rng.shuffle(&mut slots);
    slots.truncate(n_log);
    let layout = Layout::from_assignment(slots, n_phys);
    let opts = RouterOptions {
        extended_set_size: rng.next_below(31),
        decay_reset: 1 + rng.next_below(6),
        use_bridge: rng.next_below(2) == 0,
        max_swaps: if rng.next_below(3) == 0 {
            1 + rng.next_below(12)
        } else {
            0
        },
        ..RouterOptions::default()
    };
    Case {
        device,
        circuit,
        layout,
        opts,
        trials: rng.next_below(5),
    }
}

/// Bit-exact rendering: `Debug` prints every `f64` in round-trip form.
fn exact(r: &Result<RoutedCircuit, RouteError>) -> String {
    format!("{r:?}")
}

/// An attempt log without its timings.
fn outcomes(attempts: &[RouteAttempt]) -> Vec<(&'static str, Option<usize>, Option<RouteError>)> {
    attempts
        .iter()
        .map(|a| (a.strategy, a.swaps, a.error.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// One routing from a random injective layout.
    #[test]
    fn try_route_matches_rescan(seed in any::<u64>()) {
        let c = case(seed);
        let new = try_route(&c.circuit, &c.device, c.layout.clone(), &c.opts);
        let old = rescan::try_route(&c.circuit, &c.device, c.layout, &c.opts);
        prop_assert_eq!(exact(&new), exact(&old));
    }

    /// The greedy seed and the refined layout.
    #[test]
    fn layout_search_matches_rescan(seed in any::<u64>()) {
        let c = case(seed);
        prop_assert_eq!(
            greedy_layout(&c.circuit, &c.device),
            rescan::greedy_layout(&c.circuit, &c.device)
        );
        prop_assert_eq!(
            search_layout(&c.circuit, &c.device, &c.opts, c.trials),
            rescan::search_layout(&c.circuit, &c.device, &c.opts, c.trials)
        );
    }

    /// The retry ladder: the routed circuit or the final error, and every
    /// attempt's strategy, SWAPs and error.
    #[test]
    fn attempt_log_matches_rescan(seed in any::<u64>()) {
        let c = case(seed);
        let new = route_with_attempt_log(&c.circuit, &c.device, &c.opts, c.trials);
        let old = rescan::route_with_attempt_log(&c.circuit, &c.device, &c.opts, c.trials);
        match (new, old) {
            (Ok((new, new_log)), Ok((old, old_log))) => {
                prop_assert_eq!(exact(&Ok(new)), exact(&Ok(old)));
                prop_assert_eq!(outcomes(&new_log), outcomes(&old_log));
            }
            (new, old) => prop_assert_eq!(new.err(), old.err()),
        }
    }
}

/// A bridge right after a SWAP step whose drain ran nothing. The router
/// keeps the front layer across such a step, and the bridge must drop it:
/// the gate it retires leaves the front. On `line:5`, CX(0,3) takes one
/// SWAP to distance 2, the next drain runs nothing and the gate is bridged;
/// CX(0,4) is still blocked after the bridge, so that drain runs nothing
/// either.
#[test]
fn a_bridge_after_a_kept_front_matches_rescan() {
    let mut c = Circuit::new(5);
    c.push(Gate::Cnot(0, 3));
    c.push(Gate::Cnot(0, 4));
    let device = CouplingGraph::line(5);
    let opts = RouterOptions {
        use_bridge: true,
        ..RouterOptions::default()
    };
    let new = try_route(&c, &device, Layout::trivial(5, 5), &opts);
    let old = rescan::try_route(&c, &device, Layout::trivial(5, 5), &opts);
    assert_eq!(exact(&new), exact(&old));
    // The shape the case exists for: a SWAP, the bridge's four CNOTs, and
    // a SWAP after it.
    let routed = new.expect("routable");
    let kinds: Vec<&str> = routed
        .circuit
        .gates()
        .iter()
        .map(|g| match g {
            Gate::Swap(..) => "swap",
            Gate::Cnot(..) => "cnot",
            _ => "other",
        })
        .collect();
    assert_eq!(kinds[..6], ["swap", "cnot", "cnot", "cnot", "cnot", "swap"]);
}

/// Every error path must keep firing: budget exhaustion, a stranded qubit
/// without SWAP candidates, and a routing that succeeds only after the
/// ladder falls back.
#[test]
fn generated_cases_reach_every_outcome() {
    let mut seen = [false; 4];
    let mut rng = Xoshiro256::seed_from_u64(1);
    for _ in 0..2000 {
        let c = case(rng.next_u64());
        match try_route(&c.circuit, &c.device, c.layout.clone(), &c.opts) {
            Ok(r) => seen[0] |= r.num_swaps > 0,
            Err(RouteError::SwapBudgetExceeded { .. }) => seen[1] = true,
            Err(RouteError::NoSwapCandidate { .. }) => seen[2] = true,
            Err(e) => panic!("unexpected error {e}"),
        }
        if let Ok((_, log)) = route_with_attempt_log(&c.circuit, &c.device, &c.opts, c.trials) {
            seen[3] |= log.len() == 3;
        }
    }
    assert_eq!(
        seen, [true; 4],
        "routed with swaps, budget, no candidate, fallback"
    );
}
