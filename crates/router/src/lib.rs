//! SABRE-style qubit mapping and SWAP routing for the PHOENIX workspace.
//!
//! Hardware-aware compilation in the paper follows every logical compiler
//! with "a QISKIT O3 pass with SABRE qubit mapping". This crate provides the
//! equivalent substrate: a front-layer + lookahead + decay swap router
//! (Li–Ding–Xie, ASPLOS'19) over any
//! [`CouplingGraph`](phoenix_topology::CouplingGraph).
//!
//! # Examples
//!
//! ```
//! use phoenix_circuit::{Circuit, Gate};
//! use phoenix_router::{route, Layout, RouterOptions};
//! use phoenix_topology::CouplingGraph;
//!
//! let mut c = Circuit::new(3);
//! c.push(Gate::Cnot(0, 2)); // not adjacent on a line
//! let line = CouplingGraph::line(3);
//! let routed = route(&c, &line, Layout::trivial(3, 3), &RouterOptions::default());
//! assert!(routed.num_swaps >= 1);
//! ```

mod layout;
mod place;
mod sabre;

pub use layout::Layout;
pub use place::{greedy_layout, route_with_attempt_log, search_layout, RouteAttempt};
pub use sabre::{route, try_route, RouteError, RoutedCircuit, RouterOptions};
