//! A registry of named device builders.
//!
//! Specs follow the grammar `family:dims[@isa]`:
//!
//! | family            | dims    | topology                         | default ISA |
//! |-------------------|---------|----------------------------------|-------------|
//! | `line:N`          | `N`     | open chain                       | `cnot`      |
//! | `ring:N`          | `N`     | closed chain                     | `cnot`      |
//! | `grid:RxC`        | `RxC`   | 2D lattice                       | `cnot`      |
//! | `heavy-hex:RxL`   | `RxL`   | IBM heavy-hex, R rows of L       | `cnot`      |
//! | `ion-trap:N`      | `N`     | all-to-all                       | `su4`       |
//!
//! plus the fixed presets `falcon27`, `manhattan65`, and `eagle127`. The
//! optional `@cnot` / `@su4` / `@kak` suffix overrides the native ISA.
//! Every device gets a noise profile seeded deterministically from the
//! registry seed and the topology part of the spec, so `grid:4x4` and
//! `grid:4x4@su4` share error rates and repeated builds are identical.

use crate::{Device, NativeIsa, NoiseProfile};
use phoenix_topology::CouplingGraph;
use std::fmt;

/// A typed error from [`DeviceRegistry::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceSpecError {
    /// The family (the part before `:`) is not in the registry.
    UnknownDevice(String),
    /// The size part is missing, non-numeric, zero, or over the cap.
    MalformedSize(String),
    /// The `@isa` suffix is not `cnot`, `su4`, or `kak`.
    UnknownIsa(String),
}

impl fmt::Display for DeviceSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceSpecError::UnknownDevice(spec) => write!(
                f,
                "unknown device '{spec}' (expected line:N, ring:N, grid:RxC, \
                 heavy-hex:RxL, ion-trap:N, falcon27, manhattan65, or eagle127)"
            ),
            DeviceSpecError::MalformedSize(spec) => write!(
                f,
                "malformed device size in '{spec}' (sizes must be positive \
                 integers, at most {MAX_DIM}, for at most {MAX_DEVICE_QUBITS} \
                 physical qubits)"
            ),
            DeviceSpecError::UnknownIsa(isa) => {
                write!(f, "unknown ISA '@{isa}' (expected @cnot, @su4, or @kak)")
            }
        }
    }
}

impl std::error::Error for DeviceSpecError {}

/// Per-dimension cap on registry-built device sizes, so a hostile spec
/// like `grid:99999x99999` cannot allocate an absurd graph.
const MAX_DIM: usize = 4096;

/// Cap on the physical qubits of a registry-built device, checked before
/// anything is allocated: a graph keeps an n×n distance table, and
/// `ion-trap:N` has N(N−1)/2 edges, so `grid:4096x4096` (16.7 M qubits)
/// or `ion-trap:4096` (8.4 M edges) must not pass on their dimensions
/// alone. The presets and every spec in use are far below it.
const MAX_DEVICE_QUBITS: usize = 1024;

/// Builds [`Device`]s from compact named specs with seeded noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceRegistry {
    seed: u64,
}

impl Default for DeviceRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceRegistry {
    /// The registry with the default noise seed.
    pub fn new() -> Self {
        DeviceRegistry { seed: 7 }
    }

    /// A registry whose noise profiles derive from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        DeviceRegistry { seed }
    }

    /// Build a device from a spec like `heavy-hex:3x5` or `ion-trap:12@su4`.
    pub fn build(&self, spec: &str) -> Result<Device, DeviceSpecError> {
        let spec = spec.trim();
        let (topo_spec, isa_override) = match spec.split_once('@') {
            Some((topo, isa)) => (topo, Some(parse_isa(isa)?)),
            None => (spec, None),
        };
        let (graph, default_isa) = build_graph(topo_spec)?;
        let isa = isa_override.unwrap_or(default_isa);
        let noise = NoiseProfile::seeded(&graph, mix(self.seed, fnv1a(topo_spec)));
        Ok(Device::new(spec, graph, isa, noise))
    }
}

fn parse_isa(isa: &str) -> Result<NativeIsa, DeviceSpecError> {
    match isa {
        "cnot" => Ok(NativeIsa::Cnot),
        "su4" => Ok(NativeIsa::Su4),
        "kak" | "cnot-kak" => Ok(NativeIsa::CnotViaKak),
        other => Err(DeviceSpecError::UnknownIsa(other.to_string())),
    }
}

fn build_graph(spec: &str) -> Result<(CouplingGraph, NativeIsa), DeviceSpecError> {
    match spec {
        "falcon27" => return Ok((CouplingGraph::falcon27(), NativeIsa::Cnot)),
        "manhattan65" => return Ok((CouplingGraph::manhattan65(), NativeIsa::Cnot)),
        "eagle127" => return Ok((CouplingGraph::eagle127(), NativeIsa::Cnot)),
        _ => {}
    }
    let Some((family, size)) = spec.split_once(':') else {
        return Err(DeviceSpecError::UnknownDevice(spec.to_string()));
    };
    let capped = |qubits: usize| {
        if qubits <= MAX_DEVICE_QUBITS {
            Ok(())
        } else {
            Err(DeviceSpecError::MalformedSize(spec.to_string()))
        }
    };
    match family {
        "line" | "ring" | "ion-trap" => {
            let n = parse_dim(spec, size)?;
            capped(n)?;
            Ok(match family {
                "line" => (CouplingGraph::line(n), NativeIsa::Cnot),
                "ring" => (CouplingGraph::ring(n), NativeIsa::Cnot),
                _ => (CouplingGraph::all_to_all(n), NativeIsa::Su4),
            })
        }
        "grid" => {
            let (r, c) = parse_dims(spec, size)?;
            capped(r * c)?;
            Ok((CouplingGraph::grid(r, c), NativeIsa::Cnot))
        }
        "heavy-hex" => {
            let (rows, row_len) = parse_dims(spec, size)?;
            capped(heavy_hex_qubits(rows, row_len))?;
            Ok((CouplingGraph::heavy_hex(rows, row_len), NativeIsa::Cnot))
        }
        _ => Err(DeviceSpecError::UnknownDevice(spec.to_string())),
    }
}

/// Qubits of `CouplingGraph::heavy_hex(rows, row_len)`: the rows, plus one
/// connector per column `c ≡ 2·(r mod 2) (mod 4)` between rows `r` and
/// `r + 1`.
fn heavy_hex_qubits(rows: usize, row_len: usize) -> usize {
    let connectors = (0..rows - 1)
        .map(|r| (row_len + 3 - 2 * (r % 2)) / 4)
        .sum::<usize>();
    rows * row_len + connectors
}

fn parse_dim(spec: &str, size: &str) -> Result<usize, DeviceSpecError> {
    match size.parse::<usize>() {
        Ok(n) if (1..=MAX_DIM).contains(&n) => Ok(n),
        _ => Err(DeviceSpecError::MalformedSize(spec.to_string())),
    }
}

fn parse_dims(spec: &str, size: &str) -> Result<(usize, usize), DeviceSpecError> {
    let Some((a, b)) = size.split_once('x') else {
        return Err(DeviceSpecError::MalformedSize(spec.to_string()));
    };
    Ok((parse_dim(spec, a)?, parse_dim(spec, b)?))
}

/// SplitMix64 finalizer, for combining the registry seed with a spec hash.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the spec bytes (stable across platforms, unlike `Hash`).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_family() {
        let reg = DeviceRegistry::new();
        let cases = [
            ("line:6", 6, NativeIsa::Cnot),
            ("ring:8", 8, NativeIsa::Cnot),
            ("grid:3x4", 12, NativeIsa::Cnot),
            ("ion-trap:10", 10, NativeIsa::Su4),
            ("falcon27", 27, NativeIsa::Cnot),
            ("manhattan65", 65, NativeIsa::Cnot),
            ("eagle127", 127, NativeIsa::Cnot),
        ];
        for (spec, qubits, isa) in cases {
            let dev = reg.build(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(dev.graph().num_qubits(), qubits, "{spec}");
            assert_eq!(dev.isa(), isa, "{spec}");
            assert_eq!(dev.name(), spec);
            assert!(dev.graph().is_connected(), "{spec}");
        }
        let hh = reg.build("heavy-hex:2x3").expect("heavy-hex");
        assert!(hh.graph().is_connected());
        assert!(hh.graph().num_qubits() > 6);
    }

    #[test]
    fn isa_suffix_overrides_but_not_noise() {
        let reg = DeviceRegistry::new();
        let plain = reg.build("grid:4x4").expect("plain");
        let su4 = reg.build("grid:4x4@su4").expect("su4");
        let kak = reg.build("grid:4x4@kak").expect("kak");
        assert_eq!(su4.isa(), NativeIsa::Su4);
        assert_eq!(kak.isa(), NativeIsa::CnotViaKak);
        assert_eq!(plain.noise(), su4.noise());
        assert_eq!(plain.noise(), kak.noise());
        assert_eq!(
            reg.build("ion-trap:6@cnot").expect("cnot trap").isa(),
            NativeIsa::Cnot
        );
    }

    #[test]
    fn builds_are_deterministic_and_seed_sensitive() {
        let a = DeviceRegistry::new().build("heavy-hex:2x3").expect("a");
        let b = DeviceRegistry::new().build("heavy-hex:2x3").expect("b");
        assert_eq!(a, b);
        let c = DeviceRegistry::with_seed(99)
            .build("heavy-hex:2x3")
            .expect("c");
        assert_ne!(a.noise(), c.noise());
    }

    #[test]
    fn typed_errors_for_bad_specs() {
        let reg = DeviceRegistry::new();
        assert!(matches!(
            reg.build("torus:4x4"),
            Err(DeviceSpecError::UnknownDevice(_))
        ));
        assert!(matches!(
            reg.build("banana"),
            Err(DeviceSpecError::UnknownDevice(_))
        ));
        assert!(matches!(
            reg.build("line:0"),
            Err(DeviceSpecError::MalformedSize(_))
        ));
        assert!(matches!(
            reg.build("grid:4"),
            Err(DeviceSpecError::MalformedSize(_))
        ));
        assert!(matches!(
            reg.build("grid:4xfour"),
            Err(DeviceSpecError::MalformedSize(_))
        ));
        assert!(matches!(
            reg.build("line:99999999"),
            Err(DeviceSpecError::MalformedSize(_))
        ));
        assert!(matches!(
            reg.build("line:6@pulse"),
            Err(DeviceSpecError::UnknownIsa(_))
        ));
        // Errors render with guidance.
        let msg = reg.build("torus:4x4").unwrap_err().to_string();
        assert!(msg.contains("heavy-hex"));
    }

    #[test]
    fn device_size_is_capped_before_building() {
        let reg = DeviceRegistry::new();
        for spec in [
            "grid:4096x4096",
            "heavy-hex:4096x4096",
            "ion-trap:4096",
            "line:1025",
            "ring:4096",
            "grid:33x32",
            "heavy-hex:20x43@su4",
        ] {
            assert!(
                matches!(reg.build(spec), Err(DeviceSpecError::MalformedSize(_))),
                "{spec}"
            );
        }
        let msg = reg.build("grid:4096x4096").unwrap_err().to_string();
        assert!(msg.contains("1024 physical qubits"), "{msg}");
        for (spec, qubits) in [
            ("grid:32x32", 1024),
            ("line:1024", 1024),
            ("ion-trap:64", 64),
        ] {
            assert_eq!(
                reg.build(spec).unwrap().graph().num_qubits(),
                qubits,
                "{spec}"
            );
        }
    }

    #[test]
    fn heavy_hex_qubit_count_matches_the_graph() {
        for rows in 1..=7 {
            for row_len in 1..=13 {
                assert_eq!(
                    heavy_hex_qubits(rows, row_len),
                    CouplingGraph::heavy_hex(rows, row_len).num_qubits(),
                    "heavy-hex:{rows}x{row_len}"
                );
            }
        }
    }
}
