//! `chem-cnot` and `device-route`: one caller compiling a fixed program
//! suite in a closed loop, in a seeded order reshuffled every round.
//!
//! - `chem-cnot` compiles the sixteen Table I UCCSD programs to the CNOT
//!   ISA. Stage 2 (`simplify-synth`), `tetris-order` and `peephole` do
//!   almost all the work; there is no router and no cache.
//! - `device-route` compiles the six Table IV QAOA graphs plus LiH and NH
//!   (frozen core, Jordan–Wigner) onto registry devices, each program on
//!   every device at least as wide as it. `layout-route` dominates, stage 2
//!   is light (QAOA terms have weight 2), and the SU(4) and KAK devices
//!   exercise the native-ISA rebases.
//!
//! The seed draws every coefficient and the order of every round; the
//! program structures are the paper's, so circuit quality is the same for
//! every seed and must repeat exactly on every compile.

use phoenix_core::{
    CompileContext, CompileOutcome, CompileRequest, Device, DeviceRegistry, PhoenixOptions, Target,
};
use phoenix_hamil::{qaoa, uccsd, Hamiltonian, Molecule};
use phoenix_mathkit::Xoshiro256;
use phoenix_pauli::PauliString;

use crate::trace::{self, Counters, Op, Recorder};
use crate::{median_cpu_ms, setup_repeated, timed, verify, Measured, Quality, RunArgs, Traced};

/// The devices of `device-route`.
const DEVICES: [&str; 5] = [
    "grid:4x4",
    "falcon27",
    "manhattan65",
    "ion-trap:24",
    "line:16@kak",
];

/// Seed of the Table IV graphs. The graphs are fixed benchmark inputs
/// like the molecules; the run seed draws their edge weights.
const GRAPH_SEED: u64 = 7;

/// Rounds a traced run replays.
const TRACED_ROUNDS: usize = 4;

/// One compile of the suite.
struct Job {
    label: String,
    num_qubits: usize,
    terms: Vec<(PauliString, f64)>,
    device: Option<Device>,
}

impl Job {
    fn request(&self) -> CompileRequest {
        let target = match &self.device {
            Some(d) => Target::Device(d.clone()),
            None => Target::Cnot,
        };
        CompileRequest::new(self.num_qubits, &self.terms).target(target)
    }

    /// The outcome's quality, and whether it passes the correctness gate.
    fn check(&self, out: &CompileOutcome, rng: &mut Xoshiro256) -> Result<Quality, String> {
        let result = match (&self.device, &out.hardware) {
            (None, _) => verify::check_logical(&out.circuit, &out.term_order, &self.terms, rng)
                .map(|()| Quality::of(&out.circuit, 0)),
            (Some(device), Some(hw)) => {
                verify::check_routed(hw, device, &out.term_order, &self.terms, rng)
                    .map(|()| Quality::of(&hw.circuit, hw.num_swaps))
            }
            (Some(_), None) => Err("device compile returned no hardware program".to_string()),
        };
        result.map_err(|e| format!("{}: {e}", self.label))
    }
}

fn job(h: &Hamiltonian, device: Option<&Device>) -> Job {
    Job {
        label: match device {
            Some(d) => format!("{}@{}", h.name(), d.name()),
            None => h.name().to_string(),
        },
        num_qubits: h.num_qubits(),
        terms: h.terms().to_vec(),
        device: device.cloned(),
    }
}

/// The Table IV graphs with edge weights drawn from `seed`.
fn qaoa_programs(seed: u64) -> Vec<Hamiltonian> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9a0a);
    qaoa::table4_suite(GRAPH_SEED)
        .into_iter()
        .map(|h| {
            let terms = h
                .terms()
                .iter()
                .map(|(p, _)| (p.clone(), rng.next_range_f64(0.1, 1.0)))
                .collect();
            Hamiltonian::new(h.name(), h.num_qubits(), terms)
        })
        .collect()
}

/// The generated programs of a suite workload.
fn programs(workload: &str, seed: u64) -> Vec<Hamiltonian> {
    if workload == "chem-cnot" {
        return uccsd::table1_suite(seed);
    }
    let mut programs = qaoa_programs(seed);
    for mol in [Molecule::lih(), Molecule::nh()] {
        programs.push(uccsd::ansatz(
            mol,
            true,
            uccsd::Encoding::JordanWigner,
            seed,
        ));
    }
    programs
}

/// Input generation plus the device registry: the workload's set-up.
fn jobs(workload: &str, seed: u64) -> Vec<Job> {
    let programs = programs(workload, seed);
    if workload == "chem-cnot" {
        return programs.iter().map(|h| job(h, None)).collect();
    }
    let registry = DeviceRegistry::new();
    let mut jobs = Vec::new();
    for spec in DEVICES {
        let device = registry.build(spec).expect("registry spec is valid");
        for h in &programs {
            if h.num_qubits() <= device.graph().num_qubits() {
                jobs.push(job(h, Some(&device)));
            }
        }
    }
    jobs
}

/// The untraced closed loop.
pub fn run(workload: &str, args: RunArgs) -> Measured {
    let (jobs, setup) = setup_repeated(|| jobs(workload, args.seed));
    let mut m = Measured {
        setup,
        classes: jobs.iter().map(|j| j.label.clone()).collect(),
        ..Measured::default()
    };
    // Warm-up pass, untimed, then its verification, which fixes each
    // job's quality.
    let warm: Vec<_> = jobs.iter().map(|j| j.request().run()).collect();
    m.attempted += jobs.len() as u64;
    let reference = verify::in_parallel(&jobs, |i, j| {
        let mut rng = Xoshiro256::seed_from_u64(args.seed ^ i as u64);
        match &warm[i] {
            Ok(out) => j.check(out, &mut rng),
            Err(e) => Err(format!("{}: {e}", j.label)),
        }
    });
    let reference: Vec<Option<Quality>> = reference
        .into_iter()
        .map(|r| match r {
            Ok(q) => {
                m.quality.add(q);
                Some(q)
            }
            Err(e) => {
                m.failures.push(e);
                None
            }
        })
        .collect();
    drop(warm);
    let mut rng = Xoshiro256::seed_from_u64(args.seed);
    let start = std::time::Instant::now();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    while m.ops.len() < crate::MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        rng.shuffle(&mut order);
        for &i in &order {
            let request = jobs[i].request();
            let (out, cost) = timed(|| request.run());
            m.attempted += 1;
            m.ops.push((i, cost));
            m.calibration.tick();
            let repeated = out.as_ref().ok().map(|o| match &o.hardware {
                Some(hw) => Quality::of(&hw.circuit, hw.num_swaps),
                None => Quality::of(&o.circuit, 0),
            });
            if repeated.is_none() || repeated != reference[i] {
                m.failures.push(format!(
                    "{}: compile did not repeat the verified result",
                    jobs[i].label
                ));
            }
        }
    }
    m.notes.push(("swaps", m.quality.swaps as f64, "count"));
    m
}

/// The traced replay: each op runs once as the program (untraced, for the
/// reference circuit, pass list and time) and once pass by pass.
pub fn trace(workload: &str, args: RunArgs) -> Traced {
    let mut out = Traced::default();
    out.metrics.insert(
        "hamil.generate.ms",
        median_cpu_ms(|| programs(workload, args.seed)),
    );
    let jobs = jobs(workload, args.seed);
    let options = PhoenixOptions::default();
    let mut rng = Xoshiro256::seed_from_u64(args.seed);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut recorder = Recorder::new();
    let mut counters = Counters::default();
    let mut quality = Quality::default();
    let mut untraced_ms = 0.0;
    for round in 0..TRACED_ROUNDS {
        rng.shuffle(&mut order);
        for &i in &order {
            let j = &jobs[i];
            out.attempted += 1;
            let request = j.request().trace(true);
            let (program, cost) = timed(|| request.run());
            let program = match program {
                Ok(p) => p,
                Err(e) => {
                    out.failures.push(format!("{}: {e}", j.label));
                    continue;
                }
            };
            untraced_ms += cost.wall_ms;
            let (op, (circuit, names)) = trace::covered(|| {
                let (mut ctx, passes) = match &j.device {
                    Some(d) => (
                        CompileContext::for_device(j.num_qubits, &j.terms, d.graph()),
                        trace::device_passes(d, &options),
                    ),
                    None => {
                        let mut passes = trace::logical_passes(&options, false);
                        passes.push(Box::new(phoenix_core::passes::TransformPass::peephole()));
                        (CompileContext::new(j.num_qubits, &j.terms), passes)
                    }
                };
                let mut op = Op::start(j.label.as_str());
                let names = op.replay(&mut ctx, passes, &mut counters);
                (op, (ctx.circuit, names))
            });
            recorder.finish(op, cost.wall_ms);
            match names {
                Ok(names) => {
                    let program_trace = program.trace.clone().unwrap_or_default();
                    recorder.check_replay(
                        &j.label,
                        (&circuit, &names),
                        (&program.circuit, &program_trace.pass_names()),
                    );
                }
                Err(e) => out.failures.push(format!("{}: {e}", j.label)),
            }
            if round == 0 {
                if let Some(hw) = &program.hardware {
                    quality.swaps += hw.num_swaps;
                }
            }
        }
    }
    // Instrumented compiles last: `obs(true)` turns on process-global
    // metric recording for good.
    let (_, obs) = timed(|| {
        for _ in 0..TRACED_ROUNDS {
            for j in &jobs {
                drop(j.request().obs(true).run());
            }
        }
    });
    out.metrics
        .insert("obs.overhead_ratio", obs.wall_ms / untraced_ms);
    out.metrics.insert("router.swaps", quality.swaps as f64);
    counters.metrics(&mut out.metrics);
    recorder.metrics(&mut out);
    finish_trace(&mut out, recorder, workload);
    out
}

/// Moves the recorder's failures into `out` and writes its spans.
pub fn finish_trace(out: &mut Traced, recorder: Recorder, workload: &str) {
    match recorder.write(workload) {
        Ok(path) => eprintln!(
            "{workload}: {} traced ops written to {path}",
            recorder.ops()
        ),
        Err(e) => out.failures.push(format!("writing the trace: {e}")),
    }
    out.failures.extend(recorder.failures);
}
