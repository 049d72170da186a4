//! Bit-determinism of the explicit-lane runners under hostile floating
//! point: inputs seeded with NaN, signed zeros, and infinities run 20
//! times under serial and parallel execution, and every run must
//! produce bit-identical outputs. Outputs here are row-owned, so the
//! bits must also agree **across** thread counts (each row's fold runs
//! start-to-finish inside one chunk regardless of how many workers
//! there are); work counters are value-independent and must match the
//! scalar-mode runners exactly.

use std::collections::HashMap;

use systec_codegen::{CompiledKernel, ExecContext, LaneMode, Parallelism};
use systec_exec::{alloc_outputs, hoist_conditions, lower, run_lowered, Counters};
use systec_ir::build::*;
use systec_ir::{AssignOp, Einsum, Stmt};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// A deterministic value ladder that cycles hostile specials through
/// ordinary magnitudes: NaN, ±inf, -0.0, and values spread far enough
/// apart that fold order visibly changes the rounding.
fn hostile_value(k: usize) -> f64 {
    match k % 11 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 1e-300,
        5 => -1e16,
        6 => 1e16,
        7 => 0.1,
        8 => -3.0,
        9 => 1e-16,
        _ => 7.5,
    }
}

fn hostile_matrix(n: usize, formats: &[LevelFormat]) -> Tensor {
    let mut coo = CooTensor::new(vec![n, n]);
    let mut k = 0;
    for i in 0..n {
        for j in 0..n {
            // ~40% occupancy with short runs, deterministic pattern.
            if (i * 7 + j * 3) % 5 < 2 {
                coo.set(&[i, j], hostile_value(k));
                k += 1;
            }
        }
    }
    Tensor::Sparse(SparseTensor::from_coo(&coo, formats).unwrap())
}

fn hostile_vec(n: usize, offset: usize) -> Tensor {
    Tensor::Dense(
        DenseTensor::from_vec(vec![n], (0..n).map(|j| hostile_value(j + offset)).collect())
            .unwrap(),
    )
}

/// Runs `einsum` 20 times under each parallelism setting, asserting
/// bit-identical outputs within and across settings, and exact counter
/// parity between the lane-mode and scalar-mode runners.
fn assert_lane_determinism(einsum: &Einsum, inputs: &HashMap<String, Tensor>, label: &str) {
    let hoisted = hoist_conditions(einsum.naive_program());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);
    let out_name = einsum.output.tensor.display_name();

    let mut ctx = ExecContext::new();
    let mut reference: Option<(Vec<u64>, Counters)> = None;
    for par in [Parallelism::Serial, Parallelism::threads(2), Parallelism::threads(4)] {
        for rep in 0..20 {
            let mut outputs = outputs_init.clone();
            let mut counters = Counters::new();
            compiled.run_with(inputs, &mut outputs, &mut ctx, par, &mut counters).expect(label);
            let bits: Vec<u64> =
                outputs[&out_name].as_slice().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some((bits, counters)),
                Some((b, c)) => {
                    assert_eq!(&bits, b, "{label}: {par:?} rep={rep} output bits drifted");
                    assert_eq!(&counters, c, "{label}: {par:?} rep={rep} counters drifted");
                }
            }
        }
    }

    // Scalar-mode runners do the same structural work: exact counter
    // parity (values legitimately differ in the last bit — lane merges
    // reassociate the folds).
    let mut scalar_ctx = ExecContext::new().with_lane_mode(LaneMode::Scalar);
    let mut outputs = outputs_init.clone();
    let mut c_scalar = Counters::new();
    compiled
        .run_with(inputs, &mut outputs, &mut scalar_ctx, Parallelism::Serial, &mut c_scalar)
        .expect(label);
    assert_eq!(c_scalar, reference.unwrap().1, "{label}: lane/scalar counter parity");
}

#[test]
fn lane_runners_are_bit_deterministic_on_hostile_floats() {
    // Rows average ~40% of n nonzeros; n is sized so they clear the
    // short-fiber cutover (LANE_MIN) and actually run the lane kernels.
    let n = 64;
    let formats: &[&[LevelFormat]] = &[
        &[LevelFormat::Dense, LevelFormat::Sparse],
        &[LevelFormat::Sparse, LevelFormat::Sparse],
        &[LevelFormat::Dense, LevelFormat::RunLength],
        &[LevelFormat::Dense, LevelFormat::Dense],
    ];
    for fmt in formats {
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), hostile_matrix(n, fmt));
        inputs.insert("x".to_string(), hostile_vec(n, 5));

        // Row dot: the laned Dot fused body (VecSparseLoop / VecRleLoop
        // / VecDenseLoop depending on the format).
        let spmv = Einsum::new(
            access("y", ["i"]),
            AssignOp::Add,
            mul([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        assert_lane_determinism(&spmv, &inputs, &format!("spmv {fmt:?}"));

        // Tropical fold: Min's +inf lane identity meets actual
        // infinities and NaN in the data.
        let minplus = Einsum::new(
            access("y", ["i"]),
            AssignOp::Min,
            add([access("A", ["i", "j"]), access("x", ["j"])]),
            [idx("i"), idx("j")],
        );
        assert_lane_determinism(&minplus, &inputs, &format!("min-plus {fmt:?}"));
    }

    // Gather dot: the laned GatherDot body with miss-annihilating loads.
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), hostile_matrix(n, &[LevelFormat::Dense, LevelFormat::Sparse]));
    inputs.insert("B".to_string(), hostile_matrix(n, &[LevelFormat::Sparse, LevelFormat::Sparse]));
    let gather = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("B", ["j", "i"])]),
        [idx("i"), idx("j")],
    );
    assert_lane_determinism(&gather, &inputs, "gather-dot");
}

/// A finite value ladder whose magnitudes span enough orders that any
/// change in fold association changes the rounded result.
fn skewed_value(k: usize) -> f64 {
    [1e16, 0.1, -1e16, 3.0, 1e-3, -2.5, 7.0e8, 1.0 / 3.0, -7.0e8, 0.7, 5e15, -0.3][k % 12]
}

fn skewed_vec(n: usize, offset: usize) -> Tensor {
    Tensor::Dense(
        DenseTensor::from_vec(vec![n], (0..n).map(|j| skewed_value(j * 5 + offset)).collect())
            .unwrap(),
    )
}

/// Rows of varying length, all far longer than the lane cutover; for
/// run-length levels the pattern forms runs of 3 to 27 equal values.
fn skewed_matrix(n: usize, formats: &[LevelFormat]) -> Tensor {
    let mut coo = CooTensor::new(vec![n, n]);
    for i in 0..n {
        let mut j = i % 3;
        let mut run = 0;
        while j < n {
            let len = 3 + (i + run * 7) % 25;
            let v = skewed_value(i + run);
            for c in j..(j + len).min(n) {
                let v = if formats[1] == LevelFormat::RunLength { v } else { skewed_value(c + i) };
                coo.set(&[i, c], v);
            }
            j += len + 1 + run % 2;
            run += 1;
        }
    }
    Tensor::Sparse(SparseTensor::from_coo(&coo, formats).unwrap())
}

/// FNV-1a over the output's `f64` bit patterns.
fn fnv_bits(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs `prog` once per lane mode and returns the hash of the
/// `LaneMode::Lanes` outputs (all of them, in name order), after
/// checking that the lane run really reassociated (its bits differ from
/// the scalar run's) and that both modes' counters equal the
/// interpreter's.
fn lane_hash(prog: &Stmt, inputs: &HashMap<String, Tensor>, label: &str) -> u64 {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).expect(label);
    let lowered = lower(&hoisted, inputs, &outputs_init).expect(label);
    let compiled = CompiledKernel::compile(&lowered, inputs, &outputs_init).expect(label);
    let run = |mode: LaneMode| {
        let mut ctx = ExecContext::new().with_lane_mode(mode);
        let mut outputs = outputs_init.clone();
        let mut counters = Counters::new();
        compiled
            .run_with(inputs, &mut outputs, &mut ctx, Parallelism::Serial, &mut counters)
            .expect(label);
        (outputs, counters)
    };
    let (lanes, c_lanes) = run(LaneMode::Lanes);
    let (scalar, c_scalar) = run(LaneMode::Scalar);
    let mut interp = outputs_init;
    let c_interp = run_lowered(&lowered, inputs, &mut interp).expect(label);
    assert_eq!(scalar, interp, "{label}: scalar mode must match the interpreter bit for bit");
    assert_ne!(lanes, scalar, "{label}: the lane runner must reassociate this input");
    assert_eq!(c_lanes, c_interp, "{label}: lane-mode counter parity");
    assert_eq!(c_scalar, c_interp, "{label}: scalar-mode counter parity");
    let mut names: Vec<&String> = lanes.keys().collect();
    names.sort();
    let values: Vec<f64> = names.iter().flat_map(|n| lanes[*n].as_slice().to_vec()).collect();
    fnv_bits(&values)
}

/// Pins the exact lane association of every special fused runner shape
/// — dot over compressed and run-length drivers, the intersection dot
/// with a dense probe (both into an output cell and into a workspace
/// slot), and the symmetric dot-axpy pair over compressed and
/// run-length drivers. The differential tiers compare lane mode to the
/// interpreter only within 1e-9, so a change to the lane assignment or
/// the merge order would pass them; these hashes catch it.
#[test]
fn lane_runner_bits_are_pinned() {
    let n = 96;
    let dot = Stmt::loops(
        [idx("i"), idx("j")],
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("x", ["j"])])),
    );
    let isect = Stmt::loops(
        [idx("i"), idx("j")],
        assign(access("y", ["i"]), mul([access("A", ["i", "j"]), access("B", ["i", "j"])])),
    );
    let isect_slot = Stmt::loops(
        [idx("i")],
        Stmt::Workspace {
            name: "w".into(),
            init: 0.0,
            body: Box::new(Stmt::block([
                Stmt::loops(
                    [idx("j")],
                    Stmt::Assign {
                        lhs: systec_ir::Lhs::Scalar("w".into()),
                        op: AssignOp::Add,
                        rhs: mul([access("A", ["i", "j"]), access("B", ["i", "j"])]),
                    },
                ),
                assign(access("y", ["i"]), scalar("w")),
            ])),
        },
    );
    // SSYMV's symmetric pair: `x[i]` is bound outside the row loop so
    // the axpy side reads an invariant register.
    let dot_axpy = Stmt::loops(
        [idx("i")],
        Stmt::Let {
            name: "xi".into(),
            value: access("x", ["i"]).into(),
            body: Box::new(Stmt::Workspace {
                name: "w".into(),
                init: 0.0,
                body: Box::new(Stmt::block([
                    Stmt::loops(
                        [idx("j")],
                        Stmt::Let {
                            name: "a".into(),
                            value: access("A", ["i", "j"]).into(),
                            body: Box::new(Stmt::block([
                                Stmt::Assign {
                                    lhs: systec_ir::Lhs::Scalar("w".into()),
                                    op: AssignOp::Add,
                                    rhs: mul([scalar("a"), access("x", ["j"]).into()]),
                                },
                                assign(access("z", ["j"]), mul([scalar("a"), scalar("xi")])),
                            ])),
                        },
                    ),
                    assign(access("y", ["i"]), scalar("w")),
                ])),
            }),
        },
    );
    let crd = [LevelFormat::Dense, LevelFormat::Sparse];
    let rle = [LevelFormat::Dense, LevelFormat::RunLength];
    let with = |a: &[LevelFormat], extra: Option<(&str, Tensor)>| {
        let mut inputs = HashMap::new();
        inputs.insert("A".to_string(), skewed_matrix(n, a));
        inputs.insert("x".to_string(), skewed_vec(n, 1));
        if let Some((name, t)) = extra {
            inputs.insert(name.to_string(), t);
        }
        inputs
    };
    let dense_probe = || {
        let dense = [LevelFormat::Dense, LevelFormat::Dense];
        Some(("B", skewed_matrix(n, &dense)))
    };
    // FNV-1a hashes of the lane-mode output bits. The two intersection
    // cases share one association, so they share one hash.
    let cases: [(&str, &Stmt, HashMap<String, Tensor>, u64); 6] = [
        ("dot crd", &dot, with(&crd, None), 0x197f_6ddc_bc42_41a0),
        ("dot rle", &dot, with(&rle, None), 0xd0ec_38db_c696_b76c),
        (
            "isect dot, dense probe, output cell",
            &isect,
            with(&crd, dense_probe()),
            0x6daa_3bf7_c3e7_c448,
        ),
        (
            "isect dot, dense probe, workspace slot",
            &isect_slot,
            with(&crd, dense_probe()),
            0x6daa_3bf7_c3e7_c448,
        ),
        ("dot-axpy crd", &dot_axpy, with(&crd, None), 0xade6_8b8a_8255_b8fd),
        ("dot-axpy rle", &dot_axpy, with(&rle, None), 0xe1a7_deac_3bf2_2181),
    ];
    for (label, prog, inputs, want) in &cases {
        let got = lane_hash(prog, inputs, label);
        assert_eq!(got, *want, "{label}: lane-mode output bits moved ({got:#x})");
    }
}
