//! Round-trip verification of generated models: compile with
//! `mems-hdl`, host in `mems-spice`, compare against the reference
//! data the model was extracted from.

use crate::error::{PxtError, Result};
use mems_hdl::eval::{AdScalar, DualReal, EvalEnv};
use mems_hdl::model::HdlModel;
use mems_numerics::Complex64;
use mems_spice::analysis::ac::{run_with_op, FreqSweep};
use mems_spice::analysis::dcop;
use mems_spice::circuit::Circuit;
use mems_spice::devices::{AcSpec, HdlDevice, VoltageSource};
use mems_spice::solver::SimOptions;
use mems_spice::wave::Waveform;

/// Evaluation probe: feeds fixed across values into a compiled
/// two-port model (electrical + mechanical) and records the
/// contributions (a test double for the simulator).
struct Probe {
    v_elec: f64,
    v_mech: f64,
    contributions: Vec<(usize, f64)>,
}

impl EvalEnv<DualReal> for Probe {
    fn n_grad(&self) -> usize {
        2
    }
    fn across(&self, branch: usize) -> DualReal {
        let v = if branch == 0 {
            self.v_elec
        } else {
            self.v_mech
        };
        DualReal::variable(v, 2, branch.min(1))
    }
    fn unknown(&self, _index: usize) -> DualReal {
        DualReal::constant(0.0, 2)
    }
    fn contribute(&mut self, branch: usize, value: DualReal) {
        self.contributions.push((branch, value.v));
    }
    fn residual(&mut self, _index: usize, _value: DualReal) {}
    fn report(&mut self, _message: &str) {}
}

/// Verifies a generated electromechanical model's static force
/// against reference samples `(voltage, displacement, force)`.
///
/// Drives the model to each displacement with a constant-velocity
/// transient (so its internal `integ` state reaches `x`), then reads
/// the DC force.
///
/// Returns the worst relative error.
///
/// # Errors
///
/// Propagates compile/elaboration/evaluation failures.
pub fn verify_static_force(source: &str, entity: &str, samples: &[(f64, f64, f64)]) -> Result<f64> {
    let model = HdlModel::compile(source, entity, None)?;
    let mut worst = 0.0f64;
    for &(v, x, f_ref) in samples {
        let mut inst = model.instantiate("dut", &[])?;
        // Prime at rest.
        let mut env = Probe {
            v_elec: 0.0,
            v_mech: 0.0,
            contributions: Vec::new(),
        };
        inst.eval_dc(&mut env)?;
        inst.commit_dc();
        // One backward-Euler step with velocity x/h integrates the
        // internal displacement to exactly x.
        let h = 1.0;
        let mut env = Probe {
            v_elec: v,
            v_mech: x / h,
            contributions: Vec::new(),
        };
        inst.eval_transient(
            h,
            h,
            mems_numerics::ode::IntegrationMethod::BackwardEuler,
            &mut env,
        )?;
        inst.commit_transient(h);
        // Read the settled force at zero velocity.
        let mut env = Probe {
            v_elec: v,
            v_mech: 0.0,
            contributions: Vec::new(),
        };
        inst.eval_dc(&mut env)?;
        let force = env
            .contributions
            .iter()
            .rev()
            .find(|(b, _)| *b == 1)
            .map(|(_, f)| *f)
            .ok_or_else(|| PxtError::BadFit("model contributed no mechanical force".into()))?;
        let rel = (force - f_ref).abs() / f_ref.abs().max(1e-300);
        worst = worst.max(rel);
    }
    Ok(worst)
}

/// Verifies a generated one-port admittance model against a reference
/// response `H(jω) = I/V` by AC-sweeping it in the circuit simulator.
///
/// Returns the worst relative magnitude error.
///
/// # Errors
///
/// Propagates compile and simulation failures.
pub fn verify_admittance_ac(
    source: &str,
    entity: &str,
    freqs: &[f64],
    reference: &[Complex64],
) -> Result<f64> {
    if freqs.len() != reference.len() {
        return Err(PxtError::BadRequest(
            "frequency/reference length mismatch".into(),
        ));
    }
    let model = HdlModel::compile(source, entity, None)?;
    let mut ckt = Circuit::new();
    let p = ckt.enode("p")?;
    let gnd = ckt.ground();
    ckt.add(VoltageSource::new("vs", p, gnd, Waveform::Dc(0.0)).with_ac(AcSpec::unit()))?;
    ckt.add(HdlDevice::new("dut", &model, &[], &[p, gnd])?)?;
    let sim = SimOptions::default();
    let op = dcop::solve(&mut ckt, &sim)?;
    let freq_list = FreqSweep::List(freqs.to_vec()).frequencies()?;
    let ac = run_with_op(&mut ckt, &freq_list, &op, &sim)?;
    // The source branch current equals −i(model) (KCL at node p, the
    // unit AC source forces V(p) = 1∠0).
    let i_src = ac
        .phasors("i(vs,0)")
        .ok_or_else(|| PxtError::Spice("missing source current trace".into()))?;
    let scale = reference
        .iter()
        .map(|z| z.abs())
        .fold(0.0, f64::max)
        .max(1e-300);
    let mut worst = 0.0f64;
    for (i, r) in i_src.iter().zip(reference) {
        let h_model = -*i;
        worst = worst.max((h_model - *r).abs() / scale);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::dataflow::generate_dataflow_model;
    use crate::codegen::poly::generate_poly_capacitance_model;
    use crate::extract::Extraction1d;
    use crate::ratfit::RationalFit;
    use mems_numerics::poly::Polynomial;

    const E0: f64 = 8.8542e-12;
    const AREA: f64 = 1e-4;
    const GAP: f64 = 0.15e-3;

    #[test]
    fn poly_model_force_round_trips() {
        let xs: Vec<f64> = (0..17).map(|i| -4e-5 + 5e-6 * i as f64).collect();
        let cap = Extraction1d {
            param: "x".into(),
            quantity: "c".into(),
            xs: xs.clone(),
            ys: xs.iter().map(|x| E0 * AREA / (GAP + x)).collect(),
        };
        let model = generate_poly_capacitance_model("captran", &cap, 5, 1e-4).unwrap();
        let f = |v: f64, x: f64| -E0 * AREA * v * v / (2.0 * (GAP + x) * (GAP + x));
        let samples = [
            (10.0, 0.0, f(10.0, 0.0)),
            (5.0, 1e-5, f(5.0, 1e-5)),
            (15.0, -2e-5, f(15.0, -2e-5)),
        ];
        let err = verify_static_force(&model.source, "captran", &samples).unwrap();
        // The force is the *derivative* of the fit — one order looser.
        assert!(err < 5e-3, "worst force error {err}");
    }

    #[test]
    fn dataflow_model_matches_reference_ac() {
        let (r, c) = (1e3, 1e-6);
        let fit = RationalFit {
            num: Polynomial::new(vec![0.0, c]),
            den: Polynomial::new(vec![1.0, r * c]),
            max_rel_error: 0.0,
        };
        let model = generate_dataflow_model("yrc", &fit).unwrap();
        let freqs: Vec<f64> = (0..12).map(|i| 10.0 * 2f64.powi(i)).collect();
        let reference: Vec<Complex64> = freqs
            .iter()
            .map(|&f| {
                let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
                s * c / (s * (r * c) + Complex64::ONE)
            })
            .collect();
        let err = verify_admittance_ac(&model.source, "yrc", &freqs, &reference).unwrap();
        assert!(err < 1e-6, "worst AC error {err}");
    }
}
