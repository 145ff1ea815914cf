//! Answer checks, run after each workload's timed window.
//!
//! Exact answers are compared outcome by outcome against a reference
//! computed by the plain sequential engine
//! (`execution_measure(..).observe(..)`); estimates get structural
//! checks; emulation distances must equal their known values.

use dpioa_core::Value;
use dpioa_prob::Disc;

/// Largest per-outcome difference allowed on answers whose
/// probabilities are not dyadic (a different summation order may move
/// the last bits).
pub const NON_DYADIC_TOLERANCE: f64 = 1e-12;

/// A distribution as sorted `(value rendering, probability)` rows — the
/// form the server puts on the wire.
pub fn rows(dist: &Disc<Value>) -> Vec<(String, f64)> {
    let mut rows: Vec<(String, f64)> = dist.iter().map(|(v, &p)| (format!("{v}"), p)).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Check an exact answer against the reference. `bitwise` demands the
/// same `f64` bits for every outcome (dyadic answers); otherwise each
/// outcome may differ by [`NON_DYADIC_TOLERANCE`].
pub fn check_exact(
    label: &str,
    got: &[(String, f64)],
    reference: &[(String, f64)],
    bitwise: bool,
) -> Result<(), String> {
    if got.len() != reference.len() {
        return Err(format!(
            "{label}: {} outcomes, expected {}",
            got.len(),
            reference.len()
        ));
    }
    for ((gv, gp), (rv, rp)) in got.iter().zip(reference) {
        if gv != rv {
            return Err(format!("{label}: outcome {gv}, expected {rv}"));
        }
        let same = if bitwise {
            gp.to_bits() == rp.to_bits()
        } else {
            (gp - rp).abs() <= NON_DYADIC_TOLERANCE
        };
        if !same {
            return Err(format!("{label}: P({gv}) = {gp:e}, expected {rp:e}"));
        }
    }
    Ok(())
}

/// Structural check of a Monte-Carlo or hybrid answer: total mass 1 and
/// an error bound strictly between 0 and 1.
pub fn check_estimate(label: &str, got: &[(String, f64)], error_bound: f64) -> Result<(), String> {
    let mass: f64 = got.iter().map(|(_, p)| p).sum();
    if (mass - 1.0).abs() > 1e-9 {
        return Err(format!("{label}: estimate has mass {mass}"));
    }
    if !(error_bound > 0.0 && error_bound < 1.0) {
        return Err(format!("{label}: error bound {error_bound} outside (0, 1)"));
    }
    Ok(())
}

/// An emulation distance must equal its known value exactly.
pub fn check_epsilon(label: &str, got: f64, expected: f64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{label}: epsilon {got}, expected {expected}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half() -> Vec<(String, f64)> {
        rows(&Disc::bernoulli_dyadic(Value::int(1), Value::int(2), 1, 1))
    }

    #[test]
    fn matching_answers_pass() {
        assert!(check_exact("coin", &half(), &half(), true).is_ok());
        let third = vec![("a".to_string(), 1.0 / 3.0)];
        let near = vec![("a".to_string(), 1.0 / 3.0 + 1e-15)];
        assert!(check_exact("mix", &near, &third, false).is_ok());
        assert!(check_exact("mix", &near, &third, true).is_err());
        assert!(check_estimate("mc", &half(), 0.01).is_ok());
        assert!(check_epsilon("otp", 0.0, 0.0).is_ok());
    }

    #[test]
    fn a_wrong_expected_answer_fails() {
        let mut wrong = half();
        wrong[0].1 = 0.25;
        let err = check_exact("walk8-h10-first", &half(), &wrong, true).unwrap_err();
        assert!(err.starts_with("walk8-h10-first"), "{err}");
        wrong[0].0 = "7".into();
        assert!(check_exact("x", &half(), &wrong, false).is_err());
        assert!(check_exact("x", &half(), &half()[..1], false).is_err());
        assert!(check_estimate("mc", &half()[..1], 0.01).is_err());
        assert!(check_estimate("mc", &half(), 0.0).is_err());
        assert!(check_epsilon("leaky", 0.5, 0.25).is_err());
    }
}
