//! The paper's headline numbers the model is scored against, and the score.
//!
//! `paper_log_error` is the mean of `|ln(measured / paper)|` over the claims
//! below: 0 means every number matches the paper, and ln 2 ≈ 0.69 means the
//! typical claim is off by 2×. The claims are fixed paper values; tolerance
//! bands and known deviations are a separate concern of the fidelity work.

/// One number printed in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Short name, also printed next to the measured value.
    pub name: &'static str,
    /// Figure the number comes from.
    pub figure: &'static str,
    /// The value the paper reports.
    pub paper: f64,
    /// Unit of `paper` (and of the measured value).
    pub unit: &'static str,
}

/// Figure 13's latency-speedup geomean over Llama2-7B/13B/70B (batch 1, TP).
pub const FIG13_LATENCY_GEOMEAN: Claim =
    Claim { name: "fig13.latency_speedup_geomean", figure: "fig13(a)", paper: 4.6, unit: "x" };
/// Figure 13's throughput-speedup geomean (PP at max batch vs GPU batch 128).
pub const FIG13_THROUGHPUT_GEOMEAN: Claim =
    Claim { name: "fig13.throughput_speedup_geomean", figure: "fig13(b)", paper: 2.3, unit: "x" };
/// Figure 13's Llama2-70B throughput speedup (the smallest gain, GQA).
pub const FIG13_THROUGHPUT_70B: Claim =
    Claim { name: "fig13.throughput_speedup_70b", figure: "fig13(b)", paper: 1.2, unit: "x" };
/// Figure 19's Llama2-70B decode throughput on 16 devices.
pub const FIG19_16_DEVICES: Claim =
    Claim { name: "fig19.ktokens_per_s_16dev", figure: "fig19", paper: 0.68, unit: "Ktok/s" };
/// Figure 19's Llama2-70B decode throughput on 128 devices.
pub const FIG19_128_DEVICES: Claim =
    Claim { name: "fig19.ktokens_per_s_128dev", figure: "fig19", paper: 5.7, unit: "Ktok/s" };

/// Every claim `paper_log_error` averages over, in report order.
pub const CLAIMS: [Claim; 5] = [
    FIG13_LATENCY_GEOMEAN,
    FIG13_THROUGHPUT_GEOMEAN,
    FIG13_THROUGHPUT_70B,
    FIG19_16_DEVICES,
    FIG19_128_DEVICES,
];

/// Mean `|ln(measured / paper)|` over `(claim, measured)` pairs, or `None`
/// when a measured value is missing, non-finite or not positive.
pub fn paper_log_error(scored: &[(Claim, Option<f64>)]) -> Option<f64> {
    if scored.is_empty() {
        return None;
    }
    let mut total = 0.0;
    for (claim, measured) in scored {
        let m = (*measured)?;
        if !(m.is_finite() && m > 0.0) {
            return None;
        }
        total += (m / claim.paper).ln().abs();
    }
    Some(total / scored.len() as f64)
}

/// Geometric mean of positive values (`None` for an empty slice).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_scores_zero_and_factor_e_scores_one() {
        let exact: Vec<(Claim, Option<f64>)> = CLAIMS.iter().map(|c| (*c, Some(c.paper))).collect();
        assert_eq!(paper_log_error(&exact), Some(0.0));
        let e = std::f64::consts::E;
        let off: Vec<(Claim, Option<f64>)> = CLAIMS
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, Some(if i % 2 == 0 { c.paper * e } else { c.paper / e })))
            .collect();
        let score = paper_log_error(&off).expect("all claims measured");
        assert!((score - 1.0).abs() < 1e-12, "{score}");
    }

    #[test]
    fn todays_figures_score_about_0_58() {
        // The values fig13/fig19 print for the model as of this benchmark's
        // introduction; the mean log error they imply is the ≈0.58 baseline.
        let measured = [1.6711, 1.6454, 0.7933, 0.3945, 3.1558];
        let scored: Vec<(Claim, Option<f64>)> =
            CLAIMS.iter().zip(measured).map(|(c, m)| (*c, Some(m))).collect();
        let score = paper_log_error(&scored).expect("all claims measured");
        assert!((score - 0.5794).abs() < 1e-3, "{score}");
    }

    #[test]
    fn missing_or_nonpositive_values_do_not_score() {
        assert_eq!(paper_log_error(&[]), None);
        assert_eq!(paper_log_error(&[(FIG19_16_DEVICES, None)]), None);
        assert_eq!(paper_log_error(&[(FIG19_16_DEVICES, Some(0.0))]), None);
        assert_eq!(paper_log_error(&[(FIG19_16_DEVICES, Some(f64::NAN))]), None);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let g = geomean(&[2.0, 0.5, 4.0, 0.25]).expect("non-empty");
        assert!((g - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }
}
