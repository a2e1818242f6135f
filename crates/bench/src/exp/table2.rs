//! Table II — similarity between user-defined traffic curves and
//! DeviceFlow's actual dispatch amounts (Pearson correlation > 0.99 for
//! every curve the paper lists).

use serde::Serialize;
use simdc_deviceflow::{discretize, Domain, TrafficFunction};
use simdc_types::SimDuration;

use crate::{f, render_table, ExpOptions};

/// One Table-II row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Curve label as printed in the paper.
    pub curve: String,
    /// Function domain.
    pub domain: (f64, f64),
    /// Pearson correlation between planned dispatch amounts and the curve.
    pub correlation: f64,
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a fixture curve fails discretization (a bug).
pub fn run(opts: &ExpOptions) -> Vec<Row> {
    let volume = if opts.quick { 2_000 } else { 10_000 };
    let six_pi = 6.0 * std::f64::consts::PI;
    let cases: Vec<(String, TrafficFunction, Domain)> = vec![
        (
            "N(0, 1)".into(),
            TrafficFunction::Normal { sigma: 1.0 },
            Domain::new(-4.0, 4.0).expect("valid domain"),
        ),
        (
            "N(0, 2)".into(),
            TrafficFunction::Normal { sigma: 2.0 },
            Domain::new(-4.0, 4.0).expect("valid domain"),
        ),
        (
            "sin(t)+1".into(),
            TrafficFunction::SinPlus1,
            Domain::new(0.0, six_pi).expect("valid domain"),
        ),
        (
            "cos(t)+1".into(),
            TrafficFunction::CosPlus1,
            Domain::new(0.0, six_pi).expect("valid domain"),
        ),
        (
            "2^t".into(),
            TrafficFunction::Exp2,
            Domain::new(0.0, 3.0).expect("valid domain"),
        ),
        (
            "10^t".into(),
            TrafficFunction::Exp10,
            Domain::new(0.0, 3.0).expect("valid domain"),
        ),
    ];

    let rows: Vec<Row> = cases
        .into_iter()
        .map(|(label, function, domain)| {
            let plan = discretize(&function, &domain, SimDuration::from_secs(60), volume, 700)
                .expect("fixture curves discretize");
            Row {
                curve: label,
                domain: (domain.start, domain.end),
                correlation: plan.correlation_with(&function, &domain),
            }
        })
        .collect();

    let table = render_table(
        &[
            "User-defined traffic curve",
            "Domain",
            "Correlation coefficient",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.curve.clone(),
                    format!("[{}, {}]", f(r.domain.0, 2), f(r.domain.1, 2)),
                    f(r.correlation, 3),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Table II — user-defined curves vs actual dispatch\n{table}");
    opts.write_json("table2", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_correlations_exceed_0_99() {
        let opts = ExpOptions {
            quick: false,
            out_dir: std::env::temp_dir().join("simdc-table2-test"),
            ..ExpOptions::default()
        };
        opts.create_out_dir().unwrap();
        let rows = run(&opts);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(
                row.correlation > 0.99,
                "{}: r = {}",
                row.curve,
                row.correlation
            );
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }
}
