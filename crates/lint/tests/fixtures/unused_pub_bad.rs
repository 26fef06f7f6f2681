//@ path: crates/demo/src/report.rs
// Violation: a public function that no other file calls.

pub fn orphan_summary(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}
