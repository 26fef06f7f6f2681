//@ path: crates/demo/src/report.rs
// Clean: private and crate-visible items, a `pub mod`, and a public type
// annotated because a public signature elsewhere names it.

pub mod detail;

fn private_helper(x: f64) -> f64 {
    x * 2.0
}

pub(crate) fn crate_helper(x: f64) -> f64 {
    private_helper(x)
}

// LINT: unused-pub-ok — named by the public `summary` signature
pub struct Summary {
    pub max: f64,
}

#[cfg(test)]
mod tests {
    pub fn test_only() {}
}
