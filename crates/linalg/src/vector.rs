//! Small dense-vector helpers shared by the numeric code.

/// Dot product.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Total-variation distance between two probability vectors:
/// `½ Σ |p_i - q_i|`.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len());
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
    }

    #[test]
    fn tv_distance() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert_eq!(total_variation(&p, &q), 1.0);
        assert_eq!(total_variation(&p, &p), 0.0);
        let r = [0.5, 0.5];
        assert_eq!(total_variation(&p, &r), 0.5);
    }
}
