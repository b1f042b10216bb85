//! Gaussian quadrature on the unit interval `[0,1]`.
//!
//! Points are computed in `f64` by Newton iteration on the three-term
//! Legendre recurrence and converted to the target scalar on demand; the
//! iteration converges to machine precision for all orders used here
//! (n ≤ 32 covers polynomial degrees far beyond the paper's k ≤ 6).

use dgflow_simd::Real;

/// A 1-D quadrature rule on `[0,1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct QuadratureRule {
    /// Quadrature points in `[0,1]`, ascending.
    pub points: Vec<f64>,
    /// Quadrature weights, summing to 1.
    pub weights: Vec<f64>,
}

impl QuadratureRule {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the rule has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Weights converted to scalar type `T`.
    pub fn weights_as<T: Real>(&self) -> Vec<T> {
        self.weights.iter().map(|&x| T::from_f64(x)).collect()
    }

    /// Integrate a function over `[0,1]` with this rule.
    pub fn integrate(&self, f: impl Fn(f64) -> f64) -> f64 {
        self.points
            .iter()
            .zip(&self.weights)
            .map(|(&x, &w)| w * f(x))
            .sum()
    }
}

/// Legendre polynomial `P_n` and derivative `P_n'` at `x ∈ [-1,1]`.
fn legendre_and_derivative(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let mut p_prev = 1.0; // P_0
    let mut p = x; // P_1
    for k in 2..=n {
        let kf = k as f64;
        let p_next = ((2.0 * kf - 1.0) * x * p - (kf - 1.0) * p_prev) / kf;
        p_prev = p;
        p = p_next;
    }
    // P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
    let dp = if (x * x - 1.0).abs() < 1e-300 {
        // endpoint limit: P_n'(±1) = ±1^{n-1} n(n+1)/2
        let sign = if x > 0.0 {
            1.0
        } else {
            (-1.0f64).powi(n as i32 - 1)
        };
        sign * (n as f64) * (n as f64 + 1.0) / 2.0
    } else {
        (n as f64) * (x * p - p_prev) / (x * x - 1.0)
    };
    (p, dp)
}

/// `n`-point Gauss–Legendre rule on `[0,1]` (exact for degree `2n-1`).
pub fn gauss_rule(n: usize) -> QuadratureRule {
    assert!(n >= 1, "a quadrature rule needs at least one point");
    let mut points = vec![0.0; n];
    let mut weights = vec![0.0; n];
    for i in 0..n {
        // Chebyshev initial guess, then Newton.
        let mut x = -(std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        for _ in 0..100 {
            let (p, dp) = legendre_and_derivative(n, x);
            let dx = p / dp;
            x -= dx;
            if dx.abs() < 1e-16 {
                break;
            }
        }
        let (_, dp) = legendre_and_derivative(n, x);
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        points[i] = 0.5 * (x + 1.0);
        weights[i] = 0.5 * w;
    }
    QuadratureRule { points, weights }
}

/// `n`-point Gauss–Lobatto–Legendre rule on `[0,1]` (endpoints included,
/// exact for degree `2n-3`; requires `n ≥ 2`).
pub fn gauss_lobatto_rule(n: usize) -> QuadratureRule {
    assert!(n >= 2, "Gauss-Lobatto needs at least two points");
    let mut points = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n - 1;
    for i in 0..n {
        let x = if i == 0 {
            -1.0
        } else if i == m {
            1.0
        } else {
            // Interior points: roots of P'_{n-1}. Initial guess between the
            // Chebyshev-Gauss-Lobatto points, then Newton on P'_{n-1}.
            let mut x = -(std::f64::consts::PI * i as f64 / m as f64).cos();
            for _ in 0..100 {
                // d/dx P'_m via the ODE: (1-x^2) P''_m = 2x P'_m - m(m+1) P_m
                let (p, dp) = legendre_and_derivative(m, x);
                let ddp = (2.0 * x * dp - (m as f64) * (m as f64 + 1.0) * p) / (1.0 - x * x);
                let dx = dp / ddp;
                x -= dx;
                if dx.abs() < 1e-16 {
                    break;
                }
            }
            x
        };
        let (p, _) = legendre_and_derivative(m, x);
        let w = 2.0 / ((m as f64) * (m as f64 + 1.0) * p * p);
        points[i] = 0.5 * (x + 1.0);
        weights[i] = 0.5 * w;
    }
    // enforce exact symmetry of the point set
    for i in 0..n / 2 {
        let avg = 0.5 * (points[i] + (1.0 - points[n - 1 - i]));
        points[i] = avg;
        points[n - 1 - i] = 1.0 - avg;
        let wavg = 0.5 * (weights[i] + weights[n - 1 - i]);
        weights[i] = wavg;
        weights[n - 1 - i] = wavg;
    }
    QuadratureRule { points, weights }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monomial_exactness(rule: &QuadratureRule, max_degree: usize) {
        for d in 0..=max_degree {
            let exact = 1.0 / (d as f64 + 1.0);
            let approx = rule.integrate(|x| x.powi(d as i32));
            assert!(
                (approx - exact).abs() < 1e-13,
                "degree {d}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn gauss_exactness_up_to_2n_minus_1() {
        for n in 1..=12 {
            monomial_exactness(&gauss_rule(n), 2 * n - 1);
        }
    }

    #[test]
    fn gauss_lobatto_exactness_up_to_2n_minus_3() {
        for n in 2..=12 {
            monomial_exactness(&gauss_lobatto_rule(n), 2 * n - 3);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for n in 1..=16 {
            let s: f64 = gauss_rule(n).weights.iter().sum();
            assert!((s - 1.0).abs() < 1e-14);
        }
        for n in 2..=16 {
            let s: f64 = gauss_lobatto_rule(n).weights.iter().sum();
            assert!((s - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn points_sorted_and_inside() {
        for n in 1..=16 {
            let r = gauss_rule(n);
            for i in 0..n {
                assert!(r.points[i] > 0.0 && r.points[i] < 1.0);
                if i > 0 {
                    assert!(r.points[i] > r.points[i - 1]);
                }
            }
        }
    }

    #[test]
    fn lobatto_includes_endpoints() {
        for n in 2..=16 {
            let r = gauss_lobatto_rule(n);
            assert_eq!(r.points[0], 0.0);
            assert_eq!(r.points[n - 1], 1.0);
        }
    }

    #[test]
    fn rules_are_symmetric() {
        for n in 2..=12 {
            for r in [gauss_rule(n), gauss_lobatto_rule(n)] {
                for i in 0..n {
                    assert!((r.points[i] + r.points[n - 1 - i] - 1.0).abs() < 1e-14);
                    assert!((r.weights[i] - r.weights[n - 1 - i]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn gauss_integrates_transcendental_accurately() {
        // 10-point Gauss should integrate sin to ~1e-15 on [0,1]
        let r = gauss_rule(10);
        let approx = r.integrate(f64::sin);
        let exact = 1.0 - 1.0f64.cos();
        assert!((approx - exact).abs() < 1e-14);
    }
}
