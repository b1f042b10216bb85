//! Tensor-product polynomial machinery for matrix-free operator evaluation.
//!
//! This crate provides the three ingredients of the paper's Eq. (7) that are
//! independent of mesh and physics:
//!
//! * Gaussian quadrature rules (Gauss–Legendre and Gauss–Lobatto–Legendre) of
//!   arbitrary order, computed by Newton iteration on the Legendre recurrence
//!   ([`quadrature`]);
//! * 1-D Lagrange bases on those point sets with stable barycentric
//!   evaluation, plus the interpolation/differentiation matrices that define
//!   the operators `I_e`, `I_f` ([`lagrange`], [`shape`]);
//! * sum-factorization kernels that apply a dense 1-D matrix along one
//!   direction of a 3-D tensor of SIMD cell batches ([`sumfac`]).
//!
//! The reference cell is the unit cube `[0,1]^3` with lexicographic index
//! ordering, `x` fastest.

pub mod lagrange;
pub mod matrix;
pub mod quadrature;
pub mod shape;
pub mod sumfac;

pub use lagrange::LagrangeBasis1D;
pub use matrix::DMatrix;
pub use quadrature::{gauss_lobatto_rule, gauss_rule, QuadratureRule};
pub use shape::{NodeSet, ShapeInfo1D};
