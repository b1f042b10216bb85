//! Fixed-width lane arrays with operator overloads.
//!
//! [`Simd<T, LANES>`] is the cross-element batch type: lane `l` of every
//! quantity inside a kernel belongs to physical cell (or face) `l` of the
//! current batch. All lane loops are trivially countable, so LLVM emits
//! full-width vector instructions for them without cross-lane traffic —
//! the property the paper reports as ">97 % of arithmetic work in vector
//! registers".

use crate::real::Real;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A batch of `LANES` scalars of type `T`, 64-byte aligned.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(64))]
pub struct Simd<T: Real, const LANES: usize>(pub [T; LANES]);

impl<T: Real, const LANES: usize> Simd<T, LANES> {
    /// Number of lanes in the batch.
    pub const LANES: usize = LANES;

    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: T) -> Self {
        Simd([v; LANES])
    }

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self::splat(T::ZERO)
    }

    /// Build from a per-lane closure.
    #[inline(always)]
    pub fn from_fn(mut f: impl FnMut(usize) -> T) -> Self {
        let mut out = [T::ZERO; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = f(l);
        }
        Simd(out)
    }

    /// Fused multiply-add: `self * a + b` lane-wise.
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Self::from_fn(|l| self.0[l].mul_add(a.0[l], b.0[l]))
    }

    /// Lane-wise square root.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        Self::from_fn(|l| self.0[l].sqrt())
    }

    /// Lane-wise absolute value.
    #[inline(always)]
    pub fn abs(self) -> Self {
        Self::from_fn(|l| self.0[l].abs())
    }

    /// Lane-wise minimum.
    #[inline(always)]
    pub fn min(self, other: Self) -> Self {
        Self::from_fn(|l| self.0[l].min(other.0[l]))
    }

    /// Lane-wise maximum.
    #[inline(always)]
    pub fn max(self, other: Self) -> Self {
        Self::from_fn(|l| self.0[l].max(other.0[l]))
    }

    /// Horizontal sum over the lanes.
    #[inline(always)]
    pub fn horizontal_sum(self) -> T {
        let mut s = T::ZERO;
        for l in 0..LANES {
            s += self.0[l];
        }
        s
    }

    /// Gather: lane `l` reads `src[indices[l]]`. Lanes whose index is
    /// `usize::MAX` (inactive lanes of a partially filled batch, cf. the
    /// paper's discussion of mixed-orientation faces) read zero.
    #[inline(always)]
    pub fn gather(src: &[T], indices: &[usize; LANES]) -> Self {
        Self::from_fn(|l| {
            let i = indices[l];
            if i == usize::MAX {
                T::ZERO
            } else {
                src[i]
            }
        })
    }

    /// Scatter-add: lane `l` adds into `dst[indices[l]]`; inactive lanes
    /// (`usize::MAX`) are skipped.
    #[inline(always)]
    pub fn scatter_add(self, dst: &mut [T], indices: &[usize; LANES]) {
        for l in 0..LANES {
            let i = indices[l];
            if i != usize::MAX {
                dst[i] += self.0[l];
            }
        }
    }

    /// Gather with a compact `u32` index table: lane `l` reads
    /// `src[indices[l]]`, lanes at the `u32::MAX` sentinel read zero. The
    /// half-width table keeps the precomputed per-batch index streams of
    /// the CG gather (cf. `cg_space::GatherPlan`) at cache-line density.
    #[inline(always)]
    pub fn gather_u32(src: &[T], indices: &[u32; LANES]) -> Self {
        Self::from_fn(|l| {
            let i = indices[l];
            if i == u32::MAX {
                T::ZERO
            } else {
                src[i as usize]
            }
        })
    }

    /// Convert each lane to a different scalar type (SP↔DP transfers of the
    /// mixed-precision V-cycle).
    #[inline(always)]
    pub fn convert<U: Real>(self) -> Simd<U, LANES> {
        Simd::from_fn(|l| U::from_f64(self.0[l].to_f64()))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident) => {
        impl<T: Real, const LANES: usize> $trait for Simd<T, LANES> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self {
                Self::from_fn(|l| self.0[l].$method(rhs.0[l]))
            }
        }
        impl<T: Real, const LANES: usize> $trait<T> for Simd<T, LANES> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: T) -> Self {
                Self::from_fn(|l| self.0[l].$method(rhs))
            }
        }
        impl<T: Real, const LANES: usize> $assign_trait for Simd<T, LANES> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: Self) {
                for l in 0..LANES {
                    self.0[l].$assign_method(rhs.0[l]);
                }
            }
        }
        impl<T: Real, const LANES: usize> $assign_trait<T> for Simd<T, LANES> {
            #[inline(always)]
            fn $assign_method(&mut self, rhs: T) {
                for l in 0..LANES {
                    self.0[l].$assign_method(rhs);
                }
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign);
impl_binop!(Sub, sub, SubAssign, sub_assign);
impl_binop!(Mul, mul, MulAssign, mul_assign);
impl_binop!(Div, div, DivAssign, div_assign);

impl<T: Real, const LANES: usize> Neg for Simd<T, LANES> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::from_fn(|l| -self.0[l])
    }
}

impl<T: Real, const LANES: usize> Default for Simd<T, LANES> {
    #[inline(always)]
    fn default() -> Self {
        Self::zero()
    }
}

impl<T: Real, const LANES: usize> Index<usize> for Simd<T, LANES> {
    type Output = T;
    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        &self.0[i]
    }
}

impl<T: Real, const LANES: usize> IndexMut<usize> for Simd<T, LANES> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{F32x16, F64x8};

    #[test]
    fn splat_and_arith() {
        let a = F64x8::splat(3.0);
        let b = F64x8::splat(4.0);
        assert_eq!((a + b), F64x8::splat(7.0));
        assert_eq!((a - b), F64x8::splat(-1.0));
        assert_eq!((a * b), F64x8::splat(12.0));
        assert_eq!((b / a)[0], 4.0 / 3.0);
        assert_eq!(-a, F64x8::splat(-3.0));
        assert_eq!(a * 2.0, F64x8::splat(6.0));
        assert_eq!(a + 1.0, F64x8::splat(4.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = F32x16::splat(1.0);
        a += F32x16::splat(2.0);
        a *= 3.0;
        a -= 1.0;
        a /= F32x16::splat(2.0);
        assert_eq!(a, F32x16::splat(4.0));
    }

    #[test]
    fn fma_matches_separate_ops() {
        let a = F64x8::from_fn(|l| l as f64);
        let b = F64x8::splat(2.0);
        let c = F64x8::splat(1.0);
        let fused = a.mul_add(b, c);
        for l in 0..8 {
            assert!((fused[l] - (l as f64 * 2.0 + 1.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn horizontal_reductions() {
        let a = F64x8::from_fn(|l| (l + 1) as f64);
        assert_eq!(a.horizontal_sum(), 36.0);
    }

    #[test]
    fn gather_scatter_with_inactive_lanes() {
        let src: Vec<f64> = (0..32).map(f64::from).collect();
        let mut idx = [0usize; 8];
        for (l, i) in idx.iter_mut().enumerate() {
            *i = 2 * l;
        }
        idx[7] = usize::MAX; // inactive lane
        let g = F64x8::gather(&src, &idx);
        assert_eq!(g[3], 6.0);
        assert_eq!(g[7], 0.0);

        let mut dst = vec![0.0f64; 32];
        g.scatter_add(&mut dst, &idx);
        assert_eq!(dst[6], 6.0);
        assert_eq!(dst[31], 0.0);
    }

    #[test]
    fn gather_u32_matches_usize_path() {
        let src: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.25).collect();
        let mut idx = [0usize; 8];
        let mut idx32 = [0u32; 8];
        for l in 0..8 {
            idx[l] = (5 * l + 3) % 40;
            idx32[l] = idx[l] as u32;
        }
        idx[2] = usize::MAX;
        idx32[2] = u32::MAX;
        let a = F64x8::gather(&src, &idx);
        let b = F64x8::gather_u32(&src, &idx32);
        assert_eq!(a, b);
        assert_eq!(b[2], 0.0);
    }

    #[test]
    fn precision_conversion_roundtrip() {
        let a = F64x8::from_fn(|l| l as f64 * 0.5);
        let s: Simd<f32, 8> = a.convert();
        let back: Simd<f64, 8> = s.convert();
        assert_eq!(a, back); // halves are exact in f32
    }

    #[test]
    fn alignment_is_cacheline() {
        assert_eq!(std::mem::align_of::<F64x8>(), 64);
        assert_eq!(std::mem::align_of::<F32x16>(), 64);
    }
}
