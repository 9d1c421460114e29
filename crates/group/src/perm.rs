//! Permutations on `{0, .., n-1}` in image form.
//!
//! Composition is **left-to-right**, following the paper's convention
//! (footnote 4: "(123) composed with (13)(2) gives (12)(3)"): the product
//! `a · b` applies `a` first, then `b`, i.e. `(a · b)(x) = b(a(x))`.

use std::fmt;

/// A permutation of `{0, .., n-1}`, stored as its image vector
/// (`img[x]` is the image of `x`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Perm {
    img: Vec<u32>,
}

impl Perm {
    /// The identity on `n` points.
    pub fn identity(n: usize) -> Perm {
        Perm {
            img: (0..n as u32).collect(),
        }
    }

    /// Builds a permutation from an image vector, verifying bijectivity.
    pub fn from_images(img: Vec<u32>) -> Result<Perm, String> {
        let n = img.len();
        let mut seen = vec![false; n];
        for &y in &img {
            let y = y as usize;
            if y >= n {
                return Err(format!("image {y} out of range for degree {n}"));
            }
            if seen[y] {
                return Err(format!("image {y} repeated — not a bijection"));
            }
            seen[y] = true;
        }
        Ok(Perm { img })
    }

    /// Builds a permutation of degree `n` from disjoint cycles, e.g.
    /// `from_cycles(8, &[&[0, 2, 4, 6], &[1, 3, 5, 7]])`. Points not
    /// mentioned are fixed.
    pub fn from_cycles(n: usize, cycles: &[&[u32]]) -> Result<Perm, String> {
        let mut img: Vec<u32> = (0..n as u32).collect();
        let mut touched = vec![false; n];
        for cycle in cycles {
            for (i, &x) in cycle.iter().enumerate() {
                let y = cycle[(i + 1) % cycle.len()];
                if x as usize >= n || y as usize >= n {
                    return Err(format!("cycle point out of range for degree {n}"));
                }
                if touched[x as usize] {
                    return Err(format!("point {x} appears in two cycles"));
                }
                touched[x as usize] = true;
                img[x as usize] = y;
            }
        }
        Ok(Perm { img })
    }

    /// Degree (number of points acted on).
    #[inline]
    pub fn degree(&self) -> usize {
        self.img.len()
    }

    /// Image of point `x`.
    #[inline]
    pub fn apply(&self, x: u32) -> u32 {
        self.img[x as usize]
    }

    /// Left-to-right product: `(self · other)(x) = other(self(x))`.
    pub fn compose(&self, other: &Perm) -> Perm {
        assert_eq!(self.degree(), other.degree(), "degree mismatch");
        Perm {
            img: self.img.iter().map(|&y| other.img[y as usize]).collect(),
        }
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Perm {
        let mut inv = vec![0u32; self.img.len()];
        for (x, &y) in self.img.iter().enumerate() {
            inv[y as usize] = x as u32;
        }
        Perm { img: inv }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.img.iter().enumerate().all(|(x, &y)| x as u32 == y)
    }

    /// The cycles of the permutation in canonical form: each cycle starts
    /// at its smallest point, cycles ordered by starting point. Fixed
    /// points are included as length-1 cycles.
    pub fn cycles(&self) -> Vec<Vec<u32>> {
        let n = self.img.len();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut cycle = Vec::new();
            let mut x = start as u32;
            loop {
                seen[x as usize] = true;
                cycle.push(x);
                x = self.img[x as usize];
                if x as usize == start {
                    break;
                }
            }
            out.push(cycle);
        }
        out
    }

    /// Whether all cycles (including fixed points) have the same length —
    /// the paper's criterion for membership in a regularly-acting group.
    pub fn has_equal_cycle_lengths(&self) -> bool {
        let cycles = self.cycles();
        let first = cycles.first().map_or(0, |c| c.len());
        cycles.iter().all(|c| c.len() == first)
    }

    /// Order of the permutation (lcm of cycle lengths).
    pub fn order(&self) -> u64 {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.cycles()
            .iter()
            .map(|c| c.len() as u64)
            .fold(1, |acc, l| acc / gcd(acc, l) * l)
    }

    /// `self` raised to the `k`-th power (left-to-right composition of `k`
    /// copies), by repeated squaring.
    pub fn pow(&self, mut k: u64) -> Perm {
        let mut result = Perm::identity(self.degree());
        let mut base = self.clone();
        while k > 0 {
            if k & 1 == 1 {
                result = result.compose(&base);
            }
            base = base.compose(&base);
            k >>= 1;
        }
        result
    }
}

impl fmt::Display for Perm {
    /// Cycle notation. Single-digit points are concatenated as in the paper
    /// (`(0246)(1357)`); otherwise points are space-separated. Fixed points
    /// are shown for the identity only as `(0)(1)...`; for non-identity
    /// permutations all cycles (including fixed points) are printed, again
    /// matching the paper's `E0 = (0)(1)(2)(3)(4)(5)(6)(7)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let compact = self.degree() <= 10;
        for cycle in self.cycles() {
            write!(f, "(")?;
            for (i, x) in cycle.iter().enumerate() {
                if i > 0 && !compact {
                    write!(f, " ")?;
                }
                write!(f, "{x}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_composition_convention() {
        // (123) composed with (13)(2) gives (12)(3)  [degree 4: points 0..3,
        // paper uses 1-based; we test on points 1,2,3 with 0 fixed]
        let a = Perm::from_cycles(4, &[&[1, 2, 3]]).unwrap();
        let b = Perm::from_cycles(4, &[&[1, 3]]).unwrap();
        let ab = a.compose(&b);
        let expect = Perm::from_cycles(4, &[&[1, 2]]).unwrap();
        assert_eq!(ab, expect);
    }

    #[test]
    fn from_images_validates() {
        assert!(Perm::from_images(vec![1, 0, 2]).is_ok());
        assert!(Perm::from_images(vec![1, 1, 2]).is_err());
        assert!(Perm::from_images(vec![3, 0, 1]).is_err());
    }

    #[test]
    fn from_cycles_rejects_overlap() {
        assert!(Perm::from_cycles(4, &[&[0, 1], &[1, 2]]).is_err());
        assert!(Perm::from_cycles(3, &[&[0, 5]]).is_err());
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Perm::from_cycles(8, &[&[0, 1, 2, 3, 4, 5, 6, 7]]).unwrap();
        assert!(p.compose(&p.inverse()).is_identity());
        assert!(p.inverse().compose(&p).is_identity());
    }

    #[test]
    fn cycles_canonical() {
        let p = Perm::from_cycles(8, &[&[0, 2, 4, 6], &[1, 3, 5, 7]]).unwrap();
        assert_eq!(
            p.cycles(),
            vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]]
        );
        assert!(p.has_equal_cycle_lengths());
        assert_eq!(p.order(), 4);
    }

    #[test]
    fn unequal_cycle_lengths_detected() {
        let p = Perm::from_cycles(5, &[&[0, 1, 2]]).unwrap(); // 3-cycle + 2 fixed
        assert!(!p.has_equal_cycle_lengths());
        assert_eq!(p.order(), 3);
    }

    #[test]
    fn display_matches_paper_style() {
        let p = Perm::from_cycles(8, &[&[0, 2, 4, 6], &[1, 3, 5, 7]]).unwrap();
        assert_eq!(p.to_string(), "(0246)(1357)");
        let id = Perm::identity(8);
        assert_eq!(id.to_string(), "(0)(1)(2)(3)(4)(5)(6)(7)");
        let big = Perm::from_cycles(12, &[&[0, 10, 11]]).unwrap();
        assert!(big.to_string().starts_with("(0 10 11)"));
    }

    #[test]
    fn pow_matches_repeated_compose() {
        let p = Perm::from_cycles(8, &[&[0, 1, 2, 3, 4, 5, 6, 7]]).unwrap();
        let mut q = Perm::identity(8);
        for k in 0..=16u64 {
            assert_eq!(p.pow(k), q, "k = {k}");
            q = q.compose(&p);
        }
    }

    #[test]
    fn order_is_lcm() {
        let p = Perm::from_cycles(6, &[&[0, 1], &[2, 3, 4]]).unwrap();
        assert_eq!(p.order(), 6);
        assert!(p.pow(6).is_identity());
        assert!(!p.pow(3).is_identity());
    }
}
