//! Binary-reflected Gray codes.
//!
//! The canned embeddings of rings and meshes into hypercubes (paper §4.1,
//! after \[FF82\] and the classical folklore results) place task `i` on the
//! hypercube corner `gray(i)`, so that consecutive tasks differ in one
//! address bit and every ring edge maps to a single hypercube link
//! (dilation 1).

/// The `i`-th binary-reflected Gray code word.
#[inline]
pub fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// A Gray code sequence for a `rows × cols` mesh into a hypercube of
/// dimension `ceil(log2 rows) + ceil(log2 cols)`: node `(i, j)` maps to
/// `gray(i) << col_bits | gray(j)`. Every mesh edge differs in exactly one bit,
/// so the embedding has dilation 1 when both dimensions are powers of two.
pub fn mesh_to_hypercube(i: u64, j: u64, col_bits: u32) -> u64 {
    (gray(i) << col_bits) | gray(j)
}

/// Number of bits needed to address `n` values (`ceil(log2 n)`, 0 for n<=1).
pub fn bits_for(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successive_codes_differ_in_one_bit() {
        for i in 0u64..1024 {
            let diff = gray(i) ^ gray(i + 1);
            assert_eq!(diff.count_ones(), 1, "i = {i}");
        }
    }

    /// Inverse of [`gray`]: the rank of a Gray code word.
    fn gray_rank(mut g: u64) -> u64 {
        let mut i = 0;
        while g != 0 {
            i ^= g;
            g >>= 1;
        }
        i
    }

    #[test]
    fn gray_is_a_bijection_with_inverse() {
        for i in 0u64..4096 {
            assert_eq!(gray_rank(gray(i)), i);
        }
    }

    #[test]
    fn wraparound_differs_in_one_bit_for_powers_of_two() {
        for d in 1..10 {
            let n = 1u64 << d;
            let diff = gray(0) ^ gray(n - 1);
            assert_eq!(diff.count_ones(), 1, "d = {d}");
        }
    }

    #[test]
    fn mesh_embedding_neighbors_differ_one_bit() {
        let (rows, cols) = (4u64, 8u64);
        let cb = bits_for(cols as usize);
        for i in 0..rows {
            for j in 0..cols {
                let here = mesh_to_hypercube(i, j, cb);
                if i + 1 < rows {
                    assert_eq!((here ^ mesh_to_hypercube(i + 1, j, cb)).count_ones(), 1);
                }
                if j + 1 < cols {
                    assert_eq!((here ^ mesh_to_hypercube(i, j + 1, cb)).count_ones(), 1);
                }
            }
        }
    }

    #[test]
    fn bits_for_edges() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(8), 3);
        assert_eq!(bits_for(9), 4);
    }
}
