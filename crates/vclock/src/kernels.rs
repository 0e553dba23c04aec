//! Chunked comparison/merge kernels over raw clock-entry slices.
//!
//! Vector-clock work is O(n traces) per operation and sits on every hot
//! path the matcher has: dominance (`<=`) tests, message joins, and the
//! sparse diffs the wire codec takes between consecutive clocks on a
//! trace. These kernels process entries in fixed-width chunks of
//! [`LANES`] lanes with a branch-free accumulator per chunk (which LLVM
//! auto-vectorizes), an early exit between chunks, and a scalar tail —
//! following Vaidya/Kulkarni's observation that consecutive timestamps
//! differ in very few entries, so most chunks resolve immediately.
//! Results are bit-identical to the plain per-entry definitions —
//! asserted by the seeded sweep in this module's tests.

/// Chunk width of the kernels. Eight u32 lanes is two SSE2 registers'
/// worth — wide enough to vectorize, narrow enough that the early exit
/// between chunks still fires quickly on sparse inputs.
pub const LANES: usize = 8;

/// Component-wise `a <= b` over equal-length entry slices:
/// branch-free accumulator inside each chunk, early exit between
/// chunks, scalar tail.
///
/// Callers are responsible for width agreement; mismatched widths
/// compare only the common prefix (the public [`crate::VectorClock::le`]
/// rejects mismatches before calling in).
#[must_use]
pub fn le(a: &[u32], b: &[u32]) -> bool {
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        let mut bad = 0u32;
        for i in 0..LANES {
            bad |= u32::from(ca[i] > cb[i]);
        }
        if bad != 0 {
            return false;
        }
    }
    ac.remainder()
        .iter()
        .zip(bc.remainder())
        .all(|(x, y)| x <= y)
}

/// Component-wise maximum of `src` into `dst` (the message-receive
/// join), over the common prefix of the two slices.
pub fn join_into(dst: &mut [u32], src: &[u32]) {
    let n = dst.len().min(src.len());
    let mut i = 0;
    while i + LANES <= n {
        for k in i..i + LANES {
            dst[k] = dst[k].max(src[k]);
        }
        i += LANES;
    }
    for k in i..n {
        dst[k] = dst[k].max(src[k]);
    }
}

/// One-pass dual ordering test: returns `(a <= b, b <= a)`, exiting
/// early once both directions are refuted (the concurrency verdict).
#[must_use]
pub fn order(a: &[u32], b: &[u32]) -> (bool, bool) {
    let mut ab = true;
    let mut ba = true;
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        let mut gt = 0u32;
        let mut lt = 0u32;
        for i in 0..LANES {
            gt |= u32::from(ca[i] > cb[i]);
            lt |= u32::from(ca[i] < cb[i]);
        }
        ab &= gt == 0;
        ba &= lt == 0;
        if !ab && !ba {
            return (false, false);
        }
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        ab &= x <= y;
        ba &= y <= x;
    }
    (ab, ba)
}

/// Visits every index where `new` differs from `base`, in ascending
/// order, as `(index, new_value)` — the sparse diff the delta wire
/// encoding ships. Chunks that compare equal wholesale are skipped
/// without a per-lane scan, so the cost tracks the number of *changed*
/// chunks rather than the clock width.
pub fn for_each_changed(base: &[u32], new: &[u32], mut f: impl FnMut(usize, u32)) {
    debug_assert_eq!(base.len(), new.len());
    let n = base.len().min(new.len());
    let mut i = 0;
    while i + LANES <= n {
        if base[i..i + LANES] != new[i..i + LANES] {
            for k in i..i + LANES {
                if base[k] != new[k] {
                    f(k, new[k]);
                }
            }
        }
        i += LANES;
    }
    for k in i..n {
        if base[k] != new[k] {
            f(k, new[k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocep_rng::Rng;

    /// Reference scalar `a <= b`: the definition the chunked kernels
    /// must stay bit-identical to.
    fn le_scalar(a: &[u32], b: &[u32]) -> bool {
        a.iter().zip(b.iter()).all(|(x, y)| x <= y)
    }

    /// Reference scalar join, the differential baseline for
    /// [`join_into`].
    fn join_scalar(dst: &mut [u32], src: &[u32]) {
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = (*d).max(*s);
        }
    }

    /// Seeded clock-pair generator covering widths around the chunk
    /// boundary (0..=3·LANES) and values that collide often enough to
    /// exercise the equal/less/greater lanes.
    fn gen_pair(rng: &mut Rng) -> (Vec<u32>, Vec<u32>) {
        let n = rng.gen_range(0usize..(3 * LANES + 2));
        let base: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..7)).collect();
        // Derive b from a so that a<=b, b<=a, equal, and incomparable
        // all occur with decent probability.
        let b: Vec<u32> = base
            .iter()
            .map(|&v| match rng.gen_range(0u32..4) {
                0 => v,
                1 => v.saturating_add(rng.gen_range(0u32..3)),
                2 => v.saturating_sub(rng.gen_range(0u32..3)),
                _ => rng.gen_range(0u32..7),
            })
            .collect();
        (base, b)
    }

    #[test]
    fn kernels_match_scalar_reference_under_seeded_sweep() {
        let mut rng = Rng::seed_from_u64(0x07C1_0C75);
        for case in 0..4_000 {
            let (a, b) = gen_pair(&mut rng);
            assert_eq!(le(&a, &b), le_scalar(&a, &b), "le case {case}: {a:?} {b:?}");
            assert_eq!(
                order(&a, &b),
                (le_scalar(&a, &b), le_scalar(&b, &a)),
                "order case {case}"
            );
            let mut j1 = a.clone();
            let mut j2 = a.clone();
            join_into(&mut j1, &b);
            join_scalar(&mut j2, &b);
            assert_eq!(j1, j2, "join case {case}: {a:?} {b:?}");
        }
    }

    #[test]
    fn for_each_changed_reports_exactly_the_diff() {
        let mut rng = Rng::seed_from_u64(0xD1FF_5EED);
        for case in 0..2_000 {
            let (a, b) = gen_pair(&mut rng);
            let n = a.len().min(b.len());
            let mut got = Vec::new();
            for_each_changed(&a[..n], &b[..n], |i, v| got.push((i, v)));
            let want: Vec<(usize, u32)> = (0..n)
                .filter(|&i| a[i] != b[i])
                .map(|i| (i, b[i]))
                .collect();
            assert_eq!(got, want, "case {case}: {a:?} {b:?}");
        }
    }

    #[test]
    fn boundary_widths_are_exact() {
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES, 2 * LANES + 3] {
            let a: Vec<u32> = (0..n as u32).collect();
            let mut b = a.clone();
            assert!(le(&a, &b));
            assert_eq!(order(&a, &b), (true, true));
            if n > 1 {
                b[n - 1] -= 1; // entries are 0..n, so the last is >= 1
                assert!(!le(&a, &b), "width {n}: tail violation must be seen");
                assert!(le(&b, &a), "width {n}");
            }
        }
    }
}
