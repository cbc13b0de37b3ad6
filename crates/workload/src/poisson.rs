//! Exact Poisson sampling on top of `rand` alone.
//!
//! The paper drives each node's power demand with a Poisson distribution
//! (§V-B1). At the default 1 W quantum the simulator draws means of tens to
//! hundreds of counts for every application on every tick, so the draw's
//! cost per sample must not grow with λ. Two exact samplers split the range
//! at a mean of 10:
//!
//! - below it, Knuth's product-of-uniforms method, which spends λ + 1
//!   uniforms per draw;
//! - from it up, Hörmann's transformed rejection with squeeze (PTRS; "The
//!   transformed rejection method for generating Poisson random
//!   variables", Insurance: Mathematics and Economics 12, 1993), whose
//!   expected cost is O(1): 1.33 pairs of uniforms per draw at λ = 10,
//!   falling to 1.16 at λ = 143, with the squeeze accepting 46 % and 81 %
//!   of draws there without evaluating a logarithm.
//!
//! Neither allocates, and each mean has exactly one sampler, so a seed
//! fixes the stream.

use rand::Rng;

/// Smallest mean drawn by PTRS, the bound from which Hörmann shows it
/// valid. Below it Knuth's method is cheap: at most 11 uniforms expected.
const PTRS_MIN_MEAN: f64 = 10.0;

/// Draw one Poisson(λ) sample.
///
/// # Panics
/// Panics if `mean` is negative or non-finite.
#[must_use]
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    assert!(
        mean.is_finite() && mean >= 0.0,
        "Poisson mean must be finite and non-negative, got {mean}"
    );
    if mean == 0.0 {
        0
    } else if mean < PTRS_MIN_MEAN {
        knuth(rng, mean)
    } else {
        ptrs(rng, mean)
    }
}

/// Knuth's product-of-uniforms method; exact, and cheap for small means.
fn knuth<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    let threshold = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= threshold {
            return k;
        }
        k += 1;
    }
}

/// Hörmann's PTRS for `mean ≥ PTRS_MIN_MEAN`: a transformed-rejection
/// proposal `k` from one uniform pair, accepted at once inside the squeeze
/// region and otherwise against the exact log-pmf.
fn ptrs<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    let b = 0.931 + 2.53 * mean.sqrt();
    let a = -0.059 + 0.02483 * b;
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v = rng.gen::<f64>();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + mean + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
        let lhs = (v * inv_alpha / (a / (us * us) + b)).ln();
        if lhs <= k * mean.ln() - mean - ln_factorial(k as u64) {
            return k as u64;
        }
    }
}

/// ln k!: exact below 10, Stirling's series with four correction terms
/// from 10 up, where the first omitted term is below 1e-12 of the value.
fn ln_factorial(k: u64) -> f64 {
    const TABLE: [f64; 10] = [
        0.0,
        0.0,
        std::f64::consts::LN_2,
        1.791_759_469_228_055,
        3.178_053_830_347_945_8,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
    ];
    /// ln √(2π).
    const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_8;
    if k < 10 {
        return TABLE[k as usize];
    }
    let n = k as f64;
    let r = 1.0 / n;
    let r2 = r * r;
    let series = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0)));
    (n + 0.5) * n.ln() - n + LN_SQRT_2PI + series
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stats(mean: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<u64> = (0..n).map(|_| sample_poisson(&mut rng, mean)).collect();
        let m = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| {
                let d = x as f64 - m;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        (m, var)
    }

    /// Pearson's chi-square statistic of `n` draws at `mean` against the
    /// exact Poisson pmf, with its degrees of freedom. Cells are runs of
    /// consecutive counts grown until their expected count reaches 5; the
    /// last cell also takes the whole upper tail.
    fn chi_square(mean: f64, n: usize, seed: u64) -> (f64, usize) {
        // ln P(X = k) = k ln λ − λ − Σ_{i ≤ k} ln i, summed here rather than
        // taken from the sampler so the reference shares no code with it.
        let max_k = (mean + 12.0 * mean.sqrt() + 20.0) as usize;
        let mut ln_fact = 0.0;
        let mut expected = Vec::with_capacity(max_k + 1);
        for k in 0..=max_k {
            if k > 0 {
                ln_fact += (k as f64).ln();
            }
            let ln_p = k as f64 * mean.ln() - mean - ln_fact;
            expected.push(n as f64 * ln_p.exp());
        }
        let mut cell_of = Vec::with_capacity(max_k + 1);
        let mut cells: Vec<f64> = Vec::new();
        let mut open = 0.0;
        for &e in &expected {
            cell_of.push(cells.len());
            open += e;
            if open >= 5.0 {
                cells.push(open);
                open = 0.0;
            }
        }
        // The open remainder and the tail beyond `max_k` join the last cell.
        let last = cells.len() - 1;
        for c in &mut cell_of {
            *c = (*c).min(last);
        }
        let closed: f64 = cells[..last].iter().sum();
        cells[last] = n as f64 - closed;

        let mut observed = vec![0u64; cells.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let k = sample_poisson(&mut rng, mean) as usize;
            observed[cell_of.get(k).copied().unwrap_or(last)] += 1;
        }
        let stat = observed
            .iter()
            .zip(&cells)
            .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
            .sum();
        (stat, cells.len() - 1)
    }

    /// Upper 1e-5 quantile of χ²(df), Wilson–Hilferty approximation.
    fn chi_square_critical(df: usize) -> f64 {
        const Z: f64 = 4.265; // upper 1e-5 quantile of N(0, 1)
        let d = df as f64;
        let h = 2.0 / (9.0 * d);
        d * (1.0 - h + Z * h.sqrt()).powi(3)
    }

    #[test]
    fn matches_exact_pmf() {
        // The grid straddles every regime of the sampler.
        for (i, &mean) in [0.5, 3.0, 9.99, 10.0, 15.9, 47.6, 143.0, 1000.0]
            .iter()
            .enumerate()
        {
            let (stat, df) = chi_square(mean, 400_000, 1_000 + i as u64);
            let critical = chi_square_critical(df);
            assert!(
                stat < critical,
                "λ = {mean}: χ² = {stat:.1} over {df} df exceeds {critical:.1}"
            );
        }
    }

    #[test]
    fn zero_mean_is_always_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn small_mean_moments() {
        let (m, v) = stats(3.5, 200_000, 42);
        assert!((m - 3.5).abs() < 0.05, "mean {m}");
        assert!((v - 3.5).abs() < 0.12, "variance {v}");
    }

    #[test]
    fn moments_far_above_branch_point() {
        let (m, v) = stats(170.0, 50_000, 7);
        assert!((m - 170.0).abs() < 0.5, "mean {m}");
        assert!((v - 170.0).abs() < 4.0, "variance {v}");
    }

    #[test]
    fn mean_above_branch_point() {
        let (m, _) = stats(30.0, 100_000, 9);
        assert!((m - 30.0).abs() < 0.2, "mean {m}");
    }

    #[test]
    fn huge_mean_moments_return_promptly() {
        // A sampler whose cost grows with λ would spin here.
        let (m, v) = stats(1e6, 4_000, 13);
        // Five standard errors: √(λ/n) for the mean, λ√(2/n) for the variance.
        assert!((m - 1e6).abs() < 80.0, "mean {m}");
        assert!((v - 1e6).abs() < 1.2e5, "variance {v}");
    }

    #[test]
    fn ln_factorial_matches_log_sum() {
        let mut sum = 0.0f64;
        for k in 0..=500u64 {
            if k > 1 {
                sum += (k as f64).ln();
            }
            let got = ln_factorial(k);
            if k < 2 {
                assert_eq!(got, 0.0, "ln {k}!");
            } else {
                let rel = (got - sum).abs() / sum;
                assert!(
                    rel < 1e-12,
                    "ln {k}! = {got} vs {sum}: relative error {rel:e}"
                );
            }
        }
    }

    #[test]
    fn tiny_mean_is_mostly_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let zeros = (0..10_000)
            .filter(|_| sample_poisson(&mut rng, 0.01) == 0)
            .count();
        // P(X=0) = e^{-0.01} ≈ 0.99.
        assert!(zeros > 9_800, "zeros {zeros}");
    }

    #[test]
    fn deterministic_under_seed() {
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..32).map(|_| sample_poisson(&mut rng, 12.0)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..32).map(|_| sample_poisson(&mut rng, 12.0)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_mean_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_poisson(&mut rng, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_mean_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_poisson(&mut rng, f64::NAN);
    }
}
