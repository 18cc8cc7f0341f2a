//! A fixed reference computation, timed next to every experiment.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! for this kind of code drifts by tens of percent within minutes. The
//! reference does a fixed amount of the work the controller is made of —
//! dot products over a short series, `exp`/`ln`, a sort, a Levinson–Durbin
//! recursion — so its host time moves with the host's speed but never with
//! the program under test. It allocates nothing, so the heap counters do
//! not see it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples in the reference series.
const LEN: usize = 2048;
/// Autocorrelation lags.
const LAGS: usize = 48;

/// The reference computation, once. Returns a value that depends on every
/// step so the optimiser keeps them all.
fn kernel(series: &[f64; LEN], scratch: &mut [f64; LEN]) -> f64 {
    // Autocorrelations: independent multiply-adds.
    let mut acf = [0.0f64; LAGS + 1];
    for (lag, r) in acf.iter_mut().enumerate() {
        *r = series[..LEN - lag]
            .iter()
            .zip(&series[lag..])
            .map(|(a, b)| a * b)
            .sum::<f64>()
            / LEN as f64;
    }
    // Levinson–Durbin: a serial chain of divisions.
    let mut phi = [0.0f64; LAGS + 1];
    let mut prev = [0.0f64; LAGS + 1];
    let mut err = acf[0];
    for k in 1..=LAGS {
        let mut acc = acf[k];
        for j in 1..k {
            acc -= prev[j] * acf[k - j];
        }
        let refl = acc / err;
        phi[k] = refl;
        for j in 1..k {
            phi[j] = prev[j] - refl * prev[k - j];
        }
        err *= 1.0 - refl * refl;
        prev = phi;
    }
    // Transcendentals.
    let mut smooth = 0.0;
    for (out, &x) in scratch.iter_mut().zip(series.iter()) {
        *out = (x.abs() + 1.0).ln() * (-0.5 * x * x).exp();
        smooth += *out;
    }
    // A comparison sort of data in pseudo-random order.
    scratch.sort_unstable_by(f64::total_cmp);
    err + phi.iter().sum::<f64>() + smooth + scratch[LEN / 2]
}

/// A deterministic pseudo-random series (SplitMix64 mapped to `[-1, 1)`).
fn series() -> [f64; LEN] {
    let mut state = 0x5EED_u64;
    let mut out = [0.0; LEN];
    for x in &mut out {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *x = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
    out
}

/// Runs of the reference computation in one slice.
const SLICE_REPS: u32 = 10;
/// Least host time between two slices inside an experiment.
const PERIOD: Duration = Duration::from_millis(25);

/// Slices of the reference computation interleaved with an experiment,
/// so that its host speed is sampled all through the experiment.
pub struct Reference {
    input: [f64; LEN],
    scratch: [f64; LEN],
    spent: f64,
    reps: u32,
    last: Instant,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A reference with no slices run yet.
    pub fn new() -> Self {
        Reference {
            input: series(),
            scratch: [0.0; LEN],
            spent: 0.0,
            reps: 0,
            last: Instant::now(),
        }
    }

    /// Runs one slice.
    pub fn slice(&mut self) {
        let start = Instant::now();
        for _ in 0..SLICE_REPS {
            black_box(kernel(black_box(&self.input), &mut self.scratch));
        }
        self.last = Instant::now();
        self.spent += (self.last - start).as_secs_f64();
        self.reps += SLICE_REPS;
    }

    /// Runs one slice if [`PERIOD`] has passed since the last.
    pub fn maybe_slice(&mut self) {
        if self.last.elapsed() >= PERIOD {
            self.slice();
        }
    }

    /// Host seconds spent in slices since the last call, and host seconds
    /// per run of the reference computation over those slices.
    pub fn take(&mut self) -> (f64, f64) {
        let out = (self.spent, self.spent / f64::from(self.reps.max(1)));
        self.spent = 0.0;
        self.reps = 0;
        out
    }
}
