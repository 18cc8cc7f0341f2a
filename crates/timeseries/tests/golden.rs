//! Bit-exact pins of every forecaster's output and of season detection.
//!
//! The hashes were computed by the recursive-backtest implementation with
//! its direct-DFT periodogram. Any change to a forecast value, a holdout
//! MASE, an error or a detected season changes a hash.

// Test code: panics and lossy casts are acceptable here.
#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use chamulteon_forecast::stats::periodogram;
use chamulteon_forecast::{
    detect_season_length, ArForecaster, DriftForecaster, Forecaster, HoltForecaster,
    HoltWintersForecaster, MeanForecaster, NaiveForecaster, SeasonalNaiveForecaster, SesForecaster,
    TelescopeForecaster, ThetaForecaster, TimeSeries,
};
use chamulteon_workload::generators::{bibsonomy_like, wikipedia_like};
use chamulteon_workload::LoadTrace;
use proptest::prelude::*;
use std::f64::consts::TAU;

/// One FNV-1a step over the bytes of a 64-bit word.
fn mix(h: &mut u64, w: u64) {
    for b in w.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a offset basis.
const FNV: u64 = 0xcbf2_9ce4_8422_2325;

/// A seeded series of one of four shapes: seasonal with trend and noise,
/// noise without season, a falling line the non-negativity clamp cuts,
/// and a constant (singular AR fit).
fn series(shape: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|t| {
            // SplitMix64, mapped to [-0.5, 0.5).
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let e = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let t = t as f64;
            match shape {
                0 => 100.0 + 40.0 * (TAU * t / 24.0).sin() + 0.1 * t + 8.0 * e,
                1 => 50.0 + 20.0 * e,
                2 => 30.0 - 0.5 * t + 2.0 * e,
                _ => 7.0,
            }
        })
        .collect()
}

/// Hash of `method`'s values, holdout MASE and errors over every shape,
/// length (including the < 8-sample fallback), horizon and seed.
fn method_hash(method: &dyn Forecaster) -> u64 {
    let mut h = FNV;
    for shape in 0..4 {
        for n in [1, 5, 7, 8, 30, 97, 400] {
            for seed in [1, 2] {
                let history = TimeSeries::from_values(60.0, series(shape, n, seed)).unwrap();
                for horizon in [1, 12, 30] {
                    match method.forecast(&history, horizon) {
                        Ok(fc) => {
                            fc.values().iter().for_each(|v| mix(&mut h, v.to_bits()));
                            mix(&mut h, fc.in_sample_mase().map_or(u64::MAX, f64::to_bits));
                        }
                        Err(e) => format!("{e:?}").bytes().for_each(|b| mix(&mut h, b.into())),
                    }
                }
            }
        }
    }
    h
}

/// Hash pins of [`method_hash`], one per method in the order of the list
/// in [`every_method_reproduces_its_pinned_output`].
const METHOD_PINS: [(&str, u64); 12] = [
    ("naive", 0x55c7_b894_2868_e092),
    ("snaive24", 0x63d0_fd0e_3f48_c32c),
    ("drift", 0xc4c0_462b_a68b_439a),
    ("mean", 0x739e_f31c_cb40_b8e5),
    ("mean10", 0x88a7_4345_fe17_6159),
    ("ses", 0xb436_ea9e_abab_00c6),
    ("holt", 0xf232_7812_e25c_c959),
    ("hw24", 0x7a33_0e9e_d305_9ebe),
    ("ar3", 0x950d_4384_cd4f_a20d),
    ("theta", 0x7da0_7cdc_a78f_5700),
    ("telescope", 0xe202_f288_7a76_1d97),
    ("telescope24", 0x6c5c_019c_db78_d3d5),
];

#[test]
fn every_method_reproduces_its_pinned_output() {
    let methods: Vec<Box<dyn Forecaster>> = vec![
        Box::new(NaiveForecaster),
        Box::new(SeasonalNaiveForecaster::new(24)),
        Box::new(DriftForecaster),
        Box::new(MeanForecaster::new()),
        Box::new(MeanForecaster::with_window(10)),
        Box::new(SesForecaster::default()),
        Box::new(HoltForecaster::default()),
        Box::new(HoltWintersForecaster::with_period(24).unwrap()),
        Box::new(ArForecaster::default()),
        Box::new(ThetaForecaster::default()),
        Box::new(TelescopeForecaster::default()),
        Box::new(TelescopeForecaster::with_season(24)),
    ];
    let got: Vec<String> = (methods.iter().zip(METHOD_PINS))
        .map(|(m, (name, _))| format!("{name}: {:#018x}", method_hash(m.as_ref())))
        .collect();
    let want = METHOD_PINS.map(|(name, pin)| format!("{name}: {pin:#018x}"));
    assert_eq!(got, want);
}

/// Hash of the season detected on every prefix of 3-day histories at one
/// day length and sampling cadence, over several seeds.
fn season_hash(generator: fn(u64, f64, f64) -> LoadTrace, day_s: f64, cadence: f64) -> u64 {
    let mut h = FNV;
    for seed in 1..=8 {
        let trace = generator(seed, 60.0, 3.0 * 86_400.0)
            .compress_to(3.0 * day_s)
            .scale_to_peak(100.0)
            .resample(cadence)
            .unwrap();
        let rates = trace.rates();
        for len in 1..=rates.len() {
            let prefix = TimeSeries::from_values(cadence, rates[..len].to_vec()).unwrap();
            mix(
                &mut h,
                detect_season_length(&prefix).map_or(u64::MAX, |p| p as u64),
            );
        }
    }
    h
}

#[test]
fn season_detection_reproduces_its_pinned_prefix_hashes() {
    // Docker cadence (1 h days, 60 s cycles) and VM cadence (6 h, 120 s).
    let got = [
        season_hash(wikipedia_like, 3_600.0, 60.0),
        season_hash(wikipedia_like, 21_600.0, 120.0),
        season_hash(bibsonomy_like, 3_600.0, 60.0),
        season_hash(bibsonomy_like, 21_600.0, 120.0),
    ];
    let want: [u64; 4] = [
        0x8a01_2a17_ed54_d786,
        0x1fd1_f610_1f3a_b919,
        0x839c_bea8_25ee_f8be,
        0x8171_ad51_f298_b4b3,
    ];
    assert_eq!(
        got.map(|h| format!("{h:#018x}")),
        want.map(|h| format!("{h:#018x}"))
    );
}

/// Direct DFT projection, one `cos`/`sin` per term.
fn reference_periodogram(values: &[f64], max_freq: usize) -> Vec<f64> {
    let n = values.len();
    let m = values.iter().sum::<f64>() / n as f64;
    (1..=max_freq)
        .map(|freq| {
            let omega = TAU * freq as f64 / n as f64;
            let (re, im) = values
                .iter()
                .enumerate()
                .fold((0.0, 0.0), |(re, im), (t, y)| {
                    let phase = omega * t as f64;
                    (re + (y - m) * phase.cos(), im + (y - m) * phase.sin())
                });
            (re * re + im * im) / n as f64
        })
        .collect()
}

proptest! {
    /// The periodogram matches a direct DFT to within 1e-12 of the total
    /// power at every frequency.
    #[test]
    fn periodogram_matches_direct_dft(
        values in prop::collection::vec(0.0f64..1_000.0, 4..700),
        cap in 1usize..300,
    ) {
        let max_freq = cap.min(values.len() / 2).max(1);
        let got = periodogram(&values, max_freq);
        let want = reference_periodogram(&values, max_freq);
        let total: f64 = want.iter().sum();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() <= 1e-12 * total, "{} vs {} (total {})", g, w, total);
        }
    }
}
