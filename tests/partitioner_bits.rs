//! Pins every area the two grid partitioners return on the inputs the
//! paper's figures and the repository's tests feed them. Each constant is
//! `fnv1a_words` over the `to_bits` of one call's areas, captured at the
//! commit before `load_imbalancing_areas` dropped its choice tables
//! (26044e4):
//!
//! * `load_imbalancing_areas` on the Fig. 7 inputs: `hclserver1`, the 20
//!   problem sizes, `FPM_GRID_STEPS` = 192 (the 80 points share 20 inputs,
//!   one per size);
//! * `load_imbalancing_areas` on the `g` = 160 inputs of
//!   `tests/experiments.rs`;
//! * `energy_optimal_areas` on `energy_vs_time_partition`'s four sizes.
//!
//! The `*_TIMES` constants pin the partitioners' input instead: the
//! `times` bits `DiscreteFpm::from_speed` samples for `hclserver1`'s three
//! processors at the Fig. 7 and `g` = 160 inputs, captured at d27b2b5,
//! before sampling became one ascending sweep per speed function.
//!
//! A change to the search, the area fix-up or the sampling moves one of
//! them; re-capture only on purpose. No two distributions tie on these
//! inputs, so tie-breaking is checked in `summagen-partition` instead,
//! against the choice-table DPs kept there as test oracles.

use summagen_bench::experiments::{fpm_problem_sizes, FPM_GRID_STEPS};
use summagen_durable::fnv1a_words;
use summagen_partition::{energy_optimal_areas, load_imbalancing_areas, DiscreteFpm};
use summagen_platform::energy::hclserver1_power_model;
use summagen_platform::profile::hclserver1;

fn fpms(n: usize, g: usize) -> Vec<DiscreteFpm> {
    hclserver1()
        .processors
        .iter()
        .map(|p| DiscreteFpm::from_speed(p.speed.as_ref(), n, g))
        .collect()
}

fn digest(areas: &[f64]) -> u64 {
    let bits: Vec<u64> = areas.iter().map(|a| a.to_bits()).collect();
    fnv1a_words(&bits)
}

/// `(n, digest)` of `load_imbalancing_areas` at `g` = 192, Fig. 7's sizes.
const FIG7: [(usize, u64); 20] = [
    (1_024, 0x5352_0768_6dc3_2f8f),
    (2_048, 0xea8b_a01e_9fde_81ac),
    (3_072, 0x86aa_f815_5006_fb92),
    (4_096, 0xf584_d10c_8076_f8c1),
    (5_120, 0xa183_61ea_3239_16e4),
    (6_144, 0x2770_1cef_e56d_e0b6),
    (7_168, 0xda6f_7711_bfec_959b),
    (8_192, 0x9eba_7ac1_9bb7_a386),
    (9_216, 0x427c_4c9b_7e56_10ab),
    (10_240, 0x717e_abac_3c99_e063),
    (11_264, 0xf6aa_52ba_8aa0_3366),
    (12_288, 0xbea9_4952_7965_bcdd),
    (13_312, 0x1633_24f4_b10e_2792),
    (14_336, 0x9d86_6ffe_06b2_745f),
    (15_360, 0xb70c_ecdb_f54b_06ef),
    (16_384, 0xa087_d62b_3e3c_68ba),
    (17_408, 0xa3b6_3536_223e_0cb0),
    (18_432, 0x85d2_fbb9_c4fd_c60b),
    (19_456, 0x2971_bae3_4e30_8030),
    (20_480, 0x7cdd_4c0d_18ad_7d66),
];

/// `(n, digest)` of `load_imbalancing_areas` at `g` = 160.
const EXPERIMENTS_G160: [(usize, u64); 5] = [
    (4_096, 0xc26b_fce1_fbfc_163f),
    (8_192, 0x3670_c979_e7ca_03d5),
    (12_288, 0x0211_6837_253a_cbd3),
    (16_384, 0x5e63_ef22_f4e1_496b),
    (20_480, 0xbb6a_1a46_2992_831c),
];

/// `(n, digest)` of `energy_optimal_areas` at `g` = 192 with the
/// `hclserver1` compute powers.
const ENERGY: [(usize, u64); 4] = [
    (8_192, 0x0461_d2cf_f9d7_0b85),
    (12_288, 0x709a_c095_2359_a7ab),
    (16_384, 0xed42_db14_6828_b165),
    (20_480, 0xddc5_702e_91ed_e0bf),
];

/// `(n, digest)` over the `times` of the three `hclserver1` FPMs in
/// processor order, `g` = 192, Fig. 7's sizes.
const FIG7_TIMES: [(usize, u64); 20] = [
    (1_024, 0x82f3_0d5a_685b_9d5f),
    (2_048, 0x711e_a044_5472_3c2a),
    (3_072, 0x18cb_b418_4e29_f82b),
    (4_096, 0x58bf_acba_5b1b_ca32),
    (5_120, 0x2202_46ef_c188_7a10),
    (6_144, 0x65d0_3749_06a1_1c0b),
    (7_168, 0xe234_3b0d_b022_5ac8),
    (8_192, 0x736f_c8f9_ccbc_c8af),
    (9_216, 0xcc99_517a_cb86_62fc),
    (10_240, 0xf3e4_a55c_b8fa_7c70),
    (11_264, 0x19fc_f17f_4ce8_7f6d),
    (12_288, 0xdc01_217e_7719_6220),
    (13_312, 0xdb67_f384_02e4_8d09),
    (14_336, 0xbadc_fba8_2694_d3f6),
    (15_360, 0x9bc5_83ca_0a7c_26b4),
    (16_384, 0x48cc_581e_3ace_e65a),
    (17_408, 0x5d45_79fc_2382_35f0),
    (18_432, 0xc035_b4a9_9e1a_ebb0),
    (19_456, 0x678f_d64e_f3de_7d64),
    (20_480, 0x522d_ec03_8eef_ca29),
];

/// The same over the `g` = 160 inputs.
const EXPERIMENTS_G160_TIMES: [(usize, u64); 5] = [
    (4_096, 0x22d9_99de_dd1c_759d),
    (8_192, 0x841b_5cbb_6b16_6e31),
    (12_288, 0xfe02_0bbc_6eab_7d96),
    (16_384, 0x7bb3_ff08_7e23_4b4d),
    (20_480, 0x27b6_902c_dcf7_b4b3),
];

fn check(label: &str, golden: &[(usize, u64)], areas_of: impl Fn(usize) -> Vec<f64>) {
    let got: Vec<(usize, u64)> = golden
        .iter()
        .map(|&(n, _)| (n, digest(&areas_of(n))))
        .collect();
    assert_eq!(got, golden, "{label}");
}

#[test]
fn fig7_areas_are_the_pinned_ones() {
    assert_eq!(
        FIG7.map(|(n, _)| n).to_vec(),
        fpm_problem_sizes(),
        "Fig. 7 sizes"
    );
    check("fig7", &FIG7, |n| {
        load_imbalancing_areas(n, &fpms(n, FPM_GRID_STEPS))
    });
}

#[test]
fn g160_areas_are_the_pinned_ones() {
    check("g160", &EXPERIMENTS_G160, |n| {
        load_imbalancing_areas(n, &fpms(n, 160))
    });
}

/// The sampled times themselves: a change to `from_speed` that left every
/// optimum where it was would pass the area goldens above.
#[test]
fn sampled_fpm_times_are_the_pinned_ones() {
    let times = |g: usize| {
        move |n: usize| -> Vec<f64> { fpms(n, g).into_iter().flat_map(|f| f.times).collect() }
    };
    check("fig7 times", &FIG7_TIMES, times(FPM_GRID_STEPS));
    check("g160 times", &EXPERIMENTS_G160_TIMES, times(160));
}

#[test]
fn energy_optimal_areas_are_the_pinned_ones() {
    let powers = hclserver1_power_model().compute_power_w;
    check("energy", &ENERGY, |n| {
        energy_optimal_areas(n, &fpms(n, FPM_GRID_STEPS), &powers)
    });
}
