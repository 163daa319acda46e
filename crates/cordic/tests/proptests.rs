//! Property-based tests for the CORDIC engines.

use mimo_cordic::{Cordic, PipelinedRotator, PipelinedVectoring, Rotated, Vectored, LANES};
use mimo_fixed::Q16;
use proptest::prelude::*;

fn q(v: f64) -> Q16 {
    Q16::from_f64(v)
}

/// The original branching engine, kept as the oracle for the
/// branchless one: a `Vec` arctangent table, a `%` wrap on every
/// angle, and one data-dependent branch per micro-rotation.
struct ReferenceCordic {
    atan_table: Vec<i64>,
    inv_gain: Q16,
}

impl ReferenceCordic {
    fn with_iterations(iterations: u32) -> Self {
        let atan_table = (0..iterations)
            .map(|i| Q16::from_f64((2f64.powi(-(i as i32))).atan()).raw())
            .collect();
        let gain: f64 = (0..iterations)
            .map(|i| (1.0 + 2f64.powi(-2 * i as i32)).sqrt())
            .product();
        Self {
            atan_table,
            inv_gain: Q16::from_f64(1.0 / gain),
        }
    }

    /// Vectoring mode. The plain `i64` adds overflow (and panic under
    /// overflow checks) for inputs near `2^63`; below `2^61` they
    /// cannot.
    fn vector(&self, x: Q16, y: Q16) -> Vectored {
        let (mut xr, mut yr) = (x.raw(), y.raw());
        let mut acc: i64 = 0;
        if xr < 0 {
            let pi = Q16::from_f64(std::f64::consts::PI).raw();
            acc = if yr >= 0 { pi } else { -pi };
            xr = -xr;
            yr = -yr;
        }
        let mut z = acc;
        for (i, &a) in self.atan_table.iter().enumerate() {
            let (dx, dy) = (xr >> i, yr >> i);
            if yr >= 0 {
                xr += dy;
                yr -= dx;
                z += a;
            } else {
                xr -= dy;
                yr += dx;
                z -= a;
            }
        }
        Vectored {
            magnitude: Q16::from_raw(xr).mul(self.inv_gain),
            angle: Q16::from_raw(z),
        }
    }

    /// Rotation mode. The `x`/`y` adds wrap, the semantics the original
    /// had in release builds, so any input is accepted.
    fn rotate(&self, x: Q16, y: Q16, angle: Q16) -> Rotated {
        let pi = Q16::from_f64(std::f64::consts::PI).raw();
        let two_pi = 2 * pi;
        let half_pi = pi / 2;
        let mut z = angle.raw() % two_pi;
        if z > pi {
            z -= two_pi;
        } else if z < -pi {
            z += two_pi;
        }
        let (mut xr, mut yr) = (x.raw(), y.raw());
        if z > half_pi {
            (xr, yr) = (yr.wrapping_neg(), xr);
            z -= half_pi;
        } else if z < -half_pi {
            (xr, yr) = (yr, xr.wrapping_neg());
            z += half_pi;
        }
        for (i, &a) in self.atan_table.iter().enumerate() {
            let (dx, dy) = (xr >> i, yr >> i);
            if z >= 0 {
                xr = xr.wrapping_sub(dy);
                yr = yr.wrapping_add(dx);
                z -= a;
            } else {
                xr = xr.wrapping_add(dy);
                yr = yr.wrapping_sub(dx);
                z += a;
            }
        }
        Rotated {
            x: Q16::from_raw(xr).mul(self.inv_gain),
            y: Q16::from_raw(yr).mul(self.inv_gain),
        }
    }
}

/// A raw Q2.16 word: mostly sample-sized, sometimes at the lane
/// guard, sometimes anywhere in `i64`.
fn word() -> impl Strategy<Value = i64> {
    (0u8..12, -(1i64 << 17)..(1i64 << 17), any::<i64>(), 0u32..64).prop_map(
        |(kind, v, w, shift)| match kind {
            0 => (1 << 17) - 1,
            1 => -(1 << 17),
            2 => 1 << 17,
            3 | 4 => w >> shift,
            _ => v,
        },
    )
}

/// An angle over the full raw range: mostly within a few turns of
/// zero (wraps included), sometimes anywhere in `i64`.
fn any_angle() -> impl Strategy<Value = i64> {
    (0u8..8, -2_000_000i64..2_000_000, any::<i64>()).prop_map(|(kind, v, w)| match kind {
        0 => w,
        1 => 205_887,
        2 => -205_887,
        _ => v,
    })
}

proptest! {
    /// Vectoring angle matches atan2 for any nonzero vector.
    #[test]
    fn vector_angle_matches_atan2(x in -0.9f64..0.9, y in -0.9f64..0.9) {
        prop_assume!(x.hypot(y) > 0.05);
        let c = Cordic::new();
        let v = c.vector(q(x), q(y));
        let expected = y.atan2(x);
        let mut err = (v.angle.to_f64() - expected).abs();
        // ±π are the same angle.
        err = err.min((err - 2.0 * std::f64::consts::PI).abs());
        prop_assert!(err < 3e-3, "got {} want {expected}", v.angle.to_f64());
    }

    /// Vectoring magnitude matches hypot and is never negative.
    #[test]
    fn vector_magnitude_matches_hypot(x in -0.9f64..0.9, y in -0.9f64..0.9) {
        let c = Cordic::new();
        let v = c.vector(q(x), q(y));
        prop_assert!(v.magnitude.to_f64() >= -1e-6);
        prop_assert!((v.magnitude.to_f64() - x.hypot(y)).abs() < 3e-3);
    }

    /// Rotation preserves vector norm (CORDIC gain is compensated).
    #[test]
    fn rotation_preserves_norm(
        x in -0.7f64..0.7, y in -0.7f64..0.7, angle in -3.1f64..3.1
    ) {
        let c = Cordic::new();
        let r = c.rotate(q(x), q(y), q(angle));
        let before = x.hypot(y);
        let after = r.x.to_f64().hypot(r.y.to_f64());
        prop_assert!((after - before).abs() < 4e-3);
    }

    /// Rotation matches the rotation-matrix reference.
    #[test]
    fn rotation_matches_matrix(
        x in -0.7f64..0.7, y in -0.7f64..0.7, angle in -3.1f64..3.1
    ) {
        let c = Cordic::new();
        let r = c.rotate(q(x), q(y), q(angle));
        let ex = x * angle.cos() - y * angle.sin();
        let ey = x * angle.sin() + y * angle.cos();
        prop_assert!((r.x.to_f64() - ex).abs() < 3e-3);
        prop_assert!((r.y.to_f64() - ey).abs() < 3e-3);
    }

    /// Pipelined engines agree exactly with the combinational engine.
    #[test]
    fn pipelined_matches_combinational(
        x in -0.7f64..0.7, y in -0.7f64..0.7, angle in -3.0f64..3.0
    ) {
        let c = Cordic::new();
        let mut pv = PipelinedVectoring::new();
        let mut pr = PipelinedRotator::new();
        let mut vec_out = None;
        let mut rot_out = None;
        for cycle in 0..20 {
            let vin = (cycle == 0).then_some((q(x), q(y)));
            let rin = (cycle == 0).then_some((q(x), q(y), q(angle)));
            vec_out = pv.clock(vin);
            rot_out = pr.clock(rin);
        }
        prop_assert_eq!(vec_out.unwrap(), c.vector(q(x), q(y)));
        prop_assert_eq!(rot_out.unwrap(), c.rotate(q(x), q(y), q(angle)));
    }

    /// Angle accuracy improves monotonically (weakly) with iterations.
    #[test]
    fn accuracy_improves_with_iterations(x in 0.1f64..0.9, y in -0.9f64..0.9) {
        let expected = y.atan2(x);
        let coarse = Cordic::with_iterations(8);
        let fine = Cordic::with_iterations(18);
        let ec = (coarse.vector(q(x), q(y)).angle.to_f64() - expected).abs();
        let ef = (fine.vector(q(x), q(y)).angle.to_f64() - expected).abs();
        // Allow a tiny slack: fixed-point quantization is not monotone.
        prop_assert!(ef <= ec + 1e-3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The branchless `rotate` equals the branching original on any
    /// vector and any angle, wrapped angles included.
    #[test]
    fn rotate_matches_reference(x in word(), y in word(), angle in any_angle(), iterations in 1u32..41) {
        let (x, y, angle) = (Q16::from_raw(x), Q16::from_raw(y), Q16::from_raw(angle));
        let want = ReferenceCordic::with_iterations(iterations).rotate(x, y, angle);
        let c = Cordic::with_iterations(iterations);
        prop_assert_eq!(c.rotate(x, y, angle), want);
        prop_assert_eq!(c.plan(angle).rotate(x, y), want);
    }

    /// The branchless `vector` equals the branching original on every
    /// vector below the prescale limit of `2^61`.
    #[test]
    fn vector_matches_reference(x in word(), y in word(), iterations in 1u32..41) {
        prop_assume!(x.unsigned_abs() < 1 << 61 && y.unsigned_abs() < 1 << 61);
        let (x, y) = (Q16::from_raw(x), Q16::from_raw(y));
        let want = ReferenceCordic::with_iterations(iterations).vector(x, y);
        prop_assert_eq!(Cordic::with_iterations(iterations).vector(x, y), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A shared-angle plan applied to a lane batch equals one
    /// `rotate` per lane, whether the batch takes the narrow lanes or
    /// the wide fallback.
    #[test]
    fn shared_angle_plan_matches_rotate(
        words in proptest::collection::vec((word(), word()), LANES),
        narrow in any::<bool>(),
        angle in any_angle(),
        iterations in 1u32..41,
    ) {
        let c = Cordic::with_iterations(iterations);
        let angle = Q16::from_raw(angle);
        let clip = |w: i64| if narrow { w.clamp(-(1 << 17) + 1, (1 << 17) - 1) } else { w };
        let x: [Q16; LANES] = std::array::from_fn(|k| Q16::from_raw(clip(words[k].0)));
        let y: [Q16; LANES] = std::array::from_fn(|k| Q16::from_raw(clip(words[k].1)));
        let (mut xs, mut ys) = (x, y);
        c.plan(angle).rotate_lanes(&mut xs, &mut ys);
        for k in 0..LANES {
            prop_assert_eq!(Rotated { x: xs[k], y: ys[k] }, c.rotate(x[k], y[k], angle), "lane {}", k);
        }
    }

    /// Per-lane angles on a lane batch equal one `rotate` per lane.
    #[test]
    fn lane_batches_match_rotate(
        words in proptest::collection::vec((word(), word(), any_angle()), LANES),
        narrow in any::<bool>(),
        iterations in 1u32..41,
    ) {
        let c = Cordic::with_iterations(iterations);
        let clip = |w: i64| if narrow { w.clamp(-(1 << 17) + 1, (1 << 17) - 1) } else { w };
        let x: [Q16; LANES] = std::array::from_fn(|k| Q16::from_raw(clip(words[k].0)));
        let y: [Q16; LANES] = std::array::from_fn(|k| Q16::from_raw(clip(words[k].1)));
        let angle: [Q16; LANES] = std::array::from_fn(|k| Q16::from_raw(words[k].2));
        let (mut xs, mut ys) = (x, y);
        c.rotate_lanes(&mut xs, &mut ys, &angle);
        for k in 0..LANES {
            prop_assert_eq!(Rotated { x: xs[k], y: ys[k] }, c.rotate(x[k], y[k], angle[k]), "lane {}", k);
        }
    }
}

/// π in Q2.16, as the engine's quadrant logic uses it.
const PI_RAW: i64 = 205_887;
/// The lane kernels' guard: words must stay below this magnitude.
const GUARD: i64 = 1 << 17;

/// A lane word inside the guard: often at its edges, zero or a small
/// negative value.
fn lane_word() -> impl Strategy<Value = i64> {
    (0u8..16, -GUARD + 1..GUARD, -2000i64..0).prop_map(|(kind, v, small_neg)| match kind {
        0 => 0,
        1 => GUARD - 1,
        2 => -(GUARD - 1),
        3 => small_neg,
        _ => v,
    })
}

/// Lane batches from `words`, with half of them pushed past the
/// guard by one word (`wide`: flag, lane, sign, `x` or `y`).
fn lane_batch(
    words: &[(i64, i64)],
    wide: (bool, usize, bool, bool),
) -> ([Q16; LANES], [Q16; LANES]) {
    let mut x: [i64; LANES] = std::array::from_fn(|k| words[k].0);
    let mut y: [i64; LANES] = std::array::from_fn(|k| words[k].1);
    if let (true, lane, negative, in_x) = wide {
        let word = if negative { -GUARD } else { GUARD };
        if in_x {
            x[lane] = word;
        } else {
            y[lane] = word;
        }
    }
    (x.map(Q16::from_raw), y.map(Q16::from_raw))
}

/// A lane angle: ±π and a few LSBs either side of it (the slow wrap
/// path), the range vectoring outputs reach (±(π + 1.75)), and any
/// `i64`.
fn lane_angle() -> impl Strategy<Value = i64> {
    (0u8..8, -4i64..5, -320_000i64..320_000, any::<i64>()).prop_map(|(kind, d, v, w)| match kind {
        0 => PI_RAW + d,
        1 => -PI_RAW + d,
        2 => w,
        _ => v,
    })
}

/// Checks `vector_lanes` and `plan_lanes(..).rotate_lanes` on one
/// batch against the scalar engine, lane by lane.
fn check_lanes(c: &Cordic, x: [i64; LANES], y: [i64; LANES], angle: [i64; LANES]) {
    let x = x.map(Q16::from_raw);
    let y = y.map(Q16::from_raw);
    let angle = angle.map(Q16::from_raw);
    let (magnitude, phase) = c.vector_lanes(&x, &y);
    let (mut xs, mut ys) = (x, y);
    c.plan_lanes(&angle).rotate_lanes(&mut xs, &mut ys);
    for k in 0..LANES {
        let v = Vectored {
            magnitude: magnitude[k],
            angle: phase[k],
        };
        assert_eq!(
            v,
            c.vector(x[k], y[k]),
            "vector lane {k}, {} iterations",
            c.iterations()
        );
        let r = Rotated { x: xs[k], y: ys[k] };
        assert_eq!(
            r,
            c.rotate(x[k], y[k], angle[k]),
            "rotate lane {k}, {} iterations",
            c.iterations()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Vectoring lanes equal one `vector` per lane, on batches inside
    /// the guard and batches with one word past it.
    #[test]
    fn vector_lanes_match_vector(
        words in proptest::collection::vec((lane_word(), lane_word()), LANES),
        wide in (any::<bool>(), 0usize..LANES, any::<bool>(), any::<bool>()),
        iterations in 1u32..41,
    ) {
        let c = Cordic::with_iterations(iterations);
        let (x, y) = lane_batch(&words, wide);
        let (magnitude, angle) = c.vector_lanes(&x, &y);
        for k in 0..LANES {
            let v = Vectored { magnitude: magnitude[k], angle: angle[k] };
            prop_assert_eq!(v, c.vector(x[k], y[k]), "lane {}", k);
        }
    }

    /// Per-lane plans equal one `rotate` per lane, for angles at and
    /// just past ±π and for vectoring-range angles, inside and past
    /// the guard.
    #[test]
    fn lane_plans_match_rotate(
        words in proptest::collection::vec((lane_word(), lane_word()), LANES),
        angles in proptest::collection::vec(lane_angle(), LANES),
        wide in (any::<bool>(), 0usize..LANES, any::<bool>(), any::<bool>()),
        iterations in 1u32..41,
    ) {
        let c = Cordic::with_iterations(iterations);
        let (x, y) = lane_batch(&words, wide);
        let angle: [Q16; LANES] = std::array::from_fn(|k| Q16::from_raw(angles[k]));
        let (mut xs, mut ys) = (x, y);
        c.plan_lanes(&angle).rotate_lanes(&mut xs, &mut ys);
        for k in 0..LANES {
            prop_assert_eq!(Rotated { x: xs[k], y: ys[k] }, c.rotate(x[k], y[k], angle[k]), "lane {}", k);
        }
    }
}

/// Every iteration count from 1 to 40 on one batch of edge cases:
/// zero vectors, `x < 0` with `y = 0` (which takes the `+π`
/// pre-rotation), words at the guard's edge, and angles at, just
/// inside and just past ±π.
#[test]
fn lane_kernels_match_the_scalar_engine_at_every_iteration_count() {
    // (x, y, angle) per lane.
    let lanes: [(i64, i64, i64); LANES] = [
        (0, 0, PI_RAW),
        (-1, 0, -PI_RAW),
        (-(GUARD - 1), 0, PI_RAW + 1),
        (-40_000, 0, -PI_RAW - 1),
        (GUARD - 1, 0, PI_RAW + 3),
        (0, GUARD - 1, -PI_RAW - 3),
        (30_000, -(GUARD - 1), PI_RAW - 1),
        (-30_000, 30_000, -PI_RAW + 1),
        (1, -1, 0),
        (-1, 1, 102_943),
        (65_536, 0, -102_944),
        (-65_536, -65_536, 320_000),
        (12_345, -99_999, -320_000),
        (-54_321, 77_777, 411_775),
        (GUARD - 1, GUARD - 1, i64::MAX),
        (-(GUARD - 1), -(GUARD - 1), i64::MIN),
    ];
    let x = lanes.map(|l| l.0);
    let y = lanes.map(|l| l.1);
    let angle = lanes.map(|l| l.2);
    for iterations in 1..=40 {
        check_lanes(&Cordic::with_iterations(iterations), x, y, angle);
    }
}

/// Batches straddling the lane guard: one lane at `2^17 - 1` keeps the
/// batch on the `i32` lanes, the same lane at `2^17` sends it through
/// the scalar fallback. Both equal the scalar engine lane by lane.
#[test]
fn lane_batches_straddling_the_guard_match_the_scalar_engine() {
    let base_x: [i64; LANES] = std::array::from_fn(|k| 7_919 * k as i64 - 60_000);
    let base_y: [i64; LANES] = std::array::from_fn(|k| 50_000 - 6_007 * k as i64);
    let angle: [i64; LANES] = std::array::from_fn(|k| 41_000 * k as i64 - PI_RAW);
    for iterations in [1, 8, 18, 31, 32, 40] {
        let c = Cordic::with_iterations(iterations);
        for lane in [0, 7, LANES - 1] {
            for word in [GUARD - 1, GUARD, -(GUARD - 1), -GUARD] {
                let (mut x, mut y) = (base_x, base_y);
                x[lane] = word;
                check_lanes(&c, x, y, angle);
                (x, y) = (base_x, base_y);
                y[lane] = word;
                check_lanes(&c, x, y, angle);
            }
        }
    }
}

/// At the prescale limit of `Cordic::vector`: words just below `2^61`
/// match the branching original bit for bit. Words at `2^61` are
/// prescaled by 1/8; the original still fits in `i64` there, and the
/// two differ only by the rounding of the three dropped bits.
#[test]
fn vector_at_the_prescale_limit() {
    let c = Cordic::new();
    let reference = ReferenceCordic::with_iterations(mimo_cordic::CORDIC_ITERATIONS);
    let signs = [(1, 1), (1, -1), (-1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)];
    for (sx, sy) in signs {
        let below = (1i64 << 61) - 1;
        let (x, y) = (Q16::from_raw(sx * below), Q16::from_raw(sy * below));
        assert_eq!(c.vector(x, y), reference.vector(x, y), "({sx}, {sy}) below");
        let at = 1i64 << 61;
        let (x, y) = (Q16::from_raw(sx * at), Q16::from_raw(sy * at));
        let (got, want) = (c.vector(x, y), reference.vector(x, y));
        let mag_err = (got.magnitude.raw() - want.magnitude.raw()).abs();
        let angle_err = (got.angle.raw() - want.angle.raw()).abs();
        assert!(mag_err < 1 << 10, "({sx}, {sy}) at: magnitude off by {mag_err}");
        assert!(angle_err <= 4, "({sx}, {sy}) at: angle off by {angle_err}");
    }
}
