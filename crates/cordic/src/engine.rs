//! The iterative fixed-point CORDIC kernel.
//!
//! # Branchless micro-rotations
//!
//! Each micro-rotation turns the vector one way or the other by
//! `atan(2^-i)`, by the sign of the residual angle (rotation mode) or
//! of `y` (vectoring mode). The kernels never branch on that sign: they
//! take the sign mask `m = v >> 63` (`0` or `-1`) and apply the
//! conditional negation `(t ^ m) - m`, which is `t` for `m = 0` and
//! `-t` for `m = -1`. That is the same adder the two `if` arms chose
//! between, so results are bit-identical to a branching CORDIC.
//!
//! # Shared-angle plans
//!
//! In rotation mode, the wrap into (-π, π], the ±π/2 quadrant
//! pre-rotation and all micro-rotation directions depend only on the
//! angle, never on the vector. [`Cordic::plan`] runs that angle path
//! once and records the quadrant plus one direction bit per iteration
//! in a [`RotationPlan`]. [`RotationPlan::rotate`] then replays the
//! same adds on any vector, so a plan applied to `(x, y)` equals
//! `Cordic::rotate(x, y, angle)` bit for bit. The receiver's common
//! phase correction rotates every carrier of a symbol by one angle, so
//! it plans once per symbol and spends only the `x`/`y` adds per
//! carrier.
//!
//! # Narrow lanes and the range guard
//!
//! [`RotationPlan::rotate_lanes`], [`LanePlan::rotate_lanes`] and
//! [`Cordic::rotate_lanes`] rotate [`LANES`] vectors at once on `i32`
//! lanes, laid out so the compiler can vectorize the micro-rotation
//! across lanes. The guard is one check per batch: every input word
//! must satisfy `|raw| < 2^17`, which covers any 16-bit bus sample
//! widened to Q2.16. Each micro-rotation grows `max(|x|, |y|)` by at
//! most `1 + 2^-i`, and `Π (1 + 2^-i) < 4.8`, so the lanes stay below
//! `2^20`. The residual angle stays below `2^18`, and the gain product
//! below `2^36`. So no lane can overflow, and `i32` arithmetic gives
//! the same words as the `i64` engine. Shifts past 31 equal a shift by
//! 31 on such words, so the lanes serve every iteration count up to
//! 40. A batch with any larger word goes through a `#[cold]` per-vector
//! fallback to the scalar engine, so every lane call is exact on its
//! own.
//!
//! # Per-lane plans and vectoring lanes
//!
//! [`Cordic::plan_lanes`] is [`Cordic::plan`] with one angle per lane:
//! it wraps and quadrant-splits each lane's angle once and records one
//! sign mask per lane and iteration in a [`LanePlan`]. Replaying it
//! with [`LanePlan::rotate_lanes`] costs only the `x`/`y` adds, so a
//! caller that turns many vectors of one lane by the same angle (the
//! QRD array's internal cells turning a whole row by a boundary cell's
//! angles) pays for the angle path once.
//!
//! [`Cordic::vector_lanes`] runs vectoring mode per lane. The ±π
//! pre-rotation only negates, so inputs below `2^17` stay below it;
//! the micro-rotations then grow the vector by the CORDIC gain
//! `K < 1.65` (times `√2` for one component taking the whole length,
//! plus a few LSBs of shift rounding), which keeps `x` and `y` below
//! `2^20`. The angle accumulator starts at `0` or `±π` and moves by at
//! most `Σ atan(2^-i) < 1.75`, so it stays below `π + 1.75 < 2^19` in
//! Q2.16. Both fit `i32`, and the lanes equal [`Cordic::vector`] bit
//! for bit.

#[cfg(test)]
use mimo_fixed::Fx;
use mimo_fixed::Q16;

use crate::CORDIC_ITERATIONS;

/// Largest micro-rotation count an engine accepts
/// ([`Cordic::with_iterations`]).
const MAX_ITERATIONS: u32 = 40;

/// Vectors handled together by the lane kernels
/// ([`RotationPlan::rotate_lanes`], [`LanePlan::rotate_lanes`],
/// [`Cordic::rotate_lanes`], [`Cordic::vector_lanes`]): enough
/// independent `i32` lanes to fill four 128-bit vectors per
/// coordinate.
pub const LANES: usize = 16;

/// π in Q2.16 (`Q16::from_f64(π)`).
const PI: i64 = 205_887;
/// π/2 as the quadrant logic compares it (`PI / 2`).
const HALF_PI: i64 = PI / 2;
/// 2π as the angle wrap subtracts it.
const TWO_PI: i64 = 2 * PI;

/// Lane words must stay below this magnitude (see the module docs).
const LANE_LIMIT: u64 = 1 << 17;

/// Vectoring inputs below this magnitude cannot overflow `i64` through
/// the micro-rotations: the vector grows by at most the CORDIC gain
/// `K < 1.65` (plus a few LSBs of shift rounding), so every
/// intermediate word stays below `K·√2·2^61 < 2.33·2^61 < 2^63`.
const VECTOR_LIMIT: u64 = 1 << 61;

/// Result of a vectoring-mode CORDIC operation: the input vector rotated
/// onto the positive x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Vectored {
    /// Vector magnitude (gain-compensated).
    pub magnitude: Q16,
    /// Angle of the original vector, in radians, range (-π, π].
    pub angle: Q16,
}

/// Result of a rotation-mode CORDIC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rotated {
    /// Rotated x component (gain-compensated).
    pub x: Q16,
    /// Rotated y component (gain-compensated).
    pub y: Q16,
}

/// An iterative circular CORDIC engine in Q2.16 fixed point, the
/// arithmetic core of both the time synchroniser's magnitude calculator
/// and every cell in the QRD systolic array.
///
/// The engine works internally on the wide `i64` backing of [`Q16`]
/// (hardware keeps guard bits through the micro-rotations) and
/// compensates the CORDIC gain `K ≈ 1.6468` with a final constant
/// multiply, as the RTL does with one DSP block.
///
/// # Examples
///
/// ```
/// use mimo_cordic::Cordic;
/// use mimo_fixed::Q16;
///
/// let cordic = Cordic::new();
/// let r = cordic.rotate(Q16::ONE, Q16::ZERO, Q16::from_f64(std::f64::consts::FRAC_PI_2));
/// assert!(r.x.to_f64().abs() < 1e-3);
/// assert!((r.y.to_f64() - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Cordic {
    /// atan(2^-i) in Q16 radians; the first `iterations` entries are
    /// used, the rest are zero.
    atan_table: [i64; MAX_ITERATIONS as usize],
    /// 1/K gain compensation in Q16.
    inv_gain: Q16,
    iterations: u32,
}

impl Default for Cordic {
    fn default() -> Self {
        Self::new()
    }
}

impl Cordic {
    /// Creates an engine with the paper's iteration count
    /// ([`CORDIC_ITERATIONS`] = 18, giving a 20-cycle pipeline).
    pub fn new() -> Self {
        Self::with_iterations(CORDIC_ITERATIONS)
    }

    /// Creates an engine with a custom micro-rotation count.
    ///
    /// Fewer iterations model a cheaper, lower-accuracy CORDIC; this is
    /// the knob used by the accuracy-ablation benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero or greater than 40.
    pub fn with_iterations(iterations: u32) -> Self {
        assert!(
            (1..=MAX_ITERATIONS).contains(&iterations),
            "iteration count out of range: {iterations}"
        );
        let mut atan_table = [0i64; MAX_ITERATIONS as usize];
        for (i, a) in atan_table.iter_mut().take(iterations as usize).enumerate() {
            *a = Q16::from_f64((2f64.powi(-(i as i32))).atan()).raw();
        }
        let gain: f64 = (0..iterations)
            .map(|i| (1.0 + 2f64.powi(-2 * i as i32)).sqrt())
            .product();
        Self {
            atan_table,
            inv_gain: Q16::from_f64(1.0 / gain),
            iterations,
        }
    }

    /// Number of micro-rotation iterations.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Pipeline latency of the equivalent hardware element, in cycles:
    /// one input register + `iterations` + one gain-compensation stage.
    pub fn latency_cycles(&self) -> u32 {
        self.iterations + 2
    }

    /// The used part of the arctangent table.
    #[inline(always)]
    fn atans(&self) -> &[i64] {
        let n = (self.iterations as usize).min(self.atan_table.len());
        &self.atan_table[..n]
    }

    /// Vectoring mode: rotates `(x, y)` onto the positive x-axis,
    /// returning the magnitude and the angle rotated through.
    ///
    /// Handles all four quadrants via a pre-rotation by π when `x < 0`,
    /// like the quadrant-correction logic in front of a hardware CORDIC.
    /// The pre-rotation negates with saturation. Inputs of magnitude
    /// `2^61` or more are scaled down by 8 before the micro-rotations
    /// and the magnitude scaled back up, saturating, so no input
    /// overflows. Below `2^61` nothing is scaled and the result is that
    /// of a plain branching CORDIC, bit for bit.
    pub fn vector(&self, x: Q16, y: Q16) -> Vectored {
        let (mut xr, mut yr) = (x.raw(), y.raw());
        // Quadrant pre-rotation: CORDIC converges only for |angle| < ~1.74 rad.
        let mut z: i64 = 0;
        if xr < 0 {
            // Rotating by ∓π accumulates ±π.
            z = if yr >= 0 { PI } else { -PI };
            xr = xr.saturating_neg();
            yr = yr.saturating_neg();
        }
        if (xr.unsigned_abs() | yr.unsigned_abs()) >= VECTOR_LIMIT {
            return self.vector_prescaled(xr, yr, z);
        }
        let (xr, z) = self.vector_rotations(xr, yr, z);
        Vectored {
            magnitude: Q16::from_raw(xr).mul(self.inv_gain),
            angle: Q16::from_raw(z),
        }
    }

    /// Micro-rotations of vectoring mode on a pre-rotated vector below
    /// [`VECTOR_LIMIT`]: returns the final `x` and angle accumulator.
    #[inline(always)]
    fn vector_rotations(&self, mut xr: i64, mut yr: i64, mut z: i64) -> (i64, i64) {
        // Drive y to zero: m = -1 while y < 0.
        for (i, &a) in self.atans().iter().enumerate() {
            let m = yr >> 63;
            let (dx, dy) = (xr >> i, yr >> i);
            xr += (dy ^ m) - m;
            yr -= (dx ^ m) - m;
            z += (a ^ m) - m;
        }
        (xr, z)
    }

    /// [`Cordic::vector`] for pre-rotated inputs of `2^61` or more:
    /// the vector is scaled by 1/8 into range, and the magnitude
    /// scaled back with saturation.
    #[cold]
    #[inline(never)]
    fn vector_prescaled(&self, xr: i64, yr: i64, z: i64) -> Vectored {
        let (xr, z) = self.vector_rotations(xr >> 3, yr >> 3, z);
        Vectored {
            magnitude: Q16::from_raw(xr).mul(self.inv_gain) << 3,
            angle: Q16::from_raw(z),
        }
    }

    /// Rotation mode: rotates `(x, y)` by `angle` radians
    /// (counter-clockwise positive).
    ///
    /// Angles of any magnitude are accepted; they are wrapped into
    /// (-π, π] and quadrant-corrected before the micro-rotations. The
    /// `x`/`y` adders wrap on overflow, as the hardware's fixed-width
    /// adders do, instead of panicking.
    pub fn rotate(&self, x: Q16, y: Q16, angle: Q16) -> Rotated {
        let (quadrant, mut z) = split_quadrant(wrap_angle(angle.raw()));
        let (mut xr, mut yr) = pre_rotate(quadrant, x.raw(), y.raw());
        for (i, &a) in self.atans().iter().enumerate() {
            // m = -1 turns this micro-rotation clockwise.
            let m = z >> 63;
            let (dx, dy) = (xr >> i, yr >> i);
            xr = xr.wrapping_sub((dy ^ m).wrapping_sub(m));
            yr = yr.wrapping_add((dx ^ m).wrapping_sub(m));
            z -= (a ^ m) - m;
        }
        Rotated {
            x: Q16::from_raw(xr).mul(self.inv_gain),
            y: Q16::from_raw(yr).mul(self.inv_gain),
        }
    }

    /// Runs the angle path of [`Cordic::rotate`] once: the wrap, the
    /// quadrant choice and every micro-rotation direction. The plan
    /// rotates any number of vectors by `angle` (see the module docs).
    ///
    /// ```
    /// use mimo_cordic::Cordic;
    /// use mimo_fixed::Q16;
    ///
    /// let cordic = Cordic::new();
    /// let angle = Q16::from_f64(-2.5);
    /// let plan = cordic.plan(angle);
    /// let (x, y) = (Q16::from_f64(0.3), Q16::from_f64(-0.6));
    /// assert_eq!(plan.rotate(x, y), cordic.rotate(x, y, angle));
    /// ```
    pub fn plan(&self, angle: Q16) -> RotationPlan {
        let (quadrant, mut z) = split_quadrant(wrap_angle(angle.raw()));
        let mut clockwise = 0u64;
        for (i, &a) in self.atans().iter().enumerate() {
            let m = z >> 63;
            clockwise |= (m as u64 & 1) << i;
            z -= (a ^ m) - m;
        }
        RotationPlan {
            quadrant,
            clockwise,
            iterations: self.iterations,
            inv_gain: self.inv_gain,
        }
    }

    /// Rotates [`LANES`] vectors, each by its own angle, in place:
    /// lane `k` becomes `rotate(x[k], y[k], angle[k])`, bit for bit.
    ///
    /// Unlike [`Cordic::plan_lanes`], the angle path runs fused with
    /// the `x`/`y` adds, which is cheaper when each set of angles
    /// turns one batch only. The lanes run on `i32` when every `x`/`y`
    /// word is below `2^17` in magnitude (see the module docs), and
    /// through [`Cordic::rotate`] otherwise.
    pub fn rotate_lanes(&self, x: &mut [Q16; LANES], y: &mut [Q16; LANES], angle: &[Q16; LANES]) {
        if !lanes_are_narrow(x, y) {
            return self.rotate_lanes_wide(x, y, angle);
        }
        angled_lanes(self, x, y, angle);
    }

    /// [`Cordic::rotate_lanes`] for batches with a word outside the
    /// narrow range: one [`Cordic::rotate`] per lane.
    #[cold]
    #[inline(never)]
    fn rotate_lanes_wide(&self, x: &mut [Q16; LANES], y: &mut [Q16; LANES], angle: &[Q16; LANES]) {
        for ((xk, yk), &a) in x.iter_mut().zip(y.iter_mut()).zip(angle) {
            let r = self.rotate(*xk, *yk, a);
            (*xk, *yk) = (r.x, r.y);
        }
    }

    /// Runs the angle path of [`Cordic::rotate`] for [`LANES`] angles
    /// at once, one per lane. The plan rotates any number of lane
    /// batches: lane `k` of each by `angle[k]` (see the module docs).
    ///
    /// ```
    /// use mimo_cordic::{Cordic, LANES};
    /// use mimo_fixed::Q16;
    ///
    /// let cordic = Cordic::new();
    /// let angle: [Q16; LANES] = std::array::from_fn(|k| Q16::from_f64(0.4 * k as f64 - 3.0));
    /// let (x0, y0) = ([Q16::from_f64(0.3); LANES], [Q16::from_f64(-0.6); LANES]);
    /// let (mut x, mut y) = (x0, y0);
    /// cordic.plan_lanes(&angle).rotate_lanes(&mut x, &mut y);
    /// let r = cordic.rotate(x0[5], y0[5], angle[5]);
    /// assert_eq!((x[5], y[5]), (r.x, r.y));
    /// ```
    pub fn plan_lanes(&self, angle: &[Q16; LANES]) -> LanePlan {
        let mut plan = LanePlan {
            quadrant: [0; LANES],
            clockwise: [[0; LANES]; MAX_ITERATIONS as usize],
            iterations: self.iterations,
            inv_gain: self.inv_gain,
        };
        let mut zs = [0i32; LANES];
        for k in 0..LANES {
            let (q, z) = split_quadrant(wrap_angle(angle[k].raw()));
            // |z| <= π/2 < 2^17: exact in i32.
            (plan.quadrant[k], zs[k]) = (i32::from(q), z as i32);
        }
        lane_directions(self.atans(), zs, &mut plan.clockwise);
        plan
    }

    /// Vectoring mode on [`LANES`] vectors at once: returns the
    /// magnitudes and the angles, lane `k` equal to
    /// `vector(x[k], y[k])` bit for bit.
    ///
    /// The lanes run on `i32` when every `x`/`y` word is below `2^17`
    /// in magnitude (see the module docs), and through
    /// [`Cordic::vector`] otherwise.
    pub fn vector_lanes(&self, x: &[Q16; LANES], y: &[Q16; LANES]) -> ([Q16; LANES], [Q16; LANES]) {
        if !lanes_are_narrow(x, y) {
            return self.vector_lanes_wide(x, y);
        }
        vectored_lanes(self, x, y)
    }

    /// [`Cordic::vector_lanes`] for batches with a word outside the
    /// narrow range: one [`Cordic::vector`] per lane.
    #[cold]
    #[inline(never)]
    fn vector_lanes_wide(
        &self,
        x: &[Q16; LANES],
        y: &[Q16; LANES],
    ) -> ([Q16; LANES], [Q16; LANES]) {
        let mut magnitude = [Q16::ZERO; LANES];
        let mut angle = [Q16::ZERO; LANES];
        for k in 0..LANES {
            let v = self.vector(x[k], y[k]);
            (magnitude[k], angle[k]) = (v.magnitude, v.angle);
        }
        (magnitude, angle)
    }

    /// Magnitude of a complex value — the time synchroniser's use of the
    /// CORDIC ("Magnitude Calc" in Fig 4). Equivalent to
    /// [`Cordic::vector`] with the angle output left unconnected.
    pub fn magnitude(&self, re: Q16, im: Q16) -> Q16 {
        self.vector(re, im).magnitude
    }
}

/// The angle-only half of a rotation, computed once by
/// [`Cordic::plan`] and applied to many vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationPlan {
    /// `1`: pre-rotate by +π/2; `-1`: by -π/2; `0`: none.
    quadrant: i8,
    /// Bit `i` set: micro-rotation `i` turns clockwise.
    clockwise: u64,
    iterations: u32,
    inv_gain: Q16,
}

impl RotationPlan {
    /// Rotates one vector: equal to [`Cordic::rotate`] with the planned
    /// angle.
    pub fn rotate(&self, x: Q16, y: Q16) -> Rotated {
        let (mut xr, mut yr) = pre_rotate(self.quadrant, x.raw(), y.raw());
        for i in 0..self.iterations {
            let m = -(((self.clockwise >> i) & 1) as i64);
            let (dx, dy) = (xr >> i, yr >> i);
            xr = xr.wrapping_sub((dy ^ m).wrapping_sub(m));
            yr = yr.wrapping_add((dx ^ m).wrapping_sub(m));
        }
        Rotated {
            x: Q16::from_raw(xr).mul(self.inv_gain),
            y: Q16::from_raw(yr).mul(self.inv_gain),
        }
    }

    /// Rotates [`LANES`] vectors by the planned angle, in place: lane
    /// `k` becomes `rotate(x[k], y[k])`, bit for bit.
    ///
    /// The lanes run on `i32` when every word is below `2^17` in
    /// magnitude (see the module docs), and through
    /// [`RotationPlan::rotate`] otherwise.
    pub fn rotate_lanes(&self, x: &mut [Q16; LANES], y: &mut [Q16; LANES]) {
        if !lanes_are_narrow(x, y) {
            return self.rotate_lanes_wide(x, y);
        }
        planned_lanes(self, x, y);
    }

    /// [`RotationPlan::rotate_lanes`] for batches with a word outside
    /// the narrow range.
    #[cold]
    #[inline(never)]
    fn rotate_lanes_wide(&self, x: &mut [Q16; LANES], y: &mut [Q16; LANES]) {
        for (xk, yk) in x.iter_mut().zip(y.iter_mut()) {
            let r = self.rotate(*xk, *yk);
            (*xk, *yk) = (r.x, r.y);
        }
    }
}

/// The angle-only half of [`LANES`] rotations with one angle per
/// lane, computed once by [`Cordic::plan_lanes`] and applied to many
/// lane batches.
#[derive(Debug, Clone)]
pub struct LanePlan {
    /// Per lane: `1` pre-rotates by +π/2, `-1` by -π/2, `0` not at all.
    quadrant: [i32; LANES],
    /// `clockwise[i][k]` is `-1` when micro-rotation `i` of lane `k`
    /// turns clockwise, else `0`; rows past `iterations` are unused.
    clockwise: [[i32; LANES]; MAX_ITERATIONS as usize],
    iterations: u32,
    inv_gain: Q16,
}

impl LanePlan {
    /// Rotates [`LANES`] vectors in place: lane `k` becomes
    /// `rotate(x[k], y[k], angle[k])` for the planned angles, bit for
    /// bit.
    ///
    /// The lanes run on `i32` when every word is below `2^17` in
    /// magnitude (see the module docs), and through
    /// [`RotationPlan::rotate`], which equals [`Cordic::rotate`],
    /// otherwise.
    pub fn rotate_lanes(&self, x: &mut [Q16; LANES], y: &mut [Q16; LANES]) {
        if !lanes_are_narrow(x, y) {
            return self.rotate_lanes_wide(x, y);
        }
        lane_planned_lanes(self, x, y);
    }

    /// [`LanePlan::rotate_lanes`] for batches with a word outside the
    /// narrow range: lane `k` is rotated by the scalar plan of its own
    /// angle.
    #[cold]
    #[inline(never)]
    fn rotate_lanes_wide(&self, x: &mut [Q16; LANES], y: &mut [Q16; LANES]) {
        let rows = &self.clockwise[..self.iterations as usize];
        for k in 0..LANES {
            let clockwise = rows
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, row)| acc | (row[k] as u64 & 1) << i);
            let plan = RotationPlan {
                quadrant: self.quadrant[k] as i8,
                clockwise,
                iterations: self.iterations,
                inv_gain: self.inv_gain,
            };
            let r = plan.rotate(x[k], y[k]);
            (x[k], y[k]) = (r.x, r.y);
        }
    }
}

/// Wraps a Q2.16 angle into [-π, π]. The `%` runs only for angles
/// already outside that range; inside it, it is the identity.
#[inline(always)]
fn wrap_angle(z: i64) -> i64 {
    if (-PI..=PI).contains(&z) {
        z
    } else {
        wrap_angle_slow(z)
    }
}

#[inline(never)]
fn wrap_angle_slow(z: i64) -> i64 {
    let z = z % TWO_PI;
    if z > PI {
        z - TWO_PI
    } else if z < -PI {
        z + TWO_PI
    } else {
        z
    }
}

/// Splits a wrapped angle into a ±π/2 pre-rotation and the residual
/// inside the micro-rotations' convergence range.
#[inline(always)]
fn split_quadrant(z: i64) -> (i8, i64) {
    if z > HALF_PI {
        (1, z - HALF_PI)
    } else if z < -HALF_PI {
        (-1, z + HALF_PI)
    } else {
        (0, z)
    }
}

/// Applies the ±π/2 pre-rotation chosen by [`split_quadrant`].
#[inline(always)]
fn pre_rotate(quadrant: i8, x: i64, y: i64) -> (i64, i64) {
    match quadrant {
        1 => (y.wrapping_neg(), x),
        -1 => (y, x.wrapping_neg()),
        _ => (x, y),
    }
}

/// [`RotationPlan::rotate_lanes`] on narrow lanes.
// phylint: hot
#[inline]
fn planned_lanes(plan: &RotationPlan, x: &mut [Q16; LANES], y: &mut [Q16; LANES]) {
    let mut xs = [0i32; LANES];
    let mut ys = [0i32; LANES];
    for k in 0..LANES {
        let (xr, yr) = pre_rotate(plan.quadrant, x[k].raw(), y[k].raw());
        (xs[k], ys[k]) = (xr as i32, yr as i32);
    }
    planned_rotations(plan.clockwise, plan.iterations, &mut xs, &mut ys);
    compensate_lanes(plan.inv_gain, &xs, &ys, x, y);
}

/// [`Cordic::rotate_lanes`] on narrow lanes: one angle per lane.
#[inline]
fn angled_lanes(cordic: &Cordic, x: &mut [Q16; LANES], y: &mut [Q16; LANES], angle: &[Q16; LANES]) {
    let mut xs = [0i32; LANES];
    let mut ys = [0i32; LANES];
    let mut zs = [0i32; LANES];
    for k in 0..LANES {
        let (quadrant, z) = split_quadrant(wrap_angle(angle[k].raw()));
        let (xr, yr) = pre_rotate(quadrant, x[k].raw(), y[k].raw());
        // |x|, |y| < 2^17 and |z| <= π/2 < 2^17: exact in i32.
        (xs[k], ys[k], zs[k]) = (xr as i32, yr as i32, z as i32);
    }
    angled_rotations(cordic.atans(), &mut xs, &mut ys, &mut zs);
    compensate_lanes(cordic.inv_gain, &xs, &ys, x, y);
}

/// The micro-rotations of a planned batch: bit `i` of `clockwise`
/// turns every lane clockwise at step `i`. Kept out of line, like
/// [`angled_rotations`], so it compiles to one loop vectorized across
/// the lanes.
#[inline(never)]
fn planned_rotations(
    clockwise: u64,
    iterations: u32,
    xs: &mut [i32; LANES],
    ys: &mut [i32; LANES],
) {
    for i in 0..iterations {
        let m = -(((clockwise >> i) & 1) as i32);
        // |lane| < 2^20, so shifts past 31 equal a shift by 31.
        let shift = i.min(31);
        for k in 0..LANES {
            let (dx, dy) = (xs[k] >> shift, ys[k] >> shift);
            xs[k] -= (dy ^ m) - m;
            ys[k] += (dx ^ m) - m;
        }
    }
}

/// The micro-rotations of a batch with one residual angle per lane.
#[inline(never)]
fn angled_rotations(
    atans: &[i64],
    xs: &mut [i32; LANES],
    ys: &mut [i32; LANES],
    zs: &mut [i32; LANES],
) {
    for (i, &a) in atans.iter().enumerate() {
        let shift = (i as u32).min(31);
        let a = a as i32;
        for k in 0..LANES {
            let m = zs[k] >> 31;
            let (dx, dy) = (xs[k] >> shift, ys[k] >> shift);
            xs[k] -= (dy ^ m) - m;
            ys[k] += (dx ^ m) - m;
            zs[k] -= (a ^ m) - m;
        }
    }
}

/// [`LanePlan::rotate_lanes`] on narrow lanes.
#[inline]
fn lane_planned_lanes(plan: &LanePlan, x: &mut [Q16; LANES], y: &mut [Q16; LANES]) {
    let mut xs = [0i32; LANES];
    let mut ys = [0i32; LANES];
    for k in 0..LANES {
        // pre_rotate as masks: q = 1 gives (-y, x), q = -1 gives (y, -x).
        let (q, xr, yr) = (plan.quadrant[k], x[k].raw() as i32, y[k].raw() as i32);
        let (neg_x, neg_y) = ((-q) >> 31, q >> 31);
        // With q ≠ 0 the coordinates trade places.
        let swap = (xr ^ yr) & (neg_x | neg_y);
        let (u, v) = (xr ^ swap, yr ^ swap);
        (xs[k], ys[k]) = ((u ^ neg_x) - neg_x, (v ^ neg_y) - neg_y);
    }
    let rows = &plan.clockwise[..(plan.iterations as usize).min(plan.clockwise.len())];
    lane_rotations(rows, &mut xs, &mut ys);
    compensate_lanes(plan.inv_gain, &xs, &ys, x, y);
}

/// The micro-rotations of a lane plan: `clockwise[i][k]` is the sign
/// mask of lane `k` at step `i`.
#[inline(never)]
fn lane_rotations(clockwise: &[[i32; LANES]], xs: &mut [i32; LANES], ys: &mut [i32; LANES]) {
    for (i, m) in clockwise.iter().enumerate() {
        let shift = (i as u32).min(31);
        for k in 0..LANES {
            let (dx, dy) = (xs[k] >> shift, ys[k] >> shift);
            xs[k] -= (dy ^ m[k]) - m[k];
            ys[k] += (dx ^ m[k]) - m[k];
        }
    }
}

/// The angle path of a lane plan: drives each lane's residual angle
/// to zero, recording its sign mask per step in `clockwise`.
#[inline(never)]
fn lane_directions(
    atans: &[i64],
    mut zs: [i32; LANES],
    clockwise: &mut [[i32; LANES]; MAX_ITERATIONS as usize],
) {
    for (&a, row) in atans.iter().zip(clockwise.iter_mut()) {
        let a = a as i32;
        for k in 0..LANES {
            let m = zs[k] >> 31;
            row[k] = m;
            zs[k] -= (a ^ m) - m;
        }
    }
}

/// [`Cordic::vector_lanes`] on narrow lanes.
#[inline]
fn vectored_lanes(
    cordic: &Cordic,
    x: &[Q16; LANES],
    y: &[Q16; LANES],
) -> ([Q16; LANES], [Q16; LANES]) {
    let mut xs = [0i32; LANES];
    let mut ys = [0i32; LANES];
    let mut zs = [0i32; LANES];
    for k in 0..LANES {
        let (xr, yr) = (x[k].raw() as i32, y[k].raw() as i32);
        // Quadrant pre-rotation by ∓π when x < 0, accumulating ±π.
        let neg = xr >> 31;
        let pi = if yr >= 0 { PI as i32 } else { -(PI as i32) };
        (xs[k], ys[k], zs[k]) = ((xr ^ neg) - neg, (yr ^ neg) - neg, pi & neg);
    }
    vector_lane_rotations(cordic.atans(), &mut xs, &mut ys, &mut zs);
    let g = cordic.inv_gain.raw() as u32;
    (
        xs.map(|v| compensate(g, v)),
        zs.map(|z| Q16::from_raw(i64::from(z))),
    )
}

/// The micro-rotations of vectoring lanes: each lane drives its own
/// `y` to zero.
#[inline(never)]
fn vector_lane_rotations(
    atans: &[i64],
    xs: &mut [i32; LANES],
    ys: &mut [i32; LANES],
    zs: &mut [i32; LANES],
) {
    for (i, &a) in atans.iter().enumerate() {
        let shift = (i as u32).min(31);
        let a = a as i32;
        for k in 0..LANES {
            let m = ys[k] >> 31;
            let (dx, dy) = (xs[k] >> shift, ys[k] >> shift);
            xs[k] += (dy ^ m) - m;
            ys[k] -= (dx ^ m) - m;
            zs[k] += (a ^ m) - m;
        }
    }
}
// phylint: end-hot

/// True when every word of a lane batch is below [`LANE_LIMIT`] in
/// magnitude. Written as range checks folded by `|`, which vectorize:
/// `r + (L - 1)` and `(L - 1) - r` both lie in `[0, 2L)` exactly when
/// `|r| < L`, and any other value, wrapped or negative, sets a bit at
/// or above `2L`.
#[inline(always)]
fn lanes_are_narrow(x: &[Q16; LANES], y: &[Q16; LANES]) -> bool {
    const EDGE: i64 = LANE_LIMIT as i64 - 1;
    let bits = |v: &[Q16; LANES]| {
        v.iter().fold(0u64, |acc, q| {
            acc | q.raw().wrapping_add(EDGE) as u64 | EDGE.wrapping_sub(q.raw()) as u64
        })
    };
    (bits(x) | bits(y)) < 2 * LANE_LIMIT
}

/// The gain-compensation multiply of one lane,
/// `Q16::from_raw(v).mul(inv_gain)`, on `|v| < 2^20`.
///
/// `inv_gain` is positive and below `2^16`. With `a = |v|`, the
/// multiply's rounding `round_shr(v·g, 16)` equals
/// `sign(v)·((a·g + 2^15) >> 16)`: round half up on `v·g >= 0` and
/// the `-1` bias on negative products together round half away from
/// zero. `a·g < 2^36` fits the unsigned 32×32→64 multiply every
/// x86-64 vector unit has, so the lanes vectorize.
#[inline(always)]
fn compensate(g: u32, v: i32) -> Q16 {
    let sign = v >> 31;
    let a = ((v ^ sign) - sign) as u32;
    let t = ((u64::from(a) * u64::from(g) + (1 << 15)) >> 16) as i32;
    Q16::from_raw(i64::from((t ^ sign) - sign))
}

/// [`compensate`] for every lane, written back as Q16.
#[inline(always)]
fn compensate_lanes(
    inv_gain: Q16,
    xs: &[i32; LANES],
    ys: &[i32; LANES],
    x: &mut [Q16; LANES],
    y: &mut [Q16; LANES],
) {
    let g = inv_gain.raw() as u32;
    for k in 0..LANES {
        x[k] = compensate(g, xs[k]);
        y[k] = compensate(g, ys[k]);
    }
}

/// Convenience: worst-case absolute error of an `iterations`-deep CORDIC
/// in radians (angle) — roughly `2^-(iterations-1)` plus quantization.
#[cfg(test)]
pub(crate) fn angle_tolerance(iterations: u32) -> f64 {
    2f64.powi(-(iterations as i32 - 1)) + 4.0 / (1u64 << Fx::<16>::frac_bits()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI as PI_F64};

    fn q(v: f64) -> Q16 {
        Q16::from_f64(v)
    }

    #[test]
    fn vector_first_quadrant() {
        let c = Cordic::new();
        let v = c.vector(q(0.6), q(0.8));
        assert!((v.magnitude.to_f64() - 1.0).abs() < 1e-3);
        assert!((v.angle.to_f64() - 0.8f64.atan2(0.6)).abs() < 1e-3);
    }

    #[test]
    fn vector_all_quadrants_match_atan2() {
        let c = Cordic::new();
        let cases = [
            (0.5, 0.5),
            (-0.5, 0.5),
            (-0.5, -0.5),
            (0.5, -0.5),
            (0.9, 0.1),
            (-0.9, 0.1),
            (-0.1, -0.9),
        ];
        for (x, y) in cases {
            let v = c.vector(q(x), q(y));
            let expected = f64::atan2(y, x);
            assert!(
                (v.angle.to_f64() - expected).abs() < 2e-3,
                "atan2({y},{x}): got {} want {expected}",
                v.angle.to_f64()
            );
            assert!((v.magnitude.to_f64() - x.hypot(y)).abs() < 2e-3);
        }
    }

    #[test]
    fn vector_zero_is_zero() {
        let c = Cordic::new();
        let v = c.vector(Q16::ZERO, Q16::ZERO);
        assert_eq!(v.magnitude.to_f64(), 0.0);
    }

    #[test]
    fn vector_on_negative_x_axis() {
        let c = Cordic::new();
        let v = c.vector(q(-1.0), Q16::ZERO);
        assert!((v.magnitude.to_f64() - 1.0).abs() < 1e-3);
        assert!((v.angle.to_f64().abs() - PI_F64).abs() < 2e-3);
    }

    #[test]
    fn rotate_quarter_turn() {
        let c = Cordic::new();
        let r = c.rotate(Q16::ONE, Q16::ZERO, q(FRAC_PI_2));
        assert!(r.x.to_f64().abs() < 1e-3);
        assert!((r.y.to_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rotate_matches_rotation_matrix() {
        let c = Cordic::new();
        for angle in [-3.0, -1.8, -FRAC_PI_4, 0.0, 0.3, 1.0, 2.5, 3.1] {
            let (x0, y0) = (0.37, -0.22);
            let r = c.rotate(q(x0), q(y0), q(angle));
            let ex = x0 * angle.cos() - y0 * angle.sin();
            let ey = x0 * angle.sin() + y0 * angle.cos();
            assert!(
                (r.x.to_f64() - ex).abs() < 2e-3 && (r.y.to_f64() - ey).abs() < 2e-3,
                "angle {angle}: got ({}, {}), want ({ex}, {ey})",
                r.x.to_f64(),
                r.y.to_f64()
            );
        }
    }

    #[test]
    fn rotate_wraps_large_angles() {
        let c = Cordic::new();
        let a = c.rotate(q(0.5), q(0.25), q(0.4));
        let b = c.rotate(q(0.5), q(0.25), q(0.4 + 2.0 * PI_F64));
        assert!((a.x.to_f64() - b.x.to_f64()).abs() < 2e-3);
        assert!((a.y.to_f64() - b.y.to_f64()).abs() < 2e-3);
    }

    #[test]
    fn rotate_then_unrotate_is_identity() {
        let c = Cordic::new();
        let (x0, y0) = (0.43, 0.31);
        let r = c.rotate(q(x0), q(y0), q(1.1));
        let back = c.rotate(r.x, r.y, q(-1.1));
        assert!((back.x.to_f64() - x0).abs() < 3e-3);
        assert!((back.y.to_f64() - y0).abs() < 3e-3);
    }

    #[test]
    fn vector_then_rotate_recovers_input() {
        let c = Cordic::new();
        let (x0, y0) = (-0.37, 0.61);
        let v = c.vector(q(x0), q(y0));
        let r = c.rotate(v.magnitude, Q16::ZERO, v.angle);
        assert!((r.x.to_f64() - x0).abs() < 3e-3);
        assert!((r.y.to_f64() - y0).abs() < 3e-3);
    }

    #[test]
    fn latency_is_twenty_cycles_at_default_config() {
        let c = Cordic::new();
        assert_eq!(c.latency_cycles(), crate::CORDIC_LATENCY_CYCLES);
    }

    #[test]
    fn fewer_iterations_lower_accuracy() {
        let coarse = Cordic::with_iterations(6);
        let fine = Cordic::new();
        let expected = 0.8f64.atan2(0.6);
        let ec = (coarse.vector(q(0.6), q(0.8)).angle.to_f64() - expected).abs();
        let ef = (fine.vector(q(0.6), q(0.8)).angle.to_f64() - expected).abs();
        assert!(ef <= ec, "more iterations must not be less accurate");
        assert!(ec < angle_tolerance(6));
    }

    #[test]
    #[should_panic(expected = "iteration count out of range")]
    fn zero_iterations_rejected() {
        let _ = Cordic::with_iterations(0);
    }

    #[test]
    fn angle_constants_match_the_q16_conversion() {
        assert_eq!(PI, q(PI_F64).raw());
        assert_eq!(HALF_PI, q(PI_F64).raw() / 2);
    }

    #[test]
    fn vector_of_extreme_inputs_saturates_instead_of_overflowing() {
        let c = Cordic::new();
        let v = c.vector(Q16::from_raw(i64::MIN), Q16::ZERO);
        assert!(v.magnitude.raw() > 0);
        assert!((v.angle.to_f64().abs() - PI_F64).abs() < 2e-3);
        let v = c.vector(Q16::from_raw(i64::MIN), Q16::from_raw(i64::MIN));
        assert!(v.magnitude.raw() > 0);
        assert!((v.angle.to_f64() + 0.75 * PI_F64).abs() < 2e-3);
        let v = c.vector(Q16::from_raw(i64::MAX), Q16::from_raw(i64::MAX));
        assert!((v.angle.to_f64() - FRAC_PI_4).abs() < 2e-3);
    }

    #[test]
    fn rotate_of_extreme_inputs_does_not_panic() {
        let c = Cordic::new();
        for raw in [i64::MIN, i64::MAX, i64::MIN + 1] {
            for angle in [-3.0, -1.0, 0.0, 1.0, 3.0, 100.0] {
                let _ = c.rotate(Q16::from_raw(raw), Q16::from_raw(raw), q(angle));
                let _ = c.plan(q(angle)).rotate(Q16::from_raw(raw), Q16::ZERO);
            }
        }
        let _ = c.rotate(Q16::ONE, Q16::ZERO, Q16::from_raw(i64::MIN));
        let _ = c.rotate(Q16::ONE, Q16::ZERO, Q16::from_raw(i64::MAX));
    }

    #[test]
    fn wide_lane_batches_fall_back_to_the_scalar_engine() {
        let c = Cordic::new();
        let x: [Q16; LANES] = std::array::from_fn(|k| Q16::from_raw((k as i64 - 3) << 40));
        let y: [Q16; LANES] = std::array::from_fn(|k| q(0.1 * k as f64));
        let angle: [Q16; LANES] = std::array::from_fn(|k| q(0.7 * k as f64 - 2.0));
        let (mut xs, mut ys) = (x, y);
        c.rotate_lanes(&mut xs, &mut ys, &angle);
        let (mut xl, mut yl) = (x, y);
        c.plan_lanes(&angle).rotate_lanes(&mut xl, &mut yl);
        let plan = c.plan(angle[2]);
        let (mut xp, mut yp) = (x, y);
        plan.rotate_lanes(&mut xp, &mut yp);
        let (magnitude, phase) = c.vector_lanes(&x, &y);
        for k in 0..LANES {
            assert_eq!(
                Rotated { x: xs[k], y: ys[k] },
                c.rotate(x[k], y[k], angle[k])
            );
            assert_eq!(
                Rotated { x: xl[k], y: yl[k] },
                c.rotate(x[k], y[k], angle[k])
            );
            assert_eq!(
                Rotated { x: xp[k], y: yp[k] },
                c.rotate(x[k], y[k], angle[2])
            );
            assert_eq!(
                Vectored {
                    magnitude: magnitude[k],
                    angle: phase[k]
                },
                c.vector(x[k], y[k])
            );
        }
    }

    #[test]
    fn lanes_past_iteration_31_match_the_scalar_engine() {
        let c = Cordic::with_iterations(MAX_ITERATIONS);
        // Every word below 2^17 (|v| < 2.0), so the batch takes the
        // i32 lanes, not the scalar fallback.
        let x: [Q16; LANES] = std::array::from_fn(|k| q(0.9 - 0.1 * k as f64));
        let y: [Q16; LANES] = std::array::from_fn(|k| q(0.1 * k as f64 - 0.8));
        let angle: [Q16; LANES] = std::array::from_fn(|k| q(0.8 * k as f64 - 3.1));
        let (mut xs, mut ys) = (x, y);
        c.rotate_lanes(&mut xs, &mut ys, &angle);
        let (mut xl, mut yl) = (x, y);
        c.plan_lanes(&angle).rotate_lanes(&mut xl, &mut yl);
        let (magnitude, phase) = c.vector_lanes(&x, &y);
        for k in 0..LANES {
            assert_eq!(
                Rotated { x: xs[k], y: ys[k] },
                c.rotate(x[k], y[k], angle[k])
            );
            assert_eq!(
                Rotated { x: xl[k], y: yl[k] },
                c.rotate(x[k], y[k], angle[k])
            );
            assert_eq!(
                Vectored {
                    magnitude: magnitude[k],
                    angle: phase[k]
                },
                c.vector(x[k], y[k])
            );
        }
    }

    #[test]
    fn magnitude_shortcut_matches_vector() {
        let c = Cordic::new();
        assert_eq!(
            c.magnitude(q(0.3), q(-0.4)),
            c.vector(q(0.3), q(-0.4)).magnitude
        );
    }
}
