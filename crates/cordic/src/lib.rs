//! CORDIC rotation and vectoring engines.
//!
//! The paper leans on CORDICs in two places:
//!
//! * the **time synchroniser** uses a CORDIC to compute the magnitude of
//!   the 32-tap correlation sum ("much more resource efficient than
//!   square-root calculation logic", §IV.B);
//! * the **QR decomposition** systolic array is built entirely from
//!   CORDIC cells — boundary cells run two *vectoring* CORDICs, internal
//!   cells run three *rotation* CORDICs (Figs 6–7), each with a
//!   **20-clock-cycle latency**.
//!
//! This crate provides the iterative fixed-point engine ([`Cordic`]),
//! and cycle-accurate pipelined wrappers ([`PipelinedVectoring`],
//! [`PipelinedRotator`]) whose latency matches the paper's 20 cycles
//! (18 micro-rotations + input register + gain-compensation stage).
//! For the receiver's per-carrier corrections, the engine also rotates
//! [`LANES`] vectors per call: by one shared angle through a
//! [`RotationPlan`], or by one angle per lane.
//!
//! # Examples
//!
//! ```
//! use mimo_cordic::Cordic;
//! use mimo_fixed::Q16;
//!
//! let cordic = Cordic::new();
//! let v = cordic.vector(Q16::from_f64(0.6), Q16::from_f64(0.8));
//! assert!((v.magnitude.to_f64() - 1.0).abs() < 1e-3);
//! assert!((v.angle.to_f64() - 0.8f64.atan2(0.6)).abs() < 1e-3);
//! ```

mod engine;
mod pipeline;

pub use engine::{Cordic, Rotated, RotationPlan, Vectored, LANES};
pub use pipeline::{PipelinedRotator, PipelinedVectoring};

/// Pipeline latency, in clock cycles, of each CORDIC element in the
/// paper ("Each CORDIC element has a latency of 20 clock cycles").
pub const CORDIC_LATENCY_CYCLES: u32 = 20;

/// Number of micro-rotation iterations: 20-cycle latency minus the
/// input register and the gain-compensation multiply stage.
pub const CORDIC_ITERATIONS: u32 = 18;
