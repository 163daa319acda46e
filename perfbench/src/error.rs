//! Why a run ends without a result line.

use std::fmt;

use mimo_core::PhyError;
use mimo_transport::TransportError;

#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// A transceiver call failed where the workload cannot fail.
    Phy(PhyError),
    /// The framed sample link failed.
    Transport(TransportError),
    /// A cross-check failed: the replay or a second schedule disagrees
    /// with the library, or a burst never came back.
    Check(String),
    /// The build or host cannot give the numbers the benchmark
    /// promises, e.g. a Viterbi tier below the best the CPU supports.
    Host(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Phy(e) => write!(f, "transceiver: {e}"),
            Self::Transport(e) => write!(f, "transport: {e}"),
            Self::Check(what) => write!(f, "check failed: {what}"),
            Self::Host(what) => write!(f, "host: {what}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<PhyError> for BenchError {
    fn from(e: PhyError) -> Self {
        Self::Phy(e)
    }
}

impl From<TransportError> for BenchError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}
