//! Error type for the distributed algorithms.

use std::fmt;

use dwmaxerr_algos::min_haar_space::MhsError;
use dwmaxerr_runtime::RuntimeError;
use dwmaxerr_wavelet::WaveletError;

/// Errors from the distributed drivers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Input shape or parameter error.
    Wavelet(WaveletError),
    /// The MapReduce engine failed (config or codec).
    Runtime(RuntimeError),
    /// The DP solver failed (bad ε/δ).
    Mhs(MhsError),
    /// An invariant of the distributed protocol was violated (a bug).
    Protocol(&'static str),
    /// The input holds NaN or ±∞ (or values whose sum overflows) in base
    /// slice `base`: no error bound can be advertised over it.
    NonFiniteInput {
        /// The first base slice (in base order) whose average is not
        /// finite — for a refused append, the slice its first such value
        /// would have been written to.
        base: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Wavelet(e) => write!(f, "{e}"),
            CoreError::Runtime(e) => write!(f, "{e}"),
            CoreError::Mhs(e) => write!(f, "{e}"),
            CoreError::Protocol(m) => write!(f, "protocol violation: {m}"),
            CoreError::NonFiniteInput { base } => {
                write!(
                    f,
                    "non-finite input: the average of base slice {base} is NaN or infinite"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<WaveletError> for CoreError {
    fn from(e: WaveletError) -> Self {
        CoreError::Wavelet(e)
    }
}

impl From<RuntimeError> for CoreError {
    fn from(e: RuntimeError) -> Self {
        CoreError::Runtime(e)
    }
}

impl From<MhsError> for CoreError {
    fn from(e: MhsError) -> Self {
        CoreError::Mhs(e)
    }
}
