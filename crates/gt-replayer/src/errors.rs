//! Typed replay-pipeline errors.
//!
//! Raw `io::Error` values are fine for single-shot sinks, but a
//! fault-tolerant pipeline has distinguishable failure modes the caller
//! wants to branch on: the stream file failed to parse, the sink exhausted
//! its reconnect budget, the reader thread died. [`ReplayError`] names
//! them.

use std::fmt;
use std::io;

use gt_core::prelude::CoreError;

use crate::sink::DisconnectCause;

/// Why a replay pipeline stopped.
#[derive(Debug)]
pub enum ReplayError {
    /// An I/O failure outside the sink's reconnect loop (opening the
    /// stream file, a non-recoverable sink write).
    Io(io::Error),
    /// The stream file failed to parse (reader thread error).
    Source(CoreError),
    /// The sink exhausted its reconnect budget.
    SinkGaveUp {
        /// Reconnect attempts made before giving up.
        attempts: u32,
        /// The error from the final attempt.
        last: io::Error,
        /// How the original connection died (RST vs FIN vs stall).
        cause: DisconnectCause,
    },
    /// The reader thread panicked (a bug, not an environment failure).
    ReaderPanicked,
    /// An in-stream control event carried an invalid payload (e.g. a
    /// `SPEED` factor that is zero, negative, or not finite). The replay
    /// fails fast instead of letting the payload corrupt the pacing
    /// schedule.
    InvalidControl {
        /// The offending control event, rendered for diagnostics.
        control: String,
        /// Why the payload was rejected.
        reason: String,
    },
}

impl ReplayError {
    /// Converts an `io::Error` bubbled out of a sink back into the typed
    /// error, recovering a [`ReplayError::SinkGaveUp`] smuggled through
    /// the [`crate::EventSink`] interface by
    /// [`crate::ReconnectingTcpSink`].
    pub fn from_sink_error(err: io::Error) -> Self {
        if err.get_ref().is_some_and(|e| e.is::<ReplayError>()) {
            // Unwrap the boxed ReplayError we placed there ourselves.
            let inner = err.into_inner().expect("checked above");
            return *inner.downcast::<ReplayError>().expect("checked above");
        }
        ReplayError::Io(err)
    }

    /// Wraps this error in an `io::Error` so it can cross the
    /// [`crate::EventSink`] interface without widening the trait.
    pub(crate) fn into_io(self) -> io::Error {
        let kind = match &self {
            ReplayError::Io(e) => e.kind(),
            ReplayError::SinkGaveUp { .. } => io::ErrorKind::ConnectionAborted,
            ReplayError::InvalidControl { .. } => io::ErrorKind::InvalidData,
            _ => io::ErrorKind::Other,
        };
        io::Error::new(kind, self)
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "replay I/O error: {e}"),
            ReplayError::Source(e) => write!(f, "stream source error: {e}"),
            ReplayError::SinkGaveUp {
                attempts,
                last,
                cause,
            } => write!(
                f,
                "sink gave up after {attempts} reconnect attempts ({}): {last}",
                cause.label()
            ),
            ReplayError::ReaderPanicked => f.write_str("stream reader thread panicked"),
            ReplayError::InvalidControl { control, reason } => {
                write!(f, "invalid control event {control}: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Io(e) => Some(e),
            ReplayError::Source(e) => Some(e),
            ReplayError::SinkGaveUp { last, .. } => Some(last),
            ReplayError::ReaderPanicked => None,
            ReplayError::InvalidControl { .. } => None,
        }
    }
}

impl From<io::Error> for ReplayError {
    fn from(err: io::Error) -> Self {
        ReplayError::from_sink_error(err)
    }
}

impl From<CoreError> for ReplayError {
    fn from(err: CoreError) -> Self {
        ReplayError::Source(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn give_up_roundtrips_through_io_error() {
        let typed = ReplayError::SinkGaveUp {
            attempts: 7,
            last: io::Error::new(io::ErrorKind::ConnectionRefused, "refused"),
            cause: DisconnectCause::Reset,
        };
        let io_err = typed.into_io();
        assert_eq!(io_err.kind(), io::ErrorKind::ConnectionAborted);
        match ReplayError::from_sink_error(io_err) {
            ReplayError::SinkGaveUp {
                attempts,
                last,
                cause,
            } => {
                assert_eq!(attempts, 7);
                assert_eq!(last.kind(), io::ErrorKind::ConnectionRefused);
                assert_eq!(cause, DisconnectCause::Reset);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn plain_io_errors_stay_io() {
        let err = io::Error::new(io::ErrorKind::BrokenPipe, "pipe");
        match ReplayError::from_sink_error(err) {
            ReplayError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn display_is_informative() {
        let e = ReplayError::SinkGaveUp {
            attempts: 3,
            last: io::Error::new(io::ErrorKind::ConnectionRefused, "refused"),
            cause: DisconnectCause::Stalled,
        };
        let msg = e.to_string();
        assert!(msg.contains("3 reconnect attempts"), "{msg}");
        assert!(msg.contains("stalled"), "{msg}");
    }
}
