//! Job-level failures. The engine never panics a batch: every way a job
//! can go wrong — backend failure, modeled deadline blown, queue refusal,
//! a worker thread dying — is an [`EngineError`] in that job's slot of the
//! batch report. Every failure attributes itself to the request [`Stage`]
//! it happened in, so traces, metrics, and error messages agree on where
//! a job died.

use std::fmt;

use tc_core::CoreError;
use tc_telemetry::Stage;

/// Why one job of a batch failed.
#[derive(Debug)]
pub enum EngineError {
    /// The backend itself failed (graph too large, bad launch config, …).
    Count(CoreError),
    /// The job's modeled time exceeded its `timeout-ms` budget. The result
    /// is discarded; the report records how far over it went and which
    /// stage's charge blew the budget (`prepare` when the preprocessing
    /// pass alone exceeded it, `count` otherwise).
    Timeout {
        limit_ms: f64,
        needed_ms: f64,
        stage: Stage,
    },
    /// A non-blocking submit found the job queue full (capacity attached).
    /// Blocking submission never returns this — it waits instead; that is
    /// the backpressure. Always attributed to [`Stage::Admission`].
    QueueFull { capacity: usize, stage: Stage },
    /// The worker thread running this job panicked. The panic is contained:
    /// other jobs and the engine itself keep going.
    WorkerPanicked { detail: String },
    /// The jobfile line describing this job could not be parsed.
    Jobfile(String),
}

impl EngineError {
    /// The request stage this failure is attributed to — the shared
    /// vocabulary linking error reports, per-stage failure counters, and
    /// the error marker span in request traces. [`EngineError::Count`]
    /// maps the core error's pipeline phase (`preprocess`/`schedule`/
    /// `prepare` → [`Stage::Prepare`]); phases the engine does not know
    /// default to [`Stage::Count`]. A backend no run can take
    /// ([`CoreError::InvalidBackend`]) is a malformed request, like a bad
    /// jobfile line: [`Stage::Admission`].
    pub fn stage(&self) -> Stage {
        match self {
            EngineError::Count(e) if matches!(e.root(), CoreError::InvalidBackend(_)) => {
                Stage::Admission
            }
            EngineError::Count(e) => match e.context().and_then(|c| c.phase.as_deref()) {
                Some("preprocess") | Some("schedule") | Some("prepare") => Stage::Prepare,
                _ => Stage::Count,
            },
            EngineError::Timeout { stage, .. } => *stage,
            EngineError::QueueFull { stage, .. } => *stage,
            EngineError::WorkerPanicked { .. } => Stage::Count,
            EngineError::Jobfile(_) => Stage::Admission,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Count(e) => write!(f, "count failed: {e}"),
            EngineError::Timeout {
                limit_ms,
                needed_ms,
                stage,
            } => write!(
                f,
                "job needed {needed_ms:.3} ms of modeled time, over its {limit_ms:.3} ms \
                 budget (in stage {stage})"
            ),
            EngineError::QueueFull { capacity, .. } => {
                write!(f, "job queue full ({capacity} slots)")
            }
            EngineError::WorkerPanicked { detail } => {
                write!(f, "worker panicked: {detail}")
            }
            EngineError::Jobfile(msg) => write!(f, "jobfile: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Count(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Count(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::ErrorContext;

    #[test]
    fn displays_are_informative() {
        let e = EngineError::Timeout {
            limit_ms: 5.0,
            needed_ms: 7.5,
            stage: Stage::Count,
        };
        assert!(e.to_string().contains("7.500 ms"));
        assert!(e.to_string().contains("stage count"));
        let e = EngineError::QueueFull {
            capacity: 4,
            stage: Stage::Admission,
        };
        assert!(e.to_string().contains("4 slots"));
        let e = EngineError::from(CoreError::GraphTooLargeForDevice {
            required_bytes: 2,
            capacity_bytes: 1,
        });
        assert!(e.to_string().contains("count failed"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn stages_attribute_failures() {
        let prep = CoreError::GraphTooLargeForDevice {
            required_bytes: 2,
            capacity_bytes: 1,
        }
        .with_context(ErrorContext {
            phase: Some("preprocess".into()),
            ..Default::default()
        });
        assert_eq!(EngineError::Count(prep).stage(), Stage::Prepare);

        let count = CoreError::GraphTooLargeForDevice {
            required_bytes: 2,
            capacity_bytes: 1,
        }
        .with_context(ErrorContext {
            phase: Some("count".into()),
            ..Default::default()
        });
        assert_eq!(EngineError::Count(count).stage(), Stage::Count);

        let shed = EngineError::QueueFull {
            capacity: 1,
            stage: Stage::Admission,
        };
        assert_eq!(shed.stage(), Stage::Admission);
        assert_eq!(
            EngineError::Timeout {
                limit_ms: 1.0,
                needed_ms: 2.0,
                stage: Stage::Prepare,
            }
            .stage(),
            Stage::Prepare
        );
        assert_eq!(EngineError::Jobfile("bad".into()).stage(), Stage::Admission);
    }
}
