//! Error type for the counting front end.

use std::fmt;

use tc_graph::GraphError;
use tc_simt::SimtError;

/// Where an error happened: the graph being counted, the device running
/// it, and the pipeline phase — the context a serving log needs to triage
/// a failed job without a debugger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ErrorContext {
    /// Caller-supplied graph name (file path, suite row, jobfile label).
    pub graph: Option<String>,
    /// Device preset label (e.g. `"GTX 980"`).
    pub device: Option<String>,
    /// Pipeline phase (`"preprocess"`, `"count"`, …).
    pub phase: Option<String>,
}

impl ErrorContext {
    /// The context of a failure on `device` during `phase`.
    pub(crate) fn at(device: impl Into<String>, phase: &str) -> ErrorContext {
        ErrorContext {
            device: Some(device.into()),
            phase: Some(phase.into()),
            ..Default::default()
        }
    }

    pub fn is_empty(&self) -> bool {
        self.graph.is_none() && self.device.is_none() && self.phase.is_none()
    }
}

impl fmt::Display for ErrorContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, key: &str, val: &Option<String>| {
            if let Some(v) = val {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{key} {v}")?;
            }
            Ok(())
        };
        item(f, "graph", &self.graph)?;
        item(f, "device", &self.device)?;
        item(f, "phase", &self.phase)
    }
}

/// Errors surfaced by [`crate::CountRequest`] and the GPU pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// The input graph failed validation or indexing.
    Graph(GraphError),
    /// The simulated device failed (launch config, stray handle, …).
    Device(SimtError),
    /// The graph does not fit on the device even with the §III-D6
    /// CPU-preprocessing fallback.
    GraphTooLargeForDevice {
        required_bytes: u64,
        capacity_bytes: u64,
    },
    /// The backend has a shape no run can take — zero devices, split
    /// parts or cluster nodes, or a layout its topology cannot serve. The
    /// token parser rejects these; API-built backends can still hold them.
    InvalidBackend(String),
    /// An underlying error annotated with where it happened.
    Context {
        context: ErrorContext,
        source: Box<CoreError>,
    },
}

impl CoreError {
    /// Wrap with context. Contexts merge rather than nest: wrapping an
    /// already-contextualized error fills in the fields the inner context
    /// left empty, so `e.with_context(phase).with_context(graph)` reads as
    /// one annotation.
    pub fn with_context(self, context: ErrorContext) -> CoreError {
        match self {
            CoreError::Context {
                context: inner,
                source,
            } => CoreError::Context {
                context: ErrorContext {
                    graph: inner.graph.or(context.graph),
                    device: inner.device.or(context.device),
                    phase: inner.phase.or(context.phase),
                },
                source,
            },
            other => CoreError::Context {
                context,
                source: Box::new(other),
            },
        }
    }

    /// The innermost, context-free error.
    pub fn root(&self) -> &CoreError {
        match self {
            CoreError::Context { source, .. } => source.root(),
            other => other,
        }
    }

    /// The attached context, if any.
    pub fn context(&self) -> Option<&ErrorContext> {
        match self {
            CoreError::Context { context, .. } => Some(context),
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Device(e) => write!(f, "device error: {e}"),
            CoreError::GraphTooLargeForDevice {
                required_bytes,
                capacity_bytes,
            } => write!(
                f,
                "graph needs {required_bytes} device bytes even with CPU preprocessing; \
                 device has {capacity_bytes}"
            ),
            CoreError::InvalidBackend(detail) => write!(f, "invalid backend: {detail}"),
            CoreError::Context { context, source } => {
                if context.is_empty() {
                    write!(f, "{source}")
                } else {
                    write!(f, "{source} ({context})")
                }
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Device(e) => Some(e),
            CoreError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<SimtError> for CoreError {
    fn from(e: SimtError) -> Self {
        CoreError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CoreError::from(GraphError::SelfLoop { vertex: 3 });
        assert!(e.to_string().contains("self-loop"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::GraphTooLargeForDevice {
            required_bytes: 10,
            capacity_bytes: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn context_annotates_and_merges() {
        let base = CoreError::from(SimtError::OutOfMemory {
            requested: 100,
            available: 10,
        });
        let e = base
            .with_context(ErrorContext {
                phase: Some("preprocess".into()),
                device: Some("GTX 980".into()),
                ..Default::default()
            })
            .with_context(ErrorContext {
                graph: Some("orkut".into()),
                phase: Some("outer phase loses".into()),
                ..Default::default()
            });
        let msg = e.to_string();
        assert!(msg.contains("graph orkut"), "{msg}");
        assert!(msg.contains("device GTX 980"), "{msg}");
        assert!(msg.contains("phase preprocess"), "{msg}");
        assert!(!msg.contains("outer phase loses"), "{msg}");
        assert!(matches!(e.root(), CoreError::Device(_)));
        // A context wrap has a source chain down to the root.
        assert!(std::error::Error::source(&e).is_some());
        let ctx = e.context().unwrap();
        assert_eq!(ctx.graph.as_deref(), Some("orkut"));
    }

    #[test]
    fn empty_context_displays_cleanly() {
        let e = CoreError::from(GraphError::SelfLoop { vertex: 1 })
            .with_context(ErrorContext::default());
        assert!(!e.to_string().contains('('));
    }
}
