//! Activation-trace files: record and replay streams.
//!
//! Format: one `t edge_id` pair per line, with finite `t` in non-decreasing
//! order (`#` comments allowed). Traces make experiments shareable and make
//! production incidents replayable against a checkpointed index.

use std::io::{BufRead, Write};

use anc_graph::EdgeId;

use crate::stream::{ActivationStream, Batch};

/// Errors from trace parsing.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Line that is not `t edge` with a finite `t` (1-based line number,
    /// content).
    Malformed(usize, String),
    /// Timestamps must be non-decreasing.
    OutOfOrder(usize),
    /// Edge id out of range for the declared graph.
    EdgeOutOfRange(usize, EdgeId),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::Malformed(line, s) => write!(f, "malformed trace line {line}: {s:?}"),
            TraceError::OutOfOrder(line) => {
                write!(f, "timestamps must be non-decreasing (line {line})")
            }
            TraceError::EdgeOutOfRange(line, e) => {
                write!(f, "edge {e} out of range at line {line}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Writes a stream as a trace file.
pub fn write_trace<W: Write>(stream: &ActivationStream, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# activation trace: {} activations", stream.total_activations())?;
    for (t, e) in stream.iter() {
        writeln!(writer, "{t} {e}")?;
    }
    Ok(())
}

/// Reads a trace file back into a stream, validating ordering and (when
/// `m` is given) edge-id range. Activations sharing a timestamp are grouped
/// into one batch.
pub fn read_trace<R: BufRead>(reader: R, m: Option<usize>) -> Result<ActivationStream, TraceError> {
    let mut batches: Vec<Batch> = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (Some(ts), Some(es)) = (it.next(), it.next()) else {
            return Err(TraceError::Malformed(i + 1, trimmed.to_string()));
        };
        // `nan`, `inf` and `-inf` parse as floats, but no activation happens
        // at them (and NaN would slip past the order check below).
        let (Some(t), Ok(e)) =
            (ts.parse::<f64>().ok().filter(|t| t.is_finite()), es.parse::<EdgeId>())
        else {
            return Err(TraceError::Malformed(i + 1, trimmed.to_string()));
        };
        if t < last_t {
            return Err(TraceError::OutOfOrder(i + 1));
        }
        if let Some(m) = m {
            if e as usize >= m {
                return Err(TraceError::EdgeOutOfRange(i + 1, e));
            }
        }
        if t > last_t || batches.is_empty() {
            batches.push(Batch { time: t, edges: Vec::new() });
        }
        last_t = t;
        batches.last_mut().unwrap().edges.push(e);
    }
    Ok(ActivationStream { batches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::uniform_per_step;
    use anc_graph::gen::erdos_renyi;

    #[test]
    fn round_trip() {
        let g = erdos_renyi(40, 100, 3);
        let s = uniform_per_step(&g, 7, 0.1, 5);
        let mut buf = Vec::new();
        write_trace(&s, &mut buf).unwrap();
        let back = read_trace(buf.as_slice(), Some(g.m())).unwrap();
        assert_eq!(back.total_activations(), s.total_activations());
        let a: Vec<_> = s.iter().collect();
        let b: Vec<_> = back.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn groups_equal_timestamps() {
        let text = "1.0 0\n1.0 3\n2.5 1\n";
        let s = read_trace(text.as_bytes(), None).unwrap();
        assert_eq!(s.batches.len(), 2);
        assert_eq!(s.batches[0].edges, vec![0, 3]);
        assert_eq!(s.batches[1].time, 2.5);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_trace("nonsense".as_bytes(), None),
            Err(TraceError::Malformed(1, _))
        ));
        assert!(matches!(
            read_trace("2.0 1\n1.0 2\n".as_bytes(), None),
            Err(TraceError::OutOfOrder(2))
        ));
        assert!(matches!(
            read_trace("1.0 99\n".as_bytes(), Some(10)),
            Err(TraceError::EdgeOutOfRange(1, 99))
        ));
    }

    #[test]
    fn rejects_non_finite_times() {
        for t in ["nan", "inf", "-inf", "NaN", "infinity"] {
            let text = format!("1 0\n{t} 1\n2 2\n");
            assert!(
                matches!(read_trace(text.as_bytes(), None), Err(TraceError::Malformed(2, _))),
                "{t}"
            );
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n1.0 0\n";
        let s = read_trace(text.as_bytes(), None).unwrap();
        assert_eq!(s.total_activations(), 1);
    }
}
