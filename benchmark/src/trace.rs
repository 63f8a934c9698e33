//! In-memory spans and counter samples, written as JSON lines at exit.
//!
//! Spans are recorded only at boundaries the benchmark owns (spans inside
//! the node are a later change). A disabled tracer records nothing and
//! costs one branch, so the untraced windows run the same code.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Hard cap on retained spans; later ones are counted, not kept.
const MAX_SPANS: usize = 250_000;
/// No parent / no request.
pub const NONE: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based index of the span that caused this one (`NONE` = root).
    pub parent: u64,
    /// Request id shared by the spans of one request (`NONE` = not a request).
    pub req: u64,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    name: &'static str,
    t_ns: u64,
    value: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    samples: Vec<Sample>,
    dropped: u64,
}

impl Tracer {
    /// Timestamps are nanoseconds since `epoch`; tracers that share an
    /// epoch (one per thread of a run) share a timeline.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer { on, epoch, spans: Vec::new(), samples: Vec::new(), dropped: 0 }
    }

    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant timestamps are counted from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the tracer's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `at`.
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its 1-based index for children.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        req: u64,
    ) -> u64 {
        if !self.on {
            return NONE;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        self.spans.len() as u64
    }

    /// Record a counter value at the current instant.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            let t_ns = self.now();
            self.samples.push(Sample { name, t_ns, value });
        }
    }

    /// Fold in another thread's tracer of the same epoch (parents are
    /// re-based onto this tracer's span numbering).
    pub fn absorb(&mut self, other: Tracer) {
        debug_assert_eq!(self.epoch, other.epoch, "tracers of one run share an epoch");
        let base = self.spans.len() as u64;
        for mut s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            if s.parent != NONE {
                s.parent += base;
            }
            self.spans.push(s);
        }
        self.samples.extend(other.samples);
        self.dropped += other.dropped;
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write everything as JSON lines. Called once, at exit.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        for s in &self.samples {
            writeln!(
                out,
                "{{\"counter\":\"{}\",\"t_ns\":{},\"value\":{}}}",
                s.name, s.t_ns, s.value
            )?;
        }
        writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, 1, NONE, NONE), NONE);
        t.sample("c", 1.0);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn children_point_at_parents_across_absorb() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        let root = main.span("root", 0, 10, NONE, NONE);
        let mut side = Tracer::new(true, epoch);
        let p = side.span("parent", 1, 5, NONE, 7);
        side.span("child", 2, 3, p, 7);
        main.absorb(side);
        assert_eq!(root, 1);
        assert_eq!(main.spans[2].parent, 2, "child's parent index was re-based");
        assert_eq!(main.span_count(), 3);
    }
}
