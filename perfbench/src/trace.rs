//! The benchmark's span recorder: spans (name, start, end, parent) kept
//! in memory around calls into each layer, written out once at the end.
//! A disabled recorder costs one branch per span, so the untraced runs
//! that produce the end-to-end metrics never touch the clock for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span, in seconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Guard<'_> {
    /// Id to pass as the parent of child spans.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.tracer.now();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end = now;
            }
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Open a span named `name` under `parent`.
    pub fn span(&self, name: &'static str, parent: Option<usize>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        Guard {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self times of every span named `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Write every span as one JSON line, then a per-name summary (count,
    /// total and self seconds) to stderr.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut summary: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (i, (s, self_s)) in spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"self\":{}}}",
                s.name, s.start, s.end, self_s
            )?;
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration();
            e.2 += self_s;
        }
        out.flush()?;
        eprintln!("spans written to {}", path.display());
        eprintln!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (n, total, self_s)) in summary {
            eprintln!("{name:<28} {n:>8} {total:>12.6} {self_s:>12.6}");
        }
        Ok(())
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once;
/// children reaching outside the parent are clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("solve", 0.0, 10.0, None),
            span("apply", 1.0, 3.0, Some(0)),
            // overlaps the first child: [2, 5] adds only [3, 5]
            span("vcycle", 2.0, 5.0, Some(0)),
            // reaches past the parent: clipped to [8, 10]
            span("apply", 8.0, 12.0, Some(0)),
            // a grandchild does not count against the root
            span("inner", 8.5, 9.0, Some(3)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 4.0).abs() < 1e-12, "{st:?}");
        assert!((st[1] - 2.0).abs() < 1e-12);
        assert!((st[3] - 3.5).abs() < 1e-12);
        assert!((st[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        {
            let outer = t.span("outer", None);
            let _inner = t.span("inner", outer.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(t.durations("inner").len(), 1);
        assert_eq!(t.self_times_of("outer").len(), 1);

        let off = Tracer::new(false);
        let g = off.span("outer", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(off.spans().is_empty());
    }
}
