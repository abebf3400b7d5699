//! In-memory span recording for traced runs.
//!
//! Spans are recorded by the runner around its own calls into each module
//! (nothing inside the crates is instrumented). A span carries its name,
//! start and end relative to the run origin, the index of the span that
//! caused it, and the request id it belongs to. Each client thread owns
//! its own [`Tracer`]; they are merged when the run ends and written out
//! once.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Marker for "no parent".
pub const ROOT: usize = usize::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary this span covers, e.g. `core.batch.match_batch`.
    pub name: &'static str,
    /// Seconds from the run origin.
    pub start_s: f64,
    /// Seconds from the run origin.
    pub end_s: f64,
    /// Index of the causing span in the same tracer, or [`ROOT`].
    pub parent: usize,
    /// Request id shared by every span of one unit of work.
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A span sink. A disabled tracer records nothing and costs one branch.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty tracer with the same origin and switch, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span; returns its index (or [`ROOT`] when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            end_s: end.duration_since(self.origin).as_secs_f64(),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Appends another tracer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total seconds, self seconds). Self time is a
    /// span's duration minus the part of its interval its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != ROOT {
                children[s.parent].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_s.max(s.start_s), c.end_s.min(s.end_s))
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += s.duration_s();
            e.2 += s.duration_s() - union;
        }
        out
    }

    /// The spans as a JSON array of `[name, start_s, end_s, parent,
    /// request]` rows (parent `-1` for roots).
    pub fn to_json(&self) -> Value {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == ROOT {
                    -1.0
                } else {
                    s.parent as f64
                };
                Value::Arr(vec![
                    s.name.into(),
                    s.start_s.into(),
                    s.end_s.into(),
                    parent.into(),
                    s.request.into(),
                ])
            })
            .collect();
        Value::Arr(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let o = Instant::now();
        let at = |ms: u64| o + Duration::from_millis(ms);
        let mut t = Tracer::new(true, o);
        let root = t.record("root", ROOT, 1, at(0), at(100));
        t.record("child", root, 1, at(10), at(40));
        t.record("child", root, 1, at(30), at(50)); // overlaps the first
        let st = t.self_times();
        let (n, total, own) = st["root"];
        assert_eq!(n, 1);
        assert!((total - 0.1).abs() < 1e-9);
        assert!((own - 0.06).abs() < 1e-9, "{own}");
        assert_eq!(st["child"].0, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases() {
        let o = Instant::now();
        let mut off = Tracer::new(false, o);
        assert_eq!(off.record("x", ROOT, 0, o, o), ROOT);
        assert!(off.spans().is_empty());
        let mut a = Tracer::new(true, o);
        a.record("a", ROOT, 0, o, o);
        let mut b = Tracer::new(true, o);
        let p = b.record("b", ROOT, 0, o, o);
        b.record("c", p, 0, o, o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
    }
}
