//! Spans recorded in the benchmark's own code, around each call into a
//! layer. They stay in memory until the pass ends; no crate under
//! measurement is instrumented.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::Content;

use crate::report::map;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Repetition of the phase the span belongs to.
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Costs one branch when
    /// tracing is off.
    pub fn enter(&mut self, name: &'static str, round: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, round, start_ns, end_ns: start_ns, parent });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Closes every open span, the root last: how a pass ends, also after
    /// a panic left spans open.
    pub fn exit_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Records a child of the innermost open span from a duration the
    /// layer reported itself (`StressHistory.elapsed`): it starts with its
    /// parent and is clipped to now, so the parent's self time is what the
    /// layer did outside the reported window.
    pub fn child(&mut self, name: &'static str, duration: Duration) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("synthesised span needs an open parent");
        let start_ns = self.spans[parent].start_ns;
        let end_ns = (start_ns + duration.as_nanos() as u64).min(self.now_ns());
        let round = self.spans[parent].round;
        self.spans.push(Span { name, round, start_ns, end_ns, parent: Some(parent) });
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counters.entry(name).or_default() += n;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// The trace file: every span, self time summed by span name, and the
    /// counters.
    pub fn to_content(&self, workload: &str) -> Content {
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(&own) {
            let e = by_name.entry(span.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, &own)| {
                map([
                    ("name", Content::Str(s.name.into())),
                    ("workload", Content::Str(workload.into())),
                    ("round", Content::U64(s.round.into())),
                    ("start_ns", Content::U64(s.start_ns)),
                    ("end_ns", Content::U64(s.end_ns)),
                    ("parent", s.parent.map_or(Content::Null, |p| Content::U64(p as u64))),
                    ("self_ns", Content::U64(own)),
                ])
            })
            .collect();
        map([
            ("workload", Content::Str(workload.into())),
            ("spans", Content::Seq(spans)),
            (
                "self_time",
                Content::Map(
                    by_name
                        .into_iter()
                        .map(|(name, (count, ns))| {
                            let row = map([
                                ("count", Content::U64(count)),
                                ("self_s", Content::F64(ns as f64 / 1e9)),
                            ]);
                            (name.to_owned(), row)
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Content::Map(
                    self.counters
                        .iter()
                        .map(|(k, &v)| ((*k).to_owned(), Content::U64(v)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut t = Tracer::new(true);
        t.enter("root", 0);
        for round in 0..3 {
            t.enter("stress", round);
            std::thread::sleep(Duration::from_millis(2));
            // Longer than its parent has run: must be clipped, not overflow.
            t.child("exec", Duration::from_secs(1));
            t.exit();
            t.enter("solve", round);
            t.enter("inner", round);
            t.exit();
            t.exit();
        }
        t.exit();
        let own = t.self_times();
        let root = &t.spans()[0];
        assert_eq!(root.parent, None);
        assert_eq!(own.iter().sum::<u64>(), root.duration());
        assert!(t.spans().iter().skip(1).all(|s| s.parent.is_some()));
        for exec in t.spans().iter().filter(|s| s.name == "exec") {
            assert!(exec.end_ns <= t.spans()[exec.parent.unwrap()].end_ns);
        }
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("root", 0);
        t.child("exec", Duration::from_millis(1));
        t.count("edges", 3);
        t.exit();
        assert!(t.spans().is_empty());
        assert!(t.self_times().is_empty());
    }
}
