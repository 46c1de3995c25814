//! The benchmark's own spans, recorded around each public call it makes
//! into a layer. A span holds a name, start, end, its parent span and the
//! id of the operation it belongs to; spans stay in memory until the run
//! ends and are then written out.

use crate::report::Json;
use crate::stats;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs one operation under a new root span; `f` gets the tracer and
    /// the root's id to hang child spans on.
    pub fn root<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer, usize) -> R) -> R {
        let op = self.next_op;
        self.next_op += 1;
        let id = self.open(name, op, None);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Runs `f` under a child span of `parent`.
    pub fn child<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let op = self.spans[parent].op;
        let id = self.open(name, op, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` under a child span of `parent`, or with no span when there
    /// is no parent (the untraced twin of a traced operation).
    pub fn within<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        match parent {
            Some(p) => self.child(p, name, f),
            None => f(),
        }
    }

    /// Durations (s) of the spans called `name` inside operations whose
    /// root span is called `root` (the roots themselves when the names
    /// match).
    pub fn durations_in(&self, root: &str, name: &str) -> Vec<f64> {
        let ops: std::collections::HashSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.op)
            .collect();
        self.spans
            .iter()
            .filter(|s| s.name == name && ops.contains(&s.op))
            .map(Span::duration)
            .collect()
    }

    /// A span's duration minus the part of it its children cover.
    fn self_time(&self, id: usize) -> f64 {
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let span = &self.spans[id];
        let (mut covered, mut reach) = (0.0, span.start);
        for (start, end) in kids {
            let (start, end) = (start.max(reach), end.min(span.end));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration() - covered
    }

    /// Per root name: how each operation's time splits into the self
    /// times of the spans under it and the root's own remainder.
    pub fn accounting(&self, tolerance: f64) -> Vec<Accounting> {
        let mut names: Vec<&'static str> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        names.dedup();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let (mut root, mut children, mut rest, mut worst) = (vec![], vec![], vec![], 0f64);
                for (id, span) in self.spans.iter().enumerate() {
                    if span.name != name || span.parent.is_some() {
                        continue;
                    }
                    let under = self
                        .descendants(id)
                        .map(|d| self.self_time(d))
                        .sum::<f64>()
                        .max(0.0);
                    let own = self.self_time(id);
                    worst = worst.max((span.duration() - (under + own)).abs());
                    root.push(span.duration());
                    children.push(under);
                    rest.push(own);
                }
                let root_median = stats::median(&root);
                Accounting {
                    op: name,
                    count: root.len(),
                    root_s: root_median,
                    children_self_s: stats::median(&children),
                    unaccounted_s: stats::median(&rest),
                    worst_gap_s: worst,
                    within_tolerance: worst <= tolerance * root_median.max(1e-6),
                }
            })
            .collect()
    }

    fn descendants(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        let mut stack = vec![id];
        let mut out = Vec::new();
        while let Some(p) = stack.pop() {
            for (c, s) in self.spans.iter().enumerate() {
                if s.parent == Some(p) {
                    out.push(c);
                    stack.push(c);
                }
            }
        }
        out.into_iter()
    }

    /// Every span as one JSON line.
    pub fn to_lines(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                let parent = s
                    .parent
                    .map_or(Json::Str("none".into()), |p| Json::Int(p as u64));
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("op".into(), Json::Int(s.op)),
                    ("parent".into(), parent),
                    ("start_s".into(), Json::Num(s.start)),
                    ("end_s".into(), Json::Num(s.end)),
                ])
                .render()
                    + "\n"
            })
            .collect()
    }
}

/// How one kind of operation's root span splits into layer self times.
pub struct Accounting {
    pub op: &'static str,
    pub count: usize,
    pub root_s: f64,
    pub children_self_s: f64,
    pub unaccounted_s: f64,
    pub worst_gap_s: f64,
    pub within_tolerance: bool,
}

impl Accounting {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("op".into(), Json::Str(self.op.into())),
            ("count".into(), Json::Int(self.count as u64)),
            ("root_s".into(), Json::Num(self.root_s)),
            ("children_self_s".into(), Json::Num(self.children_self_s)),
            ("unaccounted_s".into(), Json::Num(self.unaccounted_s)),
            ("worst_gap_s".into(), Json::Num(self.worst_gap_s)),
            ("within_tolerance".into(), Json::Bool(self.within_tolerance)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_remainder_add_up_to_the_root() {
        let mut t = Tracer::default();
        for _ in 0..3 {
            t.root("op", |t, id| {
                t.child(id, "a", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                t.child(id, "b", || {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        }
        let acc = &t.accounting(1e-9)[0];
        assert_eq!((acc.op, acc.count), ("op", 3));
        assert!(acc.within_tolerance);
        assert!(acc.unaccounted_s >= 0.001 && acc.children_self_s >= 0.003);
        assert_eq!(t.durations_in("op", "a").len(), 3);
        assert_eq!(t.durations_in("op", "op").len(), 3);
    }
}
