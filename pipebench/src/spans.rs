//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its calls into each layer's public functions (the program
//! itself carries no spans); they live in memory for the metrics the run
//! derives from them.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: t,
            end_ns: t,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Inclusive durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of span `id` in nanoseconds: its duration minus the
    /// durations of its direct children. Spans are opened and closed in
    /// sequence on one thread, so children never overlap each other or
    /// outlast their parent.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn recorder(spans: Vec<Span>) -> Spans {
        Spans {
            spans,
            ..Spans::default()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = recorder(vec![
            at("op", None, 0, 100),
            at("parse", Some(0), 10, 30),
            at("partition", Some(0), 40, 90),
            // A grandchild does not reduce the root's self time twice.
            at("coarsen", Some(2), 45, 80),
        ]);
        assert_eq!(s.self_ns(0), 100 - 20 - 50);
        assert_eq!(s.self_ns(1), 20);
        assert_eq!(s.self_ns(2), 50 - 35);
        assert_eq!(s.self_ns(3), 35);
    }

    #[test]
    fn recorded_spans_nest_and_time() {
        let mut s = Spans::default();
        let op = s.open("op", None);
        let v = s.time("work", Some(op), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        s.close(op);
        assert_eq!(v, 7);
        let work = s.durations_ms("work");
        assert_eq!(work.len(), 1);
        assert!(work[0] >= 2.0);
        assert_eq!(s.self_ns(op), s.spans[op].dur_ns() - s.spans[1].dur_ns());
    }
}
