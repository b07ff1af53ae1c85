//! In-memory span recorder for the traced run, plus the small statistics
//! the report needs.
//!
//! A span is one call from the benchmark into a layer's public
//! function: its name, start, end and the span that was open when it
//! began. Spans stay in memory while the workload runs and are written
//! out once, when it ends. With recording off, [`Spans::span`] only calls
//! the closure.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder. Single-threaded: spans are taken around calls the
/// benchmark makes, never inside the library's worker threads.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Run `f` inside a span called `name` (a plain call when disabled).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut st = self.state.borrow_mut();
            let idx = st.spans.len();
            let parent = st.open.last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            st.spans.push(Span {
                name,
                start,
                end: start,
                parent,
            });
            st.open.push(idx);
            idx
        };
        let out = f();
        let mut st = self.state.borrow_mut();
        st.spans[idx].end = self.origin.elapsed().as_secs_f64();
        st.open.pop();
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let st = self.state.borrow();
        st.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed self time (duration minus direct children) of every span
    /// called `name`. Spans are sequential, so children never overlap.
    pub fn self_total(&self, name: &str) -> f64 {
        let st = self.state.borrow();
        let mut child = vec![0.0f64; st.spans.len()];
        for s in &st.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        st.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.secs() - child[i])
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let st = self.state.borrow();
        let mut out = String::new();
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest of the percentiles 50, 90, 95, 99 and 99.9 that still has
/// at least ten samples above it, with its value (nearest rank). With
/// fewer than twenty samples that is the median.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (50.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let pct = [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let rank = ((pct / 100.0 * n).ceil() as usize).clamp(1, s.len());
    (pct, s[rank - 1])
}

/// Largest value of `v` (0 for an empty slice).
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}
