//! In-memory spans recorded around the calls into each engine layer.
//!
//! A span has a name, the request (statement or transaction) it belongs to,
//! its parent span, its host start and end, and the allocations made while
//! it was open. Spans stay in memory until the run ends, when they are
//! summarised into the per-layer metrics and written out as TSV.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open(usize);

/// The span recorder of one traced phase.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// Starts recording; allocation counting is on until [`Tracer::finish`].
    pub fn new() -> Tracer {
        alloc::set_counting(true);
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            req: 0,
        }
    }

    /// A tracer that records nothing, for untraced phases.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Tags the spans opened from now on with request `req`.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: alloc::count(),
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        Open(idx)
    }

    /// Closes a span; spans close in reverse order of opening.
    pub fn exit(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let allocs = alloc::count();
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0];
        s.end_ns = end;
        s.allocs = allocs - s.allocs;
    }

    /// Stops allocation counting.
    pub fn finish(&self) {
        if self.on {
            alloc::set_counting(false);
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Number of closed spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Summed duration of the spans called `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Summed allocations of the spans called `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.allocs).sum()
    }

    /// Count and summed duration (ns) of the spans called `name` whose
    /// parent is called `parent`.
    pub fn under(&self, name: &str, parent: &str) -> (u64, f64) {
        self.named(name)
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .fold((0, 0.0), |(n, t), s| {
                (n + 1, t + (s.end_ns - s.start_ns) as f64)
            })
    }

    /// Writes every span as one TSV line: id, parent, request, name,
    /// start ns, end ns, self ns, allocations.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\tallocs"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
                s.allocs
            )?;
        }
        out.flush()
    }
}
