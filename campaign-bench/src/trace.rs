//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer's public API: name,
//! layer, start, end and the enclosing span, all sharing one run id. They
//! stay in memory until the run ends and are then written out in one file.
//! A disabled tracer only runs the closures, so untraced runs pay one branch
//! per call site.

use quarc_campaign::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when enabled; otherwise just runs the wrapped closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose spans all carry `run_id`.
    pub fn on(run_id: String) -> Tracer {
        Tracer {
            enabled: true,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            run_id: String::new(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` attributed to `layer`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, layer, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time per layer in milliseconds: each span's duration minus the
    /// time its direct children cover (children never overlap: every call
    /// is sequential on the benchmark's thread).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *by_layer.entry(s.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Every span as JSON (times in ns from the tracer's creation).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::UInt(id as u64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p as u64))),
                    ("layer", Json::Str(s.layer.into())),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                ])
            })
            .collect();
        Json::obj(vec![("run_id", Json::Str(self.run_id.clone())), ("spans", Json::Arr(spans))])
    }
}
