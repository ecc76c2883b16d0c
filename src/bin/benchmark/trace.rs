//! In-memory spans around the calls into each layer.
//!
//! The harness times every call whether or not `--trace 1` is given (the
//! metrics need the durations); tracing only decides whether the span is
//! kept.  A traced run does the same work as an untraced one and keeps spans
//! for every other repetition (`set_recording`), so the cost of tracing is the
//! measured difference between the two halves of one run.
//!
//! A span's layer is the part of its name before the first `.`; a layer's self
//! time is its spans' durations minus the part their child spans cover.
//! Children whose boundaries the harness cannot observe from outside (the
//! phases of one `run_update`, the server-side share of one request) are
//! synthesised from the durations the call reported, laid end to end from the
//! parent's start, and marked `synthetic` in the span file.

use crate::stats::Recorder;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
    /// Boundaries derived from reported durations, not observed.
    pub synthetic: bool,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            origin,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run (same clock origin).
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    /// Keep (or stop keeping) spans from here on; without `--trace 1` nothing
    /// is ever kept.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = self.enabled && on;
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn keep(&mut self, span: Span) -> Option<u32> {
        if !self.recording {
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as u32)
    }

    /// Keep a span with known boundaries; `None` when not recording.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op_id: u64,
    ) -> Option<u32> {
        self.keep(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op_id,
            synthetic: false,
        })
    }

    /// Run `f` inside a span; returns its result, the elapsed seconds and the
    /// span id (when recording).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64, Option<u32>) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let id = self.push(name, start, end, parent, op_id);
        (out, (end - start) as f64 / 1e9, id)
    }

    /// Open a span to be closed with [`Tracer::close`] — for parents whose
    /// children are recorded while they run.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op_id: u64) -> Option<u32> {
        let now = self.now_ns();
        self.push(name, now, now, parent, op_id)
    }

    pub fn close(&mut self, id: Option<u32>) {
        let now = self.now_ns();
        if let Some(id) = id {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Lay synthesised children of `(name, seconds)` end to end from the
    /// parent's start, clipped to the parent's interval.
    pub fn synthesise_children(&mut self, parent: Option<u32>, parts: &[(&'static str, f64)]) {
        let Some(parent_id) = parent else { return };
        let (mut cursor, end, op_id) = {
            let p = &self.spans[parent_id as usize];
            (p.start_ns, p.end_ns, p.op_id)
        };
        for (name, seconds) in parts {
            let child_end = (cursor + (seconds.max(0.0) * 1e9).round() as u64).min(end);
            self.spans.push(Span {
                name,
                start_ns: cursor,
                end_ns: child_end,
                parent,
                op_id,
                synthetic: true,
            });
            cursor = child_end;
        }
    }

    /// Give every span named `parent_name` the same synthesised children —
    /// used after a run, when only aggregate means of the far side are known.
    pub fn synthesise_children_of_all(
        &mut self,
        parent_name: &'static str,
        parts: &[(&'static str, f64)],
    ) {
        let ids: Vec<u32> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent_name)
            .map(|(i, _)| i as u32)
            .collect();
        for id in ids {
            self.synthesise_children(Some(id), parts);
        }
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's duration minus the part its children cover, in ns.
    fn self_nanos(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent as usize];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                covered[parent as usize] += end.saturating_sub(start);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| (span.end_ns - span.start_ns).saturating_sub(covered))
            .collect()
    }

    /// Self time in seconds per layer.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut layers = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_nanos()) {
            *layers.entry(layer_of(span.name)).or_insert(0.0) += own as f64 / 1e9;
        }
        layers
    }

    /// Self time in seconds of the spans with this exact name.
    pub fn self_seconds_of(&self, name: &str) -> f64 {
        let own = self.self_nanos();
        let named = self.spans.iter().zip(own).filter(|(s, _)| s.name == name);
        named.map(|(_, own)| own as f64 / 1e9).sum()
    }

    /// Total duration in seconds of the spans with this exact name.
    pub fn total_seconds_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Write the spans as one JSON array (span names hold no characters that
    /// need escaping).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"synthetic\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op_id, s.synthetic
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Wall times of the same units of work with and without spans kept: the
/// cost of tracing as a measured difference, not an estimate.
#[derive(Debug, Default)]
pub struct OnOffWalls {
    /// Per unit of work: samples with spans kept, samples without.
    units: Vec<(Recorder, Recorder)>,
}

impl OnOffWalls {
    pub fn record(&mut self, unit: usize, traced: bool, seconds: f64) {
        if self.units.len() <= unit {
            self.units.resize_with(unit + 1, Default::default);
        }
        let (on, off) = &mut self.units[unit];
        if traced { on } else { off }.record(seconds);
    }

    /// 100 x (traced - untraced) / untraced over the units measured both
    /// ways, each side the sum of its per-unit medians.  Signed: on a noisy
    /// box a cost below the noise comes out negative as often as positive.
    /// 0 when no unit has both.
    pub fn overhead_pct(&mut self) -> f64 {
        let (mut on_s, mut off_s) = (0.0, 0.0);
        for (on, off) in &mut self.units {
            if on.count() > 0 && off.count() > 0 {
                on_s += on.median();
                off_s += off.median();
            }
        }
        if off_s > 0.0 {
            100.0 * (on_s - off_s) / off_s
        } else {
            0.0
        }
    }
}

/// The root span of every traced stretch of a thread: what lies inside it and
/// inside no other span is time the trace does not account for.
pub const ROOT: &str = "harness.root";

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.push(ROOT, 0, 1_000, None, 0);
        let update = t.push("core.run_update", 100, 900, root, 1);
        t.synthesise_children(
            update,
            &[
                ("grounding.round", 500e-9),
                ("inference.learn", 100e-9),
                ("inference.infer", 100e-9),
            ],
        );
        // A child reported longer than what is left is clipped to the parent.
        let read = t.push("server.request", 900, 1_000, root, 2);
        t.synthesise_children(read, &[("wire.codec", 30e-9), ("server.queue", 500e-9)]);
        let layers = t.self_seconds_by_layer();
        let ns = |layer: &str| (layers[layer] * 1e9).round() as u64;
        assert_eq!(ns("harness"), 100); // 1000 - 800 - 100
        assert_eq!(ns("core"), 100); // 800 - 500 - 100 - 100
        assert_eq!(ns("grounding"), 500);
        assert_eq!(ns("inference"), 200);
        assert_eq!(ns("wire"), 30);
        assert_eq!(ns("server"), 70); // request self 0 + clipped queue child 70
        let total: f64 = layers.values().sum();
        assert_eq!((total * 1e9).round() as u64, 1_000);
        assert_eq!((t.self_seconds_of(ROOT) * 1e9).round() as u64, 100);
        assert_eq!(
            (t.total_seconds_of("core.run_update") * 1e9).round() as u64,
            800
        );
        assert!(t.spans()[2].synthetic && !t.spans()[1].synthetic);
    }

    #[test]
    fn absorb_rebases_parents_and_paused_tracer_keeps_nothing() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin);
        main.push(ROOT, 0, 10, None, 0);
        let mut other = main.sibling();
        let root = other.push(ROOT, 0, 10, None, 0);
        other.push("server.request", 2, 6, root, 7);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        let layers = main.self_seconds_by_layer();
        assert_eq!((layers["harness"] * 1e9).round() as u64, 16);

        // Pausing keeps nothing but still times the call ...
        main.set_recording(false);
        let (value, seconds, id) = main.time("core.run_update", None, 0, || 42);
        assert_eq!((value, id, main.len()), (42, None, 3));
        assert!(seconds >= 0.0);
        main.set_recording(true);
        assert!(main.time("core.run_update", None, 0, || ()).2.is_some());
        // ... and a tracer of an untraced run cannot be switched on.
        let mut off = Tracer::new(false, origin);
        off.set_recording(true);
        assert_eq!(off.time("core.run_update", None, 0, || ()).2, None);
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn tracing_overhead_pairs_units_measured_both_ways() {
        let mut walls = OnOffWalls::default();
        assert_eq!(walls.overhead_pct(), 0.0);
        for (unit, on, off) in [(0, 1.02, 1.0), (1, 3.06, 3.0)] {
            walls.record(unit, true, on);
            walls.record(unit, false, off);
        }
        // Unit 2 was only ever traced: it has nothing to be compared with.
        walls.record(2, true, 50.0);
        assert!((walls.overhead_pct() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mean_children_attach_to_every_matching_span() {
        let mut t = Tracer::new(true, Instant::now());
        t.push("server.request", 0, 100, None, 1);
        t.push("server.request", 100, 300, None, 2);
        t.push("core.run_update", 0, 50, None, 3);
        t.synthesise_children_of_all("server.request", &[("wire.codec", 40e-9)]);
        assert_eq!(t.len(), 5);
        let layers = t.self_seconds_by_layer();
        assert_eq!((layers["wire"] * 1e9).round() as u64, 80);
        assert_eq!((layers["server"] * 1e9).round() as u64, 220);
    }
}
