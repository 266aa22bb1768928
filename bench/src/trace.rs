//! In-memory span recording for the traced passes.
//!
//! Spans are taken from the harness's side only — around the public calls
//! it makes into the system and into the layer twin — kept in memory, and
//! written out when the run ends. A full recorder counts what it drops
//! instead of growing.

use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = 0;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based, unique within a recorder.
    pub id: u32,
    /// Id of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Traced pass the span belongs to.
    pub pass: u32,
    /// Index into the op list of the op that caused it.
    pub op: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle returned by [`Recorder::begin`]; `None` inside when the span was
/// dropped.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// Records the spans of one workload's traced passes.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<usize>,
    cap: usize,
    dropped: u64,
    pass: u32,
}

impl Recorder {
    pub fn new(cap: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cap,
            dropped: 0,
            pass: 0,
        }
    }

    /// Subsequent spans belong to traced pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        assert!(self.stack.is_empty(), "a pass boundary inside an open span");
        self.pass = pass;
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, op: usize, start: u64, end: u64) -> Option<usize> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let parent = self.stack.last().map_or(NO_PARENT, |&i| self.spans[i].id);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, pass: self.pass, op: op as u32, name, start, end });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that may enclose others; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op: usize) -> Open {
        let now = self.since_origin(Instant::now());
        let slot = self.push(name, op, now, now);
        if let Some(i) = slot {
            self.stack.push(i);
        }
        Open(slot)
    }

    pub fn end(&mut self, open: Open) {
        let now = self.since_origin(Instant::now());
        if let Some(i) = open.0 {
            assert_eq!(self.stack.pop(), Some(i), "spans must close innermost first");
            self.spans[i].end = now;
        }
    }

    /// Records a leaf span around `f`.
    pub fn leaf<R>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.closed(name, op, start, end);
        out
    }

    /// Records a leaf span from instants the caller already took (the op
    /// timer's own pair, so a traced op is clocked once, not twice).
    pub fn closed(&mut self, name: &'static str, op: usize, start: Instant, end: Instant) {
        let (start, end) = (self.since_origin(start), self.since_origin(end));
        self.push(name, op, start, end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-occurrence minimum over the traced passes of `value(index, span)`
    /// for the spans called `name`: entry `i` is the floor of the `i`-th time
    /// the span occurs in a pass. Empty when the span never occurred. Passes
    /// replay one op list, so occurrence counts agree unless spans were
    /// dropped; then only the common prefix is floored.
    pub fn floor_of(&self, name: &str, value: impl Fn(usize, &Span) -> u64) -> Vec<u64> {
        let mut passes: Vec<Vec<u64>> = Vec::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            if passes.len() <= s.pass as usize {
                passes.resize_with(s.pass as usize + 1, Vec::new);
            }
            passes[s.pass as usize].push(value(i, s));
        }
        passes.retain(|p| !p.is_empty());
        let Some(len) = passes.iter().map(Vec::len).min() else {
            return Vec::new();
        };
        (0..len).map(|i| passes.iter().map(|p| p[i]).min().expect("at least one pass")).collect()
    }

    /// [`Self::floor_of`] the spans' durations.
    pub fn floor(&self, name: &str) -> Vec<u64> {
        self.floor_of(name, |_, s| s.duration())
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children never overlap (one thread records them in
/// sequence), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.duration());
        }
    }
    own
}

/// Writes the recorders of a run as one JSON document: a name table and,
/// per workload, rows of `[id, parent, pass, op, name_index, start_ns,
/// end_ns]`.
pub fn write_json(
    out: &mut impl std::io::Write,
    recorders: &[(&str, &Recorder)],
) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index = std::collections::BTreeMap::new();
    for (_, rec) in recorders {
        for s in rec.spans() {
            index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
    }
    write!(
        out,
        "{{\"columns\":[\"id\",\"parent\",\"pass\",\"op\",\"name\",\"start_ns\",\"end_ns\"],"
    )?;
    write!(out, "\"names\":[")?;
    for (i, name) in names.iter().enumerate() {
        write!(out, "{}\"{name}\"", if i == 0 { "" } else { "," })?;
    }
    write!(out, "],\"workloads\":[")?;
    for (w, (workload, rec)) in recorders.iter().enumerate() {
        write!(
            out,
            "{}\n{{\"workload\":\"{workload}\",\"dropped\":{},\"spans\":[",
            if w == 0 { "" } else { "," },
            rec.dropped()
        )?;
        for (i, s) in rec.spans().iter().enumerate() {
            write!(
                out,
                "{}\n[{},{},{},{},{},{},{}]",
                if i == 0 { "" } else { "," },
                s.id,
                s.parent,
                s.pass,
                s.op,
                index[s.name],
                s.start,
                s.end
            )?;
        }
        write!(out, "]}}")?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span { id, parent, pass: 0, op: 0, name: "x", start, end }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 1 [0,100] ⊃ 2 [10,40] ⊃ 3 [15,25];  1 ⊃ 4 [50,70].
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 2, 15, 25), span(4, 1, 50, 70)];
        assert_eq!(self_times(&spans), vec![100 - 30 - 20, 30 - 10, 10, 20]);
    }

    #[test]
    fn nesting_and_parents() {
        let mut rec = Recorder::new(16);
        let outer = rec.begin("outer", 3);
        rec.leaf("inner", 3, || std::hint::black_box(1 + 1));
        rec.end(outer);
        rec.leaf("alone", 4, || ());
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent), ("outer", NO_PARENT));
        assert_eq!((s[1].name, s[1].parent), ("inner", s[0].id));
        assert_eq!((s[2].name, s[2].parent, s[2].op), ("alone", NO_PARENT, 4));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }

    #[test]
    fn a_full_recorder_counts_drops() {
        let mut rec = Recorder::new(2);
        for _ in 0..5 {
            rec.leaf("x", 0, || ());
        }
        let open = rec.begin("y", 0);
        rec.end(open);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.dropped(), 4);
    }

    #[test]
    fn floor_is_per_occurrence_across_passes() {
        let mut rec = Recorder::new(64);
        let t0 = rec.origin;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        rec.set_pass(0);
        rec.closed("a", 0, at(0), at(50));
        rec.closed("a", 1, at(100), at(130));
        rec.set_pass(1);
        rec.closed("a", 0, at(200), at(240));
        rec.closed("a", 1, at(300), at(360));
        assert_eq!(rec.floor("a"), vec![40, 30]);
        assert!(rec.floor("missing").is_empty());
    }

    #[test]
    fn json_has_one_row_per_span() {
        let mut rec = Recorder::new(8);
        rec.leaf("a.b", 1, || ());
        rec.leaf("c.d", 2, || ());
        let mut out = Vec::new();
        write_json(&mut out, &[("w", &rec)]).unwrap();
        let doc =
            serde_json::from_str::<serde_json::Value>(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(doc["names"].as_array().unwrap().len(), 2);
        let spans = doc["workloads"].as_array().unwrap()[0]["spans"].as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].as_array().unwrap()[3].as_u64(), Some(2));
    }
}
