//! The harness's own spans: one record around every call it makes into
//! the system (`write`, `ack_wait`, `drain`, `trace_stream`,
//! `submit_many`, `drain_round`), grouped under a per-round or
//! per-burst parent. Spans stay in memory during the run and are
//! written as JSONL when the benchmark ends; spans *inside* the program
//! are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One span: times are nanoseconds since the timed phase began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same log.
    pub parent: Option<u32>,
    /// Round or burst id shared by every span of one request group.
    pub group: u64,
}

/// Per-name roll-up of a log.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span log. A disabled log records nothing, so the
/// untraced run and the untraced windows of a traced run pay one
/// branch per call site.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span whose end is not known yet; close it with
    /// [`SpanLog::close`]. Returns `None` (and records nothing) when
    /// disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<u32>,
        group: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = u32::try_from(self.spans.len()).ok()?;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group,
        });
        Some(idx)
    }

    pub fn close(&mut self, idx: Option<u32>, end_ns: u64) {
        if let Some(span) = idx.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    /// Record a finished span in one call.
    pub fn leaf(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        group: u64,
    ) {
        let idx = self.open(name, start_ns, parent, group);
        self.close(idx, end_ns);
    }

    /// Append another thread's log, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p.saturating_add(base));
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (overlapping children count
    /// once, and a child reaching outside its parent is clipped).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| children.get_mut(p as usize)) {
                slot.push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Count, total duration and total self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    /// Write the log as JSONL, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start_ns, s.end_ns, s.group
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::new(true);
        let round = log.open("round", 0, None, 7);
        log.leaf("write", 10, 30, round, 7);
        log.leaf("ack_wait", 30, 90, round, 7);
        log.close(round, 100);
        assert_eq!(log.self_times(), vec![20, 20, 60]);
        let totals = log.totals_by_name();
        assert_eq!(
            totals["round"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_clipped() {
        let mut log = SpanLog::new(true);
        let p = log.open("p", 100, None, 0);
        log.leaf("a", 110, 150, p, 0);
        log.leaf("b", 140, 170, p, 0); // overlaps a by 10
        log.leaf("c", 190, 250, p, 0); // overhangs the parent's end
        log.close(p, 200);
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(log.self_times()[0], 100 - 70);
    }

    #[test]
    fn disabled_log_records_nothing_and_absorb_rebases_parents() {
        let mut off = SpanLog::new(false);
        let idx = off.open("x", 0, None, 0);
        off.close(idx, 5);
        off.leaf("y", 0, 1, idx, 0);
        assert_eq!(off.len(), 0);

        let mut a = SpanLog::new(true);
        a.leaf("first", 0, 1, None, 0);
        let mut b = SpanLog::new(true);
        let p = b.open("parent", 0, None, 1);
        b.leaf("child", 2, 4, p, 1);
        b.close(p, 10);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.self_times(), vec![1, 8, 2]);
    }
}
