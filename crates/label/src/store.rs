//! Anomaly-interval label storage with per-node CSV persistence — the
//! `labels/` directory format of the paper's labeling tool (artifact A2).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A labelled anomaly interval `[start, end)` with an optional note.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interval {
    pub start: usize,
    pub end: usize,
    pub note: String,
}

impl Interval {
    pub fn new(start: usize, end: usize, note: impl Into<String>) -> Self {
        assert!(start < end, "interval must be non-empty");
        Self {
            start,
            end,
            note: note.into(),
        }
    }

    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Per-node label store. Intervals are kept sorted and non-overlapping
/// (labels merge on overlap, as the GUI tool does when an operator drags
/// across an existing annotation).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LabelStore {
    nodes: BTreeMap<usize, Vec<Interval>>,
}

impl LabelStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (and merge) an anomaly interval for a node.
    pub fn label(&mut self, node: usize, interval: Interval) {
        let list = self.nodes.entry(node).or_default();
        let mut merged = interval;
        let mut kept: Vec<Interval> = Vec::with_capacity(list.len() + 1);
        for iv in list.drain(..) {
            if iv.overlaps(&merged) || iv.end == merged.start || merged.end == iv.start {
                merged.start = merged.start.min(iv.start);
                merged.end = merged.end.max(iv.end);
                if merged.note.is_empty() {
                    merged.note = iv.note;
                }
            } else {
                kept.push(iv);
            }
        }
        kept.push(merged);
        kept.sort_by_key(|iv| iv.start);
        *list = kept;
    }

    /// Remove labels overlapping `[start, end)` for a node, truncating
    /// partial overlaps ("cancel anomalous intervals").
    pub fn unlabel(&mut self, node: usize, start: usize, end: usize) {
        let Some(list) = self.nodes.get_mut(&node) else {
            return;
        };
        let mut next: Vec<Interval> = Vec::with_capacity(list.len());
        for iv in list.drain(..) {
            if iv.end <= start || iv.start >= end {
                next.push(iv);
                continue;
            }
            if iv.start < start {
                next.push(Interval {
                    start: iv.start,
                    end: start,
                    note: iv.note.clone(),
                });
            }
            if iv.end > end {
                next.push(Interval {
                    start: end,
                    end: iv.end,
                    note: iv.note.clone(),
                });
            }
        }
        *list = next;
    }

    /// Intervals for a node (sorted).
    pub fn intervals(&self, node: usize) -> &[Interval] {
        self.nodes.get(&node).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Nodes that carry at least one label.
    pub fn labelled_nodes(&self) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&n, _)| n)
            .collect()
    }

    /// Point-wise boolean labels over `[0, horizon)`.
    pub fn point_labels(&self, node: usize, horizon: usize) -> Vec<bool> {
        let mut out = vec![false; horizon];
        for iv in self.intervals(node) {
            for slot in out[iv.start.min(horizon)..iv.end.min(horizon)].iter_mut() {
                *slot = true;
            }
        }
        out
    }

    /// Serialise one node's labels as CSV (`start,end,note`). A note's
    /// commas and line breaks are written as `;`, so every interval is
    /// one row.
    pub fn to_csv(&self, node: usize) -> String {
        let mut s = String::from("start,end,note\n");
        for iv in self.intervals(node) {
            let note = iv.note.replace([',', '\n', '\r'], ";");
            let _ = writeln!(s, "{},{},{}", iv.start, iv.end, note);
        }
        s
    }

    /// Parse one node's labels from CSV produced by [`Self::to_csv`].
    /// Every row is parsed before any is applied, so a load that fails
    /// leaves the store as it was.
    pub fn load_csv(&mut self, node: usize, csv: &str) -> Result<(), String> {
        let mut rows = Vec::new();
        for (lineno, line) in csv.lines().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ',');
            let start: usize = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: missing start"))?
                .trim()
                .parse()
                .map_err(|e| format!("line {lineno}: {e}"))?;
            let end: usize = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: missing end"))?
                .trim()
                .parse()
                .map_err(|e| format!("line {lineno}: {e}"))?;
            if start >= end {
                return Err(format!("line {lineno}: empty interval {start}..{end}"));
            }
            let note = parts.next().unwrap_or("").to_string();
            rows.push(Interval { start, end, note });
        }
        for iv in rows {
            self.label(node, iv);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_and_query() {
        let mut s = LabelStore::new();
        s.label(3, Interval::new(10, 20, "oom"));
        s.label(3, Interval::new(40, 50, ""));
        assert_eq!(s.intervals(3).len(), 2);
        assert_eq!(s.labelled_nodes(), vec![3]);
        let pts = s.point_labels(3, 60);
        assert!(pts[10] && pts[19] && !pts[20] && pts[45]);
    }

    #[test]
    fn overlapping_labels_merge() {
        let mut s = LabelStore::new();
        s.label(0, Interval::new(10, 20, "a"));
        s.label(0, Interval::new(15, 30, "b"));
        s.label(0, Interval::new(30, 35, "c")); // adjacent merges too
                                                // The most recent non-empty note wins the merged interval.
        assert_eq!(s.intervals(0), &[Interval::new(10, 35, "c")]);
    }

    #[test]
    fn unlabel_truncates_partial_overlaps() {
        let mut s = LabelStore::new();
        s.label(0, Interval::new(10, 40, "x"));
        s.unlabel(0, 20, 30);
        assert_eq!(
            s.intervals(0),
            &[Interval::new(10, 20, "x"), Interval::new(30, 40, "x")]
        );
        s.unlabel(0, 0, 100);
        assert!(s.intervals(0).is_empty());
    }

    #[test]
    fn csv_roundtrip() {
        let mut s = LabelStore::new();
        s.label(7, Interval::new(5, 9, "net, partition"));
        s.label(7, Interval::new(20, 22, ""));
        let csv = s.to_csv(7);
        let mut s2 = LabelStore::new();
        s2.load_csv(7, &csv).unwrap();
        assert_eq!(s2.intervals(7).len(), 2);
        assert_eq!(s2.intervals(7)[0].note, "net; partition");
    }

    #[test]
    fn csv_roundtrip_keeps_a_note_with_a_line_break() {
        let mut s = LabelStore::new();
        s.label(2, Interval::new(10, 20, "disk full\nsee ticket"));
        s.label(2, Interval::new(40, 50, "ok"));
        let mut s2 = LabelStore::new();
        s2.load_csv(2, &s.to_csv(2)).unwrap();
        assert_eq!(
            s2.intervals(2),
            &[
                Interval::new(10, 20, "disk full;see ticket"),
                Interval::new(40, 50, "ok")
            ]
        );
    }

    #[test]
    fn failed_load_leaves_the_store_unchanged() {
        let mut s = LabelStore::new();
        s.label(2, Interval::new(0, 5, "kept"));
        let before = s.intervals(2).to_vec();
        let csv = "start,end,note\n10,20,first\n30,x,bad\n";
        assert!(s.load_csv(2, csv).is_err());
        assert_eq!(s.intervals(2), &before[..]);
    }

    #[test]
    fn csv_rejects_garbage() {
        let mut s = LabelStore::new();
        assert!(s.load_csv(0, "start,end,note\nfoo,3,\n").is_err());
        assert!(s.load_csv(0, "start,end,note\n9,3,\n").is_err());
        assert!(s.load_csv(0, "start,end,note\n\n").is_ok());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_rejected() {
        Interval::new(5, 5, "");
    }
}
